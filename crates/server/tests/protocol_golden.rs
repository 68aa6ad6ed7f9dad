//! Golden tests for protocol replies: every error shape a client can
//! provoke has a pinned byte-exact response, and the framed stream loop
//! enforces size and UTF-8 rules.

use std::io::Cursor;
use std::sync::Arc;
use xmlta_server::{serve_stream, Session, SessionEnd, Shared};

const GOOD: &str = "\
input dtd {
  start r
  r -> x*
  x -> eps
}
output dtd {
  start r
  r -> y*
}
transducer {
  states root q
  initial root
  (root, r) -> r(q)
  (q, x) -> y
}
";

/// Runs `input` through a fresh session over an in-memory stream.
fn run(input: &str, max_frame: usize) -> (Vec<String>, SessionEnd) {
    let mut session = Session::new(Shared::new());
    let mut out: Vec<u8> = Vec::new();
    let end = serve_stream(
        &mut session,
        Cursor::new(input.as_bytes()),
        &mut out,
        max_frame,
    )
    .expect("in-memory IO cannot fail");
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let lines = text.lines().map(str::to_string).collect();
    (lines, end)
}

/// One frame in, one frame out.
fn one(input: &str) -> String {
    let (lines, _) = run(&format!("{input}\n"), 1 << 20);
    assert_eq!(lines.len(), 1, "exactly one response for {input:?}");
    lines.into_iter().next().unwrap()
}

#[test]
fn golden_malformed_frames() {
    assert_eq!(
        one("this is not json"),
        r#"{"id":null,"ok":false,"error":{"code":"malformed-frame","message":"frame is not valid JSON: byte 0: expected `true`"}}"#
    );
    assert_eq!(
        one("[1, 2]"),
        r#"{"id":null,"ok":false,"error":{"code":"malformed-frame","message":"frame must be a JSON object"}}"#
    );
    assert_eq!(
        one("{\"id\": 3} trailing"),
        r#"{"id":null,"ok":false,"error":{"code":"malformed-frame","message":"frame is not valid JSON: byte 10: trailing characters after the value"}}"#
    );
}

#[test]
fn golden_bad_requests() {
    assert_eq!(
        one("{}"),
        r#"{"id":null,"ok":false,"error":{"code":"bad-request","message":"missing or non-string `op`"}}"#
    );
    assert_eq!(
        one(r#"{"id": 4, "op": "typecheck"}"#),
        r#"{"id":4,"ok":false,"error":{"code":"bad-request","message":"needs a `handle` or a `source`"}}"#
    );
    assert_eq!(
        one(r#"{"id": "x", "op": "typecheck", "handle": "h", "source": "s"}"#),
        r#"{"id":"x","ok":false,"error":{"code":"bad-request","message":"give `handle` or `source`, not both"}}"#
    );
    assert_eq!(
        one(r#"{"id": 5, "op": "batch"}"#),
        r#"{"id":5,"ok":false,"error":{"code":"bad-request","message":"`batch` needs an `items` array"}}"#
    );
    assert_eq!(
        one(r#"{"id": 6, "op": "batch", "items": [{"name": "a"}]}"#),
        r#"{"id":6,"ok":false,"error":{"code":"bad-request","message":"batch item #0 (a): needs a `handle` or a `source`"}}"#
    );
    assert_eq!(
        one(r#"{"id": {"nested": true}, "op": "ping"}"#),
        r#"{"id":null,"ok":false,"error":{"code":"bad-request","message":"`id` must be a string, a number, or null"}}"#
    );
}

#[test]
fn golden_version_and_op_errors() {
    assert_eq!(
        one(r#"{"v": 2, "id": 1, "op": "ping"}"#),
        r#"{"id":1,"ok":false,"error":{"code":"unsupported-protocol","message":"this server speaks protocol version 1"}}"#
    );
    assert_eq!(
        one(r#"{"id": 1, "op": "frobnicate"}"#),
        r#"{"id":1,"ok":false,"error":{"code":"unknown-op","message":"unknown op `frobnicate`"}}"#
    );
}

#[test]
fn golden_unknown_handle() {
    assert_eq!(
        one(r#"{"id": 7, "op": "typecheck", "handle": "i0000000000000000"}"#),
        r#"{"id":7,"ok":false,"error":{"code":"unknown-handle","message":"handle `i0000000000000000` was not registered on this connection"}}"#
    );
    assert_eq!(
        one(r#"{"id": 8, "op": "batch", "items": [{"name": "a", "handle": "nope"}]}"#),
        r#"{"id":8,"ok":false,"error":{"code":"unknown-handle","message":"batch item `a`: handle `nope` was not registered on this connection"}}"#
    );
}

#[test]
fn golden_invalid_instance() {
    assert_eq!(
        one(r#"{"id": 9, "op": "register", "source": "input dtd {"}"#),
        r#"{"id":9,"ok":false,"error":{"code":"invalid-instance","message":"parse error: line 2, col 1: unclosed dtd section"}}"#
    );
}

#[test]
fn golden_register_bin_errors() {
    assert_eq!(
        one(r#"{"id": 10, "op": "register_bin"}"#),
        r#"{"id":10,"ok":false,"error":{"code":"bad-request","message":"`register_bin` needs a base64 string `data`"}}"#
    );
    assert_eq!(
        one(r#"{"id": 11, "op": "register_bin", "data": "not base64!"}"#),
        r#"{"id":11,"ok":false,"error":{"code":"bad-request","message":"`register_bin` data is not valid base64: base64 length 11 is not a multiple of 4"}}"#
    );
    // Valid base64, invalid frame: `Zm9v` is "foo".
    assert_eq!(
        one(r#"{"id": 12, "op": "register_bin", "data": "Zm9v"}"#),
        r#"{"id":12,"ok":false,"error":{"code":"invalid-instance","message":"decode error: byte 0: not an xtb frame (bad magic)"}}"#
    );
    // A truncated real frame reports the offset it died at.
    let instance = xmlta_service::parse_instance(GOOD).expect("parses");
    let bytes = xmlta_service::encode_instance(&instance).expect("encodes");
    let data = xmlta_service::binfmt::base64_encode(&bytes[..6]);
    let response = one(&format!(
        "{{\"id\": 13, \"op\": \"register_bin\", \"data\": \"{data}\"}}"
    ));
    assert!(
        response.contains("\"code\":\"invalid-instance\"")
            && response.contains("decode error: byte"),
        "{response}"
    );
}

#[test]
fn golden_hello_negotiation() {
    // Without `accepts`: the original response, byte for byte.
    assert_eq!(
        one(r#"{"id": 1, "op": "hello"}"#),
        r#"{"id":1,"ok":true,"server":"xmltad","protocol":1}"#
    );
    // With `accepts`: the intersection with the server's formats, in the
    // server's preference order.
    assert_eq!(
        one(r#"{"id": 2, "op": "hello", "accepts": ["xtb", "xti", "exotic"]}"#),
        r#"{"id":2,"ok":true,"server":"xmltad","protocol":1,"formats":["xti","xtb"]}"#
    );
    assert_eq!(
        one(r#"{"id": 3, "op": "hello", "accepts": []}"#),
        r#"{"id":3,"ok":true,"server":"xmltad","protocol":1,"formats":[]}"#
    );
    assert_eq!(
        one(r#"{"id": 4, "op": "hello", "accepts": "xtb"}"#),
        r#"{"id":4,"ok":false,"error":{"code":"bad-request","message":"`accepts` must be an array of strings"}}"#
    );
}

#[test]
fn golden_hello_v2_negotiation() {
    // Granting v2: the response reports the granted protocol and pipeline
    // depth (requested, or the server's cap when absent).
    assert_eq!(
        one(r#"{"id": 1, "op": "hello", "max_v": 2, "pipeline": 8}"#),
        r#"{"id":1,"ok":true,"server":"xmltad","protocol":2,"pipeline":8}"#
    );
    assert_eq!(
        one(r#"{"id": 2, "op": "hello", "max_v": 2}"#),
        r#"{"id":2,"ok":true,"server":"xmltad","protocol":2,"pipeline":32}"#
    );
    // A newer client: the server grants the highest version *it* speaks.
    assert_eq!(
        one(r#"{"id": 3, "op": "hello", "max_v": 9, "pipeline": 1}"#),
        r#"{"id":3,"ok":true,"server":"xmltad","protocol":2,"pipeline":1}"#
    );
    // v2 negotiation combined with format negotiation: `formats` keeps its
    // v1 position, `pipeline` is appended.
    assert_eq!(
        one(r#"{"id": 4, "op": "hello", "max_v": 2, "pipeline": 4, "accepts": ["xtb"]}"#),
        r#"{"id":4,"ok":true,"server":"xmltad","protocol":2,"formats":["xtb"],"pipeline":4}"#
    );
    // `max_v: 1` is a no-op negotiation: the v1 reply, byte for byte.
    assert_eq!(
        one(r#"{"id": 5, "op": "hello", "max_v": 1}"#),
        r#"{"id":5,"ok":true,"server":"xmltad","protocol":1}"#
    );
}

#[test]
fn golden_hello_v2_errors() {
    // The backpressure reply: asking beyond the cap names the cap and
    // leaves the connection at its previous version.
    assert_eq!(
        one(r#"{"id": 1, "op": "hello", "max_v": 2, "pipeline": 64}"#),
        r#"{"id":1,"ok":false,"error":{"code":"pipeline-depth-exceeded","message":"pipeline depth 64 exceeds this server's cap of 32"}}"#
    );
    // ... so a follow-up v2 frame is still rejected with the v1 message.
    let input = "{\"id\": 1, \"op\": \"hello\", \"max_v\": 2, \"pipeline\": 64}\n\
                 {\"v\": 2, \"id\": 2, \"op\": \"ping\"}\n";
    let (lines, _) = run(input, 1 << 20);
    assert_eq!(
        lines[1],
        r#"{"id":2,"ok":false,"error":{"code":"unsupported-protocol","message":"this server speaks protocol version 1"}}"#
    );
    // Ill-typed negotiation fields.
    assert_eq!(
        one(r#"{"id": 2, "op": "hello", "max_v": 0}"#),
        r#"{"id":2,"ok":false,"error":{"code":"bad-request","message":"`max_v` must be a positive integer"}}"#
    );
    assert_eq!(
        one(r#"{"id": 3, "op": "hello", "max_v": "two"}"#),
        r#"{"id":3,"ok":false,"error":{"code":"bad-request","message":"`max_v` must be a positive integer"}}"#
    );
    assert_eq!(
        one(r#"{"id": 4, "op": "hello", "max_v": 2, "pipeline": 0}"#),
        r#"{"id":4,"ok":false,"error":{"code":"bad-request","message":"`pipeline` must be a positive integer"}}"#
    );
    // `pipeline` without (or with a v1) negotiation is meaningless.
    assert_eq!(
        one(r#"{"id": 5, "op": "hello", "pipeline": 4}"#),
        r#"{"id":5,"ok":false,"error":{"code":"bad-request","message":"`pipeline` requires `max_v` 2 or higher"}}"#
    );
    assert_eq!(
        one(r#"{"id": 6, "op": "hello", "max_v": 1, "pipeline": 4}"#),
        r#"{"id":6,"ok":false,"error":{"code":"bad-request","message":"`pipeline` requires `max_v` 2 or higher"}}"#
    );
}

/// Runs a v2 session (hello + `input` frames) and returns the non-hello
/// responses keyed by stringified id — v2 responses arrive in completion
/// order, so goldens correlate by id instead of position.
fn v2_by_id(input: &str) -> std::collections::HashMap<String, String> {
    let full = format!("{{\"id\": \"hello\", \"op\": \"hello\", \"max_v\": 2}}\n{input}");
    let (lines, _) = run(&full, 1 << 20);
    let mut map = std::collections::HashMap::new();
    for line in lines {
        let id = xmlta_service::parse_json(&line)
            .expect("response parses")
            .get("id")
            .expect("response echoes an id")
            .to_string();
        assert!(map.insert(id, line).is_none(), "duplicate id");
    }
    assert_eq!(
        map.remove("\"hello\"").unwrap(),
        r#"{"id":"hello","ok":true,"server":"xmltad","protocol":2,"pipeline":32}"#
    );
    map
}

#[test]
fn golden_v2_id_echo_and_errors() {
    let responses = v2_by_id(
        "{\"id\": 7, \"op\": \"ping\"}\n\
         {\"id\": \"str-id\", \"op\": \"ping\"}\n\
         {\"op\": \"ping\"}\n\
         {\"v\": 2, \"id\": 8, \"op\": \"typecheck\", \"handle\": \"i0000000000000000\"}\n\
         {\"v\": 3, \"id\": 9, \"op\": \"ping\"}\n\
         {\"id\": 10, \"op\": \"hello\", \"max_v\": 2}\n",
    );
    // Number and string ids echo verbatim; an absent id echoes null.
    assert_eq!(responses["7"], r#"{"id":7,"ok":true}"#);
    assert_eq!(responses["\"str-id\""], r#"{"id":"str-id","ok":true}"#);
    assert_eq!(responses["null"], r#"{"id":null,"ok":true}"#);
    // Unknown handles on v2 answer synchronously with the pinned shape.
    assert_eq!(
        responses["8"],
        r#"{"id":8,"ok":false,"error":{"code":"unknown-handle","message":"handle `i0000000000000000` was not registered on this connection"}}"#
    );
    // Version beyond the negotiated one: the v2 wording.
    assert_eq!(
        responses["9"],
        r#"{"id":9,"ok":false,"error":{"code":"unsupported-protocol","message":"this connection speaks protocol versions 1 to 2"}}"#
    );
    // Re-negotiation is rejected.
    assert_eq!(
        responses["10"],
        r#"{"id":10,"ok":false,"error":{"code":"bad-request","message":"protocol already negotiated on this connection"}}"#
    );
}

#[test]
fn golden_v2_malformed_id_shapes() {
    // Malformed ids cannot ride the map-by-id harness (they collapse to
    // null); pin them frame by frame on a fresh v2 session each.
    for (frame, want) in [
        (
            r#"{"id": {"nested": true}, "op": "ping"}"#,
            r#"{"id":null,"ok":false,"error":{"code":"bad-request","message":"`id` must be a string, a number, or null"}}"#,
        ),
        (
            r#"{"id": [3], "op": "typecheck", "source": "x"}"#,
            r#"{"id":null,"ok":false,"error":{"code":"bad-request","message":"`id` must be a string, a number, or null"}}"#,
        ),
        (
            r#"{"id": true, "op": "ping"}"#,
            r#"{"id":null,"ok":false,"error":{"code":"bad-request","message":"`id` must be a string, a number, or null"}}"#,
        ),
    ] {
        let input = format!("{{\"op\": \"hello\", \"max_v\": 2}}\n{frame}\n");
        let (lines, _) = run(&input, 1 << 20);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], want, "for frame {frame}");
    }
}

#[test]
fn golden_batch_bin_gating_and_errors() {
    // On a v1 connection the op does not exist — the pre-v2 bytes.
    assert_eq!(
        one(r#"{"id": 1, "op": "batch_bin", "data": "eHRzAQ=="}"#),
        r#"{"id":1,"ok":false,"error":{"code":"unknown-op","message":"unknown op `batch_bin`"}}"#
    );
    // On a v2 connection: missing/ill-formed payloads are bad requests...
    let responses = v2_by_id(
        "{\"id\": 1, \"op\": \"batch_bin\"}\n\
         {\"id\": 2, \"op\": \"batch_bin\", \"data\": \"not base64!\"}\n\
         {\"id\": 3, \"op\": \"batch_bin\", \"data\": \"Zm9v\"}\n",
    );
    assert_eq!(
        responses["1"],
        r#"{"id":1,"ok":false,"error":{"code":"bad-request","message":"`batch_bin` needs a base64 string `data`"}}"#
    );
    assert_eq!(
        responses["2"],
        r#"{"id":2,"ok":false,"error":{"code":"bad-request","message":"`batch_bin` data is not valid base64: base64 length 11 is not a multiple of 4"}}"#
    );
    // ... and a decodable payload that is not an .xts stream is an
    // invalid-instance decode error (`Zm9v` is "foo").
    assert_eq!(
        responses["3"],
        r#"{"id":3,"ok":false,"error":{"code":"invalid-instance","message":"decode error: byte 0: not an xts stream (bad magic)"}}"#
    );
    // An empty but well-formed stream is an empty batch.
    let empty = xmlta_service::encode_stream(std::iter::empty()).expect("encodes");
    let frame = format!(
        "{{\"id\": 4, \"op\": \"batch_bin\", \"data\": \"{}\"}}\n",
        xmlta_service::binfmt::base64_encode(&empty)
    );
    let responses = v2_by_id(&frame);
    assert_eq!(
        responses["4"],
        r#"{"id":4,"ok":true,"report":{"xmlta":"batch","total":0,"typechecks":0,"counterexamples":0,"errors":0,"results":[]}}"#
    );
}

#[test]
fn golden_batch_bin_streamed_frames() {
    // `"stream": true` replaces the single report reply with one frame
    // per item (in item order, contiguous) plus a final tally frame, all
    // under the request id. Splicing the item objects into the tally's
    // `results` array reconstructs the unstreamed report byte for byte.
    let instance = xmlta_service::parse_instance(GOOD).expect("parses");
    let named = [("a.xti", &instance), ("b.xti", &instance)];
    let stream = xmlta_service::encode_stream(named.iter().map(|&(n, i)| (n, i))).expect("encodes");
    let input = format!(
        "{{\"id\": \"hello\", \"op\": \"hello\", \"max_v\": 2}}\n\
         {{\"id\": 9, \"op\": \"batch_bin\", \"data\": \"{}\", \"stream\": true}}\n",
        xmlta_service::binfmt::base64_encode(&stream)
    );
    let (lines, _) = run(&input, 1 << 20);
    assert_eq!(
        lines,
        vec![
            r#"{"id":"hello","ok":true,"server":"xmltad","protocol":2,"pipeline":32}"#.to_string(),
            r#"{"id":9,"ok":true,"item":{"name":"a.xti","status":"typechecks"}}"#.to_string(),
            r#"{"id":9,"ok":true,"item":{"name":"b.xti","status":"typechecks"}}"#.to_string(),
            r#"{"id":9,"ok":true,"report":{"xmlta":"batch","total":2,"typechecks":2,"counterexamples":0,"errors":0}}"#.to_string(),
        ]
    );
    // An empty streamed batch is just the tally frame.
    let empty = xmlta_service::encode_stream(std::iter::empty()).expect("encodes");
    let input = format!(
        "{{\"id\": \"hello\", \"op\": \"hello\", \"max_v\": 2}}\n\
         {{\"id\": 5, \"op\": \"batch_bin\", \"data\": \"{}\", \"stream\": true}}\n",
        xmlta_service::binfmt::base64_encode(&empty)
    );
    let (lines, _) = run(&input, 1 << 20);
    assert_eq!(
        lines[1..],
        [r#"{"id":5,"ok":true,"report":{"xmlta":"batch","total":0,"typechecks":0,"counterexamples":0,"errors":0}}"#.to_string()]
    );
    // `stream` must be a boolean; `false` is exactly the unstreamed reply.
    let responses = v2_by_id(&format!(
        "{{\"id\": 6, \"op\": \"batch_bin\", \"data\": \"{0}\", \"stream\": \"yes\"}}\n\
         {{\"id\": 7, \"op\": \"batch_bin\", \"data\": \"{0}\", \"stream\": false}}\n",
        xmlta_service::binfmt::base64_encode(&empty)
    ));
    assert_eq!(
        responses["6"],
        r#"{"id":6,"ok":false,"error":{"code":"bad-request","message":"`stream` must be a boolean"}}"#
    );
    assert_eq!(
        responses["7"],
        r#"{"id":7,"ok":true,"report":{"xmlta":"batch","total":0,"typechecks":0,"counterexamples":0,"errors":0,"results":[]}}"#
    );
}

#[test]
fn stats_surfaces_memo_evictions() {
    // A memo of capacity 1 over two distinct instances: the second
    // typecheck evicts the first, and the `stats` op must report it.
    let shared = Shared::with_capacities(4096, 1);
    let mut session = Session::new(shared);
    let other = GOOD.replace("y*", "y* y*");
    let mut frame = |f: &str| session.handle_frame(f).0;
    let source_a = xmlta_service::json::escaped(GOOD);
    let source_b = xmlta_service::json::escaped(&other);
    frame(&format!(
        "{{\"id\": 1, \"op\": \"typecheck\", \"source\": {source_a}}}"
    ));
    frame(&format!(
        "{{\"id\": 2, \"op\": \"typecheck\", \"source\": {source_b}}}"
    ));
    let stats = frame(r#"{"id": 3, "op": "stats"}"#);
    assert!(
        stats.contains("\"memo_evictions\":1") && stats.contains("\"memo_misses\":2"),
        "{stats}"
    );
}

#[test]
fn golden_stats_v1_surface_unchanged() {
    // Stats v2 appends observability fields; a v1 client's view — the
    // first 20 keys — must stay byte-identical to the pre-v2 reply.
    // On a fresh session every counter is zero, so the whole v1 prefix
    // is pinned here byte for byte, through `"read_timeouts":0`.
    let stats = one(r#"{"id": 1, "op": "stats"}"#);
    let v1_prefix = concat!(
        r#"{"id":1,"ok":true,"stats":{"#,
        r#""schema_hits":0,"schema_misses":0,"rule_hits":0,"rule_misses":0,"#,
        r#""bout_hits":0,"bout_misses":0,"#,
        r#""memo_hits":0,"memo_misses":0,"memo_evictions":0,"#,
        r#""store_hits":0,"store_misses":0,"store_writes":0,"store_corrupt":0,"#,
        r#""registered":0,"evictions":0,"session_handles":0,"#,
        r#""conns_accepted":0,"overload_sheds":0,"deadline_sheds":0,"#,
        r#""read_timeouts":0"#,
    );
    assert!(
        stats.starts_with(v1_prefix),
        "v1 stats prefix changed:\n  want prefix {v1_prefix}\n  got         {stats}"
    );
    // The appended v2 fields, in order (uptime is wall-clock, so only
    // its key is pinned; the histogram map is process-global, so only
    // its opening is).
    let rest = &stats[v1_prefix.len()..];
    assert!(rest.starts_with(",\"uptime_ms\":"), "{stats}");
    assert!(
        rest.contains(concat!(
            r#","version":"0.1.0","protocol":1,"#,
            r#""protocol_min":1,"protocol_max":2,"hist":{"#
        )),
        "{stats}"
    );
    // The reply parses, and the new fields are well-typed.
    let parsed = xmlta_service::parse_json(&stats).expect("stats reply parses");
    let s = parsed.get("stats").expect("has stats");
    assert!(s.get("uptime_ms").and_then(|j| j.as_u64()).is_some());
    assert!(matches!(
        s.get("hist"),
        Some(xmlta_service::json::Json::Obj(_))
    ));
}

#[test]
fn golden_stats_v2_key_order() {
    // Every key of a v2 `stats` reply, in order — the v1 prefix, the
    // appended observability fields, and the update counters after
    // `hist` — so a counter rewrite cannot silently reorder the tail.
    let responses = v2_by_id("{\"id\": 1, \"op\": \"stats\"}\n");
    let parsed = xmlta_service::parse_json(&responses["1"]).expect("stats reply parses");
    let Some(xmlta_service::json::Json::Obj(fields)) = parsed.get("stats") else {
        panic!("stats is not an object: {}", responses["1"]);
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema_hits",
            "schema_misses",
            "rule_hits",
            "rule_misses",
            "bout_hits",
            "bout_misses",
            "memo_hits",
            "memo_misses",
            "memo_evictions",
            "store_hits",
            "store_misses",
            "store_writes",
            "store_corrupt",
            "registered",
            "evictions",
            "session_handles",
            "conns_accepted",
            "overload_sheds",
            "deadline_sheds",
            "read_timeouts",
            "uptime_ms",
            "version",
            "protocol",
            "protocol_min",
            "protocol_max",
            "hist",
            "update_reqs",
            "components_reused",
        ]
    );
    assert!(
        responses["1"].contains(r#","protocol":2,"protocol_min":1,"protocol_max":2,"hist":{"#),
        "{}",
        responses["1"]
    );
    assert!(
        responses["1"].ends_with(r#"},"update_reqs":0,"components_reused":0}}"#),
        "{}",
        responses["1"]
    );
}

#[test]
fn golden_trace_op_gating() {
    // On a v1 connection the op does not exist — the pinned bytes.
    assert_eq!(
        one(r#"{"id": 1, "op": "trace"}"#),
        r#"{"id":1,"ok":false,"error":{"code":"unknown-op","message":"unknown op `trace`"}}"#
    );
    // On v2: the reply carries a JSON array of recent trace events
    // (contents depend on process-global tracer state, so only the
    // shape is pinned), and `last` must be a non-negative integer.
    let responses = v2_by_id(
        "{\"id\": 1, \"op\": \"trace\"}\n\
         {\"id\": 2, \"op\": \"trace\", \"last\": 4}\n\
         {\"id\": 3, \"op\": \"trace\", \"last\": -1}\n\
         {\"id\": 4, \"op\": \"trace\", \"last\": \"all\"}\n",
    );
    for id in ["1", "2"] {
        let reply = &responses[id];
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"ok\":true,\"events\":[")),
            "{reply}"
        );
        let parsed = xmlta_service::parse_json(reply).expect("trace reply parses");
        assert!(
            matches!(
                parsed.get("events"),
                Some(xmlta_service::json::Json::Arr(_))
            ),
            "{reply}"
        );
    }
    for id in ["3", "4"] {
        assert_eq!(
            responses[id],
            format!(
                "{{\"id\":{id},\"ok\":false,\"error\":{{\"code\":\"bad-request\",\
                 \"message\":\"`last` must be a non-negative integer\"}}}}"
            )
        );
    }
}

#[test]
fn register_bin_typecheck_roundtrip_over_stream() {
    let instance = xmlta_service::parse_instance(GOOD).expect("parses");
    let bytes = xmlta_service::encode_instance(&instance).expect("encodes");
    let handle = xmlta_server::state::handle_for_binary(&bytes);
    let data = xmlta_service::binfmt::base64_encode(&bytes);
    let input = format!(
        "{{\"id\": 1, \"op\": \"register_bin\", \"data\": \"{data}\"}}\n\
         {{\"id\": 2, \"op\": \"typecheck\", \"handle\": \"{handle}\"}}\n"
    );
    let (lines, end) = run(&input, 1 << 20);
    assert_eq!(end, SessionEnd::Eof);
    assert_eq!(
        lines,
        vec![
            format!("{{\"id\":1,\"ok\":true,\"handle\":\"{handle}\"}}"),
            r#"{"id":2,"ok":true,"status":"typechecks"}"#.to_string(),
        ]
    );
    assert!(handle.starts_with('b'), "binary handles are `b`-prefixed");
}

#[test]
fn oversized_frame_answers_then_closes() {
    let long = format!(
        "{{\"id\": 1, \"op\": \"ping\", \"pad\": \"{}\"}}",
        "x".repeat(256)
    );
    let input = format!("{long}\n{{\"id\": 2, \"op\": \"ping\"}}\n");
    let (lines, end) = run(&input, 64);
    assert_eq!(end, SessionEnd::Oversized);
    assert_eq!(
        lines,
        vec![
            r#"{"id":null,"ok":false,"error":{"code":"oversized-frame","message":"frame exceeds 64 bytes; closing the connection"}}"#
                .to_string()
        ],
        "the follow-up ping must not be answered"
    );
}

#[test]
fn frame_at_the_limit_is_served() {
    let frame = r#"{"id": 1, "op": "ping"}"#;
    let (lines, end) = run(&format!("{frame}\n"), frame.len());
    assert_eq!(end, SessionEnd::Eof);
    assert_eq!(lines, vec![r#"{"id":1,"ok":true}"#.to_string()]);
}

#[test]
fn non_utf8_frame_is_rejected_and_connection_survives() {
    let mut input: Vec<u8> = b"{\"id\": 1, \"op\": \"ping\", \"x\": \"\xff\xfe\"}\n".to_vec();
    input.extend_from_slice(b"{\"id\": 2, \"op\": \"ping\"}\n");
    let mut session = Session::new(Shared::new());
    let mut out: Vec<u8> = Vec::new();
    let end = serve_stream(&mut session, Cursor::new(input), &mut out, 1 << 20).unwrap();
    assert_eq!(end, SessionEnd::Eof);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        vec![
            r#"{"id":null,"ok":false,"error":{"code":"malformed-frame","message":"frame is not valid UTF-8"}}"#,
            r#"{"id":2,"ok":true}"#,
        ]
    );
}

#[test]
fn blank_lines_and_crlf_are_tolerated() {
    let input = "\r\n  \n{\"id\": 1, \"op\": \"ping\"}\r\n\n";
    let (lines, end) = run(input, 1 << 20);
    assert_eq!(end, SessionEnd::Eof);
    assert_eq!(lines, vec![r#"{"id":1,"ok":true}"#.to_string()]);
}

#[test]
fn register_typecheck_roundtrip_over_stream() {
    let shared = Shared::new();
    let handle = xmlta_server::state::handle_for_source(GOOD);
    let source = xmlta_service::json::escaped(GOOD);
    let input = format!(
        "{{\"id\": 1, \"op\": \"register\", \"source\": {source}}}\n\
         {{\"id\": 2, \"op\": \"typecheck\", \"handle\": \"{handle}\"}}\n\
         {{\"id\": 3, \"op\": \"typecheck\", \"source\": {source}}}\n\
         {{\"id\": 4, \"op\": \"shutdown\"}}\n\
         {{\"id\": 5, \"op\": \"ping\"}}\n"
    );
    let mut session = Session::new(Arc::clone(&shared));
    let mut out: Vec<u8> = Vec::new();
    let end = serve_stream(
        &mut session,
        Cursor::new(input.as_bytes()),
        &mut out,
        1 << 20,
    )
    .unwrap();
    assert_eq!(end, SessionEnd::Shutdown, "shutdown stops the session");
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        vec![
            format!("{{\"id\":1,\"ok\":true,\"handle\":\"{handle}\"}}").as_str(),
            r#"{"id":2,"ok":true,"status":"typechecks"}"#,
            r#"{"id":3,"ok":true,"status":"typechecks"}"#,
            r#"{"id":4,"ok":true}"#,
        ],
        "the post-shutdown ping must not be answered"
    );
    assert_eq!(shared.registered(), 1);
}

#[test]
fn golden_update_gating_and_bad_requests() {
    // On a v1 connection the op does not exist — the pre-v2 bytes.
    assert_eq!(
        one(
            r#"{"id": 1, "op": "update", "handle": "h", "edit": {"kind": "remove_rule", "state": "q", "symbol": "x"}}"#
        ),
        r#"{"id":1,"ok":false,"error":{"code":"unknown-op","message":"unknown op `update`"}}"#
    );
    // On v2: every malformed payload shape has a pinned bad-request.
    let responses = v2_by_id(
        "{\"id\": 1, \"op\": \"update\"}\n\
         {\"id\": 2, \"op\": \"update\", \"handle\": \"h\"}\n\
         {\"id\": 3, \"op\": \"update\", \"handle\": \"h\", \"edit\": \"drop rule\"}\n\
         {\"id\": 4, \"op\": \"update\", \"handle\": \"h\", \"edit\": {}}\n\
         {\"id\": 5, \"op\": \"update\", \"handle\": \"h\", \"edit\": {\"kind\": \"frob\"}}\n\
         {\"id\": 6, \"op\": \"update\", \"handle\": \"h\", \"edit\": {\"kind\": \"set_rule\", \"state\": \"q\"}}\n\
         {\"id\": 7, \"op\": \"update\", \"handle\": \"h\", \"edit\": {\"kind\": \"set_schema_rule\", \"schema\": \"both\", \"symbol\": \"x\", \"rhs\": \"y\"}}\n",
    );
    assert_eq!(
        responses["1"],
        r#"{"id":1,"ok":false,"error":{"code":"bad-request","message":"`update` needs a string `handle`"}}"#
    );
    assert_eq!(
        responses["2"],
        r#"{"id":2,"ok":false,"error":{"code":"bad-request","message":"`update` needs an `edit` object"}}"#
    );
    assert_eq!(
        responses["3"],
        r#"{"id":3,"ok":false,"error":{"code":"bad-request","message":"`edit` must be an object"}}"#
    );
    assert_eq!(
        responses["4"],
        r#"{"id":4,"ok":false,"error":{"code":"bad-request","message":"`edit` needs a string `kind`"}}"#
    );
    assert_eq!(
        responses["5"],
        r#"{"id":5,"ok":false,"error":{"code":"bad-request","message":"unknown edit kind `frob` (expected set_rule, remove_rule, or set_schema_rule)"}}"#
    );
    assert_eq!(
        responses["6"],
        r#"{"id":6,"ok":false,"error":{"code":"bad-request","message":"`edit` needs a string `symbol`"}}"#
    );
    assert_eq!(
        responses["7"],
        r#"{"id":7,"ok":false,"error":{"code":"bad-request","message":"`edit.schema` must be \"input\" or \"output\""}}"#
    );
    // A well-formed edit that cannot apply (unknown state / unknown
    // symbol / missing rule) is a bad request naming the reason.
    let handle = xmlta_server::state::handle_for_source(GOOD);
    let source = xmlta_service::json::escaped(GOOD);
    let responses = v2_by_id(&format!(
        "{{\"id\": 1, \"op\": \"register\", \"source\": {source}}}\n\
         {{\"id\": 2, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"zz\", \"symbol\": \"x\", \"rhs\": \"y\"}}}}\n\
         {{\"id\": 3, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"remove_rule\", \"state\": \"q\", \"symbol\": \"nosuch\"}}}}\n\
         {{\"id\": 4, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"remove_rule\", \"state\": \"q\", \"symbol\": \"r\"}}}}\n"
    ));
    assert_eq!(
        responses["2"],
        r#"{"id":2,"ok":false,"error":{"code":"bad-request","message":"bad edit: unknown state `zz` in rhs"}}"#
    );
    assert_eq!(
        responses["3"],
        r#"{"id":3,"ok":false,"error":{"code":"bad-request","message":"bad edit: unknown symbol `nosuch`"}}"#
    );
    assert_eq!(
        responses["4"],
        r#"{"id":4,"ok":false,"error":{"code":"bad-request","message":"bad edit: rhs syntax error: no rule for (q, symbol #0) to remove"}}"#
    );
}

#[test]
fn golden_update_unknown_and_evicted_handles() {
    // Never-registered handle: the pinned unknown-handle bytes.
    let responses = v2_by_id(
        "{\"id\": 1, \"op\": \"update\", \"handle\": \"i0000000000000000\", \"edit\": {\"kind\": \"remove_rule\", \"state\": \"q\", \"symbol\": \"x\"}}\n",
    );
    assert_eq!(
        responses["1"],
        r#"{"id":1,"ok":false,"error":{"code":"unknown-handle","message":"handle `i0000000000000000` was not registered on this connection"}}"#
    );
    // The stale-handle scenario: a registry of capacity 1, session 1
    // registers A then B (evicting A from the process-wide registry).
    // Session 1 keeps its own Arc, so *its* update of A still works; a
    // fresh session referencing A's handle gets the same pinned
    // unknown-handle reply as any unregistered handle — eviction must
    // never change response bytes.
    let shared = Shared::with_capacities(1, xmlta_service::cache::DEFAULT_MEMO_CAPACITY);
    let other = GOOD.replace("y*", "y* y*");
    let handle_a = xmlta_server::state::handle_for_source(GOOD);
    let source_a = xmlta_service::json::escaped(GOOD);
    let source_b = xmlta_service::json::escaped(&other);
    let edit = r#"{"kind": "set_rule", "state": "q", "symbol": "x", "rhs": "y y"}"#;
    let mut session1 = Session::new(Arc::clone(&shared));
    session1.handle_frame(r#"{"id": 0, "op": "hello", "max_v": 2}"#);
    session1.handle_frame(&format!(
        "{{\"id\": 1, \"op\": \"register\", \"source\": {source_a}}}"
    ));
    session1.handle_frame(&format!(
        "{{\"id\": 2, \"op\": \"register\", \"source\": {source_b}}}"
    ));
    assert!(shared.evictions() > 0, "capacity 1 must have evicted A");
    let (own, _) = session1.handle_frame(&format!(
        "{{\"id\": 3, \"op\": \"update\", \"handle\": \"{handle_a}\", \"edit\": {edit}}}"
    ));
    assert!(
        own.contains("\"ok\":true") && own.contains("\"components_reused\":"),
        "own handles survive eviction: {own}"
    );
    let mut session2 = Session::new(shared);
    session2.handle_frame(r#"{"id": 0, "op": "hello", "max_v": 2}"#);
    let (stale, _) = session2.handle_frame(&format!(
        "{{\"id\": 4, \"op\": \"update\", \"handle\": \"{handle_a}\", \"edit\": {edit}}}"
    ));
    assert_eq!(
        stale,
        format!(
            "{{\"id\":4,\"ok\":false,\"error\":{{\"code\":\"unknown-handle\",\
             \"message\":\"handle `{handle_a}` was not registered on this connection\"}}}}"
        )
    );
}

#[test]
fn update_chain_serves_edits_and_reuses_components() {
    let handle = xmlta_server::state::handle_for_source(GOOD);
    let source = xmlta_service::json::escaped(GOOD);
    let responses = v2_by_id(&format!(
        "{{\"id\": 1, \"op\": \"register\", \"source\": {source}}}\n\
         {{\"id\": 2, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"q\", \"symbol\": \"x\", \"rhs\": \"x\"}}}}\n",
    ));
    // The successor gets its own content-derived handle and a verdict.
    let update = xmlta_service::parse_json(&responses["2"]).expect("update reply parses");
    assert_eq!(
        update.get("ok"),
        Some(&xmlta_service::json::Json::Bool(true))
    );
    let h2 = update
        .get("handle")
        .and_then(|j| j.as_str())
        .expect("update returns the successor handle")
        .to_string();
    assert_ne!(h2, handle, "an edit produces a new version");
    assert!(h2.starts_with('i'), "successor handles are content handles");
    // The edited rule emits `x`, which the output model `r -> y*`
    // rejects — the verdict flips to a counterexample.
    assert_eq!(
        update.get("status").and_then(|j| j.as_str()),
        Some("counterexample")
    );
    let reused = update
        .get("components_reused")
        .and_then(|j| j.as_u64())
        .expect("update reports components_reused");
    assert!(reused > 0, "a single-rule edit must reuse components");
    // The successor handle is immediately usable, and chains: editing the
    // rule back flips the verdict back (the successor of the successor is
    // the *printed* form of v1, so its handle differs from the original
    // registration's raw-source handle).
    let responses = v2_by_id(&format!(
        "{{\"id\": 1, \"op\": \"register\", \"source\": {source}}}\n\
         {{\"id\": 2, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"q\", \"symbol\": \"x\", \"rhs\": \"x\"}}}}\n\
         {{\"id\": 3, \"op\": \"update\", \"handle\": \"{h2}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"q\", \"symbol\": \"x\", \"rhs\": \"y\"}}}}\n\
         {{\"id\": 4, \"op\": \"stats\"}}\n",
    ));
    let back = xmlta_service::parse_json(&responses["3"]).expect("parses");
    assert_eq!(
        back.get("status").and_then(|j| j.as_str()),
        Some("typechecks")
    );
    let h3 = back.get("handle").and_then(|j| j.as_str()).unwrap();
    let (typecheck, _) = {
        // The successor resolves like any registered handle on this
        // connection — but sessions are per-stream here, so pin it via a
        // fresh chain instead: the same edit script must reproduce h3.
        let mut session = Session::new(Shared::new());
        session.handle_frame(r#"{"id": 0, "op": "hello", "max_v": 2}"#);
        session.handle_frame(&format!(
            "{{\"id\": 1, \"op\": \"register\", \"source\": {source}}}"
        ));
        session.handle_frame(&format!(
            "{{\"id\": 2, \"op\": \"update\", \"handle\": \"{handle}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"q\", \"symbol\": \"x\", \"rhs\": \"x\"}}}}"
        ));
        session.handle_frame(&format!(
            "{{\"id\": 3, \"op\": \"update\", \"handle\": \"{h2}\", \"edit\": {{\"kind\": \"set_rule\", \"state\": \"q\", \"symbol\": \"x\", \"rhs\": \"y\"}}}}"
        ))
    };
    assert!(
        typecheck.contains(&format!("\"handle\":\"{h3}\"")),
        "update chains are deterministic across sessions: {typecheck}"
    );
    // The stats surface counts updates and cumulative component reuse.
    let stats = xmlta_service::parse_json(&responses["4"]).expect("parses");
    let stats = stats.get("stats").expect("has stats");
    assert_eq!(stats.get("update_reqs").and_then(|j| j.as_u64()), Some(2));
    assert!(
        stats
            .get("components_reused")
            .and_then(|j| j.as_u64())
            .unwrap()
            > 0
    );
}

#[test]
fn golden_robustness_frames() {
    // An already-expired deadline sheds the job deterministically before
    // execution — `deadline_ms: 0` is in the past by the time the worker
    // looks.
    assert_eq!(
        one(r#"{"id": 9, "op": "typecheck", "source": "x", "deadline_ms": 0}"#),
        r#"{"id":9,"ok":false,"error":{"code":"deadline-exceeded","message":"deadline of 0 ms expired before execution; request shed"}}"#
    );
    // A malformed deadline is a bad request, not a silent default.
    assert_eq!(
        one(r#"{"id": 10, "op": "ping", "deadline_ms": "soon"}"#),
        r#"{"id":10,"ok":false,"error":{"code":"bad-request","message":"`deadline_ms` must be a non-negative integer"}}"#
    );
    assert_eq!(
        one(r#"{"id": 11, "op": "typecheck", "source": "x", "deadline_ms": -5}"#),
        r#"{"id":11,"ok":false,"error":{"code":"bad-request","message":"`deadline_ms` must be a non-negative integer"}}"#
    );
    // A generous deadline is bookkeeping only: sync ops ignore it, jobs
    // execute normally under it.
    assert_eq!(
        one(r#"{"id": 12, "op": "ping", "deadline_ms": 600000}"#),
        r#"{"id":12,"ok":true}"#
    );
    // The shed and timeout frames the daemon writes outside a session.
    assert_eq!(
        xmlta_server::proto::overloaded_frame(2, 150),
        r#"{"id":null,"ok":false,"error":{"code":"server-overloaded","message":"connection limit of 2 reached; retry after 150 ms","retry_after_ms":150}}"#
    );
    assert_eq!(
        xmlta_server::proto::error_frame(&xmlta_server::proto::read_timeout_reject(300)),
        r#"{"id":null,"ok":false,"error":{"code":"read-timeout","message":"no frame in 300 ms; closing the connection"}}"#
    );
}
