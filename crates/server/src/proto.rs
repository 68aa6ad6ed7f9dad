//! The versioned line-delimited JSON protocol (v1 and v2).
//!
//! # Frames
//!
//! A frame is one complete JSON object on one line, terminated by `\n`.
//! JSON string escaping guarantees a rendered object never contains a raw
//! newline, so framing never needs lookahead. Frames larger than the
//! server's configured maximum are answered with an `oversized-frame`
//! error and the connection is closed (the remainder of the line cannot be
//! resynchronized). Blank lines are ignored.
//!
//! # Requests
//!
//! ```text
//! {"v": 1, "id": 7, "op": "typecheck", "handle": "i2f0c..."}
//! ```
//!
//! * `v` — optional protocol version; absent means 1. A value above what
//!   the *connection* speaks (1 until a `hello` negotiates 2) is answered
//!   with `unsupported-protocol`. New fields may be added to requests and
//!   responses within a version; clients must ignore fields they do not
//!   know. Incompatible changes bump `v`.
//! * `id` — optional string or number, echoed verbatim in the response
//!   (`null` when absent). On a v1 connection responses arrive in request
//!   order, so ids are a client convenience; on a pipelined v2 connection
//!   responses arrive in *completion* order and the id is the correlation
//!   key.
//! * `op` — the operation; remaining fields are per-op (see [`Op`]).
//!
//! # Protocol v2: pipelining and binary batches
//!
//! A connection starts in v1 (strictly sequential — byte-identical to the
//! pre-v2 server). A `hello` carrying `max_v` negotiates the highest
//! version both sides speak; granting 2 switches the connection into
//! pipelined mode:
//!
//! ```text
//! {"id":0,"op":"hello","max_v":2,"pipeline":8,"accepts":["xti","xtb"]}
//! → {"id":0,"ok":true,"server":"xmltad","protocol":2,"formats":["xti","xtb"],"pipeline":8}
//! ```
//!
//! * `pipeline` requests an in-flight window (default: the server's cap,
//!   `--pipeline-depth`). Asking beyond the cap is answered with a
//!   `pipeline-depth-exceeded` error naming the cap — the backpressure
//!   reply; the connection stays at its previous version and the client
//!   re-hellos with a smaller depth.
//! * On a v2 connection at `pipeline` 2 or more, up to `pipeline`
//!   expensive requests (`typecheck`, `batch`, `batch_bin`) execute
//!   concurrently on a per-connection worker pool; responses are written
//!   in completion order. At `pipeline: 1` every request runs on the
//!   connection thread and replies come in request order, as on v1.
//!   Cheap, order-sensitive ops (`hello`, `ping`, `register`,
//!   `register_bin`, `stats`) execute in the read loop in request order,
//!   so a handle registered by frame *n* is always visible to frame
//!   *n+1* — per-`id` responses stay a pure function of the request
//!   stream, never of scheduling.
//! * `batch_bin` ships a delta `.xts` stream (schema-once,
//!   transducer-only instance frames after; see
//!   `xmlta_service::binfmt`) base64-encoded in `data`, and answers with
//!   the same deterministic report as `batch`.
//!
//! # Responses
//!
//! One frame per request (request order at depth 1, completion order on
//! a deeper v2 pipeline):
//!
//! ```text
//! {"id":7,"ok":true,"status":"typechecks"}
//! {"id":7,"ok":false,"error":{"code":"unknown-handle","message":"..."}}
//! ```
//!
//! Responses carry no timings or cache counters (the `stats` op is the
//! explicit exception), so a connection's response bytes — keyed by `id`
//! on v2 — are a pure function of its request bytes: the determinism
//! property the integration tests, the differential suite, and the bench
//! assert.

use std::fmt::Write as _;
use std::io::{BufRead, Read as _};
use xmlta_service::{parse_json, Json};

/// The protocol version every connection starts in.
pub const PROTOCOL_VERSION: u64 = 1;

/// The highest protocol version a `hello` can negotiate.
pub const MAX_PROTOCOL_VERSION: u64 = 2;

/// Default cap on the per-connection pipeline depth (`--pipeline-depth`).
pub const DEFAULT_PIPELINE_DEPTH: usize = 32;

/// Instance payload formats this server ingests, in preference order —
/// what a `hello` with an `accepts` array negotiates against.
pub const FORMATS: &[&str] = &["xti", "xtb"];

/// Default maximum frame size in bytes (16 MiB).
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// How many trailing trace events a `trace` op returns when the request
/// names no `last`.
pub const DEFAULT_TRACE_EVENTS: usize = 32;

/// Server cap on how many trace events one `trace` reply may carry.
pub const MAX_TRACE_EVENTS: usize = 256;

/// Error codes of `ok:false` responses.
pub mod code {
    /// The frame is not a JSON object (or not JSON at all).
    pub const MALFORMED_FRAME: &str = "malformed-frame";
    /// The frame exceeds the server's maximum frame size.
    pub const OVERSIZED_FRAME: &str = "oversized-frame";
    /// The `v` field names a protocol version the server does not speak.
    pub const UNSUPPORTED_PROTOCOL: &str = "unsupported-protocol";
    /// The `op` field names no known operation.
    pub const UNKNOWN_OP: &str = "unknown-op";
    /// A well-formed frame with missing or ill-typed fields.
    pub const BAD_REQUEST: &str = "bad-request";
    /// A handle that this session never registered.
    pub const UNKNOWN_HANDLE: &str = "unknown-handle";
    /// A `register` source that does not parse as an instance.
    pub const INVALID_INSTANCE: &str = "invalid-instance";
    /// A `hello` asked for a pipeline depth beyond the server's cap — the
    /// backpressure reply; retry with a depth at or under the cap it names.
    pub const PIPELINE_DEPTH_EXCEEDED: &str = "pipeline-depth-exceeded";
    /// The request's client-supplied `deadline_ms` expired before the work
    /// was executed — the work was shed, not attempted.
    pub const DEADLINE_EXCEEDED: &str = "deadline-exceeded";
    /// The server is at its connection cap; the frame carries a
    /// `retry_after_ms` hint and the connection is closed immediately.
    pub const SERVER_OVERLOADED: &str = "server-overloaded";
    /// No frame arrived within the server's read/idle timeout; the
    /// connection is closed after this frame.
    pub const READ_TIMEOUT: &str = "read-timeout";
    /// The request handler panicked (isolated per request).
    pub const INTERNAL: &str = "internal";
    /// The router could not reach any shard for this request after
    /// every retry and failover (router front-end only — a direct
    /// daemon never emits it).
    pub const SHARD_UNAVAILABLE: &str = "shard-unavailable";
}

/// What a `typecheck` request checks (exactly one of the two).
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// A handle previously returned by `register` on this connection.
    Handle(String),
    /// Inline instance source in the textual format.
    Source(String),
}

/// One item of a `batch` request.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchItemReq {
    /// Display name for the report.
    pub name: String,
    /// What to check.
    pub target: Target,
}

/// A structured instance edit (the `update` op's payload).
///
/// Wire shape: `"edit": {"kind": "...", ...}` with kinds
/// `set_rule` (add **or** replace a transducer rule; fields `state`,
/// `symbol`, `rhs`), `remove_rule` (fields `state`, `symbol`), and
/// `set_schema_rule` (fields `schema` = `"input"`/`"output"`, `symbol`,
/// `rhs` — a rule regex in the textual schema syntax).
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Add or replace the transducer rule `(state, symbol) → rhs`.
    SetRule {
        /// Transducer state name.
        state: String,
        /// Input symbol name.
        symbol: String,
        /// Rule right-hand side, textual rule grammar.
        rhs: String,
    },
    /// Remove the transducer rule for `(state, symbol)`.
    RemoveRule {
        /// Transducer state name.
        state: String,
        /// Input symbol name.
        symbol: String,
    },
    /// Replace a schema rule: `symbol → rhs` in the input or output DTD.
    SetSchemaRule {
        /// `true` edits the output schema, `false` the input schema.
        output: bool,
        /// Schema symbol name.
        symbol: String,
        /// Rule right-hand side, textual regex syntax.
        rhs: String,
    },
}

/// A parsed operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Protocol handshake/identification (optional). A client may send an
    /// `accepts` array of payload format names (`"xti"`, `"xtb"`); when it
    /// does, the response carries a `formats` array naming the subset the
    /// server speaks — the negotiation gate for `register_bin`. A `max_v`
    /// field negotiates the protocol version (granting 2 turns on
    /// pipelining; `pipeline` requests the in-flight window). Requests
    /// without any of these fields get the original response, byte for
    /// byte, so v1 text clients are untouched.
    Hello {
        /// The client's `accepts` list, when present.
        accepts: Option<Vec<String>>,
        /// The highest protocol version the client speaks, when present.
        max_v: Option<u64>,
        /// The requested pipeline depth, when present (v2 only).
        pipeline: Option<usize>,
    },
    /// Liveness probe.
    Ping,
    /// Parse + prepare an instance; returns its handle.
    Register {
        /// Instance source in the textual format.
        source: String,
    },
    /// Decode + prepare a binary `.xtb` instance; returns its handle
    /// (prefixed `b`). The frame carries the bytes base64-encoded in a
    /// `data` field — JSON lines cannot carry raw bytes.
    RegisterBin {
        /// The decoded `.xtb` frame bytes.
        data: Vec<u8>,
    },
    /// Typecheck one instance.
    Typecheck {
        /// What to check.
        target: Target,
    },
    /// Typecheck many instances; returns the deterministic batch report.
    Batch {
        /// The items, in report order.
        items: Vec<BatchItemReq>,
        /// Worker threads for this batch (server-clamped; default 1).
        threads: Option<usize>,
    },
    /// Typecheck a delta `.xts` stream (v2 connections only): one schema
    /// prefix, transducer-only instance frames after. The frame carries
    /// the stream base64-encoded in `data`; the response is the same
    /// deterministic report a `batch` yields, item names taken from the
    /// stream.
    BatchBin {
        /// The decoded `.xts` stream bytes.
        data: Vec<u8>,
        /// Worker threads for this batch (server-clamped; default 1).
        threads: Option<usize>,
        /// Stream the report per item: one `{"id":…,"ok":true,"item":…}`
        /// frame per result (report order) followed by a closing tally
        /// frame, instead of one monolithic report frame. Opt-in
        /// (`"stream": true`); the default reply is unchanged.
        stream: bool,
    },
    /// Apply a structured edit to a registered instance (v2 connections
    /// only): parses as "take the instance behind `handle`, apply `edit`,
    /// register the result, and typecheck it incrementally". The response
    /// carries the new version's `handle`, the verdict (same fields as
    /// `typecheck`), and a `components_reused` count — how many instance
    /// components (schemas, transducer header, individual rules, alphabet)
    /// the new version shares with its predecessor.
    Update {
        /// The base version: a handle registered on this connection.
        handle: String,
        /// The edit to apply.
        edit: Edit,
    },
    /// Cache/registry counters (the one scheduling-dependent response).
    Stats,
    /// Recent trace events from the in-process ring (v2 connections
    /// only): the last `last` JSONL span events, oldest first. Like
    /// `stats`, the reply is scheduling-dependent by design.
    Trace {
        /// How many trailing events to return (server-capped).
        last: usize,
    },
    /// Stop accepting connections and exit once sessions drain.
    Shutdown,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The echoed id (`Json::Null` when absent).
    pub id: Json,
    /// The operation.
    pub op: Op,
    /// The client's per-request deadline in milliseconds, when present.
    /// Applies to the expensive ops (`typecheck`, `batch`, `batch_bin`):
    /// work still queued when the deadline expires is shed with a
    /// `deadline-exceeded` reply instead of executed. Absent means no
    /// deadline — the server then does no per-request clock reads at all.
    pub deadline_ms: Option<u64>,
}

/// A request rejection: the error response to send instead.
#[derive(Debug, Clone, PartialEq)]
pub struct Reject {
    /// The id to echo (`null` if the frame had none or was unreadable).
    pub id: Json,
    /// Error code (one of [`code`]).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl Reject {
    fn new(id: Json, code: &'static str, message: impl Into<String>) -> Reject {
        Reject {
            id,
            code,
            message: message.into(),
        }
    }
}

/// Parses one frame into a [`Request`]. `max_version` is what the
/// *connection* currently speaks: 1 until a `hello` negotiates 2, so
/// un-upgraded connections reject v2 frames (and the `batch_bin` op) with
/// byte-identical v1 replies.
pub fn parse_request(line: &str, max_version: u64) -> Result<Request, Reject> {
    let frame = parse_json(line).map_err(|e| {
        Reject::new(
            Json::Null,
            code::MALFORMED_FRAME,
            format!("frame is not valid JSON: {e}"),
        )
    })?;
    if !matches!(frame, Json::Obj(_)) {
        return Err(Reject::new(
            Json::Null,
            code::MALFORMED_FRAME,
            "frame must be a JSON object",
        ));
    }
    let id = frame.get("id").cloned().unwrap_or(Json::Null);
    if !matches!(id, Json::Null | Json::Num(_) | Json::Str(_)) {
        return Err(Reject::new(
            Json::Null,
            code::BAD_REQUEST,
            "`id` must be a string, a number, or null",
        ));
    }
    if let Some(v) = frame.get("v") {
        if !v.as_u64().is_some_and(|v| (1..=max_version).contains(&v)) {
            let message = if max_version <= 1 {
                // The pinned v1 reply, byte for byte.
                format!("this server speaks protocol version {PROTOCOL_VERSION}")
            } else {
                format!("this connection speaks protocol versions 1 to {max_version}")
            };
            return Err(Reject::new(id, code::UNSUPPORTED_PROTOCOL, message));
        }
    }
    let deadline_ms = match frame.get("deadline_ms") {
        None => None,
        Some(d) => match d.as_u64() {
            Some(ms) => Some(ms),
            None => {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`deadline_ms` must be a non-negative integer",
                ))
            }
        },
    };
    let Some(op) = frame.get("op").and_then(Json::as_str) else {
        return Err(Reject::new(
            id,
            code::BAD_REQUEST,
            "missing or non-string `op`",
        ));
    };
    let op = match op {
        "hello" => {
            let accepts = match frame.get("accepts") {
                None => None,
                Some(Json::Arr(items)) => {
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        match item.as_str() {
                            Some(name) => names.push(name.to_string()),
                            None => {
                                return Err(Reject::new(
                                    id,
                                    code::BAD_REQUEST,
                                    "`accepts` must be an array of strings",
                                ))
                            }
                        }
                    }
                    Some(names)
                }
                Some(_) => {
                    return Err(Reject::new(
                        id,
                        code::BAD_REQUEST,
                        "`accepts` must be an array of strings",
                    ))
                }
            };
            let positive =
                |field: &'static str, value: Option<&Json>| -> Result<Option<u64>, Reject> {
                    match value {
                        None => Ok(None),
                        Some(v) => match v.as_u64() {
                            Some(n) if n >= 1 => Ok(Some(n)),
                            _ => Err(Reject::new(
                                id.clone(),
                                code::BAD_REQUEST,
                                format!("`{field}` must be a positive integer"),
                            )),
                        },
                    }
                };
            let max_v = positive("max_v", frame.get("max_v"))?;
            let pipeline = positive("pipeline", frame.get("pipeline"))?.map(|n| n as usize);
            Op::Hello {
                accepts,
                max_v,
                pipeline,
            }
        }
        "ping" => Op::Ping,
        "register" => {
            let Some(source) = frame.get("source").and_then(Json::as_str) else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`register` needs a string `source`",
                ));
            };
            Op::Register {
                source: source.to_string(),
            }
        }
        "register_bin" => {
            let Some(data) = frame.get("data").and_then(Json::as_str) else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`register_bin` needs a base64 string `data`",
                ));
            };
            match xmlta_service::binfmt::base64_decode(data) {
                Ok(data) => Op::RegisterBin { data },
                Err(e) => {
                    return Err(Reject::new(
                        id,
                        code::BAD_REQUEST,
                        format!("`register_bin` data is not valid base64: {e}"),
                    ))
                }
            }
        }
        "typecheck" => Op::Typecheck {
            target: parse_target(&frame)
                .map_err(|m| Reject::new(id.clone(), code::BAD_REQUEST, m))?,
        },
        "batch" => {
            let Some(items) = frame.get("items").and_then(Json::as_array) else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`batch` needs an `items` array",
                ));
            };
            let threads =
                parse_threads(&frame).map_err(|m| Reject::new(id.clone(), code::BAD_REQUEST, m))?;
            let mut parsed = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let bad = |m: String| Reject::new(id.clone(), code::BAD_REQUEST, m);
                if !matches!(item, Json::Obj(_)) {
                    return Err(bad(format!("batch item #{i} must be an object")));
                }
                let Some(name) = item.get("name").and_then(Json::as_str) else {
                    return Err(bad(format!("batch item #{i} needs a string `name`")));
                };
                let target = parse_target(item)
                    .map_err(|m| bad(format!("batch item #{i} ({name}): {m}")))?;
                parsed.push(BatchItemReq {
                    name: name.to_string(),
                    target,
                });
            }
            Op::Batch {
                items: parsed,
                threads,
            }
        }
        // `batch_bin` exists only on negotiated v2 connections; on a v1
        // connection it falls through to `unknown-op` below — the exact
        // bytes a pre-v2 server answered.
        "batch_bin" if max_version >= 2 => {
            let Some(data) = frame.get("data").and_then(Json::as_str) else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`batch_bin` needs a base64 string `data`",
                ));
            };
            let threads =
                parse_threads(&frame).map_err(|m| Reject::new(id.clone(), code::BAD_REQUEST, m))?;
            let stream = match frame.get("stream") {
                None => false,
                Some(Json::Bool(b)) => *b,
                Some(_) => {
                    return Err(Reject::new(
                        id,
                        code::BAD_REQUEST,
                        "`stream` must be a boolean",
                    ))
                }
            };
            match xmlta_service::binfmt::base64_decode(data) {
                Ok(data) => Op::BatchBin {
                    data,
                    threads,
                    stream,
                },
                Err(e) => {
                    return Err(Reject::new(
                        id,
                        code::BAD_REQUEST,
                        format!("`batch_bin` data is not valid base64: {e}"),
                    ))
                }
            }
        }
        // Like `batch_bin`, `update` exists only on negotiated v2
        // connections; a v1 connection sees the pinned `unknown-op` reply.
        "update" if max_version >= 2 => {
            let Some(handle) = frame.get("handle").and_then(Json::as_str) else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`update` needs a string `handle`",
                ));
            };
            let Some(edit) = frame.get("edit") else {
                return Err(Reject::new(
                    id,
                    code::BAD_REQUEST,
                    "`update` needs an `edit` object",
                ));
            };
            let edit =
                parse_edit(edit).map_err(|m| Reject::new(id.clone(), code::BAD_REQUEST, m))?;
            Op::Update {
                handle: handle.to_string(),
                edit,
            }
        }
        "stats" => Op::Stats,
        // Like `batch_bin`, `trace` exists only on negotiated v2
        // connections; a v1 connection sees the pinned `unknown-op` reply.
        "trace" if max_version >= 2 => {
            let last = match frame.get("last") {
                None => DEFAULT_TRACE_EVENTS,
                Some(n) => match n.as_u64() {
                    Some(n) => (n as usize).min(MAX_TRACE_EVENTS),
                    None => {
                        return Err(Reject::new(
                            id,
                            code::BAD_REQUEST,
                            "`last` must be a non-negative integer",
                        ))
                    }
                },
            };
            Op::Trace { last }
        }
        "shutdown" => Op::Shutdown,
        other => {
            return Err(Reject::new(
                id,
                code::UNKNOWN_OP,
                format!("unknown op `{other}`"),
            ))
        }
    };
    Ok(Request {
        id,
        op,
        deadline_ms,
    })
}

/// Parses the `edit` object of an `update` frame.
fn parse_edit(edit: &Json) -> Result<Edit, String> {
    if !matches!(edit, Json::Obj(_)) {
        return Err("`edit` must be an object".into());
    }
    let field = |name: &str| -> Result<String, String> {
        edit.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("`edit` needs a string `{name}`"))
    };
    match edit.get("kind").and_then(Json::as_str) {
        Some("set_rule") => Ok(Edit::SetRule {
            state: field("state")?,
            symbol: field("symbol")?,
            rhs: field("rhs")?,
        }),
        Some("remove_rule") => Ok(Edit::RemoveRule {
            state: field("state")?,
            symbol: field("symbol")?,
        }),
        Some("set_schema_rule") => {
            let output = match edit.get("schema").and_then(Json::as_str) {
                Some("input") => false,
                Some("output") => true,
                _ => return Err("`edit.schema` must be \"input\" or \"output\"".into()),
            };
            Ok(Edit::SetSchemaRule {
                output,
                symbol: field("symbol")?,
                rhs: field("rhs")?,
            })
        }
        Some(other) => Err(format!(
            "unknown edit kind `{other}` (expected set_rule, remove_rule, or set_schema_rule)"
        )),
        None => Err("`edit` needs a string `kind`".into()),
    }
}

/// Pulls the optional `threads` field out of a `batch`/`batch_bin` frame.
fn parse_threads(frame: &Json) -> Result<Option<usize>, String> {
    match frame.get("threads") {
        None => Ok(None),
        Some(t) => match t.as_u64() {
            Some(n) => Ok(Some(n as usize)),
            None => Err("`threads` must be a non-negative integer".into()),
        },
    }
}

/// Pulls the `handle` xor `source` field out of a request or batch item.
fn parse_target(obj: &Json) -> Result<Target, String> {
    match (obj.get("handle"), obj.get("source")) {
        (Some(h), None) => match h.as_str() {
            Some(h) => Ok(Target::Handle(h.to_string())),
            None => Err("`handle` must be a string".into()),
        },
        (None, Some(s)) => match s.as_str() {
            Some(s) => Ok(Target::Source(s.to_string())),
            None => Err("`source` must be a string".into()),
        },
        (Some(_), Some(_)) => Err("give `handle` or `source`, not both".into()),
        (None, None) => Err("needs a `handle` or a `source`".into()),
    }
}

/// Builds one response frame with deterministic field order:
/// `id`, `ok`, then the fields in insertion order.
pub struct ResponseBuilder {
    out: String,
}

impl ResponseBuilder {
    /// Starts a response echoing `id`.
    pub fn new(id: &Json, ok: bool) -> ResponseBuilder {
        let mut out = String::from("{\"id\":");
        id.render(&mut out);
        let _ = write!(out, ",\"ok\":{ok}");
        ResponseBuilder { out }
    }

    /// Adds a string field.
    pub fn str_field(self, key: &str, value: &str) -> ResponseBuilder {
        let rendered = xmlta_service::json::escaped(value);
        self.raw_field(key, &rendered)
    }

    /// Adds an unsigned integer field.
    pub fn num_field(mut self, key: &str, value: u64) -> ResponseBuilder {
        let _ = write!(self.out, ",\"{key}\":{value}");
        self
    }

    /// Adds a field holding pre-rendered JSON (e.g. a batch report line).
    pub fn raw_field(mut self, key: &str, rendered: &str) -> ResponseBuilder {
        let _ = write!(self.out, ",\"{key}\":{rendered}");
        self
    }

    /// Adds an explicit `null` field.
    pub fn null_field(self, key: &str) -> ResponseBuilder {
        self.raw_field(key, "null")
    }

    /// Finishes the frame (no trailing newline).
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Renders the error response for a [`Reject`].
pub fn error_frame(reject: &Reject) -> String {
    let mut err = String::from("{\"code\":");
    xmlta_service::json::push_escaped(&mut err, reject.code);
    err.push_str(",\"message\":");
    xmlta_service::json::push_escaped(&mut err, &reject.message);
    err.push('}');
    ResponseBuilder::new(&reject.id, false)
        .raw_field("error", &err)
        .finish()
}

/// Renders a plain `{"id":…,"ok":true}` response.
pub fn ok_frame(id: &Json) -> String {
    ResponseBuilder::new(id, true).finish()
}

/// Renders the `server-overloaded` shed frame: the one frame an
/// over-the-cap connection receives before the server closes it. The
/// error object carries a machine-readable `retry_after_ms` hint next to
/// the code and message, so backoff-aware clients need no message parsing.
pub fn overloaded_frame(max_conns: usize, retry_after_ms: u64) -> String {
    let mut err = String::from("{\"code\":");
    xmlta_service::json::push_escaped(&mut err, code::SERVER_OVERLOADED);
    let _ = write!(
        err,
        ",\"message\":\"connection limit of {max_conns} reached; retry after \
         {retry_after_ms} ms\",\"retry_after_ms\":{retry_after_ms}}}"
    );
    ResponseBuilder::new(&Json::Null, false)
        .raw_field("error", &err)
        .finish()
}

/// The `read-timeout` reject: no frame arrived within the window.
pub fn read_timeout_reject(timeout_ms: u64) -> Reject {
    Reject {
        id: Json::Null,
        code: code::READ_TIMEOUT,
        message: format!("no frame in {timeout_ms} ms; closing the connection"),
    }
}

/// The `oversized-frame` reject for the configured cap.
pub fn oversized_reject(max_frame: usize) -> Reject {
    Reject {
        id: Json::Null,
        code: code::OVERSIZED_FRAME,
        message: format!("frame exceeds {max_frame} bytes; closing the connection"),
    }
}

/// The `malformed-frame` reject for a non-UTF-8 frame.
pub fn bad_utf8_reject() -> Reject {
    Reject {
        id: Json::Null,
        code: code::MALFORMED_FRAME,
        message: "frame is not valid UTF-8".to_string(),
    }
}

/// The `deadline-exceeded` reject for a request shed before execution.
pub fn deadline_reject(id: Json, deadline_ms: u64) -> Reject {
    Reject {
        id,
        code: code::DEADLINE_EXCEEDED,
        message: format!("deadline of {deadline_ms} ms expired before execution; request shed"),
    }
}

/// What [`read_raw`] found on the stream.
pub(crate) enum Raw {
    /// The stream ended.
    Eof,
    /// The line exceeds the frame cap (the buffer holds a prefix).
    Oversized,
    /// `buf` holds one complete frame (newline stripped).
    Ready,
}

/// Reads one newline-terminated frame into `buf` (cleared first),
/// enforcing the size cap without unbounded buffering. Every frame the
/// crate reads — server sessions, the router relay, and clients — comes
/// through here.
pub(crate) fn read_raw<R: BufRead>(
    reader: &mut R,
    max_frame: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<Raw> {
    buf.clear();
    // Read at most one byte past the cap: a line that long is oversized
    // whether or not its newline ever arrives.
    let n = reader
        .by_ref()
        .take(max_frame as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(Raw::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max_frame {
        return Ok(Raw::Oversized);
    }
    Ok(Raw::Ready)
}

// ---------------------------------------------------------------------
// Request constructors (used by the CLI client, tests, and the bench).

fn request_v(v: u64, id: u64, op: &str, fields: Vec<(&str, Json)>) -> String {
    let mut obj = vec![
        ("v".to_string(), Json::from_u64(v)),
        ("id".to_string(), Json::from_u64(id)),
        ("op".to_string(), Json::Str(op.to_string())),
    ];
    for (k, v) in fields {
        obj.push((k.to_string(), v));
    }
    Json::Obj(obj).to_string()
}

fn request(id: u64, op: &str, fields: Vec<(&str, Json)>) -> String {
    request_v(PROTOCOL_VERSION, id, op, fields)
}

/// A `hello` request frame.
pub fn req_hello(id: u64) -> String {
    request(id, "hello", Vec::new())
}

/// A `hello` request frame advertising the formats the client accepts.
pub fn req_hello_accepts(id: u64, accepts: &[&str]) -> String {
    let accepts = accepts
        .iter()
        .map(|f| Json::Str((*f).to_string()))
        .collect();
    request(id, "hello", vec![("accepts", Json::Arr(accepts))])
}

/// A `hello` request frame negotiating protocol `max_v` with an optional
/// pipeline depth (the v2 upgrade handshake).
pub fn req_hello_v2(id: u64, max_v: u64, pipeline: Option<usize>) -> String {
    let mut fields = vec![("max_v", Json::from_u64(max_v))];
    if let Some(depth) = pipeline {
        fields.push(("pipeline", Json::from_u64(depth as u64)));
    }
    request(id, "hello", fields)
}

/// A `ping` request frame.
pub fn req_ping(id: u64) -> String {
    request(id, "ping", Vec::new())
}

/// A `register` request frame.
pub fn req_register(id: u64, source: &str) -> String {
    request(
        id,
        "register",
        vec![("source", Json::Str(source.to_string()))],
    )
}

/// A `register_bin` request frame carrying a base64-encoded `.xtb` frame.
pub fn req_register_bin(id: u64, bytes: &[u8]) -> String {
    request(
        id,
        "register_bin",
        vec![(
            "data",
            Json::Str(xmlta_service::binfmt::base64_encode(bytes)),
        )],
    )
}

/// A `typecheck`-by-handle request frame.
pub fn req_typecheck_handle(id: u64, handle: &str) -> String {
    request(
        id,
        "typecheck",
        vec![("handle", Json::Str(handle.to_string()))],
    )
}

/// A `typecheck`-inline-source request frame.
pub fn req_typecheck_source(id: u64, source: &str) -> String {
    request(
        id,
        "typecheck",
        vec![("source", Json::Str(source.to_string()))],
    )
}

/// A `typecheck`-by-handle request frame carrying a client deadline.
pub fn req_typecheck_handle_deadline(id: u64, handle: &str, deadline_ms: u64) -> String {
    request(
        id,
        "typecheck",
        vec![
            ("handle", Json::Str(handle.to_string())),
            ("deadline_ms", Json::from_u64(deadline_ms)),
        ],
    )
}

/// A `batch` request frame.
pub fn req_batch(id: u64, items: &[BatchItemReq], threads: Option<usize>) -> String {
    let items = items
        .iter()
        .map(|item| {
            let (key, value) = match &item.target {
                Target::Handle(h) => ("handle", h),
                Target::Source(s) => ("source", s),
            };
            Json::Obj(vec![
                ("name".to_string(), Json::Str(item.name.clone())),
                (key.to_string(), Json::Str(value.clone())),
            ])
        })
        .collect();
    let mut fields = vec![("items", Json::Arr(items))];
    if let Some(t) = threads {
        fields.push(("threads", Json::from_u64(t as u64)));
    }
    request(id, "batch", fields)
}

/// A `batch_bin` request frame carrying a base64-encoded delta `.xts`
/// stream (valid on v2 connections only). `stream_items` opts into the
/// per-item streamed reply.
pub fn req_batch_bin(id: u64, stream: &[u8], threads: Option<usize>, stream_items: bool) -> String {
    let mut fields = vec![(
        "data",
        Json::Str(xmlta_service::binfmt::base64_encode(stream)),
    )];
    if let Some(t) = threads {
        fields.push(("threads", Json::from_u64(t as u64)));
    }
    if stream_items {
        fields.push(("stream", Json::Bool(true)));
    }
    request_v(MAX_PROTOCOL_VERSION, id, "batch_bin", fields)
}

/// An `update` request frame (valid on v2 connections only).
pub fn req_update(id: u64, handle: &str, edit: &Edit) -> String {
    let edit_obj = match edit {
        Edit::SetRule { state, symbol, rhs } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("set_rule".to_string())),
            ("state".to_string(), Json::Str(state.clone())),
            ("symbol".to_string(), Json::Str(symbol.clone())),
            ("rhs".to_string(), Json::Str(rhs.clone())),
        ]),
        Edit::RemoveRule { state, symbol } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("remove_rule".to_string())),
            ("state".to_string(), Json::Str(state.clone())),
            ("symbol".to_string(), Json::Str(symbol.clone())),
        ]),
        Edit::SetSchemaRule {
            output,
            symbol,
            rhs,
        } => Json::Obj(vec![
            ("kind".to_string(), Json::Str("set_schema_rule".to_string())),
            (
                "schema".to_string(),
                Json::Str(if *output { "output" } else { "input" }.to_string()),
            ),
            ("symbol".to_string(), Json::Str(symbol.clone())),
            ("rhs".to_string(), Json::Str(rhs.clone())),
        ]),
    };
    request_v(
        MAX_PROTOCOL_VERSION,
        id,
        "update",
        vec![
            ("handle", Json::Str(handle.to_string())),
            ("edit", edit_obj),
        ],
    )
}

/// A `stats` request frame.
pub fn req_stats(id: u64) -> String {
    request(id, "stats", Vec::new())
}

/// A `trace` request frame asking for the last `last` span events (valid
/// on v2 connections only).
pub fn req_trace(id: u64, last: usize) -> String {
    request_v(
        MAX_PROTOCOL_VERSION,
        id,
        "trace",
        vec![("last", Json::from_u64(last as u64))],
    )
}

/// A `shutdown` request frame.
pub fn req_shutdown(id: u64) -> String {
    request(id, "shutdown", Vec::new())
}
