//! Served verdicts take the core's engine choice: a `DTD(RE+)` instance is
//! checked by the Section 5 engine on every daemon path (typecheck by
//! source, by handle, and `update`), so its counterexample is Corollary
//! 38's canonical witness, byte-identical to an uncached one-shot check.
//! And a seeding `update` runs the engine once.

use std::sync::Arc;
use xmlta_server::proto::{self, Edit};
use xmlta_server::state::apply_edit;
use xmlta_server::{Session, Shared};
use xmlta_service::json::Json;
use xmlta_service::{check_instance, parse_instance, parse_json, print_instance, ItemStatus};

/// A `DTD(RE+)` instance that does not typecheck: the minimal tree `t_min`
/// passes, the canonical `t_vast` (two of every `+` child) fails.
const REPLUS_FAIL: &str = "\
input dtd {
  start book
  book -> @replus chapter+
  chapter -> @replus title author+
}
output dtd {
  start book
  book -> @replus chapter+
  chapter -> @replus title author
}
transducer {
  states q
  initial q
  (q, book) -> book(q)
  (q, chapter) -> chapter(q)
  (q, title) -> title
  (q, author) -> author
}
";

/// Corollary 38's witness for [`REPLUS_FAIL`].
const T_VAST: &str = "book(chapter(title author author) chapter(title author author))";

/// A Lemma 14 instance (regex DTDs, no selectors) that typechecks.
const LEMMA14_PASS: &str = "\
alphabet { r a b x y z }
input dtd {
  start r
  r -> a b
  a -> x*
  b -> y*
  x -> eps
  y -> eps
  z -> eps
}
output dtd {
  start r
  r -> a b
  a -> x* z*
  b -> y*
  x -> eps
  y -> eps
  z -> eps
}
transducer {
  states root p q
  initial root
  (root, r) -> r(p)
  (p, a) -> a(q)
  (p, b) -> b(q)
  (q, x) -> x
  (q, y) -> y
}
";

fn frame(session: &mut Session, line: &str) -> Json {
    let (reply, _) = session.handle_frame(line);
    parse_json(&reply).unwrap_or_else(|e| panic!("reply parses ({e:?}): {reply}"))
}

fn v2_session() -> Session {
    let mut session = Session::new(Shared::new());
    frame(&mut session, &proto::req_hello_v2(0, 2, None));
    session
}

fn register(session: &mut Session, id: u64, source: &str) -> String {
    let reply = frame(session, &proto::req_register(id, source));
    reply
        .get("handle")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("registers: {reply:?}"))
        .to_string()
}

/// The verdict a typecheck or update reply carries.
fn status_of(reply: &Json) -> ItemStatus {
    let field = |key| reply.get(key).and_then(Json::as_str).map(str::to_string);
    match field("status").as_deref() {
        Some("typechecks") => ItemStatus::TypeChecks,
        Some("counterexample") => ItemStatus::CounterExample {
            input: field("input").expect("counterexample input"),
            output: field("output"),
        },
        Some("error") => ItemStatus::Error {
            message: field("message").expect("error message"),
        },
        _ => panic!("reply carries no verdict: {reply:?}"),
    }
}

/// The uncached one-shot verdict for `source`.
fn one_shot(source: &str) -> ItemStatus {
    check_instance(&Arc::new(parse_instance(source).expect("parses")), None)
}

#[test]
fn served_replus_verdicts_match_the_core() {
    let expected = one_shot(REPLUS_FAIL);
    assert_eq!(
        expected,
        ItemStatus::CounterExample {
            input: T_VAST.to_string(),
            output: Some(T_VAST.to_string()),
        },
        "the one-shot check returns the canonical witness"
    );
    let mut session = v2_session();
    let handle = register(&mut session, 1, REPLUS_FAIL);
    for (what, request) in [
        ("by source", proto::req_typecheck_source(2, REPLUS_FAIL)),
        ("by handle", proto::req_typecheck_handle(3, &handle)),
        (
            "by handle, memo hit",
            proto::req_typecheck_handle(4, &handle),
        ),
    ] {
        assert_eq!(
            status_of(&frame(&mut session, &request)),
            expected,
            "{what}"
        );
    }

    // An update chain from a passing RE+ version (every chapter maps to a
    // constant `chapter(title author)`) to failing successors: the first
    // fails only on `t_vast`, the second already on `t_min`.
    let mut mirror =
        parse_instance(&REPLUS_FAIL.replace("chapter(q)", "chapter(title author)")).unwrap();
    let mut handle = register(&mut session, 5, &print_instance(&mirror).unwrap());
    let edits = [
        ("chapter", "chapter(q)", T_VAST),
        ("author", "author author", "book(chapter(title author))"),
    ];
    for (step, (symbol, rhs, witness)) in edits.into_iter().enumerate() {
        let edit = Edit::SetRule {
            state: "q".to_string(),
            symbol: symbol.to_string(),
            rhs: rhs.to_string(),
        };
        mirror = apply_edit(&mirror, &edit).expect("edit applies");
        let reply = frame(
            &mut session,
            &proto::req_update(6 + step as u64, &handle, &edit),
        );
        let expected = one_shot(&print_instance(&mirror).unwrap());
        assert!(
            matches!(&expected, ItemStatus::CounterExample { input, .. } if input == witness),
            "step {step}: the successor fails with the canonical witness: {expected:?}"
        );
        assert_eq!(status_of(&reply), expected, "update step {step}");
        handle = reply
            .get("handle")
            .and_then(Json::as_str)
            .expect("successor handle")
            .to_string();
    }
}

#[test]
fn seeding_update_runs_the_engine_once() {
    // A connection number no other test of this binary uses, so the
    // shared trace ring can be filtered down to this test's events.
    const CONN: u64 = 0x5EED_0E61;
    xmlta_obs::enable();
    let mut session = v2_session();
    session.set_conn(CONN);
    let handle = register(&mut session, 1, LEMMA14_PASS);
    let edit = |rhs: &str| Edit::SetRule {
        state: "q".to_string(),
        symbol: "x".to_string(),
        rhs: rhs.to_string(),
    };
    // The first update of a chain has no retained engine to continue
    // from: it checks from scratch and seeds one; the second continues.
    let seeded = frame(&mut session, &proto::req_update(2, &handle, &edit("x x")));
    assert_eq!(status_of(&seeded), ItemStatus::TypeChecks);
    let successor = seeded.get("handle").and_then(Json::as_str).unwrap();
    let chained = frame(&mut session, &proto::req_update(3, successor, &edit("x")));
    assert_eq!(status_of(&chained), ItemStatus::TypeChecks);

    let exits: Vec<Json> = xmlta_obs::tracer()
        .recent(xmlta_obs::TRACE_RING)
        .iter()
        .map(|line| parse_json(line).expect("trace events are JSON"))
        .filter(|ev| {
            ev.get("conn").and_then(Json::as_u64) == Some(CONN)
                && ev.get("ev").and_then(Json::as_str) == Some("exit")
        })
        .collect();
    let count = |id: u64, name: &str| {
        exits
            .iter()
            .filter(|ev| {
                ev.get("id").and_then(Json::as_u64) == Some(id)
                    && ev.get("span").and_then(Json::as_str) == Some(name)
            })
            .count()
    };
    assert_eq!(count(2, "engine_build"), 1, "seeding update: {exits:?}");
    assert_eq!(count(2, "engine"), 0, "seeding update: {exits:?}");
    assert_eq!(count(3, "refixpoint"), 1, "chained update: {exits:?}");
    assert_eq!(count(3, "engine_build") + count(3, "engine"), 0);
}
