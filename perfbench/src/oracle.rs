//! The verdict oracle: every reply checked against the answer the
//! generator knows, counterexample witnesses re-validated against the
//! instance, and a sample of small instances cross-checked against the
//! brute-force reference engine.

use crate::workloads::StatsRule;
use std::sync::Arc;
use typecheck_core::naive::{typecheck_naive, Bounds};
use typecheck_core::{Instance, Schema};
use xmlta_service::{parse_instance, parse_json, Json};

/// The verdict an instance must get.
#[derive(Clone, Debug)]
pub enum Verdict {
    TypeChecks,
    /// Fails; carries the instance source so the witness can be checked.
    CounterExample(Arc<str>),
}

/// What a reply must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Exactly these bytes.
    Exact(String),
    /// A `typecheck` reply with this verdict.
    Check(Verdict),
    /// An `update` reply: this successor handle, this verdict, and this
    /// many reused components.
    Update {
        handle: String,
        verdict: Verdict,
        reused: u64,
    },
}

/// Checks one reply; `Err` says what is wrong.
pub fn check_reply(id: u64, expect: &Expect, reply: &str) -> Result<(), String> {
    match expect {
        Expect::Exact(want) if reply == want => Ok(()),
        Expect::Exact(want) => Err(format!("id {id}: expected {want}, got {reply}")),
        Expect::Check(Verdict::TypeChecks) => {
            let want = format!("{{\"id\":{id},\"ok\":true,\"status\":\"typechecks\"}}");
            if reply == want {
                Ok(())
            } else {
                Err(format!("id {id}: expected typechecks, got {reply}"))
            }
        }
        Expect::Check(Verdict::CounterExample(source)) => {
            let json = ok_reply(id, reply)?;
            check_witness(&json, source).map_err(|e| format!("id {id}: {e}"))
        }
        Expect::Update {
            handle,
            verdict,
            reused,
        } => {
            let json = ok_reply(id, reply)?;
            if json.get("handle").and_then(Json::as_str) != Some(handle.as_str()) {
                return Err(format!("id {id}: expected successor {handle}: {reply}"));
            }
            if json.get("components_reused").and_then(Json::as_u64) != Some(*reused) {
                return Err(format!(
                    "id {id}: expected {reused} reused components: {reply}"
                ));
            }
            match verdict {
                Verdict::TypeChecks
                    if json.get("status").and_then(Json::as_str) == Some("typechecks") =>
                {
                    Ok(())
                }
                Verdict::TypeChecks => Err(format!("id {id}: expected typechecks, got {reply}")),
                Verdict::CounterExample(source) => {
                    check_witness(&json, source).map_err(|e| format!("id {id}: {e}"))
                }
            }
        }
    }
}

fn ok_reply(id: u64, reply: &str) -> Result<Json, String> {
    let json = parse_json(reply).map_err(|e| format!("id {id}: reply is not JSON ({e})"))?;
    if json.get("id").and_then(Json::as_u64) != Some(id)
        || json.get("ok") != Some(&Json::Bool(true))
    {
        return Err(format!("id {id}: not an ok reply: {reply}"));
    }
    Ok(json)
}

/// A `counterexample` reply must carry a witness that is a valid input
/// whose image — which must be the reported output — the output schema
/// rejects.
fn check_witness(reply: &Json, source: &str) -> Result<(), String> {
    if reply.get("status").and_then(Json::as_str) != Some("counterexample") {
        return Err(format!("expected a counterexample, got {reply}"));
    }
    let input = reply
        .get("input")
        .and_then(Json::as_str)
        .ok_or("counterexample without an input witness")?;
    let instance = parse_instance(source).map_err(|e| format!("oracle instance: {e}"))?;
    let (Schema::Dtd(din), Schema::Dtd(dout)) = (&instance.input, &instance.output) else {
        return Err("witness checks need DTD schemas".into());
    };
    let mut alphabet = instance.alphabet.clone();
    let tree = xmlta_tree::parse_tree(input, &mut alphabet)
        .map_err(|e| format!("witness `{input}` does not parse: {e}"))?;
    if alphabet.len() != instance.alphabet.len() || !din.compile_to_dfas().accepts(&tree) {
        return Err(format!("witness `{input}` is not a valid input"));
    }
    let image = instance.transducer.apply(&tree);
    let shown = image.as_ref().map(|t| t.display(&alphabet).to_string());
    let reported = match reply.get("output") {
        Some(Json::Str(s)) => Some(s.clone()),
        _ => None,
    };
    if shown != reported {
        return Err(format!(
            "witness image is {shown:?}, reply says {reported:?}"
        ));
    }
    match image {
        Some(t) if dout.compile_to_dfas().accepts(&t) => Err(format!(
            "witness image `{}` is valid output",
            t.display(&alphabet)
        )),
        _ => Ok(()),
    }
}

/// Cross-checks small DTD instances against `naive::typecheck_naive`.
/// Brute force is sound but bounded: a counterexample it finds is proof,
/// so it must agree with every failing verdict and find none for a
/// passing one.
pub fn naive_cross_check(sample: &[(String, bool)]) -> Vec<String> {
    let mut errors = Vec::new();
    for (source, typechecks) in sample {
        let instance: Instance = match parse_instance(source) {
            Ok(i) => i,
            Err(e) => {
                errors.push(format!("naive sample does not parse: {e}"));
                continue;
            }
        };
        let (Schema::Dtd(din), Schema::Dtd(dout)) = (&instance.input, &instance.output) else {
            errors.push("naive sample is not a DTD instance".into());
            continue;
        };
        let naive = typecheck_naive(din, dout, &instance.transducer, Bounds::default());
        if naive.type_checks() != *typechecks {
            errors.push(format!(
                "naive reference says typechecks={} where the known verdict is {typechecks}",
                naive.type_checks()
            ));
        }
    }
    errors
}

/// The `stats` counters a run must show.
pub struct StatsFacts {
    pub measured_verdicts: u64,
    /// `typecheck` replies checked against a verdict (on `edit-stream`,
    /// the checks of earlier versions by handle).
    pub measured_checks: u64,
    pub updates: u64,
}

/// Reads a numeric `stats` field.
pub fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Asserts the workload's stated shares on the daemon's counters.
pub fn check_stats(rule: StatsRule, stats: &Json, facts: &StatsFacts) -> Vec<String> {
    let mut errors = Vec::new();
    let mut want = |ok: bool, what: String| {
        if !ok {
            errors.push(format!("stats: {what}"));
        }
    };
    let hits = stat(stats, "memo_hits");
    let misses = stat(stats, "memo_misses");
    match rule {
        StatsRule::RoutedPool { pool, shards } => {
            // The router hashes each `batch_bin` frame's bytes to a shard,
            // so every shard a frame reaches misses the whole pool once.
            want(
                misses.is_multiple_of(pool) && (pool..=shards * pool).contains(&misses),
                format!("memo_misses {misses}: not 1 to {shards} warm pools of {pool}"),
            );
            want(
                hits + misses == pool + facts.measured_verdicts,
                format!(
                    "memo lookups {} != warm pool {pool} + measured items {}",
                    hits + misses,
                    facts.measured_verdicts
                ),
            );
            want(
                stat(stats, "schema_hits") > 0,
                "no schema hits on a shared-schema pool".into(),
            );
            want(
                stat(stats, "shards_reachable") == shards,
                format!("shards_reachable {}", stat(stats, "shards_reachable")),
            );
            for key in ["failovers", "breaker_opens", "shard_respawns"] {
                want(stat(stats, key) == 0, format!("{key} {}", stat(stats, key)));
            }
        }
        StatsRule::WarmPool { pool } => {
            want(
                misses == pool,
                format!("memo_misses {misses} != warm pool {pool}"),
            );
            want(
                hits == facts.measured_verdicts,
                format!(
                    "memo_hits {hits} != measured items {}",
                    facts.measured_verdicts
                ),
            );
            want(
                stat(stats, "schema_hits") > 0,
                "no schema hits on a shared-schema pool".into(),
            );
        }
        StatsRule::AllDistinct { cold } => {
            want(hits == 0, format!("memo_hits {hits} on distinct instances"));
            want(
                misses == cold + facts.measured_verdicts,
                format!(
                    "memo_misses {misses} != cold pass {cold} + checks {}",
                    facts.measured_verdicts
                ),
            );
            want(
                stat(stats, "schema_hits") > 0,
                "no schema hits across schema groups".into(),
            );
        }
        StatsRule::Edits => {
            let updates = stat(stats, "update_reqs");
            want(
                updates == facts.updates,
                format!("update_reqs {updates} != updates sent {}", facts.updates),
            );
            want(
                stat(stats, "components_reused") > 0,
                "components_reused is 0".into(),
            );
            want(
                hits >= facts.measured_checks,
                format!(
                    "memo_hits {hits} < checks of earlier versions {}",
                    facts.measured_checks
                ),
            );
        }
    }
    errors
}
