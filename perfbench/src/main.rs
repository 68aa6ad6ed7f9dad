//! The repository benchmark's load generator.
//!
//! ```text
//! perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --run-dir DIR
//! ```
//!
//! Drives the release `xmltad` over a Unix socket, closed loop, from at
//! most two client threads, and checks every reply against the answer the
//! workload generator knows. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it also replays the same frames in process
//! through the program's layer functions and reports per-layer self times,
//! provided the replay's reply bytes match the daemon's transcript exactly,
//! and, on `fleet-delta`, through a `xmlta router` fleet for the relay.
//! The last stdout line is one JSON object; the exit code is nonzero on
//! any wrong verdict, failed request, counter mismatch, or replay
//! divergence.

mod client;
mod oracle;
mod replay;
mod server;
mod trace;
mod workloads;

use client::{drive, Conn, Sent};
use oracle::{check_reply, check_stats, Expect, StatsFacts};
use server::{Env, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use workloads::{Plan, StatsRule};
use xmlta_service::{parse_json, Json};

/// The longest measured phase of one pass. An end-to-end run is a series
/// of passes, started until `--seconds` have gone by, and at least
/// `MIN_PASSES` of them. Every pass sets up a fresh server, plays the
/// prelude (one `setup_s` sample), and measures for `PASS_MAX` (or a
/// third of `--seconds`, if shorter) or until the workload's script ends.
/// Every pass starts the same script, so per-pass figures are reported as
/// their median: a phase of outside load that covers fewer than half of
/// the passes does not move it, while a slower program slows them all. A
/// traced run measures one pass.
const PASS_MAX: Duration = Duration::from_secs(3);
const MIN_PASSES: u32 = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    env: Env,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut bin_dir = None;
    let mut run_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = num(value()?)?,
            "--seconds" => seconds = num(value()?)?.max(1),
            "--trace" => trace = num(value()?)? != 0,
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--run-dir" => run_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        env: Env {
            bin_dir: bin_dir.ok_or("--bin-dir is required")?,
            run_dir: run_dir.ok_or("--run-dir is required")?,
        },
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        samples,
    }
}

/// The result of one workload run.
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Printed on the `#` lines only, not in the result line.
    printed: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        workloads::NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut reports = Vec::new();
    for name in &names {
        match run_workload(&args, name) {
            Ok(report) => {
                print_report(name, &report);
                reports.push((*name, report));
            }
            Err(e) => {
                // No result line: the run could not be carried out.
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let prefixed = names.len() > 1;
    let mut attempted = 0;
    let mut failed = 0;
    let mut fields = Vec::new();
    for (name, report) in &reports {
        attempted += report.attempted;
        failed += report.failed;
        let metrics = if args.trace {
            &report.per_layer
        } else {
            &report.end_to_end
        };
        for m in metrics {
            let key = if prefixed {
                format!("{name}/{}", m.name)
            } else {
                m.name.clone()
            };
            fields.push(format!(
                "{}:{{\"value\":{},\"unit\":\"{}\"}}",
                xmlta_service::json::escaped(&key),
                m.value,
                m.unit
            ));
        }
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(name: &str, report: &Report) {
    for e in report.errors.iter().take(20) {
        println!("# {name}: FAILED {e}");
    }
    println!(
        "# {name}: attempted {} failed {} failed_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in report
        .end_to_end
        .iter()
        .chain(&report.printed)
        .chain(&report.per_layer)
    {
        println!(
            "# {name}: {:<44} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// What the serving processes did in one pass.
struct Pass {
    setup_s: f64,
    prelude: Vec<Sent>,
    prelude_wall_ns: u64,
    measured: Vec<Sent>,
    measured_wall_ns: u64,
    cpu_us: u64,
    rss_mb: f64,
    stats: Json,
}

/// Sends each connection's prelude and checks every reply.
fn send_prelude(conns: &mut [Conn], plan: &Plan, errors: &mut Vec<String>) -> (Vec<Sent>, u64) {
    let epoch = Instant::now();
    let far = epoch + Duration::from_secs(3600);
    let mut all = Vec::new();
    for (c, (conn, frames)) in conns.iter_mut().zip(&plan.prelude).enumerate() {
        let mut it = frames.iter();
        let (sent, transport_failed) = drive(conn, c, epoch, far, || {
            it.next().map(|(id, frame, _)| (*id, Arc::clone(frame)))
        });
        if transport_failed {
            errors.push(format!("prelude transport failure on connection {c}"));
        }
        for (s, (id, _, expect)) in sent.iter().zip(frames) {
            match &s.reply {
                Some(reply) => {
                    if let Err(e) = check_reply(*id, expect, reply) {
                        errors.push(format!("prelude {e}"));
                    }
                }
                None => errors.push(format!("prelude id {id}: no reply")),
            }
        }
        all.extend(sent);
    }
    (all, epoch.elapsed().as_nanos() as u64)
}

/// One pass: spawns the serving processes, plays the prelude (the set-up
/// time runs from spawn to the last prelude reply), runs the scripts from
/// their start for `seconds` or until they end, and reads `stats`.
/// Transport failures of the measured phase go to `errors`.
fn run_pass(
    env: &Env,
    plan: &mut Plan,
    seconds: Duration,
    errors: &mut Vec<String>,
) -> Result<Pass, String> {
    for script in plan.scripts.iter_mut() {
        script.restart();
    }
    let start = Instant::now();
    let server = Server::spawn(env, None).map_err(|e| format!("spawn: {e}"))?;
    let mut conns = (0..plan.prelude.len())
        .map(|_| server.connect())
        .collect::<std::io::Result<Vec<Conn>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut prelude_errors = Vec::new();
    let (prelude, prelude_wall_ns) = send_prelude(&mut conns, plan, &mut prelude_errors);
    let setup_s = start.elapsed().as_secs_f64();
    if !prelude_errors.is_empty() {
        return Err(format!("prelude failed: {}", prelude_errors.join("; ")));
    }

    let cpu_before = server.cpu_us();
    let epoch = Instant::now();
    let deadline = epoch + seconds;
    let results: Vec<(Vec<Sent>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(plan.scripts.iter_mut())
            .enumerate()
            .map(|(c, (conn, script))| {
                scope.spawn(move || drive(conn, c, epoch, deadline, || script.next()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let measured_wall_ns = epoch.elapsed().as_nanos() as u64;
    let cpu_us = server.cpu_us().saturating_sub(cpu_before);
    let rss_mb = server.rss_peak_mb();
    let mut measured = Vec::new();
    for (c, (sent, transport_failed)) in results.into_iter().enumerate() {
        if transport_failed {
            errors.push(format!("transport failure on connection {c}"));
        }
        measured.extend(sent);
    }
    measured.sort_by_key(|s| s.sent_ns);

    let stats = conns[0]
        .roundtrip(&xmlta_server::proto::req_stats(u64::MAX - 1))
        .ok()
        .and_then(|r| parse_json(&r).ok())
        .and_then(|j| j.get("stats").cloned());
    server.shutdown(conns.first_mut());
    Ok(Pass {
        setup_s,
        prelude,
        prelude_wall_ns,
        measured,
        measured_wall_ns,
        cpu_us,
        rss_mb,
        stats: stats.ok_or("no stats reply")?,
    })
}

fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn run_workload(args: &Args, name: &str) -> Result<Report, String> {
    let mut plan = workloads::plan(name, args.seed)?;
    let budget = Duration::from_secs(args.seconds);
    let pass_len = PASS_MAX.min(budget / MIN_PASSES);
    let started = Instant::now();
    let mut errors = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut verdicts = 0u64;
    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut cpu_per_verdict = Vec::new();
    let mut rss_mb = Vec::new();
    let mut latencies = Vec::new();
    let mut pass_p50s = Vec::new();
    let mut pass_p99s = Vec::new();
    // The first pass is kept whole: a traced run replays it.
    let mut first: Option<Pass> = None;
    let mut passes = 0u32;
    loop {
        let enough = if args.trace {
            passes == 1
        } else {
            passes >= MIN_PASSES && started.elapsed() >= budget
        };
        if enough {
            break;
        }
        let pass = run_pass(&args.env, &mut plan, pass_len, &mut errors)?;
        let mut pass_latencies = Vec::with_capacity(pass.measured.len());
        // The oracle: every measured reply against its known answer.
        let mut facts = StatsFacts {
            measured_verdicts: 0,
            measured_checks: 0,
            updates: 0,
        };
        for s in &pass.measured {
            let script = &plan.scripts[s.conn];
            let expect = script.expect(s.id);
            match &expect {
                Expect::Update { .. } => facts.updates += 1,
                Expect::Check(_) => facts.measured_checks += 1,
                Expect::Exact(_) => {}
            }
            let verdict = match &s.reply {
                None => Err(format!("id {}: no reply", s.id)),
                Some(reply) => check_reply(s.id, &expect, reply),
            };
            match verdict {
                Ok(()) => facts.measured_verdicts += script.verdicts(s.id),
                Err(e) => {
                    failed += 1;
                    errors.push(e);
                }
            }
            if let Some(l) = s.latency_ns {
                pass_latencies.push(l);
            }
        }
        // Counter cross-checks run outside the timed phase; each mismatch
        // counts as a failure.
        let side = check_stats(plan.stats_rule, &pass.stats, &facts);
        failed += side.len() as u64;
        errors.extend(side);
        if pass.measured.is_empty() {
            errors.push("no request completed in a measured pass".into());
            failed += 1;
        }
        let pass_verdicts = facts.measured_verdicts;
        attempted += pass.measured.len() as u64;
        verdicts += pass_verdicts;
        setup_s.push(pass.setup_s);
        rates.push(pass_verdicts as f64 / (pass.measured_wall_ns as f64 / 1e9));
        cpu_per_verdict.push(pass.cpu_us as f64 / pass_verdicts.max(1) as f64);
        rss_mb.push(pass.rss_mb);
        pass_latencies.sort_unstable();
        pass_p50s.push(quantile(&pass_latencies, 0.50) / 1e6);
        pass_p99s.push(quantile(&pass_latencies, 0.99) / 1e6);
        latencies.extend(pass_latencies);
        println!(
            "# {name}: pass {}: setup_s {:.6} verdicts_per_s {:.3} latency_p50_ms {:.6} \
             latency_p99_ms {:.6} server_cpu_us_per_verdict {:.3}",
            passes + 1,
            pass.setup_s,
            rates[rates.len() - 1],
            pass_p50s[pass_p50s.len() - 1],
            pass_p99s[pass_p99s.len() - 1],
            cpu_per_verdict[cpu_per_verdict.len() - 1]
        );
        passes += 1;
        first.get_or_insert(pass);
    }
    let side = oracle::naive_cross_check(&plan.naive_sample);
    failed += side.len() as u64;
    errors.extend(side);

    latencies.sort_unstable();
    let n = latencies.len() as u64;
    let p = u64::from(passes);
    let end_to_end = vec![
        metric("setup_s", median(&mut setup_s), "s", p),
        metric("verdicts_per_s", median(&mut rates), "1/s", verdicts),
        metric(
            "latency_p50_pass_median_ms",
            median(&mut pass_p50s),
            "ms",
            n,
        ),
        metric(
            "latency_p99_pass_median_ms",
            median(&mut pass_p99s),
            "ms",
            n,
        ),
        metric(
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        metric(
            "server_cpu_us_per_verdict",
            median(&mut cpu_per_verdict),
            "us",
            verdicts,
        ),
        metric("server_rss_peak_mb", median(&mut rss_mb), "MB", p),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let first = first.as_ref().expect("a traced run measures one pass");
        match traced_replay(args, &plan, first) {
            Ok(metrics) => per_layer = metrics,
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
    }
    Ok(Report {
        attempted,
        failed,
        errors,
        end_to_end,
        per_layer,
        printed: vec![
            metric("latency_p50_ms", quantile(&latencies, 0.50) / 1e6, "ms", n),
            metric("latency_p99_ms", quantile(&latencies, 0.99) / 1e6, "ms", n),
        ],
    })
}

/// Replays the daemon's frames in process, untraced then traced, and turns
/// the spans into per-layer metrics. Refuses (returns `Err`) when either
/// replay's replies differ from the daemon transcript by a single byte.
fn traced_replay(args: &Args, plan: &Plan, run: &Pass) -> Result<Vec<Metric>, String> {
    let sent: Vec<&Sent> = run.prelude.iter().chain(&run.measured).collect();
    let frames: Vec<(usize, Arc<str>)> = sent
        .iter()
        .map(|s| (s.conn, Arc::clone(&s.frame)))
        .collect();
    let transcript: Vec<&str> = sent
        .iter()
        .map(|s| {
            s.reply
                .as_deref()
                .ok_or("a frame has no reply; nothing to replay against")
        })
        .collect::<Result<_, _>>()?;
    let conns = plan.prelude.len();
    let diverges = |replies: &[String], which: &str| -> Result<(), String> {
        for ((s, want), got) in sent.iter().zip(&transcript).zip(replies) {
            if want != got {
                return Err(format!(
                    "{which} replay diverges from the daemon transcript at id {}: daemon {want}, replay {got}",
                    s.id
                ));
            }
        }
        Ok(())
    };

    // Untraced replays run before and after the traced one and the faster
    // counts, so heap warm-up does not pass for tracing cost.
    let untraced_run = || -> Result<f64, String> {
        let mut untraced = replay::Replay::new(None);
        let start = Instant::now();
        let replies = replay::replay_all(&mut untraced, conns, &frames);
        let ns = start.elapsed().as_nanos() as f64;
        diverges(&replies, "untraced")?;
        Ok(ns)
    };
    let first_untraced_ns = untraced_run()?;

    let tracer = Tracer::new();
    let mut traced = replay::Replay::new(Some(&tracer));
    let start = Instant::now();
    let replies = replay::replay_all(&mut traced, conns, &frames);
    let traced_ns = start.elapsed().as_nanos() as f64;
    diverges(&replies, "traced")?;
    let (s, u) = (traced.cache_stats(), traced.updates);
    // Free the traced replay's state first: every timed replay then starts
    // from the same heap.
    drop((traced, replies));
    let untraced_ns = first_untraced_ns.min(untraced_run()?);

    let (relay_us, router_stats) = match plan.router_shards {
        Some(shards) => {
            let (us, stats) = router_arm(&args.env, plan, run, shards)?;
            (us, Some(stats))
        }
        None => (0.0, None),
    };

    let ms = |ns: u64| ns as f64 / 1e6;
    let requests = frames.len() as u64;
    let mut out = Vec::new();
    let mut attributed = 0u64;
    for layer in Layer::ALL.iter().skip(1) {
        let a = tracer.agg(*layer);
        attributed += a.self_ns;
        out.push(metric(
            format!("{}.self_ms", layer.name()),
            ms(a.self_ns),
            "ms",
            a.calls,
        ));
    }
    let rate = |layer: Layer| {
        let a = tracer.agg(layer);
        metric(
            format!("{}.mb_per_s", layer.name()),
            if a.self_ns == 0 {
                0.0
            } else {
                a.bytes as f64 / 1e6 / (a.self_ns as f64 / 1e9)
            },
            "MB/s",
            a.calls,
        )
    };
    out.push(rate(Layer::ParseRequest));
    out.push(rate(Layer::ParseInstance));
    out.push(rate(Layer::StreamBatchItems));
    let reg = tracer.agg(Layer::Register);
    out.push(metric(
        "state.register.calls",
        reg.calls as f64,
        "count",
        reg.calls,
    ));
    let l14 = tracer.agg(Layer::Lemma14Typecheck);
    out.push(metric(
        "lemma14.typecheck.us_per_call",
        if l14.calls == 0 {
            0.0
        } else {
            l14.total_ns as f64 / l14.calls as f64 / 1e3
        },
        "us",
        l14.calls,
    ));
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    out.push(metric(
        "memo.hit_ratio",
        ratio(s.memo_hits, s.memo_misses),
        "ratio",
        s.memo_hits + s.memo_misses,
    ));
    out.push(metric(
        "memo.lookups",
        (s.memo_hits + s.memo_misses) as f64,
        "count",
        s.memo_hits + s.memo_misses,
    ));
    out.push(metric(
        "compile.schema_hit_ratio",
        ratio(s.schema_hits, s.schema_misses),
        "ratio",
        s.schema_hits + s.schema_misses,
    ));
    out.push(metric(
        "compile.rule_hit_ratio",
        ratio(s.rule_hits, s.rule_misses),
        "ratio",
        s.rule_hits + s.rule_misses,
    ));
    out.push(metric(
        "delrelab.bout_hit_ratio",
        ratio(s.bout_hits, s.bout_misses),
        "ratio",
        s.bout_hits + s.bout_misses,
    ));
    let per_edit = |n: u64| {
        if u.incremental == 0 {
            0.0
        } else {
            n as f64 / u.incremental as f64
        }
    };
    out.push(metric(
        "incremental.dirty_symbols_per_edit",
        per_edit(u.dirty_symbols),
        "count",
        u.incremental,
    ));
    out.push(metric(
        "incremental.retained_walks_per_edit",
        per_edit(u.retained_walks),
        "count",
        u.incremental,
    ));
    out.push(metric(
        "incremental.fallback_ratio",
        if u.edits == 0 {
            0.0
        } else {
            u.fallbacks as f64 / u.edits as f64
        },
        "ratio",
        u.edits,
    ));
    let daemon_ns = (run.prelude_wall_ns + run.measured_wall_ns) as f64;
    out.push(metric(
        "net.unattributed_ms",
        (daemon_ns - untraced_ns) / 1e6,
        "ms",
        requests,
    ));
    out.push(metric(
        "router.relay_us_per_req",
        relay_us,
        "us",
        run.measured.len() as u64,
    ));
    out.push(metric(
        "trace.unattributed_ms",
        (traced_ns - attributed as f64) / 1e6,
        "ms",
        requests,
    ));
    out.push(metric(
        "trace.overhead_ratio",
        traced_ns / untraced_ns.max(1.0),
        "ratio",
        requests,
    ));
    for key in [
        "memo_hits",
        "memo_misses",
        "schema_hits",
        "schema_misses",
        "update_reqs",
        "components_reused",
    ] {
        out.push(metric(
            format!("stats.{key}"),
            oracle::stat(&run.stats, key) as f64,
            "count",
            1,
        ));
    }
    for key in [
        "shards_reachable",
        "failovers",
        "breaker_opens",
        "shard_respawns",
    ] {
        let value = router_stats.as_ref().map_or(0, |s| oracle::stat(s, key));
        out.push(metric(format!("router.{key}"), value as f64, "count", 1));
    }
    Ok(out)
}

/// Serves a direct-daemon pass's exact frames from a `xmlta router` fleet
/// of `shards` daemons and returns the router's extra time per measured
/// request, in microseconds, with the fleet's summed `stats`. Every reply
/// must match the direct daemon's byte for byte, and the fleet must be
/// healthy and show the workload's stated memo shares.
fn router_arm(env: &Env, plan: &Plan, run: &Pass, shards: usize) -> Result<(f64, Json), String> {
    let server = Server::spawn(env, Some(shards)).map_err(|e| format!("spawn router: {e}"))?;
    let mut conn = server.connect().map_err(|e| format!("connect: {e}"))?;
    let far = Instant::now() + Duration::from_secs(3600);
    let mut replay_frames = |sent: &[Sent]| -> Result<u64, String> {
        let mut it = sent.iter();
        let epoch = Instant::now();
        let (out, failed) = drive(&mut conn, 0, epoch, far, || {
            it.next().map(|s| (s.id, Arc::clone(&s.frame)))
        });
        let ns = epoch.elapsed().as_nanos() as u64;
        if failed || out.len() != sent.len() {
            return Err("router transport failure".into());
        }
        for (r, s) in out.iter().zip(sent) {
            if r.reply != s.reply {
                return Err(format!("router and direct daemon disagree at id {}", s.id));
            }
        }
        Ok(ns)
    };
    replay_frames(&run.prelude)?;
    let routed_ns = replay_frames(&run.measured)?;
    let stats = conn
        .roundtrip(&xmlta_server::proto::req_stats(u64::MAX - 1))
        .ok()
        .and_then(|r| parse_json(&r).ok())
        .and_then(|j| j.get("stats").cloned())
        .ok_or("no stats reply from the router")?;
    server.shutdown(Some(&mut conn));
    let facts = StatsFacts {
        measured_verdicts: run
            .measured
            .iter()
            .map(|s| plan.scripts[s.conn].verdicts(s.id))
            .sum(),
        measured_checks: 0,
        updates: 0,
    };
    let rule = match plan.stats_rule {
        StatsRule::WarmPool { pool } => StatsRule::RoutedPool {
            pool,
            shards: shards as u64,
        },
        other => other,
    };
    let errors = check_stats(rule, &stats, &facts);
    if !errors.is_empty() {
        return Err(format!("router fleet: {}", errors.join("; ")));
    }
    let n = run.measured.len().max(1) as f64;
    Ok((
        (routed_ns as f64 - run.measured_wall_ns as f64) / n / 1e3,
        stats,
    ))
}
