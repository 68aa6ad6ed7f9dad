//! Seeded workload generators. Every frame comes with the answer the
//! generator knows for it, so each reply can be checked without trusting
//! the engines under test.
//!
//! * `fleet-delta` — warm `batch_bin` frames over a shared-schema fleet;
//! * `mixed-check` — distinct inline-source checks across five families;
//! * `edit-stream` — an editor's `update` script over a sectioned instance.

use crate::oracle::{Expect, Verdict};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use typecheck_core::Instance;
use xmlta_base::Alphabet;
use xmlta_hardness::workloads as families;
use xmlta_server::proto::{self, Edit};
use xmlta_server::state::handle_for_source;
use xmlta_service::{encode_stream, gen, parse_instance, print_instance};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["fleet-delta", "mixed-check", "edit-stream"];

/// A frame source for one connection of the measured phase.
pub trait Script: Send {
    /// The next `(id, frame)`; `None` ends the connection's phase.
    fn next(&mut self) -> Option<(u64, Arc<str>)>;
    /// What the reply to frame `id` must be.
    fn expect(&self, id: u64) -> Expect;
    /// Starts the script over, for the next pass against a fresh server.
    fn restart(&mut self);
    /// Verdicts the reply to frame `id` delivers (batch items count one
    /// each).
    fn verdicts(&self, _id: u64) -> u64 {
        1
    }
}

/// A generated workload.
pub struct Plan {
    /// A traced run also replays the daemon's frames through a router
    /// with this many shards, to measure the relay.
    pub router_shards: Option<usize>,
    /// Per connection: the prelude frames (hello first), sent before the
    /// measured phase with their expected replies.
    pub prelude: Vec<Vec<(u64, Arc<str>, Expect)>>,
    /// Per connection: the measured-phase script.
    pub scripts: Vec<Box<dyn Script>>,
    /// Small DTD instances (source text, expected verdict) for the naive
    /// reference cross-check.
    pub naive_sample: Vec<(String, bool)>,
    /// Counter assertions on the daemon's `stats` after the run.
    pub stats_rule: StatsRule,
}

/// The stated shares a run's `stats` counters must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsRule {
    /// All measured items hit the memo; the warm pass missed once per
    /// pool instance.
    WarmPool { pool: u64 },
    /// Every check, the cold pass's included, is a distinct instance: no
    /// memo hits at all.
    AllDistinct { cold: u64 },
    /// `update` counters match the script.
    Edits,
    /// `WarmPool` served by a router fleet of `shards` daemons: each
    /// shard a frame reaches misses the pool once, every lookup is
    /// accounted for, and the fleet is healthy.
    RoutedPool { pool: u64, shards: u64 },
}

pub fn plan(workload: &str, seed: u64) -> Result<Plan, String> {
    match workload {
        "fleet-delta" => Ok(fleet_delta(seed)),
        "mixed-check" => Ok(mixed_check(seed)),
        "edit-stream" => Ok(edit_stream(seed)),
        other => Err(format!(
            "unknown workload `{other}` (one of {NAMES:?} or all)"
        )),
    }
}

fn rng_for(seed: u64, salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

fn exact_typechecks(id: u64) -> String {
    format!("{{\"id\":{id},\"ok\":true,\"status\":\"typechecks\"}}")
}

fn hello_v1(id: u64) -> (u64, Arc<str>, Expect) {
    (
        id,
        proto::req_hello(id).into(),
        Expect::Exact(format!(
            "{{\"id\":{id},\"ok\":true,\"server\":\"xmltad\",\"protocol\":1}}"
        )),
    )
}

/// A protocol-2 hello for a closed loop: one frame in flight.
fn hello_v2(id: u64) -> (u64, Arc<str>, Expect) {
    (
        id,
        proto::req_hello_v2(id, 2, Some(1)).into(),
        Expect::Exact(format!(
            "{{\"id\":{id},\"ok\":true,\"server\":\"xmltad\",\"protocol\":2,\"pipeline\":1}}"
        )),
    )
}

/// A copy of `instance` whose element names all carry `tag`: a distinct
/// instance (and memo key) with the same schema structure, so compiled
/// schemas are still shared by every copy.
fn renamed(instance: &Instance, tag: &str) -> Instance {
    let a = &instance.alphabet;
    Instance {
        alphabet: Alphabet::from_names(a.symbols().map(|s| format!("{}_{tag}", a.name(s)))),
        ..instance.clone()
    }
}

fn printed(instance: &Instance) -> String {
    print_instance(instance).expect("generated instances print")
}

// ---------------------------------------------------------------------
// fleet-delta

/// Fleet pool size: the warm pass is one frame of the whole pool.
const FLEET_POOL: usize = 256;
/// Items of a small measured frame.
const FLEET_ITEMS: usize = 64;
/// Frames of the measured script's cycle, which repeats: all but one are
/// small frames cut from seeded shuffles of the pool, and one, at a seeded
/// place, is a shuffle of the whole pool. Every measured item repeats a
/// pool instance (a memo hit). The whole-pool frames are the slowest 2% of
/// the frames, so the p99 latency is theirs, set by the work of a large
/// batch: with frames all alike, the p99 was set by host stalls, and its
/// ten-run spread was six times that of the p50.
const FLEET_CYCLE: usize = 50;

fn batch_bin_frame(id: u64, b64: &str) -> String {
    format!("{{\"v\":2,\"id\":{id},\"op\":\"batch_bin\",\"data\":\"{b64}\"}}")
}

fn batch_report(id: u64, names: &[&str]) -> String {
    let mut out = format!(
        "{{\"id\":{id},\"ok\":true,\"report\":{{\"xmlta\":\"batch\",\"total\":{n},\
         \"typechecks\":{n},\"counterexamples\":0,\"errors\":0,\"results\":[",
        n = names.len()
    );
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{name}\",\"status\":\"typechecks\"}}");
    }
    out.push_str("]}}");
    out
}

struct BinFrame {
    b64: String,
    names: Vec<String>,
}

fn fleet_delta(seed: u64) -> Plan {
    let mut rng = rng_for(seed, 0xF1EE);
    let group = rng.gen_range(1..1_000_000u64);
    let pool: Vec<(String, Instance)> = (0..FLEET_POOL)
        .map(|i| {
            let variant = seed.wrapping_mul(1_000_003).wrapping_add(i as u64);
            let source = gen::fleet_source(group, 4, 4, variant).expect("fleet sources print");
            (
                format!("fleet-{i:03}"),
                parse_instance(&source).expect("fleet sources parse"),
            )
        })
        .collect();
    let encode = |items: &[usize]| -> BinFrame {
        let stream = encode_stream(items.iter().map(|&i| (pool[i].0.as_str(), &pool[i].1)))
            .expect("fleet streams encode");
        BinFrame {
            b64: xmlta_service::binfmt::base64_encode(&stream),
            names: items.iter().map(|&i| pool[i].0.clone()).collect(),
        }
    };
    let warm = encode(&(0..FLEET_POOL).collect::<Vec<_>>());
    let warm_names: Vec<&str> = warm.names.iter().map(String::as_str).collect();
    let prelude = vec![
        // One frame in flight keeps one core busy and leaves the other to
        // the load generator and the host: with two in flight on two
        // cores, every host stall showed in the latency tail.
        hello_v2(0),
        (
            1,
            batch_bin_frame(1, &warm.b64).into(),
            Expect::Exact(batch_report(1, &warm_names)),
        ),
    ];
    let shuffled = |rng: &mut SmallRng| {
        let mut picks: Vec<usize> = (0..FLEET_POOL).collect();
        shuffle(&mut picks, rng);
        picks
    };
    let mut frames: Vec<BinFrame> = Vec::with_capacity(FLEET_CYCLE);
    while frames.len() < FLEET_CYCLE - 1 {
        frames.extend(shuffled(&mut rng).chunks(FLEET_ITEMS).map(encode));
    }
    frames.truncate(FLEET_CYCLE - 1);
    let whole = encode(&shuffled(&mut rng));
    frames.insert(rng.gen_range(0..FLEET_CYCLE), whole);
    let naive_sample = (0..2)
        .map(|_| (printed(&pool[rng.gen_range(0..FLEET_POOL)].1), true))
        .collect();
    Plan {
        router_shards: Some(2),
        prelude: vec![prelude],
        scripts: vec![Box::new(FleetScript {
            frames,
            next_id: 1000,
        })],
        naive_sample,
        stats_rule: StatsRule::WarmPool {
            pool: FLEET_POOL as u64,
        },
    }
}

struct FleetScript {
    frames: Vec<BinFrame>,
    next_id: u64,
}

impl FleetScript {
    fn frame_of(&self, id: u64) -> &BinFrame {
        &self.frames[(id - 1000) as usize % self.frames.len()]
    }
}

impl Script for FleetScript {
    fn next(&mut self) -> Option<(u64, Arc<str>)> {
        let id = self.next_id;
        self.next_id += 1;
        Some((id, batch_bin_frame(id, &self.frame_of(id).b64).into()))
    }

    fn expect(&self, id: u64) -> Expect {
        let names: Vec<&str> = self.frame_of(id).names.iter().map(String::as_str).collect();
        Expect::Exact(batch_report(id, &names))
    }

    fn verdicts(&self, id: u64) -> u64 {
        self.frame_of(id).names.len() as u64
    }

    fn restart(&mut self) {
        self.next_id = 1000;
    }
}

// ---------------------------------------------------------------------
// mixed-check

/// Pre-generated distinct instances; a pass that uses them all ends early
/// rather than repeat one.
const MIXED_POOL: usize = 24_000;
/// Instances of the cold pass, the prelude: a fresh daemon's first checks,
/// distinct from the pool, which pay its first-use compilation.
const MIXED_COLD: usize = 48;
/// Transducer variants per layered schema group.
const LAYERED_VARIANTS: u64 = 64;

/// The mix, in percent: filtering, failing filtering, layered, wide
/// regex, NTA/DTAc.
const MIXED_SHARES: [(Family, u32); 5] = [
    (Family::Filtering, 30),
    (Family::FilteringFail, 10),
    (Family::Layered, 30),
    (Family::Regex, 20),
    (Family::Nta, 10),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Filtering,
    FilteringFail,
    Layered,
    Regex,
    Nta,
}

/// A wide alternation-star rule (`r -> (k0|...)*`), transduced to `y*`.
fn regex_instance(width: usize) -> Instance {
    let mut a = Alphabet::new();
    let alts: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
    let din = xmlta_schema::Dtd::parse(&format!("r -> ({})*", alts.join("|")), &mut a)
        .expect("regex DTD");
    let mut builder = xmlta_transducer::TransducerBuilder::new(&mut a).states(&["root", "q"]);
    builder = builder.rule("root", "r", "r(q)");
    for i in 0..width {
        builder = builder.rule("q", &format!("k{i}"), "y");
    }
    let t = builder.build().expect("regex transducer");
    let dout = xmlta_schema::Dtd::parse("r -> y*", &mut a).expect("regex out DTD");
    Instance::dtds(a, din, dout, t)
}

/// Placeholder suffix of every element name in a printed template; each
/// pooled instance replaces it with its own tag.
const TAG: &str = "_TAGX";

/// Shuffles the alternatives of the template's `(a|b|...)*` rule: a
/// structurally new regex, so its compilation is never a cache hit.
fn permute_alternation(template: &str, rng: &mut SmallRng) -> String {
    let open = template
        .find("-> (")
        .expect("regex template has an alternation")
        + 4;
    let close = open + template[open..].find(")*").expect("alternation closes");
    let mut alts: Vec<&str> = template[open..close].split('|').map(str::trim).collect();
    shuffle(&mut alts, rng);
    format!(
        "{}{}{}",
        &template[..open],
        alts.join("|"),
        &template[close..]
    )
}

fn mixed_check(seed: u64) -> Plan {
    let mut rng = rng_for(seed, 0x313C);
    let groups: Vec<u64> = (0..4).map(|_| rng.gen_range(1..1_000_000u64)).collect();
    let mut templates: HashMap<(u8, u64), (String, bool)> = HashMap::new();
    let mut naive_sample = Vec::new();
    let mut make = |tag: String, rng: &mut SmallRng| -> (Arc<str>, Expect) {
        let mut pick = rng.gen_range(0..100u32);
        let family = MIXED_SHARES
            .iter()
            .find(|(_, share)| {
                let hit = pick < *share;
                pick = pick.saturating_sub(*share);
                hit
            })
            .map(|(f, _)| *f)
            .expect("shares sum to 100");
        let key = match family {
            Family::Filtering => (0, rng.gen_range(2..=24)),
            Family::FilteringFail => (1, rng.gen_range(2..=12)),
            Family::Layered => (2, rng.gen_range(0..4 * LAYERED_VARIANTS)),
            Family::Regex => (3, rng.gen_range(16..=40)),
            Family::Nta => (4, rng.gen_range(3..=6)),
        };
        let (template, typechecks) = templates.entry(key).or_insert_with(|| {
            let p = key.1;
            let (instance, typechecks) = match family {
                Family::Filtering => (families::filtering_family(p as usize).instance, true),
                Family::FilteringFail => (
                    families::failing_filtering_family(p as usize).instance,
                    false,
                ),
                Family::Layered => {
                    let g = groups[(p % 4) as usize];
                    let source = gen::layered_source(g, 3, 3, p / 4).expect("layered prints");
                    (parse_instance(&source).expect("layered parses"), true)
                }
                Family::Regex => (regex_instance(p as usize), true),
                Family::Nta => (families::delrelab_family(p as usize).instance, true),
            };
            (printed(&renamed(&instance, &TAG[1..])), typechecks)
        });
        let typechecks = *typechecks;
        let template = if family == Family::Regex {
            permute_alternation(template, rng)
        } else {
            template.clone()
        };
        let source: Arc<str> = template.replace(TAG, &tag).into();
        // Two small passing and two small failing filtering instances.
        if matches!(family, Family::FilteringFail | Family::Filtering)
            && key.1 <= 3
            && naive_sample
                .iter()
                .filter(|(_, t)| *t == typechecks)
                .count()
                < 2
        {
            naive_sample.push((source.to_string(), typechecks));
        }
        let expect = if typechecks {
            Expect::Check(Verdict::TypeChecks)
        } else {
            Expect::Check(Verdict::CounterExample(Arc::clone(&source)))
        };
        (source, expect)
    };
    let pool: Vec<(Arc<str>, Expect)> = (0..MIXED_POOL)
        .map(|i| make(format!("_{seed:x}n{i}"), &mut rng))
        .collect();
    // The cold pass draws its families and sizes from a fixed stream, so
    // its work is the same for every seed.
    let mut cold_rng = rng_for(0, 0xC01D);
    let mut cold = vec![hello_v1(0)];
    for i in 0..MIXED_COLD {
        let (source, expect) = make(format!("_{seed:x}w{i}"), &mut cold_rng);
        let id = 1_000_000 + i as u64;
        cold.push((id, proto::req_typecheck_source(id, &source).into(), expect));
    }
    let pool = Arc::new(pool);
    let next = Arc::new(AtomicUsize::new(0));
    let scripts: Vec<Box<dyn Script>> = (0..2)
        .map(|_| {
            Box::new(MixedScript {
                pool: Arc::clone(&pool),
                next: Arc::clone(&next),
            }) as Box<dyn Script>
        })
        .collect();
    Plan {
        router_shards: None,
        prelude: vec![cold, vec![hello_v1(1)]],
        scripts,
        naive_sample,
        stats_rule: StatsRule::AllDistinct {
            cold: MIXED_COLD as u64,
        },
    }
}

/// Both connections draw from one pool, so every instance is sent once.
struct MixedScript {
    pool: Arc<Vec<(Arc<str>, Expect)>>,
    next: Arc<AtomicUsize>,
}

impl Script for MixedScript {
    fn next(&mut self) -> Option<(u64, Arc<str>)> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let (source, _) = self.pool.get(i)?;
        let id = 2 + i as u64;
        Some((id, proto::req_typecheck_source(id, source).into()))
    }

    fn expect(&self, id: u64) -> Expect {
        self.pool[(id - 2) as usize].1.clone()
    }

    fn restart(&mut self) {
        // Both connections share the cursor: either restart resets it.
        self.next.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// edit-stream

const SECTIONS: usize = 64;
/// Percent of edits that break typing; each is repaired by the next edit.
const BREAK_SHARE: usize = 10;
/// Percent of edits that change an output schema rule, which forces a
/// from-scratch check.
const SCHEMA_SHARE: usize = 10;
/// Typecheck-by-handle targets are drawn from this many latest versions.
const RECENT: usize = 32;
/// Requests of the edit script, which one pass plays against a fresh
/// daemon. The session keeps every version, so memory grows with the
/// edits served: a script of fixed length makes peak memory comparable
/// from pass to pass.
const EDIT_REQUESTS: u64 = 600;

/// One version of the sectioned instance: `r -> s0 .. s63`, each section
/// `sj -> xj*` in both schemas (the output rule spelled one of two
/// equivalent ways), and a transducer state per section emitting
/// `copies[j]` copies of `xj` — or, in a broken version, an `x` of the
/// next section, which the output schema rejects.
#[derive(Clone)]
pub struct Sectioned {
    copies: Vec<u8>,
    alt_output: Vec<bool>,
    broken: Option<usize>,
}

impl Sectioned {
    fn base() -> Sectioned {
        Sectioned {
            copies: vec![1; SECTIONS],
            alt_output: vec![false; SECTIONS],
            broken: None,
        }
    }

    fn rule_rhs(&self, j: usize) -> String {
        let mut rhs = vec![format!("x{j}"); self.copies[j] as usize];
        if self.broken == Some(j) {
            rhs.push(format!("x{}", (j + 1) % SECTIONS));
        }
        rhs.join(" ")
    }

    fn output_rhs(&self, j: usize) -> String {
        if self.alt_output[j] {
            format!("(x{j} x{j}?)*")
        } else {
            format!("x{j}*")
        }
    }

    /// The version's source text; `only` restricts it to one section (a
    /// small instance with that section's verdict, for the naive check).
    fn source(&self, only: Option<usize>) -> String {
        let sections: Vec<usize> = match only {
            Some(j) => vec![j, (j + 1) % SECTIONS],
            None => (0..SECTIONS).collect(),
        };
        let mut src = String::from("alphabet { r");
        for &j in &sections {
            let _ = write!(src, " s{j} x{j}");
        }
        src.push_str(" }\n");
        for output in [false, true] {
            let side = if output { "output" } else { "input" };
            let _ = write!(src, "{side} dtd {{\n  start r\n  r ->");
            for &j in &sections {
                let _ = write!(src, " s{j}");
            }
            src.push('\n');
            for &j in &sections {
                let rule = if output {
                    self.output_rhs(j)
                } else {
                    format!("x{j}*")
                };
                let _ = writeln!(src, "  s{j} -> {rule}\n  x{j} -> eps");
            }
            src.push_str("}\n");
        }
        src.push_str("transducer {\n  states root p");
        for &j in &sections {
            let _ = write!(src, " q{j}");
        }
        src.push_str("\n  initial root\n  (root, r) -> r(p)\n");
        for &j in &sections {
            let _ = writeln!(src, "  (p, s{j}) -> s{j}(q{j})");
            let _ = writeln!(src, "  (q{j}, x{j}) -> {}", self.rule_rhs(j));
        }
        src.push_str("}\n");
        src
    }

    fn verdict(&self) -> Verdict {
        match self.broken {
            None => Verdict::TypeChecks,
            Some(_) => Verdict::CounterExample(self.source(None).into()),
        }
    }
}

/// Components of a sectioned instance: alphabet, both schemas, the
/// transducer header, and `1 + 2 × SECTIONS` rules. Every scripted edit
/// changes exactly one of them.
const EDIT_REUSED: u64 = 4 + 1 + 2 * SECTIONS as u64 - 1;

fn edit_stream(seed: u64) -> Plan {
    let base = Sectioned::base();
    let source = base.source(None);
    let handle = handle_for_source(&source);
    let prelude = vec![
        hello_v2(0),
        (
            1,
            proto::req_register(1, &source).into(),
            Expect::Exact(format!("{{\"id\":1,\"ok\":true,\"handle\":\"{handle}\"}}")),
        ),
        // The editor checks the document it opened: one from-scratch check.
        (
            1_000_000,
            proto::req_typecheck_handle(1_000_000, &handle).into(),
            Expect::Exact(exact_typechecks(1_000_000)),
        ),
    ];
    let mut rng = rng_for(seed, 0xED17);
    // The naive cross-check runs on two-section projections of a benign
    // and a broken version.
    let mut benign = base.clone();
    let j = rng.gen_range(0..SECTIONS);
    benign.copies[j] = 3;
    let mut broken = benign.clone();
    broken.broken = Some(j);
    let naive_sample = vec![
        (benign.source(Some(j)), true),
        (broken.source(Some(j)), false),
    ];
    Plan {
        router_shards: None,
        prelude: vec![prelude],
        scripts: vec![Box::new(EditScript {
            frames: edit_script(base, handle, &mut rng),
            next: 0,
        })],
        naive_sample,
        stats_rule: StatsRule::Edits,
    }
}

/// One step of the edit script.
#[derive(Clone, Copy)]
enum Step {
    Benign,
    Break,
    Repair,
    Schema,
}

/// The edit steps of the script: exactly `BREAK_SHARE`% breaks, each
/// followed by its repair, and `SCHEMA_SHARE`% schema edits, in a seeded
/// order. Exact shares keep the work of a pass the same from seed to seed.
fn edit_steps(edits: usize, rng: &mut SmallRng) -> Vec<Step> {
    let breaks = edits * BREAK_SHARE / 100;
    let schemas = edits * SCHEMA_SHARE / 100;
    let mut units = vec![Step::Break; breaks];
    units.extend(vec![Step::Schema; schemas]);
    units.extend(vec![Step::Benign; edits - 2 * breaks - schemas]);
    shuffle(&mut units, rng);
    units
        .into_iter()
        .flat_map(|u| match u {
            Step::Break => vec![Step::Break, Step::Repair],
            other => vec![other],
        })
        .collect()
}

/// A copy count in 1..=4 different from `now`.
fn fresh_copies(now: u8, rng: &mut SmallRng) -> u8 {
    let pick = rng.gen_range(1..=3u8);
    if pick >= now {
        pick + 1
    } else {
        pick
    }
}

/// Applies one step to `current` at a seeded section (a repair goes to the
/// broken one) and returns the edit with the successor version.
fn edit_step(current: &Sectioned, step: Step, rng: &mut SmallRng) -> (Edit, Sectioned) {
    let mut next = current.clone();
    let j = current.broken.unwrap_or_else(|| rng.gen_range(0..SECTIONS));
    match step {
        Step::Schema => {
            next.alt_output[j] = !next.alt_output[j];
            let edit = Edit::SetSchemaRule {
                output: true,
                symbol: format!("s{j}"),
                rhs: next.output_rhs(j),
            };
            return (edit, next);
        }
        Step::Break => next.broken = Some(j),
        Step::Repair => {
            next.broken = None;
            next.copies[j] = fresh_copies(current.copies[j], rng);
        }
        Step::Benign => next.copies[j] = fresh_copies(current.copies[j], rng),
    }
    let edit = Edit::SetRule {
        state: format!("q{j}"),
        symbol: format!("x{j}"),
        rhs: next.rule_rhs(j),
    };
    (edit, next)
}

/// The whole seeded script, ids from 2: every third request checks one of
/// the `RECENT` latest versions by handle, the others are edits of the
/// latest version. Each update's successor handle is worked out from the
/// model: the daemon registers the canonical print of the edited instance.
fn edit_script(
    base: Sectioned,
    handle: String,
    rng: &mut SmallRng,
) -> Vec<(u64, Arc<str>, Expect)> {
    let ids = 2..2 + EDIT_REQUESTS;
    let is_check = |id: u64| id % 3 == 1 && id > 3;
    let edits = ids.clone().filter(|&id| !is_check(id)).count();
    let mut steps = edit_steps(edits, rng).into_iter();
    let mut versions: Vec<(String, Sectioned)> = vec![(handle, base)];
    let mut frames = Vec::with_capacity(EDIT_REQUESTS as usize);
    for id in ids {
        if is_check(id) {
            let lo = versions.len().saturating_sub(RECENT).max(1);
            let (handle, model) = &versions[rng.gen_range(lo..versions.len())];
            let frame = proto::req_typecheck_handle(id, handle);
            frames.push((id, frame.into(), Expect::Check(model.verdict())));
            continue;
        }
        let (latest_handle, latest) = versions.last().expect("the base version");
        let step = steps.next().expect("a step for every edit");
        let (edit, next) = edit_step(latest, step, rng);
        let frame = proto::req_update(id, latest_handle, &edit);
        let canonical = printed(&parse_instance(&next.source(None)).expect("versions parse"));
        let handle = handle_for_source(&canonical);
        let expect = Expect::Update {
            handle: handle.clone(),
            verdict: next.verdict(),
            reused: EDIT_REUSED,
        };
        frames.push((id, frame.into(), expect));
        versions.push((handle, next));
    }
    frames
}

/// The edit script, played from the start on every pass.
struct EditScript {
    frames: Vec<(u64, Arc<str>, Expect)>,
    next: usize,
}

impl Script for EditScript {
    fn next(&mut self) -> Option<(u64, Arc<str>)> {
        let (id, frame, _) = self.frames.get(self.next)?;
        self.next += 1;
        Some((*id, Arc::clone(frame)))
    }

    fn expect(&self, id: u64) -> Expect {
        self.frames[(id - 2) as usize].2.clone()
    }

    fn restart(&mut self) {
        self.next = 0;
    }
}
