//! Zero-dependency observability for the xmlta stack.
//!
//! Three pieces, all std-only:
//!
//! - **Metrics primitives**: [`Counter`] (a relaxed atomic) and
//!   [`Histogram`] (64 log2 buckets with lock-free record and
//!   p50/p90/p99/max readout). Counters are typed fields owned by the
//!   component that owns the event (the server's `ServerCounters`, the
//!   router's `RouterCounters`); each event is counted once, where its
//!   owner's readout (the `stats` op) reads it. The schema cache keeps
//!   its own `CacheStats` under its lock.
//! - **A process-wide [`Registry`] of histograms**: get-or-create
//!   lookup by name ([`histogram`] on the [`global`] registry). Handles
//!   are `Arc`s, so the record path after lookup is lock-free; readout
//!   renders a deterministic (name-sorted) JSON object (`stats.hist`).
//! - **Trace spans**: [`span`] opens a named span tied to the current
//!   request context ([`set_ctx`] / [`adopt_ctx`]); closing it emits a
//!   balanced enter/exit pair of JSONL trace events to the process
//!   [`Tracer`] (a bounded in-memory ring, plus a file sink when the
//!   daemon runs with `--trace PATH`) and records the duration into the
//!   `span.<name>_us` histogram. Span events carry the connection
//!   number and the protocol request id, so a pipelined connection's
//!   interleaving is reconstructable from the trace alone.
//!
//! Tracing is off until [`enable`] (or [`install_file`]) is called —
//! `span()` is a single relaxed atomic load when disabled, so library
//! code can instrument unconditionally.
//!
//! Trace event schema (one JSON object per line):
//!
//! ```text
//! {"ts_us":T,"conn":C,"id":I,"span":"parse","ev":"enter","depth":D}
//! {"ts_us":T,"conn":C,"id":I,"span":"parse","ev":"exit","depth":D,"dur_us":U}
//! ```
//!
//! `ts_us` is microseconds since the tracer was first touched (a
//! monotonic process epoch), `conn` the server connection number (0 for
//! stdio / in-process use), `id` the protocol request id as raw JSON
//! (`null` before a frame's id is known), and `depth` the span nesting
//! depth on the emitting logical request (0 = root).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Counters.

/// A metric counter: a relaxed atomic u64.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` (relaxed; counters are monotonic tallies, not fences).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Adds one.
    pub fn bump(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histograms.

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values with bit length `i` (i.e. `2^(i-1) ..= 2^i - 1`).
pub const HIST_BUCKETS: usize = 64;

/// A log2-bucketed histogram with lock-free record and quantile
/// readout. Values are unitless u64s; by convention the metric name
/// carries the unit (`span.compile_us`, `frame.request_bytes`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The bucket index for a value: its bit length, clamped to the table.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free: three relaxed atomic ops.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// A point-in-time copy for quantile computation.
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets: [u64; HIST_BUCKETS] = std::array::from_fn(|i| self.buckets[i].load(Relaxed));
        HistSnapshot {
            count: buckets.iter().sum(),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
            buckets,
        }
    }
}

/// A consistent-enough copy of a [`Histogram`] (individual loads are
/// relaxed; concurrent records may straddle the snapshot by one).
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl HistSnapshot {
    /// The quantile `q` in `[0, 1]`, reported as the inclusive upper
    /// bound of the bucket the q-th observation falls in (so `p50 = 15`
    /// means "half the observations were ≤ 15"). The top quantile is
    /// capped at the exact recorded max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 {
                    0
                } else {
                    (1u64 << i).wrapping_sub(1)
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Renders `{"count":..,"sum":..,"p50":..,"p90":..,"p99":..,"max":..}`.
    pub fn render_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"count\":{},\"sum\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            self.count,
            self.sum,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max,
        );
    }
}

// ---------------------------------------------------------------------
// The registry.

/// A named-histogram registry: get-or-create lookup returns shared
/// handles so hot paths pay the map lookup once and record lock-free
/// after.
#[derive(Debug, Default)]
pub struct Registry {
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("registry lock").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// All histograms as a name-sorted JSON object of snapshot objects.
    pub fn histograms_json(&self) -> String {
        let map = self.histograms.read().expect("registry lock");
        let mut out = String::from("{");
        for (i, (name, h)) in map.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(out, "\"{name}\":");
            h.snapshot().render_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: a histogram in the [`global`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

// ---------------------------------------------------------------------
// Request context (what a span is attributed to).

/// The logical request a span belongs to: the server connection number
/// and the protocol request id, rendered as raw JSON (`5`, `"abc"`, or
/// `null` before a frame's id is known).
#[derive(Debug, Clone)]
pub struct Ctx {
    pub conn: u64,
    pub id: String,
    /// Span nesting depth for the *next* span opened under this
    /// context (0 = root). Carried so worker threads that [`adopt_ctx`]
    /// a parent's context nest correctly.
    pub depth: u32,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            conn: 0,
            id: "null".to_string(),
            depth: 0,
        }
    }
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx::default());
}

/// Binds the current thread to connection `conn`, request id `id`
/// (raw JSON), at root depth. Call at the top of request handling.
pub fn set_ctx(conn: u64, id: &str) {
    CTX.with(|c| {
        *c.borrow_mut() = Ctx {
            conn,
            id: id.to_string(),
            depth: 0,
        }
    });
}

/// Snapshot of the current thread's context (for handing to a worker).
pub fn ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone())
}

/// Adopts a parent thread's context wholesale (depth included), so
/// spans opened on this thread nest under the parent's open spans.
pub fn adopt_ctx(parent: Ctx) {
    CTX.with(|c| *c.borrow_mut() = parent);
}

// ---------------------------------------------------------------------
// The tracer.

/// How many trace events the in-memory ring keeps (the `trace` op
/// reads from here; the file sink is unbounded).
pub const TRACE_RING: usize = 4096;

/// The process trace sink: a bounded ring of rendered events, plus an
/// optional line-buffered file (each event is one `write_all`, so a
/// killed daemon loses at most the event being written).
pub struct Tracer {
    epoch: Instant,
    active: AtomicBool,
    ring: Mutex<VecDeque<String>>,
    file: Mutex<Option<std::fs::File>>,
}

/// The process tracer.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        epoch: Instant::now(),
        active: AtomicBool::new(false),
        ring: Mutex::new(VecDeque::with_capacity(64)),
        file: Mutex::new(None),
    })
}

/// Turns span recording on (ring + histograms). The server enables
/// this at startup so the v2 `trace` op always has events to return;
/// plain CLI runs leave it off and spans cost one atomic load.
pub fn enable() {
    tracer().active.store(true, Relaxed);
}

/// Whether spans currently record anywhere.
pub fn enabled() -> bool {
    tracer().active.load(Relaxed)
}

/// Installs a JSONL file sink at `path` (truncating) and enables
/// tracing. Daemon `--trace PATH` lands here.
pub fn install_file(path: &Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    *tracer().file.lock().expect("tracer lock") = Some(file);
    enable();
    Ok(())
}

impl Tracer {
    /// Microseconds since the tracer epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn emit(&self, line: String) {
        if let Some(f) = self.file.lock().expect("tracer lock").as_mut() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
        let mut ring = self.ring.lock().expect("tracer lock");
        if ring.len() == TRACE_RING {
            ring.pop_front();
        }
        ring.push_back(line);
    }

    /// The most recent `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<String> {
        let ring = self.ring.lock().expect("tracer lock");
        ring.iter().rev().take(n).rev().cloned().collect()
    }
}

/// An open trace span. Both the enter and exit events are emitted when
/// the span closes (drop or [`Span::finish`]) — adjacent in the stream,
/// balanced by construction, with the enter carrying the true start
/// timestamp. The duration is also recorded into the global
/// `span.<name>_us` histogram. A span opened while tracing is disabled
/// holds nothing and records nothing.
pub struct Span(Option<LiveSpan>);

/// What an enabled span records at close.
struct LiveSpan {
    name: &'static str,
    conn: u64,
    id: String,
    depth: u32,
    start_us: u64,
    start: Instant,
}

/// Opens a span named `name` under the current thread's context. When
/// tracing is disabled this is a no-op costing one atomic load.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    let (conn, id, depth) = CTX.with(|c| {
        let mut c = c.borrow_mut();
        let depth = c.depth;
        c.depth += 1;
        (c.conn, c.id.clone(), depth)
    });
    Span(Some(LiveSpan {
        name,
        conn,
        id,
        depth,
        start_us: tracer().now_us(),
        start: Instant::now(),
    }))
}

impl Span {
    /// Closes the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else {
            return;
        };
        CTX.with(|c| {
            let mut c = c.borrow_mut();
            c.depth = c.depth.saturating_sub(1);
        });
        let dur_us = s.start.elapsed().as_micros() as u64;
        let t = tracer();
        let head = format!(
            "{{\"ts_us\":{},\"conn\":{},\"id\":{},\"span\":\"{}\",",
            s.start_us, s.conn, s.id, s.name
        );
        t.emit(format!("{head}\"ev\":\"enter\",\"depth\":{}}}", s.depth));
        t.emit(format!(
            "{head}\"ev\":\"exit\",\"depth\":{},\"dur_us\":{dur_us}}}",
            s.depth
        ));
        histogram(&format!("span.{}_us", s.name)).record(dur_us);
    }
}

// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_math_covers_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_bound_the_observations() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        // p50 of 1..=100 lands in the bucket holding 50 (32..=63).
        let p50 = s.quantile(0.50);
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        // The top quantile is capped at the exact max, not the bucket
        // upper bound (127).
        assert_eq!(s.quantile(1.0), 100);
        assert!(s.quantile(0.99) <= s.max);
        // Quantiles are monotone.
        assert!(s.quantile(0.50) <= s.quantile(0.90));
        assert!(s.quantile(0.90) <= s.quantile(0.99));
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        let mut out = String::new();
        s.render_json(&mut out);
        assert_eq!(
            out,
            "{\"count\":0,\"sum\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}"
        );
    }

    #[test]
    fn registry_get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.histogram("h");
        let b = r.histogram("h");
        a.record(7);
        b.record(9);
        assert_eq!(r.histogram("h").snapshot().count, 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn registry_json_is_name_sorted() {
        let r = Registry::new();
        r.histogram("zeta").record(2);
        r.histogram("alpha").record(1);
        let json = r.histograms_json();
        assert!(json.starts_with("{\"alpha\":{\"count\":1,"), "{json}");
        let zeta = json.find("\"zeta\":").expect("zeta rendered");
        assert!(json.find("\"alpha\":").unwrap() < zeta, "{json}");
    }

    #[test]
    fn spans_emit_balanced_pairs_with_context() {
        enable();
        set_ctx(7, "42");
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        // Other tests emit into the same process-wide ring concurrently;
        // filter down to this test's connection number. Relative order
        // of one thread's events is preserved by the ring.
        let events: Vec<String> = tracer()
            .recent(TRACE_RING)
            .into_iter()
            .filter(|e| e.contains("\"conn\":7,"))
            .collect();
        assert_eq!(events.len(), 4);
        // Inner closes first; each span's enter/exit are adjacent.
        assert!(events[0].contains("\"span\":\"inner\"") && events[0].contains("\"ev\":\"enter\""));
        assert!(events[1].contains("\"span\":\"inner\"") && events[1].contains("\"ev\":\"exit\""));
        assert!(events[2].contains("\"span\":\"outer\"") && events[2].contains("\"ev\":\"enter\""));
        assert!(events[3].contains("\"span\":\"outer\"") && events[3].contains("\"ev\":\"exit\""));
        for e in &events {
            assert!(e.contains("\"conn\":7,\"id\":42,"), "{e}");
        }
        assert!(events[0].contains("\"depth\":1"), "{}", events[0]);
        assert!(events[2].contains("\"depth\":0"), "{}", events[2]);
        // Duration landed in the span histogram.
        assert!(histogram("span.outer_us").snapshot().count >= 1);
        // Depth unwound.
        assert_eq!(ctx().depth, 0);
    }

    #[test]
    fn adopted_context_nests_worker_spans() {
        enable();
        set_ctx(3, "\"req\"");
        let _root = span("root");
        let parent = ctx();
        assert_eq!(parent.depth, 1);
        let child_events = std::thread::spawn(move || {
            adopt_ctx(parent);
            let _s = span("worker");
            drop(_s);
            tracer().recent(TRACE_RING)
        })
        .join()
        .expect("worker thread");
        let enter = child_events
            .iter()
            .find(|e| e.contains("\"span\":\"worker\"") && e.contains("\"ev\":\"enter\""))
            .expect("worker enter event");
        assert!(enter.contains("\"conn\":3,\"id\":\"req\","), "{enter}");
        assert!(enter.contains("\"depth\":1"), "{enter}");
    }
}
