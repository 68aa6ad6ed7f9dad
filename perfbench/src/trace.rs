//! In-memory span recording for the traced replay.
//!
//! Spans are opened and closed by the benchmark's own code around each call
//! into a program layer; nothing inside the program is instrumented. Each
//! close folds the span into per-name aggregates: calls, total time, and
//! *self* time — the span's duration minus the part its child spans cover.
//! Keeping aggregates instead of every span keeps the recorder's own cost
//! flat, which `trace.overhead_ratio` reports.

use std::cell::RefCell;
use std::time::Instant;

/// The layer boundaries the replay records, named `<module>.<function>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One replayed request frame: the root of every other span. Its self
    /// time is replay glue, reported as unattributed.
    Request,
    ParseRequest,
    Respond,
    ParseInstance,
    StreamBatchItems,
    Register,
    ApplyEdit,
    FingerprintInstance,
    MemoLookup,
    MemoInsert,
    CompileDtd,
    Lemma14Typecheck,
    RenderStatus,
    DelrelabBout,
    DelrelabCheck,
    IncrementalUpdate,
    IncrementalBuild,
    PrintInstance,
    FingerprintComponents,
}

impl Layer {
    pub const ALL: [Layer; 19] = [
        Layer::Request,
        Layer::ParseRequest,
        Layer::Respond,
        Layer::ParseInstance,
        Layer::StreamBatchItems,
        Layer::Register,
        Layer::ApplyEdit,
        Layer::FingerprintInstance,
        Layer::MemoLookup,
        Layer::MemoInsert,
        Layer::CompileDtd,
        Layer::Lemma14Typecheck,
        Layer::RenderStatus,
        Layer::DelrelabBout,
        Layer::DelrelabCheck,
        Layer::IncrementalUpdate,
        Layer::IncrementalBuild,
        Layer::PrintInstance,
        Layer::FingerprintComponents,
    ];

    /// The metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::ParseRequest => "proto.parse_request",
            Layer::Respond => "proto.respond",
            Layer::ParseInstance => "parse.parse_instance",
            Layer::StreamBatchItems => "binfmt.stream_batch_items",
            Layer::Register => "state.register",
            Layer::ApplyEdit => "state.apply_edit",
            Layer::FingerprintInstance => "memo.fingerprint_instance",
            Layer::MemoLookup => "memo.lookup",
            Layer::MemoInsert => "memo.insert",
            Layer::CompileDtd => "compile.compile_dtd",
            Layer::Lemma14Typecheck => "lemma14.typecheck",
            Layer::RenderStatus => "check.render_status",
            Layer::DelrelabBout => "delrelab.bout",
            Layer::DelrelabCheck => "delrelab.check",
            Layer::IncrementalUpdate => "incremental.update",
            Layer::IncrementalBuild => "incremental.build",
            Layer::PrintInstance => "print.print_instance",
            Layer::FingerprintComponents => "fingerprint.components",
        }
    }

    fn index(self) -> usize {
        Layer::ALL
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed in ALL")
    }
}

/// Per-layer aggregates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Input bytes handed to the layer (for the `mb_per_s` rates).
    pub bytes: u64,
}

struct Open {
    layer: Layer,
    start: Instant,
    child_ns: u64,
}

/// A single-threaded span recorder.
#[derive(Default)]
pub struct Tracer {
    stack: RefCell<Vec<Open>>,
    aggs: RefCell<Vec<Agg>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            stack: RefCell::new(Vec::with_capacity(16)),
            aggs: RefCell::new(vec![Agg::default(); Layer::ALL.len()]),
        }
    }

    fn enter(&self, layer: Layer) {
        self.stack.borrow_mut().push(Open {
            layer,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn exit(&self, bytes: u64) {
        let end = Instant::now();
        let mut stack = self.stack.borrow_mut();
        let open = stack.pop().expect("span exit matches an enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        let mut aggs = self.aggs.borrow_mut();
        let agg = &mut aggs[open.layer.index()];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.bytes += bytes;
    }

    pub fn agg(&self, layer: Layer) -> Agg {
        self.aggs.borrow()[layer.index()]
    }
}

/// Runs `f` inside a `layer` span when tracing, or bare when not.
pub fn span<R>(tracer: Option<&Tracer>, layer: Layer, f: impl FnOnce() -> R) -> R {
    span_bytes(tracer, layer, 0, f)
}

/// [`span`] that also credits `bytes` of input to the layer.
pub fn span_bytes<R>(
    tracer: Option<&Tracer>,
    layer: Layer,
    bytes: usize,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        None => f(),
        Some(t) => {
            t.enter(layer);
            let r = f();
            t.exit(bytes as u64);
            r
        }
    }
}
