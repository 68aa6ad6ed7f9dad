//! The in-process replay: the daemon's request path rebuilt from the
//! program's public layer functions, called in the order `xmltad` calls
//! them (`session.rs`, `state.rs`, `batch.rs`, `cache.rs`), with a span
//! around each call.
//!
//! The replay answers every frame a workload sent, so the rendered reply
//! lines can be compared byte for byte, id for id, with the daemon's
//! transcript; a replay that diverges is not a faithful model of the
//! daemon and its layer numbers are refused. Work the daemon does around
//! these calls — socket reads and writes, the pipelined connection engine,
//! trace contexts — is exactly what the replay leaves out, which is what
//! `net.unattributed_ms` measures.

use crate::trace::{span, span_bytes, Layer, Tracer};
use std::sync::{Arc, Mutex};
use typecheck_core::{delrelab, Instance, Outcome, Schema, TypecheckError};
use xmlta_base::fxhash::FxHashMap;
use xmlta_server::proto::{self, code, Edit, Op, Reject, ResponseBuilder, Target};
use xmlta_server::state::{
    apply_edit, fingerprint_source, handle_for_source, Prepared, RegisteredContent,
};
use xmlta_service::batch::{render_status, BatchOutcome, ItemResult};
use xmlta_service::lru::Lru;
use xmlta_service::{
    fingerprint_instance, parse_instance, print_instance, stream_batch_items, BatchInput,
    CacheStats, ComponentFingerprints, ItemStatus, Json, RetainedEngine, SchemaCache,
};
use xmlta_transducer::translate;

/// What the incremental `update` path did, summed over a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct UpdateTally {
    pub edits: u64,
    /// Edits served by a from-scratch check instead of the retained engine.
    pub fallbacks: u64,
    pub dirty_symbols: u64,
    pub retained_walks: u64,
    /// Edits whose retained engine produced the verdict.
    pub incremental: u64,
}

/// The process-wide half of the replayed daemon (`xmlta_server::Shared`):
/// the schema cache and the content-addressed registry, at the daemon's
/// default capacities.
pub struct Replay<'t> {
    tracer: Option<&'t Tracer>,
    cache: SchemaCache,
    registry: Mutex<Lru<u64, Vec<Arc<Prepared>>>>,
    pub updates: UpdateTally,
}

/// The per-connection half (`xmlta_server::Session`).
pub struct ReplaySession {
    handles: FxHashMap<String, Arc<Prepared>>,
    version: u64,
}

impl ReplaySession {
    pub fn new() -> ReplaySession {
        ReplaySession {
            handles: FxHashMap::default(),
            version: proto::PROTOCOL_VERSION,
        }
    }
}

impl<'t> Replay<'t> {
    pub fn new(tracer: Option<&'t Tracer>) -> Replay<'t> {
        Replay {
            tracer,
            cache: SchemaCache::with_memo_capacity(xmlta_service::cache::DEFAULT_MEMO_CAPACITY),
            registry: Mutex::new(Lru::new(xmlta_server::state::DEFAULT_REGISTRY_CAPACITY)),
            updates: UpdateTally::default(),
        }
    }

    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn t(&self) -> Option<&'t Tracer> {
        self.tracer
    }

    /// Answers one request frame; the reply line has no newline.
    pub fn handle_frame(&mut self, session: &mut ReplaySession, line: &str) -> String {
        let tracer = self.t();
        span(tracer, Layer::Request, || {
            let parsed = span_bytes(tracer, Layer::ParseRequest, line.len(), || {
                proto::parse_request(line, session.version)
            });
            match parsed {
                Ok(request) => self.plan(session, request.id, request.op),
                Err(reject) => span(tracer, Layer::Respond, || proto::error_frame(&reject)),
            }
        })
    }

    fn plan(&mut self, session: &mut ReplaySession, id: Json, op: Op) -> String {
        let tracer = self.t();
        match op {
            Op::Hello {
                accepts: None,
                max_v,
                pipeline,
            } => {
                if let Some(max_v) = max_v {
                    session.version = max_v.min(proto::MAX_PROTOCOL_VERSION);
                }
                span(tracer, Layer::Respond, || {
                    let b = ResponseBuilder::new(&id, true)
                        .str_field("server", "xmltad")
                        .num_field("protocol", session.version);
                    if session.version >= 2 {
                        let depth = pipeline.unwrap_or(proto::DEFAULT_PIPELINE_DEPTH);
                        b.num_field("pipeline", depth as u64).finish()
                    } else {
                        b.finish()
                    }
                })
            }
            Op::Register { source } => match self.register(&source) {
                Ok(prepared) => {
                    let handle = prepared.handle.clone();
                    session.handles.insert(handle.clone(), prepared);
                    span(tracer, Layer::Respond, || {
                        ResponseBuilder::new(&id, true)
                            .str_field("handle", &handle)
                            .finish()
                    })
                }
                Err(e) => span(tracer, Layer::Respond, || {
                    proto::error_frame(&Reject {
                        id,
                        code: code::INVALID_INSTANCE,
                        message: format!("parse error: {e}"),
                    })
                }),
            },
            Op::Typecheck { target } => {
                let status = match target {
                    Target::Handle(handle) => match session.handles.get(&handle) {
                        Some(prepared) => {
                            let instance = Arc::clone(&prepared.instance);
                            self.check(&instance)
                        }
                        None => {
                            return span(tracer, Layer::Respond, || {
                                proto::error_frame(&Reject {
                                    id,
                                    code: code::UNKNOWN_HANDLE,
                                    message: format!(
                                        "handle `{handle}` was not registered on this connection"
                                    ),
                                })
                            })
                        }
                    },
                    Target::Source(source) => {
                        let parsed = span_bytes(tracer, Layer::ParseInstance, source.len(), || {
                            parse_instance(&source)
                        });
                        match parsed {
                            Ok(instance) => self.check(&Arc::new(instance)),
                            Err(e) => ItemStatus::Error {
                                message: format!("parse error: {e}"),
                            },
                        }
                    }
                };
                span(tracer, Layer::Respond, || status_reply(&id, &status))
            }
            Op::BatchBin {
                data,
                threads: _,
                stream: false,
            } => {
                let decoded = span_bytes(tracer, Layer::StreamBatchItems, data.len(), || {
                    stream_batch_items(&data)
                });
                match decoded {
                    Ok(items) => {
                        // `run_batch` on one worker (no `threads` field):
                        // items in order, then the cache stats snapshot.
                        let results: Vec<ItemResult> = items
                            .iter()
                            .map(|item| {
                                let BatchInput::Prepared(instance) = &item.input else {
                                    unreachable!("stream items are prepared instances")
                                };
                                ItemResult {
                                    name: Arc::clone(&item.name),
                                    status: self.check(instance),
                                }
                            })
                            .collect();
                        // Freeing the decoded instances is the other half of
                        // the materialising decoder's cost.
                        span(tracer, Layer::StreamBatchItems, || drop(items));
                        let outcome = BatchOutcome {
                            results,
                            stats: self.cache.stats(),
                        };
                        span(tracer, Layer::Respond, || {
                            ResponseBuilder::new(&id, true)
                                .raw_field("report", &outcome.to_json_line())
                                .finish()
                        })
                    }
                    Err(e) => span(tracer, Layer::Respond, || {
                        proto::error_frame(&Reject {
                            id,
                            code: code::INVALID_INSTANCE,
                            message: format!("decode error: {e}"),
                        })
                    }),
                }
            }
            Op::Update { handle, edit } => self.update(session, &id, &handle, &edit),
            other => panic!("the replay models only the ops the workloads send, not {other:?}"),
        }
    }

    /// `Shared::register`: a content-hash lookup, then parse and warm the
    /// cache on a miss.
    fn register(&self, source: &str) -> Result<Arc<Prepared>, xmlta_service::ParseError> {
        let tracer = self.t();
        span(tracer, Layer::Register, || {
            let fp = fingerprint_source(source);
            let matches = |p: &&Arc<Prepared>| match &p.content {
                RegisteredContent::Text(s) => s == source,
                RegisteredContent::Binary(_) => false,
            };
            {
                let mut registry = self.registry.lock().expect("replay registry lock");
                if let Some(hit) = registry.get(&fp).and_then(|b| b.iter().find(matches)) {
                    return Ok(Arc::clone(hit));
                }
            }
            let instance = span_bytes(tracer, Layer::ParseInstance, source.len(), || {
                parse_instance(source)
            })?;
            self.warm(&instance);
            let prepared = Arc::new(Prepared {
                handle: handle_for_source(source),
                content: RegisteredContent::Text(source.to_string()),
                instance: Arc::new(instance),
                engine: Mutex::new(None),
            });
            let mut registry = self.registry.lock().expect("replay registry lock");
            if let Some(bucket) = registry.get_mut(&fp) {
                if let Some(hit) = bucket.iter().find(matches) {
                    return Ok(Arc::clone(hit));
                }
                bucket.push(Arc::clone(&prepared));
            } else {
                registry.insert(fp, vec![Arc::clone(&prepared)]);
            }
            Ok(prepared)
        })
    }

    /// `warm_instance`: the per-schema products a registration compiles.
    fn warm(&self, instance: &Instance) {
        let tracer = self.t();
        if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
            let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
            let _ = span(tracer, Layer::DelrelabBout, || {
                self.cache.delrelab_bout(aout, sigma)
            });
        } else {
            for schema in [&instance.input, &instance.output] {
                if let Schema::Dtd(d) = schema {
                    let _ = span(tracer, Layer::CompileDtd, || self.cache.compile_dtd(d));
                }
            }
        }
    }

    /// `check_instance` with a cache: memo, then `typecheck_cached`.
    fn check(&self, instance: &Arc<Instance>) -> ItemStatus {
        let tracer = self.t();
        let fp = span(tracer, Layer::FingerprintInstance, || {
            fingerprint_instance(instance)
        });
        if let Some(hit) = span(tracer, Layer::MemoLookup, || {
            self.cache.memo_lookup(fp, instance)
        }) {
            return hit;
        }
        let outcome = self.typecheck_cached(instance);
        let status = span(tracer, Layer::RenderStatus, || {
            render_status(outcome, instance)
        });
        span(tracer, Layer::MemoInsert, || {
            self.cache.memo_insert(fp, instance, &status)
        });
        status
    }

    /// `typecheck_cached`: the Theorem 20 path with a cached `B_out` for
    /// NTA instances, compiled schemas plus the core dispatch otherwise.
    fn typecheck_cached(&self, instance: &Instance) -> Result<Outcome, TypecheckError> {
        let tracer = self.t();
        if let (Schema::Nta(ain), Schema::Nta(aout)) = (&instance.input, &instance.output) {
            return span(tracer, Layer::DelrelabCheck, || {
                let transducer = if instance.transducer.uses_selectors() {
                    translate::expand_selectors_with_alphabet(
                        &instance.transducer,
                        instance.alphabet_size(),
                    )
                    .map_err(|e| TypecheckError::Selector(e.to_string()))?
                } else {
                    instance.transducer.clone()
                };
                delrelab::require_delrelab(&transducer)?;
                let sigma = delrelab::joint_sigma(ain, aout, instance.alphabet_size());
                let bout = span(tracer, Layer::DelrelabBout, || {
                    self.cache.delrelab_bout(aout, sigma)
                })?;
                delrelab::typecheck_delrelab_with_bout(ain, &bout, &transducer, sigma)
            });
        }
        let compile = |schema: &Schema| -> Schema {
            match schema {
                Schema::Dtd(d) => span(tracer, Layer::CompileDtd, || {
                    Schema::Dtd((*self.cache.compile_dtd(d)).clone())
                }),
                Schema::Nta(n) => Schema::Nta(n.clone()),
            }
        };
        let input = compile(&instance.input);
        let output = compile(&instance.output);
        span(tracer, Layer::Lemma14Typecheck, || {
            let prepared = Instance {
                alphabet: instance.alphabet.clone(),
                input,
                output,
                transducer: instance.transducer.clone(),
            };
            typecheck_core::typecheck(&prepared)
        })
    }

    /// `Session::update` and `update_status`.
    fn update(
        &mut self,
        session: &mut ReplaySession,
        id: &Json,
        handle: &str,
        edit: &Edit,
    ) -> String {
        let tracer = self.t();
        let reject = |code: &'static str, message: String| {
            span(tracer, Layer::Respond, || {
                proto::error_frame(&Reject {
                    id: id.clone(),
                    code,
                    message,
                })
            })
        };
        self.updates.edits += 1;
        let Some(old) = session.handles.get(handle).map(Arc::clone) else {
            return reject(
                code::UNKNOWN_HANDLE,
                format!("handle `{handle}` was not registered on this connection"),
            );
        };
        let edited = match span(tracer, Layer::ApplyEdit, || apply_edit(&old.instance, edit)) {
            Ok(edited) => edited,
            Err(message) => return reject(code::BAD_REQUEST, format!("bad edit: {message}")),
        };
        let printed = match span(tracer, Layer::PrintInstance, || print_instance(&edited)) {
            Ok(printed) => printed,
            Err(e) => {
                return reject(
                    code::BAD_REQUEST,
                    format!("bad edit: edited instance does not print: {e}"),
                )
            }
        };
        let new = match self.register(&printed) {
            Ok(prepared) => prepared,
            Err(e) => {
                return reject(
                    code::INVALID_INSTANCE,
                    format!("edited instance does not parse: {e}"),
                )
            }
        };
        let (fp_old, fp_new, reused) = span(tracer, Layer::FingerprintComponents, || {
            let fp_old = ComponentFingerprints::of(&old.instance);
            let fp_new = ComponentFingerprints::of(&new.instance);
            let reused = fp_new.shared_with(&fp_old) as u64;
            (fp_old, fp_new, reused)
        });
        let status = self.update_status(&old, &new, &fp_old, &fp_new);
        session.handles.insert(new.handle.clone(), Arc::clone(&new));
        span(tracer, Layer::Respond, || {
            let b = ResponseBuilder::new(id, true).str_field("handle", &new.handle);
            let b = match &status {
                ItemStatus::TypeChecks => b.str_field("status", "typechecks"),
                ItemStatus::CounterExample { input, output } => {
                    let b = b
                        .str_field("status", "counterexample")
                        .str_field("input", input);
                    match output {
                        Some(o) => b.str_field("output", o),
                        None => b.null_field("output"),
                    }
                }
                ItemStatus::Error { message } => {
                    b.str_field("status", "error").str_field("message", message)
                }
            };
            b.num_field("components_reused", reused).finish()
        })
    }

    fn update_status(
        &mut self,
        old: &Prepared,
        new: &Prepared,
        fp_old: &ComponentFingerprints,
        fp_new: &ComponentFingerprints,
    ) -> ItemStatus {
        let tracer = self.t();
        let schemas_unchanged = fp_old.alphabet == fp_new.alphabet
            && fp_old.input == fp_new.input
            && fp_old.output == fp_new.output;
        if schemas_unchanged {
            let taken = old
                .engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            if let Some(mut engine) = taken {
                let updated = span(tracer, Layer::IncrementalUpdate, || {
                    engine.update(&new.instance.transducer)
                });
                if let Ok((outcome, reuse)) = updated {
                    self.updates.incremental += 1;
                    self.updates.dirty_symbols += reuse.dirty_symbols as u64;
                    self.updates.retained_walks += reuse.retained_walks as u64;
                    let type_checks = outcome.type_checks();
                    *new.engine
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(engine);
                    if type_checks {
                        let fp = span(tracer, Layer::FingerprintInstance, || {
                            fingerprint_instance(&new.instance)
                        });
                        span(tracer, Layer::MemoInsert, || {
                            self.cache
                                .memo_insert(fp, &new.instance, &ItemStatus::TypeChecks)
                        });
                        return ItemStatus::TypeChecks;
                    }
                    return self.check(&new.instance);
                }
            }
        }
        self.updates.fallbacks += 1;
        let status = self.check(&new.instance);
        if RetainedEngine::applicable(&new.instance) {
            let mut slot = new
                .engine
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if slot.is_none() {
                let (engine, _status) = span(tracer, Layer::IncrementalBuild, || {
                    RetainedEngine::build(&self.cache, &new.instance)
                });
                *slot = engine;
            }
        }
        status
    }
}

/// `status_reply` of `session.rs`.
fn status_reply(id: &Json, status: &ItemStatus) -> String {
    match status {
        ItemStatus::TypeChecks => ResponseBuilder::new(id, true)
            .str_field("status", "typechecks")
            .finish(),
        ItemStatus::CounterExample { input, output } => {
            let b = ResponseBuilder::new(id, true)
                .str_field("status", "counterexample")
                .str_field("input", input);
            match output {
                Some(o) => b.str_field("output", o),
                None => b.null_field("output"),
            }
            .finish()
        }
        ItemStatus::Error { message } => ResponseBuilder::new(id, true)
            .str_field("status", "error")
            .str_field("message", message)
            .finish(),
    }
}

/// Replays `frames` (connection index, frame) in send order over one
/// replayed daemon; returns each reply keyed by the frame's position.
pub fn replay_all(
    replay: &mut Replay<'_>,
    conns: usize,
    frames: &[(usize, Arc<str>)],
) -> Vec<String> {
    let mut sessions: Vec<ReplaySession> = (0..conns).map(|_| ReplaySession::new()).collect();
    let mut out = Vec::with_capacity(frames.len());
    for (conn, frame) in frames {
        out.push(replay.handle_frame(&mut sessions[*conn], frame));
    }
    out
}
