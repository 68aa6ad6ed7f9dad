//! The persistent typechecking server.
//!
//! One-shot CLI runs pay parse + schema-compile on every invocation and
//! throw the work away on exit. This crate keeps a process alive instead:
//! the `xmltad` daemon serves a versioned, line-delimited JSON protocol
//! over a Unix socket (and stdin/stdout), with per-connection sessions
//! that `register` instances once — by content-derived handle — and then
//! stream `typecheck`/`batch` requests against them. All connections share
//! one [`xmlta_service::SchemaCache`] and one content-addressed registry
//! of prepared instances, so warm-compile wins persist across requests,
//! clients, and batches.
//!
//! * [`proto`] — frame grammar, request parsing, response rendering, and
//!   request constructors (the protocol reference lives in its docs);
//! * [`state`] — the process-wide shared cache + prepared-instance
//!   registry;
//! * [`session`] — per-connection handle tables, request dispatch with
//!   per-request panic isolation, and the one connection loop (inline at
//!   depth 1, a worker pool at negotiated depth ≥2);
//! * [`net`] — the one network layer (Unix and TCP listeners,
//!   thread-per-connection, read timeouts, overload shedding, graceful
//!   shutdown, leak-checked drain) shared by the daemon and the router,
//!   and the stdio mode;
//! * [`router`] — the shard-fleet router: consistent hashing,
//!   supervision, circuit breakers, and relay sessions served through
//!   [`net`];
//! * [`client`] — the reference client and the reconnecting, replaying
//!   [`ResilientClient`] (`xmlta client` is a thin wrapper);
//! * [`fault`] — a seeded, deterministic fault-injection proxy for chaos
//!   testing the serving path.
//!
//! Responses carry no timings or counters (except the explicit `stats`
//! op) and, at depth 1, arrive in request order, so a connection's
//! transcript is byte-identical no matter how many other clients are
//! hammering the same server — the property the integration tests pin.
//! At depth ≥2 the bytes per id are still fixed; only their order varies.

pub mod cli;
pub mod client;
pub mod fault;
pub mod net;
pub mod proto;
pub mod router;
pub mod session;
pub mod state;

pub use client::{Client, ResilientClient, RetryPolicy, ServerAddr};
pub use net::{serve_stdio, serve_unix, Bound, ServeError, ServerConfig};
pub use router::{Breaker, BreakerState, Ring, Router, RouterBound, RouterConfig};
pub use session::{serve_stream, Control, Session, SessionEnd};
pub use state::{Prepared, ServerCounters, Shared};
