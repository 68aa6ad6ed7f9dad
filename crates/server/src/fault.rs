//! A seeded, deterministic fault-injection proxy for chaos testing.
//!
//! [`FaultProxy`] sits between a client and the real server as a
//! pair-of-sockets shuttle: it listens on a Unix socket, connects
//! upstream per accepted connection, and forwards bytes both ways —
//! except where the connection's [`ConnPlan`] says to misbehave. Faults
//! are scripted *by byte offset*, so a [`Schedule`] derived from a seed
//! produces the same torn frames, truncations, stalls, and disconnects
//! every run:
//!
//! * [`Fault::Cut`] — forward exactly `after` bytes in that direction,
//!   then hard-close both sides. An offset landing mid-frame produces a
//!   torn frame (the server answers it with a `malformed-frame` error, a
//!   client sees a clean EOF or reset) — byte truncation and scripted
//!   disconnect in one primitive.
//! * [`Fault::Stall`] — forward `after` bytes, then go silent for `dur`
//!   before resuming. Sized past the server's read timeout, this
//!   exercises the idle-connection reaper; sized past the client's, the
//!   reconnect path.
//! * [`Fault::Chunk`] — deliver everything, but in writes of at most
//!   `size` bytes. Partial writes must reassemble into identical frames;
//!   any buffering bug upstream or down shows up as a verdict diff.
//!
//! A schedule faults only the first [`Schedule::faulted_conns`]
//! connections and passes every later one through clean, so a
//! reconnecting client is guaranteed eventual progress — the chaos suite
//! asserts *completion*, not just survival.

use crate::client::ServerAddr;
use crate::net::Stream;
use crate::router::{signal, Router};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One scripted misbehaviour in one direction of one connection.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Forward `after` bytes, then hard-close both sides of the pair.
    Cut {
        /// Bytes forwarded before the close.
        after: usize,
    },
    /// Forward `after` bytes, then pause for `dur` before resuming.
    Stall {
        /// Bytes forwarded before the pause.
        after: usize,
        /// Length of the pause.
        dur: Duration,
    },
    /// Forward everything, in writes of at most `size` bytes.
    Chunk {
        /// Maximum bytes per write.
        size: usize,
    },
}

/// The faults for one proxied connection, per direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnPlan {
    /// Applied to client→server bytes.
    pub to_server: Option<Fault>,
    /// Applied to server→client bytes.
    pub to_client: Option<Fault>,
}

/// A deterministic fault schedule: connection `n` gets `plans[n]`, and
/// connections past the end are passed through clean.
#[derive(Debug, Clone)]
pub struct Schedule {
    plans: Vec<ConnPlan>,
}

impl Schedule {
    /// A schedule with explicit per-connection plans.
    pub fn new(plans: Vec<ConnPlan>) -> Schedule {
        Schedule { plans }
    }

    /// Derives a schedule from `seed`: the first `faulted_conns`
    /// connections each draw a fault (type, direction, byte offset) from
    /// a SplitMix64 stream. `stall` sizes every [`Fault::Stall`] — pick
    /// it relative to the timeouts under test. Same seed, same schedule.
    pub fn from_seed(seed: u64, faulted_conns: usize, stall: Duration) -> Schedule {
        let mut rng = seed ^ 0x5851_f42d_4c95_7f2d;
        let mut draw = move || crate::client::splitmix64(&mut rng);
        let plans = (0..faulted_conns)
            .map(|_| {
                // Offsets up to ~600 bytes land both mid-frame (torn
                // frames) and on frame boundaries for typical requests.
                let fault = match draw() % 4 {
                    0 => Fault::Cut {
                        after: (draw() % 600) as usize,
                    },
                    1 => Fault::Stall {
                        after: (draw() % 300) as usize,
                        dur: stall,
                    },
                    2 => Fault::Chunk {
                        size: 1 + (draw() % 7) as usize,
                    },
                    _ => Fault::Cut {
                        // A late cut: lets a few exchanges complete first,
                        // so replay happens with partial progress.
                        after: 200 + (draw() % 2_000) as usize,
                    },
                };
                if draw() % 2 == 0 {
                    ConnPlan {
                        to_server: Some(fault),
                        to_client: None,
                    }
                } else {
                    ConnPlan {
                        to_server: None,
                        to_client: Some(fault),
                    }
                }
            })
            .collect();
        Schedule { plans }
    }

    /// How many leading connections carry a fault.
    pub fn faulted_conns(&self) -> usize {
        self.plans.len()
    }

    fn plan(&self, conn: usize) -> ConnPlan {
        self.plans.get(conn).copied().unwrap_or_default()
    }
}

/// A running fault proxy; [`FaultProxy::stop`] tears it down.
pub struct FaultProxy {
    listen: PathBuf,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl FaultProxy {
    /// Listens on `listen` (a fresh Unix socket path) and proxies every
    /// connection to `upstream` under `schedule`.
    pub fn spawn(
        listen: &Path,
        upstream: ServerAddr,
        schedule: Schedule,
    ) -> std::io::Result<FaultProxy> {
        let listener = UnixListener::bind(listen)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, upstream, schedule, stop))
        };
        Ok(FaultProxy {
            listen: listen.to_path_buf(),
            stop,
            accept: Some(accept),
        })
    }

    /// Stops accepting, closes every proxied connection, and joins the
    /// shuttle threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = UnixStream::connect(&self.listen); // wake the accept loop
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.listen);
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(
    listener: UnixListener,
    upstream: ServerAddr,
    schedule: Schedule,
    stop: Arc<AtomicBool>,
) {
    // Clones of both sides of every live pair, so teardown can cut them
    // out from under blocked shuttles.
    let live: Arc<Mutex<Vec<Stream>>> = Arc::new(Mutex::new(Vec::new()));
    let mut shuttles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn = 0usize;
    loop {
        let Ok((down, _)) = listener.accept() else {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let down = Stream::Unix(down);
        let Ok(up) = upstream.connect() else {
            down.shutdown_both();
            continue;
        };
        let plan = schedule.plan(conn);
        conn += 1;
        let Ok(pair) = clone_pair(&down, &up) else {
            down.shutdown_both();
            up.shutdown_both();
            continue;
        };
        if let Ok(mut guard) = live.lock() {
            let Ok(extra) = clone_pair(&down, &up) else {
                down.shutdown_both();
                up.shutdown_both();
                continue;
            };
            guard.push(extra.0);
            guard.push(extra.1);
        }
        let (down_clone, up_clone) = pair;
        shuttles.push(std::thread::spawn(move || {
            shuttle(down, up_clone, plan.to_server)
        }));
        shuttles.push(std::thread::spawn(move || {
            shuttle(up, down_clone, plan.to_client)
        }));
    }
    for stream in live
        .lock()
        .map(|mut g| std::mem::take(&mut *g))
        .unwrap_or_default()
    {
        stream.shutdown_both();
    }
    for handle in shuttles {
        let _ = handle.join();
    }
}

fn clone_pair(down: &Stream, up: &Stream) -> std::io::Result<(Stream, Stream)> {
    Ok((down.try_clone()?, up.try_clone()?))
}

// ---------------------------------------------------------------------------
// Fleet chaos: process-level fault injection against a supervised
// shard fleet (the router's crash-chaos suite). Where [`Schedule`]
// scripts byte-level misbehaviour on one proxied connection,
// [`FleetSchedule`] scripts *process*-level events — SIGKILL a shard,
// SIGSTOP it past every timeout, corrupt an artifact in the shared
// store — at wall-clock offsets, so a seeded run kills the same shard
// at the same moment every time.

/// One scripted fleet-level fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// SIGKILL shard `shard` (the supervisor must respawn it).
    Kill {
        /// Which shard dies.
        shard: usize,
    },
    /// SIGSTOP shard `shard` for `dur`, then SIGCONT — the process is
    /// alive (the supervisor must *not* respawn it) but silent past
    /// every link timeout, so requests fail over and the breaker trips.
    Stall {
        /// Which shard freezes.
        shard: usize,
        /// How long it stays frozen.
        dur: Duration,
    },
    /// Flip one byte inside one `.xta` artifact in the shared store
    /// (deterministically picked from the sorted file list). Shards
    /// must detect the damage on read and recompile rather than serve
    /// a wrong verdict.
    CorruptStore,
}

/// A timed fleet fault: `event` fires `at` after [`unleash`] starts.
#[derive(Debug, Clone, Copy)]
pub struct TimedFleetEvent {
    /// Offset from chaos start.
    pub at: Duration,
    /// What happens.
    pub event: FleetEvent,
}

/// A deterministic fleet-fault schedule, sorted by firing time.
#[derive(Debug, Clone)]
pub struct FleetSchedule {
    events: Vec<TimedFleetEvent>,
}

impl FleetSchedule {
    /// A schedule with explicit events (sorted by `at` before use).
    pub fn new(mut events: Vec<TimedFleetEvent>) -> FleetSchedule {
        events.sort_by_key(|e| e.at);
        FleetSchedule { events }
    }

    /// Derives a schedule from `seed` over a fleet of `shards`. Every
    /// schedule opens with a SIGKILL of `first_kill` early (20–80 ms
    /// in — mid-batch for any workload that runs longer than that),
    /// then draws 2–4 more events (kill / stall / store corruption)
    /// across the next ~400 ms. `stall` sizes every freeze — pick it
    /// past the router's link read timeout so stalls actually fail
    /// over. Same seed, same chaos.
    pub fn from_seed(
        seed: u64,
        shards: usize,
        first_kill: usize,
        stall: Duration,
    ) -> FleetSchedule {
        assert!(shards > 0);
        let mut rng = seed ^ 0x9c6a_41f0_7de2_35b1;
        let mut draw = move || crate::client::splitmix64(&mut rng);
        let mut events = vec![TimedFleetEvent {
            at: Duration::from_millis(20 + draw() % 60),
            event: FleetEvent::Kill { shard: first_kill },
        }];
        for _ in 0..(2 + draw() % 3) {
            let at = Duration::from_millis(60 + draw() % 400);
            let event = match draw() % 4 {
                0 | 1 => FleetEvent::Kill {
                    shard: (draw() % shards as u64) as usize,
                },
                2 => FleetEvent::Stall {
                    shard: (draw() % shards as u64) as usize,
                    dur: stall,
                },
                _ => FleetEvent::CorruptStore,
            };
            events.push(TimedFleetEvent { at, event });
        }
        FleetSchedule::new(events)
    }

    /// The scripted events, in firing order.
    pub fn events(&self) -> &[TimedFleetEvent] {
        &self.events
    }

    /// Whether the schedule contains at least one kill (every seeded
    /// schedule does — the differential suite asserts it).
    pub fn kills(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.event, FleetEvent::Kill { .. }))
            .count()
    }
}

/// Releases `schedule` against `router`'s fleet on a background thread:
/// each event fires at its offset from now. `store` is the shared
/// artifact directory [`FleetEvent::CorruptStore`] mutates (corruption
/// events are skipped without it, or while the store has no artifacts
/// yet). Returns a handle yielding the shards that were SIGKILLed.
pub fn unleash(
    schedule: FleetSchedule,
    router: Arc<Router>,
    store: Option<PathBuf>,
    seed: u64,
) -> std::thread::JoinHandle<Vec<usize>> {
    std::thread::spawn(move || {
        let start = std::time::Instant::now();
        let mut killed = Vec::new();
        for timed in schedule.events() {
            if let Some(wait) = timed.at.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            match timed.event {
                FleetEvent::Kill { shard } => {
                    if router.kill_shard(shard) {
                        killed.push(shard);
                    }
                }
                FleetEvent::Stall { shard, dur } => {
                    if let Some(pid) = router.shard_pid(shard) {
                        signal(pid, "-STOP");
                        std::thread::sleep(dur);
                        signal(pid, "-CONT");
                    }
                }
                FleetEvent::CorruptStore => {
                    if let Some(dir) = &store {
                        corrupt_one_artifact(dir, seed);
                    }
                }
            }
        }
        killed
    })
}

/// Flips one byte in one `.xta` artifact under `dir` (recursive,
/// deterministic pick from the sorted path list). No-op while the
/// store is still empty.
fn corrupt_one_artifact(dir: &Path, seed: u64) {
    let mut artifacts = Vec::new();
    collect_artifacts(dir, &mut artifacts);
    artifacts.sort();
    if artifacts.is_empty() {
        return;
    }
    let mut rng = seed ^ 0x1357_9bdf_2468_ace0;
    let pick = (crate::client::splitmix64(&mut rng) % artifacts.len() as u64) as usize;
    let path = &artifacts[pick];
    let Ok(mut bytes) = std::fs::read(path) else {
        return;
    };
    if bytes.is_empty() {
        return;
    }
    // Past the magic, inside the payload for any real artifact.
    let at = 24.min(bytes.len() - 1);
    bytes[at] ^= 0xff;
    let _ = std::fs::write(path, bytes);
}

fn collect_artifacts(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_artifacts(&path, out);
        } else if path.extension().is_some_and(|e| e == "xta") {
            out.push(path);
        }
    }
}

/// Forwards bytes `from` → `to` under an optional fault, then closes both
/// sides (a one-direction EOF ends the whole proxied connection — real
/// peers treat half-closed protocol sockets as dead anyway).
fn shuttle(mut from: Stream, mut to: Stream, fault: Option<Fault>) {
    let mut buf = [0u8; 4096];
    let mut forwarded = 0usize; // bytes already passed through
    let mut stalled = false;
    'outer: loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk: &[u8] = &buf[..n];
        match fault {
            Some(Fault::Cut { after }) if forwarded + chunk.len() >= after => {
                let keep = after.saturating_sub(forwarded);
                let _ = to.write_all(&chunk[..keep]);
                let _ = to.flush();
                break;
            }
            Some(Fault::Stall { after, dur }) if !stalled && forwarded + chunk.len() > after => {
                // Deliver up to the offset, go dark, then resume.
                let keep = after.saturating_sub(forwarded);
                if to.write_all(&chunk[..keep]).is_err() || to.flush().is_err() {
                    break;
                }
                forwarded += keep;
                chunk = &chunk[keep..];
                std::thread::sleep(dur);
                stalled = true;
            }
            Some(Fault::Chunk { size }) => {
                let size = size.max(1);
                for piece in chunk.chunks(size) {
                    if to.write_all(piece).is_err() || to.flush().is_err() {
                        break 'outer;
                    }
                    forwarded += piece.len();
                }
                continue;
            }
            // No fault, or a scripted offset not yet reached: pass through.
            _ => {}
        }
        if to.write_all(chunk).is_err() || to.flush().is_err() {
            break;
        }
        forwarded += chunk.len();
    }
    from.shutdown_both();
    to.shutdown_both();
}
