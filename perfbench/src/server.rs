//! Serving processes: spawning `xmltad` or a `xmlta router` fleet in the
//! run's own directory, reading their CPU time and peak RSS from `/proc`,
//! and stopping them on every exit path.

use crate::client::Conn;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the binaries live and where this run may write.
#[derive(Clone)]
pub struct Env {
    pub bin_dir: PathBuf,
    pub run_dir: PathBuf,
}

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`: the
/// kernel's fixed `USER_HZ`, 100 on every Linux architecture it supports.
const USER_HZ: u64 = 100;

/// A running daemon or router fleet. Dropping it kills every process it
/// started and waits for each, so a panic or early return never leaves an
/// orphan or a socket file behind.
pub struct Server {
    child: Option<Child>,
    /// Every serving process: the spawned child plus, for a router, the
    /// shard daemons it spawned.
    pids: Vec<u32>,
    socket: PathBuf,
    dir: PathBuf,
}

static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl Server {
    /// Spawns `xmltad` (or, with `shards`, `xmlta router`) in a fresh
    /// subdirectory of the run directory and waits until it accepts.
    pub fn spawn(env: &Env, shards: Option<usize>) -> std::io::Result<Server> {
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = env.run_dir.join(format!("s{n}"));
        std::fs::create_dir_all(&dir)?;
        let socket = dir.join("d.sock");
        let mut cmd = match shards {
            None => Command::new(env.bin_dir.join("xmltad")),
            Some(k) => {
                let mut c = Command::new(env.bin_dir.join("xmlta"));
                c.arg("router")
                    .arg("--shards")
                    .arg(k.to_string())
                    .arg("--runtime-dir")
                    .arg(dir.join("fleet"))
                    .arg("--quiet-shards");
                c
            }
        };
        cmd.arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        let child = cmd.spawn()?;
        let pid = child.id();
        record_pid(env, pid);
        let mut server = Server {
            child: Some(child),
            pids: vec![pid],
            socket,
            dir,
        };
        server.await_socket(Duration::from_secs(30))?;
        if let Some(k) = shards {
            // The router binds its socket before it spawns the fleet:
            // wait until every shard process exists. A /proc scan is
            // costly, so poll it gently while the router boots.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut found = children_of(pid);
            while found.len() < k && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
                found = children_of(pid);
            }
            for shard in found {
                record_pid(env, shard);
                server.pids.push(shard);
            }
        }
        Ok(server)
    }

    fn await_socket(&mut self, patience: Duration) -> std::io::Result<()> {
        let deadline = Instant::now() + patience;
        loop {
            if std::os::unix::net::UnixStream::connect(&self.socket).is_ok() {
                return Ok(());
            }
            if let Some(child) = self.child.as_mut() {
                if let Some(status) = child.try_wait()? {
                    return Err(std::io::Error::other(format!(
                        "server exited before accepting: {status}"
                    )));
                }
            }
            if Instant::now() >= deadline {
                return Err(std::io::Error::other("server never accepted"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::connect(&self.socket)
    }

    /// utime + stime of every serving process, in microseconds.
    pub fn cpu_us(&self) -> u64 {
        self.pids
            .iter()
            .map(|&pid| proc_cpu_ticks(pid) * 1_000_000 / USER_HZ)
            .sum()
    }

    /// Summed peak resident set (VmHWM) of every serving process, in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        self.pids.iter().map(|&pid| proc_hwm_kb(pid)).sum::<u64>() as f64 / 1024.0
    }

    /// Asks the server to shut down over `conn` and waits for every
    /// process to exit; stragglers are killed.
    pub fn shutdown(mut self, conn: Option<&mut Conn>) {
        if let Some(conn) = conn {
            let _ = conn.roundtrip(&xmlta_server::proto::req_shutdown(u64::MAX));
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        if let Some(child) = self.child.as_mut() {
            while Instant::now() < deadline {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                }
            }
        }
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        // Shards are the router's children, not ours: signal them by pid,
        // then wait for each to disappear.
        for &pid in self.pids.iter().skip(1) {
            if is_alive(pid) {
                let _ = Command::new("kill")
                    .arg("-KILL")
                    .arg(pid.to_string())
                    .stderr(Stdio::null())
                    .status();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for &pid in self.pids.iter().skip(1) {
            while is_alive(pid) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Appends `pid` to the run's pid file, so the wrapper can reap it even if
/// this process dies without unwinding.
fn record_pid(env: &Env, pid: u32) {
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(env.run_dir.join("pids"))
    {
        let _ = writeln!(f, "{pid}");
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// A live (not zombie) process.
fn is_alive(pid: u32) -> bool {
    stat_fields(pid).is_some_and(|f| f.first().is_some_and(|s| s != "Z"))
}

fn proc_cpu_ticks(pid: u32) -> u64 {
    // Fields 14 and 15 of stat (utime, stime); index 0 here is field 3.
    stat_fields(pid)
        .map(|f| {
            let at = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            at(11) + at(12)
        })
        .unwrap_or(0)
}

fn proc_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Live processes whose parent is `parent`.
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            stat_fields(pid).is_some_and(|f| {
                f.get(1).and_then(|p| p.parse::<u32>().ok()) == Some(parent)
                    && f.first().is_some_and(|s| s != "Z")
            })
        })
        .collect();
    out.sort_unstable();
    out
}
