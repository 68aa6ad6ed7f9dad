//! Frame-level errors through the router match a direct daemon's.
//!
//! A 1-shard router and a direct daemon run side by side with the same
//! frame cap. Each gets the same raw byte scripts — an oversized frame, a
//! non-UTF-8 frame, blank lines before a `ping` — and the bytes each sends
//! back before closing the connection must be identical.

mod support;

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use xmlta_server::router::{Router, RouterBound, RouterConfig};
use xmlta_server::{proto, Bound, Client, ServerConfig, Shared};

const MAX_FRAME: usize = 4096;

/// Plays `script` on a fresh connection, half-closes, and returns every
/// byte the server sent until it closed the connection.
fn transcript(sock: &Path, script: &[u8]) -> Vec<u8> {
    let mut stream = UnixStream::connect(sock).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("arm read timeout");
    stream.write_all(script).expect("write script");
    // The server may already have closed (an oversized frame does that).
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read until close");
    out
}

fn scripts() -> Vec<(&'static str, Vec<u8>)> {
    let mut oversized = vec![b'x'; MAX_FRAME + 100];
    oversized.push(b'\n');
    oversized.extend_from_slice(proto::req_ping(1).as_bytes());
    oversized.push(b'\n');
    let mut bad_utf8 = b"{\"id\":1,\"op\":\"ping\xff\xfe\"}\n".to_vec();
    bad_utf8.extend_from_slice(proto::req_ping(2).as_bytes());
    bad_utf8.push(b'\n');
    let blanks = format!("\n   \n\r\n\t\n{}\n", proto::req_ping(3)).into_bytes();
    vec![
        ("oversized", oversized),
        ("non-utf8", bad_utf8),
        ("blank lines", blanks),
    ]
}

#[test]
fn router_frame_errors_match_the_daemon() {
    // The direct daemon.
    let daemon_sock = support::unique_path("frames-daemon");
    let bound = Bound::bind(Some(&daemon_sock), None).expect("bind daemon");
    let config = ServerConfig {
        max_frame: MAX_FRAME,
        ..ServerConfig::default()
    };
    let daemon = std::thread::spawn(move || bound.serve(Shared::new(), config));

    // The 1-shard router with the same frame cap.
    let runtime = support::unique_dir("frames-rt");
    let router = Router::spawn(RouterConfig {
        shards: 1,
        shard_command: Some(vec![env!("CARGO_BIN_EXE_xmltad").to_string()]),
        runtime_dir: Some(runtime.clone()),
        max_frame: MAX_FRAME,
        quiet: true,
        ..RouterConfig::default()
    })
    .expect("fleet boots");
    let front = support::unique_path("frames-front");
    let bound = RouterBound::bind(Some(&front), None).expect("bind router front");
    let serve = std::thread::spawn({
        let router = Arc::clone(&router);
        move || bound.serve(router)
    });

    for (name, script) in scripts() {
        let want = transcript(&daemon_sock, &script);
        assert!(
            !want.is_empty(),
            "{name}: the daemon answered nothing at all"
        );
        let got = transcript(&front, &script);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "{name}: the router's reply bytes differ from the daemon's"
        );
    }

    for sock in [&daemon_sock, &front] {
        Client::connect(sock)
            .expect("admin connect")
            .roundtrip(&proto::req_shutdown(99))
            .expect("shutdown");
    }
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon drains cleanly");
    serve
        .join()
        .expect("router thread")
        .expect("router drains cleanly");
    assert!(!front.exists(), "router socket file leaked");
    let _ = std::fs::remove_dir_all(&runtime);
}
