//! Where a connection runs: the depth-1 loop (v1, and v2 at
//! `pipeline: 1`) never leaves the connection thread, so it spawns no
//! worker or writer; a deeper v2 pipeline moves the loop to a reader
//! thread beside the worker pool.

use std::io::{BufRead, Cursor, Read};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use xmlta_server::{proto, serve_stream, Session, SessionEnd, Shared};

/// A frame source that records the thread of every read.
struct Recorder {
    inner: Cursor<Vec<u8>>,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl Recorder {
    fn note(&self) {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
    }
}

impl Read for Recorder {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.note();
        self.inner.read(buf)
    }
}

impl BufRead for Recorder {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.note();
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// Serves `hello` + a typecheck job + a ping; returns the reply ids in
/// arrival order and the threads that read frames.
fn serve(hello: &str) -> (Vec<String>, Vec<ThreadId>) {
    let script = format!(
        "{hello}\n{}\n{}\n",
        proto::req_typecheck_source(1, "not an instance"),
        proto::req_ping(2)
    );
    let threads = Arc::new(Mutex::new(Vec::new()));
    let reader = Recorder {
        inner: Cursor::new(script.into_bytes()),
        threads: Arc::clone(&threads),
    };
    let mut out = Vec::new();
    let mut session = Session::new(Shared::new());
    let end = serve_stream(&mut session, reader, &mut out, 1 << 20).unwrap();
    assert_eq!(end, SessionEnd::Eof);
    let ids = String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| l.split(',').next().unwrap().to_string())
        .collect();
    let threads = threads.lock().unwrap().clone();
    (ids, threads)
}

#[test]
fn depth_one_serves_inline_on_the_connection_thread() {
    let me = std::thread::current().id();
    for hello in [proto::req_hello(0), proto::req_hello_v2(0, 2, Some(1))] {
        let (ids, threads) = serve(&hello);
        assert_eq!(
            ids,
            ["{\"id\":0", "{\"id\":1", "{\"id\":2"],
            "{hello}: replies in request order"
        );
        assert!(
            threads.iter().all(|t| *t == me),
            "{hello}: a frame was read off the connection thread"
        );
    }
}

#[test]
fn deeper_pipelines_read_on_a_reader_thread() {
    let me = std::thread::current().id();
    let (ids, threads) = serve(&proto::req_hello_v2(0, 2, Some(4)));
    assert_eq!(ids.len(), 3);
    assert_eq!(threads[0], me, "the hello is read inline");
    assert!(
        threads.iter().any(|t| *t != me),
        "the pool's reader thread never read a frame"
    );
}
