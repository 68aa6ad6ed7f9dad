//! The load generator's side of the wire: a framed Unix-socket connection
//! and a closed loop, one frame in flight.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A framed protocol connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    line: String,
}

impl Conn {
    pub fn connect(path: &Path) -> std::io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    pub fn send(&mut self, frame: &str) -> std::io::Result<()> {
        // One write per frame: the frame and its newline together.
        let mut buf = Vec::with_capacity(frame.len() + 1);
        buf.extend_from_slice(frame.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    pub fn recv(&mut self) -> std::io::Result<String> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while self.line.ends_with('\n') || self.line.ends_with('\r') {
            self.line.pop();
        }
        Ok(std::mem::take(&mut self.line))
    }

    pub fn roundtrip(&mut self, frame: &str) -> std::io::Result<String> {
        self.send(frame)?;
        self.recv()
    }
}

/// The numeric id a reply echoes (`{"id":N,...`), if any.
pub fn reply_id(reply: &str) -> Option<u64> {
    let rest = reply.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// One request frame of a transcript.
pub struct Sent {
    pub conn: usize,
    pub id: u64,
    pub frame: Arc<str>,
    /// Send instant, relative to the phase start.
    pub sent_ns: u64,
    /// Send to complete reply; `None` when no reply arrived.
    pub latency_ns: Option<u64>,
    pub reply: Option<String>,
}

/// Drives one connection closed loop: each frame is sent when the reply
/// to the one before it has arrived. `next` yields the next `(id, frame)`,
/// or `None` to stop. Sending also stops at `deadline`. Returns the frames
/// with their replies in send order and whether the transport failed.
pub fn drive(
    conn: &mut Conn,
    conn_index: usize,
    epoch: Instant,
    deadline: Instant,
    mut next: impl FnMut() -> Option<(u64, Arc<str>)>,
) -> (Vec<Sent>, bool) {
    let mut sent: Vec<Sent> = Vec::new();
    while Instant::now() < deadline {
        let Some((id, frame)) = next() else {
            break;
        };
        let at = Instant::now();
        if conn.send(&frame).is_err() {
            return (sent, true);
        }
        let sent_ns = at.duration_since(epoch).as_nanos() as u64;
        let mut s = Sent {
            conn: conn_index,
            id,
            frame,
            sent_ns,
            latency_ns: None,
            reply: None,
        };
        match conn.recv() {
            Ok(reply) if reply_id(&reply) == Some(id) => {
                let done = Instant::now().duration_since(epoch).as_nanos() as u64;
                s.latency_ns = Some(done - sent_ns);
                s.reply = Some(reply);
                sent.push(s);
            }
            // A transport failure, or a reply to another id, is a protocol
            // failure: the frame counts as failed.
            _ => {
                sent.push(s);
                return (sent, true);
            }
        }
    }
    (sent, false)
}
