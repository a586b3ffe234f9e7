//! Transports: run an [`Engine`] over a byte stream.
//!
//! [`serve_stream`] speaks the framed protocol of [`crate::proto`] over
//! any `Read`/`Write` pair — the CLI uses it on stdin/stdout and, on
//! Unix, over accepted socket connections ([`serve_unix`]).
//!
//! Error handling at the transport layer follows the same creed as the
//! engine: a malformed frame (bad JSON, bad request shape, oversized
//! length) gets a typed `protocol` error response and the loop keeps
//! reading; only a truncated stream or a real I/O error ends the
//! connection.  Each reply goes out as one write of its whole frame.
//! A whole-request memo hit is answered on the connection's own thread
//! while it reads, and other replies as workers finish, so they may
//! arrive out of request order — clients match them by `id`.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::engine::Engine;
use crate::json::Json;
use crate::proto::{read_frame, ErrorKind, FrameError, Request, Response};

/// Why [`serve_stream`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEnd {
    /// The peer closed the stream (or it truncated mid-frame). The
    /// engine is still running; a socket server keeps accepting.
    Eof,
    /// The peer sent a `shutdown` request: the engine has drained, the
    /// final stats were flushed in the `bye` response, and the daemon
    /// should exit.
    Shutdown,
}

/// One connection's write side: the stream, and the engine's
/// `write_errors` counter.
struct Sink<W> {
    writer: Mutex<W>,
    write_errors: Arc<AtomicU64>,
}

fn send(sink: &Sink<impl Write>, response: &Response) {
    // Rendered before the lock is taken: threads answering on one
    // connection queue up for the write, not for each other's rendering.
    // Prefix and body go out in one write, so the peer is not woken by a
    // length whose body is not there yet.
    let frame = response.to_frame();
    let mut writer = sink.writer.lock().unwrap_or_else(PoisonError::into_inner);
    // A vanished peer must not take the daemon down: a failed write is
    // counted, and the read side notices the closed stream.
    let written = frame.and_then(|frame| {
        writer.write_all(&frame)?;
        writer.flush()
    });
    if written.is_err() {
        sink.write_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serve one framed connection until EOF or a `shutdown` request.
///
/// On `shutdown` the engine drains (in-flight requests finish and their
/// responses are written) before the final `bye` frame — which carries
/// the flushed stats snapshot — goes out.
pub fn serve_stream(
    engine: &Engine,
    mut reader: impl Read,
    writer: impl Write + Send + 'static,
    max_frame: usize,
) -> io::Result<StreamEnd> {
    let sink = Arc::new(Sink {
        writer: Mutex::new(writer),
        write_errors: engine.write_errors(),
    });
    loop {
        let body = match read_frame(&mut reader, max_frame) {
            Ok(Some(body)) => body,
            Ok(None) => return Ok(StreamEnd::Eof),
            Err(FrameError::Oversized { len, max }) => {
                engine.note_protocol_error();
                send(
                    &sink,
                    &Response::Error {
                        id: None,
                        kind: ErrorKind::Protocol,
                        message: format!("oversized frame: {len} bytes exceeds limit {max}"),
                    },
                );
                continue; // the body was drained; the stream is aligned
            }
            Err(FrameError::Truncated) => {
                engine.note_protocol_error();
                send(
                    &sink,
                    &Response::Error {
                        id: None,
                        kind: ErrorKind::Protocol,
                        message: "truncated frame".to_string(),
                    },
                );
                return Ok(StreamEnd::Eof);
            }
            Err(FrameError::Io(err)) => return Err(err),
        };
        let request = std::str::from_utf8(&body)
            .map_err(|e| format!("frame is not UTF-8: {e}"))
            .and_then(|text| Json::parse(text).map_err(|e| format!("invalid JSON: {e}")))
            .and_then(|json| Request::from_json(&json));
        let request = match request {
            Ok(request) => request,
            Err(message) => {
                engine.note_protocol_error();
                send(
                    &sink,
                    &Response::Error {
                        id: None,
                        kind: ErrorKind::Protocol,
                        message,
                    },
                );
                continue;
            }
        };
        match request {
            Request::Ping { id } => send(&sink, &Response::Pong { id }),
            Request::Stats { id } => send(
                &sink,
                &Response::Stats {
                    id,
                    body: engine.stats_json(),
                },
            ),
            Request::Shutdown { id } => {
                let stats = engine.shutdown();
                send(&sink, &Response::Bye { id, stats });
                return Ok(StreamEnd::Shutdown);
            }
            Request::Compile(req) => {
                let sink = Arc::clone(&sink);
                engine.submit(req, Box::new(move |response| send(&sink, &response)));
            }
        }
    }
}

/// Serve connections from a Unix socket listener concurrently — one
/// handler thread per accepted connection, all sharing the single
/// [`Engine`] (and with it the worker pool and the warm compile cache) —
/// until a client sends `shutdown`. Peer disconnects (EOF) keep the
/// daemon alive for the next connection.
///
/// Handler threads are detached rather than joined: a lingering idle
/// client must not pin the daemon after another client has shut it down.
/// The engine's own `shutdown` drains in-flight work before the `bye`
/// response goes out, so detaching loses nothing — any still-connected
/// peers simply observe EOF when the process exits. The shutdown signal
/// reaches the acceptor through a flag plus a self-connection (the
/// acceptor is otherwise parked in `accept`, which has no timeout on a
/// blocking listener).
#[cfg(unix)]
pub fn serve_unix(
    engine: &Arc<Engine>,
    listener: &std::os::unix::net::UnixListener,
    max_frame: usize,
) -> io::Result<()> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let shutdown = Arc::new(AtomicBool::new(false));
    let wake_path = listener
        .local_addr()
        .ok()
        .and_then(|addr| addr.as_pathname().map(std::path::Path::to_path_buf));
    loop {
        let (stream, _addr) = listener.accept()?;
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let reader = stream.try_clone()?;
        let engine = Arc::clone(engine);
        let shutdown = Arc::clone(&shutdown);
        let wake_path = wake_path.clone();
        std::thread::spawn(move || {
            if let Ok(StreamEnd::Shutdown) = serve_stream(&engine, reader, stream, max_frame) {
                shutdown.store(true, Ordering::SeqCst);
                // Unblock the acceptor; the queued wake connection makes
                // its `accept` return so it can observe the flag.
                if let Some(path) = wake_path {
                    let _ = std::os::unix::net::UnixStream::connect(path);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::write_frame;
    use crate::ServeConfig;

    /// A peer that has gone away: every write fails.
    struct Vanished;

    impl Write for Vanished {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every reply the transport could not write — a direct one, a
    /// worker's, and the final `bye` — is counted in `write_errors`, and a
    /// failed `bye` still ends the stream as a shutdown.
    #[test]
    fn failed_writes_are_counted_in_the_stats() {
        let engine = Engine::new(ServeConfig::default());
        let mut input = Vec::new();
        for body in [
            r#"{"op":"ping","id":1}"#,
            r#"{"op":"stats","id":2}"#,
            r#"{"op":"compile","id":3,"ir":"fn @f() -> void {\nentry:\n  ret\n}\n"}"#,
            r#"{"op":"shutdown","id":4}"#,
        ] {
            write_frame(&mut input, body.as_bytes()).unwrap();
        }
        let end = serve_stream(&engine, input.as_slice(), Vanished, 1 << 20).unwrap();
        assert_eq!(end, StreamEnd::Shutdown);
        let stats = engine.stats_json();
        assert_eq!(stats.get("write_errors").and_then(Json::as_u64), Some(4));
    }

    /// A peer that counts the writes it is handed, keeps their bytes and
    /// signals each one.
    #[derive(Clone)]
    struct Counted {
        writes: Arc<AtomicU64>,
        bytes: Arc<Mutex<Vec<u8>>>,
        wrote: std::sync::mpsc::Sender<()>,
    }

    impl Write for Counted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.fetch_add(1, Ordering::SeqCst);
            self.bytes.lock().unwrap().extend_from_slice(buf);
            let _ = self.wrote.send(());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every reply — a pong, a cold compile's, a memo hit's and a
    /// malformed frame's protocol error — is one write of a whole frame.
    #[test]
    fn every_reply_is_one_write() {
        let engine = Engine::new(ServeConfig::default());
        let compile = r#"{"op":"compile","id":2,"ir":"fn @f() -> void {\nentry:\n  ret\n}\n"}"#;
        let frames = |bodies: &[&str]| {
            let mut input = Vec::new();
            for body in bodies {
                write_frame(&mut input, body.as_bytes()).unwrap();
            }
            input
        };
        let (wrote, written) = std::sync::mpsc::channel();
        let peer = Counted {
            writes: Arc::default(),
            bytes: Arc::default(),
            wrote,
        };
        let cold = frames(&[r#"{"op":"ping","id":1}"#, compile]);
        serve_stream(&engine, cold.as_slice(), peer.clone(), 1 << 20).unwrap();
        // The cold reply comes from the worker; the warm one must find
        // its memo entry.
        for _ in 0..2 {
            written
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("the pong and the cold reply");
        }
        let warm = frames(&[compile, "{not json", r#"{"op":"fly","id":3}"#]);
        serve_stream(&engine, warm.as_slice(), peer.clone(), 1 << 20).unwrap();
        engine.shutdown();
        assert_eq!(engine.fast_hits(), 1);
        let bytes = peer.bytes.lock().unwrap().clone();
        let mut replies = bytes.as_slice();
        let mut statuses = Vec::new();
        while let Some(body) = read_frame(&mut replies, 1 << 20).unwrap() {
            let json = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            statuses.push(
                json.get("status")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string(),
            );
        }
        assert_eq!(statuses, ["pong", "ok", "ok", "error", "error"]);
        assert_eq!(peer.writes.load(Ordering::SeqCst), 5);
    }
}
