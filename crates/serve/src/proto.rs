//! Wire protocol for `darm serve`.
//!
//! Every message — in both directions — is a *frame*: a 4-byte
//! big-endian `u32` byte length followed by exactly that many bytes of
//! UTF-8 JSON.  Framing keeps the stream self-synchronising: a reader
//! always knows how many bytes belong to the current message, and an
//! oversized length can be skipped without losing frame alignment.
//!
//! Requests are JSON objects with an `"op"` discriminator:
//!
//! ```text
//! {"op":"compile","id":1,"ir":"fn f() { ... }","spec":"meld",
//!  "timeout_ms":2000,"fuel":1000000}
//! {"op":"ping","id":2}
//! {"op":"stats","id":3}
//! {"op":"shutdown","id":4}
//! ```
//!
//! Only `op` and `id` are mandatory (`ir` too, for `compile`); the
//! remaining fields fall back to the daemon's configured defaults.
//! `timeout_ms` and `fuel` bound the whole request once: its cache misses
//! are compiled in one attempt under one budget.
//! Responses echo the request `id` and carry a `"status"`
//! discriminator: `ok`, `error`, `overloaded`, `pong`, `stats` or
//! `bye`.  See [`Response`] for the exact payloads.

use std::fmt::{self, Write as _};
use std::io::{self, Read, Write};
use std::sync::Arc;

use crate::json::{write_escaped, Json};

/// Hard ceiling on the frame length a reader will accept by default:
/// 16 MiB, far above any realistic module while still bounding memory.
pub const DEFAULT_MAX_FRAME: usize = 16 * 1024 * 1024;

/// Errors surfaced by [`read_frame`].
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended in the middle of a length prefix or body.
    Truncated,
    /// The declared length exceeds the reader's limit.  The body has
    /// already been consumed and discarded, so the stream remains
    /// aligned on the next frame.
    Oversized { len: usize, max: usize },
    /// An underlying I/O error other than clean end-of-stream.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds limit {max}")
            }
            FrameError::Io(err) => write!(f, "i/o error: {err}"),
        }
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    let len = u32::try_from(body.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body exceeds u32"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary).  EOF inside a prefix or body is [`FrameError::Truncated`];
/// a length above `max` drains the body and reports
/// [`FrameError::Oversized`] so the caller can answer with a typed
/// error and keep reading.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => filled += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max {
        // Drain and discard the oversized body so the next frame stays
        // aligned; truncation while draining is still truncation.
        let mut remaining = len as u64;
        while remaining > 0 {
            let take = remaining.min(64 * 1024);
            let copied =
                io::copy(&mut r.by_ref().take(take), &mut io::sink()).map_err(FrameError::Io)?;
            if copied == 0 {
                return Err(FrameError::Truncated);
            }
            remaining -= copied;
        }
        return Err(FrameError::Oversized { len, max });
    }
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(FrameError::Io(err)),
        }
    }
    Ok(Some(body))
}

/// A compile job: one module of textual IR plus per-request overrides.
#[derive(Debug, Clone)]
pub struct CompileRequest {
    pub id: u64,
    pub ir: String,
    /// Pass spec; `None` falls back to the daemon default (`meld`).
    pub spec: Option<String>,
    /// Wall-clock budget override in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Fuel budget override (number of budget polls).
    pub fuel: Option<u64>,
}

/// A decoded client request.
#[derive(Debug, Clone)]
pub enum Request {
    Compile(CompileRequest),
    Ping { id: u64 },
    Stats { id: u64 },
    Shutdown { id: u64 },
}

impl Request {
    /// Decode a request from parsed JSON.  The error string is safe to
    /// echo back to the client in a `protocol` error response.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string field \"op\"".to_string())?;
        let id = json
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| "missing integer field \"id\"".to_string())?;
        match op {
            "compile" => {
                let ir = json
                    .get("ir")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "compile request missing string field \"ir\"".to_string())?
                    .to_string();
                let spec = json.get("spec").and_then(Json::as_str).map(str::to_string);
                let timeout_ms = json.get("timeout_ms").and_then(Json::as_u64);
                let fuel = json.get("fuel").and_then(Json::as_u64);
                Ok(Request::Compile(CompileRequest {
                    id,
                    ir,
                    spec,
                    timeout_ms,
                    fuel,
                }))
            }
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    pub fn id(&self) -> u64 {
        match self {
            Request::Compile(req) => req.id,
            Request::Ping { id } | Request::Stats { id } | Request::Shutdown { id } => *id,
        }
    }
}

/// Error categories carried on `status: "error"` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame or JSON, or a request that does not follow the
    /// protocol grammar.
    Protocol,
    /// The input IR failed to parse or verify.
    Parse,
    /// The pass spec was rejected (unknown pass, bad parameter, ...).
    Spec,
    /// A contained internal failure: a panic outside the pipeline's
    /// per-function containment boundary (inside it, a fault degrades the
    /// function and the request still answers `ok`).
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Parse => "parse",
            ErrorKind::Spec => "spec",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Per-function outcome attached to an `ok` response.
#[derive(Debug, Clone)]
pub struct FunctionResult {
    pub name: String,
    /// `true` when the pipeline finished; `false` when the function was
    /// degraded to its baseline IR.
    pub optimized: bool,
    /// `true` when this result was served from the cross-run cache.
    pub cached: bool,
    /// Human-readable diagnostic for degraded functions.
    pub diagnostic: Option<String>,
}

/// An `ok` body rendered ahead of its id: every byte but the id, in two
/// pieces around it — `{"functions":[…],"id":` and
/// `,"ir":"…","status":"ok"}`. A fully optimized compile escapes its IR
/// once, into the tail, and answers from one of these
/// ([`Response::Rendered`]); its whole-request memo entry is a second one
/// with every `cached` flag set in its head and the same shared tail, so a
/// memo hit renders with two copies and an integer.
#[derive(Debug)]
pub struct RenderedOk {
    head: String,
    tail: Arc<String>,
}

impl RenderedOk {
    /// The body [`Response::Ok`] renders for `ir` and `functions`, less
    /// the id.
    pub(crate) fn new(ir: &str, functions: &[FunctionResult]) -> RenderedOk {
        let mut tail = String::with_capacity(ir.len() + ir.len() / 8 + 32);
        write_ok_tail(&mut tail, ir).expect("writing to a String cannot fail");
        RenderedOk {
            head: ok_head(functions, false),
            tail: Arc::new(tail),
        }
    }

    /// The same body with every `cached` flag set — what a whole-request
    /// memo hit replays — sharing this one's tail. `functions` are the
    /// ones this body was rendered from.
    pub(crate) fn all_cached(&self, functions: &[FunctionResult]) -> RenderedOk {
        RenderedOk {
            head: ok_head(functions, true),
            tail: Arc::clone(&self.tail),
        }
    }

    /// Bytes held, for the memo's byte bound.
    pub(crate) fn cost(&self) -> usize {
        self.head.len() + self.tail.len()
    }
}

/// A server reply.  [`Response::to_bytes`] writes the stable wire shape;
/// key order is deterministic (every object's keys in sorted order), which
/// is what makes the warm-vs-cold byte-identity checks possible.
#[derive(Debug)]
pub enum Response {
    Ok {
        id: u64,
        ir: String,
        functions: Vec<FunctionResult>,
    },
    /// An `ok` reply rendered before it was sent: a fully optimized
    /// compile's, and a whole-request memo hit's (the first compile's
    /// reply with every `cached` flag set). Its bytes are those of
    /// [`Response::Ok`] with the same id, IR and functions;
    /// [`Response::ok_parts`] reads those back.
    Rendered {
        id: u64,
        reply: Arc<RenderedOk>,
    },
    Error {
        /// `None` when the request was too malformed to carry an id.
        id: Option<u64>,
        kind: ErrorKind,
        message: String,
    },
    Overloaded {
        id: u64,
        queue_depth: usize,
    },
    Pong {
        id: u64,
    },
    Stats {
        id: u64,
        body: Json,
    },
    Bye {
        id: u64,
        /// Final stats snapshot, flushed after the drain.
        stats: Json,
    },
}

impl Response {
    /// The frame body, written once: every variant goes straight into the
    /// one buffer that is framed, keys in the sorted order [`Json`]'s
    /// `Display` gives an object, strings through the escaper `Json` uses.
    /// Only a `stats`/`bye` body is a [`Json`] value (the engine's snapshot).
    ///
    /// Integers print exactly. A request id is at most 2^53 (what
    /// [`Json::as_u64`] admits), where this equals what a [`Json::Num`]
    /// prints; a larger one built in-process is not rounded through `f64`.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.render(String::new()).into_bytes()
    }

    /// The IR and per-function results of an `ok` reply, whichever variant
    /// carries it — a [`Response::Rendered`] is read back from its bytes;
    /// `None` for any other reply.
    pub fn ok_parts(&self) -> Option<(String, Vec<FunctionResult>)> {
        match self {
            Response::Ok { ir, functions, .. } => Some((ir.clone(), functions.clone())),
            Response::Rendered { .. } => {
                let json = Json::parse(std::str::from_utf8(&self.to_bytes()).ok()?).ok()?;
                let functions = json.get("functions")?.as_arr()?.iter();
                let functions = functions.map(|f| {
                    Some(FunctionResult {
                        name: f.get("name")?.as_str()?.to_string(),
                        optimized: f.get("outcome")?.as_str()? == "optimized",
                        cached: f.get("cached")?.as_bool()?,
                        diagnostic: f
                            .get("diagnostic")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                    })
                });
                let functions = functions.collect::<Option<_>>()?;
                Some((json.get("ir")?.as_str()?.to_string(), functions))
            }
            _ => None,
        }
    }

    /// The whole frame — length prefix and body — in one buffer, for one
    /// write: the body is rendered after four reserved bytes, which then
    /// take its length.
    pub(crate) fn to_frame(&self) -> io::Result<Vec<u8>> {
        let mut frame = self.render("\0\0\0\0".to_string()).into_bytes();
        let len = u32::try_from(frame.len() - 4)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body exceeds u32"))?;
        frame[..4].copy_from_slice(&len.to_be_bytes());
        Ok(frame)
    }

    /// Appends the body to `out`.
    fn render(&self, mut out: String) -> String {
        self.write_to(&mut out)
            .expect("writing to a String cannot fail");
        out
    }

    fn write_to(&self, out: &mut String) -> fmt::Result {
        match self {
            Response::Ok { id, ir, functions } => {
                out.reserve(ir.len() + ir.len() / 8 + 64 * functions.len() + 64);
                write_ok_head(out, functions, false)?;
                write!(out, "{id}")?;
                write_ok_tail(out, ir)?;
            }
            Response::Rendered { id, reply } => {
                out.reserve(reply.cost() + 20);
                out.push_str(&reply.head);
                write!(out, "{id}")?;
                out.push_str(&reply.tail);
            }
            Response::Error { id, kind, message } => {
                out.push('{');
                if let Some(id) = id {
                    write!(out, "\"id\":{id},")?;
                }
                write!(out, "\"kind\":\"{}\",\"message\":", kind.as_str())?;
                write_escaped(out, message)?;
                out.push_str(",\"status\":\"error\"}");
            }
            Response::Overloaded { id, queue_depth } => write!(
                out,
                "{{\"id\":{id},\"queue_depth\":{queue_depth},\"status\":\"overloaded\"}}"
            )?,
            Response::Pong { id } => write!(out, "{{\"id\":{id},\"status\":\"pong\"}}")?,
            Response::Stats { id, body } => {
                write!(out, "{{\"id\":{id},\"stats\":{body},\"status\":\"stats\"}}")?;
            }
            Response::Bye { id, stats } => {
                write!(out, "{{\"id\":{id},\"stats\":{stats},\"status\":\"bye\"}}")?;
            }
        }
        Ok(())
    }
}

/// An `ok` body up to its id, alone.
fn ok_head(functions: &[FunctionResult], all_cached: bool) -> String {
    let mut head = String::with_capacity(64 * functions.len() + 32);
    write_ok_head(&mut head, functions, all_cached).expect("writing to a String cannot fail");
    head
}

/// An `ok` body up to its id: `{"functions":[…],"id":`, each function's
/// `cached` flag set when `all_cached` is.
fn write_ok_head(out: &mut String, functions: &[FunctionResult], all_cached: bool) -> fmt::Result {
    out.push_str("{\"functions\":[");
    for (i, f) in functions.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(out, "{sep}{{\"cached\":{}", f.cached || all_cached)?;
        if let Some(diag) = &f.diagnostic {
            out.push_str(",\"diagnostic\":");
            write_escaped(out, diag)?;
        }
        out.push_str(",\"name\":");
        write_escaped(out, &f.name)?;
        let outcome = if f.optimized { "optimized" } else { "degraded" };
        write!(out, ",\"outcome\":\"{outcome}\"}}")?;
    }
    out.push_str("],\"id\":");
    Ok(())
}

/// An `ok` body after its id: `,"ir":"…","status":"ok"}`.
fn write_ok_tail(out: &mut String, ir: &str) -> fmt::Result {
    out.push_str(",\"ir\":");
    write_escaped(out, ir)?;
    out.push_str(",\"status\":\"ok\"}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b"hello"
        );
        assert_eq!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap(),
            b""
        );
        assert!(read_frame(&mut cursor, DEFAULT_MAX_FRAME)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_prefix_and_body_are_detected() {
        let mut cursor = Cursor::new(vec![0u8, 0, 0]);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
        let mut body = Vec::new();
        write_frame(&mut body, b"full message").unwrap();
        body.truncate(8);
        let mut cursor = Cursor::new(body);
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn oversized_frame_is_drained_and_stream_stays_aligned() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[b'x'; 100]).unwrap();
        write_frame(&mut buf, b"next").unwrap();
        let mut cursor = Cursor::new(buf);
        match read_frame(&mut cursor, 10) {
            Err(FrameError::Oversized { len: 100, max: 10 }) => {}
            other => panic!("expected oversized, got {other:?}"),
        }
        assert_eq!(read_frame(&mut cursor, 10).unwrap().unwrap(), b"next");
    }

    #[test]
    fn request_decoding() {
        let json =
            Json::parse(r#"{"op":"compile","id":7,"ir":"fn f() {}","spec":"meld","fuel":10}"#)
                .unwrap();
        match Request::from_json(&json).unwrap() {
            Request::Compile(req) => {
                assert_eq!(req.id, 7);
                assert_eq!(req.spec.as_deref(), Some("meld"));
                assert_eq!(req.fuel, Some(10));
                assert_eq!(req.timeout_ms, None);
            }
            other => panic!("expected compile, got {other:?}"),
        }
        let ping = Json::parse(r#"{"op":"ping","id":1}"#).unwrap();
        assert!(matches!(
            Request::from_json(&ping).unwrap(),
            Request::Ping { id: 1 }
        ));
        let bad = Json::parse(r#"{"op":"fly","id":1}"#).unwrap();
        assert!(Request::from_json(&bad).unwrap_err().contains("unknown op"));
        let no_id = Json::parse(r#"{"op":"ping"}"#).unwrap();
        assert!(Request::from_json(&no_id).unwrap_err().contains("\"id\""));
    }

    #[test]
    fn response_rendering_is_deterministic() {
        let resp = Response::Ok {
            id: 3,
            ir: "fn f() {}".into(),
            functions: vec![FunctionResult {
                name: "f".into(),
                optimized: false,
                cached: true,
                diagnostic: Some("pass panicked".into()),
            }],
        };
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert_eq!(
            text,
            "{\"functions\":[{\"cached\":true,\"diagnostic\":\"pass panicked\",\
             \"name\":\"f\",\"outcome\":\"degraded\"}],\"id\":3,\
             \"ir\":\"fn f() {}\",\"status\":\"ok\"}"
        );
        assert_eq!(text.as_bytes(), resp.to_bytes());
    }

    /// Every character class the escaper tells apart: the two that get a
    /// backslash, the named and the `\u00XX` controls on both sides of each
    /// other, U+007F (not a control to JSON), two- and four-byte UTF-8.
    const HOSTILE: &str = "q\"b\\s\u{0}\u{1}\u{8}\t\n\u{c}\r\u{1f} é😀\u{7f}";
    /// [`HOSTILE`] as the parent's `Json` tree wrote it.
    const ESCAPED: &str = "\"q\\\"b\\\\s\\u0000\\u0001\\u0008\\t\\n\\u000c\\r\\u001f é😀\u{7f}\"";

    /// All six variants, hostile strings wherever a string goes: the bytes
    /// are the ones the per-reply `Json` tree produced (literals recorded
    /// from it before it was deleted), and `Json::parse` gives every field
    /// back.
    #[test]
    fn every_variant_writes_the_bytes_the_json_tree_wrote() {
        let snapshot = || {
            Json::obj([
                ("cache", Json::obj([("hits", Json::int(2))])),
                ("note", Json::str(HOSTILE)),
                ("ratio", Json::Num(0.5)),
            ])
        };
        let snapshot_text =
            format!("{{\"cache\":{{\"hits\":2}},\"note\":{ESCAPED},\"ratio\":0.5}}");
        let function = |name: &str, diagnostic: Option<&str>| FunctionResult {
            name: name.into(),
            optimized: diagnostic.is_none(),
            cached: diagnostic.is_some(),
            diagnostic: diagnostic.map(str::to_string),
        };
        let rendered = [function(HOSTILE, None), function("g", Some(HOSTILE))];
        let cases = [
            (
                Response::Ok {
                    id: 7,
                    ir: HOSTILE.into(),
                    functions: vec![function(HOSTILE, None), function("g", Some(HOSTILE))],
                },
                format!(
                    "{{\"functions\":[{{\"cached\":false,\"name\":{ESCAPED},\"outcome\":\"optimized\"}},\
                     {{\"cached\":true,\"diagnostic\":{ESCAPED},\"name\":\"g\",\"outcome\":\"degraded\"}}],\
                     \"id\":7,\"ir\":{ESCAPED},\"status\":\"ok\"}}"
                ),
            ),
            (
                // The first case rendered ahead of its id, as a fully
                // optimized compile answers...
                Response::Rendered {
                    id: 7,
                    reply: Arc::new(RenderedOk::new(HOSTILE, &rendered)),
                },
                format!(
                    "{{\"functions\":[{{\"cached\":false,\"name\":{ESCAPED},\"outcome\":\"optimized\"}},\
                     {{\"cached\":true,\"diagnostic\":{ESCAPED},\"name\":\"g\",\"outcome\":\"degraded\"}}],\
                     \"id\":7,\"ir\":{ESCAPED},\"status\":\"ok\"}}"
                ),
            ),
            (
                // ...and as its memo hit replays it: every `cached` flag set.
                Response::Rendered {
                    id: 8,
                    reply: Arc::new(RenderedOk::new(HOSTILE, &rendered).all_cached(&rendered)),
                },
                format!(
                    "{{\"functions\":[{{\"cached\":true,\"name\":{ESCAPED},\"outcome\":\"optimized\"}},\
                     {{\"cached\":true,\"diagnostic\":{ESCAPED},\"name\":\"g\",\"outcome\":\"degraded\"}}],\
                     \"id\":8,\"ir\":{ESCAPED},\"status\":\"ok\"}}"
                ),
            ),
            (
                Response::Ok {
                    id: 0,
                    ir: String::new(),
                    functions: vec![],
                },
                r#"{"functions":[],"id":0,"ir":"","status":"ok"}"#.to_string(),
            ),
            (
                // The largest id a request can carry (`Json::as_u64`).
                Response::Error {
                    id: Some(1 << 53),
                    kind: ErrorKind::Parse,
                    message: HOSTILE.into(),
                },
                format!(
                    "{{\"id\":9007199254740992,\"kind\":\"parse\",\"message\":{ESCAPED},\"status\":\"error\"}}"
                ),
            ),
            (
                Response::Error {
                    id: None,
                    kind: ErrorKind::Protocol,
                    message: HOSTILE.into(),
                },
                format!("{{\"kind\":\"protocol\",\"message\":{ESCAPED},\"status\":\"error\"}}"),
            ),
            (
                Response::Overloaded {
                    id: 0,
                    queue_depth: 64,
                },
                r#"{"id":0,"queue_depth":64,"status":"overloaded"}"#.to_string(),
            ),
            (
                // Where `Json`'s `Display` switches number formatting.
                Response::Pong {
                    id: 1_000_000_000_000_000,
                },
                r#"{"id":1000000000000000,"status":"pong"}"#.to_string(),
            ),
            (
                Response::Stats {
                    id: 3,
                    body: snapshot(),
                },
                format!("{{\"id\":3,\"stats\":{snapshot_text},\"status\":\"stats\"}}"),
            ),
            (
                Response::Bye {
                    id: 4,
                    stats: snapshot(),
                },
                format!("{{\"id\":4,\"stats\":{snapshot_text},\"status\":\"bye\"}}"),
            ),
        ];
        for (response, expected) in &cases {
            let text = String::from_utf8(response.to_bytes()).unwrap();
            assert_eq!(&text, expected, "{response:?}");
            let json = Json::parse(&text).unwrap();
            let field = |key: &str| json.get(key).and_then(Json::as_str);
            let id = json.get("id").and_then(Json::as_u64);
            match response {
                Response::Ok { id: want, .. } | Response::Rendered { id: want, .. } => {
                    assert_eq!((field("status"), id), (Some("ok"), Some(*want)));
                    let (ir, functions) = response.ok_parts().unwrap();
                    assert_eq!(field("ir"), Some(ir.as_str()));
                    let got = json.get("functions").and_then(Json::as_arr).unwrap();
                    assert_eq!(got.len(), functions.len());
                    for (got, want) in got.iter().zip(&functions) {
                        let field = |key: &str| got.get(key).and_then(Json::as_str);
                        assert_eq!(field("name"), Some(want.name.as_str()));
                        assert_eq!(field("diagnostic"), want.diagnostic.as_deref());
                        let outcome = if want.optimized {
                            "optimized"
                        } else {
                            "degraded"
                        };
                        assert_eq!(field("outcome"), Some(outcome));
                        assert_eq!(got.get("cached").and_then(Json::as_bool), Some(want.cached));
                    }
                }
                Response::Error {
                    id: want,
                    kind,
                    message,
                } => {
                    assert_eq!((field("status"), id), (Some("error"), *want));
                    assert_eq!(field("kind"), Some(kind.as_str()));
                    assert_eq!(field("message"), Some(message.as_str()));
                }
                Response::Overloaded {
                    id: want,
                    queue_depth,
                } => {
                    assert_eq!((field("status"), id), (Some("overloaded"), Some(*want)));
                    let depth = json.get("queue_depth").and_then(Json::as_u64);
                    assert_eq!(depth, Some(*queue_depth as u64));
                }
                Response::Pong { id: want } => {
                    assert_eq!((field("status"), id), (Some("pong"), Some(*want)));
                }
                Response::Stats { id: want, body } => {
                    assert_eq!((field("status"), id), (Some("stats"), Some(*want)));
                    assert_eq!(json.get("stats"), Some(body));
                }
                Response::Bye { id: want, stats } => {
                    assert_eq!((field("status"), id), (Some("bye"), Some(*want)));
                    assert_eq!(json.get("stats"), Some(stats));
                }
            }
        }
    }

    /// A rendered reply is the `ok` reply it was rendered from byte for
    /// byte, and its memo form that reply with every `cached` flag set, at
    /// every id width a request can carry (and beyond, for an id built
    /// in-process); `ok_parts` reads back what it was rendered from.
    #[test]
    fn a_rendered_reply_writes_the_bytes_of_its_ok_for_every_id() {
        let functions = vec![
            FunctionResult {
                name: "f".into(),
                optimized: true,
                cached: false,
                diagnostic: None,
            },
            FunctionResult {
                name: HOSTILE.into(),
                optimized: true,
                cached: true,
                diagnostic: None,
            },
        ];
        let cold = Arc::new(RenderedOk::new(HOSTILE, &functions));
        let warm = Arc::new(cold.all_cached(&functions));
        assert!(Arc::ptr_eq(&cold.tail, &warm.tail));
        let cached: Vec<_> = functions
            .iter()
            .map(|f| FunctionResult {
                cached: true,
                ..f.clone()
            })
            .collect();
        for id in [0, 9, 10, 99, 100, u64::from(u32::MAX), 1 << 53, u64::MAX] {
            for (reply, functions) in [(&cold, &functions), (&warm, &cached)] {
                let ok = Response::Ok {
                    id,
                    ir: HOSTILE.into(),
                    functions: functions.clone(),
                };
                let rendered = Response::Rendered {
                    id,
                    reply: Arc::clone(reply),
                };
                assert_eq!(rendered.to_bytes(), ok.to_bytes(), "id {id}");
                let (ir, parts) = rendered.ok_parts().unwrap();
                assert_eq!(ir, HOSTILE);
                assert_eq!(format!("{parts:?}"), format!("{functions:?}"));
            }
        }
    }

    /// A frame rendered in place is the prefix and body `write_frame` writes.
    #[test]
    fn a_frame_is_the_length_prefix_then_the_body() {
        for response in [
            Response::Pong { id: 1 },
            Response::Ok {
                id: 2,
                ir: HOSTILE.into(),
                functions: vec![],
            },
            Response::Rendered {
                id: 3,
                reply: Arc::new(RenderedOk::new(HOSTILE, &[])),
            },
        ] {
            let mut want = Vec::new();
            write_frame(&mut want, &response.to_bytes()).unwrap();
            assert_eq!(response.to_frame().unwrap(), want);
        }
    }
}
