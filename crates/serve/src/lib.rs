//! `darm serve` — a fault-tolerant persistent compile service with
//! cross-run caching.
//!
//! A `darm serve` daemon keeps a [`ModulePassManager`]-based compiler
//! hot across many module-compile requests: the pass registry is built
//! once, and per-function results are cached across requests keyed by
//! content hash, so a rebuild that re-sends a mostly-unchanged module
//! only pays for the functions that actually changed.
//!
//! [`ModulePassManager`]: darm_pipeline::ModulePassManager
//!
//! # Protocol
//!
//! Both directions speak length-prefixed JSON frames — a 4-byte
//! big-endian `u32` byte count, then that many bytes of UTF-8 JSON
//! (see [`proto`]):
//!
//! ```text
//! frame    := u32_be(len) body
//! body     := request | response          ; UTF-8 JSON, len bytes
//! request  := {"op":"compile","id":N,"ir":S,
//!              "spec":S?,"timeout_ms":N?,"fuel":N?}
//!           | {"op":"ping","id":N}
//!           | {"op":"stats","id":N}
//!           | {"op":"shutdown","id":N}
//! response := {"status":"ok","id":N,"ir":S,"functions":[...]}
//!           | {"status":"error","kind":K,"message":S,"id":N?}
//!           | {"status":"overloaded","id":N,"queue_depth":N}
//!           | {"status":"pong","id":N}
//!           | {"status":"stats","id":N,"stats":{...}}
//!           | {"status":"bye","id":N,"stats":{...}}
//! K        := "protocol" | "parse" | "spec" | "internal"
//! ```
//!
//! Responses are written as workers finish — possibly out of request
//! order — and carry the request `id` for matching. A reply is written
//! once: [`Response::to_bytes`] puts the frame body straight into the
//! buffer that is framed, every object's keys in sorted order and every
//! string through the one escaper [`json::Json`]'s `Display` uses — no
//! `Json` value is built for it (`Json` is the request decoder and the body
//! of a `stats`/`bye` reply) — and outside the connection's writer lock. A
//! response's byte representation is a pure function of its content: a
//! warm cache hit is *byte-identical* to the cold response it replays.
//!
//! # Cache keying
//!
//! Caching is two-level, and both levels are keyed by a 128-bit
//! [`cache::ContentKey`]: two 64-bit digests from independent starting
//! states, both of which must agree for a hit, so a constructible
//! single-hash collision cannot silently serve another input's compiled
//! IR. The spec is parsed once per request and re-printed, so equivalent
//! spellings share entries (the registry first sees it after a memo miss,
//! when the request's pass manager is built — an unknown pass or bad
//! parameter answers `spec` there, before the input is read, and is
//! remembered nowhere). Each function is keyed by
//! [`cache::content_key`]: two FNV-1a-64 streams over `canonical_spec ∥
//! 0x00 ∥ printed_function_ir`, fed straight from the printer, whose
//! pieces are a few bytes each — streaming FNV over them is cheaper than a
//! word hasher over the same pieces or than printing to a buffer first
//! (the numbers are in [`cache`]). Deterministic compile faults (contained
//! panics and pass errors) are *negatively* cached — the function is
//! served degraded-to-baseline with its diagnostic, instantly — while
//! budget exhaustion (deadline/fuel) is never cached because it
//! depends on per-request limits, not on the input.
//!
//! In front of the function cache sits a whole-request memo keyed by
//! [`cache::raw_key`] over the canonical spec and the raw request IR, one
//! contiguous text: two lanes that absorb a little-endian word per folded
//! 64×64→128-bit multiply, the spec and the text as length-delimited
//! parts. The two keys index different maps, so they need not (and do not)
//! agree; both are the same on every platform and in every process, and
//! neither is cryptographic. A fully-warm request is answered before its
//! input is even parsed. The memo only
//! holds fully *optimized* responses (degraded and negatively-cached
//! outcomes always route through the function cache, keeping fail-fast
//! semantics observable) and is a pure front — dropping an entry changes
//! latency, never results. Both levels are the same bounded map (least
//! recently used out first), each under bounds of its own:
//! `ServeConfig::cache_entries` entries and `ServeConfig::cache_bytes`
//! payload bytes — IR text plus diagnostic for a function, IR text plus
//! function names for a request — so the two together hold at most twice
//! either figure.
//!
//! # Shedding and degradation
//!
//! Admission never blocks: a full queue answers a typed `overloaded`
//! response ([`queue`]). A request's cache misses are compiled once,
//! under `OnError::Degrade` and the request's one [`Budget`]
//! (`timeout_ms` and `fuel` bound the request once, not per attempt):
//! only the faulting functions are pinned to their baseline IR, each
//! with its diagnostic. A panic anywhere in a request's
//! path is contained to that request — the daemon never exits on a
//! poisoned module — and every engine lock recovers from poisoning.
//! Shutdown (`{"op":"shutdown"}`) drains in-flight requests, flushes
//! stats into the final `bye` frame, and only then exits.
//!
//! [`Budget`]: darm_ir::budget::Budget
//!
//! # Fault-injection sites
//!
//! With the `fault-injection` feature, `DARM_FAULT` reaches four
//! service sites on top of the pipeline's own: `serve::admit` (before
//! queue admission), `serve::worker` (top of each worker iteration),
//! `serve::cache_lookup` and `serve::cache_insert` (before the
//! respective cache lock holds — never under a lock, so injected
//! panics cannot poison the cache). See `darm_ir::fault` for the
//! `DARM_FAULT='<site>[#hit]=<kind>'` grammar.

pub mod cache;
pub mod engine;
pub mod json;
pub mod proto;
pub mod queue;
pub mod transport;

pub use engine::{Engine, Responder, ServeConfig};
pub use proto::{CompileRequest, ErrorKind, Request, Response};
#[cfg(unix)]
pub use transport::serve_unix;
pub use transport::{serve_stream, StreamEnd};
