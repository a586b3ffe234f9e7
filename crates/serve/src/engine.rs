//! The compile engine behind `darm serve`: the whole-request memo, a
//! bounded work queue, a pool of worker threads, and the cross-run
//! [`CompileCache`].
//!
//! Robustness invariants, in order of importance:
//!
//! 1. **The daemon never dies on a request.** [`Engine::submit`] and every
//!    worker iteration run under `catch_unwind`; a panic anywhere in a
//!    request's path (including the injected `serve::*` fault sites)
//!    becomes a typed `internal` error response for that request alone.
//! 2. **A request waits for a worker only when it needs one.** `submit`
//!    answers on the caller's thread whatever needs no compile: an invalid
//!    spec, a closed engine and a whole-request memo hit, whose reply is
//!    bytes rendered when the request was first compiled. A memo hit is
//!    answered before admission and so is never shed. Admission of the
//!    rest never blocks: a full queue sheds the request with a typed
//!    `overloaded` response; the client decides whether to retry.
//! 3. **Every request is answered.** An inline answer has been given by
//!    the time `submit` returns; workers drain the backlog after
//!    [`Engine::shutdown`] closes the queue, and shutdown itself drains
//!    any leftovers inline — even an engine with zero workers answers
//!    everything it admitted.
//! 4. **Locks are poison-proof.** Every acquisition recovers via
//!    [`PoisonError::into_inner`]; [`Engine::poisoned_locks`] exposes
//!    the poison bits so the soak test can assert they stay clear.
//!
//! Compilation itself is one attempt: the functions the cache missed are
//! moved out of the parsed module and compiled once under
//! [`OnError::Degrade`] with the request's one [`Budget`] (`timeout_ms` /
//! `fuel` bound the request once), so the pipeline's containment boundary
//! pins only the faulting functions to their baseline IR. Deterministic
//! faults (panics, pass errors) are negatively cached so repeat offenders
//! fail fast; budget exhaustion is never cached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use darm_analysis::verify_ssa;
use darm_ir::budget::Budget;
use darm_ir::fault;
use darm_ir::parser::parse_module;
use darm_ir::Module;
use darm_melding::MeldConfig;
use darm_pipeline::{
    FaultCause, FunctionOutcome, ModuleOptions, ModulePassManager, OnError, PassRegistry, PassSpec,
    PipelineOptions,
};

use crate::cache::{
    content_key, raw_key, BoundedMap, CacheCounters, CachedOutcome, CompileCache, ContentKey,
};
use crate::json::Json;
use crate::proto::{CompileRequest, ErrorKind, FunctionResult, RenderedOk, Response};
use crate::queue::{BoundedQueue, PushError};

/// Engine knobs. [`Default`] gives a single worker, a 64-deep queue and
/// a 4096-entry / 64 MiB cache compiling under the `meld` spec.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` spawns none: jobs queue up and are compiled
    /// inline when [`Engine::shutdown`] drains — useful for
    /// deterministic backpressure tests, not for serving.
    pub workers: usize,
    /// Queue capacity; admission beyond it sheds with `overloaded`.
    pub queue_depth: usize,
    /// Entry bound of the function cache and of the whole-request memo,
    /// *each*; `0` disables both.
    pub cache_entries: usize,
    /// Payload-byte bound of the function cache and of the whole-request
    /// memo, *each* (the two together hold at most twice this).
    pub cache_bytes: usize,
    /// Pass spec for requests that do not carry one.
    pub default_spec: String,
    /// Default wall-clock budget per request, in milliseconds.
    pub default_timeout_ms: Option<u64>,
    /// Default fuel budget per request.
    pub default_fuel: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            cache_entries: 4096,
            cache_bytes: 64 * 1024 * 1024,
            default_spec: "meld".to_string(),
            default_timeout_ms: None,
            default_fuel: None,
        }
    }
}

/// Monotonic engine counters (all atomics; read via [`Engine::stats_json`]).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    overloaded: AtomicU64,
    rejected_closed: AtomicU64,
    contained_panics: AtomicU64,
    protocol_errors: AtomicU64,
    /// Shared with the transports, whose responders outlive any borrow of
    /// the engine (see [`Engine::write_errors`]).
    write_errors: Arc<AtomicU64>,
    fast_hits: AtomicU64,
}

struct Shared {
    config: ServeConfig,
    registry: PassRegistry,
    queue: BoundedQueue<Job>,
    cache: Mutex<CompileCache>,
    /// Whole-request memo: the 128-bit [`raw_key`] of the canonical spec
    /// and the raw input text → the rendered warm reply of a fully
    /// optimized compile, costed at its bytes, under bounds of its own
    /// equal to the function cache's. Read only by [`Engine::submit`],
    /// written only by a worker. A pure front for the per-function
    /// [`CompileCache`]: a hit skips parsing and the queue entirely, and
    /// dropping an entry changes latency, never a result. Degraded and
    /// negatively-cached outcomes are never memoized — they always route
    /// through the function cache, so fail-fast semantics (and their
    /// counters) stay intact.
    fast: Mutex<BoundedMap<Arc<RenderedOk>>>,
    counters: Counters,
}

/// How a finished [`Response`] gets back to the client.
pub type Responder = Box<dyn FnOnce(Response) + Send + 'static>;

/// A request the whole-request memo missed, with what [`Engine::submit`]
/// worked out about it on the way.
struct Miss {
    request: CompileRequest,
    spec: PassSpec,
    /// `spec` re-printed: the spelling both cache keys use.
    canonical: String,
    /// The request's whole-request memo key.
    key: ContentKey,
}

struct Job {
    miss: Miss,
    respond: Responder,
}

/// A running compile service.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Counts a panic caught at a service boundary and renders it as the
/// `internal` error response of the one request it hit.
fn contained(shared: &Shared, id: u64, payload: &(dyn std::any::Any + Send)) -> Response {
    shared
        .counters
        .contained_panics
        .fetch_add(1, Ordering::Relaxed);
    let message = match darm_pipeline::classify_unwind(payload) {
        (Some(site), FaultCause::Deadline | FaultCause::Fuel) => {
            format!("budget exhausted at {site}")
        }
        (Some(site), _) => format!("injected fault at {site}"),
        (None, FaultCause::Panic(message) | FaultCause::Error(message)) => message,
        (None, FaultCause::Deadline | FaultCause::Fuel) => "budget exhausted".to_string(),
    };
    Response::Error {
        id: Some(id),
        kind: ErrorKind::Internal,
        message,
    }
}

impl Engine {
    /// Builds the registry, spawns the workers and opens the doors.
    pub fn new(config: ServeConfig) -> Engine {
        // Typed, contained unwinds stay quiet from the first request on
        // (the pipeline installs the same hook, once, when it first runs).
        darm_pipeline::install_quiet_panic_hook();
        let shared = Arc::new(Shared {
            registry: darm_melding::registry(&MeldConfig::default()),
            queue: BoundedQueue::new(config.queue_depth.max(1)),
            cache: Mutex::new(CompileCache::new(config.cache_entries, config.cache_bytes)),
            fast: Mutex::new(BoundedMap::new(config.cache_entries, config.cache_bytes)),
            counters: Counters::default(),
            config,
        });
        let mut workers = Vec::new();
        for i in 0..shared.config.workers {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("darm-serve-{i}"))
                .spawn(move || {
                    while let Some(job) = shared.queue.pop() {
                        Self::process_job(&shared, job);
                    }
                })
                .expect("spawn serve worker");
            workers.push(handle);
        }
        Engine {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Take one compile request. Never panics out, and waits for no
    /// worker: what needs no compile — an invalid spec, a closed engine, a
    /// whole-request memo hit — is answered by calling `respond` before
    /// this returns; the rest is queued, or shed with `overloaded` when
    /// the queue is full. An injected or real panic on the way answers a
    /// typed `internal` error.
    pub fn submit(&self, request: CompileRequest, respond: Responder) {
        let shared = &*self.shared;
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let id = request.id;
        let admitted = catch_unwind(AssertUnwindSafe(|| Self::admit(shared, request)))
            .unwrap_or_else(|payload| Err(contained(shared, id, payload.as_ref())));
        let (respond, response) = match admitted {
            Err(response) => (respond, response),
            Ok(miss) => match shared.queue.try_push(Job { miss, respond }) {
                Ok(_depth) => return,
                Err((job, PushError::Full)) => {
                    shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                    let queue_depth = shared.queue.len();
                    (job.respond, Response::Overloaded { id, queue_depth })
                }
                Err((job, PushError::Closed)) => (job.respond, Self::shutting_down(shared, id)),
            },
        };
        // A responder that panics must not unwind into the caller.
        let _ = catch_unwind(AssertUnwindSafe(move || respond(response)));
    }

    /// [`Engine::submit`]'s steps before the queue, in order: the admission
    /// fault site, the closed check, the spec, the memo key, the lookup
    /// fault site, the memo. Returns the answer, or the miss to queue.
    fn admit(shared: &Shared, request: CompileRequest) -> Result<Miss, Response> {
        let id = request.id;
        fault::point("serve::admit");
        if shared.queue.is_closed() {
            return Err(Self::shutting_down(shared, id));
        }

        // One parse of the spec per request; its re-printed form is the
        // canonical spelling both cache keys use.
        let spec = PassSpec::parse(
            request
                .spec
                .as_deref()
                .unwrap_or(&shared.config.default_spec),
        );
        let spec = spec.map_err(|e| {
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            Response::Error {
                id: Some(id),
                kind: ErrorKind::Spec,
                message: format!("invalid pipeline spec: {e}"),
            }
        })?;
        let canonical = spec.to_string();

        // Whole-request fast path: a fully-warm request is answered here,
        // on the caller's thread, from the bytes its first compile
        // rendered — before the input is parsed and without the queue.
        // The lookup fault site fires once per request, outside any lock
        // hold, so an injected panic unwinds to `submit` without poisoning
        // anything. (It also fires before the registry has seen the spec:
        // an armed site pre-empts the `spec` answer of an unknown pass.)
        let key = raw_key(&canonical, &request.ir);
        fault::point("serve::cache_lookup");
        let hit = shared
            .fast
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .map(Arc::clone);
        if let Some(reply) = hit {
            shared.counters.fast_hits.fetch_add(1, Ordering::Relaxed);
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Rendered { id, reply });
        }
        Ok(Miss {
            request,
            spec,
            canonical,
            key,
        })
    }

    /// The typed answer of a request that arrives after [`Engine::shutdown`].
    fn shutting_down(shared: &Shared, id: u64) -> Response {
        shared
            .counters
            .rejected_closed
            .fetch_add(1, Ordering::Relaxed);
        Response::Error {
            id: Some(id),
            kind: ErrorKind::Internal,
            message: "service is shutting down".to_string(),
        }
    }

    /// One worker iteration: compile under `catch_unwind`, then always
    /// answer. A panic in the compile path (or an injected
    /// `serve::worker` fault) becomes an `internal` error response.
    fn process_job(shared: &Shared, job: Job) {
        let Job { miss, respond } = job;
        let id = miss.request.id;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            fault::point("serve::worker");
            Self::handle_compile(shared, miss)
        }));
        let response = outcome.unwrap_or_else(|payload| contained(shared, id, payload.as_ref()));
        shared.counters.completed.fetch_add(1, Ordering::Relaxed);
        // A responder that panics (e.g. the peer vanished mid-write and
        // the transport chose to panic) must not kill the worker.
        let _ = catch_unwind(AssertUnwindSafe(move || respond(response)));
    }

    fn handle_compile(shared: &Shared, miss: Miss) -> Response {
        let Miss {
            request,
            spec,
            canonical,
            key,
        } = miss;
        let id = request.id;
        let error = |kind: ErrorKind, message: String| Response::Error {
            id: Some(id),
            kind,
            message,
        };

        // A memo miss is where the registry first sees the spec: the
        // manager's probe build rejects an unknown pass or a bad parameter
        // before the input is read. Such a spec never compiles anything, so
        // it can never own a memo entry and is rejected here every time.
        let mut manager = match ModulePassManager::with_spec(
            &shared.registry,
            spec,
            ModuleOptions {
                pipeline: PipelineOptions::default(),
                jobs: 1,
                on_error: OnError::Degrade,
            },
        ) {
            Ok(manager) => manager,
            Err(e) => return error(ErrorKind::Spec, e.to_string()),
        };

        // Parse the input module. SSA verification is deferred to the
        // cache misses: a hit's content hash equals that of an input
        // that verified and compiled before, so re-verifying it would
        // only tax the warm path.
        let module = match parse_module(&request.ir) {
            Ok(module) => module,
            Err(e) => return error(ErrorKind::Parse, e.to_string()),
        };

        // Per-function cache probe, one lock hold for the whole module.
        // One record per function: what the reply says about it and the
        // text it contributes; `None` until a miss is compiled.
        let mut records: Vec<Option<(FunctionResult, String)>> =
            Vec::with_capacity(module.functions().len());
        let mut misses: Vec<(usize, ContentKey)> = Vec::new();
        {
            let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            for (index, func) in module.functions().iter().enumerate() {
                let key = content_key(&canonical, func);
                let hit = cache.lookup(key).map(|CachedOutcome { ir, diagnostic }| {
                    let result = FunctionResult {
                        name: func.name().to_string(),
                        optimized: diagnostic.is_none(),
                        cached: true,
                        diagnostic,
                    };
                    (result, ir)
                });
                if hit.is_none() {
                    misses.push((index, key));
                }
                records.push(hit);
            }
        }

        // Verify only the misses: a hit's content hash matches an input
        // that already passed verification on its first compile, so the
        // warm path skips straight to the cached payload.
        for &(index, _) in &misses {
            let func = &module.functions()[index];
            if let Err(e) = verify_ssa(func) {
                return error(ErrorKind::Parse, format!("function @{}: {e}", func.name()));
            }
        }

        // Compile the misses, once: moved out of the parsed module (the
        // hits' records are already filled), under degradation, with the
        // request's one budget — made here, so its clock starts with the
        // compile and not with the manager's probe build.
        if !misses.is_empty() {
            let mut is_miss = records.iter().map(Option::is_none);
            let mut missed = module.into_functions();
            missed.retain(|_| is_miss.next().expect("one record per function"));
            let mut compiled =
                Module::from_functions("serve", missed).expect("input module had unique names");
            manager.options.pipeline.budget = Budget::new(
                request
                    .timeout_ms
                    .or(shared.config.default_timeout_ms)
                    .map(Duration::from_millis),
                request.fuel.or(shared.config.default_fuel),
            );
            let report = match manager.run(&mut compiled) {
                Ok(report) => report,
                Err(e) => return error(ErrorKind::Internal, e.to_string()),
            };

            // Same discipline as the lookup: fire the fault site
            // outside the lock hold.
            fault::point("serve::cache_insert");
            let mut cache = shared.cache.lock().unwrap_or_else(PoisonError::into_inner);
            for ((func, func_report), &(index, key)) in compiled
                .functions()
                .iter()
                .zip(&report.functions)
                .zip(&misses)
            {
                let text = func.to_string();
                // Negative-cache only deterministic causes: a panic or
                // pass error will recur on the same input, budget
                // exhaustion may not.
                let (diagnostic, keep) = match &func_report.outcome {
                    FunctionOutcome::Optimized => (None, true),
                    FunctionOutcome::Degraded(diag) => (
                        Some(diag.to_string()),
                        matches!(diag.cause, FaultCause::Panic(_) | FaultCause::Error(_)),
                    ),
                };
                if keep {
                    let outcome = CachedOutcome {
                        ir: text.clone(),
                        diagnostic: diagnostic.clone(),
                    };
                    cache.insert(key, outcome);
                }
                let result = FunctionResult {
                    name: func.name().to_string(),
                    optimized: diagnostic.is_none(),
                    cached: false,
                    diagnostic,
                };
                records[index] = Some((result, text));
            }
        }

        // Reassemble the module text exactly as `Module`'s `Display`
        // would print it: function texts separated by one blank line.
        let (functions, texts): (Vec<FunctionResult>, Vec<String>) = records
            .into_iter()
            .map(|record| record.expect("every function record filled"))
            .unzip();
        let ir = texts.join("\n");
        // A fully optimized reply is rendered here, its IR escaped once:
        // the reply and its memo entry — the same bytes with every
        // `cached` flag set, for the whole-request fast path — share that
        // tail.
        if functions.iter().all(|f| f.optimized) {
            let reply = RenderedOk::new(&ir, &functions);
            let memo = reply.all_cached(&functions);
            let cost = memo.cost();
            shared
                .fast
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(key, Arc::new(memo), cost);
            return Response::Rendered {
                id,
                reply: Arc::new(reply),
            };
        }
        Response::Ok { id, ir, functions }
    }

    /// Counted by the transport when it answers a malformed frame.
    pub fn note_protocol_error(&self) {
        self.shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The counter a transport bumps for every response it failed to
    /// write (the `write_errors` stat).
    pub(crate) fn write_errors(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.shared.counters.write_errors)
    }

    /// Snapshot of every counter, cache gauge and queue gauge.
    pub fn stats_json(&self) -> Json {
        let c = &self.shared.counters;
        let (cache_counters, cache_entries, cache_bytes) = {
            let cache = self
                .shared
                .cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            (cache.counters(), cache.len(), cache.bytes())
        };
        let cc = cache_counters;
        Json::obj([
            ("requests", Json::int(c.requests.load(Ordering::Relaxed))),
            ("completed", Json::int(c.completed.load(Ordering::Relaxed))),
            (
                "overloaded",
                Json::int(c.overloaded.load(Ordering::Relaxed)),
            ),
            (
                "rejected_closed",
                Json::int(c.rejected_closed.load(Ordering::Relaxed)),
            ),
            (
                "contained_panics",
                Json::int(c.contained_panics.load(Ordering::Relaxed)),
            ),
            (
                "protocol_errors",
                Json::int(c.protocol_errors.load(Ordering::Relaxed)),
            ),
            (
                "write_errors",
                Json::int(c.write_errors.load(Ordering::Relaxed)),
            ),
            (
                "cache",
                Json::obj([
                    ("fast_hits", Json::int(c.fast_hits.load(Ordering::Relaxed))),
                    ("fast_entries", Json::int(self.fast_entries() as u64)),
                    ("hits", Json::int(cc.hits)),
                    ("negative_hits", Json::int(cc.negative_hits)),
                    ("misses", Json::int(cc.misses)),
                    ("insertions", Json::int(cc.insertions)),
                    ("evictions", Json::int(cc.evictions)),
                    ("entries", Json::int(cache_entries as u64)),
                    ("bytes", Json::int(cache_bytes as u64)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::int(self.shared.queue.len() as u64)),
                    (
                        "high_water",
                        Json::int(self.shared.queue.high_water() as u64),
                    ),
                    (
                        "capacity",
                        Json::int(self.shared.config.queue_depth.max(1) as u64),
                    ),
                ]),
            ),
            ("workers", Json::int(self.shared.config.workers as u64)),
        ])
    }

    /// Cache counters for tests (hits/misses/insertions/evictions).
    pub fn cache_counters(&self) -> CacheCounters {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .counters()
    }

    /// Current cache payload bytes — the soak test's RSS proxy.
    pub fn cache_bytes(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes()
    }

    /// Current cache entry count.
    pub fn cache_entries(&self) -> usize {
        self.shared
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whole-request fast-path hits.
    pub fn fast_hits(&self) -> u64 {
        self.shared.counters.fast_hits.load(Ordering::Relaxed)
    }

    /// Current whole-request memo entry count (bounded like the cache).
    pub fn fast_entries(&self) -> usize {
        self.shared
            .fast
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// How many engine locks are poisoned (must be 0 even after
    /// injected panics — containment happens *outside* lock holds).
    pub fn poisoned_locks(&self) -> usize {
        usize::from(self.shared.cache.is_poisoned())
            + usize::from(self.shared.fast.is_poisoned())
            + usize::from(self.shared.queue.is_poisoned())
            + usize::from(self.workers.is_poisoned())
    }

    /// Graceful drain: close the queue, let the workers finish the
    /// backlog, join them, then compile anything still queued inline
    /// (relevant only for zero-worker engines — with live workers the
    /// backlog is empty once they exit). Idempotent; returns the final
    /// stats snapshot for the transport to flush.
    pub fn shutdown(&self) -> Json {
        self.shared.queue.close();
        let handles =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            let _ = handle.join();
        }
        while let Some(job) = self.shared.queue.try_pop() {
            Self::process_job(&self.shared, job);
        }
        self.stats_json()
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}
