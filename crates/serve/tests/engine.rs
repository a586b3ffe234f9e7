//! Engine-level integration tests: admission backpressure, drain
//! shutdown, cache behavior across requests, and warm-vs-cold
//! byte-identity of rendered responses.

use std::sync::mpsc;

use darm_serve::proto::CompileRequest;
use darm_serve::{Engine, Response, ServeConfig};

const KERNEL: &str = r#"
fn @cli_demo(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = and %0, 1
  %2 = icmp eq %1, 0
  br %2, t, e
t:
  %3 = mul %0, 3
  %4 = add %3, 10
  %5 = gep i32 %arg0, %0
  store %4, %5
  jump x
e:
  %6 = mul %0, 5
  %7 = add %6, 77
  %8 = gep i32 %arg0, %0
  store %7, %8
  jump x
x:
  ret
}
"#;

fn request(id: u64, ir: &str) -> CompileRequest {
    CompileRequest {
        id,
        ir: ir.to_string(),
        spec: None,
        timeout_ms: None,
        fuel: None,
    }
}

/// Submit and wait for the response (requires a live worker).
fn compile(engine: &Engine, req: CompileRequest) -> Response {
    let (tx, rx) = mpsc::channel();
    engine.submit(req, Box::new(move |resp| tx.send(resp).unwrap()));
    rx.recv().expect("engine answered")
}

#[test]
fn warm_hit_is_byte_identical_to_cold_response() {
    let engine = Engine::new(ServeConfig::default());
    let cold = compile(&engine, request(1, KERNEL));
    let warm = compile(&engine, request(1, KERNEL));
    let (cold_bytes, warm_bytes) = (cold.to_bytes(), warm.to_bytes());
    match (&cold, &warm) {
        (
            Response::Ok {
                ir: cold_ir,
                functions: cold_fns,
                ..
            },
            Response::Ok {
                ir: warm_ir,
                functions: warm_fns,
                ..
            },
        ) => {
            assert_eq!(cold_ir, warm_ir);
            assert!(cold_ir.contains("select"), "expected melded output");
            assert!(!cold_fns[0].cached);
            assert!(warm_fns[0].cached);
        }
        other => panic!("expected ok responses, got {other:?}"),
    }
    // The `cached` flag is metadata, not payload: strip it and the
    // responses must be byte-identical. (Same id on purpose.)
    let strip = |bytes: &[u8]| {
        String::from_utf8(bytes.to_vec())
            .unwrap()
            .replace("\"cached\":false", "\"cached\":true")
    };
    assert_eq!(strip(&cold_bytes), strip(&warm_bytes));
    // The repeat is answered by the whole-request memo, never reaching
    // the per-function cache.
    assert_eq!(engine.fast_hits(), 1);
    let counters = engine.cache_counters();
    assert_eq!(counters.hits, 0);
    assert_eq!(counters.misses, 1);
    assert_eq!(counters.insertions, 1);
}

#[test]
fn zero_worker_engine_sheds_overload_and_drains_at_shutdown() {
    let engine = Engine::new(ServeConfig {
        workers: 0,
        queue_depth: 2,
        ..ServeConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    for id in 0..4 {
        let tx = tx.clone();
        engine.submit(
            request(id, KERNEL),
            Box::new(move |resp| tx.send((id, resp)).unwrap()),
        );
    }
    // With no workers, the first two requests sit in the queue; the
    // rest shed immediately with typed overload responses.
    let mut shed = Vec::new();
    for _ in 0..2 {
        let (id, resp) = rx.recv().unwrap();
        assert!(
            matches!(resp, Response::Overloaded { .. }),
            "expected overloaded for {id}, got {resp:?}"
        );
        shed.push(id);
    }
    assert_eq!(shed, vec![2, 3]);
    // Shutdown drains the backlog inline: every admitted request still
    // gets a real answer.
    engine.shutdown();
    let mut answered = Vec::new();
    while let Ok((id, resp)) = rx.try_recv() {
        assert!(matches!(resp, Response::Ok { .. }), "got {resp:?}");
        answered.push(id);
    }
    answered.sort_unstable();
    assert_eq!(answered, vec![0, 1]);
    assert_eq!(engine.poisoned_locks(), 0);
}

#[test]
fn submissions_after_shutdown_get_typed_errors() {
    let engine = Engine::new(ServeConfig::default());
    engine.shutdown();
    let resp = {
        let (tx, rx) = mpsc::channel();
        engine.submit(request(9, KERNEL), Box::new(move |r| tx.send(r).unwrap()));
        rx.recv().unwrap()
    };
    match resp {
        Response::Error { id, message, .. } => {
            assert_eq!(id, Some(9));
            assert!(message.contains("shutting down"), "{message}");
        }
        other => panic!("expected error, got {other:?}"),
    }
}

#[test]
fn bad_input_and_bad_spec_yield_typed_errors_and_service_survives() {
    let engine = Engine::new(ServeConfig::default());
    let parse_err = compile(&engine, request(1, "fn @broken( {"));
    assert!(
        matches!(&parse_err, Response::Error { kind, .. } if kind.as_str() == "parse"),
        "{parse_err:?}"
    );
    let mut bad_spec = request(2, KERNEL);
    bad_spec.spec = Some("no-such-pass".to_string());
    let spec_err = compile(&engine, bad_spec);
    assert!(
        matches!(&spec_err, Response::Error { kind, .. } if kind.as_str() == "spec"),
        "{spec_err:?}"
    );
    // The daemon still compiles fine afterwards.
    let ok = compile(&engine, request(3, KERNEL));
    assert!(matches!(ok, Response::Ok { .. }), "{ok:?}");
}

/// A spec the registry rejects is rejected every time it is sent (nothing
/// remembers it), owns no memo entry and leaves no lock poisoned.
#[test]
fn unknown_pass_answers_spec_every_time_and_is_never_memoized() {
    let engine = Engine::new(ServeConfig::default());
    for id in 1..=2 {
        let mut bad_spec = request(id, KERNEL);
        bad_spec.spec = Some("meld,no-such-pass".to_string());
        match compile(&engine, bad_spec) {
            Response::Error { kind, message, .. } => {
                assert_eq!(kind.as_str(), "spec");
                assert!(message.contains("no-such-pass"), "{message}");
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }
    assert_eq!(engine.fast_entries(), 0);
    assert_eq!(engine.cache_entries(), 0);
    assert_eq!(engine.poisoned_locks(), 0);
    match compile(&engine, request(3, KERNEL)) {
        Response::Ok { functions, .. } => assert!(functions[0].optimized && !functions[0].cached),
        other => panic!("expected ok, got {other:?}"),
    }
    assert_eq!(engine.fast_entries(), 1);
}

#[test]
fn equivalent_spec_spellings_share_cache_entries() {
    let engine = Engine::new(ServeConfig::default());
    let mut first = request(1, KERNEL);
    first.spec = Some("meld".to_string());
    let mut second = request(2, KERNEL);
    // Same canonical pipeline, different spelling (whitespace).
    second.spec = Some(" meld ".to_string());
    assert!(matches!(compile(&engine, first), Response::Ok { .. }));
    match compile(&engine, second) {
        Response::Ok { functions, .. } => assert!(functions[0].cached),
        other => panic!("expected ok, got {other:?}"),
    }
    // Both the whole-request memo and the function cache key on the
    // *canonical* spec, so the respelled request is a fast-path hit.
    assert_eq!(engine.fast_hits(), 1);
}

#[test]
fn cache_stays_within_bounds_under_churn() {
    let engine = Engine::new(ServeConfig {
        cache_entries: 8,
        cache_bytes: 16 * 1024,
        ..ServeConfig::default()
    });
    // 32 distinct modules (mutated constant) → at most 8 entries live.
    for i in 0..32u64 {
        let ir = KERNEL.replace(", 77", &format!(", {}", 100 + i));
        let resp = compile(&engine, request(i, &ir));
        assert!(matches!(resp, Response::Ok { .. }), "{resp:?}");
    }
    assert!(engine.cache_entries() <= 8);
    assert!(engine.cache_bytes() <= 16 * 1024);
    assert!(engine.fast_entries() <= 8);
    assert_eq!(engine.cache_counters().evictions, 32 - 8);
    assert_eq!(engine.poisoned_locks(), 0);
}

#[test]
fn multi_function_module_mixes_cached_and_fresh() {
    let engine = Engine::new(ServeConfig::default());
    // Prime the cache with the single-function module.
    assert!(matches!(
        compile(&engine, request(1, KERNEL)),
        Response::Ok { .. }
    ));
    // A module with the cached function plus a new one: the cached one
    // is served warm, the new one compiles.
    let second = KERNEL
        .replace("@cli_demo", "@other")
        .replace(", 77", ", 99");
    let both = format!("{}\n{}", KERNEL.trim_start(), second.trim_start());
    match compile(&engine, request(2, &both)) {
        Response::Ok { functions, ir, .. } => {
            assert_eq!(functions.len(), 2);
            assert!(functions[0].cached, "{functions:?}");
            assert!(!functions[1].cached, "{functions:?}");
            assert!(ir.contains("@cli_demo") && ir.contains("@other"));
        }
        other => panic!("expected ok, got {other:?}"),
    }
}

/// `@clean` is straight-line (nothing to meld, one budget poll's worth of
/// work); `@faulty` holds two meldable diamonds in sequence, so it is the
/// only function in this file that reaches `meld::codegen` twice.
const CLEAN_AND_FAULTY: &str = r#"fn @clean(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = gep i32 %arg0, %0
  store %0, %1
  ret
}

fn @faulty(ptr(global) %arg0) -> void {
entry:
  %0 = tid.x
  %1 = and %0, 1
  %2 = icmp eq %1, 0
  br %2, t, e
t:
  %3 = mul %0, 3
  %4 = add %3, 10
  %5 = gep i32 %arg0, %0
  store %4, %5
  jump m
e:
  %6 = mul %0, 5
  %7 = add %6, 77
  %8 = gep i32 %arg0, %0
  store %7, %8
  jump m
m:
  %9 = and %0, 2
  %10 = icmp eq %9, 0
  br %10, t2, e2
t2:
  %11 = mul %0, 7
  %12 = add %11, 1
  %13 = gep i32 %arg0, %0
  store %12, %13
  jump x
e2:
  %14 = mul %0, 9
  %15 = add %14, 2
  %16 = gep i32 %arg0, %0
  store %15, %16
  jump x
x:
  ret
}
"#;

/// `resp` answers `ok` for [`CLEAN_AND_FAULTY`] with `@clean` optimized and
/// `@faulty` degraded to its input under a diagnostic naming pass and site.
fn assert_clean_optimized_faulty_degraded(resp: &Response) -> &[darm_serve::proto::FunctionResult] {
    let Response::Ok { functions, ir, .. } = resp else {
        panic!("a contained fault still answers ok, got {resp:?}");
    };
    assert_eq!(functions.len(), 2);
    assert!(functions[0].optimized && functions[0].diagnostic.is_none());
    assert!(!functions[1].optimized, "{functions:?}");
    let diag = functions[1].diagnostic.as_deref().expect("diagnostic");
    assert!(
        diag.starts_with("@faulty: pass '") && diag.ends_with(')') && diag.contains(" (at "),
        "{diag}"
    );
    assert!(
        ir.contains(", t, e\n") && ir.contains(", t2, e2\n"),
        "baseline: {ir}"
    );
    functions
}

/// No fault in either arm below is a *service* panic, and nothing is
/// compiled twice: the stats carry no retry counter.
fn assert_contained_in_the_pipeline(engine: &Engine) {
    let stats = engine.stats_json();
    assert_eq!(
        stats.get("contained_panics").and_then(|n| n.as_u64()),
        Some(0)
    );
    assert!(!stats.to_string().contains("retr"), "{stats}");
    assert_eq!(engine.poisoned_locks(), 0);
}

/// One attempt, each function filed by its outcome — the budget half: the
/// request's one fuel budget runs dry inside `@faulty`, which degrades
/// *uncached* while `@clean` goes to the positive cache.
#[test]
fn one_attempt_files_a_budget_fault_uncached_next_to_an_optimized_function() {
    // Fuel counts budget polls survived, so the smallest allowance that
    // gets `@clean` through leaves nothing for `@faulty`.
    let (engine, fuel, first) = (1..64)
        .find_map(|fuel| {
            let engine = Engine::new(ServeConfig::default());
            let mut req = request(1, CLEAN_AND_FAULTY);
            req.fuel = Some(fuel);
            match compile(&engine, req) {
                Response::Ok { functions, .. } if !functions[0].optimized => None,
                first => Some((engine, fuel, first)),
            }
        })
        .expect("some fuel allowance compiles @clean");
    let functions = assert_clean_optimized_faulty_degraded(&first);
    assert!(functions[1]
        .diagnostic
        .as_deref()
        .is_some_and(|d| d.contains("fuel budget exhausted")));
    let mut repeat = request(2, CLEAN_AND_FAULTY);
    repeat.fuel = Some(fuel);
    match compile(&engine, repeat) {
        Response::Ok { functions, .. } => {
            assert!(functions[0].cached && functions[0].optimized);
            assert!(!functions[1].cached, "budget faults are never cached");
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(engine.cache_counters().negative_hits, 0);
    assert_contained_in_the_pipeline(&engine);
}

/// The deterministic half: an injected panic at `@faulty`'s second meld
/// degrades it alone, and the repeat is served from the positive *and* the
/// negative cache. The plan is process-global and the other tests of this
/// binary run beside this one — hit 2 is what keeps it off their
/// single-diamond kernels (hit counters are per function; the budget
/// test's `@faulty` runs dry before its first meld).
#[cfg(feature = "fault-injection")]
#[test]
fn one_attempt_files_a_deterministic_fault_in_the_negative_cache() {
    use darm_ir::fault::{self, FaultKind, FaultPlan};
    let engine = Engine::new(ServeConfig::default());
    fault::set_plan(Some(FaultPlan {
        site: "meld::codegen".to_string(),
        hit: 2,
        kind: FaultKind::Panic,
    }));
    let first = compile(&engine, request(1, CLEAN_AND_FAULTY));
    let second = compile(&engine, request(2, CLEAN_AND_FAULTY));
    fault::set_plan(None);
    let first = assert_clean_optimized_faulty_degraded(&first);
    assert!(!first[0].cached && !first[1].cached);
    // The second meld faults after the inner cleanup pipeline has run once:
    // the diagnostic still names the pass the fault was raised in.
    assert_eq!(
        first[1].diagnostic.as_deref(),
        Some("@faulty: pass 'meld': panicked: injected fault (at meld::codegen)")
    );
    let second = assert_clean_optimized_faulty_degraded(&second);
    assert!(second[0].cached && second[1].cached, "{second:?}");
    assert_eq!(second[1].diagnostic, first[1].diagnostic);
    let counters = engine.cache_counters();
    assert_eq!((counters.hits, counters.negative_hits), (1, 1));
    assert_eq!(
        engine.fast_hits(),
        0,
        "degraded responses are never memoized"
    );
    assert_contained_in_the_pipeline(&engine);
}
