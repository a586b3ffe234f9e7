//! Fault-injection properties for the `darm serve` engine (requires
//! `--features fault-injection`): with faults armed at the service-layer
//! sites — `serve::admit`, `serve::worker`, `serve::cache_lookup`,
//! `serve::cache_insert` — the daemon
//!
//! * stays **live**: every request is answered with a typed response,
//!   never a hang (all receives run under a timeout);
//! * stays **leak-free**: cache gauges respect their bounds and no
//!   engine lock is ever poisoned;
//! * stays **bit-deterministic**: responses for the same input are
//!   byte-identical whether they were computed before, between, or
//!   after contained faults (modulo the `cached` marker).
//!
//! The fault plan is process-global; tests serialize on [`PLAN_LOCK`].

#![cfg(feature = "fault-injection")]

use std::sync::mpsc;
use std::time::Duration;

use darm::ir::fault::{self, FaultKind, FaultPlan};
use darm::serve::proto::CompileRequest;
use darm::serve::{Engine, Response, ServeConfig};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that mutate the process-global fault plan.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

const SERVE_SITES: [&str; 4] = [
    "serve::admit",
    "serve::worker",
    "serve::cache_lookup",
    "serve::cache_insert",
];

const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Error, FaultKind::FuelExhaust];

const KERNEL: &str = r#"
fn @serve_fault(ptr(global) %arg0) -> void {
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

/// Submit and require a typed answer within the liveness deadline.
fn compile(engine: &Engine, req: CompileRequest) -> Response {
    let (tx, rx) = mpsc::channel();
    engine.submit(
        req,
        Box::new(move |resp| {
            let _ = tx.send(resp);
        }),
    );
    rx.recv_timeout(Duration::from_secs(60))
        .expect("daemon must answer every request (liveness)")
}

/// Response bytes with the cache marker normalized away — warm and cold
/// answers for the same input must agree on everything else.
fn normalized(resp: &Response) -> String {
    String::from_utf8(resp.to_bytes())
        .unwrap()
        .replace("\"cached\":true", "\"cached\":false")
}

/// Every service site × fault kind, exhaustively: the faulted request
/// gets a typed response, the next (clean) request compiles and matches
/// the fault-free reference byte for byte, and nothing is poisoned.
#[test]
fn every_service_site_contains_its_fault_and_the_daemon_recovers() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    // Fault-free reference response for the clean comparison.
    fault::set_plan(None);
    let reference = {
        let engine = Engine::new(ServeConfig::default());
        normalized(&compile(&engine, request(1, KERNEL)))
    };

    for site in SERVE_SITES {
        for kind in KINDS {
            // Hit counters are per thread. `serve::admit` and
            // `serve::cache_lookup` fire on the submitting (test) thread,
            // whose counters are reset explicitly; `serve::worker` and
            // `serve::cache_insert` fire on the worker, and a fresh engine
            // per combination gives it fresh counters.
            let engine = Engine::new(ServeConfig::default());
            fault::set_plan(Some(FaultPlan {
                site: site.to_string(),
                hit: 1,
                kind,
            }));
            fault::begin_function();
            let faulted = compile(&engine, request(1, KERNEL));
            match (&faulted, kind) {
                // Fuel exhaustion at a service site is a no-op (no
                // budget is installed outside the pipeline), so the
                // request sails through.
                (ok, FaultKind::FuelExhaust) if ok.ok_parts().is_some() => {}
                (
                    Response::Error {
                        kind: ek, message, ..
                    },
                    _,
                ) => {
                    assert_eq!(ek.as_str(), "internal", "{site}: {message}");
                    assert!(
                        message.contains(site),
                        "{site}/{kind:?}: diagnostic should name the site: {message}"
                    );
                }
                other => panic!("{site}/{kind:?}: unexpected response {other:?}"),
            }

            fault::set_plan(None);
            let clean = compile(&engine, request(1, KERNEL));
            assert!(
                clean.ok_parts().is_some(),
                "{site}/{kind:?}: daemon must recover, got {clean:?}"
            );
            assert_eq!(
                normalized(&clean),
                reference,
                "{site}/{kind:?}: post-fault output must be bit-identical"
            );
            assert_eq!(engine.poisoned_locks(), 0, "{site}/{kind:?}");
            engine.shutdown();
            assert_eq!(engine.poisoned_locks(), 0, "{site}/{kind:?} after drain");
        }
    }
}

/// `serve::cache_lookup` fires in `Engine::submit`, on the thread that
/// submits: armed at its second hit there, it faults the *warm* request
/// after a clean cold compile. That request gets a typed `internal` reply
/// naming the site, the next one replays the cold reply byte for byte,
/// and no lock is poisoned.
#[test]
fn a_lookup_fault_on_a_warm_request_is_contained_on_the_submitting_thread() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(ServeConfig::default());
    fault::set_plan(Some(FaultPlan {
        site: "serve::cache_lookup".to_string(),
        hit: 2,
        kind: FaultKind::Panic,
    }));
    fault::begin_function();
    let cold = compile(&engine, request(1, KERNEL));
    let faulted = compile(&engine, request(2, KERNEL));
    fault::set_plan(None);
    assert!(cold.ok_parts().is_some(), "{cold:?}");
    match &faulted {
        Response::Error { id, kind, message } => {
            assert_eq!((*id, kind.as_str()), (Some(2), "internal"));
            assert!(message.contains("serve::cache_lookup"), "{message}");
        }
        other => panic!("expected a contained lookup fault, got {other:?}"),
    }
    let warm = compile(&engine, request(1, KERNEL));
    assert_eq!(
        String::from_utf8(warm.to_bytes()).unwrap(),
        String::from_utf8(cold.to_bytes())
            .unwrap()
            .replace("\"cached\":false", "\"cached\":true")
    );
    assert_eq!(engine.fast_hits(), 1);
    assert_eq!(engine.poisoned_locks(), 0);
    engine.shutdown();
    assert_eq!(engine.poisoned_locks(), 0);
}

/// Deterministic compile faults inside the pipeline become *negative*
/// cache entries: the first request pays for the contained fault (and
/// the degrade retry), the repeat offender is served degraded from the
/// cache instantly — with the same diagnostic — and a clean plan plus
/// changed input compiles normally again.
#[test]
fn poisoned_modules_fail_fast_via_the_negative_cache() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let engine = Engine::new(ServeConfig::default());
    fault::set_plan(Some(FaultPlan {
        site: "meld::codegen".to_string(),
        hit: 1,
        kind: FaultKind::Panic,
    }));
    let first = compile(&engine, request(1, KERNEL));
    let (first_fns, first_ir) = match &first {
        Response::Ok { functions, ir, .. } => (functions, ir),
        other => panic!("degrade retry must produce ok, got {other:?}"),
    };
    assert!(!first_fns[0].optimized, "{first_fns:?}");
    assert!(!first_fns[0].cached);
    let diag = first_fns[0]
        .diagnostic
        .clone()
        .expect("degraded diagnostic");
    assert!(diag.contains("meld::codegen"), "{diag}");
    // Degraded means baseline: the output IR is the (fixed-up) input.
    assert!(
        first_ir.contains("br %2"),
        "baseline IR expected: {first_ir}"
    );

    // Repeat offender: served degraded from the negative cache without
    // re-tripping the fault (the plan is still armed — a re-compile
    // would fault again, a cache hit does not reach the pipeline).
    let second = compile(&engine, request(1, KERNEL));
    match &second {
        Response::Ok { functions, .. } => {
            assert!(functions[0].cached, "{functions:?}");
            assert!(!functions[0].optimized);
            assert_eq!(functions[0].diagnostic.as_ref(), Some(&diag));
        }
        other => panic!("expected cached degraded response, got {other:?}"),
    }
    assert_eq!(engine.cache_counters().negative_hits, 1);

    fault::set_plan(None);
    // The negative entry is keyed by content: the *same* input stays
    // pinned to its cached degraded result until it changes...
    let third = compile(&engine, request(1, KERNEL));
    match &third {
        Response::Ok { functions, .. } => assert!(!functions[0].optimized),
        other => panic!("{other:?}"),
    }
    // ...and a changed function compiles cleanly.
    let changed = KERNEL.replace(", 77", ", 78");
    let fourth = compile(&engine, request(2, &changed));
    match fourth.ok_parts() {
        Some((_, functions)) => {
            assert!(functions[0].optimized, "{functions:?}");
            assert!(!functions[0].cached);
        }
        None => panic!("{fourth:?}"),
    }
    assert_eq!(engine.poisoned_locks(), 0);
}

/// Budget exhaustion is *not* negatively cached: a request that
/// degrades on an impossible fuel budget compiles cleanly on the next
/// attempt with a workable one.
#[test]
fn budget_exhaustion_is_not_negatively_cached() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::set_plan(None);
    let engine = Engine::new(ServeConfig::default());
    let mut starved = request(1, KERNEL);
    starved.fuel = Some(1);
    let first = compile(&engine, starved);
    match &first {
        Response::Ok { functions, .. } => {
            assert!(!functions[0].optimized, "{functions:?}");
            let diag = functions[0].diagnostic.as_ref().unwrap();
            assert!(diag.contains("fuel"), "{diag}");
        }
        other => panic!("expected degraded response, got {other:?}"),
    }
    let second = compile(&engine, request(2, KERNEL));
    match second.ok_parts() {
        Some((_, functions)) => {
            assert!(
                functions[0].optimized,
                "starved run must not poison: {functions:?}"
            );
            assert!(!functions[0].cached, "no negative entry may exist");
        }
        None => panic!("{second:?}"),
    }
}

/// The soak property (satellite of the serve tentpole): a long request
/// stream with ~10% injected faults and constant content churn keeps
/// the daemon live, the cache inside its bounds, the answers
/// deterministic, and every lock unpoisoned through shutdown.
#[test]
fn soak_with_ten_percent_faults_stays_live_bounded_and_unpoisoned() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::set_plan(None);
    const CACHE_ENTRIES: usize = 16;
    const CACHE_BYTES: usize = 64 * 1024;
    let engine = Engine::new(ServeConfig {
        workers: 1,
        cache_entries: CACHE_ENTRIES,
        cache_bytes: CACHE_BYTES,
        ..ServeConfig::default()
    });

    let n = 120;
    let mut answered = 0;
    for i in 0..n {
        // Churn: 24 distinct modules cycling through a 16-entry cache,
        // so hits, misses and evictions all stay exercised.
        let ir = KERNEL.replace(", 77", &format!(", {}", 100 + (i % 24)));
        let faulted = i % 10 == 0;
        if faulted {
            fault::set_plan(Some(FaultPlan {
                site: SERVE_SITES[(i / 10) % SERVE_SITES.len()].to_string(),
                hit: 1,
                kind: if i % 20 == 0 {
                    FaultKind::Panic
                } else {
                    FaultKind::Error
                },
            }));
            fault::begin_function();
        }
        let resp = compile(&engine, request(i as u64, &ir));
        if faulted {
            fault::set_plan(None);
        }
        match resp {
            Response::Ok { .. } | Response::Rendered { .. } | Response::Error { .. } => {
                answered += 1
            }
            other => panic!("request {i}: unexpected {other:?}"),
        }
        // The RSS proxy: cache gauges never exceed their bounds.
        assert!(engine.cache_entries() <= CACHE_ENTRIES, "at request {i}");
        assert!(engine.cache_bytes() <= CACHE_BYTES, "at request {i}");
        assert!(engine.fast_entries() <= CACHE_ENTRIES, "at request {i}");
        assert_eq!(engine.poisoned_locks(), 0, "at request {i}");
    }
    assert_eq!(answered, n);

    // Determinism through the churn: one more warm/cold pair must agree.
    let probe = KERNEL.replace(", 77", ", 1000");
    let cold = compile(&engine, request(9001, &probe));
    let warm = compile(&engine, request(9001, &probe));
    assert!(cold.ok_parts().is_some());
    assert_eq!(normalized(&cold), normalized(&warm));

    let stats = engine.shutdown();
    let rendered = stats.to_string();
    assert!(rendered.contains("\"contained_panics\""), "{rendered}");
    assert_eq!(engine.poisoned_locks(), 0, "poisoned lock at shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random request streams with random fault placement: liveness,
    /// typed answers, determinism of repeated inputs, bounded cache,
    /// zero poisoned locks — for every stream.
    #[test]
    fn random_fault_streams_never_wedge_the_daemon(
        stream in proptest::collection::vec(
            (0u8..24, proptest::option::of((0usize..4, 0usize..3))),
            4..20,
        ),
    ) {
        let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        fault::set_plan(None);
        let engine = Engine::new(ServeConfig {
            workers: 1,
            cache_entries: 8,
            cache_bytes: 64 * 1024,
            ..ServeConfig::default()
        });
        // Canonical bytes per distinct input, collected as the stream
        // runs; every Ok answer for the same input must agree.
        let mut canon: std::collections::HashMap<u8, String> = std::collections::HashMap::new();
        for (i, &(variant, armed)) in stream.iter().enumerate() {
            let ir = KERNEL.replace(", 77", &format!(", {}", 200 + variant as i32));
            if let Some((site_idx, kind_idx)) = armed {
                fault::set_plan(Some(FaultPlan {
                    site: SERVE_SITES[site_idx].to_string(),
                    hit: 1,
                    kind: KINDS[kind_idx],
                }));
                fault::begin_function();
            }
            let resp = compile(&engine, request(variant as u64, &ir));
            fault::set_plan(None);
            match &resp {
                Response::Ok { .. } | Response::Rendered { .. } => {
                    let bytes = normalized(&resp);
                    let prev = canon.entry(variant).or_insert_with(|| bytes.clone());
                    prop_assert_eq!(
                        prev.as_str(), bytes.as_str(),
                        "request {} (variant {}): nondeterministic answer", i, variant
                    );
                }
                Response::Error { .. } => {}
                other => prop_assert!(false, "request {}: unexpected {:?}", i, other),
            }
            prop_assert!(engine.cache_entries() <= 8);
            prop_assert_eq!(engine.poisoned_locks(), 0);
        }
        engine.shutdown();
        prop_assert_eq!(engine.poisoned_locks(), 0);
    }
}
