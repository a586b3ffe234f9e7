//! `darm serve` replay benchmark: the fig. 8 + fig. 9 kernel suite as a
//! compile-request stream with mutation churn, replayed against one
//! persistent engine — cold (empty cache) vs warm (primed cache).
//!
//! The stream is three rounds over every suite kernel; each round a
//! rotating quarter of the kernels "mutates" (new content hash, here a
//! version-suffixed name), the rest replay unchanged — the incremental
//! rebuild shape the serve cache exists for. The cold pass replays the
//! stream against a fresh engine (every unique content compiles once);
//! the warm pass replays the *same* stream against the now-primed
//! engine (every request hits). The cold/warm wall-clock ratio is
//! printed, not gated: serve speed is the ledger's absolute `serve_*`
//! metrics under `scripts/bench_pair.sh`.
//!
//! A determinism guard runs in both modes: every warm response must be
//! byte-identical to its cold counterpart (modulo the `cached` marker),
//! which exercises the sorted-key JSON rendering end to end.
//!
//! `cargo bench --bench serve_replay` — interleaved min-estimator
//! measurement. `cargo bench --bench serve_replay -- --test` — smoke
//! mode (the CI gate): one cold and one warm replay plus the guards.

use criterion::{criterion_group, criterion_main, Criterion};
use darm_bench::{fig8_cases, fig9_cases};
use darm_serve::proto::CompileRequest;
use darm_serve::{Engine, Response, ServeConfig};
use std::sync::mpsc;
use std::time::Instant;

/// The replayed request stream: `(id, module text)` per request.
fn build_stream() -> Vec<(u64, String)> {
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    let mut stream = Vec::new();
    let mut id = 0u64;
    for round in 0..3usize {
        for (i, case) in cases.iter().enumerate() {
            // Rotating churn: in rounds 1 and 2 a quarter of the
            // kernels carries fresh content (a version-suffixed name
            // changes the content hash exactly like an edit would).
            let version = if round > 0 && (i + round) % 4 == 0 {
                round
            } else {
                0
            };
            let mut func = case.func.clone();
            func.set_name(&format!("{}_{i}_v{version}", func.name()));
            stream.push((id, func.to_string()));
            id += 1;
        }
    }
    stream
}

/// Replay the stream sequentially; returns the wall seconds and every
/// response rendered to bytes with the cache marker normalized.
fn replay(engine: &Engine, stream: &[(u64, String)]) -> (f64, Vec<String>) {
    let mut rendered = Vec::with_capacity(stream.len());
    let t0 = Instant::now();
    for (id, ir) in stream {
        let (tx, rx) = mpsc::channel();
        engine.submit(
            CompileRequest {
                id: *id,
                ir: ir.clone(),
                spec: None,
                timeout_ms: None,
                fuel: None,
            },
            Box::new(move |resp| {
                let _ = tx.send(resp);
            }),
        );
        let resp = rx.recv().expect("serve answered");
        assert!(
            matches!(resp, Response::Ok { .. }),
            "suite kernel failed to compile: {resp:?}"
        );
        rendered.push(
            String::from_utf8(resp.to_bytes())
                .unwrap()
                .replace("\"cached\":true", "\"cached\":false"),
        );
    }
    (t0.elapsed().as_secs_f64(), rendered)
}

fn cold_and_warm(stream: &[(u64, String)]) -> (f64, f64) {
    let engine = Engine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (cold_wall, cold_responses) = replay(&engine, stream);
    let (warm_wall, warm_responses) = replay(&engine, stream);
    assert_eq!(
        cold_responses, warm_responses,
        "warm replay diverged from cold — responses must be bit-identical"
    );
    engine.shutdown();
    assert_eq!(engine.poisoned_locks(), 0);
    (cold_wall, warm_wall)
}

fn bench(c: &mut Criterion) {
    let stream = build_stream();

    if c.is_test_mode() {
        let (cold, warm) = cold_and_warm(&stream);
        let ratio = cold / warm;
        println!(
            "serve_replay smoke: {} requests, cold {:.1} ms, warm {:.1} ms — warm {:.1}x faster",
            stream.len(),
            cold * 1e3,
            warm * 1e3,
            ratio
        );
        return;
    }

    // Interleaved min-estimator: each round spins up a fresh engine for
    // the cold pass and reuses it primed for the warm pass.
    let rounds = 5;
    let (mut cold_min, mut warm_min) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        let (cold, warm) = cold_and_warm(&stream);
        cold_min = cold_min.min(cold);
        warm_min = warm_min.min(warm);
    }
    let ratio = cold_min / warm_min;
    println!();
    println!(
        "serve_replay: {} requests (fig8+fig9 × 3 rounds, 25% churn)",
        stream.len()
    );
    println!("| phase | wall (ms) |");
    println!("|---|---|");
    println!("| cold | {:.3} |", cold_min * 1e3);
    println!("| warm | {:.3} |", warm_min * 1e3);
    println!("warm-vs-cold throughput: {ratio:.1}x");
}

criterion_group!(benches, bench);
criterion_main!(benches);
