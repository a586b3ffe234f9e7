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
//! The socket row sends each distinct module of the first round twice,
//! cold then warm, through `serve_stream` on a `UnixStream` pair, one
//! exchange (frame written, reply read) at a time, and prints the median
//! and the sum over modules of each module's fastest exchange across
//! interleaved rounds: a transport or reply-path change reads off it
//! without the ledger's one-shot `serve.transport_us`.
//!
//! `cargo bench --bench serve_replay` — interleaved min-estimator
//! measurement. `cargo bench --bench serve_replay -- --test` — smoke
//! mode (the CI gate): one cold and one warm replay, one socket round,
//! plus the guards.

use criterion::{criterion_group, criterion_main, Criterion};
use darm_bench::{fig8_cases, fig9_cases};
use darm_serve::json::Json;
use darm_serve::proto::{write_frame, CompileRequest, DEFAULT_MAX_FRAME};
use darm_serve::{serve_stream, Engine, Response, ServeConfig};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
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
            matches!(resp, Response::Ok { .. } | Response::Rendered { .. }),
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

/// One framed compile request for `ir`.
fn frame(id: u64, ir: &str) -> Vec<u8> {
    let body = Json::obj([
        ("id", Json::int(id)),
        ("ir", Json::str(ir)),
        ("op", Json::str("compile")),
    ]);
    let mut frame = Vec::new();
    write_frame(&mut frame, body.to_string().as_bytes()).expect("write to memory");
    frame
}

/// Writes one frame, reads one reply into `reply`; returns the seconds.
fn exchange(client: &mut UnixStream, frame: &[u8], reply: &mut Vec<u8>) -> f64 {
    let t = Instant::now();
    client.write_all(frame).expect("send request");
    let mut len = [0u8; 4];
    client.read_exact(&mut len).expect("read prefix");
    reply.resize(u32::from_be_bytes(len) as usize, 0);
    client.read_exact(reply).expect("read reply");
    t.elapsed().as_secs_f64()
}

/// One socket round on a fresh engine: every frame cold, then every frame
/// warm. Returns the seconds of each exchange, cold and warm, after
/// checking that each warm reply is its cold one with `cached` set.
fn socket_round(frames: &[Vec<u8>]) -> (Vec<f64>, Vec<f64>) {
    let engine = Engine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let (mut client, server) = UnixStream::pair().expect("socket pair");
    let server_out = server.try_clone().expect("clone socket");
    let mut reply = Vec::new();
    let times = std::thread::scope(|scope| {
        let engine = &engine;
        let daemon =
            scope.spawn(move || serve_stream(engine, server, server_out, DEFAULT_MAX_FRAME));
        let mut cold_replies = Vec::new();
        let cold: Vec<f64> = frames
            .iter()
            .map(|frame| {
                let secs = exchange(&mut client, frame, &mut reply);
                cold_replies.push(String::from_utf8(reply.clone()).expect("UTF-8 reply"));
                secs
            })
            .collect();
        let warm: Vec<f64> = frames
            .iter()
            .zip(&cold_replies)
            .map(|(frame, cold_reply)| {
                let secs = exchange(&mut client, frame, &mut reply);
                assert_eq!(
                    std::str::from_utf8(&reply).expect("UTF-8 reply"),
                    cold_reply.replace("\"cached\":false", "\"cached\":true"),
                    "a warm reply over the socket differs from its cold one"
                );
                secs
            })
            .collect();
        client
            .shutdown(std::net::Shutdown::Both)
            .expect("close socket");
        daemon
            .join()
            .expect("serve_stream thread")
            .expect("serve_stream");
        (cold, warm)
    });
    assert_eq!(engine.fast_hits(), frames.len() as u64);
    times
}

/// Median and sum, in µs, of each module's fastest exchange.
fn per_request_minima(rounds: &[Vec<f64>]) -> (f64, f64) {
    let mut minima: Vec<f64> = (0..rounds[0].len())
        .map(|i| rounds.iter().map(|r| r[i]).fold(f64::MAX, f64::min) * 1e6)
        .collect();
    minima.sort_by(f64::total_cmp);
    let sum = minima.iter().sum();
    (minima[minima.len() / 2], sum)
}

fn socket_row(stream: &[(u64, String)], rounds: usize) {
    // The first round of the stream: every suite kernel once.
    let distinct = stream.len() / 3;
    let frames: Vec<Vec<u8>> = stream[..distinct]
        .iter()
        .map(|(id, ir)| frame(*id, ir))
        .collect();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let (c, w) = socket_round(&frames);
        cold.push(c);
        warm.push(w);
    }
    let ((cold_p50, cold_sum), (warm_p50, warm_sum)) =
        (per_request_minima(&cold), per_request_minima(&warm));
    println!(
        "serve_replay socket: {distinct} modules × {rounds} rounds, per-module minima over `serve_stream` on a UnixStream pair"
    );
    println!("| exchange | median (µs) | sum (µs) |");
    println!("|---|---|---|");
    println!("| cold | {cold_p50:.1} | {cold_sum:.1} |");
    println!("| warm | {warm_p50:.2} | {warm_sum:.1} |");
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
        socket_row(&stream, 1);
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
    println!();
    socket_row(&stream, 40);
}

criterion_group!(benches, bench);
criterion_main!(benches);
