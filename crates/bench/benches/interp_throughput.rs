//! Interpreter-throughput microbenchmark of the bytecode engine against
//! the per-lane reference interpreter, on the fig. 9 real-world kernel
//! set.
//!
//! Reports per-case criterion timings for both plus a summary table of
//! simulated thread-instructions per second and the geomean speedup.
//! Acceptance target, asserted on full runs: the bytecode engine at
//! **≥2.6×** the reference.
//!
//! `cargo bench --bench interp_throughput` — measure.
//! `cargo bench --bench interp_throughput -- --test` — smoke mode: both
//! run every case once and the stats are cross-checked, then a quick
//! min-estimator ratio is recorded through [`darm_bench::perfjson`] (key
//! `interp_throughput/bytecode_vs_reference`) for the perf gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darm_bench::{fig9_cases, geomean, perfjson};
use darm_kernels::BenchCase;
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelStats};
use std::time::Instant;

/// Runs `case` on the reference (per-lane, arena-walking) interpreter.
/// Like the helper below: fresh buffers, no readback, so timings compare
/// launch cost alone, symmetrically across engines.
fn run_reference(case: &BenchCase) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_reference(&case.func, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", case.name))
}

/// Runs `case` on the bytecode engine.
fn run_bytecode(case: &BenchCase, bk: &BytecodeKernel) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_bytecode(bk, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: bytecode run failed: {e}", case.name))
}

/// Times `f` over enough repetitions to fill roughly `budget` seconds,
/// returning seconds per call.
fn time_per_call_budget(budget: f64, mut f: impl FnMut()) -> f64 {
    // Warm up and size the batch.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-6);
    let reps = ((budget / once).ceil() as usize).clamp(3, 200);
    let t1 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t1.elapsed().as_secs_f64() / reps as f64
}

/// Full-run timing: ~100 ms per measurement.
fn time_per_call(f: impl FnMut()) -> f64 {
    time_per_call_budget(0.1, f)
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let cases = fig9_cases();

    // Criterion-style per-case timings.
    let mut group = c.benchmark_group("interp_throughput");
    group.sample_size(10);
    for case in &cases {
        let bk = BytecodeKernel::new(&case.func);
        group.bench_with_input(BenchmarkId::new("bytecode", &case.name), case, |b, case| {
            b.iter(|| run_bytecode(case, &bk))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", &case.name),
            case,
            |b, case| b.iter(|| run_reference(case)),
        );
    }
    group.finish();

    if test_mode {
        // Smoke mode: one untimed cross-check, then a quick min-estimator
        // ratio for the perf gate.
        let mut bc_vs_ref = Vec::new();
        for case in &cases {
            let bk = BytecodeKernel::new(&case.func);
            assert_eq!(
                run_bytecode(case, &bk),
                run_reference(case),
                "{}: bytecode vs reference disagree",
                case.name
            );
            let t_bc = time_per_call_budget(0.03, || {
                run_bytecode(case, &bk);
            });
            let t_ref = time_per_call_budget(0.03, || {
                run_reference(case);
            });
            println!(
                "interp_throughput smoke: {:<10} bytecode {:.2}x reference",
                case.name,
                t_ref / t_bc
            );
            bc_vs_ref.push(t_ref / t_bc);
        }
        let gm_ref = geomean(bc_vs_ref.iter().copied());
        println!("interp_throughput: smoke mode — both engines agree on all fig9 cases");
        println!("interp_throughput smoke: bytecode at {gm_ref:.2}x reference");
        perfjson::record("interp_throughput/bytecode_vs_reference", gm_ref);
        return;
    }

    // Summary: simulated thread-instructions per second for both engines,
    // and the geomean speedup.
    let mut bc_vs_ref = Vec::new();
    println!();
    println!("| case | ops | regs | bytecode Minstr/s | reference Minstr/s | bc/ref |");
    println!("|---|---|---|---|---|---|");
    for case in &cases {
        let bk = BytecodeKernel::new(&case.func);
        let insts = run_bytecode(case, &bk).thread_instructions as f64;
        let bc = insts
            / time_per_call(|| {
                run_bytecode(case, &bk);
            });
        let refc = insts
            / time_per_call(|| {
                run_reference(case);
            });
        println!(
            "| {} | {} | {} | {:.1} | {:.1} | {:.2}x |",
            case.name,
            bk.op_count(),
            bk.register_slots(),
            bc / 1e6,
            refc / 1e6,
            bc / refc
        );
        bc_vs_ref.push(bc / refc);
    }
    let gm_bc_ref = geomean(bc_vs_ref.iter().copied());
    println!("| **GM** | | | | | **{gm_bc_ref:.2}x** |");
    perfjson::record(
        "measured/interp_throughput/bytecode_vs_reference",
        gm_bc_ref,
    );
    assert!(
        gm_bc_ref >= 2.6,
        "bytecode engine geomean speedup {gm_bc_ref:.2}x over the reference interpreter is \
         below the 2.6x acceptance target"
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
