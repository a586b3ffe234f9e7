//! Module-batch compile-time benchmark: the full fig. 8 + fig. 9 kernel
//! suite melded as one `darm_ir::Module` through one `ModulePassManager`,
//! serial (`jobs = 1`) vs parallel (all cores), with a determinism guard —
//! the parallel module must print bit-identical to the serial one.
//!
//! Methodology: interleaved rounds with the
//! *minimum* wall-clock as the estimator (noise only ever adds time), the
//! `Module::clone` cost measured separately and excluded from the ratio.
//!
//! `cargo bench --bench module_batch` — measure serial vs parallel.
//! `cargo bench --bench module_batch -- --test` — smoke mode (the CI
//! gate): one serial and one `--jobs 2` run over the whole suite, asserted
//! bit-identical, plus a check that the worker pool's schedule really is
//! largest-kernel-first. Both modes print the serial-vs-parallel wall
//! ratio; it is machine-dependent and held to no floor.

use criterion::{criterion_group, criterion_main, Criterion};
use darm_bench::{fig8_cases, fig9_cases, suite_module};
use darm_ir::Module;
use darm_kernels::BenchCase;
use darm_melding::MeldConfig;
use darm_pipeline::{ModuleOptions, ModulePassManager, PassRegistry, PipelineOptions};
use std::time::Instant;

fn all_cases() -> Vec<BenchCase> {
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    cases
}

/// Melds a clone of `module` with `jobs` workers; returns the transformed
/// module and the wall-clock seconds of the pipeline run alone (the clone
/// is excluded).
fn meld_with_jobs(registry: &PassRegistry, module: &Module, jobs: usize) -> (Module, f64) {
    let mpm = ModulePassManager::new(
        registry,
        "meld",
        ModuleOptions {
            pipeline: PipelineOptions::default(),
            jobs,
            ..ModuleOptions::default()
        },
    )
    .expect("the meld spec is valid");
    let mut m = module.clone();
    let t0 = Instant::now();
    let report = mpm.run(&mut m).expect("suite melds cleanly");
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(report.functions.len(), module.len());
    (m, wall)
}

fn bench(c: &mut Criterion) {
    let cases = all_cases();
    let module = suite_module("fig8+fig9", &cases);
    let registry = darm_melding::registry(&MeldConfig::default());

    // Cross-kernel scheduling guard, in both modes: the worker pool must
    // claim kernels largest-first (descending live block + inst count,
    // input order breaking ties) — the fig8+fig9 suite is size-skewed, so
    // a sorted schedule is a real reordering here.
    {
        let mpm = ModulePassManager::new(&registry, "meld", ModuleOptions::default())
            .expect("the meld spec is valid");
        let order = mpm.scheduled_order(&module);
        let size = |i: usize| {
            let f = &module.functions()[i];
            f.live_block_count() + f.live_inst_count()
        };
        for w in order.windows(2) {
            assert!(
                size(w[0]) > size(w[1]) || (size(w[0]) == size(w[1]) && w[0] < w[1]),
                "schedule not largest-first: {:?} (sizes {} vs {})",
                w,
                size(w[0]),
                size(w[1])
            );
        }
        assert_ne!(
            order,
            (0..module.len()).collect::<Vec<_>>(),
            "suite is size-skewed; a largest-first schedule must reorder it"
        );
    }

    // Determinism guard, in both modes: a parallel run must produce a
    // module that prints bit-identical to the serial run's despite the
    // out-of-input-order schedule.
    let (serial, _) = meld_with_jobs(&registry, &module, 1);
    let (parallel2, _) = meld_with_jobs(&registry, &module, 2);
    assert_eq!(
        serial.to_string(),
        parallel2.to_string(),
        "--jobs 2 output diverged from --jobs 1"
    );

    if c.is_test_mode() {
        println!(
            "module_batch guard: {} kernels, --jobs 2 bit-identical to serial (largest-first schedule)",
            module.len()
        );
        // Interleaved min over a few rounds: single-shot wall ratios are
        // too noisy to read.
        let (mut t1, mut t2) = (f64::MAX, f64::MAX);
        for _ in 0..3 {
            t1 = t1.min(meld_with_jobs(&registry, &module, 1).1);
            t2 = t2.min(meld_with_jobs(&registry, &module, 2).1);
        }
        println!("module_batch smoke: --jobs 2 at {:.2}x of serial", t1 / t2);
        return;
    }

    let jobs = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (parallel_n, _) = meld_with_jobs(&registry, &module, jobs);
    assert_eq!(
        serial.to_string(),
        parallel_n.to_string(),
        "--jobs {jobs} output diverged from --jobs 1"
    );

    // Interleaved min-estimator comparison.
    let rounds = 6;
    let mut t_serial = f64::MAX;
    let mut t_parallel = f64::MAX;
    for _ in 0..rounds {
        t_serial = t_serial.min(meld_with_jobs(&registry, &module, 1).1);
        t_parallel = t_parallel.min(meld_with_jobs(&registry, &module, jobs).1);
    }
    println!();
    println!("module_batch: {} kernels (fig8+fig9)", module.len());
    println!("| jobs | wall (ms) |");
    println!("|---|---|");
    println!("| 1 | {:.3} |", t_serial * 1e3);
    println!("| {jobs} | {:.3} |", t_parallel * 1e3);
    println!(
        "parallel speedup: {:.2}x on {jobs} workers (output bit-identical to serial)",
        t_serial / t_parallel
    );
}

criterion_group!(benches, bench);
criterion_main!(benches);
