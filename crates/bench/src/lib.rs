#![warn(missing_docs)]

//! # darm-bench
//!
//! The experiment harness: regenerates every table and figure of the DARM
//! paper's evaluation (§VI) on the SIMT simulator. Each `fig*`/`table*`
//! binary prints one artifact; the `report` binary prints them all (and is
//! the source of EXPERIMENTS.md).
//!
//! Correctness is enforced throughout: every transformed kernel variant is
//! checked against the CPU reference before its numbers are reported.

use darm_ir::Module;
use darm_kernels::synthetic::SyntheticKind;
use darm_kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad, BenchCase};
use darm_melding::{meld_function, MeldConfig, MeldStats};
use darm_pipeline::{ModuleOptions, ModulePassManager, PipelineError, PipelineOptions};
use darm_simt::{BytecodeKernel, GpuConfig, KernelStats, TimingConfig};

/// Counters for the three variants of one benchmark case.
#[derive(Debug, Clone)]
pub struct VariantStats {
    /// Case display name (e.g. `BIT64`).
    pub name: String,
    /// Hand-written baseline (the paper's `-O3`).
    pub baseline: KernelStats,
    /// After the DARM pass.
    pub darm: KernelStats,
    /// After the branch-fusion baseline pass.
    pub bf: KernelStats,
    /// DARM melding statistics (subgraphs, replications, ...).
    pub meld: darm_melding::MeldStats,
}

impl VariantStats {
    /// DARM speedup over the baseline (ratio of heuristic warp cycles).
    pub fn darm_speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.darm.cycles as f64
    }

    /// Branch-fusion speedup over the baseline.
    pub fn bf_speedup(&self) -> f64 {
        self.baseline.cycles as f64 / self.bf.cycles as f64
    }

    /// DARM speedup in *simulated* cycles from the cycle-level timing
    /// model (issue slots + scoreboard stalls + memory occupancy).
    /// `1.0` when the rows were collected without timing enabled.
    pub fn darm_cycle_speedup(&self) -> f64 {
        if self.darm.sim_cycles == 0 {
            1.0
        } else {
            self.baseline.sim_cycles as f64 / self.darm.sim_cycles as f64
        }
    }

    /// Branch-fusion speedup in simulated cycles.
    pub fn bf_cycle_speedup(&self) -> f64 {
        if self.bf.sim_cycles == 0 {
            1.0
        } else {
            self.baseline.sim_cycles as f64 / self.bf.sim_cycles as f64
        }
    }
}

/// The [`GpuConfig`] the harness runs figure cases under: defaults plus
/// the cycle-level timing observer, so every table can report simulated
/// cycles next to the architectural counters.
pub fn timed_gpu_config() -> GpuConfig {
    GpuConfig {
        timing: TimingConfig::on(),
        ..GpuConfig::default()
    }
}

/// The three kernel variants of a case, lowered to bytecode once each so
/// repeated launches (criterion samples, threshold sweeps, counter reruns)
/// skip the per-launch lowering and analysis cost.
#[derive(Debug, Clone)]
pub struct KernelVariants {
    /// Hand-written baseline.
    pub baseline: BytecodeKernel,
    /// DARM-melded variant.
    pub darm: BytecodeKernel,
    /// Branch-fusion variant.
    pub bf: BytecodeKernel,
    /// DARM melding statistics for the `darm` variant.
    pub meld: darm_melding::MeldStats,
}

/// Melds and lowers the three variants of `case` once, for reuse across
/// launches, with explicit pipeline options (e.g. SSA verification
/// between passes). Variant construction runs through the module driver
/// ([`prepare_suite`] with a one-kernel suite).
///
/// # Errors
///
/// Propagates pipeline failures (with `verify_each`, SSA violations
/// between passes).
pub fn prepare_variants_checked(
    case: &BenchCase,
    config: &MeldConfig,
    options: PipelineOptions,
) -> Result<KernelVariants, PipelineError> {
    let mut variants = prepare_suite(std::slice::from_ref(case), config, options, 1)?;
    Ok(variants.pop().expect("one case in, one variant set out"))
}

/// Collects every case's kernel into one [`Module`], with names
/// uniquified by case index (block-size sweeps reuse kernel names). The
/// one module-construction path shared by [`prepare_suite`], the
/// threshold sweep and the `module_batch` bench.
pub fn suite_module(name: &str, cases: &[BenchCase]) -> Module {
    let mut m = Module::new(name);
    for (i, case) in cases.iter().enumerate() {
        let mut f = case.func.clone();
        f.set_name(&format!("{}.{i}", f.name()));
        m.add_function(f)
            .expect("index-suffixed kernel names are unique");
    }
    m
}

/// Melds a whole suite in two module batches — all DARM variants, then all
/// BF variants — through one [`ModulePassManager`] each, and lowers every
/// variant to bytecode. `jobs` is the worker count per batch (`0` = all
/// cores, `1` = serial); the result is bit-identical regardless.
///
/// # Errors
///
/// Propagates the first (in suite order) pipeline failure.
pub fn prepare_suite(
    cases: &[BenchCase],
    config: &MeldConfig,
    options: PipelineOptions,
    jobs: usize,
) -> Result<Vec<KernelVariants>, PipelineError> {
    let module_options = ModuleOptions {
        pipeline: options,
        jobs,
        ..ModuleOptions::default()
    };
    let registry = darm_melding::registry(config);
    let mut darm_module = suite_module("suite-darm", cases);
    let darm_report =
        ModulePassManager::compile(&registry, "meld", module_options.clone(), &mut darm_module)?;
    // The BF baseline always runs the paper's branch-fusion configuration,
    // independent of the DARM config under study.
    let bf_registry = darm_melding::registry(&MeldConfig::branch_fusion());
    let mut bf_module = suite_module("suite-bf", cases);
    ModulePassManager::compile(&bf_registry, "meld", module_options, &mut bf_module)?;

    let darm_fns = darm_module.into_functions();
    let bf_fns = bf_module.into_functions();
    Ok(cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            // Per-function melding statistics come back through the meld
            // pass's named stat entries in the module report.
            let meld = MeldStats::from_report(&darm_report.functions[i].report);
            KernelVariants {
                baseline: BytecodeKernel::new(&case.func),
                darm: BytecodeKernel::new(&darm_fns[i]),
                bf: BytecodeKernel::new(&bf_fns[i]),
                meld,
            }
        })
        .collect())
}

/// Runs baseline, DARM and BF variants of a case, checking each against the
/// CPU reference.
pub fn run_case(case: &BenchCase) -> VariantStats {
    run_case_with(case, &MeldConfig::default())
}

/// Same as [`run_case`] with a custom DARM configuration.
pub fn run_case_with(case: &BenchCase, config: &MeldConfig) -> VariantStats {
    let mut rows = run_cases_with(std::slice::from_ref(case), config, 1);
    rows.pop().expect("one case in, one row out")
}

/// Runs a whole suite: melds every kernel in one module batch (see
/// [`prepare_suite`]; `jobs` workers), then executes and checks the three
/// variants of each case against the CPU reference, in suite order.
pub fn run_cases(cases: &[BenchCase], jobs: usize) -> Vec<VariantStats> {
    run_cases_with(cases, &MeldConfig::default(), jobs)
}

/// [`run_cases`] with a custom DARM configuration.
pub fn run_cases_with(cases: &[BenchCase], config: &MeldConfig, jobs: usize) -> Vec<VariantStats> {
    let prepared = prepare_suite(cases, config, PipelineOptions::default(), jobs)
        .unwrap_or_else(|e| panic!("suite meld pipeline failed: {e}"));
    let gpu_config = timed_gpu_config();
    cases
        .iter()
        .zip(prepared)
        .map(|(case, p)| {
            let baseline = case.run_checked_bytecode(&p.baseline, gpu_config).stats;
            let darm = case.run_checked_bytecode(&p.darm, gpu_config).stats;
            let bf = case.run_checked_bytecode(&p.bf, gpu_config).stats;
            VariantStats {
                name: case.name.clone(),
                baseline,
                darm,
                bf,
                meld: p.meld,
            }
        })
        .collect()
}

/// Geometric mean. Empty input yields `1.0` (the empty product), so a
/// geomean over a filtered-out row set renders as "no change" rather than
/// `NaN`.
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0u32);
    for x in xs {
        log_sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

/// The synthetic benchmark grid of Fig. 8.
pub fn fig8_cases() -> Vec<BenchCase> {
    let mut cases = Vec::new();
    for kind in SyntheticKind::all() {
        for bs in [32, 64, 128, 256] {
            cases.push(darm_kernels::synthetic::build_case(kind, bs));
        }
    }
    cases
}

/// The real-world benchmark grid of Fig. 9 (same block-size sweeps as the
/// paper).
pub fn fig9_cases() -> Vec<BenchCase> {
    let mut cases = Vec::new();
    for bs in [32, 64, 128, 256] {
        cases.push(bitonic::build_case(bs));
    }
    for bs in [32, 64, 128, 256] {
        cases.push(pcm::build_case(bs));
    }
    for bs in [32, 64, 128, 256] {
        cases.push(mergesort::build_case(bs));
    }
    for bs in [16, 32, 64, 128] {
        cases.push(lud::build_case(bs));
    }
    for bs in [64, 96, 128, 256] {
        cases.push(nqueens::build_case(bs));
    }
    for block in [(16, 16), (32, 32)] {
        cases.push(srad::build_case(block));
    }
    for block in [(4, 4), (8, 8), (16, 16)] {
        cases.push(dct::build_case(block));
    }
    cases
}

/// One representative case per real-world benchmark, at the block size the
/// paper focuses its counter analysis on (§VI-C/D: "block sizes where DARM
/// has highest improvement").
pub fn counter_cases() -> Vec<BenchCase> {
    vec![
        bitonic::build_case(64),
        pcm::build_case(64),
        mergesort::build_case(64),
        lud::build_case(32),
        nqueens::build_case(64),
        srad::build_case((16, 16)),
        dct::build_case((8, 8)),
    ]
}

/// Renders a speedup table (Fig. 8 / Fig. 9 style) as markdown-ish text.
/// The first two columns are the paper's heuristic warp-cycle ratio; the
/// "sim-cycle" columns are the cycle-level timing model's verdict on the
/// same runs (IPDOM stack + issue slots + scoreboard + memory occupancy).
pub fn render_speedups(title: &str, rows: &[VariantStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(
        "| benchmark | DARM speedup | BF speedup | DARM sim-cycle | BF sim-cycle | melded subgraphs |\n",
    );
    out.push_str("|---|---|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.3} | {:.3} | {} |\n",
            r.name,
            r.darm_speedup(),
            r.bf_speedup(),
            r.darm_cycle_speedup(),
            r.bf_cycle_speedup(),
            r.meld.melded_subgraphs
        ));
    }
    out.push_str(&format!(
        "| **GM** | **{:.3}** | **{:.3}** | **{:.3}** | **{:.3}** | |\n",
        geomean(rows.iter().map(VariantStats::darm_speedup)),
        geomean(rows.iter().map(VariantStats::bf_speedup)),
        geomean(rows.iter().map(VariantStats::darm_cycle_speedup)),
        geomean(rows.iter().map(VariantStats::bf_cycle_speedup)),
    ));
    out
}

/// Fig. 10: ALU utilization (%) for O3 / DARM / BF.
pub fn render_alu_utilization(rows: &[VariantStats]) -> String {
    let mut out = String::new();
    out.push_str("## Figure 10 — ALU utilization (%)\n\n");
    out.push_str("| benchmark | O3 | DARM | BF |\n|---|---|---|---|\n");
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} |\n",
            r.name,
            r.baseline.alu_utilization(),
            r.darm.alu_utilization(),
            r.bf.alu_utilization()
        ));
    }
    out
}

/// Fig. 11: memory instruction counters normalized to the baseline.
pub fn render_memory_counters(rows: &[VariantStats]) -> String {
    let norm = |v: u64, base: u64| {
        if base == 0 {
            1.0
        } else {
            v as f64 / base as f64
        }
    };
    let mut out = String::new();
    out.push_str("## Figure 11 — normalized memory instruction counters\n\n");
    out.push_str(
        "| benchmark | vector mem RD+WR (DARM) | vector mem RD+WR (BF) | shared mem (DARM) | shared mem (BF) |\n|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.2} | {:.2} |\n",
            r.name,
            norm(r.darm.global_mem_insts, r.baseline.global_mem_insts),
            norm(r.bf.global_mem_insts, r.baseline.global_mem_insts),
            norm(r.darm.shared_mem_insts, r.baseline.shared_mem_insts),
            norm(r.bf.shared_mem_insts, r.baseline.shared_mem_insts),
        ));
    }
    out
}

/// Fig. 12: DARM speedup across melding-profitability thresholds.
///
/// Each sweep point is a plain pipeline spec — `meld(threshold=T)` — run
/// over all counter kernels in one module batch, so the ablation needs no
/// Rust-level configuration at all.
pub fn render_threshold_sweep(thresholds: &[f64]) -> String {
    let cases = counter_cases();
    let registry = darm_melding::registry(&MeldConfig::default());
    let baselines: Vec<KernelStats> = cases
        .iter()
        .map(|case| case.run_checked(&case.func).stats)
        .collect();
    // speedups[case][threshold]
    let mut speedups = vec![Vec::with_capacity(thresholds.len()); cases.len()];
    for &t in thresholds {
        let spec = format!("meld(threshold={t})");
        let mut module = suite_module("threshold-sweep", &cases);
        ModulePassManager::compile(
            &registry,
            &spec,
            ModuleOptions::serial(PipelineOptions::default()),
            &mut module,
        )
        .unwrap_or_else(|e| panic!("sweep spec `{spec}`: {e}"));
        for (i, case) in cases.iter().enumerate() {
            let stats = case.run_checked(&module.functions()[i]).stats;
            speedups[i].push(baselines[i].cycles as f64 / stats.cycles as f64);
        }
    }
    let mut out = String::new();
    out.push_str("## Figure 12 — profitability-threshold sensitivity\n\n");
    out.push_str("| benchmark |");
    for t in thresholds {
        out.push_str(&format!(" {t} |"));
    }
    out.push_str("\n|---|");
    for _ in thresholds {
        out.push_str("---|");
    }
    out.push('\n');
    for (case, row) in cases.iter().zip(&speedups) {
        out.push_str(&format!("| {} |", case.name));
        for s in row {
            out.push_str(&format!(" {s:.3} |"));
        }
        out.push('\n');
    }
    out
}

/// Table I: the capability matrix (which technique melds which pattern).
pub fn render_capability_matrix() -> String {
    use darm_melding::tail_merge;
    // A technique "handles" a pattern when it actually reduces simulated
    // cycles (merging empty join blocks does not count).
    let improves = |case: &BenchCase, f: darm_ir::Function| {
        let base = case.run_checked(&case.func).stats.cycles as f64;
        let got = case.run_checked(&f).stats.cycles as f64;
        base / got > 1.02
    };
    let melds = |case: &BenchCase, cfg: &MeldConfig| {
        let mut f = case.func.clone();
        meld_function(&mut f, cfg);
        improves(case, f)
    };
    let tm = |case: &BenchCase| {
        let mut f = case.func.clone();
        tail_merge(&mut f);
        improves(case, f)
    };
    let tick = |b: bool| if b { "yes" } else { "no" };
    let rows: [(&str, BenchCase); 3] = [
        (
            "diamond, identical sequences",
            darm_kernels::synthetic::build_case(SyntheticKind::Sb1, 32),
        ),
        (
            "diamond, distinct sequences",
            darm_kernels::synthetic::build_case(SyntheticKind::Sb1R, 32),
        ),
        (
            "complex control flow",
            darm_kernels::synthetic::build_case(SyntheticKind::Sb2, 32),
        ),
    ];
    let mut out = String::new();
    out.push_str("## Table I — divergence-reduction capability matrix\n\n");
    out.push_str("| control-flow & instruction pattern | tail merging | branch fusion | DARM |\n|---|---|---|---|\n");
    for (label, case) in rows {
        out.push_str(&format!(
            "| {label} | {} | {} | {} |\n",
            tick(tm(&case)),
            tick(melds(&case, &MeldConfig::branch_fusion())),
            tick(melds(&case, &MeldConfig::default())),
        ));
    }
    out
}

/// Table II: compile-time overhead of the DARM pass, normalized against the
/// baseline cleanup pipeline (simplify-cfg + DCE, our `-O3` stand-in).
pub fn render_compile_times() -> String {
    use std::time::Instant;
    let mut out = String::new();
    out.push_str("## Table II — compile time (ms, average of 10 runs)\n\n");
    out.push_str("| benchmark | O3 | O3+DARM | normalized |\n|---|---|---|---|\n");
    for case in counter_cases() {
        let reps = 10;
        let t0 = Instant::now();
        for _ in 0..reps {
            let mut f = case.func.clone();
            darm_transforms::simplify_cfg(&mut f);
            darm_transforms::run_dce(&mut f);
        }
        let base = t0.elapsed().as_secs_f64() / reps as f64;
        let t1 = Instant::now();
        for _ in 0..reps {
            let mut f = case.func.clone();
            darm_transforms::simplify_cfg(&mut f);
            darm_transforms::run_dce(&mut f);
            meld_function(&mut f, &MeldConfig::default());
        }
        let with_darm = t1.elapsed().as_secs_f64() / reps as f64;
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {:.4} |\n",
            case.name,
            base * 1e3,
            with_darm * 1e3,
            with_darm / base
        ));
    }
    out
}
