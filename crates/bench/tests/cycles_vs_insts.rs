//! Differential smoke for the cycle-level timing observer over the real
//! benchmark grids: enabling timing must change *nothing* architectural —
//! buffers, instruction counters, errors — across every figure kernel ×
//! {baseline, DARM, BF}, must be deterministic, must reproduce the
//! timeline recorded from the (since deleted) unfused decoded engine entry
//! for entry, and DARM must show a simulated-cycle win on the fig9 suite.

use darm_bench::{fig8_cases, fig9_cases, geomean, prepare_suite, timed_gpu_config, VariantStats};
use darm_kernels::BenchCase;
use darm_melding::MeldConfig;
use darm_pipeline::PipelineOptions;
use darm_serve::json::Json;
use darm_simt::{BytecodeKernel, GpuConfig, KernelStats};
use std::collections::HashMap;

/// Timing-on `KernelStats` of every fig8+fig9 kernel × variant as the
/// decoded engine reported them — the only independent check that the
/// fused `CmpBr`/`GepLoad`/`GepStore` ops charge the same timeline as the
/// unfused sequence (the reference interpreter reports `sim_* = 0`).
const GOLDEN: &str = include_str!("golden/decoded_timing_stats.txt");

/// One table row. The exhaustive destructuring makes a new `KernelStats`
/// field a compile error here, so the table cannot silently go partial.
fn render_row(label: &str, s: &KernelStats) -> String {
    let KernelStats {
        cycles,
        warp_instructions,
        thread_instructions,
        alu_issues,
        alu_active_lanes,
        global_mem_insts,
        shared_mem_insts,
        global_transactions,
        shared_bank_conflicts,
        barriers,
        sim_cycles,
        sim_stall_cycles,
        sim_issue_slots,
        sim_divergent_branches,
        sim_reconvergences,
        warp_size,
    } = *s;
    format!(
        "{label} {cycles} {warp_instructions} {thread_instructions} {alu_issues} \
         {alu_active_lanes} {global_mem_insts} {shared_mem_insts} {global_transactions} \
         {shared_bank_conflicts} {barriers} {sim_cycles} {sim_stall_cycles} {sim_issue_slots} \
         {sim_divergent_branches} {sim_reconvergences} {warp_size}"
    )
}

/// The committed table's data rows, keyed by their `case/variant` label.
fn golden_rows() -> HashMap<&'static str, &'static str> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| (l.split(' ').next().expect("row has a label"), l))
        .collect()
}

/// Runs `kernel` on `case` with and without timing and asserts the pure
/// observer contract: identical buffers, identical stats apart from the
/// sim_* fields, cycles present and repeatable when on. Returns the
/// timing-on stats.
fn assert_pure_observer(case: &BenchCase, kernel: &BytecodeKernel, label: &str) -> KernelStats {
    let off = case
        .execute_bytecode(kernel, GpuConfig::default())
        .unwrap_or_else(|e| panic!("{label}: timing-off run failed: {e}"));
    let on = case
        .execute_bytecode(kernel, timed_gpu_config())
        .unwrap_or_else(|e| panic!("{label}: timing-on run failed: {e}"));
    assert_eq!(on.buffers, off.buffers, "{label}: buffers changed");
    assert_eq!(
        on.stats.sans_timing(),
        off.stats,
        "{label}: architectural counters changed"
    );
    assert_eq!(off.stats.sim_cycles, 0, "{label}: cycles leak when off");
    assert!(on.stats.sim_cycles > 0, "{label}: no cycles when on");
    let again = case
        .execute_bytecode(kernel, timed_gpu_config())
        .unwrap_or_else(|e| panic!("{label}: rerun failed: {e}"));
    assert_eq!(on.stats, again.stats, "{label}: timing nondeterministic");
    on.stats
}

/// The pure-observer sweep over `cases` × {baseline, darm, bf}; returns
/// one rendered table row per kernel variant, in suite order.
fn sweep(cases: &[BenchCase]) -> Vec<String> {
    let prepared = prepare_suite(cases, &MeldConfig::default(), PipelineOptions::default(), 0)
        .expect("suite melds");
    let mut rows = Vec::new();
    for (case, p) in cases.iter().zip(&prepared) {
        for (variant, bk) in [("baseline", &p.baseline), ("darm", &p.darm), ("bf", &p.bf)] {
            let label = format!("{}/{variant}", case.name);
            let stats = assert_pure_observer(case, bk, &label);
            rows.push(render_row(&label, &stats));
        }
    }
    rows
}

/// The bytecode engine must equal the recorded decoded-engine table on
/// every row it produced.
fn assert_matches_golden(rows: &[String]) {
    let golden = golden_rows();
    for row in rows {
        let label = row.split(' ').next().expect("row has a label");
        assert_eq!(
            golden.get(label).copied(),
            Some(row.as_str()),
            "{label}: bytecode engine left the recorded decoded-engine timeline"
        );
    }
}

#[test]
fn fig8_timing_is_a_pure_observer() {
    assert_matches_golden(&sweep(&fig8_cases()));
}

#[test]
fn fig9_timing_is_a_pure_observer() {
    assert_matches_golden(&sweep(&fig9_cases()));
}

/// The table holds exactly the fig8+fig9 grid × three variants — no stale
/// rows, none missing.
#[test]
fn golden_table_covers_exactly_the_figure_grid() {
    let golden = golden_rows();
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    assert_eq!(golden.len(), cases.len() * 3);
    for case in &cases {
        for variant in ["baseline", "darm", "bf"] {
            let label = format!("{}/{variant}", case.name);
            assert!(golden.contains_key(label.as_str()), "{label}: no row");
        }
    }
}

/// Rewrites the committed table from the bytecode engine's current
/// output, keeping the header comment — for an *intended* timing-model
/// change only: `cargo test -p darm-bench --test cycles_vs_insts --
/// --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/golden/decoded_timing_stats.txt"]
fn regenerate_golden_table() {
    let mut out: Vec<String> = GOLDEN
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(str::to_string)
        .collect();
    out.extend(sweep(&fig8_cases()));
    out.extend(sweep(&fig9_cases()));
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/decoded_timing_stats.txt"
    );
    std::fs::write(path, out.join("\n") + "\n").expect("golden table is writable");
}

/// DARM melding must pay off in simulated cycles on the real-world grid,
/// not just in the heuristic warp-cycle counter.
#[test]
fn fig9_darm_wins_in_simulated_cycles() {
    let rows = darm_bench::run_cases(&fig9_cases(), 0);
    let gm = geomean(rows.iter().map(VariantStats::darm_cycle_speedup));
    assert!(
        gm > 1.0,
        "DARM geomean simulated-cycle speedup must beat baseline: {gm:.4}"
    );
    for r in &rows {
        assert!(
            r.baseline.sim_cycles > 0 && r.darm.sim_cycles > 0,
            "{}: timing did not run",
            r.name
        );
    }
}

/// The DARM default's `sim_cycles` speedup (baseline ÷ DARM) over all 57
/// fig8+fig9 rows at the default issue width — the ledger's `paper57`
/// `darm_cycle_speedup` — and the rows DARM still makes slower. Gap runs
/// that cannot trap stay predicated: the paper's §IV-E unpredication of
/// every run re-branches on the condition the meld removed and reads
/// 1.2205 with 14 rows slower.
#[test]
fn darm_default_speeds_up_the_57_rows_in_simulated_cycles() {
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    let rows = darm_bench::run_cases(&cases, 0);
    assert_eq!(rows.len(), 57);
    let gm = geomean(rows.iter().map(VariantStats::darm_cycle_speedup));
    assert_eq!(format!("{gm:.4}"), "1.2537");
    let slower: Vec<&str> = rows
        .iter()
        .filter(|r| r.darm_cycle_speedup() < 1.0)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(slower, SLOWER_ROWS);
}

/// The rows DARM's default still loses in simulated cycles (ROADMAP N10
/// says why: PCM32 in stall cycles, LUD in a warp-uniform branch, NQU in
/// selects paid for a region whose branches never diverge).
const SLOWER_ROWS: [&str; 7] = [
    "PCM32", "LUD64", "LUD128", "NQU64", "NQU96", "NQU128", "NQU256",
];

/// The committed `BENCH_meld.json` is exactly the five fig8/fig9 geomeans
/// — ratios of the simulated counts the table above pins row by row, so
/// any drift is a changed melding decision or timing model, never noise.
#[test]
fn bench_meld_json_is_the_figure_geomeans() {
    let text = include_str!("../../../BENCH_meld.json");
    let committed: Vec<(String, String)> = match Json::parse(text) {
        Ok(Json::Obj(map)) => map
            .into_iter()
            .map(|(k, v)| match v {
                Json::Num(n) => (k, format!("{n:.4}")),
                other => panic!("BENCH_meld.json: {k} is not a number: {other:?}"),
            })
            .collect(),
        other => panic!("BENCH_meld.json is not a JSON object: {other:?}"),
    };
    let fig8 = darm_bench::run_cases(&fig8_cases(), 0);
    let fig9 = darm_bench::run_cases(&fig9_cases(), 0);
    let gm = |rows: &[VariantStats], f: fn(&VariantStats) -> f64| geomean(rows.iter().map(f));
    // Sorted by key, as the codec's `BTreeMap` yields them.
    let measured = [
        ("fig8/bf_geomean", gm(&fig8, VariantStats::bf_speedup)),
        ("fig8/darm_geomean", gm(&fig8, VariantStats::darm_speedup)),
        ("fig9/bf_geomean", gm(&fig9, VariantStats::bf_speedup)),
        (
            "fig9/cycles_darm_vs_baseline",
            gm(&fig9, VariantStats::darm_cycle_speedup),
        ),
        ("fig9/darm_geomean", gm(&fig9, VariantStats::darm_speedup)),
    ]
    .map(|(k, v)| (k.to_string(), format!("{v:.4}")));
    assert_eq!(committed, measured);
}

/// Lowering is deterministic: two separately lowered kernels must agree
/// under timing (launch-level determinism).
#[test]
fn timing_is_stable_across_lowerings() {
    let case = &fig8_cases()[0];
    let once = case
        .execute_bytecode(&BytecodeKernel::new(&case.func), timed_gpu_config())
        .unwrap();
    let again = case
        .execute_bytecode(&BytecodeKernel::new(&case.func), timed_gpu_config())
        .unwrap();
    assert_eq!(once.stats, again.stats);
}
