//! Sanity tests for the experiment harness itself: every case in every
//! figure grid must execute and validate, and the renderers must produce
//! well-formed tables.

use darm_bench::{
    counter_cases, fig8_cases, geomean, render_capability_matrix, render_threshold_sweep, run_case,
    run_case_with, run_cases, FIG12_THRESHOLDS,
};
use darm_melding::MeldConfig;

#[test]
fn geomean_basics() {
    assert!((geomean([1.0, 1.0]) - 1.0).abs() < 1e-12);
    assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
    assert_eq!(geomean([7.25]), 7.25);
    // Empty input is the empty product — 1.0, never NaN.
    assert_eq!(geomean(std::iter::empty()), 1.0);
}

/// Melding statistics survive the module-report round trip in *both*
/// modes: a branch-fusion config's pass self-names `meld-bf`, and its
/// stats must still be recovered (regression test for the stats lookup).
#[test]
fn bf_mode_configs_still_report_meld_stats() {
    let case = darm_kernels::synthetic::build_case(darm_kernels::synthetic::SyntheticKind::Sb1, 32);
    let darm = run_case_with(&case, &MeldConfig::default());
    assert!(darm.meld.melded_subgraphs > 0, "DARM stats lost");
    let bf = run_case_with(&case, &MeldConfig::branch_fusion());
    assert!(
        bf.meld.melded_subgraphs > 0,
        "branch-fusion stats lost (pass is named meld-bf)"
    );
}

/// The batch path agrees with the per-case path: same checked counters
/// and simulated cycles, same melding statistics, row order = input order.
#[test]
fn batched_suite_matches_per_case_runs() {
    let cases = fig8_cases();
    let subset = &cases[..6];
    let batched = run_cases(subset, 2);
    for (case, row) in subset.iter().zip(&batched) {
        let single = run_case(case);
        assert_eq!(row.name, single.name);
        assert_eq!(row.baseline, single.baseline, "{}", row.name);
        assert_eq!(row.darm, single.darm, "{}", row.name);
        assert_eq!(row.bf, single.bf, "{}", row.name);
        assert_eq!(
            format!("{:?}", row.meld),
            format!("{:?}", single.meld),
            "{}",
            row.name
        );
    }
}

#[test]
fn counter_cases_all_run_and_check() {
    for case in counter_cases() {
        let r = run_case(&case);
        assert!(r.baseline.sim_cycles > 0, "{}", r.name);
        assert!(r.darm.sim_cycles > 0, "{}", r.name);
        assert!(r.darm_speedup() > 0.5, "{}: {}", r.name, r.darm_speedup());
    }
}

#[test]
fn fig8_grid_is_complete() {
    let cases = fig8_cases();
    assert_eq!(cases.len(), 8 * 4, "8 patterns x 4 block sizes");
    // spot-check one case end to end
    let r = run_case(&cases[0]);
    assert!(
        r.darm_speedup() > 1.0,
        "SB1 must improve: {}",
        r.darm_speedup()
    );
}

#[test]
fn capability_matrix_matches_the_paper() {
    let m = render_capability_matrix();
    assert!(
        m.contains("| diamond, identical sequences | yes | yes | yes |"),
        "{m}"
    );
    assert!(
        m.contains("| diamond, distinct sequences | no | yes | yes |"),
        "{m}"
    );
    assert!(
        m.contains("| complex control flow | no | no | yes |"),
        "{m}"
    );
}

/// Fig. 12 as the `report` binary prints it: each counter kernel's
/// simulated-cycle speedup at every swept threshold. Deterministic, so any
/// change is a changed melding decision or timing model.
const THRESHOLD_SWEEP: &str = include_str!("golden/threshold_sweep.txt");

#[test]
fn threshold_sweep_matches_golden() {
    assert_eq!(render_threshold_sweep(&FIG12_THRESHOLDS), THRESHOLD_SWEEP);
}

/// Rewrites the committed Fig. 12 table, for an *intended* melding or
/// timing-model change only: `cargo test -p darm-bench --test harness --
/// --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/golden/threshold_sweep.txt"]
fn regenerate_threshold_sweep() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/threshold_sweep.txt"
    );
    std::fs::write(path, render_threshold_sweep(&FIG12_THRESHOLDS))
        .expect("golden table is writable");
}
