//! The pre-pipeline melding driver, kept verbatim as a differential-testing
//! oracle.
//!
//! [`meld_function_reference`] is the driver loop exactly as it existed
//! before the pass-manager refactor: `Analyses::new` recomputed wholesale
//! at the top of every fixpoint iteration, region detection run twice per
//! candidate (once for sizing, once for processing), and the cleanup
//! transforms called directly with their private analysis recomputation.
//! The `pipeline_bit_identical` regression test in `darm-bench` asserts
//! that [`meld_function`](crate::meld_function) — the cached-analysis
//! pipeline version — produces byte-identical printed IR on every paper
//! kernel.

use crate::{plan_region, region, Analyses, MeldConfig, MeldStats};
use darm_ir::Function;
use darm_transforms::{repair_ssa, run_dce, run_instcombine, simplify_cfg};

/// Runs the melding pass exactly like the pre-pipeline driver did. Returns
/// cumulative statistics. The function is left in valid SSA form.
pub fn meld_function_reference(func: &mut Function, config: &MeldConfig) -> MeldStats {
    let mut stats = MeldStats::default();
    'outer: for _ in 0..config.max_iterations {
        stats.iterations += 1;
        let a = Analyses::new(func);
        // Candidate regions, innermost (smallest) first: melding an inner
        // diamond before its enclosing region avoids unnecessary region
        // replication (the SB4 situation, §VI-B).
        let mut candidates: Vec<(usize, darm_ir::BlockId)> = a
            .cfg
            .rpo()
            .iter()
            .copied()
            .filter(|&b| a.da.is_divergent_branch(b))
            .map(|b| {
                let size = region::detect_region(func, &a, b)
                    .map(|r| {
                        r.true_chain
                            .iter()
                            .chain(&r.false_chain)
                            .map(|s| s.blocks.len())
                            .sum()
                    })
                    .unwrap_or(usize::MAX / 2);
                (size, b)
            })
            .collect();
        candidates.sort_by_key(|&(size, b)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
        for (_, b) in candidates {
            // Region simplification (Definition 3/4) may change the CFG;
            // restart with fresh analyses when it does.
            if region::simplify_region_entry(func, &a, b) {
                continue 'outer;
            }
            let Some(r) = region::detect_region(func, &a, b) else {
                continue;
            };
            let Some((plan, n_repl)) = plan_region(func, &r, config) else {
                continue;
            };
            let rstats = crate::codegen::meld_region(func, &r, &plan, config.unpredicate);
            stats.melded_regions += 1;
            stats.melded_subgraphs += rstats.melded_subgraphs;
            stats.selects_inserted += rstats.selects_inserted;
            stats.unpredicated_groups += rstats.unpredicated_groups;
            stats.replications += n_repl;
            stats.ssa_repairs += repair_ssa(func);
            run_instcombine(func);
            simplify_cfg(func);
            run_dce(func);
            continue 'outer;
        }
        break;
    }
    stats
}
