//! The melding transformation as a [`Pass`], plus tail merging as a pass.
//!
//! [`MeldPass`] is Algorithm 1 restructured around the shared
//! [`AnalysisManager`]: the outer fixpoint pulls its CFG/dominator/
//! divergence snapshot from the cache instead of recomputing it wholesale,
//! candidate regions are detected exactly once per scan (the sizing pass
//! memoizes them for the processing loop), and the post-meld cleanup runs
//! as an inner pipeline (`ssa-repair`, `instcombine`, `simplify`, `dce`).
//! Nothing invalidates by hand: every mutation — region surgery and
//! cleanup alike — is journaled, and the manager reconciles each cached
//! entry against its own window at the next query, keeping what the
//! window cannot have touched and recomputing the rest on demand.
//!
//! The melded IR of every paper kernel is pinned by a committed golden
//! table (`melded_ir_matches_golden` in `darm-bench`).

use crate::region::{self, MeldableRegion};
use crate::{plan_region, Analyses, MeldConfig, MeldMode, MeldStats};
use darm_analysis::AnalysisManager;
use darm_ir::{BlockId, Function};
use darm_pipeline::{
    DcePass, InstCombinePass, Pass, PassManager, PassRecord, PipelineOptions, SimplifyCfgPass,
    SsaRepairPass,
};
use std::time::Instant;

/// The fixpoint's own phases, in the order a round runs them; the inner
/// cleanup pipeline's slots follow them as child rows.
#[derive(Clone, Copy)]
enum Phase {
    Analyses,
    Detect,
    PlanAlign,
    Codegen,
}

/// Stat entry counting [`MeldPass`] runs that stopped at
/// [`MeldConfig::max_iterations`] instead of at their fixpoint.
pub const CAP_HITS_STAT: &str = "fixpoint cap hits";

/// Row names, indexed by [`Phase`].
const PHASES: [&str; 4] = ["analyses", "detect", "plan+align", "codegen"];

/// Wall clock of the [`PHASES`], read only when the pass runs under
/// `--time-passes` — otherwise [`PhaseClock::time`] is a plain call.
#[derive(Default)]
struct PhaseClock {
    on: bool,
    /// `(runs, seconds)` per phase.
    phases: [(usize, f64); PHASES.len()],
}

impl PhaseClock {
    fn time<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let (runs, seconds) = &mut self.phases[phase as usize];
        *runs += 1;
        *seconds += t.elapsed().as_secs_f64();
        out
    }
}

/// The DARM control-flow melding pass (or its branch-fusion restriction,
/// per [`MeldConfig::mode`]).
pub struct MeldPass {
    config: MeldConfig,
    /// Totals across runs, published as [`Pass::stat_entries`] (which
    /// [`MeldStats::from_report`] reads back).
    pub(crate) stats: MeldStats,
    /// Runs whose outer loop used up `max_iterations` without reaching
    /// its fixpoint: the function may be under-melded.
    cap_hits: u64,
    cleanup: PassManager,
    clock: PhaseClock,
}

impl MeldPass {
    /// A meld pass for `config`; its statistics are its
    /// [`Pass::stat_entries`].
    pub fn new(config: MeldConfig) -> MeldPass {
        // Algorithm 1's RunPostOptimizations, as an inner pipeline: each
        // cleanup pass runs over the whole function after every melded
        // region, as in the paper. The analysis cache reconciles through
        // the journal — so the dominator/post-dominator trees computed
        // after the meld surgery survive the cleanup passes that leave the
        // block graph alone.
        let mut cleanup = PassManager::new(PipelineOptions::default());
        cleanup
            .add(Box::new(SsaRepairPass::default()))
            .add(Box::new(InstCombinePass::default()))
            .add(Box::new(SimplifyCfgPass::default()))
            .add(Box::new(DcePass::default()));
        MeldPass {
            config,
            stats: MeldStats::default(),
            cap_hits: 0,
            cleanup,
            clock: PhaseClock::default(),
        }
    }

    /// Carries the surrounding pipeline's observation options inside the
    /// pass. `verify_each` enables SSA verification after each *inner*
    /// cleanup pass as well (the outer pass manager only checks after the
    /// whole melding pass; inner verification starts after `ssa-repair` —
    /// the IR is intentionally broken between `meld_region` and the
    /// repair). `time_passes` turns on the phase clock and the inner
    /// pipeline's per-pass timing, reported as [`Pass::child_records`];
    /// without it no clock is read.
    pub fn observing(mut self, options: &PipelineOptions) -> MeldPass {
        self.cleanup.options.verify_each = options.verify_each;
        self.cleanup.options.time_passes = options.time_passes;
        self.clock.on = options.time_passes;
        self
    }
}

/// The fixpoint scan's candidates: entry block, chain size and the
/// memoized detection result, so the processing loop does not re-detect
/// what the sizing pass already computed. The memo stays valid for the
/// whole scan: planning takes `&Function`, and the first region applied (or
/// padded) ends the scan.
fn candidates(func: &Function, a: &Analyses) -> Vec<(usize, BlockId, Option<MeldableRegion>)> {
    let mut candidates: Vec<(usize, BlockId, Option<MeldableRegion>)> = a
        .cfg
        .rpo()
        .iter()
        .copied()
        .filter(|&b| a.da.is_divergent_branch(b))
        .map(|b| {
            let r = region::detect_region(func, a, b);
            let size = r
                .as_ref()
                .map(|r| {
                    r.true_chain
                        .iter()
                        .chain(&r.false_chain)
                        .map(|s| s.blocks.len())
                        .sum()
                })
                .unwrap_or(usize::MAX / 2);
            (size, b, r)
        })
        .collect();
    // Innermost (smallest) first: melding an inner diamond before its
    // enclosing region avoids unnecessary region replication (the SB4
    // situation, §VI-B).
    candidates.sort_by_key(|&(size, b, _)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
    candidates
}

impl Pass for MeldPass {
    fn name(&self) -> &str {
        match self.config.mode {
            MeldMode::Darm => "meld",
            MeldMode::BranchFusion => "meld-bf",
        }
    }

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        let config = self.config;
        let mut stats = MeldStats::default();
        let mut reached_fixpoint = false;
        'outer: for _ in 0..config.max_iterations {
            darm_ir::budget::poll("meld::fixpoint");
            stats.iterations += 1;
            let a = self
                .clock
                .time(Phase::Analyses, || Analyses::from_manager(func, am));
            let candidates = self.clock.time(Phase::Detect, || candidates(func, &a));
            for (_, b, r) in candidates {
                let Some(r) = r else {
                    // Region simplification (Definition 3/4) may change the
                    // CFG; restart with fresh analyses when it does. Only
                    // an undetected region can need it: detection and
                    // simplification share one chain walk, and a detected
                    // region has a single exit edge at every position.
                    let padded = || region::simplify_region_entry(func, &a, b);
                    if self.clock.time(Phase::Detect, padded) {
                        continue 'outer;
                    }
                    continue;
                };
                let plan = self
                    .clock
                    .time(Phase::PlanAlign, || plan_region(func, &r, &config));
                let Some(plan) = plan else { continue };
                darm_ir::fault::point("meld::codegen");
                stats += self.clock.time(Phase::Codegen, || {
                    crate::codegen::meld_region(func, &r, plan, config.unpredicate)
                });
                let repairs_before = self.cleanup.units_of("ssa-repair");
                self.cleanup
                    .run_once(func, am)
                    .map_err(|e| format!("post-meld cleanup failed: {e}"))?;
                stats.ssa_repairs +=
                    (self.cleanup.units_of("ssa-repair") - repairs_before) as usize;
                continue 'outer;
            }
            reached_fixpoint = true;
            break;
        }
        self.cap_hits += u64::from(!reached_fixpoint);
        // Accumulate, never overwrite: pass records and stat entries are
        // documented to total across repeated pipeline runs.
        self.stats += stats;
        Ok(stats.melded_subgraphs as u64)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        let s = &self.stats;
        vec![
            ("melded regions", s.melded_regions as u64),
            ("melded subgraphs", s.melded_subgraphs as u64),
            ("replications", s.replications as u64),
            ("selects inserted", s.selects_inserted as u64),
            ("unpredicated groups", s.unpredicated_groups as u64),
            ("ssa repairs", s.ssa_repairs as u64),
            ("fixpoint iterations", s.iterations as u64),
            (CAP_HITS_STAT, self.cap_hits),
        ]
    }

    fn child_records(&self) -> Vec<PassRecord> {
        if !self.clock.on {
            return Vec::new();
        }
        let mut rows: Vec<PassRecord> = PHASES
            .iter()
            .zip(&self.clock.phases)
            .map(|(name, &(runs, seconds))| PassRecord {
                runs,
                seconds,
                ..PassRecord::named(name)
            })
            .collect();
        rows.extend(self.cleanup.records());
        rows
    }
}

/// Classic tail merging as a pass (Table I's weakest technique).
#[derive(Debug, Default)]
pub struct TailMergePass {
    merged: u64,
}

impl Pass for TailMergePass {
    fn name(&self) -> &str {
        "tail-merge"
    }

    fn run(&mut self, func: &mut Function, _am: &mut AnalysisManager) -> Result<u64, String> {
        let n = crate::tail_merge(func) as u64;
        self.merged += n;
        Ok(n)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("merged blocks", self.merged)]
    }
}
