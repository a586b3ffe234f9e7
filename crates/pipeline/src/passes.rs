//! [`Pass`] adapters for the cleanup transforms in `darm-transforms`, plus
//! a standalone SSA-verification pass and a generic closure adapter.
//!
//! Each adapter translates the transform's own change report into the
//! [`PreservedAnalyses`] it can vouch
//! for across its own mutations: block/edge surgery vouches for nothing,
//! instruction-only rewrites vouch for the CFG-shape analyses, a no-op
//! vouches for everything (the mutation journal decides the rest — see
//! the crate docs). Dead-code elimination additionally vouches for
//! [`DivergenceAnalysis`] — removing an unused, side-effect-free
//! instruction cannot change the divergence of any value that remains
//! (divergence propagates from definitions to users).
//!
//! The cleanup adapters run their transforms whole-function, as the
//! paper's `RunPostOptimizations` does. What each remembers between runs
//! is one journal cursor (`LastRun`): a run that finds the window since
//! the previous one clean reports "unchanged" without looking at the
//! function, and `instcombine` — whose redexes can only be at instructions
//! the journal names — seeds its worklist from that window instead of from
//! every instruction.

use crate::{Pass, PassOutcome};
use darm_analysis::{AnalysisManager, DivergenceAnalysis, PreservedAnalyses};
use darm_ir::{Function, JournalCursor, WindowProbe};
use darm_transforms::simplify::SimplifyStats;
use darm_transforms::{repair_ssa_with, run_dce, run_instcombine_since, simplify_cfg_with};

/// The journal head as of a cleanup pass's previous run on the function
/// (`None` before the first, and after [`Pass::reset`]).
#[derive(Debug, Default)]
struct LastRun(Option<JournalCursor>);

impl LastRun {
    /// Runs `transform`, handing it the previous run's cursor, and returns
    /// its report — or the empty report without running it when nothing
    /// was mutated since the previous run (O(1) to tell), which left the
    /// function at the transform's fixpoint.
    fn rerun<R: Default>(
        &mut self,
        func: &mut Function,
        transform: impl FnOnce(&mut Function, Option<JournalCursor>) -> R,
    ) -> R {
        let clean = |last| func.probe_since(last) == WindowProbe::Clean;
        if self.0.is_some_and(clean) {
            return R::default();
        }
        let report = transform(func, self.0);
        self.0 = Some(func.journal_head());
        report
    }
}

/// `simplifycfg` as a pass. Reports precisely: runs that only removed φs
/// vouch for the shape analyses; runs that touched blocks or edges vouch
/// for nothing.
#[derive(Debug, Default)]
pub struct SimplifyCfgPass {
    total: SimplifyStats,
    last: LastRun,
}

impl Pass for SimplifyCfgPass {
    fn name(&self) -> &str {
        "simplify"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let stats = self.last.rerun(func, |f, _| simplify_cfg_with(f, am));
        self.total.folded_const_branches += stats.folded_const_branches;
        self.total.folded_same_target_branches += stats.folded_same_target_branches;
        self.total.merged_blocks += stats.merged_blocks;
        self.total.elided_empty_blocks += stats.elided_empty_blocks;
        self.total.removed_unreachable += stats.removed_unreachable;
        self.total.removed_trivial_phis += stats.removed_trivial_phis;
        self.total.removed_duplicate_phis += stats.removed_duplicate_phis;
        let phi_only = stats.removed_trivial_phis + stats.removed_duplicate_phis;
        Ok(if stats.total() > phi_only {
            PassOutcome::cfg_changed(stats.total() as u64)
        } else if stats.total() > 0 {
            PassOutcome::insts_changed(stats.total() as u64)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        let s = &self.total;
        [
            (
                "folded branches",
                s.folded_const_branches + s.folded_same_target_branches,
            ),
            ("merged blocks", s.merged_blocks),
            ("elided blocks", s.elided_empty_blocks),
            ("removed unreachable", s.removed_unreachable),
            (
                "removed phis",
                s.removed_trivial_phis + s.removed_duplicate_phis,
            ),
        ]
        .into_iter()
        .filter(|&(_, v)| v > 0)
        .map(|(k, v)| (k, v as u64))
        .collect()
    }

    fn reset(&mut self) {
        self.total = SimplifyStats::default();
        self.last = LastRun::default();
    }
}

/// Dead-code elimination as a pass (instruction-only: keeps CFG shape and,
/// since removing unused instructions cannot affect remaining values'
/// divergence, the divergence analysis as well).
#[derive(Debug, Default)]
pub struct DcePass {
    removed: u64,
    last: LastRun,
}

impl Pass for DcePass {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(
        &mut self,
        func: &mut Function,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = self.last.rerun(func, |f, _| run_dce(f)) as u64;
        self.removed += n;
        Ok(if n > 0 {
            PassOutcome {
                preserved: PreservedAnalyses::cfg_shape().preserve::<DivergenceAnalysis>(),
                changed: true,
                units: n,
            }
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("removed insts", self.removed)]
    }

    fn reset(&mut self) {
        self.removed = 0;
        self.last = LastRun::default();
    }
}

/// Peephole `instcombine` as a pass (instruction-only, keeps CFG shape;
/// divergence may shrink under constant substitution, so it is not
/// vouched for).
#[derive(Debug, Default)]
pub struct InstCombinePass {
    combined: u64,
    last: LastRun,
}

impl Pass for InstCombinePass {
    fn name(&self) -> &str {
        "instcombine"
    }

    fn run(
        &mut self,
        func: &mut Function,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = self.last.rerun(func, run_instcombine_since) as u64;
        self.combined += n;
        Ok(if n > 0 {
            PassOutcome::insts_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("combined insts", self.combined)]
    }

    fn reset(&mut self) {
        self.combined = 0;
        self.last = LastRun::default();
    }
}

/// IDF-based SSA reconstruction as a pass. φ insertion leaves the block
/// graph intact, so the shape analyses survive.
#[derive(Debug, Default)]
pub struct SsaRepairPass {
    repaired: u64,
    last: LastRun,
}

impl Pass for SsaRepairPass {
    fn name(&self) -> &str {
        "ssa-repair"
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let n = self.last.rerun(func, |f, _| repair_ssa_with(f, am)) as u64;
        self.repaired += n;
        Ok(if n > 0 {
            PassOutcome::insts_changed(n)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("repaired defs", self.repaired)]
    }

    fn reset(&mut self) {
        self.repaired = 0;
        self.last = LastRun::default();
    }
}

/// Full SSA verification as an explicit pipeline element (useful in specs
/// even when `--verify-each` is off). Changes nothing; fails the pipeline
/// on invalid IR.
#[derive(Debug, Default)]
pub struct VerifyPass;

impl Pass for VerifyPass {
    fn name(&self) -> &str {
        "verify"
    }

    fn run(
        &mut self,
        func: &mut Function,
        _am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        darm_analysis::verify_ssa(func).map_err(|e| e.to_string())?;
        Ok(PassOutcome::unchanged())
    }
}

/// A `fixpoint(...)` spec group as a pass: re-runs its inner pipeline
/// until a full round reports no change, or `max` rounds have run.
///
/// The inner passes apply their own
/// [`PreservedAnalyses`] reports against
/// the shared [`AnalysisManager`] after every run; the group itself
/// vouches for the whole cache only when no round changed anything, and
/// otherwise leaves every entry to the journal — the same contract as the
/// melding pass around its inner cleanup pipeline.
pub struct FixpointPass {
    label: String,
    inner: crate::PassManager,
    max: usize,
    rounds: u64,
}

impl FixpointPass {
    /// Iteration cap when the spec gives no `max=N`.
    pub const DEFAULT_MAX: usize = 32;

    /// Wraps `inner` as a fixpoint group named `label` (the rendered spec
    /// element, e.g. `fixpoint(simplify,dce)`).
    pub fn new(label: String, inner: crate::PassManager, max: Option<usize>) -> FixpointPass {
        FixpointPass {
            label,
            inner,
            max: max.unwrap_or(Self::DEFAULT_MAX).max(1),
            rounds: 0,
        }
    }
}

impl Pass for FixpointPass {
    fn name(&self) -> &str {
        &self.label
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        let units_before = self.inner.total_units();
        let mut changed_any = false;
        for _ in 0..self.max {
            darm_ir::budget::poll("pipeline::fixpoint");
            self.rounds += 1;
            let changed = self.inner.run_once(func, am).map_err(|e| e.to_string())?;
            changed_any |= changed;
            if !changed {
                break;
            }
        }
        Ok(if changed_any {
            PassOutcome::cfg_changed(self.inner.total_units() - units_before)
        } else {
            PassOutcome::unchanged()
        })
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("rounds", self.rounds)]
    }

    fn reset(&mut self) {
        self.rounds = 0;
        self.inner.reset_for_reuse();
    }
}

/// Adapter turning a closure into a [`Pass`] — handy for tests and one-off
/// drivers. The closure receives the function and the analysis manager and
/// returns the outcome.
pub struct FnPass<F> {
    name: &'static str,
    f: F,
}

impl<F> FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<PassOutcome, String>,
{
    /// Wraps `f` as a pass called `name`.
    pub fn new(name: &'static str, f: F) -> FnPass<F> {
        FnPass { name, f }
    }
}

impl<F> Pass for FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<PassOutcome, String>,
{
    fn name(&self) -> &str {
        self.name
    }

    fn run(
        &mut self,
        func: &mut Function,
        am: &mut AnalysisManager,
    ) -> Result<PassOutcome, String> {
        (self.f)(func, am)
    }
}
