//! [`Pass`] adapters for the cleanup transforms in `darm-transforms`, plus
//! a standalone SSA-verification pass and a generic closure adapter.
//!
//! The cleanup adapters run their transforms whole-function, as the
//! paper's `RunPostOptimizations` does, and return the transform's rewrite
//! count. What each remembers between runs is one journal cursor
//! (`LastRun`): a run that finds the window since the previous one clean
//! returns without looking at the function.

use crate::Pass;
use darm_analysis::AnalysisManager;
use darm_ir::{Function, JournalCursor, WindowProbe};
use darm_transforms::simplify::SimplifyStats;
use darm_transforms::{repair_ssa_with, run_dce, run_instcombine, simplify_cfg_with};

/// The journal head as of a cleanup pass's previous run on the function
/// (`None` before the first).
#[derive(Debug, Default)]
struct LastRun(Option<JournalCursor>);

impl LastRun {
    /// Runs `transform` and returns its report — or the empty report
    /// without running it when nothing was mutated since the previous run
    /// (O(1) to tell), which left the function at the transform's
    /// fixpoint.
    fn rerun<R: Default>(
        &mut self,
        func: &mut Function,
        transform: impl FnOnce(&mut Function) -> R,
    ) -> R {
        let clean = |last| func.probe_since(last) == WindowProbe::Clean;
        if self.0.is_some_and(clean) {
            return R::default();
        }
        let report = transform(func);
        self.0 = Some(func.journal_head());
        report
    }
}

/// `simplifycfg` as a pass.
#[derive(Debug, Default)]
pub struct SimplifyCfgPass {
    total: SimplifyStats,
    last: LastRun,
}

impl Pass for SimplifyCfgPass {
    fn name(&self) -> &str {
        "simplify"
    }

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        let stats = self.last.rerun(func, |f| simplify_cfg_with(f, am));
        self.total += stats;
        Ok(stats.total() as u64)
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
}

/// Dead-code elimination as a pass.
#[derive(Debug, Default)]
pub struct DcePass {
    removed: u64,
    last: LastRun,
}

impl Pass for DcePass {
    fn name(&self) -> &str {
        "dce"
    }

    fn run(&mut self, func: &mut Function, _am: &mut AnalysisManager) -> Result<u64, String> {
        let n = self.last.rerun(func, run_dce) as u64;
        self.removed += n;
        Ok(n)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("removed insts", self.removed)]
    }
}

/// Peephole `instcombine` as a pass.
#[derive(Debug, Default)]
pub struct InstCombinePass {
    combined: u64,
    last: LastRun,
}

impl Pass for InstCombinePass {
    fn name(&self) -> &str {
        "instcombine"
    }

    fn run(&mut self, func: &mut Function, _am: &mut AnalysisManager) -> Result<u64, String> {
        let n = self.last.rerun(func, run_instcombine) as u64;
        self.combined += n;
        Ok(n)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("combined insts", self.combined)]
    }
}

/// IDF-based SSA reconstruction as a pass.
#[derive(Debug, Default)]
pub struct SsaRepairPass {
    repaired: u64,
    last: LastRun,
}

impl Pass for SsaRepairPass {
    fn name(&self) -> &str {
        "ssa-repair"
    }

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        let n = self.last.rerun(func, |f| repair_ssa_with(f, am)) as u64;
        self.repaired += n;
        Ok(n)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("repaired defs", self.repaired)]
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

    fn run(&mut self, func: &mut Function, _am: &mut AnalysisManager) -> Result<u64, String> {
        darm_analysis::verify_ssa(func).map_err(|e| e.to_string())?;
        Ok(0)
    }
}

/// A `fixpoint(...)` spec group as a pass: re-runs its inner pipeline
/// until a full round leaves the journal clean, or `max` rounds have run.
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

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        let units_before = self.inner.total_units();
        for _ in 0..self.max {
            darm_ir::budget::poll("pipeline::fixpoint");
            self.rounds += 1;
            if !self.inner.run_once(func, am).map_err(|e| e.to_string())? {
                break;
            }
        }
        Ok(self.inner.total_units() - units_before)
    }

    fn stat_entries(&self) -> Vec<(&'static str, u64)> {
        vec![("rounds", self.rounds)]
    }
}

/// Adapter turning a closure into a [`Pass`] — handy for tests and one-off
/// drivers. The closure receives the function and the analysis manager and
/// returns its unit count.
pub struct FnPass<F> {
    name: &'static str,
    f: F,
}

impl<F> FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<u64, String>,
{
    /// Wraps `f` as a pass called `name`.
    pub fn new(name: &'static str, f: F) -> FnPass<F> {
        FnPass { name, f }
    }
}

impl<F> Pass for FnPass<F>
where
    F: FnMut(&mut Function, &mut AnalysisManager) -> Result<u64, String>,
{
    fn name(&self) -> &str {
        self.name
    }

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        (self.f)(func, am)
    }
}
