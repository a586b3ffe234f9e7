//! [`Pass`] adapters for the cleanup transforms in `darm-transforms`, plus
//! a standalone SSA-verification pass and a generic closure adapter.
//!
//! Each adapter translates the transform's own change report into the
//! [`PreservedAnalyses`](darm_analysis::PreservedAnalyses) it can vouch
//! for across its own mutations: block/edge surgery vouches for nothing,
//! instruction-only rewrites vouch for the CFG-shape analyses, a no-op
//! vouches for everything (the mutation journal decides the rest — see
//! the crate docs). Dead-code elimination additionally vouches for
//! [`DivergenceAnalysis`] — removing an unused, side-effect-free
//! instruction cannot change the divergence of any value that remains
//! (divergence propagates from definitions to users).
//!
//! The cleanup adapters are *dirty-scoped*: each remembers the `darm-ir`
//! journal cursor of its previous run and restricts the next run to the
//! blocks and instructions mutated since (the pass's first run — or any
//! run after journal saturation — is automatically whole-function, which
//! establishes the "no redexes outside the window" invariant the scoped
//! runs rely on). A fixpoint driver that re-runs its cleanup pipeline per
//! melded region therefore pays per-region cost, not per-function cost.

use crate::{Pass, PassOutcome};
use darm_analysis::{AnalysisManager, Cfg, DivergenceAnalysis, DomTree};
use darm_ir::{DirtyDelta, Function, JournalCursor};
use darm_transforms::simplify::SimplifyStats;
use darm_transforms::{
    repair_ssa_scoped, run_dce_scoped, run_instcombine_scoped, simplify_cfg_scoped,
};
use std::sync::Arc;

/// Below this many live instructions a dirty window sends the scoped
/// adapters down their whole-function path: the full scan is cheaper than
/// the journal replay plus scoped bookkeeping it would avoid.
const SCOPED_MIN_LIVE_INSTS: usize = 128;

/// Journal bookkeeping shared by the scoped adapters.
#[derive(Debug, Clone, Default)]
struct ScopeTracker {
    cursor: Option<JournalCursor>,
}

impl ScopeTracker {
    /// The mutation window since the pass's previous run, or `None` for
    /// whole-function (first run, saturation, or a
    /// window so large that replaying it costs more than the
    /// whole-function work it would save). `Some(clean)` means nothing
    /// changed — the scoped transforms return immediately.
    ///
    /// `work_factor` calibrates the economics: roughly how much more
    /// expensive the pass's whole-function visit of one instruction is
    /// than replaying one journal event. Cheap linear scans (DCE,
    /// instcombine, simplify sweeps) sit near 1; SSA repair — whose
    /// whole-function scan walks dominator chains per operand — benefits
    /// from scoping even when the window rivals the function in size.
    fn window(&self, func: &Function, work_factor: usize) -> Option<DirtyDelta> {
        let cursor = self.cursor?;
        let events = match func.probe_since(cursor) {
            darm_ir::WindowProbe::Clean => return Some(DirtyDelta::default()),
            darm_ir::WindowProbe::Saturated => return None,
            darm_ir::WindowProbe::InstsOnly { events } => events,
            darm_ir::WindowProbe::Shape { events, .. } => events,
        };
        // A clean window costs nothing either way, but once there is
        // anything to replay, a function this small is finished faster by
        // the plain whole-function scan than by materializing the delta
        // and running the scoped walk's bookkeeping (measured on the paper
        // kernels).
        if func.live_inst_count() < SCOPED_MIN_LIVE_INSTS {
            return None;
        }
        if events > func.live_inst_count().saturating_mul(work_factor) / 2 {
            return None;
        }
        let delta = func.dirty_since(cursor);
        (!delta.is_saturated()).then_some(delta)
    }

    /// Marks everything up to the function's current state as processed.
    fn advance(&mut self, func: &Function) {
        self.cursor = Some(func.journal_head());
    }

    /// Forgets the previous function's cursor.
    fn reset(&mut self) {
        self.cursor = None;
    }
}

/// `simplifycfg` as a pass. Reports precisely: runs that only removed φs
/// vouch for the shape analyses; runs that touched blocks or edges vouch
/// for nothing.
#[derive(Debug, Default)]
pub struct SimplifyCfgPass {
    total: SimplifyStats,
    tracker: ScopeTracker,
}

impl SimplifyCfgPass {
    fn shape_changes(s: &SimplifyStats) -> usize {
        s.folded_const_branches
            + s.folded_same_target_branches
            + s.merged_blocks
            + s.elided_empty_blocks
            + s.removed_unreachable
    }

    fn accumulate(&mut self, s: &SimplifyStats) {
        self.total.folded_const_branches += s.folded_const_branches;
        self.total.folded_same_target_branches += s.folded_same_target_branches;
        self.total.merged_blocks += s.merged_blocks;
        self.total.elided_empty_blocks += s.elided_empty_blocks;
        self.total.removed_unreachable += s.removed_unreachable;
        self.total.removed_trivial_phis += s.removed_trivial_phis;
        self.total.removed_duplicate_phis += s.removed_duplicate_phis;
    }
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
        let window = self.tracker.window(func, 2);
        let stats = simplify_cfg_scoped(func, am, window.as_ref());
        self.tracker.advance(func);
        self.accumulate(&stats);
        Ok(if Self::shape_changes(&stats) > 0 {
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
        self.tracker.reset();
    }
}

/// Dead-code elimination as a pass (instruction-only: keeps CFG shape and,
/// since removing unused instructions cannot affect remaining values'
/// divergence, the divergence analysis as well).
#[derive(Debug, Default)]
pub struct DcePass {
    removed: u64,
    tracker: ScopeTracker,
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
        let window = self.tracker.window(func, 4);
        let n = run_dce_scoped(func, window.as_ref()) as u64;
        self.tracker.advance(func);
        self.removed += n;
        Ok(if n > 0 {
            PassOutcome {
                preserved: darm_analysis::PreservedAnalyses::cfg_shape()
                    .preserve::<DivergenceAnalysis>(),
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
        self.tracker.reset();
    }
}

/// Peephole `instcombine` as a pass (instruction-only, keeps CFG shape;
/// divergence may shrink under constant substitution, so it is not
/// vouched for).
#[derive(Debug, Default)]
pub struct InstCombinePass {
    combined: u64,
    tracker: ScopeTracker,
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
        let window = self.tracker.window(func, 4);
        let n = run_instcombine_scoped(func, window.as_ref()) as u64;
        self.tracker.advance(func);
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
        self.tracker.reset();
    }
}

/// IDF-based SSA reconstruction as a pass. φ insertion leaves the block
/// graph intact, so the shape analyses survive.
///
/// The scoped run keeps a *dominator baseline*: the tree as of its
/// previous run. The diff between baseline and current tree
/// ([`DomTree::changed_from`]) names every block whose dominance moved —
/// together with the journal window, exactly where SSA can have broken.
#[derive(Debug, Default)]
pub struct SsaRepairPass {
    repaired: u64,
    tracker: ScopeTracker,
    baseline: Option<Arc<DomTree>>,
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
        // Baseline resolution: the pass's own previous run, or — for the
        // very first run under a checkpointing driver — the driver's
        // repair checkpoint (the function was fully repaired there, so
        // the window since it bounds every possible defect).
        let mut scoped = match (self.tracker.window(func, 8), self.baseline.clone()) {
            (Some(delta), Some(baseline)) => Some((delta, baseline)),
            _ => None,
        };
        if scoped.is_none()
            && self.baseline.is_none()
            && func.live_inst_count() >= SCOPED_MIN_LIVE_INSTS
        {
            if let Some((cursor, tree)) = am.take_dom_checkpoint() {
                let events = match func.probe_since(cursor) {
                    darm_ir::WindowProbe::Clean => Some(0),
                    darm_ir::WindowProbe::Saturated => None,
                    darm_ir::WindowProbe::InstsOnly { events }
                    | darm_ir::WindowProbe::Shape { events, .. } => Some(events),
                };
                if events.is_some_and(|e| e <= func.live_inst_count().saturating_mul(4)) {
                    let delta = func.dirty_since(cursor);
                    if !delta.is_saturated() {
                        scoped = Some((delta, tree));
                    }
                }
            }
        }
        let n = match scoped {
            Some((delta, baseline)) => {
                let cfg = am.get::<Cfg>(func);
                let dt = am.get::<DomTree>(func);
                let dom_changed = DomTree::changed_from(&baseline, &dt, &cfg);
                // When dominance moved across most of the function (a
                // meld rewriting the bulk of a small kernel), the scoped
                // scan degenerates to the whole scan plus bookkeeping —
                // take the straight path instead.
                let moved = dom_changed.iter().filter(|&&c| c).count();
                if moved * 3 > cfg.rpo().len() * 2 {
                    repair_ssa_scoped(func, am, None) as u64
                } else {
                    repair_ssa_scoped(func, am, Some((&delta, &dom_changed))) as u64
                }
            }
            None => repair_ssa_scoped(func, am, None) as u64,
        };
        // Repair preserves the block graph, so the tree queried during the
        // run is the tree of the repaired function: it becomes the next
        // baseline.
        self.baseline = Some(am.get::<DomTree>(func));
        self.tracker.advance(func);
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
        self.tracker.reset();
        self.baseline = None;
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
/// [`PreservedAnalyses`](darm_analysis::PreservedAnalyses) reports against
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
