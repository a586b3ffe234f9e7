//! Cached analysis management with journal reconciliation — the analogue
//! of LLVM's `FunctionAnalysisManager` for the pass pipeline in
//! `darm-pipeline`.
//!
//! Every analysis in this crate is a pure function of the IR: recomputing it
//! on an unchanged [`Function`] yields an equal value. The
//! [`AnalysisManager`] exploits that by memoizing results keyed by analysis
//! *type* and handing out shared [`Arc`] references (so results are also
//! `Send + Sync`, ready for the parallel per-function pipelines on the
//! roadmap), and a fixpoint driver that runs many queries against one CFG
//! state computes each analysis at most once.
//!
//! # Reconcile-on-read
//!
//! Every cache slot remembers the *journal cursor* of the function state
//! it was computed (or last validated) for. A query
//! ([`AnalysisManager::get`]) probes the window since that cursor in O(1)
//! and, when it is not clean, reconciles the entry *lazily at read time*
//! via [`Analysis::refresh`]:
//!
//! * a clean window serves the entry as a plain hit;
//! * an instruction-only window keeps the shape analyses ([`Cfg`],
//!   [`DomTree`], [`PostDomTree`], [`LoopInfo`]), re-seeds [`Liveness`]
//!   from the dirty blocks only, and re-derives [`DivergenceAnalysis`]
//!   over the *changed closure* of the dirty instructions (divergence may
//!   shrink under rewrites, so the closure is reset to the lattice bottom
//!   and re-run with the untouched remainder as a fixed boundary — exact,
//!   not merely monotone; see
//!   [`DivergenceAnalysis::refresh_window`]);
//! * a block-graph window updates the dominator and post-dominator trees
//!   in place, bit-identical to a fresh recompute — edge subdivision and
//!   insertion-only batches by exact local rules, deletion-containing
//!   batches (the bulk of meld surgery) by the affected-subtree recompute
//!   (see [`DomTree::try_update`]; the deletion share is split out as
//!   [`AnalysisCounters::in_place_deletion_updates`]) — splices the
//!   [`Cfg`] snapshot's RPO below the window's DFS-tree anchor
//!   ([`Cfg::try_update`], counted by
//!   [`AnalysisCounters::in_place_cfg_updates`]), and re-derives
//!   divergence with every surviving divergent branch's join set
//!   recomputed under the new shape
//!   ([`AnalysisCounters::in_place_divergence_updates`]) — each behind a
//!   profitability gate that only admits batches small enough relative
//!   to the function for the update to beat the recompute it replaces;
//! * anything else — a saturated journal, a window a gate rejects, or
//!   the divergence slot's periodic exact-confirm round — drops the
//!   entry, which recomputes on demand.
//!
//! No analysis is *unconditionally* dropped anymore: every slot has an
//! in-place path, and full recomputation is purely the fallback the
//! gates and confirm rounds choose on purpose.
//!
//! Laziness is what makes the scheme pay: a mutation-heavy stretch (meld
//! surgery followed by cleanup rounds) coalesces into *one* window per
//! entry, reconciled at its next query, instead of an eager pass over the
//! cache per edit batch. Per-slot cursors are what make it sound: a
//! transform that mutates and re-queries an analysis mid-run produces an
//! entry stamped with its own (newer) cursor, so the journal never replays
//! edits onto a tree that already reflects them.
//!
//! # One invalidation discipline
//!
//! The journal, not a pass's summary, decides what survives: nothing is
//! ever dropped by hand. A pipeline runs
//! [`AnalysisManager::update_after_with_report`] after every pass — the
//! pass's [`PreservedAnalyses`] report can only *extend* validity
//! (vouching for entries across the pass's own window, e.g. DCE proving
//! divergence intact), never resurrect an entry the journal would
//! otherwise have condemned — and every entry the report does not vouch
//! for is reconciled on read as above. [`AnalysisManager::update_after`]
//! runs the same reconciliation eagerly over every slot;
//! [`AnalysisManager::hard_reset`] is the one wholesale drop, for
//! functions rolled back under a fresh journal identity.
//!
//! [`AnalysisManager::counters`] exposes how many computations, cache hits
//! and in-place updates occurred — `darm meld --time-passes` prints the
//! per-pass split, including the deletion-batch share and the dedicated
//! CFG/divergence in-place-update columns.

use crate::cfg::Cfg;
use crate::divergence::DivergenceAnalysis;
use crate::dom::{DomTree, EditSummary, PostDomTree};
use crate::liveness::Liveness;
use crate::loops::LoopInfo;
use darm_ir::{Function, JournalCursor, WindowProbe};
use std::any::Any;
use std::sync::Arc;

/// Number of cache slots — one per registered [`Analysis`] impl.
const SLOT_COUNT: usize = 6;

/// A cacheable analysis over a [`Function`].
///
/// `compute` receives the manager so dependent analyses come from the same
/// cache (e.g. [`DomTree`] pulls the cached [`Cfg`]). Implementations must
/// be pure: equal IR must produce an equal (observationally) result.
///
/// The cache is keyed by analysis type through `SLOT`, a dense per-type
/// index (cheaper than hashing a `TypeId` on the pipeline's hot path);
/// every implementation must pick a distinct slot below `SLOT_COUNT`.
/// Results must be `Send + Sync` so cached handles can cross threads once
/// function pipelines run in parallel.
pub trait Analysis: Sized + Send + Sync + 'static {
    /// Short stable name, used in reports and error messages.
    const NAME: &'static str;

    /// Whether the result depends only on the block graph (blocks + edges),
    /// not on non-terminator instructions. Shape-only analyses survive
    /// instruction-only journal windows.
    const SHAPE_ONLY: bool;

    /// Unique dense cache-slot index of this analysis type.
    const SLOT: usize;

    /// Computes the analysis for the current state of `func`.
    fn compute(func: &Function, am: &mut AnalysisManager) -> Self;

    /// Reconciles a cached result with the journal window since `cursor`
    /// (pre-classified as `probe`, never [`WindowProbe::Clean`]). The
    /// default keeps shape-only results across instruction-only windows
    /// and drops everything else; the dominator trees and liveness
    /// override it with in-place updates.
    fn refresh(
        _old: &Self,
        _func: &Function,
        _am: &mut AnalysisManager,
        probe: WindowProbe,
        _cursor: JournalCursor,
    ) -> Refresh<Self> {
        match probe {
            WindowProbe::InstsOnly { .. } if Self::SHAPE_ONLY => Refresh::Keep,
            _ => Refresh::Drop,
        }
    }
}

/// Outcome of reconciling one cached entry with its mutation window (see
/// [`Analysis::refresh`]).
pub enum Refresh<A> {
    /// The window cannot have broken the entry: keep it as-is.
    Keep,
    /// The entry absorbed the window in place.
    Update {
        /// The refreshed result.
        value: A,
        /// Whether the window net-deleted edges — the batch shape counted
        /// by [`AnalysisCounters::in_place_deletion_updates`].
        deletion_batch: bool,
    },
    /// The entry cannot survive the window: drop and recompute on demand.
    Drop,
}

/// Below this many live blocks the dominator/post-dominator refresh drops
/// straight to a rebuild: the in-place attempt's fixed costs (journal
/// replay, edit normalization, old-array remapping) exceed the fixpoint
/// rebuild on graphs this small.
const TREE_UPDATE_MIN_LIVE_BLOCKS: usize = 16;

/// Shared dominator/post-dominator refresh: absorb block-graph windows via
/// `try_update`, bounded by the edit-batch cap.
fn tree_refresh<A>(
    func: &Function,
    am: &mut AnalysisManager,
    probe: WindowProbe,
    cursor: JournalCursor,
    win_scale: usize,
    viable: impl Fn(&[darm_ir::CfgEdit]) -> bool,
    apply: impl FnOnce(&EditSummary, &Cfg) -> Option<A>,
) -> Refresh<A> {
    // Attempt the in-place update only when the batch is small *relative
    // to the function* — decided from the O(1) probe metadata alone, before
    // any replay or normalization is paid. A window whose event count
    // rivals the block count (meld surgery rewriting most of a small
    // kernel) perturbs most of the tree: the affected-subtree rebuild
    // would converge on the same work as the recompute it replaces, plus
    // anchoring overhead. Small batches relative to the function (a folded
    // branch, an elided landing pad, region surgery inside a big kernel)
    // are where the update wins. `win_scale` sets how much smaller the
    // batch must be: the forward tree (1) reuses the CFG snapshot's
    // predecessor lists and iterates only the affected region, while the
    // reversed tree (4) must rebuild the reversed graph and its postorder
    // wholesale — near the cost of the recompute it replaces — so it only
    // pays off against far smaller batches.
    // Both gates are O(1), paid before any replay: the batch must be small
    // *relative to the function*, and the function itself must be big
    // enough that a rebuild actually hurts. On a graph of a dozen blocks
    // the fixpoint rebuild is a microsecond — cheaper than the replay,
    // normalization and old-array remapping an in-place attempt spends
    // before it can even decline (measured on the paper kernels: the
    // attempts cost more end-to-end than every rebuild they avoided).
    let cheap_window = |shape_events: usize| {
        func.live_block_count() >= TREE_UPDATE_MIN_LIVE_BLOCKS
            && shape_events * win_scale <= func.live_block_count()
    };
    match probe {
        WindowProbe::InstsOnly { .. } => Refresh::Keep,
        WindowProbe::Shape { shape_events, .. } if cheap_window(shape_events) => {
            let head = func.journal_head();
            // Replay the raw block-graph slice of the window (cheap — no
            // bitsets) and let the tree's endpoint pre-filter reject
            // unprofitable batches before normalization is paid.
            let mut edits = std::mem::take(&mut am.edits_scratch);
            let ok = func.cfg_edits_since(cursor, &mut edits);
            if !ok || !viable(&edits) {
                am.edits_scratch = edits;
                return Refresh::Drop;
            }
            // The dominator and post-dominator trees usually carry the
            // same window: normalize it once and memoize.
            let summary = match am.tree_window_memo.take() {
                Some(memo) if memo.from == cursor && memo.to == head => memo.summary,
                _ => EditSummary::normalize(func, &edits),
            };
            am.edits_scratch = edits;
            let cfg = am.get::<Cfg>(func);
            let refreshed = match apply(&summary, &cfg) {
                Some(value) => Refresh::Update {
                    value,
                    deletion_batch: summary.has_deletions(),
                },
                None => Refresh::Drop,
            };
            am.tree_window_memo = Some(TreeWindowMemo {
                from: cursor,
                to: head,
                summary,
            });
            refreshed
        }
        _ => Refresh::Drop,
    }
}

impl Analysis for Cfg {
    const NAME: &'static str = "cfg";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 0;

    fn compute(func: &Function, _am: &mut AnalysisManager) -> Cfg {
        Cfg::new(func)
    }

    fn refresh(
        old: &Cfg,
        func: &Function,
        am: &mut AnalysisManager,
        probe: WindowProbe,
        cursor: JournalCursor,
    ) -> Refresh<Cfg> {
        match probe {
            WindowProbe::InstsOnly { .. } => Refresh::Keep,
            // The splice consumes the *raw* edit list (a net-zero window
            // can still reorder successors, and with them the RPO), so
            // gate on the O(1) probe metadata and replay without
            // normalizing.
            WindowProbe::Shape { shape_events, .. }
                if shape_events * 2 <= func.live_block_count() =>
            {
                let mut edits = std::mem::take(&mut am.edits_scratch);
                let ok = func.cfg_edits_since(cursor, &mut edits);
                let refreshed = if ok {
                    old.try_update(func, &edits)
                } else {
                    None
                };
                am.edits_scratch = edits;
                match refreshed {
                    Some(value) => Refresh::Update {
                        value,
                        deletion_batch: false,
                    },
                    None => Refresh::Drop,
                }
            }
            _ => Refresh::Drop,
        }
    }
}

impl Analysis for DomTree {
    const NAME: &'static str = "domtree";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 1;

    fn compute(func: &Function, am: &mut AnalysisManager) -> DomTree {
        let cfg = am.get::<Cfg>(func);
        DomTree::new(func, &cfg)
    }

    fn refresh(
        old: &DomTree,
        func: &Function,
        am: &mut AnalysisManager,
        probe: WindowProbe,
        cursor: JournalCursor,
    ) -> Refresh<DomTree> {
        tree_refresh(
            func,
            am,
            probe,
            cursor,
            1,
            |edits| old.absorb_viable(edits),
            |summary, cfg| old.try_update(func, cfg, summary),
        )
    }
}

impl Analysis for PostDomTree {
    const NAME: &'static str = "postdomtree";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 2;

    fn compute(func: &Function, am: &mut AnalysisManager) -> PostDomTree {
        let cfg = am.get::<Cfg>(func);
        PostDomTree::new(func, &cfg)
    }

    fn refresh(
        old: &PostDomTree,
        func: &Function,
        am: &mut AnalysisManager,
        probe: WindowProbe,
        cursor: JournalCursor,
    ) -> Refresh<PostDomTree> {
        tree_refresh(
            func,
            am,
            probe,
            cursor,
            4,
            |edits| old.absorb_viable(edits),
            |summary, cfg| old.try_update(func, cfg, summary),
        )
    }
}

impl Analysis for LoopInfo {
    const NAME: &'static str = "loops";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 3;

    fn compute(func: &Function, am: &mut AnalysisManager) -> LoopInfo {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        LoopInfo::new(&cfg, &dt)
    }
}

impl Analysis for DivergenceAnalysis {
    const NAME: &'static str = "divergence";
    const SHAPE_ONLY: bool = false;
    const SLOT: usize = 4;

    fn compute(func: &Function, am: &mut AnalysisManager) -> DivergenceAnalysis {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        // The post-dominator tree comes from the shared cache: the paper's
        // driver recomputed it privately inside every divergence run.
        let pdt = am.get::<PostDomTree>(func);
        DivergenceAnalysis::run_with_pdt(func, &cfg, &dt, &pdt)
    }

    fn refresh(
        old: &DivergenceAnalysis,
        func: &Function,
        am: &mut AnalysisManager,
        probe: WindowProbe,
        cursor: JournalCursor,
    ) -> Refresh<DivergenceAnalysis> {
        let (events, shape_window) = match probe {
            WindowProbe::InstsOnly { events } => (events, false),
            WindowProbe::Shape { events, .. } => (events, true),
            _ => return Refresh::Drop,
        };
        // Profitability floor: a fresh divergence sweep is O(live insts)
        // with a small constant (no use map — see `run_with_pdt`), so on
        // tiny functions it undercuts the refresh's fixed costs (journal
        // replay, def→use rows, join re-derivation) no matter how small
        // the window is. The crossover sits around the size where the
        // sweep's repeated whole-function rounds start to dominate the
        // refresh's one-pass row build (measured on the paper kernels).
        if func.live_inst_count() < 56 {
            return Refresh::Drop;
        }
        // Periodic exact-confirm round: every 32nd reconciliation recomputes
        // from scratch on purpose, so a defect in the incremental path (or
        // in the journal feeding it) is caught within a bounded number of
        // windows instead of compounding silently for a whole session.
        am.divergence_refreshes += 1;
        if am.divergence_refreshes.is_multiple_of(32) {
            return Refresh::Drop;
        }
        // Replay cap: the refresh pays one pass over the window's events
        // before its live-seed gate can arbitrate, so the window must be
        // small against the function for the attempt itself to be cheaper
        // than the recompute it hopes to beat. Raw event counts overstate
        // the dirty set (an inserted-then-rewritten-then-deleted
        // instruction is three events and zero seeds), so the multiplier
        // leaves room for churn; meld-surgery windows that rewrite the
        // bulk of the function still land far above it and drop here,
        // before any replay is paid.
        if events > func.live_inst_count() {
            return Refresh::Drop;
        }
        // The shape dependencies must already be reconciled to the
        // function's current state — the divergence slot is swept last in
        // `update_after`, and the query path pulls CFG and both trees
        // before divergence — so a refresh never *forces* a dependency
        // recompute. A window harsh enough to drop the trees drops
        // divergence with them (the recompute then rebuilds all four
        // through the cache as usual).
        let head = func.journal_head();
        let (Some(cfg), Some(dt), Some(pdt)) = (
            am.reconciled_dep::<Cfg>(head),
            am.reconciled_dep::<DomTree>(head),
            am.reconciled_dep::<PostDomTree>(head),
        ) else {
            return Refresh::Drop;
        };
        // Zero-allocation replay of just the touched-instruction events;
        // a saturated cursor (`false`) means anything may have changed.
        let mut touched = std::mem::take(&mut am.touched_scratch);
        touched.clear();
        let ok = func.insts_touched_since(cursor, |id| touched.push(id));
        let refreshed = if ok {
            touched.sort_unstable();
            touched.dedup();
            old.refresh_window(func, &cfg, &dt, &pdt, &touched, shape_window)
        } else {
            None
        };
        am.touched_scratch = touched;
        match refreshed {
            Some(value) => {
                #[cfg(debug_assertions)]
                {
                    let fresh = DivergenceAnalysis::run_with_pdt(func, &cfg, &dt, &pdt);
                    for i in 0..func.inst_capacity() {
                        let id = darm_ir::InstId::new(i);
                        debug_assert_eq!(
                            value.is_inst_divergent(id),
                            fresh.is_inst_divergent(id),
                            "incremental divergence diverged from fresh at inst {i}"
                        );
                    }
                    for b in 0..func.block_capacity() {
                        let bb = darm_ir::BlockId::new(b);
                        debug_assert_eq!(
                            value.is_divergent_branch(bb),
                            fresh.is_divergent_branch(bb),
                            "incremental divergent-branch flag diverged at block {b}"
                        );
                    }
                }
                Refresh::Update {
                    value,
                    deletion_batch: false,
                }
            }
            None => Refresh::Drop,
        }
    }
}

impl Analysis for Liveness {
    const NAME: &'static str = "liveness";
    const SHAPE_ONLY: bool = false;
    const SLOT: usize = 5;

    fn compute(func: &Function, am: &mut AnalysisManager) -> Liveness {
        let cfg = am.get::<Cfg>(func);
        Liveness::with_cfg(func, &cfg)
    }

    fn refresh(
        old: &Liveness,
        func: &Function,
        am: &mut AnalysisManager,
        probe: WindowProbe,
        cursor: JournalCursor,
    ) -> Refresh<Liveness> {
        // Instruction-only windows re-seed the dataflow from the dirty
        // blocks (the block graph is intact, so the current CFG snapshot
        // is the snapshot of the window's own state).
        match probe {
            WindowProbe::InstsOnly { .. } => {
                let delta = func.dirty_since(cursor);
                if delta.is_saturated() {
                    return Refresh::Drop;
                }
                let cfg = am.get::<Cfg>(func);
                Refresh::Update {
                    value: old.updated(func, &cfg, &delta.blocks),
                    deletion_batch: false,
                }
            }
            _ => Refresh::Drop,
        }
    }
}

/// What a transform pass left intact, reported to the pass manager.
///
/// Construct with [`PreservedAnalyses::all`] (nothing changed),
/// [`PreservedAnalyses::none`] (CFG shape changed) or
/// [`PreservedAnalyses::cfg_shape`] (instructions changed, block graph
/// intact), then refine with [`preserve`](PreservedAnalyses::preserve).
#[derive(Debug, Clone, Default)]
pub struct PreservedAnalyses {
    all: bool,
    shape: bool,
    extra: [bool; SLOT_COUNT],
}

impl PreservedAnalyses {
    /// The pass changed nothing analyses care about: keep everything.
    pub fn all() -> PreservedAnalyses {
        PreservedAnalyses {
            all: true,
            ..PreservedAnalyses::default()
        }
    }

    /// The pass changed the block graph: keep nothing.
    pub fn none() -> PreservedAnalyses {
        PreservedAnalyses::default()
    }

    /// The pass changed instructions but not the block graph: keep the
    /// shape-only analyses (CFG, dominators, post-dominators, loops).
    pub fn cfg_shape() -> PreservedAnalyses {
        PreservedAnalyses {
            all: false,
            shape: true,
            ..PreservedAnalyses::default()
        }
    }

    /// Additionally preserve analysis `A`.
    pub fn preserve<A: Analysis>(mut self) -> PreservedAnalyses {
        self.extra[A::SLOT] = true;
        self
    }

    /// Whether the entry in `slot` (with the given shape-only flag)
    /// survives this report.
    fn keeps(&self, slot: usize, shape_only: bool) -> bool {
        self.all || (self.shape && shape_only) || self.extra[slot]
    }
}

/// One cache slot: the result plus its shape-only flag and name (captured
/// at insertion so [`AnalysisManager::update_after_with_report`] can
/// filter without knowing the concrete types), and the journal cursor of the function state the
/// entry is valid for — every entry is reconciled against *its own*
/// window, so entries computed mid-pass are never replayed against edits
/// they already reflect.
#[derive(Clone)]
struct Slot {
    value: Arc<dyn Any + Send + Sync>,
    shape_only: bool,
    name: &'static str,
    cursor: JournalCursor,
}

/// Totals of the manager's bookkeeping, for per-pass attribution in
/// pipeline reports: full computations (cache misses), cache hits, and
/// incremental in-place updates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounters {
    /// Full recomputations (cache misses).
    pub computes: usize,
    /// Queries served from the cache.
    pub hits: usize,
    /// Entries refreshed in place by [`AnalysisManager::update_after`].
    pub updates: usize,
    /// The subset of `updates` that absorbed a *deletion-containing* edit
    /// batch via the affected-subtree rule (see
    /// [`DomTree::try_update`]) — the meld-surgery shape that used to force
    /// a full dominator recompute.
    pub in_place_deletion_updates: usize,
    /// The subset of `updates` that spliced the [`Cfg`] snapshot's RPO
    /// below the window's DFS-tree anchor instead of rebuilding it (see
    /// [`Cfg::try_update`]).
    pub in_place_cfg_updates: usize,
    /// The subset of `updates` that re-derived [`DivergenceAnalysis`] over
    /// the window's changed closure instead of recomputing from scratch
    /// (see [`DivergenceAnalysis::refresh_window`]).
    pub in_place_divergence_updates: usize,
}

impl AnalysisCounters {
    /// Component-wise difference (`self - earlier`), for per-pass deltas.
    pub fn since(&self, earlier: &AnalysisCounters) -> AnalysisCounters {
        AnalysisCounters {
            computes: self.computes - earlier.computes,
            hits: self.hits - earlier.hits,
            updates: self.updates - earlier.updates,
            in_place_deletion_updates: self.in_place_deletion_updates
                - earlier.in_place_deletion_updates,
            in_place_cfg_updates: self.in_place_cfg_updates - earlier.in_place_cfg_updates,
            in_place_divergence_updates: self.in_place_divergence_updates
                - earlier.in_place_divergence_updates,
        }
    }
}

impl std::ops::AddAssign for AnalysisCounters {
    fn add_assign(&mut self, rhs: AnalysisCounters) {
        self.computes += rhs.computes;
        self.hits += rhs.hits;
        self.updates += rhs.updates;
        self.in_place_deletion_updates += rhs.in_place_deletion_updates;
        self.in_place_cfg_updates += rhs.in_place_cfg_updates;
        self.in_place_divergence_updates += rhs.in_place_divergence_updates;
    }
}

/// Memoizing analysis cache keyed by analysis type (via the dense
/// [`Analysis::SLOT`] index). See the module docs for the reconciliation
/// contract.
#[derive(Default)]
pub struct AnalysisManager {
    slots: [Option<Slot>; SLOT_COUNT],
    computed: Vec<(&'static str, usize)>,
    counters: AnalysisCounters,
    cursor: Option<JournalCursor>,
    dom_checkpoint: Option<(JournalCursor, Arc<DomTree>)>,
    /// Memoized normalized edit summary of the window `[from, to)` — the
    /// dominator and post-dominator trees usually reconcile the same
    /// window back to back, and normalization is the expensive half.
    tree_window_memo: Option<TreeWindowMemo>,
    /// Reused replay buffer for [`Function::cfg_edits_since`].
    edits_scratch: Vec<darm_ir::CfgEdit>,
    /// Reused replay buffer for [`Function::insts_touched_since`] (the
    /// divergence refresh's touched-instruction window).
    touched_scratch: Vec<darm_ir::InstId>,
    /// Reconciliations the divergence slot has attempted — drives the
    /// periodic exact-confirm round (every 32nd drops and recomputes).
    divergence_refreshes: usize,
}

/// See [`AnalysisManager::tree_window_memo`].
struct TreeWindowMemo {
    from: JournalCursor,
    to: JournalCursor,
    summary: EditSummary,
}

impl std::fmt::Debug for AnalysisManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached: Vec<&str> = self.slots.iter().flatten().map(|s| s.name).collect();
        f.debug_struct("AnalysisManager")
            .field("cached", &cached)
            .field("computed", &self.computed)
            .field("counters", &self.counters)
            .finish()
    }
}

impl AnalysisManager {
    /// An empty cache.
    pub fn new() -> AnalysisManager {
        AnalysisManager::default()
    }

    /// Returns analysis `A` for the current state of `func` — serving the
    /// cache, *reconciling on read* (a cached entry whose journal window
    /// is non-clean is kept, updated in place, or dropped per
    /// [`Analysis::refresh`]), or computing from scratch. Reconciliation
    /// happens lazily at query time, so mutation-heavy stretches coalesce
    /// into one window per entry instead of paying per edit batch.
    pub fn get<A: Analysis>(&mut self, func: &Function) -> Arc<A> {
        match self.reconcile::<A>(func, true) {
            Some(value) => value,
            None => {
                darm_ir::fault::point("analysis::compute");
                let value = Arc::new(A::compute(func, self));
                self.note_computed(A::NAME);
                self.put(func, value.clone());
                value
            }
        }
    }

    /// Reconciles the cached `A` (if any) with the journal window since it
    /// was last validated, returning the surviving value. `count_hit`
    /// controls whether an entry served unchanged counts as a cache hit
    /// (query paths) or not (eager [`AnalysisManager::update_after`]
    /// sweeps).
    fn reconcile<A: Analysis>(&mut self, func: &Function, count_hit: bool) -> Option<Arc<A>> {
        let slot = self.slots[A::SLOT].as_ref()?;
        let cursor = slot.cursor;
        let value = slot
            .value
            .clone()
            .downcast::<A>()
            .expect("cache slot type matches key");
        let probe = func.probe_since(cursor);
        if matches!(probe, WindowProbe::Clean) {
            if count_hit {
                self.counters.hits += 1;
            }
            return Some(value);
        }
        match A::refresh(&value, func, self, probe, cursor) {
            Refresh::Keep => {
                if count_hit {
                    self.counters.hits += 1;
                }
                self.refresh_cursor::<A>(func.journal_head());
                Some(value)
            }
            Refresh::Update {
                value,
                deletion_batch,
            } => {
                let value = Arc::new(value);
                self.put(func, value.clone());
                self.note_updated(A::NAME, deletion_batch);
                Some(value)
            }
            Refresh::Drop => {
                self.slots[A::SLOT] = None;
                None
            }
        }
    }

    /// The cached `A` only if it is already reconciled to journal cursor
    /// `head` — the dependency form used by in-place refreshes, which must
    /// never force a dependency recompute of their own.
    fn reconciled_dep<A: Analysis>(&self, head: JournalCursor) -> Option<Arc<A>> {
        self.slots[A::SLOT]
            .as_ref()
            .filter(|slot| slot.cursor == head)
            .map(|slot| {
                slot.value
                    .clone()
                    .downcast::<A>()
                    .expect("cache slot type matches key")
            })
    }

    /// The cached `A`, if present (no computation, not counted as a hit).
    pub fn cached<A: Analysis>(&self) -> Option<Arc<A>> {
        self.slots[A::SLOT].as_ref().map(|slot| {
            slot.value
                .clone()
                .downcast::<A>()
                .expect("cache slot type matches key")
        })
    }

    fn put<A: Analysis>(&mut self, func: &Function, value: Arc<A>) {
        self.slots[A::SLOT] = Some(Slot {
            value,
            shape_only: A::SHAPE_ONLY,
            name: A::NAME,
            cursor: func.journal_head(),
        });
    }

    /// Stamps the cached `A` (if any) as valid for the function's current
    /// state — called after a reconciliation proves the entry survived.
    fn refresh_cursor<A: Analysis>(&mut self, head: JournalCursor) {
        if let Some(slot) = &mut self.slots[A::SLOT] {
            slot.cursor = head;
        }
    }

    /// Forgets *everything tied to a function's journal identity* — cached
    /// entries, the observation cursor, the dominator checkpoint and the
    /// window memo — keeping only the historical computation counters.
    ///
    /// This is the containment path for abandoned windows: after a
    /// contained pipeline panic or budget cancellation the function is
    /// rolled back to a pre-pipeline snapshot under a *fresh* journal
    /// identity, so every anchor this manager holds describes an edit
    /// history that no longer exists. Stale cursors would merely saturate
    /// (safe but wasteful); the checkpoint and memo would be dead weight.
    /// A hard reset returns the manager to the cold state a fresh function
    /// expects, while the counters keep reporting what was truly spent.
    pub fn hard_reset(&mut self) {
        self.slots = Default::default();
        self.cursor = None;
        self.dom_checkpoint = None;
        self.tree_window_memo = None;
        self.edits_scratch.clear();
        self.touched_scratch.clear();
    }

    /// Anchors the manager's journal cursor at the function's current
    /// state. Call once before a driver starts interleaving mutations with
    /// eager [`AnalysisManager::update_after`] sweeps. Cached entries keep
    /// their own cursors — one still carrying an unreconciled window must
    /// not be stamped valid here.
    pub fn observe(&mut self, func: &Function) {
        self.cursor = Some(func.journal_head());
    }

    /// Publishes a *repair checkpoint*: the dominator tree of the
    /// function's current state together with the journal cursor marking
    /// it. By storing one, the driver asserts the function is in valid,
    /// fully repaired SSA form right now — which lets the next SSA-repair
    /// run scope its very first broken-definition scan to the mutations
    /// and dominance changes since this point instead of sweeping the
    /// whole function.
    pub fn set_dom_checkpoint(&mut self, func: &Function, tree: Arc<DomTree>) {
        self.dom_checkpoint = Some((func.journal_head(), tree));
    }

    /// Consumes the pending repair checkpoint, if any.
    pub fn take_dom_checkpoint(&mut self) -> Option<(JournalCursor, Arc<DomTree>)> {
        self.dom_checkpoint.take()
    }

    /// Eager reconciliation: classifies the mutation window since the last
    /// [`observe`](AnalysisManager::observe)/`update_after` (an O(1) probe
    /// on the journal) and reconciles every cached entry with what
    /// actually changed — keeping entries untouched windows cannot have
    /// broken, updating dominator trees in place (including
    /// deletion-containing batches, via the affected-subtree rule),
    /// re-seeding liveness from the dirty blocks, and dropping the rest.
    ///
    /// Each entry is reconciled against *its own* window: slots remember
    /// the journal cursor of the state they were computed (or last
    /// validated) for, so an entry a transform re-queried mid-pass is
    /// never replayed against edits it already reflects. Wide windows and a
    /// saturated journal degrade to dropping; a missing manager cursor
    /// degrades to dropping everything.
    ///
    /// Returns the classification of the *manager-level* window (since the
    /// last `observe`/`update_after`).
    pub fn update_after(&mut self, func: &Function) -> WindowProbe {
        let probe = match self.cursor {
            Some(cursor) => func.probe_since(cursor),
            None => WindowProbe::Saturated,
        };
        self.cursor = Some(func.journal_head());
        match probe {
            // Slots installed before the manager's window opened were
            // validated then; slots installed inside it are newer still —
            // a clean manager window keeps everything.
            WindowProbe::Clean => return probe,
            WindowProbe::Saturated => {
                self.slots = Default::default();
                return probe;
            }
            _ => {}
        }
        // Eagerly reconcile every cached entry against its own window
        // (CFG first so the tree updates pull a valid snapshot through
        // the cache). Entries served unchanged do not count as hits here.
        self.reconcile::<Cfg>(func, false);
        self.reconcile::<DomTree>(func, false);
        self.reconcile::<PostDomTree>(func, false);
        self.reconcile::<LoopInfo>(func, false);
        self.reconcile::<Liveness>(func, false);
        self.reconcile::<DivergenceAnalysis>(func, false);
        probe
    }

    /// Applies a pass's [`PreservedAnalyses`] report under journal
    /// arbitration — run by every `darm-pipeline` pipeline after every
    /// pass: entries the report vouches for are stamped valid for the
    /// current state (the pass proved it preserved them across its
    /// mutations); everything else keeps its old validity cursor and is
    /// reconciled *lazily* at its next query — where the journal keeps,
    /// updates in place, or drops it. The union is sound — an entry
    /// survives only if the report vouches for it or the journal proves
    /// its window harmless — and strictly finer than either side alone.
    ///
    /// `pass_start` is the journal cursor captured just before the pass
    /// ran: the report vouches for the `[pass_start, now)` window *only*,
    /// so an entry still carrying an older unreconciled window keeps its
    /// cursor and revalidates lazily instead of having that pending
    /// window silently erased.
    pub fn update_after_with_report(
        &mut self,
        func: &Function,
        preserved: &PreservedAnalyses,
        pass_start: JournalCursor,
    ) {
        let head = func.journal_head();
        self.cursor = Some(head);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(slot) = slot {
                if slot.cursor == pass_start && preserved.keeps(i, slot.shape_only) {
                    slot.cursor = head;
                }
            }
        }
    }

    /// How many times each analysis was computed (cache misses), in first-
    /// computed order. Cache hits do not count; the difference between
    /// queries and computations is the reuse the cache bought.
    pub fn computations(&self) -> &[(&'static str, usize)] {
        &self.computed
    }

    /// Total number of analysis computations (cache misses) so far.
    pub fn total_computations(&self) -> usize {
        self.counters.computes
    }

    /// Snapshot of the compute/hit/update totals.
    pub fn counters(&self) -> AnalysisCounters {
        self.counters
    }

    fn note_computed(&mut self, name: &'static str) {
        self.counters.computes += 1;
        match self.computed.iter_mut().find(|(n, _)| *n == name) {
            Some((_, n)) => *n += 1,
            None => self.computed.push((name, 1)),
        }
    }

    fn note_updated(&mut self, name: &'static str, deletion_batch: bool) {
        self.counters.updates += 1;
        if deletion_batch {
            self.counters.in_place_deletion_updates += 1;
        }
        match name {
            "cfg" => self.counters.in_place_cfg_updates += 1,
            "divergence" => self.counters.in_place_divergence_updates += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, InstData, Opcode, Type, Value};

    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        f
    }

    #[test]
    fn caches_and_shares_dependencies() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        let dt1 = am.get::<DomTree>(&f);
        let dt2 = am.get::<DomTree>(&f);
        assert!(Arc::ptr_eq(&dt1, &dt2));
        // DomTree computed the Cfg through the cache: exactly one compute of
        // each despite the repeated query.
        assert_eq!(am.computations(), &[("cfg", 1), ("domtree", 1)]);
        am.get::<DivergenceAnalysis>(&f);
        // Divergence pulls the post-dominator tree through the cache too.
        assert_eq!(am.total_computations(), 4);
        assert!(am.counters().hits >= 3);
    }

    #[test]
    fn hard_reset_forgets_anchors_but_keeps_counters() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.observe(&f);
        let dt = am.get::<DomTree>(&f);
        am.set_dom_checkpoint(&f, dt);
        let computed = am.total_computations();
        assert!(computed > 0);
        am.hard_reset();
        assert!(am.cached::<Cfg>().is_none());
        assert!(am.cached::<DomTree>().is_none());
        assert!(am.take_dom_checkpoint().is_none());
        // Historical stats survive: the reset forgets state, not spend.
        assert_eq!(am.total_computations(), computed);
        // The manager is usable from cold afterwards.
        am.get::<DomTree>(&f);
        assert!(am.cached::<DomTree>().is_some());
    }

    #[test]
    fn report_only_vouches_for_entries_valid_at_pass_start() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let dt = am.get::<DomTree>(&f);
        am.get::<DivergenceAnalysis>(&f);
        // An instruction-only "pass": the report vouches for the shape
        // analyses across its window, the journal decides the rest.
        let start = f.journal_head();
        let t = f.block_ids()[1];
        f.insert_inst_at(
            t,
            0,
            InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
        );
        am.update_after_with_report(&f, &PreservedAnalyses::cfg_shape(), start);
        let hits = am.counters().hits;
        assert!(Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        assert_eq!(am.counters().hits, hits + 1, "vouched entry is a plain hit");
        // A second pass whose report vouches for everything must not
        // resurrect divergence: its cursor predates that pass's start.
        let start = f.journal_head();
        am.update_after_with_report(&f, &PreservedAnalyses::all(), start);
        let before = am.total_computations();
        am.get::<DivergenceAnalysis>(&f);
        assert_eq!(
            am.total_computations(),
            before + 1,
            "tiny function: the pending window drops and recomputes divergence"
        );
    }

    #[test]
    fn update_after_keeps_everything_on_clean_window() {
        let f = diamond();
        let mut am = AnalysisManager::new();
        am.observe(&f);
        am.get::<DivergenceAnalysis>(&f);
        am.get::<Liveness>(&f);
        let before = am.total_computations();
        let probe = am.update_after(&f);
        assert_eq!(probe, WindowProbe::Clean);
        assert!(am.cached::<DivergenceAnalysis>().is_some());
        assert!(am.cached::<Liveness>().is_some());
        assert_eq!(am.total_computations(), before);
    }

    #[test]
    fn update_after_inst_only_window_keeps_shape() {
        let mut f = diamond();
        // Pad the function above the divergence refresh's profitability
        // floor: on genuinely tiny functions the refresh rightly declines
        // in favor of the fresh sweep, and this test pins the in-place
        // path itself.
        let entry = f.entry();
        for _ in 0..64 {
            f.insert_inst_at(
                entry,
                0,
                InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
            );
        }
        let mut am = AnalysisManager::new();
        am.observe(&f);
        let dt = am.get::<DomTree>(&f);
        am.get::<DivergenceAnalysis>(&f);
        am.get::<Liveness>(&f);
        // Instruction-only mutation: insert a dead add in `t`.
        let t = f.block_ids()[1];
        f.insert_inst_at(
            t,
            0,
            InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
        );
        let probe = am.update_after(&f);
        assert!(matches!(probe, WindowProbe::InstsOnly { .. }));
        assert!(
            Arc::ptr_eq(&dt, &am.cached::<DomTree>().unwrap()),
            "shape analyses survive an instruction-only window"
        );
        // Divergence was re-derived over the changed closure, in place.
        let div = am
            .cached::<DivergenceAnalysis>()
            .expect("divergence updated in place");
        let fresh_cfg = Cfg::new(&f);
        let fresh_dt = DomTree::new(&f, &fresh_cfg);
        let fresh_div = DivergenceAnalysis::run(&f, &fresh_cfg, &fresh_dt);
        for i in 0..f.inst_capacity() {
            let id = darm_ir::InstId::new(i);
            assert_eq!(div.is_inst_divergent(id), fresh_div.is_inst_divergent(id));
        }
        for b in f.block_ids() {
            assert_eq!(div.is_divergent_branch(b), fresh_div.is_divergent_branch(b));
        }
        // Liveness was refreshed in place, and matches a fresh compute.
        let live = am.cached::<Liveness>().expect("liveness updated in place");
        let fresh = Liveness::new(&f);
        for b in f.block_ids() {
            assert_eq!(live.live_in(b), fresh.live_in(b));
            assert_eq!(live.live_out(b), fresh.live_out(b));
        }
        assert_eq!(am.counters().updates, 2);
        assert_eq!(am.counters().in_place_divergence_updates, 1);
    }

    #[test]
    fn update_after_without_observe_degrades_to_full_invalidation() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        am.get::<DomTree>(&f);
        let t = f.block_ids()[1];
        let term = f.terminator(t).unwrap();
        f.remove_inst(term);
        let probe = am.update_after(&f);
        assert_eq!(probe, WindowProbe::Saturated);
        assert!(am.cached::<DomTree>().is_none());
        assert!(am.cached::<Cfg>().is_none());
    }
}
