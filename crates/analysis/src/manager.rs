//! Cached analysis management with journal reconciliation — the analogue
//! of LLVM's `FunctionAnalysisManager` for the pass pipeline in
//! `darm-pipeline`.
//!
//! Every analysis in this crate is a pure function of the IR: recomputing it
//! on an unchanged [`Function`] yields an equal value. The
//! [`AnalysisManager`] exploits that by memoizing results keyed by analysis
//! *type* and handing out shared [`Arc`] references (so results are also
//! `Send + Sync`), and a fixpoint driver that runs many queries against one
//! CFG state computes each analysis at most once.
//!
//! # Reconcile-on-read: keep or recompute
//!
//! Every cache slot remembers the *journal cursor* of the function state
//! it was computed (or last validated) for. A query
//! ([`AnalysisManager::get`]) probes the window since that cursor in O(1)
//! and decides at read time:
//!
//! * a clean window serves the entry as a plain hit;
//! * an instruction-only window keeps the [`Analysis::SHAPE_ONLY`]
//!   analyses ([`Cfg`], [`DomTree`], [`PostDomTree`]) — they read nothing
//!   but the block graph;
//! * anything else — a block-graph window, a cursor from another journal
//!   identity (a clone's source, a state a restore abandoned), an
//!   instruction-only window under [`DivergenceAnalysis`] — drops the
//!   entry, which recomputes from scratch.
//!
//! Nothing is patched in place. Updating the trees, the CFG snapshot and
//! divergence from the journal was measured against this rule on the same
//! driver and lost at every function size tried, 50 to 18 000 instructions
//! (CHANGES.md, PR 18): a from-scratch compute is a few linear sweeps,
//! cheaper than replaying and normalizing the window it would save.
//!
//! Laziness is what keeps recomputation cheap: a mutation-heavy stretch
//! (meld surgery followed by cleanup rounds) coalesces into *one* window
//! per entry, judged at its next query. Per-slot cursors are what make it
//! sound: a transform that mutates and re-queries an analysis mid-run
//! produces an entry stamped with its own (newer) cursor.
//!
//! # One invalidation discipline
//!
//! The journal alone decides what survives: nothing is dropped by hand and
//! no pass is asked what it preserved. A function rolled back under a fresh
//! journal identity (`Function::restore`) is compiled again, if at all,
//! against a fresh manager.
//!
//! [`AnalysisManager::counters`] exposes how many computations and cache
//! hits occurred — `darm meld --time-passes` prints the per-pass split.

use crate::cfg::Cfg;
use crate::divergence::DivergenceAnalysis;
use crate::dom::{DomTree, PostDomTree};
use darm_ir::{Function, JournalCursor, WindowProbe};
use std::any::Any;
use std::sync::Arc;

/// Number of cache slots — one per registered [`Analysis`] impl.
const SLOT_COUNT: usize = 4;

/// A cacheable analysis over a [`Function`].
///
/// `compute` receives the manager so dependent analyses come from the same
/// cache (e.g. [`DomTree`] pulls the cached [`Cfg`]). Implementations must
/// be pure: equal IR must produce an equal (observationally) result.
///
/// The cache is keyed by analysis type through `SLOT`, a dense per-type
/// index (cheaper than hashing a `TypeId` on the pipeline's hot path);
/// every implementation must pick a distinct slot below `SLOT_COUNT`.
/// Results must be `Send + Sync` so cached handles can cross threads.
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
}

impl Analysis for Cfg {
    const NAME: &'static str = "cfg";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 0;

    fn compute(func: &Function, _am: &mut AnalysisManager) -> Cfg {
        Cfg::new(func)
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
}

impl Analysis for PostDomTree {
    const NAME: &'static str = "postdomtree";
    const SHAPE_ONLY: bool = true;
    const SLOT: usize = 2;

    fn compute(func: &Function, am: &mut AnalysisManager) -> PostDomTree {
        let cfg = am.get::<Cfg>(func);
        PostDomTree::new(func, &cfg)
    }
}

impl Analysis for DivergenceAnalysis {
    const NAME: &'static str = "divergence";
    const SHAPE_ONLY: bool = false;
    const SLOT: usize = 3;

    fn compute(func: &Function, am: &mut AnalysisManager) -> DivergenceAnalysis {
        let cfg = am.get::<Cfg>(func);
        let dt = am.get::<DomTree>(func);
        // The post-dominator tree comes from the shared cache: the paper's
        // driver recomputed it privately inside every divergence run.
        let pdt = am.get::<PostDomTree>(func);
        DivergenceAnalysis::run_with_pdt(func, &cfg, &dt, &pdt)
    }
}

/// One cache slot: the result plus the journal cursor of the function
/// state the entry is valid for — every entry is judged against *its own*
/// window, so entries computed mid-pass are never condemned by edits they
/// already reflect.
#[derive(Clone)]
struct Slot {
    value: Arc<dyn Any + Send + Sync>,
    cursor: JournalCursor,
}

/// Totals of the manager's bookkeeping, for per-pass attribution in
/// pipeline reports: full computations (cache misses) and cache hits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCounters {
    /// Full recomputations (cache misses).
    pub computes: usize,
    /// Queries served from the cache.
    pub hits: usize,
    /// Always 0, like the three fields below: no analysis is updated in
    /// place any more; the fields stay because the frozen benchmark ledger
    /// (`examples/benchmark`) names them.
    pub updates: usize,
    /// Always 0 (see `updates`).
    pub in_place_deletion_updates: usize,
    /// Always 0 (see `updates`).
    pub in_place_cfg_updates: usize,
    /// Always 0 (see `updates`).
    pub in_place_divergence_updates: usize,
}

impl AnalysisCounters {
    /// Component-wise difference (`self - earlier`), for per-pass deltas.
    pub fn since(&self, earlier: &AnalysisCounters) -> AnalysisCounters {
        AnalysisCounters {
            computes: self.computes - earlier.computes,
            hits: self.hits - earlier.hits,
            ..AnalysisCounters::default()
        }
    }
}

impl std::ops::AddAssign for AnalysisCounters {
    fn add_assign(&mut self, rhs: AnalysisCounters) {
        self.computes += rhs.computes;
        self.hits += rhs.hits;
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
}

impl std::fmt::Debug for AnalysisManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisManager")
            .field("cached", &self.slots.iter().flatten().count())
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
    /// cache when the entry's journal window lets it stand (see the module
    /// docs), computing from scratch otherwise. The decision happens
    /// lazily at query time, so mutation-heavy stretches coalesce into one
    /// window per entry instead of paying per edit batch.
    pub fn get<A: Analysis>(&mut self, func: &Function) -> Arc<A> {
        if let Some(value) = self.reconcile::<A>(func) {
            return value;
        }
        darm_ir::fault::point("analysis::compute");
        let value = Arc::new(A::compute(func, self));
        self.counters.computes += 1;
        match self.computed.iter_mut().find(|(n, _)| *n == A::NAME) {
            Some((_, n)) => *n += 1,
            None => self.computed.push((A::NAME, 1)),
        }
        self.slots[A::SLOT] = Some(Slot {
            value: value.clone(),
            cursor: func.journal_head(),
        });
        value
    }

    /// Judges the cached `A` (if any) against the journal window since it
    /// was last validated: a surviving entry is stamped valid for the
    /// current state and returned as a hit, a condemned one is dropped.
    fn reconcile<A: Analysis>(&mut self, func: &Function) -> Option<Arc<A>> {
        let slot = self.slots[A::SLOT].as_mut()?;
        let keep = match func.probe_since(slot.cursor) {
            WindowProbe::Clean => true,
            WindowProbe::InstsOnly => A::SHAPE_ONLY,
            _ => false,
        };
        if !keep {
            self.slots[A::SLOT] = None;
            return None;
        }
        slot.cursor = func.journal_head();
        self.counters.hits += 1;
        self.cached::<A>()
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

    /// Snapshot of the compute/hit totals.
    pub fn counters(&self) -> AnalysisCounters {
        self.counters
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
    fn windows_keep_or_recompute() {
        let mut f = diamond();
        let mut am = AnalysisManager::new();
        let dt = am.get::<DomTree>(&f);
        let div = am.get::<DivergenceAnalysis>(&f);
        // Instruction-only window: shape analyses stand, divergence goes.
        let t = f.block_ids()[1];
        f.insert_inst_at(
            t,
            0,
            InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
        );
        let hits = am.counters().hits;
        assert!(Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        assert_eq!(am.counters().hits, hits + 1, "kept entry is a plain hit");
        let before = am.total_computations();
        assert!(!Arc::ptr_eq(&div, &am.get::<DivergenceAnalysis>(&f)));
        assert_eq!(
            am.total_computations(),
            before + 1,
            "the instruction window drops and recomputes divergence alone"
        );
        // Block-graph window: everything is recomputed.
        f.add_block("late");
        let before = am.total_computations();
        assert!(!Arc::ptr_eq(&dt, &am.get::<DomTree>(&f)));
        am.get::<DivergenceAnalysis>(&f);
        assert_eq!(am.total_computations(), before + 4);
    }
}
