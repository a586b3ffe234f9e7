//! The melding transformation as a [`Pass`], plus tail merging as a pass.
//!
//! [`MeldPass`] is Algorithm 1 with one change to its loop: **a round melds
//! a pairwise-disjoint set of regions, then cleans up once.** A round pulls
//! its CFG/dominator/divergence snapshot from the shared
//! [`AnalysisManager`], detects and ranks every candidate region
//! (innermost first, §VI-B), plans each against the still-unchanged
//! function — planning is pure — and keeps a plan when its region is
//! disjoint from every region kept before it. Only then does it write: the
//! kept plans are applied one after another, every use of a value they
//! cloned is pointed at its clone in one substitution, the cleanup
//! pipeline (`ssa-repair`, `instcombine`, `simplify`, `dce`) runs once
//! over the result, and the next round re-detects. A region that clashed
//! waits for that next round; a round that keeps nothing tries region
//! simplification on the undetected candidates, and a round that cannot
//! even pad is the fixpoint.
//!
//! **The disjointness rule** (`Claims`): a region's *footprint* is its
//! branch block plus every block of its two chains. Two regions share a
//! round when their footprints share no block, their exits differ, and
//! neither exit lies in the other's chains. One region's exit *being* the
//! other's branch block is allowed — a ladder, where rung `N`'s join holds
//! rung `N + 1`'s branch — so a ladder melds level by level, not rung by
//! rung.
//!
//! **Why no cleanup is needed between disjoint regions.** Algorithm 1 runs
//! `RunPostOptimizations` after every region, but its correctness argument
//! (§IV) is per region: the melded region, specialised to its condition,
//! is the true path or the false path. A meld reads and rewrites its own
//! footprint and the φs of its exit, and owes the function one
//! substitution — the uses of the values its blocks defined, pointed at
//! their clones; it asks nothing of dominance or of any block outside. So
//! a plan made against the round's first state still describes its region
//! after a disjoint region was melded: the blocks it names are untouched.
//! What the cleanup restores — SSA dominance for values that now flow out
//! of guarded blocks, folded selects, merged blocks — no later apply of
//! the round depends on; one repair at the end of the round repairs them
//! all. Nested regions are the case that does need the cleanup in between
//! (the outer region's chain *contains* the inner footprint), and they
//! never share a round.
//!
//! **Where the substitution lands: once, after the round's last apply.**
//! [`meld_region`] queues its `(original, clone)` pairs on the pass's
//! [`MeldRound`], and the round applies them all in one
//! [`Function::rauw_many`] before the cleanup — so a round pays one
//! function-sized scan, not one per region (the `substitute` row of
//! `--time-passes`). Deferring it is sound because disjoint regions have
//! disjoint operand maps and no apply reads a value another would
//! substitute. A value a chain block defines is used only where that block
//! dominates — later blocks of its own chain — and in the φs of the
//! region's exit; the apply resolves both through its own map (melded
//! clones in SetOperands, exit φs in place), leaving the originals used
//! only by the unmatched subgraphs it keeps and by its deleted blocks.
//! Those lie in its own footprint, which no other region of the round
//! reads; its exit is no other region's exit or chain, so the φs another
//! apply rewrites never name its values. Within the apply, unpredication
//! is the one reader of uses, and it looks for each clone's source too
//! ([`GapRun::sources`](crate::unpredicate::GapRun::sources)). Were any of
//! this to break, an apply would read an original that an earlier apply of
//! the round deleted, and [`Function::inst`]'s removed-instruction assert
//! trips.
//!
//! Nothing invalidates by hand: every mutation — region surgery and
//! cleanup alike — is journaled, and the manager reconciles each cached
//! entry against its own window at the next query, keeping what the
//! window cannot have touched and recomputing the rest on demand.
//!
//! The melded IR of every paper kernel is pinned by a committed golden
//! table (`melded_ir_matches_golden` in `darm-bench`).

use crate::codegen::{meld_region, MeldRound};
use crate::region::{self, MeldableRegion};
use crate::{plan_region, Analyses, MeldConfig, MeldMode, MeldStats, PlanElement};
use darm_analysis::AnalysisManager;
use darm_ir::{BlockId, Function, JournalCursor, WindowProbe};
use darm_pipeline::{
    DcePass, InstCombinePass, Pass, PassManager, PassRecord, PipelineOptions, SimplifyCfgPass,
    SsaRepairPass,
};
use std::time::Instant;

/// The fixpoint's own phases, in the order a round runs them; the inner
/// cleanup pipeline's slots follow them as child rows. `Codegen` runs once
/// per melded region, `Substitute` once per round that melded.
#[derive(Clone, Copy)]
enum Phase {
    Analyses,
    Detect,
    PlanAlign,
    Codegen,
    Substitute,
}

/// Stat entry counting [`MeldPass`] runs that stopped at
/// [`MeldConfig::max_iterations`] instead of at their fixpoint.
pub const CAP_HITS_STAT: &str = "fixpoint cap hits";

/// Row names, indexed by [`Phase`].
const PHASES: [&str; 5] = ["analyses", "detect", "plan+align", "codegen", "substitute"];

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
    /// The journal head a run that reached its fixpoint left behind. While
    /// the function's window since then is clean a rerun would find the
    /// same nothing — after inserting, and cleaning away again, the same
    /// landing pads — so it returns at once and leaves the journal clean:
    /// the pass is idempotent under `fixpoint(meld)`.
    settled_at: Option<JournalCursor>,
    /// The applies' side tables and the round's pending substitution.
    round: MeldRound,
    cleanup: PassManager,
    clock: PhaseClock,
}

impl MeldPass {
    /// A meld pass for `config`; its statistics are its
    /// [`Pass::stat_entries`].
    pub fn new(config: MeldConfig) -> MeldPass {
        // Algorithm 1's RunPostOptimizations, as an inner pipeline: each
        // cleanup pass runs over the whole function, once per round. The
        // analysis cache reconciles through the journal — so the
        // dominator/post-dominator trees computed after the meld surgery
        // survive the cleanup passes that leave the block graph alone.
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
            settled_at: None,
            round: MeldRound::default(),
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

    /// Runs the cleanup pipeline once over `func` and returns how many
    /// definitions its SSA repair rewrote.
    fn clean_up(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<usize, String> {
        let repairs_before = self.cleanup.units_of("ssa-repair");
        self.cleanup
            .run_once(func, am)
            .map_err(|e| format!("post-meld cleanup failed: {e}"))?;
        Ok((self.cleanup.units_of("ssa-repair") - repairs_before) as usize)
    }
}

/// A round's candidates: entry block, chain size and the memoized
/// detection result, so the planning loop does not re-detect what the
/// sizing pass already computed. The memo stays valid for the whole
/// planning loop: planning takes `&Function`, and nothing is applied (or
/// padded) before the loop is over.
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
                .map_or(usize::MAX / 2, |r| r.chain_blocks().count());
            (size, b, r)
        })
        .collect();
    // Innermost (smallest) first: melding an inner diamond before its
    // enclosing region avoids unnecessary region replication (the SB4
    // situation, §VI-B).
    candidates.sort_by_key(|&(size, b, _)| (size, std::cmp::Reverse(a.cfg.rpo_index(b))));
    candidates
}

/// What the regions kept so far in a round lay claim to, per block: the
/// disjointness rule of a round (module docs). A region's footprint —
/// branch block plus chain blocks — is what
/// [`codegen::meld_region`](crate::codegen::meld_region) rewrites or
/// deletes, and its exit is the one block outside the footprint whose φs
/// the meld rewrites. A region joins the round when its footprint shares no
/// block with a kept footprint, its exit is no kept region's exit, and
/// neither its exit lies in a kept chain nor a kept exit in one of its
/// chains. An exit that is another region's *branch block* is no clash:
/// the meld of that region replaces only the block's terminator.
struct Claims {
    /// [`Claims::BRANCH`] | [`Claims::CHAIN`] | [`Claims::EXIT`] per block
    /// arena index.
    roles: Vec<u8>,
}

impl Claims {
    const BRANCH: u8 = 1;
    const CHAIN: u8 = 2;
    const EXIT: u8 = 4;

    fn new(func: &Function) -> Claims {
        Claims {
            roles: vec![0; func.block_capacity()],
        }
    }

    /// Whether `r` is disjoint from every region claimed so far.
    fn admits(&self, r: &MeldableRegion) -> bool {
        let role = |b: BlockId| self.roles[b.index()];
        role(r.branch_block) & (Claims::BRANCH | Claims::CHAIN) == 0
            && role(r.exit) & (Claims::EXIT | Claims::CHAIN) == 0
            && r.chain_blocks().all(|b| role(b) == 0)
    }

    fn claim(&mut self, r: &MeldableRegion) {
        self.roles[r.branch_block.index()] |= Claims::BRANCH;
        self.roles[r.exit.index()] |= Claims::EXIT;
        for b in r.chain_blocks() {
            self.roles[b.index()] |= Claims::CHAIN;
        }
    }
}

impl Pass for MeldPass {
    fn name(&self) -> &str {
        match self.config.mode {
            MeldMode::Darm => "meld",
            MeldMode::BranchFusion => "meld-bf",
        }
    }

    fn run(&mut self, func: &mut Function, am: &mut AnalysisManager) -> Result<u64, String> {
        if self
            .settled_at
            .is_some_and(|at| func.probe_since(at) == WindowProbe::Clean)
        {
            return Ok(0);
        }
        let config = self.config;
        let mut stats = MeldStats::default();
        let mut reached_fixpoint = false;
        // Landing pads inserted since the last cleanup.
        let mut pads_pending = false;
        for _ in 0..config.max_iterations {
            darm_ir::budget::poll("meld::fixpoint");
            stats.iterations += 1;
            let a = self
                .clock
                .time(Phase::Analyses, || Analyses::from_manager(func, am));
            let candidates = self.clock.time(Phase::Detect, || candidates(func, &a));
            // Plan every detected candidate against the one unchanged
            // function, innermost first, and keep those that are disjoint
            // from everything kept before them.
            let mut batch: Vec<(MeldableRegion, Vec<PlanElement>)> = Vec::new();
            let mut claims = Claims::new(func);
            let mut undetected: Vec<BlockId> = Vec::new();
            for (_, b, r) in candidates {
                let Some(r) = r else {
                    undetected.push(b);
                    continue;
                };
                if !claims.admits(&r) {
                    continue;
                }
                let plan = self
                    .clock
                    .time(Phase::PlanAlign, || plan_region(func, &r, &config));
                if let Some(plan) = plan {
                    claims.claim(&r);
                    batch.push((r, plan));
                }
            }
            if batch.is_empty() {
                // Region simplification (Definition 3/4) may change the
                // CFG; restart with fresh analyses when it does. Only an
                // undetected region can need it: detection and
                // simplification share one chain walk, and a detected
                // region has a single exit edge at every position.
                let padded = || {
                    undetected
                        .into_iter()
                        .any(|b| region::simplify_region_entry(func, &a, b))
                };
                if self.clock.time(Phase::Detect, padded) {
                    pads_pending = true;
                    continue;
                }
                reached_fixpoint = true;
                break;
            }
            let round = &mut self.round;
            for (r, plan) in batch {
                darm_ir::budget::poll("meld::codegen");
                darm_ir::fault::point("meld::codegen");
                stats += self.clock.time(Phase::Codegen, || {
                    meld_region(func, &r, plan, config.unpredicate, round)
                });
            }
            self.clock
                .time(Phase::Substitute, || round.substitute(func));
            stats.ssa_repairs += self.clean_up(func, am)?;
            pads_pending = false;
        }
        if pads_pending {
            // A pad no meld came to use is an empty forwarding block.
            stats.ssa_repairs += self.clean_up(func, am)?;
        }
        self.cap_hits += u64::from(!reached_fixpoint);
        self.settled_at = reached_fixpoint.then(|| func.journal_head());
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

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, IcmpPred, Type, Value};

    /// Emits `br (tid & bit) != 0, t, e` at the cursor, with `t` and `e`
    /// storing different values and jumping to `join`; leaves the cursor in
    /// `t` and returns both arms.
    fn diamond(b: &mut FunctionBuilder<'_>, bit: i32, tag: &str, join: BlockId) -> [BlockId; 2] {
        let tid = b.thread_idx(Dim::X);
        let masked = b.and(tid, Value::I32(bit));
        let c = b.icmp(IcmpPred::Ne, masked, Value::I32(0));
        let arms = [
            b.add_block(&format!("{tag}.t")),
            b.add_block(&format!("{tag}.e")),
        ];
        b.br(c, arms[0], arms[1]);
        for (arm, k) in arms.into_iter().zip([3, 5]) {
            b.switch_to(arm);
            let v = b.mul(tid, Value::I32(k));
            let p = b.gep(Type::I32, b.param(0), tid);
            b.store(v, p);
            b.jump(join);
        }
        b.switch_to(arms[0]);
        arms
    }

    fn kernel() -> Function {
        let params = vec![Type::Ptr(AddrSpace::Global), Type::I32];
        Function::new("k", params, Type::Void)
    }

    fn region_at(f: &Function, b: BlockId) -> MeldableRegion {
        region::detect_region(f, &Analyses::new(f), b).expect("a meldable region")
    }

    /// Whether `p` and `q` may share a round, asked in both orders.
    fn share_a_round(f: &Function, p: &MeldableRegion, q: &MeldableRegion) -> bool {
        let after = |first: &MeldableRegion, second: &MeldableRegion| {
            let mut claims = Claims::new(f);
            assert!(claims.admits(first), "an empty round admits anything");
            claims.claim(first);
            assert!(!claims.admits(first), "a region clashes with itself");
            claims.admits(second)
        };
        let (pq, qp) = (after(p, q), after(q, p));
        assert_eq!(pq, qp, "the rule is symmetric");
        pq
    }

    /// Melds `f` and holds it to `regions` melds in `rounds` fixpoint
    /// rounds (the last one finds nothing) and to valid SSA.
    fn assert_melds_in(mut f: Function, regions: usize, rounds: usize) {
        let stats = crate::meld_function(&mut f, &MeldConfig::default());
        assert_eq!((stats.melded_regions, stats.iterations), (regions, rounds));
        darm_analysis::verify_ssa(&f).expect("melded function verifies");
    }

    #[test]
    fn a_rung_whose_exit_is_the_next_rungs_branch_block_shares_its_round() {
        let mut f = kernel();
        let (entry, j0, j1) = (f.entry(), f.add_block("j0"), f.add_block("j1"));
        let mut b = FunctionBuilder::new(&mut f, entry);
        diamond(&mut b, 1, "r0", j0);
        b.switch_to(j0);
        diamond(&mut b, 2, "r1", j1);
        b.switch_to(j1);
        b.ret(None);
        let (r0, r1) = (region_at(&f, entry), region_at(&f, j0));
        assert_eq!((r0.exit, r1.branch_block), (j0, j0));
        assert!(share_a_round(&f, &r0, &r1));
        assert_melds_in(f, 2, 2);
    }

    #[test]
    fn a_region_nested_in_anothers_chain_waits_for_the_next_round() {
        let mut f = kernel();
        let (entry, inner_join, x) = (f.entry(), f.add_block("ij"), f.add_block("x"));
        let mut b = FunctionBuilder::new(&mut f, entry);
        let [t, _] = diamond(&mut b, 1, "outer", x);
        // Re-open the outer true arm as the inner region's branch block.
        let jump = b.func().terminator(t).expect("the arm's jump");
        b.func().remove_inst(jump);
        diamond(&mut b, 2, "inner", inner_join);
        b.switch_to(inner_join);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let (outer, inner) = (region_at(&f, entry), region_at(&f, t));
        assert!(outer.true_chain[0].contains(inner.branch_block));
        assert!(!share_a_round(&f, &outer, &inner));
        assert_melds_in(f, 2, 3);
    }

    #[test]
    fn regions_with_one_exit_never_share_a_round() {
        // A uniform branch picks one of two divergent diamonds; both join
        // at `x`, whose φs either meld would rewrite.
        let mut f = kernel();
        let (entry, a, c, x) = (
            f.entry(),
            f.add_block("a"),
            f.add_block("c"),
            f.add_block("x"),
        );
        let mut b = FunctionBuilder::new(&mut f, entry);
        let uniform = b.icmp(IcmpPred::Slt, b.param(1), Value::I32(0));
        b.br(uniform, a, c);
        b.switch_to(a);
        diamond(&mut b, 1, "a", x);
        b.switch_to(c);
        diamond(&mut b, 2, "c", x);
        b.switch_to(x);
        b.ret(None);
        let (ra, rc) = (region_at(&f, a), region_at(&f, c));
        assert_eq!((ra.exit, rc.exit), (x, x));
        assert!(!share_a_round(&f, &ra, &rc));
        assert_melds_in(f, 2, 3);
    }
}
