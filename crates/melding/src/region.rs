//! Meldable divergent region detection (Definition 5) and SESE chain
//! construction with region simplification (Definitions 3–4).

use darm_analysis::{AnalysisManager, Cfg, DivergenceAnalysis, DomTree, PostDomTree};
use darm_ir::{BlockId, Function, InstData, Opcode, Value};
use std::sync::Arc;

/// A divergent region `(E, X)` whose true/false paths decompose into SESE
/// subgraph chains (the unit Algorithm 1 operates on).
#[derive(Debug, Clone)]
pub struct MeldableRegion {
    /// The block whose terminator is the divergent branch (`E`).
    pub branch_block: BlockId,
    /// The branch condition (`C` in Algorithm 2).
    pub cond: Value,
    /// The region exit (`X`), the IPDOM of the branch.
    pub exit: BlockId,
    /// Ordered SESE subgraphs of the true path.
    pub true_chain: Vec<Subgraph>,
    /// Ordered SESE subgraphs of the false path.
    pub false_chain: Vec<Subgraph>,
}

impl MeldableRegion {
    /// Every block of the two chains — with the branch block, the blocks a
    /// meld of the region rewrites or deletes.
    pub fn chain_blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        let subgraphs = self.true_chain.iter().chain(&self.false_chain);
        subgraphs.flat_map(|s| s.blocks.iter().copied())
    }
}

/// One SESE subgraph in a chain. Unlike the raw anchors-based decomposition
/// in `darm-analysis`, join blocks whose predecessors all lie inside the
/// subgraph are absorbed, so a diamond includes its join and the subgraph
/// has a unique exit block carrying the single exit edge (a *simple region*
/// after simplification).
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Entry block (single incoming edge from outside after simplification).
    pub entry: BlockId,
    /// All blocks, sorted by arena index.
    pub blocks: Vec<BlockId>,
    /// The unique block holding the exit edge.
    pub exit_block: BlockId,
    /// The block the exit edge targets (next subgraph's entry or the region
    /// exit).
    pub exit_target: BlockId,
}

impl Subgraph {
    /// Whether the subgraph is a single basic block.
    pub fn is_single_block(&self) -> bool {
        self.blocks.len() == 1
    }

    /// Whether `b` is one of the subgraph's blocks.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.binary_search(&b).is_ok()
    }

    /// Whether the subgraph contains an instruction that forbids melding
    /// (barriers or warp-level intrinsics, §IV-C).
    pub fn has_meld_barrier(&self, func: &Function) -> bool {
        self.blocks.iter().any(|&b| {
            func.insts_of(b).iter().any(|&i| {
                let op = func.inst(i).opcode;
                op == Opcode::Syncthreads || op.is_warp_intrinsic()
            })
        })
    }
}

/// Bundle of CFG analyses used throughout the pass. The components are
/// shared [`Arc`] handles so a snapshot can be drawn from (and returned to)
/// an [`AnalysisManager`] cache without copying, and can cross threads once
/// kernels meld on a pool.
#[derive(Debug)]
pub struct Analyses {
    /// CFG snapshot.
    pub cfg: Arc<Cfg>,
    /// Dominator tree.
    pub dt: Arc<DomTree>,
    /// Post-dominator tree.
    pub pdt: Arc<PostDomTree>,
    /// Divergence analysis.
    pub da: Arc<DivergenceAnalysis>,
}

impl Analyses {
    /// Computes all analyses for the current state of `func`.
    pub fn new(func: &Function) -> Analyses {
        Analyses::from_manager(func, &mut AnalysisManager::new())
    }

    /// Draws the bundle from a shared analysis cache: components that are
    /// still valid from earlier pipeline work are reused, the rest are
    /// computed (and left cached for whoever asks next).
    pub fn from_manager(func: &Function, am: &mut AnalysisManager) -> Analyses {
        Analyses {
            cfg: am.get::<Cfg>(func),
            dt: am.get::<DomTree>(func),
            pdt: am.get::<PostDomTree>(func),
            da: am.get::<DivergenceAnalysis>(func),
        }
    }
}

/// What [`detect_region`] and [`simplify_region_entry`] both ask of the
/// branch ending `b` before they walk its paths: a conditional branch to
/// two different blocks neither of which post-dominates the other
/// (condition 2 of Definition 5 — no pad turns an if-then into a region
/// with two paths), with a post-dominator to exit to. Returns the
/// condition, both successors and the exit.
fn branch_frame(
    func: &Function,
    a: &Analyses,
    b: BlockId,
) -> Option<(Value, BlockId, BlockId, BlockId)> {
    let term = func.inst(func.terminator(b)?);
    if term.opcode != Opcode::Br {
        return None;
    }
    let (bt, bf) = (term.succs[0], term.succs[1]);
    if bt == bf || a.pdt.post_dominates(bt, bf) || a.pdt.post_dominates(bf, bt) {
        return None;
    }
    Some((term.operands[0], bt, bf, a.pdt.ipdom(b)?))
}

/// Detects the meldable divergent region entered at `b`, if any
/// (Definition 5): `b` ends in a divergent conditional branch and neither
/// successor post-dominates the other.
pub fn detect_region(func: &Function, a: &Analyses, b: BlockId) -> Option<MeldableRegion> {
    if !a.da.is_divergent_branch(b) {
        return None;
    }
    let (cond, bt, bf, exit) = branch_frame(func, a, b)?;
    let true_chain = compute_chain(a, bt, exit)?;
    let false_chain = compute_chain(a, bf, exit)?;
    if true_chain.is_empty() || false_chain.is_empty() {
        return None;
    }
    Some(MeldableRegion {
        branch_block: b,
        cond,
        exit,
        true_chain,
        false_chain,
    })
}

/// One position of the walk along the post-dominator chain from a path's
/// first block to the region exit: the would-be subgraph entered at
/// `entry`, grown past every join it can absorb.
struct ChainStep {
    entry: BlockId,
    /// Blocks reachable from `entry` short of `next`, in discovery order.
    blocks: Vec<BlockId>,
    /// The anchor the subgraph exits to — the next position's entry.
    next: BlockId,
    /// The blocks of `blocks` with an edge into `next`.
    exit_sources: Vec<BlockId>,
    /// Whether the path escaped to the region exit while `next` was still
    /// short of it.
    crosses_stop: bool,
}

/// The walk [`detect_region`] and [`simplify_region_entry`] share, so a
/// path the first decomposes is by construction one the second leaves
/// alone. Ends early — with `cur` short of `stop` — at a block without a
/// post-dominator.
struct ChainWalk<'a> {
    a: &'a Analyses,
    cur: BlockId,
    stop: BlockId,
}

impl Iterator for ChainWalk<'_> {
    type Item = ChainStep;

    fn next(&mut self) -> Option<ChainStep> {
        if self.cur == self.stop {
            return None;
        }
        let a = self.a;
        let mut next = a.pdt.ipdom(self.cur)?;
        let mut crosses_stop = false;
        let blocks = loop {
            let blocks = a.cfg.reachable_avoiding(self.cur, next);
            crosses_stop |= blocks.contains(&self.stop);
            if next != self.stop {
                // A join whose predecessors all lie inside is absorbed (an
                // if-then-else includes its join block).
                let exit_edges: usize = blocks
                    .iter()
                    .map(|&blk| a.cfg.succs(blk).iter().filter(|&&s| s == next).count())
                    .sum();
                let preds_inside = a.cfg.preds(next).iter().all(|p| blocks.contains(p));
                if exit_edges > 1 && preds_inside {
                    next = a.pdt.ipdom(next)?;
                    continue;
                }
            }
            break blocks;
        };
        let exit_sources = blocks
            .iter()
            .copied()
            .filter(|&blk| a.cfg.succs(blk).contains(&next))
            .collect();
        Some(ChainStep {
            entry: std::mem::replace(&mut self.cur, next),
            blocks,
            next,
            exit_sources,
            crosses_stop,
        })
    }
}

/// Decomposes the path `start → stop` into SESE subgraphs. Returns `None`
/// when the path has side entries or is otherwise not decomposable.
fn compute_chain(a: &Analyses, start: BlockId, stop: BlockId) -> Option<Vec<Subgraph>> {
    let mut walk = ChainWalk {
        a,
        cur: start,
        stop,
    };
    let mut chain = Vec::new();
    for mut step in &mut walk {
        // Single entry: no side entries into the subgraph body. Single
        // exit: several edges into the anchor need a landing pad first
        // (region simplification).
        if step.crosses_stop
            || step.exit_sources.len() != 1
            || !step
                .blocks
                .iter()
                .all(|&blk| a.dt.dominates(step.entry, blk))
        {
            return None;
        }
        step.blocks.sort();
        chain.push(Subgraph {
            entry: step.entry,
            blocks: step.blocks,
            exit_block: step.exit_sources[0],
            exit_target: step.next,
        });
    }
    (walk.cur == stop).then_some(chain)
}

/// Region simplification (Definition 3/4): gives every chain position a
/// dedicated single exit edge by inserting a landing-pad block where a
/// subgraph would otherwise have several edges into an anchor it cannot
/// absorb. Returns `true` if the CFG changed (callers must recompute
/// analyses and re-detect).
pub fn simplify_region_entry(func: &mut Function, a: &Analyses, b: BlockId) -> bool {
    let Some((_, bt, bf, stop)) = branch_frame(func, a, b) else {
        return false;
    };
    // One pad per path and call: the caller recomputes and calls again.
    let mut changed = false;
    for start in [bt, bf] {
        let mut walk = ChainWalk {
            a,
            cur: start,
            stop,
        };
        if let Some(step) = walk.find(|step| step.exit_sources.len() > 1) {
            insert_landing_pad(func, &step.exit_sources, step.next);
            changed = true;
        }
    }
    changed
}

/// Inserts a block `L` so that every edge `s → target` (s ∈ sources) becomes
/// `s → L → target`, migrating φ entries into new φs in `L`.
pub fn insert_landing_pad(func: &mut Function, sources: &[BlockId], target: BlockId) -> BlockId {
    let pad = func.add_block(&format!("{}.pad", func.block_name(target)));
    // Build φs in the pad for every φ in the target that distinguishes the
    // rerouted predecessors.
    let phis = func.phis_of(target);
    for phi in phis {
        let ty = func.inst(phi).ty;
        let mut incoming = Vec::new();
        for &s in sources {
            if let Some(v) = func.inst(phi).phi_value_for(s) {
                incoming.push((s, v));
            }
        }
        if incoming.is_empty() {
            continue;
        }
        let pad_phi = func.insert_inst_at(pad, 0, InstData::phi(ty, &incoming));
        func.phi_replace_incoming(phi, sources, &[pad], Value::Inst(pad_phi));
    }
    func.add_inst(
        pad,
        InstData::terminator(Opcode::Jump, vec![], vec![target]),
    );
    for &s in sources {
        func.replace_succ(s, target, pad);
    }
    pad
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    /// The bitonic-sort shaped region: divergent branch at B; each side is
    /// an if-then region ({C, E} joining at X1 / {D, F} joining at X2).
    fn bitonic_shape() -> (Function, Vec<BlockId>) {
        let mut f = Function::new("bit", vec![Type::I32], Type::Void);
        let sh = f.add_shared_array("s", Type::I32, 64);
        let b_blk = f.entry();
        let c_blk = f.add_block("C");
        let e_blk = f.add_block("E");
        let x1 = f.add_block("X1");
        let d_blk = f.add_block("D");
        let f_blk = f.add_block("F");
        let x2 = f.add_block("X2");
        let g_blk = f.add_block("G");
        let mut b = FunctionBuilder::new(&mut f, b_blk);
        let tid = b.thread_idx(Dim::X);
        let k = b.and(tid, b.param(0));
        let c0 = b.icmp(IcmpPred::Eq, k, b.const_i32(0));
        let base = b.shared_base(sh);
        let p1 = b.gep(Type::I32, base, tid);
        let v1 = b.load(Type::I32, p1);
        b.br(c0, c_blk, d_blk);

        b.switch_to(c_blk);
        let c1 = b.icmp(IcmpPred::Slt, v1, b.const_i32(10));
        b.br(c1, e_blk, x1);
        b.switch_to(e_blk);
        b.store(tid, p1);
        b.jump(x1);
        b.switch_to(x1);
        b.jump(g_blk);

        b.switch_to(d_blk);
        let c2 = b.icmp(IcmpPred::Sgt, v1, b.const_i32(10));
        b.br(c2, f_blk, x2);
        b.switch_to(f_blk);
        b.store(tid, p1);
        b.jump(x2);
        b.switch_to(x2);
        b.jump(g_blk);

        b.switch_to(g_blk);
        b.ret(None);
        let ids = f.block_ids();
        (f, ids)
    }

    #[test]
    fn detects_bitonic_region() {
        let (f, ids) = bitonic_shape();
        verify_ssa(&f).unwrap();
        let a = Analyses::new(&f);
        let region = detect_region(&f, &a, ids[0]).expect("region");
        assert_eq!(region.exit, ids[7]); // G
        assert_eq!(region.true_chain.len(), 1);
        assert_eq!(region.false_chain.len(), 1);
        // The if-then subgraph absorbs its join: {C, E, X1}.
        let t = &region.true_chain[0];
        assert_eq!(t.blocks, vec![ids[1], ids[2], ids[3]]);
        assert_eq!(t.exit_block, ids[3]); // X1 carries the exit edge
        assert!(!t.is_single_block());
    }

    #[test]
    fn uniform_branch_is_not_a_region() {
        let mut f = Function::new("u", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0)); // uniform
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let a = Analyses::new(&f);
        assert!(detect_region(&f, &a, entry).is_none());
    }

    #[test]
    fn if_then_without_else_fails_condition_2() {
        // entry -> {t, x}; t -> x. x post-dominates t: no melding partner.
        let mut f = Function::new("it", vec![], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(4));
        b.br(c, t, x);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let a = Analyses::new(&f);
        assert!(detect_region(&f, &a, entry).is_none());
    }

    #[test]
    fn barrier_in_subgraph_is_flagged() {
        let (mut f, ids) = bitonic_shape();
        // Plant a barrier in E.
        let term = f.terminator(ids[2]).unwrap();
        f.insert_inst_before(term, InstData::new(Opcode::Syncthreads, Type::Void, vec![]));
        let a = Analyses::new(&f);
        let region = detect_region(&f, &a, ids[0]).expect("region");
        assert!(region.true_chain[0].has_meld_barrier(&f));
        assert!(!region.false_chain[0].has_meld_barrier(&f));
    }

    #[test]
    fn landing_pad_migrates_phis() {
        // t and e both jump to x which has a φ; pad collects both edges.
        let mut f = Function::new("pad", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let v1 = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        let v2 = b.add(b.param(0), b.const_i32(2));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, v1), (e, v2)]);
        b.ret(Some(p));

        let pad = insert_landing_pad(&mut f, &[t, e], x);
        verify_ssa(&f).unwrap();
        assert_eq!(f.succ_slice(t), [pad]);
        assert_eq!(f.succ_slice(e), [pad]);
        assert_eq!(f.phis_of(pad).len(), 1);
        // x's φ now has a single incoming, from the pad.
        let xphi = f.phis_of(x)[0];
        assert_eq!(f.inst(xphi).phi_blocks, vec![pad]);
    }
}
