//! SIMT divergence analysis.
//!
//! Determines which values differ across the threads of a warp and which
//! branches therefore diverge. Follows the structure of LLVM's divergence
//! analysis (Karrenberg & Hack, CC'12), which the paper uses to detect
//! divergent branches (§II-B, §IV-B):
//!
//! * **Roots**: the thread index `tid.x`/`tid.y` (block/grid intrinsics and
//!   kernel parameters are uniform across a block).
//! * **Data dependence**: any instruction with a divergent operand is
//!   divergent. In particular a load from a divergent address yields a
//!   divergent value — this is how data-dependent branching (mergesort, PCM,
//!   DCT) becomes divergent.
//! * **Sync dependence**: a φ-node at a join point of a divergent branch is
//!   divergent even when all incoming values are uniform, because *which*
//!   incoming value arrives depends on the thread's path. Join points are
//!   the iterated dominance frontier of the branch's successors.

use crate::cfg::Cfg;
use crate::dom::{DomTree, PostDomTree};
use darm_ir::{BlockId, Function, InstId, Opcode, Value};

/// Result of divergence analysis over one function.
#[derive(Debug, Clone)]
pub struct DivergenceAnalysis {
    div_inst: Vec<bool>,
    div_branch_block: Vec<bool>,
}

impl DivergenceAnalysis {
    /// Runs the analysis, computing the CFG and dominator tree internally.
    pub fn new(func: &Function) -> DivergenceAnalysis {
        let cfg = Cfg::new(func);
        let dt = DomTree::new(func, &cfg);
        DivergenceAnalysis::run(func, &cfg, &dt)
    }

    /// Join points of a divergent branch at `bb`: the IDF of its successors
    /// restricted to blocks the paths can reach before (or at) the branch's
    /// IPDOM. `df` is the precomputed dominance-frontier table, shared
    /// across every divergent branch of one analysis run.
    fn branch_joins(
        df: &[Vec<BlockId>],
        pdt: &PostDomTree,
        bb: BlockId,
        succs: &[BlockId],
    ) -> Vec<BlockId> {
        let idf = DomTree::iterated_frontier_from(df, succs);
        match pdt.ipdom(bb) {
            Some(x) => idf
                .into_iter()
                .filter(|&j| j == x || pdt.post_dominates(x, j))
                .collect(),
            None => idf,
        }
    }

    /// Runs the analysis with caller-provided CFG and dominator tree,
    /// computing the post-dominator tree privately. Prefer
    /// [`DivergenceAnalysis::run_with_pdt`] when a cached tree exists.
    pub fn run(func: &Function, cfg: &Cfg, dt: &DomTree) -> DivergenceAnalysis {
        let pdt = PostDomTree::new(func, cfg);
        DivergenceAnalysis::run_with_pdt(func, cfg, dt, &pdt)
    }

    /// Runs the analysis with every control-flow analysis caller-provided
    /// (the form the [`AnalysisManager`](crate::AnalysisManager) uses, so
    /// one cached post-dominator tree serves detection *and* divergence).
    ///
    /// The engine is a forward-sweep fixpoint over the instruction stream:
    /// each sweep marks an instruction divergent when a root or a
    /// divergent operand reaches it and folds sync dependence in as
    /// branches turn divergent (joins via a dominance-frontier table
    /// computed at most once per run). SSA definitions mostly precede
    /// their uses in the sweep order, so the fixpoint lands in two or
    /// three sweeps without materializing a def→users map — the same least
    /// fixpoint the use-map worklist reaches, allocation-free.
    pub fn run_with_pdt(
        func: &Function,
        cfg: &Cfg,
        dt: &DomTree,
        pdt: &PostDomTree,
    ) -> DivergenceAnalysis {
        let mut div_inst = vec![false; func.inst_capacity()];
        let mut div_branch_block = vec![false; func.block_capacity()];
        let blocks = func.block_ids();
        let mut frontiers: Option<Vec<Vec<BlockId>>> = None;
        loop {
            let mut changed = false;
            for &b in &blocks {
                for &id in func.insts_of(b) {
                    if div_inst[id.index()] {
                        continue;
                    }
                    let inst = func.inst(id);
                    let divergent = match inst.opcode {
                        Opcode::ThreadIdx(_) => true,
                        Opcode::Br | Opcode::Jump | Opcode::Ret => false,
                        _ => inst
                            .operands
                            .iter()
                            .any(|&op| matches!(op, Value::Inst(dep) if div_inst[dep.index()])),
                    };
                    if divergent {
                        div_inst[id.index()] = true;
                        changed = true;
                    }
                }
                // Sync dependence: a branch on a divergent value diverges,
                // making the φs at its join points divergent too.
                if div_branch_block[b.index()] {
                    continue;
                }
                let Some(t) = func.terminator(b) else {
                    continue;
                };
                let inst = func.inst(t);
                if inst.opcode != Opcode::Br {
                    continue;
                }
                let Value::Inst(cond) = inst.operands[0] else {
                    continue;
                };
                if !div_inst[cond.index()] {
                    continue;
                }
                div_branch_block[b.index()] = true;
                changed = true;
                let df = frontiers.get_or_insert_with(|| dt.dominance_frontiers(cfg));
                for j in DivergenceAnalysis::branch_joins(df, pdt, b, &inst.succs) {
                    for phi in func.phis_of(j) {
                        if !div_inst[phi.index()] {
                            div_inst[phi.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        DivergenceAnalysis {
            div_inst,
            div_branch_block,
        }
    }

    /// Whether a value may differ across the threads of a warp.
    pub fn is_value_divergent(&self, v: Value) -> bool {
        match v {
            Value::Inst(id) => self.div_inst.get(id.index()).copied().unwrap_or(false),
            // Kernel parameters and constants are uniform across the launch.
            _ => false,
        }
    }

    /// Whether the instruction's result is divergent.
    pub fn is_inst_divergent(&self, id: InstId) -> bool {
        self.div_inst.get(id.index()).copied().unwrap_or(false)
    }

    /// Whether `b` ends in a divergent conditional branch.
    pub fn is_divergent_branch(&self, b: BlockId) -> bool {
        self.div_branch_block
            .get(b.index())
            .copied()
            .unwrap_or(false)
    }

    /// All blocks ending in divergent conditional branches.
    pub fn divergent_branch_blocks(&self) -> Vec<BlockId> {
        self.div_branch_block
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(BlockId::new(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, IcmpPred, Type};

    #[test]
    fn tid_branch_is_divergent_uniform_is_not() {
        // entry: br (tid < arg0)  -- divergent
        // t:     br (arg0 < 5)    -- uniform
        let mut f = Function::new("k", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let t2 = f.add_block("t2");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.param(0));
        b.br(c, t, x);
        b.switch_to(t);
        let c2 = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(5));
        b.br(c2, t2, x);
        b.switch_to(t2);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        let da = DivergenceAnalysis::new(&f);
        assert!(da.is_divergent_branch(entry));
        assert!(!da.is_divergent_branch(t));
        assert!(da.is_value_divergent(tid));
        assert!(da.is_value_divergent(c));
        assert!(!da.is_value_divergent(c2));
    }

    #[test]
    fn divergent_load_propagates() {
        // v = load (p + tid); br (v < 0)  -- data-dependent divergence
        let mut f = Function::new("k", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let p = b.gep(Type::I32, b.param(0), tid);
        let v = b.load(Type::I32, p);
        let c = b.icmp(IcmpPred::Slt, v, b.const_i32(0));
        b.br(c, t, x);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        let da = DivergenceAnalysis::new(&f);
        assert!(da.is_value_divergent(v));
        assert!(da.is_divergent_branch(entry));
    }

    #[test]
    fn uniform_load_stays_uniform() {
        let mut f = Function::new("k", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let v = b.load(Type::I32, b.param(0));
        let c = b.icmp(IcmpPred::Slt, v, b.const_i32(0));
        b.br(c, t, x);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        let da = DivergenceAnalysis::new(&f);
        assert!(!da.is_value_divergent(v));
        assert!(!da.is_divergent_branch(entry));
    }

    #[test]
    fn sync_dependent_phi_is_divergent() {
        // if (tid < n) a = 1 else a = 2; phi at join is divergent even though
        // both incomings are constants.
        let mut f = Function::new("k", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.param(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let phi = b.phi(Type::I32, &[(t, Value::I32(1)), (e, Value::I32(2))]);
        b.ret(Some(phi));
        use darm_ir::Value;

        let da = DivergenceAnalysis::new(&f);
        assert!(da.is_value_divergent(phi));
    }

    #[test]
    fn uniform_branch_phi_stays_uniform() {
        let mut f = Function::new("k", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(3));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let phi = b.phi(Type::I32, &[(t, Value::I32(1)), (e, Value::I32(2))]);
        b.ret(Some(phi));
        use darm_ir::Value;

        let da = DivergenceAnalysis::new(&f);
        assert!(!da.is_value_divergent(phi));
    }
}
