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

/// Reusable buffers for [`DivergenceAnalysis::refresh_window`]. A refresh
/// runs once per analysis-cache reconciliation — several times per meld
/// fixpoint — and on paper-sized kernels its dozen working vectors cost
/// more to allocate than to fill, so they live here between calls.
#[derive(Default)]
struct RefreshScratch {
    offsets: Vec<u32>,
    fill: Vec<u32>,
    users: Vec<InstId>,
    in_c: Vec<bool>,
    c_list: Vec<InstId>,
    queue: Vec<InstId>,
    branch_seen: Vec<bool>,
    new_joins: Vec<Option<Vec<BlockId>>>,
    reset_blocks: Vec<BlockId>,
    work: Vec<InstId>,
    c_branches: Vec<InstId>,
}

thread_local! {
    static REFRESH_SCRATCH: std::cell::RefCell<RefreshScratch> =
        std::cell::RefCell::new(RefreshScratch::default());
}

/// Result of divergence analysis over one function.
#[derive(Debug, Clone)]
pub struct DivergenceAnalysis {
    div_inst: Vec<bool>,
    div_branch_block: Vec<bool>,
    /// Join blocks per divergent branch (indexed by branch block),
    /// recorded by [`DivergenceAnalysis::run_with_pdt`] so incremental
    /// refreshes can undo or re-apply a branch's sync contribution
    /// without recomputing dominance frontiers. Invariant: for every
    /// divergent branch the stored set equals `branch_joins` under the
    /// CFG shape the result was last validated against; non-divergent
    /// branches store an empty set.
    joins: Vec<Vec<BlockId>>,
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
        let mut joins_by_block = vec![Vec::new(); func.block_capacity()];
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
                let joins = DivergenceAnalysis::branch_joins(df, pdt, b, &inst.succs);
                for &j in joins.iter() {
                    for phi in func.phis_of(j) {
                        if !div_inst[phi.index()] {
                            div_inst[phi.index()] = true;
                            changed = true;
                        }
                    }
                }
                joins_by_block[b.index()] = joins;
            }
            if !changed {
                break;
            }
        }
        DivergenceAnalysis {
            div_inst,
            div_branch_block,
            joins: joins_by_block,
        }
    }

    /// Incrementally refreshes this result for one journal window,
    /// returning a result bit-identical to a full recompute over the
    /// current function — or `None` when the window is better served by
    /// recomputing (the dirty frontier covers more than half the live
    /// instructions).
    ///
    /// `touched` is the deduplicated list of instruction ids the journal
    /// recorded in the window (live and removed — the dead ones drive bit
    /// hygiene); `cfg`/`dt`/`pdt` must already describe the *current*
    /// shape (the manager reconciles them first); `shape_window` says
    /// whether the window contained CFG edits.
    ///
    /// The engine is an exact restricted fixpoint. First a *changed
    /// closure* `C` is grown over the def→use graph from the window's
    /// dirty seeds, with one extra closure rule for sync dependence:
    /// when a conditional branch lands in `C`, the φs of its join
    /// blocks — under the old shape (stored) *and* the new shape
    /// (recomputed, or the stored set again on instruction-only
    /// windows) — land in `C` too. In a shape window every previously
    /// divergent branch is forced into `C`, because its join set may
    /// have changed even if its condition did not. Everything outside
    /// `C` provably has an unchanged equation over unchanged inputs, so
    /// its old bit is a fixed boundary; bits inside `C` are reset and
    /// re-derived by the same rules the full run uses. The combined
    /// assignment satisfies every equation, and a monotone system has
    /// one least fixpoint — the full run's.
    pub fn refresh_window(
        &self,
        func: &Function,
        cfg: &Cfg,
        dt: &DomTree,
        pdt: &PostDomTree,
        touched: &[InstId],
        shape_window: bool,
    ) -> Option<DivergenceAnalysis> {
        let joins_old = &self.joins;
        let icap = func.inst_capacity();
        let bcap = func.block_capacity();
        // Seeds are the *touched* live instructions only — not every
        // instruction of every dirty block (`DirtyDelta::seed_insts`),
        // which after meld surgery is the whole melded region. That
        // coarser set is right for transforms that rescan by block, but
        // a divergence equation reads nothing block-level: an untouched
        // instruction's equation is unchanged, and a changed *input bit*
        // reaches it through the def→use closure below. The journal
        // already extends touches to RAUW-reached users and the operand
        // definitions of removed instructions.
        let live_seeds = touched.iter().filter(|&&id| func.is_inst_alive(id)).count();
        if live_seeds * 2 > func.live_inst_count() {
            return None; // meld-surgery-sized frontier: recompute wins
        }

        let RefreshScratch {
            mut offsets,
            mut fill,
            mut users,
            mut in_c,
            mut c_list,
            mut queue,
            mut branch_seen,
            mut new_joins,
            mut reset_blocks,
            mut work,
            mut c_branches,
        } = REFRESH_SCRATCH.with(|c| std::mem::take(&mut *c.borrow_mut()));

        // def→users over the live stream, compressed sparse rows.
        // Terminators are included, so a condition in C pulls its
        // branch into C as an ordinary user.
        let blocks = func.block_ids();
        offsets.clear();
        offsets.resize(icap + 1, 0);
        for &b in &blocks {
            for &id in func.insts_of(b) {
                for &op in &func.inst(id).operands {
                    if let Value::Inst(dep) = op {
                        offsets[dep.index() + 1] += 1;
                    }
                }
            }
        }
        for i in 0..icap {
            offsets[i + 1] += offsets[i];
        }
        fill.clear();
        fill.extend_from_slice(&offsets);
        users.clear();
        users.resize(offsets[icap] as usize, InstId::new(0));
        for &b in &blocks {
            for &id in func.insts_of(b) {
                for &op in &func.inst(id).operands {
                    if let Value::Inst(dep) = op {
                        users[fill[dep.index()] as usize] = id;
                        fill[dep.index()] += 1;
                    }
                }
            }
        }
        let users_of = |id: InstId| &users[offsets[id.index()] as usize..fill[id.index()] as usize];

        // --- Closure phase: grow C from the seeds. ---
        in_c.clear();
        in_c.resize(icap, false);
        c_list.clear();
        queue.clear();
        let push_c = |id: InstId,
                      in_c: &mut Vec<bool>,
                      c_list: &mut Vec<InstId>,
                      queue: &mut Vec<InstId>| {
            if !in_c[id.index()] {
                in_c[id.index()] = true;
                c_list.push(id);
                queue.push(id);
            }
        };
        for &s in touched {
            if func.is_inst_alive(s) {
                push_c(s, &mut in_c, &mut c_list, &mut queue);
            }
        }
        // Join sets under the current shape, memoized per branch block
        // and shared verbatim with the fixpoint phase below — the two
        // phases must agree on each branch's join set.
        let mut frontiers: Option<Vec<Vec<BlockId>>> = None;
        new_joins.clear();
        new_joins.resize(bcap, None);
        // Blocks whose branch status will be re-derived (their flag and
        // stored joins reset below).
        reset_blocks.clear();
        branch_seen.clear();
        branch_seen.resize(bcap, false);
        if shape_window {
            // A surviving divergent branch may have a different join
            // set under the new shape even with an untouched condition:
            // force each one through re-derivation, and feed both its
            // old and new join φs into C.
            for (bi, &flag) in self.div_branch_block.iter().enumerate() {
                if !flag {
                    continue;
                }
                let bb = BlockId::new(bi);
                if func.is_block_alive(bb) {
                    if let Some(t) = func.terminator(bb) {
                        if func.inst(t).opcode == Opcode::Br {
                            push_c(t, &mut in_c, &mut c_list, &mut queue);
                            continue; // closure below handles bb
                        }
                    }
                }
                // The branch is gone (block dead or terminator no
                // longer conditional): clear it and release its old
                // sync contribution for re-derivation.
                branch_seen[bi] = true;
                reset_blocks.push(bb);
                for &j in &joins_old[bi] {
                    if !func.is_block_alive(j) {
                        continue;
                    }
                    for phi in func.phis_of(j) {
                        push_c(phi, &mut in_c, &mut c_list, &mut queue);
                    }
                }
            }
        }
        while let Some(id) = queue.pop() {
            for &u in users_of(id) {
                push_c(u, &mut in_c, &mut c_list, &mut queue);
            }
            let inst = func.inst(id);
            if inst.opcode != Opcode::Br {
                continue;
            }
            // A conditional branch in C: its sync contribution is being
            // re-derived, so the φs it may mark — or may stop marking —
            // join C. Old shape first (stored joins), then new shape.
            let bi = inst.block.index();
            if branch_seen[bi] {
                continue;
            }
            branch_seen[bi] = true;
            reset_blocks.push(inst.block);
            let old_divergent = self.div_branch_block.get(bi).copied().unwrap_or(false);
            if old_divergent {
                for &j in &joins_old[bi] {
                    if !func.is_block_alive(j) {
                        continue;
                    }
                    for phi in func.phis_of(j) {
                        push_c(phi, &mut in_c, &mut c_list, &mut queue);
                    }
                }
            }
            let fresh = if !shape_window && old_divergent {
                // Shape unchanged: the stored set *is* the current one.
                joins_old[bi].clone()
            } else {
                let df = frontiers.get_or_insert_with(|| dt.dominance_frontiers(cfg));
                DivergenceAnalysis::branch_joins(df, pdt, inst.block, &inst.succs)
            };
            for &j in &fresh {
                for phi in func.phis_of(j) {
                    push_c(phi, &mut in_c, &mut c_list, &mut queue);
                }
            }
            new_joins[bi] = Some(fresh);
        }

        // --- Reset phase: bits inside C (and stale dead bits) drop to
        // the lattice bottom; everything else is the fixed boundary. ---
        let mut div_inst = self.div_inst.clone();
        div_inst.resize(icap, false);
        let mut div_branch_block = self.div_branch_block.clone();
        div_branch_block.resize(bcap, false);
        let mut joins = joins_old.clone();
        joins.resize(bcap, Vec::new());
        for &id in &c_list {
            div_inst[id.index()] = false;
        }
        for &bb in &reset_blocks {
            div_branch_block[bb.index()] = false;
            joins[bb.index()] = Vec::new();
        }
        // Bit hygiene for exact equality with fresh arrays: removed
        // instructions and blocks read as uniform.
        for &id in touched {
            if id.index() < icap && !func.is_inst_alive(id) {
                div_inst[id.index()] = false;
            }
        }
        for (bi, flag) in div_branch_block.iter_mut().enumerate() {
            if *flag && !func.is_block_alive(BlockId::new(bi)) {
                *flag = false;
                joins[bi] = Vec::new();
            }
        }

        // --- Fixpoint phase: re-derive C with the boundary fixed. ---
        work.clear();
        let apply_sync = |bb: BlockId,
                          div_branch_block: &mut Vec<bool>,
                          joins: &mut Vec<Vec<BlockId>>,
                          div_inst: &mut Vec<bool>,
                          work: &mut Vec<InstId>| {
            if div_branch_block[bb.index()] {
                return;
            }
            div_branch_block[bb.index()] = true;
            let set = new_joins[bb.index()]
                .clone()
                .expect("closure memoized joins for every branch in C");
            for &j in &set {
                for phi in func.phis_of(j) {
                    if !div_inst[phi.index()] {
                        div_inst[phi.index()] = true;
                        work.push(phi);
                    }
                }
            }
            joins[bb.index()] = set;
        };
        c_branches.clear();
        for &id in &c_list {
            if !func.is_inst_alive(id) {
                continue;
            }
            let inst = func.inst(id);
            let divergent = match inst.opcode {
                Opcode::ThreadIdx(_) => true,
                Opcode::Br => {
                    c_branches.push(id);
                    false
                }
                Opcode::Jump | Opcode::Ret => false,
                _ => inst
                    .operands
                    .iter()
                    .any(|&op| matches!(op, Value::Inst(dep) if div_inst[dep.index()])),
            };
            if divergent && !div_inst[id.index()] {
                div_inst[id.index()] = true;
                work.push(id);
            }
        }
        // Divergent branches *outside* C keep their flag and joins; φs
        // of those joins that landed in C were just reset and need the
        // standing sync mark re-applied.
        for (bi, flag) in div_branch_block.iter().enumerate() {
            if !*flag {
                continue;
            }
            for &j in &joins[bi] {
                if !func.is_block_alive(j) {
                    continue;
                }
                for phi in func.phis_of(j) {
                    if in_c[phi.index()] && !div_inst[phi.index()] {
                        div_inst[phi.index()] = true;
                        work.push(phi);
                    }
                }
            }
        }
        // Branches in C whose condition is already divergent (marked
        // above, or held divergent by the boundary outside C).
        for &t in &c_branches {
            let inst = func.inst(t);
            if let Some(&Value::Inst(cond)) = inst.operands.first() {
                if div_inst[cond.index()] {
                    apply_sync(
                        inst.block,
                        &mut div_branch_block,
                        &mut joins,
                        &mut div_inst,
                        &mut work,
                    );
                }
            }
        }
        while let Some(id) = work.pop() {
            for &u in users_of(id) {
                if !in_c[u.index()] || div_inst[u.index()] {
                    continue;
                }
                match func.inst(u).opcode {
                    Opcode::Br | Opcode::Jump | Opcode::Ret => {}
                    _ => {
                        div_inst[u.index()] = true;
                        work.push(u);
                    }
                }
            }
            for &u in users_of(id) {
                let inst = func.inst(u);
                if inst.opcode == Opcode::Br
                    && in_c[u.index()]
                    && inst.operands.first() == Some(&Value::Inst(id))
                {
                    apply_sync(
                        inst.block,
                        &mut div_branch_block,
                        &mut joins,
                        &mut div_inst,
                        &mut work,
                    );
                }
            }
        }

        REFRESH_SCRATCH.with(|c| {
            *c.borrow_mut() = RefreshScratch {
                offsets,
                fill,
                users,
                in_c,
                c_list,
                queue,
                branch_seen,
                new_joins,
                reset_blocks,
                work,
                c_branches,
            };
        });
        Some(DivergenceAnalysis {
            div_inst,
            div_branch_block,
            joins,
        })
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
