//! CFG simplification, the analogue of LLVM's `simplifycfg`.
//!
//! Every sub-transform sweeps the whole function, round after round until
//! a round changes nothing — what the paper's `RunPostOptimizations` does
//! after each melded region. The sweeps are plain block-order scans, cheap
//! next to the `Cfg` a round needs; narrowing them to the blocks a meld
//! touched was tried and measured no gain on any workload of the ledger
//! (ROADMAP.md records the numbers, and what the narrowing cost).

use crate::{instcombine, Pending};
use darm_analysis::{AnalysisManager, Cfg};
use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Value};

/// Statistics of one [`simplify_cfg`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Constant conditional branches rewritten to jumps.
    pub folded_const_branches: usize,
    /// `br c, X, X` rewritten to `jump X`.
    pub folded_same_target_branches: usize,
    /// Blocks merged into their unique predecessor.
    pub merged_blocks: usize,
    /// Empty forwarding blocks removed.
    pub elided_empty_blocks: usize,
    /// Unreachable blocks removed.
    pub removed_unreachable: usize,
    /// Trivial (single-value) φ-nodes replaced.
    pub removed_trivial_phis: usize,
    /// Duplicate φ-nodes deduplicated.
    pub removed_duplicate_phis: usize,
    /// Instructions folded once a φ replacement had rewritten their
    /// operands.
    pub folded_insts: usize,
}

impl SimplifyStats {
    /// Total number of simplifications applied.
    pub fn total(&self) -> usize {
        self.folded_const_branches
            + self.folded_same_target_branches
            + self.merged_blocks
            + self.elided_empty_blocks
            + self.removed_unreachable
            + self.removed_trivial_phis
            + self.removed_duplicate_phis
            + self.folded_insts
    }
}

impl std::ops::AddAssign for SimplifyStats {
    fn add_assign(&mut self, d: SimplifyStats) {
        self.folded_const_branches += d.folded_const_branches;
        self.folded_same_target_branches += d.folded_same_target_branches;
        self.merged_blocks += d.merged_blocks;
        self.elided_empty_blocks += d.elided_empty_blocks;
        self.removed_unreachable += d.removed_unreachable;
        self.removed_trivial_phis += d.removed_trivial_phis;
        self.removed_duplicate_phis += d.removed_duplicate_phis;
        self.folded_insts += d.folded_insts;
    }
}

/// Simplifies the CFG to a fixpoint and returns what was done.
///
/// Mirrors the subset of LLVM `simplifycfg` that Algorithm 1 relies on
/// between melding iterations. The function is left structurally valid;
/// callers that care about SSA dominance should run the verifier in tests.
pub fn simplify_cfg(func: &mut Function) -> SimplifyStats {
    simplify_cfg_with(func, &mut AnalysisManager::new())
}

/// [`simplify_cfg`] against a shared [`AnalysisManager`]: CFG snapshots are
/// pulled from the cache instead of recomputed per sub-transform, and the
/// manager reconciles them with the journaled mutations at each query
/// (block/edge edits recompute; φ-only rewrites keep the shape analyses).
/// The rewrite sequence — and therefore the resulting IR — is identical to
/// the uncached version.
pub fn simplify_cfg_with(func: &mut Function, am: &mut AnalysisManager) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    loop {
        darm_ir::budget::poll("transforms::simplify");
        darm_ir::fault::point("transforms::simplify");
        let mut changed = remove_unreachable(func, am, &mut stats);
        changed |= fold_branches(func, &mut stats);
        let mut rewritten = Vec::new();
        let phis_replaced = remove_trivial_phis(func, &mut stats, &mut rewritten)
            | dedup_phis(func, &mut stats, &mut rewritten);
        if phis_replaced {
            // Replacing a φ rewrites its users, and a rewritten user may
            // now be a fold `instcombine` knows — `select c, x, x` over two
            // φs that turned out to be one. `instcombine` ran before this
            // pass and will not look again, so hand it the rewritten users;
            // a condition it folds to a constant is the next round's
            // branch to fold.
            stats.folded_insts += instcombine::run_seeded(func, rewritten);
        }
        changed |= phis_replaced;
        // A merge folds the merged block's φs — ones that held an entry
        // from a block the branch folding above cut off — with the same
        // hand-off.
        let mut rewritten = Vec::new();
        changed |= merge_straightline(func, am, &mut stats, &mut rewritten);
        if !rewritten.is_empty() {
            stats.folded_insts += instcombine::run_seeded(func, rewritten);
        }
        changed |= elide_empty_blocks(func, am, &mut stats);
        if !changed {
            break;
        }
    }
    stats
}

fn remove_unreachable(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let cfg = am.get::<Cfg>(func);
    let mut changed = false;
    let dead: Vec<BlockId> = func
        .block_ids()
        .into_iter()
        .filter(|&b| !cfg.is_reachable(b))
        .collect();
    if dead.is_empty() {
        return false;
    }
    for &b in &dead {
        // Remove φ entries in reachable successors that name this block
        // (the snapshot's rows stay exact: only φs are edited here).
        for &s in cfg.succs(b) {
            if cfg.is_reachable(s) {
                func.phi_remove_incoming(s, b);
            }
        }
    }
    for b in dead {
        func.remove_block(b);
        stats.removed_unreachable += 1;
        changed = true;
    }
    // No explicit invalidation: every mutation above is journaled, and the
    // manager reconciles each cached entry with its own window at the next
    // query (keeping it or recomputing).
    changed
}

fn fold_branches(func: &mut Function, stats: &mut SimplifyStats) -> bool {
    let mut changed = false;
    for b in func.block_ids() {
        let Some(t) = func.terminator(b) else {
            continue;
        };
        if func.inst(t).opcode != Opcode::Br {
            continue;
        }
        let succs = [func.inst(t).succs[0], func.inst(t).succs[1]];
        let cond = func.inst(t).operands[0];
        if succs[0] == succs[1] {
            func.remove_inst(t);
            func.add_inst(
                b,
                InstData::terminator(Opcode::Jump, vec![], vec![succs[0]]),
            );
            stats.folded_same_target_branches += 1;
            changed = true;
        } else if let Value::I1(c) = cond {
            let (taken, dead) = if c {
                (succs[0], succs[1])
            } else {
                (succs[1], succs[0])
            };
            func.remove_inst(t);
            func.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![taken]));
            func.phi_remove_incoming(dead, b);
            stats.folded_const_branches += 1;
            changed = true;
        }
    }
    // No explicit invalidation: every mutation above is journaled, and the
    // manager reconciles each cached entry with its own window at the next
    // query (keeping it or recomputing).
    changed
}

/// Replaces every trivial φ, appending the users the replacements rewrote
/// to `rewritten`.
fn remove_trivial_phis(
    func: &mut Function,
    stats: &mut SimplifyStats,
    rewritten: &mut Vec<InstId>,
) -> bool {
    let mut changed = false;
    // One sweep's replacements, applied in a single arena pass at its end.
    // Operands are read through the queue, so a φ made trivial by an
    // earlier replacement of the same sweep is still caught here.
    let mut pending = Pending::new(func);
    loop {
        for b in func.block_ids() {
            for phi in func.phis_of(b) {
                let inst = func.inst(phi);
                // A φ is trivial if all incomings are the same value or the φ
                // itself (self-reference through a loop).
                let mut unique: Option<Value> = None;
                let mut trivial = true;
                for &v in &inst.operands {
                    let v = pending.resolve(v);
                    if v == Value::Inst(phi) {
                        continue;
                    }
                    match unique {
                        None => unique = Some(v),
                        Some(u) if u == v => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    let replacement = unique.unwrap_or(Value::Undef(inst.ty));
                    pending.push(phi, replacement);
                    func.remove_inst(phi);
                    stats.removed_trivial_phis += 1;
                }
            }
        }
        if pending.batch().is_empty() {
            break;
        }
        rewritten.extend(pending.apply(func));
        changed = true;
    }
    changed
}

/// Replaces every φ by an identical earlier one of its block, appending the
/// users the replacements rewrote to `rewritten`.
fn dedup_phis(func: &mut Function, stats: &mut SimplifyStats, rewritten: &mut Vec<InstId>) -> bool {
    // Applied in one arena pass at the end; φs are compared through the
    // queue, as if each replacement had landed when it was found.
    let mut pending = Pending::new(func);
    for b in func.block_ids() {
        let phis = func.phis_of(b);
        for i in 0..phis.len() {
            if !func.is_inst_alive(phis[i]) {
                continue;
            }
            for j in (i + 1)..phis.len() {
                if !func.is_inst_alive(phis[j]) {
                    continue;
                }
                let a = func.inst(phis[i]);
                let c = func.inst(phis[j]);
                let resolve = |v: &Value| pending.resolve(*v);
                if a.ty == c.ty
                    && a.phi_blocks == c.phi_blocks
                    && a.operands
                        .iter()
                        .map(resolve)
                        .eq(c.operands.iter().map(resolve))
                {
                    pending.push(phis[j], Value::Inst(phis[i]));
                    func.remove_inst(phis[j]);
                    stats.removed_duplicate_phis += 1;
                }
            }
        }
    }
    let any = !pending.batch().is_empty();
    rewritten.extend(pending.apply(func));
    any
}

/// Merges `B` into its unique predecessor `P` when `P` unconditionally jumps
/// to `B` and `B` has no other predecessors, appending the users of the
/// folded φs of `B` to `rewritten`.
fn merge_straightline(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
    rewritten: &mut Vec<InstId>,
) -> bool {
    let mut changed = false;
    // Reachable-predecessor lists (one entry per edge), maintained locally
    // across merges: merging preserves reachability and only moves a
    // block's out-edges to its predecessor, so updating the two affected
    // rows keeps this exactly equal to a freshly recomputed `Cfg`'s view —
    // without the per-merge invalidate + whole-CFG recompute. The table is
    // materialized lazily from the cached CFG snapshot at the *first*
    // merge; sweeps that merge nothing (the common confirming case) just
    // borrow the snapshot. Because the rows stay exact, a sweep carries on
    // past a merge instead of starting over.
    let cfg = am.get::<Cfg>(func);
    let mut local: Option<Vec<Vec<BlockId>>> = None;
    // The sweep's folded φs, substituted in one arena pass at its end —
    // nothing the sweep reads in between is an operand but a folded φ's
    // own, which reads through the queue.
    let mut pending = Pending::new(func);
    loop {
        let mut merged = false;
        // Reverse postorder: a chain collapses into its head front to
        // back, each merge moving only the absorbed block. (A chain ends
        // in its head in any order, but merged back to front every step
        // moves the whole tail absorbed so far — a ladder's melded rungs,
        // applied last rung first, sit in the arena in exactly that
        // order.) Merging never changes reachability, so the snapshot's
        // order stays valid, and a block is only removed at its own turn.
        for &b in cfg.rpo() {
            if b == func.entry() {
                continue;
            }
            let row: &[BlockId] = match &local {
                Some(t) => &t[b.index()],
                None => cfg.preds(b),
            };
            if row.len() != 1 {
                continue;
            }
            let p = row[0];
            if !func.is_block_alive(p) || func.succ_slice(p).len() != 1 {
                continue;
            }
            let Some(pt) = func.terminator(p) else {
                continue;
            };
            if func.inst(pt).opcode != Opcode::Jump {
                continue;
            }
            // The snapshot goes stale at the first mutation: materialize
            // the local table from it before rewriting.
            let preds = local.get_or_insert_with(|| {
                (0..func.block_capacity())
                    .map(|i| cfg.preds(BlockId::new(i)).to_vec())
                    .collect()
            });
            // `b`'s φs fold to their value from `p`. A φ still holding an
            // entry from a block the round's branch folding cut off is no
            // single-incoming φ: its first entry need not be `p`'s.
            for phi in func.phis_of(b) {
                let v = func
                    .inst(phi)
                    .phi_value_for(p)
                    .expect("a φ lists every predecessor");
                pending.push(phi, pending.resolve(v));
                func.remove_inst(phi);
            }
            // Move b's instructions into p; they keep their ids.
            func.remove_inst(pt);
            func.merge_block_into(b, p);
            for &s in func.succ_slice(p) {
                for e in &mut preds[s.index()] {
                    if *e == b {
                        *e = p;
                    }
                }
            }
            preds[b.index()].clear();
            stats.merged_blocks += 1;
            merged = true;
            changed = true;
        }
        rewritten.extend(pending.apply(func));
        if !merged {
            break;
        }
    }
    // No explicit invalidation: every mutation above is journaled, and the
    // manager reconciles each cached entry with its own window at the next
    // query (keeping it or recomputing).
    changed
}

/// Removes blocks that contain only an unconditional jump, redirecting their
/// predecessors straight to the target (LLVM's
/// `TryToSimplifyUncondBranchFromEmptyBlock`).
fn elide_empty_blocks(
    func: &mut Function,
    am: &mut AnalysisManager,
    stats: &mut SimplifyStats,
) -> bool {
    let mut changed = false;
    // Reachable-predecessor lists maintained locally across elisions, the
    // same way `merge_straightline` does: rerouting `preds(b) → b → target`
    // to direct edges preserves reachability, so updating the two affected
    // rows keeps this equal to a fresh `Cfg`'s view without per-elision
    // recomputes. Materialized lazily at the first elision; no-op sweeps
    // borrow the cached snapshot, and a sweep carries on past an elision.
    let cfg = am.get::<Cfg>(func);
    let mut local: Option<Vec<Vec<BlockId>>> = None;
    loop {
        let mut elided = false;
        'outer: for b in func.block_ids() {
            if b == func.entry() {
                continue;
            }
            let insts = func.insts_of(b);
            if insts.len() != 1 {
                continue;
            }
            let t = insts[0];
            if func.inst(t).opcode != Opcode::Jump {
                continue;
            }
            let target = func.inst(t).succs[0];
            if target == b {
                continue; // self-loop
            }
            let preds: Vec<BlockId> = match &local {
                Some(t) => t[b.index()].clone(),
                None => cfg.preds(b).to_vec(),
            };
            if preds.is_empty() {
                continue;
            }
            // Feasibility: for each φ in target, rerouting must not create
            // conflicting incoming values for any predecessor.
            let mut unique_preds = preds.clone();
            unique_preds.sort();
            unique_preds.dedup();
            for phi in func.phis_of(target) {
                let inst = func.inst(phi);
                let Some(v_b) = inst.phi_value_for(b) else {
                    continue 'outer;
                };
                for &p in &unique_preds {
                    if let Some(v_p) = inst.phi_value_for(p) {
                        if v_p != v_b {
                            continue 'outer; // would need a merge; skip
                        }
                    }
                }
            }
            // Also: a predecessor that already branches to `target` directly
            // *and* through `b` would leave φs unable to distinguish edges;
            // allowed only because values were checked equal above.
            for phi in func.phis_of(target) {
                let v_b = func.inst(phi).phi_value_for(b).unwrap();
                func.phi_replace_incoming(phi, &[b], &unique_preds, v_b);
            }
            let pred_rows = local.get_or_insert_with(|| {
                (0..func.block_capacity())
                    .map(|i| cfg.preds(BlockId::new(i)).to_vec())
                    .collect()
            });
            for &p in &unique_preds {
                func.replace_succ(p, b, target);
            }
            func.remove_block(b);
            // Local row maintenance: every edge `p → b` is now `p → target`.
            let moved = std::mem::take(&mut pred_rows[b.index()]);
            pred_rows[target.index()].retain(|&e| e != b);
            pred_rows[target.index()].extend(moved);
            stats.elided_empty_blocks += 1;
            elided = true;
            changed = true;
        }
        if !elided {
            break;
        }
    }
    // No explicit invalidation: every mutation above is journaled, and the
    // manager reconciles each cached entry with its own window at the next
    // query (keeping it or recomputing).
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, Type};

    #[test]
    fn folds_constant_branch_and_removes_unreachable() {
        let mut f = Function::new("cb", vec![], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.br(Value::I1(true), t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, Value::I32(1)), (e, Value::I32(2))]);
        b.ret(Some(p));

        let stats = simplify_cfg(&mut f);
        assert!(stats.folded_const_branches >= 1);
        assert!(stats.removed_unreachable >= 1);
        verify_ssa(&f).unwrap();
        // Everything should have collapsed into one block returning 1.
        assert_eq!(f.block_ids().len(), 1);
        let term = f.terminator(f.entry()).unwrap();
        assert_eq!(f.inst(term).operands[0], Value::I32(1));
    }

    /// The branch fold cuts `u` off, but `m`'s φ keeps `u`'s entry — the
    /// first one — until the next round removes unreachable blocks. When
    /// `m` merges in the same round, the φ must fold to the value from its
    /// one reachable predecessor.
    #[test]
    fn a_merged_phi_folds_to_its_reachable_predecessors_value() {
        let mut f = Function::new("cut", vec![], Type::I32);
        let entry = f.entry();
        let x = f.add_block("x");
        let u = f.add_block("u");
        let m = f.add_block("m");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.br(Value::I1(true), x, u);
        b.switch_to(x);
        b.jump(m);
        b.switch_to(u);
        b.jump(m);
        b.switch_to(m);
        let p = b.phi(Type::I32, &[(u, Value::I32(2)), (x, Value::I32(1))]);
        b.ret(Some(p));

        simplify_cfg(&mut f);
        verify_ssa(&f).unwrap();
        assert_eq!(f.block_ids().len(), 1);
        let term = f.terminator(f.entry()).unwrap();
        assert_eq!(f.inst(term).operands[0], Value::I32(1));
    }

    #[test]
    fn folds_same_target_branch() {
        let mut f = Function::new("st", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, x, x);
        b.switch_to(x);
        b.ret(None);
        let stats = simplify_cfg(&mut f);
        assert_eq!(stats.folded_same_target_branches, 1);
        verify_ssa(&f).unwrap();
        assert_eq!(f.block_ids().len(), 1);
    }

    #[test]
    fn merges_straightline_chain() {
        let mut f = Function::new("ml", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let m = f.add_block("m");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let a = b.add(b.param(0), b.const_i32(1));
        b.jump(m);
        b.switch_to(m);
        let c = b.mul(a, a);
        b.jump(x);
        b.switch_to(x);
        b.ret(Some(c));
        let slots = f.inst_capacity();
        let stats = simplify_cfg(&mut f);
        assert!(stats.merged_blocks >= 2);
        assert_eq!(f.block_ids().len(), 1);
        verify_ssa(&f).unwrap();
        // Merging moves instructions: no arena slot is allocated and the
        // values keep their ids.
        assert_eq!(f.inst_capacity(), slots);
        let ret = f.terminator(f.entry()).unwrap();
        assert_eq!(f.inst(ret).operands[0], c);
    }

    #[test]
    fn elides_empty_forwarding_block() {
        // entry -> {fwd, e}; fwd -> x; e -> x
        let mut f = Function::new("fw", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let fwd = f.add_block("fwd");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, fwd, e);
        b.switch_to(fwd);
        b.jump(x);
        b.switch_to(e);
        let v = b.add(b.param(0), b.const_i32(5));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(fwd, Value::I32(1)), (e, v)]);
        b.ret(Some(p));
        let before = f.block_ids().len();
        let stats = simplify_cfg(&mut f);
        assert!(stats.elided_empty_blocks >= 1);
        assert!(f.block_ids().len() < before);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn removes_trivial_and_duplicate_phis() {
        let mut f = Function::new("ph", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let v = b.add(b.param(0), b.const_i32(1));
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p1 = b.phi(Type::I32, &[(t, v), (e, v)]); // trivial
        let p2 = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        let p3 = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]); // dup of p2
        let s = b.add(p1, p2);
        let s2 = b.add(s, p3);
        b.ret(Some(s2));
        let stats = simplify_cfg(&mut f);
        assert!(stats.removed_trivial_phis >= 1);
        assert!(stats.removed_duplicate_phis >= 1);
        verify_ssa(&f).unwrap();
    }

    #[test]
    fn simplify_is_idempotent() {
        let mut f = Function::new("idem", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let v = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        b.ret(Some(p));
        simplify_cfg(&mut f);
        let snapshot = f.to_string();
        let stats2 = simplify_cfg(&mut f);
        assert_eq!(stats2.total(), 0);
        assert_eq!(f.to_string(), snapshot);
    }
}
