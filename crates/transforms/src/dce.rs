//! Dead code elimination.
//!
//! One global use-count pass feeds a worklist: the sweep that counts uses
//! also finds the instructions nothing uses, only those seed the worklist,
//! and removing an instruction decrements its operands' counts and enqueues
//! the definitions that hit zero — so transitively dead chains fall without
//! the round-based whole-function rescans the seed implementation
//! performed. The removed *set* — the unique maximal set of
//! side-effect-free instructions no side-effecting one depends on (φ cycles
//! aside) — is identical either way.

use darm_ir::{Function, InstId, Value};

/// Added to the use count of an instruction that stays whatever uses it:
/// one with side effects, and a tombstone. Its count never reads zero, so
/// "zero" alone means "removable".
const PINNED: u32 = 1 << 31;

/// Removes instructions whose results are unused and that have no side
/// effects (stores, barriers, warp intrinsics and terminators are kept).
/// Returns the number of removed instructions.
pub fn run_dce(func: &mut Function) -> usize {
    darm_ir::fault::point("transforms::dce");
    // Global use counts (multiset: an instruction using a value twice
    // contributes two), in one sequential sweep of the instruction arena —
    // a live instruction is exactly one that sits in a live block's list.
    // φ self-references do not keep a value alive.
    let cap = func.inst_capacity();
    let mut uses = vec![0u32; cap];
    for idx in 0..cap {
        let id = InstId::new(idx);
        if !func.is_inst_alive(id) {
            uses[idx] += PINNED;
            continue;
        }
        let inst = func.inst(id);
        if inst.opcode.has_side_effects() {
            uses[idx] += PINNED;
        }
        for &op in &inst.operands {
            if let Value::Inst(dep) = op {
                if dep != id {
                    uses[dep.index()] += 1;
                }
            }
        }
    }
    let mut work: Vec<InstId> = uses
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n == 0)
        .map(|(idx, _)| InstId::new(idx))
        .collect();
    let mut removed = 0;
    while let Some(id) = work.pop() {
        let ops = func.inst(id).operands.clone();
        func.remove_inst(id);
        removed += 1;
        for op in ops {
            if let Value::Inst(dep) = op {
                if dep != id {
                    uses[dep.index()] -= 1;
                    if uses[dep.index()] == 0 {
                        work.push(dep);
                    }
                }
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, Type};

    #[test]
    fn removes_dead_chain_keeps_stores() {
        let mut f = Function::new("d", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let dead1 = b.add(tid, tid);
        let _dead2 = b.mul(dead1, dead1); // transitively dead
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(tid, p);
        b.ret(None);
        let n = run_dce(&mut f);
        assert_eq!(n, 2);
        verify_ssa(&f).unwrap();
        // tid, gep, store, ret survive
        assert_eq!(f.insts_of(e).len(), 4);
    }

    #[test]
    fn keeps_live_values() {
        let mut f = Function::new("l", vec![], Type::I32);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let x = b.add(b.const_i32(1), b.const_i32(2));
        b.ret(Some(x));
        assert_eq!(run_dce(&mut f), 0);
    }

    #[test]
    fn keeps_barriers_and_ballots() {
        let mut f = Function::new("sb", vec![], Type::Void);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        b.syncthreads();
        let _mask = b.ballot(Value::I1(true)); // result unused but side-effecting
        b.ret(None);
        use darm_ir::Value;
        assert_eq!(run_dce(&mut f), 0);
        assert_eq!(f.insts_of(e).len(), 3);
    }
}
