//! Tail merging (Chen et al., SAS'03) — the weakest of the three techniques
//! in the paper's Table I. Merges *identical* basic blocks that share a
//! successor; unlike branch fusion and DARM it cannot handle distinct
//! instruction sequences or complex control flow.

use darm_ir::{BlockId, Function, Value};
use std::collections::HashMap;

/// Merges pairs of blocks that end in a jump to the same successor and
/// compute identical instruction sequences (same opcodes, same operands up
/// to their own internal definitions). Returns the number of merged blocks.
pub fn tail_merge(func: &mut Function) -> usize {
    let mut merged = 0;
    loop {
        let mut found = None;
        let blocks = func.block_ids();
        'search: for (i, &b1) in blocks.iter().enumerate() {
            for &b2 in blocks.iter().skip(i + 1) {
                if b1 == func.entry() || b2 == func.entry() {
                    continue;
                }
                if func.succ_slice(b1).len() != 1 || func.succ_slice(b1) != func.succ_slice(b2) {
                    continue;
                }
                if blocks_identical(func, b1, b2) {
                    found = Some((b1, b2));
                    break 'search;
                }
            }
        }
        let Some((b1, b2)) = found else { return merged };
        merge_into(func, b1, b2);
        merged += 1;
    }
}

/// Whether two blocks compute the same values: equal length, pairwise same
/// opcode/type, and operands equal after mapping b2's internal defs to
/// b1's.
fn blocks_identical(func: &Function, b1: BlockId, b2: BlockId) -> bool {
    let i1 = func.insts_of(b1);
    let i2 = func.insts_of(b2);
    if i1.len() != i2.len() {
        return false;
    }
    let mut map: HashMap<Value, Value> = HashMap::new();
    for (&a, &b) in i1.iter().zip(i2) {
        let da = func.inst(a);
        let db = func.inst(b);
        if da.opcode != db.opcode || da.ty != db.ty || da.operands.len() != db.operands.len() {
            return false;
        }
        if da.opcode.is_phi() {
            return false; // φ blocks are not mergeable this way
        }
        for (&oa, &ob) in da.operands.iter().zip(&db.operands) {
            let mapped = map.get(&ob).copied().unwrap_or(ob);
            if mapped != oa {
                return false;
            }
        }
        map.insert(Value::Inst(b), Value::Inst(a));
    }
    true
}

/// Redirects all predecessors of `b2` to `b1` and removes `b2`. The shared
/// successor's φs must see identical values from both (guaranteed by
/// `blocks_identical`), so `b2`'s φ entries are dropped after retargeting.
fn merge_into(func: &mut Function, b1: BlockId, b2: BlockId) {
    // Map b2's defs onto b1's for uses elsewhere.
    let i1 = func.insts_of(b1).to_vec();
    let i2 = func.insts_of(b2).to_vec();
    for (&a, &b) in i1.iter().zip(&i2) {
        func.rauw(Value::Inst(b), Value::Inst(a));
    }
    let succ = func.succ_slice(b2)[0];
    func.phi_remove_incoming(succ, b2);
    // Retarget every predecessor edge b? -> b2 onto b1.
    for p in func.block_ids() {
        if func.succ_slice(p).contains(&b2) {
            func.replace_succ(p, b2, b1);
        }
    }
    func.remove_block(b2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    /// Diamond with *identical* arms: tail merging applies (Table I row 1).
    #[test]
    fn merges_identical_diamond_arms() {
        let mut f = Function::new(
            "tm",
            vec![Type::Ptr(darm_ir::AddrSpace::Global)],
            Type::Void,
        );
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(16));
        b.br(c, t, e);
        for blk in [t, e] {
            b.switch_to(blk);
            let v = b.mul(tid, b.const_i32(3));
            let p = b.gep(Type::I32, b.param(0), tid);
            b.store(v, p);
            b.jump(x);
        }
        b.switch_to(x);
        b.ret(None);

        let n = tail_merge(&mut f);
        assert_eq!(n, 1);
        verify_ssa(&f).unwrap();
        assert_eq!(f.block_ids().len(), 3); // entry, merged arm, x
    }

    /// Distinct arms (the -R variants): tail merging cannot apply.
    #[test]
    fn distinct_arms_not_merged() {
        let mut f = Function::new(
            "tm2",
            vec![Type::Ptr(darm_ir::AddrSpace::Global)],
            Type::Void,
        );
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(16));
        b.br(c, t, e);
        b.switch_to(t);
        let v1 = b.mul(tid, b.const_i32(3));
        let p1 = b.gep(Type::I32, b.param(0), tid);
        b.store(v1, p1);
        b.jump(x);
        b.switch_to(e);
        let v2 = b.add(tid, b.const_i32(7)); // different computation
        let p2 = b.gep(Type::I32, b.param(0), tid);
        b.store(v2, p2);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        assert_eq!(tail_merge(&mut f), 0);
        verify_ssa(&f).unwrap();
    }
}
