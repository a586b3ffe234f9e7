//! Unpredication (§IV-E): moving unaligned instruction groups out of melded
//! blocks into side blocks guarded by the divergent condition, patching
//! def-use chains with `undef`-carrying φs (Fig. 3c).
//!
//! The paper splits out every run (`meld(unpredicate=true)`). By default
//! (`unpredicate=false`) a run stays predicated in the melded block — run
//! for both sides' lanes — when [`GapRun::is_speculable`], since a split
//! re-branches on the divergent condition the meld removed; a run holding
//! a memory access or an integer division is split out all the same, since
//! on the other side's lanes it could fault or write what the source never
//! wrote.

use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Type, Value};

/// A maximal run of consecutive single-side instructions inside a melded
/// block.
#[derive(Debug, Clone)]
pub struct GapRun {
    /// The instructions of the run, in block order.
    pub insts: Vec<InstId>,
    /// The instruction each of `insts` was cloned from, position for
    /// position. Until the round's use substitution lands, a use in a
    /// block the meld kept still names the source, not the clone.
    pub sources: Vec<InstId>,
    /// Whether the run belongs to the true path.
    pub true_side: bool,
}

impl GapRun {
    /// Whether running the run for the other side's lanes is harmless: it
    /// holds no load, store or integer division. (Barriers and ballots
    /// never reach a melded block.)
    pub fn is_speculable(&self, func: &Function) -> bool {
        use Opcode::{Load, SDiv, SRem, Store, UDiv, URem};
        let op = |i: &InstId| func.inst(*i).opcode;
        !self
            .insts
            .iter()
            .any(|i| matches!(op(i), Load | Store | SDiv | UDiv | SRem | URem))
    }
}

/// Splits `block` at every gap run: the run moves into a new side block
/// entered only when the divergent condition matches its side, and values
/// defined in the run reach later uses through φs whose other arm is
/// `undef` (exactly Fig. 3c). Returns the number of runs split out.
pub fn unpredicate_block(
    func: &mut Function,
    block: BlockId,
    cond: Value,
    runs: &[GapRun],
) -> usize {
    let mut cur = block;
    let mut count = 0;
    for (n, run) in runs.iter().enumerate() {
        let Some(first) = run.insts.first() else {
            continue;
        };
        let pos = func
            .insts_of(cur)
            .iter()
            .position(|i| i == first)
            .expect("gap run must live in the current block");
        // Split off everything from the run start; the run block keeps the
        // run, the continuation gets the rest (incl. the terminator).
        let run_block =
            func.split_block_at(cur, pos, &format!("{}.split.{n}", func.block_name(block)));
        let cont = func.split_block_at(
            run_block,
            run.insts.len(),
            &format!("{}.tail.{n}", func.block_name(block)),
        );
        func.add_inst(
            run_block,
            InstData::terminator(Opcode::Jump, vec![], vec![cont]),
        );
        let (s_true, s_false) = if run.true_side {
            (run_block, cont)
        } else {
            (cont, run_block)
        };
        func.add_inst(
            cur,
            InstData::terminator(Opcode::Br, vec![cond], vec![s_true, s_false]),
        );
        // Def-use repair: values defined in the run but used later flow
        // through a φ with undef on the skipping arm. A later use names the
        // clone or, until the round's substitution, its source.
        for (&d, &src) in run.insts.iter().zip(&run.sources) {
            if func.inst(d).ty == Type::Void {
                continue;
            }
            let uses_d = |v: &Value| *v == Value::Inst(d) || *v == Value::Inst(src);
            let users: Vec<InstId> = (0..func.inst_capacity())
                .map(InstId::new)
                .filter(|&u| func.is_inst_alive(u) && !run.insts.contains(&u))
                .filter(|&u| func.inst(u).operands.iter().any(uses_d))
                .collect();
            if users.is_empty() {
                continue;
            }
            let ty = func.inst(d).ty;
            let phi = func.insert_inst_at(
                cont,
                0,
                InstData::phi(ty, &[(run_block, Value::Inst(d)), (cur, Value::Undef(ty))]),
            );
            for u in users {
                if u == phi {
                    continue;
                }
                for op in &mut func.inst_mut(u).operands {
                    if uses_d(op) {
                        *op = Value::Inst(phi);
                    }
                }
            }
        }
        cur = cont;
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_analysis::verify_ssa;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, Type};

    /// A single block with [both, gapT, gapT, both] structure, hand-built.
    #[test]
    fn splits_run_and_patches_uses() {
        let mut f = Function::new(
            "up",
            vec![Type::Ptr(AddrSpace::Global), Type::I32],
            Type::Void,
        );
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let x = b.add(tid, b.const_i32(1)); // both
        let g1 = b.mul(x, x); // true-side gap
        let g2 = b.add(g1, b.const_i32(3)); // true-side gap
        let y = b.sub(g2, tid); // both (uses gap def!)
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(y, p);
        b.ret(None);
        let ids = f.insts_of(e).to_vec();
        let cond_src = f.add_inst(
            e,
            InstData::new(
                Opcode::Icmp(darm_ir::IcmpPred::Slt),
                Type::I1,
                vec![Value::Param(1), Value::I32(0)],
            ),
        );
        // icmp appended after ret; move it before everything for dominance:
        f.remove_inst(cond_src);
        let cond_id = f.insert_inst_at(
            e,
            0,
            InstData::new(
                Opcode::Icmp(darm_ir::IcmpPred::Slt),
                Type::I1,
                vec![Value::Param(1), Value::I32(0)],
            ),
        );
        let cond = Value::Inst(cond_id);

        let runs = vec![GapRun {
            insts: vec![ids[2], ids[3]],
            sources: vec![ids[2], ids[3]],
            true_side: true,
        }];
        let n = unpredicate_block(&mut f, e, cond, &runs);
        assert_eq!(n, 1);
        verify_ssa(&f).unwrap();
        // The function now has entry + run block + tail.
        assert_eq!(f.block_ids().len(), 3);
        // The tail must contain a φ with an undef arm.
        let blocks = f.block_ids();
        let tail = blocks[2];
        let phis = f.phis_of(tail);
        assert_eq!(phis.len(), 1);
        assert!(f.inst(phis[0]).operands.iter().any(|v| v.is_undef()));
    }
}
