//! Property-based equivalence of the dirty-scoped cleanup transforms
//! against their whole-function counterparts: starting from a function
//! whose untouched remainder holds no redexes (the invariant a fixpoint
//! driver establishes with one whole-function run), a random mutation
//! window followed by a scoped run must produce exactly the IR and counts
//! a whole-function run produces on a twin.

use darm_analysis::{AnalysisManager, Cfg, DomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{Dim, Function, IcmpPred, InstData, Opcode, Type, Value};
use darm_transforms::{
    repair_ssa, repair_ssa_scoped, run_dce, run_dce_scoped, run_instcombine,
    run_instcombine_scoped, simplify_cfg, simplify_cfg_scoped,
};
use proptest::prelude::*;

/// Random structured CFG (same scheme as the analysis proptests): blocks in
/// arena order ending in jumps or conditional branches, block-local SSA.
fn build_cfg(script: &[u8]) -> Function {
    let n = (script.len() / 3).clamp(2, 10);
    let mut f = Function::new("prop", vec![Type::I32], Type::Void);
    let mut blocks = vec![f.entry()];
    for i in 1..n {
        blocks.push(f.add_block(&format!("b{i}")));
    }
    let mut b = FunctionBuilder::new(&mut f, blocks[0]);
    for i in 0..n {
        b.switch_to(blocks[i]);
        let byte = script[3 * i % script.len()];
        let t1 = blocks[script[(3 * i + 1) % script.len()] as usize % n];
        let t2 = blocks[script[(3 * i + 2) % script.len()] as usize % n];
        if i == n - 1 {
            b.ret(None);
        } else if byte.is_multiple_of(3) {
            b.jump(t1);
        } else {
            let tid = b.thread_idx(Dim::X);
            let cond = b.icmp(IcmpPred::Slt, tid, Value::Param(0));
            b.br(cond, t1, t2);
        }
    }
    f
}

/// Applies one cleanup-relevant mutation: dead chains, foldable arithmetic,
/// constant branch conditions, edge splits — the kinds of debris melding
/// leaves behind.
fn apply_mutation(f: &mut Function, op: u8, x: u8, y: u8) {
    let blocks = f.block_ids();
    let n = blocks.len();
    let u = blocks[x as usize % n];
    match op % 5 {
        // Dead chain before the terminator.
        0 => {
            let Some(term) = f.terminator(u) else { return };
            let a = f.insert_inst_before(
                term,
                InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(1)]),
            );
            f.insert_inst_before(
                term,
                InstData::new(Opcode::Mul, Type::I32, vec![Value::Inst(a), Value::Inst(a)]),
            );
        }
        // Foldable arithmetic (x + 0, then * 1).
        1 => {
            let Some(term) = f.terminator(u) else { return };
            let a = f.insert_inst_before(
                term,
                InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(0)]),
            );
            f.insert_inst_before(
                term,
                InstData::new(Opcode::Mul, Type::I32, vec![Value::Inst(a), Value::I32(1)]),
            );
        }
        // Constant-condition branch (a simplify redex + unreachable arm).
        2 => {
            let Some(term) = f.terminator(u) else { return };
            if f.inst(term).opcode != Opcode::Jump {
                return;
            }
            let t = f.inst(term).succs[0];
            let blocks = f.block_ids();
            let v = blocks[y as usize % blocks.len()];
            f.remove_inst(term);
            f.add_inst(
                u,
                InstData::terminator(Opcode::Br, vec![Value::I1(x.is_multiple_of(2))], vec![t, v]),
            );
        }
        // Split the first out-edge (empty forwarding block: elision redex).
        3 => {
            let succs = f.succs(u);
            let Some(&t) = succs.first() else { return };
            let mid = f.add_block("split");
            f.add_inst(mid, InstData::terminator(Opcode::Jump, vec![], vec![t]));
            f.replace_succ(u, t, mid);
            f.phi_retarget_pred(t, u, mid);
        }
        // Select with equal arms (instcombine redex feeding dce).
        _ => {
            let Some(term) = f.terminator(u) else { return };
            let tid = f.insert_inst_before(
                term,
                InstData::new(Opcode::ThreadIdx(Dim::X), Type::I32, vec![]),
            );
            let c = f.insert_inst_before(
                term,
                InstData::new(
                    Opcode::Icmp(IcmpPred::Slt),
                    Type::I1,
                    vec![Value::Inst(tid), Value::Param(0)],
                ),
            );
            f.insert_inst_before(
                term,
                InstData::new(
                    Opcode::Select,
                    Type::I32,
                    vec![Value::Inst(c), Value::Inst(tid), Value::Inst(tid)],
                ),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Scoped DCE and instcombine over a mutation window equal the
    /// whole-function runs on a twin, in printed IR and in counts.
    #[test]
    fn scoped_inst_cleanup_equals_whole(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        // Establish the invariant: no redexes outside future windows.
        run_instcombine(&mut f);
        run_dce(&mut f);
        let cursor = f.journal_head();
        for &(op, x, y) in &muts {
            // Instruction-level mutations only (ops 0, 1, 4).
            apply_mutation(&mut f, [0u8, 1, 4][op as usize % 3], x, y);
        }
        let mut twin = f.clone();
        let delta = f.dirty_since(cursor);
        let ic_scoped = run_instcombine_scoped(&mut f, Some(&delta));
        let ic_whole = run_instcombine(&mut twin);
        prop_assert_eq!(ic_scoped, ic_whole, "instcombine counts differ");
        prop_assert_eq!(f.to_string(), twin.to_string(), "instcombine IR differs");
        let delta = f.dirty_since(cursor);
        let dce_scoped = run_dce_scoped(&mut f, Some(&delta));
        let dce_whole = run_dce(&mut twin);
        prop_assert_eq!(dce_scoped, dce_whole, "dce counts differ");
        prop_assert_eq!(f.to_string(), twin.to_string(), "dce IR differs");
    }

    /// Scoped CFG simplification over a mutation window equals the
    /// whole-function run on a twin — including identical arena id
    /// allocation (the printed IR uses raw instruction indices).
    #[test]
    fn scoped_simplify_equals_whole(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        simplify_cfg(&mut f);
        let cursor = f.journal_head();
        for &(op, x, y) in &muts {
            apply_mutation(&mut f, op, x, y);
        }
        let mut twin = f.clone();
        let delta = f.dirty_since(cursor);
        let s_scoped = simplify_cfg_scoped(&mut f, &mut AnalysisManager::new(), Some(&delta));
        let s_whole = simplify_cfg(&mut twin);
        prop_assert_eq!(s_scoped, s_whole, "simplify stats differ");
        prop_assert_eq!(f.to_string(), twin.to_string(), "simplify IR differs");
    }

    /// Splitting a block and letting scoped simplification merge the halves
    /// back is the identity: the merge moves instruction ids instead of
    /// copying, so the printed IR — raw value numbers included — and the
    /// arena size come back exactly.
    #[test]
    fn split_then_simplify_restores_ir_and_ids(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        x in any::<u8>(),
        y in any::<u8>(),
    ) {
        let mut f = build_cfg(&script);
        simplify_cfg(&mut f);
        let (text, capacity) = (f.to_string(), f.inst_capacity());
        let cursor = f.journal_head();
        let blocks = f.block_ids();
        let b = blocks[x as usize % blocks.len()];
        let at = y as usize % f.insts_of(b).len();
        let tail = f.split_block_at(b, at, "tail");
        f.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![tail]));
        let delta = f.dirty_since(cursor);
        let stats = simplify_cfg_scoped(&mut f, &mut AnalysisManager::new(), Some(&delta));
        prop_assert_eq!((stats.merged_blocks, stats.total()), (1, 1));
        prop_assert_eq!(f.to_string(), text, "merge did not restore the IR");
        prop_assert_eq!(f.inst_capacity(), capacity + 1, "merge allocated arena slots");
    }

    /// Scoped SSA repair (window + dominance diff from a baseline at which
    /// the function was fully repaired) equals the whole-function repair on
    /// a twin after dominance-breaking surgery.
    #[test]
    fn scoped_repair_equals_whole(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..4),
    ) {
        let mut f = build_cfg(&script);
        prop_assert!(repair_ssa(&mut f) == 0); // generator builds valid SSA
        let cfg0 = Cfg::new(&f);
        let baseline = DomTree::new(&f, &cfg0);
        let cursor = f.journal_head();
        // Dominance-breaking surgery: redirect edges (changing dominance
        // under existing uses) and add cross-block uses of existing defs.
        for &(x, y) in &picks {
            let blocks = f.block_ids();
            let u = blocks[x as usize % blocks.len()];
            let v = blocks[y as usize % blocks.len()];
            // A use in v of some def in u (may not be dominated).
            let def = f
                .insts_of(u)
                .iter()
                .copied()
                .find(|&i| f.inst(i).ty == Type::I32);
            if let (Some(def), Some(term)) = (def, f.terminator(v)) {
                f.insert_inst_before(
                    term,
                    InstData::new(
                        Opcode::Add,
                        Type::I32,
                        vec![Value::Inst(def), Value::I32(1)],
                    ),
                );
            }
            if x.is_multiple_of(2) {
                let succs = f.succs(u);
                if let Some(&t) = succs.first() {
                    if t != v {
                        f.replace_succ(u, t, v);
                    }
                }
            }
        }
        let mut twin = f.clone();
        let delta = f.dirty_since(cursor);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let dom_changed = DomTree::changed_from(&baseline, &dt, &cfg);
        let n_scoped = repair_ssa_scoped(
            &mut f,
            &mut AnalysisManager::new(),
            Some((&delta, &dom_changed)),
        );
        let n_whole = repair_ssa(&mut twin);
        prop_assert_eq!(n_scoped, n_whole, "repair counts differ");
        prop_assert_eq!(f.to_string(), twin.to_string(), "repair IR differs");
    }
}
