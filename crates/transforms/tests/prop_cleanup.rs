//! Properties of the cleanup transforms on random CFGs under random
//! cleanup-relevant mutations — what the pipeline relies on, whichever way
//! the transforms get there: simplification leaves `instcombine` no fold
//! its φ replacements exposed, DCE removes exactly the instructions
//! nothing with a side effect depends on, and one simplification run
//! reaches its fixpoint and undoes a block split down to the instruction
//! ids.

use darm_ir::builder::FunctionBuilder;
use darm_ir::{Dim, Function, IcmpPred, InstData, InstId, Opcode, Type, Value};
use darm_transforms::{run_dce, run_instcombine, simplify_cfg};
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
            let Some(&t) = f.succ_slice(u).first() else {
                return;
            };
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

/// Plants φs that simplification replaces and users that fold only once
/// it has: a φ over one constant from every predecessor — or over the
/// predecessor's own first φ, so φs chain through loops and collapse over
/// several sweeps — under an `add` that may then fold to a constant, and
/// an `icmp` of that sum which becomes the block's branch condition (a
/// branch to fold, which may make more φs trivial); or two identical φs
/// under a `sub` and a `select` that fold once the φs are deduplicated.
/// Every φ value is a parameter, a constant or a φ at the top of the
/// predecessor it comes from, so dominance holds wherever the φs go.
fn plant_phi_redexes(f: &mut Function, kind: u8, x: u8) {
    let blocks = f.block_ids();
    let u = blocks[x as usize % blocks.len()];
    let mut preds = f.compute_preds()[u.index()].clone();
    preds.sort();
    preds.dedup();
    let Some(term) = f.terminator(u) else { return };
    if preds.is_empty() {
        return;
    }
    let k = i32::from(x % 7);
    let slt = Opcode::Icmp(IcmpPred::Slt);
    let add = |f: &mut Function, opcode, ty, operands| {
        Value::Inst(f.insert_inst_before(term, InstData::new(opcode, ty, operands)))
    };
    if kind.is_multiple_of(2) {
        let incoming: Vec<_> = preds
            .iter()
            .map(|&p| match f.phis_of(p).first() {
                Some(&phi) if !x.is_multiple_of(3) => (p, Value::Inst(phi)),
                _ => (p, Value::I32(k)),
            })
            .collect();
        let phi = Value::Inst(f.insert_inst_at(u, 0, InstData::phi(Type::I32, &incoming)));
        let sum = add(f, Opcode::Add, Type::I32, vec![phi, Value::I32(4)]);
        let cond = add(f, slt, Type::I1, vec![sum, Value::I32(7)]);
        if f.inst(term).opcode == Opcode::Br {
            f.inst_mut(term).operands[0] = cond;
        }
    } else {
        let incoming: Vec<_> = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, [Value::Param(0), Value::I32(k)][i % 2]))
            .collect();
        let p1 = Value::Inst(f.insert_inst_at(u, 0, InstData::phi(Type::I32, &incoming)));
        let p2 = Value::Inst(f.insert_inst_at(u, 1, InstData::phi(Type::I32, &incoming)));
        let diff = add(f, Opcode::Sub, Type::I32, vec![p1, p2]);
        let tid = add(f, Opcode::ThreadIdx(Dim::X), Type::I32, vec![]);
        let c = add(f, slt, Type::I1, vec![tid, diff]);
        add(f, Opcode::Select, Type::I32, vec![c, p1, p2]);
    }
}

/// The instructions a side-effecting instruction (stores, barriers, warp
/// intrinsics, terminators) transitively depends on, plus those
/// instructions themselves: what dead-code elimination must keep.
fn needed(f: &Function) -> Vec<InstId> {
    let mut keep = vec![false; f.inst_capacity()];
    let mut work: Vec<InstId> = (0..f.inst_capacity())
        .map(InstId::new)
        .filter(|&id| f.is_inst_alive(id) && f.inst(id).opcode.has_side_effects())
        .collect();
    while let Some(id) = work.pop() {
        if std::mem::replace(&mut keep[id.index()], true) {
            continue;
        }
        for &op in &f.inst(id).operands {
            if let Value::Inst(dep) = op {
                work.push(dep);
            }
        }
    }
    (0..f.inst_capacity())
        .map(InstId::new)
        .filter(|id| keep[id.index()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// DCE leaves exactly the instructions a side-effecting one depends on.
    #[test]
    fn dce_keeps_the_needed(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        run_instcombine(&mut f);
        run_dce(&mut f);
        for &(op, x, y) in &muts {
            // Instruction-level mutations only (ops 0, 1, 4).
            apply_mutation(&mut f, [0u8, 1, 4][op as usize % 3], x, y);
        }
        run_instcombine(&mut f);
        let keep = needed(&f);
        let live_before = f.live_inst_count();
        let removed = run_dce(&mut f);
        let left: Vec<InstId> = (0..f.inst_capacity())
            .map(InstId::new)
            .filter(|&id| f.is_inst_alive(id))
            .collect();
        prop_assert_eq!(&left, &keep, "dce kept something else than what is needed");
        prop_assert_eq!(removed, live_before - keep.len(), "dce count differs");
    }

    /// One simplification run reaches the fixpoint — its merge and elision
    /// sweeps carry on past a rewrite rather than starting over, and must
    /// still leave nothing for a second run — and the function stays
    /// structurally valid under every kind of debris.
    #[test]
    fn simplify_reaches_its_fixpoint_in_one_run(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        simplify_cfg(&mut f);
        for &(op, x, y) in &muts {
            apply_mutation(&mut f, op, x, y);
        }
        simplify_cfg(&mut f);
        f.verify_structure().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let text = f.to_string();
        prop_assert_eq!(simplify_cfg(&mut f).total(), 0, "a second run found work");
        prop_assert_eq!(f.to_string(), text);
    }

    /// Splitting a block and letting simplification merge the halves back
    /// is the identity: the merge moves instruction ids instead of
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
        let blocks = f.block_ids();
        let b = blocks[x as usize % blocks.len()];
        let at = y as usize % f.insts_of(b).len();
        let tail = f.split_block_at(b, at, "tail");
        f.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![tail]));
        let stats = simplify_cfg(&mut f);
        prop_assert_eq!((stats.merged_blocks, stats.total()), (1, 1));
        prop_assert_eq!(f.to_string(), text, "merge did not restore the IR");
        prop_assert_eq!(f.inst_capacity(), capacity + 1, "merge allocated arena slots");
    }
}

proptest! {
    // The redexes a thin hand-off leaves behind need a branch fold to cut
    // off a merged block's predecessor, or φs that collapse over several
    // sweeps: rare per case, so many cheap cases.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Simplification hands `instcombine` the users its φ replacements
    /// rewrote, and nothing else: on a function at the rewrite fixpoint,
    /// with φs planted that fold away and expose folds, an `instcombine`
    /// run after it finds nothing left — it would if the hand-off seeded
    /// too few users.
    #[test]
    fn simplify_leaves_instcombine_nothing_to_fold(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        muts in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..6),
        phis in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        for &(op, x, y) in &muts {
            apply_mutation(&mut f, op, x, y);
        }
        for &(kind, x) in &phis {
            plant_phi_redexes(&mut f, kind, x);
        }
        f.verify_structure().map_err(|e| TestCaseError::fail(e.to_string()))?;
        run_instcombine(&mut f);
        let stats = simplify_cfg(&mut f);
        f.verify_structure().map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(run_instcombine(&mut f), 0, "simplify left a fold behind: {:?}", stats);
    }
}
