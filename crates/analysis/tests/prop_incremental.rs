//! The one property the analysis cache owes its callers: after any
//! sequence of journaled mutations, every `AnalysisManager::get` answers
//! exactly as a cold cache would.
//!
//! Random CFGs undergo random batches of the meld-shaped edits (split
//! edge, redirect branch, widen a jump into a branch, collapse a branch
//! into a jump, merge a block into its only predecessor, tombstone an
//! unreachable block) interleaved with instruction-only batches, with
//! queries skipped at random so entries carry windows of different ages. How the manager gets there (keep or recompute) is its business.

use darm_analysis::{AnalysisManager, Cfg, DivergenceAnalysis, DomTree, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{BlockId, Dim, Function, IcmpPred, InstData, Opcode, Type, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a random structured CFG from a byte script: `n` blocks in arena
/// order, each ending in a jump or a (possibly divergent) conditional
/// branch to script-chosen targets; the last block returns. All operands
/// are parameters, constants or block-local values, so the function is
/// valid SSA by construction.
fn build_cfg(script: &[u8]) -> Function {
    let n = (script.len() / 3).clamp(2, 12);
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
            // Divergent condition half the time, uniform otherwise.
            let cond = if byte.is_multiple_of(2) {
                let tid = b.thread_idx(Dim::X);
                b.icmp(IcmpPred::Slt, tid, Value::Param(0))
            } else {
                b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(byte as i32))
            };
            b.br(cond, t1, t2);
        }
    }
    f
}

/// Applies one meld-shaped edit chosen by `op` to a random location; may be
/// a no-op when the location does not fit.
fn apply_edit(f: &mut Function, op: u8, x: u8, y: u8) {
    let blocks = f.block_ids();
    let n = blocks.len();
    let u = blocks[x as usize % n];
    let v = blocks[y as usize % n];
    if op % 7 == 6 {
        // Merge a block into its unique, jumping predecessor with
        // `merge_block_into` (post-meld cleanup's straight-line merge): the
        // moved terminator's edges change source and the block is
        // tombstoned, all in one window. The generator builds no φs.
        let preds = f.compute_preds();
        let start = x as usize % n;
        let Some((b, p)) = (0..n).map(|k| blocks[(start + k) % n]).find_map(|b| {
            let &[p] = preds[b.index()].as_slice() else {
                return None;
            };
            let jumps = f
                .terminator(p)
                .is_some_and(|t| f.inst(t).opcode == Opcode::Jump);
            (b != f.entry() && p != b && jumps).then_some((b, p))
        }) else {
            return;
        };
        let jump = f.terminator(p).expect("checked above");
        f.remove_inst(jump);
        f.merge_block_into(b, p);
        return;
    }
    if op % 5 == 4 {
        // Tombstone an unreachable block outright (meld cleanup's
        // remove-unreachable — a deletion-heavy batch component), clearing
        // φ entries that name it. `remove_block`'s contract requires every
        // in-edge gone first — including stale edges from other
        // *unreachable* blocks, which a later edit could otherwise
        // resurrect into a live edge pointing at a tombstone.
        let cfg = Cfg::new(f);
        let Some(b) = blocks.iter().copied().find(|&b| {
            b != f.entry()
                && !cfg.is_reachable(b)
                && !blocks
                    .iter()
                    .any(|&p| p != b && f.succ_slice(p).contains(&b))
        }) else {
            return;
        };
        for s in f.succ_slice(b).to_vec() {
            if f.is_block_alive(s) {
                f.phi_remove_incoming(s, b);
            }
        }
        f.remove_block(b);
        return;
    }
    match op % 4 {
        // Split every edge u → first-succ through a fresh block.
        0 => {
            let Some(&t) = f.succ_slice(u).first() else {
                return;
            };
            let mid = f.add_block("split");
            f.add_inst(mid, InstData::terminator(Opcode::Jump, vec![], vec![t]));
            f.replace_succ(u, t, mid);
            f.phi_retarget_pred(t, u, mid);
        }
        // Redirect u's first successor to v.
        1 => {
            let Some(&t) = f.succ_slice(u).first() else {
                return;
            };
            if t == v {
                return;
            }
            f.replace_succ(u, t, v);
        }
        // Widen a jump — or a return — into a conditional branch (pure
        // edge insertion; rewriting a return also deletes the block's
        // virtual-exit edge in the reversed graph). Occasionally both
        // targets coincide (`br c, v, v`), the duplicate-edge case.
        2 => {
            let Some(term) = f.terminator(u) else { return };
            let t = match f.inst(term).opcode {
                Opcode::Jump => f.inst(term).succs[0],
                Opcode::Ret => v,
                _ => return,
            };
            f.remove_inst(term);
            let cond = f.add_inst(
                u,
                InstData::new(
                    Opcode::Icmp(IcmpPred::Slt),
                    Type::I1,
                    vec![Value::Param(0), Value::I32(x as i32)],
                ),
            );
            f.add_inst(
                u,
                InstData::terminator(Opcode::Br, vec![Value::Inst(cond)], vec![t, v]),
            );
        }
        // Collapse a branch into a jump (edge deletion).
        _ => {
            let Some(term) = f.terminator(u) else { return };
            if f.inst(term).opcode != Opcode::Br {
                return;
            }
            let t = f.inst(term).succs[0];
            f.remove_inst(term);
            f.add_inst(u, InstData::terminator(Opcode::Jump, vec![], vec![t]));
        }
    }
}

/// An instruction-only edit: a plain value before some block's terminator,
/// occasionally removed again (use-count churn), occasionally swapped in
/// for the block's branch condition (`rauw` journals no block-graph event)
/// so divergence can move without the shape.
fn apply_inst_edit(f: &mut Function, op: u8, x: u8) {
    let blocks = f.block_ids();
    let b = blocks[x as usize % blocks.len()];
    let Some(term) = f.terminator(b) else { return };
    let lhs = if op.is_multiple_of(2) {
        Value::Inst(f.insert_inst_before(
            term,
            InstData::new(Opcode::ThreadIdx(Dim::X), Type::I32, vec![]),
        ))
    } else {
        Value::Param(0)
    };
    let v = f.insert_inst_before(
        term,
        InstData::new(Opcode::Add, Type::I32, vec![lhs, Value::I32(x as i32)]),
    );
    match op % 3 {
        0 => f.remove_inst(v),
        1 if f.inst(term).opcode == Opcode::Br => {
            let cond = f.insert_inst_before(
                term,
                InstData::new(
                    Opcode::Icmp(IcmpPred::Slt),
                    Type::I1,
                    vec![Value::Inst(v), Value::I32(7)],
                ),
            );
            let old = f.inst(term).operands[0];
            f.rauw(old, Value::Inst(cond));
        }
        _ => {}
    }
}

fn assert_dom_eq(fresh: &DomTree, got: &DomTree, f: &Function, what: &str) {
    for i in 0..f.block_capacity() {
        let b = BlockId::new(i);
        assert_eq!(fresh.idom(b), got.idom(b), "{what}: idom({i}) differs");
        for j in 0..f.block_capacity() {
            let a = BlockId::new(j);
            assert_eq!(
                fresh.dominates(a, b),
                got.dominates(a, b),
                "{what}: dominates({j}, {i}) differs"
            );
        }
    }
}

fn assert_pdt_eq(fresh: &PostDomTree, got: &PostDomTree, f: &Function, what: &str) {
    for i in 0..f.block_capacity() {
        let b = BlockId::new(i);
        assert_eq!(fresh.ipdom(b), got.ipdom(b), "{what}: ipdom({i}) differs");
        for j in 0..f.block_capacity() {
            let a = BlockId::new(j);
            assert_eq!(
                fresh.post_dominates(a, b),
                got.post_dominates(a, b),
                "{what}: post_dominates({j}, {i}) differs"
            );
        }
    }
}

/// Equality of a cached [`Cfg`] with a fresh build: preds, succs,
/// RPO order, RPO indices and reachability.
fn assert_cfg_eq(fresh: &Cfg, got: &Cfg, f: &Function, what: &str) {
    assert_eq!(fresh.rpo(), got.rpo(), "{what}: RPO order differs");
    for i in 0..f.block_capacity() {
        let b = BlockId::new(i);
        assert_eq!(fresh.preds(b), got.preds(b), "{what}: preds({i}) differ");
        assert_eq!(fresh.succs(b), got.succs(b), "{what}: succs({i}) differ");
        assert_eq!(
            fresh.is_reachable(b),
            got.is_reachable(b),
            "{what}: reachability({i}) differs"
        );
        if fresh.is_reachable(b) {
            assert_eq!(
                fresh.rpo_index(b),
                got.rpo_index(b),
                "{what}: rpo_index({i}) differs"
            );
        }
    }
}

/// Every analysis the manager serves, queried through `am`, against a
/// from-scratch compute on the same function state. `mask` selects which
/// are queried (bit 0 `Cfg`, 1 `DomTree`, 2 `PostDomTree`, 3 divergence),
/// so the others keep an older, longer window for a later batch.
fn assert_manager_matches_cold(am: &mut AnalysisManager, f: &Function, mask: u8, what: &str) {
    let cold_cfg = Cfg::new(f);
    if mask & 1 != 0 {
        assert_cfg_eq(&cold_cfg, &am.get::<Cfg>(f), f, what);
    }
    if mask & 2 != 0 {
        assert_dom_eq(&DomTree::new(f, &cold_cfg), &am.get::<DomTree>(f), f, what);
    }
    if mask & 4 != 0 {
        let cold = PostDomTree::new(f, &cold_cfg);
        assert_pdt_eq(&cold, &am.get::<PostDomTree>(f), f, what);
    }
    if mask & 8 != 0 {
        let (da, cold) = (am.get::<DivergenceAnalysis>(f), DivergenceAnalysis::new(f));
        for i in 0..f.block_capacity() {
            let b = BlockId::new(i);
            assert_eq!(
                da.is_divergent_branch(b),
                cold.is_divergent_branch(b),
                "{what}: branch {i}"
            );
        }
        for i in 0..f.inst_capacity() {
            let id = darm_ir::InstId::new(i);
            assert_eq!(
                da.is_inst_divergent(id),
                cold.is_inst_divergent(id),
                "{what}: inst {i}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The property of the module docs. A batch whose `kind` is even is
    /// instruction-only.
    #[test]
    fn manager_equals_cold_cache_under_edit_batches(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        batches in proptest::collection::vec(
            (
                any::<u8>(),
                proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
                any::<u8>(),
            ),
            1..6,
        ),
    ) {
        let mut f = build_cfg(&script);
        let mut am = AnalysisManager::new();
        assert_manager_matches_cold(&mut am, &f, 0xf, "warm-up");
        for (kind, batch, mask) in &batches {
            let insts_only = kind.is_multiple_of(2);
            let shape_before = am.get::<DomTree>(&f);
            for &(op, x, y) in batch {
                if insts_only {
                    apply_inst_edit(&mut f, op, x);
                } else {
                    apply_edit(&mut f, op, x, y);
                }
            }
            if insts_only {
                prop_assert!(
                    Arc::ptr_eq(&shape_before, &am.get::<DomTree>(&f)),
                    "an instruction-only window keeps the dominator tree"
                );
            }
            assert_manager_matches_cold(&mut am, &f, *mask, "after batch");
        }
        assert_manager_matches_cold(&mut am, &f, 0xf, "at the end");
    }

    /// `split_block_at` and `merge_block_into` are inverses: splitting any
    /// block anywhere and merging the halves back restores the printed IR
    /// and every instruction id, allocating nothing — and at both steps the
    /// manager answers exactly as a cold cache does.
    #[test]
    fn split_then_merge_round_trips_ir_and_analyses(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..5),
    ) {
        let mut f = build_cfg(&script);
        let mut am = AnalysisManager::new();
        am.get::<DivergenceAnalysis>(&f);
        for &(x, y) in &picks {
            let blocks = f.block_ids();
            let b = blocks[x as usize % blocks.len()];
            let at = y as usize % f.insts_of(b).len();
            let (text, capacity) = (f.to_string(), f.inst_capacity());
            let lists: Vec<Vec<darm_ir::InstId>> =
                blocks.iter().map(|&b| f.insts_of(b).to_vec()).collect();

            let tail = f.split_block_at(b, at, "tail");
            let jump = f.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![tail]));
            assert_manager_matches_cold(&mut am, &f, 0xf, "after split");

            f.remove_inst(jump);
            f.merge_block_into(tail, b);
            assert_manager_matches_cold(&mut am, &f, 0xf, "after merge");

            prop_assert_eq!(f.to_string(), text, "printed IR changed");
            prop_assert_eq!(f.inst_capacity(), capacity + 1, "only the jump was allocated");
            prop_assert_eq!(f.block_ids(), blocks.clone());
            for (&b, list) in blocks.iter().zip(&lists) {
                prop_assert_eq!(f.insts_of(b), list.as_slice(), "instruction ids moved");
            }
        }
    }
}
