//! Property-based equivalence of incremental analysis maintenance against
//! fresh recomputation: random CFGs undergo random sequences of the
//! meld-shaped edits (split edge, redirect branch, widen a jump into a
//! branch, collapse a branch into a jump, merge a block into its only
//! predecessor), and after every batch the
//! incrementally maintained dominator/post-dominator trees, the journal-
//! driven `AnalysisManager::update_after` cache state, and the divergence
//! and liveness results must equal from-scratch computations.

use darm_analysis::{
    AnalysisManager, Cfg, DivergenceAnalysis, DomTree, EditSummary, Liveness, PostDomTree,
};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{BlockId, Dim, Function, IcmpPred, InstData, Opcode, Type, Value};
use proptest::prelude::*;

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
                && !blocks.iter().any(|&p| p != b && f.succs(p).contains(&b))
        }) else {
            return;
        };
        for s in f.succs(b) {
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
            let succs = f.succs(u);
            let Some(&t) = succs.first() else { return };
            let mid = f.add_block("split");
            f.add_inst(mid, InstData::terminator(Opcode::Jump, vec![], vec![t]));
            f.replace_succ(u, t, mid);
            f.phi_retarget_pred(t, u, mid);
        }
        // Redirect u's first successor to v.
        1 => {
            let succs = f.succs(u);
            let Some(&t) = succs.first() else { return };
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

/// Regression: rewriting a `ret` block into a duplicate-target branch
/// (`br c, X, X`) deletes the block's virtual-exit edge in the reversed
/// graph. The insertion-only fast path must detect that as a reverse
/// deletion (existence-level, not successor-count arithmetic) and fall
/// back, keeping the updated post-dominator tree equal to a fresh one.
#[test]
fn ret_to_duplicate_branch_is_a_reverse_deletion() {
    let mut f = Function::new("r", vec![Type::I32], Type::Void);
    let entry = f.entry();
    let a = f.add_block("a");
    let b = f.add_block("b");
    let mut fb = FunctionBuilder::new(&mut f, entry);
    fb.jump(a);
    fb.switch_to(a);
    let c = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
    fb.br(c, b, entry);
    fb.switch_to(b);
    fb.ret(None);

    let mut am = AnalysisManager::new();
    am.observe(&f);
    am.get::<PostDomTree>(&f);
    // Rewrite the ret into `br c2, entry, entry`: the window records only
    // insertions at the pair level, but b loses its virtual-exit edge.
    let term = f.terminator(b).unwrap();
    f.remove_inst(term);
    let c2 = f.add_inst(
        b,
        InstData::new(
            Opcode::Icmp(IcmpPred::Slt),
            Type::I1,
            vec![Value::Param(0), Value::I32(1)],
        ),
    );
    f.add_inst(
        b,
        InstData::terminator(Opcode::Br, vec![Value::Inst(c2)], vec![entry, entry]),
    );
    am.update_after(&f);
    let got = am.get::<PostDomTree>(&f);
    let fresh = PostDomTree::new(&f, &Cfg::new(&f));
    assert_pdt_eq(&fresh, &got, &f, "ret-to-branch");
}

/// Pinned regression for the *back-edge-covered deletion* case: a deleted
/// edge `(b, v)` whose target keeps a forward entry through `c` and a back
/// edge from `w` — the remaining-predecessor analysis must not mistake the
/// back edge for an entry path, and the affected-subtree rebuild must land
/// (not fall back to recompute) with an exact result on both trees. The
/// side chain `q1..q5` keeps the anchor's subtree under half the function
/// so the profitability gate admits the update.
#[test]
fn back_edge_covered_deletion_updates_in_place() {
    let mut f = Function::new("bee", vec![Type::I32], Type::Void);
    let entry = f.entry();
    let p = f.add_block("p");
    let b = f.add_block("b");
    let c = f.add_block("c");
    let v = f.add_block("v");
    let w = f.add_block("w");
    let x = f.add_block("x");
    let qs: Vec<BlockId> = (1..=5).map(|i| f.add_block(&format!("q{i}"))).collect();
    let mut fb = FunctionBuilder::new(&mut f, entry);
    let c0 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
    fb.br(c0, p, qs[0]);
    fb.switch_to(p);
    let c1 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(1));
    fb.br(c1, b, c);
    fb.switch_to(b);
    fb.jump(v);
    fb.switch_to(c);
    fb.jump(v);
    fb.switch_to(v);
    fb.jump(w);
    fb.switch_to(w);
    let c2 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(2));
    fb.br(c2, v, x); // back edge w → v
    fb.switch_to(x);
    fb.ret(None);
    for (i, &q) in qs.iter().enumerate() {
        fb.switch_to(q);
        match qs.get(i + 1) {
            Some(&next) => fb.jump(next),
            None => fb.ret(None),
        }
    }

    let cfg0 = Cfg::new(&f);
    let dom = DomTree::new(&f, &cfg0);
    let pdt = PostDomTree::new(&f, &cfg0);
    let cursor = f.journal_head();
    // The deletion: collapse p's branch so only the c arm feeds v; b
    // becomes unreachable and v keeps {c, w-back-edge} as predecessors.
    let term = f.terminator(p).unwrap();
    f.remove_inst(term);
    f.add_inst(
        p,
        InstData::terminator(darm_ir::Opcode::Jump, vec![], vec![c]),
    );
    let delta = f.dirty_since(cursor);
    let summary = EditSummary::normalize(&f, &delta.edits);
    assert!(
        summary.has_deletions(),
        "the window must net-delete an edge"
    );
    let cfg = Cfg::new(&f);
    let fresh_dom = DomTree::new(&f, &cfg);
    let fresh_pdt = PostDomTree::new(&f, &cfg);
    let up_dom = dom
        .try_update(&f, &cfg, &summary)
        .expect("deletion batch with a deep anchor must update in place");
    assert_dom_eq(&fresh_dom, &up_dom, &f, "pinned domtree");
    let up_pdt = pdt
        .try_update(&f, &cfg, &summary)
        .expect("reversed-graph deletion batch must update in place");
    assert_pdt_eq(&fresh_pdt, &up_pdt, &f, "pinned postdomtree");
}

/// Bit-identity of a patched [`Cfg`] against a fresh build: preds, succs,
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

/// Pinned regression for the RPO-splice-at-anchor case: swapping a deep
/// branch's successor order nets to *zero* edge changes at the normalized
/// multiset level, yet reorders the DFS below the branch — exactly why
/// [`Cfg::try_update`] consumes the raw journal events. The side chain
/// keeps the anchor's subtree under half the reachable blocks so the
/// splice is admitted, and the result must be bit-identical to a fresh
/// build.
#[test]
fn rpo_splice_handles_successor_order_swap() {
    let mut f = Function::new("swap", vec![Type::I32], Type::Void);
    let entry = f.entry();
    let a = f.add_block("a");
    let b = f.add_block("b");
    let c = f.add_block("c");
    let d = f.add_block("d");
    let qs: Vec<BlockId> = (1..=5).map(|i| f.add_block(&format!("q{i}"))).collect();
    let mut fb = FunctionBuilder::new(&mut f, entry);
    let c0 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
    fb.br(c0, a, qs[0]);
    fb.switch_to(a);
    let c1 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(1));
    fb.br(c1, b, c);
    fb.switch_to(b);
    fb.jump(d);
    fb.switch_to(c);
    // Second path into b, so the branch collapse below keeps it reachable
    // (a block falling unreachable with a retained predecessor is one of
    // the shapes the splice rightly declines).
    let c3 = fb.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(3));
    fb.br(c3, b, d);
    fb.switch_to(d);
    fb.ret(None);
    for (i, &q) in qs.iter().enumerate() {
        fb.switch_to(q);
        match qs.get(i + 1) {
            Some(&next) => fb.jump(next),
            None => fb.ret(None),
        }
    }

    let cfg = Cfg::new(&f);
    let cursor = f.journal_head();
    // Swap a's targets: `br c1, b, c` → `br c2, c, b`.
    let term = f.terminator(a).unwrap();
    f.remove_inst(term);
    let c2 = f.add_inst(
        a,
        InstData::new(
            Opcode::Icmp(IcmpPred::Slt),
            Type::I1,
            vec![Value::Param(0), Value::I32(2)],
        ),
    );
    f.add_inst(
        a,
        InstData::terminator(Opcode::Br, vec![Value::Inst(c2)], vec![c, b]),
    );
    let mut edits = Vec::new();
    assert!(f.cfg_edits_since(cursor, &mut edits));
    let patched = cfg
        .try_update(&f, &edits)
        .expect("deep successor-order swap must splice, not rebuild");
    assert_cfg_eq(&Cfg::new(&f), &patched, &f, "succ-order swap");

    // And the deletion-containing shape on the same graph: collapse a's
    // branch to a jump, dropping the b arm below the anchor.
    let cfg = patched;
    let cursor = f.journal_head();
    let term = f.terminator(a).unwrap();
    f.remove_inst(term);
    f.add_inst(a, InstData::terminator(Opcode::Jump, vec![], vec![c]));
    edits.clear();
    assert!(f.cfg_edits_since(cursor, &mut edits));
    let patched = cfg
        .try_update(&f, &edits)
        .expect("deep branch collapse must splice, not rebuild");
    assert_cfg_eq(&Cfg::new(&f), &patched, &f, "branch collapse");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A patched `Cfg` (`try_update` over the raw journal events), when the
    /// splice is admitted, is bit-identical to a fresh build — preds,
    /// succs, RPO order and reachability — under batched meld-shaped edit
    /// windows including deletions.
    #[test]
    fn patched_cfg_equals_fresh_under_batches(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
            1..5,
        ),
    ) {
        let mut f = build_cfg(&script);
        let mut cfg = Cfg::new(&f);
        let mut edits = Vec::new();
        for batch in &batches {
            let cursor = f.journal_head();
            for &(op, x, y) in batch {
                apply_edit(&mut f, op, x, y);
            }
            edits.clear();
            prop_assert!(f.cfg_edits_since(cursor, &mut edits));
            let fresh = Cfg::new(&f);
            if let Some(patched) = cfg.try_update(&f, &edits) {
                assert_cfg_eq(&fresh, &patched, &f, "batched cfg");
            }
            cfg = fresh;
        }
    }

    /// `DivergenceAnalysis::refresh_window`, when it accepts a window, is
    /// bit-identical to a fresh recompute — under batched meld-shaped edit
    /// windows including deletions, driven directly (below the manager's
    /// profitability gates, which on functions this small would simply
    /// always choose the recompute).
    #[test]
    fn incremental_divergence_equals_fresh_under_batches(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..4),
            1..5,
        ),
    ) {
        let mut f = build_cfg(&script);
        let cfg0 = Cfg::new(&f);
        let dt0 = DomTree::new(&f, &cfg0);
        let pdt0 = PostDomTree::new(&f, &cfg0);
        let mut da = DivergenceAnalysis::run_with_pdt(&f, &cfg0, &dt0, &pdt0);
        for batch in &batches {
            let cursor = f.journal_head();
            for &(op, x, y) in batch {
                apply_edit(&mut f, op, x, y);
            }
            let mut touched = Vec::new();
            prop_assert!(f.insts_touched_since(cursor, |id| touched.push(id)));
            touched.sort_unstable();
            touched.dedup();
            let mut shape_edits = Vec::new();
            prop_assert!(f.cfg_edits_since(cursor, &mut shape_edits));
            let cfg = Cfg::new(&f);
            let dt = DomTree::new(&f, &cfg);
            let pdt = PostDomTree::new(&f, &cfg);
            let fresh = DivergenceAnalysis::run_with_pdt(&f, &cfg, &dt, &pdt);
            if let Some(refreshed) =
                da.refresh_window(&f, &cfg, &dt, &pdt, &touched, !shape_edits.is_empty())
            {
                for i in 0..f.inst_capacity() {
                    let id = darm_ir::InstId::new(i);
                    prop_assert_eq!(
                        refreshed.is_inst_divergent(id),
                        fresh.is_inst_divergent(id),
                        "divergence bit differs at inst {}", i
                    );
                }
                for i in 0..f.block_capacity() {
                    let b = BlockId::new(i);
                    prop_assert_eq!(
                        refreshed.is_divergent_branch(b),
                        fresh.is_divergent_branch(b),
                        "divergent-branch flag differs at block {}", i
                    );
                }
            }
            da = fresh;
        }
    }

    /// `DomTree::try_update` / `PostDomTree::try_update`, when they accept
    /// an edit batch, produce exactly the trees a fresh computation
    /// produces.
    #[test]
    fn incremental_trees_equal_fresh(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        edits in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..8),
    ) {
        let mut f = build_cfg(&script);
        let cfg0 = Cfg::new(&f);
        let mut dom = DomTree::new(&f, &cfg0);
        let mut pdt = PostDomTree::new(&f, &cfg0);
        for &(op, x, y) in &edits {
            let cursor = f.journal_head();
            let cap_before = f.block_capacity();
            let pre = std::env::var_os("PROP_DEBUG").map(|_| f.to_string());
            apply_edit(&mut f, op, x, y);
            let delta = f.dirty_since(cursor);
            let cfg = Cfg::new(&f);
            let fresh_dom = DomTree::new(&f, &cfg);
            let fresh_pdt = PostDomTree::new(&f, &cfg);
            let summary = EditSummary::normalize(&f, &delta.edits);
            if let Some(updated) = dom.try_update(&f, &cfg, &summary) {
                if std::env::var_os("PROP_DEBUG").is_some() {
                    let bad = (0..f.block_capacity())
                        .any(|i| fresh_dom.idom(BlockId::new(i)) != updated.idom(BlockId::new(i)));
                    if bad {
                        eprintln!("script={script:?}\nedit=({op},{x},{y})\nsummary={summary:?}\nfn:\n{f}");
                        eprintln!("pre-edit fn:\n{}", pre.as_deref().unwrap_or(""));
                        for i in 0..f.block_capacity() {
                            let b = BlockId::new(i);
                            eprintln!(
                                "  idom({i}): old={:?} fresh={:?} updated={:?}",
                                dom.idom(b),
                                fresh_dom.idom(b),
                                updated.idom(b)
                            );
                        }
                    }
                }
                assert_dom_eq(&fresh_dom, &updated, &f, "domtree");
                // The changed-set must cover every block whose idom moved
                // (new blocks count as moved).
                let changed = DomTree::changed_from(&dom, &fresh_dom, &cfg);
                for &b in cfg.rpo() {
                    if b.index() >= cap_before || dom.idom(b) != fresh_dom.idom(b) {
                        prop_assert!(changed[b.index()], "changed_from missed {b:?}");
                    }
                }
            }
            if let Some(updated) = pdt.try_update(&f, &cfg, &summary) {
                if std::env::var_os("PROP_DEBUG").is_some() {
                    let bad = (0..f.block_capacity())
                        .any(|i| fresh_pdt.ipdom(BlockId::new(i)) != updated.ipdom(BlockId::new(i)));
                    if bad {
                        eprintln!("script={script:?}\nedit=({op},{x},{y})\nsummary={summary:?}\nfn:\n{f}");
                    }
                }
                assert_pdt_eq(&fresh_pdt, &updated, &f, "postdomtree");
            }
            dom = fresh_dom;
            pdt = fresh_pdt;
        }
    }

    /// Meld surgery arrives as *batches*: several blocks unlinked, branches
    /// collapsed, landing pads split and unreachable remnants tombstoned
    /// between two analysis queries. When `try_update` accepts such a
    /// deletion-containing window it must produce exactly the trees a
    /// fresh computation produces.
    #[test]
    fn incremental_trees_equal_fresh_under_batched_deletions(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        batches in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 2..7),
            1..5,
        ),
    ) {
        let mut f = build_cfg(&script);
        let cfg0 = Cfg::new(&f);
        let mut dom = DomTree::new(&f, &cfg0);
        let mut pdt = PostDomTree::new(&f, &cfg0);
        for batch in &batches {
            let cursor = f.journal_head();
            for &(op, x, y) in batch {
                apply_edit(&mut f, op, x, y);
            }
            let delta = f.dirty_since(cursor);
            let cfg = Cfg::new(&f);
            let fresh_dom = DomTree::new(&f, &cfg);
            let fresh_pdt = PostDomTree::new(&f, &cfg);
            let summary = EditSummary::normalize(&f, &delta.edits);
            if let Some(updated) = dom.try_update(&f, &cfg, &summary) {
                assert_dom_eq(&fresh_dom, &updated, &f, "batched domtree");
            }
            if let Some(updated) = pdt.try_update(&f, &cfg, &summary) {
                if std::env::var_os("PROP_DEBUG").is_some() {
                    let bad = (0..f.block_capacity())
                        .any(|i| fresh_pdt.ipdom(BlockId::new(i)) != updated.ipdom(BlockId::new(i)));
                    if bad {
                        eprintln!("script={script:?}\nbatch={batch:?}\nsummary={summary:?}\nfn:\n{f}");
                    }
                }
                assert_pdt_eq(&fresh_pdt, &updated, &f, "batched postdomtree");
            }
            dom = fresh_dom;
            pdt = fresh_pdt;
        }
    }

    /// The journal-driven `AnalysisManager::update_after` leaves the cache
    /// in a state where every query answers exactly as a cold manager
    /// would — across dominator, post-dominator, divergence and liveness
    /// queries, after every edit batch.
    #[test]
    fn manager_update_after_equals_cold_cache(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        edits in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut f = build_cfg(&script);
        let mut am = AnalysisManager::new();
        am.observe(&f);
        // Warm everything.
        am.get::<DivergenceAnalysis>(&f);
        am.get::<Liveness>(&f);
        for &(op, x, y) in &edits {
            apply_edit(&mut f, op, x, y);
            am.update_after(&f);
            let dom = am.get::<DomTree>(&f);
            let pdt = am.get::<PostDomTree>(&f);
            let da = am.get::<DivergenceAnalysis>(&f);
            let live = am.get::<Liveness>(&f);
            let cfg = Cfg::new(&f);
            let fresh_dom = DomTree::new(&f, &cfg);
            let fresh_pdt = PostDomTree::new(&f, &cfg);
            let fresh_da = DivergenceAnalysis::new(&f);
            let fresh_live = Liveness::new(&f);
            assert_dom_eq(&fresh_dom, &dom, &f, "manager domtree");
            assert_pdt_eq(&fresh_pdt, &pdt, &f, "manager postdomtree");
            for b in f.block_ids() {
                prop_assert_eq!(
                    da.is_divergent_branch(b),
                    fresh_da.is_divergent_branch(b),
                    "divergent branch flag differs at {:?}", b
                );
                prop_assert_eq!(live.live_in(b), fresh_live.live_in(b));
                prop_assert_eq!(live.live_out(b), fresh_live.live_out(b));
                for &id in f.insts_of(b) {
                    prop_assert_eq!(
                        da.is_inst_divergent(id),
                        fresh_da.is_inst_divergent(id),
                        "divergence differs at {:?}", id
                    );
                }
            }
        }
    }

    /// Instruction-only windows preserve the shape analyses and re-seed
    /// liveness exactly: inserting and removing plain instructions must
    /// leave the updated liveness equal to a fresh computation.
    #[test]
    fn inst_only_liveness_update_equals_fresh(
        script in proptest::collection::vec(any::<u8>(), 6..30),
        picks in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let mut f = build_cfg(&script);
        let mut am = AnalysisManager::new();
        am.observe(&f);
        am.get::<Liveness>(&f);
        let dom_before = am.get::<DomTree>(&f);
        for &p in &picks {
            let blocks = f.block_ids();
            let b = blocks[p as usize % blocks.len()];
            let Some(term) = f.terminator(b) else { continue };
            // Insert a value before the terminator; occasionally remove it
            // again (use-count churn without shape changes).
            let v = f.insert_inst_before(
                term,
                InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(p as i32)]),
            );
            if p % 3 == 0 {
                f.remove_inst(v);
            }
        }
        am.update_after(&f);
        assert!(
            std::sync::Arc::ptr_eq(&dom_before, &am.get::<DomTree>(&f)),
            "instruction-only window must keep the dominator tree"
        );
        let live = am.get::<Liveness>(&f);
        let fresh = Liveness::new(&f);
        for b in f.block_ids() {
            prop_assert_eq!(live.live_in(b), fresh.live_in(b));
            prop_assert_eq!(live.live_out(b), fresh.live_out(b));
        }
    }
    /// `split_block_at` and `merge_block_into` are inverses: splitting any
    /// block anywhere and merging the halves back restores the printed IR
    /// and every instruction id, allocating nothing — and at both steps the
    /// journal-reconciled `Cfg`, dominator trees and divergence answer
    /// exactly as fresh computations do.
    #[test]
    fn split_then_merge_round_trips_ir_and_analyses(
        script in proptest::collection::vec(any::<u8>(), 6..36),
        picks in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..5),
    ) {
        let mut f = build_cfg(&script);
        let mut am = AnalysisManager::new();
        am.observe(&f);
        am.get::<DivergenceAnalysis>(&f);
        let assert_manager_matches_fresh = |am: &mut AnalysisManager, f: &Function, what: &str| {
            let fresh_cfg = Cfg::new(f);
            assert_cfg_eq(&fresh_cfg, &am.get::<Cfg>(f), f, what);
            assert_dom_eq(&DomTree::new(f, &fresh_cfg), &am.get::<DomTree>(f), f, what);
            assert_pdt_eq(&PostDomTree::new(f, &fresh_cfg), &am.get::<PostDomTree>(f), f, what);
            let (da, fresh_da) = (am.get::<DivergenceAnalysis>(f), DivergenceAnalysis::new(f));
            for b in f.block_ids() {
                assert_eq!(da.is_divergent_branch(b), fresh_da.is_divergent_branch(b), "{what}");
                for &id in f.insts_of(b) {
                    assert_eq!(da.is_inst_divergent(id), fresh_da.is_inst_divergent(id), "{what}");
                }
            }
        };
        for &(x, y) in &picks {
            let blocks = f.block_ids();
            let b = blocks[x as usize % blocks.len()];
            let at = y as usize % f.insts_of(b).len();
            let (text, capacity) = (f.to_string(), f.inst_capacity());
            let lists: Vec<Vec<darm_ir::InstId>> =
                blocks.iter().map(|&b| f.insts_of(b).to_vec()).collect();

            let tail = f.split_block_at(b, at, "tail");
            let jump = f.add_inst(b, InstData::terminator(Opcode::Jump, vec![], vec![tail]));
            am.update_after(&f);
            assert_manager_matches_fresh(&mut am, &f, "after split");

            f.remove_inst(jump);
            f.merge_block_into(tail, b);
            am.update_after(&f);
            assert_manager_matches_fresh(&mut am, &f, "after merge");

            prop_assert_eq!(f.to_string(), text, "printed IR changed");
            prop_assert_eq!(f.inst_capacity(), capacity + 1, "only the jump was allocated");
            prop_assert_eq!(f.block_ids(), blocks.clone());
            for (&b, list) in blocks.iter().zip(&lists) {
                prop_assert_eq!(f.insts_of(b), list.as_slice(), "instruction ids moved");
            }
        }
    }
}
