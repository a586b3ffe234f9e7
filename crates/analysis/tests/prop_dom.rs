//! Property-based validation of the dominator machinery against naive
//! oracles on randomly generated CFGs.

use darm_analysis::{Cfg, DomTree, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{BlockId, Function, IcmpPred, Type, Value};
use proptest::prelude::*;

/// Builds a random CFG with `n` blocks. Block k branches to one or two
/// random *higher or lower* blocks (loops allowed); the last block returns.
fn build_cfg(n: usize, edges: &[(usize, Option<usize>)]) -> Function {
    build_cfg_with_tombstones(n, edges, &[])
}

/// [`build_cfg`] with a tombstone in the arena before block `k` wherever
/// `gaps[k]` holds: a block that jumped into the graph and was then
/// removed, so arena indices and live blocks part ways.
fn build_cfg_with_tombstones(
    n: usize,
    edges: &[(usize, Option<usize>)],
    gaps: &[bool],
) -> Function {
    let mut f = Function::new("rand", vec![Type::I32], Type::Void);
    let mut ids: Vec<BlockId> = vec![f.entry()];
    let mut tombs = Vec::new();
    for k in 1..n {
        if gaps.get(k) == Some(&true) {
            tombs.push(f.add_block(&format!("gap{k}")));
        }
        ids.push(f.add_block(&format!("b{k}")));
    }
    for (k, &(s1, s2)) in edges.iter().enumerate() {
        let mut b = FunctionBuilder::new(&mut f, ids[k]);
        match s2 {
            None => b.jump(ids[s1 % n]),
            Some(s2) => {
                let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(k as i32));
                b.br(c, ids[s1 % n], ids[s2 % n]);
            }
        }
    }
    // last block: ret
    let mut b = FunctionBuilder::new(&mut f, ids[n - 1]);
    b.ret(None);
    for (k, &t) in tombs.iter().enumerate() {
        FunctionBuilder::new(&mut f, t).jump(ids[(3 * k + 1) % n]);
        f.remove_block(t);
    }
    f
}

/// Naive dominance: a dominates b iff removing a makes b unreachable.
fn naive_dominates(cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
    if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
        return false;
    }
    if a == b {
        return true;
    }
    if b == cfg.entry() {
        return false; // only entry dominates entry, handled above
    }
    if a == cfg.entry() {
        return true; // entry dominates everything reachable
    }
    // BFS from entry avoiding `a`.
    let mut seen = std::collections::HashSet::from([cfg.entry()]);
    let mut queue = std::collections::VecDeque::from([cfg.entry()]);
    while let Some(x) = queue.pop_front() {
        for &s in cfg.succs(x) {
            if s != a && seen.insert(s) {
                if s == b {
                    return false;
                }
                queue.push_back(s);
            }
        }
    }
    true
}

/// Dominance read off the tree the slow way: `a` is `b` or one of `b`'s
/// iterated immediate dominators.
fn chain_dominates(cfg: &Cfg, dt: &DomTree, a: BlockId, b: BlockId) -> bool {
    if !cfg.is_reachable(a) || !cfg.is_reachable(b) {
        return false;
    }
    let mut up = Some(b);
    while let Some(x) = up {
        if x == a {
            return true;
        }
        up = dt.idom(x);
    }
    false
}

/// Naive post-dominance: `a` post-dominates `b` iff `b` reaches a return
/// and every path from `b` to a return passes through `a`. Only blocks the
/// entry reaches take part.
fn naive_post_dominates(cfg: &Cfg, a: BlockId, b: BlockId) -> bool {
    let reaches_return_avoiding = |avoid: Option<BlockId>| {
        if avoid == Some(b) {
            return false;
        }
        let mut seen = std::collections::HashSet::from([b]);
        let mut stack = vec![b];
        while let Some(x) = stack.pop() {
            if cfg.succs(x).is_empty() {
                return true;
            }
            for &s in cfg.succs(x) {
                if Some(s) != avoid && seen.insert(s) {
                    stack.push(s);
                }
            }
        }
        false
    };
    cfg.is_reachable(a)
        && cfg.is_reachable(b)
        && reaches_return_avoiding(None)
        && (a == b || !reaches_return_avoiding(Some(a)))
}

fn edge_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, Option<usize>)>> {
    proptest::collection::vec((0..n, proptest::option::of(0..n)), n - 1)
}

fn gap_strategy(n: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `dominates` (two comparisons on the tree's preorder intervals)
    /// agrees with the graph definition and with the walk up the idom
    /// chain, over every pair of blocks — unreachable ones included, which
    /// dominate nothing and are dominated by nothing.
    #[test]
    fn domtree_matches_naive_oracle(edges in edge_strategy(8), gaps in gap_strategy(8)) {
        let f = build_cfg_with_tombstones(8, &edges, &gaps);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        for a in f.block_ids() {
            for b in f.block_ids() {
                let expected = naive_dominates(&cfg, a, b);
                prop_assert_eq!(
                    dt.dominates(a, b),
                    expected,
                    "dominates({}, {})",
                    f.block_name(a),
                    f.block_name(b)
                );
                prop_assert_eq!(
                    chain_dominates(&cfg, &dt, a, b),
                    expected,
                    "idom chain of {} reaches {}",
                    f.block_name(b),
                    f.block_name(a)
                );
                prop_assert_eq!(dt.strictly_dominates(a, b), expected && a != b);
            }
        }
    }

    #[test]
    fn idom_strictly_dominates_and_is_closest(edges in edge_strategy(8)) {
        let f = build_cfg(8, &edges);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        for &b in cfg.rpo() {
            if let Some(idom) = dt.idom(b) {
                prop_assert!(dt.strictly_dominates(idom, b));
                // every other strict dominator of b also dominates idom
                for &a in cfg.rpo() {
                    if a != b && dt.dominates(a, b) {
                        prop_assert!(dt.dominates(a, idom));
                    }
                }
            }
        }
    }

    #[test]
    fn ipdom_post_dominates(edges in edge_strategy(8)) {
        let f = build_cfg(8, &edges);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        for &b in cfg.rpo() {
            if let Some(ip) = pdt.ipdom(b) {
                prop_assert!(pdt.post_dominates(ip, b));
                prop_assert!(ip != b);
            }
        }
    }

    #[test]
    fn dominance_frontier_blocks_have_unsubsumed_preds(edges in edge_strategy(8)) {
        let f = build_cfg(8, &edges);
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        for &a in cfg.rpo() {
            for &b in &df[a.index()] {
                // definition of the dominance frontier: a dominates a pred
                // of b but does not strictly dominate b
                prop_assert!(!dt.strictly_dominates(a, b));
                prop_assert!(cfg
                    .preds(b)
                    .iter()
                    .any(|&p| cfg.is_reachable(p) && dt.dominates(a, p)));
            }
        }
    }

    /// `post_dominates` (preorder intervals over the reversed CFG) agrees
    /// with the graph definition over every pair of blocks — unreachable
    /// ones, ones that reach no return and tombstones in the arena
    /// included.
    #[test]
    fn postdomtree_matches_naive_oracle(edges in edge_strategy(8), gaps in gap_strategy(8)) {
        let f = build_cfg_with_tombstones(8, &edges, &gaps);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        for a in f.block_ids() {
            for b in f.block_ids() {
                prop_assert_eq!(
                    pdt.post_dominates(a, b),
                    naive_post_dominates(&cfg, a, b),
                    "post_dominates({}, {})",
                    f.block_name(a),
                    f.block_name(b)
                );
            }
        }
    }

    /// The CFG's compressed rows list what the function says, in the
    /// order every consumer has always seen: successors as the terminator
    /// names them, predecessors one per edge from a reachable source, in
    /// the reverse post-order of the sources. Every arena slot is checked,
    /// tombstones and unreachable blocks included.
    #[test]
    fn cfg_rows_match_the_function(edges in edge_strategy(8), gaps in gap_strategy(8)) {
        let f = build_cfg_with_tombstones(8, &edges, &gaps);
        let cfg = Cfg::new(&f);
        for (i, preds) in f.compute_preds().iter().enumerate() {
            let b = BlockId::new(i);
            prop_assert_eq!(cfg.succs(b), f.succ_slice(b), "succs of slot {}", i);
            let mut want: Vec<BlockId> = preds
                .iter()
                .copied()
                .filter(|&p| cfg.is_reachable(p))
                .collect();
            // Stable: a branch with both edges into `b` stays adjacent.
            want.sort_by_key(|&p| cfg.rpo_index(p));
            prop_assert_eq!(cfg.preds(b), &want[..], "preds of slot {}", i);
        }
    }
}
