//! Property-based validation of the dominator machinery against naive
//! oracles on randomly generated CFGs.

use darm_analysis::{Cfg, DomTree, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{BlockId, Function, IcmpPred, Type, Value};
use proptest::prelude::*;

/// Builds a random CFG with `n` blocks. Block k branches to one or two
/// random *higher or lower* blocks (loops allowed); the last block returns.
fn build_cfg(n: usize, edges: &[(usize, Option<usize>)]) -> Function {
    let mut f = Function::new("rand", vec![Type::I32], Type::Void);
    let mut ids: Vec<BlockId> = vec![f.entry()];
    for k in 1..n {
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

fn edge_strategy(n: usize) -> impl Strategy<Value = Vec<(usize, Option<usize>)>> {
    proptest::collection::vec((0..n, proptest::option::of(0..n)), n - 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `dominates` (two comparisons on the tree's preorder intervals)
    /// agrees with the graph definition and with the walk up the idom
    /// chain, over every pair of blocks — unreachable ones included, which
    /// dominate nothing and are dominated by nothing.
    #[test]
    fn domtree_matches_naive_oracle(edges in edge_strategy(8)) {
        let f = build_cfg(8, &edges);
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
}
