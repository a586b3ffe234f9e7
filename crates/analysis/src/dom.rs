//! Dominator and post-dominator trees, dominance frontiers, and iterated
//! dominance frontiers.
//!
//! Implements the Cooper–Harvey–Kennedy "engineered" dominance algorithm on
//! reverse post-order. The post-dominator tree runs the same core on the
//! reversed CFG with a virtual exit node collecting all `ret` blocks.
//!
//! Both trees are always computed from scratch: the `AnalysisManager` keeps
//! a cached tree while the block graph is untouched and recomputes it
//! otherwise — a few linear sweeps, which measured cheaper than patching a
//! tree from the journal at every function size tried (CHANGES.md, PR 18).
//!
//! [`DomTree::dominates`] is two comparisons: the constructor numbers the
//! tree in preorder and stores each block's subtree as the interval of
//! numbers it covers. SSA repair asks the question once per operand of the
//! whole function, so an answer that walked the idom chain made its scan
//! O(instructions · tree depth) — on a ladder of diamonds, quadratic.

use crate::cfg::Cfg;
use darm_ir::{BlockId, Function};

/// Core dominator computation over an abstract graph of `n` nodes.
/// Returns `idom[v]` (None for the root and unreachable nodes).
fn compute_idoms(n: usize, root: usize, preds: &[Vec<usize>], rpo: &[usize]) -> Vec<Option<usize>> {
    let mut rpo_index = vec![usize::MAX; n];
    for (i, &b) in rpo.iter().enumerate() {
        rpo_index[b] = i;
    }
    let mut idom: Vec<Option<usize>> = vec![None; n];
    idom[root] = Some(root);
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| {
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = idom[a].expect("processed node must have idom");
            }
            while rpo_index[b] > rpo_index[a] {
                b = idom[b].expect("processed node must have idom");
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in rpo.iter().skip(1) {
            let mut new_idom: Option<usize> = None;
            for &p in &preds[b] {
                if idom[p].is_none() {
                    continue;
                }
                new_idom = Some(match new_idom {
                    None => p,
                    Some(cur) => intersect(&idom, cur, p),
                });
            }
            if let Some(ni) = new_idom {
                if idom[b] != Some(ni) {
                    idom[b] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom[root] = None; // root has no immediate dominator
    idom
}

/// Depth of every node of the tree `idom` describes (`u32::MAX` for nodes
/// outside it), in one pass: `rpo` lists the tree's nodes root first, and
/// an immediate dominator precedes its node in reverse post-order.
fn tree_depths(n: usize, idom: &[Option<usize>], rpo: &[usize]) -> Vec<u32> {
    let mut depth = vec![u32::MAX; n];
    for &v in rpo {
        depth[v] = idom[v].map_or(0, |d| depth[d] + 1);
    }
    depth
}

/// Preorder interval of every node's subtree in the tree `idom` describes:
/// `(pre, end)` with `pre[v]` the node's preorder number and
/// `pre[v]..end[v]` the numbers of its subtree, so `a` is an ancestor of
/// (or equal to) `b` iff `pre[a] <= pre[b] < end[a]`. Nodes outside the
/// tree get the empty interval `(u32::MAX, 0)`, which contains nothing and
/// lies in nothing. Two passes over `rpo` (root first, parents before
/// children): subtree sizes bottom-up, then numbers top-down, each child
/// taking the next free slot of its parent's interval.
fn tree_intervals(n: usize, idom: &[Option<usize>], rpo: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let mut size = vec![1u32; n];
    for &v in rpo.iter().rev() {
        if let Some(d) = idom[v] {
            size[d] += size[v];
        }
    }
    let (mut pre, mut end) = (vec![u32::MAX; n], vec![0u32; n]);
    // While a node's children are being numbered, `end` holds the next
    // free number of its interval; it reaches the interval's end with the
    // last child.
    for &v in rpo {
        pre[v] = 0;
        if let Some(d) = idom[v] {
            pre[v] = end[d];
            end[d] += size[v];
        }
        end[v] = pre[v] + 1;
    }
    (pre, end)
}

/// The dominator tree of a function.
#[derive(Debug, Clone)]
pub struct DomTree {
    idom: Vec<Option<usize>>,
    /// Preorder number per block (`u32::MAX` when unreachable).
    pre: Vec<u32>,
    /// One past the last preorder number of the block's subtree.
    end: Vec<u32>,
    entry: usize,
}

impl DomTree {
    /// Computes the dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> DomTree {
        let n = func.block_capacity();
        let mut preds = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            for &p in cfg.preds(b) {
                if cfg.is_reachable(p) {
                    preds[b.index()].push(p.index());
                }
            }
        }
        let rpo: Vec<usize> = cfg.rpo().iter().map(|b| b.index()).collect();
        let entry = cfg.entry().index();
        let idom = compute_idoms(n, entry, &preds, &rpo);
        let (pre, end) = tree_intervals(n, &idom, &rpo);
        DomTree {
            idom,
            pre,
            end,
            entry,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()].map(BlockId::new)
    }

    /// Whether `a` dominates `b` (reflexive; false when either block is
    /// unreachable). O(1): `b`'s preorder number lies in `a`'s subtree
    /// interval.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, b) = (a.index(), b.index());
        self.pre[a] <= self.pre[b] && self.pre[b] < self.end[a]
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The entry block the tree is rooted at.
    pub fn root(&self) -> BlockId {
        BlockId::new(self.entry)
    }

    /// Dominance frontiers (Cooper's algorithm). Indexed by block arena
    /// index; each frontier is sorted and deduplicated.
    pub fn dominance_frontiers(&self, cfg: &Cfg) -> Vec<Vec<BlockId>> {
        let n = self.idom.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            let preds = cfg.preds(b);
            if preds.len() < 2 {
                continue;
            }
            let Some(idom_b) = self.idom[b.index()] else {
                continue;
            };
            for &p in preds {
                if !cfg.is_reachable(p) {
                    continue;
                }
                let mut runner = p.index();
                while runner != idom_b {
                    df[runner].push(b);
                    match self.idom[runner] {
                        Some(next) => runner = next,
                        None => break,
                    }
                }
            }
        }
        for fr in &mut df {
            fr.sort();
            fr.dedup();
        }
        df
    }

    /// Iterated dominance frontier of a set of blocks — the φ-placement set
    /// of classic SSA construction, also used for sync-dependence and SSA
    /// repair.
    pub fn iterated_dominance_frontier(&self, cfg: &Cfg, seeds: &[BlockId]) -> Vec<BlockId> {
        let df = self.dominance_frontiers(cfg);
        DomTree::iterated_frontier_from(&df, seeds)
    }

    /// [`DomTree::iterated_dominance_frontier`] over precomputed frontiers,
    /// so callers that query many seed sets against one CFG state (sync
    /// dependence per divergent branch, SSA repair per broken definition)
    /// compute the frontiers once and iterate many times.
    pub fn iterated_frontier_from(df: &[Vec<BlockId>], seeds: &[BlockId]) -> Vec<BlockId> {
        let n = df.len();
        let mut in_set = vec![false; n];
        let mut work: Vec<BlockId> = seeds.to_vec();
        let mut out = Vec::new();
        while let Some(b) = work.pop() {
            for &j in &df[b.index()] {
                if !in_set[j.index()] {
                    in_set[j.index()] = true;
                    out.push(j);
                    work.push(j);
                }
            }
        }
        out.sort();
        out
    }
}

/// The post-dominator tree of a function, computed over the reversed CFG
/// with a virtual exit.
#[derive(Debug, Clone)]
pub struct PostDomTree {
    idom: Vec<Option<usize>>,
    depth: Vec<u32>,
    /// Index of the virtual exit node (== number of block slots).
    virtual_exit: usize,
}

/// Builds the reversed graph (with a virtual exit collecting terminator-
/// less blocks) and its reverse post-order from the virtual exit.
fn build_reverse_graph(n: usize, cfg: &Cfg) -> (Vec<Vec<usize>>, Vec<usize>) {
    let virtual_exit = n;
    // Reversed graph: rev_preds[v] = successors of v in the original CFG,
    // plus edges ret-block -> virtual exit.
    let mut rev_preds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for &b in cfg.rpo() {
        for &s in cfg.succs(b) {
            rev_preds[b.index()].push(s.index());
        }
        if cfg.succs(b).is_empty() {
            rev_preds[b.index()].push(virtual_exit);
        }
    }
    // RPO of the reversed graph = reverse of a post-order DFS from the
    // virtual exit following reversed edges (original succ -> pred).
    let mut rev_succs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
    for (v, ps) in rev_preds.iter().enumerate() {
        for &p in ps {
            rev_succs[p].push(v);
        }
    }
    let mut visited = vec![false; n + 1];
    let mut post = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(virtual_exit, 0)];
    visited[virtual_exit] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if *i < rev_succs[v].len() {
            let s = rev_succs[v][*i];
            *i += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(v);
            stack.pop();
        }
    }
    post.reverse();
    (rev_preds, post)
}

impl PostDomTree {
    /// Computes the post-dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = func.block_capacity();
        let virtual_exit = n;
        let (rev_preds, post) = build_reverse_graph(n, cfg);
        let idom = compute_idoms(n + 1, virtual_exit, &rev_preds, &post);
        let depth = tree_depths(n + 1, &idom, &post);
        PostDomTree {
            idom,
            depth,
            virtual_exit,
        }
    }

    /// The immediate post-dominator of `b`; `None` means the virtual exit
    /// (i.e. the function return).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        match self.idom[b.index()] {
            Some(v) if v != self.virtual_exit => Some(BlockId::new(v)),
            _ => None,
        }
    }

    /// Whether `a` post-dominates `b` (reflexive).
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (a, mut b) = (a.index(), b.index());
        if self.depth[a] == u32::MAX || self.depth[b] == u32::MAX {
            return false;
        }
        while self.depth[b] > self.depth[a] {
            b = self.idom[b].expect("depth > 0 implies idom");
        }
        a == b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Function, IcmpPred, Type, Value};

    /// entry -> {t, e}; t -> x; e -> x; x -> ret
    fn diamond() -> (Function, Vec<BlockId>) {
        let mut f = Function::new("d", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c, t, e);
        b.switch_to(t);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let ids = f.block_ids();
        (f, ids)
    }

    /// Nested diamond on the true side:
    /// entry -> {a, e}; a -> {b, c}; b -> m; c -> m; m -> x; e -> x; x ret
    fn nested() -> (Function, Vec<BlockId>) {
        let mut f = Function::new("n", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let a = f.add_block("a");
        let bb = f.add_block("b");
        let c = f.add_block("c");
        let m = f.add_block("m");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c0 = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c0, a, e);
        b.switch_to(a);
        let c1 = b.icmp(IcmpPred::Sgt, Value::Param(0), Value::I32(10));
        b.br(c1, bb, c);
        b.switch_to(bb);
        b.jump(m);
        b.switch_to(c);
        b.jump(m);
        b.switch_to(m);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let ids = f.block_ids();
        (f, ids)
    }

    /// Length of `v`'s idom chain, the definition `tree_depths` must meet.
    fn chain_len(idom: &[Option<usize>], mut v: usize) -> u32 {
        let mut len = 0;
        while let Some(up) = idom[v] {
            v = up;
            len += 1;
        }
        len
    }

    /// `rungs` diamonds in a row: `entry -> {t, e} -> j`, `j` the next
    /// rung's header. The dominator tree is as deep as the ladder is long,
    /// and so is the post-dominator tree.
    fn ladder(rungs: usize) -> Function {
        let mut f = Function::new("l", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        for r in 0..rungs {
            let (t, e, j) = (
                b.add_block(&format!("t{r}")),
                b.add_block(&format!("e{r}")),
                b.add_block(&format!("j{r}")),
            );
            let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(r as i32));
            b.br(c, t, e);
            b.switch_to(t);
            b.jump(j);
            b.switch_to(e);
            b.jump(j);
            b.switch_to(j);
        }
        b.ret(None);
        f
    }

    #[test]
    fn depths_are_idom_chain_lengths_on_both_trees() {
        for f in [diamond().0, ladder(5)] {
            let cfg = Cfg::new(&f);
            let dt = DomTree::new(&f, &cfg);
            let rpo: Vec<usize> = cfg.rpo().iter().map(|b| b.index()).collect();
            let depth = tree_depths(f.block_capacity(), &dt.idom, &rpo);
            let pdt = PostDomTree::new(&f, &cfg);
            for b in f.block_ids() {
                let v = b.index();
                assert_eq!(depth[v], chain_len(&dt.idom, v), "dom depth of {v}");
                assert_eq!(
                    pdt.depth[v],
                    chain_len(&pdt.idom, v),
                    "postdom depth of {v}"
                );
            }
            assert_eq!(pdt.depth[pdt.virtual_exit], 0);
        }
        // The ladder's trees are as deep as it is long.
        let f = ladder(5);
        let pdt = PostDomTree::new(&f, &Cfg::new(&f));
        assert_eq!(pdt.depth[f.entry().index()], 6);
    }

    /// A 200 000-node chain whose arena indices run against the tree
    /// (`idom[v] = v + 1`, root last) — what every post-dominator tree
    /// looks like. A sweep in index order to a fixpoint resolves one level
    /// per sweep there (4·10¹⁰ steps: never finishes); one pass in RPO is
    /// instant.
    #[test]
    fn depths_of_a_chain_against_the_index_order_take_one_pass() {
        let n = 200_000;
        let idom: Vec<Option<usize>> = (0..n).map(|v| (v + 1 < n).then_some(v + 1)).collect();
        let rpo: Vec<usize> = (0..n).rev().collect();
        let depth = tree_depths(n, &idom, &rpo);
        assert!((0..n).all(|v| depth[v] as usize == n - 1 - v));
        let (pre, end) = tree_intervals(n, &idom, &rpo);
        assert!((0..n).all(|v| pre[v] as usize == n - 1 - v && end[v] as usize == n));
    }

    #[test]
    fn diamond_dominators() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(t), Some(entry));
        assert_eq!(dt.idom(e), Some(entry));
        assert_eq!(dt.idom(x), Some(entry));
        assert!(dt.dominates(entry, x));
        assert!(!dt.dominates(t, x));
        assert!(dt.dominates(t, t));
        assert!(dt.strictly_dominates(entry, t));
        assert!(!dt.strictly_dominates(t, t));
    }

    #[test]
    fn diamond_post_dominators() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(pdt.ipdom(entry), Some(x));
        assert_eq!(pdt.ipdom(t), Some(x));
        assert_eq!(pdt.ipdom(e), Some(x));
        assert_eq!(pdt.ipdom(x), None);
        assert!(pdt.post_dominates(x, entry));
        assert!(!pdt.post_dominates(t, entry));
        assert!(!pdt.post_dominates(t, e));
        assert!(!pdt.post_dominates(e, t));
    }

    #[test]
    fn nested_ipdom_chain() {
        let (f, ids) = nested();
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let (_entry, a, _b, _c, m, _e, x) =
            (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5], ids[6]);
        assert_eq!(pdt.ipdom(a), Some(m));
        assert_eq!(pdt.ipdom(m), Some(x));
    }

    #[test]
    fn dominance_frontiers_of_diamond() {
        let (f, ids) = diamond();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let df = dt.dominance_frontiers(&cfg);
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(df[t.index()], vec![x]);
        assert_eq!(df[e.index()], vec![x]);
        assert!(df[entry.index()].is_empty());
        assert!(df[x.index()].is_empty());
    }

    #[test]
    fn idf_of_branch_successors_is_join() {
        let (f, ids) = nested();
        let cfg = Cfg::new(&f);
        let dt = DomTree::new(&f, &cfg);
        let (bb, c, m) = (ids[2], ids[3], ids[4]);
        // Values merging at m can merge again at x (where m's path joins e's),
        // so the iterated frontier is {m, x}.
        let idf = dt.iterated_dominance_frontier(&cfg, &[bb, c]);
        assert_eq!(idf, vec![m, ids[6]]);
        // outer branch successors join at x
        let (a, e, x) = (ids[1], ids[5], ids[6]);
        let idf2 = dt.iterated_dominance_frontier(&cfg, &[a, e]);
        assert_eq!(idf2, vec![x]);
    }

    #[test]
    fn loop_post_dominators() {
        // entry -> h; h -> {body, exit}; body -> h
        let mut f = Function::new("l", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let h = f.add_block("h");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.jump(h);
        b.switch_to(h);
        let c = b.icmp(IcmpPred::Slt, Value::Param(0), Value::I32(0));
        b.br(c, body, exit);
        b.switch_to(body);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let cfg = Cfg::new(&f);
        let pdt = PostDomTree::new(&f, &cfg);
        let dt = DomTree::new(&f, &cfg);
        assert_eq!(pdt.ipdom(h), Some(exit));
        assert_eq!(pdt.ipdom(body), Some(h));
        assert_eq!(dt.idom(body), Some(h));
        assert!(dt.dominates(h, body));
    }
}
