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
//! Both trees answer "does `a` (post-)dominate `b`" in two comparisons:
//! the constructor numbers the tree in preorder and stores each node's
//! subtree as the interval of numbers it covers. SSA repair asks the
//! question once per operand of the whole function, and divergence
//! analysis and region detection ask the post-dominator tree once per join
//! candidate and per branch, so an answer that walked the idom chain made
//! those scans O(queries · tree depth) — on a ladder of diamonds,
//! quadratic.
//!
//! The core runs over the CFG's own compressed rows — the reversed graph
//! reads predecessors as successors and vice versa — so building either
//! tree costs a fixed number of allocations whatever the block count.

use crate::cfg::{reverse_postorder, Cfg};
use darm_ir::{BlockId, Function};

/// "No node": the immediate dominator of a tree's root and of every node
/// outside the tree.
const NONE: u32 = u32::MAX;

/// Immediate dominators over a graph whose reverse post-order from the
/// root is `rpo` (root first), `rpo_index` every node's position in it
/// (one entry per node); `preds(v)` lists `v`'s predecessors. `idom[v]` is
/// [`NONE`] for the root and for nodes the root does not reach.
fn compute_idoms<'g>(
    rpo: &[BlockId],
    rpo_index: &[u32],
    preds: impl Fn(BlockId) -> &'g [BlockId],
) -> Vec<u32> {
    let root = rpo[0].index();
    let mut idom = vec![NONE; rpo_index.len()];
    idom[root] = root as u32;
    let intersect = |idom: &[u32], mut a: u32, mut b: u32| {
        while a != b {
            while rpo_index[a as usize] > rpo_index[b as usize] {
                a = idom[a as usize];
            }
            while rpo_index[b as usize] > rpo_index[a as usize] {
                b = idom[b as usize];
            }
        }
        a
    };
    let mut changed = true;
    while changed {
        changed = false;
        for &b in &rpo[1..] {
            let mut new_idom = NONE;
            for p in preds(b) {
                // Predecessors not processed yet (or outside the tree)
                // have no idom and do not constrain `b` this sweep.
                let p = p.index() as u32;
                if idom[p as usize] == NONE {
                    continue;
                }
                new_idom = match new_idom {
                    NONE => p,
                    cur => intersect(&idom, cur, p),
                };
            }
            if new_idom != NONE && idom[b.index()] != new_idom {
                idom[b.index()] = new_idom;
                changed = true;
            }
        }
    }
    idom[root] = NONE; // root has no immediate dominator
    idom
}

/// Preorder interval of every node's subtree in the tree `idom` describes:
/// `(pre, end)` with `pre[v]` the node's preorder number and
/// `pre[v]..end[v]` the numbers of its subtree, so `a` is an ancestor of
/// (or equal to) `b` iff `pre[a] <= pre[b] < end[a]`. Nodes outside the
/// tree get the empty interval `(u32::MAX, 0)`, which contains nothing and
/// lies in nothing. Two passes over `rpo` (root first, parents before
/// children): subtree sizes bottom-up, then numbers top-down, each child
/// taking the next free slot of its parent's interval.
fn tree_intervals(idom: &[u32], rpo: &[BlockId]) -> (Vec<u32>, Vec<u32>) {
    let n = idom.len();
    let (mut pre, mut end) = (vec![u32::MAX; n], vec![0u32; n]);
    // `end` holds each node's subtree size until the node is numbered;
    // from then on, while its children are numbered, the next free number
    // of its interval, which reaches the interval's end with the last
    // child.
    for &v in rpo.iter().rev() {
        let v = v.index();
        end[v] += 1;
        if let Some(d) = parent(idom, v) {
            end[d] += end[v];
        }
    }
    for &v in rpo {
        let v = v.index();
        let size = end[v];
        pre[v] = 0;
        if let Some(d) = parent(idom, v) {
            pre[v] = end[d];
            end[d] += size;
        }
        end[v] = pre[v] + 1;
    }
    (pre, end)
}

fn parent(idom: &[u32], v: usize) -> Option<usize> {
    match idom[v] {
        NONE => None,
        d => Some(d as usize),
    }
}

/// A dominator tree over a graph's nodes — immediate dominators plus every
/// node's subtree as a preorder interval. [`DomTree`] and [`PostDomTree`]
/// are this over the CFG and over its reverse.
#[derive(Debug, Clone)]
struct Tree {
    idom: Vec<u32>,
    /// Preorder number per node (`u32::MAX` outside the tree).
    pre: Vec<u32>,
    /// One past the last preorder number of the node's subtree.
    end: Vec<u32>,
}

impl Tree {
    /// The tree of the graph `rpo` (root first) and `rpo_index` order, as
    /// [`compute_idoms`] takes them.
    fn new<'g>(
        rpo: &[BlockId],
        rpo_index: &[u32],
        preds: impl Fn(BlockId) -> &'g [BlockId],
    ) -> Tree {
        let idom = compute_idoms(rpo, rpo_index, preds);
        let (pre, end) = tree_intervals(&idom, rpo);
        Tree { idom, pre, end }
    }

    fn parent(&self, v: usize) -> Option<usize> {
        parent(&self.idom, v)
    }

    /// Whether `a` is `b` or one of its ancestors: `b`'s preorder number
    /// lies in `a`'s subtree interval. False when either is outside.
    fn contains(&self, a: usize, b: usize) -> bool {
        self.pre[a] <= self.pre[b] && self.pre[b] < self.end[a]
    }
}

/// The dominator tree of a function.
#[derive(Debug, Clone)]
pub struct DomTree {
    tree: Tree,
    entry: usize,
}

impl DomTree {
    /// Computes the dominator tree from a CFG snapshot.
    pub fn new(func: &Function, cfg: &Cfg) -> DomTree {
        debug_assert_eq!(cfg.rpo_positions().len(), func.block_capacity());
        DomTree {
            // The CFG's predecessor rows hold reachable sources only.
            tree: Tree::new(cfg.rpo(), cfg.rpo_positions(), |b| cfg.preds(b)),
            entry: cfg.entry().index(),
        }
    }

    /// The immediate dominator of `b` (`None` for the entry or unreachable
    /// blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.tree.parent(b.index()).map(BlockId::new)
    }

    /// Whether `a` dominates `b` (reflexive; false when either block is
    /// unreachable). O(1): `b`'s preorder number lies in `a`'s subtree
    /// interval.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.contains(a.index(), b.index())
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
        let n = self.tree.idom.len();
        let mut df: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            let preds = cfg.preds(b);
            if preds.len() < 2 {
                continue;
            }
            let Some(idom_b) = self.tree.parent(b.index()) else {
                continue;
            };
            for &p in preds {
                let mut runner = p.index();
                while runner != idom_b {
                    df[runner].push(b);
                    match self.tree.parent(runner) {
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
    tree: Tree,
    /// Index of the virtual exit node (== number of block slots).
    virtual_exit: usize,
}

impl PostDomTree {
    /// Computes the post-dominator tree from a CFG snapshot.
    ///
    /// The reversed graph is read off the CFG's rows: a block's successors
    /// there are its CFG predecessors (reachable sources only), its
    /// predecessors its CFG successors. The virtual exit's successors are
    /// the reachable blocks without successors, each of which has the exit
    /// as its one predecessor.
    pub fn new(func: &Function, cfg: &Cfg) -> PostDomTree {
        let n = func.block_capacity();
        let exit = BlockId::new(n);
        let mut returns = Vec::with_capacity(cfg.rpo().len());
        returns.extend(cfg.rpo().iter().filter(|&&b| cfg.succs(b).is_empty()));
        let rev_succs = |v| {
            if v == exit {
                &returns[..]
            } else {
                cfg.preds(v)
            }
        };
        let (rpo, rpo_index) = reverse_postorder(n + 1, exit, rev_succs);
        // `compute_idoms` never asks for the root's (the exit's) predecessors.
        let to_exit = [exit];
        let rev_preds = |v| match cfg.succs(v) {
            [] => &to_exit[..],
            succs => succs,
        };
        let tree = Tree::new(&rpo, &rpo_index, rev_preds);
        PostDomTree {
            tree,
            virtual_exit: n,
        }
    }

    /// The immediate post-dominator of `b`; `None` means the virtual exit
    /// (i.e. the function return).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.tree
            .parent(b.index())
            .filter(|&v| v != self.virtual_exit)
            .map(BlockId::new)
    }

    /// Whether `a` post-dominates `b` (reflexive; false when either block
    /// is unreachable or reaches no return). O(1), like
    /// [`DomTree::dominates`].
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.tree.contains(a.index(), b.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Function, IcmpPred, Type, Value};
    use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};

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

    /// Whether `a` is on `b`'s idom chain (`b` itself included) — the
    /// definition the preorder intervals must meet. A node outside the
    /// tree (no idom, not the root) has no chain.
    fn on_chain(tree: &Tree, root: usize, a: usize, mut b: usize) -> bool {
        if b != root && tree.parent(b).is_none() {
            return false;
        }
        loop {
            if a == b {
                return true;
            }
            match tree.parent(b) {
                Some(up) => b = up,
                None => return false,
            }
        }
    }

    /// `rungs` diamonds in a row: `entry -> {t, e} -> j`, `j` the next
    /// rung's header. The dominator tree is as deep as the ladder is long,
    /// and so is the post-dominator tree.
    fn row_of_diamonds(rungs: usize) -> Function {
        let spec = KernelSpec {
            shape: Shape::Ladder,
            rungs,
            arm_len: 1,
            arms: Arms::Similar,
            divergence: Divergence::Tid,
            uniform_third: false,
        };
        build_kernel("l", spec, &mut Rng::new(0))
    }

    /// The preorder intervals answer "is `a` on `b`'s idom chain" for every
    /// pair of nodes of both trees — the post-dominator tree's virtual
    /// exit and an unreachable block included.
    #[test]
    fn intervals_are_idom_chains_on_both_trees() {
        let mut unreachable = row_of_diamonds(3);
        let dead = unreachable.add_block("dead");
        FunctionBuilder::new(&mut unreachable, dead).ret(None);
        for f in [diamond().0, nested().0, row_of_diamonds(5), unreachable] {
            let cfg = Cfg::new(&f);
            let dt = DomTree::new(&f, &cfg);
            let pdt = PostDomTree::new(&f, &cfg);
            let trees = [(&dt.tree, dt.entry), (&pdt.tree, pdt.virtual_exit)];
            for (tree, root) in trees {
                let n = tree.idom.len();
                for a in 0..n {
                    for b in 0..n {
                        assert_eq!(
                            tree.contains(a, b),
                            on_chain(tree, root, a, b),
                            "{a} over {b} (root {root})"
                        );
                    }
                }
            }
        }
        // The ladder's post-dominator tree is as deep as the ladder is
        // long: the entry sits under every join and the exit.
        let f = row_of_diamonds(5);
        let pdt = PostDomTree::new(&f, &Cfg::new(&f));
        let (mut depth, mut v) = (0, f.entry().index());
        while let Some(up) = pdt.tree.parent(v) {
            assert!(pdt.tree.contains(up, f.entry().index()));
            (depth, v) = (depth + 1, up);
        }
        assert_eq!((depth, v), (6, pdt.virtual_exit));
    }

    /// A 200 000-node chain whose arena indices run against the tree
    /// (`idom[v] = v + 1`, root last) — what every post-dominator tree
    /// looks like. A sweep in index order to a fixpoint resolves one level
    /// per sweep there (4·10¹⁰ steps: never finishes); one pass in RPO is
    /// instant.
    #[test]
    fn intervals_of_a_chain_against_the_index_order_take_one_pass() {
        let n = 200_000;
        let idom: Vec<u32> = (0..n as u32)
            .map(|v| if v + 1 < n as u32 { v + 1 } else { NONE })
            .collect();
        let rpo: Vec<BlockId> = (0..n).rev().map(BlockId::new).collect();
        let (pre, end) = tree_intervals(&idom, &rpo);
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
