//! Control-flow graph views: predecessors, successors, traversal orders.
//!
//! Both edge directions are stored as compressed sparse rows — one offsets
//! array and one edge array each — so building a [`Cfg`] costs a fixed
//! number of allocations whatever the block count.

use darm_ir::{BlockId, Function};

/// RPO position of a node the traversal's root does not reach.
pub(crate) const UNREACHED: u32 = u32::MAX;

/// Adjacency lists in compressed sparse rows: node `v`'s list is
/// `edges[off[v]..off[v + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    off: Vec<u32>,
    edges: Vec<BlockId>,
}

impl Csr {
    fn row(&self, v: BlockId) -> &[BlockId] {
        let v = v.index();
        &self.edges[self.off[v] as usize..self.off[v + 1] as usize]
    }
}

/// Reverse post-order of the nodes `root` reaches in a graph of `n` nodes,
/// and each node's position in it ([`UNREACHED`] for the rest): an
/// iterative depth-first search taking each node's successors in list
/// order. The position table doubles as the visited mark while the search
/// runs; the stack and the order are presized to `n`, which bounds both.
pub(crate) fn reverse_postorder<'g>(
    n: usize,
    root: BlockId,
    succs: impl Fn(BlockId) -> &'g [BlockId],
) -> (Vec<BlockId>, Vec<u32>) {
    let mut index = vec![UNREACHED; n];
    let mut post = Vec::with_capacity(n);
    // (node, next successor to look at)
    let mut stack: Vec<(BlockId, usize)> = Vec::with_capacity(n);
    stack.push((root, 0));
    index[root.index()] = 0;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        match succs(v).get(*i) {
            Some(&s) => {
                *i += 1;
                if index[s.index()] == UNREACHED {
                    index[s.index()] = 0;
                    stack.push((s, 0));
                }
            }
            None => {
                post.push(v);
                stack.pop();
            }
        }
    }
    post.reverse();
    for (i, v) in post.iter().enumerate() {
        index[v.index()] = i as u32;
    }
    (post, index)
}

/// A snapshot of a function's CFG structure.
///
/// Invalidated by any transformation that adds/removes blocks or edges;
/// the `AnalysisManager` then rebuilds it with [`Cfg::new`].
#[derive(Debug, Clone)]
pub struct Cfg {
    entry: BlockId,
    preds: Csr,
    succs: Csr,
    rpo: Vec<BlockId>,
    rpo_index: Vec<u32>,
}

impl Cfg {
    /// Computes the CFG of `func`. Predecessor lists only include edges
    /// from blocks reachable from the entry (mirroring LLVM, where
    /// unreachable code does not constrain analyses), in the reverse
    /// post-order of those sources.
    pub fn new(func: &Function) -> Cfg {
        let cap = func.block_capacity();
        let blocks = || (0..cap).map(BlockId::new);
        // Successor rows copied from the terminators in arena order; a
        // tombstoned block has no terminator, so its row is empty.
        let mut off = Vec::with_capacity(cap + 1);
        off.push(0u32);
        for b in blocks() {
            off.push(off[b.index()] + func.succ_slice(b).len() as u32);
        }
        let mut edges = Vec::with_capacity(off[cap] as usize);
        for b in blocks() {
            edges.extend_from_slice(func.succ_slice(b));
        }
        let succs = Csr { off, edges };

        let entry = func.entry();
        let (rpo, rpo_index) = reverse_postorder(cap, entry, |b| succs.row(b));

        // Predecessor rows: count each row's reachable sources, turn the
        // counts into row ends, then fill every row back to front walking
        // the sources in reverse RPO — each end slides down to its row's
        // start and every row lists its sources in RPO.
        let mut off = vec![0u32; cap + 1];
        for &b in &rpo {
            for &s in succs.row(b) {
                off[s.index()] += 1;
            }
        }
        let mut end = 0;
        for o in &mut off {
            end += *o;
            *o = end;
        }
        let mut edges = vec![entry; end as usize];
        for &b in rpo.iter().rev() {
            for &s in succs.row(b).iter().rev() {
                let o = &mut off[s.index()];
                *o -= 1;
                edges[*o as usize] = b;
            }
        }
        Cfg {
            entry,
            preds: Csr { off, edges },
            succs,
            rpo,
            rpo_index,
        }
    }

    /// The function entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Predecessors of `b` (one entry per edge).
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        self.preds.row(b)
    }

    /// Successors of `b`.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        self.succs.row(b)
    }

    /// Blocks reachable from the entry, in reverse post-order.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Position of `b` in reverse post-order (`usize::MAX` if unreachable).
    pub fn rpo_index(&self, b: BlockId) -> usize {
        match self.rpo_index[b.index()] {
            UNREACHED => usize::MAX,
            i => i as usize,
        }
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != UNREACHED
    }

    /// Every block's RPO position, [`UNREACHED`] when unreachable.
    pub(crate) fn rpo_positions(&self) -> &[u32] {
        &self.rpo_index
    }

    /// Blocks reachable from `from` without passing through `barrier`.
    ///
    /// `from` itself is included (unless it *is* the barrier). Used to
    /// collect the body of a single-entry/single-exit subgraph.
    pub fn reachable_avoiding(&self, from: BlockId, barrier: BlockId) -> Vec<BlockId> {
        if from == barrier {
            return Vec::new();
        }
        let mut seen = vec![false; self.rpo_index.len()];
        let mut out = Vec::new();
        let mut stack = vec![from];
        seen[from.index()] = true;
        seen[barrier.index()] = true;
        while let Some(b) = stack.pop() {
            out.push(b);
            for &s in self.succs(b) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Function, IcmpPred, Type, Value};

    fn diamond() -> Function {
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
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(x).len(), 2);
        assert_eq!(cfg.preds(entry).len(), 0);
    }

    #[test]
    fn rpo_orders_entry_first_exit_last() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        assert_eq!(cfg.rpo()[0], ids[0]);
        assert_eq!(*cfg.rpo().last().unwrap(), ids[3]);
        assert!(cfg.rpo_index(ids[1]) < cfg.rpo_index(ids[3]));
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut f = diamond();
        let dead = f.add_block("dead");
        let mut b = FunctionBuilder::new(&mut f, dead);
        b.ret(None);
        let cfg = Cfg::new(&f);
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo().len(), 4);
    }

    #[test]
    fn reachable_avoiding_stops_at_barrier() {
        let f = diamond();
        let cfg = Cfg::new(&f);
        let ids = f.block_ids();
        let (entry, t, e, x) = (ids[0], ids[1], ids[2], ids[3]);
        let mut r = cfg.reachable_avoiding(t, x);
        r.sort();
        assert_eq!(r, vec![t]);
        let mut r2 = cfg.reachable_avoiding(entry, x);
        r2.sort();
        assert_eq!(r2, vec![entry, t, e]);
    }
}
