//! Region replication: basic block ↔ region melding (Definition 6, case 2).
//!
//! To meld a single basic block `A` with a multi-block SESE subgraph `M`,
//! the paper replicates `M`'s control-flow structure to create `L'`, places
//! `A` at the position of the most profitable matching block, concretizes
//! the branch conditions of `L'` so execution always flows through `A`, and
//! then melds `L'` with `M` as in the region-region case (§IV-C, case 2 of
//! Fig. 2).

use crate::region::Subgraph;
use darm_align::{block_melding_profit, body_insts};
use darm_ir::cost;
use darm_ir::{BlockId, Function, InstData, Opcode, Value};
use std::collections::HashMap;

/// Whether a subgraph contains a cycle. Region replication concretizes
/// branch conditions to constants along one path; doing that to a loop's
/// exit branch would make the replica spin forever, so cyclic subgraphs are
/// never used as replication targets.
pub fn has_cycle(func: &Function, sg: &Subgraph) -> bool {
    // Kahn's algorithm over the subgraph-internal edges: a cycle exists iff
    // the topological sort cannot consume every block.
    let mut indeg: HashMap<BlockId, usize> = sg.blocks.iter().map(|&b| (b, 0)).collect();
    for &b in &sg.blocks {
        for &s in func.succ_slice(b) {
            if sg.contains(s) {
                *indeg.get_mut(&s).expect("internal block") += 1;
            }
        }
    }
    let mut ready: Vec<BlockId> = indeg
        .iter()
        .filter_map(|(&b, &d)| (d == 0).then_some(b))
        .collect();
    let mut consumed = 0;
    while let Some(b) = ready.pop() {
        consumed += 1;
        for &s in func.succ_slice(b) {
            if sg.contains(s) {
                let d = indeg.get_mut(&s).expect("internal block");
                *d -= 1;
                if *d == 0 {
                    ready.push(s);
                }
            }
        }
    }
    consumed != sg.blocks.len()
}

/// Chooses the block of `multi` with the highest melding profitability
/// against `single`'s one block. Returns `(position, MP_S)` where `MP_S`
/// is the subgraph profitability of the resulting replication (empty
/// replicated blocks contribute weight but no common instructions).
pub fn best_position(func: &Function, single: &Subgraph, multi: &Subgraph) -> (BlockId, f64) {
    let a = single.entry;
    let lat = |b: BlockId| -> f64 {
        body_insts(func, b)
            .iter()
            .map(|&i| cost::latency_of(func, i) as f64)
            .sum()
    };
    let lat_a = lat(a);
    let total: f64 = lat_a + multi.blocks.iter().map(|&b| lat(b)).sum::<f64>();
    let mut best = (multi.entry, f64::MIN);
    for &b in &multi.blocks {
        let mp = block_melding_profit(func, a, b);
        let profit = if total == 0.0 {
            0.0
        } else {
            mp * (lat_a + lat(b)) / total
        };
        if profit > best.1 {
            best = (b, profit);
        }
    }
    best
}

/// Physically replicates `multi`'s structure around `single`'s block,
/// producing a subgraph isomorphic to `multi` whose execution always passes
/// through `single`'s block (placed at `position`).
///
/// `single.entry` is reused as the replicated block at `position`: its body
/// stays, and its terminator is replaced to mirror `position`'s terminator
/// shape with concretized (constant) conditions steering along a path
/// `multi.entry → position → multi.exit_block`.
///
/// The plan only asks for this when `single`'s block carries no φs (it
/// could not be repositioned) and `multi` is acyclic.
pub fn replicate(
    func: &mut Function,
    single: &Subgraph,
    multi: &Subgraph,
    position: BlockId,
) -> Subgraph {
    let a = single.entry;
    // Map each block of `multi` to its replica; `position` maps to `a`.
    let mut lmap: HashMap<BlockId, BlockId> = HashMap::new();
    for &m in &multi.blocks {
        let replica = if m == position {
            a
        } else {
            func.add_block(&format!("{}.rep", func.block_name(m)))
        };
        lmap.insert(m, replica);
    }
    // The concretized path: entry → position → exit_block.
    let path = {
        let mut p = bfs_path(func, multi, multi.entry, position);
        let q = bfs_path(func, multi, position, multi.exit_block);
        p.extend(q.into_iter().skip(1));
        p
    };
    let path_next: HashMap<BlockId, BlockId> = path.windows(2).map(|w| (w[0], w[1])).collect();

    // Terminators: mirror `multi`, steering constants along the path.
    for &m in &multi.blocks {
        let replica = lmap[&m];
        if replica == a {
            // Drop A's original jump; it is re-created below.
            let t = func.terminator(a).expect("single block has a terminator");
            func.remove_inst(t);
        }
        let t = func.terminator(m).expect("subgraph block has a terminator");
        let data = func.inst(t).clone();
        let map_succ = |s: BlockId| -> BlockId {
            if s == multi.exit_target {
                single.exit_target
            } else {
                lmap[&s]
            }
        };
        match data.opcode {
            Opcode::Jump => {
                let target = map_succ(data.succs[0]);
                func.add_inst(
                    replica,
                    InstData::terminator(Opcode::Jump, vec![], vec![target]),
                );
            }
            Opcode::Br => {
                let (s0, s1) = (data.succs[0], data.succs[1]);
                let cond = match path_next.get(&m) {
                    Some(&nxt) if nxt == s1 && nxt != s0 => Value::I1(false),
                    _ => Value::I1(true),
                };
                func.add_inst(
                    replica,
                    InstData::terminator(Opcode::Br, vec![cond], vec![map_succ(s0), map_succ(s1)]),
                );
            }
            _ => unreachable!("subgraph terminators are jump/br"),
        }
    }

    let mut blocks: Vec<BlockId> = lmap.values().copied().collect();
    blocks.sort();
    Subgraph {
        entry: lmap[&multi.entry],
        blocks,
        exit_block: lmap[&multi.exit_block],
        exit_target: single.exit_target,
    }
}

/// A simple path `from → to` within the subgraph, by BFS (every block of a
/// SESE subgraph lies on a path from its entry to its exit block).
fn bfs_path(func: &Function, sg: &Subgraph, from: BlockId, to: BlockId) -> Vec<BlockId> {
    let mut prev: HashMap<BlockId, BlockId> = HashMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    let mut seen = std::collections::HashSet::from([from]);
    while let Some(b) = queue.pop_front() {
        if b == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return path;
        }
        for &s in func.succ_slice(b) {
            if sg.contains(s) && seen.insert(s) {
                prev.insert(s, b);
                queue.push_back(s);
            }
        }
    }
    unreachable!("subgraph blocks are connected")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::isomorphic_pairs;
    use crate::region::{detect_region, Analyses};
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    /// True path: single block A (an add+mul). False path: if-then region
    /// whose then-block has the same computation as A.
    fn bb_vs_region() -> (Function, Vec<BlockId>) {
        let mut f = Function::new("rep", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let a_blk = f.add_block("A");
        let r1 = f.add_block("R1");
        let rt = f.add_block("RT");
        let rx = f.add_block("RX");
        let g = f.add_block("G");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c0 = b.icmp(IcmpPred::Slt, tid, b.param(0));
        b.br(c0, a_blk, r1);
        b.switch_to(a_blk);
        let x1 = b.add(tid, b.const_i32(1));
        let _y1 = b.mul(x1, x1);
        b.jump(g);
        b.switch_to(r1);
        let c1 = b.icmp(IcmpPred::Sgt, tid, b.const_i32(7));
        b.br(c1, rt, rx);
        b.switch_to(rt);
        let x2 = b.add(tid, b.const_i32(2));
        let _y2 = b.mul(x2, x2);
        b.jump(rx);
        b.switch_to(rx);
        b.jump(g);
        b.switch_to(g);
        b.ret(None);
        let ids = f.block_ids();
        (f, ids)
    }

    #[test]
    fn picks_the_matching_block() {
        let (f, ids) = bb_vs_region();
        let a = Analyses::new(&f);
        let region = detect_region(&f, &a, ids[0]).expect("region");
        let single = &region.true_chain[0];
        let multi = &region.false_chain[0];
        assert!(single.is_single_block());
        assert!(!multi.is_single_block());
        let (pos, profit) = best_position(&f, single, multi);
        assert_eq!(pos, ids[3]); // RT has the matching add+mul
        assert!(profit > 0.1, "profit {profit}");
    }

    #[test]
    fn replication_is_isomorphic_to_the_region() {
        let (mut f, ids) = bb_vs_region();
        let a = Analyses::new(&f);
        let region = detect_region(&f, &a, ids[0]).expect("region");
        let single = region.true_chain[0].clone();
        let multi = region.false_chain[0].clone();
        let (pos, _) = best_position(&f, &single, &multi);
        let replicated = replicate(&mut f, &single, &multi, pos);
        assert_eq!(replicated.blocks.len(), multi.blocks.len());
        assert_eq!(replicated.exit_target, single.exit_target);
        let pairs = isomorphic_pairs(&f, &replicated, &multi).expect("isomorphic");
        assert_eq!(pairs.len(), multi.blocks.len());
        // A sits at the position of RT.
        assert!(pairs.contains(&(single.entry, pos)));
        // The replicated branch is concretized to always reach A.
        let rb = replicated.entry;
        let t = f.terminator(rb).unwrap();
        assert_eq!(f.inst(t).operands[0], Value::I1(true));
        assert_eq!(f.inst(t).succs[0], single.entry);
    }
}
