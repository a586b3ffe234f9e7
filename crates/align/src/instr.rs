//! Latency-prioritized instruction alignment of two basic blocks.
//!
//! This is the Branch-Fusion-style alignment the paper uses in Algorithm 2's
//! `ComputeInstrAlignment`: compatible instructions are aligned together,
//! higher-latency instructions are prioritized (matching two LDS accesses is
//! worth more than matching two adds), and unaligned instructions pay a gap
//! penalty (they will need unpredication branches).

use crate::compat::meldable_insts;
use crate::seq::{global_align, AlignStep};
use darm_ir::cost;
use darm_ir::{BlockId, Function, InstId};

/// Result of aligning the *bodies* (non-φ, non-terminator instructions) of
/// two blocks.
#[derive(Debug, Clone)]
pub struct BlockAlignment {
    /// Alignment pairs in order. `Match(a, b)` melds, `GapA`/`GapB` are
    /// unaligned instructions of the true/false block respectively.
    pub steps: Vec<AlignmentPair>,
    /// Total alignment score (saved latency minus gap penalties).
    pub score: i64,
}

/// One aligned element over concrete instruction ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignmentPair {
    /// Two meldable instructions (an `I-I` pair in Algorithm 2).
    Match(InstId, InstId),
    /// Unaligned instruction of the first (true-path) block (`I-G`).
    GapA(InstId),
    /// Unaligned instruction of the second (false-path) block (`I-G`).
    GapB(InstId),
}

/// Gap penalty per unaligned instruction: the model charges a small constant
/// for the extra control flow unpredication will introduce.
pub const GAP_PENALTY: i64 = -1;

/// Body instructions of a block: everything between the φs at its top and
/// the terminator at its end.
pub fn body_insts(func: &Function, b: BlockId) -> &[InstId] {
    let insts = func.insts_of(b);
    let end = insts.len() - usize::from(func.terminator(b).is_some());
    let phis = insts[..end]
        .iter()
        .take_while(|&&id| func.inst(id).opcode.is_phi())
        .count();
    &insts[phis..end]
}

/// Computes the optimal instruction alignment of two blocks' bodies.
///
/// The score of matching two compatible instructions is their shared
/// latency — i.e. the thread-cycles saved by issuing them once instead of
/// twice.
pub fn align_block_instructions(func: &Function, bt: BlockId, bf: BlockId) -> BlockAlignment {
    align_bodies(func, body_insts(func, bt), body_insts(func, bf))
}

/// [`align_block_instructions`] over two instruction sequences of `func`
/// rather than two blocks — a body may also be the empty one of a block not
/// built yet, whose alignment is the other body as gaps.
pub fn align_bodies(func: &Function, a: &[InstId], b: &[InstId]) -> BlockAlignment {
    let (score, steps) = global_align(
        a,
        b,
        |&x, &y| meldable_insts(func, x, func, y).then(|| cost::latency_of(func, x) as i64),
        GAP_PENALTY,
    );
    let steps = steps
        .into_iter()
        .map(|s| match s {
            AlignStep::Match(i, j) => AlignmentPair::Match(a[i], b[j]),
            AlignStep::GapA(i) => AlignmentPair::GapA(a[i]),
            AlignStep::GapB(j) => AlignmentPair::GapB(b[j]),
        })
        .collect();
    BlockAlignment { steps, score }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    #[test]
    fn identical_blocks_align_fully() {
        let mut f = Function::new("a", vec![], Type::Void);
        let sh = f.add_shared_array("t", Type::I32, 64);
        let e = f.entry();
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let base = b.shared_base(sh);
        b.jump(b1);
        for blk in [b1, b2] {
            b.switch_to(blk);
            let p = b.gep(Type::I32, base, tid);
            let v = b.load(Type::I32, p);
            let w = b.add(v, tid);
            b.store(w, p);
            b.jump(if blk == b1 { b2 } else { x });
        }
        b.switch_to(x);
        b.ret(None);

        let al = align_block_instructions(&f, b1, b2);
        let matches = al
            .steps
            .iter()
            .filter(|s| matches!(s, AlignmentPair::Match(..)))
            .count();
        assert_eq!(matches, 4);
        assert!(al.score > 0);
    }

    #[test]
    fn bitonic_compares_stay_unaligned() {
        // The Fig. 6 situation: everything aligns except icmp slt vs icmp sgt.
        let mut f = Function::new("bit", vec![], Type::Void);
        let sh = f.add_shared_array("t", Type::I32, 64);
        let e = f.entry();
        let c_blk = f.add_block("C");
        let d_blk = f.add_block("D");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let base = b.shared_base(sh);
        let p1 = b.gep(Type::I32, base, tid);
        let v1 = b.load(Type::I32, p1);
        let v2 = b.load(Type::I32, p1);
        b.jump(c_blk);
        b.switch_to(c_blk);
        let _c1 = b.icmp(IcmpPred::Slt, v1, v2);
        b.jump(d_blk);
        b.switch_to(d_blk);
        let _c2 = b.icmp(IcmpPred::Sgt, v1, v2);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        let al = align_block_instructions(&f, c_blk, d_blk);
        assert!(al
            .steps
            .iter()
            .all(|s| !matches!(s, AlignmentPair::Match(..))));
        assert_eq!(al.steps.len(), 2);
    }

    #[test]
    fn high_latency_matches_preferred() {
        // Block A: load, add. Block B: add, load. The load-load match (high
        // latency) must win even though it forces the adds to cross.
        let mut f = Function::new("lat", vec![], Type::Void);
        let sh = f.add_shared_array("t", Type::I32, 64);
        let e = f.entry();
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let base = b.shared_base(sh);
        let p = b.gep(Type::I32, base, tid);
        b.jump(b1);
        b.switch_to(b1);
        let _l1 = b.load(Type::I32, p);
        let _a1 = b.add(tid, tid);
        b.jump(b2);
        b.switch_to(b2);
        let _a2 = b.add(tid, tid);
        let _l2 = b.load(Type::I32, p);
        b.jump(x);
        b.switch_to(x);
        b.ret(None);

        let al = align_block_instructions(&f, b1, b2);
        let match_kinds: Vec<_> = al
            .steps
            .iter()
            .filter_map(|s| match s {
                AlignmentPair::Match(a, _) => Some(f.inst(*a).opcode),
                _ => None,
            })
            .collect();
        assert!(match_kinds.contains(&darm_ir::Opcode::Load));
        // exactly one match: the loads; the adds become gaps (crossing not
        // allowed by monotone alignment)
        assert_eq!(match_kinds.len(), 1);
    }
}
