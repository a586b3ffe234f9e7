//! Melding profitability metrics (§IV-C of the paper).
//!
//! `MP_B(b1, b2)` approximates the fraction of thread-cycles saved by
//! melding two basic blocks, assuming the best case where every common
//! instruction kind is melded:
//!
//! ```text
//! MP_B(b1, b2) = Σ_{i ∈ Q} min(freq(i, b1), freq(i, b2)) · w_i
//!                ─────────────────────────────────────────────
//!                          lat(b1) + lat(b2)
//! ```
//!
//! Two blocks with identical opcode-frequency profiles score exactly 0.5.
//!
//! `MP_S(S1, S2)` lifts this to SESE subgraphs as the latency-weighted mean
//! of `MP_B` over corresponding block pairs.

use crate::compat::{inst_kind, InstKind};
use crate::instr::body_insts;
use darm_ir::cost;
use darm_ir::{BlockId, Function};
use std::collections::HashMap;

fn kind_profile(func: &Function, b: BlockId) -> HashMap<InstKind, u64> {
    let mut profile = HashMap::new();
    for &id in body_insts(func, b) {
        *profile.entry(inst_kind(func, id)).or_insert(0) += 1;
    }
    profile
}

fn body_latency(func: &Function, b: BlockId) -> u64 {
    body_insts(func, b)
        .iter()
        .map(|&id| cost::latency_of(func, id))
        .sum()
}

/// The basic-block melding profitability `MP_B(b1, b2)` ∈ [0, 0.5].
///
/// Returns 0.0 when both blocks are empty of meldable instructions.
pub fn block_melding_profit(func: &Function, b1: BlockId, b2: BlockId) -> f64 {
    let p1 = kind_profile(func, b1);
    let p2 = kind_profile(func, b2);
    let mut common = 0u64;
    for (kind, &c1) in &p1 {
        if let Some(&c2) = p2.get(kind) {
            common += c1.min(c2) * kind.latency();
        }
    }
    let denom = body_latency(func, b1) + body_latency(func, b2);
    if denom == 0 {
        return 0.0;
    }
    common as f64 / denom as f64
}

/// The subgraph melding profitability `MP_S(S1, S2)` given the one-to-one
/// mapping `pairs` between corresponding basic blocks of the two isomorphic
/// subgraphs.
pub fn subgraph_melding_profit(func: &Function, pairs: &[(BlockId, BlockId)]) -> f64 {
    let mut num = 0.0;
    let mut denom = 0.0;
    for &(b1, b2) in pairs {
        let lat = (body_latency(func, b1) + body_latency(func, b2)) as f64;
        num += block_melding_profit(func, b1, b2) * lat;
        denom += lat;
    }
    if denom == 0.0 {
        0.0
    } else {
        num / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, Type};

    /// Two blocks with identical instruction mixes and a third that shares
    /// nothing with them.
    fn three_blocks() -> (Function, BlockId, BlockId, BlockId) {
        let mut f = Function::new("p", vec![], Type::Void);
        let e = f.entry();
        let b1 = f.add_block("b1");
        let b2 = f.add_block("b2");
        let b3 = f.add_block("b3");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        b.jump(b1);
        b.switch_to(b1);
        let a = b.add(tid, tid);
        let _m = b.mul(a, tid);
        b.jump(b2);
        b.switch_to(b2);
        let a2 = b.add(tid, b.const_i32(5));
        let _m2 = b.mul(a2, a2);
        b.jump(b3);
        b.switch_to(b3);
        let f1 = b.sitofp(tid);
        let _d = b.fdiv(f1, b.const_f32(2.0));
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        (f, b1, b2, b3)
    }

    #[test]
    fn identical_profiles_score_half() {
        let (f, b1, b2, _) = three_blocks();
        let mp = block_melding_profit(&f, b1, b2);
        assert!((mp - 0.5).abs() < 1e-9, "mp = {mp}");
    }

    #[test]
    fn disjoint_profiles_score_low() {
        let (f, b1, _, b3) = three_blocks();
        let mp = block_melding_profit(&f, b1, b3);
        assert!(mp < 0.2, "mp = {mp}");
    }

    #[test]
    fn profit_is_symmetric() {
        let (f, b1, b2, b3) = three_blocks();
        assert_eq!(
            block_melding_profit(&f, b1, b2),
            block_melding_profit(&f, b2, b1)
        );
        assert_eq!(
            block_melding_profit(&f, b1, b3),
            block_melding_profit(&f, b3, b1)
        );
    }

    #[test]
    fn subgraph_profit_weighted_mean() {
        let (f, b1, b2, b3) = three_blocks();
        let mp_good = subgraph_melding_profit(&f, &[(b1, b2)]);
        let mp_mixed = subgraph_melding_profit(&f, &[(b1, b2), (b1, b3)]);
        assert!(mp_good > mp_mixed);
        assert!((subgraph_melding_profit(&f, &[(b1, b1)]) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_blocks_score_zero() {
        let mut f = Function::new("e", vec![], Type::Void);
        let e = f.entry();
        let b2 = f.add_block("b2");
        let mut b = FunctionBuilder::new(&mut f, e);
        b.jump(b2);
        b.switch_to(b2);
        b.ret(None);
        assert_eq!(block_melding_profit(&f, e, b2), 0.0);
        assert_eq!(subgraph_melding_profit(&f, &[]), 0.0);
    }
}
