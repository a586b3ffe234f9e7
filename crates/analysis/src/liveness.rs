//! Liveness analysis and register-pressure estimation.
//!
//! Melding trades divergence for straight-line code whose values from both
//! paths are live simultaneously — a known register-pressure cost of
//! if-conversion-style transformations. This module computes classic
//! backward liveness over the SSA function and a per-block pressure
//! estimate, so the trade-off can be measured (see the
//! `melding_pressure_tradeoff` integration test).
//!
//! Live sets are dense bitsets over instruction ids ([`InstSet`]) rather
//! than hash sets: iteration order is deterministic (ascending id), set
//! union in the dataflow fixpoint is word-parallel, and membership queries
//! are O(1) with no hashing.

use crate::cfg::Cfg;
use darm_ir::{BlockId, Function, InstId, Opcode, Value};

/// A set of [`InstId`]s backed by a fixed-capacity bitset.
///
/// Iteration yields ids in ascending order, so any consumer that prints or
/// folds over a live set is deterministic across runs.
#[derive(Debug, Clone)]
pub struct InstSet {
    words: Vec<u64>,
}

/// Element-wise equality: trailing zero words don't count, so two sets
/// holding the same ids compare equal even when `insert` auto-grew one of
/// their backing vectors.
impl PartialEq for InstSet {
    fn eq(&self, other: &InstSet) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (self, other)
        } else {
            (other, self)
        };
        short.words.iter().zip(&long.words).all(|(a, b)| a == b)
            && long.words[short.words.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for InstSet {}

impl InstSet {
    /// An empty set able to hold ids `0..capacity`.
    pub fn with_capacity(capacity: usize) -> InstSet {
        InstSet {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: InstId) -> bool {
        let i = id.index();
        match self.words.get(i / 64) {
            Some(w) => w & (1 << (i % 64)) != 0,
            None => false,
        }
    }

    /// Inserts `id`; returns whether it was newly added.
    pub fn insert(&mut self, id: InstId) -> bool {
        let i = id.index();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let w = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `id` if present.
    pub fn remove(&mut self, id: InstId) {
        let i = id.index();
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1 << (i % 64));
        }
    }

    /// Adds every element of `other`; returns whether the set grew.
    pub fn union_with(&mut self, other: &InstSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut grew = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            let merged = *w | o;
            grew |= merged != *w;
            *w = merged;
        }
        grew
    }

    /// Removes every element of `other`.
    pub fn subtract(&mut self, other: &InstSet) {
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The elements in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = InstId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(InstId::new(wi * 64 + bit as usize))
            })
        })
    }
}

/// Live-in/live-out sets per block, over instruction results.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<InstSet>,
    live_out: Vec<InstSet>,
}

impl Liveness {
    /// Computes liveness by backward iteration to a fixpoint.
    ///
    /// φ semantics: a φ's operands are treated as used at the end of the
    /// corresponding predecessor (the standard SSA convention), and the φ
    /// result is defined at the top of its block.
    pub fn new(func: &Function) -> Liveness {
        Liveness::with_cfg(func, &Cfg::new(func))
    }

    /// [`Liveness::new`] against a caller-provided CFG snapshot.
    pub fn with_cfg(func: &Function, cfg: &Cfg) -> Liveness {
        let n = func.block_capacity();
        let empty = InstSet::with_capacity(func.inst_capacity());

        // Upward-exposed uses and defs per block; φ operand uses are
        // attributed to the end of the incoming predecessor.
        let mut ue_uses = vec![empty.clone(); n];
        let mut phi_out_uses = vec![empty.clone(); n];
        let mut defs = vec![empty.clone(); n];
        for &b in cfg.rpo() {
            scan_block(func, b, &mut ue_uses, &mut phi_out_uses, &mut defs);
        }
        let mut live_in = vec![empty.clone(); n];
        let mut live_out = vec![empty; n];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo().iter().rev() {
                // live-out = φ-attributed uses ∪ union of successors' live-in.
                let mut out = phi_out_uses[b.index()].clone();
                for &s in cfg.succs(b) {
                    out.union_with(&live_in[s.index()]);
                }
                // live-in = (live-out − defs) ∪ upward-exposed uses.
                let mut inn = out.clone();
                inn.subtract(&defs[b.index()]);
                inn.union_with(&ue_uses[b.index()]);
                if inn != live_in[b.index()] || out != live_out[b.index()] {
                    live_in[b.index()] = inn;
                    live_out[b.index()] = out;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Values live on entry to `b`.
    pub fn live_in(&self, b: BlockId) -> &InstSet {
        &self.live_in[b.index()]
    }

    /// Values live on exit from `b`.
    pub fn live_out(&self, b: BlockId) -> &InstSet {
        &self.live_out[b.index()]
    }
}

/// Accumulates one block's liveness transfer contributions: its own
/// upward-exposed uses and defs, plus φ-attributed uses into the rows of
/// its predecessors.
fn scan_block(
    func: &Function,
    b: BlockId,
    ue_uses: &mut [InstSet],
    phi_out_uses: &mut [InstSet],
    defs: &mut [InstSet],
) {
    for &id in func.insts_of(b) {
        let inst = func.inst(id);
        if inst.opcode == Opcode::Phi {
            for (pred, v) in inst.phi_incoming() {
                if let Value::Inst(d) = v {
                    phi_out_uses[pred.index()].insert(d);
                }
            }
        } else {
            for &op in &inst.operands {
                if let Value::Inst(d) = op {
                    if !defs[b.index()].contains(d) {
                        ue_uses[b.index()].insert(d);
                    }
                }
            }
        }
        if inst.ty != darm_ir::Type::Void {
            defs[b.index()].insert(id);
        }
    }
}

/// Maximum number of simultaneously-live values across all program points —
/// a simple register-pressure proxy.
pub fn max_pressure(func: &Function) -> usize {
    let cfg = Cfg::new(func);
    let live = Liveness::with_cfg(func, &cfg);
    let mut max = 0;
    for &b in cfg.rpo() {
        let mut current = live.live_out(b).clone();
        max = max.max(current.len());
        // Walk backwards through the block.
        for &id in func.insts_of(b).iter().rev() {
            current.remove(id);
            let inst = func.inst(id);
            if inst.opcode != Opcode::Phi {
                for &op in &inst.operands {
                    if let Value::Inst(d) = op {
                        current.insert(d);
                    }
                }
            }
            max = max.max(current.len());
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{Dim, IcmpPred, Type};

    #[test]
    fn inst_set_basics() {
        let mut s = InstSet::with_capacity(4);
        assert!(s.is_empty());
        assert!(s.insert(InstId::new(3)));
        assert!(s.insert(InstId::new(100))); // beyond initial capacity
        assert!(!s.insert(InstId::new(3)));
        assert_eq!(s.len(), 2);
        assert!(s.contains(InstId::new(3)));
        assert!(!s.contains(InstId::new(4)));
        let ids: Vec<usize> = s.iter().map(InstId::index).collect();
        assert_eq!(
            ids,
            vec![3, 100],
            "iteration is ascending and deterministic"
        );
        s.remove(InstId::new(3));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn inst_set_equality_ignores_capacity() {
        let mut grown = InstSet::with_capacity(4);
        grown.insert(InstId::new(100)); // auto-grows the word vector
        grown.remove(InstId::new(100));
        grown.insert(InstId::new(2));
        let mut small = InstSet::with_capacity(4);
        small.insert(InstId::new(2));
        assert_eq!(grown, small);
        assert_eq!(small, grown);
        small.insert(InstId::new(3));
        assert_ne!(grown, small);
        assert_eq!(InstSet::with_capacity(0), InstSet::with_capacity(64));
    }

    #[test]
    fn straightline_liveness() {
        let mut f = Function::new("sl", vec![], Type::I32);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let tid = b.thread_idx(Dim::X);
        let x = b.add(tid, tid);
        let y = b.mul(x, x);
        b.ret(Some(y));
        let live = Liveness::new(&f);
        assert!(live.live_in(e).is_empty());
        assert!(live.live_out(e).is_empty());
        assert!(max_pressure(&f) >= 1);
    }

    #[test]
    fn value_live_across_branch() {
        // v defined in entry, used in both arms: live-in of both arms.
        let mut f = Function::new("br", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e2 = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let v = b.add(b.param(0), b.const_i32(1));
        let c = b.icmp(IcmpPred::Slt, v, b.const_i32(0));
        b.br(c, t, e2);
        b.switch_to(t);
        let a = b.mul(v, b.const_i32(2));
        b.jump(x);
        b.switch_to(e2);
        let d = b.mul(v, b.const_i32(3));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, a), (e2, d)]);
        b.ret(Some(p));

        let live = Liveness::new(&f);
        let v_id = v.as_inst().unwrap();
        assert!(live.live_in(t).contains(v_id));
        assert!(live.live_in(e2).contains(v_id));
        assert!(!live.live_in(x).contains(v_id));
        // φ operands are live-out of their predecessors
        assert!(live.live_out(t).contains(a.as_inst().unwrap()));
        assert!(live.live_out(e2).contains(d.as_inst().unwrap()));
    }

    #[test]
    fn loop_carried_value_stays_live() {
        let mut f = Function::new("lp", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let hdr = f.add_block("hdr");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.jump(hdr);
        b.switch_to(hdr);
        let i = b.phi(Type::I32, &[(entry, darm_ir::Value::I32(0))]);
        let c = b.icmp(IcmpPred::Slt, i, b.param(0));
        b.br(c, body, exit);
        b.switch_to(body);
        let i2 = b.add(i, b.const_i32(1));
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(Some(i));
        let pi = i.as_inst().unwrap();
        f.inst_mut(pi).operands.push(i2);
        f.inst_mut(pi).phi_blocks.push(body);

        let live = Liveness::new(&f);
        // i is live around the loop: live-in of body and exit.
        assert!(live.live_in(body).contains(pi));
        assert!(live.live_in(exit).contains(pi));
    }
}
