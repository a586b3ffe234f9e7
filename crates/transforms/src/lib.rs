#![warn(missing_docs)]

//! # darm-transforms
//!
//! Generic CFG/SSA cleanup transformations over [`darm_ir`] functions — the
//! in-house `simplifycfg` + DCE that DARM's Algorithm 1 interleaves with
//! melding iterations, plus the SSA-repair machinery that generalizes the
//! paper's pre-processing step (Fig. 5).
//!
//! * [`simplify`] — CFG simplification to fixpoint: constant-branch folding,
//!   folding of branches with identical successors, straight-line block
//!   merging, empty-block elision, unreachable-code removal, trivial and
//!   duplicate φ elimination.
//! * [`dce`] — dead code elimination.
//! * [`instcombine`] — peephole simplification (constant selects from
//!   region replication, algebraic identities, constant folding).
//! * [`ssa_repair`] — IDF-based SSA reconstruction for definitions whose
//!   dominance was broken by a CFG transformation.

pub mod dce;
pub mod instcombine;
pub mod simplify;
pub mod ssa_repair;

pub use dce::run_dce;
pub use instcombine::run_instcombine;
pub use simplify::{simplify_cfg, simplify_cfg_with};
pub use ssa_repair::{repair_ssa, repair_ssa_with};

use darm_ir::{Function, InstId, Value};

/// Instruction replacements queued for one [`Function::rauw_many`], and
/// readable before they land: [`Pending::resolve`] answers what a value
/// will read once the batch is applied by one lookup per step in a table
/// indexed by arena slot, where a fold over the batch costs its length.
///
/// Every caller queues an instruction at most once per batch and resolves
/// its replacement first, so a queued replacement is either final or an
/// instruction queued *later* — following the table is the in-order fold
/// `rauw_many` performs.
pub(crate) struct Pending {
    batch: Vec<(Value, Value)>,
    /// Per instruction arena index: 0, or 1 + the position of its pair in
    /// `batch`. Allocated at the first push, at the arena's length.
    slot: Vec<u32>,
    arena: usize,
}

impl Pending {
    /// An empty queue for replacements in `func`.
    pub(crate) fn new(func: &Function) -> Pending {
        Pending {
            batch: Vec::new(),
            slot: Vec::new(),
            arena: func.inst_capacity(),
        }
    }

    /// `v` as it will read once the queued replacements have landed.
    pub(crate) fn resolve(&self, mut v: Value) -> Value {
        while let Value::Inst(id) = v {
            let k = self.slot.get(id.index()).map_or(0, |&k| k as usize);
            match k.checked_sub(1).map(|k| self.batch[k].1) {
                Some(next) if next != v => v = next,
                _ => break,
            }
        }
        v
    }

    /// Queues the replacement of every use of `from` by `to`, which the
    /// caller has [resolved](Pending::resolve).
    pub(crate) fn push(&mut self, from: InstId, to: Value) {
        if from.index() >= self.slot.len() {
            self.slot.resize(self.arena.max(from.index() + 1), 0);
        }
        self.batch.push((Value::Inst(from), to));
        self.slot[from.index()] = self.batch.len() as u32;
    }

    /// The queued replacements, in order.
    pub(crate) fn batch(&self) -> &[(Value, Value)] {
        &self.batch
    }

    /// Starts an empty batch once the queued one has been applied.
    pub(crate) fn clear(&mut self) {
        for &(from, _) in &self.batch {
            if let Value::Inst(id) = from {
                self.slot[id.index()] = 0;
            }
        }
        self.batch.clear();
    }

    /// Applies the queued replacements in one arena pass, starts an empty
    /// batch, and returns the live users they rewrote, once each and in
    /// arena order.
    pub(crate) fn apply(&mut self, func: &mut Function) -> Vec<InstId> {
        let rewritten = func.rauw_many(&self.batch);
        self.clear();
        rewritten
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::Type;

    /// `a` is queued to become `b`, and `b` — queued after it — to become
    /// `%arg0`: `a` reads `%arg0` once both land, as the in-order fold
    /// says, and a cleared batch resolves nothing.
    #[test]
    fn resolve_follows_a_replacement_queued_later() {
        let f = Function::new("f", vec![Type::I32], Type::Void);
        let mut pending = Pending::new(&f);
        let (a, b) = (InstId::new(3), InstId::new(5));
        pending.push(a, Value::Inst(b));
        pending.push(b, Value::Param(0));
        assert_eq!(pending.resolve(Value::Inst(a)), Value::Param(0));
        assert_eq!(pending.resolve(Value::Inst(b)), Value::Param(0));
        assert_eq!(pending.resolve(Value::I32(1)), Value::I32(1));
        pending.clear();
        assert_eq!(pending.resolve(Value::Inst(a)), Value::Inst(a));
    }
}
