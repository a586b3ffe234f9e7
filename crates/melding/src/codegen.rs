//! Melding code generation (Algorithm 2 and the surrounding region
//! rewiring).
//!
//! Given a meldable divergent region and a plan (which subgraph pairs to
//! meld, how, and the body alignment of each block pair; which subgraphs
//! stay unmatched), this module executes the plan and analyses nothing:
//!
//! 0. applies the plan's region replications (§IV-C), in plan order — the
//!    first write to the function since the region was detected,
//! 1. creates one fresh block per matched block pair,
//! 2. clones φs (copied, never melded), aligned instructions (one clone per
//!    `I-I` pair) and unaligned instructions, in the plan's alignment order,
//! 3. resolves operands through the shared operand map, inserting
//!    `select C, vT, vF` only where the two sides disagree,
//! 4. re-links the region into a straight chain: melded subgraphs inline,
//!    unmatched subgraphs guarded by `br C, ...` (their original blocks are
//!    reused),
//! 5. rewrites the region-exit φs to a per-side select in the final block,
//! 6. deletes the now-unreachable original blocks, and
//! 7. applies unpredication (§IV-E) to the alignments' gap runs.
//!
//! What it does not do is Algorithm 2's global use rewrite: every
//! `(original, clone)` pair of the operand map is queued on the
//! [`MeldRound`], and the melding pass applies the whole round's pairs in
//! one [`Function::rauw_many`] after its last region
//! ([`crate::pass`] says why that is sound). Until then the only live uses
//! of an original are in the unmatched subgraphs the region kept, which
//! unpredication reads through [`GapRun::sources`].

use crate::region::{MeldableRegion, Subgraph};
use crate::replicate::replicate;
use crate::unpredicate::{unpredicate_block, GapRun};
use crate::MeldStats;
use darm_align::instr::AlignmentPair;
use darm_align::BlockAlignment;
use darm_ir::{BlockId, Function, InstData, InstId, Opcode, Value};
use std::ops::Index;

/// How the two subgraphs of a [`PlanElement::Meld`] are brought into
/// block-for-block correspondence.
#[derive(Debug, Clone)]
pub enum MeldHow {
    /// The subgraphs are isomorphic; the correspondence in pre-order.
    Pairs(Vec<(BlockId, BlockId)>),
    /// Region replication (Definition 6, case 2): one side is a single
    /// block, placed at `position` of a replica of the other side's
    /// control flow. Applying the plan creates the replica.
    Replicate {
        /// Whether the single block is the true-path side.
        single_is_true: bool,
        /// The block of the multi-block side the single block melds with.
        position: BlockId,
        /// The multi-block side's blocks in pre-order, the order they meld.
        preorder: Vec<BlockId>,
    },
}

/// One element of a region melding plan, in chain order.
#[derive(Debug, Clone)]
pub enum PlanElement {
    /// Meld `st` (true path) with `sf` (false path).
    Meld {
        /// True-path subgraph.
        st: Subgraph,
        /// False-path subgraph.
        sf: Subgraph,
        /// How their blocks correspond.
        how: MeldHow,
        /// The `MP_S` profitability that justified the meld.
        profit: f64,
        /// The body alignment of each block pair, in `how`'s order.
        alignments: Vec<BlockAlignment>,
    },
    /// Keep a true-path subgraph, guarded by the branch condition.
    GapTrue(Subgraph),
    /// Keep a false-path subgraph, guarded by the negated condition.
    GapFalse(Subgraph),
}

/// A map from arena index to `T` whose entries count only under the stamp
/// they were written with, so forgetting them all is a counter bump.
#[derive(Debug)]
struct ArenaMap<T> {
    /// Never 0, the stamp of the filler slots.
    stamp: u32,
    slots: Vec<(u32, T)>,
}

impl<T> Default for ArenaMap<T> {
    fn default() -> ArenaMap<T> {
        ArenaMap {
            stamp: 1,
            slots: Vec::new(),
        }
    }
}

impl<T: Copy> ArenaMap<T> {
    /// Forgets every entry.
    fn clear(&mut self) {
        self.stamp = match self.stamp.checked_add(1) {
            Some(stamp) => stamp,
            None => {
                self.slots.clear();
                1
            }
        };
    }

    fn get(&self, i: usize) -> Option<T> {
        let &(stamp, v) = self.slots.get(i)?;
        (stamp == self.stamp).then_some(v)
    }

    fn insert(&mut self, i: usize, v: T) {
        if i >= self.slots.len() {
            self.slots.resize(i + 1, (0, v));
        }
        self.slots[i] = (self.stamp, v);
    }
}

impl<T> Index<usize> for ArenaMap<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        let (stamp, v) = &self.slots[i];
        assert_eq!(*stamp, self.stamp, "no entry at arena index {i}");
        v
    }
}

/// What the applies of one fixpoint round share: [`meld_region`]'s side
/// tables, keyed by arena index, and the use substitution the round owes
/// the function.
///
/// Each apply starts by forgetting the previous region's entries — a
/// stamp bump per table, not a clear — so a region pays for the entries it
/// writes, and the tables grow with the arena once, not once per region.
#[derive(Debug, Default)]
pub struct MeldRound {
    /// Original instruction → the clone that replaces it.
    operand_map: ArenaMap<Value>,
    /// Original block → the melded block of its pair.
    block_map: ArenaMap<BlockId>,
    /// Melded subgraph entry → the block the chain now enters it from.
    link_pred: ArenaMap<BlockId>,
    /// `(original, clone)` for every instruction the round's applies
    /// cloned, for [`MeldRound::substitute`].
    rewrites: Vec<(Value, Value)>,
}

impl MeldRound {
    /// Points every use of an instruction the round's applies cloned at
    /// its clone, in one arena pass: Algorithm 2's global use rewrite, once
    /// per round rather than once per region.
    pub fn substitute(&mut self, func: &mut Function) {
        func.rauw_many(&self.rewrites);
        self.rewrites.clear();
    }

    /// Forgets the previous region's side tables (its rewrites stay).
    fn begin_region(&mut self) {
        self.operand_map.clear();
        self.block_map.clear();
        self.link_pred.clear();
    }
}

/// Melds one divergent region according to `plan` and returns what it did
/// as a [`MeldStats`] delta. The region's use substitution is queued on
/// `round`: the caller applies it with [`MeldRound::substitute`] once the
/// round's last region is melded, then runs SSA repair, `simplify_cfg`
/// and DCE ([`MeldPass`](crate::MeldPass) does).
pub fn meld_region(
    func: &mut Function,
    region: &MeldableRegion,
    plan: Vec<PlanElement>,
    unpredicate: bool,
    round: &mut MeldRound,
) -> MeldStats {
    let mut stats = MeldStats {
        melded_regions: 1,
        ..MeldStats::default()
    };
    let cond = region.cond;
    round.begin_region();
    let MeldRound {
        operand_map,
        block_map,
        link_pred,
        rewrites,
    } = round;

    // ---- Replication (§IV-C), in plan order: the single-block side
    // becomes a replica of the other side's control flow, whose blocks
    // pair with the other side's in the plan's pre-order ----
    let mut melds = Vec::new();
    for el in &plan {
        let PlanElement::Meld {
            st,
            sf,
            how,
            alignments,
            ..
        } = el
        else {
            continue;
        };
        let (mut st, mut sf) = (st.clone(), sf.clone());
        let pairs = match *how {
            MeldHow::Pairs(ref pairs) => pairs.clone(),
            MeldHow::Replicate {
                single_is_true,
                position,
                ref preorder,
            } => {
                stats.replications += 1;
                let (single, multi) = if single_is_true {
                    (&mut st, &sf)
                } else {
                    (&mut sf, &st)
                };
                let pairs = replicate(func, single, multi, position, preorder);
                let orient = |(r, m)| if single_is_true { (r, m) } else { (m, r) };
                pairs.into_iter().map(orient).collect()
            }
        };
        melds.push((st, sf, pairs, alignments));
    }

    // ---- Phase A: create melded blocks ----
    for (_, _, pairs, _) in &melds {
        for &(bt, bf) in pairs {
            let name = format!("{}_{}", func.block_name(bt), func.block_name(bf));
            let m = func.add_block(&name);
            block_map.insert(bt.index(), m);
            block_map.insert(bf.index(), m);
        }
    }

    // ---- Phase B: clone φs, bodies and terminators ----
    // Every original gets its clone in the operand map and, for the
    // round's substitution, in the rewrite list.
    let mut replace = |orig: InstId, clone: InstId| {
        operand_map.insert(orig.index(), Value::Inst(clone));
        rewrites.push((Value::Inst(orig), Value::Inst(clone)));
    };
    // Every clone whose operands Phase D resolves, with its two sources
    // when it was melded from both sides.
    let mut records: Vec<(InstId, Option<(InstId, InstId)>)> = Vec::new();

    for (st, _, pairs, alignments) in &melds {
        for (&(bt, bf), alignment) in pairs.iter().zip(alignments.iter()) {
            let m = block_map[bt.index()];
            // φs are copied, never melded (§IV-D "Melding φ Nodes").
            for side_block in [bt, bf] {
                for phi in func.phis_of(side_block) {
                    let data = func.inst(phi).clone();
                    let new_id = func.add_inst(m, data);
                    replace(phi, new_id);
                    records.push((new_id, None));
                }
            }
            // The body, in the plan's alignment order.
            for step in &alignment.steps {
                let (src, both) = match *step {
                    AlignmentPair::Match(it, if_) => (it, Some((it, if_))),
                    AlignmentPair::GapA(i) | AlignmentPair::GapB(i) => (i, None),
                };
                let data = func.inst(src).clone();
                let new_id = func.add_inst(m, data);
                replace(src, new_id);
                if let Some((_, if_)) = both {
                    replace(if_, new_id);
                }
                records.push((new_id, both));
            }
            // Terminator: by isomorphism both sides have the same kind.
            let tt = func.terminator(bt).expect("terminator");
            let tf = func.terminator(bf).expect("terminator");
            let dt = func.inst(tt).clone();
            // Successors map through `block_map`; an exit edge keeps the
            // *original* exit target as a placeholder that the linker
            // rewrites to the next chain element.
            let map_succ = |target: BlockId| -> BlockId {
                if target == st.exit_target {
                    st.exit_target
                } else {
                    block_map[target.index()]
                }
            };
            match dt.opcode {
                Opcode::Jump => {
                    let target = map_succ(dt.succs[0]);
                    func.add_inst(m, InstData::terminator(Opcode::Jump, vec![], vec![target]));
                }
                Opcode::Br => {
                    let s0 = map_succ(dt.succs[0]);
                    let s1 = map_succ(dt.succs[1]);
                    let new_id = func.add_inst(
                        m,
                        InstData::terminator(Opcode::Br, vec![dt.operands[0]], vec![s0, s1]),
                    );
                    records.push((new_id, Some((tt, tf))));
                }
                _ => unreachable!("subgraph terminators are jump/br"),
            }
        }
    }

    // ---- Phase C: link the chain ----
    // The branch at the region entry is replaced by a jump into the chain.
    // `cursor` is the block whose forward edge must be pointed at the next
    // chain element; `placeholder` is the successor to rewrite (None while
    // the cursor has no terminator yet).
    let branch = func
        .terminator(region.branch_block)
        .expect("divergent branch");
    func.remove_inst(branch);
    let mut cursor = region.branch_block;
    let mut placeholder: Option<BlockId> = None;
    let mut guard_n = 0usize;

    fn link(func: &mut Function, cursor: BlockId, placeholder: Option<BlockId>, target: BlockId) {
        match placeholder {
            None => {
                func.add_inst(
                    cursor,
                    InstData::terminator(Opcode::Jump, vec![], vec![target]),
                );
            }
            Some(ph) => func.replace_succ(cursor, ph, target),
        }
    }

    let mut melded = melds.iter();
    for el in &plan {
        match el {
            PlanElement::Meld { .. } => {
                let (st, ..) = melded.next().expect("one meld per plan element");
                let entry_new = block_map[st.entry.index()];
                link(func, cursor, placeholder, entry_new);
                link_pred.insert(entry_new.index(), cursor);
                cursor = block_map[st.exit_block.index()];
                placeholder = Some(st.exit_target);
            }
            PlanElement::GapTrue(sg) | PlanElement::GapFalse(sg) => {
                let is_true = matches!(el, PlanElement::GapTrue(_));
                let guard = func.add_block(&format!("guard.{guard_n}"));
                let join = func.add_block(&format!("guard.join.{guard_n}"));
                guard_n += 1;
                link(func, cursor, placeholder, guard);
                let (s0, s1) = if is_true {
                    (sg.entry, join)
                } else {
                    (join, sg.entry)
                };
                func.add_inst(
                    guard,
                    InstData::terminator(Opcode::Br, vec![cond], vec![s0, s1]),
                );
                // The gap subgraph keeps its blocks; re-point its entry φs
                // and exit edge.
                retarget_outside_phi_preds(func, sg, guard);
                func.replace_succ(sg.exit_block, sg.exit_target, join);
                cursor = join;
                placeholder = None;
            }
        }
    }

    // ---- Phase D: SetOperands ----
    // Each clone's operands are resolved through the operand map and
    // written back once.
    for &(new_id, both) in &records {
        let data = func.inst(new_id);
        // A φ's incoming blocks are remapped, the outside pred patched to
        // the linked predecessor.
        let outside = |p: BlockId| link_pred.get(data.block.index()).unwrap_or(p);
        let phi_blocks = data
            .phi_blocks
            .iter()
            .map(|&p| block_map.get(p.index()).unwrap_or_else(|| outside(p)))
            .collect();
        let operands = match both {
            None => data
                .operands
                .iter()
                .map(|&v| resolve(operand_map, v))
                .collect(),
            Some((it, if_)) => (0..data.operands.len())
                .map(|k| {
                    let vt = resolve(operand_map, func.inst(it).operands[k]);
                    let vf = resolve(operand_map, func.inst(if_).operands[k]);
                    if vt == vf {
                        return vt;
                    }
                    let ty = func.value_ty(vt);
                    let select = InstData::new(Opcode::Select, ty, vec![cond, vt, vf]);
                    stats.selects_inserted += 1;
                    Value::Inst(func.insert_inst_before(new_id, select))
                })
                .collect(),
        };
        let inst = func.inst_mut(new_id);
        inst.phi_blocks = phi_blocks;
        inst.operands = operands;
    }

    // ---- Phase E: region-exit φs ----
    // The original region preds of X are the exit blocks of the last
    // subgraph on each path.
    let t_exit = region.true_chain.last().expect("nonempty chain").exit_block;
    let f_exit = region
        .false_chain
        .last()
        .expect("nonempty chain")
        .exit_block;
    for phi in func.phis_of(region.exit) {
        let vt = func.inst(phi).phi_value_for(t_exit);
        let vf = func.inst(phi).phi_value_for(f_exit);
        let (Some(vt), Some(vf)) = (vt, vf) else {
            continue;
        };
        let vt = resolve(operand_map, vt);
        let vf = resolve(operand_map, vf);
        let merged = if vt == vf {
            vt
        } else {
            let ty = func.inst(phi).ty;
            let data = InstData::new(Opcode::Select, ty, vec![cond, vt, vf]);
            let sel = match func.terminator(cursor) {
                Some(t) => func.insert_inst_before(t, data),
                None => func.add_inst(cursor, data),
            };
            stats.selects_inserted += 1;
            Value::Inst(sel)
        };
        func.phi_replace_incoming(phi, &[t_exit, f_exit], &[cursor], merged);
    }
    link(func, cursor, placeholder, region.exit);

    // ---- Phase F: delete the melded originals ----
    // Their uses in the blocks the region kept wait for the round's
    // substitution.
    for (st, sf, ..) in &melds {
        stats.melded_subgraphs += 1;
        for &b in st.blocks.iter().chain(&sf.blocks) {
            func.remove_block(b);
        }
    }

    // ---- Phase G: unpredication ----
    // Over the true-side blocks in arena order. With unpredication off (the
    // default), a run that is safe to run for the other side's lanes stays
    // predicated.
    for (_, _, pairs, alignments) in &melds {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_unstable_by_key(|&k| pairs[k].0);
        for k in order {
            let mut runs = gap_runs(&alignments[k].steps, operand_map);
            if !unpredicate {
                runs.retain(|run| !run.is_speculable(func));
            }
            let m = block_map[pairs[k].0.index()];
            stats.unpredicated_groups += unpredicate_block(func, m, cond, &runs);
        }
    }

    stats
}

fn resolve(map: &ArenaMap<Value>, v: Value) -> Value {
    match v {
        Value::Inst(id) => map.get(id.index()).unwrap_or(v),
        _ => v,
    }
}

/// Re-points φ incoming blocks that lie outside the subgraph to `new_pred`.
fn retarget_outside_phi_preds(func: &mut Function, sg: &Subgraph, new_pred: BlockId) {
    for phi in func.phis_of(sg.entry) {
        let n = func.inst(phi).phi_blocks.len();
        for k in 0..n {
            let p = func.inst(phi).phi_blocks[k];
            if !sg.contains(p) {
                func.inst_mut(phi).phi_blocks[k] = new_pred;
            }
        }
    }
}

/// Groups an alignment's consecutive same-side gaps into runs of the
/// clones `clones` maps them to.
fn gap_runs(steps: &[AlignmentPair], clones: &ArenaMap<Value>) -> Vec<GapRun> {
    let gap = |step: &AlignmentPair| match *step {
        AlignmentPair::Match(..) => None,
        AlignmentPair::GapA(i) => Some((i, true)),
        AlignmentPair::GapB(i) => Some((i, false)),
    };
    let side = |step: &AlignmentPair| gap(step).map(|(_, true_side)| true_side);
    let clone = |src: &InstId| clones[src.index()].as_inst().expect("cloned in Phase B");
    let runs = steps.chunk_by(|a, b| side(a) == side(b)).filter_map(|run| {
        let true_side = side(&run[0])?;
        let sources: Vec<InstId> = run.iter().filter_map(|step| Some(gap(step)?.0)).collect();
        let insts = sources.iter().map(clone).collect();
        Some(GapRun {
            insts,
            sources,
            true_side,
        })
    });
    runs.collect()
}
