//! Functions, basic blocks and instructions.

use crate::dirty::{JournalCursor, MutationJournal, WindowProbe};
use crate::opcode::Opcode;
use crate::types::Type;
use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt::{self, Write as _};

#[cfg(test)]
thread_local! {
    /// Block-name probes [`Function::add_block`] made on this thread.
    static NAME_PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Handle to a basic block inside a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Creates a handle from a raw arena index.
    pub const fn new(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an instruction inside a [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl InstId {
    /// Creates a handle from a raw arena index.
    pub const fn new(index: usize) -> InstId {
        InstId(index as u32)
    }

    /// The raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A statically-sized shared-memory (LDS) array declared by a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedArray {
    /// Human-readable name.
    pub name: String,
    /// Element type.
    pub elem: Type,
    /// Number of elements.
    pub len: u64,
}

impl SharedArray {
    /// Total byte size of the array.
    pub fn size_bytes(&self) -> u64 {
        self.elem.size_bytes() * self.len
    }
}

/// One instruction.
///
/// This is passive data: passes construct and inspect it directly. Invariants
/// (operand counts, φ incoming lists matching predecessors, terminator
/// placement) are enforced by [`Function::verify_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstData {
    /// What the instruction does.
    pub opcode: Opcode,
    /// Result type ([`Type::Void`] for stores, barriers and terminators).
    pub ty: Type,
    /// Value operands. For φ-nodes, operand `k` flows in from
    /// `phi_blocks[k]`.
    pub operands: Vec<Value>,
    /// Incoming blocks of a φ-node (empty otherwise).
    pub phi_blocks: Vec<BlockId>,
    /// Successor blocks of a terminator (empty otherwise).
    pub succs: Vec<BlockId>,
    /// The block currently containing this instruction.
    pub block: BlockId,
}

impl InstData {
    /// Creates a plain (non-φ, non-terminator) instruction.
    pub fn new(opcode: Opcode, ty: Type, operands: Vec<Value>) -> InstData {
        InstData {
            opcode,
            ty,
            operands,
            phi_blocks: Vec::new(),
            succs: Vec::new(),
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Creates a terminator with the given successors.
    pub fn terminator(opcode: Opcode, operands: Vec<Value>, succs: Vec<BlockId>) -> InstData {
        InstData {
            opcode,
            ty: Type::Void,
            operands,
            phi_blocks: Vec::new(),
            succs,
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Creates a φ-node from `(pred, value)` pairs.
    pub fn phi(ty: Type, incoming: &[(BlockId, Value)]) -> InstData {
        InstData {
            opcode: Opcode::Phi,
            ty,
            operands: incoming.iter().map(|&(_, v)| v).collect(),
            phi_blocks: incoming.iter().map(|&(b, _)| b).collect(),
            succs: Vec::new(),
            block: BlockId::new(u32::MAX as usize),
        }
    }

    /// Iterates over a φ-node's `(pred, value)` pairs.
    pub fn phi_incoming(&self) -> impl Iterator<Item = (BlockId, Value)> + '_ {
        self.phi_blocks
            .iter()
            .copied()
            .zip(self.operands.iter().copied())
    }

    /// The incoming value from `pred`, if this φ has one.
    pub fn phi_value_for(&self, pred: BlockId) -> Option<Value> {
        self.phi_incoming()
            .find(|&(b, _)| b == pred)
            .map(|(_, v)| v)
    }

    /// Drops a φ-node's incoming entries from the blocks of `preds`.
    fn phi_drop_incoming(&mut self, preds: &[BlockId]) {
        let mut k = 0;
        while k < self.phi_blocks.len() {
            if preds.contains(&self.phi_blocks[k]) {
                self.phi_blocks.remove(k);
                self.operands.remove(k);
            } else {
                k += 1;
            }
        }
    }
}

/// The type of `v` among the given parameters and instruction arena —
/// [`Function::value_ty`] for a function still being assembled.
pub(crate) fn value_ty_in(params: &[Type], insts: &[InstData], v: Value) -> Type {
    match v {
        Value::Inst(id) => insts[id.index()].ty,
        Value::Param(i) => params[i as usize],
        Value::I1(_) => Type::I1,
        Value::I32(_) => Type::I32,
        Value::I64(_) => Type::I64,
        Value::F32Bits(_) => Type::F32,
        Value::Undef(ty) => ty,
    }
}

/// Structural IR violations reported by [`Function::verify_structure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A block has no terminator, or it is not the final instruction.
    BadTerminator(String),
    /// A φ-node appears after a non-φ instruction.
    PhiNotAtTop(String),
    /// A φ-node's incoming blocks disagree with the block's predecessors.
    PhiPredMismatch(String),
    /// Wrong operand count or operand/result type for an opcode.
    BadOperands(String),
    /// A reference to a removed block or instruction.
    DanglingRef(String),
    /// An SSA dominance violation (reported by `darm-analysis`).
    SsaViolation(String),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BadTerminator(m) => write!(f, "bad terminator: {m}"),
            IrError::PhiNotAtTop(m) => write!(f, "phi not at block top: {m}"),
            IrError::PhiPredMismatch(m) => write!(f, "phi predecessor mismatch: {m}"),
            IrError::BadOperands(m) => write!(f, "bad operands: {m}"),
            IrError::DanglingRef(m) => write!(f, "dangling reference: {m}"),
            IrError::SsaViolation(m) => write!(f, "ssa violation: {m}"),
        }
    }
}

impl Error for IrError {}

#[derive(Debug, Clone)]
struct BlockData2 {
    name: String,
    insts: Vec<InstId>,
    alive: bool,
}

/// Public view of a basic block: its name and instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockData {
    /// Human-readable block label.
    pub name: String,
    /// Instructions in order; the terminator is last.
    pub insts: Vec<InstId>,
}

/// An SSA function (a GPU kernel, in this crate's intended use).
///
/// Owns arenas of blocks and instructions. Removing a block or instruction
/// tombstones it: handles stay stable, and `block_ids()` / per-block
/// instruction lists skip dead entries.
///
/// Every mutation API records what it touched in a [`MutationJournal`], so
/// consumers can classify the window since a [`JournalCursor`] they
/// remember ([`Function::probe_since`]: the analysis cache, the cleanup
/// passes' "nothing happened" answer) or visit the instructions touched in
/// it ([`Function::insts_touched_since`]: `instcombine`'s worklist) — see
/// [`Function::journal_head`].
#[derive(Debug)]
pub struct Function {
    name: String,
    params: Vec<Type>,
    ret: Type,
    blocks: Vec<BlockData2>,
    insts: Vec<InstData>,
    dead_insts: Vec<bool>,
    entry: BlockId,
    shared: Vec<SharedArray>,
    journal: MutationJournal,
    /// Count of non-tombstoned blocks, maintained by
    /// `add_block`/`remove_block` so [`Function::live_block_count`] is
    /// O(1).
    live_blocks: usize,
    /// Names of the live blocks, so [`Function::add_block`] asks "is this
    /// name taken" in O(1) instead of scanning every block per attempted
    /// suffix. Built from the block arena the first time a requested name
    /// turns out taken — a function whose block names never collide is
    /// asked one scan per added block and never pays for the set — and
    /// kept exact by `add_block` / `remove_block` / `set_block_name` after
    /// that.
    live_names: Option<HashSet<String>>,
}

/// Cloning starts a fresh, empty journal under a new identity: cursors
/// taken on the original probe as saturated against the clone instead of
/// silently aliasing into an unrelated edit history.
impl Clone for Function {
    fn clone(&self) -> Function {
        Function {
            name: self.name.clone(),
            params: self.params.clone(),
            ret: self.ret,
            blocks: self.blocks.clone(),
            insts: self.insts.clone(),
            dead_insts: self.dead_insts.clone(),
            entry: self.entry,
            shared: self.shared.clone(),
            journal: MutationJournal::new(),
            live_blocks: self.live_blocks,
            live_names: None,
        }
    }
}

/// A cheap pre-pipeline copy of a [`Function`], taken with
/// [`Function::snapshot`] and applied back with [`Function::restore`].
///
/// Taking one goes through [`Function::clone`], so the snapshot — and the
/// function it is moved back into — carries a *fresh, empty journal
/// identity*: cursors taken during an abandoned, half-applied pipeline
/// probe as saturated against the restored function instead of silently
/// aliasing into an edit history that no longer describes it. That property is what
/// lets a containment boundary (`darm-pipeline`) roll a function back to
/// baseline IR after a panic or budget cancellation without auditing any
/// surviving cursor.
#[derive(Debug, Clone)]
pub struct FunctionSnapshot {
    inner: Function,
}

impl FunctionSnapshot {
    /// The captured function state (e.g. for bit-identity checks).
    pub fn function(&self) -> &Function {
        &self.inner
    }
}

impl Function {
    /// Creates a function with the given parameter and return types, plus an
    /// empty `entry` block.
    pub fn new(name: &str, params: Vec<Type>, ret: Type) -> Function {
        let mut f = Function {
            name: name.to_string(),
            params,
            ret,
            blocks: Vec::new(),
            insts: Vec::new(),
            dead_insts: Vec::new(),
            entry: BlockId::new(0),
            shared: Vec::new(),
            journal: MutationJournal::new(),
            live_blocks: 0,
            live_names: None,
        };
        let entry = f.add_block("entry");
        f.entry = entry;
        f
    }

    /// Assembles a function from whole arenas — the parser's constructor.
    /// The reader builds blocks and instructions in its own vectors and
    /// hands them over, so nothing is copied, block names are not
    /// re-uniquified and the journal starts empty, as on a clone.
    /// `blocks[0]` is the entry.
    ///
    /// The caller guarantees at least one block, unique block names, and
    /// that every instruction sits in the list of the block its `block`
    /// field names.
    pub(crate) fn from_parts(
        name: &str,
        params: Vec<Type>,
        ret: Type,
        shared: Vec<SharedArray>,
        blocks: Vec<BlockData>,
        insts: Vec<InstData>,
    ) -> Function {
        debug_assert!(!blocks.is_empty());
        Function {
            name: name.to_string(),
            params,
            ret,
            live_blocks: blocks.len(),
            blocks: blocks
                .into_iter()
                .map(|BlockData { name, insts }| BlockData2 {
                    name,
                    insts,
                    alive: true,
                })
                .collect(),
            dead_insts: vec![false; insts.len()],
            insts,
            entry: BlockId::new(0),
            shared,
            journal: MutationJournal::new(),
            live_names: None,
        }
    }

    // ---- mutation journal ----

    /// The cursor marking "now" in the mutation journal; the window after
    /// it holds everything mutated afterwards.
    pub fn journal_head(&self) -> JournalCursor {
        self.journal.head()
    }

    /// Visits, without allocating, every instruction touched after
    /// `cursor`, in journal order and with repeats: added, removed (the
    /// ids of tombstones included), moved and rewritten instructions, the
    /// users a substitution reached, and the operand definitions of
    /// removed/rewritten instructions. Returns `false`, having visited
    /// nothing, when the cursor saturated — another function instance
    /// (including a clone source), a
    /// [truncation](Function::truncate_journal) or an untracked mutation
    /// since; the caller must assume anything changed.
    pub fn insts_touched_since(&self, cursor: JournalCursor, f: impl FnMut(InstId)) -> bool {
        self.journal.visit_insts_since(cursor, f)
    }

    /// O(1) classification of the journal window after `cursor`: clean,
    /// instruction-only, shape-changing, or saturated.
    pub fn probe_since(&self, cursor: JournalCursor) -> WindowProbe {
        self.journal.probe(cursor)
    }

    /// Drops the buffered journal entries. Cursors taken earlier saturate
    /// afterwards, which is always safe for consumers (they fall back to
    /// whole-function work).
    pub fn truncate_journal(&mut self) {
        self.journal.truncate();
    }

    /// Number of touched-instruction entries currently buffered in the
    /// journal (block-graph edits are counted, not buffered).
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Records that an untracked mutation happened: every open cursor
    /// window probes as saturated from here on. Escape hatch for callers
    /// mutating IR outside the journaled APIs.
    pub fn saturate_journal(&mut self) {
        self.journal.saturate();
    }

    /// Captures a pre-pipeline copy of the function for later
    /// [`Function::restore`]. See [`FunctionSnapshot`] for the journal
    /// identity guarantees.
    pub fn snapshot(&self) -> FunctionSnapshot {
        FunctionSnapshot {
            inner: self.clone(),
        }
    }

    /// Replaces this function's entire state with `snapshot`'s, under the
    /// journal identity the snapshot was born with — fresh, empty and shared
    /// with nothing, so cursors taken on the abandoned state saturate
    /// instead of aliasing. Consumes the snapshot (nothing is copied a
    /// second time); clone it first to restore more than once.
    pub fn restore(&mut self, snapshot: FunctionSnapshot) {
        *self = snapshot.inner;
    }

    /// Journal size guard: past this many buffered entries the journal
    /// self-truncates (old cursors degrade to saturation instead of the
    /// buffer growing without bound).
    const JOURNAL_CAP: usize = 1 << 20;

    /// Journals `id` as touched.
    #[inline]
    fn touch(&mut self, id: InstId) {
        if self.journal.len() >= Self::JOURNAL_CAP {
            self.journal.truncate();
        }
        self.journal.touch(id);
    }

    /// Journals a block-graph edit when `id` carries successor edges (they
    /// appear, vanish or may have changed with it); nothing for a
    /// non-terminator.
    #[inline]
    fn edges_edited_with(&mut self, id: InstId) {
        if !self.insts[id.index()].succs.is_empty() {
            self.journal.shape_edit();
        }
    }

    /// Records the use-count change of every definition the instruction's
    /// operands reference (they lose or gain a user).
    fn touch_operand_defs_of(&mut self, id: InstId) {
        for k in 0..self.insts[id.index()].operands.len() {
            if let Value::Inst(def) = self.insts[id.index()].operands[k] {
                self.touch(def);
            }
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the function (names are unique within a
    /// [`Module`](crate::Module); batch harnesses rename clones before
    /// collecting them into one). Not a journaled mutation — the name is
    /// not IR.
    pub fn set_name(&mut self, name: &str) {
        self.name = name.to_string();
    }

    /// Parameter types.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Return type.
    pub fn ret_ty(&self) -> Type {
        self.ret
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Declares a shared-memory array and returns its index (used with
    /// [`Opcode::SharedBase`]).
    pub fn add_shared_array(&mut self, name: &str, elem: Type, len: u64) -> u32 {
        self.shared.push(SharedArray {
            name: name.to_string(),
            elem,
            len,
        });
        (self.shared.len() - 1) as u32
    }

    /// The declared shared-memory arrays.
    pub fn shared_arrays(&self) -> &[SharedArray] {
        &self.shared
    }

    // ---- blocks ----

    /// Appends a new empty block. Names are uniquified (a `.N` suffix is
    /// added on collision) so the textual form stays parseable.
    pub fn add_block(&mut self, name: &str) -> BlockId {
        #[cfg(test)]
        NAME_PROBES.with(|n| n.set(n.get() + 1));
        let blocks = &self.blocks;
        let taken = match &self.live_names {
            Some(names) => names.contains(name),
            None => blocks.iter().any(|b| b.alive && b.name == name),
        };
        let mut unique = name.to_string();
        if taken {
            // The smallest free suffix, one set probe per attempt.
            let names = self.live_names.get_or_insert_with(|| {
                let live = blocks.iter().filter(|b| b.alive);
                live.map(|b| b.name.clone()).collect()
            });
            for k in 1.. {
                #[cfg(test)]
                NAME_PROBES.with(|n| n.set(n.get() + 1));
                unique.truncate(name.len());
                write!(unique, ".{k}").expect("writing to a String cannot fail");
                if !names.contains(&unique) {
                    break;
                }
            }
        }
        if let Some(names) = &mut self.live_names {
            names.insert(unique.clone());
        }
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData2 {
            name: unique,
            insts: Vec::new(),
            alive: true,
        });
        self.live_blocks += 1;
        self.journal.shape_edit();
        id
    }

    /// Tombstones a block and all instructions it contains.
    ///
    /// Callers are responsible for first removing every edge into the block
    /// (terminator successors and φ incoming entries elsewhere).
    pub fn remove_block(&mut self, b: BlockId) {
        // The block and its terminator's edges vanish (one block-graph
        // edit), and every definition its instructions referenced loses a
        // user.
        let insts = std::mem::take(&mut self.blocks[b.index()].insts);
        for id in insts {
            self.touch(id);
            self.touch_operand_defs_of(id);
            self.dead_insts[id.index()] = true;
        }
        if self.blocks[b.index()].alive {
            self.live_blocks -= 1;
            if let Some(names) = &mut self.live_names {
                names.remove(&self.blocks[b.index()].name);
            }
        }
        self.blocks[b.index()].alive = false;
        self.journal.shape_edit();
    }

    /// Whether the block is still part of the function.
    pub fn is_block_alive(&self, b: BlockId) -> bool {
        b.index() < self.blocks.len() && self.blocks[b.index()].alive
    }

    /// All live block ids in creation order (entry first).
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(BlockId::new)
            .filter(|&b| self.blocks[b.index()].alive)
            .collect()
    }

    /// Upper bound (exclusive) on block arena indices, for dense side tables.
    pub fn block_capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Number of live (non-tombstoned) blocks — unlike
    /// [`Function::block_capacity`] this does not grow with tombstones, so
    /// it is the right scale for "is this edit batch small relative to the
    /// function" decisions.
    pub fn live_block_count(&self) -> usize {
        self.live_blocks
    }

    /// Upper bound (exclusive) on instruction arena indices.
    pub fn inst_capacity(&self) -> usize {
        self.insts.len()
    }

    /// The block's label.
    pub fn block_name(&self, b: BlockId) -> &str {
        &self.blocks[b.index()].name
    }

    /// Renames a block. The caller picks a name no other live block has.
    pub fn set_block_name(&mut self, b: BlockId, name: &str) {
        let block = &mut self.blocks[b.index()];
        if let Some(names) = self.live_names.as_mut().filter(|_| block.alive) {
            names.remove(&block.name);
            names.insert(name.to_string());
        }
        block.name = name.to_string();
    }

    /// Instruction ids of a block, in order (terminator last).
    pub fn insts_of(&self, b: BlockId) -> &[InstId] {
        &self.blocks[b.index()].insts
    }

    /// The φ-nodes at the top of a block.
    pub fn phis_of(&self, b: BlockId) -> Vec<InstId> {
        self.insts_of(b)
            .iter()
            .copied()
            .take_while(|&i| self.inst(i).opcode.is_phi())
            .collect()
    }

    /// The block's terminator, if it has one.
    pub fn terminator(&self, b: BlockId) -> Option<InstId> {
        let last = *self.blocks[b.index()].insts.last()?;
        self.inst(last).opcode.is_terminator().then_some(last)
    }

    /// Successor blocks, borrowed (empty if the block has no terminator
    /// yet). A caller that edits the function while walking them copies
    /// the slice first.
    pub fn succ_slice(&self, b: BlockId) -> &[BlockId] {
        match self.terminator(b) {
            Some(t) => &self.inst(t).succs,
            None => &[],
        }
    }

    /// Predecessor lists for every block, indexed by block arena index.
    ///
    /// A block appears once per incoming *edge*, so a conditional branch with
    /// both targets equal contributes two entries.
    pub fn compute_preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for &s in self.succ_slice(b) {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    // ---- instructions ----

    /// The instruction behind a handle.
    ///
    /// # Panics
    ///
    /// Panics if the instruction was removed.
    pub fn inst(&self, id: InstId) -> &InstData {
        assert!(
            !self.dead_insts[id.index()],
            "use of removed instruction %{}",
            id.index()
        );
        &self.insts[id.index()]
    }

    /// Mutable access to an instruction.
    ///
    /// Journal contract: the instruction and its pre-mutation operand
    /// definitions are recorded as touched. For a terminator the block
    /// graph is conservatively recorded as edited; callers should still
    /// retarget successors with [`Function::replace_succ`] or by
    /// removing/re-adding the terminator.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        assert!(
            !self.dead_insts[id.index()],
            "use of removed instruction %{}",
            id.index()
        );
        self.touch(id);
        self.touch_operand_defs_of(id);
        self.edges_edited_with(id);
        &mut self.insts[id.index()]
    }

    /// Whether the instruction is still part of the function.
    pub fn is_inst_alive(&self, id: InstId) -> bool {
        id.index() < self.insts.len() && !self.dead_insts[id.index()]
    }

    /// Appends an instruction to a block.
    pub fn add_inst(&mut self, block: BlockId, mut data: InstData) -> InstId {
        data.block = block;
        let id = InstId::new(self.insts.len());
        self.insts.push(data);
        self.dead_insts.push(false);
        self.blocks[block.index()].insts.push(id);
        self.touch(id);
        self.edges_edited_with(id);
        id
    }

    /// Inserts an instruction at a position within a block's instruction list.
    pub fn insert_inst_at(&mut self, block: BlockId, pos: usize, mut data: InstData) -> InstId {
        data.block = block;
        let id = InstId::new(self.insts.len());
        self.insts.push(data);
        self.dead_insts.push(false);
        self.blocks[block.index()].insts.insert(pos, id);
        self.touch(id);
        self.edges_edited_with(id);
        id
    }

    /// Inserts an instruction immediately before an existing one.
    pub fn insert_inst_before(&mut self, before: InstId, data: InstData) -> InstId {
        let block = self.inst(before).block;
        let pos = self.blocks[block.index()]
            .insts
            .iter()
            .position(|&i| i == before)
            .expect("instruction not in its own block");
        self.insert_inst_at(block, pos, data)
    }

    /// Detaches and tombstones an instruction. Uses are not rewritten.
    pub fn remove_inst(&mut self, id: InstId) {
        let block = self.insts[id.index()].block;
        self.touch(id);
        self.touch_operand_defs_of(id);
        if self.is_block_alive(block) {
            self.edges_edited_with(id);
            self.blocks[block.index()].insts.retain(|&i| i != id);
        }
        self.dead_insts[id.index()] = true;
    }

    /// The type of any value in the context of this function.
    pub fn value_ty(&self, v: Value) -> Type {
        match v {
            Value::Inst(id) => self.inst(id).ty,
            v => value_ty_in(&self.params, &self.insts, v),
        }
    }

    // ---- use rewriting ----

    /// Replaces every operand use of `from` with `to` across the function:
    /// [`Function::rauw_many`] with a batch of one.
    pub fn rauw(&mut self, from: Value, to: Value) {
        self.rauw_many(&[(from, to)]);
    }

    /// Applies a batch of use replacements in one pass over the
    /// instruction arena (tombstones skipped). The result is exactly that
    /// of calling [`Function::rauw`] once per pair, in order — a later
    /// pair sees the uses an earlier one produced, so `(a, b), (b, c)`
    /// sends `a`'s users to `c` — at the cost of one scan instead of one
    /// per pair.
    ///
    /// Journal contract: every rewritten user is recorded as touched
    /// (once per user, in arena order), followed by the definition of
    /// every `from` instruction that lost a use (its use count dropped).
    /// Nothing is recorded for a pair no operand matched. No block-graph
    /// edit is ever recorded: use rewriting leaves the CFG alone.
    pub fn rauw_many(&mut self, pairs: &[(Value, Value)]) {
        // Fold the ordered batch into one substitution: walking it
        // backwards, `from` maps to wherever the *later* pairs send `to`.
        let mut subst: HashMap<Value, (Value, bool)> = HashMap::with_capacity(pairs.len());
        for &(from, to) in pairs.iter().rev() {
            let end = subst.get(&to).map_or(to, |&(end, _)| end);
            subst.insert(from, (end, false));
        }
        subst.retain(|from, (end, _)| from != end);
        if subst.is_empty() {
            return;
        }
        // Exact pre-filter, so the scan hashes only operands that will
        // match: a flag per instruction `from` (parameters and constants
        // are rare as `from` and take the lookup unfiltered).
        let mut inst_froms = vec![false; self.insts.len()];
        let mut other_froms = false;
        for from in subst.keys() {
            match *from {
                Value::Inst(def) => inst_froms[def.index()] = true,
                _ => other_froms = true,
            }
        }
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            let mut hit = false;
            for op in &mut self.insts[idx].operands {
                let candidate = match *op {
                    Value::Inst(def) => inst_froms[def.index()],
                    _ => other_froms,
                };
                if !candidate {
                    continue;
                }
                if let Some((end, reached)) = subst.get_mut(op) {
                    *op = *end;
                    *reached = true;
                    hit = true;
                }
            }
            if hit {
                self.touch(InstId::new(idx));
            }
        }
        // Batch order, so the journal does not depend on hash order.
        for &(from, _) in pairs {
            if let (Value::Inst(def), Some((_, reached))) = (from, subst.get_mut(&from)) {
                if std::mem::take(reached) {
                    self.touch(def);
                }
            }
        }
    }

    /// Calls `f` with every live instruction that uses `v` as an operand.
    pub fn users_of(&self, v: Value) -> Vec<InstId> {
        let mut users = Vec::new();
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            if self.insts[idx].operands.contains(&v) {
                users.push(InstId::new(idx));
            }
        }
        users
    }

    /// Redirects every occurrence of successor `from` to `to` in `b`'s
    /// terminator. φ-nodes in `from`/`to` are *not* updated.
    pub fn replace_succ(&mut self, b: BlockId, from: BlockId, to: BlockId) {
        if let Some(t) = self.terminator(b) {
            let mut hits = false;
            for s in &mut self.insts[t.index()].succs {
                if *s == from {
                    *s = to;
                    hits = true;
                }
            }
            if hits {
                self.touch(t);
                self.journal.shape_edit();
            }
        }
    }

    /// Renames incoming block `old` to `new` in every φ-node of `block`.
    pub fn phi_retarget_pred(&mut self, block: BlockId, old: BlockId, new: BlockId) {
        for phi in self.phis_of(block) {
            for b in &mut self.inst_mut(phi).phi_blocks {
                if *b == old {
                    *b = new;
                }
            }
        }
    }

    /// Deletes the incoming entry for `pred` from every φ-node of `block`.
    pub fn phi_remove_incoming(&mut self, block: BlockId, pred: BlockId) {
        for phi in self.phis_of(block) {
            self.inst_mut(phi).phi_drop_incoming(&[pred]);
        }
    }

    /// The φ side of rerouting edges: drops `phi`'s incoming entries from
    /// the blocks of `old`, then appends one entry carrying `value` for
    /// each block of `new` the φ does not list already (a listed block
    /// keeps the value it has).
    ///
    /// Journal contract: the φ, its pre-mutation operand definitions and
    /// `value`'s definition are recorded as touched (use counts moved);
    /// never a block-graph edit — the caller redirects the edges.
    pub fn phi_replace_incoming(
        &mut self,
        phi: InstId,
        old: &[BlockId],
        new: &[BlockId],
        value: Value,
    ) {
        let inst = self.inst_mut(phi);
        inst.phi_drop_incoming(old);
        for &p in new {
            if !inst.phi_blocks.contains(&p) {
                inst.phi_blocks.push(p);
                inst.operands.push(value);
            }
        }
        if let Value::Inst(def) = value {
            self.touch(def);
        }
    }

    /// Splits `block` before instruction-list position `at`; instructions
    /// `[at..]` (including the terminator) move to a new block, which is
    /// returned. φ-nodes in the moved terminator's successors are retargeted
    /// to the new block. The original block is left *without* a terminator;
    /// the caller must add one.
    pub fn split_block_at(&mut self, block: BlockId, at: usize, new_name: &str) -> BlockId {
        let new_block = self.add_block(new_name);
        let moved: Vec<InstId> = self.blocks[block.index()].insts.split_off(at);
        for &id in &moved {
            self.insts[id.index()].block = new_block;
            self.touch(id);
        }
        self.blocks[new_block.index()].insts = moved;
        // The moved terminator's out-edges change source block (the block
        // graph was already journaled as edited by `add_block`).
        for succ in self.succ_slice(new_block).to_vec() {
            self.phi_retarget_pred(succ, block, new_block);
        }
        new_block
    }

    /// Moves every instruction of `from` onto the end of `to` and
    /// tombstones `from` — the inverse of [`Function::split_block_at`].
    /// Instructions keep their [`InstId`]s (so every use of a moved value
    /// stays valid and nothing is copied); φ-nodes in the moved
    /// terminator's successors are retargeted from `from` to `to`.
    ///
    /// The caller must first have removed `to`'s terminator, every other
    /// edge into `from`, and `from`'s φ-nodes (with a single predecessor
    /// they fold to their one incoming value).
    ///
    /// Journal contract, mirroring `split_block_at`: each moved
    /// instruction is touched (its parent changed), the φs retargeted in
    /// the moved terminator's successors are touched, and the block graph
    /// is recorded as edited — cost and window both proportional to the
    /// absorbed block, independent of function size.
    ///
    /// # Panics
    ///
    /// Panics if `to` still has a terminator or `from` starts with a φ.
    pub fn merge_block_into(&mut self, from: BlockId, to: BlockId) {
        assert!(
            self.terminator(to).is_none(),
            "merge target {} still has a terminator",
            self.block_name(to)
        );
        let moved = std::mem::take(&mut self.blocks[from.index()].insts);
        assert!(
            moved
                .first()
                .is_none_or(|&id| !self.insts[id.index()].opcode.is_phi()),
            "merged block {} still has phis",
            self.block_name(from)
        );
        for &id in &moved {
            self.insts[id.index()].block = to;
            self.touch(id);
        }
        self.blocks[to.index()].insts.extend(moved);
        // The moved terminator's out-edges change source block.
        for succ in self.succ_slice(to).to_vec() {
            self.phi_retarget_pred(succ, from, to);
        }
        // Emptied above: this journals nothing but the block-graph edit.
        self.remove_block(from);
    }

    // ---- verification ----

    /// Checks structural invariants: one terminator per block (at the end),
    /// φ-nodes contiguous at block tops with incoming lists matching the
    /// block's predecessors, no references to tombstoned blocks or
    /// instructions, and per-opcode operand/type sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`IrError`] found.
    pub fn verify_structure(&self) -> Result<(), IrError> {
        let preds = self.compute_preds();
        for b in self.block_ids() {
            let name = self.block_name(b).to_string();
            let insts = self.insts_of(b);
            let Some(&last) = insts.last() else {
                return Err(IrError::BadTerminator(format!("block {name} is empty")));
            };
            if !self.inst(last).opcode.is_terminator() {
                return Err(IrError::BadTerminator(format!(
                    "block {name} does not end in a terminator"
                )));
            }
            let mut seen_non_phi = false;
            for (k, &id) in insts.iter().enumerate() {
                if !self.is_inst_alive(id) {
                    return Err(IrError::DanglingRef(format!(
                        "dead instruction in block {name}"
                    )));
                }
                let inst = self.inst(id);
                if inst.block != b {
                    return Err(IrError::DanglingRef(format!(
                        "instruction %{} claims block {} but lives in {name}",
                        id.index(),
                        self.block_name(inst.block)
                    )));
                }
                if inst.opcode.is_terminator() && k + 1 != insts.len() {
                    return Err(IrError::BadTerminator(format!(
                        "terminator mid-block in {name}"
                    )));
                }
                if inst.opcode.is_phi() {
                    if seen_non_phi {
                        return Err(IrError::PhiNotAtTop(format!(
                            "%{} in block {name}",
                            id.index()
                        )));
                    }
                } else {
                    seen_non_phi = true;
                }
                self.verify_inst(id, &name)?;
                if inst.opcode.is_phi() {
                    let mut incoming: Vec<usize> =
                        inst.phi_blocks.iter().map(|p| p.index()).collect();
                    incoming.sort_unstable();
                    let mut actual: Vec<usize> =
                        preds[b.index()].iter().map(|p| p.index()).collect();
                    actual.sort_unstable();
                    actual.dedup();
                    let mut inc_dedup = incoming.clone();
                    inc_dedup.dedup();
                    if inc_dedup != incoming {
                        return Err(IrError::PhiPredMismatch(format!(
                            "%{} in {name} has duplicate incoming blocks",
                            id.index()
                        )));
                    }
                    if incoming != actual {
                        return Err(IrError::PhiPredMismatch(format!(
                            "%{} in {name}: incoming {:?} vs preds {:?}",
                            id.index(),
                            incoming,
                            actual
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn verify_inst(&self, id: InstId, block_name: &str) -> Result<(), IrError> {
        let inst = self.inst(id);
        let err = |msg: String| {
            Err(IrError::BadOperands(format!(
                "%{} ({}) in {block_name}: {msg}",
                id.index(),
                inst.opcode.mnemonic()
            )))
        };
        // Dangling value / successor checks.
        for &op in &inst.operands {
            if let Value::Inst(dep) = op {
                if !self.is_inst_alive(dep) {
                    return Err(IrError::DanglingRef(format!(
                        "%{} in {block_name} uses removed %{}",
                        id.index(),
                        dep.index()
                    )));
                }
            }
            if let Value::Param(p) = op {
                if p as usize >= self.params.len() {
                    return err(format!("parameter index {p} out of range"));
                }
            }
        }
        for &s in &inst.succs {
            if !self.is_block_alive(s) {
                return Err(IrError::DanglingRef(format!(
                    "branch to removed block from {block_name}"
                )));
            }
        }
        let tys: Vec<Type> = inst.operands.iter().map(|&v| self.value_ty(v)).collect();
        let n = inst.operands.len();
        use Opcode::*;
        match inst.opcode {
            Add | Sub | Mul | SDiv | SRem | UDiv | URem | And | Or | Xor | Shl | LShr | AShr => {
                if n != 2 || tys[0] != tys[1] || !tys[0].is_int() || inst.ty != tys[0] {
                    return err(format!(
                        "expected (T, T) -> T int, got {tys:?} -> {}",
                        inst.ty
                    ));
                }
            }
            FAdd | FSub | FMul | FDiv => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32, f32) -> f32, got {tys:?}"));
                }
            }
            FSqrt | FAbs | FNeg | FExp => {
                if n != 1 || tys[0] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32) -> f32, got {tys:?}"));
                }
            }
            Icmp(_) => {
                if n != 2
                    || tys[0] != tys[1]
                    || !(tys[0].is_int() || tys[0].is_ptr())
                    || inst.ty != Type::I1
                {
                    return err(format!("expected (int, int) -> i1, got {tys:?}"));
                }
            }
            Fcmp(_) => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::I1 {
                    return err(format!("expected (f32, f32) -> i1, got {tys:?}"));
                }
            }
            Select => {
                if n != 3 || tys[0] != Type::I1 || tys[1] != tys[2] || inst.ty != tys[1] {
                    return err(format!("expected (i1, T, T) -> T, got {tys:?}"));
                }
            }
            Zext | Sext => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() > inst.ty.size_bytes()
                {
                    return err(format!("bad extension {tys:?} -> {}", inst.ty));
                }
            }
            Trunc => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() < inst.ty.size_bytes()
                {
                    return err(format!("bad truncation {tys:?} -> {}", inst.ty));
                }
            }
            SiToFp => {
                if n != 1 || !tys[0].is_int() || inst.ty != Type::F32 {
                    return err(format!("bad sitofp {tys:?}"));
                }
            }
            FpToSi => {
                if n != 1 || tys[0] != Type::F32 || !inst.ty.is_int() {
                    return err(format!("bad fptosi {tys:?}"));
                }
            }
            Load => {
                if n != 1 || !tys[0].is_ptr() || inst.ty == Type::Void {
                    return err(format!("expected (ptr) -> T, got {tys:?} -> {}", inst.ty));
                }
            }
            Store => {
                if n != 2 || !tys[1].is_ptr() || inst.ty != Type::Void {
                    return err(format!("expected (T, ptr) -> void, got {tys:?}"));
                }
            }
            Gep { .. } => {
                if n != 2 || !tys[0].is_ptr() || !tys[1].is_int() || inst.ty != tys[0] {
                    return err(format!("expected (ptr, int) -> ptr, got {tys:?}"));
                }
            }
            ThreadIdx(_) | BlockIdx(_) | BlockDim(_) | GridDim(_) => {
                if n != 0 || inst.ty != Type::I32 {
                    return err("expected () -> i32".into());
                }
            }
            SharedBase(k) => {
                if n != 0 || !inst.ty.is_ptr() {
                    return err("expected () -> ptr".into());
                }
                if k as usize >= self.shared.len() {
                    return err(format!("shared array index {k} out of range"));
                }
            }
            Syncthreads => {
                if n != 0 || inst.ty != Type::Void {
                    return err("expected () -> void".into());
                }
            }
            Ballot => {
                if n != 1 || tys[0] != Type::I1 || inst.ty != Type::I64 {
                    return err(format!("expected (i1) -> i64, got {tys:?}"));
                }
            }
            Phi => {
                if inst.phi_blocks.len() != n {
                    return err("phi incoming blocks and values differ in length".into());
                }
                for &ty in &tys {
                    if ty != inst.ty {
                        return err(format!("phi incoming type {ty} != {}", inst.ty));
                    }
                }
            }
            Br => {
                if n != 1 || tys[0] != Type::I1 || inst.succs.len() != 2 {
                    return err(format!("expected br (i1) with 2 successors, got {tys:?}"));
                }
            }
            Jump => {
                if n != 0 || inst.succs.len() != 1 {
                    return err("expected jump with 1 successor".into());
                }
            }
            Ret => {
                let ok = match self.ret {
                    Type::Void => n == 0,
                    ty => n == 1 && tys[0] == ty,
                };
                if !ok || !inst.succs.is_empty() {
                    return err(format!("return does not match function type {}", self.ret));
                }
            }
        }
        Ok(())
    }

    /// Count of live instructions (a code-size metric).
    pub fn live_inst_count(&self) -> usize {
        self.block_ids()
            .iter()
            .map(|&b| self.insts_of(b).len())
            .sum()
    }

    /// Count of conditional branches (a static divergence-surface metric).
    pub fn cond_branch_count(&self) -> usize {
        self.block_ids()
            .iter()
            .filter(|&&b| {
                self.terminator(b)
                    .is_some_and(|t| self.inst(t).opcode == Opcode::Br)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::IcmpPred;

    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        // entry: br (p0 < 5) then else; then/else: jump exit; exit: ret
        let mut f = Function::new("diamond", vec![Type::I32], Type::Void);
        let entry = f.entry();
        let then = f.add_block("then");
        let els = f.add_block("else");
        let exit = f.add_block("exit");
        let cmp = f.add_inst(
            entry,
            InstData::new(
                Opcode::Icmp(IcmpPred::Slt),
                Type::I1,
                vec![Value::Param(0), Value::I32(5)],
            ),
        );
        f.add_inst(
            entry,
            InstData::terminator(Opcode::Br, vec![Value::Inst(cmp)], vec![then, els]),
        );
        f.add_inst(then, InstData::terminator(Opcode::Jump, vec![], vec![exit]));
        f.add_inst(els, InstData::terminator(Opcode::Jump, vec![], vec![exit]));
        f.add_inst(exit, InstData::terminator(Opcode::Ret, vec![], vec![]));
        (f, entry, then, els, exit)
    }

    #[test]
    fn restore_moves_the_snapshot_in_under_a_fresh_journal_identity() {
        let (mut f, _entry, then, _els, _exit) = diamond();
        let snapshot = f.snapshot();
        let text = snapshot.function().to_string();
        let cursor = f.journal_head();
        f.insert_inst_at(
            then,
            0,
            InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(1)]),
        );
        assert_ne!(f.to_string(), text);
        f.restore(snapshot);
        assert_eq!(f.to_string(), text);
        assert_eq!(f.probe_since(cursor), WindowProbe::Saturated);
        assert_eq!(f.probe_since(f.journal_head()), WindowProbe::Clean);
    }

    #[test]
    fn build_and_verify_diamond() {
        let (f, entry, then, els, exit) = diamond();
        assert_eq!(f.succ_slice(entry), [then, els]);
        assert_eq!(f.succ_slice(then), [exit]);
        let preds = f.compute_preds();
        assert_eq!(preds[exit.index()].len(), 2);
        f.verify_structure().unwrap();
    }

    #[test]
    fn phi_pred_mismatch_detected() {
        let (mut f, entry, then, _els, exit) = diamond();
        // phi with only one incoming edge at a 2-pred block must fail.
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1))]);
        f.insert_inst_at(exit, 0, phi);
        assert!(matches!(
            f.verify_structure(),
            Err(IrError::PhiPredMismatch(_))
        ));
        let _ = entry;
    }

    #[test]
    fn phi_at_top_enforced() {
        let (mut f, _e, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        // valid at top
        f.insert_inst_at(exit, 0, phi.clone());
        f.verify_structure().unwrap();
        // invalid after a non-phi
        let add = InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]);
        f.insert_inst_at(exit, 1, add);
        let bad = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 2, bad);
        assert!(matches!(f.verify_structure(), Err(IrError::PhiNotAtTop(_))));
    }

    #[test]
    fn type_errors_detected() {
        let mut f = Function::new("bad", vec![], Type::Void);
        let e = f.entry();
        f.add_inst(
            e,
            InstData::new(
                Opcode::Add,
                Type::I32,
                vec![Value::I32(1), Value::const_f32(1.0)],
            ),
        );
        f.add_inst(e, InstData::terminator(Opcode::Ret, vec![], vec![]));
        assert!(matches!(f.verify_structure(), Err(IrError::BadOperands(_))));
    }

    #[test]
    fn out_of_range_parameter_is_rejected_not_indexed() {
        let mut f = Function::new("bad", vec![Type::I32], Type::Void);
        let e = f.entry();
        f.add_inst(
            e,
            InstData::new(Opcode::Add, Type::I32, vec![Value::Param(1), Value::I32(1)]),
        );
        f.add_inst(e, InstData::terminator(Opcode::Ret, vec![], vec![]));
        assert!(
            matches!(f.verify_structure(), Err(IrError::BadOperands(m)) if m.contains("parameter index 1"))
        );
    }

    /// `add_block` picks the smallest free suffix and, from the first
    /// collision on, pays one set probe per attempted name — never a scan
    /// of the blocks: N same-named blocks cost the N(N+1)/2 probes of
    /// trying `b`, `b.1`, … in turn and nothing that grows with the
    /// function around them.
    #[test]
    fn same_named_blocks_get_the_smallest_free_suffix_in_one_probe_per_attempt() {
        const N: usize = 4096;
        let mut f = Function::new("names", vec![], Type::Void);
        for i in 0..N {
            f.add_block(&format!("other{i}"));
        }
        let probes_before = NAME_PROBES.get();
        let blocks: Vec<BlockId> = (0..N).map(|_| f.add_block("b")).collect();
        assert_eq!(NAME_PROBES.get() - probes_before, N * (N + 1) / 2);
        assert_eq!(f.block_name(blocks[0]), "b");
        for (k, &b) in blocks.iter().enumerate().skip(1) {
            assert_eq!(f.block_name(b), format!("b.{k}"));
        }

        // A removed or renamed block frees its name for the next add; a
        // rename claims the new one.
        let add = |f: &mut Function, name: &str| {
            let b = f.add_block(name);
            f.block_name(b).to_string()
        };
        f.remove_block(blocks[7]);
        f.set_block_name(blocks[3], "renamed");
        let probes_before = NAME_PROBES.get();
        assert_eq!(add(&mut f, "b"), "b.3");
        assert_eq!(NAME_PROBES.get() - probes_before, 4);
        assert_eq!(add(&mut f, "b"), "b.7");
        assert_eq!(add(&mut f, "renamed"), "renamed.1");
        assert_eq!(add(&mut f, "b"), format!("b.{N}"));

        // A clone starts without the set and rebuilds it from its blocks
        // at its first collision.
        let mut g = f.clone();
        g.remove_block(blocks[1]);
        assert_eq!(add(&mut g, "b"), "b.1");
        assert_eq!(add(&mut f, "b"), format!("b.{}", N + 1));
    }

    #[test]
    fn rauw_replaces_uses() {
        let (mut f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        f.rauw(Value::Param(0), Value::I32(7));
        assert_eq!(f.inst(cmp).operands[0], Value::I32(7));
    }

    #[test]
    fn remove_inst_detaches() {
        let (mut f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        let term = f.terminator(entry).unwrap();
        f.inst_mut(term).operands[0] = Value::I1(true);
        f.remove_inst(cmp);
        assert_eq!(f.insts_of(entry).len(), 1);
        assert!(!f.is_inst_alive(cmp));
        f.verify_structure().unwrap();
    }

    #[test]
    fn split_block_moves_tail_and_retargets_phis() {
        let (mut f, _entry, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 0, phi);
        // split `then` before its terminator
        let cont = f.split_block_at(then, 0, "then.split");
        f.add_inst(then, InstData::terminator(Opcode::Jump, vec![], vec![cont]));
        f.verify_structure().unwrap();
        assert_eq!(f.succ_slice(then), [cont]);
        assert_eq!(f.succ_slice(cont), [exit]);
    }

    #[test]
    fn merge_block_into_undoes_a_split_and_journals_the_moved_insts() {
        let (mut f, _entry, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 0, phi);
        let add = InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(1)]);
        let add = f.insert_inst_at(then, 0, add);
        let before = f.to_string();
        let tail = f.split_block_at(then, 1, "then.tail");
        let jump = f.add_inst(then, InstData::terminator(Opcode::Jump, vec![], vec![tail]));

        f.remove_inst(jump);
        let moved = f.insts_of(tail).to_vec();
        let cursor = f.journal_head();
        f.merge_block_into(tail, then);
        f.verify_structure().unwrap();
        assert_eq!(
            f.to_string(),
            before,
            "ids and order survive the round trip"
        );
        assert_eq!(f.insts_of(then)[0], add);
        assert!(!f.is_block_alive(tail));

        // The window is a block-graph one, and names every moved
        // instruction and the φ retargeted from `tail` to `then`.
        assert_eq!(f.probe_since(cursor), WindowProbe::Shape);
        let mut touched = Vec::new();
        assert!(f.insts_touched_since(cursor, |id| touched.push(id)));
        assert!(moved.iter().all(|id| touched.contains(id)));
        assert!(touched.contains(&f.phis_of(exit)[0]));
    }

    #[test]
    fn phi_replace_incoming_equals_the_loop_it_replaced_and_journals_insts_only() {
        // A φ over three predecessors; reroute `then`/`els` through `pad`
        // and keep `entry`, whose entry the φ already has.
        let (mut f, entry, then, els, exit) = diamond();
        let pad = f.add_block("pad");
        let add = InstData::new(Opcode::Add, Type::I32, vec![Value::Param(0), Value::I32(1)]);
        let def = f.insert_inst_at(entry, 0, add);
        let incoming = [
            (then, Value::I32(1)),
            (entry, Value::Inst(def)),
            (els, Value::I32(2)),
            (then, Value::I32(1)),
        ];
        let phi = f.insert_inst_at(exit, 0, InstData::phi(Type::I32, &incoming));
        let merged = Value::Inst(def);

        // The hand-rolled surgery the method replaced.
        let mut by_hand = f.inst(phi).clone();
        for s in [then, els] {
            let mut k = 0;
            while k < by_hand.phi_blocks.len() {
                if by_hand.phi_blocks[k] == s {
                    by_hand.phi_blocks.remove(k);
                    by_hand.operands.remove(k);
                } else {
                    k += 1;
                }
            }
        }
        for p in [pad, entry] {
            if !by_hand.phi_blocks.contains(&p) {
                by_hand.phi_blocks.push(p);
                by_hand.operands.push(merged);
            }
        }

        let cursor = f.journal_head();
        f.phi_replace_incoming(phi, &[then, els], &[pad, entry], merged);
        assert_eq!(f.inst(phi), &by_hand);
        let entries: Vec<_> = f.inst(phi).phi_incoming().collect();
        assert_eq!(entries, [(entry, merged), (pad, merged)]);

        // Rerouting a φ edits no edge: the window names the φ and the
        // definition whose use count moved, and the block graph is intact.
        assert_eq!(f.probe_since(cursor), WindowProbe::InstsOnly);
        let mut touched = Vec::new();
        assert!(f.insts_touched_since(cursor, |id| touched.push(id)));
        assert!(touched.contains(&phi) && touched.contains(&def));
    }

    #[test]
    fn rauw_many_equals_the_rauws_in_order() {
        // b0: a = p0+1; b = a+a; c = b+a; ret — rewrite a→p0 then b→a.
        let build = || {
            let mut f = Function::new("r", vec![Type::I32], Type::I32);
            let e = f.entry();
            let add = |f: &mut Function, x: Value, y: Value| {
                Value::Inst(f.add_inst(e, InstData::new(Opcode::Add, Type::I32, vec![x, y])))
            };
            let a = add(&mut f, Value::Param(0), Value::I32(1));
            let b = add(&mut f, a, a);
            let c = add(&mut f, b, a);
            f.add_inst(e, InstData::terminator(Opcode::Ret, vec![c], vec![]));
            (f, a, b, c)
        };
        let (mut one_by_one, a, b, _) = build();
        one_by_one.rauw(a, Value::Param(0));
        one_by_one.rauw(b, a);
        let (mut batched, a, b, c) = build();
        let cursor = batched.journal_head();
        batched.rauw_many(&[(a, Value::Param(0)), (b, a)]);
        assert_eq!(batched.to_string(), one_by_one.to_string());
        assert_eq!(
            batched.inst(c.as_inst().unwrap()).operands,
            vec![a, Value::Param(0)],
            "a later pair does not feed an earlier one"
        );

        // Rewritten users (arena order), then the definitions that lost
        // uses (batch order); no block-graph edit.
        assert_eq!(batched.probe_since(cursor), WindowProbe::InstsOnly);
        let mut touched = Vec::new();
        assert!(batched.insts_touched_since(cursor, |id| touched.push(Value::Inst(id))));
        assert_eq!(touched, vec![b, c, a, b]);
        // A chain in batch order follows through: uses of b end at p0.
        let (mut chained, a, b, c) = build();
        chained.rauw_many(&[(b, a), (a, Value::Param(0))]);
        assert_eq!(
            chained.inst(c.as_inst().unwrap()).operands,
            vec![Value::Param(0), Value::Param(0)]
        );
    }

    #[test]
    fn users_of_finds_all() {
        let (f, entry, ..) = diamond();
        let cmp = f.insts_of(entry)[0];
        let users = f.users_of(Value::Inst(cmp));
        assert_eq!(users.len(), 1); // the branch
        let _ = entry;
    }

    #[test]
    fn shared_arrays_register() {
        let mut f = Function::new("k", vec![], Type::Void);
        let idx = f.add_shared_array("tile", Type::I32, 256);
        assert_eq!(idx, 0);
        assert_eq!(f.shared_arrays()[0].size_bytes(), 1024);
    }

    #[test]
    fn replace_succ_and_phi_retarget() {
        let (mut f, entry, then, els, exit) = diamond();
        let phi = InstData::phi(Type::I32, &[(then, Value::I32(1)), (els, Value::I32(2))]);
        f.insert_inst_at(exit, 0, phi);
        // Introduce a trampoline block between `then` and `exit`.
        let tramp = f.add_block("tramp");
        f.add_inst(
            tramp,
            InstData::terminator(Opcode::Jump, vec![], vec![exit]),
        );
        f.replace_succ(then, exit, tramp);
        f.phi_retarget_pred(exit, then, tramp);
        f.verify_structure().unwrap();
        let _ = entry;
    }
}
