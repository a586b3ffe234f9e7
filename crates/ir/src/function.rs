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

/// An ordered batch of use replacements folded into one map, for
/// [`Function::rauw_many`]. An instruction `from` is found through a table
/// indexed by arena slot; parameter and constant `from`s, which are rare,
/// through a short list.
struct Substitution {
    /// Per instruction arena index: 0, or 1 + the index of its entry.
    slot: Vec<u32>,
    /// `(from, 1 + entry index)` for the `from`s that are not instructions.
    others: Vec<(Value, u32)>,
    entries: Vec<SubstEntry>,
}

struct SubstEntry {
    from: Value,
    /// Where `from` ends up once the whole batch has landed.
    end: Value,
}

impl Substitution {
    /// Folds `pairs` over an arena of `arena` instructions. Walking the
    /// batch backwards, `from` maps to wherever the *later* pairs send
    /// `to`; of two pairs for one `from` the earlier wins, as it does when
    /// the pairs land one at a time.
    fn fold(arena: usize, pairs: &[(Value, Value)]) -> Substitution {
        let mut s = Substitution {
            slot: vec![0; arena],
            others: Vec::new(),
            entries: Vec::with_capacity(pairs.len()),
        };
        for &(from, to) in pairs.iter().rev() {
            let end = s.entry(to).map_or(to, |k| s.entries[k].end);
            if let Some(k) = s.entry(from) {
                s.entries[k].end = end;
                continue;
            }
            s.entries.push(SubstEntry { from, end });
            let k = s.entries.len() as u32;
            match from {
                Value::Inst(def) => s.slot[def.index()] = k,
                _ => s.others.push((from, k)),
            }
        }
        s
    }

    fn entry(&self, v: Value) -> Option<usize> {
        let k = match v {
            Value::Inst(id) => self.slot[id.index()],
            _ => self.others.iter().find(|o| o.0 == v).map_or(0, |o| o.1),
        };
        (k as usize).checked_sub(1)
    }

    /// Where a use of `v` goes, if the batch moves it.
    fn rewrite(&self, v: Value) -> Option<Value> {
        let end = self.entries[self.entry(v)?].end;
        (end != v).then_some(end)
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

/// Every live block's predecessors, one entry per edge as in
/// [`Function::compute_preds`], in one flat array: two allocations whatever
/// the function's size.
struct PredTable {
    /// Row `b` is `flat[start[b]..start[b + 1]]`.
    start: Vec<u32>,
    flat: Vec<u32>,
}

impl PredTable {
    fn new(f: &Function) -> PredTable {
        let n = f.blocks.len();
        let edges = || {
            f.blocks
                .iter()
                .enumerate()
                .filter(|(_, data)| data.alive)
                .flat_map(|(b, _)| {
                    f.succ_slice(BlockId::new(b))
                        .iter()
                        .map(move |s| (b, s.index()))
                })
                // A successor past the arena has no row; the verifier
                // reports the branch to it.
                .filter(|&(_, s)| s < n)
        };
        // Counted, summed to where each row ends, then filled backwards,
        // which leaves each count where its row starts.
        let mut start = vec![0u32; n + 1];
        for (_, s) in edges() {
            start[s] += 1;
        }
        let mut total = 0;
        for end in &mut start[..n] {
            total += *end;
            *end = total;
        }
        start[n] = total;
        let mut flat = vec![0u32; total as usize];
        for (b, s) in edges() {
            start[s] -= 1;
            flat[start[s] as usize] = b as u32;
        }
        PredTable { start, flat }
    }

    fn of(&self, b: BlockId) -> &[u32] {
        &self.flat[self.start[b.index()] as usize..self.start[b.index() + 1] as usize]
    }
}

/// The error of φ `id`, whose incoming blocks are not its block's
/// predecessors one each, with both lists sorted as the message prints
/// them.
fn phi_pred_error(id: InstId, block_name: &str, phi: &InstData, preds: &[u32]) -> IrError {
    let mut incoming: Vec<usize> = phi.phi_blocks.iter().map(|p| p.index()).collect();
    incoming.sort_unstable();
    if incoming.windows(2).any(|w| w[0] == w[1]) {
        return IrError::PhiPredMismatch(format!(
            "%{} in {block_name} has duplicate incoming blocks",
            id.index()
        ));
    }
    let mut actual: Vec<usize> = preds.iter().map(|&p| p as usize).collect();
    actual.sort_unstable();
    actual.dedup();
    IrError::PhiPredMismatch(format!(
        "%{} in {block_name}: incoming {incoming:?} vs preds {actual:?}",
        id.index()
    ))
}

/// An instruction's operand types, listed as `Vec<Type>`'s `Debug` lists
/// them but never collected: only a failing check prints them.
struct OperandTypes<'a>(&'a Function, &'a [Value]);

impl fmt::Debug for OperandTypes<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let OperandTypes(func, operands) = *self;
        f.debug_list()
            .entries(operands.iter().map(|&v| func.value_ty(v)))
            .finish()
    }
}

/// A basic block in the arena: its label, its instructions in order (the
/// terminator last), and whether it is live or a tombstone.
#[derive(Debug, Clone)]
pub(crate) struct BlockData {
    pub(crate) name: String,
    pub(crate) insts: Vec<InstId>,
    pub(crate) alive: bool,
}

/// An SSA function (a GPU kernel, in this crate's intended use).
///
/// Owns arenas of blocks and instructions. Removing a block or instruction
/// tombstones it: handles stay stable, and `block_ids()` / per-block
/// instruction lists skip dead entries.
///
/// Every mutation API counts its edits in a [`MutationJournal`], so
/// consumers can classify the window since a [`JournalCursor`] they
/// remember ([`Function::probe_since`]: the analysis cache, the pass
/// manager's "changed" column, the cleanup passes' "nothing happened"
/// answer) — see [`Function::journal_head`].
#[derive(Debug)]
pub struct Function {
    name: String,
    params: Vec<Type>,
    ret: Type,
    blocks: Vec<BlockData>,
    insts: Vec<InstData>,
    dead_insts: Vec<bool>,
    entry: BlockId,
    shared: Vec<SharedArray>,
    journal: MutationJournal,
    /// Count of non-tombstoned blocks, maintained by
    /// `add_block`/`remove_block` so [`Function::live_block_count`] is
    /// O(1).
    live_blocks: usize,
    /// What [`Function::add_block`] asks when a requested name is taken.
    /// Built from the block arena the first time that happens — a function
    /// whose block names never collide is asked one scan per added block
    /// and never pays for it — and kept exact by `add_block` /
    /// `remove_block` after that.
    live_names: Option<BlockNames>,
}

/// The live block names, so "is this name taken" is one set probe, plus a
/// next-suffix hint per requested name that collided, so N blocks asked
/// for under one name cost O(N) probes rather than N(N+1)/2.
#[derive(Debug)]
struct BlockNames {
    live: HashSet<String>,
    /// Per requested name `base`, a suffix below which every `base.k`
    /// (`k ≥ 1`) is taken: the first one [`Function::add_block`] tries.
    next_suffix: HashMap<String, u32>,
}

impl BlockNames {
    /// Forgets a live name. When it reads `base.k`, the smallest free
    /// suffix of `base` may now be `k`, so the hint drops to it.
    fn release(&mut self, name: &str) {
        self.live.remove(name);
        if let Some((base, k)) = name.rsplit_once('.') {
            if let (Some(hint), Ok(k)) = (self.next_suffix.get_mut(base), k.parse::<u32>()) {
                *hint = (*hint).min(k);
            }
        }
    }
}

/// Cloning starts a fresh journal under a new identity: cursors
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
/// function it is moved back into — carries a *fresh journal
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
    /// re-uniquified and the journal starts fresh, as on a clone.
    /// `blocks[0]` is the entry.
    ///
    /// The caller guarantees at least one block, every block live, unique
    /// block names, and that every instruction sits in the list of the
    /// block its `block` field names.
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
            blocks,
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

    /// O(1) classification of the journal window after `cursor`: clean,
    /// instruction-only, shape-changing, or saturated (a cursor taken on
    /// another function instance, a clone's source included).
    pub fn probe_since(&self, cursor: JournalCursor) -> WindowProbe {
        self.journal.probe(cursor)
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
    /// journal identity the snapshot was born with — fresh and shared
    /// with nothing, so cursors taken on the abandoned state saturate
    /// instead of aliasing. Consumes the snapshot (nothing is copied a
    /// second time); clone it first to restore more than once.
    pub fn restore(&mut self, snapshot: FunctionSnapshot) {
        *self = snapshot.inner;
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
            Some(names) => names.live.contains(name),
            None => blocks.iter().any(|b| b.alive && b.name == name),
        };
        let mut unique = name.to_string();
        if taken {
            // The smallest free suffix, one set probe per attempt, starting
            // from the hint instead of from 1.
            let names = self.live_names.get_or_insert_with(|| BlockNames {
                live: blocks
                    .iter()
                    .filter(|b| b.alive)
                    .map(|b| b.name.clone())
                    .collect(),
                next_suffix: HashMap::new(),
            });
            let mut k = names.next_suffix.get(name).map_or(1, |&hint| hint.max(1));
            loop {
                #[cfg(test)]
                NAME_PROBES.with(|n| n.set(n.get() + 1));
                unique.truncate(name.len());
                write!(unique, ".{k}").expect("writing to a String cannot fail");
                if !names.live.contains(&unique) {
                    break;
                }
                k += 1;
            }
            match names.next_suffix.get_mut(name) {
                Some(hint) => *hint = k + 1,
                None => {
                    names.next_suffix.insert(name.to_string(), k + 1);
                }
            }
        }
        if let Some(names) = &mut self.live_names {
            names.live.insert(unique.clone());
        }
        let id = BlockId::new(self.blocks.len());
        self.blocks.push(BlockData {
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
        // edit), and so do its instructions.
        let insts = std::mem::take(&mut self.blocks[b.index()].insts);
        for id in insts {
            self.journal.inst_edit();
            self.dead_insts[id.index()] = true;
        }
        if self.blocks[b.index()].alive {
            self.live_blocks -= 1;
            if let Some(names) = &mut self.live_names {
                names.release(&self.blocks[b.index()].name);
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
    /// Journal contract: an instruction edit is counted. For a terminator
    /// the block graph is conservatively counted as edited; callers should
    /// still retarget successors with [`Function::replace_succ`] or by
    /// removing/re-adding the terminator.
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        assert!(
            !self.dead_insts[id.index()],
            "use of removed instruction %{}",
            id.index()
        );
        self.journal.inst_edit();
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
        self.journal.inst_edit();
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
        self.journal.inst_edit();
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
        self.journal.inst_edit();
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
    /// Returns the live users whose operands moved, once each and in
    /// arena order — what a caller looking for new folds has to revisit.
    /// Each counts as an instruction edit; no block-graph edit is ever
    /// counted: use rewriting leaves the CFG alone.
    pub fn rauw_many(&mut self, pairs: &[(Value, Value)]) -> Vec<InstId> {
        let mut rewritten = Vec::new();
        if pairs.is_empty() {
            return rewritten;
        }
        let subst = Substitution::fold(self.insts.len(), pairs);
        if subst.entries.iter().all(|e| e.from == e.end) {
            return rewritten;
        }
        for idx in 0..self.insts.len() {
            if self.dead_insts[idx] {
                continue;
            }
            let mut hit = false;
            for op in &mut self.insts[idx].operands {
                if let Some(end) = subst.rewrite(*op) {
                    *op = end;
                    hit = true;
                }
            }
            if hit {
                self.journal.inst_edit();
                rewritten.push(InstId::new(idx));
            }
        }
        rewritten
    }

    /// Every live instruction that uses `v` as an operand, in arena order.
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
                self.journal.inst_edit();
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
    /// Journal contract: an instruction edit, never a block-graph edit —
    /// the caller redirects the edges.
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
            self.journal.inst_edit();
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
    /// instruction counts as edited (its parent changed), as do the φs
    /// retargeted in the moved terminator's successors, and the block
    /// graph counts as edited — cost proportional to the absorbed block,
    /// independent of function size.
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
            self.journal.inst_edit();
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
        let preds = PredTable::new(self);
        // Per block index: the stamp of the block whose predecessors were
        // marked last, and of the φ whose incoming blocks were.
        let mut marks = vec![(0u32, 0u32); self.blocks.len()];
        for (bi, data) in self.blocks.iter().enumerate() {
            if !data.alive {
                continue;
            }
            let b = BlockId::new(bi);
            let name = data.name.as_str();
            let insts = &data.insts[..];
            let Some(&last) = insts.last() else {
                return Err(IrError::BadTerminator(format!("block {name} is empty")));
            };
            if !self.inst(last).opcode.is_terminator() {
                return Err(IrError::BadTerminator(format!(
                    "block {name} does not end in a terminator"
                )));
            }
            // Distinct predecessors, counted when the first φ needs them.
            let mut distinct = None;
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
                self.verify_inst(id, name)?;
                if inst.opcode.is_phi() {
                    let block_stamp = bi as u32 + 1;
                    let distinct = *distinct.get_or_insert_with(|| {
                        let mut count = 0;
                        for &p in preds.of(b) {
                            let mark = &mut marks[p as usize].0;
                            count += usize::from(*mark != block_stamp);
                            *mark = block_stamp;
                        }
                        count
                    });
                    // Each incoming block a predecessor, none twice, and as
                    // many as there are predecessors: the two sets agree.
                    let phi_stamp = id.index() as u32 + 1;
                    let matches = inst.phi_blocks.iter().all(|q| {
                        let Some(mark) = marks.get_mut(q.index()) else {
                            return false;
                        };
                        let fresh = mark.0 == block_stamp && mark.1 != phi_stamp;
                        mark.1 = phi_stamp;
                        fresh
                    }) && inst.phi_blocks.len() == distinct;
                    if !matches {
                        return Err(phi_pred_error(id, name, inst, preds.of(b)));
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
        // The types of the first three operands (no opcode but φ takes
        // more, and the φ arm reads its own); `Void` past the end, where
        // every arm has failed its count check first. Messages print
        // `all`, every operand's type.
        let mut tys = [Type::Void; 3];
        for (ty, &v) in tys.iter_mut().zip(&inst.operands) {
            *ty = self.value_ty(v);
        }
        let all = OperandTypes(self, &inst.operands);
        let n = inst.operands.len();
        use Opcode::*;
        match inst.opcode {
            Add | Sub | Mul | SDiv | SRem | UDiv | URem | And | Or | Xor | Shl | LShr | AShr => {
                if n != 2 || tys[0] != tys[1] || !tys[0].is_int() || inst.ty != tys[0] {
                    return err(format!(
                        "expected (T, T) -> T int, got {all:?} -> {}",
                        inst.ty
                    ));
                }
            }
            FAdd | FSub | FMul | FDiv => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32, f32) -> f32, got {all:?}"));
                }
            }
            FSqrt | FAbs | FNeg | FExp => {
                if n != 1 || tys[0] != Type::F32 || inst.ty != Type::F32 {
                    return err(format!("expected (f32) -> f32, got {all:?}"));
                }
            }
            Icmp(_) => {
                if n != 2
                    || tys[0] != tys[1]
                    || !(tys[0].is_int() || tys[0].is_ptr())
                    || inst.ty != Type::I1
                {
                    return err(format!("expected (int, int) -> i1, got {all:?}"));
                }
            }
            Fcmp(_) => {
                if n != 2 || tys[0] != Type::F32 || tys[1] != Type::F32 || inst.ty != Type::I1 {
                    return err(format!("expected (f32, f32) -> i1, got {all:?}"));
                }
            }
            Select => {
                if n != 3 || tys[0] != Type::I1 || tys[1] != tys[2] || inst.ty != tys[1] {
                    return err(format!("expected (i1, T, T) -> T, got {all:?}"));
                }
            }
            Zext | Sext => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() > inst.ty.size_bytes()
                {
                    return err(format!("bad extension {all:?} -> {}", inst.ty));
                }
            }
            Trunc => {
                if n != 1
                    || !tys[0].is_int()
                    || !inst.ty.is_int()
                    || tys[0].size_bytes() < inst.ty.size_bytes()
                {
                    return err(format!("bad truncation {all:?} -> {}", inst.ty));
                }
            }
            SiToFp => {
                if n != 1 || !tys[0].is_int() || inst.ty != Type::F32 {
                    return err(format!("bad sitofp {all:?}"));
                }
            }
            FpToSi => {
                if n != 1 || tys[0] != Type::F32 || !inst.ty.is_int() {
                    return err(format!("bad fptosi {all:?}"));
                }
            }
            Load => {
                if n != 1 || !tys[0].is_ptr() || inst.ty == Type::Void {
                    return err(format!("expected (ptr) -> T, got {all:?} -> {}", inst.ty));
                }
            }
            Store => {
                if n != 2 || !tys[1].is_ptr() || inst.ty != Type::Void {
                    return err(format!("expected (T, ptr) -> void, got {all:?}"));
                }
            }
            Gep { .. } => {
                if n != 2 || !tys[0].is_ptr() || !tys[1].is_int() || inst.ty != tys[0] {
                    return err(format!("expected (ptr, int) -> ptr, got {all:?}"));
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
                    return err(format!("expected (i1) -> i64, got {all:?}"));
                }
            }
            Phi => {
                if inst.phi_blocks.len() != n {
                    return err("phi incoming blocks and values differ in length".into());
                }
                for &v in &inst.operands {
                    let ty = self.value_ty(v);
                    if ty != inst.ty {
                        return err(format!("phi incoming type {ty} != {}", inst.ty));
                    }
                }
            }
            Br => {
                if n != 1 || tys[0] != Type::I1 || inst.succs.len() != 2 {
                    return err(format!("expected br (i1) with 2 successors, got {all:?}"));
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
    /// of the blocks — starting from the name's next-suffix hint: N
    /// same-named blocks cost 2N - 1 probes (the first add one, every
    /// later one the taken check plus the hinted suffix), not the
    /// N(N+1)/2 of trying `b`, `b.1`, … in turn, and nothing that grows
    /// with the function around them.
    #[test]
    fn same_named_blocks_get_the_smallest_free_suffix_in_one_probe_per_attempt() {
        const N: usize = 4096;
        let mut f = Function::new("names", vec![], Type::Void);
        for i in 0..N {
            f.add_block(&format!("other{i}"));
        }
        let probes_before = NAME_PROBES.get();
        let blocks: Vec<BlockId> = (0..N).map(|_| f.add_block("b")).collect();
        assert_eq!(NAME_PROBES.get() - probes_before, 2 * N - 1);
        assert_eq!(f.block_name(blocks[0]), "b");
        for (k, &b) in blocks.iter().enumerate().skip(1) {
            assert_eq!(f.block_name(b), format!("b.{k}"));
        }

        // A removed block frees its name for the next add, and lowers the
        // hint to it.
        let add = |f: &mut Function, name: &str| {
            let b = f.add_block(name);
            f.block_name(b).to_string()
        };
        f.remove_block(blocks[3]);
        f.remove_block(blocks[7]);
        let probes_before = NAME_PROBES.get();
        assert_eq!(add(&mut f, "b"), "b.3");
        assert_eq!(NAME_PROBES.get() - probes_before, 2);
        assert_eq!(add(&mut f, "b"), "b.7");
        assert_eq!(add(&mut f, "b"), format!("b.{N}"));

        // A clone starts without the set or the hints and rebuilds them
        // from its blocks at its first collision.
        let mut g = f.clone();
        g.remove_block(blocks[1]);
        assert_eq!(add(&mut g, "b"), "b.1");
        let probes_before = NAME_PROBES.get();
        assert_eq!(add(&mut f, "b"), format!("b.{}", N + 1));
        assert_eq!(NAME_PROBES.get() - probes_before, 2);
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

        // The moved instructions keep their ids, and the window is a
        // block-graph one.
        assert_eq!(f.insts_of(then)[1..], moved[..]);
        assert_eq!(f.inst(f.phis_of(exit)[0]).phi_blocks[0], then);
        assert_eq!(f.probe_since(cursor), WindowProbe::Shape);
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

        // Rerouting a φ edits no edge: the block graph is intact.
        assert_eq!(f.probe_since(cursor), WindowProbe::InstsOnly);
    }

    /// A random straight-line function for the `rauw_many` property:
    /// instruction `k` is `add v(x), v(y)` for its pair `(x, y)`, where
    /// `v(k)` is instruction `k` below the instruction count and otherwise
    /// one of two parameters and two constants; the `dead` instructions are
    /// tombstoned.
    fn pool_function(
        ops: &[(usize, usize)],
        dead: &[usize],
    ) -> (Function, impl Fn(usize) -> Value) {
        let n = ops.len();
        let v = move |k: usize| {
            let others = [
                Value::Param(0),
                Value::Param(1),
                Value::I32(0),
                Value::I32(1),
            ];
            let k = k % (n + others.len());
            if k < n {
                Value::Inst(InstId::new(k))
            } else {
                others[k - n]
            }
        };
        let mut f = Function::new("pool", vec![Type::I32, Type::I32], Type::I32);
        let e = f.entry();
        for &(x, y) in ops {
            f.add_inst(e, InstData::new(Opcode::Add, Type::I32, vec![v(x), v(y)]));
        }
        f.add_inst(e, InstData::terminator(Opcode::Ret, vec![v(n - 1)], vec![]));
        for &k in dead {
            if k < n {
                f.remove_inst(InstId::new(k));
            }
        }
        (f, v)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Over random batches on a small value pool — so chains,
        /// identities, duplicate `from`s and parameter or constant `from`s
        /// all come up — `rauw_many` leaves the function `rauw` once per
        /// pair leaves, and reports its contract written out: the live
        /// users whose operands move, in arena order.
        #[test]
        fn rauw_many_equals_the_rauws_in_order(
            ops in proptest::collection::vec((0..16usize, 0..16usize), 1..12),
            dead in proptest::collection::vec(0..16usize, 0..3),
            picks in proptest::collection::vec((0..16usize, 0..16usize), 0..10),
        ) {
            let (f, v) = pool_function(&ops, &dead);
            let pairs: Vec<(Value, Value)> = picks.iter().map(|&(x, y)| (v(x), v(y))).collect();
            let mut one_by_one = f.clone();
            for &(from, to) in &pairs {
                one_by_one.rauw(from, to);
            }
            let mut batched = f.clone();
            let cursor = batched.journal_head();
            let rewritten = batched.rauw_many(&pairs);
            proptest::prop_assert_eq!(batched.to_string(), one_by_one.to_string());

            let end = |v: Value| pairs.iter().fold(v, |v, &(from, to)| if v == from { to } else { v });
            let live: Vec<InstId> = (0..f.inst_capacity())
                .map(InstId::new)
                .filter(|&id| f.is_inst_alive(id))
                .collect();
            let expected: Vec<InstId> = live
                .into_iter()
                .filter(|&id| f.inst(id).operands.iter().any(|&op| end(op) != op))
                .collect();
            let window = if expected.is_empty() { WindowProbe::Clean } else { WindowProbe::InstsOnly };
            proptest::prop_assert_eq!(rewritten, expected);
            proptest::prop_assert_eq!(batched.probe_since(cursor), window);
        }
    }

    #[test]
    fn rauw_many_reports_the_rewritten_users() {
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
        let rewritten = batched.rauw_many(&[(a, Value::Param(0)), (b, a)]);
        assert_eq!(batched.to_string(), one_by_one.to_string());
        assert_eq!(
            batched.inst(c.as_inst().unwrap()).operands,
            vec![a, Value::Param(0)],
            "a later pair does not feed an earlier one"
        );

        // The live users whose operands moved, once each and in arena
        // order (`c` reads both `a` and `b`); no block-graph edit.
        let as_insts = |vs: &[Value]| vs.iter().map(|v| v.as_inst().unwrap()).collect::<Vec<_>>();
        assert_eq!(rewritten, as_insts(&[b, c]));
        assert_eq!(batched.probe_since(cursor), WindowProbe::InstsOnly);
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

    /// The message `verify_structure` gives for a function read from
    /// `text` without verification.
    fn structure_error(text: &str) -> String {
        let f = crate::parser::parse_function(text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        f.verify_structure().unwrap_err().to_string()
    }

    /// Every error path of `verify_structure`, message for message.
    #[test]
    fn every_structure_error_keeps_its_message() {
        let diamond_to = |x: &str| {
            format!(
                "fn @k(i32 %arg0) -> void {{\nentry:\n  %0 = icmp slt %arg0, 5\n  br %0, t, e\nt:\n  jump x\ne:\n  jump x\nx:\n{x}  ret\n}}"
            )
        };
        let cases = [
            (
                "fn @k() -> void {\ne:\n  jump f\nf:\ng:\n  ret\n}".to_string(),
                "bad terminator: block f is empty",
            ),
            (
                "fn @k() -> void {\ne:\n  %0 = tid.x\n}".into(),
                "bad terminator: block e does not end in a terminator",
            ),
            (
                "fn @k() -> void {\ne:\n  jump f\n  ret\nf:\n  ret\n}".into(),
                "bad terminator: terminator mid-block in e",
            ),
            (
                diamond_to("  %4 = add 1, 2\n  %5 = phi i32 [1, t], [2, e]\n"),
                "phi not at block top: %5 in block x",
            ),
            (
                diamond_to("  %4 = phi i32 [1, t], [2, t]\n"),
                "phi predecessor mismatch: %4 in x has duplicate incoming blocks",
            ),
            (
                diamond_to("  %4 = phi i32 [1, t]\n"),
                "phi predecessor mismatch: %4 in x: incoming [1] vs preds [1, 2]",
            ),
            (
                diamond_to("  %4 = phi i32 [1, t], [2, e], [3, entry]\n"),
                "phi predecessor mismatch: %4 in x: incoming [0, 1, 2] vs preds [1, 2]",
            ),
            (
                diamond_to("  %4 = phi i32 [1, t], [2i64, e]\n"),
                "bad operands: %4 (phi) in x: phi incoming type i64 != i32",
            ),
            (
                "fn @k() -> void {\ne:\n  %0 = add 1, 2i64\n  ret\n}".into(),
                "bad operands: %0 (add) in e: expected (T, T) -> T int, got [I32, I64] -> i32",
            ),
            (
                "fn @k() -> void {\ne:\n  %0 = select 1, 2, 3\n  ret\n}".into(),
                "bad operands: %0 (select) in e: expected (i1, T, T) -> T, got [I32, I32, I32]",
            ),
            (
                "fn @k() -> i32 {\ne:\n  ret 1i64\n}".into(),
                "bad operands: %0 (ret) in e: return does not match function type i32",
            ),
        ];
        for (text, message) in cases {
            assert_eq!(structure_error(&text), message, "{text}");
        }

        // An operand that names a removed instruction.
        let mut f = Function::new("k", vec![], Type::Void);
        let e = f.entry();
        let dead = f.add_inst(
            e,
            InstData::new(Opcode::Add, Type::I32, vec![Value::I32(1), Value::I32(2)]),
        );
        f.add_inst(
            e,
            InstData::new(Opcode::Add, Type::I32, vec![Value::Inst(dead); 2]),
        );
        f.add_inst(e, InstData::terminator(Opcode::Ret, vec![], vec![]));
        f.remove_inst(dead);
        assert_eq!(
            f.verify_structure().unwrap_err().to_string(),
            "dangling reference: %1 in entry uses removed %0"
        );

        // More operands than any opcode takes: the list names every one.
        let mut f = Function::new("k", vec![Type::I64], Type::Void);
        let e = f.entry();
        let ops = vec![
            Value::I32(1),
            Value::Param(0),
            Value::const_f32(1.0),
            Value::I1(true),
            Value::Undef(Type::Ptr(crate::AddrSpace::Shared)),
        ];
        for opcode in [Opcode::Add, Opcode::Select, Opcode::Store] {
            let mut g = f.clone();
            g.add_inst(e, InstData::new(opcode, Type::I32, ops.clone()));
            g.add_inst(e, InstData::terminator(Opcode::Ret, vec![], vec![]));
            let list = "[I32, I64, F32, I1, Ptr(Shared)]";
            let expected = match opcode {
                Opcode::Add => format!("expected (T, T) -> T int, got {list} -> i32"),
                Opcode::Select => format!("expected (i1, T, T) -> T, got {list}"),
                _ => format!("expected (T, ptr) -> void, got {list}"),
            };
            assert_eq!(
                g.verify_structure().unwrap_err().to_string(),
                format!(
                    "bad operands: %0 ({}) in entry: {expected}",
                    opcode.mnemonic()
                )
            );
        }
        f.add_inst(
            e,
            InstData::terminator(Opcode::Ret, vec![Value::I32(1); 4], vec![]),
        );
        assert_eq!(
            f.verify_structure().unwrap_err().to_string(),
            "bad operands: %0 (ret) in entry: return does not match function type void"
        );
    }
}
