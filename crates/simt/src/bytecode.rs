//! Typed register bytecode: [`BytecodeKernel`], lowered from a
//! [`Function`] in one pass.
//!
//! # The register file the ops address
//!
//! The engine (`exec_bc`) keeps one untagged 64-bit **cell** per (slot,
//! thread) — slot-major, `regs[slot * threads + thread]` — and one
//! **definedness word** per (slot, warp), bit `l` saying whether lane `l`
//! of that warp holds a value or `undef`. A cell carries no type tag: the
//! type of every value is static ([`Function::value_ty`]), so lowering
//! resolves each instruction to the op that is right for its operand
//! types, once, and the execute loop never looks at a type again. The
//! encoding of a *defined* cell (shared with `mem::ByteStore::read_cell`):
//!
//! | type | cell |
//! |---|---|
//! | `i1` | 0 or 1 |
//! | `i32` | the value sign-extended to 64 bits |
//! | `i64`, `ptr` | the value |
//! | `f32` | the IEEE-754 bits, zero-extended |
//!
//! Sign-extended `i32` cells are closed under `and`/`or`/`xor`, order the
//! same way signed and unsigned as the 32-bit values do, and convert to
//! `i64`/index/`f32` without a width case — so compares, `gep`, `sitofp`
//! and the bitwise ops are width-free, and only the ops whose 32-bit result
//! differs from the 64-bit one (`add`/`sub`/`mul`, shifts, `div`) carry a
//! `W`.
//!
//! # The static-`undef` rule
//!
//! The reference interpreter yields `undef` whenever an operand *tag* does
//! not fit the opcode (`shl` on `i1`, `trunc i32 → i32`, `sitofp` of an
//! `i1`, a `gep` indexed by an `i1`, …). With static types that is known at
//! lowering time: such an instruction becomes `Op::Undef`, which only
//! clears its destination's definedness (and is charged and scheduled like
//! the instruction it replaces). An operand whose type makes the reference
//! raise an error instead — a non-pointer address, a non-`i1` branch
//! condition — is redirected to one always-undefined constant slot, so the
//! same error surfaces at run time. `Value::Undef` constants share that
//! slot.
//!
//! Bit-identity with [`crate::reference`] is promised for input that passes
//! [`Function::verify_structure`] — everything `parse_and_verify*` lets in
//! — where static and run-time types coincide. An ill-typed function still
//! lowers and launches without panicking, but a φ or `select` that mixes
//! types there moves raw cells where the reference would move tags.
//! Dangling references (removed blocks or instructions, out-of-range
//! parameters or shared arrays, a block without a terminator) panic, as the
//! arena accessors do.
//!
//! # What lowering does besides typing
//!
//! * **constant slots**: every distinct constant cell and every referenced
//!   parameter gets a register slot above the program's own (one per live
//!   value-producing instruction, in block order), written once per launch
//!   — all operand reads are plain column loads;
//! * **fused compare-and-branch** (`Op::CmpBr`), **fused
//!   address-and-access** (`Op::GepLoad`/`Op::GepStore`): an `icmp`
//!   feeding its block's `br`, or a `gep` feeding the next load/store,
//!   collapses into one op that charges both halves exactly as the unfused
//!   pair would and skips the intermediate register when nothing else
//!   reads it;
//! * **φ edge tables** (`PhiEdge`): per-(block, predecessor) lists of
//!   slot-to-slot moves, applied per predecessor *bucket* of lanes;
//! * **resume pcs**: every `jump`/`br` target carries the op index to
//!   continue at (`BcBlock::entry_pc`), and every block its IPDOM, so
//!   uniform control transfers never touch the reconvergence stack;
//! * **timing records** (`TimingRec`, parallel to the code, built from it
//!   on the first timed launch): each op's scoreboard destination, sources
//!   and latency for the timing observer, both halves of a fused op
//!   included, so the observer never looks at an op.

use crate::timing::{Issue, TimingRec, LINK_CELL, SINK_CELL};
use darm_analysis::dom::post_idoms;
use darm_ir::{
    cost, BlockId, FcmpPred, Function, IcmpPred, InstData, Opcode, SharedArray, Type, Value,
};
use std::sync::OnceLock;

/// Sentinel for "no destination register" (void results, elided writes).
pub(crate) const NO_DST: u32 = u32::MAX;
/// Sentinel for "no block" (reconvergence targets and φ provenance).
pub(crate) const NO_BLOCK: u32 = u32::MAX;
/// Sentinel op index marking "at block entry, φs not yet run".
pub(crate) const BLOCK_ENTRY: u32 = u32::MAX;

/// Static integer width of an op whose result depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum W {
    I1,
    I32,
    I64,
}

/// Integer and int/float conversions, resolved from (source, result) type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cvt {
    /// The cell is already right: `zext` from `i1`, `zext`/`sext`
    /// `i32 → i32`, `sext i32 → i64`.
    Copy,
    /// `sext` from `i1`: 1 becomes −1.
    SextI1,
    /// `zext i32 → i64`: drop the sign extension.
    ZextI32,
    /// `trunc i64 → i32`: sign-extend the low half again.
    TruncI32,
    /// `trunc` to `i1`: the low bit.
    TruncI1,
    /// `sitofp` from `i32` or `i64`.
    SiToFp,
    /// `fptosi` to `i32` (saturating).
    FpToI32,
    /// `fptosi` to `i64` (saturating).
    FpToI64,
}

/// A value that is the same in every lane of a thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Uniform {
    BlockIdx(darm_ir::Dim),
    BlockDim(darm_ir::Dim),
    GridDim(darm_ir::Dim),
    /// A shared array's base, as its byte offset in the block's arena.
    SharedBase(u64),
}

/// One fixed-width bytecode op. All `u32` fields are register slots unless
/// named `*_block` (dense block index) or `*_pc` (absolute op index).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Add {
        w: W,
        d: u32,
        a: u32,
        b: u32,
    },
    Sub {
        w: W,
        d: u32,
        a: u32,
        b: u32,
    },
    Mul {
        w: W,
        d: u32,
        a: u32,
        b: u32,
    },
    And {
        d: u32,
        a: u32,
        b: u32,
    },
    Or {
        d: u32,
        a: u32,
        b: u32,
    },
    Xor {
        d: u32,
        a: u32,
        b: u32,
    },
    /// Shifts exist for `i32` and `i64` only; `wide` picks the latter.
    Shl {
        wide: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    LShr {
        wide: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    AShr {
        wide: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    /// `SDiv`/`SRem`/`UDiv`/`URem` on 64-bit cells; `wide` false truncates
    /// the result to `i32`.
    Div {
        op: Opcode,
        wide: bool,
        d: u32,
        a: u32,
        b: u32,
    },
    FAdd {
        d: u32,
        a: u32,
        b: u32,
    },
    FSub {
        d: u32,
        a: u32,
        b: u32,
    },
    FMul {
        d: u32,
        a: u32,
        b: u32,
    },
    FDiv {
        d: u32,
        a: u32,
        b: u32,
    },
    FSqrt {
        d: u32,
        a: u32,
    },
    FAbs {
        d: u32,
        a: u32,
    },
    FNeg {
        d: u32,
        a: u32,
    },
    FExp {
        d: u32,
        a: u32,
    },
    Icmp {
        p: IcmpPred,
        d: u32,
        a: u32,
        b: u32,
    },
    Fcmp {
        p: FcmpPred,
        d: u32,
        a: u32,
        b: u32,
    },
    Select {
        d: u32,
        c: u32,
        a: u32,
        b: u32,
    },
    Cvt {
        k: Cvt,
        d: u32,
        a: u32,
    },
    Gep {
        elem: u64,
        d: u32,
        a: u32,
        b: u32,
    },
    /// An instruction whose result is `undef` whatever its operands hold
    /// (see the module docs). `srcs` are the operand slots it still waits
    /// on in the timing model, [`NO_DST`]-padded.
    Undef {
        d: u32,
        srcs: [u32; 3],
    },
    Load {
        ty: Type,
        d: u32,
        a: u32,
    },
    /// `ty` is the static type of the stored value `v`.
    Store {
        ty: Type,
        v: u32,
        a: u32,
    },
    /// Fused `gep` + `load` through the computed address. `gd` is
    /// [`NO_DST`] when nothing besides the load reads the address.
    GepLoad {
        elem: u64,
        gd: u32,
        ga: u32,
        gb: u32,
        ty: Type,
        d: u32,
    },
    /// Fused `gep` + `store` through the computed address; same `gd`
    /// elision rule as [`Op::GepLoad`].
    GepStore {
        elem: u64,
        gd: u32,
        ga: u32,
        gb: u32,
        ty: Type,
        v: u32,
    },
    ThreadIdx {
        dim: darm_ir::Dim,
        d: u32,
    },
    Uniform {
        v: Uniform,
        d: u32,
    },
    Ballot {
        d: u32,
        a: u32,
    },
    Sync,
    Ret,
    Jump {
        t_block: u32,
        t_pc: u32,
    },
    Br {
        c: u32,
        t_block: u32,
        t_pc: u32,
        e_block: u32,
        e_pc: u32,
    },
    /// Fused `icmp` + `br`. `d` is [`NO_DST`] when the compare result has
    /// no reader besides the branch.
    CmpBr {
        p: IcmpPred,
        d: u32,
        a: u32,
        b: u32,
        t_block: u32,
        t_pc: u32,
        e_block: u32,
        e_pc: u32,
    },
}

/// Per-block metadata for the bytecode stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BcBlock {
    /// First op of the block body (index into [`BytecodeKernel::code`]).
    pub first: u32,
    /// Where a control transfer into this block resumes: [`BLOCK_ENTRY`]
    /// when the block has φs (forcing φ resolution), else `first`.
    pub entry_pc: u32,
    /// Immediate post-dominator (dense), or [`NO_BLOCK`].
    pub ipdom: u32,
    /// φ edge tables of this block (range into [`BytecodeKernel::phi_edges`]).
    pub phi_start: u32,
    pub phi_end: u32,
    /// Whether any φ move source is also a φ destination of this block —
    /// forces the staged (parallel-move) application path.
    pub phi_overlap: bool,
    /// The block's label, as a byte range of [`BytecodeKernel::names`].
    name: (u32, u32),
}

/// φ moves for one (block, predecessor) CFG edge: applying
/// `phi_moves[m_start..m_end]` to a lane that arrived from `pred`
/// resolves every φ of the block at once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiEdge {
    /// Dense index of the predecessor block.
    pub pred: u32,
    pub m_start: u32,
    pub m_end: u32,
    /// False if some φ of the block has no incoming for `pred` (invalid
    /// SSA input — executing the edge is the same runtime error the
    /// reference interpreter raises).
    pub complete: bool,
}

/// A kernel lowered to the typed register bytecode, run by
/// [`crate::Gpu::launch_bytecode`].
///
/// Compiles from a [`Function`] via [`BytecodeKernel::new`]; borrows
/// nothing, so compile once and launch any number of times, from any
/// geometry. See the [module docs](self) for what the lowering does.
#[derive(Debug, Clone)]
pub struct BytecodeKernel {
    pub(crate) params: Vec<Type>,
    /// Register-file slots per thread: the program's dense result slots
    /// first, then the constant/parameter slots.
    pub(crate) n_slots: u32,
    /// Count of the program-writable slot prefix (`[0, program_slots)`).
    /// Slots above it hold constants/parameters, which no op of a valid
    /// kernel ever writes — so they are materialized once per launch and
    /// survive the per-block definedness reset.
    pub(crate) program_slots: u32,
    pub(crate) code: Vec<Op>,
    /// Per-op issue latency, parallel to `code`. A fused [`Op::CmpBr`]
    /// carries the compare latency plus the branch latency (the split is
    /// unobservable: stats are discarded on error, and the budget — which
    /// *is* observable — is charged separately).
    pub(crate) lats: Vec<u64>,
    /// The timing observer's record of each op, parallel to `code`
    /// ([`BytecodeKernel::timing`]).
    timing: OnceLock<Vec<TimingRec>>,
    pub(crate) blocks: Vec<BcBlock>,
    /// `(slot, cell)` constants to materialize per launch. The
    /// always-undefined slot is not listed: it is never defined.
    pub(crate) consts: Vec<(u32, u64)>,
    /// `(slot, param index)` parameters to materialize likewise.
    pub(crate) param_slots: Vec<(u32, u32)>,
    pub(crate) phi_edges: Vec<PhiEdge>,
    /// `(dst slot, src slot)` φ moves, grouped per [`PhiEdge`].
    pub(crate) phi_moves: Vec<(u32, u32)>,
    /// `(block, φ ordinal, pred)` triples for φs that lack an incoming for
    /// a CFG predecessor. Almost always empty; consulted only on the error
    /// path to reproduce the reference interpreter's exact φ-major error
    /// order.
    pub(crate) phi_missing: Vec<(u32, u32, u32)>,
    /// The kernel's name, then every block label, back to back.
    names: String,
    /// Length of the kernel's name, the prefix of `names`.
    name_len: u32,
    pub(crate) entry: u32,
    pub(crate) shared_size: u64,
    /// Whether terminators must record lane provenance. Only φs read
    /// it, so a φ-free kernel skips the bookkeeping entirely. (Per-branch
    /// elision would be unsound: a lane that returns inside a divergent
    /// arm is resurrected at the reconvergence point, where a φ may read
    /// a `prev` recorded arbitrarily far away.)
    pub(crate) track_prev: bool,
    /// The most φs of one block: a φ batch's staging bound.
    pub(crate) max_phis: u32,
}

/// Lowering state: value → slot resolution over the function's arena.
struct Lower<'f, 's> {
    func: &'f Function,
    /// Program slot of each value-producing instruction, by arena index.
    slot_of: &'s [u32],
    /// Operand uses of each instruction's result, by arena index.
    uses: &'s [u32],
    n_slots: u32,
    consts: Vec<(u32, u64)>,
    /// The constant dedup table: open addressing over a power of two of
    /// entries, each [`NO_DST`] or an index into `consts` (see
    /// [`Lower::slot`]).
    const_index: &'s mut [u32],
    param_slots: Vec<(u32, u32)>,
    /// The always-undefined constant slot, once something needs it.
    undef: Option<u32>,
    /// Destination of ill-typed value-less "results", once needed.
    sink: Option<u32>,
}

/// The slot cached in `slot`, allocated from `n_slots` on first use.
fn lazy_slot(slot: &mut Option<u32>, n_slots: &mut u32) -> u32 {
    *slot.get_or_insert_with(|| {
        *n_slots += 1;
        *n_slots - 1
    })
}

impl Lower<'_, '_> {
    fn fresh(&mut self) -> u32 {
        self.n_slots += 1;
        self.n_slots - 1
    }

    fn undef_slot(&mut self) -> u32 {
        lazy_slot(&mut self.undef, &mut self.n_slots)
    }

    /// The slot holding `v`: its instruction's, or a constant/parameter
    /// slot allocated on first use (constants deduplicated by cell).
    fn slot(&mut self, v: Value) -> u32 {
        let cell = match v {
            Value::Inst(id) => return self.slot_of[id.index()],
            Value::Param(i) => {
                if let Some(&(s, _)) = self.param_slots.iter().find(|&&(_, pi)| pi == i) {
                    return s;
                }
                let s = self.fresh();
                self.param_slots.push((s, i));
                return s;
            }
            Value::Undef(_) => return self.undef_slot(),
            Value::I1(b) => b as u64,
            Value::I32(x) => x as i64 as u64,
            Value::I64(x) => x as u64,
            Value::F32Bits(bits) => bits as u64,
        };
        // One multiply spreads the cell over the high half, and folding
        // that into the low half (which picks the entry) keeps `f32`
        // cells, whose low bits are mostly zero, from sharing a probe
        // sequence. The table holds at least twice as many entries as
        // there are constant operands, so a probe ends within a few steps.
        let mask = self.const_index.len() - 1;
        let h = cell.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut at = (h ^ (h >> 32)) as usize & mask;
        loop {
            match self.const_index[at] {
                NO_DST => break,
                k => match self.consts[k as usize] {
                    (s, c) if c == cell => return s,
                    _ => at = (at + 1) & mask,
                },
            }
        }
        let s = self.fresh();
        self.const_index[at] = self.consts.len() as u32;
        self.consts.push((s, cell));
        s
    }

    /// Operand `k` of `data` and its static type. A missing operand is
    /// `(NO_DST, void)`: no typed op accepts `void`, so the slot is never
    /// read.
    fn operand(&mut self, data: &InstData, k: usize) -> (u32, Type) {
        match data.operands.get(k) {
            Some(&v) => (self.slot(v), self.func.value_ty(v)),
            None => (NO_DST, Type::Void),
        }
    }

    /// Operand `k` where the reference interpreter raises an error unless
    /// the run-time value has the tag `want` accepts: a mistyped operand
    /// becomes the always-undefined slot, which raises the same error.
    fn checked_operand(&mut self, data: &InstData, k: usize, want: fn(Type) -> bool) -> u32 {
        let (s, ty) = self.operand(data, k);
        if want(ty) {
            s
        } else {
            self.undef_slot()
        }
    }

    /// The destination slot of a value-producing opcode. Only an ill-typed
    /// instruction (result type `void`) has none; it writes a sink.
    fn dst(&mut self, id: darm_ir::InstId) -> u32 {
        match self.slot_of[id.index()] {
            NO_DST => lazy_slot(&mut self.sink, &mut self.n_slots),
            s => s,
        }
    }

    /// Where the first half of a fused op still writes its result `slot`:
    /// nowhere ([`NO_DST`]) when the second half is the only reader of
    /// `def`.
    fn unless_dead(&self, def: darm_ir::InstId, slot: u32) -> u32 {
        if self.uses[def.index()] > 1 {
            slot
        } else {
            NO_DST
        }
    }
}

/// Cuts the first `len` entries off `rest`.
fn take<'a>(rest: &mut &'a mut [u32], len: usize) -> &'a mut [u32] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// The byte offset of shared array `k` in the block's arena (8-byte
/// aligned arrays in declaration order); `k` = the array count gives the
/// arena's size.
fn shared_offset(arrays: &[SharedArray], k: usize) -> u64 {
    arrays[..k]
        .iter()
        .fold(0, |at, arr| (at + arr.size_bytes() + 7) & !7)
}

/// Every block's immediate post-dominator, dense, into `ipdom[..n]` for
/// `n` blocks ([`NO_BLOCK`] where there is none): the reconvergence points
/// of the IPDOM stack. `succ_off`/`succs` are the blocks' successor rows
/// (`succs[succ_off[v]..succ_off[v + 1]]`) and `entry` the entry block.
/// The reversed graph is the one
/// [`PostDomTree`](darm_analysis::PostDomTree) runs on, over the dense
/// numbers: the virtual exit (number `n`) leads to every block the entry
/// reaches that has no successor, and a block to its predecessors that
/// the entry reaches; [`post_idoms`] runs the same core. `ipdom` holds
/// `n + 1` entries and `scratch` `4 n + 4 + succs.len()`.
fn ipdoms(entry: u32, succ_off: &[u32], succs: &[u32], scratch: &mut [u32], ipdom: &mut [u32]) {
    let n = ipdom.len() - 1;
    let exit = n as u32;
    let row = |v: u32| &succs[succ_off[v as usize] as usize..succ_off[v as usize + 1] as usize];
    let mut rest = scratch;
    let rev_off = take(&mut rest, n + 2);
    let rev = take(&mut rest, succs.len() + n);
    let rpo = take(&mut rest, n + 1);
    let rpo_index = take(&mut rest, n + 1);

    // Which blocks the entry reaches (marks in `rpo_index`, the search's
    // stack in `rpo`: both are free until the core runs).
    let reached = &mut rpo_index[..n];
    reached.fill(0);
    reached[entry as usize] = 1;
    let (stack, mut depth) = (&mut rpo[..n], 1);
    stack[0] = entry;
    while depth > 0 {
        depth -= 1;
        for &s in row(stack[depth]) {
            if reached[s as usize] == 0 {
                reached[s as usize] = 1;
                stack[depth] = s;
                depth += 1;
            }
        }
    }
    // The reversed rows, from reached sources only: count each row, turn
    // the counts into row ends, then fill every row back to front. A
    // block without successors is a row of the exit's.
    let to_exit = [exit];
    let targets = |v: u32| match row(v) {
        [] => &to_exit[..],
        ss => ss,
    };
    rev_off.fill(0);
    let sources = || (0..exit).filter(|&v| reached[v as usize] != 0);
    for v in sources() {
        for &s in targets(v) {
            rev_off[s as usize] += 1;
        }
    }
    let mut end = 0;
    for o in rev_off.iter_mut() {
        end += *o;
        *o = end;
    }
    for v in sources() {
        for &s in targets(v) {
            rev_off[s as usize] -= 1;
            rev[rev_off[s as usize] as usize] = v;
        }
    }

    let rev_row = |v: u32| &rev[rev_off[v as usize] as usize..rev_off[v as usize + 1] as usize];
    post_idoms(exit, rev_row, row, rpo, rpo_index, ipdom);
    // The virtual exit, and `u32::MAX` for no post-dominator at all, are
    // both "no reconvergence block".
    for p in &mut ipdom[..n] {
        if *p >= exit {
            *p = NO_BLOCK;
        }
    }
}

impl BytecodeKernel {
    /// Lowers `func` to bytecode.
    ///
    /// Every table is presized from counts taken in one sweep ahead of the
    /// lowering walk. What lowering reads but does not return — block and
    /// slot numbering, use counts, the constant dedup table, the successor
    /// rows and the post-dominator core's storage — is one scratch
    /// allocation, so lowering allocates what it returns and one table
    /// whatever the function's size (`tests/lower_allocs.rs` counts).
    pub fn new(func: &Function) -> BytecodeKernel {
        // Live blocks in creation order (entry first): the dense numbering.
        let live = || {
            (0..func.block_capacity())
                .map(BlockId::new)
                .filter(|&b| func.is_block_alive(b))
        };
        let (nb, ni) = (func.live_block_count(), func.inst_capacity());
        // The successor rows and the post-dominator core's storage
        // (`ipdoms`) need `2 e + 4 nb + 4` entries for `e` edges. A
        // terminator `verify_structure` accepts names at most two
        // successors, so room for `e = 2 nb` is taken up front; a function
        // whose terminators name more gets a table of its own.
        let graph_len = |e: usize| 2 * e + 4 * nb + 4;
        // The constant dedup table holds a power of two of at least twice
        // as many entries as there are constant operands; room for one
        // constant operand per instruction is taken up front likewise.
        let table_len = |uses: usize| (2 * uses).next_power_of_two();
        let len = func.block_capacity() + 2 * ni + 3 * (nb + 1) + table_len(ni) + graph_len(2 * nb);
        let mut scratch = vec![0u32; len];
        let mut rest = &mut scratch[..];
        let dense_of = take(&mut rest, func.block_capacity());
        let slot_of = take(&mut rest, ni);
        let uses = take(&mut rest, ni);
        // Distinct dense predecessors of one block (`NO_BLOCK` included).
        let preds = take(&mut rest, nb + 1);
        let succ_off = take(&mut rest, nb + 1);
        let ipdom = take(&mut rest, nb + 1);
        let mut const_index = take(&mut rest, table_len(ni));

        // The sweep: dense block numbers; a dense slot for every live
        // value-producing instruction (φs included) and the use counts
        // fusion consults, ahead of the walk because operands may name
        // later instructions; and the sizes of the tables below.
        dense_of.fill(NO_BLOCK);
        slot_of.fill(NO_DST);
        let (mut n_slots, mut n_insts, mut n_incoming, mut n_succs) = (0, 0, 0, 0);
        let (mut n_const_uses, mut name_bytes) = (0usize, func.name().len());
        for (d, b) in live().enumerate() {
            dense_of[b.index()] = d as u32;
            name_bytes += func.block_name(b).len();
            n_insts += func.insts_of(b).len();
            for &id in func.insts_of(b) {
                let data = func.inst(id);
                if data.ty != Type::Void {
                    slot_of[id.index()] = n_slots;
                    n_slots += 1;
                }
                if data.opcode.is_phi() {
                    n_incoming += data.phi_blocks.len();
                }
                for &v in &data.operands {
                    match v {
                        Value::Inst(dep) => uses[dep.index()] += 1,
                        Value::Param(_) | Value::Undef(_) => {}
                        _ => n_const_uses += 1,
                    }
                }
            }
            n_succs += func.succ_slice(b).len();
        }
        // The successor rows in dense numbers, then the IPDOMs.
        let mut own;
        if n_succs > 2 * nb {
            own = vec![0u32; graph_len(n_succs)];
            rest = &mut own;
        }
        let succs = take(&mut rest, n_succs);
        let mut at = 0;
        for (d, b) in live().enumerate() {
            succ_off[d] = at as u32;
            for &s in func.succ_slice(b) {
                succs[at] = dense_of[s.index()];
                at += 1;
            }
        }
        succ_off[nb] = at as u32;
        let entry = dense_of[func.entry().index()];
        ipdoms(entry, succ_off, succs, rest, ipdom);

        let program_slots = n_slots;
        let mut own_table;
        if table_len(n_const_uses) > const_index.len() {
            own_table = vec![0u32; table_len(n_const_uses)];
            const_index = &mut own_table;
        }
        let const_index = &mut const_index[..table_len(n_const_uses)];
        const_index.fill(NO_DST);
        let mut lw = Lower {
            func,
            slot_of,
            uses,
            n_slots,
            // At most one slot per constant use.
            consts: Vec::with_capacity(n_const_uses),
            const_index,
            param_slots: Vec::with_capacity(func.params().len()),
            undef: None,
            sink: None,
        };

        let mut code: Vec<Op> = Vec::with_capacity(n_insts);
        let mut lats: Vec<u64> = Vec::with_capacity(n_insts);
        let mut blocks: Vec<BcBlock> = Vec::with_capacity(nb);
        // A block has one φ edge per distinct predecessor its φs name, and
        // each of its φs one move per such predecessor it names: both are
        // bounded by the φ incoming count.
        let mut phi_edges: Vec<PhiEdge> = Vec::with_capacity(n_incoming);
        let mut phi_moves: Vec<(u32, u32)> = Vec::with_capacity(n_incoming);
        let mut phi_missing: Vec<(u32, u32, u32)> = Vec::new();
        let mut names = String::with_capacity(name_bytes);
        names.push_str(func.name());
        let mut max_phis = 0;

        for b in live() {
            let dense = blocks.len() as u32;
            let insts = func.insts_of(b);
            let n_phis = insts
                .iter()
                .take_while(|&&id| func.inst(id).opcode.is_phi())
                .count();
            let (phis, body) = insts.split_at(n_phis);
            max_phis = max_phis.max(n_phis);

            // φ prefix → per-predecessor move lists, predecessors in
            // first-mention order.
            let phi_start = phi_edges.len() as u32;
            let block_moves_start = phi_moves.len();
            let mut n_preds = 0;
            for &phi in phis {
                for &p in &func.inst(phi).phi_blocks {
                    let p = dense_of[p.index()];
                    if !preds[..n_preds].contains(&p) {
                        preds[n_preds] = p;
                        n_preds += 1;
                    }
                }
            }
            for &p in &preds[..n_preds] {
                let m_start = phi_moves.len() as u32;
                let mut complete = true;
                for (k, &phi) in phis.iter().enumerate() {
                    let incoming = func
                        .inst(phi)
                        .phi_incoming()
                        .find(|&(q, _)| dense_of[q.index()] == p);
                    match incoming {
                        Some((_, v)) => phi_moves.push((lw.dst(phi), lw.slot(v))),
                        None => {
                            complete = false;
                            phi_missing.push((dense, k as u32, p));
                        }
                    }
                }
                phi_edges.push(PhiEdge {
                    pred: p,
                    m_start,
                    m_end: phi_moves.len() as u32,
                    complete,
                });
            }
            // Overlap: a move reads the slot a φ of this very block writes.
            // The block's φs hold consecutive slots (the sweep numbers them
            // in order), so those are one range. A `void` (ill-typed) φ has
            // no slot, and matches a source that has none either.
            let (mut phi_lo, mut phi_hi, mut void_phi) = (u32::MAX, 0, false);
            for &phi in phis {
                match lw.slot_of[phi.index()] {
                    NO_DST => void_phi = true,
                    s => (phi_lo, phi_hi) = (phi_lo.min(s), s + 1),
                }
            }
            let phi_overlap = phi_moves[block_moves_start..]
                .iter()
                .any(|&(_, s)| match s {
                    NO_DST => void_phi,
                    s => (phi_lo..phi_hi).contains(&s),
                });

            // Body → ops, fusing as it goes.
            let first = code.len() as u32;
            for &id in body {
                let data = func.inst(id);
                let lat = cost::latency(data.opcode, None);
                let last = code[first as usize..].last();
                let op = lower_inst(&mut lw, id, data, last, dense_of, func.shared_arrays());
                let lat = match op {
                    // Fusion replaces the compare just emitted; fold its
                    // latency in.
                    Op::CmpBr { .. } => {
                        code.pop();
                        lats.pop().expect("fused compare emitted") + lat
                    }
                    // A fused gep+mem op keeps only the gep's ALU latency:
                    // the memory half's cycles come from the cost model,
                    // exactly as they would unfused.
                    Op::GepLoad { .. } | Op::GepStore { .. } => {
                        code.pop();
                        lats.pop().expect("fused gep emitted")
                    }
                    _ => lat,
                };
                code.push(op);
                lats.push(lat);
            }
            let name_start = names.len() as u32;
            names.push_str(func.block_name(b));
            blocks.push(BcBlock {
                first,
                entry_pc: if n_phis == 0 { first } else { BLOCK_ENTRY },
                ipdom: ipdom[dense as usize],
                phi_start,
                phi_end: phi_edges.len() as u32,
                phi_overlap,
                name: (name_start, names.len() as u32),
            });
        }

        // Patch branch targets with the target block's resume pc, now that
        // every block's layout is known.
        for op in &mut code {
            match op {
                Op::Jump { t_block, t_pc } => *t_pc = blocks[*t_block as usize].entry_pc,
                Op::Br {
                    t_block,
                    t_pc,
                    e_block,
                    e_pc,
                    ..
                }
                | Op::CmpBr {
                    t_block,
                    t_pc,
                    e_block,
                    e_pc,
                    ..
                } => {
                    *t_pc = blocks[*t_block as usize].entry_pc;
                    *e_pc = blocks[*e_block as usize].entry_pc;
                }
                _ => {}
            }
        }

        BytecodeKernel {
            params: func.params().to_vec(),
            n_slots: lw.n_slots,
            program_slots,
            code,
            lats,
            timing: OnceLock::new(),
            blocks,
            consts: lw.consts,
            param_slots: lw.param_slots,
            phi_edges,
            phi_moves,
            phi_missing,
            name_len: func.name().len() as u32,
            names,
            entry,
            shared_size: shared_offset(func.shared_arrays(), func.shared_arrays().len()),
            track_prev: max_phis > 0,
            max_phis: max_phis as u32,
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.names[..self.name_len as usize]
    }

    /// Parameter types of the kernel signature.
    pub fn params(&self) -> &[Type] {
        &self.params
    }

    /// Number of bytecode ops (a fused pair counts once) — a code-size
    /// metric for reporting.
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Per-thread register file size in slots, constant/parameter slots
    /// included.
    pub fn register_slots(&self) -> usize {
        self.n_slots as usize
    }

    /// The timing observer's record of each op, parallel to `code`: the
    /// scoreboard cells and latency of the op's issue and, for a fused op,
    /// of its second half ([`TimingRec`]). Built from `code` and `lats` on
    /// the first timed launch, so lowering and untimed launches pay nothing
    /// for it.
    pub(crate) fn timing(&self) -> &[TimingRec] {
        self.timing.get_or_init(|| {
            self.code
                .iter()
                .zip(&self.lats)
                .map(|(op, &lat)| timing_rec(op, lat))
                .collect()
        })
    }

    /// Every block's label and the label of its immediate post-dominator
    /// — where the lanes of a divergent branch at the block's end
    /// reconverge — in layout order; `None` where there is none (the block
    /// is unreachable or reaches no `ret`: a divergent branch there fails
    /// with [`SimError::MissingIpdom`](crate::SimError::MissingIpdom)).
    pub fn reconvergence_points(&self) -> impl Iterator<Item = (&str, Option<&str>)> + '_ {
        self.blocks.iter().enumerate().map(|(d, b)| {
            let ipdom = (b.ipdom != NO_BLOCK).then(|| self.block_name(b.ipdom));
            (self.block_name(d as u32), ipdom)
        })
    }

    pub(crate) fn block_name(&self, dense: u32) -> &str {
        match self.blocks.get(dense as usize) {
            Some(b) => &self.names[b.name.0 as usize..b.name.1 as usize],
            None => "<none>",
        }
    }
}

/// The timing observer's record of `op`, whose charge model latency is
/// `lat`: the register it writes and the registers it waits on, [`NO_DST`]
/// where absent (constant and parameter slots are never written, so their
/// ready cycle is a constant 0 — equivalent to "no operand").
fn timing_rec(op: &Op, lat: u64) -> TimingRec {
    let one = |dst, srcs| TimingRec {
        first: Issue::new(dst, srcs, lat),
        second: Issue::new(NO_DST, [NO_DST; 3], 0),
    };
    match *op {
        Op::Add { d, a, b, .. }
        | Op::Sub { d, a, b, .. }
        | Op::Mul { d, a, b, .. }
        | Op::And { d, a, b }
        | Op::Or { d, a, b }
        | Op::Xor { d, a, b }
        | Op::Shl { d, a, b, .. }
        | Op::LShr { d, a, b, .. }
        | Op::AShr { d, a, b, .. }
        | Op::Div { d, a, b, .. }
        | Op::FAdd { d, a, b }
        | Op::FSub { d, a, b }
        | Op::FMul { d, a, b }
        | Op::FDiv { d, a, b }
        | Op::Icmp { d, a, b, .. }
        | Op::Fcmp { d, a, b, .. }
        | Op::Gep { d, a, b, .. } => one(d, [a, b, NO_DST]),
        Op::FSqrt { d, a }
        | Op::FAbs { d, a }
        | Op::FNeg { d, a }
        | Op::FExp { d, a }
        | Op::Cvt { d, a, .. }
        | Op::Ballot { d, a }
        | Op::Load { d, a, .. } => one(d, [a, NO_DST, NO_DST]),
        Op::Select { d, c, a, b } => one(d, [c, a, b]),
        Op::Undef { d, srcs } => one(d, srcs),
        Op::Store { v, a, .. } => one(NO_DST, [v, a, NO_DST]),
        Op::ThreadIdx { d, .. } | Op::Uniform { d, .. } => one(d, [NO_DST; 3]),
        Op::Br { c, .. } => one(NO_DST, [c, NO_DST, NO_DST]),
        Op::Sync | Op::Ret | Op::Jump { .. } => one(NO_DST, [NO_DST; 3]),
        // `lat` is the compare's latency and the branch's, folded.
        Op::CmpBr { d, a, b, .. } => {
            let br = cost::latency(Opcode::Br, None);
            let cmp = Issue::new(d, [a, b, NO_DST], lat - br);
            fused(cmp, Issue::new(NO_DST, [NO_DST; 3], br))
        }
        // `lat` is the gep's; the memory half takes its cycles from the
        // access (`WarpClock::mem_issue`).
        Op::GepLoad { gd, ga, gb, d, .. } => fused(
            Issue::new(gd, [ga, gb, NO_DST], lat),
            Issue::new(d, [NO_DST; 3], 0),
        ),
        Op::GepStore { gd, ga, gb, v, .. } => fused(
            Issue::new(gd, [ga, gb, NO_DST], lat),
            Issue::new(NO_DST, [v, NO_DST, NO_DST], 0),
        ),
    }
}

/// The record of a fused op: `first` writes its register, or the link
/// cell when the engine elides it, and `second` waits on that cell as the
/// third operand no second half has of its own.
fn fused(mut first: Issue, mut second: Issue) -> TimingRec {
    if first.dst == SINK_CELL {
        first.dst = LINK_CELL;
    }
    second.srcs[2] = first.dst;
    TimingRec { first, second }
}

/// Lowers one non-φ instruction to its typed op. `last` is the op emitted
/// just before it in the same block — the candidate for fusion; when the
/// returned op is a fused one, the caller drops `last`.
fn lower_inst(
    lw: &mut Lower<'_, '_>,
    id: darm_ir::InstId,
    data: &InstData,
    last: Option<&Op>,
    dense_of: &[u32],
    shared: &[SharedArray],
) -> Op {
    use Opcode as O;
    use Type as T;
    let is_i1 = |t: T| t == T::I1;
    match data.opcode {
        O::Syncthreads => return Op::Sync,
        O::Ret => return Op::Ret,
        O::Jump => {
            return Op::Jump {
                t_block: dense_of[data.succs[0].index()],
                t_pc: 0,
            }
        }
        O::Br => {
            let (t_block, e_block) = (
                dense_of[data.succs[0].index()],
                dense_of[data.succs[1].index()],
            );
            let c = lw.checked_operand(data, 0, is_i1);
            // Fuse with the compare emitted immediately before, inside this
            // block, when it defines the branch condition.
            if let (Some(&Op::Icmp { p, d, a, b }), Some(&Value::Inst(cond))) =
                (last, data.operands.first())
            {
                if d == c {
                    return Op::CmpBr {
                        p,
                        d: lw.unless_dead(cond, d),
                        a,
                        b,
                        t_block,
                        t_pc: 0,
                        e_block,
                        e_pc: 0,
                    };
                }
            }
            return Op::Br {
                c,
                t_block,
                t_pc: 0,
                e_block,
                e_pc: 0,
            };
        }
        O::Store => {
            let (v, ty) = lw.operand(data, 0);
            let v = if ty == T::Void { lw.undef_slot() } else { v };
            let a = lw.checked_operand(data, 1, T::is_ptr);
            // Same fusion shape as compare-and-branch: the gep emitted
            // immediately before computes this access's address.
            if let (Some(&Op::Gep { elem, d, a: ga, b }), Some(&Value::Inst(addr))) =
                (last, data.operands.get(1))
            {
                if d == a {
                    return Op::GepStore {
                        elem,
                        gd: lw.unless_dead(addr, d),
                        ga,
                        gb: b,
                        ty,
                        v,
                    };
                }
            }
            return Op::Store { ty, v, a };
        }
        O::Phi => unreachable!("phis live in the phi tables, not the instruction stream"),
        _ => {}
    }

    // Everything below produces a value.
    let d = lw.dst(id);
    let ((a, ta), (b, tb)) = (lw.operand(data, 0), lw.operand(data, 1));
    // `(T, T)` over the integer types; `(i32, i32)`/`(i64, i64)` only.
    let int_pair = match (ta, tb) {
        (T::I1, T::I1) => Some(W::I1),
        (T::I32, T::I32) => Some(W::I32),
        (T::I64, T::I64) => Some(W::I64),
        _ => None,
    };
    let wide_pair = match int_pair {
        Some(W::I32) => Some(false),
        Some(W::I64) => Some(true),
        _ => None,
    };
    let f32_pair = ta == T::F32 && tb == T::F32;
    let uniform = |v| Some(Op::Uniform { v, d });
    let typed: Option<Op> = match data.opcode {
        O::Add => int_pair.map(|w| Op::Add { w, d, a, b }),
        O::Sub => int_pair.map(|w| Op::Sub { w, d, a, b }),
        O::Mul => int_pair.map(|w| Op::Mul { w, d, a, b }),
        O::And => int_pair.map(|_| Op::And { d, a, b }),
        O::Or => int_pair.map(|_| Op::Or { d, a, b }),
        O::Xor => int_pair.map(|_| Op::Xor { d, a, b }),
        O::Shl => wide_pair.map(|wide| Op::Shl { wide, d, a, b }),
        O::LShr => wide_pair.map(|wide| Op::LShr { wide, d, a, b }),
        O::AShr => wide_pair.map(|wide| Op::AShr { wide, d, a, b }),
        O::SDiv | O::SRem | O::UDiv | O::URem => wide_pair.map(|_| Op::Div {
            op: data.opcode,
            wide: data.ty != T::I32,
            d,
            a,
            b,
        }),
        O::FAdd => f32_pair.then_some(Op::FAdd { d, a, b }),
        O::FSub => f32_pair.then_some(Op::FSub { d, a, b }),
        O::FMul => f32_pair.then_some(Op::FMul { d, a, b }),
        O::FDiv => f32_pair.then_some(Op::FDiv { d, a, b }),
        O::FSqrt => (ta == T::F32).then_some(Op::FSqrt { d, a }),
        O::FAbs => (ta == T::F32).then_some(Op::FAbs { d, a }),
        O::FNeg => (ta == T::F32).then_some(Op::FNeg { d, a }),
        O::FExp => (ta == T::F32).then_some(Op::FExp { d, a }),
        O::Icmp(p) => {
            (int_pair.is_some() || (ta.is_ptr() && tb.is_ptr())).then_some(Op::Icmp { p, d, a, b })
        }
        O::Fcmp(p) => f32_pair.then_some(Op::Fcmp { p, d, a, b }),
        O::Select => {
            let (e, te) = lw.operand(data, 2);
            (ta == T::I1 && te != T::Void).then_some(Op::Select {
                d,
                c: a,
                a: b,
                b: e,
            })
        }
        O::Zext | O::Sext => {
            let zext = data.opcode == O::Zext;
            let k = match (ta, data.ty) {
                (T::I1, T::I32 | T::I64) if zext => Some(Cvt::Copy),
                (T::I1, T::I32 | T::I64) => Some(Cvt::SextI1),
                (T::I32, T::I64) if zext => Some(Cvt::ZextI32),
                (T::I32, T::I32 | T::I64) => Some(Cvt::Copy),
                _ => None,
            };
            k.map(|k| Op::Cvt { k, d, a })
        }
        O::Trunc => {
            let k = match (ta, data.ty) {
                (T::I64, T::I32) => Some(Cvt::TruncI32),
                (T::I64 | T::I32, T::I1) => Some(Cvt::TruncI1),
                _ => None,
            };
            k.map(|k| Op::Cvt { k, d, a })
        }
        O::SiToFp => matches!(ta, T::I32 | T::I64).then_some(Op::Cvt {
            k: Cvt::SiToFp,
            d,
            a,
        }),
        O::FpToSi => {
            let k = match (ta, data.ty) {
                (T::F32, T::I32) => Some(Cvt::FpToI32),
                (T::F32, T::I64) => Some(Cvt::FpToI64),
                _ => None,
            };
            k.map(|k| Op::Cvt { k, d, a })
        }
        O::Gep { elem } => (ta.is_ptr() && matches!(tb, T::I32 | T::I64)).then(|| Op::Gep {
            elem: elem.size_bytes(),
            d,
            a,
            b,
        }),
        O::Load => {
            let addr = lw.checked_operand(data, 0, T::is_ptr);
            Some(match (last, data.operands.first()) {
                (Some(&Op::Gep { elem, d: gd, a, b }), Some(&Value::Inst(gep))) if gd == addr => {
                    Op::GepLoad {
                        elem,
                        gd: lw.unless_dead(gep, gd),
                        ga: a,
                        gb: b,
                        ty: data.ty,
                        d,
                    }
                }
                _ => Op::Load {
                    ty: data.ty,
                    d,
                    a: addr,
                },
            })
        }
        O::ThreadIdx(dim) => Some(Op::ThreadIdx { dim, d }),
        O::BlockIdx(dim) => uniform(Uniform::BlockIdx(dim)),
        O::BlockDim(dim) => uniform(Uniform::BlockDim(dim)),
        O::GridDim(dim) => uniform(Uniform::GridDim(dim)),
        // `..=k` holds `k` to a declared array.
        O::SharedBase(k) => uniform(Uniform::SharedBase(shared_offset(
            &shared[..=k as usize],
            k as usize,
        ))),
        O::Ballot => Some(Op::Ballot {
            d,
            a: lw.checked_operand(data, 0, is_i1),
        }),
        O::Syncthreads | O::Ret | O::Jump | O::Br | O::Store | O::Phi => {
            unreachable!("handled above")
        }
    };
    typed.unwrap_or_else(|| {
        let mut srcs = [NO_DST; 3];
        for (s, &v) in srcs.iter_mut().zip(&data.operands) {
            *s = lw.slot(v);
        }
        Op::Undef { d, srcs }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, IcmpPred};

    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(4));
        b.br(c, t, e);
        b.switch_to(t);
        let v1 = b.mul(tid, b.const_i32(2));
        b.jump(x);
        b.switch_to(e);
        let v2 = b.add(tid, b.const_i32(5));
        b.jump(x);
        b.switch_to(x);
        let v = b.phi(Type::I32, &[(t, v1), (e, v2)]);
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(v, p);
        b.ret(None);
        f
    }

    #[test]
    fn shapes_match_function() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        assert_eq!(bk.name(), "d");
        assert_eq!(bk.blocks.len(), 4);
        assert_eq!(bk.block_name(3), "x");
        assert_eq!(bk.block_name(NO_BLOCK), "<none>");
        // Diamond arms reconverge at the join, which has no IPDOM itself.
        assert_eq!(bk.blocks[1].ipdom, 3);
        assert_eq!(bk.blocks[2].ipdom, 3);
        assert_eq!(bk.blocks[3].ipdom, NO_BLOCK);
        // tid, icmp, mul, add, φ, gep → 6 dense program slots, however
        // many tombstones the arena holds.
        assert_eq!(bk.program_slots, 6);
    }

    #[test]
    fn compare_branch_fuses_and_elides_dead_dst() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        // entry lowers to tid + fused cmp-br: 2 ops instead of 3.
        let entry = &bk.blocks[bk.entry as usize];
        let fused = bk.code[entry.first as usize + 1];
        let Op::CmpBr { d, .. } = fused else {
            panic!("expected fused compare-and-branch, got {fused:?}");
        };
        // Nothing but the branch reads the compare → dst elided.
        assert_eq!(d, NO_DST);
    }

    #[test]
    fn fused_records_carry_both_halves() {
        use crate::timing::{cell, ZERO_CELL};
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        // The fused compare-and-branch: the compare issues at its own
        // latency, the branch at its own waiting on the compare's result —
        // carried by the link cell, since the register is elided.
        let pc = bk.blocks[bk.entry as usize].first as usize + 1;
        let Op::CmpBr { a, b, .. } = bk.code[pc] else {
            panic!("expected fused compare-and-branch, got {:?}", bk.code[pc]);
        };
        let TimingRec { first, second } = bk.timing()[pc];
        assert_eq!(u64::from(first.lat), cost::ALU_LATENCY);
        assert_eq!(u64::from(second.lat), cost::BRANCH_LATENCY);
        assert_eq!(bk.lats[pc], cost::ALU_LATENCY + cost::BRANCH_LATENCY);
        let [a, b] = [a, b].map(cell);
        assert_eq!(first.srcs, [a, b, ZERO_CELL]);
        assert_eq!(first.dst, LINK_CELL);
        assert_eq!(second.srcs, [ZERO_CELL, ZERO_CELL, LINK_CELL]);
        assert_eq!(second.dst, SINK_CELL);

        // The fused gep+store: the store waits on the value and on the
        // address the gep half computed.
        let pc = bk.blocks[3].first as usize;
        let Op::GepStore { v, .. } = bk.code[pc] else {
            panic!("expected fused gep+store, got {:?}", bk.code[pc]);
        };
        let TimingRec { first, second } = bk.timing()[pc];
        assert_eq!(first.dst, LINK_CELL);
        assert_eq!(second.srcs, [cell(v), ZERO_CELL, LINK_CELL]);
        assert_eq!(second.dst, SINK_CELL);
    }

    #[test]
    fn gep_store_fuses_and_elides_dead_addr() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        // Join block body: gep + store fuse into one op (φs live in the
        // edge tables), and nothing else reads the address register. The
        // op carries the element size and the stored value's static type.
        let join = &bk.blocks[3];
        let fused = bk.code[join.first as usize];
        let Op::GepStore { gd, elem, ty, .. } = fused else {
            panic!("expected fused gep+store, got {fused:?}");
        };
        assert_eq!((gd, elem, ty), (NO_DST, 4, Type::I32));
    }

    #[test]
    fn constants_and_params_get_dedicated_slots() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        // 6 result slots + consts {4, 2, 5} + param 0.
        assert_eq!(bk.register_slots(), bk.program_slots as usize + 4);
        assert_eq!(bk.consts.len(), 3);
        assert_eq!(bk.param_slots.len(), 1);
    }

    #[test]
    fn phi_edges_cover_both_predecessors() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        let join = &bk.blocks[3];
        assert_eq!(join.phi_end - join.phi_start, 2);
        assert!(bk.phi_edges[join.phi_start as usize].complete);
        assert_eq!(join.entry_pc, BLOCK_ENTRY);
        assert!(!join.phi_overlap);
        assert!(bk.track_prev);
    }

    #[test]
    fn jump_targets_carry_resume_pcs() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        let join_entry = bk.blocks[3].entry_pc;
        for op in &bk.code {
            if let Op::Jump { t_block, t_pc } = op {
                assert_eq!(*t_block, 3);
                assert_eq!(*t_pc, join_entry);
            }
        }
    }

    #[test]
    fn ops_are_typed_from_static_operand_types() {
        let mut f = Function::new("t", vec![], Type::Void);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let x = b.thread_idx(Dim::X);
        let wide = b.sext(x, Type::I64);
        let _sum = b.add(wide, Value::I64(1));
        let bit = b.trunc(x, Type::I1);
        let _bad = b.shl(bit, bit);
        let _same = b.trunc(x, Type::I32);
        let _undef = b.add(x, Value::Undef(Type::I32));
        b.ret(None);
        let bk = BytecodeKernel::new(&f);
        let ops = &bk.code;
        assert!(matches!(ops[1], Op::Cvt { k: Cvt::Copy, .. }));
        assert!(matches!(ops[2], Op::Add { w: W::I64, .. }));
        assert!(matches!(
            ops[3],
            Op::Cvt {
                k: Cvt::TruncI1,
                ..
            }
        ));
        // `shl` on i1 and `trunc i32 → i32` are undef whatever they read,
        // and still name their operands for the scoreboard.
        let Op::Undef { srcs, .. } = ops[4] else {
            panic!("expected a static undef, got {:?}", ops[4]);
        };
        assert_eq!(srcs, [3, 3, NO_DST]);
        assert!(matches!(ops[5], Op::Undef { .. }));
        // An `undef` operand is a slot like any other, never listed among
        // the materialized constants.
        let Op::Add {
            w: W::I32, b: u, ..
        } = ops[6]
        else {
            panic!("expected a typed add, got {:?}", ops[6]);
        };
        assert!(u >= bk.program_slots);
        assert!(bk.consts.iter().all(|&(s, _)| s != u));
    }
}
