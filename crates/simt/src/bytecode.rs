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
//!   uniform control transfers never touch the reconvergence stack.

use darm_analysis::{Cfg, PostDomTree};
use darm_ir::{cost, BlockId, FcmpPred, Function, IcmpPred, InstData, Opcode, Type, Value};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    pub(crate) name: String,
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
    /// Block labels back to back, for diagnostics only.
    names: String,
    pub(crate) entry: u32,
    pub(crate) shared_size: u64,
    /// Whether terminators must record per-lane provenance. Only φs read
    /// it, so a φ-free kernel skips the bookkeeping entirely. (Per-branch
    /// elision would be unsound: a lane that returns inside a divergent
    /// arm is resurrected at the reconvergence point, where a φ may read
    /// a `prev` recorded arbitrarily far away.)
    pub(crate) track_prev: bool,
}

/// Lowering state: value → slot resolution over the function's arena.
struct Lower<'f> {
    func: &'f Function,
    /// Program slot of each value-producing instruction, by arena index.
    slot_of: Vec<u32>,
    /// Operand uses of each instruction's result, by arena index.
    uses: Vec<u32>,
    n_slots: u32,
    consts: Vec<(u32, u64)>,
    const_slot: HashMap<u64, u32, BuildHasherDefault<CellHasher>>,
    param_slots: Vec<(u32, u32)>,
    /// The always-undefined constant slot, once something needs it.
    undef: Option<u32>,
    /// Destination of ill-typed value-less "results", once needed.
    sink: Option<u32>,
}

/// The constant-slot map's hasher. Its keys are single `u64` cells, so one
/// multiply replaces SipHash's rounds; folding the product's high half into
/// the low one (which picks the bucket) keeps `f32` cells, whose low bits
/// are mostly zero, from sharing a bucket. The keys are not defended
/// against crafted collisions: they are the constants of a kernel its
/// caller is about to run, and `darm serve`, which takes requests from
/// outside, never lowers.
#[derive(Default)]
struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The slot cached in `slot`, allocated from `n_slots` on first use.
fn lazy_slot(slot: &mut Option<u32>, n_slots: &mut u32) -> u32 {
    *slot.get_or_insert_with(|| {
        *n_slots += 1;
        *n_slots - 1
    })
}

impl Lower<'_> {
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
        if let Some(&s) = self.const_slot.get(&cell) {
            return s;
        }
        let s = self.fresh();
        self.consts.push((s, cell));
        self.const_slot.insert(cell, s);
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

impl BytecodeKernel {
    /// Lowers `func` to bytecode.
    ///
    /// Every table is presized from counts taken in one sweep ahead of the
    /// lowering walk, so lowering allocates a fixed number of times
    /// whatever the function's size (`tests/lower_allocs.rs` counts).
    pub fn new(func: &Function) -> BytecodeKernel {
        let cfg = Cfg::new(func);
        let pdt = PostDomTree::new(func, &cfg);
        // Live blocks in creation order (entry first): the dense numbering.
        let live = || {
            (0..func.block_capacity())
                .map(BlockId::new)
                .filter(|&b| func.is_block_alive(b))
        };

        // The sweep: dense block numbers; a dense slot for every live
        // value-producing instruction (φs included) and the use counts
        // fusion consults, ahead of the walk because operands may name
        // later instructions; which block's φ writes each slot; and the
        // sizes of the tables below.
        let mut dense_of = vec![NO_BLOCK; func.block_capacity()];
        let mut slot_of = vec![NO_DST; func.inst_capacity()];
        let mut uses = vec![0; func.inst_capacity()];
        let mut phi_block_of_slot = vec![NO_BLOCK; func.inst_capacity()];
        let (mut n_blocks, mut n_slots, mut n_insts, mut n_incoming) = (0, 0, 0, 0);
        let (mut n_const_uses, mut name_bytes) = (0, 0);
        for b in live() {
            dense_of[b.index()] = n_blocks;
            name_bytes += func.block_name(b).len();
            n_insts += func.insts_of(b).len();
            for &id in func.insts_of(b) {
                let data = func.inst(id);
                let is_phi = data.opcode.is_phi();
                if data.ty != Type::Void {
                    slot_of[id.index()] = n_slots;
                    if is_phi {
                        phi_block_of_slot[n_slots as usize] = n_blocks;
                    }
                    n_slots += 1;
                }
                if is_phi {
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
            n_blocks += 1;
        }
        let program_slots = n_slots;
        let mut lw = Lower {
            func,
            slot_of,
            uses,
            n_slots,
            // At most one slot per constant use.
            consts: Vec::with_capacity(n_const_uses),
            const_slot: HashMap::with_capacity_and_hasher(n_const_uses, Default::default()),
            param_slots: Vec::with_capacity(func.params().len()),
            undef: None,
            sink: None,
        };

        // Shared arena layout (8-byte aligned arrays, declaration order).
        let mut shared_offsets = Vec::with_capacity(func.shared_arrays().len());
        let mut shared_size = 0u64;
        for arr in func.shared_arrays() {
            shared_offsets.push(shared_size);
            shared_size = (shared_size + arr.size_bytes() + 7) & !7;
        }

        let mut code: Vec<Op> = Vec::with_capacity(n_insts);
        let mut lats: Vec<u64> = Vec::with_capacity(n_insts);
        let mut blocks: Vec<BcBlock> = Vec::with_capacity(n_blocks as usize);
        // A block has one φ edge per distinct predecessor its φs name, and
        // each of its φs one move per such predecessor it names: both are
        // bounded by the φ incoming count.
        let mut phi_edges: Vec<PhiEdge> = Vec::with_capacity(n_incoming);
        let mut phi_moves: Vec<(u32, u32)> = Vec::with_capacity(n_incoming);
        let mut phi_missing: Vec<(u32, u32, u32)> = Vec::new();
        let mut names = String::with_capacity(name_bytes);
        // Distinct dense predecessors of one block (`NO_BLOCK` included).
        let mut preds: Vec<u32> = Vec::with_capacity(n_blocks as usize + 1);
        let mut has_phis = false;

        for b in live() {
            let dense = blocks.len() as u32;
            let insts = func.insts_of(b);
            let n_phis = insts
                .iter()
                .take_while(|&&id| func.inst(id).opcode.is_phi())
                .count();
            let (phis, body) = insts.split_at(n_phis);
            has_phis |= n_phis > 0;

            // φ prefix → per-predecessor move lists, predecessors in
            // first-mention order.
            let phi_start = phi_edges.len() as u32;
            let block_moves_start = phi_moves.len();
            preds.clear();
            for &phi in phis {
                for &p in &func.inst(phi).phi_blocks {
                    let p = dense_of[p.index()];
                    if !preds.contains(&p) {
                        preds.push(p);
                    }
                }
            }
            for &p in &preds {
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
            // A `void` (ill-typed) φ has no slot, and matches a source
            // that has none either.
            let void_phi = phis.iter().any(|&phi| lw.slot_of[phi.index()] == NO_DST);
            let phi_overlap = phi_moves[block_moves_start..]
                .iter()
                .any(|&(_, s)| match s {
                    NO_DST => void_phi,
                    s => phi_block_of_slot.get(s as usize) == Some(&dense),
                });

            // Body → ops, fusing as it goes.
            let first = code.len() as u32;
            for &id in body {
                let data = func.inst(id);
                let lat = cost::latency(data.opcode, None);
                let last = code[first as usize..].last().copied();
                let op = lower_inst(&mut lw, id, data, last, &dense_of, &shared_offsets);
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
                ipdom: pdt.ipdom(b).map_or(NO_BLOCK, |p| dense_of[p.index()]),
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
            name: func.name().to_string(),
            params: func.params().to_vec(),
            n_slots: lw.n_slots,
            program_slots,
            code,
            lats,
            blocks,
            consts: lw.consts,
            param_slots: lw.param_slots,
            phi_edges,
            phi_moves,
            phi_missing,
            names,
            entry: dense_of[func.entry().index()],
            shared_size,
            track_prev: has_phis,
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
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

    pub(crate) fn block_name(&self, dense: u32) -> &str {
        match self.blocks.get(dense as usize) {
            Some(b) => &self.names[b.name.0 as usize..b.name.1 as usize],
            None => "<none>",
        }
    }
}

/// Lowers one non-φ instruction to its typed op. `last` is the op emitted
/// just before it in the same block — the candidate for fusion; when the
/// returned op is a fused one, the caller drops `last`.
fn lower_inst(
    lw: &mut Lower<'_>,
    id: darm_ir::InstId,
    data: &InstData,
    last: Option<Op>,
    dense_of: &[u32],
    shared_offsets: &[u64],
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
            if let (Some(Op::Icmp { p, d, a, b }), Some(&Value::Inst(cond))) =
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
            if let (Some(Op::Gep { elem, d, a: ga, b }), Some(&Value::Inst(addr))) =
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
                (Some(Op::Gep { elem, d: gd, a, b }), Some(&Value::Inst(gep))) if gd == addr => {
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
        O::SharedBase(k) => uniform(Uniform::SharedBase(shared_offsets[k as usize])),
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
