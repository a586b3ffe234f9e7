//! Flat register bytecode: [`BytecodeKernel`].
//!
//! The decoded records (`crate::decoded`) resolve operands to register
//! slots, but executing them directly would still pay per instruction for
//! work that can be finished at compile time: an ~80-byte record copy, a
//! three-way operand-kind match per operand per lane, a second opcode
//! match in the charge model, and a reconvergence-stack writeback. This
//! module lowers them once more, into a shape where the execute loop
//! (`exec_bc`) does nothing per op but index flat arrays:
//!
//! * **fixed-width ops** (`Op`) carrying pre-resolved register slots
//!   only — dispatch is a single `match` on a dense discriminant;
//! * **immediate folding via constant slots**: every distinct constant
//!   and every referenced parameter gets a register slot of its own,
//!   materialized once per thread block, so *all* operand reads are plain
//!   register-file loads and the operand-kind match disappears;
//! * **fused compare-and-branch** (`Op::CmpBr`): an `icmp` whose result
//!   feeds the block's terminating `br` collapses into one op (the
//!   compare result is still written to its register when other
//!   instructions read it), charging stats for both halves exactly as the
//!   unfused pair would;
//! * **fused address-and-access** (`Op::GepLoad`/`Op::GepStore`): a
//!   `gep` feeding the immediately following load/store collapses into one
//!   op, skipping a dispatch and — when nothing else reads the address — a
//!   per-lane register round-trip, again with unfused-identical charging;
//! * **fused φ-resolution**: per-(block, predecessor) edge tables of
//!   register-to-register moves (`PhiEdge`), applied per predecessor
//!   *bucket* of lanes at block entry — replacing a per-φ, per-lane
//!   linear search over incoming lists;
//! * **block-fallthrough elimination**: every `jump`/`br` target carries
//!   the pre-computed op index to resume at (`BcBlock::entry_pc`), so
//!   straight-line control transfers stay inside the dispatch loop with
//!   no stack traffic (the `jump` itself is still charged — the cycle
//!   model is untouched).
//!
//! The lowering preserves the reference interpreter's semantics
//! bit-for-bit: identical buffer contents, identical
//! [`crate::KernelStats`], identical [`crate::SimError`] values (including
//! error ordering relative to instruction-budget exhaustion and partial
//! buffer writes). The differential suites in `tests/` hold the engine to
//! that contract against [`crate::reference`].

use crate::decoded::{DOperand, PreparedKernel, BLOCK_ENTRY, NO_BLOCK, NO_DST};
use crate::mem::RawVal;
use darm_ir::{FcmpPred, Function, IcmpPred, Opcode, Type};

/// One fixed-width bytecode op. All `u32` fields are register slots unless
/// named `*_block` (dense block index) or `*_pc` (absolute op index).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Add {
        d: u32,
        a: u32,
        b: u32,
    },
    Sub {
        d: u32,
        a: u32,
        b: u32,
    },
    Mul {
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
    Shl {
        d: u32,
        a: u32,
        b: u32,
    },
    LShr {
        d: u32,
        a: u32,
        b: u32,
    },
    AShr {
        d: u32,
        a: u32,
        b: u32,
    },
    /// `SDiv`/`SRem`/`UDiv`/`URem`; `ty` picks the result width.
    Div {
        op: Opcode,
        ty: Type,
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
    ZextSext {
        zext: bool,
        ty: Type,
        d: u32,
        a: u32,
    },
    Trunc {
        ty: Type,
        d: u32,
        a: u32,
    },
    SiToFp {
        d: u32,
        a: u32,
    },
    FpToSi {
        ty: Type,
        d: u32,
        a: u32,
    },
    Gep {
        elem: u64,
        d: u32,
        a: u32,
        b: u32,
    },
    Load {
        ty: Type,
        d: u32,
        a: u32,
    },
    Store {
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
        v: u32,
    },
    ThreadIdx {
        dim: darm_ir::Dim,
        d: u32,
    },
    BlockIdx {
        dim: darm_ir::Dim,
        d: u32,
    },
    BlockDim {
        dim: darm_ir::Dim,
        d: u32,
    },
    GridDim {
        dim: darm_ir::Dim,
        d: u32,
    },
    SharedBase {
        off: u64,
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

/// A kernel lowered to the flat register bytecode, run by
/// [`crate::Gpu::launch_bytecode`].
///
/// Compiles from a [`Function`] via [`BytecodeKernel::new`]; borrows
/// nothing, so compile once and launch any number of times, from any
/// geometry. See the [module docs](self) for what the lowering does.
#[derive(Debug, Clone)]
pub struct BytecodeKernel {
    pub(crate) name: String,
    pub(crate) params: Vec<Type>,
    /// Register-file slots per thread: the decoder's dense result
    /// slots first, then the materialized constant/parameter slots.
    pub(crate) n_slots: u32,
    /// Count of the program-writable slot prefix (`[0, program_slots)`).
    /// Slots above it hold constants/parameters, which no op ever writes —
    /// so they are materialized once per launch and survive the per-block
    /// register reset.
    pub(crate) program_slots: u32,
    pub(crate) code: Vec<Op>,
    /// Per-op issue latency, parallel to `code`. A fused [`Op::CmpBr`]
    /// carries the compare latency plus the branch latency (the split is
    /// unobservable: stats are discarded on error, and the budget — which
    /// *is* observable — is charged separately).
    pub(crate) lats: Vec<u64>,
    pub(crate) blocks: Vec<BcBlock>,
    /// `(slot, value)` constants to materialize per thread per block launch.
    pub(crate) consts: Vec<(u32, RawVal)>,
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
    /// Block labels, for diagnostics only.
    pub(crate) block_names: Vec<String>,
    pub(crate) entry: u32,
    pub(crate) shared_size: u64,
    /// Whether terminators must record per-lane provenance. Only φs read
    /// it, so a φ-free kernel skips the bookkeeping entirely. (Per-branch
    /// elision would be unsound: a lane that returns inside a divergent
    /// arm is resurrected at the reconvergence point, where a φ may read
    /// a `prev` recorded arbitrarily far away.)
    pub(crate) track_prev: bool,
}

/// Bit-exact identity for constant dedup (`f32` by bit pattern, so `0.0`
/// and `-0.0` stay distinct and NaNs compare by payload).
fn imm_bits(v: RawVal) -> (u8, u64) {
    match v {
        RawVal::I1(b) => (0, b as u64),
        RawVal::I32(x) => (1, x as u32 as u64),
        RawVal::I64(x) => (2, x as u64),
        RawVal::F32(f) => (3, f.to_bits() as u64),
        RawVal::Ptr(p) => (4, p),
        RawVal::Undef => (5, 0),
    }
}

/// Allocates constant/parameter register slots above the decoder's dense
/// result slots.
struct SlotAlloc {
    n_slots: u32,
    consts: Vec<(u32, RawVal)>,
    param_slots: Vec<(u32, u32)>,
}

impl SlotAlloc {
    fn slot(&mut self, op: DOperand) -> u32 {
        match op {
            DOperand::Reg(s) => s,
            DOperand::Param(i) => {
                if let Some(&(s, _)) = self.param_slots.iter().find(|&&(_, pi)| pi == i) {
                    return s;
                }
                let s = self.n_slots;
                self.n_slots += 1;
                self.param_slots.push((s, i));
                s
            }
            DOperand::Imm(v) => {
                let key = imm_bits(v);
                if let Some(&(s, _)) = self.consts.iter().find(|&&(_, c)| imm_bits(c) == key) {
                    return s;
                }
                let s = self.n_slots;
                self.n_slots += 1;
                self.consts.push((s, v));
                s
            }
        }
    }
}

impl BytecodeKernel {
    /// Compiles `func`: decode, then bytecode lowering.
    pub fn new(func: &Function) -> BytecodeKernel {
        BytecodeKernel::from_prepared(&PreparedKernel::new(func))
    }

    /// Lowers a decoded kernel to bytecode.
    fn from_prepared(pk: &PreparedKernel) -> BytecodeKernel {
        let mut alloc = SlotAlloc {
            n_slots: pk.n_slots,
            consts: Vec::new(),
            param_slots: Vec::new(),
        };

        // Register use counts, to keep a fused compare's destination write
        // when anything besides its branch reads it.
        let mut uses = vec![0u32; pk.n_slots as usize];
        let mut bump = |op: DOperand| {
            if let DOperand::Reg(s) = op {
                uses[s as usize] += 1;
            }
        };
        for inst in &pk.insts {
            for op in inst.ops {
                bump(op);
            }
        }
        for &(_, op) in &pk.phi_incomings {
            bump(op);
        }

        let mut code: Vec<Op> = Vec::with_capacity(pk.insts.len());
        let mut lats: Vec<u64> = Vec::with_capacity(pk.insts.len());
        let mut blocks: Vec<BcBlock> = Vec::with_capacity(pk.blocks.len());
        let mut phi_edges: Vec<PhiEdge> = Vec::new();
        let mut phi_moves: Vec<(u32, u32)> = Vec::new();
        let mut phi_missing: Vec<(u32, u32, u32)> = Vec::new();

        for db in &pk.blocks {
            // φ tables → per-predecessor move lists.
            let phis = &pk.phis[db.phi_start as usize..db.phi_end as usize];
            let phi_start = phi_edges.len() as u32;
            let block_moves_start = phi_moves.len();
            if !phis.is_empty() {
                let mut preds: Vec<u32> = Vec::new();
                for phi in phis {
                    for &(p, _) in &pk.phi_incomings[phi.inc_start as usize..phi.inc_end as usize] {
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                }
                for &p in &preds {
                    let m_start = phi_moves.len() as u32;
                    let mut complete = true;
                    for (k, phi) in phis.iter().enumerate() {
                        let incs = &pk.phi_incomings[phi.inc_start as usize..phi.inc_end as usize];
                        match incs.iter().find(|&&(q, _)| q == p) {
                            Some(&(_, op)) => phi_moves.push((phi.dst, alloc.slot(op))),
                            None => {
                                complete = false;
                                phi_missing.push((blocks.len() as u32, k as u32, p));
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
            }
            let phi_end = phi_edges.len() as u32;
            let phi_overlap = phi_moves[block_moves_start..]
                .iter()
                .any(|&(_, s)| phis.iter().any(|phi| phi.dst == s));

            // Body → ops (with compare-and-branch fusion).
            let first = code.len() as u32;
            let insts = &pk.insts[db.first as usize..db.end as usize];
            for inst in insts {
                let op = lower_inst(inst, &mut alloc, &uses, &mut code, first);
                let lat = match op {
                    // Fusion popped the compare; fold its latency in.
                    Op::CmpBr { .. } => lats.pop().expect("fused compare emitted") + inst.latency,
                    // A fused gep+mem op keeps only the gep's ALU latency:
                    // the memory half's cycles come from the cost model,
                    // exactly as they would unfused.
                    Op::GepLoad { .. } | Op::GepStore { .. } => {
                        lats.pop().expect("fused gep emitted")
                    }
                    _ => inst.latency,
                };
                code.push(op);
                lats.push(lat);
            }
            blocks.push(BcBlock {
                first,
                entry_pc: if phis.is_empty() { first } else { BLOCK_ENTRY },
                ipdom: db.ipdom,
                phi_start,
                phi_end,
                phi_overlap,
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
            name: pk.name.clone(),
            params: pk.params.clone(),
            n_slots: alloc.n_slots,
            program_slots: pk.n_slots,
            code,
            lats,
            blocks,
            consts: alloc.consts,
            param_slots: alloc.param_slots,
            phi_edges,
            phi_moves,
            phi_missing,
            block_names: pk.block_names.clone(),
            entry: pk.entry,
            shared_size: pk.shared_size,
            track_prev: !pk.phis.is_empty(),
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

    /// Number of bytecode ops (compare-and-branch fusions count once) —
    /// a code-size metric for reporting.
    pub fn op_count(&self) -> usize {
        self.code.len()
    }

    /// Per-thread register file size in slots, constant/parameter slots
    /// included.
    pub fn register_slots(&self) -> usize {
        self.n_slots as usize
    }

    pub(crate) fn block_name(&self, dense: u32) -> &str {
        if dense == NO_BLOCK {
            "<none>"
        } else {
            &self.block_names[dense as usize]
        }
    }
}

/// Lowers one decoded instruction record, fusing a terminating `br` with
/// the `icmp` just emitted when the compare feeds the branch.
fn lower_inst(
    inst: &crate::decoded::DInst,
    alloc: &mut SlotAlloc,
    uses: &[u32],
    code: &mut Vec<Op>,
    block_first: u32,
) -> Op {
    use Opcode as O;
    let d = inst.dst;
    let mut s = |k: usize| alloc.slot(inst.ops[k]);
    match inst.opcode {
        O::Add => Op::Add {
            d,
            a: s(0),
            b: s(1),
        },
        O::Sub => Op::Sub {
            d,
            a: s(0),
            b: s(1),
        },
        O::Mul => Op::Mul {
            d,
            a: s(0),
            b: s(1),
        },
        O::And => Op::And {
            d,
            a: s(0),
            b: s(1),
        },
        O::Or => Op::Or {
            d,
            a: s(0),
            b: s(1),
        },
        O::Xor => Op::Xor {
            d,
            a: s(0),
            b: s(1),
        },
        O::Shl => Op::Shl {
            d,
            a: s(0),
            b: s(1),
        },
        O::LShr => Op::LShr {
            d,
            a: s(0),
            b: s(1),
        },
        O::AShr => Op::AShr {
            d,
            a: s(0),
            b: s(1),
        },
        O::SDiv | O::SRem | O::UDiv | O::URem => Op::Div {
            op: inst.opcode,
            ty: inst.ty,
            d,
            a: s(0),
            b: s(1),
        },
        O::FAdd => Op::FAdd {
            d,
            a: s(0),
            b: s(1),
        },
        O::FSub => Op::FSub {
            d,
            a: s(0),
            b: s(1),
        },
        O::FMul => Op::FMul {
            d,
            a: s(0),
            b: s(1),
        },
        O::FDiv => Op::FDiv {
            d,
            a: s(0),
            b: s(1),
        },
        O::FSqrt => Op::FSqrt { d, a: s(0) },
        O::FAbs => Op::FAbs { d, a: s(0) },
        O::FNeg => Op::FNeg { d, a: s(0) },
        O::FExp => Op::FExp { d, a: s(0) },
        O::Icmp(p) => Op::Icmp {
            p,
            d,
            a: s(0),
            b: s(1),
        },
        O::Fcmp(p) => Op::Fcmp {
            p,
            d,
            a: s(0),
            b: s(1),
        },
        O::Select => Op::Select {
            d,
            c: s(0),
            a: s(1),
            b: s(2),
        },
        O::Zext | O::Sext => Op::ZextSext {
            zext: inst.opcode == O::Zext,
            ty: inst.ty,
            d,
            a: s(0),
        },
        O::Trunc => Op::Trunc {
            ty: inst.ty,
            d,
            a: s(0),
        },
        O::SiToFp => Op::SiToFp { d, a: s(0) },
        O::FpToSi => Op::FpToSi {
            ty: inst.ty,
            d,
            a: s(0),
        },
        O::Gep { .. } => Op::Gep {
            elem: inst.aux,
            d,
            a: s(0),
            b: s(1),
        },
        O::Load => {
            // Fuse with the gep emitted immediately before when it computes
            // this load's address (same shape as compare-and-branch fusion).
            if let DOperand::Reg(addr) = inst.ops[0] {
                if code.len() as u32 > block_first {
                    if let Some(&Op::Gep { elem, d: gd, a, b }) = code.last() {
                        if gd == addr {
                            code.pop();
                            let keep = if uses[gd as usize] > 1 { gd } else { NO_DST };
                            return Op::GepLoad {
                                elem,
                                gd: keep,
                                ga: a,
                                gb: b,
                                ty: inst.ty,
                                d,
                            };
                        }
                    }
                }
            }
            Op::Load {
                ty: inst.ty,
                d,
                a: s(0),
            }
        }
        O::Store => {
            let v = s(0);
            if let DOperand::Reg(addr) = inst.ops[1] {
                if code.len() as u32 > block_first {
                    if let Some(&Op::Gep { elem, d: gd, a, b }) = code.last() {
                        if gd == addr {
                            code.pop();
                            let keep = if uses[gd as usize] > 1 { gd } else { NO_DST };
                            return Op::GepStore {
                                elem,
                                gd: keep,
                                ga: a,
                                gb: b,
                                v,
                            };
                        }
                    }
                }
            }
            Op::Store { v, a: s(1) }
        }
        O::ThreadIdx(dim) => Op::ThreadIdx { dim, d },
        O::BlockIdx(dim) => Op::BlockIdx { dim, d },
        O::BlockDim(dim) => Op::BlockDim { dim, d },
        O::GridDim(dim) => Op::GridDim { dim, d },
        O::SharedBase(_) => Op::SharedBase { off: inst.aux, d },
        O::Ballot => Op::Ballot { d, a: s(0) },
        O::Syncthreads => Op::Sync,
        O::Ret => Op::Ret,
        O::Jump => Op::Jump {
            t_block: inst.succs[0],
            t_pc: 0,
        },
        O::Br => {
            let (t_block, e_block) = (inst.succs[0], inst.succs[1]);
            // Fuse with the compare emitted immediately before, inside this
            // block, when it defines the branch condition.
            if inst.cond_slot != NO_DST && code.len() as u32 > block_first {
                if let Some(&Op::Icmp { p, d: cd, a, b }) = code.last() {
                    if cd == inst.cond_slot {
                        code.pop();
                        // `uses` counts the branch's own read; > 1 means
                        // someone else reads the compare result too.
                        let keep = if uses[cd as usize] > 1 { cd } else { NO_DST };
                        return Op::CmpBr {
                            p,
                            d: keep,
                            a,
                            b,
                            t_block,
                            t_pc: 0,
                            e_block,
                            e_pc: 0,
                        };
                    }
                }
            }
            Op::Br {
                c: alloc.slot(inst.ops[0]),
                t_block,
                t_pc: 0,
                e_block,
                e_pc: 0,
            }
        }
        O::Phi => unreachable!("phis live in the phi tables, not the instruction stream"),
    }
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
        // edge tables), and nothing else reads the address register.
        let join = &bk.blocks[3];
        let fused = bk.code[join.first as usize];
        let Op::GepStore { gd, .. } = fused else {
            panic!("expected fused gep+store, got {fused:?}");
        };
        assert_eq!(gd, NO_DST);
    }

    #[test]
    fn constants_and_params_get_dedicated_slots() {
        let f = diamond();
        let pk = PreparedKernel::new(&f);
        let bk = BytecodeKernel::from_prepared(&pk);
        // 6 result slots + consts {4, 2, 5} + param 0.
        assert_eq!(bk.register_slots(), pk.n_slots as usize + 4);
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
}
