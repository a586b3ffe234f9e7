//! Pre-decoded kernel representation: [`PreparedKernel`], the lowering
//! input of [`crate::BytecodeKernel`].
//!
//! Decoding resolves everything the [`Function`] arena leaves symbolic, once
//! per kernel, into flat arrays the bytecode lowering walks with nothing
//! but integer indexing:
//!
//! * one dense `DInst` record per live instruction, grouped by block,
//!   with operands pre-resolved to register slots / immediates / parameter
//!   indices (no `Value` matching later);
//! * per-block instruction ranges plus a φ table keyed by predecessor;
//! * result slots renumbered densely, so the per-thread register file is
//!   exactly as large as the number of live results (tombstoned arena
//!   entries cost nothing);
//! * the control-flow facts a launch needs — the [`Cfg`], the
//!   [`PostDomTree`] and the IPDOM of every block — collapsed into one
//!   `Option<u32>` per block;
//! * the shared-memory arena layout.

use crate::mem::RawVal;
use darm_analysis::{Cfg, PostDomTree};
use darm_ir::{cost, Function, Opcode, Type, Value};

/// Sentinel for "no destination register" (void results).
pub(crate) const NO_DST: u32 = u32::MAX;
/// Sentinel for "no block" (used for reconvergence targets and φ provenance).
pub(crate) const NO_BLOCK: u32 = u32::MAX;
/// Sentinel instruction index marking "at block entry, φs not yet run".
pub(crate) const BLOCK_ENTRY: u32 = u32::MAX;

/// An operand with its [`Value`] resolution done at decode time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum DOperand {
    /// Result of another instruction, by dense register slot.
    Reg(u32),
    /// The n-th kernel parameter (resolved per launch).
    Param(u32),
    /// A constant (or `undef`), already converted to a runtime value.
    Imm(RawVal),
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DInst {
    /// Opcode.
    pub opcode: Opcode,
    /// Result type.
    pub ty: Type,
    /// Destination register slot, or [`NO_DST`].
    pub dst: u32,
    /// Up to three pre-resolved operands (`select` is the widest).
    pub ops: [DOperand; 3],
    /// Successor blocks of a terminator, as dense block indices.
    pub succs: [u32; 2],
    /// Pre-computed `cost::latency(opcode, None)` for the charge model.
    pub latency: u64,
    /// Opcode-specific immediate: GEP element size in bytes, or the shared
    /// arena byte offset for `SharedBase`.
    pub aux: u64,
    /// For `Br` whose condition is a register: the condition's slot.
    /// [`NO_DST`] for every other opcode and for lane-invariant
    /// (constant/parameter) conditions.
    pub cond_slot: u32,
}

/// One φ definition: destination slot plus a range into
/// [`PreparedKernel::phi_incomings`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhiDef {
    pub dst: u32,
    pub inc_start: u32,
    pub inc_end: u32,
}

/// One decoded basic block: instruction and φ ranges into the flat arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DBlock {
    /// First non-φ instruction (index into [`PreparedKernel::insts`]).
    pub first: u32,
    /// One past the terminator.
    pub end: u32,
    /// φ definitions of this block (range into [`PreparedKernel::phis`]).
    pub phi_start: u32,
    pub phi_end: u32,
    /// Immediate post-dominator (dense), or [`NO_BLOCK`].
    pub ipdom: u32,
}

/// A kernel decoded into flat records, with the control-flow analyses
/// (CFG + post-dominator tree) already folded into per-block IPDOMs.
#[derive(Debug, Clone)]
pub(crate) struct PreparedKernel {
    pub(crate) name: String,
    pub(crate) params: Vec<Type>,
    /// Dense register file size per thread.
    pub(crate) n_slots: u32,
    pub(crate) blocks: Vec<DBlock>,
    pub(crate) insts: Vec<DInst>,
    pub(crate) phis: Vec<PhiDef>,
    /// `(pred dense block, value)` pairs, grouped per φ.
    pub(crate) phi_incomings: Vec<(u32, DOperand)>,
    /// Block labels, for diagnostics only.
    pub(crate) block_names: Vec<String>,
    pub(crate) entry: u32,
    pub(crate) shared_offsets: Vec<u64>,
    pub(crate) shared_size: u64,
}

impl PreparedKernel {
    /// Decodes `func` into the flat execution format.
    ///
    /// The function must be structurally valid (see
    /// [`Function::verify_structure`]); decoding panics on dangling
    /// references, like the arena accessors themselves do.
    pub(crate) fn new(func: &Function) -> PreparedKernel {
        let cfg = Cfg::new(func);
        let pdt = PostDomTree::new(func, &cfg);

        // Dense block numbering, in creation order (entry first).
        let block_ids = func.block_ids();
        let mut dense_of = vec![NO_BLOCK; func.block_capacity()];
        for (k, &b) in block_ids.iter().enumerate() {
            dense_of[b.index()] = k as u32;
        }

        // Dense register-slot numbering for every live value-producing
        // instruction (φs included).
        let mut slot_of = vec![NO_DST; func.inst_capacity()];
        let mut n_slots = 0u32;
        for &b in &block_ids {
            for &id in func.insts_of(b) {
                if func.inst(id).ty != Type::Void {
                    slot_of[id.index()] = n_slots;
                    n_slots += 1;
                }
            }
        }

        let operand = |v: Value| -> DOperand {
            match v {
                Value::Inst(id) => DOperand::Reg(slot_of[id.index()]),
                Value::Param(i) => DOperand::Param(i),
                Value::I1(b) => DOperand::Imm(RawVal::I1(b)),
                Value::I32(x) => DOperand::Imm(RawVal::I32(x)),
                Value::I64(x) => DOperand::Imm(RawVal::I64(x)),
                Value::F32Bits(bits) => DOperand::Imm(RawVal::F32(f32::from_bits(bits))),
                Value::Undef(_) => DOperand::Imm(RawVal::Undef),
            }
        };

        // Shared arena layout (same 8-byte alignment rule the launches used).
        let mut shared_offsets = Vec::with_capacity(func.shared_arrays().len());
        let mut shared_size = 0u64;
        for arr in func.shared_arrays() {
            shared_offsets.push(shared_size);
            shared_size += arr.size_bytes();
            shared_size = (shared_size + 7) & !7;
        }

        let mut pk = PreparedKernel {
            name: func.name().to_string(),
            params: func.params().to_vec(),
            n_slots,
            blocks: Vec::with_capacity(block_ids.len()),
            insts: Vec::new(),
            phis: Vec::new(),
            phi_incomings: Vec::new(),
            block_names: Vec::with_capacity(block_ids.len()),
            entry: dense_of[func.entry().index()],
            shared_offsets,
            shared_size,
        };

        for &b in &block_ids {
            pk.block_names.push(func.block_name(b).to_string());
            let phi_start = pk.phis.len() as u32;
            let mut iter = func.insts_of(b).iter().copied().peekable();
            // φ prefix → φ table.
            while let Some(&id) = iter.peek() {
                let data = func.inst(id);
                if !data.opcode.is_phi() {
                    break;
                }
                iter.next();
                let inc_start = pk.phi_incomings.len() as u32;
                for (pred, v) in data.phi_incoming() {
                    pk.phi_incomings.push((dense_of[pred.index()], operand(v)));
                }
                pk.phis.push(PhiDef {
                    dst: slot_of[id.index()],
                    inc_start,
                    inc_end: pk.phi_incomings.len() as u32,
                });
            }
            let phi_end = pk.phis.len() as u32;
            // Straight-line body + terminator → dense records.
            let first = pk.insts.len() as u32;
            for id in iter {
                let data = func.inst(id);
                let mut ops = [DOperand::Imm(RawVal::Undef); 3];
                for (k, &v) in data.operands.iter().take(3).enumerate() {
                    ops[k] = operand(v);
                }
                let mut succs = [NO_BLOCK; 2];
                for (k, &s) in data.succs.iter().take(2).enumerate() {
                    succs[k] = dense_of[s.index()];
                }
                let aux = match data.opcode {
                    Opcode::Gep { elem } => elem.size_bytes(),
                    Opcode::SharedBase(k) => pk.shared_offsets[k as usize],
                    _ => 0,
                };
                let cond_slot = match (data.opcode, ops[0]) {
                    (Opcode::Br, DOperand::Reg(s)) => s,
                    _ => NO_DST,
                };
                pk.insts.push(DInst {
                    opcode: data.opcode,
                    ty: data.ty,
                    dst: slot_of[id.index()],
                    ops,
                    succs,
                    latency: cost::latency(data.opcode, None),
                    aux,
                    cond_slot,
                });
            }
            let end = pk.insts.len() as u32;
            let ipdom = pdt
                .ipdom(b)
                .map(|p| dense_of[p.index()])
                .unwrap_or(NO_BLOCK);
            pk.blocks.push(DBlock {
                first,
                end,
                phi_start,
                phi_end,
                ipdom,
            });
        }
        pk
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
    fn decode_shapes_match_function() {
        let f = diamond();
        let pk = PreparedKernel::new(&f);
        assert_eq!(pk.blocks.len(), 4);
        assert_eq!(pk.name, "d");
        // entry: tid, icmp, br → 3 records, 2 slots
        let entry = pk.blocks[pk.entry as usize];
        assert_eq!(entry.end - entry.first, 3);
        assert_eq!(entry.phi_start, entry.phi_end);
        // join block: one φ with two incomings, then gep/store/ret
        let join = pk.blocks[3];
        assert_eq!(join.phi_end - join.phi_start, 1);
        let phi = pk.phis[join.phi_start as usize];
        assert_eq!(phi.inc_end - phi.inc_start, 2);
        assert_eq!(join.end - join.first, 3);
        // diamond arms reconverge at the join
        assert_eq!(pk.blocks[1].ipdom, 3);
        assert_eq!(pk.blocks[2].ipdom, 3);
        assert_eq!(join.ipdom, NO_BLOCK);
    }

    #[test]
    fn slots_are_dense_over_live_results() {
        let f = diamond();
        let pk = PreparedKernel::new(&f);
        // tid, icmp, mul, add, φ, gep → 6 value-producing instructions.
        assert_eq!(pk.n_slots, 6);
        assert!((pk.n_slots as usize) < f.inst_capacity() + 1);
    }

    #[test]
    fn gep_aux_holds_element_size() {
        let f = diamond();
        let pk = PreparedKernel::new(&f);
        let gep = pk
            .insts
            .iter()
            .find(|i| matches!(i.opcode, Opcode::Gep { .. }))
            .expect("diamond has a gep");
        assert_eq!(gep.aux, 4);
    }
}
