//! Static instruction cost model.
//!
//! The analogue of the "modified LLVM cost model" the paper uses to weight
//! the melding profitability metric (§V) and that the SIMT simulator charges
//! per issued warp instruction. Only the *relative* magnitudes matter:
//! shared-memory accesses cost noticeably more than ALU work but far less
//! than global-memory accesses (§VI-D), so melding a pair of divergent LDS
//! instructions saves more thread-cycles than melding a pair of adds.

use crate::function::Function;
use crate::opcode::Opcode;
use crate::types::{AddrSpace, Type};

/// Latency in cycles of a simple ALU operation.
pub const ALU_LATENCY: u64 = 4;
/// Latency in cycles of an integer/float multiply.
pub const MUL_LATENCY: u64 = 8;
/// Latency in cycles of a divide/remainder/sqrt/exp.
pub const DIV_LATENCY: u64 = 40;
/// Issue latency of a shared-memory (LDS) access.
pub const SHARED_MEM_LATENCY: u64 = 32;
/// Issue latency of a global-memory access (one coalesced transaction).
pub const GLOBAL_MEM_LATENCY: u64 = 300;
/// Extra cycles per additional 128-byte segment touched by a divergent
/// global access (memory-controller serialization, §VI-D).
pub const GLOBAL_TRANSACTION_LATENCY: u64 = 80;
/// Cache-line segment size used by the coalescing model.
pub const COALESCE_SEGMENT_BYTES: u64 = 128;
/// Number of shared-memory (LDS) banks.
pub const SHARED_BANKS: u64 = 32;
/// Word size of one shared-memory bank.
pub const SHARED_BANK_WORD_BYTES: u64 = 4;
/// Extra cycles per additional conflicting access to the same bank.
pub const SHARED_BANK_CONFLICT_PENALTY: u64 = 16;
/// Cost of a branch instruction.
pub const BRANCH_LATENCY: u64 = 2;

/// Static latency of one instruction, given the address space its pointer
/// operand lives in (for memory operations).
///
/// [`latency_of`] resolves the address space from a concrete instruction.
pub fn latency(op: Opcode, mem_space: Option<AddrSpace>) -> u64 {
    use Opcode::*;
    match op {
        Add | Sub | And | Or | Xor | Shl | LShr | AShr | Icmp(_) | Fcmp(_) | Select | Zext
        | Sext | Trunc | FNeg | FAbs => ALU_LATENCY,
        Mul | FAdd | FSub | FMul | SiToFp | FpToSi => MUL_LATENCY,
        SDiv | SRem | UDiv | URem | FDiv | FSqrt | FExp => DIV_LATENCY,
        Load | Store => match mem_space {
            Some(AddrSpace::Shared) => SHARED_MEM_LATENCY,
            _ => GLOBAL_MEM_LATENCY,
        },
        Gep { .. } => ALU_LATENCY,
        ThreadIdx(_) | BlockIdx(_) | BlockDim(_) | GridDim(_) | SharedBase(_) => 1,
        Syncthreads => 1,
        Ballot => ALU_LATENCY,
        Phi => 0,
        Br => BRANCH_LATENCY,
        Jump | Ret => 1,
    }
}

/// Latency of a concrete instruction in `func`, resolving the address space
/// of memory operations from the pointer operand's type.
pub fn latency_of(func: &Function, inst: crate::function::InstId) -> u64 {
    let data = func.inst(inst);
    let space = mem_space_of(func, data);
    latency(data.opcode, space)
}

/// The address space accessed by a load/store, if `data` is one.
pub fn mem_space_of(func: &Function, data: &crate::function::InstData) -> Option<AddrSpace> {
    let ptr_idx = match data.opcode {
        Opcode::Load => 0,
        Opcode::Store => 1,
        _ => return None,
    };
    match func.value_ty(data.operands[ptr_idx]) {
        Type::Ptr(space) => Some(space),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::opcode::Dim;

    #[test]
    fn ordering_alu_shared_global() {
        assert!(latency(Opcode::Add, None) < latency(Opcode::Load, Some(AddrSpace::Shared)));
        assert!(
            latency(Opcode::Load, Some(AddrSpace::Shared))
                < latency(Opcode::Load, Some(AddrSpace::Global))
        );
    }

    #[test]
    fn memory_space_resolution() {
        let mut f = Function::new("m", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let s = f.add_shared_array("t", Type::I32, 8);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        let base = b.shared_base(s);
        let tid = b.thread_idx(Dim::X);
        let sp = b.gep(Type::I32, base, tid);
        let sv = b.load(Type::I32, sp);
        let gp = b.gep(Type::I32, b.param(0), tid);
        b.store(sv, gp);
        b.ret(None);

        let ids = f.insts_of(e).to_vec();
        let shared_load = ids[3];
        let global_store = ids[5];
        assert_eq!(latency_of(&f, shared_load), SHARED_MEM_LATENCY);
        assert_eq!(latency_of(&f, global_store), GLOBAL_MEM_LATENCY);
    }
}
