//! Instruction opcodes.

use crate::types::Type;
use std::fmt;

/// Grid/block dimension selector for GPU intrinsics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dim {
    /// x dimension.
    X,
    /// y dimension.
    Y,
}

impl Dim {
    /// Textual suffix of the dimension (`x`, `y`).
    pub fn as_str(self) -> &'static str {
        match self {
            Dim::X => "x",
            Dim::Y => "y",
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Integer comparison predicates (LLVM `icmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum IcmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl IcmpPred {
    /// The predicate with operand order swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> IcmpPred {
        use IcmpPred::*;
        match self {
            Eq => Eq,
            Ne => Ne,
            Slt => Sgt,
            Sle => Sge,
            Sgt => Slt,
            Sge => Sle,
            Ult => Ugt,
            Ule => Uge,
            Ugt => Ult,
            Uge => Ule,
        }
    }

    /// Textual mnemonic (`slt`, `uge`, ...).
    pub fn mnemonic(self) -> &'static str {
        use IcmpPred::*;
        match self {
            Eq => "eq",
            Ne => "ne",
            Slt => "slt",
            Sle => "sle",
            Sgt => "sgt",
            Sge => "sge",
            Ult => "ult",
            Ule => "ule",
            Ugt => "ugt",
            Uge => "uge",
        }
    }
}

/// Float comparison predicates (ordered subset of LLVM `fcmp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum FcmpPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

impl FcmpPred {
    /// Textual mnemonic (`oeq`, `olt`, ...).
    pub fn mnemonic(self) -> &'static str {
        use FcmpPred::*;
        match self {
            Oeq => "oeq",
            One => "one",
            Olt => "olt",
            Ole => "ole",
            Ogt => "ogt",
            Oge => "oge",
        }
    }
}

/// Instruction opcodes.
///
/// The set mirrors the LLVM-IR subset that appears in the paper's kernels:
/// integer/float arithmetic, comparisons, `select`, casts, typed memory
/// access in two address spaces, GPU intrinsics, φ-nodes and terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ---- integer binary ----
    /// Integer addition. Operands: `(a, b)`.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Signed division.
    SDiv,
    /// Signed remainder.
    SRem,
    /// Unsigned division.
    UDiv,
    /// Unsigned remainder.
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,

    // ---- float binary ----
    /// Float addition.
    FAdd,
    /// Float subtraction.
    FSub,
    /// Float multiplication.
    FMul,
    /// Float division.
    FDiv,

    // ---- float unary ----
    /// Square root intrinsic.
    FSqrt,
    /// Absolute value intrinsic.
    FAbs,
    /// Negation.
    FNeg,
    /// Exponential intrinsic.
    FExp,

    // ---- comparisons & select ----
    /// Integer comparison; result is `i1`.
    Icmp(IcmpPred),
    /// Float comparison; result is `i1`.
    Fcmp(FcmpPred),
    /// `select cond, a, b`. Operands: `(cond, a, b)`.
    Select,

    // ---- casts ----
    /// Zero extension (i1/i32 → i32/i64).
    Zext,
    /// Sign extension.
    Sext,
    /// Truncation (i64 → i32, i32 → i1).
    Trunc,
    /// Signed int → float.
    SiToFp,
    /// Float → signed int.
    FpToSi,

    // ---- memory ----
    /// Load of the instruction's result type through a pointer operand.
    Load,
    /// `store value, ptr`. The stored type is the type of operand 0.
    Store,
    /// Pointer arithmetic: `ptr + index * size_of(elem)`. Operands `(ptr, index)`.
    Gep {
        /// Element type the index strides over.
        elem: Type,
    },

    // ---- GPU intrinsics ----
    /// Thread index within the block (divergence root).
    ThreadIdx(Dim),
    /// Block index within the grid (uniform).
    BlockIdx(Dim),
    /// Threads per block (uniform).
    BlockDim(Dim),
    /// Blocks per grid (uniform).
    GridDim(Dim),
    /// Base pointer of the function's n-th shared-memory array.
    SharedBase(u32),
    /// Block-wide barrier (`__syncthreads`).
    Syncthreads,
    /// Warp-level ballot (returns an `i64` lane mask). Melding must skip
    /// subgraphs containing warp-level intrinsics (§IV-C).
    Ballot,

    // ---- SSA ----
    /// φ-node. Operand k flows in from `phi_blocks[k]`.
    Phi,

    // ---- terminators ----
    /// Conditional branch. Operands: `(cond)`; successors `[then, else]`.
    Br,
    /// Unconditional branch. Successors `[target]`.
    Jump,
    /// Function return. Operands: `()` or `(value)`.
    Ret,
}

impl Opcode {
    /// Whether this opcode ends a basic block.
    pub fn is_terminator(self) -> bool {
        matches!(self, Opcode::Br | Opcode::Jump | Opcode::Ret)
    }

    /// Whether this is a φ-node.
    pub fn is_phi(self) -> bool {
        matches!(self, Opcode::Phi)
    }

    /// Whether the instruction reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store)
    }

    /// Whether removing an otherwise-unused instance changes behaviour.
    pub fn has_side_effects(self) -> bool {
        matches!(
            self,
            Opcode::Store
                | Opcode::Syncthreads
                | Opcode::Ballot
                | Opcode::Br
                | Opcode::Jump
                | Opcode::Ret
        )
    }

    /// Warp-level intrinsics: subgraphs containing them are never melded
    /// because melding them can deadlock (§IV-C).
    pub fn is_warp_intrinsic(self) -> bool {
        matches!(self, Opcode::Ballot)
    }

    /// Textual mnemonic used by the printer, including the parameter of
    /// the opcodes that carry one (`icmp slt`, `gep i32`, `tid.x`,
    /// `shared.base 0`).
    pub fn mnemonic(self) -> String {
        let mut s = String::new();
        self.write_mnemonic(&mut s)
            .expect("String sink never fails");
        s
    }

    /// Streams [`Opcode::mnemonic`] into `w` without allocating.
    pub fn write_mnemonic(self, w: &mut impl fmt::Write) -> fmt::Result {
        let (head, param) = match self {
            Opcode::Add => ("add", ""),
            Opcode::Sub => ("sub", ""),
            Opcode::Mul => ("mul", ""),
            Opcode::SDiv => ("sdiv", ""),
            Opcode::SRem => ("srem", ""),
            Opcode::UDiv => ("udiv", ""),
            Opcode::URem => ("urem", ""),
            Opcode::And => ("and", ""),
            Opcode::Or => ("or", ""),
            Opcode::Xor => ("xor", ""),
            Opcode::Shl => ("shl", ""),
            Opcode::LShr => ("lshr", ""),
            Opcode::AShr => ("ashr", ""),
            Opcode::FAdd => ("fadd", ""),
            Opcode::FSub => ("fsub", ""),
            Opcode::FMul => ("fmul", ""),
            Opcode::FDiv => ("fdiv", ""),
            Opcode::FSqrt => ("fsqrt", ""),
            Opcode::FAbs => ("fabs", ""),
            Opcode::FNeg => ("fneg", ""),
            Opcode::FExp => ("fexp", ""),
            Opcode::Icmp(p) => ("icmp ", p.mnemonic()),
            Opcode::Fcmp(p) => ("fcmp ", p.mnemonic()),
            Opcode::Select => ("select", ""),
            Opcode::Zext => ("zext", ""),
            Opcode::Sext => ("sext", ""),
            Opcode::Trunc => ("trunc", ""),
            Opcode::SiToFp => ("sitofp", ""),
            Opcode::FpToSi => ("fptosi", ""),
            Opcode::Load => ("load", ""),
            Opcode::Store => ("store", ""),
            Opcode::Gep { elem } => ("gep ", elem.as_str()),
            Opcode::ThreadIdx(d) => ("tid.", d.as_str()),
            Opcode::BlockIdx(d) => ("ctaid.", d.as_str()),
            Opcode::BlockDim(d) => ("ntid.", d.as_str()),
            Opcode::GridDim(d) => ("nctaid.", d.as_str()),
            Opcode::SharedBase(i) => {
                w.write_str("shared.base ")?;
                return crate::printer::write_uint(w, u64::from(i));
            }
            Opcode::Syncthreads => ("bar.sync", ""),
            Opcode::Ballot => ("ballot", ""),
            Opcode::Phi => ("phi", ""),
            Opcode::Br => ("br", ""),
            Opcode::Jump => ("jump", ""),
            Opcode::Ret => ("ret", ""),
        };
        w.write_str(head)?;
        w.write_str(param)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Opcode::Br.is_terminator());
        assert!(Opcode::Jump.is_terminator());
        assert!(Opcode::Ret.is_terminator());
        assert!(!Opcode::Add.is_terminator());
        assert!(!Opcode::Phi.is_terminator());
    }

    #[test]
    fn side_effects() {
        assert!(Opcode::Store.has_side_effects());
        assert!(Opcode::Syncthreads.has_side_effects());
        assert!(!Opcode::Load.has_side_effects());
        assert!(!Opcode::Add.has_side_effects());
    }

    #[test]
    fn swapped_predicates_are_involutions() {
        use IcmpPred::*;
        for p in [Eq, Ne, Slt, Sle, Sgt, Sge, Ult, Ule, Ugt, Uge] {
            assert_eq!(p.swapped().swapped(), p);
        }
        assert_eq!(Slt.swapped(), Sgt);
        assert_eq!(Ule.swapped(), Uge);
    }

    #[test]
    fn warp_intrinsics() {
        assert!(Opcode::Ballot.is_warp_intrinsic());
        assert!(!Opcode::Syncthreads.is_warp_intrinsic());
    }

    #[test]
    fn mnemonics() {
        assert_eq!(Opcode::Icmp(IcmpPred::Slt).mnemonic(), "icmp slt");
        assert_eq!(Opcode::Gep { elem: Type::I32 }.mnemonic(), "gep i32");
        assert_eq!(Opcode::ThreadIdx(Dim::X).mnemonic(), "tid.x");
        assert_eq!(Opcode::SharedBase(12).mnemonic(), "shared.base 12");
    }
}
