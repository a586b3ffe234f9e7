//! Value types and memory address spaces.

use std::fmt;

/// The memory space a pointer refers to.
///
/// The distinction matters to both the melding profitability model and the
/// SIMT simulator: shared (LDS) accesses are far cheaper than global ones and
/// are the accesses whose melding the paper identifies as most profitable
/// (§VI-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AddrSpace {
    /// Device global memory (coalesced by cache-line segment).
    Global,
    /// Per-thread-block shared memory (LDS).
    Shared,
}

impl fmt::Display for AddrSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddrSpace::Global => write!(f, "global"),
            AddrSpace::Shared => write!(f, "shared"),
        }
    }
}

/// First-class types of the IR.
///
/// Pointers are *opaque* (as in modern LLVM): the pointee type lives on the
/// load/store instruction, not on the pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// No value (function return type of kernels, result of stores, ...).
    Void,
    /// 1-bit boolean (comparison results, branch conditions).
    I1,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// Opaque pointer into the given address space.
    Ptr(AddrSpace),
}

impl Type {
    /// Size in bytes when stored to memory.
    ///
    /// # Panics
    ///
    /// Panics for [`Type::Void`], which has no storage size.
    pub fn size_bytes(self) -> u64 {
        match self {
            Type::Void => panic!("void has no size"),
            Type::I1 => 1,
            Type::I32 | Type::F32 => 4,
            Type::I64 | Type::Ptr(_) => 8,
        }
    }

    /// The textual form, as the printer writes and the parser reads it.
    pub fn as_str(self) -> &'static str {
        match self {
            Type::Void => "void",
            Type::I1 => "i1",
            Type::I32 => "i32",
            Type::I64 => "i64",
            Type::F32 => "f32",
            Type::Ptr(AddrSpace::Global) => "ptr(global)",
            Type::Ptr(AddrSpace::Shared) => "ptr(shared)",
        }
    }

    /// Whether this is any integer type (including `i1`).
    pub fn is_int(self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64)
    }

    /// Whether this is a pointer type.
    pub fn is_ptr(self) -> bool {
        matches!(self, Type::Ptr(_))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(Type::I1.size_bytes(), 1);
        assert_eq!(Type::I32.size_bytes(), 4);
        assert_eq!(Type::F32.size_bytes(), 4);
        assert_eq!(Type::I64.size_bytes(), 8);
        assert_eq!(Type::Ptr(AddrSpace::Global).size_bytes(), 8);
    }

    #[test]
    #[should_panic(expected = "void has no size")]
    fn void_has_no_size() {
        Type::Void.size_bytes();
    }

    #[test]
    fn classification() {
        assert!(Type::I1.is_int());
        assert!(Type::I32.is_int());
        assert!(!Type::F32.is_int());
        assert!(Type::Ptr(AddrSpace::Shared).is_ptr());
        assert!(!Type::Void.is_ptr());
    }

    #[test]
    fn display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::Ptr(AddrSpace::Shared).to_string(), "ptr(shared)");
        assert_eq!(Type::Ptr(AddrSpace::Global).to_string(), "ptr(global)");
    }
}
