//! SSA values.

use crate::function::InstId;
use crate::printer::{write_int, write_uint};
use crate::types::Type;
use std::fmt;

/// An SSA value: an instruction result, a function parameter, a constant, or
/// `undef`.
///
/// `Value` is a small `Copy` handle; constant floats are stored as raw bits so
/// that `Value` can implement `Eq` and `Hash` (needed by the melding operand
/// maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// Result of an instruction.
    Inst(InstId),
    /// The n-th function parameter.
    Param(u32),
    /// `i1` constant.
    I1(bool),
    /// `i32` constant.
    I32(i32),
    /// `i64` constant.
    I64(i64),
    /// `f32` constant, stored as IEEE-754 bits.
    F32Bits(u32),
    /// Undefined value of the given type (LLVM `undef`).
    Undef(Type),
}

impl Value {
    /// Constructs an `f32` constant.
    pub fn const_f32(x: f32) -> Value {
        Value::F32Bits(x.to_bits())
    }

    /// The instruction id, if this value is an instruction result.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            Value::Inst(id) => Some(id),
            _ => None,
        }
    }

    /// Whether this value is a compile-time constant (including `undef`).
    pub fn is_const(self) -> bool {
        !matches!(self, Value::Inst(_) | Value::Param(_))
    }

    /// Whether this value is `undef`.
    pub fn is_undef(self) -> bool {
        matches!(self, Value::Undef(_))
    }
}

impl From<InstId> for Value {
    fn from(id: InstId) -> Value {
        Value::Inst(id)
    }
}

impl Value {
    /// Streams the textual form into `w`: `%N`, `%argN`, `true`/`false`,
    /// a decimal `i32`, a decimal with an `i64` suffix, a float with an
    /// `f` suffix (shortest form that reads back to the same bits; NaNs,
    /// whose payload no decimal form carries, as `f32:0xHHHHHHHH`), or
    /// `undef:TYPE`.
    pub fn write_to(self, w: &mut impl fmt::Write) -> fmt::Result {
        match self {
            Value::Inst(id) => {
                w.write_str("%")?;
                write_uint(w, id.index() as u64)
            }
            Value::Param(i) => {
                w.write_str("%arg")?;
                write_uint(w, u64::from(i))
            }
            Value::I1(b) => w.write_str(if b { "true" } else { "false" }),
            Value::I32(x) => write_int(w, i64::from(x)),
            Value::I64(x) => {
                write_int(w, x)?;
                w.write_str("i64")
            }
            Value::F32Bits(bits) => match f32::from_bits(bits) {
                x if x.is_nan() => write!(w, "f32:{bits:#010x}"),
                x => write!(w, "{x:?}f"),
            },
            Value::Undef(ty) => {
                w.write_str("undef:")?;
                w.write_str(ty.as_str())
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_constants_round_trip() {
        let v = Value::const_f32(1.5);
        assert_eq!(v, Value::F32Bits(1.5f32.to_bits()));
        assert_eq!(v, Value::const_f32(1.5));
        assert_ne!(v, Value::const_f32(2.5));
    }

    #[test]
    fn const_classification() {
        assert!(Value::I32(3).is_const());
        assert!(Value::Undef(Type::I32).is_const());
        assert!(Value::Undef(Type::I32).is_undef());
        assert!(!Value::Param(0).is_const());
        assert!(!Value::Inst(InstId::new(0)).is_const());
    }

    #[test]
    fn display() {
        assert_eq!(Value::I32(42).to_string(), "42");
        assert_eq!(Value::Param(1).to_string(), "%arg1");
        assert_eq!(Value::Undef(Type::I1).to_string(), "undef:i1");
        assert_eq!(Value::I32(i32::MIN).to_string(), "-2147483648");
        assert_eq!(Value::I64(i64::MIN).to_string(), "-9223372036854775808i64");
        assert_eq!(Value::I1(true).to_string(), "true");
        assert_eq!(Value::const_f32(-0.0).to_string(), "-0.0f");
        assert_eq!(Value::const_f32(f32::NEG_INFINITY).to_string(), "-inff");
        assert_eq!(Value::F32Bits(0x7fc0_0001).to_string(), "f32:0x7fc00001");
    }
}
