//! LLVM-like textual rendering of functions, for debugging, golden tests
//! and content hashing. The grammar is in [`crate::parser`].
//!
//! Everything goes through [`Function::write_to`], which emits `&str`
//! pieces and stack-formatted integers straight into the sink — no
//! `format_args!` per token and no allocation, so the same code renders to
//! a `String` and streams into a hasher.

use crate::function::{BlockId, Function};
use crate::opcode::Opcode;
use crate::types::Type;
use std::fmt;

/// Writes `n` in decimal.
pub(crate) fn write_uint(w: &mut impl fmt::Write, mut n: u64) -> fmt::Result {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Writes `n` in decimal, with a leading `-` when negative.
pub(crate) fn write_int(w: &mut impl fmt::Write, n: i64) -> fmt::Result {
    if n < 0 {
        w.write_str("-")?;
    }
    write_uint(w, n.unsigned_abs())
}

impl Function {
    /// Streams the textual form into `w`. [`Display`](fmt::Display) and
    /// [`Function::content_hash`] are this function over a formatter and
    /// over a hasher.
    pub fn write_to(&self, w: &mut impl fmt::Write) -> fmt::Result {
        w.write_str("fn @")?;
        w.write_str(self.name())?;
        w.write_str("(")?;
        for (i, ty) in self.params().iter().enumerate() {
            if i > 0 {
                w.write_str(", ")?;
            }
            w.write_str(ty.as_str())?;
            w.write_str(" %arg")?;
            write_uint(w, i as u64)?;
        }
        w.write_str(") -> ")?;
        w.write_str(self.ret_ty().as_str())?;
        w.write_str(" {\n")?;
        for arr in self.shared_arrays() {
            w.write_str("  shared ")?;
            w.write_str(&arr.name)?;
            w.write_str(" : [")?;
            write_uint(w, arr.len)?;
            w.write_str(" x ")?;
            w.write_str(arr.elem.as_str())?;
            w.write_str("]\n")?;
        }
        let blocks = (0..self.block_capacity()).map(BlockId::new);
        for b in blocks.filter(|&b| self.is_block_alive(b)) {
            w.write_str(self.block_name(b))?;
            w.write_str(":\n")?;
            for &id in self.insts_of(b) {
                let inst = self.inst(id);
                w.write_str("  ")?;
                if inst.ty != Type::Void {
                    w.write_str("%")?;
                    write_uint(w, id.index() as u64)?;
                    w.write_str(" = ")?;
                }
                inst.opcode.write_mnemonic(w)?;
                // Opcodes whose result type is not derivable from operands
                // carry an explicit type annotation (keeps text parseable).
                if matches!(
                    inst.opcode,
                    Opcode::Load
                        | Opcode::Zext
                        | Opcode::Sext
                        | Opcode::Trunc
                        | Opcode::FpToSi
                        | Opcode::Phi
                ) {
                    w.write_str(" ")?;
                    w.write_str(inst.ty.as_str())?;
                }
                let mut sep = " ";
                if inst.opcode == Opcode::Phi {
                    for (blk, val) in inst.phi_incoming() {
                        w.write_str(sep)?;
                        w.write_str("[")?;
                        val.write_to(w)?;
                        w.write_str(", ")?;
                        w.write_str(self.block_name(blk))?;
                        w.write_str("]")?;
                        sep = ", ";
                    }
                } else {
                    for op in &inst.operands {
                        w.write_str(sep)?;
                        op.write_to(w)?;
                        sep = ", ";
                    }
                    for &s in &inst.succs {
                        w.write_str(sep)?;
                        w.write_str(self.block_name(s))?;
                        sep = ", ";
                    }
                }
                w.write_str("\n")?;
            }
        }
        w.write_str("}\n")
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::opcode::IcmpPred;
    use crate::types::Type;

    #[test]
    fn prints_branches_and_phis() {
        let mut f = Function::new("p", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.const_i32(1);
        let a = b.add(b.param(0), one);
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, a), (e, Value::I32(0))]);
        b.ret(Some(p));
        use crate::value::Value;
        let text = f.to_string();
        assert!(text.contains("fn @p(i32 %arg0) -> i32 {"), "{text}");
        assert!(text.contains("icmp slt %arg0, 0"), "{text}");
        assert!(text.contains("br %0, t, e"), "{text}");
        assert!(text.contains("phi i32 [%2, t], [0, e]"), "{text}");
    }

    #[test]
    fn prints_shared_decls() {
        let mut f = Function::new("s", vec![], Type::Void);
        f.add_shared_array("tile", Type::F32, 128);
        let e = f.entry();
        let mut b = FunctionBuilder::new(&mut f, e);
        b.ret(None);
        assert!(f.to_string().contains("shared tile : [128 x f32]"));
    }
}
