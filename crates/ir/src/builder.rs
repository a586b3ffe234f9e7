//! Ergonomic construction of IR functions.

use crate::function::{BlockId, Function, InstData, InstId};
use crate::opcode::{Dim, FcmpPred, IcmpPred, Opcode};
use crate::types::Type;
use crate::value::Value;

/// A cursor that appends instructions to a block of a [`Function`].
///
/// All emission methods return the produced [`Value`] so expressions compose:
///
/// ```
/// use darm_ir::{builder::FunctionBuilder, Function, Type, Dim};
/// let mut f = Function::new("twice_tid", vec![], Type::I32);
/// let entry = f.entry();
/// let mut b = FunctionBuilder::new(&mut f, entry);
/// let tid = b.thread_idx(Dim::X);
/// let v = b.add(tid, tid);
/// b.ret(Some(v));
/// assert!(f.verify_structure().is_ok());
/// ```
#[derive(Debug)]
pub struct FunctionBuilder<'f> {
    func: &'f mut Function,
    cur: BlockId,
}

impl<'f> FunctionBuilder<'f> {
    /// Creates a builder positioned at the end of `block`.
    pub fn new(func: &'f mut Function, block: BlockId) -> FunctionBuilder<'f> {
        FunctionBuilder { func, cur: block }
    }

    /// The function being built.
    pub fn func(&mut self) -> &mut Function {
        self.func
    }

    /// The block the builder currently appends to.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Moves the cursor to the end of `block`.
    pub fn switch_to(&mut self, block: BlockId) {
        self.cur = block;
    }

    /// Creates a new block (without moving the cursor).
    pub fn add_block(&mut self, name: &str) -> BlockId {
        self.func.add_block(name)
    }

    /// Emits an instruction at the cursor.
    pub fn emit(&mut self, data: InstData) -> InstId {
        self.func.add_inst(self.cur, data)
    }

    fn value(&mut self, data: InstData) -> Value {
        Value::Inst(self.emit(data))
    }

    // ---- leaf values ----

    /// The n-th function parameter.
    pub fn param(&self, i: u32) -> Value {
        Value::Param(i)
    }

    /// An `i32` constant.
    pub fn const_i32(&self, x: i32) -> Value {
        Value::I32(x)
    }

    /// An `f32` constant.
    pub fn const_f32(&self, x: f32) -> Value {
        Value::const_f32(x)
    }

    // ---- intrinsics ----

    /// Thread index within the block.
    pub fn thread_idx(&mut self, d: Dim) -> Value {
        self.value(InstData::new(Opcode::ThreadIdx(d), Type::I32, vec![]))
    }

    /// Block index within the grid.
    pub fn block_idx(&mut self, d: Dim) -> Value {
        self.value(InstData::new(Opcode::BlockIdx(d), Type::I32, vec![]))
    }

    /// Threads per block.
    pub fn block_dim(&mut self, d: Dim) -> Value {
        self.value(InstData::new(Opcode::BlockDim(d), Type::I32, vec![]))
    }

    /// Base pointer of shared array `idx` (declared via
    /// [`Function::add_shared_array`]).
    pub fn shared_base(&mut self, idx: u32) -> Value {
        self.value(InstData::new(
            Opcode::SharedBase(idx),
            Type::Ptr(crate::types::AddrSpace::Shared),
            vec![],
        ))
    }

    /// Block-wide barrier.
    pub fn syncthreads(&mut self) {
        self.emit(InstData::new(Opcode::Syncthreads, Type::Void, vec![]));
    }

    /// Warp ballot over a predicate.
    pub fn ballot(&mut self, pred: Value) -> Value {
        self.value(InstData::new(Opcode::Ballot, Type::I64, vec![pred]))
    }

    // ---- arithmetic ----

    fn binop(&mut self, op: Opcode, a: Value, b: Value) -> Value {
        let ty = self.func.value_ty(a);
        self.value(InstData::new(op, ty, vec![a, b]))
    }

    /// Integer add.
    pub fn add(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Add, a, b)
    }

    /// Integer subtract.
    pub fn sub(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Sub, a, b)
    }

    /// Integer multiply.
    pub fn mul(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Mul, a, b)
    }

    /// Signed divide.
    pub fn sdiv(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::SDiv, a, b)
    }

    /// Signed remainder.
    pub fn srem(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::SRem, a, b)
    }

    /// Unsigned divide.
    pub fn udiv(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::UDiv, a, b)
    }

    /// Unsigned remainder.
    pub fn urem(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::URem, a, b)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::And, a, b)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Or, a, b)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Xor, a, b)
    }

    /// Shift left.
    pub fn shl(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::Shl, a, b)
    }

    /// Logical shift right.
    pub fn lshr(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::LShr, a, b)
    }

    /// Arithmetic shift right.
    pub fn ashr(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::AShr, a, b)
    }

    /// Float add.
    pub fn fadd(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::FAdd, a, b)
    }

    /// Float subtract.
    pub fn fsub(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::FSub, a, b)
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::FMul, a, b)
    }

    /// Float divide.
    pub fn fdiv(&mut self, a: Value, b: Value) -> Value {
        self.binop(Opcode::FDiv, a, b)
    }

    /// Float square root.
    pub fn fsqrt(&mut self, a: Value) -> Value {
        self.value(InstData::new(Opcode::FSqrt, Type::F32, vec![a]))
    }

    /// Float absolute value.
    pub fn fabs(&mut self, a: Value) -> Value {
        self.value(InstData::new(Opcode::FAbs, Type::F32, vec![a]))
    }

    /// Float negation.
    pub fn fneg(&mut self, a: Value) -> Value {
        self.value(InstData::new(Opcode::FNeg, Type::F32, vec![a]))
    }

    /// Float exponential.
    pub fn fexp(&mut self, a: Value) -> Value {
        self.value(InstData::new(Opcode::FExp, Type::F32, vec![a]))
    }

    // ---- comparisons / select / casts ----

    /// Integer comparison producing `i1`.
    pub fn icmp(&mut self, pred: IcmpPred, a: Value, b: Value) -> Value {
        self.value(InstData::new(Opcode::Icmp(pred), Type::I1, vec![a, b]))
    }

    /// Float comparison producing `i1`.
    pub fn fcmp(&mut self, pred: FcmpPred, a: Value, b: Value) -> Value {
        self.value(InstData::new(Opcode::Fcmp(pred), Type::I1, vec![a, b]))
    }

    /// `select cond, a, b`.
    pub fn select(&mut self, cond: Value, a: Value, b: Value) -> Value {
        let ty = self.func.value_ty(a);
        self.value(InstData::new(Opcode::Select, ty, vec![cond, a, b]))
    }

    /// Zero-extends to `to`.
    pub fn zext(&mut self, v: Value, to: Type) -> Value {
        self.value(InstData::new(Opcode::Zext, to, vec![v]))
    }

    /// Sign-extends to `to`.
    pub fn sext(&mut self, v: Value, to: Type) -> Value {
        self.value(InstData::new(Opcode::Sext, to, vec![v]))
    }

    /// Truncates to `to`.
    pub fn trunc(&mut self, v: Value, to: Type) -> Value {
        self.value(InstData::new(Opcode::Trunc, to, vec![v]))
    }

    /// Signed int to float.
    pub fn sitofp(&mut self, v: Value) -> Value {
        self.value(InstData::new(Opcode::SiToFp, Type::F32, vec![v]))
    }

    /// Float to signed int.
    pub fn fptosi(&mut self, v: Value, to: Type) -> Value {
        self.value(InstData::new(Opcode::FpToSi, to, vec![v]))
    }

    // ---- memory ----

    /// Loads a `ty` value through `ptr`.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.value(InstData::new(Opcode::Load, ty, vec![ptr]))
    }

    /// Stores `v` through `ptr`.
    pub fn store(&mut self, v: Value, ptr: Value) {
        self.emit(InstData::new(Opcode::Store, Type::Void, vec![v, ptr]));
    }

    /// `ptr + index * size_of(elem)`.
    pub fn gep(&mut self, elem: Type, ptr: Value, index: Value) -> Value {
        let ty = self.func.value_ty(ptr);
        self.value(InstData::new(Opcode::Gep { elem }, ty, vec![ptr, index]))
    }

    // ---- SSA / control flow ----

    /// Emits a φ-node from `(pred, value)` pairs.
    pub fn phi(&mut self, ty: Type, incoming: &[(BlockId, Value)]) -> Value {
        self.value(InstData::phi(ty, incoming))
    }

    /// Conditional branch.
    pub fn br(&mut self, cond: Value, then: BlockId, els: BlockId) {
        self.emit(InstData::terminator(
            Opcode::Br,
            vec![cond],
            vec![then, els],
        ));
    }

    /// Unconditional branch.
    pub fn jump(&mut self, target: BlockId) {
        self.emit(InstData::terminator(Opcode::Jump, vec![], vec![target]));
    }

    /// Return.
    pub fn ret(&mut self, v: Option<Value>) {
        self.emit(InstData::terminator(
            Opcode::Ret,
            v.into_iter().collect(),
            vec![],
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AddrSpace;

    #[test]
    fn builds_loop_with_phi() {
        // for (i = 0; i < n; i++) acc += i
        let mut f = Function::new("sum", vec![Type::I32], Type::I32);
        let entry = f.entry();
        let header = f.add_block("header");
        let body = f.add_block("body");
        let exit = f.add_block("exit");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.jump(header);

        b.switch_to(header);
        // placeholders, patched below
        let i = b.phi(Type::I32, &[(entry, Value::I32(0))]);
        let acc = b.phi(Type::I32, &[(entry, Value::I32(0))]);
        let n = b.param(0);
        let cond = b.icmp(IcmpPred::Slt, i, n);
        b.br(cond, body, exit);

        b.switch_to(body);
        let acc2 = b.add(acc, i);
        let one = b.const_i32(1);
        let i2 = b.add(i, one);
        b.jump(header);

        b.switch_to(exit);
        b.ret(Some(acc));

        // patch the phis with the backedge values
        let phi_i = i.as_inst().unwrap();
        let phi_acc = acc.as_inst().unwrap();
        f.inst_mut(phi_i).operands.push(i2);
        f.inst_mut(phi_i).phi_blocks.push(body);
        f.inst_mut(phi_acc).operands.push(acc2);
        f.inst_mut(phi_acc).phi_blocks.push(body);

        f.verify_structure().unwrap();
        assert_eq!(f.succ_slice(header).len(), 2);
    }

    #[test]
    fn builds_shared_memory_access() {
        let mut f = Function::new("smem", vec![], Type::Void);
        let idx = f.add_shared_array("tile", Type::I32, 64);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let base = b.shared_base(idx);
        let tid = b.thread_idx(Dim::X);
        let p = b.gep(Type::I32, base, tid);
        let v = b.load(Type::I32, p);
        let v2 = b.add(v, v);
        b.store(v2, p);
        b.syncthreads();
        b.ret(None);
        f.verify_structure().unwrap();
        assert_eq!(f.value_ty(base), Type::Ptr(AddrSpace::Shared));
    }

    #[test]
    fn float_pipeline_verifies() {
        let mut f = Function::new("fmath", vec![Type::F32], Type::F32);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let x = b.param(0);
        let y = b.fmul(x, x);
        let z = b.fsqrt(y);
        let w = b.fadd(z, b.const_f32(1.0));
        let c = b.fcmp(FcmpPred::Olt, w, x);
        let r = b.select(c, w, x);
        b.ret(Some(r));
        f.verify_structure().unwrap();
    }
}
