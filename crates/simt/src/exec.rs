//! The simulated GPU: launch arguments, errors, global-memory buffers, and
//! the launch entry points.
//!
//! [`Gpu`] owns the buffers and hands each launch to one of the two
//! execution paths — the bytecode engine (`exec_bc`, behind
//! [`Gpu::launch`] / [`Gpu::launch_bytecode`]) or the per-lane oracle
//! ([`crate::reference`], behind [`Gpu::launch_reference`]). The per-opcode
//! value semantics (`*_eval`), the typed memory accessors and the
//! reconvergence-stack records the bytecode engine runs on live here too.

use crate::mem::{decode, encode_global, BufferId, ByteStore, RawVal};
use crate::stats::KernelStats;
use crate::{reference, BackendKind, BytecodeKernel, GpuConfig, LaunchConfig};
use darm_ir::{Function, Opcode, Type};
use std::error::Error;
use std::fmt;

/// A kernel launch argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelArg {
    /// A global-memory buffer, passed as a pointer to its start.
    Buffer(BufferId),
    /// Scalar `i32`.
    I32(i32),
    /// Scalar `i64`.
    I64(i64),
    /// Scalar `f32`.
    F32(f32),
}

/// Errors raised during simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Argument list does not match the kernel signature.
    BadArgs(String),
    /// A memory access fell outside its buffer or the shared arena.
    OutOfBounds(String),
    /// A branch condition, memory address, or stored value was undefined.
    UndefValue(String),
    /// Integer division by zero.
    DivByZero,
    /// The launch exceeded the configured instruction budget.
    StepLimit,
    /// Warps finished while others waited at a barrier, or a barrier was
    /// executed under a partial mask.
    BarrierDeadlock(String),
    /// A divergent branch has no IPDOM to reconverge at.
    MissingIpdom(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadArgs(m) => write!(f, "bad kernel arguments: {m}"),
            SimError::OutOfBounds(m) => write!(f, "memory access out of bounds: {m}"),
            SimError::UndefValue(m) => write!(f, "undefined value used: {m}"),
            SimError::DivByZero => write!(f, "integer division by zero"),
            SimError::StepLimit => {
                write!(f, "instruction budget exceeded (possible infinite loop)")
            }
            SimError::BarrierDeadlock(m) => write!(f, "barrier deadlock: {m}"),
            SimError::MissingIpdom(m) => {
                write!(f, "divergent branch without reconvergence point: {m}")
            }
        }
    }
}

impl Error for SimError {}

/// Validates launch arguments against a kernel signature and converts them
/// to runtime values. Shared by the bytecode and reference engines.
pub(crate) fn validate_args(
    kernel_name: &str,
    params: &[Type],
    args: &[KernelArg],
    n_buffers: usize,
) -> Result<Vec<RawVal>, SimError> {
    if args.len() != params.len() {
        return Err(SimError::BadArgs(format!(
            "kernel {} expects {} arguments, got {}",
            kernel_name,
            params.len(),
            args.len()
        )));
    }
    let mut arg_vals = Vec::with_capacity(args.len());
    for (k, (&arg, &ty)) in args.iter().zip(params).enumerate() {
        let v = match (arg, ty) {
            (KernelArg::Buffer(b), Type::Ptr(_)) => {
                if b.0 as usize >= n_buffers {
                    return Err(SimError::BadArgs(format!("argument {k}: unknown buffer")));
                }
                RawVal::Ptr(encode_global(b, 0))
            }
            (KernelArg::I32(x), Type::I32) => RawVal::I32(x),
            (KernelArg::I64(x), Type::I64) => RawVal::I64(x),
            (KernelArg::F32(x), Type::F32) => RawVal::F32(x),
            _ => {
                return Err(SimError::BadArgs(format!(
                    "argument {k}: {arg:?} does not match parameter type {ty}"
                )))
            }
        };
        arg_vals.push(v);
    }
    Ok(arg_vals)
}

/// The simulated GPU: owns global memory and runs kernel launches.
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    buffers: Vec<ByteStore>,
}

impl Gpu {
    /// Creates a GPU with the given configuration.
    pub fn new(config: GpuConfig) -> Gpu {
        Gpu {
            config,
            buffers: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Allocates a zero-initialized buffer of `len` bytes.
    pub fn alloc_bytes(&mut self, len: usize) -> BufferId {
        self.buffers.push(ByteStore::with_len(len));
        BufferId((self.buffers.len() - 1) as u32)
    }

    /// Allocates and initializes a buffer of `i32`s.
    pub fn alloc_i32(&mut self, data: &[i32]) -> BufferId {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.buffers.push(ByteStore::from_bytes(bytes));
        BufferId((self.buffers.len() - 1) as u32)
    }

    /// Allocates and initializes a buffer of `f32`s.
    pub fn alloc_f32(&mut self, data: &[f32]) -> BufferId {
        let bytes: Vec<u8> = data.iter().flat_map(|x| x.to_le_bytes()).collect();
        self.buffers.push(ByteStore::from_bytes(bytes));
        BufferId((self.buffers.len() - 1) as u32)
    }

    /// Reads a buffer back as `i32`s.
    pub fn read_i32(&self, buf: BufferId) -> Vec<i32> {
        self.buffers[buf.0 as usize]
            .bytes()
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Reads a buffer back as `f32`s.
    pub fn read_f32(&self, buf: BufferId) -> Vec<f32> {
        self.buffers[buf.0 as usize]
            .bytes()
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Reads a buffer back as raw bytes.
    pub fn read_bytes(&self, buf: BufferId) -> &[u8] {
        self.buffers[buf.0 as usize].bytes()
    }

    /// Overwrites a buffer with new `i32` contents (same length required).
    pub fn write_i32(&mut self, buf: BufferId, data: &[i32]) {
        let store = &mut self.buffers[buf.0 as usize];
        assert_eq!(store.len(), data.len() * 4, "buffer size mismatch");
        for (chunk, x) in store.bytes_mut().chunks_exact_mut(4).zip(data) {
            chunk.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Launches `func` over the given geometry on the bytecode engine.
    ///
    /// Convenience wrapper that lowers on every call; build a
    /// [`BytecodeKernel`] once and use [`Gpu::launch_bytecode`] to amortize
    /// the lowering.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on signature mismatch, memory faults, barrier
    /// misuse, undefined-value misuse, or exceeding the instruction budget.
    pub fn launch(
        &mut self,
        func: &Function,
        cfg: &LaunchConfig,
        args: &[KernelArg],
    ) -> Result<KernelStats, SimError> {
        self.launch_bytecode(&BytecodeKernel::new(func), cfg, args)
    }

    /// Launches `func` with the original per-lane reference interpreter
    /// ([`crate::reference`]) — the oracle the bytecode engine is
    /// differentially tested against.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gpu::launch`].
    pub fn launch_reference(
        &mut self,
        func: &Function,
        cfg: &LaunchConfig,
        args: &[KernelArg],
    ) -> Result<KernelStats, SimError> {
        reference::launch(&mut self.buffers, &self.config, func, cfg, args)
    }

    /// Launches a kernel already lowered to the flat register bytecode
    /// ([`BytecodeKernel`]) — bit-identical to the reference interpreter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gpu::launch`].
    pub fn launch_bytecode(
        &mut self,
        bk: &BytecodeKernel,
        cfg: &LaunchConfig,
        args: &[KernelArg],
    ) -> Result<KernelStats, SimError> {
        crate::exec_bc::launch(&mut self.buffers, &self.config, bk, cfg, args)
    }

    /// Launches `func` on the chosen execution path. Both are bit-identical
    /// in buffers, stats, and errors; they differ only in throughput (and
    /// the reference interpreter reports no `sim_*` timing fields).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Gpu::launch`].
    pub fn launch_with(
        &mut self,
        kind: BackendKind,
        func: &Function,
        cfg: &LaunchConfig,
        args: &[KernelArg],
    ) -> Result<KernelStats, SimError> {
        match kind {
            BackendKind::Reference => self.launch_reference(func, cfg, args),
            BackendKind::Bytecode => self.launch(func, cfg, args),
        }
    }
}

/// One IPDOM reconvergence-stack entry of the bytecode engine.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StackEntry {
    /// Dense block index.
    pub block: u32,
    /// Absolute op index, or [`crate::decoded::BLOCK_ENTRY`] when the
    /// block's φ batch has not run yet.
    pub inst_idx: u32,
    /// Reconvergence block (dense), or [`crate::decoded::NO_BLOCK`].
    pub rpc: u32,
    pub mask: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarpStatus {
    Running,
    AtBarrier,
    Done,
}

pub(crate) struct WarpState {
    pub stack: Vec<StackEntry>,
    /// Last block executed, per lane (dense index) — resolves φ incomings.
    pub prev: Vec<u32>,
    pub status: WarpStatus,
    pub base_thread: u32,
}

/// The seed interpreter's integer-binop semantics: well-typed pairs compute,
/// everything else (type mismatches, undef) yields `Undef`.
#[inline(always)]
pub(crate) fn bin_i(a: RawVal, b: RawVal, f: impl Fn(i64, i64) -> i64) -> RawVal {
    match (a, b) {
        (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(f(a as i64, b as i64) as i32),
        (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(f(a, b)),
        (RawVal::I1(a), RawVal::I1(b)) => RawVal::I1(f(a as i64, b as i64) & 1 != 0),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn bin_f(a: RawVal, b: RawVal, f: impl Fn(f32, f32) -> f32) -> RawVal {
    match (a, b) {
        (RawVal::F32(a), RawVal::F32(b)) => RawVal::F32(f(a, b)),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn un_f(a: RawVal, f: impl Fn(f32) -> f32) -> RawVal {
    match a {
        RawVal::F32(a) => RawVal::F32(f(a)),
        _ => RawVal::Undef,
    }
}

// The per-opcode value semantics of the bytecode engine (`crate::exec_bc`).

#[inline(always)]
pub(crate) fn icmp_eval(pred: darm_ir::IcmpPred, a: RawVal, b: RawVal) -> RawVal {
    use darm_ir::IcmpPred::*;
    let cmp = |a: i64, b: i64, ua: u64, ub: u64| -> bool {
        match pred {
            Eq => a == b,
            Ne => a != b,
            Slt => a < b,
            Sle => a <= b,
            Sgt => a > b,
            Sge => a >= b,
            Ult => ua < ub,
            Ule => ua <= ub,
            Ugt => ua > ub,
            Uge => ua >= ub,
        }
    };
    match (a, b) {
        (RawVal::I32(a), RawVal::I32(b)) => {
            RawVal::I1(cmp(a as i64, b as i64, a as u32 as u64, b as u32 as u64))
        }
        (RawVal::I64(a), RawVal::I64(b)) => RawVal::I1(cmp(a, b, a as u64, b as u64)),
        (RawVal::I1(a), RawVal::I1(b)) => RawVal::I1(cmp(a as i64, b as i64, a as u64, b as u64)),
        (RawVal::Ptr(a), RawVal::Ptr(b)) => RawVal::I1(cmp(a as i64, b as i64, a, b)),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn fcmp_eval(pred: darm_ir::FcmpPred, a: RawVal, b: RawVal) -> RawVal {
    use darm_ir::FcmpPred::*;
    match (a, b) {
        (RawVal::F32(a), RawVal::F32(b)) => RawVal::I1(match pred {
            Oeq => a == b,
            One => a != b,
            Olt => a < b,
            Ole => a <= b,
            Ogt => a > b,
            Oge => a >= b,
        }),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn shl_eval(a: RawVal, b: RawVal) -> RawVal {
    match (a, b) {
        (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(a.wrapping_shl(b as u32)),
        (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(a.wrapping_shl(b as u32)),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn lshr_eval(a: RawVal, b: RawVal) -> RawVal {
    match (a, b) {
        (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(((a as u32).wrapping_shr(b as u32)) as i32),
        (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(((a as u64).wrapping_shr(b as u32)) as i64),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn ashr_eval(a: RawVal, b: RawVal) -> RawVal {
    match (a, b) {
        (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(a.wrapping_shr(b as u32)),
        (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(a.wrapping_shr(b as u32)),
        _ => RawVal::Undef,
    }
}

/// Division family. Returns `Err(DivByZero)` on a well-typed zero divisor;
/// undef or mistyped operands yield `Undef` (seed-interpreter semantics).
#[inline(always)]
pub(crate) fn div_eval(opcode: Opcode, ty: Type, x: RawVal, y: RawVal) -> Result<RawVal, SimError> {
    use Opcode::*;
    if matches!(x, RawVal::Undef) || matches!(y, RawVal::Undef) {
        return Ok(RawVal::Undef);
    }
    let (a, b) = match (x, y) {
        (RawVal::I32(a), RawVal::I32(b)) => (a as i64, b as i64),
        (RawVal::I64(a), RawVal::I64(b)) => (a, b),
        _ => return Ok(RawVal::Undef),
    };
    if b == 0 {
        return Err(SimError::DivByZero);
    }
    let r = match opcode {
        SDiv => a.wrapping_div(b),
        SRem => a.wrapping_rem(b),
        UDiv => ((a as u64) / (b as u64)) as i64,
        URem => ((a as u64) % (b as u64)) as i64,
        _ => unreachable!(),
    };
    Ok(match ty {
        Type::I32 => RawVal::I32(r as i32),
        _ => RawVal::I64(r),
    })
}

#[inline(always)]
pub(crate) fn select_eval(c: RawVal, t: RawVal, e: RawVal) -> RawVal {
    match c {
        RawVal::I1(true) => t,
        RawVal::I1(false) => e,
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn zext_sext_eval(zext: bool, ty: Type, a: RawVal) -> RawVal {
    match a {
        RawVal::I1(b) => {
            let x = if zext { b as i64 } else { -(b as i64) };
            match ty {
                Type::I32 => RawVal::I32(x as i32),
                Type::I64 => RawVal::I64(x),
                _ => RawVal::Undef,
            }
        }
        RawVal::I32(v) => {
            let x = if zext { v as u32 as i64 } else { v as i64 };
            match ty {
                Type::I64 => RawVal::I64(x),
                Type::I32 => RawVal::I32(v),
                _ => RawVal::Undef,
            }
        }
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn trunc_eval(ty: Type, a: RawVal) -> RawVal {
    match a {
        RawVal::I64(v) => match ty {
            Type::I32 => RawVal::I32(v as i32),
            Type::I1 => RawVal::I1(v & 1 != 0),
            _ => RawVal::Undef,
        },
        RawVal::I32(v) => match ty {
            Type::I1 => RawVal::I1(v & 1 != 0),
            _ => RawVal::Undef,
        },
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn sitofp_eval(a: RawVal) -> RawVal {
    match a {
        RawVal::I32(v) => RawVal::F32(v as f32),
        RawVal::I64(v) => RawVal::F32(v as f32),
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn fptosi_eval(ty: Type, a: RawVal) -> RawVal {
    match a {
        RawVal::F32(v) => match ty {
            Type::I32 => RawVal::I32(v as i32),
            Type::I64 => RawVal::I64(v as i64),
            _ => RawVal::Undef,
        },
        _ => RawVal::Undef,
    }
}

#[inline(always)]
pub(crate) fn gep_eval(elem_size: u64, base: RawVal, idx: RawVal) -> RawVal {
    match (base, idx.as_i64_index()) {
        (RawVal::Ptr(base), Some(idx)) => {
            RawVal::Ptr(base.wrapping_add((idx as u64).wrapping_mul(elem_size)))
        }
        _ => RawVal::Undef,
    }
}

/// Typed read from a global buffer or the block's shared arena (the
/// reference interpreter keeps its own copy).
#[inline(always)]
pub(crate) fn mem_read_at(
    buffers: &[ByteStore],
    shared: &ByteStore,
    ty: Type,
    addr: u64,
) -> Result<RawVal, SimError> {
    let (buf, off) = decode(addr);
    let store = match buf {
        Some(b) => buffers
            .get(b.0 as usize)
            .ok_or_else(|| SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}")))?,
        None => shared,
    };
    store.read(ty, off).ok_or_else(|| {
        SimError::OutOfBounds(format!(
            "read of {ty} at offset {off} (len {})",
            store.len()
        ))
    })
}

/// Typed write to a global buffer or the block's shared arena.
#[inline(always)]
pub(crate) fn mem_write_at(
    buffers: &mut [ByteStore],
    shared: &mut ByteStore,
    addr: u64,
    v: RawVal,
) -> Result<(), SimError> {
    let (buf, off) = decode(addr);
    let store = match buf {
        Some(b) => buffers
            .get_mut(b.0 as usize)
            .ok_or_else(|| SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}")))?,
        None => shared,
    };
    store.write(off, v).ok_or_else(|| {
        SimError::OutOfBounds(format!("write at offset {off} (len {})", store.len()))
    })
}
