//! The simulated GPU: launch arguments, errors, global-memory buffers, and
//! the launch entry points.
//!
//! [`Gpu`] owns the buffers and hands each launch to one of the two
//! execution paths — the bytecode engine (`exec_bc`, behind
//! [`Gpu::launch`] / [`Gpu::launch_bytecode`]) or the per-lane oracle
//! ([`crate::reference`], behind [`Gpu::launch_reference`]);
//! [`BackendKind`] names that choice as a value for [`Gpu::launch_with`]
//! and the `darm` CLI's `--backend` flag.

use crate::mem::{encode_global, BufferId, ByteStore, RawVal};
use crate::stats::KernelStats;
use crate::{reference, BytecodeKernel, GpuConfig, LaunchConfig};
use darm_ir::{Function, Type};
use std::error::Error;
use std::fmt;

/// The execution paths a kernel can run on. Both are bit-identical in
/// buffers, [`KernelStats`] and errors; the bytecode engine is the fast
/// one, the reference interpreter the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The seed per-lane, arena-walking interpreter — slowest, simplest;
    /// the semantic baseline.
    Reference,
    /// The typed register bytecode engine over a [`BytecodeKernel`].
    Bytecode,
}

impl BackendKind {
    /// Every backend, oracle first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Bytecode];

    /// The CLI/display name (`reference`, `bytecode`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Bytecode => "bytecode",
        }
    }

    /// Parses a CLI name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// [`GpuConfig::warp_size`] is outside `1..=64` (lane masks are one
    /// `u64` per warp).
    BadWarpSize(u32),
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
            SimError::BadWarpSize(ws) => write!(f, "warp size {ws} is outside 1..=64"),
        }
    }
}

impl Error for SimError {}

/// Rejects a [`GpuConfig::warp_size`] the lane masks cannot represent.
/// Both engines check it first, before anything else about the launch.
pub(crate) fn check_warp_size(warp_size: u32) -> Result<(), SimError> {
    if (1..=64).contains(&warp_size) {
        Ok(())
    } else {
        Err(SimError::BadWarpSize(warp_size))
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(BackendKind::parse("prepared"), None);
    }
}
