//! The simulated GPU: launch arguments, errors, global-memory buffers, and
//! the launch entry points.
//!
//! [`Gpu`] owns the buffers and hands each launch to one of the two
//! execution paths — the bytecode engine (`exec_bc`, behind
//! [`Gpu::launch`] / [`Gpu::launch_bytecode`]) or the per-lane oracle
//! ([`crate::reference`], behind [`Gpu::launch_reference`]) that the
//! differential suites hold the engine to.

use crate::mem::{encode_global, BufferId, ByteStore, RawVal};
use crate::stats::KernelStats;
use crate::{reference, BytecodeKernel, GpuConfig, LaunchConfig};
use darm_ir::{Function, Type};
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
    /// Argument list does not match the kernel signature, or the block has
    /// more than 1024 threads.
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
    /// The timing model is on with an
    /// [`issue_width`](crate::TimingConfig::issue_width) of 0: a warp
    /// instruction would occupy no issue slot.
    BadIssueWidth,
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
            SimError::BadIssueWidth => write!(f, "timing issue width 0 is below 1"),
        }
    }
}

impl Error for SimError {}

/// The most threads one block may have: the CUDA/HIP per-block limit.
const MAX_THREADS_PER_BLOCK: u64 = 1024;

/// Rejects a [`GpuConfig::warp_size`] the lane masks cannot represent, a
/// timing model that issues nothing (an issue width of 0), then a block of
/// more than [`MAX_THREADS_PER_BLOCK`] threads. Both engines check this
/// first, before anything about the launch is allocated.
pub(crate) fn check_geometry(config: &GpuConfig, cfg: &LaunchConfig) -> Result<(), SimError> {
    if !(1..=64).contains(&config.warp_size) {
        return Err(SimError::BadWarpSize(config.warp_size));
    }
    if config.timing.enabled && config.timing.issue_width == 0 {
        return Err(SimError::BadIssueWidth);
    }
    let threads = cfg.threads_per_block();
    if threads > MAX_THREADS_PER_BLOCK {
        return Err(SimError::BadArgs(format!(
            "a block of {threads} threads exceeds the limit of {MAX_THREADS_PER_BLOCK}"
        )));
    }
    Ok(())
}

/// Validates launch arguments against a kernel signature. Shared by the
/// bytecode and reference engines, which then take each argument's value
/// from [`arg_value`].
pub(crate) fn validate_args(
    kernel_name: &str,
    params: &[Type],
    args: &[KernelArg],
    n_buffers: usize,
) -> Result<(), SimError> {
    if args.len() != params.len() {
        return Err(SimError::BadArgs(format!(
            "kernel {} expects {} arguments, got {}",
            kernel_name,
            params.len(),
            args.len()
        )));
    }
    for (k, (&arg, &ty)) in args.iter().zip(params).enumerate() {
        match (arg, ty) {
            (KernelArg::Buffer(b), Type::Ptr(_)) => {
                if b.0 as usize >= n_buffers {
                    return Err(SimError::BadArgs(format!("argument {k}: unknown buffer")));
                }
            }
            (KernelArg::I32(_), Type::I32)
            | (KernelArg::I64(_), Type::I64)
            | (KernelArg::F32(_), Type::F32) => {}
            _ => {
                return Err(SimError::BadArgs(format!(
                    "argument {k}: {arg:?} does not match parameter type {ty}"
                )))
            }
        }
    }
    Ok(())
}

/// The runtime value of a launch argument [`validate_args`] accepted: a
/// buffer is a pointer to its start.
pub(crate) fn arg_value(arg: KernelArg) -> RawVal {
    match arg {
        KernelArg::Buffer(b) => RawVal::Ptr(encode_global(b, 0)),
        KernelArg::I32(x) => RawVal::I32(x),
        KernelArg::I64(x) => RawVal::I64(x),
        KernelArg::F32(x) => RawVal::F32(x),
    }
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

    /// Launches `func` over the given geometry on the bytecode engine.
    ///
    /// Convenience wrapper that lowers on every call; build a
    /// [`BytecodeKernel`] once and use [`Gpu::launch_bytecode`] to amortize
    /// the lowering.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] on signature mismatch, a block of more than
    /// 1024 threads, memory faults, barrier misuse, undefined-value misuse,
    /// or exceeding the instruction budget.
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
}
