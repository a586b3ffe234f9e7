#![warn(missing_docs)]

//! # darm-simt
//!
//! A SIMT GPU execution simulator for [`darm_ir`] kernels — the testbed that
//! replaces the paper's AMD Radeon Pro Vega 20 + rocprof setup.
//!
//! The simulator executes kernels exactly the way §I/§II of the paper
//! describe SIMT hardware:
//!
//! * threads are grouped into **warps** that execute in lockstep, one
//!   instruction at a time, over the active lanes;
//! * at a divergent branch the warp's **reconvergence stack** serializes the
//!   two paths and reconverges at the branch's **immediate post-dominator**
//!   (IPDOM);
//! * rocprof-style counters are collected: warp instructions, ALU
//!   utilization, and vector/shared memory instruction counts (Figures
//!   10–11);
//! * execution time is the timing observer's simulated cycles
//!   ([`KernelStats::sim_cycles`], below): issue slots, scoreboard stalls,
//!   reconvergence pops and memory occupancy, where a global access holds
//!   the memory unit per 128-byte segment touched (the coalescing model)
//!   and a shared-memory (LDS) access per degree of bank conflict. Every
//!   speedup the reproduction reports (Figures 8, 9 and 12, Table I) is a
//!   ratio of it. The base counter [`KernelStats::cycles`], a plain sum of
//!   opcode latencies, is kept only for a frozen benchmark probe.
//!
//! ## Oracle, engine, timing observer
//!
//! * **Oracle** — the seed per-lane, arena-walking interpreter
//!   ([`reference`](mod@reference), behind [`Gpu::launch_reference`]).
//!   Slow, simple, and what every differential suite compares against.
//! * **Engine** — [`BytecodeKernel`] lowers a [`darm_ir::Function`] once,
//!   in one pass, into a typed fixed-width register bytecode: every
//!   value's type is static, so each instruction becomes the op for its
//!   operand types and the register file needs no tags — one 64-bit cell
//!   per lane plus one definedness mask per slot and warp. Operands are
//!   pre-resolved to register slots (constants and parameters folded into
//!   dedicated slots, so every operand read is a plain column load), an
//!   `icmp` feeding its block's `br` and a `gep` feeding the next memory
//!   access are fused, φ batches are per-predecessor move tables, the
//!   IPDOM of every block is cached, and every branch target carries its
//!   pre-computed resume pc. Its execute loop ([`Gpu::launch_bytecode`];
//!   [`Gpu::launch`] lowers and runs in one call) is a single dense
//!   `match` per *warp* instruction whose ALU-class arms are counted loops
//!   over the warp's lanes. It is **bit-identical** to the oracle in
//!   output buffers, [`KernelStats`] and [`SimError`]s on every function
//!   that passes `verify_structure` — the `bytecode_vs_reference`
//!   differential test holds that on the full benchmark kernel suite,
//!   `prop_backends` over random divergent CFGs, `typed_semantics` over
//!   every opcode × operand-type combination — and several times faster
//!   (`interp_throughput` prints Mwi/s for both).
//! * **Timing observer** — not an engine at all: [`timing`], enabled with
//!   [`TimingConfig`] via [`GpuConfig::timing`], rides along inside the
//!   bytecode engine and reconstructs a cycle-accurate per-warp timeline —
//!   IPDOM reconvergence-stack pushes and pops,
//!   `ceil(active/issue_width)` issue slots, function-unit latencies with
//!   a register scoreboard, and a coalescing/bank-conflict memory
//!   occupancy model — into the `sim_*` fields of [`KernelStats`].
//!   It is a pure observer: switching it on changes no buffers, no base
//!   counters, and no errors. (The oracle has no hook points and always
//!   reports `sim_* = 0`.)
//!
//! The engine is [`Gpu::launch`] / [`Gpu::launch_bytecode`], the oracle
//! [`Gpu::launch_reference`]; a differential suite calls both.
//!
//! A [`BytecodeKernel`] borrows nothing, so the compile work — including
//! the dominator analysis — is paid once per kernel and reused across
//! launches and launch geometries:
//!
//! ```
//! # use darm_simt::{BytecodeKernel, Gpu, GpuConfig, LaunchConfig, KernelArg};
//! # use darm_ir::{builder::FunctionBuilder, Function, Type, AddrSpace, Dim};
//! # let mut f = Function::new("id", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
//! # let e = f.entry();
//! # let mut b = FunctionBuilder::new(&mut f, e);
//! # let tid = b.thread_idx(Dim::X);
//! # let p = b.gep(Type::I32, b.param(0), tid);
//! # b.store(tid, p);
//! # b.ret(None);
//! let mut gpu = Gpu::new(GpuConfig::default());
//! let kernel = BytecodeKernel::new(&f); // lower once ...
//! let buf = gpu.alloc_i32(&[0; 64]);
//! for _ in 0..3 {
//!     // ... launch many times
//!     gpu.launch_bytecode(&kernel, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(buf)]).unwrap();
//! }
//! ```
//!
//! ```
//! use darm_simt::{Gpu, GpuConfig, LaunchConfig, KernelArg, TimingConfig};
//! use darm_ir::{builder::FunctionBuilder, Function, Type, AddrSpace, Dim};
//!
//! // out[tid] = tid * 2, one block of 64 threads
//! let mut f = Function::new("double", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
//! let e = f.entry();
//! let mut b = FunctionBuilder::new(&mut f, e);
//! let tid = b.thread_idx(Dim::X);
//! let two = b.const_i32(2);
//! let v = b.mul(tid, two);
//! let p = b.gep(Type::I32, b.param(0), tid);
//! b.store(v, p);
//! b.ret(None);
//!
//! let mut gpu = Gpu::new(GpuConfig { timing: TimingConfig::on(), ..GpuConfig::default() });
//! let buf = gpu.alloc_i32(&[0; 64]);
//! let stats = gpu.launch(&f, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(buf)]).unwrap();
//! assert_eq!(gpu.read_i32(buf)[5], 10);
//! assert!(stats.sim_cycles > 0);
//! ```

pub mod bytecode;
pub mod exec;
pub(crate) mod exec_bc;
pub mod mem;
pub mod reference;
pub mod stats;
pub mod timing;

pub use bytecode::BytecodeKernel;
pub use exec::{Gpu, KernelArg, SimError};
pub use mem::BufferId;
pub use stats::KernelStats;
pub use timing::TimingConfig;

/// Hardware configuration of the simulated GPU.
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Threads per warp (AMD wavefronts are 64 wide; 32 is the default here
    /// and matches the synthetic experiments' smallest block size). Must be
    /// in `1..=64` — a warp's lane masks are one `u64` — or every launch
    /// fails with [`SimError::BadWarpSize`].
    pub warp_size: u32,
    /// Safety limit on dynamically issued warp instructions per launch.
    pub max_warp_instructions: u64,
    /// Cycle-level timing model (see [`timing`]); off by default, in which
    /// case launches are bit-identical to a build without the model.
    pub timing: TimingConfig,
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig {
            warp_size: 32,
            max_warp_instructions: 1 << 32,
            timing: TimingConfig::default(),
        }
    }
}

/// Grid/block geometry of a kernel launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchConfig {
    /// Blocks in the grid `(x, y)`.
    pub grid: (u32, u32),
    /// Threads per block `(x, y)`.
    pub block: (u32, u32),
}

impl LaunchConfig {
    /// A 1-D launch: `grid_x` blocks of `block_x` threads.
    pub fn linear(grid_x: u32, block_x: u32) -> LaunchConfig {
        LaunchConfig {
            grid: (grid_x, 1),
            block: (block_x, 1),
        }
    }

    /// A 2-D launch.
    pub fn grid2d(grid: (u32, u32), block: (u32, u32)) -> LaunchConfig {
        LaunchConfig { grid, block }
    }

    /// Threads per block (a launch rejects more than 1024, the CUDA/HIP
    /// per-block limit).
    pub fn threads_per_block(&self) -> u64 {
        u64::from(self.block.0) * u64::from(self.block.1)
    }

    /// Total thread count of the launch.
    pub fn total_threads(&self) -> u64 {
        self.threads_per_block() * u64::from(self.grid.0) * u64::from(self.grid.1)
    }
}
