#![warn(missing_docs)]

//! # darm — Control-Flow Melding for SIMT Thread Divergence Reduction
//!
//! Facade crate for the DARM reproduction (Saumya, Sundararajah & Kulkarni,
//! CGO 2022). Re-exports every subsystem:
//!
//! * [`ir`] — SSA intermediate representation and builder,
//! * [`analysis`] — dominators, divergence analysis, liveness and the
//!   memoizing analysis manager,
//! * [`transforms`] — simplifycfg, DCE, SSA repair,
//! * [`pipeline`] — the pass manager: cached analyses with invalidation,
//!   composable pass pipelines, textual pipeline specs,
//! * [`align`] — sequence alignment and melding profitability,
//! * [`melding`] — the DARM pass plus tail-merging / branch-fusion baselines,
//! * [`simt`] — SIMT GPU simulator with IPDOM reconvergence and counters,
//! * [`kernels`] — the paper's synthetic and real-world benchmark kernels,
//! * [`serve`] — the `darm serve` persistent compile service: framed
//!   JSON protocol, bounded work queue with load shedding, cross-run
//!   content-hash compile cache, per-function degradation of faults.
//!
//! ## Quickstart
//!
//! ```
//! use darm::prelude::*;
//!
//! // Build the paper's running example (bitonic sort), meld it, and compare
//! // simulated cycles.
//! let kernel = darm::kernels::bitonic::build_kernel(64);
//! let mut melded = kernel.clone();
//! let stats = darm::melding::meld_function(&mut melded, &MeldConfig::default());
//! assert!(stats.melded_subgraphs > 0);
//! ```

pub use darm_align as align;
pub use darm_analysis as analysis;
pub use darm_ir as ir;
pub use darm_kernels as kernels;
pub use darm_melding as melding;
pub use darm_pipeline as pipeline;
pub use darm_serve as serve;
pub use darm_simt as simt;
pub use darm_transforms as transforms;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use darm_analysis::divergence::DivergenceAnalysis;
    pub use darm_analysis::AnalysisManager;
    pub use darm_ir::builder::FunctionBuilder;
    pub use darm_ir::{
        AddrSpace, BlockId, Dim, FcmpPred, Function, IcmpPred, InstData, InstId, Module, Opcode,
        Type, Value,
    };
    pub use darm_melding::{meld_function, MeldConfig, MeldMode, MeldStats};
    pub use darm_pipeline::{
        ModuleOptions, ModulePassManager, PassManager, PassRegistry, PassSpec, PipelineOptions,
    };
    pub use darm_simt::{Gpu, GpuConfig, LaunchConfig};
}
