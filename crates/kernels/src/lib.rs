#![warn(missing_docs)]

//! # darm-kernels
//!
//! The benchmark kernels of the DARM paper, rebuilt against `darm-ir`:
//!
//! * [`synthetic`] — the four control-flow patterns SB1–SB4 of Fig. 7 and
//!   their `-R` (non-identical instruction) variants,
//! * [`bitonic`] — bitonic sort (BIT), the paper's running example (Fig. 1),
//! * [`pcm`] — partition & concurrent merge, odd-even merging with nested
//!   data-dependent branches,
//! * [`mergesort`] — bottom-up merge sort step (MS),
//! * [`lud`] — LU-decomposition perimeter kernel (LUD, Rodinia-style) with
//!   block-size-dependent divergence,
//! * [`nqueens`] — N-queens backtracking (NQU) with a divergent
//!   if-then-elseif loop body,
//! * [`srad`] — speckle-reducing anisotropic diffusion (SRAD) with both
//!   block-size-dependent and data-dependent divergent regions,
//! * [`dct`] — DCT plane quantization (DCT) with sign-dependent paths.
//!
//! Every kernel comes as a [`BenchCase`]: the IR function, a launch
//! geometry, concrete input buffers, and the CPU reference output, so the
//! harness can check that any transformed variant still computes the same
//! result.
//!
//! Beside them, [`gen`] is the seeded generator of divergent kernels whose
//! arms are alike — ladders of diamonds, nested ladders, ladders in a
//! loop, compare-exchange stages, if-then regions against a block — that
//! the tests and the benchmark ledger build their generated inputs with.

pub mod bitonic;
pub mod dct;
pub mod gen;
pub mod lud;
pub mod mergesort;
pub mod nqueens;
pub mod pcm;
pub mod srad;
pub mod synthetic;

use darm_ir::Function;
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, SimError};

/// One kernel launch argument with its backing data.
#[derive(Debug, Clone)]
pub enum ArgSpec {
    /// An `i32` buffer initialized with the given contents.
    BufI32(Vec<i32>),
    /// An `f32` buffer initialized with the given contents.
    BufF32(Vec<f32>),
    /// A scalar `i32`.
    I32(i32),
    /// A scalar `f32`.
    F32(f32),
}

/// Buffer contents read back after a run.
#[derive(Debug, Clone, PartialEq)]
pub enum BufData {
    /// `i32` contents.
    I32(Vec<i32>),
    /// `f32` contents.
    F32(Vec<f32>),
}

/// A self-contained benchmark instance: kernel + inputs + expected outputs.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Display name, e.g. `"BIT-64"`.
    pub name: String,
    /// The kernel.
    pub func: Function,
    /// Launch geometry.
    pub launch: LaunchConfig,
    /// Arguments (buffers are freshly allocated per run).
    pub args: Vec<ArgSpec>,
    /// Expected contents of selected argument buffers after the launch,
    /// computed by a CPU reference implementation.
    pub expected: Vec<(usize, BufData)>,
}

/// Result of executing a [`BenchCase`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Read-back contents of every buffer argument (None for scalars).
    pub buffers: Vec<Option<BufData>>,
    /// Performance counters.
    pub stats: KernelStats,
}

impl BenchCase {
    /// Executes the case's own kernel.
    ///
    /// # Errors
    ///
    /// Propagates any simulator error.
    pub fn execute(&self) -> Result<RunResult, SimError> {
        self.execute_fn(&self.func)
    }

    /// Executes an alternative (e.g. melded) kernel on this case's inputs.
    ///
    /// # Errors
    ///
    /// Propagates any simulator error.
    pub fn execute_fn(&self, func: &Function) -> Result<RunResult, SimError> {
        self.execute_bytecode(&BytecodeKernel::new(func), GpuConfig::default())
    }

    /// Executes an already-lowered kernel on this case's inputs, on a
    /// caller-supplied [`GpuConfig`]. Lowering once (see
    /// [`BytecodeKernel::new`]) and re-running via this amortizes the
    /// compile across repeated launches — the pattern the benchmark harness
    /// uses for its baseline/DARM/BF variants — and the config is how the
    /// harness switches on the cycle-level timing observer
    /// (`config.timing.enabled`).
    ///
    /// # Errors
    ///
    /// Propagates any simulator error.
    pub fn execute_bytecode(
        &self,
        kernel: &BytecodeKernel,
        config: GpuConfig,
    ) -> Result<RunResult, SimError> {
        let mut gpu = Gpu::new(config);
        let (kargs, bufs) = self.alloc_args(&mut gpu);
        let stats = gpu.launch_bytecode(kernel, &self.launch, &kargs)?;
        let buffers = bufs
            .into_iter()
            .map(|b| {
                b.map(|(id, is_f32)| {
                    if is_f32 {
                        BufData::F32(gpu.read_f32(id))
                    } else {
                        BufData::I32(gpu.read_i32(id))
                    }
                })
            })
            .collect();
        Ok(RunResult { buffers, stats })
    }

    /// Allocates this case's input buffers on `gpu` and builds the launch
    /// argument list. Returns the arguments plus, per argument, the buffer
    /// id and whether it holds `f32` data (`None` for scalars). The single
    /// source of truth for [`ArgSpec`] → [`KernelArg`] conversion, shared by
    /// the harness, the differential test and the throughput bench.
    pub fn alloc_args(
        &self,
        gpu: &mut Gpu,
    ) -> (Vec<KernelArg>, Vec<Option<(darm_simt::BufferId, bool)>>) {
        let mut kargs = Vec::new();
        let mut bufs = Vec::new();
        for arg in &self.args {
            match arg {
                ArgSpec::BufI32(data) => {
                    let b = gpu.alloc_i32(data);
                    bufs.push(Some((b, false)));
                    kargs.push(KernelArg::Buffer(b));
                }
                ArgSpec::BufF32(data) => {
                    let b = gpu.alloc_f32(data);
                    bufs.push(Some((b, true)));
                    kargs.push(KernelArg::Buffer(b));
                }
                ArgSpec::I32(x) => {
                    bufs.push(None);
                    kargs.push(KernelArg::I32(*x));
                }
                ArgSpec::F32(x) => {
                    bufs.push(None);
                    kargs.push(KernelArg::F32(*x));
                }
            }
        }
        (kargs, bufs)
    }

    /// Checks a run result against the CPU reference.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn check(&self, result: &RunResult) -> Result<(), String> {
        for (idx, want) in &self.expected {
            let got = result.buffers[*idx]
                .as_ref()
                .ok_or_else(|| format!("{}: arg {idx} is not a buffer", self.name))?;
            match (want, got) {
                (BufData::I32(w), BufData::I32(g)) => {
                    if w != g {
                        let pos = w.iter().zip(g).position(|(a, b)| a != b).unwrap_or(0);
                        return Err(format!(
                            "{}: arg {idx} mismatch at {pos}: expected {} got {}",
                            self.name, w[pos], g[pos]
                        ));
                    }
                }
                (BufData::F32(w), BufData::F32(g)) => {
                    for (pos, (a, b)) in w.iter().zip(g).enumerate() {
                        if (a - b).abs() > 1e-4 * (1.0 + a.abs()) {
                            return Err(format!(
                                "{}: arg {idx} mismatch at {pos}: expected {a} got {b}",
                                self.name
                            ));
                        }
                    }
                }
                _ => return Err(format!("{}: arg {idx} buffer type mismatch", self.name)),
            }
        }
        Ok(())
    }

    /// Executes and checks in one call, panicking with context on failure.
    /// Intended for tests and the experiment harness.
    pub fn run_checked(&self, func: &Function) -> RunResult {
        self.run_checked_bytecode(&BytecodeKernel::new(func), GpuConfig::default())
    }

    /// [`BenchCase::run_checked`] for an already-lowered kernel on a
    /// caller-supplied [`GpuConfig`] — the harness path that collects
    /// simulated cycles by enabling `config.timing`.
    pub fn run_checked_bytecode(&self, kernel: &BytecodeKernel, config: GpuConfig) -> RunResult {
        let result = self
            .execute_bytecode(kernel, config)
            .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", self.name));
        self.check(&result).unwrap_or_else(|e| panic!("{e}"));
        result
    }
}

/// Deterministic pseudo-random i32 generator used by the workloads
/// (xorshift; avoids pulling rand into the kernel definitions).
pub fn pseudo_random_i32(seed: u64, n: usize, modulus: i32) -> Vec<i32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 33) as i32).rem_euclid(modulus) - modulus / 2
        })
        .collect()
}
