//! Property-based differential test: random divergent kernels must run
//! **bit-identically** — same `Result<KernelStats, SimError>`, same output
//! buffer bytes — on both execution backends (reference interpreter, flat
//! register bytecode).
//!
//! The generator builds random CFGs in the style of the dominator
//! property tests (loops and unreachable subgraphs allowed), with
//! tid-dependent branch conditions so warps actually diverge, φs at every
//! multi-predecessor block, and per-block stores so control-flow
//! differences become observable in memory. A small instruction budget
//! keeps runaway loops cheap and makes the `StepLimit` path part of the
//! comparison; CFGs without post-dominators exercise `MissingIpdom`
//! error parity.

use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, BlockId, Dim, Function, IcmpPred, Type, Value};
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, SimError};
use proptest::prelude::*;

const N_BLOCKS: usize = 6;
const N_THREADS: u32 = 48; // 1.5 warps per block: exercises partial masks
const OUT_LEN: usize = 64;

/// Per-block spec: `(succ1, succ2 — conditional branch if Some, condition
/// selector, value selector)`. One entry per block except the last (`ret`).
type BlockSpec = (usize, Option<usize>, u8, u8);

fn block_strategy(n: usize) -> impl Strategy<Value = Vec<BlockSpec>> {
    proptest::collection::vec((0..n, proptest::option::of(0..n), 0..6u8, 0..8u8), n - 1)
}

/// Builds a random divergent kernel `f(out: ptr, scalar: i32)` over the
/// spec. All values live in an entry-block pool (the entry dominates every
/// block, so any use is SSA-valid); multi-predecessor blocks get a φ over
/// pool values; every non-entry block stores to `out[tid]`.
fn build_kernel(n: usize, specs: &[BlockSpec]) -> Function {
    let mut f = Function::new(
        "rand",
        vec![Type::Ptr(AddrSpace::Global), Type::I32],
        Type::Void,
    );
    let mut ids: Vec<BlockId> = vec![f.entry()];
    for k in 1..n {
        ids.push(f.add_block(&format!("b{k}")));
    }

    // Predecessor sets implied by the edge list (dedup: a 2-target branch
    // may name the same successor twice).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, &(s1, s2, _, _)) in specs.iter().enumerate() {
        let mut link = |t: usize| {
            if !preds[t].contains(&k) {
                preds[t].push(k);
            }
        };
        link(s1 % n);
        if let Some(s2) = s2 {
            link(s2 % n);
        }
    }

    // Entry pool: all i32, all well-defined.
    let mut b = FunctionBuilder::new(&mut f, ids[0]);
    let tid = b.thread_idx(Dim::X);
    let bid = b.block_idx(Dim::X);
    let pool: Vec<Value> = vec![
        tid,
        b.add(tid, b.const_i32(1)),
        b.mul(tid, b.const_i32(3)),
        b.and(tid, b.const_i32(7)),
        b.xor(tid, bid),
        b.sub(b.const_i32(100), tid),
        b.param(1),
        b.const_i32(41),
    ];
    let out_ptr = b.gep(Type::I32, b.param(0), tid);

    // Bodies: φ (if the block joins), a little arithmetic, a store.
    for k in 1..n {
        b.switch_to(ids[k]);
        let vsel = if k < n - 1 { specs[k].3 as usize } else { 0 };
        let base = if preds[k].len() >= 2 {
            let incomings: Vec<(BlockId, Value)> = preds[k]
                .iter()
                .map(|&p| (ids[p], pool[(k + p + vsel) % pool.len()]))
                .collect();
            b.phi(Type::I32, &incomings)
        } else {
            pool[(k + vsel) % pool.len()]
        };
        let v = b.add(base, pool[vsel % pool.len()]);
        b.store(v, out_ptr);
    }

    // Terminators: blocks 0..n-1 branch per spec, the last block returns.
    for (k, &(s1, s2, csel, vsel)) in specs.iter().enumerate() {
        b.switch_to(ids[k]);
        match s2 {
            None => b.jump(ids[s1 % n]),
            Some(s2) => {
                let c = match csel {
                    // tid-dependent: diverges within a warp
                    0 => b.icmp(IcmpPred::Slt, tid, b.const_i32(16)),
                    1 => {
                        let parity = b.and(tid, b.const_i32(1));
                        b.icmp(IcmpPred::Eq, parity, b.const_i32(0))
                    }
                    // diverges across warps, uniform within
                    2 => b.icmp(IcmpPred::Uge, tid, b.const_i32(32)),
                    // fully uniform (scalar parameter)
                    3 => b.icmp(IcmpPred::Sgt, b.param(1), b.const_i32(k as i32)),
                    // pool-value dependent
                    4 => b.icmp(
                        IcmpPred::Slt,
                        pool[vsel as usize % pool.len()],
                        b.const_i32(50),
                    ),
                    _ => b.icmp(IcmpPred::Ne, bid, b.const_i32(k as i32 & 1)),
                };
                b.br(c, ids[s1 % n], ids[s2 % n]);
            }
        }
    }
    b.switch_to(ids[n - 1]);
    b.ret(None);
    f
}

/// A GPU with a small instruction budget, so runaway random loops resolve
/// quickly as `StepLimit` — which must itself be bit-identical.
fn gpu() -> (Gpu, darm_simt::BufferId) {
    let mut gpu = Gpu::new(GpuConfig {
        warp_size: 32,
        max_warp_instructions: 20_000,
        ..GpuConfig::default()
    });
    let out = gpu.alloc_i32(&[0; OUT_LEN]);
    (gpu, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn backends_agree_on_random_divergent_kernels(specs in block_strategy(N_BLOCKS)) {
        let f = build_kernel(N_BLOCKS, &specs);
        let cfg = LaunchConfig {
            grid: (2, 1),
            block: (N_THREADS, 1),
        };

        let (mut ref_gpu, ref_out) = gpu();
        let (mut bc_gpu, bc_out) = gpu();

        let bk = BytecodeKernel::new(&f);

        let reference: Result<KernelStats, SimError> =
            ref_gpu.launch_reference(&f, &cfg, &[KernelArg::Buffer(ref_out), KernelArg::I32(7)]);
        let bytecode: Result<KernelStats, SimError> =
            bc_gpu.launch_bytecode(&bk, &cfg, &[KernelArg::Buffer(bc_out), KernelArg::I32(7)]);

        prop_assert_eq!(&bytecode, &reference, "bytecode vs reference outcome");
        prop_assert_eq!(
            bc_gpu.read_bytes(bc_out),
            ref_gpu.read_bytes(ref_out),
            "bytecode vs reference buffer"
        );
    }
}
