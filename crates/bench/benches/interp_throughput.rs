//! Interpreter throughput, in absolute units: simulated warp instructions
//! per second (Mwi/s) for the bytecode engine, untimed and under the
//! cycle-level timing observer, and for the per-lane reference interpreter.
//!
//! Two parts:
//!
//! * criterion timings of every fig. 9 real-world case on both engines;
//! * four **attribution kernels**, each built to isolate one cost the way
//!   Białas & Strzelecki isolate one per microbenchmark, so a change in
//!   engine throughput can be read off the kernel it shows up in:
//!   [`alu_uniform`] (full warps, straight ALU chains: the whole-warp value
//!   loops), [`divergent_ladder`] (every rung's arm runs with one lane
//!   active: dispatch, mask and reconvergence-stack cost per warp
//!   instruction), [`interleaved_join`] (arms under alternate-lane masks
//!   joined by φs: sparse masks, φ provenance buckets and compare-mask
//!   packing), [`memory_bound`] (fused gep+load/gep+store with almost no
//!   ALU work: the warp-access pre-pass, the typed access loop and the
//!   coalescing model). The `timed Mwi/s` column runs the same launch
//!   with [`TimingConfig::on`], so the observer's cost on each kernel
//!   shape reads off the gap to the `bytecode Mwi/s` column;
//! * a **small launch** row over [`small_kernels`], `gen` functions of the
//!   ledger's `many-small` size (20–60 instructions, one block of 64
//!   threads), where lowering and launch set-up rather than execution
//!   decide a launch's cost: per kernel the minimum over interleaved
//!   rounds of lowering alone and of lowering plus launch, printed as
//!   lowering ns/inst (summed minima over summed instructions) and lower +
//!   launch µs (mean of the minima). A lowering or set-up change reads off
//!   it in one run, where the ledger's one-shot `simt.lower_ns_per_inst`
//!   follows the host.
//!
//! `cargo bench --bench interp_throughput` — measure.
//! `cargo bench --bench interp_throughput -- --test` — smoke mode: every
//! case and kernel runs once on both engines, stats and buffers are
//! cross-checked, and the attribution table is printed from short runs.
//!
//! No ratio is recorded or asserted: throughput claims are made on the
//! ledger's `sim_mwi_per_s` under `scripts/bench_pair.sh`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darm_bench::fig9_cases;
use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, InstData, Type, Value};
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use darm_kernels::BenchCase;
use darm_simt::{
    BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, TimingConfig,
};
use std::time::Instant;

/// Runs `case` on the reference (per-lane, arena-walking) interpreter.
/// Like the helper below: fresh buffers, no readback, so timings compare
/// launch cost alone, symmetrically across engines.
fn run_reference(case: &BenchCase) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_reference(&case.func, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", case.name))
}

/// Runs `case` on the bytecode engine.
fn run_bytecode(case: &BenchCase, bk: &BytecodeKernel) -> KernelStats {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, _bufs) = case.alloc_args(&mut gpu);
    gpu.launch_bytecode(bk, &case.launch, &kargs)
        .unwrap_or_else(|e| panic!("{}: bytecode run failed: {e}", case.name))
}

/// Times `f` over enough repetitions to fill roughly `budget` seconds,
/// returning seconds per call.
fn time_per_call(budget: f64, mut f: impl FnMut()) -> f64 {
    // Warm up and size the batch.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-6);
    let reps = ((budget / once).ceil() as usize).clamp(3, 200);
    let t1 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t1.elapsed().as_secs_f64() / reps as f64
}

const PTR: Type = Type::Ptr(AddrSpace::Global);
/// Loop trips of every attribution kernel.
const TRIPS: i32 = 64;
/// Launch geometry of every attribution kernel: full 32-lane warps.
const GRID: u32 = 4;
const BLOCK: u32 = 128;

/// `f(data)`: `acc = data[gtid]; repeat TRIPS { acc = body(acc, i) };
/// data[gtid] = acc` — the scaffold the four kernels share. `body` is
/// called with the cursor in the loop body, `(tid, gtid, acc, i)`, and
/// returns the next `acc`, leaving the cursor in the block that jumps back.
fn looped(
    name: &str,
    body: impl FnOnce(&mut FunctionBuilder<'_>, [Value; 4]) -> Value,
) -> Function {
    let mut f = Function::new(name, vec![PTR], Type::Void);
    let entry = f.entry();
    let [hdr, work, exit] = ["hdr", "work", "exit"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let block = b.block_idx(Dim::X);
    let base = b.mul(block, b.const_i32(BLOCK as i32));
    let gtid = b.add(base, tid);
    let slot = b.gep(Type::I32, b.param(0), gtid);
    let init = b.load(Type::I32, slot);
    b.jump(hdr);

    b.switch_to(hdr);
    let i = b.emit(InstData::phi(Type::I32, &[(entry, Value::I32(0))]));
    let acc = b.emit(InstData::phi(Type::I32, &[(entry, init)]));
    let more = b.icmp(IcmpPred::Slt, Value::Inst(i), b.const_i32(TRIPS));
    b.br(more, work, exit);

    b.switch_to(work);
    let next = body(&mut b, [tid, gtid, Value::Inst(acc), Value::Inst(i)]);
    let i1 = b.add(Value::Inst(i), b.const_i32(1));
    let latch = b.current_block();
    b.jump(hdr);
    for (phi, v) in [(i, i1), (acc, next)] {
        let data = b.func().inst_mut(phi);
        data.phi_blocks.push(latch);
        data.operands.push(v);
    }

    b.switch_to(exit);
    b.store(Value::Inst(acc), slot);
    b.ret(None);
    f.verify_structure()
        .expect("attribution kernel is well-formed");
    f
}

/// ALU-bound, uniform: 24 dependent integer ops per trip under the full
/// mask, no memory traffic and no divergence inside the loop.
fn alu_uniform() -> Function {
    looped("alu_uniform", |b, [_, _, acc, i]| {
        let mut v = acc;
        for k in 0..6 {
            let m = b.mul(v, b.const_i32(31 + 2 * k));
            let a = b.add(m, i);
            let s = b.lshr(a, b.const_i32(3 + k));
            v = b.xor(a, s);
        }
        v
    })
}

/// Fully divergent: a ladder of 32 rungs `if lane == k`, so each arm's four
/// ALU ops issue with exactly one active lane and every rung pushes and
/// pops the reconvergence stack.
fn divergent_ladder() -> Function {
    looped("divergent_ladder", |b, [tid, _, acc, _]| {
        let lane = b.and(tid, b.const_i32(31));
        let mut v = acc;
        for k in 0..32 {
            let arm = b.add_block(&format!("rung{k}"));
            let join = b.add_block(&format!("join{k}"));
            let from = b.current_block();
            let mine = b.icmp(IcmpPred::Eq, lane, b.const_i32(k));
            b.br(mine, arm, join);
            b.switch_to(arm);
            let m = b.mul(v, b.const_i32(3));
            let a = b.add(m, b.const_i32(k));
            let s = b.lshr(a, b.const_i32(7));
            let x = b.xor(a, s);
            b.jump(join);
            b.switch_to(join);
            v = b.phi(Type::I32, &[(arm, x), (from, v)]);
        }
        v
    })
}

/// Interleaved divergence: a ladder of 8 rungs `if tid & 1`, so both arms
/// run under a non-contiguous half-warp mask (the per-set-bit walk), every
/// rung's fused compare-and-branch packs a full warp of compare bits, and
/// every join resolves its φ from two provenance buckets.
fn interleaved_join() -> Function {
    looped("interleaved_join", |b, [tid, _, acc, i]| {
        let mut v = acc;
        for k in 0..8 {
            let [t, e, join] = ["odd", "even", "join"].map(|n| b.add_block(&format!("{n}{k}")));
            let bit = b.and(tid, b.const_i32(1));
            let odd = b.icmp(IcmpPred::Ne, bit, b.const_i32(0));
            b.br(odd, t, e);
            b.switch_to(t);
            let m = b.mul(v, b.const_i32(3));
            let vt = b.add(m, i);
            b.jump(join);
            b.switch_to(e);
            let x = b.xor(v, b.const_i32(7 * k + 1));
            let ve = b.lshr(x, b.const_i32(1));
            b.jump(join);
            b.switch_to(join);
            v = b.phi(Type::I32, &[(t, vt), (e, ve)]);
        }
        v
    })
}

/// Memory-bound: per trip one coalesced load and one coalesced store
/// through freshly computed addresses (both fuse with their gep), with two
/// ALU ops between them.
fn memory_bound() -> Function {
    looped("memory_bound", |b, [_, gtid, acc, i]| {
        let total = b.const_i32((GRID * BLOCK) as i32);
        let row = b.mul(i, total);
        let at = b.add(row, gtid);
        let src = b.gep(Type::I32, b.param(0), at);
        let x = b.load(Type::I32, src);
        let sum = b.add(acc, x);
        let dst = b.gep(Type::I32, b.param(0), at);
        b.store(sum, dst);
        sum
    })
}

/// One attribution kernel on one engine (the reference when `bk` is
/// `None`) under `timing`: fresh buffer, launch, the stats and the buffer's
/// final bytes.
fn run_attribution(
    f: &Function,
    bk: Option<&BytecodeKernel>,
    timing: TimingConfig,
) -> (KernelStats, Vec<u8>) {
    let mut gpu = Gpu::new(GpuConfig {
        timing,
        ..GpuConfig::default()
    });
    let n = (GRID * BLOCK) as usize * (TRIPS as usize + 1);
    let data: Vec<i32> = (0..n as i32).map(|x| x.wrapping_mul(2_654_435)).collect();
    let buf = gpu.alloc_i32(&data);
    let (launch, args) = (LaunchConfig::linear(GRID, BLOCK), [KernelArg::Buffer(buf)]);
    let stats = match bk {
        Some(bk) => gpu.launch_bytecode(bk, &launch, &args),
        None => gpu.launch_reference(f, &launch, &args),
    };
    let stats = stats.unwrap_or_else(|e| panic!("{}: {e}", f.name()));
    (stats, gpu.read_bytes(buf).to_vec())
}

/// Kernels of the ledger's `many-small` shapes and sizes: one diamond rung
/// (half of them), one nested rung or a straight line, arm lengths cycling
/// with the index as that corpus's do.
fn small_kernels() -> Vec<Function> {
    let mut rng = Rng::new(1);
    (0..32)
        .map(|i| {
            let (shape, arm_len) = match i % 4 {
                0 | 2 => (Shape::Ladder, 4 + (i / 4) % 14),
                1 => (Shape::NestedLadder, 6 + (i / 4) % 5),
                _ => (Shape::Straight, 10 + (i / 4) % 32),
            };
            let spec = KernelSpec {
                shape,
                rungs: 1,
                arm_len,
                arms: Arms::Similar,
                divergence: Divergence::Mixed,
                uniform_third: false,
            };
            build_kernel(&format!("small_{i}"), spec, &mut rng)
        })
        .collect()
}

/// Seconds per call of `f`, as the mean over one batch of `reps` calls.
fn batch_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// The small-launch row: lowering ns/inst and lower + launch µs over
/// [`small_kernels`], each the per-kernel minimum over `rounds` rounds
/// that visit every kernel in turn.
fn small_launch_row(rounds: usize) {
    const REPS: usize = 20;
    let kernels = small_kernels();
    let launch = LaunchConfig::linear(1, 64);
    // An input and an output buffer and the ledger's scalar, as a fresh
    // GPU's launch arguments; the output's id last.
    let args_on = |gpu: &mut Gpu| {
        let input = gpu.alloc_i32(&(0..64).map(|x| x * 7 - 100).collect::<Vec<i32>>());
        let output = gpu.alloc_i32(&[0; 64]);
        let scalar = KernelArg::I32(0b1010_0110);
        (
            [KernelArg::Buffer(input), KernelArg::Buffer(output), scalar],
            output,
        )
    };
    let mut gpu = Gpu::new(GpuConfig::default());
    let (args, output) = args_on(&mut gpu);
    for f in &kernels {
        let mut reference = Gpu::new(GpuConfig::default());
        let (ref_args, ref_output) = args_on(&mut reference);
        assert_eq!(
            gpu.launch_bytecode(&BytecodeKernel::new(f), &launch, &args),
            reference.launch_reference(f, &launch, &ref_args),
            "{}: bytecode vs reference disagree",
            f.name()
        );
        assert_eq!(gpu.read_bytes(output), reference.read_bytes(ref_output));
    }
    let (mut lower, mut both) = (vec![f64::MAX; kernels.len()], vec![f64::MAX; kernels.len()]);
    for _ in 0..rounds {
        for (k, f) in kernels.iter().enumerate() {
            let secs = batch_secs(REPS, || {
                std::hint::black_box(BytecodeKernel::new(f));
            });
            lower[k] = lower[k].min(secs);
            let secs = batch_secs(REPS, || {
                let bk = BytecodeKernel::new(f);
                let stats = gpu.launch_bytecode(&bk, &launch, &args);
                std::hint::black_box(stats.expect("the kernel runs"));
            });
            both[k] = both[k].min(secs);
        }
    }
    let insts: usize = kernels.iter().map(Function::live_inst_count).sum();
    println!();
    println!("| small launch | kernels | insts/kernel | lowering ns/inst | lower + launch µs |");
    println!("|---|---|---|---|---|");
    println!(
        "| 1 x 64 threads | {} | {:.1} | {:.1} | {:.2} |",
        kernels.len(),
        insts as f64 / kernels.len() as f64,
        1e9 * lower.iter().sum::<f64>() / insts as f64,
        1e6 * both.iter().sum::<f64>() / kernels.len() as f64,
    );
}

fn bench(c: &mut Criterion) {
    let test_mode = c.is_test_mode();
    let cases = fig9_cases();

    // Criterion-style per-case timings.
    let mut group = c.benchmark_group("interp_throughput");
    group.sample_size(10);
    for case in &cases {
        let bk = BytecodeKernel::new(&case.func);
        group.bench_with_input(BenchmarkId::new("bytecode", &case.name), case, |b, case| {
            b.iter(|| run_bytecode(case, &bk))
        });
        group.bench_with_input(
            BenchmarkId::new("reference", &case.name),
            case,
            |b, case| b.iter(|| run_reference(case)),
        );
    }
    group.finish();

    // Both engines agree on every fig. 9 case and attribution kernel.
    for case in &cases {
        let bk = BytecodeKernel::new(&case.func);
        assert_eq!(
            run_bytecode(case, &bk),
            run_reference(case),
            "{}: bytecode vs reference disagree",
            case.name
        );
    }
    let kernels = [
        alu_uniform(),
        divergent_ladder(),
        interleaved_join(),
        memory_bound(),
    ];
    for f in &kernels {
        let bk = BytecodeKernel::new(f);
        let off = TimingConfig::default();
        assert_eq!(
            run_attribution(f, Some(&bk), off),
            run_attribution(f, None, off),
            "{}: bytecode vs reference disagree",
            f.name()
        );
    }
    println!("interp_throughput: both engines agree on all fig9 cases and attribution kernels");

    // The attribution table, in absolute units.
    let budget = if test_mode { 0.03 } else { 0.5 };
    println!();
    println!(
        "| kernel | ops | warp insts | SIMD eff. | bytecode Mwi/s | timed Mwi/s | reference Mwi/s |"
    );
    println!("|---|---|---|---|---|---|---|");
    let (off, on) = (TimingConfig::default(), TimingConfig::on());
    for f in &kernels {
        let bk = BytecodeKernel::new(f);
        let (stats, _) = run_attribution(f, Some(&bk), off);
        let mwi = stats.warp_instructions as f64 / 1e6;
        let rate = |bk: Option<&BytecodeKernel>, timing| {
            mwi / time_per_call(budget, || {
                run_attribution(f, bk, timing);
            })
        };
        let (bytecode, timed, reference) =
            (rate(Some(&bk), off), rate(Some(&bk), on), rate(None, off));
        println!(
            "| {} | {} | {} | {:.3} | {:.1} | {:.1} | {:.2} |",
            f.name(),
            bk.op_count(),
            stats.warp_instructions,
            stats.simd_efficiency(),
            bytecode,
            timed,
            reference
        );
    }

    small_launch_row(if test_mode { 2 } else { 40 });
}

criterion_group!(benches, bench);
criterion_main!(benches);
