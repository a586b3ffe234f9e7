//! Integration tests for the cycle-level timing observer.
//!
//! The kernel under test is the fig8-style if/else diamond: a
//! tid-dependent branch splits the warp, each arm does one ALU op, and
//! the arms reconverge at the immediate post-dominator where a φ selects
//! the result. This is the smallest kernel that exercises every timing
//! sub-model: the IPDOM reconvergence stack, masked issue slots, the
//! scoreboard (the φ's readiness is the max over both arms' producers),
//! and the memory model (the final store).

use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type};
use darm_simt::{
    BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, TimingConfig,
};

const N_THREADS: u32 = 8;

/// `f(out: ptr)` — the fig8 diamond:
///
/// ```text
/// entry: tid; c = tid < 4; br c, then, else
/// then:  a = tid * 3;      jump join
/// else:  b = tid + 1;      jump join
/// join:  v = phi [then a, else b]; out[tid] = v; ret
/// ```
fn diamond() -> Function {
    let mut f = Function::new("diamond", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let then_bb = f.add_block("then");
    let else_bb = f.add_block("else");
    let join_bb = f.add_block("join");
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(4));
    b.br(c, then_bb, else_bb);
    b.switch_to(then_bb);
    let a = b.mul(tid, b.const_i32(3));
    b.jump(join_bb);
    b.switch_to(else_bb);
    let e = b.add(tid, b.const_i32(1));
    b.jump(join_bb);
    b.switch_to(join_bb);
    let v = b.phi(Type::I32, &[(then_bb, a), (else_bb, e)]);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(v, p);
    b.ret(None);
    f
}

fn gpu(timing: TimingConfig) -> (Gpu, darm_simt::BufferId) {
    let mut gpu = Gpu::new(GpuConfig {
        warp_size: N_THREADS,
        timing,
        ..GpuConfig::default()
    });
    let out = gpu.alloc_i32(&[0; N_THREADS as usize]);
    (gpu, out)
}

fn cfg() -> LaunchConfig {
    LaunchConfig {
        grid: (1, 1),
        block: (N_THREADS, 1),
    }
}

fn timing8() -> TimingConfig {
    TimingConfig {
        issue_width: 8,
        ..TimingConfig::on()
    }
}

fn run_bytecode(f: &Function, timing: TimingConfig) -> (KernelStats, Vec<u8>) {
    let bk = BytecodeKernel::new(f);
    let (mut gpu, out) = gpu(timing);
    let stats = gpu
        .launch_bytecode(&bk, &cfg(), &[KernelArg::Buffer(out)])
        .expect("diamond runs clean");
    (stats, gpu.read_bytes(out).to_vec())
}

/// The pinned fig8 numbers: with 8 lanes and `issue_width: 8` every warp
/// instruction is one slot, so the divergent branch costs the *sum* of
/// both arms (2 + 2 slots) rather than the max: entry 3 (tid, icmp, br),
/// then 2 (mul, jump), else 2 (add, jump), join 3 (gep, store, ret) —
/// 10 slots total. One divergent branch, two reconvergence pops (one per
/// arm's jump into the IPDOM); the final `ret` pops the base entry,
/// which has no mirror frame and charges nothing.
#[test]
fn diamond_costs_sum_of_both_arms() {
    let f = diamond();
    let (stats, _) = run_bytecode(&f, timing8());
    assert_eq!(stats.sim_issue_slots, 10);
    assert_eq!(stats.sim_divergent_branches, 1);
    assert_eq!(stats.sim_reconvergences, 2);
    assert!(stats.sim_cycles >= 10, "latency adds cycles beyond slots");
    assert!(stats.sim_stall_cycles > 0, "dependent ops must stall");
}

/// Halving the issue width doubles the slot cost of every full-width
/// instruction but leaves the 4-lane arms at one slot each.
#[test]
fn issue_width_scales_slot_cost() {
    let f = diamond();
    let narrow = TimingConfig {
        issue_width: 4,
        ..TimingConfig::on()
    };
    let (stats, _) = run_bytecode(&f, narrow);
    // entry 3×2 + arms 4×1 + join 3×2 = 16.
    assert_eq!(stats.sim_issue_slots, 16);
    assert_eq!(stats.sim_divergent_branches, 1);
}

/// The fused `CmpBr` / `GepStore` ops must charge the timeline of the
/// instructions they replace: the full stats below were recorded from the
/// unfused decoded engine (since deleted) on this kernel, and must match
/// exactly — not approximately.
#[test]
fn bytecode_matches_the_recorded_unfused_timeline() {
    let f = diamond();
    let (bc, _) = run_bytecode(&f, timing8());
    let unfused = KernelStats {
        cycles: 326,
        warp_instructions: 10,
        thread_instructions: 64,
        alu_issues: 5,
        alu_active_lanes: 32,
        global_mem_insts: 1,
        shared_mem_insts: 0,
        global_transactions: 1,
        shared_bank_conflicts: 0,
        barriers: 0,
        sim_cycles: 21,
        sim_stall_cycles: 9,
        sim_issue_slots: 10,
        sim_divergent_branches: 1,
        sim_reconvergences: 2,
        warp_size: 8,
    };
    assert_eq!(bc, unfused, "full stats including sim_* must match");
}

/// The model is all-integer with a fixed warp iteration order: two runs
/// must produce bit-identical cycle counts.
#[test]
fn timing_is_deterministic() {
    let f = diamond();
    let (a, _) = run_bytecode(&f, timing8());
    let (b, _) = run_bytecode(&f, timing8());
    assert_eq!(a, b);
}

/// Timing is a pure observer: enabling it changes no buffers and no
/// architectural counters — the stats differ only in the sim_* fields.
#[test]
fn timing_is_a_pure_observer() {
    let f = diamond();
    let (off, off_buf) = run_bytecode(&f, TimingConfig::default());
    let (on, on_buf) = run_bytecode(&f, timing8());
    assert_eq!(on_buf, off_buf);
    assert_eq!(on.sans_timing(), off);
    assert_eq!(off.sim_cycles, 0, "disabled timing reports zero cycles");
}

/// The reference interpreter is the semantic oracle only — it never
/// carries the timing observer, even when the config asks for it.
#[test]
fn reference_tier_reports_no_cycles() {
    let f = diamond();
    let (mut gpu, out) = gpu(timing8());
    let stats = gpu
        .launch_reference(&f, &cfg(), &[KernelArg::Buffer(out)])
        .expect("diamond runs clean");
    assert_eq!(stats.sim_cycles, 0);
    assert_eq!(stats.sim_issue_slots, 0);
}
