//! End-to-end melding tests: every melded kernel must (a) pass the SSA
//! verifier, (b) produce bit-identical outputs on the SIMT simulator, and
//! (c) actually reduce divergence cost where the paper says it should.

use darm_analysis::verify_ssa;
use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use darm_melding::{meld_function, tail_merge, MeldConfig, MeldStats};
use darm_simt::{Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig};

/// Runs `func` on fresh buffers and returns (outputs, stats).
fn run(func: &Function, n: usize, extra: &[KernelArg]) -> (Vec<i32>, KernelStats) {
    let mut gpu = Gpu::new(GpuConfig::default());
    let buf = gpu.alloc_i32(&vec![0; n]);
    let mut args = vec![KernelArg::Buffer(buf)];
    args.extend_from_slice(extra);
    let stats = gpu
        .launch(func, &LaunchConfig::linear(1, n as u32), &args)
        .unwrap_or_else(|e| panic!("simulation of {} failed: {e}", func.name()));
    (gpu.read_i32(buf), stats)
}

/// Runs `func` with a data input buffer as second argument.
fn run_io(func: &Function, input: &[i32], n_out: usize) -> (Vec<i32>, KernelStats) {
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.alloc_i32(&vec![0; n_out]);
    let inp = gpu.alloc_i32(input);
    let stats = gpu
        .launch(
            func,
            &LaunchConfig::linear(1, n_out as u32),
            &[KernelArg::Buffer(out), KernelArg::Buffer(inp)],
        )
        .unwrap_or_else(|e| panic!("simulation of {} failed: {e}", func.name()));
    (gpu.read_i32(out), stats)
}

/// Melds a copy and checks verifier + output equivalence; returns
/// (baseline stats, melded stats, meld stats).
fn check_meld(
    func: &Function,
    config: &MeldConfig,
    runner: impl Fn(&Function) -> (Vec<i32>, KernelStats),
) -> (KernelStats, KernelStats, MeldStats) {
    verify_ssa(func).expect("baseline must verify");
    let (base_out, base_stats) = runner(func);
    let mut melded = func.clone();
    let mstats = meld_function(&mut melded, config);
    verify_ssa(&melded)
        .unwrap_or_else(|e| panic!("melded {} fails verification: {e}\n{melded}", func.name()));
    let (meld_out, meld_stats) = runner(&melded);
    assert_eq!(
        base_out,
        meld_out,
        "melding changed semantics of {}\n{melded}",
        func.name()
    );
    (base_stats, meld_stats, mstats)
}

/// Diamond with distinct-but-compatible computations — the branch-fusion
/// case (Table I row 2).
fn diamond_kernel() -> Function {
    let mut f = Function::new("diamond", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t = f.add_block("t");
    let e = f.add_block("e");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, t, e);
    b.switch_to(t);
    let v1 = b.mul(tid, b.const_i32(3));
    let w1 = b.add(v1, b.const_i32(10));
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(w1, p1);
    b.jump(x);
    b.switch_to(e);
    let v2 = b.mul(tid, b.const_i32(5));
    let w2 = b.add(v2, b.const_i32(77));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(w2, p2);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);
    f
}

/// Bitonic-sort shaped kernel (Fig. 1/4): divergent branch whose sides are
/// if-then regions over shared memory — requires region-region melding.
fn bitonic_step_kernel() -> Function {
    let mut f = Function::new(
        "bitonic_step",
        vec![Type::Ptr(AddrSpace::Global), Type::Ptr(AddrSpace::Global)],
        Type::Void,
    );
    let sh = f.add_shared_array("tile", Type::I32, 64);
    let b_blk = f.entry();
    let c_blk = f.add_block("C");
    let e_blk = f.add_block("E");
    let x1 = f.add_block("X1");
    let d_blk = f.add_block("D");
    let f_blk = f.add_block("F");
    let x2 = f.add_block("X2");
    let g_blk = f.add_block("G");
    let mut b = FunctionBuilder::new(&mut f, b_blk);
    let tid = b.thread_idx(Dim::X);
    // load tile[tid] = in[tid]
    let gin = b.gep(Type::I32, b.param(1), tid);
    let v = b.load(Type::I32, gin);
    let base = b.shared_base(sh);
    let sp = b.gep(Type::I32, base, tid);
    b.store(v, sp);
    b.syncthreads();
    // partner = tid ^ 1
    let one = b.const_i32(1);
    let ixj = b.xor(tid, one);
    let pp = b.gep(Type::I32, base, ixj);
    // if ((tid & 2) == 0)  { if (tile[ixj] < tile[tid]) swap }
    // else                 { if (tile[ixj] > tile[tid]) swap }
    let k = b.and(tid, b.const_i32(2));
    let c0 = b.icmp(IcmpPred::Eq, k, b.const_i32(0));
    b.br(c0, c_blk, d_blk);

    b.switch_to(c_blk);
    let a1 = b.load(Type::I32, pp);
    let b1 = b.load(Type::I32, sp);
    let cc = b.icmp(IcmpPred::Slt, a1, b1);
    b.br(cc, e_blk, x1);
    b.switch_to(e_blk);
    b.store(b1, pp);
    b.store(a1, sp);
    b.jump(x1);
    b.switch_to(x1);
    b.jump(g_blk);

    b.switch_to(d_blk);
    let a2 = b.load(Type::I32, pp);
    let b2 = b.load(Type::I32, sp);
    let cd = b.icmp(IcmpPred::Sgt, a2, b2);
    b.br(cd, f_blk, x2);
    b.switch_to(f_blk);
    b.store(b2, pp);
    b.store(a2, sp);
    b.jump(x2);
    b.switch_to(x2);
    b.jump(g_blk);

    b.switch_to(g_blk);
    b.syncthreads();
    let out_v = b.load(Type::I32, sp);
    let gout = b.gep(Type::I32, b.param(0), tid);
    b.store(out_v, gout);
    b.ret(None);
    f
}

/// Single block vs if-then region — requires region replication.
fn bb_region_kernel() -> Function {
    let mut f = Function::new("bbr", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let a_blk = f.add_block("A");
    let r1 = f.add_block("R1");
    let rt = f.add_block("RT");
    let rx = f.add_block("RX");
    let g = f.add_block("G");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c0 = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c0, a_blk, r1);
    // true path: out[tid] = tid*7+1
    b.switch_to(a_blk);
    let x1 = b.mul(tid, b.const_i32(7));
    let y1 = b.add(x1, b.const_i32(1));
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(y1, p1);
    b.jump(g);
    // false path: if (tid < 16) { out[tid] = tid*7+2 } (else leave 0)
    b.switch_to(r1);
    let c1 = b.icmp(IcmpPred::Slt, tid, b.const_i32(16));
    b.br(c1, rt, rx);
    b.switch_to(rt);
    let x2 = b.mul(tid, b.const_i32(7));
    let y2 = b.add(x2, b.const_i32(2));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(y2, p2);
    b.jump(rx);
    b.switch_to(rx);
    b.jump(g);
    b.switch_to(g);
    b.ret(None);
    f
}

/// Chains of different lengths: true path has two subgraphs, false has one
/// — alignment must introduce a guarded gap.
fn gap_kernel() -> Function {
    let mut f = Function::new("gap", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t1 = f.add_block("T1");
    let t2 = f.add_block("T2");
    let f1 = f.add_block("F1");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, t1, f1);
    b.switch_to(t1);
    let v1 = b.mul(tid, b.const_i32(3)); // melds with F1's mul
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(v1, p1);
    b.jump(t2);
    b.switch_to(t2); // extra true-side work: out[tid] += 100
    let r1 = b.load(Type::I32, p1);
    let r2 = b.add(r1, b.const_i32(100));
    b.store(r2, p1);
    b.jump(x);
    b.switch_to(f1);
    let v2 = b.mul(tid, b.const_i32(9));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(v2, p2);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);
    f
}

/// [`gap_kernel`] with a true-side-only instruction in the melded pair,
/// whose value the guarded `T2` reads: the xor becomes an unpredicated gap
/// run, and `T2`'s use of it has to go through the run's `undef` φ.
fn gap_value_kernel() -> Function {
    let mut f = Function::new("gap_value", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t1 = f.add_block("T1");
    let t2 = f.add_block("T2");
    let f1 = f.add_block("F1");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let parity = b.and(tid, b.const_i32(1));
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, t1, f1);
    b.switch_to(t1);
    let v1 = b.mul(tid, b.const_i32(3));
    let g = b.xor(v1, b.const_i32(5)); // true side only
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(v1, p1);
    b.jump(t2);
    b.switch_to(t2);
    let r = b.add(g, b.const_i32(100));
    b.store(r, p1);
    b.jump(x);
    b.switch_to(f1);
    let v2 = b.mul(tid, b.const_i32(9));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(v2, p2);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);
    f
}

#[test]
fn diamond_melds_and_preserves_semantics() {
    let f = diamond_kernel();
    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert_eq!(stats.melded_subgraphs, 1);
    assert!(
        meld.cycles < base.cycles,
        "melding must reduce cycles: {meld:?} vs {base:?}"
    );
    assert!(meld.alu_utilization() > base.alu_utilization());
}

#[test]
fn diamond_branch_fusion_equals_darm() {
    let f = diamond_kernel();
    let (_, meld_bf, stats_bf) = check_meld(&f, &MeldConfig::branch_fusion(), |f| run(f, 64, &[]));
    assert_eq!(stats_bf.melded_subgraphs, 1);
    let (_, meld_darm, _) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert_eq!(meld_bf.cycles, meld_darm.cycles);
}

#[test]
fn bitonic_region_melds_under_darm_not_bf() {
    let f = bitonic_step_kernel();
    let input: Vec<i32> = (0..64).map(|i| (i * 37) % 101 - 50).collect();
    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run_io(f, &input, 64));
    assert!(
        stats.melded_subgraphs >= 1,
        "DARM must meld the region: {stats:?}"
    );
    assert!(
        meld.shared_mem_insts < base.shared_mem_insts,
        "melding must reduce issued LDS instructions ({} vs {})",
        meld.shared_mem_insts,
        base.shared_mem_insts
    );
    assert!(meld.cycles < base.cycles);

    // Branch fusion cannot handle the multi-block sides (Table I row 3).
    let mut bf = f.clone();
    let bf_stats = meld_function(&mut bf, &MeldConfig::branch_fusion());
    assert_eq!(
        bf_stats.melded_subgraphs, 0,
        "BF must not meld complex control flow"
    );
}

#[test]
fn bb_region_replication_melds() {
    let f = bb_region_kernel();
    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert!(
        stats.replications >= 1,
        "expected region replication: {stats:?}"
    );
    assert!(stats.melded_subgraphs >= 1);
    assert!(
        meld.cycles < base.cycles,
        "{} !< {}",
        meld.cycles,
        base.cycles
    );
}

#[test]
fn unmatched_subgraphs_stay_guarded() {
    let f = gap_kernel();
    let (_base, _meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert!(stats.melded_subgraphs >= 1, "{stats:?}");
}

/// A guarded subgraph reads a value of an unpredicated gap run. The round's
/// use substitution has not landed when unpredication runs, so the use
/// still names the original instruction; unpredication must route it
/// through the run's `undef` φ all the same, which leaves SSA repair
/// nothing to do. The run is pure ALU, so only the paper's §IV-E
/// unpredication (`meld(unpredicate=true)`) splits it.
#[test]
fn a_guarded_use_of_an_unpredicated_value_reads_the_runs_phi() {
    let f = gap_value_kernel();
    let paper = MeldConfig {
        unpredicate: true,
        ..MeldConfig::default()
    };
    let (_, _, stats) = check_meld(&f, &paper, |f| run(f, 64, &[]));
    assert_eq!(
        (stats.melded_subgraphs, stats.unpredicated_groups),
        (1, 1),
        "{stats:?}"
    );
    assert_eq!(stats.ssa_repairs, 0, "{stats:?}");
}

/// Emits instructions given `tid` and a running value; returns the new one.
type Extra = fn(&mut FunctionBuilder<'_>, Value, Value) -> Value;

/// [`diamond_kernel`] with `extra` emitted in its true arm (even lanes)
/// between the `mul` and the `add`, given `tid` and the product; its
/// result is what the `add` adds to. `extra`'s instructions are the arm's
/// only unaligned ones.
fn diamond_with_extra(extra: Extra) -> Function {
    let mut f = Function::new("extra", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let [t, e, x] = ["t", "e", "x"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let parity = b.and(tid, b.const_i32(1));
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, t, e);
    for (arm, k, extra) in [(t, 3, Some(extra)), (e, 5, None)] {
        b.switch_to(arm);
        let mut v = b.mul(tid, b.const_i32(k));
        if let Some(extra) = extra {
            v = extra(&mut b, tid, v);
        }
        let w = b.add(v, b.const_i32(10 * k));
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(w, p);
        b.jump(x);
    }
    b.switch_to(x);
    b.ret(None);
    f
}

/// The speculation rule, both halves: with unpredication off (the
/// default) a gap run that is safe to run for the other side's lanes stays
/// predicated in the melded block, and one holding a store or a divide is
/// split out as the paper's §IV-E unpredication splits it. Either way the
/// melded kernel computes what the unmelded one does.
#[test]
fn unpredication_off_predicates_only_speculable_runs() {
    let off = MeldConfig {
        unpredicate: false,
        ..MeldConfig::default()
    };
    let alu: Extra = |b, _, v| b.xor(v, Value::I32(6));
    let (_, _, stats) = check_meld(&diamond_with_extra(alu), &off, |f| run(f, 64, &[]));
    assert_eq!(stats.melded_subgraphs, 1);
    assert_eq!(
        stats.unpredicated_groups, 0,
        "a pure-ALU run stays predicated"
    );
    let on = MeldConfig {
        unpredicate: true,
        ..MeldConfig::default()
    };
    let (_, _, stats) = check_meld(&diamond_with_extra(alu), &on, |f| run(f, 64, &[]));
    assert_eq!(
        stats.unpredicated_groups, 1,
        "the paper's unpredication splits the same run"
    );

    // `100 / (1 - (tid & 1))` divides by zero on every false-side lane.
    let divide: Extra = |b, tid, v| {
        let parity = b.and(tid, Value::I32(1));
        let divisor = b.sub(Value::I32(1), parity);
        let q = b.sdiv(Value::I32(100), divisor);
        b.xor(v, q)
    };
    let store: Extra = |b, tid, v| {
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(v, p);
        v
    };
    for (what, extra) in [("divide", divide), ("store", store)] {
        let (_, _, stats) = check_meld(&diamond_with_extra(extra), &off, |f| run(f, 64, &[]));
        assert_eq!(stats.melded_subgraphs, 1, "{what}");
        assert!(
            stats.unpredicated_groups >= 1,
            "a run with a {what} is split"
        );
    }
}

#[test]
fn barrier_in_path_prevents_melding() {
    // Build the diamond but with a barrier in one arm: melding must refuse.
    let mut f = Function::new("bar", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t = f.add_block("t");
    let e = f.add_block("e");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(16));
    b.br(c, t, e);
    b.switch_to(t);
    let v1 = b.mul(tid, b.const_i32(3));
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(v1, p1);
    b.ballot(darm_ir::Value::I1(true)); // warp intrinsic: do not meld
    b.jump(x);
    b.switch_to(e);
    let v2 = b.mul(tid, b.const_i32(5));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(v2, p2);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);

    let mut melded = f.clone();
    let stats = meld_function(&mut melded, &MeldConfig::default());
    assert_eq!(stats.melded_subgraphs, 0);
}

#[test]
fn high_threshold_blocks_melding() {
    let f = diamond_kernel();
    let mut melded = f.clone();
    let stats = meld_function(&mut melded, &MeldConfig::with_threshold(0.95));
    assert_eq!(stats.melded_subgraphs, 0);
    // And a permissive threshold melds.
    let mut melded2 = f.clone();
    let stats2 = meld_function(&mut melded2, &MeldConfig::with_threshold(0.05));
    assert_eq!(stats2.melded_subgraphs, 1);
}

/// `threshold` is the one spelling of the profitability knob, so the spec
/// key is where a non-finite value is turned away; `mode` is not a key.
#[test]
fn spec_parameters_reject_non_finite_thresholds_and_mode() {
    use darm_pipeline::{PipelineError, PipelineOptions};
    let registry = darm_melding::registry(&MeldConfig::default());
    for spec in [
        "meld(threshold=nan)",
        "meld(threshold=inf)",
        "meld-bf(threshold=-inf)",
    ] {
        match registry.build(spec, PipelineOptions::default()) {
            Err(PipelineError::BadParameter { message, .. }) => {
                assert!(message.contains("`threshold`"), "{spec}: {message}")
            }
            other => panic!("{spec}: expected a bad threshold, got {:?}", other.err()),
        }
    }
    match registry.build("meld(mode=bf)", PipelineOptions::default()) {
        Err(PipelineError::BadParameter { message, .. }) => {
            assert!(message.contains("unknown parameter `mode`"), "{message}")
        }
        other => panic!("expected an unknown `mode`, got {:?}", other.err()),
    }
    let mut f = diamond_kernel();
    registry
        .build("meld(threshold=0.2)", PipelineOptions::default())
        .unwrap()
        .run(&mut f)
        .unwrap();
    assert!(f.to_string().contains("select"), "{f}");
}

#[test]
fn three_way_divergence_melds_iteratively() {
    // if (tid%3==0) A else if (tid%3==1) B else C — SB4's shape.
    let mut f = Function::new("three", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let a_blk = f.add_block("A");
    let sel2 = f.add_block("sel2");
    let b_blk = f.add_block("B");
    let c_blk = f.add_block("C");
    let j2 = f.add_block("j2");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let three = b.const_i32(3);
    let m = b.srem(tid, three);
    let c0 = b.icmp(IcmpPred::Eq, m, b.const_i32(0));
    b.br(c0, a_blk, sel2);
    b.switch_to(a_blk);
    let v0 = b.mul(tid, b.const_i32(11));
    let p0 = b.gep(Type::I32, b.param(0), tid);
    b.store(v0, p0);
    b.jump(x);
    b.switch_to(sel2);
    let c1 = b.icmp(IcmpPred::Eq, m, b.const_i32(1));
    b.br(c1, b_blk, c_blk);
    b.switch_to(b_blk);
    let v1 = b.mul(tid, b.const_i32(13));
    let p1 = b.gep(Type::I32, b.param(0), tid);
    b.store(v1, p1);
    b.jump(j2);
    b.switch_to(c_blk);
    let v2 = b.mul(tid, b.const_i32(17));
    let p2 = b.gep(Type::I32, b.param(0), tid);
    b.store(v2, p2);
    b.jump(j2);
    b.switch_to(j2);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);

    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 66, &[]));
    assert!(stats.melded_subgraphs >= 1, "{stats:?}");
    assert!(meld.cycles < base.cycles);
}

#[test]
fn meld_inside_loop_preserves_semantics() {
    // for (i = 0; i < 8; i++) { if (tid&1) out[tid]+=i*3 else out[tid]+=i*5 }
    let mut f = Function::new("loopmeld", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let header = f.add_block("header");
    let t = f.add_block("t");
    let e = f.add_block("e");
    let latch = f.add_block("latch");
    let exit = f.add_block("exit");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(Type::I32, &[(entry, darm_ir::Value::I32(0))]);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c0 = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c0, t, e);
    b.switch_to(t);
    let a1 = b.mul(i, b.const_i32(3));
    let o1 = b.load(Type::I32, p);
    let s1 = b.add(o1, a1);
    b.store(s1, p);
    b.jump(latch);
    b.switch_to(e);
    let a2 = b.mul(i, b.const_i32(5));
    let o2 = b.load(Type::I32, p);
    let s2 = b.add(o2, a2);
    b.store(s2, p);
    b.jump(latch);
    b.switch_to(latch);
    let inext = b.add(i, b.const_i32(1));
    let c1 = b.icmp(IcmpPred::Slt, inext, b.const_i32(8));
    b.br(c1, header, exit);
    b.switch_to(exit);
    b.ret(None);
    let pi = i.as_inst().unwrap();
    f.inst_mut(pi).operands.push(inext);
    f.inst_mut(pi).phi_blocks.push(latch);

    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert!(stats.melded_subgraphs >= 1, "{stats:?}");
    assert!(meld.cycles < base.cycles);
}

#[test]
fn melding_reduces_dynamic_divergence() {
    // Statically the branch count can stay flat (unpredication introduces
    // guard branches — the effect the paper's Fig. 4e discusses), but the
    // dynamic picture must improve: fewer warp instructions issued and
    // higher SIMD efficiency.
    let f = bitonic_step_kernel();
    let mut melded = f.clone();
    meld_function(&mut melded, &MeldConfig::default());
    assert!(melded.cond_branch_count() <= f.cond_branch_count());

    let input: Vec<i32> = (0..64).map(|i| (i * 37) % 101 - 50).collect();
    let (_, base) = run_io(&f, &input, 64);
    let (_, meld) = run_io(&melded, &input, 64);
    assert!(meld.warp_instructions < base.warp_instructions);
    assert!(meld.simd_efficiency() > base.simd_efficiency());
}

#[test]
fn tail_merge_handles_only_identical_diamond() {
    // Identical arms: tail merge works. Distinct arms: it does not, DARM does.
    let mut distinct = diamond_kernel();
    assert_eq!(tail_merge(&mut distinct), 0);
    let stats = meld_function(&mut distinct, &MeldConfig::default());
    assert_eq!(stats.melded_subgraphs, 1);
}

#[test]
fn meld_is_idempotent_at_fixpoint() {
    let f = diamond_kernel();
    let mut melded = f.clone();
    meld_function(&mut melded, &MeldConfig::default());
    let snapshot = melded.to_string();
    let stats2 = meld_function(&mut melded, &MeldConfig::default());
    assert_eq!(stats2.melded_subgraphs, 0);
    assert_eq!(melded.to_string(), snapshot);
}

#[test]
fn replication_never_targets_loop_regions() {
    // True side: single block with an expensive global load (high melding
    // profitability against the loop body). False side: a loop region.
    // Replicating into the loop would concretize its exit branch and spin
    // forever; the pass must refuse and stay correct.
    let mut f = Function::new("reploop", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let a_blk = f.add_block("A");
    let hdr = f.add_block("hdr");
    let body = f.add_block("body");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, a_blk, hdr);
    // true: out[tid] += 1 (load+add+store, like the loop body)
    b.switch_to(a_blk);
    let p = b.gep(Type::I32, b.param(0), tid);
    let v = b.load(Type::I32, p);
    let v2 = b.add(v, b.const_i32(1));
    b.store(v2, p);
    b.jump(x);
    // false: for i in 0..3 { out[tid] += 1 }
    b.switch_to(hdr);
    let i = b.phi(Type::I32, &[(entry, darm_ir::Value::I32(0))]);
    let hc = b.icmp(IcmpPred::Slt, i, b.const_i32(3));
    b.br(hc, body, x);
    b.switch_to(body);
    let p2 = b.gep(Type::I32, b.param(0), tid);
    let w = b.load(Type::I32, p2);
    let w2 = b.add(w, b.const_i32(1));
    b.store(w2, p2);
    let i2 = b.add(i, b.const_i32(1));
    b.jump(hdr);
    b.switch_to(x);
    b.ret(None);
    let pi = i.as_inst().unwrap();
    f.inst_mut(pi).operands.push(i2);
    f.inst_mut(pi).phi_blocks.push(body);

    let (_, _, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert_eq!(stats.replications, 0, "must not replicate into a loop");
}

#[test]
fn two_independent_regions_both_meld() {
    // Two back-to-back divergent diamonds: the fixpoint driver must meld
    // both.
    let mut f = Function::new("two", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t1 = f.add_block("t1");
    let e1 = f.add_block("e1");
    let m = f.add_block("m");
    let t2 = f.add_block("t2");
    let e2 = f.add_block("e2");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c1 = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c1, t1, e1);
    b.switch_to(t1);
    let v1 = b.mul(tid, b.const_i32(3));
    b.store(v1, p);
    b.jump(m);
    b.switch_to(e1);
    let v2 = b.mul(tid, b.const_i32(5));
    b.store(v2, p);
    b.jump(m);
    b.switch_to(m);
    let two = b.const_i32(2);
    let parity2 = b.and(tid, two);
    let c2 = b.icmp(IcmpPred::Eq, parity2, b.const_i32(0));
    b.br(c2, t2, e2);
    b.switch_to(t2);
    let w1 = b.load(Type::I32, p);
    let w1b = b.add(w1, b.const_i32(10));
    b.store(w1b, p);
    b.jump(x);
    b.switch_to(e2);
    let w2 = b.load(Type::I32, p);
    let w2b = b.add(w2, b.const_i32(20));
    b.store(w2b, p);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);

    let (base, meld, stats) = check_meld(&f, &MeldConfig::default(), |f| run(f, 64, &[]));
    assert_eq!(stats.melded_regions, 2, "{stats:?}");
    assert!(meld.cycles < base.cycles);
}

#[test]
fn y_dimension_divergence_melds() {
    // Divergence driven by tid.y in a 2-D block.
    let mut f = Function::new("ydiv", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let t = f.add_block("t");
    let e = f.add_block("e");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tx = b.thread_idx(Dim::X);
    let ty = b.thread_idx(Dim::Y);
    let ntx = b.block_dim(Dim::X);
    let row = b.mul(ty, ntx);
    let lid = b.add(row, tx);
    let p = b.gep(Type::I32, b.param(0), lid);
    let one = b.const_i32(1);
    let parity = b.and(ty, one);
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    b.br(c, t, e);
    b.switch_to(t);
    let v1 = b.mul(lid, b.const_i32(7));
    b.store(v1, p);
    b.jump(x);
    b.switch_to(e);
    let v2 = b.mul(lid, b.const_i32(9));
    b.store(v2, p);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);

    verify_ssa(&f).unwrap();
    let mut gpu = Gpu::new(GpuConfig::default());
    let buf = gpu.alloc_i32(&[0; 64]);
    let base = gpu
        .launch(
            &f,
            &LaunchConfig::grid2d((1, 1), (8, 8)),
            &[darm_simt::KernelArg::Buffer(buf)],
        )
        .unwrap();
    let base_out = gpu.read_i32(buf);

    let mut melded = f.clone();
    let stats = meld_function(&mut melded, &MeldConfig::default());
    assert_eq!(stats.melded_subgraphs, 1);
    verify_ssa(&melded).unwrap();
    let buf2 = gpu.alloc_i32(&[0; 64]);
    let after = gpu
        .launch(
            &melded,
            &LaunchConfig::grid2d((1, 1), (8, 8)),
            &[darm_simt::KernelArg::Buffer(buf2)],
        )
        .unwrap();
    assert_eq!(gpu.read_i32(buf2), base_out);
    // With an 8-wide x dimension, consecutive warps mix y parities: the
    // branch diverges inside each 32-lane warp and melding pays off.
    assert!(after.cycles < base.cycles);
}

#[test]
fn meld_stats_report_iterations_and_repairs() {
    let f = gap_kernel();
    let mut melded = f.clone();
    let stats = meld_function(&mut melded, &MeldConfig::default());
    assert!(stats.iterations >= 1);
    // The gap kernel forces values across guard boundaries: SSA repair or
    // unpredication φs must have fired at least once overall.
    assert!(stats.melded_subgraphs >= 1);
}
