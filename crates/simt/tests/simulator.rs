//! End-to-end simulator tests: SIMT semantics (lockstep, reconvergence,
//! barriers) and the performance-counter model.

use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use darm_simt::{Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, SimError};

fn gpu() -> Gpu {
    Gpu::new(GpuConfig::default())
}

/// out[tid] = (tid % 2 == 0) ? tid * 3 : tid + 100, via a divergent branch.
fn divergent_kernel() -> Function {
    let mut f = Function::new("div", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let even = f.add_block("even");
    let odd = f.add_block("odd");
    let join = f.add_block("join");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let two = b.const_i32(2);
    let rem = b.srem(tid, two);
    let c = b.icmp(IcmpPred::Eq, rem, b.const_i32(0));
    b.br(c, even, odd);
    b.switch_to(even);
    let v1 = b.mul(tid, b.const_i32(3));
    b.jump(join);
    b.switch_to(odd);
    let v2 = b.add(tid, b.const_i32(100));
    b.jump(join);
    b.switch_to(join);
    let v = b.phi(Type::I32, &[(even, v1), (odd, v2)]);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(v, p);
    b.ret(None);
    f
}

#[test]
fn divergent_branch_reconverges_with_correct_values() {
    let f = divergent_kernel();
    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 64]);
    let stats = g
        .launch(&f, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(buf)])
        .unwrap();
    let out = g.read_i32(buf);
    for tid in 0..64 {
        let expect = if tid % 2 == 0 { tid * 3 } else { tid + 100 };
        assert_eq!(out[tid as usize], expect, "tid {tid}");
    }
    // Both sides executed under partial masks: SIMD efficiency below 1.
    assert!(stats.simd_efficiency() < 1.0);
    assert!(stats.alu_utilization() < 100.0);
}

#[test]
fn uniform_branch_keeps_full_efficiency() {
    // All threads take the same side: no divergence penalty.
    let mut f = Function::new(
        "uni",
        vec![Type::Ptr(AddrSpace::Global), Type::I32],
        Type::Void,
    );
    let entry = f.entry();
    let t = f.add_block("t");
    let e = f.add_block("e");
    let x = f.add_block("x");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let c = b.icmp(IcmpPred::Sgt, b.param(1), b.const_i32(0));
    b.br(c, t, e);
    b.switch_to(t);
    let v1 = b.mul(tid, b.const_i32(2));
    b.jump(x);
    b.switch_to(e);
    let v2 = b.add(tid, b.const_i32(7));
    b.jump(x);
    b.switch_to(x);
    let v = b.phi(Type::I32, &[(t, v1), (e, v2)]);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(v, p);
    b.ret(None);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 32]);
    let stats = g
        .launch(
            &f,
            &LaunchConfig::linear(1, 32),
            &[KernelArg::Buffer(buf), KernelArg::I32(1)],
        )
        .unwrap();
    assert_eq!(g.read_i32(buf)[5], 10);
    assert!((stats.simd_efficiency() - 1.0).abs() < 1e-9);
    assert!((stats.alu_utilization() - 100.0).abs() < 1e-9);
}

#[test]
fn divergence_costs_cycles_vs_uniform_equivalent() {
    // Same total work, once divergent (odd/even) and once uniform.
    let div = divergent_kernel();
    let mut uni = Function::new("u", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    {
        let entry = uni.entry();
        let mut b = FunctionBuilder::new(&mut uni, entry);
        let tid = b.thread_idx(Dim::X);
        let v = b.mul(tid, b.const_i32(3));
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(v, p);
        b.ret(None);
    }
    let mut g = gpu();
    let b1 = g.alloc_i32(&[0; 64]);
    let b2 = g.alloc_i32(&[0; 64]);
    let sd = g
        .launch(&div, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(b1)])
        .unwrap();
    let su = g
        .launch(&uni, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(b2)])
        .unwrap();
    assert!(sd.cycles > su.cycles);
    assert!(sd.warp_instructions > su.warp_instructions);
}

#[test]
fn loop_with_phi_executes() {
    // out[tid] = sum(0..=tid)
    let mut f = Function::new("loop", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let header = f.add_block("header");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(Type::I32, &[(entry, Value::I32(0))]);
    let acc = b.phi(Type::I32, &[(entry, Value::I32(0))]);
    let c = b.icmp(IcmpPred::Sle, i, tid);
    b.br(c, body, exit);
    b.switch_to(body);
    let acc2 = b.add(acc, i);
    let i2 = b.add(i, b.const_i32(1));
    b.jump(header);
    b.switch_to(exit);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(acc, p);
    b.ret(None);
    let (pi, pa) = (i.as_inst().unwrap(), acc.as_inst().unwrap());
    f.inst_mut(pi).operands.push(i2);
    f.inst_mut(pi).phi_blocks.push(body);
    f.inst_mut(pa).operands.push(acc2);
    f.inst_mut(pa).phi_blocks.push(body);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 32]);
    g.launch(&f, &LaunchConfig::linear(1, 32), &[KernelArg::Buffer(buf)])
        .unwrap();
    let out = g.read_i32(buf);
    for tid in 0..32i32 {
        assert_eq!(out[tid as usize], tid * (tid + 1) / 2, "tid {tid}");
    }
}

/// The swap problem: two loop-header φs that read each other (`a, b = b,
/// a` on every back edge, `tid % 4` times). The edge's φ moves are one
/// parallel copy; applied one after the other, the second would read the
/// first one's result and both would end up equal.
#[test]
fn loop_phis_that_read_each_other_swap_in_parallel() {
    let mut f = Function::new("swap", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let header = f.add_block("header");
    let body = f.add_block("body");
    let exit = f.add_block("exit");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let trips = b.and(tid, b.const_i32(3));
    b.jump(header);
    b.switch_to(header);
    let x = b.phi(Type::I32, &[(entry, tid)]);
    let y = b.phi(Type::I32, &[(entry, Value::I32(100))]);
    let i = b.phi(Type::I32, &[(entry, Value::I32(0))]);
    let c = b.icmp(IcmpPred::Slt, i, trips);
    b.br(c, body, exit);
    b.switch_to(body);
    let i2 = b.add(i, b.const_i32(1));
    b.jump(header);
    b.switch_to(exit);
    let d = b.sub(x, y);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(d, p);
    b.ret(None);
    for (phi, v) in [(x, y), (y, x), (i, i2)] {
        let phi = f.inst_mut(phi.as_inst().unwrap());
        phi.operands.push(v);
        phi.phi_blocks.push(body);
    }

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 32]);
    let args = [KernelArg::Buffer(buf)];
    g.launch(&f, &LaunchConfig::linear(1, 32), &args).unwrap();
    let out = g.read_i32(buf);
    g.launch_reference(&f, &LaunchConfig::linear(1, 32), &args)
        .unwrap();
    assert_eq!(out, g.read_i32(buf), "bytecode vs reference");
    for tid in 0..32i32 {
        let want = if tid % 4 % 2 == 0 {
            tid - 100
        } else {
            100 - tid
        };
        assert_eq!(out[tid as usize], want, "tid {tid}");
    }
}

#[test]
fn nested_divergence_reconverges() {
    // if (tid & 1) { if (tid & 2) a = 1 else a = 2 } else a = 3
    let mut f = Function::new("nest", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let outer_t = f.add_block("outer_t");
    let in_t = f.add_block("in_t");
    let in_e = f.add_block("in_e");
    let in_j = f.add_block("in_j");
    let outer_e = f.add_block("outer_e");
    let join = f.add_block("join");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let a1 = b.and(tid, b.const_i32(1));
    let c1 = b.icmp(IcmpPred::Ne, a1, b.const_i32(0));
    b.br(c1, outer_t, outer_e);
    b.switch_to(outer_t);
    let a2 = b.and(tid, b.const_i32(2));
    let c2 = b.icmp(IcmpPred::Ne, a2, b.const_i32(0));
    b.br(c2, in_t, in_e);
    b.switch_to(in_t);
    b.jump(in_j);
    b.switch_to(in_e);
    b.jump(in_j);
    b.switch_to(in_j);
    let v_in = b.phi(Type::I32, &[(in_t, Value::I32(1)), (in_e, Value::I32(2))]);
    b.jump(join);
    b.switch_to(outer_e);
    b.jump(join);
    b.switch_to(join);
    let v = b.phi(Type::I32, &[(in_j, v_in), (outer_e, Value::I32(3))]);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(v, p);
    b.ret(None);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 32]);
    g.launch(&f, &LaunchConfig::linear(1, 32), &[KernelArg::Buffer(buf)])
        .unwrap();
    let out = g.read_i32(buf);
    for tid in 0..32 {
        let expect = if tid & 1 != 0 {
            if tid & 2 != 0 {
                1
            } else {
                2
            }
        } else {
            3
        };
        assert_eq!(out[tid as usize], expect, "tid {tid}");
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn shared_memory_and_barrier_reverse_across_warps() {
    // shared[tid] = in[tid]; barrier; out[tid] = shared[n-1-tid]
    // With 128 threads = 4 warps, correctness requires the barrier.
    let n = 128u32;
    let mut f = Function::new(
        "rev",
        vec![Type::Ptr(AddrSpace::Global), Type::Ptr(AddrSpace::Global)],
        Type::Void,
    );
    let sh = f.add_shared_array("tile", Type::I32, n as u64);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let gin = b.gep(Type::I32, b.param(0), tid);
    let v = b.load(Type::I32, gin);
    let base = b.shared_base(sh);
    let sp = b.gep(Type::I32, base, tid);
    b.store(v, sp);
    b.syncthreads();
    let nm1 = b.const_i32(n as i32 - 1);
    let ridx = b.sub(nm1, tid);
    let rp = b.gep(Type::I32, base, ridx);
    let rv = b.load(Type::I32, rp);
    let gout = b.gep(Type::I32, b.param(1), tid);
    b.store(rv, gout);
    b.ret(None);

    let input: Vec<i32> = (0..n as i32).map(|x| x * 7).collect();
    let mut g = gpu();
    let bin = g.alloc_i32(&input);
    let bout = g.alloc_i32(&vec![0; n as usize]);
    let stats = g
        .launch(
            &f,
            &LaunchConfig::linear(1, n),
            &[KernelArg::Buffer(bin), KernelArg::Buffer(bout)],
        )
        .unwrap();
    let out = g.read_i32(bout);
    for i in 0..n as usize {
        assert_eq!(out[i], input[n as usize - 1 - i]);
    }
    assert_eq!(stats.barriers, 4); // one per warp
    assert!(stats.shared_mem_insts > 0);
}

#[test]
#[allow(clippy::needless_range_loop)]
fn multi_block_grid_covers_all_threads() {
    // out[ctaid * ntid + tid] = ctaid
    let mut f = Function::new("grid", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let bid = b.block_idx(Dim::X);
    let bdim = b.block_dim(Dim::X);
    let off = b.mul(bid, bdim);
    let gid = b.add(off, tid);
    let p = b.gep(Type::I32, b.param(0), gid);
    b.store(bid, p);
    b.ret(None);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 256]);
    g.launch(&f, &LaunchConfig::linear(4, 64), &[KernelArg::Buffer(buf)])
        .unwrap();
    let out = g.read_i32(buf);
    for i in 0..256 {
        assert_eq!(out[i], (i / 64) as i32);
    }
}

#[test]
#[allow(clippy::needless_range_loop)]
fn two_dimensional_launch() {
    // out[ty * dimx + tx] = tx + 10 * ty
    let mut f = Function::new("k2d", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tx = b.thread_idx(Dim::X);
    let ty = b.thread_idx(Dim::Y);
    let dimx = b.block_dim(Dim::X);
    let row = b.mul(ty, dimx);
    let idx = b.add(row, tx);
    let ten = b.const_i32(10);
    let sy = b.mul(ty, ten);
    let v = b.add(tx, sy);
    let p = b.gep(Type::I32, b.param(0), idx);
    b.store(v, p);
    b.ret(None);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 64]);
    g.launch(
        &f,
        &LaunchConfig::grid2d((1, 1), (8, 8)),
        &[KernelArg::Buffer(buf)],
    )
    .unwrap();
    let out = g.read_i32(buf);
    for y in 0..8 {
        for x in 0..8 {
            assert_eq!(out[y * 8 + x], (x + 10 * y) as i32);
        }
    }
}

#[test]
fn coalescing_counts_transactions() {
    // Coalesced: out[tid] = in[tid]. Scattered: out[tid] = in[tid * 64].
    let build = |stride: i32| {
        let mut f = Function::new(
            "c",
            vec![Type::Ptr(AddrSpace::Global), Type::Ptr(AddrSpace::Global)],
            Type::Void,
        );
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let s = b.const_i32(stride);
        let idx = b.mul(tid, s);
        let pin = b.gep(Type::I32, b.param(0), idx);
        let v = b.load(Type::I32, pin);
        let pout = b.gep(Type::I32, b.param(1), tid);
        b.store(v, pout);
        b.ret(None);
        f
    };
    let mut g = gpu();
    let big = g.alloc_i32(&vec![1; 64 * 32]);
    let out = g.alloc_i32(&[0; 32]);
    let coalesced = g
        .launch(
            &build(1),
            &LaunchConfig::linear(1, 32),
            &[KernelArg::Buffer(big), KernelArg::Buffer(out)],
        )
        .unwrap();
    let scattered = g
        .launch(
            &build(64),
            &LaunchConfig::linear(1, 32),
            &[KernelArg::Buffer(big), KernelArg::Buffer(out)],
        )
        .unwrap();
    assert!(scattered.global_transactions > coalesced.global_transactions);
    assert!(scattered.cycles > coalesced.cycles);
}

#[test]
#[allow(clippy::needless_range_loop)]
fn ballot_returns_warp_mask() {
    // out[tid] = popcount-ish check: ballot(tid < 4) must equal 0b1111 for
    // every lane of warp 0.
    let mut f = Function::new("bal", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(4));
    let mask = b.ballot(c);
    let lo = b.trunc(mask, Type::I32);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(lo, p);
    b.ret(None);

    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 32]);
    g.launch(&f, &LaunchConfig::linear(1, 32), &[KernelArg::Buffer(buf)])
        .unwrap();
    let out = g.read_i32(buf);
    for i in 0..32 {
        assert_eq!(out[i], 0b1111, "lane {i}");
    }
}

#[test]
fn out_of_bounds_is_an_error() {
    let mut f = Function::new("oob", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let big = b.add(tid, b.const_i32(1_000_000));
    let p = b.gep(Type::I32, b.param(0), big);
    b.store(tid, p);
    b.ret(None);
    let mut g = gpu();
    let buf = g.alloc_i32(&[0; 8]);
    let err = g
        .launch(&f, &LaunchConfig::linear(1, 8), &[KernelArg::Buffer(buf)])
        .unwrap_err();
    assert!(matches!(err, SimError::OutOfBounds(_)));
}

#[test]
fn bad_args_are_rejected() {
    let f = divergent_kernel();
    let mut g = gpu();
    let err = g.launch(&f, &LaunchConfig::linear(1, 8), &[]).unwrap_err();
    assert!(matches!(err, SimError::BadArgs(_)));
    let err2 = g
        .launch(&f, &LaunchConfig::linear(1, 8), &[KernelArg::I32(3)])
        .unwrap_err();
    assert!(matches!(err2, SimError::BadArgs(_)));
}

#[test]
fn infinite_loop_hits_step_limit() {
    let mut f = Function::new("inf", vec![], Type::Void);
    let entry = f.entry();
    let spin = f.add_block("spin");
    let mut b = FunctionBuilder::new(&mut f, entry);
    b.jump(spin);
    b.switch_to(spin);
    let x = b.add(b.const_i32(1), b.const_i32(1));
    let _y = b.mul(x, x);
    b.jump(spin);
    let mut g = Gpu::new(GpuConfig {
        warp_size: 32,
        max_warp_instructions: 10_000,
        ..GpuConfig::default()
    });
    let err = g.launch(&f, &LaunchConfig::linear(1, 32), &[]).unwrap_err();
    assert!(matches!(err, SimError::StepLimit));
}

#[test]
fn stats_accumulate_across_blocks() {
    let f = divergent_kernel();
    let mut g = gpu();
    let buf1 = g.alloc_i32(&[0; 64]);
    let one: KernelStats = g
        .launch(&f, &LaunchConfig::linear(1, 64), &[KernelArg::Buffer(buf1)])
        .unwrap();
    let buf2 = g.alloc_i32(&[0; 256]);
    let four: KernelStats = g
        .launch(&f, &LaunchConfig::linear(4, 64), &[KernelArg::Buffer(buf2)])
        .unwrap();
    assert_eq!(four.warp_instructions, 4 * one.warp_instructions);
    assert_eq!(four.cycles, 4 * one.cycles);
}

#[test]
fn shared_memory_bank_conflicts_cost_cycles() {
    // Conflict-free: tile[tid]. 8-way conflict: tile[tid * 8] (every 8th
    // lane maps to the same bank with distinct words).
    let build = |stride: i32| {
        let mut f = Function::new("bank", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let sh = f.add_shared_array("tile", Type::I32, 32 * 8);
        let entry = f.entry();
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let s = b.const_i32(stride);
        let idx = b.mul(tid, s);
        let base = b.shared_base(sh);
        let p = b.gep(Type::I32, base, idx);
        b.store(tid, p);
        let v = b.load(Type::I32, p);
        let gp = b.gep(Type::I32, b.param(0), tid);
        b.store(v, gp);
        b.ret(None);
        f
    };
    let mut g = gpu();
    let out = g.alloc_i32(&[0; 32]);
    let clean = g
        .launch(
            &build(1),
            &LaunchConfig::linear(1, 32),
            &[KernelArg::Buffer(out)],
        )
        .unwrap();
    let conflicted = g
        .launch(
            &build(8),
            &LaunchConfig::linear(1, 32),
            &[KernelArg::Buffer(out)],
        )
        .unwrap();
    assert_eq!(clean.shared_bank_conflicts, 0);
    assert!(conflicted.shared_bank_conflicts > 0);
    assert!(conflicted.cycles > clean.cycles);
    // Same number of issued LDS instructions either way: conflicts cost
    // cycles, not instruction count.
    assert_eq!(clean.shared_mem_insts, conflicted.shared_mem_insts);
}

#[test]
fn broadcast_shared_access_is_conflict_free() {
    // All lanes read tile[0]: a broadcast, not a conflict.
    let mut f = Function::new("bcast", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let sh = f.add_shared_array("tile", Type::I32, 32);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let base = b.shared_base(sh);
    let p0 = b.gep(Type::I32, base, b.const_i32(0));
    b.store(b.const_i32(7), p0);
    let v = b.load(Type::I32, p0);
    let gp = b.gep(Type::I32, b.param(0), tid);
    b.store(v, gp);
    b.ret(None);
    let mut g = gpu();
    let out = g.alloc_i32(&[0; 32]);
    let stats = g
        .launch(&f, &LaunchConfig::linear(1, 32), &[KernelArg::Buffer(out)])
        .unwrap();
    assert_eq!(stats.shared_bank_conflicts, 0);
    assert_eq!(g.read_i32(out), vec![7; 32]);
}
