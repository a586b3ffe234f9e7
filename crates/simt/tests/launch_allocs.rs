//! Counting guard for the bytecode engine's launch, in the style of
//! `lower_allocs.rs`: heap allocations are counted, not timed. The engine
//! keeps its per-warp books in fixed storage — φ provenance as lane-mask
//! groups reserved once per warp, a warp access's addresses in a fixed
//! array — so a launch allocates per block and per warp, never per
//! terminator, φ batch or memory access: a 4-rung and a 64-rung
//! interleaved ladder allocate the same number of times, with the timing
//! observer on or off (its scoreboard is one flat table per launch). The
//! reference interpreter keeps its books per block too — one flat register
//! file and reused φ-staging and address buffers, which its bank-conflict
//! model sorts in place — so a loop of 2 and of 200 trips costs it the same
//! allocations, with or without shared-memory traffic.

use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelArg, LaunchConfig, TimingConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocator calls this thread made. Per thread, so tests running side
    /// by side do not count each other.
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a `Cell` in
// thread-local storage that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls `f` made (its result is dropped outside the count).
fn calls<T>(f: impl FnOnce() -> T) -> usize {
    let before = CALLS.get();
    let out = f();
    let after = CALLS.get();
    drop(out);
    after - before
}

/// `out[tid] = f_{N-1}(… f_0(in[tid]))`, each `f_r` a diamond on `tid & 1`
/// — odd and even lanes interleaved in both arms — whose odd arm loads
/// `in[tid]`, whose join resolves a φ from two provenance groups and
/// stores the running value to `out[tid]`.
fn interleaved_ladder(rungs: usize) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new("interleaved", vec![ptr, ptr], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let src = b.gep(Type::I32, b.param(1), tid);
    let dst = b.gep(Type::I32, b.param(0), tid);
    let mut acc = tid;
    for r in 0..rungs {
        let bit = b.and(tid, Value::I32(1));
        let odd = b.icmp(IcmpPred::Ne, bit, Value::I32(0));
        let [t, e, j] = ["t", "e", "j"].map(|n| b.add_block(&format!("r{r}.{n}")));
        b.br(odd, t, e);
        b.switch_to(t);
        let x = b.load(Type::I32, src);
        let vt = b.add(acc, x);
        b.jump(j);
        b.switch_to(e);
        let ve = b.mul(acc, Value::I32(3));
        b.jump(j);
        b.switch_to(j);
        acc = b.phi(Type::I32, &[(t, vt), (e, ve)]);
        b.store(acc, dst);
    }
    b.ret(None);
    f.verify_structure().expect("the ladder is well-formed");
    f
}

/// `out[tid] = f^n(tid)` for the trip count `n` in the second argument:
/// a loop whose header φs and ALU body run once per trip, with one store
/// after the exit. With `shared`, each trip also stores its value to a
/// shared array and loads it back, at word `2 * tid mod 64`, so that two
/// lanes of a warp meet in every bank.
fn trip_loop(shared: bool) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new("trip_loop", vec![ptr, Type::I32], Type::Void);
    if shared {
        f.add_shared_array("tile", Type::I32, 64);
    }
    let entry = f.entry();
    let [header, exit] = ["header", "exit"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi(Type::I32, &[(entry, Value::I32(0))]);
    let acc = b.phi(Type::I32, &[(entry, tid)]);
    let mut scaled = b.mul(acc, Value::I32(3));
    if shared {
        let twice = b.mul(tid, Value::I32(2));
        let word = b.and(twice, Value::I32(63));
        let tile = b.shared_base(0);
        let at = b.gep(Type::I32, tile, word);
        b.store(scaled, at);
        scaled = b.load(Type::I32, at);
    }
    let acc_next = b.xor(scaled, i);
    let i_next = b.add(i, Value::I32(1));
    let more = b.icmp(IcmpPred::Slt, i_next, b.param(1));
    b.br(more, header, exit);
    b.switch_to(exit);
    let dst = b.gep(Type::I32, b.param(0), tid);
    b.store(acc_next, dst);
    b.ret(None);
    for (phi, next) in [(i, i_next), (acc, acc_next)] {
        let phi = f.inst_mut(phi.as_inst().expect("a φ is an instruction"));
        phi.operands.push(next);
        phi.phi_blocks.push(header);
    }
    f.verify_structure().expect("the loop is well-formed");
    f
}

/// Allocations of one reference launch of [`trip_loop`] at 2 and at 200
/// trips.
fn reference_trip_allocations(shared: bool) -> (usize, usize) {
    // Two blocks of two warps each, the second warp a partial one.
    let launch = LaunchConfig::linear(2, 48);
    let f = trip_loop(shared);
    let run = |trips: i32| {
        let mut gpu = Gpu::new(GpuConfig::default());
        let out = gpu.alloc_i32(&[0; 48]);
        let args = [KernelArg::Buffer(out), KernelArg::I32(trips)];
        let mut stats = None;
        let n = calls(|| {
            stats = Some(
                gpu.launch_reference(&f, &launch, &args)
                    .expect("the loop runs"),
            );
        });
        let conflicts = stats.expect("launched").shared_bank_conflicts;
        assert_eq!(conflicts > 0, shared, "{conflicts} bank conflicts");
        (n, gpu.read_i32(out))
    };
    let ((short, short_out), (long, long_out)) = (run(2), run(200));
    assert_ne!(short_out, long_out, "the trip count reached the result");
    (short, long)
}

#[test]
fn a_reference_launch_allocates_the_same_for_2_and_200_loop_trips() {
    let (short, long) = reference_trip_allocations(false);
    assert_eq!(
        short, long,
        "2 trips: {short} allocations, 200 trips: {long}"
    );
}

#[test]
fn a_reference_launch_allocates_the_same_for_2_and_200_shared_loop_trips() {
    let (short, long) = reference_trip_allocations(true);
    assert_eq!(
        short, long,
        "2 trips: {short} allocations, 200 trips: {long}"
    );
}

/// Allocations of one bytecode launch of a 4-rung and of a 64-rung
/// [`interleaved_ladder`] under `config`.
fn ladder_allocations(config: GpuConfig) -> (usize, usize) {
    // Two blocks of two warps each, the second warp a partial one.
    let launch = LaunchConfig::linear(2, 48);
    let run = |rungs: usize| {
        let f = interleaved_ladder(rungs);
        let bk = BytecodeKernel::new(&f);
        let mut gpu = Gpu::new(config);
        let out = gpu.alloc_i32(&[0; 48]);
        let input = gpu.alloc_i32(&(0..48).collect::<Vec<i32>>());
        let args = [KernelArg::Buffer(out), KernelArg::Buffer(input)];
        let n = calls(|| {
            gpu.launch_bytecode(&bk, &launch, &args)
                .expect("the ladder runs")
        });
        (n, gpu.read_i32(out))
    };
    let ((small, _), (large, out)) = (run(4), run(64));
    assert_ne!(out, vec![0; 48], "the ladder stored its results");
    (small, large)
}

/// What a launch of a φ kernel allocates, once for all its blocks and
/// warps: the register file with its definedness words, the warp list,
/// the warps' reconvergence stacks, their provenance lists with the φ
/// buckets, and the coalescing model's scratch.
const LAUNCH_ALLOCATIONS: usize = 5;

#[test]
fn a_launch_allocates_a_fixed_handful_whatever_its_blocks_and_warps() {
    let f = interleaved_ladder(4);
    let bk = BytecodeKernel::new(&f);
    for (blocks, threads) in [(1, 64), (1, 1024), (3, 48)] {
        let mut gpu = Gpu::new(GpuConfig::default());
        let n = (blocks * threads) as usize;
        let out = gpu.alloc_i32(&vec![0; n]);
        let input = gpu.alloc_i32(&(0..n as i32).collect::<Vec<i32>>());
        let args = [KernelArg::Buffer(out), KernelArg::Buffer(input)];
        let launch = LaunchConfig::linear(blocks, threads);
        let n = calls(|| {
            gpu.launch_bytecode(&bk, &launch, &args)
                .expect("the ladder runs")
        });
        assert!(
            n <= LAUNCH_ALLOCATIONS,
            "{blocks} x {threads}: {n} allocations, at most {LAUNCH_ALLOCATIONS} expected"
        );
    }
}

#[test]
fn a_launch_allocates_the_same_for_a_4_and_a_64_rung_interleaved_ladder() {
    let (small, large) = ladder_allocations(GpuConfig::default());
    assert_eq!(
        small, large,
        "4 rungs: {small} allocations, 64 rungs: {large}"
    );
}

#[test]
fn a_timed_launch_allocates_the_same_for_a_4_and_a_64_rung_interleaved_ladder() {
    let (small, large) = ladder_allocations(GpuConfig {
        timing: TimingConfig::on(),
        ..GpuConfig::default()
    });
    assert_eq!(
        small, large,
        "4 rungs: {small} allocations, 64 rungs: {large}"
    );
}
