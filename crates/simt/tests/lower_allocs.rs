//! Counting guards for lowering, in the style of
//! `crates/ir/tests/parse_allocs.rs`: heap allocations are counted, not
//! timed. Every launch lowers its kernel first, so lowering a small
//! function must not cost a vector per block. `BytecodeKernel::new` — which
//! takes its IPDOMs from the post-dominator core over its own scratch, not
//! from a `Cfg` and a tree — and the CFG and both dominator trees, in
//! compressed rows, presize every table from counts, so a 4-block diamond
//! and a 64-rung ladder allocate the same number of times.

use darm_analysis::{Cfg, DomTree, PostDomTree};
use darm_ir::Function;
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use darm_simt::BytecodeKernel;
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

/// `out[gid] = f_{N-1}(… f_0(in[gid]))`, each `f_r` a diamond on one bit
/// of the thread id with a φ at its join; one rung is a 4-block diamond.
fn generate(rungs: usize) -> Function {
    let spec = KernelSpec {
        shape: Shape::Ladder,
        rungs,
        arm_len: 2,
        arms: Arms::Similar,
        divergence: Divergence::Tid,
        uniform_third: false,
    };
    build_kernel("ladder", spec, &mut Rng::new(0))
}

fn diamond_and_ladder() -> (Function, Function) {
    let (diamond, ladder) = (generate(1), generate(64));
    assert_eq!(diamond.live_block_count(), 4);
    assert_eq!(ladder.live_block_count(), 1 + 3 * 64);
    (diamond, ladder)
}

#[test]
fn lowering_allocates_the_same_for_a_diamond_and_a_64_rung_ladder() {
    let (diamond, ladder) = diamond_and_ladder();
    let small = calls(|| BytecodeKernel::new(&diamond));
    let large = calls(|| BytecodeKernel::new(&ladder));
    assert_eq!(
        small, large,
        "diamond: {small} allocations, ladder: {large}"
    );
}

/// What lowering allocates: what it returns (the code and its latency
/// table, the block table, the φ edge and move tables, the constant and
/// parameter slot lists, the parameter types and the names) and one
/// scratch table for everything it reads and does not return — the block
/// and slot numbering, use counts, the constant dedup table, successor
/// rows and the post-dominator core's storage.
const LOWERING_ALLOCATIONS: usize = 10;

#[test]
fn lowering_allocates_what_it_returns_and_one_scratch_table() {
    let (diamond, ladder) = diamond_and_ladder();
    for (f, what) in [(&diamond, "diamond"), (&ladder, "ladder")] {
        let n = calls(|| BytecodeKernel::new(f));
        assert!(
            n <= LOWERING_ALLOCATIONS,
            "{what}: {n} allocations, at most {LOWERING_ALLOCATIONS} expected"
        );
    }
}

#[test]
fn cfg_and_both_trees_allocate_the_same_for_a_diamond_and_a_64_rung_ladder() {
    let (diamond, ladder) = diamond_and_ladder();
    let build = |f: &Function| {
        calls(|| {
            let cfg = Cfg::new(f);
            let trees = (DomTree::new(f, &cfg), PostDomTree::new(f, &cfg));
            (cfg, trees)
        })
    };
    let (small, large) = (build(&diamond), build(&ladder));
    assert_eq!(
        small, large,
        "diamond: {small} allocations, ladder: {large}"
    );
}
