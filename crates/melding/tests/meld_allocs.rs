//! Counting guard for a meld round, in the style of
//! `crates/ir/tests/parse_allocs.rs`: heap allocations are counted, not
//! timed. A round melds every disjoint region and then rewrites uses once,
//! so what it allocates at the size of the instruction arena — the use
//! substitution's table, the cleanup passes' per-instruction tables, the
//! apply's side tables as they grow — follows the number of rounds. It
//! must not follow the number of regions melded (one function-sized use
//! rewrite per region) or of blocks merged (one per merge in `simplify`).

use darm_analysis::verify_ssa;
use darm_ir::Function;
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use darm_melding::{meld_function, MeldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(threshold, count)`: this thread's allocations of at least
    /// `threshold` bytes. Per thread, so tests running side by side do not
    /// count each other.
    static LARGE: Cell<(usize, usize)> = const { Cell::new((usize::MAX, 0)) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGE.try_with(|l| {
        let (threshold, count) = l.get();
        if bytes >= threshold {
            l.set((threshold, count + 1));
        }
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` touches only a `Cell` in
// thread-local storage that has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result with the allocations of at least `threshold` bytes it made.
fn counted<T>(threshold: usize, f: impl FnOnce() -> T) -> (T, usize) {
    LARGE.set((threshold, 0));
    let out = f();
    let (_, count) = LARGE.replace((usize::MAX, 0));
    (out, count)
}

/// `out[gid] = f_{N-1}(… f_0(in[gid]))`, each `f_r` a diamond on one bit
/// of the thread id whose arms run the same three opcodes on different
/// constants: every rung melds, in one round, and its blocks then merge
/// into one straight line.
fn generate(rungs: usize) -> Function {
    let spec = KernelSpec {
        shape: Shape::Ladder,
        rungs,
        arm_len: 3,
        arms: Arms::Similar,
        divergence: Divergence::Tid,
        uniform_third: false,
    };
    build_kernel("ladder", spec, &mut Rng::new(0))
}

/// Allocations of at least the input arena's length in bytes one fixpoint
/// round may make, whatever it melds: the round's substitution table, the
/// analyses and the cleanup passes' tables, and the growth steps of the
/// tables the applies share. Measured: 70–82 over the two rounds of a
/// 100-, 300- or 600-rung ladder, where one rewrite per region and one per
/// merged block made 224, 551 and 1 044.
const ARENA_SIZED_PER_ROUND: usize = 48;

#[test]
fn arena_sized_allocations_follow_rounds_not_regions_or_merges() {
    for rungs in [100, 300] {
        let mut f = generate(rungs);
        verify_ssa(&f).expect("ladder verifies");
        let threshold = f.inst_capacity();
        let (stats, large) = counted(threshold, || meld_function(&mut f, &MeldConfig::default()));
        verify_ssa(&f).expect("melded ladder verifies");
        assert_eq!(stats.melded_regions, rungs, "every rung melds");
        assert_eq!(stats.iterations, 2, "{rungs} rungs meld in one round");
        assert_eq!(
            f.live_block_count(),
            1,
            "the melded rungs merge into one block"
        );
        assert!(
            large <= ARENA_SIZED_PER_ROUND * stats.iterations,
            "{rungs} rungs: {large} allocations of {threshold}+ bytes in {} rounds",
            stats.iterations
        );
    }
}
