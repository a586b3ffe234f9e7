//! Pins the benchmark to one CPU.
//!
//! Everything a round does is serial — one request outstanding, one worker,
//! `jobs = 1` — but the serve phase hands each request across three threads
//! (client, connection reader, worker). Left to the scheduler, those
//! hand-offs sometimes cross to an idle virtual CPU that the hypervisor has
//! to wake first, and whole runs then read 40 % slower on `paper57`'s
//! 90 µs warm requests (131 µs against 93 µs, measured; compile and
//! simulate do not move). On one CPU a hand-off is a context switch and
//! the figure repeats to 1 %. Threads inherit the mask of the thread that
//! spawns them, so pinning the main thread once pins the engine's workers
//! and the connection thread too.

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Once pinned: the CPUs the process started with, and the one it kept.
static PINNED: OnceLock<(CpuSet, CpuSet)> = OnceLock::new();

fn allow(set: &CpuSet) -> bool {
    // SAFETY: `set` points to `size_of::<CpuSet>()` readable bytes, which is
    // the size passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on (CPU 0 takes most interrupts).
/// Without permission to do so the benchmark runs unpinned.
pub fn pin_to_one_cpu() {
    let mut all: CpuSet = [0; 16];
    // SAFETY: `all` has room for the `size_of::<CpuSet>()` bytes the call
    // may write; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size_of::<CpuSet>(), all.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(word) = all.iter().rposition(|w| *w != 0) else {
        return;
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - all[word].leading_zeros());
    if allow(&one) {
        PINNED.get_or_init(|| (all, one));
    }
}

/// Runs `f` on every CPU the process started with: the one probe that
/// measures parallel speed-up needs them.
pub fn on_all_cpus<T>(f: impl FnOnce() -> T) -> T {
    let Some((all, one)) = PINNED.get() else {
        return f();
    };
    allow(all);
    let out = f();
    allow(one);
    out
}
