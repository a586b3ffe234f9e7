//! Performance counters — the simulator's answer to `rocprof` (§VI-B..D).
//!
//! The reference interpreter and the bytecode engine charge into the same
//! [`KernelStats`], which is what lets the differential tests assert `==`
//! on the struct.
//!
//! Two families of counters live here. The base counters (`cycles`,
//! `warp_instructions`, …) are charged unconditionally by both and form
//! the bit-identity contract. The `sim_*` fields are filled in only
//! when the cycle-level timing model ([`crate::timing`]) is enabled; with
//! timing off they stay zero, so a timing-off run's stats compare equal to
//! any pre-timing build.

use crate::mem::decode;
use darm_ir::cost;

/// Counters collected over one kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Total issue cycles summed over all warps. Speedups in the
    /// reproduction are ratios of this number.
    pub cycles: u64,
    /// Dynamically issued warp instructions (each issue covers all active
    /// lanes of one warp).
    pub warp_instructions: u64,
    /// Sum of active lanes over all issues (thread-instructions).
    pub thread_instructions: u64,
    /// Issued ALU warp instructions (arithmetic, compares, selects, casts,
    /// address computation).
    pub alu_issues: u64,
    /// Active lanes summed over ALU issues; `alu_utilization` =
    /// `alu_active_lanes / (alu_issues * warp_size)`.
    pub alu_active_lanes: u64,
    /// Issued global-memory loads+stores ("vector mem RD+WR" in Fig. 11).
    pub global_mem_insts: u64,
    /// Issued shared-memory (LDS) loads+stores.
    pub shared_mem_insts: u64,
    /// 128-byte segments touched by global accesses (coalescing metric).
    pub global_transactions: u64,
    /// Maximum-degree bank conflicts accumulated over shared accesses (0
    /// when every warp access was conflict-free).
    pub shared_bank_conflicts: u64,
    /// Barriers executed (warp-level count).
    pub barriers: u64,
    /// Simulated cycles from the timing model ([`crate::timing`]): per
    /// block the maximum warp timeline, summed over blocks. Zero unless
    /// [`crate::TimingConfig::enabled`] is set.
    pub sim_cycles: u64,
    /// Cycles warps spent stalled on the scoreboard or at barriers
    /// (timing model only).
    pub sim_stall_cycles: u64,
    /// Issue slots occupied, `Σ ceil(active_lanes / issue_width)`
    /// (timing model only).
    pub sim_issue_slots: u64,
    /// Branches that actually diverged at runtime — pushed entries on the
    /// IPDOM reconvergence stack (timing model only).
    pub sim_divergent_branches: u64,
    /// Reconvergence-stack pops, each charged one cycle (timing model
    /// only). Two per fully divergent two-way branch.
    pub sim_reconvergences: u64,
    /// Warp size used by the launch (needed to normalize utilization).
    pub warp_size: u32,
}

impl KernelStats {
    /// ALU (vector unit) utilization in percent — Fig. 10's metric.
    pub fn alu_utilization(&self) -> f64 {
        if self.alu_issues == 0 || self.warp_size == 0 {
            return 0.0;
        }
        100.0 * self.alu_active_lanes as f64 / (self.alu_issues as f64 * self.warp_size as f64)
    }

    /// Average active lanes per issued instruction (SIMD efficiency).
    pub fn simd_efficiency(&self) -> f64 {
        if self.warp_instructions == 0 || self.warp_size == 0 {
            return 0.0;
        }
        self.thread_instructions as f64 / (self.warp_instructions as f64 * self.warp_size as f64)
    }

    /// A copy with every timing-model field zeroed — what the same launch
    /// would have reported with timing off. The differential suites use
    /// this to assert that enabling timing perturbs nothing else:
    /// `on.sans_timing() == off`.
    #[must_use]
    pub fn sans_timing(&self) -> KernelStats {
        KernelStats {
            sim_cycles: 0,
            sim_stall_cycles: 0,
            sim_issue_slots: 0,
            sim_divergent_branches: 0,
            sim_reconvergences: 0,
            ..*self
        }
    }

    /// Charges the memory-cost model for one warp-wide load/store issue:
    /// coalescing (one transaction per distinct 128-byte segment) for global
    /// accesses, the bank-conflict model for shared (LDS) accesses. The
    /// address space is inferred from the encoded addresses — global
    /// addresses carry a buffer id in the high bits. `scratch` is reusable
    /// space so the hot loops stay allocation-free.
    ///
    /// Used by the bytecode engine (the reference interpreter keeps its
    /// own copy); callers account
    /// `warp_instructions`/`thread_instructions` themselves. Returns the
    /// access's shape — `(is_global, extra)`, `extra` being the segments
    /// beyond the first or the bank-conflict degree beyond 1 — which is
    /// all the timing model's LSU-occupancy charge needs.
    pub(crate) fn charge_mem_access(
        &mut self,
        lane_addrs: &[u64],
        scratch: &mut Vec<u64>,
    ) -> (bool, u64) {
        if is_global_access(lane_addrs) {
            self.global_mem_insts += 1;
            let n_seg = global_segments(lane_addrs, scratch);
            self.global_transactions += n_seg;
            self.cycles +=
                cost::GLOBAL_MEM_LATENCY + (n_seg - 1) * cost::GLOBAL_TRANSACTION_LATENCY;
            (true, n_seg - 1)
        } else {
            self.shared_mem_insts += 1;
            let degree = shared_conflict_degree(lane_addrs, scratch);
            self.shared_bank_conflicts += degree - 1;
            self.cycles +=
                cost::SHARED_MEM_LATENCY + (degree - 1) * cost::SHARED_BANK_CONFLICT_PENALTY;
            (false, degree - 1)
        }
    }

    /// Accumulates another launch's counters (used to sum per-block runs).
    pub fn merge(&mut self, other: &KernelStats) {
        self.cycles += other.cycles;
        self.warp_instructions += other.warp_instructions;
        self.thread_instructions += other.thread_instructions;
        self.alu_issues += other.alu_issues;
        self.alu_active_lanes += other.alu_active_lanes;
        self.global_mem_insts += other.global_mem_insts;
        self.shared_mem_insts += other.shared_mem_insts;
        self.global_transactions += other.global_transactions;
        self.shared_bank_conflicts += other.shared_bank_conflicts;
        self.barriers += other.barriers;
        self.sim_cycles += other.sim_cycles;
        self.sim_stall_cycles += other.sim_stall_cycles;
        self.sim_issue_slots += other.sim_issue_slots;
        self.sim_divergent_branches += other.sim_divergent_branches;
        self.sim_reconvergences += other.sim_reconvergences;
        self.warp_size = other.warp_size.max(self.warp_size);
    }
}

/// Whether a warp access targets global memory — global addresses carry a
/// buffer id in the high bits (see [`crate::mem`]). An empty access
/// defaults to shared (callers never charge empty accesses).
fn is_global_access(lane_addrs: &[u64]) -> bool {
    lane_addrs
        .first()
        .map(|&a| decode(a).0.is_some())
        .unwrap_or(false)
}

/// Distinct 128-byte segments touched by a global warp access (≥ 1).
///
/// Fast path: when every segment index lands in one 64-wide window (true
/// for any coalesced or moderately strided warp access), the distinct
/// count is a popcount over a bitmask; otherwise sort+dedup into
/// `scratch`.
fn global_segments(lane_addrs: &[u64], scratch: &mut Vec<u64>) -> u64 {
    let mut lo = u64::MAX;
    let mut hi = 0u64;
    for &a in lane_addrs {
        let seg = a / cost::COALESCE_SEGMENT_BYTES;
        lo = lo.min(seg);
        hi = hi.max(seg);
    }
    if lane_addrs.is_empty() {
        1
    } else if hi - lo < 64 {
        let mut seen = 0u64;
        for &a in lane_addrs {
            seen |= 1u64 << (a / cost::COALESCE_SEGMENT_BYTES - lo);
        }
        u64::from(seen.count_ones())
    } else {
        scratch.clear();
        scratch.extend(lane_addrs.iter().map(|a| a / cost::COALESCE_SEGMENT_BYTES));
        scratch.sort_unstable();
        scratch.dedup();
        scratch.len() as u64
    }
}

/// A shared word as `bank << 48 | word`: two lanes touch the same word of
/// the same bank exactly when their encodings are equal.
#[inline(always)]
fn bank_word(a: u64) -> u64 {
    let word = a / cost::SHARED_BANK_WORD_BYTES;
    ((word % cost::SHARED_BANKS) << 48) | (word & 0xFFFF_FFFF_FFFF)
}

/// Maximum bank-conflict degree of a shared warp access (≥ 1): accesses
/// to distinct words in the same bank serialize; broadcasts do not.
///
/// One walk over the lanes counts distinct words per bank without sorting:
/// a bank's first word goes in a per-bank table, and each further distinct
/// word once in `scratch` (searched only once its bank has one there). A
/// conflict-free or broadcast access never touches `scratch`, and a 2-way
/// one never searches it.
fn shared_conflict_degree(lane_addrs: &[u64], scratch: &mut Vec<u64>) -> u64 {
    let mut first = [0u64; cost::SHARED_BANKS as usize];
    let mut further = [0u8; cost::SHARED_BANKS as usize];
    let mut seen = 0u32;
    let mut degree = 1u64;
    scratch.clear();
    for &a in lane_addrs {
        let enc = bank_word(a);
        let bank = (enc >> 48) as usize;
        if seen & (1 << bank) == 0 {
            seen |= 1 << bank;
            first[bank] = enc;
        } else if first[bank] != enc && (further[bank] == 0 || !scratch.contains(&enc)) {
            scratch.push(enc);
            further[bank] += 1;
            degree = degree.max(1 + u64::from(further[bank]));
        }
    }
    degree
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn utilization_math() {
        let s = KernelStats {
            alu_issues: 10,
            alu_active_lanes: 160,
            warp_size: 32,
            ..Default::default()
        };
        assert!((s.alu_utilization() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_have_zero_utilization() {
        assert_eq!(KernelStats::default().alu_utilization(), 0.0);
        assert_eq!(KernelStats::default().simd_efficiency(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelStats {
            cycles: 10,
            warp_size: 32,
            ..Default::default()
        };
        let b = KernelStats {
            cycles: 5,
            barriers: 2,
            sim_cycles: 7,
            sim_reconvergences: 3,
            warp_size: 32,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.barriers, 2);
        assert_eq!(a.sim_cycles, 7);
        assert_eq!(a.sim_reconvergences, 3);
    }

    /// The sort+dedup conflict degree `shared_conflict_degree` replaced,
    /// kept as its oracle.
    fn sorted_conflict_degree(lane_addrs: &[u64]) -> u64 {
        let mut encs: Vec<u64> = lane_addrs.iter().map(|&a| bank_word(a)).collect();
        encs.sort_unstable();
        encs.dedup();
        let (mut degree, mut run, mut cur_bank) = (1u64, 0u64, u64::MAX);
        for enc in encs {
            if enc >> 48 == cur_bank {
                run += 1;
            } else {
                cur_bank = enc >> 48;
                run = 1;
            }
            degree = degree.max(run);
        }
        degree
    }

    /// splitmix64: a seeded stream with no dependency.
    pub(crate) fn rng(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn sort_free_conflict_degree_equals_sort_and_dedup() {
        let mut next = rng(0x5EED);
        let mut scratch = Vec::new();
        let mut check = |addrs: &[u64]| {
            let got = shared_conflict_degree(addrs, &mut scratch);
            assert_eq!(got, sorted_conflict_degree(addrs), "{addrs:x?}");
            got
        };
        // 1..=64 lanes over shared arenas of several sizes, with and without
        // word-aligned addresses; the widest also varies bits the 48-bit
        // encoding drops, which must collide exactly as the sort saw them.
        for lanes in 1..=64 {
            for span in [4, 64, 256, 4096, u64::MAX] {
                for _ in 0..8 {
                    let addrs: Vec<u64> = (0..lanes).map(|_| next() % span).collect();
                    check(&addrs);
                    let aligned: Vec<u64> = addrs.iter().map(|a| a & !3).collect();
                    check(&aligned);
                }
            }
        }
        // Broadcast: every lane reads one word.
        for lanes in 1..=64 {
            assert_eq!(check(&vec![next() % 1024; lanes]), 1);
        }
        // k-way: lane `l` of 64 hits bank `(l / k) % 32` with one of `k`
        // words, in a shuffled lane order, some lanes doubled up.
        for k in [2u64, 4, 32] {
            for _ in 0..16 {
                let mut addrs: Vec<u64> = (0..64u64)
                    .map(|l| 4 * ((l % k) * 32 + (l / k) % 32))
                    .collect();
                for i in (1..addrs.len()).rev() {
                    addrs.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                let dup = addrs[(next() % 64) as usize];
                addrs[(next() % 64) as usize] = dup;
                let degree = check(&addrs);
                assert!(degree == k || degree == k - 1, "{k}-way read {degree}");
                let exact: Vec<u64> = (0..64u64)
                    .map(|l| 4 * ((l % k) * 32 + (l / k) % 32))
                    .collect();
                assert_eq!(check(&exact), k);
            }
        }
    }

    #[test]
    fn sans_timing_zeroes_only_sim_fields() {
        let s = KernelStats {
            cycles: 10,
            sim_cycles: 99,
            sim_stall_cycles: 1,
            sim_issue_slots: 2,
            sim_divergent_branches: 3,
            sim_reconvergences: 4,
            warp_size: 32,
            ..Default::default()
        };
        let t = s.sans_timing();
        assert_eq!(t.cycles, 10);
        assert_eq!(t.warp_size, 32);
        assert_eq!(t.sim_cycles + t.sim_stall_cycles + t.sim_issue_slots, 0);
        assert_eq!(t.sim_divergent_branches + t.sim_reconvergences, 0);
    }
}
