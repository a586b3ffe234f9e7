//! Cycle-level SIMT timing model: a pure observer over the bytecode engine.
//!
//! The interpreter's base counters ([`crate::KernelStats::cycles`] and
//! friends) are an *instruction-charge* model: every warp instruction adds
//! its opcode latency, unconditionally. That over-counts pipelined ALU work
//! and under-counts divergence — the paper's claims are about cycles saved
//! by *reconvergence*, which only a timeline can show. This module adds
//! that timeline. It is a passive observer: enabling it changes **no**
//! buffers, **no** base counters, and **no** errors (held by the
//! `cycles_vs_insts` differential suite); it only fills in the `sim_*`
//! fields of [`crate::KernelStats`].
//!
//! # The model
//!
//! Each warp gets an independent `WarpTimer` holding a current cycle and a
//! register scoreboard; the one IPDOM reconvergence stack is the engine's,
//! which tells the timer what it pushed and popped. Four sub-models compose:
//!
//! * **Issue** — a masked warp instruction with `active` live lanes
//!   occupies the warp's issue port for `ceil(active / issue_width)`
//!   cycles ([`TimingConfig::issue_width`], default 16: a 32-lane warp
//!   issues over two cycles, a half-warp in one). This is the
//!   Białas & Strzelecki cost intuition: a divergent branch serializes
//!   lane *subsets* across issue slots, so its cost is the **sum of both
//!   arms'** slots rather than the maximum.
//! * **Latency / scoreboard** — each issue marks its destination register
//!   ready at `issue end + FU latency` (the per-opcode latencies of
//!   [`darm_ir::cost`]: 4 for ALU, 8 for MUL, 40 for DIV, 300 for global
//!   loads…). An instruction *stalls* until its source registers are
//!   ready; independent instructions behind it do not exist (in-order,
//!   single-issue per warp), so the stall is charged to the warp timeline
//!   as [`crate::KernelStats::sim_stall_cycles`]. Latency is otherwise
//!   hidden — a store never waits for DRAM, only a dependent read does.
//! * **IPDOM reconvergence stack** — when a branch diverges, the engine
//!   pushes *(else, then)* continuation entries whose reconvergence point is
//!   the branch block's immediate post-dominator (cached at lowering time
//!   in `BcBlock::ipdom`). The timer counts the divergence
//!   (`TimingState::diverge`) and charges one cycle per pop of a pushed
//!   entry (`TimingState::frame_pop`; the engine says whether the popped
//!   entry was the warp's base one, which is free) for the SIMT-stack
//!   update and mask swap — the hardware mechanism described in "Control
//!   Flow Management in Modern GPUs" — counting `sim_divergent_branches`
//!   and `sim_reconvergences`.
//! * **Memory** — takes the coalescing / bank-conflict shape the base
//!   counters just derived for the access ([`crate::stats`]): an
//!   uncoalesced global access occupies the LSU for
//!   `(segments − 1) ·` [`cost::GLOBAL_TRANSACTION_LATENCY`] extra cycles,
//!   a shared access for `(conflict degree − 1) ·`
//!   [`cost::SHARED_BANK_CONFLICT_PENALTY`]. Occupancy delays the warp
//!   itself (it cannot issue past a busy LSU); the *base* DRAM/shared
//!   latency lands on the loaded register's scoreboard entry and is paid
//!   only by dependents.
//!
//! Barriers synchronize the timelines: `__syncthreads` stalls every warp
//! to the maximum cycle across the block (`TimingState::barrier_release`).
//!
//! A block's simulated cost is the **maximum** warp timeline (warps are
//! independent; the model assumes enough scheduler bandwidth to overlap
//! them — an infinitely-wide SM). Blocks then **sum** into
//! [`crate::KernelStats::sim_cycles`] (a sequential, single-SM launch
//! model), which keeps [`crate::KernelStats::merge`] additive. Everything
//! is integer arithmetic over a fixed warp iteration order, so two runs of
//! the same kernel produce identical cycle counts.
//!
//! # Worked example: the fig. 8 if/else diamond
//!
//! Take a one-warp, 8-lane launch of the paper's running diamond
//! (`tid < 4` picks the arm) with `issue_width = 8`:
//!
//! ```text
//! entry:  %t = tid.x        ; 8 lanes, 1 slot
//!         %c = icmp slt %t, 4
//!         br %c, then, else ; diverges: push (else,¬m) then (then,m); rpc = join
//! then:   %a = mul ...      ; 4 lanes — still 1 slot (4 ≤ issue_width)
//!         jump join         ; join == rpc → pop, +1 reconvergence cycle
//! else:   %b = add ...      ; the *other* 4 lanes, serialized after then
//!         jump join         ; pop again, +1
//! join:   %v = phi ...      ; φs are free (latency 0, no issue slot)
//!         %p = gep ...      ; 8 lanes again — reconverged
//!         store ...
//!         ret
//! ```
//!
//! The divergent region costs the **sum** of both arms (2 + 2 issue slots)
//! plus two reconvergence pops, where a melded kernel would execute one
//! 2-slot merged arm under the full mask and pop nothing — exactly the
//! effect DARM trades on, and what `sim_cycles` now surfaces next to the
//! instruction counts. The unit tests below pin these numbers.
//!
//! # Wiring
//!
//! The bytecode engine (`exec_bc.rs`) threads an
//! `Option<&mut TimingState>` through its hot loop; the fused ops fire the
//! hook sequence of the instructions they replace, which the
//! `cycles_vs_insts` suite holds to a table of full
//! [`crate::KernelStats`] recorded from the unfused decoded engine this
//! crate used to carry. With timing off the option is `None` and the only
//! overhead is one predictable branch per charge. (The reference
//! interpreter has no hook points and always reports `sim_* = 0`.)

use crate::bytecode::{Op, NO_DST};
use crate::stats::KernelStats;
use darm_ir::cost;

/// Configuration of the cycle-level timing model. Off by default.
///
/// ```
/// use darm_simt::{Gpu, GpuConfig, TimingConfig};
/// let mut gpu = Gpu::new(GpuConfig {
///     timing: TimingConfig::on(),
///     ..GpuConfig::default()
/// });
/// # let _ = &mut gpu;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingConfig {
    /// Master switch. When `false` (the default) no timing state is even
    /// allocated and the engine's behavior is bit-identical to a build
    /// without the model.
    pub enabled: bool,
    /// Lanes issued per cycle: a warp instruction with `a` active lanes
    /// occupies `ceil(a / issue_width)` issue slots. Default 16 (half a
    /// 32-lane warp per cycle). Must be ≥ 1.
    pub issue_width: u32,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            enabled: false,
            issue_width: 16,
        }
    }
}

impl TimingConfig {
    /// The default configuration with the model switched on.
    #[must_use]
    pub fn on() -> Self {
        TimingConfig {
            enabled: true,
            ..TimingConfig::default()
        }
    }
}

/// Per-warp timeline: current cycle, scoreboard, and divergence counts.
#[derive(Debug, Default)]
struct WarpTimer {
    /// The warp's current cycle within the block.
    cycle: u64,
    /// Cycles lost waiting on the scoreboard (or a barrier).
    stall: u64,
    /// Issue slots occupied (`Σ ceil(active / issue_width)`).
    issue_slots: u64,
    divergent_branches: u64,
    reconvergences: u64,
    /// Scoreboard: cycle at which each register slot's value is ready.
    reg_ready: Vec<u64>,
}

/// Shared timing state for one kernel launch (all warps of one block at a
/// time; [`TimingState::flush_block`] folds a finished block into the
/// stats and resets for the next).
#[derive(Debug)]
pub(crate) struct TimingState {
    issue_width: u64,
    warps: Vec<WarpTimer>,
    /// Scratch for staged φ-batch readiness: `(dst slot, ready cycle)`.
    phi_scratch: Vec<(u32, u64)>,
}

impl TimingState {
    pub(crate) fn new(cfg: TimingConfig, n_warps: usize, n_slots: usize) -> Self {
        let warps = (0..n_warps)
            .map(|_| WarpTimer {
                reg_ready: vec![0; n_slots],
                ..WarpTimer::default()
            })
            .collect();
        TimingState {
            issue_width: u64::from(cfg.issue_width.max(1)),
            warps,
            phi_scratch: Vec::new(),
        }
    }

    /// Core of the issue model: stall to `ready` (operand availability),
    /// occupy `ceil(active / issue_width)` slots, mark `dst` ready after
    /// `latency` more cycles. Returns the destination-ready cycle.
    fn issue_at(&mut self, w: usize, active: u32, latency: u64, dst: u32, ready: u64) -> u64 {
        let wt = &mut self.warps[w];
        if active == 0 {
            return wt.cycle;
        }
        let start = ready.max(wt.cycle);
        wt.stall += start - wt.cycle;
        let slots = u64::from(active).div_ceil(self.issue_width);
        wt.issue_slots += slots;
        wt.cycle = start + slots;
        let done = wt.cycle + latency;
        if dst != NO_DST {
            wt.reg_ready[dst as usize] = done;
        }
        done
    }

    /// Max scoreboard-ready cycle over the (non-[`NO_DST`]) source slots.
    fn operands_ready(&self, w: usize, srcs: [u32; 3]) -> u64 {
        let wt = &self.warps[w];
        let mut ready = 0;
        for s in srcs {
            if s != NO_DST {
                ready = ready.max(wt.reg_ready[s as usize]);
            }
        }
        ready
    }

    /// Issue one warp instruction whose operands live in register slots
    /// `srcs` ([`NO_DST`] entries are "no operand": immediates, params).
    /// Returns the cycle at which `dst` becomes ready.
    pub(crate) fn issue(
        &mut self,
        w: usize,
        active: u32,
        latency: u64,
        dst: u32,
        srcs: [u32; 3],
    ) -> u64 {
        let ready = self.operands_ready(w, srcs);
        self.issue_at(w, active, latency, dst, ready)
    }

    /// [`TimingState::issue`] with an explicit readiness floor instead of
    /// source slots — used for the second half of a fused bytecode op,
    /// whose producer's ready cycle was just returned by the first half
    /// (the producer slot may be elided, so it can't be looked up).
    pub(crate) fn issue_dep(
        &mut self,
        w: usize,
        active: u32,
        latency: u64,
        dst: u32,
        ready_hint: u64,
    ) -> u64 {
        self.issue_at(w, active, latency, dst, ready_hint)
    }

    /// Issue a memory access: operand stall, issue slots, LSU
    /// occupancy for uncoalesced segments / bank conflicts, and the base
    /// space latency on the loaded register (stores pass [`NO_DST`]).
    /// `is_global` and `extra` are the access's shape as
    /// [`KernelStats::charge_mem_access`] returned it.
    #[allow(clippy::too_many_arguments)] // engine hook; call sites are macro-generated
    pub(crate) fn mem_issue(
        &mut self,
        w: usize,
        active: u32,
        dst: u32,
        srcs: [u32; 3],
        ready_hint: u64,
        is_global: bool,
        extra: u64,
    ) {
        if active == 0 {
            return;
        }
        let ready = self.operands_ready(w, srcs).max(ready_hint);
        let (base, per_extra) = if is_global {
            (cost::GLOBAL_MEM_LATENCY, cost::GLOBAL_TRANSACTION_LATENCY)
        } else {
            (cost::SHARED_MEM_LATENCY, cost::SHARED_BANK_CONFLICT_PENALTY)
        };
        let occupancy = extra * per_extra;
        let wt = &mut self.warps[w];
        let start = ready.max(wt.cycle);
        wt.stall += start - wt.cycle;
        let slots = u64::from(active).div_ceil(self.issue_width);
        wt.issue_slots += slots;
        wt.cycle = start + slots + occupancy;
        if dst != NO_DST {
            wt.reg_ready[dst as usize] = wt.cycle + base;
        }
    }

    /// Scoreboard-ready cycle of one register slot (φ source collection).
    pub(crate) fn reg_ready(&self, w: usize, slot: u32) -> u64 {
        self.warps[w].reg_ready[slot as usize]
    }

    /// Begin a staged φ batch (block entry). A φ result becomes ready at
    /// the max readiness of the incoming sources that actually flowed in,
    /// but is otherwise free — φs cost no issue slot and no cycle,
    /// matching their zero latency in the charge model. A block's φs
    /// evaluate atomically in the engine; staging their readiness the
    /// same way keeps a φ that sources another φ of the same block reading
    /// the *pre-batch* scoreboard.
    pub(crate) fn phi_begin(&mut self) {
        self.phi_scratch.clear();
    }

    /// Stage one φ's readiness; committed by [`TimingState::phi_commit`].
    pub(crate) fn phi_stage(&mut self, dst: u32, ready: u64) {
        self.phi_scratch.push((dst, ready));
    }

    /// Commit the staged φ batch to warp `w`'s scoreboard.
    pub(crate) fn phi_commit(&mut self, w: usize) {
        for i in 0..self.phi_scratch.len() {
            let (dst, ready) = self.phi_scratch[i];
            self.warps[w].reg_ready[dst as usize] = ready;
        }
    }

    /// The engine pushed the *(else, then)* entries of a divergent branch.
    pub(crate) fn diverge(&mut self, w: usize) {
        self.warps[w].divergent_branches += 1;
    }

    /// The engine popped a stack entry. A divergence-pushed entry costs
    /// one cycle (SIMT-stack update + mask swap) and counts a
    /// reconvergence; the warp's base entry — the one pop that leaves the
    /// engine's stack empty, hence `pushed = false` — is free.
    pub(crate) fn frame_pop(&mut self, w: usize, pushed: bool) {
        if pushed {
            let wt = &mut self.warps[w];
            wt.reconvergences += 1;
            wt.cycle += 1;
        }
    }

    /// A warp reached `__syncthreads`: one uniform issue slot.
    pub(crate) fn barrier_issue(&mut self, w: usize) {
        let wt = &mut self.warps[w];
        wt.issue_slots += 1;
        wt.cycle += 1;
    }

    /// All warps reached the barrier: stall each to the block maximum.
    pub(crate) fn barrier_release(&mut self) {
        let m = self.warps.iter().map(|wt| wt.cycle).max().unwrap_or(0);
        for wt in &mut self.warps {
            wt.stall += m - wt.cycle;
            wt.cycle = m;
        }
    }

    /// Fold one finished block into `stats` (block cost = max warp
    /// timeline; counters sum) and reset every timer for the next block.
    pub(crate) fn flush_block(&mut self, stats: &mut KernelStats) {
        let mut block_cycles = 0;
        for wt in &mut self.warps {
            block_cycles = block_cycles.max(wt.cycle);
            stats.sim_stall_cycles += wt.stall;
            stats.sim_issue_slots += wt.issue_slots;
            stats.sim_divergent_branches += wt.divergent_branches;
            stats.sim_reconvergences += wt.reconvergences;
            wt.cycle = 0;
            wt.stall = 0;
            wt.issue_slots = 0;
            wt.divergent_branches = 0;
            wt.reconvergences = 0;
            for r in &mut wt.reg_ready {
                *r = 0;
            }
        }
        stats.sim_cycles += block_cycles;
    }
}

/// Scoreboard dependencies of a bytecode op: `(dst, srcs)` as register
/// slots, [`NO_DST`] where absent (constant/parameter slots are never
/// written, so their ready cycle is a constant 0 — equivalent to "no
/// operand").
///
/// The fused ops ([`Op::CmpBr`], [`Op::GepLoad`], [`Op::GepStore`]) report
/// the deps of their *first* half; the engine times their second half
/// explicitly via [`TimingState::issue_dep`] / the ready hint.
pub(crate) fn bc_deps(op: &Op) -> (u32, [u32; 3]) {
    match *op {
        Op::Add { d, a, b, .. }
        | Op::Sub { d, a, b, .. }
        | Op::Mul { d, a, b, .. }
        | Op::And { d, a, b }
        | Op::Or { d, a, b }
        | Op::Xor { d, a, b }
        | Op::Shl { d, a, b, .. }
        | Op::LShr { d, a, b, .. }
        | Op::AShr { d, a, b, .. }
        | Op::Div { d, a, b, .. }
        | Op::FAdd { d, a, b }
        | Op::FSub { d, a, b }
        | Op::FMul { d, a, b }
        | Op::FDiv { d, a, b }
        | Op::Icmp { d, a, b, .. }
        | Op::Fcmp { d, a, b, .. }
        | Op::Gep { d, a, b, .. } => (d, [a, b, NO_DST]),
        Op::FSqrt { d, a }
        | Op::FAbs { d, a }
        | Op::FNeg { d, a }
        | Op::FExp { d, a }
        | Op::Cvt { d, a, .. }
        | Op::Ballot { d, a }
        | Op::Load { d, a, .. } => (d, [a, NO_DST, NO_DST]),
        Op::Select { d, c, a, b } => (d, [c, a, b]),
        Op::Undef { d, srcs } => (d, srcs),
        Op::Store { v, a, .. } => (NO_DST, [v, a, NO_DST]),
        Op::ThreadIdx { d, .. } | Op::Uniform { d, .. } => (d, [NO_DST; 3]),
        Op::Br { c, .. } => (NO_DST, [c, NO_DST, NO_DST]),
        Op::Sync | Op::Ret | Op::Jump { .. } => (NO_DST, [NO_DST; 3]),
        // Fused first halves; second halves are hooked explicitly.
        Op::CmpBr { d, a, b, .. } => (d, [a, b, NO_DST]),
        Op::GepLoad { gd, ga, gb, .. } | Op::GepStore { gd, ga, gb, .. } => (gd, [ga, gb, NO_DST]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(issue_width: u32, n_slots: usize) -> TimingState {
        TimingState::new(
            TimingConfig {
                enabled: true,
                issue_width,
            },
            1,
            n_slots,
        )
    }

    #[test]
    fn issue_slots_scale_with_active_lanes() {
        let mut t = state(16, 4);
        t.issue(0, 32, 0, NO_DST, [NO_DST; 3]); // 2 slots
        t.issue(0, 16, 0, NO_DST, [NO_DST; 3]); // 1 slot
        t.issue(0, 1, 0, NO_DST, [NO_DST; 3]); // 1 slot
        assert_eq!(t.warps[0].issue_slots, 4);
        assert_eq!(t.warps[0].cycle, 4);
        assert_eq!(t.warps[0].stall, 0);
    }

    #[test]
    fn scoreboard_stalls_dependents_only() {
        let mut t = state(32, 4);
        // Producer: 1 slot, result ready at 1 + 40.
        t.issue(0, 32, cost::DIV_LATENCY, 0, [NO_DST; 3]);
        // Independent op: no stall.
        t.issue(0, 32, cost::ALU_LATENCY, 1, [NO_DST; 3]);
        assert_eq!(t.warps[0].stall, 0);
        // Dependent op: stalls until cycle 41.
        t.issue(0, 32, cost::ALU_LATENCY, 2, [0, NO_DST, NO_DST]);
        assert_eq!(t.warps[0].stall, 41 - 2);
        assert_eq!(t.warps[0].cycle, 42);
        // Its own result is ready 4 cycles later.
        assert_eq!(t.reg_ready(0, 2), 46);
    }

    #[test]
    fn divergence_pushes_two_frames_and_pops_charge_one_cycle() {
        let mut t = state(16, 1);
        t.diverge(0);
        assert_eq!(t.warps[0].divergent_branches, 1);
        t.frame_pop(0, true);
        t.frame_pop(0, true);
        // Base-entry pop: the engine's stack is empty afterwards, no charge.
        t.frame_pop(0, false);
        assert_eq!(t.warps[0].reconvergences, 2);
        assert_eq!(t.warps[0].cycle, 2);
    }

    #[test]
    fn barrier_release_aligns_warps_to_max() {
        let mut t = TimingState::new(TimingConfig::on(), 2, 1);
        t.issue(0, 16, 0, NO_DST, [NO_DST; 3]);
        t.issue(0, 16, 0, NO_DST, [NO_DST; 3]);
        t.issue(1, 16, 0, NO_DST, [NO_DST; 3]);
        t.barrier_issue(0);
        t.barrier_issue(1);
        t.barrier_release();
        assert_eq!(t.warps[0].cycle, t.warps[1].cycle);
        assert_eq!(t.warps[1].stall, 1); // was at 2, aligned to 3
    }

    #[test]
    fn flush_block_takes_max_and_resets() {
        let mut t = TimingState::new(TimingConfig::on(), 2, 2);
        t.issue(0, 32, 10, 0, [NO_DST; 3]);
        t.issue(1, 16, 0, NO_DST, [NO_DST; 3]);
        t.diverge(1);
        let mut s = KernelStats::default();
        t.flush_block(&mut s);
        assert_eq!(s.sim_cycles, 2); // warp 0 at 2, warp 1 at 1
        assert_eq!(s.sim_issue_slots, 3);
        assert_eq!(s.sim_divergent_branches, 1);
        assert_eq!(t.warps[0].cycle, 0);
        assert_eq!(t.reg_ready(0, 0), 0);
        assert_eq!(t.warps[1].divergent_branches, 0);
        // A second flush adds nothing.
        t.flush_block(&mut s);
        assert_eq!(s.sim_cycles, 2);
    }

    #[test]
    fn uncoalesced_global_access_occupies_lsu() {
        // Build two synthetic global-address spreads with the real pointer
        // encoder (`is_global_access` decodes the buffer tag): one within a
        // 128-byte segment, one striding a segment per lane.
        let buf = crate::mem::BufferId(0);
        let coalesced: Vec<u64> = (0..32)
            .map(|i| crate::mem::encode_global(buf, i * 4))
            .collect();
        let strided: Vec<u64> = (0..32)
            .map(|i| crate::mem::encode_global(buf, i * 512))
            .collect();
        // The shape reaches the timer the way the engine feeds it: from the
        // base counters' charge of the same access.
        let shape =
            |addrs: &[u64]| KernelStats::default().charge_mem_access(addrs, &mut Vec::new());
        assert_eq!(shape(&coalesced), (true, 0));
        assert_eq!(shape(&strided), (true, 31));

        let mut t = state(32, 2);
        let (is_global, extra) = shape(&coalesced);
        t.mem_issue(0, 32, 0, [NO_DST; 3], 0, is_global, extra);
        let fast = t.warps[0].cycle;
        let mut t2 = state(32, 2);
        let (is_global, extra) = shape(&strided);
        t2.mem_issue(0, 32, 0, [NO_DST; 3], 0, is_global, extra);
        let slow = t2.warps[0].cycle;
        assert_eq!(fast, 1); // one slot, no occupancy
        assert_eq!(slow, 1 + 31 * cost::GLOBAL_TRANSACTION_LATENCY);
        // Base DRAM latency lands on the scoreboard in both cases.
        assert_eq!(t.reg_ready(0, 0), fast + cost::GLOBAL_MEM_LATENCY);
    }

    #[test]
    fn phis_are_free_but_propagate_readiness() {
        let mut t = state(32, 3);
        t.issue(0, 32, cost::MUL_LATENCY, 0, [NO_DST; 3]); // ready at 9
        let ready = t.reg_ready(0, 0);
        t.phi_begin();
        t.phi_stage(1, ready);
        t.phi_commit(0);
        assert_eq!(t.warps[0].issue_slots, 1); // φ issued nothing
        t.issue(0, 32, 0, 2, [1, NO_DST, NO_DST]);
        assert_eq!(t.warps[0].stall, ready - 1);
    }

    #[test]
    fn phi_batch_reads_pre_batch_scoreboard() {
        let mut t = state(32, 3);
        t.issue(0, 32, 10, 0, [NO_DST; 3]); // slot 0 ready at 11
        t.phi_begin();
        t.phi_stage(1, t.reg_ready(0, 0)); // φ1 := slot 0
        t.phi_stage(0, 0); // φ0 := something already ready
        t.phi_commit(0);
        assert_eq!(t.reg_ready(0, 1), 11);
        assert_eq!(t.reg_ready(0, 0), 0);
    }
}
