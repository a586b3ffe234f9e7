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
//! Each warp gets an independent timeline (a current cycle) and a register
//! scoreboard row; the one IPDOM reconvergence stack is the engine's, which
//! tells the timer what it pushed and popped. Four sub-models compose:
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
//!   and counted as [`crate::KernelStats::sim_stall_cycles`] — whatever
//!   part of the timeline issue slots, LSU occupancy and reconvergence
//!   pops do not account for. Latency is otherwise
//!   hidden — a store never waits for DRAM, only a dependent read does.
//! * **IPDOM reconvergence stack** — when a branch diverges, the engine
//!   pushes *(else, then)* continuation entries whose reconvergence point is
//!   the branch block's immediate post-dominator (cached at lowering time
//!   in `BcBlock::ipdom`). The timer counts the divergence
//!   (`WarpClock::diverge`) and charges one cycle per pop of a pushed
//!   entry (`WarpClock::frame_pop`; the engine says whether the popped
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
//! What the observer needs to know about an op is resolved once, from the
//! lowered code, into a `TimingRec` parallel to it (`BytecodeKernel::timing`, in
//! the shape of gpucachesim's flat scoreboard): the scoreboard cell the op
//! writes, the three cells it waits on and its latency. An absent operand
//! reads `ZERO_CELL`, an absent destination writes `SINK_CELL`, and a
//! fused op carries both halves of the pair it replaces, the second waiting
//! on the first's cell (`LINK_CELL` when the engine elides the register in
//! between). The table is built once per kernel, on its first timed
//! launch, so lowering and untimed launches never pay for it. `TimingState` holds one flat scoreboard,
//! `warp * stride + cell`, and the issue-slot table `ceil(a / issue_width)`
//! for every active-lane count, both built once per launch.
//!
//! The bytecode engine (`exec_bc.rs`) runs each warp with its
//! `WarpClock` — the warp's timeline and scoreboard row, `None` when timing
//! is off — and hands every hook the op's record: an issue is three
//! scoreboard loads, a max and one store, with no branch on the op or its
//! operands. The `cycles_vs_insts` suite holds the result to a table of full
//! [`crate::KernelStats`] recorded from the unfused decoded engine this
//! crate used to carry. With timing off the only overhead is one
//! predictable branch per charge. (The reference interpreter has no hook
//! points and always reports `sim_* = 0`.)

use crate::bytecode::NO_DST;
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
    /// 32-lane warp per cycle). Must be ≥ 1: a timed launch with 0 fails
    /// with [`SimError::BadIssueWidth`](crate::SimError::BadIssueWidth).
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

/// Scoreboard cell that no issue writes: an absent operand reads it, and
/// it reads 0 — "ready before the block began", as a constant or parameter
/// operand always is.
pub(crate) const ZERO_CELL: u32 = 0;
/// Scoreboard cell that no issue reads: an op with no destination writes
/// it.
pub(crate) const SINK_CELL: u32 = 1;
/// Scoreboard cell that carries a fused op's first-half result to its
/// second half when the engine elides the register in between. The halves
/// issue back to back, so one cell serves every fused op.
pub(crate) const LINK_CELL: u32 = 2;

/// The scoreboard cell of register slot `slot`: the slots sit above the
/// three fixed cells.
pub(crate) fn cell(slot: u32) -> u32 {
    slot + 3
}

/// One issue of a warp instruction, resolved from the lowered op for the
/// observer: the scoreboard cell it writes, the (up to three) cells it waits
/// on, and its FU latency. Absent operands and destinations are mapped to
/// [`ZERO_CELL`] and [`SINK_CELL`] here, so the observer never tests for
/// one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Issue {
    pub dst: u32,
    pub srcs: [u32; 3],
    /// Cycles from the end of the issue until `dst` is ready. Unused by
    /// [`WarpClock::mem_issue`], which takes the access's space latency.
    pub lat: u32,
}

impl Issue {
    /// The issue of register slot `dst` from slots `srcs` after `lat`
    /// cycles, [`NO_DST`] marking an absent destination or operand.
    pub(crate) fn new(dst: u32, srcs: [u32; 3], lat: u64) -> Issue {
        let or = |slot: u32, sentinel: u32| match slot {
            NO_DST => sentinel,
            s => cell(s),
        };
        Issue {
            dst: or(dst, SINK_CELL),
            srcs: srcs.map(|s| or(s, ZERO_CELL)),
            lat: u32::try_from(lat).expect("FU latencies are small"),
        }
    }
}

/// The timing record of one bytecode op, parallel to its code: the issue
/// of the op, and for a fused op ([`crate::bytecode::Op::CmpBr`],
/// `GepLoad`, `GepStore`) the issue of its second half, which waits on the
/// first half's result cell ([`LINK_CELL`] when the engine elides that
/// register). Every other op's `second` waits on nothing and writes the
/// sink; the engine never issues it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TimingRec {
    pub first: Issue,
    pub second: Issue,
}

/// Per-warp timeline and divergence counts (the warp's scoreboard row lives
/// in `TimingState::ready`).
#[derive(Debug, Default, Clone, Copy)]
struct WarpTimer {
    /// The warp's current cycle within the block.
    cycle: u64,
    /// Cycles the LSU was busy past an access's issue slots.
    occupancy: u64,
    /// Issue slots occupied (`Σ ceil(active / issue_width)`).
    issue_slots: u64,
    divergent_branches: u64,
    reconvergences: u64,
}

impl WarpTimer {
    /// Cycles lost waiting on the scoreboard or a barrier: the timeline
    /// less everything that advanced it on purpose — issue slots, LSU
    /// occupancy and reconvergence pops.
    fn stall(&self) -> u64 {
        self.cycle - self.issue_slots - self.occupancy - self.reconvergences
    }
}

/// Shared timing state for one kernel launch (all warps of one block at a
/// time; [`TimingState::flush_block`] folds a finished block into the
/// stats and resets for the next).
#[derive(Debug)]
pub(crate) struct TimingState {
    /// Issue slots of a warp instruction by active-lane count:
    /// `slots[a] = ceil(a / issue_width)` for `a` in `0..=64`.
    slots: [u64; 65],
    /// Cells per warp: the three fixed cells and the kernel's register
    /// slots (see [`cell`]), rounded up to a power of two.
    stride: usize,
    /// The scoreboard, `warp * stride + cell`: the cycle at which each
    /// cell's value is ready.
    ready: Vec<u64>,
    warps: Vec<WarpTimer>,
    /// Scratch for one warp's staged φ batch: `(dst slot, ready cycle)`.
    phi_scratch: Vec<(u32, u64)>,
}

impl TimingState {
    /// The state for `n_warps` warps running a kernel of `n_slots`
    /// register slots and at most `max_phis` φs per block.
    pub(crate) fn new(cfg: TimingConfig, n_warps: usize, n_slots: u32, max_phis: usize) -> Self {
        // `check_geometry` turned an issue width of 0 away.
        let width = u64::from(cfg.issue_width);
        let stride = (cell(n_slots) as usize).next_power_of_two();
        TimingState {
            slots: std::array::from_fn(|a| (a as u64).div_ceil(width)),
            stride,
            ready: vec![0; n_warps * stride],
            warps: vec![WarpTimer::default(); n_warps],
            phi_scratch: Vec::with_capacity(max_phis),
        }
    }

    /// Warp `w`'s view, which the engine times the warp through while it
    /// runs it: its timeline and its scoreboard row.
    pub(crate) fn clock(&mut self, w: usize) -> WarpClock<'_> {
        WarpClock {
            slots: &self.slots,
            timer: &mut self.warps[w],
            row: &mut self.ready[w * self.stride..(w + 1) * self.stride],
            phi_scratch: &mut self.phi_scratch,
        }
    }

    /// All warps reached the barrier: stall each to the block maximum.
    pub(crate) fn barrier_release(&mut self) {
        let m = self.warps.iter().map(|wt| wt.cycle).max().unwrap_or(0);
        for wt in &mut self.warps {
            wt.cycle = m;
        }
    }

    /// Fold one finished block into `stats` (block cost = max warp
    /// timeline; counters sum) and reset every timer for the next block.
    pub(crate) fn flush_block(&mut self, stats: &mut KernelStats) {
        let mut block_cycles = 0;
        for wt in &mut self.warps {
            block_cycles = block_cycles.max(wt.cycle);
            stats.sim_stall_cycles += wt.stall();
            stats.sim_issue_slots += wt.issue_slots;
            stats.sim_divergent_branches += wt.divergent_branches;
            stats.sim_reconvergences += wt.reconvergences;
            *wt = WarpTimer::default();
        }
        self.ready.fill(0);
        stats.sim_cycles += block_cycles;
    }
}

/// One warp's part of the [`TimingState`]: what every hook of the engine
/// reads and writes while the warp runs.
pub(crate) struct WarpClock<'t> {
    slots: &'t [u64; 65],
    timer: &'t mut WarpTimer,
    /// The warp's scoreboard row, indexed by [`Issue`] cells.
    row: &'t mut [u64],
    phi_scratch: &'t mut Vec<(u32, u64)>,
}

impl WarpClock<'_> {
    /// Issue one warp instruction with `active` (≥ 1) live lanes: stall
    /// until its operands are ready, occupy `ceil(active / issue_width)`
    /// issue slots, mark its destination ready `lat` cycles later.
    #[inline(always)]
    pub(crate) fn issue(&mut self, active: u32, rec: &Issue) {
        self.occupy(active, rec, 0, u64::from(rec.lat));
    }

    /// Issue a memory access: operand stall, issue slots, LSU occupancy
    /// for uncoalesced segments / bank conflicts, and the base space
    /// latency on the loaded register (a store's record writes the sink).
    /// `is_global` and `extra` are the access's shape as
    /// [`KernelStats::charge_mem_access`] returned it.
    #[inline(always)]
    pub(crate) fn mem_issue(&mut self, active: u32, rec: &Issue, is_global: bool, extra: u64) {
        let (base, per_extra) = if is_global {
            (cost::GLOBAL_MEM_LATENCY, cost::GLOBAL_TRANSACTION_LATENCY)
        } else {
            (cost::SHARED_MEM_LATENCY, cost::SHARED_BANK_CONFLICT_PENALTY)
        };
        let occupancy = extra * per_extra;
        self.timer.occupancy += occupancy;
        self.occupy(active, rec, occupancy, base);
    }

    /// The issue model, with no branch: three scoreboard loads and the
    /// warp's cycle make the start, the slot table the issue slots, and one
    /// store marks the destination ready `lat` cycles after the warp moves
    /// past the issue and `occupancy` more cycles of a busy unit.
    #[inline(always)]
    fn occupy(&mut self, active: u32, rec: &Issue, occupancy: u64, lat: u64) {
        let slots = self.slots[active as usize];
        let (wt, row) = (&mut *self.timer, &mut *self.row);
        // The row is a power of two longer than any cell, so the mask
        // changes no cell; it lets the compiler see every access in bounds.
        let mask = row.len() - 1;
        debug_assert!(rec.srcs.iter().all(|&s| s as usize <= mask) && rec.dst as usize <= mask);
        let [a, b, c] = rec.srcs.map(|s| s as usize & mask);
        let start = row[a].max(row[b]).max(row[c]).max(wt.cycle);
        wt.issue_slots += slots;
        wt.cycle = start + slots + occupancy;
        row[rec.dst as usize & mask] = wt.cycle + lat;
    }

    /// Scoreboard-ready cycle of one register slot (φ source collection).
    pub(crate) fn reg_ready(&self, slot: u32) -> u64 {
        self.row[cell(slot) as usize]
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

    /// Stage one φ's readiness; committed by [`WarpClock::phi_commit`].
    pub(crate) fn phi_stage(&mut self, dst: u32, ready: u64) {
        self.phi_scratch.push((dst, ready));
    }

    /// Commit the staged φ batch to the warp's scoreboard.
    pub(crate) fn phi_commit(&mut self) {
        for &(dst, ready) in self.phi_scratch.iter() {
            self.row[cell(dst) as usize] = ready;
        }
    }

    /// The engine pushed the *(else, then)* entries of a divergent branch.
    pub(crate) fn diverge(&mut self) {
        self.timer.divergent_branches += 1;
    }

    /// The engine popped a stack entry. A divergence-pushed entry costs
    /// one cycle (SIMT-stack update + mask swap) and counts a
    /// reconvergence; the warp's base entry — the one pop that leaves the
    /// engine's stack empty, hence `pushed = false` — is free.
    pub(crate) fn frame_pop(&mut self, pushed: bool) {
        if pushed {
            self.timer.reconvergences += 1;
            self.timer.cycle += 1;
        }
    }

    /// The warp reached `__syncthreads`: one uniform issue slot.
    pub(crate) fn barrier_issue(&mut self) {
        self.timer.issue_slots += 1;
        self.timer.cycle += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slots of the test states: enough for every test below.
    const SLOTS: u32 = 4;

    fn state(issue_width: u32, n_warps: usize) -> TimingState {
        TimingState::new(
            TimingConfig {
                enabled: true,
                issue_width,
            },
            n_warps,
            SLOTS,
            0,
        )
    }

    /// An issue that waits on nothing and writes nothing.
    fn bare(lat: u64) -> Issue {
        Issue::new(NO_DST, [NO_DST; 3], lat)
    }

    #[test]
    fn slot_table_is_the_ceiling_division() {
        for w in 1..=65u32 {
            let t = state(w, 1);
            for a in 0..=64u64 {
                assert_eq!(t.slots[a as usize], a.div_ceil(u64::from(w)), "{a} / {w}");
            }
        }
        // A zero width never gets here: a launch turns it away with
        // `SimError::BadIssueWidth` (`tests/typed_semantics.rs`).
    }

    #[test]
    fn sentinels_read_zero_and_absorb_writes() {
        let r = bare(7);
        assert_eq!((r.dst, r.srcs), (SINK_CELL, [ZERO_CELL; 3]));
        let mut t = state(32, 1);
        t.clock(0).issue(32, &r);
        // The sink took the write; the zero cell still reads 0.
        assert_eq!(t.ready[SINK_CELL as usize], 8);
        assert_eq!(t.ready[ZERO_CELL as usize], 0);
        t.clock(0).issue(32, &r);
        assert_eq!(t.warps[0].stall(), 0);
    }

    #[test]
    fn issue_slots_scale_with_active_lanes() {
        let mut t = state(16, 1);
        t.clock(0).issue(32, &bare(0)); // 2 slots
        t.clock(0).issue(16, &bare(0)); // 1 slot
        t.clock(0).issue(1, &bare(0)); // 1 slot
        assert_eq!(t.warps[0].issue_slots, 4);
        assert_eq!(t.warps[0].cycle, 4);
        assert_eq!(t.warps[0].stall(), 0);
    }

    #[test]
    fn scoreboard_stalls_dependents_only() {
        let mut t = state(32, 1);
        // Producer: 1 slot, result ready at 1 + 40.
        t.clock(0)
            .issue(32, &Issue::new(0, [NO_DST; 3], cost::DIV_LATENCY));
        // Independent op: no stall.
        t.clock(0)
            .issue(32, &Issue::new(1, [NO_DST; 3], cost::ALU_LATENCY));
        assert_eq!(t.warps[0].stall(), 0);
        // Dependent op: stalls until cycle 41.
        t.clock(0)
            .issue(32, &Issue::new(2, [0, NO_DST, NO_DST], cost::ALU_LATENCY));
        assert_eq!(t.warps[0].stall(), 41 - 2);
        assert_eq!(t.warps[0].cycle, 42);
        // Its own result is ready 4 cycles later.
        assert_eq!(t.clock(0).reg_ready(2), 46);
    }

    #[test]
    fn warps_keep_separate_scoreboard_rows() {
        let mut t = state(32, 2);
        t.clock(0)
            .issue(32, &Issue::new(0, [NO_DST; 3], cost::DIV_LATENCY));
        // Warp 1 reads its own slot 0, which nothing wrote.
        t.clock(1).issue(32, &Issue::new(1, [0, NO_DST, NO_DST], 0));
        assert_eq!(t.warps[1].stall(), 0);
        assert_eq!((t.clock(0).reg_ready(0), t.clock(1).reg_ready(0)), (41, 0));
    }

    #[test]
    fn divergence_pushes_two_frames_and_pops_charge_one_cycle() {
        let mut t = state(16, 1);
        t.clock(0).diverge();
        assert_eq!(t.warps[0].divergent_branches, 1);
        t.clock(0).frame_pop(true);
        t.clock(0).frame_pop(true);
        // Base-entry pop: the engine's stack is empty afterwards, no charge.
        t.clock(0).frame_pop(false);
        assert_eq!(t.warps[0].reconvergences, 2);
        assert_eq!(t.warps[0].cycle, 2);
    }

    #[test]
    fn barrier_release_aligns_warps_to_max() {
        let mut t = state(16, 2);
        t.clock(0).issue(16, &bare(0));
        t.clock(0).issue(16, &bare(0));
        t.clock(1).issue(16, &bare(0));
        t.clock(0).barrier_issue();
        t.clock(1).barrier_issue();
        t.barrier_release();
        assert_eq!(t.warps[0].cycle, t.warps[1].cycle);
        assert_eq!(t.warps[1].stall(), 1); // was at 2, aligned to 3
    }

    #[test]
    fn flush_block_takes_max_and_resets() {
        let mut t = state(16, 2);
        t.clock(0).issue(32, &Issue::new(0, [NO_DST; 3], 10));
        t.clock(1).issue(16, &bare(0));
        t.clock(1).diverge();
        let mut s = KernelStats::default();
        t.flush_block(&mut s);
        assert_eq!(s.sim_cycles, 2); // warp 0 at 2, warp 1 at 1
        assert_eq!(s.sim_issue_slots, 3);
        assert_eq!(s.sim_divergent_branches, 1);
        assert_eq!(t.warps[0].cycle, 0);
        assert_eq!(t.clock(0).reg_ready(0), 0);
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

        let load = Issue::new(0, [NO_DST; 3], 0);
        let mut t = state(32, 1);
        let (is_global, extra) = shape(&coalesced);
        t.clock(0).mem_issue(32, &load, is_global, extra);
        let fast = t.warps[0].cycle;
        let mut t2 = state(32, 1);
        let (is_global, extra) = shape(&strided);
        t2.clock(0).mem_issue(32, &load, is_global, extra);
        let slow = t2.warps[0].cycle;
        assert_eq!(fast, 1); // one slot, no occupancy
        assert_eq!(slow, 1 + 31 * cost::GLOBAL_TRANSACTION_LATENCY);
        // Base DRAM latency lands on the scoreboard in both cases.
        assert_eq!(t.clock(0).reg_ready(0), fast + cost::GLOBAL_MEM_LATENCY);
    }

    #[test]
    fn phis_are_free_but_propagate_readiness() {
        let mut t = state(32, 1);
        t.clock(0)
            .issue(32, &Issue::new(0, [NO_DST; 3], cost::MUL_LATENCY)); // ready at 9
        let ready = t.clock(0).reg_ready(0);
        let mut c = t.clock(0);
        c.phi_begin();
        c.phi_stage(1, ready);
        c.phi_commit();
        assert_eq!(t.warps[0].issue_slots, 1); // φ issued nothing
        t.clock(0).issue(32, &Issue::new(2, [1, NO_DST, NO_DST], 0));
        assert_eq!(t.warps[0].stall(), ready - 1);
    }

    #[test]
    fn phi_batch_reads_pre_batch_scoreboard() {
        let mut t = state(32, 1);
        t.clock(0).issue(32, &Issue::new(0, [NO_DST; 3], 10)); // slot 0 ready at 11
        let mut c = t.clock(0);
        c.phi_begin();
        c.phi_stage(1, c.reg_ready(0)); // φ1 := slot 0
        c.phi_stage(0, 0); // φ0 := something already ready
        c.phi_commit();
        assert_eq!(t.clock(0).reg_ready(1), 11);
        assert_eq!(t.clock(0).reg_ready(0), 0);
    }
}
