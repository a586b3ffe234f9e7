//! Execute loop for the flat register bytecode ([`crate::BytecodeKernel`]).
//!
//! Same machine as the [`crate::reference`] interpreter — lockstep warps,
//! per-warp IPDOM reconvergence stack, one shared instruction budget — but
//! the inner loop is a single `match` on a dense
//! [`Op`](crate::bytecode::Op) discriminant per *warp* instruction:
//!
//! * operands are plain register-file indices (constants and parameters
//!   were materialized into dedicated slots at launch, so there is no
//!   operand-kind dispatch and no argument-array indirection);
//! * the register file is **slot-major** (`regs[slot * threads + thread]`):
//!   one warp op streams through contiguous lanes of each operand, so the
//!   hot loop is sequential loads/stores instead of `n_slots`-strided ones;
//! * control transfers use the pre-patched resume pc on each op, so a
//!   taken `jump`/`br` continues straight in the dispatch loop; the stack
//!   is written only on divergence, reconvergence pops, and barriers —
//!   never per instruction;
//! * φ batches resolve through per-predecessor move tables: active lanes
//!   are bucketed by provenance once, then each bucket applies a flat
//!   `dst ← src` list;
//! * a fused [`Op::CmpBr`](crate::bytecode::Op::CmpBr) evaluates, charges,
//!   and branches in one dispatch, replicating the unfused pair's exact
//!   stats/budget/error ordering; the fused gep+memory ops
//!   ([`Op::GepLoad`](crate::bytecode::Op::GepLoad) /
//!   [`Op::GepStore`](crate::bytecode::Op::GepStore)) do the same in two
//!   phases, so a budget exhaustion still lands between the address
//!   computation and the access.
//!
//! Value semantics are the `*_eval` helpers in [`crate::exec`]; the
//! differential tests hold buffers, stats, and errors bit-identical to the
//! reference interpreter.

use crate::bytecode::{BytecodeKernel, Op};
use crate::decoded::{BLOCK_ENTRY, NO_BLOCK, NO_DST};
use crate::exec::{ashr_eval, zext_sext_eval};
use crate::exec::{
    bin_f, bin_i, div_eval, fcmp_eval, fptosi_eval, gep_eval, icmp_eval, lshr_eval, mem_read_at,
    mem_write_at, select_eval, shl_eval, sitofp_eval, trunc_eval, un_f, validate_args, KernelArg,
    SimError, StackEntry, WarpState, WarpStatus,
};
use crate::mem::{encode_shared, ByteStore, RawVal};
use crate::stats::KernelStats;
use crate::timing::{bc_deps, TimingState};
use crate::{GpuConfig, LaunchConfig};
use darm_ir::{cost, Dim};

/// Runs a bytecode kernel over the launch geometry. Entry point for
/// [`crate::Gpu::launch_bytecode`].
pub(crate) fn launch(
    buffers: &mut Vec<ByteStore>,
    config: &GpuConfig,
    bk: &BytecodeKernel,
    cfg: &LaunchConfig,
    args: &[KernelArg],
) -> Result<KernelStats, SimError> {
    let arg_vals = validate_args(&bk.name, &bk.params, args, buffers.len())?;
    let mut stats = KernelStats {
        warp_size: config.warp_size,
        ..Default::default()
    };
    let mut budget = config.max_warp_instructions;
    let threads = cfg.threads_per_block() as usize;
    // Timing observer, allocated only when enabled — the engine sees `None`
    // otherwise and pays one predictable branch per charge.
    let mut timing = config.timing.enabled.then(|| {
        let n_warps = cfg.threads_per_block().div_ceil(config.warp_size) as usize;
        TimingState::new(config.timing, n_warps, bk.n_slots as usize)
    });
    let n = bk.n_slots as usize;
    let prog = bk.program_slots as usize;
    // One flat slot-major register file (`regs[slot * threads + thread]`),
    // reused per block. The constant and parameter slots sit above the
    // program-writable prefix and no op ever writes them, so they are
    // materialized once here and only the prefix — which is exactly
    // `regs[..prog * threads]` — is re-initialized between blocks; from
    // then on every operand read is a plain register load.
    let mut regs = vec![RawVal::Undef; threads * n];
    for &(s, v) in &bk.consts {
        let base = s as usize * threads;
        regs[base..base + threads].fill(v);
    }
    for &(s, pi) in &bk.param_slots {
        let base = s as usize * threads;
        regs[base..base + threads].fill(arg_vals[pi as usize]);
    }
    let mut first_block = true;
    for by in 0..cfg.grid.1 {
        for bx in 0..cfg.grid.0 {
            if !first_block {
                regs[..threads * prog].fill(RawVal::Undef);
            }
            first_block = false;
            let mut engine = BcEngine {
                buffers,
                warp_size: config.warp_size,
                bk,
                launch: cfg,
                block_idx: (bx, by),
                shared: ByteStore::with_len(bk.shared_size as usize),
                stats: KernelStats {
                    warp_size: config.warp_size,
                    ..Default::default()
                },
                budget: &mut budget,
                threads,
                lane_addrs: Vec::new(),
                gep_vals: Vec::new(),
                scratch: Vec::new(),
                buckets: Vec::new(),
                stage: Vec::new(),
                timing: timing.as_mut(),
            };
            engine.run(&mut regs)?;
            let mut s = engine.stats;
            if let Some(t) = timing.as_mut() {
                t.flush_block(&mut s);
            }
            stats.merge(&s);
        }
    }
    Ok(stats)
}

/// Per-thread-block execution state for the bytecode engine.
struct BcEngine<'a> {
    buffers: &'a mut Vec<ByteStore>,
    warp_size: u32,
    bk: &'a BytecodeKernel,
    launch: &'a LaunchConfig,
    block_idx: (u32, u32),
    shared: ByteStore,
    stats: KernelStats,
    budget: &'a mut u64,
    /// Threads per block — the slot-major register-file stride.
    threads: usize,
    /// Scratch for per-lane memory addresses of the current instruction.
    lane_addrs: Vec<u64>,
    /// Scratch for per-lane gep results of a fused gep+mem op whose
    /// address register write was elided.
    gep_vals: Vec<RawVal>,
    /// Scratch for the coalescing / bank-conflict model.
    scratch: Vec<u64>,
    /// Scratch for φ resolution: `(pred block, lane mask)` buckets.
    buckets: Vec<(u32, u64)>,
    /// Scratch for the staged (overlapping) φ move path.
    stage: Vec<RawVal>,
    /// Cycle-level timing observer ([`crate::timing`]); `None` unless
    /// [`crate::TimingConfig::enabled`] — pure observation either way.
    timing: Option<&'a mut TimingState>,
}

impl<'a> BcEngine<'a> {
    #[allow(clippy::needless_range_loop)] // indexing sidesteps a double &mut borrow
    fn run(&mut self, regs: &mut [RawVal]) -> Result<(), SimError> {
        let threads = self.launch.threads_per_block();
        let ws = self.warp_size;
        let n_warps = threads.div_ceil(ws);
        let entry_pc = self.bk.blocks[self.bk.entry as usize].entry_pc;

        let mut warps: Vec<WarpState> = (0..n_warps)
            .map(|w| {
                let base = w * ws;
                let lanes = ws.min(threads - base);
                let mask = if lanes == 64 {
                    u64::MAX
                } else {
                    (1u64 << lanes) - 1
                };
                WarpState {
                    stack: vec![StackEntry {
                        block: self.bk.entry,
                        inst_idx: entry_pc,
                        rpc: NO_BLOCK,
                        mask,
                    }],
                    prev: vec![NO_BLOCK; ws as usize],
                    status: WarpStatus::Running,
                    base_thread: base,
                }
            })
            .collect();

        loop {
            let mut any_running = false;
            for w in 0..warps.len() {
                if warps[w].status == WarpStatus::Running {
                    any_running = true;
                    self.run_warp(&mut warps[w], regs)?;
                }
            }
            let done = warps
                .iter()
                .filter(|w| w.status == WarpStatus::Done)
                .count();
            let waiting = warps
                .iter()
                .filter(|w| w.status == WarpStatus::AtBarrier)
                .count();
            if done == warps.len() {
                return Ok(());
            }
            if waiting > 0 && done + waiting == warps.len() {
                if done > 0 {
                    return Err(SimError::BarrierDeadlock(format!(
                        "{done} warps finished while {waiting} wait at a barrier"
                    )));
                }
                for w in &mut warps {
                    w.status = WarpStatus::Running;
                }
                if let Some(t) = self.timing.as_deref_mut() {
                    t.barrier_release();
                }
            } else if !any_running {
                return Err(SimError::BarrierDeadlock("no runnable warps".to_string()));
            }
        }
    }

    /// Runs one warp until it finishes, reaches a barrier, or diverges into
    /// a state handled on the next scheduler pass.
    #[allow(clippy::too_many_lines)]
    #[allow(unused_assignments)] // flush! resets are dead at return sites
    fn run_warp(&mut self, warp: &mut WarpState, regs: &mut [RawVal]) -> Result<(), SimError> {
        let bk = self.bk;
        // Slot-major stride: operand `s` of thread `t` lives at
        // `regs[s * nt + t]`, so a warp op walks `wb + lane` contiguously.
        let nt = self.threads;
        let wb = warp.base_thread as usize;
        // Warp index within the block, for the timing observer.
        let w_idx = (warp.base_thread / self.warp_size) as usize;
        // Hot counters accumulate in locals and flush to `self` only at
        // suspension points (`flush!`). Error returns skip the flush on
        // purpose: stats are discarded on `Err` and the launch aborts, so
        // neither the counters nor the budget remain observable.
        let mut l_warp_insts = 0u64;
        let mut l_thread_insts = 0u64;
        let mut l_cycles = 0u64;
        let mut l_alu_issues = 0u64;
        let mut l_alu_active = 0u64;
        let mut l_budget = *self.budget;
        macro_rules! flush {
            () => {{
                self.stats.warp_instructions += l_warp_insts;
                self.stats.thread_instructions += l_thread_insts;
                self.stats.cycles += l_cycles;
                self.stats.alu_issues += l_alu_issues;
                self.stats.alu_active_lanes += l_alu_active;
                l_warp_insts = 0;
                l_thread_insts = 0;
                l_cycles = 0;
                l_alu_issues = 0;
                l_alu_active = 0;
                *self.budget = l_budget;
            }};
        }
        'outer: loop {
            // Pop entries that already sit at their reconvergence point.
            while let Some(top) = warp.stack.last() {
                if top.block == top.rpc {
                    warp.stack.pop();
                    if let Some(t) = self.timing.as_deref_mut() {
                        t.frame_pop(w_idx);
                    }
                } else {
                    break;
                }
            }
            let Some(&top) = warp.stack.last() else {
                warp.status = WarpStatus::Done;
                flush!();
                return Ok(());
            };
            let mask = top.mask;
            let active = mask.count_ones() as u64;
            // `cur_block`/`pc` live in locals; the stack entry is written
            // back only at suspension points (divergence, pop, barrier).
            let mut cur_block = top.block;
            let mut pc = top.inst_idx;
            if pc == BLOCK_ENTRY {
                self.run_phis(warp, cur_block, mask, regs)?;
                pc = bk.blocks[cur_block as usize].first;
            }

            // A dense mask (every active lane a contiguous prefix — full
            // warps, partial tail warps, uniform control flow) iterates as
            // a plain counted loop, which the optimizer strength-reduces
            // and unrolls; sparse masks walk the set bits.
            let dense_lanes = if mask & mask.wrapping_add(1) == 0 {
                mask.count_ones()
            } else {
                0
            };
            // Iterates the active lanes, binding the lane index (the
            // offset to add to a slot's `base + wb`).
            macro_rules! lanes {
                (|$i:ident| $body:expr) => {{
                    if dense_lanes != 0 {
                        for lane in 0..dense_lanes as usize {
                            let $i = lane;
                            $body
                        }
                    } else {
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros();
                            m &= m - 1;
                            let $i = lane as usize;
                            $body
                        }
                    }
                }};
            }
            macro_rules! map2 {
                ($d:expr, $a:expr, $b:expr, $f:expr) => {{
                    let db = $d as usize * nt + wb;
                    let ab = $a as usize * nt + wb;
                    let bb = $b as usize * nt + wb;
                    lanes!(|i| regs[db + i] = ($f)(regs[ab + i], regs[bb + i]));
                }};
            }
            macro_rules! map1 {
                ($d:expr, $a:expr, $f:expr) => {{
                    let db = $d as usize * nt + wb;
                    let ab = $a as usize * nt + wb;
                    lanes!(|i| regs[db + i] = ($f)(regs[ab + i]));
                }};
            }
            // Charge + budget + advance for a plain ALU-class op.
            // `$op` feeds the timing observer's scoreboard deps.
            macro_rules! charge_alu {
                ($op:expr) => {{
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    l_cycles += bk.lats[pc as usize];
                    l_alu_issues += 1;
                    l_alu_active += active;
                    if let Some(t) = self.timing.as_deref_mut() {
                        let (dst, srcs) = bc_deps(&$op);
                        t.issue(w_idx, active as u32, bk.lats[pc as usize], dst, srcs);
                    }
                    if l_budget == 0 {
                        return Err(SimError::StepLimit);
                    }
                    l_budget -= 1;
                    pc += 1;
                }};
            }
            // Same for a memory op: the cost model reads `lane_addrs` and
            // charges `self.stats` directly, so the locals flush first.
            // `$d`/`$srcs` are the scoreboard dst/src slots; `$hint` is an
            // explicit readiness floor (the gep half of a fused op, whose
            // address register may be elided).
            macro_rules! charge_mem {
                ($d:expr, $srcs:expr, $hint:expr) => {{
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    flush!();
                    self.stats
                        .charge_mem_access(&self.lane_addrs, &mut self.scratch);
                    if let Some(t) = self.timing.as_deref_mut() {
                        t.mem_issue(
                            w_idx,
                            active as u32,
                            $d,
                            $srcs,
                            $hint,
                            &self.lane_addrs,
                            &mut self.scratch,
                        );
                    }
                    if l_budget == 0 {
                        return Err(SimError::StepLimit);
                    }
                    l_budget -= 1;
                    pc += 1;
                }};
            }
            // One control-flow warp instruction (`br`/`jump`/`ret`).
            macro_rules! charge_ctl {
                ($op:expr) => {{
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    l_cycles += bk.lats[pc as usize];
                    if let Some(t) = self.timing.as_deref_mut() {
                        let (dst, srcs) = bc_deps(&$op);
                        t.issue(w_idx, active as u32, bk.lats[pc as usize], dst, srcs);
                    }
                }};
            }
            // Record per-lane provenance before leaving a block (skipped
            // entirely for φ-free kernels — nothing ever reads it).
            macro_rules! record_prev {
                () => {{
                    if bk.track_prev {
                        let mut m = mask;
                        while m != 0 {
                            let lane = m.trailing_zeros();
                            m &= m - 1;
                            warp.prev[lane as usize] = cur_block;
                        }
                    }
                }};
            }

            loop {
                let op = bk.code[pc as usize];
                match op {
                    // ---- control ----
                    Op::Ret => {
                        charge_ctl!(op);
                        record_prev!();
                        warp.stack.pop();
                        if let Some(t) = self.timing.as_deref_mut() {
                            t.frame_pop(w_idx);
                        }
                        continue 'outer;
                    }
                    Op::Jump { t_block, t_pc } => {
                        charge_ctl!(op);
                        record_prev!();
                        if t_block == top.rpc {
                            warp.stack.pop();
                            if let Some(t) = self.timing.as_deref_mut() {
                                t.frame_pop(w_idx);
                            }
                            continue 'outer;
                        }
                        cur_block = t_block;
                        if t_pc == BLOCK_ENTRY {
                            self.run_phis(warp, cur_block, mask, regs)?;
                            pc = bk.blocks[cur_block as usize].first;
                        } else {
                            pc = t_pc;
                        }
                    }
                    Op::Br {
                        c,
                        t_block,
                        t_pc,
                        e_block,
                        e_pc,
                    } => {
                        charge_ctl!(op);
                        record_prev!();
                        let cb = c as usize * nt + wb;
                        let mut m_true = 0u64;
                        let mut m_false = 0u64;
                        lanes!(|i| {
                            match regs[cb + i] {
                                RawVal::I1(true) => m_true |= 1u64 << i,
                                RawVal::I1(false) => m_false |= 1u64 << i,
                                _ => {
                                    return Err(SimError::UndefValue(format!(
                                        "branch condition in block {}",
                                        bk.block_name(cur_block)
                                    )))
                                }
                            }
                        });
                        if m_false == 0 || m_true == 0 {
                            let (tb, tp) = if m_false == 0 {
                                (t_block, t_pc)
                            } else {
                                (e_block, e_pc)
                            };
                            if tb == top.rpc {
                                warp.stack.pop();
                                if let Some(t) = self.timing.as_deref_mut() {
                                    t.frame_pop(w_idx);
                                }
                                continue 'outer;
                            }
                            cur_block = tb;
                            if tp == BLOCK_ENTRY {
                                self.run_phis(warp, cur_block, mask, regs)?;
                                pc = bk.blocks[cur_block as usize].first;
                            } else {
                                pc = tp;
                            }
                        } else {
                            self.diverge(warp, cur_block, t_block, e_block, m_true, m_false)?;
                            continue 'outer;
                        }
                    }
                    Op::CmpBr {
                        p,
                        d,
                        a,
                        b,
                        t_block,
                        t_pc,
                        e_block,
                        e_pc,
                    } => {
                        let ab = a as usize * nt + wb;
                        let bb = b as usize * nt + wb;
                        let db = d as usize * nt + wb;
                        let mut m_true = 0u64;
                        let mut m_false = 0u64;
                        let mut m_undef = 0u64;
                        lanes!(|i| {
                            let v = icmp_eval(p, regs[ab + i], regs[bb + i]);
                            if d != NO_DST {
                                regs[db + i] = v;
                            }
                            match v {
                                RawVal::I1(true) => m_true |= 1u64 << i,
                                RawVal::I1(false) => m_false |= 1u64 << i,
                                _ => m_undef |= 1u64 << i,
                            }
                        });
                        // Exactly the unfused pair's accounting: one ALU
                        // issue + one budget unit for the compare, one
                        // control issue for the branch, with the budget
                        // check between the two (StepLimit outranks the
                        // undefined-condition error, as in the reference
                        // interpreter).
                        l_warp_insts += 2;
                        l_thread_insts += 2 * active;
                        l_cycles += bk.lats[pc as usize];
                        l_alu_issues += 1;
                        l_alu_active += active;
                        if let Some(t) = self.timing.as_deref_mut() {
                            // bk.lats folds both halves' latency into one
                            // entry; the observer needs the unfused pair —
                            // the compare produces `d`, the branch waits on
                            // it — so each half is issued at its own cost.
                            let rdy =
                                t.issue(w_idx, active as u32, cost::ALU_LATENCY, d, [a, b, NO_DST]);
                            t.issue_dep(w_idx, active as u32, cost::BRANCH_LATENCY, NO_DST, rdy);
                        }
                        if l_budget == 0 {
                            return Err(SimError::StepLimit);
                        }
                        l_budget -= 1;
                        record_prev!();
                        if m_undef != 0 {
                            return Err(SimError::UndefValue(format!(
                                "branch condition in block {}",
                                bk.block_name(cur_block)
                            )));
                        }
                        if m_false == 0 || m_true == 0 {
                            let (tb, tp) = if m_false == 0 {
                                (t_block, t_pc)
                            } else {
                                (e_block, e_pc)
                            };
                            if tb == top.rpc {
                                warp.stack.pop();
                                if let Some(t) = self.timing.as_deref_mut() {
                                    t.frame_pop(w_idx);
                                }
                                continue 'outer;
                            }
                            cur_block = tb;
                            if tp == BLOCK_ENTRY {
                                self.run_phis(warp, cur_block, mask, regs)?;
                                pc = bk.blocks[cur_block as usize].first;
                            } else {
                                pc = tp;
                            }
                        } else {
                            self.diverge(warp, cur_block, t_block, e_block, m_true, m_false)?;
                            continue 'outer;
                        }
                    }
                    Op::Sync => {
                        self.stats.barriers += 1;
                        l_cycles += 1;
                        if let Some(t) = self.timing.as_deref_mut() {
                            t.barrier_issue(w_idx);
                        }
                        flush!();
                        let cur = warp.stack.last_mut().expect("entry exists");
                        cur.block = cur_block;
                        cur.inst_idx = pc + 1;
                        warp.status = WarpStatus::AtBarrier;
                        return Ok(());
                    }
                    // ---- plain ops ----
                    Op::Add { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x.wrapping_add(y)));
                        charge_alu!(op);
                    }
                    Op::Sub { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x.wrapping_sub(y)));
                        charge_alu!(op);
                    }
                    Op::Mul { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x.wrapping_mul(y)));
                        charge_alu!(op);
                    }
                    Op::And { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x & y));
                        charge_alu!(op);
                    }
                    Op::Or { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x | y));
                        charge_alu!(op);
                    }
                    Op::Xor { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_i(x, y, |x, y| x ^ y));
                        charge_alu!(op);
                    }
                    Op::Shl { d, a, b } => {
                        map2!(d, a, b, shl_eval);
                        charge_alu!(op);
                    }
                    Op::LShr { d, a, b } => {
                        map2!(d, a, b, lshr_eval);
                        charge_alu!(op);
                    }
                    Op::AShr { d, a, b } => {
                        map2!(d, a, b, ashr_eval);
                        charge_alu!(op);
                    }
                    Op::Div {
                        op: opc,
                        ty,
                        d,
                        a,
                        b,
                    } => {
                        let db = d as usize * nt + wb;
                        let ab = a as usize * nt + wb;
                        let bb = b as usize * nt + wb;
                        lanes!(|i| {
                            regs[db + i] = div_eval(opc, ty, regs[ab + i], regs[bb + i])?;
                        });
                        charge_alu!(op);
                    }
                    Op::FAdd { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_f(x, y, |x, y| x + y));
                        charge_alu!(op);
                    }
                    Op::FSub { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_f(x, y, |x, y| x - y));
                        charge_alu!(op);
                    }
                    Op::FMul { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_f(x, y, |x, y| x * y));
                        charge_alu!(op);
                    }
                    Op::FDiv { d, a, b } => {
                        map2!(d, a, b, |x, y| bin_f(x, y, |x, y| x / y));
                        charge_alu!(op);
                    }
                    Op::FSqrt { d, a } => {
                        map1!(d, a, |x| un_f(x, f32::sqrt));
                        charge_alu!(op);
                    }
                    Op::FAbs { d, a } => {
                        map1!(d, a, |x| un_f(x, f32::abs));
                        charge_alu!(op);
                    }
                    Op::FNeg { d, a } => {
                        map1!(d, a, |x| un_f(x, |v| -v));
                        charge_alu!(op);
                    }
                    Op::FExp { d, a } => {
                        map1!(d, a, |x| un_f(x, f32::exp));
                        charge_alu!(op);
                    }
                    Op::Icmp { p, d, a, b } => {
                        map2!(d, a, b, |x, y| icmp_eval(p, x, y));
                        charge_alu!(op);
                    }
                    Op::Fcmp { p, d, a, b } => {
                        map2!(d, a, b, |x, y| fcmp_eval(p, x, y));
                        charge_alu!(op);
                    }
                    Op::Select { d, c, a, b } => {
                        let db = d as usize * nt + wb;
                        let cb = c as usize * nt + wb;
                        let ab = a as usize * nt + wb;
                        let bb = b as usize * nt + wb;
                        lanes!(|i| {
                            regs[db + i] = select_eval(regs[cb + i], regs[ab + i], regs[bb + i]);
                        });
                        charge_alu!(op);
                    }
                    Op::ZextSext { zext, ty, d, a } => {
                        map1!(d, a, |x| zext_sext_eval(zext, ty, x));
                        charge_alu!(op);
                    }
                    Op::Trunc { ty, d, a } => {
                        map1!(d, a, |x| trunc_eval(ty, x));
                        charge_alu!(op);
                    }
                    Op::SiToFp { d, a } => {
                        map1!(d, a, sitofp_eval);
                        charge_alu!(op);
                    }
                    Op::FpToSi { ty, d, a } => {
                        map1!(d, a, |x| fptosi_eval(ty, x));
                        charge_alu!(op);
                    }
                    Op::Gep { elem, d, a, b } => {
                        map2!(d, a, b, |x, y| gep_eval(elem, x, y));
                        charge_alu!(op);
                    }
                    Op::Load { ty, d, a } => {
                        self.lane_addrs.clear();
                        let db = d as usize * nt + wb;
                        let ab = a as usize * nt + wb;
                        lanes!(|i| {
                            let RawVal::Ptr(addr) = regs[ab + i] else {
                                return Err(SimError::UndefValue("load address".into()));
                            };
                            self.lane_addrs.push(addr);
                            regs[db + i] = mem_read_at(self.buffers, &self.shared, ty, addr)?;
                        });
                        charge_mem!(d, [a, NO_DST, NO_DST], 0);
                    }
                    Op::Store { v, a } => {
                        self.lane_addrs.clear();
                        let vb = v as usize * nt + wb;
                        let ab = a as usize * nt + wb;
                        lanes!(|i| {
                            let val = regs[vb + i];
                            let RawVal::Ptr(addr) = regs[ab + i] else {
                                return Err(SimError::UndefValue("store address".into()));
                            };
                            if matches!(val, RawVal::Undef) {
                                return Err(SimError::UndefValue("stored value".into()));
                            }
                            self.lane_addrs.push(addr);
                            mem_write_at(self.buffers, &mut self.shared, addr, val)?;
                        });
                        charge_mem!(NO_DST, [v, a, NO_DST], 0);
                    }
                    Op::GepLoad {
                        elem,
                        gd,
                        ga,
                        gb,
                        ty,
                        d,
                    } => {
                        // Phase 1 — the gep half: compute every lane's
                        // address (writing the register only when something
                        // else reads it) and charge exactly as the unfused
                        // `Gep`, so a StepLimit fires before any memory
                        // traffic, as it would unfused.
                        let gab = ga as usize * nt + wb;
                        let gbb = gb as usize * nt + wb;
                        let gdb = gd as usize * nt + wb;
                        self.gep_vals.clear();
                        lanes!(|i| {
                            let p = gep_eval(elem, regs[gab + i], regs[gbb + i]);
                            if gd != NO_DST {
                                regs[gdb + i] = p;
                            }
                            self.gep_vals.push(p);
                        });
                        l_warp_insts += 1;
                        l_thread_insts += active;
                        l_cycles += bk.lats[pc as usize];
                        l_alu_issues += 1;
                        l_alu_active += active;
                        // The fused op's latency table entry covers only the
                        // gep half; the address register may be elided, so
                        // its readiness travels by hint to the load half.
                        let mut gep_ready = 0u64;
                        if let Some(t) = self.timing.as_deref_mut() {
                            gep_ready = t.issue(
                                w_idx,
                                active as u32,
                                bk.lats[pc as usize],
                                gd,
                                [ga, gb, NO_DST],
                            );
                        }
                        if l_budget == 0 {
                            return Err(SimError::StepLimit);
                        }
                        l_budget -= 1;
                        // Phase 2 — the load half, addresses from the
                        // staged per-lane values.
                        self.lane_addrs.clear();
                        let db = d as usize * nt + wb;
                        let mut k = 0;
                        lanes!(|i| {
                            let RawVal::Ptr(addr) = self.gep_vals[k] else {
                                return Err(SimError::UndefValue("load address".into()));
                            };
                            k += 1;
                            self.lane_addrs.push(addr);
                            regs[db + i] = mem_read_at(self.buffers, &self.shared, ty, addr)?;
                        });
                        charge_mem!(d, [NO_DST, NO_DST, NO_DST], gep_ready);
                    }
                    Op::GepStore {
                        elem,
                        gd,
                        ga,
                        gb,
                        v,
                    } => {
                        let gab = ga as usize * nt + wb;
                        let gbb = gb as usize * nt + wb;
                        let gdb = gd as usize * nt + wb;
                        self.gep_vals.clear();
                        lanes!(|i| {
                            let p = gep_eval(elem, regs[gab + i], regs[gbb + i]);
                            if gd != NO_DST {
                                regs[gdb + i] = p;
                            }
                            self.gep_vals.push(p);
                        });
                        l_warp_insts += 1;
                        l_thread_insts += active;
                        l_cycles += bk.lats[pc as usize];
                        l_alu_issues += 1;
                        l_alu_active += active;
                        let mut gep_ready = 0u64;
                        if let Some(t) = self.timing.as_deref_mut() {
                            gep_ready = t.issue(
                                w_idx,
                                active as u32,
                                bk.lats[pc as usize],
                                gd,
                                [ga, gb, NO_DST],
                            );
                        }
                        if l_budget == 0 {
                            return Err(SimError::StepLimit);
                        }
                        l_budget -= 1;
                        self.lane_addrs.clear();
                        let vb = v as usize * nt + wb;
                        let mut k = 0;
                        lanes!(|i| {
                            let val = regs[vb + i];
                            let RawVal::Ptr(addr) = self.gep_vals[k] else {
                                return Err(SimError::UndefValue("store address".into()));
                            };
                            k += 1;
                            if matches!(val, RawVal::Undef) {
                                return Err(SimError::UndefValue("stored value".into()));
                            }
                            self.lane_addrs.push(addr);
                            mem_write_at(self.buffers, &mut self.shared, addr, val)?;
                        });
                        charge_mem!(NO_DST, [v, NO_DST, NO_DST], gep_ready);
                    }
                    Op::ThreadIdx { dim, d } => {
                        let db = d as usize * nt + wb;
                        let bx = self.launch.block.0;
                        lanes!(|i| {
                            let t = (wb + i) as u32;
                            let (tx, ty) = (t % bx, t / bx);
                            regs[db + i] = RawVal::I32(if dim == Dim::X { tx } else { ty } as i32);
                        });
                        charge_alu!(op);
                    }
                    Op::BlockIdx { dim, d } => {
                        let db = d as usize * nt + wb;
                        let v = RawVal::I32(if dim == Dim::X {
                            self.block_idx.0
                        } else {
                            self.block_idx.1
                        } as i32);
                        lanes!(|i| regs[db + i] = v);
                        charge_alu!(op);
                    }
                    Op::BlockDim { dim, d } => {
                        let db = d as usize * nt + wb;
                        let v = RawVal::I32(if dim == Dim::X {
                            self.launch.block.0
                        } else {
                            self.launch.block.1
                        } as i32);
                        lanes!(|i| regs[db + i] = v);
                        charge_alu!(op);
                    }
                    Op::GridDim { dim, d } => {
                        let db = d as usize * nt + wb;
                        let v = RawVal::I32(if dim == Dim::X {
                            self.launch.grid.0
                        } else {
                            self.launch.grid.1
                        } as i32);
                        lanes!(|i| regs[db + i] = v);
                        charge_alu!(op);
                    }
                    Op::SharedBase { off, d } => {
                        let db = d as usize * nt + wb;
                        let v = RawVal::Ptr(encode_shared(off));
                        lanes!(|i| regs[db + i] = v);
                        charge_alu!(op);
                    }
                    Op::Ballot { d, a } => {
                        // The one warp-wide operation: all active lanes
                        // receive the mask of lanes whose predicate holds.
                        let db = d as usize * nt + wb;
                        let ab = a as usize * nt + wb;
                        let mut ballot = 0u64;
                        lanes!(|i| {
                            if let RawVal::I1(true) = regs[ab + i] {
                                ballot |= 1u64 << i;
                            }
                        });
                        let v = RawVal::I64(ballot as i64);
                        lanes!(|i| regs[db + i] = v);
                        charge_alu!(op);
                    }
                }
            }
        }
    }

    /// Pushes the divergent-branch stack frame: the current entry becomes
    /// the reconvergence continuation, then the else and then arms (then
    /// on top, so it executes first).
    fn diverge(
        &mut self,
        warp: &mut WarpState,
        cur_block: u32,
        t_block: u32,
        e_block: u32,
        m_true: u64,
        m_false: u64,
    ) -> Result<(), SimError> {
        let bk = self.bk;
        let rpc = bk.blocks[cur_block as usize].ipdom;
        if rpc == NO_BLOCK {
            return Err(SimError::MissingIpdom(bk.block_name(cur_block).to_string()));
        }
        let cur = warp.stack.last_mut().expect("entry exists");
        cur.block = rpc;
        cur.inst_idx = bk.blocks[rpc as usize].entry_pc;
        warp.stack.push(StackEntry {
            block: e_block,
            inst_idx: bk.blocks[e_block as usize].entry_pc,
            rpc,
            mask: m_false,
        });
        warp.stack.push(StackEntry {
            block: t_block,
            inst_idx: bk.blocks[t_block as usize].entry_pc,
            rpc,
            mask: m_true,
        });
        if let Some(t) = self.timing.as_deref_mut() {
            let w = (warp.base_thread / self.warp_size) as usize;
            t.diverge(w, rpc);
        }
        Ok(())
    }

    /// Resolves a block's φ batch for the active lanes: bucket lanes by
    /// predecessor, then apply each bucket's flat move list. Falls back to
    /// [`BcEngine::phi_error`] on any defect so the raised error matches
    /// the reference interpreter exactly.
    fn run_phis(
        &mut self,
        warp: &mut WarpState,
        block: u32,
        mask: u64,
        regs: &mut [RawVal],
    ) -> Result<(), SimError> {
        let bk = self.bk;
        let nt = self.threads;
        let blk = bk.blocks[block as usize];
        if blk.phi_start == blk.phi_end {
            return Ok(());
        }
        let edges = &bk.phi_edges[blk.phi_start as usize..blk.phi_end as usize];

        // Bucket active lanes by provenance, lane-ascending.
        let mut buckets = std::mem::take(&mut self.buckets);
        buckets.clear();
        let mut bad = false;
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            let pred = warp.prev[lane as usize];
            bad |= pred == NO_BLOCK;
            match buckets.iter_mut().find(|(p, _)| *p == pred) {
                Some((_, bm)) => *bm |= 1 << lane,
                None => buckets.push((pred, 1 << lane)),
            }
        }
        if !bad {
            for &(pred, _) in &buckets {
                match edges.iter().find(|e| e.pred == pred) {
                    Some(e) if e.complete => {}
                    _ => {
                        bad = true;
                        break;
                    }
                }
            }
        }
        if bad {
            return Err(self.phi_error(warp, block, mask));
        }

        // All edges validated: apply the moves. φ writes of one lane are
        // never read by another (each lane reads its own column), so
        // bucket order does not matter; within a lane, the staged path
        // preserves read-before-write when a φ feeds another φ.
        for &(pred, bmask) in &buckets {
            let e = edges.iter().find(|e| e.pred == pred).expect("validated");
            let moves = &bk.phi_moves[e.m_start as usize..e.m_end as usize];
            if blk.phi_overlap {
                let mut m = bmask;
                while m != 0 {
                    let lane = m.trailing_zeros();
                    m &= m - 1;
                    let t = (warp.base_thread + lane) as usize;
                    self.stage.clear();
                    self.stage
                        .extend(moves.iter().map(|&(_, s)| regs[s as usize * nt + t]));
                    for (&(d, _), &v) in moves.iter().zip(self.stage.iter()) {
                        regs[d as usize * nt + t] = v;
                    }
                }
            } else {
                // Move-major: each move streams contiguous lanes of its
                // source column into its destination column.
                for &(d, s) in moves {
                    let db = d as usize * nt;
                    let sb = s as usize * nt;
                    let mut m = bmask;
                    while m != 0 {
                        let lane = m.trailing_zeros();
                        m &= m - 1;
                        let t = (warp.base_thread + lane) as usize;
                        regs[db + t] = regs[sb + t];
                    }
                }
            }
        }
        // Timing: φs cost nothing but propagate scoreboard readiness. A
        // complete edge lists one move per φ in φ order, so `moves[k]` is φ
        // `k` on every bucket; each φ's readiness is the max over the
        // taken incomings, staged so that a φ sourcing another φ of the
        // same batch reads the pre-batch scoreboard (matching the staged
        // value semantics above).
        if let Some(t) = self.timing.as_deref_mut() {
            let w = (warp.base_thread / self.warp_size) as usize;
            t.phi_begin();
            let first = edges
                .iter()
                .find(|e| e.pred == buckets[0].0)
                .expect("validated");
            let n_phis = (first.m_end - first.m_start) as usize;
            for k in 0..n_phis {
                let mut ready = 0u64;
                let mut dst = 0u32;
                for &(pred, _) in &buckets {
                    let e = edges.iter().find(|e| e.pred == pred).expect("validated");
                    let (d, s) = bk.phi_moves[e.m_start as usize + k];
                    dst = d;
                    ready = ready.max(t.reg_ready(w, s));
                }
                t.phi_stage(dst, ready);
            }
            t.phi_commit(w);
        }
        self.buckets = buckets;
        Ok(())
    }

    /// Reconstructs the exact error the reference interpreter raises for a
    /// defective φ batch, replicating its φ-major, lane-minor scan order
    /// (error path only — never taken by valid kernels).
    fn phi_error(&self, warp: &WarpState, block: u32, mask: u64) -> SimError {
        let bk = self.bk;
        let blk = bk.blocks[block as usize];
        let edges = &bk.phi_edges[blk.phi_start as usize..blk.phi_end as usize];
        let max_k = bk
            .phi_missing
            .iter()
            .filter(|&&(b, _, _)| b == block)
            .map(|&(_, k, _)| k)
            .max()
            .unwrap_or(0);
        for k in 0..=max_k {
            let mut m = mask;
            while m != 0 {
                let lane = m.trailing_zeros();
                m &= m - 1;
                let pred = warp.prev[lane as usize];
                if pred == NO_BLOCK {
                    return SimError::UndefValue(format!(
                        "phi in block {} executed with no predecessor",
                        bk.block_name(block)
                    ));
                }
                let lacks = !edges.iter().any(|e| e.pred == pred)
                    || bk
                        .phi_missing
                        .iter()
                        .any(|&(b, k2, p)| b == block && k2 == k && p == pred);
                if lacks {
                    return SimError::UndefValue(format!(
                        "phi in {} has no incoming for predecessor {}",
                        bk.block_name(block),
                        bk.block_name(pred)
                    ));
                }
            }
        }
        unreachable!("phi_error called without a defective edge")
    }
}

#[cfg(test)]
mod tests {
    use crate::{BytecodeKernel, Gpu, GpuConfig, KernelArg, LaunchConfig};
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type};

    fn diamond() -> Function {
        let mut f = Function::new("d", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(4));
        b.br(c, t, e);
        b.switch_to(t);
        let v1 = b.mul(tid, b.const_i32(2));
        b.jump(x);
        b.switch_to(e);
        let v2 = b.add(tid, b.const_i32(5));
        b.jump(x);
        b.switch_to(x);
        let v = b.phi(Type::I32, &[(t, v1), (e, v2)]);
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(v, p);
        b.ret(None);
        f
    }

    #[test]
    fn bytecode_matches_reference_on_divergent_diamond() {
        let f = diamond();
        let mut gpu_a = Gpu::new(GpuConfig::default());
        let mut gpu_b = Gpu::new(GpuConfig::default());
        let out_a = gpu_a.alloc_i32(&[0; 8]);
        let out_b = gpu_b.alloc_i32(&[0; 8]);
        let cfg = LaunchConfig::linear(1, 8);
        let bk = BytecodeKernel::new(&f);
        let sa = gpu_a.launch_reference(&f, &cfg, &[KernelArg::Buffer(out_a)]);
        let sb = gpu_b.launch_bytecode(&bk, &cfg, &[KernelArg::Buffer(out_b)]);
        assert_eq!(sa, sb);
        assert_eq!(gpu_a.read_i32(out_a), gpu_b.read_i32(out_b));
        assert_eq!(gpu_a.read_i32(out_a), vec![0, 2, 4, 6, 9, 10, 11, 12]);
    }

    #[test]
    fn empty_launch_is_ok() {
        let f = diamond();
        let bk = BytecodeKernel::new(&f);
        let mut gpu = Gpu::new(GpuConfig::default());
        let out = gpu.alloc_i32(&[0; 8]);
        let cfg = LaunchConfig {
            grid: (0, 1),
            block: (8, 1),
        };
        let stats = gpu
            .launch_bytecode(&bk, &cfg, &[KernelArg::Buffer(out)])
            .unwrap();
        assert_eq!(stats.warp_instructions, 0);
    }
}
