//! The original per-lane interpreter, kept as the semantic oracle.
//!
//! It walks the [`Function`] arena directly — borrowing each block's
//! instruction list and each instruction's data, re-matching the opcode
//! and re-tagging every value per lane — which makes it slow but keeps it
//! an independent, easily-auditable implementation of the SIMT semantics.
//! It shares no code with the engine. Its books are per block, not per
//! instruction: one register file indexed instruction-major, and one φ
//! staging and one lane-address buffer reused by every instruction, so a
//! launch allocates the same for a loop of 2 and of 200 trips.
//!
//! [`crate::Gpu::launch_reference`] runs it; the differential test
//! `bytecode_vs_reference` asserts the bytecode engine produces
//! bit-identical buffer contents and [`KernelStats`] on every benchmark
//! kernel (`prop_backends` does the same over random divergent CFGs), and
//! the `interp_throughput` bench measures the engine's speedup against it.

use crate::exec::{arg_value, check_geometry, validate_args, KernelArg, SimError};
use crate::mem::{decode, encode_shared, ByteStore, RawVal};
use crate::stats::KernelStats;
use crate::{GpuConfig, LaunchConfig};
use darm_analysis::{Cfg, PostDomTree};
use darm_ir::cost;
use darm_ir::{BlockId, Dim, Function, InstData, Opcode, Type, Value};

/// Launches `func` with the reference interpreter over `buffers`.
pub(crate) fn launch(
    buffers: &mut Vec<ByteStore>,
    config: &GpuConfig,
    func: &Function,
    cfg: &LaunchConfig,
    args: &[KernelArg],
) -> Result<KernelStats, SimError> {
    check_geometry(config, cfg)?;
    validate_args(func.name(), func.params(), args, buffers.len())?;
    let arg_vals: Vec<RawVal> = args.iter().map(|&arg| arg_value(arg)).collect();

    let cfg_snapshot = Cfg::new(func);
    let pdt = PostDomTree::new(func, &cfg_snapshot);

    // Shared arena layout.
    let mut shared_offsets = Vec::new();
    let mut shared_size = 0u64;
    for arr in func.shared_arrays() {
        shared_offsets.push(shared_size);
        shared_size += arr.size_bytes();
        shared_size = (shared_size + 7) & !7; // 8-byte align
    }

    let mut stats = KernelStats {
        warp_size: config.warp_size,
        ..Default::default()
    };
    let mut budget = config.max_warp_instructions;
    for by in 0..cfg.grid.1 {
        for bx in 0..cfg.grid.0 {
            let mut block_exec = BlockExec {
                buffers,
                warp_size: config.warp_size,
                func,
                pdt: &pdt,
                launch: cfg,
                args: &arg_vals,
                block_idx: (bx, by),
                shared: ByteStore::with_len(shared_size as usize),
                shared_offsets: &shared_offsets,
                stats: KernelStats {
                    warp_size: config.warp_size,
                    ..Default::default()
                },
                budget: &mut budget,
                staged: Vec::new(),
                lane_addrs: Vec::new(),
            };
            block_exec.run()?;
            let s = block_exec.stats;
            stats.merge(&s);
        }
    }
    Ok(stats)
}

#[derive(Debug, Clone)]
struct StackEntry {
    block: BlockId,
    inst_idx: usize,
    rpc: Option<BlockId>,
    mask: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    Running,
    AtBarrier,
    Done,
}

struct WarpState {
    stack: Vec<StackEntry>,
    /// Last block executed, per lane — resolves φ incoming values.
    prev: Vec<Option<BlockId>>,
    status: WarpStatus,
    base_thread: u32,
}

/// One thread block's register file: the value of every instruction for
/// every thread, instruction-major (`inst * threads + thread`), so a
/// warp's lanes of one instruction sit side by side. It is stored in
/// pages of [`Regs::PAGE`] values rather than one allocation: a file of
/// several MiB freed once per block raises glibc's mmap threshold to its
/// size, after which the process keeps that much more heap resident
/// (`decline-big`'s peak RSS read 9 % higher).
struct Regs {
    pages: Vec<Box<[RawVal]>>,
    threads: usize,
}

impl Regs {
    /// Values per page: 64 KiB, under glibc's initial 128 KiB mmap
    /// threshold.
    const PAGE: usize = 4096;

    fn new(n_insts: usize, threads: usize) -> Regs {
        let n_pages = (n_insts * threads).div_ceil(Self::PAGE);
        Regs {
            pages: (0..n_pages)
                .map(|_| vec![RawVal::Undef; Self::PAGE].into_boxed_slice())
                .collect(),
            threads,
        }
    }

    fn get(&self, inst: usize, thread: usize) -> RawVal {
        let i = inst * self.threads + thread;
        self.pages[i / Self::PAGE][i % Self::PAGE]
    }

    fn set(&mut self, inst: usize, thread: usize, v: RawVal) {
        let i = inst * self.threads + thread;
        self.pages[i / Self::PAGE][i % Self::PAGE] = v;
    }
}

struct BlockExec<'a> {
    buffers: &'a mut Vec<ByteStore>,
    warp_size: u32,
    func: &'a Function,
    pdt: &'a PostDomTree,
    launch: &'a LaunchConfig,
    args: &'a [RawVal],
    block_idx: (u32, u32),
    shared: ByteStore,
    shared_offsets: &'a [u64],
    stats: KernelStats,
    budget: &'a mut u64,
    /// A φ batch's `(thread, slot, value)` writes, staged until every φ
    /// of the batch has read its operands.
    staged: Vec<(usize, usize, RawVal)>,
    /// The active lanes' addresses of the memory access being executed.
    lane_addrs: Vec<u64>,
}

impl<'a> BlockExec<'a> {
    #[allow(clippy::needless_range_loop)] // indexing sidesteps a double &mut borrow
    fn run(&mut self) -> Result<(), SimError> {
        let threads = self.launch.threads_per_block() as u32;
        let ws = self.warp_size;
        let n_warps = threads.div_ceil(ws);
        let n_insts = self.func.inst_capacity();
        let mut regs = Regs::new(n_insts, threads as usize);

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
                        block: self.func.entry(),
                        inst_idx: 0,
                        rpc: None,
                        mask,
                    }],
                    prev: vec![None; ws as usize],
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
                    self.run_warp(&mut warps[w], &mut regs)?;
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
            } else if !any_running {
                return Err(SimError::BarrierDeadlock("no runnable warps".to_string()));
            }
        }
    }

    /// Runs one warp until it finishes, reaches a barrier, or diverges into
    /// a state handled on the next scheduler pass.
    fn run_warp(&mut self, warp: &mut WarpState, regs: &mut Regs) -> Result<(), SimError> {
        let func = self.func;
        'outer: loop {
            // Pop entries that already sit at their reconvergence point.
            while let Some(top) = warp.stack.last() {
                if Some(top.block) == top.rpc {
                    warp.stack.pop();
                } else {
                    break;
                }
            }
            let Some(top) = warp.stack.last().cloned() else {
                warp.status = WarpStatus::Done;
                return Ok(());
            };
            let insts = func.insts_of(top.block);
            let mut idx = top.inst_idx;

            // Atomically evaluate the φ batch on block entry.
            if idx == 0 {
                let n_phis = insts
                    .iter()
                    .take_while(|&&i| func.inst(i).opcode.is_phi())
                    .count();
                if n_phis > 0 {
                    self.staged.clear();
                    for &phi in &insts[..n_phis] {
                        let data = func.inst(phi);
                        for lane in 0..self.warp_size {
                            if top.mask & (1 << lane) == 0 {
                                continue;
                            }
                            let thread = (warp.base_thread + lane) as usize;
                            let pred = warp.prev[lane as usize].ok_or_else(|| {
                                SimError::UndefValue(format!(
                                    "phi in block {} executed with no predecessor",
                                    self.func.block_name(top.block)
                                ))
                            })?;
                            let val = data.phi_value_for(pred).ok_or_else(|| {
                                SimError::UndefValue(format!(
                                    "phi in {} has no incoming for predecessor {}",
                                    self.func.block_name(top.block),
                                    self.func.block_name(pred)
                                ))
                            })?;
                            let raw = self.eval(val, regs, thread);
                            self.staged.push((thread, phi.index(), raw));
                        }
                    }
                    for &(thread, slot, raw) in &self.staged {
                        regs.set(slot, thread, raw);
                    }
                    idx = n_phis;
                }
            }

            while idx < insts.len() {
                let id = insts[idx];
                let data = func.inst(id);
                if data.opcode.is_terminator() {
                    self.charge(data, top.mask, &mut []);
                    // Record per-lane provenance before leaving the block.
                    for lane in 0..self.warp_size {
                        if top.mask & (1 << lane) != 0 {
                            warp.prev[lane as usize] = Some(top.block);
                        }
                    }
                    match data.opcode {
                        Opcode::Ret => {
                            warp.stack.pop();
                            continue 'outer;
                        }
                        Opcode::Jump => {
                            self.transition(warp, data.succs[0]);
                            continue 'outer;
                        }
                        Opcode::Br => {
                            let mut m_true = 0u64;
                            let mut m_false = 0u64;
                            for lane in 0..self.warp_size {
                                if top.mask & (1 << lane) == 0 {
                                    continue;
                                }
                                let thread = (warp.base_thread + lane) as usize;
                                match self.eval(data.operands[0], regs, thread) {
                                    RawVal::I1(true) => m_true |= 1 << lane,
                                    RawVal::I1(false) => m_false |= 1 << lane,
                                    _ => {
                                        return Err(SimError::UndefValue(format!(
                                            "branch condition in block {}",
                                            self.func.block_name(top.block)
                                        )))
                                    }
                                }
                            }
                            let (then_bb, else_bb) = (data.succs[0], data.succs[1]);
                            if m_false == 0 {
                                self.transition(warp, then_bb);
                            } else if m_true == 0 {
                                self.transition(warp, else_bb);
                            } else {
                                let rpc = self.pdt.ipdom(top.block).ok_or_else(|| {
                                    SimError::MissingIpdom(
                                        self.func.block_name(top.block).to_string(),
                                    )
                                })?;
                                let cur = warp.stack.last_mut().expect("entry exists");
                                cur.block = rpc;
                                cur.inst_idx = 0;
                                let outer_rpc = Some(rpc);
                                warp.stack.push(StackEntry {
                                    block: else_bb,
                                    inst_idx: 0,
                                    rpc: outer_rpc,
                                    mask: m_false,
                                });
                                warp.stack.push(StackEntry {
                                    block: then_bb,
                                    inst_idx: 0,
                                    rpc: outer_rpc,
                                    mask: m_true,
                                });
                            }
                            continue 'outer;
                        }
                        _ => unreachable!("terminator handled above"),
                    }
                }

                if data.opcode == Opcode::Syncthreads {
                    self.stats.barriers += 1;
                    self.stats.cycles += 1;
                    if top.mask != warp.stack.last().unwrap().mask {
                        return Err(SimError::BarrierDeadlock(
                            "barrier under partial mask".into(),
                        ));
                    }
                    let cur = warp.stack.last_mut().unwrap();
                    cur.inst_idx = idx + 1;
                    warp.status = WarpStatus::AtBarrier;
                    return Ok(());
                }

                // Plain instruction: execute per active lane. Ballot is the
                // one warp-wide operation: all active lanes receive the mask
                // of lanes whose predicate holds.
                let mut lane_addrs = std::mem::take(&mut self.lane_addrs);
                lane_addrs.clear();
                if data.opcode == Opcode::Ballot {
                    let mut ballot = 0u64;
                    for lane in 0..self.warp_size {
                        if top.mask & (1 << lane) == 0 {
                            continue;
                        }
                        let thread = (warp.base_thread + lane) as usize;
                        if let RawVal::I1(true) = self.eval(data.operands[0], regs, thread) {
                            ballot |= 1 << lane;
                        }
                    }
                    for lane in 0..self.warp_size {
                        if top.mask & (1 << lane) != 0 {
                            let thread = (warp.base_thread + lane) as usize;
                            regs.set(id.index(), thread, RawVal::I64(ballot as i64));
                        }
                    }
                } else {
                    for lane in 0..self.warp_size {
                        if top.mask & (1 << lane) == 0 {
                            continue;
                        }
                        let thread = (warp.base_thread + lane) as usize;
                        let result = self.exec_lane(data, regs, thread, &mut lane_addrs)?;
                        if data.ty != Type::Void {
                            regs.set(id.index(), thread, result);
                        }
                    }
                }
                self.charge(data, top.mask, &mut lane_addrs);
                self.lane_addrs = lane_addrs;
                if *self.budget == 0 {
                    return Err(SimError::StepLimit);
                }
                *self.budget -= 1;
                idx += 1;
                let cur = warp.stack.last_mut().unwrap();
                cur.inst_idx = idx;
            }
            // A block must end in a terminator; verify_structure guarantees it.
            unreachable!(
                "fell off the end of block {}",
                self.func.block_name(top.block)
            );
        }
    }

    /// Applies a control transfer for the warp's top-of-stack entry,
    /// popping it if the target is its reconvergence point.
    fn transition(&mut self, warp: &mut WarpState, target: BlockId) {
        let top = warp.stack.last_mut().expect("entry exists");
        if Some(target) == top.rpc {
            warp.stack.pop();
        } else {
            top.block = target;
            top.inst_idx = 0;
        }
    }

    /// Evaluates an SSA value for a thread.
    fn eval(&self, v: Value, regs: &Regs, thread: usize) -> RawVal {
        match v {
            Value::Inst(id) => regs.get(id.index(), thread),
            Value::Param(i) => self.args[i as usize],
            Value::I1(b) => RawVal::I1(b),
            Value::I32(x) => RawVal::I32(x),
            Value::I64(x) => RawVal::I64(x),
            Value::F32Bits(bits) => RawVal::F32(f32::from_bits(bits)),
            Value::Undef(_) => RawVal::Undef,
        }
    }

    /// Executes one non-terminator instruction for one lane.
    fn exec_lane(
        &mut self,
        data: &InstData,
        regs: &Regs,
        thread: usize,
        lane_addrs: &mut Vec<u64>,
    ) -> Result<RawVal, SimError> {
        use Opcode::*;
        // Three operands at most (`select`; φs never get here), as
        // `verify_structure` checks per opcode.
        let mut ops = [RawVal::Undef; 3];
        for (o, &v) in ops.iter_mut().zip(&data.operands) {
            *o = self.eval(v, regs, thread);
        }
        let undef_in = ops[..data.operands.len().min(3)]
            .iter()
            .any(|o| matches!(o, RawVal::Undef));
        let bin_i = |f: fn(i64, i64) -> i64| -> RawVal {
            match (ops[0], ops[1]) {
                (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(f(a as i64, b as i64) as i32),
                (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(f(a, b)),
                (RawVal::I1(a), RawVal::I1(b)) => RawVal::I1(f(a as i64, b as i64) & 1 != 0),
                _ => RawVal::Undef,
            }
        };
        let bin_f = |f: fn(f32, f32) -> f32| -> RawVal {
            match (ops[0], ops[1]) {
                (RawVal::F32(a), RawVal::F32(b)) => RawVal::F32(f(a, b)),
                _ => RawVal::Undef,
            }
        };
        Ok(match data.opcode {
            Add => bin_i(|a, b| a.wrapping_add(b)),
            Sub => bin_i(|a, b| a.wrapping_sub(b)),
            Mul => bin_i(|a, b| a.wrapping_mul(b)),
            SDiv | SRem | UDiv | URem => {
                if undef_in {
                    RawVal::Undef
                } else {
                    let (a, b) = match (ops[0], ops[1]) {
                        (RawVal::I32(a), RawVal::I32(b)) => (a as i64, b as i64),
                        (RawVal::I64(a), RawVal::I64(b)) => (a, b),
                        _ => return Ok(RawVal::Undef),
                    };
                    if b == 0 {
                        return Err(SimError::DivByZero);
                    }
                    let r = match data.opcode {
                        SDiv => a.wrapping_div(b),
                        SRem => a.wrapping_rem(b),
                        UDiv => ((a as u64) / (b as u64)) as i64,
                        URem => ((a as u64) % (b as u64)) as i64,
                        _ => unreachable!(),
                    };
                    match data.ty {
                        Type::I32 => RawVal::I32(r as i32),
                        _ => RawVal::I64(r),
                    }
                }
            }
            And => bin_i(|a, b| a & b),
            Or => bin_i(|a, b| a | b),
            Xor => bin_i(|a, b| a ^ b),
            Shl => match (ops[0], ops[1]) {
                (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(a.wrapping_shl(b as u32)),
                (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(a.wrapping_shl(b as u32)),
                _ => RawVal::Undef,
            },
            LShr => match (ops[0], ops[1]) {
                (RawVal::I32(a), RawVal::I32(b)) => {
                    RawVal::I32(((a as u32).wrapping_shr(b as u32)) as i32)
                }
                (RawVal::I64(a), RawVal::I64(b)) => {
                    RawVal::I64(((a as u64).wrapping_shr(b as u32)) as i64)
                }
                _ => RawVal::Undef,
            },
            AShr => match (ops[0], ops[1]) {
                (RawVal::I32(a), RawVal::I32(b)) => RawVal::I32(a.wrapping_shr(b as u32)),
                (RawVal::I64(a), RawVal::I64(b)) => RawVal::I64(a.wrapping_shr(b as u32)),
                _ => RawVal::Undef,
            },
            FAdd => bin_f(|a, b| a + b),
            FSub => bin_f(|a, b| a - b),
            FMul => bin_f(|a, b| a * b),
            FDiv => bin_f(|a, b| a / b),
            FSqrt => match ops[0] {
                RawVal::F32(a) => RawVal::F32(a.sqrt()),
                _ => RawVal::Undef,
            },
            FAbs => match ops[0] {
                RawVal::F32(a) => RawVal::F32(a.abs()),
                _ => RawVal::Undef,
            },
            FNeg => match ops[0] {
                RawVal::F32(a) => RawVal::F32(-a),
                _ => RawVal::Undef,
            },
            FExp => match ops[0] {
                RawVal::F32(a) => RawVal::F32(a.exp()),
                _ => RawVal::Undef,
            },
            Icmp(pred) => {
                use darm_ir::IcmpPred::*;
                let cmp = |a: i64, b: i64, ua: u64, ub: u64| -> bool {
                    match pred {
                        Eq => a == b,
                        Ne => a != b,
                        Slt => a < b,
                        Sle => a <= b,
                        Sgt => a > b,
                        Sge => a >= b,
                        Ult => ua < ub,
                        Ule => ua <= ub,
                        Ugt => ua > ub,
                        Uge => ua >= ub,
                    }
                };
                match (ops[0], ops[1]) {
                    (RawVal::I32(a), RawVal::I32(b)) => {
                        RawVal::I1(cmp(a as i64, b as i64, a as u32 as u64, b as u32 as u64))
                    }
                    (RawVal::I64(a), RawVal::I64(b)) => RawVal::I1(cmp(a, b, a as u64, b as u64)),
                    (RawVal::I1(a), RawVal::I1(b)) => {
                        RawVal::I1(cmp(a as i64, b as i64, a as u64, b as u64))
                    }
                    (RawVal::Ptr(a), RawVal::Ptr(b)) => RawVal::I1(cmp(a as i64, b as i64, a, b)),
                    _ => RawVal::Undef,
                }
            }
            Fcmp(pred) => {
                use darm_ir::FcmpPred::*;
                match (ops[0], ops[1]) {
                    (RawVal::F32(a), RawVal::F32(b)) => RawVal::I1(match pred {
                        Oeq => a == b,
                        One => a != b,
                        Olt => a < b,
                        Ole => a <= b,
                        Ogt => a > b,
                        Oge => a >= b,
                    }),
                    _ => RawVal::Undef,
                }
            }
            Select => match ops[0] {
                RawVal::I1(true) => ops[1],
                RawVal::I1(false) => ops[2],
                _ => RawVal::Undef,
            },
            Zext | Sext => match ops[0] {
                RawVal::I1(b) => {
                    let x = if data.opcode == Zext {
                        b as i64
                    } else {
                        -(b as i64)
                    };
                    match data.ty {
                        Type::I32 => RawVal::I32(x as i32),
                        Type::I64 => RawVal::I64(x),
                        _ => RawVal::Undef,
                    }
                }
                RawVal::I32(v) => {
                    let x = if data.opcode == Zext {
                        v as u32 as i64
                    } else {
                        v as i64
                    };
                    match data.ty {
                        Type::I64 => RawVal::I64(x),
                        Type::I32 => RawVal::I32(v),
                        _ => RawVal::Undef,
                    }
                }
                _ => RawVal::Undef,
            },
            Trunc => match ops[0] {
                RawVal::I64(v) => match data.ty {
                    Type::I32 => RawVal::I32(v as i32),
                    Type::I1 => RawVal::I1(v & 1 != 0),
                    _ => RawVal::Undef,
                },
                RawVal::I32(v) => match data.ty {
                    Type::I1 => RawVal::I1(v & 1 != 0),
                    _ => RawVal::Undef,
                },
                _ => RawVal::Undef,
            },
            SiToFp => match ops[0] {
                RawVal::I32(v) => RawVal::F32(v as f32),
                RawVal::I64(v) => RawVal::F32(v as f32),
                _ => RawVal::Undef,
            },
            FpToSi => match ops[0] {
                RawVal::F32(v) => match data.ty {
                    Type::I32 => RawVal::I32(v as i32),
                    Type::I64 => RawVal::I64(v as i64),
                    _ => RawVal::Undef,
                },
                _ => RawVal::Undef,
            },
            Gep { elem } => match (ops[0], ops[1].as_i64_index()) {
                (RawVal::Ptr(base), Some(idx)) => {
                    RawVal::Ptr(base.wrapping_add((idx as u64).wrapping_mul(elem.size_bytes())))
                }
                _ => RawVal::Undef,
            },
            Load => {
                let RawVal::Ptr(addr) = ops[0] else {
                    return Err(SimError::UndefValue("load address".into()));
                };
                lane_addrs.push(addr);
                self.mem_read(data.ty, addr)?
            }
            Store => {
                let RawVal::Ptr(addr) = ops[1] else {
                    return Err(SimError::UndefValue("store address".into()));
                };
                if matches!(ops[0], RawVal::Undef) {
                    return Err(SimError::UndefValue("stored value".into()));
                }
                lane_addrs.push(addr);
                self.mem_write(addr, ops[0])?;
                RawVal::Undef
            }
            ThreadIdx(d) => {
                let t = thread as u32;
                let (tx, ty) = (t % self.launch.block.0, t / self.launch.block.0);
                RawVal::I32(if d == Dim::X { tx } else { ty } as i32)
            }
            BlockIdx(d) => RawVal::I32(if d == Dim::X {
                self.block_idx.0
            } else {
                self.block_idx.1
            } as i32),
            BlockDim(d) => RawVal::I32(if d == Dim::X {
                self.launch.block.0
            } else {
                self.launch.block.1
            } as i32),
            GridDim(d) => RawVal::I32(if d == Dim::X {
                self.launch.grid.0
            } else {
                self.launch.grid.1
            } as i32),
            SharedBase(k) => RawVal::Ptr(encode_shared(self.shared_offsets[k as usize])),
            Ballot => unreachable!("ballot is executed warp-wide by the warp loop"),
            Phi => unreachable!("phis are evaluated in a batch at block entry"),
            Br | Jump | Ret | Syncthreads => unreachable!("handled by the warp loop"),
        })
    }

    fn mem_read(&self, ty: Type, addr: u64) -> Result<RawVal, SimError> {
        let (buf, off) = decode(addr);
        let store = match buf {
            Some(b) => self.buffers.get(b.0 as usize).ok_or_else(|| {
                SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}"))
            })?,
            None => &self.shared,
        };
        store.read(ty, off).ok_or_else(|| {
            SimError::OutOfBounds(format!(
                "read of {ty} at offset {off} (len {})",
                store.len()
            ))
        })
    }

    fn mem_write(&mut self, addr: u64, v: RawVal) -> Result<(), SimError> {
        let (buf, off) = decode(addr);
        let store = match buf {
            Some(b) => self.buffers.get_mut(b.0 as usize).ok_or_else(|| {
                SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}"))
            })?,
            None => &mut self.shared,
        };
        store.write(off, v).ok_or_else(|| {
            SimError::OutOfBounds(format!("write at offset {off} (len {})", store.len()))
        })
    }

    /// Charges cycles and updates counters for one warp-instruction issue.
    /// A global access turns `lane_addrs` into its sorted segments.
    fn charge(&mut self, data: &InstData, mask: u64, lane_addrs: &mut [u64]) {
        let active = mask.count_ones() as u64;
        if active == 0 {
            return;
        }
        self.stats.warp_instructions += 1;
        self.stats.thread_instructions += active;
        use Opcode::*;
        match data.opcode {
            Load | Store => {
                // Infer the address space from the encoded addresses (global
                // addresses carry a buffer id in the high bits).
                let is_global = lane_addrs
                    .first()
                    .map(|&a| decode(a).0.is_some())
                    .unwrap_or(false);
                let space = if is_global {
                    darm_ir::AddrSpace::Global
                } else {
                    darm_ir::AddrSpace::Shared
                };
                match space {
                    darm_ir::AddrSpace::Global => {
                        self.stats.global_mem_insts += 1;
                        for a in lane_addrs.iter_mut() {
                            *a /= cost::COALESCE_SEGMENT_BYTES;
                        }
                        lane_addrs.sort_unstable();
                        let n_seg = lane_addrs.len()
                            - lane_addrs.windows(2).filter(|w| w[0] == w[1]).count();
                        let n_seg = n_seg.max(1) as u64;
                        self.stats.global_transactions += n_seg;
                        self.stats.cycles += cost::GLOBAL_MEM_LATENCY
                            + (n_seg - 1) * cost::GLOBAL_TRANSACTION_LATENCY;
                    }
                    darm_ir::AddrSpace::Shared => {
                        self.stats.shared_mem_insts += 1;
                        // Bank-conflict model: accesses to distinct words in
                        // the same bank serialize; broadcasts do not. The
                        // words, sorted by bank and then by word, put each
                        // bank's distinct words in one run.
                        for a in lane_addrs.iter_mut() {
                            *a /= cost::SHARED_BANK_WORD_BYTES;
                        }
                        lane_addrs.sort_unstable_by_key(|&w| (w % cost::SHARED_BANKS, w));
                        let (mut degree, mut run) = (1, 1);
                        for pair in lane_addrs.windows(2) {
                            let bank = |w: u64| w % cost::SHARED_BANKS;
                            if bank(pair[0]) != bank(pair[1]) {
                                run = 1;
                            } else if pair[0] != pair[1] {
                                run += 1;
                            }
                            degree = degree.max(run);
                        }
                        self.stats.shared_bank_conflicts += degree - 1;
                        self.stats.cycles += cost::SHARED_MEM_LATENCY
                            + (degree - 1) * cost::SHARED_BANK_CONFLICT_PENALTY;
                    }
                }
            }
            Phi => {}
            Syncthreads => {}
            Br | Jump | Ret => {
                self.stats.cycles += cost::latency(data.opcode, None);
            }
            _ => {
                self.stats.cycles += cost::latency(data.opcode, None);
                self.stats.alu_issues += 1;
                self.stats.alu_active_lanes += active;
            }
        }
    }
}
