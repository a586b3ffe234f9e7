//! Execute loop for the typed register bytecode ([`crate::BytecodeKernel`]).
//!
//! Same machine as the [`crate::reference`] interpreter — lockstep warps,
//! per-warp IPDOM reconvergence stack, one shared instruction budget — but
//! the inner loop is a single `match` on a dense
//! [`Op`](crate::bytecode::Op) discriminant per *warp* instruction, over a
//! register file that holds no tags.
//!
//! # Cells and definedness
//!
//! `regs[slot * threads + thread]` is one untagged `u64` **cell** per lane
//! (encoding in the [`crate::bytecode`] module docs), so the lanes of one
//! warp are a contiguous *column* of each operand. `defs[slot * n_warps +
//! warp]` is one **definedness word** per column: bit `l` set when lane `l`
//! holds a value rather than `undef`. An op writes cells for the active
//! lanes only and merges definedness in one word operation,
//! `def[d] = (def[d] & !mask) | (f(def[a], def[b]) & mask)` — for almost
//! every op `f` is `&`. Between thread blocks only the program slots'
//! definedness words are cleared; stale cells are unreachable behind a zero
//! bit, and constant/parameter columns are written once per launch.
//!
//! # Whole-warp ops and per-lane ops
//!
//! ALU, compare, select, convert and address ops go through `map`: when
//! the active lanes are one contiguous run (full warps, tail warps, `tid <
//! k` arms — the common case) it is a counted loop over plain integers or
//! floats on three disjoint slices, which the compiler unrolls and
//! vectorises; otherwise it walks the set bits of the mask, still untagged.
//! φ moves copy column runs the same way. `br`, the fused
//! [`Op::CmpBr`](crate::bytecode::Op::CmpBr) and `ballot` build their lane
//! masks from the cells of the active span — one byte per lane, packed
//! eight lanes per multiply — and the condition's definedness word.
//!
//! The per-warp books are words too. Where each lane came from is a short
//! list of `(block, lane mask)` groups that a terminator updates with a few
//! mask operations, and a φ batch buckets its lanes by intersecting those
//! groups with the entry mask. A memory access gathers its addresses into a
//! fixed array and passes one pre-pass — every lane defined as a word, one
//! store resolved, one bounds check folded over the offsets — before a
//! typed loop with no per-lane check; the coalescing and bank-conflict model
//! ([`KernelStats::charge_mem_access`]) reads the same array, and counts
//! bank conflicts without sorting.
//!
//! Per-lane code remains only where the model is per-lane: an access that
//! fails the pre-pass is walked lane by lane to find the reference's first
//! failing lane (and to make the stores before it), integer division walks
//! lanes (a zero divisor is an error only in a lane whose operands are
//! defined), and so do `tid`, the sparse-mask walk of `map` and the φ error
//! path. The fused gep+memory ops run in two phases, so a budget exhaustion
//! still lands between the address computation and the access.
//!
//! Control is unchanged from the tagged engine it replaces: pre-patched
//! resume pcs keep uniform `jump`/`br` inside the dispatch loop, the stack
//! is written only on divergence, reconvergence pops and barriers, φ
//! batches resolve through per-predecessor move tables, and fused ops
//! charge exactly what the unfused pair would. The differential tests hold
//! buffers, stats and errors — and their order — bit-identical to the
//! reference interpreter.

use crate::bytecode::{BytecodeKernel, Cvt, Op, Uniform, BLOCK_ENTRY, NO_BLOCK, NO_DST, W};
use crate::exec::{arg_value, check_geometry, validate_args, KernelArg, SimError};
use crate::mem::{decode, encode_shared, ByteStore, OFFSET_MASK};
use crate::stats::KernelStats;
use crate::timing::{TimingState, WarpClock};
use crate::{GpuConfig, LaunchConfig};
use darm_ir::{Dim, FcmpPred, IcmpPred, Opcode, Type};

/// Runs a bytecode kernel over the launch geometry. Entry point for
/// [`crate::Gpu::launch_bytecode`].
///
/// Everything the launch keeps is allocated here, once, and reused by
/// every thread block: the register file and its definedness words, the
/// warps with their reconvergence stacks and provenance lists, the shared
/// arena and the engine's scratch — a fixed handful of allocations
/// whatever the block count, warp count or instruction count
/// (`tests/launch_allocs.rs` counts).
pub(crate) fn launch(
    buffers: &mut Vec<ByteStore>,
    config: &GpuConfig,
    bk: &BytecodeKernel,
    cfg: &LaunchConfig,
    args: &[KernelArg],
) -> Result<KernelStats, SimError> {
    check_geometry(config, cfg)?;
    validate_args(bk.name(), &bk.params, args, buffers.len())?;
    let ws = config.warp_size;
    let mut stats = KernelStats {
        warp_size: ws,
        ..Default::default()
    };
    let mut budget = config.max_warp_instructions;
    let threads = cfg.threads_per_block() as usize;
    let n_warps = threads.div_ceil(ws as usize);
    // Timing observer, allocated only when enabled — the engine sees `None`
    // otherwise and pays one predictable branch per charge.
    let mut timing = config
        .timing
        .enabled
        .then(|| TimingState::new(config.timing, n_warps, bk.n_slots, bk.max_phis as usize));
    let n = bk.n_slots as usize;
    // One slot-major register file and its definedness words, reused per
    // block. The constant and parameter slots sit above the
    // program-writable prefix and no op writes them, so they are
    // materialized once here; the always-undefined slot simply keeps its
    // zero definedness.
    let mut file = vec![0u64; (threads + n_warps) * n];
    let (regs, defs) = file.split_at_mut(threads * n);
    let mut materialize = |slot: u32, cell: u64| {
        let s = slot as usize;
        regs[s * threads..(s + 1) * threads].fill(cell);
        defs[s * n_warps..(s + 1) * n_warps].fill(u64::MAX);
    };
    for &(s, cell) in &bk.consts {
        materialize(s, cell);
    }
    for &(s, pi) in &bk.param_slots {
        let cell = arg_value(args[pi as usize]).cell();
        materialize(s, cell.expect("validated arguments are defined"));
    }
    // The warps' books. A divergent branch splits its entry's lanes into
    // two non-empty halves, and an entry leaves the stack before the one
    // it split from: a stack holds one continuation and at most one
    // pending arm per split along the path to its top, and a path of
    // `lanes` lanes splits at most `lanes - 1` times, so `2 · lanes - 1`
    // entries bound it. Provenance groups are disjoint and non-empty: at
    // most one per lane, and none for a φ-free kernel, which reads none.
    // A φ batch's buckets are provenance groups met by the entry mask, so
    // their list is one more of the same length, after the warps'.
    let stack_len = 2 * ws as usize;
    let group_len = if bk.track_prev { ws as usize } else { 0 };
    let mut stacks = vec![StackEntry::default(); n_warps * stack_len];
    let mut groups = vec![(0, 0u64); (n_warps + 1) * group_len];
    let (buckets, groups) = groups.split_at_mut(group_len);
    let (mut stacks_rest, mut groups_rest) = (&mut stacks[..], groups);
    let mut warps = Vec::with_capacity(n_warps);
    for w in 0..n_warps as u32 {
        let (stack, rest) = std::mem::take(&mut stacks_rest).split_at_mut(stack_len);
        stacks_rest = rest;
        let (prev, rest) = std::mem::take(&mut groups_rest).split_at_mut(group_len);
        groups_rest = rest;
        warps.push(WarpState {
            stack: Books::new(stack),
            prev: Books::new(prev),
            status: WarpStatus::Done,
            base_thread: w * ws,
        });
    }
    // Only a block whose φ moves overlap stages them: a definedness word
    // and at most one cell per lane for each move of one edge.
    let staged = bk.blocks.iter().any(|b| b.phi_overlap);
    let mut engine = BcEngine {
        buffers,
        warp_size: ws,
        bk,
        launch: cfg,
        block_idx: (0, 0),
        shared: ByteStore::with_len(bk.shared_size as usize),
        stats: KernelStats::default(),
        budget: &mut budget,
        threads,
        n_warps,
        addrs: [0; 64],
        gep_cells: [0; 64],
        scratch: Vec::with_capacity(ws as usize),
        buckets: Books::new(buckets),
        stage: Vec::with_capacity(if staged {
            bk.max_phis as usize * (1 + ws as usize)
        } else {
            0
        }),
    };
    for by in 0..cfg.grid.1 {
        for bx in 0..cfg.grid.0 {
            defs[..bk.program_slots as usize * n_warps].fill(0);
            if (bx, by) != (0, 0) {
                engine.shared.bytes_mut().fill(0);
            }
            engine.block_idx = (bx, by);
            engine.stats = KernelStats {
                warp_size: ws,
                ..Default::default()
            };
            engine.run(&mut warps, regs, defs, timing.as_mut())?;
            if let Some(t) = timing.as_mut() {
                t.flush_block(&mut engine.stats);
            }
            stats.merge(&engine.stats);
        }
    }
    Ok(stats)
}

/// A list in fixed storage: one share of a table the launch allocates
/// once for all its warps and blocks (a warp's reconvergence stack or
/// provenance groups, or the φ buckets). Dereferences to the entries in
/// use; a push past the storage panics, as the bounds at [`launch`] rule
/// out.
struct Books<'b, T> {
    slots: &'b mut [T],
    len: usize,
}

impl<'b, T: Copy> Books<'b, T> {
    fn new(slots: &'b mut [T]) -> Self {
        Books { slots, len: 0 }
    }

    fn push(&mut self, x: T) {
        self.slots[self.len] = x;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<T> {
        self.len = self.len.checked_sub(1)?;
        Some(self.slots[self.len])
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps the entries `keep` returns true for (after it may have
    /// changed them), in order.
    fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        let mut kept = 0;
        for i in 0..self.len {
            let mut x = self.slots[i];
            if keep(&mut x) {
                self.slots[kept] = x;
                kept += 1;
            }
        }
        self.len = kept;
    }
}

impl<T> Default for Books<'_, T> {
    fn default() -> Self {
        Books {
            slots: &mut [],
            len: 0,
        }
    }
}

impl<T> std::ops::Deref for Books<'_, T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.slots[..self.len]
    }
}

impl<T> std::ops::DerefMut for Books<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.slots[..self.len]
    }
}

/// One IPDOM reconvergence-stack entry.
#[derive(Debug, Clone, Copy, Default)]
struct StackEntry {
    /// Dense block index.
    block: u32,
    /// Absolute op index, or [`BLOCK_ENTRY`] when the block's φ batch has
    /// not run yet.
    inst_idx: u32,
    /// Reconvergence block (dense), or [`NO_BLOCK`].
    rpc: u32,
    mask: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpStatus {
    Running,
    AtBarrier,
    Done,
}

struct WarpState<'b> {
    stack: Books<'b, StackEntry>,
    /// The last block each lane executed, as `(dense block, lane mask)`
    /// groups — resolves φ incomings. The masks are disjoint and non-empty
    /// and the blocks distinct, so there are at most as many groups as
    /// lanes (the storage); a lane in no group has executed no terminator
    /// yet.
    prev: Books<'b, (u32, u64)>,
    status: WarpStatus,
    base_thread: u32,
}

/// The active lanes of one op, relative to the first of them: the span is
/// `n` lanes long, `bits` has bit `i` set when lane `first + i` is active
/// (bit 0 always is), and `dense` says every lane of the span is.
#[derive(Debug, Clone, Copy)]
struct Run {
    n: usize,
    bits: u64,
    dense: bool,
}

impl Run {
    /// The first active lane of `mask` and the run from there. Masks on the
    /// stack and φ buckets are never empty; the clamps only keep an empty
    /// one from overflowing the arithmetic.
    fn of(mask: u64) -> (usize, Run) {
        let first = mask.trailing_zeros().min(63) as usize;
        let bits = mask >> first;
        let run = Run {
            n: 64 - (bits | 1).leading_zeros() as usize,
            bits,
            dense: bits & bits.wrapping_add(1) == 0,
        };
        (first, run)
    }
}

/// Borrows the `n`-cell column starting at `d` mutably and the columns at
/// `srcs` shared — `None` when a source overlaps the destination, which no
/// SSA-valid kernel does (distinct slots have disjoint columns).
#[inline(always)]
fn split_cols<const K: usize>(
    regs: &mut [u64],
    d: usize,
    srcs: [usize; K],
    n: usize,
) -> Option<(&mut [u64], [&[u64]; K])> {
    let (lo, rest) = regs.split_at_mut(d);
    let (dc, hi) = rest.split_at_mut(n);
    let (lo, hi): (&[u64], &[u64]) = (lo, hi);
    let mut out = [&lo[..0]; K];
    for (o, s) in out.iter_mut().zip(srcs) {
        *o = if s + n <= d {
            &lo[s..s + n]
        } else if s >= d + n {
            &hi[s - d - n..s - d]
        } else {
            return None;
        };
    }
    Some((dc, out))
}

/// `regs[d + i] = f(regs[srcs[..] + i])` for every active lane `i` of
/// `run`: a counted loop over disjoint slices when the run is dense, a walk
/// over the set bits otherwise (reading a lane's sources before writing its
/// destination, so it is also the fallback for overlapping columns).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn map<const K: usize>(
    regs: &mut [u64],
    run: Run,
    d: usize,
    srcs: [usize; K],
    f: impl Fn([u64; K]) -> u64,
) {
    if run.dense {
        if let Some((dc, sc)) = split_cols(regs, d, srcs, run.n) {
            // Every slice re-cut to the one `n` and indexed by the one
            // `i`: the form whose bounds checks the compiler drops (an
            // `enumerate` over `dc` keeps one per source) and vectorises.
            let n = run.n;
            let (dc, sc) = (&mut dc[..n], sc.map(|s| &s[..n]));
            for i in 0..n {
                dc[i] = f(std::array::from_fn(|k| sc[k][i]));
            }
            return;
        }
    }
    let mut m = run.bits;
    while m != 0 {
        let i = m.trailing_zeros() as usize;
        m &= m - 1;
        regs[d + i] = f(std::array::from_fn(|k| regs[srcs[k] + i]));
    }
}

/// Bit `i` of the result is `f` of cell `i` of each column, over a whole
/// `n`-lane span (callers mask out inactive and undefined lanes).
///
/// The span is evaluated into one byte per lane — a counted loop the
/// compiler vectorises — and each eight bytes are packed into eight bits by
/// one multiply: with every byte 0 or 1, `x * 0x0102_0408_1020_4080` puts
/// byte `j`'s bit at bit `56 + j` and every other partial product at a
/// distinct bit below 56 or past 63, so nothing carries into the top byte.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn bits<const K: usize>(
    regs: &[u64],
    cols: [usize; K],
    n: usize,
    f: impl Fn([u64; K]) -> bool,
) -> u64 {
    let cols = cols.map(|c| &regs[c..c + n]);
    let mut lane = [0u8; 64];
    let out = &mut lane[..n];
    for i in 0..n {
        out[i] = f(std::array::from_fn(|k| cols[k][i])) as u8;
    }
    let mut t = 0u64;
    for (c, chunk) in lane.chunks_exact(8).take(n.div_ceil(8)).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("eight bytes"));
        t |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * c);
    }
    t
}

#[inline(always)]
fn fl(cell: u64) -> f32 {
    f32::from_bits(cell as u32)
}

#[inline(always)]
fn fc(v: f32) -> u64 {
    v.to_bits() as u64
}

/// Sign-extends the low half of a cell — the `i32` normal form.
#[inline(always)]
fn sx(cell: u64) -> u64 {
    cell as i32 as i64 as u64
}

/// Typed read from a global buffer or the block's shared arena (the
/// reference interpreter keeps its own copy).
#[inline(always)]
fn mem_read(
    buffers: &[ByteStore],
    shared: &ByteStore,
    ty: Type,
    addr: u64,
) -> Result<u64, SimError> {
    let (buf, off) = decode(addr);
    let store = match buf {
        Some(b) => buffers
            .get(b.0 as usize)
            .ok_or_else(|| SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}")))?,
        None => shared,
    };
    store.read_cell(ty, off).ok_or_else(|| {
        SimError::OutOfBounds(format!(
            "read of {ty} at offset {off} (len {})",
            store.len()
        ))
    })
}

/// Typed write to a global buffer or the block's shared arena.
#[inline(always)]
fn mem_write(
    buffers: &mut [ByteStore],
    shared: &mut ByteStore,
    ty: Type,
    addr: u64,
    cell: u64,
) -> Result<(), SimError> {
    let (buf, off) = decode(addr);
    let store = match buf {
        Some(b) => buffers
            .get_mut(b.0 as usize)
            .ok_or_else(|| SimError::OutOfBounds(format!("unknown buffer in address {addr:#x}")))?,
        None => shared,
    };
    store.write_cell(ty, off, cell).ok_or_else(|| {
        SimError::OutOfBounds(format!("write at offset {off} (len {})", store.len()))
    })
}

/// The pre-pass of a warp access whose lanes are all defined: the one
/// store every address of `addrs` names, when each lane's `[off, off +
/// size)` lies inside it — that is, when no offset exceeds the store's
/// length minus the access size. `None` (stores mixed in one access, an
/// unknown buffer, a lane out of bounds, a `void` access) sends the access
/// down the per-lane walk, which raises the reference's error.
///
/// Both tests fold into words with no compare per lane: the tags' XOR
/// with the first lane's, and `last - off`, whose sign bit is set exactly
/// when `off > last` (an offset is below 2^48, a length far below 2^63).
#[inline(always)]
fn resolve<'s>(
    buffers: &'s mut [ByteStore],
    shared: &'s mut ByteStore,
    ty: Type,
    addrs: &[u64],
) -> Option<&'s mut ByteStore> {
    let size = match ty {
        Type::I1 => 1,
        Type::I32 | Type::F32 => 4,
        Type::I64 | Type::Ptr(_) => 8,
        Type::Void => return None,
    };
    let first = *addrs.first()?;
    let store = match first >> 48 {
        0 => shared,
        tag => buffers.get_mut(tag as usize - 1)?,
    };
    let last = (store.len() as u64).checked_sub(size)?;
    let (mut diff, mut over) = (0u64, 0u64);
    for &a in addrs {
        diff |= a ^ first;
        over |= last.wrapping_sub(a & OFFSET_MASK);
    }
    (diff >> 48 == 0 && over >> 63 == 0).then_some(store)
}

/// Calls `f(k, i)` for each active lane of `run`, in lane order: `k` is
/// the lane's rank among the active lanes (its index into a gathered
/// address list), `i` its offset into the span.
#[inline(always)]
fn ranked(run: Run, mut f: impl FnMut(usize, usize)) {
    if run.dense {
        for i in 0..run.n {
            f(i, i);
        }
    } else {
        let (mut m, mut k) = (run.bits, 0);
        while m != 0 {
            f(k, m.trailing_zeros() as usize);
            m &= m - 1;
            k += 1;
        }
    }
}

/// The `N` bytes at the offset of `addr`, which [`resolve`] checked.
#[inline(always)]
fn at<const N: usize>(bytes: &[u8], addr: u64) -> &[u8; N] {
    let off = (addr & OFFSET_MASK) as usize;
    bytes[off..off + N].try_into().expect("N bytes")
}

/// The typed loop of a load that passed [`resolve`]: `out[i]` (the
/// destination column, by span offset) gets the cell at `addrs[k]` —
/// [`ByteStore::read_cell`] with the type matched once per access.
#[inline(always)]
fn load_cells(bytes: &[u8], ty: Type, addrs: &[u64], run: Run, out: &mut [u64]) {
    match ty {
        Type::I1 => ranked(run, |k, i| {
            out[i] = (at::<1>(bytes, addrs[k])[0] != 0) as u64
        }),
        Type::I32 => ranked(run, |k, i| {
            out[i] = i32::from_le_bytes(*at(bytes, addrs[k])) as i64 as u64;
        }),
        Type::F32 => ranked(run, |k, i| {
            out[i] = u32::from_le_bytes(*at(bytes, addrs[k])) as u64;
        }),
        Type::I64 | Type::Ptr(_) => ranked(run, |k, i| {
            out[i] = u64::from_le_bytes(*at(bytes, addrs[k]));
        }),
        Type::Void => unreachable!("resolve refuses a void access"),
    }
}

/// The typed loop of a store that passed [`resolve`]:
/// [`ByteStore::write_cell`] of `vals[i]` at `addrs[k]`, in lane order
/// (a later lane's store to the same bytes wins, as in the reference).
#[inline(always)]
fn store_cells(bytes: &mut [u8], ty: Type, addrs: &[u64], run: Run, vals: &[u64]) {
    let mut put = |addr: u64, b: &[u8]| {
        let off = (addr & OFFSET_MASK) as usize;
        bytes[off..off + b.len()].copy_from_slice(b);
    };
    match ty {
        Type::I1 => ranked(run, |k, i| put(addrs[k], &[vals[i] as u8])),
        Type::I32 | Type::F32 => ranked(run, |k, i| {
            put(addrs[k], &(vals[i] as u32).to_le_bytes());
        }),
        Type::I64 | Type::Ptr(_) => ranked(run, |k, i| put(addrs[k], &vals[i].to_le_bytes())),
        Type::Void => unreachable!("resolve refuses a void access"),
    }
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
    /// Threads per block — the stride between register-file columns.
    threads: usize,
    /// Warps per block — the stride between definedness words.
    n_warps: usize,
    /// The current memory access's addresses, one per active lane in lane
    /// order (`addrs[..active]`).
    addrs: [u64; 64],
    /// Addresses computed by the gep half of a fused gep+mem op, by lane of
    /// the active span (the address register itself may be elided).
    gep_cells: [u64; 64],
    /// Scratch for the coalescing / bank-conflict model.
    scratch: Vec<u64>,
    /// Scratch for φ resolution: `(edge, lane mask)` buckets, the edge an
    /// index into the block's φ edges.
    buckets: Books<'a, (u32, u64)>,
    /// Scratch for the staged (overlapping) φ move path.
    stage: Vec<u64>,
}

impl<'a> BcEngine<'a> {
    /// Runs the block. `timing` is the cycle-level observer
    /// ([`crate::timing`]), `None` unless [`crate::TimingConfig::enabled`]
    /// — pure observation either way.
    #[allow(clippy::needless_range_loop)] // indexing sidesteps a double &mut borrow
    fn run(
        &mut self,
        warps: &mut [WarpState<'_>],
        regs: &mut [u64],
        defs: &mut [u64],
        mut timing: Option<&mut TimingState>,
    ) -> Result<(), SimError> {
        let threads = self.launch.threads_per_block() as u32;
        let ws = self.warp_size;
        let entry_pc = self.bk.blocks[self.bk.entry as usize].entry_pc;
        for warp in warps.iter_mut() {
            let lanes = ws.min(threads - warp.base_thread);
            warp.stack.clear();
            warp.stack.push(StackEntry {
                block: self.bk.entry,
                inst_idx: entry_pc,
                rpc: NO_BLOCK,
                // `lanes` is 1..=64: `check_geometry` held.
                mask: u64::MAX >> (64 - lanes),
            });
            warp.prev.clear();
            warp.status = WarpStatus::Running;
        }

        loop {
            let mut any_running = false;
            for w in 0..warps.len() {
                if warps[w].status == WarpStatus::Running {
                    any_running = true;
                    self.run_warp(&mut warps[w], regs, defs, timing.as_deref_mut())?;
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
                for w in warps.iter_mut() {
                    w.status = WarpStatus::Running;
                }
                if let Some(t) = timing.as_deref_mut() {
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
    fn run_warp(
        &mut self,
        warp: &mut WarpState<'_>,
        regs: &mut [u64],
        defs: &mut [u64],
        timing: Option<&mut TimingState>,
    ) -> Result<(), SimError> {
        let bk = self.bk;
        let nt = self.threads;
        let nw = self.n_warps;
        let wb = warp.base_thread as usize;
        // Warp index within the block: the definedness-word column, and the
        // timing observer's warp.
        let w_idx = (warp.base_thread / self.warp_size) as usize;
        let mut clock = timing.map(|t| t.clock(w_idx));
        // The per-op tables, cut to the code's length: one bounds check at
        // dispatch covers every read of them by `pc`. An untimed run reads
        // no timing record, so it never builds them.
        let code = &bk.code[..];
        let lats = &bk.lats[..code.len()];
        let recs = match clock {
            Some(_) => &bk.timing()[..code.len()],
            None => &[],
        };
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
                    if let Some(t) = clock.as_mut() {
                        t.frame_pop(!warp.stack.is_empty());
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
                self.run_phis(warp, cur_block, mask, regs, defs, clock.as_mut())?;
                pc = bk.blocks[cur_block as usize].first;
            }

            // The active span: lanes `lo .. lo + run.n` of the warp.
            let (lo, run) = Run::of(mask);
            // First cell of slot `s`'s column for the active span.
            macro_rules! col {
                ($s:expr) => {
                    $s as usize * nt + wb + lo
                };
            }
            // Definedness word of slot `s` for this warp.
            macro_rules! def {
                ($s:expr) => {
                    defs[$s as usize * nw + w_idx]
                };
            }
            // The active lanes of slot `d` become defined where `v` says.
            macro_rules! set_def {
                ($d:expr, $v:expr) => {{
                    let v: u64 = $v;
                    let word = &mut def!($d);
                    *word = (*word & !mask) | (v & mask);
                }};
            }
            // Iterates the active lanes, binding the offset into the span
            // (what to add to `col!`); the warp lane is `lo + i`.
            macro_rules! lanes {
                (|$i:ident| $body:expr) => {{
                    if run.dense {
                        for $i in 0..run.n {
                            $body
                        }
                    } else {
                        let mut m = run.bits;
                        while m != 0 {
                            let $i = m.trailing_zeros() as usize;
                            m &= m - 1;
                            $body
                        }
                    }
                }};
            }
            // A whole-warp value op: cells through `map`, defined where
            // every source is.
            macro_rules! alu {
                ($d:expr, [$($s:expr),*], $f:expr) => {{
                    map(regs, run, col!($d), [$(col!($s)),*], $f);
                    set_def!($d, u64::MAX $(& def!($s))*);
                }};
            }
            // Integer op whose result is renormalized to its static width.
            macro_rules! alu_w {
                ($w:expr, $d:expr, $a:expr, $b:expr, $f:expr) => {
                    match $w {
                        W::I64 => alu!($d, [$a, $b], |[x, y]| $f(x, y)),
                        W::I32 => alu!($d, [$a, $b], |[x, y]| sx($f(x, y))),
                        W::I1 => alu!($d, [$a, $b], |[x, y]| $f(x, y) & 1),
                    }
                };
            }
            // `$go!(f)` with `f` the predicate's compare on two cells,
            // hoisting the predicate match out of the lane loop.
            macro_rules! with_icmp {
                ($p:expr, $go:ident) => {
                    match $p {
                        IcmpPred::Eq => $go!(|x: u64, y: u64| x == y),
                        IcmpPred::Ne => $go!(|x: u64, y: u64| x != y),
                        IcmpPred::Slt => $go!(|x: u64, y: u64| (x as i64) < (y as i64)),
                        IcmpPred::Sle => $go!(|x: u64, y: u64| (x as i64) <= (y as i64)),
                        IcmpPred::Sgt => $go!(|x: u64, y: u64| (x as i64) > (y as i64)),
                        IcmpPred::Sge => $go!(|x: u64, y: u64| (x as i64) >= (y as i64)),
                        IcmpPred::Ult => $go!(|x: u64, y: u64| x < y),
                        IcmpPred::Ule => $go!(|x: u64, y: u64| x <= y),
                        IcmpPred::Ugt => $go!(|x: u64, y: u64| x > y),
                        IcmpPred::Uge => $go!(|x: u64, y: u64| x >= y),
                    }
                };
            }
            // The gep half of a fused gep+mem op: every address of the
            // span into `gep_cells` (and the register, when something else
            // reads it), charged exactly as the unfused `Gep` — so a
            // StepLimit fires before any memory traffic. The op's latency
            // table entry covers only this half, its timing record's
            // `first` issue too. Yields the address definedness.
            macro_rules! gep_half {
                ($elem:expr, $gd:expr, $ga:expr, $gb:expr) => {{
                    let (ac, bc) = (col!($ga), col!($gb));
                    let (ac, bc) = (&regs[ac..ac + run.n], &regs[bc..bc + run.n]);
                    for ((out, &p), &i) in self.gep_cells.iter_mut().zip(ac).zip(bc) {
                        *out = p.wrapping_add(i.wrapping_mul($elem));
                    }
                    let gdef = def!($ga) & def!($gb);
                    if $gd != NO_DST {
                        let gc = col!($gd);
                        lanes!(|i| regs[gc + i] = self.gep_cells[i]);
                        set_def!($gd, gdef);
                    }
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    l_cycles += lats[pc as usize];
                    l_alu_issues += 1;
                    l_alu_active += active;
                    if let Some(t) = clock.as_mut() {
                        t.issue(active as u32, &recs[pc as usize].first);
                    }
                    if l_budget == 0 {
                        return Err(SimError::StepLimit);
                    }
                    l_budget -= 1;
                    gdef
                }};
            }
            // Same for a memory op: the cost model reads `addrs` and
            // charges `self.stats` directly, so the locals flush first.
            // `$half` names the access's issue in the op's timing record:
            // `first` unfused, `second` behind a fused gep.
            macro_rules! charge_mem {
                ($half:ident) => {{
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    flush!();
                    let (is_global, extra) = self
                        .stats
                        .charge_mem_access(&self.addrs[..active as usize], &mut self.scratch);
                    if let Some(t) = clock.as_mut() {
                        let rec = &recs[pc as usize].$half;
                        t.mem_issue(active as u32, rec, is_global, extra);
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
                () => {{
                    l_warp_insts += 1;
                    l_thread_insts += active;
                    l_cycles += lats[pc as usize];
                    if let Some(t) = clock.as_mut() {
                        t.issue(active as u32, &recs[pc as usize].first);
                    }
                }};
            }
            // Record provenance before leaving a block (skipped entirely
            // for φ-free kernels — nothing ever reads it): the active lanes
            // leave every other group and join `cur_block`'s. A lone group
            // inside the mask — a warp that moves as one — is relabelled.
            macro_rules! record_prev {
                () => {{
                    if bk.track_prev {
                        match &mut warp.prev[..] {
                            [(b, m)] if *m & !mask == 0 => (*b, *m) = (cur_block, mask),
                            _ => {
                                let mut joined = false;
                                warp.prev.retain_mut(|(b, m)| {
                                    if *b == cur_block {
                                        *m |= mask;
                                        joined = true;
                                    } else {
                                        *m &= !mask;
                                    }
                                    *m != 0
                                });
                                if !joined {
                                    warp.prev.push((cur_block, mask));
                                }
                            }
                        }
                    }
                }};
            }
            // Leave the block along a two-way branch whose active lanes
            // split into `$m_true`/`$m_false`.
            macro_rules! branch {
                ($m_true:expr, $m_false:expr, $t:expr, $e:expr) => {{
                    let (m_true, m_false): (u64, u64) = ($m_true, $m_false);
                    if m_false == 0 || m_true == 0 {
                        let (tb, tp) = if m_false == 0 { $t } else { $e };
                        if tb == top.rpc {
                            warp.stack.pop();
                            if let Some(t) = clock.as_mut() {
                                t.frame_pop(!warp.stack.is_empty());
                            }
                            continue 'outer;
                        }
                        cur_block = tb;
                        if tp == BLOCK_ENTRY {
                            self.run_phis(warp, cur_block, mask, regs, defs, clock.as_mut())?;
                            pc = bk.blocks[cur_block as usize].first;
                        } else {
                            pc = tp;
                        }
                    } else {
                        self.diverge(warp, cur_block, $t.0, $e.0, m_true, m_false)?;
                        if let Some(t) = clock.as_mut() {
                            t.diverge();
                        }
                        continue 'outer;
                    }
                }};
            }

            // The access half of a load or store. The active lanes'
            // addresses (`$src`, by span offset) are gathered into `addrs`;
            // a pre-pass — definedness as a word, then [`resolve`]'s one
            // store and one bounds check — lets the typed loop run with no
            // per-lane check. An access that fails it is walked lane by
            // lane exactly as the reference walks it: address defined,
            // (value defined,) in bounds — so the first failing lane, its
            // error and the stores before it are the reference's.
            macro_rules! load_lanes {
                ($ty:expr, $d:expr, $adef:expr, $src:expr) => {{
                    let src: &[u64] = $src;
                    ranked(run, |k, i| self.addrs[k] = src[i]);
                    let (ty, dc, adef): (Type, usize, u64) = ($ty, col!($d), $adef);
                    let addrs = &self.addrs[..active as usize];
                    let fast = if mask & !adef == 0 {
                        resolve(self.buffers, &mut self.shared, ty, addrs)
                    } else {
                        None
                    };
                    match fast {
                        Some(store) => {
                            load_cells(store.bytes(), ty, addrs, run, &mut regs[dc..dc + run.n])
                        }
                        None => {
                            let (adef, mut k) = (adef >> lo, 0);
                            lanes!(|i| {
                                if (adef >> i) & 1 == 0 {
                                    return Err(SimError::UndefValue("load address".into()));
                                }
                                regs[dc + i] = mem_read(self.buffers, &self.shared, ty, addrs[k])?;
                                k += 1;
                            });
                        }
                    }
                    set_def!($d, u64::MAX);
                }};
            }
            macro_rules! store_lanes {
                ($ty:expr, $v:expr, $adef:expr, $src:expr) => {{
                    let src: &[u64] = $src;
                    ranked(run, |k, i| self.addrs[k] = src[i]);
                    let (ty, vc) = ($ty, col!($v));
                    let (vdef, adef): (u64, u64) = (def!($v), $adef);
                    let addrs = &self.addrs[..active as usize];
                    let fast = if mask & !(adef & vdef) == 0 {
                        resolve(self.buffers, &mut self.shared, ty, addrs)
                    } else {
                        None
                    };
                    match fast {
                        Some(store) => {
                            store_cells(store.bytes_mut(), ty, addrs, run, &regs[vc..vc + run.n])
                        }
                        None => {
                            let (vdef, adef, mut k) = (vdef >> lo, adef >> lo, 0);
                            lanes!(|i| {
                                if (adef >> i) & 1 == 0 {
                                    return Err(SimError::UndefValue("store address".into()));
                                }
                                if (vdef >> i) & 1 == 0 {
                                    return Err(SimError::UndefValue("stored value".into()));
                                }
                                let cell = regs[vc + i];
                                mem_write(self.buffers, &mut self.shared, ty, addrs[k], cell)?;
                                k += 1;
                            });
                        }
                    }
                }};
            }

            // Control and memory arms charge themselves and `continue`;
            // every other arm computes a value and falls through to the one
            // ALU charge below the match.
            'ops: loop {
                let op = code[pc as usize];
                match op {
                    // ---- control ----
                    Op::Ret => {
                        charge_ctl!();
                        record_prev!();
                        warp.stack.pop();
                        if let Some(t) = clock.as_mut() {
                            t.frame_pop(!warp.stack.is_empty());
                        }
                        continue 'outer;
                    }
                    Op::Jump { t_block, t_pc } => {
                        charge_ctl!();
                        record_prev!();
                        branch!(mask, 0, (t_block, t_pc), (t_block, t_pc));
                        continue 'ops;
                    }
                    Op::Br {
                        c,
                        t_block,
                        t_pc,
                        e_block,
                        e_pc,
                    } => {
                        charge_ctl!();
                        record_prev!();
                        if mask & !def!(c) != 0 {
                            return Err(SimError::UndefValue(format!(
                                "branch condition in block {}",
                                bk.block_name(cur_block)
                            )));
                        }
                        let t = bits(regs, [col!(c)], run.n, |[x]| x & 1 != 0) << lo;
                        branch!(t & mask, !t & mask, (t_block, t_pc), (e_block, e_pc));
                        continue 'ops;
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
                        macro_rules! cmp_bits {
                            ($f:expr) => {
                                bits(regs, [col!(a), col!(b)], run.n, |[x, y]| $f(x, y))
                            };
                        }
                        let t = with_icmp!(p, cmp_bits);
                        let cdef = def!(a) & def!(b);
                        if d != NO_DST {
                            let dc = col!(d);
                            lanes!(|i| regs[dc + i] = (t >> i) & 1);
                            set_def!(d, cdef);
                        }
                        // Exactly the unfused pair's accounting: one ALU
                        // issue + one budget unit for the compare, one
                        // control issue for the branch, with the budget
                        // check between the two (StepLimit outranks the
                        // undefined-condition error, as in the reference
                        // interpreter).
                        l_warp_insts += 2;
                        l_thread_insts += 2 * active;
                        l_cycles += lats[pc as usize];
                        l_alu_issues += 1;
                        l_alu_active += active;
                        if let Some(t) = clock.as_mut() {
                            // `bk.lats` folds both halves into one charge;
                            // the observer issues the unfused pair — the
                            // compare, then the branch waiting on it.
                            let rec = &recs[pc as usize];
                            t.issue(active as u32, &rec.first);
                            t.issue(active as u32, &rec.second);
                        }
                        if l_budget == 0 {
                            return Err(SimError::StepLimit);
                        }
                        l_budget -= 1;
                        record_prev!();
                        if mask & !cdef != 0 {
                            return Err(SimError::UndefValue(format!(
                                "branch condition in block {}",
                                bk.block_name(cur_block)
                            )));
                        }
                        let t = t << lo;
                        branch!(t & mask, !t & mask, (t_block, t_pc), (e_block, e_pc));
                        continue 'ops;
                    }
                    Op::Sync => {
                        self.stats.barriers += 1;
                        l_cycles += 1;
                        if let Some(t) = clock.as_mut() {
                            t.barrier_issue();
                        }
                        flush!();
                        let cur = warp.stack.last_mut().expect("entry exists");
                        cur.block = cur_block;
                        cur.inst_idx = pc + 1;
                        warp.status = WarpStatus::AtBarrier;
                        return Ok(());
                    }
                    // ---- memory: pre-pass, then typed loop ----
                    Op::Load { ty, d, a } => {
                        let ac = col!(a);
                        load_lanes!(ty, d, def!(a), &regs[ac..ac + run.n]);
                        charge_mem!(first);
                        continue 'ops;
                    }
                    Op::Store { ty, v, a } => {
                        let ac = col!(a);
                        store_lanes!(ty, v, def!(a), &regs[ac..ac + run.n]);
                        charge_mem!(first);
                        continue 'ops;
                    }
                    Op::GepLoad {
                        elem,
                        gd,
                        ga,
                        gb,
                        ty,
                        d,
                    } => {
                        let gdef = gep_half!(elem, gd, ga, gb);
                        load_lanes!(ty, d, gdef, &self.gep_cells[..run.n]);
                        charge_mem!(second);
                        continue 'ops;
                    }
                    Op::GepStore {
                        elem,
                        gd,
                        ga,
                        gb,
                        ty,
                        v,
                    } => {
                        let gdef = gep_half!(elem, gd, ga, gb);
                        store_lanes!(ty, v, gdef, &self.gep_cells[..run.n]);
                        charge_mem!(second);
                        continue 'ops;
                    }
                    // ---- values: whole-warp loops ----
                    Op::Add { w, d, a, b } => alu_w!(w, d, a, b, u64::wrapping_add),
                    Op::Sub { w, d, a, b } => alu_w!(w, d, a, b, u64::wrapping_sub),
                    Op::Mul { w, d, a, b } => alu_w!(w, d, a, b, u64::wrapping_mul),
                    Op::And { d, a, b } => alu!(d, [a, b], |[x, y]| x & y),
                    Op::Or { d, a, b } => alu!(d, [a, b], |[x, y]| x | y),
                    Op::Xor { d, a, b } => alu!(d, [a, b], |[x, y]| x ^ y),
                    // Shift counts wrap at the operand width, as the
                    // reference's `wrapping_sh*` do.
                    Op::Shl {
                        wide: true,
                        d,
                        a,
                        b,
                    } => {
                        alu!(d, [a, b], |[x, y]| x.wrapping_shl(y as u32))
                    }
                    Op::Shl { d, a, b, .. } => {
                        alu!(d, [a, b], |[x, y]| sx(
                            (x as u32).wrapping_shl(y as u32) as u64
                        ))
                    }
                    Op::LShr {
                        wide: true,
                        d,
                        a,
                        b,
                    } => {
                        alu!(d, [a, b], |[x, y]| x.wrapping_shr(y as u32))
                    }
                    Op::LShr { d, a, b, .. } => {
                        alu!(d, [a, b], |[x, y]| sx(
                            (x as u32).wrapping_shr(y as u32) as u64
                        ))
                    }
                    Op::AShr {
                        wide: true,
                        d,
                        a,
                        b,
                    } => {
                        alu!(d, [a, b], |[x, y]| (x as i64).wrapping_shr(y as u32) as u64)
                    }
                    Op::AShr { d, a, b, .. } => {
                        alu!(d, [a, b], |[x, y]| sx(
                            (x as i32).wrapping_shr(y as u32) as u64
                        ))
                    }
                    Op::FAdd { d, a, b } => alu!(d, [a, b], |[x, y]| fc(fl(x) + fl(y))),
                    Op::FSub { d, a, b } => alu!(d, [a, b], |[x, y]| fc(fl(x) - fl(y))),
                    Op::FMul { d, a, b } => alu!(d, [a, b], |[x, y]| fc(fl(x) * fl(y))),
                    Op::FDiv { d, a, b } => alu!(d, [a, b], |[x, y]| fc(fl(x) / fl(y))),
                    Op::FSqrt { d, a } => alu!(d, [a], |[x]| fc(fl(x).sqrt())),
                    Op::FAbs { d, a } => alu!(d, [a], |[x]| fc(fl(x).abs())),
                    Op::FNeg { d, a } => alu!(d, [a], |[x]| fc(-fl(x))),
                    Op::FExp { d, a } => alu!(d, [a], |[x]| fc(fl(x).exp())),
                    Op::Icmp { p, d, a, b } => {
                        macro_rules! cmp_cells {
                            ($f:expr) => {
                                alu!(d, [a, b], |[x, y]| $f(x, y) as u64)
                            };
                        }
                        with_icmp!(p, cmp_cells);
                    }
                    Op::Fcmp { p, d, a, b } => {
                        macro_rules! fcmp_cells {
                            ($f:expr) => {
                                alu!(d, [a, b], |[x, y]| $f(&fl(x), &fl(y)) as u64)
                            };
                        }
                        match p {
                            FcmpPred::Oeq => fcmp_cells!(f32::eq),
                            FcmpPred::One => fcmp_cells!(f32::ne),
                            FcmpPred::Olt => fcmp_cells!(f32::lt),
                            FcmpPred::Ole => fcmp_cells!(f32::le),
                            FcmpPred::Ogt => fcmp_cells!(f32::gt),
                            FcmpPred::Oge => fcmp_cells!(f32::ge),
                        }
                    }
                    Op::Select { d, c, a, b } => {
                        let cols = [col!(c), col!(a), col!(b)];
                        let pick = |[c, x, y]: [u64; 3]| if c & 1 != 0 { x } else { y };
                        map(regs, run, col!(d), cols, pick);
                        // Defined where the condition is and the arm it
                        // picks is; the condition bits are only needed when
                        // the arms differ in definedness.
                        let (da, db) = (def!(a), def!(b));
                        let arm = if (da ^ db) & mask == 0 {
                            da
                        } else {
                            let t = bits(regs, [cols[0]], run.n, |[x]| x & 1 != 0) << lo;
                            (t & da) | (!t & db)
                        };
                        set_def!(d, def!(c) & arm);
                    }
                    Op::Cvt { k, d, a } => match k {
                        Cvt::Copy => alu!(d, [a], |[x]| x),
                        Cvt::SextI1 => alu!(d, [a], |[x]| (x & 1).wrapping_neg()),
                        Cvt::ZextI32 => alu!(d, [a], |[x]| x as u32 as u64),
                        Cvt::TruncI32 => alu!(d, [a], |[x]| sx(x)),
                        Cvt::TruncI1 => alu!(d, [a], |[x]| x & 1),
                        Cvt::SiToFp => alu!(d, [a], |[x]| fc(x as i64 as f32)),
                        Cvt::FpToI32 => alu!(d, [a], |[x]| fl(x) as i32 as i64 as u64),
                        Cvt::FpToI64 => alu!(d, [a], |[x]| fl(x) as i64 as u64),
                    },
                    Op::Gep { elem, d, a, b } => {
                        alu!(d, [a, b], |[p, i]| p.wrapping_add(i.wrapping_mul(elem)))
                    }
                    Op::Undef { d, .. } => set_def!(d, 0),
                    Op::Uniform { v, d } => {
                        let pick = |dim, (x, y): (u32, u32)| {
                            sx((if dim == Dim::X { x } else { y }) as u64)
                        };
                        let cell = match v {
                            Uniform::BlockIdx(dim) => pick(dim, self.block_idx),
                            Uniform::BlockDim(dim) => pick(dim, self.launch.block),
                            Uniform::GridDim(dim) => pick(dim, self.launch.grid),
                            Uniform::SharedBase(off) => encode_shared(off),
                        };
                        alu!(d, [], |[]| cell);
                    }
                    Op::Ballot { d, a } => {
                        // The one warp-wide operation: all active lanes
                        // receive the mask of lanes whose predicate holds
                        // (an undefined predicate does not).
                        let t = bits(regs, [col!(a)], run.n, |[x]| x & 1 != 0) << lo;
                        let ballot = t & def!(a) & mask;
                        alu!(d, [], |[]| ballot);
                    }
                    // ---- values: per lane ----
                    Op::ThreadIdx { dim, d } => {
                        // Thread `t` of the block is at `x = t % bx`,
                        // `y = t / bx`. The lanes come in ascending order,
                        // so one division places the first and the rest
                        // step along the row, dividing again only when they
                        // pass its end.
                        let dc = col!(d);
                        let bx = self.launch.block.0;
                        let t0 = (wb + lo) as u32;
                        let (mut x, mut y, mut at) = (t0 % bx, t0 / bx, 0);
                        lanes!(|i| {
                            x += (i - at) as u32;
                            at = i;
                            if x >= bx {
                                (x, y) = (x % bx, y + x / bx);
                            }
                            let v = if dim == Dim::X { x } else { y };
                            regs[dc + i] = sx(u64::from(v));
                        });
                        set_def!(d, u64::MAX);
                    }
                    Op::Div {
                        op: opc,
                        wide,
                        d,
                        a,
                        b,
                    } => {
                        // An undefined operand makes the lane's result
                        // undefined *before* the divisor is looked at.
                        let (dc, ac, bc) = (col!(d), col!(a), col!(b));
                        let ddef = def!(a) & def!(b);
                        lanes!(|i| {
                            if (ddef >> (lo + i)) & 1 != 0 {
                                let (x, y) = (regs[ac + i] as i64, regs[bc + i] as i64);
                                if y == 0 {
                                    return Err(SimError::DivByZero);
                                }
                                let r = match opc {
                                    Opcode::SDiv => x.wrapping_div(y),
                                    Opcode::SRem => x.wrapping_rem(y),
                                    Opcode::UDiv => ((x as u64) / (y as u64)) as i64,
                                    _ => ((x as u64) % (y as u64)) as i64,
                                };
                                regs[dc + i] = if wide { r as u64 } else { sx(r as u64) };
                            }
                        });
                        set_def!(d, ddef);
                    }
                }
                // Charge + budget + advance for an ALU-class op.
                l_warp_insts += 1;
                l_thread_insts += active;
                l_cycles += lats[pc as usize];
                l_alu_issues += 1;
                l_alu_active += active;
                if let Some(t) = clock.as_mut() {
                    t.issue(active as u32, &recs[pc as usize].first);
                }
                if l_budget == 0 {
                    return Err(SimError::StepLimit);
                }
                l_budget -= 1;
                pc += 1;
            }
        }
    }

    /// Pushes the divergent-branch stack frame: the current entry becomes
    /// the reconvergence continuation, then the else and then arms (then
    /// on top, so it executes first).
    fn diverge(
        &mut self,
        warp: &mut WarpState<'_>,
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
        Ok(())
    }

    /// Resolves a block's φ batch for the active lanes: bucket lanes by
    /// predecessor, then apply each bucket's flat move list. Falls back to
    /// [`BcEngine::phi_error`] on any defect so the raised error matches
    /// the reference interpreter exactly.
    fn run_phis(
        &mut self,
        warp: &mut WarpState<'_>,
        block: u32,
        mask: u64,
        regs: &mut [u64],
        defs: &mut [u64],
        clock: Option<&mut WarpClock<'_>>,
    ) -> Result<(), SimError> {
        let bk = self.bk;
        let (nt, nw) = (self.threads, self.n_warps);
        let w = (warp.base_thread / self.warp_size) as usize;
        let blk = bk.blocks[block as usize];
        if blk.phi_start == blk.phi_end {
            return Ok(());
        }
        let edges = &bk.phi_edges[blk.phi_start as usize..blk.phi_end as usize];

        // One bucket per provenance group the entry mask meets, holding the
        // index of its edge; a lane in no group has no predecessor.
        let mut buckets = std::mem::take(&mut self.buckets);
        buckets.clear();
        let mut covered = 0u64;
        let mut bad = false;
        for &(pred, group) in warp.prev.iter() {
            let bmask = group & mask;
            if bmask != 0 {
                covered |= bmask;
                match edges.iter().position(|e| e.pred == pred) {
                    Some(k) if edges[k].complete => buckets.push((k as u32, bmask)),
                    _ => bad = true,
                }
            }
        }
        if bad || covered != mask {
            return Err(self.phi_error(warp, block, mask));
        }

        // All edges validated: apply the moves, cells and definedness. φ
        // writes of one lane are never read by another (each lane reads
        // its own column cell and its own definedness bit), so bucket order
        // does not matter; within a bucket, the staged path preserves
        // read-before-write when a φ feeds another φ.
        for &(k, bmask) in buckets.iter() {
            let e = edges[k as usize];
            let moves = &bk.phi_moves[e.m_start as usize..e.m_end as usize];
            let (lo, run) = Run::of(bmask);
            let first = warp.base_thread as usize + lo;
            // Binds the span offset `i` of each bucket lane in turn.
            macro_rules! bucket_lanes {
                (|$i:ident| $body:expr) => {{
                    let mut m = run.bits;
                    while m != 0 {
                        let $i = m.trailing_zeros() as usize;
                        m &= m - 1;
                        $body
                    }
                }};
            }
            let merge = |word: &mut u64, src: u64| *word = (*word & !bmask) | (src & bmask);
            if blk.phi_overlap {
                // Read every source — definedness word, then the bucket's
                // cells — before writing any destination.
                self.stage.clear();
                for &(_, s) in moves {
                    self.stage.push(defs[s as usize * nw + w]);
                    let sc = s as usize * nt + first;
                    bucket_lanes!(|i| self.stage.push(regs[sc + i]));
                }
                let mut staged = self.stage.iter().copied();
                let mut next = || staged.next().expect("staged above");
                for &(d, _) in moves {
                    merge(&mut defs[d as usize * nw + w], next());
                    let dc = d as usize * nt + first;
                    bucket_lanes!(|i| regs[dc + i] = next());
                }
            } else {
                // Move-major: each move streams a run of its source column
                // into its destination column.
                for &(d, s) in moves {
                    let src_def = defs[s as usize * nw + w];
                    merge(&mut defs[d as usize * nw + w], src_def);
                    let (dc, sc) = (d as usize * nt + first, s as usize * nt + first);
                    map(regs, run, dc, [sc], |[x]| x);
                }
            }
        }
        // Timing: φs cost nothing but propagate scoreboard readiness. A
        // complete edge lists one move per φ in φ order, so `moves[k]` is φ
        // `k` on every bucket; each φ's readiness is the max over the
        // taken incomings, staged so that a φ sourcing another φ of the
        // same batch reads the pre-batch scoreboard (matching the staged
        // value semantics above).
        if let Some(t) = clock {
            t.phi_begin();
            let first = edges[buckets[0].0 as usize];
            let n_phis = (first.m_end - first.m_start) as usize;
            for k in 0..n_phis {
                let mut ready = 0u64;
                let mut dst = 0u32;
                for &(e, _) in buckets.iter() {
                    let (d, s) = bk.phi_moves[edges[e as usize].m_start as usize + k];
                    dst = d;
                    ready = ready.max(t.reg_ready(s));
                }
                t.phi_stage(dst, ready);
            }
            t.phi_commit();
        }
        self.buckets = buckets;
        Ok(())
    }

    /// Reconstructs the exact error the reference interpreter raises for a
    /// defective φ batch, replicating its φ-major, lane-minor scan order —
    /// each lane's predecessor looked up in its provenance group (error
    /// path only — never taken by valid kernels).
    fn phi_error(&self, warp: &WarpState<'_>, block: u32, mask: u64) -> SimError {
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
                let lane = m & m.wrapping_neg();
                m &= m - 1;
                let pred = warp
                    .prev
                    .iter()
                    .find(|&&(_, group)| group & lane != 0)
                    .map_or(NO_BLOCK, |&(b, _)| b);
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
    use super::{bits, map, split_cols, Run};
    use crate::stats::tests::rng;
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

    /// The per-lane fold `bits` replaced, kept as its oracle.
    fn folded<const K: usize>(
        regs: &[u64],
        cols: [usize; K],
        n: usize,
        f: impl Fn([u64; K]) -> bool,
    ) -> u64 {
        let cols = cols.map(|c| &regs[c..c + n]);
        (0..n).fold(0, |t, i| {
            t | (f(std::array::from_fn(|k| cols[k][i])) as u64) << i
        })
    }

    #[test]
    fn packed_bits_equal_the_per_lane_fold() {
        // Seeded cells: raw words, and small values so that compares come
        // out both ways.
        let mut next = rng(0xB175);
        for round in 0..64 {
            let regs: Vec<u64> = (0..3 * 64)
                .map(|_| match round % 3 {
                    0 => next(),
                    1 => next() % 4,
                    _ => next() & 1,
                })
                .collect();
            for n in 0..=64 {
                for at in [0, 64 - n, 64, 128 - n / 2] {
                    let odd = |[x]: [u64; 1]| x & 1 != 0;
                    assert_eq!(bits(&regs, [at], n, odd), folded(&regs, [at], n, odd));
                    let lt = |[x, y]: [u64; 2]| (x as i64) < (y as i64);
                    let cols = [at, 128];
                    assert_eq!(bits(&regs, cols, n, lt), folded(&regs, cols, n, lt));
                    let eq = |[x, y]: [u64; 2]| x == y;
                    let cols = [128, at];
                    assert_eq!(bits(&regs, cols, n, eq), folded(&regs, cols, n, eq));
                }
                let all = if n == 0 { 0 } else { u64::MAX >> (64 - n) };
                assert_eq!(bits(&regs, [0], n, |[_]| true), all);
            }
        }
    }

    #[test]
    fn split_cols_refuses_overlap_and_map_falls_back() {
        let mut regs: Vec<u64> = (0..12).collect();
        // Columns of 4: slot 0 = [0..4), slot 1 = [4..8), slot 2 = [8..12).
        let (d, [a, b]) = split_cols(&mut regs, 4, [8, 0], 4).expect("disjoint");
        assert_eq!((d.len(), a, b), (4, &[8, 9, 10, 11][..], &[0, 1, 2, 3][..]));
        assert!(split_cols(&mut regs, 4, [4], 4).is_none());
        assert!(split_cols(&mut regs, 4, [2], 4).is_none());

        // A destination that is its own source still reads before it writes.
        let dense = Run {
            n: 4,
            bits: 0b1111,
            dense: true,
        };
        map(&mut regs, dense, 4, [4, 8], |[x, y]| x + y);
        assert_eq!(&regs[4..8], &[12, 14, 16, 18]);
        // A sparse run touches only its set bits.
        let sparse = Run {
            n: 4,
            bits: 0b1001,
            dense: false,
        };
        map(&mut regs, sparse, 0, [8], |[x]| x * 10);
        assert_eq!(&regs[0..4], &[80, 1, 2, 110]);
    }
}
