//! The semantics the register tag used to carry, pinned against the
//! reference interpreter now that the bytecode engine's register file has
//! none: static typing of every opcode × operand-type combination
//! [`Function::verify_structure`] accepts, per-lane definedness, every lane
//! mask shape, and the error paths an undefined value can take.
//!
//! Every check is differential — same `Result<KernelStats, SimError>`, same
//! bytes in every buffer — between [`Gpu::launch_reference`] and
//! [`Gpu::launch_bytecode`].

use darm_ir::builder::FunctionBuilder;
use darm_ir::{
    AddrSpace, BlockId, Dim, FcmpPred, Function, IcmpPred, InstData, Opcode, Type, Value,
};
use darm_simt::{
    BufferId, BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, LaunchConfig, SimError,
    TimingConfig,
};

const PTR: Type = Type::Ptr(AddrSpace::Global);
const TYPES: [Type; 5] = [Type::I1, Type::I32, Type::I64, Type::F32, PTR];

/// Runs `f` on both engines over identically initialised buffers and
/// asserts equal outcomes and equal buffer bytes. Returns the outcome.
fn assert_engines_agree(
    f: &Function,
    config: GpuConfig,
    launch: &LaunchConfig,
    buffers: &[Vec<i32>],
    scalars: &[i32],
    what: &str,
) -> Result<KernelStats, SimError> {
    let setup = || {
        let mut gpu = Gpu::new(config);
        let ids: Vec<BufferId> = buffers.iter().map(|b| gpu.alloc_i32(b)).collect();
        let mut args: Vec<KernelArg> = ids.iter().map(|&b| KernelArg::Buffer(b)).collect();
        args.extend(scalars.iter().map(|&s| KernelArg::I32(s)));
        (gpu, ids, args)
    };
    let (mut ref_gpu, ref_ids, ref_args) = setup();
    let (mut bc_gpu, bc_ids, bc_args) = setup();
    let reference = ref_gpu.launch_reference(f, launch, &ref_args);
    let bytecode = bc_gpu.launch_bytecode(&BytecodeKernel::new(f), launch, &bc_args);
    assert_eq!(bytecode, reference, "{what}: outcome");
    for (k, (&r, &b)) in ref_ids.iter().zip(&bc_ids).enumerate() {
        assert_eq!(
            bc_gpu.read_bytes(b),
            ref_gpu.read_bytes(r),
            "{what}: buffer {k}"
        );
    }
    reference
}

// ---- (a) the opcode × type table ----

const THREADS: usize = 64;

/// Whether `verify_structure` accepts `opcode` with these operand and
/// result types (probed on `undef` operands: only the types matter).
fn accepted(opcode: Opcode, operands: &[Type], ret: Type) -> bool {
    let mut f = Function::new("probe", vec![], Type::Void);
    f.add_shared_array("tile", Type::I32, 16);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let ops = operands.iter().map(|&t| Value::Undef(t)).collect();
    b.emit(InstData::new(opcode, ret, ops));
    b.ret(None);
    f.verify_structure().is_ok()
}

/// Edge payload `e` (0..8) of type `ty`, as the bytes a load of `ty` reads.
/// Pointer operands are built in-kernel from a small `i32` index. `alt`
/// swaps integer zeros for sevens so the division family also gets a
/// run that completes.
fn payload(ty: Type, e: usize, alt: bool) -> Vec<u8> {
    let z = if alt { 7 } else { 0 };
    match ty {
        Type::I1 => vec![[0u8, 1, 1, 0, 1, 0, 0, 1][e]],
        Type::I32 => [z, 1, -1, i32::MIN, i32::MAX, 32, 37, 0x1234_5678][e]
            .to_le_bytes()
            .to_vec(),
        Type::I64 => [z as i64, 1, -1, i64::MIN, i64::MAX, 64, 69, (1 << 32) | 5][e]
            .to_le_bytes()
            .to_vec(),
        Type::F32 => [
            0.0f32,
            -0.0,
            1.5,
            -2.75,
            f32::NAN,
            f32::INFINITY,
            3.0e9,
            -1.0e20,
        ][e]
            .to_le_bytes()
            .to_vec(),
        Type::Ptr(_) => [0i32, 1, 2, 3, 5, 8, 13, 15][e].to_le_bytes().to_vec(),
        Type::Void => unreachable!(),
    }
}

/// Which payload operand `j` takes in linear thread `lin`: the first two
/// operands sweep the full 8 × 8 cross product over 64 threads.
fn payload_index(j: usize, lin: usize) -> usize {
    match j {
        0 => lin % 8,
        1 => (lin / 8) % 8,
        _ => (lin * 5 + 3) % 8,
    }
}

fn input_buffer(ty: Type, j: usize, alt: bool) -> Vec<i32> {
    let mut bytes = Vec::new();
    for lin in 0..THREADS {
        bytes.extend(payload(ty, payload_index(j, lin), alt));
    }
    bytes.resize(THREADS * 8, 0);
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// `f(out, in0, in1, in2, all, group)`: one instruction of `opcode` over
/// per-lane payloads, its result stored to `out[global thread]`.
///
/// Operand `j` is defined in a lane iff bit `j` of the linear thread id is
/// set or `all != 0`, and only lanes whose low three id bits equal `group`
/// store (`group == 8`: every lane) — so launching groups 0..8 with `all =
/// 0` observes the definedness of the result for every combination of
/// defined operands, one at a time, as "stored" or "error: stored value".
/// The undefined lanes are made by a `select` on an `undef` condition whose
/// arms are both the payload, so an engine that forgets a definedness bit
/// finds a plausible value there (a zero divisor, a true predicate), not a
/// blank. `i1` and `i32` results are also stored widened to `i64`, which
/// shows every bit of their register.
fn table_kernel(opcode: Opcode, operands: &[Type], ret: Type) -> Function {
    let mut f = Function::new(
        "table",
        vec![PTR, PTR, PTR, PTR, Type::I32, Type::I32],
        Type::Void,
    );
    f.add_shared_array("tile", Type::I32, 16);
    let entry = f.entry();
    let st = f.add_block("st");
    let done = f.add_block("done");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tx = b.thread_idx(Dim::X);
    let ty = b.thread_idx(Dim::Y);
    let width = b.block_dim(Dim::X);
    let row = b.mul(ty, width);
    let lin = b.add(row, tx);
    let block = b.block_idx(Dim::X);
    let block_base = b.mul(block, b.const_i32(THREADS as i32));
    let gidx = b.add(block_base, lin);
    let (all, group) = (b.param(4), b.param(5));

    let mut ops = Vec::new();
    for (j, &t) in operands.iter().enumerate() {
        let input = b.param(1 + j as u32);
        let loaded = match t {
            Type::Ptr(_) => {
                let p = b.gep(Type::I32, input, lin);
                let idx = b.load(Type::I32, p);
                b.gep(Type::I32, b.param(1), idx)
            }
            t => {
                let p = b.gep(t, input, lin);
                b.load(t, p)
            }
        };
        let bit = b.and(lin, b.const_i32(1 << j));
        let bit = b.or(bit, all);
        let c = b.icmp(IcmpPred::Ne, bit, b.const_i32(0));
        let poisoned = b.select(Value::Undef(Type::I1), loaded, loaded);
        ops.push(b.select(c, loaded, poisoned));
    }
    let r = Value::Inst(b.emit(InstData::new(opcode, ret, ops)));
    let widened = match ret {
        Type::I1 => Some(b.zext(r, Type::I64)),
        Type::I32 => Some(b.sext(r, Type::I64)),
        _ => None,
    };

    let low = b.and(lin, b.const_i32(7));
    let mine = b.icmp(IcmpPred::Eq, low, group);
    let every = b.icmp(IcmpPred::Eq, group, b.const_i32(8));
    let go = b.or(mine, every);
    b.br(go, st, done);
    b.switch_to(st);
    if ret != Type::Void {
        let p = b.gep(ret, b.param(0), gidx);
        b.store(r, p);
    }
    if let Some(w) = widened {
        let at = b.add(gidx, b.const_i32(2 * THREADS as i32));
        let p = b.gep(Type::I64, b.param(0), at);
        b.store(w, p);
    }
    b.jump(done);
    b.switch_to(done);
    b.ret(None);
    f
}

fn all_opcodes() -> Vec<(Opcode, usize)> {
    use Opcode::*;
    let mut ops = Vec::new();
    for o in [
        Add, Sub, Mul, SDiv, SRem, UDiv, URem, And, Or, Xor, Shl, LShr, AShr, FAdd, FSub, FMul,
        FDiv, Store,
    ] {
        ops.push((o, 2));
    }
    for p in [
        IcmpPred::Eq,
        IcmpPred::Ne,
        IcmpPred::Slt,
        IcmpPred::Sle,
        IcmpPred::Sgt,
        IcmpPred::Sge,
        IcmpPred::Ult,
        IcmpPred::Ule,
        IcmpPred::Ugt,
        IcmpPred::Uge,
    ] {
        ops.push((Icmp(p), 2));
    }
    for p in [
        FcmpPred::Oeq,
        FcmpPred::One,
        FcmpPred::Olt,
        FcmpPred::Ole,
        FcmpPred::Ogt,
        FcmpPred::Oge,
    ] {
        ops.push((Fcmp(p), 2));
    }
    for elem in [Type::I1, Type::I32, Type::I64] {
        ops.push((Gep { elem }, 2));
    }
    for o in [
        FSqrt, FAbs, FNeg, FExp, Zext, Sext, Trunc, SiToFp, FpToSi, Load, Ballot,
    ] {
        ops.push((o, 1));
    }
    ops.push((Select, 3));
    for d in [Dim::X, Dim::Y] {
        for o in [ThreadIdx(d), BlockIdx(d), BlockDim(d), GridDim(d)] {
            ops.push((o, 0));
        }
    }
    ops.push((SharedBase(0), 0));
    ops.push((Syncthreads, 0));
    ops
}

/// Every operand-type tuple of the given arity.
fn type_tuples(arity: usize) -> Vec<Vec<Type>> {
    let mut tuples = vec![Vec::new()];
    for _ in 0..arity {
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                TYPES.iter().map(move |&ty| {
                    let mut t = t.clone();
                    t.push(ty);
                    t
                })
            })
            .collect();
    }
    tuples
}

#[test]
fn every_accepted_opcode_and_type_combination_matches_the_reference() {
    let launch = LaunchConfig::grid2d((2, 1), (16, 4));
    let mut cases = 0;
    let mut completed = 0;
    for (opcode, arity) in all_opcodes() {
        for operands in type_tuples(arity) {
            for ret in TYPES.into_iter().chain([Type::Void]) {
                if !accepted(opcode, &operands, ret) {
                    continue;
                }
                cases += 1;
                let f = table_kernel(opcode, &operands, ret);
                f.verify_structure().expect("table kernels are well-typed");
                for alt in [false, true] {
                    let mut buffers = vec![vec![0; 2 * THREADS * 4]];
                    for j in 0..3 {
                        let ty = operands.get(j).copied().unwrap_or(Type::I32);
                        buffers.push(input_buffer(ty, j, alt));
                    }
                    let what = |all: i32, group: i32| {
                        format!("{opcode:?} {operands:?} -> {ret} (alt {alt}, all {all}, group {group})")
                    };
                    // Every lane defined, every lane stores: the values.
                    let full = assert_engines_agree(
                        &f,
                        GpuConfig::default(),
                        &launch,
                        &buffers,
                        &[1, 8],
                        &what(1, 8),
                    );
                    completed += full.is_ok() as usize;
                    // One definedness pattern at a time: the `undef` flow.
                    for group in 0..1 << arity {
                        let partial = assert_engines_agree(
                            &f,
                            GpuConfig::default(),
                            &launch,
                            &buffers,
                            &[0, group],
                            &what(0, group),
                        );
                        // With no operand defined there is nothing to
                        // store or address — except a ballot, which counts
                        // undefined predicates as false.
                        if group == 0 && arity > 0 && opcode != Opcode::Ballot {
                            partial.expect_err(&what(0, 0));
                        }
                    }
                }
            }
        }
    }
    // 13 int binops × 3 widths, 8 float ops, 10 icmps × 4, 6 fcmps, select
    // × 5, 6 + 6 + 6 int casts, 3 + 3 int/float casts, gep 3 × 3, load and
    // store × 5, ballot, 9 intrinsics, the barrier. Most runs complete
    // (the zero-divisor ones and the statically-undef results do not).
    assert_eq!(cases, 39 + 8 + 40 + 6 + 5 + 18 + 6 + 9 + 10 + 1 + 9 + 1);
    assert!(completed > cases, "only {completed} full runs completed");
}

// ---- (b) mask shapes ----

/// A divergent diamond nest inside a loop, with loop-carried and join φs:
/// arms under a sparse mask (`(tid + i) & 1`), a dense prefix and its
/// dense, offset complement (`tid < 5 + 7 i`), full and tail warps.
fn diamond_in_loop() -> Function {
    let mut f = Function::new("shapes", vec![PTR], Type::Void);
    let entry = f.entry();
    let [hdr, body, odd, even, lo, hi, ejoin, join, exit] = [
        "hdr", "body", "odd", "even", "lo", "hi", "ejoin", "join", "exit",
    ]
    .map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    b.jump(hdr);

    b.switch_to(hdr);
    let i = Value::Inst(b.emit(InstData::phi(Type::I32, &[(entry, Value::I32(0))])));
    let acc = Value::Inst(b.emit(InstData::phi(Type::I32, &[(entry, tid)])));
    let more = b.icmp(IcmpPred::Slt, i, b.const_i32(3));
    b.br(more, body, exit);

    b.switch_to(body);
    let ti = b.add(tid, i);
    let parity = b.and(ti, b.const_i32(1));
    let is_odd = b.icmp(IcmpPred::Ne, parity, b.const_i32(0));
    b.br(is_odd, odd, even);

    b.switch_to(odd);
    let o1 = b.mul(acc, b.const_i32(3));
    let o2 = b.add(o1, i);
    b.jump(join);

    b.switch_to(even);
    let seven_i = b.mul(i, b.const_i32(7));
    let bound = b.add(seven_i, b.const_i32(5));
    let low = b.icmp(IcmpPred::Slt, tid, bound);
    b.br(low, lo, hi);
    b.switch_to(lo);
    let l1 = b.add(acc, b.const_i32(7));
    b.jump(ejoin);
    b.switch_to(hi);
    let h1 = b.xor(acc, ti);
    b.jump(ejoin);
    b.switch_to(ejoin);
    let e1 = b.phi(Type::I32, &[(lo, l1), (hi, h1)]);
    b.jump(join);

    b.switch_to(join);
    let next = b.phi(Type::I32, &[(odd, o2), (ejoin, e1)]);
    let i1 = b.add(i, b.const_i32(1));
    b.jump(hdr);
    for (phi, v) in [(i, i1), (acc, next)] {
        let Value::Inst(id) = phi else { unreachable!() };
        let data = b.func().inst_mut(id);
        data.phi_blocks.push(join);
        data.operands.push(v);
    }

    b.switch_to(exit);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(acc, p);
    b.ret(None);
    f
}

#[test]
fn every_mask_shape_writes_back_like_the_reference() {
    let f = diamond_in_loop();
    f.verify_structure().expect("shape kernel is well-formed");
    for block in [1, 31, 33, 63, 65] {
        for warp_size in [4, 8, 32, 64] {
            let config = GpuConfig {
                warp_size,
                ..GpuConfig::default()
            };
            let out = assert_engines_agree(
                &f,
                config,
                &LaunchConfig::linear(2, block),
                &[vec![0; 65]],
                &[],
                &format!("block {block}, warp size {warp_size}"),
            );
            out.expect("the shape kernel runs to completion");
        }
    }
}

// ---- (c) undef flow ----

/// `out[tid] = <value built by `body`>` behind a divergent diamond whose
/// arms `body` may use: `body(b, tid, then, else, join)` is called with the
/// cursor in `entry` and must leave it in `join`, returning the value to
/// store.
fn undef_kernel(
    body: impl FnOnce(&mut FunctionBuilder<'_>, Value, [BlockId; 3]) -> Value,
) -> Function {
    let mut f = Function::new("undef", vec![PTR], Type::Void);
    let entry = f.entry();
    let blocks = ["t", "e", "x"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let v = body(&mut b, tid, blocks);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(v, p);
    b.ret(None);
    f
}

fn run_undef(f: &Function, what: &str) -> Result<KernelStats, SimError> {
    f.verify_structure().expect("undef kernels are well-typed");
    assert_engines_agree(
        f,
        GpuConfig::default(),
        &LaunchConfig::linear(1, 40),
        &[vec![-1; 40]],
        &[],
        what,
    )
}

/// Splits on `tid < 8`, runs `arm` in the then-block, joins.
fn diamond(b: &mut FunctionBuilder<'_>, tid: Value, [t, e, x]: [BlockId; 3], cond: Option<Value>) {
    let c = cond.unwrap_or_else(|| b.icmp(IcmpPred::Slt, tid, b.const_i32(8)));
    b.br(c, t, e);
    b.switch_to(t);
    b.jump(x);
    b.switch_to(e);
    b.jump(x);
    b.switch_to(x);
}

#[test]
fn undefined_values_take_the_reference_error_paths() {
    let stored = Err(SimError::UndefValue("stored value".into()));

    // select on an undefined condition is undefined, whatever the arms.
    let f = undef_kernel(|b, tid, blocks| {
        let v = b.select(Value::Undef(Type::I1), tid, tid);
        diamond(b, tid, blocks, None);
        v
    });
    assert_eq!(run_undef(&f, "select on undef"), stored);

    // A select whose *unpicked* arm is undefined is defined.
    let f = undef_kernel(|b, tid, blocks| {
        let c = b.icmp(IcmpPred::Sge, tid, b.const_i32(0));
        let v = b.select(c, tid, Value::Undef(Type::I32));
        diamond(b, tid, blocks, None);
        v
    });
    run_undef(&f, "select with an unpicked undef arm").expect("every lane picks the defined arm");

    // φ with an undef incoming: lanes from that arm store undef.
    let f = undef_kernel(|b, tid, blocks| {
        diamond(b, tid, blocks, None);
        b.phi(
            Type::I32,
            &[(blocks[0], tid), (blocks[1], Value::Undef(Type::I32))],
        )
    });
    assert_eq!(run_undef(&f, "phi with an undef incoming"), stored);

    // …and arithmetic on it stays undefined, through a width-normalised op
    // and a conversion.
    let f = undef_kernel(|b, tid, blocks| {
        diamond(b, tid, blocks, None);
        let v = b.phi(
            Type::I32,
            &[(blocks[0], tid), (blocks[1], Value::Undef(Type::I32))],
        );
        let w = b.add(v, tid);
        let wide = b.sext(w, Type::I64);
        b.trunc(wide, Type::I32)
    });
    assert_eq!(
        run_undef(&f, "arithmetic on a partly undefined phi"),
        stored
    );

    // Storing an undefined constant.
    let f = undef_kernel(|b, tid, blocks| {
        diamond(b, tid, blocks, None);
        Value::Undef(Type::I32)
    });
    assert_eq!(run_undef(&f, "store of undef"), stored);

    // Storing through an undefined address.
    let mut f = Function::new("addr", vec![PTR], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, Value::Undef(PTR), tid);
    b.store(tid, p);
    b.ret(None);
    assert_eq!(
        run_undef(&f, "store through undef"),
        Err(SimError::UndefValue("store address".into()))
    );

    // Branching on an undefined condition: a constant, a compare of an
    // undefined operand fused into the branch, and the same compare kept
    // in a register because a select reads it too.
    let branch = Err(SimError::UndefValue(
        "branch condition in block entry".into(),
    ));
    let f = undef_kernel(|b, tid, blocks| {
        diamond(b, tid, blocks, Some(Value::Undef(Type::I1)));
        tid
    });
    assert_eq!(run_undef(&f, "br on undef"), branch);
    let f = undef_kernel(|b, tid, blocks| {
        let c = b.icmp(IcmpPred::Slt, tid, Value::Undef(Type::I32));
        diamond(b, tid, blocks, Some(c));
        tid
    });
    assert_eq!(run_undef(&f, "fused compare of undef"), branch);
    let f = undef_kernel(|b, tid, blocks| {
        let c = b.icmp(IcmpPred::Slt, tid, Value::Undef(Type::I32));
        diamond(b, tid, blocks, Some(c));
        b.select(c, tid, tid)
    });
    assert_eq!(run_undef(&f, "kept compare of undef"), branch);
}

#[test]
fn every_budget_cut_lands_where_the_reference_puts_it() {
    // gep+load and gep+store both fuse here; sweeping the budget puts the
    // cut before, between and after the halves of each fused op, in either
    // warp, and after a partial store.
    let mut f = Function::new("budget", vec![PTR, PTR], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let src = b.gep(Type::I32, b.param(1), tid);
    let v = b.load(Type::I32, src);
    let w = b.add(v, tid);
    let dst = b.gep(Type::I32, b.param(0), tid);
    b.store(w, dst);
    b.ret(None);
    f.verify_structure().unwrap();
    let input: Vec<i32> = (0..48).map(|x| x * 11).collect();
    let mut outcomes = Vec::new();
    for budget in 0..16 {
        let config = GpuConfig {
            max_warp_instructions: budget,
            ..GpuConfig::default()
        };
        outcomes.push(assert_engines_agree(
            &f,
            config,
            &LaunchConfig::linear(1, 48),
            &[vec![0; 48], input.clone()],
            &[],
            &format!("budget {budget}"),
        ));
    }
    // 2 warps × 6 budgeted instructions: the last cut is at 11.
    assert_eq!(outcomes[11], Err(SimError::StepLimit));
    assert!(outcomes[12].is_ok());
}

// ---- φ provenance ----

/// `out[tid] = tid`, then a diamond split on `tid & 1` (odd lanes take
/// `t`, even ones `e`, interleaved so that both arms reach the join `x`
/// as live buckets), `out[tid] = join(b, [t, e, x], tid, then, else)`.
/// `leave_t` ends the then-arm (a `jump x` or something stranger).
fn interleaved_join(
    leave_t: impl FnOnce(&mut FunctionBuilder<'_>, BlockId),
    join: impl FnOnce(&mut FunctionBuilder<'_>, [BlockId; 3], Value, Value) -> Value,
) -> Function {
    let mut f = Function::new("provenance", vec![PTR], Type::Void);
    let entry = f.entry();
    let [t, e, x] = ["t", "e", "x"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(tid, p);
    let bit = b.and(tid, b.const_i32(1));
    let odd = b.icmp(IcmpPred::Ne, bit, b.const_i32(0));
    b.br(odd, t, e);
    b.switch_to(t);
    let vt = b.mul(tid, b.const_i32(3));
    leave_t(&mut b, x);
    b.switch_to(e);
    let ve = b.add(tid, b.const_i32(5));
    b.jump(x);
    b.switch_to(x);
    let v = join(&mut b, [t, e, x], vt, ve);
    b.store(v, p);
    b.ret(None);
    f
}

/// Both engines over 40 threads (a full warp and a tail warp); φ defects
/// are invalid SSA, so the kernels here are not verified first.
fn run_provenance(f: &Function, what: &str) -> Result<KernelStats, SimError> {
    assert_engines_agree(
        f,
        GpuConfig::default(),
        &LaunchConfig::linear(1, 40),
        &[vec![-1; 40]],
        &[],
        what,
    )
}

#[test]
fn phi_errors_and_resurrected_lanes_match_the_reference() {
    let jump = |b: &mut FunctionBuilder<'_>, x| b.jump(x);
    let no_incoming = |p: &str| {
        Err(SimError::UndefValue(format!(
            "phi in x has no incoming for predecessor {p}"
        )))
    };

    // A join whose second φ lacks one arm's incoming. The reference scans
    // φ-major, lane-minor, so the first lane of the lacking arm names it:
    // lane 1 (odd, from `t`) in one kernel, lane 0 (from `e`) in the other,
    // after the first φ has resolved both buckets cleanly.
    for (kept, lacking) in [(1, "t"), (0, "e")] {
        let f = interleaved_join(jump, |b, [t, e, _], vt, ve| {
            let whole = b.phi(Type::I32, &[(t, vt), (e, ve)]);
            let arm = [(t, vt), (e, ve)][kept];
            let gap = b.phi(Type::I32, &[arm]);
            b.add(whole, gap)
        });
        assert_eq!(
            run_provenance(&f, &format!("phi lacking {lacking}")),
            no_incoming(lacking)
        );
    }

    // A φ in the entry block, fed only by a back edge: every lane reaches
    // it before executing any terminator.
    let mut f = Function::new("orphan", vec![PTR], Type::Void);
    let entry = f.entry();
    let [body, exit] = ["body", "exit"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let round = b.phi(Type::I32, &[(body, Value::I32(1))]);
    let tid = b.thread_idx(Dim::X);
    let more = b.icmp(IcmpPred::Slt, round, tid);
    b.br(more, body, exit);
    b.switch_to(body);
    b.jump(entry);
    b.switch_to(exit);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(round, p);
    b.ret(None);
    assert_eq!(
        run_provenance(&f, "phi with no predecessor"),
        Err(SimError::UndefValue(
            "phi in block entry executed with no predecessor".into()
        ))
    );

    // A then-arm ending in a `ret` that names the join as its successor:
    // the CFG (and so the post-dominator tree) sees a diamond, the machine
    // sees odd lanes return. The join's reconvergence entry still holds
    // them, so they are resurrected there and its φ reads the provenance
    // recorded at the `ret` — `t`'s value when the φ has one, the lacking
    // incoming's error when it does not.
    let ret_into = |b: &mut FunctionBuilder<'_>, x| {
        b.emit(InstData::terminator(Opcode::Ret, vec![], vec![x]));
    };
    let f = interleaved_join(ret_into, |b, [t, e, _], vt, ve| {
        b.phi(Type::I32, &[(t, vt), (e, ve)])
    });
    run_provenance(&f, "resurrected lanes").expect("every lane has an incoming");
    let f = interleaved_join(ret_into, |b, [_, e, _], _, ve| b.phi(Type::I32, &[(e, ve)]));
    assert_eq!(
        run_provenance(&f, "resurrected lanes, no incoming"),
        no_incoming("t")
    );
}

// ---- memory accesses off the pre-checked path ----

/// Where one lane of [`access_kernel`]'s access points, the others all
/// reading or writing their own element of the first buffer.
#[derive(Debug, Clone, Copy)]
enum Odd {
    /// `shift` elements further along (the boundary, past it, far off).
    Shifted,
    /// Its element of the block's shared array: one access, two stores.
    Shared,
    /// Its element of the first buffer, but the stored value undefined.
    UndefValue,
}

/// `f(out, in, bad, shift)`: one access of `ty` per lane at element `tid`
/// (of type `elem`) of `out` (a store of `tid`) or of `in` (a load, copied
/// to `out[tid]`), except that lane `tid == bad` is made `odd`. With
/// `sparse`, only odd lanes run the access, inside a divergent arm.
fn access_kernel(store: bool, ty: Type, elem: Type, odd: Odd, sparse: bool) -> Function {
    let mut f = Function::new("access", vec![PTR, PTR, Type::I32, Type::I32], Type::Void);
    let tile = f.add_shared_array("tile", Type::I64, 48);
    let entry = f.entry();
    let [arm, done] = ["arm", "done"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    if sparse {
        let bit = b.and(tid, b.const_i32(1));
        let c = b.icmp(IcmpPred::Ne, bit, b.const_i32(0));
        b.br(c, arm, done);
    } else {
        b.jump(arm);
    }
    b.switch_to(arm);
    let is_bad = b.icmp(IcmpPred::Eq, tid, b.param(2));
    let shift = match odd {
        Odd::Shifted => b.param(3),
        _ => b.const_i32(0),
    };
    let off = b.select(is_bad, shift, b.const_i32(0));
    let idx = b.add(tid, off);
    let base = b.param(if store { 0 } else { 1 });
    let mut p = b.gep(elem, base, idx);
    if let Odd::Shared = odd {
        let tile = b.shared_base(tile);
        let shared = b.gep(elem, tile, idx);
        p = b.select(is_bad, shared, p);
    }
    let value = |b: &mut FunctionBuilder<'_>, v: Value| match ty {
        Type::I64 => b.sext(v, Type::I64),
        _ => v,
    };
    if store {
        let mut v = value(&mut b, tid);
        if let Odd::UndefValue = odd {
            v = b.select(is_bad, Value::Undef(ty), v);
        }
        b.store(v, p);
    } else {
        let x = b.load(ty, p);
        let q = b.gep(ty, b.param(0), tid);
        b.store(x, q);
    }
    b.jump(done);
    b.switch_to(done);
    b.ret(None);
    f
}

#[test]
fn a_failing_access_fails_at_the_reference_lane() {
    // 40 lanes — a full warp and a tail warp — over 80-word buffers: an
    // `i32` element 80 and an `i64` element 40 are the first past the end,
    // and so is an `i64` at `i32` element 79, which starts inside the
    // buffer (those accesses overlap, so lane order decides each word).
    let mut cases = 0;
    for store in [true, false] {
        let kinds = [
            (Type::I32, Type::I32, 80),
            (Type::I64, Type::I64, 40),
            (Type::I64, Type::I32, 79),
        ];
        for (ty, elem, len) in kinds {
            for sparse in [false, true] {
                for bad in [0, 1, 5, 19, 31, 33, 39] {
                    let shifts = [len - 1 - bad, len - bad, 1 << 20, -bad - 1];
                    let runs = shifts
                        .iter()
                        .map(|&s| (Odd::Shifted, s))
                        .chain([(Odd::Shared, 0), (Odd::UndefValue, 0)]);
                    for (odd, shift) in runs {
                        let f = access_kernel(store, ty, elem, odd, sparse);
                        let what = format!(
                            "store {store}, {ty} at {elem}, sparse {sparse}, lane {bad} {odd:?} {shift}"
                        );
                        let input: Vec<i32> = (0..80).map(|x| x * 7 + 1).collect();
                        let got = assert_engines_agree(
                            &f,
                            GpuConfig::default(),
                            &LaunchConfig::linear(1, 40),
                            &[vec![-1; 80], input],
                            &[bad, shift],
                            &what,
                        );
                        // The odd lane runs unless the arm leaves it out;
                        // the boundary element and the mixed access pass.
                        let runs = !sparse || bad % 2 == 1;
                        let fails = match odd {
                            Odd::Shifted => runs && shift != len - 1 - bad,
                            Odd::Shared => false,
                            Odd::UndefValue => runs && store,
                        };
                        assert_eq!(got.is_err(), fails, "{what}: {got:?}");
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 2 * 3 * 2 * 7 * 6);
}

// ---- (d) ill-typed input ----

fn raw(b: &mut FunctionBuilder<'_>, opcode: Opcode, ty: Type, ops: Vec<Value>) -> Value {
    Value::Inst(b.emit(InstData::new(opcode, ty, ops)))
}

/// Removes the first instruction of `opcode` in `block`.
fn remove_first(f: &mut Function, block: BlockId, opcode: Opcode) {
    let id = f
        .insts_of(block)
        .iter()
        .copied()
        .find(|&i| f.inst(i).opcode == opcode)
        .expect("instruction to remove exists");
    f.remove_inst(id);
}

#[test]
fn an_ill_typed_function_lowers_and_launches_without_panicking() {
    let mut f = Function::new("bad", vec![PTR, Type::I32], Type::Void);
    let entry = f.entry();
    let [t, e, x, end] = ["t", "e", "x", "end"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let wide = b.sext(tid, Type::I64);
    let fl = b.sitofp(tid);
    // Mixed widths, a float shift, a select on a non-i1, a one-operand add,
    // a value-producing opcode typed void, a compare across types.
    let mixed = raw(&mut b, Opcode::Add, Type::I32, vec![tid, wide]);
    let fshift = raw(&mut b, Opcode::Shl, Type::F32, vec![fl, fl]);
    let sel = raw(&mut b, Opcode::Select, Type::I32, vec![tid, tid, mixed]);
    let short = raw(&mut b, Opcode::Add, Type::I32, vec![tid]);
    raw(&mut b, Opcode::Mul, Type::Void, vec![tid, tid]);
    raw(&mut b, Opcode::Icmp(IcmpPred::Slt), Type::I1, vec![tid, fl]);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.store(sel, p);
    let c = b.icmp(IcmpPred::Slt, tid, b.const_i32(8));
    b.br(c, t, e);
    b.switch_to(t);
    b.jump(x);
    b.switch_to(e);
    b.jump(x);
    b.switch_to(x);
    // φs whose incomings disagree with their type, a store through an
    // integer, a load through a float, a branch on an i32.
    let phi = b.phi(Type::I32, &[(t, wide), (e, fshift)]);
    let sum = b.add(phi, short);
    b.emit(InstData::new(Opcode::Store, Type::Void, vec![sum, tid]));
    raw(&mut b, Opcode::Load, Type::I32, vec![fl]);
    b.emit(InstData::terminator(Opcode::Br, vec![tid], vec![end, end]));
    b.switch_to(end);
    b.ret(None);
    assert!(f.verify_structure().is_err());

    // Each ill-typed use that is an error in the reference's terms stops
    // the launch with that error; removing it exposes the next.
    let mut gpu = Gpu::new(GpuConfig::default());
    let out = gpu.alloc_i32(&[0; 32]);
    let args = [KernelArg::Buffer(out), KernelArg::I32(3)];
    let mut run = |f: &Function| gpu.launch(f, &LaunchConfig::linear(1, 32), &args);
    let undef = |what: &str| Err(SimError::UndefValue(what.into()));
    assert_eq!(run(&f), undef("stored value"));
    remove_first(&mut f, entry, Opcode::Store);
    assert_eq!(run(&f), undef("store address"));
    remove_first(&mut f, x, Opcode::Store);
    assert_eq!(run(&f), undef("load address"));
    remove_first(&mut f, x, Opcode::Load);
    assert_eq!(run(&f), undef("branch condition in block x"));
}

// ---- warp size ----

#[test]
fn warp_size_is_validated_before_anything_else() {
    let f = diamond_in_loop();
    for warp_size in [0, 1, 4, 32, 64, 65] {
        let config = GpuConfig {
            warp_size,
            ..GpuConfig::default()
        };
        let got = assert_engines_agree(
            &f,
            config,
            &LaunchConfig::linear(2, 33),
            &[vec![0; 33]],
            &[],
            &format!("warp size {warp_size}"),
        );
        if (1..=64).contains(&warp_size) {
            got.expect("valid warp sizes run");
        } else {
            assert_eq!(got, Err(SimError::BadWarpSize(warp_size)));
            // It outranks a bad argument list on both engines.
            let mut gpu = Gpu::new(config);
            let launch = LaunchConfig::linear(1, 8);
            let bk = BytecodeKernel::new(&f);
            assert_eq!(gpu.launch_bytecode(&bk, &launch, &[]), got);
            assert_eq!(gpu.launch_reference(&f, &launch, &[]), got);
        }
    }
}

/// A timed launch at an issue width of 0 — a warp instruction that would
/// occupy no issue slot — is turned away on both engines, after a bad warp
/// size and before a bad argument list; untimed, the width is never read.
#[test]
fn a_zero_issue_width_is_rejected_when_timing_is_on() {
    let f = diamond_in_loop();
    let launch = LaunchConfig::linear(2, 33);
    for (enabled, warp_size) in [(true, 32), (false, 32), (true, 0)] {
        let config = GpuConfig {
            warp_size,
            timing: TimingConfig {
                enabled,
                issue_width: 0,
            },
            ..GpuConfig::default()
        };
        let what = format!("timing {enabled}, warp size {warp_size}");
        let got = assert_engines_agree(&f, config, &launch, &[vec![0; 66]], &[], &what);
        let want = match (enabled, warp_size) {
            (_, 0) => Err(SimError::BadWarpSize(0)),
            (true, _) => Err(SimError::BadIssueWidth),
            (false, _) => got.clone(),
        };
        assert_eq!(got, want, "{what}");
        if enabled {
            let mut gpu = Gpu::new(config);
            let bk = BytecodeKernel::new(&f);
            assert_eq!(gpu.launch_bytecode(&bk, &launch, &[]), want, "{what}");
            assert_eq!(gpu.launch_reference(&f, &launch, &[]), want, "{what}");
        } else {
            got.expect("an untimed launch never reads the width");
        }
    }
}

// ---- thread index ----

/// `tid.x` and `tid.y` on both engines under a full mask and under a
/// sparse one, in blocks whose rows are one thread wide, narrower than a
/// warp, a warp wide and wider than one: the engine places a warp's first
/// lane by division and steps along the row from there.
#[test]
fn thread_indices_agree_on_every_row_width_and_mask() {
    let mut f = Function::new("tids", vec![PTR], Type::Void);
    let entry = f.entry();
    let [arm, join] = ["arm", "join"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let (x, y) = (b.thread_idx(Dim::X), b.thread_idx(Dim::Y));
    let width = b.block_dim(Dim::X);
    let row = b.mul(y, width);
    let t = b.add(row, x);
    let out = b.gep(Type::I32, b.param(0), t);
    let full = b.add(t, b.const_i32(1 << 20));
    b.store(full, out);
    // Lanes 0, 3, 5, 6, 9, … of every eight: a mask with gaps of 1 to 3.
    let spread = b.mul(t, b.const_i32(5));
    let low = b.and(spread, b.const_i32(3));
    let taken = b.icmp(IcmpPred::Ne, low, b.const_i32(2));
    let odd = b.and(t, b.const_i32(1));
    let sparse = b.icmp(IcmpPred::Eq, odd, b.const_i32(0));
    let both = b.and(taken, sparse);
    b.br(both, arm, join);
    b.switch_to(arm);
    let (x, y) = (b.thread_idx(Dim::X), b.thread_idx(Dim::Y));
    let high = b.mul(y, b.const_i32(1000));
    let v = b.add(high, x);
    b.store(v, out);
    b.jump(join);
    b.switch_to(join);
    b.ret(None);
    f.verify_structure().expect("the kernel is well-formed");
    let rows = [
        (1, 40),
        (3, 21),
        (7, 9),
        (32, 2),
        (40, 3),
        (64, 1),
        (100, 3),
    ];
    for block in rows {
        let launch = LaunchConfig::grid2d((2, 1), block);
        let out = [vec![-1; (block.0 * block.1) as usize]];
        let what = format!("block {block:?}");
        assert_engines_agree(&f, GpuConfig::default(), &launch, &out, &[], &what)
            .expect("the kernel runs");
    }
}

// ---- block size ----

/// A block of more than 1024 threads (the CUDA/HIP per-block limit) is a
/// bad argument on both engines, one whose `x · y` overflows a `u32` too.
/// It is turned away before anything is allocated for the block, ahead of
/// a bad argument list; a bad warp size still comes first.
#[test]
fn blocks_over_1024_threads_are_bad_args_on_both_engines() {
    let f = diamond_in_loop();
    let out = [vec![0; 1024]];
    let full = LaunchConfig::grid2d((1, 1), (32, 32));
    assert_engines_agree(&f, GpuConfig::default(), &full, &out, &[], "1024 threads")
        .expect("a block of 1024 threads runs");
    for (block, threads) in [((1025, 1), 1025u64), ((65536, 65536), 1 << 32)] {
        let launch = LaunchConfig::grid2d((1, 1), block);
        let what = format!("{threads} threads");
        let got = assert_engines_agree(&f, GpuConfig::default(), &launch, &out, &[], &what);
        let want = Err(SimError::BadArgs(format!(
            "a block of {threads} threads exceeds the limit of 1024"
        )));
        assert_eq!(got, want, "{what}");
        let mut gpu = Gpu::new(GpuConfig::default());
        let bk = BytecodeKernel::new(&f);
        assert_eq!(gpu.launch_bytecode(&bk, &launch, &[]), want, "{what}");
        assert_eq!(gpu.launch_reference(&f, &launch, &[]), want, "{what}");
        let bad_warp = GpuConfig {
            warp_size: 0,
            ..GpuConfig::default()
        };
        let got = assert_engines_agree(&f, bad_warp, &launch, &out, &[], &what);
        assert_eq!(got, Err(SimError::BadWarpSize(0)), "{what}");
    }
}
