//! Property-based testing of the whole pipeline: random divergent kernels
//! are melded (DARM and branch fusion) and must keep their simulator
//! semantics bit-for-bit, stay verifier-clean, and never hang.

use darm::analysis::verify_ssa;
use darm::melding::{meld_function, MeldConfig};
use darm::prelude::*;
use darm::simt::KernelArg;
use darm::transforms::{run_dce, simplify_cfg};
use proptest::prelude::*;

/// One straight-line operation applied to the running value.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(i32),
    Sub(i32),
    Mul(i32),
    Xor(i32),
    And(i32),
    Or(i32),
    Shl(u8),
    Tid,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-50i32..50).prop_map(Op::Add),
        (-50i32..50).prop_map(Op::Sub),
        (-7i32..7).prop_map(Op::Mul),
        (0i32..1024).prop_map(Op::Xor),
        (0i32..1024).prop_map(Op::And),
        (0i32..1024).prop_map(Op::Or),
        (0u8..4).prop_map(Op::Shl),
        Just(Op::Tid),
    ]
}

/// One side of the divergent branch: a body plus an optional nested
/// data-dependent if-then region (making the side a multi-block subgraph).
#[derive(Debug, Clone)]
struct Side {
    body: Vec<Op>,
    nested: Option<Vec<Op>>,
}

fn side_strategy() -> impl Strategy<Value = Side> {
    (
        proptest::collection::vec(op_strategy(), 1..6),
        proptest::option::of(proptest::collection::vec(op_strategy(), 1..4)),
    )
        .prop_map(|(body, nested)| Side { body, nested })
}

fn emit_ops(b: &mut FunctionBuilder<'_>, tid: Value, mut v: Value, ops: &[Op]) -> Value {
    for op in ops {
        v = match *op {
            Op::Add(k) => b.add(v, Value::I32(k)),
            Op::Sub(k) => b.sub(v, Value::I32(k)),
            Op::Mul(k) => b.mul(v, Value::I32(k)),
            Op::Xor(k) => b.xor(v, Value::I32(k)),
            Op::And(k) => b.and(v, Value::I32(k)),
            Op::Or(k) => b.or(v, Value::I32(k)),
            Op::Shl(k) => b.shl(v, Value::I32(k as i32)),
            Op::Tid => b.add(v, tid),
        };
    }
    v
}

/// Builds `out[tid] = f(tid)` where f diverges on `tid % 2` into the two
/// random sides (each side reads and writes out[tid]).
fn build_kernel(t_side: &Side, f_side: &Side) -> Function {
    let mut f = Function::new("prop", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let join = f.add_block("join");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    let v0 = b.load(Type::I32, p);
    let one = b.const_i32(1);
    let parity = b.and(tid, one);
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    let cur = b.current_block();

    let emit_side = |b: &mut FunctionBuilder<'_>, side: &Side, label: &str| -> BlockId {
        let blk = b.add_block(label);
        b.switch_to(blk);
        let v = emit_ops(b, tid, v0, &side.body);
        b.store(v, p);
        match &side.nested {
            None => {
                b.jump(join);
                blk
            }
            Some(nested) => {
                let then = b.add_block(&format!("{label}.then"));
                let out = b.add_block(&format!("{label}.out"));
                let cc = b.icmp(IcmpPred::Sgt, v, b.const_i32(0));
                b.br(cc, then, out);
                b.switch_to(then);
                let w = emit_ops(b, tid, v, nested);
                b.store(w, p);
                b.jump(out);
                b.switch_to(out);
                b.jump(join);
                blk
            }
        }
    };
    let t_blk = emit_side(&mut b, t_side, "t");
    let f_blk = emit_side(&mut b, f_side, "f");
    b.switch_to(cur);
    b.br(c, t_blk, f_blk);
    b.switch_to(join);
    b.ret(None);
    f
}

fn run(func: &Function, input: &[i32]) -> Vec<i32> {
    let mut gpu = Gpu::new(GpuConfig::default());
    let buf = gpu.alloc_i32(input);
    gpu.launch(
        func,
        &LaunchConfig::linear(1, input.len() as u32),
        &[KernelArg::Buffer(buf)],
    )
    .unwrap_or_else(|e| panic!("simulation failed: {e}\n{func}"));
    gpu.read_i32(buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DARM and branch fusion preserve semantics on arbitrary two-sided
    /// divergent kernels, with or without unpredication, at any threshold.
    #[test]
    fn melding_preserves_semantics(
        t_side in side_strategy(),
        f_side in side_strategy(),
        threshold in prop_oneof![Just(0.1), Just(0.2), Just(0.4)],
        unpredicate in any::<bool>(),
    ) {
        let func = build_kernel(&t_side, &f_side);
        verify_ssa(&func).expect("generated kernel must verify");
        let input: Vec<i32> = (0..64).map(|i| (i * 31 % 97) - 48).collect();
        let expected = run(&func, &input);

        for mode in [MeldMode::Darm, MeldMode::BranchFusion] {
            let mut melded = func.clone();
            let cfg = MeldConfig { mode, threshold, unpredicate, ..MeldConfig::default() };
            meld_function(&mut melded, &cfg);
            verify_ssa(&melded)
                .unwrap_or_else(|e| panic!("melded kernel fails verification: {e}\n{melded}"));
            let got = run(&melded, &input);
            prop_assert_eq!(&got, &expected, "mode {:?} changed semantics\n{}", mode, melded);
        }
    }

    /// The cleanup pipeline alone (simplify-cfg + DCE) is also semantics
    /// preserving on the same kernel family.
    #[test]
    fn cleanup_preserves_semantics(t_side in side_strategy(), f_side in side_strategy()) {
        let func = build_kernel(&t_side, &f_side);
        let input: Vec<i32> = (0..64).map(|i| (i * 13 % 89) - 44).collect();
        let expected = run(&func, &input);
        let mut cleaned = func.clone();
        simplify_cfg(&mut cleaned);
        run_dce(&mut cleaned);
        verify_ssa(&cleaned).expect("cleaned kernel must verify");
        let got = run(&cleaned, &input);
        prop_assert_eq!(got, expected);
    }
}

/// Builds a loop-wrapped three-way divergent kernel:
/// `for p in 0..3 { if tid%3==0 {A} else if tid%3==1 {B} else {C} }`
/// with random bodies — exercises melding inside loops and the
/// if-else-if-else (SB4) shape with arbitrary instruction mixes.
fn build_three_way_loop_kernel(a_ops: &[Op], b_ops: &[Op], c_ops: &[Op]) -> Function {
    let mut f = Function::new("prop3", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let hdr = f.add_block("hdr");
    let body = f.add_block("body");
    let a_blk = f.add_block("a");
    let sel = f.add_block("sel");
    let b_blk = f.add_block("b");
    let c_blk = f.add_block("c");
    let latch = f.add_block("latch");
    let exit = f.add_block("exit");
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    b.jump(hdr);
    b.switch_to(hdr);
    let i = b.phi(Type::I32, &[(entry, Value::I32(0))]);
    let hc = b.icmp(IcmpPred::Slt, i, b.const_i32(3));
    b.br(hc, body, exit);
    b.switch_to(body);
    let three = b.const_i32(3);
    let m = b.srem(tid, three);
    let c0 = b.icmp(IcmpPred::Eq, m, b.const_i32(0));
    b.br(c0, a_blk, sel);
    let emit_leaf = |b: &mut FunctionBuilder<'_>, blk: BlockId, ops: &[Op]| {
        b.switch_to(blk);
        let v = b.load(Type::I32, p);
        let w = emit_ops(b, tid, v, ops);
        b.store(w, p);
        b.jump(latch);
    };
    emit_leaf(&mut b, a_blk, a_ops);
    b.switch_to(sel);
    let c1 = b.icmp(IcmpPred::Eq, m, b.const_i32(1));
    b.br(c1, b_blk, c_blk);
    emit_leaf(&mut b, b_blk, b_ops);
    emit_leaf(&mut b, c_blk, c_ops);
    b.switch_to(latch);
    let i2 = b.add(i, b.const_i32(1));
    b.jump(hdr);
    b.switch_to(exit);
    b.ret(None);
    let pi = i.as_inst().unwrap();
    f.inst_mut(pi).operands.push(i2);
    f.inst_mut(pi).phi_blocks.push(latch);
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Loop-wrapped three-way divergence (the SB4 shape) with random
    /// bodies: melding must preserve semantics under every configuration.
    #[test]
    fn three_way_loop_melding_preserves_semantics(
        a_ops in proptest::collection::vec(op_strategy(), 1..5),
        b_ops in proptest::collection::vec(op_strategy(), 1..5),
        c_ops in proptest::collection::vec(op_strategy(), 1..5),
        unpredicate in any::<bool>(),
    ) {
        let func = build_three_way_loop_kernel(&a_ops, &b_ops, &c_ops);
        verify_ssa(&func).expect("generated kernel must verify");
        let input: Vec<i32> = (0..96).map(|i| (i * 17 % 61) - 30).collect();
        let expected = run(&func, &input);
        for mode in [MeldMode::Darm, MeldMode::BranchFusion] {
            let mut melded = func.clone();
            let cfg = MeldConfig { mode, unpredicate, ..MeldConfig::default() };
            meld_function(&mut melded, &cfg);
            verify_ssa(&melded)
                .unwrap_or_else(|e| panic!("melded kernel fails verification: {e}\n{melded}"));
            let got = run(&melded, &input);
            prop_assert_eq!(&got, &expected, "mode {:?} changed semantics\n{}", mode, melded);
        }
    }
}

/// The invariant `MeldPass` skips region simplification on: a divergent
/// branch `detect_region` decomposes is one `simplify_region_entry` leaves
/// untouched (the two share one chain walk) — on the 57 paper kernels and
/// the three shapes above, at every function the melding fixpoint passes
/// through.
#[test]
fn a_detected_region_needs_no_simplification() {
    use darm::kernels::synthetic::{build_case, SyntheticKind};
    use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad};
    use darm::melding::region::{detect_region, simplify_region_entry, Analyses};

    let mut funcs = Vec::new();
    for bs in [32, 64, 128, 256] {
        funcs.extend(SyntheticKind::all().map(|kind| build_case(kind, bs).func));
        funcs.extend(
            [bitonic::build_case, pcm::build_case, mergesort::build_case].map(|f| f(bs).func),
        );
    }
    funcs.extend([16, 32, 64, 128].map(|bs| lud::build_case(bs).func));
    funcs.extend([64, 96, 128, 256].map(|bs| nqueens::build_case(bs).func));
    funcs.extend([(16, 16), (32, 32)].map(|b| srad::build_case(b).func));
    funcs.extend([(4, 4), (8, 8), (16, 16)].map(|b| dct::build_case(b).func));
    assert_eq!(funcs.len(), 57);
    let ops = [Op::Mul(3), Op::Add(7), Op::Tid];
    let side = |nested: bool| Side {
        body: ops.to_vec(),
        nested: nested.then(|| ops[..2].to_vec()),
    };
    funcs.push(build_kernel(&side(false), &side(false)));
    funcs.push(build_kernel(&side(true), &side(false)));
    funcs.push(build_three_way_loop_kernel(&ops, &ops[1..], &ops[..2]));

    let one_round = MeldConfig {
        max_iterations: 1,
        ..MeldConfig::default()
    };
    let mut detected = 0;
    for mut f in funcs {
        // One fixpoint round per step, until a round changes nothing.
        for _ in 0..=MeldConfig::default().max_iterations {
            let before = f.to_string();
            let a = Analyses::new(&f);
            for b in f.block_ids() {
                if detect_region(&f, &a, b).is_some() {
                    let mut g = f.clone();
                    assert!(!simplify_region_entry(&mut g, &a, b), "{before}");
                    assert_eq!(g.to_string(), before);
                    detected += 1;
                }
            }
            meld_function(&mut f, &one_round);
            if f.to_string() == before {
                break;
            }
        }
    }
    assert!(detected > 60, "only {detected} regions detected");
}
