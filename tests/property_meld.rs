//! Property-based testing of the whole pipeline: random divergent kernels
//! are melded (DARM and branch fusion) and must keep their simulator
//! semantics bit-for-bit, stay verifier-clean, and never hang.

use darm::analysis::verify_ssa;
use darm::kernels::gen::{self, Arms, Divergence, KernelSpec, Rng, Shape};
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

/// The shapes in which one fixpoint round melds several regions at once:
/// many rungs in sequence, each rung's join being the next rung's branch
/// block — plain diamonds, diamonds holding an inner data-dependent
/// diamond, a ladder in a loop whose trip count depends on the thread id,
/// compare-exchange stages (after the meld the two copied φs are one, and
/// the exit φ's select over them must fold), and an if-then region against
/// a single block (every rung melds by region replication). Each with the
/// operations per arm it is generated with.
const SHAPES: [(Shape, usize); 5] = [
    (Shape::Ladder, 4),
    (Shape::NestedLadder, 7),
    (Shape::LoopLadder, 4),
    (Shape::CmpXchg, 5),
    (Shape::IfThenVsBlock, 4),
];

/// `out[gid] = shape(in[gid], in[gid ^ 1])` with `rungs` similar-armed
/// rungs on thread-id bits in sequence; `seed` picks the constants.
fn generate((shape, arm_len): (Shape, usize), rungs: usize, seed: u64) -> Function {
    let spec = KernelSpec {
        shape,
        rungs,
        arm_len,
        arms: Arms::Similar,
        divergence: Divergence::Tid,
        uniform_third: false,
    };
    gen::build_kernel("rungs", spec, &mut Rng::new(seed))
}

/// Runs `func(in, out, 0)` on the reference interpreter.
fn run_reference(func: &Function, input: &[i32]) -> Vec<i32> {
    let mut gpu = Gpu::new(GpuConfig::default());
    let src = gpu.alloc_i32(input);
    let dst = gpu.alloc_i32(&vec![0; input.len()]);
    gpu.launch_reference(
        func,
        &LaunchConfig::linear(1, input.len() as u32),
        &[
            KernelArg::Buffer(src),
            KernelArg::Buffer(dst),
            KernelArg::I32(0),
        ],
    )
    .unwrap_or_else(|e| panic!("simulation failed: {e}\n{func}"));
    gpu.read_i32(dst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// What a batched round newly exercises — several regions melded
    /// against one unchanged function before any cleanup — keeps its
    /// semantics on the reference interpreter in every shape and mode, with
    /// SSA verified after the pass and after every inner cleanup pass; and
    /// no run stops at the round cap.
    #[test]
    fn batched_rounds_preserve_semantics(rungs in 12usize..17, salt in 0i32..400) {
        let input: Vec<i32> = (0..64).map(|i| (i * 37 + salt) % 251 - 120).collect();
        for shape in SHAPES {
            let func = generate(shape, rungs, salt as u64);
            verify_ssa(&func).expect("generated kernel must verify");
            let expected = run_reference(&func, &input);
            for mode in [MeldMode::Darm, MeldMode::BranchFusion] {
                let mut melded = func.clone();
                let options = PipelineOptions { verify_each: true, ..PipelineOptions::default() };
                let config = MeldConfig { mode, ..MeldConfig::default() };
                let report = darm::melding::registry(&config)
                    .build("meld", options)
                    .expect("spec parses")
                    .run(&mut melded)
                    .unwrap_or_else(|e| panic!("{shape:?} x {rungs}, {mode:?}: {e}"));
                let stats = MeldStats::from_report(&report);
                if mode == MeldMode::Darm {
                    prop_assert!(stats.melded_regions >= rungs, "{:?}: {:?}", shape, stats);
                    let replicated = shape.0 == Shape::IfThenVsBlock;
                    prop_assert_eq!(stats.replications, if replicated { rungs } else { 0 });
                }
                prop_assert!(
                    report.passes[0].stats.contains(&(darm::melding::CAP_HITS_STAT, 0)),
                    "{:?}", report.passes[0].stats
                );
                let got = run_reference(&melded, &input);
                prop_assert_eq!(got, &expected[..], "{:?}, {:?}\n{}", shape, mode, melded);
            }
        }
    }
}

/// Melded output is a fixpoint of the cleanup pipeline, for the last region
/// melded as for the first: a fresh `ssa-repair, instcombine, simplify, dce`
/// over it — every pass looking at the whole function — mutates nothing.
#[test]
fn melded_output_is_a_cleanup_fixpoint() {
    use darm::ir::WindowProbe;

    for mode in [MeldMode::Darm, MeldMode::BranchFusion] {
        let config = MeldConfig {
            mode,
            ..MeldConfig::default()
        };
        for mut f in paper_kernels_and_shapes() {
            if meld_function(&mut f, &config).melded_regions == 0 {
                // Untouched: the input is whatever its author left.
                continue;
            }
            let melded = f.to_string();
            let before = f.journal_head();
            PassRegistry::with_transforms()
                .build(
                    "ssa-repair,instcombine,simplify,dce",
                    PipelineOptions::default(),
                )
                .expect("spec parses")
                .run(&mut f)
                .expect("cleanup runs");
            assert_eq!(
                f.probe_since(before),
                WindowProbe::Clean,
                "{mode:?}: a second cleanup found work\n--- melded\n{melded}\n--- cleaned again\n{f}"
            );
        }
    }
}

/// A divergent branch between an if-then that falls straight into the
/// exit — two edges into it, so detection needs a landing pad — and a
/// single block; the exit has no φ for the pad to carry.
fn if_then_into_the_exit_kernel() -> Function {
    let mut f = Function::new("pad", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let [a, a1, c, x] = ["a", "a1", "c", "x"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    let parity = b.and(tid, Value::I32(1));
    let odd = b.icmp(IcmpPred::Ne, parity, Value::I32(0));
    b.br(odd, a, c);
    b.switch_to(a);
    let v = b.load(Type::I32, p);
    let positive = b.icmp(IcmpPred::Sgt, v, Value::I32(0));
    b.br(positive, a1, x);
    b.switch_to(a1);
    let w = b.mul(v, Value::I32(3));
    b.store(w, p);
    b.jump(x);
    b.switch_to(c);
    let s = b.xor(tid, Value::I32(5));
    b.store(s, p);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);
    f
}

/// The pass is idempotent in the journal's terms: a second run over what
/// the first left mutates nothing, so `fixpoint(meld)` stops after its
/// confirming round — also where the first run inserted a landing pad,
/// found the region it uncovers below the threshold and took the pad back.
#[test]
fn fixpoint_of_meld_settles_in_two_rounds() {
    let rounds = |f: &mut Function, config: &MeldConfig| {
        let report = darm::melding::registry(config)
            .build("fixpoint(meld)", PipelineOptions::default())
            .expect("spec parses")
            .run(f)
            .expect("pipeline");
        let stats = &report.passes[0].stats;
        let rounds = stats.iter().find(|(k, _)| *k == "rounds");
        rounds.expect("a fixpoint group counts its rounds").1
    };
    for mut f in paper_kernels_and_shapes() {
        let n = rounds(&mut f, &MeldConfig::default());
        assert!(n <= 2, "@{}: {n} rounds", f.name());
    }

    let mut f = if_then_into_the_exit_kernel();
    let unmelded = f.to_string();
    assert_eq!(rounds(&mut f, &MeldConfig::with_threshold(0.99)), 2);
    assert_eq!(f.to_string(), unmelded, "the pad is taken back");
    assert!(meld_function(&mut f, &MeldConfig::default()).replications > 0);
}

/// The 57 paper cases (fig8 + fig9 at every block size) and one kernel of
/// each generated family of this file.
fn paper_kernels_and_shapes() -> Vec<Function> {
    use darm::kernels::synthetic::{build_case, SyntheticKind};
    use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad};

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
    funcs.extend(SHAPES.map(|shape| generate(shape, 12, 5)));
    funcs
}

/// The invariant `MeldPass` skips region simplification on: a divergent
/// branch `detect_region` decomposes is one `simplify_region_entry` leaves
/// untouched (the two share one chain walk) — on the 57 paper kernels and
/// the three shapes above, at every function the melding fixpoint passes
/// through.
#[test]
fn a_detected_region_needs_no_simplification() {
    use darm::melding::region::{detect_region, simplify_region_entry, Analyses};

    let funcs = paper_kernels_and_shapes();

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
