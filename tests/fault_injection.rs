//! Deterministic fault-injection properties for the module driver's
//! containment boundary (requires `--features fault-injection`).
//!
//! Each case arms one [`FaultPlan`] — a site × kind × per-function hit
//! count drawn from the real injection points spread across melding,
//! the cleanup transforms and the analysis manager — and melds a module
//! of generated kernels under [`OnError::Degrade`]. The invariants:
//!
//! * the run itself succeeds — no fault escapes the boundary;
//! * every degraded function's IR is bit-identical to its input;
//! * every optimized function's IR is bit-identical to the fault-free
//!   reference run;
//! * no lock is poisoned — a clean run right after a contained panic
//!   behaves as if the fault never happened.
//!
//! The fault plan is process-global, so every test serializes on
//! [`PLAN_LOCK`] and disarms the plan before releasing it.

#![cfg(feature = "fault-injection")]

use darm::ir::fault::{self, FaultKind, FaultPlan};
use darm::ir::Budget;
use darm::pipeline::{ModuleReport, OnError};
use darm::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that mutate the process-global fault plan.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// Every site a plan may arm. Sites a kernel never reaches (a
/// straight-line function has no meld region) simply never fire —
/// the function must then match the fault-free run exactly.
const SITES: [&str; 8] = [
    "meld::plan",
    "meld::score",
    "meld::codegen",
    "transforms::simplify",
    "transforms::dce",
    "transforms::instcombine",
    "transforms::ssa-repair",
    "analysis::compute",
];

const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::Error, FaultKind::FuelExhaust];

/// One generated kernel: either a meldable divergent diamond (the two
/// sides disagree on their multiply/add constants) or a straight-line
/// body that never enters the melder's planning path.
#[derive(Debug, Clone, Copy)]
struct Shape {
    diamond: bool,
    mul_t: i32,
    add_t: i32,
    mul_f: i32,
    add_f: i32,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (any::<bool>(), 2i32..9, -50i32..50, 2i32..9, -50i32..50).prop_map(
        |(diamond, mul_t, add_t, mul_f, add_f)| Shape {
            diamond,
            mul_t,
            add_t,
            mul_f,
            add_f,
        },
    )
}

fn build_function(name: &str, s: Shape) -> Function {
    let mut f = Function::new(name, vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    if !s.diamond {
        let v = b.mul(tid, Value::I32(s.mul_t));
        let v = b.add(v, Value::I32(s.add_t));
        b.store(v, p);
        b.ret(None);
        return f;
    }
    let parity = b.and(tid, b.const_i32(1));
    let c = b.icmp(IcmpPred::Eq, parity, b.const_i32(0));
    let cur = b.current_block();
    let join = b.add_block("x");
    let t_blk = b.add_block("t");
    b.switch_to(t_blk);
    let v = b.mul(tid, Value::I32(s.mul_t));
    let v = b.add(v, Value::I32(s.add_t));
    b.store(v, p);
    b.jump(join);
    let f_blk = b.add_block("e");
    b.switch_to(f_blk);
    let v = b.mul(tid, Value::I32(s.mul_f));
    let v = b.add(v, Value::I32(s.add_f));
    b.store(v, p);
    b.jump(join);
    b.switch_to(cur);
    b.br(c, t_blk, f_blk);
    b.switch_to(join);
    b.ret(None);
    f
}

fn build_module(shapes: &[Shape]) -> Module {
    let mut module = Module::new("fault_prop");
    for (i, &s) in shapes.iter().enumerate() {
        module
            .add_function(build_function(&format!("f{i}"), s))
            .unwrap();
    }
    module
}

/// Melds `module` in place under `OnError::Degrade` with the CLI's
/// default spec. A limited (but effectively infinite) fuel budget is
/// installed when the armed kind needs one to trip —
/// [`FaultKind::FuelExhaust`] is a no-op against an unlimited budget.
fn meld_module(module: &mut Module, jobs: usize, with_budget: bool) -> ModuleReport {
    let registry = darm::melding::registry(&MeldConfig::default());
    let mut pipeline = PipelineOptions::default();
    if with_budget {
        pipeline.budget = Budget::new(None, Some(1 << 40));
    }
    let options = ModuleOptions {
        pipeline,
        jobs,
        on_error: OnError::Degrade,
    };
    let mpm = ModulePassManager::new(&registry, "meld", options).unwrap();
    mpm.run(module)
        .expect("degrade mode must contain the fault")
}

fn printed(module: &Module) -> Vec<String> {
    module.functions().iter().map(|f| f.to_string()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline containment property, over random modules × plans ×
    /// worker counts.
    #[test]
    fn degraded_functions_keep_baseline_ir_and_the_rest_match_the_clean_run(
        shapes in proptest::collection::vec(shape_strategy(), 2..5),
        site_idx in 0usize..SITES.len(),
        hit in 1u64..4,
        kind_idx in 0usize..KINDS.len(),
        jobs in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let kind = KINDS[kind_idx];
        let with_budget = kind == FaultKind::FuelExhaust;
        let module = build_module(&shapes);
        let baseline = printed(&module);

        fault::set_plan(None);
        let mut reference = module.clone();
        let clean_report = meld_module(&mut reference, 1, with_budget);
        prop_assert_eq!(clean_report.degraded_count(), 0);
        let clean = printed(&reference);

        fault::set_plan(Some(FaultPlan {
            site: SITES[site_idx].to_string(),
            hit,
            kind,
        }));
        let mut faulted = module.clone();
        let report = meld_module(&mut faulted, jobs, with_budget);
        fault::set_plan(None);

        prop_assert_eq!(report.functions.len(), module.len());
        for (i, func) in faulted.functions().iter().enumerate() {
            let ir = func.to_string();
            if report.functions[i].outcome.is_degraded() {
                prop_assert_eq!(
                    &ir, &baseline[i],
                    "degraded @{} must keep its pre-pipeline IR", func.name()
                );
            } else {
                prop_assert_eq!(
                    &ir, &clean[i],
                    "optimized @{} must match the fault-free run", func.name()
                );
            }
        }
    }
}

/// Which functions fault is a per-function property (hit counters reset
/// at each function), so the degraded set and every function's IR are
/// identical between a serial and a four-worker run.
#[test]
fn unwind_faults_degrade_deterministically_across_worker_counts() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shapes: Vec<Shape> = (0..6)
        .map(|i| Shape {
            diamond: i % 2 == 0,
            mul_t: 3 + i,
            add_t: 10 + i,
            mul_f: 5 + i,
            add_f: 77 - i,
        })
        .collect();
    let module = build_module(&shapes);
    for kind in [FaultKind::Panic, FaultKind::Error] {
        fault::set_plan(Some(FaultPlan {
            site: "meld::codegen".to_string(),
            hit: 1,
            kind,
        }));
        let mut serial = module.clone();
        let serial_report = meld_module(&mut serial, 1, false);
        let mut parallel = module.clone();
        let parallel_report = meld_module(&mut parallel, 4, false);
        fault::set_plan(None);

        // Only the diamonds reach codegen; the straight-line functions
        // must come out optimized.
        let degraded = |r: &ModuleReport| -> Vec<String> {
            r.degraded().map(|(name, _)| name.to_string()).collect()
        };
        assert_eq!(degraded(&serial_report), vec!["f0", "f2", "f4"]);
        assert_eq!(degraded(&serial_report), degraded(&parallel_report));
        assert_eq!(printed(&serial), printed(&parallel));
    }
}

/// A contained panic poisons nothing: an immediately following clean run
/// through a fresh manager optimizes every function, bit-identical to a
/// run that never saw a fault.
#[test]
fn no_state_leaks_across_a_contained_panic() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shapes: Vec<Shape> = (0..4)
        .map(|i| Shape {
            diamond: true,
            mul_t: 3 + i,
            add_t: 10,
            mul_f: 5,
            add_f: 77 + i,
        })
        .collect();
    let module = build_module(&shapes);

    fault::set_plan(None);
    let mut reference = module.clone();
    meld_module(&mut reference, 4, false);

    fault::set_plan(Some(FaultPlan {
        site: "transforms::dce".to_string(),
        hit: 1,
        kind: FaultKind::Panic,
    }));
    let mut faulted = module.clone();
    let report = meld_module(&mut faulted, 4, false);
    assert_eq!(report.degraded_count(), 4);
    fault::set_plan(None);

    let mut after = module.clone();
    let clean_report = meld_module(&mut after, 4, false);
    assert_eq!(clean_report.degraded_count(), 0);
    assert_eq!(printed(&after), printed(&reference));
}

/// `OnError::Fail` surfaces an injected panic as a typed
/// [`PipelineError::Fault`] naming the earliest faulting function.
#[test]
fn fail_mode_reports_the_injected_fault_as_a_diagnostic() {
    use darm::pipeline::PipelineError;

    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shapes = [
        Shape {
            diamond: false,
            mul_t: 3,
            add_t: 1,
            mul_f: 0,
            add_f: 0,
        },
        Shape {
            diamond: true,
            mul_t: 3,
            add_t: 10,
            mul_f: 5,
            add_f: 77,
        },
    ];
    let mut module = build_module(&shapes);
    fault::set_plan(Some(FaultPlan {
        site: "meld::plan".to_string(),
        hit: 1,
        kind: FaultKind::Panic,
    }));
    let registry = darm::melding::registry(&MeldConfig::default());
    let options = ModuleOptions {
        pipeline: PipelineOptions::default(),
        jobs: 1,
        on_error: OnError::Fail,
    };
    let mpm = ModulePassManager::new(&registry, "meld", options).unwrap();
    let err = mpm.run(&mut module).unwrap_err();
    fault::set_plan(None);
    match err {
        PipelineError::Fault(diag) => {
            assert_eq!(diag.function, "f1");
            assert_eq!(diag.site.as_deref(), Some("meld::plan"));
        }
        other => panic!("expected a fault diagnostic, got: {other}"),
    }
}

/// A fault raised in the meld pass is blamed on the meld pass — also once
/// its inner cleanup pipeline has run (the second round's codegen) and
/// left its own pass names behind, and also inside a `fixpoint(...)`
/// group. A fault raised *in* a cleanup pass keeps that pass's name.
#[test]
fn a_fault_after_the_inner_cleanup_ran_still_names_the_outer_pass() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // A meldable diamond inside one arm of another: the inner one melds in
    // the first round, the outer one — a diamond only once the inner one
    // is gone — in the second, so `meld::codegen` is reached twice with a
    // cleanup in between.
    let mut f = Function::new("two", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let names = ["t", "it", "ie", "ij", "e", "x"];
    let [t, it, ie, ij, e, x] = names.map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let bit_clear = |b: &mut FunctionBuilder<'_>, bit: i32| {
        let masked = b.and(tid, b.const_i32(bit));
        b.icmp(IcmpPred::Eq, masked, b.const_i32(0))
    };
    let c = bit_clear(&mut b, 1);
    b.br(c, t, e);
    b.switch_to(t);
    let c = bit_clear(&mut b, 2);
    b.br(c, it, ie);
    for (arm, k, join) in [(it, 3, ij), (ie, 5, ij), (e, 7, x)] {
        b.switch_to(arm);
        let v = b.mul(tid, b.const_i32(k));
        let v = b.add(v, b.const_i32(k + 7));
        let p = b.gep(Type::I32, b.param(0), tid);
        b.store(v, p);
        b.jump(join);
    }
    b.switch_to(ij);
    b.jump(x);
    b.switch_to(x);
    b.ret(None);
    let mut module = Module::new("two_melds");
    module.add_function(f).unwrap();

    let registry = darm::melding::registry(&MeldConfig::default());
    let clean = ModulePassManager::compile(
        &registry,
        "meld",
        ModuleOptions::serial(PipelineOptions::default()),
        &mut module.clone(),
    )
    .expect("clean run");
    let stats = MeldStats::from_report(&clean.functions[0].report);
    assert_eq!((stats.melded_regions, stats.iterations), (2, 3));
    for (spec, site, hit, pass) in [
        ("meld", "meld::codegen", 1, "meld"),
        ("meld", "meld::codegen", 2, "meld"),
        ("fixpoint(meld)", "meld::codegen", 2, "meld"),
        ("meld", "transforms::dce", 1, "dce"),
    ] {
        fault::set_plan(Some(FaultPlan {
            site: site.to_string(),
            hit,
            kind: FaultKind::Panic,
        }));
        let options = ModuleOptions {
            pipeline: PipelineOptions::default(),
            jobs: 1,
            on_error: OnError::Degrade,
        };
        let report = ModulePassManager::compile(&registry, spec, options, &mut module.clone());
        fault::set_plan(None);
        let report = report.expect("degrade contains the fault");
        let (_, diag) = report.degraded().next().expect("the function degrades");
        assert_eq!(
            diag.to_string(),
            format!("@two: pass '{pass}': panicked: injected fault (at {site})"),
            "{spec}, {site}#{hit}"
        );
    }
}

/// Faults keep region granularity inside a round: `meld::codegen` fires
/// once per applied region, so a plan can hit the k-th apply of a batch —
/// with k − 1 regions already rewritten and no cleanup run yet, the most
/// broken state the function is ever in. `Degrade` hands back the
/// untouched input, `Fail` a typed error blamed on the meld pass; one hit
/// past the batch never fires.
#[test]
fn a_fault_mid_batch_degrades_to_the_input_or_fails_typed() {
    use darm::pipeline::PipelineError;

    use darm::kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};

    const RUNGS: u64 = 9;
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Meldable diamonds in sequence, each rung's join the next one's
    // branch block: one fixpoint round melds them all.
    let spec = KernelSpec {
        shape: Shape::Ladder,
        rungs: RUNGS as usize,
        arm_len: 2,
        arms: Arms::Similar,
        divergence: Divergence::Tid,
        uniform_third: false,
    };
    let mut module = Module::new("batch");
    module
        .add_function(build_kernel("ladder", spec, &mut Rng::new(0)))
        .unwrap();
    let baseline = printed(&module);
    let registry = darm::melding::registry(&MeldConfig::default());
    let compile_with = |pipeline, on_error, module: &mut Module| {
        let options = ModuleOptions {
            pipeline,
            jobs: 1,
            on_error,
        };
        ModulePassManager::compile(&registry, "meld", options, module)
    };
    let compile =
        |on_error, module: &mut Module| compile_with(PipelineOptions::default(), on_error, module);

    fault::set_plan(None);
    let mut reference = module.clone();
    let report = compile(OnError::Degrade, &mut reference).expect("clean run");
    let stats = MeldStats::from_report(&report.functions[0].report);
    assert_eq!(
        (stats.melded_regions as u64, stats.iterations),
        (RUNGS, 2),
        "the ladder melds in one round"
    );
    let clean = printed(&reference);

    for kind in [FaultKind::Panic, FaultKind::Error] {
        for hit in [1, 2, RUNGS / 2, RUNGS, RUNGS + 1] {
            let arm = || {
                fault::set_plan(Some(FaultPlan {
                    site: "meld::codegen".to_string(),
                    hit,
                    kind,
                }))
            };
            arm();
            let mut degraded = module.clone();
            let report = compile(OnError::Degrade, &mut degraded);
            arm();
            let failed = compile(OnError::Fail, &mut module.clone());
            fault::set_plan(None);

            let report = report.expect("degrade contains the fault");
            if hit > RUNGS {
                assert_eq!(report.degraded_count(), 0, "{kind:?}#{hit}");
                assert_eq!(printed(&degraded), clean, "{kind:?}#{hit}");
                assert!(failed.is_ok(), "{kind:?}#{hit}");
                continue;
            }
            assert_eq!(report.degraded_count(), 1, "{kind:?}#{hit}");
            assert_eq!(printed(&degraded), baseline, "{kind:?}#{hit}");
            match failed {
                Err(PipelineError::Fault(diag)) => {
                    assert_eq!(diag.function, "ladder");
                    assert_eq!(diag.site.as_deref(), Some("meld::codegen"));
                    assert!(
                        diag.to_string().starts_with("@ladder: pass 'meld': "),
                        "{kind:?}#{hit}: {diag}"
                    );
                }
                other => panic!("{kind:?}#{hit}: expected a fault diagnostic, got {other:?}"),
            }
        }
    }

    // The budget is polled per applied region too: fuel that runs out at
    // the k-th apply is noticed at the (k + 1)-th, not after the round.
    for hit in [1, RUNGS / 2, RUNGS - 1] {
        fault::set_plan(Some(FaultPlan {
            site: "meld::codegen".to_string(),
            hit,
            kind: FaultKind::FuelExhaust,
        }));
        let pipeline = PipelineOptions {
            budget: Budget::new(None, Some(1 << 40)),
            ..PipelineOptions::default()
        };
        let mut degraded = module.clone();
        let report = compile_with(pipeline, OnError::Degrade, &mut degraded);
        fault::set_plan(None);
        let report = report.expect("degrade contains the cancellation");
        let (_, diag) = report.degraded().next().expect("the function degrades");
        assert_eq!(
            diag.to_string(),
            "@ladder: pass 'meld': fuel budget exhausted (at meld::codegen)",
            "fuel#{hit}"
        );
        assert_eq!(printed(&degraded), baseline, "fuel#{hit}");
    }
}

/// Pinned regression for the serve-era containment contract: under an
/// injected codegen panic with exactly two workers, every degraded
/// function's output is bit-identical to its baseline (input) IR, the
/// optimized remainder matches the fault-free reference, and a DCE-site
/// panic (which every function reaches) degrades the whole module back
/// to its input, byte for byte.
#[test]
fn pinned_jobs2_degrade_output_is_bit_identical_to_baseline() {
    let _guard = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let shapes: Vec<Shape> = (0..5)
        .map(|i| Shape {
            diamond: i != 2, // one straight-line function in the middle
            mul_t: 3 + i,
            add_t: 10 + i,
            mul_f: 5 + i,
            add_f: 77 - i,
        })
        .collect();
    let module = build_module(&shapes);
    let baseline = printed(&module);

    fault::set_plan(None);
    let mut reference = module.clone();
    meld_module(&mut reference, 2, false);
    let clean = printed(&reference);

    // Codegen panics: only the diamonds reach it and degrade.
    fault::set_plan(Some(FaultPlan {
        site: "meld::codegen".to_string(),
        hit: 1,
        kind: FaultKind::Panic,
    }));
    let mut faulted = module.clone();
    let report = meld_module(&mut faulted, 2, false);
    assert_eq!(report.degraded_count(), 4);
    for (i, func) in faulted.functions().iter().enumerate() {
        let ir = func.to_string();
        if report.functions[i].outcome.is_degraded() {
            assert_eq!(ir, baseline[i], "@{} must keep its input IR", func.name());
        } else {
            assert_eq!(ir, clean[i], "@{} must match the clean run", func.name());
        }
    }

    // DCE panics: every function whose pipeline reaches cleanup (the
    // four diamonds — the straight-line body melds nothing and skips
    // it) degrades to its input, byte for byte.
    fault::set_plan(Some(FaultPlan {
        site: "transforms::dce".to_string(),
        hit: 1,
        kind: FaultKind::Panic,
    }));
    let mut dce_faulted = module.clone();
    let report = meld_module(&mut dce_faulted, 2, false);
    fault::set_plan(None);
    assert_eq!(report.degraded_count(), 4);
    for (i, func) in dce_faulted.functions().iter().enumerate() {
        let ir = func.to_string();
        if report.functions[i].outcome.is_degraded() {
            assert_eq!(ir, baseline[i], "@{} must keep its input IR", func.name());
        } else {
            assert_eq!(ir, clean[i], "@{} must match the clean run", func.name());
        }
    }
}
