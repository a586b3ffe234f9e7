//! Pins the `--time-passes` table: its header and the meld pass's
//! phase-clock child rows.

use darm_bench::{fig9_cases, suite_module};
use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
use darm_melding::{registry, MeldConfig, MeldStats};
use darm_pipeline::{ModuleOptions, ModulePassManager, PipelineOptions};

/// `out[tid]` run through three diamonds on thread-id bits, each join
/// branching into the next diamond.
fn three_rung_ladder() -> Function {
    let mut f = Function::new("ladder", vec![Type::Ptr(AddrSpace::Global)], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let p = b.gep(Type::I32, b.param(0), tid);
    let mut acc = b.load(Type::I32, p);
    for r in 0..3 {
        let masked = b.and(tid, Value::I32(1 << r));
        let c = b.icmp(IcmpPred::Ne, masked, Value::I32(0));
        let arms = [b.add_block("t"), b.add_block("e")];
        let join = b.add_block("j");
        b.br(c, arms[0], arms[1]);
        let mut incoming = Vec::new();
        for (arm, k) in arms.into_iter().zip([3, 5]) {
            b.switch_to(arm);
            let v = b.mul(acc, Value::I32(k));
            let v = b.add(v, Value::I32(k + r));
            b.jump(join);
            incoming.push((arm, v));
        }
        b.switch_to(join);
        acc = b.phi(Type::I32, &incoming);
    }
    b.store(acc, p);
    b.ret(None);
    f
}

/// Under `time_passes` the meld pass breaks its own row down: five phase
/// rows from its clock, then the inner cleanup pipeline's four slots —
/// in the table and in the report. Off, there are no child rows (and no
/// clock is read). `codegen` runs once per melded region, `substitute` —
/// the use rewrite codegen leaves to the round — once per round that
/// melded.
#[test]
fn time_passes_breaks_the_meld_row_into_phases_and_cleanup() {
    let case = &fig9_cases()[0];
    let run_on = |f: &Function, time_passes: bool| {
        let mut f = f.clone();
        let options = PipelineOptions {
            time_passes,
            ..PipelineOptions::default()
        };
        registry(&MeldConfig::default())
            .build("meld", options)
            .expect("spec parses")
            .run(&mut f)
            .expect("pipeline")
    };
    let run = |time_passes: bool| run_on(&case.func, time_passes);

    let report = run(true);
    let stats = MeldStats::from_report(&report);
    let meld = &report.passes[0];
    let names: Vec<&str> = meld.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "analyses",
            "detect",
            "plan+align",
            "codegen",
            "substitute",
            "ssa-repair",
            "instcombine",
            "simplify",
            "dce"
        ]
    );
    let (phases, cleanup) = meld.children.split_at(5);
    assert!(stats.melded_regions > 0, "{} must meld", case.name);
    assert_eq!(phases[0].runs, stats.iterations, "one snapshot per round");
    assert_eq!(phases[3].runs, stats.melded_regions, "one codegen per meld");
    // Every round but the last melds something, then substitutes and
    // cleans up once, however many regions it melded.
    assert_eq!(
        phases[4].runs,
        stats.iterations - 1,
        "one substitution per round"
    );
    for slot in cleanup {
        assert_eq!(slot.runs, stats.iterations - 1, "one cleanup per round");
    }
    // Three diamonds in sequence meld in one round: three codegens, one
    // substitution, one cleanup, and a second snapshot for the round that
    // finds nothing.
    let ladder_report = run_on(&three_rung_ladder(), true);
    let runs = |name: &str| {
        let children = &ladder_report.passes[0].children;
        children.iter().find(|c| c.name == name).map(|c| c.runs)
    };
    assert_eq!(runs("analyses"), Some(2));
    assert_eq!(runs("codegen"), Some(3));
    for slot in ["substitute", "ssa-repair", "instcombine", "simplify", "dce"] {
        assert_eq!(runs(slot), Some(1), "{slot}");
    }

    // The children are a breakdown of the parent's time, not an addition.
    let inside: f64 = meld.children.iter().map(|c| c.seconds).sum();
    assert!(
        inside > 0.0 && inside <= meld.seconds,
        "{inside} vs {}",
        meld.seconds
    );
    let total = report.total_seconds;
    assert!(total >= meld.seconds && total < meld.seconds + inside);
    let cleanup_analyses: usize = cleanup.iter().map(|c| c.analysis.computes).sum();
    assert!(cleanup_analyses <= meld.analysis.computes);
    let rendered = report.render();
    assert!(
        rendered
            .starts_with("| pass | runs | changed | units | time (ms) | analyses (comp/hit) |\n"),
        "{rendered}"
    );
    for name in names {
        assert!(rendered.contains(&format!("↳ {name} |")), "{rendered}");
    }

    assert!(run(false).passes[0].children.is_empty());

    // The module rollup `darm meld --time-passes` prints sums child rows
    // across functions, slot by slot.
    let cases = fig9_cases();
    let mut module = suite_module("two", &cases[..2]);
    let report = ModulePassManager::compile(
        &darm_melding::registry(&MeldConfig::default()),
        "meld",
        ModuleOptions::serial(PipelineOptions {
            time_passes: true,
            ..PipelineOptions::default()
        }),
        &mut module,
    )
    .expect("module compiles");
    let melds: usize = report
        .functions
        .iter()
        .map(|fr| MeldStats::from_report(&fr.report).melded_regions)
        .sum();
    let rollup = report.rollup();
    let codegen = &rollup.passes[0].children[3];
    assert_eq!((codegen.name.as_str(), codegen.runs), ("codegen", melds));
    assert!(report.render().contains("↳ simplify |"));
}
