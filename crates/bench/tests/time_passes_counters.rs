//! Pins the `--time-passes` in-place-update counter columns, the meld
//! pass's phase-clock child rows, and the in-place `DivergenceAnalysis`
//! refresh on a fig8 kernel.

use darm_analysis::{AnalysisManager, Cfg, DivergenceAnalysis, DomTree, PostDomTree};
use darm_bench::{fig8_cases, fig9_cases, suite_module};
use darm_ir::{InstData, Opcode};
use darm_kernels::synthetic::{build_case, SyntheticKind};
use darm_melding::{run_meld_pipeline, MeldConfig, MeldStats};
use darm_pipeline::{ModuleOptions, ModulePassManager, PipelineOptions};

/// `--time-passes` renders the dedicated CFG/divergence in-place-update
/// columns, and the fig8+fig9 kernel sweep drives every in-place counter
/// class (deletion-batch tree, CFG splice, divergence closure) nonzero.
#[test]
fn time_passes_renders_in_place_update_columns() {
    let config = MeldConfig::default();
    // The sweep includes the fig. 9 real kernels: the fig. 8 synthetics
    // meld at the function entry, where the RPO splice correctly declines
    // (anchor covers everything), so the Cfg counter only fires on
    // kernels whose melds sit below the entry.
    let (mut deletion_updates, mut cfg_updates, mut divergence_updates) = (0, 0, 0);
    for case in fig8_cases().iter().chain(&fig9_cases()) {
        let mut f = case.func.clone();
        let out = run_meld_pipeline(
            &mut f,
            &config,
            PipelineOptions {
                time_passes: true,
                ..PipelineOptions::default()
            },
        )
        .expect("pipeline");
        let rendered = out.report.render();
        assert!(
            rendered.contains("cfg-upd") && rendered.contains("div-upd"),
            "time-passes table must carry the in-place update columns:\n{rendered}"
        );
        for p in &out.report.passes {
            deletion_updates += p.analysis.in_place_deletion_updates;
            cfg_updates += p.analysis.in_place_cfg_updates;
            divergence_updates += p.analysis.in_place_divergence_updates;
        }
    }
    assert!(
        deletion_updates > 0,
        "no deletion-containing window updated a dominator tree in place"
    );
    assert!(cfg_updates > 0, "no shape window spliced the Cfg in place");
    assert!(
        divergence_updates > 0,
        "no window reconciled DivergenceAnalysis in place"
    );
}

/// Under `time_passes` the meld pass breaks its own row down: four phase
/// rows from its clock, then the inner cleanup pipeline's four slots —
/// in the table and in the report. Off, there are no child rows (and no
/// clock is read).
#[test]
fn time_passes_breaks_the_meld_row_into_phases_and_cleanup() {
    let case = &fig9_cases()[0];
    let run = |time_passes: bool| {
        let mut f = case.func.clone();
        run_meld_pipeline(
            &mut f,
            &MeldConfig::default(),
            PipelineOptions {
                time_passes,
                ..PipelineOptions::default()
            },
        )
        .expect("pipeline")
    };

    let out = run(true);
    let meld = &out.report.passes[0];
    let names: Vec<&str> = meld.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "analyses",
            "detect",
            "plan+align",
            "codegen",
            "ssa-repair",
            "instcombine",
            "simplify",
            "dce"
        ]
    );
    let (phases, cleanup) = meld.children.split_at(4);
    assert!(out.stats.melded_regions > 0, "{} must meld", case.name);
    assert_eq!(
        phases[0].runs, out.stats.iterations,
        "one snapshot per round"
    );
    assert_eq!(
        phases[3].runs, out.stats.melded_regions,
        "one codegen per meld"
    );
    for slot in cleanup {
        assert_eq!(slot.runs, out.stats.melded_regions, "one cleanup per meld");
    }
    // The children are a breakdown of the parent's time, not an addition.
    let inside: f64 = meld.children.iter().map(|c| c.seconds).sum();
    assert!(
        inside > 0.0 && inside <= meld.seconds,
        "{inside} vs {}",
        meld.seconds
    );
    let total = out.report.total_seconds;
    assert!(total >= meld.seconds && total < meld.seconds + inside);
    let cleanup_analyses: usize = cleanup.iter().map(|c| c.analysis.computes).sum();
    assert!(cleanup_analyses <= meld.analysis.computes);
    let rendered = out.report.render();
    for name in names {
        assert!(rendered.contains(&format!("↳ {name} |")), "{rendered}");
    }

    assert!(run(false).report.passes[0].children.is_empty());

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

/// A meld-shaped window on a fig8 kernel reconciles `DivergenceAnalysis`
/// in place: collapsing one of SB3's if-then regions (the paper's
/// branch-fusion special case — redirect the header around the then-block
/// and delete it) is exactly the surgery melding performs, and the result
/// must be bit-identical to a fresh recompute.
#[test]
fn fig8_meld_window_updates_divergence_in_place() {
    let mut f = build_case(SyntheticKind::Sb3, 32).func;
    let mut am = AnalysisManager::new();
    // Prime every slot so the surgery below lands in one journal window.
    am.get::<Cfg>(&f);
    am.get::<DomTree>(&f);
    am.get::<PostDomTree>(&f);
    am.get::<DivergenceAnalysis>(&f);

    // Branch-fusion-shaped meld of the `t2` if-then region: jump the
    // header straight to the join and drop the then-block.
    let blocks = f.block_ids();
    let find = |name: &str| {
        *blocks
            .iter()
            .find(|&&b| f.block_name(b) == name)
            .unwrap_or_else(|| panic!("SB3 kernel should have block {name}"))
    };
    let (hdr, then, join) = (find("t2.hdr"), find("t2.then"), find("t2.join"));
    let term = f.terminator(hdr).expect("t2.hdr terminator");
    f.remove_inst(term);
    f.add_inst(hdr, InstData::terminator(Opcode::Jump, vec![], vec![join]));
    f.remove_block(then);

    // The shape analyses reconcile first (the divergence refresh requires
    // its dependencies at the journal head), then divergence absorbs the
    // window in place.
    am.get::<Cfg>(&f);
    am.get::<DomTree>(&f);
    am.get::<PostDomTree>(&f);
    let refreshed = am.get::<DivergenceAnalysis>(&f);
    assert!(
        am.counters().in_place_divergence_updates >= 1,
        "fig8 meld window must drive the in-place divergence update, got {:?}",
        am.counters()
    );

    // Bit-identical to a fresh recompute.
    let cfg = Cfg::new(&f);
    let dt = DomTree::new(&f, &cfg);
    let fresh = DivergenceAnalysis::run(&f, &cfg, &dt);
    for i in 0..f.inst_capacity() {
        let id = darm_ir::InstId::new(i);
        assert_eq!(
            refreshed.is_inst_divergent(id),
            fresh.is_inst_divergent(id),
            "incremental divergence must match fresh at inst {i}"
        );
    }
    for b in 0..f.block_capacity() {
        let bb = darm_ir::BlockId::new(b);
        assert_eq!(
            refreshed.is_divergent_branch(bb),
            fresh.is_divergent_branch(bb),
            "incremental divergent-branch flag must match fresh at block {b}"
        );
    }
}
