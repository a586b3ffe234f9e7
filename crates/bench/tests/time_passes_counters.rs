//! Pins the `--time-passes` table: its header and the meld pass's
//! phase-clock child rows.

use darm_bench::{fig9_cases, suite_module};
use darm_melding::{registry, MeldConfig, MeldStats};
use darm_pipeline::{ModuleOptions, ModulePassManager, PipelineOptions};

/// Under `time_passes` the meld pass breaks its own row down: four phase
/// rows from its clock, then the inner cleanup pipeline's four slots —
/// in the table and in the report. Off, there are no child rows (and no
/// clock is read).
#[test]
fn time_passes_breaks_the_meld_row_into_phases_and_cleanup() {
    let case = &fig9_cases()[0];
    let run = |time_passes: bool| {
        let mut f = case.func.clone();
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
            "ssa-repair",
            "instcombine",
            "simplify",
            "dce"
        ]
    );
    let (phases, cleanup) = meld.children.split_at(4);
    assert!(stats.melded_regions > 0, "{} must meld", case.name);
    assert_eq!(phases[0].runs, stats.iterations, "one snapshot per round");
    assert_eq!(phases[3].runs, stats.melded_regions, "one codegen per meld");
    for slot in cleanup {
        assert_eq!(slot.runs, stats.melded_regions, "one cleanup per meld");
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
