//! Regression net for the melding driver: the melded IR and statistics of
//! every paper kernel must equal the committed golden table, every kernel
//! variant must stay valid SSA between passes, and the fixpoint must keep
//! sharing cached analyses.

use darm_bench::{fig8_cases, fig9_cases, prepare_variants_checked};
use darm_ir::parser::parse_function;
use darm_kernels::BenchCase;
use darm_melding::{meld_function, MeldConfig, MeldStats};
use darm_pipeline::PipelineOptions;

/// Canonical melded IR + `MeldStats` of every fig8+fig9 kernel × {DARM,
/// BF}, recorded from the driver as it stood before block merging moved
/// instruction ids instead of copying them.
const GOLDEN: &str = include_str!("golden/melded_ir.txt");

/// Section separator: `== <case> <mode> <MeldStats debug>`.
const SECTION: &str = "== ";

fn all_cases() -> Vec<BenchCase> {
    let mut cases = fig8_cases();
    cases.extend(fig9_cases());
    cases
}

/// `print(parse(print(f)))`: the parser numbers values in textual order, so
/// this form is independent of which arena slots the driver happened to
/// allocate — only block order, instruction order and operands remain.
fn canonical(text: &str) -> String {
    parse_function(text)
        .unwrap_or_else(|e| panic!("melded IR does not reparse: {e}\n{text}"))
        .to_string()
}

/// One golden section per kernel × mode, in suite order: the header line
/// (label + statistics) followed by the canonical IR.
fn sweep() -> Vec<String> {
    let mut sections = Vec::new();
    for case in all_cases() {
        for (mode, config) in [
            ("darm", MeldConfig::default()),
            ("bf", MeldConfig::branch_fusion()),
        ] {
            let mut func = case.func.clone();
            let stats = meld_function(&mut func, &config);
            sections.push(format!(
                "{SECTION}{} {mode} {stats:?}\n{}",
                case.name,
                canonical(&func.to_string())
            ));
        }
    }
    sections
}

/// The committed sections, in file order.
fn golden_sections() -> Vec<String> {
    let mut sections: Vec<String> = Vec::new();
    for line in GOLDEN.lines().filter(|l| !l.starts_with('#')) {
        if line.starts_with(SECTION) {
            sections.push(String::new());
        }
        let section = sections.last_mut().expect("table starts with a header");
        section.push_str(line);
        section.push('\n');
    }
    sections
}

/// The driver produces the recorded canonical IR and identical statistics
/// on every fig. 8 and fig. 9 kernel, under both DARM and branch fusion —
/// and the table holds exactly that grid, in suite order.
#[test]
fn melded_ir_matches_golden() {
    let golden = golden_sections();
    let sections = sweep();
    assert_eq!(golden.len(), sections.len(), "golden table is stale");
    for (section, expected) in sections.iter().zip(&golden) {
        assert_eq!(
            section,
            expected,
            "{}: melded IR or statistics left the golden table",
            section.lines().next().expect("section has a header")
        );
    }
}

/// Rewrites the committed table from the driver's current output, keeping
/// the header comment — for an *intended* change of melding decisions
/// only: `cargo test -p darm-bench --test pipeline_regression --
/// --ignored regenerate`.
#[test]
#[ignore = "rewrites tests/golden/melded_ir.txt"]
fn regenerate_golden_table() {
    let mut out: String = GOLDEN
        .lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    for section in sweep() {
        out.push_str(&section);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/melded_ir.txt");
    std::fs::write(path, out).expect("golden table is writable");
}

/// With `verify_each`, every kernel × {baseline cleanup, DARM, BF} passes
/// SSA verification between passes (the acceptance gate of the refactor).
#[test]
fn verify_each_holds_on_every_variant() {
    let options = PipelineOptions {
        verify_each: true,
        ..PipelineOptions::default()
    };
    let registry = darm_melding::registry(&MeldConfig::default());
    for case in all_cases() {
        // DARM + BF variants through the shared driver.
        prepare_variants_checked(&case, &MeldConfig::default(), options.clone())
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        // Baseline through the generic cleanup pipeline.
        let mut pm = registry
            .build("simplify,instcombine,dce,verify", options.clone())
            .expect("cleanup spec parses");
        let mut baseline = case.func.clone();
        pm.run(&mut baseline)
            .unwrap_or_else(|e| panic!("{}: baseline cleanup: {e}", case.name));
    }
}

/// The analysis cache shares snapshots across the fixpoint:
/// post-dominators and divergence are computed exactly once per fixpoint
/// iteration (never inside cleanups), and the dominator tree computed for
/// the scan is the one SSA repair reuses (at most one extra per meld for
/// the post-surgery state).
#[test]
fn cache_shares_analyses_across_the_fixpoint() {
    for case in fig9_cases() {
        let mut func = case.func.clone();
        let meld = |func: &mut darm_ir::Function| {
            darm_melding::registry(&MeldConfig::default())
                .build("meld", PipelineOptions::default())
                .expect("spec parses")
                .run(func)
        };
        let report = meld(&mut func).unwrap_or_else(|e| panic!("{}: {e}", case.name));
        let stats = MeldStats::from_report(&report);
        let count = |name: &str| {
            report
                .analysis_computations
                .iter()
                .find(|&&(n, _)| n == name)
                .map(|&(_, c)| c)
                .unwrap_or(0)
        };
        assert!(
            count("postdomtree") <= stats.iterations,
            "{}: postdomtree computed {} times for {} iterations",
            case.name,
            count("postdomtree"),
            stats.iterations
        );
        assert!(
            count("divergence") <= stats.iterations,
            "{}: divergence computed {} times for {} iterations",
            case.name,
            count("divergence"),
            stats.iterations
        );
        assert!(
            count("domtree") <= stats.iterations + 2 * stats.melded_regions,
            "{}: domtree computed {} times for {} iterations / {} melds",
            case.name,
            count("domtree"),
            stats.iterations,
            stats.melded_regions
        );

        // Melding an already-melded function is a clean single-scan no-op:
        // the pass must report unchanged (so a surrounding pipeline keeps
        // its warm cache) and accumulate no statistics.
        let report2 = meld(&mut func).unwrap_or_else(|e| panic!("{}: re-meld: {e}", case.name));
        let stats2 = MeldStats::from_report(&report2);
        assert_eq!(stats2.melded_subgraphs, 0, "{}: re-meld melded", case.name);
        assert_eq!(
            stats2.iterations, 1,
            "{}: re-meld should scan once",
            case.name
        );
        assert_eq!(
            report2.passes[0].changed_runs, 0,
            "{}: no-op meld scan must report unchanged",
            case.name
        );
    }
}
