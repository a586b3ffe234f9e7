//! Complexity guards that count instead of timing. A fixpoint round melds
//! every pairwise-disjoint region it finds and cleans up once, so on an
//! N-rung ladder of meldable diamonds the number of rounds — and with it
//! the number of analyses computed, each of them function-sized — follows
//! the nesting depth of the ladder, not N: the rungs of one level meld
//! together. What a meld allocates must follow the melded region, not the
//! function — the instruction arena grows by a constant per rung (block
//! merging moves ids instead of copying the ever-longer ladder tail). And
//! since analyses are recomputed, not patched, after a round, how *many*
//! are computed per round must not depend on how big the function around
//! the regions is.

use darm_analysis::verify_ssa;
use darm_ir::Function;
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use darm_melding::{meld_function, registry, MeldConfig, MeldStats, CAP_HITS_STAT};
use darm_pipeline::{PipelineOptions, PipelineReport};

/// Melds `f` through `"meld"` built from the registry, as every driver does.
fn meld_report(f: &mut Function) -> PipelineReport {
    registry(&MeldConfig::default())
        .build("meld", PipelineOptions::default())
        .expect("spec parses")
        .run(f)
        .expect("pipeline")
}

/// A generated kernel of `rungs` rungs of `shape`, each branching on a bit
/// of the thread id, with `arm_len` operations per arm.
fn generate(shape: Shape, arms: Arms, rungs: usize, arm_len: usize) -> Function {
    let spec = KernelSpec {
        shape,
        rungs,
        arm_len,
        arms,
        divergence: Divergence::Tid,
        uniform_third: false,
    };
    build_kernel("ladder", spec, &mut Rng::new(0))
}

/// `out[gid] = f_{N-1}(… f_0(in[gid]))`, each `f_r` a diamond on one bit of
/// the thread id whose arms run the same three opcodes on different
/// constants — every rung melds, with selects for the constants. Each
/// rung's join is the next rung's branch block.
fn flat(rungs: usize) -> Function {
    generate(Shape::Ladder, Arms::Similar, rungs, 3)
}

/// A [`flat`] ladder whose arms each hold an inner diamond on a bit of the
/// loaded word: nesting depth 1. The inner diamonds meld first, which makes
/// every rung a plain diamond.
fn nested(rungs: usize) -> Function {
    generate(Shape::NestedLadder, Arms::Similar, rungs, 6)
}

struct Melded {
    initial_capacity: usize,
    final_capacity: usize,
}

fn meld_ladder(rungs: usize) -> Melded {
    let mut f = flat(rungs);
    verify_ssa(&f).expect("ladder verifies");
    let initial_capacity = f.inst_capacity();
    let stats = meld_function(&mut f, &MeldConfig::default());
    verify_ssa(&f).expect("melded ladder verifies");
    assert_eq!(stats.melded_regions, rungs, "every rung melds");
    assert_eq!(f.cond_branch_count(), 0, "no divergent branch survives");
    Melded {
        initial_capacity,
        final_capacity: f.inst_capacity(),
    }
}

/// Arena slots a single rung's meld may allocate: the melded block's
/// clones of one arm, a select per differing constant, the re-linked
/// terminators and the exit select.
const SLOTS_PER_RUNG: usize = 16;

#[test]
fn arena_grows_by_a_constant_per_rung() {
    for rungs in [8, 16, 32] {
        let m = meld_ladder(rungs);
        assert!(
            m.final_capacity <= m.initial_capacity + SLOTS_PER_RUNG * rungs,
            "{rungs} rungs: arena {} -> {} slots, more than {SLOTS_PER_RUNG} per rung",
            m.initial_capacity,
            m.final_capacity
        );
    }
}

/// Analyses one fixpoint round may compute: the scan's `Cfg`, both trees
/// and divergence, and what the cleanup pipeline recomputes after the
/// round's block-graph edits (measured: 10 over the two rounds of a flat
/// ladder).
const ANALYSES_PER_ROUND: usize = 7;

/// The rungs of one nesting level are pairwise disjoint — a rung's exit is
/// the next rung's branch block, which is no clash — so they meld in one
/// round: a ladder takes one round per level plus the one that finds
/// nothing left, whatever its length, never reaches the iteration cap, and
/// computes a fixed number of analyses per round.
#[test]
fn rounds_follow_nesting_depth_not_ladder_length() {
    let flat = [8, 16, 32, 64].map(|n| (flat(n), n, 0));
    let nested = [8, 24].map(|n| (nested(n), 3 * n, 1));
    for (mut f, regions, depth) in flat.into_iter().chain(nested) {
        verify_ssa(&f).expect("ladder verifies");
        let report = meld_report(&mut f);
        let stats = MeldStats::from_report(&report);
        verify_ssa(&f).expect("melded ladder verifies");
        assert_eq!(stats.melded_regions, regions, "every region melds");
        assert_eq!(f.cond_branch_count(), 0, "no divergent branch survives");
        assert!(
            stats.iterations <= 2 + depth,
            "{regions} regions, depth {depth}: {} rounds",
            stats.iterations
        );
        assert!(
            report.passes[0].stats.contains(&(CAP_HITS_STAT, 0)),
            "{regions} regions: {:?}",
            report.passes[0].stats
        );
        let computed: usize = report.analysis_computations.iter().map(|&(_, n)| n).sum();
        assert!(
            computed <= ANALYSES_PER_ROUND * stats.iterations,
            "{regions} regions: {computed} analyses computed in {} rounds ({:?})",
            stats.iterations,
            report.analysis_computations
        );
    }
}

/// A nested ladder needs two melding rounds; given one, the pass stops
/// with the outer rungs still divergent and says so in its stat entries
/// instead of stopping silently. Left to its default cap it reports no
/// hit.
#[test]
fn running_out_of_fixpoint_rounds_is_recorded() {
    for (max_iterations, melded, hits) in [(1, 16, 1), (32, 24, 0)] {
        let config = MeldConfig {
            max_iterations,
            ..MeldConfig::default()
        };
        let mut f = nested(8);
        let report = registry(&config)
            .build("meld", PipelineOptions::default())
            .expect("spec parses")
            .run(&mut f)
            .expect("pipeline");
        let stats = MeldStats::from_report(&report);
        verify_ssa(&f).expect("melded ladder verifies");
        assert_eq!(stats.melded_regions, melded, "cap {max_iterations}");
        assert_eq!(f.cond_branch_count(), 24 - melded, "cap {max_iterations}");
        assert!(
            report.passes[0].stats.contains(&(CAP_HITS_STAT, hits)),
            "cap {max_iterations}: {:?}",
            report.passes[0].stats
        );
    }
}

/// A ladder of `rungs` diamonds of which `meldable`, spread evenly, have
/// arms running one opcode sequence on different constants; the others'
/// arms come from disjoint opcode classes ({mul, add, sub} against
/// {xor, lshr}), so their melding profit is ≈0 and they stay branches. The
/// case in-place analysis updates were built for — a small meld inside a
/// big function — and the shape they were measured on when they were
/// deleted. `arm_len` operations per arm.
fn mixed(rungs: usize, meldable: usize, arm_len: usize) -> Function {
    let arms = Arms::Mixed { similar: meldable };
    generate(Shape::Ladder, arms, rungs, arm_len)
}

/// `Cfg` builds a fixpoint round may cost: one for the cleanup after the
/// meld surgery, one for the next scan after the cleanup's block merges.
const CFGS_PER_ROUND: usize = 2;

/// Keep-or-recompute pays a fixed number of from-scratch analyses per
/// round, whatever the size of the function around the melded regions and
/// however many of them the round melds: every meldable rung melds in the
/// first round, no other branch does, and the computations stay under one
/// constant at 100 and 300 rungs, 8 and 24 melds.
#[test]
fn analyses_computed_do_not_follow_function_size_or_meld_count() {
    for (rungs, meldable) in [(100, 8), (300, 8), (300, 24)] {
        let mut f = mixed(rungs, meldable, 6);
        verify_ssa(&f).expect("mixed ladder verifies");
        let report = meld_report(&mut f);
        let stats = MeldStats::from_report(&report);
        verify_ssa(&f).expect("melded mixed ladder verifies");
        assert_eq!(stats.melded_regions, meldable, "{rungs} rungs");
        assert_eq!(
            f.cond_branch_count(),
            rungs - meldable,
            "{rungs} rungs: only the meldable ones may go"
        );
        assert_eq!(stats.iterations, 2, "{rungs} rungs, {meldable} melds");
        let computed: usize = report.analysis_computations.iter().map(|&(_, n)| n).sum();
        assert!(
            computed <= ANALYSES_PER_ROUND * stats.iterations,
            "{rungs} rungs, {meldable} melds: {computed} analyses computed ({:?}), \
             more than {ANALYSES_PER_ROUND} per round",
            report.analysis_computations
        );
        let cfgs = report
            .analysis_computations
            .iter()
            .find(|&&(name, _)| name == "cfg")
            .map_or(0, |&(_, n)| n);
        assert!(
            cfgs <= CFGS_PER_ROUND * stats.iterations,
            "{rungs} rungs, {meldable} melds: {cfgs} cfg builds in {} fixpoint rounds, \
             more than {CFGS_PER_ROUND} per round",
            stats.iterations
        );
    }
}

/// Writes the inputs `scripts/ladder_pair.sh` times `darm meld` on: the
/// mixed ladders the scoped cleanups were tried on, and one all-melding
/// ladder. Run by hand (and by CI, which melds every file it writes):
/// `cargo test --release -p darm-melding --test ladder_complexity -- --ignored dump_mixed_ladders`.
#[test]
#[ignore = "writes .ir files for scripts/ladder_pair.sh"]
fn dump_mixed_ladders() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ladders");
    std::fs::create_dir_all(&dir).expect("create dump directory");
    let mut files: Vec<(String, Function)> = [
        (100, 8, 6),
        (300, 8, 6),
        (300, 24, 6),
        (300, 150, 6),
        (600, 24, 8),
        (1200, 24, 8),
    ]
    .into_iter()
    .map(|(rungs, meldable, arm)| {
        (
            format!("mixed_{rungs}_{meldable}_{arm}.ir"),
            mixed(rungs, meldable, arm),
        )
    })
    .collect();
    files.push(("ladder_34.ir".to_string(), flat(34)));
    for (name, f) in files {
        verify_ssa(&f).expect("ladder verifies");
        let path = dir.join(name);
        std::fs::write(&path, f.to_string()).expect("write ladder");
        println!("{} ({} insts)", path.display(), f.live_inst_count());
    }
}
