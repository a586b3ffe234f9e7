//! Complexity guards that count instead of timing: on an N-rung ladder of
//! meldable diamonds, the fixpoint melds one rung per round and cleans up
//! after each. That per-round work must follow the melded region, not the
//! function — so the instruction arena grows by a constant per rung (block
//! merging moves ids instead of copying the ever-longer ladder tail), and
//! the journal window of a round names nothing function-sized except the
//! moved tail's change of parent. And since analyses are recomputed, not
//! patched, after a meld, how *many* are computed per melded region must
//! not depend on how big the function around the region is.

use darm_analysis::verify_ssa;
use darm_ir::builder::FunctionBuilder;
use darm_ir::{AddrSpace, Dim, Function, IcmpPred, Type, Value};
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

/// `out[tid] = f_{N-1}(… f_0(in[tid]))`, each `f_r` a diamond on one bit of
/// the thread id whose arms run the same three opcodes on different
/// constants — every rung melds, with selects for the constants.
fn ladder(rungs: usize) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new("ladder", vec![ptr, ptr], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let src = b.gep(Type::I32, b.param(1), tid);
    let x = b.load(Type::I32, src);
    let mut acc = x;
    for r in 0..rungs {
        let k = r as i32;
        let bit = b.lshr(tid, Value::I32(k % 5));
        let bit = b.and(bit, Value::I32(1));
        let cond = b.icmp(IcmpPred::Ne, bit, Value::I32(0));
        let t = b.add_block(&format!("r{r}.t"));
        let e = b.add_block(&format!("r{r}.e"));
        let j = b.add_block(&format!("r{r}.j"));
        b.br(cond, t, e);
        let mut arms = Vec::new();
        for (arm, side) in [(t, 0), (e, 1)] {
            b.switch_to(arm);
            let v = b.mul(acc, Value::I32(3 + 2 * side));
            let v = b.add(v, Value::I32(7 * k + side + 1));
            let v = b.xor(v, Value::I32(11 + k + 13 * side));
            b.jump(j);
            arms.push((arm, v));
        }
        b.switch_to(j);
        let joined = b.phi(Type::I32, &arms);
        acc = b.add(joined, x);
    }
    let dst = b.gep(Type::I32, b.param(0), tid);
    b.store(acc, dst);
    b.ret(None);
    f
}

struct Melded {
    initial_capacity: usize,
    final_capacity: usize,
    final_live: usize,
    journal_entries: usize,
    stats: MeldStats,
}

fn meld_ladder(rungs: usize) -> Melded {
    let mut f = ladder(rungs);
    verify_ssa(&f).expect("ladder verifies");
    let initial_capacity = f.inst_capacity();
    let entries_before = f.journal_len();
    let stats = meld_function(&mut f, &MeldConfig::default());
    verify_ssa(&f).expect("melded ladder verifies");
    assert_eq!(stats.melded_regions, rungs, "every rung melds");
    assert_eq!(f.cond_branch_count(), 0, "no divergent branch survives");
    Melded {
        initial_capacity,
        final_capacity: f.inst_capacity(),
        final_live: f.live_inst_count(),
        journal_entries: f.journal_len() - entries_before,
        stats,
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

/// The journal buffers touched-instruction entries and nothing else
/// (block-graph edits are a counter), so `journal_len` counts instruction
/// touches. What a round touches beyond a constant is the ladder tail
/// changing parent — once into the melded block, once with it into the
/// rung's header, one entry per moved instruction, and the tail averages
/// half the function. So entries per round may rise by about one per
/// instruction the ladder gains (measured: 1.06); a whole-function rewrite
/// or a copy per absorbed instruction (9.2 here when merging copied) shows
/// up as a steeper slope.
#[test]
fn journal_window_per_round_follows_the_moved_tail_only() {
    let (short, long) = (meld_ladder(8), meld_ladder(32));
    let per_round = |m: &Melded| m.journal_entries as f64 / m.stats.iterations as f64;
    let slope =
        (per_round(&long) - per_round(&short)) / (long.final_live as f64 - short.final_live as f64);
    assert!(
        slope <= 1.5,
        "journal entries per fixpoint round rise by {slope:.2} per instruction of ladder: \
         {:.0} at 8 rungs ({} insts), {:.0} at 32 ({} insts)",
        per_round(&short),
        short.final_live,
        per_round(&long),
        long.final_live
    );
}

/// One rung melds per round, so a ladder taller than
/// `max_iterations` (32) runs the outer loop dry with rungs still
/// divergent: the pass says so in its stat entries instead of stopping
/// silently; a ladder that reaches its fixpoint reports no hit.
#[test]
fn running_out_of_fixpoint_iterations_is_recorded() {
    for (rungs, hits) in [(34, 1), (12, 0)] {
        let mut f = ladder(rungs);
        let report = meld_report(&mut f);
        let stats = MeldStats::from_report(&report);
        verify_ssa(&f).expect("melded ladder verifies");
        assert_eq!(stats.melded_regions, rungs.min(32), "{rungs} rungs");
        assert_eq!(
            f.cond_branch_count(),
            rungs - rungs.min(32),
            "{rungs} rungs"
        );
        assert!(
            report.passes[0].stats.contains(&(CAP_HITS_STAT, hits)),
            "{rungs} rungs: {:?}",
            report.passes[0].stats
        );
    }
}

/// A ladder of `rungs` diamonds of which `meldable`, spread evenly, have
/// arms running one opcode sequence on different constants; the others'
/// arms come from disjoint opcode classes ({mul, add, sub} against
/// {xor, lshr}), so their melding profit is 0 and they stay branches. The
/// case in-place analysis updates were built for — a small meld inside a
/// big function — and the shape they were measured on when they were
/// deleted. `arm_len` instructions per arm.
fn mixed_ladder(rungs: usize, meldable: usize, arm_len: usize) -> Function {
    let ptr = Type::Ptr(AddrSpace::Global);
    let mut f = Function::new("mixed", vec![ptr, ptr], Type::Void);
    let entry = f.entry();
    let mut b = FunctionBuilder::new(&mut f, entry);
    let tid = b.thread_idx(Dim::X);
    let src = b.gep(Type::I32, b.param(1), tid);
    let x = b.load(Type::I32, src);
    let mut acc = x;
    for r in 0..rungs {
        let melds = (r + 1) * meldable / rungs > r * meldable / rungs;
        let bit = b.lshr(tid, Value::I32(r as i32 % 5));
        let bit = b.and(bit, Value::I32(1));
        let cond = b.icmp(IcmpPred::Ne, bit, Value::I32(0));
        let t = b.add_block(&format!("r{r}.t"));
        let e = b.add_block(&format!("r{r}.e"));
        let j = b.add_block(&format!("r{r}.j"));
        b.br(cond, t, e);
        let mut arms = Vec::new();
        for (arm, side) in [(t, 0), (e, 1)] {
            b.switch_to(arm);
            let mut v = acc;
            for k in 0..arm_len {
                let c = Value::I32((7 * r + 3 * k) as i32 + 1 + 2 * side);
                v = match (melds || side == 0, k % 3) {
                    (true, 0) => b.mul(v, c),
                    (true, 1) => b.add(v, c),
                    (true, _) => b.sub(v, c),
                    (false, 0) => b.xor(v, c),
                    (false, _) => {
                        let s = b.lshr(v, Value::I32(1 + k as i32 % 7));
                        b.xor(v, s)
                    }
                };
            }
            b.jump(j);
            arms.push((arm, v));
        }
        b.switch_to(j);
        let joined = b.phi(Type::I32, &arms);
        acc = b.add(joined, x);
    }
    let dst = b.gep(Type::I32, b.param(0), tid);
    b.store(acc, dst);
    b.ret(None);
    f
}

/// Analyses a meld round may compute: the scan's `Cfg`, both trees and
/// divergence, and what the cleanup pipeline recomputes after the round's
/// block-graph edits (measured: 5.9 per round at 300 rungs, 24 melds).
const ANALYSES_PER_MELD: usize = 7;

/// `Cfg` builds a meld round may cost: one for the cleanup after the meld
/// surgery, one for the next scan after the cleanup's block merges.
const CFGS_PER_MELD: usize = 2;

/// Keep-or-recompute pays a fixed number of from-scratch analyses per
/// melded region, whatever the size of the function around it: every
/// meldable rung melds, no other branch does, and computations per meld
/// stay under one constant at 100 and 300 rungs, 8 and 24 melds.
#[test]
fn analyses_computed_per_meld_do_not_follow_function_size() {
    for (rungs, meldable) in [(100, 8), (300, 8), (300, 24)] {
        let mut f = mixed_ladder(rungs, meldable, 6);
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
        let computed: usize = report.analysis_computations.iter().map(|&(_, n)| n).sum();
        assert!(
            computed <= ANALYSES_PER_MELD * (meldable + 1),
            "{rungs} rungs, {meldable} melds: {computed} analyses computed ({:?}), \
             more than {ANALYSES_PER_MELD} per round",
            report.analysis_computations
        );
        let cfgs = report
            .analysis_computations
            .iter()
            .find(|&&(name, _)| name == "cfg")
            .map_or(0, |&(_, n)| n);
        assert!(
            cfgs <= CFGS_PER_MELD * stats.iterations,
            "{rungs} rungs, {meldable} melds: {cfgs} cfg builds in {} fixpoint rounds, \
             more than {CFGS_PER_MELD} per round",
            stats.iterations
        );
    }
}

/// Writes the inputs `scripts/ladder_pair.sh` times `darm meld` on: the
/// mixed ladders the scoped cleanups were tried on, and one all-melding
/// ladder. Run by hand (and by CI, so the generator cannot rot):
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
            mixed_ladder(rungs, meldable, arm),
        )
    })
    .collect();
    files.push(("ladder_34.ir".to_string(), ladder(34)));
    for (name, f) in files {
        verify_ssa(&f).expect("ladder verifies");
        let path = dir.join(name);
        std::fs::write(&path, f.to_string()).expect("write ladder");
        println!("{} ({} insts)", path.display(), f.live_inst_count());
    }
}
