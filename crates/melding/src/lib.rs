#![warn(missing_docs)]

//! # darm-melding
//!
//! The DARM control-flow melding transformation (Saumya et al., CGO 2022)
//! plus the two baselines the paper compares against:
//!
//! * [`meld_function`] — the full DARM pass (Algorithm 1): detect meldable
//!   divergent regions, align their SESE subgraph chains by melding
//!   profitability, meld profitable pairs (region-region, basic
//!   block-region via *region replication*, and basic block-basic block),
//!   unpredicate unaligned groups, and clean up — to a fixpoint.
//! * [`MeldMode::BranchFusion`] — DARM restricted to diamond-shaped
//!   control flow, the way the paper's own evaluation implements Branch
//!   Fusion (§VI-A).
//! * [`tail_merge()`](tail_merge::tail_merge) — classic tail merging (Table I's weakest row).
//!
//! One round of the pass is three steps, and only the last writes:
//! **detect** ([`region::detect_region`] decomposes a divergent branch's
//! two paths into SESE subgraph chains), **plan** (align the chains and
//! keep the profitable pairs — a pure function of `&Function` whose result,
//! a list of [`PlanElement`]s, says which subgraphs meld and [how](MeldHow),
//! region replication included) and **apply** ([`codegen::meld_region`]
//! performs the plan: replications first, then Algorithm 2). A round plans
//! every candidate, keeps a pairwise-disjoint set, applies those plans one
//! after another and cleans up once ([`pass`] states the disjointness rule
//! and why no cleanup is needed in between). The function is unchanged
//! until the round's first apply.
//!
//! ```
//! use darm_melding::{meld_function, MeldConfig};
//! use darm_ir::{builder::FunctionBuilder, Function, Type, AddrSpace, Dim, IcmpPred};
//!
//! // if (tid < n) out[tid] = tid*2+1 else out[tid] = tid*3+7 — meldable.
//! let mut f = Function::new("k", vec![Type::Ptr(AddrSpace::Global), Type::I32], Type::Void);
//! let entry = f.entry();
//! let t = f.add_block("t");
//! let e = f.add_block("e");
//! let x = f.add_block("x");
//! let mut b = FunctionBuilder::new(&mut f, entry);
//! let tid = b.thread_idx(Dim::X);
//! let c = b.icmp(IcmpPred::Slt, tid, b.param(1));
//! b.br(c, t, e);
//! b.switch_to(t);
//! let v1 = b.mul(tid, b.const_i32(2));
//! let v1b = b.add(v1, b.const_i32(1));
//! let p1 = b.gep(Type::I32, b.param(0), tid);
//! b.store(v1b, p1);
//! b.jump(x);
//! b.switch_to(e);
//! let v2 = b.mul(tid, b.const_i32(3));
//! let v2b = b.add(v2, b.const_i32(7));
//! let p2 = b.gep(Type::I32, b.param(0), tid);
//! b.store(v2b, p2);
//! b.jump(x);
//! b.switch_to(x);
//! b.ret(None);
//!
//! let stats = meld_function(&mut f, &MeldConfig::default());
//! assert_eq!(stats.melded_subgraphs, 1);
//! ```

pub mod codegen;
pub mod isomorphism;
pub mod pass;
pub mod region;
pub mod replicate;
pub mod tail_merge;
pub mod unpredicate;

pub use codegen::{MeldHow, PlanElement};
pub use pass::{MeldPass, TailMergePass, CAP_HITS_STAT};
pub use region::{Analyses, MeldableRegion, Subgraph};
pub use tail_merge::tail_merge;

use darm_align::{align_bodies, body_insts, BlockAlignment};
use darm_align::{global_align, subgraph_melding_profit, AlignStep};
use darm_ir::Function;
use darm_pipeline::{PassRegistry, PipelineReport};

/// Which melding technique to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MeldMode {
    /// Full DARM: region-region, block-region (replication), block-block.
    #[default]
    Darm,
    /// Branch fusion: only single block ↔ single block melds (diamonds),
    /// as in the paper's §VI-A baseline implementation.
    BranchFusion,
}

/// Configuration of the melding pass.
#[derive(Debug, Clone, Copy)]
pub struct MeldConfig {
    /// Technique to apply.
    pub mode: MeldMode,
    /// Melding profitability threshold; the paper's default is 0.2 (§V,
    /// sensitivity study in Fig. 12).
    pub threshold: f64,
    /// Whether to unpredicate every gap run, as the paper's §IV-E does
    /// (the spec `meld(unpredicate=true)`). Off — the default — a run
    /// stays predicated in the melded block when it holds no load, store
    /// or integer division
    /// ([`GapRun::is_speculable`](unpredicate::GapRun::is_speculable)), so
    /// the block does not re-branch on the condition the meld removed; any
    /// other run is split out all the same.
    pub unpredicate: bool,
    /// Cap on the rounds of Algorithm 1's outer loop (a round melds every
    /// pairwise-disjoint region it finds).
    pub max_iterations: usize,
}

impl Default for MeldConfig {
    fn default() -> MeldConfig {
        MeldConfig {
            mode: MeldMode::Darm,
            threshold: 0.2,
            unpredicate: false,
            max_iterations: 32,
        }
    }
}

impl MeldConfig {
    /// The paper's branch-fusion baseline configuration.
    pub fn branch_fusion() -> MeldConfig {
        MeldConfig {
            mode: MeldMode::BranchFusion,
            ..MeldConfig::default()
        }
    }

    /// A DARM configuration with a custom profitability threshold.
    pub fn with_threshold(threshold: f64) -> MeldConfig {
        MeldConfig {
            threshold,
            ..MeldConfig::default()
        }
    }
}

/// Cumulative statistics of a [`meld_function`] run; also the delta one
/// [`codegen::meld_region`] call reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeldStats {
    /// Divergent regions rewritten.
    pub melded_regions: usize,
    /// Subgraph pairs melded across all regions.
    pub melded_subgraphs: usize,
    /// Region replications performed (block ↔ region melds).
    pub replications: usize,
    /// `select` instructions inserted.
    pub selects_inserted: usize,
    /// Unaligned groups moved out by unpredication.
    pub unpredicated_groups: usize,
    /// Definitions repaired by SSA reconstruction.
    pub ssa_repairs: usize,
    /// Outer fixpoint rounds executed.
    pub iterations: usize,
}

impl std::ops::AddAssign for MeldStats {
    fn add_assign(&mut self, d: MeldStats) {
        self.melded_regions += d.melded_regions;
        self.melded_subgraphs += d.melded_subgraphs;
        self.replications += d.replications;
        self.selects_inserted += d.selects_inserted;
        self.unpredicated_groups += d.unpredicated_groups;
        self.ssa_repairs += d.ssa_repairs;
        self.iterations += d.iterations;
    }
}

impl MeldStats {
    /// Reconstructs the statistics from a [`MeldPass`]'s named stat
    /// entries (the per-pass `stats` column of a
    /// [`PipelineReport`]) — how a module
    /// batch recovers per-function melding statistics after the pass
    /// instances have been consumed by their pipelines. Unknown keys are
    /// ignored; missing keys stay zero.
    pub fn from_stat_entries(entries: &[(&str, u64)]) -> MeldStats {
        let mut s = MeldStats::default();
        for &(key, v) in entries {
            let v = v as usize;
            match key {
                "melded regions" => s.melded_regions = v,
                "melded subgraphs" => s.melded_subgraphs = v,
                "replications" => s.replications = v,
                "selects inserted" => s.selects_inserted = v,
                "unpredicated groups" => s.unpredicated_groups = v,
                "ssa repairs" => s.ssa_repairs = v,
                "fixpoint iterations" => s.iterations = v,
                _ => {}
            }
        }
        s
    }

    /// Recovers the statistics of the first melding pass in a pipeline
    /// report — the pass self-names `meld` or `meld-bf` depending on its
    /// mode, so both spellings are matched. Zeroes when no melding pass
    /// ran. The one recovery path shared by the benchmark harnesses and
    /// the tests.
    pub fn from_report(report: &PipelineReport) -> MeldStats {
        report
            .passes
            .iter()
            .find(|p| p.name == "meld" || p.name == "meld-bf")
            .map(|p| MeldStats::from_stat_entries(&p.stats))
            .unwrap_or_default()
    }
}

/// Applies the spec parameters the melding family understands on top of a
/// base configuration: `threshold=F` (finite), `unpredicate=BOOL`,
/// `max-iters=N`.
fn apply_meld_params(
    mut config: MeldConfig,
    params: &mut darm_pipeline::PassParams,
) -> Result<MeldConfig, String> {
    if let Some(t) = params.take_parsed::<f64>("threshold")? {
        if !t.is_finite() {
            return Err(format!("parameter `threshold`: `{t}` is not finite"));
        }
        config.threshold = t;
    }
    if let Some(u) = params.take_parsed::<bool>("unpredicate")? {
        config.unpredicate = u;
    }
    if let Some(n) = params.take_parsed::<usize>("max-iters")? {
        config.max_iterations = n;
    }
    Ok(config)
}

/// A pass registry holding the generic cleanup passes plus the melding
/// family: `meld` (melding exactly as `config` says), `meld-bf` (the same
/// with the branch-fusion restriction, §VI-A's baseline) and `tail-merge`.
/// The base names come from [`PassRegistry::with_transforms`].
///
/// `meld` and `meld-bf` accept spec parameters overriding the base
/// configuration — `meld(threshold=0.3)`, `meld(unpredicate=true)`,
/// `meld(max-iters=4)` — so the paper's ablations (threshold sweep, §IV-E
/// unpredication of every gap run, branch fusion) are specs with no code
/// changes.
/// Both carry the pipeline's `verify_each` and `time_passes` into their
/// inner cleanup pipeline ([`MeldPass::observing`]).
pub fn registry(config: &MeldConfig) -> PassRegistry {
    let mut r = PassRegistry::with_transforms();
    let bf = MeldConfig {
        mode: MeldMode::BranchFusion,
        ..*config
    };
    for (name, base) in [("meld", *config), ("meld-bf", bf)] {
        r.register_configurable(name, move |params, options| {
            let c = apply_meld_params(base, params)?;
            Ok(Box::new(MeldPass::new(c).observing(&options)))
        });
    }
    r.register("tail-merge", || Box::new(TailMergePass::default()));
    r
}

/// Runs the melding pass on `func` until no profitable melds remain
/// (Algorithm 1). Returns cumulative statistics. The function is left in
/// valid SSA form.
///
/// Equivalent to building `"meld"` from [`registry`] with default options,
/// minus the one-pass [`PassManager`](darm_pipeline::PassManager) and the
/// [`PipelineReport`] nobody reads on this path: it runs the [`MeldPass`]
/// itself and hands out the pass's own totals. See [`MeldPass`] for how
/// the fixpoint shares cached analyses.
pub fn meld_function(func: &mut Function, config: &MeldConfig) -> MeldStats {
    use darm_pipeline::Pass;
    let mut pass = MeldPass::new(*config);
    pass.run(func, &mut darm_analysis::AnalysisManager::new())
        .expect("melding without verify-each cannot fail");
    pass.stats
}

/// Computes the melding plan for a region: aligns the two subgraph chains
/// with `MP_S` scoring (Definition 7), keeps matches at or above the
/// profitability threshold and aligns the bodies of every block pair they
/// meld (Algorithm 2's `ComputeInstrAlignment`). Returns `None` when
/// nothing profitable exists. Planning reads the function;
/// [`codegen::meld_region`] is the first to write it, and runs no analysis
/// of its own.
pub(crate) fn plan_region(
    func: &Function,
    r: &MeldableRegion,
    config: &MeldConfig,
) -> Option<Vec<PlanElement>> {
    darm_ir::fault::point("meld::plan");
    fn score_pair(
        func: &Function,
        config: &MeldConfig,
        st: &Subgraph,
        sf: &Subgraph,
    ) -> Option<(f64, MeldHow)> {
        // Scoring dominates planning cost (isomorphism + profit analysis
        // per pair), so it polls the budget and hosts a fault site.
        darm_ir::budget::poll("meld::score");
        darm_ir::fault::point("meld::score");
        if st.has_meld_barrier(func) || sf.has_meld_barrier(func) {
            return None;
        }
        let pairs = match (st.is_single_block(), sf.is_single_block()) {
            (true, true) => vec![(st.entry, sf.entry)],
            _ if config.mode == MeldMode::BranchFusion => return None,
            (false, false) => isomorphism::isomorphic_pairs(func, st, sf)?,
            (single_is_true, _) => {
                let (single, multi) = if single_is_true { (st, sf) } else { (sf, st) };
                if !func.phis_of(single.entry).is_empty() || replicate::has_cycle(func, multi) {
                    return None;
                }
                let (position, p) = replicate::best_position(func, single, multi);
                let preorder = isomorphism::isomorphic_pairs(func, multi, multi)
                    .expect("a subgraph is isomorphic to itself");
                let how = MeldHow::Replicate {
                    single_is_true,
                    position,
                    preorder: preorder.into_iter().map(|(b, _)| b).collect(),
                };
                return Some((p, how));
            }
        };
        Some((subgraph_melding_profit(func, &pairs), MeldHow::Pairs(pairs)))
    }

    // Score memoization: the alignment DP fill asks for every (i, j) cell,
    // and the plan construction below asks again for each matched pair —
    // `score_pair` runs subgraph isomorphism / profit analysis each time, so
    // cache by the pair's entry blocks (unique per subgraph within a region).
    let mut score_cache = std::collections::HashMap::new();

    // Chain alignment: only matches meeting the threshold are allowed.
    let (_, steps) = global_align(
        &r.true_chain,
        &r.false_chain,
        |st, sf| {
            let (p, _) = score_cache
                .entry((st.entry, sf.entry))
                .or_insert_with(|| score_pair(func, config, st, sf))
                .as_ref()?;
            (*p >= config.threshold).then_some((p * 1e6) as i64)
        },
        0,
    );
    if !steps.iter().any(|s| matches!(s, AlignStep::Match(..))) {
        return None;
    }
    let plan = steps.into_iter().map(|step| match step {
        AlignStep::Match(i, j) => {
            let (st, sf) = (r.true_chain[i].clone(), r.false_chain[j].clone());
            let (profit, how) = score_cache
                .remove(&(st.entry, sf.entry))
                .flatten()
                .expect("scored during alignment");
            let alignments = align_meld(func, &st, &sf, &how);
            PlanElement::Meld {
                st,
                sf,
                how,
                profit,
                alignments,
            }
        }
        AlignStep::GapA(i) => PlanElement::GapTrue(r.true_chain[i].clone()),
        AlignStep::GapB(j) => PlanElement::GapFalse(r.false_chain[j].clone()),
    });
    Some(plan.collect())
}

/// The body alignment of every block pair `how` melds, in the order
/// [`codegen::meld_region`] melds them. A replica block other than the
/// single block is empty, so its pair aligns the multi block's body with
/// nothing.
fn align_meld(func: &Function, st: &Subgraph, sf: &Subgraph, how: &MeldHow) -> Vec<BlockAlignment> {
    let body = |b| body_insts(func, b);
    match *how {
        MeldHow::Pairs(ref pairs) => pairs
            .iter()
            .map(|&(bt, bf)| align_bodies(func, body(bt), body(bf)))
            .collect(),
        MeldHow::Replicate {
            single_is_true,
            position,
            ref preorder,
        } => {
            let single = body(if single_is_true { st.entry } else { sf.entry });
            let replica = |m| if m == position { single } else { &[] };
            let align = |m| match single_is_true {
                true => align_bodies(func, replica(m), body(m)),
                false => align_bodies(func, body(m), replica(m)),
            };
            preorder.iter().map(|&m| align(m)).collect()
        }
    }
}
