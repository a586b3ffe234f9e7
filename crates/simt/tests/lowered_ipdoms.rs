//! Lowering computes the IPDOM reconvergence points over its own dense
//! block numbers, from the post-dominator core `PostDomTree` runs but
//! without a `Cfg` or a tree. Differentially: every block's reconvergence
//! point names the block `PostDomTree::ipdom` names, and none where that
//! names none — on the paper's fig. 8 and fig. 9 kernels, baseline and
//! DARM-melded, on every `darm_kernels::gen` shape, on the regression
//! corpus under `tests/regressions/`, and on a function with unreachable
//! and exit-less blocks.

use darm_analysis::{Cfg, PostDomTree};
use darm_ir::builder::FunctionBuilder;
use darm_ir::parser::parse_and_verify;
use darm_ir::{Function, IcmpPred, Type};
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use darm_kernels::synthetic::SyntheticKind;
use darm_kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad};
use darm_melding::{meld_function, MeldConfig};
use darm_simt::BytecodeKernel;
use std::path::Path;

/// Asserts that the lowered reconvergence points of `f` are its
/// post-dominator tree's IPDOMs, block by block.
fn assert_ipdoms_match(f: &Function, what: &str) {
    let pdt = PostDomTree::new(f, &Cfg::new(f));
    let want: Vec<(&str, Option<&str>)> = f
        .block_ids()
        .into_iter()
        .map(|b| (f.block_name(b), pdt.ipdom(b).map(|p| f.block_name(p))))
        .collect();
    let bk = BytecodeKernel::new(f);
    let got: Vec<(&str, Option<&str>)> = bk.reconvergence_points().collect();
    assert_eq!(got, want, "{what}");
}

/// `f` and its DARM-melded form.
fn with_darm(f: &Function) -> [Function; 2] {
    let mut melded = f.clone();
    meld_function(&mut melded, &MeldConfig::default());
    [f.clone(), melded]
}

#[test]
fn the_paper_kernels_reconverge_at_their_ipdoms() {
    let mut funcs = Vec::new();
    for kind in SyntheticKind::all() {
        for bs in [32, 64, 128, 256] {
            funcs.push(darm_kernels::synthetic::build_case(kind, bs).func);
        }
    }
    for bs in [32, 64, 128, 256] {
        funcs.push(bitonic::build_case(bs).func);
        funcs.push(pcm::build_case(bs).func);
        funcs.push(mergesort::build_case(bs).func);
    }
    for bs in [16, 32, 64, 128] {
        funcs.push(lud::build_case(bs).func);
    }
    for bs in [64, 96, 128, 256] {
        funcs.push(nqueens::build_case(bs).func);
    }
    for block in [(16, 16), (32, 32)] {
        funcs.push(srad::build_case(block).func);
    }
    for block in [(4, 4), (8, 8), (16, 16)] {
        funcs.push(dct::build_case(block).func);
    }
    assert_eq!(funcs.len(), 57, "the fig. 8 and fig. 9 rows");
    for f in &funcs {
        for (variant, g) in ["baseline", "darm"].into_iter().zip(with_darm(f)) {
            assert_ipdoms_match(&g, &format!("{} [{variant}]", f.name()));
        }
    }
}

#[test]
fn every_gen_shape_reconverges_at_its_ipdoms() {
    let shapes = [
        Shape::Ladder,
        Shape::NestedLadder,
        Shape::LoopLadder,
        Shape::CmpXchg,
        Shape::Straight,
        Shape::IfThenVsBlock,
    ];
    let mut rng = Rng::new(7);
    for shape in shapes {
        for divergence in [Divergence::Tid, Divergence::Data, Divergence::Mixed] {
            for (rungs, uniform_third) in [(1, false), (4, true)] {
                let spec = KernelSpec {
                    shape,
                    rungs,
                    arm_len: 3,
                    arms: Arms::Similar,
                    divergence,
                    uniform_third,
                };
                let f = build_kernel("g", spec, &mut rng);
                for (variant, g) in ["baseline", "darm"].into_iter().zip(with_darm(&f)) {
                    assert_ipdoms_match(&g, &format!("{spec:?} [{variant}]"));
                }
            }
        }
    }
}

#[test]
fn the_regression_corpus_reconverges_at_its_ipdoms() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regressions");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("the regression corpus exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "ir") {
            let text = std::fs::read_to_string(&path).expect("fixture reads");
            let f = parse_and_verify(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            for (variant, g) in ["baseline", "darm"].into_iter().zip(with_darm(&f)) {
                assert_ipdoms_match(&g, &format!("{} [{variant}]", path.display()));
            }
            seen += 1;
        }
    }
    assert!(seen >= 2, "{seen} fixtures in {}", dir.display());
}

/// `entry` branches to `done`, which returns, or to `spin`, which loops
/// forever; `dead` (into `done`) and `orphan` (a `ret`) are unreachable.
/// Only `entry` has an IPDOM: `done`, the one way to the exit. `spin`
/// reaches no `ret`, and unreachable blocks are in no tree.
#[test]
fn unreachable_and_exit_less_blocks_have_no_reconvergence_point() {
    let mut f = Function::new("exitless", vec![Type::I32], Type::Void);
    let entry = f.entry();
    let [done, spin, dead, orphan] = ["done", "spin", "dead", "orphan"].map(|n| f.add_block(n));
    let mut b = FunctionBuilder::new(&mut f, entry);
    let c = b.icmp(IcmpPred::Slt, b.param(0), b.const_i32(0));
    b.br(c, spin, done);
    b.switch_to(done);
    b.ret(None);
    b.switch_to(spin);
    b.jump(spin);
    b.switch_to(dead);
    b.jump(done);
    b.switch_to(orphan);
    b.ret(None);
    assert_ipdoms_match(&f, "exitless");
    let bk = BytecodeKernel::new(&f);
    let got: Vec<(&str, Option<&str>)> = bk.reconvergence_points().collect();
    assert_eq!(
        got,
        [
            ("entry", Some("done")),
            ("done", None),
            ("spin", None),
            ("dead", None),
            ("orphan", None),
        ]
    );
}
