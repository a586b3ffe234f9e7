//! The text boundary's cost per layer, in absolute units: nanoseconds per
//! instruction to read a kernel (`parse_module`), check its structure
//! (`Function::verify_structure`), check SSA dominance
//! (`darm_analysis::verify_ssa`, which runs the structural check first) and
//! write it back (`Display`).
//!
//! Inputs: the fig8+fig9 kernels, and one kernel of each of the four
//! branching shapes of `darm_kernels::gen` at the ledger's `decline-big`
//! sizes (disjoint arms, every third branch uniform). Every round times
//! each layer once on each kernel, the layers interleaved; a kernel's cost
//! is its minimum over the rounds (noise only ever adds time), and a row
//! sums those minima over its kernels.
//!
//! `cargo bench -p darm-bench --bench text_boundary` — measure.
//! `cargo bench -p darm-bench --bench text_boundary -- --test` — smoke
//! mode: a few rounds, and every kernel must verify and print back to the
//! very text it was read from.
//!
//! No figure is asserted: the end-to-end claim is the ledger's
//! `compile_kinst_per_s` under `scripts/bench_pair.sh`, whose one-shot
//! `ir.parse_ns_per_inst` probe spreads with the host.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use darm_analysis::verify_ssa;
use darm_bench::{fig8_cases, fig9_cases};
use darm_ir::parser::parse_module;
use darm_ir::Function;
use darm_kernels::gen::{build_kernel, Arms, Divergence, KernelSpec, Rng, Shape};
use std::time::Instant;

/// The layers, in the order a round runs them.
const LAYERS: [&str; 4] = ["parse", "verify_structure", "verify_ssa", "print"];

/// A named set of kernels, each as the text the writer gives for it once
/// read back: the reader numbers values densely, so that text is the one
/// that survives a round trip, which the smoke mode asserts.
struct Input {
    name: &'static str,
    texts: Vec<String>,
    insts: usize,
}

fn input(name: &'static str, funcs: impl IntoIterator<Item = Function>) -> Input {
    let funcs: Vec<Function> = funcs.into_iter().collect();
    Input {
        name,
        insts: funcs.iter().map(Function::live_inst_count).sum(),
        texts: funcs
            .iter()
            .map(|f| {
                let read = parse_module(&f.to_string()).expect("a printed kernel parses");
                read.to_string()
            })
            .collect(),
    }
}

fn inputs() -> Vec<Input> {
    let paper = fig8_cases().into_iter().chain(fig9_cases());
    let mut rng = Rng::new(1);
    let mut generated = |name, shape, rungs, arm_len, divergence| {
        let spec = KernelSpec {
            shape,
            rungs,
            arm_len,
            arms: Arms::Disjoint,
            divergence,
            uniform_third: true,
        };
        input(name, [build_kernel(name, spec, &mut rng)])
    };
    vec![
        input("fig8+fig9", paper.map(|case| case.func)),
        generated("ladder", Shape::Ladder, 48, 8, Divergence::Tid),
        generated("nested", Shape::NestedLadder, 32, 12, Divergence::Mixed),
        generated("loop", Shape::LoopLadder, 40, 10, Divergence::Mixed),
        generated("cmpxchg", Shape::CmpXchg, 56, 8, Divergence::Tid),
    ]
}

/// Seconds each layer takes on `text`, one call each.
fn round(text: &str) -> [f64; 4] {
    let t0 = Instant::now();
    let module = parse_module(text).expect("a printed kernel parses");
    let t1 = Instant::now();
    let func = &module.functions()[0];
    func.verify_structure().expect("a printed kernel verifies");
    let t2 = Instant::now();
    verify_ssa(func).expect("a printed kernel is in SSA form");
    let t3 = Instant::now();
    black_box(func.to_string());
    let t4 = Instant::now();
    [t1 - t0, t2 - t1, t3 - t2, t4 - t3].map(|d| d.as_secs_f64())
}

fn bench(c: &mut Criterion) {
    let inputs = inputs();
    let rounds = if c.is_test_mode() { 3 } else { 40 };
    for input in &inputs {
        for text in &input.texts {
            let module = parse_module(text).expect("a printed kernel parses");
            assert_eq!(
                module.to_string(),
                *text,
                "{}: print(parse(text))",
                input.name
            );
        }
    }
    // Per input and kernel, each layer's fastest call so far.
    let mut best: Vec<Vec<[f64; 4]>> = inputs
        .iter()
        .map(|input| vec![[f64::MAX; 4]; input.texts.len()])
        .collect();
    for _ in 0..rounds {
        for (input, best) in inputs.iter().zip(&mut best) {
            for (text, best) in input.texts.iter().zip(best.iter_mut()) {
                for (b, t) in best.iter_mut().zip(round(text)) {
                    *b = b.min(t);
                }
            }
        }
    }
    println!();
    println!("text_boundary: ns/inst, per-kernel minimum over {rounds} interleaved rounds");
    println!("| input | kernels | insts | {} |", LAYERS.join(" | "));
    println!("|---|---|---|{}", "---|".repeat(LAYERS.len()));
    for (input, best) in inputs.iter().zip(&best) {
        let cells: Vec<String> = (0..LAYERS.len())
            .map(|layer| {
                let secs: f64 = best.iter().map(|b| b[layer]).sum();
                format!("{:.1}", secs * 1e9 / input.insts as f64)
            })
            .collect();
        println!(
            "| {} | {} | {} | {} |",
            input.name,
            input.texts.len(),
            input.insts,
            cells.join(" | ")
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
