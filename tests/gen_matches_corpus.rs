//! `darm::kernels::gen` is the benchmark ledger's seeded corpus generator
//! moved into the workspace. The ledger's own copy
//! (`examples/benchmark/src/corpus.rs`) is frozen and is included here
//! unmodified, so that for every shape the frozen copy has, both
//! generators can be held to the same output: byte-identical text from the
//! same seed, and the same random stream left behind. That is what lets
//! the ledger depend on `gen` instead of carrying its own copy.

#[allow(dead_code)]
#[path = "../examples/benchmark/src/corpus.rs"]
mod corpus;

use darm::kernels::gen::{self, Arms, Divergence, KernelSpec, Shape};
use darm::kernels::ArgSpec;

/// The seeds the generators are compared under.
const SEEDS: [u64; 3] = [0, 1, 7];

/// The frozen generator's spelling of `spec`.
fn frozen(spec: KernelSpec) -> corpus::KernelSpec {
    corpus::KernelSpec {
        shape: match spec.shape {
            Shape::Ladder => corpus::Shape::Ladder,
            Shape::NestedLadder => corpus::Shape::NestedLadder,
            Shape::LoopLadder => corpus::Shape::LoopLadder,
            Shape::CmpXchg => corpus::Shape::CmpXchg,
            Shape::Straight => corpus::Shape::Straight,
            Shape::IfThenVsBlock => panic!("the frozen generator has no {:?}", spec.shape),
        },
        rungs: spec.rungs,
        arm_len: spec.arm_len,
        arms: match spec.arms {
            Arms::Similar => corpus::Arms::Similar,
            Arms::Disjoint => corpus::Arms::Disjoint,
            Arms::Mixed { .. } => panic!("the frozen generator has no {:?}", spec.arms),
        },
        divergence: match spec.divergence {
            Divergence::Tid => corpus::Divergence::Tid,
            Divergence::Data => corpus::Divergence::Data,
            Divergence::Mixed => corpus::Divergence::Mixed,
        },
        uniform_third: spec.uniform_third,
    }
}

/// Both generators build `spec` as `name` from `seed`: the same text, and
/// the same next random number afterwards.
fn assert_same(name: &str, spec: KernelSpec, seed: u64) {
    let (mut ours, mut theirs) = (gen::Rng::new(seed), corpus::Rng::new(seed));
    let built = gen::build_kernel(name, spec, &mut ours).to_string();
    let frozen = corpus::build_kernel(name, frozen(spec), &mut theirs).to_string();
    assert!(
        built == frozen,
        "{name} {spec:?}, seed {seed}: the texts differ"
    );
    assert_eq!(ours.next(), theirs.next(), "{name} {spec:?}, seed {seed}");
}

/// The `(name, spec)` lists of the three generated workloads, in corpus
/// order.
fn generated_workloads() -> [(&'static str, Vec<(&'static str, KernelSpec)>); 3] {
    let big = |arms, uniform_third, scale: usize| {
        let spec = |shape, rungs: usize, arm_len, divergence| KernelSpec {
            shape,
            rungs: rungs * scale,
            arm_len,
            arms,
            divergence,
            uniform_third,
        };
        vec![
            ("ladder_tid", spec(Shape::Ladder, 12, 8, Divergence::Tid)),
            ("ladder_data", spec(Shape::Ladder, 20, 6, Divergence::Data)),
            ("ladder_long", spec(Shape::Ladder, 34, 4, Divergence::Mixed)),
            (
                "nested",
                spec(Shape::NestedLadder, 8, 12, Divergence::Mixed),
            ),
            ("loop", spec(Shape::LoopLadder, 10, 10, Divergence::Mixed)),
            ("cmpxchg", spec(Shape::CmpXchg, 14, 8, Divergence::Tid)),
        ]
    };
    let small = (0..256)
        .map(|i| {
            let (name, shape, arm_len) = match i % 4 {
                0 | 2 => ("diamond", Shape::Ladder, 4 + (i / 4) % 14),
                1 => ("nested", Shape::NestedLadder, 6 + (i / 4) % 5),
                _ => ("straight", Shape::Straight, 10 + (i / 4) % 32),
            };
            let spec = KernelSpec {
                shape,
                rungs: 1,
                arm_len,
                arms: Arms::Similar,
                divergence: Divergence::Mixed,
                uniform_third: false,
            };
            (name, spec)
        })
        .collect();
    [
        ("meld-big", big(Arms::Similar, false, 1)),
        ("decline-big", big(Arms::Disjoint, true, 4)),
        ("many-small", small),
    ]
}

/// Every kernel the three generated workloads build, and the workloads
/// themselves: replaying a whole corpus with `gen` — each kernel, then the
/// input words drawn after it — meets every case's text and input in turn,
/// which also proves the spec lists above are the corpus's own.
#[test]
fn gen_builds_the_generated_workloads_byte_for_byte() {
    for (workload, specs) in generated_workloads() {
        for seed in SEEDS {
            let cases = corpus::build(workload, seed).expect("a corpus").cases;
            assert_eq!(cases.len(), specs.len(), "{workload}");
            let mut rng = gen::Rng::new(seed);
            for (i, (case, &(name, spec))) in cases.iter().zip(&specs).enumerate() {
                let name = format!("{name}_{i}");
                assert_same(&name, spec, seed);
                let built = gen::build_kernel(&name, spec, &mut rng).to_string();
                assert!(
                    built == case.func.to_string(),
                    "{workload}/{name}, seed {seed}: the texts differ"
                );
                let Some(ArgSpec::BufI32(words)) = case.args.first() else {
                    panic!("{workload}/{name}: no input buffer");
                };
                for &w in words {
                    // The upper 24 bits of an input word are the seed's.
                    assert_eq!((w as u32) >> 8, rng.next() as u32 & 0xff_ffff);
                }
            }
        }
    }
}

/// Every shape the frozen generator has, under every arm similarity,
/// divergence source and uniform-branch setting, at one and three rungs
/// and arms of one to seven operations.
#[test]
fn gen_matches_the_frozen_generator_on_every_shape() {
    let shapes = [
        Shape::Ladder,
        Shape::NestedLadder,
        Shape::LoopLadder,
        Shape::CmpXchg,
        Shape::Straight,
    ];
    let divergences = [Divergence::Tid, Divergence::Data, Divergence::Mixed];
    for shape in shapes {
        for arms in [Arms::Similar, Arms::Disjoint] {
            for divergence in divergences {
                for uniform_third in [false, true] {
                    for rungs in [1, 3] {
                        for arm_len in [1, 2, 3, 7] {
                            let spec = KernelSpec {
                                shape,
                                rungs,
                                arm_len,
                                arms,
                                divergence,
                                uniform_third,
                            };
                            for seed in SEEDS {
                                assert_same("k", spec, seed);
                            }
                        }
                    }
                }
            }
        }
    }
}
