//! Every pipeline reconciles its analysis cache through the mutation
//! journal — no pass drops entries by hand and no report does either — so
//! an entry cached by one pass reaches the next pass still carrying the
//! window of everything mutated in between. This pins that hand-over: a
//! multi-pass spec sharing one cache must print the same IR as the same
//! passes run one at a time, each from a cold cache, on every fig8+fig9
//! kernel, with SSA verified between passes.

use darm_bench::{fig8_cases, fig9_cases};
use darm_melding::MeldConfig;
use darm_pipeline::PipelineOptions;

#[test]
fn shared_cache_specs_equal_staged_cold_runs() {
    let registry = darm_melding::registry(&MeldConfig::default());
    let options = PipelineOptions {
        verify_each: true,
        ..PipelineOptions::default()
    };
    // Shape-changing passes (simplify, tail-merge, meld) ahead of analysis
    // consumers (meld, ssa-repair, scoped simplify), flat and in groups.
    // The first two specs are the sharpest: a meld scan that melds nothing
    // warms every analysis, tail-merge then rewrites the block graph
    // without ever touching the cache — bare, or inside a group — and
    // the second meld reads it.
    let specs: [&[&str]; 5] = [
        &["meld(threshold=2)", "tail-merge", "meld"],
        &["tail-merge", "meld", "meld-bf"],
        &["meld(threshold=2)", "fixpoint(tail-merge)", "meld", "dce"],
        &["meld", "tail-merge", "meld", "ssa-repair", "dce"],
        &[
            "fixpoint(simplify,instcombine,dce)",
            "meld(threshold=0.1)",
            "tail-merge",
            "simplify",
        ],
    ];
    for case in fig8_cases().iter().chain(&fig9_cases()) {
        for passes in specs {
            let run = |spec: &str, func: &mut darm_ir::Function| {
                registry
                    .build(spec, options.clone())
                    .unwrap_or_else(|e| panic!("{spec}: {e}"))
                    .run(func)
                    .unwrap_or_else(|e| panic!("{} under `{spec}`: {e}", case.name));
            };
            let mut shared = case.func.clone();
            run(&passes.join(","), &mut shared);
            let mut staged = case.func.clone();
            for pass in passes {
                run(pass, &mut staged);
            }
            assert_eq!(
                shared.to_string(),
                staged.to_string(),
                "{}: `{}` diverges from its passes run cold one by one",
                case.name,
                passes.join(",")
            );
        }
    }
}
