//! The central correctness property of the reproduction: applying DARM (or
//! the branch-fusion baseline) to *every* benchmark kernel preserves its
//! semantics on the SIMT simulator, and melds where the paper says melding
//! happens.

use darm::analysis::verify_ssa;
use darm::kernels::synthetic::SyntheticKind;
use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad, BenchCase};
use darm::melding::{registry, MeldConfig, MeldStats};
use darm::pipeline::PipelineOptions;

/// Melds the case's kernel through `"meld"` built from the registry, as
/// every driver does, with SSA verification between passes, re-runs it on the same inputs and checks
/// the CPU-reference outputs. Returns meld statistics.
fn meld_and_check(case: &BenchCase, config: &MeldConfig) -> MeldStats {
    case.run_checked(&case.func); // baseline sanity
    let mut melded = case.func.clone();
    let options = PipelineOptions {
        verify_each: true,
        ..PipelineOptions::default()
    };
    let report = registry(config)
        .build("meld", options)
        .expect("spec parses")
        .run(&mut melded)
        .unwrap_or_else(|e| panic!("{}: meld pipeline failed: {e}\n{melded}", case.name));
    let stats = MeldStats::from_report(&report);
    verify_ssa(&melded).unwrap_or_else(|e| {
        panic!(
            "{}: melded kernel fails verification: {e}\n{melded}",
            case.name
        )
    });
    case.run_checked(&melded);
    stats
}

#[test]
fn synthetic_kernels_meld_correctly_under_darm() {
    for kind in SyntheticKind::all() {
        for bs in [32, 64] {
            let case = darm::kernels::synthetic::build_case(kind, bs);
            let stats = meld_and_check(&case, &MeldConfig::default());
            assert!(
                stats.melded_subgraphs >= 1,
                "{}: DARM must meld every synthetic pattern, got {stats:?}",
                case.name
            );
        }
    }
}

#[test]
fn synthetic_kernels_meld_correctly_under_branch_fusion() {
    for kind in SyntheticKind::all() {
        let case = darm::kernels::synthetic::build_case(kind, 32);
        let stats = meld_and_check(&case, &MeldConfig::branch_fusion());
        // BF only handles the diamond patterns (SB1, SB4's inner diamond);
        // it must never mis-compile the rest (checked by meld_and_check).
        if matches!(kind, SyntheticKind::Sb1 | SyntheticKind::Sb1R) {
            assert!(
                stats.melded_subgraphs >= 1,
                "{}: BF handles diamonds",
                case.name
            );
        }
        if matches!(kind, SyntheticKind::Sb2 | SyntheticKind::Sb3) {
            assert_eq!(
                stats.melded_subgraphs, 0,
                "{}: BF cannot handle complex control flow",
                case.name
            );
        }
    }
}

#[test]
fn bitonic_melds_and_stays_a_sort() {
    for bs in [32, 64, 128] {
        let case = bitonic::build_case(bs);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "BIT{bs} must meld: {stats:?}");
        let bf = meld_and_check(&case, &MeldConfig::branch_fusion());
        assert_eq!(
            bf.melded_subgraphs, 0,
            "BIT{bs}: BF cannot meld the if-then regions"
        );
    }
}

#[test]
fn pcm_melds_and_stays_a_sort() {
    for bs in [32, 64] {
        let case = pcm::build_case(bs);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "PCM{bs} must meld: {stats:?}");
        meld_and_check(&case, &MeldConfig::branch_fusion());
    }
}

#[test]
fn mergesort_melds_and_stays_a_merge() {
    for bs in [32, 64] {
        let case = mergesort::build_case(bs);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "MS{bs} must meld: {stats:?}");
        meld_and_check(&case, &MeldConfig::branch_fusion());
    }
}

#[test]
fn lud_melds_the_perimeter_loops() {
    for bs in [16, 32, 64, 128] {
        let case = lud::build_case(bs);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "LUD{bs} must meld: {stats:?}");
    }
}

#[test]
fn nqueens_melds_with_region_replication() {
    let case = nqueens::build_case(32);
    let stats = meld_and_check(&case, &MeldConfig::default());
    assert!(stats.melded_subgraphs >= 1, "NQU must meld: {stats:?}");
    meld_and_check(&case, &MeldConfig::branch_fusion());
}

#[test]
fn srad_melds_and_preserves_the_stencil() {
    for block in [(16, 16), (32, 32)] {
        let case = srad::build_case(block);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "SRAD must meld: {stats:?}");
        meld_and_check(&case, &MeldConfig::branch_fusion());
    }
}

#[test]
fn dct_melds_the_quantization_diamond() {
    for block in [(4, 4), (8, 8), (16, 16)] {
        let case = dct::build_case(block);
        let stats = meld_and_check(&case, &MeldConfig::default());
        assert!(stats.melded_subgraphs >= 1, "DCT must meld: {stats:?}");
        let bf = meld_and_check(&case, &MeldConfig::branch_fusion());
        assert!(
            bf.melded_subgraphs >= 1,
            "DCT's diamond is BF territory too"
        );
    }
}

/// The paper's §IV-E unpredication, which splits every gap run out under
/// the region's condition, is one setting away from the default.
#[test]
fn paper_unpredication_still_correct() {
    let cfg = MeldConfig {
        unpredicate: true,
        ..MeldConfig::default()
    };
    for kind in [SyntheticKind::Sb1R, SyntheticKind::Sb2R] {
        let case = darm::kernels::synthetic::build_case(kind, 32);
        meld_and_check(&case, &cfg);
    }
    meld_and_check(&dct::build_case((8, 8)), &cfg);
}

#[test]
fn threshold_sweep_is_always_correct() {
    let case = bitonic::build_case(32);
    for th in [0.1, 0.2, 0.3, 0.4, 0.5] {
        meld_and_check(&case, &MeldConfig::with_threshold(th));
    }
}
