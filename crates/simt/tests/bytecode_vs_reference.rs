//! Differential test: the flat register bytecode engine must produce
//! **bit-identical** buffer contents and identical [`KernelStats`] to the
//! original per-lane reference interpreter, for every kernel in
//! `darm-kernels` — all fig. 8 synthetic shapes and all fig. 9 real-world
//! cases, in the baseline, DARM-melded and branch-fusion variants.

use darm_ir::Function;
use darm_kernels::synthetic::SyntheticKind;
use darm_kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad, BenchCase};
use darm_melding::{meld_function, MeldConfig};
use darm_simt::{BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, SimError};

/// The fig. 8 synthetic grid plus the fig. 9 real-world grid (same block
/// sizes as `darm_bench::{fig8_cases, fig9_cases}`).
fn all_cases() -> Vec<BenchCase> {
    let mut cases = Vec::new();
    for kind in SyntheticKind::all() {
        for bs in [32, 64, 128, 256] {
            cases.push(darm_kernels::synthetic::build_case(kind, bs));
        }
    }
    for bs in [32, 64, 128, 256] {
        cases.push(bitonic::build_case(bs));
        cases.push(pcm::build_case(bs));
        cases.push(mergesort::build_case(bs));
    }
    for bs in [16, 32, 64, 128] {
        cases.push(lud::build_case(bs));
    }
    for bs in [64, 96, 128, 256] {
        cases.push(nqueens::build_case(bs));
    }
    for block in [(16, 16), (32, 32)] {
        cases.push(srad::build_case(block));
    }
    for block in [(4, 4), (8, 8), (16, 16)] {
        cases.push(dct::build_case(block));
    }
    cases
}

/// Sets up a fresh GPU with the case's buffers; returns the GPU, the launch
/// arguments, and per-argument buffer ids (`None` for scalar arguments).
fn setup(case: &BenchCase) -> (Gpu, Vec<KernelArg>, Vec<Option<darm_simt::BufferId>>) {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (kargs, bufs) = case.alloc_args(&mut gpu);
    let bufs = bufs.into_iter().map(|b| b.map(|(id, _)| id)).collect();
    (gpu, kargs, bufs)
}

/// Runs `func` on the case's inputs with both engines and asserts equal
/// stats/outcomes and bit-identical buffer contents.
fn assert_engines_agree(case: &BenchCase, func: &Function, variant: &str) {
    let (mut ref_gpu, ref_args, ref_bufs) = setup(case);
    let (mut bc_gpu, bc_args, bc_bufs) = setup(case);

    let bk = BytecodeKernel::new(func);
    let reference: Result<KernelStats, SimError> =
        ref_gpu.launch_reference(func, &case.launch, &ref_args);
    let bytecode: Result<KernelStats, SimError> =
        bc_gpu.launch_bytecode(&bk, &case.launch, &bc_args);

    assert_eq!(
        bytecode, reference,
        "{} [{variant}]: bytecode vs reference disagree on stats / outcome",
        case.name
    );
    for (rb, bb) in ref_bufs.iter().zip(&bc_bufs) {
        let (Some(rb), Some(bb)) = (rb, bb) else {
            continue;
        };
        assert_eq!(
            bc_gpu.read_bytes(*bb),
            ref_gpu.read_bytes(*rb),
            "{} [{variant}]: buffer {bb:?} differs (bytecode vs reference)",
            case.name
        );
    }
}

#[test]
fn bytecode_engine_matches_reference_on_all_kernels() {
    for case in all_cases() {
        assert_engines_agree(&case, &case.func, "baseline");

        let mut darm_fn = case.func.clone();
        meld_function(&mut darm_fn, &MeldConfig::default());
        assert_engines_agree(&case, &darm_fn, "darm");

        let mut bf_fn = case.func.clone();
        meld_function(&mut bf_fn, &MeldConfig::branch_fusion());
        assert_engines_agree(&case, &bf_fn, "bf");
    }
}

#[test]
fn bytecode_engine_matches_expected_outputs() {
    // Beyond engine agreement: the bytecode engine must still match the CPU
    // reference implementation baked into each case.
    for case in all_cases() {
        let (mut gpu, args, bufs) = setup(&case);
        gpu.launch(&case.func, &case.launch, &args)
            .unwrap_or_else(|e| panic!("{}: bytecode launch failed: {e}", case.name));
        for (idx, want) in &case.expected {
            let got_buf = bufs[*idx].expect("expected output must be a buffer argument");
            match want {
                darm_kernels::BufData::I32(w) => {
                    assert_eq!(&gpu.read_i32(got_buf), w, "{}: arg {idx}", case.name);
                }
                darm_kernels::BufData::F32(w) => {
                    let got = gpu.read_f32(got_buf);
                    for (pos, (a, b)) in w.iter().zip(&got).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-4 * (1.0 + a.abs()),
                            "{}: arg {idx} at {pos}: expected {a} got {b}",
                            case.name
                        );
                    }
                }
            }
        }
    }
}
