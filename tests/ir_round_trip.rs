//! Print → parse → print round-trip over every benchmark kernel, before
//! and after melding — a strong structural golden test for the printer,
//! parser and the IR itself.

use darm::ir::parser::parse_function;
use darm::kernels::synthetic::SyntheticKind;
use darm::kernels::{bitonic, dct, lud, mergesort, nqueens, pcm, srad};
use darm::melding::{meld_function, MeldConfig};
use darm::prelude::*;

/// Parsing re-numbers values densely (the original arena keeps tombstones),
/// so the check is normalization idempotence: after one print→parse pass,
/// further passes must be exact fixpoints.
fn assert_round_trip(func: &Function) {
    let parse = |text: &str| -> Function {
        let f = parse_function(text)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", func.name()));
        f.verify_structure()
            .unwrap_or_else(|e| panic!("{}: reparsed does not verify: {e}", func.name()));
        f
    };
    let normalized = parse(&func.to_string()).to_string();
    let again = parse(&normalized).to_string();
    assert_eq!(again, normalized, "{} did not round-trip", func.name());
}

fn all_kernels() -> Vec<Function> {
    let mut fs = vec![
        bitonic::build_kernel(64),
        pcm::build_kernel(64),
        mergesort::build_kernel(),
        lud::build_kernel(),
        nqueens::build_kernel(),
        srad::build_kernel((16, 16)),
        dct::build_kernel(),
    ];
    for kind in SyntheticKind::all() {
        fs.push(darm::kernels::synthetic::build_kernel(kind, 64));
    }
    fs
}

#[test]
fn every_kernel_round_trips() {
    for f in all_kernels() {
        assert_round_trip(&f);
    }
}

#[test]
fn every_melded_kernel_round_trips() {
    for mut f in all_kernels() {
        meld_function(&mut f, &MeldConfig::default());
        assert_round_trip(&f);
    }
}
