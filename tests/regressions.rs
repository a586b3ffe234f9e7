//! Replays the committed regression corpus under `tests/regressions/`: each
//! `.ir` file is a kernel that once melded into something that ran
//! differently. Its first line is the launch that shows it, spelled as the
//! `darm run` command (`// darm run <file> --block N [--grid N]
//! [--buf LEN]... [--i32 X]...`); the parser skips `//` lines.
//!
//! Under every melding spec below, the melded kernel must run on both the
//! bytecode engine and the reference interpreter and leave exactly the
//! buffers the unmelded kernel leaves.

use darm::ir::parser::parse_and_verify;
use darm::ir::Function;
use darm::melding::MeldConfig;
use darm::pipeline::PipelineOptions;
use darm::simt::{Gpu, GpuConfig, KernelArg, LaunchConfig};
use std::path::Path;

/// `meld` and `meld-bf` speculate every gap run that cannot trap (the
/// default `unpredicate=false` the fixtures name); `meld(unpredicate=true)`
/// is the paper's §IV-E unpredication, which splits every run out.
const SPECS: [&str; 3] = ["meld", "meld-bf", "meld(unpredicate=true)"];

/// A kernel argument as `darm run` spells it.
enum Arg {
    /// A zero-initialised `i32` buffer of this many elements.
    Buf(usize),
    I32(i32),
}

/// The launch a fixture's first line names.
fn launch_of(name: &str, text: &str) -> (LaunchConfig, Vec<Arg>) {
    let header = text.lines().next().unwrap_or_default();
    let mut words = header
        .strip_prefix("// darm run ")
        .unwrap_or_else(|| panic!("{name}: the first line is not `// darm run …`"))
        .split_whitespace()
        .skip(1);
    let (mut grid, mut block, mut args) = (1, None, Vec::new());
    while let Some(flag) = words.next() {
        let value = words
            .next()
            .unwrap_or_else(|| panic!("{name}: {flag} has no value"));
        let bad = || -> ! { panic!("{name}: bad value `{value}` for {flag}") };
        match flag {
            "--block" => block = Some(value.parse().unwrap_or_else(|_| bad())),
            "--grid" => grid = value.parse().unwrap_or_else(|_| bad()),
            "--buf" => args.push(Arg::Buf(value.parse().unwrap_or_else(|_| bad()))),
            "--i32" => args.push(Arg::I32(value.parse().unwrap_or_else(|_| bad()))),
            _ => panic!("{name}: unknown flag {flag}"),
        }
    }
    let block = block.unwrap_or_else(|| panic!("{name}: no --block"));
    (LaunchConfig::linear(grid, block), args)
}

/// Every buffer `func` leaves, on the engine and on the reference
/// interpreter, which must agree.
fn run(func: &Function, launch: &LaunchConfig, args: &[Arg], what: &str) -> Vec<Vec<i32>> {
    let mut outs = Vec::new();
    for reference in [false, true] {
        let mut gpu = Gpu::new(GpuConfig::default());
        let mut buffers = Vec::new();
        let kernel_args: Vec<KernelArg> = args
            .iter()
            .map(|arg| match *arg {
                Arg::Buf(len) => {
                    let b = gpu.alloc_i32(&vec![0; len]);
                    buffers.push(b);
                    KernelArg::Buffer(b)
                }
                Arg::I32(x) => KernelArg::I32(x),
            })
            .collect();
        let launched = if reference {
            gpu.launch_reference(func, launch, &kernel_args)
        } else {
            gpu.launch(func, launch, &kernel_args)
        };
        let engine = if reference { "reference" } else { "engine" };
        launched.unwrap_or_else(|e| panic!("{what} on the {engine}: {e}\n{func}"));
        outs.push(buffers.iter().map(|&b| gpu.read_i32(b)).collect::<Vec<_>>());
    }
    assert_eq!(outs[0], outs[1], "{what}: the engines disagree\n{func}");
    outs.swap_remove(0)
}

#[test]
fn melded_regressions_leave_the_unmelded_buffers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/regressions");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the regression corpus exists")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ir"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 2,
        "{} fixtures in {}",
        files.len(),
        dir.display()
    );
    let registry = darm::melding::registry(&MeldConfig::default());
    for path in files {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).expect("fixture reads");
        let (launch, args) = launch_of(&name, &text);
        let func = parse_and_verify(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let expected = run(&func, &launch, &args, &name);
        for spec in SPECS {
            let mut melded = func.clone();
            registry
                .build(spec, PipelineOptions::default())
                .expect("spec parses")
                .run(&mut melded)
                .unwrap_or_else(|e| panic!("{name} under {spec}: {e}"));
            let what = format!("{name} under {spec}");
            assert_eq!(run(&melded, &launch, &args, &what), expected, "{what}");
        }
    }
}
