//! `darm` — command-line driver for the control-flow melding toolchain.
//!
//! ```text
//! darm meld <input.ir> [-o out.ir] [--dot out.dot] [--stats] [--jobs N]
//!           [--passes SPEC] [--time-passes] [--verify-each]
//!           [--on-error degrade|fail] [--timeout-ms N] [--fuel N]
//! darm run  <input.ir> --block N [--grid N] [--buf LEN]... [--i32 X]...
//!           [--issue-width N]
//! darm analyze <input.ir>
//! darm serve [--socket PATH] [--jobs N] [--queue-depth N]
//!            [--cache-entries N] [--cache-bytes N] [--spec SPEC]
//!            [--timeout-ms N] [--fuel N] [--max-frame N]
//! ```
//!
//! `meld` parses a textual IR module — one or more `fn @name` kernels per
//! file — runs DARM over every function, and prints or writes the
//! transformed module. With `--passes` the transform chain is built from a
//! pipeline spec (parameters and fixpoint groups supported, e.g.
//! `meld(threshold=0.3),fixpoint(simplify,dce)`; see `darm_pipeline::spec`
//! for the grammar and `darm_melding::registry` for the names) instead of
//! the default single melding pass. The paper's ablations are specs too:
//! `meld(threshold=T)`, `meld(unpredicate=true)` and the branch-fusion
//! baseline `meld-bf`. Functions are compiled on `--jobs N` worker threads
//! (default: all cores; the output is bit-identical to `--jobs 1`).
//! `--stats` prints each pass's counters on stderr as `pass: key = value`
//! lines (`@fn: ` in front in a multi-function module), `--time-passes`
//! the per-pass/per-function timing tables, and `--verify-each` checks SSA
//! between passes.
//!
//! Failure semantics: melding is strictly optional, so by default
//! (`--on-error degrade`) a function whose pipeline faults — panics,
//! errors, or exhausts the `--timeout-ms`/`--fuel` budget — is emitted as
//! its verified *input* IR with a `warning:` diagnostic on stderr, and the
//! exit code stays 0. `--on-error fail` turns the earliest fault into an
//! `error:` and exit code 1. `run` executes a kernel (the first function of
//! the module) on the SIMT simulator's bytecode engine, in blocks of at
//! most 1024 threads, with zero-initialized `i32` buffers (`--buf LEN`, a `u32` element count) and
//! `i32` scalars (`--i32 X`), and prints the counters. Every run threads
//! the cycle-level timing observer through the engine and prints its
//! simulated cycles, stalls and issue slots next to the architectural
//! counters; `--issue-width N` (at least 1) sets the lanes issued per
//! cycle. `analyze` reports divergence analysis and meldable regions for
//! every function without transforming.
//!
//! `serve` starts the persistent compile service: a length-prefixed JSON
//! frame protocol on stdin/stdout (or a Unix socket with `--socket`),
//! compile requests keyed into a cross-run per-function cache, a bounded
//! work queue that sheds load with typed `overloaded` responses, and one
//! degrading compile attempt per request under the request's one
//! `timeout_ms`/`fuel` budget. See
//! `darm_serve` for the protocol grammar and policies.

use darm::analysis::{to_dot, verify_ssa, DivergenceAnalysis};
use darm::ir::parser::parse_module;
use darm::ir::Module;
use darm::melding::{region, Analyses, MeldConfig};
use darm::pipeline::{Budget, ModuleOptions, ModulePassManager, OnError, PipelineOptions};
use darm::prelude::*;
use darm::serve::{serve_stream, Engine, ServeConfig};
use darm::simt::{KernelArg, TimingConfig};
use std::num::NonZeroU32;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  darm meld <input.ir> [-o out.ir] [--dot out.dot] [--stats] [--jobs N] [--passes SPEC] [--time-passes] [--verify-each] [--on-error degrade|fail] [--timeout-ms N] [--fuel N]\n  darm run <input.ir> --block N [--grid N] [--buf LEN]... [--i32 X]... [--issue-width N]\n  darm analyze <input.ir>\n  darm serve [--socket PATH] [--jobs N] [--queue-depth N] [--cache-entries N] [--cache-bytes N] [--spec SPEC] [--timeout-ms N] [--fuel N] [--max-frame N]"
    );
    std::process::exit(2);
}

/// Parses a flag's value; a missing or malformed one is a usage error.
fn value<T: std::str::FromStr>(v: Option<&String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
}

fn load(path: &str) -> Module {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let module = parse_module(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    });
    for func in module.functions() {
        if let Err(e) = verify_ssa(func) {
            eprintln!("error: {path}: @{}: {e}", func.name());
            std::process::exit(1);
        }
    }
    module
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "meld" => cmd_meld(&args[1..]),
        "run" => cmd_run(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        _ => usage(),
    }
}

fn cmd_meld(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut output = None;
    let mut dot = None;
    let mut show_stats = false;
    let mut spec = String::from("meld");
    let mut options = PipelineOptions::default();
    let mut jobs = 0usize; // 0: all cores

    // The CLI defaults to graceful degradation: melding is optional, the
    // verified input IR is always a correct output for a faulting function.
    let mut on_error = OnError::Degrade;
    let mut timeout_ms: Option<u64> = None;
    let mut fuel: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = it.next().cloned(),
            "--dot" => dot = it.next().cloned(),
            "--stats" => show_stats = true,
            "--passes" => spec = it.next().cloned().unwrap_or_else(|| usage()),
            "--time-passes" => options.time_passes = true,
            "--verify-each" => options.verify_each = true,
            "--jobs" => jobs = value(it.next()),
            "--on-error" => {
                on_error = match it.next().map(String::as_str) {
                    Some("fail") => OnError::Fail,
                    Some("degrade") => OnError::Degrade,
                    _ => usage(),
                }
            }
            "--timeout-ms" => timeout_ms = Some(value(it.next())),
            "--fuel" => fuel = Some(value(it.next())),
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    let mut module = load(&input);
    // One driver for both paths: the default chain is the single melding
    // pass; --passes builds an arbitrary pipeline from the registry. The
    // module manager runs it over every function, in parallel with --jobs.
    let registry = darm::melding::registry(&MeldConfig::default());
    let time_passes = options.time_passes;
    options.budget = Budget::new(timeout_ms.map(std::time::Duration::from_millis), fuel);
    let module_options = ModuleOptions {
        pipeline: options,
        jobs,
        on_error,
    };
    let report = ModulePassManager::compile(&registry, &spec, module_options, &mut module);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Degraded functions were emitted as their verified input IR; say why,
    // stably (`warning: @fn: pass 'meld': time budget exceeded (at ...)`).
    for (_, diag) in report.degraded() {
        eprintln!("warning: {diag}");
    }
    if show_stats {
        let multi = module.len() > 1;
        for fr in &report.functions {
            let prefix = if multi {
                format!("@{}: ", fr.function)
            } else {
                String::new()
            };
            for pass in &fr.report.passes {
                for (k, v) in &pass.stats {
                    eprintln!("{prefix}{}: {k} = {v}", pass.name);
                }
            }
        }
    }
    if time_passes {
        eprint!("{}", report.render());
    }
    for func in module.functions() {
        if let Err(e) = verify_ssa(func) {
            eprintln!(
                "internal error: melded function @{} fails verification: {e}",
                func.name()
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(p) = dot {
        if module.len() != 1 {
            eprintln!("error: --dot needs a single-function module");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&p, to_dot(&module.functions()[0])) {
            eprintln!("error: cannot write {p}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let text = module.to_string();
    match output {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, text) {
                eprintln!("error: cannot write {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    enum Arg {
        Buf(u32),
        I32(i32),
    }
    let mut input = None;
    let mut block = 32u32;
    let mut grid = 1u32;
    let mut arg_specs = Vec::new();
    let mut timing = TimingConfig::on();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--issue-width" => timing.issue_width = value::<NonZeroU32>(it.next()).get(),
            "--block" => block = value(it.next()),
            "--grid" => grid = value(it.next()),
            "--buf" => arg_specs.push(Arg::Buf(value(it.next()))),
            "--i32" => arg_specs.push(Arg::I32(value(it.next()))),
            other if !other.starts_with('-') && input.is_none() => input = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(input) = input else { usage() };
    let module = load(&input);
    let func = &module.functions()[0];
    let mut gpu = Gpu::new(GpuConfig {
        timing,
        ..GpuConfig::default()
    });
    let mut kargs = Vec::new();
    let mut buffers = Vec::new();
    for spec in &arg_specs {
        match *spec {
            Arg::Buf(len) => {
                let b = gpu.alloc_i32(&vec![0; len as usize]);
                buffers.push(b);
                kargs.push(KernelArg::Buffer(b));
            }
            Arg::I32(x) => kargs.push(KernelArg::I32(x)),
        }
    }
    match gpu.launch(func, &LaunchConfig::linear(grid, block), &kargs) {
        Ok(stats) => {
            println!("sim cycles:          {}", stats.sim_cycles);
            println!("warp instructions:   {}", stats.warp_instructions);
            println!("SIMD efficiency:     {:.3}", stats.simd_efficiency());
            println!("ALU utilization:     {:.1}%", stats.alu_utilization());
            println!("global mem insts:    {}", stats.global_mem_insts);
            println!("shared mem insts:    {}", stats.shared_mem_insts);
            println!("bank conflicts:      {}", stats.shared_bank_conflicts);
            println!("sim stall cycles:    {}", stats.sim_stall_cycles);
            println!("sim issue slots:     {}", stats.sim_issue_slots);
            println!("sim divergent brs:   {}", stats.sim_divergent_branches);
            println!("sim reconvergences:  {}", stats.sim_reconvergences);
            for (k, b) in buffers.iter().enumerate() {
                let data = gpu.read_i32(*b);
                let head: Vec<i32> = data.iter().copied().take(8).collect();
                println!(
                    "buffer {k}: {head:?}{}",
                    if data.len() > 8 { " ..." } else { "" }
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simulation error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let Some(input) = args.first() else { usage() };
    let module = load(input);
    for func in module.functions() {
        let da = DivergenceAnalysis::new(func);
        println!(
            "kernel {} — {} blocks, {} instructions",
            func.name(),
            func.block_ids().len(),
            func.live_inst_count()
        );
        let divergent = da.divergent_branch_blocks();
        println!("divergent branches: {}", divergent.len());
        for b in &divergent {
            println!("  {}", func.block_name(*b));
        }
        let analyses = Analyses::new(func);
        for &b in analyses.cfg.rpo() {
            if let Some(r) = region::detect_region(func, &analyses, b) {
                println!(
                    "meldable divergent region at {} (exit {}): {} true / {} false subgraph(s)",
                    func.block_name(r.branch_block),
                    func.block_name(r.exit),
                    r.true_chain.len(),
                    r.false_chain.len()
                );
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut config = ServeConfig {
        // A serving daemon defaults to all cores; `ServeConfig`'s own
        // library default of one worker is for embedders and tests.
        workers: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        ..ServeConfig::default()
    };
    let mut socket: Option<String> = None;
    let mut max_frame = darm::serve::proto::DEFAULT_MAX_FRAME;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--jobs" => config.workers = value(it.next()),
            "--queue-depth" => config.queue_depth = value::<usize>(it.next()).max(1),
            "--cache-entries" => config.cache_entries = value(it.next()),
            "--cache-bytes" => config.cache_bytes = value(it.next()),
            "--spec" => config.default_spec = it.next().cloned().unwrap_or_else(|| usage()),
            "--timeout-ms" => config.default_timeout_ms = Some(value(it.next())),
            "--fuel" => config.default_fuel = Some(value(it.next())),
            "--max-frame" => max_frame = value::<usize>(it.next()).max(16),
            _ => usage(),
        }
    }
    let engine = std::sync::Arc::new(Engine::new(config));
    match socket {
        Some(path) => serve_on_socket(&engine, &path, max_frame),
        None => {
            // Stdio mode serves exactly one client; EOF without a
            // `shutdown` request still drains in-flight work cleanly.
            // Note the `lock()` guards: the writer moves into worker
            // responders, so it must be `Send + 'static`.
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            match serve_stream(&engine, stdin, stdout, max_frame) {
                Ok(_end) => {
                    engine.shutdown();
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

#[cfg(unix)]
fn serve_on_socket(engine: &std::sync::Arc<Engine>, path: &str, max_frame: usize) -> ExitCode {
    let listener = match std::os::unix::net::UnixListener::bind(path) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("error: serve: cannot bind {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = darm::serve::serve_unix(engine, &listener, max_frame);
    let _ = std::fs::remove_file(path);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn serve_on_socket(_engine: &std::sync::Arc<Engine>, _path: &str, _max_frame: usize) -> ExitCode {
    eprintln!("error: serve: --socket requires a Unix platform; use stdio mode");
    ExitCode::FAILURE
}
