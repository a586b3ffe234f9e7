//! Isolated per-layer probes: each calls one layer's public functions on
//! the workload's own corpus and reports an absolute cost per unit of
//! input. One *pass* runs every probe once; the traced run repeats passes
//! until its time is up and reports the median of each timing. Counts must
//! repeat exactly from pass to pass.

use crate::bench::{fresh_gpu, Bench, Tally, SPEC};
use crate::stats;
use darm::align::{align_block_instructions, block_melding_profit, instr::body_insts};
use darm::analysis::{verify_ssa, Cfg, DivergenceAnalysis, DomTree, Liveness, PostDomTree};
use darm::ir::parser::{parse_and_verify_module, parse_module};
use darm::ir::{Function, Module};
use darm::melding::{meld_function, MeldConfig, MeldStats};
use darm::pipeline::{ModuleOptions, ModulePassManager, PipelineOptions};
use darm::serve::cache::{content_key, raw_key};
use darm::serve::json::Json;
use darm::serve::proto::{
    read_frame, write_frame, CompileRequest, FunctionResult, DEFAULT_MAX_FRAME,
};
use darm::serve::{Engine, Request, Response, ServeConfig};
use darm::simt::{BytecodeKernel, Gpu, GpuConfig};
use darm::transforms::{repair_ssa, run_dce, run_instcombine, simplify_cfg};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Values per metric, one per pass.
#[derive(Default)]
pub struct Samples {
    pub timings: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    fn time(&mut self, name: &'static str, value: f64) {
        self.timings.entry(name).or_default().push(value);
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }
}

/// Seconds `f` takes.
fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Summed seconds of `f` over `items`. The iterator is advanced outside the
/// clock, so whatever a `.map(..)` on it prepares (a clone, a fresh GPU) is
/// not timed.
fn sum_secs<I, T>(items: impl IntoIterator<Item = I>, f: impl Fn(I) -> T) -> f64 {
    items.into_iter().map(|item| secs(|| f(item))).sum()
}

fn ns_per(seconds: f64, units: usize) -> f64 {
    1e9 * seconds / units.max(1) as f64
}

fn parsed_modules(bench: &Bench) -> Vec<Module> {
    bench
        .requests
        .iter()
        .map(|r| parse_and_verify_module(&r.text).expect("set-up parsed this text"))
        .collect()
}

/// Seconds `ModulePassManager::compile` takes over `modules` (all of which
/// compiled in set-up).
fn compile_secs(modules: Vec<Module>, options: &ModuleOptions) -> f64 {
    let registry = darm::melding::registry(&MeldConfig::default());
    sum_secs(modules, |mut m| {
        ModulePassManager::compile(&registry, SPEC, options.clone(), &mut m)
            .expect("set-up compiled this module")
    })
}

fn ir(bench: &Bench, out: &mut Samples) {
    let parse = sum_secs(&bench.requests, |r| {
        parse_module(&r.text).expect("set-up parsed this text")
    });
    let print = sum_secs(&parsed_modules(bench), Module::to_string);
    out.time("ir.parse_ns_per_inst", ns_per(parse, bench.insts_in));
    out.time("ir.print_ns_per_inst", ns_per(print, bench.insts_in));
    out.count("ir.insts_in", bench.insts_in as f64);
    out.count("ir.bytes_in", bench.bytes_in as f64);
}

fn analysis(bench: &Bench, out: &mut Samples) {
    let funcs = &bench.base;
    let insts = bench.insts_in;
    let blocks: usize = funcs.iter().map(Function::live_block_count).sum();
    let cfgs: Vec<Cfg> = funcs.iter().map(Cfg::new).collect();
    let doms: Vec<DomTree> = funcs
        .iter()
        .zip(&cfgs)
        .map(|(f, c)| DomTree::new(f, c))
        .collect();
    let pairs = || funcs.iter().zip(&cfgs);
    let verify = sum_secs(funcs, |f| verify_ssa(f).expect("set-up verified this"));
    let cfg = sum_secs(funcs, Cfg::new);
    let dom = sum_secs(pairs(), |(f, c)| DomTree::new(f, c));
    let postdom = sum_secs(pairs(), |(f, c)| PostDomTree::new(f, c));
    let divergence = sum_secs(pairs().zip(&doms), |((f, c), d)| {
        DivergenceAnalysis::run(f, c, d)
    });
    let liveness = sum_secs(pairs(), |(f, c)| Liveness::with_cfg(f, c));
    out.time("analysis.verify_ns_per_inst", ns_per(verify, insts));
    out.time("analysis.cfg_ns_per_block", ns_per(cfg, blocks));
    out.time("analysis.dom_ns_per_block", ns_per(dom, blocks));
    out.time("analysis.postdom_ns_per_block", ns_per(postdom, blocks));
    out.time("analysis.divergence_ns_per_inst", ns_per(divergence, insts));
    out.time("analysis.liveness_ns_per_inst", ns_per(liveness, insts));
}

fn align(bench: &Bench, out: &mut Samples) {
    let (mut cells, mut pairs, mut align_s, mut profit_s) = (0, 0, 0.0, 0.0);
    for func in &bench.base {
        for b in DivergenceAnalysis::new(func).divergent_branch_blocks() {
            let &[t, e] = func.succ_slice(b) else {
                continue;
            };
            cells += body_insts(func, t).len() * body_insts(func, e).len();
            pairs += 1;
            align_s += secs(|| align_block_instructions(func, t, e));
            profit_s += secs(|| block_melding_profit(func, t, e));
        }
    }
    out.time("align.block_ns_per_cell", ns_per(align_s, cells));
    out.time("align.profit_ns_per_pair", ns_per(profit_s, pairs));
    out.count("align.pairs", pairs as f64);
}

/// `meld_function` on a clone of every kernel. Returns the summed seconds,
/// which `pipeline` needs for the driver's share.
fn melding(bench: &Bench, out: &mut Samples) -> f64 {
    let config = MeldConfig::default();
    let mut iterations = 0;
    let meld_s: f64 = bench
        .base
        .iter()
        .map(|func| {
            let mut clone = func.clone();
            let t = Instant::now();
            let stats = meld_function(&mut clone, &config);
            let s = t.elapsed().as_secs_f64();
            iterations += stats.iterations;
            s
        })
        .sum();
    out.time("melding.meld_ns_per_inst", ns_per(meld_s, bench.insts_in));
    out.time("melding.ns_per_iteration", ns_per(meld_s, iterations));
    meld_s
}

/// The counters the program itself returns: one compile with
/// `time_passes` on, read through `ModuleReport::rollup` and `MeldStats`.
fn counters(bench: &Bench, out: &mut Samples) {
    let registry = darm::melding::registry(&MeldConfig::default());
    let options = ModuleOptions::serial(PipelineOptions {
        time_passes: true,
        ..PipelineOptions::default()
    });
    let cap = MeldConfig::default().max_iterations;
    let mut total = MeldStats::default();
    let (mut cap_hits, mut degraded, mut melded_functions) = (0, 0, 0);
    let mut a = darm::analysis::AnalysisCounters::default();
    for mut module in parsed_modules(bench) {
        let report = ModulePassManager::compile(&registry, SPEC, options.clone(), &mut module)
            .expect("set-up compiled this module");
        degraded += report.degraded_count();
        for pass in report.rollup().passes {
            a.computes += pass.analysis.computes;
            a.hits += pass.analysis.hits;
            a.updates += pass.analysis.updates;
            a.in_place_deletion_updates += pass.analysis.in_place_deletion_updates;
            a.in_place_cfg_updates += pass.analysis.in_place_cfg_updates;
            a.in_place_divergence_updates += pass.analysis.in_place_divergence_updates;
        }
        for fr in &report.functions {
            let s = MeldStats::from_report(&fr.report);
            total.melded_regions += s.melded_regions;
            total.melded_subgraphs += s.melded_subgraphs;
            total.replications += s.replications;
            total.selects_inserted += s.selects_inserted;
            total.unpredicated_groups += s.unpredicated_groups;
            total.iterations += s.iterations;
            cap_hits += usize::from(s.iterations >= cap);
            melded_functions += usize::from(s.melded_subgraphs > 0);
        }
    }
    let insts_out: usize = bench.darm.iter().map(Function::live_inst_count).sum();
    for (name, v) in [
        ("analysis.computes", a.computes),
        ("analysis.hits", a.hits),
        ("analysis.updates", a.updates),
        ("analysis.del_updates", a.in_place_deletion_updates),
        ("analysis.cfg_updates", a.in_place_cfg_updates),
        ("analysis.div_updates", a.in_place_divergence_updates),
        ("melding.melded_regions", total.melded_regions),
        ("melding.melded_subgraphs", total.melded_subgraphs),
        ("melding.melded_functions", melded_functions),
        ("melding.replications", total.replications),
        ("melding.selects_inserted", total.selects_inserted),
        ("melding.unpredicated_groups", total.unpredicated_groups),
        ("melding.iterations", total.iterations),
        ("melding.iter_cap_hits", cap_hits),
        ("pipeline.degraded", degraded),
    ] {
        out.count(name, v as f64);
    }
    out.count(
        "analysis.update_ratio",
        a.updates as f64 / (a.updates + a.computes).max(1) as f64,
    );
    out.count(
        "melding.insts_out_per_in",
        insts_out as f64 / bench.insts_in as f64,
    );
}

fn transforms(bench: &Bench, out: &mut Samples) {
    // Whole-function runs on unmelded clones: a proxy, since inside the
    // meld fixpoint these passes run scoped to what a meld touched.
    let clones = || bench.base.iter().cloned();
    let insts = bench.insts_in;
    let simplify = sum_secs(clones(), |mut f| simplify_cfg(&mut f));
    let instcombine = sum_secs(clones(), |mut f| run_instcombine(&mut f));
    let dce = sum_secs(clones(), |mut f| run_dce(&mut f));
    let ssa_repair = sum_secs(clones(), |mut f| repair_ssa(&mut f));
    out.time("transforms.simplify_ns_per_inst", ns_per(simplify, insts));
    out.time(
        "transforms.instcombine_ns_per_inst",
        ns_per(instcombine, insts),
    );
    out.time("transforms.dce_ns_per_inst", ns_per(dce, insts));
    out.time(
        "transforms.ssa_repair_ns_per_inst",
        ns_per(ssa_repair, insts),
    );
}

fn pipeline(bench: &Bench, meld_s: f64, out: &mut Samples) {
    let serial = ModuleOptions::serial(PipelineOptions::default());
    let spec = secs(|| {
        let registry = darm::melding::registry(&MeldConfig::default());
        ModulePassManager::new(&registry, SPEC, serial.clone()).map(|m| m.spec().to_string())
    });
    out.time("pipeline.spec_parse_us", 1e6 * spec);
    let wall = compile_secs(parsed_modules(bench), &serial);
    out.time("pipeline.driver_overhead_frac", 1.0 - meld_s / wall);
    // `jobs` can only help inside one module, so the whole corpus goes into
    // one (function names are unique across it).
    let whole = Module::from_functions("corpus", bench.base.iter().cloned())
        .expect("corpus function names are unique");
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallel = ModuleOptions {
        jobs: nproc,
        ..serial.clone()
    };
    let one = compile_secs(vec![whole.clone()], &serial);
    let many = crate::affinity::on_all_cpus(|| compile_secs(vec![whole], &parallel));
    out.time("pipeline.jobs_speedup", one / many);
}

fn simt(bench: &Bench, out: &mut Samples) {
    let cases = &bench.corpus.cases;
    let variants = || bench.base.iter().chain(&bench.darm);
    let lower = sum_secs(variants(), BytecodeKernel::new);
    let insts: usize = variants().map(Function::live_inst_count).sum();
    out.time("simt.lower_ns_per_inst", ns_per(lower, insts));
    let fixed = sum_secs(cases, |case| {
        let mut gpu = Gpu::new(GpuConfig::default());
        let (_, bufs) = case.alloc_args(&mut gpu);
        for (id, is_f32) in bufs.into_iter().flatten() {
            if is_f32 {
                black_box(gpu.read_f32(id));
            } else {
                black_box(gpu.read_i32(id));
            }
        }
    });
    out.time("simt.launch_fixed_us", 1e6 * fixed / cases.len() as f64);
    let kernels: Vec<[BytecodeKernel; 2]> = bench
        .base
        .iter()
        .zip(&bench.darm)
        .map(|(b, d)| [BytecodeKernel::new(b), BytecodeKernel::new(d)])
        .collect();
    let launches = |timing: bool| {
        let ready = cases
            .iter()
            .zip(&kernels)
            .flat_map(|(case, pair)| pair.iter().map(move |kernel| (case, kernel)))
            .map(|(case, kernel)| (case, kernel, fresh_gpu(case, timing)));
        sum_secs(ready, |(case, kernel, (mut gpu, args))| {
            gpu.launch_bytecode(kernel, &case.launch, &args)
                .expect("set-up ran this")
        })
    };
    let (off, on) = (launches(false), launches(true));
    let mwi = bench.warp_insts() as f64 / 1e6;
    out.time("simt.bytecode_mwi_per_s", mwi / off);
    out.time("simt.bytecode_timed_mwi_per_s", mwi / on);
    out.time("simt.timing_overhead_frac", on / off - 1.0);
    let ready = cases
        .iter()
        .zip(&bench.base)
        .map(|(case, func)| (case, func, fresh_gpu(case, false)));
    let reference = sum_secs(ready, |(case, func, (mut gpu, args))| {
        gpu.launch_reference(func, &case.launch, &args)
            .expect("set-up ran this")
    });
    let base_wi: u64 = bench
        .golden_stats
        .iter()
        .map(|s| s[0].warp_instructions)
        .sum();
    out.time("simt.reference_mwi_per_s", base_wi as f64 / 1e6 / reference);
}

fn serve(bench: &Bench, tally: &mut Tally, out: &mut Samples) {
    let reqs = &bench.requests;
    let frame_bytes: usize = reqs.iter().map(|r| r.frame.len()).sum();
    let decode = sum_secs(reqs, |r| {
        let body = read_frame(&mut &r.frame[..], DEFAULT_MAX_FRAME).expect("a whole frame");
        let text = String::from_utf8(body.expect("not at EOF")).expect("UTF-8");
        let json = Json::parse(&text).expect("the harness wrote this JSON");
        Request::from_json(&json).expect("a compile request")
    });
    out.time("serve.decode_ns_per_byte", ns_per(decode, frame_bytes));
    let responses = reqs.iter().enumerate().map(|(id, r)| Response::Ok {
        id: id as u64,
        ir: r.melded.clone(),
        functions: bench.darm[r.cases.clone()]
            .iter()
            .map(|f| FunctionResult {
                name: f.name().to_string(),
                optimized: true,
                cached: false,
                diagnostic: None,
            })
            .collect(),
    });
    let render = sum_secs(responses, |response| {
        let mut wire = Vec::new();
        write_frame(&mut wire, &response.to_bytes()).expect("write to memory");
        wire
    });
    let response_bytes: usize = reqs.iter().map(|r| r.cold.len()).sum();
    out.time("serve.render_ns_per_byte", ns_per(render, response_bytes));
    let key = sum_secs(reqs, |r| raw_key(SPEC, &r.text));
    out.time("serve.key_ns_per_byte", ns_per(key, bench.bytes_in));
    let fn_key = sum_secs(&bench.base, |f| content_key(SPEC, f));
    out.time("serve.fn_key_ns_per_inst", ns_per(fn_key, bench.insts_in));

    // `Engine::submit` with the reply handed straight back: the serve
    // phase's request minus framing, JSON and the socket.
    let engine = Engine::new(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    for (name, want_cached) in [
        ("serve.submit_cold_us", false),
        ("serve.submit_warm_us", true),
    ] {
        let mut us = Vec::new();
        for &r in &bench.order {
            let request = CompileRequest {
                id: r as u64,
                ir: reqs[r].text.clone(),
                spec: None,
                timeout_ms: None,
                fuel: None,
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let t = Instant::now();
            engine.submit(request, Box::new(move |response| drop(tx.send(response))));
            let response = rx.recv();
            us.push(1e6 * t.elapsed().as_secs_f64());
            let want = if want_cached {
                &reqs[r].warm
            } else {
                &reqs[r].cold
            };
            tally.ops(
                1,
                match response {
                    Ok(resp) if resp.to_bytes() == *want => Ok(()),
                    _ => Err(format!("{name}: response differs from expected")),
                },
            );
        }
        out.time(name, stats::median(&us));
    }
}

/// Runs every probe once over the corpus.
pub fn pass(bench: &Bench, tally: &mut Tally, out: &mut Samples) {
    ir(bench, out);
    analysis(bench, out);
    align(bench, out);
    let meld_s = melding(bench, out);
    counters(bench, out);
    transforms(bench, out);
    pipeline(bench, meld_s, out);
    simt(bench, out);
    serve(bench, tally, out);
}
