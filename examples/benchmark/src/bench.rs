//! Set-up (corpus → texts → oracle → expected outputs → warm-up) and the
//! measured round: compile, simulate, serve, each checked as it goes.
//!
//! Load shape: one generator thread, one connection, a closed loop with one
//! request outstanding, `ServeConfig.workers = 1`, compile `jobs = 1`.

use crate::corpus::{self, Corpus, Rng};
use crate::stats::{self, json_string};
use crate::trace::Tracer;
use darm::analysis::verify_ssa;
use darm::ir::parser::parse_and_verify_module;
use darm::ir::Function;
use darm::kernels::{BenchCase, BufData, RunResult};
use darm::melding::MeldConfig;
use darm::pipeline::{ModuleOptions, ModulePassManager, PassRegistry, PipelineOptions};
use darm::serve::json::Json;
use darm::serve::proto::{FunctionResult, DEFAULT_MAX_FRAME};
use darm::serve::{serve_stream, Engine, Response, ServeConfig};
use darm::simt::{BytecodeKernel, Gpu, GpuConfig, KernelArg, KernelStats, TimingConfig};
use std::io::{Read, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// The pipeline spec every phase compiles under.
pub const SPEC: &str = "meld";

/// Operations attempted and failed. An operation is one function compiled,
/// one launch checked or one request answered.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn ops(&mut self, n: usize, result: Result<(), String>) {
        self.attempted += n as u64;
        if let Err(why) = result {
            self.failed += n as u64;
            self.first_failure.get_or_insert(why);
        }
    }

    /// A failure that is not one operation's: a dead connection, a count
    /// that did not repeat.
    pub fn fault(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }
}

/// One module of the corpus, which is also one serve request.
pub struct Request {
    pub cases: Range<usize>,
    pub text: String,
    /// The request as it goes on the wire (length prefix + JSON body).
    pub frame: Vec<u8>,
    /// The same request with one function's constant edited.
    pub edited_frame: Vec<u8>,
    /// Expected compile output, from the set-up's direct compile.
    pub melded: String,
    /// Expected response bodies: first sight, replay, and the edited one.
    pub cold: Vec<u8>,
    pub warm: Vec<u8>,
    pub edited: Vec<u8>,
}

pub struct Bench {
    pub corpus: Corpus,
    pub requests: Vec<Request>,
    /// Seeded order in which requests are sent.
    pub order: Vec<usize>,
    /// Per case, parsed back from text: the unmelded and the melded kernel.
    pub base: Vec<Function>,
    pub darm: Vec<Function>,
    /// Per case: stats of base/darm with timing off, then base/darm with
    /// timing on. Every later launch must reproduce them.
    pub golden_stats: Vec<[KernelStats; 4]>,
    pub insts_in: usize,
    pub bytes_in: usize,
    /// Seconds spent building the corpus, on the oracle, and on expected
    /// outputs plus the warm-up round.
    pub setup_parts: [f64; 3],
}

/// What one round measured: seconds per *item*, in an order that is the
/// same every round, so an item's times can be compared across rounds.
#[derive(Default)]
pub struct RoundSample {
    pub wall_s: f64,
    /// Building the pass registry, then each module text → melded text.
    pub compile_s: Vec<f64>,
    /// Each launch (lower + set-up + launch + read-back), timing off / on.
    pub sim_s: Vec<f64>,
    pub sim_timed_s: Vec<f64>,
    /// Each request, frame written → response read, per pass.
    pub cold_s: Vec<f64>,
    pub warm_s: Vec<f64>,
    pub churn_s: Vec<f64>,
    /// `Engine::stats_json` after the last request.
    pub engine_stats: Option<Json>,
}

/// Text → verified module → `meld` → text: the compile phase's unit, and
/// how set-up derives every expected output.
fn compile_text(registry: &PassRegistry, text: &str, tr: &mut Tracer) -> Result<String, String> {
    let mut module = tr
        .span("ir.parse_verify", |_| parse_and_verify_module(text))
        .map_err(|e| e.to_string())?;
    let report = tr
        .span("pipeline.compile", |_| {
            let serial = ModuleOptions::serial(PipelineOptions::default());
            ModulePassManager::compile(registry, SPEC, serial, &mut module)
        })
        .map_err(|e| e.to_string())?;
    if report.degraded_count() > 0 {
        return Err(format!("{} function(s) degraded", report.degraded_count()));
    }
    Ok(tr.span("ir.print", |_| module.to_string()))
}

fn gpu_config(timing: bool) -> GpuConfig {
    GpuConfig {
        timing: if timing {
            TimingConfig::on()
        } else {
            TimingConfig::default()
        },
        ..GpuConfig::default()
    }
}

/// Lower, allocate, launch, read back. Returns the seconds those four
/// steps took and the result.
fn launch(
    case: &BenchCase,
    func: &Function,
    timing: bool,
    tr: &mut Tracer,
) -> Result<(f64, RunResult), String> {
    let t = Instant::now();
    let kernel = tr.span("simt.lower", |_| BytecodeKernel::new(func));
    let (mut gpu, args, bufs) = tr.span("simt.launch_setup", |_| {
        let mut gpu = Gpu::new(gpu_config(timing));
        let (args, bufs) = case.alloc_args(&mut gpu);
        (gpu, args, bufs)
    });
    let stats = tr
        .span("simt.launch", |_| {
            gpu.launch_bytecode(&kernel, &case.launch, &args)
        })
        .map_err(|e| format!("{}: {e}", case.name))?;
    let buffers = tr.span("simt.readback", |_| {
        bufs.iter()
            .map(|b| {
                b.map(|(id, is_f32)| {
                    if is_f32 {
                        BufData::F32(gpu.read_f32(id))
                    } else {
                        BufData::I32(gpu.read_i32(id))
                    }
                })
            })
            .collect()
    });
    Ok((t.elapsed().as_secs_f64(), RunResult { buffers, stats }))
}

/// The unmelded kernel on the reference interpreter: the oracle for
/// generated kernels, which have no hand-written CPU reference.
fn reference_output(case: &BenchCase, func: &Function) -> Result<Vec<(usize, BufData)>, String> {
    let mut gpu = Gpu::new(GpuConfig::default());
    let (args, bufs) = case.alloc_args(&mut gpu);
    gpu.launch_reference(func, &case.launch, &args)
        .map_err(|e| format!("{}: reference run failed: {e}", case.name))?;
    Ok(bufs
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.map(|(id, _)| (i, BufData::I32(gpu.read_i32(id)))))
        .collect())
}

fn frame(id: usize, ir: &str) -> Vec<u8> {
    let body = format!(
        "{{\"op\":\"compile\",\"id\":{id},\"ir\":{}}}",
        json_string(ir)
    );
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body.as_bytes());
    out
}

/// The response body the daemon must send for `ir`, given which functions
/// it may answer from its cache.
fn ok_response(id: usize, ir: &str, names: &[String], cached: impl Fn(usize) -> bool) -> Vec<u8> {
    Response::Ok {
        id: id as u64,
        ir: ir.to_string(),
        functions: names
            .iter()
            .enumerate()
            .map(|(i, name)| FunctionResult {
                name: name.clone(),
                optimized: true,
                cached: cached(i),
                diagnostic: None,
            })
            .collect(),
    }
    .to_bytes()
}

/// Writes one request and reads one response into `body`; returns the
/// seconds from first byte written to last byte read.
fn exchange(stream: &mut UnixStream, frame: &[u8], body: &mut Vec<u8>) -> std::io::Result<f64> {
    let t = Instant::now();
    stream.write_all(frame)?;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len)?;
    body.resize(u32::from_be_bytes(len) as usize, 0);
    stream.read_exact(body)?;
    Ok(t.elapsed().as_secs_f64())
}

fn module_text<'a>(texts: impl IntoIterator<Item = &'a String>) -> String {
    // As `Module`'s `Display` prints it: functions separated by a blank line.
    texts
        .into_iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .join("\n")
}

impl Bench {
    /// Everything before the first timed sample. Returns an error if any
    /// generated function fails to verify, any kernel fails on the
    /// reference tier, or the warm-up round sees a wrong output.
    pub fn setup(workload: &str, seed: u64) -> Result<Bench, String> {
        let t_build = Instant::now();
        let mut corpus = corpus::build(workload, seed)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?;
        let build_s = t_build.elapsed().as_secs_f64();

        let t_oracle = Instant::now();
        let texts: Vec<String> = corpus.cases.iter().map(|c| c.func.to_string()).collect();
        let per = corpus.fns_per_request;
        let ranges: Vec<Range<usize>> = (0..texts.len())
            .step_by(per)
            .map(|lo| lo..(lo + per).min(texts.len()))
            .collect();
        // From here on only text reaches the program: the kernels that get
        // simulated are the ones parsed back from it.
        let mut base = Vec::new();
        for range in &ranges {
            let module = parse_and_verify_module(&module_text(&texts[range.clone()]))
                .map_err(|e| format!("generated module does not parse: {e}"))?;
            for func in module.into_functions() {
                verify_ssa(&func).map_err(|e| format!("@{}: {e}", func.name()))?;
                base.push(func);
            }
        }
        for (case, func) in corpus.cases.iter_mut().zip(&base) {
            if case.expected.is_empty() {
                case.expected = reference_output(case, func)?;
            }
        }
        let oracle_s = t_oracle.elapsed().as_secs_f64();

        let t_expect = Instant::now();
        let registry = darm::melding::registry(&MeldConfig::default());
        let mut rng = Rng::new(seed ^ 0x5eed);
        let off = &mut Tracer::new();
        let mut requests = Vec::new();
        let mut darm_fns = Vec::new();
        for (id, range) in ranges.into_iter().enumerate() {
            let text = module_text(&texts[range.clone()]);
            let melded = compile_text(&registry, &text, off)?;
            let module = parse_and_verify_module(&melded)
                .map_err(|e| format!("compile output does not parse: {e}"))?;
            let names: Vec<String> = module
                .functions()
                .iter()
                .map(|f| f.name().to_string())
                .collect();
            for func in module.into_functions() {
                verify_ssa(&func).map_err(|e| format!("melded @{}: {e}", func.name()))?;
                darm_fns.push(func);
            }
            // The churn edit: one function of the module, one constant.
            let victim = rng.below(range.len() as u64) as usize;
            let mut edited_fn = corpus.cases[range.start + victim].func.clone();
            let salt = 1000 + rng.below(9000) as i32;
            if !corpus::edit_constant(&mut edited_fn, salt) {
                return Err(format!("@{}: no constant to edit", edited_fn.name()));
            }
            let mut edited_texts = texts[range.clone()].to_vec();
            edited_texts[victim] = edited_fn.to_string();
            let edited_text = module_text(&edited_texts);
            let edited_melded = compile_text(&registry, &edited_text, off)?;
            requests.push(Request {
                frame: frame(id, &text),
                edited_frame: frame(id, &edited_text),
                cold: ok_response(id, &melded, &names, |_| false),
                warm: ok_response(id, &melded, &names, |_| true),
                // Only the edited function misses the per-function cache.
                edited: ok_response(id, &edited_melded, &names, |i| i != victim),
                cases: range,
                text,
                melded,
            });
        }
        let mut order: Vec<usize> = (0..requests.len()).collect();
        rng.shuffle(&mut order);

        let mut bench = Bench {
            insts_in: base.iter().map(Function::live_inst_count).sum(),
            bytes_in: requests.iter().map(|r| r.text.len()).sum(),
            corpus,
            requests,
            order,
            base,
            darm: darm_fns,
            golden_stats: Vec::new(),
            setup_parts: [build_s, oracle_s, 0.0],
        };
        for i in 0..bench.corpus.cases.len() {
            let mut four = [KernelStats::default(); 4];
            for (slot, stats) in four.iter_mut().enumerate() {
                let func = if slot % 2 == 0 {
                    &bench.base[i]
                } else {
                    &bench.darm[i]
                };
                *stats = launch(&bench.corpus.cases[i], func, slot >= 2, off)?
                    .1
                    .stats;
            }
            bench.golden_stats.push(four);
        }
        // Warm-up: one full round, which must already be correct.
        let mut tally = Tally::default();
        bench.round(off, &mut tally);
        if let Some(why) = tally.first_failure {
            return Err(format!("warm-up round: {why}"));
        }
        bench.setup_parts[2] = t_expect.elapsed().as_secs_f64();
        Ok(bench)
    }

    /// A digest of every expected output: two set-ups with one seed must
    /// agree on it, or the program is not deterministic.
    pub fn digest(&self) -> u64 {
        let mut h = darm::ir::hash::Fnv64::new();
        for r in &self.requests {
            h.write(r.melded.as_bytes());
            h.write(&r.cold);
            h.write(&r.edited);
        }
        for four in &self.golden_stats {
            h.write(format!("{four:?}").as_bytes());
        }
        h.finish()
    }

    /// Compile: every module of the corpus, text to melded text.
    fn compile_phase(&self, tr: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
        let mut secs = Vec::new();
        let t = Instant::now();
        let registry = tr.span("melding.registry", |_| {
            darm::melding::registry(&MeldConfig::default())
        });
        secs.push(t.elapsed().as_secs_f64());
        for req in &self.requests {
            let t = Instant::now();
            let out = compile_text(&registry, &req.text, tr);
            secs.push(t.elapsed().as_secs_f64());
            tr.span("harness.check", |_| {
                tally.ops(
                    req.cases.len(),
                    out.and_then(|text| {
                        (text == req.melded).then_some(()).ok_or_else(|| {
                            format!("request {:?}: compile output changed", req.cases)
                        })
                    }),
                );
            });
        }
        secs
    }

    /// Simulate: baseline and DARM variant of every kernel. Returns the
    /// seconds inside lower + set-up + launch + read-back, per launch.
    fn sim_phase(&self, timing: bool, tr: &mut Tracer, tally: &mut Tally) -> Vec<f64> {
        let mut secs = Vec::new();
        for (i, case) in self.corpus.cases.iter().enumerate() {
            for (variant, func) in [&self.base[i], &self.darm[i]].into_iter().enumerate() {
                let launched = launch(case, func, timing, tr);
                tr.span("harness.check", |_| {
                    tally.ops(
                        1,
                        launched.and_then(|(s, result)| {
                            secs.push(s);
                            let want = self.golden_stats[i][variant + 2 * usize::from(timing)];
                            if result.stats != want {
                                return Err(format!("{}: KernelStats changed", case.name));
                            }
                            case.check(&result)
                        }),
                    );
                });
            }
        }
        secs
    }

    /// Serve: a fresh engine, then the request stream three times over one
    /// connection — cold, warm, and churn (four sub-passes, each editing a
    /// different quarter of the requests, so every request is edited once
    /// whatever the order).
    fn serve_phase(&self, tr: &mut Tracer, tally: &mut Tally, sample: &mut RoundSample) {
        let engine = tr.span("serve.engine_new", |_| {
            Engine::new(ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            })
        });
        let (mut client, server) = UnixStream::pair().expect("socket pair");
        let server_out = server.try_clone().expect("clone socket");
        let mut body = Vec::new();
        std::thread::scope(|scope| {
            let engine = &engine;
            let daemon =
                scope.spawn(move || serve_stream(engine, server, server_out, DEFAULT_MAX_FRAME));
            // Sends one request and checks the reply; the latency goes to
            // `into`.
            let mut send = |name: &'static str,
                            (frame, want): (&[u8], &[u8]),
                            into: &mut Vec<f64>,
                            tr: &mut Tracer| {
                let sent = tr.span(name, |_| exchange(&mut client, frame, &mut body));
                tr.span("harness.check", |_| {
                    tally.ops(
                        1,
                        match sent {
                            Ok(secs) if body == want => {
                                into.push(secs);
                                Ok(())
                            }
                            Ok(_) => Err(format!("{name}: response differs from expected")),
                            Err(e) => Err(format!("{name}: {e}")),
                        },
                    );
                });
            };
            let requests = || self.order.iter().map(|&r| &self.requests[r]);
            for req in requests() {
                send(
                    "serve.request_cold",
                    (&req.frame, &req.cold),
                    &mut sample.cold_s,
                    tr,
                );
            }
            for req in requests() {
                send(
                    "serve.request_warm",
                    (&req.frame, &req.warm),
                    &mut sample.warm_s,
                    tr,
                );
            }
            for quarter in 0..4 {
                for (pos, req) in requests().enumerate() {
                    let wire = if pos % 4 == quarter {
                        (&req.edited_frame[..], &req.edited[..])
                    } else {
                        (&req.frame[..], &req.warm[..])
                    };
                    send("serve.request_churn", wire, &mut sample.churn_s, tr);
                }
            }
            // EOF ends the daemon's read loop.
            client
                .shutdown(std::net::Shutdown::Both)
                .expect("close socket");
            if let Err(e) = daemon.join().expect("serve_stream thread") {
                tally.fault(format!("serve_stream: {e}"));
            }
        });
        sample.engine_stats = Some(engine.stats_json());
        tr.span("serve.shutdown", |_| drop(engine));
    }

    /// One round: the three phases back to back, so a burst of machine
    /// noise lands on one sample of each metric at most.
    pub fn round(&self, tr: &mut Tracer, tally: &mut Tally) -> RoundSample {
        let mut sample = RoundSample::default();
        let t = Instant::now();
        tr.span("round", |tr| {
            sample.compile_s = tr.span("phase.compile", |tr| self.compile_phase(tr, tally));
            sample.sim_s = tr.span("phase.simulate", |tr| self.sim_phase(false, tr, tally));
            sample.sim_timed_s =
                tr.span("phase.simulate_timed", |tr| self.sim_phase(true, tr, tally));
            tr.span("phase.serve", |tr| self.serve_phase(tr, tally, &mut sample));
        });
        sample.wall_s = t.elapsed().as_secs_f64();
        sample
    }

    /// Warp instructions issued by one simulate phase (either timing mode).
    pub fn warp_insts(&self) -> u64 {
        self.golden_stats
            .iter()
            .map(|s| s[0].warp_instructions + s[1].warp_instructions)
            .sum()
    }

    /// Geomean over `cases` of baseline / DARM by `key`, from the
    /// timing-on launches.
    pub fn speedup(&self, cases: Range<usize>, key: fn(&KernelStats) -> u64) -> f64 {
        stats::geomean(
            self.golden_stats[cases]
                .iter()
                .map(|s| key(&s[2]) as f64 / key(&s[3]) as f64),
        )
    }
}

/// Arguments ready for a launch on a fresh GPU; the probes use it to time
/// the launch alone.
pub fn fresh_gpu(case: &BenchCase, timing: bool) -> (Gpu, Vec<KernelArg>) {
    let mut gpu = Gpu::new(gpu_config(timing));
    let (args, _) = case.alloc_args(&mut gpu);
    (gpu, args)
}
