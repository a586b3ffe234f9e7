//! Module-level compilation: one [`ModulePassManager`] runs a per-function
//! pipeline (built from one parsed spec) over every function of a
//! [`Module`], serially or on a scoped worker pool.
//!
//! Functions are independent — they share no arenas, and every analysis
//! result is `Send + Sync` — so the parallel path needs no coordination
//! beyond a work queue: workers pop positions of a precomputed *schedule*
//! from an atomic counter, build a private pipeline instance from the
//! shared parsed spec, and run it against their function. The schedule is
//! largest-function-first (live blocks + instructions, input order
//! breaking ties): on skewed suites a big kernel claimed last would
//! otherwise stretch the parallel makespan on its own. Results land in
//! per-function slots, so reports and transformed functions are assembled
//! in *input order* regardless of claim or completion order: a parallel
//! run is bit-identical to the serial one (`jobs = 1`, which takes a
//! plain loop with no thread or lock overhead).
//!
//! Each function gets its own pipeline instance, built from the shared
//! parsed spec (a factory call per pass — some 0.2 µs against the tens of
//! microseconds the smallest function takes to meld), so no per-function
//! pass state outlives its function.
//!
//! Every per-function pipeline runs inside the one containment boundary
//! (`compile_one`): panics, budget cancellations and pipeline errors are
//! caught and classified, and — per [`ModuleOptions::on_error`] — the run
//! either rolls the function back to its pre-pipeline snapshot, records a
//! [`FunctionOutcome::Degraded`] and continues ([`OnError::Degrade`]) or
//! fails with the earliest fault in module order ([`OnError::Fail`], which
//! takes no snapshot). Workers recover poisoned slot mutexes with
//! `PoisonError::into_inner` instead of cascading a crash.

use crate::registry::PassRegistry;
use crate::spec::PassSpec;
use crate::{
    clear_current_pass, install_quiet_panic_hook, Diagnostic, FaultCause, PassRecord,
    PipelineError, PipelineOptions, PipelineReport,
};
use darm_ir::{Function, Module};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// What a [`ModulePassManager`] does when one function's pipeline faults
/// (panics, errors, or exhausts its budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnError {
    /// Fail the whole module run with the earliest (in module order)
    /// fault. The library default — it preserves the pre-containment
    /// error surface — though panics are still caught and surfaced as
    /// [`PipelineError::Fault`] instead of crashing the driver.
    #[default]
    Fail,
    /// Contain the fault: restore the function's pre-pipeline IR (bit
    /// identical, fresh journal identity), record
    /// [`FunctionOutcome::Degraded`] with its [`Diagnostic`], and keep
    /// compiling every other function. The CLI default (`darm meld
    /// --on-error degrade`): melding is strictly optional, so baseline IR
    /// is always a correct answer.
    Degrade,
}

/// Knobs of a [`ModulePassManager`] run.
#[derive(Debug, Clone, Default)]
pub struct ModuleOptions {
    /// Per-function pipeline options (verification, timing, budget).
    pub pipeline: PipelineOptions,
    /// Worker threads; `0` (the default) means
    /// [`std::thread::available_parallelism`], `1` the serial path.
    pub jobs: usize,
    /// Fault response: fail the run or degrade the function.
    pub on_error: OnError,
}

impl ModuleOptions {
    /// Serial module compilation with the given pipeline options.
    pub fn serial(pipeline: PipelineOptions) -> ModuleOptions {
        ModuleOptions {
            pipeline,
            jobs: 1,
            on_error: OnError::default(),
        }
    }

    /// The worker count a run will actually use for `n_functions`
    /// functions: `jobs` resolved against available parallelism and capped
    /// at the function count.
    pub fn effective_jobs(&self, n_functions: usize) -> usize {
        let requested = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.jobs
        };
        requested.clamp(1, n_functions.max(1))
    }
}

/// How one function's pipeline ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FunctionOutcome {
    /// The pipeline ran to completion; the function holds its output.
    Optimized,
    /// The pipeline faulted and was contained: the function holds its
    /// pre-pipeline IR, bit-identical to the input, and the diagnostic
    /// says why.
    Degraded(Diagnostic),
}

impl FunctionOutcome {
    /// Whether this is a degraded outcome.
    pub fn is_degraded(&self) -> bool {
        matches!(self, FunctionOutcome::Degraded(_))
    }

    /// The diagnostic of a degraded outcome.
    pub fn diagnostic(&self) -> Option<&Diagnostic> {
        match self {
            FunctionOutcome::Optimized => None,
            FunctionOutcome::Degraded(diag) => Some(diag),
        }
    }
}

/// One function's share of a [`ModuleReport`].
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// Function name.
    pub function: String,
    /// The function's pipeline report (per-pass records, analysis
    /// computations). Empty for a degraded function — its pipeline work
    /// was rolled back with its IR.
    pub report: PipelineReport,
    /// Whether the function was optimized or degraded to baseline IR.
    pub outcome: FunctionOutcome,
}

/// Everything a module run measured: per-function reports in module order
/// plus module-level wall clock.
#[derive(Debug, Clone, Default)]
pub struct ModuleReport {
    /// Per-function reports, in module (input) order.
    pub functions: Vec<FunctionReport>,
    /// Wall-clock seconds of the whole module run — under a parallel run
    /// this is smaller than the summed per-function pipeline time.
    pub wall_seconds: f64,
    /// Worker threads the run used.
    pub jobs: usize,
}

impl ModuleReport {
    /// Per-pass rollup across every function: pipeline slots are merged by
    /// position (every function ran the same spec), summing runs, units,
    /// time, analysis counters and named stats. `total_seconds` of the
    /// result is summed per-function pipeline (CPU) time, not wall time.
    pub fn rollup(&self) -> PipelineReport {
        let mut passes: Vec<PassRecord> = Vec::new();
        let mut computations: Vec<(&'static str, usize)> = Vec::new();
        let mut total = 0.0;
        for fr in &self.functions {
            total += fr.report.total_seconds;
            for (slot, r) in fr.report.passes.iter().enumerate() {
                if passes.len() <= slot {
                    passes.push(PassRecord::named(&r.name));
                }
                passes[slot].absorb(r);
            }
            for &(name, count) in &fr.report.analysis_computations {
                match computations.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, c)) => *c += count,
                    None => computations.push((name, count)),
                }
            }
        }
        PipelineReport {
            passes,
            analysis_computations: computations,
            total_seconds: total,
        }
    }

    /// The degraded functions, in module order, with their diagnostics.
    pub fn degraded(&self) -> impl Iterator<Item = (&str, &Diagnostic)> {
        self.functions.iter().filter_map(|fr| {
            fr.outcome
                .diagnostic()
                .map(|diag| (fr.function.as_str(), diag))
        })
    }

    /// How many functions degraded to baseline IR.
    pub fn degraded_count(&self) -> usize {
        self.degraded().count()
    }

    /// Renders the module-level `--time-passes` tables: the per-pass
    /// rollup, then per-function totals and outcomes, then the wall-clock
    /// line (plus a degradation summary when any function degraded).
    pub fn render(&self) -> String {
        let rollup = self.rollup();
        let mut out = format!(
            "== module pipeline: {} function(s), {} job(s) ==\n",
            self.functions.len(),
            self.jobs
        );
        out.push_str(&rollup.render());
        out.push_str("| function | time (ms) | units | outcome |\n|---|---|---|---|\n");
        for fr in &self.functions {
            out.push_str(&format!(
                "| @{} | {:.3} | {} | {} |\n",
                fr.function,
                fr.report.total_seconds * 1e3,
                fr.report.passes.iter().map(|p| p.units).sum::<u64>(),
                if fr.outcome.is_degraded() {
                    "degraded"
                } else {
                    "optimized"
                },
            ));
        }
        let degraded = self.degraded_count();
        if degraded > 0 {
            out.push_str(&format!("degraded: {degraded} function(s)\n"));
        }
        out.push_str(&format!(
            "wall: {:.3} ms (summed per-function pipeline time: {:.3} ms)\n",
            self.wall_seconds * 1e3,
            rollup.total_seconds * 1e3,
        ));
        out
    }
}

/// Work slot of the parallel path: exclusive access to one function and a
/// place for its result.
struct Slot<'f> {
    func: &'f mut Function,
    result: Option<Result<(PipelineReport, FunctionOutcome), PipelineError>>,
}

/// Runs one pipeline spec over every function of a [`Module`].
///
/// The spec is parsed and validated once at construction (a probe pipeline
/// is built so unknown passes and bad parameters fail before any function
/// is touched); each function then gets a fresh pipeline instance built
/// from the parsed AST. See the [module docs](self) for the concurrency
/// story.
pub struct ModulePassManager<'r> {
    registry: &'r PassRegistry,
    spec: PassSpec,
    /// Run options (worker count, per-function pipeline options).
    pub options: ModuleOptions,
}

impl<'r> ModulePassManager<'r> {
    /// Parses `spec` and validates it against `registry`.
    ///
    /// # Errors
    ///
    /// Grammar violations ([`PipelineError::Spec`]), unknown passes, bad
    /// parameters, or an empty spec — all before any function runs.
    pub fn new(
        registry: &'r PassRegistry,
        spec: &str,
        options: ModuleOptions,
    ) -> Result<ModulePassManager<'r>, PipelineError> {
        let parsed = PassSpec::parse(spec).map_err(PipelineError::Spec)?;
        ModulePassManager::with_spec(registry, parsed, options)
    }

    /// [`ModulePassManager::new`] over an already-parsed spec.
    ///
    /// # Errors
    ///
    /// See [`ModulePassManager::new`] (minus the grammar errors).
    pub fn with_spec(
        registry: &'r PassRegistry,
        spec: PassSpec,
        options: ModuleOptions,
    ) -> Result<ModulePassManager<'r>, PipelineError> {
        // Probe build: surface registry errors at construction time.
        registry.build_parsed(&spec, options.pipeline.clone())?;
        Ok(ModulePassManager {
            registry,
            spec,
            options,
        })
    }

    /// The parsed spec the manager instantiates per function.
    pub fn spec(&self) -> &PassSpec {
        &self.spec
    }

    /// The one-shot request entry point shared by the CLI, the benchmark
    /// suites and the `darm serve` compile service: parse and validate
    /// `spec`, then run it over every function of `module` under
    /// `options`. Equivalent to [`ModulePassManager::new`] followed by
    /// [`ModulePassManager::run`], packaged so every driver goes through
    /// one request → module-compile path.
    ///
    /// # Errors
    ///
    /// Spec/registry validation errors before any function is touched,
    /// then the run errors of [`ModulePassManager::run`].
    pub fn compile(
        registry: &PassRegistry,
        spec: &str,
        options: ModuleOptions,
        module: &mut Module,
    ) -> Result<ModuleReport, PipelineError> {
        ModulePassManager::new(registry, spec, options)?.run(module)
    }

    /// The order the worker pool claims functions in: largest first (by
    /// live block + instruction count, input order breaking ties), so a
    /// big kernel never starts last and stretches the parallel makespan.
    /// Output assembly stays input-ordered regardless — scheduling affects
    /// wall clock only, never results.
    pub fn scheduled_order(&self, module: &Module) -> Vec<usize> {
        let mut order: Vec<usize> = (0..module.len()).collect();
        let size = |f: &Function| f.live_block_count() + f.live_inst_count();
        order.sort_by_key(|&i| (std::cmp::Reverse(size(&module.functions()[i])), i));
        order
    }

    /// Runs the pipeline over every function of `module`, in parallel when
    /// `options.jobs` resolves to more than one worker.
    ///
    /// Every per-function pipeline runs inside a containment boundary (see
    /// [`OnError`]): with [`OnError::Degrade`] a faulting function keeps
    /// its pre-pipeline IR and is reported as
    /// [`FunctionOutcome::Degraded`]; the run itself succeeds.
    ///
    /// # Errors
    ///
    /// Under [`OnError::Fail`]: the first (in module order) function
    /// failure — [`PipelineError::InFunction`] for regular pipeline
    /// errors, [`PipelineError::Fault`] for contained panics and budget
    /// cancellations. The serial path stops at the failing function; the
    /// parallel pool completes every function (the largest-first schedule
    /// claims out of input order, so finishing the pool is what keeps the
    /// reported failure deterministic) and then reports the earliest.
    /// Other functions may or may not have been transformed — treat the
    /// module as poisoned on error.
    pub fn run(&self, module: &mut Module) -> Result<ModuleReport, PipelineError> {
        let t0 = Instant::now();
        let jobs = self.options.effective_jobs(module.len());
        // `Fault` diagnostics already name their function; everything else
        // gets wrapped so module errors always say where they happened.
        let wrap = |function: &str, error: PipelineError| match error {
            fault @ PipelineError::Fault(_) => fault,
            error => PipelineError::InFunction {
                function: function.to_string(),
                error: Box::new(error),
            },
        };
        let mut functions = Vec::with_capacity(module.len());
        if jobs <= 1 {
            // Serial: any failure is by construction the earliest one.
            for func in module.functions_mut() {
                match self.compile_one(func) {
                    Ok((report, outcome)) => functions.push(FunctionReport {
                        function: func.name().to_string(),
                        report,
                        outcome,
                    }),
                    Err(e) => return Err(wrap(func.name(), e)),
                }
            }
        } else {
            // Cross-kernel scheduling: workers claim the largest functions
            // first (see [`ModulePassManager::scheduled_order`]).
            let schedule = self.scheduled_order(module);
            let funcs = module.functions_mut();
            let names: Vec<String> = funcs.iter().map(|f| f.name().to_string()).collect();
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Slot>> = funcs
                .iter_mut()
                .map(|func| Mutex::new(Slot { func, result: None }))
                .collect();
            std::thread::scope(|s| {
                for _ in 0..jobs {
                    s.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = schedule.get(k) else { break };
                        // Containment catches pass panics, but a slot can
                        // still be poisoned by a panic outside the
                        // boundary; the slot data is valid regardless of
                        // where its holder died (the result is either
                        // written whole or absent), so recover it instead
                        // of cascading the crash.
                        let mut slot = slots[i].lock().unwrap_or_else(PoisonError::into_inner);
                        slot.result = Some(self.compile_one(slot.func));
                    });
                }
            });
            // Deterministic, input-ordered assembly (workers claim in
            // schedule order and finish in any order; slots are indexed by
            // input position). Every function runs even when one fails —
            // the module is poisoned on error regardless, and completing
            // the pool makes "earliest failure in module order" exact
            // under out-of-order scheduling.
            let mut results: Vec<Option<Result<(PipelineReport, FunctionOutcome), PipelineError>>> =
                slots
                    .into_iter()
                    .map(|s| {
                        s.into_inner()
                            .unwrap_or_else(PoisonError::into_inner)
                            .result
                    })
                    .collect();
            if let Some(i) = results.iter().position(|r| !matches!(r, Some(Ok(_)))) {
                return Err(match results.swap_remove(i) {
                    Some(Err(e)) => wrap(&names[i], e),
                    // A worker died before writing the slot. Containment
                    // should make this unreachable; surface it as a fault
                    // of the function instead of crashing the driver.
                    None => PipelineError::Fault(Diagnostic {
                        function: names[i].clone(),
                        pass: None,
                        site: None,
                        cause: FaultCause::Panic(
                            "worker terminated before completing the function".to_string(),
                        ),
                    }),
                    Some(Ok(_)) => unreachable!("position() found a non-Ok slot"),
                });
            }
            for (function, result) in names.into_iter().zip(results) {
                let (report, outcome) = result
                    .expect("non-Ok slots were returned above")
                    .expect("non-Ok slots were returned above");
                functions.push(FunctionReport {
                    function,
                    report,
                    outcome,
                });
            }
        }
        Ok(ModuleReport {
            functions,
            wall_seconds: t0.elapsed().as_secs_f64(),
            jobs,
        })
    }

    /// The containment boundary, entered once per function: builds the
    /// function's pipeline instance from the parsed spec, runs it under an
    /// unwind guard and classifies whatever stopped it. [`OnError`] decides
    /// only what happens to a classified fault.
    ///
    /// # Errors
    ///
    /// Under [`OnError::Degrade`], faults degrade the function (`Ok` with
    /// [`FunctionOutcome::Degraded`], IR restored to the pre-pipeline
    /// snapshot); only pipeline construction itself can fail. Under
    /// [`OnError::Fail`] the fault is returned: regular pipeline errors
    /// as-is, panics and budget cancellations as
    /// [`PipelineError::Fault`].
    fn compile_one(
        &self,
        func: &mut Function,
    ) -> Result<(PipelineReport, FunctionOutcome), PipelineError> {
        let mut pm = self
            .registry
            .build_parsed(&self.spec, self.options.pipeline.clone())?;
        install_quiet_panic_hook();
        clear_current_pass();
        darm_ir::fault::begin_function();
        // A rollback point only where a fault is survived: under `Fail` the
        // module is poisoned on error anyway, and the deep clone is ≈5 % of
        // a small function's meld (CHANGES.md, PR 20).
        let snapshot = (self.options.on_error == OnError::Degrade).then(|| func.snapshot());
        // `run` owns the analysis cache, so an abandoned one unwinds with it.
        let error = match catch_unwind(AssertUnwindSafe(|| pm.run(func))) {
            Ok(Ok(report)) => return Ok((report, FunctionOutcome::Optimized)),
            Ok(Err(error)) => error,
            Err(payload) => PipelineError::Fault(Diagnostic::from_unwind(func.name(), payload)),
        };
        let Some(snapshot) = snapshot else {
            return Err(error);
        };
        func.restore(snapshot);
        let diag = match error {
            PipelineError::Fault(diag) => diag,
            error => Diagnostic::from_error(func.name(), &error),
        };
        Ok((PipelineReport::default(), FunctionOutcome::Degraded(diag)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darm_ir::builder::FunctionBuilder;
    use darm_ir::{IcmpPred, Type, Value};

    /// A function with a constant diamond plus dead code — grist for
    /// simplify/instcombine/dce.
    fn messy(name: &str) -> Function {
        let mut f = Function::new(name, vec![Type::I32], Type::I32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        b.br(Value::I1(true), t, e);
        b.switch_to(t);
        let v = b.add(b.param(0), b.const_i32(1));
        b.jump(x);
        b.switch_to(e);
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, v), (e, Value::I32(0))]);
        let dead = b.mul(p, p);
        let _ = b.icmp(IcmpPred::Eq, dead, dead);
        b.ret(Some(p));
        f
    }

    fn messy_module(n: usize) -> Module {
        Module::from_functions("m", (0..n).map(|i| messy(&format!("f{i}")))).unwrap()
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let registry = PassRegistry::with_transforms();
        let spec = "fixpoint(simplify,instcombine,dce)";
        let mut serial = messy_module(9);
        let mut parallel = messy_module(9);
        let mpm1 = ModulePassManager::new(
            &registry,
            spec,
            ModuleOptions::serial(PipelineOptions::default()),
        )
        .unwrap();
        let r1 = mpm1.run(&mut serial).unwrap();
        assert_eq!(r1.jobs, 1);
        let mpm4 = ModulePassManager::new(
            &registry,
            spec,
            ModuleOptions {
                pipeline: PipelineOptions::default(),
                jobs: 4,
                ..ModuleOptions::default()
            },
        )
        .unwrap();
        let r4 = mpm4.run(&mut parallel).unwrap();
        assert_eq!(r4.jobs, 4);
        assert_eq!(serial.to_string(), parallel.to_string());
        // Reports are input-ordered in both.
        let order: Vec<&str> = r4.functions.iter().map(|f| f.function.as_str()).collect();
        assert_eq!(order, (0..9).map(|i| format!("f{i}")).collect::<Vec<_>>());
        assert_eq!(r1.functions.len(), r4.functions.len());
        // Each function collapsed to one block.
        for f in serial.functions() {
            assert_eq!(f.block_ids().len(), 1, "@{}", f.name());
        }
    }

    #[test]
    fn rollup_merges_slots_across_functions() {
        let registry = PassRegistry::with_transforms();
        let mut m = messy_module(3);
        let mpm = ModulePassManager::new(
            &registry,
            "simplify,dce",
            ModuleOptions::serial(PipelineOptions::default()),
        )
        .unwrap();
        let report = mpm.run(&mut m).unwrap();
        let rollup = report.rollup();
        assert_eq!(rollup.passes.len(), 2);
        assert_eq!(rollup.passes[0].name, "simplify");
        assert_eq!(rollup.passes[0].runs, 3, "one run per function");
        assert!(rollup.passes[1].units > 0, "dce removed something");
        let table = report.render();
        assert!(table.contains("3 function(s)"), "{table}");
        assert!(table.contains("| @f2 |"), "{table}");
    }

    #[test]
    fn schedule_claims_largest_functions_first() {
        let registry = PassRegistry::with_transforms();
        // f0 small, f1 big (pad with dead adds), f2 middling.
        let mut m = Module::new("m");
        for (i, pad) in [(0usize, 0usize), (1, 40), (2, 10)] {
            let mut f = messy(&format!("f{i}"));
            let entry = f.entry();
            let term = f.terminator(entry).unwrap();
            for k in 0..pad {
                f.insert_inst_before(
                    term,
                    darm_ir::InstData::new(
                        darm_ir::Opcode::Add,
                        darm_ir::Type::I32,
                        vec![Value::I32(k as i32), Value::I32(1)],
                    ),
                );
            }
            m.add_function(f).unwrap();
        }
        let mpm = ModulePassManager::new(&registry, "dce", ModuleOptions::default()).unwrap();
        assert_eq!(mpm.scheduled_order(&m), vec![1, 2, 0]);
        // Equal sizes keep input order (deterministic tie-break).
        let eq = messy_module(3);
        assert_eq!(mpm.scheduled_order(&eq), vec![0, 1, 2]);
        // Scheduling never leaks into results: the parallel run still
        // assembles input-ordered and bit-identical to serial.
        let mut serial = m.clone();
        let mut parallel = m.clone();
        let spec = "fixpoint(simplify,instcombine,dce)";
        ModulePassManager::new(
            &registry,
            spec,
            ModuleOptions::serial(PipelineOptions::default()),
        )
        .unwrap()
        .run(&mut serial)
        .unwrap();
        ModulePassManager::new(
            &registry,
            spec,
            ModuleOptions {
                pipeline: PipelineOptions::default(),
                jobs: 3,
                ..ModuleOptions::default()
            },
        )
        .unwrap()
        .run(&mut parallel)
        .unwrap();
        assert_eq!(serial.to_string(), parallel.to_string());
    }

    #[test]
    fn construction_validates_the_spec_up_front() {
        let registry = PassRegistry::with_transforms();
        let opts = ModuleOptions::default();
        assert!(matches!(
            ModulePassManager::new(&registry, "dce(", opts.clone()),
            Err(PipelineError::Spec(_))
        ));
        assert!(matches!(
            ModulePassManager::new(&registry, "frobnicate", opts),
            Err(PipelineError::UnknownPass { .. })
        ));
    }

    /// A registry whose `explode` pass panics on the named functions and
    /// is a no-op elsewhere.
    fn exploding_registry(victims: &'static [&'static str]) -> PassRegistry {
        let mut registry = PassRegistry::with_transforms();
        registry.register("explode", move || {
            Box::new(crate::passes::FnPass::new("explode", move |func, _am| {
                if victims.contains(&func.name()) {
                    panic!("boom in @{}", func.name());
                }
                Ok(0)
            }))
        });
        registry
    }

    #[test]
    fn degrade_contains_a_panic_and_keeps_the_rest_optimized() {
        let registry = exploding_registry(&["f1"]);
        for jobs in [1, 4] {
            let mut m = messy_module(4);
            let before = m.functions()[1].to_string();
            let mpm = ModulePassManager::new(
                &registry,
                "explode,fixpoint(simplify,instcombine,dce)",
                ModuleOptions {
                    jobs,
                    on_error: OnError::Degrade,
                    ..ModuleOptions::default()
                },
            )
            .unwrap();
            let report = mpm.run(&mut m).expect("degrade mode never fails the run");
            assert_eq!(report.degraded_count(), 1, "jobs={jobs}");
            let (name, diag) = report.degraded().next().unwrap();
            assert_eq!(name, "f1");
            assert_eq!(diag.pass.as_deref(), Some("explode"));
            assert_eq!(diag.cause, FaultCause::Panic("boom in @f1".to_string()));
            // The degraded function is bit-identical to its input; the
            // others still went through the full pipeline.
            assert_eq!(m.functions()[1].to_string(), before, "jobs={jobs}");
            for (i, f) in m.functions().iter().enumerate() {
                if i != 1 {
                    assert_eq!(f.block_ids().len(), 1, "@{} jobs={jobs}", f.name());
                }
            }
            let table = report.render();
            assert!(table.contains("| @f1 | 0.000 | 0 | degraded |"), "{table}");
            assert!(table.contains("degraded: 1 function(s)"), "{table}");
        }
    }

    #[test]
    fn fail_mode_contains_the_panic_and_names_the_earliest_function() {
        // f1 and f3 both panic; the error must name f1 regardless of
        // worker scheduling — and the driver must not crash or poison.
        let registry = exploding_registry(&["f1", "f3"]);
        for jobs in [1, 4] {
            let mut m = messy_module(4);
            let mpm = ModulePassManager::new(
                &registry,
                "explode",
                ModuleOptions {
                    jobs,
                    ..ModuleOptions::default()
                },
            )
            .unwrap();
            match mpm.run(&mut m) {
                Err(PipelineError::Fault(diag)) => {
                    assert_eq!(diag.function, "f1", "jobs={jobs}");
                    assert_eq!(diag.pass.as_deref(), Some("explode"));
                    assert_eq!(diag.cause, FaultCause::Panic("boom in @f1".to_string()));
                }
                other => panic!("expected Fault, got {other:?}"),
            }
        }
    }

    /// A *regular* pipeline error (no unwind) crosses the boundary typed:
    /// `InFunction` naming the earliest function under `Fail`, an
    /// error-caused diagnostic per broken function under `Degrade`.
    #[test]
    fn failures_name_the_earliest_failing_function() {
        let registry = PassRegistry::with_transforms();
        // `verify` fails on broken SSA: build a module whose f1 and f3 are
        // broken.
        let mut broken = Module::new("m");
        for i in 0..4 {
            let mut f = messy(&format!("f{i}"));
            if i % 2 == 1 {
                // Point the ret at a non-dominating instruction.
                let blocks = f.block_ids();
                let t_inst = f.insts_of(blocks[1])[0];
                let x = *blocks.last().unwrap();
                let term = f.terminator(x).unwrap();
                f.inst_mut(term).operands[0] = Value::Inst(t_inst);
            }
            broken.add_function(f).unwrap();
        }
        for jobs in [1, 4] {
            let run = |on_error: OnError, m: &mut Module| {
                ModulePassManager::new(
                    &registry,
                    "verify",
                    ModuleOptions {
                        jobs,
                        on_error,
                        ..ModuleOptions::default()
                    },
                )
                .unwrap()
                .run(m)
            };
            // Fail: the error keeps its type (not a `Fault`) and names f1
            // regardless of worker order.
            match run(OnError::Fail, &mut broken.clone()) {
                Err(PipelineError::InFunction { function, error }) => {
                    assert_eq!(function, "f1", "jobs={jobs}");
                    assert!(
                        matches!(*error, PipelineError::PassFailed { .. }),
                        "jobs={jobs}: {error:?}"
                    );
                }
                other => panic!("expected InFunction, got {other:?}"),
            }
            // Degrade: the same error becomes an error-caused diagnostic of
            // just the broken functions.
            let mut m = broken.clone();
            let report = run(OnError::Degrade, &mut m).expect("degrade mode never fails the run");
            let degraded: Vec<_> = report.degraded().collect();
            assert_eq!(degraded.len(), 2, "jobs={jobs}");
            for ((name, diag), expected) in degraded.into_iter().zip(["f1", "f3"]) {
                assert_eq!(name, expected, "jobs={jobs}");
                assert_eq!(diag.pass.as_deref(), Some("verify"));
                assert_eq!(diag.site, None);
                assert!(matches!(diag.cause, FaultCause::Error(_)), "{diag:?}");
            }
            assert_eq!(m.to_string(), broken.to_string(), "jobs={jobs}");
        }
    }
}
