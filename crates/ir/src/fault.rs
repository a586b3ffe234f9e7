//! Deterministic fault injection for the compilation stack.
//!
//! Transform and analysis hot spots are annotated with named
//! [`point`]`("meld::plan")` sites. With the `fault-injection` cargo
//! feature **off** (the default) every site compiles to an empty inline
//! function — zero cost on the fault-free hot path. With the feature on, a
//! single global [`FaultPlan`] — set through [`set_plan`] or the
//! `DARM_FAULT` environment variable — arms exactly one site: the plan's
//! fault fires when the named site is hit for the `hit`-th time *within a
//! function's compilation* (hit counters reset at [`begin_function`],
//! which the per-function containment boundary in `darm-pipeline` calls).
//!
//! Counting per function is what makes injection deterministic and
//! reproducible: a function faults if and only if its fault-free compile
//! trace reaches the site at least `hit` times, independent of module
//! order, worker count, or scheduling. The fault-injection proptests in
//! the root crate lean on exactly that property.
//!
//! Fault kinds:
//!
//! * [`FaultKind::Panic`] / [`FaultKind::Error`] unwind with a typed
//!   [`InjectedFault`] payload (the containment boundary maps the kind to
//!   a panic- or error-caused diagnostic);
//! * [`FaultKind::FuelExhaust`] force-exhausts the innermost installed
//!   [`Budget`](crate::budget::Budget) — the *next* budget poll then takes
//!   the genuine cancellation path. A no-op when no limited budget is
//!   installed.
//!
//! `DARM_FAULT` syntax: `<site>[#<hit>]=<kind>` with `kind` one of
//! `panic`, `error`, `fuel` — e.g. `DARM_FAULT='meld::score#3=panic'`.
//!
//! Beyond the pipeline sites, the `darm serve` compile service arms four
//! service-layer sites. On the thread that submits a request (a
//! connection's reader, under the transports): `serve::admit` (first in
//! `Engine::submit`) and `serve::cache_lookup` (before the whole-request
//! memo's lock). On a worker thread: `serve::worker` (top of each worker
//! iteration) and `serve::cache_insert` (before the function cache's
//! lock). Their hit counters live in the same per-thread table, so a
//! pipeline containment boundary running on the same thread resets them
//! too — serve-site plans therefore conventionally use `#1`; a submitting
//! thread runs no pipeline, so `serve::cache_lookup#2` there faults its
//! second request since the last [`begin_function`].

/// What an armed [`FaultPlan`] does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Unwind as an unexpected pass panic.
    Panic,
    /// Unwind, classified as an internal error by the catcher.
    Error,
    /// Force-exhaust the innermost installed budget (see module docs).
    FuelExhaust,
}

/// One armed fault: `kind` fires at the `hit`-th arrival at `site` within
/// a single function's compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The [`point`] site name to arm.
    pub site: String,
    /// Which per-function arrival fires (1-based; 1 = the first).
    pub hit: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Parses the `DARM_FAULT` syntax (see module docs).
    ///
    /// # Errors
    ///
    /// A human-readable message for malformed input.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let (lhs, kind) = text
            .split_once('=')
            .ok_or_else(|| format!("fault plan `{text}`: expected `<site>[#<hit>]=<kind>`"))?;
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "error" => FaultKind::Error,
            "fuel" => FaultKind::FuelExhaust,
            other => return Err(format!("unknown fault kind `{other}` (panic, error, fuel)")),
        };
        let (site, hit) = match lhs.split_once('#') {
            Some((site, hit)) => {
                let hit: u64 = hit
                    .parse()
                    .map_err(|_| format!("bad hit count `{hit}` in fault plan"))?;
                (site, hit.max(1))
            }
            None => (lhs, 1),
        };
        if site.is_empty() {
            return Err(format!("fault plan `{text}`: empty site name"));
        }
        Ok(FaultPlan {
            site: site.to_string(),
            hit,
            kind,
        })
    }
}

/// The panic payload an injected [`FaultKind::Panic`] or
/// [`FaultKind::Error`] unwinds with; containment boundaries downcast it.
#[derive(Debug, Clone, Copy)]
pub struct InjectedFault {
    /// The [`point`] site that fired.
    pub site: &'static str,
    /// [`FaultKind::Panic`] or [`FaultKind::Error`].
    pub kind: FaultKind,
}

/// Whether fault injection is compiled in (`fault-injection` feature).
pub const fn enabled() -> bool {
    cfg!(feature = "fault-injection")
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::{FaultKind, FaultPlan, InjectedFault};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Once, RwLock};

    /// Fast gate read by every [`point`](super::point): true iff a plan is
    /// armed.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
    static ENV_INIT: Once = Once::new();

    thread_local! {
        /// Per-site arrival counts since the last `begin_function` on this
        /// thread. A plain vec: the site list is tiny and scan beats hash.
        static HITS: RefCell<Vec<(&'static str, u64)>> = const { RefCell::new(Vec::new()) };
    }

    fn ensure_env_init() {
        ENV_INIT.call_once(|| {
            if let Ok(text) = std::env::var("DARM_FAULT") {
                match FaultPlan::parse(&text) {
                    Ok(plan) => install(Some(plan)),
                    Err(e) => eprintln!("warning: ignoring DARM_FAULT: {e}"),
                }
            }
        });
    }

    fn install(plan: Option<FaultPlan>) {
        let active = plan.is_some();
        *PLAN.write().unwrap_or_else(|e| e.into_inner()) = plan;
        ACTIVE.store(active, Ordering::Release);
    }

    /// Arms `plan` (replacing any previous one); `None` disarms.
    pub fn set_plan(plan: Option<FaultPlan>) {
        ensure_env_init(); // claim the Once so the env cannot overwrite us
        install(plan);
    }

    /// The currently armed plan.
    pub fn plan() -> Option<FaultPlan> {
        ensure_env_init();
        PLAN.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Resets the per-function site hit counters of this thread.
    /// Containment boundaries call this before each function's pipeline.
    pub fn begin_function() {
        ensure_env_init();
        HITS.with_borrow_mut(|hits| hits.clear());
    }

    /// A named fault-injection site: fires the armed [`FaultPlan`] when
    /// this is its site's `hit`-th arrival since [`begin_function`].
    pub fn point(site: &'static str) {
        ensure_env_init();
        if !ACTIVE.load(Ordering::Acquire) {
            return;
        }
        let fire = {
            let guard = PLAN.read().unwrap_or_else(|e| e.into_inner());
            let Some(plan) = guard.as_ref() else { return };
            if plan.site != site {
                return;
            }
            let count =
                HITS.with_borrow_mut(|hits| match hits.iter_mut().find(|(s, _)| *s == site) {
                    Some((_, n)) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        hits.push((site, 1));
                        1
                    }
                });
            (count == plan.hit).then_some(plan.kind)
        };
        match fire {
            None => {}
            Some(FaultKind::FuelExhaust) => crate::budget::exhaust_current(),
            Some(kind @ (FaultKind::Panic | FaultKind::Error)) => {
                std::panic::panic_any(InjectedFault { site, kind })
            }
        }
    }
}

#[cfg(feature = "fault-injection")]
pub use imp::{begin_function, plan, point, set_plan};

/// Arms `plan` (replacing any previous one); `None` disarms. A no-op
/// without the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
pub fn set_plan(_plan: Option<FaultPlan>) {}

/// The currently armed plan. Always `None` without the `fault-injection`
/// feature.
#[cfg(not(feature = "fault-injection"))]
pub fn plan() -> Option<FaultPlan> {
    None
}

/// Resets the per-function site hit counters of this thread. Containment
/// boundaries call this before each function's pipeline. A no-op without
/// the `fault-injection` feature.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn begin_function() {}

/// A named fault-injection site. Compiles to nothing without the
/// `fault-injection` feature; with it, fires the armed [`FaultPlan`] when
/// this is its site's `hit`-th arrival since [`begin_function`].
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn point(_site: &'static str) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_parsing_covers_the_env_syntax() {
        assert_eq!(
            FaultPlan::parse("meld::plan=panic").unwrap(),
            FaultPlan {
                site: "meld::plan".into(),
                hit: 1,
                kind: FaultKind::Panic,
            }
        );
        assert_eq!(
            FaultPlan::parse("meld::score#3=fuel").unwrap(),
            FaultPlan {
                site: "meld::score".into(),
                hit: 3,
                kind: FaultKind::FuelExhaust,
            }
        );
        assert_eq!(FaultPlan::parse("a=error").unwrap().kind, FaultKind::Error);
        assert!(FaultPlan::parse("nokind").is_err());
        assert!(FaultPlan::parse("a=frob").is_err());
        assert!(FaultPlan::parse("a#x=panic").is_err());
        assert!(FaultPlan::parse("=panic").is_err());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn points_fire_on_the_armed_hit_only() {
        // Serialized against other plan users by being the only
        // plan-mutating test in this crate.
        set_plan(Some(FaultPlan {
            site: "test::site".into(),
            hit: 2,
            kind: FaultKind::Panic,
        }));
        begin_function();
        point("test::other"); // different site: never fires
        point("test::site"); // hit 1 of 2
        let err = std::panic::catch_unwind(|| point("test::site")).expect_err("hit 2 fires");
        let fault = err.downcast::<InjectedFault>().expect("typed payload");
        assert_eq!(fault.site, "test::site");
        assert_eq!(fault.kind, FaultKind::Panic);
        // A new function gets fresh counters: hit 1 again, no fire.
        begin_function();
        point("test::site");
        set_plan(None);
        begin_function();
        point("test::site");
        point("test::site");
    }
}
