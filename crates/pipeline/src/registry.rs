//! Pass registry: maps spec names to pass factories and instantiates
//! parsed [`PassSpec`]s into ready-to-run [`PassManager`]s.
//!
//! A spec is parsed by [`PassSpec::parse`] (see [`crate::spec`] for the
//! grammar: pass names, `key=value` parameters, nested `fixpoint(...)`
//! groups). Factories receive the pass's parameters and the pipeline
//! options, so a parameterized registration like `meld` can honor
//! `meld(threshold=0.3)` without code changes downstream. Factories are
//! `Send + Sync`: one registry is shared by every worker of a
//! [`ModulePassManager`](crate::ModulePassManager).

use crate::passes::FixpointPass;
use crate::spec::{PassSpec, SpecElem};
use crate::{Pass, PassManager, PipelineError, PipelineOptions};
use std::collections::BTreeMap;

/// The `key=value` parameters of one pass instance, consumed by its
/// factory via the `take*` methods. Keys left untaken after the factory
/// returns are unknown-parameter errors.
#[derive(Debug, Clone, Default)]
pub struct PassParams {
    entries: Vec<(String, String)>,
}

impl PassParams {
    /// Wraps parsed `key=value` pairs (spec order preserved).
    pub fn new(entries: Vec<(String, String)>) -> PassParams {
        PassParams { entries }
    }

    /// Removes and returns the raw value of `key`, if present.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    /// Removes `key` and parses its value as `T`.
    ///
    /// # Errors
    ///
    /// A message naming the key and value on parse failure.
    pub fn take_parsed<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        match self.take(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| {
                format!(
                    "parameter `{key}`: cannot parse `{v}` as {}",
                    std::any::type_name::<T>()
                )
            }),
        }
    }

    /// The keys (with values) the factory did not consume.
    pub fn remaining(&self) -> &[(String, String)] {
        &self.entries
    }

    /// The first key that appears more than once, if any. Factories only
    /// `take` a key's first occurrence, so a duplicate would otherwise be
    /// misreported as *unknown* — the registry checks this up front.
    pub fn duplicate_key(&self) -> Option<&str> {
        self.entries.iter().enumerate().find_map(|(i, (k, _))| {
            self.entries[..i]
                .iter()
                .any(|(prev, _)| prev == k)
                .then_some(k.as_str())
        })
    }
}

/// Factory producing a fresh pass instance per pipeline slot, configured
/// from its spec parameters and the run options.
pub type PassFactory =
    Box<dyn Fn(&mut PassParams, PipelineOptions) -> Result<Box<dyn Pass>, String> + Send + Sync>;

/// Name → factory table used to build pipelines from textual specs.
#[derive(Default)]
pub struct PassRegistry {
    factories: BTreeMap<String, PassFactory>,
}

impl PassRegistry {
    /// An empty registry.
    pub fn empty() -> PassRegistry {
        PassRegistry::default()
    }

    /// A registry holding the generic cleanup passes: `simplify`, `dce`,
    /// `instcombine`, `ssa-repair` and `verify` (none takes parameters).
    pub fn with_transforms() -> PassRegistry {
        let mut r = PassRegistry::empty();
        r.register("simplify", || Box::new(crate::SimplifyCfgPass::default()));
        r.register("dce", || Box::new(crate::DcePass::default()));
        r.register(
            "instcombine",
            || Box::new(crate::InstCombinePass::default()),
        );
        r.register("ssa-repair", || Box::new(crate::SsaRepairPass::default()));
        r.register("verify", || Box::new(crate::VerifyPass));
        r
    }

    /// Registers (or replaces) a parameterless factory under `name`; any
    /// spec parameter given to the pass is rejected as unknown.
    pub fn register(
        &mut self,
        name: &str,
        factory: impl Fn() -> Box<dyn Pass> + Send + Sync + 'static,
    ) -> &mut PassRegistry {
        self.register_configurable(name, move |_, _| Ok(factory()))
    }

    /// Registers (or replaces) a parameter-aware factory under `name`. The
    /// factory must `take*` every parameter it understands from
    /// [`PassParams`]; leftovers become unknown-parameter errors. It also
    /// receives the pipeline's [`PipelineOptions`] (e.g. to propagate
    /// `verify_each` into an inner pipeline).
    pub fn register_configurable(
        &mut self,
        name: &str,
        factory: impl Fn(&mut PassParams, PipelineOptions) -> Result<Box<dyn Pass>, String>
            + Send
            + Sync
            + 'static,
    ) -> &mut PassRegistry {
        self.factories.insert(name.to_string(), Box::new(factory));
        self
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.factories.keys().cloned().collect()
    }

    /// Instantiates the pass registered under `name` with no parameters
    /// and default options.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownPass`] when nothing is registered under
    /// `name` — the message lists every registered name, sorted.
    pub fn create(&self, name: &str) -> Result<Box<dyn Pass>, PipelineError> {
        self.create_with(name, PassParams::default(), PipelineOptions::default())
    }

    /// Instantiates the pass registered under `name` with parsed
    /// parameters and the pipeline's options.
    ///
    /// # Errors
    ///
    /// [`PipelineError::UnknownPass`] for an unregistered name,
    /// [`PipelineError::BadParameter`] when the factory rejects a value or
    /// a parameter key is not understood.
    pub fn create_with(
        &self,
        name: &str,
        mut params: PassParams,
        options: PipelineOptions,
    ) -> Result<Box<dyn Pass>, PipelineError> {
        let factory = self
            .factories
            .get(name)
            .ok_or_else(|| PipelineError::UnknownPass {
                name: name.to_string(),
                known: self.names(),
            })?;
        if let Some(key) = params.duplicate_key() {
            return Err(PipelineError::BadParameter {
                pass: name.to_string(),
                message: format!("duplicate parameter `{key}`"),
            });
        }
        let pass =
            factory(&mut params, options).map_err(|message| PipelineError::BadParameter {
                pass: name.to_string(),
                message,
            })?;
        if let Some((key, value)) = params.remaining().first() {
            return Err(PipelineError::BadParameter {
                pass: name.to_string(),
                message: format!("unknown parameter `{key}` (=`{value}`)"),
            });
        }
        Ok(pass)
    }

    /// Parses a pipeline spec (see [`crate::spec`] for the grammar) into a
    /// ready-to-run [`PassManager`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::Spec`] for grammar violations,
    /// [`PipelineError::EmptySpec`] for a blank spec,
    /// [`PipelineError::UnknownPass`] / [`PipelineError::BadParameter`]
    /// for names or parameters the registry rejects.
    pub fn build(
        &self,
        spec: &str,
        options: PipelineOptions,
    ) -> Result<PassManager, PipelineError> {
        let parsed = PassSpec::parse(spec).map_err(PipelineError::Spec)?;
        self.build_parsed(&parsed, options)
    }

    /// Instantiates an already-parsed spec. Used by
    /// [`ModulePassManager`](crate::ModulePassManager) workers, which parse
    /// once and build one pipeline per function.
    ///
    /// # Errors
    ///
    /// See [`PassRegistry::build`] (minus the grammar errors).
    pub fn build_parsed(
        &self,
        spec: &PassSpec,
        options: PipelineOptions,
    ) -> Result<PassManager, PipelineError> {
        if spec.elems.is_empty() {
            return Err(PipelineError::EmptySpec);
        }
        let mut pm = PassManager::new(options.clone());
        for elem in &spec.elems {
            pm.add(self.instantiate(elem, options.clone())?);
        }
        Ok(pm)
    }

    /// Instantiates one spec element (a pass, or a whole fixpoint group as
    /// a [`FixpointPass`] over an inner pipeline).
    ///
    /// # Errors
    ///
    /// See [`PassRegistry::build_parsed`].
    pub fn instantiate(
        &self,
        elem: &SpecElem,
        options: PipelineOptions,
    ) -> Result<Box<dyn Pass>, PipelineError> {
        match elem {
            SpecElem::Pass { name, params } => {
                self.create_with(name, PassParams::new(params.clone()), options)
            }
            SpecElem::Fixpoint { elems, max } => {
                // The inner pipeline inherits verification but not
                // per-pass timing — the group is one slot of the outer
                // report.
                let inner_options = PipelineOptions {
                    time_passes: false,
                    ..options
                };
                let mut inner = PassManager::new(inner_options.clone());
                for e in elems {
                    inner.add(self.instantiate(e, inner_options.clone())?);
                }
                Ok(Box::new(FixpointPass::new(elem.to_string(), inner, *max)))
            }
        }
    }
}

impl std::fmt::Debug for PassRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_spec() {
        let r = PassRegistry::with_transforms();
        let pm = r
            .build(" simplify, dce ,instcombine ", PipelineOptions::default())
            .unwrap();
        assert_eq!(pm.pass_names(), vec!["simplify", "dce", "instcombine"]);
    }

    /// The cleanup registry plus `probe`, a pass taking one typed
    /// parameter (`flag=BOOL`) — the cleanup passes themselves take none.
    fn with_probe() -> PassRegistry {
        let mut r = PassRegistry::with_transforms();
        r.register_configurable("probe", |p, _| {
            p.take_parsed::<bool>("flag")?;
            Ok(Box::new(crate::VerifyPass))
        });
        r
    }

    #[test]
    fn builds_parameterized_and_fixpoint_specs() {
        let pm = with_probe()
            .build(
                "probe(flag=false),fixpoint(instcombine,dce,max=4)",
                PipelineOptions::default(),
            )
            .unwrap();
        assert_eq!(
            pm.pass_names(),
            vec!["verify", "fixpoint(instcombine,dce,max=4)"]
        );
    }

    #[test]
    fn rejects_unknown_and_empty() {
        let r = PassRegistry::with_transforms();
        assert!(matches!(
            r.build("simplify,frobnicate", PipelineOptions::default()),
            Err(PipelineError::UnknownPass { name, .. }) if name == "frobnicate"
        ));
        assert!(matches!(
            r.build(" , ", PipelineOptions::default()),
            Err(PipelineError::EmptySpec)
        ));
    }

    #[test]
    fn unknown_pass_error_lists_available_names_sorted() {
        let r = PassRegistry::with_transforms();
        let e = r.create("frobnicate").err().expect("unknown pass");
        let msg = e.to_string();
        // The suggestion lists every registered pass, sorted.
        assert_eq!(
            msg,
            "unknown pass 'frobnicate' (known: dce, instcombine, simplify, ssa-repair, verify)"
        );
        let mut sorted = r.names();
        sorted.sort();
        assert_eq!(r.names(), sorted);
    }

    #[test]
    fn rejects_bad_parameters_with_the_pass_name() {
        let r = with_probe();
        let e = r
            .build("probe(flag=maybe)", PipelineOptions::default())
            .unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("pass 'probe'") && msg.contains("`flag`") && msg.contains("maybe"),
            "{msg}"
        );
        let e = r
            .build("dce(threshold=0.3)", PipelineOptions::default())
            .unwrap_err();
        assert!(
            e.to_string().contains("unknown parameter `threshold`"),
            "{e}"
        );
    }

    #[test]
    fn duplicate_parameters_are_reported_as_duplicates() {
        // Without the up-front check the leftover second occurrence would
        // be misreported as an *unknown* key.
        let e = with_probe()
            .build("probe(flag=true,flag=false)", PipelineOptions::default())
            .unwrap_err();
        assert_eq!(e.to_string(), "pass 'probe': duplicate parameter `flag`");
    }
}
