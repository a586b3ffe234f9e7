//! The choice between the two execution paths, as a value.
//!
//! The simulator runs a kernel either on the per-lane
//! [`reference`](crate::reference) interpreter — the oracle — or on the
//! flat register [`BytecodeKernel`](crate::BytecodeKernel) engine. Both
//! are bit-identical in buffers, [`KernelStats`](crate::KernelStats) and
//! errors; [`BackendKind`] names the choice for
//! [`Gpu::launch_with`](crate::Gpu::launch_with) and the `darm` CLI's
//! `--backend` flag.

use std::fmt;

/// The execution paths a kernel can run on. Both are semantically
/// bit-identical; the bytecode engine is the fast one, the reference
/// interpreter the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The seed per-lane, arena-walking interpreter — slowest, simplest;
    /// the semantic baseline.
    Reference,
    /// The flat register bytecode engine over a
    /// [`BytecodeKernel`](crate::BytecodeKernel).
    Bytecode,
}

impl BackendKind {
    /// Every backend, oracle first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Reference, BackendKind::Bytecode];

    /// The CLI/display name (`reference`, `bytecode`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Reference => "reference",
            BackendKind::Bytecode => "bytecode",
        }
    }

    /// Parses a CLI name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(BackendKind::parse("prepared"), None);
    }
}
