//! Mutation tracking: the journal a [`Function`](crate::Function) keeps of
//! its own edits.
//!
//! The journal is an identity plus two running counts: instruction edits
//! (an instruction added, removed, moved or rewritten) and block-graph
//! edits (block added/removed, edge inserted/deleted). A consumer remembers
//! a [`JournalCursor`] — a snapshot of both counts — and later asks
//! [`Function::probe_since`](crate::Function::probe_since) to *classify*
//! the window after it in O(1) by comparing the counts: clean, instructions
//! only, block graph changed. The analysis manager keeps or recomputes a
//! cached analysis on that answer, the pass manager reads a pass's
//! "changed" off it, and the cleanup passes skip a run whose window is
//! clean.
//!
//! Nothing else is recorded: which instructions or blocks changed is not
//! kept, because nothing narrows its work by it (the cleanup passes run
//! whole-function; ROADMAP.md has the measurements that decided it). A
//! caller that needs the users a substitution rewrote gets them from
//! [`Function::rauw_many`](crate::Function::rauw_many) itself.
//!
//! Cursors are tied to one function *instance*: cloning a function starts a
//! fresh journal under a new identity, so a stale cursor from the original
//! can never silently alias into the clone — it probes as
//! [`WindowProbe::Saturated`], which consumers must treat as "anything may
//! have changed".

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of per-`Function`-instance journal identities.
static NEXT_JOURNAL_ID: AtomicU64 = AtomicU64::new(1);

/// The edit counts a [`Function`](crate::Function) carries.
#[derive(Debug, Clone)]
pub struct MutationJournal {
    id: u64,
    /// Running count of instruction edits over the journal's whole life.
    inst_edits: u64,
    /// Running count of block-graph edits, snapshotted the same way.
    shape_edits: u64,
}

impl Default for MutationJournal {
    fn default() -> MutationJournal {
        MutationJournal::new()
    }
}

impl MutationJournal {
    /// A fresh journal with a new identity.
    pub fn new() -> MutationJournal {
        MutationJournal {
            id: NEXT_JOURNAL_ID.fetch_add(1, Ordering::Relaxed),
            inst_edits: 0,
            shape_edits: 0,
        }
    }

    /// Records that an instruction was added, removed, moved or rewritten.
    #[inline]
    pub fn inst_edit(&mut self) {
        self.inst_edits += 1;
    }

    /// Records one block-graph edit.
    #[inline]
    pub fn shape_edit(&mut self) {
        self.shape_edits += 1;
    }

    /// The cursor marking "now": the window after it is clean (so far).
    pub fn head(&self) -> JournalCursor {
        JournalCursor {
            id: self.id,
            inst_seq: self.inst_edits,
            shape_seq: self.shape_edits,
        }
    }

    /// O(1) classification of the window after `cursor`.
    pub fn probe(&self, cursor: JournalCursor) -> WindowProbe {
        if cursor.id != self.id {
            WindowProbe::Saturated
        } else if cursor.shape_seq != self.shape_edits {
            WindowProbe::Shape
        } else if cursor.inst_seq != self.inst_edits {
            WindowProbe::InstsOnly
        } else {
            WindowProbe::Clean
        }
    }
}

/// A position in a [`MutationJournal`]: a snapshot of its two counts.
/// Obtain via [`Function::journal_head`](crate::Function::journal_head);
/// classify the window after it in O(1) with
/// [`Function::probe_since`](crate::Function::probe_since).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCursor {
    id: u64,
    /// Snapshot of the journal's running instruction edit count.
    inst_seq: u64,
    /// Snapshot of the journal's running block-graph edit count.
    shape_seq: u64,
}

/// O(1) classification of a journal window (see
/// [`Function::probe_since`](crate::Function::probe_since)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowProbe {
    /// Nothing happened in the window.
    Clean,
    /// Instructions changed; the block graph is intact.
    InstsOnly,
    /// The block graph changed.
    Shape,
    /// The cursor belongs to another journal identity (a clone's source, or
    /// a state a restore abandoned) — anything may have changed.
    Saturated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_windows_classify() {
        let mut j = MutationJournal::new();
        let c0 = j.head();
        assert_eq!(j.probe(c0), WindowProbe::Clean);
        j.inst_edit();
        assert_eq!(j.probe(c0), WindowProbe::InstsOnly);
        j.shape_edit();
        let c1 = j.head();
        j.inst_edit();

        // A block-graph edit anywhere in the window outranks instruction
        // edits; a later cursor sees only what followed it.
        assert_eq!(j.probe(c0), WindowProbe::Shape);
        assert_eq!(j.probe(c1), WindowProbe::InstsOnly);

        // A block-graph edit alone (an added block) is not a clean window.
        let c2 = j.head();
        j.shape_edit();
        assert_eq!(j.probe(c2), WindowProbe::Shape);
        assert_eq!(j.probe(j.head()), WindowProbe::Clean);
    }

    #[test]
    fn a_foreign_cursor_saturates() {
        let mut j = MutationJournal::new();
        let mine = j.head();
        let other = MutationJournal::new();
        // Same counts, other identity: never mistaken for a clean window.
        assert_eq!(other.probe(mine), WindowProbe::Saturated);
        assert_eq!(j.probe(mine), WindowProbe::Clean);
        j.inst_edit();
        assert_eq!(other.probe(j.head()), WindowProbe::Saturated);
    }
}
