//! Mutation tracking: the journal a [`Function`](crate::Function) keeps of
//! its own edits.
//!
//! The journal is two things. A *log of touched instructions* — every
//! mutation API appends the ids it added, removed, moved or rewrote,
//! extended to RAUW-reached users and to the operand definitions of
//! removed/rewritten instructions (their use counts changed) — and two
//! *running counters*, one of block-graph edits (block added/removed, edge
//! inserted/deleted) and one of saturations (an edit that escaped
//! tracking). A consumer remembers a [`JournalCursor`] and later asks about
//! the window after it, in one of two ways:
//!
//! * [`Function::probe_since`](crate::Function::probe_since) *classifies*
//!   the window in O(1) by subtracting the cursor's snapshots: clean,
//!   instructions only, block graph changed, saturated. The analysis
//!   manager keeps or recomputes a cached analysis on that answer, and the
//!   cleanup passes skip a run whose window is clean.
//! * [`Function::insts_touched_since`](crate::Function::insts_touched_since)
//!   *visits* the window's touched instructions without allocating — the
//!   worklist seed of `instcombine`, between its own rounds and between
//!   its runs.
//!
//! Nothing else is recorded: which blocks changed and which edges moved is
//! not kept, because nothing narrows its work by it (the cleanup passes run
//! whole-function; ROADMAP.md has the measurements that decided it).
//!
//! Cursors are tied to one function *instance*: cloning a function starts a
//! fresh, empty journal under a new identity, so a stale cursor from the
//! original can never silently alias into the clone — it probes as
//! [`WindowProbe::Saturated`], which consumers must treat as "anything may
//! have changed". The same graceful degradation applies after journal
//! truncation.

use crate::function::InstId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic source of per-`Function`-instance journal identities.
static NEXT_JOURNAL_ID: AtomicU64 = AtomicU64::new(1);

/// The append-only log a [`Function`](crate::Function) carries.
#[derive(Debug, Clone)]
pub struct MutationJournal {
    id: u64,
    /// Sequence number of `touched[0]` — non-zero after truncation.
    base: u64,
    /// Running count of block-graph edits over the journal's whole life.
    /// Cursors snapshot it, making "did the shape change in this window"
    /// an O(1) subtraction.
    shape_total: u64,
    /// Running count of saturations, snapshotted the same way.
    saturate_total: u64,
    touched: Vec<InstId>,
}

impl Default for MutationJournal {
    fn default() -> MutationJournal {
        MutationJournal::new()
    }
}

impl MutationJournal {
    /// A fresh, empty journal with a new identity.
    pub fn new() -> MutationJournal {
        MutationJournal {
            id: NEXT_JOURNAL_ID.fetch_add(1, Ordering::Relaxed),
            base: 0,
            shape_total: 0,
            saturate_total: 0,
            touched: Vec::new(),
        }
    }

    /// Records that `id` was added, removed, moved or rewritten, or that
    /// its use count changed.
    #[inline]
    pub fn touch(&mut self, id: InstId) {
        self.touched.push(id);
    }

    /// Records one block-graph edit.
    #[inline]
    pub fn shape_edit(&mut self) {
        self.shape_total += 1;
    }

    /// Records an edit that escaped tracking: every open window probes as
    /// saturated from here on.
    pub fn saturate(&mut self) {
        self.saturate_total += 1;
    }

    /// The cursor marking "now": the window after it is clean (so far).
    pub fn head(&self) -> JournalCursor {
        JournalCursor {
            id: self.id,
            seq: self.base + self.touched.len() as u64,
            shape_seq: self.shape_total,
            saturate_seq: self.saturate_total,
        }
    }

    /// The window's start in `touched`, or `None` when the cursor is stale
    /// (foreign journal, truncation, or a saturation since).
    fn window_start(&self, cursor: JournalCursor) -> Option<usize> {
        let live = cursor.id == self.id
            && cursor.seq >= self.base
            && self.saturate_total == cursor.saturate_seq;
        live.then(|| (cursor.seq - self.base) as usize)
    }

    /// O(1) classification of the window after `cursor`.
    pub fn probe(&self, cursor: JournalCursor) -> WindowProbe {
        match self.window_start(cursor) {
            None => WindowProbe::Saturated,
            Some(_) if self.shape_total != cursor.shape_seq => WindowProbe::Shape,
            Some(start) if start < self.touched.len() => WindowProbe::InstsOnly,
            Some(_) => WindowProbe::Clean,
        }
    }

    /// Number of touched-instruction entries currently buffered (not
    /// counting truncated ones).
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Drops all buffered entries. Cursors taken before the truncation
    /// point probe as saturated afterwards — always safe, never silently
    /// wrong.
    pub fn truncate(&mut self) {
        self.base += self.touched.len() as u64;
        self.touched.clear();
    }

    /// Visits the instruction ids touched after `cursor`, in journal order
    /// and with repeats (no allocation). Returns `false`, having visited
    /// nothing, when the cursor is stale.
    pub fn visit_insts_since(&self, cursor: JournalCursor, f: impl FnMut(InstId)) -> bool {
        let Some(start) = self.window_start(cursor) else {
            return false;
        };
        self.touched[start..].iter().copied().for_each(f);
        true
    }
}

/// A position in a [`MutationJournal`]. Obtain via
/// [`Function::journal_head`](crate::Function::journal_head); classify the
/// window after it in O(1) with
/// [`Function::probe_since`](crate::Function::probe_since), or visit its
/// touched instructions with
/// [`Function::insts_touched_since`](crate::Function::insts_touched_since).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCursor {
    id: u64,
    seq: u64,
    /// Snapshot of the journal's running block-graph edit count.
    shape_seq: u64,
    /// Snapshot of the journal's running saturation count.
    saturate_seq: u64,
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
    /// The cursor is stale (foreign journal, truncation, or an untracked
    /// mutation) — anything may have changed.
    Saturated,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touched_since(j: &MutationJournal, c: JournalCursor) -> Option<Vec<usize>> {
        let mut seen = Vec::new();
        j.visit_insts_since(c, |id| seen.push(id.index()))
            .then_some(seen)
    }

    #[test]
    fn windows_classify_and_visit() {
        let mut j = MutationJournal::new();
        let c0 = j.head();
        assert_eq!(j.probe(c0), WindowProbe::Clean);
        j.touch(InstId::new(3));
        assert_eq!(j.probe(c0), WindowProbe::InstsOnly);
        j.shape_edit();
        let c1 = j.head();
        j.touch(InstId::new(7));

        assert_eq!(j.probe(c0), WindowProbe::Shape);
        assert_eq!(touched_since(&j, c0), Some(vec![3, 7]));
        assert_eq!(j.probe(c1), WindowProbe::InstsOnly);
        assert_eq!(touched_since(&j, c1), Some(vec![7]));

        // A block-graph edit alone (an added block) is not a clean window.
        let c2 = j.head();
        j.shape_edit();
        assert_eq!(j.probe(c2), WindowProbe::Shape);
        assert_eq!(touched_since(&j, c2), Some(vec![]));

        // Truncation: old cursors saturate, the head cursor stays clean.
        j.truncate();
        assert_eq!(j.probe(c0), WindowProbe::Saturated);
        assert_eq!(touched_since(&j, c0), None);
        assert_eq!(j.probe(j.head()), WindowProbe::Clean);

        // Foreign cursors (other identity) saturate.
        let other = MutationJournal::new();
        assert_eq!(other.probe(c0), WindowProbe::Saturated);
    }

    #[test]
    fn saturation_condemns_every_open_window() {
        let mut j = MutationJournal::new();
        let c = j.head();
        j.touch(InstId::new(1));
        j.saturate();
        assert_eq!(j.probe(c), WindowProbe::Saturated);
        assert_eq!(touched_since(&j, c), None);
        assert_eq!(j.probe(j.head()), WindowProbe::Clean);
    }
}
