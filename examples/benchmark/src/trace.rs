//! Outside-in tracing: spans recorded by the harness around each call into
//! a layer's public functions. Nothing inside the program is instrumented.
//!
//! Spans are kept in memory and only aggregated (or written) after the
//! last round. A span's *self time* is its duration minus the durations of
//! its direct children, so self times over one round add up to the round
//! span's duration.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at the top.
    pub parent: u32,
    pub round: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
}

/// Per span name: how many, summed self time, summed duration.
#[derive(Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Switches recording on or off and names the round that follows.
    pub fn start_round(&mut self, on: bool, round: u32) {
        self.on = on;
        self.round = round;
    }

    /// Runs `f` inside a span called `name`. With tracing off this is a
    /// plain call: no clock is read.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(u32::MAX),
            round: self.round,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != u32::MAX {
                children[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(children) {
            let t = by_name.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns);
        }
        by_name
    }

    /// One JSON object per line: name, start, end, parent, round.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        w.flush()
    }
}
