//! In-memory span tracing around calls into the layers under test.
//!
//! The benchmark measures every layer **from outside**: each call into a
//! crate's public function is wrapped in a span (`name`, `start`, `end`,
//! `parent`, and an `op` id shared by all spans of one offline compile, one
//! deployment, one kernel run or one request). Spans stay in memory while the
//! run measures and are written as JSON lines when it ends. A layer's number
//! is its **self time**: the span's duration minus the part of that interval
//! its child spans cover, so the layers of one root sum to the root and the
//! remainder no child covers is reported as unaccounted.
//!
//! An op id encodes the phase, the operation's number within the phase and
//! the unit it worked on ([`op_id`]), so that the self times of one unit can
//! be compared across rounds like the end-to-end samples are.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

const UNIT_BITS: u32 = 24;
const SEQ_BITS: u32 = 24;

/// The id of the `seq`-th operation of `phase`, which works on `unit`.
pub fn op_id(phase: u8, seq: u32, unit: usize) -> u64 {
    debug_assert!(unit < 1 << UNIT_BITS);
    let seq = u64::from(seq) & ((1 << SEQ_BITS) - 1);
    u64::from(phase) << (UNIT_BITS + SEQ_BITS) | seq << UNIT_BITS | unit as u64
}

/// The unit an op id names.
pub fn op_unit(op: u64) -> usize {
    (op & ((1 << UNIT_BITS) - 1)) as usize
}

/// Most spans kept for the JSONL dump; beyond this only the per-name
/// aggregates keep growing (a 20 s serving run produces millions of spans).
const KEEP_SPANS: usize = 200_000;

/// One traced interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

/// Records spans for one block at a time and folds each finished block into
/// per-name self-time samples.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// Spans of the block being recorded.
    block: Vec<Span>,
    /// Spans of finished blocks kept for the dump (ids rebased on push).
    kept: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records.
    pub fn recording() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            block: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
        }
    }

    /// A tracer whose every call is a no-op: the untraced blocks run the
    /// very same harness code through this one.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::recording()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Make room for `spans` more spans, so recording them allocates nothing
    /// (the allocation counters must see only the program under test).
    pub fn reserve(&mut self, spans: usize) {
        if self.enabled {
            self.block.reserve(spans);
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = self.now();
        Some(self.add(name, parent, op, at, at))
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.block[id as usize].end = self.now();
        }
    }

    /// Run `f` inside a span (just `f()` when disabled).
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span with explicit bounds (nanoseconds since the epoch) —
    /// for intervals the harness did not observe itself, such as the queue
    /// wait and execute times a served `Response` carries.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        self.block.push(Span {
            name,
            parent,
            op,
            start,
            end,
        });
        (self.block.len() - 1) as SpanId
    }

    /// Nanoseconds since the epoch for an instant taken by the caller.
    pub fn at(&self, instant: Instant) -> u64 {
        instant.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Finish the current block: return, per span name and unit, the summed
    /// self time and summed duration (nanoseconds) and move the spans to the
    /// dump buffer.
    pub fn finish_block(&mut self) -> BTreeMap<(&'static str, usize), (u64, u64)> {
        let mut by_name: BTreeMap<(&'static str, usize), (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.block.iter().zip(self_times(&self.block)) {
            let entry = by_name.entry((span.name, op_unit(span.op))).or_default();
            entry.0 += self_ns;
            entry.1 += span.end - span.start;
        }
        let base = self.kept.len() as SpanId;
        if self.kept.len() + self.block.len() <= KEEP_SPANS {
            self.kept.extend(self.block.drain(..).map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        } else {
            self.dropped += self.block.len() as u64;
            self.block.clear();
        }
        by_name
    }

    /// Spans kept for the dump, and how many were only aggregated.
    pub fn kept_and_dropped(&self) -> (usize, u64) {
        (self.kept.len(), self.dropped)
    }

    /// Write the kept spans as JSON lines (`id` is the line's index).
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals (clipped to the span, so overlapping or overhanging children
/// never subtract more than the span has).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start.clamp(parent.start, parent.end);
            let end = s.end.clamp(parent.start, parent.end);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            op: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 50, 90),
            span("a.inner", Some(1), 15, 25),
        ];
        // root: 100 - (30 + 40); a: 30 - 10; b and a.inner are leaves.
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("root", None, 100, 200),
            span("x", Some(0), 110, 160),
            span("y", Some(0), 150, 180),  // overlaps x by 10
            span("z", Some(0), 190, 250),  // hangs over the root's end
            span("w", Some(0), 120, 130),  // fully inside x
            span("early", Some(0), 0, 50), // entirely before the root
        ];
        // covered = [110,180) + [190,200) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn op_ids_are_unique_and_give_their_unit_back() {
        assert_eq!(op_unit(op_id(3, 17, 152)), 152);
        assert_ne!(op_id(1, 0, 5), op_id(2, 0, 5));
        assert_ne!(op_id(1, 0, 5), op_id(1, 1, 5));
        assert_ne!(op_id(1, 0, 5), op_id(1, 0, 6));
    }

    #[test]
    fn blocks_fold_into_self_time_by_name_and_unit_and_rebase_parents() {
        let mut t = Tracer::recording();
        let root = t.add("root", None, 7, 0, 50);
        t.add("leaf", Some(root), 7, 10, 30);
        t.add("leaf", Some(root), 7, 30, 45);
        let other = t.add("root", None, 9, 60, 70);
        t.add("leaf", Some(other), 9, 61, 63);
        let first = t.finish_block();
        assert_eq!(first[&("root", 7)], (15, 50));
        assert_eq!(first[&("leaf", 7)], (35, 35));
        assert_eq!(first[&("root", 9)], (8, 10));
        assert_eq!(first[&("leaf", 9)], (2, 2));

        let root2 = t.add("root", None, 8, 100, 110);
        t.add("leaf", Some(root2), 8, 100, 104);
        let second = t.finish_block();
        assert_eq!(second[&("root", 8)], (6, 10));
        assert_eq!(second[&("leaf", 8)], (4, 4));

        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(
            lines[6],
            "{\"id\":6,\"name\":\"leaf\",\"parent\":5,\"op\":8,\"start_ns\":100,\"end_ns\":104}"
        );
        assert_eq!(t.kept_and_dropped(), (7, 0));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.begin("x", None, 0);
        assert_eq!(id, None);
        assert_eq!(t.scope("y", id, 0, || 41 + 1), 42);
        t.end(id);
        assert!(t.finish_block().is_empty());
        assert_eq!(t.kept_and_dropped(), (0, 0));
    }
}
