//! Span forest reconstruction and causal analysis.
//!
//! A trace is a flat stream of `span` events; this module rebuilds the
//! hierarchy ([`SpanForest::build`]) and answers the questions a flat
//! per-name table cannot:
//!
//! * **critical path** ([`SpanForest::critical_path`]) — the longest causal
//!   chain through a root span's subtree, walked backwards from the root's
//!   end time through whichever child finished last. Every nanosecond of
//!   the root's wall-clock is attributed to exactly one span on the chain,
//!   so the segment durations sum to the root's duration exactly;
//! * **parallelism efficiency** ([`SpanForest::subtree_stats`]) — total
//!   busy work across the subtree versus `wall × workers`;
//! * **queue vs compute** — self-time of spans that have children (time a
//!   batched stage spent *not* covered by its workers: queueing, packing,
//!   reducing) versus leaf compute time.
//!
//! The input [`SpanRecord`]s can come from an in-memory [`crate::Event`]
//! stream (tests) or a parsed JSONL trace (the `irnuma` trace reader, which
//! owns the JSON parsing — this crate stays dependency-free); both go
//! through [`SpanRecord::from_fields`].

use crate::sink::Event;
use crate::value::Value;

/// One completed span, in reconstruction-friendly form. `start_ns` is
/// derived from the emission timestamp minus the duration (span events are
/// emitted at close time).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub trace_id: u64,
    pub span_id: u64,
    /// 0 = root (no parent).
    pub parent_id: u64,
    pub thread: u64,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Remaining structured fields, stringified (carried into Perfetto
    /// `args`; not interpreted here).
    pub args: Vec<(String, String)>,
}

/// Field keys spent on [`SpanRecord`] structure; every other field becomes
/// an arg.
const CAUSAL_KEYS: [&str; 7] =
    ["span", "parent", "trace_id", "span_id", "parent_id", "thread", "dur_ns"];

impl SpanRecord {
    /// End timestamp (saturating).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// Convert an emitted `span` [`Event`] (e.g. from a
    /// [`crate::MemorySink`]) into a record. Returns `None` for non-span
    /// events or spans missing the causal fields.
    pub fn from_event(e: &Event) -> Option<SpanRecord> {
        if e.kind != "span" {
            return None;
        }
        SpanRecord::from_fields(
            e.ts_ns,
            e.name.clone(),
            e.fields.iter().map(|(k, v)| (*k, v)),
            |v| match *v {
                Value::U64(v) => Some(v),
                Value::I64(v) => u64::try_from(v).ok(),
                _ => None,
            },
            |v| {
                let mut s = String::new();
                v.write_json(&mut s);
                s.trim_matches('"').to_string()
            },
        )
    }

    /// The causal-field rule every span reader shares (the in-memory
    /// [`SpanRecord::from_event`] and the JSONL trace reader): `dur_ns` and a
    /// span id are required, `span_id` falls back to the legacy `span` and
    /// `parent_id` to `parent` (neither = a root), and the start is
    /// `ts_ns − dur_ns` because span events are emitted at close. `u64_of`
    /// reads an integer field value, `arg_of` stringifies any other field.
    pub fn from_fields<'a, V: 'a>(
        ts_ns: u64,
        name: String,
        fields: impl IntoIterator<Item = (&'a str, &'a V)>,
        u64_of: impl Fn(&V) -> Option<u64>,
        arg_of: impl Fn(&V) -> String,
    ) -> Option<SpanRecord> {
        let mut causal = [None; CAUSAL_KEYS.len()];
        let mut args = Vec::new();
        for (k, v) in fields {
            match CAUSAL_KEYS.iter().position(|c| *c == k) {
                Some(i) => causal[i] = causal[i].or_else(|| u64_of(v)),
                None => args.push((k.to_string(), arg_of(v))),
            }
        }
        let [span, parent, trace_id, span_id, parent_id, thread, dur_ns] = causal;
        let dur_ns = dur_ns?;
        Some(SpanRecord {
            trace_id: trace_id.unwrap_or(0),
            span_id: span_id.or(span)?,
            parent_id: parent_id.or(parent).unwrap_or(0),
            thread: thread.unwrap_or(0),
            name,
            start_ns: ts_ns.saturating_sub(dur_ns),
            dur_ns,
            args,
        })
    }
}

/// Aggregate timing of one span's subtree.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubtreeStats {
    /// The root span's own duration.
    pub wall_ns: u64,
    /// Σ exclusive busy time over every span in the subtree (a span's
    /// duration minus the union of its children's intervals). Exceeds
    /// `wall_ns` when work ran in parallel.
    pub work_ns: u64,
    /// Σ duration over leaf spans — the actual compute.
    pub compute_ns: u64,
    /// Σ self-time over non-leaf spans — fan-out overhead, queueing,
    /// packing, reduction: everything a batched stage did around its
    /// workers.
    pub queue_ns: u64,
    /// Distinct thread ids observed in the subtree.
    pub workers: usize,
    /// Number of spans in the subtree (including the root).
    pub spans: usize,
    /// Parallelism efficiency: `work / (wall × workers)` in `[0, 1]`.
    pub efficiency: f64,
}

/// One segment of a critical path: `self_ns` nanoseconds attributed to the
/// span at `index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    pub index: usize,
    pub self_ns: u64,
}

/// The reconstructed hierarchy of one trace file (possibly holding many
/// traces).
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    pub spans: Vec<SpanRecord>,
    /// Children of each span, sorted by start time.
    children: Vec<Vec<usize>>,
    /// Indices of true roots: spans with `parent_id == 0`.
    pub roots: Vec<usize>,
    /// Indices of orphans: spans whose parent id never appears in the
    /// trace (truncated file, missing propagation). Treated as extra roots
    /// for traversal, but counted so `trace analyze` can flag them.
    pub orphans: Vec<usize>,
}

impl SpanForest {
    /// Reconstruct the forest. Spans with duplicate ids keep the first
    /// occurrence as the parent-link target (ids are process-unique in
    /// practice; duplicates only arise from corrupted traces).
    pub fn build(spans: Vec<SpanRecord>) -> SpanForest {
        let mut by_id = std::collections::HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            by_id.entry(s.span_id).or_insert(i);
        }
        let mut children = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        let mut orphans = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            if s.parent_id == 0 {
                roots.push(i);
            } else {
                match by_id.get(&s.parent_id) {
                    Some(&p) if p != i => children[p].push(i),
                    _ => orphans.push(i),
                }
            }
        }
        for c in &mut children {
            c.sort_by_key(|&i| (spans[i].start_ns, spans[i].span_id));
        }
        let key = |&i: &usize| (spans[i].start_ns, spans[i].span_id);
        roots.sort_by_key(key);
        orphans.sort_by_key(key);
        SpanForest { spans, children, roots, orphans }
    }

    /// Direct children of span `i`, sorted by start time.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Indices of every span in `i`'s subtree (preorder, `i` first).
    pub fn subtree(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![i];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children[n].iter().rev());
        }
        out
    }

    /// Exclusive busy time of span `i`: its duration minus the union of its
    /// children's intervals (clamped inside the span).
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let covered = interval_union_within(
            self.children[i].iter().map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns())),
            s.start_ns,
            s.end_ns(),
        );
        s.dur_ns.saturating_sub(covered)
    }

    /// Aggregate timing of span `i`'s subtree (see [`SubtreeStats`]).
    pub fn subtree_stats(&self, i: usize) -> SubtreeStats {
        let mut stats = SubtreeStats { wall_ns: self.spans[i].dur_ns, ..Default::default() };
        let mut threads = std::collections::HashSet::new();
        for n in self.subtree(i) {
            stats.spans += 1;
            threads.insert(self.spans[n].thread);
            let self_ns = self.self_ns(n);
            stats.work_ns += self_ns;
            if self.children[n].is_empty() {
                stats.compute_ns += self.spans[n].dur_ns;
            } else {
                stats.queue_ns += self_ns;
            }
        }
        stats.workers = threads.len().max(1);
        let denom = stats.wall_ns.saturating_mul(stats.workers as u64);
        stats.efficiency = if denom == 0 { 0.0 } else { stats.work_ns as f64 / denom as f64 };
        stats
    }

    /// The critical path through span `i`'s subtree: walk backwards from
    /// the span's end, descending into whichever child finished last, until
    /// the span's start is reached. Returns contiguous segments whose
    /// durations sum to exactly `spans[i].dur_ns` (children are clamped to
    /// their parent's interval, so clock skew cannot break the invariant).
    pub fn critical_path(&self, i: usize) -> Vec<PathSegment> {
        let mut out = Vec::new();
        let s = &self.spans[i];
        self.walk_critical(i, s.start_ns, s.end_ns(), &mut out);
        out.reverse(); // built back-to-front; return in chronological order
        out
    }

    fn walk_critical(&self, i: usize, ws: u64, we: u64, out: &mut Vec<PathSegment>) {
        let mut cursor = we;
        // Children by end time, descending: the last finisher bounds the
        // parent's completion, then recursively the last finisher before
        // that child started, and so on.
        let mut kids: Vec<usize> = self.children[i].to_vec();
        kids.sort_by_key(|&k| (self.spans[k].end_ns(), self.spans[k].span_id));
        for &k in kids.iter().rev() {
            if cursor <= ws {
                break;
            }
            let ks = self.spans[k].start_ns.clamp(ws, we);
            let ke = self.spans[k].end_ns().clamp(ws, we);
            if ke <= ws || ks >= cursor {
                // Entirely before the window, or concurrent with a segment
                // already attributed: not on the path.
                continue;
            }
            let ke = ke.min(cursor);
            if ke < cursor {
                // Gap between this child's end and the path so far: the
                // parent itself was busy (reduction, bookkeeping).
                out.push(PathSegment { index: i, self_ns: cursor - ke });
            }
            self.walk_critical(k, ks, ke, out);
            cursor = ks;
        }
        if cursor > ws {
            out.push(PathSegment { index: i, self_ns: cursor - ws });
        }
    }
}

/// Total length of the union of `intervals` clamped to `[lo, hi]`.
fn interval_union_within(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut clamped: Vec<(u64, u64)> =
        intervals.map(|(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi))).filter(|(s, e)| e > s).collect();
    clamped.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clamped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
                let _ = cs;
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        span_id: u64,
        parent_id: u64,
        thread: u64,
        name: &str,
        start: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id,
            parent_id,
            thread,
            name: name.into(),
            start_ns: start,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    /// root [0,100) with two parallel children a [10,60) and b [20,90):
    /// walking back from 100, b bounds completion until its start (20),
    /// then a is the last finisher over [10,20), then the root's own head
    /// [0,10): 10 + 70 + 10 + 10 = 100.
    #[test]
    fn critical_path_picks_the_last_finisher() {
        let f = SpanForest::build(vec![
            rec(1, 0, 1, "root", 0, 100),
            rec(2, 1, 2, "a", 10, 50),
            rec(3, 1, 3, "b", 20, 70),
        ]);
        assert_eq!(f.roots, vec![0]);
        assert!(f.orphans.is_empty());
        let path = f.critical_path(0);
        let total: u64 = path.iter().map(|p| p.self_ns).sum();
        assert_eq!(total, 100, "path sums to the root wall-clock");
        let by_name: Vec<(&str, u64)> =
            path.iter().map(|p| (f.spans[p.index].name.as_str(), p.self_ns)).collect();
        assert_eq!(by_name, vec![("root", 10), ("a", 10), ("b", 70), ("root", 10)]);
    }

    #[test]
    fn nested_chains_recurse() {
        // root [0,100) -> child [10,90) -> grandchild [20,80).
        let f = SpanForest::build(vec![
            rec(1, 0, 1, "root", 0, 100),
            rec(2, 1, 1, "child", 10, 80),
            rec(3, 2, 1, "grand", 20, 60),
        ]);
        let path = f.critical_path(0);
        let total: u64 = path.iter().map(|p| p.self_ns).sum();
        assert_eq!(total, 100);
        let by_name: Vec<(&str, u64)> =
            path.iter().map(|p| (f.spans[p.index].name.as_str(), p.self_ns)).collect();
        assert_eq!(
            by_name,
            vec![("root", 10), ("child", 10), ("grand", 60), ("child", 10), ("root", 10)]
        );
    }

    #[test]
    fn subtree_stats_measure_parallelism() {
        // root [0,100) with two workers fully parallel on separate threads.
        let f = SpanForest::build(vec![
            rec(1, 0, 1, "root", 0, 100),
            rec(2, 1, 2, "w", 0, 100),
            rec(3, 1, 3, "w", 0, 100),
        ]);
        let st = f.subtree_stats(0);
        assert_eq!(st.wall_ns, 100);
        assert_eq!(st.compute_ns, 200);
        assert_eq!(st.work_ns, 200, "root fully covered by children: zero self time");
        assert_eq!(st.queue_ns, 0);
        assert_eq!(st.workers, 3);
        assert!((st.efficiency - 200.0 / 300.0).abs() < 1e-9);
    }

    #[test]
    fn queue_time_is_uncovered_parent_self_time() {
        // Batch [0,100): workers cover [20,90) in parallel; 30ns of queue.
        let f = SpanForest::build(vec![
            rec(1, 0, 1, "batch", 0, 100),
            rec(2, 1, 2, "w", 20, 70),
            rec(3, 1, 3, "w", 20, 70),
        ]);
        let st = f.subtree_stats(0);
        assert_eq!(st.queue_ns, 30);
        assert_eq!(st.compute_ns, 140);
    }

    #[test]
    fn orphans_are_detected() {
        let f = SpanForest::build(vec![rec(2, 99, 1, "lost", 0, 10), rec(1, 0, 1, "root", 0, 5)]);
        assert_eq!(f.roots.len(), 1);
        assert_eq!(f.orphans.len(), 1);
        assert_eq!(f.spans[f.orphans[0]].name, "lost");
    }

    #[test]
    fn children_clamp_to_parent_interval() {
        // Child claims to end after its parent (clock skew): the path still
        // sums exactly to the parent duration.
        let f = SpanForest::build(vec![rec(1, 0, 1, "root", 0, 100), rec(2, 1, 2, "w", 50, 80)]);
        let total: u64 = f.critical_path(0).iter().map(|p| p.self_ns).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn record_round_trips_from_event() {
        let e = Event::now("span", "stage")
            .field("epoch", 3u64)
            .field("span", 7u64)
            .field("parent", 2u64)
            .field("trace_id", 42u64)
            .field("span_id", 7u64)
            .field("parent_id", 2u64)
            .field("thread", 5u64)
            .field("dur_ns", 1000u64);
        let r = SpanRecord::from_event(&e).unwrap();
        assert_eq!((r.trace_id, r.span_id, r.parent_id, r.thread), (42, 7, 2, 5));
        assert_eq!(r.dur_ns, 1000);
        assert_eq!(r.end_ns(), e.ts_ns);
        assert_eq!(r.args, vec![("epoch".to_string(), "3".to_string())]);
        assert!(SpanRecord::from_event(&Event::now("counter", "x")).is_none());
    }
}
