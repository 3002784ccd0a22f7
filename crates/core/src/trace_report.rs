//! The one reader of `IRNUMA_TRACE` JSONL files, and its three views.
//!
//! [`load`] reads a trace line by line and parses each line once into a
//! [`Trace`]: span events become [`SpanRecord`]s through the causal-field
//! rule the in-memory path uses too ([`SpanRecord::from_fields`]), metric
//! flushes (`counter`/`gauge`/`hist`) are kept as flushed, and `log` lines
//! are counted. Every view reads that one [`Trace`]:
//!
//! * [`Trace::report`] (`irnuma report`) folds the spans by name: count,
//!   total, exact nearest-rank p50/p90/p99 (exact, unlike the log-bucket
//!   approximation inside `irnuma-obs`, because the full sample set is on
//!   disk), max, summed `alloc_bytes` deltas (present when the binary runs
//!   with allocation tracking), and the share of the root spans' wall;
//! * [`analyze`] (`irnuma trace analyze`) rebuilds the [`SpanForest`] and
//!   answers structural questions: what bounded an epoch's wall-clock, how
//!   well the fan-out parallelized, how much time went to queueing versus
//!   compute;
//! * [`export_perfetto`] (`irnuma trace export --perfetto`).
//!
//! **Malformed lines.** A line is an event when it is UTF-8 JSON holding a
//! `u64` `ts_ns`, a string `kind` and `name`, and an object `fields`, and
//! its `kind` is one the obs writer emits with that kind's fields: `span`
//! needs `dur_ns` and a span id (`span_id`, or the legacy `span`),
//! `counter` an integer `value`, `gauge` a numeric `value`, `hist` `count`,
//! `mean`, `p50` and `p99`; `log` needs nothing more. Every other line,
//! blank lines and invalid UTF-8 included, is skipped and counted in
//! [`Trace::malformed_lines`] rather than failing the read: a trace cut by
//! a crash or interleaved by a concurrent writer still reads, and the count
//! itself is the signal that something was off. Only an unreadable file is
//! an error.

use irnuma_obs::{write_json_string, SpanForest, SpanRecord};
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;

/// Span names treated as analysis roots even when they nest under a larger
/// umbrella span (`train.epoch` sits under `train.fit`, but the per-epoch
/// breakdown is what the acceptance questions ask about).
pub const WELL_KNOWN_ROOTS: [&str; 4] = ["train.epoch", "infer.batch", "dataset.build", "ml.ga"];

/// Everything read from one trace file.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The span events, in file order.
    pub spans: Vec<SpanRecord>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<HistStat>,
    pub log_lines: usize,
    /// Lines skipped under the module's malformed-line rule.
    pub malformed_lines: usize,
}

/// Aggregated statistics of one span name.
#[derive(Debug, Clone)]
pub struct SpanStat {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    /// Total bytes allocated across this stage's spans (0 when the trace
    /// was produced without allocation tracking).
    pub alloc_bytes: u64,
}

/// One `hist` flush event from the trace.
#[derive(Debug, Clone)]
pub struct HistStat {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
}

/// The flat per-name profile of a trace (see [`Trace::report`]).
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub total_events: usize,
    pub malformed_lines: usize,
    /// Per-name span statistics, sorted by total wall time, descending.
    pub spans: Vec<SpanStat>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<HistStat>,
    pub log_lines: usize,
    /// Σ duration over root spans (`parent_id == 0`) — the wall-clock
    /// denominator for the `%wall` column. 0 when the trace has no roots.
    pub root_wall_ns: u64,
}

/// Sort order for the per-stage table (`irnuma report --sort`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortKey {
    /// Total wall time, descending (the default).
    #[default]
    Total,
    /// p99 latency, descending — surfaces rare-but-slow stages.
    P99,
    /// Invocation count, descending — surfaces the hottest call sites.
    Count,
}

impl SortKey {
    pub fn parse(s: &str) -> Option<SortKey> {
        match s {
            "total" => Some(SortKey::Total),
            "p99" => Some(SortKey::P99),
            "count" => Some(SortKey::Count),
            _ => None,
        }
    }
}

/// Read a JSONL trace. Malformed lines are skipped and tallied (see the
/// module doc); only an unreadable file is an error.
pub fn load(path: &Path) -> Result<Trace, String> {
    std::fs::File::open(path)
        .and_then(|f| read(std::io::BufReader::new(f)))
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Read a trace from a byte stream, one `\n`-terminated line at a time.
fn read(mut src: impl BufRead) -> std::io::Result<Trace> {
    let mut trace = Trace::default();
    let mut line = Vec::new();
    while src.read_until(b'\n', &mut line)? > 0 {
        let text = line.strip_suffix(b"\n").unwrap_or(&line);
        if trace.push_line(text).is_none() {
            trace.malformed_lines += 1;
        }
        line.clear();
    }
    Ok(trace)
}

/// Nearest-rank quantile over an ascending-sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Trace {
    /// Number of well-formed events of every kind.
    pub fn events(&self) -> usize {
        self.spans.len()
            + self.counters.len()
            + self.gauges.len()
            + self.hists.len()
            + self.log_lines
    }

    /// Parse one line into the trace; `None` means the line is malformed.
    fn push_line(&mut self, line: &[u8]) -> Option<()> {
        let v = serde_json::parse_value(std::str::from_utf8(line).ok()?).ok()?;
        let ts_ns = v.field("ts_ns")?.as_u64()?;
        let kind = v.field("kind")?.as_str()?;
        let name = v.field("name")?.as_str()?.to_string();
        let fields = v.field("fields")?;
        let Value::Object(pairs) = fields else { return None };
        let u64_of = |key: &str| fields.field(key)?.as_u64();
        let f64_of = |key: &str| fields.field(key)?.as_f64();
        match kind {
            "span" => self.spans.push(SpanRecord::from_fields(
                ts_ns,
                name,
                pairs.iter().map(|(k, v)| (k.as_str(), v)),
                Value::as_u64,
                |v| match v {
                    Value::Str(s) => s.clone(),
                    other => serde_json::value_to_string(other),
                },
            )?),
            "counter" => self.counters.push((name, u64_of("value")?)),
            "gauge" => self.gauges.push((name, f64_of("value")?)),
            "hist" => self.hists.push(HistStat {
                count: u64_of("count")?,
                mean: f64_of("mean")?,
                p50: f64_of("p50")?,
                p99: f64_of("p99")?,
                name,
            }),
            "log" => self.log_lines += 1,
            _ => return None,
        }
        Some(())
    }

    /// The flat per-name view behind `irnuma report`, sorted by total wall
    /// time; metric flushes are sorted by name.
    pub fn report(self) -> TraceReport {
        let total_events = self.events();
        let mut groups: BTreeMap<&str, (Vec<u64>, u64)> = BTreeMap::new();
        let mut root_wall_ns = 0;
        for s in &self.spans {
            let (durations, alloc) = groups.entry(&s.name).or_default();
            durations.push(s.dur_ns);
            *alloc += s
                .args
                .iter()
                .find(|(k, _)| k == "alloc_bytes")
                .and_then(|(_, v)| v.parse::<u64>().ok())
                .unwrap_or(0);
            // Root spans partition the run's wall-clock.
            if s.parent_id == 0 {
                root_wall_ns += s.dur_ns;
            }
        }
        let spans = groups
            .into_iter()
            .map(|(name, (mut ds, alloc_bytes))| {
                ds.sort_unstable();
                SpanStat {
                    name: name.to_string(),
                    count: ds.len(),
                    total_ns: ds.iter().sum(),
                    p50_ns: quantile(&ds, 0.50),
                    p90_ns: quantile(&ds, 0.90),
                    p99_ns: quantile(&ds, 0.99),
                    max_ns: *ds.last().expect("non-empty duration group"),
                    alloc_bytes,
                }
            })
            .collect();
        let mut report = TraceReport {
            total_events,
            malformed_lines: self.malformed_lines,
            spans,
            counters: self.counters,
            gauges: self.gauges,
            hists: self.hists,
            log_lines: self.log_lines,
            root_wall_ns,
        };
        report.sort_spans(SortKey::Total);
        report.counters.sort();
        report.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        report.hists.sort_by(|a, b| a.name.cmp(&b.name));
        report
    }
}

impl TraceReport {
    /// Re-sort the per-stage table (descending by `key`, name-tiebroken so
    /// output stays deterministic).
    pub fn sort_spans(&mut self, key: SortKey) {
        self.spans.sort_by(|a, b| {
            let ord = match key {
                SortKey::Total => b.total_ns.cmp(&a.total_ns),
                SortKey::P99 => b.p99_ns.cmp(&a.p99_ns),
                SortKey::Count => b.count.cmp(&a.count),
            };
            ord.then_with(|| a.name.cmp(&b.name))
        });
    }

    /// Check that every named stage appears at least once as a span.
    pub fn require(&self, stages: &[&str]) -> Result<(), String> {
        let missing: Vec<&str> = stages
            .iter()
            .filter(|s| !self.spans.iter().any(|sp| sp.name == **s))
            .copied()
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(format!("trace is missing required stage(s): {}", missing.join(", ")))
        }
    }

    /// The SpMM strategy mix from the `dispatch.spmm_*` counters. `None`
    /// when the trace carries no SpMM counters. Counters are cumulative per
    /// flush, so the largest flushed value per name is the lifetime total.
    fn dispatch_summary(&self) -> Option<String> {
        let total = |key: &str| {
            self.counters.iter().filter(|(n, _)| n == key).map(|&(_, v)| v).max().unwrap_or(0)
        };
        let (csr, edge) = (total("dispatch.spmm_csr"), total("dispatch.spmm_edge"));
        if csr + edge == 0 {
            return None;
        }
        let pct = 100.0 * csr as f64 / (csr + edge) as f64;
        let label = "spmm csr-gather share";
        Some(format!(
            "\nkernel dispatch:\n  {label:<34} {pct:5.1}%  (csr {csr}, edge-major {edge})\n"
        ))
    }

    /// Render the per-stage wall-time/percentile table (plus metric
    /// flushes). An `alloc_mb` column appears when any stage carried
    /// allocation deltas; a `%wall` column (stage total as a share of the
    /// summed root-span wall-clock) appears when the trace has root spans.
    pub fn render(&self) -> String {
        let with_alloc = self.spans.iter().any(|s| s.alloc_bytes > 0);
        let with_wall = self.root_wall_ns > 0;
        let mut out = String::new();
        out.push_str(&format!(
            "{} events: {} span groups, {} counters, {} gauges, {} histograms, {} logs\n\n",
            self.total_events,
            self.spans.len(),
            self.counters.len(),
            self.gauges.len(),
            self.hists.len(),
            self.log_lines
        ));
        out.push_str(&format!(
            "{:<28} {:>7} {:>12} {:>11} {:>11} {:>11} {:>11}",
            "stage", "count", "total_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"
        ));
        if with_wall {
            out.push_str(&format!(" {:>7}", "%wall"));
        }
        if with_alloc {
            out.push_str(&format!(" {:>10}", "alloc_mb"));
        }
        out.push('\n');
        for s in &self.spans {
            out.push_str(&format!(
                "{:<28} {:>7} {:>12.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
                s.name,
                s.count,
                ms(s.total_ns),
                ms(s.p50_ns),
                ms(s.p90_ns),
                ms(s.p99_ns),
                ms(s.max_ns)
            ));
            if with_wall {
                // A nested stage running across N workers can exceed 100%
                // of the root wall — that is the parallelism, not a bug.
                let pct = 100.0 * s.total_ns as f64 / self.root_wall_ns as f64;
                out.push_str(&format!(" {pct:>6.1}%"));
            }
            if with_alloc {
                out.push_str(&format!(" {:>10.2}", s.alloc_bytes as f64 / (1 << 20) as f64));
            }
            out.push('\n');
        }
        if !self.counters.is_empty() {
            out.push_str("\ncounters:\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<34} {v}\n"));
            }
        }
        if let Some(d) = self.dispatch_summary() {
            out.push_str(&d);
        }
        if !self.gauges.is_empty() {
            out.push_str("\ngauges:\n");
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<34} {v:.6}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("\nhistograms:\n");
            out.push_str(&format!(
                "  {:<34} {:>9} {:>12} {:>12} {:>12}\n",
                "name", "count", "mean", "p50", "p99"
            ));
            for h in &self.hists {
                out.push_str(&format!(
                    "  {:<34} {:>9} {:>12.1} {:>12.1} {:>12.1}\n",
                    h.name, h.count, h.mean, h.p50, h.p99
                ));
            }
        }
        out
    }

    /// Serialize the full report as one JSON object (the `--json` output
    /// mode, for scripting against `irnuma report`).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"total_events\":{},\"malformed_lines\":{},\"log_lines\":{},\"root_wall_ns\":{},\
             \"spans\":[",
            self.total_events, self.malformed_lines, self.log_lines, self.root_wall_ns
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&s.name, &mut out);
            let _ = write!(
                out,
                ",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\
                 \"max_ns\":{},\"alloc_bytes\":{}}}",
                s.count, s.total_ns, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns, s.alloc_bytes
            );
        }
        out.push_str("],\"counters\":[");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(name, &mut out);
            let _ = write!(out, ",\"value\":{v}}}");
        }
        out.push_str("],\"gauges\":[");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(name, &mut out);
            if v.is_finite() {
                let _ = write!(out, ",\"value\":{v}}}");
            } else {
                out.push_str(",\"value\":null}");
            }
        }
        out.push_str("],\"hists\":[");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_json_string(&h.name, &mut out);
            let _ = write!(
                out,
                ",\"count\":{},\"mean\":{:.3},\"p50\":{:.1},\"p99\":{:.1}}}",
                h.count, h.mean, h.p50, h.p99
            );
        }
        out.push_str("]}");
        out
    }
}

/// Options for [`analyze`].
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Analyze exactly the spans with these names as roots (overriding the
    /// default: forest roots plus [`WELL_KNOWN_ROOTS`]).
    pub roots: Option<Vec<String>>,
    /// Fail (Err) unless every one of these names appears among the
    /// analyzed roots — the CI assertion mode.
    pub require_roots: Vec<String>,
}

/// Indices of the spans to analyze as roots, sorted by start time.
fn analysis_roots(forest: &SpanForest, opts: &AnalyzeOptions) -> Vec<usize> {
    let mut idx: Vec<usize> = match &opts.roots {
        Some(names) => (0..forest.spans.len())
            .filter(|&i| names.iter().any(|n| n == &forest.spans[i].name))
            .collect(),
        None => {
            let mut v: Vec<usize> = forest.roots.clone();
            v.extend(
                (0..forest.spans.len())
                    .filter(|&i| WELL_KNOWN_ROOTS.contains(&forest.spans[i].name.as_str())),
            );
            v.sort_unstable();
            v.dedup();
            v
        }
    };
    idx.sort_by_key(|&i| (forest.spans[i].start_ns, forest.spans[i].span_id));
    idx
}

/// The causal view behind `irnuma trace analyze`: rebuild the forest, pick
/// the root spans, and render a per-root-name report with wall-clock,
/// parallelism efficiency, queue-vs-compute split, and the critical-path
/// decomposition of the largest instance. Errors only when a
/// `require_roots` name is missing.
pub fn analyze(trace: Trace, opts: &AnalyzeOptions) -> Result<String, String> {
    let other_events = trace.events() - trace.spans.len();
    let skipped_lines = trace.malformed_lines;
    let forest = SpanForest::build(trace.spans);
    let roots = analysis_roots(&forest, opts);

    for need in &opts.require_roots {
        if !roots.iter().any(|&i| &forest.spans[i].name == need) {
            return Err(format!(
                "trace has no root span named `{need}` (roots seen: {})",
                if roots.is_empty() {
                    "none".to_string()
                } else {
                    let mut names: Vec<&str> =
                        roots.iter().map(|&i| forest.spans[i].name.as_str()).collect();
                    names.sort_unstable();
                    names.dedup();
                    names.join(", ")
                }
            ));
        }
    }

    let traces: std::collections::HashSet<u64> = forest.spans.iter().map(|s| s.trace_id).collect();
    let threads: std::collections::HashSet<u64> = forest.spans.iter().map(|s| s.thread).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "{} spans across {} trace(s), {} thread(s); {} true root(s), {} orphan(s)\n",
        forest.spans.len(),
        traces.len(),
        threads.len(),
        forest.roots.len(),
        forest.orphans.len()
    ));
    if other_events > 0 || skipped_lines > 0 {
        out.push_str(&format!("({other_events} non-span events, {skipped_lines} skipped lines)\n"));
    }
    if !forest.orphans.is_empty() {
        // Orphans mean a worker span whose parent never closed into the
        // trace — truncation, or a fan-out site missing ctx propagation.
        let mut names: Vec<&str> =
            forest.orphans.iter().map(|&i| forest.spans[i].name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        out.push_str(&format!("warning: orphaned spans (missing parents): {}\n", names.join(", ")));
    }

    // Group analyzed roots by name so 50 epochs render as one block.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for &i in &roots {
        by_name.entry(forest.spans[i].name.as_str()).or_default().push(i);
    }

    for (name, instances) in by_name {
        let total_wall: u64 = instances.iter().map(|&i| forest.spans[i].dur_ns).sum();
        out.push_str(&format!(
            "\nroot {name}: {} instance(s), total wall {:.3} ms\n",
            instances.len(),
            ms(total_wall)
        ));
        // The largest instance carries the representative breakdown.
        let &big = instances
            .iter()
            .max_by_key(|&&i| (forest.spans[i].dur_ns, forest.spans[i].span_id))
            .expect("non-empty instance group");
        let st = forest.subtree_stats(big);
        out.push_str(&format!(
            "  largest: wall {:.3} ms, {} span(s), {} worker(s), busy {:.3} ms, \
             efficiency {:.2}\n",
            ms(st.wall_ns),
            st.spans,
            st.workers,
            ms(st.work_ns),
            st.efficiency
        ));
        let busy = st.queue_ns + st.compute_ns;
        if busy > 0 {
            out.push_str(&format!(
                "  queue/orchestration {:.3} ms ({:.1}%) vs leaf compute {:.3} ms\n",
                ms(st.queue_ns),
                100.0 * st.queue_ns as f64 / busy as f64,
                ms(st.compute_ns)
            ));
        }
        // Critical path, folded per span name (chronological segments of
        // one name merge into a single line with its share of the wall).
        let path = forest.critical_path(big);
        let path_total: u64 = path.iter().map(|p| p.self_ns).sum();
        let mut per_name: Vec<(&str, u64)> = Vec::new();
        for seg in &path {
            let seg_name = forest.spans[seg.index].name.as_str();
            match per_name.iter_mut().find(|(n, _)| *n == seg_name) {
                Some((_, acc)) => *acc += seg.self_ns,
                None => per_name.push((seg_name, seg.self_ns)),
            }
        }
        per_name.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        out.push_str(&format!(
            "  critical path ({} segment(s), sums to {:.3} ms{}):\n",
            path.len(),
            ms(path_total),
            if path_total == st.wall_ns { "" } else { " — MISMATCH vs wall" }
        ));
        for (seg_name, self_ns) in per_name {
            let pct = if st.wall_ns > 0 { 100.0 * self_ns as f64 / st.wall_ns as f64 } else { 0.0 };
            let marker = if seg_name == name { " (self)" } else { "" };
            out.push_str(&format!(
                "    {:<30} {:>10.3} ms {:>5.1}%\n",
                format!("{seg_name}{marker}"),
                ms(self_ns),
                pct
            ));
        }
    }
    if roots.is_empty() {
        out.push_str("\nno root spans to analyze\n");
    }
    Ok(out)
}

/// Export the trace's spans as a Chrome/Perfetto trace-event JSON file.
pub fn export_perfetto(trace: &Trace, out_path: &Path) -> Result<(), String> {
    let json = irnuma_obs::perfetto::to_chrome_trace(&trace.spans);
    std::fs::write(out_path, json).map_err(|e| format!("cannot write {}: {e}", out_path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;
    use std::sync::OnceLock;

    fn test_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("irnuma-trace-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_trace(name: &str, lines: &[&str]) -> std::path::PathBuf {
        let path = test_dir().join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    /// Load and fold a trace file, then delete it.
    fn report_of(path: &Path) -> TraceReport {
        let r = load(path).unwrap().report();
        std::fs::remove_file(path).ok();
        r
    }

    fn span_line(name: &str, dur: u64) -> String {
        format!(
            r#"{{"ts_ns":1,"kind":"span","name":"{name}","fields":{{"span":1,"parent":0,"thread":1,"dur_ns":{dur}}}}}"#
        )
    }

    fn causal_line(
        name: &str,
        trace: u64,
        span: u64,
        parent: u64,
        thread: u64,
        end: u64,
        dur: u64,
    ) -> String {
        format!(
            r#"{{"ts_ns":{end},"kind":"span","name":"{name}","fields":{{"span":{span},"parent":{parent},"trace_id":{trace},"span_id":{span},"parent_id":{parent},"thread":{thread},"dur_ns":{dur},"epoch":7}}}}"#
        )
    }

    /// train.fit [0,100] on thread 1; train.epoch [5,95] with two worker
    /// graphs on threads 2 and 3; one log line.
    fn sample_trace(name: &str) -> std::path::PathBuf {
        write_trace(
            name,
            &[
                &causal_line("train.graph", 42, 3, 2, 2, 50, 40),
                &causal_line("train.graph", 42, 4, 2, 3, 90, 80),
                &causal_line("train.epoch", 42, 2, 1, 1, 95, 90),
                &causal_line("train.fit", 42, 1, 0, 1, 100, 100),
                r#"{"ts_ns":1,"kind":"log","name":"hello","fields":{}}"#,
            ],
        )
    }

    #[test]
    fn aggregates_spans_with_exact_percentiles() {
        let lines: Vec<String> = (1..=100u64).map(|d| span_line("train.epoch", d * 1000)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let r = report_of(&write_trace("percentiles.jsonl", &refs));
        assert_eq!(r.total_events, 100);
        assert_eq!(r.malformed_lines, 0);
        let s = &r.spans[0];
        assert_eq!(
            (s.count, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns),
            (100, 50_000, 90_000, 99_000, 100_000)
        );
        assert_eq!(s.total_ns, 5050 * 1000);
    }

    #[test]
    fn spans_sort_by_total_time() {
        let r = report_of(&write_trace(
            "sorted.jsonl",
            &[
                &span_line("fast", 10),
                &span_line("slow", 5000),
                &span_line("fast", 20),
                r#"{"ts_ns":2,"kind":"counter","name":"graph.builds","fields":{"value":3}}"#,
            ],
        ));
        assert_eq!(r.spans[0].name, "slow");
        assert_eq!(r.spans[1].name, "fast");
        assert_eq!(r.counters, vec![("graph.builds".to_string(), 3)]);
        let table = r.render();
        assert!(table.contains("slow"));
        assert!(table.contains("graph.builds"));
    }

    #[test]
    fn dispatch_counters_render_a_derived_rates_section() {
        let counter = |name: &str, v: u64| {
            format!(r#"{{"ts_ns":3,"kind":"counter","name":"{name}","fields":{{"value":{v}}}}}"#)
        };
        let r = report_of(&write_trace(
            "dispatch.jsonl",
            &[
                &counter("dispatch.matmul_spec", 70),
                // Two flushes of a cumulative counter: the larger value is
                // the lifetime total, not the sum.
                &counter("dispatch.spmm_csr", 3),
                &counter("dispatch.spmm_csr", 6),
                &counter("dispatch.spmm_edge", 2),
            ],
        ));
        let table = r.render();
        assert!(table.contains("kernel dispatch:"), "{table}");
        assert!(table.contains(" 75.0%  (csr 6, edge-major 2)"), "{table}");

        // A trace without SpMM counters renders no dispatch section.
        let r = report_of(&write_trace(
            "nodispatch.jsonl",
            &[&span_line("a", 5), &counter("dispatch.matmul_spec", 70)],
        ));
        assert!(!r.render().contains("kernel dispatch"), "{}", r.render());
    }

    #[test]
    fn sort_keys_reorder_the_table() {
        let mut r = report_of(&write_trace(
            "sortkeys.jsonl",
            &[
                &span_line("many_fast", 10),
                &span_line("many_fast", 10),
                &span_line("many_fast", 10),
                &span_line("one_slow", 2_000),
                &span_line("mid", 500),
                &span_line("mid", 600),
            ],
        ));
        assert_eq!(r.spans[0].name, "one_slow", "default sort is by total");
        r.sort_spans(SortKey::Count);
        assert_eq!(r.spans[0].name, "many_fast");
        r.sort_spans(SortKey::P99);
        assert_eq!(r.spans[0].name, "one_slow");
        assert_eq!(SortKey::parse("count"), Some(SortKey::Count));
        assert_eq!(SortKey::parse("nope"), None);
    }

    #[test]
    fn root_spans_drive_the_wall_percentage_column() {
        let nested = |name: &str, parent: u64, dur: u64| causal_line(name, 1, 9, parent, 1, 1, dur);
        let r = report_of(&write_trace(
            "wall.jsonl",
            &[
                &nested("train.fit", 0, 10_000_000), // root: the denominator
                &nested("train.epoch", 9, 8_000_000),
                &nested("train.epoch", 9, 1_000_000),
            ],
        ));
        assert_eq!(r.root_wall_ns, 10_000_000);
        let table = r.render();
        assert!(table.contains("%wall"), "{table}");
        assert!(table.contains("100.0%"), "{table}");
        assert!(table.contains("90.0%"), "{table}");
        assert!(r.to_json().contains("\"root_wall_ns\":10000000"));

        // A trace with no root spans hides the column.
        let r2 = report_of(&write_trace("nowall.jsonl", &[&nested("x", 5, 100)]));
        assert_eq!(r2.root_wall_ns, 0);
        assert!(!r2.render().contains("%wall"));
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted() {
        let path = write_trace(
            "bad.jsonl",
            &[
                &span_line("a", 1),
                "{not json",                                                   // bad JSON
                r#"{"ts_ns":1,"name":"x","fields":{},"extra":0}"#,             // missing kind
                r#"{"ts_ns":1,"kind":"span","name":"x","fields":{"span":1}}"#, // no dur_ns
                r#"{"ts_ns":1,"kind":"span","name":"x","fields":{"dur_ns":1}}"#, // no span id
                r#"{"ts_ns":1,"kind":"wat","name":"x","fields":{}}"#,          // unknown kind
                r#"{"ts_ns":1,"kind":"gauge","name":"x","fields":{}}"#,        // no value
                "",                                                            // blank line
                &"[".repeat(100_000),                                          // too deep
                &span_line("a", 3),
                r#"{"ts_ns":1,"kind":"log","name":"x","fields":{}}"#,
            ],
        );
        let t = load(&path).unwrap();
        assert_eq!((t.spans.len(), t.events(), t.malformed_lines), (2, 3, 8));
        // The causal view reports the same tally as the flat one.
        let header = analyze(t.clone(), &AnalyzeOptions::default()).unwrap();
        assert!(header.contains("(1 non-span events, 8 skipped lines)"), "{header}");
        let r = report_of(&path);
        assert_eq!((r.total_events, r.malformed_lines), (3, 8));
        assert_eq!(r.spans[0].count, 2, "good lines around the bad ones still aggregate");
    }

    #[test]
    fn truncated_final_line_still_reports_the_rest() {
        // Simulate a crash mid-write: the last line stops in the middle of
        // a JSON object.
        let full = span_line("train.epoch", 1000);
        let cut = &full[..full.len() / 2];
        let r = report_of(&write_trace("truncated.jsonl", &[&full, &full, cut]));
        assert_eq!(r.total_events, 2);
        assert_eq!(r.malformed_lines, 1);
    }

    #[test]
    fn invalid_utf8_lines_are_malformed_not_fatal() {
        // A line of 0xFF bytes, then a last line cut inside the two-byte
        // `é` (a crash mid-write): each is one malformed line.
        let good = span_line("train.epoch", 1000);
        let named = span_line("é", 5);
        let cut = &named.as_bytes()[..named.find('é').unwrap() + 1];
        let mut body = format!("{good}\n").into_bytes();
        body.extend_from_slice(b"{\"ts_ns\":\xff\xff}\n");
        body.extend_from_slice(cut);
        let path = test_dir().join("non-utf8.jsonl");
        std::fs::write(&path, body).unwrap();
        let r = report_of(&path);
        assert_eq!(r.malformed_lines, 2);
        assert_eq!((r.spans.len(), r.spans[0].name.as_str()), (1, "train.epoch"));
        assert_eq!((r.spans[0].count, r.spans[0].total_ns), (1, 1000));
    }

    #[test]
    fn span_alloc_deltas_sum_per_stage_and_render() {
        let with_alloc = |name: &str, dur: u64, alloc: u64| {
            format!(
                r#"{{"ts_ns":1,"kind":"span","name":"{name}","fields":{{"span":1,"parent":0,"thread":1,"dur_ns":{dur},"alloc_bytes":{alloc}}}}}"#
            )
        };
        let r = report_of(&write_trace(
            "alloc.jsonl",
            &[
                &with_alloc("train.epoch", 1000, 1 << 20),
                &with_alloc("train.epoch", 1200, 1 << 20),
                &span_line("graph.build", 10), // no alloc field: counts as 0
            ],
        ));
        let epoch = r.spans.iter().find(|s| s.name == "train.epoch").unwrap();
        assert_eq!(epoch.alloc_bytes, 2 << 20);
        let table = r.render();
        assert!(table.contains("alloc_mb"), "{table}");
        assert!(table.contains("2.00"), "{table}");

        // Without any alloc deltas the column stays hidden.
        let r2 = report_of(&write_trace("noalloc.jsonl", &[&span_line("a", 5)]));
        assert!(!r2.render().contains("alloc_mb"));
    }

    #[test]
    fn json_output_round_trips_through_serde_json() {
        let r = report_of(&write_trace(
            "json.jsonl",
            &[
                &span_line("train.epoch", 1000),
                r#"{"ts_ns":2,"kind":"counter","name":"graph.builds","fields":{"value":3}}"#,
                r#"{"ts_ns":2,"kind":"gauge","name":"train.loss","fields":{"value":0.25}}"#,
                "{broken",
            ],
        ));
        let json = r.to_json();
        let v = serde_json::parse_value(&json).expect("valid JSON");
        assert_eq!(v.field("total_events").and_then(|f| f.as_u64()), Some(3));
        assert_eq!(v.field("malformed_lines").and_then(|f| f.as_u64()), Some(1));
        let spans = v.field("spans").unwrap();
        let serde_json::Value::Array(spans) = spans else { panic!("spans not an array") };
        assert_eq!(spans[0].field("name").and_then(|f| f.as_str()), Some("train.epoch"));
        assert_eq!(spans[0].field("total_ns").and_then(|f| f.as_u64()), Some(1000));
    }

    #[test]
    fn require_flags_missing_stages() {
        let r = report_of(&write_trace("req.jsonl", &[&span_line("graph.build", 5)]));
        assert!(r.require(&["graph.build"]).is_ok());
        let err = r.require(&["graph.build", "train.epoch"]).unwrap_err();
        assert!(err.contains("train.epoch"), "{err}");
    }

    #[test]
    fn loads_spans_and_recovers_starts_and_args() {
        let path = sample_trace("load.jsonl");
        let t = load(&path).unwrap();
        assert_eq!(t.spans.len(), 4);
        assert_eq!((t.log_lines, t.events(), t.malformed_lines), (1, 5, 0));
        let fit = t.spans.iter().find(|r| r.name == "train.fit").unwrap();
        assert_eq!((fit.start_ns, fit.dur_ns, fit.trace_id), (0, 100, 42));
        assert_eq!(fit.args, vec![("epoch".to_string(), "7".to_string())]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_reports_epoch_roots_and_critical_path() {
        let path = sample_trace("analyze.jsonl");
        let report = analyze(load(&path).unwrap(), &AnalyzeOptions::default()).unwrap();
        // train.fit is a true root; train.epoch is a well-known root even
        // though it nests under fit.
        assert!(report.contains("root train.fit"), "{report}");
        assert!(report.contains("root train.epoch"), "{report}");
        assert!(report.contains("0 orphan(s)"), "{report}");
        assert!(report.contains("3 thread(s)"), "{report}");
        // The epoch's critical path must account for its full 90ns wall
        // (rendered in ms) without a mismatch marker.
        assert!(report.contains("sums to 0.000090 ms") || report.contains("sums to 0.000"));
        assert!(!report.contains("MISMATCH"), "{report}");
        assert!(report.contains("train.graph"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn require_roots_errors_on_missing_names() {
        let path = sample_trace("require.jsonl");
        let opts = AnalyzeOptions {
            require_roots: vec!["train.epoch".into(), "infer.batch".into()],
            ..Default::default()
        };
        let err = analyze(load(&path).unwrap(), &opts).unwrap_err();
        assert!(err.contains("infer.batch"), "{err}");
        assert!(err.contains("train.epoch"), "lists the roots it did see: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn roots_override_narrows_the_analysis() {
        let path = sample_trace("override.jsonl");
        let opts = AnalyzeOptions { roots: Some(vec!["train.epoch".into()]), ..Default::default() };
        let report = analyze(load(&path).unwrap(), &opts).unwrap();
        assert!(report.contains("root train.epoch"), "{report}");
        assert!(!report.contains("root train.fit"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn orphans_are_flagged() {
        let path =
            write_trace("orphan.jsonl", &[&causal_line("lost.worker", 9, 5, 999, 2, 50, 10)]);
        let report = analyze(load(&path).unwrap(), &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("1 orphan(s)"), "{report}");
        assert!(report.contains("lost.worker"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pre_causal_traces_fall_back_to_span_parent_fields() {
        let path = write_trace(
            "legacy.jsonl",
            &[
                r#"{"ts_ns":100,"kind":"span","name":"old.child","fields":{"span":2,"parent":1,"thread":1,"dur_ns":40}}"#,
                r#"{"ts_ns":120,"kind":"span","name":"old.root","fields":{"span":1,"parent":0,"thread":1,"dur_ns":100}}"#,
            ],
        );
        let t = load(&path).unwrap();
        assert_eq!(t.spans.len(), 2);
        let report = analyze(t, &AnalyzeOptions::default()).unwrap();
        assert!(report.contains("root old.root"), "{report}");
        assert!(report.contains("0 orphan(s)"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn perfetto_export_writes_loadable_json() {
        let path = sample_trace("perfetto.jsonl");
        let out = path.with_extension("perfetto.json");
        export_perfetto(&load(&path).unwrap(), &out).unwrap();
        let body = std::fs::read_to_string(&out).unwrap();
        let v = serde_json::parse_value(&body).expect("valid JSON");
        let events = v.field("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert!(events.len() >= 4, "{body}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    /// One traced tiny pipeline run (a dataset build, then a static-model
    /// fit on a few regions), read once for every test that needs a real
    /// trace. Other tests in this binary may trace concurrently into the
    /// same global sink, so counts taken from it are lower bounds.
    fn real_trace() -> &'static Trace {
        static TRACE: OnceLock<Trace> = OnceLock::new();
        TRACE.get_or_init(|| {
            use crate::models::static_gnn::{StaticModel, StaticParams};
            let path = test_dir().join("real.jsonl");
            let sink = irnuma_obs::JsonlSink::create(&path).unwrap();
            irnuma_obs::set_sink(std::sync::Arc::new(sink));
            let params = crate::dataset::DatasetParams {
                num_sequences: 2,
                calls: 2,
                num_labels: 3,
                ..Default::default()
            };
            let ds = crate::dataset::build_dataset(irnuma_sim::MicroArch::Skylake, &params);
            let sp =
                StaticParams { hidden: 8, epochs: 2, train_sequences: 2, ..Default::default() };
            StaticModel::train(&ds, &(0..8).collect::<Vec<_>>(), sp);
            irnuma_obs::flush_metrics();
            irnuma_obs::clear_sink();
            let trace = load(&path).unwrap();
            std::fs::remove_file(&path).ok();
            trace
        })
    }

    #[test]
    fn loads_a_real_obs_trace_end_to_end() {
        // The instrumented pipeline's own trace: the report sees its stages.
        let r = real_trace().clone().report();
        r.require(&["dataset.build", "dataset.region", "sim.sweep", "graph.build", "passes.run"])
            .unwrap();
        assert_eq!(r.malformed_lines, 0);
        let regions = r.spans.iter().find(|s| s.name == "dataset.region").unwrap();
        assert!(regions.count >= 56, "got {}", regions.count);
        // The dataset's config sweep is the traced `sim.sweep` primitive,
        // one per region.
        let sweeps = r.spans.iter().find(|s| s.name == "sim.sweep").unwrap();
        assert!(sweeps.count >= 56, "got {}", sweeps.count);
        // One graph build per distinct final module (at least one per
        // region); every other sequence reuses a built graph.
        let counter = |name: &str| {
            r.counters.iter().filter(|(n, _)| n == name).map(|&(_, v)| v).max().unwrap_or(0)
        };
        let builds = counter("graph.builds");
        assert!(builds >= 56, "graph.builds {builds}");
        assert!(builds + counter("graph.reused") >= 112, "builds + reuses");
    }

    /// The flat and the causal view of one real trace agree: per-name
    /// counts and totals, the root wall, and every analyzed root's critical
    /// path summing exactly to its wall.
    #[test]
    fn flat_report_agrees_with_the_span_forest() {
        let trace = real_trace();
        let report = trace.clone().report();
        let forest = SpanForest::build(trace.spans.clone());

        let mut fold: BTreeMap<&str, (usize, u64)> = BTreeMap::new();
        for s in &forest.spans {
            let (count, total) = fold.entry(&s.name).or_default();
            *count += 1;
            *total += s.dur_ns;
        }
        let flat: BTreeMap<&str, (usize, u64)> =
            report.spans.iter().map(|s| (s.name.as_str(), (s.count, s.total_ns))).collect();
        assert_eq!(flat, fold);
        let roots_wall: u64 = forest.roots.iter().map(|&i| forest.spans[i].dur_ns).sum();
        assert_eq!(report.root_wall_ns, roots_wall);

        let roots = analysis_roots(&forest, &AnalyzeOptions::default());
        for name in ["dataset.build", "train.epoch"] {
            assert!(roots.iter().any(|&i| forest.spans[i].name == name), "no {name} root");
        }
        for &i in &roots {
            let path: u64 = forest.critical_path(i).iter().map(|p| p.self_ns).sum();
            assert_eq!(path, forest.spans[i].dur_ns, "critical path of {}", forest.spans[i].name);
        }
    }

    /// A line of a damaged trace: arbitrary bytes, or a line the obs writer
    /// emits with one bit flipped, cut short, or left intact.
    fn damaged_line() -> impl Strategy<Value = Vec<u8>> {
        let byte = (0u16..256).prop_map(|b| b as u8);
        let written = vec![
            irnuma_obs::Event::now("span", "train.epoch")
                .field("trace_id", 3u64)
                .field("span_id", 7u64)
                .field("parent_id", 0u64)
                .field("thread", 1u64)
                .field("dur_ns", 1500u64)
                .field("epoch", 2u64)
                .to_json(),
            irnuma_obs::Event::now("counter", "graph.builds").field("value", 4u64).to_json(),
            irnuma_obs::Event::now("gauge", "train.loss").field("value", 0.5f64).to_json(),
            irnuma_obs::Event::now("log", "info").field("msg", "héllo").to_json(),
        ];
        let written = || prop::sample::select(written.clone());
        prop_oneof![
            prop::collection::vec(byte, 0..48),
            (written(), 0usize..4096, 0u8..8).prop_map(|(l, at, bit)| {
                let mut b = l.into_bytes();
                let i = at % b.len();
                b[i] ^= 1 << bit;
                b
            }),
            (written(), 0usize..4096).prop_map(|(l, at)| {
                let mut b = l.into_bytes();
                b.truncate(at % (b.len() + 1));
                b
            }),
            written().prop_map(String::into_bytes),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The reader never panics on a damaged trace, and counts each line
        /// once: as an event of its kind or as malformed.
        #[test]
        fn damaged_traces_count_every_line_once(
            lines in prop::collection::vec(damaged_line(), 0..12),
            trailing_newline in prop::sample::select(vec![false, true]),
        ) {
            let mut body = lines.join(&b'\n');
            if trailing_newline {
                body.push(b'\n');
            }
            let segments = body.split(|&b| b == b'\n').count();
            let expected = segments - usize::from(body.is_empty() || body.ends_with(b"\n"));
            let t = read(&body[..]).expect("an in-memory read cannot fail");
            prop_assert_eq!(t.events() + t.malformed_lines, expected);
        }
    }
}
