//! Aggregate an `IRNUMA_TRACE` JSONL file into a per-stage profile.
//!
//! The trace schema is one event per line with exactly four top-level keys
//! (`ts_ns`, `kind`, `name`, `fields` — see `irnuma-obs`). This module
//! groups `span` events by name and computes wall-time totals plus exact
//! p50/p90/p99 over the recorded durations (exact, unlike the log-bucket
//! approximation inside `irnuma-obs`, because the full sample set is on
//! disk). Metric flush events (`counter`/`gauge`/`hist`) are carried
//! through verbatim, and per-span `alloc_bytes` deltas (present when the
//! binary runs with allocation tracking) are summed per stage.
//!
//! Malformed lines — bad JSON, a missing required key, a mistyped value —
//! are skipped and counted in [`TraceReport::malformed_lines`] rather than
//! failing the whole report: a trace truncated by a crash or interleaved by
//! a concurrent writer should still aggregate, and the malformed count
//! itself is the signal that something was off. Backs the `irnuma report`
//! CLI subcommand.

use std::path::Path;

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

/// Everything extracted from one trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub total_events: usize,
    /// Lines that failed to parse as schema-conforming events (skipped).
    pub malformed_lines: usize,
    /// Per-name span statistics, sorted by total wall time, descending.
    pub spans: Vec<SpanStat>,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<HistStat>,
    pub log_lines: usize,
    /// Σ duration over root spans (`parent_id == 0`) — the wall-clock
    /// denominator for the `%wall` column. 0 when the trace has no roots
    /// (e.g. produced by a pre-causal binary emitting only nested spans).
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

/// Nearest-rank quantile over an ascending-sorted slice.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn get_u64(v: &serde_json::Value, key: &str) -> Option<u64> {
    v.field(key).and_then(|f| f.as_u64())
}

fn get_f64(v: &serde_json::Value, key: &str) -> Option<f64> {
    v.field(key).and_then(|f| f.as_f64())
}

struct SpanAccum {
    durations: Vec<u64>,
    alloc_bytes: u64,
}

/// Parse one line into the report. `Err(())` means the line is malformed
/// (the caller counts it); the error carries no detail because skipped
/// lines are a tally, not a diagnosis.
fn load_line(
    line: &str,
    report: &mut TraceReport,
    spans: &mut Vec<(String, SpanAccum)>,
) -> Result<(), ()> {
    let v = serde_json::parse_value(line).map_err(|_| ())?;
    let serde_json::Value::Object(_) = &v else {
        return Err(());
    };
    get_u64(&v, "ts_ns").ok_or(())?;
    let kind = v.field("kind").and_then(|f| f.as_str()).ok_or(())?.to_string();
    let name = v.field("name").and_then(|f| f.as_str()).ok_or(())?.to_string();
    let fields = v.field("fields").ok_or(())?;
    if !matches!(fields, serde_json::Value::Object(_)) {
        return Err(());
    }

    match kind.as_str() {
        "span" => {
            let dur = get_u64(fields, "dur_ns").ok_or(())?;
            let alloc = get_u64(fields, "alloc_bytes").unwrap_or(0);
            // Root spans (no parent) partition the run's wall-clock; their
            // summed duration is the `%wall` denominator.
            let parent = get_u64(fields, "parent_id").or_else(|| get_u64(fields, "parent"));
            if parent == Some(0) {
                report.root_wall_ns += dur;
            }
            match spans.iter_mut().find(|(n, _)| *n == name) {
                Some((_, acc)) => {
                    acc.durations.push(dur);
                    acc.alloc_bytes += alloc;
                }
                None => spans.push((name, SpanAccum { durations: vec![dur], alloc_bytes: alloc })),
            }
        }
        "counter" => {
            let value = get_u64(fields, "value").ok_or(())?;
            report.counters.push((name, value));
        }
        "gauge" => {
            let value = get_f64(fields, "value").ok_or(())?;
            report.gauges.push((name, value));
        }
        "hist" => {
            report.hists.push(HistStat {
                count: get_u64(fields, "count").ok_or(())?,
                mean: get_f64(fields, "mean").ok_or(())?,
                p50: get_f64(fields, "p50").ok_or(())?,
                p99: get_f64(fields, "p99").ok_or(())?,
                name,
            });
        }
        "log" => report.log_lines += 1,
        _ => return Err(()),
    }
    report.total_events += 1;
    Ok(())
}

/// Parse and aggregate a JSONL trace. Malformed or truncated lines are
/// skipped and tallied in [`TraceReport::malformed_lines`]; only an
/// unreadable file is an error.
pub fn load(path: &Path) -> Result<TraceReport, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut report = TraceReport::default();
    let mut spans: Vec<(String, SpanAccum)> = Vec::new();

    for line in body.lines() {
        if line.trim().is_empty() {
            report.malformed_lines += 1;
            continue;
        }
        if load_line(line, &mut report, &mut spans).is_err() {
            report.malformed_lines += 1;
        }
    }

    for (name, mut acc) in spans {
        acc.durations.sort_unstable();
        let ds = &acc.durations;
        report.spans.push(SpanStat {
            name,
            count: ds.len(),
            total_ns: ds.iter().sum(),
            p50_ns: quantile(ds, 0.50),
            p90_ns: quantile(ds, 0.90),
            p99_ns: quantile(ds, 0.99),
            max_ns: *ds.last().expect("non-empty duration group"),
            alloc_bytes: acc.alloc_bytes,
        });
    }
    report.sort_spans(SortKey::Total);
    report.counters.sort();
    report.gauges.sort_by(|a, b| a.0.cmp(&b.0));
    report.hists.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(report)
}

/// Minimal JSON string escaping for metric/span names (ASCII control
/// characters, quotes, backslashes).
fn json_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
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
        let ms = |ns: u64| ns as f64 / 1e6;
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
            json_str(&s.name, &mut out);
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
            json_str(name, &mut out);
            let _ = write!(out, ",\"value\":{v}}}");
        }
        out.push_str("],\"gauges\":[");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_str(name, &mut out);
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
            json_str(&h.name, &mut out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn write_trace(name: &str, lines: &[&str]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("irnuma-trace-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let mut f = std::fs::File::create(&path).unwrap();
        for l in lines {
            writeln!(f, "{l}").unwrap();
        }
        path
    }

    fn span_line(name: &str, dur: u64) -> String {
        format!(
            r#"{{"ts_ns":1,"kind":"span","name":"{name}","fields":{{"span":1,"parent":0,"thread":1,"dur_ns":{dur}}}}}"#
        )
    }

    #[test]
    fn aggregates_spans_with_exact_percentiles() {
        let lines: Vec<String> = (1..=100u64).map(|d| span_line("train.epoch", d * 1000)).collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let path = write_trace("percentiles.jsonl", &refs);
        let r = load(&path).unwrap();
        assert_eq!(r.total_events, 100);
        assert_eq!(r.malformed_lines, 0);
        let s = &r.spans[0];
        assert_eq!(
            (s.count, s.p50_ns, s.p90_ns, s.p99_ns, s.max_ns),
            (100, 50_000, 90_000, 99_000, 100_000)
        );
        assert_eq!(s.total_ns, 5050 * 1000);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn spans_sort_by_total_time() {
        let path = write_trace(
            "sorted.jsonl",
            &[
                &span_line("fast", 10),
                &span_line("slow", 5000),
                &span_line("fast", 20),
                r#"{"ts_ns":2,"kind":"counter","name":"graph.builds","fields":{"value":3}}"#,
            ],
        );
        let r = load(&path).unwrap();
        assert_eq!(r.spans[0].name, "slow");
        assert_eq!(r.spans[1].name, "fast");
        assert_eq!(r.counters, vec![("graph.builds".to_string(), 3)]);
        let table = r.render();
        assert!(table.contains("slow"));
        assert!(table.contains("graph.builds"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_counters_render_a_derived_rates_section() {
        let counter = |name: &str, v: u64| {
            format!(r#"{{"ts_ns":3,"kind":"counter","name":"{name}","fields":{{"value":{v}}}}}"#)
        };
        let path = write_trace(
            "dispatch.jsonl",
            &[
                &counter("dispatch.matmul_spec", 70),
                // Two flushes of a cumulative counter: the larger value is
                // the lifetime total, not the sum.
                &counter("dispatch.spmm_csr", 3),
                &counter("dispatch.spmm_csr", 6),
                &counter("dispatch.spmm_edge", 2),
            ],
        );
        let r = load(&path).unwrap();
        let table = r.render();
        assert!(table.contains("kernel dispatch:"), "{table}");
        assert!(table.contains(" 75.0%  (csr 6, edge-major 2)"), "{table}");
        std::fs::remove_file(&path).ok();

        // A trace without SpMM counters renders no dispatch section.
        let path = write_trace(
            "nodispatch.jsonl",
            &[&span_line("a", 5), &counter("dispatch.matmul_spec", 70)],
        );
        let r = load(&path).unwrap();
        assert!(!r.render().contains("kernel dispatch"), "{}", r.render());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sort_keys_reorder_the_table() {
        let path = write_trace(
            "sortkeys.jsonl",
            &[
                &span_line("many_fast", 10),
                &span_line("many_fast", 10),
                &span_line("many_fast", 10),
                &span_line("one_slow", 2_000),
                &span_line("mid", 500),
                &span_line("mid", 600),
            ],
        );
        let mut r = load(&path).unwrap();
        assert_eq!(r.spans[0].name, "one_slow", "default sort is by total");
        r.sort_spans(SortKey::Count);
        assert_eq!(r.spans[0].name, "many_fast");
        r.sort_spans(SortKey::P99);
        assert_eq!(r.spans[0].name, "one_slow");
        assert_eq!(SortKey::parse("count"), Some(SortKey::Count));
        assert_eq!(SortKey::parse("nope"), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn root_spans_drive_the_wall_percentage_column() {
        let nested = |name: &str, parent: u64, dur: u64| {
            format!(
                r#"{{"ts_ns":1,"kind":"span","name":"{name}","fields":{{"span":9,"parent":{parent},"parent_id":{parent},"thread":1,"dur_ns":{dur}}}}}"#
            )
        };
        let path = write_trace(
            "wall.jsonl",
            &[
                &nested("train.fit", 0, 10_000_000), // root: the denominator
                &nested("train.epoch", 9, 8_000_000),
                &nested("train.epoch", 9, 1_000_000),
            ],
        );
        let r = load(&path).unwrap();
        assert_eq!(r.root_wall_ns, 10_000_000);
        let table = r.render();
        assert!(table.contains("%wall"), "{table}");
        assert!(table.contains("100.0%"), "{table}");
        assert!(table.contains("90.0%"), "{table}");
        assert!(r.to_json().contains("\"root_wall_ns\":10000000"));
        std::fs::remove_file(&path).ok();

        // A trace with no root spans hides the column.
        let path2 = write_trace("nowall.jsonl", &[&nested("x", 5, 100)]);
        let r2 = load(&path2).unwrap();
        assert_eq!(r2.root_wall_ns, 0);
        assert!(!r2.render().contains("%wall"));
        std::fs::remove_file(&path2).ok();
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
                r#"{"ts_ns":1,"kind":"wat","name":"x","fields":{}}"#,          // unknown kind
                "",                                                            // blank line
                &span_line("a", 3),
            ],
        );
        let r = load(&path).unwrap();
        assert_eq!(r.malformed_lines, 5);
        assert_eq!(r.total_events, 2);
        assert_eq!(r.spans[0].count, 2, "good lines around the bad ones still aggregate");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_final_line_still_reports_the_rest() {
        // Simulate a crash mid-write: the last line stops in the middle of
        // a JSON object.
        let full = span_line("train.epoch", 1000);
        let cut = &full[..full.len() / 2];
        let path = write_trace("truncated.jsonl", &[&full, &full, cut]);
        let r = load(&path).unwrap();
        assert_eq!(r.total_events, 2);
        assert_eq!(r.malformed_lines, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn span_alloc_deltas_sum_per_stage_and_render() {
        let with_alloc = |name: &str, dur: u64, alloc: u64| {
            format!(
                r#"{{"ts_ns":1,"kind":"span","name":"{name}","fields":{{"span":1,"parent":0,"thread":1,"dur_ns":{dur},"alloc_bytes":{alloc}}}}}"#
            )
        };
        let path = write_trace(
            "alloc.jsonl",
            &[
                &with_alloc("train.epoch", 1000, 1 << 20),
                &with_alloc("train.epoch", 1200, 1 << 20),
                &span_line("graph.build", 10), // no alloc field: counts as 0
            ],
        );
        let r = load(&path).unwrap();
        let epoch = r.spans.iter().find(|s| s.name == "train.epoch").unwrap();
        assert_eq!(epoch.alloc_bytes, 2 << 20);
        let table = r.render();
        assert!(table.contains("alloc_mb"), "{table}");
        assert!(table.contains("2.00"), "{table}");

        // Without any alloc deltas the column stays hidden.
        let path2 = write_trace("noalloc.jsonl", &[&span_line("a", 5)]);
        let r2 = load(&path2).unwrap();
        assert!(!r2.render().contains("alloc_mb"));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn json_output_round_trips_through_serde_json() {
        let path = write_trace(
            "json.jsonl",
            &[
                &span_line("train.epoch", 1000),
                r#"{"ts_ns":2,"kind":"counter","name":"graph.builds","fields":{"value":3}}"#,
                r#"{"ts_ns":2,"kind":"gauge","name":"train.loss","fields":{"value":0.25}}"#,
                "{broken",
            ],
        );
        let r = load(&path).unwrap();
        let json = r.to_json();
        let v = serde_json::parse_value(&json).expect("valid JSON");
        assert_eq!(v.field("total_events").and_then(|f| f.as_u64()), Some(3));
        assert_eq!(v.field("malformed_lines").and_then(|f| f.as_u64()), Some(1));
        let spans = v.field("spans").unwrap();
        let serde_json::Value::Array(spans) = spans else { panic!("spans not an array") };
        assert_eq!(spans[0].field("name").and_then(|f| f.as_str()), Some("train.epoch"));
        assert_eq!(spans[0].field("total_ns").and_then(|f| f.as_u64()), Some(1000));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn require_flags_missing_stages() {
        let path = write_trace("req.jsonl", &[&span_line("graph.build", 5)]);
        let r = load(&path).unwrap();
        assert!(r.require(&["graph.build"]).is_ok());
        let err = r.require(&["graph.build", "train.epoch"]).unwrap_err();
        assert!(err.contains("train.epoch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loads_a_real_obs_trace_end_to_end() {
        // Drive the actual pipeline (tiny) with a JsonlSink installed and
        // verify the report sees the instrumented stages.
        let dir = std::env::temp_dir().join("irnuma-trace-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.jsonl");
        irnuma_obs::set_sink(std::sync::Arc::new(irnuma_obs::JsonlSink::create(&path).unwrap()));
        let params = crate::dataset::DatasetParams {
            num_sequences: 2,
            calls: 2,
            num_labels: 3,
            ..Default::default()
        };
        let _ds = crate::dataset::build_dataset(irnuma_sim::MicroArch::Skylake, &params);
        irnuma_obs::flush_metrics();
        irnuma_obs::clear_sink();

        let r = load(&path).unwrap();
        r.require(&["dataset.build", "dataset.region", "sim.sweep", "graph.build", "passes.run"])
            .unwrap();
        assert_eq!(r.malformed_lines, 0);
        // Other tests in this binary may trace concurrently into the same
        // global sink, so counts are lower bounds.
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
        std::fs::remove_file(&path).ok();
    }
}
