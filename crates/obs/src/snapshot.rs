//! Point-in-time telemetry snapshots.
//!
//! [`TelemetrySnapshot::capture`] freezes every registered counter, gauge,
//! and histogram plus the per-span-name latency aggregates into one value,
//! serializable two ways:
//!
//! * [`TelemetrySnapshot::to_json`] — the wire format served on `/json` by
//!   the export endpoint and consumed by `irnuma top`;
//! * [`TelemetrySnapshot::to_prometheus`] — Prometheus text exposition
//!   (version 0.0.4) served on `/metrics`, with histograms and span
//!   latencies rendered as summaries with p50/p90/p99 quantiles.
//!
//! Capture is lock-sharded reads of relaxed atomics: writers are never
//! blocked for longer than one shard lookup, and each metric's value is a
//! single consistent load (histograms snapshot bucket-by-bucket, so a
//! histogram under concurrent writes may be mid-record; counts are
//! monotonic and never invented).

use crate::metrics::HistogramSnapshot;
use crate::registry::MetricSnapshot;
use crate::value::write_json_string;
use std::fmt::Write as _;

/// Everything the registry held at one instant.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Nanoseconds since the UNIX epoch at capture time.
    pub ts_ns: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub hists: Vec<(String, HistogramSnapshot)>,
    /// Per-span-name latency histograms (nanoseconds), fed by span drops
    /// while live stats aggregation is on.
    pub spans: Vec<(String, HistogramSnapshot)>,
}

impl TelemetrySnapshot {
    /// Capture the current state of the global registry (refreshing the
    /// `mem.*` gauges first when allocation tracking is live).
    pub fn capture() -> TelemetrySnapshot {
        crate::alloc::refresh_mem_gauges();
        let mut snap = TelemetrySnapshot { ts_ns: crate::epoch_ns(), ..Default::default() };
        for (name, m) in crate::registry().snapshot() {
            match m {
                MetricSnapshot::Counter(v) => snap.counters.push((name, v)),
                MetricSnapshot::Gauge(v) => snap.gauges.push((name, v)),
                MetricSnapshot::Histogram(h) => snap.hists.push((name, *h)),
            }
        }
        snap.spans = crate::registry().snapshot_spans();
        snap
    }

    /// Serialize as one JSON object (the `/json` wire format).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(out, "{{\"ts_ns\":{},\"counters\":{{", self.ts_ns);
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, &mut out);
            if v.is_finite() {
                let _ = write!(out, ":{v}");
            } else {
                out.push_str(":null");
            }
        }
        out.push_str("},\"hists\":{");
        Self::write_hist_group(&self.hists, &mut out);
        out.push_str("},\"spans\":{");
        Self::write_hist_group(&self.spans, &mut out);
        out.push_str("}}");
        out
    }

    fn write_hist_group(group: &[(String, HistogramSnapshot)], out: &mut String) {
        for (i, (name, h)) in group.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(name, out);
            let min = if h.count == 0 { 0 } else { h.min };
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.3},\
                 \"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1}}}",
                h.count,
                h.sum,
                min,
                h.max,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
    }

    /// Serialize as Prometheus text exposition (the `/metrics` format):
    /// counters and gauges as-is, histograms and span latencies as summaries
    /// with `quantile` labels plus `_sum`/`_count` series. Metric names are
    /// prefixed `irnuma_` and sanitized (`.` → `_`); every family carries
    /// `# HELP` (from the central `metric_help` table) and `# TYPE`
    /// lines so the output passes promtool-style linting.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(512);
        for (name, v) in &self.counters {
            let n = prom_name("irnuma_", name);
            let _ = writeln!(out, "# HELP {n} {}", metric_help(name));
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name("irnuma_", name);
            let _ = writeln!(out, "# HELP {n} {}", metric_help(name));
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (group, prefix, is_span) in
            [(&self.hists, "irnuma_", false), (&self.spans, "irnuma_span_", true)]
        {
            for (name, h) in group.iter() {
                let n = prom_name(prefix, name);
                if is_span {
                    let _ = writeln!(out, "# HELP {n} Wall-clock latency of span `{name}` (ns).");
                } else {
                    let _ = writeln!(out, "# HELP {n} {}", metric_help(name));
                }
                let _ = writeln!(out, "# TYPE {n} summary");
                for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                    let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {v}");
                }
                let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
            }
        }
        out
    }
}

/// Central metric-description table for `# HELP` lines: exact names first,
/// then subsystem prefixes, then a generic fallback — so every exported
/// family has a description without each call site registering one.
pub fn metric_help(name: &str) -> &'static str {
    match name {
        "train.batches" => "Optimizer steps taken (one per minibatch).",
        "train.fused_graphs" => "Graphs pushed through the fused forward+backward engine.",
        "train.loss" => "Mean training loss of the most recent epoch.",
        "infer.graphs" => "Graphs classified through the batched inference engine.",
        "infer.batch_ns" => "Latency of one batched inference call (ns).",
        "dataset.skipped" => "Regions dropped from a dataset build after a failure.",
        "dataset.shards_read" => "Dataset shards read by the streaming loader.",
        "dataset.decode_ns" => "Time spent decoding dataset shards into graphs (ns).",
        "loader.prefetch_stall_ns" => "Time the trainer blocked waiting on shard prefetch (ns).",
        "graph.builds" => "ProGraML-style region graphs constructed.",
        "graph.reused" => "Dataset graphs cloned from an equal final module's graph.",
        "passes.applied" => "Pass applications run by the dataset build's pass memo.",
        "passes.reused" => "Pass applications answered from the pass memo's transitions.",
        "store.write_bytes" => "Bytes durably written through the artifact store.",
        "store.fsync_ns" => "Latency of artifact-store fsync calls (ns).",
        "store.corruption_detected" => "Artifact reads rejected by checksum verification.",
        "export.requests" => "Requests served by the telemetry export endpoint.",
        "ml.ga_fitness_evals" => "GA fitness evaluations actually computed.",
        "ml.ga_fitness_cached" => "GA fitness evaluations resolved from the memo cache.",
        _ => match name.split_once('.').map(|(fam, _)| fam) {
            Some("train") => "Training-engine metric.",
            Some("infer") => "Inference-engine metric.",
            Some("dataset") => "Dataset-construction metric.",
            Some("loader") => "Streaming-loader metric.",
            Some("graph") => "Graph-construction metric.",
            Some("pass" | "passes") => "Middle-end pass metric.",
            Some("sim") => "Simulator metric.",
            Some("store") => "Artifact-store metric.",
            Some("mem") => "Allocation-tracking gauge (bytes).",
            Some("dispatch") => "Kernel-dispatch counter (see `irnuma report`).",
            Some("ml") => "Feature-selection / GA metric.",
            Some("export") => "Telemetry-export metric.",
            _ => "irnuma metric (no registered description).",
        },
    }
}

/// `prefix` + `name` with every non-`[a-zA-Z0-9_]` byte replaced by `_`.
fn prom_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len());
    out.push_str(prefix);
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_sees_registered_metrics() {
        crate::registry().counter("snap.test.counter").inc(5);
        crate::registry().gauge("snap.test.gauge").set(1.25);
        crate::registry().histogram("snap.test.hist").record(1000);
        let snap = TelemetrySnapshot::capture();
        assert!(snap.ts_ns > 0);
        assert!(snap.counters.iter().any(|(n, v)| n == "snap.test.counter" && *v >= 5));
        assert!(snap.gauges.iter().any(|(n, v)| n == "snap.test.gauge" && *v == 1.25));
        assert!(snap.hists.iter().any(|(n, h)| n == "snap.test.hist" && h.count >= 1));
    }

    #[test]
    fn json_is_well_formed_and_carries_quantiles() {
        crate::registry().counter("snap.json.counter").inc(2);
        crate::registry().histogram("snap.json.hist").record(500);
        let json = TelemetrySnapshot::capture().to_json();
        assert!(json.starts_with("{\"ts_ns\":"), "{json}");
        assert!(json.contains("\"snap.json.counter\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        // Balanced braces — a cheap structural sanity check on the
        // hand-rolled writer.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn prometheus_exposition_has_types_and_summaries() {
        crate::registry().counter("snap.prom.requests").inc(7);
        crate::registry().histogram("snap.prom.latency_ns").record(123456);
        let text = TelemetrySnapshot::capture().to_prometheus();
        assert!(text.contains("# TYPE irnuma_snap_prom_requests counter"), "{text}");
        assert!(text.contains("irnuma_snap_prom_requests 7"), "{text}");
        assert!(text.contains("# TYPE irnuma_snap_prom_latency_ns summary"), "{text}");
        assert!(text.contains("irnuma_snap_prom_latency_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("irnuma_snap_prom_latency_ns_count 1"), "{text}");
    }

    #[test]
    fn span_aggregates_appear_when_stats_are_on() {
        crate::set_stats_enabled(true);
        {
            let _s = crate::span!("snap.span.stage");
        }
        crate::set_stats_enabled(false);
        let snap = TelemetrySnapshot::capture();
        let (_, h) = snap
            .spans
            .iter()
            .find(|(n, _)| n == "snap.span.stage")
            .expect("span aggregate recorded");
        assert!(h.count >= 1);
        assert!(snap.to_prometheus().contains("irnuma_span_snap_span_stage"));
    }
}
