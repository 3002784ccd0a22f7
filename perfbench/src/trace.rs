//! The traced pass: an in-memory span sink around a closure, and the
//! per-layer numbers read back from the spans and counters the crates
//! already emit.

use crate::stats::quantile;
use crate::Outcome;
use irnuma_obs::{Event, HistogramSnapshot, MetricSnapshot, Sink, SpanForest, SpanRecord};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

/// Keeps span events as compact [`SpanRecord`]s (fields dropped), so a
/// full pipeline trace stays small.
#[derive(Default)]
struct SpanSink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl Sink for SpanSink {
    fn emit(&self, event: &Event) {
        if let Some(mut rec) = SpanRecord::from_event(event) {
            rec.args = Vec::new();
            self.spans.lock().unwrap().push(rec);
        }
    }
}

/// Spans and metric values captured over one traced pass.
pub struct Trace {
    pub forest: SpanForest,
    metrics: BTreeMap<String, MetricSnapshot>,
}

/// Run `f` with the registry zeroed and an in-memory sink installed.
pub fn traced<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    irnuma_obs::registry().reset();
    let sink = Arc::new(SpanSink::default());
    irnuma_obs::set_sink(sink.clone());
    let out = f();
    irnuma_obs::clear_sink();
    let spans = std::mem::take(&mut *sink.spans.lock().unwrap());
    let metrics = irnuma_obs::registry().snapshot().into_iter().collect();
    (out, Trace { forest: SpanForest::build(spans), metrics })
}

impl Trace {
    /// Σ self time (s) and count of the spans called `name`.
    pub fn self_s(&self, name: &str) -> (f64, u64) {
        let mut ns = 0u64;
        let mut n = 0u64;
        for (i, s) in self.forest.spans.iter().enumerate() {
            if s.name == name {
                ns += self.forest.self_ns(i);
                n += 1;
            }
        }
        (ns as f64 * 1e-9, n)
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.forest
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-6)
            .collect()
    }

    /// Share of the exact-sum critical path through the first span called
    /// `root` that each predicate's spans hold (0 without such a span).
    pub fn critical_shares(&self, root: &str, groups: &[&dyn Fn(&str) -> bool]) -> Vec<f64> {
        let Some(i) = self.forest.spans.iter().position(|s| s.name == root) else {
            return vec![0.0; groups.len()];
        };
        let path = self.forest.critical_path(i);
        let total = self.forest.spans[i].dur_ns.max(1) as f64;
        groups
            .iter()
            .map(|g| {
                let ns: u64 = path
                    .iter()
                    .filter(|seg| g(&self.forest.spans[seg.index].name))
                    .map(|seg| seg.self_ns)
                    .sum();
                ns as f64 / total
            })
            .collect()
    }

    /// Distinct thread ids that emitted a span.
    pub fn threads(&self) -> u64 {
        self.forest.spans.iter().map(|s| s.thread).collect::<HashSet<_>>().len() as u64
    }

    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricSnapshot::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(MetricSnapshot::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// `hits / (hits + misses)` of two counters, and the attempt count.
    pub fn ratio(&self, hits: &str, misses: &str) -> (f64, u64) {
        let (h, m) = (self.counter(hits), self.counter(misses));
        let n = h + m;
        (if n == 0 { 0.0 } else { h as f64 / n as f64 }, n)
    }
}

/// Layer numbers read from the crates' own spans and counters, shared by
/// every workload's traced pass.
pub fn common_layers(out: &mut Outcome, tr: &Trace) {
    let (ga_s, ga_n) = tr.self_s("ml.ga_eval");
    out.set("ml.ga_eval_s", ga_s, ga_n);
    let evals = tr.counter("ml.ga_fitness_evals");
    out.set("ml.ga_fitness_evals", evals as f64, evals);
    let (cached, n) = tr.ratio("ml.ga_fitness_cached", "ml.ga_fitness_evals");
    out.set("ml.ga_cache_hit_ratio", cached, n);
    let (gg, ggn) = tr.self_s("train.graph_grads");
    let (bg, bgn) = tr.self_s("train.batch_grads");
    out.set("nn.train_grads_s", gg + bg, ggn + bgn);
    let fused = tr.counter("train.fused_graphs");
    out.set("nn.graphs_trained", fused as f64, fused);
    let (miss, n) = tr.ratio("train.scratch_misses", "train.scratch_hits");
    out.set("nn.scratch_miss_ratio", miss, n);
    let csc = tr.counter("train.csc_build");
    out.set("nn.csc_builds", csc as f64, csc);
    let (ib, ibn) = tr.self_s("infer.batch");
    let (ig, ign) = tr.self_s("infer.graph");
    out.set("nn.infer_s", ib + ig, ibn + ign);
    let (pr, prn) = tr.self_s("passes.run");
    out.set("passes.run_s", pr, prn);
    out.set("passes.runs", prn as f64, prn);
    let (gb, gbn) = tr.self_s("graph.build");
    out.set("graph.build_s", gb, gbn);
    let nodes = tr.counter("graph.nodes");
    out.set("graph.nodes", nodes as f64, gbn);
    let (ie, ien) = tr.self_s("ir.extract");
    out.set("ir.extract_s", ie, ien);
    let (sw, swn) = tr.self_s("dataset.region");
    out.set("sim.sweep_s", sw, swn);
    let calls = tr.counter("sim.calls");
    out.set("sim.calls", calls as f64, calls);
    let region_ms = tr.durations_ms("dataset.region");
    out.set(
        "dataset.region_max_ms",
        region_ms.iter().copied().fold(0.0, f64::max),
        region_ms.len() as u64,
    );
    let wb = tr.counter("store.write_bytes");
    out.set("store.write_bytes", wb as f64, wb);
    let fsync = tr.histogram("store.fsync_ns");
    out.set(
        "store.fsync_s",
        fsync.map_or(0.0, |h| h.sum as f64 * 1e-9),
        fsync.map_or(0, |h| h.count),
    );
    let decode = tr.counter("dataset.decode_ns");
    out.set("store.decode_s", decode as f64 * 1e-9, tr.counter("dataset.shards_read"));
    let queue = tr.histogram("serve.queue_ns");
    out.set(
        "serve.queue_ms_p99",
        queue.map_or(0.0, |h| h.p99() * 1e-6),
        queue.map_or(0, |h| h.count),
    );
    let batch = tr.histogram("serve.batch_size");
    out.set("serve.batch_size_mean", batch.map_or(0.0, |h| h.mean()), batch.map_or(0, |h| h.count));
    let rejected = tr.counter("serve.rejected");
    out.set("serve.rejected", rejected as f64, tr.counter("serve.requests"));
    let req_ms = tr.durations_ms("serve.request");
    out.set("serve.server_p99_ms", quantile(&req_ms, 0.99), req_ms.len() as u64);
    let (hit, n) = tr.ratio("dispatch.plan_hits", "dispatch.plan_misses");
    out.set("dispatch.plan_hit_ratio", hit, n);
    let threads = tr.threads();
    out.set("runtime.threads", threads as f64, tr.forest.spans.len() as u64);
}
