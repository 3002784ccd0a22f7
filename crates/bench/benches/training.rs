//! The RGCN training hot path: minibatch gradients over 8 region graphs
//! through the fused engine, and full fused epochs through
//! `GnnClassifier::fit`, at the common small width (hidden = 64) and the
//! paper width (hidden = 256), plus a paired-run measurement of the
//! live-tracing overhead on those epochs. Results land in
//! `BENCH_training.json` at the repo root: absolute medians per width
//! (`fused_grads_8_graphs_h{64,256}`, `fused_epoch_8_graphs_h{64,256}`) and
//! `tracing_overhead_ratio`.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to time only h64, with fewer
//! samples, so the whole benchmark runs in seconds. Every id names its
//! width, so a quick run's h64 medians and a full run's h256 medians never
//! share a gate. Regression gating lives in `irnuma bench-check` (rules in
//! `results/bench_baselines.json`); the bench itself always exits zero so a
//! noisy run can't mask the numbers.

use criterion::{black_box, Criterion};
use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::{FusedEngine, GnnClassifier, GnnConfig, GnnModel, GraphData, TrainParams};
use irnuma_workloads::all_regions;

fn region_graphs(vocab: &Vocab, count: usize) -> Vec<GraphData> {
    all_regions()
        .iter()
        .take(count)
        .map(|spec| {
            let m = spec.module();
            let e = extract_region(&m, &spec.region_fn()).unwrap();
            GraphData::from_graph(&build_module_graph(&e, vocab))
        })
        .collect()
}

/// One full training epoch (shuffle, minibatch gradients, Adam steps)
/// through `fit`, on a fresh clone of the untrained classifier so every
/// iteration optimizes from the same starting weights.
fn one_epoch(clf: &GnnClassifier, graphs: &[GraphData], labels: &[usize], p: TrainParams) -> f64 {
    let mut clf = clf.clone();
    clf.fit(graphs.to_vec(), labels.to_vec(), p)[0]
}

/// Every chunk's mean gradient through the fused engine.
fn fused_grads(
    engine: &mut FusedEngine,
    m: &GnnModel,
    graphs: &[GraphData],
    labels: &[usize],
    chunks: &[Vec<usize>],
) -> f64 {
    let mut loss = 0.0;
    for chunk in chunks {
        let (l, gb) = engine.batch_grads(m, graphs, labels, chunk);
        loss += l;
        black_box(gb);
    }
    loss
}

fn main() {
    let quick = std::env::var("IRNUMA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (widths, samples): (&[usize], usize) = if quick { (&[64], 20) } else { (&[64, 256], 40) };

    let vocab = Vocab::full();
    let graphs = region_graphs(&vocab, 8);
    let labels: Vec<usize> = (0..graphs.len()).map(|i| i % 13).collect();
    let classifier = |hidden: usize| {
        GnnClassifier::new(GnnConfig {
            vocab_size: vocab.len(),
            hidden,
            classes: 13,
            layers: 2,
            layer_norm: true,
            seed: 1,
        })
    };
    let p = TrainParams { epochs: 1, batch_size: 4, lr: 3e-3, seed: 17 };
    let order: Vec<usize> = (0..graphs.len()).collect();
    let chunks: Vec<Vec<usize>> = order.chunks(p.batch_size).map(<[usize]>::to_vec).collect();

    let mut c = Criterion::default().configure_from_args();
    {
        let mut grp = c.benchmark_group("training");
        grp.sample_size(samples);
        for &hidden in widths {
            let clf = classifier(hidden);
            let mut engine = FusedEngine::new();
            grp.bench_function(format!("fused_grads_8_graphs_h{hidden}"), |b| {
                b.iter(|| {
                    fused_grads(&mut engine, &clf.model, black_box(&graphs), &labels, &chunks)
                })
            });
            grp.bench_function(format!("fused_epoch_8_graphs_h{hidden}"), |b| {
                b.iter(|| one_epoch(&clf, black_box(&graphs), &labels, p))
            });
        }
        grp.finish();
    }

    // Tracing overhead, at the widest width this mode runs: the identical
    // fused epoch with a live JSONL sink must stay under the gate. With a
    // sink installed, causal tracing is fully on: epoch/batch root spans
    // PLUS the per-worker fan-out spans (`train.graph_grads` inheriting the
    // epoch's trace context across the rayon boundary), so this ratio
    // prices the whole propagation machinery, not just the top-level spans. Measured as alternating untraced/traced
    // pairs — the median of the per-pair ratios — because back-to-back
    // criterion medians drift by more than the effect being measured on a
    // busy host.
    let trace_path = std::env::temp_dir().join("irnuma-bench-training-trace.jsonl");
    let sink = std::sync::Arc::new(irnuma_obs::JsonlSink::create(&trace_path).expect("trace file"));
    let clf = classifier(*widths.last().expect("at least one width"));
    // A quick (h64) pair takes ~6 ms on the build host and a full (h256)
    // pair ~110 ms. Short pairs are noisy, so the median needs many of them
    // to stay well inside the budget from run to run.
    let pairs = if quick { 61 } else { 31 };
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..=pairs {
        let t0 = std::time::Instant::now();
        black_box(one_epoch(&clf, black_box(&graphs), &labels, p));
        let plain = t0.elapsed().as_secs_f64();
        irnuma_obs::set_sink(sink.clone());
        let t1 = std::time::Instant::now();
        black_box(one_epoch(&clf, black_box(&graphs), &labels, p));
        let traced = t1.elapsed().as_secs_f64();
        irnuma_obs::clear_sink();
        if i > 0 {
            // First pair is warmup (sink setup, cold branches).
            ratios.push(traced / plain);
        }
    }
    std::fs::remove_file(&trace_path).ok();
    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_ratio = ratios[ratios.len() / 2];

    let mut entries = c.medians().to_vec();
    entries.push(("training/tracing_overhead_ratio".into(), overhead_ratio));
    let path = irnuma_bench::write_bench_json("training", &entries).expect("write bench json");
    println!("wrote {} — gate with `irnuma bench-check`", path.display());
    // Budget mirrors the training/tracing_overhead_ratio gate in
    // results/bench_baselines.json (<= 1.10): training epochs are short in
    // quick mode, so the per-worker fan-out spans weigh more than on the
    // long-latency inference path (whose gate stays at 1.02).
    let overhead_pct = (overhead_ratio - 1.0) * 100.0;
    println!("tracing overhead on fused training: {overhead_pct:+.2}% (budget <10%)");
    if overhead_pct >= 10.0 {
        eprintln!("warning: tracing overhead {overhead_pct:.2}% exceeds the 10% budget");
    }
}
