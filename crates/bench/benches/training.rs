//! The RGCN training hot path at paper width (hidden = 256): minibatch
//! gradients over 8 region graphs through the autograd tape (the
//! verification oracle) vs the tape-free fused engine, full fused epochs
//! through `GnnClassifier::fit`, plus paired-run measurements of the
//! live-tracing overhead and the kernel-dispatch payoff on those epochs.
//! Results land in `BENCH_training.json` at the repo root, including the
//! headline `speedup_fused_vs_tape` (gradients only: the tape is not a
//! training path, so it has no epoch to time),
//! `speedup_specialized_vs_generic` and `tracing_overhead_ratio` entries.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to shrink the model (h64) and
//! sample counts so the whole benchmark runs in seconds. Regression gating
//! lives in `irnuma bench-check` (rules in `results/bench_baselines.json`);
//! the bench itself always exits zero so a noisy run can't mask the
//! numbers.

use criterion::{black_box, Criterion};
use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::{
    set_dispatch, FusedEngine, GnnClassifier, GnnConfig, GnnModel, GraphData, Tensor, TrainParams,
};
use irnuma_workloads::all_regions;
use rayon::prelude::*;

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

/// Every chunk's mean gradient through the tape: per-graph
/// `loss_and_grads` in parallel, summed in chunk order.
fn tape_grads(m: &GnnModel, graphs: &[GraphData], labels: &[usize], chunks: &[Vec<usize>]) -> f64 {
    let mut loss = 0.0;
    for chunk in chunks {
        let results: Vec<(f64, Vec<Tensor>)> =
            chunk.par_iter().map(|&i| m.loss_and_grads(&graphs[i], labels[i])).collect();
        let mut total: Vec<Tensor> =
            m.params.iter().map(|q| Tensor::zeros(q.rows, q.cols)).collect();
        let inv = 1.0 / chunk.len() as f32;
        for (l, grads) in results {
            loss += l;
            for (acc, g) in total.iter_mut().zip(&grads) {
                acc.axpy(inv, g);
            }
        }
        black_box(&total);
    }
    loss
}

/// The same chunks' mean gradients through the fused engine.
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
    let (hidden, samples) = if quick { (64, 2) } else { (256, 40) };

    let vocab = Vocab::full();
    let graphs = region_graphs(&vocab, 8);
    let labels: Vec<usize> = (0..graphs.len()).map(|i| i % 13).collect();
    let clf = GnnClassifier::new(GnnConfig {
        vocab_size: vocab.len(),
        hidden,
        classes: 13,
        layers: 2,
        layer_norm: true,
        seed: 1,
    });
    let p = TrainParams { epochs: 1, batch_size: 4, lr: 3e-3, seed: 17 };
    let order: Vec<usize> = (0..graphs.len()).collect();
    let chunks: Vec<Vec<usize>> = order.chunks(p.batch_size).map(<[usize]>::to_vec).collect();

    let mut c = Criterion::default().configure_from_args();
    {
        let mut grp = c.benchmark_group("training");
        grp.sample_size(samples);
        grp.bench_function("tape_grads_8_graphs", |b| {
            b.iter(|| tape_grads(&clf.model, black_box(&graphs), &labels, &chunks))
        });
        let mut engine = FusedEngine::new();
        grp.bench_function("fused_grads_8_graphs", |b| {
            b.iter(|| fused_grads(&mut engine, &clf.model, black_box(&graphs), &labels, &chunks))
        });
        grp.bench_function("fused_epoch_8_graphs", |b| {
            b.iter(|| one_epoch(&clf, black_box(&graphs), &labels, p))
        });
        grp.finish();
    }

    // Tracing overhead: the identical fused epoch with a live JSONL sink
    // must stay under the gate. With a sink installed, causal tracing is
    // fully on: epoch/batch root spans PLUS the per-worker fan-out spans
    // (`train.graph_grads` inheriting the epoch's trace context across the
    // rayon boundary), so this ratio prices the whole propagation machinery,
    // not just the top-level spans. Measured as alternating untraced/traced
    // pairs — the median of the per-pair ratios — because back-to-back
    // criterion medians drift by more than the effect being measured on a
    // busy host.
    let trace_path = std::env::temp_dir().join("irnuma-bench-training-trace.jsonl");
    let sink = std::sync::Arc::new(irnuma_obs::JsonlSink::create(&trace_path).expect("trace file"));
    let pairs = if quick { 3 } else { 15 };
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

    // Kernel-dispatch payoff on training: the identical fused epoch with
    // shape specialization + weight prepacking on vs force-disabled, again
    // as alternating pairs (median of per-pair generic/specialized ratios)
    // so host drift cancels out.
    let mut spec_ratios = Vec::with_capacity(pairs);
    for i in 0..=pairs {
        set_dispatch(true);
        let t0 = std::time::Instant::now();
        black_box(one_epoch(&clf, black_box(&graphs), &labels, p));
        let specialized = t0.elapsed().as_secs_f64();
        set_dispatch(false);
        let t1 = std::time::Instant::now();
        black_box(one_epoch(&clf, black_box(&graphs), &labels, p));
        let generic = t1.elapsed().as_secs_f64();
        set_dispatch(true);
        if i > 0 {
            // First pair is warmup (scratch growth, cold branches).
            spec_ratios.push(generic / specialized);
        }
    }
    spec_ratios.sort_by(|a, b| a.total_cmp(b));
    let spec_speedup = spec_ratios[spec_ratios.len() / 2];

    let medians = c.medians().to_vec();
    let get = |id: &str| {
        medians.iter().find(|(k, _)| k == id).map(|&(_, v)| v).expect("bench id present")
    };
    let tape = get("training/tape_grads_8_graphs");
    let fused_grads = get("training/fused_grads_8_graphs");
    let fused = get("training/fused_epoch_8_graphs");

    let speedup = tape / fused_grads;
    let mut entries = medians.clone();
    entries.push(("training/speedup_fused_vs_tape".into(), speedup));
    entries.push(("training/speedup_specialized_vs_generic".into(), spec_speedup));
    entries.push(("training/tracing_overhead_ratio".into(), overhead_ratio));
    entries.push(("training/epochs_per_sec_fused".into(), 1e9 / fused));
    entries.push(("training/hidden".into(), hidden as f64));
    let path = irnuma_bench::write_bench_json("training", &entries).expect("write bench json");
    println!(
        "fused grads {:.1} ms vs tape {:.1} ms -> {speedup:.2}x speedup; fused epoch {:.1} ms \
         (h{hidden}) -> {}",
        fused_grads / 1e6,
        tape / 1e6,
        fused / 1e6,
        path.display()
    );
    println!("kernel dispatch on fused training: {spec_speedup:.2}x vs generic kernels");
    if spec_speedup < 1.0 {
        eprintln!(
            "warning: specialized dispatch slower than generic on training ({spec_speedup:.2}x)"
        );
    }
    // Budget mirrors the training/tracing_overhead_ratio gate in
    // results/bench_baselines.json (<= 1.10): training epochs are short in
    // quick mode, so the per-worker fan-out spans weigh more than on the
    // long-latency inference path (whose gate stays at 1.02).
    let overhead_pct = (overhead_ratio - 1.0) * 100.0;
    println!("tracing overhead on fused training: {overhead_pct:+.2}% (budget <10%)");
    if overhead_pct >= 10.0 {
        eprintln!("warning: tracing overhead {overhead_pct:.2}% exceeds the 10% budget");
    }
    if speedup < 1.0 {
        eprintln!("warning: fused engine slower than the tape ({speedup:.2}x)");
    }
}
