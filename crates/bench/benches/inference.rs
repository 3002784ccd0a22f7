//! The RGCN inference hot path: the engine per graph and batched, at the
//! paper width (hidden = 256) and the common small width (hidden = 64).
//! The batched path's absolute medians (`infer_batch_8_graphs_h{64,256}`)
//! land in `BENCH_inference.json` at the repo root, next to the serial
//! loop's median and the tracing-overhead ratio.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to time only the h64 batch
//! with small sample counts. Regression gating lives in `irnuma
//! bench-check` (rules in `results/bench_baselines.json`), which compares
//! the written medians against the committed baselines; the bench itself
//! always exits zero so a noisy run can't mask the numbers.

use criterion::{black_box, Criterion};
use irnuma_core::bench_check::write_bench_json;
use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::{GnnConfig, GnnModel, GraphData};
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

fn main() {
    let quick = std::env::var("IRNUMA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let vocab = Vocab::full();
    let graphs = region_graphs(&vocab, 8);
    let mk = |hidden: usize| {
        GnnModel::new(GnnConfig {
            vocab_size: vocab.len(),
            hidden,
            classes: 13,
            layers: 2,
            layer_norm: true,
            seed: 1,
        })
    };
    let model64 = mk(64);
    let model256 = mk(256);

    let mut c = Criterion::default().configure_from_args();
    if !quick {
        let mut grp = c.benchmark_group("inference");
        grp.sample_size(10);
        grp.bench_function("infer_serial_loop_8_graphs_h256", |b| {
            b.iter(|| graphs.iter().map(|g| model256.infer(black_box(g)).label()).sum::<usize>())
        });
        grp.finish();
    }

    let mut entries = c.medians().to_vec();

    // The batched call's absolute time per width: the median of repeated
    // runs, the first of which is warmup (scratch growth, cold branches).
    let widths: &[(&GnnModel, &str)] =
        if quick { &[(&model64, "h64")] } else { &[(&model64, "h64"), (&model256, "h256")] };
    let runs = if quick { 5 } else { 15 };
    for &(model, tag) in widths {
        let mut batch_ns: Vec<f64> = (0..=runs)
            .map(|_| {
                let t0 = std::time::Instant::now();
                black_box(model.infer_batch(black_box(&graphs)).len());
                t0.elapsed().as_secs_f64() * 1e9
            })
            .skip(1)
            .collect();
        batch_ns.sort_by(|a, b| a.total_cmp(b));
        let batch = batch_ns[batch_ns.len() / 2];
        entries.push((format!("inference/infer_batch_8_graphs_{tag}"), batch));
        println!("batched inference ({tag}): {:.2} ms", batch / 1e6);
    }
    if !quick {
        // Tracing overhead: the identical batched path with a live JSONL
        // sink (per-batch span + per-graph histogram records), as alternating
        // untraced/traced pairs. The median per-pair ratio lands in the JSON
        // and must stay under 2%. A pair takes ~15 ms on the build host,
        // and its ratio moves by a few percent with host noise; the median
        // of 101 pairs moves by about 1% from run to run.
        let pairs = 101;
        let trace_path = std::env::temp_dir().join("irnuma-bench-inference-trace.jsonl");
        let sink =
            std::sync::Arc::new(irnuma_obs::JsonlSink::create(&trace_path).expect("trace file"));
        let mut trace_ratios = Vec::with_capacity(pairs);
        for i in 0..=pairs {
            let t0 = std::time::Instant::now();
            black_box(model256.infer_batch(black_box(&graphs)).len());
            let plain = t0.elapsed().as_secs_f64();
            irnuma_obs::set_sink(sink.clone());
            let t1 = std::time::Instant::now();
            black_box(model256.infer_batch(black_box(&graphs)).len());
            let traced = t1.elapsed().as_secs_f64();
            irnuma_obs::clear_sink();
            if i > 0 {
                trace_ratios.push(traced / plain);
            }
        }
        std::fs::remove_file(&trace_path).ok();
        trace_ratios.sort_by(|a, b| a.total_cmp(b));
        let trace_ratio = trace_ratios[trace_ratios.len() / 2];
        entries.push(("inference/tracing_overhead_ratio".into(), trace_ratio));
        let overhead_pct = (trace_ratio - 1.0) * 100.0;
        println!("tracing overhead on batched inference: {overhead_pct:+.2}% (budget <2%)");
        if overhead_pct >= 2.0 {
            eprintln!("warning: tracing overhead {overhead_pct:.2}% exceeds the 2% budget");
        }
    }
    let path = write_bench_json("inference", &entries).expect("write bench json");
    println!("wrote {} — gate with `irnuma bench-check`", path.display());
}
