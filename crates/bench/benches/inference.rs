//! The RGCN inference hot path: tape-based forward (the old `predict` path)
//! vs the tape-free engine, per graph and batched, at the paper width
//! (hidden = 256) and the common small width (hidden = 64). The batched
//! path is also measured with shape-specialized kernel dispatch
//! force-disabled (`set_dispatch(false)`), giving the headline
//! `speedup_specialized_vs_generic_h{64,256}` ratios alongside
//! `speedup_batch_vs_tape`. Medians land in `BENCH_inference.json` at the
//! repo root.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to run only the h64
//! specialized-vs-generic pair with small sample counts. Regression gating
//! lives in `irnuma bench-check` (rules in `results/bench_baselines.json`),
//! which compares the written medians against the committed baselines; the
//! bench itself always exits zero so a noisy run can't mask the numbers.

use criterion::{black_box, Criterion};
use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::{set_dispatch, GnnConfig, GnnModel, GraphData};
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

/// The pre-engine prediction path: full autograd tape per graph.
fn tape_predict(model: &GnnModel, g: &GraphData) -> usize {
    let f = model.forward(g);
    let l = f.tape.value(f.logits);
    l.data.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap()
}

/// What downstream callers actually paid per region before the engine:
/// `predict` + `embedding` + `embedding_with_confidence`, each a separate
/// tape forward (label, flag-model features, router features).
fn tape_triple_forward(model: &GnnModel, g: &GraphData) -> (usize, Vec<f32>, Vec<f32>) {
    let label = tape_predict(model, g);
    let fe = model.forward(g);
    let pooled = fe.tape.value(fe.pooled).data.clone();
    let f = model.forward(g);
    let logits = f.tape.value(f.logits);
    let mut features = f.tape.value(f.pooled).data.clone();
    let max = logits.data.iter().cloned().fold(f32::MIN, f32::max);
    let exps: Vec<f32> = logits.data.iter().map(|v| (v - max).exp()).collect();
    let z: f32 = exps.iter().sum();
    let probs: Vec<f32> = exps.iter().map(|e| e / z).collect();
    let mut sorted = probs.clone();
    sorted.sort_by(|a, b| b.total_cmp(a));
    features.extend_from_slice(&probs);
    features.push(sorted[0] - sorted.get(1).copied().unwrap_or(0.0));
    (label, pooled, features)
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
    {
        let mut grp = c.benchmark_group("inference");
        grp.sample_size(if quick { 4 } else { 10 });
        if !quick {
            grp.bench_function("tape_triple_forward_loop_8_graphs_h256", |b| {
                b.iter(|| {
                    graphs
                        .iter()
                        .map(|g| tape_triple_forward(&model256, black_box(g)).0)
                        .sum::<usize>()
                })
            });
            grp.bench_function("tape_single_forward_loop_8_graphs_h256", |b| {
                b.iter(|| {
                    graphs.iter().map(|g| tape_predict(&model256, black_box(g))).sum::<usize>()
                })
            });
            grp.bench_function("infer_serial_loop_8_graphs_h256", |b| {
                b.iter(|| {
                    graphs.iter().map(|g| model256.infer(black_box(g)).label()).sum::<usize>()
                })
            });
        }
        grp.finish();
    }

    let medians = c.medians().to_vec();
    let get = |id: &str| {
        medians.iter().find(|(k, _)| k == id).map(|&(_, v)| v).expect("bench id present")
    };
    let mut entries = medians.clone();

    // The specialized-vs-generic pairs: the identical batched call with
    // kernel dispatch on (prepacked weights + monomorphized ISA-wide tiles)
    // and force-disabled (the pre-dispatch generic blocked kernels).
    // Measured as alternating on/off pairs — medians of the per-pair times
    // and ratios — because back-to-back medians drift by more than the
    // effect under measurement on a busy host; the toggle always sits
    // outside the timed region.
    let widths: &[(&GnnModel, &str)] =
        if quick { &[(&model64, "h64")] } else { &[(&model64, "h64"), (&model256, "h256")] };
    let pairs = if quick { 5 } else { 15 };
    for &(model, tag) in widths {
        let mut spec_ns = Vec::with_capacity(pairs);
        let mut generic_ns = Vec::with_capacity(pairs);
        let mut ratios = Vec::with_capacity(pairs);
        for i in 0..=pairs {
            set_dispatch(true);
            let t0 = std::time::Instant::now();
            black_box(model.infer_batch(black_box(&graphs)).len());
            let spec = t0.elapsed().as_secs_f64() * 1e9;
            set_dispatch(false);
            let t1 = std::time::Instant::now();
            black_box(model.infer_batch(black_box(&graphs)).len());
            let generic = t1.elapsed().as_secs_f64() * 1e9;
            set_dispatch(true);
            if i > 0 {
                // First pair is warmup (scratch growth, cold branches).
                spec_ns.push(spec);
                generic_ns.push(generic);
                ratios.push(generic / spec);
            }
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let (spec, generic) = (med(&mut spec_ns), med(&mut generic_ns));
        let ratio = med(&mut ratios);
        entries.push((format!("inference/infer_batch_8_graphs_{tag}"), spec));
        entries.push((format!("inference/infer_batch_generic_8_graphs_{tag}"), generic));
        entries.push((format!("inference/speedup_specialized_vs_generic_{tag}"), ratio));
        println!(
            "specialized vs generic batch ({tag}): {ratio:.2}x ({:.2} ms vs {:.2} ms)",
            spec / 1e6,
            generic / 1e6
        );
        if ratio < 1.0 {
            eprintln!("warning: specialized dispatch slower than generic at {tag} ({ratio:.2}x)");
        }
    }
    if !quick {
        // Tracing overhead: the identical batched path with a live JSONL
        // sink (per-batch span + per-graph histogram records), as alternating
        // untraced/traced pairs. The median per-pair ratio lands in the JSON
        // and must stay under 2%.
        let trace_path = std::env::temp_dir().join("irnuma-bench-inference-trace.jsonl");
        let sink =
            std::sync::Arc::new(irnuma_obs::JsonlSink::create(&trace_path).expect("trace file"));
        let mut trace_ratios = Vec::with_capacity(pairs);
        let mut batch_ns = Vec::with_capacity(pairs);
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
                batch_ns.push(plain * 1e9);
            }
        }
        std::fs::remove_file(&trace_path).ok();
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let trace_ratio = med(&mut trace_ratios);
        let batch = med(&mut batch_ns);

        let triple = get("inference/tape_triple_forward_loop_8_graphs_h256");
        let single = get("inference/tape_single_forward_loop_8_graphs_h256");
        let serial = get("inference/infer_serial_loop_8_graphs_h256");
        entries.push(("inference/speedup_batch_vs_tape_triple".into(), triple / batch));
        entries.push(("inference/speedup_batch_vs_tape_single".into(), single / batch));
        entries.push(("inference/speedup_serial_vs_tape_single".into(), single / serial));
        entries.push(("inference/tracing_overhead_ratio".into(), trace_ratio));
        println!(
            "speedup vs triple-forward {:.2}x, vs single forward {:.2}x (serial {:.2}x)",
            triple / batch,
            single / batch,
            single / serial,
        );
        let overhead_pct = (trace_ratio - 1.0) * 100.0;
        println!("tracing overhead on batched inference: {overhead_pct:+.2}% (budget <2%)");
        if overhead_pct >= 2.0 {
            eprintln!("warning: tracing overhead {overhead_pct:.2}% exceeds the 2% budget");
        }
    }
    let path = irnuma_bench::write_bench_json("inference", &entries).expect("write bench json");
    println!("wrote {} — gate with `irnuma bench-check`", path.display());
}
