//! Step D cost: RGCN inference (label and embedding) and a full training
//! epoch on realistic region graphs.

use criterion::{criterion_group, criterion_main, Criterion};
use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData, TrainParams};
use irnuma_workloads::all_regions;

fn region_graph(name: &str, vocab: &Vocab) -> GraphData {
    let spec = all_regions().into_iter().find(|r| r.name == name).unwrap();
    let m = spec.module();
    let e = extract_region(&m, &spec.region_fn()).unwrap();
    GraphData::from_graph(&build_module_graph(&e, vocab))
}

fn bench_inference(c: &mut Criterion) {
    let vocab = Vocab::full();
    let g = region_graph("lulesh.calc_fb", &vocab);
    let model = GnnClassifier::new(GnnConfig {
        vocab_size: vocab.len(),
        hidden: 32,
        classes: 13,
        layers: 2,
        layer_norm: true,
        seed: 1,
    });
    let mut grp = c.benchmark_group("gnn");
    grp.bench_function("forward_predict", |b| {
        b.iter(|| model.model.infer(std::hint::black_box(&g)).label())
    });
    grp.bench_function("embedding", |b| {
        b.iter(|| model.model.infer(std::hint::black_box(&g)).pooled)
    });
    grp.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let vocab = Vocab::full();
    let names = ["hotspot.temp", "cg.spmv", "bt.x_solve", "is.rank", "srad.update", "nw.fill"];
    let graphs: Vec<GraphData> = names.iter().map(|n| region_graph(n, &vocab)).collect();
    let labels: Vec<usize> = (0..graphs.len()).map(|i| i % 3).collect();
    let mut grp = c.benchmark_group("gnn_train");
    grp.sample_size(10);
    grp.bench_function("one_epoch_6_graphs_h32", |b| {
        b.iter(|| {
            let mut clf = GnnClassifier::new(GnnConfig {
                vocab_size: vocab.len(),
                hidden: 32,
                classes: 3,
                layers: 2,
                layer_norm: true,
                seed: 2,
            });
            clf.fit(
                graphs.clone(),
                labels.clone(),
                TrainParams { epochs: 1, batch_size: 6, lr: 1e-3, seed: 3 },
            )
        })
    });
    grp.finish();
}

criterion_group!(benches, bench_inference, bench_epoch);
criterion_main!(benches);
