//! Worker accounting of a traced training run: the span forest of one
//! `GnnClassifier::fit` must attribute its work to the parallel runtime's
//! threads, never to more threads than the pool has. One `#[test]` only —
//! the trace sink is process-global.

use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData, TrainParams};
use irnuma_obs::{clear_sink, set_sink, MemorySink, SpanForest, SpanRecord};

fn chain(n: u32, seed: u32) -> GraphData {
    let node_text: Vec<u32> = (0..n).map(|i| (i * 7 + seed) % 20).collect();
    let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
    for i in 1..n {
        edges[0].push((i - 1, i));
        edges[1].push((i, (i * seed) % n));
    }
    edges[2].push((0, n - 1));
    GraphData::from_edge_lists(node_text, edges)
}

#[test]
fn traced_fit_counts_at_most_the_pool_as_workers() {
    let graphs: Vec<GraphData> = (0..32).map(|s| chain(4 + s % 9, s)).collect();
    let labels: Vec<usize> = (0..32).map(|s| s % 3).collect();
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: 20,
        hidden: 12,
        classes: 3,
        layers: 2,
        layer_norm: true,
        seed: 5,
    });
    let sink = MemorySink::new();
    set_sink(sink.clone());
    clf.fit(graphs, labels, TrainParams { epochs: 3, batch_size: 8, lr: 0.01, seed: 2 });
    clear_sink();

    let records: Vec<SpanRecord> =
        sink.events().iter().filter_map(SpanRecord::from_event).collect();
    let forest = SpanForest::build(records);
    let fit = forest
        .roots
        .iter()
        .copied()
        .find(|&r| forest.spans[r].name == "train.fit")
        .expect("a train.fit root");
    let stats = forest.subtree_stats(fit);
    // Per-graph spans open on whichever pool thread runs them; a runtime
    // that spawned threads per call would show a fresh id per minibatch.
    assert!(stats.spans > 12 * 8, "per-graph spans are traced: {stats:?}");
    assert!(
        stats.workers <= rayon::current_num_threads(),
        "{} workers for a pool of {}: {stats:?}",
        stats.workers,
        rayon::current_num_threads()
    );
    assert!(stats.efficiency > 0.0, "{stats:?}");
}
