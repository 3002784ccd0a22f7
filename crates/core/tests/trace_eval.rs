//! The span forest of one traced cross-validated `evaluate`: every fold's
//! span must hang under the run's root, whichever pool thread ran the fold,
//! and the run's work must be attributed to no more threads than the pool
//! has. One `#[test]` only — the trace sink is process-global.

use irnuma_core::evaluation::{evaluate, PipelineConfig};
use irnuma_obs::{clear_sink, set_sink, MemorySink, SpanForest, SpanRecord};
use irnuma_sim::MicroArch;

#[test]
fn traced_evaluate_nests_every_fold_under_one_run() {
    let cfg = PipelineConfig::fast(MicroArch::Skylake);
    let sink = MemorySink::new();
    set_sink(sink.clone());
    let eval = evaluate(&cfg);
    clear_sink();
    eval.expect("pipeline evaluates");

    let records: Vec<SpanRecord> =
        sink.events().iter().filter_map(SpanRecord::from_event).collect();
    let forest = SpanForest::build(records);
    let named = |name: &str| -> Vec<usize> {
        (0..forest.spans.len()).filter(|&i| forest.spans[i].name == name).collect()
    };
    let runs = named("eval.run");
    assert_eq!(runs.len(), 1, "one eval.run span");
    let run = runs[0];
    assert!(forest.roots.contains(&run), "eval.run is a root");

    // A fold opened on a pool worker without the run's captured context
    // would start a trace of its own there.
    let folds = named("eval.fold");
    assert_eq!(folds.len(), cfg.folds, "one span per fold");
    for f in folds {
        assert!(
            forest.children(run).contains(&f),
            "eval.fold span {} (thread {}) is not a child of eval.run",
            forest.spans[f].span_id,
            forest.spans[f].thread
        );
    }

    let stats = forest.subtree_stats(run);
    assert!(
        stats.workers <= rayon::current_num_threads(),
        "{} workers for a pool of {}: {stats:?}",
        stats.workers,
        rayon::current_num_threads()
    );
    assert!(stats.efficiency > 0.0, "{stats:?}");
}
