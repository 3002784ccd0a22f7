//! End-to-end integration: the full cross-validated pipeline (steps A–E,
//! all four models) at test scale, checking structural invariants of the
//! result rather than headline numbers (those live in `paper_claims.rs`).

use irnuma_core::evaluation::{evaluate, Evaluation, PipelineConfig, RegionOutcome};
use irnuma_sim::MicroArch;
use rayon::prelude::*;

#[test]
fn full_pipeline_runs_and_is_coherent() {
    let cfg = PipelineConfig::fast(MicroArch::Skylake);
    let eval = evaluate(&cfg).expect("pipeline evaluates");

    // Every region validated exactly once, in a real fold.
    assert_eq!(eval.outcomes.len(), 56);
    for (i, o) in eval.outcomes.iter().enumerate() {
        assert_eq!(o.region, i);
        assert!(o.fold < cfg.folds);
        assert!(o.default_time > 0.0);
        assert!(o.full_best_time <= o.oracle_time + 1e-12, "full space ⊇ label set");
        assert!(o.oracle_time <= o.static_time + 1e-12, "oracle is the best label");
        assert!(o.oracle_time <= o.dynamic_time + 1e-12);
        // Hybrid is exactly one of its two constituents.
        let expect = if o.hybrid_used_dynamic { o.dynamic_time } else { o.static_time };
        assert_eq!(o.hybrid_time, expect);
        assert!(o.static_label < eval.dataset.chosen_configs.len());
        assert!(o.dynamic_label < eval.dataset.chosen_configs.len());
        assert!((0.0..=1.0).contains(&o.static_error));
        assert!((0.0..=1.0).contains(&o.dynamic_error));
        assert!(o.predicted_seq < eval.dataset.sequences.len());
    }

    // The per-sequence prediction matrix is fully populated.
    for times in &eval.pred_time_by_seq {
        assert_eq!(times.len(), eval.dataset.sequences.len());
        assert!(times.iter().all(|&t| t > 0.0));
    }

    // Fold models exist and validation sets partition the regions.
    assert_eq!(eval.folds.len(), cfg.folds);
    let mut seen = [false; 56];
    for f in &eval.folds {
        for &r in &f.validation {
            assert!(!seen[r], "region {r} validated twice");
            seen[r] = true;
        }
        assert_eq!(f.train.len() + f.validation.len(), 56);
    }
    assert!(seen.iter().all(|&s| s));

    // Speedups are finite and ordered sanely.
    let full = eval.full_exploration_speedup();
    let stat = eval.static_speedup();
    let dynv = eval.dynamic_speedup();
    assert!(full >= stat && full >= dynv, "full exploration bounds the models");
    assert!(stat >= 0.8, "static should not be catastrophic: {stat}");
}

/// Every field of an outcome, floats as their bits.
type OutcomeBits = (usize, String, usize, [u64; 9], [usize; 4], [bool; 2]);

fn outcome_bits(o: &RegionOutcome) -> OutcomeBits {
    let RegionOutcome {
        region,
        name,
        fold,
        default_time,
        full_best_time,
        oracle_time,
        oracle_label,
        static_label,
        static_time,
        dynamic_label,
        dynamic_time,
        hybrid_used_dynamic,
        hybrid_time,
        needs_profiling,
        static_error,
        dynamic_error,
        predicted_seq,
        predicted_seq_time,
    } = o;
    let floats = [
        default_time,
        full_best_time,
        oracle_time,
        static_time,
        dynamic_time,
        hybrid_time,
        static_error,
        dynamic_error,
        predicted_seq_time,
    ]
    .map(|x| x.to_bits());
    (
        *region,
        name.clone(),
        *fold,
        floats,
        [*oracle_label, *static_label, *dynamic_label, *predicted_seq],
        [*hybrid_used_dynamic, *needs_profiling],
    )
}

#[test]
fn pipeline_is_deterministic() {
    let cfg = PipelineConfig::fast(MicroArch::Skylake);
    // Top level: the folds fan out across the pool.
    let a = evaluate(&cfg).expect("pipeline evaluates");
    // Inside a parallel map, nested calls run inline: the same evaluate runs
    // its folds one after another on one thread.
    let b = (0..2usize)
        .into_par_iter()
        .map(|i| (i == 0).then(|| evaluate(&cfg).expect("pipeline evaluates")))
        .collect::<Vec<_>>()
        .swap_remove(0)
        .expect("item 0 evaluates");
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(outcome_bits(x), outcome_bits(y), "{}", x.name);
    }
    let seq_bits = |e: &Evaluation| -> Vec<Vec<u64>> {
        e.pred_time_by_seq.iter().map(|row| row.iter().map(|t| t.to_bits()).collect()).collect()
    };
    assert_eq!(seq_bits(&a), seq_bits(&b));
}
