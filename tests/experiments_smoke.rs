//! Every figure driver runs at test scale and produces a well-formed,
//! non-empty report (the quantitative shapes are asserted in
//! `paper_claims.rs` and recorded in EXPERIMENTS.md).

use irnuma_core::evaluation::{evaluate, PipelineConfig};
use irnuma_core::experiments::*;
use irnuma_sim::MicroArch;
use std::sync::OnceLock;

fn skl() -> &'static irnuma_core::evaluation::Evaluation {
    static E: OnceLock<irnuma_core::evaluation::Evaluation> = OnceLock::new();
    E.get_or_init(|| {
        evaluate(&PipelineConfig::fast(MicroArch::Skylake)).expect("pipeline evaluates")
    })
}

fn snb() -> &'static irnuma_core::evaluation::Evaluation {
    static E: OnceLock<irnuma_core::evaluation::Evaluation> = OnceLock::new();
    E.get_or_init(|| {
        evaluate(&PipelineConfig::fast(MicroArch::SandyBridge)).expect("pipeline evaluates")
    })
}

#[test]
fn fig3_report() {
    let f = fig3::run(skl());
    assert_eq!(f.rows.len(), 56);
    // Sorted descending by static error.
    for w in f.rows.windows(2) {
        assert!(w[0].static_error >= w[1].static_error);
    }
    let rep = f.report();
    assert_eq!(rep.rows.len(), 56);
    assert!(!rep.to_csv().is_empty());
}

#[test]
fn fig4_report() {
    let f = fig4::run(skl());
    assert_eq!(f.fold_errors.len(), skl().cfg.folds);
    assert!(f.fold_errors.iter().all(|&e| (0.0..=1.0).contains(&e)));
    let _ = f.report();
}

#[test]
fn fig5_report() {
    let f = fig5::run(skl(), snb());
    assert_eq!(f.skylake.len(), skl().dataset.sequences.len());
    assert_eq!(f.sandy_bridge.len(), snb().dataset.sequences.len());
    assert!(f.skylake.iter().all(|&g| g > 0.5));
    let _ = f.report();
}

#[test]
fn fig6_label_sweep() {
    let main = skl();
    let (f, evals) = fig6::run(main, &[2, 6, 13]);
    assert_eq!(f.points.len(), 3);
    // The dataset's own label count is the main evaluation's point.
    assert_eq!(evals.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![2, 6]);
    assert_eq!(f.points[2].accuracy, main.static_label_accuracy());
    assert_eq!(f.points[2].explored_gain, main.static_speedup());
    // The label-set ceiling must grow with more labels.
    for w in f.points.windows(2) {
        assert!(w[1].label_oracle_gain >= w[0].label_oracle_gain - 1e-9);
    }
    // And each evaluation used the right label count.
    for (k, eval) in &evals {
        assert_eq!(eval.dataset.chosen_configs.len(), *k);
        assert!(eval.cfg.light);
    }
    let report = fig6::report(std::slice::from_ref(&f));
    assert_eq!(report.rows.len(), 3);
    assert!(report.rows.iter().all(|row| row[0] == "Skylake"));
}

/// Fig. 6 takes its point at the dataset's own label count from the main
/// (full) evaluation instead of a light re-evaluation. That is sound only
/// if the light run computes the same static, dynamic and oracle outcomes
/// and the same per-sequence prediction times, bit for bit.
#[test]
fn light_evaluation_at_the_own_label_count_matches_the_full_one() {
    let full = skl();
    assert!(!full.cfg.light);
    let light = fig6::evaluate_labels(full, full.cfg.dataset.num_labels);
    assert!(light.cfg.light);
    assert_eq!(light.dataset.chosen_configs, full.dataset.chosen_configs);
    assert_eq!(light.dataset.labels, full.dataset.labels);
    assert_eq!(light.outcomes.len(), full.outcomes.len());
    let bits = |v: f64| v.to_bits();
    for (l, f) in light.outcomes.iter().zip(&full.outcomes) {
        assert_eq!((l.region, &l.name, l.fold), (f.region, &f.name, f.fold));
        assert_eq!(bits(l.default_time), bits(f.default_time), "{}", f.name);
        assert_eq!(bits(l.full_best_time), bits(f.full_best_time), "{}", f.name);
        assert_eq!(bits(l.oracle_time), bits(f.oracle_time), "{}", f.name);
        assert_eq!(l.oracle_label, f.oracle_label, "{}", f.name);
        assert_eq!(l.static_label, f.static_label, "{}", f.name);
        assert_eq!(bits(l.static_time), bits(f.static_time), "{}", f.name);
        assert_eq!(l.dynamic_label, f.dynamic_label, "{}", f.name);
        assert_eq!(bits(l.dynamic_time), bits(f.dynamic_time), "{}", f.name);
        assert_eq!(l.needs_profiling, f.needs_profiling, "{}", f.name);
        assert_eq!(bits(l.static_error), bits(f.static_error), "{}", f.name);
        assert_eq!(bits(l.dynamic_error), bits(f.dynamic_error), "{}", f.name);
    }
    assert_eq!(light.pred_time_by_seq.len(), full.pred_time_by_seq.len());
    for (l, f) in light.pred_time_by_seq.iter().zip(&full.pred_time_by_seq) {
        assert_eq!(
            l.iter().map(|&t| bits(t)).collect::<Vec<_>>(),
            f.iter().map(|&t| bits(t)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn fig7_counts_are_conserved() {
    let eval6 = fig6::evaluate_labels(skl(), 6);
    let f = fig7::run(&eval6);
    let oracle_total: usize = f.rows.iter().map(|r| r.oracle).sum();
    let pred_total: usize = f.rows.iter().map(|r| r.predicted).sum();
    assert_eq!(oracle_total, 56);
    assert_eq!(pred_total, 56);
    for r in &f.rows {
        assert!(r.correct <= r.predicted.min(r.oracle));
    }
    let _ = f.report();
}

#[test]
fn fig8_cross_architecture() {
    let f = fig8::run(skl(), snb());
    assert_eq!(f.arches.len(), 2);
    for a in &f.arches {
        assert!(a.native_static > 0.5 && a.cross_static > 0.5);
        assert!(a.native_dynamic > 0.5 && a.cross_dynamic > 0.5);
    }
    let _ = f.report();
}

#[test]
fn fig9_hybrid_per_region() {
    let f = fig9::run(skl());
    assert_eq!(f.rows.len(), 56);
    assert_eq!(f.profiled_count, f.rows.iter().filter(|r| r.profiled).count());
    for r in &f.rows {
        assert!(
            r.full_gain + 1e-9 >= r.hybrid_gain.min(r.dynamic_gain) * 0.999 || r.full_gain > 0.0
        );
    }
    let _ = f.report();
}

#[test]
fn fig10_input_sizes() {
    let f = fig10::run(2);
    assert_eq!(f.rows.len(), 56);
    assert!(f.mean_native >= f.mean_transferred - 1e-9, "native tuning can't lose");
    assert!(f.mean_loss >= -1e-9);
    let _ = f.report();
}

#[test]
fn fig11_flag_strategies() {
    let f = fig11::run(&[skl(), snb()]);
    assert_eq!(f.arches.len(), 2);
    for a in &f.arches {
        assert!(a.oracle + 1e-9 >= a.overall, "oracle bounds overall");
        assert!(a.oracle + 1e-9 >= a.predicted, "oracle bounds predicted");
    }
    let _ = f.report();
}

#[test]
fn fig12_traces() {
    let f = fig12::run(skl(), 3, 10);
    assert!(f.traces.len() >= 4, "3 mispredicted + SP reference");
    assert!(f.traces.iter().any(|t| !t.mispredicted), "has the stable reference");
    for t in &f.traces {
        assert_eq!(t.cycles_per_call.len(), 10);
        assert!(t.variation >= 1.0);
    }
    let _ = f.report();
}

#[test]
fn ablations_report() {
    let main = skl();
    let p = main.cfg.static_params;
    let a = ablations::run(&main.dataset, &main.cfg);
    let names: Vec<&str> = a.points.iter().map(|p| p.name.as_str()).collect();
    let aug = format!("augmentation/{}-seqs", p.train_sequences);
    let hidden = format!("hidden/{}", p.hidden);
    assert_eq!(
        names,
        [
            "relations/all-relations",
            "relations/no-control",
            "relations/no-data",
            "relations/no-call",
            "augmentation/1-seqs",
            aug.as_str(),
            "hidden/8",
            hidden.as_str(),
        ]
    );
    // The three rows naming the base configuration are one run.
    let base =
        |i: usize| (a.points[i].label_accuracy.to_bits(), a.points[i].mean_speedup.to_bits());
    assert_eq!(base(0), base(5));
    assert_eq!(base(0), base(7));
    for pt in &a.points {
        assert!((0.0..=1.0).contains(&pt.label_accuracy), "{}", pt.name);
        assert!(pt.mean_speedup > 0.5, "{}", pt.name);
    }
    assert_eq!(a.report().rows.len(), 8);
}

#[test]
fn input_sensitivity_report() {
    let f = input_sensitivity::run(skl(), 0.05, 2);
    assert_eq!(f.sensitive.len(), 56);
    assert_eq!(f.sensitive_count, f.sensitive.iter().filter(|(_, s, _)| *s).count());
    assert!((0.0..=1.0).contains(&f.predictor_accuracy));
    assert_eq!(f.report().rows.len(), 56);
}
