//! Every figure driver runs at test scale and produces a well-formed,
//! non-empty report (the quantitative shapes are asserted in
//! `paper_claims.rs` and recorded in EXPERIMENTS.md).

use irnuma_core::dataset::build_dataset;
use irnuma_core::evaluation::{evaluate, evaluate_on, PipelineConfig};
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
    let cfg = PipelineConfig::fast(MicroArch::Skylake);
    let ds = build_dataset(cfg.arch, &cfg.dataset);
    let (f, evals) = fig6::run(&cfg, &ds, &[2, 6]);
    assert_eq!(f.points.len(), 2);
    assert_eq!(evals.len(), 2);
    // The label-set ceiling must grow with more labels.
    assert!(f.points[1].label_oracle_gain >= f.points[0].label_oracle_gain - 1e-9);
    // And each evaluation used the right label count.
    assert_eq!(evals[0].dataset.chosen_configs.len(), 2);
    assert_eq!(evals[1].dataset.chosen_configs.len(), 6);
    let report = fig6::report(std::slice::from_ref(&f));
    assert_eq!(report.rows.len(), 2);
    assert!(report.rows.iter().all(|row| row[0] == "Skylake"));
}

#[test]
fn fig7_counts_are_conserved() {
    let cfg = PipelineConfig::fast(MicroArch::Skylake);
    let ds = build_dataset(cfg.arch, &cfg.dataset);
    let eval6 = evaluate_on(&cfg, fig6::relabel(&ds, 6)).expect("pipeline evaluates");
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
