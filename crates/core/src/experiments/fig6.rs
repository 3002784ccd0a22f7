//! Figure 6: impact of the number of labels (2 / 6 / 13) on gains and
//! accuracy, per machine. Fewer labels → easier classification (higher
//! accuracy) but a lower ceiling on the attainable gains.

use crate::dataset::Dataset;
use crate::evaluation::{evaluate_on, Evaluation, PipelineConfig};
use crate::experiments::{f3, fig5, FigureReport};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Point {
    pub labels: usize,
    /// Static model with the explored flag sequence.
    pub explored_gain: f64,
    /// Static model if it used the overall best single sequence (training +
    /// validation regions).
    pub overall_gain: f64,
    /// Best of the label set per region (ceiling).
    pub label_oracle_gain: f64,
    /// Full space exploration (absolute ceiling).
    pub full_gain: f64,
    /// Label-prediction accuracy of the static model.
    pub accuracy: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6 {
    pub arch: String,
    pub points: Vec<Fig6Point>,
}

/// Re-label a dataset with a different number of label configurations.
pub fn relabel(ds: &Dataset, k: usize) -> Dataset {
    let times: Vec<&[f64]> = ds.regions.iter().map(|r| r.sweep.as_slice()).collect();
    let base: Vec<f64> = ds.regions.iter().map(|r| r.default_time).collect();
    let chosen = irnuma_ml::reduce_labels(&times, &base, k);
    let labels = irnuma_ml::labels::label_per_region(&times, &chosen);
    Dataset { chosen_configs: chosen, labels, ..ds.clone() }
}

fn point(eval: &Evaluation, k: usize) -> Fig6Point {
    // Overall flag sequence: the single sequence with the best mean gain
    // over *all* regions (training and validation), as defined in §IV-C.
    let gains = fig5::per_seq_gains(eval);
    let overall_gain = gains.iter().cloned().fold(f64::MIN, f64::max);
    Fig6Point {
        labels: k,
        explored_gain: eval.static_speedup(),
        overall_gain,
        label_oracle_gain: eval.mean_speedup(|o| o.oracle_time),
        full_gain: eval.full_exploration_speedup(),
        accuracy: eval.static_label_accuracy(),
    }
}

/// Run the label sweep on one machine (dataset built once, re-labeled).
pub fn run(cfg: &PipelineConfig, ds: &Dataset, label_counts: &[usize]) -> (Fig6, Vec<Evaluation>) {
    let _span = irnuma_obs::span!("exp.fig6", label_counts = label_counts.len());
    let mut points = Vec::new();
    let mut evals = Vec::new();
    for &k in label_counts {
        let eval =
            evaluate_on(cfg, relabel(ds, k)).expect("label sweep keeps the fold count valid");
        points.push(point(&eval, k));
        evals.push(eval);
    }
    (Fig6 { arch: format!("{:?}", cfg.arch), points }, evals)
}

impl Fig6 {
    pub fn report(&self) -> FigureReport {
        let mut r = FigureReport::new(
            "fig6",
            &format!("Gains and accuracy vs number of labels ({})", self.arch),
            &[
                "labels",
                "explored_gain",
                "overall_gain",
                "label_oracle",
                "full_exploration",
                "accuracy",
            ],
        );
        for p in &self.points {
            r.push_row(vec![
                p.labels.to_string(),
                f3(p.explored_gain),
                f3(p.overall_gain),
                f3(p.label_oracle_gain),
                f3(p.full_gain),
                f3(p.accuracy),
            ]);
        }
        if let (Some(first), Some(last)) = (self.points.first(), self.points.last()) {
            r.note(format!(
                "accuracy {:.2} with {} labels vs {:.2} with {} (paper: fewer labels → higher accuracy)",
                first.accuracy, first.labels, last.accuracy, last.labels
            ));
            r.note(format!(
                "label-oracle ceiling {:.2}x with {} labels vs {:.2}x with {} (paper: fewer labels → lower ceiling)",
                first.label_oracle_gain, first.labels, last.label_oracle_gain, last.labels
            ));
        }
        r
    }
}
