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

/// Evaluate `main`'s dataset re-labeled with `k` configurations: a light
/// evaluation under `main`'s configuration, since the sweep reads only the
/// static and dynamic models.
pub fn evaluate_labels(main: &Evaluation, k: usize) -> Evaluation {
    let cfg = PipelineConfig { light: true, ..main.cfg };
    evaluate_on(&cfg, relabel(&main.dataset, k)).expect("label sweep keeps the fold count valid")
}

/// Run the label sweep on one machine. A label count equal to the dataset's
/// own is `main`'s point: its static half is what a light evaluation of the
/// same dataset computes. Every other count is evaluated once, and those
/// evaluations are returned with their label counts.
pub fn run(main: &Evaluation, label_counts: &[usize]) -> (Fig6, Vec<(usize, Evaluation)>) {
    let _span = irnuma_obs::span!("exp.fig6", label_counts = label_counts.len());
    let mut points = Vec::new();
    let mut evals = Vec::new();
    for &k in label_counts {
        if k == main.cfg.dataset.num_labels {
            points.push(point(main, k));
        } else {
            let eval = evaluate_labels(main, k);
            points.push(point(&eval, k));
            evals.push((k, eval));
        }
    }
    (Fig6 { arch: format!("{:?}", main.cfg.arch), points }, evals)
}

/// One table for every machine swept: the `arch` column tells the rows
/// apart, so both architectures land in the same `fig6.csv`.
pub fn report(figs: &[Fig6]) -> FigureReport {
    let mut r = FigureReport::new(
        "fig6",
        "Gains and accuracy vs number of labels",
        &[
            "arch",
            "labels",
            "explored_gain",
            "overall_gain",
            "label_oracle",
            "full_exploration",
            "accuracy",
        ],
    );
    for fig in figs {
        for p in &fig.points {
            r.push_row(vec![
                fig.arch.clone(),
                p.labels.to_string(),
                f3(p.explored_gain),
                f3(p.overall_gain),
                f3(p.label_oracle_gain),
                f3(p.full_gain),
                f3(p.accuracy),
            ]);
        }
        if let (Some(first), Some(last)) = (fig.points.first(), fig.points.last()) {
            r.note(format!(
                "{}: accuracy {:.2} with {} labels vs {:.2} with {} (paper: fewer labels → higher accuracy)",
                fig.arch, first.accuracy, first.labels, last.accuracy, last.labels
            ));
            r.note(format!(
                "{}: label-oracle ceiling {:.2}x with {} labels vs {:.2}x with {} (paper: fewer labels → lower ceiling)",
                fig.arch, first.label_oracle_gain, first.labels, last.label_oracle_gain, last.labels
            ));
        }
    }
    r
}
