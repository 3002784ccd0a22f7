//! Figure 4: mean static prediction error per validation fold (relative
//! differences). The paper observes the errors spread evenly across folds —
//! i.e. no fold's training set is systematically uninformative.

use crate::evaluation::Evaluation;
use crate::experiments::{f3, FigureReport};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// Mean static error per fold.
    pub fold_errors: Vec<f64>,
    /// Standard deviation of `fold_errors` over their mean (population
    /// form; 0 when the mean is 0): how unevenly the error falls across
    /// folds, judged against the typical fold rather than the cleanest one.
    pub spread: f64,
}

pub fn run(eval: &Evaluation) -> Fig4 {
    let _span = irnuma_obs::span!("exp.fig4");
    let folds = eval.cfg.folds;
    let mut sums = vec![0.0f64; folds];
    let mut counts = vec![0usize; folds];
    for o in &eval.outcomes {
        sums[o.fold] += o.static_error;
        counts[o.fold] += 1;
    }
    let fold_errors: Vec<f64> =
        sums.iter().zip(&counts).map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 }).collect();
    Fig4 { spread: std_over_mean(&fold_errors), fold_errors }
}

fn std_over_mean(v: &[f64]) -> f64 {
    let n = v.len() as f64;
    let mean = v.iter().sum::<f64>() / n;
    if v.is_empty() || mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

impl Fig4 {
    pub fn report(&self) -> FigureReport {
        let mut r = FigureReport::new(
            "fig4",
            "Mean prediction error per validation fold (lower is better)",
            &["fold", "mean_static_error"],
        );
        for (i, e) in self.fold_errors.iter().enumerate() {
            r.push_row(vec![format!("fold{i}"), f3(*e)]);
        }
        r.note(format!(
            "fold-error spread (std/mean) {:.2} (paper: errors mostly even across folds)",
            self.spread
        ));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_is_the_standard_deviation_over_the_mean() {
        // The committed standard-scale `results/fig4.csv`: one nearly clean
        // fold (0.002) no longer dominates the spread.
        let folds = [0.043, 0.161, 0.057, 0.075, 0.048, 0.039, 0.088, 0.116, 0.246, 0.002];
        assert!((std_over_mean(&folds) - 0.772).abs() < 1e-3, "{}", std_over_mean(&folds));
        assert!(std_over_mean(&[0.1; 10]) < 1e-12);
        assert_eq!(std_over_mean(&[0.0; 10]), 0.0);
    }
}
