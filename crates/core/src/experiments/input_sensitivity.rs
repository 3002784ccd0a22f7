//! Extension (paper §V, future work): *"predict if there is a behavior
//! change across inputs but not actually predict the change itself"*.
//!
//! We implement exactly that proposal: a decision tree over the static
//! embeddings that predicts whether re-using a region's size-2-optimal
//! configuration on size-1 loses more than a threshold — i.e. whether the
//! region's best configuration is input-sensitive. Regions flagged
//! sensitive would be re-tuned per input in deployment; the rest keep one
//! configuration for all inputs.

use crate::dataset::Dataset;
use crate::evaluation::Evaluation;
use crate::experiments::{f3, size_transfer, FigureReport};
use irnuma_ml::{DecisionTree, TreeParams};
use irnuma_sim::{Machine, MicroArch};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputSensitivity {
    /// Per region: true if transferring the size-2 config to size-1 loses
    /// more than the threshold (ground truth, oracle-level).
    pub sensitive: Vec<(String, bool, f64)>,
    /// Cross-validated accuracy of the static predictor.
    pub predictor_accuracy: f64,
    pub sensitive_count: usize,
    pub threshold: f64,
}

/// Ground truth: relative loss of transferring size-2 tuning to size-1 on
/// the Xeon Gold (the paper's input-size machine).
fn transfer_losses(ds: &Dataset, calls: u32) -> Vec<f64> {
    let m = Machine::new(MicroArch::XeonGold);
    // Capture the caller's open span (`exp.input_sensitivity`) and attach
    // it on each worker so the per-region sweeps nest under it causally.
    let ctx = irnuma_obs::TraceContext::capture();
    ds.regions
        .par_iter()
        .map(|r| {
            let _scope = ctx.attach();
            let _rs = irnuma_obs::span!("exp.transfer_loss", region = r.spec.name.as_str());
            let t = size_transfer(&r.spec, &m, calls);
            // Fractional slowdown from transferring.
            (t.size1[t.transferred] - t.size1[t.native]) / t.size1[t.native]
        })
        .collect()
}

/// Train and evaluate the input-sensitivity predictor under `eval`'s
/// cross-validation: each fold's tree is fit on the embeddings of that
/// fold's static model over its training regions and scored on its
/// validation regions.
pub fn run(eval: &Evaluation, threshold: f64, calls: u32) -> InputSensitivity {
    let _span = irnuma_obs::span!("exp.input_sensitivity", calls = calls);
    let ds = &eval.dataset;
    let losses = transfer_losses(ds, calls);
    let truth: Vec<bool> = losses.iter().map(|&l| l > threshold).collect();

    let mut correct = 0usize;
    for fold in &eval.folds {
        let sm = &fold.static_model;
        let x: Vec<Vec<f32>> = fold.train.iter().map(|&r| sm.embedding(ds, r)).collect();
        let y: Vec<usize> = fold.train.iter().map(|&r| truth[r] as usize).collect();
        let tree =
            DecisionTree::fit(&x, &y, TreeParams { max_depth: Some(3), ..Default::default() });
        for &r in &fold.validation {
            let pred = tree.predict(&sm.embedding(ds, r)) == 1;
            if pred == truth[r] {
                correct += 1;
            }
        }
    }

    InputSensitivity {
        sensitive: ds
            .regions
            .iter()
            .zip(&truth)
            .zip(&losses)
            .map(|((r, &t), &l)| (r.spec.name.clone(), t, l))
            .collect(),
        predictor_accuracy: correct as f64 / ds.regions.len() as f64,
        sensitive_count: truth.iter().filter(|&&t| t).count(),
        threshold,
    }
}

impl InputSensitivity {
    pub fn report(&self) -> FigureReport {
        let mut r = FigureReport::new(
            "input_sensitivity",
            "Extension (§V): predicting behavior change across input sizes",
            &["region", "sensitive", "transfer_loss"],
        );
        for (name, s, l) in &self.sensitive {
            r.push_row(vec![name.clone(), s.to_string(), f3(*l)]);
        }
        r.note(format!(
            "{} of {} regions are input-sensitive (>{:.0}% transfer loss)",
            self.sensitive_count,
            self.sensitive.len(),
            self.threshold * 100.0
        ));
        r.note(format!(
            "static predictor identifies them with {:.0}% accuracy (paper §V proposes exactly this)",
            self.predictor_accuracy * 100.0
        ));
        r
    }
}
