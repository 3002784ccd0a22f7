//! The flag-prediction model (paper §III-E, second method / §IV-G): instead
//! of one explored flag sequence for every program, a decision tree over
//! the static embeddings picks a per-program sequence from a small list of
//! candidate sequences. Candidates are selected with the same greedy
//! reduction used for the 13 configuration labels; the paper needed 2
//! (Skylake) and 4 (Sandy Bridge) sequences to reach 99% of the oracle.

use crate::dataset::Dataset;
use crate::models::static_gnn::StaticModel;
use irnuma_ml::{DecisionTree, Ga, GaParams, LooFolds, Presorted, TreeParams};
use irnuma_nn::GraphData;
use serde::{Deserialize, Serialize};

/// Flag-model hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlagParams {
    /// Oracle-gain fraction the candidate list must reach (paper: 99%).
    pub target_coverage: f64,
    /// Hard cap on the candidate list length.
    pub max_candidates: usize,
    pub feature_subset: usize,
    pub ga: GaParams,
}

impl Default for FlagParams {
    fn default() -> Self {
        FlagParams {
            target_coverage: 0.99,
            max_candidates: 4,
            feature_subset: 10,
            ga: GaParams { population: 64, generations: 12, seed: 77, ..Default::default() },
        }
    }
}

/// Per-program flag-sequence predictor.
pub struct FlagModel {
    tree: DecisionTree,
    pub selected_dims: Vec<usize>,
    /// Candidate sequence indices (into `Dataset::sequences`).
    pub candidates: Vec<usize>,
}

/// Predicted-speedup matrix: `gains[i][s]` = speedup of training region
/// `train_idx[i]` when the static model predicts with sequence `s`.
pub fn gains_matrix(ds: &Dataset, sm: &StaticModel, idx: &[usize]) -> Vec<Vec<f64>> {
    let n_seq = ds.sequences.len();
    // One batched inference pass over every (region × sequence) graph.
    let refs: Vec<&GraphData> =
        idx.iter().flat_map(|&r| (0..n_seq).map(move |s| &ds.regions[r].graphs[s])).collect();
    let outputs = sm.clf.model.infer_batch(&refs);
    idx.iter()
        .enumerate()
        .map(|(i, &r)| {
            (0..n_seq)
                .map(|s| {
                    let label = outputs[i * n_seq + s].label();
                    ds.regions[r].default_time / ds.label_time(r, label)
                })
                .collect()
        })
        .collect()
}

/// Greedy candidate-sequence selection until `target` of the oracle mean
/// gain is reached (or the cap).
fn select_candidates(gains: &[Vec<f64>], target: f64, cap: usize) -> Vec<usize> {
    let n_seq = gains[0].len();
    let oracle_mean: f64 =
        gains.iter().map(|g| g.iter().cloned().fold(f64::MIN, f64::max)).sum::<f64>()
            / gains.len() as f64;
    let mut chosen: Vec<usize> = Vec::new();
    let mut best_per_region = vec![f64::MIN; gains.len()];
    while chosen.len() < cap.min(n_seq) {
        let mut best = None;
        let mut best_score = f64::MIN;
        for s in 0..n_seq {
            if chosen.contains(&s) {
                continue;
            }
            let score: f64 = gains.iter().zip(&best_per_region).map(|(g, &b)| b.max(g[s])).sum();
            if score > best_score {
                best_score = score;
                best = Some(s);
            }
        }
        let s = best.expect("unchosen sequences remain");
        chosen.push(s);
        for (r, g) in gains.iter().enumerate() {
            best_per_region[r] = best_per_region[r].max(g[s]);
        }
        let mean = best_per_region.iter().sum::<f64>() / gains.len() as f64;
        if mean >= target * oracle_mean {
            break;
        }
    }
    chosen
}

impl FlagModel {
    /// Train on the training regions: build the gains matrix, select
    /// candidate sequences, label each region with its best candidate, and
    /// fit the GA-subset decision tree over the embeddings.
    pub fn train(ds: &Dataset, sm: &StaticModel, train_idx: &[usize], p: FlagParams) -> FlagModel {
        let _span = irnuma_obs::span!("model.flags.train", regions = train_idx.len());
        let gains = gains_matrix(ds, sm, train_idx);
        let candidates = select_candidates(&gains, p.target_coverage, p.max_candidates);

        let y: Vec<usize> = gains
            .iter()
            .map(|g| {
                candidates
                    .iter()
                    .enumerate()
                    .max_by(|a, b| g[*a.1].total_cmp(&g[*b.1]).then(b.0.cmp(&a.0)))
                    .map(|(i, _)| i)
                    .expect("non-empty candidates")
            })
            .collect();
        let embeddings: Vec<Vec<f32>> = train_idx.iter().map(|&r| sm.embedding(ds, r)).collect();
        let dim = embeddings[0].len();
        let k = p.feature_subset.min(dim);

        let x = Presorted::new(&embeddings);
        let loo = LooFolds::new(&x, &y, TreeParams::default());

        // GA fitness: leave-one-out accuracy of the tree on the selected dims.
        let fitness = |sel: &[usize]| -> f64 {
            let preds = loo.predictions(sel);
            let correct = preds.iter().zip(&y).filter(|(p, t)| p == t).count();
            correct as f64 / y.len() as f64
        };
        let (selected_dims, _) = Ga::new(p.ga).select_features(dim, k, fitness);

        let tree = DecisionTree::fit_presorted(&x, &selected_dims, &y, None, TreeParams::default());
        FlagModel { tree, selected_dims, candidates }
    }

    /// The flag sequence (index into `Dataset::sequences`) predicted for a
    /// region.
    pub fn predict_seq(&self, ds: &Dataset, sm: &StaticModel, region: usize) -> usize {
        let e = sm.embedding(ds, region);
        let x: Vec<f32> = self.selected_dims.iter().map(|&d| e[d]).collect();
        self.candidates[self.tree.predict(&x).min(self.candidates.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_selection_reaches_target_or_cap() {
        // 3 regions × 4 sequences; region r peaks at sequence r.
        let gains =
            vec![vec![2.0, 1.0, 1.0, 1.5], vec![1.0, 2.0, 1.0, 1.5], vec![1.0, 1.0, 2.0, 1.5]];
        // Greedy starts with the best-average seq (3), then needs all three
        // peak sequences to reach the oracle.
        let full = select_candidates(&gains, 0.999, 4);
        assert_eq!(full, vec![3, 0, 1, 2]);

        let capped = select_candidates(&gains, 0.999, 1);
        assert_eq!(capped, vec![3], "single best-average sequence");

        let loose = select_candidates(&gains, 0.74, 4);
        assert_eq!(loose.len(), 1, "1.5 mean ≥ 74% of 2.0 oracle");
    }
}
