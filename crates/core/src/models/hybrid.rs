//! The hybrid model (paper §III-D.2): a decision tree over a GA-selected
//! subset of the static embedding that predicts whether the static model's
//! error exceeds the 20% threshold; if so, the region is profiled and the
//! dynamic model decides.

use crate::dataset::Dataset;
use crate::models::static_gnn::StaticModel;
use irnuma_ml::{relative_difference, DecisionTree, Ga, GaParams, LooFolds, Presorted, TreeParams};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Hybrid-model hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HybridParams {
    /// Error threshold above which a region "needs profiling" (paper: 20%).
    pub error_threshold: f64,
    /// Embedding dimensions kept by the GA (paper: 10 of 256).
    pub feature_subset: usize,
    /// Inner-CV folds used to produce honest routing labels.
    pub inner_folds: usize,
    pub ga: GaParams,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams {
            error_threshold: 0.20,
            feature_subset: 10,
            inner_folds: 5,
            ga: GaParams { population: 100, generations: 20, ..Default::default() },
        }
    }
}

/// The router: static-is-enough vs needs-profiling.
pub struct HybridModel {
    tree: DecisionTree,
    pub selected_dims: Vec<usize>,
    pub params: HybridParams,
}

/// Whether the static model's prediction for `region` misses the full
/// exploration by more than `threshold` (the routing ground truth).
pub fn static_needs_profiling(
    ds: &Dataset,
    sm: &StaticModel,
    region: usize,
    threshold: f64,
) -> bool {
    let pred = sm.predict(ds, region);
    let t_pred = ds.label_time(region, pred);
    let t_full = ds.regions[region].full_best_time();
    relative_difference(t_full, t_pred) > threshold
}

/// Honest routing training data: inner cross-validation over the training
/// regions. Each held-out region is scored *and featurized* by a static
/// model that has not seen it — the same condition the deployed router
/// faces on a validation region. Training-set errors would underestimate
/// failures and teach the router to never profile; final-model features
/// with sub-model labels would be misaligned.
pub fn inner_cv_needs_labels(
    ds: &Dataset,
    train_idx: &[usize],
    threshold: f64,
    inner_folds: usize,
    static_params: crate::models::static_gnn::StaticParams,
) -> (Vec<Vec<f32>>, Vec<usize>) {
    let inner_folds = inner_folds.clamp(2, train_idx.len());
    let held_out = |f: usize| (f..train_idx.len()).step_by(inner_folds);
    // The inner fits are independent: one ordered parallel map runs them,
    // each under the caller's trace context so their spans stay children
    // of the caller's.
    let ctx = irnuma_obs::TraceContext::capture();
    let scored: Vec<Vec<(bool, Vec<f32>)>> = (0..inner_folds)
        .into_par_iter()
        .map(|f| {
            let _ctx = ctx.attach();
            let sub_train: Vec<usize> = train_idx
                .iter()
                .enumerate()
                .filter(|(i, _)| i % inner_folds != f)
                .map(|(_, &r)| r)
                .collect();
            let sub_model = StaticModel::train(ds, &sub_train, static_params);
            held_out(f)
                .map(|i| {
                    let r = train_idx[i];
                    let needs = static_needs_profiling(ds, &sub_model, r, threshold);
                    (needs, sub_model.router_features(ds, r))
                })
                .collect()
        })
        .collect();

    let mut needs = vec![0usize; train_idx.len()];
    let mut feats: Vec<Vec<f32>> = vec![Vec::new(); train_idx.len()];
    for (f, fold) in scored.into_iter().enumerate() {
        for (i, (need, feat)) in held_out(f).zip(fold) {
            needs[i] = need as usize;
            feats[i] = feat;
        }
    }
    (feats, needs)
}

impl HybridModel {
    /// Train the router on the training regions' embeddings and honest
    /// (inner-CV) static-error labels.
    pub fn train(
        ds: &Dataset,
        sm: &StaticModel,
        train_idx: &[usize],
        p: HybridParams,
        static_params: crate::models::static_gnn::StaticParams,
    ) -> HybridModel {
        let _span = irnuma_obs::span!(
            "model.hybrid.train",
            regions = train_idx.len(),
            inner_folds = p.inner_folds
        );
        // Router features come from the inner sub-models, not from `sm`.
        let _ = sm;
        // Inner sub-models use two-thirds of the epochs: enough fidelity
        // for honest labels at 40% less cost.
        let inner = crate::models::static_gnn::StaticParams {
            epochs: (static_params.epochs * 2 / 3).max(3),
            ..static_params
        };
        let (embeddings, y) =
            inner_cv_needs_labels(ds, train_idx, p.error_threshold, p.inner_folds, inner);
        let dim = embeddings[0].len();
        let k = p.feature_subset.min(dim);
        // The embeddings are fixed for the whole GA: sort each column once.
        let x = Presorted::new(&embeddings);

        // The router tree is depth-limited: the training set is ~50 regions
        // and the full-depth CART memorizes it without transferring.
        let tree_params = TreeParams { max_depth: Some(2), ..Default::default() };
        let loo = LooFolds::new(&x, &y, tree_params);

        // GA fitness: leave-one-out *balanced* accuracy of the tree on the
        // selected dims (the paper optimizes the same objective with
        // pyeasyga; balancing matters because "needs profiling" is the
        // minority class).
        let fitness = |sel: &[usize]| -> f64 {
            let mut hit = [0usize; 2];
            let mut tot = [0usize; 2];
            for (pred, &truth) in loo.predictions(sel).into_iter().zip(&y) {
                tot[truth] += 1;
                hit[truth] += usize::from(pred == truth);
            }
            let recall = |c: usize| {
                if tot[c] == 0 {
                    1.0
                } else {
                    hit[c] as f64 / tot[c] as f64
                }
            };
            0.5 * (recall(0) + recall(1))
        };
        let (selected_dims, _) = Ga::new(p.ga).select_features(dim, k, fitness);

        let tree = DecisionTree::fit_presorted(&x, &selected_dims, &y, None, tree_params);
        HybridModel { tree, selected_dims, params: p }
    }

    /// Should this region be profiled (routed to the dynamic model)?
    pub fn route_to_dynamic(&self, ds: &Dataset, sm: &StaticModel, region: usize) -> bool {
        let e = sm.router_features(ds, region);
        let x: Vec<f32> = self.selected_dims.iter().map(|&d| e[d]).collect();
        self.tree.predict(&x) == 1
    }
}
