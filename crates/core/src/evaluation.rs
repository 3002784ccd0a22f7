//! Cross-validated evaluation of all models (the machinery behind every
//! figure): 10 folds, each training the static model, dynamic baseline,
//! hybrid router, and flag model on 9 folds and scoring the held-out fold.

use crate::dataset::{build_dataset, Dataset, DatasetParams};
use crate::models::flags::FlagParams;
use crate::models::hybrid::{static_needs_profiling, HybridParams};
use crate::models::{DynamicModel, FlagModel, HybridModel, StaticModel, StaticParams};
use irnuma_ml::{kfold, relative_difference, CvError};
use irnuma_sim::MicroArch;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Everything configurable about a full pipeline run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PipelineConfig {
    pub arch: MicroArch,
    pub dataset: DatasetParams,
    pub folds: usize,
    pub static_params: StaticParams,
    pub hybrid: HybridParams,
    pub flags: FlagParams,
    /// Skip the hybrid router and flag model (figures that only need the
    /// static/dynamic models, e.g. the Fig. 6 label sweep).
    pub light: bool,
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            arch: MicroArch::Skylake,
            dataset: DatasetParams::default(),
            folds: 10,
            static_params: StaticParams::default(),
            hybrid: HybridParams::default(),
            flags: FlagParams::default(),
            light: false,
            seed: 0xF01D,
        }
    }
}

impl PipelineConfig {
    /// A configuration small enough for unit/integration tests — including
    /// debug builds, where GNN training is an order of magnitude slower.
    pub fn fast(arch: MicroArch) -> PipelineConfig {
        PipelineConfig {
            arch,
            dataset: DatasetParams { num_sequences: 4, calls: 3, ..Default::default() },
            folds: 3,
            static_params: StaticParams {
                hidden: 16,
                epochs: 5,
                train_sequences: 2,
                ..Default::default()
            },
            hybrid: HybridParams {
                inner_folds: 2,
                ga: irnuma_ml::GaParams { population: 16, generations: 4, ..Default::default() },
                ..Default::default()
            },
            flags: FlagParams {
                ga: irnuma_ml::GaParams { population: 16, generations: 4, ..Default::default() },
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// What happened to one region in its validation fold.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionOutcome {
    pub region: usize,
    pub name: String,
    pub fold: usize,
    pub default_time: f64,
    pub full_best_time: f64,
    /// Best time within the reduced label set (per-region oracle).
    pub oracle_time: f64,
    pub oracle_label: usize,
    pub static_label: usize,
    pub static_time: f64,
    pub dynamic_label: usize,
    pub dynamic_time: f64,
    /// Whether the hybrid router sent this region to profiling.
    pub hybrid_used_dynamic: bool,
    pub hybrid_time: f64,
    /// Ground truth: the static prediction misses full exploration by >20%.
    pub needs_profiling: bool,
    /// Prediction error vs full exploration (relative difference).
    pub static_error: f64,
    pub dynamic_error: f64,
    /// Flag-model deployment: per-region predicted sequence and its time.
    pub predicted_seq: usize,
    pub predicted_seq_time: f64,
}

impl RegionOutcome {
    pub fn route_correct(&self) -> bool {
        self.hybrid_used_dynamic == self.needs_profiling
    }
}

/// The per-fold models, kept for the figure drivers that need embeddings or
/// extra predictions (e.g. per-sequence matrices).
pub struct FoldModels {
    pub fold: usize,
    pub validation: Vec<usize>,
    pub train: Vec<usize>,
    pub static_model: StaticModel,
    pub dynamic_model: DynamicModel,
    /// Absent in light mode.
    pub hybrid_model: Option<HybridModel>,
    /// Absent in light mode.
    pub flag_model: Option<FlagModel>,
}

/// The full evaluation result.
pub struct Evaluation {
    pub cfg: PipelineConfig,
    pub dataset: Dataset,
    /// One outcome per region (from the fold where it was validation).
    pub outcomes: Vec<RegionOutcome>,
    pub folds: Vec<FoldModels>,
    /// `pred_time[region][sequence]`: validation-time predicted-config time
    /// had the model used that sequence (Figs. 5 and 11).
    pub pred_time_by_seq: Vec<Vec<f64>>,
}

impl Evaluation {
    pub fn mean_speedup(&self, pick: impl Fn(&RegionOutcome) -> f64) -> f64 {
        self.outcomes.iter().map(|o| o.default_time / pick(o)).sum::<f64>()
            / self.outcomes.len() as f64
    }

    pub fn static_speedup(&self) -> f64 {
        self.mean_speedup(|o| o.static_time)
    }

    pub fn dynamic_speedup(&self) -> f64 {
        self.mean_speedup(|o| o.dynamic_time)
    }

    pub fn hybrid_speedup(&self) -> f64 {
        self.mean_speedup(|o| o.hybrid_time)
    }

    pub fn full_exploration_speedup(&self) -> f64 {
        self.mean_speedup(|o| o.full_best_time)
    }

    /// Fraction of regions the hybrid model actually profiled.
    pub fn profiled_fraction(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.hybrid_used_dynamic).count() as f64
            / self.outcomes.len() as f64
    }

    /// Router accuracy (paper: ~92%).
    pub fn route_accuracy(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.route_correct()).count() as f64
            / self.outcomes.len() as f64
    }

    /// Static-model label accuracy over validation regions.
    pub fn static_label_accuracy(&self) -> f64 {
        self.outcomes.iter().filter(|o| o.static_label == o.oracle_label).count() as f64
            / self.outcomes.len() as f64
    }
}

/// Run the full cross-validated pipeline on one machine. Errors (rather
/// than asserting) when the fold configuration is impossible for the
/// dataset — e.g. more folds than surviving regions after skips.
pub fn evaluate(cfg: &PipelineConfig) -> Result<Evaluation, CvError> {
    let dataset = build_dataset(cfg.arch, &cfg.dataset);
    evaluate_on(cfg, dataset)
}

/// Run the pipeline on an already-built dataset (used by Fig. 6's label
/// sweep, which re-labels the same dataset).
///
/// The folds are independent, so one ordered parallel map runs them, one
/// fold per item. The fits inside a fold then run start to finish on that
/// fold's thread (nested parallel calls run inline), and every summation
/// tree depends only on chunk lengths, so the result is bit-identical at
/// any pool size.
pub fn evaluate_on(cfg: &PipelineConfig, dataset: Dataset) -> Result<Evaluation, CvError> {
    let n = dataset.regions.len();
    let span = irnuma_obs::span!("eval.run", regions = n, folds = cfg.folds, light = cfg.light);
    let ctx = span.ctx();
    let folds_idx = kfold(n, cfg.folds, cfg.seed)?;

    let runs: Vec<(FoldModels, Vec<ScoredRegion>)> = (0..folds_idx.len())
        .into_par_iter()
        .map(|fi| {
            let validation = folds_idx[fi].len();
            let _fold_span =
                irnuma_obs::span_under!(ctx, "eval.fold", fold = fi, validation = validation);
            run_fold(cfg, &dataset, &folds_idx, fi)
        })
        .collect();

    let mut outcomes: Vec<Option<RegionOutcome>> = (0..n).map(|_| None).collect();
    let mut pred_time_by_seq: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut folds = Vec::with_capacity(runs.len());
    for (fold, scored) in runs {
        for (outcome, times) in scored {
            let r = outcome.region;
            pred_time_by_seq[r] = times;
            outcomes[r] = Some(outcome);
        }
        folds.push(fold);
    }

    Ok(Evaluation {
        cfg: *cfg,
        dataset,
        outcomes: outcomes.into_iter().map(|o| o.expect("every region validated once")).collect(),
        folds,
        pred_time_by_seq,
    })
}

/// A validation region's outcome and its per-sequence prediction times.
type ScoredRegion = (RegionOutcome, Vec<f64>);

/// Train fold `fi`'s models on the other folds and score its validation
/// regions.
fn run_fold(
    cfg: &PipelineConfig,
    dataset: &Dataset,
    folds_idx: &[Vec<usize>],
    fi: usize,
) -> (FoldModels, Vec<ScoredRegion>) {
    let validation = &folds_idx[fi];
    let train: Vec<usize> = irnuma_ml::cv::train_indices(folds_idx, fi);
    let sm = StaticModel::train(dataset, &train, cfg.static_params);
    let dm = DynamicModel::train(dataset, &train);
    let hm = (!cfg.light)
        .then(|| HybridModel::train(dataset, &sm, &train, cfg.hybrid, cfg.static_params));
    let fm = (!cfg.light).then(|| FlagModel::train(dataset, &sm, &train, cfg.flags));

    let scored = validation
        .iter()
        .map(|&r| {
            let static_label = sm.predict(dataset, r);
            let static_time = dataset.label_time(r, static_label);
            let dynamic_label = dm.predict(dataset, r);
            let dynamic_time = dataset.label_time(r, dynamic_label);
            let route_dyn =
                hm.as_ref().map(|h| h.route_to_dynamic(dataset, &sm, r)).unwrap_or(false);
            let hybrid_time = if route_dyn { dynamic_time } else { static_time };
            let needs = static_needs_profiling(dataset, &sm, r, cfg.hybrid.error_threshold);
            let full = dataset.regions[r].full_best_time();
            let pseq =
                fm.as_ref().map(|f| f.predict_seq(dataset, &sm, r)).unwrap_or(sm.explored_seq);
            let plabel = sm.predict_with_seq(dataset, r, pseq);

            let outcome = RegionOutcome {
                region: r,
                name: dataset.regions[r].spec.name.clone(),
                fold: fi,
                default_time: dataset.regions[r].default_time,
                full_best_time: full,
                oracle_time: dataset.oracle_time(r),
                oracle_label: dataset.labels[r],
                static_label,
                static_time,
                dynamic_label,
                dynamic_time,
                hybrid_used_dynamic: route_dyn,
                hybrid_time,
                needs_profiling: needs,
                static_error: relative_difference(full, static_time),
                dynamic_error: relative_difference(full, dynamic_time),
                predicted_seq: pseq,
                predicted_seq_time: dataset.label_time(r, plabel),
            };

            // Per-sequence prediction times (validation view): the region's
            // graphs are sequence-ordered, so one batched inference pass
            // covers every sequence.
            let times = sm
                .clf
                .model
                .infer_batch(&dataset.regions[r].graphs)
                .iter()
                .map(|o| dataset.label_time(r, o.label()))
                .collect();
            (outcome, times)
        })
        .collect();

    let fold = FoldModels {
        fold: fi,
        validation: validation.clone(),
        train,
        static_model: sm,
        dynamic_model: dm,
        hybrid_model: hm,
        flag_model: fm,
    };
    (fold, scored)
}
