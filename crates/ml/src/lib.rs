//! # irnuma-ml — classical machine-learning substrate
//!
//! Everything non-neural the paper uses:
//!
//! * [`tree::DecisionTree`] — a CART classifier with Gini impurity and
//!   scikit-learn's default settings (unbounded depth, `min_samples_split =
//!   2`, `min_samples_leaf = 1`). The paper feeds it the GNN embeddings for
//!   the hybrid and flag-prediction models, and the performance counters
//!   for the dynamic baseline. Its split search is presorted: a
//!   [`tree::Presorted`] matrix sorts each column once.
//! * [`loo::LooFolds`] — the GA's leave-one-out fitness over column subsets
//!   of a presorted matrix. It tables every fold's root splits once per GA
//!   and grows only the held-out row's path below them, predicting exactly
//!   what a per-fold refit would.
//! * [`ga::Ga`] — a pyeasyga-style genetic algorithm (population 500,
//!   crossover 0.8, mutation 0.1) used to pick a 10-of-256 feature subset.
//! * [`cv`] — deterministic k-fold cross-validation splits (the paper uses
//!   10 folds over the 56 regions).
//! * [`labels`] — the configuration-label reduction of Sánchez Barrera et
//!   al.: greedily select the k configurations (13/6/2) that retain the
//!   most of the full space's gains.
//! * [`metrics`] — relative differences, arithmetic-mean speedups, accuracy.

pub mod cv;
pub mod ga;
pub mod labels;
pub mod loo;
pub mod metrics;
pub mod tree;

pub use cv::{kfold, CvError};
pub use ga::{Ga, GaParams};
pub use labels::{coverage, reduce_labels};
pub use loo::LooFolds;
pub use metrics::{accuracy, mean_speedup, relative_difference};
pub use tree::{DecisionTree, Presorted, TreeParams};
