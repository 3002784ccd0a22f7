//! # irnuma-core — the paper's pipeline, end to end
//!
//! This crate wires the substrates into the workflow of Fig. 1:
//!
//! * **Step A** ([`dataset`]): compile every region under many sampled flag
//!   sequences (`irnuma-passes`), producing augmented IR forms.
//! * **Step B** ([`dataset`]): extract each outlined region
//!   (`irnuma-ir::extract`) and build its ProGraML graph (`irnuma-graph`).
//! * **Step C** ([`dataset`]): sweep the NUMA × prefetch space
//!   (`irnuma-sim`) once per region with default flags, reduce the space to
//!   13/6/2 label configurations (`irnuma-ml::labels`), and label each
//!   region with its best.
//! * **Step D** ([`models`]): train the RGCN **static model**
//!   (`irnuma-nn`) on the augmented graphs; train the **dynamic baseline**
//!   (decision tree on package power + L3 miss ratio); build the **hybrid
//!   model** (decision tree over GA-selected embedding dimensions that
//!   routes hard regions to the dynamic model).
//! * **Step E** ([`models::flags`]): choose the deployment flag sequence —
//!   *explored* (best average on training regions) or *predicted* (a
//!   decision-tree flag model).
//!
//! [`evaluation`] runs the whole thing under 10-fold cross-validation and
//! produces the per-region outcomes that [`experiments`] turns into every
//! figure of the paper (Fig. 3–12).

pub mod bench_check;
pub mod dataset;
pub mod dataset_pack;
pub mod evaluation;
pub mod experiments;
pub mod models;
pub mod serve_bench;
pub mod top;
pub mod trace_report;

pub use dataset::{
    build_dataset, build_dataset_report, BuildOptions, Dataset, DatasetBuild, DatasetError,
    DatasetParams, RegionData, SkipRecord,
};
pub use dataset_pack::{
    build_packed_dataset, load_packed, open_stream, pack_dataset, read_meta, PackSummary,
    PackedBuild, PackedMeta, PackedRegion,
};
pub use evaluation::{evaluate, Evaluation, FoldModels, PipelineConfig, RegionOutcome};
