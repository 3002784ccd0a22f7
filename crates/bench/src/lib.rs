//! # irnuma-bench — benchmark harness and figure regeneration
//!
//! * `cargo run -p irnuma-bench --release --bin figures -- all` regenerates
//!   every evaluation figure of the paper (Fig. 3–12), printing the rows and
//!   writing CSVs under `results/`.
//! * The Criterion benches (`cargo bench`) measure the substrates: IR passes
//!   and flag pipelines, graph construction, the simulator sweep, GNN
//!   forward/backward, plus a per-figure wall-time bench.
//!
//! This library exposes the preset pipeline configurations shared by the
//! binary and the benches.

use irnuma_core::dataset::DatasetParams;
use irnuma_core::evaluation::PipelineConfig;
use irnuma_core::models::static_gnn::StaticParams;
use irnuma_sim::MicroArch;

/// The default experiment scale: large enough for paper-shaped results,
/// small enough to run all figures in minutes on a laptop.
pub fn standard_config(arch: MicroArch) -> PipelineConfig {
    PipelineConfig {
        arch,
        dataset: DatasetParams { num_sequences: 48, calls: 6, ..Default::default() },
        folds: 10,
        static_params: StaticParams {
            hidden: 32,
            epochs: 20,
            train_sequences: 10,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Paper-scale settings (1000 sequences, 256-wide embeddings). Hours, not
/// minutes; exposed for completeness via `figures --paper-scale`.
pub fn paper_scale_config(arch: MicroArch) -> PipelineConfig {
    PipelineConfig {
        arch,
        dataset: DatasetParams { num_sequences: 1000, calls: 10, ..Default::default() },
        folds: 10,
        static_params: StaticParams {
            hidden: 256,
            epochs: 30,
            train_sequences: 24,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Tiny settings for smoke tests and the figures bench.
pub fn smoke_config(arch: MicroArch) -> PipelineConfig {
    PipelineConfig {
        arch,
        dataset: DatasetParams { num_sequences: 6, calls: 3, ..Default::default() },
        folds: 4,
        static_params: StaticParams {
            hidden: 16,
            epochs: 6,
            train_sequences: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}
