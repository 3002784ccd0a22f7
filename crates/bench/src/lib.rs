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
use std::path::{Path, PathBuf};

/// Write benchmark medians as `BENCH_<name>.json` at the repository root —
/// a flat `{"id": median_ns}` object, written by bench binaries with a
/// hand-written `main` from `Criterion::medians()` (plus any derived
/// metrics, e.g. speedups). Returns the path written.
pub fn write_bench_json(name: &str, entries: &[(String, f64)]) -> std::io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(format!("BENCH_{name}.json"));
    let mut body = String::from("{\n");
    for (i, (id, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!("  \"{id}\": {v:.3}{sep}\n"));
    }
    body.push_str("}\n");
    irnuma_store::atomic_write(&path, body.as_bytes())?;
    Ok(path)
}

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
