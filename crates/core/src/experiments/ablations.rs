//! Ablation studies over the design choices the paper takes as given:
//!
//! * **edge relations** — ProGraML's three flows (control/data/call) vs
//!   dropping each one (does the RGCN actually use the typed structure?);
//! * **augmentation** — training with 1 vs k flag sequences per region (the
//!   paper's step A in isolation);
//! * **hidden width** — the embedding size (paper: 256; our default: 32).
//!
//! Each ablation trains the static model under 3-fold CV at reduced scale
//! and reports validation label accuracy and mean speedup.

use crate::dataset::Dataset;
use crate::experiments::{f3, FigureReport};
use crate::models::static_gnn::{training_sequence_ids, StaticParams};
use irnuma_graph::Vocab;
use irnuma_ml::kfold;
use irnuma_nn::{GnnClassifier, GnnConfig, GraphData, TrainParams};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    pub name: String,
    pub label_accuracy: f64,
    pub mean_speedup: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablations {
    pub points: Vec<AblationPoint>,
}

/// Which edge relations the model may see.
#[derive(Debug, Clone, Copy)]
struct RelationMask {
    control: bool,
    data: bool,
    call: bool,
}

fn mask_graph(g: &GraphData, m: RelationMask) -> GraphData {
    // Rebuilt via `from_parts` (not clone-and-mutate) so the masked graph
    // starts with a fresh CSR adjacency cache.
    let keep = [m.control, m.data, m.call];
    let mut edges = g.edges.clone();
    let mut norm = g.norm.clone();
    for (r, k) in keep.iter().enumerate() {
        if !k {
            edges[r].clear();
            norm[r].clear();
        }
    }
    GraphData::from_parts(g.node_text.clone(), edges, norm)
}

/// Train/evaluate the static classifier under 3-fold CV with a graph
/// transformer and a sequence-subsample size; returns (accuracy, speedup).
fn run_variant(
    ds: &Dataset,
    p: StaticParams,
    train_seqs: usize,
    transform: &dyn Fn(&GraphData) -> GraphData,
) -> (f64, f64) {
    let vocab = Vocab::full();
    let folds = kfold(ds.regions.len(), 3, 0xAB1A).expect("3 folds fit the region suite");
    let mut correct = 0usize;
    let mut gain = 0.0;
    for (fi, validation) in folds.iter().enumerate() {
        let train: Vec<usize> = irnuma_ml::cv::train_indices(&folds, fi);
        let seq_ids = training_sequence_ids(ds.sequences.len(), train_seqs);
        let mut graphs = Vec::new();
        let mut labels = Vec::new();
        for &r in &train {
            for &s in &seq_ids {
                graphs.push(transform(&ds.regions[r].graphs[s]));
                labels.push(ds.labels[r]);
            }
        }
        let mut clf = GnnClassifier::new(GnnConfig {
            vocab_size: vocab.len(),
            hidden: p.hidden,
            classes: ds.chosen_configs.len(),
            layers: 2,
            layer_norm: true,
            seed: p.seed,
        });
        clf.fit(
            graphs,
            labels,
            TrainParams { epochs: p.epochs, batch_size: p.batch, lr: p.lr, seed: p.seed },
        );
        for &r in validation {
            let g = transform(&ds.regions[r].graphs[0]);
            let pred = clf.model.infer(&g).label();
            if pred == ds.labels[r] {
                correct += 1;
            }
            gain += ds.regions[r].default_time / ds.label_time(r, pred);
        }
    }
    let n = ds.regions.len() as f64;
    (correct as f64 / n, gain / n)
}

/// Run all three ablation families on a pre-built dataset.
pub fn run(ds: &Dataset, base: StaticParams) -> Ablations {
    let _span = irnuma_obs::span!("exp.ablations");
    let mut points = Vec::new();
    let id = |g: &GraphData| g.clone();

    // Relation ablations.
    let full = RelationMask { control: true, data: true, call: true };
    let variants: [(&str, RelationMask); 4] = [
        ("all-relations", full),
        ("no-control", RelationMask { control: false, ..full }),
        ("no-data", RelationMask { data: false, ..full }),
        ("no-call", RelationMask { call: false, ..full }),
    ];
    for (name, m) in variants {
        let t = move |g: &GraphData| mask_graph(g, m);
        let (acc, gain) = run_variant(ds, base, base.train_sequences, &t);
        points.push(AblationPoint {
            name: format!("relations/{name}"),
            label_accuracy: acc,
            mean_speedup: gain,
        });
    }

    // Augmentation ablation: 1 sequence vs the configured count.
    for k in [1usize, base.train_sequences] {
        let (acc, gain) = run_variant(ds, base, k, &id);
        points.push(AblationPoint {
            name: format!("augmentation/{k}-seqs"),
            label_accuracy: acc,
            mean_speedup: gain,
        });
    }

    // Width ablation.
    for h in [8usize, base.hidden] {
        let p = StaticParams { hidden: h, ..base };
        let (acc, gain) = run_variant(ds, p, base.train_sequences, &id);
        points.push(AblationPoint {
            name: format!("hidden/{h}"),
            label_accuracy: acc,
            mean_speedup: gain,
        });
    }

    Ablations { points }
}

impl Ablations {
    pub fn report(&self) -> FigureReport {
        let mut r = FigureReport::new(
            "ablations",
            "Design-choice ablations: relations, augmentation, width",
            &["variant", "label_accuracy", "mean_speedup"],
        );
        for p in &self.points {
            r.push_row(vec![p.name.clone(), f3(p.label_accuracy), f3(p.mean_speedup)]);
        }
        let get = |n: &str| self.points.iter().find(|p| p.name == n);
        if let (Some(all), Some(nd)) = (get("relations/all-relations"), get("relations/no-data")) {
            r.note(format!(
                "dropping data-flow edges: accuracy {:.2} → {:.2} (typed structure matters)",
                all.label_accuracy, nd.label_accuracy
            ));
        }
        if let (Some(one), Some(many)) = (
            self.points.iter().find(|p| p.name == "augmentation/1-seqs"),
            self.points
                .iter()
                .find(|p| p.name.starts_with("augmentation/") && p.name != "augmentation/1-seqs"),
        ) {
            r.note(format!(
                "augmentation {} → {}: accuracy {:.2} → {:.2} (the paper's step A in isolation)",
                one.name, many.name, one.label_accuracy, many.label_accuracy
            ));
        }
        r
    }
}
