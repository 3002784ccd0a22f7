//! Ablation studies over the design choices the paper takes as given:
//!
//! * **edge relations** — ProGraML's three flows (control/data/call) vs
//!   dropping each one (does the RGCN actually use the typed structure?);
//! * **augmentation** — training with 1 vs k flag sequences per region (the
//!   paper's step A in isolation);
//! * **hidden width** — the embedding size (paper: 256; our default: 32).
//!
//! Each variant is one light [`evaluate_on`] over 3 folds: the static model
//! trains, picks its explored sequence and is scored exactly as in every
//! other figure, on a copy of the dataset whose graphs keep only the
//! variant's relations. The three rows that name the base configuration
//! (all relations, the configured sequence count and width) are one run.

use crate::dataset::Dataset;
use crate::evaluation::{evaluate_on, PipelineConfig};
use crate::experiments::{f3, FigureReport};
use crate::models::static_gnn::StaticParams;
use irnuma_nn::GraphData;
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

/// Run all three ablation families on `ds` (the main evaluation's dataset)
/// under `cfg`'s static parameters.
pub fn run(ds: &Dataset, cfg: &PipelineConfig) -> Ablations {
    let _span = irnuma_obs::span!("exp.ablations");
    let base = cfg.static_params;
    let full = RelationMask { control: true, data: true, call: true };
    let variant = |name: String, m: RelationMask, static_params: StaticParams| {
        let mut masked = ds.clone();
        for g in masked.regions.iter_mut().flat_map(|r| r.graphs.iter_mut()) {
            *g = mask_graph(g, m);
        }
        let cfg = PipelineConfig { folds: 3, seed: 0xAB1A, light: true, static_params, ..*cfg };
        let eval = evaluate_on(&cfg, masked).expect("3 folds fit the region suite");
        AblationPoint {
            name,
            label_accuracy: eval.static_label_accuracy(),
            mean_speedup: eval.static_speedup(),
        }
    };
    let all = variant("relations/all-relations".into(), full, base);
    let renamed = |name: String| AblationPoint { name, ..all.clone() };

    let mut points = vec![all.clone()];
    for (name, m) in [
        ("no-control", RelationMask { control: false, ..full }),
        ("no-data", RelationMask { data: false, ..full }),
        ("no-call", RelationMask { call: false, ..full }),
    ] {
        points.push(variant(format!("relations/{name}"), m, base));
    }
    // Augmentation: 1 sequence vs the configured count.
    let one = StaticParams { train_sequences: 1, ..base };
    points.push(variant("augmentation/1-seqs".into(), full, one));
    points.push(renamed(format!("augmentation/{}-seqs", base.train_sequences)));
    // Width.
    points.push(variant("hidden/8".into(), full, StaticParams { hidden: 8, ..base }));
    points.push(renamed(format!("hidden/{}", base.hidden)));

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
                "dropping data-flow edges: accuracy {:.2} → {:.2}, speedup {:.2}x → {:.2}x",
                all.label_accuracy, nd.label_accuracy, all.mean_speedup, nd.mean_speedup
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

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_nn::graphdata::NUM_RELATIONS;

    /// Four nodes with edges and distinct norms in all three relations
    /// (control, data, call: the `GraphData` relation order).
    fn graph() -> GraphData {
        GraphData::from_parts(
            vec![3, 1, 4, 1],
            [vec![(0, 1), (1, 2)], vec![(2, 3), (0, 3), (1, 3)], vec![(3, 0)]],
            [vec![1.0, 0.5], vec![0.25, 0.5, 0.75], vec![-1.0]],
        )
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dropping_a_relation_clears_exactly_its_edges_and_norms() {
        let g = graph();
        let full = RelationMask { control: true, data: true, call: true };
        let masks = [
            (Some(0), RelationMask { control: false, ..full }),
            (Some(1), RelationMask { data: false, ..full }),
            (Some(2), RelationMask { call: false, ..full }),
            (None, full),
        ];
        for (dropped, m) in masks {
            let h = mask_graph(&g, m);
            assert_eq!(h.node_text, g.node_text, "{m:?}: node tokens kept");
            for r in 0..NUM_RELATIONS {
                if Some(r) == dropped {
                    assert!(h.edges[r].is_empty() && h.norm[r].is_empty(), "{m:?}: relation {r}");
                } else {
                    assert_eq!(h.edges[r], g.edges[r], "{m:?}: relation {r} edges kept");
                    assert_eq!(bits(&h.norm[r]), bits(&g.norm[r]), "{m:?}: relation {r} norms");
                }
            }
        }
    }
}
