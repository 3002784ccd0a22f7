//! Property tests pinning the fused forward+backward engine to the autograd
//! tape, its reference oracle: over random graphs, widths, depths, labels
//! and the layer-norm ablation, the fused forward loss must be bit-identical
//! to the tape's and every parameter gradient must agree within `1e-4`.

use crate::backprop::{FusedEngine, GradBuffer, TrainScratch};
use crate::dispatch::ModelPlan;
use crate::graphdata::{GraphData, NUM_RELATIONS};
use crate::model::{GnnConfig, GnnModel};
use proptest::prelude::*;

const VOCAB: usize = 20;

/// A random connected-ish multigraph: a chain backbone guarantees every node
/// participates, random extra edges (any relation, self-loops and duplicates
/// allowed) exercise fan-in, empty relations, and `1/c` normalization.
fn graph_strategy() -> impl Strategy<Value = GraphData> {
    (2usize..9, prop::collection::vec((0u8..3, 0u16..64, 0u16..64), 0..14)).prop_map(
        |(n, extra)| {
            let node_text: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % VOCAB as u32).collect();
            let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
            for i in 1..n as u32 {
                edges[0].push((i - 1, i));
            }
            for (r, s, d) in extra {
                edges[r as usize].push((s as u32 % n as u32, d as u32 % n as u32));
            }
            GraphData::from_edge_lists(node_text, edges)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_gradients_match_the_tape_oracle(
        g in graph_strategy(),
        hidden in prop::sample::select(vec![4usize, 8, 11]),
        layers in 1usize..4,
        ln_bit in 0u8..2,
        label in 0usize..5,
        seed in 0u64..1000,
    ) {
        let m = GnnModel::new(GnnConfig {
            vocab_size: VOCAB,
            hidden,
            classes: 5,
            layers,
            layer_norm: ln_bit == 1,
            seed,
        });
        let (tape_loss, tape_grads) = m.loss_and_grads(&g, label);
        let mut gb = GradBuffer::for_model(&m);
        let plan = ModelPlan::build_training(&m);
        let fused_loss = m.fused_loss_grads(&g, label, &mut TrainScratch::new(), &mut gb, &plan);

        prop_assert_eq!(
            fused_loss, tape_loss,
            "fused forward must reproduce the tape loss bit-for-bit"
        );
        for (i, t) in tape_grads.iter().enumerate() {
            for (j, (&f, &r)) in gb.view(i).iter().zip(&t.data).enumerate() {
                prop_assert!(
                    (f - r).abs() <= 1e-4,
                    "param {} ({}) elem {}: fused {} vs tape {}",
                    i, m.param_name(i), j, f, r
                );
            }
        }

        // The batch engine builds its own plan, runs on the thread-local
        // scratch and tree-reduces the pool; a single-graph batch must still
        // reproduce the direct fused gradients bit-for-bit (and therefore
        // stay within the tape tolerance above).
        let graphs = [g];
        let labels = [label];
        let mut engine = FusedEngine::new();
        let (planned_loss, planned) = engine.batch_grads(&m, &graphs, &labels, &[0]);
        prop_assert_eq!(planned_loss, fused_loss, "planned forward loss drifted");
        for i in 0..m.params.len() {
            prop_assert_eq!(
                planned.view(i), gb.view(i),
                "param {} ({}) gradient drifted under the kernel plan", i, m.param_name(i)
            );
        }
    }
}
