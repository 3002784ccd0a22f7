//! Property tests: the tape-free inference engine agrees with the autograd
//! tape bit for bit on random graphs (including single-node graphs and graphs with
//! empty relations), and the CSR adjacency is a lossless regrouping of the
//! edge list.

use irnuma_nn::graphdata::{Csr, NUM_RELATIONS};
use irnuma_nn::{GnnConfig, GnnModel, GraphData};
use proptest::prelude::*;

const VOCAB: usize = 32;

/// Build a valid random graph from raw draws: node count plus wide-range
/// `(src, dst, relation)` triples folded into range by modulo.
fn graph_from_raw(n: usize, raw: &[(u32, u32, u32)]) -> GraphData {
    let node_text: Vec<u32> = (0..n).map(|i| (i * 7 % VOCAB) as u32).collect();
    let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
    for &(s, d, r) in raw {
        edges[r as usize % NUM_RELATIONS].push((s % n as u32, d % n as u32));
    }
    GraphData::from_edge_lists(node_text, edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `infer`'s logits and pooled embedding equal the tape's bit for bit,
    /// over random graph shapes, widths, layer counts and seeds: the tape is
    /// the oracle for the whole kernel path. `0..96` edges over `1..24`
    /// nodes covers single-node graphs and empty relations.
    #[test]
    fn tape_and_infer_agree(
        n in 1usize..24,
        raw in prop::collection::vec((0u32..10_000, 0u32..10_000, 0u32..3), 0..96),
        width in 0usize..3,
        layers in 1usize..3,
        seed in 0u64..1_000,
    ) {
        let g = graph_from_raw(n, &raw);
        let hidden = [4usize, 8, 13][width];
        let m = GnnModel::new(GnnConfig { vocab_size: VOCAB, hidden, classes: 5, layers, layer_norm: true, seed });

        let f = m.forward(&g);
        let tape_logits = &f.tape.value(f.logits).data;
        let tape_pooled = &f.tape.value(f.pooled).data;
        let out = m.infer(&g);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&out.logits), bits(tape_logits), "logits diverge");
        prop_assert_eq!(bits(&out.pooled), bits(tape_pooled), "pooled diverges");

        // Softmax recomputed from the tape's logits must match `probs`.
        let max = tape_logits.iter().cloned().fold(f32::MIN, f32::max);
        let exps: Vec<f32> = tape_logits.iter().map(|v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        for (a, e) in out.probs.iter().zip(&exps) {
            prop_assert!((a - e / z).abs() <= 1e-4, "probs diverge: {} vs {}", a, e / z);
        }
        prop_assert!(out.margin >= -1e-6 && out.margin <= 1.0 + 1e-6);
    }

    /// Expanding the CSR rows recovers exactly the edge list stably sorted
    /// by destination — nothing lost, nothing reordered within a row.
    #[test]
    fn csr_round_trips(
        n in 1usize..40,
        raw in prop::collection::vec((0u32..10_000, 0u32..10_000), 0..128),
    ) {
        let edges: Vec<(u32, u32)> =
            raw.iter().map(|&(s, d)| (s % n as u32, d % n as u32)).collect();
        let norm: Vec<f32> = (0..edges.len()).map(|i| 1.0 / (1.0 + i as f32)).collect();
        let csr = Csr::from_edges(n, &edges, &norm);

        prop_assert_eq!(csr.row_ptr.len(), n + 1);
        prop_assert_eq!(csr.src.len(), edges.len());
        let mut recovered: Vec<(u32, u32, f32)> = Vec::new();
        for i in 0..n {
            let (srcs, ws) = csr.row(i);
            for (&s, &w) in srcs.iter().zip(ws) {
                recovered.push((s, i as u32, w));
            }
        }
        let mut expect: Vec<(u32, u32, f32)> =
            edges.iter().zip(&norm).map(|(&(s, d), &w)| (s, d, w)).collect();
        expect.sort_by_key(|&(_, d, _)| d); // stable: preserves edge order per dst
        prop_assert_eq!(recovered, expect);
    }
}
