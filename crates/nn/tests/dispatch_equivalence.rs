//! Bit-identity contract of the kernel-dispatch layer: every specialized
//! path — the strip kernels over row-major and prepacked operands and the
//! SpMM axpy at every ISA tier the host runs, each SpMM strategy, and the
//! fully planned inference/training passes — must produce *bit-identical*
//! f32 results to the generic blocked kernels, across awkward shapes (any
//! width, row counts around block boundaries, empty operands, post-relu
//! zeros, empty relations, duplicate edges).

use irnuma_nn::backprop::{fused_loss_grads_threadlocal, GradBuffer};
use irnuma_nn::dispatch::{
    host_kernel_tiers, matmul_accumulate_auto, matmul_accumulate_packed, spmm_backward,
    spmm_forward, PackedMatrix, RelView, SpmmStrategy,
};
use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::tensor::matmul_accumulate;
use irnuma_nn::{Csr, FusedEngine, GnnConfig, GnnModel, GraphData};
use proptest::prelude::*;

const VOCAB: usize = 20;

/// Random connected-ish multigraph (chain backbone + arbitrary extra edges,
/// self-loops and duplicates allowed — the same shape family the backprop
/// proptests use).
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

/// Deterministic pseudo-random matrix in which roughly `zero_pct` percent
/// of entries, and every entry of each `zero_every`-th column (of a
/// `width`-wide row-major matrix; 0 for none), are zero: post-relu-style
/// sparsity that makes both the 4-row and the 1-row zero-skip fire.
fn mat(len: usize, width: usize, seed: u64, zero_pct: u64, zero_every: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) >> 33;
            if v % 100 < zero_pct || (zero_every > 0 && (i % width.max(1)) % zero_every == 0) {
                0.0
            } else {
                (v % 1000) as f32 / 250.0 - 2.0
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any width, any tier the host runs, both operand layouts, through the
    /// tier handles and through the dispatched entry points, accumulating
    /// into a start value that includes -0.0 (adding a product the generic
    /// kernel skips would turn it into +0.0): all agree with the generic
    /// kernel bit for bit.
    #[test]
    fn tile_variants_and_packed_path_match_generic_bitwise(
        cols in 1usize..301,
        rows in 0usize..10,
        inner in 0usize..71,
        zero_pct in 0u64..91,
        zero_every in 2usize..7,
        init in prop::sample::select(vec![-0.0f32, 0.0, 0.75, -1.5]),
        seed in 0u64..1000,
    ) {
        let a = mat(rows * inner, inner, seed, zero_pct, zero_every);
        let b = mat(inner * cols, cols, seed ^ 0xBEEF, zero_pct / 3, 0);
        let pm = PackedMatrix::pack(&b, inner, cols);
        let mut generic = vec![init; rows * cols];
        matmul_accumulate(&a, rows, inner, &b, cols, &mut generic);
        let want = bits(&generic);

        for tier in host_kernel_tiers() {
            let mut out = vec![init; rows * cols];
            tier.matmul(&a, rows, inner, &b, cols, &mut out);
            prop_assert_eq!(bits(&out), want.clone(), "{:?} row-major {}x{}x{}", tier, rows, inner, cols);
            let mut out = vec![init; rows * cols];
            tier.matmul_packed(&a, rows, &pm, &mut out);
            prop_assert_eq!(bits(&out), want.clone(), "{:?} packed {}x{}x{}", tier, rows, inner, cols);
        }
        let mut auto = vec![init; rows * cols];
        matmul_accumulate_auto(&a, rows, inner, &b, cols, &mut auto);
        prop_assert_eq!(bits(&auto), want.clone(), "auto-dispatch {}x{}x{}", rows, inner, cols);
        let mut packed = vec![init; rows * cols];
        matmul_accumulate_packed(&a, rows, &pm, &mut packed);
        prop_assert_eq!(bits(&packed), want, "packed dispatch {}x{}x{}", rows, inner, cols);
    }

    /// The SpMM axpy at every tier equals the scalar loop bit for bit, at
    /// every length (8-lane chunks plus the scalar tail), zero weights and
    /// -0.0 accumulators included.
    #[test]
    fn axpy_tiers_match_scalar_bitwise(
        len in 0usize..301,
        w in prop::sample::select(vec![0.0f32, -0.0, 0.5, -3.25]),
        seed in 0u64..1000,
    ) {
        let src = mat(len, len, seed, 30, 0);
        let start: Vec<f32> = mat(len, len, seed ^ 7, 30, 0)
            .into_iter()
            .map(|v| if v == 0.0 { -0.0 } else { v })
            .collect();
        let mut scalar = start.clone();
        for (o, &v) in scalar.iter_mut().zip(&src) {
            *o += w * v;
        }
        for tier in host_kernel_tiers() {
            let mut out = start.clone();
            tier.axpy(&mut out, w, &src);
            prop_assert_eq!(bits(&out), bits(&scalar), "{:?} len {}", tier, len);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both SpMM strategies agree bitwise on forward (overwrite) and
    /// backward (accumulate) over random multigraphs.
    #[test]
    fn spmm_strategies_agree_bitwise(
        g in graph_strategy(),
        d in prop::sample::select(vec![3usize, 8, 13]),
        seed in 0u64..1000,
    ) {
        let n = g.num_nodes();
        let h: Vec<f32> = (0..n * d).map(|i| ((i as u64 * 37 + seed) % 17) as f32 - 8.0).collect();
        for r in 0..NUM_RELATIONS {
            let fwd = RelView { rows: &g.csr()[r], edges: &g.edges[r], norm: &g.norm[r] };
            let mut a = vec![f32::NAN; n * d]; // stale content must be overwritten
            let mut b = vec![f32::NAN; n * d];
            spmm_forward(SpmmStrategy::CsrGather, fwd, &h, n, d, &mut a);
            spmm_forward(SpmmStrategy::EdgeMajor, fwd, &h, n, d, &mut b);
            prop_assert_eq!(&a, &b, "forward relation {}", r);

            let bwd = RelView { rows: &g.csc()[r], edges: &g.edges[r], norm: &g.norm[r] };
            let mut ga = vec![0.125f32; n * d]; // += semantics: nonzero seed
            let mut gb = ga.clone();
            spmm_backward(SpmmStrategy::CsrGather, bwd, &h, n, d, &mut ga);
            spmm_backward(SpmmStrategy::EdgeMajor, bwd, &h, n, d, &mut gb);
            prop_assert_eq!(&ga, &gb, "backward relation {}", r);
        }
    }

    /// The fully planned pipelines (prepacked inference, planned fused
    /// training through `FusedEngine`) are bit-identical to the planless
    /// ones, at a strip-aligned width (8), at widths that end in the sub-8
    /// tail (12), and at the odd label-count width (13).
    #[test]
    fn planned_inference_and_training_match_planless_bitwise(
        g in graph_strategy(),
        hidden in prop::sample::select(vec![8usize, 12, 13]),
        label in 0usize..5,
        seed in 0u64..1000,
    ) {
        let m = GnnModel::new(GnnConfig {
            vocab_size: VOCAB,
            hidden,
            classes: 5,
            layers: 2,
            layer_norm: true,
            seed,
        });

        let planless = m.infer(&g);
        let plan = m.plan();
        let planned = m.infer_batch_planned(&plan, std::slice::from_ref(&g)).remove(0);
        prop_assert_eq!(planned.logits, planless.logits);
        prop_assert_eq!(planned.pooled, planless.pooled);

        let mut direct = GradBuffer::for_model(&m);
        let direct_loss = fused_loss_grads_threadlocal(&m, &g, label, &mut direct);
        let graphs = [g];
        let labels = [label];
        let mut engine = FusedEngine::new();
        let (batch_loss, batch_gb) = engine.batch_grads(&m, &graphs, &labels, &[0]);
        prop_assert_eq!(batch_loss, direct_loss, "planned forward loss drifted");
        // A single-graph batch is scaled by 1/1, so the reduced gradient
        // must equal the planless per-graph gradient bit-for-bit.
        for i in 0..m.params.len() {
            prop_assert_eq!(
                batch_gb.view(i), direct.view(i),
                "param {} ({}) gradient drifted under the plan", i, m.param_name(i)
            );
        }
    }
}

/// Batched inference (which prepacks and fans out across threads) matches
/// serial planless inference bitwise at a paper-style width.
#[test]
fn batched_prepacked_inference_matches_serial_planless() {
    let m = GnnModel::new(GnnConfig {
        vocab_size: VOCAB,
        hidden: 64,
        classes: 13,
        layers: 2,
        layer_norm: true,
        seed: 3,
    });
    let graphs: Vec<GraphData> = (2..10)
        .map(|n| {
            let node_text: Vec<u32> = (0..n).map(|i| (i * 3 + 1) % VOCAB as u32).collect();
            let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
            for i in 1..n {
                edges[0].push((i - 1, i));
                edges[1].push((i, i - 1));
            }
            edges[2].push((0, n - 1));
            GraphData::from_edge_lists(node_text, edges)
        })
        .collect();
    let batch = m.infer_batch(&graphs);
    for (g, out) in graphs.iter().zip(&batch) {
        let serial = m.infer(g);
        assert_eq!(out.logits, serial.logits);
        assert_eq!(out.pooled, serial.pooled);
        assert_eq!(out.probs, serial.probs);
    }
}

/// The CSR/CSC views really are what RelView consumers assume: grouped rows
/// that expand back to the original edge list.
#[test]
fn relview_invariants_hold_on_a_toy_graph() {
    let g = GraphData::from_edge_lists(
        vec![1, 2, 3, 4],
        [vec![(0, 1), (1, 2), (0, 1), (3, 3)], vec![], vec![(2, 0)]],
    );
    let csr: &Csr = &g.csr()[0];
    // Duplicate edges (0,1) keep both slots, in original order.
    let (srcs, ws) = csr.row(1);
    assert_eq!(srcs, &[0, 0]);
    assert_eq!(ws, &[0.5, 0.5]);
}
