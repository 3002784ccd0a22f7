//! Bit-identity contract of the kernel-dispatch layer: at every ISA tier the
//! host runs, the strip kernels over row-major and prepacked operands must
//! equal the generic blocked matmul, and the SpMM axpy, the elementwise
//! kernels, the fused layer-norm + pool and both SpMM directions under both
//! strategies must equal plain scalar loops written out here — *bit for
//! bit*, across awkward shapes (any width, row counts around block
//! boundaries, empty operands, post-relu zeros, -0.0 accumulators, empty
//! relations, duplicate edges). The fully planned inference pass must equal
//! the planless one, and the batch trainer the direct fused backward.

use irnuma_nn::backprop::{GradBuffer, TrainScratch};
use irnuma_nn::dispatch::{
    host_kernel_tiers, matmul_accumulate_auto, matmul_accumulate_packed, PackedMatrix, RelView,
    SpmmStrategy,
};
use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::tensor::matmul_accumulate;
use irnuma_nn::{Csr, FusedEngine, GnnConfig, GnnModel, GraphData, ModelPlan};
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

/// Every zero of `v` made -0.0: a start value that an extra `+ 0.0` (or a
/// sum seeded with +0.0) would flip to +0.0.
fn neg_zeros(v: Vec<f32>) -> Vec<f32> {
    v.into_iter().map(|x| if x == 0.0 { -0.0 } else { x }).collect()
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
        let start = neg_zeros(mat(len, len, seed ^ 7, 30, 0));
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

    /// `vec_add_assign` and `bias_relu_rows` at every tier equal their
    /// scalar loops bit for bit, over any row count and width, with -0.0
    /// in the accumulator, the inputs and the bias.
    #[test]
    fn elementwise_tiers_match_scalar_bitwise(
        rows in 0usize..10,
        d in 1usize..70,
        zero_pct in 0u64..91,
        seed in 0u64..1000,
    ) {
        let src = neg_zeros(mat(rows * d, d, seed, zero_pct, 0));
        let start = neg_zeros(mat(rows * d, d, seed ^ 7, zero_pct, 0));
        let bias = neg_zeros(mat(d, d, seed ^ 9, zero_pct, 0));
        let mut sum = start.clone();
        for (o, &v) in sum.iter_mut().zip(&src) {
            *o += v;
        }
        let relu: Vec<f32> = src
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let pre = a + bias[i % d];
                if pre < 0.0 { 0.0 } else { pre }
            })
            .collect();
        for tier in host_kernel_tiers() {
            let mut out = start.clone();
            tier.vec_add_assign(&mut out, &src);
            prop_assert_eq!(bits(&out), bits(&sum), "{:?} vec_add {}x{}", tier, rows, d);
            let mut out = vec![f32::NAN; rows * d]; // overwritten, not read
            tier.bias_relu_rows(&src, &bias, &mut out);
            prop_assert_eq!(bits(&out), bits(&relu), "{:?} bias_relu {}x{}", tier, rows, d);
        }
    }

    /// The fused layer norm + pool at every tier equals the one-row-at-a-
    /// time scalar loop (the tape's order: strict left-to-right `sum`s per
    /// row, rows pooled in ascending order) bit for bit. 0–9 rows cover the
    /// 4-row interleave and its tail; a row of all -0.0, -0.0 in `beta` and
    /// a -0.0 pooled accumulator make a sum seeded with +0.0 show.
    #[test]
    fn ln_pool_tiers_match_scalar_bitwise(
        n in 0usize..10,
        d in 1usize..40,
        zero_pct in 0u64..91,
        zero_row in prop::sample::select(vec![false, true]),
        seed in 0u64..1000,
    ) {
        let mut h = neg_zeros(mat(n * d, d, seed, zero_pct, 0));
        if zero_row && n > 0 {
            let r = seed as usize % n;
            h[r * d..(r + 1) * d].fill(-0.0);
        }
        let gamma = mat(d, d, seed ^ 3, zero_pct / 3, 0);
        let beta = neg_zeros(mat(d, d, seed ^ 5, zero_pct, 0));
        let eps = 1e-5f32;

        let mut want_out = vec![0.0f32; n * d];
        let mut want_pooled = vec![-0.0f32; d];
        for (x, o) in h.chunks_exact(d).zip(want_out.chunks_exact_mut(d)) {
            let mu = x.iter().sum::<f32>() / d as f32;
            let var = x.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for j in 0..d {
                o[j] = gamma[j] * ((x[j] - mu) * inv) + beta[j];
                want_pooled[j] += o[j];
            }
        }
        for tier in host_kernel_tiers() {
            let mut out = vec![f32::NAN; n * d];
            let mut pooled = vec![-0.0f32; d];
            tier.ln_pool_rows(&h, n, &gamma, &beta, eps, &mut out, &mut pooled);
            prop_assert_eq!(bits(&out), bits(&want_out), "{:?} rows {}x{}", tier, n, d);
            prop_assert_eq!(bits(&pooled), bits(&want_pooled), "{:?} pooled {}x{}", tier, n, d);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Both SpMM strategies, in both directions, at every tier, equal the
    /// scalar edge-list loop bit for bit over random multigraphs: forward
    /// overwrites `out[dst]` with `Σ w·h[src]`, backward accumulates
    /// `Σ w·h[dst]` into `out[src]` (seeded with -0.0 and nonzero values),
    /// each output row's terms in original edge order.
    #[test]
    fn spmm_strategies_agree_bitwise(
        g in graph_strategy(),
        d in prop::sample::select(vec![1usize, 3, 8, 13, 17]),
        seed in 0u64..1000,
    ) {
        use SpmmStrategy::{CsrGather, EdgeMajor};
        let n = g.num_nodes();
        let h = neg_zeros(mat(n * d, d, seed, 30, 0));
        let seed_grad = neg_zeros(mat(n * d, d, seed ^ 11, 50, 0));
        for r in 0..NUM_RELATIONS {
            let mut want_fwd = vec![0.0f32; n * d];
            let mut want_bwd = seed_grad.clone();
            for (&(s, t), &w) in g.edges[r].iter().zip(&g.norm[r]) {
                let (s, t) = (s as usize, t as usize);
                for k in 0..d {
                    want_fwd[t * d + k] += w * h[s * d + k];
                    want_bwd[s * d + k] += w * h[t * d + k];
                }
            }
            let fwd = RelView { rows: &g.csr()[r], edges: &g.edges[r], norm: &g.norm[r] };
            let bwd = RelView { rows: &g.csc()[r], edges: &g.edges[r], norm: &g.norm[r] };
            for tier in host_kernel_tiers() {
                for strategy in [CsrGather, EdgeMajor] {
                    let mut out = vec![f32::NAN; n * d]; // stale content must be overwritten
                    tier.spmm_forward(strategy, fwd, &h, n, d, &mut out);
                    prop_assert_eq!(
                        bits(&out), bits(&want_fwd), "{:?} {:?} forward relation {}", tier, strategy, r
                    );
                    let mut out = seed_grad.clone();
                    tier.spmm_backward(strategy, bwd, &h, n, d, &mut out);
                    prop_assert_eq!(
                        bits(&out), bits(&want_bwd), "{:?} {:?} backward relation {}", tier, strategy, r
                    );
                }
            }
        }
    }

    /// Prepacked inference is bit-identical to the planless pass, and a
    /// one-graph batch through `FusedEngine` (its own plan, thread-local
    /// scratch, tree reduce) to the direct fused backward, at a
    /// strip-aligned width (8), at widths that end in the sub-8 tail (12),
    /// and at the odd label-count width (13).
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
        let train_plan = ModelPlan::build_training(&m);
        let direct_loss =
            m.fused_loss_grads(&g, label, &mut TrainScratch::new(), &mut direct, &train_plan);
        let graphs = [g];
        let labels = [label];
        let mut engine = FusedEngine::new();
        let (batch_loss, batch_gb) = engine.batch_grads(&m, &graphs, &labels, &[0]);
        prop_assert_eq!(batch_loss, direct_loss, "planned forward loss drifted");
        // A single-graph batch is scaled by 1/1, so the reduced gradient
        // must equal the direct per-graph gradient bit-for-bit.
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
