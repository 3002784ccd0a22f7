//! Property tests for the NN substrate: tensor algebra laws, autograd
//! gradient checks on randomized compositions, and training invariances.

use crate::autograd::Tape;
use crate::tensor::Tensor;
use proptest::prelude::*;
use std::rc::Rc;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
        c in tensor_strategy(4, 2),
    ) {
        // a @ (b + c) == a@b + a@c  (within f32 tolerance)
        let mut bc = b.clone();
        bc.add_assign(&c);
        let left = a.matmul(&bc);
        let mut right = a.matmul(&b);
        right.add_assign(&a.matmul(&c));
        for (l, r) in left.data.iter().zip(&right.data) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    #[test]
    fn transpose_of_matmul_swaps(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 2),
    ) {
        // (a@b)^T == b^T @ a^T
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (l, r) in left.data.iter().zip(&right.data) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }

    #[test]
    fn backward_matches_numeric_gradient_on_random_mlp(
        x in tensor_strategy(1, 5),
        w1 in tensor_strategy(5, 4),
        w2 in tensor_strategy(4, 3),
        label in 0usize..3,
    ) {
        let f = |x: &Tensor, w1: &Tensor, w2: &Tensor| -> f32 {
            let mut t = Tape::new();
            let xv = t.leaf(x.clone());
            let w1v = t.leaf(w1.clone());
            let w2v = t.leaf(w2.clone());
            let h = t.matmul(xv, w1v);
            let h = t.relu(h);
            let logits = t.matmul(h, w2v);
            let loss = t.softmax_ce(logits, label);
            t.value(loss).data[0]
        };
        // Analytic gradient w.r.t. w2 (avoids relu kinks that break the
        // numeric check for x/w1).
        let mut t = Tape::new();
        let xv = t.leaf(x.clone());
        let w1v = t.leaf(w1.clone());
        let w2v = t.leaf(w2.clone());
        let h = t.matmul(xv, w1v);
        let h = t.relu(h);
        let logits = t.matmul(h, w2v);
        let loss = t.softmax_ce(logits, label);
        let grads = t.backward(loss);
        let gw2 = grads[w2v.index()].clone().unwrap();

        let eps = 1e-2f32;
        for j in [0usize, 5, 11] {
            let mut p = w2.clone();
            p.data[j] += eps;
            let mut m = w2.clone();
            m.data[j] -= eps;
            let numeric = (f(&x, &w1, &p) - f(&x, &w1, &m)) / (2.0 * eps);
            let analytic = gw2.data[j];
            let denom = numeric.abs().max(analytic.abs()).max(0.05);
            prop_assert!(
                (numeric - analytic).abs() / denom < 0.15,
                "elem {j}: numeric {numeric} analytic {analytic}"
            );
        }
    }

    #[test]
    fn spmm_is_linear_in_inputs(
        x in tensor_strategy(4, 3),
        y in tensor_strategy(4, 3),
        alpha in -2.0f32..2.0,
    ) {
        let edges = Rc::new(vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let norm = Rc::new(vec![1.0f32, 0.5, 0.5, 1.0, 0.5]);
        let run = |input: &Tensor| -> Tensor {
            let mut t = Tape::new();
            let v = t.leaf(input.clone());
            let out = t.spmm(v, edges.clone(), norm.clone());
            t.value(out).clone()
        };
        // spmm(x + αy) == spmm(x) + α·spmm(y)
        let mut lhs_in = x.clone();
        lhs_in.axpy(alpha, &y);
        let lhs = run(&lhs_in);
        let mut rhs = run(&x);
        rhs.axpy(alpha, &run(&y));
        for (l, r) in lhs.data.iter().zip(&rhs.data) {
            prop_assert!((l - r).abs() < 1e-3);
        }
    }

    #[test]
    fn layer_norm_output_is_normalized(x in tensor_strategy(3, 8)) {
        let mut t = Tape::new();
        let xv = t.leaf(x);
        let mut gamma = Tensor::zeros(1, 8);
        gamma.data.fill(1.0);
        let g = t.leaf(gamma);
        let b = t.leaf(Tensor::zeros(1, 8));
        let out = t.layer_norm(xv, g, b);
        let o = t.value(out);
        for r in 0..o.rows {
            let row = o.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3, "row {r} mean {mean}");
            // variance ≈ 1 unless the row was (near-)constant
            prop_assert!(var < 1.2, "row {r} var {var}");
        }
    }

    #[test]
    fn mean_pool_is_permutation_invariant(x in tensor_strategy(5, 4), seed in 0u64..100) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..5).collect();
        perm.shuffle(&mut rng);
        let mut shuffled = Tensor::zeros(5, 4);
        for (dst, &src) in perm.iter().enumerate() {
            shuffled.data[dst * 4..(dst + 1) * 4].copy_from_slice(x.row(src));
        }
        let pool = |input: Tensor| -> Tensor {
            let mut t = Tape::new();
            let v = t.leaf(input);
            let out = t.mean_pool(v);
            t.value(out).clone()
        };
        let a = pool(x);
        let b = pool(shuffled);
        for (l, r) in a.data.iter().zip(&b.data) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }
}
