//! Dense row-major f32 matrices with the handful of BLAS-ish kernels the
//! model needs. Kept deliberately simple: all shapes are 2-D, `1×n` rows
//! double as vectors.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl Tensor {
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization, deterministic in `rng`.
    pub fn glorot(rows: usize, cols: usize, rng: &mut ChaCha8Rng) -> Tensor {
        let limit = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Tensor { rows, cols, data }
    }

    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }

    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn same_shape(&self, other: &Tensor) -> bool {
        self.rows == other.rows && self.cols == other.cols
    }

    /// `self @ other`, via the blocked kernel of [`matmul_accumulate`].
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_accumulate(&self.data, self.rows, self.cols, &other.data, other.cols, &mut out.data);
        out
    }

    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.at_mut(c, r) = self.at(r, c);
            }
        }
        out
    }

    /// Elementwise addition into `self`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert!(self.same_shape(other), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(self.same_shape(other), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// Rows of `a` processed together per sweep of `b`. Four 1-row accumulators
/// stay register/L1-resident and reuse each loaded `b` row four times.
const ROW_BLOCK: usize = 4;

/// Columns of `a` (rows of `b`) per tile; bounds the slice of `b` touched
/// before the output rows are revisited, keeping them cache-hot.
const K_TILE: usize = 64;

/// `out += a @ b` where `a` is `rows×inner` and `b` is `inner×cols`, all
/// row-major. Blocked: 4 rows of `a` share each streamed row of `b`, and the
/// inner dimension is tiled. Every output element still accumulates its
/// `k` terms in ascending order, so results are bit-identical to a naive
/// ikj loop — training and inference can share this kernel without the two
/// paths drifting.
pub fn matmul_accumulate(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * inner);
    debug_assert_eq!(b.len(), inner * cols);
    debug_assert_eq!(out.len(), rows * cols);

    let full_blocks = rows / ROW_BLOCK * ROW_BLOCK;
    let mut i = 0;
    while i < full_blocks {
        let (o0, rest) = out[i * cols..(i + 4) * cols].split_at_mut(cols);
        let (o1, rest) = rest.split_at_mut(cols);
        let (o2, o3) = rest.split_at_mut(cols);
        for k0 in (0..inner).step_by(K_TILE) {
            let k_end = (k0 + K_TILE).min(inner);
            for k in k0..k_end {
                let a0 = a[i * inner + k];
                let a1 = a[(i + 1) * inner + k];
                let a2 = a[(i + 2) * inner + k];
                let a3 = a[(i + 3) * inner + k];
                if a0 == 0.0 && a1 == 0.0 && a2 == 0.0 && a3 == 0.0 {
                    continue; // post-relu activations are often zero
                }
                let brow = &b[k * cols..(k + 1) * cols];
                for ((((d0, d1), d2), d3), &bv) in
                    o0.iter_mut().zip(o1.iter_mut()).zip(o2.iter_mut()).zip(o3.iter_mut()).zip(brow)
                {
                    *d0 += a0 * bv;
                    *d1 += a1 * bv;
                    *d2 += a2 * bv;
                    *d3 += a3 * bv;
                }
            }
        }
        i += ROW_BLOCK;
    }

    for i in full_blocks..rows {
        let dst = &mut out[i * cols..(i + 1) * cols];
        for k0 in (0..inner).step_by(K_TILE) {
            let k_end = (k0 + K_TILE).min(inner);
            for k in k0..k_end {
                let av = a[i * inner + k];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[k * cols..(k + 1) * cols];
                for (d, &bv) in dst.iter_mut().zip(brow) {
                    *d += av * bv;
                }
            }
        }
    }
}

/// `out += aᵀ @ b` where `a` is `rows×a_cols` and `b` is `rows×b_cols`,
/// all row-major (`out` is `a_cols×b_cols`). This is the weight-gradient
/// kernel of the fused backward pass (`dW += xᵀ @ dy`): each output element
/// accumulates its `rows` terms in ascending row order, exactly the order
/// `a.transpose().matmul(&b)` produces, so the fused path and the tape
/// oracle round identically — without materializing the transpose.
pub fn matmul_transpose_a_accumulate(
    a: &[f32],
    rows: usize,
    a_cols: usize,
    b: &[f32],
    b_cols: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * a_cols);
    debug_assert_eq!(b.len(), rows * b_cols);
    debug_assert_eq!(out.len(), a_cols * b_cols);
    for i in 0..rows {
        let brow = &b[i * b_cols..(i + 1) * b_cols];
        for k in 0..a_cols {
            let av = a[i * a_cols + k];
            if av == 0.0 {
                continue; // post-relu activations are often zero
            }
            let dst = &mut out[k * b_cols..(k + 1) * b_cols];
            for (o, &bv) in dst.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// `out += a @ bᵀ` where `a` is `rows×inner` and `b` is `b_rows×inner`,
/// all row-major (`out` is `rows×b_rows`). This is the activation-gradient
/// kernel of the fused backward pass (`dx += dy @ Wᵀ`): each output element
/// is a dot product over `inner` in ascending order — the same order
/// `a.matmul(&b.transpose())` uses — and `b`'s rows are read contiguously,
/// so no transpose is ever materialized.
pub fn matmul_transpose_b_accumulate(
    a: &[f32],
    rows: usize,
    inner: usize,
    b: &[f32],
    b_rows: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(a.len(), rows * inner);
    debug_assert_eq!(b.len(), b_rows * inner);
    debug_assert_eq!(out.len(), rows * b_rows);
    for i in 0..rows {
        let arow = &a[i * inner..(i + 1) * inner];
        let dst = &mut out[i * b_rows..(i + 1) * b_rows];
        for (o, brow) in dst.iter_mut().zip(b.chunks_exact(inner)) {
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            *o += acc;
        }
    }
}

/// Transpose `src` (`rows×cols`, row-major) into `dst` (`cols×rows`),
/// overwriting `dst`. The fused training engine stages weight and
/// activation transposes in reusable scratch with this, then runs the
/// backward matmuls through the blocked [`matmul_accumulate`] kernel —
/// the transpose-free kernels above are one long dependent add chain per
/// output element, while the blocked kernel keeps four independent output
/// rows streaming, so staging the transpose is the faster backward at
/// training widths despite the extra copy.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(dst.len(), rows * cols);
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Softmax of `logits` written into `probs` (max-shifted, matching the
/// tape's [`crate::autograd::Tape::softmax_ce`] evaluation order exactly).
/// Shared by the inference engine and the fused training engine so the two
/// can never drift.
pub fn softmax_into(logits: &[f32], probs: &mut Vec<f32>) {
    let max = logits.iter().cloned().fold(f32::MIN, f32::max);
    probs.clear();
    probs.extend(logits.iter().map(|v| (v - max).exp()));
    let z: f32 = probs.iter().sum();
    for p in probs.iter_mut() {
        *p /= z;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_example() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(2, 1), 6.0);
    }

    #[test]
    fn glorot_is_deterministic_and_bounded() {
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        let a = Tensor::glorot(16, 16, &mut r1);
        let b = Tensor::glorot(16, 16, &mut r2);
        assert_eq!(a, b);
        let limit = (6.0f64 / 32.0).sqrt() as f32;
        assert!(a.data.iter().all(|x| x.abs() <= limit));
        assert!(a.norm() > 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(1, 3, vec![10.0, 20.0, 30.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.data, vec![6.0, 12.0, 18.0]);
        a.scale(2.0);
        assert_eq!(a.data, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// Reference ikj product (the kernel the blocked one replaced).
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let av = a.at(i, k);
                for j in 0..b.cols {
                    *out.at_mut(i, j) += av * b.at(k, j);
                }
            }
        }
        out
    }

    #[test]
    fn transpose_kernels_match_materialized_transpose_bitwise() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for &(r, k, c) in &[(1, 1, 1), (3, 5, 2), (7, 16, 9), (12, 33, 4)] {
            let mut a = Tensor::glorot(r, k, &mut rng);
            // Post-relu-style zeros exercise the skip path.
            for v in a.data.iter_mut().step_by(3) {
                *v = 0.0;
            }
            let b = Tensor::glorot(r, c, &mut rng);
            let mut out = Tensor::zeros(k, c);
            matmul_transpose_a_accumulate(&a.data, r, k, &b.data, c, &mut out.data);
            assert_eq!(out.data, a.transpose().matmul(&b).data, "aT@b {r}x{k}x{c}");

            let w = Tensor::glorot(k, c, &mut rng);
            let g = Tensor::glorot(r, c, &mut rng);
            let mut out = Tensor::zeros(r, k);
            matmul_transpose_b_accumulate(&g.data, r, c, &w.data, k, &mut out.data);
            assert_eq!(out.data, g.matmul(&w.transpose()).data, "a@bT {r}x{c}x{k}");
        }
    }

    #[test]
    fn transpose_kernels_accumulate_into_existing_output() {
        let a = Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let mut out = vec![100.0; 4];
        matmul_transpose_a_accumulate(&a.data, 2, 2, &b.data, 2, &mut out);
        let expect = a.transpose().matmul(&b);
        for (o, e) in out.iter().zip(&expect.data) {
            assert_eq!(*o, 100.0 + e);
        }
    }

    #[test]
    fn transpose_into_matches_tensor_transpose() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for &(r, c) in &[(1, 1), (3, 5), (8, 8), (13, 4)] {
            let a = Tensor::glorot(r, c, &mut rng);
            let mut out = vec![f32::NAN; r * c]; // stale content must be overwritten
            transpose_into(&a.data, r, c, &mut out);
            assert_eq!(out, a.transpose().data, "{r}x{c}");
        }
    }

    #[test]
    fn softmax_into_is_a_distribution_and_reuses_the_buffer() {
        let mut probs = vec![9.0; 17]; // stale content must be cleared
        softmax_into(&[1.0, 2.0, 3.0], &mut probs);
        assert_eq!(probs.len(), 3);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(probs[2] > probs[1] && probs[1] > probs[0]);
    }

    #[test]
    fn blocked_matmul_matches_naive_on_awkward_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        // Row counts around the 4-row block boundary, odd inner/col sizes
        // spanning the 64-wide k tile, plus post-relu-style zeros.
        for &(r, k, c) in &[(1, 1, 1), (3, 5, 2), (4, 64, 7), (5, 65, 9), (8, 130, 33), (13, 70, 4)]
        {
            let mut a = Tensor::glorot(r, k, &mut rng);
            for v in a.data.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
            let b = Tensor::glorot(k, c, &mut rng);
            assert_eq!(a.matmul(&b).data, naive_matmul(&a, &b).data, "shape {r}x{k}x{c}");
        }
    }
}
