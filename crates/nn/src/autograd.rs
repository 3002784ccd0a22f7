//! The autograd tape: a second, op-by-op implementation of the RGCN that
//! the fused engine ([`crate::backprop`]) is tested against. Test builds
//! only; no library path runs it.
//!
//! Each forward op appends a node holding its output value and enough
//! information to propagate gradients. [`Tape::backward`] walks the tape in
//! reverse, producing a gradient per node. [`GnnModel::forward`] builds the
//! whole model (Eq. 1 and the Fig. 2 head) from these ops, and
//! [`GnnModel::loss_and_grads`] reads the parameter gradients back.
//!
//! The op set is exactly what the paper's architecture needs: embedding
//! gather, sparse typed-edge message passing (the RGCN aggregation of
//! Eq. 1), dense affine layers, relu, mean pooling, residual add, layer
//! normalization, and softmax cross-entropy. The dense [`Tensor`] helpers
//! below (`matmul`, `transpose`, `axpy`, …) exist for the tape and its
//! tests; production kernels work on flat slices.

use crate::graphdata::{GraphData, NUM_RELATIONS};
use crate::model::GnnModel;
use crate::tensor::{matmul_accumulate, Tensor};
use std::rc::Rc;

impl Tensor {
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        &mut self.data[r * self.cols + c]
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

/// Index of a value on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Position of this value on its tape (aligned with
    /// [`Tape::backward`]'s gradient vector).
    pub fn index(self) -> usize {
        self.0
    }
}

enum Op {
    Leaf,
    /// `a @ b`
    Matmul(Var, Var),
    /// matrix `a` + broadcast row vector `b`
    AddBias(Var, Var),
    /// elementwise same-shape addition (residual connections)
    Add(Var, Var),
    Relu(Var),
    /// rows of `table` selected by `ids`
    Gather {
        table: Var,
        ids: Rc<Vec<u32>>,
    },
    /// sparse message passing: `out[dst] += norm_e * x[src]` per edge
    Spmm {
        x: Var,
        edges: Rc<Vec<(u32, u32)>>,
        norm: Rc<Vec<f32>>,
    },
    /// column-wise mean over rows: `n×d → 1×d`
    MeanPool(Var),
    /// row-wise layer norm with affine params (1×d each)
    LayerNorm {
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
    },
    /// scalar loss; caches the softmax distribution for the backward pass
    SoftmaxCe {
        logits: Var,
        label: usize,
        probs: Tensor,
    },
}

struct Node {
    value: Tensor,
    op: Op,
}

/// A fresh tape per forward pass.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    pub fn new() -> Tape {
        Tape::default()
    }

    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.nodes.push(Node { value, op });
        Var(self.nodes.len() - 1)
    }

    /// Add an input/parameter value.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(v, Op::Matmul(a, b))
    }

    /// `a + bias` where `bias` is `1×cols`, broadcast over rows.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (m, b) = (self.value(a), self.value(bias));
        assert_eq!(b.rows, 1);
        assert_eq!(m.cols, b.cols);
        let mut out = m.clone();
        for r in 0..out.rows {
            for c in 0..out.cols {
                *out.at_mut(r, c) += b.at(0, c);
            }
        }
        self.push(out, Op::AddBias(a, bias))
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let mut out = self.value(a).clone();
        out.add_assign(self.value(b));
        self.push(out, Op::Add(a, b))
    }

    pub fn relu(&mut self, x: Var) -> Var {
        let mut out = self.value(x).clone();
        for v in &mut out.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        self.push(out, Op::Relu(x))
    }

    /// Select rows of `table` by id (embedding lookup).
    pub fn gather(&mut self, table: Var, ids: Rc<Vec<u32>>) -> Var {
        let t = self.value(table);
        let mut out = Tensor::zeros(ids.len(), t.cols);
        for (r, &id) in ids.iter().enumerate() {
            let src = t.row(id as usize);
            out.data[r * t.cols..(r + 1) * t.cols].copy_from_slice(src);
        }
        self.push(out, Op::Gather { table, ids })
    }

    /// Typed-edge message passing: for each edge `(src, dst)` with weight
    /// `norm`, add `norm * x[src]` into `out[dst]`. Output has the same
    /// shape as `x`.
    pub fn spmm(&mut self, x: Var, edges: Rc<Vec<(u32, u32)>>, norm: Rc<Vec<f32>>) -> Var {
        assert_eq!(edges.len(), norm.len());
        let xv = self.value(x);
        let cols = xv.cols;
        let mut out = Tensor::zeros(xv.rows, cols);
        for (e, &(s, d)) in edges.iter().enumerate() {
            let w = norm[e];
            let src = &xv.data[s as usize * cols..(s as usize + 1) * cols];
            let dst = &mut out.data[d as usize * cols..(d as usize + 1) * cols];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o += w * v;
            }
        }
        self.push(out, Op::Spmm { x, edges, norm })
    }

    /// Column-wise mean over rows (graph readout): `n×d → 1×d`.
    pub fn mean_pool(&mut self, x: Var) -> Var {
        let xv = self.value(x);
        let mut out = Tensor::zeros(1, xv.cols);
        for r in 0..xv.rows {
            for c in 0..xv.cols {
                out.data[c] += xv.at(r, c);
            }
        }
        let inv = 1.0 / xv.rows.max(1) as f32;
        out.scale(inv);
        self.push(out, Op::MeanPool(x))
    }

    /// Row-wise layer normalization with learnable affine (`gamma`, `beta`
    /// are `1×d`).
    pub fn layer_norm(&mut self, x: Var, gamma: Var, beta: Var) -> Var {
        let eps = 1e-5;
        let (xv, g, b) = (self.value(x), self.value(gamma), self.value(beta));
        let d = xv.cols;
        let mut out = Tensor::zeros(xv.rows, d);
        for r in 0..xv.rows {
            let row = xv.row(r);
            let mu: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let inv = 1.0 / (var + eps).sqrt();
            for (c, &xc) in row.iter().enumerate() {
                let xhat = (xc - mu) * inv;
                *out.at_mut(r, c) = g.at(0, c) * xhat + b.at(0, c);
            }
        }
        self.push(out, Op::LayerNorm { x, gamma, beta, eps })
    }

    /// Softmax cross-entropy of `1×C` logits against a class label;
    /// produces a `1×1` loss.
    pub fn softmax_ce(&mut self, logits: Var, label: usize) -> Var {
        let l = self.value(logits);
        assert_eq!(l.rows, 1, "one sample at a time");
        assert!(label < l.cols);
        let max = l.data.iter().cloned().fold(f32::MIN, f32::max);
        let exps: Vec<f32> = l.data.iter().map(|v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        let probs = Tensor::from_vec(1, l.cols, exps.iter().map(|e| e / z).collect());
        let loss = -(probs.at(0, label).max(1e-12)).ln();
        self.push(Tensor::from_vec(1, 1, vec![loss]), Op::SoftmaxCe { logits, label, probs })
    }

    /// The softmax distribution cached by a [`Tape::softmax_ce`] node.
    pub fn cached_probs(&self, loss: Var) -> &Tensor {
        match &self.nodes[loss.0].op {
            Op::SoftmaxCe { probs, .. } => probs,
            _ => panic!("cached_probs on a non-loss node"),
        }
    }

    /// Reverse pass from `root` (typically the loss). Returns one gradient
    /// slot per node; untouched slots are `None`.
    ///
    /// Every op's inputs precede it on the tape, so the reverse walk splits
    /// the gradient vector at the current node: the upstream gradient is
    /// *borrowed* from the upper half and accumulated directly into the
    /// lower half's slots — no per-node clone of the upstream gradient, no
    /// per-op temporary tensors, and the two matmul gradients go through
    /// the transpose-free kernels instead of materializing `xᵀ`/`Wᵀ`.
    pub fn backward(&self, root: Var) -> Vec<Option<Tensor>> {
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        let root_val = &self.nodes[root.0].value;
        let mut seed = Tensor::zeros(root_val.rows, root_val.cols);
        seed.data.fill(1.0);
        grads[root.0] = Some(seed);

        // One scratch row for the layer-norm backward, reused across nodes.
        let mut dxhat: Vec<f32> = Vec::new();

        for i in (0..self.nodes.len()).rev() {
            let (glo, ghi) = grads.split_at_mut(i);
            let Some(gy) = ghi[0].as_ref() else { continue };
            // Zero-initialized gradient slot for input `v` (all inputs have
            // index < i, hence live in `glo`).
            let slot = |glo: &mut [Option<Tensor>], v: Var, rows: usize, cols: usize| {
                let t = glo[v.0].get_or_insert_with(|| Tensor::zeros(rows, cols));
                debug_assert!(t.rows == rows && t.cols == cols, "gradient shape drift");
            };
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                    slot(glo, *a, av.rows, av.cols);
                    crate::tensor::matmul_transpose_b_accumulate(
                        &gy.data,
                        gy.rows,
                        gy.cols,
                        &bv.data,
                        bv.rows,
                        &mut glo[a.0].as_mut().unwrap().data,
                    );
                    slot(glo, *b, bv.rows, bv.cols);
                    crate::tensor::matmul_transpose_a_accumulate(
                        &av.data,
                        av.rows,
                        av.cols,
                        &gy.data,
                        gy.cols,
                        &mut glo[b.0].as_mut().unwrap().data,
                    );
                }
                Op::AddBias(a, bias) => {
                    slot(glo, *a, gy.rows, gy.cols);
                    glo[a.0].as_mut().unwrap().add_assign(gy);
                    slot(glo, *bias, 1, gy.cols);
                    let gb = glo[bias.0].as_mut().unwrap();
                    for r in 0..gy.rows {
                        for c in 0..gy.cols {
                            gb.data[c] += gy.at(r, c);
                        }
                    }
                }
                Op::Add(a, b) => {
                    slot(glo, *a, gy.rows, gy.cols);
                    glo[a.0].as_mut().unwrap().add_assign(gy);
                    slot(glo, *b, gy.rows, gy.cols);
                    glo[b.0].as_mut().unwrap().add_assign(gy);
                }
                Op::Relu(x) => {
                    let xv = &self.nodes[x.0].value;
                    slot(glo, *x, xv.rows, xv.cols);
                    let gx = glo[x.0].as_mut().unwrap();
                    for ((g, &v), &u) in gx.data.iter_mut().zip(&xv.data).zip(&gy.data) {
                        if v > 0.0 {
                            *g += u;
                        }
                    }
                }
                Op::Gather { table, ids } => {
                    let t = &self.nodes[table.0].value;
                    slot(glo, *table, t.rows, t.cols);
                    let gt = glo[table.0].as_mut().unwrap();
                    for (r, &id) in ids.iter().enumerate() {
                        let src = &gy.data[r * t.cols..(r + 1) * t.cols];
                        let dst = &mut gt.data[id as usize * t.cols..(id as usize + 1) * t.cols];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
                Op::Spmm { x, edges, norm } => {
                    let xv = &self.nodes[x.0].value;
                    let cols = xv.cols;
                    slot(glo, *x, xv.rows, cols);
                    let gx = glo[x.0].as_mut().unwrap();
                    for (e, &(s, d)) in edges.iter().enumerate() {
                        let w = norm[e];
                        let gdst = &gy.data[d as usize * cols..(d as usize + 1) * cols];
                        let gsrc = &mut gx.data[s as usize * cols..(s as usize + 1) * cols];
                        for (g, &v) in gsrc.iter_mut().zip(gdst) {
                            *g += w * v;
                        }
                    }
                }
                Op::MeanPool(x) => {
                    let xv = &self.nodes[x.0].value;
                    let inv = 1.0 / xv.rows.max(1) as f32;
                    slot(glo, *x, xv.rows, xv.cols);
                    let gx = glo[x.0].as_mut().unwrap();
                    for r in 0..xv.rows {
                        for c in 0..xv.cols {
                            *gx.at_mut(r, c) += gy.at(0, c) * inv;
                        }
                    }
                }
                Op::LayerNorm { x, gamma, beta, eps } => {
                    let xv = &self.nodes[x.0].value;
                    let g = &self.nodes[gamma.0].value;
                    let d = xv.cols;
                    slot(glo, *x, xv.rows, d);
                    slot(glo, *gamma, 1, d);
                    slot(glo, *beta, 1, d);
                    dxhat.clear();
                    dxhat.resize(d, 0.0);
                    for r in 0..xv.rows {
                        let row = xv.row(r);
                        let mu: f32 = row.iter().sum::<f32>() / d as f32;
                        let var: f32 =
                            row.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
                        let inv = 1.0 / (var + eps).sqrt();
                        // dxhat, plus the two mean corrections.
                        let mut mean_dxhat = 0.0f32;
                        let mut mean_dxhat_xhat = 0.0f32;
                        for c in 0..d {
                            let xhat = (row[c] - mu) * inv;
                            let dy = gy.at(r, c);
                            glo[gamma.0].as_mut().unwrap().data[c] += dy * xhat;
                            glo[beta.0].as_mut().unwrap().data[c] += dy;
                            dxhat[c] = dy * g.at(0, c);
                            mean_dxhat += dxhat[c];
                            mean_dxhat_xhat += dxhat[c] * xhat;
                        }
                        mean_dxhat /= d as f32;
                        mean_dxhat_xhat /= d as f32;
                        let gx = glo[x.0].as_mut().unwrap();
                        for c in 0..d {
                            let xhat = (row[c] - mu) * inv;
                            *gx.at_mut(r, c) +=
                                (dxhat[c] - mean_dxhat - xhat * mean_dxhat_xhat) * inv;
                        }
                    }
                }
                Op::SoftmaxCe { logits, label, probs } => {
                    let scale = gy.at(0, 0);
                    slot(glo, *logits, 1, probs.cols);
                    let gl = glo[logits.0].as_mut().unwrap();
                    for (j, (o, &p)) in gl.data.iter_mut().zip(&probs.data).enumerate() {
                        *o += scale * (p - (j == *label) as u8 as f32);
                    }
                }
            }
        }
        grads
    }
}

/// Indices of a forward pass's interesting nodes on the tape.
pub struct Forward {
    pub tape: Tape,
    /// Tape var per parameter, aligned with `GnnModel::params`.
    pub param_vars: Vec<Var>,
    /// The pooled graph embedding (`1×hidden`) — the "vector" of Fig. 2
    /// consumed by the FCNN head, the hybrid model, and the flag model.
    pub pooled: Var,
    /// Class logits (`1×classes`).
    pub logits: Var,
}

impl GnnModel {
    /// Build the forward graph for one program graph.
    pub fn forward(&self, g: &GraphData) -> Forward {
        let mut tape = Tape::new();
        let param_vars: Vec<Var> = self.params.iter().map(|p| tape.leaf(p.clone())).collect();

        let mut idx = 0usize;
        let mut next = || {
            let v = param_vars[idx];
            idx += 1;
            v
        };
        let embed = next();

        let ids = Rc::new(g.node_text.clone());
        let mut h = tape.gather(embed, ids);
        let mut first_layer_out = None;

        for _l in 0..self.cfg.layers {
            let w_self = next();
            let self_term = tape.matmul(h, w_self);
            let mut acc = self_term;
            for r in 0..NUM_RELATIONS {
                let w_r = next();
                if g.edges[r].is_empty() {
                    continue; // no messages along this relation
                }
                let (edges, norm) = g.relation(r);
                let msgs = tape.spmm(h, edges, norm);
                let term = tape.matmul(msgs, w_r);
                acc = tape.add(acc, term);
            }
            let bias = next();
            let pre = tape.add_bias(acc, bias);
            h = tape.relu(pre);
            if first_layer_out.is_none() {
                first_layer_out = Some(h);
            }
        }

        // Residual connection around the deeper layers, then normalization.
        let res = match first_layer_out {
            Some(h1) if self.cfg.layers > 1 => tape.add(h1, h),
            _ => h,
        };
        let gamma = next();
        let beta = next();
        let normed = if self.cfg.layer_norm { tape.layer_norm(res, gamma, beta) } else { res };
        let pooled = tape.mean_pool(normed);

        let fc1 = next();
        let b1 = next();
        let z = tape.matmul(pooled, fc1);
        let z = tape.add_bias(z, b1);
        let z = tape.relu(z);
        let fc2 = next();
        let b2 = next();
        let logits = tape.matmul(z, fc2);
        let logits = tape.add_bias(logits, b2);

        debug_assert_eq!(idx, param_vars.len(), "all parameters consumed");
        Forward { tape, param_vars, pooled, logits }
    }

    /// Loss and parameter gradients for one labeled graph.
    pub fn loss_and_grads(&self, g: &GraphData, label: usize) -> (f64, Vec<Tensor>) {
        let mut f = self.forward(g);
        let loss = f.tape.softmax_ce(f.logits, label);
        let loss_val = f.tape.value(loss).data[0] as f64;
        let grads = f.tape.backward(loss);
        let out = f
            .param_vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                grads[v.index()]
                    .clone()
                    .unwrap_or_else(|| Tensor::zeros(self.params[i].rows, self.params[i].cols))
            })
            .collect();
        (loss_val, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central-difference gradient check for a scalar-valued builder.
    fn grad_check(inputs: Vec<Tensor>, build: impl Fn(&mut Tape, &[Var]) -> Var) {
        // Analytic gradients.
        let mut tape = Tape::new();
        let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
        let loss = build(&mut tape, &vars);
        assert_eq!(tape.value(loss).data.len(), 1, "loss must be scalar");
        let grads = tape.backward(loss);

        let eps = 2e-2f32;
        for (vi, input) in inputs.iter().enumerate() {
            let analytic =
                grads[vi].clone().unwrap_or_else(|| Tensor::zeros(input.rows, input.cols));
            for j in 0..input.data.len() {
                let mut plus = inputs.clone();
                plus[vi].data[j] += eps;
                let mut minus = inputs.clone();
                minus[vi].data[j] -= eps;
                let f = |ins: &[Tensor]| -> f32 {
                    let mut t = Tape::new();
                    let vs: Vec<Var> = ins.iter().map(|x| t.leaf(x.clone())).collect();
                    let l = build(&mut t, &vs);
                    t.value(l).data[0]
                };
                let numeric = (f(&plus) - f(&minus)) / (2.0 * eps);
                let a = analytic.data[j];
                let denom = a.abs().max(numeric.abs()).max(1e-2);
                assert!(
                    (a - numeric).abs() / denom < 0.12,
                    "input {vi} elem {j}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }

    fn t(rows: usize, cols: usize, v: &[f32]) -> Tensor {
        Tensor::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn gradcheck_matmul_bias_relu_ce() {
        grad_check(
            vec![
                t(1, 3, &[0.5, -0.3, 0.8]),
                t(3, 4, &[0.1, 0.2, -0.1, 0.4, -0.2, 0.3, 0.2, -0.3, 0.05, -0.15, 0.25, 0.35]),
                t(1, 4, &[0.01, -0.02, 0.03, 0.04]),
            ],
            |tape, v| {
                let h = tape.matmul(v[0], v[1]);
                let h = tape.add_bias(h, v[2]);
                let h = tape.relu(h);
                tape.softmax_ce(h, 2)
            },
        );
    }

    #[test]
    fn gradcheck_spmm_meanpool() {
        let edges = Rc::new(vec![(0u32, 1u32), (1, 2), (2, 0), (0, 2)]);
        let norm = Rc::new(vec![1.0f32, 0.5, 0.5, 0.5]);
        grad_check(
            vec![
                t(3, 2, &[0.4, -0.2, 0.1, 0.7, -0.5, 0.3]),
                t(2, 3, &[0.3, -0.1, 0.2, 0.15, 0.25, -0.35]),
            ],
            move |tape, v| {
                let msg = tape.spmm(v[0], edges.clone(), norm.clone());
                let pooled = tape.mean_pool(msg);
                let logits = tape.matmul(pooled, v[1]);
                tape.softmax_ce(logits, 0)
            },
        );
    }

    #[test]
    fn gradcheck_layernorm_residual() {
        grad_check(
            vec![
                t(2, 4, &[0.9, -0.4, 0.2, 0.6, -0.3, 0.8, 0.1, -0.7]),
                t(1, 4, &[1.1, 0.9, 1.05, 0.95]),
                t(1, 4, &[0.0, 0.1, -0.1, 0.05]),
                t(4, 3, &[0.2, -0.1, 0.3, 0.1, 0.25, -0.2, -0.15, 0.05, 0.1, 0.3, -0.25, 0.15]),
            ],
            |tape, v| {
                let doubled = tape.add(v[0], v[0]); // residual-style reuse
                let n = tape.layer_norm(doubled, v[1], v[2]);
                let pooled = tape.mean_pool(n);
                let logits = tape.matmul(pooled, v[3]);
                tape.softmax_ce(logits, 1)
            },
        );
    }

    #[test]
    fn gradcheck_gather() {
        let ids = Rc::new(vec![2u32, 0, 2]);
        grad_check(
            vec![t(3, 2, &[0.5, -0.2, 0.3, 0.8, -0.4, 0.6]), t(2, 2, &[0.2, -0.3, 0.4, 0.1])],
            move |tape, v| {
                let rows = tape.gather(v[0], ids.clone());
                let pooled = tape.mean_pool(rows);
                let logits = tape.matmul(pooled, v[1]);
                tape.softmax_ce(logits, 1)
            },
        );
    }

    #[test]
    fn softmax_probs_sum_to_one() {
        let mut tape = Tape::new();
        let l = tape.leaf(t(1, 5, &[1.0, 2.0, 3.0, 4.0, 5.0]));
        let loss = tape.softmax_ce(l, 4);
        let p = tape.cached_probs(loss);
        let sum: f32 = p.data.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(tape.value(loss).data[0] > 0.0);
        // Most probable class has the largest logit.
        let argmax = p.data.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(argmax, 4);
    }
}
