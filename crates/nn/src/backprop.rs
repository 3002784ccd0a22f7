//! Fused forward+backward for the RGCN — the one implementation of the
//! model that training and inference run.
//!
//! This module runs Eq. 1 and the Fig. 2 head once, in `forward_into`, for
//! every caller: [`GnnModel::fused_loss_grads`] follows it with the
//! backward, and [`crate::infer`] copies its outputs out. It allocates
//! nothing per graph once its buffers have grown. The design:
//!
//! * **Per-thread scratch.** All activations the backward pass needs
//!   (per-layer hidden states, per-relation message buffers, the residual
//!   sum) plus every backward temporary live in a reusable [`TrainScratch`],
//!   grow-only across graphs and epochs. The forward sizes only its own
//!   buffers, so inference never grows the gradient temporaries. ReLU masks
//!   are implicit: the saved post-activation `h` is zero exactly where the
//!   pre-activation was `<= 0`, which is the tape's masking rule.
//! * **Fused kernels.** The forward runs the shape-dispatched matmul,
//!   SpMM and layer-norm kernels ([`crate::dispatch`]) over the cached CSR
//!   adjacency, so its outputs are bit-identical to the test-only autograd
//!   tape's. The backward stages activation transposes into the scratch
//!   (`xt`, no allocation), reads the training plan's prepacked weight
//!   transposes ([`ModelPlan::build_training`]), and drives the large
//!   `dW += xᵀ·dy` / `dx += dy·Wᵀ` products through the same blocked
//!   kernels — transpose-free kernels compute one dependent add chain per
//!   output element and are FP-latency-bound, which made the backward ~7×
//!   the forward; staged transposes bring it back to the ~2× the FLOP ratio
//!   predicts, bit-identically (both orderings match the materialized
//!   transpose exactly). The SpMM backward walks a cached source-grouped
//!   CSC mirror ([`GraphArrays::csc`](crate::GraphArrays::csc)) so `dx[src]` rows accumulate
//!   independently, in original edge order.
//! * **Flat gradient accumulation.** Gradients for one graph land in a
//!   [`GradBuffer`] — one flat `Vec<f32>` spanning every parameter but the
//!   embedding, plus the embedding rows the graph's tokens touch — not a
//!   `Vec<Option<Tensor>>` per graph. A graph's gradient is exactly +0.0 on
//!   every other embedding row, and a row sum that starts from +0.0 never
//!   becomes −0.0, so leaving those rows out changes no bit of any sum.
//! * **Deterministic reduction.** [`FusedEngine::batch_grads`] assigns
//!   graph `chunk[i]` to pool buffer `i` (fixed assignment, independent of
//!   thread scheduling) and combines the buffers with an ordered pairwise
//!   tree reduce whose shape depends only on the chunk length, merging
//!   embedding rows by token id; the reduced buffer is written once into a
//!   dense gradient for the optimizer. Training is bit-for-bit reproducible
//!   for a given seed at any thread count.
//!
//! The autograd tape, compiled into test builds only, is the reference
//! oracle: `src/oracle_tests/proptest_backprop.rs` asserts fused gradients
//! match `Tape::backward` within `1e-4` across random graphs, widths, layer
//! counts, and the layer-norm ablation.

use crate::dispatch::{
    self, matmul_accumulate_auto, plan_matmul, ModelPlan, RelView, SpmmStrategy,
};
use crate::graphdata::{GraphData, NUM_RELATIONS};
use crate::model::{GnnModel, ParamLayout};
use crate::tensor::{
    matmul_transpose_a_accumulate, matmul_transpose_b_accumulate, softmax_into, transpose_into,
};
use rayon::prelude::*;
use std::cell::RefCell;

/// Layer-norm variance epsilon (the tape's value).
const LN_EPS: f32 = 1e-5;

/// Reusable forward+backward workspace. Buffers grow to the largest
/// (graph, model) seen and are recycled across graphs and epochs; a fresh
/// `TrainScratch` is all-empty and valid. Every buffer is fully written
/// before it is read, so resizing never re-zeroes recycled contents.
#[derive(Default)]
pub struct TrainScratch {
    /// Hidden states `h_0..h_L`, each `n×d` (`h_0` is the embedding gather,
    /// `h_{l+1}` the post-ReLU output of layer `l`). All are saved: the
    /// backward pass needs every layer input, and the post-activation
    /// doubles as the ReLU mask.
    hs: Vec<Vec<f32>>,
    /// Saved SpMM outputs, `layers × NUM_RELATIONS` buffers of `n×d`
    /// (the `msgs` operand of each relation matmul, needed for `dW_r`).
    msgs: Vec<Vec<f32>>,
    /// Forward layer accumulator / pre-activation, then the normalized
    /// rows of the layer norm (`n×d`).
    acc: Vec<f32>,
    /// Shared `n×d` temporary (forward relation term, backward `dmsgs`).
    term: Vec<f32>,
    /// Residual sum `h_1 + h_L` — the layer-norm input (`n×d`).
    res: Vec<f32>,
    /// Head activations (`d` / `classes` sized): the pooled embedding, the
    /// FC hidden layer, the logits and their softmax.
    pub(crate) pooled: Vec<f32>,
    z: Vec<f32>,
    pub(crate) logits: Vec<f32>,
    pub(crate) probs: Vec<f32>,
    // ---- backward only ----
    /// Gradient of the residual sum, kept until the backward walk reaches
    /// `h_1` (`n×d`).
    gres: Vec<f32>,
    /// Gradient w.r.t. the current hidden state (`n×d`).
    ga: Vec<f32>,
    /// Gradient w.r.t. the previous hidden state, swapped with `ga` per
    /// layer (`n×d`).
    gh: Vec<f32>,
    /// ReLU-masked gradient of the pre-activation (`n×d`).
    gpre: Vec<f32>,
    /// Staged activation transpose (`d×n`): `h_lᵀ` / `msgsᵀ` for the weight
    /// gradients, so they run through the blocked kernel.
    xt: Vec<f32>,
    /// Layer-norm backward row temporary (`d`).
    dxhat: Vec<f32>,
    /// Layer-norm affine gradients, accumulated across rows then flushed
    /// into the grad buffer (`d` each).
    dgamma: Vec<f32>,
    dbeta: Vec<f32>,
    /// Head gradients (`d` / `classes` sized).
    gz: Vec<f32>,
    gpooled: Vec<f32>,
    glogits: Vec<f32>,
}

impl TrainScratch {
    pub fn new() -> TrainScratch {
        TrainScratch::default()
    }

    /// Size the forward buffers for an `n`-node graph. Returns whether they
    /// already had room (a reuse hit: this call allocates nothing).
    fn reserve_forward(&mut self, layers: usize, n: usize, d: usize, classes: usize) -> bool {
        let nd = n * d;
        let hit = self.hs.len() > layers
            && self.msgs.len() >= layers * NUM_RELATIONS
            && self.acc.capacity() >= nd;
        self.hs.resize_with(layers + 1, Vec::new);
        self.msgs.resize_with(layers * NUM_RELATIONS, Vec::new);
        for buf in self.hs.iter_mut().chain(self.msgs.iter_mut()) {
            buf.resize(nd, 0.0);
        }
        for buf in [&mut self.acc, &mut self.term, &mut self.res] {
            buf.resize(nd, 0.0);
        }
        self.pooled.resize(d, 0.0);
        self.z.resize(d, 0.0);
        self.logits.resize(classes, 0.0);
        hit
    }

    /// Size the backward-only buffers; returns whether they already had
    /// room.
    fn reserve_backward(&mut self, n: usize, d: usize, classes: usize) -> bool {
        let nd = n * d;
        let hit = self.ga.capacity() >= nd;
        for buf in [&mut self.gres, &mut self.ga, &mut self.gh, &mut self.gpre, &mut self.xt] {
            buf.resize(nd, 0.0);
        }
        for buf in
            [&mut self.dxhat, &mut self.dgamma, &mut self.dbeta, &mut self.gz, &mut self.gpooled]
        {
            buf.resize(d, 0.0);
        }
        self.glogits.resize(classes, 0.0);
        hit
    }
}

thread_local! {
    static SCRATCH: RefCell<TrainScratch> = RefCell::new(TrainScratch::new());
}

/// Run `f` on this thread's scratch — the one workspace training and
/// inference share on a thread.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TrainScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Flat per-parameter gradient accumulator, addressed by parameter index.
///
/// The embedding table's gradient is kept by row: `rows` lists, ascending,
/// the token ids whose `width`-float rows `embed` holds. A dense buffer
/// ([`GradBuffer::for_model`]) holds every row of the table; a per-graph
/// buffer in [`FusedEngine`]'s pool holds only the rows its graph's tokens
/// touch (about 26 of 644 on the region graphs), since a graph's gradient
/// is exactly +0.0 on every other row. Every other parameter lives in one
/// contiguous `Vec<f32>`.
#[derive(Debug, Clone)]
pub struct GradBuffer {
    /// Embedding row width (the model's hidden size).
    width: usize,
    /// Token ids of the embedding rows held in `embed`, ascending, unique.
    rows: Vec<u32>,
    /// `rows.len()` rows of `width` floats.
    embed: Vec<f32>,
    /// Every parameter but the embedding: `offsets[i]..offsets[i+1]` is
    /// parameter `i`'s slice (empty for [`ParamLayout::EMBED`]).
    data: Vec<f32>,
    offsets: Vec<usize>,
}

impl GradBuffer {
    /// A zeroed buffer laid out for `model`'s parameter list, holding every
    /// embedding row.
    pub fn for_model(model: &GnnModel) -> GradBuffer {
        let mut gb = GradBuffer::without_rows(model);
        let table = &model.params[ParamLayout::EMBED];
        gb.rows = (0..table.rows as u32).collect();
        gb.embed = vec![0.0; table.data.len()];
        gb
    }

    /// A zeroed buffer for `model` that holds no embedding rows yet
    /// ([`GradBuffer::reset_for_graph`] sizes it per graph).
    fn without_rows(model: &GnnModel) -> GradBuffer {
        let mut offsets = Vec::with_capacity(model.params.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for (i, p) in model.params.iter().enumerate() {
            if i != ParamLayout::EMBED {
                total += p.data.len();
            }
            offsets.push(total);
        }
        GradBuffer {
            width: model.cfg.hidden,
            rows: Vec::new(),
            embed: Vec::new(),
            data: vec![0.0; total],
            offsets,
        }
    }

    /// Whether the non-embedding layout and the row width fit `model`.
    fn matches(&self, model: &GnnModel) -> bool {
        self.width == model.cfg.hidden
            && self.offsets.len() == model.params.len() + 1
            && self.offsets.windows(2).zip(&model.params).enumerate().all(|(i, (o, p))| {
                o[1] - o[0] == if i == ParamLayout::EMBED { 0 } else { p.data.len() }
            })
    }

    /// Whether every embedding row of `model`'s table is held.
    fn is_dense_for(&self, model: &GnnModel) -> bool {
        self.matches(model) && self.rows.len() == model.params[ParamLayout::EMBED].rows
    }

    /// Zero the buffer and hold exactly the embedding rows of `g`'s tokens.
    fn reset_for_graph(&mut self, g: &GraphData) {
        self.rows.clear();
        self.rows.extend_from_slice(&g.node_text);
        self.rows.sort_unstable();
        self.rows.dedup();
        self.embed.clear();
        self.embed.resize(self.rows.len() * self.width, 0.0);
        self.data.fill(0.0);
    }

    pub fn view(&self, i: usize) -> &[f32] {
        if i == ParamLayout::EMBED {
            &self.embed
        } else {
            &self.data[self.offsets[i]..self.offsets[i + 1]]
        }
    }

    pub fn view_mut(&mut self, i: usize) -> &mut [f32] {
        if i == ParamLayout::EMBED {
            &mut self.embed
        } else {
            &mut self.data[self.offsets[i]..self.offsets[i + 1]]
        }
    }

    /// One read-only slice per parameter, aligned with `model.params`.
    pub fn views(&self) -> Vec<&[f32]> {
        (0..self.offsets.len() - 1).map(|i| self.view(i)).collect()
    }

    /// Token `id`'s embedding-gradient row. Panics if the buffer does not
    /// hold it.
    fn embed_row_mut(&mut self, id: u32) -> &mut [f32] {
        // Rows are ascending and unique, so `rows[id] == id` means rows
        // `0..=id` are all present (always true of a dense buffer).
        let at = if self.rows.get(id as usize) == Some(&id) {
            id as usize
        } else {
            self.rows
                .binary_search(&id)
                .unwrap_or_else(|_| panic!("no gradient row for token {id}"))
        };
        &mut self.embed[at * self.width..(at + 1) * self.width]
    }

    /// `self += other`, element by element. Embedding rows merge by token
    /// id: a row only one side holds is copied, which is exact because the
    /// other side's absent row is +0.0 and a held row is never −0.0 (every
    /// row sum starts from +0.0, and a sum that starts from +0.0 cannot
    /// reach −0.0). The result is therefore bit-identical to adding the two
    /// buffers densified to the full table.
    pub fn add_assign(&mut self, other: &GradBuffer) {
        debug_assert_eq!(self.data.len(), other.data.len());
        debug_assert_eq!(self.width, other.width);
        dispatch::vec_add_assign(&mut self.data, &other.data);
        if self.rows == other.rows {
            dispatch::vec_add_assign(&mut self.embed, &other.embed);
            return;
        }
        // Merge from the back, in place: the write cursor never passes the
        // unread part of `self`, since it stays ahead by the number of
        // `other`-only rows still to place.
        let d = self.width;
        let shared = count_shared(&self.rows, &other.rows);
        let (mut i, mut j) = (self.rows.len(), other.rows.len());
        let mut w = i + j - shared;
        self.rows.resize(w, 0);
        self.embed.resize(w * d, 0.0);
        while j > 0 {
            w -= 1;
            let theirs = other.rows[j - 1];
            if i > 0 && self.rows[i - 1] >= theirs {
                i -= 1;
                self.rows[w] = self.rows[i];
                self.embed.copy_within(i * d..(i + 1) * d, w * d);
                if self.rows[w] == theirs {
                    j -= 1;
                    dispatch::vec_add_assign(
                        &mut self.embed[w * d..(w + 1) * d],
                        &other.embed[j * d..(j + 1) * d],
                    );
                }
            } else {
                j -= 1;
                self.rows[w] = theirs;
                self.embed[w * d..(w + 1) * d].copy_from_slice(&other.embed[j * d..(j + 1) * d]);
            }
        }
        debug_assert_eq!(w, i, "rows left in `self` are already in place");
    }

    /// Write `alpha · self` into the dense buffer `out`, rows absent here
    /// as +0.0 (exactly `alpha · 0.0` for a positive `alpha`).
    fn scale_into_dense(&self, alpha: f32, out: &mut GradBuffer) {
        let d = self.width;
        out.embed.fill(0.0);
        for (k, &id) in self.rows.iter().enumerate() {
            let src = &self.embed[k * d..(k + 1) * d];
            for (o, &g) in out.embed[id as usize * d..(id as usize + 1) * d].iter_mut().zip(src) {
                *o = g * alpha;
            }
        }
        for (o, &g) in out.data.iter_mut().zip(&self.data) {
            *o = g * alpha;
        }
    }

    /// Sum of squared entries (for gradient-norm telemetry).
    pub fn squared_norm(&self) -> f64 {
        self.embed.iter().chain(&self.data).map(|&g| g as f64 * g as f64).sum()
    }
}

/// How many ids two ascending, duplicate-free lists share.
fn count_shared(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

impl GnnModel {
    /// The forward pass (Eq. 1 and the Fig. 2 head) into `s`: embedding
    /// gather, RGCN layers, residual, layer norm + mean pool, FC head and
    /// softmax. Saves every activation the backward reads (`hs`, `msgs`,
    /// `res`) and leaves `pooled`, `z`, `logits` and `probs` in `s`,
    /// bit-identical to the test-only tape's forward. `plan`, when given,
    /// must match the model's current parameters. Returns whether
    /// `s` already had room for this graph (a scratch reuse hit).
    pub(crate) fn forward_into(
        &self,
        g: &GraphData,
        s: &mut TrainScratch,
        plan: Option<&ModelPlan>,
    ) -> bool {
        let d = self.cfg.hidden;
        let n = g.num_nodes();
        let layers = self.cfg.layers;
        let hit = s.reserve_forward(layers, n, d, self.cfg.classes);
        let lay = self.layout();
        let p = &self.params;

        for (row, &id) in g.node_text.iter().enumerate() {
            s.hs[0][row * d..(row + 1) * d].copy_from_slice(p[ParamLayout::EMBED].row(id as usize));
        }

        let csr = g.csr();
        for l in 0..layers {
            let (h_in, h_rest) = s.hs.split_at_mut(l + 1);
            let h_in = &h_in[l];
            let h_out = &mut h_rest[0];

            s.acc.fill(0.0);
            let w_self = ParamLayout::w_self(l);
            plan_matmul(plan, w_self, h_in, n, &p[w_self], &mut s.acc);

            for (r, csr_r) in csr.iter().enumerate() {
                if g.edges[r].is_empty() {
                    continue;
                }
                // SpMM through the strategy this relation's shape selects.
                // Every strategy visits a destination's incoming edges in the
                // tape's edge order, so sums round identically.
                let msgs = &mut s.msgs[l * NUM_RELATIONS + r];
                let rel = RelView { rows: csr_r, edges: &g.edges[r], norm: &g.norm[r] };
                let strategy = SpmmStrategy::for_relation(n, g.edges[r].len());
                dispatch::spmm_forward(strategy, rel, h_in, n, d, msgs);
                // Like the tape, the product goes through a zeroed buffer
                // before joining the accumulator (summing straight into
                // `acc` would regroup the additions).
                s.term.fill(0.0);
                let w_r = ParamLayout::w_rel(l, r);
                plan_matmul(plan, w_r, msgs, n, &p[w_r], &mut s.term);
                dispatch::vec_add_assign(&mut s.acc, &s.term);
            }

            let bias = &p[ParamLayout::bias(l)];
            dispatch::bias_relu_rows(&s.acc, &bias.data, h_out);
        }

        // Residual around the deeper layers. f32 addition is commutative,
        // so `h_L + h_1` rounds identically to the tape's `h1 + h`.
        s.res.copy_from_slice(&s.hs[layers]);
        if layers > 1 {
            dispatch::vec_add_assign(&mut s.res, &s.hs[1]);
        }

        // Layer norm (unless ablated off) fused with mean pooling: the
        // normalized rows are consumed only by the column mean, so they are
        // pooled on the fly — per column, rows accumulate in ascending
        // order, exactly as the tape's `mean_pool` sums them.
        s.pooled.fill(0.0);
        if self.cfg.layer_norm {
            let (gamma, beta) = (&p[lay.gamma].data, &p[lay.beta].data);
            dispatch::ln_pool_rows(&s.res, n, gamma, beta, LN_EPS, &mut s.acc, &mut s.pooled);
        } else {
            for row in s.res.chunks_exact(d) {
                dispatch::vec_add_assign(&mut s.pooled, row);
            }
        }
        let inv_n = 1.0 / n.max(1) as f32;
        for v in s.pooled.iter_mut() {
            *v *= inv_n;
        }

        // FC head: z = relu(pooled @ fc1 + b1); logits = z @ fc2 + b2.
        s.z.fill(0.0);
        plan_matmul(plan, lay.fc1, &s.pooled, 1, &p[lay.fc1], &mut s.z);
        for (zv, &bv) in s.z.iter_mut().zip(&p[lay.b1].data) {
            let pre = *zv + bv;
            *zv = if pre < 0.0 { 0.0 } else { pre };
        }
        s.logits.fill(0.0);
        plan_matmul(plan, lay.fc2, &s.z, 1, &p[lay.fc2], &mut s.logits);
        for (lv, &bv) in s.logits.iter_mut().zip(&p[lay.b2].data) {
            *lv += bv;
        }

        // Softmax (max-shifted, like the tape's loss node).
        softmax_into(&s.logits, &mut s.probs);
        hit
    }

    /// Fused forward+backward for one labeled graph: returns the
    /// cross-entropy loss and **adds** (never overwrites) this graph's
    /// parameter gradients into `grads`. The forward pass is bit-identical
    /// to the test-only tape's forward + `softmax_ce`; gradients match
    /// `Tape::backward` to float rounding (≤1e-4 enforced by proptest).
    ///
    /// `plan` must come from [`ModelPlan::build_training`] on the model's
    /// current parameters ([`FusedEngine::batch_grads`] rebuilds it once per
    /// minibatch, after each optimizer step): forward products use its
    /// prepacked weight panels and the backward's `dx += dy·Wᵀ` products
    /// read its prematerialized transposes.
    pub fn fused_loss_grads(
        &self,
        g: &GraphData,
        label: usize,
        s: &mut TrainScratch,
        grads: &mut GradBuffer,
        plan: &ModelPlan,
    ) -> f64 {
        let _f = irnuma_obs::profile_frame!("train.fused_grads");
        debug_assert!(grads.matches(self), "grad buffer laid out for another model");
        let d = self.cfg.hidden;
        let n = g.num_nodes();
        let classes = self.cfg.classes;
        let layers = self.cfg.layers;
        assert!(label < classes, "label {label} out of range");
        let forward_hit = self.forward_into(g, s, Some(plan));
        let backward_hit = s.reserve_backward(n, d, classes);
        if irnuma_obs::telemetry_enabled() {
            if forward_hit && backward_hit {
                irnuma_obs::counter!("train.scratch_hits").inc(1);
            } else {
                irnuma_obs::counter!("train.scratch_misses").inc(1);
            }
        }
        let loss = -(s.probs[label].max(1e-12)).ln() as f64;
        let lay = self.layout();
        let p = &self.params;
        let gamma = &p[lay.gamma];
        let inv_n = 1.0 / n.max(1) as f32;

        // d loss / d logits = probs - onehot(label).
        for (j, (gl, &pv)) in s.glogits.iter_mut().zip(&s.probs).enumerate() {
            *gl = pv - (j == label) as u8 as f32;
        }

        // FC2 head: db2 += glogits; dfc2 += zᵀ @ glogits; gz = glogits @ fc2ᵀ.
        dispatch::vec_add_assign(grads.view_mut(lay.b2), &s.glogits);
        matmul_transpose_a_accumulate(&s.z, 1, d, &s.glogits, classes, grads.view_mut(lay.fc2));
        s.gz.fill(0.0);
        matmul_transpose_b_accumulate(&s.glogits, 1, classes, &p[lay.fc2].data, d, &mut s.gz);
        // ReLU mask: z is zero exactly where the pre-activation was <= 0.
        for (gv, &zv) in s.gz.iter_mut().zip(&s.z) {
            if zv <= 0.0 {
                *gv = 0.0;
            }
        }
        // FC1: db1 += gz; dfc1 += pooledᵀ @ gz; gpooled = gz @ fc1ᵀ.
        dispatch::vec_add_assign(grads.view_mut(lay.b1), &s.gz);
        matmul_transpose_a_accumulate(&s.pooled, 1, d, &s.gz, d, grads.view_mut(lay.fc1));
        s.gpooled.fill(0.0);
        matmul_transpose_b_accumulate(&s.gz, 1, d, &p[lay.fc1].data, d, &mut s.gpooled);

        // Mean-pool backward spreads `gpooled·1/n` to every row; fuse it
        // with the layer-norm backward so the `n×d` upstream gradient is
        // never materialized.
        if self.cfg.layer_norm {
            s.dgamma.fill(0.0);
            s.dbeta.fill(0.0);
            for row in 0..n {
                let x = &s.res[row * d..(row + 1) * d];
                let (mu, inv) = dispatch::ln_row_stats(x, d, LN_EPS);
                let mut mean_dxhat = 0.0f32;
                let mut mean_dxhat_xhat = 0.0f32;
                for ((((&xc, &gp), dg), db), (dx, &gc)) in x
                    .iter()
                    .zip(&s.gpooled)
                    .zip(s.dgamma.iter_mut())
                    .zip(s.dbeta.iter_mut())
                    .zip(s.dxhat.iter_mut().zip(&gamma.data))
                {
                    let xhat = (xc - mu) * inv;
                    let dy = gp * inv_n;
                    *dg += dy * xhat;
                    *db += dy;
                    *dx = dy * gc;
                    mean_dxhat += *dx;
                    mean_dxhat_xhat += *dx * xhat;
                }
                mean_dxhat /= d as f32;
                mean_dxhat_xhat /= d as f32;
                let grow = &mut s.ga[row * d..(row + 1) * d];
                for c in 0..d {
                    let xhat = (x[c] - mu) * inv;
                    grow[c] = (s.dxhat[c] - mean_dxhat - xhat * mean_dxhat_xhat) * inv;
                }
            }
            dispatch::vec_add_assign(grads.view_mut(lay.gamma), &s.dgamma);
            dispatch::vec_add_assign(grads.view_mut(lay.beta), &s.dbeta);
        } else {
            for row in 0..n {
                let grow = &mut s.ga[row * d..(row + 1) * d];
                for (o, &gp) in grow.iter_mut().zip(&s.gpooled) {
                    *o = gp * inv_n;
                }
            }
        }

        // Residual: the same upstream gradient reaches h_L now and h_1 when
        // the backward walk gets there.
        if layers > 1 {
            s.gres.copy_from_slice(&s.ga);
        }

        // Layer backward, deepest first. `s.ga` holds d loss / d h_{l+1}.
        for l in (0..layers).rev() {
            let w_self = ParamLayout::w_self(l);
            // ReLU mask via the saved post-activation.
            for ((gp, &ga), &hv) in s.gpre.iter_mut().zip(&s.ga).zip(&s.hs[l + 1]) {
                *gp = if hv > 0.0 { ga } else { 0.0 };
            }
            // Bias: column sums in ascending row order (tape order).
            let db = grads.view_mut(ParamLayout::bias(l));
            for row in s.gpre.chunks_exact(d) {
                dispatch::vec_add_assign(db, row);
            }
            // Self term: dW_self += h_lᵀ @ gpre, with `h_lᵀ` staged into
            // scratch so the product runs through the blocked kernel
            // (bit-identical to the transpose-free kernel: both accumulate
            // each output element over ascending rows of `h_l`).
            transpose_into(&s.hs[l], n, d, &mut s.xt);
            matmul_accumulate_auto(&s.xt, d, n, &s.gpre, d, grads.view_mut(w_self));

            // Gradient w.r.t. h_l: seeded with the residual's share when
            // this layer's input is h_1 (matching the tape, where the
            // residual Add is the first node to touch grads[h1] in the
            // reverse walk), then the relation terms in reverse forward
            // order, then the self term.
            if l == 1 && layers > 1 {
                s.gh.copy_from_slice(&s.gres);
            } else {
                s.gh.fill(0.0);
            }
            for r in (0..NUM_RELATIONS).rev() {
                if g.edges[r].is_empty() {
                    continue;
                }
                // dW_r += msgsᵀ @ gpre.
                let w_r = ParamLayout::w_rel(l, r);
                transpose_into(&s.msgs[l * NUM_RELATIONS + r], n, d, &mut s.xt);
                matmul_accumulate_auto(&s.xt, d, n, &s.gpre, d, grads.view_mut(w_r));
                // dmsgs = gpre @ W_rᵀ through the plan's prematerialized
                // transpose, then the SpMM backward scatters w·dmsgs[dst]
                // into dh[src] under the same strategy the forward used.
                s.term.fill(0.0);
                matmul_accumulate_auto(&s.gpre, n, d, plan.weight_t(w_r), d, &mut s.term);
                let rel = RelView { rows: &g.csc()[r], edges: &g.edges[r], norm: &g.norm[r] };
                let strategy = SpmmStrategy::for_relation(n, g.edges[r].len());
                dispatch::spmm_backward(strategy, rel, &s.term, n, d, &mut s.gh);
            }
            matmul_accumulate_auto(&s.gpre, n, d, plan.weight_t(w_self), d, &mut s.gh);
            std::mem::swap(&mut s.ga, &mut s.gh);
        }

        // Embedding gather backward: scatter rows in ascending node order.
        for (grow, &id) in s.ga.chunks_exact(d).zip(&g.node_text) {
            dispatch::vec_add_assign(grads.embed_row_mut(id), grow);
        }
        loss
    }
}

/// Minibatch gradient driver: a pool of per-graph [`GradBuffer`]s (one per
/// in-flight graph, each holding only its graph's embedding rows, reused
/// across batches and epochs), the deterministic ordered tree reduction
/// that combines them, and the dense mean gradient the optimizer reads.
#[derive(Default)]
pub struct FusedEngine {
    pool: Vec<GradBuffer>,
    mean: Option<GradBuffer>,
}

impl FusedEngine {
    pub fn new() -> FusedEngine {
        FusedEngine::default()
    }

    /// Compute the mean gradient over `chunk` (indices into
    /// `graphs`/`labels`). Returns the summed loss and the reduced, scaled,
    /// dense gradient (borrowing the engine). Deterministic at any thread
    /// count: graph `chunk[i]` always lands in pool buffer `i`, and the
    /// pairwise reduction tree depends only on `chunk.len()`.
    pub fn batch_grads<'a>(
        &'a mut self,
        model: &GnnModel,
        graphs: &[GraphData],
        labels: &[usize],
        chunk: &[usize],
    ) -> (f64, &'a GradBuffer) {
        assert!(!chunk.is_empty(), "empty minibatch");
        let k = chunk.len();
        if self.pool.first().is_some_and(|b| !b.matches(model)) {
            self.pool.clear();
        }
        while self.pool.len() < k {
            self.pool.push(GradBuffer::without_rows(model));
        }

        let t0 = irnuma_obs::telemetry_enabled().then(std::time::Instant::now);
        // One span per minibatch (covering prepack, fan-out, and reduce);
        // per-graph worker spans only open while a trace sink is installed,
        // so the stats-only serving path stays span-free in the hot loop.
        let span = irnuma_obs::span!("train.batch_grads", graphs = k);
        let ctx = span.ctx();
        // Prepack the weights once for the whole minibatch (the optimizer
        // mutates parameters between batches, so the plan cannot outlive
        // one call); every worker shares the packed panels and layer-weight
        // transposes read-only.
        let plan = ModelPlan::build_training(model);
        let losses: Vec<f64> = self.pool[..k]
            .par_iter_mut()
            .zip(chunk.par_iter())
            .map(|(buf, &i)| {
                let _g = irnuma_obs::span_fanout!(ctx, "train.graph_grads");
                buf.reset_for_graph(&graphs[i]);
                let loss =
                    with_scratch(|s| model.fused_loss_grads(&graphs[i], labels[i], s, buf, &plan));
                if irnuma_obs::telemetry_enabled() {
                    irnuma_obs::counter!("train.fused_graphs").inc(1);
                }
                loss
            })
            .collect();

        // Ordered pairwise tree reduce: level by level, buffer `i` absorbs
        // buffer `i + gap`, merging their embedding rows. The summation tree
        // is a function of `k` alone, so the reduced gradient is
        // bit-identical at any thread count.
        let mut gap = 1;
        while gap < k {
            self.pool[..k].par_chunks_mut(2 * gap).for_each(|pair| {
                if pair.len() > gap {
                    let (a, b) = pair.split_at_mut(gap);
                    a[0].add_assign(&b[0]);
                }
            });
            gap *= 2;
        }
        if !self.mean.as_ref().is_some_and(|m| m.is_dense_for(model)) {
            self.mean = Some(GradBuffer::for_model(model));
        }
        let mean = self.mean.as_mut().expect("mean buffer sized above");
        self.pool[0].scale_into_dense(1.0 / k as f32, mean);
        if let Some(t0) = t0 {
            irnuma_obs::histogram!("train.fused_batch_ns").record_duration(t0.elapsed());
        }
        // Canonical-order loss sum (chunk order, not completion order).
        (losses.iter().sum(), mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnConfig;
    use crate::tensor::Tensor;
    use irnuma_graph::{EdgeKind, Graph, NodeKind};

    fn toy_graph(seed: u32) -> GraphData {
        let mut g = Graph::default();
        let n = 5 + (seed % 4);
        let mut prev = None;
        for i in 0..n {
            let node = g.add_node(NodeKind::Instruction, (seed + i) % 20);
            if let Some(p) = prev {
                g.add_edge(p, node, EdgeKind::Control, 0);
                g.add_edge(node, p, EdgeKind::Data, 0);
                if i % 3 == 0 {
                    g.add_edge(p, node, EdgeKind::Call, 0);
                }
            }
            prev = Some(node);
        }
        GraphData::from_graph(&g)
    }

    fn model(layers: usize, layer_norm: bool) -> GnnModel {
        GnnModel::new(GnnConfig {
            vocab_size: 24,
            hidden: 8,
            classes: 4,
            layers,
            layer_norm,
            seed: 9,
        })
    }

    /// Fused forward+backward on this thread's scratch, through a fresh
    /// training plan.
    fn fused(m: &GnnModel, g: &GraphData, label: usize, grads: &mut GradBuffer) -> f64 {
        let plan = ModelPlan::build_training(m);
        with_scratch(|s| m.fused_loss_grads(g, label, s, grads, &plan))
    }

    /// Every gradient of a buffer, embedding first, at full table width.
    fn dense(gb: &GradBuffer) -> Vec<f32> {
        gb.views().concat()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_grads_close(m: &GnnModel, fused: &GradBuffer, tape: &[Tensor], tol: f32) {
        for (i, t) in tape.iter().enumerate() {
            for (j, (&a, &b)) in fused.view(i).iter().zip(&t.data).enumerate() {
                assert!(
                    (a - b).abs() <= tol,
                    "param {} ({}) elem {j}: fused {a} vs tape {b}",
                    i,
                    m.param_name(i)
                );
            }
        }
    }

    #[test]
    fn fused_matches_tape_under_all_layer_combos() {
        for layers in [1usize, 2, 3] {
            for layer_norm in [true, false] {
                let m = model(layers, layer_norm);
                for seed in 0..4u32 {
                    let g = toy_graph(seed);
                    let label = (seed as usize) % 4;
                    let (tape_loss, tape) = m.loss_and_grads(&g, label);
                    let mut gb = GradBuffer::for_model(&m);
                    let fused_loss = fused(&m, &g, label, &mut gb);
                    assert_eq!(
                        fused_loss, tape_loss,
                        "forward loss must be bit-identical (layers={layers}, ln={layer_norm})"
                    );
                    assert_grads_close(&m, &gb, &tape, 1e-4);
                }
            }
        }
    }

    #[test]
    fn scratch_recycles_across_graph_sizes_without_bleed() {
        let m = model(2, true);
        let big = toy_graph(3); // 8 nodes
        let small = toy_graph(0); // 5 nodes

        let plan = ModelPlan::build_training(&m);
        let fresh_grads = |g: &GraphData| -> GradBuffer {
            let mut gb = GradBuffer::for_model(&m);
            m.fused_loss_grads(g, 1, &mut TrainScratch::new(), &mut gb, &plan);
            gb
        };
        let (grads_big, grads_small) = (fresh_grads(&big), fresh_grads(&small));

        // big → small → big through one workspace must not leak stale
        // activations or gradients between graphs.
        let mut s = TrainScratch::new();
        for (g, fresh) in [(&big, &grads_big), (&small, &grads_small), (&big, &grads_big)] {
            let mut gb = GradBuffer::for_model(&m);
            m.fused_loss_grads(g, 1, &mut s, &mut gb, &plan);
            assert_eq!(dense(&gb), dense(fresh), "recycled scratch must match a fresh one bitwise");
        }

        // Inference and training share this thread's one workspace: big
        // infer → small train → big infer → small train must not bleed
        // in either direction.
        let mut fresh = TrainScratch::new();
        m.forward_into(&big, &mut fresh, None);
        for _ in 0..2 {
            let out = m.infer(&big);
            assert_eq!(out.logits, fresh.logits, "infer after train: logits");
            assert_eq!(out.pooled, fresh.pooled, "infer after train: pooled");
            assert_eq!(out.probs, fresh.probs, "infer after train: probs");
            let mut gb = GradBuffer::for_model(&m);
            fused(&m, &small, 1, &mut gb);
            assert_eq!(dense(&gb), dense(&grads_small), "train after infer");
        }
    }

    #[test]
    fn grad_buffer_accumulates_across_graphs() {
        let m = model(2, true);
        let g0 = toy_graph(0);
        let g1 = toy_graph(1);
        let mut separate0 = GradBuffer::for_model(&m);
        let mut separate1 = GradBuffer::for_model(&m);
        fused(&m, &g0, 0, &mut separate0);
        fused(&m, &g1, 2, &mut separate1);
        let mut both = GradBuffer::for_model(&m);
        fused(&m, &g0, 0, &mut both);
        fused(&m, &g1, 2, &mut both);
        for ((a, b), c) in dense(&both).iter().zip(&dense(&separate0)).zip(&dense(&separate1)) {
            assert!((a - (b + c)).abs() <= 1e-5, "{a} vs {} + {c}", b);
        }
    }

    #[test]
    fn batch_grads_is_deterministic_and_order_sensitive_only_in_chunk_order() {
        let m = model(2, true);
        let graphs: Vec<GraphData> = (0..7).map(toy_graph).collect();
        let labels: Vec<usize> = (0..7).map(|i| i % 4).collect();
        let chunk: Vec<usize> = (0..7).collect();

        let mut e1 = FusedEngine::new();
        let (l1, g1) = e1.batch_grads(&m, &graphs, &labels, &chunk);
        let g1 = g1.clone();
        let mut e2 = FusedEngine::new();
        let (l2, g2) = e2.batch_grads(&m, &graphs, &labels, &chunk);
        assert_eq!(l1, l2);
        assert_eq!(
            bits(&dense(&g1)),
            bits(&dense(g2)),
            "reduction must be bit-for-bit reproducible"
        );

        // Reusing the same engine (warm pool) must also reproduce bitwise.
        let (l3, g3) = e1.batch_grads(&m, &graphs, &labels, &chunk);
        assert_eq!(l1, l3);
        assert_eq!(bits(&dense(&g1)), bits(&dense(g3)));
    }

    /// A chain over `tokens` with edges in every relation.
    fn token_graph(tokens: Vec<u32>) -> GraphData {
        let n = tokens.len() as u32;
        let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
        for i in 1..n {
            edges[0].push((i - 1, i));
            edges[1].push((i, i - 1));
        }
        edges[2].push((0, n - 1));
        GraphData::from_edge_lists(tokens, edges)
    }

    #[test]
    fn batch_grads_equals_a_dense_level_order_tree() {
        // Even graphs draw (with repeats) from a 12-token pool they all
        // share; odd graphs each own 6 tokens no other graph uses.
        let m = GnnModel::new(GnnConfig {
            vocab_size: 12 + 6 * 20,
            hidden: 8,
            classes: 4,
            layers: 2,
            layer_norm: true,
            seed: 3,
        });
        let graphs: Vec<GraphData> = (0..40u32)
            .map(|i| {
                let tokens = if i % 2 == 0 {
                    (0..5 + i % 7).map(|j| (i + 3 * j) % 12).collect()
                } else {
                    (0..6 + i % 3).map(|j| 12 + 6 * (i / 2) + j % 6).collect()
                };
                token_graph(tokens)
            })
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let plan = ModelPlan::build_training(&m);
        let per_graph: Vec<Vec<f32>> = graphs
            .iter()
            .zip(&labels)
            .map(|(g, &label)| {
                let mut gb = GradBuffer::for_model(&m);
                m.fused_loss_grads(g, label, &mut TrainScratch::new(), &mut gb, &plan);
                dense(&gb)
            })
            .collect();

        // One engine across every length: its pool stays warm while each
        // buffer's rows change from batch to batch.
        let mut engine = FusedEngine::new();
        for k in 1..=40usize {
            // The reference: a level-order pairwise tree over full-width
            // gradients, then the mean.
            let mut tree = per_graph[..k].to_vec();
            let mut gap = 1;
            while gap < k {
                for i in (0..k).step_by(2 * gap) {
                    if i + gap < k {
                        let (a, b) = tree.split_at_mut(i + gap);
                        for (x, &y) in a[i].iter_mut().zip(&b[0]) {
                            *x += y;
                        }
                    }
                }
                gap *= 2;
            }
            let alpha = 1.0 / k as f32;
            let want: Vec<f32> = tree[0].iter().map(|&x| x * alpha).collect();
            let chunk: Vec<usize> = (0..k).collect();
            let (_, got) = engine.batch_grads(&m, &graphs, &labels, &chunk);
            assert_eq!(bits(&dense(got)), bits(&want), "chunk length {k}");
        }
    }

    #[test]
    fn batch_grads_mean_matches_manual_mean() {
        let m = model(2, true);
        let graphs: Vec<GraphData> = (0..3).map(toy_graph).collect();
        let labels = vec![0usize, 1, 2];
        let chunk = vec![0usize, 1, 2];
        let mut engine = FusedEngine::new();
        let (loss, gb) = engine.batch_grads(&m, &graphs, &labels, &chunk);

        let mut manual_loss = 0.0;
        let mut manual = GradBuffer::for_model(&m);
        for i in 0..3 {
            manual_loss += fused(&m, &graphs[i], labels[i], &mut manual);
        }
        assert!((loss - manual_loss).abs() < 1e-9);
        for (a, &b) in dense(gb).iter().zip(&dense(&manual)) {
            assert!((a - b / 3.0).abs() <= 1e-6, "{a} vs {}", b / 3.0);
        }
    }
}
