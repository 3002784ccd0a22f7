//! Tape-free batched inference for the RGCN classifier.
//!
//! Training needs the autograd tape; prediction does not. This module runs
//! the same forward computation as [`GnnModel::forward`] without recording
//! ops, without cloning a single parameter tensor (weights are borrowed from
//! the model), and with all activation buffers held in a reusable
//! per-thread `Scratch` workspace so repeated calls allocate nothing once the
//! high-water graph size has been seen.
//!
//! One pass produces everything the downstream models consume — logits,
//! pooled embedding, softmax distribution, and top-1 margin — in a single
//! [`InferOutput`]: callers take `.label()`, `.pooled` or
//! `.router_features()`. [`GnnModel::infer`] serves one graph;
//! [`infer_batch`](GnnModel::infer_batch) and
//! [`infer_batch_planned`](GnnModel::infer_batch_planned) serve batches.
//!
//! Numerical equivalence with the tape is exact, not approximate: the dense
//! kernels are shared ([`matmul_accumulate`]), message passing walks each
//! destination's incoming edges in the same order the tape's edge-major
//! sweep does (the CSR rows preserve edge order), and every elementwise op
//! mirrors the tape's evaluation order. The `≤ 1e-4` bound the tests assert
//! is a safety margin, not a budget.
//!
//! [`infer_batch`](GnnModel::infer_batch) fans graphs out across threads
//! with one scratch workspace per thread; the per-destination row loop of
//! the SpMM is independent per row, so the whole engine stays deterministic
//! regardless of thread count.

use crate::dispatch::{self, plan_matmul, ModelPlan, RelView};
use crate::graphdata::GraphData;
use crate::model::GnnModel;
use rayon::prelude::*;
use std::borrow::Borrow;
use std::cell::RefCell;

/// Everything one forward pass yields.
#[derive(Debug, Clone)]
pub struct InferOutput {
    /// Class logits (`classes` entries).
    pub logits: Vec<f32>,
    /// Pooled graph embedding (`hidden` entries) — the paper's "vector".
    pub pooled: Vec<f32>,
    /// Softmax distribution over classes.
    pub probs: Vec<f32>,
    /// Top-1 softmax probability minus top-2 (prediction confidence).
    pub margin: f32,
}

impl InferOutput {
    /// The predicted class (argmax of the logits).
    pub fn label(&self) -> usize {
        self.logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty logits")
    }

    /// Embedding ++ softmax ++ margin — the hybrid router's feature vector.
    pub fn router_features(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.pooled.len() + self.probs.len() + 1);
        out.extend_from_slice(&self.pooled);
        out.extend_from_slice(&self.probs);
        out.push(self.margin);
        out
    }
}

/// Reusable activation workspace, one per thread. Buffers grow to the
/// largest graph seen and are recycled across calls; a fresh `Scratch` is
/// all-empty and valid.
#[derive(Default)]
struct Scratch {
    /// Current node activations (`n×d`).
    h: Vec<f32>,
    /// Layer accumulator: self-term plus per-relation message terms.
    acc: Vec<f32>,
    /// SpMM output (aggregated messages) for one relation.
    msgs: Vec<f32>,
    /// One relation's `msgs @ w_r` product, added into `acc`.
    term: Vec<f32>,
    /// First-layer activations, kept for the residual connection.
    h1: Vec<f32>,
}

impl Scratch {
    fn reserve(&mut self, n: usize, d: usize, stats: bool) {
        let len = n * d;
        if stats {
            // Reuse hit: every buffer already holds enough capacity, so this
            // call allocates nothing.
            if self.h.capacity() >= len {
                irnuma_obs::counter!("infer.scratch_hits").inc(1);
            } else {
                irnuma_obs::counter!("infer.scratch_misses").inc(1);
            }
        }
        for buf in [&mut self.h, &mut self.acc, &mut self.msgs, &mut self.term, &mut self.h1] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

impl GnnModel {
    /// Tape-free forward pass using this thread's cached scratch workspace.
    /// Single-graph calls skip weight prepacking (the pack would cost more
    /// than it saves) but still go through the shape-dispatched kernels;
    /// batched calls prepack once via [`GnnModel::plan`].
    pub fn infer(&self, g: &GraphData) -> InferOutput {
        let stats = irnuma_obs::telemetry_enabled();
        let t0 = stats.then(std::time::Instant::now);
        let out = SCRATCH.with(|s| self.infer_impl(g, &mut s.borrow_mut(), None, stats));
        if let Some(t0) = t0 {
            irnuma_obs::histogram!("infer.graph_ns").record_duration(t0.elapsed());
            irnuma_obs::counter!("infer.graphs").inc(1);
        }
        out
    }

    fn infer_impl(
        &self,
        g: &GraphData,
        scratch: &mut Scratch,
        plan: Option<&ModelPlan>,
        stats: bool,
    ) -> InferOutput {
        let _f = irnuma_obs::profile_frame!("infer.forward");
        let d = self.cfg.hidden;
        let n = g.num_nodes();
        scratch.reserve(n, d, stats);

        let mut params = self.params.iter().enumerate();
        let mut next = || params.next().expect("parameter list matches architecture");

        // Embedding gather.
        let (_, embed) = next();
        for (row, &id) in g.node_text.iter().enumerate() {
            scratch.h[row * d..(row + 1) * d].copy_from_slice(embed.row(id as usize));
        }

        let csr = g.csr();
        let gplan = dispatch::plan_for(d, self.cfg.classes, self.cfg.layers, g);
        for layer in 0..self.cfg.layers {
            let (wi, w_self) = next();
            scratch.acc.fill(0.0);
            plan_matmul(plan, wi, &scratch.h, n, w_self, &mut scratch.acc);

            for (r, csr_r) in csr.iter().enumerate() {
                let (wri, w_r) = next();
                if g.edges[r].is_empty() {
                    continue;
                }
                // SpMM through the strategy the graph's shape signature
                // selected. Every strategy visits a destination's incoming
                // edges in the tape's edge order, so sums round identically.
                let rel = RelView { rows: csr_r, edges: &g.edges[r], norm: &g.norm[r] };
                dispatch::spmm_forward(gplan.spmm[r], rel, &scratch.h, n, d, &mut scratch.msgs);
                // The tape materializes `msgs @ w_r` before adding, so the
                // product goes through a zeroed buffer here too (summing
                // directly into `acc` would regroup the additions).
                scratch.term.fill(0.0);
                plan_matmul(plan, wri, &scratch.msgs, n, w_r, &mut scratch.term);
                dispatch::vec_add_assign(&mut scratch.acc[..n * d], &scratch.term[..n * d]);
            }

            let (_, bias) = next();
            dispatch::bias_relu_rows(&scratch.acc[..n * d], &bias.data, &mut scratch.h[..n * d]);
            if layer == 0 {
                scratch.h1.copy_from_slice(&scratch.h);
            }
        }

        // Residual around the deeper layers (tape order: h1 + h).
        if self.cfg.layers > 1 {
            // f32 addition is commutative, so `h + h1` rounds identically to
            // the tape's `h1 + h`.
            dispatch::vec_add_assign(&mut scratch.h[..n * d], &scratch.h1[..n * d]);
        }

        // Layer norm (into `acc`, unless ablated off) fused with mean
        // pooling; per-row reductions keep the tape's scalar order.
        let (_, gamma) = next();
        let (_, beta) = next();
        let mut pooled = vec![0.0f32; d];
        if self.cfg.layer_norm {
            dispatch::ln_pool_rows(
                &scratch.h[..n * d],
                n,
                &gamma.data,
                &beta.data,
                1e-5,
                &mut scratch.acc[..n * d],
                &mut pooled,
            );
        } else {
            scratch.acc.copy_from_slice(&scratch.h);
            for row in 0..n {
                dispatch::vec_add_assign(&mut pooled, &scratch.acc[row * d..(row + 1) * d]);
            }
        }
        let inv_n = 1.0 / n.max(1) as f32;
        for p in pooled.iter_mut() {
            *p *= inv_n;
        }

        // FC head: z = relu(pooled @ fc1 + b1); logits = z @ fc2 + b2.
        let (fi1, fc1) = next();
        let (_, b1) = next();
        let mut z = vec![0.0f32; d];
        plan_matmul(plan, fi1, &pooled, 1, fc1, &mut z);
        for (zv, &bv) in z.iter_mut().zip(&b1.data) {
            let pre = *zv + bv;
            *zv = if pre < 0.0 { 0.0 } else { pre };
        }
        let (fi2, fc2) = next();
        let (_, b2) = next();
        let classes = self.cfg.classes;
        let mut logits = vec![0.0f32; classes];
        plan_matmul(plan, fi2, &z, 1, fc2, &mut logits);
        for (lv, &bv) in logits.iter_mut().zip(&b2.data) {
            *lv += bv;
        }
        debug_assert!(params.next().is_none(), "all parameters consumed");

        // Softmax + confidence margin (same max-shift as the tape's loss).
        let mut probs = Vec::with_capacity(classes);
        crate::tensor::softmax_into(&logits, &mut probs);
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let margin = sorted[0] - sorted.get(1).copied().unwrap_or(0.0);

        InferOutput { logits, pooled, probs, margin }
    }

    /// Batched inference: graphs fan out across threads, each thread reusing
    /// its own scratch workspace. Weights are prepacked once per call
    /// ([`GnnModel::plan`]) and shared read-only by every worker. Output
    /// order matches input order.
    /// Per-graph *stats* telemetry (the per-graph latency-histogram record)
    /// is hoisted out of the hot loop: in stats-only mode workers run the
    /// bare forward pass, and the batch records one `infer.batch_ns` sample
    /// plus an `infer.graphs += len` bump at the end. Causal tracing opts
    /// back in: with a trace sink installed, each worker opens an
    /// `infer.graph` span under the batch (`span_fanout!`), so `irnuma
    /// trace analyze` sees the fan-out; without one the macro is inert.
    pub fn infer_batch<G: Borrow<GraphData> + Sync>(&self, graphs: &[G]) -> Vec<InferOutput> {
        self.infer_batch_planned(&self.plan(), graphs)
    }

    /// [`infer_batch`](GnnModel::infer_batch) through a prebuilt (typically
    /// cached and `Arc`-shared) [`ModelPlan`] — the serving path, where one
    /// immutable plan per model generation is shared by every connection
    /// and rebuilding it per micro-batch would dominate small batches.
    /// `plan` must have been built from this model's current parameters.
    pub fn infer_batch_planned<G: Borrow<GraphData> + Sync>(
        &self,
        plan: &ModelPlan,
        graphs: &[G],
    ) -> Vec<InferOutput> {
        let span = irnuma_obs::span!("infer.batch", graphs = graphs.len());
        let ctx = span.ctx();
        let out: Vec<InferOutput> = graphs
            .par_iter()
            .map(|g| {
                let _g = irnuma_obs::span_fanout!(ctx, "infer.graph");
                self.infer_planned_threadlocal(plan, g.borrow())
            })
            .collect();
        self.record_batch(&span, graphs.len());
        out
    }

    fn record_batch(&self, span: &irnuma_obs::SpanGuard, graphs: usize) {
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::histogram!("infer.batch_ns").record_duration(span.elapsed());
            irnuma_obs::counter!("infer.graphs").inc(graphs as u64);
        }
    }

    fn infer_planned_threadlocal(&self, plan: &ModelPlan, g: &GraphData) -> InferOutput {
        SCRATCH.with(|s| self.infer_impl(g, &mut s.borrow_mut(), Some(plan), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GnnConfig;
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
            }
            prev = Some(node);
        }
        GraphData::from_graph(&g)
    }

    fn model() -> GnnModel {
        GnnModel::new(GnnConfig {
            vocab_size: 24,
            hidden: 8,
            classes: 4,
            layers: 2,
            layer_norm: true,
            seed: 9,
        })
    }

    #[test]
    fn infer_matches_tape_exactly() {
        let m = model();
        for seed in 0..6 {
            let g = toy_graph(seed);
            let f = m.forward(&g);
            let out = m.infer(&g);
            assert_eq!(out.pooled, f.tape.value(f.pooled).data, "pooled, graph {seed}");
            assert_eq!(out.logits, f.tape.value(f.logits).data, "logits, graph {seed}");
        }
    }

    #[test]
    fn scratch_recycles_across_different_sizes() {
        let m = model();
        let big = toy_graph(3); // 8 nodes
        let small = toy_graph(0); // 5 nodes
        let tape = |g: &GraphData| {
            let f = m.forward(g);
            f.tape.value(f.logits).data.clone()
        };
        let (tape_big, tape_small) = (tape(&big), tape(&small));
        // big → small → big through this thread's one workspace must not
        // leak state.
        assert_eq!(m.infer(&big).logits, tape_big);
        assert_eq!(m.infer(&small).logits, tape_small);
        assert_eq!(m.infer(&big).logits, tape_big);
    }

    #[test]
    fn batch_matches_serial_and_preserves_order() {
        let m = model();
        let graphs: Vec<GraphData> = (0..17).map(toy_graph).collect();
        let batch = m.infer_batch(&graphs);
        for (g, out) in graphs.iter().zip(&batch) {
            let serial = m.infer(g);
            assert_eq!(out.logits, serial.logits);
            assert_eq!(out.pooled, serial.pooled);
        }
        let refs: Vec<&GraphData> = graphs.iter().collect();
        let by_ref = m.infer_batch(&refs);
        for (a, b) in batch.iter().zip(&by_ref) {
            assert_eq!(a.logits, b.logits);
        }
    }

    #[test]
    fn probs_and_margin_are_consistent() {
        let m = model();
        let out = m.infer(&toy_graph(2));
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.margin >= 0.0 && out.margin <= 1.0);
        assert_eq!(
            out.label(),
            out.probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0
        );
        let rf = out.router_features();
        assert_eq!(rf.len(), out.pooled.len() + out.probs.len() + 1);
    }

    #[test]
    fn empty_graph_infers_to_a_well_defined_output() {
        // Zero nodes, zero edges — reachable from untrusted serving input.
        // The pooled embedding is all-zero, so the logits collapse to the
        // FC head's response to a zero vector: finite, well-defined, and
        // identical between the planned and unplanned paths.
        let m = model();
        let empty = GraphData::from_edge_lists(vec![], Default::default());
        let out = m.infer(&empty);
        assert_eq!(out.logits.len(), m.cfg.classes);
        assert_eq!(out.pooled, vec![0.0; m.cfg.hidden]);
        assert!(out.logits.iter().all(|v| v.is_finite()));
        let sum: f32 = out.probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.margin >= 0.0 && out.margin <= 1.0);
        let _ = out.label();
        let batch = m.infer_batch(std::slice::from_ref(&empty));
        assert_eq!(batch[0].logits, out.logits);
    }

    #[test]
    fn planned_batch_matches_per_call_plan_batch() {
        let m = model();
        let graphs: Vec<GraphData> = (0..9).map(toy_graph).collect();
        let refs: Vec<&GraphData> = graphs.iter().collect();
        let plan = crate::dispatch::shared_plan(&m);
        let planned = m.infer_batch_planned(&plan, &refs);
        let per_call = m.infer_batch(&refs);
        for (a, b) in planned.iter().zip(&per_call) {
            assert_eq!(a.logits, b.logits);
            assert_eq!(a.pooled, b.pooled);
            assert_eq!(a.probs, b.probs);
        }
    }

    #[test]
    fn single_node_graph_and_empty_relations_work() {
        let mut g = Graph::default();
        g.add_node(NodeKind::Instruction, 7);
        let gd = GraphData::from_graph(&g);
        let m = model();
        let f = m.forward(&gd);
        let out = m.infer(&gd);
        assert_eq!(out.logits, f.tape.value(f.logits).data);
        assert_eq!(out.pooled, f.tape.value(f.pooled).data);
    }
}
