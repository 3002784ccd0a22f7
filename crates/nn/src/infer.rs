//! Inference for the RGCN classifier: the forward half of the fused
//! trainer, without the backward.
//!
//! Training and inference run one forward pass (`forward_into` in
//! [`crate::backprop`]) on one per-thread scratch workspace. Prediction
//! calls it and copies the head's outputs out; the saved activations stay
//! in the scratch for the next graph. No op is recorded, no parameter
//! tensor is cloned (weights are borrowed from the model), and repeated
//! calls reuse the workspace once the high-water graph size has been seen.
//!
//! One pass produces everything the downstream models consume — logits,
//! pooled embedding, softmax distribution, and top-1 margin — in a single
//! [`InferOutput`]: callers take `.label()`, `.pooled` or
//! `.router_features()`. [`GnnModel::infer`] serves one graph;
//! [`infer_batch`](GnnModel::infer_batch) and
//! [`infer_batch_planned`](GnnModel::infer_batch_planned) serve batches.
//!
//! The outputs equal the test-only autograd tape's forward bit for bit;
//! the tests assert exact equality.
//!
//! [`infer_batch`](GnnModel::infer_batch) fans graphs out across threads,
//! each reusing its own thread's workspace; every graph's pass is
//! independent, so the result is deterministic at any thread count.

use crate::backprop::{with_scratch, TrainScratch};
use crate::dispatch::ModelPlan;
use crate::graphdata::GraphData;
use crate::model::GnnModel;
use rayon::prelude::*;
use std::borrow::Borrow;

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

    /// Copy a finished forward pass out of `s` and derive the margin.
    fn from_scratch(s: &TrainScratch) -> InferOutput {
        let probs = s.probs.clone();
        let mut sorted = probs.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let margin = sorted[0] - sorted.get(1).copied().unwrap_or(0.0);
        InferOutput { logits: s.logits.clone(), pooled: s.pooled.clone(), probs, margin }
    }
}

impl GnnModel {
    /// The forward pass on this thread's cached scratch workspace.
    /// Single-graph calls skip weight prepacking (the pack would cost more
    /// than it saves) but still go through the shape-dispatched kernels;
    /// batched calls prepack once via [`GnnModel::plan`].
    pub fn infer(&self, g: &GraphData) -> InferOutput {
        let stats = irnuma_obs::telemetry_enabled();
        let t0 = stats.then(std::time::Instant::now);
        let out = self.infer_on_thread_scratch(g, None, stats);
        if let Some(t0) = t0 {
            irnuma_obs::histogram!("infer.graph_ns").record_duration(t0.elapsed());
            irnuma_obs::counter!("infer.graphs").inc(1);
        }
        out
    }

    /// The shared forward pass on this thread's scratch; `stats` counts the
    /// scratch reuse hit or miss.
    fn infer_on_thread_scratch(
        &self,
        g: &GraphData,
        plan: Option<&ModelPlan>,
        stats: bool,
    ) -> InferOutput {
        let _f = irnuma_obs::profile_frame!("infer.forward");
        with_scratch(|s| {
            let hit = self.forward_into(g, s, plan);
            if stats {
                if hit {
                    irnuma_obs::counter!("infer.scratch_hits").inc(1);
                } else {
                    irnuma_obs::counter!("infer.scratch_misses").inc(1);
                }
            }
            InferOutput::from_scratch(s)
        })
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

    /// [`infer_batch`](GnnModel::infer_batch) through a prebuilt
    /// [`ModelPlan`] — the serving path, where each model snapshot owns the
    /// plan packed from its weights and rebuilding it per micro-batch would
    /// dominate small batches. `plan` must have been built from this
    /// model's current parameters.
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
                self.infer_on_thread_scratch(g.borrow(), Some(plan), false)
            })
            .collect();
        if irnuma_obs::telemetry_enabled() {
            irnuma_obs::histogram!("infer.batch_ns").record_duration(span.elapsed());
            irnuma_obs::counter!("infer.graphs").inc(graphs.len() as u64);
        }
        out
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
        let plan = m.plan();
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
