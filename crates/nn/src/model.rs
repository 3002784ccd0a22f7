//! The paper's prediction architecture (Fig. 2): embedding → RGCN layers →
//! residual + layer norm → mean pooling → fully-connected head.
//!
//! The RGCN update is Eq. 1 of the paper:
//!
//! ```text
//! h_i^{l+1} = σ( W_0^l h_i^l + Σ_{r∈R} Σ_{j∈N_i^r} (1/c_{i,r}) W_r^l h_j^l + b^l )
//! ```
//!
//! with one weight matrix per relation (control/data/call), per-destination
//! normalization `1/c_{i,r}`, and σ = ReLU.

use crate::autograd::{Tape, Var};
use crate::graphdata::{GraphData, NUM_RELATIONS};
use crate::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GnnConfig {
    pub vocab_size: usize,
    /// Embedding/hidden width (the paper uses 256; tests use less).
    pub hidden: usize,
    /// Number of output classes (13/6/2 configuration labels).
    pub classes: usize,
    /// RGCN layers (paper-style: 2).
    pub layers: usize,
    /// Apply the post-residual layer normalization (paper-style: on). The
    /// off switch is the ablation axis; `gamma`/`beta` stay in the parameter
    /// list either way so checkpoints keep one shape per width.
    #[serde(default = "default_layer_norm")]
    pub layer_norm: bool,
    pub seed: u64,
}

/// Models saved before the `layer_norm` switch existed always normalized.
fn default_layer_norm() -> bool {
    true
}

impl GnnConfig {
    pub fn new(vocab_size: usize, hidden: usize, classes: usize) -> GnnConfig {
        GnnConfig { vocab_size, hidden, classes, layers: 2, layer_norm: true, seed: 0xC0FFEE }
    }

    /// Each parameter's `(rows, cols)`, in [`GnnModel::new`]'s push order.
    fn param_shapes(&self) -> Vec<(usize, usize)> {
        let d = self.hidden;
        let mut shapes = vec![(self.vocab_size, d)];
        for _ in 0..self.layers {
            shapes.push((d, d));
            shapes.extend([(d, d); NUM_RELATIONS]);
            shapes.push((1, d));
        }
        shapes.extend([(1, d), (1, d), (d, d), (1, d), (d, self.classes), (1, self.classes)]);
        shapes
    }
}

/// Parameter store, indexed by [`ParamLayout`]. Training and inference run
/// one tape-free forward pass (`forward_into`, in [`crate::backprop`]) that
/// borrows the weights in place; only the autograd oracle
/// ([`GnnModel::forward`]) copies them onto a fresh tape as leaves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnModel {
    pub cfg: GnnConfig,
    pub params: Vec<Tensor>,
    names: Vec<String>,
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

/// Where each tensor sits in [`GnnModel::params`], in [`GnnModel::new`]'s
/// push order: `embed`; per layer `w_self`, one `w_rel` per relation and
/// `bias`; then the layer-norm affine pair and the FC head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamLayout {
    pub gamma: usize,
    pub beta: usize,
    pub fc1: usize,
    pub b1: usize,
    pub fc2: usize,
    pub b2: usize,
}

impl ParamLayout {
    pub const EMBED: usize = 0;

    pub fn new(layers: usize) -> ParamLayout {
        let gamma = Self::w_self(layers);
        let (beta, fc1, b1, fc2, b2) = (gamma + 1, gamma + 2, gamma + 3, gamma + 4, gamma + 5);
        ParamLayout { gamma, beta, fc1, b1, fc2, b2 }
    }

    /// Layer `l`'s `w_self`.
    pub fn w_self(l: usize) -> usize {
        1 + l * (2 + NUM_RELATIONS)
    }

    /// Layer `l`'s weight for relation `r`.
    pub fn w_rel(l: usize, r: usize) -> usize {
        Self::w_self(l) + 1 + r
    }

    pub fn bias(l: usize) -> usize {
        Self::w_self(l) + 1 + NUM_RELATIONS
    }
}

impl GnnModel {
    pub fn new(cfg: GnnConfig) -> GnnModel {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let d = cfg.hidden;
        let mut params = Vec::new();
        let mut names = Vec::new();
        let push = |p: Tensor, n: String, params: &mut Vec<Tensor>, names: &mut Vec<String>| {
            params.push(p);
            names.push(n);
        };
        push(Tensor::glorot(cfg.vocab_size, d, &mut rng), "embed".into(), &mut params, &mut names);
        for l in 0..cfg.layers {
            push(Tensor::glorot(d, d, &mut rng), format!("l{l}.w_self"), &mut params, &mut names);
            for r in 0..NUM_RELATIONS {
                push(
                    Tensor::glorot(d, d, &mut rng),
                    format!("l{l}.w_rel{r}"),
                    &mut params,
                    &mut names,
                );
            }
            push(Tensor::zeros(1, d), format!("l{l}.bias"), &mut params, &mut names);
        }
        let mut gamma = Tensor::zeros(1, d);
        gamma.data.fill(1.0);
        push(gamma, "ln.gamma".into(), &mut params, &mut names);
        push(Tensor::zeros(1, d), "ln.beta".into(), &mut params, &mut names);
        push(Tensor::glorot(d, d, &mut rng), "fc1.w".into(), &mut params, &mut names);
        push(Tensor::zeros(1, d), "fc1.b".into(), &mut params, &mut names);
        push(Tensor::glorot(d, cfg.classes, &mut rng), "fc2.w".into(), &mut params, &mut names);
        push(Tensor::zeros(1, cfg.classes), "fc2.b".into(), &mut params, &mut names);
        debug_assert_eq!(params.len(), ParamLayout::new(cfg.layers).b2 + 1);
        debug_assert!(params.iter().map(|p| (p.rows, p.cols)).eq(cfg.param_shapes()));
        GnnModel { cfg, params, names }
    }

    /// Check a model read from outside the process: every size in its
    /// config is positive, and its parameters (and their names) are laid
    /// out exactly as [`GnnModel::new`] lays them out for that config.
    pub fn check_shapes(&self) -> Result<(), String> {
        let c = &self.cfg;
        for (name, v) in [
            ("vocab_size", c.vocab_size),
            ("hidden", c.hidden),
            ("classes", c.classes),
            ("layers", c.layers),
        ] {
            if v == 0 {
                return Err(format!("model config has a zero `{name}`"));
            }
        }
        // Count before laying out: `layers` comes from the file, so the
        // layout is built only once it matches what the file holds.
        let count = c.layers.checked_mul(2 + NUM_RELATIONS).and_then(|n| n.checked_add(7));
        if count != Some(self.params.len()) || self.names.len() != self.params.len() {
            return Err(format!(
                "model has {} parameters ({} names) where its config lays out {}",
                self.params.len(),
                self.names.len(),
                count.map_or_else(|| "more than fit in memory".into(), |n| n.to_string())
            ));
        }
        for (i, (p, (rows, cols))) in self.params.iter().zip(c.param_shapes()).enumerate() {
            if (p.rows, p.cols) != (rows, cols) || rows.checked_mul(cols) != Some(p.data.len()) {
                return Err(format!(
                    "parameter {i} ({}) is {}x{} with {} values where its config needs {rows}x{cols}",
                    self.names[i],
                    p.rows,
                    p.cols,
                    p.data.len()
                ));
            }
        }
        Ok(())
    }

    /// The index map of [`GnnModel::params`].
    pub fn layout(&self) -> ParamLayout {
        ParamLayout::new(self.cfg.layers)
    }

    pub fn param_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Build this model's kernel plan: weights prepacked for the
    /// shape-specialized kernels (see [`crate::dispatch`]). The plan
    /// snapshots the *current* parameter values — rebuild it after any
    /// optimizer step. Batched inference and the fused trainer do this
    /// automatically.
    pub fn plan(&self) -> crate::dispatch::ModelPlan {
        crate::dispatch::ModelPlan::build(self)
    }

    pub fn num_params(&self) -> usize {
        self.params.iter().map(|p| p.data.len()).sum()
    }

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
    use irnuma_graph::{EdgeKind, Graph, NodeKind};

    fn toy_graph(seed: u32) -> GraphData {
        let mut g = Graph::default();
        let n = 6 + (seed % 3);
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

    fn cfg() -> GnnConfig {
        GnnConfig { vocab_size: 24, hidden: 8, classes: 4, layers: 2, layer_norm: true, seed: 9 }
    }

    #[test]
    fn configs_saved_before_the_layer_norm_switch_deserialize_to_normalizing() {
        // Pre-ablation serialized configs have no `layer_norm` key; the
        // serde default must fill in `true` (those models always normalized).
        let json = r#"{"vocab_size":24,"hidden":8,"classes":4,"layers":2,"seed":9}"#;
        let old: GnnConfig = serde_json::from_str(json).unwrap();
        assert!(old.layer_norm);
        assert_eq!(old, cfg());
        // Round-tripping a current config preserves an explicit `false`.
        let ablated = GnnConfig { layer_norm: false, ..cfg() };
        let back: GnnConfig =
            serde_json::from_str(&serde_json::to_string(&ablated).unwrap()).unwrap();
        assert!(!back.layer_norm);
    }

    #[test]
    fn param_layout_matches_push_order() {
        for layers in 1..4 {
            let m = GnnModel::new(GnnConfig { layers, ..cfg() });
            let lay = m.layout();
            assert_eq!(lay.b2 + 1, m.params.len());
            assert_eq!(m.param_name(ParamLayout::EMBED), "embed");
            for l in 0..layers {
                assert_eq!(m.param_name(ParamLayout::w_self(l)), format!("l{l}.w_self"));
                for r in 0..NUM_RELATIONS {
                    assert_eq!(m.param_name(ParamLayout::w_rel(l, r)), format!("l{l}.w_rel{r}"));
                }
                assert_eq!(m.param_name(ParamLayout::bias(l)), format!("l{l}.bias"));
            }
            let head = [lay.gamma, lay.beta, lay.fc1, lay.b1, lay.fc2, lay.b2];
            let names: Vec<&str> = head.iter().map(|&i| m.param_name(i)).collect();
            assert_eq!(names, ["ln.gamma", "ln.beta", "fc1.w", "fc1.b", "fc2.w", "fc2.b"]);
        }
    }

    #[test]
    fn forward_shapes_are_right() {
        let m = GnnModel::new(cfg());
        let g = toy_graph(0);
        let f = m.forward(&g);
        assert_eq!(f.tape.value(f.pooled).cols, 8);
        assert_eq!(f.tape.value(f.pooled).rows, 1);
        assert_eq!(f.tape.value(f.logits).cols, 4);
        assert!(m.num_params() > 24 * 8);
    }

    #[test]
    fn forward_is_deterministic() {
        let m = GnnModel::new(cfg());
        let g = toy_graph(1);
        assert_eq!(m.infer(&g).pooled, m.infer(&g).pooled);
        assert_eq!(m.infer(&g).label(), m.infer(&g).label());
    }

    #[test]
    fn different_graphs_embed_differently() {
        let m = GnnModel::new(cfg());
        assert_ne!(m.infer(&toy_graph(0)).pooled, m.infer(&toy_graph(7)).pooled);
    }

    #[test]
    fn gradients_cover_all_parameters() {
        let m = GnnModel::new(cfg());
        let g = toy_graph(2);
        let (loss, grads) = m.loss_and_grads(&g, 1);
        assert!(loss > 0.0);
        assert_eq!(grads.len(), m.params.len());
        for (i, gr) in grads.iter().enumerate() {
            assert!(gr.same_shape(&m.params[i]), "grad {} shape mismatch ({})", i, m.param_name(i));
        }
        // At least embed, one relation weight and the head must receive
        // non-zero gradient.
        let nonzero: Vec<&str> = grads
            .iter()
            .enumerate()
            .filter(|(_, g)| g.norm() > 0.0)
            .map(|(i, _)| m.param_name(i))
            .collect();
        assert!(nonzero.contains(&"embed"), "{nonzero:?}");
        assert!(nonzero.contains(&"fc2.w"), "{nonzero:?}");
        assert!(nonzero.iter().any(|n| n.contains("w_rel")), "{nonzero:?}");
    }

    #[test]
    fn one_gradient_step_reduces_loss() {
        let mut m = GnnModel::new(cfg());
        let g = toy_graph(3);
        let (l0, grads) = m.loss_and_grads(&g, 2);
        for (p, gr) in m.params.iter_mut().zip(&grads) {
            p.axpy(-0.1, gr);
        }
        let (l1, _) = m.loss_and_grads(&g, 2);
        assert!(l1 < l0, "loss {l0} -> {l1}");
    }
}
