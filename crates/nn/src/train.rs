//! Adam optimizer and the graph-classification trainer.
//!
//! There is one epoch loop, [`GnnClassifier::fit_streaming`], over a
//! [`ShardSource`]; [`GnnClassifier::fit`] moves resident graphs into a
//! one-shard [`MemorySource`] and runs the same loop. Minibatch gradients
//! come from the tape-free fused engine ([`crate::backprop`]): per-graph
//! forward+backward in parallel (rayon map) with fixed graph→buffer
//! assignment and an ordered pairwise tree reduction, so training is
//! bit-for-bit deterministic for a given seed regardless of thread count.
//! The autograd tape ([`GnnModel::loss_and_grads`]) is the oracle the fused
//! gradients are tested against; no training path runs it.
//!
//! Training can checkpoint through `irnuma-store`: every N epochs the full
//! trainer state (weights, Adam moments, loss history, per-shard record
//! counts) is written atomically, and a resumed run replays the completed
//! epochs' shuffles so an interrupted run reproduces the uninterrupted one
//! bit for bit.

use crate::backprop::FusedEngine;
use crate::graphdata::GraphData;
use crate::model::{GnnConfig, GnnModel};
use crate::stream::{MemorySource, ShardBatch, ShardSource};
use crate::tensor::Tensor;
use irnuma_store::invalid;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};

/// One tensor's `(m, v)` moments zipped with its parameter and gradient.
type AdamSlot<'a, 'b> = (((&'a mut Tensor, &'a mut Tensor), &'a mut Tensor), &'b [f32]);

/// Adam state per parameter tensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Adam {
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
}

impl Adam {
    fn new(params: &[Tensor], lr: f32) -> Adam {
        Adam {
            m: params.iter().map(|p| Tensor::zeros(p.rows, p.cols)).collect(),
            v: params.iter().map(|p| Tensor::zeros(p.rows, p.cols)).collect(),
            t: 0,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// One optimizer step. Gradients arrive as one flat slice per parameter
    /// (aligned with `params`): the fused engine's [`GradBuffer`] views.
    ///
    /// [`GradBuffer`]: crate::backprop::GradBuffer
    fn step(&mut self, params: &mut [Tensor], grads: &[&[f32]]) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        // Each parameter tensor's update is independent and every element's
        // arithmetic is unchanged, so parallelizing across tensors keeps the
        // step bit-for-bit deterministic.
        let work: Vec<AdamSlot> = self
            .m
            .iter_mut()
            .zip(self.v.iter_mut())
            .zip(params.iter_mut())
            .zip(grads.iter().copied())
            .collect();
        work.into_par_iter().for_each(|(((m, v), p), g)| {
            let moments = m.data.iter_mut().zip(v.data.iter_mut());
            for ((mj, vj), (pj, &gj)) in moments.zip(p.data.iter_mut().zip(g)) {
                *mj = b1 * *mj + (1.0 - b1) * gj;
                *vj = b2 * *vj + (1.0 - b2) * gj * gj;
                let mhat = *mj / bc1;
                let vhat = *vj / bc2;
                *pj -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainParams {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams { epochs: 30, batch_size: 16, lr: 3e-3, seed: 17 }
    }
}

/// Checkpointing knobs for [`GnnClassifier::fit_streaming`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `ckpt-<epoch>.json` files plus the `latest` pointer.
    pub dir: PathBuf,
    /// Write a checkpoint every `every` epochs (a final-epoch checkpoint is
    /// always written). `0` disables periodic checkpoints.
    pub every: usize,
    /// Continue from the newest valid checkpoint in `dir`, if any.
    pub resume: bool,
}

const CKPT_KIND: &str = "train-checkpoint";
const LATEST_KIND: &str = "checkpoint-pointer";
const LATEST_FILE: &str = "latest";

/// The full trainer state after `epoch` completed epochs: enough to continue
/// training bit-for-bit (weights, Adam moments, loss history; the shuffle
/// RNG and orders are re-derived from `params.seed` and `shard_sizes` by
/// replaying `epoch` epochs of shuffles).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Number of completed epochs.
    pub epoch: usize,
    pub params: TrainParams,
    pub classifier: GnnClassifier,
    adam: Adam,
    pub history: Vec<f64>,
    /// Training records per shard of the source that wrote it, in shard
    /// index order: what resume replays the shuffles from. Empty in
    /// checkpoints written before there was one training loop; those are
    /// refused, since their shuffles followed a different seeded order.
    #[serde(default)]
    pub shard_sizes: Vec<usize>,
}

impl TrainCheckpoint {
    fn file_name(epoch: usize) -> String {
        format!("ckpt-{epoch:05}.json")
    }

    /// Atomically persist the checkpoint and repoint `latest` at it.
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        let name = Self::file_name(self.epoch);
        let path = dir.join(&name);
        irnuma_store::save_json(&path, CKPT_KIND, self)?;
        irnuma_store::save_bytes(&dir.join(LATEST_FILE), LATEST_KIND, name.as_bytes())?;
        Ok(path)
    }

    /// Load and validate one checkpoint file (checksum + kind + parse).
    pub fn load(path: &Path) -> io::Result<TrainCheckpoint> {
        irnuma_store::load_json(path, CKPT_KIND)
    }

    /// The newest *valid* checkpoint in `dir`. Follows the `latest` pointer
    /// when it is intact; a torn pointer or a corrupt/truncated checkpoint
    /// is skipped (with a warning and a `ckpt.skipped_corrupt` count) in
    /// favor of the next-newest valid file. `Ok(None)` when the directory
    /// holds no usable checkpoint.
    pub fn load_latest(dir: &Path) -> io::Result<Option<TrainCheckpoint>> {
        let mut tried = None;
        if let Ok(name) = irnuma_store::load_bytes(&dir.join(LATEST_FILE), LATEST_KIND) {
            let name = String::from_utf8_lossy(&name).trim().to_string();
            match Self::load(&dir.join(&name)) {
                Ok(c) => return Ok(Some(c)),
                Err(e) => {
                    irnuma_obs::warn!("checkpoint `{name}` unusable ({e}); scanning for older");
                    irnuma_obs::counter!("ckpt.skipped_corrupt").inc(1);
                    tried = Some(name);
                }
            }
        }
        // Pointer missing or target bad: scan epoch-sorted, newest first.
        let entries = match std::fs::read_dir(dir) {
            Ok(it) => it,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("ckpt-") && n.ends_with(".json"))
            .collect();
        names.sort();
        for name in names.into_iter().rev() {
            if tried.as_deref() == Some(name.as_str()) {
                continue;
            }
            match Self::load(&dir.join(&name)) {
                Ok(c) => return Ok(Some(c)),
                Err(e) => {
                    irnuma_obs::warn!("checkpoint `{name}` unusable ({e}); skipping");
                    irnuma_obs::counter!("ckpt.skipped_corrupt").inc(1);
                }
            }
        }
        Ok(None)
    }
}

/// A trained (or trainable) graph classifier: the paper's static model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GnnClassifier {
    pub model: GnnModel,
}

impl GnnClassifier {
    pub fn new(cfg: GnnConfig) -> GnnClassifier {
        GnnClassifier { model: GnnModel::new(cfg) }
    }

    /// Train on resident labeled graphs; returns the mean loss per epoch.
    /// The vectors move, uncopied, into a one-shard [`MemorySource`] and run
    /// through [`GnnClassifier::fit_streaming`]. An empty set or an
    /// out-of-range label is a caller bug here and panics.
    pub fn fit(&mut self, graphs: Vec<GraphData>, labels: Vec<usize>, p: TrainParams) -> Vec<f64> {
        let mut source = MemorySource::from_shards(vec![(graphs, labels)]);
        self.fit_streaming(&mut source, p, None)
            .expect("in-memory training needs a non-empty set with in-range labels")
    }

    /// Train from a [`ShardSource`] — the one epoch loop. Only one decoded
    /// shard is resident at a time (two with the
    /// [`crate::stream::ShardStream`] double buffer), so the corpus never
    /// has to fit in memory.
    ///
    /// Determinism: one run-wide RNG seeded from `p.seed` reshuffles a
    /// persistent shard order each epoch, then each visited shard's
    /// persistent record order. Shard arrival order is fixed by
    /// [`ShardSource::begin_epoch`] and gradient reduction is the fused
    /// engine's ordered tree, so the whole trajectory depends only on the
    /// seed and the shard layout — never on thread timing. Shuffling a
    /// one-element shard order draws nothing, so a one-shard source trains
    /// exactly like the resident graphs it holds.
    ///
    /// Checkpointing: every `ckpt.every` epochs (and at the final epoch) the
    /// trainer state is written atomically under `ckpt.dir`, with each
    /// shard's record count. With `ckpt.resume`, training continues from
    /// the newest valid checkpoint: the completed epochs' shuffles are
    /// replayed from those counts, so an interrupted-then-resumed run
    /// reproduces the uninterrupted one bit for bit. A checkpoint whose
    /// hyper-parameters, model shape, shard count or shard sizes differ
    /// from this run is refused with [`io::ErrorKind::InvalidData`], as are
    /// shards with out-of-range labels.
    pub fn fit_streaming(
        &mut self,
        source: &mut dyn ShardSource,
        p: TrainParams,
        ckpt: Option<&CheckpointConfig>,
    ) -> io::Result<Vec<f64>> {
        let num_shards = source.num_shards();
        let mut adam = Adam::new(&self.model.params, p.lr);
        let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
        let mut shard_order: Vec<usize> = (0..num_shards).collect();
        // Each shard's record order: created on the shard's first visit (or
        // from a checkpoint's sizes), then reshuffled in place every epoch.
        let mut record_orders: Vec<Option<Vec<usize>>> = vec![None; num_shards];
        let mut history = Vec::with_capacity(p.epochs);
        let mut start_epoch = 0;

        if let Some(c) = ckpt.filter(|c| c.resume) {
            if let Some(saved) = TrainCheckpoint::load_latest(&c.dir)? {
                let same = (saved.params.batch_size, saved.params.lr, saved.params.seed)
                    == (p.batch_size, p.lr, p.seed);
                if !same || saved.classifier.model.cfg != self.model.cfg {
                    return Err(invalid(format!(
                        "checkpoint at epoch {} was trained with different \
                         hyper-parameters or model shape; refusing to resume",
                        saved.epoch
                    )));
                }
                if saved.shard_sizes.len() != num_shards {
                    return Err(invalid(format!(
                        "checkpoint at epoch {} records {} shard sizes but the source \
                         has {num_shards} shards; refusing to resume",
                        saved.epoch,
                        saved.shard_sizes.len()
                    )));
                }
                start_epoch = saved.epoch;
                *self = saved.classifier;
                adam = saved.adam;
                history = saved.history;
                record_orders = saved.shard_sizes.iter().map(|&n| Some((0..n).collect())).collect();
                // Replay the completed epochs' shuffles: the orders and
                // `rng` end up exactly where the uninterrupted run had them.
                for _ in 0..start_epoch {
                    shard_order.shuffle(&mut rng);
                    for &s in &shard_order {
                        if let Some(order) = &mut record_orders[s] {
                            order.shuffle(&mut rng);
                        }
                    }
                }
                irnuma_obs::info!(
                    "resuming training at epoch {start_epoch}/{} from {}",
                    p.epochs,
                    c.dir.display()
                );
            }
        }

        let mut fused = FusedEngine::new();
        let mut fit_span = irnuma_obs::span!(
            "train.fit",
            shards = num_shards,
            epochs = p.epochs,
            batch_size = p.batch_size
        );
        for epoch in start_epoch..p.epochs {
            let mut epoch_span = irnuma_obs::span!("train.epoch", epoch = epoch);
            shard_order.shuffle(&mut rng);
            source.begin_epoch(&shard_order);

            let mut epoch_loss = 0.0;
            let mut seen = 0usize;
            // Gradient-norm telemetry samples the epoch's final minibatch: a
            // full pass over every parameter per chunk would cost more than
            // the tracing budget allows.
            let mut grad_sq = 0.0f64;
            for _ in 0..num_shards {
                let batch = source.next_shard()?;
                check_batch(&batch, &self.model.cfg)?;
                let order =
                    record_orders[batch.shard].get_or_insert_with(|| (0..batch.len()).collect());
                if order.len() != batch.len() {
                    return Err(invalid(format!(
                        "shard {} yielded {} records where this run expects {}; \
                         the shard layout changed",
                        batch.shard,
                        batch.len(),
                        order.len()
                    )));
                }
                order.shuffle(&mut rng);
                let chunks = order.chunks(p.batch_size.max(1));
                let last_chunk = chunks.len().saturating_sub(1);
                for (chunk_i, chunk) in chunks.enumerate() {
                    // Fixed graph→buffer assignment + ordered tree reduce
                    // inside `batch_grads`: deterministic.
                    let (chunk_loss, gb) =
                        fused.batch_grads(&self.model, &batch.graphs, &batch.labels, chunk);
                    epoch_loss += chunk_loss;
                    let views = gb.views();
                    if irnuma_obs::telemetry_enabled() {
                        if chunk_i == last_chunk {
                            grad_sq = gb.squared_norm();
                        }
                        let t0 = std::time::Instant::now();
                        adam.step(&mut self.model.params, &views);
                        irnuma_obs::histogram!("train.adam_step_ns").record_duration(t0.elapsed());
                        irnuma_obs::counter!("train.batches").inc(1);
                    } else {
                        adam.step(&mut self.model.params, &views);
                    }
                }
                seen += batch.len();
                source.recycle(batch);
            }
            if seen == 0 {
                return Err(invalid("training source yielded no training graphs"));
            }
            let mean_loss = epoch_loss / seen as f64;
            if irnuma_obs::telemetry_enabled() {
                epoch_span.field("loss", mean_loss);
                epoch_span.field("grad_norm", grad_sq.sqrt());
                irnuma_obs::histogram!("train.epoch_ns").record_duration(epoch_span.elapsed());
                irnuma_obs::gauge!("train.loss").set(mean_loss);
            }
            history.push(mean_loss);

            if let Some(c) = ckpt {
                let done = epoch + 1;
                if (c.every > 0 && done % c.every == 0) || done == p.epochs {
                    TrainCheckpoint {
                        epoch: done,
                        params: p,
                        classifier: self.clone(),
                        adam: adam.clone(),
                        history: history.clone(),
                        shard_sizes: record_orders.iter().flatten().map(Vec::len).collect(),
                    }
                    .save(&c.dir)?;
                    irnuma_obs::counter!("ckpt.written").inc(1);
                }
            }
        }
        if let Some(&last) = history.last() {
            fit_span.field("final_loss", last);
        }
        Ok(history)
    }

    /// Persist the trained classifier (weights + config): atomic write,
    /// versioned header, checksum — a crash mid-save or a torn file can
    /// never produce a silently-wrong model.
    pub fn save_json(&self, path: &Path) -> io::Result<()> {
        irnuma_store::save_json(path, "model", self)
    }

    /// Load a classifier saved with [`GnnClassifier::save_json`]. Truncated
    /// or bit-flipped files fail with [`io::ErrorKind::InvalidData`], as do
    /// intact files whose model has a zero size in its config or parameter
    /// shapes that config does not lay out ([`GnnModel::check_shapes`]).
    pub fn load_json(path: &Path) -> io::Result<GnnClassifier> {
        let clf: GnnClassifier = irnuma_store::load_json(path, "model")?;
        clf.model.check_shapes().map_err(|e| invalid(format!("{}: {e}", path.display())))?;
        Ok(clf)
    }

    /// Fraction of graphs classified correctly (one batched inference
    /// pass). `None` on an empty graph set — there is no accuracy to
    /// report, and `0.0` would read as "everything misclassified".
    pub fn accuracy(&self, graphs: &[GraphData], labels: &[usize]) -> Option<f64> {
        if graphs.is_empty() {
            return None;
        }
        let outputs = self.model.infer_batch(graphs);
        let correct = outputs.iter().zip(labels).filter(|(o, &l)| o.label() == l).count();
        Some(correct as f64 / graphs.len() as f64)
    }
}

/// Reject a shard this model cannot train on. Pack labels and graphs come
/// from on-disk data, so a bad label, token or edge is corrupt data, not a
/// caller bug — and the kernels would index out of bounds on the last two.
fn check_batch(batch: &ShardBatch, cfg: &GnnConfig) -> io::Result<()> {
    if batch.graphs.len() != batch.labels.len() {
        return Err(invalid(format!(
            "shard {} holds {} graphs but {} labels",
            batch.shard,
            batch.graphs.len(),
            batch.labels.len()
        )));
    }
    if let Some(l) = batch.labels.iter().find(|&&l| l >= cfg.classes) {
        return Err(invalid(format!("label {l} out of range for {} classes", cfg.classes)));
    }
    for (i, g) in batch.graphs.iter().enumerate() {
        g.validate(cfg.vocab_size)
            .map_err(|e| invalid(format!("shard {} graph {i}: {e}", batch.shard)))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MemorySource;
    use irnuma_graph::{EdgeKind, Graph, NodeKind};

    /// Two synthetic graph families that differ in structure: "chains"
    /// (class 0) and "stars with atomics" (class 1).
    fn family(class: usize, variant: u32) -> GraphData {
        let mut g = Graph::default();
        if class == 0 {
            let mut prev = None;
            for i in 0..6 + variant % 4 {
                let n = g.add_node(NodeKind::Instruction, i % 7);
                if let Some(p) = prev {
                    g.add_edge(p, n, EdgeKind::Control, 0);
                }
                prev = Some(n);
            }
        } else {
            let hub = g.add_node(NodeKind::Instruction, 15);
            for i in 0..6 + variant % 4 {
                let n = g.add_node(NodeKind::Variable, 16 + i % 4);
                g.add_edge(n, hub, EdgeKind::Data, i);
                let c = g.add_node(NodeKind::Instruction, 12);
                g.add_edge(hub, c, EdgeKind::Control, 0);
            }
        }
        GraphData::from_graph(&g)
    }

    fn dataset() -> (Vec<GraphData>, Vec<usize>) {
        let mut gs = Vec::new();
        let mut ls = Vec::new();
        for v in 0..12 {
            gs.push(family(0, v));
            ls.push(0);
            gs.push(family(1, v));
            ls.push(1);
        }
        (gs, ls)
    }

    fn cfg() -> GnnConfig {
        GnnConfig { vocab_size: 24, hidden: 12, classes: 2, layers: 2, layer_norm: true, seed: 3 }
    }

    #[test]
    fn training_separates_two_structural_classes() {
        let (gs, ls) = dataset();
        let mut clf = GnnClassifier::new(cfg());
        let p = TrainParams { epochs: 40, batch_size: 8, lr: 5e-3, seed: 4 };
        let hist = clf.fit(gs.clone(), ls.clone(), p);
        assert!(hist.last().unwrap() < &hist[0], "loss decreases: {hist:?}");
        let acc = clf.accuracy(&gs, &ls).expect("non-empty evaluation set");
        assert!(acc >= 0.95, "train accuracy {acc}");
        // Held-out variants of each family classify correctly too.
        assert_eq!(clf.model.infer(&family(0, 99)).label(), 0);
        assert_eq!(clf.model.infer(&family(1, 99)).label(), 1);
    }

    #[test]
    fn training_is_deterministic() {
        let (gs, ls) = dataset();
        let p = TrainParams { epochs: 5, batch_size: 4, lr: 1e-3, seed: 11 };
        let mut a = GnnClassifier::new(cfg());
        let ha = a.fit(gs.clone(), ls.clone(), p);
        let mut b = GnnClassifier::new(cfg());
        let hb = b.fit(gs, ls, p);
        assert_eq!(ha, hb, "loss history identical");
        assert_eq!(a.model.params, b.model.params, "weights identical");
    }

    #[test]
    fn embeddings_cluster_by_class() {
        let (gs, ls) = dataset();
        let mut clf = GnnClassifier::new(cfg());
        clf.fit(gs, ls, TrainParams { epochs: 30, batch_size: 8, lr: 5e-3, seed: 4 });
        let e0 = clf.model.infer(&family(0, 50)).pooled;
        let e0b = clf.model.infer(&family(0, 51)).pooled;
        let e1 = clf.model.infer(&family(1, 50)).pooled;
        let dist = |a: &[f32], b: &[f32]| -> f32 {
            a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
        };
        assert!(dist(&e0, &e0b) < dist(&e0, &e1), "same-class embeddings are closer");
    }

    #[test]
    fn saved_model_predicts_identically_after_reload() {
        let (gs, ls) = dataset();
        let mut clf = GnnClassifier::new(cfg());
        clf.fit(gs.clone(), ls, TrainParams { epochs: 10, batch_size: 8, lr: 3e-3, seed: 9 });
        let dir = std::env::temp_dir().join("irnuma-nn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        clf.save_json(&path).unwrap();
        let loaded = GnnClassifier::load_json(&path).unwrap();
        for g in &gs {
            assert_eq!(clf.model.infer(g).label(), loaded.model.infer(g).label());
            assert_eq!(clf.model.infer(g).pooled, loaded.model.infer(g).pooled);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "label 5 out of range")]
    fn out_of_range_labels_are_rejected() {
        let (gs, _) = dataset();
        let mut clf = GnnClassifier::new(cfg());
        clf.fit(gs[..1].to_vec(), vec![5], TrainParams::default());
    }

    #[test]
    fn accuracy_on_empty_set_is_none_not_zero() {
        let clf = GnnClassifier::new(cfg());
        assert_eq!(clf.accuracy(&[], &[]), None);
    }

    fn ckpt_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("irnuma-ckpt-test").join(name);
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn interrupted_then_resumed_training_matches_uninterrupted_bit_for_bit() {
        let (gs, ls) = dataset();
        let p4 = TrainParams { epochs: 4, batch_size: 4, lr: 1e-3, seed: 11 };
        let dir = ckpt_dir("resume-exact");

        // The reference: one uninterrupted 4-epoch in-memory run.
        let mut full = GnnClassifier::new(cfg());
        let h_full = full.fit(gs, ls, p4);

        // The "crash": train only 2 epochs, checkpointing every epoch.
        let mut first = GnnClassifier::new(cfg());
        let cc = CheckpointConfig { dir: dir.clone(), every: 1, resume: false };
        first.fit_streaming(&mut sharded(24), TrainParams { epochs: 2, ..p4 }, Some(&cc)).unwrap();

        // The "restart": a fresh classifier resumes to 4 epochs.
        let mut resumed = GnnClassifier::new(cfg());
        let cr = CheckpointConfig { resume: true, ..cc };
        let h_res = resumed.fit_streaming(&mut sharded(24), p4, Some(&cr)).unwrap();

        assert_eq!(h_full, h_res, "loss history identical across the interruption");
        assert_eq!(full.model.params, resumed.model.params, "weights identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_torn_latest_and_corrupt_checkpoints() {
        let p = TrainParams { epochs: 3, batch_size: 4, lr: 1e-3, seed: 5 };
        let dir = ckpt_dir("resume-torn");
        let mut clf = GnnClassifier::new(cfg());
        let cc = CheckpointConfig { dir: dir.clone(), every: 1, resume: false };
        clf.fit_streaming(&mut sharded(24), p, Some(&cc)).unwrap();

        // Tear the `latest` pointer and corrupt the newest checkpoint: the
        // loader must fall back to epoch 2, the newest *valid* one.
        std::fs::write(dir.join("latest"), b"irnuma-store v1 kind=checkpoint-po").unwrap();
        let newest = dir.join("ckpt-00003.json");
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let loaded = TrainCheckpoint::load_latest(&dir).unwrap().expect("a valid checkpoint");
        assert_eq!(loaded.epoch, 2);
        assert_eq!(loaded.history.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_latest_on_missing_or_empty_dir_is_none() {
        let dir = ckpt_dir("resume-none");
        assert!(TrainCheckpoint::load_latest(&dir).unwrap().is_none());
        std::fs::create_dir_all(&dir).unwrap();
        assert!(TrainCheckpoint::load_latest(&dir).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_different_hyper_parameters_is_refused() {
        let p = TrainParams { epochs: 2, batch_size: 4, lr: 1e-3, seed: 5 };
        let dir = ckpt_dir("resume-mismatch");
        let mut clf = GnnClassifier::new(cfg());
        let cc = CheckpointConfig { dir: dir.clone(), every: 1, resume: false };
        clf.fit_streaming(&mut sharded(24), p, Some(&cc)).unwrap();

        let mut other = GnnClassifier::new(cfg());
        let cr = CheckpointConfig { resume: true, ..cc };
        let err = other
            .fit_streaming(&mut sharded(24), TrainParams { lr: 9e-3, epochs: 4, ..p }, Some(&cr))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The 24-graph test corpus split into in-memory shards of
    /// `per_shard` graphs (the last one takes the remainder).
    fn sharded(per_shard: usize) -> MemorySource {
        let (gs, ls) = dataset();
        let shards = gs
            .chunks(per_shard)
            .zip(ls.chunks(per_shard))
            .map(|(g, l)| (g.to_vec(), l.to_vec()))
            .collect();
        MemorySource::from_shards(shards)
    }

    #[test]
    fn streaming_training_is_deterministic_and_learns() {
        let p = TrainParams { epochs: 25, batch_size: 4, lr: 5e-3, seed: 11 };
        let mut a = GnnClassifier::new(cfg());
        let ha = a.fit_streaming(&mut sharded(8), p, None).unwrap();
        let mut b = GnnClassifier::new(cfg());
        let hb = b.fit_streaming(&mut sharded(8), p, None).unwrap();
        assert_eq!(ha, hb, "loss history identical");
        assert_eq!(a.model.params, b.model.params, "weights identical");
        assert!(ha.last().unwrap() < &ha[0], "loss decreases: {ha:?}");
        let (gs, ls) = dataset();
        assert!(a.accuracy(&gs, &ls).unwrap() >= 0.9);
    }

    #[test]
    fn streaming_resume_matches_uninterrupted_bit_for_bit() {
        let p4 = TrainParams { epochs: 4, batch_size: 4, lr: 1e-3, seed: 11 };
        let dir = ckpt_dir("stream-resume");

        let mut full = GnnClassifier::new(cfg());
        let h_full = full.fit_streaming(&mut sharded(8), p4, None).unwrap();

        let mut first = GnnClassifier::new(cfg());
        let cc = CheckpointConfig { dir: dir.clone(), every: 1, resume: false };
        first.fit_streaming(&mut sharded(8), TrainParams { epochs: 2, ..p4 }, Some(&cc)).unwrap();

        let mut resumed = GnnClassifier::new(cfg());
        let cr = CheckpointConfig { resume: true, ..cc };
        let h_res = resumed.fit_streaming(&mut sharded(8), p4, Some(&cr)).unwrap();

        assert_eq!(h_full, h_res, "loss history identical across the interruption");
        assert_eq!(full.model.params, resumed.model.params, "weights identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_from_a_different_shard_layout_is_refused() {
        let p = TrainParams { epochs: 2, batch_size: 4, lr: 1e-3, seed: 5 };
        let dir = ckpt_dir("layout-mismatch");
        let cc = CheckpointConfig { dir: dir.clone(), every: 1, resume: false };
        GnnClassifier::new(cfg()).fit_streaming(&mut sharded(8), p, Some(&cc)).unwrap();
        let cr = CheckpointConfig { resume: true, ..cc };
        let p4 = TrainParams { epochs: 4, ..p };

        // A different shard count is refused before any training.
        let err =
            GnnClassifier::new(cfg()).fit_streaming(&mut sharded(6), p4, Some(&cr)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard sizes"), "{err}");

        // The same count with different sizes (10, 10, 4 vs 8, 8, 8) is
        // refused when the first mismatched shard arrives.
        let err =
            GnnClassifier::new(cfg()).fit_streaming(&mut sharded(10), p4, Some(&cr)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard layout changed"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_shard_sizes_is_refused_not_replayed() {
        // Checkpoints from before the single loop carry no shard sizes; the
        // streaming ones among them followed per-epoch seeds, so replaying
        // them here would silently change the trajectory.
        let p = TrainParams { epochs: 2, batch_size: 4, lr: 1e-3, seed: 5 };
        let dir = ckpt_dir("no-shard-sizes");
        let cc = CheckpointConfig { dir: dir.clone(), every: 0, resume: false };
        GnnClassifier::new(cfg()).fit_streaming(&mut sharded(24), p, Some(&cc)).unwrap();
        let mut old = TrainCheckpoint::load_latest(&dir).unwrap().expect("checkpoint");
        assert_eq!(old.shard_sizes, vec![24]);
        old.shard_sizes.clear();
        old.save(&dir).unwrap();

        let cr = CheckpointConfig { resume: true, ..cc };
        let err = GnnClassifier::new(cfg())
            .fit_streaming(&mut sharded(24), TrainParams { epochs: 4, ..p }, Some(&cr))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn untrusted_labels_are_a_typed_error_not_a_panic() {
        let (gs, _) = dataset();
        let mut bad_label = MemorySource::from_shards(vec![(gs[..2].to_vec(), vec![0, 5])]);
        let err = GnnClassifier::new(cfg())
            .fit_streaming(&mut bad_label, TrainParams::default(), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("label 5 out of range"), "{err}");

        let mut ragged = MemorySource::from_shards(vec![(gs[..2].to_vec(), vec![0])]);
        let err = GnnClassifier::new(cfg())
            .fit_streaming(&mut ragged, TrainParams::default(), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("2 graphs but 1 labels"), "{err}");
    }

    #[test]
    fn untrusted_graphs_are_a_typed_error_not_a_panic() {
        // cfg() has a 24-token vocabulary; the kernels would index the
        // embedding table and the adjacency with these values directly.
        let out_of_vocab = GraphData::from_edge_lists(vec![0, 999], [vec![(0, 1)], vec![], vec![]]);
        let out_of_range = GraphData::from_parts(
            vec![0, 1],
            [vec![(0, 7)], vec![], vec![]],
            [vec![1.0], vec![], vec![]],
        );
        for (g, msg) in [(out_of_vocab, "token 999"), (out_of_range, "references node 7")] {
            let (gs, _) = dataset();
            let mut source = MemorySource::from_shards(vec![(vec![gs[0].clone(), g], vec![0, 1])]);
            let err = GnnClassifier::new(cfg())
                .fit_streaming(&mut source, TrainParams::default(), None)
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(msg), "{err}");
        }
    }

    #[test]
    fn streaming_with_no_training_graphs_is_a_typed_error() {
        let mut empty = MemorySource::from_shards(vec![(Vec::new(), Vec::new())]);
        let err = GnnClassifier::new(cfg())
            .fit_streaming(&mut empty, TrainParams::default(), None)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("no training graphs"), "{err}");
    }

    #[test]
    fn intact_model_file_with_a_bad_shape_is_invalid_data() {
        let dir = ckpt_dir("model-shape");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let good = GnnClassifier::new(cfg());
        good.save_json(&path).unwrap();
        assert!(GnnClassifier::load_json(&path).is_ok());

        let breaks: [fn(&mut GnnClassifier); 9] = [
            |c| c.model.cfg.hidden = 0,
            |c| c.model.cfg.classes = 0,
            |c| c.model.cfg.layers = 0,
            |c| c.model.cfg.vocab_size = 0,
            |c| c.model.cfg.vocab_size += 1,
            |c| c.model.cfg.layers += 1,
            |c| c.model.cfg.layers = usize::MAX,
            |c| {
                c.model.params.last_mut().unwrap().data.pop();
            },
            |c| {
                c.model.params.pop();
            },
        ];
        for (i, brk) in breaks.iter().enumerate() {
            let mut bad = good.clone();
            brk(&mut bad);
            bad.save_json(&path).unwrap();
            let err = GnnClassifier::load_json(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "case {i}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_or_flipped_model_file_is_invalid_data_not_garbage() {
        let (gs, ls) = dataset();
        let mut clf = GnnClassifier::new(cfg());
        clf.fit(gs, ls, TrainParams { epochs: 2, batch_size: 8, lr: 3e-3, seed: 9 });
        let dir = ckpt_dir("model-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        clf.save_json(&path).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        let err = GnnClassifier::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let err = GnnClassifier::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
