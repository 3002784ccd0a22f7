//! Streaming minibatch loader over packed dataset shards.
//!
//! [`ShardStream`] reads the graph shards of a pack directory (the one
//! `irnuma dataset --out <dir>` writes; `irnuma_store::shard` framing, [`crate::binfmt`] record payloads) on a
//! single prefetch thread, double-buffered: while the trainer runs
//! `FusedEngine::batch_grads` over one decoded shard, the worker reads and
//! decodes the next into the second buffer, so epoch wall-clock stays
//! compute-bound. Two [`ShardBatch`] buffers circulate for the life of the
//! stream — file bytes, graph vectors, and each graph's CSR/CSC arrays are
//! all reused, so steady-state decode allocation is ~0.
//!
//! Determinism: the loader adds no ordering freedom. The trainer hands
//! [`ShardSource::begin_epoch`] an explicit shard order and receives shards
//! back in exactly that order; within a shard, records keep pack order.
//! Combined with the fused engine's fixed graph→buffer assignment and
//! ordered tree reduce, an epoch consumes graphs in a sequence that depends
//! only on the seed and the shard layout — never on thread timing — which
//! is what makes `--resume` bit-for-bit reproducible (see
//! `GnnClassifier::fit_streaming`, the one training loop).

use crate::binfmt::decode_graph_into;
use crate::graphdata::GraphData;
use irnuma_store::shard::{parse_shard, ShardManifest};
use irnuma_store::{corruption, invalid};
use std::collections::VecDeque;
use std::io::{self, Read};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// Shard kind for packed dataset graph shards.
pub const GRAPH_SHARD_KIND: &str = "graph-shard";

/// Byte length of the `[u32 region][u32 sequence]` record prefix that
/// precedes each encoded graph in a packed shard.
pub const RECORD_PREFIX: usize = 8;

/// Maps a record's `(region, sequence)` ids to its training label, or
/// `None` to filter the record out (e.g. held-out sequences).
pub type RecordMap = Box<dyn Fn(u32, u32) -> Option<usize> + Send + Sync>;

/// One decoded shard: parallel `graphs`/`labels` arrays plus the raw file
/// buffer, all recycled across epochs via [`ShardSource::recycle`].
#[derive(Debug)]
pub struct ShardBatch {
    /// Index of the shard (in manifest order) this batch holds.
    pub shard: usize,
    pub graphs: Vec<GraphData>,
    pub labels: Vec<usize>,
    buf: Vec<u8>,
}

impl ShardBatch {
    fn empty() -> ShardBatch {
        ShardBatch { shard: usize::MAX, graphs: Vec::new(), labels: Vec::new(), buf: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }
}

/// A source of decoded shards for the train loop. The contract:
/// call [`begin_epoch`](ShardSource::begin_epoch) with the epoch's shard
/// order, then alternate exactly `num_shards` calls to
/// [`next_shard`](ShardSource::next_shard) — which returns shards in that
/// order — each followed by a [`recycle`](ShardSource::recycle) of the
/// returned batch.
pub trait ShardSource: Send {
    fn num_shards(&self) -> usize;
    /// Start an epoch that will visit shards in `order` (a permutation of
    /// `0..num_shards`).
    fn begin_epoch(&mut self, order: &[usize]);
    /// The next shard in the epoch's order. Blocks until prefetched;
    /// blocked time is counted under `loader.prefetch_stall_ns`.
    fn next_shard(&mut self) -> io::Result<ShardBatch>;
    /// Return a batch's buffers for reuse (and trigger the next prefetch).
    fn recycle(&mut self, batch: ShardBatch);
}

enum Job {
    Load(usize, ShardBatch),
}

/// The double-buffered on-disk source.
#[derive(Debug)]
pub struct ShardStream {
    manifest: ShardManifest,
    to_worker: mpsc::Sender<Job>,
    from_worker: mpsc::Receiver<io::Result<ShardBatch>>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Shards of the current epoch not yet handed to the worker.
    pending: VecDeque<usize>,
    /// Idle buffers (between epochs, or before the first).
    spare: Vec<ShardBatch>,
    in_flight: usize,
}

impl ShardStream {
    /// Open a pack directory: load its manifest (which validates every
    /// entry) and spawn the prefetch worker. Every listed shard must exist (a missing shard
    /// is an immediate typed error, not a mid-epoch surprise); contents are
    /// verified incrementally as shards are read.
    pub fn open(dir: &Path, map: RecordMap) -> io::Result<ShardStream> {
        let manifest = ShardManifest::load(dir)?;
        for e in &manifest.entries {
            let path = dir.join(&e.file);
            if !path.is_file() {
                return Err(invalid(format!(
                    "shard `{}` is listed in the manifest but missing from {}",
                    e.file,
                    dir.display()
                )));
            }
        }
        let (to_worker, jobs) = mpsc::channel::<Job>();
        let (results, from_worker) = mpsc::channel::<io::Result<ShardBatch>>();
        let worker_manifest = manifest.clone();
        let dir = dir.to_path_buf();
        let worker = std::thread::Builder::new()
            .name("irnuma-loader".into())
            .spawn(move || worker_loop(&dir, &worker_manifest, &map, &jobs, &results))
            .map_err(|e| io::Error::new(e.kind(), format!("spawning loader thread: {e}")))?;
        Ok(ShardStream {
            manifest,
            to_worker,
            from_worker,
            worker: Some(worker),
            pending: VecDeque::new(),
            spare: vec![ShardBatch::empty(), ShardBatch::empty()],
            in_flight: 0,
        })
    }

    fn dispatch(&mut self, batch: ShardBatch) {
        if let Some(idx) = self.pending.pop_front() {
            // The worker only exits when the sender is dropped, so a send
            // failure means it panicked; surface that on the next recv.
            if self.to_worker.send(Job::Load(idx, batch)).is_ok() {
                self.in_flight += 1;
            }
        } else {
            self.spare.push(batch);
        }
    }
}

impl ShardSource for ShardStream {
    fn num_shards(&self) -> usize {
        self.manifest.entries.len()
    }

    fn begin_epoch(&mut self, order: &[usize]) {
        assert_eq!(
            self.in_flight, 0,
            "begin_epoch called with shards still in flight (missing next_shard/recycle calls)"
        );
        self.pending = order.iter().copied().collect();
        // Prime the pipeline: both buffers go to the worker immediately, so
        // shard order[1] decodes while the trainer consumes order[0].
        while let Some(batch) = self.spare.pop() {
            if self.pending.is_empty() {
                self.spare.push(batch);
                break;
            }
            self.dispatch(batch);
        }
    }

    fn next_shard(&mut self) -> io::Result<ShardBatch> {
        if self.in_flight == 0 {
            return Err(invalid("next_shard called with no shard in flight"));
        }
        let start = Instant::now();
        let result = self
            .from_worker
            .recv()
            .map_err(|_| io::Error::other("shard loader thread died unexpectedly"))?;
        irnuma_obs::counter!("loader.prefetch_stall_ns").inc(start.elapsed().as_nanos() as u64);
        self.in_flight -= 1;
        result
    }

    fn recycle(&mut self, batch: ShardBatch) {
        self.dispatch(batch);
    }
}

impl Drop for ShardStream {
    fn drop(&mut self) {
        // Close the job channel so the worker's recv loop ends, drain any
        // in-flight results, then join.
        let (dead, _) = mpsc::channel();
        self.to_worker = dead;
        while self.in_flight > 0 {
            if self.from_worker.recv().is_err() {
                break;
            }
            self.in_flight -= 1;
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(
    dir: &Path,
    manifest: &ShardManifest,
    map: &RecordMap,
    jobs: &mpsc::Receiver<Job>,
    results: &mpsc::Sender<io::Result<ShardBatch>>,
) {
    while let Ok(Job::Load(idx, mut batch)) = jobs.recv() {
        let outcome = load_shard(dir, manifest, map, idx, &mut batch);
        let send = match outcome {
            Ok(()) => results.send(Ok(batch)),
            Err(e) => results.send(Err(e)),
        };
        if send.is_err() {
            break; // stream dropped
        }
    }
}

/// Read, verify, and decode shard `idx` into `batch`, reusing all of the
/// batch's allocations.
fn load_shard(
    dir: &Path,
    manifest: &ShardManifest,
    map: &RecordMap,
    idx: usize,
    batch: &mut ShardBatch,
) -> io::Result<()> {
    let entry = manifest
        .entries
        .get(idx)
        .ok_or_else(|| invalid(format!("shard index {idx} out of range")))?;
    let _span = irnuma_obs::span!("loader.decode", shard = idx as u64);
    let start = Instant::now();
    batch.shard = idx;
    batch.buf.clear();
    std::fs::File::open(dir.join(&entry.file))
        .map_err(|e| io::Error::new(e.kind(), format!("opening shard `{}`: {e}", entry.file)))?
        .read_to_end(&mut batch.buf)?;
    // Cheap structural gate against the manifest; byte integrity is covered
    // by the per-record checksums `parse_shard` verifies, so each payload
    // byte is hashed exactly once per decode. The whole-file checksum stays
    // available through [`ShardManifest::verify`].
    if batch.buf.len() as u64 != entry.bytes {
        return Err(corruption(format!(
            "shard `{}` is {} bytes, manifest says {}",
            entry.file,
            batch.buf.len(),
            entry.bytes
        )));
    }

    // Split-borrow the batch so record slices from `buf` can be decoded
    // while `graphs`/`labels` are repopulated.
    let ShardBatch { buf, graphs, labels, .. } = batch;
    let ranges = parse_shard(GRAPH_SHARD_KIND, buf)?;
    let mut slots = std::mem::take(graphs);
    slots.reverse(); // pop() then yields slots in their previous order
    labels.clear();
    for (i, range) in ranges.into_iter().enumerate() {
        let record = &buf[range];
        if record.len() < RECORD_PREFIX {
            return Err(corruption(format!(
                "shard `{}` record {i} too short for its (region, sequence) prefix",
                entry.file
            )));
        }
        let region = u32::from_le_bytes(record[..4].try_into().unwrap());
        let sequence = u32::from_le_bytes(record[4..8].try_into().unwrap());
        let Some(label) = map(region, sequence) else { continue };
        let mut g = slots.pop().unwrap_or_else(|| {
            GraphData::from_parts(Vec::new(), Default::default(), Default::default())
        });
        decode_graph_into(&record[RECORD_PREFIX..], &mut g).map_err(|e| {
            io::Error::new(e.kind(), format!("shard `{}` record {i}: {e}", entry.file))
        })?;
        graphs.push(g);
        labels.push(label);
    }
    irnuma_obs::counter!("dataset.shards_read").inc(1);
    irnuma_obs::counter!("dataset.decode_ns").inc(start.elapsed().as_nanos() as u64);
    Ok(())
}

/// An in-memory [`ShardSource`]: all shards held resident and handed out by
/// move, never copied. `GnnClassifier::fit` trains resident graphs as one
/// shard of it, and so does `irnuma train` without `--dataset`, over the
/// dataset it builds.
pub struct MemorySource {
    shards: Vec<Option<(Vec<GraphData>, Vec<usize>)>>,
    order: VecDeque<usize>,
}

impl MemorySource {
    /// Drain `source` once (in identity order) into memory.
    pub fn from_source(source: &mut dyn ShardSource) -> io::Result<MemorySource> {
        let n = source.num_shards();
        let identity: Vec<usize> = (0..n).collect();
        source.begin_epoch(&identity);
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let batch = source.next_shard()?;
            shards.push(Some((batch.graphs.clone(), batch.labels.clone())));
            source.recycle(batch);
        }
        Ok(MemorySource { shards, order: VecDeque::new() })
    }

    /// Build directly from per-shard `(graphs, labels)` arrays.
    pub fn from_shards(shards: Vec<(Vec<GraphData>, Vec<usize>)>) -> MemorySource {
        MemorySource { shards: shards.into_iter().map(Some).collect(), order: VecDeque::new() }
    }
}

impl ShardSource for MemorySource {
    fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn begin_epoch(&mut self, order: &[usize]) {
        self.order = order.iter().copied().collect();
    }

    fn next_shard(&mut self) -> io::Result<ShardBatch> {
        let idx = self
            .order
            .pop_front()
            .ok_or_else(|| invalid("next_shard called past the end of the epoch's order"))?;
        let slot = self
            .shards
            .get_mut(idx)
            .ok_or_else(|| invalid(format!("shard index {idx} out of range")))?;
        let (graphs, labels) = slot
            .take()
            .ok_or_else(|| invalid(format!("shard {idx} checked out twice without recycle")))?;
        Ok(ShardBatch { shard: idx, graphs, labels, buf: Vec::new() })
    }

    fn recycle(&mut self, batch: ShardBatch) {
        if let Some(slot) = self.shards.get_mut(batch.shard) {
            *slot = Some((batch.graphs, batch.labels));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::encode_graph;
    use irnuma_store::shard::{ShardManifest, ShardWriter};
    use std::fs;
    use std::path::PathBuf;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("irnuma-stream-test").join(name);
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn graph(seed: u32) -> GraphData {
        GraphData::from_edge_lists(
            vec![seed % 7, (seed + 1) % 7, (seed + 2) % 7],
            [vec![(0, 1), (1, 2)], vec![(2, 0)], vec![]],
        )
    }

    /// Write `shards` of synthetic records; record (region, seq) = (s, i).
    fn write_pack(dir: &Path, shards: usize, per_shard: usize) {
        let mut manifest = ShardManifest::default();
        for s in 0..shards {
            let mut w = ShardWriter::new(GRAPH_SHARD_KIND);
            for i in 0..per_shard {
                let mut rec = Vec::new();
                rec.extend_from_slice(&(s as u32).to_le_bytes());
                rec.extend_from_slice(&(i as u32).to_le_bytes());
                encode_graph(&graph((s * per_shard + i) as u32), &mut rec);
                w.push(&rec);
            }
            manifest.entries.push(w.finish(dir, &format!("shard-{s:04}.bin")).unwrap());
        }
        manifest.save(dir).unwrap();
    }

    fn label_map() -> RecordMap {
        Box::new(|region, seq| Some((region * 10 + seq) as usize))
    }

    #[test]
    fn stream_yields_shards_in_the_requested_order() {
        let d = tdir("order");
        write_pack(&d, 3, 4);
        let mut stream = ShardStream::open(&d, label_map()).unwrap();
        assert_eq!(stream.num_shards(), 3);
        for order in [vec![0, 1, 2], vec![2, 0, 1], vec![1, 2, 0]] {
            stream.begin_epoch(&order);
            for &want in &order {
                let batch = stream.next_shard().unwrap();
                assert_eq!(batch.shard, want);
                assert_eq!(batch.len(), 4);
                assert_eq!(batch.labels, (0..4).map(|i| want * 10 + i).collect::<Vec<_>>());
                stream.recycle(batch);
            }
        }
    }

    #[test]
    fn stream_matches_memory_source_and_filters_records() {
        let d = tdir("memory");
        write_pack(&d, 2, 3);
        // Filter out sequence 1 everywhere.
        let map = || Box::new(|r: u32, s: u32| (s != 1).then_some(r as usize)) as RecordMap;
        let mut stream = ShardStream::open(&d, map()).unwrap();
        let mut mem = MemorySource::from_source(&mut stream).unwrap();
        let graphs: usize = mem.shards.iter().flatten().map(|(g, _)| g.len()).sum();
        assert_eq!(graphs, 4); // 2 shards × (3 - 1) records

        let mut stream = ShardStream::open(&d, map()).unwrap();
        let order = vec![1, 0];
        stream.begin_epoch(&order);
        mem.begin_epoch(&order);
        for _ in 0..2 {
            let a = stream.next_shard().unwrap();
            let b = mem.next_shard().unwrap();
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.len(), 2);
            for (x, y) in a.graphs.iter().zip(&b.graphs) {
                assert_eq!(x.node_text, y.node_text);
                assert_eq!(x.edges, y.edges);
                assert_eq!(x.norm, y.norm);
            }
            stream.recycle(a);
            mem.recycle(b);
        }
    }

    #[test]
    fn streaming_and_memory_source_train_bit_identical_models() {
        use crate::model::GnnConfig;
        use crate::train::{GnnClassifier, TrainParams};
        let d = tdir("train-equivalence");
        write_pack(&d, 3, 8);
        let map = || Box::new(|r: u32, s: u32| Some(((r + s) % 2) as usize)) as RecordMap;
        let cfg = GnnConfig {
            vocab_size: 8,
            hidden: 12,
            classes: 2,
            layers: 2,
            layer_norm: true,
            seed: 3,
        };
        let p = TrainParams { epochs: 3, batch_size: 5, lr: 3e-3, seed: 9 };

        let mut streamed = GnnClassifier::new(cfg);
        let mut stream = ShardStream::open(&d, map()).unwrap();
        let h_stream = streamed.fit_streaming(&mut stream, p, None).unwrap();

        let mut resident = GnnClassifier::new(cfg);
        let mut mem =
            MemorySource::from_source(&mut ShardStream::open(&d, map()).unwrap()).unwrap();
        let h_mem = resident.fit_streaming(&mut mem, p, None).unwrap();

        assert_eq!(h_stream.len(), 3);
        let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&h_stream), bits(&h_mem), "loss history differs");
        for (a, b) in streamed.model.params.iter().zip(&resident.model.params) {
            let bits = |t: &crate::tensor::Tensor| t.data.iter().map(|x| x.to_bits()).collect();
            let (a, b): (Vec<u32>, Vec<u32>) = (bits(a), bits(b));
            assert_eq!(a, b, "streamed and resident parameters differ");
        }
    }

    #[test]
    fn bit_flip_surfaces_as_invalid_data_from_next_shard() {
        let d = tdir("flip");
        write_pack(&d, 2, 2);
        let path = d.join("shard-0001.bin");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut stream = ShardStream::open(&d, label_map()).unwrap();
        stream.begin_epoch(&[1, 0]);
        let err = stream.next_shard().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn missing_shard_fails_open_with_a_typed_error() {
        let d = tdir("missing");
        write_pack(&d, 2, 1);
        fs::remove_file(d.join("shard-0000.bin")).unwrap();
        let err = ShardStream::open(&d, label_map()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0000.bin"), "{err}");
    }

    #[test]
    fn loader_counters_advance() {
        let d = tdir("counters");
        write_pack(&d, 2, 2);
        let read0 = irnuma_obs::registry().counter("dataset.shards_read").get();
        let mut stream = ShardStream::open(&d, label_map()).unwrap();
        stream.begin_epoch(&[0, 1]);
        for _ in 0..2 {
            let b = stream.next_shard().unwrap();
            stream.recycle(b);
        }
        drop(stream);
        let read1 = irnuma_obs::registry().counter("dataset.shards_read").get();
        assert!(read1 >= read0 + 2, "shards_read {read0} -> {read1}");
        assert!(irnuma_obs::registry().counter("dataset.decode_ns").get() > 0);
    }

    #[test]
    fn memory_source_double_checkout_is_an_error_not_a_panic() {
        let mut mem = MemorySource::from_shards(vec![(vec![graph(0)], vec![0])]);
        mem.begin_epoch(&[0, 0]);
        let first = mem.next_shard().unwrap();
        let err = mem.next_shard().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        mem.recycle(first);
    }
}
