//! The dataset: Steps A–C at 100 flag sequences (`dataset/build_100_seqs`,
//! the whole region suite, one sampled call so the pass pipelines and graph
//! builds dominate), loading a whole pack back into memory, plus a
//! streaming training epoch over a replicated (~100x) pack to price the
//! double-buffered shard prefetcher. Results land in `BENCH_dataset.json`
//! at the repo root, including the headline `graphs_per_sec_ingest`,
//! `epoch_wall_s_100x` and `prefetch_stall_frac` entries.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to shrink the pack corpus (2
//! flag sequences, 2 sampled calls, 20x replication) so the whole benchmark
//! runs in seconds; the 100-sequence build is timed in both modes.
//! Regression gating lives in `irnuma bench-check` (rules in
//! `results/bench_baselines.json`): the build must stay under its ceiling,
//! the pack load must keep its ingest rate in graphs per second and the
//! prefetch stall under 10% of the epoch wall; the bench itself always
//! exits zero so a noisy run can't mask the numbers.

use criterion::{black_box, Criterion};
use irnuma_core::bench_check::write_bench_json;
use irnuma_core::{
    build_dataset, load_packed, open_stream, pack_dataset, read_meta, DatasetParams,
};
use irnuma_graph::Vocab;
use irnuma_nn::{GnnClassifier, GnnConfig, TrainParams};
use irnuma_sim::MicroArch;

fn main() {
    let quick = std::env::var("IRNUMA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let (seqs, calls, replicate) = if quick { (2, 2, 20) } else { (4, 4, 100) };

    let params = DatasetParams { num_sequences: seqs, calls, ..DatasetParams::default() };
    let ds = build_dataset(MicroArch::Skylake, &params);

    let root = std::env::temp_dir().join(format!("irnuma-bench-dataset-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("bench tmp dir");
    let pack_dir = root.join("pack");
    let summary = pack_dataset(&ds, &pack_dir, 64).expect("pack");

    let mut c = Criterion::default().configure_from_args();
    {
        let mut grp = c.benchmark_group("dataset");
        // Twenty samples in both modes: the quick pack loads in ~3.5 ms, and
        // two samples spread the ingest rate by ±14% across runs.
        grp.sample_size(20);
        // Measured to a dataset whose graphs are ready to train on: the pack
        // stores the CSR/CSC adjacency the engines consume verbatim.
        grp.bench_function("binary_load", |b| {
            b.iter(|| black_box(load_packed(black_box(&pack_dir)).expect("binary load")))
        });
        // Each build applies every distinct (IR state, pass) transition of
        // 100 sequences per region once. Running every sequence's pipeline
        // takes ~2.6x as long (2-vCPU host), so the ceiling in
        // `results/bench_baselines.json` (~1.7x the calibrated median)
        // fails a build that loses the reuse.
        grp.sample_size(10);
        let build = DatasetParams { num_sequences: 100, calls: 1, ..DatasetParams::default() };
        grp.bench_function("build_100_seqs", |b| {
            b.iter(|| black_box(build_dataset(MicroArch::Skylake, black_box(&build))))
        });
        grp.finish();
    }

    // Streaming epoch at ~100x the corpus: replicate the regions (the label
    // table replicates with them), pack, and drive one `fit_streaming`
    // epoch through the double-buffered loader. The stall fraction is the
    // loader's own `loader.prefetch_stall_ns` counter over the measured
    // wall — if decode overlapped compute perfectly it would be the
    // pipeline-fill cost of the first shard and nothing else.
    let mut big = ds.clone();
    // Keep the replicated corpus bounded: 8 regions x seqs x replicate
    // graphs is enough to amortize pipeline fill without packing gigabytes.
    big.regions.truncate(8);
    big.labels.truncate(8);
    let (base_regions, base_labels) = (big.regions.clone(), big.labels.clone());
    for _ in 1..replicate {
        big.regions.extend(base_regions.iter().cloned());
        big.labels.extend(base_labels.iter().cloned());
    }
    let big_dir = root.join("pack-big");
    let big_summary = pack_dataset(&big, &big_dir, 64).expect("pack 100x");
    let meta = read_meta(&big_dir).expect("pack meta");
    let train_seqs: Vec<usize> = (0..meta.sequences.len()).collect();
    let mut stream = open_stream(&big_dir, &meta, &train_seqs).expect("open stream");
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden: 64,
        classes: meta.chosen_configs.len().max(2),
        layers: 2,
        layer_norm: true,
        seed: 1,
    });
    let p = TrainParams { epochs: 1, batch_size: 16, lr: 3e-3, seed: 17 };
    let stall_before = irnuma_obs::registry().counter("loader.prefetch_stall_ns").get();
    let t0 = std::time::Instant::now();
    clf.fit_streaming(&mut stream, p, None).expect("streaming epoch");
    let wall = t0.elapsed();
    let stall_ns = irnuma_obs::registry().counter("loader.prefetch_stall_ns").get() - stall_before;
    drop(stream);
    let stall_frac = stall_ns as f64 / wall.as_nanos().max(1) as f64;

    let medians = c.medians().to_vec();
    let get = |id: &str| {
        medians.iter().find(|(k, _)| k == id).map(|&(_, v)| v).expect("bench id present")
    };
    let bin_ns = get("dataset/binary_load");
    let graphs_per_sec = summary.graphs as f64 / (bin_ns / 1e9);

    let mut entries = medians.clone();
    entries.push(("dataset/graphs_per_sec_ingest".into(), graphs_per_sec));
    entries.push(("dataset/epoch_wall_s_100x".into(), wall.as_secs_f64()));
    entries.push(("dataset/prefetch_stall_frac".into(), stall_frac));
    entries.push(("dataset/pack_graphs".into(), summary.graphs as f64));
    entries.push(("dataset/pack_bytes".into(), summary.bytes as f64));
    let path = write_bench_json("dataset", &entries).expect("write bench json");
    println!(
        "binary load {:.1} ms ({graphs_per_sec:.0} graphs/s) -> {}",
        bin_ns / 1e6,
        path.display()
    );
    println!(
        "streaming epoch over {} graphs in {} shards: {:.2} s wall, prefetch stall {:.2}%",
        big.regions.len() * big.sequences.len(),
        big_summary.shards,
        wall.as_secs_f64(),
        stall_frac * 100.0
    );
    if stall_frac >= 0.10 {
        eprintln!(
            "warning: prefetch stall {:.1}% of epoch wall exceeds the 10% budget",
            stall_frac * 100.0
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
