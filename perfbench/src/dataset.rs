//! `dataset`: a paper-scale Steps A–C packed build (1000 flag sequences,
//! 10 sampled calls, Skylake) into a fresh directory, then every record
//! loaded back (`load_packed`) and the manifest verified. Afterwards each
//! graph record is decoded once more on its own, timed, for the per-record
//! read latency.

use crate::host::{self, timed};
use crate::stats::{best, derive, median, pooled_rate, quantile};
use crate::trace::{common_layers, traced};
use crate::{Opts, Outcome};
use irnuma_core::{build_packed_dataset, load_packed, BuildOptions, DatasetParams, PackedBuild};
use irnuma_nn::{decode_graph, GRAPH_SHARD_KIND};
use irnuma_sim::MicroArch;
use irnuma_store::shard::{parse_shard, ShardManifest};
use std::path::Path;
use std::time::Instant;

const ARCH: MicroArch = MicroArch::Skylake;
/// Regions per shard (the CLI's `--shard-regions` default).
const SHARD_REGIONS: usize = 8;
/// Bytes before each graph record's payload: `(region: u32, sequence: u32)`.
const RECORD_PREFIX: usize = 8;
/// Warm-up builds in set-up (the median is reported).
const SETUP_REPS: usize = 5;

pub fn params(seed: u64) -> DatasetParams {
    DatasetParams { num_sequences: 1000, calls: 10, seed: derive(seed, 1), ..Default::default() }
}

/// FNV-1a over the labels, the chosen configurations and every shard's
/// checksum: equal across runs of one seed.
fn digest(labels: &[usize], chosen: &[usize], shards: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let sep = [u64::MAX];
    let values = labels.iter().chain(chosen).map(|&v| v as u64);
    for v in values.chain(sep).chain(shards.iter().copied()) {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One build + load + verify pass and what it produced.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    build_s: f64,
    load_s: f64,
    digest: u64,
    coverage: f64,
    /// Peak RSS over the pass (MB).
    rss_mb: f64,
}

fn pass(dir: &Path, p: &DatasetParams, out: &mut Outcome) -> Result<Pass, String> {
    let mut build_s = 0.0;
    let mut load_s = 0.0;
    host::reset_peak_rss();
    let t = timed(|| -> Result<_, String> {
        let t0 = Instant::now();
        let built = build_packed_dataset(ARCH, p, &BuildOptions::default(), dir, SHARD_REGIONS)
            .map_err(|e| format!("build_packed_dataset: {e}"))?;
        build_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ds = load_packed(dir).map_err(|e| format!("load_packed: {e}"))?;
        load_s = t1.elapsed().as_secs_f64();
        let manifest = ShardManifest::load(dir).map_err(|e| format!("manifest: {e}"))?;
        let verified = manifest.verify(dir);
        Ok((built, ds, manifest, verified))
    });
    let (built, ds, manifest, verified) = t.out?;
    let shards: Vec<u64> = manifest.entries.iter().map(|e| e.checksum().unwrap_or(0)).collect();
    let PackedBuild { regions, graphs, label_coverage, skips, .. } = built;
    out.check(format!("manifest verify of {}", dir.display()), verified.is_ok());
    let records: usize = ds.regions.iter().map(|r| r.graphs.len()).sum();
    out.check(
        format!("{regions} regions x {} sequences = {records} records loaded", p.num_sequences),
        regions == ds.regions.len() && graphs == records && records == regions * p.num_sequences,
    );
    out.attempted += (regions + skips.len()) as u64;
    out.failed += skips.len() as u64;
    Ok(Pass {
        wall_s: t.wall_s,
        cpu_s: t.cpu_s,
        build_s,
        load_s,
        digest: digest(&ds.labels, &ds.chosen_configs, &shards),
        coverage: label_coverage,
        rss_mb: host::peak_rss_mb(),
    })
}

/// Decode every graph record of the pack once more, timing each region's
/// records on the thread CPU clock: one latency sample (ms) per region,
/// one window per pass. Also checks that each `(region, sequence)` appears
/// exactly once.
fn read_records(dir: &Path, p: &DatasetParams, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let manifest = ShardManifest::load(dir).map_err(|e| e.to_string())?;
    let mut region_ms: Vec<f64> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut bad = 0u64;
    for entry in &manifest.entries {
        let bytes = std::fs::read(dir.join(&entry.file)).map_err(|e| e.to_string())?;
        let ranges = parse_shard(GRAPH_SHARD_KIND, &bytes).map_err(|e| e.to_string())?;
        // A shard holds its regions' records region by region.
        let mut current = None;
        let mut c0 = 0.0;
        for range in ranges {
            let rec = &bytes[range];
            let region = &rec[..4];
            if current != Some(region) {
                if current.is_some() {
                    region_ms.push(host::thread_cpu_ms() - c0);
                }
                current = Some(region);
                c0 = host::thread_cpu_ms();
            }
            let g = decode_graph(&rec[RECORD_PREFIX..]);
            bad += u64::from(g.is_err() || !seen.insert(rec[..RECORD_PREFIX].to_vec()));
        }
        if current.is_some() {
            region_ms.push(host::thread_cpu_ms() - c0);
        }
    }
    out.attempted += seen.len() as u64;
    out.failed += bad;
    out.check(
        format!("{} records decode, each (region, sequence) once", seen.len()),
        bad == 0 && seen.len() == region_ms.len() * p.num_sequences,
    );
    Ok(region_ms)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let p = params(opts.seed);
    let mut out = Outcome::default();

    // Set-up: warm-up builds at eight sequences, two calls (thread pool,
    // allocator and page cache warm before the timed build).
    let warm = DatasetParams { num_sequences: 8, calls: 2, ..p };
    let mut setup = Vec::new();
    for i in 0..SETUP_REPS {
        let dir = opts.work.join(format!("setup-{i}"));
        let t = timed(|| {
            build_packed_dataset(ARCH, &warm, &BuildOptions::default(), &dir, SHARD_REGIONS)
        });
        t.out.map_err(|e| format!("set-up build: {e}"))?;
        setup.push(t.wall_s);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!(
        "dataset: {} sequences, {} calls, {:?}, set-up {:.3} s",
        p.num_sequences,
        p.calls,
        ARCH,
        median(&setup)
    );

    if opts.trace {
        return traced_run(opts, &p, out);
    }

    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut windows = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        let dir = opts.work.join(format!("pack-{}", passes.len()));
        let ps = pass(&dir, &p, &mut out)?;
        println!(
            "dataset pass {}: wall {:.3} s (build {:.3} s, load {:.3} s), cpu {:.3} s, digest {:016x}",
            passes.len(),
            ps.wall_s,
            ps.build_s,
            ps.load_s,
            ps.cpu_s,
            ps.digest
        );
        windows.push(read_records(&dir, &p, &mut out)?);
        let _ = std::fs::remove_dir_all(&dir);
        passes.push(ps);
    }
    out.check(
        format!("{} passes of one seed give one labels/chosen-configs digest", passes.len()),
        passes.iter().all(|ps| ps.digest == passes[0].digest),
    );
    let n = passes.len() as u64;
    let walls: Vec<f64> = passes.iter().map(|ps| ps.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|ps| ps.cpu_s).collect();
    out.set("setup_s", median(&setup), SETUP_REPS as u64);
    println!("median over passes: wall {:.3} s, cpu {:.3} s", median(&walls), median(&cpus));
    out.set("wall_s", best(&walls), n);
    out.set("cpu_s", best(&cpus), n);
    out.set("peak_rss_mb", median(&passes.iter().map(|ps| ps.rss_mb).collect::<Vec<_>>()), n);
    // Pooled over passes, as in `repro`. 56 regions a pass: p90 is the
    // highest percentile with ten samples beyond it.
    let pooled: Vec<f64> = windows.concat();
    let n_lat = pooled.len() as u64;
    let p50 = quantile(&pooled, 0.50);
    out.set("p50_ms", p50, n_lat);
    crate::report("p90_ms", quantile(&pooled, 0.90), "ms", n_lat);
    let records = p.num_sequences as f64;
    crate::report("mean_rate", pooled_rate(&pooled) * records, "1/s", n_lat);
    out.set("max_rps", 1e3 / p50 * records, n_lat);
    out.set("label_coverage", passes[0].coverage, 1);
    Ok(out)
}

/// `--trace 1`: one untraced pass, then one pass under the span sink.
fn traced_run(opts: &Opts, p: &DatasetParams, mut out: Outcome) -> Result<Outcome, String> {
    let dir = opts.work.join("pack-plain");
    let plain = pass(&dir, p, &mut out)?;
    let plain_lat = read_records(&dir, p, &mut out)?;
    let _ = std::fs::remove_dir_all(&dir);

    let dir = opts.work.join("pack-traced");
    let ((ps, lat), tr) = traced(|| {
        let _root = irnuma_obs::span!("bench.dataset");
        let ps = pass(&dir, p, &mut out);
        let lat = ps.as_ref().ok().map(|_| read_records(&dir, p, &mut out));
        (ps, lat)
    });
    let _ = std::fs::remove_dir_all(&dir);
    let ps = ps?;
    let lat = lat.unwrap_or_else(|| Ok(Vec::new()))?;
    out.check(
        "traced and untraced builds give one labels/chosen-configs digest",
        ps.digest == plain.digest,
    );
    println!("dataset traced pass: wall {:.3} s (untraced {:.3} s)", ps.wall_s, plain.wall_s);

    out.set("core.dataset.build_s", ps.build_s, 1);
    common_layers(&mut out, &tr);
    out.set("store.load_s", ps.load_s, 1);
    out.set("store.decode_s", lat.iter().sum::<f64>() * 1e-3, lat.len() as u64);
    out.set("runtime.efficiency", plain.cpu_s / (plain.wall_s * host::nproc() as f64), 1);
    out.set("latency.p99_ms", quantile(&plain_lat, 0.99), plain_lat.len() as u64);
    out.set("trace.overhead_wall_s", ps.wall_s - plain.wall_s, 2);
    out.set(
        "trace.overhead_p99_ms",
        quantile(&lat, 0.99) - quantile(&plain_lat, 0.99),
        (lat.len() + plain_lat.len()) as u64,
    );
    Ok(out)
}
