//! The on-disk dataset: a pack directory of binary graph shards, binary
//! region tables and a JSON meta. `irnuma dataset --out <dir>` writes one;
//! `train`/`predict --dataset <dir>` read it back.
//!
//! A pack directory holds four kinds of files:
//!
//! - `shard-NNNN.bin` — `irnuma_store::shard` files of kind `graph-shard`;
//!   each record is `[u32 region][u32 sequence]` followed by one
//!   `irnuma_nn::binfmt` graph (CSR/CSC adjacency embedded, so streamed
//!   training never rebuilds it).
//! - `regions.bin` — one checksummed record per region with its float
//!   tables (config sweep, dynamic features, default time). These dominate
//!   the non-graph bytes of a dataset, so they live in the same binary
//!   record format as the graphs instead of bloating the JSON meta.
//! - `meta.json` — everything about the dataset *except* the graphs and
//!   the per-region float tables ([`PackedMeta`]): machine, sequences,
//!   configs, label set. Small, human-inspectable, store-framed.
//! - `manifest.json` — the shard list with whole-file checksums
//!   ([`irnuma_store::shard::ShardManifest`]). Written **last**, after every
//!   shard and the meta: an interrupted pack has no manifest and is simply
//!   not a pack, so the atomicity of the whole directory reduces to the
//!   atomicity of one `irnuma_store` write.
//!
//! Sharded builds ([`build_packed_dataset`]) run the in-memory build's
//! Steps A–C driver group by group and keep only one region-group's graphs
//! resident: survivors are encoded into the group's shard and dropped before
//! the next group builds, so peak memory is bounded by the group size, not
//! the corpus.
//!
//! Every file is untrusted on the way back in. Frames, record checksums and
//! the graph decoder catch damaged bytes; [`read_meta`] additionally checks
//! the meta's tables against each other, so intact-looking but inconsistent
//! data is [`io::ErrorKind::InvalidData`] before anything indexes by it.

use crate::dataset::{
    build_grouped, BuildOptions, Dataset, DatasetError, DatasetParams, RegionData, SkipRecord,
};
use irnuma_nn::stream::{RecordMap, ShardStream, GRAPH_SHARD_KIND, RECORD_PREFIX};
use irnuma_nn::{decode_graph, encode_graph, GraphData};
use irnuma_passes::FlagSequence;
use irnuma_sim::{Config, Machine, MicroArch};
use irnuma_store::shard::{parse_shard, ShardEntry, ShardManifest, ShardWriter, MANIFEST_FILE};
use irnuma_store::{corruption, invalid};
use irnuma_workloads::InputSize;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// File name of the dataset meta inside a pack directory.
pub const META_FILE: &str = "meta.json";

/// File name of the per-region float tables inside a pack directory.
pub const REGIONS_FILE: &str = "regions.bin";

const META_KIND: &str = "dataset-meta";
const REGION_TABLE_KIND: &str = "region-tables";

/// One region's identity in the meta; its float tables (sweep, dynamic
/// features, default time) live as the matching record of `regions.bin`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedRegion {
    pub spec: irnuma_workloads::RegionSpec,
    /// Graphs this region contributed (one per flag sequence).
    pub graph_count: usize,
}

/// The pack's dataset-level state: a [`Dataset`] with graphs externalized
/// to the binary shards and the per-region float tables to `regions.bin`
/// (whose [`ShardEntry`] is carried here so loads can verify it).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PackedMeta {
    pub machine: Machine,
    pub size: InputSize,
    pub sequences: Vec<FlagSequence>,
    pub configs: Vec<Config>,
    pub regions: Vec<PackedRegion>,
    pub region_tables: ShardEntry,
    pub chosen_configs: Vec<usize>,
    pub labels: Vec<usize>,
}

impl PackedMeta {
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        irnuma_store::save_json(&dir.join(META_FILE), META_KIND, self)
    }

    /// The cross-table invariants every reader indexes by: at least one flag
    /// sequence (training subsamples them), one label per region, labels
    /// inside the label set, label configs inside the config space, one
    /// graph per (region, sequence), and a followable `regions.bin` entry.
    fn check(&self) -> io::Result<()> {
        if self.sequences.is_empty() {
            return Err(invalid("dataset has no flag sequences"));
        }
        if self.labels.len() != self.regions.len() {
            return Err(invalid(format!(
                "meta lists {} labels for {} regions",
                self.labels.len(),
                self.regions.len()
            )));
        }
        if let Some(l) = self.labels.iter().find(|&&l| l >= self.chosen_configs.len()) {
            return Err(invalid(format!(
                "label {l} out of range for {} label configs",
                self.chosen_configs.len()
            )));
        }
        if let Some(c) = self.chosen_configs.iter().find(|&&c| c >= self.configs.len()) {
            return Err(invalid(format!(
                "label config {c} out of range for {} configs",
                self.configs.len()
            )));
        }
        if let Some((i, r)) =
            self.regions.iter().enumerate().find(|(_, r)| r.graph_count != self.sequences.len())
        {
            return Err(invalid(format!(
                "region {i} lists {} graphs for {} flag sequences",
                r.graph_count,
                self.sequences.len()
            )));
        }
        self.region_tables.validate()
    }
}

/// Load a pack directory's meta (no graphs touched) and check its tables
/// against each other. A path without a manifest is not a pack and is
/// refused by name; a meta that fails the checks is
/// [`io::ErrorKind::InvalidData`].
pub fn read_meta(dir: &Path) -> io::Result<PackedMeta> {
    if !ShardManifest::exists(dir) {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "`{}` is not a pack directory (no {MANIFEST_FILE}); \
                 write one with `irnuma dataset --out <dir>`",
                dir.display()
            ),
        ));
    }
    let meta: PackedMeta = irnuma_store::load_json(&dir.join(META_FILE), META_KIND)?;
    meta.check()?;
    Ok(meta)
}

/// Read a file the pack lists (a shard in the manifest, `regions.bin` in
/// the meta) and gate it against its entry's length. A listed file that is
/// missing is [`io::ErrorKind::InvalidData`]: the pack contradicts itself.
/// Byte integrity is left to the per-record checksums [`parse_shard`]
/// verifies, so each payload byte is hashed once on this hot path; the
/// whole-file checksum stays re-derivable via [`ShardManifest::verify`]
/// (`irnuma dataset info --verify`).
fn read_listed(dir: &Path, entry: &ShardEntry) -> io::Result<Vec<u8>> {
    let bytes = std::fs::read(dir.join(&entry.file)).map_err(|e| {
        let kind = match e.kind() {
            io::ErrorKind::NotFound => io::ErrorKind::InvalidData,
            kind => kind,
        };
        io::Error::new(kind, format!("reading `{}` listed in the pack: {e}", entry.file))
    })?;
    if bytes.len() as u64 != entry.bytes {
        return Err(corruption(format!(
            "`{}` is {} bytes, the pack lists {}",
            entry.file,
            bytes.len(),
            entry.bytes
        )));
    }
    Ok(bytes)
}

/// What [`pack_dataset`] wrote.
#[derive(Debug, Clone, Copy)]
pub struct PackSummary {
    pub shards: usize,
    pub graphs: usize,
    pub bytes: u64,
}

/// Encode one region's float tables as a `regions.bin` record:
/// `[u32 sweep_len][f64 sweep…][u32 dyn_len][f32 dyn…][f64 default_time]`,
/// all little-endian.
fn encode_region_tables(sweep: &[f64], dynamic: &[f32], default_time: f64, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(sweep.len() as u32).to_le_bytes());
    for v in sweep {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(dynamic.len() as u32).to_le_bytes());
    for v in dynamic {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&default_time.to_le_bytes());
}

/// One region's decoded float tables: `(sweep, dynamic_features,
/// default_time)`.
type RegionTables = (Vec<f64>, Vec<f32>, f64);

fn decode_region_tables(rec: &[u8]) -> io::Result<RegionTables> {
    fn take<'a>(rec: &'a [u8], at: &mut usize, n: usize) -> io::Result<&'a [u8]> {
        let end = at
            .checked_add(n)
            .filter(|&e| e <= rec.len())
            .ok_or_else(|| corruption("regions.bin record truncated".to_string()))?;
        let s = &rec[*at..end];
        *at = end;
        Ok(s)
    }
    let overflow = || corruption("regions.bin record length overflow".to_string());
    let mut at = 0usize;
    let sweep_len = u32::from_le_bytes(take(rec, &mut at, 4)?.try_into().unwrap()) as usize;
    let sweep = take(rec, &mut at, sweep_len.checked_mul(8).ok_or_else(overflow)?)?
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let dyn_len = u32::from_le_bytes(take(rec, &mut at, 4)?.try_into().unwrap()) as usize;
    let dynamic = take(rec, &mut at, dyn_len.checked_mul(4).ok_or_else(overflow)?)?
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let default_time = f64::from_le_bytes(take(rec, &mut at, 8)?.try_into().unwrap());
    if at != rec.len() {
        return Err(invalid(format!("regions.bin record has {} trailing bytes", rec.len() - at)));
    }
    Ok((sweep, dynamic, default_time))
}

/// Start a graph-shard record in `out`: the `[u32 region][u32 sequence]`
/// prefix, which the encoded graph follows.
fn start_record(region: usize, sequence: usize, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&(region as u32).to_le_bytes());
    out.extend_from_slice(&(sequence as u32).to_le_bytes());
}

/// Write `writer` as the manifest's next `shard-NNNN.bin`.
fn finish_shard(writer: ShardWriter, dir: &Path, manifest: &mut ShardManifest) -> io::Result<()> {
    let file = format!("shard-{:04}.bin", manifest.entries.len());
    manifest.entries.push(writer.finish(dir, &file)?);
    Ok(())
}

/// Write everything of a pack but the graph shards and the manifest:
/// `regions.bin` from the regions' float tables, then the meta, with
/// `graph_counts` giving each region's record count.
fn save_tables_and_meta(
    ds: &Dataset,
    graph_counts: impl Iterator<Item = usize>,
    dir: &Path,
) -> io::Result<()> {
    let mut writer = ShardWriter::new(REGION_TABLE_KIND);
    let mut rec = Vec::new();
    for r in &ds.regions {
        encode_region_tables(&r.sweep, &r.dynamic_features, r.default_time, &mut rec);
        writer.push(&rec);
    }
    let region_tables = writer.finish(dir, REGIONS_FILE)?;
    let meta = PackedMeta {
        machine: ds.machine.clone(),
        size: ds.size,
        sequences: ds.sequences.clone(),
        configs: ds.configs.clone(),
        regions: ds
            .regions
            .iter()
            .zip(graph_counts)
            .map(|(r, graph_count)| PackedRegion { spec: r.spec.clone(), graph_count })
            .collect(),
        region_tables,
        chosen_configs: ds.chosen_configs.clone(),
        labels: ds.labels.clone(),
    };
    meta.save(dir)
}

/// Read and verify `regions.bin` against its meta: length gate, per-record
/// checksums via [`parse_shard`], one record per region, and one sweep time
/// per config.
fn read_region_tables(dir: &Path, meta: &PackedMeta) -> io::Result<Vec<RegionTables>> {
    let entry = &meta.region_tables;
    let bytes = read_listed(dir, entry)?;
    let ranges = parse_shard(REGION_TABLE_KIND, &bytes)?;
    if ranges.len() != meta.regions.len() {
        return Err(invalid(format!(
            "`{}` holds {} region records, meta lists {} regions",
            entry.file,
            ranges.len(),
            meta.regions.len()
        )));
    }
    let tables: Vec<RegionTables> =
        ranges.into_iter().map(|r| decode_region_tables(&bytes[r])).collect::<Result<_, _>>()?;
    if let Some((i, (sweep, ..))) =
        tables.iter().enumerate().find(|(_, (sweep, ..))| sweep.len() != meta.configs.len())
    {
        return Err(invalid(format!(
            "region {i} sweeps {} configs, meta lists {}",
            sweep.len(),
            meta.configs.len()
        )));
    }
    Ok(tables)
}

/// Pack an in-memory [`Dataset`] into `dir`: binary graph shards of
/// `shard_graphs` records each, the meta, and — last — the manifest.
pub fn pack_dataset(ds: &Dataset, dir: &Path, shard_graphs: usize) -> io::Result<PackSummary> {
    let span = irnuma_obs::span!("dataset.pack", regions = ds.regions.len());
    let _ = &span;
    let mut manifest = ShardManifest::default();
    let mut writer = ShardWriter::new(GRAPH_SHARD_KIND);
    let mut rec = Vec::new();
    let mut graphs = 0usize;
    for (ri, region) in ds.regions.iter().enumerate() {
        for (si, g) in region.graphs.iter().enumerate() {
            start_record(ri, si, &mut rec);
            encode_graph(g, &mut rec);
            writer.push(&rec);
            graphs += 1;
            if writer.records() >= shard_graphs.max(1) {
                let full = std::mem::replace(&mut writer, ShardWriter::new(GRAPH_SHARD_KIND));
                finish_shard(full, dir, &mut manifest)?;
            }
        }
    }
    if !writer.is_empty() {
        finish_shard(writer, dir, &mut manifest)?;
    }

    save_tables_and_meta(ds, ds.regions.iter().map(|r| r.graphs.len()), dir)?;
    let bytes = manifest.total_bytes();
    manifest.save(dir)?; // the commit point: no manifest, no pack
    Ok(PackSummary { shards: manifest.entries.len(), graphs, bytes })
}

/// Load a whole pack back into an in-memory [`Dataset`] (`predict` and
/// evaluation take a resident dataset). Every record is checksum-verified;
/// a record for an unknown `(region, sequence)`, a duplicate, a missing
/// graph, or a graph with a token outside the vocabulary is
/// [`io::ErrorKind::InvalidData`].
pub fn load_packed(dir: &Path) -> io::Result<Dataset> {
    let meta = read_meta(dir)?;
    let manifest = ShardManifest::load(dir)?;
    let tables = read_region_tables(dir, &meta)?;
    let mut regions: Vec<RegionData> = meta
        .regions
        .iter()
        .zip(tables)
        .map(|(p, (sweep, dynamic_features, default_time))| RegionData {
            spec: p.spec.clone(),
            graphs: (0..p.graph_count)
                .map(|_| GraphData::from_parts(Vec::new(), Default::default(), Default::default()))
                .collect(),
            sweep,
            default_time,
            dynamic_features,
        })
        .collect();
    let mut filled: Vec<Vec<bool>> =
        meta.regions.iter().map(|p| vec![false; p.graph_count]).collect();

    let vocab_size = irnuma_graph::Vocab::full().len();
    for entry in &manifest.entries {
        let bytes = read_listed(dir, entry)?;
        for range in parse_shard(GRAPH_SHARD_KIND, &bytes)? {
            let rec = &bytes[range];
            if rec.len() < RECORD_PREFIX {
                return Err(corruption(format!(
                    "shard `{}`: record too short for its (region, sequence) prefix",
                    entry.file
                )));
            }
            let r = u32::from_le_bytes(rec[..4].try_into().unwrap()) as usize;
            let s = u32::from_le_bytes(rec[4..8].try_into().unwrap()) as usize;
            let slot = filled.get_mut(r).and_then(|f| f.get_mut(s)).ok_or_else(|| {
                invalid(format!(
                    "shard `{}`: record for unknown (region {r}, sequence {s})",
                    entry.file
                ))
            })?;
            if *slot {
                return Err(invalid(format!(
                    "shard `{}`: duplicate record for (region {r}, sequence {s})",
                    entry.file
                )));
            }
            let g = decode_graph(&rec[RECORD_PREFIX..])?;
            // Models embed `Vocab::full()`, so an out-of-vocabulary token
            // would index past the embedding table.
            g.validate(vocab_size).map_err(|e| {
                invalid(format!("shard `{}`: (region {r}, sequence {s}): {e}", entry.file))
            })?;
            regions[r].graphs[s] = g;
            *slot = true;
        }
    }
    for (r, region_filled) in filled.iter().enumerate() {
        if let Some(s) = region_filled.iter().position(|&f| !f) {
            return Err(invalid(format!(
                "pack is missing the graph for (region {r}, sequence {s})"
            )));
        }
    }

    Ok(Dataset {
        machine: meta.machine,
        size: meta.size,
        sequences: meta.sequences,
        configs: meta.configs,
        regions,
        chosen_configs: meta.chosen_configs,
        labels: meta.labels,
    })
}

/// Open a streaming source over a pack: records of sequences in
/// `train_seqs` (indices into `meta.sequences`) are labeled with their
/// region's class; everything else is filtered out at decode time.
pub fn open_stream(dir: &Path, meta: &PackedMeta, train_seqs: &[usize]) -> io::Result<ShardStream> {
    let mut allow = vec![false; meta.sequences.len()];
    for &s in train_seqs {
        if let Some(a) = allow.get_mut(s) {
            *a = true;
        }
    }
    let labels = meta.labels.clone();
    let map: RecordMap = Box::new(move |region, seq| {
        if !allow.get(seq as usize).copied().unwrap_or(false) {
            return None;
        }
        labels.get(region as usize).copied()
    });
    ShardStream::open(dir, map)
}

/// A sharded build's outcome summary.
#[derive(Debug, Clone)]
pub struct PackedBuild {
    pub regions: usize,
    /// Graph records written: one per (region, flag sequence).
    pub graphs: usize,
    /// Distinct final IR modules, summed over regions: how many compiled
    /// forms the flag sequences reached.
    pub distinct_modules: usize,
    /// Distinct graphs, summed over regions (at most `distinct_modules`:
    /// different modules can map to one graph).
    pub distinct_graphs: usize,
    pub shards: usize,
    pub label_coverage: f64,
    pub skips: Vec<SkipRecord>,
}

/// Build the dataset straight into a pack directory, one shard per group
/// of `shard_regions` regions. Groups build in sequence through the same
/// Steps A–C driver as [`crate::dataset::build_dataset_report`], with its
/// fault isolation (catch_unwind, [`SkipRecord`]s, the `dataset.skipped`
/// counter). Each group's surviving graphs are encoded into its shard and
/// dropped before the next group starts, so peak memory is one group, not
/// the corpus. The manifest is
/// written last — a crashed build leaves no loadable pack.
pub fn build_packed_dataset(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
    dir: &Path,
    shard_regions: usize,
) -> Result<PackedBuild, DatasetError> {
    let mut manifest = ShardManifest::default();
    let (mut graphs, mut distinct_modules, mut distinct_graphs) = (0, 0, 0);
    let mut rec = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let build = build_grouped(arch, params, opts, shard_regions, |first, group| {
        let mut writer = ShardWriter::new(GRAPH_SHARD_KIND);
        for (i, r) in group.iter_mut().enumerate() {
            // Each distinct graph is encoded once; every sequence's record
            // repeats its payload under the record's own prefix.
            payloads.resize_with(r.forms.len(), Vec::new);
            for (g, p) in r.forms.iter().zip(&mut payloads) {
                p.clear();
                encode_graph(g, p);
            }
            for (seq, &f) in r.form_of.iter().enumerate() {
                start_record(first + i, seq, &mut rec);
                rec.extend_from_slice(&payloads[f as usize]);
                writer.push(&rec);
            }
            graphs += r.form_of.len();
            distinct_modules += r.modules;
            distinct_graphs += r.forms.len();
            // The group is this build's high-water mark, not the corpus.
            r.forms = Vec::new();
        }
        if !writer.is_empty() {
            finish_shard(writer, dir, &mut manifest)?;
        }
        Ok(())
    })?;

    let ds = &build.dataset;
    save_tables_and_meta(ds, std::iter::repeat(ds.sequences.len()), dir)?;
    let shards = manifest.entries.len();
    manifest.save(dir)?; // the commit point
    Ok(PackedBuild {
        regions: ds.regions.len(),
        graphs,
        distinct_modules,
        distinct_graphs,
        shards,
        label_coverage: ds.label_coverage(),
        skips: build.skips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{build_dataset_report, BuildOptions};
    use irnuma_nn::stream::ShardSource;
    use proptest::prelude::*;
    use std::fs;
    use std::path::PathBuf;
    use std::sync::OnceLock;

    fn tdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("irnuma-pack-test").join(name);
        fs::remove_dir_all(&d).ok();
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn tiny() -> DatasetParams {
        DatasetParams { num_sequences: 2, calls: 2, num_labels: 3, ..Default::default() }
    }

    /// The tiny dataset, built once for every test that only packs it.
    fn tiny_ds() -> &'static Dataset {
        static DS: OnceLock<Dataset> = OnceLock::new();
        DS.get_or_init(|| crate::dataset::build_dataset(MicroArch::Skylake, &tiny()))
    }

    fn assert_datasets_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.chosen_configs, b.chosen_configs);
        assert_eq!(a.sequences.len(), b.sequences.len());
        assert_eq!(a.configs.len(), b.configs.len());
        assert_eq!(a.regions.len(), b.regions.len());
        for (x, y) in a.regions.iter().zip(&b.regions) {
            assert_eq!(x.spec.name, y.spec.name);
            assert_eq!(x.sweep, y.sweep);
            assert_eq!(x.default_time, y.default_time);
            assert_eq!(x.dynamic_features, y.dynamic_features);
            assert_eq!(x.graphs.len(), y.graphs.len());
            for (g, h) in x.graphs.iter().zip(&y.graphs) {
                assert_eq!(g.node_text, h.node_text);
                assert_eq!(g.edges, h.edges);
                assert_eq!(g.norm, h.norm);
            }
        }
    }

    #[test]
    fn pack_then_load_round_trips_bit_identically() {
        let ds = tiny_ds();
        let d = tdir("roundtrip");
        let summary = pack_dataset(ds, &d, 16).unwrap();
        assert_eq!(summary.graphs, 56 * 2);
        assert_eq!(summary.shards, summary.graphs.div_ceil(16));
        ShardManifest::load(&d).unwrap().verify(&d).unwrap();

        let back = load_packed(&d).unwrap();
        assert_datasets_identical(ds, &back);
    }

    #[test]
    fn sharded_build_matches_the_in_memory_build() {
        let d = tdir("build");
        let opts = BuildOptions::default();
        let built = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap();
        assert_eq!(built.regions, 56);
        assert_eq!(built.graphs, 56 * 2);
        assert_eq!(built.shards, 56usize.div_ceil(10));
        assert!(built.skips.is_empty());
        assert!(built.label_coverage > 0.9, "coverage {}", built.label_coverage);

        let from_pack = load_packed(&d).unwrap();
        let in_memory = build_dataset_report(MicroArch::Skylake, &tiny(), &opts).unwrap().dataset;
        assert_datasets_identical(&in_memory, &from_pack);
    }

    #[test]
    fn poisoned_region_is_skipped_in_a_sharded_build() {
        let d = tdir("poisoned");
        let opts = BuildOptions { fault: Some("cg.spmv".into()), ..Default::default() };
        let built = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap();
        assert_eq!(built.regions, 55);
        assert_eq!(built.skips.len(), 1);
        assert_eq!(built.skips[0].region, "cg.spmv");
        let back = load_packed(&d).unwrap();
        assert_eq!(back.regions.len(), 55);
        assert!(back.regions.iter().all(|r| r.spec.name != "cg.spmv"));
        assert_eq!(back.labels.len(), 55);
    }

    #[test]
    fn strict_sharded_build_fails_fast_and_leaves_no_manifest() {
        let d = tdir("strict");
        let opts = BuildOptions { strict: true, fault: Some("cg.spmv".into()) };
        let err = build_packed_dataset(MicroArch::Skylake, &tiny(), &opts, &d, 10).unwrap_err();
        assert!(matches!(err, DatasetError::RegionFailed(_)), "{err}");
        assert!(!ShardManifest::exists(&d), "aborted build must not look like a pack");
    }

    #[test]
    fn a_path_without_a_manifest_is_refused_by_name() {
        let d = tdir("not-a-pack");
        let file = d.join("ds.json");
        fs::write(&file, b"{}").unwrap();
        for path in [&d, &file] {
            for err in [read_meta(path).unwrap_err(), load_packed(path).unwrap_err()] {
                assert!(err.to_string().contains("not a pack directory"), "{err}");
                assert!(err.to_string().contains(&*path.to_string_lossy()), "{err}");
            }
        }
    }

    /// Pack `ds` into a fresh `name` directory, then apply `edit` to its
    /// meta (read back unchecked, saved with a valid frame).
    fn pack_with_meta(name: &str, ds: &Dataset, edit: impl FnOnce(&mut PackedMeta)) -> PathBuf {
        let d = tdir(name);
        pack_dataset(ds, &d, 16).unwrap();
        let mut meta: PackedMeta = irnuma_store::load_json(&d.join(META_FILE), META_KIND).unwrap();
        edit(&mut meta);
        meta.save(&d).unwrap();
        d
    }

    /// `read_meta` and `load_packed` both refuse the pack with `InvalidData`
    /// naming `what`.
    fn assert_meta_refused(d: &Path, what: &str) {
        for err in [read_meta(d).unwrap_err(), load_packed(d).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains(what), "{err}");
        }
    }

    #[test]
    fn datasets_without_flag_sequences_fail_load_with_typed_errors() {
        // What `irnuma dataset --seqs 0` used to write: every region, no
        // sequences, no graphs. Training on it panicked in
        // `training_sequence_ids`; the pack must now refuse it at load.
        let mut ds = tiny_ds().clone();
        ds.sequences.clear();
        ds.regions.iter_mut().for_each(|r| r.graphs.clear());
        let d = pack_with_meta("no-seqs", &ds, |_| {});
        assert_meta_refused(&d, "no flag sequences");
    }

    #[test]
    fn meta_with_fewer_labels_than_regions_is_invalid_data() {
        let d = pack_with_meta("labels-short", tiny_ds(), |m| {
            m.labels.pop();
        });
        assert_meta_refused(&d, "55 labels for 56 regions");
    }

    #[test]
    fn meta_label_outside_the_label_set_is_invalid_data() {
        let d = pack_with_meta("label-range", tiny_ds(), |m| m.labels[0] = 99);
        assert_meta_refused(&d, "label 99 out of range for 3 label configs");
    }

    #[test]
    fn meta_label_config_outside_the_config_space_is_invalid_data() {
        let d =
            pack_with_meta("config-range", tiny_ds(), |m| m.chosen_configs[1] = m.configs.len());
        assert_meta_refused(&d, "label config 288 out of range for 288 configs");
    }

    #[test]
    fn meta_graph_count_other_than_the_sequence_count_is_invalid_data() {
        // A huge count is refused before `load_packed` sizes its graph
        // slots by it.
        for (name, count) in [("graph-count", 1), ("graph-count-huge", usize::MAX)] {
            let d = pack_with_meta(name, tiny_ds(), |m| m.regions[5].graph_count = count);
            assert_meta_refused(&d, &format!("region 5 lists {count} graphs for 2 flag sequences"));
        }
    }

    #[test]
    fn region_sweep_of_the_wrong_length_is_invalid_data() {
        let mut ds = tiny_ds().clone();
        ds.regions[3].sweep.pop();
        let d = pack_with_meta("sweep-len", &ds, |_| {});
        read_meta(&d).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("region 3 sweeps 287 configs, meta lists 288"), "{err}");
    }

    #[test]
    fn corrupt_or_missing_shards_fail_load_with_typed_errors() {
        let ds = tiny_ds();
        let d = tdir("corrupt");
        pack_dataset(ds, &d, 16).unwrap();

        // Truncated shard.
        let shard = d.join("shard-0000.bin");
        let bytes = fs::read(&shard).unwrap();
        fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Bit-flipped record.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 9;
        flipped[last] ^= 0x08;
        fs::write(&shard, &flipped).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");

        // Missing shard still listed in the manifest.
        fs::remove_file(&shard).unwrap();
        let err = load_packed(&d).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard-0000.bin"), "{err}");
        // The streaming opener rejects it up front too.
        let meta = read_meta(&d).unwrap();
        let err = open_stream(&d, &meta, &[0, 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // Damaged region-tables sidecar: truncation trips the length gate,
        // a bit flip trips the per-record checksum.
        let d2 = tdir("corrupt-tables");
        pack_dataset(ds, &d2, 16).unwrap();
        let tables = d2.join(REGIONS_FILE);
        let tbytes = fs::read(&tables).unwrap();
        fs::write(&tables, &tbytes[..tbytes.len() - 3]).unwrap();
        let err = load_packed(&d2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("regions.bin"), "{err}");
        let mut tflipped = tbytes.clone();
        let mid = tflipped.len() / 2;
        tflipped[mid] ^= 0x01;
        fs::write(&tables, &tflipped).unwrap();
        let err = load_packed(&d2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn stream_labels_come_from_the_region_label_table() {
        let ds = tiny_ds();
        let d = tdir("stream-labels");
        pack_dataset(ds, &d, 32).unwrap();
        let meta = read_meta(&d).unwrap();
        let mut stream = open_stream(&d, &meta, &[0]).unwrap(); // sequence 0 only
        let n = stream.num_shards();
        let order: Vec<usize> = (0..n).collect();
        stream.begin_epoch(&order);
        let mut labels_seen = Vec::new();
        for _ in 0..n {
            let b = stream.next_shard().unwrap();
            labels_seen.extend_from_slice(&b.labels);
            stream.recycle(b);
        }
        // One record per region survives the sequence filter, in region
        // order (records were packed region-major).
        assert_eq!(labels_seen, meta.labels);
    }

    /// The file of a pack a mutation case damages.
    #[derive(Debug, Clone, Copy)]
    enum Target {
        Meta,
        Regions,
        Shard,
        Manifest,
    }

    /// One byte-level mutation: flip bit `bit` of the byte at `at`, or
    /// truncate to `at` bytes (both taken modulo the length).
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        Flip { at: usize, bit: u8 },
        Truncate { at: usize },
    }

    impl Mutation {
        fn apply(self, bytes: &mut Vec<u8>) {
            match self {
                Mutation::Flip { at, bit } if !bytes.is_empty() => {
                    let i = at % bytes.len();
                    bytes[i] ^= 1 << bit;
                }
                Mutation::Flip { .. } => {}
                Mutation::Truncate { at } => bytes.truncate(at % (bytes.len() + 1)),
            }
        }
    }

    /// A small three-shard pack of four regions: the pristine copy every
    /// mutation case starts from.
    fn pristine_pack() -> &'static PathBuf {
        static PACK: OnceLock<PathBuf> = OnceLock::new();
        PACK.get_or_init(|| {
            let mut ds = tiny_ds().clone();
            ds.regions.truncate(4);
            ds.labels.truncate(4);
            let d = tdir("mutation-pristine");
            pack_dataset(&ds, &d, 3).unwrap();
            d
        })
    }

    /// Replace a store-framed file's payload with `mutate(payload)` under a
    /// fresh, valid frame of the same kind.
    fn reframe(path: &Path, mutate: Mutation) {
        let bytes = fs::read(path).unwrap();
        let header =
            String::from_utf8_lossy(&bytes[..bytes.iter().position(|&b| b == b'\n').unwrap()])
                .into_owned();
        let kind = header.split(' ').find_map(|f| f.strip_prefix("kind=")).unwrap().to_string();
        let mut payload = irnuma_store::parse_frame(&kind, &bytes).unwrap().to_vec();
        mutate.apply(&mut payload);
        fs::write(path, irnuma_store::frame(&kind, &payload)).unwrap();
    }

    /// Rewrite one record of the shard-format file `entry` names with
    /// valid record checksums, returning the file's new entry.
    fn rewrite_record(
        dir: &Path,
        entry: &ShardEntry,
        kind: &str,
        record: usize,
        mutate: Mutation,
    ) -> ShardEntry {
        let bytes = fs::read(dir.join(&entry.file)).unwrap();
        let ranges = parse_shard(kind, &bytes).unwrap();
        let target = record % ranges.len();
        let mut writer = ShardWriter::new(kind);
        for (i, r) in ranges.into_iter().enumerate() {
            let mut rec = bytes[r].to_vec();
            if i == target {
                mutate.apply(&mut rec);
            }
            writer.push(&rec);
        }
        writer.finish(dir, &entry.file).unwrap()
    }

    /// Damage `target` in a copy of the pristine pack. With `valid_checksums`
    /// the damage goes inside the frame or record and every checksum is
    /// recomputed, so the decoders behind the checksums see it.
    fn mutated_pack(
        target: Target,
        mutation: Mutation,
        valid_checksums: bool,
        record: usize,
    ) -> PathBuf {
        let d = tdir("mutation-case");
        for e in fs::read_dir(pristine_pack()).unwrap() {
            let e = e.unwrap();
            fs::copy(e.path(), d.join(e.file_name())).unwrap();
        }
        let mut meta: PackedMeta = irnuma_store::load_json(&d.join(META_FILE), META_KIND).unwrap();
        let mut manifest = ShardManifest::load(&d).unwrap();
        let shard = record % manifest.entries.len();
        let file = match target {
            Target::Meta => META_FILE.to_string(),
            Target::Regions => REGIONS_FILE.to_string(),
            Target::Shard => manifest.entries[shard].file.clone(),
            Target::Manifest => MANIFEST_FILE.to_string(),
        };
        match (target, valid_checksums) {
            (_, false) => {
                let mut bytes = fs::read(d.join(&file)).unwrap();
                mutation.apply(&mut bytes);
                fs::write(d.join(&file), bytes).unwrap();
            }
            (Target::Meta | Target::Manifest, true) => reframe(&d.join(&file), mutation),
            (Target::Regions, true) => {
                meta.region_tables =
                    rewrite_record(&d, &meta.region_tables, REGION_TABLE_KIND, record, mutation);
                meta.save(&d).unwrap();
            }
            (Target::Shard, true) => {
                manifest.entries[shard] = rewrite_record(
                    &d,
                    &manifest.entries[shard],
                    GRAPH_SHARD_KIND,
                    record,
                    mutation,
                );
                manifest.save(&d).unwrap();
            }
        }
        d
    }

    /// Read the meta, open a stream over every sequence and run one epoch.
    fn stream_one_epoch(dir: &Path) -> io::Result<usize> {
        let meta = read_meta(dir)?;
        let all: Vec<usize> = (0..meta.sequences.len()).collect();
        let mut stream = open_stream(dir, &meta, &all)?;
        let order: Vec<usize> = (0..stream.num_shards()).collect();
        stream.begin_epoch(&order);
        let mut graphs = 0;
        for _ in 0..order.len() {
            let batch = stream.next_shard()?;
            graphs += batch.len();
            stream.recycle(batch);
        }
        Ok(graphs)
    }

    fn ok_or_invalid<T>(what: &str, r: io::Result<T>) -> Result<(), String> {
        match r {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(e) => Err(format!("{what}: {:?} error instead of InvalidData: {e}", e.kind())),
        }
    }

    fn target() -> impl Strategy<Value = Target> {
        prop::sample::select(vec![Target::Meta, Target::Regions, Target::Shard, Target::Manifest])
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            (0usize..1 << 20, 0u8..8).prop_map(|(at, bit)| Mutation::Flip { at, bit }),
            (0usize..1 << 20).prop_map(|at| Mutation::Truncate { at }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Damage anywhere in a pack, behind valid checksums or not, is
        /// `Ok` or `InvalidData` from every reader, never a panic.
        #[test]
        fn damaged_packs_load_ok_or_invalid_data(
            target in target(),
            mutation in mutation(),
            valid_checksums in prop::sample::select(vec![false, true]),
            record in 0usize..64,
        ) {
            let d = mutated_pack(target, mutation, valid_checksums, record);
            ok_or_invalid("read_meta", read_meta(&d))?;
            ok_or_invalid("load_packed", load_packed(&d))?;
            ok_or_invalid("stream epoch", stream_one_epoch(&d))?;
        }
    }

    #[test]
    fn the_pristine_pack_passes_every_reader() {
        let d = pristine_pack();
        assert_eq!(load_packed(d).unwrap().regions.len(), 4);
        assert_eq!(stream_one_epoch(d).unwrap(), 4 * 2);
    }
}
