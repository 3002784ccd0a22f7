//! Dataset construction: steps A (flag augmentation), B (region graphs) and
//! C (configuration sweep + label reduction) of the paper's workflow.
//!
//! Construction is fault-isolated: a failing (region, sequence) pair or a
//! panicking sweep no longer aborts the whole build. A failure is recorded
//! as a [`SkipRecord`] — surfaced via the `dataset.skipped` counter and the
//! returned [`DatasetBuild`] — while every other region survives. A region
//! build does no I/O and depends only on its inputs, so it is not retried:
//! a second attempt would repeat the first one's error. `--strict`
//! ([`BuildOptions::strict`]) restores fail-fast behavior.

use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_nn::GraphData;
use irnuma_passes::{sample_sequences, FlagSequence, PassManager, PassMemo, SampleParams};
use irnuma_sim::{
    config_space, default_config, simulate, sweep_region, Config, Machine, MicroArch,
};
use irnuma_workloads::{all_regions, InputSize, RegionSpec};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Dataset-construction knobs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DatasetParams {
    /// Flag sequences sampled for augmentation (the paper uses 1000).
    pub num_sequences: usize,
    /// Sampled calls per configuration during the sweep (paper: 10).
    pub calls: u32,
    /// Label-set size (13 by default, as in the paper; 6 and 2 in Fig. 6).
    pub num_labels: usize,
    pub size: InputSize,
    pub seed: u64,
}

impl Default for DatasetParams {
    fn default() -> Self {
        DatasetParams {
            num_sequences: 48,
            calls: 6,
            num_labels: 13,
            size: InputSize::Size1,
            seed: 42,
        }
    }
}

/// Everything known about one region after steps A–C.
#[derive(Debug, Clone)]
pub struct RegionData {
    pub spec: RegionSpec,
    /// One graph per flag sequence (aligned with [`Dataset::sequences`]).
    pub graphs: Vec<GraphData>,
    /// Mean execution time per configuration, in [`Dataset::configs`] order.
    pub sweep: Vec<f64>,
    /// Time under the machine default (the speedup baseline).
    pub default_time: f64,
    /// Dynamic features at the default configuration: the counter vector
    /// the dynamic baseline trains on (package power, L3 miss ratio).
    pub dynamic_features: Vec<f32>,
}

impl RegionData {
    /// Best time over the full space (the "full exploration" bar).
    pub fn full_best_time(&self) -> f64 {
        self.sweep.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// The complete experiment dataset for one machine. On disk it is a pack
/// directory ([`crate::dataset_pack`]).
#[derive(Debug, Clone)]
pub struct Dataset {
    pub machine: Machine,
    pub size: InputSize,
    pub sequences: Vec<FlagSequence>,
    pub configs: Vec<Config>,
    pub regions: Vec<RegionData>,
    /// Indices (into `configs`) of the reduced label set, selection order.
    pub chosen_configs: Vec<usize>,
    /// Per-region class label: index into `chosen_configs`.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Time of `region` under label class `label`.
    pub fn label_time(&self, region: usize, label: usize) -> f64 {
        self.regions[region].sweep[self.chosen_configs[label]]
    }

    /// Best achievable time restricted to the label set (the "oracle" the
    /// classifiers are scored against).
    pub fn oracle_time(&self, region: usize) -> f64 {
        self.label_time(region, self.labels[region])
    }

    /// Fraction of full-space gains the label set retains (paper: ≥99% for
    /// the 13-label set).
    pub fn label_coverage(&self) -> f64 {
        let times: Vec<&[f64]> = self.regions.iter().map(|r| r.sweep.as_slice()).collect();
        let base: Vec<f64> = self.regions.iter().map(|r| r.default_time).collect();
        irnuma_ml::coverage(&times, &base, &self.chosen_configs)
    }
}

/// One recorded per-region failure from a tolerant dataset build.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipRecord {
    pub region: String,
    /// Flag-sequence id at the point of failure (pass/extract stages).
    pub sequence: Option<u32>,
    /// Pipeline stage that failed: `passes`, `extract`, `sweep`, `panic`,
    /// or `injected` (the `--fault` test hook).
    pub stage: String,
    pub error: String,
}

impl fmt::Display for SkipRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}", self.region, self.stage)?;
        if let Some(s) = self.sequence {
            write!(f, " × seq{s}")?;
        }
        write!(f, "]: {}", self.error)
    }
}

/// A tolerant build's result: the surviving dataset plus what was skipped.
#[derive(Debug, Clone)]
pub struct DatasetBuild {
    pub dataset: Dataset,
    /// One record per dropped region (empty on a fully clean build).
    pub skips: Vec<SkipRecord>,
}

/// Why a dataset build produced no dataset.
#[derive(Debug, Clone)]
pub enum DatasetError {
    /// Strict mode: the first region failure, reported fail-fast.
    RegionFailed(SkipRecord),
    /// Tolerant mode, but nothing survived to train on.
    NoRegionsSurvived { total: usize, skips: Vec<SkipRecord> },
    /// A packed build could not write its shards/manifest.
    Io(String),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::RegionFailed(s) => write!(f, "region failed (strict mode): {s}"),
            DatasetError::NoRegionsSurvived { total, skips } => {
                write!(f, "all {total} regions failed; first: ")?;
                match skips.first() {
                    Some(s) => write!(f, "{s}"),
                    None => write!(f, "<none recorded>"),
                }
            }
            DatasetError::Io(e) => write!(f, "pack I/O failed: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> DatasetError {
        DatasetError::Io(e.to_string())
    }
}

/// Build behavior orthogonal to the (persisted, `Copy`) [`DatasetParams`].
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Fail fast on the first region error instead of recording a skip.
    pub strict: bool,
    /// Fault-injection test hook: `"<region>"` makes that region fail.
    pub fault: Option<String>,
}

/// A per-region build failure (internal; becomes a [`SkipRecord`]).
struct RegionError {
    stage: &'static str,
    sequence: Option<u32>,
    error: String,
}

/// Build the dataset for a machine (steps A–C). Deterministic in
/// `params.seed`. Parallelized over regions.
///
/// Convenience wrapper over [`build_dataset_report`]: tolerant of per-region
/// failures (skips are logged and counted, the dataset is built from the
/// survivors) and panics only if *no* region survives.
pub fn build_dataset(arch: MicroArch, params: &DatasetParams) -> Dataset {
    match build_dataset_report(arch, params, &BuildOptions::default()) {
        Ok(build) => {
            for s in &build.skips {
                irnuma_obs::warn!("dataset build skipped {s}");
            }
            build.dataset
        }
        Err(e) => panic!("dataset build produced nothing usable: {e}"),
    }
}

/// Build the dataset with explicit failure handling: per-region errors
/// (pass pipeline, region extraction, sweep panics) are caught and
/// recorded as [`SkipRecord`]s while the other
/// regions proceed. With [`BuildOptions::strict`] the first failure aborts
/// the build instead.
pub fn build_dataset_report(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
) -> Result<DatasetBuild, DatasetError> {
    build_grouped(arch, params, opts, usize::MAX, |_, group| {
        for r in group {
            r.data.graphs = r.graphs();
        }
        Ok(())
    })
}

/// One region's Steps A–C output, with its graphs held once per distinct
/// graph. `data.graphs` is empty until `emit` lays the graphs out.
pub(crate) struct RegionBuild {
    pub data: RegionData,
    /// The region's distinct graphs, in order of first appearance.
    pub forms: Vec<GraphData>,
    /// Per flag sequence: its graph's index in `forms`.
    pub form_of: Vec<u32>,
    /// Distinct final IR modules the region's sequences reached.
    pub modules: usize,
}

impl RegionBuild {
    /// One graph per flag sequence: a clone of its distinct graph's handle,
    /// so sequences that reach one graph share its arrays and caches.
    pub fn graphs(&self) -> Vec<GraphData> {
        self.form_of.iter().map(|&f| self.forms[f as usize].clone()).collect()
    }
}

/// The one Steps A–C driver behind [`build_dataset_report`] and
/// [`crate::dataset_pack::build_packed_dataset`]. Regions build `group` at
/// a time, in parallel within a group, all under one `dataset.build` span.
/// Each group's survivors go, in region order, to `emit` together with the
/// index of the group's first survivor. `emit` decides where the graphs go:
/// the in-memory build lays them out per sequence in `data.graphs`, the
/// packed build writes them to a shard and keeps none resident. Strict
/// mode, skips and `NoRegionsSurvived` are handled here, and step C's label
/// reduction runs once over every survivor's sweep.
pub(crate) fn build_grouped(
    arch: MicroArch,
    params: &DatasetParams,
    opts: &BuildOptions,
    group: usize,
    mut emit: impl FnMut(usize, &mut [RegionBuild]) -> Result<(), DatasetError>,
) -> Result<DatasetBuild, DatasetError> {
    let machine = Machine::new(arch);
    let configs = config_space(&machine);
    let sequences = sample_sequences(params.num_sequences, params.seed, SampleParams::default());
    let vocab = Vocab::full();
    let specs = all_regions();
    let total = specs.len();

    let span = irnuma_obs::span!(
        "dataset.build",
        regions = total,
        sequences = sequences.len(),
        configs = configs.len()
    );
    let ctx = span.ctx();
    let mut regions: Vec<RegionData> = Vec::with_capacity(total);
    let mut skips = Vec::new();
    for specs in specs.chunks(group.max(1)) {
        let results: Vec<Result<RegionBuild, SkipRecord>> = specs
            .par_iter()
            .map(|spec| {
                build_region_tolerant(
                    spec, &machine, &configs, &sequences, &vocab, params, opts, ctx,
                )
            })
            .collect();
        let mut built = Vec::with_capacity(results.len());
        for res in results {
            match res {
                Ok(r) => built.push(r),
                Err(skip) => {
                    if opts.strict {
                        return Err(DatasetError::RegionFailed(skip));
                    }
                    irnuma_obs::counter!("dataset.skipped").inc(1);
                    skips.push(skip);
                }
            }
        }
        emit(regions.len(), &mut built)?;
        regions.extend(built.into_iter().map(|r| r.data));
    }
    if regions.is_empty() {
        return Err(DatasetError::NoRegionsSurvived { total, skips });
    }

    // Step C: reduce the space to `num_labels` representative configs.
    let times: Vec<&[f64]> = regions.iter().map(|r| r.sweep.as_slice()).collect();
    let base: Vec<f64> = regions.iter().map(|r| r.default_time).collect();
    let chosen_configs = irnuma_ml::reduce_labels(&times, &base, params.num_labels);
    let labels = irnuma_ml::labels::label_per_region(&times, &chosen_configs);

    let dataset =
        Dataset { machine, size: params.size, sequences, configs, regions, chosen_configs, labels };
    Ok(DatasetBuild { dataset, skips })
}

/// Fault-isolated build of one region: a span under `ctx`, a
/// [`catch_unwind`] around every stage, and a failure condensed into a
/// [`SkipRecord`].
#[allow(clippy::too_many_arguments)]
fn build_region_tolerant(
    spec: &RegionSpec,
    machine: &Machine,
    configs: &[Config],
    sequences: &[FlagSequence],
    vocab: &Vocab,
    params: &DatasetParams,
    opts: &BuildOptions,
    ctx: irnuma_obs::TraceContext,
) -> Result<RegionBuild, SkipRecord> {
    let _region_span = irnuma_obs::span_under!(ctx, "dataset.region", region = spec.name.as_str());
    let fault = opts.fault.as_deref().filter(|f| *f == spec.name);
    catch_unwind(AssertUnwindSafe(|| {
        build_region(spec, machine, configs, sequences, vocab, params, fault)
    }))
    .unwrap_or_else(|payload| {
        Err(RegionError { stage: "panic", sequence: None, error: panic_msg(&payload) })
    })
    .map_err(|e| SkipRecord {
        region: spec.name.clone(),
        sequence: e.sequence,
        stage: e.stage.to_string(),
        error: e.error,
    })
}

fn panic_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "region build panicked".to_string())
}

fn build_region(
    spec: &RegionSpec,
    machine: &Machine,
    configs: &[Config],
    sequences: &[FlagSequence],
    vocab: &Vocab,
    params: &DatasetParams,
    injected_fault: Option<&str>,
) -> Result<RegionBuild, RegionError> {
    if injected_fault.is_some() {
        return Err(RegionError {
            stage: "injected",
            sequence: None,
            error: "injected fault (--fault test hook)".to_string(),
        });
    }

    // Steps A+B: one graph per flag sequence, computed once per distinct
    // final module (see `region_forms`).
    let (forms, form_of, modules) = region_forms(spec, sequences, vocab)?;

    // Step C (per-region part): the sweep with default compile flags. A
    // panicking configuration fails just this region, not the whole build.
    let sweep = sweep_region(spec, machine, params.size, params.calls)
        .map_err(|error| RegionError { stage: "sweep", sequence: None, error })?;

    let def = default_config(machine);
    let def_idx = configs.iter().position(|c| *c == def).ok_or_else(|| RegionError {
        stage: "sweep",
        sequence: None,
        error: "default configuration missing from the space".to_string(),
    })?;
    let default_time = sweep[def_idx];
    let meas = simulate(&spec.name, &spec.profile, machine, &def, params.size, 0);
    let dynamic_features =
        vec![meas.counters.package_power_w as f32, meas.counters.l3_miss_ratio as f32];

    let data = RegionData {
        spec: spec.clone(),
        graphs: Vec::new(),
        sweep,
        default_time,
        dynamic_features,
    };
    Ok(RegionBuild { data, forms, form_of, modules })
}

/// Steps A+B for one region: `(forms, form_of, modules)` as in
/// [`RegionBuild`].
///
/// Every sequence runs through one [`PassMemo`], so each distinct
/// `(IR state, pass)` transition is applied once; extraction and the graph
/// build run once per distinct final module. The result equals running
/// each sequence through `PassManager::run`, `extract_region` and the graph
/// build on its own, failures included: the first failing sequence, in
/// sequence order, is reported with its stage.
fn region_forms(
    spec: &RegionSpec,
    sequences: &[FlagSequence],
    vocab: &Vocab,
) -> Result<(Vec<GraphData>, Vec<u32>, usize), RegionError> {
    let pm = PassManager::new(false);
    let mut memo = PassMemo::new(&pm, spec.module());
    let mut finals = Vec::with_capacity(sequences.len());
    let mut pass_error = None;
    {
        let mut span = irnuma_obs::span!("passes.run", sequences = sequences.len());
        for seq in sequences {
            match memo.run(&seq.passes) {
                Ok(f) => finals.push(f),
                Err(e) => {
                    pass_error = Some(RegionError {
                        stage: "passes",
                        sequence: Some(seq.id),
                        error: e.to_string(),
                    });
                    break;
                }
            }
        }
        span.field("states", memo.states());
        span.field("applied", memo.applied());
    }
    irnuma_obs::counter!("passes.applied").inc(memo.applied() as u64);
    irnuma_obs::counter!("passes.reused").inc(memo.reused() as u64);

    // The sequences before a pass failure still extract first, in order, as
    // they would one sequence at a time.
    let region_fn = spec.region_fn();
    let mut form_of_state = vec![u32::MAX; memo.states()];
    let mut forms: Vec<GraphData> = Vec::new();
    let mut form_of = Vec::with_capacity(finals.len());
    let mut modules = 0;
    for (seq, &f) in sequences.iter().zip(&finals) {
        if form_of_state[f] == u32::MAX {
            let extracted = extract_region(memo.state(f), &region_fn).map_err(|e| RegionError {
                stage: "extract",
                sequence: Some(seq.id),
                error: e.to_string(),
            })?;
            let g = GraphData::from_graph(&build_module_graph(&extracted, vocab));
            form_of_state[f] = match forms.iter().position(|h| same_graph(h, &g)) {
                Some(i) => i as u32,
                None => {
                    forms.push(g);
                    (forms.len() - 1) as u32
                }
            };
            modules += 1;
        }
        form_of.push(form_of_state[f]);
    }
    if let Some(e) = pass_error {
        return Err(e);
    }
    irnuma_obs::counter!("graph.reused").inc((sequences.len() - modules) as u64);
    Ok((forms, form_of, modules))
}

/// Whether two graphs are the same model input: equal tokens, edges and
/// norms (compared by bits).
fn same_graph(a: &GraphData, b: &GraphData) -> bool {
    let same_bits = |x: &[f32], y: &[f32]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.node_text == b.node_text
        && a.edges == b.edges
        && a.norm.iter().zip(&b.norm).all(|(x, y)| same_bits(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irnuma_ir::Module;

    fn tiny() -> DatasetParams {
        DatasetParams { num_sequences: 3, calls: 2, num_labels: 5, ..Default::default() }
    }

    #[test]
    fn dataset_has_all_regions_and_shapes() {
        let ds = build_dataset(MicroArch::Skylake, &tiny());
        assert_eq!(ds.regions.len(), 56);
        assert_eq!(ds.configs.len(), 288);
        assert_eq!(ds.sequences.len(), 3);
        assert_eq!(ds.chosen_configs.len(), 5);
        assert_eq!(ds.labels.len(), 56);
        for r in &ds.regions {
            assert_eq!(r.graphs.len(), 3);
            assert_eq!(r.sweep.len(), 288);
            assert!(r.default_time > 0.0);
            assert_eq!(r.dynamic_features.len(), 2);
        }
    }

    #[test]
    fn labels_index_into_chosen_set_and_oracle_beats_default_mostly() {
        let ds = build_dataset(MicroArch::Skylake, &tiny());
        let mut wins = 0;
        for (i, &l) in ds.labels.iter().enumerate() {
            assert!(l < ds.chosen_configs.len());
            if ds.oracle_time(i) <= ds.regions[i].default_time {
                wins += 1;
            }
        }
        assert!(wins >= 50, "label-set oracle beats default on most regions: {wins}/56");
    }

    #[test]
    fn thirteen_labels_cover_99_percent_of_gains() {
        // The paper's property (§II-C): 13 configurations retain ~99% of
        // the gains of the full space.
        let params =
            DatasetParams { num_sequences: 2, calls: 3, num_labels: 13, ..Default::default() };
        for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
            let ds = build_dataset(arch, &params);
            let cov = ds.label_coverage();
            assert!(cov > 0.97, "{arch:?}: 13-label coverage {cov}");
        }
    }

    fn tinier() -> DatasetParams {
        DatasetParams { num_sequences: 2, calls: 2, num_labels: 3, ..Default::default() }
    }

    #[test]
    fn poisoned_region_is_skipped_and_the_rest_survive() {
        let opts = BuildOptions { fault: Some("cg.spmv".into()), ..Default::default() };
        let b = build_dataset_report(MicroArch::Skylake, &tinier(), &opts).unwrap();
        assert_eq!(b.dataset.regions.len(), 55, "exactly the poisoned region is gone");
        assert!(b.dataset.regions.iter().all(|r| r.spec.name != "cg.spmv"));
        assert_eq!(b.skips.len(), 1, "exactly one skip recorded");
        let s = &b.skips[0];
        assert_eq!((s.region.as_str(), s.stage.as_str()), ("cg.spmv", "injected"));
        assert_eq!(b.dataset.labels.len(), 55);
        assert!(b.skips[0].to_string().contains("cg.spmv"));
    }

    #[test]
    fn strict_mode_fails_fast_on_a_poisoned_region() {
        let opts = BuildOptions { strict: true, fault: Some("cg.spmv".into()) };
        let err = build_dataset_report(MicroArch::Skylake, &tinier(), &opts).unwrap_err();
        assert!(err.to_string().contains("strict"), "{err}");
        match err {
            DatasetError::RegionFailed(s) => assert_eq!(s.region, "cg.spmv"),
            other => panic!("expected RegionFailed, got: {other}"),
        }
    }

    /// Steps A+B one sequence at a time: a pipeline, an extraction and a
    /// graph build per sequence. The oracle for [`region_forms`].
    fn per_sequence(
        spec: &RegionSpec,
        sequences: &[FlagSequence],
        vocab: &Vocab,
    ) -> Result<Vec<(Module, GraphData)>, RegionError> {
        let pm = PassManager::new(false);
        let mut out = Vec::new();
        for seq in sequences {
            let mut m = spec.module();
            pm.run(&mut m, &seq.passes).map_err(|e| RegionError {
                stage: "passes",
                sequence: Some(seq.id),
                error: e.to_string(),
            })?;
            let extracted = extract_region(&m, &spec.region_fn()).map_err(|e| RegionError {
                stage: "extract",
                sequence: Some(seq.id),
                error: e.to_string(),
            })?;
            let g = GraphData::from_graph(&build_module_graph(&extracted, vocab));
            out.push((m, g));
        }
        Ok(out)
    }

    fn assert_graphs_equal(a: &GraphData, b: &GraphData, what: &str) {
        let bits = |g: &GraphData| {
            g.norm.clone().map(|n| n.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(a.node_text, b.node_text, "{what}: node tokens");
        assert_eq!(a.edges, b.edges, "{what}: edges");
        assert_eq!(bits(a), bits(b), "{what}: norms");
    }

    /// Sampled sequences plus hand-made ones that repeat passes, repeat the
    /// whole `-O3` pipeline, or are empty.
    fn oracle_sequences() -> Vec<FlagSequence> {
        let mut seqs = sample_sequences(12, 5, SampleParams::default());
        let o3: Vec<String> = irnuma_passes::o3_sequence().iter().map(|s| s.to_string()).collect();
        let named = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let hand = [
            [o3.clone(), o3.clone()].concat(),
            o3.iter().rev().cloned().collect(),
            named(&["dce", "dce", "dce"]),
            named(&["mem2reg", "mem2reg", "gvn", "gvn", "loop-unroll", "loop-unroll"]),
            named(&["inline", "mem2reg", "licm", "inline", "sink", "sink", "simplifycfg"]),
            Vec::new(),
        ];
        for (i, passes) in hand.into_iter().enumerate() {
            seqs.push(FlagSequence { id: 100 + i as u32, passes });
        }
        seqs
    }

    #[test]
    fn memoized_steps_a_b_equal_per_sequence_builds_on_every_region() {
        let vocab = Vocab::full();
        let seqs = oracle_sequences();
        let pm = PassManager::new(false);
        for spec in all_regions() {
            let want = per_sequence(&spec, &seqs, &vocab).ok().expect("oracle build");
            let mut memo = PassMemo::new(&pm, spec.module());
            for (seq, (m, _)) in seqs.iter().zip(&want) {
                let id = memo.run(&seq.passes).unwrap();
                assert!(memo.state(id) == m, "{} seq {}: final module", spec.name, seq.id);
            }
            let (forms, form_of, modules) = region_forms(&spec, &seqs, &vocab).ok().unwrap();
            assert_eq!(form_of.len(), seqs.len());
            assert!(forms.len() <= modules && modules <= seqs.len());
            for (i, (seq, (_, g))) in seqs.iter().zip(&want).enumerate() {
                let what = format!("{} seq {}", spec.name, seq.id);
                assert_graphs_equal(&forms[form_of[i] as usize], g, &what);
            }
        }
    }

    #[test]
    fn a_failing_pass_reports_the_per_sequence_builds_first_failing_sequence() {
        let vocab = Vocab::full();
        let mut seqs = oracle_sequences();
        for at in [3, 7] {
            seqs[at].passes.insert(1, "no-such-pass".to_string());
        }
        let spec = &all_regions()[0];
        let want = per_sequence(spec, &seqs, &vocab).expect_err("oracle fails");
        let got = region_forms(spec, &seqs, &vocab).expect_err("memoized build fails");
        assert_eq!((got.stage, got.sequence), (want.stage, want.sequence));
        assert_eq!((got.stage, got.sequence), ("passes", Some(seqs[3].id)));
        assert_eq!(got.error, want.error);
    }

    #[test]
    fn dataset_is_deterministic() {
        let a = build_dataset(MicroArch::Skylake, &tiny());
        let b = build_dataset(MicroArch::Skylake, &tiny());
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.chosen_configs, b.chosen_configs);
        assert_eq!(a.regions[7].sweep, b.regions[7].sweep);
        assert_eq!(a.regions[7].graphs[0].node_text, b.regions[7].graphs[0].node_text);
    }
}
