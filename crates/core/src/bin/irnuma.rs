//! `irnuma` — the command-line front door.
//!
//! ```text
//! irnuma list-regions                         # the 56-region suite
//! irnuma show-ir cg.spmv [--o3]               # print a region's IR
//! irnuma graph cg.spmv [--dot out.dot]        # ProGraML graph stats / DOT
//! irnuma sweep cg.spmv --arch skylake         # top/bottom configurations
//! irnuma interp cg.spmv --n 64                # run under the interpreter
//! irnuma dataset --arch skylake --seqs 12 --out ds/  # a pack directory
//! irnuma predict cg.spmv --arch skylake [--dataset ds/]
//! ```

use irnuma_core::dataset::{build_dataset, BuildOptions, Dataset, DatasetParams};
use irnuma_core::models::static_gnn::{training_sequence_ids, StaticModel, StaticParams};
use irnuma_core::{bench_check, dataset_pack, top as top_view, trace_report};
use irnuma_graph::{build_module_graph, to_dot, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_ir::{print_module, Interp, InterpConfig, Value};
use irnuma_nn::{
    distinct_handles, CheckpointConfig, GnnClassifier, GnnConfig, MemorySource, ShardSource,
    TrainParams,
};
use irnuma_passes::{o3_sequence, run_sequence};
use irnuma_sim::{config_space, default_config, sweep_region, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize, RegionSpec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

// With `--features alloc-track`, every allocation the binary makes is
// counted: mem.* gauges in snapshots, alloc_bytes deltas on spans,
// bytes-per-stage in `irnuma report`.
#[cfg(feature = "alloc-track")]
#[global_allocator]
static ALLOC: irnuma_obs::alloc::CountingAlloc = irnuma_obs::alloc::CountingAlloc::new();

fn main() -> ExitCode {
    // IRNUMA_LOG overrides the info default; IRNUMA_TRACE=<file> installs
    // the JSONL sink. The guard flushes metrics + trace on exit.
    let _obs = irnuma_obs::init(irnuma_obs::Level::Info);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "list-regions" => list_regions(),
        "show-ir" => show_ir(rest),
        "show-source" => show_source(rest),
        "graph" => graph(rest),
        "sweep" => sweep(rest),
        "interp" => interp(rest),
        "dataset" => dataset(rest),
        "train" => train(rest),
        "predict" => predict(rest),
        "report" => report(rest),
        "trace" => trace(rest),
        "top" => top(rest),
        "serve" => serve(rest),
        "serve-bench" => serve_bench(rest),
        "bench-check" => run_bench_check(rest),
        "--help" | "-h" | "help" => write_stdout(&format!("{USAGE}\n")),
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) | Err(Failure::ClosedStdout) => ExitCode::SUCCESS,
        Err(Failure::Error(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command stopped before finishing.
enum Failure {
    /// Printed as `error: …`; the process exits 1.
    Error(String),
    /// Stdout's reader went away (`irnuma list-regions | head -3`): the
    /// command stops printing and the process exits quietly.
    ClosedStdout,
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Failure {
        Failure::Error(e.to_string())
    }
}

type CmdResult = Result<(), Failure>;

/// Write command output. Unlike `print!`, which panics on a closed pipe,
/// this ends the command with [`Failure::ClosedStdout`].
fn write_stdout(text: &str) -> CmdResult {
    use std::io::{ErrorKind, Write};
    std::io::stdout().write_all(text.as_bytes()).map_err(|e| match e.kind() {
        ErrorKind::BrokenPipe => Failure::ClosedStdout,
        _ => Failure::Error(format!("cannot write to stdout: {e}")),
    })
}

/// `println!` through [`write_stdout`], returning early from the command on
/// failure.
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(&format!("{}\n", format_args!($($arg)*)))? };
}

const USAGE: &str = "irnuma — static NUMA/prefetcher tuning from IR graphs

USAGE:
  irnuma list-regions
  irnuma show-ir <region> [--o3]
  irnuma show-source <region>
  irnuma graph <region> [--dot <file>]
  irnuma sweep <region> [--arch skylake|sandybridge|xeongold]
  irnuma interp <region> [--n <elements>]
  irnuma dataset [--arch <a>] [--seqs <n>] [--calls <n>] --out <dir>
                 [--shard-regions <n>] [--strict] [--fault <region>]
                 [--json]
  irnuma dataset info <dir> [--verify]
  irnuma train   [--arch <a>] [--dataset <pack-dir>] [--seqs <n>]
                 [--epochs <n>] [--hidden <n>] [--seed <n>]
                 [--ckpt-dir <dir>] [--every <n>] [--resume]
                 [--out <model.json>]
  irnuma predict <region> [--arch <a>] [--dataset <pack-dir>]
                 [--seqs <n>] [--epochs <n>]
  irnuma report <trace.jsonl> [--require stage1,stage2,...] [--json]
                 [--sort total|p99|count]
  irnuma trace analyze <trace.jsonl> [--roots name1,name2,...]
                 [--require-roots name1,name2,...]
  irnuma trace export <trace.jsonl> --perfetto <out.json>
  irnuma top     [--once | --watch <secs>] [--connect <addr>]
                 [--listen <addr>]
  irnuma serve   --model <model.json> [--addr <host:port>]
                 [--max-batch <n>] [--batch-window-us <n>]
                 [--queue-cap <n>] [--reload-poll-ms <n>]
                 [--max-requests <n>]
  irnuma serve-bench [--model <model.json> | --connect <addr>]
                 [--requests <n>] [--clients <n>] [--out-json]
  irnuma bench-check [--quick] [--baselines <file.json>] [--root <dir>]

`dataset` writes a pack directory (binary graph shards, region tables,
meta, manifest); `train` and `predict` read one with --dataset, or build
a fresh dataset without it.
`report` is the flat per-stage profile; `trace analyze` rebuilds the
causal span forest and reports each root span's critical path,
parallelism efficiency, and queue-vs-compute split. `trace export
--perfetto` writes a Chrome trace-event file loadable in
ui.perfetto.dev, with per-thread tracks and fan-out flow arrows.
`top` renders live telemetry: point --connect at any irnuma process
started with IRNUMA_METRICS=<addr> (default: this process's own
registry; --listen additionally serves it for scrapers).
`bench-check` gates BENCH_*.json medians against the committed
baselines in results/bench_baselines.json.
`serve` runs the online prediction daemon: JSONL over TCP, one JSON
request per line in, one prediction (or typed error) per line out,
micro-batched through the planned inference engine, with atomic model
hot-reload (--reload-poll-ms or on demand). `serve-bench` load-tests
a daemon (in-process by default) and with --out-json writes
BENCH_serving.json for the bench-check gate.

ENVIRONMENT:
  IRNUMA_TRACE=<file>      write a JSONL trace of every command
  IRNUMA_LOG=<level>       error|warn|info|debug (default info)
  IRNUMA_METRICS=<addr>    serve live metrics (/json, /metrics) on <addr>
  IRNUMA_PROFILE=<file>    sampling profiler; folded stacks on exit
  IRNUMA_PROFILE_HZ=<n>    profiler sample rate (default 997)";

fn find_region(name: &str) -> Result<RegionSpec, String> {
    all_regions()
        .into_iter()
        .find(|r| r.name == name)
        .ok_or_else(|| format!("unknown region `{name}` (try `irnuma list-regions`)"))
}

fn opt_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter().position(|a| a == flag).and_then(|i| rest.get(i + 1)).map(String::as_str)
}

/// `--seqs <n>`, the flag-sequence count. Zero is rejected: a dataset
/// without sequences has no graphs to train on.
fn parse_seqs(rest: &[String], default: &str) -> Result<usize, String> {
    match opt_value(rest, "--seqs").unwrap_or(default).parse() {
        Ok(0) | Err(_) => Err("bad --seqs (need a positive count)".into()),
        Ok(n) => Ok(n),
    }
}

/// `--hidden <n>`, the model width. Zero is rejected: a zero-width model
/// has no embedding to train.
fn parse_hidden(rest: &[String], default: &str) -> Result<usize, String> {
    match opt_value(rest, "--hidden").unwrap_or(default).parse() {
        Ok(0) | Err(_) => Err("bad --hidden (need a positive width)".into()),
        Ok(n) => Ok(n),
    }
}

fn parse_arch(rest: &[String]) -> Result<MicroArch, String> {
    match opt_value(rest, "--arch").unwrap_or("skylake") {
        "skylake" => Ok(MicroArch::Skylake),
        "sandybridge" => Ok(MicroArch::SandyBridge),
        "xeongold" => Ok(MicroArch::XeonGold),
        other => Err(format!("unknown arch `{other}`")),
    }
}

fn list_regions() -> CmdResult {
    outln!("{:<28} {:<10} {:>8} {:>6}  shape", "region", "suite", "ws", "calls");
    for r in all_regions() {
        outln!(
            "{:<28} {:<10} {:>6}MB {:>6}  {:?}",
            r.name,
            format!("{:?}", r.suite),
            r.profile.working_set_bytes >> 20,
            r.profile.calls_per_run,
            r.shape
        );
    }
    Ok(())
}

fn show_ir(rest: &[String]) -> CmdResult {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let mut m = r.module();
    if rest.iter().any(|a| a == "--o3") {
        run_sequence(&mut m, &o3_sequence()).map_err(|e| e.to_string())?;
    }
    write_stdout(&print_module(&m))?;
    Ok(())
}

fn show_source(rest: &[String]) -> CmdResult {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    outln!("// {} ({:?}, ws {} MiB)", r.name, r.suite, r.profile.working_set_bytes >> 20);
    outln!("{}", irnuma_workloads::pseudo_source(&r.shape));
    Ok(())
}

fn graph(rest: &[String]) -> CmdResult {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let vocab = Vocab::full();
    let m = r.module();
    let e = extract_region(&m, &r.region_fn()).map_err(|e| e.to_string())?;
    let g = build_module_graph(&e, &vocab);
    if let Some(path) = opt_value(rest, "--dot") {
        irnuma_store::atomic_write(Path::new(path), to_dot(&g, &vocab).as_bytes())
            .map_err(|e| e.to_string())?;
        outln!("wrote {path}");
    } else {
        use irnuma_graph::{EdgeKind, NodeKind};
        outln!("region {}: {} nodes, {} edges", r.name, g.num_nodes(), g.num_edges());
        outln!(
            "  nodes: {} instruction / {} variable / {} constant",
            g.count_nodes(NodeKind::Instruction),
            g.count_nodes(NodeKind::Variable),
            g.count_nodes(NodeKind::Constant)
        );
        outln!(
            "  edges: {} control / {} data / {} call",
            g.count_edges(EdgeKind::Control),
            g.count_edges(EdgeKind::Data),
            g.count_edges(EdgeKind::Call)
        );
    }
    Ok(())
}

fn sweep(rest: &[String]) -> CmdResult {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let m = Machine::new(parse_arch(rest)?);
    let space = config_space(&m);
    let times = sweep_region(&r, &m, InputSize::Size1, 6)?;
    let def = default_config(&m);
    let t_def = times[space.iter().position(|c| *c == def).unwrap()];
    let mut ranked: Vec<_> = space.iter().zip(&times).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(b.1));
    outln!(
        "{} on {:?}: default {} = {:.3}ms over {} configurations",
        r.name,
        m.arch,
        def.label(),
        t_def * 1e3,
        times.len()
    );
    outln!("top 5:");
    for &(c, t) in ranked.iter().take(5) {
        outln!("  {:<28} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
    }
    outln!("bottom 3:");
    for &(c, t) in ranked.iter().rev().take(3) {
        outln!("  {:<28} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
    }
    Ok(())
}

fn interp(rest: &[String]) -> CmdResult {
    let r = find_region(rest.first().ok_or("missing region name")?)?;
    let n: i64 = opt_value(rest, "--n").unwrap_or("64").parse().map_err(|_| "bad --n")?;
    // Execute a small-footprint build of the region so this stays instant.
    let m = r.shape.gen_ir(&r.name, r.variant, 1 << 18);
    let mut it = Interp::new(&m, InterpConfig::default());
    it.seed_globals(1);
    let out = it.call(&r.region_fn(), &[Value::I(n)]).map_err(|e| e.to_string())?;
    outln!(
        "@{}(n={n}) executed {} interpreter steps; memory digest {:016x}",
        r.region_fn(),
        out.steps,
        it.memory_digest()
    );
    Ok(())
}

/// The `--json` build summary. `dataset.skipped` mirrors the telemetry
/// counter of the same name, read back from the registry so
/// the JSON output asserts the counters were actually recorded. Built as a
/// [`serde_json::Value`] by hand because the counter keys carry dots.
fn dataset_build_summary(
    out: &str,
    built: &dataset_pack::PackedBuild,
    configs: usize,
    skips: &[String],
) -> serde_json::Value {
    use serde_json::Value;
    let registry = irnuma_obs::registry();
    Value::Object(vec![
        ("out".into(), Value::Str(out.to_string())),
        ("regions".into(), Value::UInt(built.regions as u64)),
        ("graphs".into(), Value::UInt(built.graphs as u64)),
        ("distinct_modules".into(), Value::UInt(built.distinct_modules as u64)),
        ("distinct_graphs".into(), Value::UInt(built.distinct_graphs as u64)),
        ("configs".into(), Value::UInt(configs as u64)),
        ("label_coverage".into(), Value::Float(built.label_coverage)),
        ("dataset.skipped".into(), Value::UInt(registry.counter("dataset.skipped").get())),
        ("skips".into(), Value::Array(skips.iter().map(|s| Value::Str(s.clone())).collect())),
    ])
}

fn dataset(rest: &[String]) -> CmdResult {
    if rest.first().map(String::as_str) == Some("info") {
        return dataset_info(&rest[1..]);
    }
    let arch = parse_arch(rest)?;
    let seqs = parse_seqs(rest, "12")?;
    let calls: u32 =
        opt_value(rest, "--calls").unwrap_or("6").parse().map_err(|_| "bad --calls")?;
    let out = opt_value(rest, "--out").ok_or("missing --out <dir>")?;
    let shard_regions: usize = opt_value(rest, "--shard-regions")
        .unwrap_or("8")
        .parse()
        .map_err(|_| "bad --shard-regions")?;
    let opts = BuildOptions {
        strict: rest.iter().any(|a| a == "--strict"),
        fault: opt_value(rest, "--fault").map(String::from),
    };
    let params = DatasetParams { num_sequences: seqs, calls, ..Default::default() };
    irnuma_obs::info!("building dataset for {arch:?} ({seqs} sequences)…");

    let dir = Path::new(out);
    let built = dataset_pack::build_packed_dataset(arch, &params, &opts, dir, shard_regions)
        .map_err(|e| e.to_string())?;
    let configs = dataset_pack::read_meta(dir).map_err(|e| e.to_string())?.configs.len();
    let skips: Vec<String> = built.skips.iter().map(|s| s.to_string()).collect();
    if rest.iter().any(|a| a == "--json") {
        let summary = dataset_build_summary(out, &built, configs, &skips);
        outln!("{}", serde_json::value_to_string(&summary));
        return Ok(());
    }
    outln!(
        "wrote pack {out}: {} regions, {} graphs in {} shards, {configs} configs, \
         label coverage {:.3}",
        built.regions,
        built.graphs,
        built.shards,
        built.label_coverage
    );
    outln!(
        "{} distinct final modules, {} distinct graphs",
        built.distinct_modules,
        built.distinct_graphs
    );
    if skips.is_empty() {
        outln!("skipped 0 regions");
    } else {
        outln!("skipped {} regions:", skips.len());
        for s in &skips {
            outln!("  {s}");
        }
    }
    Ok(())
}

/// `irnuma dataset info`: describe a pack directory; `--verify` reads every
/// shard back, checking manifest checksums and decoding every record.
fn dataset_info(rest: &[String]) -> CmdResult {
    let dir = Path::new(rest.first().ok_or("missing pack directory")?.as_str());
    let meta = dataset_pack::read_meta(dir).map_err(|e| e.to_string())?;
    let manifest = irnuma_store::shard::ShardManifest::load(dir).map_err(|e| e.to_string())?;
    outln!(
        "pack {}: {} regions, {} sequences, {} configs ({} labels)",
        dir.display(),
        meta.regions.len(),
        meta.sequences.len(),
        meta.configs.len(),
        meta.chosen_configs.len()
    );
    outln!(
        "{} shards, {} records, {} KiB",
        manifest.entries.len(),
        manifest.total_records(),
        manifest.total_bytes() >> 10
    );
    if rest.iter().any(|a| a == "--verify") {
        manifest.verify(dir).map_err(|e| e.to_string())?;
        let ds = dataset_pack::load_packed(dir).map_err(|e| e.to_string())?;
        let graphs: usize = ds.regions.iter().map(|r| r.graphs.len()).sum();
        let distinct = distinct_handles(ds.regions.iter().flat_map(|r| &r.graphs));
        outln!("verify ok: {graphs} graphs decoded ({distinct} distinct), all checksums match");
    }
    Ok(())
}

fn train(rest: &[String]) -> CmdResult {
    let arch = parse_arch(rest)?;
    let seqs = parse_seqs(rest, "4")?;
    let epochs: usize =
        opt_value(rest, "--epochs").unwrap_or("10").parse().map_err(|_| "bad --epochs")?;
    let hidden = parse_hidden(rest, "16")?;
    let seed: u64 = opt_value(rest, "--seed").unwrap_or("71").parse().map_err(|_| "bad --seed")?;
    let every: usize =
        opt_value(rest, "--every").unwrap_or("1").parse().map_err(|_| "bad --every")?;
    let resume = rest.iter().any(|a| a == "--resume");
    let ckpt = opt_value(rest, "--ckpt-dir").map(|d| CheckpointConfig {
        dir: PathBuf::from(d),
        every,
        resume,
    });
    // The training set is every region's training-sequence graphs, labelled
    // by region, exactly as `StaticModel::train` takes them over a fold: a
    // pack's shards streamed through the prefetch loader, or a fresh build
    // held as one resident shard. Both run the same loop, so a one-shard
    // pack trains the model its resident build does.
    let (mut source, classes, origin): (Box<dyn ShardSource>, usize, String) =
        match opt_value(rest, "--dataset") {
            Some(path) => {
                let dir = Path::new(path);
                let meta = dataset_pack::read_meta(dir).map_err(|e| e.to_string())?;
                let seq_ids =
                    training_sequence_ids(meta.sequences.len(), 4.min(meta.sequences.len()));
                let stream =
                    dataset_pack::open_stream(dir, &meta, &seq_ids).map_err(|e| e.to_string())?;
                let origin = format!("pack {path} ({} shards)", stream.num_shards());
                (Box::new(stream), meta.chosen_configs.len(), origin)
            }
            None => {
                irnuma_obs::info!("building dataset (pass --dataset <pack-dir> to reuse one)…");
                let params = DatasetParams { num_sequences: seqs, ..Default::default() };
                let ds = build_dataset(arch, &params);
                let seq_ids = training_sequence_ids(ds.sequences.len(), 4.min(ds.sequences.len()));
                let (mut graphs, mut labels) = (Vec::new(), Vec::new());
                for (reg, &label) in ds.regions.iter().zip(&ds.labels) {
                    for &s in &seq_ids {
                        graphs.push(reg.graphs[s].clone());
                        labels.push(label);
                    }
                }
                let source = MemorySource::from_shards(vec![(graphs, labels)]);
                (Box::new(source), ds.chosen_configs.len(), "a fresh build".to_string())
            }
        };
    let mut clf = GnnClassifier::new(GnnConfig {
        vocab_size: Vocab::full().len(),
        hidden,
        classes,
        layers: 2,
        layer_norm: true,
        seed,
    });
    let p = TrainParams { epochs, batch_size: 16, lr: 3e-3, seed };
    let stall0 = irnuma_obs::registry().counter("loader.prefetch_stall_ns").get();
    let t0 = std::time::Instant::now();
    let history =
        clf.fit_streaming(source.as_mut(), p, ckpt.as_ref()).map_err(|e| e.to_string())?;
    let elapsed = t0.elapsed().as_secs_f64();
    let stall_ms =
        (irnuma_obs::registry().counter("loader.prefetch_stall_ns").get() - stall0) as f64 / 1e6;
    // One more pass over the source for the training accuracy.
    let (mut graphs, mut correct) = (0, 0);
    source.begin_epoch(&(0..source.num_shards()).collect::<Vec<_>>());
    for _ in 0..source.num_shards() {
        let batch = source.next_shard().map_err(|e| e.to_string())?;
        let outputs = clf.model.infer_batch(&batch.graphs);
        correct += outputs.iter().zip(&batch.labels).filter(|(o, &l)| o.label() == l).count();
        graphs += batch.len();
        source.recycle(batch);
    }
    // Save before reporting, so a closed stdout cannot lose the model.
    let out = opt_value(rest, "--out");
    if let Some(out) = out {
        clf.save_json(Path::new(out)).map_err(|e| e.to_string())?;
    }
    outln!(
        "trained {} epochs on {graphs} graphs from {origin}: loss {:.4} → {:.4}, \
         train accuracy {:.3} ({:.2} epochs/sec, prefetch stall {stall_ms:.1}ms)",
        history.len(),
        history.first().copied().unwrap_or(f64::NAN),
        history.last().copied().unwrap_or(f64::NAN),
        correct as f64 / graphs.max(1) as f64,
        history.len() as f64 / elapsed.max(1e-9),
    );
    if let Some(out) = out {
        outln!("wrote {out}");
    }
    Ok(())
}

fn predict(rest: &[String]) -> CmdResult {
    let target = rest.first().ok_or("missing region name")?.clone();
    let arch = parse_arch(rest)?;
    let seqs = parse_seqs(rest, "8")?;
    let epochs: usize =
        opt_value(rest, "--epochs").unwrap_or("10").parse().map_err(|_| "bad --epochs")?;
    let ds: Dataset = match opt_value(rest, "--dataset") {
        Some(path) => dataset_pack::load_packed(Path::new(path)).map_err(|e| e.to_string())?,
        None => {
            irnuma_obs::info!("building dataset (pass --dataset <pack-dir> to reuse one)…");
            build_dataset(arch, &DatasetParams { num_sequences: seqs, ..Default::default() })
        }
    };
    let ti = ds
        .regions
        .iter()
        .position(|r| r.spec.name == target)
        .ok_or_else(|| format!("region `{target}` not in dataset"))?;
    let train: Vec<usize> = (0..ds.regions.len()).filter(|&i| i != ti).collect();
    irnuma_obs::info!("training the static model on the other {} regions…", train.len());
    let sm = StaticModel::train(
        &ds,
        &train,
        StaticParams { epochs, train_sequences: 4.min(seqs), ..Default::default() },
    );
    let label = sm.predict(&ds, ti);
    let cfg = ds.configs[ds.chosen_configs[label]];
    let t = ds.label_time(ti, label);
    let reg = &ds.regions[ti];
    outln!("region:        {target}");
    outln!("prediction:    {}", cfg.label());
    outln!("default time:  {:.3}ms", reg.default_time * 1e3);
    outln!("predicted:     {:.3}ms  (x{:.2})", t * 1e3, reg.default_time / t);
    outln!(
        "best possible: {:.3}ms  (x{:.2}, full exploration)",
        reg.full_best_time() * 1e3,
        reg.default_time / reg.full_best_time()
    );
    Ok(())
}

fn report(rest: &[String]) -> CmdResult {
    let path = rest.first().ok_or("missing trace file (irnuma report <trace.jsonl>)")?;
    let mut r = trace_report::load(Path::new(path))?.report();
    if let Some(key) = opt_value(rest, "--sort") {
        let key = trace_report::SortKey::parse(key)
            .ok_or_else(|| format!("bad --sort `{key}` (total|p99|count)"))?;
        r.sort_spans(key);
    }
    if r.malformed_lines > 0 {
        eprintln!("report.malformed_lines: {} (skipped)", r.malformed_lines);
    }
    if rest.iter().any(|a| a == "--json") {
        outln!("{}", r.to_json());
    } else {
        write_stdout(&r.render())?;
    }
    if let Some(required) = opt_value(rest, "--require") {
        let stages: Vec<&str> =
            required.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        r.require(&stages)?;
        if !rest.iter().any(|a| a == "--json") {
            outln!("\nall required stages present: {}", stages.join(", "));
        }
    }
    Ok(())
}

fn trace(rest: &[String]) -> CmdResult {
    let sub = rest.first().map(String::as_str);
    let args = rest.get(1..).unwrap_or(&[]);
    let split_names = |v: &str| -> Vec<String> {
        v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
    };
    match sub {
        Some("analyze") => {
            let path = args.first().ok_or("missing trace file (irnuma trace analyze <f>)")?;
            let trace = trace_report::load(Path::new(path))?;
            let opts = trace_report::AnalyzeOptions {
                roots: opt_value(args, "--roots").map(split_names),
                require_roots: opt_value(args, "--require-roots")
                    .map(split_names)
                    .unwrap_or_default(),
            };
            write_stdout(&trace_report::analyze(trace, &opts)?)?;
            Ok(())
        }
        Some("export") => {
            let path = args.first().ok_or("missing trace file (irnuma trace export <f>)")?;
            let out = opt_value(args, "--perfetto").ok_or("missing --perfetto <out.json>")?;
            let trace = trace_report::load(Path::new(path))?;
            trace_report::export_perfetto(&trace, Path::new(out))?;
            outln!(
                "wrote {out}: {} spans ({} skipped lines) — load in ui.perfetto.dev",
                trace.spans.len(),
                trace.malformed_lines
            );
            Ok(())
        }
        _ => Err("usage: irnuma trace analyze|export <trace.jsonl> …".into()),
    }
}

fn top(rest: &[String]) -> CmdResult {
    let watch: Option<f64> = match opt_value(rest, "--watch") {
        Some(v) => Some(v.parse().map_err(|_| "bad --watch (seconds)")?),
        None => None,
    };
    let connect = opt_value(rest, "--connect").map(String::from);
    // `--listen` serves this process's own registry — useful for probing
    // the export endpoint end to end without a second process.
    let server = match opt_value(rest, "--listen") {
        Some(addr) => {
            let s = irnuma_obs::export::serve(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            outln!("serving telemetry on {}", s.addr());
            Some(s)
        }
        None => None,
    };
    // One snapshot per tick: from the remote endpoint when --connect is
    // given, through our own HTTP endpoint when --listen is (so the probe
    // exercises the real wire path), from the registry otherwise.
    let grab = || -> Result<top_view::Snapshot, String> {
        let body = match (&connect, &server) {
            (Some(addr), _) => irnuma_obs::export::fetch(addr, "/json")
                .map_err(|e| format!("cannot fetch {addr}/json: {e}"))?,
            (None, Some(s)) => irnuma_obs::export::fetch(&s.addr().to_string(), "/json")
                .map_err(|e| format!("cannot self-fetch: {e}"))?,
            (None, None) => irnuma_obs::TelemetrySnapshot::capture().to_json(),
        };
        top_view::parse_snapshot(&body)
    };
    match watch {
        None => write_stdout(&top_view::render(&grab()?, None))?,
        Some(secs) => {
            let interval = std::time::Duration::from_secs_f64(secs.clamp(0.1, 3600.0));
            let mut prev: Option<top_view::Snapshot> = None;
            loop {
                let snap = grab()?;
                // Clear the screen, home the cursor, render one frame.
                outln!("\x1b[2J\x1b[Hirnuma top — every {secs}s (ctrl-c to quit)\n");
                write_stdout(&top_view::render(&snap, prev.as_ref()))?;
                prev = Some(snap);
                std::thread::sleep(interval);
            }
        }
    }
    if let Some(s) = server {
        s.stop();
    }
    Ok(())
}

fn serve(rest: &[String]) -> CmdResult {
    let model = opt_value(rest, "--model").ok_or("missing --model <model.json>")?;
    let mut cfg = irnuma_serve::ServeConfig::new(model);
    if let Some(addr) = opt_value(rest, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(v) = opt_value(rest, "--max-batch") {
        cfg.max_batch = v.parse().map_err(|_| "bad --max-batch")?;
    }
    if let Some(v) = opt_value(rest, "--batch-window-us") {
        cfg.batch_window_us = v.parse().map_err(|_| "bad --batch-window-us")?;
    }
    if let Some(v) = opt_value(rest, "--queue-cap") {
        cfg.queue_cap = v.parse().map_err(|_| "bad --queue-cap")?;
    }
    if let Some(v) = opt_value(rest, "--reload-poll-ms") {
        cfg.reload_poll_ms = v.parse().map_err(|_| "bad --reload-poll-ms")?;
    }
    // `--max-requests` exits cleanly (flushing traces/metrics) after N
    // responses — how CI smoke-tests the daemon without signals.
    let max_requests: u64 = match opt_value(rest, "--max-requests") {
        Some(v) => v.parse().map_err(|_| "bad --max-requests")?,
        None => 0,
    };
    let server = irnuma_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    outln!("serving on {} (model {model})", server.addr());
    if max_requests == 0 {
        server.wait();
        return Ok(());
    }
    let responses = irnuma_obs::registry().counter("serve.responses");
    let errors = irnuma_obs::registry().counter("serve.bad_requests");
    let rejected = irnuma_obs::registry().counter("serve.rejected");
    while responses.get() + errors.get() + rejected.get() < max_requests {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    server.shutdown();
    outln!(
        "served {} responses ({} bad requests, {} rejected); exiting after --max-requests {}",
        responses.get(),
        errors.get(),
        rejected.get(),
        max_requests
    );
    Ok(())
}

fn serve_bench(rest: &[String]) -> CmdResult {
    let params = irnuma_core::serve_bench::ServeBenchParams {
        model: opt_value(rest, "--model").map(PathBuf::from),
        connect: opt_value(rest, "--connect").map(String::from),
        requests: opt_value(rest, "--requests")
            .unwrap_or("2000")
            .parse()
            .map_err(|_| "bad --requests")?,
        clients: opt_value(rest, "--clients")
            .unwrap_or("4")
            .parse()
            .map_err(|_| "bad --clients")?,
    };
    let report = irnuma_core::serve_bench::run(&params)?;
    outln!(
        "serve-bench: {} served / {} rejected over {} clients\n\
         latency p50 {:.1}us  p99 {:.1}us  mean {:.1}us\n\
         throughput {:.0} req/s",
        report.served,
        report.rejected,
        report.clients,
        report.p50_us,
        report.p99_us,
        report.mean_us,
        report.throughput_rps
    );
    if rest.iter().any(|a| a == "--out-json") {
        let path = irnuma_core::serve_bench::write_report(&report).map_err(|e| e.to_string())?;
        outln!("wrote {}", path.display());
    }
    Ok(())
}

fn run_bench_check(rest: &[String]) -> CmdResult {
    let quick = rest.iter().any(|a| a == "--quick");
    let baselines_path = opt_value(rest, "--baselines").unwrap_or("results/bench_baselines.json");
    let root = opt_value(rest, "--root").unwrap_or(".");
    let baselines = bench_check::load_baselines(Path::new(baselines_path))?;
    let (results, ok) = bench_check::check(&baselines, Path::new(root), quick);
    // A failed gate fails the command even when nobody reads the table.
    let shown = write_stdout(&bench_check::render(&results, ok));
    if ok {
        shown
    } else {
        Err("benchmark regression detected".into())
    }
}
