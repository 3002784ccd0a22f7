//! `irnuma-perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro|dataset|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload built from `--seed`, checks every output, and prints
//! human-readable lines followed by one JSON object on the last line of
//! stdout. `--trace 0` measures the end-to-end metrics with all telemetry
//! off; `--trace 1` repeats one untraced pass, then one pass under an
//! in-memory span sink, and reports the per-layer metrics (with the
//! difference between the two passes as tracing overhead). See
//! `perfbench/README.md` for the metric → layer → workload table.

mod dataset;
mod host;
mod repro;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics, in `BENCHMARK.json` order: every workload
/// reports every one of them with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
    ("label_coverage", "ratio"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: every workload
/// reports every one of them with `--trace 1`, as 0 when its layer is idle
/// on that workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.static.train_s", "s"),
    ("core.hybrid.train_s", "s"),
    ("core.flags.train_s", "s"),
    ("core.dynamic.train_s", "s"),
    ("core.eval.predict_s", "s"),
    ("core.dataset.build_s", "s"),
    ("core.static_dynamic_ratio", "ratio"),
    ("core.hybrid_speedup", "ratio"),
    ("core.router_accuracy", "ratio"),
    ("core.profiled_fraction", "ratio"),
    ("ml.ga_eval_s", "s"),
    ("ml.ga_fitness_evals", "count"),
    ("ml.ga_cache_hit_ratio", "ratio"),
    ("nn.train_grads_s", "s"),
    ("nn.graphs_trained", "count"),
    ("nn.scratch_miss_ratio", "ratio"),
    ("nn.csc_builds", "count"),
    ("nn.infer_s", "s"),
    ("nn.infer_batch_ms", "ms"),
    ("passes.run_s", "s"),
    ("passes.runs", "count"),
    ("graph.build_s", "s"),
    ("graph.nodes", "count"),
    ("ir.extract_s", "s"),
    ("sim.sweep_s", "s"),
    ("sim.calls", "count"),
    ("dataset.region_max_ms", "ms"),
    ("store.write_bytes", "bytes"),
    ("store.fsync_s", "s"),
    ("store.load_s", "s"),
    ("store.decode_s", "s"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.rejected", "count"),
    ("serve.server_p99_ms", "ms"),
    ("dispatch.plan_hit_ratio", "ratio"),
    ("runtime.threads", "count"),
    ("runtime.efficiency", "ratio"),
    ("critical.train_frac", "ratio"),
    ("critical.ga_frac", "ratio"),
    ("latency.p99_ms", "ms"),
    ("trace.overhead_wall_s", "s"),
    ("trace.overhead_p99_ms", "ms"),
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout; removed on exit.
    pub work: PathBuf,
}

/// One measured number with the count of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// What a workload hands back: its metrics by name, the output checks it
/// made, and the operations it attempted.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Value>,
    /// `(description, passed)` per output check.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    /// Refused, errored or mismatched operations (failed checks are added
    /// on top when the result is printed).
    pub failed: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.insert(name, Value { value, samples });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }
}

/// Print a number that is reported but not gated (the JSON carries the
/// gated metrics), by name and unit with its sample count.
pub fn report(name: &str, value: f64, unit: &str, samples: u64) {
    println!("report {name:<28} {value:>22?} {unit:<6} samples={samples}");
}

fn parse_args() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["repro", "dataset", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (repro|dataset|serve)"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Opts { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false), work })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("error: creating {}: {e}", opts.work.display());
        return ExitCode::FAILURE;
    }
    let host_before = host::HostSample::take();
    let result = match opts.workload.as_str() {
        "repro" => repro::run(&opts),
        "dataset" => dataset::run(&opts),
        _ => serve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    if let Some(parent) = opts.work.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run uses it
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} workload failed: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    println!("host: {}", host::context_line(&host_before, &host::HostSample::take()));
    print_result(&opts, outcome)
}

/// Print the human-readable table and the final JSON line. Exits non-zero
/// when any output check failed or a metric was not measured.
fn print_result(opts: &Opts, mut outcome: Outcome) -> ExitCode {
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in names {
        match outcome.metrics.get(name) {
            Some(v) if !v.value.is_finite() => outcome.check(format!("{name} is finite"), false),
            // End-to-end metrics are measured on every workload; an idle
            // layer reports 0.
            None if !opts.trace => outcome.check(format!("{name} was measured"), false),
            _ => {}
        }
    }
    for (what, ok) in &outcome.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let failed_checks = outcome.checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let correct = failed_checks == 0;
    let attempted = outcome.attempted.max(1);
    let failed = outcome.failed + failed_checks;
    report("failed_frac", failed as f64 / attempted as f64, "ratio", attempted);

    let mut json = Vec::new();
    for (name, unit) in names {
        let v = outcome.metrics.get(name).copied().unwrap_or(Value { value: 0.0, samples: 0 });
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        println!("metric {name:<28} {value:>22?} {unit:<6} samples={}", v.samples);
        // `{:?}` is the shortest form that round-trips: all the digits.
        json.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
