//! `repro`: one cross-validated Skylake `evaluate` (Steps A–E with the
//! hybrid router and the flag model) at a reduced scale, then every region
//! classified again under each of its flag sequences by its fold's model.
//!
//! The traced pass does not call `evaluate`: it drives the same public
//! calls stage by stage, timing each from here, and its summary must equal
//! the untraced `evaluate` summary exactly.

use crate::host::{self, timed};
use crate::stats::{best, derive, median, pooled_rate, quantile};
use crate::trace::{common_layers, traced};
use crate::{Opts, Outcome};
use irnuma_core::models::flags::FlagParams;
use irnuma_core::models::hybrid::{static_needs_profiling, HybridParams};
use irnuma_core::models::{DynamicModel, FlagModel, HybridModel, StaticModel, StaticParams};
use irnuma_core::{build_dataset, evaluate, DatasetParams, FoldModels, PipelineConfig};
use irnuma_core::{Evaluation, RegionOutcome};
use irnuma_ml::cv::train_indices;
use irnuma_ml::{kfold, relative_difference, GaParams};
use std::fmt::Write as _;
use std::time::Instant;

/// Query rounds per latency window: 56 regions × 20 gives over 1000
/// samples, so each window's p99 has ten beyond it.
const QUERY_ROUNDS: usize = 20;
/// Latency windows replayed after each pass.
const REPLAY_WINDOWS: usize = 2;
/// Reference-dataset builds in set-up (the median is reported).
const SETUP_REPS: usize = 5;

/// The reduced-scale pipeline. Inputs (flag sequences sampled for
/// augmentation, and the fold split) come from the workload seed; model
/// hyper-parameters are fixed.
pub fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        dataset: DatasetParams {
            num_sequences: 8,
            calls: 4,
            seed: derive(seed, 1),
            ..Default::default()
        },
        folds: 4,
        static_params: StaticParams {
            hidden: 24,
            epochs: 8,
            train_sequences: 4,
            ..Default::default()
        },
        hybrid: HybridParams {
            inner_folds: 3,
            ga: GaParams { population: 48, generations: 8, ..Default::default() },
            ..Default::default()
        },
        flags: FlagParams {
            ga: GaParams { population: 32, generations: 6, seed: 77, ..Default::default() },
            ..Default::default()
        },
        seed: derive(seed, 2),
        ..Default::default()
    }
}

/// Every per-region number of an evaluation, bit-exact, plus the headline
/// ratios: two runs agree iff their summaries are equal strings.
fn summary(outcomes: &[RegionOutcome], pred_time_by_seq: &[Vec<f64>]) -> String {
    let mut s = String::new();
    for o in outcomes {
        let _ = writeln!(
            s,
            "{} {} f{} labels {} {} {} seq {} dyn {} needs {} times {:x} {:x} {:x} {:x} {:x} {:x} {:x} err {:x} {:x}",
            o.region,
            o.name,
            o.fold,
            o.oracle_label,
            o.static_label,
            o.dynamic_label,
            o.predicted_seq,
            o.hybrid_used_dynamic,
            o.needs_profiling,
            o.default_time.to_bits(),
            o.full_best_time.to_bits(),
            o.oracle_time.to_bits(),
            o.static_time.to_bits(),
            o.dynamic_time.to_bits(),
            o.hybrid_time.to_bits(),
            o.predicted_seq_time.to_bits(),
            o.static_error.to_bits(),
            o.dynamic_error.to_bits(),
        );
    }
    for (r, times) in pred_time_by_seq.iter().enumerate() {
        let bits: Vec<String> = times.iter().map(|t| format!("{:x}", t.to_bits())).collect();
        let _ = writeln!(s, "seq-times {r} {}", bits.join(" "));
    }
    s
}

/// The paper's headline ratios: static/dynamic speedup ratio, hybrid
/// speedup, router accuracy, profiled fraction.
fn headline(e: &Evaluation) -> [f64; 4] {
    [
        e.static_speedup() / e.dynamic_speedup(),
        e.hybrid_speedup(),
        e.route_accuracy(),
        e.profiled_fraction(),
    ]
}

/// Output checks shared by both passes: each region validated exactly
/// once, and no static prediction beats full exploration.
fn check_outcomes(out: &mut Outcome, outcomes: &[RegionOutcome], regions: usize, tag: &str) {
    let mut seen = vec![0usize; regions];
    for o in outcomes {
        if let Some(c) = seen.get_mut(o.region) {
            *c += 1;
        }
    }
    out.check(
        format!("{tag}: every one of {regions} regions validated exactly once"),
        outcomes.len() == regions && seen.iter().all(|&c| c == 1),
    );
    let bad = outcomes
        .iter()
        .filter(|o| o.static_time < o.full_best_time || o.static_time.is_nan())
        .count();
    out.check(
        format!("{tag}: static_time >= full_best_time for every region ({bad} violate)"),
        bad == 0,
    );
    out.attempted += outcomes.len() as u64;
}

/// Classify every region under each of its flag sequences with the static
/// model of the fold that validated it (sequential `GnnModel::infer`, the
/// per-sequence query behind Figs. 5 and 11), timing each region on the
/// thread CPU clock. A first round checks the answers against the
/// evaluation's per-sequence times; then [`REPLAY_WINDOWS`] windows of
/// [`QUERY_ROUNDS`] rounds each collect per-region latencies (ms). Returns
/// the windows and the number of mismatched regions.
fn replay_queries(e: &Evaluation) -> (Vec<Vec<f64>>, u64) {
    let ds = &e.dataset;
    let mut windows: Vec<Vec<f64>> =
        (0..REPLAY_WINDOWS).map(|_| Vec::with_capacity(QUERY_ROUNDS * e.outcomes.len())).collect();
    let mut mismatched = 0u64;
    for round in 0..=QUERY_ROUNDS * REPLAY_WINDOWS {
        for f in &e.folds {
            let model = &f.static_model.clf.model;
            for &r in &f.validation {
                let c0 = host::thread_cpu_ms();
                let labels: Vec<usize> =
                    ds.regions[r].graphs.iter().map(|g| model.infer(g).label()).collect();
                let dt = host::thread_cpu_ms() - c0;
                if round == 0 {
                    let same = labels.len() == e.pred_time_by_seq[r].len()
                        && labels
                            .iter()
                            .zip(&e.pred_time_by_seq[r])
                            .all(|(&l, t)| ds.label_time(r, l).to_bits() == t.to_bits());
                    mismatched += u64::from(!same);
                } else {
                    windows[(round - 1) / QUERY_ROUNDS].push(dt);
                }
            }
        }
    }
    (windows, mismatched)
}

/// The per-layer wall time measured here around each public call.
#[derive(Default)]
struct StageTimes {
    dataset_build: f64,
    static_train: f64,
    dynamic_train: f64,
    hybrid_train: f64,
    flags_train: f64,
    predict: f64,
    folds: u64,
    predicts: u64,
}

fn clock<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

/// The traced pass: `evaluate`'s stages as separate public calls, each
/// timed from here. Returns the evaluation in `evaluate`'s shape.
fn evaluate_by_stage(cfg: &PipelineConfig, st: &mut StageTimes) -> Result<Evaluation, String> {
    let _root = irnuma_obs::span!("bench.repro");
    let ds = clock(&mut st.dataset_build, || build_dataset(cfg.arch, &cfg.dataset));
    let n = ds.regions.len();
    let folds_idx = kfold(n, cfg.folds, cfg.seed).map_err(|e| format!("{e:?}"))?;
    let mut outcomes: Vec<Option<RegionOutcome>> = (0..n).map(|_| None).collect();
    let mut pred_time_by_seq: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut folds = Vec::with_capacity(cfg.folds);
    for (fi, validation) in folds_idx.iter().enumerate() {
        let train = train_indices(&folds_idx, fi);
        let sm = clock(&mut st.static_train, || StaticModel::train(&ds, &train, cfg.static_params));
        let dm = clock(&mut st.dynamic_train, || DynamicModel::train(&ds, &train));
        let hm = clock(&mut st.hybrid_train, || {
            HybridModel::train(&ds, &sm, &train, cfg.hybrid, cfg.static_params)
        });
        let fm = clock(&mut st.flags_train, || FlagModel::train(&ds, &sm, &train, cfg.flags));
        st.folds += 1;
        for &r in validation {
            st.predicts += 1;
            clock(&mut st.predict, || {
                let static_label = sm.predict(&ds, r);
                let static_time = ds.label_time(r, static_label);
                let dynamic_label = dm.predict(&ds, r);
                let dynamic_time = ds.label_time(r, dynamic_label);
                let route_dyn = hm.route_to_dynamic(&ds, &sm, r);
                let hybrid_time = if route_dyn { dynamic_time } else { static_time };
                let needs = static_needs_profiling(&ds, &sm, r, cfg.hybrid.error_threshold);
                let full = ds.regions[r].full_best_time();
                let pseq = fm.predict_seq(&ds, &sm, r);
                let plabel = sm.predict_with_seq(&ds, r, pseq);
                outcomes[r] = Some(RegionOutcome {
                    region: r,
                    name: ds.regions[r].spec.name.clone(),
                    fold: fi,
                    default_time: ds.regions[r].default_time,
                    full_best_time: full,
                    oracle_time: ds.oracle_time(r),
                    oracle_label: ds.labels[r],
                    static_label,
                    static_time,
                    dynamic_label,
                    dynamic_time,
                    hybrid_used_dynamic: route_dyn,
                    hybrid_time,
                    needs_profiling: needs,
                    static_error: relative_difference(full, static_time),
                    dynamic_error: relative_difference(full, dynamic_time),
                    predicted_seq: pseq,
                    predicted_seq_time: ds.label_time(r, plabel),
                });
                pred_time_by_seq[r] = sm
                    .clf
                    .model
                    .infer_batch(&ds.regions[r].graphs)
                    .iter()
                    .map(|o| ds.label_time(r, o.label()))
                    .collect();
            });
        }
        folds.push(FoldModels {
            fold: fi,
            validation: validation.clone(),
            train,
            static_model: sm,
            dynamic_model: dm,
            hybrid_model: Some(hm),
            flag_model: Some(fm),
        });
    }
    let outcomes =
        outcomes.into_iter().collect::<Option<Vec<_>>>().ok_or("a region was never validated")?;
    Ok(Evaluation { cfg: *cfg, dataset: ds, outcomes, folds, pred_time_by_seq })
}

/// One untraced pass: `evaluate`, then the per-region queries.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    /// Peak RSS over the pass (MB).
    rss_mb: f64,
    windows: Vec<Vec<f64>>,
    summary: String,
    eval: Evaluation,
}

fn untraced_pass(cfg: &PipelineConfig, out: &mut Outcome, regions: usize) -> Result<Pass, String> {
    host::reset_peak_rss();
    let t = timed(|| evaluate(cfg));
    let eval = t.out.map_err(|e| format!("evaluate: {e:?}"))?;
    check_outcomes(out, &eval.outcomes, regions, "evaluate");
    let (windows, mismatched) = replay_queries(&eval);
    out.attempted += windows.iter().map(|w| w.len() as u64).sum::<u64>();
    out.failed += mismatched;
    Ok(Pass {
        wall_s: t.wall_s,
        cpu_s: t.cpu_s,
        rss_mb: host::peak_rss_mb(),
        windows,
        summary: summary(&eval.outcomes, &eval.pred_time_by_seq),
        eval,
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cfg = config(opts.seed);
    let mut out = Outcome::default();

    // Set-up: the reference dataset the checks compare against.
    let mut setup = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        let t = timed(|| build_dataset(cfg.arch, &cfg.dataset));
        setup.push(t.wall_s);
        reference = Some(t.out);
    }
    let reference = reference.expect("at least one set-up");
    let regions = reference.regions.len();
    println!(
        "repro: {} regions, {} sequences, {} calls, {} folds, hidden {}, {} epochs, set-up {:.3} s",
        regions,
        cfg.dataset.num_sequences,
        cfg.dataset.calls,
        cfg.folds,
        cfg.static_params.hidden,
        cfg.static_params.epochs,
        median(&setup)
    );

    if opts.trace {
        return traced_run(&cfg, out, regions);
    }

    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || t0.elapsed().as_secs_f64() < opts.seconds {
        let p = untraced_pass(&cfg, &mut out, regions)?;
        println!(
            "repro pass {}: wall {:.3} s, cpu {:.3} s, query p50 by window {:?} ms",
            passes.len(),
            p.wall_s,
            p.cpu_s,
            p.windows.iter().map(|w| (quantile(w, 0.5) * 1e4).round() / 1e4).collect::<Vec<_>>()
        );
        passes.push(p);
    }
    let first = &passes[0];
    out.check(
        format!("{} passes of one seed give identical summaries", passes.len()),
        passes.iter().all(|p| p.summary == first.summary),
    );
    let [ratio, hybrid, router, profiled] = headline(&first.eval);
    for (name, v) in [
        ("static_dynamic_ratio", ratio),
        ("hybrid_speedup", hybrid),
        ("router_accuracy", router),
        ("profiled_fraction", profiled),
    ] {
        crate::report(name, v, "ratio", regions as u64);
    }
    let windows: Vec<Vec<f64>> = passes.iter().flat_map(|p| p.windows.iter().cloned()).collect();
    let n = passes.len() as u64;
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| p.cpu_s).collect();
    out.set("setup_s", median(&setup), SETUP_REPS as u64);
    println!("median over passes: wall {:.3} s, cpu {:.3} s", median(&walls), median(&cpus));
    out.set("wall_s", best(&walls), n);
    out.set("cpu_s", best(&cpus), n);
    out.set("peak_rss_mb", median(&passes.iter().map(|p| p.rss_mb).collect::<Vec<_>>()), n);
    // On the thread CPU clock preemption is already out; what remains is
    // the CPU's speed, which drifts between windows, so the pooled samples
    // (not the best window) give the steady statistic, and the rate is
    // taken at the median query rather than the mean one.
    let pooled = windows.concat();
    let n_lat = pooled.len() as u64;
    let p50 = quantile(&pooled, 0.50);
    out.set("p50_ms", p50, n_lat);
    crate::report("p99_ms", quantile(&pooled, 0.99), "ms", n_lat);
    crate::report("mean_rate", pooled_rate(&pooled), "1/s", n_lat);
    out.set("max_rps", 1e3 / p50, n_lat);
    out.set("label_coverage", first.eval.dataset.label_coverage(), regions as u64);
    Ok(out)
}

/// `--trace 1`: one untraced pass, then the stage-by-stage pass under the
/// span sink (and the per-region queries, traced). Reports the per-layer
/// metrics.
fn traced_run(cfg: &PipelineConfig, mut out: Outcome, regions: usize) -> Result<Outcome, String> {
    let plain = untraced_pass(cfg, &mut out, regions)?;
    let mut st = StageTimes::default();
    let ((staged, windows, mismatched, wall_s), tr) = traced(|| {
        let t = timed(|| evaluate_by_stage(cfg, &mut st));
        let (windows, mism) = match &t.out {
            Ok(e) => replay_queries(e),
            Err(_) => (Vec::new(), 0),
        };
        (t.out, windows, mism, t.wall_s)
    });
    let staged = staged?;
    check_outcomes(&mut out, &staged.outcomes, regions, "stage-by-stage pass");
    out.check(
        "stage-by-stage summary equals the untraced evaluate summary",
        summary(&staged.outcomes, &staged.pred_time_by_seq) == plain.summary,
    );
    out.attempted += windows.iter().map(|w| w.len() as u64).sum::<u64>();
    out.failed += mismatched;
    println!("repro traced pass: wall {wall_s:.3} s (untraced {:.3} s)", plain.wall_s);

    let [ratio, hybrid, router, profiled] = headline(&staged);
    let folds = st.folds;
    out.set("core.static.train_s", st.static_train, folds);
    out.set("core.hybrid.train_s", st.hybrid_train, folds);
    out.set("core.flags.train_s", st.flags_train, folds);
    out.set("core.dynamic.train_s", st.dynamic_train, folds);
    out.set("core.eval.predict_s", st.predict, st.predicts);
    out.set("core.dataset.build_s", st.dataset_build, 1);
    out.set("core.static_dynamic_ratio", ratio, regions as u64);
    out.set("core.hybrid_speedup", hybrid, regions as u64);
    out.set("core.router_accuracy", router, regions as u64);
    out.set("core.profiled_fraction", profiled, regions as u64);
    common_layers(&mut out, &tr);
    let shares = tr.critical_shares(
        "bench.repro",
        &[&|n: &str| n.starts_with("train."), &|n: &str| n == "ml.ga_eval"],
    );
    out.set("critical.train_frac", shares[0], 1);
    out.set("critical.ga_frac", shares[1], 1);
    out.set("runtime.efficiency", plain.cpu_s / (plain.wall_s * host::nproc() as f64), 1);
    let (plain_lat, lat) = (plain.windows.concat(), windows.concat());
    out.set("latency.p99_ms", quantile(&plain_lat, 0.99), plain_lat.len() as u64);
    out.set("trace.overhead_wall_s", wall_s - plain.wall_s, 2);
    out.set(
        "trace.overhead_p99_ms",
        quantile(&lat, 0.99) - quantile(&plain_lat, 0.99),
        (lat.len() + plain_lat.len()) as u64,
    );
    Ok(out)
}
