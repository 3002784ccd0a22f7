//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures -- all                 # every figure, CSVs under results/
//! figures -- everything          # `all` plus ablations, input sensitivity, cost comparison
//! figures -- fig3 fig9           # a subset
//! figures -- summary             # headline numbers only
//! figures -- --smoke all         # tiny settings (CI)
//! figures -- --flags 200 all     # override the number of flag sequences
//! ```
//!
//! Each machine's dataset is built once, inside its one main evaluation,
//! and every figure reads that evaluation. It runs light (static and
//! dynamic models only) unless a requested figure reads the hybrid router
//! or the flag model (`summary`, `fig9`, `fig11`). Fig. 6 evaluates only
//! the label counts other than the dataset's own, and Fig. 7 reads Fig. 6's
//! Skylake 6-label evaluation. Ablations and input sensitivity train no
//! model of their own outside `evaluate_on`.

use irnuma_bench::{paper_scale_config, smoke_config, standard_config};
use irnuma_core::evaluation::{evaluate, Evaluation, PipelineConfig};
use irnuma_core::experiments::*;
use irnuma_sim::MicroArch;
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use irnuma_obs::info;

struct Args {
    figs: HashSet<String>,
    smoke: bool,
    paper_scale: bool,
    flags_override: Option<usize>,
    epochs_override: Option<usize>,
    hidden_override: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: HashSet::new(),
        smoke: false,
        paper_scale: false,
        flags_override: None,
        epochs_override: None,
        hidden_override: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--paper-scale" => args.paper_scale = true,
            "--flags" => {
                args.flags_override = Some(count(&mut it, "--flags", 1, "a positive count"))
            }
            "--epochs" => args.epochs_override = Some(count(&mut it, "--epochs", 0, "a count")),
            "--hidden" => {
                args.hidden_override = Some(count(&mut it, "--hidden", 1, "a positive width"))
            }
            other => {
                args.figs.insert(other.to_string());
            }
        }
    }
    if args.figs.is_empty() {
        args.figs.insert("summary".to_string());
    }
    args
}

/// The number after `flag`, at least `min`. Anything else exits 1 naming
/// the flag, before any evaluation: a typo must not silently run the
/// defaults, and a zero flag-sequence count has no graphs to train on.
fn count(it: &mut impl Iterator<Item = String>, flag: &str, min: usize, need: &str) -> usize {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(n) if n >= min => n,
        _ => {
            eprintln!("error: bad {flag} (need {need})");
            std::process::exit(1);
        }
    }
}

fn config_for(args: &Args, arch: MicroArch) -> PipelineConfig {
    let mut cfg = if args.smoke {
        smoke_config(arch)
    } else if args.paper_scale {
        paper_scale_config(arch)
    } else {
        standard_config(arch)
    };
    if let Some(f) = args.flags_override {
        cfg.dataset.num_sequences = f;
    }
    if let Some(e) = args.epochs_override {
        cfg.static_params.epochs = e;
    }
    if let Some(h) = args.hidden_override {
        cfg.static_params.hidden = h;
    }
    cfg
}

fn main() {
    let _obs = irnuma_obs::init(irnuma_obs::Level::Info);
    let args = parse_args();
    let out_dir = Path::new("results");
    let want = |f: &str| {
        let extension = matches!(f, "ablations" | "input-sensitivity" | "cost-comparison");
        args.figs.contains(f)
            || (!extension && args.figs.contains("all"))
            || args.figs.contains("everything")
    };

    let t0 = Instant::now();
    // Every figure that trains a model reads the main evaluation of its
    // machine (and its dataset): one evaluation per machine, run light
    // unless a requested figure reads the hybrid router or the flag model.
    let need_skl = [
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig11",
        "fig12",
        "summary",
        "ablations",
        "input-sensitivity",
    ]
    .iter()
    .any(|f| want(f));
    let need_snb = ["fig5", "fig6", "fig8", "fig11", "summary"].iter().any(|f| want(f));
    let light = !["fig9", "fig11", "summary"].iter().any(|f| want(f));

    let main_eval = |arch: MicroArch, name: &str| {
        info!("[figures] evaluating {name} pipeline…");
        let cfg = PipelineConfig { light, ..config_for(&args, arch) };
        evaluate(&cfg).unwrap_or_else(|e| panic!("{name} pipeline evaluates: {e}"))
    };
    let skl: Option<Evaluation> = need_skl.then(|| main_eval(MicroArch::Skylake, "Skylake"));
    let snb: Option<Evaluation> =
        need_snb.then(|| main_eval(MicroArch::SandyBridge, "Sandy Bridge"));

    let emit = |report: irnuma_core::experiments::FigureReport| {
        println!("{report}");
        match report.write_csv(out_dir) {
            Ok(p) => info!("[figures] wrote {}", p.display()),
            Err(e) => irnuma_obs::warn!("[figures] CSV write failed: {e}"),
        }
    };

    if want("fig3") {
        emit(fig3::run(skl.as_ref().unwrap()).report());
    }
    if want("fig4") {
        emit(fig4::run(skl.as_ref().unwrap()).report());
    }
    if want("fig5") {
        emit(fig5::run(skl.as_ref().unwrap(), snb.as_ref().unwrap()).report());
    }
    // Fig. 7 is the Skylake 6-label evaluation that Fig. 6 sweeps through.
    let mut skl6: Option<Evaluation> = None;
    if want("fig6") {
        let mut figs = Vec::new();
        for main in [skl.as_ref().unwrap(), snb.as_ref().unwrap()] {
            info!("[figures] fig6 label sweep on {:?}…", main.cfg.arch);
            let (fig, evals) = fig6::run(main, &[2, 6, 13]);
            if main.cfg.arch == MicroArch::Skylake {
                skl6 = evals.into_iter().find(|(k, _)| *k == 6).map(|(_, e)| e);
            }
            figs.push(fig);
        }
        emit(fig6::report(&figs));
    }
    if want("fig7") {
        info!("[figures] fig7 (Skylake, 6 labels)…");
        let eval6 = skl6.unwrap_or_else(|| fig6::evaluate_labels(skl.as_ref().unwrap(), 6));
        emit(fig7::run(&eval6).report());
    }
    if want("fig8") {
        emit(fig8::run(skl.as_ref().unwrap(), snb.as_ref().unwrap()).report());
    }
    if want("fig9") {
        emit(fig9::run(skl.as_ref().unwrap()).report());
    }
    if want("fig10") {
        emit(fig10::run(if args.smoke { 3 } else { 10 }).report());
    }
    if want("fig11") {
        emit(fig11::run(&[skl.as_ref().unwrap(), snb.as_ref().unwrap()]).report());
    }
    if want("fig12") {
        emit(fig12::run(skl.as_ref().unwrap(), 4, if args.smoke { 12 } else { 30 }).report());
    }
    if want("ablations") {
        info!("[figures] ablations (Skylake, 3-fold)…");
        let skl = skl.as_ref().unwrap();
        emit(ablations::run(&skl.dataset, &skl.cfg).report());
    }
    if want("cost-comparison") {
        let cc = cost_comparison::run();
        match cc.write_json(out_dir) {
            Ok(p) => info!("[figures] wrote {}", p.display()),
            Err(e) => irnuma_obs::warn!("[figures] JSON write failed: {e}"),
        }
        emit(cc.report());
    }
    if want("input-sensitivity") {
        info!("[figures] input-sensitivity extension (Xeon Gold)…");
        let calls = if args.smoke { 3 } else { 8 };
        emit(input_sensitivity::run(skl.as_ref().unwrap(), 0.05, calls).report());
    }

    if want("summary") {
        let mut r = FigureReport::new(
            "summary",
            "Headline paper-vs-measured numbers",
            &["metric", "skylake", "sandy_bridge", "paper"],
        );
        let (s, b) = (skl.as_ref().unwrap(), snb.as_ref().unwrap());
        let f = |v: f64| format!("{v:.3}");
        r.push_row(vec![
            "full_exploration_speedup".into(),
            f(s.full_exploration_speedup()),
            f(b.full_exploration_speedup()),
            ">2x (avg)".into(),
        ]);
        r.push_row(vec![
            "label_set_coverage".into(),
            f(s.dataset.label_coverage()),
            f(b.dataset.label_coverage()),
            "~99%".into(),
        ]);
        r.push_row(vec![
            "static_speedup".into(),
            f(s.static_speedup()),
            f(b.static_speedup()),
            "~80% of dynamic".into(),
        ]);
        r.push_row(vec![
            "dynamic_speedup".into(),
            f(s.dynamic_speedup()),
            f(b.dynamic_speedup()),
            "reference".into(),
        ]);
        let ratio =
            |e: &Evaluation| (e.static_speedup() - 1.0) / (e.dynamic_speedup() - 1.0).max(1e-9);
        r.push_row(vec![
            "static/dynamic gain ratio".into(),
            f(ratio(s)),
            f(ratio(b)),
            "~0.8".into(),
        ]);
        r.push_row(vec![
            "hybrid_speedup".into(),
            f(s.hybrid_speedup()),
            f(b.hybrid_speedup()),
            "~dynamic".into(),
        ]);
        r.push_row(vec![
            "profiled_fraction".into(),
            f(s.profiled_fraction()),
            f(b.profiled_fraction()),
            "~30%".into(),
        ]);
        r.push_row(vec![
            "router_accuracy".into(),
            f(s.route_accuracy()),
            f(b.route_accuracy()),
            "~92%".into(),
        ]);
        r.push_row(vec![
            "static_label_accuracy".into(),
            f(s.static_label_accuracy()),
            f(b.static_label_accuracy()),
            "(13 labels)".into(),
        ]);
        emit(r);
    }

    info!("[figures] done in {:.1}s", t0.elapsed().as_secs_f64());
}
