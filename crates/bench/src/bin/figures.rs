//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! figures -- all                 # every figure, CSVs under results/
//! figures -- fig3 fig9           # a subset
//! figures -- summary             # headline numbers only
//! figures -- --smoke all         # tiny settings (CI)
//! figures -- --flags 200 all     # override the number of flag sequences
//! ```

use irnuma_bench::{paper_scale_config, smoke_config, standard_config};
use irnuma_core::dataset::build_dataset;
use irnuma_core::evaluation::{evaluate, evaluate_on, Evaluation, PipelineConfig};
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
    // Figures 3/4/5/8/9/11/12 and the summary all consume full evaluations.
    let need_skl = ["fig3", "fig4", "fig5", "fig7", "fig8", "fig9", "fig11", "fig12", "summary"]
        .iter()
        .any(|f| want(f));
    let need_snb = ["fig5", "fig8", "fig11", "summary"].iter().any(|f| want(f));

    let skl_cfg = config_for(&args, MicroArch::Skylake);
    let snb_cfg = config_for(&args, MicroArch::SandyBridge);

    let skl: Option<Evaluation> = need_skl.then(|| {
        info!("[figures] evaluating Skylake pipeline…");
        evaluate(&skl_cfg).expect("Skylake pipeline evaluates")
    });
    let snb: Option<Evaluation> = need_snb.then(|| {
        info!("[figures] evaluating Sandy Bridge pipeline…");
        evaluate(&snb_cfg).expect("Sandy Bridge pipeline evaluates")
    });

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
    if want("fig6") {
        let figs: Vec<fig6::Fig6> = [MicroArch::Skylake, MicroArch::SandyBridge]
            .into_iter()
            .map(|arch| {
                info!("[figures] fig6 label sweep on {arch:?}…");
                let mut cfg = config_for(&args, arch);
                cfg.light = true; // only static/dynamic needed for the sweep
                let ds = build_dataset(arch, &cfg.dataset);
                fig6::run(&cfg, &ds, &[2, 6, 13]).0
            })
            .collect();
        emit(fig6::report(&figs));
    }
    if want("fig7") {
        // Skylake, 6 labels (re-label + re-evaluate).
        info!("[figures] fig7 (Skylake, 6 labels)…");
        let ds = build_dataset(MicroArch::Skylake, &skl_cfg.dataset);
        let mut cfg6 = skl_cfg;
        cfg6.light = true;
        let eval6 =
            evaluate_on(&cfg6, fig6::relabel(&ds, 6)).expect("relabeled pipeline evaluates");
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
        let cfg = config_for(&args, MicroArch::Skylake);
        let ds = build_dataset(MicroArch::Skylake, &cfg.dataset);
        emit(ablations::run(&ds, cfg.static_params).report());
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
        let cfg = config_for(&args, MicroArch::Skylake);
        let ds = build_dataset(MicroArch::Skylake, &cfg.dataset);
        emit(
            input_sensitivity::run(&ds, cfg.static_params, 0.05, if args.smoke { 3 } else { 8 })
                .report(),
        );
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
