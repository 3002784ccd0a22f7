//! Diagnostic dump used to calibrate the cost model: per-region default vs
//! best times, winning configuration, and speedup distribution. Output goes
//! through the obs log layer, so `IRNUMA_LOG=warn` silences the per-region
//! rows and `IRNUMA_TRACE=<file>` records the sweep spans.

use irnuma_obs::info;
use irnuma_sim::{config_space, default_config, simulate, sweep_region, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize};

fn main() {
    let _obs = irnuma_obs::init(irnuma_obs::Level::Info);
    for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
        let m = Machine::new(arch);
        let space = config_space(&m);
        info!("==== {arch:?} (space={}) ====", space.len());
        let mut speedups = Vec::new();
        for r in all_regions() {
            let sweep = sweep_region(&r, &m, InputSize::Size1, 3).expect("sweep");
            let t_def = sweep[space.iter().position(|c| *c == default_config(&m)).unwrap()];
            let (best, t_best) = space
                .iter()
                .zip(&sweep)
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, t)| (*c, *t))
                .unwrap();
            let s = t_def / t_best;
            speedups.push(s);
            let eff = irnuma_sim::cost::effective_profile(&r.name, &r.profile);
            info!(
                "{:28} def={:9.4}ms best={:9.4}ms  x{:5.2}  {}  pat={:?}",
                r.name,
                t_def * 1e3,
                t_best * 1e3,
                s,
                best.label(),
                eff.pattern,
            );
        }
        speedups.sort_by(f64::total_cmp);
        let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
        info!(
            "mean speedup {:.3}  median {:.3}  max {:.3}",
            mean,
            speedups[speedups.len() / 2],
            speedups.last().unwrap()
        );
        let _ = simulate(
            "probe",
            &all_regions()[0].profile,
            &m,
            &default_config(&m),
            InputSize::Size1,
            0,
        );
    }
}
