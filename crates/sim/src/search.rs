//! Exhaustive configuration exploration (paper step C) and per-call traces.

use crate::config::{config_space, Config};
use crate::cost::simulate;
use crate::machine::Machine;
use irnuma_workloads::{InputSize, RegionSpec};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mean execution time of a region under one configuration, sampling
/// `calls` invocations (the paper's sampled exploration uses 10 calls).
pub fn mean_time(r: &RegionSpec, m: &Machine, c: &Config, size: InputSize, calls: u32) -> f64 {
    let calls = calls.max(1);
    if irnuma_obs::telemetry_enabled() {
        irnuma_obs::counter!("sim.calls").inc(calls as u64);
    }
    let total: f64 = (0..calls).map(|k| simulate(&r.name, &r.profile, m, c, size, k).seconds).sum();
    total / calls as f64
}

/// [`mean_time`] with per-config failure isolation: a panic inside the cost
/// model for one configuration is caught and surfaced as an error naming
/// the configuration, instead of unwinding through the whole sweep.
fn try_mean_time(
    r: &RegionSpec,
    m: &Machine,
    c: &Config,
    size: InputSize,
    calls: u32,
) -> Result<f64, String> {
    catch_unwind(AssertUnwindSafe(|| mean_time(r, m, c, size, calls))).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "simulation panicked".to_string());
        format!("config {} failed: {msg}", c.label())
    })
}

/// Sweep the full configuration space of a machine for one region: the
/// mean time of every configuration, in [`config_space`] order. This is the
/// only loop that runs the simulator over a space (the hot path of step C),
/// parallel over configurations under one `sim.sweep` span.
///
/// Each configuration is fault-isolated. If any fails, the sweep fails with
/// the first failing configuration in canonical order, named together with
/// its panic message.
pub fn sweep_region(
    r: &RegionSpec,
    m: &Machine,
    size: InputSize,
    calls: u32,
) -> Result<Vec<f64>, String> {
    let space = config_space(m);
    let span = irnuma_obs::span!(
        "sim.sweep",
        region = r.name.as_str(),
        configs = space.len(),
        calls = calls
    );
    let ctx = span.ctx();
    let times: Vec<Result<f64, String>> = space
        .par_iter()
        .map(|c| {
            let _g = irnuma_obs::span_fanout!(ctx, "sim.config", config = c.label());
            try_mean_time(r, m, c, size, calls)
        })
        .collect();
    // A serial collect keeps the first error in canonical order.
    times.into_iter().collect()
}

/// Per-call execution-time trace (paper Fig. 12): `calls` invocations under
/// one configuration, in cycles of the machine's clock for fidelity with the
/// paper's y-axis.
pub fn per_call_trace(
    r: &RegionSpec,
    m: &Machine,
    c: &Config,
    size: InputSize,
    calls: u32,
) -> Vec<f64> {
    (0..calls).map(|k| simulate(&r.name, &r.profile, m, c, size, k).seconds * m.ghz * 1e9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_config;
    use crate::machine::MicroArch;
    use irnuma_workloads::all_regions;

    /// The best `(config, time)` of a sweep: the first minimum in canonical
    /// order.
    fn sweep_best(r: &RegionSpec, m: &Machine, calls: u32) -> (Config, f64) {
        let sweep = sweep_region(r, m, InputSize::Size1, calls).unwrap();
        let (i, t) = sweep.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1)).unwrap();
        (config_space(m)[i], *t)
    }

    #[test]
    fn best_config_beats_or_matches_default() {
        let m = Machine::new(MicroArch::Skylake);
        let regions = all_regions();
        for r in regions.iter().step_by(7) {
            let (best, t_best) = sweep_best(r, &m, 3);
            let t_def = mean_time(r, &m, &default_config(&m), InputSize::Size1, 3);
            assert!(
                t_best <= t_def * 1.0001,
                "{}: best {} ({t_best}) worse than default ({t_def})",
                r.name,
                best.label()
            );
        }
    }

    #[test]
    fn sweep_covers_the_whole_space() {
        let m = Machine::new(MicroArch::SandyBridge);
        let r = &all_regions()[0];
        let sweep = sweep_region(r, &m, InputSize::Size1, 2).unwrap();
        assert_eq!(sweep.len(), 320);
        // Times vary across the space — tuning exists.
        let min = sweep.iter().cloned().fold(f64::MAX, f64::min);
        let max = sweep.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.2, "space must matter: {min}..{max}");
    }

    #[test]
    fn sweep_times_follow_the_canonical_config_order() {
        // The parallel sweep must return exactly what a serial walk over
        // `config_space` computes, slot for slot.
        let m = Machine::new(MicroArch::Skylake);
        let r = &all_regions()[2];
        let sweep = sweep_region(r, &m, InputSize::Size1, 2).unwrap();
        let serial: Vec<f64> =
            config_space(&m).iter().map(|c| mean_time(r, &m, c, InputSize::Size1, 2)).collect();
        assert_eq!(sweep, serial);
    }

    #[test]
    fn try_mean_time_succeeds_on_a_healthy_config() {
        let m = Machine::new(MicroArch::Skylake);
        let r = &all_regions()[0];
        let t = try_mean_time(r, &m, &default_config(&m), InputSize::Size1, 2).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn traces_have_requested_length_and_positive_cycles() {
        let m = Machine::new(MicroArch::XeonGold);
        let r = &all_regions()[4];
        let tr = per_call_trace(r, &m, &default_config(&m), InputSize::Size1, 10);
        assert_eq!(tr.len(), 10);
        assert!(tr.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn full_space_average_speedup_exceeds_two_x() {
        // The paper's headline property of the space (§II-C): against the
        // already-optimized default, full exploration yields >2× arithmetic
        // mean speedup. This is the calibration anchor of the simulator.
        // Four-node Sandy Bridge has the most placement headroom (>2× on its
        // own); the dual-node Skylake lands somewhat lower, and the
        // cross-machine mean must clear 1.95.
        let mut means = Vec::new();
        for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
            let m = Machine::new(arch);
            let regions = all_regions();
            let speedups: Vec<f64> = regions
                .iter()
                .map(|r| {
                    let t_def = mean_time(r, &m, &default_config(&m), InputSize::Size1, 3);
                    let (_, t_best) = sweep_best(r, &m, 3);
                    t_def / t_best
                })
                .collect();
            let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
            means.push(mean);
            let floor = if arch == MicroArch::SandyBridge { 2.0 } else { 1.7 };
            assert!(mean > floor, "{arch:?}: mean full-space speedup {mean:.2} (want > {floor})");
        }
        let overall = means.iter().sum::<f64>() / means.len() as f64;
        assert!(overall > 1.95, "cross-machine mean {overall:.2} (want > 1.95)");
    }
}
