//! The execution-time and performance-counter model.
//!
//! The model is an analytic composition of the mechanisms that make NUMA and
//! prefetcher tuning matter on real machines (it is *not* fitted to the
//! paper's numbers — the shapes emerge from the mechanisms):
//!
//! * **roofline**: a region is limited by compute, DRAM bandwidth, or
//!   serialized memory latency, whichever bound is slowest;
//! * **cache filtering**: DRAM traffic is the working set scaled by a
//!   pattern-dependent traffic factor and the L3 miss ratio; useless
//!   prefetches pollute the L3 (capacity loss) and overfetch (extra
//!   bandwidth), useful ones hide latency;
//! * **page placement**: each policy splits traffic into portions served by
//!   different sets of memory controllers, with hotspots (shared pages under
//!   locality, serial-init clumps under first-touch) and inter-node link
//!   crossings; the slowest controller or link is the bandwidth bound;
//! * **atomics**: read-modify-write contention grows superlinearly with
//!   threads × sharing, so contended regions prefer fewer threads;
//! * **Amdahl**: the serial fraction runs on one core;
//! * **hidden dynamics**: a per-region perturbation (seeded by the region
//!   name, weighted by `dynamic_sensitivity`) that the IR graphs cannot
//!   encode — the cause of the static model's misprediction tail;
//! * **noise**: deterministic ±2% per (region, config, call).

use crate::config::{Config, PageMapping, ThreadMapping};
use crate::machine::Machine;
use irnuma_workloads::{AccessPattern, DynamicProfile, InputSize};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write as _};

/// Simulated performance counters — the dynamic features of the paper
/// (Sánchez Barrera's best model uses package power + L3 miss ratio).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Counters {
    /// Average package power over the call (W).
    pub package_power_w: f64,
    /// L3 miss ratio (0–1).
    pub l3_miss_ratio: f64,
    /// Fraction of DRAM accesses served by a remote node.
    pub remote_access_ratio: f64,
    /// Consumed DRAM bandwidth (GiB/s).
    pub dram_bw_gibs: f64,
    /// Retired-instruction throughput proxy (IPC per core).
    pub ipc: f64,
}

/// One simulated region invocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    pub seconds: f64,
    pub counters: Counters,
}

/// FNV-1a, the deterministic seed for all hidden/noise terms. As a
/// [`fmt::Write`] sink it hashes formatted text without building a `String`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

fn fnv(s: &str) -> u64 {
    let mut h = Fnv::new();
    let _ = h.write_str(s);
    h.0
}

/// A uniform in [0, 1) from a hash and a stream index.
fn uniform(h: u64, stream: u64) -> f64 {
    let mut x = h ^ stream.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^= x >> 33;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Pattern constants: `(traffic_factor, latency_bound_fraction, mlp)`.
fn pattern_constants(p: AccessPattern) -> (f64, f64, f64) {
    match p {
        AccessPattern::Streaming => (1.0, 0.04, 12.0),
        AccessPattern::Stencil => (0.7, 0.08, 10.0),
        AccessPattern::Strided => (2.0, 0.22, 8.0),
        AccessPattern::Gather => (3.2, 0.5, 4.0),
        AccessPattern::PointerChase => (6.0, 0.95, 1.3),
        AccessPattern::Reduction => (1.1, 0.25, 6.0),
    }
}

/// The region's *true* runtime behaviour: the declared profile perturbed by
/// hidden, name-seeded dynamics proportional to `dynamic_sensitivity`.
/// Consistent across configurations (it is a property of the region), and
/// invisible to any model that only sees the IR.
pub fn effective_profile(region_name: &str, p: &DynamicProfile) -> DynamicProfile {
    perturb(fnv(region_name), p)
}

/// [`effective_profile`] for the region whose name hashes to `h`.
fn perturb(h: u64, p: &DynamicProfile) -> DynamicProfile {
    let d = p.dynamic_sensitivity;
    let mut q = p.clone();
    // Working set swells or shrinks at runtime (allocation/input dependent).
    q.working_set_bytes =
        ((p.working_set_bytes as f64) * (1.0 + d * (uniform(h, 1) * 2.0 - 0.5))).max(4096.0) as u64;
    // Sharing shifts (runtime communication patterns).
    q.sharing = (p.sharing + d * (uniform(h, 2) - 0.4)).clamp(0.0, 1.0);
    // Strongly sensitive regions may have a dominant pattern that is not
    // what the code shape suggests (data-dependent access).
    if d > 0.25 && uniform(h, 3) < d {
        let idx = (uniform(h, 4) * AccessPattern::ALL.len() as f64) as usize;
        q.pattern = AccessPattern::ALL[idx.min(AccessPattern::ALL.len() - 1)];
    }
    q.atomic_per_kaccess = p.atomic_per_kaccess * (1.0 + d * (uniform(h, 5) * 2.0 - 0.8));
    q
}

/// Core of the model: time and counters for one call.
///
/// ```
/// use irnuma_sim::{default_config, simulate, Machine, MicroArch};
/// use irnuma_workloads::{all_regions, InputSize};
///
/// let region = &all_regions()[0];
/// let m = Machine::new(MicroArch::Skylake);
/// let meas = simulate(&region.name, &region.profile, &m, &default_config(&m), InputSize::Size1, 0);
/// assert!(meas.seconds > 0.0);
/// assert!(meas.counters.l3_miss_ratio <= 1.0);
/// ```
pub fn simulate(
    region_name: &str,
    profile: &DynamicProfile,
    m: &Machine,
    c: &Config,
    size: InputSize,
    call: u32,
) -> Measurement {
    let h = fnv(region_name);
    let p = perturb(h, profile);
    let (traffic_factor, lat_frac, mlp) = pattern_constants(p.pattern);
    let pf = c.prefetch.aggregate(p.pattern);

    let threads = c.threads.max(1) as f64;
    let nodes_used = c.nodes.max(1) as f64;
    let all_nodes = m.nodes as f64;

    // ---- cache filtering -------------------------------------------------
    let ws = p.working_set(size) as f64;
    let eff_l3 = m.l3_bytes(c.nodes) as f64 * (1.0 - 0.85 * pf.pollution);
    let l3_miss = (((ws - eff_l3) / ws).max(0.0) * 0.96 + 0.04).min(1.0);

    // Logical bytes touched per call and the DRAM portion.
    let bytes_logical = ws * traffic_factor;
    let bytes_dram = bytes_logical * l3_miss * (1.0 + pf.overfetch);

    // ---- page placement: traffic portions --------------------------------
    // Each portion: (fraction, controllers serving it, link-crossing frac).
    let neighbor_affinity = match c.thread_map {
        // Contiguous keeps neighbor-sharing on-node for spatial patterns.
        ThreadMapping::Contiguous => match p.pattern {
            AccessPattern::Stencil | AccessPattern::Streaming => 0.40,
            _ => 0.85,
        },
        ThreadMapping::RoundRobin => 1.0,
    };
    let sharing = (p.sharing * neighbor_affinity).clamp(0.0, 1.0);

    // Each policy yields a `hot` traffic fraction concentrated on a single
    // controller, a `spread` fraction distributed over `spread_nodes`
    // controllers, and a link-crossing fraction. The bandwidth bound is set
    // by the most-loaded controller, which also serves its share of the
    // spread traffic.
    let (hot, spread_nodes, link_frac) = match c.page_map {
        // Private pages land locally; shared pages concentrate on their
        // majority node: hotspot.
        PageMapping::Locality => (sharing, nodes_used, sharing * (1.0 - 1.0 / nodes_used)),
        PageMapping::FirstTouch => {
            // Serial-init clump: data touched before the parallel phase all
            // sits on one node (worse for irregular codes).
            let clump = (0.30 + 0.4 * p.branch_entropy).min(0.9);
            let hot = clump + (1.0 - clump) * sharing;
            (hot, nodes_used, hot * (1.0 - 1.0 / nodes_used))
        }
        PageMapping::Interleave => (0.0, all_nodes, 1.0 - 1.0 / all_nodes),
        PageMapping::Balance => (0.0, nodes_used, 1.0 - 1.0 / nodes_used),
    };
    let max_ctrl_load = hot + (1.0 - hot) / spread_nodes;

    // Demand misses alone cannot keep the memory pipeline full: sustained
    // bandwidth scales with prefetch coverage (the reason streaming codes
    // want their prefetchers ON even though prefetching costs some traffic).
    let bw_efficiency = 0.5 + 0.5 * pf.coverage;
    // Memory-level interference: the more cores issue traffic, the more DRAM
    // row conflicts and queueing — full occupancy is not free.
    let occ_total = (threads / m.total_cores() as f64).min(1.0);
    let interference = 1.0 + 0.6 * occ_total * occ_total;
    let node_bw = m.node_bw_gibs * 1024.0 * 1024.0 * 1024.0 * bw_efficiency / interference;
    let link_bw = m.link_bw_gibs * 1024.0 * 1024.0 * 1024.0 * bw_efficiency / interference;

    let t_ctrl = bytes_dram * max_ctrl_load / node_bw;
    let link_bytes = bytes_dram * link_frac;
    let links = nodes_used.min(all_nodes);
    let t_link = if link_bytes > 0.0 { link_bytes / (links * link_bw) } else { 0.0 };
    let t_bw = t_ctrl.max(t_link);
    let remote_ratio = if bytes_dram > 0.0 { link_bytes / bytes_dram } else { 0.0 };

    // ---- latency bound ----------------------------------------------------
    let line = 64.0;
    let dependent_lines = bytes_dram / line * lat_frac;
    let avg_lat_ns = m.local_lat_ns * (1.0 - remote_ratio) + m.remote_lat_ns * remote_ratio;
    // Prefetch coverage hides part of the miss latency; an L3-hit floor stays.
    let lat_eff_ns = avg_lat_ns * (1.0 - 0.9 * pf.coverage) + 12.0;
    let t_lat = dependent_lines * lat_eff_ns * 1e-9 / (threads * mlp).max(1.0);

    // ---- compute bound ----------------------------------------------------
    let flops = bytes_logical * p.flops_per_byte;
    let core_util = 0.30 * (1.0 - 0.5 * p.branch_entropy);
    let flops_rate = threads * m.ghz * 1e9 * m.flops_per_cycle * core_util;
    let t_comp = flops / flops_rate;

    // ---- atomics -----------------------------------------------------------
    let accesses = bytes_logical / 8.0;
    let atomic_ops = accesses * p.atomic_per_kaccess / 1000.0;
    // Contended RMW cost grows with the number of participants that share.
    // Uncontended RMWs scale with threads; contended ones serialize on the
    // cache line and get *slower* as more cores ping-pong it.
    let contended_frac = (p.sharing * p.sharing * 0.25).min(1.0);
    let line_cost_ns = 30.0 * (1.0 + 0.02 * threads);
    let t_atomic = atomic_ops * (1.0 - contended_frac) * 20.0e-9 / threads
        + atomic_ops * contended_frac * line_cost_ns * 1e-9;

    // ---- coherence ----------------------------------------------------------
    // Read-write sharing causes invalidation traffic whose per-event cost
    // grows with the number of contending cores (invalidation storms). This
    // is the main reason fully-threaded runs lose on shared-write regions.
    let coh_events = accesses * (p.sharing * p.write_ratio) * 0.02;
    let coh_cost_ns = 45.0 * (1.0 + 0.05 * threads * p.sharing);
    let t_coh = coh_events * coh_cost_ns * 1e-9 / threads;

    // ---- combine ------------------------------------------------------------
    let t_parallel = t_bw.max(t_lat).max(t_comp) + t_atomic + t_coh;
    // Serial fraction: single thread, local node, no contention.
    let t1_comp = flops / (m.ghz * 1e9 * m.flops_per_cycle * core_util);
    let t1_mem = (bytes_dram / node_bw).max(dependent_lines * (m.local_lat_ns + 12.0) * 1e-9 / mlp);
    let t_serial = (1.0 - p.parallel_fraction) * t1_comp.max(t1_mem) * 0.25;

    // Phase behaviour across calls (visible in Fig. 12 traces): dynamically
    // sensitive regions oscillate between a fast and a slow phase.
    let period = 2 + (uniform(h, 6) * 4.0) as u32;
    let phase_mul = if p.dynamic_sensitivity > 0.25 && (call / period) % 2 == 1 {
        1.0 + 0.8 * p.dynamic_sensitivity
    } else {
        1.0
    };

    // Deterministic ±2% measurement noise.
    let mut nh = Fnv::new();
    let _ = write!(nh, "{region_name}|{c}|{call}");
    let noise = 0.98 + 0.04 * uniform(nh.0, 7);

    let seconds = (t_parallel + t_serial) * phase_mul * noise;

    // ---- counters -----------------------------------------------------------
    let occupancy = (threads / (nodes_used * m.cores_per_node as f64)).min(1.0);
    let compute_share = if t_parallel > 0.0 { (t_comp / t_parallel).min(1.0) } else { 0.0 };
    let package_power_w =
        nodes_used * m.tdp_w_per_node * (0.35 + 0.65 * occupancy * (0.55 + 0.45 * compute_share));
    let dram_bw_gibs = bytes_dram / seconds.max(1e-12) / (1024.0 * 1024.0 * 1024.0);
    let instr = accesses * 4.0 + flops;
    let cycles = seconds * m.ghz * 1e9 * threads;
    let ipc = (instr / cycles.max(1.0)).min(4.0);

    Measurement {
        seconds,
        counters: Counters {
            package_power_w,
            l3_miss_ratio: l3_miss,
            remote_access_ratio: remote_ratio,
            dram_bw_gibs,
            ipc,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{config_space, default_config};
    use crate::machine::MicroArch;
    use irnuma_workloads::all_regions;

    fn region(name: &str) -> irnuma_workloads::RegionSpec {
        all_regions().into_iter().find(|r| r.name == name).unwrap()
    }

    fn sim_default(name: &str, arch: MicroArch) -> Measurement {
        let r = region(name);
        let m = Machine::new(arch);
        simulate(&r.name, &r.profile, &m, &default_config(&m), InputSize::Size1, 0)
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = sim_default("cg.spmv", MicroArch::Skylake);
        let b = sim_default("cg.spmv", MicroArch::Skylake);
        assert_eq!(a, b);
    }

    #[test]
    fn times_are_positive_and_finite() {
        let m = Machine::new(MicroArch::SandyBridge);
        for r in all_regions() {
            for c in config_space(&m).iter().step_by(17) {
                for size in [InputSize::Size1, InputSize::Size2] {
                    let meas = simulate(&r.name, &r.profile, &m, c, size, 0);
                    assert!(
                        meas.seconds.is_finite() && meas.seconds > 0.0,
                        "{} {}",
                        r.name,
                        c.label()
                    );
                    assert!(meas.counters.package_power_w > 0.0);
                    assert!((0.0..=1.0).contains(&meas.counters.l3_miss_ratio));
                    assert!((0.0..=1.0).contains(&meas.counters.remote_access_ratio));
                }
            }
        }
    }

    #[test]
    fn size2_is_slower_than_size1() {
        let r = region("hotspot.temp");
        let m = Machine::new(MicroArch::XeonGold);
        let c = default_config(&m);
        let t1 = simulate(&r.name, &r.profile, &m, &c, InputSize::Size1, 0).seconds;
        let t2 = simulate(&r.name, &r.profile, &m, &c, InputSize::Size2, 0).seconds;
        assert!(t2 > t1 * 1.5, "bigger input must cost more: {t1} vs {t2}");
    }

    #[test]
    fn prefetchers_help_streaming_and_hurt_pointer_chasing() {
        let m = Machine::new(MicroArch::Skylake);
        let on = default_config(&m);
        let off = Config { prefetch: crate::prefetch::PrefetchMask::ALL_OFF, ..on };

        let tri = region("ft.evolve"); // streaming
        let t_on = simulate(&tri.name, &tri.profile, &m, &on, InputSize::Size1, 0).seconds;
        let t_off = simulate(&tri.name, &tri.profile, &m, &off, InputSize::Size1, 0).seconds;
        assert!(t_on < t_off, "streaming wants prefetchers: on={t_on} off={t_off}");

        let chase = region("clomp.calc_zones"); // pointer chase
        let t_on = simulate(&chase.name, &chase.profile, &m, &on, InputSize::Size1, 0).seconds;
        let t_off = simulate(&chase.name, &chase.profile, &m, &off, InputSize::Size1, 0).seconds;
        assert!(t_off < t_on, "chasing wants prefetchers off: on={t_on} off={t_off}");
    }

    #[test]
    fn contended_atomics_prefer_fewer_threads() {
        let r = region("is.full_verify"); // histogram: atomic heavy, shared
        let m = Machine::new(MicroArch::Skylake);
        let full = default_config(&m);
        let half = Config { threads: 24, nodes: 2, ..full };
        let t_full = simulate(&r.name, &r.profile, &m, &full, InputSize::Size1, 0).seconds;
        let t_half = simulate(&r.name, &r.profile, &m, &half, InputSize::Size1, 0).seconds;
        assert!(t_half < t_full, "contention: 24t={t_half} vs 48t={t_full}");
    }

    #[test]
    fn shared_heavy_regions_prefer_interleave_over_locality() {
        let r = region("kmeans.update"); // atomic reduction, sharing 0.8
        let m = Machine::new(MicroArch::SandyBridge);
        let loc = default_config(&m);
        let il = Config { page_map: PageMapping::Interleave, ..loc };
        let t_loc = simulate(&r.name, &r.profile, &m, &loc, InputSize::Size1, 0).seconds;
        let t_il = simulate(&r.name, &r.profile, &m, &il, InputSize::Size1, 0).seconds;
        assert!(t_il < t_loc, "hotspot relief: interleave={t_il} locality={t_loc}");
    }

    #[test]
    fn private_streaming_prefers_locality_over_interleave() {
        let r = region("srad.update"); // streaming, sharing 0.05
        let m = Machine::new(MicroArch::SandyBridge);
        let loc = default_config(&m);
        let il = Config { page_map: PageMapping::Interleave, ..loc };
        let t_loc = simulate(&r.name, &r.profile, &m, &loc, InputSize::Size1, 0).seconds;
        let t_il = simulate(&r.name, &r.profile, &m, &il, InputSize::Size1, 0).seconds;
        assert!(t_loc <= t_il, "locality wins for private data: loc={t_loc} il={t_il}");
    }

    #[test]
    fn effective_profile_is_stable_per_region_and_perturbs_sensitive_ones() {
        let stable = region("sp.compute_rhs");
        let e1 = effective_profile(&stable.name, &stable.profile);
        let e2 = effective_profile(&stable.name, &stable.profile);
        assert_eq!(e1, e2, "hidden dynamics are deterministic");

        let sens = region("bt.z_solve"); // dynamic_sensitivity 0.55
        let e = effective_profile(&sens.name, &sens.profile);
        let ws_drift =
            (e.working_set_bytes as f64 / sens.profile.working_set_bytes as f64 - 1.0).abs();
        let sharing_drift = (e.sharing - sens.profile.sharing).abs();
        let pattern_changed = e.pattern != sens.profile.pattern;
        assert!(
            ws_drift > 0.05 || sharing_drift > 0.05 || pattern_changed,
            "sensitive region must drift somewhere: ws={ws_drift} sharing={sharing_drift}"
        );

        let calm = region("cg.axpy"); // sensitivity 0.05
        let e = effective_profile(&calm.name, &calm.profile);
        let drift =
            (e.working_set_bytes as f64 / calm.profile.working_set_bytes as f64 - 1.0).abs();
        assert!(drift < 0.1, "calm region barely drifts, got {drift}");
    }

    #[test]
    fn phase_behavior_appears_only_in_sensitive_regions() {
        let m = Machine::new(MicroArch::XeonGold);
        let c = default_config(&m);
        let sens = region("mg.interp");
        let times: Vec<f64> = (0..12)
            .map(|k| simulate(&sens.name, &sens.profile, &m, &c, InputSize::Size1, k).seconds)
            .collect();
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 1.2, "phases visible: {times:?}");

        let calm = region("cg.axpy");
        let times: Vec<f64> = (0..12)
            .map(|k| simulate(&calm.name, &calm.profile, &m, &c, InputSize::Size1, k).seconds)
            .collect();
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        let max = times.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.1, "calm region is flat: {times:?}");
    }
}
