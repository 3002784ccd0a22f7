//! Autotune one region: sweep the full NUMA × prefetch space on both
//! machines and dissect *why* the winning configuration wins.
//!
//! ```text
//! cargo run --release -p irnuma-core --example autotune_region [region-name]
//! ```

use irnuma_sim::{config_space, default_config, simulate, sweep_region, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "cg.spmv".to_string());
    let region = all_regions().into_iter().find(|r| r.name == name).unwrap_or_else(|| {
        eprintln!("unknown region `{name}`; available:");
        for r in all_regions() {
            eprintln!("  {}", r.name);
        }
        std::process::exit(1);
    });

    println!("=== autotuning {} ===", region.name);
    println!("shape: {:?}", region.shape);
    println!(
        "profile: ws={} MiB, {:?}, fp/byte={:.2}, sharing={:.2}, atomics/kacc={:.1}\n",
        region.profile.working_set_bytes >> 20,
        region.profile.pattern,
        region.profile.flops_per_byte,
        region.profile.sharing,
        region.profile.atomic_per_kaccess,
    );

    for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
        let m = Machine::new(arch);
        let space = config_space(&m);
        let sweep = sweep_region(&region, &m, InputSize::Size1, 6).expect("sweep");
        let def = default_config(&m);
        let t_def = sweep[space.iter().position(|c| *c == def).unwrap()];

        let mut ranked: Vec<_> = space.iter().zip(&sweep).collect();
        ranked.sort_by(|a, b| a.1.total_cmp(b.1));

        println!(
            "--- {arch:?}: {} configurations, default {} = {:.3}ms ---",
            space.len(),
            def.label(),
            t_def * 1e3
        );
        println!("top 5:");
        for &(c, t) in ranked.iter().take(5) {
            println!("  {:<26} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
        }
        println!("bottom 3:");
        for &(c, t) in ranked.iter().rev().take(3) {
            println!("  {:<26} {:>9.3}ms  x{:.2}", c.label(), t * 1e3, t_def / t);
        }

        // Counters under default vs best: the dynamic model's view.
        let best = *ranked[0].0;
        let m_def = simulate(&region.name, &region.profile, &m, &def, InputSize::Size1, 0);
        let m_best = simulate(&region.name, &region.profile, &m, &best, InputSize::Size1, 0);
        println!(
            "counters     default: power {:>6.1}W  l3-miss {:.2}  remote {:.2}  bw {:>6.1}GiB/s",
            m_def.counters.package_power_w,
            m_def.counters.l3_miss_ratio,
            m_def.counters.remote_access_ratio,
            m_def.counters.dram_bw_gibs
        );
        println!(
            "             best:    power {:>6.1}W  l3-miss {:.2}  remote {:.2}  bw {:>6.1}GiB/s\n",
            m_best.counters.package_power_w,
            m_best.counters.l3_miss_ratio,
            m_best.counters.remote_access_ratio,
            m_best.counters.dram_bw_gibs
        );
    }
}
