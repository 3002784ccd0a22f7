//! Step C cost: the NUMA/prefetch simulator — single calls and full-space
//! sweeps (288/320 configurations).

use criterion::{criterion_group, criterion_main, Criterion};
use irnuma_sim::{config_space, default_config, simulate, sweep_region, Machine, MicroArch};
use irnuma_workloads::{all_regions, InputSize};

fn bench_simulate(c: &mut Criterion) {
    let m = Machine::new(MicroArch::Skylake);
    let cfg = default_config(&m);
    let r = all_regions().into_iter().find(|r| r.name == "cg.spmv").unwrap();
    c.bench_function("sim/one_call", |b| {
        b.iter(|| {
            simulate(&r.name, &r.profile, &m, std::hint::black_box(&cfg), InputSize::Size1, 0)
        })
    });
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_sweep");
    g.sample_size(20);
    for arch in [MicroArch::Skylake, MicroArch::SandyBridge] {
        let m = Machine::new(arch);
        let r = all_regions().into_iter().find(|r| r.name == "bt.x_solve").unwrap();
        let n = config_space(&m).len();
        g.bench_function(format!("{arch:?}_{n}_configs"), |b| {
            b.iter(|| sweep_region(std::hint::black_box(&r), &m, InputSize::Size1, 3))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simulate, bench_sweep);
criterion_main!(benches);
