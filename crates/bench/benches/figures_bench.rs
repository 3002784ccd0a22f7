//! Wall-time of the experiment harness itself: dataset construction
//! (steps A–C over all 56 regions) and one cross-validation fold of model
//! training — the units every figure is built from. The hybrid router and
//! flag model cases time their GA feature selection, whose fitness is the
//! leave-one-out accuracy of a decision tree per candidate subset, scored
//! through one `irnuma_ml::LooFolds` table per GA. Results land in
//! `BENCH_figures.json` at the repo root.
//!
//! CI smoke mode: set `IRNUMA_BENCH_QUICK=1` to time only the two GA
//! stages (`train_hybrid_router_one_fold`, `train_flags_one_fold`), on the
//! same fold and static model as a full run. Regression gating lives in
//! `irnuma bench-check` (absolute ceilings on both GA stages in
//! `results/bench_baselines.json`); the bench itself always exits zero so
//! a noisy run can't mask the numbers.

use criterion::Criterion;
use irnuma_core::bench_check::write_bench_json;
use irnuma_core::dataset::{build_dataset, DatasetParams};
use irnuma_core::models::flags::FlagParams;
use irnuma_core::models::hybrid::HybridParams;
use irnuma_core::models::static_gnn::{StaticModel, StaticParams};
use irnuma_core::models::{DynamicModel, FlagModel, HybridModel};
use irnuma_ml::{kfold, GaParams};
use irnuma_sim::MicroArch;

fn bench_dataset(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("dataset_56regions_4seqs", |b| {
        b.iter(|| {
            build_dataset(
                MicroArch::Skylake,
                &DatasetParams { num_sequences: 4, calls: 3, ..Default::default() },
            )
        })
    });
    g.finish();
}

fn bench_fold(c: &mut Criterion, quick: bool) {
    let ds = build_dataset(
        MicroArch::Skylake,
        &DatasetParams { num_sequences: 4, calls: 3, ..Default::default() },
    );
    let folds = kfold(ds.regions.len(), 10, 1).expect("10 folds fit the region suite");
    let train: Vec<usize> = irnuma_ml::cv::train_indices(&folds, 0);
    let sp = StaticParams { hidden: 16, epochs: 5, train_sequences: 2, ..Default::default() };
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    if !quick {
        g.bench_function("train_static_one_fold_h16_e5", |b| {
            b.iter(|| StaticModel::train(&ds, &train, sp))
        });
        g.bench_function("train_dynamic_one_fold", |b| b.iter(|| DynamicModel::train(&ds, &train)));
    }

    // The GA stages run on top of one fold's static model.
    let sm = StaticModel::train(&ds, &train, sp);
    let hp = HybridParams {
        inner_folds: 3,
        ga: GaParams { population: 48, generations: 8, ..Default::default() },
        ..Default::default()
    };
    g.bench_function("train_hybrid_router_one_fold", |b| {
        b.iter(|| HybridModel::train(&ds, &sm, &train, hp, sp))
    });
    g.bench_function("train_flags_one_fold", |b| {
        b.iter(|| FlagModel::train(&ds, &sm, &train, FlagParams::default()))
    });
    g.finish();
}

fn main() {
    let quick = std::env::var("IRNUMA_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
    let mut c = Criterion::default().configure_from_args();
    if !quick {
        bench_dataset(&mut c);
    }
    bench_fold(&mut c, quick);
    let path = write_bench_json("figures", c.medians()).expect("write bench json");
    println!("wrote {} — gate with `irnuma bench-check`", path.display());
}
