//! Golden pin of the GA-selected router and flag models: one fold of
//! `HybridModel::train` and `FlagModel::train` at a small fixed scale must
//! reproduce the selected embedding dimensions, the flag candidates and
//! every region's routing and sequence prediction exactly. The expected
//! values were recorded with the sort-per-node CART that preceded the
//! presorted builder, so any drift in the trees or the GA fitness shows up
//! here.

use irnuma_core::dataset::{build_dataset, DatasetParams};
use irnuma_core::models::flags::FlagParams;
use irnuma_core::models::hybrid::HybridParams;
use irnuma_core::models::{FlagModel, HybridModel, StaticModel, StaticParams};
use irnuma_ml::cv::train_indices;
use irnuma_ml::{kfold, GaParams};
use irnuma_sim::MicroArch;

#[test]
fn one_fold_router_and_flag_models_match_the_recorded_outputs() {
    let ds = build_dataset(
        MicroArch::Skylake,
        &DatasetParams { num_sequences: 4, calls: 2, ..Default::default() },
    );
    let folds = kfold(ds.regions.len(), 4, 1).expect("4 folds fit the region suite");
    let train = train_indices(&folds, 0);
    let sp = StaticParams { hidden: 24, epochs: 6, train_sequences: 4, ..Default::default() };
    let sm = StaticModel::train(&ds, &train, sp);

    let hp = HybridParams {
        inner_folds: 2,
        ga: GaParams { population: 16, generations: 3, ..Default::default() },
        ..Default::default()
    };
    let hm = HybridModel::train(&ds, &sm, &train, hp, sp);
    // Full coverage keeps the candidate list from stopping at one sequence,
    // so the flag tree has more than one class to separate.
    let fp = FlagParams {
        target_coverage: 1.0,
        ga: GaParams { population: 16, generations: 3, seed: 77, ..Default::default() },
        ..Default::default()
    };
    let fm = FlagModel::train(&ds, &sm, &train, fp);

    let n = ds.regions.len();
    let routes: String =
        (0..n).map(|r| if hm.route_to_dynamic(&ds, &sm, r) { '1' } else { '0' }).collect();
    let seqs: String = (0..n)
        .map(|r| char::from_digit(fm.predict_seq(&ds, &sm, r) as u32, 10).expect("< 10 sequences"))
        .collect();
    assert_eq!(hm.selected_dims, [7, 12, 16, 26, 27, 31, 32, 34, 36, 37]);
    assert_eq!(fm.selected_dims, [0, 2, 3, 5, 7, 8, 13, 16, 19, 20]);
    assert_eq!(fm.candidates, [1, 0]);
    assert_eq!(routes, "11111111001111111111111111111111111111111111111111111111");
    assert_eq!(seqs, "11111111111111111111111111011111101111111111111111111111");
}
