//! Cross-crate check: every catalog region survives extraction, arbitrary
//! flag sequences, and graph construction — the full static path of step A/B.

use irnuma_graph::{build_module_graph, Vocab};
use irnuma_ir::extract::extract_region;
use irnuma_ir::verify_module;
use irnuma_passes::{registry, sample_sequences, PassManager, SampleParams};
use irnuma_workloads::all_regions;

#[test]
fn all_regions_pass_the_static_pipeline() {
    let vocab = Vocab::full();
    let pm = PassManager::new(true);
    let seqs = sample_sequences(3, 42, SampleParams::default());
    for r in all_regions() {
        let base = r.module();
        for seq in &seqs {
            let mut m = base.clone();
            pm.run(&mut m, &seq.passes)
                .unwrap_or_else(|e| panic!("{} × seq{}: {e}", r.name, seq.id));
            let extracted =
                extract_region(&m, &r.region_fn()).unwrap_or_else(|e| panic!("{}: {e}", r.name));
            verify_module(&extracted).unwrap();
            let g = build_module_graph(&extracted, &vocab);
            g.validate().unwrap();
            assert!(g.num_nodes() > 8, "{}: graph too small ({})", r.name, g.num_nodes());
            assert!(g.num_edges() >= g.num_nodes() - 1, "{}: suspiciously sparse", r.name);
        }
    }
}

#[test]
fn flag_sequences_produce_distinct_graph_populations() {
    // The augmentation premise at suite level: across regions and sequences,
    // the number of distinct graphs should be close to regions × sequences.
    let vocab = Vocab::full();
    let pm = PassManager::new(false);
    let seqs = sample_sequences(4, 7, SampleParams::default());
    let regions = all_regions();
    let mut distinct = std::collections::HashSet::new();
    let mut total = 0usize;
    for r in regions.iter().take(12) {
        for seq in &seqs {
            let mut m = r.module();
            pm.run(&mut m, &seq.passes).unwrap();
            let g = build_module_graph(&extract(&m, r), &vocab);
            distinct.insert(format!("{:?}", g));
            total += 1;
        }
    }
    assert!(
        distinct.len() * 2 > total,
        "graphs collapse too much: {} distinct of {total}",
        distinct.len()
    );
}

#[test]
fn every_pass_is_a_function_of_its_input_module() {
    // The dataset build's pass memo reuses a transition once computed, so a
    // pass must give `==` modules on equal inputs, arena ids included. Each
    // run sees fresh per-map hash seeds, so a pass that walks a hash map or
    // set while allocating shows up here.
    let pm = PassManager::new(false);
    let passes = registry();
    let seqs = sample_sequences(2, 11, SampleParams::default());
    for r in all_regions() {
        let mut states = vec![r.module()];
        for seq in &seqs {
            let mut m = r.module();
            let n = seq.passes.len();
            for (i, name) in seq.passes.iter().enumerate() {
                let pass = passes.iter().find(|p| p.name() == name).unwrap();
                pm.apply(pass.as_ref(), &mut m).unwrap();
                if i == n / 3 || i == 2 * n / 3 {
                    states.push(m.clone());
                }
            }
            pm.finish(&mut m).unwrap();
            states.push(m);
        }
        for (i, state) in states.iter().enumerate() {
            for pass in &passes {
                let (mut a, mut b) = (state.clone(), state.clone());
                pass.run(&mut a);
                pass.run(&mut b);
                assert!(a == b, "{} state {i}: `{}` differs between runs", r.name, pass.name());
            }
        }
    }
}

fn extract(m: &irnuma_ir::Module, r: &irnuma_workloads::RegionSpec) -> irnuma_ir::Module {
    extract_region(m, &r.region_fn()).unwrap()
}
