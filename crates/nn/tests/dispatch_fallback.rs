//! The dispatch kill-switch: with specialization force-disabled, every path
//! must run (proving the generic fallback stays live) and produce the exact
//! same bits as the specialized path. One `#[test]` only — `set_dispatch`
//! flips process-global state, so this file must never run tests in
//! parallel with each other (separate test binaries are separate
//! processes, so the rest of the suite is unaffected).

use irnuma_nn::backprop::{fused_loss_grads_threadlocal, GradBuffer};
use irnuma_nn::dispatch::{dispatch_enabled, set_dispatch};
use irnuma_nn::graphdata::NUM_RELATIONS;
use irnuma_nn::{GnnConfig, GnnModel, GraphData, SpmmStrategy};

fn toy_graph(n: u32) -> GraphData {
    let node_text: Vec<u32> = (0..n).map(|i| (i * 5 + 2) % 20).collect();
    let mut edges: [Vec<(u32, u32)>; NUM_RELATIONS] = Default::default();
    for i in 1..n {
        edges[0].push((i - 1, i));
        edges[1].push((i, i - 1));
    }
    edges[2].push((0, n - 1));
    GraphData::from_edge_lists(node_text, edges)
}

#[test]
fn disabling_dispatch_keeps_outputs_bitwise_and_falls_back_everywhere() {
    // With dispatch on, the enabled run exercises the strip kernels and the
    // prepacked head.
    let m = GnnModel::new(GnnConfig {
        vocab_size: 20,
        hidden: 8,
        classes: 13,
        layers: 2,
        layer_norm: true,
        seed: 11,
    });
    let graphs: Vec<GraphData> = (2..8).map(toy_graph).collect();

    set_dispatch(true);
    assert!(dispatch_enabled());
    assert!(m.plan().is_packed(), "enabled plan must prepack weights");
    assert_eq!(SpmmStrategy::for_relation(10, 40), SpmmStrategy::EdgeMajor);
    let specialized: Vec<_> = graphs.iter().map(|g| m.infer(g)).collect();
    let spec_batch = m.infer_batch(&graphs);
    let mut spec_grads = GradBuffer::for_model(&m);
    let spec_loss = fused_loss_grads_threadlocal(&m, &graphs[0], 3, &mut spec_grads);

    set_dispatch(false);
    assert!(!dispatch_enabled());
    // A plan built with dispatch off packs nothing, and every relation
    // degrades to the pre-dispatch behavior (CSR gather everywhere), even
    // the tiny and sparse shapes that are edge-major with dispatch on.
    assert!(!m.plan().is_packed(), "disabled plan must be empty");
    for (n, edges) in [(1, 1), (10, 40), (63, 31), (1000, 100), (1000, 2500)] {
        assert_eq!(SpmmStrategy::for_relation(n, edges), SpmmStrategy::CsrGather);
    }

    for (g, spec) in graphs.iter().zip(&specialized) {
        let generic = m.infer(g);
        assert_eq!(generic.logits, spec.logits, "logits drifted with dispatch off");
        assert_eq!(generic.pooled, spec.pooled, "pooled drifted with dispatch off");
    }
    let generic_batch = m.infer_batch(&graphs);
    for (a, b) in generic_batch.iter().zip(&spec_batch) {
        assert_eq!(a.logits, b.logits, "batched logits drifted with dispatch off");
    }
    let mut generic_grads = GradBuffer::for_model(&m);
    let generic_loss = fused_loss_grads_threadlocal(&m, &graphs[0], 3, &mut generic_grads);
    assert_eq!(generic_loss, spec_loss, "training loss drifted with dispatch off");
    for i in 0..m.params.len() {
        assert_eq!(
            generic_grads.view(i),
            spec_grads.view(i),
            "gradient of {} drifted with dispatch off",
            m.param_name(i)
        );
    }

    set_dispatch(true);
}
