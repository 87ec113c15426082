//! Integration of the sensitivity analysis and evolutionary scheme search
//! (paper §3.1) with the real engine: contributions are measured by actually
//! fine-tuning one tensor at a time, and the searched scheme must respect the
//! memory budget while beating the trivial baselines it dominates.

use pockengine::pe_data::{generate_vision_task, VisionTaskConfig};
use pockengine::pe_graph::{TrainKind, TrainSpec};
use pockengine::pe_sparse::{evolutionary_search, sensitivity_analysis, Candidate};
use pockengine::prelude::*;

fn task() -> (Vec<Batch>, Vec<Batch>) {
    let mut rng = Rng::seed_from_u64(3);
    let t = generate_vision_task(
        "search",
        VisionTaskConfig {
            num_classes: 3,
            resolution: 16,
            batch: 8,
            train_batches: 6,
            test_batches: 2,
            noise: 0.4,
            signal: 1.2,
        },
        &mut rng,
    );
    (
        t.train
            .iter()
            .map(|(x, y)| Batch::new(x.clone(), y.clone()))
            .collect(),
        t.test
            .iter()
            .map(|(x, y)| Batch::new(x.clone(), y.clone()))
            .collect(),
    )
}

/// Fine-tunes with only `trainable` tensors unfrozen and returns held-out
/// accuracy.
fn accuracy_with_spec(
    model: &BuiltModel,
    spec: &TrainSpec,
    train: &[Batch],
    test: &[Batch],
) -> f32 {
    // `compile` takes an `UpdateRule`; an arbitrary spec goes through the
    // lower-level pipeline directly.
    let tg = pockengine::pe_graph::build_training_graph(model.graph.clone(), model.loss, spec);
    let schedule = pockengine::pe_passes::build_schedule(&tg.graph, ScheduleStrategy::Reordered);
    let exec = Executor::new(tg, schedule, Optimizer::sgd(0.1));
    let mut trainer = Trainer::new(exec, "x", "labels", model.logits_name());
    for _ in 0..2 {
        trainer.train_epoch(train).expect("train");
    }
    trainer.evaluate(test).expect("eval")
}

#[test]
fn searched_scheme_respects_budget_and_beats_frozen_baseline() {
    let mut rng = Rng::seed_from_u64(0);
    let model = build_mobilenet(&MobileNetV2Config::tiny(8, 3), &mut rng);
    let (train, test) = task();

    // Candidates: the first conv weight of every block (the tensors the paper
    // searches over), plus the classifier head as a free baseline choice.
    let candidates_meta: Vec<(pockengine::pe_graph::NodeId, String, usize)> = model
        .named_params()
        .into_iter()
        .filter(|(_, n)| n.contains("conv1.weight"))
        .map(|(id, n)| {
            let bytes = model.graph.node(id).shape.numel() * 4;
            (id, n, bytes)
        })
        .collect();
    assert!(candidates_meta.len() >= 3);

    // Baseline: everything frozen except the head.
    let head_only: TrainSpec = model
        .named_params()
        .into_iter()
        .map(|(id, n)| {
            (
                id,
                if n.starts_with("head.") {
                    TrainKind::Full
                } else {
                    TrainKind::Frozen
                },
            )
        })
        .collect();
    let baseline = accuracy_with_spec(&model, &head_only, &train, &test);

    // Sensitivity analysis: accuracy when additionally unfreezing one tensor.
    let candidates: Vec<Candidate> = sensitivity_analysis(&candidates_meta, baseline, |param| {
        let mut spec = head_only.clone();
        spec.insert(param, TrainKind::Full);
        accuracy_with_spec(&model, &spec, &train, &test)
    });

    // Budget: half of the total candidate memory.
    let total: usize = candidates.iter().map(|c| c.memory_cost).sum();
    let budget = total / 2;
    let mut search_rng = Rng::seed_from_u64(1);
    let result = evolutionary_search(&candidates, budget, 40, 24, &mut search_rng);
    assert!(
        result.total_memory <= budget,
        "search must respect the memory constraint"
    );

    // The searched scheme (selected tensors + head) should not be worse than
    // the head-only baseline.
    let mut spec = head_only.clone();
    for sel in &result.selections {
        spec.insert(sel.param, TrainKind::Full);
    }
    let searched = accuracy_with_spec(&model, &spec, &train, &test);
    assert!(
        searched + 0.05 >= baseline,
        "searched scheme ({searched}) should not be worse than head-only ({baseline})"
    );
}
