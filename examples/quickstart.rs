//! Quickstart: compile a model with a sparse backpropagation scheme and
//! fine-tune it on-device style.
//!
//! ```bash
//! cargo run --release -p pe-examples --bin quickstart
//! ```

use pockengine::prelude::*;

fn main() {
    let mut rng = Rng::seed_from_u64(0);

    // 1. Pick a model from the zoo (a tiny MobileNetV2 so this runs in
    //    seconds) and a synthetic downstream task.
    let model = build_mobilenet(&MobileNetV2Config::tiny(16, 4), &mut rng);
    let mut data_rng = Rng::seed_from_u64(1);
    let task = generate_vision_task(
        "quickstart",
        VisionTaskConfig {
            num_classes: 4,
            resolution: 16,
            batch: 16,
            ..VisionTaskConfig::default()
        },
        &mut data_rng,
    );

    // 2. Choose an update scheme. Here: the paper-style sparse scheme —
    //    biases of the last blocks plus the first point-wise convolution of
    //    the last two blocks.
    let scheme = SparseScheme {
        name: "quickstart".to_string(),
        bias_last_blocks: 3,
        weight_rules: vec![pockengine::pe_sparse::WeightRule::full(
            "conv1",
            pockengine::pe_sparse::BlockSelector::LastK(2),
        )],
        train_head: true,
        train_norm: false,
    };

    // 3. Compile: scheme -> backward-graph pruning -> graph optimisation ->
    //    scheduling -> memory planning, all ahead of time.
    let options = CompileOptions {
        update_rule: UpdateRule::Sparse(scheme),
        optimizer: Optimizer::sgd(0.08),
        ..CompileOptions::default()
    };
    let full = pockengine::analyze(&model, &CompileOptions::default());
    let program = compile(&model, &options);
    println!("model: {} ({} parameters)", model.name, model.param_count());
    println!(
        "trainable elements: {} of {} ({:.1}%)",
        program.analysis.trainable_elements,
        model.param_count(),
        100.0 * program.analysis.trainable_elements as f64 / model.param_count() as f64
    );
    println!(
        "peak transient memory: sparse {:.1} KiB vs full {:.1} KiB",
        program.analysis.memory.transient_peak_bytes as f64 / 1024.0,
        full.memory.transient_peak_bytes as f64 / 1024.0
    );
    println!(
        "graph: {} nodes, {} launches per step\n",
        program.analysis.training_graph.graph.len(),
        program.analysis.launches
    );

    // 4. Train and evaluate.
    let mut trainer = program.into_trainer();
    let train: Vec<Batch> = task
        .train
        .iter()
        .map(|(x, y)| Batch::new(x.clone(), y.clone()))
        .collect();
    let test: Vec<Batch> = task
        .test
        .iter()
        .map(|(x, y)| Batch::new(x.clone(), y.clone()))
        .collect();
    for epoch in 0..5 {
        let loss = trainer.train_epoch(&train).expect("training epoch");
        let acc = trainer.evaluate(&test).expect("evaluation");
        println!(
            "epoch {epoch}: mean loss {loss:.3}, held-out accuracy {:.1}%",
            acc * 100.0
        );
    }
}
