//! Criterion benchmarks for the compilation pipeline itself: backward-graph
//! derivation, scheduling and memory planning — the work PockEngine
//! moves from every training step to a single compile-time pass (Figure 7).

use criterion::{criterion_group, criterion_main, Criterion};
use pockengine::pe_graph::build_training_graph;
use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_passes::{build_schedule, ScheduleStrategy};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::{apply_rule, paper_scheme_mobilenetv2, UpdateRule};
use pockengine::pe_tensor::Rng;
use pockengine::{analyze, CompileOptions};

fn bench_autodiff(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(0);
    let model = build_mobilenet(&MobileNetV2Config::paper(0.35, 8), &mut rng);
    let full = apply_rule(&model, &UpdateRule::Full);
    let sparse = apply_rule(&model, &UpdateRule::Sparse(paper_scheme_mobilenetv2()));

    c.bench_function("autodiff_mobilenetv2_full", |b| {
        b.iter(|| {
            std::hint::black_box(build_training_graph(model.graph.clone(), model.loss, &full))
        })
    });
    c.bench_function("autodiff_mobilenetv2_sparse", |b| {
        b.iter(|| {
            std::hint::black_box(build_training_graph(
                model.graph.clone(),
                model.loss,
                &sparse,
            ))
        })
    });
}

fn bench_schedule_and_plan(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(0);
    let model = build_mobilenet(&MobileNetV2Config::paper(0.35, 8), &mut rng);
    let sparse = apply_rule(&model, &UpdateRule::Sparse(paper_scheme_mobilenetv2()));
    let tg = build_training_graph(model.graph.clone(), model.loss, &sparse);

    c.bench_function("schedule_mobilenetv2_sparse", |b| {
        b.iter(|| std::hint::black_box(build_schedule(&tg.graph, ScheduleStrategy::Reordered)))
    });
    c.bench_function("full_compile_analysis_mobilenetv2_sparse", |b| {
        b.iter(|| {
            std::hint::black_box(analyze(
                &model,
                &CompileOptions {
                    update_rule: UpdateRule::Sparse(paper_scheme_mobilenetv2()),
                    optimizer: Optimizer::sgd(0.01),
                    ..CompileOptions::default()
                },
            ))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_autodiff, bench_schedule_and_plan
}
criterion_main!(benches);
