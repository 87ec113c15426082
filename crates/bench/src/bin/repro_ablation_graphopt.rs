//! Reproduces the §3.2 graph-optimisation ablation: training-step time,
//! measured on this host, and planned transient peak with and without
//! operator reordering, on paper-scale MobileNetV2 (batch 1) under the
//! paper's sparse scheme. Dead-code elimination has no row: autodiff prunes
//! the backward graph as it derives it, so there is nothing left to remove.

use pe_bench::speed::{measure_steps, timing, PaperModel, Setup};
use pe_bench::TextTable;
use pockengine::pe_models::{build_mobilenet, MobileNetV2Config};
use pockengine::pe_passes::ScheduleStrategy;
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::Rng;

fn main() {
    let rounds = 15;
    println!(
        "Graph optimization ablation (MobileNetV2, sparse-BP, batch 1), measured on this host (median of {rounds})\n"
    );
    let model = build_mobilenet(
        &MobileNetV2Config {
            deferred: false,
            ..MobileNetV2Config::paper(1.0, 1)
        },
        &mut Rng::seed_from_u64(0),
    );
    let rule = UpdateRule::Sparse(PaperModel::MobileNetV2.paper_scheme());
    let setup = |schedule| Setup::Compiled {
        rule: rule.clone(),
        schedule,
    };
    let setups = [
        ("all optimizations", setup(ScheduleStrategy::Reordered)),
        ("no reordering", setup(ScheduleStrategy::Conventional)),
    ];
    let timings = measure_steps(&model, &setups, Optimizer::sgd(0.01), rounds);
    let baseline = timing(&timings, "all optimizations").step_us;
    let mut table = TextTable::new(&[
        "Configuration",
        "Step (ms)",
        "Slowdown",
        "Planned transient peak (MiB)",
    ]);
    for t in &timings {
        table.row(vec![
            t.label.to_string(),
            format!("{:.1}", t.step_us / 1e3),
            format!("{:.2}x", t.step_us / baseline),
            format!(
                "{:.1}",
                t.memory.expect("compiled setup").transient_peak_bytes as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    println!("{}", table.render());
    println!("Paper: training-graph optimizations bring up to ~1.2x speedup (§2.4/§3.2).");
}
