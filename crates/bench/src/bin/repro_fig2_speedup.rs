//! Reproduces the sparse-backpropagation speedup chart (companion to
//! Figure 2): training-step time of runtime-autodiff full backpropagation
//! and of the compiled program under full, bias-only and sparse
//! backpropagation, measured on this host at batch 1 on paper-scale
//! MobileNetV2 and DistilBERT.

use pe_bench::speed::{measure_steps, timing, PaperModel, Setup};
use pe_bench::TextTable;
use pockengine::pe_models::{build_bert, build_mobilenet, BertConfig, MobileNetV2Config};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::kernels::gemm::simd_path;
use pockengine::pe_tensor::Rng;

fn main() {
    println!(
        "Sparse-BP speedup over Full-BP, measured on this host (batch 1, median of rounds); GEMM microkernel: {}\n",
        simd_path()
    );
    let mut rng = Rng::seed_from_u64(0);
    let mobilenet = MobileNetV2Config {
        deferred: false,
        ..MobileNetV2Config::paper(1.0, 1)
    };
    let distilbert = BertConfig {
        deferred: false,
        ..BertConfig::distilbert(1, 2)
    };
    let models = [
        (
            PaperModel::MobileNetV2,
            build_mobilenet(&mobilenet, &mut rng),
            15,
        ),
        (PaperModel::DistilBert, build_bert(&distilbert, &mut rng), 5),
    ];
    let mut table = TextTable::new(&[
        "Model",
        "Setup",
        "Rounds",
        "Step (ms)",
        "Samples/s",
        "Planned (MiB)",
        "Speedup vs full-bp",
    ]);
    for (pm, model, rounds) in &models {
        let timings = measure_steps(
            model,
            &Setup::schemes(pm.paper_scheme()),
            Optimizer::sgd(0.01),
            *rounds,
        );
        let full = timing(&timings, "full-bp").step_us;
        for t in &timings {
            table.row(vec![
                pm.name().to_string(),
                t.label.to_string(),
                rounds.to_string(),
                format!("{:.1}", t.step_us / 1e3),
                format!("{:.2}", t.samples_per_sec),
                t.memory
                    .map(|m| format!("{:.1}", m.total_bytes() as f64 / (1024.0 * 1024.0)))
                    .unwrap_or_else(|| "-".to_string()),
                format!("{:.2}x", full / t.step_us),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Paper (Figure 2, sparse vs full): MCUNet 1.3x, MobileNetV2 1.3x, ResNet 1.6x, BERT 1.5x."
    );
}
