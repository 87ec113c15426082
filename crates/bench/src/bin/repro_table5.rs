//! Reproduces Table 5: LlamaV2 instruction tuning. The system half times a
//! small Llama on this host (runtime-autodiff full fine-tuning against the
//! compiled program under full and sparse backpropagation) and reports the
//! planned training memory of the LlamaV2-7B graphs; the quality half
//! fine-tunes a tiny Llama on the synthetic Alpaca substitute with full vs
//! sparse BP.

use pe_bench::accuracy::llama_quality;
use pe_bench::speed::{analyze_model, measure_steps, timing, PaperModel, Setup};
use pe_bench::TextTable;
use pockengine::pe_models::{build_llama, LlamaConfig};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::Rng;

fn main() {
    // The 7B geometry's depth (32 blocks, so the paper's last-5-blocks
    // scheme covers the same share of it) at a width that steps in
    // milliseconds.
    let small = LlamaConfig {
        name: "llama-32x64".to_string(),
        num_blocks: 32,
        hidden: 64,
        heads: 4,
        ffn: 172,
        vocab: 512,
        seq_len: 64,
        batch: 1,
        deferred: false,
    };
    let rounds = 15;
    let optimizer = Optimizer::lion(1e-4);
    println!(
        "Table 5 (system): Llama fine-tuning. Step time measured on this host ({} blocks, hidden {}, seq {}, batch 1, median of {rounds}); memory planned for the LlamaV2-7B graph (batch 1, seq 512, Lion)\n",
        small.num_blocks, small.hidden, small.seq_len
    );
    let setups = [
        ("runtime autodiff FT-Full", Setup::Eager(UpdateRule::Full)),
        ("PockEngine FT-Full", Setup::compiled(UpdateRule::Full)),
        (
            "PockEngine Sparse",
            Setup::compiled(UpdateRule::Sparse(PaperModel::Llama7b.paper_scheme())),
        ),
    ];
    let model = build_llama(&small, &mut Rng::seed_from_u64(0));
    let timings = measure_steps(&model, &setups, optimizer, rounds);
    let llama = PaperModel::Llama7b.build(1, &mut Rng::seed_from_u64(0));
    let sparse_us = timing(&timings, "PockEngine Sparse").step_us;
    let mut table = TextTable::new(&[
        "Framework / method",
        "Step (ms)",
        "vs PockEngine Sparse",
        "7B planned memory (GiB)",
    ]);
    for ((label, setup), t) in setups.iter().zip(&timings) {
        let memory = match setup {
            Setup::Compiled { rule, .. } => {
                let bytes = analyze_model(&llama, rule.clone(), optimizer)
                    .memory
                    .total_bytes();
                format!("{:.1}", bytes as f64 / (1024.0 * 1024.0 * 1024.0))
            }
            Setup::Eager(_) => "-".to_string(),
        };
        table.row(vec![
            label.to_string(),
            format!("{:.2}", t.step_us / 1e3),
            format!("{:.2}x", t.step_us / sparse_us),
            memory,
        ]);
    }
    println!("{}", table.render());
    println!("Paper (LlamaV2-7B on Jetson AGX Orin): PyTorch FT-Full 7.7 s / 45.1 GB, PockEngine FT-Full 1.8 s / 43.1 GB, PockEngine Sparse 0.9 s / 31.2 GB.\n");

    println!(
        "Table 5 (quality): tiny-Llama instruction tuning on the synthetic Alpaca substitute\n"
    );
    let mut table = TextTable::new(&["Method", "Final loss", "Instruction-following accuracy"]);
    for (label, loss, acc) in llama_quality(4) {
        table.row(vec![
            label,
            format!("{loss:.3}"),
            format!("{:.1}%", acc * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("Paper reference: Sparse-BP matches Full-BP response quality (43.1 vs 43.7 Alpaca-Eval win rate).");
}
