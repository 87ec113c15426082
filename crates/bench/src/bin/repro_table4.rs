//! Reproduces Table 4: training memory of full vs sparse backpropagation
//! across models, platforms and batch sizes ("-" = does not fit on device).

use pe_bench::memory::{mcu_peak_attribution, mcu_reordering_saving, table4_memory, STM32F746};
use pe_bench::TextTable;
use pockengine::pe_tensor::kernels::gemm::simd_path;

fn main() {
    let batch_sizes = [1usize, 4, 16];
    println!(
        "Table 4: training memory (full-bp vs sparse-bp); GEMM microkernel: {}\n",
        simd_path()
    );
    let rows = table4_memory(&batch_sizes);
    let mut table = TextTable::new(&["Platform", "Model", "Method", "bs=1", "bs=4", "bs=16"]);
    let mut keys: Vec<(String, String, String)> = rows
        .iter()
        .map(|r| (r.device.clone(), r.model.clone(), r.method.clone()))
        .collect();
    keys.dedup();
    for (device, model, method) in keys {
        let cell = |bs: usize| {
            rows.iter()
                .find(|r| {
                    r.device == device && r.model == model && r.method == method && r.batch == bs
                })
                .map(|r| r.formatted())
                .unwrap_or_else(|| "-".to_string())
        };
        table.row(vec![
            device.clone(),
            model.clone(),
            method.clone(),
            cell(1),
            cell(4),
            cell(16),
        ]);
    }
    println!("{}", table.render());

    let (conventional, reordered) = mcu_reordering_saving();
    println!(
        "Operator reordering on the MCU workload: conventional peak {:.0} KB -> reordered peak {:.0} KB ({:.1}x saving)",
        conventional as f64 / 1024.0,
        reordered as f64 / 1024.0,
        conventional as f64 / reordered as f64
    );

    let kb = |b: usize| b as f64 / 1024.0;
    println!(
        "\nThe MCU workload at batch 1 against {:.0} KB of SRAM, and what holds its planned peak:",
        kb(STM32F746.capacity_bytes)
    );
    for row in mcu_peak_attribution(3) {
        let m = &row.memory;
        println!(
            "  {}: total {:.0} KB = f32 parameters {:.0} KB + optimizer state {:.0} KB + inputs {:.0} KB + arena {:.0} KB",
            row.method,
            kb(m.total_bytes()),
            kb(m.params_bytes),
            kb(m.optimizer_bytes),
            kb(m.input_bytes),
            kb(m.arena_bytes)
        );
        let p = &row.peak;
        println!(
            "    peak {:.0} KB at position {} of {}: saved activations {:.0} KB, gradients and backward temporaries {:.0} KB, forward temporaries {:.0} KB",
            kb(p.total_bytes()),
            p.position,
            row.schedule_len,
            kb(p.saved_activation_bytes),
            kb(p.backward_bytes),
            kb(p.forward_temporary_bytes)
        );
        let largest: Vec<String> = row
            .largest_names
            .iter()
            .zip(&p.largest)
            .map(|(name, &(_, bytes))| format!("{name} {:.0} KB", kb(bytes)))
            .collect();
        println!("    largest: {}", largest.join(", "));
    }
}
