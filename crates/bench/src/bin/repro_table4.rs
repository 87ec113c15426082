//! Reproduces Table 4: training memory of full vs sparse backpropagation
//! across models, platforms and batch sizes ("-" = does not fit on device).

use pe_bench::memory::{mcu_reordering_saving, table4_memory};
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
}
