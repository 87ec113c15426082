//! Reproduces Figure 9: training throughput of TensorFlow / PyTorch / Jax /
//! MNN / PockEngine (full and sparse BP) across the edge platforms, from the
//! device cost models applied to the real compiled training graphs.

use pe_bench::pe_backends::DeviceProfile;
use pe_bench::speed::{figure9_for_device, PaperModel};
use pe_bench::TextTable;
use pockengine::pe_tensor::kernels::gemm::simd_path;

fn main() {
    let models = PaperModel::figure9_models();
    let batch = 8;
    println!(
        "Figure 9: training throughput; GEMM microkernel: {}",
        simd_path()
    );
    for device in DeviceProfile::all_paper_devices() {
        println!("\n=== {} (batch {batch}) ===\n", device.name);
        let points = figure9_for_device(&device, &models, batch);
        let frameworks: Vec<String> = {
            let mut f: Vec<String> = points.iter().map(|p| p.framework.clone()).collect();
            f.dedup();
            f
        };
        let mut header = vec!["Model"];
        let fw_refs: Vec<&str> = frameworks.iter().map(|s| s.as_str()).collect();
        header.extend(fw_refs);
        let mut table = TextTable::new(&header);
        for m in &models {
            let mut row = vec![m.name().to_string()];
            for fw in &frameworks {
                let cell = points
                    .iter()
                    .find(|p| p.model == m.name() && &p.framework == fw)
                    .and_then(|p| p.samples_per_sec)
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|| "n/a".to_string());
                row.push(cell);
            }
            table.row(row);
        }
        println!("{}", table.render());
    }
    println!("\nValues are samples/second (images or sentences); n/a = framework cannot target the device.");
}
