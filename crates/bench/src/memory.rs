//! Training-memory experiments (Table 4 and the MCU reordering ablation).

use pockengine::pe_memplan::{attribute_peak, plan_memory, MemoryReport, PeakAttribution};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_sparse::UpdateRule;
use pockengine::pe_tensor::Rng;
use pockengine::CompileOptions;

use crate::speed::{analyze_model, PaperModel};

/// One row of Table 4: a (platform, model, method, batch) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRow {
    /// Device the cell refers to.
    pub device: String,
    /// Model name.
    pub model: String,
    /// Method label (`full-bp` / `sparse-bp`).
    pub method: String,
    /// Batch size.
    pub batch: usize,
    /// Total training memory in bytes, or `None` when it does not fit on the
    /// device (the "-" entries of the paper's table).
    pub(crate) total_bytes: Option<usize>,
}

impl MemoryRow {
    /// Memory formatted the way the paper reports it (KB / MB / GB), or "-"
    /// when the configuration does not fit.
    pub fn formatted(&self) -> String {
        match self.total_bytes {
            None => "-".to_string(),
            Some(b) if b < 1024 * 1024 => format!("{:.0}KB", b as f64 / 1024.0),
            Some(b) if b < 1024 * 1024 * 1024 => format!("{:.0}MB", b as f64 / (1024.0 * 1024.0)),
            Some(b) => format!("{:.1}GB", b as f64 / (1024.0 * 1024.0 * 1024.0)),
        }
    }
}

/// A Table 4 platform: its name and the training-memory budget the paper
/// gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Platform {
    /// Name used in the table.
    pub(crate) name: &'static str,
    /// Usable training memory in bytes; a configuration that needs more is
    /// reported as "-".
    pub capacity_bytes: usize,
}

/// STM32F746 microcontroller: 320 KiB of SRAM.
pub const STM32F746: Platform = Platform {
    name: "STM32F746 MCU",
    capacity_bytes: 320 * 1024,
};

/// NVIDIA Jetson Nano: 4 GiB.
pub(crate) const JETSON_NANO: Platform = Platform {
    name: "Jetson Nano GPU",
    capacity_bytes: 4 << 30,
};

/// NVIDIA Jetson AGX Orin: 60 GiB usable for training.
pub(crate) const JETSON_AGX_ORIN: Platform = Platform {
    name: "Jetson AGX Orin GPU",
    capacity_bytes: 60 << 30,
};

/// The (platform, model, optimizer) combinations of Table 4.
pub(crate) fn table4_workloads() -> Vec<(Platform, PaperModel, Optimizer)> {
    vec![
        (STM32F746, PaperModel::McuNet, Optimizer::sgd(0.01)),
        (JETSON_NANO, PaperModel::MobileNetV2, Optimizer::sgd(0.01)),
        (JETSON_NANO, PaperModel::ResNet50, Optimizer::sgd(0.01)),
        (JETSON_AGX_ORIN, PaperModel::Bert, Optimizer::adam(1e-4)),
        (JETSON_AGX_ORIN, PaperModel::Llama7b, Optimizer::lion(1e-4)),
    ]
}

/// Reproduces Table 4: training memory of full vs sparse backpropagation
/// across batch sizes, with "-" where the workload exceeds device memory.
pub fn table4_memory(batch_sizes: &[usize]) -> Vec<MemoryRow> {
    let mut rows = Vec::new();
    for (platform, pm, optimizer) in table4_workloads() {
        for (method, rule) in [
            ("full-bp", UpdateRule::Full),
            ("sparse-bp", UpdateRule::Sparse(pm.paper_scheme())),
        ] {
            for &batch in batch_sizes {
                // MCU and Llama only report batch size 1 in the paper; larger
                // batches are still computed (they simply will not fit).
                let mut rng = Rng::seed_from_u64(7);
                let model = pm.build(batch, &mut rng);
                let analysis = analyze_model(&model, rule.clone(), optimizer);
                let total = analysis.memory.total_bytes();
                let fits = total <= platform.capacity_bytes;
                rows.push(MemoryRow {
                    device: platform.name.to_string(),
                    model: pm.name().to_string(),
                    method: method.to_string(),
                    batch,
                    total_bytes: if fits { Some(total) } else { None },
                });
            }
        }
    }
    rows
}

/// What holds the MCU workload's planned peak, per method at batch 1: the
/// peak's schedule position, its bytes by class and its largest buffers by
/// node name (ROADMAP item 2(1)).
#[derive(Debug, Clone, PartialEq)]
pub struct PeakRow {
    /// Method label (`full-bp` / `sparse-bp`).
    pub method: String,
    /// Nodes in the schedule.
    pub schedule_len: usize,
    /// The training-memory breakdown Table 4's cell is judged on.
    pub memory: MemoryReport,
    /// The planner's attribution of its peak.
    pub peak: PeakAttribution,
    /// Names of `peak.largest`'s nodes, in the same order.
    pub largest_names: Vec<String>,
}

/// Attributes the planned peak of MCUNet on the STM32F746 row (batch 1,
/// full-bp and sparse-bp), naming the `top` largest live buffers.
pub fn mcu_peak_attribution(top: usize) -> Vec<PeakRow> {
    let mut rng = Rng::seed_from_u64(7);
    let model = PaperModel::McuNet.build(1, &mut rng);
    [
        ("full-bp", UpdateRule::Full),
        (
            "sparse-bp",
            UpdateRule::Sparse(PaperModel::McuNet.paper_scheme()),
        ),
    ]
    .into_iter()
    .map(|(method, rule)| {
        let analysis = analyze_model(&model, rule, Optimizer::sgd(0.01));
        let graph = &analysis.training_graph.graph;
        let plan = plan_memory(graph, &analysis.schedule);
        let peak = attribute_peak(graph, &analysis.schedule, &plan, top);
        let largest_names = peak
            .largest
            .iter()
            .map(|&(id, _)| graph.node(id).name.clone())
            .collect();
        PeakRow {
            method: method.to_string(),
            schedule_len: analysis.schedule.len(),
            memory: analysis.memory,
            peak,
            largest_names,
        }
    })
    .collect()
}

/// Reproduces the §3.2 claim that the compile-time plan (reordering + planner)
/// cuts MCU training memory versus the conventional schedule. Returns
/// (conventional_bytes, reordered_bytes).
pub fn mcu_reordering_saving() -> (usize, usize) {
    use pockengine::pe_passes::ScheduleStrategy;
    let mut rng = Rng::seed_from_u64(7);
    let model = PaperModel::McuNet.build(1, &mut rng);
    let rule = UpdateRule::Sparse(PaperModel::McuNet.paper_scheme());
    let reordered = pockengine::analyze(
        &model,
        &CompileOptions {
            update_rule: rule.clone(),
            optimizer: Optimizer::sgd(0.01),
            schedule: ScheduleStrategy::Reordered,
            ..CompileOptions::default()
        },
    );
    let conventional = pockengine::analyze(
        &model,
        &CompileOptions {
            update_rule: rule,
            optimizer: Optimizer::sgd(0.01),
            schedule: ScheduleStrategy::Conventional,
            ..CompileOptions::default()
        },
    );
    (
        conventional.memory.transient_peak_bytes,
        reordered.memory.transient_peak_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell<'a>(
        rows: &'a [MemoryRow],
        platform: Platform,
        pm: PaperModel,
        method: &str,
        batch: usize,
    ) -> &'a MemoryRow {
        rows.iter()
            .find(|r| {
                r.device == platform.name
                    && r.model == pm.name()
                    && r.method == method
                    && r.batch == batch
            })
            .unwrap()
    }

    #[test]
    fn orin_budget_drops_llama_full_bp_at_batch_4_but_fits_sparse_bp() {
        let rows = table4_memory(&[1, 4]);
        let llama = |method| cell(&rows, JETSON_AGX_ORIN, PaperModel::Llama7b, method, 4);
        assert_eq!(llama("full-bp").formatted(), "-");
        assert!(llama("sparse-bp").total_bytes.is_some());
    }

    #[test]
    fn sparse_uses_less_memory_for_every_workload() {
        // Use batch size 1 to keep the test fast; the full Table 4 sweep runs
        // in the repro binary.
        let rows = table4_memory(&[1]);
        for (platform, pm, _) in table4_workloads() {
            let full = cell(&rows, platform, pm, "full-bp", 1);
            let sparse = cell(&rows, platform, pm, "sparse-bp", 1);
            match (full.total_bytes, sparse.total_bytes) {
                (Some(f), Some(s)) => assert!(s < f, "{}: sparse {s} >= full {f}", pm.name()),
                // If full BP does not fit, sparse must fit or also not fit —
                // it can never be worse.
                (None, _) => {}
                (Some(_), None) => panic!("sparse-bp must not fit worse than full-bp"),
            }
        }
    }

    #[test]
    fn formatting_matches_units() {
        let kb = MemoryRow {
            device: "d".into(),
            model: "m".into(),
            method: "full-bp".into(),
            batch: 1,
            total_bytes: Some(200 * 1024),
        };
        assert!(kb.formatted().ends_with("KB"));
        let none = MemoryRow {
            total_bytes: None,
            ..kb.clone()
        };
        assert_eq!(none.formatted(), "-");
    }

    #[test]
    fn mcu_peak_attribution_accounts_for_every_peak_byte() {
        for row in mcu_peak_attribution(3) {
            let total = row.peak.total_bytes();
            assert!(row.peak.position < row.schedule_len);
            assert_eq!(row.largest_names.len(), 3);
            assert!(row.peak.largest.iter().map(|&(_, b)| b).sum::<usize>() <= total);
            assert_eq!(total, row.memory.transient_peak_bytes);
        }
    }

    #[test]
    fn mcu_reordering_reduces_peak_memory() {
        let (conventional, reordered) = mcu_reordering_saving();
        assert!(
            reordered < conventional,
            "reordering should reduce MCU peak memory"
        );
    }
}
