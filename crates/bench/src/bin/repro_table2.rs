//! Reproduces Table 2: vision transfer-learning accuracy of Full BP,
//! Bias-only and Sparse BP across the seven downstream tasks.
//!
//! Models are scaled-down versions of the paper's architectures and the
//! datasets are synthetic stand-ins (see `pe_data`'s crate docs); the
//! comparison of interest is the relative one across methods. Pass
//! `--quick` to run a reduced sweep (one model, three tasks, one seed).

use pe_bench::accuracy::{vision_methods, Method, TinyModel, TrainSettings};
use pe_bench::TextTable;
use pockengine::pe_data::table2_vision_tasks;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let settings = if quick {
        TrainSettings {
            pretrain_epochs: 2,
            epochs: 2,
            seeds: 1,
            lr_milli: 80,
        }
    } else {
        TrainSettings::default()
    };
    let tasks = table2_vision_tasks(16, 16, 42);
    let tasks = if quick { tasks[..3].to_vec() } else { tasks };
    let models = if quick {
        vec![TinyModel::MobileNetV2]
    } else {
        TinyModel::table2_models()
    };

    println!("Table 2: vision transfer-learning accuracy (synthetic substitute tasks)\n");
    for model in models {
        let mut table = TextTable::new(&{
            let mut h = vec!["Method", "Avg"];
            h.extend(tasks.iter().map(|t| t.name.as_str()));
            h
        });
        let mut per_method: Vec<(Method, Vec<(f32, f32)>)> =
            Method::all().into_iter().map(|m| (m, Vec::new())).collect();
        for task in &tasks {
            let results = vision_methods(model, task, settings);
            for (method, mean, std) in results {
                per_method
                    .iter_mut()
                    .find(|(m, _)| *m == method)
                    .unwrap()
                    .1
                    .push((mean, std));
            }
        }
        for (method, cells) in &per_method {
            let avg: f32 = cells.iter().map(|(m, _)| m).sum::<f32>() / cells.len().max(1) as f32;
            let mut row = vec![method.label().to_string(), format!("{:.1}%", avg * 100.0)];
            row.extend(
                cells
                    .iter()
                    .map(|(m, s)| format!("{:.1}±{:.1}%", m * 100.0, s * 100.0)),
            );
            table.row(row);
        }
        println!("--- {} ---\n{}", model.name(), table.render());
    }
    println!("Paper reference (Table 2): Sparse BP matches Full BP within ~1 point on average; Bias-only trails by 1.5-3 points.");
}
