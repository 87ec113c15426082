//! A/A mode: does the benchmark agree with itself?
//!
//! Runs `2 * pairs` full invocations of the same code, assigns them
//! alternately to sets A and B, and compares the two sets' medians per
//! workload and end-to-end metric against the bound `BENCHMARK.json` fixes.

use std::process::ExitCode;

use pockengine::pe_data::Json;

use crate::common::Workload;
use crate::estimator::median;
use crate::metrics::END_TO_END;
use crate::{child_result, run_child, Args};

/// The regression bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let listed = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    END_TO_END
        .iter()
        .map(|def| {
            listed
                .iter()
                .find(|entry| entry.get("name").and_then(Json::as_str) == Some(def.name))
                .and_then(|entry| entry.get("bound")?.as_f64())
                .ok_or(format!("{path} fixes no bound for {}", def.name))
        })
        .collect()
}

pub fn run(pairs: usize, args: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(bounds) => bounds,
        Err(error) => {
            eprintln!("{error}");
            return ExitCode::from(2);
        }
    };
    // sets[set][workload][metric] -> one value per invocation.
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    let mut failed_ops = 0.0;
    for invocation in 0..2 * pairs {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let result = run_child(workload, args).and_then(|stdout| child_result(&stdout));
            let result = match result {
                Ok(result) => result,
                Err(error) => {
                    eprintln!("{error}");
                    return ExitCode::FAILURE;
                }
            };
            failed_ops += result.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
            for (m, def) in END_TO_END.iter().enumerate() {
                let value = result
                    .get("metrics")
                    .and_then(|metrics| metrics.get(def.name)?.get("value")?.as_f64())
                    .unwrap_or(f64::NAN);
                sets[invocation % 2][w][m].push(value);
            }
            eprintln!(
                "invocation {}/{} {} done",
                invocation + 1,
                2 * pairs,
                workload.name()
            );
        }
    }

    println!(
        "{:<22} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "median A", "median B", "diff %", "bound %"
    );
    let mut breaches = 0;
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let (a, b) = (median(&sets[0][w][m]), median(&sets[1][w][m]));
            let diff = (a - b).abs() / a.min(b);
            // NaN (a metric a child did not print) is a breach too.
            let breach = diff.is_nan() || diff > bounds[m];
            breaches += breach as usize;
            println!(
                "{:<22} {:<18} {a:>14.6} {b:>14.6} {:>9.2} {:>7.0}{}",
                workload.name(),
                def.name,
                diff * 100.0,
                bounds[m] * 100.0,
                if breach { "  BREACH" } else { "" }
            );
        }
    }
    println!(
        "{breaches} breaches, {failed_ops} failed ops over {} invocations",
        2 * pairs
    );
    if breaches == 0 && failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
