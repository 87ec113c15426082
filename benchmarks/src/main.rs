//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- \
//!     --seed <n> [--workload <name>] [--seconds <s>] [--trace [0|1]] [--aa <n>]
//! ```
//!
//! With `--workload`, runs that workload in this process and ends its
//! standard output with one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric, or with `--trace 1` every
//! per-layer metric). Without it, runs the four workloads one child process
//! each, so that memory and CPU clocks are per workload. `--aa <n>` runs
//! 2n such invocations and compares the two alternating sets.

mod aa;
mod common;
mod estimator;
mod finetune;
mod metrics;
mod probes;
mod run;
mod serve;
mod sys;
mod trace;

use std::process::ExitCode;

use pockengine::pe_data::Json;

use common::{RunReport, Workload};
use metrics::{MetricDef, END_TO_END, PER_LAYER};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Seconds one measured run times by default: seven rounds of three.
const DEFAULT_SECONDS: f64 = 21.0;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub aa: Option<usize>,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: pe_benchmark --seed <n> [--workload <{}>] [--seconds <s>] [--trace [0|1]] [--aa <n>]",
        names.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
    };
    let mut seed_given = false;
    let mut it = raw.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed_given = true;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--aa" => {
                args.aa = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--aa: {e}"))?,
                )
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|v| v.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !seed_given {
        return Err("--seed is required".into());
    }
    Ok(args)
}

/// The last line of a single-workload run.
fn result_line(attempted: u64, failed: u64, defs: &[MetricDef], values: &[(&str, f64)]) -> String {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name))
                .1;
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.into())),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        Json::Obj(metrics).render()
    )
}

fn end_to_end(report: &RunReport) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", report.over_rounds(true, |r| r.setup_s)),
        (
            "throughput_ops_s",
            report.over_rounds(false, |r| r.timed.throughput_ops_s),
        ),
        (
            "latency_p50_ms",
            report.over_rounds(true, |r| r.timed.latency_p50_ms),
        ),
        (
            "cpu_ms_per_op",
            report.over_rounds(true, |r| r.timed.cpu_ms_per_op),
        ),
        ("peak_rss_mb", report.over_rounds(true, |r| r.peak_rss_mb)),
    ]
}

/// Every round's numbers, for whoever wants to see what the medians hide.
fn rounds_json(report: &RunReport) -> Json {
    let column = |pick: fn(&common::RoundStats) -> f64| {
        Json::Arr(report.rounds.iter().map(|r| Json::Num(pick(r))).collect())
    };
    Json::obj(vec![
        ("setup_s", column(|r| r.setup_s)),
        ("throughput_ops_s", column(|r| r.timed.throughput_ops_s)),
        ("latency_p50_ms", column(|r| r.timed.latency_p50_ms)),
        (
            "latency_tail_ms",
            column(|r| r.timed.latency_tail.map_or(f64::NAN, |t| t.1)),
        ),
        ("cpu_ms_per_op", column(|r| r.timed.cpu_ms_per_op)),
        ("peak_rss_mb", column(|r| r.peak_rss_mb)),
    ])
}

fn print_metrics(defs: &[MetricDef], values: &[(&str, f64)]) {
    for def in defs {
        if let Some((_, value)) = values.iter().find(|(name, _)| *name == def.name) {
            println!(
                "{:<32} {:>16.6} {:<8} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.word()
            );
        }
    }
}

/// One workload in this process.
fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let host = sys::Host::confine();
    println!(
        "# {}",
        Json::obj(run::stamp(workload, args.seed, host)).render()
    );
    let (line, findings) = if args.trace {
        let traced = run::trace(workload, args.seed);
        match run::write_trace(workload, args.seed, host, &traced) {
            Ok(path) => println!("# spans written to {}", path.display()),
            Err(error) => eprintln!("could not write the trace: {error}"),
        }
        print_metrics(PER_LAYER, &traced.metrics);
        let line = result_line(traced.attempted, traced.failed, PER_LAYER, &traced.metrics);
        (line, traced.findings)
    } else {
        let report = run::measure(workload, args.seed, args.seconds);
        let values = end_to_end(&report);
        print_metrics(END_TO_END, &values);
        let rates: Vec<f64> = report
            .rounds
            .iter()
            .map(|r| r.timed.throughput_ops_s)
            .collect();
        let tail = report
            .latency_tail()
            .map_or("no tail percentile".into(), |(q, ms)| {
                format!("latency p{:.0} {ms:.6} ms (not gated)", q * 100.0)
            });
        println!(
            "# {} rounds, one op = one {}; {tail}; per-round throughput spread {:.2} %",
            report.rounds.len(),
            workload.op(),
            estimator::spread_share(&rates) * 100.0
        );
        println!("# rounds {}", rounds_json(&report).render());
        let line = result_line(report.attempted(), report.failed(), END_TO_END, &values);
        (line, report.findings)
    };
    for finding in &findings {
        println!("# FAILED CHECK: {finding}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// Runs one workload in a child process and returns its standard output.
pub fn run_child(workload: Workload, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "the {} child failed ({}):\n{stdout}",
            workload.name(),
            output.status
        ));
    }
    Ok(stdout)
}

/// The result object a child printed last.
pub fn child_result(stdout: &str) -> Result<Json, String> {
    Json::parse(stdout.lines().last().ok_or("the child printed nothing")?)
}

/// Every workload, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let mut failed = false;
    for workload in Workload::ALL {
        println!("== {} ==", workload.name());
        match run_child(workload, args) {
            Ok(stdout) => {
                print!("{stdout}");
                let failures = child_result(&stdout)
                    .ok()
                    .and_then(|r| r.get("failed")?.as_f64());
                failed |= failures != Some(0.0);
            }
            Err(error) => {
                eprintln!("{error}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let set = sys::pe_env_vars();
    if !set.is_empty() {
        eprintln!(
            "refusing to measure with PE_* variables set; the libraries read them as defaults:"
        );
        for (name, value) in set {
            eprintln!("  {name}={value}");
        }
        return ExitCode::from(2);
    }
    match (args.aa, args.workload) {
        (Some(pairs), _) => aa::run(pairs, &args),
        (None, Some(workload)) => run_workload(workload, &args),
        (None, None) => run_all(&args),
    }
}
