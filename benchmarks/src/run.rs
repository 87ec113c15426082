//! One workload, one process: the measured run (seven cold rounds, tracing
//! off) and the traced run (paired untraced/traced rounds of a fixed op
//! count, then every per-layer probe).

use std::time::{Duration, Instant};

use pockengine::pe_data::Json;
use pockengine::pe_runtime::ExecutorConfig;

use crate::common::{latency_tail, RoundStats, RunReport, Stop, Workload, ROUNDS};
use crate::estimator::{quiet_quartile, spread_share};
use crate::finetune::{self, FinetuneBuffers, FinetuneSpec, Model, LEARNING_STEPS};
use crate::probes::{self, Metric};
use crate::serve::{self, ServeBuffers, ServeSpec};
use crate::sys::{self, reserved, Host};
use crate::trace::{self, Tracer};

/// Untraced/traced round pairs of a traced run.
const TRACE_PAIRS: usize = 3;
/// Ops per traced finetune round, and per connection of a traced serve round.
const TRACED_STEPS: u64 = 120;
const TRACED_REQUESTS: u64 = 1024;

/// A workload's seeded inputs, generated before anything is measured.
enum Inputs {
    Finetune(FinetuneSpec),
    Serve(ServeSpec),
}

impl Inputs {
    /// Generates the inputs; also returns how long that took.
    fn generate(workload: Workload, seed: u64) -> (Inputs, f64) {
        let start = Instant::now();
        let inputs = match workload {
            Workload::FinetuneCnnFull => Inputs::Finetune(FinetuneSpec::new(Model::CnnFull, seed)),
            Workload::FinetuneBertSparse => {
                Inputs::Finetune(FinetuneSpec::new(Model::BertSparse, seed))
            }
            Workload::ServeEvalTcp => Inputs::Serve(ServeSpec::eval_tcp(seed)),
            Workload::ServeMixedFleet => Inputs::Serve(ServeSpec::mixed_fleet(seed)),
        };
        (inputs, start.elapsed().as_secs_f64() * 1e3)
    }

    /// The model the workload's model-scoped probes run on.
    fn model(&self) -> Model {
        match self {
            Inputs::Finetune(spec) => spec.model,
            Inputs::Serve(_) => Model::ServeMlp,
        }
    }
}

/// The configuration in effect, for the stamp. Library defaults throughout
/// (no `PE_*` variable is set, or the run would have been refused); the
/// serve workloads pin the queue's capacity and batching budget.
pub fn stamp(workload: Workload, seed: u64, host: Host) -> Vec<(&'static str, Json)> {
    let mut stamp = host.stamp(seed);
    stamp.push(("workload", Json::Str(workload.name().into())));
    stamp.push((
        "executor",
        Json::Str(format!("{:?}", ExecutorConfig::default())),
    ));
    if matches!(workload, Workload::ServeEvalTcp | Workload::ServeMixedFleet) {
        stamp.push(("queue", Json::Str(format!("{:?}", serve::queue_config()))));
        if workload == Workload::ServeMixedFleet {
            stamp.push((
                "balancer",
                Json::Str(format!("{:?}", serve::balancer_config())),
            ));
        }
    }
    stamp
}

/// Runs one round with the resident-set high-water mark reset before it, and
/// returns the mark it left, in MB, beside what the round returned.
fn with_rss_peak<T>(round: impl FnOnce() -> T) -> (T, f64) {
    sys::reset_rss_peak();
    let out = round();
    (out, sys::rss_peak_kib() as f64 / 1024.0)
}

/// The measured run: `ROUNDS` rounds of `seconds / ROUNDS` each, tracing off.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> RunReport {
    let (inputs, _) = Inputs::generate(workload, seed);
    let per_round = seconds / ROUNDS as f64;
    let stop = Stop::After(Duration::from_secs_f64(per_round));
    let mut report = RunReport {
        rounds: Vec::with_capacity(ROUNDS),
        wrong_outputs: 0,
        findings: Vec::new(),
    };
    match inputs {
        Inputs::Finetune(spec) => {
            // No step of either model runs under half a millisecond.
            let steps = (per_round * 2_000.0) as usize + LEARNING_STEPS + 64;
            let mut buf = FinetuneBuffers::new(steps, per_round, false);
            let mut losses: Vec<Vec<f32>> = (0..ROUNDS).map(|_| reserved(1.0, steps)).collect();
            for (round, kept) in losses.iter_mut().enumerate() {
                let tail = if round == 0 { LEARNING_STEPS } else { 0 };
                let (mut stats, peak) =
                    with_rss_peak(|| finetune::run_round(&spec, stop, tail, &mut buf));
                stats.peak_rss_mb = peak;
                report.rounds.push(stats);
                kept.extend_from_slice(&buf.losses);
            }
            (report.wrong_outputs, report.findings) = finetune::check_outputs(&spec, &losses);
        }
        Inputs::Serve(spec) => {
            let mut buf = ServeBuffers::new(per_round, 0);
            for _ in 0..ROUNDS {
                let (mut round, peak) = with_rss_peak(|| serve::run_round(&spec, stop, &mut buf));
                round.stats.peak_rss_mb = peak;
                report.rounds.push(round.stats);
                report.wrong_outputs += round.wrong_outputs;
                report.findings.extend(round.findings);
            }
        }
    }
    report
}

/// What a traced run produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub findings: Vec<String>,
    pub spans: Tracer,
}

/// The traced run. Rounds alternate tracing off and on over the same fixed
/// number of ops, so the traced rounds' spans come with the overhead that
/// recording them cost; then every per-layer probe runs.
pub fn trace(workload: Workload, seed: u64) -> Traced {
    let (inputs, gen_ms) = Inputs::generate(workload, seed);
    let model = inputs.model();
    let mut spans = Tracer::with_capacity(0);
    let (mut plain, mut traced): (Vec<RoundStats>, Vec<RoundStats>) = Default::default();
    let mut findings = Vec::new();
    let mut wrong_outputs = 0;
    match inputs {
        Inputs::Finetune(spec) => {
            let steps = LEARNING_STEPS.max(TRACED_STEPS as usize) + 64;
            let mut buf = FinetuneBuffers::new(steps, 60.0, true);
            let mut losses = Vec::new();
            for round in 0..2 * TRACE_PAIRS {
                let tracing = round % 2 == 1;
                buf.tracer.set_enabled(tracing);
                let tail = if round == 0 { LEARNING_STEPS } else { 0 };
                let stats = finetune::run_round(&spec, Stop::Ops(TRACED_STEPS), tail, &mut buf);
                if tracing { &mut traced } else { &mut plain }.push(stats);
                losses.push(buf.losses.clone());
                spans.absorb(&buf.tracer);
                buf.tracer.clear();
            }
            (wrong_outputs, findings) = finetune::check_outputs(&spec, &losses);
        }
        Inputs::Serve(spec) => {
            let mut buf = ServeBuffers::new(60.0, TRACED_REQUESTS as usize);
            for round in 0..2 * TRACE_PAIRS {
                let tracing = round % 2 == 1;
                for client in &mut buf.clients {
                    client.tracer.set_enabled(tracing);
                }
                let outcome = serve::run_round(&spec, Stop::Ops(TRACED_REQUESTS), &mut buf);
                if tracing { &mut traced } else { &mut plain }.push(outcome.stats);
                wrong_outputs += outcome.wrong_outputs;
                findings.extend(outcome.findings);
                for client in &mut buf.clients {
                    spans.absorb(&client.tracer);
                    client.tracer.clear();
                }
            }
        }
    }

    let rate = |rounds: &[RoundStats]| -> Vec<f64> {
        rounds.iter().map(|r| r.timed.throughput_ops_s).collect()
    };
    let (plain_rate, traced_rate) = (rate(&plain), rate(&traced));
    let (tail_quantile, tail_ms) = latency_tail(&plain).unwrap_or((f64::NAN, f64::NAN));
    let mut probed = probes::run_all(model, seed);
    probed.metrics.extend([
        ("data.stream_gen_ms", gen_ms),
        (
            "bench.trace_overhead_share",
            1.0 - quiet_quartile(&traced_rate, false) / quiet_quartile(&plain_rate, false),
        ),
        ("bench.round_spread_share", spread_share(&plain_rate)),
        ("bench.latency_tail_ms", tail_ms),
        ("bench.latency_tail_quantile", tail_quantile),
    ]);
    let rounds = plain.iter().chain(&traced);
    // A probe that fails a check fails one op.
    let failed = rounds.clone().map(|r| r.failed).sum::<u64>()
        + wrong_outputs
        + probed.findings.len() as u64;
    findings.extend(probed.findings);
    Traced {
        metrics: probed.metrics,
        attempted: rounds.map(|r| r.attempted).sum(),
        failed,
        findings,
        spans,
    }
}

/// Writes `trace-<workload>.json` under the harness's `out/` directory.
pub fn write_trace(
    workload: Workload,
    seed: u64,
    host: Host,
    traced: &Traced,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.json", workload.name()));
    let metrics = Json::Obj(
        traced
            .metrics
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Num(*value)))
            .collect(),
    );
    std::fs::write(
        &path,
        trace::render(stamp(workload, seed, host), metrics, traced.spans.spans()),
    )?;
    Ok(path)
}
