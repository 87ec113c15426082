//! Engine serving benchmark: writes `BENCH_engine_serving.json` (path
//! overridable as the first CLI argument) and prints a human summary.

use pe_bench::report::write_report;
use pe_bench::serving::{run_serving_bench, ServingBenchConfig};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine_serving.json".to_string());
    let result = run_serving_bench(&ServingBenchConfig::default());
    println!("engine serving [best of {} trials]:", result.trials,);
    println!(
        "  queued:    {} requests ({} train steps, {} eval micro-batches) in {:.3}s -> \
         {:.0} req/s, {:.0} rows/s; latency p50/p95/p99 = {:.0}/{:.0}/{:.0} us",
        result.requests,
        result.metrics.train_steps,
        result.metrics.eval_batches,
        result.elapsed_secs,
        result.requests_per_sec,
        result.rows_per_sec,
        result.latency.p50_us,
        result.latency.p95_us,
        result.latency.p99_us,
    );
    println!(
        "  admission: {} rejected (DeadlineFeasible latency pass); per-priority p99 = {}",
        result.rejected_requests,
        result
            .latency_by_priority
            .iter()
            .map(|(p, l)| format!("{}:{:.0}us", p.name(), l.p99_us))
            .collect::<Vec<_>>()
            .join(" "),
    );
    println!(
        "  sync ref:  {:.0} req/s, {:.0} rows/s",
        result.sync_requests_per_sec, result.sync_rows_per_sec,
    );
    println!(
        "  open loop: offered {:.0} req/s, achieved {:.0} req/s; p50/p95/p99 = \
         {:.0}/{:.0}/{:.0} us",
        result.open_loop_offered_per_sec,
        result.open_loop_achieved_per_sec,
        result.open_loop_latency.p50_us,
        result.open_loop_latency.p95_us,
        result.open_loop_latency.p99_us,
    );
    println!(
        "  cache: {} dispatch hits / {} misses ({} / {} per request) across {} \
         specializations; batcher: {} groups ({} target, {} deadline, {} barrier, {} expired); \
         {} padded rows",
        result.cache_hits,
        result.cache_misses,
        result.cache_request_hits,
        result.cache_request_misses,
        result.specializations,
        result.batcher.eval_groups,
        result.batcher.target_flushes,
        result.batcher.deadline_flushes,
        result.batcher.barrier_flushes,
        result.batcher.expired_dispatches,
        result.metrics.padded_rows,
    );
    write_report(&path, &result.to_json()).expect("failed to write report");
    println!("wrote {path}");
}
