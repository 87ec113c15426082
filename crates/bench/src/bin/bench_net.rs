//! Network serving benchmark: writes `BENCH_net_serving.json` (path
//! overridable as the first CLI argument) and prints a human summary.

use pe_bench::net::{run_net_bench, NetBenchConfig};
use pe_bench::report::write_report;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_net_serving.json".to_string());
    let result = run_net_bench(&NetBenchConfig::default());
    println!(
        "net serving [{} TCP clients, best of {} trials]:",
        result.clients, result.trials,
    );
    println!(
        "  closed loop: {} requests ({} per client) in {:.3}s -> {:.0} req/s, {:.0} rows/s",
        result.clients * result.requests_per_client,
        result.requests_per_client,
        result.elapsed_secs,
        result.requests_per_sec,
        result.rows_per_sec,
    );
    println!(
        "  open loop:   offered {:.0} req/s, achieved {:.0} req/s; p50/p95/p99 = \
         {:.0}/{:.0}/{:.0} us",
        result.open_loop_offered_per_sec,
        result.open_loop_achieved_per_sec,
        result.latency.p50_us,
        result.latency.p95_us,
        result.latency.p99_us,
    );
    write_report(&path, &result.to_json()).expect("failed to write report");
    println!("wrote {path}");
}
