//! Fleet serving benchmark: writes `BENCH_fleet_serving.json` (path
//! overridable as the first CLI argument) and prints a human summary.

use pe_bench::fleet::{run_fleet_bench, FleetBenchConfig};
use pe_bench::report::write_report;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_fleet_serving.json".to_string());
    let result = run_fleet_bench(&FleetBenchConfig::default());
    println!(
        "fleet serving [{} TCP clients, best of {} trials]:",
        result.clients, result.trials,
    );
    for leg in &result.legs {
        println!(
            "  closed loop, {} worker(s): {} requests ({} per client) in {:.3}s -> \
             {:.0} req/s, {:.0} rows/s",
            leg.workers,
            result.clients * result.requests_per_client,
            result.requests_per_client,
            leg.elapsed_secs,
            leg.requests_per_sec,
            leg.rows_per_sec,
        );
    }
    println!(
        "  open loop, {} worker(s): offered {:.0} req/s, achieved {:.0} req/s; \
         p50/p95/p99 = {:.0}/{:.0}/{:.0} us",
        result.open_loop_workers,
        result.open_loop_offered_per_sec,
        result.open_loop_achieved_per_sec,
        result.latency.p50_us,
        result.latency.p95_us,
        result.latency.p99_us,
    );
    write_report(&path, &result.to_json()).expect("failed to write report");
    println!("wrote {path}");
}
