//! Fleet serving benchmark: multi-client loopback traffic through the
//! `pe_fleet` balancer in front of a pool of loopback `pe-server` workers.
//!
//! Run via the `bench_fleet` binary, which writes
//! `BENCH_fleet_serving.json` (the committed baseline the CI `bench_check`
//! gate compares against):
//!
//! ```text
//! cargo run --release -p pe_bench --bin bench_fleet
//! ```
//!
//! The workload and drivers are shared with the single-server network
//! bench ([`crate::net`]); only the topology differs — every request
//! crosses TCP twice (client → balancer → worker) plus the balancer's own
//! queue and routing threads. Two kinds of passes:
//!
//! * **Closed loop, one leg per pool size** (`requests_per_sec_workers_N`,
//!   each a gated floor): every client floods its eval-only stream through
//!   the balancer as fast as backpressure admits, then redeems all
//!   tickets; best of `trials`. The single-worker leg doubles as the gated
//!   `requests_per_sec` headline — it prices the balancer hop itself
//!   against `BENCH_net_serving.json`'s direct-to-server numbers.
//! * **Open loop** (the gated `latency_p99_us` ceiling): clients pace
//!   submissions to a fixed offered rate against the
//!   `open_loop_workers`-sized fleet while waiter threads redeem
//!   concurrently, so percentiles observe submission-to-resolution time
//!   across both hops.
//!
//! Streams are eval-only: evaluations are row-independent, read-only and
//! fence-free, so least-in-flight routing cannot perturb the measured
//! work (bit-identity under mixed train/eval streams is enforced by the
//! `fleet_serving` integration suite, not here). Every gated metric rides
//! two TCP hops and at least four thread handoffs, so `bench_check`
//! applies the wide multi-worker tolerance band to all of them.

use pe_fleet::{Balancer, BalancerConfig};
use pe_net::{Server, ServerConfig};
use pockengine::QueueConfig;

use crate::net::{client_streams, closed_loop_pass, net_engine, open_loop_pass, NetBenchConfig};
use crate::report::Json;
use crate::serving::{percentiles, LatencyPercentiles};

/// Configuration of one fleet-serving bench run.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Workload and per-worker engine knobs, shared with the single-server
    /// network bench so the two reports stay comparable.
    pub net: NetBenchConfig,
    /// Pool sizes to run the closed-loop legs at.
    pub worker_counts: Vec<usize>,
    /// Pool size of the open-loop (latency) pass.
    pub open_loop_workers: usize,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            net: NetBenchConfig::default(),
            worker_counts: vec![1, 2, 4],
            open_loop_workers: 2,
        }
    }
}

/// One closed-loop leg of the fleet bench.
#[derive(Debug, Clone)]
pub struct FleetLeg {
    /// Workers behind the balancer for this leg.
    pub workers: usize,
    /// Wall-clock of the best pass (first submit through the last ticket
    /// resolution, across all clients).
    pub elapsed_secs: f64,
    /// Closed-loop requests per second through the balancer, all clients
    /// combined, best of `trials` (gated as
    /// `requests_per_sec_workers_N`).
    pub requests_per_sec: f64,
    /// Real rows per second of the best pass.
    pub rows_per_sec: f64,
}

/// Measured outcome of one fleet-serving bench run.
#[derive(Debug, Clone)]
pub struct FleetBenchResult {
    /// Concurrent TCP clients.
    pub clients: usize,
    /// Requests per client in each closed-loop pass.
    pub requests_per_client: usize,
    /// Closed-loop passes taken per leg.
    pub trials: usize,
    /// One closed-loop leg per configured pool size.
    pub legs: Vec<FleetLeg>,
    /// Pool size of the open-loop pass.
    pub open_loop_workers: usize,
    /// Offered rate of the open-loop pass.
    pub open_loop_offered_per_sec: f64,
    /// Achieved resolution rate of the open-loop pass.
    pub open_loop_achieved_per_sec: f64,
    /// Open-loop submission-to-resolution percentiles across both TCP hops
    /// (`latency_p99_us` is gated as a ceiling).
    pub latency: LatencyPercentiles,
}

/// Boots `workers` loopback servers and a balancer over them. The balancer
/// queue mirrors the worker queues so backpressure composes instead of
/// re-ordering.
fn boot_fleet(cfg: &FleetBenchConfig, workers: usize) -> (Vec<Server>, Balancer) {
    let queue = QueueConfig {
        capacity: cfg.net.queue_capacity,
        default_deadline: cfg.net.queue_deadline,
    };
    let pool: Vec<Server> = (0..workers)
        .map(|_| {
            Server::spawn(
                net_engine(&cfg.net).into_async(queue),
                ServerConfig::default(),
            )
            .expect("loopback worker")
        })
        .collect();
    let addrs: Vec<String> = pool.iter().map(|w| w.local_addr().to_string()).collect();
    let balancer = Balancer::spawn(
        &addrs,
        BalancerConfig {
            queue,
            ..BalancerConfig::default()
        },
    )
    .expect("spawn balancer");
    (pool, balancer)
}

/// Runs the fleet-serving benchmark; see the module docs for the
/// methodology.
pub fn run_fleet_bench(cfg: &FleetBenchConfig) -> FleetBenchResult {
    assert!(cfg.net.trials > 0, "at least one trial required");
    assert!(cfg.net.clients > 0, "at least one client required");
    assert!(!cfg.worker_counts.is_empty(), "at least one pool size");

    let streams = client_streams(&cfg.net, cfg.net.requests_per_client, 0);
    let total_requests = cfg.net.clients * cfg.net.requests_per_client;
    let total_rows: usize = streams
        .iter()
        .flatten()
        .map(pockengine::Request::rows)
        .sum();

    let legs: Vec<FleetLeg> = cfg
        .worker_counts
        .iter()
        .map(|&workers| {
            let (pool, balancer) = boot_fleet(cfg, workers);
            let addr = balancer.local_addr();
            let mut elapsed = f64::INFINITY;
            for _ in 0..cfg.net.trials {
                elapsed = elapsed.min(closed_loop_pass(addr, &streams));
            }
            let stats = balancer.shutdown();
            assert_eq!(
                stats.cancelled, 0,
                "fleet bench lost requests at {workers} workers: {stats:?}"
            );
            for worker in pool {
                drop(worker.shutdown());
            }
            FleetLeg {
                workers,
                elapsed_secs: elapsed,
                requests_per_sec: total_requests as f64 / elapsed.max(1e-9),
                rows_per_sec: total_rows as f64 / elapsed.max(1e-9),
            }
        })
        .collect();

    // Open loop: one paced pass against the configured pool size.
    let open_streams = client_streams(&cfg.net, cfg.net.open_loop_requests_per_client, 1_000);
    let rate_per_client = cfg.net.open_loop_rate / cfg.net.clients as f64;
    let (pool, balancer) = boot_fleet(cfg, cfg.open_loop_workers);
    let (latencies, open_elapsed) =
        open_loop_pass(balancer.local_addr(), &open_streams, rate_per_client);
    drop(balancer.shutdown());
    for worker in pool {
        drop(worker.shutdown());
    }
    let open_total = cfg.net.clients * cfg.net.open_loop_requests_per_client;

    FleetBenchResult {
        clients: cfg.net.clients,
        requests_per_client: cfg.net.requests_per_client,
        trials: cfg.net.trials,
        legs,
        open_loop_workers: cfg.open_loop_workers,
        open_loop_offered_per_sec: cfg.net.open_loop_rate,
        open_loop_achieved_per_sec: open_total as f64 / open_elapsed.max(1e-9),
        latency: percentiles(latencies),
    }
}

impl FleetBenchResult {
    /// The JSON representation written to `BENCH_fleet_serving.json`.
    ///
    /// `requests_per_sec` (floor; the single-worker leg), every
    /// `requests_per_sec_workers_N` (floors) and `latency_p99_us` (ceiling,
    /// inverted to a rate) are the fields the CI `bench_check` gate
    /// compares against the committed baseline, all on the wide
    /// multi-worker band; the rest is informational.
    pub fn to_json(&self) -> Json {
        let headline = self
            .legs
            .iter()
            .find(|leg| leg.workers == 1)
            .or_else(|| self.legs.first())
            .expect("at least one leg");
        let mut fields = vec![
            ("bench".to_string(), Json::Str("fleet_serving".into())),
            ("clients".to_string(), Json::Int(self.clients as u64)),
            (
                "requests_per_client".to_string(),
                Json::Int(self.requests_per_client as u64),
            ),
            ("trials".to_string(), Json::Int(self.trials as u64)),
            (
                "requests_per_sec".to_string(),
                Json::Num(headline.requests_per_sec),
            ),
            ("rows_per_sec".to_string(), Json::Num(headline.rows_per_sec)),
        ];
        for leg in &self.legs {
            fields.push((
                format!("requests_per_sec_workers_{}", leg.workers),
                Json::Num(leg.requests_per_sec),
            ));
            fields.push((
                format!("elapsed_secs_workers_{}", leg.workers),
                Json::Num(leg.elapsed_secs),
            ));
        }
        fields.extend([
            (
                "open_loop_workers".to_string(),
                Json::Int(self.open_loop_workers as u64),
            ),
            (
                "open_loop_offered_per_sec".to_string(),
                Json::Num(self.open_loop_offered_per_sec),
            ),
            (
                "open_loop_achieved_per_sec".to_string(),
                Json::Num(self.open_loop_achieved_per_sec),
            ),
            ("latency_p50_us".to_string(), Json::Num(self.latency.p50_us)),
            ("latency_p95_us".to_string(), Json::Num(self.latency.p95_us)),
            ("latency_p99_us".to_string(), Json::Num(self.latency.p99_us)),
        ]);
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: the harness must boot real balancers at
    /// every pool size and produce a well-formed gated report.
    #[test]
    fn miniature_fleet_bench_produces_a_gated_report() {
        let cfg = FleetBenchConfig {
            net: NetBenchConfig {
                clients: 2,
                requests_per_client: 8,
                trials: 1,
                open_loop_requests_per_client: 8,
                open_loop_rate: 400.0,
                ..NetBenchConfig::default()
            },
            worker_counts: vec![1, 2],
            open_loop_workers: 2,
        };
        let result = run_fleet_bench(&cfg);
        assert_eq!(result.legs.len(), 2);
        assert!(result.legs.iter().all(|leg| leg.requests_per_sec > 0.0));
        assert!(result.latency.p99_us >= result.latency.p50_us);
        let json = result.to_json();
        assert_eq!(
            json.get("bench").and_then(Json::as_str),
            Some("fleet_serving")
        );
        assert!(json.get("requests_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        for workers in [1, 2] {
            let key = format!("requests_per_sec_workers_{workers}");
            assert!(json.get(&key).and_then(Json::as_f64).unwrap() > 0.0);
        }
        assert!(json.get("latency_p99_us").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
