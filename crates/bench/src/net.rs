//! Network serving benchmark: multi-client loopback traffic through the
//! `pe_net` TCP transport (wire protocol + `pe-server` accept loop +
//! per-connection writer) in front of the queued engine.
//!
//! Run via the `bench_net` binary, which writes `BENCH_net_serving.json`
//! (the committed baseline the CI `bench_check` gate compares against):
//!
//! ```text
//! cargo run --release -p pe_bench --bin bench_net
//! ```
//!
//! Two passes over one loopback server, both with `clients` concurrent
//! `pe_net::Client` connections driving the same MLP workload as the
//! in-process serving bench ([`crate::serving`]):
//!
//! * **Closed loop** (the gated `requests_per_sec` headline): every client
//!   submits its whole stream as fast as backpressure admits, then redeems
//!   all tickets; wall clock runs from first submit to last resolution,
//!   best of `trials`.
//! * **Open loop** (the gated `latency_p99_us`): clients pace submissions
//!   to a fixed offered rate while a per-client waiter thread redeems
//!   tickets concurrently, so percentiles observe submission-to-resolution
//!   time over the wire — frame encode, kernel dispatch, completion-order
//!   write-back and client-side correlation included.
//!
//! Streams are eval-only: evaluations are row-independent and read-only,
//! so concurrent client interleaving cannot perturb the measured work (the
//! bit-identity claim behind this is enforced by the `net_serving`
//! integration suite, not here). Both gated metrics ride the host's TCP
//! stack and thread scheduler, so `bench_check` applies the wide
//! multi-worker tolerance band to them.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use pe_net::{Client, Server, ServerConfig};
use pockengine::pe_data::serving::{
    generate_request_stream, Priority, Request, RequestStreamConfig,
};
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;
use pockengine::{CompileOptions, Compiler, Engine, EngineConfig, QueueConfig, Submit};

use crate::report::Json;
use crate::serving::{mlp_factory, percentiles, LatencyPercentiles};

/// Configuration of one network-serving bench run.
#[derive(Debug, Clone)]
pub struct NetBenchConfig {
    /// Concurrent TCP client connections.
    pub clients: usize,
    /// Requests each client submits in the closed-loop pass.
    pub requests_per_client: usize,
    /// Request row counts (uniformly drawn).
    pub batch_sizes: Vec<usize>,
    /// Pre-specialized batch ladder of the server engine.
    pub warm_batches: Vec<usize>,
    /// Stream seed (each client stream derives its own from this).
    pub seed: u64,
    /// Independent closed-loop passes; the best is reported.
    pub trials: usize,
    /// Submission-queue capacity of the server engine.
    pub queue_capacity: usize,
    /// Default batching budget per queued request.
    pub queue_deadline: Duration,
    /// Requests each client submits in the open-loop pass.
    pub open_loop_requests_per_client: usize,
    /// Total offered rate of the open-loop pass (requests/second, split
    /// evenly across clients). Keep below loopback capacity: the pass
    /// measures latency under pacing, not saturation.
    pub open_loop_rate: f64,
}

impl Default for NetBenchConfig {
    fn default() -> Self {
        NetBenchConfig {
            clients: 4,
            requests_per_client: 256,
            batch_sizes: vec![1, 2, 4, 8],
            warm_batches: vec![4, 8],
            seed: 0,
            trials: 3,
            queue_capacity: 256,
            queue_deadline: Duration::from_micros(200),
            open_loop_requests_per_client: 384,
            open_loop_rate: 2_000.0,
        }
    }
}

/// Measured outcome of one network-serving bench run.
#[derive(Debug, Clone)]
pub struct NetBenchResult {
    /// Concurrent TCP clients.
    pub clients: usize,
    /// Requests per client in the closed-loop pass.
    pub requests_per_client: usize,
    /// Closed-loop passes taken.
    pub trials: usize,
    /// Wall-clock of the best closed-loop pass (first submit through the
    /// last ticket resolution, across all clients).
    pub elapsed_secs: f64,
    /// **The gated headline**: closed-loop requests per second over TCP,
    /// all clients combined, best of `trials`.
    pub requests_per_sec: f64,
    /// Real rows per second of the best closed-loop pass.
    pub rows_per_sec: f64,
    /// Offered rate of the open-loop pass.
    pub open_loop_offered_per_sec: f64,
    /// Achieved resolution rate of the open-loop pass.
    pub open_loop_achieved_per_sec: f64,
    /// Open-loop submission-to-resolution percentiles over the wire
    /// (`latency_p99_us` is gated as a ceiling).
    pub latency: LatencyPercentiles,
}

/// The server engine: same model, optimizer and warm ladder as the
/// in-process serving bench, admission wide open (`AcceptAll`) so the
/// workload is identical release over release.
pub(crate) fn net_engine(cfg: &NetBenchConfig) -> Engine {
    let program = Compiler::new(CompileOptions {
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    })
    .compile(mlp_factory);
    Engine::new(
        program,
        EngineConfig {
            warm_batches: cfg.warm_batches.clone(),
            ..EngineConfig::default()
        },
    )
}

/// One eval-only stream per client, each deterministically seeded.
pub(crate) fn client_streams(
    cfg: &NetBenchConfig,
    requests: usize,
    salt: u64,
) -> Vec<Vec<Request>> {
    (0..cfg.clients)
        .map(|client| {
            let stream_cfg = RequestStreamConfig {
                num_requests: requests,
                batch_sizes: cfg.batch_sizes.clone(),
                train_fraction: 0.0,
                priorities: Priority::ALL.to_vec(),
                num_classes: 8,
                feature_dim: 32,
                ..RequestStreamConfig::default()
            };
            let mut rng = Rng::seed_from_u64(cfg.seed + salt + client as u64);
            generate_request_stream(&stream_cfg, &mut rng)
        })
        .collect()
}

/// One closed-loop pass: every client floods its stream through its own
/// connection, then redeems every ticket. Connections are established
/// outside the timed region; the clock covers first submit through last
/// resolution across all clients.
pub(crate) fn closed_loop_pass(addr: SocketAddr, streams: &[Vec<Request>]) -> f64 {
    let clients: Vec<Client> = streams
        .iter()
        .map(|_| Client::connect(addr).expect("loopback connect"))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .map(|(client, stream)| {
                s.spawn(move || {
                    let tickets: Vec<_> = stream
                        .iter()
                        .map(|r| client.submit(r.clone()).expect("connection open"))
                        .collect();
                    for ticket in tickets {
                        let outcome = ticket.wait().expect("stream must be well-formed");
                        assert!(outcome.is_completed(), "bench request failed: {outcome:?}");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("bench client panicked");
        }
    });
    start.elapsed().as_secs_f64()
}

/// One open-loop pass: each client paces submissions to its share of the
/// offered rate while a waiter thread redeems tickets concurrently (so the
/// queue drains at pace and outstanding state stays bounded). Latencies
/// use the resolve instant the client reader stamped into each ticket
/// (`wait_timed`), measured from the submit call.
pub(crate) fn open_loop_pass(
    addr: SocketAddr,
    streams: &[Vec<Request>],
    rate_per_client: f64,
) -> (Vec<f64>, f64) {
    let clients: Vec<Client> = streams
        .iter()
        .map(|_| Client::connect(addr).expect("loopback connect"))
        .collect();
    let start = Instant::now();
    let reports: Vec<(Vec<f64>, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams)
            .map(|(client, stream)| {
                s.spawn(move || {
                    let (tx, rx) = std::sync::mpsc::channel::<(Instant, pe_net::NetTicket)>();
                    std::thread::scope(|inner| {
                        let waiter = inner.spawn(move || {
                            let mut latencies = Vec::new();
                            let mut last = Instant::now();
                            for (submitted, ticket) in rx {
                                let (outcome, resolved) = ticket.wait_timed();
                                let outcome = outcome.expect("stream must be well-formed");
                                assert!(
                                    outcome.is_completed(),
                                    "bench request failed: {outcome:?}"
                                );
                                latencies.push((resolved - submitted).as_secs_f64() * 1e6);
                                last = last.max(resolved);
                            }
                            (latencies, last)
                        });
                        for (i, r) in stream.iter().enumerate() {
                            // Pace to the offered rate; sleeping keeps the
                            // producer off the drainer's core on small CI
                            // containers.
                            let arrival = Duration::from_secs_f64(i as f64 / rate_per_client);
                            let now = start.elapsed();
                            if now < arrival {
                                std::thread::sleep(arrival - now);
                            }
                            let at = Instant::now();
                            let ticket = client.submit(r.clone()).expect("connection open");
                            tx.send((at, ticket)).expect("waiter alive");
                        }
                        drop(tx);
                        waiter.join().expect("ticket waiter panicked")
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench client panicked"))
            .collect()
    });
    let last = reports
        .iter()
        .map(|(_, last)| *last)
        .max()
        .expect("at least one client");
    let latencies = reports.into_iter().flat_map(|(l, _)| l).collect();
    (latencies, (last - start).as_secs_f64())
}

/// Runs the network-serving benchmark; see the module docs for the
/// methodology.
pub fn run_net_bench(cfg: &NetBenchConfig) -> NetBenchResult {
    assert!(cfg.trials > 0, "at least one trial required");
    assert!(cfg.clients > 0, "at least one client required");
    let server = Server::spawn(
        net_engine(cfg).into_async(QueueConfig {
            capacity: cfg.queue_capacity,
            default_deadline: cfg.queue_deadline,
            ..QueueConfig::default()
        }),
        ServerConfig::default(),
    )
    .expect("loopback server");
    let addr = server.local_addr();

    // Closed loop: best of N.
    let streams = client_streams(cfg, cfg.requests_per_client, 0);
    let total_requests = cfg.clients * cfg.requests_per_client;
    let total_rows: usize = streams.iter().flatten().map(Request::rows).sum();
    let mut elapsed = f64::INFINITY;
    for _ in 0..cfg.trials {
        elapsed = elapsed.min(closed_loop_pass(addr, &streams));
    }

    // Open loop: one paced pass at the offered rate.
    let open_streams = client_streams(cfg, cfg.open_loop_requests_per_client, 1_000);
    let rate_per_client = cfg.open_loop_rate / cfg.clients as f64;
    let (latencies, open_elapsed) = open_loop_pass(addr, &open_streams, rate_per_client);
    let open_total = cfg.clients * cfg.open_loop_requests_per_client;

    drop(server.shutdown());

    NetBenchResult {
        clients: cfg.clients,
        requests_per_client: cfg.requests_per_client,
        trials: cfg.trials,
        elapsed_secs: elapsed,
        requests_per_sec: total_requests as f64 / elapsed.max(1e-9),
        rows_per_sec: total_rows as f64 / elapsed.max(1e-9),
        open_loop_offered_per_sec: cfg.open_loop_rate,
        open_loop_achieved_per_sec: open_total as f64 / open_elapsed.max(1e-9),
        latency: percentiles(latencies),
    }
}

impl NetBenchResult {
    /// The JSON representation written to `BENCH_net_serving.json`.
    ///
    /// `requests_per_sec` (floor) and `latency_p99_us` (ceiling, inverted
    /// to a rate) are the fields the CI `bench_check` gate compares against
    /// the committed baseline, both on the wide multi-worker band; the rest
    /// is informational.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::Str("net_serving".into())),
            ("clients", Json::Int(self.clients as u64)),
            (
                "requests_per_client",
                Json::Int(self.requests_per_client as u64),
            ),
            ("trials", Json::Int(self.trials as u64)),
            ("elapsed_secs", Json::Num(self.elapsed_secs)),
            ("requests_per_sec", Json::Num(self.requests_per_sec)),
            ("rows_per_sec", Json::Num(self.rows_per_sec)),
            (
                "open_loop_offered_per_sec",
                Json::Num(self.open_loop_offered_per_sec),
            ),
            (
                "open_loop_achieved_per_sec",
                Json::Num(self.open_loop_achieved_per_sec),
            ),
            ("latency_p50_us", Json::Num(self.latency.p50_us)),
            ("latency_p95_us", Json::Num(self.latency.p95_us)),
            ("latency_p99_us", Json::Num(self.latency.p99_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature end-to-end run: the bench harness itself must drive real
    /// TCP clients and produce a well-formed gated report.
    #[test]
    fn miniature_net_bench_produces_a_gated_report() {
        let cfg = NetBenchConfig {
            clients: 2,
            requests_per_client: 8,
            trials: 1,
            open_loop_requests_per_client: 8,
            open_loop_rate: 400.0,
            ..NetBenchConfig::default()
        };
        let result = run_net_bench(&cfg);
        assert!(result.requests_per_sec > 0.0);
        assert!(result.latency.p99_us >= result.latency.p50_us);
        let json = result.to_json();
        assert_eq!(
            json.get("bench").and_then(Json::as_str),
            Some("net_serving")
        );
        assert!(json.get("requests_per_sec").and_then(Json::as_f64).unwrap() > 0.0);
        assert!(json.get("latency_p99_us").and_then(Json::as_f64).unwrap() > 0.0);
    }
}
