//! `pe-server`: serve the reference MLP engine over the wire protocol.
//!
//! Binds `PE_SERVER_ADDR` (default `127.0.0.1:0`), prints the bound
//! address on the first stdout line (`listening on <addr>`, flushed — a
//! harness can parse it), then serves until the process is killed.
//!
//! `PE_SERVER_ADMISSION=deadline` switches admission control to
//! `DeadlineFeasible` (with seeded estimates, so rejection decisions are
//! deterministic — the loopback suites depend on that); unset or
//! `accept-all` admits everything.
//!
//! A `PE_*` variable set to a value it cannot use stops the process with a
//! non-zero exit and a message naming the variable and the value.
//!
//! SIGINT / SIGTERM trigger a graceful stop: the listener closes, every
//! in-flight request drains through `Server::shutdown`, and the process
//! exits 0 — so a fleet supervisor (or CI) can stop workers cleanly.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};

use pockengine::pe_graph::GraphBuilder;
use pockengine::pe_models::BuiltModel;
use pockengine::pe_runtime::Optimizer;
use pockengine::pe_tensor::Rng;
use pockengine::{AdmissionPolicy, CompileOptions, Compiler, Engine, EngineConfig, QueueConfig};

use pe_net::env::{env_value, EnvError};
use pe_net::{Server, ServerConfig};

/// The same two-layer MLP family the serving benchmark uses: 32 features,
/// 64 hidden units, 8 classes, cross-entropy head.
fn mlp_factory(batch: usize) -> BuiltModel {
    let mut rng = Rng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    let x = b.input("x", [batch, 32]);
    let labels = b.input("labels", [batch]);
    let w1 = b.weight("fc1.weight", [64, 32], &mut rng);
    let b1 = b.bias("fc1.bias", 64);
    let h = b.linear(x, w1, Some(b1));
    let h = b.relu(h);
    let w2 = b.weight("fc2.weight", [8, 64], &mut rng);
    let b2 = b.bias("fc2.bias", 8);
    let logits = b.linear(h, w2, Some(b2));
    let loss = b.cross_entropy(logits, labels);
    let graph = b.finish(vec![loss, logits]);
    BuiltModel {
        graph,
        loss,
        logits,
        feature_input: "x".to_string(),
        label_input: "labels".to_string(),
        num_blocks: 2,
        name: "serving-mlp".to_string(),
    }
}

/// Set from the signal handler; polled by the main loop.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

/// Installs `on_signal` for SIGINT and SIGTERM via the raw libc `signal`
/// entry point (the platform libc is already linked; no crate needed).
/// Only the async-signal-safe atomic store happens in the handler.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Parses `PE_SERVER_ADMISSION` (`None` when unset).
fn admission_from(value: Option<&str>) -> Result<AdmissionPolicy, EnvError> {
    match value.map(str::trim) {
        None | Some("accept-all") => Ok(AdmissionPolicy::AcceptAll),
        Some("deadline") => Ok(AdmissionPolicy::DeadlineFeasible),
        Some(other) => Err(EnvError::new(
            "PE_SERVER_ADMISSION",
            other,
            "`accept-all` or `deadline`",
        )),
    }
}

fn main() {
    install_signal_handlers();
    let (admission, config) = admission_from(env_value("PE_SERVER_ADMISSION").as_deref())
        .and_then(|admission| Ok((admission, ServerConfig::from_env()?)))
        .unwrap_or_else(|e| {
            eprintln!("pe-server: {e}");
            std::process::exit(2)
        });
    let program = Compiler::new(CompileOptions {
        optimizer: Optimizer::sgd(0.05),
        ..CompileOptions::default()
    })
    .compile(mlp_factory);
    let mut engine = Engine::new(
        program,
        EngineConfig {
            warm_batches: vec![1, 2, 4, 8],
            admission,
            ..EngineConfig::default()
        },
    );
    if matches!(admission, AdmissionPolicy::DeadlineFeasible) {
        for batch in 1..=8 {
            engine.seed_latency_estimate(batch, std::time::Duration::from_micros(100));
        }
    }
    let server =
        Server::spawn(engine.into_async(QueueConfig::default()), config).expect("bind server");
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush stdout");
    // Serve until signalled, then drain and exit cleanly.
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let engine = server.shutdown();
    drop(engine);
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_is_accept_all_unless_set_to_deadline() {
        for value in [None, Some("accept-all")] {
            assert!(matches!(
                admission_from(value),
                Ok(AdmissionPolicy::AcceptAll)
            ));
        }
        let deadline = admission_from(Some("deadline"));
        assert!(matches!(deadline, Ok(AdmissionPolicy::DeadlineFeasible)));
        let err = admission_from(Some("deadlin")).unwrap_err();
        assert_eq!(
            (err.var.as_str(), err.value.as_str()),
            ("PE_SERVER_ADMISSION", "deadlin")
        );
    }
}
