//! `pe-fleet`: a balancer over a pool of `pe-server` workers.
//!
//! Prints `listening on <addr>` (flushed) once the front door is bound,
//! then serves until SIGINT/SIGTERM, which drains the balancer and stops
//! self-spawned workers gracefully (SIGTERM → their own drain path).
//!
//! Knobs:
//!
//! * `PE_FLEET_ADDR` — front-door bind address (default `127.0.0.1:0`).
//! * `PE_FLEET_WORKERS` — either an integer N (self-spawn N `pe-server`
//!   children on ephemeral loopback ports; the binary must sit next to
//!   this one) or a comma-separated list of existing worker addresses.
//!   Default: `2` (self-spawned).
//! * `PE_SERVER_ADMISSION` — propagated to self-spawned workers, so the
//!   whole pool serves with identical behavior.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use pe_fleet::{Balancer, BalancerConfig};
use pe_net::ServerConfig;

static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    STOP.store(true, Ordering::SeqCst);
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Asks a child to stop the way its signal handler expects (SIGTERM on
/// unix, hard kill elsewhere), then reaps it.
fn stop_child(child: &mut Child) {
    #[cfg(unix)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
    }
    #[cfg(not(unix))]
    {
        let _ = child.kill();
    }
    let _ = child.wait();
}

/// Spawns one `pe-server` next to this binary on an ephemeral port and
/// parses the bound address off its first stdout line.
fn spawn_worker() -> (Child, String) {
    let server = std::env::current_exe()
        .expect("resolve current executable")
        .parent()
        .expect("executable has a parent directory")
        .join("pe-server");
    let mut child = Command::new(&server)
        .env("PE_SERVER_ADDR", "127.0.0.1:0")
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn worker {}: {e}", server.display()));
    let stdout = child.stdout.take().expect("worker stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read worker address line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .to_string();
    (child, addr)
}

fn main() {
    install_signal_handlers();
    let spec = std::env::var("PE_FLEET_WORKERS").unwrap_or_else(|_| "2".to_string());
    let mut children: Vec<Child> = Vec::new();
    let worker_addrs: Vec<String> = if let Ok(count) = spec.trim().parse::<usize>() {
        (0..count.max(1))
            .map(|_| {
                let (child, addr) = spawn_worker();
                children.push(child);
                addr
            })
            .collect()
    } else {
        spec.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    };
    let config = BalancerConfig {
        server: ServerConfig {
            addr: std::env::var("PE_FLEET_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_string()),
            ..ServerConfig::from_env()
        },
        ..BalancerConfig::default()
    };
    let balancer = Balancer::spawn(&worker_addrs, config).expect("spawn balancer");
    println!("listening on {}", balancer.local_addr());
    std::io::stdout().flush().expect("flush stdout");
    while !STOP.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    let stats = balancer.shutdown();
    for child in &mut children {
        stop_child(child);
    }
    eprintln!(
        "fleet served {} evals / {} trains, {} checkpoints broadcast, {} redispatches",
        stats.evals_routed, stats.trains_routed, stats.checkpoints_broadcast, stats.redispatches
    );
    std::process::exit(0);
}
