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
//!   this one, N ≥ 1) or a comma-separated list of existing worker
//!   addresses. Default: `2` (self-spawned).
//! * `PE_SERVER_ADMISSION` — propagated to self-spawned workers, so the
//!   whole pool serves with identical behavior.
//!
//! A `PE_*` variable set to a value it cannot use stops the process with a
//! non-zero exit and a message naming the variable and the value.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};

use pe_fleet::{Balancer, BalancerConfig};
use pe_net::env::{env_value, EnvError};
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

/// What `PE_FLEET_WORKERS` asks for.
#[derive(Debug, PartialEq, Eq)]
enum Workers {
    /// Self-spawn this many `pe-server` children.
    Spawn(usize),
    /// Balance over these existing workers.
    Addrs(Vec<String>),
}

/// Parses `PE_FLEET_WORKERS` (`None` when unset).
fn workers_from(value: Option<&str>) -> Result<Workers, EnvError> {
    let spec = value.unwrap_or("2");
    let addrs: Vec<String> = spec
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    match spec.trim().parse::<usize>() {
        Ok(count) if count > 0 => Ok(Workers::Spawn(count)),
        Err(_) if !addrs.is_empty() => Ok(Workers::Addrs(addrs)),
        _ => Err(EnvError::new(
            "PE_FLEET_WORKERS",
            spec,
            "a worker count of at least 1 or a comma-separated list of worker addresses",
        )),
    }
}

fn main() {
    install_signal_handlers();
    let (workers, server) = workers_from(env_value("PE_FLEET_WORKERS").as_deref())
        .and_then(|workers| Ok((workers, ServerConfig::from_env()?)))
        .unwrap_or_else(|e| {
            eprintln!("pe-fleet: {e}");
            std::process::exit(2)
        });
    let mut children: Vec<Child> = Vec::new();
    let worker_addrs: Vec<String> = match workers {
        Workers::Spawn(count) => (0..count)
            .map(|_| {
                let (child, addr) = spawn_worker();
                children.push(child);
                addr
            })
            .collect(),
        Workers::Addrs(addrs) => addrs,
    };
    let config = BalancerConfig {
        server: ServerConfig {
            addr: env_value("PE_FLEET_ADDR").unwrap_or_else(|| "127.0.0.1:0".to_string()),
            ..server
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_spec_parses_counts_and_lists_and_rejects_zero() {
        assert_eq!(workers_from(None), Ok(Workers::Spawn(2)));
        assert_eq!(workers_from(Some(" 3 ")), Ok(Workers::Spawn(3)));
        let addrs = vec!["127.0.0.1:1".to_string(), "127.0.0.1:2".to_string()];
        let listed = workers_from(Some("127.0.0.1:1, 127.0.0.1:2,"));
        assert_eq!(listed, Ok(Workers::Addrs(addrs)));
        for bad in ["0", " , "] {
            assert_eq!(workers_from(Some(bad)).unwrap_err().value, bad);
        }
    }
}
