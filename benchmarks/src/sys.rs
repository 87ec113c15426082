//! What the harness asks of the operating system: clocks, resident memory,
//! an allocation counter, the environment check and the host stamp.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use pockengine::pe_data::Json;

thread_local! {
    // Const-initialised and without a destructor, so the allocator can touch
    // it without allocating or registering anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread allocation count. The count is
/// thread-local so that the serve workloads' eight-odd threads never share a
/// cache line through the harness.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// An empty vector with `capacity` reserved *and resident*: it is built
/// from copies of `filler` and then cleared, so that filling it inside a
/// timed phase neither allocates nor faults in untouched pages.
pub fn reserved<T: Clone>(filler: T, capacity: usize) -> Vec<T> {
    let mut buffer = vec![filler; capacity];
    buffer.clear();
    buffer
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the first call in this process; the time base of every
/// span and slice mark.
pub fn now_ns() -> u64 {
    instant_ns(Instant::now())
}

/// `at` on the [`now_ns`] time base.
pub fn instant_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Confines this process, and every thread it starts from here on, to one
/// CPU — the highest-numbered it is allowed on, CPU 0 being where a small
/// VM's device interrupts land — and returns that CPU, or `None` where the
/// kernel refuses.
///
/// Every workload runs on a one-core budget. On the two-vCPU shared host
/// this was written on, each vCPU is slowed by its own neighbours in its own
/// episodes; a stack of sixty threads spread over both is undisturbed only
/// when both are, which is rare enough that no estimator finds the quiet
/// slices (fleet throughput 21 % run to run). On one vCPU the same stack is
/// 17 % faster — every cross-CPU wake-up is a VM exit — and repeats within
/// 7 %.
fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes, as both calls require.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << bit;
        (sched_setaffinity(0, size, mask.as_ptr()) == 0).then_some(word * 64 + bit)
    }
}

/// A `Vm*` line of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Resident-set high-water mark, KiB.
pub fn rss_peak_kib() -> u64 {
    status_kib("VmHWM")
}

/// Resets the resident-set high-water mark to the current resident set, so
/// that each round shows its own peak. Best effort: a kernel that refuses
/// leaves the mark where it was, and rounds then report the peak so far.
pub fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Every `PE_*` variable in the environment. The libraries read fourteen of
/// them at scattered call sites; any one set would change what is measured.
pub fn pe_env_vars() -> Vec<(String, String)> {
    let mut vars: Vec<_> = std::env::vars()
        .filter(|(name, _)| name.starts_with("PE_"))
        .collect();
    vars.sort();
    vars
}

fn git_rev() -> String {
    // Only the repository this harness sits in counts: a checkout that is not
    // a git repository must not pick up a revision from a directory above it.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["-C", root, "rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a workload runs: the host's CPUs and the one the process is
/// confined to.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    pub logical_cpus: usize,
    pub pinned_cpu: Option<usize>,
}

impl Host {
    /// Counts the host's CPUs, then confines the process to one of them.
    pub fn confine() -> Host {
        Host {
            logical_cpus: std::thread::available_parallelism().map_or(0, |n| n.get()),
            pinned_cpu: pin_to_one_cpu(),
        }
    }

    /// Host and build facts stamped on every output.
    pub fn stamp(self, seed: u64) -> Vec<(&'static str, Json)> {
        let pinned = match self.pinned_cpu {
            Some(cpu) => Json::Int(cpu as u64),
            None => Json::Str("none: the kernel refused".into()),
        };
        vec![
            ("logical_cpus", Json::Int(self.logical_cpus as u64)),
            ("pinned_cpu", pinned),
            ("git_rev", Json::Str(git_rev())),
            ("rustc", Json::Str(env!("BENCH_RUSTC_VERSION").into())),
            ("seed", Json::Int(seed)),
        ]
    }
}
