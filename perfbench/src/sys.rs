//! Process and host probes: CPU time through `getrusage`, peak and
//! pinned memory from `/proc/self/status`, and the host's TCP TIME_WAIT
//! population; and `prctl`, so a child process ends with its parent.
//!
//! `getrusage` and `prctl` are declared directly (the benchmark, like the
//! rest of the repository, has no external crates). The struct layout is the 64-bit
//! Linux one: two `timeval`s followed by fourteen `long`s.

use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Have the kernel kill this process when the thread that started it
/// ends, so a part process never outlives a benchmark run that was
/// aborted.
pub fn die_with_parent() {
    // SAFETY: PR_SET_PDEATHSIG takes one unsigned long, the signal.
    let rc = unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL) };
    assert_eq!(rc, 0, "prctl(PR_SET_PDEATHSIG) failed");
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable, correctly laid out `struct
    // rusage` for 64-bit Linux; the kernel writes only within it.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(u: &Rusage) -> Duration {
    let us = |t: &Timeval| t.tv_sec as u64 * 1_000_000 + t.tv_usec as u64;
    Duration::from_micros(us(&u.ru_utime) + us(&u.ru_stime))
}

/// User + system CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF))
}

/// User + system CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_of(&rusage(RUSAGE_THREAD))
}

/// A `kB` line of `/proc/self/status`.
fn status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field} line"))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
/// `getrusage`'s `ru_maxrss` is no substitute: it survives `exec`, so it
/// reports the launcher's RSS when that was larger.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM") / 1024.0
}

/// Memory this process has pinned (`VmPin`), in KiB: io_uring fixed
/// buffers among it.
pub fn pinned_kib() -> f64 {
    status_kib("VmPin")
}

/// Sockets in TCP TIME_WAIT on this host (IPv4 + IPv6), or `None` when
/// the kernel tables cannot be read. Loopback churn leaves one per
/// closed client connection for 60 s; `session_churn` records the count
/// it starts with so a run can be told apart from its predecessors.
pub fn time_wait_sockets() -> Option<u64> {
    let mut total = 0;
    let mut any = false;
    for table in ["/proc/net/tcp", "/proc/net/tcp6"] {
        let Ok(text) = std::fs::read_to_string(table) else {
            continue;
        };
        any = true;
        // Column 4 is the state; 06 is TIME_WAIT.
        total += text
            .lines()
            .skip(1)
            .filter(|l| l.split_whitespace().nth(3) == Some("06"))
            .count() as u64;
    }
    any.then_some(total)
}
