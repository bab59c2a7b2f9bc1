//! Per-layer figures, read from outside the program: deltas of the
//! counters and histograms the runtime already keeps in its metrics
//! registry, plus `sgx-sim` platform statistics, over a measured window.
//!
//! Every name read here must exist in the registry; a missing one is a
//! panic, so a telemetry refactor cannot silently zero a layer figure.

use std::time::{Duration, Instant};

use eactors::obs::{HistSnapshot, MetricsSnapshot};
use sgx_sim::StatsSnapshot;

use crate::client::ClientTimes;
use crate::stats::median;
use crate::Metrics;

/// Simulated cycles per microsecond (`obs::clock` and `sgx-sim` both
/// count cycles of the paper's 3.4 GHz machine).
pub const CYCLES_PER_US: f64 = 3400.0;

/// Registry, platform and process state at one instant.
pub struct Probe {
    pub reg: MetricsSnapshot,
    pub sgx: StatsSnapshot,
    pub at: Instant,
    pub cpu: Duration,
}

impl Probe {
    pub fn take(reg: MetricsSnapshot, sgx: StatsSnapshot) -> Probe {
        Probe {
            reg,
            sgx,
            at: Instant::now(),
            cpu: crate::sys::process_cpu(),
        }
    }
}

/// The change between two probes.
pub struct Window<'a> {
    pub a: &'a Probe,
    pub b: &'a Probe,
}

/// `worker_<index>_<stat>` exactly (so `passes` does not match
/// `idle_passes`).
fn is_worker_stat(name: &str, stat: &str) -> bool {
    name.strip_prefix("worker_")
        .and_then(|rest| rest.split_once('_'))
        .is_some_and(|(idx, s)| {
            !idx.is_empty() && idx.bytes().all(|b| b.is_ascii_digit()) && s == stat
        })
}

fn hist_delta(after: &HistSnapshot, before: Option<&HistSnapshot>) -> HistSnapshot {
    let mut d = after.clone();
    if let Some(b) = before {
        for (x, y) in d.buckets.iter_mut().zip(b.buckets.iter()) {
            *x -= y;
        }
        d.count -= b.count;
        d.sum -= b.sum;
    }
    d
}

/// Quantile `q` of a log2 histogram, interpolated linearly inside the
/// bucket that holds it (bucket `i` spans `[2^(i-1), 2^i)`).
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= rank {
            if i == 0 {
                return 0.0;
            }
            let lo = (1u64 << (i - 1)) as f64;
            return lo + lo * (rank - seen) / n as f64;
        }
        seen += n as f64;
    }
    h.max as f64
}

impl Window<'_> {
    pub fn wall(&self) -> Duration {
        self.b.at - self.a.at
    }

    pub fn cpu(&self) -> Duration {
        self.b.cpu.saturating_sub(self.a.cpu)
    }

    /// Delta of counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        let after = self
            .b
            .reg
            .counter(name)
            .unwrap_or_else(|| panic!("registry has no counter `{name}`"));
        (after - self.a.reg.counter(name).unwrap_or(0)) as f64
    }

    /// Delta of the sum of every counter whose name satisfies `pick`.
    pub fn counters(&self, what: &str, pick: impl Fn(&str) -> bool) -> f64 {
        let mut found = false;
        let mut total = 0.0;
        for (name, after) in &self.b.reg.counters {
            if pick(name) {
                found = true;
                total += (after - self.a.reg.counter(name).unwrap_or(0)) as f64;
            }
        }
        assert!(found, "registry has no counters for {what}");
        total
    }

    pub fn worker_counters(&self, stat: &str) -> f64 {
        self.counters(&format!("worker_*_{stat}"), |n| is_worker_stat(n, stat))
    }

    /// Bucket-wise delta of every histogram whose name satisfies `pick`,
    /// merged into one.
    pub fn hists(&self, what: &str, pick: impl Fn(&str) -> bool) -> HistSnapshot {
        let mut merged: Option<HistSnapshot> = None;
        for (name, after) in &self.b.reg.hists {
            if !pick(name) {
                continue;
            }
            let d = hist_delta(after, self.a.reg.hist(name));
            merged = Some(match merged {
                None => d,
                Some(mut m) => {
                    for (x, y) in m.buckets.iter_mut().zip(d.buckets.iter()) {
                        *x += y;
                    }
                    m.count += d.count;
                    m.sum += d.sum;
                    m.max = m.max.max(d.max);
                    m
                }
            });
        }
        merged.unwrap_or_else(|| panic!("registry has no histograms for {what}"))
    }

    /// Σ execution time of the actors whose names start with `prefix`,
    /// in µs (traced runs only: the runtime times bodies when tracing).
    pub fn busy_us(&self, prefix: &str) -> f64 {
        let h = self.hists(&format!("actor_{prefix}*_exec_cycles"), |n| {
            n.strip_prefix("actor_")
                .and_then(|n| n.strip_suffix("_exec_cycles"))
                .is_some_and(|a| a.starts_with(prefix))
        });
        h.sum as f64 / CYCLES_PER_US
    }
}

/// p50 of bench-timed call samples, in µs.
pub fn p50_us(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the XMPP workloads hand the layer breakdown besides the window.
pub struct ServiceWork<'a> {
    /// Operations completed in the window (stanzas or sessions).
    pub ops: f64,
    /// One-to-one stanzas the generator sent in the window.
    pub stanzas_sent: f64,
    /// Directory mutations in the window (Σ store dirty-epoch deltas).
    pub pos_writes: f64,
    /// Bytes the directory stores occupy.
    pub pos_bytes: f64,
    /// Whether the backend is io_uring (its ring counters exist only then).
    pub uring: bool,
    /// The service platform's simulated cycles per syscall.
    pub syscall_cycles: f64,
    pub client: &'a ClientTimes,
}

/// The per-layer figures of `xmpp` over `enet`, `eactors`, `sgx-sim`
/// and `pos`, for one traced window.
pub fn service_layers(w: &Window, work: &ServiceWork, m: &mut Metrics) {
    let ops = work.ops.max(1.0);
    let kops = ops / 1000.0;

    // enet
    if work.uring {
        let enters = w.counter("net_enter_syscalls");
        m.put(
            "enet.cqe_per_enter",
            ratio(w.counter("net_cqe_reaped"), enters),
            "count",
        );
        m.put("enet.enters_per_op", enters / ops, "count");
        m.put(
            "enet.fixed_read_frac",
            ratio(w.counter("net_fixed_reads"), w.counter("net_sqe_submitted")),
            "frac",
        );
    } else {
        println!("note: backend is not io_uring; enet ring figures read 0");
        m.put("enet.cqe_per_enter", 0.0, "count");
        m.put("enet.enters_per_op", 0.0, "count");
        m.put("enet.fixed_read_frac", 0.0, "frac");
    }
    m.put(
        "enet.park_waits_per_kop",
        w.counter("net_park_waits") / kops,
        "count",
    );
    let dropped = w.counter("net_dropped_reads") + w.counter("net_dropped_writes");
    m.put("enet.dropped_per_kop", dropped / kops, "count");
    m.put(
        "enet.reader_busy_us_per_op",
        w.busy_us("reader-") / ops,
        "us",
    );
    m.put(
        "enet.writer_busy_us_per_op",
        w.busy_us("writer-") / ops,
        "us",
    );
    m.put("enet.conn_busy_us_per_op", w.busy_us("conn-") / ops, "us");
    let c = work.client;
    m.put("enet.client_connect_us_p50", p50_us(&c.connect_ns), "us");
    m.put("enet.client_send_us_p50", p50_us(&c.send_ns), "us");
    m.put("enet.client_recv_us_p50", p50_us(&c.recv_ns), "us");
    m.put(
        "enet.client_recv_empty_frac",
        ratio(c.recv_empty as f64, c.recv_calls as f64),
        "frac",
    );

    // eactors core
    core_layers(w, ops, m);

    // sgx-sim: the generator's backend calls are charged to the service
    // platform (the backend is shared), so they are taken back out.
    let client_calls = c.net_calls as f64;
    let mut sgx = SgxDelta::between(&w.a.sgx, &w.b.sgx);
    sgx.syscalls -= client_calls;
    sgx.cycles -= client_calls * work.syscall_cycles;
    sgx_layers(&sgx, ops, m);
    let tr = w.hists("worker_*_transition_cycles", |n| {
        is_worker_stat(n, "transition_cycles")
    });
    m.put(
        "sgx.transition_us_per_op",
        tr.sum as f64 / CYCLES_PER_US / ops,
        "us",
    );

    // xmpp
    let shard_q = w.hists("xmpp_shard_*_queue_delay_ns", |n| {
        n.starts_with("xmpp_shard_") && n.ends_with("_queue_delay_ns")
    });
    m.put(
        "xmpp.shard_queue_delay_p50_us",
        hist_quantile(&shard_q, 0.5) / 1e3,
        "us",
    );
    m.put(
        "xmpp.shard_queue_delay_p99_us",
        hist_quantile(&shard_q, 0.99) / 1e3,
        "us",
    );
    m.put(
        "xmpp.instance_busy_us_per_op",
        w.busy_us("xmpp-") / ops,
        "us",
    );
    m.put(
        "xmpp.shard_busy_us_per_op",
        w.busy_us("dir-shard-") / ops,
        "us",
    );
    m.put(
        "xmpp.connector_busy_us_per_op",
        w.busy_us("connector") / ops,
        "us",
    );
    m.put(
        "xmpp.o2o_routed_frac",
        ratio(w.counter("xmpp_o2o_routed"), work.stanzas_sent),
        "frac",
    );
    m.put(
        "xmpp.offline_drops",
        w.counter("xmpp_offline_drops"),
        "count",
    );
    m.put("xmpp.bad_frames", w.counter("xmpp_bad_frames"), "count");
    m.put("xmpp.client_seal_us_p50", p50_us(&c.seal_ns), "us");
    m.put("xmpp.client_open_us_p50", p50_us(&c.open_ns), "us");

    // pos
    m.put("pos.store_bytes", work.pos_bytes, "B");
    m.put("pos.writes_per_op", work.pos_writes / ops, "count");

    // obs
    m.put("obs.trace_dropped", w.counter("trace_dropped"), "count");
}

/// Scheduler and messaging-substrate figures (`eactors` core).
fn core_layers(w: &Window, ops: f64, m: &mut Metrics) {
    let kops = ops / 1000.0;
    let passes = w.worker_counters("passes");
    let parks = w.worker_counters("parks");
    m.put(
        "core.idle_pass_frac",
        ratio(w.worker_counters("idle_passes"), passes),
        "frac",
    );
    m.put("core.passes_per_op", passes / ops, "count");
    m.put("core.parks_per_kop", parks / kops, "count");
    m.put(
        "core.park_timeout_frac",
        if parks > 0.0 {
            1.0 - w.worker_counters("wakes") / parks
        } else {
            0.0
        },
        "frac",
    );
    m.put(
        "core.wake_notifies_per_op",
        w.counter("wake_notifies") / ops,
        "count",
    );
    let q = w.hists("worker_*_queue_delay_cycles", |n| {
        is_worker_stat(n, "queue_delay_cycles")
    });
    m.put(
        "core.queue_delay_p50_us",
        hist_quantile(&q, 0.5) / CYCLES_PER_US,
        "us",
    );
    m.put(
        "core.queue_delay_p99_us",
        hist_quantile(&q, 0.99) / CYCLES_PER_US,
        "us",
    );
    let hits = w.worker_counters("magazine_hits");
    let misses = w.worker_counters("magazine_misses");
    m.put("core.magazine_hit_frac", ratio(hits, hits + misses), "frac");
    m.put(
        "core.cas_retries_per_kop",
        w.counter("arena_freelist_cas_retries") / kops,
        "count",
    );
    m.put(
        "core.cardinality_violations",
        w.counter("mbox_cardinality_violations"),
        "count",
    );
}

/// Change in a platform's charge counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SgxDelta {
    pub transitions: f64,
    pub cycles: f64,
    pub syscalls: f64,
    pub paging_events: f64,
}

impl SgxDelta {
    pub fn between(a: &StatsSnapshot, b: &StatsSnapshot) -> SgxDelta {
        SgxDelta {
            transitions: (b.transitions() - a.transitions()) as f64,
            cycles: (b.cycles_charged() - a.cycles_charged()) as f64,
            syscalls: (b.syscalls() - a.syscalls()) as f64,
            paging_events: (b.paging_events() - a.paging_events()) as f64,
        }
    }

    pub fn add(&mut self, o: &SgxDelta) {
        self.transitions += o.transitions;
        self.cycles += o.cycles;
        self.syscalls += o.syscalls;
        self.paging_events += o.paging_events;
    }
}

/// Platform charges (`sgx-sim`) per operation.
pub fn sgx_layers(d: &SgxDelta, ops: f64, m: &mut Metrics) {
    m.put("sgx.transitions_per_op", d.transitions / ops, "count");
    m.put(
        "sgx.charged_us_per_op",
        d.cycles / CYCLES_PER_US / ops,
        "us",
    );
    m.put("sgx.syscalls_per_op", d.syscalls / ops, "count");
    m.put("sgx.paging_events", d.paging_events, "count");
}
