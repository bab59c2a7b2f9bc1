//! `perfbench`: the end-to-end and per-layer benchmark of the EActors
//! services.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat|session_churn|smc_ring --seed N --seconds S --trace 0|1
//! ```
//!
//! * `chat` — open-loop one-to-one chat between two sessions on a trusted
//!   2-instance XMPP service (see `chat.rs`);
//! * `session_churn` — closed-loop connect/handshake/join/disconnect with
//!   two client slots on the same service (see `churn.rs`);
//! * `smc_ring` — the EActors secure sum, 3 parties (see `smc_ring.rs`).
//!
//! The program is driven only through public APIs, and it receives only
//! inputs generated from `--seed`. `--trace 0` measures with the runtime's
//! tracing off and reports the end-to-end metrics; `--trace 1` also runs a
//! traced window and reports the per-layer metrics. Human-readable lines
//! come first; the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod chat;
mod churn;
mod client;
mod layers;
mod parts;
mod service;
mod smc_ring;
mod stats;
mod sys;

use std::time::Duration;

use sgx_sim::Platform;

/// The end-to-end metrics every workload reports with `--trace 0`
/// (name, unit). They mirror `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("cores_used", "cores"),
    ("setup_s", "s"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
/// Figures of a layer a workload does not run read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("enet.cqe_per_enter", "count"),
    ("enet.enters_per_op", "count"),
    ("enet.fixed_read_frac", "frac"),
    ("enet.park_waits_per_kop", "count"),
    ("enet.dropped_per_kop", "count"),
    ("enet.reader_busy_us_per_op", "us"),
    ("enet.writer_busy_us_per_op", "us"),
    ("enet.conn_busy_us_per_op", "us"),
    ("enet.client_connect_us_p50", "us"),
    ("enet.client_send_us_p50", "us"),
    ("enet.client_recv_us_p50", "us"),
    ("enet.client_recv_empty_frac", "frac"),
    ("core.idle_pass_frac", "frac"),
    ("core.passes_per_op", "count"),
    ("core.parks_per_kop", "count"),
    ("core.park_timeout_frac", "frac"),
    ("core.wake_notifies_per_op", "count"),
    ("core.queue_delay_p50_us", "us"),
    ("core.queue_delay_p99_us", "us"),
    ("core.magazine_hit_frac", "frac"),
    ("core.cas_retries_per_kop", "count"),
    ("core.cardinality_violations", "count"),
    ("sgx.transitions_per_op", "count"),
    ("sgx.charged_us_per_op", "us"),
    ("sgx.transition_us_per_op", "us"),
    ("sgx.syscalls_per_op", "count"),
    ("sgx.paging_events", "count"),
    ("xmpp.shard_queue_delay_p50_us", "us"),
    ("xmpp.shard_queue_delay_p99_us", "us"),
    ("xmpp.instance_busy_us_per_op", "us"),
    ("xmpp.shard_busy_us_per_op", "us"),
    ("xmpp.connector_busy_us_per_op", "us"),
    ("xmpp.o2o_routed_frac", "frac"),
    ("xmpp.offline_drops", "count"),
    ("xmpp.bad_frames", "count"),
    ("xmpp.client_seal_us_p50", "us"),
    ("xmpp.client_open_us_p50", "us"),
    ("pos.store_bytes", "B"),
    ("pos.writes_per_op", "count"),
    ("obs.trace_dropped", "count"),
    ("obs.trace_overhead", "ratio"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.client_cpu_frac", "frac"),
    ("bench.failed_frac", "frac"),
    ("bench.time_wait_at_start", "count"),
    ("proc.peak_rss_mib", "MiB"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the child processes a workload spreads its untraced
    /// window over (see `parts.rs`): which part of it to measure.
    pub part: Option<u16>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut part = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--part" => part = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        part,
    })
}

/// Named metric values of one run, in the order they were put.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_owned(), value, unit));
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    pub attempted: u64,
    /// Failed, refused, timed-out or re-sent operations.
    pub failed: u64,
    pub metrics: Metrics,
}

/// Switch the runtime's trace emission. `Runtime::start` re-reads
/// `EACTORS_OBS`, so the environment is set as well as the live switch.
pub fn set_tracing(on: bool) {
    std::env::set_var("EACTORS_OBS", if on { "1" } else { "0" });
    eactors::obs::set_enabled(on);
}

/// Abort a run that hangs: no workload takes this long when healthy.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Make `sgx-sim` calibrate its pause loop now, while this thread is the
/// only one running. The platform times one pause loop once per process,
/// on the first charge, and converts every later charge into pause
/// iterations by that figure. Left to the first charge of a service, the
/// loop is timed while the service's workers compete for the two CPUs,
/// reads two to two and a half times slow, and makes every charge of the
/// run that much cheaper — so whole runs landed in a fast or a slow mode.
fn calibrate_while_quiet() {
    let costs = Platform::builder().build().costs();
    let warm = std::time::Instant::now();
    while warm.elapsed() < Duration::from_millis(300) {
        std::hint::spin_loop();
    }
    costs.charge(1);
    // How long charges of 1 ms at 3.4 GHz take on this host now.
    let took: Vec<f64> = (0..5)
        .map(|_| {
            let began = std::time::Instant::now();
            costs.charge(3_400_000);
            began.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    println!("sgx-sim: 1 ms charges took {took:.3?} ms");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.part.is_some() {
        sys::die_with_parent();
    }
    calibrate_while_quiet();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; aborting");
        std::process::exit(3);
    });
    set_tracing(false);
    if let Some(part) = args.part {
        let record = match args.workload.as_str() {
            "chat" => chat::part(&args, part),
            "session_churn" => churn::part(&args, part),
            "smc_ring" => smc_ring::part(&args, part),
            other => panic!("{other} does not run in parts"),
        };
        record.print();
        return;
    }
    let out = match args.workload.as_str() {
        "chat" => chat::run(&args),
        "session_churn" => churn::run(&args),
        "smc_ring" => smc_ring::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (chat, session_churn, smc_ring)");
            std::process::exit(2);
        }
    };
    for (name, value, unit) in &out.metrics.0 {
        println!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "  correct={} attempted={} failed={}",
        out.correct, out.attempted, out.failed
    );
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for &(name, unit) in declared {
        let (value, got) = out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not report {name}", args.workload));
        assert_eq!(got, unit, "metric {name} reported in the wrong unit");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` declares exactly the metrics this program reports,
    /// with the same units.
    #[test]
    fn benchmark_json_declares_the_reported_metrics() {
        let doc = include_str!("../../BENCHMARK.json");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = doc
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("BENCHMARK.json does not declare {name}"));
            let entry = &doc[at..doc[at..].find('}').map_or(doc.len(), |end| at + end)];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "BENCHMARK.json gives {name} another unit than {unit}"
            );
        }
        let declared = doc.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }
}
