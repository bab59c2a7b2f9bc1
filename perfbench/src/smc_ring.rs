//! `smc_ring`: the EActors secure sum (paper §5.2) as a stream of jobs.
//!
//! Each job builds a fresh platform and runs [`smc::run_ea`]: 3 parties
//! in 3 enclaves plus an untrusted driver (4 workers on the 2-CPU
//! reference host), encrypted ring channels, vectors of [`DIM`] elements,
//! [`ROUNDS`] rounds, and `verify: true` — the driver checks every round
//! against `protocol::reference_sum`. The job's parties hold secrets
//! derived from a per-job seed drawn from the workload seed.
//!
//! `enet`, `xmpp` and `pos` do no work here: this is the workload on
//! which a network or directory change should change nothing. `run_ea`
//! keeps its runtime private, so the only layer figures are the
//! platform's `sgx-sim` charges and the process-wide `eactors` arena
//! counters; the other per-layer figures read 0.
//!
//! Untraced, the window runs in child processes (see `parts.rs`).

use std::time::{Duration, Instant};

use sgx_sim::Platform;
use smc::{protocol, run_ea, SmcConfig};

use crate::layers::{sgx_layers, SgxDelta};
use crate::parts::{self, Record};
use crate::stats::{median, percentile, sliced_p99, SplitMix64};
use crate::{set_tracing, sys, Args, Outcome, PER_LAYER};

/// Parties in the ring.
pub const PARTIES: usize = 3;

/// Vector dimension (the short-vector end of Figure 12).
pub const DIM: usize = 64;

/// Rounds per job.
pub const ROUNDS: u64 = 500;

/// What a series of jobs measured.
#[derive(Default)]
struct Jobs {
    /// Wall time per job (platform build to verified result), ms.
    latencies: Vec<f64>,
    /// Platform build + deployment start + teardown per job, s.
    setups: Vec<f64>,
    /// Rounds per second of each job's rounds.
    rates: Vec<f64>,
    rounds: u64,
    /// Time the rounds themselves took, summed.
    round_time: Duration,
    wall: Duration,
    cpu: Duration,
    sgx: SgxDelta,
    cas: u64,
    violations: u64,
}

fn jobs(rng: &mut SplitMix64, period: Duration, out: &mut Outcome) -> Jobs {
    let mut j = Jobs::default();
    let cas0 = eactors::arena::freelist_cas_retries().get();
    let viol0 = eactors::arena::mbox_cardinality_violations().get();
    let cpu0 = sys::process_cpu();
    let began = Instant::now();
    while began.elapsed() < period {
        let config = SmcConfig {
            parties: PARTIES,
            dim: DIM,
            rounds: ROUNDS,
            verify: true,
            seed: rng.next_u64(),
            ..SmcConfig::default()
        };
        // The reference the driver checks against must itself be the
        // element-wise wrapping sum of the parties' secrets.
        let secrets = config.initial_secrets();
        let expected: Vec<u32> = (0..DIM)
            .map(|i| secrets.iter().fold(0u32, |acc, s| acc.wrapping_add(s[i])))
            .collect();
        if protocol::reference_sum(&secrets) != expected {
            eprintln!("smc_ring: reference_sum disagrees with the plain sum");
            out.correct = false;
        }
        out.attempted += 1;
        let t0 = Instant::now();
        let platform = Platform::builder().build();
        let before = platform.stats();
        match run_ea(&platform, &config) {
            Ok(r) if r.rounds == config.rounds => {
                let wall = t0.elapsed();
                j.latencies.push(wall.as_secs_f64() * 1e3);
                j.setups.push(wall.saturating_sub(r.elapsed).as_secs_f64());
                j.rates.push(r.throughput_rps);
                j.rounds += r.rounds;
                j.round_time += r.elapsed;
            }
            Ok(r) => {
                eprintln!("smc_ring: job ran {} of {ROUNDS} rounds", r.rounds);
                out.failed += 1;
                out.correct = false;
            }
            Err(e) => {
                eprintln!("smc_ring: job failed: {e}");
                out.failed += 1;
            }
        }
        j.sgx.add(&SgxDelta::between(&before, &platform.stats()));
    }
    j.wall = began.elapsed();
    j.cpu = sys::process_cpu().saturating_sub(cpu0);
    j.cas = eactors::arena::freelist_cas_retries().get() - cas0;
    j.violations = eactors::arena::mbox_cardinality_violations().get() - viol0;
    if j.violations > 0 {
        eprintln!("smc_ring: {} mbox cardinality violations", j.violations);
        out.correct = false;
    }
    println!(
        "smc_ring: {} jobs, {} rounds, {:.0} sums/s overall, {:.0} in the median job, job p50 {:.2} ms",
        j.latencies.len(),
        j.rounds,
        j.rounds as f64 / j.round_time.as_secs_f64().max(1e-9),
        median(&j.rates),
        median(&j.latencies)
    );
    j
}

impl Jobs {
    /// The median job's rate: a job the OS starved for a moment moves
    /// one sample, not the figure.
    fn sums_per_s(&self) -> f64 {
        median(&self.rates)
    }
}

/// Unmeasured jobs before a window: they also take the platform's cost
/// loop reading outside it.
const WARMUP: Duration = Duration::from_millis(300);

/// A part process: warm up, then run jobs for `--seconds`.
pub fn part(args: &Args, _part: u16) -> Record {
    let mut rng = SplitMix64::new(args.seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    jobs(&mut rng, WARMUP, &mut out);
    let main = jobs(&mut rng, Duration::from_secs_f64(args.seconds), &mut out);
    let mut r = Record::default();
    r.push("latencies", main.latencies);
    r.push("setups", main.setups);
    r.push("rates", main.rates);
    r.push("rounds", [main.rounds as f64]);
    r.push("wall", [main.wall.as_secs_f64()]);
    r.push("cpu", [main.cpu.as_secs_f64()]);
    r.push_outcome(&out);
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if !args.trace {
        let all = parts::run_all(args);
        all.add_outcome_to(&mut out);
        let latencies = all.get("latencies");
        let (rounds, wall, cpu) = (all.sum("rounds"), all.sum("wall"), all.sum("cpu"));
        let m = &mut out.metrics;
        m.put("latency_p50_ms", percentile(latencies, 0.5), "ms");
        m.put("latency_p99_ms", sliced_p99(latencies), "ms");
        // The median job's rate, as in `Jobs::sums_per_s`.
        m.put("throughput_per_s", median(all.get("rates")), "1/s");
        m.put("cpu_us_per_op", cpu * 1e6 / rounds.max(1.0), "us");
        m.put("cores_used", cpu / wall, "cores");
        m.put("setup_s", median(all.get("setups")), "s");
    } else {
        let mut rng = SplitMix64::new(args.seed);
        jobs(&mut rng, WARMUP, &mut out);
        let half = Duration::from_secs_f64(args.seconds / 2.0);
        let main = jobs(&mut rng, half, &mut out);
        set_tracing(true);
        let traced = jobs(&mut rng, half, &mut out);
        set_tracing(false);
        let m = &mut out.metrics;
        // Layers this workload does not run read 0.
        for &(name, unit) in PER_LAYER {
            m.put(name, 0.0, unit);
        }
        let rounds = traced.rounds.max(1) as f64;
        sgx_layers(&traced.sgx, rounds, m);
        m.put(
            "core.cas_retries_per_kop",
            traced.cas as f64 * 1000.0 / rounds,
            "count",
        );
        m.put(
            "core.cardinality_violations",
            traced.violations as f64,
            "count",
        );
        m.put(
            "obs.trace_overhead",
            main.sums_per_s() / traced.sums_per_s(),
            "ratio",
        );
    }
    let m = &mut out.metrics;
    m.put("proc.peak_rss_mib", sys::peak_rss_mib(), "MiB");
    m.put(
        "bench.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    out
}
