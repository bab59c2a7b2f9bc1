//! `chat`: an open-loop one-to-one chat.
//!
//! Two long-lived sessions on the 2-instance trusted service (round-robin
//! assignment puts one on each instance) send sealed 150-byte messages to
//! each other, each on its own seeded Poisson schedule. Every stanza takes
//! the whole per-stanza path — READER recv, instance open, directory
//! lookup, seal, cross-instance WRITER, send — and no session set-up.
//!
//! Latency is one-way, from the time a message was *due* (so a stalled
//! generator or service charges every message queued behind the stall),
//! to its delivery, at one fixed reference rate. The sustained rate is
//! the highest rung of a ladder of offered rates whose p99 meets
//! [`LIMIT_MS`] with no growing backlog. Every delivered body and
//! sequence number is checked against what was sent: no loss, no
//! duplicate, no reordering.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sgx_sim::Platform;
use xmpp::stanza::Stanza;
use xmpp::Assignment;

use crate::client::{ClientTimes, Conn, ConnError, POLL, PORT};
use crate::layers::{service_layers, Probe, ServiceWork, Window};
use crate::parts::{self, Record, PROCS};
use crate::service::{set_up, Service, SETUPS};
use crate::stats::{median, percentile, sliced_p99, SplitMix64};
use crate::{set_tracing, sys, Args, Outcome};

/// Aggregate offered rate (both directions) at which latency is reported.
pub const REFERENCE_RATE: f64 = 2000.0;

/// The ladder of offered rates (stanzas/s, both directions) tried for
/// the sustained figure: rung `i` offers `LADDER_FROM × LADDER_STEP^i`.
/// A climb goes up until the first rung that fails. On a 2-CPU host the
/// rate the service sustains drifts by ±10% from second to second, so
/// each part process of a run climbs once from the bottom and the median
/// top rung is reported.
pub const LADDER_FROM: f64 = 20_000.0;
const LADDER_STEP: f64 = 1.1;
const LADDER_RUNGS: i32 = 40;

/// The step of the second, finer climb from the top coarse rung: a run's
/// figure is the median of six tops, and on coarse rungs alone it jumped
/// by a whole step when the median fell between two.
const FINE_STEP: f64 = 1.025;

/// The p99 one-way latency a rung must meet.
pub const LIMIT_MS: f64 = 20.0;

/// How long the backlog may stay over the limit's allowance before the
/// rung counts as overrun.
const OVERRUN_AFTER: Duration = Duration::from_millis(50);

/// Stanzas in flight beyond which a rung is overrun at once, well inside
/// what the service's per-instance node pools can hold.
const MAX_IN_FLIGHT: u64 = 1024;

/// Message body bytes (the paper's client payload).
const BODY_BYTES: usize = 150;

/// How long a phase may take to deliver what it sent after its last send.
const DRAIN: Duration = Duration::from_secs(3);

/// Share of `--seconds` spent at the reference rate (twice, untraced then
/// traced, with `--trace 1`; in each part process untraced).
const REFERENCE_SHARE: f64 = 0.4;

/// Share of `--seconds` each ladder rung runs for.
const RUNG_SHARE: f64 = 0.02;

const NAMES: [&str; 2] = ["alice", "bob"];

/// The body of message `seq` from `sender`: its sequence number, then
/// seeded filler up to [`BODY_BYTES`].
fn body(seed: u64, sender: usize, seq: u64) -> String {
    let mut rng = SplitMix64::new(
        seed ^ (sender as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)
            ^ seq.wrapping_mul(0xE703_7ED1_A0B4_28DB),
    );
    let mut s = format!("{seq:010}:");
    let fill = rng.letters(BODY_BYTES - s.len());
    s.push_str(&fill);
    s
}

struct Party {
    conn: Conn,
    times: ClientTimes,
    /// Next sequence number this party sends.
    sent: u64,
}

/// Connect one session and wait for its stream acknowledgement.
fn open(svc: &Service, name: &str, client: &Platform, t: &mut ClientTimes) -> Conn {
    let net = svc.net.as_ref();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut conn =
        Conn::connect_when_listening(net, svc.port, deadline, t).expect("connect to the chat service");
    conn.queue_stream(name, client.costs());
    match conn.wait_stanza(net, true, deadline, t) {
        Ok(Some(Stanza::StreamOk { .. })) => conn,
        other => panic!("chat session {name} was not accepted: {other:?}"),
    }
}

/// What one party's thread saw in a phase.
#[derive(Default)]
struct Side {
    /// `(arrival, one-way latency ms)` of each delivered message.
    latencies: Vec<(Instant, f64)>,
    late_ms: Vec<f64>,
    delivered: u64,
    lost: u64,
    incorrect: u64,
    cpu: Duration,
}

/// What a phase measured.
struct Phase {
    rate: f64,
    /// One-way latencies (ms) in arrival order.
    latencies: Vec<f64>,
    late_ms: Vec<f64>,
    sent: u64,
    delivered: u64,
    /// The backlog outgrew the limit and sending stopped early.
    overrun: bool,
    lost: u64,
    incorrect: u64,
    send_period: Duration,
    client_cpu: Duration,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
    }

    /// The rung rule: p99 within the limit, nothing lost or wrong, and
    /// never more in flight than the limit allows at this rate.
    fn meets_limit(&self) -> bool {
        self.lost == 0 && self.incorrect == 0 && !self.overrun && self.p(0.99) <= LIMIT_MS
    }
}

/// Offsets of a Poisson schedule at `rate` per second over `period`.
fn schedule(rng: &mut SplitMix64, rate: f64, period: Duration, start: Instant) -> Vec<Instant> {
    let mut out = Vec::new();
    let mut t = rng.exp(1.0 / rate);
    while t < period.as_secs_f64() {
        out.push(start + Duration::from_secs_f64(t));
        t += rng.exp(1.0 / rate);
    }
    out
}

/// Traffic shared by a phase's two threads: what each has sent, what
/// has been delivered, and whether the backlog outgrew the limit.
struct Flow {
    sent: [AtomicU64; 2],
    done_sending: [AtomicBool; 2],
    delivered: AtomicU64,
    /// Stanzas allowed in flight: the rate times the latency limit.
    allowed: u64,
    /// When the backlog last went over `allowed` (µs after `base`, plus
    /// one), or 0 while it is within it.
    over_since: AtomicU64,
    base: Instant,
    overrun: AtomicBool,
}

impl Flow {
    fn new(rate: f64) -> Flow {
        Flow {
            sent: [AtomicU64::new(0), AtomicU64::new(0)],
            done_sending: [AtomicBool::new(false), AtomicBool::new(false)],
            delivered: AtomicU64::new(0),
            allowed: (rate * LIMIT_MS / 1000.0).max(16.0) as u64,
            over_since: AtomicU64::new(0),
            base: Instant::now(),
            overrun: AtomicBool::new(false),
        }
    }

    /// Whether the backlog is growing: over the allowance for longer
    /// than [`OVERRUN_AFTER`] (a stall that the service catches up on is
    /// not growth), or ever over [`MAX_IN_FLIGHT`].
    fn check(&self, now: Instant) -> bool {
        let in_flight = self.in_flight();
        let t = (now - self.base).as_micros() as u64 + 1;
        if in_flight > MAX_IN_FLIGHT {
            self.overrun.store(true, Ordering::SeqCst);
        } else if in_flight > self.allowed {
            let since =
                match self
                    .over_since
                    .compare_exchange(0, t, Ordering::SeqCst, Ordering::SeqCst)
                {
                    Ok(_) => t,
                    Err(since) => since,
                };
            if t.saturating_sub(since) >= OVERRUN_AFTER.as_micros() as u64 {
                self.overrun.store(true, Ordering::SeqCst);
            }
        } else {
            self.over_since.store(0, Ordering::SeqCst);
        }
        self.overrun.load(Ordering::SeqCst)
    }

    fn in_flight(&self) -> u64 {
        let sent: u64 = self.sent.iter().map(|s| s.load(Ordering::SeqCst)).sum();
        sent.saturating_sub(self.delivered.load(Ordering::SeqCst))
    }
}

/// One party's thread: send its own schedule, receive the peer's. Once
/// more stanzas are in flight than the limit allows, the backlog is
/// growing: both parties stop sending and the rung has failed.
#[allow(clippy::too_many_arguments)]
fn drive(
    net: &dyn enet::NetBackend,
    flow: &Flow,
    me: &mut Party,
    idx: usize,
    mine: &[Instant],
    theirs: &[Instant],
    their_first: u64,
    send_end: Instant,
    seed: u64,
) -> Side {
    let cpu0 = sys::thread_cpu();
    let peer = 1 - idx;
    let mut side = Side::default();
    let mut next = 0usize;
    let mut expect = their_first;
    let give_up = send_end + DRAIN;
    let t = &mut me.times;
    'run: loop {
        let now = Instant::now();
        let mut queued = false;
        let stop = flow.check(now);
        while !stop && next < mine.len() && mine[next] <= now {
            let stanza = Stanza::Message {
                to: NAMES[peer].into(),
                from: String::new(),
                body: body(seed, idx, me.sent),
            };
            me.conn.queue_sealed(&stanza, t);
            side.late_ms.push((now - mine[next]).as_secs_f64() * 1e3);
            me.sent += 1;
            next += 1;
            queued = true;
            flow.sent[idx].fetch_add(1, Ordering::SeqCst);
        }
        if stop || next == mine.len() {
            flow.done_sending[idx].store(true, Ordering::SeqCst);
        }
        let arrived = match me
            .conn
            .flush(net, t)
            .map_err(ConnError::from)
            .and_then(|_| me.conn.poll(net, t))
        {
            Ok(a) => a,
            Err(e) => {
                eprintln!("chat: {} lost its connection: {e}", NAMES[idx]);
                side.incorrect += 1;
                break 'run;
            }
        };
        loop {
            let stanza = match me.conn.next_stanza(false, t) {
                Ok(Some(s)) => s,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("chat: {}: {e}", NAMES[idx]);
                    side.incorrect += 1;
                    break 'run;
                }
            };
            let at = Instant::now();
            let Stanza::Message {
                from, body: got, ..
            } = stanza
            else {
                side.incorrect += 1;
                continue;
            };
            let seq = got.get(..10).and_then(|s| s.parse::<u64>().ok());
            let ok = from == NAMES[peer] && seq == Some(expect) && got == body(seed, peer, expect);
            if !ok {
                eprintln!(
                    "chat: {} expected message {expect} from {}, got {seq:?} from {from}",
                    NAMES[idx], NAMES[peer]
                );
                side.incorrect += 1;
                expect = seq.map_or(expect, |s| s + 1);
                continue;
            }
            let due = theirs[(expect - their_first) as usize];
            side.latencies.push((at, (at - due).as_secs_f64() * 1e3));
            side.delivered += 1;
            flow.delivered.fetch_add(1, Ordering::SeqCst);
            expect += 1;
        }
        let peer_done = flow.done_sending[peer].load(Ordering::SeqCst);
        let peer_sent = flow.sent[peer].load(Ordering::SeqCst);
        let all_in = peer_done && side.delivered + side.incorrect >= peer_sent;
        if flow.done_sending[idx].load(Ordering::SeqCst) && all_in {
            break;
        }
        if now >= give_up {
            side.lost = peer_sent.saturating_sub(side.delivered + side.incorrect);
            break;
        }
        if !arrived && !queued {
            let wake = match mine.get(next) {
                Some(&due) if !stop => due.min(now + POLL),
                _ => now + POLL,
            };
            if wake > now {
                std::thread::sleep(wake - now);
            }
        }
    }
    side.cpu = sys::thread_cpu().saturating_sub(cpu0);
    side
}

/// Run both parties at aggregate `rate` for `period`.
fn phase(
    svc: &Service,
    parties: &mut [Party; 2],
    rate: f64,
    period: Duration,
    rng: &mut SplitMix64,
    seed: u64,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(1);
    let scheds = [
        schedule(rng, rate / 2.0, period, start),
        schedule(rng, rate / 2.0, period, start),
    ];
    let firsts = [parties[0].sent, parties[1].sent];
    let send_end = start + period;
    let net = svc.net.as_ref();
    let flow = Flow::new(rate);
    let f = &flow;
    let [a, b] = parties;
    let sides: Vec<Side> = std::thread::scope(|s| {
        let ha = s.spawn(|| {
            drive(
                net, f, a, 0, &scheds[0], &scheds[1], firsts[1], send_end, seed,
            )
        });
        let hb = s.spawn(|| {
            drive(
                net, f, b, 1, &scheds[1], &scheds[0], firsts[0], send_end, seed,
            )
        });
        vec![
            ha.join().expect("chat party thread"),
            hb.join().expect("chat party thread"),
        ]
    });
    let sent: u64 = flow.sent.iter().map(|s| s.load(Ordering::SeqCst)).sum();
    let mut arrivals: Vec<(Instant, f64)> = sides
        .iter()
        .flat_map(|s| s.latencies.iter().copied())
        .collect();
    arrivals.sort_by_key(|&(at, _)| at);
    Phase {
        rate,
        latencies: arrivals.into_iter().map(|(_, l)| l).collect(),
        late_ms: sides
            .iter()
            .flat_map(|s| s.late_ms.iter().copied())
            .collect(),
        sent,
        delivered: sides.iter().map(|s| s.delivered).sum(),
        overrun: flow.overrun.load(Ordering::SeqCst),
        lost: sides.iter().map(|s| s.lost).sum(),
        incorrect: sides.iter().map(|s| s.incorrect).sum(),
        send_period: period,
        client_cpu: sides.iter().map(|s| s.cpu).sum(),
    }
}

/// Tally a phase into the run's totals.
fn tally(out: &mut Outcome, p: &Phase) {
    out.attempted += p.sent;
    out.failed += p.lost + p.incorrect;
    if p.incorrect > 0 || p.lost > 0 {
        out.correct = false;
    }
    println!(
        "chat: rate {:>6.0}/s sent {:>6} delivered {:>6} p50 {:.3} ms p99 {:.3} ms{} lost {} wrong {}",
        p.rate,
        p.sent,
        p.delivered,
        p.p(0.5),
        p.p(0.99),
        if p.overrun { " (overrun)" } else { "" },
        p.lost,
        p.incorrect
    );
}

/// Start the service and open both sessions, `reps` times over, keeping
/// the last service. Returns it, its parties and the median set-up time.
fn start(reps: usize, client: &Platform, record: bool) -> (Service, [Party; 2], f64) {
    let mut t = ClientTimes::new(false);
    let (svc, [ca, cb], setup_s) = set_up(reps, Assignment::RoundRobin, PORT, |s| {
        [
            open(s, NAMES[0], client, &mut t),
            open(s, NAMES[1], client, &mut t),
        ]
    });
    let parties = [ca, cb].map(|conn| Party {
        conn,
        times: ClientTimes::new(record),
        sent: 0,
    });
    println!("chat: backend {}, set-up {setup_s:.4} s", svc.backend);
    (svc, parties, setup_s)
}

/// Close both sessions, check the service's invariants and stop it.
fn finish(svc: Service, parties: [Party; 2], out: &mut Outcome) {
    let mut closing = ClientTimes::new(false);
    for p in parties {
        p.conn.close(svc.net.as_ref(), &mut closing);
    }
    svc.check_invariants(out);
    svc.shutdown();
}

/// Warm up, then run the reference rate for `period`. Returns the phase
/// and the service probes around it.
fn reference(
    svc: &Service,
    parties: &mut [Party; 2],
    period: Duration,
    rng: &mut SplitMix64,
    seed: u64,
    out: &mut Outcome,
) -> (Phase, Probe, Probe) {
    let warm = Duration::from_millis(500);
    tally(out, &phase(svc, parties, REFERENCE_RATE, warm, rng, seed));
    let before = svc.probe();
    let p = phase(svc, parties, REFERENCE_RATE, period, rng, seed);
    let after = svc.probe();
    tally(out, &p);
    (p, before, after)
}

/// Climb the ladder from its bottom rung until a rung fails, then on from
/// the top rung that held in steps of [`FINE_STEP`] until one fails; the
/// delivered rate of the top rung that held, if any did.
fn climb(
    svc: &Service,
    parties: &mut [Party; 2],
    rung: Duration,
    rng: &mut SplitMix64,
    seed: u64,
    out: &mut Outcome,
) -> Option<f64> {
    // (offered, delivered) rate of the top rung that held.
    let mut held: Option<(f64, f64)> = None;
    let mut rate = LADDER_FROM;
    for step in [LADDER_STEP, FINE_STEP] {
        for _ in 0..LADDER_RUNGS {
            let p = phase(svc, parties, rate, rung, rng, seed);
            tally(out, &p);
            if !p.meets_limit() {
                break;
            }
            held = Some((rate, p.delivered as f64 / p.send_period.as_secs_f64()));
            rate *= step;
        }
        let (offered, _) = held?;
        rate = offered * FINE_STEP;
    }
    held.map(|(_, delivered)| delivered)
}

/// A part process: a fresh service, the reference rate for
/// [`REFERENCE_SHARE`] of `--seconds`, then one climb of the ladder.
pub fn part(args: &Args, _part: u16) -> Record {
    let client = Platform::builder().build();
    let (svc, mut parties, _) = start(1, &client, false);
    let mut rng = SplitMix64::new(args.seed);
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let period = Duration::from_secs_f64(args.seconds * REFERENCE_SHARE);
    let (refp, before, after) = reference(&svc, &mut parties, period, &mut rng, args.seed, &mut out);
    // Rungs last as long as in a run that is not split into parts.
    let rung = Duration::from_secs_f64(args.seconds * f64::from(PROCS) * RUNG_SHARE);
    // Not even the bottom rung holds: report the reference rate's
    // delivery rate, a collapse of this figure.
    let top = climb(&svc, &mut parties, rung, &mut rng, args.seed, &mut out)
        .unwrap_or(refp.delivered as f64 / refp.send_period.as_secs_f64());
    finish(svc, parties, &mut out);
    let w = Window {
        a: &before,
        b: &after,
    };
    let mut r = Record::default();
    r.push("latencies", refp.latencies);
    r.push("delivered", [refp.delivered as f64]);
    r.push("wall", [w.wall().as_secs_f64()]);
    r.push("cpu", [w.cpu().as_secs_f64()]);
    r.push("top", [top]);
    r.push_outcome(&out);
    r
}

pub fn run(args: &Args) -> Outcome {
    let time_wait = sys::time_wait_sockets();
    let client = Platform::builder().build();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (svc, mut parties, setup_s) = start(SETUPS, &client, args.trace);
    if !args.trace {
        finish(svc, parties, &mut out);
        let all = parts::run_all(args);
        all.add_outcome_to(&mut out);
        let latencies = all.get("latencies");
        let (cpu, wall) = (all.sum("cpu"), all.sum("wall"));
        let m = &mut out.metrics;
        m.put("latency_p50_ms", percentile(latencies, 0.5), "ms");
        m.put("latency_p99_ms", sliced_p99(latencies), "ms");
        m.put("throughput_per_s", median(all.get("top")), "1/s");
        m.put(
            "cpu_us_per_op",
            cpu * 1e6 / all.sum("delivered").max(1.0),
            "us",
        );
        m.put("cores_used", cpu / wall, "cores");
        m.put("setup_s", setup_s, "s");
    } else {
        let mut rng = SplitMix64::new(args.seed);
        let half = Duration::from_secs_f64(args.seconds * REFERENCE_SHARE);
        let (refp, _, _) = reference(&svc, &mut parties, half, &mut rng, args.seed, &mut out);
        // The reference window above ran untraced; repeat it traced.
        set_tracing(true);
        for p in &mut parties {
            p.times = ClientTimes::new(true);
        }
        let pos0 = svc.pos_writes();
        let before = svc.probe();
        let traced = phase(
            &svc,
            &mut parties,
            REFERENCE_RATE,
            half,
            &mut rng,
            args.seed,
        );
        let after = svc.probe();
        let pos1 = svc.pos_writes();
        set_tracing(false);
        tally(&mut out, &traced);
        let tw = Window {
            a: &before,
            b: &after,
        };
        let m = &mut out.metrics;
        let mut times = ClientTimes::new(true);
        for p in &mut parties {
            times.merge(std::mem::take(&mut p.times));
        }
        service_layers(
            &tw,
            &ServiceWork {
                ops: traced.delivered as f64,
                stanzas_sent: traced.sent as f64,
                pos_writes: (pos1 - pos0) as f64,
                pos_bytes: svc.pos_bytes() as f64,
                uring: svc.backend == "uring",
                syscall_cycles: svc.platform.costs().model().syscall_cycles as f64,
                client: &times,
            },
            m,
        );
        m.put(
            "obs.trace_overhead",
            traced.p(0.5) / refp.p(0.5),
            "ratio",
        );
        m.put(
            "bench.gen_late_p99_ms",
            percentile(&traced.late_ms, 0.99),
            "ms",
        );
        m.put(
            "bench.client_cpu_frac",
            traced.client_cpu.as_secs_f64() / tw.cpu().as_secs_f64().max(1e-9),
            "frac",
        );
        finish(svc, parties, &mut out);
    }
    let m = &mut out.metrics;
    m.put("proc.peak_rss_mib", sys::peak_rss_mib(), "MiB");
    m.put(
        "bench.failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "frac",
    );
    m.put(
        "bench.time_wait_at_start",
        time_wait.unwrap_or(0) as f64,
        "count",
    );
    out
}
