//! `session_churn`: a closed loop of two client slots, each running
//! session lifecycles back to back with no chat payload: connect, stream
//! handshake (a directory-shard register), join one of [`ROOMS`] rooms (a
//! shard room write), wait for `Joined`, disconnect (an unregister).
//!
//! The same service and backend as `chat`, with shard-affine assignment;
//! here the work is directory writes, accept/close and the connector's
//! two-phase hand-off, and per-stanza crypto is small. Each `Joined` must
//! name the requested room, and every eighth session also checks that the
//! directory lists the user in that room.
//!
//! Untraced, the window runs in child processes (see `parts.rs`), each
//! measuring a series of fresh services.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use sgx_sim::Platform;
use xmpp::stanza::Stanza;
use xmpp::{Assignment, ShardedDirectory, ShardedReader};

use crate::client::{ClientTimes, Conn};
use crate::layers::{service_layers, ServiceWork, Window};
use crate::parts::{self, Record, PROCS};
use crate::service::{set_up, Service, SETUPS};
use crate::stats::{percentile, sliced_p99, SplitMix64};
use crate::{set_tracing, sys, Args, Outcome};

/// Concurrent client slots (one generator thread each).
pub const SLOTS: usize = 2;

/// Rooms a session picks from.
pub const ROOMS: u64 = 48;

/// A session that has not finished by then is abandoned (and counted).
const SESSION_TIMEOUT: Duration = Duration::from_secs(2);

/// A `Join` unanswered this long is sent again (and counted).
const RESEND_AFTER: Duration = Duration::from_millis(250);

/// Every session leaves its client port in TIME_WAIT for 60 s. A port
/// in TIME_WAIT is taken only for connections to the same server port,
/// so each service of a run listens on a port of its own, from
/// [`FIRST_PORT`] up: a run's connections then never wait for ports its
/// predecessor left in TIME_WAIT, however recently it ran.
pub const FIRST_PORT: u16 = 5300;

/// The reference host keeps at most 65 536 sockets in TIME_WAIT
/// (`tcp_max_tw_buckets`; past it, sockets close without one). A run waits (up to [`TIME_WAIT_PATIENCE`]) for the
/// count to fall to [`TIME_WAIT_READY`] and opens at most
/// [`MAX_SESSIONS`] measured connections, so back-to-back runs stay
/// under that limit whatever the session rate.
const TIME_WAIT_READY: u64 = 35_000;
const TIME_WAIT_PATIENCE: Duration = Duration::from_secs(75);
pub const MAX_SESSIONS: u64 = 24_000;

/// Unmeasured churn before each window, so pools and caches are warm.
const WARMUP: Duration = Duration::from_millis(50);

/// Fresh services the untraced window is split across. Where the OS
/// places a service's six worker threads on the two CPUs sets its pace
/// for its whole life (anywhere from 0.8k to 2.5k sessions/s on the
/// reference host), so one service per run would measure one draw.
const SERVICES: u16 = 48;

/// What one slot saw.
#[derive(Default)]
struct Slot {
    /// `(finished, connect→Joined ms)` per completed session.
    latencies: Vec<(Instant, f64)>,
    attempted: u64,
    /// Abandoned sessions, refused connects and re-sent joins.
    failed: u64,
    incorrect: u64,
    times: ClientTimes,
    cpu: Duration,
}

/// How one session ended.
enum End {
    Done(f64),
    Failed(&'static str),
    Wrong(String),
}

/// One lifecycle for `user` in `room`. Re-sends are added to `resends`.
/// The `first` session of a fresh service waits for its listener.
#[allow(clippy::too_many_arguments)]
fn session(
    first: bool,
    svc: &Service,
    client: &Platform,
    dir: Option<(&ShardedDirectory, &ShardedReader)>,
    user: &str,
    room: &str,
    t: &mut ClientTimes,
    resends: &mut u64,
) -> End {
    let net = svc.net.as_ref();
    let began = Instant::now();
    let give_up = began + SESSION_TIMEOUT;
    let conn = if first {
        Conn::connect_when_listening(net, svc.port, give_up, t)
    } else {
        Conn::connect(net, svc.port, t)
    };
    let Ok(mut conn) = conn else {
        return End::Failed("connect refused");
    };
    conn.queue_stream(user, client.costs());
    let end = (|| {
        match conn.wait_stanza(net, true, give_up, t) {
            Ok(Some(Stanza::StreamOk { .. })) => {}
            Ok(None) => return End::Failed("stream handshake timed out"),
            Ok(Some(other)) => {
                return End::Failed(if matches!(other, Stanza::StreamError { .. }) {
                    "stream refused"
                } else {
                    "unexpected stanza"
                })
            }
            Err(_) => return End::Failed("connection lost in handshake"),
        }
        let join = Stanza::Join { room: room.into() };
        loop {
            conn.queue_sealed(&join, t);
            let wait = (Instant::now() + RESEND_AFTER).min(give_up);
            match conn.wait_stanza(net, false, wait, t) {
                Ok(Some(Stanza::Joined { room: got })) if got == room => break,
                Ok(Some(Stanza::Joined { room: got })) => {
                    return End::Wrong(format!("{user} joined {got}, asked for {room}"))
                }
                Ok(Some(other)) => return End::Wrong(format!("{user} got {other:?} for a join")),
                Ok(None) if Instant::now() < give_up => *resends += 1,
                Ok(None) => return End::Failed("join timed out"),
                Err(_) => return End::Failed("connection lost in join"),
            }
        }
        let latency = began.elapsed().as_secs_f64() * 1e3;
        if let Some((dir, reader)) = dir {
            let listed = dir
                .group_members(reader, room)
                .map(|ms| ms.iter().any(|m| m.user == user));
            if !matches!(listed, Ok(true)) {
                return End::Wrong(format!(
                    "directory does not list {user} in {room}: {listed:?}"
                ));
            }
        }
        End::Done(latency)
    })();
    conn.close(net, t);
    end
}

/// One slot's closed loop until `until` or until `started` reaches
/// `cap`.
#[allow(clippy::too_many_arguments)]
fn slot(
    svc: &Service,
    client: &Platform,
    idx: usize,
    seed: u64,
    until: Instant,
    started: &AtomicU64,
    cap: u64,
    record: bool,
) -> Slot {
    let cpu0 = sys::thread_cpu();
    let mut rng = SplitMix64::new(seed ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut s = Slot {
        times: ClientTimes::new(record),
        ..Slot::default()
    };
    let tag = rng.next_u64() % 1_000_000;
    // One reader per slot: the store keeps every reader registered for
    // good, and its cleaner scans them all.
    let reader = svc.svc.directory.reader();
    let mut n = 0u64;
    while Instant::now() < until && started.fetch_add(1, Ordering::SeqCst) < cap {
        n += 1;
        let user = format!("u{tag}s{idx}n{n}");
        let room = format!("room-{}", rng.next_u64() % ROOMS);
        let dir = n.is_multiple_of(8).then_some((&svc.svc.directory, &reader));
        let mut resends = 0;
        s.attempted += 1;
        match session(
            false,
            svc,
            client,
            dir,
            &user,
            &room,
            &mut s.times,
            &mut resends,
        ) {
            End::Done(ms) => s.latencies.push((Instant::now(), ms)),
            End::Failed(why) => {
                eprintln!("session_churn: {user}: {why}");
                s.failed += 1;
            }
            End::Wrong(why) => {
                eprintln!("session_churn: {why}");
                s.incorrect += 1;
            }
        }
        s.failed += resends;
    }
    s.cpu = sys::thread_cpu().saturating_sub(cpu0);
    s
}

/// What a window of churn measured.
struct Churn {
    latencies: Vec<f64>,
    sessions: u64,
    client_cpu: Duration,
    times: ClientTimes,
}

/// Run both slots for `period` or `cap` sessions, whichever ends first.
fn window(
    svc: &Service,
    client: &Platform,
    seed: u64,
    period: Duration,
    cap: u64,
    record: bool,
    out: &mut Outcome,
) -> Churn {
    let began = Instant::now();
    let until = began + period;
    let started = AtomicU64::new(0);
    let started = &started;
    let slots: Vec<Slot> = std::thread::scope(|sc| {
        let hs: Vec<_> = (0..SLOTS)
            .map(|i| sc.spawn(move || slot(svc, client, i, seed, until, started, cap, record)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("churn slot thread"))
            .collect()
    });
    let mut arrivals: Vec<(Instant, f64)> = Vec::new();
    let mut times = ClientTimes::new(record);
    let mut client_cpu = Duration::ZERO;
    for s in slots {
        out.attempted += s.attempted;
        out.failed += s.failed + s.incorrect;
        if s.incorrect > 0 {
            out.correct = false;
        }
        arrivals.extend(s.latencies);
        times.merge(s.times);
        client_cpu += s.cpu;
    }
    arrivals.sort_by_key(|&(at, _)| at);
    let latencies: Vec<f64> = arrivals.into_iter().map(|(_, l)| l).collect();
    println!(
        "session_churn: {} sessions at {:.0}/s, p50 {:.3} ms p99 {:.3} ms",
        latencies.len(),
        latencies.len() as f64 / began.elapsed().as_secs_f64(),
        percentile(&latencies, 0.5),
        percentile(&latencies, 0.99)
    );
    Churn {
        sessions: latencies.len() as u64,
        latencies,
        client_cpu,
        times,
    }
}

/// Wait for the host's TIME_WAIT population to drain to
/// [`TIME_WAIT_READY`]; returns the count found at the start.
fn wait_for_ports() -> Option<u64> {
    let at_start = sys::time_wait_sockets();
    let began = Instant::now();
    let mut now = at_start;
    while now.is_some_and(|n| n > TIME_WAIT_READY) && began.elapsed() < TIME_WAIT_PATIENCE {
        std::thread::sleep(Duration::from_millis(500));
        now = sys::time_wait_sockets();
    }
    println!(
        "session_churn: TIME_WAIT sockets at start {}, after {:.1} s of waiting {}",
        at_start.map_or("unreadable".into(), |n| n.to_string()),
        began.elapsed().as_secs_f64(),
        now.map_or("unreadable".into(), |n| n.to_string()),
    );
    at_start
}

/// Bring a freshly started service to its first operation: one full
/// lifecycle, waiting for the listener to open.
fn first_session(s: &Service, client: &Platform) {
    let mut t = ClientTimes::new(false);
    let mut resends = 0;
    match session(
        true,
        s,
        client,
        None,
        "warmup",
        "room-0",
        &mut t,
        &mut resends,
    ) {
        End::Done(_) => {}
        End::Failed(why) => panic!("session_churn set-up session failed: {why}"),
        End::Wrong(why) => panic!("session_churn set-up session was wrong: {why}"),
    }
}

/// A part process: measure [`SERVICES`] ÷ [`PROCS`] fresh services for
/// `--seconds` in all, each warmed up first.
pub fn part(args: &Args, part: u16) -> Record {
    let client = Platform::builder().build();
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let per = SERVICES / PROCS;
    let period = Duration::from_secs_f64(args.seconds / f64::from(per));
    let cap = MAX_SESSIONS / u64::from(SERVICES);
    let mut r = Record::default();
    for k in 0..per {
        let seed = args.seed.wrapping_mul(u64::from(per)).wrapping_add(u64::from(k));
        let svc = Service::start(Assignment::ShardAffine, FIRST_PORT + part * per + k);
        first_session(&svc, &client);
        window(&svc, &client, seed ^ 0x57A7, WARMUP, cap, false, &mut out);
        let before = svc.probe();
        let measured = window(&svc, &client, seed, period, cap, false, &mut out);
        let after = svc.probe();
        let w = Window {
            a: &before,
            b: &after,
        };
        r.push("wall", [w.wall().as_secs_f64()]);
        r.push("cpu", [w.cpu().as_secs_f64()]);
        r.push("sessions", [measured.sessions as f64]);
        r.push("latencies", measured.latencies);
        svc.check_invariants(&mut out);
        svc.shutdown();
    }
    r.push_outcome(&out);
    r
}

pub fn run(args: &Args) -> Outcome {
    let time_wait = wait_for_ports();
    let client = Platform::builder().build();
    let (svc, (), setup_s) = set_up(SETUPS, Assignment::ShardAffine, FIRST_PORT, |s| {
        first_session(s, &client)
    });
    println!(
        "session_churn: backend {}, set-up {setup_s:.4} s",
        svc.backend
    );
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    if !args.trace {
        svc.shutdown();
        let all = parts::run_all(args);
        all.add_outcome_to(&mut out);
        let latencies = all.get("latencies");
        let (sessions, wall, cpu) = (all.sum("sessions"), all.sum("wall"), all.sum("cpu"));
        let m = &mut out.metrics;
        m.put("latency_p50_ms", percentile(latencies, 0.5), "ms");
        m.put("latency_p99_ms", sliced_p99(latencies), "ms");
        m.put("throughput_per_s", sessions / wall, "1/s");
        m.put("cpu_us_per_op", cpu * 1e6 / sessions.max(1.0), "us");
        m.put("cores_used", cpu / wall, "cores");
        m.put("setup_s", setup_s, "s");
    } else {
        // One service: half the window and budget untraced, half traced.
        window(
            &svc,
            &client,
            args.seed ^ 0x57A7,
            WARMUP,
            MAX_SESSIONS,
            false,
            &mut out,
        );
        let period = Duration::from_secs_f64(args.seconds / 2.0);
        let cap = MAX_SESSIONS / 2;
        let before = svc.probe();
        let main = window(&svc, &client, args.seed, period, cap, false, &mut out);
        let after = svc.probe();
        let rate = main.sessions as f64
            / Window {
                a: &before,
                b: &after,
            }
            .wall()
            .as_secs_f64();
        set_tracing(true);
        let pos0 = svc.pos_writes();
        let before = svc.probe();
        let traced = window(
            &svc,
            &client,
            args.seed ^ 0x7ACE,
            period,
            cap,
            true,
            &mut out,
        );
        let after = svc.probe();
        let pos1 = svc.pos_writes();
        set_tracing(false);
        let tw = Window {
            a: &before,
            b: &after,
        };
        let m = &mut out.metrics;
        service_layers(
            &tw,
            &ServiceWork {
                ops: traced.sessions as f64,
                stanzas_sent: 0.0,
                pos_writes: (pos1 - pos0) as f64,
                pos_bytes: svc.pos_bytes() as f64,
                uring: svc.backend == "uring",
                syscall_cycles: svc.platform.costs().model().syscall_cycles as f64,
                client: &traced.times,
            },
            m,
        );
        let traced_rate = traced.sessions as f64 / tw.wall().as_secs_f64();
        m.put("obs.trace_overhead", rate / traced_rate, "ratio");
        m.put("bench.gen_late_p99_ms", 0.0, "ms");
        m.put(
            "bench.client_cpu_frac",
            traced.client_cpu.as_secs_f64() / tw.cpu().as_secs_f64().max(1e-9),
            "frac",
        );
        svc.check_invariants(&mut out);
        svc.shutdown();
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
