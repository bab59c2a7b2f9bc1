//! Closed-loop XMPP session-churn load harness
//! (`BENCH_xmpp_load.json` trajectory).
//!
//! The fig14/fig15 workloads hold a fixed client population and measure
//! steady-state message throughput; this harness instead measures the
//! *session* plane that the directory shards own — connect, handshake,
//! register, chat, disconnect, repeat — under configurable arrival
//! pacing and a talker/lurker mix:
//!
//! * a **talker** completes the handshake, then sends `msgs_per_talker`
//!   sealed messages *to itself* — the echo traverses the full path
//!   (client → READER → instance → sharded directory lookup → WRITER →
//!   client) and the send→receive time of each echo is a stanza-latency
//!   sample. Because the stream acknowledgement is only sent once the
//!   owning shard confirmed the registration, a post-handshake
//!   self-message can never race its own directory entry.
//! * a **lurker** joins a room, waits for the joined echo (shard write +
//!   confirmation) and disconnects — pure churn on both the user and
//!   room halves of the sharded state.
//!
//! Each slot runs session lifecycles back to back, separated by a gap
//! drawn from the configured [`Arrival`] distribution (seeded SplitMix64,
//! so runs are reproducible). A cell finishes when the target session
//! count completes; the recorded series are sessions per second per host
//! CPU, p50/p99 stanza latency, and stanza throughput, for service sizes
//! w1 (`instances: 1`) and w4 (`instances: 4`) — the same shape as the
//! `BENCH_fig11.json` trajectory, appended by [`record`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use enet::{NetBackend, NetError, RecvOutcome, SimNet, SocketId, TcpLoopback};
use sgx_sim::Platform;
use xmpp::stanza::Stanza;
use xmpp::wire::{encode_frame, ConnCrypto, FrameBuf};
use xmpp::{start_service, Assignment, XmppConfig};

use crate::record::append_trajectory;
use crate::scale::Scale;

/// Message payload bytes per talker stanza (the paper's client payload).
pub const MESSAGE_BYTES: usize = 150;

/// The trajectory file at the workspace root.
pub const BENCH_FILE: &str = "BENCH_xmpp_load.json";

/// The backend-comparison trajectory file (`figures bench-net`).
pub const BENCH_NET_FILE: &str = "BENCH_net.json";

/// Which [`NetBackend`] carries a cell's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process simulated TCP with a syscall cost model (default —
    /// deterministic and scalable).
    Sim,
    /// Real loopback `std::net` sockets behind a polled completion ring.
    Tcp,
    /// Real loopback sockets behind an edge-triggered `epoll`
    /// completion ring (Linux only).
    Epoll,
    /// Real loopback sockets driven by an io_uring completion ring
    /// (Linux only, kernel permitting).
    Uring,
    /// Runtime selection: probe io_uring, fall back uring → epoll → tcp
    /// with a logged reason ([`enet::auto_backend`]).
    Auto,
}

impl Backend {
    /// The label used in series names and `--backend` arguments.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Tcp => "tcp",
            Backend::Epoll => "epoll",
            Backend::Uring => "uring",
            Backend::Auto => "auto",
        }
    }

    /// Parse a `--backend` argument.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "tcp" => Some(Backend::Tcp),
            "epoll" => Some(Backend::Epoll),
            "uring" => Some(Backend::Uring),
            "auto" => Some(Backend::Auto),
            _ => None,
        }
    }

    /// Backends available on this host (epoll only on Linux, uring only
    /// where the kernel's io_uring probe succeeds).
    pub fn available() -> Vec<Backend> {
        let mut v = vec![Backend::Sim, Backend::Tcp];
        if cfg!(target_os = "linux") {
            v.push(Backend::Epoll);
        }
        #[cfg(target_os = "linux")]
        if enet::UringBackend::probe().is_ok() {
            v.push(Backend::Uring);
        }
        v
    }

    /// Resolve [`Backend::Auto`] to the concrete backend the probe
    /// selects (logging the reason); every other variant passes through.
    /// Series names and labels use the resolved backend.
    pub fn resolve(self) -> Backend {
        if self != Backend::Auto {
            return self;
        }
        let (_, name, reason) = enet::auto_backend(Platform::builder().build().costs());
        println!("  auto backend: selected {name} ({reason})");
        match name {
            "uring" => Backend::Uring,
            "epoll" => Backend::Epoll,
            _ => Backend::Tcp,
        }
    }

    fn create(self, platform: &Platform) -> Arc<dyn NetBackend> {
        match self {
            Backend::Sim => Arc::new(SimNet::new(platform.costs())),
            Backend::Tcp => Arc::new(TcpLoopback::new(platform.costs())),
            #[cfg(target_os = "linux")]
            Backend::Epoll => Arc::new(enet::EpollBackend::new(platform.costs())),
            #[cfg(not(target_os = "linux"))]
            Backend::Epoll => panic!("the epoll backend requires Linux"),
            #[cfg(target_os = "linux")]
            Backend::Uring => Arc::new(enet::UringBackend::new(platform.costs())),
            #[cfg(not(target_os = "linux"))]
            Backend::Uring => panic!("the uring backend requires Linux"),
            Backend::Auto => {
                let (net, name, reason) = enet::auto_backend(platform.costs());
                println!("  auto backend: selected {name} ({reason})");
                net
            }
        }
    }
}

/// Inter-session gap distribution (microseconds), sampled per slot
/// between one session's disconnect and the next connect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// A constant gap.
    Fixed(u64),
    /// Uniform over `[lo, hi]`.
    Uniform(u64, u64),
    /// Exponential with the given mean (a Poisson session-arrival
    /// process per slot).
    Exp(u64),
}

impl Arrival {
    fn sample(&self, rng: &mut SplitMix64) -> Duration {
        let us = match *self {
            Arrival::Fixed(us) => us,
            Arrival::Uniform(lo, hi) => {
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                lo + rng.next_u64() % (hi - lo + 1)
            }
            Arrival::Exp(mean) => {
                // Inverse CDF over a uniform in (0, 1]; 53-bit mantissa.
                let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                (-(u.ln()) * mean as f64) as u64
            }
        };
        Duration::from_micros(us)
    }
}

/// One load cell's configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Sessions to complete before the cell finishes.
    pub sessions: u64,
    /// Concurrent session slots (the open-connection ceiling).
    pub slots: usize,
    /// Percent of slots that are talkers (the rest are lurkers).
    pub talker_pct: u32,
    /// Echo round trips per talker session.
    pub msgs_per_talker: u32,
    /// Inter-session arrival pacing.
    pub arrival: Arrival,
    /// RNG seed (payloads, arrival gaps).
    pub seed: u64,
    /// XMPP instances for this cell.
    pub instances: usize,
    /// Directory shards (`0` picks one per instance).
    pub shards: usize,
    /// Driver threads multiplexing the slots.
    pub driver_threads: usize,
    /// Abort the cell if it has not finished by this wall-clock bound.
    pub deadline: Duration,
    /// The network backend carrying the cell's traffic.
    pub backend: Backend,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 5_000,
            slots: 128,
            talker_pct: 50,
            msgs_per_talker: 4,
            arrival: Arrival::Exp(200),
            seed: 0x10AD_5EED,
            instances: 1,
            shards: 0,
            driver_threads: 2,
            deadline: Duration::from_secs(600),
            backend: Backend::Sim,
        }
    }
}

/// What one cell measured.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Sessions completed (connect → … → disconnect lifecycles).
    pub sessions: u64,
    /// Wall-clock time the cell ran.
    pub elapsed: Duration,
    /// Stanzas received by clients (stream acks, echoes, joined echoes).
    pub stanzas: u64,
    /// p50 of the talker echo latency samples, milliseconds.
    pub p50_ms: f64,
    /// p99 of the talker echo latency samples, milliseconds.
    pub p99_ms: f64,
    /// Whether the cell reached its session target before the deadline.
    pub completed: bool,
}

impl CellResult {
    /// Completed session lifecycles per second per host CPU.
    pub fn sessions_per_core(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.sessions as f64 / self.elapsed.as_secs_f64().max(1e-9) / cpus as f64
    }

    /// Client-observed stanzas per second.
    pub fn stanzas_per_sec(&self) -> f64 {
        self.stanzas as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Deterministic generator (SplitMix64) for gaps and payload filler.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting out the arrival gap before the next connect.
    Gap,
    Connect,
    AwaitStreamOk,
    /// Talker awaiting its self-echo.
    AwaitEcho,
    /// Lurker awaiting the joined echo.
    AwaitJoined,
}

/// Idle polls before an in-flight request (echo or join) is retried —
/// insurance against a rare send-drop under full WRITER ports.
const RETRY_AFTER_POLLS: u32 = 4_000;

struct Slot {
    id: usize,
    talker: bool,
    phase: Phase,
    socket: Option<SocketId>,
    generation: u64,
    name: String,
    crypto: ConnCrypto,
    frames: FrameBuf,
    outbuf: Vec<u8>,
    payload: String,
    /// Echoes still owed in the current talker session.
    echoes_left: u32,
    sent_at: Instant,
    next_start: Instant,
    stalls: u32,
    rng: SplitMix64,
    wire_crypto: bool,
}

impl Slot {
    fn new(id: usize, talker: bool, cfg: &LoadConfig, now: Instant) -> Self {
        let mut rng = SplitMix64(cfg.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let payload: String = (0..MESSAGE_BYTES)
            .map(|_| (b'a' + (rng.next_u64() % 26) as u8) as char)
            .collect();
        // Stagger the very first connects with one arrival gap each so a
        // cell does not open with a thundering herd.
        let next_start = now + cfg.arrival.sample(&mut rng);
        Slot {
            id,
            talker,
            phase: Phase::Gap,
            socket: None,
            generation: 0,
            name: String::new(),
            crypto: ConnCrypto::plaintext(),
            frames: FrameBuf::new(),
            outbuf: Vec::new(),
            payload,
            echoes_left: 0,
            sent_at: now,
            next_start,
            stalls: 0,
            rng,
            wire_crypto: true,
        }
    }

    fn room(&self) -> String {
        // Rooms outnumber the shard count so lurker churn touches every
        // room shard; the name seeds the user-hash partition.
        format!("load-room-{}", self.id % 61)
    }

    fn queue_plain(&mut self, stanza: &Stanza) {
        encode_frame(stanza.to_xml().as_bytes(), &mut self.outbuf);
    }

    fn queue_sealed(&mut self, stanza: &Stanza) {
        let sealed = self.crypto.seal_stanza(&stanza.to_xml());
        encode_frame(&sealed, &mut self.outbuf);
    }

    fn flush(&mut self, net: &dyn NetBackend) -> bool {
        if self.outbuf.is_empty() {
            return true;
        }
        let Some(socket) = self.socket else {
            return false;
        };
        match net.send(socket, &self.outbuf) {
            Ok(n) => {
                self.outbuf.drain(..n);
                true
            }
            Err(_) => false,
        }
    }

    /// Finish the current session and schedule the next one.
    fn respawn(&mut self, net: &dyn NetBackend, arrival: Arrival, now: Instant) {
        if let Some(s) = self.socket.take() {
            let _ = net.close(s);
        }
        self.frames = FrameBuf::new();
        self.outbuf.clear();
        self.phase = Phase::Gap;
        self.next_start = now + arrival.sample(&mut self.rng);
    }

    fn send_echo(&mut self) {
        let to = self.name.clone();
        let body = self.payload.clone();
        self.queue_sealed(&Stanza::Message {
            to,
            from: String::new(),
            body,
        });
        self.sent_at = Instant::now();
        self.stalls = 0;
    }

    /// One scheduling quantum. Returns `(made_progress, sessions_done)`.
    fn step(
        &mut self,
        net: &dyn NetBackend,
        cfg: &LoadConfig,
        costs: &sgx_sim::CostHandle,
        stanzas: &AtomicU64,
        samples: &mut Vec<u64>,
    ) -> (bool, u64) {
        match self.phase {
            Phase::Gap => {
                let now = Instant::now();
                if now < self.next_start {
                    return (false, 0);
                }
                self.phase = Phase::Connect;
                (true, 0)
            }
            Phase::Connect => match net.connect(5222) {
                Ok(s) => {
                    self.socket = Some(s);
                    self.generation += 1;
                    self.name = format!(
                        "{}{}g{}",
                        if self.talker { 't' } else { 'l' },
                        self.id,
                        self.generation
                    );
                    self.crypto = if self.wire_crypto {
                        ConnCrypto::for_user(&self.name, costs.clone())
                    } else {
                        ConnCrypto::plaintext()
                    };
                    self.queue_plain(&Stanza::Stream {
                        from: self.name.clone(),
                        to: "eactors.example".into(),
                    });
                    self.flush(net);
                    self.phase = Phase::AwaitStreamOk;
                    self.stalls = 0;
                    (true, 0)
                }
                Err(NetError::ConnectionRefused(_)) => (false, 0),
                Err(_) => {
                    self.respawn(net, cfg.arrival, Instant::now());
                    (false, 0)
                }
            },
            _ => {
                if !self.flush(net) && self.socket.is_none() {
                    return (false, 0);
                }
                let mut progressed = false;
                let mut done = 0u64;
                let mut buf = [0u8; 2048];
                let Some(socket) = self.socket else {
                    return (false, 0);
                };
                loop {
                    match net.recv(socket, &mut buf) {
                        Ok(RecvOutcome::Data(n)) => {
                            self.frames.push(&buf[..n]);
                            progressed = true;
                        }
                        Ok(RecvOutcome::WouldBlock) => break,
                        Ok(RecvOutcome::Eof) | Err(_) => {
                            // The server hung up mid-session (assignment
                            // congestion): the session does not count.
                            self.respawn(net, cfg.arrival, Instant::now());
                            return (progressed, 0);
                        }
                    }
                }
                while let Ok(Some(frame)) = self.frames.next_frame() {
                    progressed = true;
                    self.stalls = 0;
                    stanzas.fetch_add(1, Ordering::Relaxed);
                    done += self.handle_frame(&frame, cfg, samples);
                    if done > 0 || self.phase == Phase::Gap {
                        break; // session over (or rejected)
                    }
                }
                if self.phase == Phase::Gap {
                    // Rejected handshake: tear the connection down and
                    // schedule a fresh attempt (the session not counted).
                    self.respawn(net, cfg.arrival, Instant::now());
                    return (progressed, done);
                }
                if !progressed {
                    self.stalls += 1;
                    if self.stalls > RETRY_AFTER_POLLS {
                        self.stalls = 0;
                        match self.phase {
                            Phase::AwaitEcho => self.send_echo(),
                            Phase::AwaitJoined => {
                                let room = self.room();
                                self.queue_sealed(&Stanza::Join { room });
                            }
                            // A stream handshake cannot be re-sent; give
                            // the connection up and start a fresh one.
                            Phase::AwaitStreamOk => {
                                self.respawn(net, cfg.arrival, Instant::now());
                                return (false, 0);
                            }
                            _ => {}
                        }
                    }
                }
                self.flush(net);
                (progressed, done)
            }
        }
    }

    /// Handle one inbound frame; returns 1 when it completed a session.
    fn handle_frame(&mut self, frame: &[u8], cfg: &LoadConfig, samples: &mut Vec<u64>) -> u64 {
        let stanza = if self.phase == Phase::AwaitStreamOk {
            std::str::from_utf8(frame)
                .ok()
                .and_then(|x| Stanza::parse(x).ok())
        } else {
            self.crypto
                .open_stanza(frame)
                .ok()
                .and_then(|x| Stanza::parse(&x).ok())
        };
        let Some(stanza) = stanza else { return 0 };
        match (self.phase, stanza) {
            (Phase::AwaitStreamOk, Stanza::StreamOk { .. }) => {
                if self.talker {
                    self.echoes_left = cfg.msgs_per_talker.max(1);
                    self.phase = Phase::AwaitEcho;
                    self.send_echo();
                } else {
                    self.phase = Phase::AwaitJoined;
                    let room = self.room();
                    self.queue_sealed(&Stanza::Join { room });
                }
                0
            }
            (Phase::AwaitStreamOk, Stanza::StreamError { .. }) => {
                self.phase = Phase::Gap; // respawned by the driver
                0
            }
            (Phase::AwaitEcho, Stanza::Message { .. }) => {
                samples.push(self.sent_at.elapsed().as_nanos() as u64);
                self.echoes_left -= 1;
                if self.echoes_left == 0 {
                    1 // session complete; driver respawns us
                } else {
                    self.send_echo();
                    0
                }
            }
            (Phase::AwaitJoined, Stanza::Joined { .. }) => 1,
            _ => 0,
        }
    }
}

/// Run one cell: start the service, churn sessions until the target (or
/// the deadline) and return the measurements.
pub fn run_cell(cfg: &LoadConfig) -> CellResult {
    let platform = Platform::builder().build();
    let net: Arc<dyn NetBackend> = cfg.backend.create(&platform);
    let svc = start_service(
        &platform,
        net.clone(),
        &XmppConfig {
            instances: cfg.instances,
            shards: cfg.shards,
            max_clients: cfg.slots as u32 + 16,
            // Sessions ride the instance co-hosting their shard, so a
            // session's own directory writes never cross a worker (falls
            // back to round-robin when the shard count doesn't cover the
            // instances — e.g. the `--shards 1` baseline).
            assignment: Assignment::ShardAffine,
            ..XmppConfig::default()
        },
    )
    .expect("valid service config");

    let started = Instant::now();
    let talkers = (cfg.slots * cfg.talker_pct as usize / 100).min(cfg.slots);
    let slots: Vec<Slot> = (0..cfg.slots)
        .map(|i| Slot::new(i, i < talkers, cfg, started))
        .collect();

    let sessions_done = Arc::new(AtomicU64::new(0));
    let stanzas = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let all_samples: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let deadline = started + cfg.deadline;

    let threads = cfg.driver_threads.max(1);
    let mut buckets: Vec<Vec<Slot>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, s) in slots.into_iter().enumerate() {
        buckets[i % threads].push(s);
    }
    let handles: Vec<_> = buckets
        .into_iter()
        .map(|mut bucket| {
            let net = net.clone();
            let cfg = cfg.clone();
            let costs = platform.costs();
            let sessions_done = sessions_done.clone();
            let stanzas = stanzas.clone();
            let stop = stop.clone();
            let all_samples = all_samples.clone();
            std::thread::spawn(move || {
                let mut samples: Vec<u64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let mut any = false;
                    for slot in bucket.iter_mut() {
                        let (progressed, done) =
                            slot.step(net.as_ref(), &cfg, &costs, &stanzas, &mut samples);
                        any |= progressed;
                        if done > 0 {
                            slot.respawn(net.as_ref(), cfg.arrival, Instant::now());
                            if sessions_done.fetch_add(done, Ordering::Relaxed) + done
                                >= cfg.sessions
                            {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    if Instant::now() >= deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                    if !any {
                        std::thread::yield_now();
                    }
                }
                for slot in &mut bucket {
                    if let Some(s) = slot.socket.take() {
                        let _ = net.close(s);
                    }
                }
                all_samples
                    .lock()
                    .expect("samples lock")
                    .append(&mut samples);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("load driver panicked");
    }
    let elapsed = started.elapsed();
    svc.shutdown();

    let mut samples = Arc::try_unwrap(all_samples)
        .expect("drivers joined")
        .into_inner()
        .expect("samples lock");
    samples.sort_unstable();
    let pct = |p: f64| -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let idx = ((samples.len() - 1) as f64 * p).round() as usize;
        samples[idx] as f64 / 1e6
    };
    let sessions = sessions_done.load(Ordering::Relaxed);
    CellResult {
        sessions,
        elapsed,
        stanzas: stanzas.load(Ordering::Relaxed),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        completed: sessions >= cfg.sessions,
    }
}

/// The service sizes of the recorded series.
pub const INSTANCE_CELLS: [usize; 2] = [1, 4];

/// Run the w1 and w4 cells and append one labelled record to
/// `BENCH_xmpp_load.json`. `sessions` overrides the per-cell target
/// (`None` uses the scale default: 2 500 quick, 60 000 full — the full
/// run drives 120 000 sessions total); `shards` is passed through to the
/// service (`0` = one per instance). Returns the `(series, value)` cells.
pub fn record(
    label: &str,
    scale: Scale,
    sessions: Option<u64>,
    shards: usize,
) -> Vec<(String, f64)> {
    let per_cell = sessions.unwrap_or_else(|| scale.ops(2_500, 60_000));
    let mut series = Vec::new();
    let mut spc = [0.0f64; INSTANCE_CELLS.len()];
    for (c, &instances) in INSTANCE_CELLS.iter().enumerate() {
        let cfg = LoadConfig {
            sessions: per_cell,
            instances,
            shards,
            ..LoadConfig::default()
        };
        let r = run_cell(&cfg);
        if !r.completed {
            eprintln!(
                "   (w{instances} hit the deadline at {} of {} sessions)",
                r.sessions, per_cell
            );
        }
        println!(
            "  w{instances}: {} sessions in {:.2?} — {:.0} sessions/s/core, \
             p50 {:.3} ms, p99 {:.3} ms, {:.0} stanzas/s",
            r.sessions,
            r.elapsed,
            r.sessions_per_core(),
            r.p50_ms,
            r.p99_ms,
            r.stanzas_per_sec()
        );
        spc[c] = r.sessions_per_core();
        series.push((
            format!("w{instances}_sessions_per_core"),
            r.sessions_per_core(),
        ));
        series.push((format!("w{instances}_p50_ms"), r.p50_ms));
        series.push((format!("w{instances}_p99_ms"), r.p99_ms));
        series.push((format!("w{instances}_stanzas_per_sec"), r.stanzas_per_sec()));
    }
    if spc[0] > 0.0 {
        println!("  w4/w1 sessions-per-core ratio: {:.3}", spc[1] / spc[0]);
    }
    append_trajectory(
        BENCH_FILE,
        "xmpp_load_closed_loop_sessions",
        "sessions_per_second_per_core",
        MESSAGE_BYTES,
        label,
        per_cell,
        &series,
        &[("backend", Backend::Sim.name().to_owned())],
    );
    series
}

/// Run a w1 closed-loop cell per backend and append one labelled record
/// to `BENCH_net.json` — the sim / tcp / epoll comparison trajectory.
/// `sessions` overrides the per-backend target (`None` uses 5 000 quick,
/// 20 000 full; real-socket cells churn one OS connection per session,
/// so the default stays well clear of loopback TIME_WAIT exhaustion).
pub fn record_net(
    label: &str,
    scale: Scale,
    sessions: Option<u64>,
    backends: &[Backend],
) -> Vec<(String, f64)> {
    let per_cell = sessions.unwrap_or_else(|| scale.ops(5_000, 20_000));
    let mut series = Vec::new();
    // `auto` resolves to the probed backend up front so the series name
    // records what actually ran.
    let backends: Vec<Backend> = backends.iter().map(|b| b.resolve()).collect();
    for &backend in &backends {
        let cfg = LoadConfig {
            sessions: per_cell,
            backend,
            ..LoadConfig::default()
        };
        let r = run_cell(&cfg);
        let name = backend.name();
        if !r.completed {
            eprintln!(
                "   ({name} hit the deadline at {} of {} sessions)",
                r.sessions, per_cell
            );
        }
        println!(
            "  {name}: {} sessions in {:.2?} — {:.0} sessions/s/core, \
             p50 {:.3} ms, p99 {:.3} ms, {:.0} stanzas/s",
            r.sessions,
            r.elapsed,
            r.sessions_per_core(),
            r.p50_ms,
            r.p99_ms,
            r.stanzas_per_sec()
        );
        series.push((format!("{name}_sessions_per_core"), r.sessions_per_core()));
        series.push((format!("{name}_p50_ms"), r.p50_ms));
        series.push((format!("{name}_p99_ms"), r.p99_ms));
        series.push((format!("{name}_stanzas_per_sec"), r.stanzas_per_sec()));
    }
    let names: Vec<&str> = backends.iter().map(|b| b.name()).collect();
    append_trajectory(
        BENCH_NET_FILE,
        "xmpp_load_network_backends",
        "sessions_per_second_per_core",
        MESSAGE_BYTES,
        label,
        per_cell,
        &series,
        &[("backends", names.join(","))],
    );
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_distributions_sample_in_range() {
        let mut rng = SplitMix64(7);
        assert_eq!(
            Arrival::Fixed(50).sample(&mut rng),
            Duration::from_micros(50)
        );
        for _ in 0..1000 {
            let d = Arrival::Uniform(10, 20).sample(&mut rng);
            assert!(d >= Duration::from_micros(10) && d <= Duration::from_micros(20));
        }
        // Exponential: the mean over many samples lands near the target.
        let n = 20_000u64;
        let total: u64 = (0..n)
            .map(|_| Arrival::Exp(100).sample(&mut rng).as_micros() as u64)
            .sum();
        let mean = total / n;
        assert!((50..200).contains(&mean), "exp mean off: {mean}");
    }

    #[test]
    fn seeded_slots_are_reproducible() {
        let cfg = LoadConfig::default();
        let now = Instant::now();
        let a = Slot::new(3, true, &cfg, now);
        let b = Slot::new(3, true, &cfg, now);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.next_start, b.next_start);
        let c = Slot::new(4, true, &cfg, now);
        assert_ne!(a.payload, c.payload, "slots must differ from each other");
    }

    #[test]
    fn small_cell_completes_with_latency_samples() {
        let cfg = LoadConfig {
            sessions: 40,
            slots: 16,
            msgs_per_talker: 2,
            deadline: Duration::from_secs(120),
            ..LoadConfig::default()
        };
        let r = run_cell(&cfg);
        assert!(r.completed, "cell must reach its target: {r:?}");
        assert!(r.sessions >= 40);
        assert!(r.stanzas > 0);
        assert!(r.p99_ms >= r.p50_ms);
        assert!(r.p50_ms > 0.0, "talker echoes must produce samples");
    }
}
