//! The untrusted networking system actors (paper §4.2, Figure 6).
//!
//! Five actors bridge the gap between enclaved application logic and the
//! kernel's TCP/IP stack: [`Opener`] creates sockets, [`Accepter`] takes
//! new connections from server sockets, [`Reader`] keeps a receive in
//! flight on each subscribed socket and forwards incoming bytes into
//! per-user mboxes, [`Writer`] transmits, and [`Closer`] tears sockets
//! down. ACCEPTER, READER and WRITER each drive their own
//! [`CompletionRing`] — whatever the backend — so each has one body with
//! no per-backend branch. They always run
//! untrusted (the backend enforces it); application eactors talk to them
//! exclusively through typed [`Port`]s carrying [`NetMsg`], so an
//! enclaved actor gets network I/O without a single execution-mode
//! transition — and without a single heap allocation per message:
//!
//! * the READER receives straight into a node buffer of the reply mbox
//!   (the `Data` header is written first, the ring fills the rest);
//! * the WRITER hands **nodes** to its ring and parks queued nodes, not
//!   copied bytes, so back-pressure costs no allocation either;
//! * every drop (full mbox, exhausted pool) and every undecodable frame
//!   is counted in the ports' [`PortStats`], aggregated by
//!   [`SystemActors::stats`].

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use eactors::actor::{Actor, Control, Ctx};
use eactors::arena::{Mbox, Node};
use eactors::obs::Counter;
use eactors::wire::{Port, PortStats, Wire};

use crate::backend::{Completion, CompletionRing, ListenerId, NetBackend, NetError, SocketId};
use crate::dir::{MboxDirectory, MboxRef};
use crate::msg::{tag, NetMsg, DATA_HEADER};

/// Consecutive empty passes before a READER/WRITER blocks in its ring's
/// reap instead of returning immediately.
const IDLE_STREAK_PARK: u32 = 64;
/// Upper bound on one blocking ring wait by a parked READER/WRITER.
/// Socket events and the hub-registered waker both end the sleep early;
/// the cap only bounds wake-ups from threads outside the runtime (which
/// do not notify the hub). A polled ring sleeps at most 200 µs anyway.
const PARK_TIMEOUT: Duration = Duration::from_millis(5);
/// Parked nodes per socket before further writes to it are dropped and
/// counted rather than queued without bound.
const PENDING_CAP: usize = 1024;

/// The typed port all networking traffic flows through: a
/// [`Port`] carrying [`NetMsg`] frames.
pub type NetPort = Port<NetMsg<'static>>;

/// Encode `msg` into a node from the mbox's arena and enqueue it,
/// counting any failure in `stats`.
///
/// Returns `false` — after [`PortStats::note_send_drop`] — when the pool
/// is exhausted, the mbox is full, or the payload does not fit in one
/// node; callers retry on their next execution. Prefer a long-lived
/// [`NetPort`] where possible; this helper serves producers that resolve
/// destination mboxes dynamically (e.g. through a [`MboxDirectory`]) and
/// share one telemetry block across them.
pub fn send_msg(mbox: &Arc<Mbox>, msg: &NetMsg<'_>, stats: &PortStats) -> bool {
    let len = msg.encoded_len();
    if len > mbox.arena().payload_size() {
        stats.note_send_drop();
        return false;
    }
    let Some(mut node) = mbox.arena().try_pop() else {
        stats.note_send_drop();
        return false;
    };
    let n = msg.encode_into(node.buffer_mut());
    node.set_len(n);
    if mbox.send(node).is_ok() {
        true
    } else {
        stats.note_send_drop();
        false
    }
}

/// Enqueue a [`NetMsg::Write`] whose `len`-byte payload is produced by
/// `fill` directly inside the node buffer — the zero-copy path for
/// services that frame or seal outgoing bytes (e.g. XMPP stanzas).
///
/// The WRITE header is written first, then `fill` runs exactly once over
/// the payload region. Returns `false` — after
/// [`PortStats::note_send_drop`] — when the pool is exhausted, the
/// payload does not fit in one node, or the mbox is full; `fill` is not
/// called in the first two cases.
pub fn send_write_with(
    port: &NetPort,
    socket: u64,
    len: usize,
    fill: impl FnOnce(&mut [u8]),
) -> bool {
    let total = DATA_HEADER + len;
    let mbox = port.mbox();
    if total > mbox.arena().payload_size() {
        port.stats().note_send_drop();
        return false;
    }
    let Some(mut node) = mbox.arena().try_pop() else {
        port.stats().note_send_drop();
        return false;
    };
    let buf = node.buffer_mut();
    buf[0] = tag::WRITE;
    buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
    fill(&mut buf[DATA_HEADER..total]);
    node.set_len(total);
    port.send_node(node).is_ok()
}

/// The OPENER: creates server or client sockets on request.
pub struct Opener {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
}

impl std::fmt::Debug for Opener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Opener").finish_non_exhaustive()
    }
}

impl Opener {
    /// An OPENER serving requests from `requests`, counting undeliverable
    /// replies in `replies`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        Opener {
            net,
            requests,
            dir,
            replies,
        }
    }
}

impl Actor for Opener {
    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Opener {
            net,
            requests,
            dir,
            replies,
        } = self;
        let worked = requests.drain(|msg| {
            let (reply, response) = match msg {
                NetMsg::OpenListen { port, reply } => (
                    reply,
                    match net.listen(port) {
                        Ok(ListenerId(id)) => NetMsg::OpenOk { id, listener: true },
                        Err(_) => NetMsg::OpenFail { port },
                    },
                ),
                NetMsg::OpenConnect { port, reply } => (
                    reply,
                    match net.connect(port) {
                        Ok(SocketId(id)) => NetMsg::OpenOk {
                            id,
                            listener: false,
                        },
                        Err(_) => NetMsg::OpenFail { port },
                    },
                ),
                _ => return, // not ours; drop
            };
            if let Some(mbox) = dir.get(reply) {
                send_msg(&mbox, &response, replies);
            }
        }) > 0;
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

struct AcceptWatch {
    listener: u64,
    reply: MboxRef,
}

/// The ACCEPTER: announces new connections on watched server sockets.
///
/// Each watched listener is armed as an accept in the ACCEPTER's
/// [`CompletionRing`] (multishot under io_uring) and connections arrive
/// pre-accepted as [`Completion::Accepted`]. The ACCEPTER never blocks
/// in its ring: it shares its worker with OPENER and CLOSER.
pub struct Accepter {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: Vec<AcceptWatch>,
    ring: Box<dyn CompletionRing>,
    completions: Vec<Completion>,
}

impl std::fmt::Debug for Accepter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Accepter")
            .field("watches", &self.watches.len())
            .finish_non_exhaustive()
    }
}

impl Accepter {
    /// An ACCEPTER taking `WatchListener` subscriptions from `requests`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        Accepter {
            ring: net.completion_ring(),
            net,
            requests,
            dir,
            replies,
            watches: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Reap accepted connections from the ring and forward them; drop
    /// watches whose subscriber vanished.
    fn service_ring(&mut self) -> bool {
        let _ = self.ring.reap(&mut self.completions, Some(Duration::ZERO));
        let mut worked = false;
        for c in self.completions.drain(..) {
            match c {
                Completion::Accepted { listener, socket } => {
                    worked = true;
                    let mbox = self
                        .watches
                        .iter()
                        .find(|w| w.listener == listener)
                        .and_then(|w| self.dir.get(w.reply));
                    let delivered = match mbox {
                        Some(mbox) => {
                            send_msg(&mbox, &NetMsg::Accepted { listener, socket }, &self.replies)
                        }
                        None => false,
                    };
                    if !delivered {
                        // Subscriber gone or congested: the connection is
                        // in our hands; close it rather than leak it.
                        let _ = self.net.close(SocketId(socket));
                    }
                }
                Completion::AcceptFailed { listener } => {
                    worked = true;
                    self.watches.retain(|w| w.listener != listener);
                }
                _ => {}
            }
        }
        // Cancel watches whose reply mbox was dropped.
        let (dir, ring) = (&self.dir, &mut self.ring);
        self.watches.retain(|w| {
            if dir.get(w.reply).is_some() {
                true
            } else {
                ring.cancel_accept(ListenerId(w.listener));
                false
            }
        });
        worked
    }
}

impl Actor for Accepter {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.ring.bind_obs(ctx.obs_hub().registry());
    }

    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Accepter {
            requests,
            watches,
            ring,
            ..
        } = self;
        let mut worked = requests.drain(|msg| {
            if let NetMsg::WatchListener { listener, reply } = msg {
                // An unknown listener is not watched; later failures
                // surface as AcceptFailed completions.
                if ring.accept(ListenerId(listener)).is_ok() {
                    watches.push(AcceptWatch { listener, reply });
                }
            }
        }) > 0;
        worked |= self.service_ring();
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// The completion ring a READER or WRITER drives, with its idle
/// bookkeeping.
struct RingState {
    ring: Box<dyn CompletionRing>,
    /// Scratch buffer for reaped completions.
    completions: Vec<Completion>,
    /// Blocking ring waits taken while parked (`net_park_waits`).
    park_waits: Arc<Counter>,
    idle_streak: u32,
}

impl RingState {
    fn new(net: &dyn NetBackend) -> Self {
        RingState {
            ring: net.completion_ring(),
            completions: Vec::new(),
            park_waits: Arc::new(Counter::default()),
            idle_streak: 0,
        }
    }

    /// Bind the ring's counters and hand its waker to the wake hub, so
    /// message enqueues end a parked reap.
    fn bind(&mut self, ctx: &mut Ctx) {
        let registry = ctx.obs_hub().registry();
        self.park_waits = registry.counter("net_park_waits");
        self.ring.bind_obs(registry);
        ctx.wake_hub().register_waker(self.ring.waker());
    }

    /// Flush submissions and reap completions, waiting up to `timeout`.
    /// Returns whether anything completed.
    fn reap(&mut self, timeout: Duration) -> bool {
        matches!(self.ring.reap(&mut self.completions, Some(timeout)), Ok(n) if n > 0)
    }
}

/// The shape READER and WRITER share: non-blocking passes, and after
/// [`IDLE_STREAK_PARK`] empty ones a park inside the ring's blocking
/// reap.
trait RingActor {
    fn ring(&mut self) -> &mut RingState;
    /// One non-blocking pass; whether anything happened.
    fn pass(&mut self) -> bool;
    /// Take new requests; whether any arrived.
    fn intake(&mut self) -> bool;
    /// Act on whatever a park brought in.
    fn settle(&mut self);
}

/// Run one [`RingActor`] execution.
///
/// The park is the classic eventcount handshake: register as a hub
/// sleeper, re-poll the request mbox, then sleep in the ring. A send
/// after the re-poll notifies the hub, which fires the ring's waker and
/// ends the wait. The actor always reports [`Control::Busy`]: ring
/// completions cannot wake the worker's condvar park.
fn drive(actor: &mut impl RingActor, ctx: &mut Ctx) -> Control {
    if actor.pass() {
        actor.ring().idle_streak = 0;
        return Control::Busy;
    }
    actor.ring().idle_streak += 1;
    if actor.ring().idle_streak >= IDLE_STREAK_PARK {
        let hub = ctx.wake_hub().clone();
        let _seen = hub.prepare_park();
        if !actor.intake() {
            let ring = actor.ring();
            ring.park_waits.inc();
            ring.reap(PARK_TIMEOUT);
        }
        hub.cancel_park();
        actor.settle();
        actor.ring().idle_streak = 0;
    }
    Control::Busy
}

struct ReadWatch {
    reply: MboxRef,
    /// The socket sits in the arm queue (a submission is owed).
    queued: bool,
    /// A receive is in flight in the ring.
    inflight: bool,
    /// `Unwatch` arrived while a receive was in flight; the ack is
    /// deferred until that completion lands so the subscriber keeps the
    /// Data-before-Unwatched ordering.
    draining: bool,
}

/// Subscribe `socket` (shared by `WatchSocket` and `WatchBatch`); a new
/// watch is queued for its first receive.
fn add_read_watch(
    watches: &mut HashMap<u64, ReadWatch>,
    arm_queue: &mut VecDeque<u64>,
    socket: u64,
    reply: MboxRef,
) {
    let entry = watches.entry(socket).or_insert(ReadWatch {
        reply,
        queued: false,
        inflight: false,
        draining: false,
    });
    entry.reply = reply;
    // A re-watch racing an `Unwatch` revives the subscription; the
    // superseded unwatch is revoked unacknowledged.
    entry.draining = false;
    if !entry.queued {
        entry.queued = true;
        arm_queue.push_back(socket);
    }
}

/// The READER: forwards received bytes from subscribed sockets.
///
/// Supports the paper's batch pattern: an application subscribes all of
/// its clients with one `WatchBatch` (or one `WatchSocket` each).
///
/// Zero-copy receive path: a node is popped from the reply mbox's arena,
/// the `Data` header written into it, and the receive is submitted to
/// the READER's [`CompletionRing`] aimed **directly at the node
/// payload** — the completion hands back a finished frame that the
/// application decodes in place. One receive is in flight per watched
/// socket; each completion is delivered and the socket re-armed.
///
/// After a streak of empty passes the READER parks *inside* the
/// ring's blocking reap, registered as a hub sleeper so any mbox enqueue
/// ends the sleep.
///
/// # Backpressure
///
/// A socket whose reply pool has no free node stays in the arm queue and
/// is retried next pass — TCP bytes are never discarded once read.
/// Failed deliveries of already-read frames are counted in
/// `net_dropped_reads` (see [`Reader::bind_obs`]).
pub struct Reader {
    requests: NetPort,
    dir: Arc<MboxDirectory>,
    replies: Arc<PortStats>,
    watches: HashMap<u64, ReadWatch>,
    /// `Unwatched` acks still owed; retried when the reply mbox is
    /// congested so the confirmation can never be lost.
    acks: Vec<(u64, MboxRef)>,
    ring: RingState,
    /// Sockets owing a receive submission: new watches, starved re-arms,
    /// just-delivered completions.
    arm_queue: VecDeque<u64>,
    /// Data frames read from a socket but undeliverable to the reply
    /// mbox (mbox full after the node was filled).
    dropped: Arc<Counter>,
}

impl std::fmt::Debug for Reader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reader")
            .field("watches", &self.watches.len())
            .finish_non_exhaustive()
    }
}

impl Reader {
    /// A READER taking `WatchSocket`/`WatchBatch`/`Unwatch` requests from
    /// `requests`.
    pub fn new(
        net: Arc<dyn NetBackend>,
        requests: NetPort,
        dir: Arc<MboxDirectory>,
        replies: Arc<PortStats>,
    ) -> Self {
        Reader {
            requests,
            dir,
            replies,
            watches: HashMap::new(),
            acks: Vec::new(),
            ring: RingState::new(net.as_ref()),
            arm_queue: VecDeque::new(),
            dropped: Arc::new(Counter::default()),
        }
    }

    /// Count undeliverable data frames in `registry` as
    /// `net_dropped_reads` (shared with every other reader that binds).
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.dropped = registry.counter("net_dropped_reads");
    }

    fn drain_requests(&mut self) -> bool {
        let Reader {
            requests,
            watches,
            acks,
            ring,
            arm_queue,
            ..
        } = self;
        requests.drain(|msg| match msg {
            NetMsg::WatchSocket { socket, reply } => {
                add_read_watch(watches, arm_queue, socket, reply);
            }
            // The paper's batch request: one message subscribes a whole
            // private client list.
            NetMsg::WatchBatch { entries } => {
                for (socket, reply) in entries.iter() {
                    add_read_watch(watches, arm_queue, socket, reply);
                }
            }
            NetMsg::Unwatch { socket } => {
                // Cancelling also lets the ring stop watching the
                // socket. Ack the watch actually removed, to the mbox the
                // watch named. An in-flight receive may still surface
                // data, so its ack waits for the completion: FIFO on the
                // reply mbox gives the subscriber a hard
                // Data-before-Unwatched ordering.
                ring.ring.cancel_recv(SocketId(socket));
                if let Some(w) = watches.get_mut(&socket) {
                    if w.inflight {
                        w.draining = true;
                    } else {
                        acks.push((socket, w.reply));
                        watches.remove(&socket);
                    }
                }
            }
            _ => {}
        }) > 0
    }

    fn flush_acks(&mut self) -> bool {
        if self.acks.is_empty() {
            return false;
        }
        let (dir, replies) = (&self.dir, &self.replies);
        self.acks.retain(|&(socket, reply)| match dir.get(reply) {
            Some(mbox) => !send_msg(&mbox, &NetMsg::Unwatched { socket }, replies),
            None => false, // subscriber gone; nobody left to tell
        });
        true
    }

    /// Queue `socket` for a receive submission.
    fn requeue(&mut self, socket: u64) {
        if let Some(w) = self.watches.get_mut(&socket) {
            if !w.queued {
                w.queued = true;
                self.arm_queue.push_back(socket);
            }
        }
    }

    /// Submit receives for every socket in the arm queue. Starved
    /// sockets stay queued.
    fn service_arm(&mut self) -> bool {
        let mut worked = false;
        for _ in 0..self.arm_queue.len() {
            let Some(socket) = self.arm_queue.pop_front() else {
                break;
            };
            match self.try_arm(socket) {
                ArmOutcome::Armed => {
                    if let Some(w) = self.watches.get_mut(&socket) {
                        w.queued = false;
                    }
                }
                // Back-pressure: every node is checked out; retry once
                // the application recycles some.
                ArmOutcome::Starved => self.arm_queue.push_back(socket),
                ArmOutcome::Removed => worked = true,
            }
        }
        worked
    }

    /// One arm attempt: pop a node from the reply pool, write the Data
    /// header, and submit the receive aimed at the payload region.
    fn try_arm(&mut self, socket: u64) -> ArmOutcome {
        let Some(w) = self.watches.get_mut(&socket) else {
            return ArmOutcome::Removed; // unwatched while queued
        };
        if w.inflight || w.draining {
            return ArmOutcome::Armed;
        }
        let Some(mbox) = self.dir.get(w.reply) else {
            self.watches.remove(&socket);
            return ArmOutcome::Removed;
        };
        if mbox.arena().payload_size() <= DATA_HEADER {
            self.watches.remove(&socket);
            return ArmOutcome::Removed;
        }
        let Some(mut node) = mbox.arena().try_pop() else {
            return ArmOutcome::Starved;
        };
        let buf = node.buffer_mut();
        buf[0] = tag::DATA;
        buf[1..DATA_HEADER].copy_from_slice(&socket.to_le_bytes());
        match self
            .ring
            .ring
            .recv_into(SocketId(socket), node, DATA_HEADER)
        {
            Ok(()) => {
                w.inflight = true;
                ArmOutcome::Armed
            }
            // A receive is somehow already in flight; treat as armed.
            Err((NetError::WouldBlock, _node)) => ArmOutcome::Armed,
            Err((_, node)) => {
                // Unknown or dead socket: report closure with the node
                // already in hand.
                self.watches.remove(&socket);
                self.deliver_closed(&mbox, socket, node);
                ArmOutcome::Removed
            }
        }
    }

    /// Tell the subscriber `socket` is gone, reusing `node` for the frame.
    fn deliver_closed(&self, mbox: &Mbox, socket: u64, mut node: Node) {
        let n = NetMsg::SocketClosed { socket }.encode_into(node.buffer_mut());
        node.set_len(n);
        if mbox.send(node).is_err() {
            self.replies.note_send_drop();
            self.dropped.inc();
        }
    }

    /// Deliver reaped receive completions: data frames forwarded in
    /// place, EOF/errors become `SocketClosed`, drained unwatches get
    /// their deferred ack.
    fn service_completions(&mut self) -> bool {
        let mut worked = false;
        let mut comps = std::mem::take(&mut self.ring.completions);
        for c in comps.drain(..) {
            let Completion::Recv {
                socket,
                mut node,
                offset,
                result,
            } = c
            else {
                continue;
            };
            worked = true;
            let Some(w) = self.watches.get_mut(&socket) else {
                continue; // watch gone; node recycles to its pool
            };
            w.inflight = false;
            let draining = w.draining;
            let reply = w.reply;
            match result {
                Ok(n) if n > 0 => {
                    node.set_len(offset + n);
                    match self.dir.get(reply) {
                        Some(mbox) => {
                            if mbox.send(node).is_err() {
                                self.replies.note_send_drop();
                                self.dropped.inc();
                            }
                            if draining {
                                self.watches.remove(&socket);
                                self.acks.push((socket, reply));
                            } else {
                                self.requeue(socket);
                            }
                        }
                        None => {
                            self.watches.remove(&socket);
                        }
                    }
                }
                // Our own cancel raced a re-watch: the subscription is
                // live again, just re-arm.
                Err(NetError::Canceled) if !draining => self.requeue(socket),
                Ok(_) | Err(_) => {
                    // EOF or socket error.
                    self.watches.remove(&socket);
                    if draining {
                        self.acks.push((socket, reply));
                    } else if let Some(mbox) = self.dir.get(reply) {
                        self.deliver_closed(&mbox, socket, node);
                    }
                }
            }
        }
        self.ring.completions = comps; // keep the allocation
        worked
    }
}

/// Outcome of one [`Reader::try_arm`].
enum ArmOutcome {
    /// A receive is (now) in flight.
    Armed,
    /// No free node; stay queued and retry next pass.
    Starved,
    /// The watch was dropped (subscriber gone, socket dead).
    Removed,
}

impl RingActor for Reader {
    fn ring(&mut self) -> &mut RingState {
        &mut self.ring
    }

    /// Owed acks count as work (`flush_acks`), so the READER never
    /// parks with one outstanding.
    fn pass(&mut self) -> bool {
        let mut worked = self.drain_requests();
        worked |= self.flush_acks();
        worked |= self.service_arm();
        worked |= self.ring.reap(Duration::ZERO);
        worked |= self.service_completions();
        worked |= self.service_arm();
        // Starved sockets keep the actor hot: back-pressure resolves by
        // nodes recycling, which no ring wait can observe.
        worked || !self.arm_queue.is_empty()
    }

    fn intake(&mut self) -> bool {
        self.drain_requests()
    }

    fn settle(&mut self) {
        self.service_completions();
        self.service_arm();
    }
}

impl Actor for Reader {
    fn ctor(&mut self, ctx: &mut Ctx) {
        // The registry returns one shared counter per name, so every
        // reader in the deployment increments the same atomic.
        self.dropped = ctx.obs_hub().registry().counter("net_dropped_reads");
        self.ring.bind(ctx);
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        drive(self, ctx)
    }
}

/// Per-socket parked output.
#[derive(Default)]
struct PendingWrites {
    /// Frames waiting behind the in-flight send, oldest first.
    queue: VecDeque<Node>,
    /// A send for this socket is inside the ring; the next queued frame
    /// is submitted when its completion lands.
    inflight: bool,
}

/// The WRITER: transmits `Write` payloads, preserving per-socket order
/// under partial writes.
///
/// Each frame's node is handed to the WRITER's [`CompletionRing`] as the
/// transmit buffer — nothing is copied into side buffers. The ring
/// resumes short writes itself, so per-socket order needs only one send
/// in flight per socket and a FIFO of parked nodes behind it; a parked
/// node keeps back-pressure honest by staying checked out of its pool.
/// Like the [`Reader`], an idle WRITER parks inside its ring's blocking
/// reap with the ring's waker registered on the hub.
///
/// Backpressure never blocks the worker: a socket whose parked queue
/// exceeds `PENDING_CAP` (1 024) nodes has further writes dropped and counted
/// (`net_dropped_writes`, see [`Writer::bind_obs`]), as are writes to
/// sockets that died mid-queue.
pub struct Writer {
    requests: NetPort,
    pending: HashMap<u64, PendingWrites>,
    batch: Vec<Node>,
    ring: RingState,
    /// Write frames dropped instead of queued (dead socket, or per-socket
    /// pending cap exceeded).
    dropped: Arc<Counter>,
}

impl std::fmt::Debug for Writer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Writer")
            .field("pending_sockets", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl Writer {
    /// A WRITER draining `Write` messages from `requests`.
    pub fn new(net: Arc<dyn NetBackend>, requests: NetPort) -> Self {
        Writer {
            requests,
            pending: HashMap::new(),
            batch: Vec::new(),
            ring: RingState::new(net.as_ref()),
            dropped: Arc::new(Counter::default()),
        }
    }

    /// Count dropped write frames in `registry` as `net_dropped_writes`
    /// (shared with every other writer that binds).
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.dropped = registry.counter("net_dropped_writes");
    }

    /// Hand `node` to the ring as a send on `socket`.
    fn submit_send(&mut self, socket: u64, node: Node) {
        match self
            .ring
            .ring
            .send_node(SocketId(socket), node, DATA_HEADER)
        {
            Ok(()) => {
                self.pending.entry(socket).or_default().inflight = true;
            }
            // Defensive: a send is somehow already in flight; keep order
            // by parking the frame at the head of the queue.
            Err((NetError::WouldBlock, node)) => {
                let p = self.pending.entry(socket).or_default();
                p.inflight = true;
                p.queue.push_front(node);
            }
            Err((_, _node)) => {
                // Socket gone; the frame and everything parked behind it
                // are lost.
                self.dropped.inc();
                if let Some(p) = self.pending.remove(&socket) {
                    self.dropped.add(p.queue.len() as u64);
                }
            }
        }
    }

    /// Decode `Write` frames and submit each node to the ring, or park
    /// it behind the socket's in-flight send.
    fn intake_ring(&mut self) -> bool {
        const BATCH: usize = 32;
        let mut worked = false;
        let mut drained = std::mem::take(&mut self.batch);
        while self.requests.mbox().recv_batch(&mut drained, BATCH) > 0 {
            worked = true;
            for node in drained.drain(..) {
                // `Write` payloads sit at a fixed offset in the frame, so
                // the node itself is the transmit buffer.
                let socket = match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::Write { socket, .. }) => socket,
                    Some(_) => continue, // not ours; drop
                    None => {
                        self.requests.stats().note_corrupt_frame();
                        continue;
                    }
                };
                if node.bytes().len() <= DATA_HEADER {
                    continue; // empty payload: nothing to transmit
                }
                if let Some(p) = self.pending.get_mut(&socket) {
                    if p.inflight || !p.queue.is_empty() {
                        // Order must be preserved behind earlier bytes.
                        if p.queue.len() >= PENDING_CAP {
                            self.dropped.inc(); // bounded memory wins
                        } else {
                            p.queue.push_back(node);
                        }
                        continue;
                    }
                }
                self.submit_send(socket, node);
            }
        }
        self.batch = drained;
        worked
    }

    /// Deliver reaped send completions: a finished send releases its
    /// socket's next parked frame into the ring; a failed one retires
    /// the socket and counts its parked frames.
    fn service_send_completions(&mut self) -> bool {
        let mut worked = false;
        let mut comps = std::mem::take(&mut self.ring.completions);
        for c in comps.drain(..) {
            let Completion::Sent { socket, result, .. } = c else {
                continue;
            };
            worked = true;
            let Some(p) = self.pending.get_mut(&socket) else {
                continue;
            };
            p.inflight = false;
            match result {
                Ok(()) => {
                    if let Some(node) = p.queue.pop_front() {
                        self.submit_send(socket, node);
                    } else {
                        self.pending.remove(&socket);
                    }
                }
                Err(_) => {
                    self.dropped.inc();
                    if let Some(p) = self.pending.remove(&socket) {
                        self.dropped.add(p.queue.len() as u64);
                    }
                }
            }
        }
        self.ring.completions = comps; // keep the allocation
        worked
    }
}

impl RingActor for Writer {
    fn ring(&mut self) -> &mut RingState {
        &mut self.ring
    }

    fn pass(&mut self) -> bool {
        let mut worked = self.ring.reap(Duration::ZERO);
        worked |= self.service_send_completions();
        worked | self.intake_ring()
    }

    fn intake(&mut self) -> bool {
        self.intake_ring()
    }

    fn settle(&mut self) {
        self.service_send_completions();
        self.intake_ring();
    }
}

impl Actor for Writer {
    fn ctor(&mut self, ctx: &mut Ctx) {
        self.dropped = ctx.obs_hub().registry().counter("net_dropped_writes");
        self.ring.bind(ctx);
    }

    fn body(&mut self, ctx: &mut Ctx) -> Control {
        drive(self, ctx)
    }
}

/// The CLOSER: closes sockets on request.
pub struct Closer {
    net: Arc<dyn NetBackend>,
    requests: NetPort,
}

impl std::fmt::Debug for Closer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Closer").finish_non_exhaustive()
    }
}

impl Closer {
    /// A CLOSER draining `Close` messages from `requests`.
    pub fn new(net: Arc<dyn NetBackend>, requests: NetPort) -> Self {
        Closer { net, requests }
    }
}

impl Actor for Closer {
    fn body(&mut self, _ctx: &mut Ctx) -> Control {
        let Closer { net, requests } = self;
        let worked = requests.drain(|msg| {
            if let NetMsg::Close { socket } = msg {
                let _ = net.close(SocketId(socket));
            }
        }) > 0;
        if worked {
            Control::Busy
        } else {
            Control::Idle
        }
    }
}

/// Aggregated telemetry snapshot of the networking layer — see
/// [`SystemActors::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct NetStats {
    /// Application messages dropped on the five request ports
    /// (back-pressure towards the system actors).
    pub request_drops: u64,
    /// Frames that failed to decode as [`NetMsg`] and were discarded
    /// instead of silently swallowed.
    pub corrupt_frames: u64,
    /// Replies and `Data` frames the system actors could not deliver to
    /// application mboxes (congestion on the way back).
    pub reply_drops: u64,
    /// Data frames read from a socket but undeliverable to the reply
    /// mbox (READER backpressure degradation).
    pub dropped_reads: u64,
    /// Write frames discarded instead of queued — dead socket or
    /// per-socket pending cap exceeded (WRITER backpressure degradation).
    pub dropped_writes: u64,
}

/// Convenience bundle wiring all five system actors into a deployment.
///
/// Creates the request ports (backed by a shared untrusted pool), the
/// [`MboxDirectory`], and the actor instances. The caller decides which
/// workers execute them. Each request port's [`PortStats`] is shared with
/// every clone handed to the application, so drop and corruption counts
/// are visible per mbox; [`SystemActors::stats`] aggregates them.
pub struct SystemActors {
    /// The shared mbox directory for reply routing.
    pub dir: Arc<MboxDirectory>,
    /// Request port of the OPENER.
    pub opener_requests: NetPort,
    /// Request port of the ACCEPTER.
    pub accepter_requests: NetPort,
    /// Request port of the READER.
    pub reader_requests: NetPort,
    /// Request port of the WRITER.
    pub writer_requests: NetPort,
    /// Request port of the CLOSER.
    pub closer_requests: NetPort,
    /// Telemetry of the reply direction (system actors → application).
    pub reply_stats: Arc<PortStats>,
    /// The OPENER actor, ready to be added to a deployment.
    pub opener: Opener,
    /// The ACCEPTER actor.
    pub accepter: Accepter,
    /// The READER actor.
    pub reader: Reader,
    /// The WRITER actor.
    pub writer: Writer,
    /// The CLOSER actor.
    pub closer: Closer,
}

impl std::fmt::Debug for SystemActors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemActors").finish_non_exhaustive()
    }
}

impl SystemActors {
    /// Build the standard networking actor set over `net`.
    ///
    /// `pool` provides the nodes for all five request mboxes; size its
    /// payload for the largest `Write` the application sends.
    pub fn new(net: Arc<dyn NetBackend>, pool: Arc<eactors::arena::Arena>) -> Self {
        let dir = Arc::new(MboxDirectory::new());
        let cap = pool.capacity() as usize;
        // Each request mbox is drained by exactly one system actor (and
        // that actor runs on one worker), so the single-consumer cursor
        // protocol applies; producers are open — any actor may request.
        let mpsc = |pool: Arc<eactors::arena::Arena>| {
            Mbox::with_kind(pool, cap, eactors::arena::MboxKind::Mpsc)
        };
        let opener_requests: NetPort = Port::new(mpsc(pool.clone()));
        let accepter_requests: NetPort = Port::new(mpsc(pool.clone()));
        let reader_requests: NetPort = Port::new(mpsc(pool.clone()));
        let writer_requests: NetPort = Port::new(mpsc(pool.clone()));
        let closer_requests: NetPort = Port::new(mpsc(pool));
        let reply_stats = Arc::new(PortStats::default());
        SystemActors {
            opener: Opener::new(
                net.clone(),
                opener_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            accepter: Accepter::new(
                net.clone(),
                accepter_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            reader: Reader::new(
                net.clone(),
                reader_requests.clone(),
                dir.clone(),
                reply_stats.clone(),
            ),
            writer: Writer::new(net.clone(), writer_requests.clone()),
            closer: Closer::new(net, closer_requests.clone()),
            dir,
            opener_requests,
            accepter_requests,
            reader_requests,
            writer_requests,
            closer_requests,
            reply_stats,
        }
    }

    /// Expose the networking telemetry in `registry`: the five request
    /// ports as `net_<actor>_requests_*`, the reply direction as
    /// `net_replies_*`. The registered counters are the live atomics the
    /// actors increment (shared, not copied), so [`SystemActors::stats`]
    /// and the registry exporters always agree.
    pub fn bind_obs(&mut self, registry: &eactors::obs::MetricsRegistry) {
        self.reader.bind_obs(registry);
        self.writer.bind_obs(registry);
        self.opener_requests
            .stats()
            .register(registry, "net_opener_requests");
        self.accepter_requests
            .stats()
            .register(registry, "net_accepter_requests");
        self.reader_requests
            .stats()
            .register(registry, "net_reader_requests");
        self.writer_requests
            .stats()
            .register(registry, "net_writer_requests");
        self.closer_requests
            .stats()
            .register(registry, "net_closer_requests");
        self.reply_stats.register(registry, "net_replies");
    }

    /// Aggregate the drop and corruption counters of the five request
    /// ports and the reply path into one snapshot.
    pub fn stats(&self) -> NetStats {
        let ports = [
            &self.opener_requests,
            &self.accepter_requests,
            &self.reader_requests,
            &self.writer_requests,
            &self.closer_requests,
        ];
        NetStats {
            request_drops: ports.iter().map(|p| p.stats().send_drops()).sum(),
            corrupt_frames: ports
                .iter()
                .map(|p| p.stats().corrupt_frames())
                .sum::<u64>()
                + self.reply_stats.corrupt_frames(),
            reply_drops: self.reply_stats.send_drops(),
            dropped_reads: self.reader.dropped.get(),
            dropped_writes: self.writer.dropped.get(),
        }
    }
}
