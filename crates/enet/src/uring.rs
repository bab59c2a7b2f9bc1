//! The io_uring completion backend — real loopback sockets driven by a
//! submission queue instead of per-event syscalls.
//!
//! [`crate::EpollBackend`]'s ring amortises *wakeups* (one `epoll_wait`
//! covers many ready sockets), but every ready socket still costs its
//! own `recvfrom`/`sendto`/`accept4`. This backend removes those too:
//! consumers submit the operations themselves — reads aimed directly at
//! reply-pool [`Node`] memory, accepts armed multishot — and a single
//! `io_uring_enter(2)` both flushes the whole submission batch and reaps
//! every finished completion. A reap that finds already-posted CQEs
//! costs **zero** syscalls.
//!
//! The synchronous [`NetBackend`] surface (listen / connect / polled
//! send/recv / close) is [`crate::TcpLoopback`]'s socket table; this
//! module adds only [`UringRing`], the kernel-driven
//! [`NetBackend::completion_ring`]. Where the kernel refuses a ring at
//! run time, consumers get the polled ring instead.
//!
//! # Buffer ownership
//!
//! Every submitted operation pins its resources until the CQE is
//! reaped: the [`Node`] lives in the ring's in-flight map (arena slab
//! memory is stable — `Box<[UnsafeCell<u8>]>` never moves) and the
//! `Arc<TcpStream>`/`Arc<TcpListener>` handle pins the fd against
//! close-and-reuse. That is the entire [`crate::uring_ffi::SqeBuf`]
//! contract. Closing a socket (or listener) additionally `shutdown(2)`s
//! it so pinned in-flight operations complete (EOF / `EPIPE` /
//! `EINVAL`) instead of idling forever on a half-dead fd.
//!
//! # Fixed buffers
//!
//! The first arena a receive is submitted from gets its whole payload
//! slab registered as fixed buffer 0 ([`IORING_OP_READ_FIXED`] skips
//! per-op page pinning). Nodes from other arenas — or kernels that
//! refuse the registration — fall back to plain `recv` transparently.
//!
//! [`IORING_OP_READ_FIXED`]: crate::uring_ffi::IORING_OP_READ_FIXED

use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use eactors::arena::{Arena, Node};
use eactors::obs::{Counter, Log2Hist, MetricsRegistry};
use eactors::wake::HubWaker;
use sgx_sim::CostHandle;

use crate::backend::{
    Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId,
};
use crate::epoll::EventfdWaker;
use crate::ffi;
use crate::polled::PolledRing;
use crate::tcp::{delegate_sockets, SocketTable, TcpLoopback};
use crate::uring_ffi::{self, IoUringCqe, IoUringSqe, Ring, SqeBuf, IORING_CQE_F_MORE};

/// Default SQ depth per ring. 256 slots cover the deepest consumer
/// (READER: one recv per watched socket) at the benchmark's per-worker
/// fan-in; the ring flushes-and-retries transparently beyond that.
const DEFAULT_RING_ENTRIES: u32 = 256;

// Cookie layout: operation kind in the top byte, backend id below.
// Backend ids are sequential from 1 and never approach 2^56.
const K_SHIFT: u32 = 56;
const K_MASK: u64 = 0xff << K_SHIFT;
const K_RECV: u64 = 1 << K_SHIFT;
const K_SEND: u64 = 2 << K_SHIFT;
const K_ACCEPT: u64 = 3 << K_SHIFT;
const K_WAKE: u64 = 4 << K_SHIFT;
const K_CANCEL: u64 = 5 << K_SHIFT;

// Negated-errno values surfaced in CQE results.
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const EINVAL: i32 = 22;
const EOPNOTSUPP: i32 = 95;
const ECONNABORTED: i32 = 103;
const ECANCELED: i32 = 125;

fn os_err(negated: i32) -> NetError {
    match -negated {
        ECANCELED => NetError::Canceled,
        errno => NetError::Io(std::io::Error::from_raw_os_error(errno)),
    }
}

/// Real loopback TCP with an io_uring completion engine.
///
/// Construction always succeeds; ring availability is only decided when
/// a consumer asks for its [`NetBackend::completion_ring`] (and the
/// [`UringBackend::probe`] lets callers decide up front). A kernel that
/// refuses the ring at that point gets a polled ring instead.
#[derive(Debug, Clone)]
pub struct UringBackend {
    tcp: TcpLoopback,
    /// SQ depth for rings created from this backend (tests shrink it to
    /// force flush-and-retry submission).
    ring_entries: u32,
}

impl UringBackend {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        Self::build(costs, None, DEFAULT_RING_ENTRIES)
    }

    /// Like [`UringBackend::new`], but every socket's kernel buffers are
    /// shrunk to roughly `bytes` — used by tests to force short writes.
    pub fn with_buffer_size(costs: CostHandle, bytes: usize) -> Self {
        Self::build(costs, Some(bytes), DEFAULT_RING_ENTRIES)
    }

    /// Like [`UringBackend::new`], but rings get `entries` SQ slots —
    /// used by tests to force the full-SQ flush-and-retry path.
    pub fn with_ring_entries(costs: CostHandle, entries: u32) -> Self {
        Self::build(costs, None, entries)
    }

    fn build(costs: CostHandle, buf_bytes: Option<usize>, ring_entries: u32) -> Self {
        UringBackend {
            tcp: TcpLoopback::with_buf_bytes(costs, buf_bytes),
            ring_entries,
        }
    }

    /// Whether the running kernel can drive this backend (trial
    /// `io_uring_setup` plus feature and opcode checks).
    ///
    /// # Errors
    ///
    /// A human-readable reason, suitable for a fallback log line.
    pub fn probe() -> Result<(), String> {
        uring_ffi::probe()
    }
}

impl NetBackend for UringBackend {
    delegate_sockets!();

    fn completion_ring(&self) -> Box<dyn CompletionRing> {
        match UringRing::new(self.tcp.table.clone(), self.ring_entries) {
            Ok(ring) => Box::new(ring),
            Err(_) => Box::new(PolledRing::new(self.tcp.clone())),
        }
    }
}

/// An in-flight receive: the node the kernel writes into, pinned with
/// the stream whose fd the SQE names.
#[derive(Debug)]
struct InflightRecv {
    node: Node,
    offset: usize,
    /// Whether the SQE went out as `READ_FIXED` (for the runtime
    /// fallback when the kernel rejects fixed reads on sockets).
    fixed: bool,
    _stream: Arc<TcpStream>,
}

/// An in-flight send, with resume progress for short writes.
#[derive(Debug)]
struct InflightSend {
    node: Node,
    /// First payload byte of this transmission.
    offset: usize,
    /// Bytes already acknowledged by prior (short) completions.
    sent: usize,
    _stream: Arc<TcpStream>,
}

/// An armed accept watch.
#[derive(Debug)]
struct AcceptWatch {
    listener: Arc<TcpListener>,
    /// Still trying multishot; downgraded once on `EINVAL`.
    multishot: bool,
    /// [`CompletionRing::cancel_accept`] was called — never re-arm.
    cancelled: bool,
}

/// Fixed-buffer registration state (one arena slab, buffer index 0).
#[derive(Debug)]
enum FixedBufs {
    /// No receive submitted yet.
    Unregistered,
    /// This arena's payload slab is registered as buffer 0.
    Registered(Arc<Arena>),
    /// Registration (or a fixed read) failed; plain `recv` from now on.
    Unavailable,
}

/// One consumer's io_uring instance (see module docs).
#[derive(Debug)]
pub(crate) struct UringRing {
    inner: Arc<SocketTable>,
    ring: Ring,
    waker: Arc<EventfdWaker>,
    recvs: HashMap<u64, InflightRecv>,
    sends: HashMap<u64, InflightSend>,
    accepts: HashMap<u64, AcceptWatch>,
    /// SQEs that did not fit the SQ even after a flush (kernel EAGAIN);
    /// drained FIFO so kernel-observed submission order is preserved.
    backlog: VecDeque<IoUringSqe>,
    fixed: FixedBufs,
    sqe_submitted: Arc<Counter>,
    cqe_reaped: Arc<Counter>,
    enter_syscalls: Arc<Counter>,
    fixed_reads: Arc<Counter>,
    batch_hist: Arc<Log2Hist>,
}

impl UringRing {
    fn new(inner: Arc<SocketTable>, entries: u32) -> std::io::Result<Self> {
        let mut ring = Ring::new(entries)?;
        let waker = Arc::new(EventfdWaker::create()?);
        // Arm the wake watch up front; it is flushed by the first enter.
        // Multishot: a signal posts a CQE without consuming the watch.
        ring.push(&IoUringSqe::poll_add_multi(waker.fd.raw(), K_WAKE));
        Ok(UringRing {
            inner,
            ring,
            waker,
            recvs: HashMap::new(),
            sends: HashMap::new(),
            accepts: HashMap::new(),
            backlog: VecDeque::new(),
            fixed: FixedBufs::Unregistered,
            sqe_submitted: Arc::new(Counter::new()),
            cqe_reaped: Arc::new(Counter::new()),
            enter_syscalls: Arc::new(Counter::new()),
            fixed_reads: Arc::new(Counter::new()),
            batch_hist: Arc::new(Log2Hist::new()),
        })
    }

    /// Queue one SQE, preserving FIFO order past a full SQ.
    fn queue_sqe(&mut self, sqe: IoUringSqe) {
        if self.backlog.is_empty() && self.ring.push(&sqe) {
            return;
        }
        self.backlog.push_back(sqe);
        self.pump_backlog();
    }

    /// Move backlogged SQEs into the SQ, flushing (one submit-only
    /// enter frees every slot) when it fills. Leftovers stay queued for
    /// the next reap — a torn submission loses nothing.
    fn pump_backlog(&mut self) {
        while let Some(sqe) = self.backlog.front() {
            if self.ring.push(sqe) {
                self.backlog.pop_front();
                continue;
            }
            match self.ring.enter(0, None) {
                Ok(consumed) => {
                    self.enter_syscalls.inc();
                    self.sqe_submitted.add(u64::from(consumed));
                    if consumed == 0 {
                        return; // kernel EAGAIN/EBUSY; retry next reap
                    }
                }
                Err(_) => return, // surfaced by the next reap's enter
            }
        }
    }

    /// Register the node's arena as fixed buffer 0 on first use.
    fn maybe_register(&mut self, node: &Node) {
        if matches!(self.fixed, FixedBufs::Unregistered) {
            let arena = node.arena().clone();
            let (base, len) = arena.payload_region();
            self.fixed = match self.ring.register_buffers(&[(base, len)]) {
                // The Arc pins the slab for the ring's lifetime — the
                // registered memory can never outlive its mapping.
                Ok(()) => FixedBufs::Registered(arena),
                Err(_) => FixedBufs::Unavailable,
            };
        }
    }

    fn is_fixed(&self, node: &Node) -> bool {
        matches!(&self.fixed, FixedBufs::Registered(a) if Arc::ptr_eq(a, node.arena()))
    }

    /// (Re-)arm the accept submission for `id` using the watch's current
    /// multishot mode. Cancelled watches are dropped instead.
    fn arm_accept(&mut self, id: u64) {
        let Some(watch) = self.accepts.get(&id) else {
            return;
        };
        if watch.cancelled {
            self.accepts.remove(&id);
            return;
        }
        let sqe = IoUringSqe::accept(watch.listener.as_raw_fd(), watch.multishot, K_ACCEPT | id);
        self.queue_sqe(sqe);
    }

    /// Build the receive SQE for an in-flight entry (initial submission
    /// and the fixed→plain retry path share it).
    fn recv_sqe(&mut self, id: u64) -> IoUringSqe {
        let fl = self.recvs.get_mut(&id).expect("in-flight recv exists");
        let size = fl.node.arena().payload_size();
        let buf = SqeBuf {
            // Safety contract of SqeBuf: the node sits in `self.recvs`
            // until its CQE is reaped, and arena slabs never move.
            ptr: unsafe { fl.node.buffer_mut().as_mut_ptr().add(fl.offset) },
            len: (size - fl.offset) as u32,
        };
        let fd = fl._stream.as_raw_fd();
        if fl.fixed {
            self.fixed_reads.inc();
            IoUringSqe::read_fixed(fd, buf, 0, K_RECV | id)
        } else {
            IoUringSqe::recv(fd, buf, K_RECV | id)
        }
    }

    /// Build the (re)send SQE for an in-flight entry at its current
    /// resume position.
    fn send_sqe(&self, id: u64) -> IoUringSqe {
        let fl = self.sends.get(&id).expect("in-flight send exists");
        let bytes = fl.node.bytes();
        let pos = fl.offset + fl.sent;
        let buf = SqeBuf {
            // Safety contract of SqeBuf: pinned in `self.sends` until
            // the final CQE.
            ptr: unsafe { bytes.as_ptr().add(pos).cast_mut() },
            len: (bytes.len() - pos) as u32,
        };
        IoUringSqe::send(fl._stream.as_raw_fd(), buf, K_SEND | id)
    }

    /// Drain every posted CQE (zero syscalls), returning how many were
    /// processed.
    fn drain_cq(&mut self, out: &mut Vec<Completion>) -> usize {
        let mut n = 0;
        while let Some(cqe) = self.ring.pop_cqe() {
            n += 1;
            self.process_cqe(cqe, out);
        }
        n
    }

    fn process_cqe(&mut self, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let id = cqe.user_data & !K_MASK;
        match cqe.user_data & K_MASK {
            K_WAKE => {
                ffi::eventfd_drain(&self.waker.fd);
                if cqe.flags & IORING_CQE_F_MORE == 0 {
                    // The multishot watch ended (or the kernel only did
                    // oneshot); re-arm so future wakes still land.
                    let sqe = IoUringSqe::poll_add_multi(self.waker.fd.raw(), K_WAKE);
                    self.queue_sqe(sqe);
                }
            }
            // ASYNC_CANCEL's own result (0 / -ENOENT / -EALREADY) says
            // nothing the target's CQE does not; ignore it.
            K_CANCEL => {}
            K_RECV => self.on_recv_cqe(id, cqe, out),
            K_SEND => self.on_send_cqe(id, cqe, out),
            K_ACCEPT => self.on_accept_cqe(id, cqe, out),
            _ => {}
        }
    }

    fn on_recv_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let Some(fl) = self.recvs.get_mut(&id) else {
            return;
        };
        if cqe.res < 0 && fl.fixed && matches!(-cqe.res, EINVAL | EOPNOTSUPP) {
            // This kernel rejects fixed reads on sockets: disable them
            // ring-wide and retry this receive as a plain recv.
            fl.fixed = false;
            self.fixed = FixedBufs::Unavailable;
            let sqe = self.recv_sqe(id);
            self.queue_sqe(sqe);
            return;
        }
        if cqe.res < 0 && matches!(-cqe.res, EINTR | EAGAIN) {
            // io_uring normally parks nonblocking socket ops internally,
            // but a spurious EAGAIN is harmless to resubmit.
            let sqe = self.recv_sqe(id);
            self.queue_sqe(sqe);
            return;
        }
        let fl = self.recvs.remove(&id).expect("checked above");
        let result = if cqe.res >= 0 {
            Ok(cqe.res as usize)
        } else {
            Err(os_err(cqe.res))
        };
        out.push(Completion::Recv {
            socket: id,
            node: fl.node,
            offset: fl.offset,
            result,
        });
    }

    fn on_send_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let Some(fl) = self.sends.get_mut(&id) else {
            return;
        };
        if cqe.res > 0 {
            fl.sent += cqe.res as usize;
            if fl.offset + fl.sent < fl.node.len() {
                // Short write: resume from the new position inside the
                // ring — the consumer only ever sees full transmissions.
                let sqe = self.send_sqe(id);
                self.queue_sqe(sqe);
                return;
            }
            let fl = self.sends.remove(&id).expect("checked above");
            out.push(Completion::Sent {
                socket: id,
                node: fl.node,
                result: Ok(()),
            });
            return;
        }
        if cqe.res == 0 || matches!(-cqe.res, EINTR | EAGAIN) {
            let sqe = self.send_sqe(id);
            self.queue_sqe(sqe);
            return;
        }
        let fl = self.sends.remove(&id).expect("checked above");
        out.push(Completion::Sent {
            socket: id,
            node: fl.node,
            result: Err(os_err(cqe.res)),
        });
    }

    fn on_accept_cqe(&mut self, id: u64, cqe: IoUringCqe, out: &mut Vec<Completion>) {
        let Some(watch) = self.accepts.get_mut(&id) else {
            // Watch already dropped; a raced-in connection would leak
            // its fd — close it.
            if cqe.res >= 0 {
                drop(unsafe { TcpStream::from_raw_fd(cqe.res) });
            }
            return;
        };
        let cancelled = watch.cancelled;
        let still_armed = cqe.flags & IORING_CQE_F_MORE != 0;
        if cqe.res >= 0 {
            // Safety: a successful accept CQE transfers ownership of a
            // fresh fd; `adopt` (or the drop below) closes it once.
            let stream = unsafe { TcpStream::from_raw_fd(cqe.res) };
            if let Ok(socket) = self.inner.adopt(stream) {
                out.push(Completion::Accepted {
                    listener: id,
                    socket,
                });
            }
            if cancelled {
                self.accepts.remove(&id);
            } else if !still_armed {
                self.arm_accept(id);
            }
            return;
        }
        if cancelled {
            self.accepts.remove(&id);
            return;
        }
        match -cqe.res {
            EINVAL if watch.multishot => {
                // Pre-5.19 kernel: downgrade to oneshot and re-arm.
                watch.multishot = false;
                self.arm_accept(id);
            }
            // Transient per-connection failures; the listener is fine.
            ECONNABORTED | EINTR | EAGAIN | ECANCELED => self.arm_accept(id),
            _ => {
                self.accepts.remove(&id);
                out.push(Completion::AcceptFailed { listener: id });
            }
        }
    }
}

impl CompletionRing for UringRing {
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError> {
        self.inner.syscall()?;
        if let Some(watch) = self.accepts.get_mut(&listener.0) {
            watch.cancelled = false; // re-accept before the cancel landed
            return Ok(());
        }
        let l = self.inner.listener(listener)?;
        self.accepts.insert(
            listener.0,
            AcceptWatch {
                listener: l,
                multishot: true,
                cancelled: false,
            },
        );
        self.arm_accept(listener.0);
        Ok(())
    }

    fn cancel_accept(&mut self, listener: ListenerId) {
        if let Some(watch) = self.accepts.get_mut(&listener.0) {
            if watch.cancelled {
                return;
            }
            watch.cancelled = true;
            let sqe = IoUringSqe::cancel(K_ACCEPT | listener.0, K_CANCEL | listener.0);
            self.queue_sqe(sqe);
        }
    }

    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = self.inner.syscall() {
            return Err((e, node));
        }
        if self.recvs.contains_key(&socket.0) {
            return Err((NetError::WouldBlock, node));
        }
        if offset >= node.arena().payload_size() {
            debug_assert!(false, "recv_into offset leaves no room");
            return Err((NetError::WouldBlock, node));
        }
        let stream = match self.inner.socket(socket) {
            Ok(s) => s,
            Err(e) => return Err((e, node)),
        };
        self.maybe_register(&node);
        let fixed = self.is_fixed(&node);
        self.recvs.insert(
            socket.0,
            InflightRecv {
                node,
                offset,
                fixed,
                _stream: stream,
            },
        );
        let sqe = self.recv_sqe(socket.0);
        self.queue_sqe(sqe);
        Ok(())
    }

    fn cancel_recv(&mut self, socket: SocketId) {
        if self.recvs.contains_key(&socket.0) {
            let sqe = IoUringSqe::cancel(K_RECV | socket.0, K_CANCEL | socket.0);
            self.queue_sqe(sqe);
        }
    }

    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = self.inner.syscall() {
            return Err((e, node));
        }
        if self.sends.contains_key(&socket.0) {
            return Err((NetError::WouldBlock, node));
        }
        if offset >= node.len() {
            debug_assert!(false, "send_node with nothing to send");
            return Err((NetError::WouldBlock, node));
        }
        let stream = match self.inner.socket(socket) {
            Ok(s) => s,
            Err(e) => return Err((e, node)),
        };
        self.sends.insert(
            socket.0,
            InflightSend {
                node,
                offset,
                sent: 0,
                _stream: stream,
            },
        );
        let sqe = self.send_sqe(socket.0);
        self.queue_sqe(sqe);
        Ok(())
    }

    fn reap(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError> {
        self.inner.syscall()?;
        self.pump_backlog();
        let before = out.len();
        // Phase 1: already-posted completions — zero syscalls.
        let mut raw = self.drain_cq(out);
        // Phase 2: at most one enter — flushing pending submissions,
        // blocking only when nothing has completed yet and the caller
        // asked to wait.
        let want_wait = out.len() == before && raw == 0 && timeout.map_or(true, |t| !t.is_zero());
        if self.ring.pending_submissions() > 0 || want_wait || self.ring.cq_overflowed() {
            let (min, to) = if want_wait { (1, timeout) } else { (0, None) };
            let consumed = self.ring.enter(min, to).map_err(NetError::Io)?;
            self.enter_syscalls.inc();
            self.sqe_submitted.add(u64::from(consumed));
            raw += self.drain_cq(out);
        }
        if raw > 0 {
            self.cqe_reaped.add(raw as u64);
            self.batch_hist.record(raw as u64);
        }
        // Re-arm the waker: the next cross-thread notify signals the
        // eventfd again (its poll watch posts the wake CQE).
        self.waker.armed.store(true, Ordering::Release);
        Ok(out.len() - before)
    }

    fn waker(&self) -> Arc<dyn HubWaker> {
        self.waker.clone()
    }

    fn bind_obs(&mut self, registry: &MetricsRegistry) {
        // register_counter returns the previously registered atomic when
        // the name is taken — rings of one deployment share counters.
        self.sqe_submitted =
            registry.register_counter("net_sqe_submitted", self.sqe_submitted.clone());
        self.cqe_reaped = registry.register_counter("net_cqe_reaped", self.cqe_reaped.clone());
        self.enter_syscalls =
            registry.register_counter("net_enter_syscalls", self.enter_syscalls.clone());
        self.fixed_reads = registry.register_counter("net_fixed_reads", self.fixed_reads.clone());
        self.batch_hist = registry.hist("net_uring_batch");
    }
}
