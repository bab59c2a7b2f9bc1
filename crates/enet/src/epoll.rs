//! The epoll backend: real loopback sockets behind an edge-triggered
//! `epoll(7)` completion ring.
//!
//! The sockets are [`crate::TcpLoopback`]'s; this module adds only
//! [`EpollRing`], a reactor→proactor adapter giving epoll the
//! [`CompletionRing`] contract. Each consumer gets its own ring (own
//! epoll fd and eventfd), so a READER and a WRITER watching the same
//! socket never steal each other's events.
//!
//! A socket is registered edge-triggered (`EPOLLET`) on its first
//! receive, or on the first send that would block. Each reap collects
//! edges with one `epoll_wait`, then acts on them: one `recv` into the
//! node an armed receive handed over, the rest of a parked send, or the
//! whole accept backlog of a ready listener — each posted as a
//! [`Completion`]. A socket stays "ready until `WouldBlock`": an edge
//! sets the flag and only an operation that would block clears it, so
//! data left behind by one receive is read by the next without waiting
//! for an edge that will never come. A fresh registration starts ready,
//! which also covers an edge that fired before the watch existed.
//!
//! The ring's eventfd [`HubWaker`] ends a blocking reap on any mbox
//! enqueue (edge-armed: one atomic swap while the consumer is awake, at
//! most one `write(2)` per sleep). A ring pins an [`Arc`] on every
//! stream it watches, so a racing `close` cannot recycle a registered fd
//! number; `close` shuts the socket down, and the resulting `EPOLLHUP`
//! drops a watch that has nothing armed.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use eactors::arena::Node;
use eactors::wake::HubWaker;
use sgx_sim::CostHandle;

use crate::backend::{
    untrusted, Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId,
};
use crate::ffi;
use crate::polled::PolledRing;
use crate::tcp::{delegate_sockets, TcpLoopback};

/// Epoll-event cookie tag marking a listener id (socket ids are
/// sequential and never reach this bit).
const LISTENER_TAG: u64 = 1 << 63;
/// Cookie of each ring's wake eventfd.
const WAKER_COOKIE: u64 = u64::MAX;
/// Stack batch size for one `epoll_wait`; truncated events stay on the
/// kernel's ready list and surface on the next wait.
const WAIT_BATCH: usize = 64;
const READ_MASK: u32 = ffi::EPOLLIN | ffi::EPOLLRDHUP | ffi::EPOLLET;
const WRITE_MASK: u32 = ffi::EPOLLOUT | ffi::EPOLLET;

/// Real loopback TCP with an edge-triggered `epoll` completion ring.
#[derive(Debug, Clone)]
pub struct EpollBackend {
    tcp: TcpLoopback,
}

impl EpollBackend {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        EpollBackend {
            tcp: TcpLoopback::with_buf_bytes(costs, None),
        }
    }

    /// Like [`EpollBackend::new`], but every socket's kernel send and
    /// receive buffers are shrunk to roughly `bytes` — the conformance
    /// suite uses this to force partial writes with small payloads.
    pub fn with_buffer_size(costs: CostHandle, bytes: usize) -> Self {
        EpollBackend {
            tcp: TcpLoopback::with_buf_bytes(costs, Some(bytes)),
        }
    }
}

impl NetBackend for EpollBackend {
    delegate_sockets!();

    fn completion_ring(&self) -> Box<dyn CompletionRing> {
        match EpollRing::new(self.tcp.clone()) {
            Ok(ring) => Box::new(ring),
            // No epoll instance to be had (fd limit): poll instead.
            Err(_) => Box::new(PolledRing::new(self.tcp.clone())),
        }
    }
}

/// Wakes a blocked ring wait by signalling its eventfd.
///
/// Edge-armed: the flag is set while the consumer might be (about to
/// be) sleeping and cleared by the first wake, so a storm of notifies
/// costs one `write(2)`; when the consumer is demonstrably awake the
/// wake is a single atomic swap.
#[derive(Debug)]
pub(crate) struct EventfdWaker {
    pub(crate) fd: ffi::OwnedFd,
    pub(crate) armed: AtomicBool,
}

impl EventfdWaker {
    /// A fresh, armed waker around a new eventfd.
    pub(crate) fn create() -> std::io::Result<Self> {
        Ok(EventfdWaker {
            fd: ffi::eventfd_create()?,
            armed: AtomicBool::new(true),
        })
    }
}

impl HubWaker for EventfdWaker {
    fn wake(&self) {
        if self.armed.swap(false, Ordering::AcqRel) {
            ffi::eventfd_signal(&self.fd);
        }
    }
}

/// One registered socket with its readiness flags and armed operations.
#[derive(Debug)]
struct Watch {
    /// Pins the fd while registered (no fd-number reuse under the set).
    stream: Arc<TcpStream>,
    mask: u32,
    /// Ready until a read would block.
    readable: bool,
    /// Ready until a write would block.
    writable: bool,
    /// Queued in [`EpollRing::due`].
    due: bool,
    /// The armed receive: node and payload offset.
    recv: Option<(Node, usize)>,
    /// The parked send: node and next byte to transmit.
    send: Option<(Node, usize)>,
}

impl Watch {
    /// Whether an armed operation can make progress right now.
    fn actionable(&self) -> bool {
        (self.readable && self.recv.is_some()) || (self.writable && self.send.is_some())
    }
}

#[derive(Debug)]
struct ListenWatch {
    /// Pins the listener's fd while registered.
    listener: Arc<TcpListener>,
    /// An accept edge fired (or the watch is new) and the backlog has
    /// not been drained since.
    ready: bool,
}

/// One consumer's epoll completion ring (see module docs).
#[derive(Debug)]
pub(crate) struct EpollRing {
    tcp: TcpLoopback,
    epfd: ffi::OwnedFd,
    waker: Arc<EventfdWaker>,
    watches: HashMap<u64, Watch>,
    listeners: HashMap<u64, ListenWatch>,
    /// Sockets with an armed operation that can make progress.
    due: Vec<u64>,
    /// Completions decided outside a reap (cancellations, sends that
    /// finished at submission).
    posted: Vec<Completion>,
}

/// Send `node.bytes()[*pos..]` until it is all out (`Ok(true)`) or the
/// socket would block (`Ok(false)`), advancing `*pos`.
fn send_out(
    tcp: &TcpLoopback,
    socket: u64,
    node: &Node,
    pos: &mut usize,
) -> Result<bool, NetError> {
    while *pos < node.len() {
        match tcp.send(SocketId(socket), &node.bytes()[*pos..])? {
            0 => return Ok(false),
            n => *pos += n,
        }
    }
    Ok(true)
}

impl EpollRing {
    fn new(tcp: TcpLoopback) -> std::io::Result<Self> {
        let epfd = ffi::epoll_create()?;
        let waker = Arc::new(EventfdWaker::create()?);
        // Level-triggered on purpose: if a wake signal is crowded out of
        // one batch it simply surfaces on the next wait.
        ffi::epoll_add(&epfd, waker.fd.raw(), ffi::EPOLLIN, WAKER_COOKIE)?;
        Ok(EpollRing {
            tcp,
            epfd,
            waker,
            watches: HashMap::new(),
            listeners: HashMap::new(),
            due: Vec::new(),
            posted: Vec::new(),
        })
    }

    /// Register interest `mask` on `socket`. A new interest counts as
    /// ready once; the first attempt finds out.
    fn watch(&mut self, socket: u64, mask: u32) -> Result<(), NetError> {
        let table = &self.tcp.table;
        if let Some(w) = self.watches.get_mut(&socket) {
            if w.mask & mask != mask {
                table.syscall()?;
                ffi::epoll_mod(&self.epfd, w.stream.as_raw_fd(), w.mask | mask, socket)?;
                w.mask |= mask;
                w.readable |= mask & ffi::EPOLLIN != 0;
                w.writable |= mask & ffi::EPOLLOUT != 0;
            }
            return Ok(());
        }
        let stream = table.socket(SocketId(socket))?;
        table.syscall()?;
        ffi::epoll_add(&self.epfd, stream.as_raw_fd(), mask, socket)?;
        let (readable, writable, due, recv, send) = (true, true, false, None, None);
        let w = Watch {
            stream,
            mask,
            readable,
            writable,
            due,
            recv,
            send,
        };
        self.watches.insert(socket, w);
        Ok(())
    }

    /// Drop `socket`'s registration (and with it the fd pin).
    fn unwatch(&mut self, socket: u64) {
        if let Some(w) = self.watches.remove(&socket) {
            ffi::epoll_del(&self.epfd, w.stream.as_raw_fd());
        }
    }

    /// Queue `socket` for the next I/O round if it can make progress.
    fn mark_due(&mut self, socket: u64) {
        if let Some(w) = self.watches.get_mut(&socket) {
            if !w.due && w.actionable() {
                w.due = true;
                self.due.push(socket);
            }
        }
    }

    /// Fold one epoll event into the readiness flags.
    fn on_event(&mut self, cookie: u64, mask: u32) {
        if cookie == WAKER_COOKIE {
            ffi::eventfd_drain(&self.waker.fd);
            return;
        }
        if cookie & LISTENER_TAG != 0 {
            if let Some(l) = self.listeners.get_mut(&(cookie & !LISTENER_TAG)) {
                l.ready = true;
            }
            return;
        }
        let Some(w) = self.watches.get_mut(&cookie) else {
            return;
        };
        let hup = mask & (ffi::EPOLLHUP | ffi::EPOLLERR) != 0;
        w.readable |= hup || mask & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0;
        w.writable |= hup || mask & ffi::EPOLLOUT != 0;
        let idle = w.recv.is_none() && w.send.is_none();
        if idle && hup && self.tcp.table.socket(SocketId(cookie)).is_err() {
            // Closed while nothing was armed here: let the fd go.
            self.unwatch(cookie);
            return;
        }
        self.mark_due(cookie);
    }

    /// Drain the backlog of every ready listener.
    fn accept_ready(&mut self, out: &mut Vec<Completion>) {
        let (tcp, epfd) = (&self.tcp, &self.epfd);
        self.listeners.retain(|&listener, l| {
            while l.ready {
                match tcp.accept(ListenerId(listener)) {
                    Ok(Some(SocketId(socket))) => {
                        out.push(Completion::Accepted { listener, socket })
                    }
                    Ok(None) => l.ready = false,
                    Err(_) => {
                        ffi::epoll_del(epfd, l.listener.as_raw_fd());
                        out.push(Completion::AcceptFailed { listener });
                        return false;
                    }
                }
            }
            true
        });
    }

    /// One I/O round over the due sockets: one `recv` per armed
    /// receive, a send loop per parked send.
    fn run_due(&mut self, out: &mut Vec<Completion>) {
        let mut due = std::mem::take(&mut self.due);
        for socket in due.drain(..) {
            let Some(w) = self.watches.get_mut(&socket) else {
                continue;
            };
            w.due = false;
            let mut ended = false;
            if let (true, Some((mut node, offset))) = (w.readable, w.recv.take()) {
                let buf = &mut node.buffer_mut()[offset..];
                let result = match self.tcp.recv(SocketId(socket), buf) {
                    Ok(RecvOutcome::WouldBlock) => None,
                    Ok(RecvOutcome::Data(n)) => Some(Ok(n)),
                    Ok(RecvOutcome::Eof) => Some(Ok(0)),
                    Err(e) => Some(Err(e)),
                };
                match result {
                    None => {
                        w.readable = false;
                        w.recv = Some((node, offset));
                    }
                    Some(result) => {
                        ended = !matches!(result, Ok(n) if n > 0);
                        out.push(Completion::Recv {
                            socket,
                            node,
                            offset,
                            result,
                        });
                    }
                }
            }
            if let (true, Some((node, mut pos))) = (w.writable, w.send.take()) {
                match send_out(&self.tcp, socket, &node, &mut pos) {
                    Ok(false) => {
                        w.writable = false;
                        w.send = Some((node, pos));
                    }
                    done => {
                        let result = done.map(drop);
                        ended |= result.is_err();
                        out.push(Completion::Sent {
                            socket,
                            node,
                            result,
                        });
                    }
                }
            }
            if ended && w.recv.is_none() && w.send.is_none() {
                self.unwatch(socket);
            }
        }
        self.due = due; // keep the allocation
    }
}

impl CompletionRing for EpollRing {
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError> {
        self.tcp.table.syscall()?;
        if self.listeners.contains_key(&listener.0) {
            return Ok(());
        }
        let l = self.tcp.table.listener(listener)?;
        let cookie = listener.0 | LISTENER_TAG;
        ffi::epoll_add(
            &self.epfd,
            l.as_raw_fd(),
            ffi::EPOLLIN | ffi::EPOLLET,
            cookie,
        )?;
        let watch = ListenWatch {
            listener: l,
            ready: true,
        };
        self.listeners.insert(listener.0, watch);
        Ok(())
    }

    fn cancel_accept(&mut self, listener: ListenerId) {
        if let Some(l) = self.listeners.remove(&listener.0) {
            ffi::epoll_del(&self.epfd, l.listener.as_raw_fd());
        }
    }

    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if let Err(e) = untrusted() {
            return Err((e, node));
        }
        let armed = self
            .watches
            .get(&socket.0)
            .is_some_and(|w| w.recv.is_some());
        if armed || offset >= node.arena().payload_size() {
            return Err((NetError::WouldBlock, node));
        }
        if let Err(e) = self.watch(socket.0, READ_MASK) {
            return Err((e, node));
        }
        let w = self.watches.get_mut(&socket.0).expect("just watched");
        w.recv = Some((node, offset));
        self.mark_due(socket.0);
        Ok(())
    }

    fn cancel_recv(&mut self, socket: SocketId) {
        let Some(w) = self.watches.get_mut(&socket.0) else {
            return;
        };
        if let Some((node, offset)) = w.recv.take() {
            self.posted.push(Completion::Recv {
                socket: socket.0,
                node,
                offset,
                result: Err(NetError::Canceled),
            });
        }
        if w.send.is_none() {
            // The consumer stopped reading: stop hearing about the socket.
            self.unwatch(socket.0);
        }
    }

    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        let parked = self
            .watches
            .get(&socket.0)
            .is_some_and(|w| w.send.is_some());
        if parked || offset >= node.len() {
            return Err((NetError::WouldBlock, node));
        }
        let mut pos = offset;
        match send_out(&self.tcp, socket.0, &node, &mut pos) {
            Err(e) => Err((e, node)),
            Ok(true) => {
                let (socket, result) = (socket.0, Ok(()));
                self.posted.push(Completion::Sent {
                    socket,
                    node,
                    result,
                });
                Ok(())
            }
            Ok(false) => {
                // Short write: the tail waits for EPOLLOUT. Adding the
                // interest to an already-writable fd queues an edge, so
                // space freed since the write is not missed.
                if let Err(e) = self.watch(socket.0, WRITE_MASK) {
                    return Err((e, node));
                }
                let w = self.watches.get_mut(&socket.0).expect("just watched");
                w.writable = false;
                w.send = Some((node, pos));
                Ok(())
            }
        }
    }

    fn reap(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError> {
        self.tcp.table.syscall()?;
        let before = out.len();
        out.append(&mut self.posted);
        let busy =
            out.len() > before || !self.due.is_empty() || self.listeners.values().any(|l| l.ready);
        let wait = if busy { Some(Duration::ZERO) } else { timeout };
        let mut raw = [ffi::EpollEvent::zeroed(); WAIT_BATCH];
        let n = ffi::epoll_wait_into(&self.epfd, &mut raw, wait)?;
        for ev in &raw[..n] {
            let (cookie, mask) = (ev.data, ev.events);
            self.on_event(cookie, mask);
        }
        // Re-arm after every wait: the next notify while we are away
        // from `epoll_wait` leaves a pending signal and the next wait
        // returns immediately — never a lost wake-up.
        self.waker.armed.store(true, Ordering::Release);
        self.accept_ready(out);
        self.run_due(out);
        Ok(out.len() - before)
    }

    fn waker(&self) -> Arc<dyn HubWaker> {
        self.waker.clone()
    }
}
