//! The network backend abstraction.
//!
//! Enclaves cannot issue system calls, so all networking in EActors runs
//! in untrusted *system actors* (§4.2). This module defines the socket
//! interface those actors program against: [`NetBackend`] for the
//! synchronous socket calls and [`CompletionRing`], the one I/O facility
//! the READER, WRITER and ACCEPTER drive. [`crate::SimNet`] (an
//! in-process TCP-like substrate with a syscall cost model — used by the
//! benchmarks so thousands of emulated clients fit on one machine) and
//! [`crate::TcpLoopback`] (real `std::net` sockets on localhost) are the
//! portable backends.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use eactors::arena::Node;
use eactors::obs::MetricsRegistry;
use eactors::wake::HubWaker;

/// Identifier of a connected socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(pub u64);

/// Identifier of a listening (server) socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ListenerId(pub u64);

/// Outcome of a non-blocking receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvOutcome {
    /// `n` bytes were copied into the buffer.
    Data(usize),
    /// No data available right now.
    WouldBlock,
    /// The peer closed the connection and the buffer is drained.
    Eof,
}

/// Errors from network operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A system call was attempted from inside an enclave. Real enclaves
    /// cannot do this; the simulation turns the mistake into a loud error
    /// instead of a silent OCall.
    TrustedDomain,
    /// The port is already in use.
    PortInUse(u16),
    /// Nothing listens on the port.
    ConnectionRefused(u16),
    /// The socket or listener id is unknown or already closed.
    BadSocket,
    /// The peer's receive buffer is full (back-pressure; retry).
    WouldBlock,
    /// An OS-level error from the real-socket backend.
    Io(std::io::Error),
    /// A scripted failure from a fault-injection plan fired at the named
    /// failpoint site (simulation backend only).
    Injected(&'static str),
    /// The operation was withdrawn by [`CompletionRing::cancel_recv`]
    /// before it completed.
    Canceled,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::TrustedDomain => {
                write!(f, "network system calls must run in untrusted actors")
            }
            NetError::PortInUse(p) => write!(f, "port {p} is already in use"),
            NetError::ConnectionRefused(p) => write!(f, "connection refused on port {p}"),
            NetError::BadSocket => write!(f, "unknown or closed socket"),
            NetError::WouldBlock => write!(f, "operation would block"),
            NetError::Io(e) => write!(f, "socket i/o error: {e}"),
            NetError::Injected(site) => write!(f, "fault injected at {site}"),
            NetError::Canceled => write!(f, "operation canceled"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Refuse enclave callers without charging a syscall: ring bookkeeping
/// that issues no system call still must not run trusted.
pub(crate) fn untrusted() -> Result<(), NetError> {
    if sgx_sim::current_domain().is_trusted() {
        Err(NetError::TrustedDomain)
    } else {
        Ok(())
    }
}

/// A non-blocking TCP-like transport.
///
/// All methods are callable from any thread; every call models one system
/// call (and is rejected when issued from enclave code).
pub trait NetBackend: Send + Sync + fmt::Debug {
    /// Open a server socket on `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] when the port is taken,
    /// [`NetError::TrustedDomain`] from enclave code.
    fn listen(&self, port: u16) -> Result<ListenerId, NetError>;

    /// Open a client connection to `port`.
    ///
    /// # Errors
    ///
    /// [`NetError::ConnectionRefused`] when nothing listens there.
    fn connect(&self, port: u16) -> Result<SocketId, NetError>;

    /// Accept one pending connection, or `None` when the backlog is
    /// empty.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener.
    fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError>;

    /// Send up to `data.len()` bytes; returns how many were accepted
    /// (0 when the peer's buffer is full).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for a closed socket.
    fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError>;

    /// Receive into `buf` without blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown socket.
    fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError>;

    /// Close a socket (the peer observes EOF after draining).
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown socket.
    fn close(&self, socket: SocketId) -> Result<(), NetError>;

    /// Close a listener.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener.
    fn close_listener(&self, listener: ListenerId) -> Result<(), NetError>;

    /// Create a completion ring over this backend's sockets — the one
    /// I/O facility the system actors drive. Each call returns an
    /// independent ring (its own in-flight table and waker), so
    /// completions are never stolen between consumers.
    fn completion_ring(&self) -> Box<dyn CompletionRing>;
}

/// One finished operation reaped from a [`CompletionRing`].
///
/// Buffers travel as arena [`Node`]s in both directions: a receive is
/// submitted *with* the node the kernel fills, and every completion
/// hands the node back — ownership is never ambiguous, and a dropped
/// completion simply recycles its node to the pool.
#[derive(Debug)]
#[non_exhaustive]
pub enum Completion {
    /// A watched listener produced a connection, already adopted into
    /// the backend's socket table under `socket`.
    Accepted {
        /// The listener ([`ListenerId::0`]) the connection arrived on.
        listener: u64,
        /// The new socket ([`SocketId::0`]), nonblocking and adopted.
        socket: u64,
    },
    /// The accept stream on `listener` died (listener closed or a fatal
    /// accept error); the watch is gone and must be re-submitted if
    /// still wanted.
    AcceptFailed {
        /// The listener whose watch ended.
        listener: u64,
    },
    /// A [`CompletionRing::recv_into`] finished. On `Ok(n)` the kernel
    /// filled `node` bytes `offset..offset + n` (`n == 0` is EOF); the
    /// node's length is **not** set — the consumer owns framing. `Err`
    /// reports a dead socket or a cancellation
    /// ([`CompletionRing::cancel_recv`]).
    Recv {
        /// The socket the receive was submitted on.
        socket: u64,
        /// The buffer node, returned to the caller.
        node: Node,
        /// The offset the receive was submitted with.
        offset: usize,
        /// Bytes received, or why the operation ended.
        result: Result<usize, NetError>,
    },
    /// A [`CompletionRing::send_node`] finished. `Ok` means the node's
    /// payload was **fully** transmitted — short writes are resumed
    /// inside the ring, never surfaced. `Err` reports a dead socket
    /// with the unsent node returned.
    Sent {
        /// The socket the send was submitted on.
        socket: u64,
        /// The transmitted (or abandoned) node, returned to the caller.
        node: Node,
        /// Success, or why transmission stopped.
        result: Result<(), NetError>,
    },
}

/// A per-consumer submission/completion engine.
///
/// Each consumer (READER, WRITER, ACCEPTER) drives its own ring, so
/// completions are never stolen between actors. The consumer *submits*
/// operations (with their buffers) and later *reaps* their completions.
/// Three implementations exist: an io_uring instance (`UringBackend`),
/// an epoll reactor that performs the I/O on each readiness edge
/// (`EpollBackend`), and a polled ring that retries every armed
/// operation once per reap (`SimNet`, `TcpLoopback`, and `UringBackend`
/// when the kernel refuses a ring).
///
/// At most one receive and one send may be in flight per socket per
/// ring (the actors' natural discipline); a second submission fails
/// with [`NetError::WouldBlock`]. Submissions are *published* locally
/// and acted on by the next [`CompletionRing::reap`]; with io_uring one
/// `io_uring_enter` covers the whole batch, and a reap that finds
/// already-posted completions costs **zero** syscalls.
pub trait CompletionRing: Send + fmt::Debug {
    /// Keep accepting on `listener`, posting [`Completion::Accepted`]
    /// per connection until cancelled or [`Completion::AcceptFailed`].
    /// io_uring uses multishot accept where the kernel supports it,
    /// transparent oneshot re-arm otherwise. Idempotent while armed.
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for an unknown listener,
    /// [`NetError::TrustedDomain`] from enclave code.
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError>;

    /// Stop accepting on `listener`. Unknown ids are a no-op. Already
    /// accepted-but-unreaped connections still surface as
    /// [`Completion::Accepted`] (close them if unwanted).
    fn cancel_accept(&mut self, listener: ListenerId);

    /// Submit one receive on `socket` into `node` at byte `offset`
    /// (room above the caller's frame header). The node is pinned
    /// inside the ring until its [`Completion::Recv`] is reaped.
    ///
    /// # Errors
    ///
    /// The node is handed back with [`NetError::BadSocket`] (unknown
    /// socket — a polled ring reports it in the completion instead),
    /// [`NetError::WouldBlock`] (a receive is already in flight), or
    /// [`NetError::TrustedDomain`].
    fn recv_into(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)>;

    /// Cancel the in-flight receive on `socket`, if any. The node comes
    /// back through [`Completion::Recv`] — with real data if the
    /// receive won the race, as `Err(`[`NetError::Canceled`]`)`
    /// otherwise. No-op when nothing is in flight.
    fn cancel_recv(&mut self, socket: SocketId);

    /// Submit the transmission of `node.bytes()[offset..]` on `socket`.
    /// The ring owns the node until [`Completion::Sent`], resuming
    /// short writes internally so per-socket ordering holds as long as
    /// the caller serializes sends per socket (one in flight each).
    ///
    /// # Errors
    ///
    /// The node is handed back with [`NetError::BadSocket`],
    /// [`NetError::WouldBlock`] (a send is already in flight on this
    /// socket), or [`NetError::TrustedDomain`].
    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)>;

    /// Flush pending submissions and reap finished completions into
    /// `out` (appended), blocking up to `timeout` when it is not zero
    /// and nothing has completed yet. Returns how many completions were
    /// appended; `0` on timeout or a [`CompletionRing::waker`] wake.
    /// The whole call issues **at most one** kernel wait
    /// (`io_uring_enter` / `epoll_wait`); a polled ring instead sleeps
    /// once, for at most 200 µs, before polling.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on ring failure, [`NetError::TrustedDomain`]
    /// from enclave code.
    fn reap(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError>;

    /// A handle that interrupts a concurrent blocking
    /// [`CompletionRing::reap`] from any thread; register it with the
    /// runtime's [`eactors::wake::WakeHub`] so message enqueues wake a
    /// parked consumer. A wake that lands while nobody waits is not
    /// lost: the next blocking reap returns early.
    fn waker(&self) -> Arc<dyn HubWaker>;

    /// Bind the ring's counters into `registry` (io_uring:
    /// `net_sqe_submitted`, `net_cqe_reaped`, `net_enter_syscalls` and
    /// the `net_uring_batch` completion-batch histogram). Rings of one
    /// deployment share the named atomics.
    fn bind_obs(&mut self, _registry: &MetricsRegistry) {}
}
