//! The simulated TCP substrate.
//!
//! An in-process "kernel TCP/IP stack": listeners with backlogs, socket
//! pairs with bounded byte buffers, non-blocking semantics. Every
//! operation charges the platform's syscall cost and is rejected when
//! issued from enclave code, reproducing why EActors runs its network
//! actors untrusted. Benchmarks use it to emulate hundreds of clients
//! deterministically without exhausting OS sockets.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_sim::sync::Mutex;
use sgx_sim::{current_domain, CostHandle, FaultPlan};

use crate::backend::{CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId};
use crate::polled::PolledRing;

/// Default per-socket receive buffer (matches a typical kernel default).
pub const DEFAULT_SOCKET_BUFFER: usize = 64 * 1024;

/// Failpoint site names consulted by [`SimNet`] when built
/// [`SimNet::with_faults`]. Arm them on a [`FaultPlan`] to script network
/// failures: refused connections and sockets dropped mid-stream.
pub mod failpoints {
    /// `connect` is refused even though a listener exists.
    pub const SIM_CONNECT: &str = "enet.sim.connect";
    /// `send` drops the socket pair (connection reset).
    pub const SIM_SEND: &str = "enet.sim.send";
    /// `recv` drops the socket pair (connection reset).
    pub const SIM_RECV: &str = "enet.sim.recv";
}

#[derive(Debug)]
struct SocketState {
    peer: u64,
    rx: std::collections::VecDeque<u8>,
    /// Peer closed; EOF once `rx` drains.
    peer_closed: bool,
    /// This side closed; operations fail.
    closed: bool,
}

#[derive(Debug, Default)]
struct ListenerState {
    backlog: VecDeque<u64>,
}

/// The in-process network. Cheap to clone; all handles share state.
///
/// # Examples
///
/// ```
/// use enet::{NetBackend, RecvOutcome, SimNet};
/// use sgx_sim::Platform;
///
/// let net = SimNet::new(Platform::builder().build().costs());
/// let listener = net.listen(5222)?;
/// let client = net.connect(5222)?;
/// let server = net.accept(listener)?.expect("pending connection");
///
/// net.send(client, b"hello")?;
/// let mut buf = [0u8; 16];
/// assert_eq!(net.recv(server, &mut buf)?, RecvOutcome::Data(5));
/// assert_eq!(&buf[..5], b"hello");
/// # Ok::<(), enet::NetError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SimNet {
    inner: Arc<SimNetInner>,
}

#[derive(Debug)]
struct SimNetInner {
    costs: CostHandle,
    buffer_size: usize,
    faults: FaultPlan,
    next_id: AtomicU64,
    listeners: Mutex<HashMap<u64, ListenerState>>,
    ports: Mutex<HashMap<u16, u64>>,
    sockets: Mutex<HashMap<u64, SocketState>>,
}

impl SimNet {
    /// A fresh network charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        Self::with_buffer_size(costs, DEFAULT_SOCKET_BUFFER)
    }

    /// A network with a custom per-socket receive buffer size.
    pub fn with_buffer_size(costs: CostHandle, buffer_size: usize) -> Self {
        Self::build(costs, buffer_size, FaultPlan::default())
    }

    /// A network consulting `faults` (typically `platform.faults()`) at
    /// the [`failpoints`] sites, so tests can script refused connections
    /// and dropped sockets deterministically.
    pub fn with_faults(costs: CostHandle, faults: FaultPlan) -> Self {
        Self::build(costs, DEFAULT_SOCKET_BUFFER, faults)
    }

    fn build(costs: CostHandle, buffer_size: usize, faults: FaultPlan) -> Self {
        SimNet {
            inner: Arc::new(SimNetInner {
                costs,
                buffer_size,
                faults,
                next_id: AtomicU64::new(1),
                listeners: Mutex::new(HashMap::new()),
                ports: Mutex::new(HashMap::new()),
                sockets: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Tear down a socket pair as a connection reset would: the socket
    /// vanishes, the peer sees EOF after draining.
    fn drop_socket(&self, socket: u64) {
        let mut sockets = self.inner.sockets.lock();
        if let Some(s) = sockets.remove(&socket) {
            if let Some(peer) = sockets.get_mut(&s.peer) {
                peer.peer_closed = true;
            }
        }
    }

    /// Sockets currently open (both ends counted).
    pub fn open_sockets(&self) -> usize {
        self.inner.sockets.lock().len()
    }

    fn syscall(&self) -> Result<(), NetError> {
        if current_domain().is_trusted() {
            return Err(NetError::TrustedDomain);
        }
        self.inner.costs.charge_syscall();
        Ok(())
    }

    fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

impl NetBackend for SimNet {
    fn listen(&self, port: u16) -> Result<ListenerId, NetError> {
        self.syscall()?;
        let mut ports = self.inner.ports.lock();
        if ports.contains_key(&port) {
            return Err(NetError::PortInUse(port));
        }
        let id = self.fresh_id();
        ports.insert(port, id);
        self.inner
            .listeners
            .lock()
            .insert(id, ListenerState::default());
        Ok(ListenerId(id))
    }

    fn connect(&self, port: u16) -> Result<SocketId, NetError> {
        self.syscall()?;
        if self.inner.faults.should_fail(failpoints::SIM_CONNECT) {
            return Err(NetError::Injected(failpoints::SIM_CONNECT));
        }
        let listener = *self
            .inner
            .ports
            .lock()
            .get(&port)
            .ok_or(NetError::ConnectionRefused(port))?;
        let client = self.fresh_id();
        let server = self.fresh_id();
        {
            let mut sockets = self.inner.sockets.lock();
            sockets.insert(
                client,
                SocketState {
                    peer: server,
                    rx: std::collections::VecDeque::new(),
                    peer_closed: false,
                    closed: false,
                },
            );
            sockets.insert(
                server,
                SocketState {
                    peer: client,
                    rx: std::collections::VecDeque::new(),
                    peer_closed: false,
                    closed: false,
                },
            );
        }
        match self.inner.listeners.lock().get_mut(&listener) {
            Some(l) => l.backlog.push_back(server),
            None => {
                // Listener raced away; tear the pair down.
                let mut sockets = self.inner.sockets.lock();
                sockets.remove(&client);
                sockets.remove(&server);
                return Err(NetError::ConnectionRefused(port));
            }
        }
        Ok(SocketId(client))
    }

    fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError> {
        self.syscall()?;
        let mut listeners = self.inner.listeners.lock();
        let l = listeners.get_mut(&listener.0).ok_or(NetError::BadSocket)?;
        Ok(l.backlog.pop_front().map(SocketId))
    }

    fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError> {
        self.syscall()?;
        if self.inner.faults.should_fail(failpoints::SIM_SEND) {
            self.drop_socket(socket.0);
            return Err(NetError::Injected(failpoints::SIM_SEND));
        }
        let mut sockets = self.inner.sockets.lock();
        let peer_id = {
            let s = sockets.get(&socket.0).ok_or(NetError::BadSocket)?;
            if s.closed {
                return Err(NetError::BadSocket);
            }
            if s.peer_closed {
                // Writing to a half-closed pipe.
                return Err(NetError::BadSocket);
            }
            s.peer
        };
        let buffer_size = self.inner.buffer_size;
        let peer = match sockets.get_mut(&peer_id) {
            Some(p) => p,
            None => return Err(NetError::BadSocket),
        };
        let room = buffer_size.saturating_sub(peer.rx.len());
        let n = room.min(data.len());
        peer.rx.extend(&data[..n]);
        Ok(n)
    }

    fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError> {
        self.syscall()?;
        if self.inner.faults.should_fail(failpoints::SIM_RECV) {
            self.drop_socket(socket.0);
            return Err(NetError::Injected(failpoints::SIM_RECV));
        }
        let mut sockets = self.inner.sockets.lock();
        let s = sockets.get_mut(&socket.0).ok_or(NetError::BadSocket)?;
        if s.closed {
            return Err(NetError::BadSocket);
        }
        if s.rx.is_empty() {
            return Ok(if s.peer_closed {
                RecvOutcome::Eof
            } else {
                RecvOutcome::WouldBlock
            });
        }
        let n = s.rx.len().min(buf.len());
        for (dst, src) in buf[..n].iter_mut().zip(s.rx.drain(..n)) {
            *dst = src;
        }
        Ok(RecvOutcome::Data(n))
    }

    fn close(&self, socket: SocketId) -> Result<(), NetError> {
        self.syscall()?;
        let mut sockets = self.inner.sockets.lock();
        let peer_id = match sockets.remove(&socket.0) {
            Some(s) => s.peer,
            None => return Err(NetError::BadSocket),
        };
        if let Some(peer) = sockets.get_mut(&peer_id) {
            peer.peer_closed = true;
        }
        Ok(())
    }

    fn close_listener(&self, listener: ListenerId) -> Result<(), NetError> {
        self.syscall()?;
        let mut listeners = self.inner.listeners.lock();
        listeners.remove(&listener.0).ok_or(NetError::BadSocket)?;
        self.inner
            .ports
            .lock()
            .retain(|_, &mut id| id != listener.0);
        Ok(())
    }

    fn completion_ring(&self) -> Box<dyn CompletionRing> {
        Box::new(PolledRing::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgx_sim::{CostModel, Platform};

    fn net() -> SimNet {
        SimNet::new(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        )
    }

    #[test]
    fn connect_accept_send_recv() {
        let n = net();
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let s = n.accept(l).unwrap().unwrap();
        assert_eq!(n.accept(l).unwrap(), None);

        assert_eq!(n.send(c, b"ping").unwrap(), 4);
        let mut buf = [0u8; 8];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(4));
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::WouldBlock);

        // Bidirectional.
        assert_eq!(n.send(s, b"pong").unwrap(), 4);
        assert_eq!(n.recv(c, &mut buf).unwrap(), RecvOutcome::Data(4));
    }

    #[test]
    fn port_conflicts_and_refusals() {
        let n = net();
        n.listen(80).unwrap();
        assert!(matches!(n.listen(80), Err(NetError::PortInUse(80))));
        assert!(matches!(
            n.connect(81),
            Err(NetError::ConnectionRefused(81))
        ));
    }

    #[test]
    fn close_propagates_eof_after_drain() {
        let n = net();
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let s = n.accept(l).unwrap().unwrap();
        n.send(c, b"bye").unwrap();
        n.close(c).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(3));
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Eof);
        // Sending to a closed peer fails.
        assert!(n.send(s, b"x").is_err());
        n.close(s).unwrap();
        assert_eq!(n.open_sockets(), 0);
    }

    #[test]
    fn bounded_buffer_applies_backpressure() {
        let n = SimNet::with_buffer_size(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
            8,
        );
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let _s = n.accept(l).unwrap().unwrap();
        assert_eq!(n.send(c, b"12345").unwrap(), 5);
        assert_eq!(n.send(c, b"67890").unwrap(), 3); // only 3 bytes of room
        assert_eq!(n.send(c, b"x").unwrap(), 0); // full
    }

    #[test]
    fn syscalls_from_enclave_rejected() {
        let p = Platform::builder().cost_model(CostModel::zero()).build();
        let n = SimNet::new(p.costs());
        let e = p.create_enclave("svc", 0).unwrap();
        let err = e.ecall(|| n.listen(80));
        assert!(matches!(err, Err(NetError::TrustedDomain)));
    }

    #[test]
    fn syscall_costs_are_charged() {
        let p = Platform::builder().build();
        let n = SimNet::new(p.costs());
        let before = p.stats().syscalls();
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        n.accept(l).unwrap();
        n.send(c, b"x").unwrap();
        assert_eq!(p.stats().syscalls() - before, 4);
    }

    #[test]
    fn operations_on_bad_ids_fail() {
        let n = net();
        let mut buf = [0u8; 4];
        assert!(matches!(
            n.send(SocketId(999), b"x"),
            Err(NetError::BadSocket)
        ));
        assert!(matches!(
            n.recv(SocketId(999), &mut buf),
            Err(NetError::BadSocket)
        ));
        assert!(matches!(n.close(SocketId(999)), Err(NetError::BadSocket)));
        assert!(matches!(
            n.accept(ListenerId(999)),
            Err(NetError::BadSocket)
        ));
        assert!(matches!(
            n.close_listener(ListenerId(999)),
            Err(NetError::BadSocket)
        ));
    }

    #[test]
    fn injected_send_fault_drops_the_socket() {
        use sgx_sim::FaultPlan;
        let plan = FaultPlan::new();
        let n = SimNet::with_faults(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
            plan.clone(),
        );
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let s = n.accept(l).unwrap().unwrap();
        plan.fail_nth(failpoints::SIM_SEND, 2);
        assert_eq!(n.send(c, b"ok").unwrap(), 2);
        assert!(matches!(
            n.send(c, b"boom"),
            Err(NetError::Injected(failpoints::SIM_SEND))
        ));
        // The socket is gone; the peer drains then sees EOF.
        assert!(matches!(n.send(c, b"x"), Err(NetError::BadSocket)));
        let mut buf = [0u8; 8];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(2));
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Eof);
        assert_eq!(plan.trips(failpoints::SIM_SEND), 1);
    }

    #[test]
    fn injected_connect_fault_refuses_once_then_recovers() {
        use sgx_sim::FaultPlan;
        let plan = FaultPlan::new();
        let n = SimNet::with_faults(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
            plan.clone(),
        );
        n.listen(80).unwrap();
        plan.fail_nth(failpoints::SIM_CONNECT, 1);
        assert!(matches!(
            n.connect(80),
            Err(NetError::Injected(failpoints::SIM_CONNECT))
        ));
        n.connect(80).unwrap();
    }

    #[test]
    fn injected_recv_fault_resets_the_connection() {
        use sgx_sim::FaultPlan;
        let plan = FaultPlan::new();
        let n = SimNet::with_faults(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
            plan.clone(),
        );
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let _s = n.accept(l).unwrap().unwrap();
        plan.fail_nth(failpoints::SIM_RECV, 1);
        let mut buf = [0u8; 8];
        assert!(matches!(
            n.recv(c, &mut buf),
            Err(NetError::Injected(failpoints::SIM_RECV))
        ));
        assert!(matches!(n.recv(c, &mut buf), Err(NetError::BadSocket)));
    }

    #[test]
    fn closed_listener_frees_port() {
        let n = net();
        let l = n.listen(80).unwrap();
        n.close_listener(l).unwrap();
        n.listen(80).unwrap();
    }

    #[test]
    fn partial_recv_into_small_buffer() {
        let n = net();
        let l = n.listen(80).unwrap();
        let c = n.connect(80).unwrap();
        let s = n.accept(l).unwrap().unwrap();
        n.send(c, b"abcdef").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(4));
        assert_eq!(&buf, b"abcd");
        assert_eq!(n.recv(s, &mut buf).unwrap(), RecvOutcome::Data(2));
        assert_eq!(&buf[..2], b"ef");
    }
}
