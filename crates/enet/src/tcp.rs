//! A real-socket backend over `std::net` on localhost, and the socket
//! table every real-socket backend shares.
//!
//! Functionally interchangeable with [`crate::SimNet`]; useful for
//! demonstrating that the system actors drive genuine kernel sockets.
//! Benchmarks use the simulated backend instead, for determinism and
//! scale. `EpollBackend` and `UringBackend` hold a [`TcpLoopback`] for
//! their listen/connect/accept/send/recv/close calls and add only their
//! completion ring; `TcpLoopback` itself hands out a polled ring.
//!
//! # Locking discipline
//!
//! The id→socket maps are behind mutexes, but no lock is ever held
//! across a kernel syscall: handles are stored as [`Arc`]s and cloned
//! out under the lock, then the guard is dropped before `read`/`write`/
//! `accept` run. One peer stalling in the kernel therefore cannot
//! serialize the other network actors — and a concurrent `close` merely
//! drops the map's `Arc`, so the fd stays alive (and its number cannot
//! be recycled) until the in-flight syscall's clone is gone.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sgx_sim::sync::Mutex;
use sgx_sim::{current_domain, CostHandle};

use crate::backend::{CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId};
use crate::ioutil::retry_intr;
use crate::polled::PolledRing;

/// Real non-blocking TCP sockets bound to 127.0.0.1.
///
/// The `port` passed to [`NetBackend::listen`]/[`NetBackend::connect`] is
/// a *logical* port; the OS assigns an ephemeral port and the mapping is
/// kept internally, so tests never collide with other processes.
#[derive(Debug, Clone)]
pub struct TcpLoopback {
    pub(crate) table: Arc<SocketTable>,
}

/// The id→socket table behind every real-socket backend.
#[derive(Debug)]
pub(crate) struct SocketTable {
    costs: CostHandle,
    next_id: AtomicU64,
    /// id -> (listener, logical port) — the port rides along so
    /// `close_listener` can free the logical mapping.
    listeners: Mutex<HashMap<u64, (Arc<TcpListener>, u16)>>,
    ports: Mutex<HashMap<u16, u16>>, // logical port -> OS port
    sockets: Mutex<HashMap<u64, Arc<TcpStream>>>,
    /// Forced kernel buffer size for new sockets (tests use a small one
    /// to provoke short writes; Linux only).
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    buf_bytes: Option<usize>,
}

impl SocketTable {
    /// Charge one syscall, refusing enclave callers.
    pub(crate) fn syscall(&self) -> Result<(), NetError> {
        if current_domain().is_trusted() {
            return Err(NetError::TrustedDomain);
        }
        self.costs.charge_syscall();
        Ok(())
    }

    pub(crate) fn socket(&self, id: SocketId) -> Result<Arc<TcpStream>, NetError> {
        self.sockets
            .lock()
            .get(&id.0)
            .cloned()
            .ok_or(NetError::BadSocket)
    }

    pub(crate) fn listener(&self, id: ListenerId) -> Result<Arc<TcpListener>, NetError> {
        self.listeners
            .lock()
            .get(&id.0)
            .map(|(l, _)| l.clone())
            .ok_or(NetError::BadSocket)
    }

    /// Make `stream` nonblocking and enter it under a fresh id.
    pub(crate) fn adopt(&self, stream: TcpStream) -> Result<u64, NetError> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        #[cfg(target_os = "linux")]
        if let Some(bytes) = self.buf_bytes {
            use std::os::unix::io::AsRawFd;
            crate::ffi::set_buf_sizes(stream.as_raw_fd(), bytes)?;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sockets.lock().insert(id, Arc::new(stream));
        Ok(id)
    }
}

impl TcpLoopback {
    /// A fresh backend charging syscalls through `costs`.
    pub fn new(costs: CostHandle) -> Self {
        Self::with_buf_bytes(costs, None)
    }

    /// A backend whose sockets get roughly `buf_bytes` of kernel send
    /// and receive buffer (`None`: the kernel default).
    pub(crate) fn with_buf_bytes(costs: CostHandle, buf_bytes: Option<usize>) -> Self {
        TcpLoopback {
            table: Arc::new(SocketTable {
                costs,
                next_id: AtomicU64::new(1),
                listeners: Mutex::new(HashMap::new()),
                ports: Mutex::new(HashMap::new()),
                sockets: Mutex::new(HashMap::new()),
                buf_bytes,
            }),
        }
    }
}

/// Implement the socket calls of [`NetBackend`] by delegating to the
/// backend's `tcp: TcpLoopback` field; the caller adds
/// `completion_ring`.
macro_rules! delegate_sockets {
    () => {
        fn listen(&self, port: u16) -> Result<ListenerId, NetError> {
            self.tcp.listen(port)
        }
        fn connect(&self, port: u16) -> Result<SocketId, NetError> {
            self.tcp.connect(port)
        }
        fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError> {
            self.tcp.accept(listener)
        }
        fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError> {
            self.tcp.send(socket, data)
        }
        fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError> {
            self.tcp.recv(socket, buf)
        }
        fn close(&self, socket: SocketId) -> Result<(), NetError> {
            self.tcp.close(socket)
        }
        fn close_listener(&self, listener: ListenerId) -> Result<(), NetError> {
            self.tcp.close_listener(listener)
        }
    };
}
#[cfg(target_os = "linux")]
pub(crate) use delegate_sockets;

impl NetBackend for TcpLoopback {
    fn listen(&self, port: u16) -> Result<ListenerId, NetError> {
        let t = &self.table;
        t.syscall()?;
        let mut ports = t.ports.lock();
        if ports.contains_key(&port) {
            return Err(NetError::PortInUse(port));
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        listener.set_nonblocking(true)?;
        let os_port = listener.local_addr()?.port();
        ports.insert(port, os_port);
        let id = t.next_id.fetch_add(1, Ordering::Relaxed);
        t.listeners.lock().insert(id, (Arc::new(listener), port));
        Ok(ListenerId(id))
    }

    fn connect(&self, port: u16) -> Result<SocketId, NetError> {
        let t = &self.table;
        t.syscall()?;
        let os_port = *t
            .ports
            .lock()
            .get(&port)
            .ok_or(NetError::ConnectionRefused(port))?;
        let stream = retry_intr(|| TcpStream::connect((Ipv4Addr::LOCALHOST, os_port)))
            .map_err(|_| NetError::ConnectionRefused(port))?;
        t.adopt(stream).map(SocketId)
    }

    fn accept(&self, listener: ListenerId) -> Result<Option<SocketId>, NetError> {
        self.table.syscall()?;
        let l = self.table.listener(listener)?;
        match retry_intr(|| l.accept()) {
            Ok((stream, _)) => self.table.adopt(stream).map(|id| Some(SocketId(id))),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn send(&self, socket: SocketId, data: &[u8]) -> Result<usize, NetError> {
        self.table.syscall()?;
        let s = self.table.socket(socket)?;
        match retry_intr(|| (&*s).write(data)) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e.into()),
        }
    }

    fn recv(&self, socket: SocketId, buf: &mut [u8]) -> Result<RecvOutcome, NetError> {
        self.table.syscall()?;
        let s = self.table.socket(socket)?;
        match retry_intr(|| (&*s).read(buf)) {
            Ok(0) => Ok(RecvOutcome::Eof),
            Ok(n) => Ok(RecvOutcome::Data(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(RecvOutcome::WouldBlock),
            Err(e) => Err(e.into()),
        }
    }

    fn close(&self, socket: SocketId) -> Result<(), NetError> {
        self.table.syscall()?;
        let stream = self
            .table
            .sockets
            .lock()
            .remove(&socket.0)
            .ok_or(NetError::BadSocket)?;
        // Ring operations in flight hold their own Arc to this stream,
        // keeping the fd alive past this call; shutting the socket down
        // makes those operations complete (EOF / EPIPE) promptly instead
        // of pinning a half-dead connection.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        Ok(())
    }

    fn close_listener(&self, listener: ListenerId) -> Result<(), NetError> {
        self.table.syscall()?;
        let (_listener, logical_port) = self
            .table
            .listeners
            .lock()
            .remove(&listener.0)
            .ok_or(NetError::BadSocket)?;
        // Rings may still hold the listener open; shutting it down ends
        // their accept streams (`AcceptFailed`).
        #[cfg(target_os = "linux")]
        {
            use std::os::unix::io::AsRawFd;
            crate::ffi::shutdown_listener(_listener.as_raw_fd());
        }
        // Free the logical port mapping so the port can be re-listened.
        self.table.ports.lock().remove(&logical_port);
        Ok(())
    }

    fn completion_ring(&self) -> Box<dyn CompletionRing> {
        Box::new(PolledRing::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    use sgx_sim::{CostModel, Platform};

    fn net() -> TcpLoopback {
        TcpLoopback::new(
            Platform::builder()
                .cost_model(CostModel::zero())
                .build()
                .costs(),
        )
    }

    fn accept_one(n: &TcpLoopback, l: ListenerId) -> SocketId {
        loop {
            if let Some(s) = n.accept(l).unwrap() {
                break s;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn real_sockets_round_trip() {
        let n = net();
        let l = n.listen(5222).unwrap();
        let c = n.connect(5222).unwrap();
        // Accept may need a beat on a real kernel.
        let s = accept_one(&n, l);
        assert!(n.send(c, b"hello").unwrap() > 0);
        let mut buf = [0u8; 16];
        let got = loop {
            match n.recv(s, &mut buf).unwrap() {
                RecvOutcome::Data(k) => break k,
                RecvOutcome::WouldBlock => std::thread::yield_now(),
                RecvOutcome::Eof => panic!("unexpected eof"),
            }
        };
        assert_eq!(&buf[..got], b"hello");
        n.close(c).unwrap();
        n.close(s).unwrap();
        n.close_listener(l).unwrap();
    }

    #[test]
    fn closed_logical_port_can_be_relistened() {
        let n = net();
        let l1 = n.listen(5222).unwrap();
        n.close_listener(l1).unwrap();
        // Regression: the logical→OS port mapping used to leak, so this
        // second listen failed with PortInUse forever.
        let l2 = n.listen(5222).unwrap();
        let c = n.connect(5222).unwrap();
        let s = accept_one(&n, l2);
        n.close(c).unwrap();
        n.close(s).unwrap();
        n.close_listener(l2).unwrap();
        // Stale connects after the final close are refused again.
        assert!(matches!(
            n.connect(5222),
            Err(NetError::ConnectionRefused(5222))
        ));
    }

    /// Regression for the global-mutex-across-syscall bug: while one
    /// thread hammers a wedged socket (peer buffer full, never drained),
    /// an independent connection must still complete round-trips.
    #[test]
    fn stalled_socket_does_not_serialize_other_connections() {
        let n = net();
        let l = n.listen(7000).unwrap();

        // Connection A: fill the peer's buffers until send returns 0,
        // then keep retrying from a background thread.
        let a = n.connect(7000).unwrap();
        let _a_srv = accept_one(&n, l);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hammer = {
            let n = n.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let chunk = [0u8; 64 * 1024];
                while !stop.load(Ordering::Relaxed) {
                    // Never drained by anyone: once both socket buffers
                    // fill this returns 0 every time.
                    let _ = n.send(a, &chunk);
                }
            })
        };

        // Connection B: must make progress concurrently.
        let b = n.connect(7000).unwrap();
        let b_srv = accept_one(&n, l);
        let deadline = Instant::now() + Duration::from_secs(10);
        for i in 0..100u8 {
            let msg = [i; 32];
            while n.send(b, &msg).unwrap() == 0 {
                assert!(Instant::now() < deadline, "writer starved by stalled peer");
                std::thread::yield_now();
            }
            let mut buf = [0u8; 32];
            let mut got = 0;
            while got < 32 {
                match n.recv(b_srv, &mut buf[got..]).unwrap() {
                    RecvOutcome::Data(k) => got += k,
                    RecvOutcome::WouldBlock => {
                        assert!(Instant::now() < deadline, "reader starved by stalled peer");
                        std::thread::yield_now();
                    }
                    RecvOutcome::Eof => panic!("unexpected eof"),
                }
            }
            assert_eq!(buf, msg);
        }

        stop.store(true, Ordering::Relaxed);
        hammer.join().unwrap();
    }

    #[test]
    fn close_while_peer_syscall_in_flight_is_safe() {
        // The map entry goes away immediately, but the Arc handed to an
        // in-flight syscall keeps the fd alive; subsequent calls on the
        // closed id fail cleanly.
        let n = net();
        let l = n.listen(7100).unwrap();
        let c = n.connect(7100).unwrap();
        let s = accept_one(&n, l);
        let held = n.table.socket(c).unwrap();
        n.close(c).unwrap();
        assert!(matches!(n.send(c, b"x"), Err(NetError::BadSocket)));
        // The held Arc still points at a live (shut down) fd.
        assert!(held.local_addr().is_ok());
        drop(held);
        n.close(s).unwrap();
        n.close_listener(l).unwrap();
    }

    #[test]
    fn enclave_code_cannot_use_real_sockets() {
        let p = Platform::builder().cost_model(CostModel::zero()).build();
        let n = TcpLoopback::new(p.costs());
        let e = p.create_enclave("svc", 0).unwrap();
        assert!(matches!(
            e.ecall(|| n.listen(1)),
            Err(NetError::TrustedDomain)
        ));
    }
}
