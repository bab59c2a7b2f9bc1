//! The polled completion ring: [`CompletionRing`] over any backend's
//! non-blocking `accept`/`recv`/`send`.
//!
//! [`crate::SimNet`] and [`crate::TcpLoopback`] have no kernel
//! multiplexer, and `UringBackend` falls back here when the kernel
//! refuses a ring. Each [`CompletionRing::reap`] tries every armed
//! operation once — one `recv` per armed receive, one `send` per parked
//! send, and an `accept` loop per watched listener until its backlog is
//! empty — so a pass costs the backend exactly the syscalls a polling
//! consumer would issue. Sends are tried once at submission, so a frame
//! that fits leaves in the same pass it arrives.
//!
//! A blocking reap sleeps **once**, for at most [`MAX_SLEEP`], before it
//! polls; the ring's waker ends the sleep early. 200 µs matches the
//! worker's default park timeout, so an idle polled consumer answers as
//! fast as a parked worker would.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use eactors::arena::Node;
use eactors::wake::HubWaker;

use crate::backend::{
    untrusted, Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId,
};

/// Longest single sleep of a blocking reap.
const MAX_SLEEP: Duration = Duration::from_micros(200);

/// One armed receive or parked send. The node is an `Option` only so a
/// completing operation can move it out from inside `HashMap::retain`.
#[derive(Debug)]
struct Armed {
    node: Option<Node>,
    /// Receive: where the data goes. Send: the next byte to transmit.
    offset: usize,
}

/// A condition-variable waker for the one sleep of a blocking reap.
#[derive(Debug, Default)]
struct SleepWaker {
    woken: Mutex<bool>,
    cond: Condvar,
}

impl SleepWaker {
    /// Sleep up to `timeout` unless a wake is already pending; consume
    /// the wake either way.
    fn sleep(&self, timeout: Duration) {
        let mut woken = self.woken.lock().unwrap_or_else(|e| e.into_inner());
        if !*woken {
            woken = self
                .cond
                .wait_timeout(woken, timeout)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        *woken = false;
    }
}

impl HubWaker for SleepWaker {
    fn wake(&self) {
        *self.woken.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cond.notify_one();
    }
}

/// A [`CompletionRing`] that polls the backend `B` (see module docs).
#[derive(Debug)]
pub(crate) struct PolledRing<B> {
    net: B,
    recvs: HashMap<u64, Armed>,
    sends: HashMap<u64, Armed>,
    accepts: Vec<u64>,
    /// Completions decided outside a reap (cancellations, accepts and
    /// sends that finished at submission), handed out by the next reap.
    posted: Vec<Completion>,
    waker: Arc<SleepWaker>,
}

impl<B: NetBackend> PolledRing<B> {
    pub(crate) fn new(net: B) -> Self {
        PolledRing {
            net,
            recvs: HashMap::new(),
            sends: HashMap::new(),
            accepts: Vec::new(),
            posted: Vec::new(),
            waker: Arc::new(SleepWaker::default()),
        }
    }

    /// Drain every watched listener's backlog; a failing listener ends
    /// its watch with [`Completion::AcceptFailed`].
    fn poll_accepts(&mut self, out: &mut Vec<Completion>) {
        let net = &self.net;
        self.accepts.retain(|&listener| loop {
            match net.accept(ListenerId(listener)) {
                Ok(Some(SocketId(socket))) => out.push(Completion::Accepted { listener, socket }),
                Ok(None) => return true,
                Err(_) => {
                    out.push(Completion::AcceptFailed { listener });
                    return false;
                }
            }
        });
    }

    /// One `recv` per armed receive.
    fn poll_recvs(&mut self, out: &mut Vec<Completion>) {
        let net = &self.net;
        self.recvs.retain(|&socket, op| {
            let node = op.node.as_mut().expect("armed receive holds its node");
            let result = match net.recv(SocketId(socket), &mut node.buffer_mut()[op.offset..]) {
                Ok(RecvOutcome::WouldBlock) => return true,
                Ok(RecvOutcome::Data(n)) => Ok(n),
                Ok(RecvOutcome::Eof) => Ok(0),
                Err(e) => Err(e),
            };
            out.push(Completion::Recv {
                socket,
                node: op.node.take().expect("armed receive holds its node"),
                offset: op.offset,
                result,
            });
            false
        });
    }

    /// One `send` per parked send.
    fn poll_sends(&mut self, out: &mut Vec<Completion>) {
        let net = &self.net;
        self.sends.retain(|&socket, op| {
            let node = op.node.as_ref().expect("parked send holds its node");
            let result = match net.send(SocketId(socket), &node.bytes()[op.offset..]) {
                Ok(n) if op.offset + n < node.len() => {
                    op.offset += n;
                    return true;
                }
                Ok(_) => Ok(()),
                Err(e) => Err(e),
            };
            out.push(Completion::Sent {
                socket,
                node: op.node.take().expect("parked send holds its node"),
                result,
            });
            false
        });
    }
}

impl<B: NetBackend> CompletionRing for PolledRing<B> {
    fn accept(&mut self, listener: ListenerId) -> Result<(), NetError> {
        if self.accepts.contains(&listener.0) {
            return Ok(());
        }
        // The first accept doubles as the existence check.
        if let Some(SocketId(socket)) = self.net.accept(listener)? {
            let listener = listener.0;
            self.posted.push(Completion::Accepted { listener, socket });
        }
        self.accepts.push(listener.0);
        Ok(())
    }

    fn cancel_accept(&mut self, listener: ListenerId) {
        self.accepts.retain(|&l| l != listener.0);
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
        if self.recvs.contains_key(&socket.0) || offset >= node.arena().payload_size() {
            return Err((NetError::WouldBlock, node));
        }
        let node = Some(node);
        self.recvs.insert(socket.0, Armed { node, offset });
        Ok(())
    }

    fn cancel_recv(&mut self, socket: SocketId) {
        if let Some(mut op) = self.recvs.remove(&socket.0) {
            self.posted.push(Completion::Recv {
                socket: socket.0,
                node: op.node.take().expect("armed receive holds its node"),
                offset: op.offset,
                result: Err(NetError::Canceled),
            });
        }
    }

    fn send_node(
        &mut self,
        socket: SocketId,
        node: Node,
        offset: usize,
    ) -> Result<(), (NetError, Node)> {
        if self.sends.contains_key(&socket.0) || offset >= node.len() {
            return Err((NetError::WouldBlock, node));
        }
        match self.net.send(socket, &node.bytes()[offset..]) {
            Err(e) => Err((e, node)),
            Ok(n) if offset + n == node.len() => {
                let (socket, result) = (socket.0, Ok(()));
                self.posted.push(Completion::Sent {
                    socket,
                    node,
                    result,
                });
                Ok(())
            }
            Ok(n) => {
                let (node, offset) = (Some(node), offset + n);
                self.sends.insert(socket.0, Armed { node, offset });
                Ok(())
            }
        }
    }

    fn reap(
        &mut self,
        out: &mut Vec<Completion>,
        timeout: Option<Duration>,
    ) -> Result<usize, NetError> {
        untrusted()?;
        let before = out.len();
        out.append(&mut self.posted);
        if out.len() == before && timeout.map_or(true, |t| !t.is_zero()) {
            self.waker
                .sleep(timeout.map_or(MAX_SLEEP, |t| t.min(MAX_SLEEP)));
        }
        self.poll_accepts(out);
        self.poll_recvs(out);
        self.poll_sends(out);
        Ok(out.len() - before)
    }

    fn waker(&self) -> Arc<dyn HubWaker> {
        self.waker.clone()
    }
}
