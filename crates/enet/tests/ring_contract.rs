//! Completion-ring conformance suite: one set of [`CompletionRing`]
//! contract checks, run identically against the ring of every backend —
//! the polled ring of `SimNet` and `TcpLoopback`, and (on Linux) the
//! epoll ring plus the io_uring ring where the kernel's probe succeeds.
//! The READER, WRITER and ACCEPTER drive nothing but this contract, so a
//! behaviour difference between rings is a bug in the ring.

use std::sync::Arc;
use std::time::{Duration, Instant};

use eactors::arena::{Arena, Node};
use enet::{
    Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SimNet, SocketId,
    TcpLoopback,
};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

fn backends() -> Vec<(&'static str, Arc<dyn NetBackend>)> {
    let mut v: Vec<(&'static str, Arc<dyn NetBackend>)> = Vec::new();
    v.push(("sim", Arc::new(SimNet::new(platform().costs()))));
    v.push(("tcp", Arc::new(TcpLoopback::new(platform().costs()))));
    #[cfg(target_os = "linux")]
    {
        v.push((
            "epoll",
            Arc::new(enet::EpollBackend::new(platform().costs())),
        ));
        match enet::UringBackend::probe() {
            Ok(()) => v.push((
                "uring",
                Arc::new(enet::UringBackend::new(platform().costs())),
            )),
            Err(reason) => eprintln!("skipping uring ring contract: {reason}"),
        }
    }
    v
}

/// Backends with tiny socket buffers, so one node takes many short
/// writes, with the byte total to push through each. `TcpLoopback` has
/// no buffer knob and is covered by volume.
fn small_buffer_backends() -> Vec<(&'static str, Arc<dyn NetBackend>, usize)> {
    let mut v: Vec<(&'static str, Arc<dyn NetBackend>, usize)> = Vec::new();
    let costs = || platform().costs();
    v.push((
        "sim",
        Arc::new(SimNet::with_buffer_size(costs(), 8)),
        4 * 1024,
    ));
    v.push(("tcp", Arc::new(TcpLoopback::new(costs())), 1024 * 1024));
    #[cfg(target_os = "linux")]
    {
        let epoll = enet::EpollBackend::with_buffer_size(costs(), 1);
        v.push(("epoll", Arc::new(epoll), 64 * 1024));
        if enet::UringBackend::probe().is_ok() {
            let uring = enet::UringBackend::with_buffer_size(costs(), 1);
            v.push(("uring", Arc::new(uring), 64 * 1024));
        }
    }
    v
}

/// A connected (client, server) pair on logical `port`.
fn pair(net: &dyn NetBackend, port: u16, name: &str) -> (ListenerId, SocketId, SocketId) {
    let l = net.listen(port).unwrap();
    let c = net.connect(port).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(s) = net.accept(l).unwrap() {
            return (l, c, s);
        }
        assert!(Instant::now() < deadline, "[{name}] accept timed out");
        std::thread::yield_now();
    }
}

/// Reap until one completion matching `pick` arrives; other completions
/// are kept in `out`.
fn reap_for<T>(
    ring: &mut dyn CompletionRing,
    out: &mut Vec<Completion>,
    name: &str,
    mut pick: impl FnMut(&Completion) -> Option<T>,
) -> (T, Completion) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(i) = out.iter().position(|c| pick(c).is_some()) {
            let c = out.remove(i);
            return (pick(&c).unwrap(), c);
        }
        ring.reap(out, Some(Duration::from_millis(20))).unwrap();
        assert!(Instant::now() < deadline, "[{name}] no matching completion");
    }
}

fn recv_result(c: &Completion, socket: SocketId) -> Option<Result<usize, String>> {
    match c {
        Completion::Recv {
            socket: s, result, ..
        } if *s == socket.0 => Some(result.as_ref().copied().map_err(|e| format!("{e:?}"))),
        _ => None,
    }
}

fn recv_node(c: Completion) -> (Node, usize) {
    match c {
        Completion::Recv { node, offset, .. } => (node, offset),
        other => panic!("not a receive: {other:?}"),
    }
}

/// Fill the peer's receive buffer (and our send buffer) so the next
/// send on `c` cannot complete until the peer reads.
fn wedge(net: &dyn NetBackend, c: SocketId) {
    let chunk = [0u8; 64 * 1024];
    let mut zero_streak = 0;
    while zero_streak < 3 {
        if net.send(c, &chunk).unwrap() == 0 {
            zero_streak += 1;
            std::thread::sleep(Duration::from_millis(5));
        } else {
            zero_streak = 0;
        }
    }
}

#[test]
fn recv_delivers_data_then_eof_and_rejects_unknown_sockets() {
    for (name, net) in backends() {
        let mut ring = net.completion_ring();
        let mut out = Vec::new();
        let arena = Arena::new("ring-recv", 4, 256);
        let (l, c, s) = pair(net.as_ref(), 5300, name);

        assert!(net.send(c, b"hello ring").unwrap() > 0, "[{name}]");
        ring.recv_into(s, arena.try_pop().unwrap(), 9).unwrap();
        let (got, done) = reap_for(ring.as_mut(), &mut out, name, |c| recv_result(c, s));
        assert!(matches!(got, Ok(n) if n > 0), "[{name}] {got:?}");
        let n = got.unwrap();
        let (mut node, offset) = recv_node(done);
        assert_eq!(offset, 9, "[{name}] offset comes back");
        assert_eq!(
            &node.buffer_mut()[9..9 + n],
            &b"hello ring"[..n],
            "[{name}]"
        );

        // Drain whatever a short first read left, then see EOF.
        net.close(c).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
            let (got, _) = reap_for(ring.as_mut(), &mut out, name, |c| recv_result(c, s));
            match got {
                Ok(0) => break,
                Ok(_) => assert!(Instant::now() < deadline, "[{name}] no eof"),
                Err(e) => panic!("[{name}] error instead of eof: {e}"),
            }
        }

        // An unknown socket fails with BadSocket at submission or as the
        // receive's completion.
        let bogus = SocketId(u64::MAX / 2);
        if let Err((e, _node)) = ring.recv_into(bogus, arena.try_pop().unwrap(), 0) {
            assert!(matches!(e, NetError::BadSocket), "[{name}] {e:?}");
        } else {
            let (got, _) = reap_for(ring.as_mut(), &mut out, name, |c| recv_result(c, bogus));
            assert_eq!(got, Err("BadSocket".to_owned()), "[{name}]");
        }
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn one_recv_and_one_send_in_flight_per_socket() {
    for (name, net) in backends() {
        let mut ring = net.completion_ring();
        let arena = Arena::new("ring-inflight", 4, 1024);
        let (l, c, s) = pair(net.as_ref(), 5301, name);

        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        let second = ring.recv_into(s, arena.try_pop().unwrap(), 0);
        assert!(
            matches!(second, Err((NetError::WouldBlock, _))),
            "[{name}] second receive accepted"
        );

        wedge(net.as_ref(), c);
        let mut frame = arena.try_pop().unwrap();
        frame.write(&[7u8; 1000]);
        ring.send_node(c, frame, 0).unwrap();
        let mut frame = arena.try_pop().unwrap();
        frame.write(&[8u8; 1000]);
        let second = ring.send_node(c, frame, 0);
        assert!(
            matches!(second, Err((NetError::WouldBlock, _))),
            "[{name}] second send accepted"
        );
        // Closing ends both operations; reap them before the ring goes.
        net.close(c).unwrap();
        net.close(s).unwrap();
        let mut out = Vec::new();
        let _ = reap_for(ring.as_mut(), &mut out, name, |c| recv_result(c, s));
        reap_for(ring.as_mut(), &mut out, name, |done| match done {
            Completion::Sent { socket, .. } if *socket == c.0 => Some(()),
            _ => None,
        });
        net.close_listener(l).unwrap();
    }
}

#[test]
fn cancel_recv_returns_the_node_to_its_pool() {
    for (name, net) in backends() {
        let mut ring = net.completion_ring();
        let mut out = Vec::new();
        let (l, c, s) = pair(net.as_ref(), 5302, name);
        // A single-node pool makes the leak check exact.
        let arena = Arena::new("ring-cancel", 1, 256);
        ring.recv_into(s, arena.try_pop().unwrap(), 0).unwrap();
        assert!(arena.try_pop().is_none(), "[{name}] the node is in flight");

        // No data is coming, so nothing completes before the cancel.
        ring.reap(&mut out, Some(Duration::ZERO)).unwrap();
        assert!(out.is_empty(), "[{name}] spurious completion {out:?}");
        ring.cancel_recv(s);
        let (got, done) = reap_for(ring.as_mut(), &mut out, name, |c| recv_result(c, s));
        assert_eq!(got, Err("Canceled".to_owned()), "[{name}]");
        drop(done); // recycles the node
        assert!(
            arena.try_pop().is_some(),
            "[{name}] cancelled receive must return its node to the pool"
        );
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn send_node_transmits_the_whole_node_through_short_writes() {
    const NODE: usize = 16 * 1024;
    for (name, net, total) in small_buffer_backends() {
        let mut ring = net.completion_ring();
        let mut out = Vec::new();
        let arena = Arena::new("ring-send", 2, NODE);
        let (l, c, s) = pair(net.as_ref(), 5303, name);
        let pattern = |i: usize| (i % 251) as u8;

        let mut received = Vec::with_capacity(total);
        let mut buf = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut sent = 0;
        while sent < total {
            let len = (total - sent).min(NODE);
            let mut frame = arena.try_pop().unwrap();
            let bytes: Vec<u8> = (sent..sent + len).map(pattern).collect();
            frame.write(&bytes);
            ring.send_node(s, frame, 0).unwrap();
            // Drain the peer until the ring reports the node fully sent.
            loop {
                ring.reap(&mut out, Some(Duration::ZERO)).unwrap();
                if let Some(i) = out
                    .iter()
                    .position(|c| matches!(c, Completion::Sent { .. }))
                {
                    match out.remove(i) {
                        Completion::Sent { socket, result, .. } => {
                            assert_eq!(socket, s.0, "[{name}]");
                            assert!(result.is_ok(), "[{name}] {result:?}");
                        }
                        _ => unreachable!(),
                    }
                    break;
                }
                match net.recv(c, &mut buf).unwrap() {
                    RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                    RecvOutcome::WouldBlock => std::thread::yield_now(),
                    RecvOutcome::Eof => panic!("[{name}] premature eof"),
                }
                assert!(Instant::now() < deadline, "[{name}] send timed out");
            }
            sent += len;
        }
        while received.len() < total {
            match net.recv(c, &mut buf).unwrap() {
                RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                RecvOutcome::WouldBlock => std::thread::yield_now(),
                RecvOutcome::Eof => panic!("[{name}] premature eof"),
            }
            assert!(Instant::now() < deadline, "[{name}] drain timed out");
        }
        assert_eq!(received.len(), total, "[{name}]");
        for (i, &b) in received.iter().enumerate() {
            assert_eq!(b, pattern(i), "[{name}] byte {i} corrupted");
        }
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn accept_keeps_accepting_until_the_listener_closes() {
    for (name, net) in backends() {
        let mut ring = net.completion_ring();
        let mut out = Vec::new();
        let l = net.listen(5304).unwrap();
        ring.accept(l).unwrap();
        ring.accept(l).unwrap(); // idempotent while armed
        let clients: Vec<SocketId> = (0..3).map(|_| net.connect(5304).unwrap()).collect();

        let mut accepted = Vec::new();
        while accepted.len() < clients.len() {
            let (socket, _) = reap_for(ring.as_mut(), &mut out, name, |c| match c {
                Completion::Accepted { listener, socket } if *listener == l.0 => Some(*socket),
                _ => None,
            });
            accepted.push(SocketId(socket));
        }
        // Accepted sockets are adopted into the backend's table.
        for &s in &accepted {
            assert!(net.send(s, b"hi").unwrap() > 0, "[{name}]");
        }

        net.close_listener(l).unwrap();
        reap_for(ring.as_mut(), &mut out, name, |c| match c {
            Completion::AcceptFailed { listener } if *listener == l.0 => Some(()),
            _ => None,
        });
        for s in clients.into_iter().chain(accepted) {
            net.close(s).unwrap();
        }
    }
}

#[test]
fn waker_ends_a_blocking_reap_early() {
    for (name, net) in backends() {
        let mut ring = net.completion_ring();
        let mut out = Vec::new();
        let waker = ring.waker();
        let start = Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let got = ring.reap(&mut out, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(got, 0, "[{name}] a wake produces no completion");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "[{name}] not woken early"
        );
        t.join().unwrap();
        // A wake that lands while nobody waits is not lost.
        ring.waker().wake();
        let start = Instant::now();
        ring.reap(&mut out, Some(Duration::from_secs(10))).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "[{name}] pending wake lost"
        );
    }
}
