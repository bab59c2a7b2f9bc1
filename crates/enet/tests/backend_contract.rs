//! Backend conformance suite: one parameterized set of trait-contract
//! checks, run identically against every [`NetBackend`] — `SimNet`,
//! `TcpLoopback`, and (on Linux) `EpollBackend` plus `UringBackend`
//! where the kernel's io_uring probe succeeds. A behavior difference
//! between backends is a bug in the backend, not in the caller; this
//! suite is what keeps the fault-injection and permutation tests (which
//! only run against sim) honest about the real backends.

use std::sync::Arc;
use std::time::{Duration, Instant};

use enet::{ListenerId, NetBackend, NetError, RecvOutcome, SimNet, SocketId, TcpLoopback};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// Every backend, by name, over a fresh platform each.
fn backends() -> Vec<(&'static str, Platform, Arc<dyn NetBackend>)> {
    let mut v: Vec<(&'static str, Platform, Arc<dyn NetBackend>)> = Vec::new();
    let p = platform();
    v.push(("sim", p.clone(), Arc::new(SimNet::new(p.costs()))));
    let p = platform();
    v.push(("tcp", p.clone(), Arc::new(TcpLoopback::new(p.costs()))));
    #[cfg(target_os = "linux")]
    {
        let p = platform();
        v.push((
            "epoll",
            p.clone(),
            Arc::new(enet::EpollBackend::new(p.costs())),
        ));
        match enet::UringBackend::probe() {
            Ok(()) => {
                let p = platform();
                let net = enet::UringBackend::new(p.costs());
                v.push(("uring", p.clone(), Arc::new(net)));
            }
            Err(reason) => eprintln!("skipping uring conformance: {reason}"),
        }
    }
    v
}

/// Backends configured for tiny socket buffers, to force short writes
/// with small payloads. `TcpLoopback` exposes no buffer knob, so the
/// partial-write test covers it by sheer volume instead.
fn small_buffer_backends() -> Vec<(&'static str, Arc<dyn NetBackend>, usize)> {
    let mut v: Vec<(&'static str, Arc<dyn NetBackend>, usize)> = Vec::new();
    let p = platform();
    v.push((
        "sim",
        Arc::new(SimNet::with_buffer_size(p.costs(), 8)),
        4 * 1024,
    ));
    let p = platform();
    v.push((
        "tcp",
        Arc::new(TcpLoopback::new(p.costs())),
        16 * 1024 * 1024,
    ));
    #[cfg(target_os = "linux")]
    {
        let p = platform();
        v.push((
            "epoll",
            Arc::new(enet::EpollBackend::with_buffer_size(p.costs(), 1)),
            256 * 1024,
        ));
        if enet::UringBackend::probe().is_ok() {
            let p = platform();
            v.push((
                "uring",
                Arc::new(enet::UringBackend::with_buffer_size(p.costs(), 1)),
                256 * 1024,
            ));
        } else {
            eprintln!("skipping uring small-buffer conformance: no io_uring");
        }
    }
    v
}

fn accept_one(net: &dyn NetBackend, l: ListenerId, name: &str) -> SocketId {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(s) = net.accept(l).unwrap() {
            return s;
        }
        assert!(Instant::now() < deadline, "[{name}] accept timed out");
        std::thread::yield_now();
    }
}

fn recv_all(net: &dyn NetBackend, s: SocketId, want: usize, name: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(want);
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(30);
    while out.len() < want {
        match net.recv(s, &mut buf).unwrap() {
            RecvOutcome::Data(n) => out.extend_from_slice(&buf[..n]),
            RecvOutcome::WouldBlock => {
                assert!(Instant::now() < deadline, "[{name}] recv timed out");
                std::thread::yield_now();
            }
            RecvOutcome::Eof => panic!("[{name}] unexpected eof after {} bytes", out.len()),
        }
    }
    out
}

#[test]
fn round_trip_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(5222).unwrap();
        let c = net.connect(5222).unwrap();
        let s = accept_one(net.as_ref(), l, name);
        assert!(net.send(c, b"hello backend").unwrap() > 0, "[{name}]");
        let got = recv_all(net.as_ref(), s, 13, name);
        assert_eq!(got, b"hello backend", "[{name}]");
        // And the reverse direction.
        assert!(net.send(s, b"right back").unwrap() > 0, "[{name}]");
        let got = recv_all(net.as_ref(), c, 10, name);
        assert_eq!(got, b"right back", "[{name}]");
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

/// Short writes must resume exactly where they stopped: pump `total`
/// patterned bytes through a connection, draining the receiver only
/// when the sender stalls, and verify every byte in order.
#[test]
fn partial_write_resume_preserves_order() {
    for (name, net, total) in small_buffer_backends() {
        let l = net.listen(6000).unwrap();
        let c = net.connect(6000).unwrap();
        let s = accept_one(net.as_ref(), l, name);

        let pattern = |i: usize| (i % 251) as u8;
        let chunk: Vec<u8> = (0..8192).map(pattern).collect();
        let mut sent = 0usize;
        let mut received = Vec::with_capacity(total);
        let mut buf = vec![0u8; 8192];
        let mut stalled = false;
        let deadline = Instant::now() + Duration::from_secs(60);
        while sent < total {
            let want = (total - sent).min(chunk.len());
            // The chunk is offset so the pattern continues seamlessly.
            let view: Vec<u8> = (sent..sent + want).map(pattern).collect();
            let n = net.send(c, &view).unwrap();
            if n < want {
                stalled = true;
            }
            sent += n;
            if n == 0 {
                // Sender stalled: drain the receiver to make room.
                match net.recv(s, &mut buf).unwrap() {
                    RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                    RecvOutcome::WouldBlock => std::thread::yield_now(),
                    RecvOutcome::Eof => panic!("[{name}] premature eof"),
                }
            }
            assert!(Instant::now() < deadline, "[{name}] pump timed out");
        }
        assert!(
            stalled,
            "[{name}] test never hit a short write — raise `total`"
        );
        while received.len() < total {
            match net.recv(s, &mut buf).unwrap() {
                RecvOutcome::Data(k) => received.extend_from_slice(&buf[..k]),
                RecvOutcome::WouldBlock => {
                    assert!(Instant::now() < deadline, "[{name}] drain timed out");
                    std::thread::yield_now();
                }
                RecvOutcome::Eof => panic!("[{name}] premature eof"),
            }
        }
        for (i, &b) in received.iter().enumerate() {
            assert_eq!(b, pattern(i), "[{name}] byte {i} corrupted");
        }
        net.close(c).unwrap();
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn eof_after_close_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(7000).unwrap();
        let c = net.connect(7000).unwrap();
        let s = accept_one(net.as_ref(), l, name);
        assert!(net.send(c, b"last words").unwrap() > 0, "[{name}]");
        net.close(c).unwrap();
        // Buffered bytes drain first, then EOF — never an error.
        let got = recv_all(net.as_ref(), s, 10, name);
        assert_eq!(got, b"last words", "[{name}]");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut buf = [0u8; 16];
        loop {
            match net.recv(s, &mut buf).unwrap() {
                RecvOutcome::Eof => break,
                RecvOutcome::WouldBlock => {
                    assert!(Instant::now() < deadline, "[{name}] eof timed out");
                    std::thread::yield_now();
                }
                RecvOutcome::Data(_) => panic!("[{name}] data after drained payload"),
            }
        }
        net.close(s).unwrap();
        net.close_listener(l).unwrap();
    }
}

#[test]
fn bad_ids_report_bad_socket() {
    for (name, _p, net) in backends() {
        let bogus = SocketId(u64::MAX / 2);
        assert!(
            matches!(net.send(bogus, b"x"), Err(NetError::BadSocket)),
            "[{name}] send"
        );
        let mut buf = [0u8; 4];
        assert!(
            matches!(net.recv(bogus, &mut buf), Err(NetError::BadSocket)),
            "[{name}] recv"
        );
        assert!(
            matches!(net.close(bogus), Err(NetError::BadSocket)),
            "[{name}] close"
        );
        let bogus_l = ListenerId(u64::MAX / 2);
        assert!(
            matches!(net.accept(bogus_l), Err(NetError::BadSocket)),
            "[{name}] accept"
        );
        assert!(
            matches!(net.close_listener(bogus_l), Err(NetError::BadSocket)),
            "[{name}] close_listener"
        );
        // Closing twice is as bad as never opening.
        let l = net.listen(1).unwrap();
        let c = net.connect(1).unwrap();
        net.close(c).unwrap();
        assert!(
            matches!(net.close(c), Err(NetError::BadSocket)),
            "[{name}] double close"
        );
        net.close_listener(l).unwrap();
    }
}

#[test]
fn port_collision_and_refusal_on_every_backend() {
    for (name, _p, net) in backends() {
        let l = net.listen(4444).unwrap();
        assert!(
            matches!(net.listen(4444), Err(NetError::PortInUse(4444))),
            "[{name}] duplicate listen"
        );
        assert!(
            matches!(net.connect(4445), Err(NetError::ConnectionRefused(4445))),
            "[{name}] connect to nothing"
        );
        net.close_listener(l).unwrap();
    }
}

/// Regression (tcp.rs): `close_listener` used to leak the logical→OS
/// port mapping, so a re-listen on the same logical port failed with
/// `PortInUse` forever.
#[test]
fn close_then_relisten_reuses_logical_port() {
    for (name, _p, net) in backends() {
        for round in 0..3 {
            let l = net.listen(5222).unwrap();
            let c = net.connect(5222).unwrap();
            let s = accept_one(net.as_ref(), l, name);
            assert!(net.send(c, b"ping").unwrap() > 0, "[{name}] round {round}");
            let got = recv_all(net.as_ref(), s, 4, name);
            assert_eq!(got, b"ping", "[{name}] round {round}");
            net.close(c).unwrap();
            net.close(s).unwrap();
            net.close_listener(l).unwrap();
        }
        // After the final close nothing listens there.
        assert!(
            matches!(net.connect(5222), Err(NetError::ConnectionRefused(5222))),
            "[{name}] stale mapping survived close_listener"
        );
    }
}

#[test]
fn enclave_domain_rejected_on_every_backend() {
    for (name, p, net) in backends() {
        let l = net.listen(9100).unwrap();
        let c = net.connect(9100).unwrap();
        let enclave = p.create_enclave("contract", 0).unwrap();
        assert!(
            matches!(
                enclave.ecall(|| net.listen(9101)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] listen from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.connect(9100)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] connect from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.send(c, b"x")),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] send from enclave"
        );
        let mut buf = [0u8; 4];
        assert!(
            matches!(
                enclave.ecall(|| net.recv(c, &mut buf)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] recv from enclave"
        );
        assert!(
            matches!(
                enclave.ecall(|| net.accept(l)),
                Err(NetError::TrustedDomain)
            ),
            "[{name}] accept from enclave"
        );
        assert!(
            matches!(enclave.ecall(|| net.close(c)), Err(NetError::TrustedDomain)),
            "[{name}] close from enclave"
        );
        // Outside the enclave the same handles still work.
        net.close(c).unwrap();
        net.close_listener(l).unwrap();
    }
}
