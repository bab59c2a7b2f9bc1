//! # enet — networking for the EActors framework
//!
//! Enclaves cannot issue system calls, so EActors performs all network
//! I/O in untrusted *system actors* connected to the application through
//! mboxes (§4.2 of the paper, Figure 6):
//!
//! * [`Opener`] — creates server or client sockets;
//! * [`Accepter`] — accepts connections on watched server sockets;
//! * [`Reader`] — keeps one receive in flight per subscribed socket,
//!   forwarding bytes to per-user mboxes (including the XMPP batch
//!   pattern);
//! * [`Writer`] — transmits, preserving order under partial writes;
//! * [`Closer`] — closes sockets.
//!
//! All traffic is typed [`NetMsg`] frames flowing through
//! [`NetPort`]s (the [`eactors::wire`] layer): messages encode directly
//! into arena nodes, decode in place as borrowed views, and incoming
//! `Data` can be re-tagged into outgoing `Write` **in the same node**
//! ([`data_frame_into_write`]) — an echo path moves bytes from socket to
//! socket with zero heap allocations and zero copies beyond the kernel's.
//!
//! READER, WRITER and ACCEPTER drive all their I/O through one
//! facility, the per-actor [`CompletionRing`]: they submit receives,
//! sends and accepts with their buffers, and reap finished operations.
//! Four interchangeable [`NetBackend`]s provide it: [`SimNet`], an
//! in-process TCP substrate with a syscall cost model (used by the paper
//! reproduction benchmarks, where hundreds of emulated clients run on one
//! machine), and [`TcpLoopback`], real `std::net` sockets, both with a
//! polled ring; on Linux [`EpollBackend`], the same real sockets with a
//! ring that performs the I/O on edge-triggered `epoll` readiness, and
//! [`UringBackend`], whose io_uring ring makes a whole batch of receives,
//! sends, and accepts cost one `io_uring_enter`. [`auto_backend`] picks
//! the best of the real-socket three at runtime.
//!
//! ## Example: an echo flow without actors
//!
//! ```
//! use enet::{NetBackend, RecvOutcome, SimNet};
//! use sgx_sim::Platform;
//!
//! let net = SimNet::new(Platform::builder().build().costs());
//! let listener = net.listen(7)?;
//! let client = net.connect(7)?;
//! let server = net.accept(listener)?.expect("pending");
//! net.send(client, b"echo")?;
//! let mut buf = [0u8; 8];
//! if let RecvOutcome::Data(n) = net.recv(server, &mut buf)? {
//!     net.send(server, &buf[..n])?;
//! }
//! assert_eq!(net.recv(client, &mut buf)?, RecvOutcome::Data(4));
//! # Ok::<(), enet::NetError>(())
//! ```

#![warn(missing_docs)]

mod actors;
mod backend;
mod dir;
#[cfg(target_os = "linux")]
mod epoll;
#[cfg(target_os = "linux")]
mod ffi;
pub mod ioutil;
mod msg;
mod polled;
mod sim;
mod tcp;
#[cfg(target_os = "linux")]
mod uring;
#[cfg(target_os = "linux")]
mod uring_ffi;

pub use actors::{
    send_msg, send_write_with, Accepter, Closer, NetPort, NetStats, Opener, Reader, SystemActors,
    Writer,
};
pub use backend::{
    Completion, CompletionRing, ListenerId, NetBackend, NetError, RecvOutcome, SocketId,
};
pub use dir::{MboxDirectory, MboxRef};
#[cfg(target_os = "linux")]
pub use epoll::EpollBackend;
pub use msg::{data_frame_into_write, BatchEntries, NetMsg, DATA_HEADER};
pub use sim::{failpoints, SimNet, DEFAULT_SOCKET_BUFFER};
pub use tcp::TcpLoopback;
#[cfg(target_os = "linux")]
pub use uring::UringBackend;

/// The running kernel's release string (`uname -r` equivalent), for
/// benchmark metadata and backend-selection diagnostics.
#[cfg(target_os = "linux")]
pub fn kernel_release() -> String {
    uring_ffi::kernel_release()
}

/// See the Linux version — this stub reports `"unknown"` where the
/// probe interface does not exist.
#[cfg(not(target_os = "linux"))]
pub fn kernel_release() -> String {
    "unknown".to_owned()
}

/// Pick the fastest real-socket backend this host supports: io_uring,
/// falling back to epoll, falling back to polled TCP. Returns the
/// backend, its short name (`"uring"` / `"epoll"` / `"tcp"`), and a
/// human-readable reason for the choice (callers log it).
pub fn auto_backend(
    costs: sgx_sim::CostHandle,
) -> (std::sync::Arc<dyn NetBackend>, &'static str, String) {
    #[cfg(target_os = "linux")]
    {
        match UringBackend::probe() {
            Ok(()) => (
                std::sync::Arc::new(UringBackend::new(costs)),
                "uring",
                format!("io_uring available on kernel {}", kernel_release()),
            ),
            Err(reason) => match ffi::epoll_create() {
                Ok(_) => (
                    std::sync::Arc::new(EpollBackend::new(costs)),
                    "epoll",
                    format!("io_uring unavailable ({reason}); using epoll"),
                ),
                Err(e) => (
                    std::sync::Arc::new(TcpLoopback::new(costs)),
                    "tcp",
                    format!(
                        "io_uring unavailable ({reason}); epoll unavailable ({e}); \
                         using polled tcp"
                    ),
                ),
            },
        }
    }
    #[cfg(not(target_os = "linux"))]
    (
        std::sync::Arc::new(TcpLoopback::new(costs)),
        "tcp",
        "no kernel multiplexer on this platform; using polled tcp".to_owned(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eactors::actor::Actor;
    use eactors::arena::{Arena, Mbox};
    use eactors::prelude::*;
    use sgx_sim::{CostModel, Platform};
    use std::sync::Arc;

    /// Full-stack test: an enclaved echo actor served by all five system
    /// actors, with an emulated client on the sim network. The echo path
    /// is the zero-copy one: incoming `Data` nodes are re-tagged into
    /// `Write` frames and forwarded wholesale.
    #[test]
    fn enclaved_echo_server_through_system_actors() {
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let net: Arc<dyn NetBackend> = Arc::new(SimNet::new(platform.costs()));
        let pool = Arena::new("net-pool", 256, 512);
        let sys = SystemActors::new(net.clone(), pool.clone());

        // Reply port for the echo service.
        let replies: NetPort = Port::new(Mbox::new(pool.clone(), 256));
        let reply_ref = sys.dir.register(replies.mbox().clone());

        let opener_rq = sys.opener_requests.clone();
        let accepter_rq = sys.accepter_requests.clone();
        let reader_rq = sys.reader_requests.clone();
        let writer_rq = sys.writer_requests.clone();

        // The enclaved echo logic: drive the handshake, then echo Data.
        let mut started = false;
        let echo = move |_ctx: &mut Ctx| {
            if !started {
                started = true;
                assert!(opener_rq.send(&NetMsg::OpenListen {
                    port: 7,
                    reply: reply_ref
                }));
                return Control::Busy;
            }
            let mut worked = false;
            while let Some(mut node) = replies.recv_node() {
                worked = true;
                // A Data frame becomes a Write frame by flipping its tag
                // in place; the node itself is forwarded to the WRITER.
                let len = node.bytes().len();
                if data_frame_into_write(&mut node.buffer_mut()[..len]) {
                    let _ = writer_rq.send_node(node);
                    continue;
                }
                match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::OpenOk { id, listener: true }) => {
                        accepter_rq.send(&NetMsg::WatchListener {
                            listener: id,
                            reply: reply_ref,
                        });
                    }
                    Some(NetMsg::Accepted { socket, .. }) => {
                        reader_rq.send(&NetMsg::WatchSocket {
                            socket,
                            reply: reply_ref,
                        });
                    }
                    _ => {}
                }
            }
            if worked {
                Control::Busy
            } else {
                Control::Idle
            }
        };

        let mut b = DeploymentBuilder::new();
        let e = b.enclave("echo");
        let a_echo = b.actor("echo", Placement::Enclave(e), eactors::from_fn(echo));
        let a_open = b.actor("opener", Placement::Untrusted, sys.opener);
        let a_acc = b.actor("accepter", Placement::Untrusted, sys.accepter);
        let a_rd = b.actor("reader", Placement::Untrusted, sys.reader);
        let a_wr = b.actor("writer", Placement::Untrusted, sys.writer);
        let a_cl = b.actor("closer", Placement::Untrusted, sys.closer);
        b.worker(&[a_echo]);
        b.worker(&[a_open, a_acc, a_rd, a_wr, a_cl]);

        let rt = Runtime::start(&platform, b.build().unwrap()).unwrap();

        // Emulated client on its own (untrusted) thread.
        let client_net = net.clone();
        let client = std::thread::spawn(move || {
            let sock = loop {
                match client_net.connect(7) {
                    Ok(s) => break s,
                    Err(_) => std::thread::yield_now(),
                }
            };
            client_net.send(sock, b"hello enclave").unwrap();
            let mut buf = [0u8; 64];
            let mut got = Vec::new();
            while got.len() < 13 {
                match client_net.recv(sock, &mut buf).unwrap() {
                    RecvOutcome::Data(n) => got.extend_from_slice(&buf[..n]),
                    RecvOutcome::WouldBlock => std::thread::yield_now(),
                    RecvOutcome::Eof => break,
                }
            }
            got
        });

        let echoed = client.join().unwrap();
        assert_eq!(echoed, b"hello enclave");
        rt.shutdown();
        rt.join();
    }

    #[test]
    fn opener_reports_failures_and_counts_corrupt_frames() {
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let net: Arc<dyn NetBackend> = Arc::new(SimNet::new(platform.costs()));
        let pool = Arena::new("p", 32, 128);
        let sys = SystemActors::new(net, pool.clone());
        let replies: NetPort = Port::new(Mbox::new(pool, 32));
        let r = sys.dir.register(replies.mbox().clone());

        // One valid request plus one forged frame the OPENER must count
        // and discard rather than silently swallow.
        let mut garbage = sys.opener_requests.mbox().arena().try_pop().unwrap();
        garbage.write(&[0x77, 1, 2, 3]);
        sys.opener_requests.send_node(garbage).unwrap();
        assert!(sys
            .opener_requests
            .send(&NetMsg::OpenConnect { port: 99, reply: r }));
        let opener_stats = sys.opener_requests.stats().clone();
        assert_eq!(sys.stats().corrupt_frames, 0);

        let mut opener = sys.opener;
        let done = {
            let replies = replies.clone();
            move |ctx: &mut Ctx| {
                let failed = replies.recv(|m| matches!(m, NetMsg::OpenFail { port: 99 }));
                if failed == Some(true) {
                    ctx.shutdown();
                    return Control::Park;
                }
                Control::Idle
            }
        };
        let mut b = DeploymentBuilder::new();
        let a1 = b.actor(
            "opener",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| opener.body(ctx)),
        );
        let a2 = b.actor("checker", Placement::Untrusted, eactors::from_fn(done));
        b.worker(&[a1, a2]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();
        assert_eq!(opener_stats.corrupt_frames(), 1);
    }

    #[test]
    fn request_ports_count_send_drops() {
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let net: Arc<dyn NetBackend> = Arc::new(SimNet::new(platform.costs()));
        // A pool of one node: the second send has nothing to encode into.
        let pool = Arena::new("tiny", 1, 64);
        let sys = SystemActors::new(net, pool);
        assert!(sys.closer_requests.send(&NetMsg::Close { socket: 1 }));
        assert!(!sys.closer_requests.send(&NetMsg::Close { socket: 2 }));
        assert_eq!(sys.closer_requests.stats().send_drops(), 1);
        assert_eq!(
            sys.stats(),
            NetStats {
                request_drops: 1,
                corrupt_frames: 0,
                reply_drops: 0,
                dropped_reads: 0,
                dropped_writes: 0,
            }
        );
    }

    #[test]
    fn writer_preserves_order_across_partial_writes() {
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        // Tiny socket buffers force partial writes.
        let sim = SimNet::with_buffer_size(platform.costs(), 8);
        let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
        let pool = Arena::new("p", 64, 256);
        let sys = SystemActors::new(net.clone(), pool);

        let l = sim.listen(9).unwrap();
        let client = sim.connect(9).unwrap();
        let server = sim.accept(l).unwrap().unwrap();

        // Queue three writes totalling far more than the 8-byte buffer.
        for chunk in [&b"AAAAAAAAAA"[..], b"BBBBBBBBBB", b"CCCCCCCCCC"] {
            assert!(sys.writer_requests.send(&NetMsg::Write {
                socket: server.0,
                payload: chunk,
            }));
        }

        let mut writer = sys.writer;
        let sim2 = sim.clone();
        let mut sink: Vec<u8> = Vec::new();
        let collector = move |ctx: &mut Ctx| {
            let mut buf = [0u8; 16];
            match sim2.recv(client, &mut buf) {
                Ok(RecvOutcome::Data(n)) => {
                    sink.extend_from_slice(&buf[..n]);
                    if sink.len() >= 30 {
                        assert_eq!(&sink[..], b"AAAAAAAAAABBBBBBBBBBCCCCCCCCCC");
                        ctx.shutdown();
                        return Control::Park;
                    }
                    Control::Busy
                }
                _ => Control::Idle,
            }
        };

        let mut b = DeploymentBuilder::new();
        let w = b.actor(
            "writer",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| writer.body(ctx)),
        );
        let c = b.actor(
            "collector",
            Placement::Untrusted,
            eactors::from_fn(collector),
        );
        b.worker(&[w, c]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();
    }

    #[test]
    fn reader_unwatch_stops_forwarding() {
        let platform = Platform::builder().cost_model(CostModel::zero()).build();
        let sim = SimNet::new(platform.costs());
        let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
        let pool = Arena::new("p", 64, 256);
        let sys = SystemActors::new(net, pool.clone());

        let l = sim.listen(9).unwrap();
        let client = sim.connect(9).unwrap();
        let server = sim.accept(l).unwrap().unwrap();

        let replies: NetPort = Port::new(Mbox::new(pool, 64));
        let r = sys.dir.register(replies.mbox().clone());
        sys.reader_requests.send(&NetMsg::WatchSocket {
            socket: server.0,
            reply: r,
        });

        let mut reader = sys.reader;
        let reader_rq = sys.reader_requests.clone();
        let sim2 = sim.clone();
        let mut phase = 0;
        let driver = move |ctx: &mut Ctx| {
            match phase {
                0 => {
                    sim2.send(client, b"first").unwrap();
                    phase = 1;
                    Control::Busy
                }
                1 => {
                    let got_first = replies.recv(|m| match m {
                        NetMsg::Data { payload, .. } => {
                            assert_eq!(payload, b"first");
                            true
                        }
                        _ => false,
                    });
                    if got_first == Some(true) {
                        reader_rq.send(&NetMsg::Unwatch { socket: server.0 });
                        phase = 2;
                        Control::Busy
                    } else {
                        Control::Idle
                    }
                }
                2 => {
                    // After unwatch, sent data must NOT be forwarded.
                    sim2.send(client, b"second").unwrap();
                    phase = 3;
                    Control::Busy
                }
                3 => {
                    // The READER confirms the unwatch to the watch's reply
                    // mbox; nothing else may precede the ack.
                    match replies
                        .recv(|m| matches!(m, NetMsg::Unwatched { socket } if socket == server.0))
                    {
                        Some(true) => {
                            phase = 4;
                            Control::Busy
                        }
                        Some(false) => panic!("expected the Unwatched ack"),
                        None => Control::Idle,
                    }
                }
                _ => {
                    phase += 1;
                    if phase > 50 {
                        assert!(replies.recv_node().is_none(), "data after unwatch");
                        ctx.shutdown();
                        return Control::Park;
                    }
                    Control::Idle
                }
            }
        };

        let mut b = DeploymentBuilder::new();
        let rd = b.actor(
            "reader",
            Placement::Untrusted,
            eactors::from_fn(move |ctx| reader.body(ctx)),
        );
        let dr = b.actor("driver", Placement::Untrusted, eactors::from_fn(driver));
        b.worker(&[rd, dr]);
        Runtime::start(&platform, b.build().unwrap())
            .unwrap()
            .join();
    }
}
