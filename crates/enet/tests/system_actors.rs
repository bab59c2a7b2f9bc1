//! Integration tests of the networking system actors beyond the happy
//! path: batch subscriptions, multiple listeners, closer semantics and
//! real-socket interchangeability.

use std::sync::Arc;

use eactors::actor::Actor;
use eactors::arena::{Arena, Mbox};
use eactors::prelude::*;
use enet::{
    data_frame_into_write, BatchEntries, MboxDirectory, NetBackend, NetMsg, NetPort, RecvOutcome,
    SimNet, SystemActors, TcpLoopback,
};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// Drive a single actor until `done` reports completion.
fn drive_actor(
    platform: &Platform,
    mut actor: impl Actor + 'static,
    done: impl FnMut(&mut Ctx) -> Control + Send + 'static,
) {
    let mut b = DeploymentBuilder::new();
    let a = b.actor(
        "subject",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| actor.body(ctx)),
    );
    let d = b.actor("checker", Placement::Untrusted, eactors::from_fn(done));
    b.worker(&[a, d]);
    Runtime::start(platform, b.build().expect("valid"))
        .expect("start")
        .join();
}

#[test]
fn reader_batch_subscription_serves_all_sockets() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 128, 256);
    let sys = SystemActors::new(net, pool.clone());

    // Three connected socket pairs.
    let l = sim.listen(9).unwrap();
    let mut pairs = Vec::new();
    for _ in 0..3 {
        let c = sim.connect(9).unwrap();
        let s = sim.accept(l).unwrap().unwrap();
        pairs.push((c, s));
    }

    // One reply port per server socket (the per-user mbox pattern).
    let replies: Vec<NetPort> = (0..3)
        .map(|_| Port::new(Mbox::new(pool.clone(), 16)))
        .collect();
    let entries: Vec<(u64, enet::MboxRef)> = pairs
        .iter()
        .zip(&replies)
        .map(|((_, s), port)| (s.0, sys.dir.register(port.mbox().clone())))
        .collect();
    assert!(sys.reader_requests.send(&NetMsg::WatchBatch {
        entries: BatchEntries::Slice(&entries),
    }));

    // Send distinct payloads from each client.
    for (i, (c, _)) in pairs.iter().enumerate() {
        sim.send(*c, format!("payload-{i}").as_bytes()).unwrap();
    }

    let replies2 = replies.clone();
    let mut got = [false; 3];
    drive_actor(&p, sys.reader, move |ctx| {
        for (i, port) in replies2.iter().enumerate() {
            let matched = port.recv(|m| match m {
                NetMsg::Data { payload, .. } => {
                    assert_eq!(payload, format!("payload-{i}").into_bytes());
                    true
                }
                _ => false,
            });
            if matched == Some(true) {
                got[i] = true;
            }
        }
        if got.iter().all(|&g| g) {
            ctx.shutdown();
            Control::Park
        } else {
            Control::Idle
        }
    });
}

#[test]
fn accepter_watches_multiple_listeners() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 64, 128);
    let sys = SystemActors::new(net, pool.clone());

    let l1 = sim.listen(100).unwrap();
    let l2 = sim.listen(200).unwrap();
    let replies: NetPort = Port::new(Mbox::new(pool, 16));
    let r = sys.dir.register(replies.mbox().clone());
    sys.accepter_requests.send(&NetMsg::WatchListener {
        listener: l1.0,
        reply: r,
    });
    sys.accepter_requests.send(&NetMsg::WatchListener {
        listener: l2.0,
        reply: r,
    });

    sim.connect(100).unwrap();
    sim.connect(200).unwrap();
    sim.connect(100).unwrap();

    let mut seen = Vec::new();
    drive_actor(&p, sys.accepter, move |ctx| {
        while let Some(Some(listener)) = replies.recv(|m| match m {
            NetMsg::Accepted { listener, .. } => Some(listener),
            _ => None,
        }) {
            seen.push(listener);
        }
        if seen.iter().filter(|&&l| l == l1.0).count() == 2
            && seen.iter().filter(|&&l| l == l2.0).count() == 1
        {
            ctx.shutdown();
            Control::Park
        } else {
            Control::Idle
        }
    });
}

#[test]
fn closer_closes_and_peer_sees_eof() {
    let p = platform();
    let sim = SimNet::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(sim.clone());
    let pool = Arena::new("pool", 16, 64);
    let sys = SystemActors::new(net, pool);

    let l = sim.listen(9).unwrap();
    let c = sim.connect(9).unwrap();
    let s = sim.accept(l).unwrap().unwrap();
    sys.closer_requests.send(&NetMsg::Close { socket: s.0 });

    let sim2 = sim.clone();
    drive_actor(&p, sys.closer, move |ctx| {
        let mut buf = [0u8; 8];
        match sim2.recv(c, &mut buf) {
            Ok(RecvOutcome::Eof) => {
                ctx.shutdown();
                Control::Park
            }
            _ => Control::Idle,
        }
    });
}

#[test]
fn system_actors_work_over_real_tcp_sockets() {
    // The same actor set over the std::net loopback backend: backends
    // are interchangeable.
    let p = platform();
    let tcp = TcpLoopback::new(p.costs());
    let net: Arc<dyn NetBackend> = Arc::new(tcp.clone());
    let pool = Arena::new("pool", 64, 512);
    let sys = SystemActors::new(net, pool.clone());

    let replies: NetPort = Port::new(Mbox::new(pool, 32));
    let r = sys.dir.register(replies.mbox().clone());
    sys.opener_requests.send(&NetMsg::OpenListen {
        port: 777,
        reply: r,
    });

    // Run opener + accepter + reader together.
    let mut opener = sys.opener;
    let mut accepter = sys.accepter;
    let mut reader = sys.reader;
    let accepter_rq = sys.accepter_requests.clone();
    let reader_rq = sys.reader_requests.clone();

    enum Event {
        Listening(u64),
        Accepted(u64),
        Echoed,
        Other,
    }

    let tcp2 = tcp.clone();
    let mut client = None;
    let done = move |ctx: &mut Ctx| {
        let event = replies.recv(|m| match m {
            NetMsg::OpenOk { id, listener: true } => Event::Listening(id),
            NetMsg::Accepted { socket, .. } => Event::Accepted(socket),
            NetMsg::Data { payload, .. } => {
                assert_eq!(payload, b"over real tcp");
                Event::Echoed
            }
            _ => Event::Other,
        });
        match event {
            Some(Event::Listening(id)) => {
                accepter_rq.send(&NetMsg::WatchListener {
                    listener: id,
                    reply: r,
                });
                client = Some(tcp2.connect(777).unwrap());
                Control::Busy
            }
            Some(Event::Accepted(socket)) => {
                reader_rq.send(&NetMsg::WatchSocket { socket, reply: r });
                tcp2.send(client.unwrap(), b"over real tcp").unwrap();
                Control::Busy
            }
            Some(Event::Echoed) => {
                ctx.shutdown();
                Control::Park
            }
            _ => Control::Idle,
        }
    };

    let mut b = DeploymentBuilder::new();
    let a1 = b.actor(
        "opener",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| opener.body(ctx)),
    );
    let a2 = b.actor(
        "accepter",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| accepter.body(ctx)),
    );
    let a3 = b.actor(
        "reader",
        Placement::Untrusted,
        eactors::from_fn(move |ctx| reader.body(ctx)),
    );
    let a4 = b.actor("driver", Placement::Untrusted, eactors::from_fn(done));
    b.worker(&[a1, a2, a3, a4]);
    Runtime::start(&p, b.build().expect("valid"))
        .expect("start")
        .join();
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
                v.push((
                    "uring",
                    p.clone(),
                    Arc::new(enet::UringBackend::new(p.costs())),
                ));
            }
            Err(reason) => eprintln!("skipping uring echo: {reason}"),
        }
    }
    v
}

/// Full echo loop over every backend: OPENER, ACCEPTER, READER and
/// WRITER as real deployment actors (so their `ctor` registers the ring
/// wakers and the parked-reap path is exercised), a driver flipping
/// `Data` into `Write` frames, and a client thread on the backend's
/// own socket calls.
#[test]
fn echo_service_over_every_backend() {
    const ROUNDS: usize = 50;
    for (name, p, net) in backends() {
        let pool = Arena::new("pool", 256, 512);
        let sys = SystemActors::new(net.clone(), pool.clone());

        let replies: NetPort = Port::new(Mbox::new(pool, 64));
        let r = sys.dir.register(replies.mbox().clone());
        sys.opener_requests.send(&NetMsg::OpenListen {
            port: 5222,
            reply: r,
        });

        let accepter_rq = sys.accepter_requests.clone();
        let reader_rq = sys.reader_requests.clone();
        let writer_rq = sys.writer_requests.clone();

        let client: std::sync::Mutex<Option<std::thread::JoinHandle<()>>> =
            std::sync::Mutex::new(None);
        let mut echoes = 0usize;
        let driver = move |ctx: &mut Ctx| {
            let mut worked = false;
            while let Some(mut node) = replies.recv_node() {
                worked = true;
                let len = node.bytes().len();
                if data_frame_into_write(&mut node.buffer_mut()[..len]) {
                    echoes += 1;
                    let _ = writer_rq.send_node(node);
                    continue;
                }
                match NetMsg::decode_from(node.bytes()) {
                    Some(NetMsg::OpenOk { id, listener: true }) => {
                        accepter_rq.send(&NetMsg::WatchListener {
                            listener: id,
                            reply: r,
                        });
                        // Closed-loop client: each request waits for its
                        // echo before the next.
                        let net = net.clone();
                        *client.lock().unwrap() = Some(std::thread::spawn(move || {
                            let c = net.connect(5222).unwrap();
                            let mut buf = [0u8; 64];
                            for i in 0..ROUNDS {
                                let msg = format!("echo-{i}");
                                while net.send(c, msg.as_bytes()).unwrap() == 0 {
                                    std::thread::yield_now();
                                }
                                let mut got = 0;
                                while got < msg.len() {
                                    match net.recv(c, &mut buf[got..]).unwrap() {
                                        RecvOutcome::Data(n) => got += n,
                                        RecvOutcome::WouldBlock => std::thread::yield_now(),
                                        RecvOutcome::Eof => panic!("[{name}] premature eof"),
                                    }
                                }
                                assert_eq!(&buf[..got], msg.as_bytes(), "[{name}]");
                            }
                        }));
                    }
                    Some(NetMsg::Accepted { socket, .. }) => {
                        reader_rq.send(&NetMsg::WatchSocket { socket, reply: r });
                    }
                    _ => {}
                }
            }
            if echoes >= ROUNDS {
                if let Some(t) = client.lock().unwrap().take() {
                    t.join().unwrap();
                }
                ctx.shutdown();
                return Control::Park;
            }
            if worked {
                Control::Busy
            } else {
                Control::Idle
            }
        };

        let mut b = DeploymentBuilder::new();
        let a1 = b.actor("opener", Placement::Untrusted, sys.opener);
        let a2 = b.actor("accepter", Placement::Untrusted, sys.accepter);
        let a3 = b.actor("reader", Placement::Untrusted, sys.reader);
        let a4 = b.actor("writer", Placement::Untrusted, sys.writer);
        let a5 = b.actor("driver", Placement::Untrusted, eactors::from_fn(driver));
        b.worker(&[a1, a2, a5]);
        b.worker(&[a3]);
        b.worker(&[a4]);
        Runtime::start(&p, b.build().expect("valid"))
            .expect("start")
            .join();
    }
}

#[test]
fn directory_shared_across_actor_sets() {
    // Two independent actor sets can share one MboxDirectory through the
    // same arena without handle collisions.
    let pool = Arena::new("pool", 16, 64);
    let dir = MboxDirectory::new();
    let handles: Vec<_> = (0..8)
        .map(|_| dir.register(Mbox::new(pool.clone(), 4)))
        .collect();
    let unique: std::collections::HashSet<_> = handles.iter().map(|h| h.0).collect();
    assert_eq!(unique.len(), 8);
    for h in &handles {
        assert!(dir.get(*h).is_some());
    }
}
