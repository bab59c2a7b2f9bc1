//! io_uring backend integration tests: syscall amortization and torn
//! submission under a tiny ring. The behaviour every ring shares
//! (cancellation, short writes, accepts, wakers) is held to one contract
//! in `ring_contract.rs`; the echo service through a real runtime runs
//! over every backend in `system_actors.rs`.
//!
//! Every test begins by probing the kernel and **skips with a message**
//! where io_uring is unavailable (seccomp'd CI runners, old kernels) —
//! absence of the facility must not read as a failure.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use eactors::arena::Arena;
use eactors::obs::MetricsRegistry;
use enet::{Completion, NetBackend, SocketId, UringBackend};
use sgx_sim::{CostModel, Platform};

fn platform() -> Platform {
    Platform::builder().cost_model(CostModel::zero()).build()
}

/// The probed backend, or `None` (with a skip message) when the kernel
/// lacks io_uring.
fn probe_backend(test: &str) -> Option<(Platform, UringBackend)> {
    match UringBackend::probe() {
        Ok(()) => {
            let p = platform();
            let net = UringBackend::new(p.costs());
            Some((p, net))
        }
        Err(reason) => {
            eprintln!("skipping {test}: io_uring unavailable ({reason})");
            None
        }
    }
}

/// `pairs` connected loopback socket pairs on one listener.
fn socket_pairs(net: &UringBackend, pairs: usize) -> Vec<(SocketId, SocketId)> {
    let l = net.listen(1).unwrap();
    (0..pairs)
        .map(|_| {
            let c = net.connect(1).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            let s = loop {
                if let Some(s) = net.accept(l).unwrap() {
                    break s;
                }
                assert!(Instant::now() < deadline, "accept timed out");
                std::thread::yield_now();
            };
            (c, s)
        })
        .collect()
}

/// Reap until `want` completions have arrived (or a deadline passes).
fn reap_until(ring: &mut dyn enet::CompletionRing, completions: &mut Vec<Completion>, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while completions.len() < want {
        ring.reap(completions, Some(Duration::from_millis(50)))
            .unwrap();
        assert!(
            Instant::now() < deadline,
            "reap timed out at {} of {want} completions",
            completions.len()
        );
    }
}

/// The tentpole claim, measured: data already waiting on N sockets is
/// collected with **fewer `io_uring_enter` calls than completions** —
/// the per-event syscall is gone.
#[test]
fn batched_receives_amortize_enter_syscalls() {
    const PAIRS: usize = 8;
    let Some((_p, net)) = probe_backend("batched_receives_amortize_enter_syscalls") else {
        return;
    };
    let mut ring = net.completion_ring();
    let registry = MetricsRegistry::new();
    ring.bind_obs(&registry);

    let pairs = socket_pairs(&net, PAIRS);
    // Data is on the wire *before* any receive is submitted, so every
    // read completes inline during one submit-and-wait.
    for (i, (c, _s)) in pairs.iter().enumerate() {
        assert!(net.send(*c, format!("stanza-{i}").as_bytes()).unwrap() > 0);
    }
    std::thread::sleep(Duration::from_millis(50)); // let loopback settle

    let arena = Arena::new("uring-amortize", 32, 256);
    for (_c, s) in &pairs {
        let node = arena.try_pop().unwrap();
        ring.recv_into(*s, node, 0).unwrap();
    }
    let mut completions = Vec::new();
    reap_until(ring.as_mut(), &mut completions, PAIRS);

    let mut seen = 0;
    for c in &completions {
        if let Completion::Recv { result, .. } = c {
            assert!(matches!(result, Ok(n) if *n > 0));
            seen += 1;
        }
    }
    assert_eq!(seen, PAIRS);

    let sqe = registry.counter_value("net_sqe_submitted").unwrap();
    let cqe = registry.counter_value("net_cqe_reaped").unwrap();
    let enters = registry.counter_value("net_enter_syscalls").unwrap();
    assert!(sqe >= PAIRS as u64, "submitted {sqe} SQEs");
    assert!(cqe >= PAIRS as u64, "reaped {cqe} CQEs");
    assert!(
        enters < cqe,
        "no amortization: {enters} enters for {cqe} completions"
    );
}

/// Torn submission: a 4-entry ring takes 16 concurrent operations. The
/// overflow parks in the backlog and drains across reaps — every
/// payload still arrives, no SQE is lost.
#[test]
fn tiny_ring_retries_backlogged_sqes_without_loss() {
    const PAIRS: usize = 16;
    if let Err(reason) = UringBackend::probe() {
        eprintln!("skipping tiny_ring_retries_backlogged_sqes_without_loss: {reason}");
        return;
    }
    let p = platform();
    let net = UringBackend::with_ring_entries(p.costs(), 4);
    let mut ring = net.completion_ring();

    let pairs = socket_pairs(&net, PAIRS);
    for (i, (c, _s)) in pairs.iter().enumerate() {
        assert!(net.send(*c, format!("torn-{i:02}").as_bytes()).unwrap() > 0);
    }
    std::thread::sleep(Duration::from_millis(50));

    let arena = Arena::new("uring-torn", 32, 256);
    for (_c, s) in &pairs {
        let node = arena.try_pop().unwrap();
        ring.recv_into(*s, node, 0).unwrap();
    }
    let mut completions = Vec::new();
    reap_until(ring.as_mut(), &mut completions, PAIRS);

    // The ring reports lengths but leaves `set_len` to the READER, so
    // the payload is read straight from the node's buffer.
    let mut payloads: Vec<String> = Vec::new();
    for c in completions.drain(..) {
        if let Completion::Recv {
            mut node,
            offset,
            result: Ok(n),
            ..
        } = c
        {
            payloads
                .push(String::from_utf8_lossy(&node.buffer_mut()[offset..offset + n]).into_owned());
        }
    }
    payloads.sort();
    let want: Vec<String> = (0..PAIRS).map(|i| format!("torn-{i:02}")).collect();
    assert_eq!(payloads, want, "every backlogged receive must complete");
}
