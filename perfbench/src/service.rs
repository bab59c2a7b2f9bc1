//! The XMPP deployment `chat` and `session_churn` measure: a trusted
//! service with two instances over the auto-selected network backend.

use std::sync::Arc;
use std::time::{Duration, Instant};

use enet::NetBackend;
use sgx_sim::Platform;
use xmpp::{start_service, Assignment, RunningService, XmppConfig};

use crate::layers::Probe;
use crate::{sys, Outcome};

/// XMPP instances: one per core of the 2-CPU reference host.
pub const INSTANCES: usize = 2;

/// Service starts per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

pub struct Service {
    pub platform: Platform,
    pub net: Arc<dyn NetBackend>,
    pub backend: &'static str,
    /// The port the service listens on.
    pub port: u16,
    pub svc: RunningService,
}

impl Service {
    /// Build a platform, select the backend and start the service on
    /// `port`.
    pub fn start(assignment: Assignment, port: u16) -> Service {
        let platform = Platform::builder().build();
        let (net, backend, _reason) = enet::auto_backend(platform.costs());
        let svc = start_service(
            &platform,
            net.clone(),
            &XmppConfig {
                instances: INSTANCES,
                trusted: true,
                assignment,
                port,
                ..XmppConfig::default()
            },
        )
        .expect("the benchmark's service configuration is valid");
        Service {
            platform,
            net,
            backend,
            port,
            svc,
        }
    }

    pub fn probe(&self) -> Probe {
        Probe::take(self.svc.runtime.metrics(), self.platform.stats())
    }

    /// Σ mutation epochs of the directory's stores (one per write).
    pub fn pos_writes(&self) -> u64 {
        self.svc
            .directory
            .pos()
            .stores()
            .iter()
            .map(|s| s.dirty_epoch())
            .sum()
    }

    pub fn pos_bytes(&self) -> u64 {
        self.svc.directory.pos().memory_bytes()
    }

    /// Fail the run if the service broke an invariant: an mbox used
    /// outside its proven cardinality, or a frame it could not parse.
    pub fn check_invariants(&self, out: &mut Outcome) {
        let m = self.svc.runtime.metrics();
        for name in ["mbox_cardinality_violations", "xmpp_bad_frames"] {
            let v = m
                .counter(name)
                .unwrap_or_else(|| panic!("registry has no counter `{name}`"));
            if v > 0 {
                eprintln!("{name} = {v}");
                out.correct = false;
            }
        }
    }

    /// Stop the service and wait until its io_uring buffers are unpinned.
    pub fn shutdown(self) {
        self.svc.shutdown();
        wait_for_unpinned();
    }
}

/// Start the service `reps` times, timing each start up to the moment
/// `ready` has brought it to its first operation, and keep the last one
/// running. Returns it, what `ready` made for it, and the median set-up
/// time in seconds.
pub fn set_up<T>(
    reps: usize,
    assignment: Assignment,
    port: u16,
    mut ready: impl FnMut(&Service) -> T,
) -> (Service, T, f64) {
    let mut times = Vec::with_capacity(reps);
    loop {
        let began = Instant::now();
        let s = Service::start(assignment, port);
        let made = ready(&s);
        times.push(began.elapsed().as_secs_f64());
        if times.len() >= reps.max(1) {
            return (s, made, crate::stats::median(&times));
        }
        drop(made);
        s.shutdown();
    }
}

/// Wait (up to 3 s) until the kernel has released the io_uring buffers a
/// shut-down service had registered. Fixed-buffer registration draws on
/// the per-user locked-memory budget (8 MiB on the reference host), and
/// rings tear down asynchronously (about 50 ms there): starting the next
/// service sooner makes some of its registrations fail at random, and
/// with them its read path and its memory figure.
fn wait_for_unpinned() {
    let began = Instant::now();
    while sys::pinned_kib() > 0.0 && began.elapsed() < Duration::from_secs(3) {
        std::thread::sleep(Duration::from_millis(5));
    }
}
