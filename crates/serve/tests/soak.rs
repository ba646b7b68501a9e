//! Reactor soak: hundreds of concurrent socket clients multiplexed onto
//! the fixed-size reactor, every job followed to its terminal state via
//! pushed events — zero `status`/`await` polls server-side — under a
//! seeded chaos schedule (`TRACTO_CHAOS_SEED`, default 1).
//!
//! Expensive by design, so it is `#[ignore]`d; CI's `soak` job runs it
//! with `-- --ignored` across several chaos seeds. The same job checks
//! the reactor's idle latency: a run of pings against an idle server must
//! be answered well inside the reactor's 1 ms idle tick.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracto_proto::{
    ChainSpec, DatasetSpec, Endpoint, JobKind, JobState, Outcome, RemoteService, TrackSpec,
};
use tracto_serve::{ServiceConfig, SocketServer, TractoService};

/// Concurrent socket clients. The acceptance bar is ≥ 300; a few more
/// exercise the same paths harder for free.
const CLIENTS: usize = 320;

fn chaos_seed() -> u64 {
    std::env::var("TRACTO_CHAOS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// A tiny tracking job; `salt` spreads clients over a handful of distinct
/// cache keys so the run exercises both cache hits and batched misses.
fn wire_job(salt: u64) -> tracto_proto::JobSpec {
    let mut spec = tracto_proto::JobSpec::track(DatasetSpec {
        kind: "single".into(),
        scale: 0.05,
        seed: 3 + (salt % 4),
        snr: None,
        upload: None,
    });
    spec.chain = ChainSpec {
        burnin: 30,
        samples: 2,
        interval: 1,
    };
    spec.seed = 9;
    spec.kind = JobKind::Track(TrackSpec {
        step: 0.1,
        threshold: 0.9,
        max_steps: 60,
    });
    spec
}

/// Threads currently alive in this process whose name starts with
/// `tracto-reactor` (Linux-only introspection; the suite targets Linux).
fn reactor_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| t.ok())
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .filter(|name| name.trim_end().starts_with("tracto-reactor"))
        .count()
}

#[test]
#[ignore = "soak: hundreds of clients; run explicitly or via CI's soak job"]
fn hundreds_of_clients_follow_pushed_events_with_zero_polls() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tracto_soak_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let service = Arc::new(TractoService::start(
        ServiceConfig::builder()
            .devices(3)
            .queue_capacity(2 * CLIENTS)
            .fault_seed(chaos_seed())
            .build()
            .unwrap(),
    ));
    let endpoint = Endpoint::Unix(dir.join("tracto.sock"));
    let server = SocketServer::bind(Arc::clone(&service), &endpoint).unwrap();
    let endpoint = server.endpoint().clone();

    // Freshly spawned threads name themselves on first schedule; give
    // them a moment before counting.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while reactor_threads() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(
        (1..=8).contains(&reactor_threads()),
        "reactor must be a small fixed pool, found {} threads",
        reactor_threads()
    );

    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let endpoint = endpoint.clone();
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut client =
                        RemoteService::connect(&endpoint, &format!("soak-{i}")).unwrap();
                    let job = client.submit(wire_job(i as u64)).unwrap();
                    match client.follow_job(job, None, |_| {}).unwrap() {
                        JobState::Done(Outcome::Track { .. }) => {}
                        other => panic!("client {i}: job {job} ended {other:?}"),
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The whole fleet rode pushes: nobody fell back to polling, and the
    // front end never grew beyond its fixed thread budget.
    assert_eq!(server.remote_jobs(), CLIENTS as u64);
    assert_eq!(
        server.poll_requests(),
        0,
        "v2 clients must follow events, not poll"
    );
    assert!(
        reactor_threads() <= 8,
        "reactor grew past its fixed pool: {} threads",
        reactor_threads()
    );

    server.stop();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The reactor's longest idle park; a ping must not wait out this tick.
const IDLE_TICK: Duration = Duration::from_millis(1);

#[test]
#[ignore = "timing: run in release, via CI's soak job"]
fn idle_server_answers_pings_inside_the_idle_tick() {
    let dir: PathBuf = std::env::temp_dir().join(format!("tracto_ping_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = Arc::new(TractoService::start(ServiceConfig::default()));
    let server =
        SocketServer::bind(Arc::clone(&service), &Endpoint::Unix(dir.join("t.sock"))).unwrap();
    let mut client = RemoteService::connect(server.endpoint(), "ping-rtt").unwrap();
    // Let the reactor back off to its longest park first.
    std::thread::sleep(Duration::from_millis(50));
    let mut rtts: Vec<Duration> = (0..200)
        .map(|_| {
            let t = Instant::now();
            client.ping().unwrap();
            t.elapsed()
        })
        .collect();
    rtts.sort();
    let p50 = rtts[rtts.len() / 2];
    assert!(
        p50 < IDLE_TICK,
        "ping p50 {p50:?} over 200 pings is not below the {IDLE_TICK:?} idle tick"
    );
    drop(client);
    server.stop();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
