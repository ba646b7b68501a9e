//! Socket front-end scaling: N concurrent clients against one reactor,
//! push (event subscriptions) vs poll (a client-side status loop).
//!
//! Not in the paper — the serving layer generalizes the paper's single-run
//! model — but the reactor's claim is concrete: a fixed three-thread front
//! end should hold per-job latency roughly flat as connections grow, while
//! pushed events eliminate the poll traffic entirely. Wall-clock numbers
//! here are host time (thread scheduling + socket IO), not the simulated
//! device clock the tables use.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tracto_bench::TableWriter;
use tracto_proto::{ChainSpec, DatasetSpec, Endpoint, JobKind, JobState, RemoteService, TrackSpec};
use tracto_serve::{ServiceConfig, SocketServer, TractoService};

/// A tiny deterministic tracking job; every client reuses the same cache
/// key so the measurement is front-end overhead, not MCMC time.
fn wire_job() -> tracto_proto::JobSpec {
    let mut spec = tracto_proto::JobSpec::track(DatasetSpec {
        kind: "single".into(),
        scale: 0.05,
        seed: 3,
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

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Subscribe and wait for the pushed terminal event.
    Push,
    /// Fixed-interval `status` polling (1 ms).
    Poll,
}

struct RunStats {
    wall: Duration,
    mean: Duration,
    worst: Duration,
    polls: u64,
}

/// Drive `clients` concurrent connections through one fresh server; each
/// submits one job and follows it to its terminal state.
fn run(clients: usize, mode: Mode) -> RunStats {
    let dir = std::env::temp_dir().join(format!(
        "tracto_connbench_{}_{}",
        std::process::id(),
        clients
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let service = Arc::new(TractoService::start(
        ServiceConfig::builder()
            .queue_capacity(2 * clients.max(8))
            .build()
            .unwrap(),
    ));
    let server = SocketServer::bind(
        Arc::clone(&service),
        &Endpoint::Unix(dir.join("tracto.sock")),
    )
    .unwrap();
    let endpoint = server.endpoint().clone();

    let latencies: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let endpoint = endpoint.clone();
            let latencies = Arc::clone(&latencies);
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || {
                    let mut client =
                        RemoteService::connect(&endpoint, &format!("bench-{i}")).unwrap();
                    let t0 = Instant::now();
                    let job = client.submit(wire_job()).unwrap();
                    let state = match mode {
                        Mode::Push => client.follow_job(job, None, |_| {}).unwrap(),
                        Mode::Poll => loop {
                            match client.status(job).unwrap() {
                                JobState::Pending => std::thread::sleep(Duration::from_millis(1)),
                                settled => break settled,
                            }
                        },
                    };
                    assert!(matches!(state, JobState::Done(_)), "{state:?}");
                    latencies.lock().unwrap().push(t0.elapsed());
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let wall = started.elapsed();
    let polls = server.poll_requests();
    server.stop();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    let lat = latencies.lock().unwrap();
    let mean = lat.iter().sum::<Duration>() / lat.len() as u32;
    let worst = lat.iter().max().copied().unwrap_or_default();
    RunStats {
        wall,
        mean,
        worst,
        polls,
    }
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

fn main() {
    let mut w = TableWriter::new(
        "connections_vs_latency",
        "Socket front end: concurrent connections vs job latency, pushed events vs 1 ms status polling (host wall-clock; one tiny cached tracking job per client)",
    );
    let widths = [6, 6, 9, 9, 9, 8];
    w.row(
        &["conns", "mode", "wall_ms", "mean_ms", "max_ms", "polls"].map(str::to_string),
        &widths,
    );
    for &clients in &[1usize, 8, 64, 256] {
        for mode in [Mode::Push, Mode::Poll] {
            let stats = run(clients, mode);
            if mode == Mode::Push {
                assert_eq!(stats.polls, 0, "push mode must serve zero polls");
            }
            w.row(
                &[
                    clients.to_string(),
                    if mode == Mode::Push { "push" } else { "poll" }.to_string(),
                    fmt_ms(stats.wall),
                    fmt_ms(stats.mean),
                    fmt_ms(stats.worst),
                    stats.polls.to_string(),
                ],
                &widths,
            );
        }
    }
    w.line("");
    w.line("The reactor multiplexes every connection onto 3 fixed threads; push");
    w.line("mode follows event subscriptions (zero poll requests, asserted above),");
    w.line("poll mode replays a client-side 1 ms status loop.");
    w.save();
}
