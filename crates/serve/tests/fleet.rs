//! Fleet-layer integration: journal replication over the socket, member
//! takeover, and the consistent-hash coordinator — all in-process, so
//! every timing knob is ours. The cross-process SIGKILL variant lives in
//! `tracto-cli/tests/fleet_e2e.rs`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracto_proto::{
    read_frame, write_frame, ChainSpec, DatasetSpec, Endpoint, JobKind, JobState, Outcome,
    RemoteService, Request, Response, TrackSpec, PROTOCOL_VERSION,
};
use tracto_serve::{
    replay_text, Fleet, FleetConfig, JobJournal, ReplicaStore, ServiceConfig, SocketServer,
    TractoService,
};
use tracto_trace::Tracer;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tracto_fleet_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A tiny deterministic tracking job; `seed` varies placement and result.
fn wire_job(seed: u64) -> tracto_proto::JobSpec {
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
    spec.seed = seed;
    spec.kind = JobKind::Track(TrackSpec {
        step: 0.1,
        threshold: 0.9,
        max_steps: 60,
    });
    spec
}

fn digest_of(state: &JobState) -> u64 {
    match state {
        JobState::Done(Outcome::Track { lengths_digest, .. }) => *lengths_digest,
        other => panic!("expected a finished track job, got {other:?}"),
    }
}

/// Write a journal with a mix of finished and unfinished jobs; return its
/// raw lines and the ids `recover()` would re-enqueue.
fn sample_journal(dir: &Path) -> (Vec<String>, Vec<u64>) {
    let (journal, recovery) = JobJournal::open(dir, Tracer::disabled()).unwrap();
    assert!(recovery.jobs.is_empty());
    journal.submitted(1, &wire_job(1));
    journal.completed(1); // finished: must NOT recover
    journal.submitted(2, &wire_job(2));
    journal.checkpointed(2, "abcd1234abcd1234"); // unfinished with checkpoint
    journal.submitted(3, &wire_job(3));
    journal.cancelled(3); // finished
    journal.submitted(4, &wire_job(4)); // unfinished, no checkpoint
    let lines: Vec<String> = journal
        .snapshot_text()
        .lines()
        .map(|l| l.to_string())
        .collect();
    (lines, vec![2, 4])
}

/// Satellite property: for every split point, replaying a replicated
/// prefix plus the live tail yields the same pending-job set as the
/// original host's own recovery scan.
#[test]
fn replica_prefix_plus_tail_replays_like_recover() {
    let dir = tmp("prefix");
    let (lines, want_pending) = sample_journal(&dir.join("src"));
    // Reference: what the original host's restart would recover.
    let (_, reference) = JobJournal::open(&dir.join("src"), Tracer::disabled()).unwrap();
    let ref_ids: Vec<u64> = reference.jobs.iter().map(|j| j.id).collect();
    assert_eq!(ref_ids, want_pending, "fixture sanity");

    for split in 0..=lines.len() {
        let store = ReplicaStore::open(&dir.join(format!("replica{split}"))).unwrap();
        // The prefix arrives as the post-connect reset sync...
        store.append("src", 0, true, &lines[..split]).unwrap();
        // ...and the tail as live acked appends.
        store
            .append("src", split as u64, false, &lines[split..])
            .unwrap();
        let text = store.take("src").unwrap();
        let replica = replay_text(&text, &Tracer::disabled());
        let ids: Vec<u64> = replica.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, ref_ids, "split at {split} diverged");
        assert_eq!(replica.max_seen_id, reference.max_seen_id, "split {split}");
        for (a, b) in replica.jobs.iter().zip(reference.jobs.iter()) {
            assert_eq!(a.spec, b.spec, "spec drift at split {split}");
            assert_eq!(a.checkpoint, b.checkpoint, "checkpoint at split {split}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The journal mirror tees exactly the lines that hit the disk, in order.
#[test]
fn journal_mirror_tees_every_record() {
    let dir = tmp("mirror");
    let (journal, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    journal.set_mirror(tx);
    journal.submitted(7, &wire_job(7));
    journal.completed(7);
    let mut mirrored = Vec::new();
    while let Ok(line) = rx.try_recv() {
        mirrored.push(line);
    }
    let on_disk: Vec<String> = journal
        .snapshot_text()
        .lines()
        .map(|l| l.to_string())
        .collect();
    assert_eq!(mirrored, on_disk);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Member side of takeover over the real socket: replicate a dead host's
/// journal in, adopt it, and the re-enqueued job completes bit-identically
/// to a direct submission of the same spec.
#[test]
fn member_adopts_a_replicated_journal_on_takeover() {
    let dir = tmp("takeover");
    let service = Arc::new(TractoService::start(
        ServiceConfig::builder()
            .state_dir(dir.join("state"))
            .member("standby")
            .build()
            .unwrap(),
    ));
    let server =
        SocketServer::bind(Arc::clone(&service), &Endpoint::Unix(dir.join("b.sock"))).unwrap();
    let mut client = RemoteService::connect(server.endpoint(), "fleet-test").unwrap();
    assert_eq!(client.server_member.as_deref(), Some("standby"));
    assert_eq!(client.ping().unwrap(), "standby");

    // Reference digest: the same spec submitted directly.
    let direct = client.submit(wire_job(11)).unwrap();
    let want = digest_of(&client.await_job(direct, Some(60_000)).unwrap());

    // A dead member's journal: job 5 accepted but unfinished.
    let (lines, _) = {
        let (journal, _) = JobJournal::open(&dir.join("dead"), Tracer::disabled()).unwrap();
        journal.submitted(5, &wire_job(11));
        (
            journal
                .snapshot_text()
                .lines()
                .map(|l| l.to_string())
                .collect::<Vec<_>>(),
            (),
        )
    };
    let next = client
        .replicate("deadhost", 0, true, lines.clone())
        .unwrap();
    assert_eq!(next, lines.len() as u64);

    let pairs = client.takeover("deadhost").unwrap();
    assert_eq!(pairs.len(), 1);
    assert_eq!(pairs[0].0, 5, "original id travels back");
    let adopted = pairs[0].1;
    let got = digest_of(&client.await_job(adopted, Some(60_000)).unwrap());
    assert_eq!(got, want, "adopted re-run must be bit-identical");

    // The replica was consumed: a second takeover has nothing to adopt.
    assert!(client.takeover("deadhost").unwrap().is_empty());
    // A gapped append after the take is refused until the source resets.
    assert!(client
        .replicate("deadhost", lines.len() as u64, false, vec!["x".into()])
        .is_err());

    drop(client);
    server.stop();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

struct Member {
    server: Option<SocketServer>,
    service: Option<Arc<TractoService>>,
}

impl Member {
    fn start(dir: &Path, name: &'static str, replicate_to: Option<&Endpoint>) -> Member {
        let mut builder = ServiceConfig::builder()
            .state_dir(dir.join(name).join("state"))
            .checkpoint_every(1)
            .member(name);
        if let Some(target) = replicate_to {
            builder = builder.replicate_to(target.clone());
        }
        let service = Arc::new(TractoService::start(builder.build().unwrap()));
        let endpoint = Endpoint::Unix(dir.join(format!("{name}.sock")));
        let server = SocketServer::bind(Arc::clone(&service), &endpoint).unwrap();
        Member {
            server: Some(server),
            service: Some(service),
        }
    }

    fn endpoint(&self) -> Endpoint {
        self.server.as_ref().unwrap().endpoint().clone()
    }

    /// Simulate host death: tear the socket down and drop the service.
    fn kill(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        self.service.take();
    }
}

impl Drop for Member {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The full loop: consistent-hash routing, heartbeat death detection,
/// journal takeover, and bit-identical results across a member death —
/// all through one coordinator endpoint the client never has to leave.
#[test]
fn coordinator_routes_jobs_and_survives_member_death() {
    let dir = tmp("coord");
    // b is the standby: a replicates its journal to b.
    let b = Member::start(&dir, "b", None);
    let a = Member::start(&dir, "a", Some(&b.endpoint()));
    let mut a = a;
    let mut config = FleetConfig::new(
        Endpoint::Unix(dir.join("fleet.sock")),
        vec![("a".into(), a.endpoint()), ("b".into(), b.endpoint())],
    );
    config.heartbeat = Duration::from_millis(100);
    config.max_misses = 2;
    let fleet = Fleet::bind(config).unwrap();
    let mut client = RemoteService::connect(fleet.endpoint(), "fleet-test").unwrap();
    assert_eq!(client.server_name, "tracto-fleet");
    assert_eq!(client.ping().unwrap(), "fleet");

    // The coordinator speaks the one protocol version and refuses any
    // other, exactly like a member.
    let Endpoint::Unix(path) = fleet.endpoint() else {
        panic!("fleet binds a unix socket");
    };
    for version in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut raw = std::os::unix::net::UnixStream::connect(path).unwrap();
        let hello = Request::Hello {
            version,
            client: "other version".into(),
        };
        write_frame(&mut raw, &hello.encode()).unwrap();
        let reply = read_frame(&mut raw).unwrap().expect("refusal");
        match Response::decode(&reply).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, "protocol");
                assert!(message.contains("version mismatch"), "{message}");
            }
            other => panic!("v{version} hello must be refused, got {other:?}"),
        }
        assert!(read_frame(&mut raw).unwrap().is_none(), "refusal closes");
    }

    // Placement is deterministic: `route` answers the same member every
    // time, and repeat submissions of one spec land on that member.
    let spec = wire_job(21);
    let first = client.route(spec.clone()).unwrap();
    for _ in 0..3 {
        assert_eq!(client.route(spec.clone()).unwrap(), first);
    }

    // Submit a handful of jobs and collect their fault-free digests.
    let specs: Vec<_> = (20..24).map(wire_job).collect();
    let mut digests = Vec::new();
    for spec in &specs {
        let job = client.submit(spec.clone()).unwrap();
        digests.push(digest_of(&client.await_job(job, Some(60_000)).unwrap()));
    }
    // The coordinator pushes no events: following a job through it is a
    // typed in-band refusal, and the connection carries on.
    let err = client.follow_job(1, Some(1_000), |_| {}).unwrap_err();
    assert_eq!(err.kind(), tracto_trace::ErrorKind::Protocol, "{err}");
    assert!(err.to_string().contains("does not push events"), "{err}");
    let status = client.fleet_status().unwrap();
    assert_eq!(status.jobs_routed, 4);
    assert!(status.members.iter().all(|m| m.alive));
    assert_eq!(status.members.iter().map(|m| m.jobs_routed).sum::<u64>(), 4);

    // Kill member a. The monitor must declare it dead and hand its hash
    // range (and journal) to b.
    a.kill();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.fleet_status().unwrap();
        let a_dead = status.members.iter().any(|m| m.name == "a" && !m.alive);
        if a_dead {
            assert!(status.takeovers >= 1, "death must be a recorded takeover");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "member death was never detected: {status}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Same specs, same coordinator, one member down: identical results.
    for (spec, want) in specs.iter().zip(&digests) {
        let job = client.submit(spec.clone()).unwrap();
        let got = digest_of(&client.await_job(job, Some(60_000)).unwrap());
        assert_eq!(got, *want, "digest changed across member death");
    }
    // Everything now routes to the survivor.
    assert_eq!(client.route(wire_job(21)).unwrap(), "b");

    drop(client);
    fleet.stop();
    drop(b);
    let _ = std::fs::remove_dir_all(&dir);
}
