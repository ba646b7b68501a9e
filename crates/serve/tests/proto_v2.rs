//! Protocol conformance for pushed event subscriptions and the chunked
//! upload path — including hostile chunks and mid-upload disconnects,
//! which must leave no staging files behind. The `hello` refusal rule is
//! covered by `proto_socket.rs`.

use std::collections::{HashMap, HashSet};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tracto::loaded::{acq_to_text, encode_trds};
use tracto_phantom::datasets;
use tracto_proto::{
    lengths_digest, read_frame, write_frame, ChainSpec, DatasetSpec, Endpoint, Event, JobKind,
    JobState, Outcome, RemoteService, Request, Response, TrackSpec, PROTOCOL_VERSION,
};
use tracto_serve::{JobSpec, ServiceConfig, SocketServer, TractoService};
use tracto_volume::Dim3;

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tracto_proto_v2_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

struct Fixture {
    server: Option<SocketServer>,
    service: Option<Arc<TractoService>>,
    dir: PathBuf,
}

impl Fixture {
    /// A server with `--state-dir` (so uploads are enabled).
    fn start(tag: &str) -> Fixture {
        let dir = tmp(tag);
        let service = Arc::new(TractoService::start(
            ServiceConfig::builder()
                .state_dir(dir.join("state"))
                .build()
                .unwrap(),
        ));
        let endpoint = Endpoint::Unix(dir.join("tracto.sock"));
        let server = SocketServer::bind(Arc::clone(&service), &endpoint).unwrap();
        Fixture {
            server: Some(server),
            service: Some(service),
            dir,
        }
    }

    fn server(&self) -> &SocketServer {
        self.server.as_ref().unwrap()
    }

    fn service(&self) -> &Arc<TractoService> {
        self.service.as_ref().unwrap()
    }

    fn connect(&self) -> RemoteService {
        RemoteService::connect(self.server().endpoint(), "v2-test").unwrap()
    }

    fn raw(&self) -> UnixStream {
        let Endpoint::Unix(path) = self.server().endpoint() else {
            panic!("fixture binds unix sockets");
        };
        UnixStream::connect(path).unwrap()
    }

    fn staging_dir(&self) -> PathBuf {
        self.dir.join("state").join("uploads")
    }

    fn staging_parts(&self) -> usize {
        match std::fs::read_dir(self.staging_dir()) {
            Err(_) => 0,
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "part"))
                .count(),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.server.take().unwrap().stop();
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A tiny deterministic tracking job against a phantom recipe.
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

/// The same tiny job, but against an uploaded volume.
fn wire_job_for_upload(hash: &str) -> tracto_proto::JobSpec {
    let mut spec = wire_job();
    spec.dataset = DatasetSpec::uploaded(hash);
    spec
}

/// A small TRDS blob to upload.
fn trds_blob() -> Vec<u8> {
    let ds = datasets::single_bundle(Dim3::new(6, 5, 4), None, 7);
    encode_trds(&ds.dwi, &ds.wm_mask, &ds.acq).unwrap()
}

fn hello_raw(stream: &mut UnixStream, version: u32) -> Response {
    let req = Request::Hello {
        version,
        client: "raw".into(),
    };
    write_frame(stream, &req.encode()).unwrap();
    let payload = read_frame(stream).unwrap().expect("hello reply");
    Response::decode(&payload).unwrap()
}

// ---------------------------------------------------------------------
// Subscriptions and pushed events
// ---------------------------------------------------------------------

#[test]
fn subscriber_sees_lifecycle_events_without_polling() {
    let fx = Fixture::start("events");
    let mut watcher = fx.connect();
    watcher.subscribe(None).unwrap();

    let mut submitter = fx.connect();
    let job = submitter.submit(wire_job()).unwrap();

    // The watcher receives admitted → … → terminal as pushes.
    let mut kinds: Vec<String> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(!remaining.is_zero(), "no terminal event; saw {kinds:?}");
        let ev: Event = watcher
            .next_event(Some(remaining))
            .unwrap()
            .expect("event before timeout");
        assert_eq!(ev.job, job);
        kinds.push(ev.kind.clone());
        if ev.is_terminal() {
            assert_eq!(ev.kind, "completed");
            assert!(
                matches!(ev.state, JobState::Done(Outcome::Track { .. })),
                "terminal event carries the full final state: {:?}",
                ev.state
            );
            break;
        }
    }
    assert_eq!(kinds.first().map(String::as_str), Some("admitted"));

    // The watcher never polled: awaiting via subscription keeps the
    // server's poll counter untouched.
    assert_eq!(fx.server().poll_requests(), 0, "pushes must replace polls");
}

#[test]
fn late_subscriber_gets_a_synthetic_terminal_event() {
    let fx = Fixture::start("late");
    let mut client = fx.connect();
    let job = client.submit(wire_job()).unwrap();
    let state = client.follow_job(job, None, |_| {}).unwrap();
    assert!(matches!(state, JobState::Done(_)), "{state:?}");

    // Subscribing after the fact pushes the terminal event immediately —
    // a late subscriber can never hang.
    let mut late = fx.connect();
    late.subscribe(Some(job)).unwrap();
    let ev = late
        .next_event(Some(Duration::from_secs(10)))
        .unwrap()
        .expect("synthetic terminal event");
    assert_eq!(ev.job, job);
    assert!(ev.is_terminal());
    assert_eq!(fx.server().poll_requests(), 0);
}

/// A cache-hit estimation job can be popped and settled the moment it is
/// queued; a subscriber must still see its `admitted` event first.
#[test]
fn admitted_precedes_the_terminal_event_for_every_job() {
    const JOBS: usize = 1000;
    let fx = Fixture::start("order");
    let mut watcher = fx.connect();
    watcher.subscribe(None).unwrap();
    let mut client = fx.connect();
    let mut spec = wire_job();
    spec.kind = JobKind::Estimate;
    // Warm the sample cache, so every measured job is a cache hit.
    let warm = client.submit(spec.clone()).unwrap();
    let state = client.await_job(warm, None).unwrap();
    assert!(matches!(state, JobState::Done(_)), "{state:?}");

    // Submit back to back; a full queue answers `capacity`, so back off.
    let jobs: HashSet<u64> = (0..JOBS)
        .map(|_| loop {
            match client.submit(spec.clone()) {
                Ok(job) => break job,
                Err(e) if e.kind() == tracto_trace::ErrorKind::Capacity => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("submit: {e}"),
            }
        })
        .collect();
    let mut admitted: HashMap<u64, u64> = HashMap::new();
    let mut terminal: HashMap<u64, u64> = HashMap::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while terminal.len() < JOBS {
        let remaining = deadline.saturating_duration_since(Instant::now());
        assert!(!remaining.is_zero(), "{} of {JOBS} settled", terminal.len());
        let ev = watcher
            .next_event(Some(remaining))
            .unwrap()
            .expect("event before timeout");
        if !jobs.contains(&ev.job) {
            continue;
        }
        if ev.kind == "admitted" {
            admitted.insert(ev.job, ev.seq);
        } else if ev.is_terminal() {
            assert_eq!(ev.kind, "completed", "{ev:?}");
            terminal.insert(ev.job, ev.seq);
        }
    }
    for job in &jobs {
        let first = admitted
            .get(job)
            .unwrap_or_else(|| panic!("job {job} has no admitted event"));
        let last = terminal[job];
        assert!(
            *first < last,
            "job {job}: admitted seq {first} is not below terminal seq {last}"
        );
    }
}

// ---------------------------------------------------------------------
// Chunked uploads
// ---------------------------------------------------------------------

#[test]
fn uploaded_volume_runs_bit_identically_through_both_doors() {
    let fx = Fixture::start("upload");
    let blob = trds_blob();

    let mut client = fx.connect();
    let hash = client.upload(&blob).unwrap();

    // Re-uploading the same bytes is a no-op (content-addressed dedupe).
    let again = client.upload(&blob).unwrap();
    assert_eq!(again, hash);
    assert_eq!(fx.staging_parts(), 0, "committed uploads leave no staging");

    // Remote door: submit against the uploaded volume.
    let wire = wire_job_for_upload(&hash);
    let job = client.submit(wire.clone()).unwrap();
    let state = client.await_job(job, None).unwrap();
    let JobState::Done(Outcome::Track {
        lengths_digest: remote_digest,
        total_steps: remote_steps,
        ..
    }) = state
    else {
        panic!("uploaded-volume job did not finish: {state:?}");
    };

    // In-process door: the same wire spec through the same service.
    let result = fx
        .service()
        .submit(JobSpec::from_wire(&wire).unwrap())
        .wait_track()
        .unwrap();
    assert_eq!(result.tracking.total_steps, remote_steps);
    assert_eq!(
        lengths_digest(&result.tracking.lengths_by_sample),
        remote_digest,
        "remote and in-process runs on an uploaded volume must be bit-identical"
    );
}

#[test]
fn submitting_an_unknown_upload_hash_fails_typed() {
    let fx = Fixture::start("nohash");
    let mut client = fx.connect();
    let job = client
        .submit(wire_job_for_upload("00000000000000aa"))
        .unwrap();
    match client.await_job(job, None).unwrap() {
        JobState::Failed { kind, message } => {
            assert_eq!(kind, "config");
            assert!(message.contains("unknown upload volume"), "{message}");
        }
        other => panic!("expected config failure, got {other:?}"),
    }
}

#[test]
fn non_finite_upload_fails_its_job_typed_and_the_server_keeps_serving() {
    let fx = Fixture::start("nonfinite");
    let mut client = fx.connect();
    let ds = datasets::single_bundle(Dim3::new(6, 5, 4), None, 7);
    let voxel = ds.wm_mask.indices()[0];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut dwi = ds.dwi.clone();
        dwi.voxel_at_mut(voxel)[1] = bad;
        let hash = client
            .upload(&encode_trds(&dwi, &ds.wm_mask, &ds.acq).unwrap())
            .unwrap();
        let job = client.submit(wire_job_for_upload(&hash)).unwrap();
        // Bounded: a job whose worker panicked would never settle.
        match client.await_job(job, Some(60_000)).unwrap() {
            JobState::Failed { kind, message } => {
                assert_eq!(kind, "format", "{bad}: {message}");
                assert!(message.contains("non-finite"), "{bad}: {message}");
            }
            other => panic!("{bad}: expected a format failure, got {other:?}"),
        }
    }
    // The same server still runs the next job to completion.
    let hash = client.upload(&trds_blob()).unwrap();
    let job = client.submit(wire_job_for_upload(&hash)).unwrap();
    let state = client.await_job(job, Some(60_000)).unwrap();
    assert!(
        matches!(state, JobState::Done(Outcome::Track { .. })),
        "clean upload after the bad ones: {state:?}"
    );
}

#[test]
fn absurd_protocol_upload_fails_its_job_typed_and_the_server_keeps_serving() {
    let fx = Fixture::start("badacq");
    let mut client = fx.connect();
    let ds = datasets::single_bundle(Dim3::new(6, 5, 4), None, 7);
    let blob = trds_blob();
    let good = acq_to_text(&ds.acq);
    // The acq section is the container's last: swap its text for one whose
    // third row is `row`.
    let head = &blob[..blob.len() - 8 - good.len()];
    for (row, needle) in [
        ("nan 1 0 0", "non-finite"),
        ("1000 nan 0 0", "non-finite"),
        ("-1000 1 0 0", "negative b-value"),
        ("1e300 1 0 0", "ceiling"),
    ] {
        let text: String = good
            .lines()
            .enumerate()
            .map(|(i, l)| format!("{}\n", if i == 2 { row } else { l }))
            .collect();
        let mut bad = head.to_vec();
        bad.extend_from_slice(&(text.len() as u64).to_be_bytes());
        bad.extend_from_slice(text.as_bytes());
        let hash = client.upload(&bad).unwrap();
        let job = client.submit(wire_job_for_upload(&hash)).unwrap();
        // Bounded: a job whose worker panicked would never settle.
        match client.await_job(job, Some(60_000)).unwrap() {
            JobState::Failed { kind, message } => {
                assert_eq!(kind, "format", "{row}: {message}");
                assert!(message.contains("acq line 3"), "{row}: {message}");
                assert!(message.contains(needle), "{row}: {message}");
            }
            other => panic!("{row}: expected a format failure, got {other:?}"),
        }
    }
    // The same server still runs the next job to completion.
    let hash = client.upload(&blob).unwrap();
    let job = client.submit(wire_job_for_upload(&hash)).unwrap();
    let state = client.await_job(job, Some(60_000)).unwrap();
    assert!(
        matches!(state, JobState::Done(Outcome::Track { .. })),
        "clean upload after the bad ones: {state:?}"
    );
}

#[test]
fn hostile_upload_chunks_are_typed_errors_and_survivable() {
    let fx = Fixture::start("hostile");
    let mut stream = fx.raw();
    match hello_raw(&mut stream, PROTOCOL_VERSION) {
        Response::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected hello, got {other:?}"),
    }
    let expect_error = |stream: &mut UnixStream, needle: &str| {
        let payload = read_frame(stream).unwrap().expect("error reply");
        match Response::decode(&payload).unwrap() {
            Response::Error { message, .. } => {
                assert!(message.contains(needle), "{message} !~ {needle}")
            }
            other => panic!("expected error, got {other:?}"),
        }
    };

    // A malformed hash is refused at begin.
    let req = Request::UploadBegin {
        hash: "not-a-hash".into(),
        len: 64,
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    expect_error(&mut stream, "hash");

    // Chunks for an upload that was never begun.
    let hash = "00ff00ff00ff00ff".to_string();
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 0,
        data: tracto_proto::b64::encode(b"data"),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    expect_error(&mut stream, "upload");

    // Begin, then a chunk at the wrong offset.
    let req = Request::UploadBegin {
        hash: hash.clone(),
        len: 1024,
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("ready reply");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::UploadReady {
            offset: 0,
            complete: false
        }
    ));
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 512,
        data: tracto_proto::b64::encode(b"data"),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    expect_error(&mut stream, "offset");

    // A chunk overflowing the declared length.
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 0,
        data: tracto_proto::b64::encode(&vec![0u8; 2048]),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    expect_error(&mut stream, "declared");

    // Not base64 at all.
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 0,
        data: "!!!not base64!!!".into(),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    expect_error(&mut stream, "base64");

    // Commit before all declared bytes arrived: refused, staging deleted.
    write_frame(
        &mut stream,
        &Request::UploadCommit { hash: hash.clone() }.encode(),
    )
    .unwrap();
    expect_error(&mut stream, "declared");

    // Content that does not hash to its declared name is refused at
    // commit and the staging file is destroyed.
    let lying = Request::UploadBegin {
        hash: hash.clone(),
        len: 4,
    };
    write_frame(&mut stream, &lying.encode()).unwrap();
    let _ = read_frame(&mut stream).unwrap().expect("ready reply");
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 0,
        data: tracto_proto::b64::encode(b"liar"),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("ack reply");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::UploadAck { received: 4 }
    ));
    write_frame(
        &mut stream,
        &Request::UploadCommit { hash: hash.clone() }.encode(),
    )
    .unwrap();
    expect_error(&mut stream, "hashes to");
    assert_eq!(fx.staging_parts(), 0, "failed commits must clean staging");

    // After all that abuse the connection still serves requests.
    write_frame(&mut stream, &Request::Metrics.encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("metrics reply");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Metrics(_)
    ));
}

#[test]
fn mid_upload_disconnect_leaves_no_staging_files() {
    let fx = Fixture::start("abort");
    let blob = trds_blob();
    let hash = format!("{:016x}", tracto_proto::content_digest(&blob));

    let mut stream = fx.raw();
    match hello_raw(&mut stream, PROTOCOL_VERSION) {
        Response::Hello { .. } => {}
        other => panic!("expected hello, got {other:?}"),
    }
    let req = Request::UploadBegin {
        hash: hash.clone(),
        len: blob.len() as u64,
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    let _ = read_frame(&mut stream).unwrap().expect("ready reply");
    let req = Request::UploadChunk {
        hash: hash.clone(),
        offset: 0,
        data: tracto_proto::b64::encode(&blob[..16]),
    };
    write_frame(&mut stream, &req.encode()).unwrap();
    let _ = read_frame(&mut stream).unwrap().expect("ack reply");
    assert_eq!(fx.staging_parts(), 1, "chunk must be staged on disk");

    // Vanish mid-upload. The reactor reaps the connection and deletes
    // its staging file.
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(10);
    while fx.staging_parts() != 0 {
        assert!(
            Instant::now() < deadline,
            "staging file orphaned after disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn uploads_without_state_dir_are_a_config_error() {
    let dir = tmp("nostate");
    let service = Arc::new(TractoService::start(
        ServiceConfig::builder().build().unwrap(),
    ));
    let server =
        SocketServer::bind(Arc::clone(&service), &Endpoint::Unix(dir.join("t.sock"))).unwrap();
    let mut client = RemoteService::connect(server.endpoint(), "nostate").unwrap();
    let err = client.upload(b"whatever").unwrap_err();
    assert_eq!(err.kind(), tracto_trace::ErrorKind::Config, "{err}");
    assert!(err.to_string().contains("--state-dir"), "{err}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------

#[test]
fn stop_drains_and_closes_live_subscriber_connections() {
    let fx = Fixture::start("teardown");
    let mut watcher = fx.connect();
    watcher.subscribe(None).unwrap();
    let mut submitter = fx.connect();
    let job = submitter.submit(wire_job()).unwrap();
    let state = submitter.await_job(job, None).unwrap();
    assert!(matches!(state, JobState::Done(_)));

    // Stop the server while both connections are live: reads on the
    // client side must observe a clean close, not a hang.
    let server = {
        // Steal the server out of the fixture so Drop doesn't double-stop.
        let mut fx = fx;
        let server = fx.server.take().unwrap();
        drop(fx.service.take());
        let dir = std::mem::take(&mut fx.dir);
        std::mem::forget(fx);
        let _ = std::fs::remove_dir_all(&dir);
        server
    };
    server.stop();
    // Events pushed before the stop may still be buffered; drain them —
    // the stream beneath must then observe a clean close, not a hang.
    let err = loop {
        match watcher.next_event(Some(Duration::from_secs(5))) {
            Ok(Some(_)) => continue,
            Ok(None) => panic!("read timed out: stop left the connection dangling"),
            Err(err) => break err,
        }
    };
    assert_eq!(err.kind(), tracto_trace::ErrorKind::Protocol, "{err}");
}
