//! Protocol conformance and cross-process fidelity for the socket front
//! end: bit-identical results vs in-process submission, and hostile-input
//! behavior (malformed frames, bad handshakes, mid-job disconnects) that
//! must produce typed errors — never panics or hangs.

use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use tracto_proto::{
    lengths_digest, read_frame, write_frame, ChainSpec, DatasetSpec, Endpoint, JobKind, JobState,
    Outcome, Priority, RemoteService, Request, Response, TrackSpec, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
};
use tracto_serve::{JobSpec, ServiceConfig, SocketServer, TractoService};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("tracto_proto_it_{tag}_{}", std::process::id()));
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
    fn start(tag: &str) -> Fixture {
        let dir = tmp(tag);
        let service = Arc::new(TractoService::start(
            ServiceConfig::builder().build().unwrap(),
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

    fn connect(&self) -> RemoteService {
        RemoteService::connect(self.server().endpoint(), "conformance").unwrap()
    }

    fn raw(&self) -> UnixStream {
        let Endpoint::Unix(path) = self.server().endpoint() else {
            panic!("fixture binds unix sockets");
        };
        UnixStream::connect(path).unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.server.take().unwrap().stop();
        drop(self.service.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A tiny deterministic tracking job (noiseless so it is cheap).
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

/// Perform the handshake on a raw stream.
fn hello(stream: &mut UnixStream) {
    let req = Request::Hello {
        version: PROTOCOL_VERSION,
        client: "raw".into(),
    };
    write_frame(stream, &req.encode()).unwrap();
    let payload = read_frame(stream).unwrap().expect("hello reply");
    match Response::decode(&payload).unwrap() {
        Response::Hello { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
        other => panic!("expected hello, got {other:?}"),
    }
}

fn expect_error(stream: &mut UnixStream, want_kind: &str) -> String {
    let payload = read_frame(stream).unwrap().expect("error reply");
    match Response::decode(&payload).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, want_kind, "{message}");
            message
        }
        other => panic!("expected an error, got {other:?}"),
    }
}

#[test]
fn socket_results_are_bit_identical_to_in_process() {
    let fx = Fixture::start("bitident");
    let wire = wire_job();

    let mut client = fx.connect();
    let job = client.submit(wire.clone()).unwrap();
    let state = client.await_job(job, None).unwrap();
    let JobState::Done(Outcome::Track {
        total_steps,
        streamlines,
        lengths_digest: remote_digest,
        ..
    }) = state
    else {
        panic!("remote job did not finish: {state:?}");
    };

    // The same wire spec through a *fresh* in-process service — the only
    // shared code path is JobSpec::from_wire, which is the point.
    let local_service = TractoService::start(ServiceConfig::builder().build().unwrap());
    let result = local_service
        .submit(JobSpec::from_wire(&wire).unwrap())
        .wait_track()
        .unwrap();
    assert_eq!(result.tracking.total_steps, total_steps);
    let local_streamlines: u64 = result
        .tracking
        .lengths_by_sample
        .iter()
        .map(|s| s.len() as u64)
        .sum();
    assert_eq!(local_streamlines, streamlines);
    assert_eq!(
        lengths_digest(&result.tracking.lengths_by_sample),
        remote_digest,
        "socket and in-process runs must be bit-identical"
    );
    local_service.shutdown();
}

#[test]
fn connection_survives_decode_errors() {
    let fx = Fixture::start("decode");
    let mut stream = fx.raw();
    hello(&mut stream);

    // Valid frame, invalid JSON: typed error, connection stays up.
    write_frame(&mut stream, "this is not json").unwrap();
    expect_error(&mut stream, "protocol");

    // Valid JSON, unknown request type: same.
    write_frame(&mut stream, r#"{"type":"warp_core_breach"}"#).unwrap();
    let msg = expect_error(&mut stream, "protocol");
    assert!(msg.contains("warp_core_breach"), "{msg}");

    // Submit with a malformed spec: still answered in-band.
    write_frame(&mut stream, r#"{"type":"submit","spec":{"job":"track"}}"#).unwrap();
    expect_error(&mut stream, "protocol");

    // Nesting far past the parser's depth limit (the frame itself is well
    // under MAX_FRAME_BYTES): a typed error, not a stack overflow.
    write_frame(&mut stream, &"[".repeat(200_000)).unwrap();
    let msg = expect_error(&mut stream, "protocol");
    assert!(msg.contains("nesting"), "{msg}");

    // The connection still works after all that.
    write_frame(&mut stream, &Request::Metrics.encode()).unwrap();
    let payload = read_frame(&mut stream).unwrap().expect("metrics reply");
    assert!(matches!(
        Response::decode(&payload).unwrap(),
        Response::Metrics(_)
    ));
}

#[test]
fn version_below_minimum_is_refused_then_closed() {
    // One version is spoken: older and newer offers alike are refused.
    let fx = Fixture::start("version");
    for version in [0, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
        let mut stream = fx.raw();
        let req = Request::Hello {
            version,
            client: "other version".into(),
        };
        write_frame(&mut stream, &req.encode()).unwrap();
        let msg = expect_error(&mut stream, "protocol");
        assert!(msg.contains("version") && msg.contains("mismatch"), "{msg}");
        // The server closes after refusing the handshake.
        assert!(read_frame(&mut stream).unwrap().is_none(), "v{version}");
    }
    // The server itself is unaffected.
    fx.connect().metrics().unwrap();
}

#[test]
fn first_request_must_be_hello() {
    let fx = Fixture::start("nohello");
    let mut stream = fx.raw();
    write_frame(&mut stream, &Request::Metrics.encode()).unwrap();
    expect_error(&mut stream, "protocol");
    assert!(read_frame(&mut stream).unwrap().is_none());
}

#[test]
fn framing_violations_never_kill_the_server() {
    let fx = Fixture::start("framing");

    // Truncated length prefix, then hangup.
    let mut stream = fx.raw();
    stream.write_all(&[0x00, 0x01]).unwrap();
    drop(stream);

    // Oversized frame announcement.
    let mut stream = fx.raw();
    let huge = (MAX_FRAME_BYTES + 1).to_be_bytes();
    stream.write_all(&huge).unwrap();
    // Whatever the server answers (error frame or close), it must not die.
    let _ = read_frame(&mut stream);
    drop(stream);

    // Length prefix promising bytes that never arrive.
    let mut stream = fx.raw();
    stream.write_all(&128u32.to_be_bytes()).unwrap();
    stream.write_all(b"short").unwrap();
    drop(stream);

    // The server is still accepting and serving.
    let mut client = fx.connect();
    client.metrics().unwrap();
}

#[test]
fn jobs_survive_mid_job_disconnect_and_are_visible_cross_connection() {
    let fx = Fixture::start("disconnect");
    let mut first = fx.connect();
    let job = first.submit(wire_job()).unwrap();
    drop(first); // vanish before the result is ready

    // A different connection can await the same job to completion.
    let mut second = fx.connect();
    let state = second.await_job(job, None).unwrap();
    assert!(
        matches!(state, JobState::Done(Outcome::Track { .. })),
        "job lost after disconnect: {state:?}"
    );

    // Cross-connection cancel answers (the race outcome is either way).
    let mut submitter = fx.connect();
    let mut spec = wire_job();
    spec.priority = Priority::Low;
    let victim = submitter.submit(spec).unwrap();
    let mut canceller = fx.connect();
    let cancelled = canceller.cancel(victim).unwrap();
    let state = canceller.await_job(victim, None).unwrap();
    match (cancelled, state) {
        (true, JobState::Failed { kind, .. }) => assert_eq!(kind, "cancelled"),
        (false, JobState::Done(_)) => {}
        (won, state) => panic!("inconsistent cancel outcome: won={won}, state={state:?}"),
    }
}

#[test]
fn unknown_job_id_is_a_typed_error() {
    let fx = Fixture::start("unknownjob");
    let mut client = fx.connect();
    let err = client.status(987_654).unwrap_err();
    assert_eq!(err.kind(), tracto_trace::ErrorKind::Protocol);
    assert!(err.to_string().contains("987654"), "{err}");
    // The connection survives the error.
    client.metrics().unwrap();
}

#[test]
fn invalid_wire_spec_is_rejected_at_submit() {
    let fx = Fixture::start("badspec");
    let mut client = fx.connect();

    // Parameter validation happens at submit (JobSpec::from_wire): the
    // request is refused in-band and no job is created.
    let mut spec = wire_job();
    spec.chain.samples = 0;
    let err = client.submit(spec).unwrap_err();
    assert_eq!(err.kind(), tracto_trace::ErrorKind::Config, "{err}");
    assert_eq!(client.metrics().unwrap().submitted, 0);

    // A bad phantom recipe only fails at materialization, so the job is
    // accepted and then settles with a typed config failure.
    let mut spec = wire_job();
    spec.dataset.kind = "klein-bottle".into();
    let job = client.submit(spec).unwrap();
    match client.await_job(job, None).unwrap() {
        JobState::Failed { kind, message } => {
            assert_eq!(kind, "config");
            assert!(message.contains("klein-bottle"), "{message}");
        }
        other => panic!("bad recipe must fail, got {other:?}"),
    }
}

#[test]
fn v3_frames_without_modality_field_get_the_default_modality() {
    let fx = Fixture::start("nomodality");
    let mut stream = fx.raw();
    hello(&mut stream);

    // A pre-modality v3 client encodes a spec with no `modality` /
    // `stop_percentile` keys; the raw frame proves the fields are absent.
    let spec_json = wire_job().to_json_string();
    assert!(!spec_json.contains("modality"), "{spec_json}");
    assert!(!spec_json.contains("stop_percentile"), "{spec_json}");
    let submit = |stream: &mut UnixStream, spec: &str| {
        write_frame(stream, &format!(r#"{{"type":"submit","spec":{spec}}}"#)).unwrap();
        let payload = read_frame(stream).unwrap().expect("submit reply");
        match Response::decode(&payload).unwrap() {
            Response::Submitted { job } => job,
            other => panic!("submit refused: {other:?}"),
        }
    };
    let implicit = submit(&mut stream, &spec_json);
    // The same spec with the default spelled out explicitly.
    let explicit_json = spec_json.replacen('{', r#"{"modality":"mcmc","#, 1);
    let explicit = submit(&mut stream, &explicit_json);

    let mut client = fx.connect();
    let digest = |state: JobState| match state {
        JobState::Done(Outcome::Track { lengths_digest, .. }) => lengths_digest,
        other => panic!("job did not finish: {other:?}"),
    };
    let d_implicit = digest(client.await_job(implicit, None).unwrap());
    let d_explicit = digest(client.await_job(explicit, None).unwrap());
    assert_eq!(
        d_implicit, d_explicit,
        "a frame without the modality field must decode to the default"
    );
}

#[test]
fn analytic_modality_round_trips_over_the_socket() {
    let fx = Fixture::start("analytic");
    let mut client = fx.connect();
    let mut fast = wire_job();
    fast.modality = tracto_proto::Modality::Analytic;

    let outcome = |client: &mut RemoteService, spec: tracto_proto::JobSpec| {
        let job = client.submit(spec).unwrap();
        match client.await_job(job, None).unwrap() {
            JobState::Done(Outcome::Track {
                total_steps,
                lengths_digest,
                ..
            }) => (total_steps, lengths_digest),
            other => panic!("job did not finish: {other:?}"),
        }
    };
    let (mcmc_steps, _) = outcome(&mut client, wire_job());
    let (fast_steps, fast_digest) = outcome(&mut client, fast.clone());
    assert!(
        fast_steps < mcmc_steps,
        "analytic tier must be cheaper ({fast_steps} vs {mcmc_steps} steps)"
    );

    // The analytic spec through a fresh in-process service must land on
    // the same bits the socket run produced.
    let local = TractoService::start(ServiceConfig::builder().build().unwrap());
    let result = local
        .submit(JobSpec::from_wire(&fast).unwrap())
        .wait_track()
        .unwrap();
    assert_eq!(
        lengths_digest(&result.tracking.lengths_by_sample),
        fast_digest,
        "socket and in-process analytic runs must be bit-identical"
    );
    local.shutdown();
}

#[test]
fn tcp_endpoint_round_trips() {
    let service = Arc::new(TractoService::start(
        ServiceConfig::builder().build().unwrap(),
    ));
    let server = SocketServer::bind(
        Arc::clone(&service),
        &Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
    )
    .unwrap();
    let endpoint = server.endpoint().clone();
    assert!(
        !endpoint.to_string().ends_with(":0"),
        "bound endpoint reports the real port, got {endpoint}"
    );
    let mut client = RemoteService::connect(&endpoint, "tcp-test").unwrap();
    let job = client.submit(wire_job()).unwrap();
    let state = client.await_job(job, None).unwrap();
    assert!(matches!(state, JobState::Done(_)), "{state:?}");
    server.stop();
}

#[test]
fn drain_and_shutdown_requests_stop_the_listener() {
    let fx = Fixture::start("shutdown");
    let mut client = fx.connect();
    let job = client.submit(wire_job()).unwrap();
    client.drain().unwrap();
    // After drain, the job must already be settled.
    assert!(matches!(client.status(job).unwrap(), JobState::Done(_)));
    client.shutdown().unwrap();
    // wait_shutdown returns promptly once a client asked for shutdown.
    fx.server().wait_shutdown();
    assert_eq!(fx.server().remote_jobs(), 1);
}
