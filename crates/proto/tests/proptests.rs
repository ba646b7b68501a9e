//! Property tests for the proto decoders: whatever bytes arrive — noise,
//! a valid encoding with flipped bytes or cut short, or a valid encoding
//! behind a deep-nesting prefix — `FrameBuf::next_frame`,
//! `Request::decode`, `Response::decode` and `b64::decode` return `Ok` or
//! a typed `TractoError`. A panic fails the test; an unbounded recursion
//! would abort the whole binary.

use proptest::prelude::*;
use tracto_proto::{
    b64, write_frame, DatasetSpec, Event, FleetWire, FrameBuf, JobSpec, JobState, MemberWire,
    MetricsWire, Outcome, Request, Response, TenantWire, PROTOCOL_VERSION,
};
use tracto_trace::json::{self, Json, MAX_DEPTH};
use tracto_trace::{ErrorKind, TractoResult};

/// Valid encodings of every nested message shape the protocol carries.
fn corpus() -> Vec<String> {
    let mut spec = JobSpec::track(DatasetSpec::new("crossing"));
    spec.deadline_ms = Some(250);
    spec.tenant = "lab-a".into();
    let uploaded = JobSpec::estimate(DatasetSpec::uploaded("00ff00ff00ff00ff"));
    let track = Outcome::Track {
        total_steps: 1951,
        streamlines: 64,
        lengths_digest: 0x4234_3798_c503_402e,
        cache_hit: true,
        batch_jobs: 2,
        batch_lanes: 128,
    };
    let metrics = MetricsWire {
        submitted: 3,
        mean_batch_occupancy: 0.5,
        tenants: vec![TenantWire {
            name: "default".into(),
            submitted: 3,
            completed: 2,
            shed: 1,
        }],
        ..MetricsWire::default()
    };
    let fleet = FleetWire {
        members: vec![MemberWire {
            name: "a".into(),
            endpoint: "unix:/tmp/a.sock".into(),
            alive: true,
            jobs_routed: 4,
            heartbeat_misses: 0,
        }],
        takeovers: 1,
        jobs_routed: 4,
    };
    let requests = [
        Request::Hello {
            version: PROTOCOL_VERSION,
            client: "prop \"quoted\"".into(),
        },
        Request::Submit(Box::new(spec.clone())),
        Request::Submit(Box::new(uploaded)),
        Request::Await {
            job: 3,
            timeout_ms: Some(4000),
        },
        Request::Subscribe { job: Some(41) },
        Request::UploadChunk {
            hash: "00ff00ff00ff00ff".into(),
            offset: 65536,
            data: b64::encode(b"foobar"),
        },
        Request::Replicate {
            source: "a".into(),
            first_seq: 7,
            reset: false,
            records: vec![r#"{"op":"admitted","id":5}"#.into()],
        },
        Request::Route(Box::new(spec)),
    ];
    let responses = [
        Response::Hello {
            version: PROTOCOL_VERSION,
            server: "tracto-serve".into(),
            member: Some("a".into()),
        },
        Response::Status {
            job: 12,
            state: JobState::Done(track.clone()),
        },
        Response::Event(Event {
            seq: 4,
            job: 7,
            kind: "failed".into(),
            state: JobState::Failed {
                kind: "capacity".into(),
                message: "admission backlog (retry_after_ms=250)".into(),
            },
        }),
        Response::Event(Event {
            seq: 5,
            job: 8,
            kind: "completed".into(),
            state: JobState::Done(track),
        }),
        Response::Metrics(Box::new(metrics)),
        Response::Fleet(Box::new(fleet)),
        Response::TookOver {
            jobs: vec![(5, 11), (6, 12)],
        },
        Response::Error {
            kind: "protocol".into(),
            message: "unknown job id 9".into(),
        },
    ];
    requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(Response::encode))
        .collect()
}

/// The decoder contract: success, or an error typed as a wire problem.
fn typed<T>(result: TractoResult<T>) -> Result<(), String> {
    match result {
        Ok(_) => Ok(()),
        Err(e) if matches!(e.kind(), ErrorKind::Protocol | ErrorKind::Format) => Ok(()),
        Err(e) => Err(format!("decode error of kind {}: {e}", e.kind())),
    }
}

/// Run every payload-level decoder over `text`.
fn decode_all(text: &str) -> Result<(), String> {
    typed(Request::decode(text))?;
    typed(Response::decode(text))?;
    typed(b64::decode(text))
}

/// Feed `bytes` to a `FrameBuf` in two slices and decode every frame it
/// yields, stopping at the first framing error (frame sync is lost then).
fn decode_stream(bytes: &[u8], split: usize) -> Result<(), String> {
    let mut frames = FrameBuf::new();
    let split = split.min(bytes.len());
    for part in [&bytes[..split], &bytes[split..]] {
        frames.extend(part);
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => decode_all(&payload)?,
                Ok(None) => break,
                Err(e) => return typed::<()>(Err(e)),
            }
        }
    }
    Ok(())
}

/// Apply byte flips at relative positions, then keep a leading fraction.
fn mutate(valid: &[u8], flips: &[(f64, u8)], keep: f64) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    let len = bytes.len();
    for &(at, byte) in flips {
        bytes[((at * len as f64) as usize).min(len - 1)] = byte;
    }
    bytes.truncate((keep * bytes.len() as f64).ceil() as usize);
    bytes
}

fn depth(v: &Json) -> usize {
    match v {
        Json::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Object(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn every_encoding_nests_far_below_the_parser_limit() {
    for doc in corpus() {
        let parsed = json::parse(&doc).expect("valid encodings parse");
        assert!(depth(&parsed) * 10 < MAX_DEPTH, "{doc}");
        decode_all(&doc).unwrap();
    }
}

fn any_byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any_byte(), 0..512),
        split in 0usize..512,
    ) {
        prop_assert!(decode_all(&String::from_utf8_lossy(&bytes)).is_ok());
        let result = decode_stream(&bytes, split);
        prop_assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn mutated_encodings_decode_or_fail_typed(
        pick in 0usize..16,
        flips in prop::collection::vec((0.0f64..1.0, any_byte()), 0..6),
        keep in 0.0f64..1.0,
        split in 0usize..4096,
    ) {
        let corpus = corpus();
        let mutated = mutate(corpus[pick % corpus.len()].as_bytes(), &flips, keep);
        let result = decode_all(&String::from_utf8_lossy(&mutated));
        prop_assert!(result.is_ok(), "{result:?}");
        // The same bytes framed: a correct prefix, and one whose length
        // bytes took the flips too.
        let mut framed = Vec::new();
        write_frame(&mut framed, &String::from_utf8_lossy(&mutated)).unwrap();
        let result = decode_stream(&framed, split);
        prop_assert!(result.is_ok(), "{result:?}");
        let mut raw = (mutated.len() as u32).to_be_bytes().to_vec();
        raw.extend_from_slice(&mutated);
        let raw = mutate(&raw, &flips, 1.0);
        let result = decode_stream(&raw, split);
        prop_assert!(result.is_ok(), "{result:?}");
    }

    #[test]
    fn deep_nesting_prefixes_are_typed_errors(
        pick in 0usize..16,
        levels in 0usize..100_000,
        objects in 0u8..2,
    ) {
        let corpus = corpus();
        let open = if objects == 1 { "{\"a\":" } else { "[" };
        let doc = format!("{}{}", open.repeat(levels), corpus[pick % corpus.len()]);
        let result = decode_all(&doc);
        prop_assert!(result.is_ok(), "{result:?}");
        if levels > MAX_DEPTH {
            prop_assert!(Request::decode(&doc).is_err());
            prop_assert!(Response::decode(&doc).is_err());
        }
    }
}
