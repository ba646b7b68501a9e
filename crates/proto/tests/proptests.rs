//! Property tests for the proto decoders: whatever bytes arrive — noise,
//! a valid encoding with flipped bytes or cut short, or a valid encoding
//! behind a deep-nesting prefix — `read_frame`, `FrameBuf::next_frame`,
//! `Request::decode`, `Response::decode` and `b64::decode` return `Ok` or
//! a typed `TractoError`. A panic fails the test; an unbounded recursion
//! would abort the whole binary. The blocking `read_frame` and the
//! incremental `FrameBuf` must also agree frame for frame on any stream.

use proptest::prelude::*;
use std::io::{Cursor, ErrorKind as IoKind, Read};
use tracto_proto::{
    b64, read_frame, write_frame, DatasetSpec, Event, FleetWire, FrameBuf, JobSpec, JobState,
    MemberWire, MetricsWire, Outcome, Request, Response, TenantWire, MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
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

/// How a decoder left a byte stream.
#[derive(Debug, PartialEq)]
enum End {
    /// At a frame boundary with nothing left over.
    Clean,
    /// Inside a frame: the stream stopped short of it.
    Truncated,
    /// On an error that refuses a frame (oversized, not UTF-8, or a
    /// transport error).
    Refused,
}

/// Run `read_frame` until it reports the end of the stream or an error,
/// checking every read against the contract: a payload within
/// `MAX_FRAME_BYTES`, or a `Protocol`/`Io` error.
fn read_all(r: &mut impl Read) -> Result<(Vec<String>, End), String> {
    let mut frames = Vec::new();
    loop {
        match read_frame(r) {
            Ok(Some(payload)) => {
                if payload.capacity() > MAX_FRAME_BYTES as usize {
                    return Err(format!("payload buffer of {} bytes", payload.capacity()));
                }
                frames.push(payload);
            }
            Ok(None) => return Ok((frames, End::Clean)),
            Err(e) if e.kind() == ErrorKind::Protocol && e.to_string().contains("stream ended") => {
                return Ok((frames, End::Truncated))
            }
            Err(e) if matches!(e.kind(), ErrorKind::Protocol | ErrorKind::Io) => {
                return Ok((frames, End::Refused))
            }
            Err(e) => return Err(format!("read_frame error of kind {}: {e}", e.kind())),
        }
    }
}

/// Feed `bytes` to a `FrameBuf` cut at the relative positions `cuts` and
/// pull every frame it yields, stopping at its first error.
fn frame_buf_all(bytes: &[u8], cuts: &[f64]) -> (Vec<String>, End) {
    let mut at: Vec<usize> = cuts
        .iter()
        .map(|&c| (c * bytes.len() as f64) as usize)
        .chain([0, bytes.len()])
        .collect();
    at.sort_unstable();
    let mut frames = FrameBuf::new();
    let mut out = Vec::new();
    for w in at.windows(2) {
        frames.extend(&bytes[w[0]..w[1]]);
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => out.push(payload),
                Ok(None) => break,
                Err(_) => return (out, End::Refused),
            }
        }
    }
    let end = if frames.pending() == 0 {
        End::Clean
    } else {
        End::Truncated
    };
    (out, end)
}

/// A valid stream of several frames: the chosen corpus documents, in order.
fn stream_of(picks: &[usize]) -> (Vec<String>, Vec<u8>) {
    let corpus = corpus();
    let docs: Vec<String> = picks
        .iter()
        .map(|&p| corpus[p % corpus.len()].clone())
        .collect();
    let mut wire = Vec::new();
    for doc in &docs {
        write_frame(&mut wire, doc).unwrap();
    }
    (docs, wire)
}

/// A reader that hands out at most `chunk` bytes per call, reports
/// `Interrupted` on every `interrupt_every`-th call (0 = never; 1 would
/// never make progress), and fails with a connection reset once `fail_at`
/// bytes have gone out.
struct Flaky<'a> {
    bytes: &'a [u8],
    pos: usize,
    chunk: usize,
    calls: usize,
    interrupt_every: usize,
    fail_at: Option<usize>,
}

impl Read for Flaky<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.interrupt_every > 0 && self.calls % self.interrupt_every == 0 {
            return Err(IoKind::Interrupted.into());
        }
        let end = self.fail_at.unwrap_or(usize::MAX).min(self.bytes.len());
        if self.pos >= end && self.fail_at.is_some_and(|f| f < self.bytes.len()) {
            return Err(IoKind::ConnectionReset.into());
        }
        let n = buf.len().min(self.chunk).min(end - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
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

    #[test]
    fn read_frame_over_arbitrary_bytes_ends_typed(
        bytes in prop::collection::vec(any_byte(), 0..512),
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let read = read_all(&mut Cursor::new(&bytes));
        prop_assert!(read.is_ok(), "{read:?}");
        prop_assert_eq!(read.unwrap(), frame_buf_all(&bytes, &cuts));
    }

    #[test]
    fn read_frame_agrees_with_frame_buf_on_mutated_streams(
        picks in prop::collection::vec(0usize..16, 1..5),
        flips in prop::collection::vec((0.0f64..1.0, any_byte()), 0..6),
        keep in 0.0f64..1.0,
        cuts in prop::collection::vec(0.0f64..1.0, 0..6),
    ) {
        let (docs, wire) = stream_of(&picks);
        // The stream as written: every payload back, in order, either way.
        let read = read_all(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(&read, &(docs.clone(), End::Clean));
        prop_assert_eq!(&frame_buf_all(&wire, &cuts), &read);
        // Flipped and cut short: still typed, and still in agreement.
        let mutated = mutate(&wire, &flips, keep);
        let read = read_all(&mut Cursor::new(&mutated));
        prop_assert!(read.is_ok(), "{read:?}");
        prop_assert_eq!(read.unwrap(), frame_buf_all(&mutated, &cuts));
        // A cut alone keeps a prefix of the payloads.
        let cut = &wire[..(keep * wire.len() as f64) as usize];
        let (frames, end) = read_all(&mut Cursor::new(cut)).unwrap();
        prop_assert!(docs.starts_with(&frames));
        prop_assert!(end != End::Refused, "{end:?}");
    }

    #[test]
    fn read_frame_rides_out_short_reads_interrupts_and_resets(
        picks in prop::collection::vec(0usize..16, 1..5),
        chunk in 1usize..64,
        interrupt_every in prop_oneof![Just(0usize), 2usize..5],
        fail_at in 0.0f64..1.5,
    ) {
        let (docs, wire) = stream_of(&picks);
        let fail_at = (fail_at * wire.len() as f64) as usize;
        let mut flaky = Flaky {
            bytes: &wire,
            pos: 0,
            chunk,
            calls: 0,
            interrupt_every,
            fail_at: Some(fail_at),
        };
        let (frames, end) = read_all(&mut flaky).unwrap();
        prop_assert!(docs.starts_with(&frames));
        if fail_at >= wire.len() {
            // Short reads and interrupts alone change nothing.
            prop_assert_eq!((frames, end), (docs, End::Clean));
        } else {
            prop_assert!(frames.len() < docs.len());
            prop_assert_eq!(end, End::Refused);
        }
    }
}
