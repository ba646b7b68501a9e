//! The remote client: a blocking connection that speaks the protocol and
//! exposes the same submit/status/cancel/await verbs as the in-process
//! service, plus event subscriptions and chunked volume uploads.

use std::collections::VecDeque;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use crate::b64;
use crate::endpoint::Endpoint;
use crate::frame::{write_frame, FrameBuf};
use crate::spec::{content_digest, JobSpec};
use crate::wire::{Event, FleetWire, JobState, MetricsWire, Request, Response};
use crate::{check_version, PROTOCOL_VERSION};
use tracto_trace::{TractoError, TractoResult};

/// Raw bytes sent per `upload_chunk` (1 MiB — comfortably under
/// [`UPLOAD_CHUNK_MAX`](crate::UPLOAD_CHUNK_MAX) after base64 expansion).
const UPLOAD_CLIENT_CHUNK: usize = 1 << 20;

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A connected client. One request is in flight at a time (the protocol is
/// strict request/response), so methods take `&mut self`. Pushed
/// [`Event`]s may interleave with responses; they are buffered internally
/// and drained by [`next_event`](Self::next_event).
pub struct RemoteService {
    stream: Stream,
    frames: FrameBuf,
    events: VecDeque<Event>,
    /// The server's identification string from the handshake.
    pub server_name: String,
    /// The server's fleet member name from the handshake, when it runs as
    /// a fleet member (`serve --member`).
    pub server_member: Option<String>,
}

impl RemoteService {
    /// Connect to `endpoint` and exchange `hello`. The client offers
    /// [`PROTOCOL_VERSION`]; a server that refuses it, or answers with any
    /// other version, is a typed protocol error.
    pub fn connect(endpoint: &Endpoint, client_name: &str) -> TractoResult<Self> {
        let stream = match endpoint {
            Endpoint::Unix(path) => Stream::Unix(
                UnixStream::connect(path)
                    .map_err(|e| TractoError::io(format!("connect {}", path.display()), e))?,
            ),
            Endpoint::Tcp(addr) => Stream::Tcp(
                TcpStream::connect(addr)
                    .map_err(|e| TractoError::io(format!("connect tcp:{addr}"), e))?,
            ),
        };
        let mut client = RemoteService {
            stream,
            frames: FrameBuf::new(),
            events: VecDeque::new(),
            server_name: String::new(),
            server_member: None,
        };
        match client.call(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: client_name.to_string(),
        })? {
            Response::Hello {
                version,
                server,
                member,
            } => {
                check_version(version)?;
                client.server_name = server;
                client.server_member = member;
                Ok(client)
            }
            other => Err(unexpected("hello", &other)),
        }
    }

    /// Connect like [`connect`](Self::connect), retrying transient
    /// transport failures with exponential backoff — the client-side half
    /// of crash recovery: a server being restarted (or still replaying its
    /// journal) refuses connections for a moment, and `submit`/`status`/
    /// `await` should ride that out rather than fail.
    ///
    /// Only [`Io`](tracto_trace::ErrorKind::Io) errors are retried; a
    /// protocol or version mismatch will not fix itself by waiting. After
    /// `retries` extra attempts the last error is returned unchanged, so
    /// exhaustion still reads as a typed Io error.
    ///
    /// Each sleep carries ±25 % jitter: when a host dies, its clients all
    /// observe the failure at the same instant, and without jitter their
    /// identical exponential schedules would hammer the takeover standby
    /// in synchronized waves.
    pub fn connect_with_retry(
        endpoint: &Endpoint,
        client_name: &str,
        retries: u32,
        backoff: std::time::Duration,
    ) -> TractoResult<Self> {
        let mut wait = backoff;
        let mut attempt = 0;
        let mut salt = jitter_seed();
        loop {
            match Self::connect(endpoint, client_name) {
                Ok(client) => return Ok(client),
                Err(err) if attempt < retries && err.kind() == tracto_trace::ErrorKind::Io => {
                    attempt += 1;
                    std::thread::sleep(jittered(wait, &mut salt));
                    wait = wait.saturating_mul(2);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Read raw bytes into the frame buffer and return the next decoded
    /// response, or `Ok(None)` on a clean close between frames.
    fn recv_response(&mut self) -> TractoResult<Option<Response>> {
        loop {
            if let Some(payload) = self.frames.next_frame()? {
                return Response::decode(&payload).map(Some);
            }
            let mut buf = [0u8; 8192];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return if self.frames.pending() == 0 {
                        Ok(None)
                    } else {
                        Err(TractoError::protocol("stream ended inside a frame"))
                    }
                }
                Ok(n) => self.frames.extend(&buf[..n]),
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(e) => return Err(TractoError::io("read frame", e)),
            }
        }
    }

    /// Send one request and read its response, buffering any pushed
    /// events that arrive in between. [`Response::Error`] is returned
    /// as-is so callers can inspect it; transport and decode failures are
    /// typed errors.
    pub fn call(&mut self, request: &Request) -> TractoResult<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        loop {
            match self.recv_response()? {
                Some(Response::Event(ev)) => self.events.push_back(ev),
                Some(response) => return Ok(response),
                None => {
                    return Err(TractoError::protocol(
                        "server closed the connection before responding",
                    ))
                }
            }
        }
    }

    /// Submit a job, returning its server-assigned id.
    pub fn submit(&mut self, spec: JobSpec) -> TractoResult<u64> {
        match self.call(&Request::Submit(Box::new(spec)))? {
            Response::Submitted { job } => Ok(job),
            other => Err(unexpected("submitted", &other)),
        }
    }

    /// Submit like [`submit`](Self::submit), backing off and retrying when
    /// the server sheds the job with a typed `capacity` error — the
    /// client-side half of load shedding. The server's rejection carries a
    /// `retry_after_ms=N` hint (its own estimate of when the backlog
    /// drains); when present that wait is honored instead of the local
    /// exponential schedule, jittered ±25 % so a shed burst does not
    /// return as a synchronized retry wave. Only `capacity` rejections are
    /// retried: anything else (including transport failures, which
    /// [`connect_with_retry`](Self::connect_with_retry) already covers at
    /// connect time) is returned unchanged.
    pub fn submit_with_retry(
        &mut self,
        spec: &JobSpec,
        retries: u32,
        backoff: Duration,
    ) -> TractoResult<u64> {
        let mut wait = backoff;
        let mut attempt = 0;
        let mut salt = jitter_seed();
        loop {
            match self.submit(spec.clone()) {
                Ok(job) => return Ok(job),
                Err(err)
                    if attempt < retries && err.kind() == tracto_trace::ErrorKind::Capacity =>
                {
                    attempt += 1;
                    let hinted = capacity_retry_after(&err).unwrap_or(wait);
                    std::thread::sleep(jittered(hinted, &mut salt));
                    wait = wait.saturating_mul(2);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Poll a job's state without blocking.
    pub fn status(&mut self, job: u64) -> TractoResult<JobState> {
        match self.call(&Request::Status { job })? {
            Response::Status { state, .. } => Ok(state),
            other => Err(unexpected("status", &other)),
        }
    }

    /// Block until the job finishes (or `timeout_ms` elapses) and return
    /// its state — [`JobState::Pending`] means the timeout hit. Sends the
    /// `await` verb, which every peer answers: a server parks a waiter (no
    /// thread blocks on it) and the fleet coordinator forwards it across
    /// takeovers.
    pub fn await_job(&mut self, job: u64, timeout_ms: Option<u64>) -> TractoResult<JobState> {
        match self.call(&Request::Await { job, timeout_ms })? {
            Response::Status { state, .. } => Ok(state),
            other => Err(unexpected("status", &other)),
        }
    }

    /// Wait for a job like [`await_job`](Self::await_job), but by
    /// subscribing to its pushed events: `on_event` sees each non-terminal
    /// event of the job, and the terminal event's state is returned
    /// ([`JobState::Pending`] when `timeout_ms` elapses first). No request
    /// is parked and nothing polls. Needs a peer that pushes events — the
    /// fleet coordinator refuses the subscription with a typed error.
    pub fn follow_job(
        &mut self,
        job: u64,
        timeout_ms: Option<u64>,
        mut on_event: impl FnMut(&Event),
    ) -> TractoResult<JobState> {
        self.subscribe(Some(job))?;
        let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        loop {
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(JobState::Pending);
                    }
                    Some(left)
                }
            };
            match self.next_event(remaining)? {
                Some(ev) if ev.job == job && ev.is_terminal() => return Ok(ev.state),
                Some(ev) if ev.job == job => on_event(&ev),
                Some(_) => {}
                None => return Ok(JobState::Pending),
            }
        }
    }

    /// Request cancellation; `true` means the cancel won the race.
    pub fn cancel(&mut self, job: u64) -> TractoResult<bool> {
        match self.call(&Request::Cancel { job })? {
            Response::Cancelled { cancelled, .. } => Ok(cancelled),
            other => Err(unexpected("cancelled", &other)),
        }
    }

    /// Fetch a metrics snapshot.
    pub fn metrics(&mut self) -> TractoResult<MetricsWire> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(*m),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Block until the server has no jobs in flight.
    pub fn drain(&mut self) -> TractoResult<()> {
        match self.call(&Request::Drain)? {
            Response::Drained => Ok(()),
            other => Err(unexpected("drained", &other)),
        }
    }

    /// Ask the serving process to drain and exit.
    pub fn shutdown(&mut self) -> TractoResult<()> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }

    /// Liveness probe: returns the peer's fleet member name (empty on a
    /// standalone server). Transport failures stay typed Io errors.
    pub fn ping(&mut self) -> TractoResult<String> {
        match self.call(&Request::Ping)? {
            Response::Pong { member } => Ok(member),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Stream replicated journal records to this host (the standby side
    /// of fleet replication). Returns the next sequence number the
    /// replica expects; a `next` below `first_seq + records.len()` means
    /// the replica detected a gap and the caller must re-sync with
    /// `reset`.
    pub fn replicate(
        &mut self,
        source: &str,
        first_seq: u64,
        reset: bool,
        records: Vec<String>,
    ) -> TractoResult<u64> {
        match self.call(&Request::Replicate {
            source: source.to_string(),
            first_seq,
            reset,
            records,
        })? {
            Response::ReplAck { next } => Ok(next),
            other => Err(unexpected("repl_ack", &other)),
        }
    }

    /// Tell this host to adopt the replicated journal of dead member
    /// `source`: replay it and re-enqueue its unfinished jobs. Returns
    /// `(original_id, adopted_id)` pairs.
    pub fn takeover(&mut self, source: &str) -> TractoResult<Vec<(u64, u64)>> {
        match self.call(&Request::Takeover {
            source: source.to_string(),
        })? {
            Response::TookOver { jobs } => Ok(jobs),
            other => Err(unexpected("took_over", &other)),
        }
    }

    /// Fetch the fleet topology snapshot from a coordinator.
    pub fn fleet_status(&mut self) -> TractoResult<FleetWire> {
        match self.call(&Request::FleetStatus)? {
            Response::Fleet(fleet) => Ok(*fleet),
            other => Err(unexpected("fleet", &other)),
        }
    }

    /// Ask a coordinator which member `spec` routes to, without
    /// submitting it.
    pub fn route(&mut self, spec: JobSpec) -> TractoResult<String> {
        match self.call(&Request::Route(Box::new(spec)))? {
            Response::Routed { member } => Ok(member),
            other => Err(unexpected("routed", &other)),
        }
    }

    /// Subscribe this connection to pushed job events: one job's, or all
    /// jobs' when `job` is `None`. Subscribing to a job that is
    /// already terminal pushes its terminal event immediately.
    pub fn subscribe(&mut self, job: Option<u64>) -> TractoResult<()> {
        match self.call(&Request::Subscribe { job })? {
            Response::Subscribed { .. } => Ok(()),
            other => Err(unexpected("subscribed", &other)),
        }
    }

    /// Return the next pushed event: a buffered one if any, otherwise
    /// block reading the stream up to `timeout` (`None` waits
    /// indefinitely). `Ok(None)` means the timeout elapsed.
    pub fn next_event(&mut self, timeout: Option<Duration>) -> TractoResult<Option<Event>> {
        let result = self.next_event_inner(timeout);
        // Leave the stream blocking for subsequent request/response calls.
        let _ = self.stream.set_read_timeout(None);
        result
    }

    fn next_event_inner(&mut self, timeout: Option<Duration>) -> TractoResult<Option<Event>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(ev) = self.events.pop_front() {
                return Ok(Some(ev));
            }
            if let Some(payload) = self.frames.next_frame()? {
                match Response::decode(&payload)? {
                    Response::Event(ev) => return Ok(Some(ev)),
                    other => {
                        return Err(TractoError::protocol(format!(
                            "unsolicited response while waiting for events: {other:?}"
                        )))
                    }
                }
            }
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Ok(None);
                    }
                    Some(left)
                }
            };
            self.stream
                .set_read_timeout(remaining)
                .map_err(|e| TractoError::io("set read timeout", e))?;
            let mut buf = [0u8; 8192];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(TractoError::protocol(
                        "server closed the connection while streaming events",
                    ))
                }
                Ok(n) => self.frames.extend(&buf[..n]),
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(e) if e.kind() == IoKind::WouldBlock || e.kind() == IoKind::TimedOut => {
                    return Ok(None)
                }
                Err(e) => return Err(TractoError::io("read event", e)),
            }
        }
    }

    /// Upload a volume blob in chunks, returning its 16-hex
    /// content hash for use in
    /// [`DatasetSpec::uploaded`](crate::DatasetSpec::uploaded). Resumes
    /// from the server's staged offset and skips entirely when the server
    /// already holds the committed blob.
    pub fn upload(&mut self, bytes: &[u8]) -> TractoResult<String> {
        let hash = format!("{:016x}", content_digest(bytes));
        let offset = match self.call(&Request::UploadBegin {
            hash: hash.clone(),
            len: bytes.len() as u64,
        })? {
            Response::UploadReady { complete: true, .. } => return Ok(hash),
            Response::UploadReady { offset, .. } => offset as usize,
            other => return Err(unexpected("upload_ready", &other)),
        };
        let mut sent = offset.min(bytes.len());
        while sent < bytes.len() {
            let end = (sent + UPLOAD_CLIENT_CHUNK).min(bytes.len());
            match self.call(&Request::UploadChunk {
                hash: hash.clone(),
                offset: sent as u64,
                data: b64::encode(&bytes[sent..end]),
            })? {
                Response::UploadAck { received } => sent = received as usize,
                other => return Err(unexpected("upload_ack", &other)),
            }
        }
        match self.call(&Request::UploadCommit { hash: hash.clone() })? {
            Response::UploadDone { .. } => Ok(hash),
            other => Err(unexpected("upload_done", &other)),
        }
    }
}

/// A per-process-and-thread seed for backoff jitter. No RNG crate in the
/// workspace, so mix wall-clock nanos with the pid — distinct clients
/// land on distinct streams, which is all de-synchronization needs.
fn jitter_seed() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    (u64::from(nanos) << 20 | u64::from(std::process::id())).max(1)
}

/// Scale `wait` by a factor drawn uniformly from `[0.75, 1.25)`, advancing
/// `salt` as an xorshift state.
fn jittered(wait: Duration, salt: &mut u64) -> Duration {
    *salt ^= *salt << 13;
    *salt ^= *salt >> 7;
    *salt ^= *salt << 17;
    let unit = (*salt >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    wait.mul_f64(0.75 + 0.5 * unit)
}

/// Map a reply that wasn't the expected variant to a typed error. Server
/// [`Response::Error`]s are re-typed where the kind survives the wire
/// (`cancelled`, `deadline`, `config`, `capacity`); anything else is a
/// protocol error.
fn unexpected(wanted: &str, got: &Response) -> TractoError {
    match got {
        Response::Error { kind, message } => match kind.as_str() {
            "cancelled" => TractoError::Cancelled,
            "deadline" => TractoError::Deadline,
            "config" => TractoError::config(message.clone()),
            "capacity" => parse_capacity(message),
            _ => TractoError::protocol(format!("server error ({kind}): {message}")),
        },
        other => TractoError::protocol(format!("expected a `{wanted}` response, got {other:?}")),
    }
}

/// Re-type a server `capacity` rejection into [`TractoError::Capacity`],
/// recovering `required`/`available` when the message is the standard
/// Display form (`{resource} exhausted: {required} required, {available}
/// available`). A message in any other shape keeps its full text as the
/// resource — the kind is what retry logic dispatches on.
fn parse_capacity(message: &str) -> TractoError {
    if let Some((resource, rest)) = message.split_once(" exhausted: ") {
        let fields: Vec<&str> = rest.split(&[' ', ','][..]).collect();
        if let [req, "required", "", avail, "available"] = fields[..] {
            if let (Ok(required), Ok(available)) = (req.parse(), avail.parse()) {
                return TractoError::capacity(resource, required, available);
            }
        }
    }
    TractoError::Capacity {
        resource: message.to_string(),
        required: 0,
        available: 0,
    }
}

/// Extract the server's `retry_after_ms=N` hint from a capacity
/// rejection, if it sent one.
pub fn capacity_retry_after(err: &TractoError) -> Option<Duration> {
    let text = err.to_string();
    let start = text.find("retry_after_ms=")? + "retry_after_ms=".len();
    let digits: String = text[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse::<u64>().ok().map(Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};
    use tracto_trace::ErrorKind;

    #[test]
    fn connect_with_retry_exhaustion_is_a_typed_io_error_after_backoff() {
        let endpoint = Endpoint::Unix("/nonexistent/tracto-retry-test.sock".into());
        let start = Instant::now();
        let err = RemoteService::connect_with_retry(&endpoint, "t", 2, Duration::from_millis(5))
            .err()
            .expect("nothing listens there");
        assert_eq!(err.kind(), ErrorKind::Io, "exhaustion keeps the Io type");
        // Two retries back off 5 ms then 10 ms nominal; with ±25 % jitter
        // the worst-case minimum is 0.75 × 15 ms.
        assert!(
            start.elapsed() >= Duration::from_millis(11),
            "retries must actually wait"
        );
    }

    #[test]
    fn jitter_stays_within_a_quarter_band() {
        let base = Duration::from_millis(100);
        let mut salt = jitter_seed();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..256 {
            let j = jittered(base, &mut salt);
            assert!(
                j >= Duration::from_millis(75) && j < Duration::from_millis(125),
                "jittered value {j:?} outside ±25% of {base:?}"
            );
            distinct.insert(j.as_nanos());
        }
        assert!(distinct.len() > 200, "jitter must actually vary per sleep");
    }

    #[test]
    fn connect_with_zero_retries_fails_fast() {
        let endpoint = Endpoint::Unix("/nonexistent/tracto-retry-test.sock".into());
        let start = Instant::now();
        let err = RemoteService::connect_with_retry(&endpoint, "t", 0, Duration::from_secs(30))
            .err()
            .expect("nothing listens there");
        assert_eq!(err.kind(), ErrorKind::Io);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "zero retries must not sleep"
        );
    }

    #[test]
    fn capacity_rejections_re_type_and_carry_the_retry_hint() {
        // The exact shape a shedding server sends: error_kind maps the
        // Capacity cause to kind `capacity` and message is its Display.
        let server_side = TractoError::capacity("admission backlog (retry_after_ms=250)", 900, 400);
        let err = unexpected(
            "submitted",
            &Response::Error {
                kind: "capacity".into(),
                message: server_side.to_string(),
            },
        );
        assert_eq!(err.kind(), ErrorKind::Capacity);
        assert_eq!(err.to_string(), server_side.to_string());
        assert_eq!(
            capacity_retry_after(&err),
            Some(Duration::from_millis(250)),
            "the retry-after hint survives the wire"
        );
        // A capacity message in a non-standard shape keeps its kind (what
        // retry dispatches on) even though the fields cannot be recovered.
        let odd = unexpected(
            "submitted",
            &Response::Error {
                kind: "capacity".into(),
                message: "try later".into(),
            },
        );
        assert_eq!(odd.kind(), ErrorKind::Capacity);
        assert_eq!(capacity_retry_after(&odd), None);
        // Non-capacity errors never produce a hint.
        assert_eq!(capacity_retry_after(&TractoError::Deadline), None);
    }
}
