//! Fleet mode: consistent-hash job placement, journal replication, and
//! host-death takeover.
//!
//! Three pieces, all riding the existing `tracto-proto` wire protocol:
//!
//! - **[`ReplicaStore`]** — the standby side of journal replication. A
//!   member started with `--replicate-to` streams every write-ahead
//!   journal record to its standby over `replicate` frames; the standby
//!   appends them (fsync'd, strictly sequenced) under
//!   `<state-dir>/replica/<source>.jsonl`. A sequence gap is refused and
//!   the source re-syncs with `reset`, so the replica is always a prefix
//!   of the source's journal plus nothing invented.
//! - **[`HashRing`]** — consistent-hash placement over the member set,
//!   keyed by [`placement_key`] (the Step-1 sample-cache identity of a
//!   job). Repeat submissions of the same cache key land on the same
//!   member, so its warm sample cache keeps paying; a member's death
//!   moves only its arc of the ring to the successors.
//! - **[`Fleet`]** — a thin coordinator. Clients connect to it exactly as
//!   they would to a single server (`submit`/`await`/`status`/`cancel`
//!   work unchanged; it pushes no events and takes no uploads); it routes each
//!   job by placement key, remembers `fleet id → (member, member job id,
//!   spec)`, and monitors members with `ping` heartbeats. When a member
//!   misses enough heartbeats it is declared dead: the coordinator tells
//!   the standby to `takeover` the dead member's replicated journal —
//!   the standby replays it with the same scan its own restart would use
//!   ([`replay_text`](crate::journal::replay_text)) and re-enqueues the
//!   unfinished jobs — then re-points the registry at the adopted ids and
//!   re-routes the dead member's hash range. Jobs the replica never saw
//!   (killed mid-handshake) are re-submitted from the coordinator's own
//!   spec copy. Determinism makes all of this safe: a re-run job is
//!   bit-identical to the original, so clients cannot observe which host
//!   answered.

use crate::listener::{bind_endpoint, ConnStream, Listener};
use crate::lock;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind as IoKind, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tracto_proto::{
    check_version, placement_key, write_frame, Endpoint, FleetWire, FrameBuf, JobState, MemberWire,
    MetricsWire, RemoteService, Request, Response, PROTOCOL_VERSION,
};
use tracto_trace::{Tracer, TractoError, TractoResult, Value};

// ---------------------------------------------------------------------------
// Replica store (standby side)
// ---------------------------------------------------------------------------

struct SourceState {
    file: File,
    /// Sequence number of the next record this replica expects.
    next: u64,
}

/// Fsync'd storage for replicated journals, one JSONL file per source
/// member under `<state-dir>/replica/`. Appends are strictly sequenced:
/// `reset` starts the file over (a source re-syncing after a reconnect),
/// and a `first_seq` that is not exactly the next expected record is a
/// refused gap — the replica never holds a journal with silent holes.
pub struct ReplicaStore {
    root: PathBuf,
    sources: Mutex<HashMap<String, SourceState>>,
}

fn valid_source(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

impl ReplicaStore {
    /// Open (or create) the replica root, restoring per-source sequence
    /// state from the record counts of existing files so replication
    /// resumes across a standby restart.
    pub fn open(root: &Path) -> TractoResult<ReplicaStore> {
        fs::create_dir_all(root).map_err(TractoError::from)?;
        let mut sources = HashMap::new();
        for entry in fs::read_dir(root).map_err(TractoError::from)? {
            let entry = entry.map_err(TractoError::from)?;
            let path = entry.path();
            let Some(stem) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".jsonl"))
            else {
                continue;
            };
            let next = fs::read_to_string(&path)
                .map(|t| t.lines().count() as u64)
                .unwrap_or(0);
            let file = OpenOptions::new()
                .append(true)
                .open(&path)
                .map_err(TractoError::from)?;
            sources.insert(stem.to_string(), SourceState { file, next });
        }
        Ok(ReplicaStore {
            root: root.to_path_buf(),
            sources: Mutex::new(sources),
        })
    }

    fn path_of(&self, source: &str) -> PathBuf {
        self.root.join(format!("{source}.jsonl"))
    }

    /// Append replicated records for `source`, enforcing the sequence
    /// contract. Returns the next expected sequence number.
    pub fn append(
        &self,
        source: &str,
        first_seq: u64,
        reset: bool,
        records: &[String],
    ) -> TractoResult<u64> {
        if !valid_source(source) {
            return Err(TractoError::protocol(format!(
                "invalid replication source name `{source}`"
            )));
        }
        if records.iter().any(|r| r.contains('\n')) {
            return Err(TractoError::protocol(
                "replicated journal record contains a newline",
            ));
        }
        let mut sources = lock(&self.sources);
        let path = self.path_of(source);
        if reset {
            let file = File::create(&path).map_err(TractoError::from)?;
            sources.insert(
                source.to_string(),
                SourceState {
                    file,
                    next: first_seq,
                },
            );
        }
        let Some(state) = sources.get_mut(source) else {
            return Err(TractoError::protocol(format!(
                "replication gap for `{source}`: no replica on this host, expected a reset"
            )));
        };
        if first_seq != state.next {
            return Err(TractoError::protocol(format!(
                "replication gap for `{source}`: expected seq {}, got {first_seq} \
                 (re-sync with reset)",
                state.next
            )));
        }
        for record in records {
            writeln!(state.file, "{record}").map_err(TractoError::from)?;
        }
        state.file.sync_data().map_err(TractoError::from)?;
        state.next += records.len() as u64;
        Ok(state.next)
    }

    /// Consume the replicated journal of `source` for takeover: returns
    /// its full text and removes the replica (the dead member's journal
    /// has been acted on; a resurrected source must re-sync with `reset`).
    /// A source that never replicated yields empty text — takeover of a
    /// member with no surviving records is a no-op, not an error.
    pub fn take(&self, source: &str) -> TractoResult<String> {
        if !valid_source(source) {
            return Err(TractoError::protocol(format!(
                "invalid replication source name `{source}`"
            )));
        }
        let mut sources = lock(&self.sources);
        sources.remove(source);
        let path = self.path_of(source);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == IoKind::NotFound => String::new(),
            Err(e) => return Err(TractoError::from(e)),
        };
        let _ = fs::remove_file(&path);
        Ok(text)
    }

    /// The next sequence number expected from `source` (for tests and
    /// `fleet_status` style introspection).
    pub fn next_seq(&self, source: &str) -> Option<u64> {
        lock(&self.sources).get(source).map(|s| s.next)
    }
}

// ---------------------------------------------------------------------------
// Replicator (source side)
// ---------------------------------------------------------------------------

/// Records per `replicate` frame. Small enough to keep frames far under
/// the cap even with embedded job specs, large enough to drain a journal
/// snapshot in a handful of round trips.
const REPL_BATCH: usize = 256;

/// Spawn the detached replication thread for a member: it holds the full
/// journal record log in memory (seeded with the compacted on-disk
/// snapshot, extended by the journal's mirror channel) and keeps the
/// standby's replica in sync, re-syncing from zero with `reset` after any
/// reconnect. The thread exits when the journal (the channel sender) is
/// dropped, after one final flush attempt.
pub(crate) fn spawn_replicator(
    source: String,
    target: Endpoint,
    snapshot: Vec<String>,
    rx: Receiver<String>,
    tracer: Tracer,
) {
    std::thread::Builder::new()
        .name("tracto-replicator".into())
        .spawn(move || replicator_loop(&source, &target, snapshot, &rx, &tracer))
        .expect("spawn replicator thread");
}

fn replicator_loop(
    source: &str,
    target: &Endpoint,
    mut log: Vec<String>,
    rx: &Receiver<String>,
    tracer: &Tracer,
) {
    let mut conn: Option<RemoteService> = None;
    // Records the standby has acknowledged on the *current* connection.
    let mut acked: u64 = 0;
    loop {
        let mut closed = false;
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                log.push(line);
                while let Ok(line) = rx.try_recv() {
                    log.push(line);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => closed = true,
        }
        if acked < log.len() as u64 || conn.is_none() && !log.is_empty() {
            if let Err(err) = sync(source, target, &log, &mut conn, &mut acked, tracer) {
                conn = None;
                if tracer.enabled() {
                    tracer.emit(
                        "fleet.replication_error",
                        &[
                            ("source", Value::Text(source.to_string())),
                            ("error", Value::Text(err.to_string())),
                        ],
                    );
                }
                if closed {
                    return; // final flush failed; nothing more will arrive
                }
                // Back off before the next attempt so a down standby is
                // probed at the heartbeat cadence, not in a hot loop.
                std::thread::sleep(Duration::from_millis(200));
            }
        }
        if closed {
            return;
        }
    }
}

/// Bring the standby's replica up to date with `log`. A fresh connection
/// always starts with a full `reset` re-sync — the source cannot know what
/// the standby kept across either side's restarts, and journals are small
/// (compaction keeps only unfinished jobs).
fn sync(
    source: &str,
    target: &Endpoint,
    log: &[String],
    conn: &mut Option<RemoteService>,
    acked: &mut u64,
    tracer: &Tracer,
) -> TractoResult<()> {
    if conn.is_none() {
        *conn = Some(RemoteService::connect(target, "tracto-replicator")?);
        *acked = 0;
        let first = log.get(..REPL_BATCH.min(log.len())).unwrap_or(&[]).to_vec();
        let sent = first.len() as u64;
        let next = conn
            .as_mut()
            .expect("just connected")
            .replicate(source, 0, true, first)?;
        if next != sent {
            return Err(TractoError::protocol(format!(
                "replica acked {next} after a reset of {sent} record(s)"
            )));
        }
        *acked = next;
    }
    let client = conn.as_mut().expect("connected above");
    while *acked < log.len() as u64 {
        let start = *acked as usize;
        let end = (start + REPL_BATCH).min(log.len());
        let batch: Vec<String> = log[start..end].to_vec();
        let sent = batch.len() as u64;
        let next = client.replicate(source, *acked, false, batch)?;
        if next != *acked + sent {
            return Err(TractoError::protocol(format!(
                "replica acked {next}, expected {}",
                *acked + sent
            )));
        }
        *acked = next;
    }
    if tracer.enabled() {
        tracer.emit(
            "fleet.replicated",
            &[
                ("source", Value::Text(source.to_string())),
                ("records", (*acked).into()),
            ],
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Consistent-hash ring
// ---------------------------------------------------------------------------

/// Virtual nodes per member: enough to keep arcs statistically even
/// across a handful of members without making the point table large.
const VNODES: u32 = 64;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Finalizer over the FNV state (the 64-bit murmur3 avalanche). FNV-1a
/// alone diffuses short, mostly-zero inputs — like a vnode counter —
/// poorly into the high bits, which skews the arc lengths badly; the
/// ring needs its points spread over the whole u64 circle.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// A consistent-hash ring over the fleet's member names. Each member owns
/// [`VNODES`] points; a key routes to the first point at or after it
/// (wrapping). Death does not rebuild the ring — routing just skips dead
/// members' points, so only the dead member's arcs move (to their ring
/// successors) and every other placement is untouched.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, member index)`, sorted by point.
    points: Vec<(u64, usize)>,
    members: usize,
}

impl HashRing {
    /// Build the ring over `names` (order defines member indices).
    pub fn new(names: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(names.len() * VNODES as usize);
        for (idx, name) in names.iter().enumerate() {
            let base = fnv1a(name.as_bytes(), 0xcbf2_9ce4_8422_2325);
            for v in 0..VNODES {
                points.push((mix(fnv1a(&v.to_le_bytes(), base)), idx));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            members: names.len(),
        }
    }

    /// Member indices in ring order starting from `key`'s successor,
    /// deduplicated: the preferred placement first, then the members that
    /// would inherit it, in takeover order.
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.members);
        let start = self.points.partition_point(|&(p, _)| p < key);
        for i in 0..self.points.len() {
            let (_, member) = self.points[(start + i) % self.points.len()];
            if !order.contains(&member) {
                order.push(member);
                if order.len() == self.members {
                    break;
                }
            }
        }
        order
    }

    /// The first live member at or after `key` on the ring.
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<usize> {
        self.candidates(key)
            .into_iter()
            .find(|&m| alive.get(m).copied().unwrap_or(false))
    }
}

// ---------------------------------------------------------------------------
// Fleet coordinator
// ---------------------------------------------------------------------------

/// Coordinator configuration. Members are `(name, endpoint)` pairs; their
/// order fixes member indices and the takeover standby chain (a dead
/// member's journal is adopted by the next live member in this order).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Endpoint the coordinator listens on.
    pub listen: Endpoint,
    /// The member set, in standby-chain order.
    pub members: Vec<(String, Endpoint)>,
    /// Heartbeat probe interval.
    pub heartbeat: Duration,
    /// Consecutive missed heartbeats before a member is declared dead.
    pub max_misses: u32,
    /// Event sink for `fleet.*` events.
    pub tracer: Tracer,
}

impl FleetConfig {
    /// A config with the default heartbeat policy (500 ms probes, dead
    /// after 3 consecutive misses).
    pub fn new(listen: Endpoint, members: Vec<(String, Endpoint)>) -> FleetConfig {
        FleetConfig {
            listen,
            members,
            heartbeat: Duration::from_millis(500),
            max_misses: 3,
            tracer: Tracer::disabled(),
        }
    }
}

struct MemberSlot {
    name: String,
    endpoint: Endpoint,
    /// Lazily connected data-path connection, shared by handler threads.
    /// Dropped (and reconnected on next use) after any call error.
    conn: Mutex<Option<RemoteService>>,
    alive: AtomicBool,
    misses: AtomicU64,
    routed: AtomicU64,
}

/// Where one fleet job currently lives.
#[derive(Clone)]
struct Placement {
    member: usize,
    remote: u64,
    spec: tracto_proto::JobSpec,
}

struct FleetShared {
    members: Vec<MemberSlot>,
    ring: HashRing,
    /// Fleet job id → current placement. Entries survive completion so
    /// `status`/`await` keep working on settled jobs.
    registry: Mutex<HashMap<u64, Placement>>,
    next_id: AtomicU64,
    routed_total: AtomicU64,
    takeovers: AtomicU64,
    stop: AtomicBool,
    shutdown_requested: Mutex<bool>,
    shutdown_cv: Condvar,
    tracer: Tracer,
}

impl FleetShared {
    fn alive_vec(&self) -> Vec<bool> {
        self.members
            .iter()
            .map(|m| m.alive.load(Ordering::SeqCst))
            .collect()
    }

    fn request_shutdown(&self) {
        *lock(&self.shutdown_requested) = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running fleet coordinator. Bound with [`Fleet::bind`]; serves until
/// [`stop`](Fleet::stop) (or a client's `shutdown` request wakes
/// [`wait_shutdown`](Fleet::wait_shutdown) and the host calls `stop`).
pub struct Fleet {
    shared: Arc<FleetShared>,
    endpoint: Endpoint,
    accept: Option<std::thread::JoinHandle<()>>,
    monitor: Option<std::thread::JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    cleanup: Option<PathBuf>,
}

impl Fleet {
    /// Bind the coordinator endpoint and start the accept loop and the
    /// heartbeat monitor.
    pub fn bind(config: FleetConfig) -> TractoResult<Fleet> {
        if config.members.is_empty() {
            return Err(TractoError::config("a fleet needs at least one member"));
        }
        {
            let mut seen = std::collections::HashSet::new();
            for (name, _) in &config.members {
                if !valid_source(name) {
                    return Err(TractoError::config(format!(
                        "invalid member name `{name}` (use [A-Za-z0-9._-])"
                    )));
                }
                if !seen.insert(name.clone()) {
                    return Err(TractoError::config(format!("duplicate member `{name}`")));
                }
            }
        }
        let names: Vec<String> = config.members.iter().map(|(n, _)| n.clone()).collect();
        let shared = Arc::new(FleetShared {
            members: config
                .members
                .iter()
                .map(|(name, endpoint)| MemberSlot {
                    name: name.clone(),
                    endpoint: endpoint.clone(),
                    conn: Mutex::new(None),
                    alive: AtomicBool::new(true),
                    misses: AtomicU64::new(0),
                    routed: AtomicU64::new(0),
                })
                .collect(),
            ring: HashRing::new(&names),
            registry: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            routed_total: AtomicU64::new(0),
            takeovers: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            tracer: config.tracer.clone(),
        });
        let (listener, bound, cleanup) = bind_endpoint(&config.listen)?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TractoError::io("set listener nonblocking", e))?;
        let handlers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            std::thread::Builder::new()
                .name("tracto-fleet-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &handlers))
                .map_err(|e| TractoError::io("spawn fleet accept thread", e))?
        };
        let monitor = {
            let shared = Arc::clone(&shared);
            let (hb, misses) = (config.heartbeat, config.max_misses.max(1));
            std::thread::Builder::new()
                .name("tracto-fleet-monitor".into())
                .spawn(move || monitor_loop(&shared, hb, misses))
                .map_err(|e| TractoError::io("spawn fleet monitor thread", e))?
        };
        if shared.tracer.enabled() {
            shared.tracer.emit(
                "fleet.listening",
                &[
                    ("endpoint", Value::Text(bound.to_string())),
                    ("members", (names.len() as u64).into()),
                ],
            );
        }
        Ok(Fleet {
            shared,
            endpoint: bound,
            accept: Some(accept),
            monitor: Some(monitor),
            handlers,
            cleanup,
        })
    }

    /// The endpoint actually bound.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The current topology snapshot (what `fleet_status` answers).
    pub fn status(&self) -> FleetWire {
        fleet_wire(&self.shared)
    }

    /// Block until some client sends a `shutdown` request.
    pub fn wait_shutdown(&self) {
        let requested = lock(&self.shared.shutdown_requested);
        let _requested = self.shared.shutdown_cv.wait_while(requested, |r| !*r);
    }

    /// Stop accepting, close connections, and join every thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
        for h in lock(&self.handlers).drain(..) {
            let _ = h.join();
        }
        if let Some(path) = self.cleanup.take() {
            let _ = fs::remove_file(path);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: &Listener,
    shared: &Arc<FleetShared>,
    handlers: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                if let Ok(h) = std::thread::Builder::new()
                    .name("tracto-fleet-conn".into())
                    .spawn(move || handle_conn(&shared, stream))
                {
                    lock(handlers).push(h);
                }
            }
            Err(e) if e.kind() == IoKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// One client connection, blocking, thread-per-connection: the
/// coordinator forwards work rather than running it, so its connection
/// count is the fleet's client count, not its job count. The read timeout
/// lets the thread poll the stop flag.
fn handle_conn(shared: &Arc<FleetShared>, stream: ConnStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut stream = stream;
    let mut frames = FrameBuf::new();
    let mut hello_done = false;
    let mut buf = [0u8; 8192];
    'conn: loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // Drain complete frames first, then read more bytes.
        loop {
            match frames.next_frame() {
                Ok(Some(payload)) => {
                    if !handle_frame(shared, &mut stream, &payload, &mut hello_done) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let _ = send(&mut stream, &protocol_error(&e.to_string()));
                    break 'conn;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => frames.extend(&buf[..n]),
            Err(e) if e.kind() == IoKind::WouldBlock || e.kind() == IoKind::TimedOut => {}
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(_) => break,
        }
    }
    stream.shutdown_both();
}

fn send(stream: &mut ConnStream, response: &Response) -> bool {
    write_frame(stream, &response.encode()).is_ok()
}

fn protocol_error(message: &str) -> Response {
    Response::Error {
        kind: "protocol".into(),
        message: message.into(),
    }
}

fn error_response(e: &TractoError) -> Response {
    Response::Error {
        kind: e.kind().to_string(),
        message: e.to_string(),
    }
}

/// Dispatch one decoded frame; returns `false` when the connection should
/// close.
fn handle_frame(
    shared: &Arc<FleetShared>,
    stream: &mut ConnStream,
    payload: &str,
    hello_done: &mut bool,
) -> bool {
    let request = match Request::decode(payload) {
        Ok(req) => req,
        Err(e) => {
            return send(stream, &protocol_error(&e.to_string())) && *hello_done;
        }
    };
    if let Request::Hello { version, .. } = request {
        if let Err(e) = check_version(version) {
            let _ = send(stream, &error_response(&e));
            return false;
        }
        *hello_done = true;
        return send(
            stream,
            &Response::Hello {
                version: PROTOCOL_VERSION,
                server: "tracto-fleet".into(),
                member: None,
            },
        );
    }
    if !*hello_done {
        let _ = send(stream, &protocol_error("first request must be `hello`"));
        return false;
    }
    match request {
        Request::Hello { .. } => unreachable!("handled above"),
        Request::Submit(spec) => {
            let response = fleet_submit(shared, *spec);
            send(stream, &response)
        }
        Request::Status { job } => {
            let response = fleet_status_of(shared, job);
            send(stream, &response)
        }
        Request::Await { job, timeout_ms } => {
            let response = fleet_await(shared, job, timeout_ms);
            send(stream, &response)
        }
        Request::Cancel { job } => {
            let response = match lookup(shared, job) {
                Err(r) => r,
                Ok(p) => match member_call(shared, p.member, |c| c.cancel(p.remote)) {
                    Ok(cancelled) => Response::Cancelled { job, cancelled },
                    Err(e) => error_response(&e),
                },
            };
            send(stream, &response)
        }
        Request::Metrics => {
            let response = fleet_metrics(shared);
            send(stream, &response)
        }
        Request::Ping => send(
            stream,
            &Response::Pong {
                member: "fleet".into(),
            },
        ),
        Request::FleetStatus => send(stream, &Response::Fleet(Box::new(fleet_wire(shared)))),
        Request::Route(spec) => {
            let key = placement_key(&spec);
            let response = match shared.ring.route(key, &shared.alive_vec()) {
                Some(idx) => Response::Routed {
                    member: shared.members[idx].name.clone(),
                },
                None => Response::Error {
                    kind: "config".into(),
                    message: "no live fleet members".into(),
                },
            };
            send(stream, &response)
        }
        Request::Drain => {
            let mut failed = None;
            for (idx, m) in shared.members.iter().enumerate() {
                if !m.alive.load(Ordering::SeqCst) {
                    continue;
                }
                if let Err(e) = member_call(shared, idx, |c| c.drain()) {
                    failed = Some(e);
                }
            }
            let response = match failed {
                None => Response::Drained,
                Some(e) => error_response(&e),
            };
            send(stream, &response)
        }
        Request::Shutdown => {
            let _ = send(stream, &Response::ShuttingDown);
            shared.request_shutdown();
            false
        }
        Request::Subscribe { .. }
        | Request::UploadBegin { .. }
        | Request::UploadChunk { .. }
        | Request::UploadCommit { .. } => send(
            stream,
            &protocol_error(
                "the fleet coordinator does not push events or take uploads: \
                 connect to a member",
            ),
        ),
        Request::Replicate { .. } | Request::Takeover { .. } => send(
            stream,
            &Response::Error {
                kind: "config".into(),
                message: "the fleet coordinator is not a member (replication targets \
                          a member's --state-dir)"
                    .into(),
            },
        ),
    }
}

/// Run `f` on the (lazily connected) shared data connection to member
/// `idx`. Any error drops the cached connection so the next call
/// reconnects from scratch.
fn member_call<T>(
    shared: &FleetShared,
    idx: usize,
    f: impl FnOnce(&mut RemoteService) -> TractoResult<T>,
) -> TractoResult<T> {
    let slot = &shared.members[idx];
    let mut guard = lock(&slot.conn);
    if guard.is_none() {
        *guard = Some(RemoteService::connect_with_retry(
            &slot.endpoint,
            "tracto-fleet",
            1,
            Duration::from_millis(10),
        )?);
    }
    let conn = guard.as_mut().expect("connected above");
    match f(conn) {
        Ok(v) => Ok(v),
        Err(e) => {
            *guard = None;
            Err(e)
        }
    }
}

fn lookup(shared: &FleetShared, job: u64) -> Result<Placement, Response> {
    lock(&shared.registry)
        .get(&job)
        .cloned()
        .ok_or(Response::Error {
            kind: "protocol".into(),
            message: format!("unknown job id {job}"),
        })
}

fn fleet_submit(shared: &FleetShared, spec: tracto_proto::JobSpec) -> Response {
    let key = placement_key(&spec);
    let alive = shared.alive_vec();
    let mut last_err: Option<TractoError> = None;
    for idx in shared.ring.candidates(key) {
        if !alive[idx] {
            continue;
        }
        match member_call(shared, idx, |c| c.submit(spec.clone())) {
            Ok(remote) => {
                let job = shared.next_id.fetch_add(1, Ordering::Relaxed);
                lock(&shared.registry).insert(
                    job,
                    Placement {
                        member: idx,
                        remote,
                        spec,
                    },
                );
                shared.members[idx].routed.fetch_add(1, Ordering::Relaxed);
                shared.routed_total.fetch_add(1, Ordering::Relaxed);
                if shared.tracer.enabled() {
                    shared.tracer.emit(
                        "fleet.route",
                        &[
                            ("job", job.into()),
                            ("member", Value::Text(shared.members[idx].name.clone())),
                            ("key", Value::Text(format!("{key:016x}"))),
                            ("remote_job", remote.into()),
                        ],
                    );
                }
                return Response::Submitted { job };
            }
            Err(e) if e.kind() == tracto_trace::ErrorKind::Io => {
                // A member that died since the last heartbeat: fall
                // through to its ring successor (the monitor will declare
                // it dead on its own schedule).
                last_err = Some(e);
            }
            Err(e) => return error_response(&e),
        }
    }
    match last_err {
        Some(e) => error_response(&e),
        None => Response::Error {
            kind: "config".into(),
            message: "no live fleet members".into(),
        },
    }
}

fn fleet_status_of(shared: &FleetShared, job: u64) -> Response {
    match lookup(shared, job) {
        Err(r) => r,
        Ok(p) => match member_call(shared, p.member, |c| c.status(p.remote)) {
            Ok(state) => Response::Status { job, state },
            Err(e) => error_response(&e),
        },
    }
}

/// Await slice length: long enough to amortize the forwarded round trip,
/// short enough that a takeover remap is picked up promptly.
const AWAIT_SLICE: Duration = Duration::from_millis(500);

/// Forward an `await` as a re-checking loop: each slice re-reads the
/// registry, so when a takeover re-points the job at the standby the wait
/// follows it transparently — the client keeps its fleet job id and never
/// learns the host changed.
fn fleet_await(shared: &FleetShared, job: u64, timeout_ms: Option<u64>) -> Response {
    let deadline = timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Response::Status {
                job,
                state: JobState::Pending,
            };
        }
        let remaining = match deadline {
            None => AWAIT_SLICE,
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Response::Status {
                        job,
                        state: JobState::Pending,
                    };
                }
                left.min(AWAIT_SLICE)
            }
        };
        let placement = match lookup(shared, job) {
            Err(r) => return r,
            Ok(p) => p,
        };
        match member_call(shared, placement.member, |c| {
            c.await_job(placement.remote, Some(remaining.as_millis() as u64))
        }) {
            Ok(JobState::Pending) => {}
            Ok(state) => return Response::Status { job, state },
            Err(_) => {
                // The member is unreachable; give the monitor a beat to
                // declare it dead and remap, then re-read the registry.
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn fleet_metrics(shared: &FleetShared) -> Response {
    let mut totals: Option<MetricsWire> = None;
    let mut polled = 0u64;
    for (idx, m) in shared.members.iter().enumerate() {
        if !m.alive.load(Ordering::SeqCst) {
            continue;
        }
        if let Ok(snap) = member_call(shared, idx, |c| c.metrics()) {
            polled += 1;
            totals = Some(match totals {
                None => snap,
                Some(t) => sum_metrics(t, snap),
            });
        }
    }
    match totals {
        Some(m) => Response::Metrics(Box::new(m)),
        None => Response::Error {
            kind: "io".into(),
            message: format!("no live fleet members answered metrics (polled {polled})"),
        },
    }
}

/// Fold two member snapshots: counters add; the `mean_*`/occupancy gauges
/// average (coarsely — a fleet-wide mean of means, good enough for a
/// health read; per-member truth is one `metrics --connect MEMBER` away).
fn sum_metrics(a: MetricsWire, b: MetricsWire) -> MetricsWire {
    MetricsWire {
        submitted: a.submitted + b.submitted,
        completed: a.completed + b.completed,
        failed: a.failed + b.failed,
        cancelled: a.cancelled + b.cancelled,
        deadline_exceeded: a.deadline_exceeded + b.deadline_exceeded,
        in_flight: a.in_flight + b.in_flight,
        batches: a.batches + b.batches,
        batch_jobs: a.batch_jobs + b.batch_jobs,
        mean_batch_occupancy: (a.mean_batch_occupancy + b.mean_batch_occupancy) / 2.0,
        lanes_tracked: a.lanes_tracked + b.lanes_tracked,
        launches: a.launches + b.launches,
        mean_wavefront_utilization: (a.mean_wavefront_utilization + b.mean_wavefront_utilization)
            / 2.0,
        estimations_run: a.estimations_run + b.estimations_run,
        faults_injected: a.faults_injected + b.faults_injected,
        device_retries: a.device_retries + b.device_retries,
        job_retries: a.job_retries + b.job_retries,
        failovers: a.failovers + b.failovers,
        devices_alive: a.devices_alive + b.devices_alive,
        devices_total: a.devices_total + b.devices_total,
        tracking_sim_s: a.tracking_sim_s + b.tracking_sim_s,
        overlap_saved_sim_s: a.overlap_saved_sim_s + b.overlap_saved_sim_s,
        stream_occupancy: (a.stream_occupancy + b.stream_occupancy) / 2.0,
        estimation_sim_s: a.estimation_sim_s + b.estimation_sim_s,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        cache_evictions: a.cache_evictions + b.cache_evictions,
        cache_bytes: a.cache_bytes + b.cache_bytes,
        cache_entries: a.cache_entries + b.cache_entries,
        remote_jobs: a.remote_jobs + b.remote_jobs,
        deadline_hits: a.deadline_hits + b.deadline_hits,
        sheds: a.sheds + b.sheds,
        demotions: a.demotions + b.demotions,
        rate_limited: a.rate_limited + b.rate_limited,
        tenants: sum_tenants(a.tenants, b.tenants),
    }
}

/// Merge two per-tenant counter lists by tenant name, keeping the
/// fleet-wide list sorted so repeated folds stay deterministic.
fn sum_tenants(
    a: Vec<tracto_proto::TenantWire>,
    b: Vec<tracto_proto::TenantWire>,
) -> Vec<tracto_proto::TenantWire> {
    let mut merged: std::collections::BTreeMap<String, tracto_proto::TenantWire> =
        a.into_iter().map(|t| (t.name.clone(), t)).collect();
    for t in b {
        let slot = merged
            .entry(t.name.clone())
            .or_insert_with(|| tracto_proto::TenantWire {
                name: t.name.clone(),
                ..Default::default()
            });
        slot.submitted += t.submitted;
        slot.completed += t.completed;
        slot.shed += t.shed;
    }
    merged.into_values().collect()
}

fn fleet_wire(shared: &FleetShared) -> FleetWire {
    FleetWire {
        members: shared
            .members
            .iter()
            .map(|m| MemberWire {
                name: m.name.clone(),
                endpoint: m.endpoint.to_string(),
                alive: m.alive.load(Ordering::SeqCst),
                jobs_routed: m.routed.load(Ordering::Relaxed),
                heartbeat_misses: m.misses.load(Ordering::Relaxed),
            })
            .collect(),
        takeovers: shared.takeovers.load(Ordering::Relaxed),
        jobs_routed: shared.routed_total.load(Ordering::Relaxed),
    }
}

// ---------------------------------------------------------------------------
// Heartbeat monitor + takeover
// ---------------------------------------------------------------------------

/// Probe a member's liveness on a dedicated throwaway connection, so a
/// data connection busy forwarding a long `await` slice never masks (or
/// delays) death detection.
fn probe(endpoint: &Endpoint) -> TractoResult<()> {
    let mut conn = RemoteService::connect(endpoint, "tracto-fleet-hb")?;
    conn.ping().map(|_| ())
}

fn monitor_loop(shared: &Arc<FleetShared>, heartbeat: Duration, max_misses: u32) {
    while !shared.stop.load(Ordering::SeqCst) {
        // Sleep in small slices so stop is prompt.
        let wake = Instant::now() + heartbeat;
        while Instant::now() < wake {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        for idx in 0..shared.members.len() {
            let slot = &shared.members[idx];
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            match probe(&slot.endpoint) {
                Ok(()) => slot.misses.store(0, Ordering::Relaxed),
                Err(err) => {
                    let misses = slot.misses.fetch_add(1, Ordering::Relaxed) + 1;
                    if shared.tracer.enabled() {
                        shared.tracer.emit(
                            "fleet.heartbeat_miss",
                            &[
                                ("member", Value::Text(slot.name.clone())),
                                ("misses", misses.into()),
                                ("error", Value::Text(err.to_string())),
                            ],
                        );
                    }
                    if misses >= u64::from(max_misses) {
                        declare_dead(shared, idx);
                    }
                }
            }
        }
    }
}

/// The takeover state machine, all on the monitor thread: mark the member
/// dead (its ring arcs fall to the successors immediately), tell the
/// standby to adopt the replicated journal, then re-point the registry —
/// adopted jobs by their `(original, adopted)` id pairs, and jobs the
/// replica never saw by re-submitting the coordinator's own spec copy.
/// Either path re-runs deterministically, so results stay bit-identical.
fn declare_dead(shared: &Arc<FleetShared>, idx: usize) {
    let slot = &shared.members[idx];
    slot.alive.store(false, Ordering::SeqCst);
    *lock(&slot.conn) = None;
    shared.takeovers.fetch_add(1, Ordering::Relaxed);
    if shared.tracer.enabled() {
        shared.tracer.emit(
            "fleet.member_dead",
            &[("member", Value::Text(slot.name.clone()))],
        );
    }
    let n = shared.members.len();
    let standby = (1..n)
        .map(|k| (idx + k) % n)
        .find(|&j| shared.members[j].alive.load(Ordering::SeqCst));
    let Some(standby) = standby else {
        if shared.tracer.enabled() {
            shared.tracer.emit(
                "fleet.no_standby",
                &[("member", Value::Text(slot.name.clone()))],
            );
        }
        return;
    };
    // Adopt the replicated journal. A failure here degrades, not aborts:
    // every stranded job still gets re-submitted from the registry below.
    let adopted: HashMap<u64, u64> = member_call(shared, standby, |c| c.takeover(&slot.name))
        .map(|pairs| pairs.into_iter().collect())
        .unwrap_or_default();
    let stranded: Vec<(u64, Placement)> = lock(&shared.registry)
        .iter()
        .filter(|(_, p)| p.member == idx)
        .map(|(&id, p)| (id, p.clone()))
        .collect();
    let mut remapped = 0u64;
    let mut resubmitted = 0u64;
    for (fleet_id, placement) in stranded {
        let new_remote = match adopted.get(&placement.remote) {
            Some(&id) => {
                remapped += 1;
                Some(id)
            }
            None => match member_call(shared, standby, |c| c.submit(placement.spec.clone())) {
                Ok(id) => {
                    resubmitted += 1;
                    Some(id)
                }
                Err(_) => None, // standby also unreachable; its own death will re-run this
            },
        };
        if let Some(remote) = new_remote {
            lock(&shared.registry).insert(
                fleet_id,
                Placement {
                    member: standby,
                    remote,
                    spec: placement.spec,
                },
            );
        }
    }
    if shared.tracer.enabled() {
        shared.tracer.emit(
            "fleet.takeover",
            &[
                ("source", Value::Text(slot.name.clone())),
                ("standby", Value::Text(shared.members[standby].name.clone())),
                ("adopted", remapped.into()),
                ("resubmitted", resubmitted.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("m{i}")).collect()
    }

    #[test]
    fn ring_routing_is_deterministic_and_total() {
        let ring = HashRing::new(&names(3));
        let alive = vec![true, true, true];
        for key in [0u64, 1, u64::MAX, 0xdead_beef, 0x1234_5678_9abc_def0] {
            let a = ring.route(key, &alive);
            let b = ring.route(key, &alive);
            assert_eq!(a, b, "routing must be deterministic");
            assert!(a.is_some(), "a live ring always routes");
        }
    }

    #[test]
    fn ring_spreads_keys_across_members() {
        let ring = HashRing::new(&names(3));
        let alive = vec![true, true, true];
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            // `mix` models a well-distributed placement key, so the count
            // bound measures arc balance, not the key generator.
            let key = mix(fnv1a(&i.to_le_bytes(), 0xcbf2_9ce4_8422_2325));
            counts[ring.route(key, &alive).unwrap()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 600,
                "member {i} owns only {c}/3000 keys — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn death_moves_only_the_dead_members_keys() {
        let ring = HashRing::new(&names(3));
        let all = vec![true, true, true];
        let without1 = vec![true, false, true];
        let mut moved = 0;
        let mut kept = 0;
        for i in 0..2000u64 {
            let key = fnv1a(&i.to_le_bytes(), 0x9e37_79b9_7f4a_7c15);
            let before = ring.route(key, &all).unwrap();
            let after = ring.route(key, &without1).unwrap();
            if before == 1 {
                assert_ne!(after, 1, "keys must leave the dead member");
                moved += 1;
            } else {
                assert_eq!(before, after, "survivors' keys must not move");
                kept += 1;
            }
        }
        assert!(moved > 0 && kept > 0, "both cases must be exercised");
    }

    #[test]
    fn candidates_start_with_the_preferred_member() {
        let ring = HashRing::new(&names(4));
        for key in [7u64, 1 << 40, u64::MAX / 3] {
            let order = ring.candidates(key);
            assert_eq!(order.len(), 4, "every member appears once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(
                order[0],
                ring.route(key, &[true; 4]).unwrap(),
                "first candidate is the live route"
            );
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tracto-fleet-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replica_store_enforces_the_sequence_contract() {
        let dir = tmp("seq");
        let store = ReplicaStore::open(&dir).unwrap();
        let recs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // First contact without reset is a refused gap.
        let err = store.append("a", 0, false, &recs(&["r0"])).unwrap_err();
        assert!(err.to_string().contains("reset"), "{err}");
        assert_eq!(store.append("a", 0, true, &recs(&["r0", "r1"])).unwrap(), 2);
        assert_eq!(store.append("a", 2, false, &recs(&["r2"])).unwrap(), 3);
        // A gap (skipping seq 3) is refused and changes nothing.
        let err = store.append("a", 5, false, &recs(&["r5"])).unwrap_err();
        assert!(err.to_string().contains("gap"), "{err}");
        assert_eq!(store.next_seq("a"), Some(3));
        // Reset re-syncs from scratch.
        assert_eq!(store.append("a", 0, true, &recs(&["x0"])).unwrap(), 1);
        let text = store.take("a").unwrap();
        assert_eq!(text, "x0\n");
        // Taken: the next append must reset again.
        assert!(store.append("a", 1, false, &recs(&["x1"])).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_store_restores_sequence_across_reopen() {
        let dir = tmp("reopen");
        {
            let store = ReplicaStore::open(&dir).unwrap();
            store
                .append("host-a", 0, true, &["r0".into(), "r1".into()])
                .unwrap();
        }
        let store = ReplicaStore::open(&dir).unwrap();
        assert_eq!(store.next_seq("host-a"), Some(2));
        assert_eq!(store.append("host-a", 2, false, &["r2".into()]).unwrap(), 3);
        assert_eq!(store.take("host-a").unwrap(), "r0\nr1\nr2\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_source_names_are_rejected() {
        let dir = tmp("names");
        let store = ReplicaStore::open(&dir).unwrap();
        for name in ["", "../escape", "a/b", "a b", &"x".repeat(65)] {
            assert!(store.append(name, 0, true, &[]).is_err(), "{name:?}");
            assert!(store.take(name).is_err(), "{name:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
