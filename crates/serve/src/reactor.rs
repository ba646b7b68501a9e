//! The connection reactor: every socket client multiplexed onto one
//! event-driven IO thread plus a small fixed worker pool.
//!
//! A blocking handler thread per connection would cap concurrency at the
//! thread budget and make pushed events impossible (a handler blocked in
//! `read` cannot write). The reactor inverts this: all connections are
//! nonblocking and one IO thread scans them in a readiness loop —
//!
//! - **read**: bytes accumulate in a per-connection [`FrameBuf`], which
//!   yields complete frames regardless of how the kernel sliced them;
//! - **dispatch**: every verb is handled inline except `drain` (which
//!   blocks on service idleness and is shipped to the worker pool) and
//!   `await` (which parks as a *waiter* — no thread sleeps on it);
//! - **write**: responses and pushed events queue in a per-connection
//!   outbox, flushed as the socket accepts bytes. While an outbox is
//!   above [`OUT_SOFT_CAP`] the reactor stops reading from that client
//!   (backpressure); a subscriber so slow its outbox hits
//!   [`OUT_HARD_CAP`] is disconnected rather than buffered forever.
//!
//! Fairness and ordering: at most one request per connection is in
//! flight at a time (a parked `await` or dispatched `drain` holds the
//! slot), so responses on one connection always arrive in request order
//! even from a pipelining client; pushed `event` frames may interleave,
//! as the protocol allows. The whole front end is [`WORKERS`]` + 1`
//! threads no matter how many clients connect — the soak test drives
//! hundreds of concurrent connections through it.
//!
//! With `unsafe` forbidden workspace-wide there is no `poll(2)`; a scan
//! that makes no progress parks the thread instead. The park starts at
//! [`IDLE_MIN`] after any scan that made progress and doubles on each
//! empty scan up to [`IDLE_SLEEP`], so a busy client's next frame is read
//! within ~0.1 ms while a silent server wakes no more than once a
//! millisecond. Work that is not a socket byte does not wait for the
//! tick at all: every event-bus publish and every worker answer unparks
//! the thread (see [`EventBus::wake`](crate::events::EventBus::wake)).

use crate::events::{job_state, terminal_kind};
use crate::job::{JobOutput, Ticket};
use crate::listener::{metrics_wire, ConnStream, Listener, ServerState};
use crate::lock;
use crate::spec::JobSpec;
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind as IoKind, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tracto_proto::{
    b64, check_version, write_frame, Event, FrameBuf, JobState, Request, Response, PROTOCOL_VERSION,
};
use tracto_trace::{TractoError, TractoResult};

/// Blocking-verb workers (currently only `drain` needs one).
pub(crate) const WORKERS: usize = 2;

/// First park after a scan that made progress.
const IDLE_MIN: Duration = Duration::from_micros(50);

/// Longest park when scans keep finding nothing to do.
const IDLE_SLEEP: Duration = Duration::from_millis(1);

/// Most bytes read from one connection per scan, so one firehose client
/// cannot starve the rest.
const READ_BUDGET: usize = 64 * 1024;

/// Outbox level above which the reactor stops reading from a connection.
const OUT_SOFT_CAP: usize = 1 << 20;

/// Outbox level above which a connection is dropped as a dead subscriber.
const OUT_HARD_CAP: usize = 32 << 20;

/// How long the reactor keeps trying to flush a `shutting_down` response
/// (or final frames at stop) before giving up on the socket.
const FINAL_FLUSH: Duration = Duration::from_millis(500);

/// A blocking verb shipped off the IO thread.
enum Task {
    Drain { conn: u64 },
}

/// Threads owned by the reactor; joined by `SocketServer::stop`.
pub(crate) struct Handles {
    pub(crate) io: std::thread::JoinHandle<()>,
    pub(crate) workers: Vec<std::thread::JoinHandle<()>>,
}

/// Spawn the IO thread and worker pool over an already-bound listener.
pub(crate) fn spawn(listener: Listener, state: Arc<ServerState>) -> TractoResult<Handles> {
    let (task_tx, task_rx) = sync_channel::<Task>(1024);
    let (resp_tx, resp_rx) = sync_channel::<(u64, Response)>(1024);
    // The pool shares the one task receiver: whoever holds the lock
    // waits for the next task, the others wait for the lock.
    let task_rx = Arc::new(Mutex::new(task_rx));
    let mut workers = Vec::with_capacity(WORKERS);
    for i in 0..WORKERS {
        let state = Arc::clone(&state);
        let rx = Arc::clone(&task_rx);
        let tx = resp_tx.clone();
        let h = std::thread::Builder::new()
            .name(format!("tracto-reactor-work-{i}"))
            .spawn(move || worker_loop(&state, &rx, &tx))
            .map_err(|e| TractoError::io("spawn reactor worker", e))?;
        workers.push(h);
    }
    let io = std::thread::Builder::new()
        .name("tracto-reactor-io".into())
        .spawn(move || {
            let mut io = Io {
                state,
                conns: HashMap::new(),
                waiters: Vec::new(),
                task_tx,
                resp_rx,
            };
            io.run(listener);
        })
        .map_err(|e| TractoError::io("spawn reactor io thread", e))?;
    Ok(Handles { io, workers })
}

fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<Task>>, tx: &SyncSender<(u64, Response)>) {
    loop {
        // The guard drops at the end of this statement, before the task runs.
        let Ok(task) = lock(rx).recv() else { break };
        match task {
            Task::Drain { conn } => {
                state.service.drain();
                if tx.send((conn, Response::Drained)).is_err() {
                    break;
                }
                state.bus.wake();
            }
        }
    }
}

/// One multiplexed connection.
struct Conn {
    stream: ConnStream,
    inbox: FrameBuf,
    outbox: Vec<u8>,
    /// Bytes of `outbox` already written to the socket.
    out_pos: usize,
    /// Set once `hello` succeeds.
    hello_done: bool,
    /// A dispatched `drain` or parked `await` owns the response slot: no
    /// further frames are interpreted until it answers.
    busy: bool,
    /// Subscribed to every job's events.
    sub_all: bool,
    /// Subscribed to these jobs' events.
    sub_jobs: HashSet<u64>,
    /// Flush the outbox, then close (set after fatal protocol errors).
    closing: bool,
    /// Remove at the end of this scan, no further IO.
    dead: bool,
}

impl Conn {
    fn new(stream: ConnStream) -> Self {
        Conn {
            stream,
            inbox: FrameBuf::new(),
            outbox: Vec::new(),
            out_pos: 0,
            hello_done: false,
            busy: false,
            sub_all: false,
            sub_jobs: HashSet::new(),
            closing: false,
            dead: false,
        }
    }

    fn queue(&mut self, response: &Response) {
        self.queue_payload(&response.encode());
    }

    /// Append one already-encoded frame payload to the outbox.
    fn queue_payload(&mut self, payload: &str) {
        if self.dead {
            return;
        }
        if write_frame(&mut self.outbox, payload).is_err() {
            // Only an over-long payload can fail here; drop the peer
            // rather than desync its frame stream.
            self.dead = true;
        }
    }

    fn pending_out(&self) -> usize {
        self.outbox.len() - self.out_pos
    }

    /// Write queued bytes until the socket stops accepting them.
    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.out_pos < self.outbox.len() {
            match self.stream.write(&self.outbox[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == IoKind::WouldBlock => break,
                Err(e) if e.kind() == IoKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos == self.outbox.len() && !self.outbox.is_empty() {
            self.outbox.clear();
            self.out_pos = 0;
        }
        progress
    }

    /// Keep flushing (with short sleeps) until drained or the deadline
    /// passes — used for farewell frames where "best effort, bounded" is
    /// the right contract.
    fn flush_until(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.pending_out() > 0 && !self.dead && Instant::now() < deadline {
            self.flush();
            if self.pending_out() > 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

/// A parked `await`: the job, the connection waiting on it, and when to
/// give up. No thread blocks — the IO loop re-checks each scan.
struct Waiter {
    conn: u64,
    job: u64,
    ticket: Ticket<JobOutput>,
    deadline: Option<Instant>,
}

struct Io {
    state: Arc<ServerState>,
    conns: HashMap<u64, Conn>,
    waiters: Vec<Waiter>,
    task_tx: SyncSender<Task>,
    resp_rx: Receiver<(u64, Response)>,
}

impl Io {
    fn run(&mut self, listener: Listener) {
        let mut events: Vec<Event> = Vec::new();
        self.state.bus.set_waker(std::thread::current());
        let mut idle = IDLE_MIN;
        while !self.state.stop.load(Ordering::SeqCst) {
            let mut progress = false;
            progress |= self.accept(&listener);
            progress |= self.pump_worker_responses();
            progress |= self.pump_events(&mut events);
            progress |= self.scan();
            progress |= self.sweep_waiters(false);
            self.reap();
            if progress {
                idle = IDLE_MIN;
            } else {
                std::thread::park_timeout(idle);
                idle = next_idle(idle);
            }
        }
        // Stop: answer parked awaits with `pending` (as on a timeout), give
        // farewell frames a bounded chance to land, then close everything.
        self.sweep_waiters(true);
        for conn in self.conns.values_mut() {
            conn.flush_until(FINAL_FLUSH);
            conn.stream.shutdown_both();
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id);
        }
        drop(listener);
    }

    fn tracer(&self) -> tracto_trace::Tracer {
        self.state.service.config().tracer.clone()
    }

    fn accept(&mut self, listener: &Listener) -> bool {
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.state.next_conn.fetch_add(1, Ordering::Relaxed);
                    let tracer = self.tracer();
                    if tracer.enabled() {
                        tracer.emit("proto.conn_open", &[("conn", id.into())]);
                    }
                    self.conns.insert(id, Conn::new(stream));
                    progress = true;
                }
                Err(e) if e.kind() == IoKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        progress
    }

    fn pump_worker_responses(&mut self) -> bool {
        let mut progress = false;
        while let Ok((cid, response)) = self.resp_rx.try_recv() {
            if let Some(conn) = self.conns.get_mut(&cid) {
                conn.queue(&response);
                conn.busy = false;
            }
            progress = true;
        }
        progress
    }

    /// Fan freshly published lifecycle events out to subscribers.
    fn pump_events(&mut self, events: &mut Vec<Event>) -> bool {
        events.clear();
        self.state.bus.drain(events);
        if events.is_empty() {
            return false;
        }
        let tracer = self.tracer();
        for ev in events.drain(..) {
            let payload = Response::Event(ev.clone()).encode();
            for (cid, conn) in self.conns.iter_mut() {
                let subscribed = conn.sub_all || conn.sub_jobs.contains(&ev.job);
                if conn.dead || conn.closing || !subscribed {
                    continue;
                }
                if conn.pending_out() + payload.len() > OUT_HARD_CAP {
                    // A subscriber that stopped reading: cut it loose
                    // instead of buffering without bound.
                    conn.dead = true;
                    continue;
                }
                conn.queue_payload(&payload);
                if tracer.enabled() {
                    tracer.emit(
                        "proto.streamed",
                        &[
                            ("conn", (*cid).into()),
                            ("job", ev.job.into()),
                            ("seq", ev.seq.into()),
                            ("kind", ev.kind.clone().into()),
                        ],
                    );
                }
            }
        }
        true
    }

    /// Read, parse, dispatch, and flush every connection once.
    fn scan(&mut self) -> bool {
        let mut progress = false;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for cid in ids {
            progress |= self.read_conn(cid);
            progress |= self.parse_conn(cid);
            if let Some(conn) = self.conns.get_mut(&cid) {
                progress |= conn.flush();
                if conn.closing && conn.pending_out() == 0 {
                    conn.dead = true;
                }
            }
        }
        progress
    }

    fn read_conn(&mut self, cid: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&cid) else {
            return false;
        };
        if conn.dead || conn.closing || conn.pending_out() >= OUT_SOFT_CAP {
            return false;
        }
        let mut buf = [0u8; 8192];
        let mut total = 0usize;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    // Clean EOF between frames loses nothing; inside a
                    // frame there is nobody left to answer. Either way
                    // the connection is gone.
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.inbox.extend(&buf[..n]);
                    total += n;
                    if total >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == IoKind::WouldBlock => break,
                Err(e) if e.kind() == IoKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        total > 0
    }

    fn parse_conn(&mut self, cid: u64) -> bool {
        let mut progress = false;
        while let Some(conn) = self.conns.get_mut(&cid) {
            if conn.dead || conn.closing || conn.busy {
                break;
            }
            match conn.inbox.next_frame() {
                Ok(Some(payload)) => {
                    progress = true;
                    self.handle_payload(cid, &payload);
                }
                Ok(None) => break,
                Err(e) => {
                    // Framing violation: answer if possible, then close —
                    // frame sync is unrecoverable.
                    conn.queue(&Response::Error {
                        kind: "protocol".into(),
                        message: e.to_string(),
                    });
                    conn.closing = true;
                    progress = true;
                }
            }
        }
        progress
    }

    fn handle_payload(&mut self, cid: u64, payload: &str) {
        let request = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => {
                if let Some(conn) = self.conns.get_mut(&cid) {
                    if conn.hello_done {
                        // Decode failures leave frame sync intact —
                        // answer and carry on.
                        conn.queue(&Response::Error {
                            kind: "protocol".into(),
                            message: e.to_string(),
                        });
                    } else {
                        conn.closing = true;
                    }
                }
                return;
            }
        };
        if let Request::Hello { version, client } = request {
            self.handle_hello(cid, version, &client);
            return;
        }
        let Some(conn) = self.conns.get_mut(&cid) else {
            return;
        };
        if !conn.hello_done {
            conn.queue(&Response::Error {
                kind: "protocol".into(),
                message: "first request must be `hello`".into(),
            });
            conn.closing = true;
            return;
        }
        self.dispatch(cid, request);
    }

    fn handle_hello(&mut self, cid: u64, version: u32, client: &str) {
        let tracer = self.tracer();
        let Some(conn) = self.conns.get_mut(&cid) else {
            return;
        };
        if let Err(e) = check_version(version) {
            conn.queue(&error_response(&e));
            conn.closing = true;
            return;
        }
        conn.hello_done = true;
        if tracer.enabled() {
            tracer.emit(
                "proto.hello",
                &[
                    ("conn", cid.into()),
                    ("client", client.to_string().into()),
                    ("version", u64::from(version).into()),
                ],
            );
        }
        let member = self.state.member.clone();
        conn.queue(&Response::Hello {
            version: PROTOCOL_VERSION,
            server: "tracto-serve".into(),
            member,
        });
    }

    fn dispatch(&mut self, cid: u64, request: Request) {
        match request {
            Request::Hello { .. } => unreachable!("hello handled before dispatch"),
            Request::Submit(wire) => {
                let response = match JobSpec::from_wire(&wire) {
                    Err(e) => Response::Error {
                        kind: e.kind().to_string(),
                        message: e.to_string(),
                    },
                    Ok(spec) => match self.state.service.try_submit(spec) {
                        Err(e) => Response::Error {
                            kind: crate::events::error_kind(&e),
                            message: e.to_string(),
                        },
                        Ok(ticket) => {
                            let job = ticket.id.0;
                            lock(&self.state.jobs).insert(job, ticket);
                            self.state.remote_jobs.fetch_add(1, Ordering::Relaxed);
                            Response::Submitted { job }
                        }
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::Status { job } => {
                self.state.polls.fetch_add(1, Ordering::Relaxed);
                let response = match self.lookup(job) {
                    Err(r) => r,
                    Ok(ticket) => Response::Status {
                        job,
                        state: job_state(ticket.try_result()),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::Cancel { job } => {
                let response = match self.lookup(job) {
                    Err(r) => r,
                    Ok(ticket) => Response::Cancelled {
                        job,
                        cancelled: ticket.cancel(),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::Await { job, timeout_ms } => {
                self.state.polls.fetch_add(1, Ordering::Relaxed);
                match self.lookup(job) {
                    Err(r) => self.queue_to(cid, &r),
                    Ok(ticket) => {
                        if let Some(result) = ticket.try_result() {
                            self.queue_to(
                                cid,
                                &Response::Status {
                                    job,
                                    state: job_state(Some(result)),
                                },
                            );
                        } else {
                            // Park it: the response slot stays owned until
                            // the sweep resolves the waiter.
                            let deadline =
                                timeout_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
                            self.waiters.push(Waiter {
                                conn: cid,
                                job,
                                ticket,
                                deadline,
                            });
                            if let Some(conn) = self.conns.get_mut(&cid) {
                                conn.busy = true;
                            }
                        }
                    }
                }
            }
            Request::Metrics => {
                let snap = self.state.service.metrics();
                let remote = self.state.remote_jobs.load(Ordering::Relaxed);
                self.queue_to(
                    cid,
                    &Response::Metrics(Box::new(metrics_wire(&snap, remote))),
                );
            }
            Request::Drain => {
                let sent = self.task_tx.try_send(Task::Drain { conn: cid }).is_ok();
                if let Some(conn) = self.conns.get_mut(&cid) {
                    if sent {
                        conn.busy = true;
                    } else {
                        conn.queue(&Response::Error {
                            kind: "capacity".into(),
                            message: "drain queue is full".into(),
                        });
                    }
                }
            }
            Request::Shutdown => {
                if let Some(conn) = self.conns.get_mut(&cid) {
                    conn.queue(&Response::ShuttingDown);
                    // The host may stop the listener the moment it wakes,
                    // so land the farewell before signalling.
                    conn.flush_until(FINAL_FLUSH);
                }
                self.state.request_shutdown();
            }
            Request::Subscribe { job } => self.subscribe(cid, job),
            Request::UploadBegin { hash, len } => {
                let response = match self.uploads() {
                    Err(r) => r,
                    Ok(store) => match store.begin(cid, &hash, len) {
                        Ok((offset, complete)) => Response::UploadReady { offset, complete },
                        Err(e) => error_response(&e),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::UploadChunk { hash, offset, data } => {
                let response = match self.uploads() {
                    Err(r) => r,
                    Ok(store) => match b64::decode(&data) {
                        Err(e) => error_response(&e),
                        Ok(bytes) => match store.chunk(cid, &hash, offset, &bytes) {
                            Ok(received) => Response::UploadAck { received },
                            Err(e) => error_response(&e),
                        },
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::UploadCommit { hash } => {
                let response = match self.uploads() {
                    Err(r) => r,
                    Ok(store) => match store.commit(cid, &hash) {
                        Ok(bytes) => Response::UploadDone { hash, bytes },
                        Err(e) => error_response(&e),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::Ping => {
                let member = self.state.member.clone().unwrap_or_default();
                self.queue_to(cid, &Response::Pong { member });
            }
            Request::Replicate {
                source,
                first_seq,
                reset,
                records,
            } => {
                let response = match self.replica() {
                    Err(r) => r,
                    Ok(store) => match store.append(&source, first_seq, reset, &records) {
                        Ok(next) => Response::ReplAck { next },
                        Err(e) => error_response(&e),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::Takeover { source } => {
                let response = match self.replica() {
                    Err(r) => r,
                    Ok(store) => match store.take(&source) {
                        Err(e) => error_response(&e),
                        Ok(text) => self.adopt_replica(&source, &text),
                    },
                };
                self.queue_to(cid, &response);
            }
            Request::FleetStatus | Request::Route(_) => {
                self.queue_to(
                    cid,
                    &Response::Error {
                        kind: "config".into(),
                        message: "this server is a fleet member, not a coordinator \
                                  (connect to `tracto fleet` for fleet_status/route)"
                            .into(),
                    },
                );
            }
        }
    }

    /// Host-death takeover, member side: replay the dead member's
    /// replicated journal with the same scan a local restart uses, then
    /// re-enqueue every unfinished job here under fresh ids (this host's
    /// own journal write-aheads them, so the adoption survives *our* crash
    /// too). Answers with `(original, adopted)` id pairs so the
    /// coordinator can remap live bindings. Determinism makes the re-run
    /// bit-identical to what the dead member would have produced.
    fn adopt_replica(&mut self, source: &str, text: &str) -> Response {
        let tracer = self.tracer();
        let recovery = crate::journal::replay_text(text, &tracer);
        let mut jobs = Vec::with_capacity(recovery.jobs.len());
        for r in recovery.jobs {
            let spec = match JobSpec::from_wire(&r.spec) {
                Ok(spec) => spec,
                Err(e) => {
                    // An unconvertible replicated spec (protocol drift
                    // across hosts) is skipped observably, not silently.
                    if tracer.enabled() {
                        tracer.emit(
                            "fleet.takeover_skip",
                            &[
                                ("source", source.to_string().into()),
                                ("orig_job", r.id.into()),
                                ("error", e.to_string().into()),
                            ],
                        );
                    }
                    continue;
                }
            };
            match self.state.service.try_submit(spec) {
                Ok(ticket) => {
                    let adopted = ticket.id.0;
                    lock(&self.state.jobs).insert(adopted, ticket);
                    self.state.remote_jobs.fetch_add(1, Ordering::Relaxed);
                    jobs.push((r.id, adopted));
                }
                Err(e) => {
                    return Response::Error {
                        kind: crate::events::error_kind(&e),
                        message: format!("takeover of `{source}` job {}: {e}", r.id),
                    }
                }
            }
        }
        if tracer.enabled() {
            tracer.emit(
                "fleet.took_over",
                &[
                    ("source", source.to_string().into()),
                    ("jobs", (jobs.len() as u64).into()),
                ],
            );
        }
        Response::TookOver { jobs }
    }

    fn subscribe(&mut self, cid: u64, job: Option<u64>) {
        match job {
            None => {
                if let Some(conn) = self.conns.get_mut(&cid) {
                    conn.sub_all = true;
                    conn.queue(&Response::Subscribed { job: None });
                }
            }
            Some(id) => match self.lookup(id) {
                Err(r) => self.queue_to(cid, &r),
                Ok(ticket) => {
                    // Register before checking, so a completion landing
                    // between the check and the next bus drain is pushed
                    // (events are drained on this same thread, after
                    // dispatch — never concurrently with it).
                    let terminal = ticket.try_result();
                    let tracer = self.tracer();
                    if let Some(conn) = self.conns.get_mut(&cid) {
                        conn.sub_jobs.insert(id);
                        conn.queue(&Response::Subscribed { job: Some(id) });
                        if let Some(result) = terminal {
                            // Already over: synthesize the terminal event
                            // so a late subscriber can never hang.
                            let ev = Event {
                                seq: self.state.bus.next_seq(),
                                job: id,
                                kind: terminal_kind(&result).to_string(),
                                state: job_state(Some(result)),
                            };
                            if tracer.enabled() {
                                tracer.emit(
                                    "proto.streamed",
                                    &[
                                        ("conn", cid.into()),
                                        ("job", ev.job.into()),
                                        ("seq", ev.seq.into()),
                                        ("kind", ev.kind.clone().into()),
                                    ],
                                );
                            }
                            conn.queue(&Response::Event(ev));
                        }
                    }
                }
            },
        }
    }

    /// Resolve parked awaits: completion answers with the final state, a
    /// passed deadline answers `pending`, and at stop (`flush_all`)
    /// everything left answers `pending` — the `await` timeout contract,
    /// minus the blocked thread.
    fn sweep_waiters(&mut self, resolve_all: bool) -> bool {
        if self.waiters.is_empty() {
            return false;
        }
        let now = Instant::now();
        let mut resolved: Vec<(u64, Response)> = Vec::new();
        self.waiters.retain(|w| {
            if let Some(result) = w.ticket.try_result() {
                resolved.push((
                    w.conn,
                    Response::Status {
                        job: w.job,
                        state: job_state(Some(result)),
                    },
                ));
                return false;
            }
            let expired = resolve_all || w.deadline.is_some_and(|d| d <= now);
            if expired {
                resolved.push((
                    w.conn,
                    Response::Status {
                        job: w.job,
                        state: JobState::Pending,
                    },
                ));
                return false;
            }
            true
        });
        let progress = !resolved.is_empty();
        for (cid, response) in resolved {
            if let Some(conn) = self.conns.get_mut(&cid) {
                conn.queue(&response);
                conn.busy = false;
            }
        }
        progress
    }

    /// Remove connections marked dead this scan.
    fn reap(&mut self) {
        let dead: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.dead)
            .map(|(id, _)| *id)
            .collect();
        for id in dead {
            self.close(id);
        }
    }

    fn close(&mut self, cid: u64) {
        if let Some(conn) = self.conns.remove(&cid) {
            conn.stream.shutdown_both();
            self.waiters.retain(|w| w.conn != cid);
            if let Some(store) = &self.state.uploads {
                store.drop_conn(cid);
            }
            let tracer = self.tracer();
            if tracer.enabled() {
                tracer.emit("proto.conn_close", &[("conn", cid.into())]);
            }
        }
    }

    fn queue_to(&mut self, cid: u64, response: &Response) {
        if let Some(conn) = self.conns.get_mut(&cid) {
            conn.queue(response);
        }
    }

    fn lookup(&self, job: u64) -> Result<Ticket<JobOutput>, Response> {
        lock(&self.state.jobs)
            .get(&job)
            .cloned()
            .ok_or(Response::Error {
                kind: "protocol".into(),
                message: format!("unknown job id {job}"),
            })
    }

    fn uploads(&self) -> Result<Arc<crate::uploads::UploadStore>, Response> {
        self.state.uploads.clone().ok_or(Response::Error {
            kind: "config".into(),
            message: "uploads require --state-dir".into(),
        })
    }

    fn replica(&self) -> Result<Arc<crate::fleet::ReplicaStore>, Response> {
        self.state.replica.clone().ok_or(Response::Error {
            kind: "config".into(),
            message: "journal replication requires --state-dir".into(),
        })
    }
}

/// The park after another empty scan: double the last one, up to
/// [`IDLE_SLEEP`].
fn next_idle(idle: Duration) -> Duration {
    (idle * 2).min(IDLE_SLEEP)
}

fn error_response(e: &TractoError) -> Response {
    Response::Error {
        kind: e.kind().to_string(),
        message: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_park_backs_off_from_the_minimum_to_the_tick() {
        let mut idle = IDLE_MIN;
        let mut parks = vec![idle];
        while idle < IDLE_SLEEP {
            idle = next_idle(idle);
            parks.push(idle);
        }
        assert_eq!(parks.first(), Some(&Duration::from_micros(50)));
        assert!(parks.windows(2).all(|w| w[1] == (w[0] * 2).min(IDLE_SLEEP)));
        assert_eq!(next_idle(IDLE_SLEEP), IDLE_SLEEP, "the tick is the ceiling");
        // A silent server reaches the tick within a few empty scans, so it
        // wakes no more often than a fixed 1 ms sleep would.
        assert!(parks.len() <= 6, "{parks:?}");
    }
}
