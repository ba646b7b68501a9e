//! The socket front end: binds the endpoint, owns shared server state,
//! and hosts the connection [`reactor`](crate::reactor).
//!
//! The front end is event-driven: instead of one blocking handler
//! thread per connection, a single nonblocking IO thread multiplexes
//! every client (plus a small fixed worker pool for the one verb that
//! blocks, `drain`). This file keeps the pieces that
//! are about the *endpoint* rather than the connections: the stale-
//! socket replacement dance at bind, the public [`SocketServer`] API,
//! and teardown — stop raises a flag, the reactor closes every live
//! connection and exits, and the threads are joined here, so no
//! descriptor outlives [`SocketServer::stop`].
//!
//! Error discipline follows the protocol contract: a request the server
//! cannot *decode* is answered with an `error` response and the
//! connection survives (frame boundaries are intact); a *framing*
//! violation — bad length prefix, oversized frame — tears the connection
//! down. A client that disconnects mid-job loses only its handle: the
//! job itself runs to completion and keeps warming the cache.

use crate::events::EventBus;
use crate::job::{JobOutput, Ticket};
use crate::lock;
use crate::metrics::MetricsSnapshot;
use crate::reactor;
use crate::service::TractoService;
use crate::uploads::UploadStore;
use std::collections::HashMap;
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, Mutex};
use tracto_proto::{Endpoint, MetricsWire};
use tracto_trace::{TractoError, TractoResult};

pub(crate) enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    pub(crate) fn accept(&self) -> std::io::Result<ConnStream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| ConnStream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| ConnStream::Tcp(s)),
        }
    }

    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

/// Bind an endpoint, returning the listener, the endpoint actually bound
/// (for TCP a `:0` request carries the kernel-assigned port back), and the
/// socket file to unlink at teardown (Unix only). For a Unix endpoint a
/// stale socket file left by a crashed process (one nothing answers on) is
/// replaced; a *live* socket is an error. Shared by [`SocketServer`] and
/// the fleet coordinator ([`crate::fleet::Fleet`]).
pub(crate) fn bind_endpoint(
    endpoint: &Endpoint,
) -> TractoResult<(Listener, Endpoint, Option<PathBuf>)> {
    match endpoint {
        Endpoint::Unix(path) => {
            let listener = match UnixListener::bind(path) {
                Ok(l) => l,
                Err(e) if e.kind() == IoKind::AddrInUse => {
                    if UnixStream::connect(path).is_ok() {
                        return Err(TractoError::io(
                            format!("bind {}: another server is listening", path.display()),
                            e,
                        ));
                    }
                    std::fs::remove_file(path)
                        .map_err(|e| TractoError::io("remove stale socket", e))?;
                    UnixListener::bind(path).map_err(|e| TractoError::io("bind unix socket", e))?
                }
                Err(e) => return Err(TractoError::io("bind unix socket", e)),
            };
            Ok((
                Listener::Unix(listener),
                Endpoint::Unix(path.clone()),
                Some(path.clone()),
            ))
        }
        Endpoint::Tcp(addr) => {
            let listener =
                TcpListener::bind(addr).map_err(|e| TractoError::io("bind tcp socket", e))?;
            let actual = listener
                .local_addr()
                .map(|a| Endpoint::Tcp(a.to_string()))
                .unwrap_or_else(|_| Endpoint::Tcp(addr.clone()));
            Ok((Listener::Tcp(listener), actual, None))
        }
    }
}

pub(crate) enum ConnStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ConnStream {
    pub(crate) fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.set_nonblocking(nb),
            ConnStream::Tcp(s) => s.set_nonblocking(nb),
        }
    }

    /// Bound how long a blocking `read` waits — lets a thread-per-
    /// connection handler (the fleet coordinator) poll its stop flag.
    pub(crate) fn set_read_timeout(&self, dur: Option<std::time::Duration>) -> std::io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.set_read_timeout(dur),
            ConnStream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    /// Half-close both directions so the peer observes a clean
    /// end-of-stream.
    pub(crate) fn shutdown_both(&self) {
        let _ = match self {
            ConnStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            ConnStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.read(buf),
            ConnStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ConnStream::Unix(s) => s.write(buf),
            ConnStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ConnStream::Unix(s) => s.flush(),
            ConnStream::Tcp(s) => s.flush(),
        }
    }
}

pub(crate) struct ServerState {
    pub(crate) service: Arc<TractoService>,
    /// Tickets by wire job id, shared across connections: a job submitted
    /// on one connection can be polled or cancelled from another.
    pub(crate) jobs: Mutex<HashMap<u64, Ticket<JobOutput>>>,
    pub(crate) next_conn: AtomicU64,
    pub(crate) remote_jobs: AtomicU64,
    /// `status` + `await` requests served — the requests event
    /// subscriptions make unnecessary. The soak test asserts this stays
    /// at zero when every client follows pushed events.
    pub(crate) polls: AtomicU64,
    pub(crate) stop: AtomicBool,
    pub(crate) shutdown_requested: Mutex<bool>,
    pub(crate) shutdown_cv: Condvar,
    /// Staged/committed volume uploads; `None` without `--state-dir`.
    pub(crate) uploads: Option<Arc<UploadStore>>,
    /// The service's lifecycle event bus, drained by the reactor.
    pub(crate) bus: Arc<EventBus>,
    /// This host's fleet member name (`serve --member`); `None` when
    /// standalone. Echoed in `hello` and `pong`.
    pub(crate) member: Option<String>,
    /// Replicated journals from other members; `None` without
    /// `--state-dir`. Serves `replicate` appends and `takeover` replays.
    pub(crate) replica: Option<Arc<crate::fleet::ReplicaStore>>,
}

impl ServerState {
    pub(crate) fn request_shutdown(&self) {
        let mut requested = lock(&self.shutdown_requested);
        *requested = true;
        self.shutdown_cv.notify_all();
    }
}

/// A running socket front end over a [`TractoService`]. Owns the reactor
/// IO thread and its worker pool; [`stop`](Self::stop) (or drop) tears
/// them down and closes every live connection. The service itself is
/// shared and outlives the listener — in-process submission keeps working
/// while the socket is up, against the same queues, cache, and metrics.
pub struct SocketServer {
    state: Arc<ServerState>,
    endpoint: Endpoint,
    io: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Socket file to unlink at stop (Unix endpoints only).
    cleanup: Option<PathBuf>,
}

impl SocketServer {
    /// Bind the endpoint and start the reactor.
    ///
    /// For a Unix endpoint, a stale socket file left by a crashed server
    /// (one nothing answers on) is replaced; a *live* socket is an error.
    /// With `--state-dir` configured this also opens the upload store and
    /// sweeps staging files orphaned by a previous process.
    pub fn bind(service: Arc<TractoService>, endpoint: &Endpoint) -> TractoResult<Self> {
        let (listener, bound, cleanup) = bind_endpoint(endpoint)?;
        listener
            .set_nonblocking(true)
            .map_err(|e| TractoError::io("set listener nonblocking", e))?;

        let uploads = match &service.config().state_dir {
            Some(dir) => Some(Arc::new(UploadStore::open(&dir.join("uploads"))?)),
            None => None,
        };
        let replica = match &service.config().state_dir {
            Some(dir) => Some(Arc::new(crate::fleet::ReplicaStore::open(
                &dir.join("replica"),
            )?)),
            None => None,
        };
        let member = service.config().member.clone();
        let bus = service.event_bus();
        bus.attach();
        let state = Arc::new(ServerState {
            service,
            jobs: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            remote_jobs: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shutdown_requested: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            uploads,
            bus,
            member,
            replica,
        });

        let handles = reactor::spawn(listener, Arc::clone(&state))?;

        if state.service.config().tracer.enabled() {
            state
                .service
                .config()
                .tracer
                .emit("proto.listening", &[("endpoint", bound.to_string().into())]);
        }
        Ok(SocketServer {
            state,
            endpoint: bound,
            io: Some(handles.io),
            workers: handles.workers,
            cleanup,
        })
    }

    /// The endpoint actually bound — for TCP this carries the real port
    /// even when `:0` was requested.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Jobs submitted over the socket since bind.
    pub fn remote_jobs(&self) -> u64 {
        self.state.remote_jobs.load(Ordering::Relaxed)
    }

    /// `status` and `await` requests served since bind. Clients that
    /// follow pushed events keep this at zero.
    pub fn poll_requests(&self) -> u64 {
        self.state.polls.load(Ordering::Relaxed)
    }

    /// Adopt tickets recovered from the job journal (see
    /// [`TractoService::recover`]) under their original wire job ids, so a
    /// client that submitted before the crash can keep polling the same id
    /// after the restart.
    pub fn adopt_jobs(&self, jobs: Vec<(u64, Ticket<JobOutput>)>) {
        let mut map = lock(&self.state.jobs);
        for (id, ticket) in jobs {
            map.insert(id, ticket);
        }
    }

    /// Block until some client sends a `shutdown` request (the signal for
    /// the hosting process to [`stop`](Self::stop) the listener and shut
    /// the service down).
    pub fn wait_shutdown(&self) {
        let requested = lock(&self.state.shutdown_requested);
        let _requested = self.state.shutdown_cv.wait_while(requested, |r| !*r);
    }

    /// Stop accepting, close every live connection, and join all threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.bus.wake();
        // Wake wait_shutdown() callers so a hosting process that stops the
        // listener directly doesn't strand a waiter.
        self.state.request_shutdown();
        if let Some(h) = self.io.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.state.bus.detach();
        if let Some(path) = self.cleanup.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Flatten a service snapshot into its wire form.
pub fn metrics_wire(snap: &MetricsSnapshot, remote_jobs: u64) -> MetricsWire {
    MetricsWire {
        submitted: snap.submitted,
        completed: snap.completed,
        failed: snap.failed,
        cancelled: snap.cancelled,
        deadline_exceeded: snap.deadline_exceeded,
        in_flight: snap.in_flight,
        batches: snap.batches,
        batch_jobs: snap.batch_jobs,
        mean_batch_occupancy: snap.mean_batch_occupancy,
        lanes_tracked: snap.lanes_tracked,
        launches: snap.launches,
        mean_wavefront_utilization: snap.mean_wavefront_utilization,
        estimations_run: snap.estimations_run,
        faults_injected: snap.faults_injected,
        device_retries: snap.device_retries,
        job_retries: snap.job_retries,
        failovers: snap.failovers,
        devices_alive: snap.devices_alive,
        devices_total: snap.devices_total,
        tracking_sim_s: snap.tracking_sim_s,
        overlap_saved_sim_s: snap.overlap_saved_sim_s,
        stream_occupancy: snap.stream_occupancy,
        estimation_sim_s: snap.estimation_sim_s,
        cache_hits: snap.cache.hits,
        cache_misses: snap.cache.misses,
        cache_evictions: snap.cache.evictions,
        cache_bytes: snap.cache.bytes,
        cache_entries: snap.cache.entries as u64,
        remote_jobs,
        deadline_hits: snap.deadline_hits,
        sheds: snap.sheds,
        demotions: snap.demotions,
        rate_limited: snap.rate_limited,
        tenants: snap
            .tenants
            .iter()
            .map(|t| tracto_proto::TenantWire {
                name: t.name.clone(),
                submitted: t.submitted,
                completed: t.completed,
                shed: t.shed,
            })
            .collect(),
    }
}
