//! Protocol messages: the JSON payloads carried inside frames.
//!
//! Every message is an object with a `"type"` tag. The first message on a
//! connection must be `hello` in each direction; after a successful
//! handshake any request may follow. A request the server cannot decode is
//! answered with an `error` response — frame boundaries stay intact, so
//! the connection survives; only *framing* violations tear it down.

use crate::json_util::{
    obj_array, obj_bool, obj_opt_str, obj_opt_u64, obj_str, obj_u32, obj_u64, JsonWriter,
};
use crate::spec::JobSpec;
use tracto_trace::json::{parse, Json};
use tracto_trace::{TractoError, TractoResult};

/// Upper bound on the *raw* byte length of one `upload_chunk` payload
/// (4 MiB). Base64 expansion keeps the encoded frame well under
/// [`MAX_FRAME_BYTES`](crate::MAX_FRAME_BYTES); a server refuses larger
/// chunks before decoding them.
pub const UPLOAD_CHUNK_MAX: u64 = 4 << 20;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION).
        version: u32,
        /// Free-form client identification, for trace spans.
        client: String,
    },
    /// Submit a job; answered with [`Response::Submitted`].
    Submit(Box<JobSpec>),
    /// Poll a job's state without blocking.
    Status {
        /// Server-assigned job id from [`Response::Submitted`].
        job: u64,
    },
    /// Request cancellation; answered with [`Response::Cancelled`].
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Block until the job finishes (or `timeout_ms` elapses), then answer
    /// with its [`Response::Status`].
    Await {
        /// Job id.
        job: u64,
        /// Give up waiting after this long; `None` waits indefinitely.
        timeout_ms: Option<u64>,
    },
    /// Fetch a service metrics snapshot.
    Metrics,
    /// Block until all in-flight jobs finish.
    Drain,
    /// Ask the serving process to drain and exit.
    Shutdown,
    /// Subscribe this connection to pushed [`Response::Event`]s:
    /// every job's lifecycle transitions, or one job's. Answered with
    /// [`Response::Subscribed`]; if the named job is already terminal its
    /// terminal event is pushed immediately after, so subscribing after
    /// `submit` can never miss the end of a fast job.
    Subscribe {
        /// Restrict the subscription to one job id; `None` streams all.
        job: Option<u64>,
    },
    /// Open (or resume) a chunked volume upload. Answered with
    /// [`Response::UploadReady`] carrying the offset to continue from.
    UploadBegin {
        /// FNV-1a content hash of the complete blob, 16 hex digits.
        hash: String,
        /// Total blob length in bytes.
        len: u64,
    },
    /// Append one chunk to an open upload; answered with
    /// [`Response::UploadAck`].
    UploadChunk {
        /// Hash from [`Request::UploadBegin`].
        hash: String,
        /// Byte offset of this chunk (must equal the staged length).
        offset: u64,
        /// Base64-encoded chunk bytes, at most [`UPLOAD_CHUNK_MAX`] raw.
        data: String,
    },
    /// Verify the staged bytes against the declared hash and publish
    /// the blob for job submission; answered with
    /// [`Response::UploadDone`].
    UploadCommit {
        /// Hash from [`Request::UploadBegin`].
        hash: String,
    },
    /// Liveness probe; answered with [`Response::Pong`] by every peer.
    Ping,
    /// Append replicated job-journal records to this host's replica
    /// of `source`'s journal; answered with [`Response::ReplAck`].
    /// Records are raw journal lines streamed in order: `first_seq` names
    /// the sequence number of `records[0]`, and a gap (a `first_seq`
    /// beyond the replica's length) is refused so the source re-syncs.
    Replicate {
        /// The replicating member's name (one replica file per source).
        source: String,
        /// Sequence number (0-based replica line index) of `records[0]`.
        first_seq: u64,
        /// Discard any existing replica of `source` first — sent on
        /// (re)connect so the stream always starts from a known prefix.
        reset: bool,
        /// Raw journal lines, in append order.
        records: Vec<String>,
    },
    /// Declare `source` dead: replay its replicated journal and
    /// re-enqueue its unfinished jobs on this host; answered with
    /// [`Response::TookOver`].
    Takeover {
        /// The dead member whose replica to adopt.
        source: String,
    },
    /// Fleet topology snapshot (answered by a coordinator); answered
    /// with [`Response::Fleet`].
    FleetStatus,
    /// Ask a coordinator which member the spec's placement hash
    /// routes to, without submitting; answered with [`Response::Routed`].
    Route(Box<JobSpec>),
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    Hello {
        /// The server's [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION).
        version: u32,
        /// Free-form server identification.
        server: String,
        /// The server's fleet member name, when it runs with one
        /// (`serve --member`). Absent on the wire before v3 and on
        /// standalone servers; decoding tolerates both.
        member: Option<String>,
    },
    /// The job was accepted and assigned an id.
    Submitted {
        /// Id for subsequent `status`/`cancel`/`await` requests.
        job: u64,
    },
    /// A job's current (or, for `await`, final) state.
    Status {
        /// Job id.
        job: u64,
        /// The state.
        state: JobState,
    },
    /// Cancellation outcome.
    Cancelled {
        /// Job id.
        job: u64,
        /// `true` if the cancel arrived in time to stop fulfilment.
        cancelled: bool,
    },
    /// A metrics snapshot.
    Metrics(Box<MetricsWire>),
    /// All in-flight jobs have finished.
    Drained,
    /// The server accepted a shutdown request and is draining.
    ShuttingDown,
    /// The request failed; `kind` matches
    /// [`ErrorKind`](tracto_trace::ErrorKind) display names.
    Error {
        /// Error discriminant name (`protocol`, `config`, ...).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
    /// The subscription is active.
    Subscribed {
        /// The job filter that was installed (`None` = all jobs).
        job: Option<u64>,
    },
    /// A pushed job-lifecycle event. Unlike every other response this
    /// one is *unsolicited*: it may arrive between a request and its
    /// response, and clients must buffer it (see
    /// [`RemoteService::next_event`](crate::RemoteService::next_event)).
    Event(Event),
    /// Upload opened; continue from `offset` (`complete` means the
    /// blob was already committed under this hash — nothing to send).
    UploadReady {
        /// Bytes already staged (or the full length when `complete`).
        offset: u64,
        /// The hash is already committed; skip straight to submission.
        complete: bool,
    },
    /// Chunk accepted.
    UploadAck {
        /// Total bytes staged after this chunk.
        received: u64,
    },
    /// Upload verified and committed.
    UploadDone {
        /// The committed content hash.
        hash: String,
        /// Total blob length.
        bytes: u64,
    },
    /// Liveness probe answer.
    Pong {
        /// The answering host's fleet member name (empty when it has
        /// none).
        member: String,
    },
    /// Replicated records were durably appended.
    ReplAck {
        /// The next sequence number the replica expects (replica length).
        next: u64,
    },
    /// Takeover finished: the replica was replayed and its
    /// unfinished jobs re-enqueued on the answering host.
    TookOver {
        /// `(original_id, adopted_id)` pairs for every re-enqueued job;
        /// the coordinator uses them to remap live bindings.
        jobs: Vec<(u64, u64)>,
    },
    /// Fleet topology snapshot.
    Fleet(Box<FleetWire>),
    /// Where a spec's placement hash routes.
    Routed {
        /// The member name the consistent hash selects.
        member: String,
    },
}

/// One fleet member as reported by `fleet_status`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberWire {
    /// The member's name.
    pub name: String,
    /// The endpoint the coordinator dials it on.
    pub endpoint: String,
    /// Whether the heartbeat monitor currently considers it alive.
    pub alive: bool,
    /// Jobs the coordinator has routed to it.
    pub jobs_routed: u64,
    /// Consecutive heartbeat misses (resets on a successful ping).
    pub heartbeat_misses: u64,
}

/// The fleet topology snapshot carried by [`Response::Fleet`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetWire {
    /// Members in hash-ring order of registration.
    pub members: Vec<MemberWire>,
    /// Completed takeovers since the coordinator started.
    pub takeovers: u64,
    /// Total jobs routed since the coordinator started.
    pub jobs_routed: u64,
}

impl std::fmt::Display for FleetWire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet: {} member(s), {} job(s) routed, {} takeover(s)",
            self.members.len(),
            self.jobs_routed,
            self.takeovers
        )?;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "  {} @ {} — {}, {} job(s), {} missed heartbeat(s)",
                m.name,
                m.endpoint,
                if m.alive { "alive" } else { "dead" },
                m.jobs_routed,
                m.heartbeat_misses
            )?;
        }
        Ok(())
    }
}

/// A pushed job-lifecycle transition. `kind` is one of
/// `admitted` | `checkpointed` | `completed` | `cancelled` | `failed`; the
/// last three are terminal and carry the job's final [`JobState`], so a
/// subscriber needs no follow-up `status` poll.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Server-side push sequence number (per connection, monotonic).
    pub seq: u64,
    /// The job this transition belongs to.
    pub job: u64,
    /// Transition name.
    pub kind: String,
    /// The job's state as of this transition (`Pending` for non-terminal
    /// kinds).
    pub state: JobState,
}

impl Event {
    /// Whether this transition ended the job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(self.kind.as_str(), "completed" | "cancelled" | "failed")
    }
}

/// A job's lifecycle state as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Queued or running.
    Pending,
    /// Finished successfully.
    Done(Outcome),
    /// Finished with an error.
    Failed {
        /// Error discriminant name.
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// What a finished job produced. Tracking results travel as a summary plus
/// an FNV-1a digest of the full per-sample length table
/// ([`lengths_digest`](crate::lengths_digest)), which is how two runs are
/// compared bit-for-bit without shipping every streamline.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An estimation job's result.
    Estimate {
        /// Voxels estimated.
        voxels: u64,
        /// Whether the samples came from the cache.
        cache_hit: bool,
    },
    /// A tracking job's result.
    Track {
        /// Total tracking steps across all lanes.
        total_steps: u64,
        /// Streamlines produced.
        streamlines: u64,
        /// FNV-1a digest of `lengths_by_sample`.
        lengths_digest: u64,
        /// Whether estimation was served from the cache.
        cache_hit: bool,
        /// Jobs sharing the batch that tracked this one.
        batch_jobs: u64,
        /// Lanes in that batch.
        batch_lanes: u64,
    },
}

/// A flattened service metrics snapshot (the wire form of serve's
/// `MetricsSnapshot`).
#[derive(Debug, Clone, PartialEq, Default)]
#[allow(missing_docs)] // field names mirror serve::MetricsSnapshot
pub struct MetricsWire {
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub deadline_exceeded: u64,
    pub in_flight: u64,
    pub batches: u64,
    pub batch_jobs: u64,
    pub mean_batch_occupancy: f64,
    pub lanes_tracked: u64,
    pub launches: u64,
    pub mean_wavefront_utilization: f64,
    pub estimations_run: u64,
    pub faults_injected: u64,
    pub device_retries: u64,
    pub job_retries: u64,
    pub failovers: u64,
    pub devices_alive: u64,
    pub devices_total: u64,
    pub tracking_sim_s: f64,
    pub overlap_saved_sim_s: f64,
    pub stream_occupancy: f64,
    pub estimation_sim_s: f64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_bytes: u64,
    pub cache_entries: u64,
    pub remote_jobs: u64,
    pub deadline_hits: u64,
    pub sheds: u64,
    pub demotions: u64,
    pub rate_limited: u64,
    pub tenants: Vec<TenantWire>,
}

/// Per-tenant counters inside a [`MetricsWire`] snapshot. Additive: old
/// servers never send the `tenants` array and old clients ignore it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantWire {
    /// Tenant name (`default` for unlabelled traffic).
    pub name: String,
    /// Jobs this tenant submitted.
    pub submitted: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs refused by the overload ladder (shed or rate-limited).
    pub shed: u64,
}

impl MetricsWire {
    fn u64_fields(&self) -> [(&'static str, u64); 22] {
        [
            ("submitted", self.submitted),
            ("completed", self.completed),
            ("failed", self.failed),
            ("cancelled", self.cancelled),
            ("deadline_exceeded", self.deadline_exceeded),
            ("in_flight", self.in_flight),
            ("batches", self.batches),
            ("batch_jobs", self.batch_jobs),
            ("lanes_tracked", self.lanes_tracked),
            ("launches", self.launches),
            ("estimations_run", self.estimations_run),
            ("faults_injected", self.faults_injected),
            ("device_retries", self.device_retries),
            ("job_retries", self.job_retries),
            ("failovers", self.failovers),
            ("devices_alive", self.devices_alive),
            ("devices_total", self.devices_total),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("cache_bytes", self.cache_bytes),
            ("cache_entries", self.cache_entries),
        ]
    }

    fn write_json(&self, w: &mut JsonWriter) {
        w.begin();
        for (name, value) in self.u64_fields() {
            w.u64_field(name, value);
        }
        w.u64_field("remote_jobs", self.remote_jobs);
        w.f64_field("mean_batch_occupancy", self.mean_batch_occupancy);
        w.f64_field(
            "mean_wavefront_utilization",
            self.mean_wavefront_utilization,
        );
        w.f64_field("tracking_sim_s", self.tracking_sim_s);
        w.f64_field("overlap_saved_sim_s", self.overlap_saved_sim_s);
        w.f64_field("stream_occupancy", self.stream_occupancy);
        w.f64_field("estimation_sim_s", self.estimation_sim_s);
        // Overload counters append at the end: pre-overload servers never
        // send them, so the decoder treats them as optional.
        w.u64_field("deadline_hits", self.deadline_hits);
        w.u64_field("sheds", self.sheds);
        w.u64_field("demotions", self.demotions);
        w.u64_field("rate_limited", self.rate_limited);
        if !self.tenants.is_empty() {
            w.array_field("tenants", self.tenants.len(), |w, i| {
                let t = &self.tenants[i];
                w.begin();
                w.str_field("name", &t.name);
                w.u64_field("submitted", t.submitted);
                w.u64_field("completed", t.completed);
                w.u64_field("shed", t.shed);
                w.end();
            });
        }
        w.end();
    }

    fn from_json(v: &Json) -> TractoResult<Self> {
        use crate::json_util::{obj_f64, obj_opt_f64};
        Ok(MetricsWire {
            submitted: obj_u64(v, "submitted")?,
            completed: obj_u64(v, "completed")?,
            failed: obj_u64(v, "failed")?,
            cancelled: obj_u64(v, "cancelled")?,
            deadline_exceeded: obj_u64(v, "deadline_exceeded")?,
            in_flight: obj_u64(v, "in_flight")?,
            batches: obj_u64(v, "batches")?,
            batch_jobs: obj_u64(v, "batch_jobs")?,
            mean_batch_occupancy: obj_f64(v, "mean_batch_occupancy")?,
            lanes_tracked: obj_u64(v, "lanes_tracked")?,
            launches: obj_u64(v, "launches")?,
            mean_wavefront_utilization: obj_f64(v, "mean_wavefront_utilization")?,
            estimations_run: obj_u64(v, "estimations_run")?,
            faults_injected: obj_u64(v, "faults_injected")?,
            device_retries: obj_u64(v, "device_retries")?,
            job_retries: obj_u64(v, "job_retries")?,
            failovers: obj_u64(v, "failovers")?,
            devices_alive: obj_u64(v, "devices_alive")?,
            devices_total: obj_u64(v, "devices_total")?,
            tracking_sim_s: obj_f64(v, "tracking_sim_s")?,
            // Absent when talking to a pre-stream server: serialized values.
            overlap_saved_sim_s: obj_opt_f64(v, "overlap_saved_sim_s")?.unwrap_or(0.0),
            stream_occupancy: obj_opt_f64(v, "stream_occupancy")?.unwrap_or(1.0),
            estimation_sim_s: obj_f64(v, "estimation_sim_s")?,
            cache_hits: obj_u64(v, "cache_hits")?,
            cache_misses: obj_u64(v, "cache_misses")?,
            cache_evictions: obj_u64(v, "cache_evictions")?,
            cache_bytes: obj_u64(v, "cache_bytes")?,
            cache_entries: obj_u64(v, "cache_entries")?,
            remote_jobs: obj_u64(v, "remote_jobs")?,
            // Absent when talking to a pre-overload server: zeros.
            deadline_hits: obj_opt_u64(v, "deadline_hits")?.unwrap_or(0),
            sheds: obj_opt_u64(v, "sheds")?.unwrap_or(0),
            demotions: obj_opt_u64(v, "demotions")?.unwrap_or(0),
            rate_limited: obj_opt_u64(v, "rate_limited")?.unwrap_or(0),
            tenants: match v.get("tenants") {
                None | Some(Json::Null) => Vec::new(),
                Some(_) => obj_array(v, "tenants")?
                    .iter()
                    .map(|t| {
                        Ok(TenantWire {
                            name: obj_str(t, "name")?,
                            submitted: obj_u64(t, "submitted")?,
                            completed: obj_u64(t, "completed")?,
                            shed: obj_u64(t, "shed")?,
                        })
                    })
                    .collect::<TractoResult<Vec<_>>>()?,
            },
        })
    }
}

impl std::fmt::Display for MetricsWire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted ({} remote), {} completed, {} failed, {} cancelled, {} past deadline, {} in flight",
            self.submitted,
            self.remote_jobs,
            self.completed,
            self.failed,
            self.cancelled,
            self.deadline_exceeded,
            self.in_flight
        )?;
        writeln!(
            f,
            "batches: {} run, {} jobs, {:.2} mean occupancy, {} lanes, {} launches, {:.1}% wavefront util",
            self.batches,
            self.batch_jobs,
            self.mean_batch_occupancy,
            self.lanes_tracked,
            self.launches,
            self.mean_wavefront_utilization * 100.0
        )?;
        writeln!(
            f,
            "estimation: {} runs, cache {} hits / {} misses / {} evictions, {} entries, {} bytes",
            self.estimations_run,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_entries,
            self.cache_bytes
        )?;
        writeln!(
            f,
            "faults: {} injected, {} device retries, {} job retries, {} failovers, {}/{} devices alive",
            self.faults_injected,
            self.device_retries,
            self.job_retries,
            self.failovers,
            self.devices_alive,
            self.devices_total
        )?;
        writeln!(
            f,
            "overload: {} deadline hits, {} sheds, {} demotions, {} rate limited",
            self.deadline_hits, self.sheds, self.demotions, self.rate_limited
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "tenant {}: {} submitted, {} completed, {} shed",
                t.name, t.submitted, t.completed, t.shed
            )?;
        }
        writeln!(
            f,
            "streams: {:.3}s hidden by overlap, {:.3} occupancy",
            self.overlap_saved_sim_s, self.stream_occupancy
        )?;
        write!(
            f,
            "sim time: {:.3}s tracking, {:.3}s estimation",
            self.tracking_sim_s, self.estimation_sim_s
        )
    }
}

impl Request {
    /// Serialize to the JSON payload of one frame.
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin();
        match self {
            Request::Hello { version, client } => {
                w.str_field("type", "hello");
                w.u64_field("version", u64::from(*version));
                w.str_field("client", client);
            }
            Request::Submit(spec) => {
                w.str_field("type", "submit");
                w.raw_field("spec", |w| spec.write_json(w));
            }
            Request::Status { job } => {
                w.str_field("type", "status");
                w.u64_field("job", *job);
            }
            Request::Cancel { job } => {
                w.str_field("type", "cancel");
                w.u64_field("job", *job);
            }
            Request::Await { job, timeout_ms } => {
                w.str_field("type", "await");
                w.u64_field("job", *job);
                if let Some(ms) = timeout_ms {
                    w.u64_field("timeout_ms", *ms);
                }
            }
            Request::Metrics => w.str_field("type", "metrics"),
            Request::Drain => w.str_field("type", "drain"),
            Request::Shutdown => w.str_field("type", "shutdown"),
            Request::Subscribe { job } => {
                w.str_field("type", "subscribe");
                if let Some(job) = job {
                    w.u64_field("job", *job);
                }
            }
            Request::UploadBegin { hash, len } => {
                w.str_field("type", "upload_begin");
                w.str_field("hash", hash);
                w.u64_field("len", *len);
            }
            Request::UploadChunk { hash, offset, data } => {
                w.str_field("type", "upload_chunk");
                w.str_field("hash", hash);
                w.u64_field("offset", *offset);
                w.str_field("data", data);
            }
            Request::UploadCommit { hash } => {
                w.str_field("type", "upload_commit");
                w.str_field("hash", hash);
            }
            Request::Ping => w.str_field("type", "ping"),
            Request::Replicate {
                source,
                first_seq,
                reset,
                records,
            } => {
                w.str_field("type", "replicate");
                w.str_field("source", source);
                w.u64_field("first_seq", *first_seq);
                w.bool_field("reset", *reset);
                w.array_field("records", records.len(), |w, i| w.str_value(&records[i]));
            }
            Request::Takeover { source } => {
                w.str_field("type", "takeover");
                w.str_field("source", source);
            }
            Request::FleetStatus => w.str_field("type", "fleet_status"),
            Request::Route(spec) => {
                w.str_field("type", "route");
                w.raw_field("spec", |w| spec.write_json(w));
            }
        }
        w.end();
        w.finish()
    }

    /// Decode a frame payload. Malformed JSON, a missing tag, or an unknown
    /// `type` all yield a typed [protocol error](TractoError::Protocol) the
    /// server can answer without closing the connection.
    pub fn decode(payload: &str) -> TractoResult<Self> {
        let v = parse(payload)
            .map_err(|e| TractoError::protocol(format!("request is not valid JSON: {e}")))?;
        let tag = obj_str(&v, "type")?;
        match tag.as_str() {
            "hello" => Ok(Request::Hello {
                version: obj_u32(&v, "version")?,
                client: obj_str(&v, "client")?,
            }),
            "submit" => {
                let spec = v
                    .get("spec")
                    .ok_or_else(|| TractoError::protocol("submit request missing `spec`"))?;
                Ok(Request::Submit(Box::new(JobSpec::from_json(spec)?)))
            }
            "status" => Ok(Request::Status {
                job: obj_u64(&v, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: obj_u64(&v, "job")?,
            }),
            "await" => Ok(Request::Await {
                job: obj_u64(&v, "job")?,
                timeout_ms: obj_opt_u64(&v, "timeout_ms")?,
            }),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "subscribe" => Ok(Request::Subscribe {
                job: obj_opt_u64(&v, "job")?,
            }),
            "upload_begin" => Ok(Request::UploadBegin {
                hash: obj_str(&v, "hash")?,
                len: obj_u64(&v, "len")?,
            }),
            "upload_chunk" => Ok(Request::UploadChunk {
                hash: obj_str(&v, "hash")?,
                offset: obj_u64(&v, "offset")?,
                data: obj_str(&v, "data")?,
            }),
            "upload_commit" => Ok(Request::UploadCommit {
                hash: obj_str(&v, "hash")?,
            }),
            "ping" => Ok(Request::Ping),
            "replicate" => {
                let mut records = Vec::new();
                for item in obj_array(&v, "records")? {
                    records.push(
                        item.as_str()
                            .ok_or_else(|| {
                                TractoError::protocol("replicate record is not a string")
                            })?
                            .to_owned(),
                    );
                }
                Ok(Request::Replicate {
                    source: obj_str(&v, "source")?,
                    first_seq: obj_u64(&v, "first_seq")?,
                    reset: obj_bool(&v, "reset")?,
                    records,
                })
            }
            "takeover" => Ok(Request::Takeover {
                source: obj_str(&v, "source")?,
            }),
            "fleet_status" => Ok(Request::FleetStatus),
            "route" => {
                let spec = v
                    .get("spec")
                    .ok_or_else(|| TractoError::protocol("route request missing `spec`"))?;
                Ok(Request::Route(Box::new(JobSpec::from_json(spec)?)))
            }
            other => Err(TractoError::protocol(format!(
                "unknown request type `{other}`"
            ))),
        }
    }
}

fn write_state(w: &mut JsonWriter, state: &JobState) {
    w.begin();
    match state {
        JobState::Pending => w.str_field("state", "pending"),
        JobState::Done(outcome) => {
            w.str_field("state", "done");
            w.raw_field("outcome", |w| {
                w.begin();
                match outcome {
                    Outcome::Estimate { voxels, cache_hit } => {
                        w.str_field("kind", "estimate");
                        w.u64_field("voxels", *voxels);
                        w.bool_field("cache_hit", *cache_hit);
                    }
                    Outcome::Track {
                        total_steps,
                        streamlines,
                        lengths_digest,
                        cache_hit,
                        batch_jobs,
                        batch_lanes,
                    } => {
                        w.str_field("kind", "track");
                        w.u64_field("total_steps", *total_steps);
                        w.u64_field("streamlines", *streamlines);
                        // Full u64 range: travels as hex, not an IEEE double.
                        w.str_field("digest", &format!("{lengths_digest:016x}"));
                        w.bool_field("cache_hit", *cache_hit);
                        w.u64_field("batch_jobs", *batch_jobs);
                        w.u64_field("batch_lanes", *batch_lanes);
                    }
                }
                w.end();
            });
        }
        JobState::Failed { kind, message } => {
            w.str_field("state", "failed");
            w.str_field("kind", kind);
            w.str_field("message", message);
        }
    }
    w.end();
}

fn read_state(v: &Json) -> TractoResult<JobState> {
    match obj_str(v, "state")?.as_str() {
        "pending" => Ok(JobState::Pending),
        "failed" => Ok(JobState::Failed {
            kind: obj_str(v, "kind")?,
            message: obj_str(v, "message")?,
        }),
        "done" => {
            let o = v
                .get("outcome")
                .ok_or_else(|| TractoError::protocol("done state missing `outcome`"))?;
            match obj_str(o, "kind")?.as_str() {
                "estimate" => Ok(JobState::Done(Outcome::Estimate {
                    voxels: obj_u64(o, "voxels")?,
                    cache_hit: obj_bool(o, "cache_hit")?,
                })),
                "track" => {
                    let hex = obj_str(o, "digest")?;
                    let lengths_digest = u64::from_str_radix(&hex, 16).map_err(|_| {
                        TractoError::protocol(format!("bad digest `{hex}` (expected hex)"))
                    })?;
                    Ok(JobState::Done(Outcome::Track {
                        total_steps: obj_u64(o, "total_steps")?,
                        streamlines: obj_u64(o, "streamlines")?,
                        lengths_digest,
                        cache_hit: obj_bool(o, "cache_hit")?,
                        batch_jobs: obj_u64(o, "batch_jobs")?,
                        batch_lanes: obj_u64(o, "batch_lanes")?,
                    }))
                }
                other => Err(TractoError::protocol(format!(
                    "unknown outcome kind `{other}`"
                ))),
            }
        }
        other => Err(TractoError::protocol(format!(
            "unknown job state `{other}`"
        ))),
    }
}

impl Response {
    /// Serialize to the JSON payload of one frame.
    pub fn encode(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin();
        match self {
            Response::Hello {
                version,
                server,
                member,
            } => {
                w.str_field("type", "hello");
                w.u64_field("version", u64::from(*version));
                w.str_field("server", server);
                if let Some(member) = member {
                    w.str_field("member", member);
                }
            }
            Response::Submitted { job } => {
                w.str_field("type", "submitted");
                w.u64_field("job", *job);
            }
            Response::Status { job, state } => {
                w.str_field("type", "status");
                w.u64_field("job", *job);
                w.raw_field("job_state", |w| write_state(w, state));
            }
            Response::Cancelled { job, cancelled } => {
                w.str_field("type", "cancelled");
                w.u64_field("job", *job);
                w.bool_field("cancelled", *cancelled);
            }
            Response::Metrics(m) => {
                w.str_field("type", "metrics");
                w.raw_field("metrics", |w| m.write_json(w));
            }
            Response::Drained => w.str_field("type", "drained"),
            Response::ShuttingDown => w.str_field("type", "shutting_down"),
            Response::Error { kind, message } => {
                w.str_field("type", "error");
                w.str_field("kind", kind);
                w.str_field("message", message);
            }
            Response::Subscribed { job } => {
                w.str_field("type", "subscribed");
                if let Some(job) = job {
                    w.u64_field("job", *job);
                }
            }
            Response::Event(ev) => {
                w.str_field("type", "event");
                w.u64_field("seq", ev.seq);
                w.u64_field("job", ev.job);
                w.str_field("kind", &ev.kind);
                w.raw_field("job_state", |w| write_state(w, &ev.state));
            }
            Response::UploadReady { offset, complete } => {
                w.str_field("type", "upload_ready");
                w.u64_field("offset", *offset);
                w.bool_field("complete", *complete);
            }
            Response::UploadAck { received } => {
                w.str_field("type", "upload_ack");
                w.u64_field("received", *received);
            }
            Response::UploadDone { hash, bytes } => {
                w.str_field("type", "upload_done");
                w.str_field("hash", hash);
                w.u64_field("bytes", *bytes);
            }
            Response::Pong { member } => {
                w.str_field("type", "pong");
                w.str_field("member", member);
            }
            Response::ReplAck { next } => {
                w.str_field("type", "repl_ack");
                w.u64_field("next", *next);
            }
            Response::TookOver { jobs } => {
                w.str_field("type", "took_over");
                w.array_field("jobs", jobs.len(), |w, i| {
                    w.begin();
                    w.u64_field("from", jobs[i].0);
                    w.u64_field("to", jobs[i].1);
                    w.end();
                });
            }
            Response::Fleet(fleet) => {
                w.str_field("type", "fleet");
                w.u64_field("takeovers", fleet.takeovers);
                w.u64_field("jobs_routed", fleet.jobs_routed);
                w.array_field("members", fleet.members.len(), |w, i| {
                    let m = &fleet.members[i];
                    w.begin();
                    w.str_field("name", &m.name);
                    w.str_field("endpoint", &m.endpoint);
                    w.bool_field("alive", m.alive);
                    w.u64_field("jobs_routed", m.jobs_routed);
                    w.u64_field("heartbeat_misses", m.heartbeat_misses);
                    w.end();
                });
            }
            Response::Routed { member } => {
                w.str_field("type", "routed");
                w.str_field("member", member);
            }
        }
        w.end();
        w.finish()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &str) -> TractoResult<Self> {
        let v = parse(payload)
            .map_err(|e| TractoError::protocol(format!("response is not valid JSON: {e}")))?;
        let tag = obj_str(&v, "type")?;
        match tag.as_str() {
            "hello" => Ok(Response::Hello {
                version: obj_u32(&v, "version")?,
                server: obj_str(&v, "server")?,
                member: obj_opt_str(&v, "member")?,
            }),
            "submitted" => Ok(Response::Submitted {
                job: obj_u64(&v, "job")?,
            }),
            "status" => Ok(Response::Status {
                job: obj_u64(&v, "job")?,
                state: read_state(v.get("job_state").ok_or_else(|| {
                    TractoError::protocol("status response missing `job_state`")
                })?)?,
            }),
            "cancelled" => Ok(Response::Cancelled {
                job: obj_u64(&v, "job")?,
                cancelled: obj_bool(&v, "cancelled")?,
            }),
            "metrics" => Ok(Response::Metrics(Box::new(MetricsWire::from_json(
                v.get("metrics")
                    .ok_or_else(|| TractoError::protocol("metrics response missing `metrics`"))?,
            )?))),
            "drained" => Ok(Response::Drained),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error {
                kind: obj_str(&v, "kind")?,
                message: obj_str(&v, "message")?,
            }),
            "subscribed" => Ok(Response::Subscribed {
                job: obj_opt_u64(&v, "job")?,
            }),
            "event" => Ok(Response::Event(Event {
                seq: obj_u64(&v, "seq")?,
                job: obj_u64(&v, "job")?,
                kind: obj_str(&v, "kind")?,
                state: read_state(
                    v.get("job_state")
                        .ok_or_else(|| TractoError::protocol("event missing `job_state`"))?,
                )?,
            })),
            "upload_ready" => Ok(Response::UploadReady {
                offset: obj_u64(&v, "offset")?,
                complete: obj_bool(&v, "complete")?,
            }),
            "upload_ack" => Ok(Response::UploadAck {
                received: obj_u64(&v, "received")?,
            }),
            "upload_done" => Ok(Response::UploadDone {
                hash: obj_str(&v, "hash")?,
                bytes: obj_u64(&v, "bytes")?,
            }),
            "pong" => Ok(Response::Pong {
                member: obj_str(&v, "member")?,
            }),
            "repl_ack" => Ok(Response::ReplAck {
                next: obj_u64(&v, "next")?,
            }),
            "took_over" => {
                let mut jobs = Vec::new();
                for item in obj_array(&v, "jobs")? {
                    jobs.push((obj_u64(item, "from")?, obj_u64(item, "to")?));
                }
                Ok(Response::TookOver { jobs })
            }
            "fleet" => {
                let mut members = Vec::new();
                for item in obj_array(&v, "members")? {
                    members.push(MemberWire {
                        name: obj_str(item, "name")?,
                        endpoint: obj_str(item, "endpoint")?,
                        alive: obj_bool(item, "alive")?,
                        jobs_routed: obj_u64(item, "jobs_routed")?,
                        heartbeat_misses: obj_u64(item, "heartbeat_misses")?,
                    });
                }
                Ok(Response::Fleet(Box::new(FleetWire {
                    members,
                    takeovers: obj_u64(&v, "takeovers")?,
                    jobs_routed: obj_u64(&v, "jobs_routed")?,
                })))
            }
            "routed" => Ok(Response::Routed {
                member: obj_str(&v, "member")?,
            }),
            other => Err(TractoError::protocol(format!(
                "unknown response type `{other}`"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CachePolicy, DatasetSpec, Priority};
    use tracto_trace::ErrorKind;

    fn rt_req(r: Request) {
        assert_eq!(Request::decode(&r.encode()).expect("decodes"), r);
    }

    fn rt_resp(r: Response) {
        assert_eq!(Response::decode(&r.encode()).expect("decodes"), r);
    }

    #[test]
    fn requests_round_trip() {
        rt_req(Request::Hello {
            version: 1,
            client: "cli \"quoted\"".into(),
        });
        let mut spec = JobSpec::track(DatasetSpec::new("2"));
        spec.priority = Priority::Low;
        spec.cache = CachePolicy::ReadOnly;
        spec.deadline_ms = Some(250);
        rt_req(Request::Submit(Box::new(spec)));
        rt_req(Request::Submit(Box::new(JobSpec::estimate(
            DatasetSpec::new("single"),
        ))));
        rt_req(Request::Status { job: 7 });
        rt_req(Request::Cancel { job: 9 });
        rt_req(Request::Await {
            job: 3,
            timeout_ms: Some(4000),
        });
        rt_req(Request::Await {
            job: 3,
            timeout_ms: None,
        });
        rt_req(Request::Metrics);
        rt_req(Request::Drain);
        rt_req(Request::Shutdown);
    }

    #[test]
    fn v2_requests_round_trip() {
        rt_req(Request::Subscribe { job: None });
        rt_req(Request::Subscribe { job: Some(41) });
        rt_req(Request::UploadBegin {
            hash: "00ff00ff00ff00ff".into(),
            len: 1 << 24,
        });
        rt_req(Request::UploadChunk {
            hash: "00ff00ff00ff00ff".into(),
            offset: 65536,
            data: "Zm9vYmFy".into(),
        });
        rt_req(Request::UploadCommit {
            hash: "00ff00ff00ff00ff".into(),
        });
        let mut spec = JobSpec::track(DatasetSpec::uploaded("00ff00ff00ff00ff"));
        spec.seed = 5;
        rt_req(Request::Submit(Box::new(spec)));
    }

    #[test]
    fn v2_responses_round_trip() {
        rt_resp(Response::Subscribed { job: None });
        rt_resp(Response::Subscribed { job: Some(7) });
        rt_resp(Response::Event(Event {
            seq: 3,
            job: 7,
            kind: "admitted".into(),
            state: JobState::Pending,
        }));
        rt_resp(Response::Event(Event {
            seq: 4,
            job: 7,
            kind: "completed".into(),
            state: JobState::Done(Outcome::Estimate {
                voxels: 99,
                cache_hit: false,
            }),
        }));
        rt_resp(Response::UploadReady {
            offset: 12,
            complete: false,
        });
        rt_resp(Response::UploadAck { received: 4096 });
        rt_resp(Response::UploadDone {
            hash: "deadbeefdeadbeef".into(),
            bytes: 4096,
        });
    }

    #[test]
    fn terminal_kinds_are_terminal() {
        for (kind, terminal) in [
            ("admitted", false),
            ("checkpointed", false),
            ("completed", true),
            ("cancelled", true),
            ("failed", true),
        ] {
            let ev = Event {
                seq: 0,
                job: 1,
                kind: kind.into(),
                state: JobState::Pending,
            };
            assert_eq!(ev.is_terminal(), terminal, "{kind}");
        }
    }

    #[test]
    fn responses_round_trip() {
        rt_resp(Response::Hello {
            version: 1,
            server: "tracto-serve".into(),
            member: None,
        });
        rt_resp(Response::Submitted { job: 12 });
        rt_resp(Response::Status {
            job: 12,
            state: JobState::Pending,
        });
        rt_resp(Response::Status {
            job: 12,
            state: JobState::Done(Outcome::Estimate {
                voxels: 4096,
                cache_hit: true,
            }),
        });
        rt_resp(Response::Status {
            job: 13,
            state: JobState::Done(Outcome::Track {
                total_steps: 123_456,
                streamlines: 640,
                lengths_digest: u64::MAX - 3, // exercises the hex path
                cache_hit: false,
                batch_jobs: 4,
                batch_lanes: 2560,
            }),
        });
        rt_resp(Response::Status {
            job: 14,
            state: JobState::Failed {
                kind: "device".into(),
                message: "device 0 fault: launch failed".into(),
            },
        });
        rt_resp(Response::Cancelled {
            job: 5,
            cancelled: false,
        });
        rt_resp(Response::Metrics(Box::new(MetricsWire {
            submitted: 9,
            remote_jobs: 4,
            mean_batch_occupancy: 2.25,
            tracking_sim_s: 0.125,
            cache_bytes: 1 << 20,
            ..Default::default()
        })));
        rt_resp(Response::Drained);
        rt_resp(Response::ShuttingDown);
        rt_resp(Response::Error {
            kind: "protocol".into(),
            message: "unknown request type `zap`".into(),
        });
    }

    #[test]
    fn metrics_overload_counters_tolerate_old_peers_both_ways() {
        // New server → new client: the overload counters and per-tenant
        // rows ride along and round-trip exactly.
        let full = MetricsWire {
            submitted: 9,
            deadline_hits: 3,
            sheds: 2,
            demotions: 1,
            rate_limited: 4,
            tenants: vec![
                TenantWire {
                    name: "default".into(),
                    submitted: 5,
                    completed: 4,
                    shed: 1,
                },
                TenantWire {
                    name: "hospital-a".into(),
                    submitted: 4,
                    completed: 2,
                    shed: 1,
                },
            ],
            ..Default::default()
        };
        rt_resp(Response::Metrics(Box::new(full)));
        // Old server → new client: a pre-overload snapshot carries none of
        // the new keys. Strip them from a default encoding (they are
        // written contiguously after `estimation_sim_s`) and the decoder
        // must fill zeros, not error.
        let mut w = JsonWriter::new();
        MetricsWire::default().write_json(&mut w);
        let text = w.finish();
        let old = text.replace(
            ",\"deadline_hits\":0,\"sheds\":0,\"demotions\":0,\"rate_limited\":0",
            "",
        );
        assert_ne!(old, text, "the new keys must be present to strip");
        let v = tracto_trace::json::parse(&old).expect("old snapshot parses");
        let decoded = MetricsWire::from_json(&v).expect("old snapshot decodes");
        assert_eq!(decoded, MetricsWire::default());
        // New server → old client: every pre-overload key is still emitted
        // (an old strict decoder reads only those and ignores the rest).
        for key in [
            "submitted",
            "estimation_sim_s",
            "remote_jobs",
            "cache_entries",
        ] {
            assert!(text.contains(&format!("\"{key}\"")), "missing `{key}`");
        }
        // Idle servers with no tenant traffic omit the array entirely.
        assert!(!text.contains("tenants"));
    }

    #[test]
    fn v3_fleet_requests_round_trip() {
        rt_req(Request::Ping);
        rt_req(Request::Replicate {
            source: "m0".into(),
            first_seq: 17,
            reset: false,
            records: vec![
                r#"{"rec":"submitted","job":3}"#.into(),
                r#"{"rec":"admitted","job":3}"#.into(),
            ],
        });
        rt_req(Request::Replicate {
            source: "m1".into(),
            first_seq: 0,
            reset: true,
            records: Vec::new(),
        });
        rt_req(Request::Takeover {
            source: "m0".into(),
        });
        rt_req(Request::FleetStatus);
        rt_req(Request::Route(Box::new(JobSpec::track(DatasetSpec::new(
            "crossing",
        )))));
    }

    #[test]
    fn v3_fleet_responses_round_trip() {
        rt_resp(Response::Hello {
            version: 3,
            server: "tracto-serve".into(),
            member: Some("m1".into()),
        });
        rt_resp(Response::Pong {
            member: "m0".into(),
        });
        rt_resp(Response::Pong {
            member: String::new(),
        });
        rt_resp(Response::ReplAck { next: 42 });
        rt_resp(Response::TookOver { jobs: Vec::new() });
        rt_resp(Response::TookOver {
            jobs: vec![(3, 11), (4, 12)],
        });
        rt_resp(Response::Fleet(Box::new(FleetWire {
            members: vec![
                MemberWire {
                    name: "m0".into(),
                    endpoint: "unix:/tmp/a.sock".into(),
                    alive: false,
                    jobs_routed: 9,
                    heartbeat_misses: 3,
                },
                MemberWire {
                    name: "m1".into(),
                    endpoint: "tcp:127.0.0.1:9000".into(),
                    alive: true,
                    jobs_routed: 4,
                    heartbeat_misses: 0,
                },
            ],
            takeovers: 1,
            jobs_routed: 13,
        })));
        rt_resp(Response::Routed {
            member: "m1".into(),
        });
    }

    #[test]
    fn malformed_payloads_are_protocol_errors() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "{}",
            r#"{"type":"warp_core_breach"}"#,
            r#"{"type":"submit"}"#,
            r#"{"type":"status","job":"seven"}"#,
            r#"{"type":"await","job":1,"timeout_ms":"soon"}"#,
        ] {
            let err = Request::decode(bad).expect_err(bad);
            assert_eq!(err.kind(), ErrorKind::Protocol, "{bad}");
        }
        for bad in ["{}", r#"{"type":"status","job":1}"#, "null"] {
            assert_eq!(
                Response::decode(bad).expect_err(bad).kind(),
                ErrorKind::Protocol,
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_request_error_names_the_type() {
        let err = Request::decode(r#"{"type":"frobnicate"}"#).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
    }
}
