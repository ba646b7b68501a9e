//! The write-ahead job journal: crash durability for accepted jobs.
//!
//! Every lifecycle transition of a journalable job is appended — and
//! fsync'd — to `journal.jsonl` under the service's `--state-dir` *before*
//! the transition becomes observable to clients. The terminal records of
//! one tracking batch share a single fsync ([`JobJournal::settle`]). On startup,
//! [`JobJournal::open`] replays the journal: jobs with a `submitted`
//! record but no terminal record are returned as [`RecoveredJob`]s for the
//! service to re-enqueue, then the journal is compacted down to exactly
//! those records. Together with the persistent MCMC checkpoints this
//! bounds the cost of a `kill -9` to one checkpoint interval — and loses
//! no accepted job.
//!
//! Only wire-form jobs are journalable: a [`tracto_proto::JobSpec`] names
//! its dataset as a deterministic phantom recipe, so a replayed job is
//! bit-identical to the original. Jobs submitted in-process with an
//! `Arc<Dataset>` have no durable description and are never journaled.
//!
//! Single-writer discipline is enforced with a PID-stamped `journal.lock`:
//! a live owner is a hard [`Config`](tracto_trace::ErrorKind::Config)
//! error, a dead owner's lock is stolen (with a `journal.lock_stolen`
//! trace event) so an unclean crash never wedges recovery.

use crate::lock;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind as IoErrorKind, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc::Sender;
use std::sync::Mutex;
use tracto_trace::json::{parse, Json};
use tracto_trace::{Tracer, TractoError, TractoResult, Value};

/// A job found in the journal with no terminal record: it was accepted
/// before the crash and must be re-enqueued.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The original job id — recovery preserves ids so clients polling
    /// across a restart keep their handle.
    pub id: u64,
    /// The wire spec to re-run.
    pub spec: tracto_proto::JobSpec,
    /// Key of the job's latest persistent MCMC checkpoint, when one was
    /// recorded. The re-run recomputes the same sample key and resumes
    /// from this snapshot rather than restarting Step 1 from scratch.
    pub checkpoint: Option<String>,
}

/// What [`JobJournal::open`] found on disk.
#[derive(Debug, Clone)]
pub struct Recovery {
    /// Unfinished jobs, in submission (id) order.
    pub jobs: Vec<RecoveredJob>,
    /// The highest job id ever journaled; the service must start
    /// allocating above it so recovered and fresh jobs never collide.
    pub max_seen_id: u64,
}

struct Inner {
    file: File,
    /// Ids with a `submitted` record and no terminal record yet. Guards
    /// against journaling transitions of jobs that were never journaled
    /// (in-process submissions) and against double terminal records.
    open_jobs: HashSet<u64>,
    /// Fleet replication tee: every appended record is also sent here (the
    /// replicator streams them to the standby). Sends never block and a
    /// dropped receiver is ignored — replication must not slow or wedge
    /// the local write-ahead path.
    mirror: Option<Sender<String>>,
}

/// How a journaled job ended: the record [`JobJournal::settle`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// The job finished successfully.
    Completed,
    /// A cancel won the race against the job's work.
    Cancelled,
    /// The job failed permanently.
    Failed {
        /// Retries spent before giving up.
        retries: u32,
    },
}

impl Terminal {
    fn record(self, id: u64) -> String {
        match self {
            Terminal::Completed => format!("{{\"rec\":\"completed\",\"job\":{id}}}"),
            Terminal::Cancelled => format!("{{\"rec\":\"cancelled\",\"job\":{id}}}"),
            Terminal::Failed { retries } => {
                format!("{{\"rec\":\"failed\",\"job\":{id},\"retries\":{retries}}}")
            }
        }
    }
}

/// An fsync'd, append-only JSON-lines journal of job lifecycle records.
pub struct JobJournal {
    inner: Mutex<Inner>,
    path: PathBuf,
    lock_path: PathBuf,
    tracer: Tracer,
}

const JOURNAL_FILE: &str = "journal.jsonl";
const LOCK_FILE: &str = "journal.lock";

/// Is the process with this pid still running? Checked via procfs; on
/// hosts without `/proc` the lock is treated as stale — recovery must
/// never wedge on a crashed owner.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && proc_root.join(pid.to_string()).exists()
}

impl JobJournal {
    /// Open (or create) the journal in `dir`, acquire the single-writer
    /// lock, replay any existing records, and compact. Fails with a
    /// [`Config`](tracto_trace::ErrorKind::Config) error if another live
    /// process holds the lock.
    pub fn open(dir: &Path, tracer: Tracer) -> TractoResult<(JobJournal, Recovery)> {
        fs::create_dir_all(dir).map_err(TractoError::from)?;
        let lock_path = dir.join(LOCK_FILE);
        acquire_lock(&lock_path, &tracer)?;
        let path = dir.join(JOURNAL_FILE);
        let recovery = replay(&path, &tracer)?;
        compact(dir, &path, &recovery)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(TractoError::from)?;
        let open_jobs = recovery.jobs.iter().map(|j| j.id).collect();
        if tracer.enabled() && !recovery.jobs.is_empty() {
            tracer.emit(
                "journal.recovered",
                &[
                    ("jobs", (recovery.jobs.len() as u64).into()),
                    ("max_id", recovery.max_seen_id.into()),
                ],
            );
        }
        Ok((
            JobJournal {
                inner: Mutex::new(Inner {
                    file,
                    open_jobs,
                    mirror: None,
                }),
                path,
                lock_path,
                tracer,
            },
            recovery,
        ))
    }

    /// Path of the journal file (for tests and tooling).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Attach a replication mirror: every record appended after this call
    /// is also sent on `tx`, in append order. Attach before any submission
    /// is possible (the service does this during startup) so the mirror
    /// stream plus the on-disk snapshot covers every record ever written.
    pub fn set_mirror(&self, tx: Sender<String>) {
        lock(&self.inner).mirror = Some(tx);
    }

    /// The current journal text under the append lock — the snapshot a
    /// replicator pairs with the mirror stream (records appended after
    /// this read arrive on the mirror, so snapshot + stream is gap-free).
    pub fn snapshot_text(&self) -> String {
        let _guard = lock(&self.inner);
        fs::read_to_string(&self.path).unwrap_or_default()
    }

    /// Record an accepted job, durably, *before* the acceptance becomes
    /// observable. The spec is embedded in wire JSON form so recovery can
    /// re-run it bit-identically.
    pub fn submitted(&self, id: u64, spec: &tracto_proto::JobSpec) {
        let mut inner = lock(&self.inner);
        if !inner.open_jobs.insert(id) {
            return; // already journaled (a recovered job being re-enqueued)
        }
        let line = format!(
            "{{\"rec\":\"submitted\",\"job\":{id},\"spec\":{}}}",
            spec.to_json_string()
        );
        self.append(&mut inner, &[line]);
    }

    /// Record the persistent-checkpoint key a journaled job's estimation
    /// writes under, so recovery can rebind the re-run to its snapshot.
    pub fn checkpointed(&self, id: u64, key: &str) {
        let mut inner = lock(&self.inner);
        if !inner.open_jobs.contains(&id) {
            return;
        }
        // Keys are CheckpointStore keys ([A-Za-z0-9._-]), safe to embed
        // without escaping.
        self.append(
            &mut inner,
            &[format!(
                "{{\"rec\":\"checkpointed\",\"job\":{id},\"key\":\"{key}\"}}"
            )],
        );
    }

    /// Record successful completion (terminal).
    pub fn completed(&self, id: u64) {
        self.settle(&[(id, Terminal::Completed)]);
    }

    /// Record cancellation (terminal).
    pub fn cancelled(&self, id: u64) {
        self.settle(&[(id, Terminal::Cancelled)]);
    }

    /// Record permanent failure with the number of retries spent
    /// (terminal).
    pub fn failed(&self, id: u64, retries: u32) {
        self.settle(&[(id, Terminal::Failed { retries })]);
    }

    /// Record the terminal transitions of a whole batch of jobs with one
    /// fsync, in slice order. Ids that were never journaled (in-process
    /// submissions) or are already settled write nothing.
    pub fn settle(&self, jobs: &[(u64, Terminal)]) {
        let mut inner = lock(&self.inner);
        let lines: Vec<String> = jobs
            .iter()
            .filter(|(id, _)| inner.open_jobs.remove(id))
            .map(|&(id, terminal)| terminal.record(id))
            .collect();
        self.append(&mut inner, &lines);
    }

    /// Append records and fsync once. Failures after open are surfaced as
    /// trace events, not errors — the job itself must still run; only its
    /// crash durability degrades.
    fn append(&self, inner: &mut Inner, lines: &[String]) {
        if lines.is_empty() {
            return;
        }
        if let Some(mirror) = &inner.mirror {
            // Unbounded channel: never blocks. A gone replicator is not
            // this journal's problem.
            for line in lines {
                let _ = mirror.send(line.clone());
            }
        }
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        let result = inner
            .file
            .write_all(buf.as_bytes())
            .and_then(|_| inner.file.sync_data());
        if let Err(err) = result {
            if self.tracer.enabled() {
                self.tracer.emit(
                    "journal.write_error",
                    &[("error", Value::Text(err.to_string()))],
                );
            }
        }
    }
}

impl Drop for JobJournal {
    fn drop(&mut self) {
        // Release the single-writer lock on clean shutdown. After a crash
        // the stale lock stays behind and the next open steals it.
        let _ = fs::remove_file(&self.lock_path);
    }
}

/// Take the PID lock, stealing it from a dead owner.
fn acquire_lock(lock_path: &Path, tracer: &Tracer) -> TractoResult<()> {
    for _ in 0..2 {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(lock_path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                let _ = f.sync_data();
                return Ok(());
            }
            Err(err) if err.kind() == IoErrorKind::AlreadyExists => {
                let owner = fs::read_to_string(lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                if let Some(pid) = owner {
                    if pid_alive(pid) {
                        return Err(TractoError::config(format!(
                            "state dir is locked by live process {pid} \
                             (another server on the same --state-dir?)"
                        )));
                    }
                }
                // Dead (or unreadable) owner: steal the lock and retry.
                if tracer.enabled() {
                    tracer.emit(
                        "journal.lock_stolen",
                        &[("owner_pid", u64::from(owner.unwrap_or(0)).into())],
                    );
                }
                fs::remove_file(lock_path).map_err(TractoError::from)?;
            }
            Err(err) => return Err(TractoError::from(err)),
        }
    }
    Err(TractoError::config(
        "could not acquire journal lock (raced another starting server)",
    ))
}

/// One job's replayed state while scanning the journal.
struct ReplayedJob {
    spec: tracto_proto::JobSpec,
    checkpoint: Option<String>,
    terminal: bool,
}

/// Scan the journal and reconstruct per-job state. Unparsable lines are
/// skipped with a `journal.bad_record` event — a crash mid-append leaves a
/// truncated final line, which must not poison the rest of the journal.
fn replay(path: &Path, tracer: &Tracer) -> TractoResult<Recovery> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) if err.kind() == IoErrorKind::NotFound => String::new(),
        Err(err) => return Err(TractoError::from(err)),
    };
    Ok(replay_text(&text, tracer))
}

/// Replay journal records from raw JSONL text: the pending-job set and the
/// highest id seen. This is the same scan [`JobJournal::open`] runs on the
/// local journal; fleet takeover runs it over a *replicated* journal, so
/// the standby recovers exactly what the dead host's own restart would
/// have. Torn or malformed lines are skipped, never fatal.
pub fn replay_text(text: &str, tracer: &Tracer) -> Recovery {
    let mut jobs: HashMap<u64, ReplayedJob> = HashMap::new();
    let mut max_seen_id = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Some((rec, id, doc)) = decode_record(line) else {
            if tracer.enabled() {
                tracer.emit(
                    "journal.bad_record",
                    &[("line", (lineno as u64 + 1).into())],
                );
            }
            continue;
        };
        max_seen_id = max_seen_id.max(id);
        match rec.as_str() {
            "submitted" => {
                let spec = doc
                    .get("spec")
                    .and_then(|v| tracto_proto::JobSpec::from_json_value(v).ok());
                match spec {
                    Some(spec) => {
                        jobs.entry(id).or_insert(ReplayedJob {
                            spec,
                            checkpoint: None,
                            terminal: false,
                        });
                    }
                    None => {
                        if tracer.enabled() {
                            tracer.emit(
                                "journal.bad_record",
                                &[("line", (lineno as u64 + 1).into())],
                            );
                        }
                    }
                }
            }
            // Journals written before `admitted` records were dropped
            // still carry them; they never changed a job's replay state.
            "admitted" => {}
            "checkpointed" => {
                let key = doc.get("key").and_then(Json::as_str).map(|s| s.to_string());
                if let (Some(job), Some(key)) = (jobs.get_mut(&id), key) {
                    job.checkpoint = Some(key);
                }
            }
            "completed" | "cancelled" | "failed" => {
                if let Some(job) = jobs.get_mut(&id) {
                    job.terminal = true;
                }
            }
            _ => {
                if tracer.enabled() {
                    tracer.emit(
                        "journal.bad_record",
                        &[("line", (lineno as u64 + 1).into())],
                    );
                }
            }
        }
    }
    let mut unfinished: Vec<RecoveredJob> = jobs
        .into_iter()
        .filter(|(_, j)| !j.terminal)
        .map(|(id, j)| RecoveredJob {
            id,
            spec: j.spec,
            checkpoint: j.checkpoint,
        })
        .collect();
    unfinished.sort_by_key(|j| j.id);
    Recovery {
        jobs: unfinished,
        max_seen_id,
    }
}

fn decode_record(line: &str) -> Option<(String, u64, Json)> {
    let doc = parse(line).ok()?;
    let rec = doc.get("rec")?.as_str()?.to_string();
    let id = doc.get("job")?.as_f64()?;
    if id < 0.0 || id.fract() != 0.0 {
        return None;
    }
    Some((rec, id as u64, doc))
}

/// Rewrite the journal to contain exactly the unfinished jobs' records
/// (atomic write-then-rename, both fsync'd), discarding completed history.
fn compact(dir: &Path, path: &Path, recovery: &Recovery) -> TractoResult<()> {
    let tmp = dir.join(format!("{JOURNAL_FILE}.tmp"));
    {
        let mut f = File::create(&tmp).map_err(TractoError::from)?;
        for job in &recovery.jobs {
            writeln!(
                f,
                "{{\"rec\":\"submitted\",\"job\":{},\"spec\":{}}}",
                job.id,
                job.spec.to_json_string()
            )
            .map_err(TractoError::from)?;
            if let Some(key) = &job.checkpoint {
                writeln!(
                    f,
                    "{{\"rec\":\"checkpointed\",\"job\":{},\"key\":\"{key}\"}}",
                    job.id
                )
                .map_err(TractoError::from)?;
            }
        }
        f.sync_all().map_err(TractoError::from)?;
    }
    fs::rename(&tmp, path).map_err(TractoError::from)?;
    // Make the rename itself durable; best-effort on filesystems that
    // refuse directory fsync.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tracto_proto::{DatasetSpec, JobSpec};
    use tracto_trace::{ErrorKind, RingSink};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "tracto-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> JobSpec {
        let mut s = JobSpec::track(DatasetSpec::new("single"));
        s.seed = seed;
        s
    }

    #[test]
    fn unfinished_jobs_survive_reopen_and_finished_ones_do_not() {
        let dir = tmp_dir("reopen");
        {
            let (j, rec) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            assert!(rec.jobs.is_empty());
            assert_eq!(rec.max_seen_id, 0);
            j.submitted(1, &spec(1));
            j.submitted(2, &spec(2));
            j.checkpointed(2, "deadbeef01020304");
            j.submitted(3, &spec(3));
            j.completed(1);
            j.cancelled(3);
            // Simulate a crash: drop without terminal records for job 2.
        }
        // Journals written before `admitted` records were dropped carry
        // them; replay must still open such a file and ignore them.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
            writeln!(f, "{{\"rec\":\"admitted\",\"job\":2}}").unwrap();
        }
        let (_j, rec) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
        assert_eq!(rec.max_seen_id, 3);
        assert_eq!(rec.jobs.len(), 1, "only the unfinished job comes back");
        assert_eq!(rec.jobs[0].id, 2);
        assert_eq!(rec.jobs[0].spec, spec(2));
        assert_eq!(rec.jobs[0].checkpoint.as_deref(), Some("deadbeef01020304"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_discards_finished_history() {
        let dir = tmp_dir("compact");
        {
            let (j, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            for id in 1..=20 {
                j.submitted(id, &spec(id));
                if id % 2 == 0 {
                    j.completed(id);
                } else {
                    j.failed(id, 1);
                }
            }
        }
        {
            let (_j, rec) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            assert!(rec.jobs.is_empty());
            assert_eq!(rec.max_seen_id, 20, "ids stay reserved after compaction");
        }
        // After compaction of an all-terminal journal the file is empty.
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(
            text.is_empty(),
            "compacted journal should be empty: {text:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_settle_writes_every_terminal_record_in_order() {
        let dir = tmp_dir("settle");
        let ids = [3u64, 1, 4, 5, 9];
        {
            let (j, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            j.set_mirror(tx);
            for &id in &ids {
                j.submitted(id, &spec(id));
            }
            let batch: Vec<(u64, Terminal)> = ids
                .iter()
                .map(|&id| match id {
                    4 => (id, Terminal::Cancelled),
                    9 => (id, Terminal::Failed { retries: 2 }),
                    _ => (id, Terminal::Completed),
                })
                .collect();
            // An id that was never journaled and a repeat settle write
            // nothing.
            j.settle(&[(77, Terminal::Completed)]);
            j.settle(&batch);
            j.settle(&batch);
            let mirrored: Vec<String> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
            let on_disk: Vec<String> = j.snapshot_text().lines().map(String::from).collect();
            assert_eq!(mirrored, on_disk, "the mirror sees the disk's append order");
            let terminals: Vec<String> = batch.iter().map(|&(id, t)| t.record(id)).collect();
            assert_eq!(on_disk.len(), ids.len() * 2);
            assert_eq!(on_disk[ids.len()..], terminals[..]);
        }
        let (_j, rec) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
        assert!(
            rec.jobs.is_empty(),
            "a settled batch leaves nothing to recover"
        );
        assert_eq!(rec.max_seen_id, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_record_is_skipped_not_fatal() {
        let dir = tmp_dir("truncated");
        {
            let (j, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            j.submitted(7, &spec(7));
        }
        // Simulate a crash mid-append: a torn, half-written record.
        {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(JOURNAL_FILE))
                .unwrap();
            write!(f, "{{\"rec\":\"comple").unwrap();
        }
        let ring = Arc::new(RingSink::new(16));
        let (_j, rec) = JobJournal::open(&dir, Tracer::shared(Arc::clone(&ring) as _)).unwrap();
        assert_eq!(rec.jobs.len(), 1, "torn record ignored, job recovered");
        assert_eq!(rec.jobs[0].id, 7);
        assert_eq!(ring.count("journal.bad_record"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_lock_is_a_config_error_and_dead_lock_is_stolen() {
        let dir = tmp_dir("lock");
        fs::create_dir_all(&dir).unwrap();
        // A lock held by this (live) process wedges a second open.
        fs::write(dir.join(LOCK_FILE), format!("{}\n", std::process::id())).unwrap();
        // pid_alive special-cases our own pid, so fake a second live owner
        // via pid 1 (init, always alive under procfs).
        if Path::new("/proc/1").exists() {
            fs::write(dir.join(LOCK_FILE), "1\n").unwrap();
            let err = match JobJournal::open(&dir, Tracer::disabled()) {
                Err(e) => e,
                Ok(_) => panic!("a live lock owner must be rejected"),
            };
            assert_eq!(err.kind(), ErrorKind::Config);
        }
        // A dead owner's lock is stolen.
        fs::write(dir.join(LOCK_FILE), "999999999\n").unwrap();
        let ring = Arc::new(RingSink::new(16));
        let (j, _) = JobJournal::open(&dir, Tracer::shared(Arc::clone(&ring) as _)).unwrap();
        assert_eq!(ring.count("journal.lock_stolen"), 1);
        drop(j);
        assert!(
            !dir.join(LOCK_FILE).exists(),
            "clean drop releases the lock"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transitions_for_unjournaled_ids_are_ignored() {
        let dir = tmp_dir("unjournaled");
        {
            let (j, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
            // No submitted record: these must not create phantom entries.
            j.checkpointed(40, "ab");
            j.completed(40);
            j.failed(41, 2);
        }
        let text = fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(text.is_empty(), "nothing journaled: {text:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
