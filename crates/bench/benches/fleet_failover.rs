//! fleet_failover — what fleet mode costs when nothing fails, and how
//! fast takeover is when something does.
//!
//! Three measurements behind the coordinator/replication machinery:
//!
//! 1. **Placement throughput** — consistent-hash routing decisions per
//!    second over a 3-member ring, plus the key distribution and how many
//!    keys move when one member dies (only the dead member's arcs may
//!    move — that is the point of the ring).
//! 2. **Replication overhead** — fsynced journal lifecycles/second with
//!    and without the replication mirror attached; the delta is what a
//!    member pays per job to keep its standby current.
//! 3. **Takeover latency** — re-sync a dead host's N-record journal into
//!    a standby's `ReplicaStore`, consume it, and replay it to the
//!    pending-job set: the storage-side cost of `declare_dead`.
//!
//! Not in the paper — the paper runs one host — but these bound what the
//! fleet layer charges for surviving `kill -9` of a whole member.

use std::time::Instant;
use tracto_bench::TableWriter;
use tracto_proto::placement_key;
use tracto_serve::{replay_text, HashRing, JobJournal, ReplicaStore};
use tracto_trace::Tracer;

fn spec(seed: u64) -> tracto_proto::JobSpec {
    let mut spec = tracto_proto::JobSpec::track(tracto_proto::DatasetSpec::new("single"));
    spec.seed = seed;
    spec
}

fn main() {
    let root = std::env::temp_dir().join(format!("tracto-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let mut w = TableWriter::new(
        "fleet_failover",
        "Fleet mode: placement throughput, replication overhead, takeover latency",
    );

    // --- 1. placement throughput and stability ----------------------------
    let names: Vec<String> = ["a", "b", "c"].map(str::to_string).to_vec();
    let ring = HashRing::new(&names);
    const KEYS: u64 = 30_000;
    let keys: Vec<u64> = (0..KEYS).map(|i| placement_key(&spec(i))).collect();
    let alive = [true, true, true];
    let t0 = Instant::now();
    let mut counts = [0u64; 3];
    for &key in &keys {
        counts[ring.route(key, &alive).unwrap()] += 1;
    }
    let route_s = t0.elapsed().as_secs_f64();
    let degraded = [true, false, true]; // b is dead
    let moved = keys
        .iter()
        .filter(|&&k| {
            let before = ring.route(k, &alive).unwrap();
            before != ring.route(k, &degraded).unwrap()
        })
        .count();
    w.line(&format!(
        "routing: {:.2}M decisions/s over 3 members; spread {:?} of {} keys",
        KEYS as f64 / route_s / 1e6,
        counts,
        KEYS,
    ));
    w.line(&format!(
        "death of one member moves {moved} keys ({:.1}%) — exactly its own share",
        moved as f64 * 100.0 / KEYS as f64,
    ));
    assert_eq!(moved as u64, counts[1], "only the dead member's keys move");

    // --- 2. replication mirror overhead ------------------------------------
    const JOBS: u64 = 200;
    let lifecycles = |journal: &JobJournal| {
        let probe = spec(1);
        let t0 = Instant::now();
        for id in 1..=JOBS {
            journal.submitted(id, &probe);
            journal.completed(id);
        }
        JOBS as f64 / t0.elapsed().as_secs_f64()
    };
    let (plain, _) = JobJournal::open(&root.join("plain"), Tracer::disabled()).unwrap();
    let plain_rate = lifecycles(&plain);
    let (mirrored, _) = JobJournal::open(&root.join("mirrored"), Tracer::disabled()).unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    mirrored.set_mirror(tx);
    let mirrored_rate = lifecycles(&mirrored);
    assert_eq!(
        rx.try_iter().count(),
        (JOBS * 2) as usize,
        "mirror tees every record"
    );
    w.line("");
    w.line(&format!(
        "journal: {plain_rate:.0} submits/s plain, {mirrored_rate:.0} with replication mirror ({:+.1}%)",
        (mirrored_rate / plain_rate - 1.0) * 100.0,
    ));

    // --- 3. takeover latency ------------------------------------------------
    w.line("");
    let widths = [6, 10, 8, 9, 8];
    w.row(
        &["jobs", "records", "sync_ms", "replay_ms", "pending"].map(str::to_string),
        &widths,
    );
    for jobs in [10u64, 100, 1000] {
        // Half the jobs finished before the host died; half are pending
        // with a checkpoint — the mix takeover actually sees.
        let dir = root.join(format!("dead{jobs}"));
        let (journal, _) = JobJournal::open(&dir, Tracer::disabled()).unwrap();
        for id in 1..=jobs {
            journal.submitted(id, &spec(id));
            if id % 2 == 0 {
                journal.completed(id);
            } else {
                journal.checkpointed(id, "abcd1234abcd1234");
            }
        }
        let lines: Vec<String> = journal
            .snapshot_text()
            .lines()
            .map(|l| l.to_string())
            .collect();
        drop(journal);

        let store = ReplicaStore::open(&root.join(format!("standby{jobs}"))).unwrap();
        let t0 = Instant::now();
        store.append("dead", 0, true, &lines).unwrap();
        let sync_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let text = store.take("dead").unwrap();
        let recovery = replay_text(&text, &Tracer::disabled());
        let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(recovery.jobs.len() as u64, jobs / 2 + jobs % 2);
        w.row(
            &[
                format!("{jobs}"),
                format!("{}", lines.len()),
                format!("{sync_ms:.2}"),
                format!("{replay_ms:.2}"),
                format!("{}", recovery.jobs.len()),
            ],
            &widths,
        );
    }

    let _ = std::fs::remove_dir_all(&root);
    w.save();
}
