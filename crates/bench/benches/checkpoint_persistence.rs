//! checkpoint_persistence — what crash-safe durability costs.
//!
//! Three measurements behind the `--state-dir` machinery:
//!
//! 1. **MCMC checkpoint overhead** — `run_mcmc_gpu` with a
//!    snapshot every N segments versus the plain runner, asserting the
//!    sample volumes stay bit-identical (durability must never change
//!    numerics).
//! 2. **Snapshot store latency** — fsynced save / validated load round
//!    trips through `CheckpointStore` at realistic payload sizes.
//! 3. **Job journal throughput** — fsynced lifecycle records/second
//!    through `JobJournal`, the per-submit price every wire job pays.
//!
//! Not in the paper — the paper's single-shot runs have nothing to
//! recover — but the overhead numbers bound what the service gives up for
//! surviving `kill -9`.

use std::time::Instant;
use tracto::mcmc::{CheckpointPolicy, CheckpointStore, SnapshotLoad};
use tracto::prelude::*;
use tracto::{run_mcmc_gpu, PersistentCheckpoint};
use tracto_bench::TableWriter;
use tracto_serve::JobJournal;
use tracto_trace::Tracer;

fn main() {
    let root = std::env::temp_dir().join(format!("tracto-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let ds = datasets::single_bundle(Dim3::new(10, 8, 8), Some(25.0), 3);
    let config = ChainConfig {
        num_burnin: 120,
        num_samples: 6,
        sample_interval: 2,
        ..ChainConfig::fast_test()
    };
    let prior = PriorConfig::default();
    let mut w = TableWriter::new(
        "checkpoint_persistence",
        &format!(
            "Crash-safe durability: checkpoint overhead, snapshot store latency, journal throughput ({} voxels, {} MH loops)",
            ds.wm_mask.count(),
            config.num_burnin + config.num_samples * config.sample_interval,
        ),
    );

    // --- 1. checkpointed MCMC vs plain ------------------------------------
    let store = CheckpointStore::open(&root.join("checkpoints")).unwrap();
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let t0 = Instant::now();
    let baseline = tracto::run_mcmc_gpu(
        &mut gpu,
        &ds.acq,
        &ds.dwi,
        &ds.wm_mask,
        prior,
        config,
        77,
        1,
        None,
    )
    .unwrap();
    let base_ms = t0.elapsed().as_secs_f64() * 1e3;

    let widths = [6, 6, 9, 10];
    w.row(
        &["every", "ckpts", "run_ms", "overhead%"].map(str::to_string),
        &widths,
    );
    w.row(
        &[
            "off".into(),
            "0".into(),
            format!("{base_ms:.1}"),
            "-".into(),
        ],
        &widths,
    );
    for every in [1u32, 2, 4] {
        let persist = PersistentCheckpoint {
            store: &store,
            key: format!("bench{every:02x}"),
            tracer: Tracer::disabled(),
        };
        let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
        let t0 = Instant::now();
        let report = run_mcmc_gpu(
            &mut gpu,
            &ds.acq,
            &ds.dwi,
            &ds.wm_mask,
            prior,
            config,
            77,
            1,
            Some((CheckpointPolicy::every(every), &persist)),
        )
        .expect("checkpointed run");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            report.samples.f1, baseline.samples.f1,
            "checkpointing must never change numerics"
        );
        assert_eq!(report.samples.th2, baseline.samples.th2);
        w.row(
            &[
                format!("{every}"),
                format!("{}", report.checkpoints),
                format!("{ms:.1}"),
                format!("{:+.1}", (ms / base_ms - 1.0) * 100.0),
            ],
            &widths,
        );
    }

    // --- 2. snapshot store latency ----------------------------------------
    w.line("");
    let widths = [11, 9, 9];
    w.row(
        &["payload_kb", "save_ms", "load_ms"].map(str::to_string),
        &widths,
    );
    for kb in [64usize, 1024, 4096] {
        let payload: Vec<u8> = (0..kb * 1024).map(|i| (i * 31 % 251) as u8).collect();
        let key = format!("payload{kb:05x}");
        let t0 = Instant::now();
        store.save(&key, &payload).unwrap();
        let save_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let back = match store.load(&key).unwrap() {
            SnapshotLoad::Snapshot(bytes) => bytes,
            other => panic!("expected a snapshot, got {other:?}"),
        };
        let load_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(back, payload, "store round trip is exact");
        store.discard(&key).unwrap();
        w.row(
            &[
                format!("{kb}"),
                format!("{save_ms:.2}"),
                format!("{load_ms:.2}"),
            ],
            &widths,
        );
    }

    // --- 3. journal throughput --------------------------------------------
    let (journal, _recovery) = JobJournal::open(&root.join("journal"), Tracer::disabled()).unwrap();
    let spec = tracto_proto::JobSpec::track(tracto_proto::DatasetSpec::new("single"));
    const JOBS: u64 = 200;
    let t0 = Instant::now();
    for id in 1..=JOBS {
        journal.submitted(id, &spec);
        journal.completed(id);
    }
    let s = t0.elapsed().as_secs_f64();
    w.line("");
    w.line(&format!(
        "journal: {} fsynced records ({} job lifecycles) in {:.1} ms — {:.0} records/s, {:.0} submits/s",
        JOBS * 2,
        JOBS,
        s * 1e3,
        JOBS as f64 * 2.0 / s,
        JOBS as f64 / s,
    ));
    drop(journal);
    let _ = std::fs::remove_dir_all(&root);
    w.save();
}
