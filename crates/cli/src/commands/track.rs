//! `tracto track` — Step 2: probabilistic streamlining.

use crate::args::ArgMap;
use crate::store;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::Arc;
use tracto_gpu_sim::{DeviceConfig, FaultPlan, Gpu, MultiGpu};
use tracto_mcmc::CheckpointPolicy;
use tracto_trace::{Tracer, TractoError, TractoResult};
use tracto_tracking::analytic::{analytic_params, mean_posterior};
use tracto_tracking::export;
use tracto_tracking::field::InterpMode;
use tracto_tracking::getter::Modality;
use tracto_tracking::gpu::{GpuTracker, SeedOrdering};
use tracto_tracking::probabilistic::{seeds_from_mask, RecordMode};
use tracto_tracking::stop::mask_from_percentile;
use tracto_tracking::tensorline::TensorField;
use tracto_tracking::walker::TrackingParams;
use tracto_tracking::SegmentationStrategy;
use tracto_volume::io::write_volume3;
use tracto_volume::Mask;

const FLAGS: [&str; 22] = [
    "data",
    "out",
    "samples-dir",
    "cache-dir",
    "step",
    "threshold",
    "max-steps",
    "strategy",
    "seed",
    "min-export-steps",
    "est-samples",
    "est-burnin",
    "est-interval",
    "est-seed",
    "devices",
    "fault-plan",
    "fault-seed",
    "checkpoint-every",
    "streams",
    "modality",
    "stop-mask",
    "stop-threshold",
];

/// Resolve `--stop-mask FILE` / `--stop-threshold PCT` into an optional
/// termination mask on the dataset grid. A mask file alone keeps voxels
/// strictly above zero; with a threshold, voxels above the file's
/// `PCT`-th percentile; a threshold alone is taken over the dataset's
/// per-voxel mean DWI signal.
fn parse_stop_mask(args: &ArgMap, dwi: &tracto_volume::Volume4<f32>) -> TractoResult<Option<Mask>> {
    let pct: Option<f64> = args
        .get("stop-threshold")
        .map(|v| {
            v.parse()
                .map_err(|_| TractoError::config(format!("--stop-threshold: bad value `{v}`")))
        })
        .transpose()?;
    if let Some(p) = pct {
        if !p.is_finite() || !(0.0..=100.0).contains(&p) {
            return Err(TractoError::config(
                "--stop-threshold must be a percentile in 0..=100",
            ));
        }
    }
    let vol = match args.get("stop-mask") {
        Some(path) => {
            let mut f = File::open(path).map_err(|e| TractoError::io(format!("open {path}"), e))?;
            Some(
                tracto_volume::io::read_volume3(&mut f)
                    .map_err(|e| TractoError::format_with(format!("read {path}"), e))?,
            )
        }
        None => None,
    };
    let mask = match (vol, pct) {
        (Some(v), Some(p)) => mask_from_percentile(&v, p),
        (Some(v), None) => Some(Mask::threshold(&v, 0.0)),
        (None, Some(p)) => mask_from_percentile(&tracto::pipeline::mean_dwi_volume(dwi), p),
        (None, None) => None,
    };
    if let Some(m) = &mask {
        if m.dims() != dwi.dims() {
            return Err(TractoError::format(
                "--stop-mask volume does not match the dataset grid",
            ));
        }
    }
    Ok(mask)
}

pub(crate) fn parse_strategy(s: &str) -> TractoResult<SegmentationStrategy> {
    // One parser serves the CLI, the serve script, and the wire protocol.
    SegmentationStrategy::parse(s)
}

/// Resolve `--fault-plan FILE` / `--fault-seed S` into a deterministic
/// fault schedule for a pool of `devices` devices. The two flags are
/// mutually exclusive; seeded plans only contain internally-recoverable
/// faults, so results stay bit-identical to a fault-free run.
pub(crate) fn parse_fault_plan(args: &ArgMap, devices: usize) -> TractoResult<Option<FaultPlan>> {
    match (args.get("fault-plan"), args.get("fault-seed")) {
        (Some(_), Some(_)) => Err(TractoError::config(
            "--fault-plan and --fault-seed are mutually exclusive",
        )),
        (Some(path), None) => Ok(Some(FaultPlan::load(path)?)),
        (None, Some(seed)) => {
            let seed: u64 = seed
                .parse()
                .map_err(|_| TractoError::config(format!("--fault-seed: bad value `{seed}`")))?;
            Ok(Some(FaultPlan::seeded(seed, devices as u32)))
        }
        (None, None) => Ok(None),
    }
}

/// Resolve the posterior samples for `track` out of a serve-layer disk
/// cache, running Step 1 only on a miss (the CLI analogue of what
/// `tracto-serve` does in memory). With a device pool, estimation runs
/// checkpointed across it and survives injected faults.
fn samples_from_cache(
    cache_dir: &std::path::Path,
    dwi: &tracto_volume::Volume4<f32>,
    mask: &tracto_volume::Mask,
    acq: &tracto_diffusion::Acquisition,
    args: &ArgMap,
    tracer: &Tracer,
    pool: Option<(&mut MultiGpu, CheckpointPolicy)>,
) -> TractoResult<tracto_mcmc::SampleVolumes> {
    use tracto_mcmc::mh::AdaptScheme;
    let chain = tracto_mcmc::ChainConfig {
        num_burnin: args.get_parse("est-burnin", 300)?,
        num_samples: args.get_parse("est-samples", 25)?,
        sample_interval: args.get_parse("est-interval", 2)?,
        adapt: AdaptScheme::paper_default(),
    };
    if chain.num_samples == 0 || chain.sample_interval == 0 {
        return Err(TractoError::config(
            "--est-samples and --est-interval must be positive",
        ));
    }
    let est_seed: u64 = args.get_parse("est-seed", 42)?;
    let prior = tracto_diffusion::PriorConfig::default();
    let key = tracto_serve::sample_key_parts(dwi, mask, acq, &prior, &chain, est_seed);
    let cache = tracto_serve::DiskSampleCache::open(cache_dir)?.with_tracer(tracer.clone());
    if let Some(samples) = cache.get(key)? {
        println!("cache hit {} — skipping estimation", key.hex());
        return Ok(samples);
    }
    println!(
        "cache miss {} — running MCMC over {} voxels…",
        key.hex(),
        mask.count()
    );
    let samples = match pool {
        Some((multi, checkpoint)) => {
            let report =
                tracto::run_mcmc_multi(multi, acq, dwi, mask, prior, chain, est_seed, checkpoint)?;
            println!(
                "estimated on {} device(s): {} checkpoint(s), {} failover(s), {} fault(s) injected",
                multi.alive_devices(),
                report.checkpoints,
                multi.failovers(),
                multi.faults_injected()
            );
            report.samples
        }
        None => {
            let mut gpu = Gpu::with_tracer(DeviceConfig::radeon_5870(), tracer.clone());
            tracto::run_mcmc_gpu(&mut gpu, acq, dwi, mask, prior, chain, est_seed, 1, None)?.samples
        }
    };
    cache.put(key, &samples)?;
    Ok(samples)
}

/// Run the command.
pub fn run(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&FLAGS)?;
    let data = PathBuf::from(args.required("data")?);
    let out = PathBuf::from(args.required("out")?);
    let step: f64 = args.get_parse("step", 0.1)?;
    let threshold: f64 = args.get_parse("threshold", 0.9)?;
    let max_steps: u32 = args.get_parse("max-steps", 2000)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    let min_export: u32 = args.get_parse("min-export-steps", 100)?;
    let strategy = parse_strategy(args.get("strategy").unwrap_or("B"))?;
    if step <= 0.0 || !(0.0..=1.0).contains(&threshold) || max_steps == 0 {
        return Err(TractoError::config("invalid tracking parameters"));
    }
    let modality = match args.get("modality") {
        None => Modality::Mcmc,
        Some(s) => Modality::parse(s)?,
    };
    let devices: usize = args.get_parse("devices", 1)?;
    if devices == 0 {
        return Err(TractoError::config("--devices must be positive"));
    }
    let streams: usize = args.get_parse("streams", 1)?;
    if streams == 0 {
        return Err(TractoError::config(
            "--streams must be positive (1 = serialized)",
        ));
    }
    let fault_plan = parse_fault_plan(args, devices)?;
    let checkpoint_every: u32 = args.get_parse("checkpoint-every", 0)?;
    let checkpoint = if checkpoint_every == 0 {
        CheckpointPolicy::disabled()
    } else {
        CheckpointPolicy::every(checkpoint_every)
    };
    // The pool path (run_batch_streamed) records visits only.
    let pooled = devices > 1 || fault_plan.is_some();
    if pooled && args.get("min-export-steps").is_some() {
        return Err(TractoError::config(
            "--min-export-steps: fiber export needs one device \
             (it is not available with --devices/--fault-plan/--fault-seed)",
        ));
    }
    let mut pool = if pooled {
        let mut m = MultiGpu::try_new(DeviceConfig::radeon_5870(), devices)?;
        m.set_tracer(tracer);
        if let Some(plan) = &fault_plan {
            m.set_fault_plan(plan);
        }
        Some(m)
    } else {
        None
    };

    let (dwi, mask, acq) = store::load_dataset(&data)?;
    let samples = if modality == Modality::Tensorline {
        // Tensorlines fit one tensor per voxel from the data directly;
        // posterior samples are neither needed nor accepted.
        if args.get("samples-dir").is_some() || args.get("cache-dir").is_some() {
            return Err(TractoError::config(
                "--modality tensorline fits the dataset directly and takes \
                 no --samples-dir/--cache-dir",
            ));
        }
        TensorField::fit(&acq, &dwi).to_sample_volumes()
    } else {
        match (args.get("samples-dir"), args.get("cache-dir")) {
            (Some(_), Some(_)) => {
                return Err(TractoError::config(
                    "--samples-dir and --cache-dir are mutually exclusive",
                ))
            }
            (Some(dir), None) => store::load_samples(&PathBuf::from(dir))?,
            (None, Some(dir)) => samples_from_cache(
                &PathBuf::from(dir),
                &dwi,
                &mask,
                &acq,
                args,
                tracer,
                pool.as_mut().map(|m| (m, checkpoint)),
            )?,
            (None, None) => {
                return Err(TractoError::config("need --samples-dir or --cache-dir"));
            }
        }
    };
    if samples.dims() != dwi.dims() {
        return Err(TractoError::format(
            "sample volumes do not match the dataset grid",
        ));
    }
    let seeds = seeds_from_mask(&mask);
    let params = TrackingParams {
        step_length: step,
        angular_threshold: threshold,
        max_steps,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    };
    // The analytic fast tier is a transform, not a different engine:
    // collapse the posterior to its mean and take closed-form unit steps.
    let (samples, params) = if modality == Modality::Analytic {
        (mean_posterior(&samples), analytic_params(&params))
    } else {
        (samples, params)
    };
    let samples = Arc::new(samples);
    let jitter = modality.effective_jitter(0.5);
    let stop_mask = parse_stop_mask(args, &dwi)?;
    std::fs::create_dir_all(&out)
        .map_err(|e| TractoError::io(format!("create {}", out.display()), e))?;

    println!(
        "tracking {} seeds × {} samples (strategy {}, modality {})…",
        seeds.len(),
        samples.num_samples(),
        strategy.label(),
        modality.as_str()
    );
    let t0 = std::time::Instant::now();

    // One simulated GPU records connectivity and exports fibers; a
    // fault-tolerant pool (--devices/--fault-plan) records connectivity.
    let tracking = if let Some(multi) = pool.as_mut() {
        let job = tracto_serve::BatchJob {
            samples: Arc::clone(&samples),
            params,
            seeds,
            mask: stop_mask.clone(),
            jitter,
            run_seed: seed,
            record_visits: true,
        };
        let mut report = tracto_serve::run_batch_streamed(multi, &[job], &strategy, streams)?;
        let out = report.per_job.pop().expect("one job in the batch");
        println!(
            "simulated pool: {}/{} devices alive, wall {:.3}s (util {:.1}%, \
             {:.3}s hidden by {} stream(s)), \
             {} failover(s), {} retry(ies), {} fault(s) injected",
            multi.alive_devices(),
            multi.num_devices(),
            report.wall_s,
            report.utilization * 100.0,
            report.overlap_saved_s,
            report.streams,
            multi.failovers(),
            multi.fault_retries(),
            multi.faults_injected()
        );
        out
    } else {
        let mut gpu = Gpu::with_tracer(DeviceConfig::radeon_5870(), tracer.clone());
        let tracker = GpuTracker {
            samples: &samples,
            params,
            seeds,
            mask: stop_mask.as_ref(),
            strategy,
            ordering: SeedOrdering::Natural,
            jitter,
            run_seed: seed,
            record: RecordMode::Streamlines {
                min_steps: min_export,
            },
        };
        let report = tracker.run(&mut gpu, streams);
        println!(
            "simulated GPU: kernel {:.3}s, reduction {:.3}s, transfer {:.3}s \
             (util {:.1}%, {:.3}s hidden by streams)",
            report.ledger.kernel_s,
            report.ledger.reduction_s,
            report.ledger.transfer_s,
            report.ledger.simd_utilization() * 100.0,
            gpu.overlap_saved_s()
        );
        report.output
    };
    let fibers = &tracking.streamlines;

    // lengths.csv: sample,seed,steps.
    let path = out.join("lengths.csv");
    let io_err = |e| TractoError::io(format!("write {}", path.display()), e);
    let mut f = BufWriter::new(File::create(&path).map_err(io_err)?);
    writeln!(f, "sample,seed,steps").map_err(io_err)?;
    for (s, row) in tracking.lengths_by_sample.iter().enumerate() {
        for (i, &l) in row.iter().enumerate() {
            writeln!(f, "{s},{i},{l}").map_err(io_err)?;
        }
    }
    f.flush().map_err(io_err)?;

    if let Some(conn) = &tracking.connectivity {
        let vol = conn.probability_volume();
        let path = out.join("connectivity.trv3");
        let io_err = |e| TractoError::io(format!("write {}", path.display()), e);
        let mut f = BufWriter::new(File::create(&path).map_err(io_err)?);
        write_volume3(&mut f, &vol)
            .map_err(|e| TractoError::format_with(format!("write {}", path.display()), e))?;
        f.flush().map_err(io_err)?;
    }
    if !fibers.is_empty() {
        let path = out.join("fibers.csv");
        let io_err = |e| TractoError::io(format!("write {}", path.display()), e);
        let mut f = BufWriter::new(File::create(&path).map_err(io_err)?);
        export::write_csv(&mut f, fibers).map_err(io_err)?;
        f.flush().map_err(io_err)?;
    }

    println!(
        "wrote {}: total length {} steps, longest {} steps, {}, {:.1}s wall",
        out.display(),
        tracking.total_steps,
        tracking.longest(),
        fibers_note(pooled, fibers.len()),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The fiber part of `track`'s summary line: a device pool exports none.
fn fibers_note(pooled: bool, exported: usize) -> String {
    if pooled {
        "fibers: not exported on a device pool".to_string()
    } else {
        format!("{exported} exported fibers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;
    use tracto_volume::{Dim3, Mask};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracto_cli_trk_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn argmap(v: &[&str]) -> ArgMap {
        ArgMap::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    /// A stored single-bundle dataset whose white-matter mask is
    /// `in_mask`, with four synthetic posterior samples. Its directories,
    /// and every output directory it hands out, go when it drops.
    struct Fixture {
        tag: &'static str,
        ds: datasets::Dataset,
        mask: Mask,
        sv: tracto_mcmc::SampleVolumes,
        dirs: Vec<PathBuf>,
    }

    impl Fixture {
        fn new(
            tag: &'static str,
            in_mask: impl Fn(&datasets::Dataset, tracto_volume::Ijk) -> bool,
        ) -> Self {
            let ds = datasets::single_bundle(Dim3::new(10, 6, 6), None, 3);
            let mask = Mask::from_fn(ds.dwi.dims(), |c| in_mask(&ds, c));
            let sv = tracto::synthetic::samples_from_truth(&ds.truth, 4, 0.1, 0.02, 5);
            let dirs = vec![tmp(&format!("{tag}_data")), tmp(&format!("{tag}_sv"))];
            store::save_dataset(&dirs[0], &ds.dwi, &mask, &ds.acq).unwrap();
            store::save_samples(&dirs[1], &sv).unwrap();
            Fixture {
                tag,
                ds,
                mask,
                sv,
                dirs,
            }
        }

        /// Seeded on the bundle's own voxels.
        fn bundle(tag: &'static str) -> Self {
            Self::new(tag, |ds, c| ds.truth.at(c).count > 0)
        }

        /// A fresh output directory.
        fn out(&mut self, name: &str) -> PathBuf {
            let dir = tmp(&format!("{}_{name}", self.tag));
            self.dirs.push(dir.clone());
            dir
        }

        /// `track` over the stored samples into `out` at step 0.3.
        fn args(&self, out: &std::path::Path, extra: &[&str]) -> ArgMap {
            let mut v = vec![
                "--data",
                self.dirs[0].to_str().unwrap(),
                "--samples-dir",
                self.dirs[1].to_str().unwrap(),
                "--out",
                out.to_str().unwrap(),
                "--step",
                "0.3",
            ];
            v.extend_from_slice(extra);
            argmap(&v)
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            for d in &self.dirs {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }

    fn lengths_csv(out: &std::path::Path) -> String {
        std::fs::read_to_string(out.join("lengths.csv")).unwrap()
    }

    #[test]
    fn strategy_parser() {
        assert_eq!(parse_strategy("B").unwrap().label(), "B+1000");
        assert_eq!(parse_strategy("C").unwrap().label(), "C");
        assert_eq!(
            parse_strategy("single").unwrap(),
            SegmentationStrategy::Single
        );
        assert_eq!(
            parse_strategy("uniform:20").unwrap(),
            SegmentationStrategy::Uniform(20)
        );
        assert!(parse_strategy("uniform:0").is_err());
        assert!(parse_strategy("zig").is_err());
    }

    #[test]
    fn end_to_end_track_from_disk() {
        let mut fx = Fixture::bundle("e2e");
        let out = fx.out("out");
        run(&fx.args(&out, &["--max-steps", "500"]), &Tracer::disabled()).unwrap();
        assert!(
            lengths_csv(&out).lines().count() > 4,
            "lengths rows written"
        );
        assert!(out.join("connectivity.trv3").exists());
    }

    #[test]
    fn cache_dir_runs_estimation_once_then_hits() {
        let data = tmp("cc_data");
        let cache = tmp("cc_cache");
        let out = tmp("cc_out");
        let ds = datasets::single_bundle(Dim3::new(6, 5, 5), None, 3);
        // Narrow mask keeps both estimation and seeding small.
        let mask = Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        store::save_dataset(&data, &ds.dwi, &mask, &ds.acq).unwrap();
        let args = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--cache-dir",
            cache.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--step",
            "0.3",
            "--max-steps",
            "200",
            "--est-samples",
            "3",
            "--est-burnin",
            "40",
            "--est-interval",
            "1",
        ]);
        run(&args, &Tracer::disabled()).unwrap();
        let entries = std::fs::read_dir(&cache).unwrap().count();
        assert_eq!(entries, 1, "one cache entry after a cold run");
        // Second run must reuse the entry (no new directories) and still
        // produce the outputs.
        std::fs::remove_dir_all(&out).unwrap();
        run(&args, &Tracer::disabled()).unwrap();
        assert_eq!(std::fs::read_dir(&cache).unwrap().count(), 1);
        assert!(out.join("lengths.csv").exists());
        for d in [&data, &cache, &out] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn seeded_faults_leave_track_output_bit_identical() {
        let mut fx = Fixture::bundle("fp");
        let (clean, chaos) = (fx.out("clean"), fx.out("chaos"));
        let pool = ["--max-steps", "300", "--devices", "3"];
        run(&fx.args(&clean, &pool), &Tracer::disabled()).unwrap();
        let faulted = [&pool[..], &["--fault-seed", "9"]].concat();
        run(&fx.args(&chaos, &faulted), &Tracer::disabled()).unwrap();
        assert_eq!(
            lengths_csv(&clean),
            lengths_csv(&chaos),
            "injected faults must not change results"
        );
    }

    #[test]
    fn streams_flag_leaves_track_output_bit_identical() {
        let mut fx = Fixture::bundle("st");
        let (serial, streamed, pool) = (fx.out("serial"), fx.out("streamed"), fx.out("pool"));
        let run_with = |out: &PathBuf, extra: &[&str]| {
            let v = [&["--max-steps", "300"][..], extra].concat();
            run(&fx.args(out, &v), &Tracer::disabled())
        };
        run_with(&serial, &[]).unwrap();
        run_with(&streamed, &["--streams", "3"]).unwrap();
        run_with(&pool, &["--streams", "3", "--devices", "2"]).unwrap();
        let serial_lengths = lengths_csv(&serial);
        assert_eq!(
            serial_lengths,
            lengths_csv(&streamed),
            "streams must not change results"
        );
        assert_eq!(
            serial_lengths,
            lengths_csv(&pool),
            "streams over a pool must not change results"
        );
        let err = run_with(&serial, &["--streams", "0"]).unwrap_err();
        assert!(err.to_string().contains("--streams"));
    }

    #[test]
    fn fault_flags_validated() {
        let args = argmap(&[
            "--data",
            "x",
            "--out",
            "y",
            "--samples-dir",
            "z",
            "--fault-plan",
            "p.txt",
            "--fault-seed",
            "3",
        ]);
        assert!(run(&args, &Tracer::disabled())
            .unwrap_err()
            .to_string()
            .contains("mutually exclusive"));
        // The host path and its switch are gone; the flag is unknown now.
        let args = argmap(&["--data", "x", "--out", "y", "--samples-dir", "z", "--cpu"]);
        let err = run(&args, &Tracer::disabled()).unwrap_err().to_string();
        assert!(err.contains("unknown flag --cpu (valid flags: "), "{err}");
        assert!(
            err.contains("--min-export-steps") && !err.contains("--cpu,"),
            "{err}"
        );
    }

    #[test]
    fn pool_refuses_explicit_fiber_export() {
        let mut fx = Fixture::bundle("px");
        for pool in [
            &["--devices", "2"][..],
            &["--fault-seed", "4"],
            &["--devices", "3", "--fault-seed", "4"],
        ] {
            let out = fx.out("out");
            let extra = [pool, &["--max-steps", "100", "--min-export-steps", "8"]].concat();
            let err = run(&fx.args(&out, &extra), &Tracer::disabled()).unwrap_err();
            assert_eq!(err.kind(), tracto_trace::ErrorKind::Config, "{err}");
            assert!(
                err.to_string().contains("fiber export needs one device"),
                "{err}"
            );
            assert!(!out.exists(), "refused before writing anything");
        }
    }

    #[test]
    fn pool_without_export_flag_says_no_fibers() {
        let mut fx = Fixture::bundle("pn");
        let out = fx.out("out");
        let extra = ["--max-steps", "100", "--devices", "2"];
        run(&fx.args(&out, &extra), &Tracer::disabled()).unwrap();
        assert!(out.join("lengths.csv").exists());
        assert!(!out.join("fibers.csv").exists());
        assert_eq!(
            fibers_note(true, 0),
            "fibers: not exported on a device pool"
        );
        assert_eq!(fibers_note(false, 0), "0 exported fibers");
    }

    #[test]
    fn default_track_exports_what_the_cpu_reference_exports() {
        // Bundle voxels plus an empty bottom slab: seeds there have no
        // eligible direction and die on arrival.
        let mut fx = Fixture::new("fx", |ds, c| ds.truth.at(c).count > 0 || c.k == 0);
        let out = fx.out("out");
        let extra = [
            "--max-steps",
            "500",
            "--stop-threshold",
            "40",
            "--min-export-steps",
            "8",
        ];
        run(&fx.args(&out, &extra), &Tracer::disabled()).unwrap();

        let stop = mask_from_percentile(&tracto::pipeline::mean_dwi_volume(&fx.ds.dwi), 40.0);
        let cpu = tracto_tracking::CpuTracker {
            samples: &fx.sv,
            params: TrackingParams {
                step_length: 0.3,
                angular_threshold: 0.9,
                max_steps: 500,
                min_fraction: 0.05,
                interp: InterpMode::Nearest,
            },
            seeds: seeds_from_mask(&fx.mask),
            mask: stop.as_ref(),
            jitter: Modality::Mcmc.effective_jitter(0.5),
            run_seed: 42,
            bidirectional: false,
        }
        .run_serial(RecordMode::Streamlines { min_steps: 8 });
        let lengths = cpu.all_lengths();
        assert!(lengths.contains(&0), "no dead-on-arrival seed");
        assert!(lengths.iter().any(|&l| l > 0 && l < 8), "nothing filtered");
        let stops = |r| cpu.streamlines.iter().any(|s| s.stop == r);
        assert!(
            stops(tracto_tracking::StopReason::OutOfMask),
            "stop mask idle"
        );

        let mut fibers = Vec::new();
        export::write_csv(&mut fibers, &cpu.streamlines).unwrap();
        assert_eq!(std::fs::read(out.join("fibers.csv")).unwrap(), fibers);
        let mut conn = Vec::new();
        write_volume3(&mut conn, &cpu.connectivity.unwrap().probability_volume()).unwrap();
        assert_eq!(std::fs::read(out.join("connectivity.trv3")).unwrap(), conn);
    }

    /// Sum the `steps` column of a run's `lengths.csv`.
    fn total_steps(out: &std::path::Path) -> u64 {
        std::fs::read_to_string(out.join("lengths.csv"))
            .unwrap()
            .lines()
            .skip(1)
            .map(|l| l.rsplit(',').next().unwrap().parse::<u64>().unwrap())
            .sum()
    }

    #[test]
    fn analytic_modality_is_cheaper_than_default() {
        let mut fx = Fixture::bundle("an");
        let (mcmc, fast) = (fx.out("mcmc"), fx.out("fast"));
        run(
            &fx.args(&mcmc, &["--max-steps", "500"]),
            &Tracer::disabled(),
        )
        .unwrap();
        let analytic = ["--max-steps", "500", "--modality", "analytic"];
        run(&fx.args(&fast, &analytic), &Tracer::disabled()).unwrap();
        // One mean sample instead of four, and unit steps instead of 0.3:
        // the fast tier must do strictly less work.
        assert!(total_steps(&fast) < total_steps(&mcmc));
        let rows = |o: &PathBuf| lengths_csv(o).lines().count();
        assert!(rows(&fast) < rows(&mcmc), "fewer lanes tracked");
    }

    #[test]
    fn tensorline_modality_needs_no_samples() {
        let data = tmp("tl_data");
        let out = tmp("tl_out");
        let ds = datasets::single_bundle(Dim3::new(10, 6, 6), None, 3);
        let mask = Mask::from_fn(ds.dwi.dims(), |c| ds.truth.at(c).count > 0);
        store::save_dataset(&data, &ds.dwi, &mask, &ds.acq).unwrap();
        let args = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--modality",
            "tensorline",
            "--step",
            "0.3",
            "--max-steps",
            "300",
        ]);
        run(&args, &Tracer::disabled()).unwrap();
        assert!(out.join("lengths.csv").exists());
        // A sample source is rejected: tensorlines fit the data directly.
        let rejected = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--modality",
            "tensorline",
            "--samples-dir",
            "sv",
        ]);
        assert!(run(&rejected, &Tracer::disabled())
            .unwrap_err()
            .to_string()
            .contains("tensorline"));
        for d in [&data, &out] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn stop_flags_validated_and_truncate() {
        let mut fx = Fixture::bundle("sm");
        let (free, stop, bad) = (fx.out("free"), fx.out("stop"), fx.out("badmask"));
        let run_with = |out: &PathBuf, extra: &[&str]| {
            let v = [&["--max-steps", "500"][..], extra].concat();
            run(&fx.args(out, &v), &Tracer::disabled())
        };
        run_with(&free, &[]).unwrap();
        // A 95th-percentile stop mask leaves almost every voxel out of
        // bounds for the walkers, so streamlines terminate early.
        run_with(&stop, &["--stop-threshold", "95"]).unwrap();
        assert!(total_steps(&stop) < total_steps(&free));

        let err = run_with(&stop, &["--stop-threshold", "150"]).unwrap_err();
        assert!(err.to_string().contains("0..=100"));

        // A stop-mask volume on the wrong grid is rejected.
        std::fs::create_dir_all(&bad).unwrap();
        let bad_path = bad.join("stop.trv3");
        let mut f = std::fs::File::create(&bad_path).unwrap();
        tracto_volume::io::write_volume3(
            &mut f,
            &tracto_volume::Volume3::zeros(Dim3::new(3, 3, 3)),
        )
        .unwrap();
        drop(f);
        let err = run_with(&stop, &["--stop-mask", bad_path.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn samples_source_flags_validated() {
        let data = tmp("sf_data");
        let ds = datasets::single_bundle(Dim3::new(6, 5, 5), None, 3);
        store::save_dataset(&data, &ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        let base = ["--data", data.to_str().unwrap(), "--out", "x"];
        let none = argmap(&base);
        assert!(run(&none, &Tracer::disabled())
            .unwrap_err()
            .to_string()
            .contains("--samples-dir or --cache-dir"));
        let mut both = base.to_vec();
        both.extend(["--samples-dir", "a", "--cache-dir", "b"]);
        assert!(run(&argmap(&both), &Tracer::disabled())
            .unwrap_err()
            .to_string()
            .contains("mutually exclusive"));
        let _ = std::fs::remove_dir_all(&data);
    }

    #[test]
    fn mismatched_samples_rejected() {
        let data = tmp("m_data");
        let samples_dir = tmp("m_sv");
        let out = tmp("m_out");
        let ds = datasets::single_bundle(Dim3::new(10, 6, 6), None, 3);
        store::save_dataset(&data, &ds.dwi, &ds.wm_mask, &ds.acq).unwrap();
        let other = datasets::single_bundle(Dim3::new(8, 6, 6), None, 3);
        let sv = tracto::synthetic::samples_from_truth(&other.truth, 2, 0.1, 0.02, 5);
        store::save_samples(&samples_dir, &sv).unwrap();
        let args = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--samples-dir",
            samples_dir.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(run(&args, &Tracer::disabled())
            .unwrap_err()
            .to_string()
            .contains("do not match"));
        for d in [&data, &samples_dir, &out] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
