//! `tracto estimate` — Step 1: voxelwise posterior sampling.

use crate::args::ArgMap;
use crate::store;
use std::path::PathBuf;
use tracto::run_mcmc_gpu;
use tracto_diffusion::PriorConfig;
use tracto_gpu_sim::{DeviceConfig, Gpu};
use tracto_mcmc::mh::AdaptScheme;
use tracto_mcmc::{ChainConfig, PointEstimator};
use tracto_trace::{Tracer, TractoError, TractoResult};

const FLAGS: [&str; 7] = [
    "data", "out", "samples", "burnin", "interval", "seed", "point",
];

/// Run the command.
pub fn run(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&FLAGS)?;
    let data = PathBuf::from(args.required("data")?);
    let out = PathBuf::from(args.required("out")?);
    let num_samples: u32 = args.get_parse("samples", 25)?;
    let burnin: u32 = args.get_parse("burnin", 300)?;
    let interval: u32 = args.get_parse("interval", 2)?;
    let seed: u64 = args.get_parse("seed", 42)?;
    if num_samples == 0 || interval == 0 {
        return Err(TractoError::config(
            "--samples and --interval must be positive",
        ));
    }

    let (dwi, mask, acq) = store::load_dataset(&data)?;
    let prior = PriorConfig::default();
    let t0 = std::time::Instant::now();

    let samples = if args.switch("point") {
        // The point-estimation baseline (single stick, Laplace samples).
        println!(
            "point-estimating {} voxels ({} pseudo-samples each)…",
            mask.count(),
            num_samples
        );
        PointEstimator::new(&acq, &dwi, &mask, prior, num_samples as usize, seed).run_parallel()
    } else {
        let config = ChainConfig {
            num_burnin: burnin,
            num_samples,
            sample_interval: interval,
            adapt: AdaptScheme::paper_default(),
        };
        println!(
            "running MCMC over {} voxels ({} loops each)…",
            mask.count(),
            config.num_loops()
        );
        let mut gpu = Gpu::with_tracer(DeviceConfig::radeon_5870(), tracer.clone());
        let report = run_mcmc_gpu(&mut gpu, &acq, &dwi, &mask, prior, config, seed, 1, None)?;
        println!(
            "simulated GPU time {:.2}s (kernel {:.2}s, transfer {:.2}s)",
            report.ledger.total_s(),
            report.ledger.kernel_s,
            report.ledger.transfer_s
        );
        report.samples
    };

    store::save_samples(&out, &samples)?;
    println!(
        "wrote {} ({} samples/voxel) in {:.1}s wall",
        out.display(),
        samples.num_samples(),
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_phantom::datasets;
    use tracto_volume::{Dim3, Ijk, Vec3};

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tracto_cli_est_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn argmap(v: &[&str]) -> ArgMap {
        ArgMap::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn estimates_stored_dataset() {
        let data = tmp("data");
        let out = tmp("samples");
        let ds = datasets::single_bundle(Dim3::new(8, 5, 5), None, 3);
        // Narrow mask for speed.
        let mask = tracto_volume::Mask::from_fn(ds.dwi.dims(), |c| c.j == 2 && c.k == 2);
        store::save_dataset(&data, &ds.dwi, &mask, &ds.acq).unwrap();
        let args = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--samples",
            "8",
            "--burnin",
            "100",
        ]);
        run(&args, &Tracer::disabled()).unwrap();
        let sv = store::load_samples(&out).unwrap();
        assert_eq!(sv.num_samples(), 8);
        // The bundle voxel's direction should be near x.
        let dir = sv.mean_principal_direction(Ijk::new(4, 2, 2));
        assert!(dir.dot(Vec3::X).abs() > 0.9, "dir {dir:?}");
        let _ = std::fs::remove_dir_all(&data);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn point_mode_writes_single_stick_samples() {
        let data = tmp("pdata");
        let out = tmp("psamples");
        let ds = datasets::single_bundle(Dim3::new(6, 5, 5), Some(25.0), 3);
        let mask = tracto_volume::Mask::from_fn(ds.dwi.dims(), |c| c == Ijk::new(3, 2, 2));
        store::save_dataset(&data, &ds.dwi, &mask, &ds.acq).unwrap();
        let args = argmap(&[
            "--data",
            data.to_str().unwrap(),
            "--out",
            out.to_str().unwrap(),
            "--samples",
            "5",
            "--point",
        ]);
        run(&args, &Tracer::disabled()).unwrap();
        let sv = store::load_samples(&out).unwrap();
        for s in 0..5 {
            assert_eq!(sv.sticks_at(Ijk::new(3, 2, 2), s)[1].1, 0.0);
        }
        let _ = std::fs::remove_dir_all(&data);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn removed_gpu_flag_is_unknown() {
        let args = argmap(&["--data", "x", "--out", "y", "--gpu"]);
        let err = run(&args, &Tracer::disabled()).unwrap_err().to_string();
        assert!(err.contains("unknown flag --gpu"), "{err}");
        assert!(err.contains("valid flags: "), "{err}");
        assert!(err.contains("--point"), "{err}");
    }

    #[test]
    fn rejects_zero_samples() {
        let args = argmap(&["--data", "x", "--out", "y", "--samples", "0"]);
        assert!(run(&args, &Tracer::disabled()).is_err());
    }
}
