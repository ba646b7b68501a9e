//! Integration tests of the MCMC estimator against phantom ground truth:
//! direction recovery, crossing resolution, and uncertainty behaviour.

use tracto::prelude::*;

fn angle_between(a: Vec3, b: Vec3) -> f64 {
    a.dot(b).abs().clamp(0.0, 1.0).acos()
}

/// Step 1 on the production path: MH-MCMC on the simulated GPU.
fn estimate(
    acq: &Acquisition,
    dwi: &Volume4<f32>,
    mask: &Mask,
    prior: PriorConfig,
    config: ChainConfig,
    seed: u64,
) -> SampleVolumes {
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    tracto::run_mcmc_gpu(&mut gpu, acq, dwi, mask, prior, config, seed, 1, None)
        .expect("a fault-free device cannot fail")
        .samples
}

/// Posterior-mean dominant direction at a voxel.
fn mean_dir(samples: &SampleVolumes, c: Ijk) -> Vec3 {
    samples.mean_principal_direction(c)
}

#[test]
fn recovers_bundle_directions_across_the_volume() {
    let ds = datasets::single_bundle(Dim3::new(12, 8, 8), Some(30.0), 5);
    let fiber = ds.truth.fiber_mask();
    let samples = estimate(
        &ds.acq,
        &ds.dwi,
        &fiber,
        PriorConfig::default(),
        ChainConfig::fast_test(),
        17,
    );
    let mut ok = 0;
    let mut total = 0;
    for c in fiber.coords() {
        let truth = ds.truth.at(c).sticks()[0].0;
        let got = mean_dir(&samples, c);
        total += 1;
        if angle_between(truth, got) < 20f64.to_radians() {
            ok += 1;
        }
    }
    assert!(total > 30, "phantom too small: {total} fiber voxels");
    assert!(
        ok as f64 / total as f64 > 0.9,
        "only {ok}/{total} voxels within 20° of truth"
    );
}

#[test]
fn resolves_ninety_degree_crossing() {
    let dims = Dim3::new(14, 14, 5);
    let ds = datasets::crossing(dims, 90.0, Some(30.0), 8);
    let center = Ijk::new(6, 6, 2);
    assert_eq!(ds.truth.at(center).count, 2);
    let mask = Mask::from_fn(dims, |c| c == center);
    let samples = estimate(
        &ds.acq,
        &ds.dwi,
        &mask,
        PriorConfig::default(),
        ChainConfig::paper_default(),
        3,
    );
    // Mean directions of both sticks.
    let n = samples.num_samples();
    let r1 = samples.sticks_at(center, 0)[0].0;
    let r2 = samples.sticks_at(center, 0)[1].0;
    let mut m1 = Vec3::ZERO;
    let mut m2 = Vec3::ZERO;
    for s in 0..n {
        let st = samples.sticks_at(center, s);
        m1 += st[0].0.aligned_with(r1);
        m2 += st[1].0.aligned_with(r2);
    }
    let m1 = m1.normalized();
    let m2 = m2.normalized();
    let t1 = ds.truth.at(center).sticks()[0].0;
    let t2 = ds.truth.at(center).sticks()[1].0;
    let assign_a = angle_between(m1, t1).max(angle_between(m2, t2));
    let assign_b = angle_between(m1, t2).max(angle_between(m2, t1));
    let worst = assign_a.min(assign_b);
    assert!(
        worst < 25f64.to_radians(),
        "crossing recovery error {:.1}°",
        worst.to_degrees()
    );
}

#[test]
fn noise_widens_posterior_dispersion() {
    // Angular spread of direction samples must grow with noise.
    let dims = Dim3::new(10, 6, 6);
    let c = Ijk::new(5, 2, 2);
    let spread = |snr: Option<f64>| {
        let ds = datasets::single_bundle(dims, snr, 4);
        let mask = Mask::from_fn(dims, |x| x == c);
        let samples = estimate(
            &ds.acq,
            &ds.dwi,
            &mask,
            PriorConfig::default(),
            ChainConfig::paper_default(),
            21,
        );
        let mean = samples.mean_principal_direction(c);
        let n = samples.num_samples();
        (0..n)
            .map(|s| angle_between(samples.sticks_at(c, s)[0].0, mean))
            .sum::<f64>()
            / n as f64
    };
    let clean = spread(None);
    let noisy = spread(Some(10.0));
    assert!(
        noisy > clean,
        "posterior angular spread: clean {:.3} rad vs noisy {:.3} rad",
        clean,
        noisy
    );
}

#[test]
fn isotropic_voxels_get_low_fractions() {
    // A voxel with no fiber population should yield small sampled f1.
    let dims = Dim3::new(10, 8, 8);
    let ds = datasets::single_bundle(dims, Some(30.0), 6);
    let off_bundle = Ijk::new(5, 0, 0);
    assert_eq!(ds.truth.at(off_bundle).count, 0);
    let mask = Mask::from_fn(dims, |c| c == off_bundle);
    let samples = estimate(
        &ds.acq,
        &ds.dwi,
        &mask,
        PriorConfig::default(),
        ChainConfig::paper_default(),
        13,
    );
    let mean_f1 = samples.mean_f1(off_bundle);
    assert!(mean_f1 < 0.25, "isotropic voxel mean f1 = {mean_f1}");
}

#[test]
fn gpu_mcmc_identical_to_cpu() {
    let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(25.0), 7);
    let mask = Mask::from_fn(ds.dwi.dims(), |c| c.k == 3 && c.j >= 2 && c.j <= 3);
    let config = ChainConfig::fast_test();
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let gpu_out = tracto::run_mcmc_gpu(
        &mut gpu,
        &ds.acq,
        &ds.dwi,
        &mask,
        PriorConfig::default(),
        config,
        123,
        1,
        None,
    )
    .unwrap();
    let cpu = VoxelEstimator::new(&ds.acq, &ds.dwi, &mask, PriorConfig::default(), config, 123)
        .run_serial();
    assert_eq!(gpu_out.samples.f1, cpu.f1);
    assert_eq!(gpu_out.samples.f2, cpu.f2);
    assert_eq!(gpu_out.samples.th1, cpu.th1);
    assert_eq!(gpu_out.samples.ph1, cpu.ph1);
    assert_eq!(gpu_out.samples.th2, cpu.th2);
    assert_eq!(gpu_out.samples.ph2, cpu.ph2);
}

#[test]
fn random_number_budget_matches_paper_claim() {
    // Paper: NumVoxels × NumLoops × NumParameters × 3 random numbers; with
    // their example parameters this exceeds 20 GB, motivating on-device
    // generation.
    let config = ChainConfig {
        num_burnin: 500,
        num_samples: 250,
        sample_interval: 2,
        ..ChainConfig::paper_default()
    };
    let per_voxel = config.random_numbers_needed(9);
    assert_eq!(per_voxel, 1000 * 9 * 3);
    let bytes_total = per_voxel * 200_000 * 4;
    assert!(bytes_total as f64 > 20e9);
}

#[test]
fn rician_likelihood_estimates_on_rician_data() {
    // Extension beyond the paper: swap the Gaussian likelihood for the
    // exact Rician one on Rician-noised data; direction recovery must hold
    // and the posterior must actually differ from the Gaussian version.
    use tracto::diffusion::NoiseLikelihood;
    let ds = datasets::single_bundle(Dim3::new(8, 6, 6), Some(8.0), 9); // low SNR
    let c = Ijk::new(4, 2, 2);
    let mask = Mask::from_fn(ds.dwi.dims(), |x| x == c);
    let run = |likelihood| {
        let prior = PriorConfig {
            likelihood,
            ..Default::default()
        };
        estimate(
            &ds.acq,
            &ds.dwi,
            &mask,
            prior,
            ChainConfig::paper_default(),
            31,
        )
    };
    let gauss = run(NoiseLikelihood::Gaussian);
    let rice = run(NoiseLikelihood::Rician);
    let truth = ds.truth.at(c).sticks()[0].0;
    assert!(
        rice.mean_principal_direction(c).dot(truth).abs() > 0.85,
        "Rician-likelihood posterior must still find the fiber"
    );
    assert_ne!(gauss.th1, rice.th1, "likelihood choice must matter");
}

#[test]
fn single_stick_model_matches_gpu_and_misses_crossings() {
    // The paper's model-selection choice ("we let N = 2 to avoid over
    // fitting") exercised: with max_sticks = 1 the estimator reduces to the
    // compartment model — cheaper, identical across backends, but blind to
    // the second population at a crossing.
    let dims = Dim3::new(14, 14, 5);
    let ds = datasets::crossing(dims, 90.0, Some(30.0), 8);
    let c = Ijk::new(6, 6, 2);
    let mask = Mask::from_fn(dims, |x| x == c);
    let prior = PriorConfig {
        max_sticks: 1,
        ..Default::default()
    };
    let config = ChainConfig::paper_default();
    let cpu = VoxelEstimator::new(&ds.acq, &ds.dwi, &mask, prior, config, 3).run_serial();
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let gpu_out =
        tracto::run_mcmc_gpu(&mut gpu, &ds.acq, &ds.dwi, &mask, prior, config, 3, 1, None).unwrap();
    assert_eq!(
        cpu.th1, gpu_out.samples.th1,
        "backends agree under N = 1 too"
    );
    // f2 identically zero across all samples.
    for s in 0..cpu.num_samples() {
        assert_eq!(cpu.sticks_at(c, s)[1].1, 0.0);
    }
    // N = 2 finds substantial f2 at the same voxel.
    let full = estimate(&ds.acq, &ds.dwi, &mask, PriorConfig::default(), config, 3);
    let mean_f2: f64 = (0..full.num_samples())
        .map(|s| full.sticks_at(c, s)[1].1)
        .sum::<f64>()
        / full.num_samples() as f64;
    assert!(
        mean_f2 > 0.15,
        "N = 2 should capture the crossing: f2 {mean_f2}"
    );
}
