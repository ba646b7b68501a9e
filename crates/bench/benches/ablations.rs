//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. wavefront width 64 vs 32 (AMD vs NVIDIA SIMD groups);
//! 2. nearest vs trilinear orientation interpolation;
//! 3. adaptive vs fixed MH proposals (acceptance band + ESS);
//! 4. ARD shrinkage prior on the secondary fraction;
//! 5. load sorting vs natural order (quantifying Fig. 4's conclusion);
//! 6. multi-GPU strong scaling (the conclusion's "proportional performance
//!    gains can be expected" claim).

use tracto::diffusion::posterior::{BallSticksParams, NUM_PARAMETERS};
use tracto::diffusion::{BallSticksPosterior, DiffusionModel};
use tracto::mcmc::chain::run_chain;
use tracto::mcmc::diagnostics::effective_sample_size;
use tracto::mcmc::mh::AdaptScheme;
use tracto::mcmc::voxelwise::default_proposal_scales;
use tracto::phantom::gradients;
use tracto::prelude::*;
use tracto::rng::{BoxMuller, HybridTaus};
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto_bench::{fmt_s, row_params, tracking_workload, BenchScale, TableWriter};

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    let params = row_params(0.1, 0.9);
    let mut w = TableWriter::new("ablations", "Ablations of design choices");

    // ---- 1. Wavefront width.
    w.line("1) wavefront width (strategy A_MaxStep, imbalance-bound):");
    for device in [DeviceConfig::radeon_5870(), DeviceConfig::warp32_variant()] {
        let tracker = GpuTracker {
            samples: &workload.samples,
            params,
            seeds: workload.seeds.clone(),
            mask: None,
            strategy: SegmentationStrategy::Single,
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: 42,
            record: RecordMode::LengthsOnly,
        };
        let report = tracker.run(&mut Gpu::new(device.clone()), 1);
        w.line(&format!(
            "   wavefront {:>2}: simd util {:>5.1}%, kernel {} s",
            device.wavefront_size,
            report.ledger.simd_utilization() * 100.0,
            fmt_s(report.ledger.kernel_s)
        ));
    }
    w.line("   → narrower SIMD groups waste fewer cycles on imbalanced loads.");

    // ---- 2. Interpolation mode.
    w.line("");
    w.line("2) orientation interpolation (kernel path, one run each):");
    for (label, interp) in [
        ("nearest", InterpMode::Nearest),
        ("trilinear", InterpMode::Trilinear),
    ] {
        let p = TrackingParams { interp, ..params };
        let t0 = std::time::Instant::now();
        let out = GpuTracker {
            samples: &workload.samples,
            params: p,
            seeds: workload.seeds.clone(),
            mask: None,
            strategy: SegmentationStrategy::paper_b(),
            ordering: SeedOrdering::Natural,
            jitter: 0.5,
            run_seed: 42,
            record: RecordMode::LengthsOnly,
        }
        .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
        .output;
        w.line(&format!(
            "   {label:<9}: total {:>10} steps, mean fiber {:>6.1}, wall {:.2}s",
            out.total_steps,
            out.total_steps as f64
                / out.all_lengths().iter().filter(|&&l| l > 0).count().max(1) as f64,
            t0.elapsed().as_secs_f64()
        ));
    }
    w.line("   → trilinear smooths the field: longer fibers at higher per-step cost.");

    // ---- 3. Adaptive vs fixed proposals.
    w.line("");
    w.line("3) MH proposal adaptation (single voxel, 2000 recorded samples):");
    let acq = gradients::default_protocol(5);
    let model = tracto::diffusion::BallSticksModel::new(
        1000.0,
        1.5e-3,
        vec![0.55, 0.2],
        vec![Vec3::X, Vec3::new(0.2, 1.0, 0.1)],
    );
    // Rician noise at SNR 25, as in a real scan — without it the posterior
    // is a near-delta and no sampler mixes.
    let noise = |clean: Vec<f64>, seed: u64| -> Vec<f64> {
        let mut rng = BoxMuller::new(HybridTaus::new(seed));
        clean
            .into_iter()
            .map(|s| {
                let re = s + rng.next(0.0, 40.0);
                let im = rng.next(0.0, 40.0);
                (re * re + im * im).sqrt()
            })
            .collect()
    };
    let signal = noise(model.predict_protocol(&acq), 31);
    let posterior = BallSticksPosterior::new(&acq, &signal, PriorConfig::default());
    let init = posterior.initial_params();
    let target =
        |p: &[f64; NUM_PARAMETERS]| posterior.log_posterior(&BallSticksParams::from_array(*p));
    for (label, adapt) in [
        ("adaptive (paper)", AdaptScheme::paper_default()),
        ("fixed scales", AdaptScheme::Fixed),
    ] {
        let config = tracto::mcmc::ChainConfig {
            num_burnin: 400,
            num_samples: 2000,
            sample_interval: 1,
            adapt,
        };
        let mut rng = HybridTaus::new(11);
        let out = run_chain(
            &target,
            init.to_array(),
            default_proposal_scales(init.s0),
            config,
            &mut rng,
        );
        let f1_series: Vec<f64> = out.samples.iter().map(|s| s[3]).collect();
        let ess = effective_sample_size(&f1_series);
        let mean_acc = out.final_acceptance.iter().sum::<f64>() / out.final_acceptance.len() as f64;
        w.line(&format!(
            "   {label:<17}: mean acceptance {:.2}, ESS(f1) {:>7.1} / 2000",
            mean_acc, ess
        ));
    }
    w.line("   → band adaptation keeps acceptance in the 25-50% window and raises ESS.");

    // ---- 4. ARD shrinkage prior on f2 at a single-fiber voxel.
    w.line("");
    w.line("4) ARD shrinkage prior on f2 (single-fiber voxel, should push f2 → 0):");
    let single_model =
        tracto::diffusion::BallSticksModel::new(1000.0, 1.5e-3, vec![0.6], vec![Vec3::X]);
    let single_signal = noise(single_model.predict_protocol(&acq), 32);
    for (label, prior) in [
        ("flat prior", PriorConfig::default()),
        (
            "ARD w=40",
            PriorConfig {
                ard_weight: Some(40.0),
                ..Default::default()
            },
        ),
    ] {
        let post = BallSticksPosterior::new(&acq, &single_signal, prior);
        let init = post.initial_params();
        let target =
            |p: &[f64; NUM_PARAMETERS]| post.log_posterior(&BallSticksParams::from_array(*p));
        let config = tracto::mcmc::ChainConfig {
            num_samples: 1500,
            ..tracto::mcmc::ChainConfig::paper_default()
        };
        let mut rng = HybridTaus::new(13);
        let out = run_chain(
            &target,
            init.to_array(),
            default_proposal_scales(init.s0),
            config,
            &mut rng,
        );
        let mean_f2 = out.mean(6);
        w.line(&format!("   {label:<11}: posterior mean f2 = {mean_f2:.4}"));
    }
    w.line("   → the shrinkage prior suppresses the spurious second stick.");

    // ---- 4b. Model complexity: N = 1 vs N = 2 sticks at a crossing.
    w.line("");
    w.line("4b) stick count N (paper fixes N = 2 \"to avoid over fitting\"):");
    {
        use tracto::volume::Dim3;
        let ds = tracto::phantom::datasets::crossing(Dim3::new(14, 14, 5), 90.0, Some(30.0), 8);
        let c = tracto::volume::Ijk::new(6, 6, 2);
        let mask = Mask::from_fn(ds.dwi.dims(), |x| x == c);
        for (label, sticks) in [("N = 1", 1u8), ("N = 2", 2u8)] {
            let prior = PriorConfig {
                max_sticks: sticks,
                ..Default::default()
            };
            let t0 = std::time::Instant::now();
            let sv = run_mcmc_gpu(
                &mut Gpu::new(DeviceConfig::radeon_5870()),
                &ds.acq,
                &ds.dwi,
                &mask,
                prior,
                tracto::mcmc::ChainConfig::paper_default(),
                3,
                1,
                None,
            )
            .expect("a fault-free device cannot fail")
            .samples;
            let n = sv.num_samples();
            let mean_f2: f64 = (0..n).map(|s| sv.sticks_at(c, s)[1].1).sum::<f64>() / n as f64;
            w.line(&format!(
                "   {label}: mean f2 at the crossing {:.3}, wall {:.0} ms/voxel",
                mean_f2,
                t0.elapsed().as_secs_f64() * 1e3
            ));
        }
    }
    w.line("   → N = 1 is cheaper but structurally blind to the second population.");

    // ---- 5. Sorting vs natural (charged work).
    w.line("");
    w.line("5) seed ordering (strategy A_MaxStep):");
    for (label, ordering) in [
        ("natural", SeedOrdering::Natural),
        ("sorted-by-pilot", SeedOrdering::SortedByPilot),
    ] {
        let tracker = GpuTracker {
            samples: &workload.samples,
            params,
            seeds: workload.seeds.clone(),
            mask: None,
            strategy: SegmentationStrategy::Single,
            ordering,
            jitter: 0.5,
            run_seed: 42,
            record: RecordMode::LengthsOnly,
        };
        let report = tracker.run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1);
        w.line(&format!(
            "   {label:<16}: kernel {} s, simd util {:>5.1}%",
            fmt_s(report.ledger.kernel_s),
            report.ledger.simd_utilization() * 100.0
        ));
    }
    w.line("   → stale sorting buys little (Fig. 4), unlike segmentation (Table IV).");

    // ---- 6. Multi-GPU strong scaling, serialized vs stream-overlapped.
    w.line("");
    w.line("6) multi-GPU strong scaling (paper: \"proportional performance gains\"):");
    use tracto::gpu_sim::multi::scaling_summary;
    use tracto_bench::{run_scaling, scaling_loads};
    let loads = scaling_loads(262_144, 99);
    // streams_for(n): 1 = the legacy serialized host loop; otherwise two
    // stream lanes per device so every device has a sibling stream to hide
    // its host work behind.
    type StreamsFor = fn(usize) -> usize;
    let rows: [(&str, SegmentationStrategy, StreamsFor); 3] = [
        (
            "A_MaxStep (kernel-bound)",
            SegmentationStrategy::Single,
            |_| 1,
        ),
        (
            "B (host-bound, serialized)",
            SegmentationStrategy::paper_b(),
            |_| 1,
        ),
        (
            "B (2 streams/device)",
            SegmentationStrategy::paper_b(),
            |n| 2 * n,
        ),
    ];
    for (label, strategy, streams_for) in rows {
        let runs: Vec<(usize, tracto_bench::ScalingRun)> = [1usize, 2, 4]
            .iter()
            .map(|&n| (n, run_scaling(&loads, &strategy, n, streams_for(n))))
            .collect();
        let measurements: Vec<(usize, f64)> = runs.iter().map(|(n, r)| (*n, r.wall_s)).collect();
        w.line(&format!("   strategy {label}:"));
        for (pt, (_, run)) in scaling_summary(&measurements).iter().zip(&runs) {
            w.line(&format!(
                "     {} GPU(s): wall {} s, speedup {:.2}x, efficiency {:.0}%{}",
                pt.devices,
                fmt_s(run.wall_s),
                pt.speedup,
                pt.efficiency * 100.0,
                if run.overlap_saved_s > 0.0 {
                    format!(", {} s hidden by overlap", fmt_s(run.overlap_saved_s))
                } else {
                    String::new()
                }
            ));
        }
    }
    // Bit-identity witness: the stream-overlapped schedule must execute
    // exactly the same iterations per lane as the serialized host loop, at
    // every device count — overlap reorders time, never work.
    let strategy_b = SegmentationStrategy::paper_b();
    for n in [1usize, 2, 4] {
        let serial = run_scaling(&loads, &strategy_b, n, 1);
        let streamed = run_scaling(&loads, &strategy_b, n, 2 * n);
        assert_eq!(
            serial.executed, streamed.executed,
            "streamed schedule diverged from serialized at {n} device(s)"
        );
        // At 1 device the split transfers pay per-op latency twice with no
        // sibling kernels to hide behind, so only multi-device schedules
        // are required to come out ahead.
        if n >= 2 {
            assert!(
                streamed.wall_s <= serial.wall_s,
                "overlap must not slow the schedule down at {n} device(s)"
            );
        }
    }
    w.line("   → serialized strategy B is host-bound: transfers/reductions cap");
    w.line("     multi-GPU benefit (Fig. 8's overlap problem). Stream-overlapped");
    w.line("     launches hide host work behind kernels of sibling streams and");
    w.line("     restore >1x scaling — with bit-identical per-lane iteration");
    w.line("     counts (asserted above) at every device count.");
    w.save();
}
