//! Deterministic single-tensor tracking vs probabilistic two-stick
//! tracking at a fiber crossing — the paper's introductory motivation made
//! runnable: deterministic methods "may be disturbed by the presence of
//! fiber crossings or bifurcations … and do not provide the confidence in
//! the estimated fiber paths".
//!
//! ```sh
//! cargo run --release --example deterministic_vs_probabilistic
//! ```

use tracto::prelude::*;
use tracto::tracking::probabilistic::RecordMode;
use tracto::tracking::tensorline::{track_tensorline, TensorField};

fn main() {
    // A 90° crossing with realistic noise.
    let dims = Dim3::new(24, 24, 7);
    let dataset = datasets::crossing(dims, 90.0, Some(25.0), 17);
    let cx = (dims.nx - 1) as f64 / 2.0;
    let cy = (dims.ny - 1) as f64 / 2.0;
    let cz = (dims.nz - 1) as f64 / 2.0;

    // Seeds on the west arm of the x bundle, before the crossing.
    let seeds: Vec<Vec3> = (0..3).map(|i| Vec3::new(2.0 + i as f64, cy, cz)).collect();

    // ---- Deterministic tensor-line baseline.
    println!("fitting tensors over {} voxels…", dims.len());
    let tensor_field = TensorField::fit(&dataset.acq, &dataset.dwi);
    let det_params = TrackingParams {
        step_length: 0.2,
        angular_threshold: 0.8,
        max_steps: 600,
        min_fraction: 0.12, // classical FA floor
        interp: InterpMode::Nearest,
    };
    let mut det_crossed = 0;
    let mut det_total = 0;
    for (i, &seed) in seeds.iter().enumerate() {
        if let Some(s) = track_tensorline(&tensor_field, i as u32, seed, &det_params, None, true) {
            det_total += 1;
            let end = s.points.last().copied().unwrap_or(seed);
            let crossed = end.x > cx + 4.0;
            println!(
                "  tensor-line from x={:.0}: {} steps, ended at ({:.1},{:.1}) — {}",
                seed.x,
                s.steps,
                end.x,
                end.y,
                if crossed {
                    "crossed"
                } else {
                    "stopped/deflected at the crossing"
                }
            );
            if crossed {
                det_crossed += 1;
            }
        }
    }

    // ---- Probabilistic two-stick tracking.
    let fiber_mask = dataset.truth.fiber_mask();
    println!("\nrunning MCMC over {} fiber voxels…", fiber_mask.count());
    let cfg = PipelineConfig::fast();
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let samples = run_mcmc_gpu(
        &mut gpu,
        &dataset.acq,
        &dataset.dwi,
        &fiber_mask,
        cfg.prior,
        cfg.chain,
        cfg.seed,
        1,
        None,
    )
    .expect("a fault-free device cannot fail")
    .samples;
    let prob_params = TrackingParams {
        step_length: 0.2,
        angular_threshold: 0.8,
        max_steps: 600,
        min_fraction: 0.05,
        interp: InterpMode::Nearest,
    };
    let tracker = GpuTracker {
        samples: &samples,
        params: prob_params,
        seeds: seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::paper_b(),
        ordering: SeedOrdering::Natural,
        jitter: 0.3,
        run_seed: 5,
        record: RecordMode::Streamlines { min_steps: 0 },
    };
    let out = tracker.run(&mut gpu, 1).output;
    let mut prob_crossed = 0;
    let mut prob_total = 0;
    for s in &out.streamlines {
        if let Some(end) = s.points.last() {
            prob_total += 1;
            if end.x > cx + 4.0 {
                prob_crossed += 1;
            }
        }
    }
    let prob_rate = prob_crossed as f64 / prob_total.max(1) as f64;
    println!(
        "probabilistic: {}/{} streamlines crossed ({} samples × {} seeds) → P(cross) ≈ {:.2}",
        prob_crossed,
        prob_total,
        samples.num_samples(),
        seeds.len(),
        prob_rate
    );

    // The probabilistic tracker both *maintains orientation through* the
    // crossing and *quantifies* the confidence; the tensor baseline gives a
    // single answer per seed with no uncertainty.
    println!("\ndeterministic crossings: {det_crossed}/{det_total} (single answer, no confidence)");
    println!("probabilistic crossing probability: {prob_rate:.2} (a connectivity estimate)");
    assert!(
        prob_rate > 0.5,
        "probabilistic tracking should usually traverse the crossing"
    );
    println!("\nok: the probabilistic multi-fiber pipeline quantifies what the");
    println!("deterministic baseline can only guess at a crossing.");
}
