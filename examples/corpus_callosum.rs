//! Reconstruct the corpus-callosum-like arc of dataset 2 and export the
//! long fibers — the reproduction of the paper's biological results
//! (Figs. 9, 11, 12): the simulated GPU exports the fibers, and the serial
//! CPU reference checks them (the paper's CPU-vs-GPU identity check).
//!
//! ```sh
//! cargo run --release --example corpus_callosum
//! ```
//!
//! Writes `target/corpus_callosum_fibers.csv` and `.obj` with every
//! reconstructed fiber longer than the length floor (the paper renders
//! "fibers whose length > 100").

use std::fs::File;
use std::io::BufWriter;
use tracto::prelude::*;
use tracto::tracking::cluster::quick_bundles;
use tracto::tracking::export;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::{CpuTracker, RecordMode};

fn main() {
    // Dataset 2 geometry at reduced scale so the example runs in seconds.
    let dataset = DatasetSpec::paper_dataset2()
        .scaled(0.22)
        .light_protocol()
        .build();
    println!(
        "dataset2 (scaled): dims {:?}, {} white-matter voxels",
        dataset.dwi.dims(),
        dataset.valid_voxel_count()
    );

    // Step 1: estimate orientation posteriors over the fiber-bearing region
    // (dilated by using the WM mask restricted to the truth's fiber mask —
    // the arc and its crossings).
    let fiber_mask = dataset.truth.fiber_mask();
    let config = PipelineConfig::fast();
    println!("running MCMC over {} voxels…", fiber_mask.count());
    let mut gpu = Gpu::new(DeviceConfig::radeon_5870());
    let samples = run_mcmc_gpu(
        &mut gpu,
        &dataset.acq,
        &dataset.dwi,
        &fiber_mask,
        config.prior,
        config.chain,
        config.seed,
        1,
        None,
    )
    .expect("a fault-free device cannot fail")
    .samples;

    // Step 2 on the simulated GPU, recording visited voxels and exporting
    // the long fibers, seeded on the arc.
    let seeds = seeds_from_mask(&fiber_mask);
    let params = TrackingParams {
        step_length: 0.2,
        angular_threshold: 0.8,
        max_steps: 1000,
        ..TrackingParams::paper_default()
    };
    let gpu_tracker = GpuTracker {
        samples: &samples,
        params,
        seeds: seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::paper_table2(),
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: config.seed,
        record: RecordMode::Streamlines { min_steps: 100 },
    };
    let gpu_report = gpu_tracker.run(&mut gpu, 1);
    let gpu_out = &gpu_report.output;
    println!(
        "GPU tracking: {} streamlines/sample × {} samples, longest {} steps, simulated {:.2} s",
        seeds.len(),
        samples.num_samples(),
        gpu_out.longest(),
        gpu_report.ledger.total_s()
    );

    // The paper's Fig. 11/12 check: "CPU and GPU results are substantially
    // the same" — here they are identical.
    let cpu_tracker = CpuTracker {
        samples: &samples,
        params,
        seeds,
        mask: None,
        jitter: 0.5,
        run_seed: config.seed,
        bidirectional: false,
    };
    let cpu_out = cpu_tracker.run_serial(RecordMode::Streamlines { min_steps: 100 });
    assert_eq!(
        cpu_out.lengths_by_sample, gpu_out.lengths_by_sample,
        "CPU and GPU fiber lengths must agree exactly"
    );
    assert!(
        cpu_out
            .streamlines
            .iter()
            .zip(&gpu_out.streamlines)
            .all(|(c, g)| c.seed_id == g.seed_id && c.points == g.points)
            && cpu_out.streamlines.len() == gpu_out.streamlines.len(),
        "CPU and GPU fibers must agree exactly"
    );
    println!("CPU ≡ GPU: identical fiber lengths and exported fibers across all samples.");

    // Export the long fibers (the Fig. 11/12 selection).
    let long_fibers = &gpu_out.streamlines;
    let summary = export::summarize(long_fibers);
    println!(
        "fibers with ≥100 steps: {} (mean {:.0} steps, max {})",
        summary.count, summary.mean_steps, summary.max_steps
    );
    std::fs::create_dir_all("target").expect("create target dir");
    let mut csv = BufWriter::new(File::create("target/corpus_callosum_fibers.csv").unwrap());
    export::write_csv(&mut csv, long_fibers).unwrap();
    let mut obj = BufWriter::new(File::create("target/corpus_callosum_fibers.obj").unwrap());
    export::write_obj(&mut obj, long_fibers).unwrap();
    println!("wrote target/corpus_callosum_fibers.csv and .obj");

    // A terminal rendering of the arc (the paper's Fig. 9): MIP of the
    // connectivity map in the x-z plane, where the corpus-callosum-like
    // bundle appears as an arch.
    if let Some(conn) = &gpu_out.connectivity {
        println!("\nconnectivity MIP (x-z plane — the arc):");
        print!(
            "{}",
            tracto::volume::render::mip_ascii(
                &conn.probability_volume(),
                tracto::volume::render::Axis::Y
            )
        );
    }

    // Bundle structure: cluster the long fibers (QuickBundles-style) and
    // report the dominant bundles, as the paper's figures group them.
    let polylines: Vec<Vec<tracto::volume::Vec3>> =
        long_fibers.iter().map(|s| s.points.clone()).collect();
    let bundles = quick_bundles(&polylines, 3.0);
    println!("bundles (MDF threshold 3.0 voxels): {}", bundles.len());
    for (i, b) in bundles.iter().take(3).enumerate() {
        let mid = b.centroid[b.centroid.len() / 2];
        println!(
            "  bundle {i}: {} fibers, centroid mid-point ({:.1},{:.1},{:.1})",
            b.len(),
            mid.x,
            mid.y,
            mid.z
        );
    }
    if let Some(first) = bundles.first() {
        assert!(
            first.len() >= long_fibers.len() / 4,
            "a dominant bundle should emerge"
        );
    }

    // Anatomy check: long fibers should arch across the x extent, like the
    // corpus callosum connecting the hemispheres.
    if let Some(widest) = long_fibers.iter().max_by(|a, b| {
        let span = |s: &tracto::tracking::deterministic::Streamline| {
            let xs: Vec<f64> = s.points.iter().map(|p| p.x).collect();
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().copied().fold(f64::INFINITY, f64::min)
        };
        span(a).partial_cmp(&span(b)).unwrap()
    }) {
        let xs: Vec<f64> = widest.points.iter().map(|p| p.x).collect();
        let span = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "widest fiber spans {:.1} of {} voxels along x (inter-hemispheric arc)",
            span,
            dataset.dwi.dims().nx
        );
    }
}
