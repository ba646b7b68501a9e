//! Region-to-region connectivity — the paper's output stage: "the
//! connectivity matrix P, in which P_ij represents the probability that
//! there exists a connection from i to j" (aggregated to regions of
//! interest; the voxel-level matrix at paper scale is ~160 GB).
//!
//! ```sh
//! cargo run --release --example connectivity_matrix
//! ```
//!
//! Uses the crossing phantom: seeds in the west arm of the x bundle should
//! connect east (same bundle) but not north/south (the crossing bundle),
//! because tracking maintains orientation through crossings.

use tracto::prelude::*;
use tracto::tracking::connectivity::RegionConnectivity;
use tracto::tracking::probabilistic::{CpuTracker, RecordMode};

fn main() {
    let dims = Dim3::new(20, 20, 7);
    let dataset = datasets::crossing(dims, 90.0, Some(30.0), 23);
    let fiber_mask = dataset.truth.fiber_mask();
    let cfg = PipelineConfig::fast();

    println!("estimating posteriors over {} voxels…", fiber_mask.count());
    let samples = run_mcmc_gpu(
        &mut Gpu::new(DeviceConfig::radeon_5870()),
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

    // Four arm regions around the crossing center.
    let cx = dims.nx / 2;
    let cy = dims.ny / 2;
    let arm = 4usize;
    let west = Mask::from_fn(dims, |c| c.i < arm && fiber_mask.contains(c));
    let east = Mask::from_fn(dims, |c| c.i >= dims.nx - arm && fiber_mask.contains(c));
    let south = Mask::from_fn(dims, |c| c.j < arm && fiber_mask.contains(c));
    let north = Mask::from_fn(dims, |c| c.j >= dims.ny - arm && fiber_mask.contains(c));
    let names = ["west", "east", "south", "north"];
    let regions = vec![west, east, south, north];
    for (n, r) in names.iter().zip(&regions) {
        println!("region {n}: {} voxels", r.count());
        assert!(r.count() > 0, "region {n} must contain fiber voxels");
    }

    // Track from every region, recording full streamlines so each can be
    // attributed to its seed region. Bidirectional tracking exists only on
    // the serial CPU tracker.
    let params = TrackingParams {
        step_length: 0.25,
        angular_threshold: 0.85,
        max_steps: 800,
        ..TrackingParams::paper_default()
    };
    let mut matrix = RegionConnectivity::new(regions.len());
    for (region_idx, region) in regions.iter().enumerate() {
        let tracker = CpuTracker {
            samples: &samples,
            params,
            seeds: seeds_from_mask(region),
            mask: None,
            jitter: 0.4,
            run_seed: cfg.seed + region_idx as u64,
            bidirectional: true,
        };
        let out = tracker.run_serial(RecordMode::Streamlines { min_steps: 0 });
        for s in &out.streamlines {
            let visited =
                tracto::tracking::ConnectivityAccumulator::voxels_of_path(dims, &s.points);
            matrix.add_streamline(region_idx, &visited, &regions);
        }
    }

    println!("\nP(i → j): fraction of streamlines from region i crossing region j");
    print!("{:>8}", "");
    for n in names {
        print!("{n:>8}");
    }
    println!();
    for (i, ni) in names.iter().enumerate() {
        print!("{ni:>8}");
        for j in 0..names.len() {
            print!("{:>8.3}", matrix.probability(i, j));
        }
        println!();
    }

    // The x-bundle connects west↔east far better than west↔north/south.
    let same_bundle = matrix.probability(0, 1);
    let cross_bundle = matrix.probability(0, 2).max(matrix.probability(0, 3));
    println!(
        "\nwest→east {:.3} vs west→(north|south) {:.3}",
        same_bundle, cross_bundle
    );
    assert!(
        same_bundle > cross_bundle,
        "orientation maintenance must keep streamlines on their bundle"
    );
    println!("ok: streamlines maintain orientation through the crossing (cx={cx}, cy={cy}).");
}
