//! Figure 5 — fiber-length distributions.
//!
//! (a) the length histogram, (b) the "cumulative" distribution `P(L > x)`,
//! (c) the semi-log density, whose straightness "clearly indicates the
//! exponential distribution" (Eq. 4). Fits λ by maximum likelihood and
//! reports KS and semi-log R².

use tracto::gpu_sim::{DeviceConfig, Gpu};
use tracto::stats::ecdf::Ecdf;
use tracto::stats::expfit::{bootstrap_lambda_ci, semilog_fit, ExponentialFit};
use tracto::stats::Histogram;
use tracto::tracking::gpu::{GpuTracker, SeedOrdering};
use tracto::tracking::probabilistic::RecordMode;
use tracto::tracking::SegmentationStrategy;
use tracto_bench::{row_params, tracking_workload, BenchScale, TableWriter};

fn main() {
    let scale = BenchScale::from_env();
    let workload = tracking_workload(1, scale);
    // Step 0.1 at the strict 0.9 threshold (Table II row 1): the
    // curvature-stop hazard dominates, the regime of the Fig. 5 finding.
    let mut params = row_params(0.1, 0.9);
    params.max_steps = 2000;
    let tracker = GpuTracker {
        samples: &workload.samples,
        params,
        seeds: workload.seeds.clone(),
        mask: None,
        strategy: SegmentationStrategy::paper_b(),
        ordering: SeedOrdering::Natural,
        jitter: 0.5,
        run_seed: 42,
        record: RecordMode::LengthsOnly,
    };
    let out = tracker
        .run(&mut Gpu::new(DeviceConfig::radeon_5870()), 1)
        .output;
    let lengths: Vec<f64> = out
        .all_lengths()
        .into_iter()
        .filter(|&l| l > 0)
        .map(f64::from)
        .collect();

    let mut w = TableWriter::new(
        "fig5",
        &format!(
            "Fig. 5: fiber length distribution ({} tracked fibers)",
            lengths.len()
        ),
    );

    let fit = ExponentialFit::fit(&lengths);
    let line = semilog_fit(&lengths, 30);
    let ecdf = Ecdf::new(lengths.clone());
    let hi = ecdf.quantile(0.995);
    let hist = Histogram::from_data(lengths.iter().copied(), 0.0, hi, 24);

    w.line("(a) length histogram (steps):");
    w.line(&hist.render_ascii(48));
    w.line("(b) cumulative distribution P(L > x):");
    for (x, p) in ecdf.ccdf_series(12) {
        w.line(&format!("   P(L > {x:>7.1}) = {p:.4}"));
    }
    w.line("");
    w.line("(c) exponential fit (Eq. 4, p(x;λ) = λ e^{-λx}):");
    let (lo, hi) = bootstrap_lambda_ci(&lengths, 300, 0.05, 42);
    w.line(&format!(
        "   λ̂ (MLE)            = {:.5}  (mean length {:.1} steps; 95% bootstrap CI [{:.5}, {:.5}])",
        fit.lambda,
        fit.mean(),
        lo,
        hi
    ));
    w.line(&format!(
        "   semi-log slope      = {:.5}  (≈ −λ̂ ⇒ straight line in Fig. 5c)",
        line.slope
    ));
    w.line(&format!("   semi-log R²         = {:.4}", line.r_squared));
    w.line(&format!(
        "   KS statistic        = {:.4}  (critical @5%: {:.4})",
        fit.ks_statistic,
        fit.ks_critical(0.05)
    ));
    w.line("");
    w.line("Shape check: the semi-log density is a straight line (R² near 1) and the");
    w.line("MLE rate matches the semi-log slope — fiber lengths are exponential, the");
    w.line("paper's empirical finding enabling the increasing-interval strategy.");
    assert!(
        line.r_squared > 0.8,
        "semi-log R² {} too low",
        line.r_squared
    );
    assert!(
        (line.slope + fit.lambda).abs() / fit.lambda < 0.5,
        "slope {} vs -λ {}",
        line.slope,
        -fit.lambda
    );
    w.save();
}
