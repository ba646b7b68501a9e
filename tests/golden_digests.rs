//! Checked-in output digests: a few small fixed phantom jobs run through
//! the whole pipeline on the simulated GPU, and their outputs are compared
//! against `tests/golden/digests.json` bit for bit.
//!
//! The identity suites compare two code paths inside one build; this file
//! pins the results across changes. Each job records FNV-1a digests of the
//! six f32 sample volumes, the per-sample streamline lengths and the
//! connectivity counts, plus the raw bits of every simulated-ledger column
//! of both steps (host wall time is not simulated and is left out).
//!
//! A change that alters a result on purpose regenerates the file with
//!
//! ```sh
//! cargo test -q -p tracto --test golden_digests -- --ignored regenerate_golden_digests
//! ```
//!
//! and says why in CHANGES.md.

use tracto::diffusion::NoiseLikelihood;
use tracto::gpu_sim::TimingLedger;
use tracto::prelude::*;
use tracto::volume::Dim3;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/digests.json"
);

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One golden job: a phantom and the pipeline configuration it runs with.
struct Job {
    name: &'static str,
    dataset: fn() -> Dataset,
    streams: usize,
    likelihood: NoiseLikelihood,
    max_sticks: u8,
}

fn single() -> Dataset {
    datasets::single_bundle(Dim3::new(8, 5, 5), Some(20.0), 3)
}

fn crossing() -> Dataset {
    datasets::crossing(Dim3::new(7, 7, 3), 90.0, Some(20.0), 5)
}

fn small_single() -> Dataset {
    datasets::single_bundle(Dim3::new(5, 3, 3), Some(15.0), 9)
}

const JOBS: [Job; 6] = [
    Job {
        name: "single_mcmc_1stream",
        dataset: single,
        streams: 1,
        likelihood: NoiseLikelihood::Gaussian,
        max_sticks: 2,
    },
    Job {
        name: "single_mcmc_2streams",
        dataset: single,
        streams: 2,
        likelihood: NoiseLikelihood::Gaussian,
        max_sticks: 2,
    },
    Job {
        name: "crossing90_mcmc_1stream",
        dataset: crossing,
        streams: 1,
        likelihood: NoiseLikelihood::Gaussian,
        max_sticks: 2,
    },
    Job {
        name: "crossing90_mcmc_2streams",
        dataset: crossing,
        streams: 2,
        likelihood: NoiseLikelihood::Gaussian,
        max_sticks: 2,
    },
    Job {
        name: "single_mcmc_rician",
        dataset: small_single,
        streams: 1,
        likelihood: NoiseLikelihood::Rician,
        max_sticks: 2,
    },
    Job {
        name: "single_mcmc_one_stick",
        dataset: small_single,
        streams: 1,
        likelihood: NoiseLikelihood::Gaussian,
        max_sticks: 1,
    },
];

fn ledger_rows(step: &str, ledger: &TimingLedger, rows: &mut Vec<(String, String)>) {
    let columns = [
        ("kernel_s", ledger.kernel_s.to_bits()),
        ("reduction_s", ledger.reduction_s.to_bits()),
        ("transfer_s", ledger.transfer_s.to_bits()),
        ("launches", ledger.launches),
        ("bytes_h2d", ledger.bytes_h2d),
        ("bytes_d2h", ledger.bytes_d2h),
        ("useful_iterations", ledger.useful_iterations),
        ("charged_iterations", ledger.charged_iterations),
    ];
    for (name, bits) in columns {
        rows.push((format!("{step}.{name}"), format!("{bits:016x}")));
    }
}

/// Run one job and return its `(field, value)` rows in a fixed order.
fn digest_job(job: &Job) -> Vec<(String, String)> {
    let dataset = (job.dataset)();
    let mut config = PipelineConfig::fast();
    config.chain.num_burnin = 150;
    config.chain.num_samples = 5;
    config.chain.sample_interval = 2;
    config.tracking.max_steps = 200;
    config.streams = job.streams;
    config.prior.likelihood = job.likelihood;
    config.prior.max_sticks = job.max_sticks;
    config.seed = 17;
    let outcome = Pipeline::new(config).run(&dataset, Backend::GpuSim(DeviceConfig::radeon_5870()));

    let mut rows = Vec::new();
    let s = &outcome.samples;
    let mut samples = Fnv::new();
    for volume in [&s.f1, &s.f2, &s.th1, &s.ph1, &s.th2, &s.ph2] {
        for v in volume.as_slice() {
            samples.bytes(&v.to_bits().to_le_bytes());
        }
    }
    rows.push(("samples".into(), samples.hex()));

    let mut lengths = Fnv::new();
    for per_sample in &outcome.tracking.lengths_by_sample {
        lengths.bytes(&(per_sample.len() as u64).to_le_bytes());
        for len in per_sample {
            lengths.bytes(&len.to_le_bytes());
        }
    }
    rows.push(("lengths".into(), lengths.hex()));

    let conn = outcome
        .tracking
        .connectivity
        .as_ref()
        .expect("the pipeline records connectivity");
    let mut connectivity = Fnv::new();
    connectivity.bytes(&conn.total_streamlines().to_le_bytes());
    for c in conn.dims().iter() {
        connectivity.bytes(&conn.count(c).to_le_bytes());
    }
    rows.push(("connectivity".into(), connectivity.hex()));

    ledger_rows(
        "mcmc_ledger",
        outcome.mcmc_ledger.as_ref().expect("gpu-sim Step 1 ledger"),
        &mut rows,
    );
    ledger_rows(
        "tracking_ledger",
        outcome
            .tracking_ledger
            .as_ref()
            .expect("gpu-sim Step 2 ledger"),
        &mut rows,
    );
    rows
}

/// The digest file's text: one JSON object per job, one field per line.
fn render() -> String {
    let mut out = String::from("{\n");
    for (k, job) in JOBS.iter().enumerate() {
        out.push_str(&format!("  \"{}\": {{\n", job.name));
        let rows = digest_job(job);
        for (i, (field, value)) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            out.push_str(&format!("    \"{field}\": \"{value}\"{comma}\n"));
        }
        let comma = if k + 1 == JOBS.len() { "" } else { "," };
        out.push_str(&format!("  }}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

#[test]
fn outputs_match_checked_in_digests() {
    let expected = std::fs::read_to_string(GOLDEN).expect("tests/golden/digests.json is readable");
    let actual = render();
    if actual != expected {
        let mut job = "";
        let mut diff = Vec::new();
        for (e, a) in expected.lines().zip(actual.lines()) {
            if a.ends_with('{') {
                job = a.trim();
            }
            if e != a {
                diff.push(format!(
                    "  {job}\n    expected {}\n    actual   {}",
                    e.trim(),
                    a.trim()
                ));
            }
        }
        panic!(
            "golden digests differ ({} line(s)):\n{}\n\
             (regenerate on purpose with `cargo test -q -p tracto --test golden_digests \
             -- --ignored regenerate_golden_digests`)",
            diff.len(),
            diff.join("\n")
        );
    }
}

#[test]
#[ignore = "writes tests/golden/digests.json; run only to re-record on purpose"]
fn regenerate_golden_digests() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN, render()).expect("write tests/golden/digests.json");
}
