//! End-to-end and per-layer benchmark of the `tracto serve` job service.
//!
//! ```text
//! tracto-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!     --tracto PATH/TO/tracto [--work-dir DIR]
//! ```
//!
//! Prints a host record and a metric table, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). See README.md for the workloads and metrics.

mod e2e;
mod host;
mod stats;
mod traced;
mod workload;

use host::Host;
use stats::{faster_half, median, percentile, ratio, valid_metric_name};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{Plan, Workload};

/// Server set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tracto: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let mut take = |name: &str| map.remove(name).ok_or_else(|| format!("missing --{name}"));
    let num = |name: &str, v: String| v.parse::<u64>().map_err(|e| format!("--{name}: {e}"));
    let args = Args {
        workload: Workload::parse(&take("workload")?)?,
        seed: num("seed", take("seed")?)?,
        seconds: num("seconds", take("seconds")?)?,
        trace: match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
        },
        tracto: take("tracto")?.into(),
        work_dir: take("work-dir")
            .unwrap_or_else(|_| ".bench_run".into())
            .into(),
    };
    match map.keys().next() {
        Some(extra) => Err(format!("unknown flag --{extra}")),
        None => Ok(args),
    }
}

/// One reported number. `clock` is `host` (wall time on this machine),
/// `sim` (the simulated device clock) or `count` (no clock).
struct Metric {
    name: &'static str,
    clock: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, clock: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        clock,
        unit,
        value,
    }
}

/// Everything the correctness gate found wrong.
#[derive(Default)]
struct Gate {
    failed: usize,
    problems: Vec<String>,
}

impl Gate {
    fn fail(&mut self, jobs: usize, problem: String) {
        self.failed += jobs;
        self.problems.push(problem);
    }
}

fn check_results(plan: &Plan, measured: &e2e::Measured, replay: &traced::Replay, gate: &mut Gate) {
    let missing = measured.results.iter().filter(|r| r.is_none()).count();
    if missing > 0 {
        gate.fail(missing, format!("{missing} job(s) did not complete"));
    }
    // Repeats of one recipe must agree, and every replayed recipe must
    // match the in-process Pipeline::run and run_batch_streamed results.
    let mut by_recipe: HashMap<usize, (u64, u64)> = HashMap::new();
    for (i, r) in measured.results.iter().enumerate() {
        let Some(r) = r else { continue };
        let recipe = plan.jobs[i];
        let seen = *by_recipe.entry(recipe).or_insert((r.digest, r.total_steps));
        if seen != (r.digest, r.total_steps) {
            gate.fail(
                1,
                format!("job {i} (recipe {recipe}) disagrees with an earlier repeat"),
            );
        }
    }
    for (source, list) in [
        ("Pipeline::run", &replay.pipeline),
        ("run_batch_streamed", &replay.batch),
    ] {
        for &(recipe, digest, steps) in list.iter() {
            match by_recipe.get(&recipe) {
                Some(&served) if served == (digest, steps) => {}
                served => gate.fail(
                    1,
                    format!(
                        "recipe {recipe}: served {served:?} but {source} gives ({digest}, {steps})"
                    ),
                ),
            }
        }
    }
}

/// Same-work self-check: on the one-in-flight workloads the simulated
/// clock, the launch count and the step total are exact functions of the
/// job list and the program, so a second run of the same job list on the
/// same `tracto` binary must reproduce them bit for bit. The first run's
/// values are kept under the work directory.
fn check_same_work(
    args: &Args,
    plan: &Plan,
    fingerprint: String,
    gate: &mut Gate,
) -> Result<(), String> {
    if plan.workload.callers() != 1 {
        return Ok(());
    }
    let binary =
        fs::read(&args.tracto).map_err(|e| format!("read {}: {e}", args.tracto.display()))?;
    let dir = args.work_dir.join("fingerprints");
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-s{}-plan{:016x}-bin{:016x}.txt",
        plan.workload.name(),
        args.seed,
        plan.digest(),
        tracto_proto::content_digest(&binary)
    ));
    match fs::read_to_string(&path) {
        Ok(earlier) if earlier == fingerprint => {}
        Ok(earlier) => gate.fail(
            0,
            format!("SAME-WORK CHECK FAILED: this run did different work than an earlier run with the same seed\n  earlier: {earlier}\n  now:     {fingerprint}"),
        ),
        Err(_) => fs::write(&path, &fingerprint).map_err(|e| format!("write {}: {e}", path.display()))?,
    }
    Ok(())
}

/// The run's measurements, before they are named as metrics.
#[derive(Default)]
struct Summary {
    warm: bool,
    job_p50_ms: f64,
    job_p90_ms: f64,
    jobs_per_s: f64,
    sim_ms_per_job: f64,
    setup_s: f64,
    server_rss_mb: f64,
    submit_rtt_us: f64,
    ping_rtt_us: f64,
    jobs_per_batch: f64,
    hit_share: f64,
    evictions_per_job: f64,
    estimations_per_job: f64,
    launches_per_job: f64,
    wavefront_util: f64,
    layers: traced::Layers,
}

/// What a user of the service sees, measured with tracing off.
fn end_to_end(s: &Summary) -> Vec<Metric> {
    vec![
        metric("job_p50_ms", "host", "ms", s.job_p50_ms),
        metric("job_p90_ms", "host", "ms", s.job_p90_ms),
        metric("jobs_per_s", "host", "1/s", s.jobs_per_s),
        metric("sim_ms_per_job", "sim", "sim-ms", s.sim_ms_per_job),
        metric("setup_s", "host", "s", s.setup_s),
        metric("server_rss_mb", "count", "MiB", s.server_rss_mb),
    ]
}

/// One number per layer: the server's counters over the measured phase,
/// the client's own round trips, and the traced in-process replay.
fn per_layer(s: &Summary) -> Vec<Metric> {
    let l = &s.layers;
    // Host time of the traced stages a served job passes through; the
    // rest of the job's latency is batch-window wait, queueing and event
    // delivery, which no public entry point exposes.
    let stages_ms = l.codec_us / 1e3
        + l.journal_append_us / 1e3
        + l.batch_ms
        + if s.warm {
            l.cache_get_us / 1e3
        } else {
            l.materialize_ms + l.step1_ms + l.cache_insert_us / 1e3 + l.disk_put_ms
        };
    vec![
        metric("serve.submit_rtt_us", "host", "us", s.submit_rtt_us),
        metric("serve.reactor.ping_rtt_us", "host", "us", s.ping_rtt_us),
        metric(
            "serve.batch.jobs_per_batch",
            "count",
            "count",
            s.jobs_per_batch,
        ),
        metric("serve.cache.hit_share", "count", "ratio", s.hit_share),
        metric(
            "serve.cache.evictions_per_job",
            "count",
            "count",
            s.evictions_per_job,
        ),
        metric(
            "serve.estimations_per_job",
            "count",
            "count",
            s.estimations_per_job,
        ),
        metric(
            "gpusim.launches_per_job",
            "count",
            "count",
            s.launches_per_job,
        ),
        metric("gpusim.wavefront_util", "count", "ratio", s.wavefront_util),
        metric("phantom.materialize_ms", "host", "ms", l.materialize_ms),
        metric("mcmc.step1_ms", "host", "ms", l.step1_ms),
        metric("mcmc.ns_per_voxel_loop", "host", "ns", l.ns_per_voxel_loop),
        metric("mcmc.sim_ms", "sim", "sim-ms", l.mcmc_sim_ms),
        metric("tracking.batch_ms", "host", "ms", l.batch_ms),
        metric("tracking.ns_per_step", "host", "ns", l.ns_per_step),
        metric(
            "gpusim.host_us_per_launch",
            "host",
            "us",
            l.host_us_per_launch,
        ),
        metric("gpusim.sim_kernel_ms", "sim", "sim-ms", l.sim_kernel_ms),
        metric("gpusim.sim_transfer_ms", "sim", "sim-ms", l.sim_transfer_ms),
        metric(
            "gpusim.sim_reduction_ms",
            "sim",
            "sim-ms",
            l.sim_reduction_ms,
        ),
        metric("serve.cache.get_us", "host", "us", l.cache_get_us),
        metric("serve.cache.insert_us", "host", "us", l.cache_insert_us),
        metric("serve.cache.disk_put_ms", "host", "ms", l.disk_put_ms),
        metric("serve.journal.append_us", "host", "us", l.journal_append_us),
        metric("proto.codec_us", "host", "us", l.codec_us),
        metric(
            "serve.unexplained_share",
            "host",
            "ratio",
            1.0 - ratio(stages_ms, s.job_p50_ms),
        ),
    ]
}

fn run(args: &Args) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let plan = workload::plan(args.workload, args.seed, args.seconds);
    let host = Host::probe();
    let run_dir = args.work_dir.join(format!(
        "{}-s{}-p{}",
        plan.workload.name(),
        args.seed,
        std::process::id()
    ));

    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for k in 0..SETUPS {
        let (server, mut client, secs) =
            e2e::set_up(&plan, &args.tracto, &run_dir.join(format!("server{k}")))?;
        setups.push(secs);
        if k + 1 < SETUPS {
            server.stop(&mut client)?;
        } else {
            ready = Some((server, client));
        }
    }
    let (server, mut client) = ready.expect("SETUPS > 0");
    let measured = e2e::measure(&plan, &server, &mut client)?;
    server.stop(&mut client)?;
    let replay = traced::replay(&plan, &run_dir.join("replay"))?;
    let _ = fs::remove_dir_all(&run_dir);

    let n = plan.jobs.len() as f64;
    let (b, a) = (&measured.before, &measured.after);
    let delta = |f: fn(&tracto_proto::MetricsWire) -> u64| (f(a) - f(b)) as f64;
    let sim_ms_per_job =
        ((a.estimation_sim_s - b.estimation_sim_s) + (a.tracking_sim_s - b.tracking_sim_s)) * 1e3
            / n;
    let launches_per_job = delta(|m| m.launches) / n;
    let batches = delta(|m| m.batches);
    let hits = delta(|m| m.cache_hits);
    let hit_share = ratio(hits, hits + delta(|m| m.cache_misses));
    let estimations_per_job = delta(|m| m.estimations_run) / n;

    let mut gate = Gate::default();
    check_results(&plan, &measured, &replay, &mut gate);
    let (want_hits, want_estimations) = if plan.workload.warm() {
        (1.0, 0.0)
    } else {
        (0.0, 1.0)
    };
    if hit_share != want_hits || estimations_per_job != want_estimations {
        gate.fail(
            0,
            format!("cache guard: hit share {hit_share}, estimations per job {estimations_per_job}; want {want_hits} and {want_estimations}"),
        );
    }
    let total_steps: u64 = measured
        .results
        .iter()
        .flatten()
        .map(|r| r.total_steps)
        .sum();
    check_same_work(
        args,
        &plan,
        format!(
            "sim_ms_per_job={:016x} launches_per_job={:016x} total_steps={total_steps}",
            sim_ms_per_job.to_bits(),
            launches_per_job.to_bits()
        ),
        &mut gate,
    )?;

    // Wall-clock figures come from the faster half of the run.
    let fast = faster_half(&measured.windows);
    let latencies: Vec<f64> = fast
        .iter()
        .flat_map(|w| measured.latencies_ms[w.jobs.clone()].iter().copied())
        .collect();
    let fast_s: f64 = fast.iter().map(|w| w.seconds).sum();
    let p50 = percentile(&latencies, 0.5).ok_or("too few jobs for a p50")?;
    let p90 = percentile(&latencies, 0.9).ok_or("too few jobs for a p90")?;
    let failed_share = ratio(gate.failed as f64, n);
    let utilization_sum =
        |m: &tracto_proto::MetricsWire| m.mean_wavefront_utilization * m.batches as f64;
    let summary = Summary {
        warm: plan.workload.warm(),
        job_p50_ms: p50,
        job_p90_ms: p90,
        jobs_per_s: ratio(latencies.len() as f64, fast_s),
        sim_ms_per_job,
        setup_s: median(&setups),
        server_rss_mb: measured.peak_rss_mb,
        submit_rtt_us: median(&measured.submit_rtt_us),
        ping_rtt_us: median(&measured.ping_rtt_us),
        jobs_per_batch: ratio(delta(|m| m.batch_jobs), batches),
        hit_share,
        evictions_per_job: delta(|m| m.cache_evictions) / n,
        estimations_per_job,
        launches_per_job,
        wavefront_util: ratio(utilization_sum(a) - utilization_sum(b), batches),
        layers: replay.layers,
    };
    let metrics = if args.trace {
        per_layer(&summary)
    } else {
        end_to_end(&summary)
    };

    let steal: Vec<u64> = measured.windows.iter().map(|w| w.steal).collect();
    let rates: Vec<String> = measured
        .windows
        .iter()
        .map(|w| format!("{:.1}", w.jobs_per_s()))
        .collect();
    let summary_line = format!(
        "{}: {} jobs, {} failed (failed_share {failed_share}); whole run: p50 {:.3} ms, p90 {:.3} ms, {:.3} jobs/s; per window: jobs/s [{}], steal ticks {steal:?}",
        plan.workload.name(),
        plan.jobs.len(),
        gate.failed,
        percentile(&measured.latencies_ms, 0.5).unwrap_or(0.0),
        percentile(&measured.latencies_ms, 0.9).unwrap_or(0.0),
        ratio(measured.latencies_ms.len() as f64, measured.span_s),
        rates.join(", "),
    );
    write_outputs(args, &host, &replay.spans, &metrics, &summary_line)?;
    for problem in &gate.problems {
        eprintln!("perfbench: {problem}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = gate.problems.is_empty() && finite;
    Ok((correct, plan.jobs.len(), gate.failed, metrics))
}

/// Print the host record, the metric table and the summary line, and keep
/// them (plus the spans of a traced run) under `<work-dir>/out/`.
fn write_outputs(
    args: &Args,
    host: &Host,
    spans: &stats::Recorder,
    metrics: &[Metric],
    summary_line: &str,
) -> Result<(), String> {
    let out = args.work_dir.join("out");
    fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let stem = format!(
        "{}-s{}-t{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let host_json = host.json();
    println!("host {host_json}");
    let mut table = String::new();
    for m in metrics {
        table.push_str(&format!(
            "{:<32} {:>16.6} {:<8} {}\n",
            m.name, m.value, m.unit, m.clock
        ));
    }
    table.push_str(summary_line);
    table.push('\n');
    print!("{table}");
    let write = |path: &Path, text: &str| {
        fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(&out.join(format!("{stem}-host.json")), &host_json)?;
    write(&out.join(format!("{stem}-metrics.txt")), &table)?;
    if args.trace {
        write(&out.join(format!("{stem}-spans.jsonl")), &spans.to_jsonl())?;
    }
    Ok(())
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // A non-finite value already failed the run; keep the line JSON.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            if let Some(bad) = metrics.iter().find(|m| !valid_metric_name(m.name)) {
                eprintln!("perfbench: invalid metric name `{}`", bad.name);
                return ExitCode::FAILURE;
            }
            println!("{}", result_json(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::json::{parse, Json};

    /// `(name, unit)` of every metric BENCHMARK.json declares in `section`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Json::Array(list)) = doc.get(section) else {
            panic!("no `{section}` list");
        };
        list.iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_the_declared_ones_with_valid_names() {
        let summary = Summary::default();
        for (section, metrics) in [
            ("end_to_end", end_to_end(&summary)),
            ("per_layer", per_layer(&summary)),
        ] {
            assert!(metrics.iter().all(|m| valid_metric_name(m.name)));
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, declared(section), "{section}");
        }
    }

    #[test]
    fn result_line_is_json_with_the_required_keys() {
        let line = result_json(true, 3, 0, &[metric("job_p50_ms", "host", "ms", 1.25)]);
        let doc = parse(&line).expect("result line parses");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("job_p50_ms"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
