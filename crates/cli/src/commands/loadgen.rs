//! `tracto loadgen` — trace-driven and synthetic load generation against a
//! live `tracto serve --listen` process.
//!
//! Two sources of work, one pacing engine:
//!
//! * **Synthesis** (default): a deterministic, seeded workload built from
//!   knobs — request count, offered rate, arrival process (Poisson, fixed
//!   bursts, or uniform spacing), a weighted tenant mix, a weighted
//!   priority mix, and a repeat rate that re-submits earlier dataset/seed
//!   pairs so the server's sample cache sees realistic reuse.
//! * **Replay** (`--replay FILE`): a JSON-lines schedule of
//!   `loadgen.request` events, as written by `--out` (or extracted from
//!   any tracto trace that carries such events), fired at the recorded
//!   offsets.
//!
//! Pacing is **open-loop**: every request fires at its scheduled instant
//! whether or not earlier ones have finished, so an overloaded server
//! sees true offered load instead of a closed feedback loop that
//! self-throttles. Shed responses (typed `capacity` errors, including
//! the server's `retry_after_ms` hint) are counted, not retried — the
//! point is to observe the server's overload ladder, not to hide it.
//!
//! Completions are timestamped from a second connection subscribed to
//! pushed events, so per-job latency is measured at settle time rather
//! than at whichever moment a sequential await got around to the job.
//! A peer that does not push events (the fleet coordinator) refuses the
//! subscription with a typed error, so point loadgen at a member.

use crate::args::ArgMap;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::{Duration, Instant};
use tracto_proto::{ChainSpec, DatasetSpec, Endpoint, JobSpec, JobState, Priority, RemoteService};
use tracto_trace::json::{escape_into, parse, Json};
use tracto_trace::{Tracer, TractoError, TractoResult, Value};

const LOADGEN_FLAGS: [&str; 19] = [
    "connect",
    "connect-retries",
    "connect-backoff-ms",
    "replay",
    "out",
    "requests",
    "rate",
    "arrivals",
    "burst",
    "tenants",
    "priorities",
    "repeat",
    "distinct",
    "deadline-ms",
    "scale",
    "samples",
    "burnin",
    "seed",
    "timeout-ms",
];

/// One scheduled submission: fire `spec` at `at` past the run's start.
#[derive(Debug, Clone)]
struct Request {
    at: Duration,
    tenant: String,
    dataset_seed: u64,
    priority: Priority,
    deadline_ms: Option<u64>,
}

/// Deterministic 64-bit LCG (same constants as the service tests) so a
/// `--seed` fully determines the workload.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Parse a weighted mix like `a:3,b:1` (weight defaults to 1) into
/// `(name, weight)` pairs.
fn parse_mix(spec: &str, flag: &str) -> TractoResult<Vec<(String, u64)>> {
    let mut mix = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, weight) = match part.split_once(':') {
            None => (part, 1),
            Some((name, w)) => (
                name,
                w.parse::<u64>().map_err(|_| {
                    TractoError::config(format!("--{flag}: bad weight in `{part}`"))
                })?,
            ),
        };
        if weight == 0 {
            return Err(TractoError::config(format!(
                "--{flag}: weight 0 in `{part}` would never fire"
            )));
        }
        mix.push((name.to_string(), weight));
    }
    if mix.is_empty() {
        return Err(TractoError::config(format!("--{flag}: empty mix `{spec}`")));
    }
    Ok(mix)
}

/// Draw one name from a weighted mix.
fn draw<'a>(mix: &'a [(String, u64)], rng: &mut Lcg) -> &'a str {
    let total: u64 = mix.iter().map(|(_, w)| w).sum();
    let mut roll = rng.next() % total;
    for (name, w) in mix {
        if roll < *w {
            return name;
        }
        roll -= w;
    }
    &mix[mix.len() - 1].0
}

/// Synthesize a schedule from the knob flags.
fn synthesize(args: &ArgMap) -> TractoResult<Vec<Request>> {
    let requests: usize = args.get_parse("requests", 32)?;
    let rate: f64 = args.get_parse("rate", 8.0)?;
    if !(rate.is_finite() && rate > 0.0) {
        return Err(TractoError::config("--rate must be a positive jobs/sec"));
    }
    let arrivals = args.get("arrivals").unwrap_or("poisson");
    let burst: usize = args.get_parse("burst", 4)?;
    let repeat: f64 = args.get_parse("repeat", 0.6)?;
    if !(0.0..=1.0).contains(&repeat) {
        return Err(TractoError::config("--repeat must be in [0, 1]"));
    }
    let distinct: usize = args.get_parse("distinct", 4)?;
    let deadline_ms: u64 = args.get_parse("deadline-ms", 0)?;
    let tenants = parse_mix(args.get("tenants").unwrap_or("default"), "tenants")?;
    let priorities = parse_mix(args.get("priorities").unwrap_or("normal"), "priorities")?;
    let mut rng = Lcg::new(args.get_parse("seed", 1u64)?);
    let mut schedule = Vec::with_capacity(requests);
    let mut t = 0.0f64;
    // The pool of dataset seeds already in play; a repeat re-uses one so
    // the server's sample cache can hit, a fresh draw grows the pool up
    // to `--distinct` distinct datasets.
    let mut pool: Vec<u64> = Vec::new();
    for i in 0..requests {
        match arrivals {
            "poisson" => t += -rng.f64().max(1e-12).ln() / rate,
            "uniform" => t += 1.0 / rate,
            "burst" => {
                // Whole bursts arrive together, spaced so the long-run
                // offered rate still matches `--rate`.
                if i > 0 && i % burst.max(1) == 0 {
                    t += burst.max(1) as f64 / rate;
                }
            }
            other => {
                return Err(TractoError::config(format!(
                    "--arrivals: unknown process `{other}` (poisson|burst|uniform)"
                )))
            }
        }
        let dataset_seed = if !pool.is_empty() && (pool.len() >= distinct || rng.f64() < repeat) {
            pool[rng.below(pool.len())]
        } else {
            let fresh = 100 + pool.len() as u64;
            pool.push(fresh);
            fresh
        };
        let priority = Priority::parse(draw(&priorities, &mut rng))?;
        schedule.push(Request {
            at: Duration::from_secs_f64(t),
            tenant: draw(&tenants, &mut rng).to_string(),
            dataset_seed,
            priority,
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
        });
    }
    Ok(schedule)
}

/// Read a schedule back from a JSON-lines file: every `loadgen.request`
/// event becomes a request; other events are ignored, so a full trace
/// from a previous run replays as-is.
fn read_schedule(path: &str) -> TractoResult<Vec<Request>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| TractoError::io(format!("read schedule {path}"), e))?;
    let mut schedule = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).map_err(|e| {
            TractoError::format(format!("{path}:{}: bad JSON line: {e}", lineno + 1))
        })?;
        if v.get("name").and_then(Json::as_str) != Some("loadgen.request") {
            continue;
        }
        let fields = v
            .get("fields")
            .ok_or_else(|| TractoError::format(format!("{path}:{}: no fields", lineno + 1)))?;
        let num = |name: &str| -> TractoResult<Option<f64>> {
            match fields.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(j) => j.as_f64().map(Some).ok_or_else(|| {
                    TractoError::format(format!(
                        "{path}:{}: field `{name}` is not a number",
                        lineno + 1
                    ))
                }),
            }
        };
        let at_ms = num("at_ms")?.unwrap_or(0.0);
        schedule.push(Request {
            at: Duration::from_millis(at_ms.max(0.0) as u64),
            tenant: fields
                .get("tenant")
                .and_then(Json::as_str)
                .unwrap_or(tracto_proto::DEFAULT_TENANT)
                .to_string(),
            dataset_seed: num("dataset_seed")?.unwrap_or(1.0) as u64,
            priority: Priority::parse(
                fields
                    .get("priority")
                    .and_then(Json::as_str)
                    .unwrap_or("normal"),
            )?,
            deadline_ms: num("deadline_ms")?.map(|v| v as u64),
        });
    }
    if schedule.is_empty() {
        return Err(TractoError::format(format!(
            "{path}: no loadgen.request events to replay"
        )));
    }
    schedule.sort_by_key(|r| r.at);
    Ok(schedule)
}

/// Write a schedule as replayable `loadgen.request` JSON lines.
fn write_schedule(path: &str, schedule: &[Request]) -> TractoResult<()> {
    let mut out = String::new();
    for r in schedule {
        out.push_str("{\"name\":\"loadgen.request\",\"fields\":{\"at_ms\":");
        out.push_str(&(r.at.as_millis() as u64).to_string());
        out.push_str(",\"tenant\":");
        escape_into(&mut out, &r.tenant);
        out.push_str(",\"dataset_seed\":");
        out.push_str(&r.dataset_seed.to_string());
        out.push_str(",\"priority\":\"");
        out.push_str(match r.priority {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        });
        out.push('"');
        if let Some(ms) = r.deadline_ms {
            out.push_str(",\"deadline_ms\":");
            out.push_str(&ms.to_string());
        }
        out.push_str("}}\n");
    }
    let mut file = std::fs::File::create(path)
        .map_err(|e| TractoError::io(format!("create schedule {path}"), e))?;
    file.write_all(out.as_bytes())
        .map_err(|e| TractoError::io(format!("write schedule {path}"), e))
}

/// The wire spec for one scheduled request. The MCMC seed equals the
/// dataset seed so a repeated request shares the server's sample-cache
/// key with its original — and, being fully deterministic, must produce
/// a bit-identical result digest.
fn spec_for(r: &Request, args: &ArgMap) -> TractoResult<JobSpec> {
    let mut spec = JobSpec::track(DatasetSpec {
        kind: "single".to_string(),
        scale: args.get_parse("scale", 0.05)?,
        seed: r.dataset_seed,
        snr: None,
        upload: None,
    });
    spec.chain = ChainSpec {
        burnin: args.get_parse("burnin", 40)?,
        samples: args.get_parse("samples", 3)?,
        interval: 2,
    };
    spec.seed = r.dataset_seed;
    spec.deadline_ms = r.deadline_ms;
    spec.priority = r.priority;
    spec.tenant = r.tenant.clone();
    Ok(spec)
}

#[derive(Default)]
struct TenantTally {
    submitted: u64,
    shed: u64,
}

/// Percentile over an unsorted sample set (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `tracto loadgen [--connect EP] [--replay FILE | synthesis knobs]
/// [--out FILE]`: build or load a schedule, optionally save it, and fire
/// it open-loop at a server, reporting sheds, latency percentiles, and
/// deadline outcomes.
pub fn run(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&LOADGEN_FLAGS)?;
    let schedule = match args.get("replay") {
        Some(path) => read_schedule(path)?,
        None => synthesize(args)?,
    };
    if let Some(path) = args.get("out") {
        write_schedule(path, &schedule)?;
        println!("wrote {} request(s) to {path}", schedule.len());
    }
    let Some(endpoint) = args.get("connect") else {
        if args.get("out").is_none() {
            return Err(TractoError::config(
                "nothing to do: give --connect to fire the workload and/or \
                 --out to save it for replay",
            ));
        }
        return Ok(());
    };
    let endpoint = Endpoint::parse(endpoint)?;
    let retries: u32 = args.get_parse("connect-retries", 3)?;
    let backoff = Duration::from_millis(args.get_parse("connect-backoff-ms", 20)?);
    let timeout_ms: u64 = args.get_parse("timeout-ms", 60_000)?;
    let mut submitter =
        RemoteService::connect_with_retry(&endpoint, "tracto-loadgen", retries, backoff)?;
    // Second connection, subscribed to all jobs *before* the first submit,
    // so every terminal push is timestamped at settle time.
    let mut watcher =
        RemoteService::connect_with_retry(&endpoint, "tracto-loadgen-watch", retries, backoff)?;
    watcher.subscribe(None)?;
    tracer.emit(
        "loadgen.start",
        &[
            ("requests", Value::U64(schedule.len() as u64)),
            ("endpoint", Value::Text(endpoint.to_string())),
        ],
    );

    // Open-loop pacing: sleep to each request's offset, fire, move on.
    struct InFlight {
        submitted_at: Instant,
        deadline_ms: Option<u64>,
        priority: Priority,
    }
    let mut in_flight: BTreeMap<u64, InFlight> = BTreeMap::new();
    let mut tenants: BTreeMap<String, TenantTally> = BTreeMap::new();
    let mut shed = 0u64;
    let mut shed_hinted = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut hits = BTreeMap::from([(Priority::Low, (0u64, 0u64))]);
    hits.insert(Priority::Normal, (0, 0));
    hits.insert(Priority::High, (0, 0));
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut expired = 0u64;
    let mut shed_in_batch = 0u64;
    let mut settle =
        |state: &JobState, info: &InFlight, latencies: &mut Vec<u64>, settled_at: Instant| {
            let latency_ms = settled_at.duration_since(info.submitted_at).as_millis() as u64;
            match state {
                JobState::Done(_) => {
                    completed += 1;
                    latencies.push(latency_ms);
                    if let Some(budget) = info.deadline_ms {
                        let slot = hits.entry(info.priority).or_insert((0, 0));
                        slot.1 += 1;
                        if latency_ms <= budget {
                            slot.0 += 1;
                        }
                    }
                }
                JobState::Failed { kind, .. } => {
                    if kind == "capacity" {
                        shed_in_batch += 1;
                    } else if kind == "deadline" {
                        // An admitted job that blew its deadline is an SLO
                        // miss, not a shed: it stays in the denominator.
                        expired += 1;
                        if info.deadline_ms.is_some() {
                            hits.entry(info.priority).or_insert((0, 0)).1 += 1;
                        }
                    } else {
                        failed += 1;
                    }
                }
                _ => failed += 1,
            }
        };
    let start = Instant::now();
    for r in &schedule {
        let due = start + r.at;
        // Use the pacing gap to drain pushed completions, so latencies are
        // stamped when events arrive rather than after the whole schedule
        // has been offered (which would inflate slow-rate runs).
        loop {
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            match watcher.next_event(Some(left))? {
                None => break,
                Some(ev) if ev.is_terminal() => {
                    if let Some(info) = in_flight.remove(&ev.job) {
                        settle(&ev.state, &info, &mut latencies, Instant::now());
                    }
                }
                Some(_) => {}
            }
        }
        let spec = spec_for(r, args)?;
        let tally = tenants.entry(r.tenant.clone()).or_default();
        tally.submitted += 1;
        match submitter.submit(spec) {
            Ok(job) => {
                in_flight.insert(
                    job,
                    InFlight {
                        submitted_at: Instant::now(),
                        deadline_ms: r.deadline_ms,
                        priority: r.priority,
                    },
                );
            }
            Err(err) if err.kind() == tracto_trace::ErrorKind::Capacity => {
                shed += 1;
                tally.shed += 1;
                if tracto_proto::capacity_retry_after(&err).is_some() {
                    shed_hinted += 1;
                }
                if tracer.enabled() {
                    tracer.emit(
                        "loadgen.shed",
                        &[
                            ("tenant", Value::Text(r.tenant.clone())),
                            ("error", Value::Text(err.to_string())),
                        ],
                    );
                }
            }
            Err(err) => return Err(err),
        }
    }
    let offered_s = start.elapsed().as_secs_f64().max(1e-9);

    // Harvest remaining completions: timestamp each terminal push as it lands.
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    while !in_flight.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match watcher.next_event(Some(left))? {
            None => break,
            Some(ev) if ev.is_terminal() => {
                if let Some(info) = in_flight.remove(&ev.job) {
                    settle(&ev.state, &info, &mut latencies, Instant::now());
                }
            }
            Some(_) => {}
        }
    }
    let unsettled = in_flight.len() as u64;

    latencies.sort_unstable();
    let total = schedule.len() as u64;
    println!(
        "loadgen: {total} request(s) offered over {offered_s:.2}s ({:.1} jobs/s)",
        total as f64 / offered_s
    );
    println!(
        "  submit: {} accepted, {shed} shed at submit ({shed_hinted} with retry hint), \
         {shed_in_batch} shed in batch",
        total - shed
    );
    println!(
        "  settle: {completed} completed, {expired} deadline-expired, {failed} failed, \
         {unsettled} unsettled at timeout"
    );
    if !latencies.is_empty() {
        println!(
            "  latency: p50 {}ms p90 {}ms p99 {}ms max {}ms",
            percentile(&latencies, 50.0),
            percentile(&latencies, 90.0),
            percentile(&latencies, 99.0),
            latencies[latencies.len() - 1]
        );
    }
    for (prio, (hit, total)) in &hits {
        if *total > 0 {
            println!(
                "  deadline[{}]: {hit}/{total} hit ({:.1}%)",
                match prio {
                    Priority::Low => "low",
                    Priority::Normal => "normal",
                    Priority::High => "high",
                },
                100.0 * *hit as f64 / *total as f64
            );
        }
    }
    for (tenant, tally) in &tenants {
        println!(
            "  tenant {tenant}: {} submitted, {} shed",
            tally.submitted, tally.shed
        );
    }
    tracer.emit(
        "loadgen.done",
        &[
            ("requests", Value::U64(total)),
            ("shed", Value::U64(shed + shed_in_batch)),
            ("completed", Value::U64(completed)),
            ("expired", Value::U64(expired)),
            ("failed", Value::U64(failed)),
            ("unsettled", Value::U64(unsettled)),
        ],
    );
    if unsettled > 0 {
        return Err(TractoError::format(format!(
            "{unsettled} job(s) unsettled after {timeout_ms}ms"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argmap(v: &[&str]) -> ArgMap {
        ArgMap::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn tmp_file(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tracto-loadgen-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn synthesis_is_deterministic_and_respects_the_mixes() {
        let args = argmap(&[
            "--requests",
            "64",
            "--rate",
            "100",
            "--tenants",
            "a:3,b:1",
            "--priorities",
            "normal:2,high:1",
            "--repeat",
            "0.5",
            "--distinct",
            "3",
            "--deadline-ms",
            "500",
            "--seed",
            "9",
        ]);
        let one = synthesize(&args).unwrap();
        let two = synthesize(&args).unwrap();
        assert_eq!(one.len(), 64);
        for (x, y) in one.iter().zip(&two) {
            assert_eq!(x.at, y.at, "same seed, same schedule");
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.dataset_seed, y.dataset_seed);
        }
        let tenants: std::collections::BTreeSet<&str> =
            one.iter().map(|r| r.tenant.as_str()).collect();
        assert!(tenants.contains("a") && tenants.contains("b"));
        let distinct: std::collections::BTreeSet<u64> =
            one.iter().map(|r| r.dataset_seed).collect();
        assert!(distinct.len() <= 3, "pool is capped by --distinct");
        assert!(one.iter().all(|r| r.deadline_ms == Some(500)));
        assert!(one.iter().any(|r| r.priority == Priority::High));
        // Arrival offsets are nondecreasing (open-loop schedule).
        assert!(one.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn burst_arrivals_group_requests() {
        let args = argmap(&[
            "--requests",
            "8",
            "--rate",
            "4",
            "--arrivals",
            "burst",
            "--burst",
            "4",
        ]);
        let schedule = synthesize(&args).unwrap();
        assert_eq!(
            schedule[0].at, schedule[3].at,
            "first burst is simultaneous"
        );
        assert!(schedule[4].at > schedule[3].at, "next burst is spaced");
        assert_eq!(schedule[4].at, schedule[7].at);
    }

    #[test]
    fn schedules_round_trip_through_the_jsonl_format() {
        let path = tmp_file("roundtrip");
        let args = argmap(&[
            "--requests",
            "12",
            "--tenants",
            "lab-a:1,lab-b:1",
            "--deadline-ms",
            "250",
            "--priorities",
            "low:1,high:1",
        ]);
        let schedule = synthesize(&args).unwrap();
        write_schedule(path.to_str().unwrap(), &schedule).unwrap();
        let replayed = read_schedule(path.to_str().unwrap()).unwrap();
        assert_eq!(replayed.len(), schedule.len());
        for (x, y) in schedule.iter().zip(&replayed) {
            assert_eq!(x.at.as_millis(), y.at.as_millis());
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.dataset_seed, y.dataset_seed);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.deadline_ms, y.deadline_ms);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_ignores_unrelated_trace_events() {
        let path = tmp_file("mixed");
        std::fs::write(
            &path,
            concat!(
                "{\"name\":\"serve.batch_done\",\"fields\":{\"jobs\":3}}\n",
                "{\"name\":\"loadgen.request\",\"fields\":{\"at_ms\":5,\"tenant\":\"x\",\
                 \"dataset_seed\":7,\"priority\":\"high\",\"deadline_ms\":100}}\n",
                "{\"name\":\"cli.connected\",\"fields\":{}}\n",
            ),
        )
        .unwrap();
        let schedule = read_schedule(path.to_str().unwrap()).unwrap();
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule[0].tenant, "x");
        assert_eq!(schedule[0].deadline_ms, Some(100));
        assert_eq!(schedule[0].priority, Priority::High);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_knobs_are_config_errors() {
        for flags in [
            vec!["--rate", "0"],
            vec!["--repeat", "1.5"],
            vec!["--arrivals", "fractal"],
            vec!["--tenants", ""],
            vec!["--tenants", "a:0"],
            vec!["--priorities", "urgent"],
        ] {
            let err = synthesize(&argmap(&flags))
                .map(|_| ())
                .expect_err("must fail");
            assert_eq!(err.kind(), tracto_trace::ErrorKind::Config, "{flags:?}");
        }
    }

    #[test]
    fn no_connect_and_no_out_is_an_error() {
        let err = run(&argmap(&[]), &Tracer::disabled()).unwrap_err();
        assert!(err.to_string().contains("--connect"));
    }

    #[test]
    fn out_without_connect_just_writes_the_schedule() {
        let path = tmp_file("outonly");
        let args = argmap(&["--requests", "3", "--out", path.to_str().unwrap()]);
        run(&args, &Tracer::disabled()).unwrap();
        assert!(read_schedule(path.to_str().unwrap()).unwrap().len() == 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn repeats_share_dataset_seeds_for_cache_reuse() {
        let args = argmap(&["--requests", "40", "--repeat", "0.9", "--distinct", "2"]);
        let schedule = synthesize(&args).unwrap();
        let distinct: std::collections::BTreeSet<u64> =
            schedule.iter().map(|r| r.dataset_seed).collect();
        assert!(distinct.len() <= 2);
        assert!(schedule.len() > distinct.len(), "most requests are repeats");
    }
}
