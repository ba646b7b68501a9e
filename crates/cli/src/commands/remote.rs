//! Remote-service commands: `tracto submit | await | status | cancel |
//! upload | metrics | shutdown`, all speaking the `tracto-proto` wire
//! protocol to a `tracto serve --listen` process via `--connect ENDPOINT`.
//!
//! Datasets cross the wire as deterministic phantom recipes, so a remote
//! submission names `(kind, scale, seed, snr)` and the server materializes
//! bit-identical volumes on its side — or as a content hash from
//! `tracto upload` (`--volume HASH`), which ships a real stored dataset
//! to the server once and reuses it by reference.

use crate::args::ArgMap;
use tracto::loaded::encode_trds;
use tracto_proto::{
    CachePolicy, ChainSpec, DatasetSpec, Endpoint, JobKind, JobSpec, JobState, Modality, Outcome,
    Priority, RemoteService, TrackSpec,
};
use tracto_trace::{Tracer, TractoError, TractoResult, Value};

/// Flags every remote command accepts: the endpoint plus the reconnect
/// policy (a restarting server refuses connections while it replays its
/// journal, so the client rides that out with bounded retries).
const CONNECT_FLAGS: [&str; 3] = ["connect", "connect-retries", "connect-backoff-ms"];

const SUBMIT_FLAGS: [&str; 22] = [
    "connect",
    "dataset",
    "scale",
    "dataset-seed",
    "snr",
    "volume",
    "estimate",
    "samples",
    "burnin",
    "interval",
    "seed",
    "step",
    "threshold",
    "max-steps",
    "deadline-ms",
    "priority",
    "no-wait",
    "follow",
    "modality",
    "stop-mask",
    "stop-threshold",
    "tenant",
];

/// Connect and perform the handshake, emitting a trace span for the call.
/// Transient transport failures are retried `--connect-retries` times
/// (default 3) with exponential backoff starting at
/// `--connect-backoff-ms` (default 20).
fn connect(args: &ArgMap, tracer: &Tracer) -> TractoResult<RemoteService> {
    let endpoint = Endpoint::parse(args.required("connect")?)?;
    let retries: u32 = args.get_parse("connect-retries", 3)?;
    let backoff_ms: u64 = args.get_parse("connect-backoff-ms", 20)?;
    let client = RemoteService::connect_with_retry(
        &endpoint,
        "tracto-cli",
        retries,
        std::time::Duration::from_millis(backoff_ms),
    )?;
    tracer.emit(
        "cli.connected",
        &[
            ("endpoint", Value::Text(endpoint.to_string())),
            ("server", Value::Text(client.server_name.clone())),
        ],
    );
    Ok(client)
}

/// The [`CONNECT_FLAGS`] plus a command's own flags, for `reject_unknown`.
fn with_connect_flags<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut flags = CONNECT_FLAGS.to_vec();
    flags.extend_from_slice(extra);
    flags
}

/// Render a job state; returns `Err` for a failed job so the process exits
/// non-zero.
fn report_state(job: u64, state: &JobState) -> TractoResult<()> {
    match state {
        JobState::Pending => {
            println!("job {job}: pending");
            Ok(())
        }
        JobState::Done(Outcome::Estimate { voxels, cache_hit }) => {
            println!("job {job}: done (estimate), {voxels} voxels, cache_hit={cache_hit}");
            Ok(())
        }
        JobState::Done(Outcome::Track {
            total_steps,
            streamlines,
            lengths_digest,
            cache_hit,
            batch_jobs,
            batch_lanes,
        }) => {
            println!(
                "job {job}: done (track), {total_steps} total steps, {streamlines} streamlines, \
                 digest {lengths_digest:016x}, cache_hit={cache_hit}, \
                 batch of {batch_jobs} job(s) / {batch_lanes} lanes"
            );
            Ok(())
        }
        JobState::Failed { kind, message } => Err(TractoError::format(format!(
            "job {job} failed ({kind}): {message}"
        ))),
    }
}

/// Build the wire spec from submit flags.
fn spec_from_args(args: &ArgMap) -> TractoResult<JobSpec> {
    if args.get("stop-mask").is_some() {
        // Mask volumes never cross the wire; remote jobs carry only the
        // percentile and the server derives the mask from its copy of
        // the dataset's mean DWI signal.
        return Err(TractoError::config(
            "--stop-mask is local-only; for remote jobs use --stop-threshold \
             (the server derives the mask from the dataset's mean DWI)",
        ));
    }
    let dataset = if let Some(hash) = args.get("volume") {
        if args.get("dataset").is_some() {
            return Err(TractoError::config(
                "--volume and --dataset are mutually exclusive (an uploaded \
                 volume replaces the phantom recipe)",
            ));
        }
        DatasetSpec::uploaded(hash)
    } else {
        DatasetSpec {
            kind: args.get("dataset").unwrap_or("1").to_string(),
            scale: args.get_parse("scale", 0.25)?,
            seed: args.get_parse("dataset-seed", 7)?,
            snr: match args.get("snr") {
                None => Some(25.0),
                Some("none") => None,
                Some(v) => Some(
                    v.parse()
                        .map_err(|_| TractoError::config(format!("--snr: bad value `{v}`")))?,
                ),
            },
            upload: None,
        }
    };
    let kind = if args.switch("estimate") {
        JobKind::Estimate
    } else {
        let defaults = TrackSpec::default();
        JobKind::Track(TrackSpec {
            step: args.get_parse("step", defaults.step)?,
            threshold: args.get_parse("threshold", defaults.threshold)?,
            max_steps: args.get_parse("max-steps", defaults.max_steps)?,
        })
    };
    let chain_defaults = ChainSpec::default();
    Ok(JobSpec {
        dataset,
        kind,
        chain: ChainSpec {
            burnin: args.get_parse("burnin", chain_defaults.burnin)?,
            samples: args.get_parse("samples", chain_defaults.samples)?,
            interval: args.get_parse("interval", chain_defaults.interval)?,
        },
        seed: args.get_parse("seed", 42)?,
        deadline_ms: args
            .get("deadline-ms")
            .map(|v| {
                v.parse()
                    .map_err(|_| TractoError::config(format!("--deadline-ms: bad value `{v}`")))
            })
            .transpose()?,
        modality: Modality::parse(args.get("modality").unwrap_or("mcmc"))?,
        stop_percentile: args
            .get("stop-threshold")
            .map(|v| {
                v.parse()
                    .map_err(|_| TractoError::config(format!("--stop-threshold: bad value `{v}`")))
            })
            .transpose()?,
        priority: Priority::parse(args.get("priority").unwrap_or("normal"))?,
        retry_budget: args
            .get("retry-budget")
            .map(|v| {
                v.parse()
                    .map_err(|_| TractoError::config(format!("--retry-budget: bad value `{v}`")))
            })
            .transpose()?,
        cache: CachePolicy::parse(args.get("cache").unwrap_or("read-write"))?,
        tenant: args
            .get("tenant")
            .unwrap_or(tracto_proto::DEFAULT_TENANT)
            .to_string(),
    })
}

/// `tracto submit --connect EP [job flags]`: submit one job, and (unless
/// `--no-wait`) block until it finishes. With `--follow`, narrate pushed
/// lifecycle events along the way instead of waiting silently.
pub fn submit(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    let mut flags = with_connect_flags(&SUBMIT_FLAGS);
    flags.extend(["retry-budget", "cache", "timeout-ms"]);
    args.reject_unknown(&flags)?;
    let spec = spec_from_args(args)?;
    let mut client = connect(args, tracer)?;
    let job = client.submit(spec)?;
    println!("submitted job {job}");
    if args.switch("no-wait") {
        return Ok(());
    }
    let timeout_ms = args
        .get("timeout-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| TractoError::config(format!("--timeout-ms: bad value `{v}`")))
        })
        .transpose()?;
    let state = if args.switch("follow") {
        client.follow_job(job, timeout_ms, |ev| println!("job {job}: {}", ev.kind))?
    } else {
        client.await_job(job, timeout_ms)?
    };
    if state == JobState::Pending {
        return Err(TractoError::format(format!(
            "job {job} still pending after {}ms",
            timeout_ms.unwrap_or(0)
        )));
    }
    report_state(job, &state)
}

/// `tracto upload --connect EP --data DIR`: pack a stored dataset
/// directory (`dwi.trv4`, `wm_mask.trv3`, `acq.txt`) into a TRDS container
/// and upload it in chunks, printing the content hash to pass as
/// `submit --volume HASH`. Content-addressed: re-uploading the same data
/// is a cheap no-op, and an interrupted upload resumes where it stopped.
pub fn upload(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&["data"]))?;
    let data = std::path::PathBuf::from(args.required("data")?);
    let (dwi, mask, acq) = crate::store::load_dataset(&data)?;
    let blob = encode_trds(&dwi, &mask, &acq)?;
    let mut client = connect(args, tracer)?;
    let hash = client.upload(&blob)?;
    tracer.emit(
        "cli.uploaded",
        &[
            ("hash", Value::Text(hash.clone())),
            ("bytes", Value::U64(blob.len() as u64)),
        ],
    );
    println!(
        "uploaded {} bytes as volume {hash}\nsubmit against it with: \
         tracto submit --connect {} --volume {hash}",
        blob.len(),
        args.required("connect")?
    );
    Ok(())
}

/// `tracto await --connect EP --job N [--timeout-ms N]`: block until a
/// job finishes (e.g. one recovered from the journal after a restart) and
/// render its outcome exactly like `submit` would have.
pub fn await_job(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&["job", "timeout-ms"]))?;
    let job = args.required("job")?.parse::<u64>().map_err(|_| {
        TractoError::config(format!("--job: bad value `{}`", args.get("job").unwrap()))
    })?;
    let timeout_ms = args
        .get("timeout-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| TractoError::config(format!("--timeout-ms: bad value `{v}`")))
        })
        .transpose()?;
    let mut client = connect(args, tracer)?;
    let state = client.await_job(job, timeout_ms)?;
    if state == JobState::Pending {
        return Err(TractoError::format(format!(
            "job {job} still pending after {}ms",
            timeout_ms.unwrap_or(0)
        )));
    }
    report_state(job, &state)
}

/// `tracto status --connect EP --job N`: poll one job without blocking.
pub fn status(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&["job"]))?;
    let job = args.required("job")?.parse::<u64>().map_err(|_| {
        TractoError::config(format!("--job: bad value `{}`", args.get("job").unwrap()))
    })?;
    let mut client = connect(args, tracer)?;
    let state = client.status(job)?;
    report_state(job, &state)
}

/// `tracto cancel --connect EP --job N`: request cancellation.
pub fn cancel(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&["job"]))?;
    let job = args.required("job")?.parse::<u64>().map_err(|_| {
        TractoError::config(format!("--job: bad value `{}`", args.get("job").unwrap()))
    })?;
    let mut client = connect(args, tracer)?;
    if client.cancel(job)? {
        println!("job {job}: cancelled");
    } else {
        println!("job {job}: already settled, cancel lost the race");
    }
    Ok(())
}

/// `tracto ping --connect EP`: probe a server's heartbeat. A fleet member
/// answers with its member name.
pub fn ping(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&[]))?;
    let mut client = connect(args, tracer)?;
    let member = client.ping()?;
    if member.is_empty() {
        println!(
            "server {} is alive (not a named fleet member)",
            client.server_name
        );
    } else {
        println!(
            "server {} is alive, fleet member `{member}`",
            client.server_name
        );
    }
    Ok(())
}

/// `tracto fleet-status --connect EP`: print a coordinator's member table.
pub fn fleet_status(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&[]))?;
    let mut client = connect(args, tracer)?;
    println!("{}", client.fleet_status()?);
    Ok(())
}

/// `tracto metrics --connect EP`: print the server's metrics snapshot.
pub fn metrics(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&[]))?;
    let mut client = connect(args, tracer)?;
    println!("{}", client.metrics()?);
    Ok(())
}

/// `tracto shutdown --connect EP`: drain the remote service and stop its
/// listener.
pub fn shutdown(args: &ArgMap, tracer: &Tracer) -> TractoResult<()> {
    args.reject_unknown(&with_connect_flags(&[]))?;
    let mut client = connect(args, tracer)?;
    client.drain()?;
    client.shutdown()?;
    println!("server is draining and shutting down");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argmap(v: &[&str]) -> ArgMap {
        ArgMap::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn spec_defaults_match_wire_defaults() {
        let spec = spec_from_args(&argmap(&["--connect", "/tmp/x.sock"])).unwrap();
        assert_eq!(spec, JobSpec::track(DatasetSpec::new("1")));
    }

    #[test]
    fn spec_flags_land_in_the_right_fields() {
        let spec = spec_from_args(&argmap(&[
            "--dataset",
            "crossing",
            "--scale",
            "0.1",
            "--dataset-seed",
            "11",
            "--snr",
            "none",
            "--samples",
            "3",
            "--seed",
            "9",
            "--step",
            "0.2",
            "--deadline-ms",
            "1500",
            "--priority",
            "high",
            "--cache",
            "bypass",
        ]))
        .unwrap();
        assert_eq!(spec.dataset.kind, "crossing");
        assert_eq!(spec.dataset.scale, 0.1);
        assert_eq!(spec.dataset.seed, 11);
        assert_eq!(spec.dataset.snr, None);
        assert_eq!(spec.chain.samples, 3);
        assert_eq!(spec.seed, 9);
        match spec.kind {
            JobKind::Track(t) => assert_eq!(t.step, 0.2),
            JobKind::Estimate => panic!("expected a track job"),
        }
        assert_eq!(spec.deadline_ms, Some(1500));
        assert_eq!(spec.priority, Priority::High);
        assert_eq!(spec.cache, CachePolicy::Bypass);
    }

    #[test]
    fn modality_flags_land_on_the_wire() {
        let spec = spec_from_args(&argmap(&[
            "--modality",
            "analytic",
            "--stop-threshold",
            "90",
        ]))
        .unwrap();
        assert_eq!(spec.modality, Modality::Analytic);
        assert_eq!(spec.stop_percentile, Some(90.0));
        let spec = spec_from_args(&argmap(&[])).unwrap();
        assert_eq!(spec.modality, Modality::Mcmc);
        assert_eq!(spec.stop_percentile, None);
    }

    #[test]
    fn tenant_flag_lands_on_the_wire() {
        let spec = spec_from_args(&argmap(&["--tenant", "lab-a"])).unwrap();
        assert_eq!(spec.tenant, "lab-a");
        let spec = spec_from_args(&argmap(&[])).unwrap();
        assert_eq!(spec.tenant, tracto_proto::DEFAULT_TENANT);
    }

    #[test]
    fn stop_mask_is_rejected_for_remote_jobs() {
        let err = spec_from_args(&argmap(&["--stop-mask", "wm.trv3"]))
            .map(|_| ())
            .expect_err("must fail");
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Config);
        assert!(err.to_string().contains("local-only"));
    }

    #[test]
    fn estimate_switch_selects_estimation() {
        let spec = spec_from_args(&argmap(&["--estimate"])).unwrap();
        assert_eq!(spec.kind, JobKind::Estimate);
    }

    #[test]
    fn bad_values_are_config_errors() {
        for flags in [
            vec!["--priority", "urgent"],
            vec!["--cache", "write-back"],
            vec!["--snr", "loud"],
            vec!["--deadline-ms", "soon"],
        ] {
            let err = spec_from_args(&argmap(&flags))
                .map(|_| ())
                .expect_err("must fail");
            assert_eq!(err.kind(), tracto_trace::ErrorKind::Config, "{flags:?}");
        }
    }

    #[test]
    fn connect_refused_is_typed_io_error() {
        // --connect-retries 0 keeps the failure fast; the error type must
        // survive retry exhaustion either way.
        let args = argmap(&[
            "--connect",
            "/nonexistent/tracto.sock",
            "--job",
            "1",
            "--connect-retries",
            "0",
        ]);
        let err = status(&args, &Tracer::disabled()).unwrap_err();
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Io);
    }

    #[test]
    fn await_accepts_the_connect_retry_flags() {
        // The flag set parses cleanly; the connection itself still fails
        // (nothing listens), which proves the flags reached `connect`.
        let args = argmap(&[
            "--connect",
            "/nonexistent/tracto.sock",
            "--job",
            "3",
            "--timeout-ms",
            "50",
            "--connect-retries",
            "1",
            "--connect-backoff-ms",
            "1",
        ]);
        let err = await_job(&args, &Tracer::disabled()).unwrap_err();
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Io);
    }

    #[test]
    fn await_rejects_submit_only_flags() {
        let args = argmap(&["--connect", "/tmp/x.sock", "--job", "1", "--estimate"]);
        let err = await_job(&args, &Tracer::disabled()).unwrap_err();
        assert_eq!(err.kind(), tracto_trace::ErrorKind::Config);
        assert!(err.to_string().contains("--estimate"));
    }
}
