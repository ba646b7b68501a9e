//! The `tracto` command-line interface: generate phantoms, estimate
//! posteriors, and run probabilistic tracking from the shell.
//!
//! ```text
//! tracto phantom  --dataset 1 --scale 0.3 --out data/
//! tracto estimate --data data/ --samples 25 --out data/samples/
//! tracto track    --data data/ --samples-dir data/samples/ --strategy B --out data/tract/
//! tracto info     --data data/
//! ```
//!
//! Datasets persist as the workspace's native binary volumes (`dwi.trv4`,
//! `wm_mask.trv3`, six `*.trv4` sample volumes) plus a plain-text protocol
//! file (`acq.txt`: one `bval gx gy gz` row per measurement), so every
//! stage can be rerun, swapped, or inspected independently.
//!
//! Every command accepts the global `--trace FILE` (JSON-lines event log)
//! and `--trace-stderr` (pretty-printed events) flags; failures exit with a
//! typed [`tracto_trace::TractoError`] printed with its cause chain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod store;

use args::ArgMap;
use std::error::Error as _;
use std::path::Path;
use tracto_trace::{JsonlSink, StderrSink, Tracer, TractoError, TractoResult, Value};

/// Top-level usage text.
pub const USAGE: &str = "\
tracto — probabilistic brain fiber tractography (IPDPS-W 2012 reproduction)

USAGE: tracto <COMMAND> [FLAGS]

COMMANDS:
  phantom    generate a synthetic DWI dataset
             --out DIR [--dataset 1|2|single|crossing] [--scale F]
             [--snr F|none] [--seed N] [--light]
  estimate   sample voxelwise fiber-orientation posteriors (MCMC)
             --data DIR --out DIR [--samples N] [--burnin N] [--interval N]
             [--seed N] [--point]
  track      probabilistic streamlining over estimated samples
             --data DIR (--samples-dir DIR | --cache-dir DIR) --out DIR
             [--step F] [--threshold F] [--max-steps N]
             [--strategy B|C|single|every|uniform:K] [--seed N]
             [--min-export-steps N]
             [--modality mcmc|tensorline|analytic]
             [--stop-mask FILE.trv3] [--stop-threshold PCT]
             [--est-samples N] [--est-burnin N] [--est-interval N] [--est-seed N]
             [--devices N] [--fault-plan FILE | --fault-seed N]
             [--checkpoint-every N] [--streams N]
  serve      run the batched job service: replay a job script, listen on a
             socket for remote clients, or both
             (--script FILE | --listen ENDPOINT | both) [--devices N]
             [--workers N] [--max-batch N] [--batch-window-ms N]
             [--strategy B|C|single|every|uniform:K] [--cache-mb N]
             [--cache-dir DIR] [--disk-cache-mb N]
             [--fault-plan FILE | --fault-seed N] [--retry-budget N]
             [--state-dir DIR] [--checkpoint-every N] [--streams N]
             [--approx-low BOOL] [--rate-limit JPS]
  fleet      run a fleet coordinator: route jobs to member servers by
             consistent hash, replicate-aware takeover on host death
             --listen ENDPOINT --members [NAME=]EP,[NAME=]EP,...
             [--heartbeat-ms N] [--max-misses N]
  submit     submit one job to a listening server and wait for its result
             --connect ENDPOINT [--dataset 1|2|single|crossing] [--scale F]
             [--dataset-seed N] [--snr F|none] [--volume HASH] [--estimate]
             [--samples N] [--burnin N] [--interval N] [--seed N]
             [--step F] [--threshold F] [--max-steps N]
             [--modality mcmc|tensorline|analytic] [--stop-threshold PCT]
             [--deadline-ms N] [--priority low|normal|high] [--tenant NAME]
             [--retry-budget N] [--cache rw|ro|bypass]
             [--no-wait] [--follow] [--timeout-ms N]
  loadgen    fire a synthetic or replayed workload at a listening server
             (open-loop pacing; reports sheds, latency percentiles, and
             deadline hit rates per priority and tenant)
             [--connect ENDPOINT] [--replay FILE] [--out FILE]
             [--requests N] [--rate JPS] [--arrivals poisson|burst|uniform]
             [--burst N] [--tenants a:3,b:1] [--priorities low:1,high:1]
             [--repeat F] [--distinct N] [--deadline-ms N]
             [--scale F] [--samples N] [--burnin N] [--seed N]
             [--timeout-ms N]
  upload     upload a stored dataset for remote jobs (server needs
             --state-dir); prints the HASH for submit --volume
             --connect ENDPOINT --data DIR
  await      wait for a remote job (e.g. one recovered after a restart)
             --connect ENDPOINT --job N [--timeout-ms N]
  status     poll a remote job          --connect ENDPOINT --job N
  cancel     cancel a remote job        --connect ENDPOINT --job N
  metrics    print remote service metrics  --connect ENDPOINT
  ping       probe a server's heartbeat (reports its fleet member
             name)  --connect ENDPOINT
  fleet-status
             print a coordinator's member table  --connect ENDPOINT
  shutdown   drain and stop a listening server  --connect ENDPOINT
  replay-faults
             reconstruct a --fault-plan file from a recorded trace
             --trace FILE [--out FILE]
  info       describe a stored dataset
             --data DIR
  render     print an ASCII maximum-intensity projection of a volume
             --volume FILE.trv3 [--axis x|y|z]
  help       print this message

ENDPOINTS: unix:PATH (the default — a bare path works) or tcp:HOST:PORT

GLOBAL FLAGS (any command):
  --trace FILE      append structured events as JSON lines to FILE
                    (for replay-faults, --trace is the input recording)
  --trace-stderr    pretty-print structured events to stderr

REMOTE COMMANDS also accept [--connect-retries N] [--connect-backoff-ms N]
to ride out a server restart (defaults: 3 retries, 20 ms base backoff).
";

/// Build the tracer requested by the global `--trace`/`--trace-stderr`
/// flags (disabled when neither is given).
fn build_tracer(args: &ArgMap) -> TractoResult<Tracer> {
    match (args.get("trace"), args.switch("trace-stderr")) {
        (Some(_), true) => Err(TractoError::config(
            "--trace and --trace-stderr are mutually exclusive",
        )),
        (Some(path), false) => Ok(Tracer::new(JsonlSink::create(Path::new(path))?)),
        (None, true) => Ok(Tracer::new(StderrSink)),
        (None, false) => Ok(Tracer::disabled()),
    }
}

/// Run the CLI with the given arguments (excluding `argv[0]`). Returns the
/// process exit code.
pub fn run(args: &[String]) -> i32 {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let parsed = match ArgMap::parse(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return 2;
        }
    };
    // For `replay-faults`, `--trace FILE` names the *input* recording, not
    // an event sink — building the usual JSONL sink would truncate it.
    let tracer = if command == "replay-faults" {
        if parsed.switch("trace-stderr") {
            Tracer::new(StderrSink)
        } else {
            Tracer::disabled()
        }
    } else {
        match build_tracer(&parsed) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        }
    };
    let span = tracer.span_with(
        "cli.command",
        &[("command", Value::Text(command.to_string()))],
    );
    let result = match command.as_str() {
        "phantom" => commands::phantom::run(&parsed, &tracer),
        "estimate" => commands::estimate::run(&parsed, &tracer),
        "track" => commands::track::run(&parsed, &tracer),
        "serve" => commands::serve::run(&parsed, &tracer),
        "fleet" => commands::fleet::run(&parsed, &tracer),
        "submit" => commands::remote::submit(&parsed, &tracer),
        "loadgen" => commands::loadgen::run(&parsed, &tracer),
        "upload" => commands::remote::upload(&parsed, &tracer),
        "await" => commands::remote::await_job(&parsed, &tracer),
        "status" => commands::remote::status(&parsed, &tracer),
        "cancel" => commands::remote::cancel(&parsed, &tracer),
        "metrics" => commands::remote::metrics(&parsed, &tracer),
        "ping" => commands::remote::ping(&parsed, &tracer),
        "fleet-status" => commands::remote::fleet_status(&parsed, &tracer),
        "shutdown" => commands::remote::shutdown(&parsed, &tracer),
        "info" => commands::info::run(&parsed, &tracer),
        "render" => commands::render::run(&parsed, &tracer),
        "replay-faults" => commands::replay::run(&parsed, &tracer),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(TractoError::config(format!("unknown command `{other}`"))),
    };
    let code = match result {
        Ok(()) => {
            span.end_with(&[("ok", true.into())]);
            0
        }
        Err(e) => {
            if tracer.enabled() {
                tracer.emit(
                    "cli.error",
                    &[
                        ("command", Value::Text(command.to_string())),
                        ("kind", Value::Text(e.kind().to_string())),
                        ("error", Value::Text(e.to_string())),
                    ],
                );
            }
            span.end_with(&[("ok", false.into())]);
            eprintln!("error: {e}");
            let mut source = e.source();
            while let Some(cause) = source {
                eprintln!("  caused by: {cause}");
                source = cause.source();
            }
            1
        }
    };
    tracer.flush();
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_args_prints_usage() {
        assert_eq!(run(&[]), 2);
    }

    #[test]
    fn help_succeeds() {
        assert_eq!(run(&["help".to_string()]), 0);
    }

    #[test]
    fn unknown_command_fails() {
        assert_eq!(run(&["frobnicate".to_string()]), 1);
    }

    #[test]
    fn missing_required_flag_fails() {
        assert_eq!(run(&["info".to_string()]), 1);
    }

    #[test]
    fn conflicting_trace_flags_rejected() {
        let args: Vec<String> = ["help", "--trace", "t.jsonl", "--trace-stderr"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run(&args), 2);
    }
}
