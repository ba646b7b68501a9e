#!/usr/bin/env python3
"""Build `tracto` and the benchmark client from source, then make one run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold_mcmc --seed 1 --seconds 20 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`); servers, spans and
host records go under `.bench_run/`. The client's last line of standard
output is the run's JSON result; build output goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cold_mcmc", "warm_many", "warm_tracking")
# The client's own job timeouts end a stuck run well before this.
RUN_TIMEOUT_S = 170


def build(cmd, env):
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed with code {done.returncode}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "cli"))):
        sys.exit("perfbench: run from the root of a tracto checkout (no Cargo.toml/crates here)")

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build(["cargo", "build", "--release", "--offline", "-p", "tracto-cli"], env)
    build(["cargo", "build", "--release", "--offline", "--manifest-path",
           os.path.join("perfbench", "Cargo.toml")], env)

    cmd = [
        os.path.join(target, "release", "tracto-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--tracto", os.path.join(target, "release", "tracto"),
        "--work-dir", ".bench_run",
    ]
    # A process group of its own, so a timeout can stop the client and the
    # server it spawned together.
    client = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return client.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(client.pid, signal.SIGKILL)
        client.wait()
        sys.exit(f"perfbench: run did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
