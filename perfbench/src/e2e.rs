//! The end-to-end run: a fresh `tracto serve` child process per set-up,
//! driven over two connections (submits on one, pushed events on the
//! other) by one closed loop.

use crate::host::steal_ticks;
use crate::stats::Window;
use crate::workload::Plan;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tracto_proto::{Endpoint, JobState, MetricsWire, Outcome, RemoteService};

/// Longest wait for any single job before the run is failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// The measured phase is cut into this many windows of consecutive
/// completions, each with its own CPU steal count.
pub const WINDOWS: usize = 20;

/// A `tracto serve` child with its own socket, state and cache directories.
pub struct Server {
    child: Child,
    dir: PathBuf,
    endpoint: Endpoint,
}

impl Server {
    /// Spawn the server in a fresh `dir` and connect once it answers.
    pub fn spawn(
        tracto: &Path,
        dir: &Path,
        cache_mb: Option<u64>,
    ) -> Result<(Server, RemoteService), String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        // Relative to the shared working directory: a Unix socket path is
        // limited to ~100 bytes and the checkout may sit deep.
        let endpoint = Endpoint::Unix(dir.join("s.sock"));
        let mut cmd = Command::new(tracto);
        cmd.arg("serve")
            .arg("--listen")
            .arg(endpoint.to_string())
            .arg("--state-dir")
            .arg(dir.join("state"))
            .arg("--cache-dir")
            .arg(dir.join("cache"));
        if let Some(mb) = cache_mb {
            cmd.arg("--cache-mb").arg(mb.to_string());
        }
        let log =
            fs::File::create(dir.join("server.log")).map_err(|e| format!("server log: {e}"))?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(|e| e.to_string())?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", tracto.display()))?;
        let mut server = Server {
            child,
            dir: dir.to_path_buf(),
            endpoint,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(client) = server.connect() {
                return Ok((server, client));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!(
                    "tracto serve exited early ({status}); see {}",
                    server.log()
                ));
            }
            if Instant::now() > deadline {
                return Err("tracto serve did not answer within 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn connect(&self) -> Result<RemoteService, String> {
        RemoteService::connect(&self.endpoint, "perfbench").map_err(|e| e.to_string())
    }

    fn log(&self) -> String {
        self.dir.join("server.log").display().to_string()
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in server status".to_string())
    }

    /// Ask the server to shut down, wait for it to exit, and remove its
    /// directory.
    pub fn stop(mut self, client: &mut RemoteService) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => {
                    return Err(format!(
                        "tracto serve exited with {status}; see {}",
                        self.log()
                    ))
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("tracto serve did not exit within 30 s of shutdown".into()),
                Err(e) => return Err(format!("wait for tracto serve: {e}")),
            }
        }
        let _ = fs::remove_dir_all(&self.dir);
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn a server and run the plan's warm-up jobs on it. Returns the ready
/// server, its submit connection, and the set-up time in seconds.
pub fn set_up(
    plan: &Plan,
    tracto: &Path,
    dir: &Path,
) -> Result<(Server, RemoteService, f64), String> {
    let t0 = Instant::now();
    let (server, mut client) = Server::spawn(tracto, dir, plan.cache_mb)?;
    let ids = plan
        .warmup
        .iter()
        .map(|spec| {
            client
                .submit(spec.clone())
                .map_err(|e| format!("warm-up submit: {e}"))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    for id in ids {
        match client.await_job(id, Some(JOB_TIMEOUT.as_millis() as u64)) {
            Ok(JobState::Done(_)) => {}
            other => return Err(format!("warm-up job {id} did not finish: {other:?}")),
        }
    }
    Ok((server, client, t0.elapsed().as_secs_f64()))
}

/// What one measured job produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackResult {
    pub digest: u64,
    pub total_steps: u64,
}

/// The measured phase's raw observations.
pub struct Measured {
    /// Submit-to-terminal latency of each job, in completion order.
    pub latencies_ms: Vec<f64>,
    pub windows: Vec<Window>,
    pub submit_rtt_us: Vec<f64>,
    /// Per job of the plan's list; `None` for a job that did not complete.
    pub results: Vec<Option<TrackResult>>,
    /// First submit to last terminal event.
    pub span_s: f64,
    pub before: MetricsWire,
    pub after: MetricsWire,
    pub ping_rtt_us: Vec<f64>,
    pub peak_rss_mb: f64,
}

/// Run the plan's job list as a closed loop of `plan.workload.callers()`
/// callers, then sample ping round trips and the server's peak RSS.
pub fn measure(
    plan: &Plan,
    server: &Server,
    client: &mut RemoteService,
) -> Result<Measured, String> {
    let mut events = server.connect()?;
    events
        .subscribe(None)
        .map_err(|e| format!("subscribe: {e}"))?;
    let before = client.metrics().map_err(|e| format!("metrics: {e}"))?;

    let n = plan.jobs.len();
    let mut results = vec![None; n];
    let mut latencies_ms = Vec::with_capacity(n);
    let mut submit_rtt_us = Vec::with_capacity(n);
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
    let mut next = 0usize;
    let mut settled = 0usize;
    let start = Instant::now();
    let mut last_end = start;
    let mut windows = Vec::with_capacity(WINDOWS);
    let (mut window_start, mut window_steal) = (start, steal_ticks());

    let submit = |idx: usize,
                  client: &mut RemoteService,
                  in_flight: &mut HashMap<u64, (usize, Instant)>,
                  rtts: &mut Vec<f64>|
     -> Result<(), String> {
        let spec = plan.recipes[plan.jobs[idx]].clone();
        let t = Instant::now();
        let id = client
            .submit(spec)
            .map_err(|e| format!("submit job {idx}: {e}"))?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
        in_flight.insert(id, (idx, t));
        Ok(())
    };

    while next < n.min(plan.workload.callers()) {
        submit(next, client, &mut in_flight, &mut submit_rtt_us)?;
        next += 1;
    }
    while settled < n {
        let ev = events
            .next_event(Some(JOB_TIMEOUT))
            .map_err(|e| format!("event stream: {e}"))?
            .ok_or_else(|| format!("no terminal event within {JOB_TIMEOUT:?}"))?;
        if !ev.is_terminal() {
            continue;
        }
        let Some((idx, t0)) = in_flight.remove(&ev.job) else {
            continue;
        };
        last_end = Instant::now();
        latencies_ms.push((last_end - t0).as_secs_f64() * 1e3);
        if let JobState::Done(Outcome::Track {
            total_steps,
            lengths_digest,
            ..
        }) = ev.state
        {
            results[idx] = Some(TrackResult {
                digest: lengths_digest,
                total_steps,
            });
        }
        settled += 1;
        if settled == (windows.len() + 1) * n / WINDOWS {
            let steal = steal_ticks();
            windows.push(Window {
                jobs: windows.last().map_or(0, |w: &Window| w.jobs.end)..settled,
                seconds: (last_end - window_start).as_secs_f64(),
                steal: steal.saturating_sub(window_steal),
            });
            (window_start, window_steal) = (last_end, steal);
        }
        if next < n {
            submit(next, client, &mut in_flight, &mut submit_rtt_us)?;
            next += 1;
        }
    }
    let span_s = (last_end - start).as_secs_f64();
    let after = client.metrics().map_err(|e| format!("metrics: {e}"))?;

    let mut ping_rtt_us = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping: {e}"))?;
        ping_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    Ok(Measured {
        latencies_ms,
        windows,
        submit_rtt_us,
        results,
        span_s,
        before,
        after,
        ping_rtt_us,
        peak_rss_mb,
    })
}
