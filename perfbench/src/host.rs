//! The host record kept with every run, so that a run slowed by a noisy
//! neighbour can be identified afterwards.

use std::fs;
use tracto_trace::json::escape_into;

/// The host this run measured on: `nproc`, `rustc -V`, CPU model, and the
/// CPU steal ticks (from `/proc/stat`) accumulated over the run.
pub struct Host {
    nproc: usize,
    rustc: String,
    cpu_model: String,
    steal_start: u64,
}

/// Total CPU steal ticks of all CPUs since boot (0 where unavailable).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.split_whitespace().collect::<Vec<_>>();
            (cpu.first() == Some(&"cpu")).then(|| cpu.get(8)?.parse().ok())?
        })
        .unwrap_or(0)
}

impl Host {
    pub fn probe() -> Host {
        let rustc = std::process::Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_default();
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_default();
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc,
            cpu_model,
            steal_start: steal_ticks(),
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!("{{\"nproc\":{},\"rustc\":", self.nproc);
        escape_into(&mut out, &self.rustc);
        out.push_str(",\"cpu_model\":");
        escape_into(&mut out, &self.cpu_model);
        let steal = steal_ticks().saturating_sub(self.steal_start);
        out.push_str(&format!(",\"steal_ticks\":{steal}}}"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracto_trace::json::{parse, Json};

    #[test]
    fn host_record_is_json() {
        let host = Host {
            nproc: 2,
            rustc: "rustc \"x\"".into(),
            cpu_model: "cpu\tmodel".into(),
            steal_start: 0,
        };
        let doc = parse(&host.json()).expect("host record parses");
        assert_eq!(doc.get("nproc").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("rustc").and_then(Json::as_str), Some("rustc \"x\""));
        assert_eq!(
            doc.get("cpu_model").and_then(Json::as_str),
            Some("cpu\tmodel")
        );
        assert!(doc.get("steal_ticks").and_then(Json::as_f64).is_some());
    }
}
