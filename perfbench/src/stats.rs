//! Percentiles, spans and their fold into per-layer self time.

use std::time::Instant;

/// Samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` in `(0, 1]` of `samples`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it (so a p90 needs at
/// least 100 samples).
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Metric names: `[A-Za-z0-9_.-]`, starting with a letter or digit, at
/// most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A stretch of consecutive job completions in the measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Completion indices (into the latency list) that fall in it.
    pub jobs: std::ops::Range<usize>,
    pub seconds: f64,
    /// CPU steal ticks (time the hypervisor ran other guests) during it.
    pub steal: u64,
}

impl Window {
    pub fn jobs_per_s(&self) -> f64 {
        ratio(self.jobs.len() as f64, self.seconds)
    }
}

/// The faster half of the windows (rounded up; by completions per second,
/// earlier windows first among equals), in time order. Other guests on a
/// shared machine (CPU steal, cache and memory-bandwidth contention) only
/// ever slow a window down, so wall-clock metrics are taken over the
/// faster half of the run: they move with the program and much less with
/// its neighbours.
pub fn faster_half(windows: &[Window]) -> Vec<&Window> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| {
        windows[b]
            .jobs_per_s()
            .total_cmp(&windows[a].jobs_per_s())
            .then(a.cmp(&b))
    });
    order.truncate(windows.len().div_ceil(2));
    order.sort_unstable();
    order.into_iter().map(|i| &windows[i]).collect()
}

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    /// The replayed job (or batch) this span belongs to.
    pub job: u64,
    /// Calls made inside the span; per-call cost is self time / reps.
    pub reps: u32,
}

/// In-memory span store, written out once the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job,
            reps: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Time `reps` calls of `f` as one span and return the last result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: u64,
        reps: u32,
        mut f: impl FnMut(u32) -> T,
    ) -> T {
        let id = self.open(name, parent, job);
        let mut out = f(0);
        for rep in 1..reps {
            out = f(rep);
        }
        self.close(id);
        self.spans[id].reps = reps;
        out
    }

    /// Record an interval the program measured itself, as a child span.
    pub fn record(&mut self, name: &'static str, parent: usize, job: u64, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: Some(parent),
            job,
            reps: 1,
        });
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"job\":{},\"reps\":{}}}\n",
                s.name, s.start, s.end, s.job, s.reps
            ));
        }
        out
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// its interval that its direct children cover (overlapping children are
/// counted once; children are clipped to the parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.max(lo), s.end.min(hi));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Mean over jobs of (self time / reps) for every span named `name`, in
/// nanoseconds; 0 when there is no such span.
pub fn mean_self_ns(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let per_call: Vec<f64> = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(s, &t)| t as f64 / f64::from(s.reps))
        .collect();
    ratio(per_call.iter().sum(), per_call.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_tail() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None, "99 samples cannot support p90");
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(xs.iter().filter(|&&x| x > 90.0).count(), TAIL_SAMPLES);
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs, 0.99), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
            reps: 1,
        }
    }

    #[test]
    fn fold_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 40, Some(0)), // overlaps a: [10, 40) covered once
            span("c", 90, 120, Some(0)), // clipped to the root: [90, 100)
            span("leaf", 12, 18, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn mean_self_divides_by_reps() {
        let mut spans = vec![span("x", 0, 100, None), span("x", 0, 50, None)];
        spans[0].reps = 10;
        let selfs = self_times(&spans);
        assert_eq!(mean_self_ns(&spans, &selfs, "x"), (10.0 + 50.0) / 2.0);
        assert_eq!(mean_self_ns(&spans, &selfs, "missing"), 0.0);
    }

    #[test]
    fn faster_half_keeps_the_fastest_windows_in_time_order() {
        let w = |start: usize, seconds: f64| Window {
            jobs: start..start + 10,
            seconds,
            steal: 0,
        };
        let windows = vec![w(0, 5.0), w(10, 1.0), w(20, 1.0), w(30, 0.5), w(40, 2.0)];
        let kept: Vec<usize> = faster_half(&windows).iter().map(|w| w.jobs.start).collect();
        assert_eq!(kept, vec![10, 20, 30]);
        assert!(faster_half(&[]).is_empty());
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("serve.cache.hit_share"));
        assert!(valid_metric_name("job_p90_ms"));
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name("a/b"));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }
}
