//! Stream-aware simulated clock — the Fig. 8 overlap model charged online.
//!
//! The paper's Fig. 8 shows upload / kernel / readback segments of different
//! streams hiding behind each other. [`StreamClock`] reproduces that cost
//! model on the simulated clock: every operation is charged to a *stream*
//! (an ordered chain of dependent segments) and a *resource* (the physical
//! unit that can only do one thing at a time — a GPU's compute engine, its
//! DMA link, the host CPU). A segment starts when both its stream's
//! previous segment has finished **and** its resource is free; it can never
//! start earlier than either, so overlapped schedules reorder *time*, never
//! the order of dependent work.
//!
//! With a single stream every charge starts exactly at the stream's ready
//! time (a resource can never be busy past it), so the clock degenerates to
//! the plain sequential sum of its charges — bit-identical, not merely
//! close. Extra streams can only move segments
//! earlier, which is where the overlap saving comes from.

/// Greedy earliest-start scheduler over streams × resources.
///
/// `serial_s` accumulates what the same charges would have cost on the
/// serialized single-stream path (group charges count their maximum, like
/// the concurrent-device rounds of [`MultiGpu`](crate::MultiGpu)), so
/// `saved_s` is the wall time hidden purely by multi-stream overlap.
#[derive(Debug, Clone, Default)]
pub struct StreamClock {
    stream_ready: Vec<f64>,
    resource_free: Vec<f64>,
    makespan_s: f64,
    serial_s: f64,
}

/// Interval one charge occupied on the simulated timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeSpan {
    /// When the segment started (simulated seconds).
    pub start_s: f64,
    /// When it finished.
    pub end_s: f64,
    /// How much of its duration was hidden behind already-scheduled work
    /// (i.e. did not extend the makespan).
    pub hidden_s: f64,
}

impl ChargeSpan {
    /// Segment duration.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

impl StreamClock {
    /// A fresh clock at t = 0 with no streams or resources yet.
    pub fn new() -> Self {
        StreamClock::default()
    }

    fn ready_slot(&mut self, stream: usize) -> &mut f64 {
        if stream >= self.stream_ready.len() {
            self.stream_ready.resize(stream + 1, 0.0);
        }
        &mut self.stream_ready[stream]
    }

    fn free_slot(&mut self, resource: usize) -> &mut f64 {
        if resource >= self.resource_free.len() {
            self.resource_free.resize(resource + 1, 0.0);
        }
        &mut self.resource_free[resource]
    }

    /// Charge `duration_s` of work on `stream` occupying `resource`.
    ///
    /// The segment starts at `max(stream ready, resource free)`; both are
    /// advanced to its end.
    pub fn charge(&mut self, stream: usize, resource: usize, duration_s: f64) -> ChargeSpan {
        let start = (*self.ready_slot(stream)).max(*self.free_slot(resource));
        let end = start + duration_s;
        *self.ready_slot(stream) = end;
        *self.free_slot(resource) = end;
        let before = self.makespan_s;
        self.makespan_s = self.makespan_s.max(end);
        self.serial_s += duration_s;
        ChargeSpan {
            start_s: start,
            end_s: end,
            hidden_s: (duration_s - (end - before).max(0.0)).max(0.0),
        }
    }

    /// Charge a group of segments that run concurrently on distinct
    /// resources but belong to one stream step — the shape of a
    /// partitioned multi-device kernel round. All segments start together
    /// at `max(stream ready, every listed resource's free time)`; the
    /// stream becomes ready when the slowest finishes.
    ///
    /// `serial_s` counts the group's maximum (the serialized path already
    /// overlapped concurrent devices), so group charges never inflate the
    /// overlap saving.
    pub fn charge_group(&mut self, stream: usize, parts: &[(usize, f64)]) -> ChargeSpan {
        if parts.is_empty() {
            let ready = *self.ready_slot(stream);
            return ChargeSpan {
                start_s: ready,
                end_s: ready,
                hidden_s: 0.0,
            };
        }
        let mut start = *self.ready_slot(stream);
        for &(resource, _) in parts {
            start = start.max(*self.free_slot(resource));
        }
        let mut slowest = 0.0f64;
        for &(resource, duration_s) in parts {
            let end = start + duration_s;
            *self.free_slot(resource) = end;
            slowest = slowest.max(duration_s);
        }
        let end = start + slowest;
        *self.ready_slot(stream) = end;
        let before = self.makespan_s;
        self.makespan_s = self.makespan_s.max(end);
        self.serial_s += slowest;
        ChargeSpan {
            start_s: start,
            end_s: end,
            hidden_s: (slowest - (end - before).max(0.0)).max(0.0),
        }
    }

    /// When `stream`'s last segment finishes (0.0 for an untouched stream).
    pub fn stream_ready_s(&self, stream: usize) -> f64 {
        self.stream_ready.get(stream).copied().unwrap_or(0.0)
    }

    /// When `resource` next becomes free (0.0 for an untouched resource).
    pub fn resource_free_s(&self, resource: usize) -> f64 {
        self.resource_free.get(resource).copied().unwrap_or(0.0)
    }

    /// End of the last segment across all streams — the overlapped wall.
    pub fn makespan_s(&self) -> f64 {
        self.makespan_s
    }

    /// What the same charges cost on the serialized single-stream path.
    pub fn serial_s(&self) -> f64 {
        self.serial_s
    }

    /// Wall time hidden by overlap: `serial − makespan` (≥ 0; exactly 0
    /// when everything ran on one stream).
    pub fn saved_s(&self) -> f64 {
        (self.serial_s - self.makespan_s).max(0.0)
    }

    /// Occupancy ratio `serial / makespan` (≥ 1; 1.0 when serialized).
    pub fn occupancy(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            1.0
        } else {
            self.serial_s / self.makespan_s
        }
    }

    /// Back to t = 0, forgetting all streams and resources.
    pub fn reset(&mut self) {
        self.stream_ready.clear();
        self.resource_free.clear();
        self.makespan_s = 0.0;
        self.serial_s = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_stream_is_sequential_sum() {
        let mut c = StreamClock::new();
        c.charge(0, 0, 1.0);
        c.charge(0, 1, 0.5);
        c.charge(0, 0, 0.25);
        assert_eq!(c.makespan_s(), 1.75);
        assert_eq!(c.serial_s(), 1.75);
        assert_eq!(c.saved_s(), 0.0);
        assert_eq!(c.occupancy(), 1.0);
    }

    #[test]
    fn second_stream_hides_behind_first() {
        let mut c = StreamClock::new();
        // Stream 0: kernel on resource 0 for 1.0s.
        c.charge(0, 0, 1.0);
        // Stream 1: transfer on resource 1 fully hidden behind the kernel.
        let span = c.charge(1, 1, 0.4);
        assert_eq!(span.start_s, 0.0);
        assert_eq!(span.hidden_s, 0.4);
        assert_eq!(c.makespan_s(), 1.0);
        assert!((c.saved_s() - 0.4).abs() < 1e-15);
        // Stream 1's kernel must wait for resource 0.
        let span = c.charge(1, 0, 0.5);
        assert_eq!(span.start_s, 1.0);
        assert_eq!(span.end_s, 1.5);
        assert_eq!(span.hidden_s, 0.0);
        assert_eq!(c.makespan_s(), 1.5);
    }

    #[test]
    fn stream_dependency_chains() {
        let mut c = StreamClock::new();
        c.charge(2, 0, 1.0);
        // Same stream, free resource: still waits for the stream.
        let span = c.charge(2, 1, 1.0);
        assert_eq!(span.start_s, 1.0);
        assert_eq!(c.stream_ready_s(2), 2.0);
        assert_eq!(c.stream_ready_s(0), 0.0);
    }

    #[test]
    fn group_charge_matches_concurrent_round() {
        let mut c = StreamClock::new();
        let span = c.charge_group(0, &[(0, 0.3), (1, 0.7), (2, 0.5)]);
        assert_eq!(span.start_s, 0.0);
        assert_eq!(span.end_s, 0.7);
        assert_eq!(c.makespan_s(), 0.7);
        // Serial view counts the slowest, like the legacy round accounting.
        assert_eq!(c.serial_s(), 0.7);
        // Next round starts when the stream is ready.
        let span = c.charge_group(0, &[(0, 0.2), (1, 0.1)]);
        assert_eq!(span.start_s, 0.7);
        assert!((c.makespan_s() - 0.9).abs() < 1e-15);
    }

    #[test]
    fn group_waits_for_busiest_listed_resource() {
        let mut c = StreamClock::new();
        c.charge(1, 2, 1.0);
        let span = c.charge_group(0, &[(0, 0.3), (2, 0.3)]);
        assert_eq!(span.start_s, 1.0, "resource 2 busy until 1.0");
    }

    #[test]
    fn empty_group_is_noop() {
        let mut c = StreamClock::new();
        c.charge(0, 0, 1.0);
        let span = c.charge_group(0, &[]);
        assert_eq!(span.start_s, 1.0);
        assert_eq!(span.end_s, 1.0);
        assert_eq!(c.makespan_s(), 1.0);
    }

    #[test]
    fn overlap_matches_fig8_two_stream_model() {
        // Two identical jobs of (upload 0.2, kernel 1.0, readback 0.2) on
        // one GPU + one DMA engine: stream 1's upload hides behind stream
        // 0's kernel, the Fig. 8 pipeline. Charges are
        // issued interleaved — submission order is issue order, so a
        // pipelined driver interleaves streams to realize the overlap.
        let mut c = StreamClock::new();
        const GPU: usize = 0;
        const DMA: usize = 1;
        c.charge(0, DMA, 0.2);
        c.charge(1, DMA, 0.2);
        c.charge(0, GPU, 1.0);
        c.charge(1, GPU, 1.0);
        c.charge(0, DMA, 0.2);
        c.charge(1, DMA, 0.2);
        // Serialized: 2 × 1.4 = 2.8. Overlapped: stream 1's upload at 0.2,
        // its kernel waits for the GPU until 1.2, ends 2.2, readback 2.4.
        assert!((c.serial_s() - 2.8).abs() < 1e-15);
        assert!((c.makespan_s() - 2.4).abs() < 1e-15);
        assert!((c.saved_s() - 0.4).abs() < 1e-15);
        assert!(c.occupancy() > 1.0);
    }

    /// Issue `k` identical streams of `(kernel, host)` segments round-robin
    /// by segment, kernels on resource 0 and host work on resource 1.
    fn interleave(segments: &[(f64, f64)], k: usize) -> StreamClock {
        let mut c = StreamClock::new();
        for &(kernel_s, host_s) in segments {
            for stream in 0..k {
                c.charge(stream, 0, kernel_s);
                c.charge(stream, 1, host_s);
            }
        }
        c
    }

    #[test]
    fn single_stream_no_overlap_possible() {
        let c = interleave(&[(1.0, 0.5); 4], 1);
        assert_eq!(c.serial_s(), 6.0);
        assert_eq!(c.makespan_s(), 6.0);
        assert_eq!(c.saved_s(), 0.0);
    }

    #[test]
    fn two_streams_overlap_saves_time() {
        let c = interleave(&[(1.0, 1.0); 4], 2);
        assert_eq!(c.serial_s(), 16.0);
        // Balanced kernels and host work pipeline almost completely:
        // makespan = 8 busy GPU seconds + 1 of pipeline drain.
        assert_eq!(c.makespan_s(), 9.0);
        assert!(c.saved_s() / c.serial_s() > 0.35);
    }

    #[test]
    fn overlap_never_worse_than_sequential() {
        let a = [(0.5, 0.1), (2.0, 0.4), (0.2, 1.0)];
        let b = [(1.0, 1.0), (0.1, 0.1)];
        let mut c = StreamClock::new();
        for i in 0..a.len().max(b.len()) {
            for (stream, segments) in [&a[..], &b[..]].into_iter().enumerate() {
                if let Some(&(kernel_s, host_s)) = segments.get(i) {
                    c.charge(stream, 0, kernel_s);
                    c.charge(stream, 1, host_s);
                }
            }
        }
        assert!((c.serial_s() - 6.4).abs() < 1e-12);
        assert!(c.makespan_s() <= c.serial_s() + 1e-12);
    }

    #[test]
    fn overlap_bounded_by_resource_totals() {
        let c = interleave(&[(1.0, 0.2); 5], 2);
        let gpu_total = 10.0;
        assert!(
            c.makespan_s() >= gpu_total,
            "GPU is the bottleneck resource"
        );
        assert!(c.makespan_s() < c.serial_s());
    }

    #[test]
    fn host_dominated_streams_bottleneck_on_host() {
        let c = interleave(&[(0.1, 1.0); 4], 2);
        assert!(c.makespan_s() >= 8.0, "host resource floor");
        assert!(c.makespan_s() < c.serial_s());
    }

    #[test]
    fn reset_forgets_everything() {
        let mut c = StreamClock::new();
        c.charge(3, 2, 5.0);
        c.reset();
        assert_eq!(c.makespan_s(), 0.0);
        assert_eq!(c.serial_s(), 0.0);
        assert_eq!(c.stream_ready_s(3), 0.0);
        assert_eq!(c.resource_free_s(2), 0.0);
    }
}
