//! Wavefront-level SIMD GPU execution simulator.
//!
//! The paper's contribution is an *execution-scheduling* result: because
//! GPU wavefronts run in lockstep, a kernel whose lanes need wildly
//! different iteration counts (streamlines of exponentially distributed
//! length) wastes hardware, and the fix — segmenting the kernel into
//! launches with increasing iteration budgets — trades that waste against
//! kernel-launch overhead and PCIe transfer cost.
//!
//! No GPU is available in this reproduction, so this crate builds the
//! substrate that exposes exactly those quantities:
//!
//! * [`DeviceConfig`] — wavefront size, compute-unit count, per-iteration
//!   lane cost, kernel-launch overhead, and a PCIe latency/bandwidth model,
//!   with defaults calibrated to the paper's AMD Radeon 5870;
//! * [`SimKernel`] / [`Gpu::launch`] — kernels are Rust closures over
//!   per-lane state, executed **for real** (in parallel via [`par_map`], one
//!   task per wavefront), while simulated time is charged per wavefront as
//!   `max(lane iterations)` — the lockstep rule;
//! * [`TimingLedger`] — accumulated kernel / host-reduction / transfer time,
//!   the three columns of the paper's Tables II and IV;
//! * [`schedule`] — an event trace of the run (the paper's Figs. 3 and 7);
//! * [`stream`] — the CPU–GPU overlap the paper sketches in Fig. 8 as
//!   future work, charged *online* on the simulated clock: every
//!   launch/transfer/reduction names a stream, and per-resource
//!   availability (GPU, DMA link, host CPU) decides how much of it hides
//!   behind other streams' work.
//!
//! Because lanes are mutated by real Rust code, results are bit-identical to
//! a serial CPU execution of the same algorithm — the property the paper
//! demonstrates in its Fig. 11/12 CPU-vs-GPU comparison — while the timing
//! model yields the load-balance economics the tables measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod kernel;
mod ledger;

pub mod fault;
pub mod multi;
pub mod schedule;
pub mod stream;

pub use device::{DeviceConfig, PcieModel};
pub use fault::{DeviceHealth, FaultEvent, FaultKind, FaultPlan};
pub use kernel::{Gpu, LaneStatus, LaunchStats, SimKernel};
pub use ledger::TimingLedger;
pub use multi::MultiGpu;
pub use stream::{ChargeSpan, StreamClock};

use std::sync::{Mutex, OnceLock, PoisonError};

/// Map `items` on up to `available_parallelism()` threads, results in input
/// order. Workers claim the next item from a shared iterator as they free
/// up, as a device hands each wavefront to whichever compute unit is idle;
/// the calling thread works too. At most one item, or one hardware thread,
/// runs inline without spawning. A panicking item panics the caller.
pub fn par_map<I, R, F>(items: I, f: F) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
{
    static THREADS: OnceLock<usize> = OnceLock::new();
    let items = items.into_iter();
    let n = items.len();
    let threads = *THREADS.get_or_init(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    if n <= 1 || threads <= 1 {
        return items.map(f).collect();
    }
    // Each result goes straight into its slot of the one output buffer.
    // Per-worker lists merged at the end would need buffers larger than the
    // output; freeing those raises glibc's mmap threshold, after which a
    // long-running server's large buffers fragment its heap and its peak
    // RSS grows with every job (EXPERIMENTS.md, "Host parallelism on std").
    let shared = Mutex::new((items.enumerate(), Vec::from_iter((0..n).map(|_| None))));
    let work = || {
        let mut finished = None;
        loop {
            let mut guard = shared.lock().unwrap_or_else(PoisonError::into_inner);
            let (queue, slots) = &mut *guard;
            if let Some((i, r)) = finished.take() {
                slots[i] = Some(r);
            }
            let Some((i, item)) = queue.next() else {
                return;
            };
            drop(guard);
            finished = Some((i, f(item)));
        }
    };
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(work)).collect();
        work();
        for worker in workers {
            worker
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p));
        }
    });
    let (_, slots) = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    slots
        .into_iter()
        .map(|r| r.expect("every claimed item stores its result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;
    use std::sync::{mpsc, Mutex};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn range_map_collect_preserves_order() {
        let out = par_map(0..1000usize, |i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let v = [3u64, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(par_map(&v, |&x| x + 1), [4, 2, 5, 2, 6, 10, 3, 7]);
    }

    #[test]
    fn par_chunks_mut_disjoint_and_complete() {
        // 103 = ten full chunks and a short tail; every element is bumped
        // exactly once, so each chunk was visited once.
        let mut v: Vec<u32> = (0..103).collect();
        let lens = par_map(v.chunks_mut(10), |chunk| {
            chunk.iter_mut().for_each(|x| *x += 1);
            chunk.len()
        });
        assert_eq!(lens, [10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 3]);
        assert_eq!(v, (1..104).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        assert!(par_map(Vec::<u8>::new(), |x| x).is_empty());
    }

    #[test]
    fn one_item_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        assert_eq!(par_map([7], |_| thread::current().id()), [caller]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // one hardware thread: everything runs inline
        }
        // Item 0 waits for item 1 to run, which only another thread can do.
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let met = par_map(0..2, |i| match i {
            0 => rx
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(10))
                .is_ok(),
            _ => tx.send(()).is_ok(),
        });
        assert_eq!(met, [true, true], "expected the two items on two threads");
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map(0..64usize, |i| if i == 40 { panic!("item {i}") } else { i })
        });
        let payload = caught.expect_err("the panic must propagate");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 40")
        );
    }
}
