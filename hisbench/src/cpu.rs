//! Host-speed calibration for the CPU-bound workloads.
//!
//! On the two-vCPU sandbox this benchmark was sized on, a core's speed
//! drifts by up to 1.5x in regimes lasting from seconds to minutes
//! (README, "Host noise"): identical code gives wall times 20 % apart
//! run to run, wider than any bound the benchmark contract allows. The
//! CPU-bound workloads therefore pin the system under test to one core
//! and sample that core's speed *while* they measure it: a [`Sampler`]
//! thread pinned to the same core times a small fixed kernel every 10 ms
//! (under 1 % of the core). Their times are reported in reference
//! milliseconds: measured time x reference kernel time / mean sampled
//! kernel time.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The core the system under test is pinned to.
pub const SYSTEM_CORE: usize = 0;
/// The core the load generator is pinned to.
pub const GENERATOR_CORE: usize = 1;
/// What one kernel call takes on the sizing box at its quietest, in
/// nanoseconds. It fixes the unit only: verdicts compare ratios.
const REFERENCE_KERNEL_NS: f64 = 68_000.0;
/// Pause between samples.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);
/// Kernel operand shapes: a 24x96 by 96x96 product, the size the
/// training loop multiplies most.
const ROWS: usize = 24;
const INNER: usize = 96;
const COLS: usize = 96;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

fn set_affinity(mask: u64) -> bool {
    // SAFETY: pid 0 addresses the calling thread; `mask` is a live,
    // aligned 8-byte bitmap and `cpusetsize` is its size, which is all
    // sched_setaffinity(2) requires. The kernel intersects the mask with
    // the cores that exist and fails cleanly if none is left.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// `core`. False where the kernel refuses (a one-core container); the
/// caller then runs unpinned and reports the run as unresolved.
pub fn pin_to_core(core: usize) -> bool {
    assert!(core < 64, "the affinity mask holds 64 cores");
    set_affinity(1 << core)
}

/// Lifts the pin: the calling thread may run on any core again.
pub fn unpin() -> bool {
    set_affinity(u64::MAX)
}

/// One small single-precision matrix product written out here, not
/// taken from the repository: the yardstick must not speed up when the
/// code under test does. Throughput-bound like the featurizer's inner
/// loops, which a latency-bound integer chain was measured not to track.
///
/// Never inlined and fixed-size throughout, so the compiler sees the same
/// function whatever surrounds it: inlined into the sampler loop, two
/// builds of the same source vectorised it differently and disagreed by
/// 30 %.
#[inline(never)]
fn product(a: &[f32; ROWS * INNER], b: &[f32; INNER * COLS], c: &mut [f32; ROWS * COLS]) {
    for r in 0..ROWS {
        for k in 0..INNER {
            let x = a[r * INNER + k];
            for j in 0..COLS {
                c[r * COLS + j] += x * b[k * COLS + j];
            }
        }
    }
}

/// Nanoseconds four products take right now.
fn kernel(a: &[f32; ROWS * INNER], b: &[f32; INNER * COLS]) -> f64 {
    let start = Instant::now();
    for _ in 0..4 {
        let mut c = [0f32; ROWS * COLS];
        product(black_box(a), black_box(b), &mut c);
        black_box(c);
    }
    start.elapsed().as_nanos() as f64
}

/// Samples the speed of one core until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Sampler {
    /// Starts sampling on `core`.
    pub fn start(core: usize) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("hisbench-speed".into())
            .spawn(move || {
                pin_to_core(core);
                let a: [f32; ROWS * INNER] = std::array::from_fn(|i| i as f32 * 1e-3);
                let b: [f32; INNER * COLS] = std::array::from_fn(|i| 1.0 - i as f32 * 1e-4);
                let mut samples = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    samples.push(kernel(&a, &b));
                    std::thread::sleep(SAMPLE_EVERY);
                }
                samples
            })
            .expect("spawn speed sampler");
        Self { stop, thread }
    }

    /// Stops sampling and returns the factor that turns a time measured
    /// while sampling into reference time, with the sample count.
    pub fn stop(self) -> (f64, u64) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.thread.join().expect("speed sampler panicked");
        (to_reference(&samples), samples.len() as u64)
    }
}

/// Reference kernel time over the mean sampled kernel time. Work spread
/// evenly over a window takes `work x mean slowdown`, so the mean is the
/// right average; the slowest twentieth of the samples is dropped first,
/// because a sample preempted half-way measured the scheduler.
fn to_reference(kernel_ns: &[f64]) -> f64 {
    if kernel_ns.is_empty() {
        return 1.0;
    }
    let sorted = crate::stats::sorted(kernel_ns.to_vec());
    let kept = &sorted[..(sorted.len() * 19).div_ceil(20)];
    REFERENCE_KERNEL_NS / crate::stats::mean(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_core_at_half_speed_halves_reference_time() {
        let at_reference = vec![REFERENCE_KERNEL_NS; 40];
        let at_half_speed = vec![2.0 * REFERENCE_KERNEL_NS; 40];
        assert!((to_reference(&at_reference) - 1.0).abs() < 1e-12);
        assert!((to_reference(&at_half_speed) - 0.5).abs() < 1e-12);
        assert_eq!(to_reference(&[]), 1.0);
    }

    #[test]
    fn preempted_samples_do_not_count() {
        let mut samples = vec![REFERENCE_KERNEL_NS; 39];
        samples.push(50.0 * REFERENCE_KERNEL_NS);
        assert!((to_reference(&samples) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_sampler_collects_while_it_runs() {
        let sampler = Sampler::start(SYSTEM_CORE);
        std::thread::sleep(Duration::from_millis(60));
        let (factor, n) = sampler.stop();
        assert!(n >= 2, "only {n} samples in 60 ms");
        assert!(factor.is_finite() && factor > 0.0);
    }
}
