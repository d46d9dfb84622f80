//! Request micro-batcher.
//!
//! Concurrent `/judge` requests are coalesced into one batched forward
//! pass through the judge MLP. The flusher thread blocks for a batch's
//! first job and keeps collecting until the batch is full or the flush
//! window closes — and the window is measured from the **previous flush**,
//! not from the first job. An idle flusher's window closed long ago, so a
//! request with no company is judged at once; under sustained load flushes
//! stay `deadline` apart, exactly the old timer's pace, and everything
//! that arrived in between rides in one batch. No job ever waits longer
//! than it did when the window opened at the first job. `tensor`'s blocked
//! matmul accumulates each output row independently of the batch row
//! count, so a batched row is bit-identical to the single-pair judgement —
//! batching changes latency, never answers.
//!
//! The queue is bounded; a full queue surfaces as backpressure
//! ([`SubmitError::Overloaded`] → 503 + `Retry-After`) instead of
//! unbounded memory growth.
//!
//! Overload protection hooks:
//!
//! - Every job carries its request **deadline**; a collected job whose
//!   deadline already passed is answered [`JobError::Expired`] *before*
//!   the forward pass — no GEMM cycles are spent on an answer nobody is
//!   waiting for. Shutdown drains the queue the same way, so queued
//!   expired jobs get their typed answer instead of a dropped channel.
//! - Each flush reports its size to the [`AdmissionGate`] drain-rate
//!   estimator, which prices the adaptive `Retry-After` hint.
//! - The flusher bumps a **heartbeat** counter every iteration; the
//!   watchdog reads it (together with the queue length) to detect a
//!   stalled flusher and [`Batcher::restart`]s it in place: a replacement
//!   thread takes over the same queue and the superseded thread exits at
//!   its next generation check without holding any job.

use crate::admission::AdmissionGate;
use crate::registry::LoadedModel;
use parallel::{Channel, RecvTimeout, TrySendError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bucket labels of the batch-size distribution, smallest first. Also
/// the suffixes of the `serve/batch_bucket_*` obs counters, so external
/// scrapers (`cluster_gate`) recover the same distribution from `/metrics`.
pub const BATCH_BUCKET_LABELS: [&str; 6] = ["1", "2", "3_4", "5_8", "9_16", "17plus"];

fn bucket_index(batch_len: usize) -> usize {
    match batch_len {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

/// Flush accounting, readable while the batcher runs.
#[derive(Default)]
pub struct BatchStats {
    /// Batched forward passes flushed.
    pub batches: AtomicU64,
    /// Judge jobs across all flushed batches.
    pub jobs: AtomicU64,
    /// Flushes per batch-size bucket (see [`BATCH_BUCKET_LABELS`]).
    pub size_buckets: [AtomicU64; 6],
}

impl BatchStats {
    /// Mean jobs per flushed batch so far (0.0 before the first flush).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches.load(Ordering::Relaxed);
        if batches == 0 {
            return 0.0;
        }
        self.jobs.load(Ordering::Relaxed) as f64 / batches as f64
    }

    /// The batch-size distribution as `(bucket label, flush count)`
    /// pairs, smallest bucket first.
    pub fn size_distribution(&self) -> Vec<(&'static str, u64)> {
        BATCH_BUCKET_LABELS
            .iter()
            .zip(&self.size_buckets)
            .map(|(&label, count)| (label, count.load(Ordering::Relaxed)))
            .collect()
    }
}

/// Why a queued job was answered without a probability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// The request deadline passed while the job was queued: the batcher
    /// shed it before the forward pass. Maps to 504.
    Expired,
    /// The judge forward pass panicked. Maps to 500.
    Panicked,
}

impl JobError {
    /// Human-readable detail for the error response body.
    pub fn message(self) -> &'static str {
        match self {
            JobError::Expired => "deadline expired while queued",
            JobError::Panicked => "judge batch panicked",
        }
    }
}

/// One queued judgement: cached features for both profiles plus the
/// snapshot to judge them with and the channel to answer on.
pub struct JudgeJob {
    /// Model snapshot this request resolved its features against.
    pub model: Arc<LoadedModel>,
    /// `F(ri)`.
    pub fa: Arc<Vec<f32>>,
    /// `F(rj)`.
    pub fb: Arc<Vec<f32>>,
    /// Absolute point after which nobody is waiting for the answer; the
    /// batcher sheds the job instead of judging it. `None` = no deadline.
    pub deadline: Option<Instant>,
    /// Where the probability (or a typed failure) is delivered.
    pub responder: SyncSender<Result<f32, JobError>>,
}

/// Why a job could not be enqueued.
#[derive(Debug)]
pub enum SubmitError {
    /// Queue full — the client should back off and retry.
    Overloaded,
    /// The batcher has shut down.
    Closed,
}

/// A queued job plus when it entered the queue (stamped by
/// [`Batcher::submit`]): `serve/batcher_wait_ms` is measured from it.
struct Queued {
    job: JudgeJob,
    submitted: Instant,
}

/// State shared between the [`Batcher`] handle and its flusher threads.
/// Lives behind one `Arc` so a superseded flusher can keep observing it
/// after a restart replaced it.
struct Core {
    queue: Channel<Queued>,
    stats: BatchStats,
    batch_size: usize,
    /// Least time between the starts of two flushes.
    flush_spacing: Duration,
    /// Bumped by the live flusher every loop iteration; the watchdog's
    /// liveness signal.
    heartbeat: AtomicU64,
    /// Flusher generation: a restart bumps it and the superseded thread
    /// exits at its next check. Starts at 0, so the count of restarts.
    generation: AtomicU64,
    /// Set by shutdown so even a fault-stalled flusher wakes and drains.
    stopping: AtomicBool,
    /// Drain-rate sink for the adaptive `Retry-After` estimate.
    admission: Option<Arc<AdmissionGate>>,
}

/// The micro-batcher: a bounded queue plus one (restartable) flusher
/// thread.
pub struct Batcher {
    core: Arc<Core>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Batcher {
    /// Spawns the flusher. `batch_size` is the flush-on-size threshold,
    /// `deadline` the least time between two flushes (a batch that opens
    /// sooner than that after the previous flush keeps collecting until
    /// then; one that opens later is flushed at once), `queue_depth` the
    /// backpressure bound. Flush sizes are reported to `admission` (when
    /// given) for drain-rate tracking.
    pub fn new(
        batch_size: usize,
        deadline: Duration,
        queue_depth: usize,
        admission: Option<Arc<AdmissionGate>>,
    ) -> Self {
        let core = Arc::new(Core {
            queue: Channel::bounded(queue_depth.max(1)),
            stats: BatchStats::default(),
            batch_size: batch_size.max(1),
            flush_spacing: deadline,
            heartbeat: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            admission,
        });
        let thread = spawn_flusher(Arc::clone(&core), 0);
        Self {
            core,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Flush accounting so far.
    pub fn stats(&self) -> &BatchStats {
        &self.core.stats
    }

    /// Jobs currently queued.
    pub fn queue_len(&self) -> usize {
        self.core.queue.len()
    }

    /// The flusher's liveness counter (bumped every loop iteration).
    pub fn heartbeat(&self) -> u64 {
        self.core.heartbeat.load(Ordering::Relaxed)
    }

    /// How many times the flusher has been restarted in place.
    pub fn restarts(&self) -> u64 {
        self.core.generation.load(Ordering::Relaxed)
    }

    /// Enqueues a job without blocking.
    pub fn submit(&self, job: JudgeJob) -> Result<(), SubmitError> {
        let queued = Queued {
            job,
            submitted: Instant::now(),
        };
        match self.core.queue.try_send(queued) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => {
                obs::incr("serve/backpressure_503");
                Err(SubmitError::Overloaded)
            }
            Err(TrySendError::Closed(_)) => Err(SubmitError::Closed),
        }
    }

    /// Replaces the flusher thread in place: bumps the generation (the
    /// superseded thread exits at its next check without holding any
    /// job) and spawns a fresh flusher on the same queue. Queued jobs
    /// survive; nothing is dropped. Returns the new generation.
    ///
    /// The watchdog calls this when the heartbeat stalls; it is safe to
    /// call even if the old thread is alive (it simply yields).
    pub fn restart(&self) -> u64 {
        let next = self.core.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let handle = spawn_flusher(Arc::clone(&self.core), next);
        let old = {
            let mut slot = self.thread.lock().expect("batcher thread slot poisoned");
            slot.replace(handle)
        };
        // The superseded thread exits on its own; detach rather than
        // join — it may be mid-sleep and restart must not block on it.
        drop(old);
        next
    }

    /// Closes the queue and joins the current flusher (drains queued
    /// jobs first — expired ones get their typed `Expired` answer).
    pub fn shutdown(&self) {
        self.core.stopping.store(true, Ordering::SeqCst);
        self.core.queue.close();
        let handle = self
            .thread
            .lock()
            .expect("batcher thread slot poisoned")
            .take();
        if let Some(t) = handle {
            let _ = t.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spawn_flusher(core: Arc<Core>, generation: u64) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("hisrect-batcher-{generation}"))
        .spawn(move || run(&core, generation))
        .expect("spawn batcher thread")
}

fn run(core: &Core, my_generation: u64) {
    let superseded = || core.generation.load(Ordering::SeqCst) != my_generation;
    let mut batch: Vec<Queued> = Vec::with_capacity(core.batch_size);
    // When the batch being collected must be flushed at the latest. `None`
    // before this thread's first flush: nothing to keep a distance from.
    let mut window_ends: Option<Instant> = None;
    loop {
        if superseded() {
            return;
        }
        // Injected stall (`stall` fault): stop pulling work while holding
        // no job, so the watchdog sees a growing queue and a frozen
        // heartbeat. A restart (generation bump) or shutdown releases us.
        if faultsim::fires(faultsim::FaultKind::BatcherStall) {
            obs::incr("serve/batcher_stall_injected");
            while !superseded() && !core.stopping.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(5));
            }
            if superseded() {
                return;
            }
            // Stopping: fall through and drain the queue normally.
        }
        core.heartbeat.fetch_add(1, Ordering::Relaxed);
        // Block for the batch's first job.
        let Some(first) = core.queue.recv() else {
            return; // closed and drained
        };
        batch.push(first);
        let closed = collect(core, &mut batch, window_ends);
        window_ends = Some(Instant::now() + core.flush_spacing);
        flush(&mut batch, core);
        if closed {
            return;
        }
    }
}

/// Fills `batch` (which holds its first job) with what is queued and, while
/// there is room and `window_ends` lies ahead, with what still arrives.
/// Returns whether the queue closed meanwhile.
fn collect(core: &Core, batch: &mut Vec<Queued>, window_ends: Option<Instant>) -> bool {
    loop {
        let room = core.batch_size - batch.len();
        core.queue.drain_into(batch, room);
        let left = window_ends.map_or(Duration::ZERO, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if batch.len() == core.batch_size || left.is_zero() {
            return false;
        }
        match core.queue.recv_timeout(left) {
            RecvTimeout::Item(queued) => batch.push(queued),
            RecvTimeout::TimedOut => return false,
            RecvTimeout::Closed => return true,
        }
    }
}

/// Judges one collected batch and leaves `batch` empty. Expired jobs are
/// shed first (no forward pass for them); the rest are grouped by model
/// generation so a hot-reload mid-batch never mixes snapshots in one
/// forward pass.
fn flush(batch: &mut Vec<Queued>, core: &Core) {
    let now = Instant::now();
    // FIFO queue: the first job is the one that waited longest.
    let waited = now.saturating_duration_since(batch[0].submitted);
    obs::observe("serve/batcher_wait_ms", waited.as_secs_f64() * 1e3);
    // Shed and expired jobs drain the queue just like judged ones, so
    // both feed the drain-rate estimate behind `Retry-After`.
    if let Some(gate) = &core.admission {
        gate.record_drain(batch.len());
    }
    batch.retain(|queued| {
        let expired = queued.job.deadline.is_some_and(|d| d <= now);
        if expired {
            obs::incr("serve/shed_deadline");
            let _ = queued.job.responder.send(Err(JobError::Expired));
        }
        !expired
    });
    if batch.is_empty() {
        return;
    }

    let stats = &core.stats;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.jobs.fetch_add(batch.len() as u64, Ordering::Relaxed);
    let bucket = bucket_index(batch.len());
    stats.size_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    obs::incr("serve/batches");
    obs::add("serve/batched_requests", batch.len() as u64);
    obs::observe("serve/batch_size", batch.len() as f64);
    // obs counters want 'static names; one per bucket, aligned with
    // BATCH_BUCKET_LABELS.
    const BUCKET_COUNTERS: [&str; 6] = [
        "serve/batch_bucket_1",
        "serve/batch_bucket_2",
        "serve/batch_bucket_3_4",
        "serve/batch_bucket_5_8",
        "serve/batch_bucket_9_16",
        "serve/batch_bucket_17plus",
    ];
    obs::incr(BUCKET_COUNTERS[bucket]);

    // Injected latency (`slow-judge` fault): the whole flush crawls, so
    // in-budget requests blow their latency budget and trip the breaker.
    if faultsim::fires(faultsim::FaultKind::SlowJudge) {
        obs::incr("serve/slow_judge_injected");
        std::thread::sleep(slow_judge_delay());
    }

    let mut groups: Vec<(u64, Vec<JudgeJob>)> = Vec::new();
    for Queued { job, .. } in batch.drain(..) {
        let generation = job.model.generation;
        match groups.iter_mut().find(|(g, _)| *g == generation) {
            Some((_, jobs)) => jobs.push(job),
            None => groups.push((generation, vec![job])),
        }
    }

    for (_, jobs) in groups {
        let service = &jobs[0].model.service;
        let pairs: Vec<(&[f32], &[f32])> = jobs
            .iter()
            .map(|j| (j.fa.as_slice(), j.fb.as_slice()))
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| service.judge_features_batch(&pairs)));
        match result {
            Ok(probs) => {
                for (job, p) in jobs.iter().zip(probs) {
                    let _ = job.responder.send(Ok(p));
                }
            }
            Err(_) => {
                obs::incr("serve/batch_panic");
                for job in &jobs {
                    let _ = job.responder.send(Err(JobError::Panicked));
                }
            }
        }
    }
}

/// How long an injected `slow-judge` fault sleeps. Overridable for tests
/// and the brownout harness via `HISRECT_SLOW_JUDGE_MS`.
fn slow_judge_delay() -> Duration {
    let ms = std::env::var("HISRECT_SLOW_JUDGE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(100);
    Duration::from_millis(ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Batcher plumbing with a real model is exercised via the server
    // integration tests; here we check the contracts that need no model.
    #[test]
    fn full_queue_reports_overloaded() {
        // A batcher whose flusher is effectively stalled: batch_size 1
        // with a huge queue keeps draining, so instead test the raw
        // channel bound the submit path relies on.
        let q: Channel<u32> = Channel::bounded(2);
        q.try_send(1).unwrap();
        q.try_send(2).unwrap();
        assert!(matches!(q.try_send(3), Err(TrySendError::Full(3))));
    }

    #[test]
    fn heartbeat_advances_and_restart_bumps_generation() {
        let b = Batcher::new(4, Duration::from_millis(1), 8, None);
        assert_eq!(b.restarts(), 0);
        let g1 = b.restart();
        assert_eq!(g1, 1);
        let g2 = b.restart();
        assert_eq!(g2, 2);
        assert_eq!(b.restarts(), 2);
        // The live flusher (generation 2) is blocked in recv with an
        // empty queue; shutdown must still join it cleanly.
        b.shutdown();
    }

    #[test]
    fn job_error_messages_are_stable() {
        assert_eq!(JobError::Expired.message(), "deadline expired while queued");
        assert_eq!(JobError::Panicked.message(), "judge batch panicked");
    }
}
