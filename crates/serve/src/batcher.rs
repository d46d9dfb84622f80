//! Request micro-batcher, run by flat combining on the compute workers.
//!
//! Concurrent `/judge` requests are coalesced into one batched forward
//! pass through the judge MLP without a thread of the batcher's own
//! (flat combining, Hendler et al., SPAA 2010). [`Batcher::submit`] puts
//! the job in the bounded queue and then tries the **combiner** lock. The
//! thread that gets it drains up to `batch_size` queued jobs, judges them
//! and answers every one; then it lets go and re-checks the queue, so a
//! job queued while the lock was held is never stranded. A thread that
//! finds the lock held leaves its job to the holder and waits on its own
//! reply. A request with no company is judged at once by its own worker;
//! under contention, whatever queued while one batch ran rides in the
//! next. `tensor`'s blocked matmul accumulates each output row
//! independently of the batch row count, so a batched row is
//! bit-identical to the single-pair judgement — batching changes
//! latency, never answers.
//!
//! The queue is bounded; a full queue surfaces as backpressure
//! ([`SubmitError::Overloaded`] → 503 + `Retry-After`) instead of
//! unbounded memory growth.
//!
//! Overload protection hooks:
//!
//! - Every job carries its request **deadline**; a drained job whose
//!   deadline already passed is answered [`JobError::Expired`] *before*
//!   the forward pass — no GEMM cycles are spent on an answer nobody is
//!   waiting for. Shutdown drains the queue the same way, so queued
//!   expired jobs get their typed answer instead of a dropped channel.
//! - Each flush reports its size to the [`AdmissionGate`] drain-rate
//!   estimator, which prices the adaptive `Retry-After` hint.
//! - A slow forward pass stalls only the worker holding the combiner; the
//!   jobs queued behind it wait (and expire) in the queue, and the
//!   breaker's latency budget degrades the requests that follow.

use crate::admission::AdmissionGate;
use crate::registry::LoadedModel;
use parallel::{Channel, TrySendError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex, TryLockError};
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

/// The micro-batcher: a bounded queue and a combiner lock, run by the
/// threads that submit to it.
pub struct Batcher {
    queue: Channel<Queued>,
    /// Held by the one submitter currently judging for everyone; guards
    /// the batch buffer it drains into.
    combiner: Mutex<Vec<Queued>>,
    stats: BatchStats,
    batch_size: usize,
    /// Drain-rate sink for the adaptive `Retry-After` estimate.
    admission: Option<Arc<AdmissionGate>>,
}

impl Batcher {
    /// A batcher that judges at most `batch_size` jobs per forward pass
    /// and queues at most `queue_depth` (the backpressure bound). Flush
    /// sizes are reported to `admission` (when given) for drain-rate
    /// tracking. `_deadline` is ignored: no job ever waits for company.
    /// It stays in the signature only because the benchmark crate, whose
    /// definition changes separately, still passes it.
    pub fn new(
        batch_size: usize,
        _deadline: Duration,
        queue_depth: usize,
        admission: Option<Arc<AdmissionGate>>,
    ) -> Self {
        let batch_size = batch_size.max(1);
        Self {
            queue: Channel::bounded(queue_depth.max(1)),
            combiner: Mutex::new(Vec::with_capacity(batch_size)),
            stats: BatchStats::default(),
            batch_size,
            admission,
        }
    }

    /// Flush accounting so far.
    pub fn stats(&self) -> &BatchStats {
        &self.stats
    }

    /// Enqueues a job, then judges the queue if no other thread is
    /// already doing so. On `Ok` the job's answer is on its responder or
    /// will be sent by the thread that holds the combiner.
    pub fn submit(&self, job: JudgeJob) -> Result<(), SubmitError> {
        let queued = Queued {
            job,
            submitted: Instant::now(),
        };
        match self.queue.try_send(queued) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                obs::incr("serve/backpressure_503");
                return Err(SubmitError::Overloaded);
            }
            Err(TrySendError::Closed(_)) => return Err(SubmitError::Closed),
        }
        // A holder re-checks the queue after letting go, so a job queued
        // while the lock was taken is judged by it or by its successor.
        while !self.queue.is_empty() {
            let mut batch = match self.combiner.try_lock() {
                Ok(batch) => batch,
                Err(TryLockError::WouldBlock) => return Ok(()),
                Err(TryLockError::Poisoned(held)) => held.into_inner(),
            };
            self.queue.drain_into(&mut batch, self.batch_size);
            if !batch.is_empty() {
                flush(self, &mut batch);
            }
        }
        Ok(())
    }

    /// Closes the queue and answers every job still in it (expired ones
    /// get their typed `Expired` answer). Waits for a thread that is
    /// judging to finish first.
    pub fn shutdown(&self) {
        self.queue.close();
        let mut batch = self.combiner.lock().unwrap_or_else(|e| e.into_inner());
        while self.queue.drain_into(&mut batch, self.batch_size) > 0 {
            flush(self, &mut batch);
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Judges one collected batch and leaves `batch` empty. Expired jobs are
/// shed first (no forward pass for them); the rest are grouped by model
/// generation so a hot-reload mid-batch never mixes snapshots in one
/// forward pass.
fn flush(batcher: &Batcher, batch: &mut Vec<Queued>) {
    let now = Instant::now();
    // FIFO queue: the first job is the one that waited longest.
    let waited = now.saturating_duration_since(batch[0].submitted);
    obs::observe("serve/batcher_wait_ms", waited.as_secs_f64() * 1e3);
    // Shed and expired jobs drain the queue just like judged ones, so
    // both feed the drain-rate estimate behind `Retry-After`.
    if let Some(gate) = &batcher.admission {
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

    let stats = &batcher.stats;
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
        // A submitter that finds the queue full never reaches the
        // combiner, so test the raw channel bound the submit path relies
        // on.
        let q: Channel<u32> = Channel::bounded(2);
        q.try_send(1).unwrap();
        q.try_send(2).unwrap();
        assert!(matches!(q.try_send(3), Err(TrySendError::Full(3))));
    }

    #[test]
    fn job_error_messages_are_stable() {
        assert_eq!(JobError::Expired.message(), "deadline expired while queued");
        assert_eq!(JobError::Panicked.message(), "judge batch panicked");
    }
}
