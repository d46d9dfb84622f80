//! Admission control ahead of the micro-batcher, and the drain-rate
//! estimate behind every `Retry-After` hint.
//!
//! A **token bucket** (`rate` tokens/s, `burst` capacity) bounds the
//! sustained `/judge` rate; a refused request is answered `503` with a
//! `Retry-After` of the time until the bucket holds a token again. Deep
//! queues need no gate of their own: the connection queue and the judge
//! queue are bounded, and a full one is shed at the door.
//!
//! Those full-queue 503s carry an **adaptive** `Retry-After` derived from
//! the observed drain rate: the batcher reports every flush through
//! [`AdmissionGate::record_drain`], an EWMA of jobs/s is kept, and the
//! hint is "how long until a backlog clears at that pace", clamped to
//! `[1, 30]` seconds. Under a short spike clients come back almost
//! immediately; under a sustained stall they back off hard.
//!
//! The bucket is disabled by default (`rate = 0`): an uncontended server
//! never consults it and behaves exactly as before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Tunables of the admission gate.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Sustained admitted requests per second. `0.0` disables the token
    /// bucket entirely (the default).
    pub rate: f64,
    /// Bucket capacity: how many requests may arrive back-to-back before
    /// the sustained rate applies. Ignored when `rate` is `0.0`.
    pub burst: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            rate: 0.0,
            burst: 0.0,
        }
    }
}

/// Floor of the adaptive `Retry-After` hint, in seconds. Kept at the old
/// hard-coded value so the hint can only get *more* patient, never less.
pub const RETRY_AFTER_FLOOR_SECS: u64 = 1;
/// Ceiling of the adaptive `Retry-After` hint, in seconds.
pub const RETRY_AFTER_CAP_SECS: u64 = 30;

/// EWMA smoothing factor for the drain rate (per flush observation).
const DRAIN_ALPHA: f64 = 0.2;
/// How recently a rejection must have happened for the gate to report
/// itself as shedding, in milliseconds.
const SHED_WINDOW_MS: u64 = 1000;

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

struct DrainEwma {
    /// Smoothed drain rate in jobs per second; 0 until first observation.
    rate: f64,
    last_flush: Instant,
}

/// The gate itself. One per server; shared by every worker thread.
pub struct AdmissionGate {
    cfg: AdmissionConfig,
    bucket: Mutex<Bucket>,
    drain: Mutex<DrainEwma>,
    /// Epoch-less clock base for the shed window.
    started: Instant,
    /// Milliseconds since `started` of the most recent rejection.
    last_shed_ms: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl AdmissionGate {
    /// Builds the gate.
    pub fn new(cfg: AdmissionConfig) -> Self {
        let now = Instant::now();
        Self {
            cfg,
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst.max(1.0),
                last_refill: now,
            }),
            drain: Mutex::new(DrainEwma {
                rate: 0.0,
                last_flush: now,
            }),
            started: now,
            last_shed_ms: AtomicU64::new(u64::MAX),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The configuration the gate runs under.
    pub fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    /// Decides whether a request may proceed. `Err(secs)` carries the
    /// `Retry-After` hint: the time until the bucket holds a token again.
    pub fn admit(&self) -> Result<(), u64> {
        if self.cfg.rate > 0.0 {
            let mut bucket = self.bucket.lock().expect("admission bucket poisoned");
            let now = Instant::now();
            let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
            bucket.last_refill = now;
            bucket.tokens = (bucket.tokens + elapsed * self.cfg.rate).min(self.cfg.burst.max(1.0));
            if bucket.tokens < 1.0 {
                let refill_secs = (1.0 - bucket.tokens) / self.cfg.rate;
                drop(bucket);
                return Err(self.reject(refill_secs));
            }
            bucket.tokens -= 1.0;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn reject(&self, refill_secs: f64) -> u64 {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        let since_start = self.started.elapsed().as_millis() as u64;
        self.last_shed_ms.store(since_start, Ordering::Relaxed);
        obs::incr("serve/shed_admission");
        (refill_secs.ceil() as u64).clamp(RETRY_AFTER_FLOOR_SECS, RETRY_AFTER_CAP_SECS)
    }

    /// The batcher reports each flush: `n` jobs answered. Feeds the EWMA
    /// drain-rate estimate the `Retry-After` hint is derived from.
    pub fn record_drain(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut drain = self.drain.lock().expect("admission drain poisoned");
        let now = Instant::now();
        let dt = now.duration_since(drain.last_flush).as_secs_f64().max(1e-6);
        drain.last_flush = now;
        let observed = n as f64 / dt;
        drain.rate = if drain.rate == 0.0 {
            observed
        } else {
            DRAIN_ALPHA * observed + (1.0 - DRAIN_ALPHA) * drain.rate
        };
    }

    /// The smoothed drain rate in jobs/s (0 before the first flush).
    pub fn drain_rate(&self) -> f64 {
        self.drain.lock().expect("admission drain poisoned").rate
    }

    /// Adaptive `Retry-After`: the estimated seconds until `queue_len`
    /// queued jobs clear at the observed drain rate, clamped to
    /// `[`[`RETRY_AFTER_FLOOR_SECS`]`, `[`RETRY_AFTER_CAP_SECS`]`]`.
    /// Before any flush has been observed the floor is returned — the
    /// old hard-coded behavior.
    pub fn retry_after_secs(&self, queue_len: usize) -> u64 {
        let rate = self.drain_rate();
        if rate <= 0.0 || queue_len == 0 {
            return RETRY_AFTER_FLOOR_SECS;
        }
        let secs = (queue_len as f64 / rate).ceil() as u64;
        secs.clamp(RETRY_AFTER_FLOOR_SECS, RETRY_AFTER_CAP_SECS)
    }

    /// True when the gate rejected a request within the last second —
    /// the `/healthz` "shedding" signal.
    pub fn shedding(&self) -> bool {
        let last = self.last_shed_ms.load(Ordering::Relaxed);
        if last == u64::MAX {
            return false;
        }
        let now = self.started.elapsed().as_millis() as u64;
        now.saturating_sub(last) <= SHED_WINDOW_MS
    }

    /// Requests admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_gate_admits_everything() {
        let gate = AdmissionGate::new(AdmissionConfig::default());
        for _ in 0..10_000 {
            assert!(gate.admit().is_ok());
        }
        assert_eq!(gate.rejected(), 0);
        assert!(!gate.shedding());
    }

    #[test]
    fn token_bucket_limits_bursts_then_refills() {
        let gate = AdmissionGate::new(AdmissionConfig {
            rate: 50.0,
            burst: 3.0,
        });
        let mut rejected = 0;
        for _ in 0..10 {
            if gate.admit().is_err() {
                rejected += 1;
            }
        }
        assert!(
            rejected >= 5,
            "burst of 3 must not admit 10, got {rejected} rejections"
        );
        assert!(gate.shedding());
        std::thread::sleep(Duration::from_millis(100));
        assert!(gate.admit().is_ok(), "bucket refills at 50/s");
    }

    #[test]
    fn retry_after_tracks_drain_rate() {
        let gate = AdmissionGate::new(AdmissionConfig::default());
        // No observation yet: the old hard-coded floor.
        assert_eq!(gate.retry_after_secs(64), RETRY_AFTER_FLOOR_SECS);
        // Observe a drain of ~100 jobs over ~50ms → ~2000 jobs/s EWMA seed.
        std::thread::sleep(Duration::from_millis(50));
        gate.record_drain(100);
        let rate = gate.drain_rate();
        assert!(rate > 0.0);
        // Backlog that clears in under a second still hints the floor...
        assert_eq!(gate.retry_after_secs(1), RETRY_AFTER_FLOOR_SECS);
        // ...a backlog worth many seconds hints proportionally more,
        // capped at 30.
        let deep = (rate * 10.0) as usize;
        let hint = gate.retry_after_secs(deep);
        assert!((2..=RETRY_AFTER_CAP_SECS).contains(&hint), "hint {hint}");
        assert_eq!(gate.retry_after_secs(usize::MAX / 2), RETRY_AFTER_CAP_SECS);
    }

    #[test]
    fn shedding_window_expires() {
        let gate = AdmissionGate::new(AdmissionConfig {
            rate: 1.0,
            burst: 1.0,
        });
        assert!(gate.admit().is_ok());
        assert!(gate.admit().is_err());
        assert!(gate.shedding());
        // The window is 1s; do not wait it out in a unit test — just
        // verify the counter bookkeeping is consistent.
        assert_eq!(gate.admitted(), 1);
        assert_eq!(gate.rejected(), 1);
    }
}
