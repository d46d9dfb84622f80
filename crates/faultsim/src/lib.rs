#![warn(missing_docs)]

//! Deterministic fault injection for the HisRect fault-tolerance layer.
//!
//! A *fault plan* arms a set of fault classes, each firing exactly once at
//! a chosen trigger count. Production code places named trigger points
//! (`fires(FaultKind::NanGrad)`) at the sites a real fault would strike:
//! the checkpoint writer, the training loops, the parallel chunk workers.
//! With no plan configured every trigger point is a single relaxed atomic
//! load, so the harness can stay compiled into release binaries.
//!
//! Plans are plain strings — `"nan-grad@3,torn-write@1"` arms a NaN
//! gradient on the third gradient step and a torn write on the first
//! checkpoint — and come from either the `HISRECT_FAULTS` environment
//! variable (read by the CLI) or [`configure_str`] in tests. Everything
//! is counter-based, never time- or randomness-based, so a chaos test
//! replays bit-for-bit.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The fault classes the harness can arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Checkpoint write stops partway through (no trailing bytes, no
    /// rename-level atomicity): simulates a crash mid-`write`.
    TornWrite,
    /// Checkpoint payload has one bit flipped after the checksum was
    /// computed: simulates silent media corruption.
    BitFlip,
    /// Checkpoint file is replaced by syntactically invalid JSON.
    CorruptJson,
    /// Gradients of the current training step are poisoned with NaN.
    NanGrad,
    /// A parallel chunk worker panics.
    WorkerPanic,
    /// The training process "dies" (the trainer returns an interrupt
    /// error) — used by kill-and-resume tests without spawning processes.
    Crash,
    /// Request path: the client stalls mid-request longer than the
    /// server's read timeout (chaos clients consult this to misbehave).
    SlowClient,
    /// Request path: the client disconnects after sending only part of
    /// the declared body.
    MidBodyDisconnect,
    /// Request path: the client declares a body larger than the server's
    /// configured limit.
    OversizedBody,
    /// Request path: the request body is syntactically invalid JSON.
    MalformedJson,
    /// Serve path: the judge forward pass takes far longer than the
    /// configured latency budget (simulates a degraded model backend).
    /// It stalls the worker that holds the micro-batcher's combiner, and
    /// every job queued behind it.
    SlowJudge,
    /// Serve path: a request handler burns CPU in a tight loop before
    /// answering (simulates a poison request hogging a worker).
    CpuBurn,
    /// Stream path: the generator swaps the armed event with its
    /// successor, delivering the pair out of timestamp order.
    StreamReorder,
    /// Stream path: the generator silently drops the armed event,
    /// leaving a hole in the sequence numbers.
    StreamGap,
    /// Stream path: the generator delivers the armed event twice with
    /// the same sequence number (at-least-once delivery).
    StreamDup,
    /// Cluster path: the router's next contact with a shard (proxy or
    /// health probe) behaves as a dead upstream (connection refused).
    ShardKill,
    /// Cluster path: a shard answers one proxied request far slower
    /// than its peers (degraded-upstream simulation).
    SlowShard,
}

impl FaultKind {
    /// The plan-string spelling of this kind.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::BitFlip => "bit-flip",
            FaultKind::CorruptJson => "corrupt-json",
            FaultKind::NanGrad => "nan-grad",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::Crash => "crash",
            FaultKind::SlowClient => "slow-client",
            FaultKind::MidBodyDisconnect => "disconnect",
            FaultKind::OversizedBody => "oversize-body",
            FaultKind::MalformedJson => "malformed-json",
            FaultKind::SlowJudge => "slow-judge",
            FaultKind::CpuBurn => "cpu-burn",
            FaultKind::StreamReorder => "reorder",
            FaultKind::StreamGap => "gap",
            FaultKind::StreamDup => "dup",
            FaultKind::ShardKill => "shard-kill",
            FaultKind::SlowShard => "slow-shard",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "torn-write" => FaultKind::TornWrite,
            "bit-flip" => FaultKind::BitFlip,
            "corrupt-json" => FaultKind::CorruptJson,
            "nan-grad" => FaultKind::NanGrad,
            "worker-panic" => FaultKind::WorkerPanic,
            "crash" => FaultKind::Crash,
            "slow-client" => FaultKind::SlowClient,
            "disconnect" => FaultKind::MidBodyDisconnect,
            "oversize-body" => FaultKind::OversizedBody,
            "malformed-json" => FaultKind::MalformedJson,
            "slow-judge" => FaultKind::SlowJudge,
            "cpu-burn" => FaultKind::CpuBurn,
            "reorder" => FaultKind::StreamReorder,
            "gap" => FaultKind::StreamGap,
            "dup" => FaultKind::StreamDup,
            "shard-kill" => FaultKind::ShardKill,
            "slow-shard" => FaultKind::SlowShard,
            _ => return None,
        })
    }

    const ALL: [FaultKind; 17] = [
        FaultKind::TornWrite,
        FaultKind::BitFlip,
        FaultKind::CorruptJson,
        FaultKind::NanGrad,
        FaultKind::WorkerPanic,
        FaultKind::Crash,
        FaultKind::SlowClient,
        FaultKind::MidBodyDisconnect,
        FaultKind::OversizedBody,
        FaultKind::MalformedJson,
        FaultKind::SlowJudge,
        FaultKind::CpuBurn,
        FaultKind::StreamReorder,
        FaultKind::StreamGap,
        FaultKind::StreamDup,
        FaultKind::ShardKill,
        FaultKind::SlowShard,
    ];
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// 1-based trigger count at which the fault fires; 0 = disarmed.
    at: u64,
    /// Trigger-point visits so far.
    count: u64,
    /// True once the fault has fired (each arms exactly once).
    fired: bool,
}

#[derive(Default)]
struct Plan {
    slots: [Slot; FaultKind::ALL.len()],
}

/// Fast-path guard: false ⇒ no fault is armed anywhere.
static ARMED: AtomicBool = AtomicBool::new(false);

fn plan() -> &'static Mutex<Plan> {
    static PLAN: Mutex<Plan> = Mutex::new(Plan {
        slots: [Slot {
            at: 0,
            count: 0,
            fired: false,
        }; FaultKind::ALL.len()],
    });
    &PLAN
}

fn idx(kind: FaultKind) -> usize {
    FaultKind::ALL.iter().position(|&k| k == kind).unwrap()
}

/// Arms `kind` to fire on the `at`-th visit of its trigger point
/// (1-based). Re-arming resets the visit counter.
pub fn arm(kind: FaultKind, at: u64) {
    let mut p = plan().lock().expect("fault plan poisoned");
    p.slots[idx(kind)] = Slot {
        at: at.max(1),
        count: 0,
        fired: false,
    };
    ARMED.store(true, Ordering::Relaxed);
}

/// Parses and arms a full plan: comma- or semicolon-separated
/// `kind@count` entries, e.g. `"nan-grad@3,torn-write@1"`. A bare
/// `kind` means `kind@1`. The previous plan is cleared first.
pub fn configure_str(spec: &str) -> Result<(), String> {
    let mut parsed = Vec::new();
    for entry in spec
        .split([',', ';'])
        .map(str::trim)
        .filter(|e| !e.is_empty())
    {
        let (name, at) = match entry.split_once('@') {
            Some((name, n)) => {
                let at: u64 = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("fault `{entry}`: bad trigger count `{n}`"))?;
                if at == 0 {
                    return Err(format!("fault `{entry}`: trigger counts are 1-based"));
                }
                (name.trim(), at)
            }
            None => (entry, 1),
        };
        let kind = FaultKind::parse(name).ok_or_else(|| {
            format!(
                "unknown fault `{name}` (expected one of: {})",
                FaultKind::ALL.map(FaultKind::name).join(", ")
            )
        })?;
        parsed.push((kind, at));
    }
    clear();
    for (kind, at) in parsed {
        arm(kind, at);
    }
    Ok(())
}

/// Arms the plan in the `HISRECT_FAULTS` environment variable, if set.
/// Returns whether anything was armed.
pub fn configure_from_env() -> Result<bool, String> {
    match std::env::var("HISRECT_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure_str(&spec)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Disarms every fault and resets all counters.
pub fn clear() {
    let mut p = plan().lock().expect("fault plan poisoned");
    *p = Plan::default();
    ARMED.store(false, Ordering::Relaxed);
}

/// A trigger point. Increments `kind`'s visit counter and returns true
/// exactly once — on the armed visit. With nothing armed this is one
/// relaxed atomic load.
#[inline]
pub fn fires(kind: FaultKind) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let mut p = plan().lock().expect("fault plan poisoned");
    let slot = &mut p.slots[idx(kind)];
    if slot.at == 0 || slot.fired {
        return false;
    }
    slot.count += 1;
    if slot.count == slot.at {
        slot.fired = true;
        return true;
    }
    false
}

/// True when `kind` is armed and has not fired yet.
pub fn pending(kind: FaultKind) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    let p = plan().lock().expect("fault plan poisoned");
    let slot = &p.slots[idx(kind)];
    slot.at > 0 && !slot.fired
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The plan is process-global and tests share one binary: serialize.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_trigger_points_never_fire() {
        let _g = lock();
        clear();
        for kind in FaultKind::ALL {
            assert!(!fires(kind));
            assert!(!pending(kind));
        }
    }

    #[test]
    fn fires_exactly_once_at_the_armed_count() {
        let _g = lock();
        clear();
        arm(FaultKind::NanGrad, 3);
        assert!(pending(FaultKind::NanGrad));
        assert!(!fires(FaultKind::NanGrad));
        assert!(!fires(FaultKind::NanGrad));
        assert!(fires(FaultKind::NanGrad), "third visit must fire");
        assert!(!fires(FaultKind::NanGrad), "faults fire once");
        assert!(!pending(FaultKind::NanGrad));
        clear();
    }

    #[test]
    fn plan_string_round_trips() {
        let _g = lock();
        clear();
        configure_str("nan-grad@2, torn-write; bit-flip@4").unwrap();
        assert!(pending(FaultKind::NanGrad));
        assert!(pending(FaultKind::TornWrite));
        assert!(pending(FaultKind::BitFlip));
        assert!(!pending(FaultKind::Crash));
        assert!(fires(FaultKind::TornWrite), "bare kind means @1");
        assert!(!fires(FaultKind::NanGrad));
        assert!(fires(FaultKind::NanGrad));
        clear();
    }

    #[test]
    fn bad_plan_strings_are_rejected() {
        let _g = lock();
        clear();
        assert!(configure_str("frobnicate@1").is_err());
        assert!(configure_str("nan-grad@zero").is_err());
        assert!(configure_str("nan-grad@0").is_err());
        // A failed parse must not leave a partial plan armed.
        assert!(configure_str("nan-grad@5,bogus@1").is_err());
        assert!(!pending(FaultKind::NanGrad));
        clear();
    }

    #[test]
    fn request_path_kinds_parse_and_fire() {
        let _g = lock();
        clear();
        configure_str("slow-client@2,disconnect,oversize-body@1,malformed-json@3").unwrap();
        assert!(pending(FaultKind::SlowClient));
        assert!(fires(FaultKind::MidBodyDisconnect));
        assert!(fires(FaultKind::OversizedBody));
        assert!(!fires(FaultKind::SlowClient));
        assert!(fires(FaultKind::SlowClient));
        assert!(!fires(FaultKind::MalformedJson));
        assert!(!fires(FaultKind::MalformedJson));
        assert!(fires(FaultKind::MalformedJson));
        // Every kind's plan-string name round-trips through the parser.
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()), Some(kind));
        }
        clear();
    }

    #[test]
    fn serve_overload_kinds_parse_and_fire() {
        let _g = lock();
        clear();
        configure_str("slow-judge@2,cpu-burn").unwrap();
        assert!(fires(FaultKind::CpuBurn));
        assert!(!fires(FaultKind::SlowJudge));
        assert!(fires(FaultKind::SlowJudge));
        assert!(!pending(FaultKind::SlowJudge));
        clear();
    }

    #[test]
    fn stream_kinds_parse_and_fire() {
        let _g = lock();
        clear();
        configure_str("reorder@2,gap,dup@3").unwrap();
        assert!(pending(FaultKind::StreamReorder));
        assert!(fires(FaultKind::StreamGap), "bare kind means @1");
        assert!(!fires(FaultKind::StreamReorder));
        assert!(fires(FaultKind::StreamReorder));
        assert!(!fires(FaultKind::StreamDup));
        assert!(!fires(FaultKind::StreamDup));
        assert!(fires(FaultKind::StreamDup));
        assert!(!pending(FaultKind::StreamDup));
        clear();
    }

    #[test]
    fn kinds_count_independently() {
        let _g = lock();
        clear();
        arm(FaultKind::Crash, 1);
        arm(FaultKind::WorkerPanic, 2);
        assert!(!fires(FaultKind::WorkerPanic));
        assert!(fires(FaultKind::Crash));
        assert!(fires(FaultKind::WorkerPanic));
        clear();
    }
}
