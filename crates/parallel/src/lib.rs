//! Shared parallel execution layer for the HisRect numeric stack.
//!
//! Everything here is built on `std::thread::scope`: workers borrow the
//! caller's data directly, no queue or persistent pool is involved, and
//! a call returns only when every worker has finished. Spawning a
//! scoped thread costs tens of microseconds, which is negligible for
//! the workloads routed here (matmuls above a size threshold, per-user
//! dataset generation, affinity sweeps over thousands of pairs);
//! callers with tiny inputs should stay serial.
//!
//! The worker count comes from, in priority order: [`set_threads`], the
//! `HISRECT_THREADS` environment variable, then
//! `std::thread::available_parallelism`. Helpers run inline on the
//! calling thread whenever one worker would be used, so a 1-thread
//! configuration is exactly the serial code path.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A worker panic captured by one of the `try_*` helpers: the pool was
/// drained cleanly (every sibling worker ran to completion or panicked
/// and was joined) and the *first* panic payload, in worker order, is
/// reported here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// The panic message (payload downcast to a string where possible).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked: {}", self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a `catch_unwind`/`join` payload as a message. Panics carry
/// `&str` or `String` payloads in practice; anything else is opaque.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// 0 = not yet resolved; resolved lazily on first use.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn resolve_threads() -> usize {
    if let Ok(raw) = std::env::var("HISRECT_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count parallel helpers fan out to.
pub fn num_threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => {
            let n = resolve_threads();
            THREADS.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Overrides the worker count process-wide (clamped to at least 1).
/// Takes precedence over `HISRECT_THREADS`.
pub fn set_threads(n: usize) {
    THREADS.store(n.max(1), Ordering::Relaxed);
}

/// Worker count for a job of `cost` units, capped so every worker gets
/// at least `min_cost_per_worker` units: scoped-thread spawns cost tens
/// of microseconds, so fanning a small job across all configured
/// threads makes it *slower* than serial. Always between 1 and
/// [`num_threads`].
pub fn clamp_workers(cost: usize, min_cost_per_worker: usize) -> usize {
    let ideal = cost / min_cost_per_worker.max(1);
    num_threads().min(ideal.max(1))
}

/// Splits `0..len` into at most `parts` contiguous ranges whose lengths
/// differ by at most one. Empty ranges are never produced.
pub fn split_even(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, len.max(1));
    if len == 0 {
        return Vec::new();
    }
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Runs `f(range, block)` for each contiguous block of units of `data`,
/// in parallel. `data.len()` must equal `unit * n_units`; unit `u`
/// occupies `data[u * unit..(u + 1) * unit]`. Each worker receives the
/// unit range it owns plus the matching mutable sub-slice, so disjoint
/// writes need no synchronization. With one worker (or one unit) the
/// call runs inline on the calling thread.
pub fn scope_partition_mut<T, F>(data: &mut [T], unit: usize, n_units: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    scope_partition_mut_with(num_threads(), data, unit, n_units, f)
}

/// [`scope_partition_mut`] with an explicit worker count instead of the
/// process-wide setting.
pub fn scope_partition_mut_with<T, F>(
    threads: usize,
    data: &mut [T],
    unit: usize,
    n_units: usize,
    f: F,
) where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if let Err(p) = try_scope_partition_mut_with(threads, data, unit, n_units, f) {
        panic!("{p}");
    }
}

/// Panic-safe [`scope_partition_mut_with`]: a panicking worker no longer
/// takes the whole scope down mid-flight — every sibling block still runs
/// to completion, and the first panic (in block order) comes back as a
/// [`WorkerPanic`]. On `Err` the panicking worker's block may be only
/// partially written; the caller owns that data and decides whether to
/// discard it.
pub fn try_scope_partition_mut_with<T, F>(
    threads: usize,
    data: &mut [T],
    unit: usize,
    n_units: usize,
    f: F,
) -> Result<(), WorkerPanic>
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    assert_eq!(data.len(), unit * n_units, "partition: slice/unit mismatch");
    let ranges = split_even(n_units, threads);
    if ranges.len() <= 1 {
        if n_units > 0 {
            return catch_unwind(AssertUnwindSafe(|| f(0..n_units, data))).map_err(|p| {
                WorkerPanic {
                    message: panic_message(&*p),
                }
            });
        }
        return Ok(());
    }
    let mut first: Option<WorkerPanic> = None;
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut handles = Vec::with_capacity(ranges.len());
        for range in ranges {
            let (block, tail) = rest.split_at_mut((range.end - range.start) * unit);
            rest = tail;
            let f = &f;
            handles.push(scope.spawn(move || {
                catch_unwind(AssertUnwindSafe(|| f(range, block))).map_err(|p| WorkerPanic {
                    message: panic_message(&*p),
                })
            }));
        }
        for handle in handles {
            // The worker body is wrapped in catch_unwind, so join() itself
            // cannot fail short of a panic *while* panicking.
            if let Err(p) = handle.join().expect("worker unwound past catch_unwind") {
                first.get_or_insert(p);
            }
        }
    });
    match first {
        Some(p) => Err(p),
        None => Ok(()),
    }
}

/// Order-preserving parallel map over `0..n`.
pub fn parallel_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_range_with(num_threads(), n, f)
}

/// [`parallel_map_range`] with an explicit worker count.
pub fn parallel_map_range_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match try_parallel_map_range_with(threads, n, f) {
        Ok(out) => out,
        Err(p) => panic!("{p}"),
    }
}

/// Panic-safe order-preserving parallel map over `0..n`.
pub fn try_parallel_map_range<R, F>(n: usize, f: F) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    try_parallel_map_range_with(num_threads(), n, f)
}

/// Panic-safe [`parallel_map_range_with`]: if any worker panics, every
/// other worker still finishes its chunk (the pool drains cleanly), and
/// the first panic — in index order — is returned as a [`WorkerPanic`]
/// instead of unwinding through the scope.
pub fn try_parallel_map_range_with<R, F>(
    threads: usize,
    n: usize,
    f: F,
) -> Result<Vec<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let ranges = split_even(n, threads);
    if ranges.len() <= 1 {
        return catch_unwind(AssertUnwindSafe(|| (0..n).map(&f).collect())).map_err(|p| {
            WorkerPanic {
                message: panic_message(&*p),
            }
        });
    }
    let mut parts: Vec<Result<Vec<R>, WorkerPanic>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let f = &f;
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| range.map(f).collect::<Vec<R>>())).map_err(
                        |p| WorkerPanic {
                            message: panic_message(&*p),
                        },
                    )
                })
            })
            .collect();
        for handle in handles {
            parts.push(handle.join().expect("worker unwound past catch_unwind"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part?);
    }
    Ok(out)
}

/// Order-preserving parallel map over a slice.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_range(items.len(), |i| f(&items[i]))
}

/// Panic-safe order-preserving parallel map over a slice.
pub fn try_parallel_map<T, R, F>(items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    try_parallel_map_range(items.len(), |i| f(&items[i]))
}

/// Runs two closures concurrently (`b` on a scoped thread, `a` on the
/// calling thread) and returns both results. Falls back to sequential
/// execution with one worker.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    if num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || catch_unwind(AssertUnwindSafe(b)));
        let ra = a();
        match hb.join().expect("worker unwound past catch_unwind") {
            Ok(rb) => (ra, rb),
            // `a` already finished on the calling thread, so the scope is
            // drained; re-raise `b`'s panic with its original message.
            Err(p) => panic!("{}", panic_message(&*p)),
        }
    })
}

// ---------------------------------------------------------------------------
// Bounded MPMC channel
// ---------------------------------------------------------------------------

/// Why a [`Channel::try_send`] did not enqueue, carrying the item back.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The queue is at capacity — the natural backpressure signal.
    Full(T),
    /// The channel was closed; no further item will ever be accepted.
    Closed(T),
}

struct ChannelState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue on `Mutex` + `Condvar`.
///
/// This is the long-lived counterpart to the scoped helpers above: worker
/// pools that outlive a single call (the serving layer's connection
/// dispatch and micro-batcher) block on [`Channel::recv`] while producers
/// use [`Channel::try_send`] so a full queue surfaces as backpressure
/// instead of unbounded buffering. Closing wakes every waiter; receivers
/// drain the remaining items before observing the close.
pub struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> Channel<T> {
    /// A channel holding at most `capacity` queued items (min 1).
    pub fn bounded(capacity: usize) -> Self {
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChannelState<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueues without blocking; a full or closed channel hands the item
    /// back so the caller can shed load.
    pub fn try_send(&self, item: T) -> Result<(), TrySendError<T>> {
        let mut st = self.lock();
        if st.closed {
            return Err(TrySendError::Closed(item));
        }
        if st.queue.len() >= self.capacity {
            return Err(TrySendError::Full(item));
        }
        st.queue.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available or the channel is closed and
    /// drained (`None`).
    pub fn recv(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Moves up to `max` already-queued items onto the end of `out`,
    /// oldest first, under one lock and without ever blocking; returns how
    /// many moved (0 when nothing is queued). Like [`Channel::recv`], it
    /// keeps handing out what was queued before a [`Channel::close`].
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut st = self.lock();
        let n = max.min(st.queue.len());
        out.extend(st.queue.drain(..n));
        n
    }

    /// Closes the channel: senders start failing, receivers drain what is
    /// left and then observe the close. Idempotent.
    pub fn close(&self) {
        let mut st = self.lock();
        st.closed = true;
        drop(st);
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_exactly() {
        for len in [0usize, 1, 5, 16, 17, 1000] {
            for parts in [1usize, 2, 3, 8, 64] {
                let ranges = split_even(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                if len > 0 {
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn partition_writes_disjoint_blocks() {
        let unit = 3;
        let n_units = 17;
        let mut data = vec![0usize; unit * n_units];
        scope_partition_mut(&mut data, unit, n_units, |range, block| {
            for (k, slot) in block.iter_mut().enumerate() {
                *slot = range.start * unit + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let mapped = parallel_map(&items, |x| x * 2 + 1);
        assert_eq!(mapped, items.iter().map(|x| x * 2 + 1).collect::<Vec<_>>());
        let ranged = parallel_map_range(100, |i| i * i);
        assert_eq!(ranged, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        for threads in [1usize, 2, 3, 7] {
            let mapped = parallel_map_range_with(threads, 37, |i| i as u64 * 3);
            assert_eq!(mapped, (0..37).map(|i| i as u64 * 3).collect::<Vec<_>>());

            let unit = 2;
            let mut data = vec![0usize; unit * 11];
            scope_partition_mut_with(threads, &mut data, unit, 11, |range, block| {
                for (k, slot) in block.iter_mut().enumerate() {
                    *slot = range.start * unit + k + 1;
                }
            });
            assert_eq!(data, (1..=unit * 11).collect::<Vec<_>>());
        }
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    fn try_map_surfaces_first_panic_after_draining() {
        use std::sync::atomic::AtomicUsize;
        // Workers 0..4 each own a 10-item chunk of 0..40; index 13 panics,
        // aborting its own worker's remaining items, but every sibling
        // worker's chunk still completes (the pool drains) and the panic
        // message comes back verbatim.
        let visited = AtomicUsize::new(0);
        let err = try_parallel_map_range_with(4, 40, |i| {
            if i == 13 {
                panic!("injected worker panic at {i}");
            }
            visited.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "injected worker panic at 13");
        let visited = visited.load(Ordering::Relaxed);
        assert!(
            visited >= 30,
            "sibling workers' chunks must still run; visited {visited}"
        );
    }

    #[test]
    fn try_map_inline_path_catches_too() {
        let err = try_parallel_map_range_with(1, 5, |i| {
            if i == 2 {
                panic!("inline boom");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "inline boom");
        let ok = try_parallel_map_range_with(1, 5, |i| i).unwrap();
        assert_eq!(ok, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn try_map_reports_earliest_worker_in_index_order() {
        let err = try_parallel_map_range_with(4, 40, |i| {
            if i == 35 || i == 3 {
                panic!("boom at {i}");
            }
            i
        })
        .unwrap_err();
        assert_eq!(err.message, "boom at 3", "first panic in index order wins");
    }

    #[test]
    fn try_partition_surfaces_panic_and_finishes_siblings() {
        let unit = 2;
        let n_units = 12;
        let mut data = vec![0usize; unit * n_units];
        let err = try_scope_partition_mut_with(3, &mut data, unit, n_units, |range, block| {
            if range.contains(&5) {
                panic!("partition boom");
            }
            for slot in block.iter_mut() {
                *slot = 7;
            }
        })
        .unwrap_err();
        assert_eq!(err.message, "partition boom");
        // Blocks not owned by the panicking worker were fully written.
        let written = data.iter().filter(|&&v| v == 7).count();
        assert_eq!(written, 2 * unit * n_units / 3);
    }

    #[test]
    fn panicking_wrappers_repanic_with_message() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map_range_with(3, 9, |i| {
                if i == 4 {
                    panic!("wrapped boom");
                }
                i
            })
        })
        .unwrap_err();
        let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("wrapped boom"), "got: {msg}");
    }

    #[test]
    fn empty_inputs_are_fine() {
        let mut empty: Vec<f32> = Vec::new();
        scope_partition_mut(&mut empty, 4, 0, |_, _| panic!("no units"));
        let out: Vec<u8> = parallel_map_range(0, |_| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn channel_is_fifo_and_bounds_enforced() {
        let ch = Channel::bounded(2);
        ch.try_send(1).unwrap();
        ch.try_send(2).unwrap();
        assert_eq!(ch.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.recv(), Some(1));
        ch.try_send(3).unwrap();
        assert_eq!(ch.recv(), Some(2));
        assert_eq!(ch.recv(), Some(3));
        assert!(ch.is_empty());
    }

    #[test]
    fn closed_channel_drains_then_reports_close() {
        let ch = Channel::bounded(4);
        ch.try_send("a").unwrap();
        ch.close();
        assert_eq!(ch.try_send("b"), Err(TrySendError::Closed("b")));
        assert_eq!(ch.recv(), Some("a"));
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn drain_into_is_fifo_bounded_and_never_blocks() {
        let ch = Channel::bounded(8);
        let mut out = vec![0];
        assert_eq!(ch.drain_into(&mut out, 4), 0, "empty queue moves nothing");
        for i in 1..=5 {
            ch.try_send(i).unwrap();
        }
        assert_eq!(ch.drain_into(&mut out, 0), 0);
        assert_eq!(ch.drain_into(&mut out, 3), 3, "stops at max");
        assert_eq!(out, vec![0, 1, 2, 3], "appends oldest first");
        assert_eq!(ch.len(), 2);
        assert_eq!(ch.drain_into(&mut out, 16), 2, "stops at the backlog");
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert!(ch.is_empty());
    }

    #[test]
    fn drain_into_still_sees_leftovers_after_close() {
        let ch = Channel::bounded(4);
        ch.try_send("a").unwrap();
        ch.try_send("b").unwrap();
        ch.close();
        let mut out = Vec::new();
        assert_eq!(ch.drain_into(&mut out, 1), 1);
        assert_eq!(ch.recv(), Some("b"), "recv and drain share one FIFO");
        assert_eq!(ch.drain_into(&mut out, 1), 0);
        assert_eq!(out, vec!["a"]);
        assert_eq!(ch.recv(), None);
    }

    #[test]
    fn channel_moves_items_across_threads() {
        let ch: Channel<usize> = Channel::bounded(8);
        let total: usize = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut sum = 0usize;
                while let Some(v) = ch.recv() {
                    sum += v;
                }
                sum
            });
            for i in 0..100 {
                // Spin on backpressure; the consumer drains continuously.
                let mut item = i;
                loop {
                    match ch.try_send(item) {
                        Ok(()) => break,
                        Err(TrySendError::Full(v)) => {
                            item = v;
                            std::thread::yield_now();
                        }
                        Err(TrySendError::Closed(_)) => unreachable!(),
                    }
                }
            }
            ch.close();
            consumer.join().unwrap()
        });
        assert_eq!(total, (0..100).sum::<usize>());
    }
}
