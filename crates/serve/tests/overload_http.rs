//! Overload-protection integration coverage: request deadlines shed in
//! the batcher (504), admission control and full-queue shedding with a
//! `Retry-After` hint (503), the circuit breaker degrading to
//! stale/heuristic verdicts and recovering through a half-open probe, and
//! jobs queued behind a slow batch neither lost nor split.

mod common;

use common::{start_server, test_pairs};
use hisrect::Judgement;
use serve::batcher::{Batcher, JobError};
use serve::{AdmissionConfig, BreakerConfig, HttpClient};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// The fault plan is process-global; these tests must not interleave.
static OVERLOAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OVERLOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn judge_body(i: usize, j: usize) -> String {
    format!("{{\"i\":{i},\"j\":{j}}}")
}

/// Arms one `slow-judge` shot of `ms` and has a background thread submit
/// the request (or job) that trips it; returns once the shot has fired,
/// so the caller knows a thread holds the batcher's combiner and
/// everything submitted from now on queues behind it for `ms`.
fn hold_combiner<T: Send + 'static>(
    ms: u64,
    submit: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    faultsim::configure_str(&format!("slow-judge@1:{ms}")).unwrap();
    let holder = std::thread::spawn(submit);
    let armed = Instant::now();
    while faultsim::pending(faultsim::FaultKind::SlowJudge) {
        assert!(armed.elapsed() < Duration::from_secs(5), "never fired");
        std::thread::yield_now();
    }
    holder
}

#[test]
fn expired_deadline_is_shed_with_typed_504_and_close_deadlines_survive() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    let addr = server.addr();
    let (i, j) = test_pairs(1)[0];

    // A job that finds the combiner free is judged at once by its own
    // worker, so the 1ms deadline can only expire behind a held one.
    let slow = hold_combiner(100, move || {
        let mut client = HttpClient::new(addr);
        client.post("/judge", &judge_body(i, j)).unwrap()
    });
    let mut client = HttpClient::new(addr);
    let r = client
        .post_with_headers("/judge", &judge_body(i, j), &[("x-deadline-ms", "1")])
        .unwrap();
    assert_eq!(r.status, 504, "expired job must be shed: {}", r.body);
    assert_eq!(r.header("x-hisrect-shed"), Some("deadline"));
    assert!(r.body.contains("deadline"), "{}", r.body);
    let slow = slow.join().unwrap();
    assert_eq!(slow.status, 200, "the holder answers: {}", slow.body);

    // The race in the other direction: a deadline beyond the queueing
    // time is answered normally.
    let r = client
        .post_with_headers("/judge", &judge_body(i, j), &[("x-deadline-ms", "5000")])
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-hisrect-degraded"), None);
    faultsim::clear();
    server.shutdown();
}

#[test]
fn full_connection_queue_is_shed_at_the_door_with_retry_after() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.workers = 1;
        c.queue_depth = 1;
    });
    let addr = server.addr();
    let (i, j) = test_pairs(1)[0];
    let post = move || {
        let mut client = HttpClient::new(addr);
        client.post("/judge", &judge_body(i, j)).unwrap()
    };

    // The only worker crawls through a slow flush. Of two more requests,
    // whichever arrives first takes the one connection-queue slot and the
    // other finds the queue full.
    let held = hold_combiner(500, post);
    let racers = [std::thread::spawn(post), std::thread::spawn(post)];
    let mut answers: Vec<_> = racers.map(|t| t.join().unwrap()).into();
    answers.sort_by_key(|r| r.status);
    let [queued, shed] = [&answers[0], &answers[1]];
    assert_eq!(queued.status, 200, "{}", queued.body);
    assert_eq!(shed.status, 503, "full queue must shed: {}", shed.body);
    assert_eq!(shed.header("x-hisrect-shed"), Some("queue"));
    let retry: u64 = shed
        .header("retry-after")
        .expect("shed response carries retry-after")
        .parse()
        .expect("retry-after is integral seconds");
    assert!((1..=30).contains(&retry), "hint in range, got {retry}");
    let held = held.join().unwrap();
    assert_eq!(held.status, 200, "{}", held.body);
    faultsim::clear();
    server.shutdown();
}

#[test]
fn job_expiring_behind_a_slow_batch_is_shed() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.batch_size = 1; // every job flushes alone
    });
    let addr = server.addr();
    let (i, j) = test_pairs(2)[0];
    let (i2, j2) = test_pairs(2)[1];

    // First request hits the injected slow flush and crawls; the second,
    // with a 50ms deadline, expires queued behind it.
    faultsim::configure_str("slow-judge@1:300").unwrap();
    let slow = std::thread::spawn(move || {
        let mut client = HttpClient::new(addr);
        client.post("/judge", &judge_body(i, j)).unwrap()
    });
    std::thread::sleep(Duration::from_millis(50));
    let mut client = HttpClient::new(addr);
    let r = client
        .post_with_headers("/judge", &judge_body(i2, j2), &[("x-deadline-ms", "50")])
        .unwrap();
    assert_eq!(r.status, 504, "queued-behind job must expire: {}", r.body);
    assert_eq!(r.header("x-hisrect-shed"), Some("deadline"));
    let slow_response = slow.join().unwrap();
    assert_eq!(slow_response.status, 200, "{}", slow_response.body);

    faultsim::clear();
    server.shutdown();
}

#[test]
fn admission_gate_sheds_with_adaptive_retry_after_and_healthz_reports_it() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.admission = AdmissionConfig {
            rate: 0.5, // refills far too slowly for back-to-back requests
            burst: 1.0,
        };
    });
    let mut client = HttpClient::new(server.addr());
    let (i, j) = test_pairs(1)[0];

    let r = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(r.status, 200, "first request spends the burst: {}", r.body);
    let r = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(r.status, 503, "empty bucket must shed: {}", r.body);
    assert_eq!(r.header("x-hisrect-shed"), Some("admission"));
    let retry: u64 = r
        .header("retry-after")
        .expect("shed response carries retry-after")
        .parse()
        .expect("retry-after is integral seconds");
    assert!(
        (1..=30).contains(&retry),
        "adaptive hint in range, got {retry}"
    );

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"state\":\"shedding\""),
        "healthz must report shedding: {}",
        health.body
    );
    server.shutdown();
}

#[test]
fn breaker_degrades_to_stale_then_fallback_and_recovers_via_probe() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(250),
            latency_budget: Duration::from_millis(50),
        };
    });
    let mut client = HttpClient::new(server.addr());
    let pairs = test_pairs(2);
    let (i, j) = pairs[0];
    let (i2, j2) = pairs[1];

    // Warm the learned verdict for (i, j) while the circuit is closed.
    let learned = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(learned.status, 200, "{}", learned.body);
    assert_eq!(learned.header("x-hisrect-degraded"), None);

    // One slow flush blows the 50ms budget: with threshold 1 the breaker
    // opens on a single over-budget "success".
    faultsim::configure_str("slow-judge@1:200").unwrap();
    let r = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    // Open: the warmed pair is served byte-identically from the stale
    // verdict cache; an unseen pair falls back to the spatial heuristic.
    let health = client.get("/healthz").unwrap();
    assert!(
        health.body.contains("\"breaker\":\"open\"")
            && health.body.contains("\"state\":\"degraded\""),
        "healthz after trip: {}",
        health.body
    );
    let stale = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(stale.status, 200, "{}", stale.body);
    assert_eq!(stale.header("x-hisrect-degraded"), Some("stale"));
    assert_eq!(stale.body, learned.body, "stale read is byte-identical");
    let fallback = client.post("/judge", &judge_body(i2, j2)).unwrap();
    assert_eq!(fallback.status, 200, "{}", fallback.body);
    assert_eq!(fallback.header("x-hisrect-degraded"), Some("fallback"));

    // After the cooldown the next request is the half-open probe; the
    // fault plan is exhausted, so it succeeds and closes the circuit.
    std::thread::sleep(Duration::from_millis(300));
    let probe = client.post("/judge", &judge_body(i, j)).unwrap();
    assert_eq!(probe.status, 200, "{}", probe.body);
    assert_eq!(probe.header("x-hisrect-degraded"), None, "probe is learned");
    assert_eq!(probe.body, learned.body, "recovered verdict identical");
    let health = client.get("/healthz").unwrap();
    assert!(
        health.body.contains("\"breaker\":\"closed\"") && health.body.contains("\"state\":\"ok\""),
        "healthz after recovery: {}",
        health.body
    );

    faultsim::clear();
    server.shutdown();
}

#[test]
fn backlog_behind_a_held_flusher_is_one_batch() {
    let _g = lock();
    faultsim::clear();
    const N: usize = 4;
    let model = common::loaded_model();
    let pairs = test_pairs(N + 1);

    // The first job's submitter takes the combiner and crawls through the
    // slow flush; everything submitted meanwhile stays queued until it
    // lets go and drains the queue.
    let batcher = Arc::new(Batcher::new(N, Duration::ZERO, N, None));
    let (job, first) = common::judge_job(&model, pairs[0], None);
    let holder = {
        let batcher = Arc::clone(&batcher);
        hold_combiner(100, move || batcher.submit(job))
    };
    let answers: Vec<_> = pairs[1..]
        .iter()
        .map(|&pair| {
            let (job, rx) = common::judge_job(&model, pair, None);
            batcher.submit(job).expect("queue has room");
            rx
        })
        .collect();
    holder.join().unwrap().expect("queue has room");
    first.recv().expect("the holder answers").expect("judged");
    for (&(i, j), rx) in pairs[1..].iter().zip(answers) {
        let p = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the holder answers the backlog")
            .expect("judged");
        let body = serde_json::to_string(&Judgement::from_probability(i, j, p)).unwrap();
        assert_eq!(body, common::offline_judgement(i, j), "batched row drifted");
    }
    let stats = batcher.stats();
    assert_eq!(
        (
            stats.batches.load(Ordering::Relaxed),
            stats.jobs.load(Ordering::Relaxed)
        ),
        (2, 1 + N as u64),
        "the held job alone, then one batch of N"
    );
    faultsim::clear();
    batcher.shutdown();
}

#[test]
fn shutdown_answers_expired_jobs_still_queued() {
    let _g = lock();
    faultsim::clear();
    let model = common::loaded_model();
    let pair = test_pairs(1)[0];

    // The job queues, already expired, behind a combiner held by a slow
    // flush; shutdown waits for the holder and leaves nothing unanswered.
    let batcher = Arc::new(Batcher::new(64, Duration::ZERO, 8, None));
    let (job, first) = common::judge_job(&model, pair, None);
    let holder = {
        let batcher = Arc::clone(&batcher);
        hold_combiner(100, move || batcher.submit(job))
    };
    let (job, rx) = common::judge_job(&model, pair, Some(Instant::now()));
    batcher.submit(job).expect("submit");
    batcher.shutdown();
    holder.join().unwrap().expect("submit");
    faultsim::clear();
    assert!(
        matches!(first.try_recv(), Ok(Ok(_))),
        "the held job is judged"
    );
    match rx.try_recv() {
        Ok(Err(JobError::Expired)) => {}
        other => panic!("expired queued job must get a typed answer, got {other:?}"),
    }
}
