//! Overload-protection integration coverage: request deadlines shed in
//! the batcher (504), admission control with adaptive `Retry-After`
//! (503), the circuit breaker degrading to stale/heuristic verdicts and
//! recovering through a half-open probe, and the watchdog restarting a
//! stalled flusher without losing queued jobs.

mod common;

use common::{start_server, test_pairs};
use hisrect::Judgement;
use serve::batcher::{Batcher, JobError};
use serve::{AdmissionConfig, BreakerConfig, HttpClient, WatchdogConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// The fault plan and the slow-judge env knob are process-global; these
// tests must not interleave.
static OVERLOAD_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OVERLOAD_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn judge_body(i: usize, j: usize) -> String {
    format!("{{\"i\":{i},\"j\":{j}}}")
}

#[test]
fn expired_deadline_is_shed_with_typed_504_and_close_deadlines_survive() {
    let _g = lock();
    faultsim::clear();
    // A job that finds the flusher idle is flushed at once, so the 1ms
    // deadline can only expire behind a held flusher: armed before the
    // server starts, the stall parks the flusher on its first iteration,
    // and the job waits in the queue until the watchdog's replacement
    // collects it.
    faultsim::configure_str("stall@1").unwrap();
    let server = start_server(|c| {
        c.watchdog = WatchdogConfig {
            interval: Duration::from_millis(20),
            stall_timeout: Duration::from_millis(100),
        };
    });
    let mut client = HttpClient::new(server.addr());
    let (i, j) = test_pairs(1)[0];

    let r = client
        .post_with_headers("/judge", &judge_body(i, j), &[("x-deadline-ms", "1")])
        .unwrap();
    assert_eq!(r.status, 504, "expired job must be shed: {}", r.body);
    assert_eq!(r.header("x-hisrect-shed"), Some("deadline"));
    assert!(r.body.contains("deadline"), "{}", r.body);
    assert!(
        server.watchdog_restarts() >= 1,
        "the stall held the flusher"
    );

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
fn job_expiring_behind_a_slow_batch_is_shed() {
    let _g = lock();
    faultsim::clear();
    std::env::set_var("HISRECT_SLOW_JUDGE_MS", "300");
    let server = start_server(|c| {
        c.batch_size = 1; // every job flushes alone, immediately
        c.batch_deadline = Duration::from_millis(1);
    });
    let addr = server.addr();
    let (i, j) = test_pairs(2)[0];
    let (i2, j2) = test_pairs(2)[1];

    // First request hits the injected slow flush and crawls; the second,
    // with a 50ms deadline, expires queued behind it.
    faultsim::configure_str("slow-judge@1").unwrap();
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

    std::env::remove_var("HISRECT_SLOW_JUDGE_MS");
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
            queue_high_watermark: 1.0,
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
    std::env::set_var("HISRECT_SLOW_JUDGE_MS", "200");
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
    faultsim::configure_str("slow-judge@1").unwrap();
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

    std::env::remove_var("HISRECT_SLOW_JUDGE_MS");
    faultsim::clear();
    server.shutdown();
}

#[test]
fn watchdog_restarts_stalled_flusher_without_losing_jobs() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.watchdog = WatchdogConfig {
            interval: Duration::from_millis(20),
            stall_timeout: Duration::from_millis(100),
        };
    });
    let mut client = HttpClient::new(server.addr());
    let (i, j) = test_pairs(1)[0];

    // If the live flusher is already parked in recv (its stall check
    // ran), the first request is served normally and the flusher stalls
    // on its next loop iteration, in front of the second; if it has not
    // parked yet, it stalls in front of the first. Either way one of the
    // two jobs sits queued behind a stalled flusher until the watchdog
    // restarts it in place and the replacement answers — no drop, no 5xx
    // — and that takes at least the stall timeout.
    faultsim::configure_str("stall@1").unwrap();
    let start = Instant::now();
    for _ in 0..2 {
        let r = client.post("/judge", &judge_body(i, j)).unwrap();
        assert_eq!(r.status, 200, "job survived the restart: {}", r.body);
    }
    assert!(
        start.elapsed() >= Duration::from_millis(90),
        "one answer can only arrive after the stall timeout"
    );
    assert!(
        server.watchdog_restarts() >= 1,
        "watchdog must have restarted the flusher"
    );
    let metrics = client.get("/metrics").unwrap();
    assert!(
        metrics.body.contains("serve/watchdog_restarts"),
        "restart counter must be exported: {}",
        metrics.body
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
    let pairs = test_pairs(N);

    // The stall parks the flusher before it takes a job; once it has
    // fired, everything submitted stays queued until the replacement's
    // first drain.
    faultsim::configure_str("stall@1").unwrap();
    let batcher = Batcher::new(N, Duration::ZERO, N, None);
    let armed = Instant::now();
    while faultsim::pending(faultsim::FaultKind::BatcherStall) {
        assert!(armed.elapsed() < Duration::from_secs(5), "never stalled");
        std::thread::yield_now();
    }
    let answers: Vec<_> = pairs
        .iter()
        .map(|&pair| {
            let (job, rx) = common::judge_job(&model, pair, None);
            batcher.submit(job).expect("queue has room");
            rx
        })
        .collect();
    batcher.restart();
    for (&(i, j), rx) in pairs.iter().zip(answers) {
        let p = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the replacement answers the backlog")
            .expect("judged");
        let body = serde_json::to_string(&Judgement::from_probability(i, j, p)).unwrap();
        assert_eq!(body, common::offline_judgement(i, j), "batched row drifted");
    }
    assert_eq!(
        batcher.stats().mean_batch_size(),
        N as f64,
        "one batch of N"
    );
    faultsim::clear();
    batcher.shutdown();
}

#[test]
fn shutdown_answers_expired_jobs_still_queued() {
    let _g = lock();
    faultsim::clear();
    let model = common::loaded_model();

    // The stall parks the flusher on its first iteration, so the job is
    // still queued, already expired, when shutdown closes the queue.
    faultsim::configure_str("stall@1").unwrap();
    let batcher = Batcher::new(64, Duration::from_millis(500), 8, None);
    let (job, rx) = common::judge_job(&model, test_pairs(1)[0], Some(Instant::now()));
    batcher.submit(job).expect("submit");
    batcher.shutdown();
    faultsim::clear();
    match rx.try_recv() {
        Ok(Err(JobError::Expired)) => {}
        other => panic!("expired queued job must get a typed answer, got {other:?}"),
    }
}
