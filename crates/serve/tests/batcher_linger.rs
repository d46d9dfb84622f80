//! The micro-batcher's flush rule: a batch is flushed as soon as nobody
//! else is known to be coming, waits for an announced request, and never
//! waits past the linger cap (`batch_deadline`).
//!
//! No test here races a timer: each uses a 5 s cap against a 1 s bound
//! (or the reverse), so only a broken rule — not a slow box — fails it.

mod common;

use common::{judge_job, loaded_model, start_server, test_pairs};
use serve::{AdmissionConfig, Batcher, BreakerConfig, ClientResponse, HttpClient, ServerHandle};
use std::time::{Duration, Instant};

const LONG_CAP: Duration = Duration::from_secs(5);
const PROMPT: Duration = Duration::from_secs(1);

fn start_with_long_cap(tune: impl FnOnce(&mut serve::ServeConfig)) -> ServerHandle {
    start_server(|c| {
        c.batch_size = 64;
        c.batch_deadline = LONG_CAP;
        tune(c);
    })
}

/// One `/judge` of the first fixture pair; panics if the exchange took
/// anywhere near the linger cap.
fn prompt_judge(client: &mut HttpClient) -> ClientResponse {
    let (i, j) = test_pairs(1)[0];
    let start = Instant::now();
    let r = client
        .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
        .unwrap();
    assert!(
        start.elapsed() < PROMPT,
        "a lone /judge lingered {:?} ({} {})",
        start.elapsed(),
        r.status,
        r.body
    );
    r
}

/// Repeats [`prompt_judge`] until `want` accepts a response; the pauses
/// wait out a server-side timer (token refill, breaker cooldown).
fn judge_until(
    client: &mut HttpClient,
    what: &str,
    want: impl Fn(&ClientResponse) -> bool,
) -> ClientResponse {
    for _ in 0..200 {
        let r = prompt_judge(client);
        if want(&r) {
            return r;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("never saw {what}");
}

fn is_learned(r: &ClientResponse) -> bool {
    r.status == 200 && r.header("x-hisrect-degraded").is_none()
}

#[test]
fn lone_judge_is_flushed_without_waiting_for_the_cap() {
    let server = start_with_long_cap(|_| {});
    let mut client = HttpClient::new(server.addr());
    for _ in 0..3 {
        assert!(is_learned(&prompt_judge(&mut client)));
    }
    assert_eq!(server.batch_stats(), (3, 3), "three batches of one");
    server.shutdown();
}

#[test]
fn requests_that_bail_out_leave_no_arrival_behind() {
    // Out-of-range 400 and admission-shed 503: one token per 100 ms, so
    // back-to-back requests drain the bucket and a short pause refills it.
    let server = start_with_long_cap(|c| {
        c.admission = AdmissionConfig {
            rate: 10.0,
            burst: 1.0,
            queue_high_watermark: 1.0,
        };
    });
    let mut client = HttpClient::new(server.addr());
    let r = client.post("/judge", "{\"i\":999999999,\"j\":0}").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    judge_until(&mut client, "an admission shed", |r| {
        r.status == 503 && r.header("x-hisrect-shed") == Some("admission")
    });
    assert_eq!(server.judge_arrivals(), 0);
    judge_until(&mut client, "a learned verdict after the sheds", is_learned);
    server.shutdown();

    // Breaker-degraded 200: a 1 ns latency budget makes the first learned
    // answer trip the breaker; after the cooldown the probe is learned.
    let server = start_with_long_cap(|c| {
        c.breaker = BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(200),
            latency_budget: Duration::from_nanos(1),
        };
    });
    let mut client = HttpClient::new(server.addr());
    assert!(is_learned(&prompt_judge(&mut client)));
    judge_until(&mut client, "a degraded verdict", |r| {
        r.status == 200 && r.header("x-hisrect-degraded").is_some()
    });
    assert_eq!(server.judge_arrivals(), 0);
    judge_until(
        &mut client,
        "a learned probe after the cooldown",
        is_learned,
    );
    server.shutdown();
}

#[test]
fn announced_request_joins_the_open_batch() {
    let model = loaded_model();
    let pairs = test_pairs(2);
    let batcher = Batcher::new(8, LONG_CAP, 8, None);
    // The second request is announced before the first is even queued…
    let announced = batcher.arrival();
    let (first, first_rx) = judge_job(&model, pairs[0], None);
    batcher.submit(first).expect("submit");
    // …so the flusher holds the first job open. Heartbeat 1 is the parked
    // flusher, 2 its decision to wait for the announced job.
    let waiting_since = Instant::now();
    while batcher.heartbeat() < 2 {
        assert!(waiting_since.elapsed() < LONG_CAP, "flusher never lingered");
        std::thread::yield_now();
    }
    // The handler's order: release the ticket, then submit.
    drop(announced);
    let (second, second_rx) = judge_job(&model, pairs[1], None);
    batcher.submit(second).expect("submit");
    for rx in [first_rx, second_rx] {
        rx.recv_timeout(PROMPT)
            .expect("the arrival ends the linger")
            .expect("judged");
    }
    assert_eq!(batcher.stats().mean_batch_size(), 2.0, "one batch of two");
    batcher.shutdown();
}

#[test]
fn linger_ends_at_the_cap_when_the_announced_request_never_arrives() {
    let cap = Duration::from_millis(50);
    let model = loaded_model();
    let batcher = Batcher::new(8, cap, 8, None);
    // Announced for the whole test, as a request stuck (or bailing out)
    // between dispatch and submit would be.
    let announced = batcher.arrival();
    let (job, rx) = judge_job(&model, test_pairs(1)[0], None);
    let start = Instant::now();
    batcher.submit(job).expect("submit");
    rx.recv_timeout(LONG_CAP)
        .expect("the cap bounds the wait for an arrival that never comes")
        .expect("judged");
    assert!(
        start.elapsed() >= cap,
        "an announced arrival must hold the batch open: {:?}",
        start.elapsed()
    );
    drop(announced);
    assert_eq!(batcher.arrivals(), 0);
    batcher.shutdown();
}
