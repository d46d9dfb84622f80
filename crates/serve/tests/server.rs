//! Integration tests: in-process server on an ephemeral port, driven by
//! the minimal keep-alive client. The central claim under test is the
//! serving contract: a served `/judge` response is byte-identical to the
//! offline judgement of the same pair with the same snapshot — cache
//! cold, cache warm, and through the micro-batcher.

mod common;

use common::{
    fixture, offline_judgement, second_model_path, start_server, start_server_with_precision,
    test_pairs,
};
use hisrect::{JudgeService, Judgement, Precision};
use serve::batcher::{Batcher, JobError};
use serve::HttpClient;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

#[test]
fn judge_is_byte_identical_to_offline_cold_and_warm() {
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    for (i, j) in test_pairs(3) {
        let expected = offline_judgement(i, j);
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        // Cold cache: features are computed on this first request.
        let cold = client.post("/judge", &body).unwrap();
        assert_eq!(cold.status, 200, "cold judge failed: {}", cold.body);
        assert_eq!(cold.body, expected, "cold response differs from offline");
        // Warm cache: same bytes again, now served from cached features.
        let warm = client.post("/judge", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, expected, "warm response differs from offline");
    }
    let (hits, misses) = server.cache_stats();
    assert!(hits > 0, "repeat queries must hit the cache");
    assert!(misses > 0, "first queries must miss the cache");
    server.shutdown();
}

#[test]
fn judge_batch_matches_single_judgements() {
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    let pairs = test_pairs(5);
    let body = format!(
        "{{\"pairs\":[{}]}}",
        pairs
            .iter()
            .map(|(i, j)| format!("[{i},{j}]"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let batch = client.post("/judge_batch", &body).unwrap();
    assert_eq!(batch.status, 200, "batch failed: {}", batch.body);
    for (i, j) in &pairs {
        let single = client
            .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
            .unwrap();
        assert_eq!(single.status, 200);
        // The batch body embeds each judgement with the same bytes the
        // single endpoint answers.
        assert!(
            batch.body.contains(&single.body),
            "batch response {} does not embed single judgement {}",
            batch.body,
            single.body
        );
    }
    server.shutdown();
}

fn batch_body(pairs: &[(usize, usize)]) -> String {
    let pairs: Vec<String> = pairs.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    format!("{{\"pairs\":[{}]}}", pairs.join(","))
}

#[test]
fn judge_batch_fills_each_cold_profile_once_and_checks_indices_first() {
    let n = fixture().corpus.profiles.len();
    for precision in [Precision::F32, Precision::Int8] {
        let server = start_server_with_precision(precision, |_| {});
        let mut client = HttpClient::new(server.addr());

        // Rejected before any lookup: the 400 names the first bad index
        // in request order, and nothing is featurized or cached.
        let bad = batch_body(&[(0, 1), (2, 3), (n + 5, 4), (5, n + 9)]);
        let r = client.post("/judge_batch", &bad).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        let want = format!(
            "profile index {} out of range (corpus has {n} profiles)",
            n + 5
        );
        assert!(r.body.contains(&want), "{}", r.body);
        let r = client
            .post("/judge", &format!("{{\"i\":0,\"j\":{n}}}"))
            .unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert_eq!(
            server.cache_stats(),
            (0, 0),
            "{precision}: rejected requests did work"
        );

        // Profiles 0 and 1 hot; 2..=5 cold, repeated within the batch.
        let warm = client.post("/judge", "{\"i\":0,\"j\":1}").unwrap();
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert_eq!(server.cache_stats(), (0, 2));
        let pairs = [(0, 2), (2, 3), (3, 0), (4, 4), (1, 5), (2, 3)];
        let batch = client.post("/judge_batch", &batch_body(&pairs)).unwrap();
        assert_eq!(batch.status, 200, "{}", batch.body);
        // One miss per distinct cold profile; every other lookup hits.
        assert_eq!(server.cache_stats(), (2 * pairs.len() as u64 - 4, 2 + 4));

        let singles: Vec<String> = pairs
            .iter()
            .map(|(i, j)| {
                let r = client
                    .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
                    .unwrap();
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            })
            .collect();
        let want = format!("{{\"judgements\":[{}]}}", singles.join(","));
        assert_eq!(
            batch.body, want,
            "{precision}: batch differs from per-pair /judge"
        );
        assert_eq!(
            server.cache_stats().1,
            6,
            "per-pair /judge found every profile cached"
        );
        server.shutdown();
    }
}

#[test]
fn concurrent_judgements_coalesce_into_batches() {
    let server = start_server(|c| {
        c.workers = 8;
        c.batch_size = 8;
    });
    let addr = server.addr();
    let pairs = test_pairs(4);
    let expected: Vec<String> = pairs
        .iter()
        .map(|&(i, j)| offline_judgement(i, j))
        .collect();

    // Warm the feature cache first so concurrent requests reach the
    // batcher together instead of serializing on feature computation.
    let mut warm = HttpClient::new(addr);
    for (i, j) in &pairs {
        let r = warm
            .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
            .unwrap();
        assert_eq!(r.status, 200);
    }

    let threads: Vec<_> = (0..16)
        .map(|k| {
            let pairs = pairs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = HttpClient::new(addr);
                for round in 0..4 {
                    let pick = (k + round) % pairs.len();
                    let (i, j) = pairs[pick];
                    let r = client
                        .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
                        .unwrap();
                    assert_eq!(r.status, 200, "concurrent judge failed: {}", r.body);
                    assert_eq!(r.body, expected[pick], "response drifted under concurrency");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread panicked");
    }

    // How the 68 jobs split into batches is thread timing; coalescing is
    // pinned without a race in `jobs_that_follow_a_flush_closely_share_the_next_one`
    // and `overload_http::backlog_behind_a_held_flusher_is_one_batch`.
    let (batches, jobs) = server.batch_stats();
    assert_eq!(jobs, 4 + 16 * 4);
    assert!(batches > 0);
    let (hits, _) = server.cache_stats();
    assert!(hits > 0);
    server.shutdown();
}

#[test]
fn judge_after_an_idle_spell_is_flushed_at_once() {
    // The flush window is measured from the previous flush, so a request
    // that finds the flusher idle never waits for company. With flushes
    // kept 5 s apart the exchange must take under 1 s — a 5 000x margin
    // over the real cost, so only a timer armed at the first job fails
    // this, not a slow box.
    let server = start_server(|c| {
        c.batch_size = 64;
        c.batch_deadline = Duration::from_secs(5);
    });
    let mut client = HttpClient::new(server.addr());
    let (i, j) = test_pairs(1)[0];
    let start = Instant::now();
    let r = client
        .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "a lone /judge waited {:?}",
        start.elapsed()
    );
    assert_eq!(server.batch_stats(), (1, 1));
    server.shutdown();
}

#[test]
fn jobs_that_follow_a_flush_closely_share_the_next_one() {
    const SPACING: Duration = Duration::from_millis(300);
    let model = common::loaded_model();
    let pairs = test_pairs(3);
    let batcher = Batcher::new(8, SPACING, 8, None);
    let judged = |rx: Receiver<Result<f32, JobError>>, (i, j): (usize, usize)| {
        let p = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the flusher answers")
            .expect("judged");
        let body = serde_json::to_string(&Judgement::from_probability(i, j, p)).unwrap();
        assert_eq!(body, offline_judgement(i, j), "batched row drifted");
    };

    // The first job finds an idle flusher: a batch of one, at once.
    let start = Instant::now();
    let (job, rx) = common::judge_job(&model, pairs[0], None);
    batcher.submit(job).expect("queue has room");
    judged(rx, pairs[0]);
    assert!(start.elapsed() < SPACING, "the first job waited");

    // The next two arrive inside the window that flush opened: they are
    // held until it closes and judged together.
    let followers: Vec<_> = pairs[1..]
        .iter()
        .map(|&pair| {
            let (job, rx) = common::judge_job(&model, pair, None);
            batcher.submit(job).expect("queue has room");
            rx
        })
        .collect();
    for (rx, &pair) in followers.into_iter().zip(&pairs[1..]) {
        judged(rx, pair);
    }
    assert!(
        start.elapsed() >= SPACING,
        "two flushes only {:?} apart",
        start.elapsed()
    );
    let stats = batcher.stats();
    assert_eq!(stats.batches.load(Ordering::Relaxed), 2);
    assert_eq!(stats.jobs.load(Ordering::Relaxed), 3);
    batcher.shutdown();
}

#[test]
fn shutdown_closes_an_open_window() {
    let model = common::loaded_model();
    let pair = test_pairs(1)[0];
    let batcher = Batcher::new(8, Duration::from_secs(5), 8, None);
    let (job, rx) = common::judge_job(&model, pair, None);
    batcher.submit(job).expect("queue has room");
    rx.recv_timeout(Duration::from_secs(1))
        .expect("an idle flusher answers at once")
        .expect("judged");

    // Already expired, and held for company until 5 s after that flush —
    // unless the queue closes first.
    let (job, rx) = common::judge_job(&model, pair, Some(Instant::now()));
    batcher.submit(job).expect("queue has room");
    let start = Instant::now();
    batcher.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "shutdown waited the window out: {:?}",
        start.elapsed()
    );
    assert_eq!(rx.try_recv(), Ok(Err(JobError::Expired)));
}

#[test]
fn reload_bumps_generation_and_answers_stay_identical() {
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"generation\":1"), "{}", health.body);

    let (i, j) = test_pairs(1)[0];
    let body = format!("{{\"i\":{i},\"j\":{j}}}");
    let before = client.post("/judge", &body).unwrap();
    assert_eq!(before.status, 200);

    let reload = client.post("/reload", "").unwrap();
    assert_eq!(reload.status, 200, "reload failed: {}", reload.body);
    assert!(reload.body.contains("\"generation\":2"), "{}", reload.body);
    let health = client.get("/healthz").unwrap();
    assert!(health.body.contains("\"generation\":2"), "{}", health.body);

    // Same snapshot path ⇒ same answer, recomputed under the new
    // generation (the old cache entries are unreachable by key).
    let after = client.post("/judge", &body).unwrap();
    assert_eq!(after.status, 200);
    assert_eq!(after.body, before.body);
    server.shutdown();
}

/// Word tables and int8 weights are derived per loaded model: after
/// `/reload` to a model with other weights, `/judge_batch` (every profile
/// a cache miss of the new generation) answers exactly what that model
/// judges offline, at either precision.
#[test]
fn reload_to_a_second_model_serves_its_offline_judgements() {
    let fix = fixture();
    let second = second_model_path();
    let pairs = test_pairs(4);
    let offline = |path: &std::path::Path, precision: Precision| {
        let pois = fix.corpus.world.pois.clone();
        let service = JudgeService::load_with_precision(path, pois, precision).unwrap();
        let judgements: Vec<String> = pairs
            .iter()
            .map(|&(i, j)| {
                let fa = service.features_for(fix.corpus.profile(i));
                let fb = service.features_for(fix.corpus.profile(j));
                let p = service.judge_features(&fa, &fb);
                serde_json::to_string(&Judgement::from_probability(i, j, p)).unwrap()
            })
            .collect();
        format!("{{\"judgements\":[{}]}}", judgements.join(","))
    };
    let reload = format!(
        "{{\"model\":{}}}",
        serde_json::to_string(&second.display().to_string()).unwrap()
    );
    for precision in [Precision::F32, Precision::Int8] {
        let server = start_server_with_precision(precision, |_| {});
        let mut client = HttpClient::new(server.addr());
        let first = offline(&fix.model_path, precision);
        let r = client.post("/judge_batch", &batch_body(&pairs)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, first, "{precision}: first model");

        let r = client.post("/reload", &reload).unwrap();
        assert_eq!(r.status, 200, "reload failed: {}", r.body);
        let want = offline(second, precision);
        assert_ne!(want, first, "the second model must judge differently");
        let r = client.post("/judge_batch", &batch_body(&pairs)).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(r.body, want, "{precision}: after the reload");
        server.shutdown();
    }
}

#[test]
fn metrics_endpoint_reports_serving_counters() {
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    let (i, j) = test_pairs(1)[0];
    let r = client
        .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
        .unwrap();
    assert_eq!(r.status, 200);
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed: serde::Value = serde_json::from_str(&metrics.body).expect("metrics is JSON");
    let counters = parsed.get("counters").expect("counters section");
    assert!(
        counters
            .get("serve/requests")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            > 0,
        "metrics must count requests: {}",
        metrics.body
    );
    let waits = parsed
        .get("histograms")
        .and_then(|h| h.get("serve/batcher_wait_ms"));
    assert!(
        waits.is_some(),
        "metrics must carry the batcher-wait stage: {}",
        metrics.body
    );
    server.shutdown();
}

#[test]
fn typed_errors_for_bad_requests() {
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());

    let r = client.post("/judge", "{\"i\":999999999,\"j\":0}").unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    assert!(r.body.contains("out of range"));

    let r = client.post("/judge", "definitely not json").unwrap();
    assert_eq!(r.status, 400);

    let r = client.get("/no_such_endpoint").unwrap();
    assert_eq!(r.status, 404);

    let r = client.request("DELETE", "/judge", None).unwrap();
    assert_eq!(r.status, 405);

    // The server is still healthy after the error volley.
    let r = client.get("/healthz").unwrap();
    assert_eq!(r.status, 200);
    server.shutdown();
}
