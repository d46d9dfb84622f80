//! Integration tests: in-process server on an ephemeral port, driven by
//! the minimal keep-alive client. The central claim under test is the
//! serving contract: a served `/judge` response is byte-identical to the
//! offline judgement of the same pair with the same snapshot — cache
//! cold, cache warm, and through the micro-batcher.

mod common;

use common::{fixture, judge_job, loaded_model, start_server, test_pairs};
use hisrect::{JudgeService, Judgement};
use serve::{Batcher, HttpClient};
use std::time::Duration;

/// The offline reference: exactly what the CLI computes for a pair,
/// loading the same snapshot from disk.
fn offline_judgement(i: usize, j: usize) -> String {
    let fix = fixture();
    let service = JudgeService::load(&fix.model_path, fix.corpus.world.pois.clone())
        .expect("load fixture model");
    let fa = service.features_for(fix.corpus.profile(i));
    let fb = service.features_for(fix.corpus.profile(j));
    let p = service.judge_features(&fa, &fb);
    serde_json::to_string(&Judgement::from_probability(i, j, p)).expect("serializable")
}

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

#[test]
fn concurrent_judgements_coalesce_into_batches() {
    const N: usize = 4;
    let model = loaded_model();
    let pairs = test_pairs(N);
    // An outstanding arrival keeps the batch open however the submits
    // interleave with the flusher, so it can only flush on size: N jobs,
    // one forward pass.
    let batcher = Batcher::new(N, Duration::from_secs(5), 2 * N, None);
    let announced = batcher.arrival();
    let answers: Vec<_> = pairs
        .iter()
        .map(|&pair| {
            let (job, rx) = judge_job(&model, pair, None);
            batcher.submit(job).expect("queue has room");
            rx
        })
        .collect();
    for (&(i, j), rx) in pairs.iter().zip(answers) {
        let p = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("a full batch flushes without waiting out the linger cap")
            .expect("judged");
        let body = serde_json::to_string(&Judgement::from_probability(i, j, p)).unwrap();
        assert_eq!(body, offline_judgement(i, j), "batched row drifted");
    }
    drop(announced);
    assert_eq!(
        batcher.stats().mean_batch_size(),
        N as f64,
        "one batch of N"
    );
    batcher.shutdown();
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
