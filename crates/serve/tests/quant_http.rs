//! Integration tests for the quantized serving path: an int8 server must
//! answer `/judge` with exactly the bytes the offline int8 service
//! produces, the micro-batched path must stay verdict-identical to
//! per-request judgement, and `/healthz` must advertise the precision
//! and kernel tier so `cluster_gate` can record them.

mod common;

use common::{fixture, start_server_with_precision, test_pairs};
use hisrect::{JudgeService, Judgement, Precision};
use serve::HttpClient;

/// The offline int8 reference: the same snapshot, quantized at load the
/// way the registry does it.
fn offline_int8_judgement(i: usize, j: usize) -> String {
    let fix = fixture();
    let service = JudgeService::load_with_precision(
        &fix.model_path,
        fix.corpus.world.pois.clone(),
        Precision::Int8,
    )
    .expect("load fixture model at int8");
    let fa = service.features_for(fix.corpus.profile(i));
    let fb = service.features_for(fix.corpus.profile(j));
    let p = service.judge_features(&fa, &fb);
    serde_json::to_string(&Judgement::from_probability(i, j, p)).expect("serializable")
}

#[test]
fn int8_judge_is_byte_identical_to_offline_int8() {
    let server = start_server_with_precision(Precision::Int8, |_| {});
    let mut client = HttpClient::new(server.addr());
    for (i, j) in test_pairs(3) {
        let expected = offline_int8_judgement(i, j);
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        let cold = client.post("/judge", &body).unwrap();
        assert_eq!(cold.status, 200, "cold judge failed: {}", cold.body);
        assert_eq!(
            cold.body, expected,
            "cold int8 response differs from offline"
        );
        let warm = client.post("/judge", &body).unwrap();
        assert_eq!(warm.status, 200);
        assert_eq!(
            warm.body, expected,
            "warm int8 response differs from offline"
        );
    }
    server.shutdown();
}

#[test]
fn int8_batch_matches_single_judgements() {
    // Per-row activation scales make a fused batch row bit-identical to
    // the single-pair call, so the bytes must agree.
    let server = start_server_with_precision(Precision::Int8, |_| {});
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
        assert!(
            batch.body.contains(&single.body),
            "int8 batch response {} does not embed single judgement {}",
            batch.body,
            single.body
        );
    }
    server.shutdown();
}

#[test]
fn healthz_reports_precision_and_kernel() {
    let server = start_server_with_precision(Precision::Int8, |_| {});
    let mut client = HttpClient::new(server.addr());
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert!(
        health.body.contains("\"precision\":\"int8\""),
        "healthz must report int8 precision: {}",
        health.body
    );
    let kernel_ok = health.body.contains("\"kernel\":\"avx2\"")
        || health.body.contains("\"kernel\":\"portable\"");
    assert!(
        kernel_ok,
        "healthz must report the kernel tier: {}",
        health.body
    );
    server.shutdown();
}
