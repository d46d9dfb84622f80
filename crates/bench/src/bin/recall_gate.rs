//! ANN recall gate: the blocking CI evidence that candidate retrieval is
//! both *correct enough* (recall@10 ≥ 0.95 vs exhaustive scan) and
//! *sublinear in practice* (≥ 10× faster than that scan) on a
//! 100k-user world — the scale the ROADMAP's million-user north star
//! passes through next. The index scans its radius ring's Δt ranges
//! exactly, so recall falls short of 1 only where a true neighbour lies
//! outside the radius (the oracle has no spatial limit).
//!
//! The world is synthetic but shaped like the judge's real `E'` space:
//! the SSL objective pulls co-located users' embeddings together, so
//! embeddings correlate with tweet position. Here that correlation is
//! made explicit — two embedding dimensions are the local kilometre
//! coordinates, the rest is noise — because training a 100k-user judge
//! in CI is not feasible and the *index* properties under test (grid
//! bucketing, radius recall, Δt windowing, thread-count determinism) do
//! not depend on where the vectors came from.
//!
//! Also proves build determinism: the index is built at 1 and at 4
//! workers and the structure fingerprints must match bit-for-bit.
//!
//! Tunables: `HISRECT_RECALL_N` (users, default 100_000),
//! `HISRECT_RECALL_QUERIES` (default 256), `HISRECT_SEED` (default 7).
//! Writes `results/recall_gate.{json,txt}`.

use ann::{AnnConfig, AnnIndex, AnnItem, Neighbor};
use bench::gate::{env_or, Verdict};
use bench::report::{m4, Report};
use geo::GeoPoint;
use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Gate floors.
const MIN_RECALL: f64 = 0.95;
const MIN_SPEEDUP: f64 = 10.0;

/// World shape: a ~20 × 20 km metro box.
const LAT0: f64 = 40.50;
const LON0: f64 = -74.10;
const LAT1: f64 = 40.68;
const LON1: f64 = -73.86;
/// Co-location window (seconds) and retrieval radius.
const DELTA_T: i64 = 14_400;
const RADIUS_M: f64 = 2_000.0;
const K: usize = 10;
const EMBED_DIM: usize = 16;

/// One standard gaussian draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Clustered tweet world: ~400 venue centers, users gaussian-scattered
/// (σ = 250 m) around a random center, timestamps uniform over a day.
/// Embeddings: local (x, y) kilometres + noise dims, mirroring how the
/// SSL objective makes `E'` geo-correlated.
fn build_world(seed: u64, n: usize) -> Vec<AnnItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_centers = 400;
    let centers: Vec<(f64, f64)> = (0..n_centers)
        .map(|_| (rng.gen_range(LAT0..LAT1), rng.gen_range(LON0..LON1)))
        .collect();
    let sigma_deg = 250.0 / ann::METERS_PER_DEG;
    (0..n)
        .map(|i| {
            let (clat, clon) = centers[rng.gen_range(0..n_centers)];
            let lat = (clat + gaussian(&mut rng) * sigma_deg).clamp(LAT0, LAT1);
            let lon = (clon + gaussian(&mut rng) * sigma_deg / 0.76).clamp(LON0, LON1);
            let x_km = (lon - LON0) * ann::METERS_PER_DEG * 0.76 / 1_000.0;
            let y_km = (lat - LAT0) * ann::METERS_PER_DEG / 1_000.0;
            let mut embedding = vec![x_km as f32, y_km as f32];
            for _ in 2..EMBED_DIM {
                embedding.push(rng.gen_range(-0.17..0.17f32));
            }
            AnnItem {
                id: i as u32,
                point: GeoPoint::new(lat, lon),
                ts: rng.gen_range(0..86_400i64),
                embedding,
            }
        })
        .collect()
}

fn recall(ann: &[Neighbor], oracle: &[Neighbor]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let hits = oracle
        .iter()
        .filter(|o| ann.iter().any(|a| a.id == o.id))
        .count();
    hits as f64 / oracle.len() as f64
}

#[derive(Serialize)]
struct GateReport {
    n: usize,
    queries: usize,
    k: usize,
    recall_at_k: f64,
    speedup: f64,
    build_ms: f64,
    ann_query_us_mean: f64,
    exhaustive_query_us_mean: f64,
    fingerprint_threads_1: String,
    fingerprint_threads_4: String,
    thread_determinism: bool,
    min_recall: f64,
    min_speedup: f64,
}

fn main() -> ExitCode {
    let seed = env_or("HISRECT_SEED", 7u64);
    let n = env_or("HISRECT_RECALL_N", 100_000usize);
    let n_queries = env_or("HISRECT_RECALL_QUERIES", 256usize).min(n);
    let mut report = Report::new("recall_gate");

    let t0 = Instant::now();
    let items = build_world(seed, n);
    report.line(&format!(
        "world: {n} users, {EMBED_DIM}-d embeddings, Δt {DELTA_T}s, built in {:.0} ms",
        t0.elapsed().as_secs_f64() * 1e3
    ));

    let cfg = AnnConfig {
        cell_deg: 0.018, // ≈ 2 km cells: the 2 km radius ring spans 3×5 cells
        delta_t: Some(DELTA_T),
    };

    // Determinism across worker counts: same structure bit-for-bit.
    parallel::set_threads(1);
    let t1 = Instant::now();
    let idx_t1 = AnnIndex::build(items.clone(), cfg.clone());
    let build_t1_ms = t1.elapsed().as_secs_f64() * 1e3;
    parallel::set_threads(4);
    let t4 = Instant::now();
    let idx = AnnIndex::build(items.clone(), cfg);
    let build_ms = t4.elapsed().as_secs_f64() * 1e3;
    let (fp1, fp4) = (idx_t1.structure_fingerprint(), idx.structure_fingerprint());
    let deterministic = fp1 == fp4;
    report.line(&format!(
        "build: {build_ms:.0} ms at 4 workers ({build_t1_ms:.0} ms serial); \
         fingerprint {fp4:016x} {} serial build",
        if deterministic {
            "matches"
        } else {
            "DIFFERS FROM"
        }
    ));

    // Evenly spread query probes.
    let stride = (n / n_queries).max(1);
    let probes: Vec<&AnnItem> = items.iter().step_by(stride).take(n_queries).collect();

    let ta = Instant::now();
    let ann_answers: Vec<Vec<Neighbor>> = probes
        .iter()
        .map(|q| idx.query(&q.point, q.ts, &q.embedding, K, RADIUS_M))
        .collect();
    let ann_total = ta.elapsed();

    let te = Instant::now();
    let oracle_answers: Vec<Vec<Neighbor>> = probes
        .iter()
        .map(|q| idx.exhaustive(q.ts, &q.embedding, K))
        .collect();
    let exhaustive_total = te.elapsed();

    let mean_recall = ann_answers
        .iter()
        .zip(&oracle_answers)
        .map(|(a, o)| recall(a, o))
        .sum::<f64>()
        / probes.len() as f64;
    let speedup = exhaustive_total.as_secs_f64() / ann_total.as_secs_f64().max(1e-12);
    let ann_us = ann_total.as_secs_f64() * 1e6 / probes.len() as f64;
    let ex_us = exhaustive_total.as_secs_f64() * 1e6 / probes.len() as f64;

    report.table(
        &["Metric", "Value", "Gate"],
        &[
            vec![
                format!("recall@{K}"),
                m4(mean_recall),
                format!("≥ {MIN_RECALL}"),
            ],
            vec![
                "speedup vs exhaustive".into(),
                format!("{speedup:.1}×"),
                format!("≥ {MIN_SPEEDUP}×"),
            ],
            vec![
                "ann query mean".into(),
                format!("{ann_us:.0} µs"),
                "—".into(),
            ],
            vec![
                "exhaustive query mean".into(),
                format!("{ex_us:.0} µs"),
                "—".into(),
            ],
            vec![
                "thread-determinism".into(),
                deterministic.to_string(),
                "true".into(),
            ],
        ],
    );

    let payload = GateReport {
        n,
        queries: probes.len(),
        k: K,
        recall_at_k: mean_recall,
        speedup,
        build_ms,
        ann_query_us_mean: ann_us,
        exhaustive_query_us_mean: ex_us,
        fingerprint_threads_1: format!("{fp1:016x}"),
        fingerprint_threads_4: format!("{fp4:016x}"),
        thread_determinism: deterministic,
        min_recall: MIN_RECALL,
        min_speedup: MIN_SPEEDUP,
    };
    report.save(&payload);

    let mut verdict = Verdict::new("recall gate");
    verdict.at_least(&format!("recall@{K}"), mean_recall, MIN_RECALL);
    verdict.at_least("speedup vs exhaustive", speedup, MIN_SPEEDUP);
    verdict.equal(
        "index fingerprint at 4 workers vs 1",
        format!("{fp4:016x}"),
        format!("{fp1:016x}"),
    );
    verdict.finish()
}
