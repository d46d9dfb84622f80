//! Quantization accuracy gate: trains one HisRect model, evaluates the
//! Table-4 co-location metrics (§6.1.1, 10-fold negative protocol) at
//! f32 and at int8 over the *same* weights, and fails when any metric
//! drifts by more than half a point. CI runs this as a blocking step, so
//! a quantization change that moves verdicts cannot land silently.
//!
//! Tunables: `HISRECT_SEED` (simulation/training seed, default 7) and
//! `HISRECT_QUANT_GATE_ITERS` (featurizer/judge iterations, default 150).

use bench::gate::{env_or, Verdict};
use bench::report::{m4, Report};
use eval::averaged_metrics;
use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::{Ablation, HisRectModel};
use hisrect::{JudgeService, Precision};
use serde::Serialize;
use std::collections::HashMap;
use std::process::ExitCode;
use twitter_sim::{generate, Dataset, Profile, ProfileIdx, SimConfig};

/// Maximum tolerated |f32 - int8| drift per metric, in fractions:
/// 0.005 = half a point on the percentage scale Table 4 reports.
const MAX_DRIFT: f64 = 0.005;

#[derive(Serialize)]
struct GateRow {
    precision: &'static str,
    acc: f64,
    rec: f64,
    pre: f64,
    f1: f64,
}

/// Table-4 metrics of one service over the test split, features
/// precomputed once per service so both passes pay the same work.
fn table4_metrics(service: &JudgeService, ds: &Dataset) -> eval::BinaryMetrics {
    let mut idxs: Vec<ProfileIdx> = ds
        .test
        .pos_pairs
        .iter()
        .chain(&ds.test.neg_pairs)
        .flat_map(|p| [p.i, p.j])
        .collect();
    idxs.sort_unstable();
    idxs.dedup();
    let profiles: Vec<&Profile> = idxs.iter().map(|&i| ds.profile(i)).collect();
    let feats: HashMap<ProfileIdx, Vec<f32>> = idxs
        .iter()
        .copied()
        .zip(service.features_many(&profiles, Ablation::default()))
        .collect();
    averaged_metrics(&ds.test.pos_pairs, &ds.test.neg_pairs, 10, |p| {
        service.judge_features(&feats[&p.i], &feats[&p.j]) > 0.5
    })
}

fn main() -> ExitCode {
    let seed = env_or("HISRECT_SEED", 7u64);
    let iters = env_or("HISRECT_QUANT_GATE_ITERS", 150usize);
    let mut report = Report::new("quant_gate");

    let mut cfg = SimConfig::tiny(seed);
    cfg.n_users = 80;
    cfg.n_pois = 12;
    let ds = generate(&cfg);
    report.line(&format!(
        "dataset {} (seed {seed}): {}+ / {}- test pairs, {iters} iters",
        ds.name,
        ds.test.pos_pairs.len(),
        ds.test.neg_pairs.len()
    ));

    let spec = ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: iters,
            judge_iters: iters,
            ..HisRectConfig::fast()
        };
    });
    let model = HisRectModel::train(&ds, &spec, seed);
    // An identical twin of the trained weights, so the f32 and int8
    // services judge exactly the same model.
    let twin = HisRectModel::try_from_snapshot(model.snapshot()).expect("snapshot round-trip");

    let f32_service = JudgeService::with_precision(model, ds.world.pois.clone(), Precision::F32);
    let int8_service = JudgeService::with_precision(twin, ds.world.pois.clone(), Precision::Int8);

    let mf = table4_metrics(&f32_service, &ds);
    let mq = table4_metrics(&int8_service, &ds);

    let rows = vec![
        GateRow {
            precision: "f32",
            acc: mf.acc,
            rec: mf.rec,
            pre: mf.pre,
            f1: mf.f1,
        },
        GateRow {
            precision: "int8",
            acc: mq.acc,
            rec: mq.rec,
            pre: mq.pre,
            f1: mq.f1,
        },
    ];
    report.table(
        &["Precision", "Acc", "Rec", "Pre", "F1"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.precision.to_string(),
                    m4(r.acc),
                    m4(r.rec),
                    m4(r.pre),
                    m4(r.f1),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut verdict = Verdict::new("quant gate");
    for (name, f, q) in [
        ("Acc", mf.acc, mq.acc),
        ("Rec", mf.rec, mq.rec),
        ("Pre", mf.pre, mq.pre),
        ("F1", mf.f1, mq.f1),
    ] {
        let drift = (f - q).abs();
        report.line(&format!(
            "gate {:<4} {name:<4} f32 {} int8 {} drift {:.2} pt (limit {:.2} pt)",
            if drift <= MAX_DRIFT { "PASS" } else { "FAIL" },
            m4(f),
            m4(q),
            drift * 100.0,
            MAX_DRIFT * 100.0
        ));
        verdict.at_most(&format!("{name} |f32 - int8| drift"), drift, MAX_DRIFT);
    }
    report.save(&rows);
    verdict.finish()
}
