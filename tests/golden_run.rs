//! Golden-run regression suite: a fixed-seed tiny pipeline
//! (simulate → train featurizer → train judge → evaluate) whose metrics
//! fingerprint is pinned bit-for-bit.
//!
//! One test function runs the pipeline four times — at 1 worker thread,
//! at 4 worker threads, with the portable kernel tier forced, and at 1
//! thread with obs metrics collection on — and requires all four
//! fingerprints to be identical to each other and to the committed golden
//! snapshot. This locks in, simultaneously:
//!
//! - seed determinism of the whole stack (sim, skip-gram, SSL, judge),
//! - the `crates/parallel` bit-identical-results invariant,
//! - that the scalar and AVX2 tiers of every kernel agree bit for bit,
//! - that observability instrumentation never perturbs the numerics.
//!
//! That the spatial prefilter never changes which pairs carry affinity
//! weight is checked on this corpus by
//! `hisrect::affinity::tests::prefiltered_build_is_bit_identical_to_exhaustive`:
//! equal affinity lists mean an equal training.
//!
//! A single `#[test]` (its own `[[test]]` binary) keeps `set_threads` and
//! the global obs flag free of cross-test races.
//!
//! To re-bless after an intentional numerics change:
//! `GOLDEN_BLESS=1 cargo test --test golden_run -- --nocapture`
//! and paste the printed array over `GOLDEN_BITS`.
//!
//! Re-blessed once in PR 14: `Matrix::sigmoid` / `Matrix::tanh` (every
//! LSTM gate on the tape, and the saved sigmoid of the BCE gradient) moved
//! from libm `expf`/`tanhf` to the `tensor::act` polynomials, which differ
//! from libm in the last ulp or two. Nothing else changed a bit: the
//! tape-free inference path is pinned to the tape forward by `to_bits`
//! tests. Softmax `exp`, the loss `ln` and the judge's output sigmoid
//! still go through libm.
//!
//! Re-blessed a second time when the content encoder began training in
//! batches: each featurizer step runs its whole batch of tweets through
//! one LSTM node per layer and direction, one convolution and one pooling,
//! with each parameter bound once per tape. Every forward value keeps its
//! bits (rows never mix; the first loss above is unchanged), but the
//! parameter gradients are now sums over the whole batch in a different
//! order — the recurrent weights' as one product over all rows, where the
//! per-profile graph added one outer product per step and one binding per
//! profile — so they differ in the last bits, and the trained values
//! after the first step with them. The tolerance bar that replaced
//! bit-identity for that change: batched gradients within `1e-5` of the
//! largest of their tensor against one profile at a time, forward values
//! and input gradients equal by bits (`nn::lstm` and `hisrect::fc`
//! proptests).

use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::{Ablation, HisRectModel};
use twitter_sim::{generate, SimConfig};

/// `f32::to_bits` of [`fingerprint`], captured at seed 42 / 40+40 iters.
const GOLDEN_BITS: &[u32] = &[
    0x4004a4dc, 0x3fb415a1, 0x3fd79f86, 0x3f2fe224, 0x3f2ec11d, 0x3f35ee7b, 0x40e0692c, 0x4442c000,
    0x42ea0000,
];

const SEED: u64 = 42;
const ITERS: usize = 40;

/// Trains the tiny pipeline and distills it into a few scalars that
/// depend on essentially every moving part.
fn fingerprint() -> Vec<f32> {
    let ds = generate(&SimConfig::tiny(SEED));
    let spec = ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: ITERS,
            judge_iters: ITERS,
            ..HisRectConfig::fast()
        };
    });
    let model = HisRectModel::train(&ds, &spec, SEED);
    let pair = ds.test.pos_pairs[0];
    let feat = model.feature(&ds, ds.test.labeled[0], Ablation::default());
    vec![
        *model.ssl_stats.poi_losses.first().expect("poi losses"),
        *model.ssl_stats.poi_losses.last().expect("poi losses"),
        model.ssl_stats.recent_poi_loss(10),
        *model.judge_losses.first().expect("judge losses"),
        *model.judge_losses.last().expect("judge losses"),
        model.judge_pair(&ds, pair.i, pair.j),
        feat.iter().sum::<f32>(),
        ds.profiles.len() as f32,
        ds.train.pos_pairs.len() as f32,
    ]
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn golden_run_is_bit_identical_across_threads_and_metrics() {
    parallel::set_threads(1);
    let serial = fingerprint();

    parallel::set_threads(4);
    let parallel4 = fingerprint();
    assert_eq!(
        bits(&serial),
        bits(&parallel4),
        "1-thread and 4-thread runs diverged: {serial:?} vs {parallel4:?}"
    );

    // Third leg: the portable kernel tier. The GEMM micro-kernels and
    // the `tensor::act` gate activations each have a scalar and an AVX2
    // implementation; forcing the scalar one must reproduce the same
    // bits, so the golden is tied to neither a kernel tier nor the
    // host's libm `expf`/`tanhf`.
    tensor::force_portable(Some(true));
    let portable = fingerprint();
    tensor::force_portable(None);
    assert_eq!(
        bits(&serial),
        bits(&portable),
        "portable kernel tier diverged from the dispatched one: {serial:?} vs {portable:?}"
    );

    // Fourth leg: metrics on. The numbers must not move, and the obs
    // registry must have seen the whole pipeline.
    parallel::set_threads(1);
    obs::set_enabled(true);
    obs::reset();
    let metered = fingerprint();
    obs::set_enabled(false);
    assert_eq!(
        bits(&serial),
        bits(&metered),
        "metrics collection perturbed the run: {serial:?} vs {metered:?}"
    );

    // Every executed iteration of each trainer left a loss sample.
    assert_eq!(obs::series_values("ssl/l_poi").len(), ITERS);
    assert_eq!(obs::series_values("ssl/grad_norm_poi").len(), ITERS);
    assert_eq!(obs::series_values("judge/l_co").len(), ITERS);
    for span in [
        "sim/generate",
        "affinity/build",
        "ssl/train_featurizer",
        "train/featurizer_phase",
        "train/judge_phase",
        "judge/train",
    ] {
        let stat = obs::span_stat(span).unwrap_or_else(|| panic!("span {span} never closed"));
        assert!(stat.count > 0 && stat.total_ns > 0, "span {span}: {stat:?}");
    }
    assert!(obs::counter_value("affinity/pairs_considered") > 0);
    assert!(
        obs::counter_value("tensor/matmul_serial") + obs::counter_value("tensor/matmul_parallel")
            > 0
    );
    let lat = obs::histogram("judge/pair_latency_ns").expect("judge latency recorded");
    assert!(lat.count() > 0);
    // §6.4.4 claims < 1 ms per pair; the tiny model must clear it easily.
    assert!(
        lat.mean() < 1e6,
        "mean pair latency {} ns exceeds 1 ms",
        lat.mean()
    );
    // The snapshot renders as JSON and carries the same series.
    let snap = obs::snapshot();
    let parsed: serde_json::Value = serde_json::from_str(&snap.to_json()).expect("valid JSON");
    assert!(parsed
        .get("series")
        .and_then(|s| s.get("ssl/l_poi"))
        .is_some());
    obs::reset();

    let got = bits(&serial);
    if std::env::var("GOLDEN_BLESS").is_ok() {
        let rendered: Vec<String> = got.iter().map(|b| format!("{b:#010x}")).collect();
        panic!("GOLDEN_BITS = [{}]", rendered.join(", "));
    }
    assert_eq!(
        got, GOLDEN_BITS,
        "golden fingerprint drifted (values: {serial:?}); if the numerics \
         changed intentionally, re-bless with GOLDEN_BLESS=1"
    );
}
