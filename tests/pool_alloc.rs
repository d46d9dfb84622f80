//! Acceptance test for the tape buffer pool: training with the pool on
//! must allocate at most a tenth of what the identical run allocates
//! with the pool bypassed (the "≥90% fewer allocations per epoch"
//! criterion). Allocation counts come from the pool's own counters —
//! with the pool disabled every take is recorded as a miss, so the two
//! runs are directly comparable.

use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::HisRectModel;
use tensor::pool;
use twitter_sim::{generate, Dataset, SimConfig};

fn spec() -> ApproachSpec {
    ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: 60,
            judge_iters: 60,
            ..HisRectConfig::fast()
        };
    })
}

/// Matrix allocations (pool misses) during one full training run. The
/// tiny config keeps every matmul under the parallel threshold, so all
/// allocations land on this thread's pool and nothing escapes to
/// short-lived workers.
fn misses_during_training(ds: &Dataset, pool_on: bool) -> u64 {
    pool::clear();
    pool::set_enabled(pool_on);
    pool::reset_stats();
    let model = HisRectModel::train(ds, &spec(), 5);
    assert!(!model.ssl_stats.poi_losses.is_empty());
    assert!(!model.judge_losses.is_empty());
    let stats = pool::stats();
    eprintln!("pool_on={pool_on}: {stats:?}");
    pool::set_enabled(true);
    pool::clear();
    stats.misses
}

#[test]
fn pool_cuts_training_allocations_by_90_percent() {
    let ds = generate(&SimConfig::tiny(5));
    let without_pool = misses_during_training(&ds, false);
    let with_pool = misses_during_training(&ds, true);
    assert!(
        without_pool > 1_000,
        "bypass run should allocate per iteration: {without_pool}"
    );
    assert!(
        with_pool * 10 <= without_pool,
        "pool saved too little: {with_pool} allocations with pool vs {without_pool} without"
    );
}

/// The tape-free eval forward runs on per-thread scratch, not on pooled
/// matrices: once warm, featurizing a profile on the BiLSTM-C path takes
/// exactly two buffers from the pool — the `[Fv | Fc]` row the head
/// consumes and the feature row it returns — where the tape forward took
/// one per recorded node (~300 for an 8-word tweet). `features_for` takes
/// the same two: its `ProfileInput` holds word ids, no matrix. Nothing
/// misses, so nothing is allocated.
#[test]
fn warm_eval_forward_takes_only_its_input_and_output_rows_from_the_pool() {
    use hisrect::model::Ablation;
    use hisrect::JudgeService;

    let ds = generate(&SimConfig::tiny(5));
    let model = HisRectModel::train(&ds, &spec(), 5);
    let service = JudgeService::new(model, ds.world.pois.clone());
    let profiles: Vec<_> = ds.test.labeled.iter().map(|&i| ds.profile(i)).collect();
    assert!(profiles.iter().any(|p| p.tokens.len() >= 3));
    let inputs: Vec<_> = profiles
        .iter()
        .map(|p| {
            service
                .model()
                .profile_input(service.pois(), p, Ablation::default())
        })
        .collect();
    let takes = || {
        let s = pool::stats();
        (s.hits + s.misses, s.misses)
    };

    // Warm-up: scratch grows to the longest tweet, the pool shelves fill.
    for (p, input) in profiles.iter().zip(&inputs) {
        service.features_for(p);
        service.model().featurize_inputs(&[input]);
    }

    pool::reset_stats();
    for input in &inputs {
        std::hint::black_box(service.model().featurize_inputs(&[input]));
    }
    assert_eq!(takes(), (2 * inputs.len() as u64, 0), "featurize_inputs");

    // A batch lays its tweets out in scratch too: two buffers however
    // many profiles it holds. Its products cross the packed kernel's
    // threshold, whose operand panels also come from the pool (hits once
    // warm), so the count is taken with every product on the simple
    // kernel; the bits are the same either way.
    let batch: Vec<_> = inputs.iter().cycle().take(32).collect();
    service.model().featurize_inputs(&batch);
    pool::reset_stats();
    std::hint::black_box(service.model().featurize_inputs(&batch));
    assert_eq!(takes().1, 0, "warm 32-profile featurize_inputs allocated");
    let threshold = tensor::pack_threshold();
    tensor::set_pack_threshold(usize::MAX);
    pool::reset_stats();
    std::hint::black_box(service.model().featurize_inputs(&batch));
    let simple = takes();
    tensor::set_pack_threshold(threshold);
    assert_eq!(simple, (2, 0), "32-profile featurize_inputs");

    pool::reset_stats();
    for p in &profiles {
        std::hint::black_box(service.features_for(p));
    }
    assert_eq!(takes(), (2 * profiles.len() as u64, 0), "features_for");
}
