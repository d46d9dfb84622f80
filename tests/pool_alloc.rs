//! Acceptance test for the tape buffer pool: training with the pool
//! must allocate at most a tenth of what the identical run would
//! allocate without it (the "≥90% fewer allocations per epoch"
//! criterion). Allocation counts come from the pool's own counters.
//! Takes are deterministic and every take the pool cannot serve is a
//! miss, so `hits + misses` is what a run without the pool allocates
//! and `misses` is what this run allocated.

use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::HisRectModel;
use tensor::pool;
use twitter_sim::{generate, SimConfig};

fn spec() -> ApproachSpec {
    ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: 60,
            judge_iters: 60,
            ..HisRectConfig::fast()
        };
    })
}

/// The tiny config keeps every matmul under the parallel threshold, so
/// all takes land on this thread's pool and nothing escapes to
/// short-lived workers.
#[test]
fn pool_cuts_training_allocations_by_90_percent() {
    let ds = generate(&SimConfig::tiny(5));
    pool::clear();
    pool::reset_stats();
    let model = HisRectModel::train(&ds, &spec(), 5);
    assert!(!model.ssl_stats.poi_losses.is_empty());
    assert!(!model.judge_losses.is_empty());
    let s = pool::stats();
    eprintln!("{s:?}");
    pool::clear();
    let takes = s.hits + s.misses;
    assert!(takes > 1_000, "training should take per iteration: {takes}");
    assert!(
        s.misses * 10 <= takes,
        "pool saved too little: {} allocations out of {takes} takes",
        s.misses
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
    // threshold, and each packed product takes its B panels and its A
    // strip from the pool as well: 22 more takes at this batch's shapes
    // (all on the calling thread, on any kernel tier), every one a hit.
    let batch: Vec<_> = inputs.iter().cycle().take(32).collect();
    service.model().featurize_inputs(&batch);
    pool::reset_stats();
    std::hint::black_box(service.model().featurize_inputs(&batch));
    assert_eq!(takes(), (2 + 22, 0), "32-profile featurize_inputs");

    pool::reset_stats();
    for p in &profiles {
        std::hint::black_box(service.features_for(p));
    }
    assert_eq!(takes(), (2 * profiles.len() as u64, 0), "features_for");
}
