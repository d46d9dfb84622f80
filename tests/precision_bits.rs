//! Pins the served probabilities of both inference precisions across
//! commits. The served-vs-offline byte-identity tests run both sides
//! through whatever code is current, so they cannot see a change that
//! moves both; this test compares the golden run's tiny model (seed 42,
//! 40+40 iterations, see `golden_run.rs`) against constants, through
//! every [`JudgeService`] entry point, on both kernel tiers.
//!
//! A single `#[test]` in its own binary: `tensor::force_portable` is
//! process-global.
//!
//! Re-blessed once, with `golden_run.rs`, when the content encoder began
//! training in batches (see that file's header): the served code did not
//! change, but the trained model it serves differs in the last bits.
//! Every constant moved; the inference path that reads them is the same.

use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::{Ablation, HisRectModel};
use hisrect::{JudgeService, Precision};
use twitter_sim::{generate, SimConfig};

const SEED: u64 = 42;
const ITERS: usize = 40;

/// `to_bits` of `p_co` for `test.pos_pairs[0]`, of `Σ features_for(a)` and
/// of `Σ judge_embeddings(..)[0]`.
const PINNED: [(Precision, [u32; 3]); 2] = [
    (Precision::F32, [0x3f35ee7b, 0x40e0692c, 0x3f83d37b]),
    (Precision::Int8, [0x3f35de26, 0x40e0bb0e, 0x3f84b415]),
];

#[test]
fn precision_bits_are_pinned() {
    let ds = generate(&SimConfig::tiny(SEED));
    let spec = ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: ITERS,
            judge_iters: ITERS,
            ..HisRectConfig::fast()
        };
    });
    let trained = HisRectModel::train(&ds, &spec, SEED);
    let pair = ds.test.pos_pairs[0];
    let (a, b) = (ds.profile(pair.i), ds.profile(pair.j));

    for (precision, [p_co, feat_sum, embed_sum]) in PINNED {
        let model = HisRectModel::from_snapshot(trained.snapshot());
        let service = JudgeService::with_precision(model, ds.world.pois.clone(), precision);
        for portable in [None, Some(true)] {
            tensor::force_portable(portable);
            let tag = format!("{precision}, force_portable({portable:?})");

            let (fa, fb) = (service.features_for(a), service.features_for(b));
            assert_eq!(
                fa.iter().sum::<f32>().to_bits(),
                feat_sum,
                "Σ features_for(a) at {tag}"
            );
            assert_eq!(
                service.features_many(&[a, b], Ablation::default())[0],
                fa,
                "features_many vs features_for at {tag}"
            );

            let embeddings = service.judge_embeddings(&[fa.clone(), fb.clone()]);
            assert_eq!(
                embeddings[0].iter().sum::<f32>().to_bits(),
                embed_sum,
                "Σ judge_embeddings[0] at {tag}"
            );

            let batch = service.judge_features_batch(&[(&fa, &fb), (&fb, &fa)]);
            let probabilities = [
                ("judge_profiles", service.judge_profiles(a, b)),
                ("judge_features", service.judge_features(&fa, &fb)),
                ("judge_features_batch[0]", batch[0]),
                ("judge_features_batch[1]", batch[1]),
                (
                    "judge_from_embeddings",
                    service.judge_from_embeddings(&embeddings[0], &embeddings[1]),
                ),
            ];
            for (entry, p) in probabilities {
                assert_eq!(
                    p.to_bits(),
                    p_co,
                    "{entry} at {tag}: {p} = {:#010x}",
                    p.to_bits()
                );
            }
        }
    }
    tensor::force_portable(None);
}
