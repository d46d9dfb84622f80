//! Composite finite-difference gradient check through the full HisRect
//! featurizer loss: `Fv ⊕ BiLSTM-C ⊕ FFN head ⊕ POI classifier` under
//! softmax cross-entropy. The per-op checks live in `nn`; this test
//! guards the cross-crate composition the SSL trainer actually
//! differentiates (Algorithm 1's supervised branch).

use hisrect::config::{ContentEncoder, HisRectConfig, HistoryEncoder};
use hisrect::featurizer::{Featurizer, ProfileInput};
use hisrect::ssl::SslNets;
use nn::gradcheck::gradcheck_scalar;
use nn::ParamStore;
use rand::rngs::mock::StepRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tensor::{randn, Matrix};

#[test]
fn composite_featurizer_loss_gradients_match_finite_differences() {
    let cfg = HisRectConfig {
        word_dim: 4,
        hidden_n: 3,
        feat_dim: 5,
        qf: 1,
        qp: 1,
        keep_prob: 1.0,
        ..HisRectConfig::fast()
    };
    let n_pois = 3usize;
    let mut rng = StdRng::seed_from_u64(17);
    let mut store = ParamStore::new();
    let featurizer = Featurizer::new(
        &mut store,
        &cfg,
        HistoryEncoder::Rect,
        ContentEncoder::BiLstmC,
        n_pois,
        &mut rng,
    );
    let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), n_pois, &mut rng);

    // Two profiles with ragged tweet lengths so both the recurrent and the
    // batched parts of the forward pass are exercised.
    // Each profile's words are its own vocabulary words (table row
    // `w + 1` for word `w`).
    let m = cfg.word_dim;
    let mut vectors = Vec::new();
    let words: Vec<(Vec<f32>, Vec<u32>)> = (0..2)
        .map(|k| {
            let fv: Vec<f32> = (0..n_pois).map(|_| rng.gen_range(0.0..1.0)).collect();
            let first = vectors.len() / m;
            vectors.extend_from_slice(randn(&mut rng, 3 + k, m, 1.0).as_slice());
            let ids = (first..vectors.len() / m).map(|w| w as u32 + 1).collect();
            (fv, ids)
        })
        .collect();
    let featurizer = featurizer.with_word_vectors(&Matrix::from_vec(vectors.len() / m, m, vectors));
    let inputs: Vec<ProfileInput> = words
        .into_iter()
        .map(|(fv, ids)| ProfileInput {
            fv,
            ids,
            vectors: Arc::clone(featurizer.word_vectors()),
        })
        .collect();
    let targets = vec![0usize, 2];

    let mut ids = featurizer.param_ids();
    ids.extend(nets.classifier.param_ids());
    assert!(
        ids.len() >= 10,
        "expected a deep composite stack, got {} parameters",
        ids.len()
    );
    for id in ids {
        let err = gradcheck_scalar(&mut store, id, |tape, store| {
            // Eval mode + a counting mock RNG: the builder is re-run for
            // every perturbed element, so it must be fully deterministic.
            let refs: Vec<&ProfileInput> = inputs.iter().collect();
            let mut det = StepRng::new(0, 1);
            let feats = featurizer.forward_batch(tape, store, &refs, false, &mut det);
            let logits = nets.classifier.forward(tape, store, feats);
            tape.softmax_cross_entropy(logits, &targets)
        });
        assert!(err < 5e-2, "param {id:?}: max rel err = {err}");
    }
}
