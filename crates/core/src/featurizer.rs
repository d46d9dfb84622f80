//! The combined HisRect featurizer `F(r)` (§4.3):
//! `F(r) = h_Qf(...h_1([Fv(r), Fc(r)]))`.

use crate::config::{ContentEncoder, HisRectConfig, HistoryEncoder};
use crate::fc::ContentNet;
use crate::model::Precision;
use nn::{EvalStack, FeedForward, ParamId, ParamStore, Tape, Var, WordTable};
use rand::Rng;
use std::sync::Arc;
use tensor::Matrix;

/// Precomputed per-profile model inputs: the CPU-side `Fv` vector and the
/// words of the recent tweet, as rows of a word table.
#[derive(Debug, Clone)]
pub struct ProfileInput {
    /// `Fv(r)` (or its one-hot variant), length `|P|`; empty when the
    /// history encoder is `None`.
    pub fv: Vec<f32>,
    /// The row of each word of `r.content` in `vectors`: `0` for the zero
    /// vector, `w + 1` for vocabulary word `w`; empty allowed.
    pub ids: Vec<u32>,
    /// The word table `ids` index, one `Arc` shared by every input of a
    /// model (its featurizer's, [`Featurizer::word_vectors`]). The training
    /// forward gathers its rows from here — one table per batch — so an
    /// input also feeds a featurizer that holds no table of its own;
    /// evaluation reads the ids through the bound featurizer's table.
    pub vectors: Arc<Matrix>,
}

impl ProfileInput {
    /// Copy with the visit history blanked (uniform `Fv`), for the
    /// HisRect\H ablation of Table 5.
    pub fn without_history(&self) -> Self {
        let n = self.fv.len();
        let fv = if n == 0 {
            Vec::new()
        } else {
            vec![1.0 / (n as f32).sqrt(); n]
        };
        Self { fv, ..self.clone() }
    }

    /// Copy with the tweet content blanked (every word replaced by the
    /// `</s>` vector — here the zero vector), for the HisRect\T ablation.
    pub fn without_content(&self) -> Self {
        Self {
            ids: vec![0; self.ids.len()],
            ..self.clone()
        }
    }
}

/// A featurizer bound for inference ([`Featurizer::head_at`]): its head at
/// one precision and the [`WordTable`] of its recurrent content encoder.
/// Both are derived from the store when bound; the table (like int8
/// weights) is a snapshot of it, so bind again after the weights change.
#[derive(Debug, Clone)]
pub struct BoundHead {
    /// The `Qf`-layer head over `[Fv | Fc]`.
    pub stack: EvalStack,
    /// What the content encoder's first layer computes per word; `None`
    /// without a BiLSTM encoder.
    words: Option<WordTable>,
}

/// The trainable featurizer `F`.
#[derive(Debug, Clone)]
pub struct Featurizer {
    /// Which history encoding this featurizer was built with.
    pub history: HistoryEncoder,
    content: Option<ContentNet>,
    /// The `Qf`-layer head over `[Fv | Fc]`.
    head: FeedForward,
    fv_dim: usize,
    keep_prob: f32,
    /// The word table [`ProfileInput::ids`] index: row 0 zeros, row
    /// `w + 1` the vector of vocabulary word `w`.
    word_vectors: Arc<Matrix>,
}

impl Featurizer {
    /// Allocates the featurizer for a POI universe of size `n_pois`.
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        cfg: &HisRectConfig,
        history: HistoryEncoder,
        content: ContentEncoder,
        n_pois: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            history != HistoryEncoder::None || content != ContentEncoder::None,
            "featurizer needs at least one input source"
        );
        let content = ContentNet::new(store, cfg, content, rng);
        let fv_dim = if history == HistoryEncoder::None {
            0
        } else {
            n_pois
        };
        let fc_dim = content.as_ref().map_or(0, ContentNet::out_dim);
        let mut dims = vec![fv_dim + fc_dim];
        dims.extend(std::iter::repeat_n(cfg.feat_dim, cfg.qf.max(1)));
        // §4.3: every layer of the head is followed by a ReLU.
        let head = FeedForward::new(store, "featurizer/head", &dims, true, cfg.init_std, rng);
        Self {
            history,
            content,
            head,
            fv_dim,
            keep_prob: cfg.keep_prob,
            word_vectors: Arc::new(Matrix::zeros(1, cfg.word_dim)),
        }
    }

    /// Sets the vectors evaluation looks word ids up in: `vectors` holds
    /// vocabulary word `w` at row `w`, the table puts it at row `w + 1`
    /// behind a zero row. Until this is called only id `0` is known.
    pub fn with_word_vectors(mut self, vectors: &Matrix) -> Self {
        let m = self.word_vectors.cols();
        assert_eq!(vectors.cols(), m, "word-vector width mismatch");
        let mut table = Matrix::zeros(vectors.rows() + 1, m);
        table.as_mut_slice()[m..].copy_from_slice(vectors.as_slice());
        self.word_vectors = Arc::new(table);
        self
    }

    /// The word table [`ProfileInput::ids`] index (see
    /// [`Featurizer::with_word_vectors`]), for the inputs built against it.
    pub fn word_vectors(&self) -> &Arc<Matrix> {
        &self.word_vectors
    }

    /// Output dimensionality of `F(r)`.
    pub fn feat_dim(&self) -> usize {
        self.head.out_dim()
    }

    /// Width expected for [`ProfileInput::fv`].
    pub fn fv_dim(&self) -> usize {
        self.fv_dim
    }

    /// All trainable ids (Θ_F).
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self
            .content
            .as_ref()
            .map(ContentNet::param_ids)
            .unwrap_or_default();
        ids.extend(self.head.param_ids());
        ids
    }

    /// Featurizes a batch of profiles into a `B x feat_dim` node.
    ///
    /// The whole batch goes through each stage at once: the content
    /// encoder over the ragged tweets ([`ContentNet::forward_batch`]), then
    /// the head over the `B x (fv_dim + fc_dim)` rows `[Fv | Fc]`.
    pub fn forward_batch<R: Rng>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        inputs: &[&ProfileInput],
        train: bool,
        rng: &mut R,
    ) -> Var {
        assert!(!inputs.is_empty(), "empty featurizer batch");
        let _span = obs::span("featurizer/forward");
        obs::add("featurizer/profiles", inputs.len() as u64);
        let fc = self.content.as_ref().map(|content| {
            let vectors = &inputs[0].vectors;
            let shared = inputs.iter().all(|i| Arc::ptr_eq(&i.vectors, vectors));
            assert!(shared, "one word table per batch");
            let ids: Vec<&[u32]> = inputs.iter().map(|input| &input.ids[..]).collect();
            content.forward_batch(tape, store, vectors, &ids, train, rng)
        });
        let x = if self.fv_dim > 0 {
            let fv_ok = inputs.iter().all(|input| input.fv.len() == self.fv_dim);
            assert!(fv_ok, "Fv width mismatch");
            let fv = Matrix::from_fn(inputs.len(), self.fv_dim, |r, c| inputs[r].fv[c]);
            let fv = tape.input(fv);
            fc.map_or(fv, |fc| tape.concat_cols(fv, fc))
        } else {
            fc.expect("a featurizer without Fv has a content encoder")
        };
        if train && self.keep_prob < 1.0 {
            self.head
                .forward_dropout(tape, store, x, self.keep_prob, rng)
        } else {
            self.head.forward(tape, store, x)
        }
    }

    /// Binds the featurizer for inference from the weights in `store`
    /// now: the `Qf`-layer head at `precision` (`Int8` quantizes the
    /// trained weights here; they stay in the store) and the content
    /// encoder's [`WordTable`] over the word vectors.
    pub fn head_at(&self, store: &ParamStore, precision: Precision) -> BoundHead {
        let words = self.content.as_ref().and_then(|content| {
            let _span = obs::span("model/word_tables");
            content.word_table(store, &self.word_vectors)
        });
        BoundHead {
            stack: precision.bind(store, &self.head),
            words,
        }
    }

    /// Evaluation-mode features as a plain matrix (`B x feat_dim`):
    /// [`Featurizer::eval_inputs`] through `head` (from
    /// [`Featurizer::head_at`]), tape-free. At [`Precision::F32`] this is
    /// bit-identical to [`Featurizer::forward_batch`] with `train` off.
    pub fn features(
        &self,
        store: &ParamStore,
        inputs: &[&ProfileInput],
        head: &BoundHead,
    ) -> Matrix {
        let x = self.eval_inputs(store, inputs, head);
        let mut out = Matrix::zeros(inputs.len(), self.feat_dim());
        head.stack.eval(store, x.as_slice(), out.as_mut_slice());
        out
    }

    /// The pre-head `[Fv | Fc]` batch matrix in evaluation mode — the
    /// input the head consumes at either precision. The recurrent content
    /// encoder stays f32 (ragged per-tweet recurrences quantize poorly)
    /// and fills the `Fc` columns of every row in one
    /// [`ContentNet::eval_batch_into`] call over the word ids, through
    /// `head`'s word table. Rows never mix: a profile's row has the same
    /// bits in any batch.
    pub fn eval_inputs(
        &self,
        store: &ParamStore,
        inputs: &[&ProfileInput],
        head: &BoundHead,
    ) -> Matrix {
        assert!(!inputs.is_empty(), "empty featurizer batch");
        let _span = obs::span("featurizer/eval");
        obs::add("featurizer/eval_profiles", inputs.len() as u64);
        let width = self.head.layers[0].in_dim;
        let mut x = Matrix::zeros(inputs.len(), width);
        for (row, input) in x.as_mut_slice().chunks_exact_mut(width).zip(inputs) {
            assert_eq!(input.fv.len(), self.fv_dim, "Fv width mismatch");
            row[..self.fv_dim].copy_from_slice(&input.fv);
        }
        if let Some(content) = &self.content {
            let ids: Vec<&[u32]> = inputs.iter().map(|input| &input.ids[..]).collect();
            let fc = &mut x.as_mut_slice()[self.fv_dim..];
            let table = head.words.as_ref();
            content.eval_batch_into(store, &self.word_vectors, table, &ids, fc, width);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensor::randn;

    fn cfg() -> HisRectConfig {
        HisRectConfig {
            word_dim: 8,
            hidden_n: 6,
            feat_dim: 10,
            qf: 2,
            ..HisRectConfig::fast()
        }
    }

    /// [`Featurizer::features`] at f32.
    fn features(f: &Featurizer, store: &ParamStore, inputs: &[&ProfileInput]) -> Matrix {
        f.features(store, inputs, &f.head_at(store, Precision::F32))
    }

    /// Vocabulary size of the tests' word vectors.
    const VOCAB: u32 = 20;

    /// The tests' word vectors, vocabulary word `w` at row `w`.
    fn vectors() -> Matrix {
        randn(&mut StdRng::seed_from_u64(99), VOCAB as usize, 8, 1.0)
    }

    /// [`vectors`] laid out as [`Featurizer::with_word_vectors`] lays
    /// them out, behind a zero row: one table every test input shares.
    fn table() -> Arc<Matrix> {
        static TABLE: std::sync::OnceLock<Arc<Matrix>> = std::sync::OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let v = vectors();
            let mut t = Matrix::zeros(v.rows() + 1, v.cols());
            t.as_mut_slice()[v.cols()..].copy_from_slice(v.as_slice());
            Arc::new(t)
        });
        Arc::clone(table)
    }

    /// `Featurizer::new` bound to [`vectors`].
    fn featurizer(
        store: &mut ParamStore,
        cfg: &HisRectConfig,
        history: HistoryEncoder,
        content: ContentEncoder,
        n_pois: usize,
        rng: &mut StdRng,
    ) -> Featurizer {
        Featurizer::new(store, cfg, history, content, n_pois, rng).with_word_vectors(&vectors())
    }

    /// A profile of `t` words drawn over every table row: `0` is the zero
    /// vector (padding, blanked content), `1` vocabulary word 0, which
    /// every unknown word maps to.
    fn input(seed: u64, n_pois: usize, t: usize) -> ProfileInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let fv: Vec<f32> = (0..n_pois).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ids: Vec<u32> = (0..t).map(|_| rng.gen_range(0..=VOCAB)).collect();
        ProfileInput {
            fv,
            ids,
            vectors: table(),
        }
    }

    #[test]
    fn full_featurizer_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let f = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            5,
            &mut rng,
        );
        assert_eq!(f.word_vectors().as_slice(), table().as_slice());
        assert_eq!(f.feat_dim(), 10);
        let ins = [input(1, 5, 6), input(2, 5, 3)];
        let refs: Vec<&ProfileInput> = ins.iter().collect();
        let m = features(&f, &store, &refs);
        assert_eq!(m.shape(), (2, 10));
        assert!(!m.has_non_finite());
    }

    #[test]
    fn history_only_ignores_words() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let f = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::Rect,
            ContentEncoder::None,
            5,
            &mut rng,
        );
        let a = input(1, 5, 6);
        let other = input(2, 5, 4);
        let mut b = a.clone();
        b.ids = other.ids;
        let fa = features(&f, &store, &[&a]);
        let fb = features(&f, &store, &[&b]);
        assert!(fa.approx_eq(&fb, 0.0));
    }

    #[test]
    fn tweet_only_ignores_fv() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let f = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::None,
            ContentEncoder::BiLstmC,
            5,
            &mut rng,
        );
        assert_eq!(f.fv_dim(), 0);
        let a = input(1, 0, 6);
        let m = features(&f, &store, &[&a]);
        assert_eq!(m.shape(), (1, 10));
    }

    #[test]
    #[should_panic]
    fn rejects_double_none() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::None,
            ContentEncoder::None,
            5,
            &mut rng,
        );
    }

    #[test]
    fn ablations_blank_the_right_part() {
        let a = input(3, 4, 5);
        let no_h = a.without_history();
        assert_eq!(no_h.ids, a.ids);
        assert!(no_h.fv.iter().all(|&x| (x - no_h.fv[0]).abs() < 1e-7));
        let no_t = a.without_content();
        assert_eq!(no_t.fv, a.fv);
        assert!(no_t.ids.len() == a.ids.len() && no_t.ids.iter().all(|&w| w == 0));
    }

    #[test]
    fn training_forward_reads_the_table_each_input_carries() {
        // The same weights with and without a bound table: a featurizer
        // that holds none still trains on a model's inputs.
        let (mut bound_store, mut bare_store) = (ParamStore::new(), ParamStore::new());
        let kinds = (HistoryEncoder::Rect, ContentEncoder::BiLstmC);
        let mut rng = StdRng::seed_from_u64(3);
        let bound = featurizer(&mut bound_store, &cfg(), kinds.0, kinds.1, 4, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let bare = Featurizer::new(&mut bare_store, &cfg(), kinds.0, kinds.1, 4, &mut rng);
        let ins = [input(5, 4, 7), input(6, 4, 2)];
        let refs: Vec<&ProfileInput> = ins.iter().collect();
        let forward = |f: &Featurizer, store: &ParamStore| {
            let mut tape = Tape::new();
            let mut rng = StdRng::seed_from_u64(0);
            let out = f.forward_batch(&mut tape, store, &refs, false, &mut rng);
            bits(tape.value(out).as_slice())
        };
        assert_eq!(forward(&bare, &bare_store), forward(&bound, &bound_store));
    }

    #[test]
    fn gradients_reach_head_and_content() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let f = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            4,
            &mut rng,
        );
        let ins = [input(5, 4, 5)];
        let refs: Vec<&ProfileInput> = ins.iter().collect();
        let mut tape = Tape::new();
        let out = f.forward_batch(&mut tape, &store, &refs, false, &mut rng);
        let sq = tape.mul(out, out);
        let loss = tape.mean_all(sq);
        tape.backward(loss, &mut store);
        let live = f
            .param_ids()
            .iter()
            .filter(|&&id| store.get(id).grad.max_abs() > 0.0)
            .count();
        assert!(live > f.param_ids().len() / 2, "{live} live params");
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The evaluation entry points over the whole ragged batch (`ts[k]`
    /// words for profile `k`, every fifth profile's content blanked) and
    /// over each profile alone, against the tape forward of the batch:
    /// every row equal by bits, f32 and int8. Evaluation reads the ids
    /// through the BiLSTM's word table, the tape the word vectors.
    fn assert_eval_matches_tape(content: ContentEncoder, ql: usize, ts: &[usize], seed: u64) {
        let cfg = HisRectConfig {
            word_dim: 8,
            // 24 units: a 3-wide window is 144 floats, so the im2col
            // product crosses `PACK_THRESHOLD` from about 5 windows up.
            hidden_n: 24,
            feat_dim: 10,
            qf: 2,
            ql,
            ..HisRectConfig::fast()
        };
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let f = featurizer(&mut store, &cfg, HistoryEncoder::Rect, content, 5, &mut rng);
        let ins: Vec<ProfileInput> = ts
            .iter()
            .enumerate()
            .map(|(k, &t)| {
                let input = input(seed ^ (0x9e37 + k as u64), 5, t);
                if k % 5 == 3 {
                    input.without_content()
                } else {
                    input
                }
            })
            .collect();
        let refs: Vec<&ProfileInput> = ins.iter().collect();

        let mut tape = Tape::new();
        let want = f.forward_batch(&mut tape, &store, &refs, false, &mut rng);
        let want = tape.value(want).clone();
        // The pre-head rows, as the tape builds them: `[Fv | Fc]`.
        let mut tape = Tape::new();
        let ids: Vec<&[u32]> = ins.iter().map(|i| &i.ids[..]).collect();
        let fc = f.content.as_ref().expect("content encoder");
        let fc = fc.forward_batch(&mut tape, &store, &ins[0].vectors, &ids, false, &mut rng);
        let qhead = f.head_at(&store, Precision::Int8);

        let batch = features(&f, &store, &refs);
        let batch_x = f.eval_inputs(&store, &refs, &qhead);
        let batch_q = f.features(&store, &refs, &qhead);
        for (k, inp) in ins.iter().enumerate() {
            let mut row = inp.fv.clone();
            row.extend_from_slice(tape.value(fc).row(k));
            let mut want_q = vec![f32::NAN; f.feat_dim()];
            qhead.stack.eval(&store, &row, &mut want_q);
            let alone = features(&f, &store, &[inp]);
            let alone_x = f.eval_inputs(&store, &[inp], &qhead);
            let alone_q = f.features(&store, &[inp], &qhead);
            for (got, case) in [(batch.row(k), "batch"), (alone.as_slice(), "alone")] {
                assert_eq!(bits(got), bits(want.row(k)), "f32, {case}, profile {k}");
            }
            for (got, case) in [(batch_x.row(k), "batch"), (alone_x.as_slice(), "alone")] {
                assert_eq!(bits(got), bits(&row), "[Fv | Fc], {case}, profile {k}");
            }
            for (got, case) in [(batch_q.row(k), "batch"), (alone_q.as_slice(), "alone")] {
                assert_eq!(bits(got), bits(&want_q), "int8, {case}, profile {k}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        #[test]
        fn eval_path_equals_tape_forward_bit_for_bit(
            conv in proptest::prelude::any::<bool>(),
            ql in 1usize..=3,
            // One tweet in five is empty; 0..2 are padded up to the conv
            // width, 40 is well past it; 70 rows put the head on the
            // packed kernel.
            ts in proptest::collection::vec(
                proptest::prelude::Strategy::prop_map(0usize..=50, |t| t.saturating_sub(10)),
                1..=70,
            ),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let content = if conv { ContentEncoder::BiLstmC } else { ContentEncoder::Blstm };
            assert_eval_matches_tape(content, ql, &ts, seed);
        }

        #[test]
        fn ablation_encoders_still_equal_their_tape_forward(
            ts in proptest::collection::vec(0usize..=12, 1..=8),
            seed in proptest::prelude::any::<u64>(),
        ) {
            assert_eval_matches_tape(ContentEncoder::ConvLstm, 1, &ts, seed);
        }
    }

    #[test]
    fn eval_path_covers_the_padded_and_longest_tweets() {
        // The proptest draws T at random; the edges are pinned here, alone
        // and in one batch.
        let ts = [0usize, 1, 2, 3, 6, 7, 40];
        for ql in 1..=3 {
            assert_eval_matches_tape(ContentEncoder::BiLstmC, ql, &ts, 7 + ql as u64);
            assert_eval_matches_tape(ContentEncoder::Blstm, ql, &ts, 11 + ql as u64);
            for &t in &ts {
                assert_eval_matches_tape(ContentEncoder::BiLstmC, ql, &[t], 7 + t as u64);
                assert_eval_matches_tape(ContentEncoder::Blstm, ql, &[t], 11 + t as u64);
            }
        }
    }

    #[test]
    fn batch_matches_single_bit_for_bit() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let f = featurizer(
            &mut store,
            &cfg(),
            HistoryEncoder::Rect,
            ContentEncoder::BiLstmC,
            4,
            &mut rng,
        );
        let ins: Vec<ProfileInput> = (0..200).map(|k| input(k, 4, (k % 9) as usize)).collect();
        let refs: Vec<&ProfileInput> = ins.iter().collect();
        // 200 rows x 10 x 10 put the head's first layer on the packed
        // kernel; single rows stay on the simple one.
        let batch = features(&f, &store, &refs);
        for (k, inp) in refs.iter().enumerate() {
            let single = features(&f, &store, &[inp]);
            assert_eq!(bits(batch.row(k)), bits(single.as_slice()), "row {k}");
        }
    }
}
