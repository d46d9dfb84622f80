//! The recent-tweet feature `Fc(r)` (§4.2): BiLSTM-C over skip-gram word
//! vectors, plus the BLSTM and ConvLSTM ablations of Table 4.

use crate::config::{ContentEncoder, HisRectConfig};
use nn::{BiLstm, Conv1d, ParamId, ParamStore, SeqBatch, Tape, Var, WordTable};
use rand::Rng;
use std::cell::RefCell;
use tensor::Matrix;

/// The content-encoding subnetwork. Stateless across tapes; parameters
/// live in the shared [`ParamStore`].
#[derive(Debug, Clone)]
pub struct ContentNet {
    /// `Ql` stacked bidirectional LSTMs (Table 7 sweeps Ql).
    bilstms: Vec<BiLstm>,
    /// The 3-wide convolution of BiLSTM-C.
    conv: Option<Conv1d>,
    /// ConvLSTM gate convolutions (input- and state-to-state).
    convlstm: Option<ConvLstmCell>,
    out_dim: usize,
    word_dim: usize,
    keep_prob: f32,
}

impl ContentNet {
    /// Allocates the encoder for `kind`. Returns `None` for
    /// [`ContentEncoder::None`] (the History-only variant).
    pub fn new<R: Rng>(
        store: &mut ParamStore,
        cfg: &HisRectConfig,
        kind: ContentEncoder,
        rng: &mut R,
    ) -> Option<Self> {
        let (n, m, std) = (cfg.hidden_n, cfg.word_dim, cfg.init_std);
        let in_dim = |l: usize| if l == 0 { m } else { 2 * n };
        let layers = 0..cfg.ql.max(1);
        let (mut bilstms, mut convlstm) = (Vec::new(), None);
        match kind {
            ContentEncoder::None => return None,
            ContentEncoder::BiLstmC | ContentEncoder::Blstm => {
                bilstms = layers
                    .map(|l| BiLstm::new(store, &format!("fc/blstm{l}"), in_dim(l), n, std, rng))
                    .collect();
            }
            ContentEncoder::ConvLstm => {
                convlstm = Some(ConvLstmCell::new(store, "fc/convlstm", n, std, rng));
            }
        }
        // BiLSTM-C pools through the 3-wide convolution (Eq. 3).
        let conv = (kind == ContentEncoder::BiLstmC)
            .then(|| Conv1d::new(store, "fc/conv", 3, 2 * n, n, std, rng));
        Some(Self {
            bilstms,
            conv,
            convlstm,
            out_dim: n * if kind == ContentEncoder::Blstm { 2 } else { 1 },
            word_dim: m,
            keep_prob: cfg.keep_prob,
        })
    }

    /// Output feature width.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// All trainable parameter ids.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids: Vec<ParamId> = self.bilstms.iter().flat_map(BiLstm::param_ids).collect();
        if let Some(conv) = &self.conv {
            ids.extend(conv.param_ids());
        }
        if let Some(cl) = &self.convlstm {
            ids.extend(cl.param_ids());
        }
        ids
    }

    /// Encodes a batch of tweets into a `B x out_dim` node, row `i` for
    /// the words `ids[i]`, each a row of `vectors` (the table
    /// [`crate::featurizer::ProfileInput::ids`] index). `train` toggles the
    /// LSTM-layer dropout of §6.1.2, drawn one profile at a time in batch
    /// order. BiLSTM-C and BLSTM gather the vectors of the whole batch
    /// into one [`SeqBatch`] input and run it through one node per layer
    /// and direction, then one convolution and one pooling; ConvLSTM
    /// builds one graph per step over the tweets still running
    /// ([`ConvLstmCell::forward`]).
    pub fn forward_batch<R: Rng>(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        vectors: &Matrix,
        ids: &[&[u32]],
        train: bool,
        rng: &mut R,
    ) -> Var {
        let m = self.word_dim;
        assert_eq!(vectors.cols(), m, "word-vector width mismatch");
        if let Some(cell) = &self.convlstm {
            return cell.forward(tape, store, vectors, ids);
        }
        let lens: Vec<usize> = ids.iter().map(|ids| self.padded_len(ids.len())).collect();
        let seqs = SeqBatch::new(&lens);
        // Padding is id 0, the zero row, as in `eval_batch_into`.
        let mut packed = vec![0; seqs.rows()];
        seqs.pack_ids_into(ids, &mut packed);
        let mut x = Matrix::zeros(packed.len(), m);
        for (row, &w) in x.as_mut_slice().chunks_exact_mut(m).zip(&packed) {
            row.copy_from_slice(vectors.row(w as usize));
        }
        let mut h = tape.input(x);
        for bi in &self.bilstms {
            h = bi.forward_rows(tape, store, h, &seqs);
        }
        // Dropout over the `2N`-wide states, each profile's `T x 2N` mask
        // in batch order.
        if train && self.keep_prob < 1.0 {
            h = tape.dropout_rows(h, self.keep_prob, seqs.rows_in_caller_order(), rng);
        }
        match &self.conv {
            Some(conv) => {
                let y = conv.forward(tape, store, h, &seqs); // (T-2) x N each
                let y = tape.relu(y);
                tape.mean_over_steps(y, &seqs.windows(conv.k)) // B x N  (Eq. 3)
            }
            None => tape.mean_over_steps(h, &seqs), // B x 2N
        }
    }

    /// What [`ContentNet::eval_batch_into`] looks up per word instead of
    /// computing, from the weights in `store` now: the first BiLSTM
    /// layer's [`WordTable`] over the rows of `vectors` (the table
    /// [`crate::featurizer::ProfileInput::ids`] index). `None` for
    /// ConvLSTM, which has no BiLSTM layer.
    pub fn word_table(&self, store: &ParamStore, vectors: &Matrix) -> Option<WordTable> {
        assert_eq!(vectors.cols(), self.word_dim, "word-vector width mismatch");
        let first = self.bilstms.first()?;
        Some(first.word_table(store, vectors.as_slice()))
    }

    /// Evaluation-mode [`ContentNet::forward_batch`] over the tweets whose
    /// words are the rows `ids[i]` of `vectors`, bit-identical to the tape
    /// forward over those rows: the feature of tweet `i` lands at
    /// `out[i·stride ..][..out_dim]`. BiLSTM-C and BLSTM run tape-free
    /// through `nn::eval`: the ids packed as one [`SeqBatch`] in per-thread
    /// scratch, the first layer read through `table`
    /// ([`ContentNet::word_table`] of the same `vectors`), one recurrent
    /// pass per further layer and direction over all rows, one im2col
    /// product, then the pooling. ConvLSTM, a Table 4 ablation that
    /// nothing serves, is evaluated through its batched tape forward.
    pub fn eval_batch_into(
        &self,
        store: &ParamStore,
        vectors: &Matrix,
        table: Option<&WordTable>,
        ids: &[&[u32]],
        out: &mut [f32],
        stride: usize,
    ) {
        let d = self.out_dim;
        let Some((first, rest)) = self.bilstms.split_first() else {
            let mut tape = Tape::new();
            let mut rng = rand::rngs::mock::StepRng::new(0, 1);
            let f = self.forward_batch(&mut tape, store, vectors, ids, false, &mut rng);
            for (k, row) in tape.value(f).as_slice().chunks_exact(d).enumerate() {
                out[k * stride..k * stride + d].copy_from_slice(row);
            }
            return;
        };
        let table = table.expect("a BiLSTM encoder evaluates through its word table");
        thread_local! {
            /// The packed ids, and a layer's input and output rows,
            /// swapped between layers.
            static ROWS: RefCell<(Vec<u32>, Vec<f32>, Vec<f32>)> =
                const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
        }
        // Same padding as the tape forward: zero rows (id 0) up to the
        // conv width.
        let lens: Vec<usize> = ids.iter().map(|ids| self.padded_len(ids.len())).collect();
        let seqs = SeqBatch::new(&lens);
        ROWS.with(|rows| {
            let (packed, x, next) = &mut *rows.borrow_mut();
            packed.resize(seqs.rows(), 0);
            seqs.pack_ids_into(ids, packed);
            x.resize(seqs.rows() * 2 * first.hidden(), 0.0);
            first.eval_words(store, table, packed, &seqs, x);
            for bi in rest {
                next.resize(seqs.rows() * 2 * bi.hidden(), 0.0);
                bi.eval_rows(store, x, &seqs, next);
                std::mem::swap(x, next);
            }
            match &self.conv {
                Some(conv) => {
                    let windows = seqs.windows(conv.k);
                    next.resize(windows.rows() * conv.out_dim, 0.0);
                    conv.eval_rows(store, x, &seqs, next); // (T-2) x N each
                    nn::eval::relu(next);
                    // Eq. 3
                    windows.mean_over_steps_into(next, conv.out_dim, out, stride);
                }
                None => seqs.mean_over_steps_into(x, d, out, stride),
            }
        });
    }

    /// Sequence length after padding very short tweets so the 3-wide
    /// convolution always has a window (empty contents become all-zero
    /// rows, which the paper's `</s>`-only degenerate contents
    /// effectively are too).
    fn padded_len(&self, words: usize) -> usize {
        words.max(if self.conv.is_some() { 3 } else { 1 })
    }
}

/// A 1-D ConvLSTM cell (Shi et al., \[58\] in the paper): the input-to-state
/// and state-to-state transitions are convolutions over the word-vector
/// ("spatial") axis instead of full matrix products. The recurrence runs
/// over tweet words; the final hidden map is mean-pooled over the spatial
/// axis to a `1 x N` feature.
#[derive(Debug, Clone)]
pub struct ConvLstmCell {
    /// Input-to-state conv: kernel 3 over M rows, 1 input channel → 4N.
    conv_x: Conv1d,
    /// State-to-state conv: kernel 3 over M rows, N channels → 4N.
    conv_h: Conv1d,
    channels: usize,
}

impl ConvLstmCell {
    fn new<R: Rng>(
        store: &mut ParamStore,
        prefix: &str,
        channels: usize,
        std: f32,
        rng: &mut R,
    ) -> Self {
        Self {
            conv_x: Conv1d::new(store, &format!("{prefix}/cx"), 3, 1, 4 * channels, std, rng),
            conv_h: Conv1d::new(
                store,
                &format!("{prefix}/ch"),
                3,
                channels,
                4 * channels,
                std,
                rng,
            ),
            channels,
        }
    }

    fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.conv_x.param_ids();
        ids.extend(self.conv_h.param_ids());
        ids
    }

    /// The cell over the tweets whose words are the rows `ids[i]` of
    /// `vectors`, as one graph per step over the tweets still running.
    /// The tweets are ordered longest first, each running at least one
    /// step (an empty one reads a zero word), so the live ones at step `t`
    /// are a slot prefix of `n_t`; their `M x N` maps are laid out as
    /// `SeqBatch::new(&[M; n_t])`, and `M + 2` rows each with the zero
    /// padding of the kernel-3 "same" convolution. Each tweet's last
    /// hidden map is mean-pooled over the spatial axis to its row of the
    /// `B x N` result.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        vectors: &Matrix,
        ids: &[&[u32]],
    ) -> Var {
        let (m, n, b) = (vectors.cols(), self.channels, ids.len());
        let steps: Vec<usize> = ids.iter().map(|ids| ids.len().max(1)).collect();
        let seqs = SeqBatch::new(&steps);
        let (order, lens) = (seqs.order(), seqs.lens());
        let live = |t: usize| lens.partition_point(|&l| l > t);
        // Every tweet runs step 0 from zero `h` and `c`.
        let mut prev = b;
        let mut h = tape.input(Matrix::zeros(m * b, n));
        let mut c = h;
        // Each tweet's last `h`, as rows of `SeqBatch::new(&[M; B])`.
        let (mut ends, mut last) = (Vec::new(), vec![None; m * b]);
        for t in 0..lens[0] {
            let now = live(t);
            // x_t of each live tweet as an M x 1 single-channel map.
            let mut x = Matrix::zeros((m + 2) * now, 1);
            for (k, &caller) in order[..now].iter().enumerate() {
                if let Some(&w) = ids[caller].get(t) {
                    for (s, &v) in vectors.row(w as usize).iter().enumerate() {
                        x.set((s + 1) * now + k, 0, v);
                    }
                }
            }
            let xp = tape.input(x);
            let hp = tape.pick_rows(&[h], &live_maps(m, prev, now, 1));
            if now < prev {
                c = tape.pick_rows(&[c], &live_maps(m, prev, now, 0));
            }
            let padded = SeqBatch::new(&vec![m + 2; now]);
            let gx = self.conv_x.forward(tape, store, xp, &padded); // M·n_t x 4N
            let gh = self.conv_h.forward(tape, store, hp, &padded); // M·n_t x 4N
            let gates = tape.add(gx, gh);
            let i_raw = tape.slice_cols(gates, 0, n);
            let f_raw = tape.slice_cols(gates, n, n);
            let g_raw = tape.slice_cols(gates, 2 * n, n);
            let o_raw = tape.slice_cols(gates, 3 * n, n);
            let i = tape.sigmoid(i_raw);
            let f = tape.sigmoid(f_raw);
            let g = tape.tanh(g_raw);
            let o = tape.sigmoid(o_raw);
            let fc = tape.mul(f, c);
            let ig = tape.mul(i, g);
            c = tape.add(fc, ig);
            let tc = tape.tanh(c);
            h = tape.mul(o, tc);
            let next = live(t + 1);
            if next < now {
                for (k, &caller) in order.iter().enumerate().take(now).skip(next) {
                    for s in 0..m {
                        last[s * b + caller] = Some((ends.len(), s * now + k));
                    }
                }
                ends.push(h);
            }
            prev = now;
        }
        let h = tape.pick_rows(&ends, &last);
        tape.mean_over_steps(h, &SeqBatch::new(&vec![m; b])) // B x N
    }
}

/// The rows that lay out the first `live` of `prev` maps of `m` rows
/// (`SeqBatch::new(&[m; prev])`, one part) as `SeqBatch::new(&[m + 2·pad;
/// live])`, with `pad` zero rows at each end of every map.
fn live_maps(m: usize, prev: usize, live: usize, pad: usize) -> Vec<Option<(usize, usize)>> {
    let map_row = move |s: usize, k: usize| {
        (pad..m + pad)
            .contains(&s)
            .then(|| (0, (s - pad) * prev + k))
    };
    (0..m + 2 * pad)
        .flat_map(|s| (0..live).map(move |k| map_row(s, k)))
        .collect()
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
            ql: 1,
            ..HisRectConfig::fast()
        }
    }

    fn words(t: usize, seed: u64) -> Matrix {
        randn(&mut StdRng::seed_from_u64(seed), t, 8, 1.0)
    }

    /// [`ContentNet::forward_batch`] over tweets given as word-vector
    /// matrices: the word table is a zero row, then every row of every
    /// matrix in order, and each tweet's ids point at its own rows.
    fn forward(
        net: &ContentNet,
        tape: &mut Tape,
        store: &ParamStore,
        words: &[&Matrix],
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        let m = net.word_dim;
        let mut table = vec![0.0; m];
        let mut ids = Vec::with_capacity(words.len());
        for w in words {
            let first = table.len() / m;
            table.extend_from_slice(w.as_slice());
            ids.push(
                (first..first + w.rows())
                    .map(|id| id as u32)
                    .collect::<Vec<u32>>(),
            );
        }
        let table = Matrix::from_vec(table.len() / m, m, table);
        let ids: Vec<&[u32]> = ids.iter().map(Vec::as_slice).collect();
        net.forward_batch(tape, store, &table, &ids, train, rng)
    }

    #[test]
    fn bilstm_c_output_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::BiLstmC, &mut rng).unwrap();
        assert_eq!(net.out_dim(), 6);
        let mut tape = Tape::new();
        let f = forward(&net, &mut tape, &store, &[&words(10, 1)], false, &mut rng);
        assert_eq!(tape.value(f).shape(), (1, 6));
    }

    #[test]
    fn blstm_output_is_twice_hidden() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::Blstm, &mut rng).unwrap();
        assert_eq!(net.out_dim(), 12);
        let mut tape = Tape::new();
        let f = forward(&net, &mut tape, &store, &[&words(5, 2)], false, &mut rng);
        assert_eq!(tape.value(f).shape(), (1, 12));
    }

    #[test]
    fn convlstm_output_shape() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::ConvLstm, &mut rng).unwrap();
        assert_eq!(net.out_dim(), 6);
        let mut tape = Tape::new();
        let f = forward(&net, &mut tape, &store, &[&words(4, 3)], false, &mut rng);
        assert_eq!(tape.value(f).shape(), (1, 6));
    }

    #[test]
    fn none_encoder_returns_none() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(ContentNet::new(&mut store, &cfg(), ContentEncoder::None, &mut rng).is_none());
    }

    #[test]
    fn short_and_empty_tweets_are_padded() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::BiLstmC, &mut rng).unwrap();
        for t in [0usize, 1, 2] {
            let mut tape = Tape::new();
            let w = Matrix::zeros(t, 8);
            let f = forward(&net, &mut tape, &store, &[&w], false, &mut rng);
            assert_eq!(tape.value(f).shape(), (1, 6), "t = {t}");
            assert!(!tape.value(f).has_non_finite());
        }
    }

    #[test]
    fn stacked_bilstm_layers() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let c = HisRectConfig { ql: 3, ..cfg() };
        let net = ContentNet::new(&mut store, &c, ContentEncoder::BiLstmC, &mut rng).unwrap();
        assert_eq!(net.bilstms.len(), 3);
        let mut tape = Tape::new();
        let f = forward(&net, &mut tape, &store, &[&words(6, 5)], false, &mut rng);
        assert_eq!(tape.value(f).shape(), (1, 6));
    }

    #[test]
    fn content_changes_feature() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::BiLstmC, &mut rng).unwrap();
        let mut t1 = Tape::new();
        let f1 = forward(&net, &mut t1, &store, &[&words(6, 7)], false, &mut rng);
        let mut t2 = Tape::new();
        let f2 = forward(&net, &mut t2, &store, &[&words(6, 8)], false, &mut rng);
        assert!(!t1.value(f1).approx_eq(t2.value(f2), 1e-6));
    }

    #[test]
    fn eval_forward_is_deterministic() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = ContentNet::new(&mut store, &cfg(), ContentEncoder::BiLstmC, &mut rng).unwrap();
        let w = words(7, 9);
        let run = |rng: &mut StdRng| {
            let mut tape = Tape::new();
            let f = forward(&net, &mut tape, &store, &[&w], false, rng);
            tape.value(f).clone()
        };
        let a = run(&mut StdRng::seed_from_u64(1));
        let b = run(&mut StdRng::seed_from_u64(2));
        assert!(a.approx_eq(&b, 0.0), "eval mode must ignore the rng");
    }

    #[test]
    fn gradients_flow_to_all_params() {
        for kind in [
            ContentEncoder::BiLstmC,
            ContentEncoder::Blstm,
            ContentEncoder::ConvLstm,
        ] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(0);
            let net = ContentNet::new(&mut store, &cfg(), kind, &mut rng).unwrap();
            let mut tape = Tape::new();
            let f = forward(&net, &mut tape, &store, &[&words(5, 11)], false, &mut rng);
            let sq = tape.mul(f, f);
            let loss = tape.mean_all(sq);
            tape.backward(loss, &mut store);
            let live = net
                .param_ids()
                .iter()
                .filter(|&&id| store.get(id).grad.max_abs() > 0.0)
                .count();
            // Biases of gates can occasionally have zero grad; the vast
            // majority of parameters must receive gradient.
            assert!(
                live * 10 >= net.param_ids().len() * 8,
                "{kind:?}: only {live}/{} params got gradient",
                net.param_ids().len()
            );
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Features and every gradient of one training batch (dropout on)
    /// under the loss `Σ f ⊙ w`, whose gradient reaches each feature row
    /// exactly, whatever the batch.
    fn train_step(
        net: &ContentNet,
        store: &mut ParamStore,
        words: &[&Matrix],
        w: Matrix,
        rng: &mut StdRng,
    ) -> (Matrix, Vec<Matrix>) {
        store.zero_grads();
        let mut tape = Tape::new();
        let f = forward(net, &mut tape, store, words, true, rng);
        let fw = tape.mul_const(f, w);
        let per_row = tape.row_sum(fw);
        let ones = tape.input(Matrix::filled(1, words.len(), 1.0));
        let loss = tape.matmul(ones, per_row);
        let feats = tape.value(f).clone();
        tape.backward(loss, store);
        let grads = net.param_ids().into_iter();
        (feats, grads.map(|id| store.get(id).grad.clone()).collect())
    }

    /// One batched training step against one step per profile drawing
    /// dropout from the same stream: features equal by bits, gradients
    /// within `1e-5` of the largest per tensor.
    fn assert_batch_equals_singles(kind: ContentEncoder, ql: usize, ts: &[usize], seed: u64) {
        let c = HisRectConfig {
            word_dim: 8,
            // 24 units put the batch's products on the packed kernel.
            hidden_n: 24,
            ql,
            ..HisRectConfig::fast()
        };
        assert!(c.keep_prob < 1.0, "the step must draw dropout masks");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let net = ContentNet::new(&mut store, &c, kind, &mut rng).unwrap();
        let ws: Vec<Matrix> = ts.iter().map(|&t| words(t, rng.gen())).collect();
        let refs: Vec<&Matrix> = ws.iter().collect();
        let weights = randn(&mut rng, ts.len(), net.out_dim(), 1.0);
        let drops: u64 = rng.gen();
        let mut batch_rng = StdRng::seed_from_u64(drops);
        let (feats, grads) = train_step(&net, &mut store, &refs, weights.clone(), &mut batch_rng);
        let mut single_rng = StdRng::seed_from_u64(drops);
        let mut summed: Vec<Matrix> = grads.iter().map(|g| g.scale(0.0)).collect();
        for (k, w) in refs.iter().enumerate() {
            let row = Matrix::row_vector(weights.row(k));
            let (f, g) = train_step(&net, &mut store, &[w], row, &mut single_rng);
            assert_eq!(bits(feats.row(k)), bits(f.as_slice()), "profile {k}");
            for (acc, g) in summed.iter_mut().zip(&g) {
                acc.add_assign(g);
            }
        }
        for ((got, want), id) in grads.iter().zip(&summed).zip(net.param_ids()) {
            let diff = got.sub(want).max_abs();
            assert!(
                diff <= 1e-5 * want.max_abs(),
                "{}: max |Δ| {diff} against max |g| {}",
                store.get(id).name,
                want.max_abs()
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn training_batch_equals_one_profile_at_a_time(
            kind in 0usize..3,
            ql in 1usize..=2,
            // 0..2 are padded up to the conv width; ConvLSTM, which runs
            // each tweet one graph per word, draws up to 8 words.
            ts in proptest::collection::vec(0usize..=20, 1..=32),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let kinds = [ContentEncoder::BiLstmC, ContentEncoder::Blstm, ContentEncoder::ConvLstm];
            let ts: Vec<usize> = match kinds[kind] {
                ContentEncoder::ConvLstm => ts.iter().map(|t| t % 9).collect(),
                _ => ts,
            };
            assert_batch_equals_singles(kinds[kind], ql, &ts, seed);
        }
    }

    #[test]
    fn training_batch_covers_the_padded_tweets_and_the_ablations() {
        let ts = [0usize, 1, 2, 3, 9, 1, 0];
        assert_batch_equals_singles(ContentEncoder::BiLstmC, 3, &ts, 1);
        assert_batch_equals_singles(ContentEncoder::Blstm, 1, &ts, 2);
        assert_batch_equals_singles(ContentEncoder::ConvLstm, 1, &ts, 4);
    }

    #[test]
    fn batched_conv_and_pool_gradcheck() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let c = HisRectConfig {
            word_dim: 3,
            hidden_n: 2,
            ..HisRectConfig::fast()
        };
        let net = ContentNet::new(&mut store, &c, ContentEncoder::BiLstmC, &mut rng).unwrap();
        let ws: Vec<Matrix> = [4usize, 0, 6]
            .iter()
            .map(|&t| randn(&mut rng, t, 3, 1.0))
            .collect();
        let refs: Vec<&Matrix> = ws.iter().collect();
        // The recurrent layers' gradients are checked in `nn`; here the
        // filter bank, through the batched im2col and pooling, with a bias
        // that keeps every window clear of the ReLU's kink.
        let conv = net.conv.as_ref().expect("BiLSTM-C has a conv");
        store.value_mut(conv.b).as_mut_slice().fill(1.0);
        for id in conv.param_ids() {
            let err = nn::gradcheck::gradcheck_scalar(&mut store, id, |tape, store| {
                let mut rng = StdRng::seed_from_u64(6);
                let f = forward(&net, tape, store, &refs, false, &mut rng);
                let sq = tape.mul(f, f);
                tape.mean_all(sq)
            });
            assert!(err < 2e-2, "{}: err = {err}", store.get(id).name);
        }
    }
}
