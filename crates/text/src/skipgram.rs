//! Skip-gram word vectors with negative sampling (Mikolov et al., \[53\]).
//!
//! The paper trains word vectors over the contents of all training
//! timelines and feeds them to BiLSTM-C as fixed inputs (§4.2). This is a
//! plain SGNS implementation: for each (center, context) pair within a
//! window, maximize `log σ(u_ctx · v_cen)` plus `k` negative samples drawn
//! from the unigram^0.75 distribution.

use crate::vocab::Vocab;
use rand::Rng;
use serde::{Deserialize, Serialize};
use tensor::Matrix;

/// Skip-gram hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipGramConfig {
    /// Embedding dimensionality `M`. The paper uses 512 and notes the value
    /// "has little impact"; the simulator-scale default is smaller.
    pub dim: usize,
    /// Max distance between center and context.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate (linearly decayed over training).
    pub lr: f32,
    /// Number of passes over the corpus.
    pub epochs: usize,
}

impl Default for SkipGramConfig {
    fn default() -> Self {
        Self {
            dim: 32,
            window: 3,
            negatives: 5,
            lr: 0.05,
            epochs: 3,
        }
    }
}

/// Trained skip-gram embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkipGram {
    cfg: SkipGramConfig,
    /// Center ("input") vectors — the embeddings consumers use.
    input: Matrix,
    /// Context ("output") vectors.
    output: Matrix,
    /// Cumulative unigram^0.75 table for negative sampling.
    cdf: Vec<f64>,
}

impl SkipGram {
    /// Initializes embeddings for `vocab` (uniform in ±0.5/dim, the
    /// word2vec convention) without training.
    pub fn new<R: Rng>(vocab: &Vocab, cfg: SkipGramConfig, rng: &mut R) -> Self {
        let n = vocab.len();
        let bound = 0.5 / cfg.dim as f32;
        let input = Matrix::from_fn(n, cfg.dim, |_, _| rng.gen_range(-bound..bound));
        let output = Matrix::zeros(n, cfg.dim);
        let weights = vocab.unigram_weights();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in weights {
            acc += w;
            cdf.push(acc);
        }
        Self {
            cfg,
            input,
            output,
            cdf,
        }
    }

    /// Trains over encoded documents (`Vec<usize>` id streams). Returns the
    /// mean SGNS loss of the final epoch.
    ///
    /// The vectors, the loss and the RNG stream are those of the plain
    /// loop (per pair: draw a negative, score it, update, draw the next):
    /// every draw is made in the same order and every element sees the
    /// same operations in the same order (DESIGN, "Training kernels").
    #[allow(clippy::needless_range_loop)] // window scan over positions, not elements
    pub fn train<R: Rng>(&mut self, docs: &[Vec<usize>], rng: &mut R) -> f32 {
        let total_steps: usize =
            docs.iter().map(|d| d.len()).sum::<usize>().max(1) * self.cfg.epochs.max(1);
        let negatives = NegativeTable::new(&self.cdf);
        let mut scratch = Scratch {
            grad: vec![0.0; self.cfg.dim],
            targets: Vec::with_capacity(self.cfg.negatives + 1),
            dots: Vec::with_capacity(self.cfg.negatives + 1),
        };
        let mut step = 0usize;
        let mut last_epoch_loss = 0.0f64;
        for epoch in 0..self.cfg.epochs {
            // Only the final epoch's loss is returned, so only it pays `ln`.
            let with_loss = epoch + 1 == self.cfg.epochs;
            let mut epoch_loss = 0.0f64;
            let mut epoch_pairs = 0usize;
            for doc in docs {
                for (center_pos, &center) in doc.iter().enumerate() {
                    // Dynamic window, as in word2vec.
                    let w = rng.gen_range(1..=self.cfg.window);
                    let lo = center_pos.saturating_sub(w);
                    let hi = (center_pos + w).min(doc.len().saturating_sub(1));
                    let lr = self.cfg.lr * (1.0 - step as f32 / total_steps as f32).max(0.05);
                    for ctx_pos in lo..=hi {
                        if ctx_pos == center_pos {
                            continue;
                        }
                        // Every negative is drawn before any update: nothing
                        // else draws in between, so the stream is unchanged.
                        let targets = &mut scratch.targets;
                        targets.clear();
                        targets.push(doc[ctx_pos]);
                        for _ in 0..self.cfg.negatives {
                            let t = negatives.sample(rng);
                            if t != doc[ctx_pos] {
                                targets.push(t); // a collision with the positive is skipped
                            }
                        }
                        let (input, output) = (&mut self.input, &mut self.output);
                        let loss = sgns_step(input, output, center, lr, with_loss, &mut scratch);
                        epoch_loss += loss as f64;
                        epoch_pairs += 1;
                    }
                    step += 1;
                }
            }
            last_epoch_loss = epoch_loss / epoch_pairs.max(1) as f64;
        }
        last_epoch_loss as f32
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.cfg.dim
    }

    /// Number of word vectors (the vocabulary size the table was trained
    /// over) — lets loaders validate a snapshot against its vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.input.rows()
    }

    /// Every word vector, word id `w` at row `w` (`vocab_size x dim`).
    pub fn vectors(&self) -> &Matrix {
        &self.input
    }

    /// The vector of word id `id` (a `1 x dim` row).
    pub fn vector(&self, id: usize) -> &[f32] {
        self.input.row(id)
    }

    /// Encodes an id sequence into a `T x dim` matrix of word vectors —
    /// the `X = (x_1, ..., x_T)` of §4.2.
    pub fn embed_sequence(&self, ids: &[usize]) -> Matrix {
        Matrix::from_fn(ids.len(), self.cfg.dim, |r, c| self.input.get(ids[r], c))
    }

    /// Cosine similarity of two word ids.
    pub fn cosine(&self, a: usize, b: usize) -> f32 {
        let (va, vb) = (self.input.row(a), self.input.row(b));
        let dot: f32 = va.iter().zip(vb).map(|(&x, &y)| x * y).sum();
        let na: f32 = va.iter().map(|x| x * x).sum::<f32>().sqrt();
        let nb: f32 = vb.iter().map(|x| x * x).sum::<f32>().sqrt();
        if na < 1e-9 || nb < 1e-9 {
            0.0
        } else {
            dot / (na * nb)
        }
    }
}

/// One positive pair (`targets[0]`) plus its drawn negatives (the
/// rest), in order; returns the pair's loss, or `0.0` without
/// `with_loss`.
///
/// The dot of each target's first occurrence is taken up front, four
/// chains interleaved, each still an ascending-`d` sum: the center row
/// does not change until the end, and no earlier target has touched
/// that output row. A repeated target re-reads its row after the
/// earlier update, as the one-at-a-time loop did.
fn sgns_step(
    input_vectors: &mut Matrix,
    output_vectors: &mut Matrix,
    center: usize,
    lr: f32,
    with_loss: bool,
    s: &mut Scratch,
) -> f32 {
    let dim = input_vectors.cols();
    let input = input_vectors.row(center);
    let output = output_vectors.as_mut_slice();
    let row = |t: usize| t * dim..(t + 1) * dim;
    s.dots.clear();
    for chunk in s.targets.chunks(4) {
        // A short last chunk repeats its last row in the spare chains.
        let rows = std::array::from_fn(|c| &output[row(chunk[c.min(chunk.len() - 1)])]);
        s.dots.extend_from_slice(&dot4(input, rows)[..chunk.len()]);
    }
    let first = |j: usize| !s.targets[..j].contains(&s.targets[j]);
    s.grad.fill(0.0);
    let mut loss = 0.0f32;
    for (j, &target) in s.targets.iter().enumerate() {
        let label = if j == 0 { 1.0f32 } else { 0.0 };
        let o = &mut output[row(target)];
        let dot = if first(j) { s.dots[j] } else { dot(input, o) };
        let sig = 1.0 / (1.0 + (-dot).exp());
        if with_loss {
            loss += if label > 0.5 {
                -(sig.max(1e-7)).ln()
            } else {
                -((1.0 - sig).max(1e-7)).ln()
            };
        }
        let g = (sig - label) * lr;
        for ((gc, ov), &iv) in s.grad.iter_mut().zip(o.iter_mut()).zip(input) {
            let out = *ov;
            *gc += g * out;
            *ov = out - g * iv;
        }
    }
    for (v, &gc) in input_vectors.row_mut(center).iter_mut().zip(&s.grad) {
        *v -= gc;
    }
    loss
}

/// Per-run buffers of [`SkipGram::train`], allocated once.
struct Scratch {
    /// The center row's gradient, summed over one pair's targets.
    grad: Vec<f32>,
    /// One pair's targets: the context, then the kept negatives.
    targets: Vec<usize>,
    /// The dot of the center row with each target's row, taken before
    /// any update.
    dots: Vec<f32>,
}

/// `Σ_d x[d]·y[d]` as one ascending-`d` chain from `-0.0`, the start
/// `Iterator::sum` uses for `f32`.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    x.iter().zip(y).fold(-0.0, |acc, (&a, &b)| acc + a * b)
}

/// Four [`dot`]s of `x`, interleaved: each chain alone is bit-identical
/// to [`dot`], and the four hide each other's add latency.
#[inline]
fn dot4(x: &[f32], ys: [&[f32]; 4]) -> [f32; 4] {
    let mut acc = [-0.0f32; 4];
    let [a, b, c, d] = ys.map(|y| &y[..x.len()]);
    for (i, &v) in x.iter().enumerate() {
        acc[0] += v * a[i];
        acc[1] += v * b[i];
        acc[2] += v * c[i];
        acc[3] += v * d[i];
    }
    acc
}

/// Draws negatives from the unigram^0.75 CDF: a guide table over
/// equal-width buckets of `[0, total)` (four per word) gives each draw a
/// starting index no greater than its answer, and a forward scan finishes
/// it, so the index is exactly `cdf.partition_point(|c| c <= x)` (clamped
/// to the last word) for the same `x` — the same draw as a binary search.
/// The scan's first two steps are branch-free adds; a draw rarely needs
/// a third, so the loop after them is rarely entered and its branch is
/// predicted, where a plain loop of a random one to three steps was
/// mispredicted on most draws.
struct NegativeTable<'a> {
    cdf: &'a [f64],
    total: f64,
    /// Buckets per unit of cumulative weight.
    scale: f64,
    /// Per bucket, the answer for a point a half bucket below its start:
    /// a lower bound for every `x` that lands in the bucket.
    guide: Vec<u32>,
}

impl<'a> NegativeTable<'a> {
    fn new(cdf: &'a [f64]) -> Self {
        let total = *cdf.last().expect("non-empty vocab");
        let buckets = 4 * cdf.len();
        let scale = buckets as f64 / total;
        let guide = (0..buckets)
            .map(|b| {
                let below = (b as f64 - 0.5) / scale;
                cdf.partition_point(|&c| c <= below) as u32
            })
            .collect();
        Self {
            cdf,
            total,
            scale,
            guide,
        }
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        self.index(rng.gen_range(0.0..self.total))
    }

    /// `cdf.partition_point(|c| c <= x).min(cdf.len() - 1)` for `x` in
    /// `[0, total)`.
    fn index(&self, x: f64) -> usize {
        let b = ((x * self.scale) as usize).min(self.guide.len() - 1);
        let last = self.cdf.len() - 1;
        let mut i = self.guide[b] as usize;
        i += usize::from(i < last && self.cdf[i] <= x);
        i += usize::from(i < last && self.cdf[i] <= x);
        while i < last && self.cdf[i] <= x {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a tiny corpus where words co-occur in two disjoint "topics".
    fn topic_corpus() -> (Vocab, Vec<Vec<usize>>) {
        let topic_a = ["pizza", "pasta", "espresso", "trattoria"];
        let topic_b = ["slots", "poker", "casino", "jackpot"];
        let mut docs: Vec<Vec<String>> = Vec::new();
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..400 {
            let topic: &[&str] = if i % 2 == 0 { &topic_a } else { &topic_b };
            let doc: Vec<String> = (0..8)
                .map(|_| topic[rng.gen_range(0..topic.len())].to_string())
                .collect();
            docs.push(doc);
        }
        let vocab = Vocab::build(docs.iter().map(|d| d.as_slice()), 2);
        let encoded = docs.iter().map(|d| vocab.encode(d)).collect();
        (vocab, encoded)
    }

    #[test]
    fn training_reduces_loss() {
        let (vocab, docs) = topic_corpus();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sg = SkipGram::new(
            &vocab,
            SkipGramConfig {
                dim: 16,
                epochs: 1,
                ..SkipGramConfig::default()
            },
            &mut rng,
        );
        let first = sg.train(&docs, &mut rng);
        let later = sg.train(&docs, &mut rng);
        assert!(later < first, "first = {first}, later = {later}");
    }

    #[test]
    fn same_topic_words_end_up_closer() {
        let (vocab, docs) = topic_corpus();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sg = SkipGram::new(
            &vocab,
            SkipGramConfig {
                dim: 16,
                epochs: 5,
                ..SkipGramConfig::default()
            },
            &mut rng,
        );
        sg.train(&docs, &mut rng);
        let within = sg.cosine(vocab.id("pizza"), vocab.id("pasta"));
        let across = sg.cosine(vocab.id("pizza"), vocab.id("poker"));
        assert!(
            within > across + 0.2,
            "within = {within}, across = {across}"
        );
    }

    #[test]
    fn embed_sequence_shape_and_content() {
        let (vocab, _) = topic_corpus();
        let mut rng = StdRng::seed_from_u64(4);
        let sg = SkipGram::new(&vocab, SkipGramConfig::default(), &mut rng);
        let ids = vec![vocab.id("pizza"), vocab.id("casino")];
        let m = sg.embed_sequence(&ids);
        assert_eq!(m.shape(), (2, sg.dim()));
        assert_eq!(m.row(0), sg.vector(ids[0]));
        assert_eq!(m.row(1), sg.vector(ids[1]));
    }

    #[test]
    fn negative_sampling_covers_vocab() {
        let (vocab, _) = topic_corpus();
        let mut rng = StdRng::seed_from_u64(5);
        let sg = SkipGram::new(&vocab, SkipGramConfig::default(), &mut rng);
        let mut seen = vec![false; vocab.len()];
        for _ in 0..5_000 {
            seen[NegativeTable::new(&sg.cdf).sample(&mut rng)] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(
            covered >= vocab.len() - 1,
            "covered {covered}/{}",
            vocab.len()
        );
    }

    /// A corpus over ~300 words with a skewed (Zipf-like) frequency, so
    /// negatives come from a long CDF and targets rarely repeat.
    fn zipf_corpus() -> (Vocab, Vec<Vec<usize>>) {
        let mut rng = StdRng::seed_from_u64(6);
        let docs: Vec<Vec<String>> = (0..300)
            .map(|_| {
                let len = rng.gen_range(1..=14);
                (0..len)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        format!("w{}", (u * u * u * 300.0) as usize)
                    })
                    .collect()
            })
            .collect();
        let vocab = Vocab::build(docs.iter().map(|d| d.as_slice()), 1);
        let encoded = docs.iter().map(|d| vocab.encode(d)).collect();
        (vocab, encoded)
    }

    /// FNV-1a over the bits of every word vector.
    fn fnv(m: &Matrix) -> u64 {
        m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, x| {
            x.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// The trained vectors and the returned loss are pinned by bits: the
    /// RNG draw order and every element's arithmetic order are part of
    /// the contract (DESIGN, "Training kernels").
    #[test]
    fn trained_vectors_and_loss_are_pinned() {
        let (topic_vocab, topic_docs) = topic_corpus();
        let (zipf_vocab, zipf_docs) = zipf_corpus();
        let cases = [
            (&topic_vocab, &topic_docs, 16, 3, 5, 0x4a60u64),
            (&zipf_vocab, &zipf_docs, 13, 5, 7, 0x4a61),
        ];
        let mut got = Vec::new();
        for (vocab, docs, dim, window, negatives, seed) in cases {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = SkipGramConfig {
                dim,
                window,
                negatives,
                ..SkipGramConfig::default()
            };
            let mut sg = SkipGram::new(vocab, cfg, &mut rng);
            let loss = sg.train(docs, &mut rng);
            got.push((fnv(sg.vectors()), loss.to_bits(), rng.gen::<u64>()));
        }
        assert_eq!(got, PINNED, "{got:x?}");
    }

    /// `(FNV of vectors(), loss bits, next RNG draw)` per case.
    const PINNED: [(u64, u32, u64); 2] = [
        (0xb130_6e6f_661a_ef1a, 0x3fee_9bc4, 0x45fb_6ef6_20e8_fe39),
        (0xb90e_e133_0e81_0c52, 0x403d_0657, 0x53c7_da73_9ef1_154a),
    ];

    /// The one-target-at-a-time loop [`SkipGram::train`] replaced, kept
    /// as the reference it must equal bit for bit.
    fn train_reference(sg: &mut SkipGram, docs: &[Vec<usize>], rng: &mut StdRng) -> f32 {
        let cfg = sg.cfg.clone();
        let total_steps = docs.iter().map(|d| d.len()).sum::<usize>().max(1) * cfg.epochs.max(1);
        let mut step = 0usize;
        let mut last_epoch_loss = 0.0f64;
        for _ in 0..cfg.epochs {
            let (mut epoch_loss, mut epoch_pairs) = (0.0f64, 0usize);
            for doc in docs {
                for (center_pos, &center) in doc.iter().enumerate() {
                    let w = rng.gen_range(1..=cfg.window);
                    let lo = center_pos.saturating_sub(w);
                    let hi = (center_pos + w).min(doc.len().saturating_sub(1));
                    let lr = cfg.lr * (1.0 - step as f32 / total_steps as f32).max(0.05);
                    for ctx_pos in (lo..=hi).filter(|&p| p != center_pos) {
                        epoch_loss += step_reference(sg, center, doc[ctx_pos], lr, rng) as f64;
                        epoch_pairs += 1;
                    }
                    step += 1;
                }
            }
            last_epoch_loss = epoch_loss / epoch_pairs.max(1) as f64;
        }
        last_epoch_loss as f32
    }

    #[allow(clippy::needless_range_loop)] // the reference's literal indexing
    fn step_reference(
        sg: &mut SkipGram,
        center: usize,
        context: usize,
        lr: f32,
        rng: &mut StdRng,
    ) -> f32 {
        let dim = sg.cfg.dim;
        let mut grad_center = vec![0.0f32; dim];
        let mut loss = 0.0f32;
        for neg in 0..=sg.cfg.negatives {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else {
                let total = *sg.cdf.last().unwrap();
                let x = rng.gen_range(0.0..total);
                let t = sg.cdf.partition_point(|&c| c <= x).min(sg.cdf.len() - 1);
                (t, 0.0f32)
            };
            if neg > 0 && target == context {
                continue;
            }
            let dot: f32 = (0..dim)
                .map(|d| sg.input.get(center, d) * sg.output.get(target, d))
                .sum();
            let sig = 1.0 / (1.0 + (-dot).exp());
            loss += if label > 0.5 {
                -(sig.max(1e-7)).ln()
            } else {
                -((1.0 - sig).max(1e-7)).ln()
            };
            let g = (sig - label) * lr;
            for d in 0..dim {
                let out = sg.output.get(target, d);
                grad_center[d] += g * out;
                let v = out - g * sg.input.get(center, d);
                sg.output.set(target, d, v);
            }
        }
        for d in 0..dim {
            let v = sg.input.get(center, d) - grad_center[d];
            sg.input.set(center, d, v);
        }
        loss
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Any width, window, negative count and epoch count: the same
        /// vectors, output vectors, loss and RNG position as the
        /// reference loop.
        #[test]
        fn train_equals_the_reference_loop(
            dim in 1usize..=20,
            window in 1usize..=4,
            negatives in 0usize..=20,
            epochs in 0usize..=3,
            zipf in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (vocab, docs) = if zipf { zipf_corpus() } else { topic_corpus() };
            let docs = &docs[..docs.len().min(60)];
            let cfg = SkipGramConfig { dim, window, negatives, epochs, ..SkipGramConfig::default() };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut want = SkipGram::new(&vocab, cfg, &mut rng);
            let mut got = want.clone();
            let mut got_rng = rng.clone();
            let want_loss = train_reference(&mut want, docs, &mut rng);
            let got_loss = got.train(docs, &mut got_rng);
            proptest::prop_assert_eq!(got_loss.to_bits(), want_loss.to_bits());
            proptest::prop_assert_eq!(fnv(&got.input), fnv(&want.input));
            proptest::prop_assert_eq!(fnv(&got.output), fnv(&want.output));
            proptest::prop_assert_eq!(got_rng.gen::<u64>(), rng.gen::<u64>());
        }
    }

    /// The guide table's draw is `partition_point`'s for every `x` on and
    /// next to every CDF edge, and for 100k random `x`.
    #[test]
    fn guide_table_draw_equals_partition_point() {
        let reference = |cdf: &[f64], x: f64| cdf.partition_point(|&c| c <= x).min(cdf.len() - 1);
        let (topic_vocab, _) = topic_corpus();
        let (zipf_vocab, _) = zipf_corpus();
        let mut rng = StdRng::seed_from_u64(8);
        let cdfs = [
            SkipGram::new(&topic_vocab, SkipGramConfig::default(), &mut rng).cdf,
            SkipGram::new(&zipf_vocab, SkipGramConfig::default(), &mut rng).cdf,
            // Zero-weight words repeat an edge; one word has no inner edge.
            vec![0.0, 0.0, 1.5, 1.5, 1.5, 2.0, 7.25, 7.25],
            vec![3.0],
        ];
        for cdf in &cdfs {
            let table = NegativeTable::new(cdf);
            let total = *cdf.last().unwrap();
            let mut xs = vec![0.0];
            for &edge in cdf {
                xs.extend([edge, f64::from_bits(edge.to_bits().saturating_sub(1))]);
                xs.push(f64::from_bits(edge.to_bits() + 1));
            }
            xs.retain(|&x| (0.0..total).contains(&x));
            xs.extend((0..100_000).map(|_| rng.gen_range(0.0..total)));
            for x in xs {
                assert_eq!(
                    table.index(x),
                    reference(cdf, x),
                    "x = {x:e}, cdf = {cdf:?}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (vocab, docs) = topic_corpus();
        let run = || {
            let mut rng = StdRng::seed_from_u64(9);
            let mut sg = SkipGram::new(
                &vocab,
                SkipGramConfig {
                    dim: 8,
                    epochs: 1,
                    ..SkipGramConfig::default()
                },
                &mut rng,
            );
            sg.train(&docs, &mut rng);
            sg.vector(1).to_vec()
        };
        assert_eq!(run(), run());
    }
}
