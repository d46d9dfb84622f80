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
    #[allow(clippy::needless_range_loop)] // window scan over positions, not elements
    pub fn train<R: Rng>(&mut self, docs: &[Vec<usize>], rng: &mut R) -> f32 {
        let total_steps: usize =
            docs.iter().map(|d| d.len()).sum::<usize>().max(1) * self.cfg.epochs.max(1);
        let mut step = 0usize;
        let mut last_epoch_loss = 0.0f64;
        for _epoch in 0..self.cfg.epochs {
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
                        epoch_loss += self.sgns_step(center, doc[ctx_pos], lr, rng) as f64;
                        epoch_pairs += 1;
                    }
                    step += 1;
                }
            }
            last_epoch_loss = epoch_loss / epoch_pairs.max(1) as f64;
        }
        last_epoch_loss as f32
    }

    /// One positive pair plus `negatives` sampled negatives; returns the
    /// pair's loss.
    #[allow(clippy::needless_range_loop)] // parallel-array updates read clearer indexed
    fn sgns_step<R: Rng>(&mut self, center: usize, context: usize, lr: f32, rng: &mut R) -> f32 {
        let dim = self.cfg.dim;
        let mut grad_center = vec![0.0f32; dim];
        let mut loss = 0.0f32;
        for neg in 0..=self.cfg.negatives {
            let (target, label) = if neg == 0 {
                (context, 1.0f32)
            } else {
                (self.sample_negative(rng), 0.0f32)
            };
            if neg > 0 && target == context {
                continue; // collided with the positive: skip
            }
            let dot: f32 = (0..dim)
                .map(|d| self.input.get(center, d) * self.output.get(target, d))
                .sum();
            let sig = 1.0 / (1.0 + (-dot).exp());
            loss += if label > 0.5 {
                -(sig.max(1e-7)).ln()
            } else {
                -((1.0 - sig).max(1e-7)).ln()
            };
            let g = (sig - label) * lr;
            for d in 0..dim {
                let out = self.output.get(target, d);
                grad_center[d] += g * out;
                self.output
                    .set(target, d, out - g * self.input.get(center, d));
            }
        }
        for d in 0..dim {
            let v = self.input.get(center, d) - grad_center[d];
            self.input.set(center, d, v);
        }
        loss
    }

    fn sample_negative<R: Rng>(&self, rng: &mut R) -> usize {
        let total = *self.cdf.last().expect("non-empty vocab");
        let x = rng.gen_range(0.0..total);
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
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
            seen[sg.sample_negative(&mut rng)] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(
            covered >= vocab.len() - 1,
            "covered {covered}/{}",
            vocab.len()
        );
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
