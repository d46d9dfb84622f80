//! Wall-clock micro-benchmarks for the paper's online-performance claims
//! (§6.4.4: featurization and judgement both under 1 ms per pair) and for
//! the hot kernels underneath, including serial-vs-parallel matmul cases
//! that track the thread-pool speedup.
//!
//! The harness is hand-rolled (run `cargo bench -p bench`): each case is
//! timed in calibrated batches for a fixed budget and reported as ns per
//! iteration. Cases that a gate compares with each other are timed as a
//! pair instead: one batch of each in turn, sample by sample, and the gate
//! reads the median of the per-pair time ratios, so both sides of every
//! ratio see the same machine state. All cases, the paired ratios and the
//! serial/parallel speedup ratios land in `results/microbench.json`.
//! `MICROBENCH_BUDGET_MS` adjusts the per-case budget (default 300 ms).

use bench::report::Report;
use hisrect::affinity::build_affinity;
use hisrect::config::{ApproachSpec, ContentEncoder, HisRectConfig, HistoryEncoder, UnsupLoss};
use hisrect::featurizer::{Featurizer, ProfileInput};
use hisrect::fv::{fv_feature, fv_features};
use hisrect::judge::Judge;
use hisrect::model::{Ablation, HisRectModel};
use hisrect::ssl::{train_featurizer, SslNets};
use hisrect::{JudgeService, Precision};
use nn::{BiLstm, Lstm, ParamStore, SeqBatch, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;
use tensor::{randn, Matrix};
use text::{SkipGram, SkipGramConfig, Vocab};
use twitter_sim::{generate, SimConfig};

#[derive(Serialize)]
struct Case {
    name: String,
    iters: u64,
    mean_ns: f64,
    min_sample_ns: f64,
}

/// The median over alternating samples of `a`'s time per iteration over
/// `b`'s.
#[derive(Serialize)]
struct Paired {
    a: String,
    b: String,
    pairs: usize,
    median_ratio: f64,
}

#[derive(Serialize)]
struct Payload {
    threads: usize,
    /// The kernel tier every case ran on (`tensor::simd_tier`).
    simd_tier: &'static str,
    budget_ms: u64,
    cases: Vec<Case>,
    /// serial-time / parallel-time per paired case name.
    speedups: BTreeMap<String, f64>,
    /// The cases timed against each other, with their median ratios.
    paired: Vec<Paired>,
    /// Paired median metrics-on / metrics-off time ratio of the
    /// instrumented `train_featurizer` loop (1.0 = free).
    metrics_overhead_ratio: f64,
}

struct Harness {
    report: Report,
    budget_ms: u64,
    cases: Vec<Case>,
    paired: Vec<Paired>,
}

/// Runs `f` in growing batches until one takes ≥ 10 ms (warm-up and
/// calibration); returns the batch size and that batch's ns.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> (u64, f64) {
    let mut batch: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 10 || batch >= 1 << 24 {
            return (batch, elapsed.as_nanos() as f64);
        }
        batch *= 4;
    }
}

/// ns per iteration of one batch of `batch` calls.
fn time_batch<R>(f: &mut impl FnMut() -> R, batch: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..batch {
        black_box(f());
    }
    t.elapsed().as_nanos() as f64 / batch as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

impl Harness {
    fn new() -> Self {
        let budget_ms = std::env::var("MICROBENCH_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(300);
        Self {
            report: Report::new("microbench"),
            budget_ms,
            cases: Vec::new(),
            paired: Vec::new(),
        }
    }

    /// Samples that fit `cases` budgets at `sample_ns` per sample,
    /// clamped to `min..=50`.
    fn samples(&self, cases: f64, sample_ns: f64, min: usize) -> usize {
        let budget_ns = cases * self.budget_ms as f64 * 1e6;
        ((budget_ns / sample_ns) as usize).clamp(min, 50)
    }

    /// Times `f` in calibrated batches until the budget is spent and
    /// records mean ns/iter plus the fastest batch.
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        let (batch, batch_ns) = calibrate(&mut f);
        let times: Vec<f64> = (0..self.samples(1.0, batch_ns, 1))
            .map(|_| time_batch(&mut f, batch))
            .collect();
        self.record(name, batch, &times);
    }

    /// Times `a` and `b` against each other: one calibrated batch of each
    /// per sample, the one going first alternating, for the budget of two
    /// cases (at least five pairs). Records both as cases (a name already
    /// recorded keeps its first entry) and the median over pairs of `a`'s
    /// ns/iter over `b`'s, which the gate reads: a ratio of two minima
    /// taken in separate loops sees two machine states.
    fn paired<RA, RB>(
        &mut self,
        a: &str,
        mut fa: impl FnMut() -> RA,
        b: &str,
        mut fb: impl FnMut() -> RB,
    ) {
        let (batch_a, ns_a) = calibrate(&mut fa);
        let (batch_b, ns_b) = calibrate(&mut fb);
        let pairs = self.samples(2.0, ns_a + ns_b, 5);
        let times: Vec<(f64, f64)> = (0..pairs)
            .map(|i| {
                if i.is_multiple_of(2) {
                    let ta = time_batch(&mut fa, batch_a);
                    (ta, time_batch(&mut fb, batch_b))
                } else {
                    let tb = time_batch(&mut fb, batch_b);
                    (time_batch(&mut fa, batch_a), tb)
                }
            })
            .collect();
        let ratio = median(times.iter().map(|&(ta, tb)| ta / tb).collect());
        self.record(a, batch_a, &times.iter().map(|t| t.0).collect::<Vec<_>>());
        self.record(b, batch_b, &times.iter().map(|t| t.1).collect::<Vec<_>>());
        self.report.line(&format!(
            "paired {a} / {b}: median {ratio:.4} over {pairs} pairs"
        ));
        self.paired.push(Paired {
            a: a.to_string(),
            b: b.to_string(),
            pairs,
            median_ratio: ratio,
        });
    }

    /// Records a case from its per-sample ns/iter, unless `name` already
    /// has an entry.
    fn record(&mut self, name: &str, batch: u64, times: &[f64]) {
        if self.cases.iter().any(|c| c.name == name) {
            return;
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let min_sample = times.iter().copied().fold(f64::INFINITY, f64::min);
        let iters = batch * times.len() as u64;
        self.report.line(&format!(
            "{name:<38} {:>12.0} ns/iter  (min {:>12.0}, {iters} iters)",
            mean, min_sample
        ));
        self.cases.push(Case {
            name: name.to_string(),
            iters,
            mean_ns: mean,
            min_sample_ns: min_sample,
        });
    }

    /// The median ratio of the pair `a` over `b`.
    fn ratio_of(&self, a: &str, b: &str) -> Option<f64> {
        self.paired
            .iter()
            .find(|p| p.a == a && p.b == b)
            .map(|p| p.median_ratio)
    }

    fn mean_of(&self, name: &str) -> Option<f64> {
        self.cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.mean_ns)
    }

    /// Fastest observed batch for `name` — the statistic the perf gate
    /// compares against baselines, since the minimum is far less noisy
    /// than the mean on loaded CI machines.
    fn min_of(&self, name: &str) -> Option<f64> {
        self.cases
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.min_sample_ns)
    }
}

fn small_dataset() -> twitter_sim::Dataset {
    let mut cfg = SimConfig::tiny(31);
    cfg.n_users = 80;
    cfg.n_pois = 12;
    generate(&cfg)
}

fn trained_model(ds: &twitter_sim::Dataset) -> HisRectModel {
    let spec = ApproachSpec::hisrect().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: 150,
            judge_iters: 150,
            ..HisRectConfig::fast()
        };
    });
    HisRectModel::train(ds, &spec, 31)
}

fn bench_kernels(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(0);
    let a = randn(&mut rng, 64, 64, 1.0);
    let b = randn(&mut rng, 64, 64, 1.0);
    h.bench("matmul_64x64", || a.matmul(&b));

    let a = randn(&mut rng, 256, 256, 1.0);
    let b = randn(&mut rng, 256, 256, 1.0);
    h.paired(
        "matmul_256x256_parallel",
        || a.matmul_parallel(&b),
        "matmul_256x256_serial",
        || a.matmul_serial(&b),
    );
    h.bench("matmul_tn_256x256_serial", || a.matmul_tn_serial(&b));
    h.bench("matmul_tn_256x256_parallel", || a.matmul_tn_parallel(&b));
    h.bench("matmul_nt_256x256_serial", || a.matmul_nt_serial(&b));
    h.bench("matmul_nt_256x256_parallel", || a.matmul_nt_parallel(&b));

    let x = randn(&mut rng, 12, 24, 1.0);
    h.bench("matrix_transpose_and_norms", || {
        let t = x.transpose();
        t.l2_norm()
    });

    // i8 kernels under the quantized path: a bare widening dot, then the
    // quantize-on-the-fly matmul against its f32 counterpart at the same
    // shape.
    let qa: Vec<i8> = (0..4096).map(|i| ((i * 37) % 255 - 127) as i8).collect();
    let qb: Vec<i8> = (0..4096).map(|i| ((i * 91) % 255 - 127) as i8).collect();
    h.bench("dot_i8_4096", || tensor::gemm::dot_i8(&qa, &qb));

    // One LSTM step's worth of gate pre-activations (4 x 24 units)
    // through the shared polynomial activations and through the scalar
    // libm loops they replaced.
    let gates = randn(&mut rng, 1, 96, 2.0);
    let gates = gates.as_slice();
    let on_gates = |f: fn(&mut [f32])| {
        let mut buf = vec![0.0f32; 96];
        move || {
            buf.copy_from_slice(gates);
            f(&mut buf);
            buf[95]
        }
    };
    h.paired(
        "act_sigmoid_96",
        on_gates(tensor::act::sigmoid),
        "libm_sigmoid_96",
        on_gates(|xs| xs.iter_mut().for_each(|x| *x = 1.0 / (1.0 + (-*x).exp()))),
    );
    h.paired(
        "act_tanh_96",
        on_gates(tensor::act::tanh),
        "libm_tanh_96",
        on_gates(|xs| xs.iter_mut().for_each(|x| *x = x.tanh())),
    );

    let w = randn(&mut rng, 256, 256, 1.0);
    let qw = tensor::QuantMatrix::from_weights(&w);
    let x = randn(&mut rng, 16, 256, 1.0);
    h.paired(
        "qmatmul_16x256x256",
        || tensor::qmatmul(&x, &qw),
        "matmul_16x256x256_f32",
        || x.matmul(&w),
    );
}

/// A toy but non-trivial Algorithm-1 run on one thread: Rect history
/// encoder over a synthetic fully-separable class problem.
fn toy_train_featurizer() {
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = HisRectConfig {
        word_dim: 6,
        hidden_n: 16,
        feat_dim: 64,
        embed_dim: 16,
        batch: 64,
        featurizer_iters: 8,
        unsup: UnsupLoss::Cosine,
        ..HisRectConfig::fast()
    };
    let fv_dim = 32;
    let mut store = ParamStore::new();
    let featurizer = Featurizer::new(
        &mut store,
        &cfg,
        HistoryEncoder::Rect,
        ContentEncoder::None,
        fv_dim,
        &mut rng,
    );
    let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), 2, &mut rng);

    let mut inputs = HashMap::new();
    let mut labeled = Vec::new();
    for k in 0..128usize {
        let class = k % 2;
        let mut fv = vec![0.05f32; fv_dim];
        fv[class] = 0.9;
        fv[2 + class] = 0.4;
        inputs.insert(
            k,
            ProfileInput {
                fv,
                ids: Vec::new(),
                vectors: std::sync::Arc::clone(featurizer.word_vectors()),
            },
        );
        labeled.push((k, class));
    }

    let prev_threads = parallel::num_threads();
    parallel::set_threads(1);
    let stats = train_featurizer(
        &featurizer,
        &nets,
        &mut store,
        &inputs,
        &labeled,
        &[],
        &cfg,
        false,
        &mut rng,
    );
    parallel::set_threads(prev_threads);
    black_box(stats);
}

/// The toy loop with obs collection on against the same loop with it
/// off: the gap is the full cost of metrics, the off case itself carries
/// only the disabled-path check (one relaxed atomic load per recording
/// site).
fn bench_training(h: &mut Harness) {
    let was = obs::enabled();
    let run = |metrics: bool| {
        move || {
            obs::set_enabled(metrics);
            toy_train_featurizer()
        }
    };
    h.paired(
        "train_featurizer_metrics_on",
        run(true),
        "train_featurizer_serial",
        run(false),
    );
    obs::set_enabled(was);
}

/// One BiLSTM layer at the trained shape (in = h = 24), forward and
/// backward through the fused `lstm_seq` nodes every encoder trains
/// through: over one 8-word tweet, and over a training batch of 24 ragged
/// tweets of 4..=12 words in pairs that sum to 16, so the batch holds the
/// rows of 24 single cases.
fn bench_bilstm_train_step(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut store = ParamStore::new();
    let bi = BiLstm::new(&mut store, "bi", 24, 24, 0.3, &mut rng);
    // Both sides of the pair step the one store.
    let store = std::cell::RefCell::new(store);
    let one = SeqBatch::new(&[8]);
    // Pairs 8 ± k, k = 0..=4: lengths 4..=12 summing to 24 × 8.
    let lens: Vec<usize> = (0..24)
        .map(|i| {
            let k = (i / 2) % 5;
            if i % 2 == 0 {
                8 + k
            } else {
                8 - k
            }
        })
        .collect();
    let batch = SeqBatch::new(&lens);
    let step = |seqs: &SeqBatch, x: &Matrix| {
        let store = &mut *store.borrow_mut();
        let mut tape = Tape::new();
        let x = tape.input(x.clone());
        let states = bi.forward_rows(&mut tape, store, x, seqs);
        let loss = tape.mean_all(states);
        tape.backward(loss, store)
    };
    let x_one = randn(&mut rng, one.rows(), 24, 1.0);
    let x_batch = randn(&mut rng, batch.rows(), 24, 1.0);
    h.paired(
        "bilstm_train_batch24",
        || step(&batch, &x_batch),
        "bilstm_train_step_fused",
        || step(&one, &x_one),
    );
}

/// One LSTM direction at the trained shape (in = h = 24) over a training
/// batch of 24 ragged tweets of 4..=12 words: the forward recurrence and
/// its BPTT through one `lstm_seq` node, with the input bound as a
/// parameter so `dX` is computed too.
fn bench_lstm_train_pass(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut store = ParamStore::new();
    let lstm = Lstm::new(&mut store, "lstm", 24, 24, 0.3, &mut rng);
    let lens: Vec<usize> = (0..24).map(|i| 4 + (i * 5) % 9).collect();
    let batch = SeqBatch::new(&lens);
    let x = store.add("x", randn(&mut rng, batch.rows(), 24, 1.0));
    h.bench("lstm_train_pass", || {
        let mut tape = Tape::new();
        let xv = tape.param(&store, x);
        let states = lstm.forward_rows(&mut tape, &store, xv, &batch, false);
        let loss = tape.mean_all(states);
        tape.backward(loss, &mut store)
    });
}

/// The served model's shapes (h = 24, a 3-wide conv over 2h-wide states)
/// on the dispatched kernel tier: one LSTM cell step block and its BPTT
/// over 160 rows, the packed per-step product `h·Wh` of a 24-row block,
/// and the conv's products — forward `X·W` over 130 windows, backward
/// `dX = G·Wᵀ` and `dW = Xᵀ·G` — each packing its operand as the tape
/// does.
fn bench_model_shapes(h: &mut Harness) {
    use tensor::gemm::{self, Variant};
    let mut rng = StdRng::seed_from_u64(4);
    let (units, rows) = (24, 160);
    let mut gates = randn(&mut rng, rows, 4 * units, 2.0).as_slice().to_vec();
    let hg = randn(&mut rng, rows, 4 * units, 1.0).as_slice().to_vec();
    let b = randn(&mut rng, 1, 4 * units, 0.5).as_slice().to_vec();
    let mut c = randn(&mut rng, rows, units, 1.0).as_slice().to_vec();
    let (mut tc, mut hs) = (vec![0.0; rows * units], vec![0.0; rows * units]);
    // In place: after the first call the gates hold activations, which
    // the branch-free kernel treats like any other input.
    h.bench("lstm_cell_160x24", || {
        tensor::act::lstm_cell(&mut gates, &hg, &b, &mut c, &mut tc, &mut hs);
        hs[0]
    });
    let g_out = randn(&mut rng, rows, units, 1.0).as_slice().to_vec();
    let dh_rec = randn(&mut rng, rows, units, 1.0).as_slice().to_vec();
    let c_prev = randn(&mut rng, rows, units, 1.0).as_slice().to_vec();
    let mut dc = vec![0.0; rows * units];
    let mut dg = vec![0.0; rows * 4 * units];
    h.bench("lstm_cell_backward_160x24", || {
        tensor::act::lstm_cell_backward(
            units, &gates, &tc, &c_prev, &g_out, &dh_rec, &mut dc, &mut dg,
        );
        dg[0]
    });

    let state = randn(&mut rng, 24, units, 1.0);
    let wh = randn(&mut rng, units, 4 * units, 1.0);
    let packed = gemm::pack_b(Variant::Nn, wh.as_slice(), 4 * units, units, 4 * units);
    let mut out = vec![0.0; 24 * 4 * units];
    h.bench("step_product_24x24x96", || {
        gemm::gemm_rows(
            Variant::Nn,
            state.as_slice(),
            units,
            24,
            &packed,
            0,
            &mut out,
        );
        out[0]
    });

    let windows = randn(&mut rng, 130, 3 * 2 * units, 1.0);
    let filters = randn(&mut rng, 3 * 2 * units, units, 1.0);
    let grad = randn(&mut rng, 130, units, 1.0);
    h.bench("conv_forward_130x144x24", || {
        windows.matmul_serial(&filters)
    });
    h.bench("conv_dx_130x24x144", || grad.matmul_nt_serial(&filters));
    h.bench("conv_dw_144x130x24", || windows.matmul_tn_serial(&grad));
}

/// Skip-gram pretraining (§4.2) over the LV preset's training corpus at
/// the model's word width: one `SkipGram::new` + `train`, as
/// `HisRectModel::train` runs it.
fn bench_skipgram(h: &mut Harness) {
    let ds = generate(&SimConfig::lv_like(1));
    let vocab = Vocab::build(ds.train_docs.iter().map(|d| d.as_slice()), 10);
    let docs: Vec<Vec<usize>> = ds.train_docs.iter().map(|d| vocab.encode(d)).collect();
    let cfg = SkipGramConfig {
        dim: HisRectConfig::default().word_dim,
        ..SkipGramConfig::default()
    };
    h.bench("skipgram_train", || {
        let mut rng = StdRng::seed_from_u64(1);
        let mut sg = SkipGram::new(&vocab, cfg.clone(), &mut rng);
        sg.train(&docs, &mut rng)
    });
}

/// The raw per-call cost of the obs entry points, disabled and enabled.
fn bench_obs(h: &mut Harness) {
    let was = obs::enabled();
    obs::set_enabled(false);
    h.bench("obs_span_disabled", || obs::span("bench/obs_span"));
    h.bench("obs_counter_disabled", || obs::incr("bench/obs_counter"));
    obs::set_enabled(true);
    h.bench("obs_span_enabled", || obs::span("bench/obs_span"));
    h.bench("obs_counter_enabled", || obs::incr("bench/obs_counter"));
    obs::set_enabled(was);
}

fn bench_geo(h: &mut Harness, ds: &twitter_sim::Dataset) {
    let p = ds.profile(ds.test.labeled[0]).geo;
    h.bench("poi_containment_query", || ds.world.pois.containing(&p));
    h.bench("poi_min_distance_query", || {
        ds.world.pois.min_distance_m(&p)
    });
}

fn bench_features(h: &mut Harness, ds: &twitter_sim::Dataset) {
    let idx = *ds
        .test
        .labeled
        .iter()
        .max_by_key(|&&i| ds.profile(i).visits.len())
        .unwrap();
    let profile = ds.profile(idx);

    // The same history as 32 users who share no visit point (each copy
    // shifted k metres east): the batched Fv with nothing for its Eq. 1
    // memo to reuse, against 32 single calls.
    let strangers: Vec<twitter_sim::Profile> = (0..32u32)
        .map(|k| {
            let mut p = profile.clone();
            p.uid = k;
            for v in &mut p.visits {
                v.point = v.point.offset_m(f64::from(k), 0.0);
            }
            p
        })
        .collect();
    let strangers: Vec<&twitter_sim::Profile> = strangers.iter().collect();
    h.paired(
        "fv_batch32_distinct_users",
        || fv_features(&strangers, &ds.world.pois, 1000.0, 86_400.0),
        "fv_feature_eq1_eq2",
        || fv_feature(profile, &ds.world.pois, 1000.0, 86_400.0),
    );

    let model = trained_model(ds);
    h.bench("featurize_one_profile", || {
        model.feature(ds, idx, Ablation::default())
    });

    // The same profile through a stand-alone BiLSTM-C featurizer of the
    // model's shape, tape-free and on the tape forward it is pinned to
    // (weights are random: timing does not depend on them).
    let input = model.profile_input_for(ds, profile, Ablation::default());
    let mut rng = StdRng::seed_from_u64(1);
    let mut store = ParamStore::new();
    let featurizer = Featurizer::new(
        &mut store,
        &model.spec.config,
        HistoryEncoder::Rect,
        ContentEncoder::BiLstmC,
        ds.world.pois.len(),
        &mut rng,
    )
    .with_word_vectors(model.skipgram().vectors());
    let head = featurizer.head_at(&store, Precision::F32);
    let eval_one = || featurizer.features(&store, &[&input], &head);
    // The rows of 32 single cases as one batched evaluation, then through
    // the int8 head.
    let batch32 = vec![&input; 32];
    let eval_batch32 = || featurizer.features(&store, &batch32, &head);
    h.paired(
        "featurize_batch32_eval",
        eval_batch32,
        "featurize_one_profile_eval",
        eval_one,
    );
    let qhead = featurizer.head_at(&store, Precision::Int8);
    h.paired(
        "featurize_batch32_eval_int8",
        || featurizer.features(&store, &batch32, &qhead),
        "featurize_batch32_eval",
        eval_batch32,
    );
    h.paired(
        "featurize_one_profile_eval",
        eval_one,
        "featurize_one_profile_tape",
        || {
            let mut tape = Tape::new();
            let f = featurizer.forward_batch(&mut tape, &store, &[&input], false, &mut rng);
            tape.value(f).clone()
        },
    );

    let pair = ds.test.pos_pairs[0];
    let fi = model.feature(ds, pair.i, Ablation::default());
    let fj = model.feature(ds, pair.j, Ablation::default());
    // §6.4.4: judgement from features must be well under 1 ms.
    h.bench("judge_pair_cached_features", || {
        model.judge_features(&fi, &fj)
    });
    h.bench("judge_pair_end_to_end", || {
        model.judge_pair(ds, pair.i, pair.j)
    });

    // The same cached features through the public service at int8 — the
    // one judge body over quantized stacks, per-row activation scales —
    // plus the fused micro-batch path at the batcher's default flush size,
    // f32 vs int8.
    let twin = HisRectModel::from_snapshot(model.snapshot());
    let int8 = JudgeService::with_precision(twin, ds.world.pois.clone(), Precision::Int8);
    h.bench("judge_pair_cached_features_int8", || {
        int8.judge_features(&fi, &fj)
    });
    let pairs16: Vec<(&[f32], &[f32])> = (0..16).map(|_| (fi.as_slice(), fj.as_slice())).collect();
    h.paired(
        "judge_batch16_cached_features_int8",
        || int8.judge_features_batch(&pairs16),
        "judge_batch16_cached_features",
        || model.judge_features_batch(&pairs16),
    );
}

/// The keep-int8 decision, reproducible: a judge at the paper's width
/// (`feat_dim` 512, `embed_dim` 256; §6.4.4 claims < 1 ms per judgement
/// at M = 512) over a 32-pair batch at both precisions. Weights and
/// features are seeded noise — timing does not depend on them.
fn bench_paper_width_judge(h: &mut Harness) {
    let cfg = HisRectConfig {
        embed_dim: 256,
        ..HisRectConfig::fast()
    };
    let mut rng = StdRng::seed_from_u64(512);
    let mut store = ParamStore::new();
    let judge = Judge::new(&mut store, &cfg, 512, &mut rng);
    let feats = randn(&mut rng, 64, 512, 1.0);
    let pairs32: Vec<(&[f32], &[f32])> =
        (0..32).map(|r| (feats.row(r), feats.row(32 + r))).collect();
    let [f32_eval, int8_eval] = [Precision::F32, Precision::Int8].map(|p| judge.at(&store, p));
    h.paired(
        &format!("judge_batch32_w512_{}", Precision::Int8),
        || int8_eval.predict_batch(&store, &pairs32),
        &format!("judge_batch32_w512_{}", Precision::F32),
        || f32_eval.predict_batch(&store, &pairs32),
    );
}

fn bench_pipeline_stages(h: &mut Harness, ds: &twitter_sim::Dataset) {
    h.bench("simulate_tiny_dataset", || generate(&SimConfig::tiny(1)));
    let cfg = HisRectConfig::fast();
    h.bench("build_affinity_graph", || build_affinity(ds, &cfg));
}

fn main() {
    let mut h = Harness::new();
    let threads = parallel::num_threads();
    h.report.line(&format!(
        "threads = {threads}, simd tier = {}, budget = {} ms/case",
        tensor::simd_tier(),
        h.budget_ms
    ));

    bench_kernels(&mut h);
    bench_obs(&mut h);
    bench_training(&mut h);
    bench_bilstm_train_step(&mut h);
    bench_lstm_train_pass(&mut h);
    bench_model_shapes(&mut h);
    bench_skipgram(&mut h);
    let ds = small_dataset();
    bench_geo(&mut h, &ds);
    bench_features(&mut h, &ds);
    bench_paper_width_judge(&mut h);
    bench_pipeline_stages(&mut h, &ds);

    let mut speedups = BTreeMap::new();
    for root in ["matmul_256x256", "matmul_tn_256x256", "matmul_nt_256x256"] {
        if let (Some(s), Some(p)) = (
            h.mean_of(&format!("{root}_serial")),
            h.mean_of(&format!("{root}_parallel")),
        ) {
            let ratio = s / p;
            h.report.line(&format!(
                "speedup {root:<28} {ratio:.2}x ({threads} threads)"
            ));
            speedups.insert(root.to_string(), ratio);
        }
    }

    let metrics_overhead_ratio = h
        .ratio_of("train_featurizer_metrics_on", "train_featurizer_serial")
        .unwrap_or(f64::NAN);
    h.report.line(&format!(
        "metrics overhead on train_featurizer: {:.2}% (paired median on/off = {metrics_overhead_ratio:.4})",
        (metrics_overhead_ratio - 1.0) * 100.0
    ));

    let gate_failures = run_perf_gate(&mut h);

    let payload = Payload {
        threads,
        simd_tier: tensor::simd_tier(),
        budget_ms: h.budget_ms,
        cases: h.cases,
        speedups,
        paired: h.paired,
        metrics_overhead_ratio,
    };
    h.report.save(&payload);

    if !gate_failures.is_empty() {
        if std::env::var("HISRECT_PERF_GATE").is_ok_and(|v| v == "1") {
            eprintln!("perf gate FAILED: {}", gate_failures.join("; "));
            std::process::exit(1);
        }
        eprintln!(
            "perf gate violations (advisory without HISRECT_PERF_GATE=1): {}",
            gate_failures.join("; ")
        );
    }
}

/// Seed-commit baselines (mean ns/iter recorded before the packed-kernel
/// rework) that the seed-absolute checks measure against.
const SEED_MATMUL_NT_256_NS: f64 = 9_785_522.0;
const SEED_MATMUL_256_NS: f64 = 2_305_380.0;
const SEED_TRAIN_FEATURIZER_NS: f64 = 4_997_646.0;
const SEED_JUDGE_PAIR_NS: f64 = 1_903.0;

/// One gate check: `measured <= limit`.
struct Check {
    /// `seed-absolute` (a min-sample time in ns against a seed-commit
    /// baseline) or `paired` (a median paired time ratio against its bar).
    kind: &'static str,
    label: String,
    measured: f64,
    limit: f64,
}

/// Evaluates the blocking perf-gate checks and reports each verdict.
/// Returns the failures; the caller only makes them fatal under
/// `HISRECT_PERF_GATE=1` so local runs on busy machines stay informative
/// instead of flaky-red.
///
/// Seed-absolute checks compare `min_sample_ns` (the low-noise statistic
/// of a case timed on its own) against the seed baselines. Every ratio
/// between two cases of this run is a paired check: the median over
/// alternating samples of `a / b` (see [`Harness::paired`]) against the
/// bar, written as the largest ratio that passes.
fn run_perf_gate(h: &mut Harness) -> Vec<String> {
    let mut checks = Vec::new();
    let mut absolute = |label: &str, case: &str, limit: f64| {
        checks.push(Check {
            kind: "seed-absolute",
            label: label.to_string(),
            measured: h.min_of(case).unwrap_or(f64::INFINITY),
            limit,
        });
    };
    // The seed-vs-now gates were calibrated with the full kernel stack;
    // forcing the portable tier (HISRECT_SIMD=0, the matrix's other leg)
    // deliberately gives those speedups away, so only the paired checks
    // below stay blocking there.
    let simd = tensor::simd_active();
    if simd {
        absolute(
            "matmul_nt_256x256_serial >= 2x faster than seed",
            "matmul_nt_256x256_serial",
            SEED_MATMUL_NT_256_NS / 2.0,
        );
        absolute(
            "matmul_256x256_serial >= 1.5x faster than seed",
            "matmul_256x256_serial",
            SEED_MATMUL_256_NS / 1.5,
        );
        // 2.6x measured. The toy trains no content encoder, so this is
        // the tape, the head GEMMs and Adam; the recurrent encoders'
        // training cost is gated by the paired BiLSTM ratio below.
        absolute(
            "train_featurizer_serial >= 2x faster than seed",
            "train_featurizer_serial",
            SEED_TRAIN_FEATURIZER_NS / 2.0,
        );
        // 20% band: the case runs ~2 µs, where run-to-run min-sample
        // spread of identical code measures ±14% on a contended runner —
        // a 10% band over the seed's point measurement flagged pure
        // machine noise.
        absolute(
            "judge_pair_cached_features within 20% of seed",
            "judge_pair_cached_features",
            SEED_JUDGE_PAIR_NS * 1.20,
        );
    } else {
        h.report
            .line("gate SKIP seed-absolute checks (portable tier forced, HISRECT_SIMD=0)");
    }
    let mut paired = |label: &str, a: &str, b: &str, limit: f64| {
        checks.push(Check {
            kind: "paired",
            label: label.to_string(),
            measured: h.ratio_of(a, b).unwrap_or(f64::INFINITY),
            limit,
        });
    };
    // The quantized path's bars. int8 pays at the served widths (24-48)
    // now: `qmatmul_into` quantizes every row, then runs one blocked pass
    // that takes four output channels per 32-byte k-block and one
    // horizontal sum per four channels. It used to run one `dot_i8` with a
    // scalar tail and a horizontal sum per channel and row, and the
    // 16-pair judge batch ran 1.23x slower than f32 on AVX2. On AVX2 the
    // i8 GEMM must stay >= 2x the f32 GEMM and the judge at the paper's
    // width >= 1.3x; the served-width bars follow below.
    if simd {
        paired(
            "qmatmul_16x256x256 >= 2x faster than f32",
            "qmatmul_16x256x256",
            "matmul_16x256x256_f32",
            1.0 / 2.0,
        );
        // Why int8 is kept (DESIGN §13): 1.68x measured where the bar
        // was set.
        paired(
            "judge_batch32_w512 int8 >= 1.3x faster than f32",
            "judge_batch32_w512_int8",
            "judge_batch32_w512_f32",
            1.0 / 1.3,
        );
    }
    // Bars per tier, as int8 time over f32 time. The judge batch is all
    // dense stacks: on AVX2 int8 must not lose (0.63-0.99x measured where
    // this was written); the portable tier has no `maddubs` and ran
    // 1.7-2.0x, so its bar is 2.5x, where the single-pair bar stood
    // before. The featurize batch is mostly the f32 content encoder: the
    // int8 head alone ran 0.91-0.96x its f32 twin there, but it is ~3 % of
    // the case, whose run-to-run noise is +-15 % (0.83-1.21x measured
    // across runs on AVX2, 1.00-1.07x portable), so both bars sit above
    // that noise and catch only a head that got several times slower.
    for (case, avx2_factor, portable_factor) in [
        ("judge_batch16_cached_features", 1.0, 2.5),
        ("featurize_batch32_eval", 1.25, 1.25),
    ] {
        let factor = if simd { avx2_factor } else { portable_factor };
        paired(
            &format!("{case} int8 within {factor}x of f32"),
            &format!("{case}_int8"),
            case,
            factor,
        );
    }
    // Blocking on both tiers. The tape-free eval forward against the tape
    // forward of the same featurizer: both run the one LSTM kernel, so
    // what eval saves is the per-profile parameter copies and node
    // bookkeeping (1.3x measured) and the bar is that it never loses.
    paired(
        "featurize eval no slower than the tape forward",
        "featurize_one_profile_eval",
        "featurize_one_profile_tape",
        1.0,
    );
    // Serving featurizes a request's cold profiles as one batch: 32
    // profiles in one evaluation against 32 one-profile evaluations of
    // the same rows — one 32-row LSTM product per step instead of 32
    // one-row ones, one im2col product and one head pass. Measured where
    // this was written: 1.55-1.76x on AVX2, 1.34-1.40x portable; the bars
    // keep a margin below each.
    let factor = if simd { 1.3 } else { 1.1 };
    paired(
        &format!("featurize_batch32_eval >= {factor}x faster than 32 single"),
        "featurize_batch32_eval",
        "featurize_one_profile_eval",
        32.0 / factor,
    );
    // The Eq. 1 memo must cost nothing when no history is shared: 32
    // users with one profile each take the fused loop, the work of 32
    // single calls. The 10% band is run-to-run noise of the ~5 us single
    // case on a shared host (0.99-1.01x measured); a memo that hashed
    // every visit measured 1.33x.
    paired(
        "fv_batch32_distinct_users no slower than 32 single",
        "fv_batch32_distinct_users",
        "fv_feature_eq1_eq2",
        32.0 * 1.1,
    );
    // A training batch of 24 ragged tweets against 24 single-tweet steps
    // of the same rows, forward + backward: one B-row product per step
    // instead of 24 one-row ones, one set of nodes instead of 24. Bars per
    // tier: on AVX2 the packed kernel multiplies a 24-row block 2.9x
    // faster than the simple one and the batch wins 1.7-2.5x (measured
    // where this was written), so the bar is the 1.5x floor; the portable
    // packed kernel is no faster than the simple one at these shapes,
    // leaving only the per-sequence overhead (1.25-1.43x measured), so
    // there the batch has to win 1.1x.
    let factor = if simd { 1.5 } else { 1.1 };
    paired(
        &format!("bilstm_train_batch24 >= {factor}x faster than 24 single steps"),
        "bilstm_train_batch24",
        "bilstm_train_step_fused",
        24.0 / factor,
    );
    // Bars per tier: on AVX2 the sigmoid is bound by its ~30 operations
    // per register against a glibc `expf` that pipelines to 2.4 ns per
    // element (2.8x measured where this was written), `tanhf` is far
    // slower (8x); the portable tier only has to not lose.
    for (name, avx2_factor) in [("sigmoid", 2.5), ("tanh", 3.0)] {
        let factor = if simd { avx2_factor } else { 1.0 };
        paired(
            &format!("act::{name}(96) >= {factor}x faster than libm"),
            &format!("act_{name}_96"),
            &format!("libm_{name}_96"),
            1.0 / factor,
        );
    }
    // Dispatch sanity: going parallel at 256x256 must never cost more
    // than 5% over serial, even on a single-core box where the parallel
    // path degenerates to one worker.
    paired(
        "matmul_256x256_parallel >= 0.95x of serial",
        "matmul_256x256_parallel",
        "matmul_256x256_serial",
        1.0 / 0.95,
    );
    // Metrics overhead < 2%.
    paired(
        "metrics overhead < 2%",
        "train_featurizer_metrics_on",
        "train_featurizer_serial",
        1.02,
    );

    let mut failures = Vec::new();
    for c in &checks {
        let ok = c.measured <= c.limit;
        let (measured, limit) = match c.kind {
            "paired" => (
                format!("ratio {:>10.4}", c.measured),
                format!("{:>10.4}", c.limit),
            ),
            _ => (
                format!("{:>12.0} ns", c.measured),
                format!("{:>12.0} ns", c.limit),
            ),
        };
        h.report.line(&format!(
            "gate {:<4} {:<13} {:<48} measured {measured}  limit {limit}",
            if ok { "PASS" } else { "FAIL" },
            c.kind,
            c.label,
        ));
        if !ok {
            failures.push(format!(
                "{} {} (measured {measured} > limit {limit})",
                c.kind, c.label
            ));
        }
    }
    failures
}
