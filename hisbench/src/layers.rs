//! The traced per-layer pass. Layers are measured from outside, by
//! timing calls into their public functions under the benchmark's own
//! spans; the program's code gets no spans of its own here.
//!
//! Three parts: [`live`] probes the booted system (event-loop floor,
//! router hop, tracing overhead), [`offline`] times every layer function
//! on inputs generated from the seed, and [`replay`] pushes the first
//! generated requests of the workload through the serve pipeline by hand —
//! parse, cache, featurize, batcher, serialize — one span per stage.

use crate::loadgen::{drive, Kind, Pace, Request};
use crate::report::WorkloadResult;
use crate::span::Tracer;
use crate::stats::{median, percentile, sorted};
use crate::system::{Inputs, Scratch};
use ann::AnnIndex;
use hisrect::featurizer::{Featurizer, ProfileInput};
use hisrect::model::Ablation;
use hisrect::ssl::SslNets;
use hisrect::{
    profile_fingerprint, ApproachSpec, CandidateService, HisRectConfig, HisRectModel, JudgeService,
    Judgement, Precision,
};
use ingest::{CandidateMirror, IngestConfig, Ingestor};
use nn::{Adam, AdamConfig, ParamStore, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::batcher::JudgeJob;
use serve::cache::FeatureCache;
use serve::http::{try_parse_request, Limits, ParseStatus, Response};
use serve::{Batcher, ModelRegistry};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tensor::Matrix;
use twitter_sim::{generate, CorpusFile, Dataset, SimConfig, TweetStream};

/// Length of the untraced and of the traced rerun that give
/// `trace.overhead_pct`.
pub const RERUN_SECONDS: u64 = 2;
/// Length of each single-connection probe of the live system.
const HOP_WINDOW: Duration = Duration::from_millis(500);
/// Generated inputs replayed through the layer functions.
const REPLAY_INPUTS: usize = 2000;
/// Iterations of the miniature training run whose phases are timed.
const MINI_TRAIN_ITERS: (usize, usize) = (60, 40);
/// The serve defaults the stand-alone batcher and cache are built with.
const BATCH_SIZE: usize = 16;
const BATCH_DEADLINE: Duration = Duration::from_millis(2);
const QUEUE_DEPTH: usize = 128;
const CACHE_CAPACITY: usize = 4096;

/// The booted system the live probes talk to.
pub struct LiveSystem<'a> {
    /// Where the workload's traffic goes (router or shard).
    pub front: SocketAddr,
    /// One shard, addressed directly; equals `front` when unrouted.
    pub shard: SocketAddr,
    /// Generated requests holding hot `/judge` traffic.
    pub hot: &'a [Request],
}

/// Median seconds of `reps` calls of `f`.
fn timed<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Seconds per call of a short operation: five batches of `n` calls
/// each, the median batch mean.
fn per_call<R>(n: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    timed(5, || {
        for k in 0..n {
            black_box(f(k));
        }
    }) / n as f64
}

/// Probes of the running system: transport floor, router hop, and what
/// client-side tracing costs.
pub fn live(
    result: &mut WorkloadResult,
    tracer: &mut Tracer,
    system: &LiveSystem<'_>,
    rerun: &dyn Fn(Option<&Mutex<Tracer>>) -> f64,
) {
    // GET /healthz round trip: accept, parse, worker hand-off, write —
    // everything a request pays before any judging.
    let health = [Request::bare(Kind::Health)];
    let o = drive(system.shard, &health, Pace::Closed(HOP_WINDOW), 1, 0, None);
    let rtt = o.latencies_ms(Kind::Health);
    result.push(
        "serve.event_loop.healthz_rtt_us",
        percentile(&rtt, 50.0) * 1e3,
        "us",
        rtt.len() as u64,
    );

    // Router hop: the same judge requests through the front door and
    // straight at a shard, one connection each.
    if system.front != system.shard {
        let judges: Vec<Request> = system
            .hot
            .iter()
            .filter(|r| r.kind == Kind::Judge)
            .take(400)
            .cloned()
            .collect();
        let p50 = |addr| {
            let o = drive(addr, &judges, Pace::Closed(HOP_WINDOW), 1, 0, None);
            percentile(&o.latencies_ms(Kind::Judge), 50.0) * 1e3
        };
        let (routed, direct) = (p50(system.front), p50(system.shard));
        result.push(
            "serve.router.hop_us",
            routed - direct,
            "us",
            judges.len() as u64,
        );
    }

    // Tracing overhead: the workload's own traffic for a few seconds
    // without, then with, a span per request.
    let untraced = rerun(None);
    let shared = Mutex::new(std::mem::take(tracer));
    let traced = rerun(Some(&shared));
    *tracer = shared.into_inner().expect("tracer lock poisoned");
    result.push(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
        2,
    );
}

fn push_s(result: &mut WorkloadResult, name: &str, seconds: f64, unit: &str, n: u64) {
    let scale = match unit {
        "s" => 1.0,
        "ms" => 1e3,
        "us" => 1e6,
        "ns" => 1e9,
        other => panic!("not a time unit: {other}"),
    };
    result.push(name, seconds * scale, unit, n);
}

/// Times every layer function on inputs generated from `seed`. The same
/// suite runs on every workload, so the per-layer table of one commit
/// reads the same whichever workload's traced run produced it.
pub fn offline(result: &mut WorkloadResult, tracer: &mut Tracer, seed: u64, scratch: &Scratch) {
    // --- twitter-sim: generation and the interchange file -------------
    let cfg = SimConfig::lv_like(seed);
    push_s(
        result,
        "twitter-sim.generate_ms",
        timed(3, || generate(&cfg)),
        "ms",
        3,
    );
    let dataset = Arc::new(generate(&cfg));
    // The parser is quadratic in file size; the quarter corpus is the one
    // `judge_light` boots from.
    let quarter = generate(&cfg.with_user_fraction(0.25));
    let corpus_path = scratch.path("layers-corpus.json");
    crate::system::write_corpus(&quarter, &corpus_path);
    let start = Instant::now();
    let corpus = CorpusFile::load(&corpus_path).expect("read corpus file");
    push_s(
        result,
        "twitter-sim.corpus_load_s",
        start.elapsed().as_secs_f64(),
        "s",
        1,
    );
    push_s(
        result,
        "twitter-sim.to_dataset_ms",
        timed(3, || corpus.to_dataset(seed)),
        "ms",
        3,
    );
    drop((quarter, corpus));

    // --- training phases, from the trainer's own obs spans -------------
    let model_path = scratch.path("layers-model.json");
    mini_train(result, &dataset, seed)
        .save_json(&model_path)
        .expect("write model");
    ssl_iteration_split(result, tracer, &dataset, &model_path, seed);
    let a = Matrix::from_fn(24, 96, |r, c| (r * 96 + c) as f32 * 1e-3);
    let b = Matrix::from_fn(96, 96, |r, c| (r + c) as f32 * 1e-3);
    push_s(
        result,
        "tensor.matmul_24x96x96_ns",
        per_call(2000, |_| a.matmul(&b)),
        "ns",
        10_000,
    );

    // --- model load, index build, reload --------------------------------
    push_s(
        result,
        "core.model.load_json_ms",
        timed(3, || {
            HisRectModel::load_json(&model_path).expect("load model")
        }),
        "ms",
        3,
    );
    let pois = dataset.world.pois.clone();
    let f32_service = JudgeService::load(&model_path, pois.clone()).expect("load model");
    let int8_service =
        JudgeService::load_with_precision(&model_path, pois, Precision::Int8).expect("load model");
    let start = Instant::now();
    let candidates = CandidateService::build(&f32_service, &dataset);
    push_s(
        result,
        "core.candidates.build_ms",
        start.elapsed().as_secs_f64(),
        "ms",
        1,
    );
    let index = candidates.index();
    push_s(
        result,
        "ann.build_ms",
        timed(3, || {
            AnnIndex::build(index.items().to_vec(), index.config().clone())
        }),
        "ms",
        3,
    );
    let registry = ModelRegistry::load(&model_path, Arc::clone(&dataset)).expect("load model");
    push_s(
        result,
        "serve.registry.reload_ms",
        timed(1, || registry.reload(None).expect("reload")),
        "ms",
        1,
    );

    // --- retrieval -------------------------------------------------------
    let n = dataset.profiles.len();
    let probe = |k: usize| (k * 7919) % n;
    push_s(
        result,
        "core.candidates.query_us",
        per_call(200, |k| candidates.candidates(&f32_service, probe(k), 10)),
        "us",
        1000,
    );
    let radius_m = hisrect::CandidateConfig::default().radius_m;
    let query = |k: usize| {
        let item = index.get(probe(k) as u32).expect("indexed");
        index.query(&item.point, item.ts, &item.embedding, 10, radius_m)
    };
    let oracle = |k: usize| {
        let item = index.get(probe(k) as u32).expect("indexed");
        index.exhaustive(item.ts, &item.embedding, 10)
    };
    push_s(result, "ann.query_us", per_call(200, query), "us", 1000);
    push_s(result, "ann.exhaustive_us", per_call(40, oracle), "us", 200);
    // Useful over attempted: the share of the exhaustive top-10 (no
    // spatial limit) that the served, radius-limited query returns.
    let (mut found, mut wanted) = (0usize, 0usize);
    for k in 0..200 {
        let got = query(k);
        let want = oracle(k);
        wanted += want.len();
        found += want
            .iter()
            .filter(|w| got.iter().any(|g| g.id == w.id))
            .count();
    }
    result.push(
        "ann.recall_at_10",
        found as f64 / wanted.max(1) as f64,
        "ratio",
        wanted as u64,
    );

    // --- featurization and the judge --------------------------------------
    let spec_cfg = &f32_service.model().spec.config;
    let profile = |k: usize| dataset.profile(probe(k));
    push_s(
        result,
        "core.service.features_for_us",
        per_call(400, |k| f32_service.features_for(profile(k))),
        "us",
        2000,
    );
    push_s(
        result,
        "core.fv.fv_feature_us",
        per_call(400, |k| {
            hisrect::fv::fv_feature(
                profile(k),
                f32_service.pois(),
                spec_cfg.eps_d_m,
                spec_cfg.eps_t_s,
            )
        }),
        "us",
        2000,
    );
    let inputs: Vec<ProfileInput> = (0..400)
        .map(|k| {
            f32_service
                .model()
                .profile_input(f32_service.pois(), profile(k), Ablation::default())
        })
        .collect();
    push_s(
        result,
        "core.featurizer.features_us",
        per_call(400, |k| f32_service.model().featurize_inputs(&[&inputs[k]])),
        "us",
        2000,
    );
    for (service, tag) in [(&f32_service, "f32"), (&int8_service, "int8")] {
        let feats: Vec<Vec<f32>> = (0..64).map(|k| service.features_for(profile(k))).collect();
        push_s(
            result,
            &format!("core.service.judge_features_ns_{tag}"),
            per_call(20_000, |k| {
                service.judge_features(&feats[k % 64], &feats[(k + 1) % 64])
            }),
            "ns",
            100_000,
        );
        let pairs: Vec<(&[f32], &[f32])> = (0..32)
            .map(|k| (feats[2 * k].as_slice(), feats[2 * k + 1].as_slice()))
            .collect();
        push_s(
            result,
            &format!("core.service.judge_batch32_us_{tag}"),
            per_call(2000, |_| service.judge_features_batch(&pairs)),
            "us",
            10_000,
        );
    }

    // --- serve layers, stand-alone -----------------------------------------
    let cache = FeatureCache::new(CACHE_CAPACITY);
    let keys: Vec<(u64, u32, u64)> = (0..32)
        .map(|k| (1, profile(k).uid, profile_fingerprint(profile(k))))
        .collect();
    for (k, key) in keys.iter().enumerate() {
        cache.insert(*key, Arc::new(f32_service.features_for(profile(k))));
    }
    push_s(
        result,
        "serve.cache.hit_ns",
        per_call(100_000, |k| cache.get_or_compute(keys[k % 32], Vec::new)),
        "ns",
        500_000,
    );
    let raw = raw_request(&Request {
        kind: Kind::Judge,
        body: "{\"i\":1234,\"j\":5678}".into(),
        pairs: vec![(1234, 5678)],
    });
    let limits = Limits::default();
    push_s(
        result,
        "serve.http.parse_us",
        per_call(20_000, |_| try_parse_request(&raw, &limits)),
        "us",
        100_000,
    );
    let body = serde_json::to_string(&Judgement::from_probability(1234, 5678, 0.731))
        .expect("serializable");
    push_s(
        result,
        "serve.http.serialize_us",
        per_call(20_000, |_| Response::json(200, body.clone()).to_bytes(true)),
        "us",
        100_000,
    );
    batcher_wait(result, &registry, &f32_service, profile(0), profile(1));

    // --- the metrics layer itself --------------------------------------------
    obs::set_enabled(true);
    push_s(
        result,
        "obs.incr_ns",
        per_call(200_000, |_| obs::incr("hisbench/probe")),
        "ns",
        1_000_000,
    );
    let contended = timed(5, || {
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..100_000 {
                        obs::incr("hisbench/probe");
                    }
                });
            }
        });
    }) / 100_000.0;
    push_s(result, "obs.incr_contended_ns", contended, "ns", 1_000_000);

    // --- streaming ingest (ungated; three orders of magnitude from
    //     mattering next to a training iteration) ----------------------------
    ingest_probes(result, &cfg, &f32_service);
}

/// The bytes a client puts on the wire for `request`.
fn raw_request(request: &Request) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nhost: hisrect\r\ncontent-length: {}\r\n\r\n{}",
        request.path(),
        request.body.len(),
        request.body
    )
    .into_bytes()
}

/// Trains a miniature model with obs on and reads the trainer's own
/// phase spans and dispatch counters back.
fn mini_train(result: &mut WorkloadResult, dataset: &Dataset, seed: u64) -> HisRectModel {
    obs::set_enabled(true);
    let span_ns = |name: &str| obs::span_stat(name).map_or(0, |s| s.total_ns);
    let names = [
        "train/skipgram",
        "affinity/build",
        "ssl/train_featurizer",
        "judge/train",
    ];
    tensor::flush_dispatch_stats();
    let before: Vec<u64> = names.iter().map(|n| span_ns(n)).collect();
    let matmuls_before = obs::counter_value("tensor/matmul_serial");
    tensor::pool::reset_stats();
    let spec = ApproachSpec::hisrect().with_config(|c| {
        c.featurizer_iters = MINI_TRAIN_ITERS.0;
        c.judge_iters = MINI_TRAIN_ITERS.1;
    });
    let model = HisRectModel::train(dataset, &spec, seed);
    tensor::flush_dispatch_stats();
    let pool = tensor::pool::stats();
    let delta: Vec<f64> = names
        .iter()
        .zip(before)
        .map(|(n, b)| (span_ns(n) - b) as f64 / 1e9)
        .collect();
    let (fi, ji) = (MINI_TRAIN_ITERS.0 as f64, MINI_TRAIN_ITERS.1 as f64);
    push_s(result, "text.skipgram.train_ms", delta[0], "ms", 1);
    push_s(result, "core.affinity.build_ms", delta[1], "ms", 1);
    push_s(result, "core.ssl.iter_ms", delta[2] / fi, "ms", fi as u64);
    push_s(
        result,
        "core.judge.train_iter_us",
        delta[3] / ji,
        "us",
        ji as u64,
    );
    let matmuls = obs::counter_value("tensor/matmul_serial") - matmuls_before;
    result.push(
        "tensor.matmul_calls_per_iter",
        matmuls as f64 / (fi + ji),
        "count",
        matmuls,
    );
    result.push(
        "tensor.pool.hit_ratio",
        pool.hits as f64 / (pool.hits + pool.misses).max(1) as f64,
        "ratio",
        pool.hits + pool.misses,
    );
    model
}

/// One supervised Algorithm-1 iteration, assembled from the public
/// pieces and split by span: featurizer forward, tape backward, Adam.
fn ssl_iteration_split(
    result: &mut WorkloadResult,
    tracer: &mut Tracer,
    dataset: &Dataset,
    model_path: &std::path::Path,
    seed: u64,
) {
    const ITERS: u64 = 40;
    let model = HisRectModel::load_json(model_path).expect("load model");
    let spec = ApproachSpec::hisrect();
    let cfg = HisRectConfig::default();
    let n_pois = dataset.world.pois.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ParamStore::new();
    let featurizer = Featurizer::new(
        &mut store,
        &cfg,
        spec.history,
        spec.content,
        n_pois,
        &mut rng,
    );
    let nets = SslNets::new(&mut store, &cfg, featurizer.feat_dim(), n_pois, &mut rng);
    let mut ids = featurizer.param_ids();
    ids.extend(nets.classifier.param_ids());
    let mut adam = Adam::new(
        &store,
        ids,
        AdamConfig {
            lr: cfg.lr,
            ..AdamConfig::default()
        },
    );
    let labeled: Vec<(ProfileInput, usize)> = dataset
        .train
        .labeled
        .iter()
        .take(cfg.batch * 8)
        .map(|&i| {
            let profile = dataset.profile(i);
            (
                model.profile_input_for(dataset, profile, Ablation::default()),
                profile.pid.expect("labeled profile") as usize,
            )
        })
        .collect();
    for it in 0..ITERS {
        let batch: Vec<&(ProfileInput, usize)> = (0..cfg.batch)
            .map(|k| &labeled[(it as usize * cfg.batch + k) % labeled.len()])
            .collect();
        let ins: Vec<&ProfileInput> = batch.iter().map(|(input, _)| input).collect();
        let targets: Vec<usize> = batch.iter().map(|(_, pid)| *pid).collect();
        tracer.scope("core.ssl.iteration", it, |t| {
            let mut tape = Tape::new();
            let feats = t.scope("core.featurizer.forward_batch", it, |_| {
                featurizer.forward_batch(&mut tape, &store, &ins, true, &mut rng)
            });
            let logits = nets.classifier.forward(&mut tape, &store, feats);
            let loss = tape.softmax_cross_entropy(logits, &targets);
            t.scope("nn.tape.backward", it, |_| tape.backward(loss, &mut store));
            t.scope("nn.adam.step", it, |_| adam.step(&mut store));
        });
    }
    let layers = tracer.layers();
    let self_s = |name: &str| layers[name].mean_self_ns() / 1e9;
    push_s(
        result,
        "core.featurizer.forward_batch_ms",
        self_s("core.featurizer.forward_batch"),
        "ms",
        ITERS,
    );
    push_s(
        result,
        "nn.tape.backward_ms",
        self_s("nn.tape.backward"),
        "ms",
        ITERS,
    );
    push_s(
        result,
        "nn.adam.step_us",
        self_s("nn.adam.step"),
        "us",
        ITERS,
    );
}

/// Submits single jobs to a stand-alone batcher built with the serve
/// defaults: with nothing else queued, each waits out the flush deadline.
fn batcher_wait(
    result: &mut WorkloadResult,
    registry: &ModelRegistry,
    service: &JudgeService,
    a: &twitter_sim::Profile,
    b: &twitter_sim::Profile,
) {
    const JOBS: usize = 100;
    let batcher = Batcher::new(BATCH_SIZE, BATCH_DEADLINE, QUEUE_DEPTH, None);
    let model = registry.current();
    let (fa, fb) = (
        Arc::new(service.features_for(a)),
        Arc::new(service.features_for(b)),
    );
    let forward_s = per_call(2000, |_| service.judge_features(&fa, &fb));
    let waits: Vec<f64> = (0..JOBS)
        .map(|_| {
            let (tx, rx) = sync_channel(1);
            let start = Instant::now();
            batcher
                .submit(JudgeJob {
                    model: Arc::clone(&model),
                    fa: Arc::clone(&fa),
                    fb: Arc::clone(&fb),
                    deadline: None,
                    responder: tx,
                })
                .expect("idle batcher accepts a job");
            rx.recv().expect("flusher answers").expect("judged");
            start.elapsed().as_secs_f64() - forward_s
        })
        .collect();
    batcher.shutdown();
    push_s(
        result,
        "serve.batcher.wait_ms",
        median(&waits),
        "ms",
        JOBS as u64,
    );
}

/// Stream generation, ingest and the incremental ANN mirror.
fn ingest_probes(result: &mut WorkloadResult, cfg: &SimConfig, service: &JudgeService) {
    const EVENTS: usize = 20_000;
    let mut stream = TweetStream::new(cfg.clone());
    let start = Instant::now();
    let events: Vec<_> = (0..EVENTS).map(|_| stream.next_event()).collect();
    push_s(
        result,
        "twitter-sim.stream.next_event_ns",
        start.elapsed().as_secs_f64() / EVENTS as f64,
        "ns",
        EVENTS as u64,
    );
    let mut ingestor = Ingestor::new(
        stream.world().clone(),
        stream.friendships().to_vec(),
        cfg.n_users,
        IngestConfig::default(),
    );
    let start = Instant::now();
    for event in events {
        ingestor.offer(event);
    }
    ingestor.flush();
    push_s(
        result,
        "ingest.pipeline.offer_ns",
        start.elapsed().as_secs_f64() / EVENTS as f64,
        "ns",
        EVENTS as u64,
    );
    let bounds = CandidateMirror::bounds_for(stream.world(), 0.05);
    let mut mirror = CandidateMirror::new(ann::AnnConfig::default(), bounds, cfg.n_users);
    let start = Instant::now();
    let inserted = mirror.sync(&ingestor, i64::MIN, |p| {
        service
            .judge_embeddings(&[service.features_for(p)])
            .remove(0)
    });
    push_s(
        result,
        "ingest.mirror.sync_us_per_profile",
        start.elapsed().as_secs_f64() / inserted.max(1) as f64,
        "us",
        inserted as u64,
    );
}

/// Replays the first generated requests single-threaded through the
/// serve pipeline's public functions, one span per stage, and reports
/// what part of the measured median no stage accounts for.
pub fn replay(
    result: &mut WorkloadResult,
    tracer: &mut Tracer,
    requests: &[Request],
    inputs: &Inputs,
    dataset: &Arc<Dataset>,
    precision: Precision,
) {
    let registry =
        ModelRegistry::load_with_precision(&inputs.model_path, Arc::clone(dataset), precision)
            .expect("load model");
    let model = registry.current();
    let cache = FeatureCache::new(CACHE_CAPACITY);
    let batcher = Batcher::new(BATCH_SIZE, BATCH_DEADLINE, QUEUE_DEPTH, None);
    let limits = Limits::default();
    let feature = |t: &mut Tracer, id: u64, idx: usize| {
        let profile = dataset.profile(idx);
        let key = (model.generation, profile.uid, profile_fingerprint(profile));
        t.scope("serve.cache.lookup", id, |t| {
            cache.get_or_compute(key, || {
                t.scope("core.service.features_for", id, |_| {
                    model.service.features_for(profile)
                })
            })
        })
    };
    // A closed loop cycles through its list, so the replay does too.
    let mut durations: Vec<(Kind, f64)> = Vec::with_capacity(REPLAY_INPUTS);
    for (id, request) in requests.iter().cycle().take(REPLAY_INPUTS).enumerate() {
        let id = id as u64;
        let raw = raw_request(request);
        let start = Instant::now();
        tracer.scope("request", id, |t| {
            let parsed = t.scope("serve.http.parse", id, |_| try_parse_request(&raw, &limits));
            let Ok(ParseStatus::Complete(parsed, _)) = parsed else {
                panic!("generated request did not frame");
            };
            let text = std::str::from_utf8(&parsed.body).expect("generated bodies are UTF-8");
            let body = match request.kind {
                Kind::Judge => {
                    t.scope("serve.json.decode", id, |_| decode(text));
                    let (i, j) = request.pairs[0];
                    let (fa, fb) = (feature(t, id, i), feature(t, id, j));
                    let p = t.scope("serve.batcher.round_trip", id, |_| {
                        let (tx, rx) = sync_channel(1);
                        batcher
                            .submit(JudgeJob {
                                model: Arc::clone(&model),
                                fa,
                                fb,
                                deadline: None,
                                responder: tx,
                            })
                            .expect("idle batcher accepts a job");
                        rx.recv().expect("flusher answers").expect("judged")
                    });
                    t.scope("serve.json.encode", id, |_| {
                        serde_json::to_string(&Judgement::from_probability(i, j, p))
                    })
                }
                Kind::Batch => {
                    t.scope("serve.json.decode", id, |_| decode(text));
                    let pairs = &request.pairs;
                    let feats: Vec<_> = pairs
                        .iter()
                        .map(|&(i, j)| (feature(t, id, i), feature(t, id, j)))
                        .collect();
                    let refs: Vec<(&[f32], &[f32])> = feats
                        .iter()
                        .map(|(a, b)| (a.as_slice(), b.as_slice()))
                        .collect();
                    let probs = t.scope("core.service.judge_features_batch", id, |_| {
                        model.service.judge_features_batch(&refs)
                    });
                    t.scope("serve.json.encode", id, |_| {
                        let judgements: Vec<Judgement> = pairs
                            .iter()
                            .zip(probs)
                            .map(|(&(i, j), p)| Judgement::from_probability(i, j, p))
                            .collect();
                        serde_json::to_string(&judgements)
                    })
                }
                Kind::Candidates => {
                    t.scope("serve.json.decode", id, |_| decode(text));
                    let (i, k) = request.pairs[0];
                    let set = t.scope("core.candidates.query", id, |_| {
                        model.candidates.candidates(&model.service, i, k)
                    });
                    t.scope("serve.json.encode", id, |_| serde_json::to_string(&set))
                }
                Kind::Reload | Kind::Health => panic!("not a replayable request"),
            }
            .expect("serializable");
            t.scope("serve.http.serialize", id, |_| {
                black_box(Response::json(200, body).to_bytes(true))
            });
        });
        durations.push((request.kind, start.elapsed().as_secs_f64() * 1e6));
    }
    batcher.shutdown();
    result.push(
        "trace.replayed",
        REPLAY_INPUTS as f64,
        "count",
        REPLAY_INPUTS as u64,
    );

    // The per-stage table: mean self time of every span name.
    for (name, layer) in tracer.layers() {
        result.push(
            &format!("span.{name}.self_us"),
            layer.mean_self_ns() / 1e3,
            "us",
            layer.count,
        );
    }

    // What the stages leave unexplained of the measured median: the
    // transport floor is the healthz round trip, the router hop is
    // measured, the rest is the replayed request.
    let (measured, kind) = match (result.get("judge_p50_ms"), result.get("batch_p50_ms")) {
        (Some(m), _) => (m.value * 1e3, Kind::Judge),
        (None, Some(m)) => (m.value * 1e3, Kind::Batch),
        (None, None) => return,
    };
    let stages = sorted(
        durations
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, us)| *us)
            .collect(),
    );
    let floor = result
        .get("serve.event_loop.healthz_rtt_us")
        .map_or(0.0, |m| m.value);
    let hop = result.get("serve.router.hop_us").map_or(0.0, |m| m.value);
    let explained = percentile(&stages, 50.0) + floor + hop;
    result.push(
        "serve.judge.unattributed_us",
        measured - explained,
        "us",
        stages.len() as u64,
    );
    if (measured - explained).abs() > 0.1 * measured {
        result.unresolved.push(format!(
            "stages explain {explained:.0} us of a measured {measured:.0} us median (more than 10 % apart)"
        ));
    }
}

/// The shim JSON parser the server's handlers decode bodies with.
fn decode(body: &str) {
    let value: serde_json::Value = serde_json::from_str(body).expect("generated bodies are JSON");
    black_box(value);
}
