//! CLI subcommand implementations.

use crate::args::Flags;
use baselines::ranked_pois;
use eval::{acc_at_k, averaged_metrics};
use hisrect::ckpt::CheckpointConfig;
use hisrect::clustering::{cluster_by_threshold, partition_pattern};
use hisrect::config::ApproachSpec;
use hisrect::model::{Ablation, HisRectModel};
use hisrect::{CandidateService, JudgeService, Judgement, Precision};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use tensor::Matrix;
use twitter_sim::io::CorpusFile;
use twitter_sim::{generate, Dataset, Profile, ProfileIdx, SimConfig};

fn load_dataset(flags: &Flags) -> Result<Dataset, String> {
    let path = flags.require("corpus")?;
    let seed = flags.parse_or("seed", 7u64)?;
    let corpus = CorpusFile::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Ok(corpus.to_dataset(seed))
}

fn load_model(flags: &Flags) -> Result<HisRectModel, String> {
    let path = flags.require("model")?;
    HisRectModel::try_load_json(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

/// `--precision {f32,int8}`, defaulting to f32. Surfaces the parser's
/// own message, which names the accepted values.
fn parse_precision(flags: &Flags) -> Result<Precision, String> {
    match flags.get("precision") {
        None => Ok(Precision::F32),
        Some(v) => v.parse().map_err(|e| format!("--precision: {e}")),
    }
}

fn approach_by_name(name: &str) -> Result<ApproachSpec, String> {
    Ok(match name {
        "hisrect" => ApproachSpec::hisrect(),
        "hisrect-sl" => ApproachSpec::hisrect_sl(),
        "one-phase" => ApproachSpec::one_phase(),
        "history-only" => ApproachSpec::history_only(),
        "tweet-only" => ApproachSpec::tweet_only(),
        "one-hot" => ApproachSpec::one_hot(),
        "blstm" => ApproachSpec::blstm(),
        "convlstm" => ApproachSpec::conv_lstm(),
        other => return Err(format!("unknown approach `{other}`")),
    })
}

/// `hisrect simulate` — generate a synthetic corpus and write it as JSON.
pub fn simulate(flags: &Flags) -> Result<(), String> {
    let seed = flags.parse_or("seed", 7u64)?;
    let preset = flags.get("preset").unwrap_or("tiny");
    let mut cfg = match preset {
        "nyc" => SimConfig::nyc_like(seed),
        "lv" => SimConfig::lv_like(seed),
        "tiny" => SimConfig::tiny(seed),
        other => return Err(format!("unknown preset `{other}` (nyc|lv|tiny)")),
    };
    let social = flags.parse_or("social", 0.0f64)?;
    if social > 0.0 {
        cfg = cfg.with_social(social);
    }
    let out = flags.require("out")?;
    let ds = generate(&cfg);
    CorpusFile::from_dataset(&ds)
        .save(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    let s = ds.stats();
    println!(
        "wrote {out}: {} timelines, {} POIs, {} labeled training profiles",
        s.n_timelines, s.n_pois, s.train_labeled_profiles
    );
    Ok(())
}

/// `hisrect stats` — Table-2-style summary of a corpus.
pub fn stats(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let s = ds.stats();
    println!(
        "{}",
        serde_json::to_string_pretty(&s).expect("serializable")
    );
    Ok(())
}

/// `hisrect train` — train an approach and persist the model.
pub fn train(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let seed = flags.parse_or("seed", 7u64)?;
    let mut spec = approach_by_name(flags.get("approach").unwrap_or("hisrect"))?;
    // Optional budget overrides for quick runs.
    let iters = flags.parse_or("iters", spec.config.featurizer_iters)?;
    let judge_iters = flags.parse_or("judge-iters", spec.config.judge_iters)?;
    let early_stop = flags.parse_or("early-stop", false)?;
    spec = spec.with_config(|c| {
        c.featurizer_iters = iters;
        c.judge_iters = judge_iters;
        c.early_stop = early_stop;
    });
    let out = flags.require("out")?;
    let ckpt = match flags.get("checkpoint-dir") {
        Some(dir) => Some(CheckpointConfig {
            dir: PathBuf::from(dir),
            every: flags.parse_or("checkpoint-every", 100usize)?,
            resume: flags.parse_or("resume", false)?,
        }),
        None => {
            if flags.parse_or("resume", false)? {
                return Err("--resume needs --checkpoint-dir".into());
            }
            None
        }
    };
    eprintln!(
        "training `{}` on {} ({} labeled profiles) ...",
        spec.name,
        ds.name,
        ds.train.labeled.len()
    );
    let model =
        HisRectModel::try_train(&ds, &spec, seed, ckpt.as_ref()).map_err(|e| e.to_string())?;
    model
        .save_json(Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    // With metrics on, probe a handful of test pairs so the run report
    // carries a judge/pair_latency_ns histogram (the paper claims < 1 ms
    // per pair). This runs after the model is saved and touches no RNG,
    // so the written model bytes are identical with metrics on or off.
    if obs::enabled() {
        for pair in ds.test.pos_pairs.iter().chain(&ds.test.neg_pairs).take(16) {
            let _ = model.judge_pair(&ds, pair.i, pair.j);
        }
    }
    println!(
        "wrote {out}: {} parameters, final L_poi = {:.4}",
        model.n_parameters(),
        model.ssl_stats.recent_poi_loss(20)
    );
    Ok(())
}

/// Parses `--pair I,J` into profile indices, bounds-checked.
fn parse_pair(spec: &str, ds: &Dataset) -> Result<(ProfileIdx, ProfileIdx), String> {
    let (i, j) = spec
        .split_once(',')
        .ok_or_else(|| format!("--pair expects `I,J`, got `{spec}`"))?;
    let parse = |s: &str| -> Result<ProfileIdx, String> {
        let idx: ProfileIdx = s
            .trim()
            .parse()
            .map_err(|_| format!("--pair: bad profile index `{s}`"))?;
        if idx >= ds.profiles.len() {
            return Err(format!(
                "--pair: profile index {idx} out of range (corpus has {} profiles)",
                ds.profiles.len()
            ));
        }
        Ok(idx)
    };
    Ok((parse(i)?, parse(j)?))
}

/// `hisrect judge` — §6.1.1 co-location metrics on the test split, or a
/// single pair's verdict as canonical JSON with `--pair I,J`.
pub fn judge(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let precision = parse_precision(flags)?;
    let service = JudgeService::with_precision(model, ds.world.pois.clone(), precision);

    // Single-pair mode: print exactly the JSON the serving layer answers
    // for this pair, so `judge --pair` and `POST /judge` are comparable
    // byte-for-byte.
    if let Some(spec) = flags.get("pair") {
        let (i, j) = parse_pair(spec, &ds)?;
        let fa = service.features_for(ds.profile(i));
        let fb = service.features_for(ds.profile(j));
        let p = service.judge_features(&fa, &fb);
        let verdict = Judgement::from_probability(i, j, p);
        println!("{}", serde_json::to_string(&verdict).expect("serializable"));
        return Ok(());
    }

    let mut idxs: Vec<ProfileIdx> = ds
        .test
        .pos_pairs
        .iter()
        .chain(&ds.test.neg_pairs)
        .flat_map(|p| [p.i, p.j])
        .collect();
    idxs.sort_unstable();
    idxs.dedup();
    let profiles: Vec<&Profile> = idxs.iter().map(|&i| ds.profile(i)).collect();
    let feats: HashMap<ProfileIdx, Vec<f32>> = idxs
        .iter()
        .copied()
        .zip(service.features_many(&profiles, Ablation::default()))
        .collect();
    let m = averaged_metrics(&ds.test.pos_pairs, &ds.test.neg_pairs, 10, |p| {
        service.judge_features(&feats[&p.i], &feats[&p.j]) > 0.5
    });
    println!(
        "test pairs: {} positive, {} negative (10-fold negative protocol)",
        ds.test.pos_pairs.len(),
        ds.test.neg_pairs.len()
    );
    println!(
        "Acc {:.4}  Rec {:.4}  Pre {:.4}  F1 {:.4}",
        m.acc, m.rec, m.pre, m.f1
    );
    Ok(())
}

/// `hisrect candidates` — top-k candidate co-located users for one
/// profile's fresh tweet, as canonical JSON. Goes through the same
/// [`CandidateService`] the HTTP server builds per generation, so the
/// output is byte-identical to `POST /candidates` for the same model
/// snapshot, corpus and precision.
pub fn candidates(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let precision = parse_precision(flags)?;
    let service = JudgeService::with_precision(model, ds.world.pois.clone(), precision);
    let i: ProfileIdx = flags
        .require("profile")?
        .parse()
        .map_err(|e| format!("--profile: {e}"))?;
    let k = flags.parse_or("top-k", 10usize)?;
    if k == 0 {
        return Err("--top-k must be at least 1".into());
    }
    if k > ds.profiles.len() {
        return Err(format!(
            "--top-k {k} exceeds population ({} profiles)",
            ds.profiles.len()
        ));
    }
    let cands = CandidateService::build(&service, &ds);
    let set = cands.candidates(&service, i, k).ok_or_else(|| {
        format!(
            "profile index {i} out of range (corpus has {} profiles)",
            ds.profiles.len()
        )
    })?;
    println!("{}", serde_json::to_string(&set).expect("serializable"));
    Ok(())
}

/// `hisrect infer` — POI inference Acc@K on the labeled test profiles.
pub fn infer(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let top_k = flags.parse_or("top-k", 5usize)?;
    let idxs = &ds.test.labeled;
    let truth: Vec<u32> = idxs
        .iter()
        .map(|&i| ds.profile(i).pid.expect("labeled"))
        .collect();
    let feats = model.featurize_many(&ds, idxs, Ablation::default());
    let rankings: Vec<Vec<u32>> = idxs
        .iter()
        .map(|&i| {
            let probs = model.poi_probs_from_feature(&feats[&i]);
            ranked_pois(&probs.iter().map(|&p| p as f64).collect::<Vec<_>>())
        })
        .collect();
    println!("POI inference over {} test profiles:", idxs.len());
    for k in 1..=top_k {
        println!("  Acc@{k} = {:.4}", acc_at_k(&rankings, &truth, k));
    }
    Ok(())
}

/// `hisrect cluster` — group the first Δt window of concurrent test
/// profiles by thresholded pairwise judgement.
pub fn cluster(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model = load_model(flags)?;
    let want = flags.parse_or("group-size", 5usize)?;
    if want < 2 {
        return Err("--group-size must be at least 2".into());
    }

    // First window with `want` distinct-user labeled profiles.
    let mut sorted: Vec<ProfileIdx> = ds.test.labeled.clone();
    sorted.sort_by_key(|&i| ds.profile(i).ts);
    let mut group: Vec<ProfileIdx> = Vec::new();
    for (k, &start) in sorted.iter().enumerate() {
        group.clear();
        group.push(start);
        let t0 = ds.profile(start).ts;
        for &cand in &sorted[k + 1..] {
            let p = ds.profile(cand);
            if p.ts - t0 >= ds.delta_t {
                break;
            }
            if group.iter().all(|&g| ds.profile(g).uid != p.uid) {
                group.push(cand);
                if group.len() == want {
                    break;
                }
            }
        }
        if group.len() == want {
            break;
        }
    }
    if group.len() < 2 {
        return Err("no window with enough concurrent profiles".into());
    }

    let feats = model.featurize_many(&ds, &group, Ablation::default());
    let n = group.len();
    let mut probs = Matrix::zeros(n, n);
    for a in 0..n {
        for b in (a + 1)..n {
            let p = model.judge_features(&feats[&group[a]], &feats[&group[b]]);
            probs.set(a, b, p);
            probs.set(b, a, p);
        }
    }
    let labels = cluster_by_threshold(&probs, 0.5);
    for (k, &idx) in group.iter().enumerate() {
        let p = ds.profile(idx);
        println!(
            "user {:>5}  t={:>8}  true poi_{:<4} -> group {}",
            p.uid,
            p.ts,
            p.pid.expect("labeled"),
            labels[k]
        );
    }
    println!("pattern: {:?}", partition_pattern(&labels));
    Ok(())
}

/// `--read-timeout-ms MS` -> HTTP limits with that socket read / idle
/// keep-alive timeout (default: [`serve::http::Limits::default`], 5 s).
/// Cluster harnesses that park thousands of idle keep-alive connections
/// raise this so the event loop does not reap them mid-run.
fn parse_limits(flags: &Flags) -> Result<serve::http::Limits, String> {
    let default = serve::http::Limits::default();
    Ok(serve::http::Limits {
        read_timeout: Duration::from_millis(
            flags.parse_or("read-timeout-ms", default.read_timeout.as_millis() as u64)?,
        ),
        ..default
    })
}

/// `hisrect serve` — run the online co-location inference server.
pub fn serve_cmd(flags: &Flags) -> Result<(), String> {
    let ds = load_dataset(flags)?;
    let model_path = flags.require("model")?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let config = serve::ServeConfig {
        addr: addr.clone(),
        workers: flags.parse_or("workers", 4usize)?,
        cache_capacity: flags.parse_or("cache-capacity", 4096usize)?,
        batch_size: flags.parse_or("batch-size", 16usize)?,
        batch_deadline: Duration::from_millis(flags.parse_or("batch-deadline-ms", 2u64)?),
        queue_depth: flags.parse_or("queue-depth", 128usize)?,
        limits: parse_limits(flags)?,
        precision: parse_precision(flags)?,
        default_deadline: Duration::from_millis(flags.parse_or("default-deadline-ms", 10_000u64)?),
        admission: serve::AdmissionConfig {
            rate: flags.parse_or("admission-rate", 0.0f64)?,
            burst: flags.parse_or("admission-burst", 0.0f64)?,
            queue_high_watermark: flags.parse_or("admission-watermark", 1.0f64)?,
        },
        breaker: serve::BreakerConfig {
            failure_threshold: flags.parse_or("breaker-failures", 5u32)?,
            cooldown: Duration::from_millis(flags.parse_or("breaker-cooldown-ms", 1000u64)?),
            latency_budget: Duration::from_millis(
                flags.parse_or("breaker-latency-budget-ms", 5000u64)?,
            ),
        },
        watchdog: serve::WatchdogConfig {
            interval: Duration::from_millis(flags.parse_or("watchdog-interval-ms", 250u64)?),
            stall_timeout: Duration::from_millis(flags.parse_or("watchdog-stall-ms", 2000u64)?),
        },
    };
    let registry = serve::ModelRegistry::load_with_precision(
        Path::new(model_path),
        Arc::new(ds),
        config.precision,
    )
    .map_err(|e| format!("{model_path}: {e}"))?;
    let handle = serve::serve(config, registry).map_err(|e| format!("{addr}: {e}"))?;
    // Announce the resolved address (port 0 picks one) and flush: test
    // harnesses and scripts read this line through a pipe.
    println!("listening on http://{}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(())
}

/// `hisrect route` — front a set of `hisrect serve` shards with a
/// consistent-hash router: `/judge` and `/candidates` forward to the
/// shard owning the request's user id, `/judge_batch` scatter-gathers,
/// dead shards are health-checked out of rotation, and `POST /reload`
/// runs a draining rolling reload across the whole cluster.
pub fn route_cmd(flags: &Flags) -> Result<(), String> {
    let shards: Vec<String> = flags
        .require("shards")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shards.is_empty() {
        return Err("--shards needs at least one HOST:PORT".into());
    }
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7900").to_string();
    let config = serve::RouterConfig {
        addr: addr.clone(),
        shards,
        workers: flags.parse_or("workers", 8usize)?,
        queue_depth: flags.parse_or("queue-depth", 1024usize)?,
        limits: parse_limits(flags)?,
        vnodes: flags.parse_or("vnodes", serve::HashRing::DEFAULT_VNODES)?,
        health_interval: Duration::from_millis(flags.parse_or("health-interval-ms", 250u64)?),
        fail_threshold: flags.parse_or("fail-threshold", 3u32)?,
        upstream_timeout: Duration::from_millis(flags.parse_or("upstream-timeout-ms", 10_000u64)?),
    };
    let handle = serve::route(config).map_err(|e| format!("{addr}: {e}"))?;
    // Same sentinel contract as `serve`: harnesses read this line.
    println!("listening on http://{}", handle.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    handle.wait();
    Ok(())
}

/// `hisrect ingest` — the closed streaming loop: an unbounded simulated
/// tweet stream feeds the incremental pipeline (profiles, windowed
/// affinity, ANN mirror); every `--retrain-every` events the retained
/// window fine-tunes a new model generation, optionally published to a
/// running `hisrect serve` via `POST /reload`. The loop checkpoints
/// after every generation and resumes from `--dir` on restart.
pub fn ingest_cmd(flags: &Flags) -> Result<(), String> {
    let seed = flags.parse_or("seed", 7u64)?;
    let preset = flags.get("preset").unwrap_or("tiny");
    let sim = match preset {
        "nyc" => SimConfig::nyc_like(seed),
        "lv" => SimConfig::lv_like(seed),
        "tiny" => SimConfig::tiny(seed),
        other => return Err(format!("unknown preset `{other}` (nyc|lv|tiny)")),
    };
    let dir = PathBuf::from(flags.require("dir")?);
    let events: u64 = flags.parse_or("events", 2_000u64)?;
    let retrain_every: u64 = flags.parse_or("retrain-every", 800u64)?;
    let drift: u32 = flags.parse_or("drift-every-days", 0u32)?;
    let icfg = ingest::IngestConfig {
        window_secs: flags.parse_or("window-secs", 0i64)?,
        gap_slack: flags.parse_or("gap-slack", 64usize)?,
        ..ingest::IngestConfig::default()
    };
    let serve_addr: Option<std::net::SocketAddr> = match flags.get("serve-addr") {
        Some(s) => Some(
            s.parse()
                .map_err(|_| format!("--serve-addr: cannot parse `{s}`"))?,
        ),
        None => None,
    };
    let mut dcfg = ingest::DriverConfig::new(dir.clone(), seed);
    dcfg.warm_start = flags.parse_or("warm-start", false)?;
    let iters = flags.parse_or("iters", dcfg.spec.config.featurizer_iters)?;
    let judge_iters = flags.parse_or("judge-iters", dcfg.spec.config.judge_iters)?;
    dcfg.spec = dcfg.spec.with_config(|c| {
        c.featurizer_iters = iters;
        c.judge_iters = judge_iters;
    });

    // Resume from the latest checkpoint, or open a fresh loop.
    let (mut stream, mut ing, mut generation, mut ckpt_seq, mut trained_to) =
        match ingest::latest_valid(&dir) {
            Some((seq, ck)) => {
                eprintln!(
                    "resuming from checkpoint {seq}: stream day {}, seq {}, generation {}",
                    ck.cursor.day, ck.cursor.seq, ck.generation
                );
                let stream = twitter_sim::TweetStream::resume(sim.clone(), drift, ck.cursor);
                let ing = ingest::Ingestor::resume(
                    stream.world().clone(),
                    stream.friendships().to_vec(),
                    icfg.clone(),
                    ck.state,
                );
                (stream, ing, ck.generation, seq + 1, ck.trained_to)
            }
            None => {
                let stream = twitter_sim::TweetStream::with_drift(sim.clone(), drift);
                let ing = ingest::Ingestor::new(
                    stream.world().clone(),
                    stream.friendships().to_vec(),
                    sim.n_users,
                    icfg.clone(),
                );
                (stream, ing, 0, 0, 0)
            }
        };
    let bounds = ingest::CandidateMirror::bounds_for(stream.world(), 0.05);
    let mut mirror = ingest::CandidateMirror::new(ann::AnnConfig::default(), bounds, sim.n_users);

    let mut since_retrain = 0u64;
    for _ in 0..events {
        ing.offer(stream.next_event());
        since_retrain += 1;
        if since_retrain < retrain_every {
            continue;
        }
        since_retrain = 0;
        match ingest::fine_tune(&ing, &dcfg, generation) {
            Err(e) => eprintln!("generation {generation} skipped: {e}"),
            Ok(out) => {
                generation += 1;
                trained_to = out.trained_to;
                // Every cached ANN embedding is stale under the new
                // generation: rebuild the candidate mirror with it.
                let model = HisRectModel::try_load_json(&out.model_path)
                    .map_err(|e| format!("{}: {e}", out.model_path.display()))?;
                let judge = hisrect::JudgeService::with_precision(
                    model,
                    stream.world().pois.clone(),
                    Precision::F32,
                );
                let cutoff = if icfg.window_secs > 0 {
                    ing.watermark() - icfg.window_secs
                } else {
                    i64::MIN
                };
                mirror.invalidate(&ing, cutoff, |p| {
                    judge.judge_embeddings(&[judge.features_for(p)]).remove(0)
                });
                if let Some(addr) = serve_addr {
                    let g = ingest::publish_reload(addr, &out.model_path)
                        .map_err(|e| format!("reload: {e}"))?;
                    eprintln!(
                        "published {} as server generation {g}",
                        out.model_path.display()
                    );
                }
                let staleness = ingest::record_staleness(ing.watermark(), trained_to);
                eprintln!(
                    "generation {}: {} profiles, {} timelines, staleness {staleness:.0}s, {} ANN items live",
                    out.generation, out.n_profiles, out.n_timelines, mirror.live_len()
                );
                let ck = ingest::IngestCheckpoint {
                    cursor: stream.cursor(),
                    state: ing.state().clone(),
                    generation,
                    trained_to,
                };
                ingest::save_checkpoint(&dir, ckpt_seq, &ck).map_err(|e| e.to_string())?;
                ckpt_seq += 1;
            }
        }
    }
    ing.flush();
    let ck = ingest::IngestCheckpoint {
        cursor: stream.cursor(),
        state: ing.state().clone(),
        generation,
        trained_to,
    };
    ingest::save_checkpoint(&dir, ckpt_seq, &ck).map_err(|e| e.to_string())?;
    let (applied, dups, gaps) = ing.delivery_stats();
    println!(
        "ingested {events} events ({applied} applied, {dups} dups, {gaps} gap-lost): \
         {} profiles, {} edges, {generation} generations, staleness {:.0}s",
        ing.n_profiles(),
        ing.edges().len(),
        ingest::record_staleness(ing.watermark(), trained_to)
    );
    Ok(())
}
