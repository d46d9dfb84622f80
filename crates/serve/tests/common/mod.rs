//! Shared fixture for the serving integration tests: one tiny trained
//! model saved to disk, plus helpers to start in-process servers on
//! ephemeral ports.

use hisrect::config::{ApproachSpec, HisRectConfig};
use hisrect::model::HisRectModel;
use hisrect::{JudgeService, Judgement};
use serve::batcher::{JobError, JudgeJob};
use serve::registry::LoadedModel;
use serve::{serve, ModelRegistry, ServeConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use twitter_sim::{generate, Dataset, SimConfig};

pub struct Fixture {
    pub corpus: Arc<Dataset>,
    pub model_path: PathBuf,
}

/// Trains the fixture model on `ds` from `seed` and saves it as `name`.
fn train_and_save(ds: &Dataset, seed: u64, name: &str) -> PathBuf {
    let spec = ApproachSpec::tweet_only().with_config(|c| {
        *c = HisRectConfig {
            featurizer_iters: 40,
            judge_iters: 40,
            ..HisRectConfig::fast()
        };
    });
    let model = HisRectModel::train(ds, &spec, seed);
    let dir = std::env::temp_dir().join(format!("hisrect-serve-fix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let model_path = dir.join(name);
    model.save_json(&model_path).expect("save fixture model");
    model_path
}

/// Trains the fixture model once per test binary.
pub fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = generate(&SimConfig::tiny(5));
        let model_path = train_and_save(&ds, 5, "model.json");
        Fixture {
            corpus: Arc::new(ds),
            model_path,
        }
    })
}

/// A second model over the fixture corpus, trained from another seed,
/// for tests that `/reload` to different weights.
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn second_model_path() -> &'static PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| train_and_save(&fixture().corpus, 6, "model-seed6.json"))
}

/// The fixture snapshot as a server would load it, for tests that drive
/// a stand-alone [`serve::Batcher`].
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn loaded_model() -> Arc<LoadedModel> {
    registry(hisrect::Precision::F32).current()
}

fn registry(precision: hisrect::Precision) -> ModelRegistry {
    let fix = fixture();
    ModelRegistry::load_with_precision(&fix.model_path, Arc::clone(&fix.corpus), precision)
        .expect("load fixture model")
}

/// A batcher job judging fixture profiles `(i, j)` on `model`, plus the
/// receiving end of its answer.
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn judge_job(
    model: &Arc<LoadedModel>,
    (i, j): (usize, usize),
    deadline: Option<Instant>,
) -> (JudgeJob, Receiver<Result<f32, JobError>>) {
    let corpus = &fixture().corpus;
    let (tx, rx) = sync_channel(1);
    let job = JudgeJob {
        model: Arc::clone(model),
        fa: Arc::new(model.service.features_for(corpus.profile(i))),
        fb: Arc::new(model.service.features_for(corpus.profile(j))),
        deadline,
        responder: tx,
    };
    (job, rx)
}

/// The offline reference: exactly what the CLI computes for a pair,
/// loading the same snapshot from disk.
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn offline_judgement(i: usize, j: usize) -> String {
    let fix = fixture();
    let service = JudgeService::load(&fix.model_path, fix.corpus.world.pois.clone())
        .expect("load fixture model");
    let fa = service.features_for(fix.corpus.profile(i));
    let fb = service.features_for(fix.corpus.profile(j));
    let p = service.judge_features(&fa, &fb);
    serde_json::to_string(&Judgement::from_probability(i, j, p)).expect("serializable")
}

/// Starts a server over the fixture model on an ephemeral port.
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn start_server(tune: impl FnOnce(&mut ServeConfig)) -> ServerHandle {
    start_server_with_precision(hisrect::Precision::F32, tune)
}

/// [`start_server`] at an explicit inference precision.
#[allow(dead_code)] // each test binary uses its own slice of the helpers
pub fn start_server_with_precision(
    precision: hisrect::Precision,
    tune: impl FnOnce(&mut ServeConfig),
) -> ServerHandle {
    let registry = registry(precision);
    let mut config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        precision,
        ..ServeConfig::default()
    };
    // Keep idle keep-alive connections (and thus shutdown joins) short.
    config.limits.read_timeout = std::time::Duration::from_millis(300);
    tune(&mut config);
    serve(config, registry).expect("bind server")
}

/// A handful of test pair indices `(i, j)` from the fixture corpus.
pub fn test_pairs(n: usize) -> Vec<(usize, usize)> {
    let ds = &fixture().corpus;
    ds.test
        .pos_pairs
        .iter()
        .chain(&ds.test.neg_pairs)
        .take(n)
        .map(|p| (p.i, p.j))
        .collect()
}
