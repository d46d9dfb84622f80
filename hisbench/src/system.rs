//! Generated inputs and the system under test, booted in-process through
//! its public API exactly as the `hisrect` binary boots it.

use hisrect::{ApproachSpec, CandidateService, HisRectModel, JudgeService, Judgement, Precision};
use serve::{ModelRegistry, RouterConfig, RouterHandle, ServeConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use twitter_sim::{generate, CorpusFile, Dataset, SimConfig};

/// Iterations the serve workloads' model is trained for: enough for
/// verdicts that differ between pairs, short enough to regenerate per run.
const SERVE_MODEL_ITERS: (usize, usize) = (150, 100);

/// A scratch directory under `hisbench/out`, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `hisbench/out/tmp-<pid>`.
    pub fn new() -> std::io::Result<Self> {
        let dir = crate::report::out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A path inside the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a serve workload is given: a corpus and a model trained on
/// it, both derived from the seed alone.
pub struct Inputs {
    /// The simulated corpus.
    pub dataset: Arc<Dataset>,
    /// The trained model, as `hisrect train` would have written it.
    pub model_path: PathBuf,
    /// Seconds spent generating and training (not part of `setup_s`).
    pub generate_s: f64,
}

/// Generates the corpus and trains the serving model from `seed`.
pub fn serve_inputs(seed: u64, user_fraction: f64, scratch: &Scratch) -> Inputs {
    let start = Instant::now();
    let dataset = generate(&SimConfig::lv_like(seed).with_user_fraction(user_fraction));
    let spec = ApproachSpec::hisrect().with_config(|c| {
        c.featurizer_iters = SERVE_MODEL_ITERS.0;
        c.judge_iters = SERVE_MODEL_ITERS.1;
    });
    let model = HisRectModel::train(&dataset, &spec, seed);
    let model_path = scratch.path("model.json");
    model.save_json(&model_path).expect("write model snapshot");
    Inputs {
        dataset: Arc::new(dataset),
        model_path,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

/// Writes the corpus in the interchange format `hisrect serve` reads.
pub fn write_corpus(dataset: &Dataset, path: &Path) {
    CorpusFile::from_dataset(dataset)
        .save(path)
        .expect("write corpus file");
}

/// One shard on an ephemeral port with the default `ServeConfig`.
pub fn boot_shard(model_path: &Path, dataset: Arc<Dataset>, precision: Precision) -> ServerHandle {
    let registry = ModelRegistry::load_with_precision(model_path, dataset, precision)
        .expect("load model snapshot");
    serve::serve(
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            precision,
            ..ServeConfig::default()
        },
        registry,
    )
    .expect("bind shard")
}

/// A router with two proxy workers in front of `shards`.
pub fn boot_router(shards: &[ServerHandle]) -> RouterHandle {
    serve::route(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: shards.iter().map(|s| s.addr().to_string()).collect(),
        workers: 2,
        ..RouterConfig::default()
    })
    .expect("bind router")
}

/// Runs `boot` `reps` times, tearing each system down before the next
/// boot, and returns the last one with the median boot time: one boot is
/// a single sample of a cold, allocation-heavy path.
pub fn median_setup<T>(reps: usize, mut boot: impl FnMut() -> T) -> (T, f64, u64) {
    let mut times = Vec::with_capacity(reps);
    let mut system = None;
    for _ in 0..reps.max(1) {
        drop(system.take());
        let start = Instant::now();
        system = Some(boot());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        system.expect("booted at least once"),
        crate::stats::median(&times),
        times.len() as u64,
    )
}

/// The offline reference the served bodies must equal byte for byte.
pub struct Offline {
    judge: JudgeService,
    /// Built on first use: only `/candidates` checks need the index.
    candidates: OnceLock<CandidateService>,
    dataset: Arc<Dataset>,
}

impl Offline {
    /// Loads the same snapshot the server loaded, at the same precision.
    pub fn load(model_path: &Path, dataset: Arc<Dataset>, precision: Precision) -> Self {
        let judge =
            JudgeService::load_with_precision(model_path, dataset.world.pois.clone(), precision)
                .expect("load model snapshot");
        Self {
            judge,
            candidates: OnceLock::new(),
            dataset,
        }
    }

    /// The body `POST /judge {"i":i,"j":j}` must return.
    pub fn judge_body(&self, i: usize, j: usize) -> String {
        let p = self
            .judge
            .judge_profiles(self.dataset.profile(i), self.dataset.profile(j));
        serde_json::to_string(&Judgement::from_probability(i, j, p)).expect("serializable")
    }

    /// The body `POST /candidates {"i":i,"k":k}` must return.
    pub fn candidates_body(&self, i: usize, k: usize) -> String {
        let set = self
            .candidates
            .get_or_init(|| CandidateService::build(&self.judge, &self.dataset))
            .candidates(&self.judge, i, k)
            .expect("profile is indexed");
        serde_json::to_string(&set).expect("serializable")
    }
}
