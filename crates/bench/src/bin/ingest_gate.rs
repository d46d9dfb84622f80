//! Ingest gate: the closed train→serve loop, end to end, in one process.
//!
//! A vocabulary-drifting tweet stream feeds the [`ingest::Ingestor`]; the
//! loop fine-tunes a model generation from the warmed-up window, spawns a
//! live `hisrect serve` on it, and then — while client threads hammer
//! `/judge` continuously — streams more events and runs at least two
//! further fine-tune → `POST /reload` cycles against the running server.
//!
//! Gate criteria (the ingest-gate CI job blocks on these):
//!
//! * zero 5xx and zero transport errors across every judge request,
//!   including those in flight during each `/reload` swap;
//! * the server's registry generation increments on every reload;
//! * staleness (stream watermark minus `trained_to` of the published
//!   model) drops after every reload;
//! * on the drifted final window, judge accuracy with retraining is at
//!   least the stale generation-0 model's accuracy;
//! * zero handler/batcher panics.
//!
//! `HISRECT_SEED` (default 7) seeds the stream and training. Evidence
//! lands in `results/ingest_gate.json`.

use bench::gate::{self, Load, Stop, Verdict};
use bench::report::Report;
use hisrect::{ApproachSpec, HisRectModel};
use ingest::{DriverConfig, IngestConfig, Ingestor};
use rand::rngs::StdRng;
use rand::{derive_seed, SeedableRng};
use serde::Serialize;
use serve::{ModelRegistry, ServeConfig};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use twitter_sim::types::Timestamp;
use twitter_sim::{assemble, AssembleParams, Dataset, SimConfig, TweetStream};

/// Vocabulary epoch length: the stream rotates its POI vocabulary every
/// this many simulated days, so the final window's language has moved
/// away from what generation 0 trained on.
const DRIFT_DAYS: u32 = 2;

/// Events ingested before generation 0 trains.
const WARMUP: usize = 700;

/// Events streamed per fine-tune → reload cycle.
const CYCLE_EVENTS: usize = 400;

/// Fine-tune → reload cycles.
const CYCLES: usize = 2;

/// Featurizer and judge iterations per fine-tune.
const ITERS: usize = 30;

/// Assembles the ingestor's retained window exactly as the fine-tune
/// driver does, so evaluation and serving share the §6.1.1 protocol.
fn window_dataset(ing: &Ingestor, name: &str, seed: u64) -> Dataset {
    let params = AssembleParams {
        name: name.into(),
        delta_t: ing.config().delta_t,
        ..AssembleParams::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    assemble(
        ing.world().clone(),
        ing.timelines(),
        ing.friendships().to_vec(),
        &params,
        &mut rng,
    )
}

/// Fraction of the dataset's labeled test pairs a model judges correctly
/// at the 0.5 threshold. `(correct, total)` comes along for the report.
fn judge_accuracy(model: &HisRectModel, ds: &Dataset) -> (f64, usize) {
    let mut correct = 0usize;
    let mut total = 0usize;
    for (pairs, actual) in [(&ds.test.pos_pairs, true), (&ds.test.neg_pairs, false)] {
        for p in pairs.iter() {
            total += 1;
            if (model.judge_pair(ds, p.i, p.j) > 0.5) == actual {
                correct += 1;
            }
        }
    }
    (correct as f64 / total.max(1) as f64, total)
}

#[derive(Serialize)]
struct CycleRow {
    generation: u64,
    events_streamed: usize,
    staleness_before_s: f32,
    staleness_after_s: f32,
    server_generation: u64,
    n_profiles: usize,
}

#[derive(Serialize)]
struct IngestGateRow {
    warmup_events: usize,
    cycles: Vec<CycleRow>,
    judge_requests: u64,
    judge_200: u64,
    judge_5xx: u64,
    transport_errors: u64,
    panics: u64,
    /// Accuracy of the *latest* generation on the drifted final window.
    acc_retrained: f64,
    /// Accuracy of the stale generation-0 model on the same window.
    acc_stale: f64,
    eval_pairs: usize,
    wall_s: f64,
}

/// The closed loop: stream → fine-tune → publish → measure staleness.
fn reload_cycles(
    ing: &mut Ingestor,
    stream: &mut TweetStream,
    dcfg: &DriverConfig,
    addr: SocketAddr,
    mut trained_to: Timestamp,
) -> Result<Vec<CycleRow>, String> {
    let mut rows = Vec::new();
    for cycle in 0..CYCLES {
        for _ in 0..CYCLE_EVENTS {
            ing.offer(stream.next_event());
        }
        ing.flush();
        let generation = (cycle + 1) as u64;
        let staleness_before = ingest::record_staleness(ing.watermark(), trained_to);
        let out = ingest::fine_tune(ing, dcfg, generation)
            .map_err(|e| format!("generation {generation}: {e}"))?;
        let server_generation = ingest::publish_reload(addr, &out.model_path)
            .map_err(|e| format!("reload generation {generation}: {e}"))?;
        trained_to = out.trained_to;
        rows.push(CycleRow {
            generation,
            events_streamed: CYCLE_EVENTS,
            staleness_before_s: staleness_before,
            staleness_after_s: ingest::record_staleness(ing.watermark(), trained_to),
            server_generation,
            n_profiles: out.n_profiles,
        });
    }
    Ok(rows)
}

fn run() -> Result<IngestGateRow, String> {
    let started = Instant::now();
    let seed = gate::env_or("HISRECT_SEED", 7u64);
    let dir = std::env::temp_dir().join(format!("hisrect-ingest-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Warm-up: stream with vocabulary drift, ingest, train generation 0.
    let mut stream = TweetStream::with_drift(SimConfig::tiny(seed), DRIFT_DAYS);
    let mut ing = Ingestor::new(
        stream.world().clone(),
        stream.friendships().to_vec(),
        stream.config().n_users,
        IngestConfig::default(),
    );
    for _ in 0..WARMUP {
        ing.offer(stream.next_event());
    }
    ing.flush();
    let mut dcfg = DriverConfig::new(dir.clone(), seed);
    dcfg.spec = ApproachSpec::hisrect().with_config(|c| {
        c.featurizer_iters = ITERS;
        c.judge_iters = ITERS;
    });
    let gen0 = ingest::fine_tune(&ing, &dcfg, 0).map_err(|e| format!("generation 0: {e}"))?;

    // Serve generation 0 over the warm-up window's dataset.
    let ds0 = Arc::new(window_dataset(
        &ing,
        "ingest-gate-serve",
        derive_seed(seed, 100),
    ));
    if ds0.profiles.len() < 2 {
        return Err(format!(
            "serve dataset has {} profile(s); need >= 2",
            ds0.profiles.len()
        ));
    }
    let registry = ModelRegistry::load_with_precision(
        &gen0.model_path,
        Arc::clone(&ds0),
        hisrect::Precision::F32,
    )
    .map_err(|e| format!("{}: {e}", gen0.model_path.display()))?;
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle = serve::serve(config, registry).map_err(|e| format!("serve: {e}"))?;
    let addr = handle.addr();

    // Client pressure for the whole reload sequence: judge requests must
    // keep succeeding while generations swap underneath them.
    let stop = Arc::new(AtomicBool::new(false));
    let pool = ds0.profiles.len().min(12);
    let load = Load::new(2, Stop::Flag(Arc::clone(&stop)), pool, 0x1276_e57a);
    let clients = std::thread::spawn(move || gate::drive(addr, &load));
    let cycles = reload_cycles(&mut ing, &mut stream, &dcfg, addr, gen0.trained_to);
    stop.store(true, Ordering::Relaxed);
    let judged = clients.join().expect("load clients panicked");
    let cycles = cycles?;
    let panics = gate::panics(&gate::get_json(addr, "/metrics")?);
    handle.shutdown();

    // Drift-window evaluation: the retrained model vs the stale
    // generation 0, both judged on the *final* (drifted) window.
    let ds_final = window_dataset(&ing, "ingest-gate-final", derive_seed(seed, 200));
    let latest = HisRectModel::try_load_json(&dir.join(format!("model_gen_{}.json", cycles.len())))
        .map_err(|e| format!("latest generation: {e}"))?;
    let stale =
        HisRectModel::try_load_json(&gen0.model_path).map_err(|e| format!("generation 0: {e}"))?;
    let (acc_retrained, eval_pairs) = judge_accuracy(&latest, &ds_final);
    let (acc_stale, _) = judge_accuracy(&stale, &ds_final);

    let _ = std::fs::remove_dir_all(&dir);
    Ok(IngestGateRow {
        warmup_events: WARMUP,
        cycles,
        judge_requests: judged.samples.len() as u64,
        judge_200: judged.count(200..=200),
        judge_5xx: judged.count(500..=598),
        transport_errors: judged.count(599..=599),
        panics,
        acc_retrained,
        acc_stale,
        eval_pairs,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn main() -> ExitCode {
    let report = Report::new("ingest_gate");
    let row = match run() {
        Ok(row) => row,
        Err(e) => return gate::fatal(&e),
    };
    gate::save(report, &row);

    // Ingest-gate acceptance criteria — see the module docs.
    let mut verdict = Verdict::new("ingest gate");
    verdict.at_least("judge 200s", row.judge_200, 1);
    verdict.equal("judge 5xx", row.judge_5xx, 0);
    verdict.equal("judge transport errors", row.transport_errors, 0);
    verdict.equal("handler/batcher panics", row.panics, 0);
    verdict.at_least("fine-tune/reload cycles", row.cycles.len(), 2);
    for (i, c) in row.cycles.iter().enumerate() {
        let cycle = i + 1;
        verdict.expect(
            c.staleness_after_s < c.staleness_before_s,
            format!(
                "cycle {cycle}: staleness did not drop after reload ({:.0}s -> {:.0}s)",
                c.staleness_before_s, c.staleness_after_s
            ),
        );
        // The registry is born at generation 1, so reload `n` lands at
        // `n + 1`.
        let what = format!("cycle {cycle}: server registry generation");
        verdict.equal(&what, c.server_generation, cycle as u64 + 1);
    }
    verdict.at_least(
        "drift-window accuracy, retrained vs stale",
        row.acc_retrained,
        row.acc_stale,
    );
    verdict.finish()
}
