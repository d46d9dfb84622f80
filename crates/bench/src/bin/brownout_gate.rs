//! Brownout gate: drive the server through a 4x-capacity burst with
//! injected slow flushes, and verify it *degrades* instead of failing.
//!
//! The run builds the serving [`Fixture`] with the release binary
//! (`HISRECT_BIN`) and spawns the server in-process: the fault plan is
//! process-global, so injection only reaches an in-process batcher.
//! Three phases:
//!
//! 1. **Baseline** — a calm closed loop, sized by time (one second) so
//!    the goodput it establishes (in-deadline 200s per second) is a rate
//!    measured over thousands of requests rather than a few milliseconds.
//! 2. **Burst** — 4x the baseline client count, while a controller thread
//!    keeps `slow-judge` armed: each slow flush stalls the worker holding
//!    the batcher's combiner, with every job queued behind it, and blows
//!    the breaker's latency budget.
//! 3. **Recovery** — faults cleared, the loop probes `/judge` until
//!    `/healthz` reports the breaker closed again.
//!
//! Gate criteria (the brownout-gate CI job blocks on these):
//!
//! * zero 500s, zero transport errors, zero handler/batcher panics —
//!   overload must shed (503/504) or degrade (labeled 200), never break;
//! * every degraded verdict is labeled: the client-observed
//!   `x-hisrect-degraded` count equals the server's
//!   `serve/degraded_responses` counter;
//! * the breaker actually opened during the burst and is closed again
//!   after recovery;
//! * burst goodput stays at or above 70% of the pre-burst baseline.
//!
//! Evidence lands in `results/brownout.json`.

use bench::gate::{self, Fixture, Load, Run, Stop, Verdict};
use bench::report::Report;
use faultsim::FaultKind;
use serde::Serialize;
use serve::{BreakerConfig, HttpClient, ModelRegistry, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twitter_sim::io::CorpusFile;

/// Per-request deadline carried in `x-deadline-ms` during the burst; the
/// baseline uses the same value so goodput is measured under one rule.
const DEADLINE_MS: u64 = 400;

/// How long the calm baseline loops. Sized by time, not by a request
/// count, so the rate is measured over a full second however fast a
/// `/judge` is answered.
const BASELINE_WALL: Duration = Duration::from_secs(1);

/// The burst's minimum length: several breaker cooldown cycles, even
/// when the degraded fast path drains requests in microseconds.
const BURST_WALL: Duration = Duration::from_millis(2500);

/// Baseline clients; the burst runs 4x as many.
const BASELINE_CLIENTS: usize = 4;

/// Per-client request floor under the burst's own 2.5 s minimum.
const BURST_REQUESTS: usize = 150;

/// Profiles in the baseline's pair pool; the burst draws from twice as
/// many.
const POOL: usize = 12;

/// Injected flush crawl. Above the breaker's latency budget, below the
/// request deadline: a slow batch trips the breaker but still answers.
const SLOW_JUDGE_MS: &str = "90";

fn spawn_in_process(fixture: &Fixture) -> Result<ServerHandle, String> {
    let ds = CorpusFile::load(&fixture.corpus)
        .map_err(|e| format!("{}: {e}", fixture.corpus.display()))?
        .to_dataset(Fixture::SEED);
    let registry =
        ModelRegistry::load_with_precision(&fixture.model, Arc::new(ds), hisrect::Precision::F32)
            .map_err(|e| format!("{}: {e}", fixture.model.display()))?;
    // Tight breaker so the burst's injected faults flip states within the
    // run; defaults everywhere else.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch_size: 8,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(300),
            latency_budget: Duration::from_millis(60),
        },
        ..ServeConfig::default()
    };
    serve::serve(config, registry).map_err(|e| format!("serve: {e}"))
}

/// Deadline-carrying closed loop of at least `min` requests per client
/// and `wall` time, with seeded retries: transient 503 sheds back off
/// (honoring Retry-After) instead of hammering the queue.
fn phase(
    addr: SocketAddr,
    clients: usize,
    min: usize,
    wall: Duration,
    pool: usize,
    salt: u64,
) -> Run {
    let load = Load {
        headers: vec![("x-deadline-ms", DEADLINE_MS.to_string())],
        retry: true,
        ..Load::new(clients, Stop::Wall { min, wall }, pool, salt)
    };
    gate::drive(addr, &load)
}

/// In-deadline 200s (learned or labeled-degraded) per second.
fn goodput_rps(run: &Run) -> f64 {
    let good = run
        .samples
        .iter()
        .filter(|s| s.status == 200 && s.ms <= DEADLINE_MS as f64)
        .count();
    good as f64 / run.wall_s.max(1e-9)
}

fn breaker(addr: SocketAddr) -> Result<String, String> {
    gate::get_json(addr, "/healthz")?
        .get("breaker")
        .and_then(|v| v.as_str().map(str::to_string))
        .ok_or_else(|| "healthz body lacks `breaker`".to_string())
}

#[derive(Serialize)]
struct BrownoutRow {
    baseline_clients: usize,
    baseline_requests: usize,
    baseline_wall_s: f64,
    baseline_goodput_rps: f64,
    burst_clients: usize,
    burst_requests: usize,
    burst_wall_s: f64,
    burst_goodput_rps: f64,
    /// Burst goodput over baseline goodput; the gate requires >= 0.70.
    goodput_ratio: f64,
    burst_status_200: u64,
    burst_degraded: u64,
    burst_shed_503: u64,
    burst_shed_504: u64,
    burst_status_500: u64,
    burst_transport_errors: u64,
    /// `x-hisrect-degraded` labels clients saw across all phases.
    degraded_observed: u64,
    /// `serve/degraded_responses` — must equal `degraded_observed`.
    degraded_counter: u64,
    degraded_stale: u64,
    degraded_fallback: u64,
    shed_deadline_counter: u64,
    breaker_opens: u64,
    breaker_closes: u64,
    panics: u64,
    recovery_probes: usize,
    recovery_s: f64,
    /// Breaker state `/healthz` reports after recovery; must be `closed`.
    breaker_final: String,
}

fn run() -> Result<BrownoutRow, String> {
    let fixture = Fixture::build(&gate::hisrect_bin())?;
    faultsim::clear();
    std::env::set_var("HISRECT_SLOW_JUDGE_MS", SLOW_JUDGE_MS);
    let handle = spawn_in_process(&fixture)?;
    let addr = handle.addr();
    let profiles = gate::profiles(&gate::get_json(addr, "/healthz")?)?;
    let pool = POOL.min(profiles);

    // Phase 1: calm baseline, no faults armed.
    let baseline = phase(addr, BASELINE_CLIENTS, 0, BASELINE_WALL, pool, 0xb52e_11ae);
    if baseline.count(200..=200) == 0 {
        return Err("baseline produced no 200s; nothing to gate against".to_string());
    }

    // Phase 2: 4x burst. The controller keeps slow flushes coming (every
    // armed shot fires once).
    let stop = Arc::new(AtomicBool::new(false));
    let controller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                faultsim::arm(FaultKind::SlowJudge, 1);
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };
    // A wider pair pool than the baseline warmed: unseen pairs have no
    // stale verdict, so the open breaker must reach for the heuristic
    // fallback too.
    let burst_pool = (POOL * 2).min(profiles);
    let burst = phase(
        addr,
        BASELINE_CLIENTS * 4,
        BURST_REQUESTS,
        BURST_WALL,
        burst_pool,
        0xdeca_fbad,
    );
    stop.store(true, Ordering::Relaxed);
    controller.join().expect("controller thread panicked");
    // Drop any still-armed shots so recovery probes run clean.
    faultsim::clear();
    std::env::remove_var("HISRECT_SLOW_JUDGE_MS");

    // Phase 3: probe until the half-open path closes the breaker again.
    let recovery_start = Instant::now();
    let mut recovery_probes = 0usize;
    let mut recovery_degraded = 0u64;
    let mut breaker_final = breaker(addr)?;
    let mut probe_client = HttpClient::new(addr);
    while breaker_final != "closed" && recovery_start.elapsed() < Duration::from_secs(10) {
        recovery_probes += 1;
        match probe_client.post("/judge", "{\"i\":0,\"j\":1}") {
            Ok(resp) if resp.header("x-hisrect-degraded").is_some() => recovery_degraded += 1,
            Ok(_) | Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(50));
        breaker_final = breaker(addr)?;
    }
    let recovery_s = recovery_start.elapsed().as_secs_f64();

    let metrics = gate::get_json(addr, "/metrics")?;
    handle.shutdown();

    let baseline_goodput = goodput_rps(&baseline);
    let burst_goodput = goodput_rps(&burst);
    Ok(BrownoutRow {
        baseline_clients: BASELINE_CLIENTS,
        baseline_requests: baseline.samples.len(),
        baseline_wall_s: baseline.wall_s,
        baseline_goodput_rps: baseline_goodput,
        burst_clients: BASELINE_CLIENTS * 4,
        burst_requests: burst.samples.len(),
        burst_wall_s: burst.wall_s,
        burst_goodput_rps: burst_goodput,
        goodput_ratio: burst_goodput / baseline_goodput.max(1e-9),
        burst_status_200: burst.count(200..=200),
        burst_degraded: burst.degraded(),
        burst_shed_503: burst.count(503..=503),
        burst_shed_504: burst.count(504..=504),
        burst_status_500: burst.count(500..=500),
        burst_transport_errors: burst.count(599..=599),
        degraded_observed: baseline.degraded() + burst.degraded() + recovery_degraded,
        degraded_counter: gate::counter(&metrics, "serve/degraded_responses"),
        degraded_stale: gate::counter(&metrics, "serve/degraded_stale"),
        degraded_fallback: gate::counter(&metrics, "serve/degraded_fallback"),
        shed_deadline_counter: gate::counter(&metrics, "serve/shed_deadline"),
        breaker_opens: gate::counter(&metrics, "serve/breaker_open"),
        breaker_closes: gate::counter(&metrics, "serve/breaker_close"),
        panics: gate::panics(&metrics),
        recovery_probes,
        recovery_s,
        breaker_final,
    })
}

fn main() -> ExitCode {
    let report = Report::new("brownout");
    let row = match run() {
        Ok(row) => row,
        Err(e) => return gate::fatal(&e),
    };
    gate::save(report, &row);

    // Brownout acceptance criteria — see the module docs.
    let mut verdict = Verdict::new("brownout gate");
    verdict.equal("burst 500s", row.burst_status_500, 0);
    verdict.equal("burst transport errors", row.burst_transport_errors, 0);
    verdict.equal("handler/batcher panics", row.panics, 0);
    verdict.at_least("breaker opens during the burst", row.breaker_opens, 1);
    verdict.equal(
        "breaker after recovery",
        row.breaker_final.as_str(),
        "closed",
    );
    verdict.equal(
        "client-seen degraded labels vs serve/degraded_responses",
        row.degraded_observed,
        row.degraded_counter,
    );
    verdict.at_least("burst/baseline goodput ratio", row.goodput_ratio, 0.70);
    verdict.finish()
}
