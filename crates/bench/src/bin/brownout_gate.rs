//! Brownout gate: drive the server through a 4x-capacity burst with
//! injected slow flushes and a stalled batcher, and verify it *degrades*
//! instead of failing.
//!
//! The run always spawns the server in-process (`HISRECT_CORPUS` +
//! `HISRECT_MODEL`): the fault plan is process-global, so injection only
//! reaches an in-process batcher. Three phases:
//!
//! 1. **Baseline** — a calm closed loop, sized by time (one second) so
//!    the goodput it establishes (in-deadline 200s per second) is a rate
//!    measured over thousands of requests rather than a few milliseconds.
//! 2. **Burst** — 4x the baseline client count, while a controller thread
//!    keeps `slow-judge` armed (each slow flush blows the breaker's
//!    latency budget) and twice arms `stall` so the watchdog must restart
//!    the flusher mid-burst.
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
//! * the watchdog restarted the stalled flusher at least once;
//! * the breaker actually opened during the burst and is closed again
//!   after recovery;
//! * burst goodput stays at or above 70% of the pre-burst baseline.
//!
//! Tunables: `HISRECT_BROWNOUT_CLIENTS` (default 4 baseline clients; the
//! burst uses 4x), `HISRECT_BROWNOUT_REQUESTS` (default 150 per burst
//! client, a floor under the burst's own 2.5 s minimum),
//! `HISRECT_BROWNOUT_POOL` (default 12 profiles), `HISRECT_SEED`
//! (default 7). Evidence lands in `results/brownout.json`.

use bench::report::Report;
use faultsim::FaultKind;
use serde::Serialize;
use serve::{
    BreakerConfig, HttpClient, ModelRegistry, RetryPolicy, ServeConfig, ServerHandle,
    WatchdogConfig,
};
use std::net::SocketAddr;
use std::path::Path;
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

/// Injected flush crawl. Above the breaker's latency budget, below the
/// request deadline: a slow batch trips the breaker but still answers.
const SLOW_JUDGE_MS: &str = "90";

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// SplitMix64 — deterministic per-client pair selection.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One client-observed exchange: final status, wall latency, and whether
/// the response carried an `x-hisrect-degraded` label.
struct Sample {
    status: u16,
    ms: f64,
    degraded: bool,
}

/// Counter names the gate scrapes from `/metrics` after the run.
struct ServerCounters {
    degraded_responses: u64,
    degraded_stale: u64,
    degraded_fallback: u64,
    shed_deadline: u64,
    breaker_opens: u64,
    breaker_closes: u64,
    panics: u64,
}

fn scrape_counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let mut client = HttpClient::new(addr);
    let resp = client
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics returned {}", resp.status));
    }
    let snapshot: serde::Value =
        serde_json::from_str(&resp.body).map_err(|e| format!("/metrics body: {e}"))?;
    let counter = |name: &str| -> u64 {
        snapshot
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    Ok(ServerCounters {
        degraded_responses: counter("serve/degraded_responses"),
        degraded_stale: counter("serve/degraded_stale"),
        degraded_fallback: counter("serve/degraded_fallback"),
        shed_deadline: counter("serve/shed_deadline"),
        breaker_opens: counter("serve/breaker_open"),
        breaker_closes: counter("serve/breaker_close"),
        panics: counter("serve/handler_panic") + counter("serve/batch_panic"),
    })
}

/// The breaker state `/healthz` currently advertises.
fn probe_breaker(addr: SocketAddr) -> Result<String, String> {
    let mut client = HttpClient::new(addr);
    let resp = client
        .get("/healthz")
        .map_err(|e| format!("/healthz: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/healthz returned {}", resp.status));
    }
    let body: serde::Value =
        serde_json::from_str(&resp.body).map_err(|e| format!("/healthz body: {e}"))?;
    body.get("breaker")
        .and_then(|v| v.as_str().map(str::to_string))
        .ok_or_else(|| "healthz body lacks `breaker`".to_string())
}

fn profile_count(addr: SocketAddr) -> Result<usize, String> {
    let mut client = HttpClient::new(addr);
    let resp = client
        .get("/healthz")
        .map_err(|e| format!("/healthz: {e}"))?;
    let body: serde::Value =
        serde_json::from_str(&resp.body).map_err(|e| format!("/healthz body: {e}"))?;
    body.get("profiles")
        .and_then(|v| v.as_u64())
        .map(|n| n as usize)
        .ok_or_else(|| "healthz body lacks `profiles`".to_string())
}

fn spawn_in_process() -> Result<ServerHandle, String> {
    let corpus = std::env::var("HISRECT_CORPUS").map_err(|_| {
        "the brownout gate injects faults into an in-process server; \
         set HISRECT_CORPUS and HISRECT_MODEL"
            .to_string()
    })?;
    let model =
        std::env::var("HISRECT_MODEL").map_err(|_| "HISRECT_MODEL is not set".to_string())?;
    let seed = env_usize("HISRECT_SEED", 7) as u64;
    let ds = CorpusFile::load(Path::new(&corpus))
        .map_err(|e| format!("{corpus}: {e}"))?
        .to_dataset(seed);
    let registry = ModelRegistry::load_with_precision(
        Path::new(&model),
        Arc::new(ds),
        hisrect::Precision::F32,
    )
    .map_err(|e| format!("{model}: {e}"))?;
    // Tight breaker and fast watchdog so the burst's injected faults
    // flip states within the run; defaults everywhere else.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        batch_size: 8,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(300),
            latency_budget: Duration::from_millis(60),
        },
        watchdog: WatchdogConfig {
            interval: Duration::from_millis(25),
            stall_timeout: Duration::from_millis(150),
        },
        ..ServeConfig::default()
    };
    serve::serve(config, registry).map_err(|e| format!("serve: {e}"))
}

/// Runs `clients` closed loops of deadline-carrying judge requests and
/// returns every observed sample plus the wall time. Each client sends at
/// least `per_client` requests and keeps looping until `min_wall` has
/// elapsed — the burst must span several breaker cooldown cycles even
/// when the degraded fast path drains requests in microseconds.
fn run_phase(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    min_wall: Duration,
    pool: usize,
    seed_salt: u64,
) -> (Vec<Sample>, f64) {
    let start = Instant::now();
    let mut threads = Vec::new();
    for client_id in 0..clients {
        threads.push(std::thread::spawn(move || -> Vec<Sample> {
            let mut rng = Lcg(seed_salt ^ ((client_id as u64) << 32));
            // Deterministic jittered backoff; honors adaptive Retry-After
            // on 503 sheds instead of hammering a loaded queue.
            let mut http =
                HttpClient::with_retry(addr, RetryPolicy::new(2, seed_salt | client_id as u64));
            let deadline = DEADLINE_MS.to_string();
            let mut out = Vec::with_capacity(per_client);
            while out.len() < per_client || start.elapsed() < min_wall {
                let i = rng.next() as usize % pool;
                let mut j = rng.next() as usize % pool;
                if j == i {
                    j = (j + 1) % pool;
                }
                let body = format!("{{\"i\":{i},\"j\":{j}}}");
                let t0 = Instant::now();
                let sample = match http.post_with_headers(
                    "/judge",
                    &body,
                    &[("x-deadline-ms", &deadline)],
                ) {
                    Ok(resp) => Sample {
                        status: resp.status,
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                        degraded: resp.header("x-hisrect-degraded").is_some(),
                    },
                    // Transport errors count as server failures.
                    Err(_) => Sample {
                        status: 599,
                        ms: t0.elapsed().as_secs_f64() * 1e3,
                        degraded: false,
                    },
                };
                out.push(sample);
            }
            out
        }));
    }
    let mut samples = Vec::new();
    for t in threads {
        samples.extend(t.join().expect("client thread panicked"));
    }
    (samples, start.elapsed().as_secs_f64())
}

/// In-deadline 200s (learned or labeled-degraded) per second.
fn goodput_rps(samples: &[Sample], wall_s: f64) -> f64 {
    let good = samples
        .iter()
        .filter(|s| s.status == 200 && s.ms <= DEADLINE_MS as f64)
        .count();
    good as f64 / wall_s.max(1e-9)
}

fn count_status(samples: &[Sample], status: u16) -> u64 {
    samples.iter().filter(|s| s.status == status).count() as u64
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
    watchdog_restarts: u64,
    panics: u64,
    recovery_probes: usize,
    recovery_s: f64,
    /// Breaker state `/healthz` reports after recovery; must be `closed`.
    breaker_final: String,
}

fn run() -> Result<BrownoutRow, String> {
    let baseline_clients = env_usize("HISRECT_BROWNOUT_CLIENTS", 4);
    let per_client = env_usize("HISRECT_BROWNOUT_REQUESTS", 150);
    let burst_clients = baseline_clients * 4;

    faultsim::clear();
    std::env::set_var("HISRECT_SLOW_JUDGE_MS", SLOW_JUDGE_MS);
    let handle = spawn_in_process()?;
    let addr = handle.addr();
    let profiles = profile_count(addr)?;
    if profiles < 2 {
        return Err(format!(
            "server judges over {profiles} profile(s); need >= 2"
        ));
    }
    let pool = env_usize("HISRECT_BROWNOUT_POOL", 12).clamp(2, profiles);

    // Phase 1: calm baseline, no faults armed.
    let (baseline, baseline_wall_s) =
        run_phase(addr, baseline_clients, 0, BASELINE_WALL, pool, 0xb52e_11ae);
    let baseline_goodput = goodput_rps(&baseline, baseline_wall_s);
    if count_status(&baseline, 200) == 0 {
        return Err("baseline produced no 200s; nothing to gate against".to_string());
    }

    // Phase 2: 4x burst. The controller keeps slow flushes coming (every
    // armed shot fires once) and stalls the flusher twice so the watchdog
    // has to restart it while jobs are queued.
    let stop = Arc::new(AtomicBool::new(false));
    let controller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut tick = 0u32;
            while !stop.load(Ordering::Relaxed) {
                faultsim::arm(FaultKind::SlowJudge, 1);
                // First stall lands while the breaker is still closing in
                // on its threshold (queue non-empty, a deterministic
                // restart); the second exercises a restart mid-cooldown.
                if tick == 0 || tick == 25 {
                    faultsim::arm(FaultKind::BatcherStall, 1);
                }
                tick += 1;
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    };
    // A wider pair pool than the baseline warmed: unseen pairs have no
    // stale verdict, so the open breaker must reach for the heuristic
    // fallback too.
    let burst_pool = (pool * 2).clamp(2, profiles);
    let (burst, burst_wall_s) = run_phase(
        addr,
        burst_clients,
        per_client,
        Duration::from_millis(2500),
        burst_pool,
        0xdeca_fbad,
    );
    stop.store(true, Ordering::Relaxed);
    controller.join().expect("controller thread panicked");
    // Drop any still-armed shots so recovery probes run clean.
    faultsim::clear();
    std::env::remove_var("HISRECT_SLOW_JUDGE_MS");
    let burst_goodput = goodput_rps(&burst, burst_wall_s);

    // Phase 3: probe until the half-open path closes the breaker again.
    let recovery_start = Instant::now();
    let mut recovery_probes = 0usize;
    let mut recovery_degraded = 0u64;
    let mut breaker_final = probe_breaker(addr)?;
    let mut probe_client = HttpClient::new(addr);
    while breaker_final != "closed" && recovery_start.elapsed() < Duration::from_secs(10) {
        recovery_probes += 1;
        match probe_client.post("/judge", "{\"i\":0,\"j\":1}") {
            Ok(resp) if resp.header("x-hisrect-degraded").is_some() => recovery_degraded += 1,
            Ok(_) | Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(50));
        breaker_final = probe_breaker(addr)?;
    }
    let recovery_s = recovery_start.elapsed().as_secs_f64();

    let counters = scrape_counters(addr)?;
    let watchdog_restarts = handle.watchdog_restarts();
    handle.shutdown();

    let degraded_observed = baseline.iter().filter(|s| s.degraded).count() as u64
        + burst.iter().filter(|s| s.degraded).count() as u64
        + recovery_degraded;
    Ok(BrownoutRow {
        baseline_clients,
        baseline_requests: baseline.len(),
        baseline_wall_s,
        baseline_goodput_rps: baseline_goodput,
        burst_clients,
        burst_requests: burst.len(),
        burst_wall_s,
        burst_goodput_rps: burst_goodput,
        goodput_ratio: burst_goodput / baseline_goodput.max(1e-9),
        burst_status_200: count_status(&burst, 200),
        burst_degraded: burst.iter().filter(|s| s.degraded).count() as u64,
        burst_shed_503: count_status(&burst, 503),
        burst_shed_504: count_status(&burst, 504),
        burst_status_500: count_status(&burst, 500),
        burst_transport_errors: count_status(&burst, 599),
        degraded_observed,
        degraded_counter: counters.degraded_responses,
        degraded_stale: counters.degraded_stale,
        degraded_fallback: counters.degraded_fallback,
        shed_deadline_counter: counters.shed_deadline,
        breaker_opens: counters.breaker_opens,
        breaker_closes: counters.breaker_closes,
        watchdog_restarts,
        panics: counters.panics,
        recovery_probes,
        recovery_s,
        breaker_final,
    })
}

fn main() -> ExitCode {
    let mut report = Report::new("brownout");
    let row = match run() {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.table(
        &[
            "phase",
            "clients",
            "requests",
            "wall_s",
            "goodput_rps",
            "200",
            "degraded",
            "503",
            "504",
            "500",
            "transport",
        ],
        &[
            vec![
                "baseline".to_string(),
                row.baseline_clients.to_string(),
                row.baseline_requests.to_string(),
                format!("{:.2}", row.baseline_wall_s),
                format!("{:.1}", row.baseline_goodput_rps),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ],
            vec![
                "burst".to_string(),
                row.burst_clients.to_string(),
                row.burst_requests.to_string(),
                format!("{:.2}", row.burst_wall_s),
                format!("{:.1}", row.burst_goodput_rps),
                row.burst_status_200.to_string(),
                row.burst_degraded.to_string(),
                row.burst_shed_503.to_string(),
                row.burst_shed_504.to_string(),
                row.burst_status_500.to_string(),
                row.burst_transport_errors.to_string(),
            ],
        ],
    );
    report.line(&format!(
        "goodput ratio {:.2} (gate >= 0.70); breaker opens {} closes {} final {}; \
         watchdog restarts {}; degraded observed {} == counter {} (stale {}, fallback {}); \
         deadline sheds {}; recovery {} probes in {:.2}s",
        row.goodput_ratio,
        row.breaker_opens,
        row.breaker_closes,
        row.breaker_final,
        row.watchdog_restarts,
        row.degraded_observed,
        row.degraded_counter,
        row.degraded_stale,
        row.degraded_fallback,
        row.shed_deadline_counter,
        row.recovery_probes,
        row.recovery_s,
    ));
    report.save(&row);

    // Brownout acceptance criteria — see the module docs.
    let mut failures = Vec::new();
    if row.burst_status_500 > 0 {
        failures.push(format!("{} burst responses were 500", row.burst_status_500));
    }
    if row.burst_transport_errors > 0 {
        failures.push(format!(
            "{} burst requests failed at the transport",
            row.burst_transport_errors
        ));
    }
    if row.panics > 0 {
        failures.push(format!("{} handler/batcher panics", row.panics));
    }
    if row.watchdog_restarts == 0 {
        failures.push("watchdog never restarted the stalled flusher".to_string());
    }
    if row.breaker_opens == 0 {
        failures.push("breaker never opened — the burst did not exercise it".to_string());
    }
    if row.breaker_final != "closed" {
        failures.push(format!(
            "breaker failed to recover: still {}",
            row.breaker_final
        ));
    }
    if row.degraded_observed != row.degraded_counter {
        failures.push(format!(
            "unlabeled degraded responses: clients saw {} labels, server counted {}",
            row.degraded_observed, row.degraded_counter
        ));
    }
    if row.goodput_ratio < 0.70 {
        failures.push(format!(
            "burst goodput fell to {:.2}x baseline (gate >= 0.70)",
            row.goodput_ratio
        ));
    }
    if failures.is_empty() {
        println!("brownout gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("brownout gate: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
