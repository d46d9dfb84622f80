//! Blocking cluster gate: the sharded-serving acceptance run.
//!
//! Unlike the in-process serve/brownout gates, this one exercises the
//! deployment shape end to end through the **release binary**: it
//! spawns three `hisrect serve` shards and one `hisrect route` router
//! as separate processes (each with its own fd budget), then drives the
//! cluster through the epoll event loop's headline claims:
//!
//! 1. **Single-shard throughput** — a closed-loop keep-alive burst
//!    against one shard must sustain at least the thread-per-connection
//!    baseline (1 674.7 rps, the last `results/loadgen.json` recorded
//!    before the event loop).
//! 2. **Connection scale** — the router must accept and hold 10k+
//!    concurrent keep-alive connections and still answer on a spread of
//!    them plus a fresh one.
//! 3. **Rolling restart** — two `POST /reload` rolling drains across
//!    all three shards while live `/judge` traffic flows must produce
//!    zero 5xx and zero transport errors, and live p99 must stay under
//!    the bound.
//! 4. **Routing identity** — routed `/judge`, `/judge_batch` and
//!    `/candidates` bodies must be byte-identical to a direct shard
//!    response.
//!
//! Tunables: `HISRECT_BIN` (path to the CLI, default
//! `target/release/hisrect`), `HISRECT_CORPUS` / `HISRECT_MODEL`
//! (reuse an existing fixture; otherwise the gate simulates + trains
//! one with the binary), `HISRECT_CLUSTER_CONNS` (idle connection
//! target, default 10_000), `HISRECT_CLUSTER_CLIENTS` /
//! `HISRECT_CLUSTER_REQUESTS` (burst shape, default 8 × 100),
//! `HISRECT_CLUSTER_P99_MS` (live-traffic p99 bound, default 50),
//! `HISRECT_CLUSTER_BASELINE_RPS` (throughput floor override) and
//! `HISRECT_SEED` (fixture seed, default 11 to match the serve gate).
//!
//! Writes `results/cluster_gate.{json,txt}` and the committed evidence
//! `BENCH_10.json` at the repo root.

use bench::report::Report;
use serde::Serialize;
use serve::client::read_response;
use serve::HttpClient;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Thread-per-connection-era throughput, from the last
/// `results/loadgen.json` recorded before the event loop. A constant, not
/// read from that file: the file is regenerated by later runs, and a
/// floor that follows whichever box last ran loadgen gates nothing.
const BASELINE_RPS: f64 = 1674.7;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
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

/// q-th percentile of an ascending-sorted latency list (nearest rank).
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

/// A spawned `hisrect serve` / `hisrect route` child, killed on drop.
struct Proc {
    child: Child,
    addr: SocketAddr,
}

impl Proc {
    /// Spawns the binary and blocks until it prints the
    /// `listening on http://HOST:PORT` sentinel (the same contract the
    /// CI serve gate greps for).
    fn spawn(bin: &str, name: &str, args: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{name}: spawn {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix("listening on http://") {
                        break rest
                            .trim()
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("{name}: bad sentinel `{line}`: {e}"))?;
                    }
                }
                Some(Err(e)) => {
                    let _ = child.kill();
                    return Err(format!("{name}: reading stdout: {e}"));
                }
                None => {
                    let _ = child.kill();
                    return Err(format!("{name}: exited before the listening sentinel"));
                }
            }
        };
        // Keep draining stdout in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
        Ok(Self { child, addr })
    }

    /// Kills the process now (drop would too; this makes intent loud).
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs one CLI invocation to completion, failing on non-zero exit.
fn run_cli(bin: &str, args: &[&str]) -> Result<(), String> {
    let status = Command::new(bin)
        .args(args)
        .status()
        .map_err(|e| format!("{bin} {}: {e}", args.join(" ")))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("{bin} {} exited {status}", args.join(" ")))
    }
}

/// The corpus + model fixture: reused from `HISRECT_CORPUS` /
/// `HISRECT_MODEL` when set (the CI job trains once and shares it),
/// otherwise simulated + trained here through the binary.
struct Fixture {
    corpus: PathBuf,
    model: PathBuf,
    /// Scratch dir to remove on drop (None when reusing env paths).
    scratch: Option<PathBuf>,
}

impl Fixture {
    fn prepare(bin: &str, seed: u64) -> Result<Self, String> {
        if let (Ok(corpus), Ok(model)) = (
            std::env::var("HISRECT_CORPUS"),
            std::env::var("HISRECT_MODEL"),
        ) {
            return Ok(Self {
                corpus: corpus.into(),
                model: model.into(),
                scratch: None,
            });
        }
        let dir = std::env::temp_dir().join(format!("hisrect-cluster-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let corpus = dir.join("corpus.json");
        let model = dir.join("model.json");
        let seed = seed.to_string();
        run_cli(
            bin,
            &[
                "simulate",
                "--preset",
                "tiny",
                "--seed",
                &seed,
                "--out",
                corpus.to_str().expect("utf-8 temp path"),
            ],
        )?;
        run_cli(
            bin,
            &[
                "train",
                "--corpus",
                corpus.to_str().expect("utf-8 temp path"),
                "--out",
                model.to_str().expect("utf-8 temp path"),
                "--seed",
                &seed,
                "--iters",
                "80",
                "--judge-iters",
                "80",
            ],
        )?;
        Ok(Self {
            corpus,
            model,
            scratch: Some(dir),
        })
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn healthz(addr: SocketAddr) -> Result<serde::Value, String> {
    let mut client = HttpClient::new(addr);
    let resp = client
        .get("/healthz")
        .map_err(|e| format!("/healthz: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/healthz returned {}", resp.status));
    }
    serde_json::from_str(&resp.body).map_err(|e| format!("/healthz body: {e}"))
}

/// Polls the router's `/healthz` until it reports `want` shards up.
fn wait_for_shards_up(addr: SocketAddr, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(body) = healthz(addr) {
            if body.get("shards_up").and_then(|v| v.as_u64()) == Some(want) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(format!("router never reported {want} shards up"));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Closed-loop keep-alive `/judge` burst: `clients` threads, each
/// sending `per_client` requests over one pooled connection. Returns
/// `(status, latency_ms)` samples and the wall time.
fn burst(
    addr: SocketAddr,
    clients: usize,
    per_client: usize,
    pool: usize,
) -> (Vec<(u16, f64)>, f64) {
    let start = Instant::now();
    let mut threads = Vec::new();
    for client_id in 0..clients {
        threads.push(std::thread::spawn(move || -> Vec<(u16, f64)> {
            let mut rng = Lcg(0xc105 ^ (client_id as u64) << 32);
            let mut http = HttpClient::new(addr);
            let mut out = Vec::with_capacity(per_client);
            for _ in 0..per_client {
                let i = rng.next() as usize % pool;
                let mut j = rng.next() as usize % pool;
                if j == i {
                    j = (j + 1) % pool;
                }
                let body = format!("{{\"i\":{i},\"j\":{j}}}");
                let t0 = Instant::now();
                match http.post("/judge", &body) {
                    Ok(resp) => out.push((resp.status, t0.elapsed().as_secs_f64() * 1e3)),
                    Err(_) => out.push((599, t0.elapsed().as_secs_f64() * 1e3)),
                }
            }
            out
        }));
    }
    let mut samples = Vec::new();
    for t in threads {
        samples.extend(t.join().expect("burst client panicked"));
    }
    (samples, start.elapsed().as_secs_f64())
}

fn count_class(samples: &[(u16, f64)], lo: u16, hi: u16) -> u64 {
    samples.iter().filter(|&&(s, _)| s >= lo && s <= hi).count() as u64
}

fn sorted_latencies(samples: &[(u16, f64)]) -> Vec<f64> {
    let mut v: Vec<f64> = samples.iter().map(|&(_, ms)| ms).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The thread-per-connection throughput this run must match, overridable
/// via `HISRECT_CLUSTER_BASELINE_RPS`.
fn baseline_rps() -> f64 {
    env_f64("HISRECT_CLUSTER_BASELINE_RPS", BASELINE_RPS)
}

#[derive(Serialize)]
struct GateReport {
    // Phase 1: single-shard closed-loop burst.
    single_shard_clients: usize,
    single_shard_requests: usize,
    single_shard_rps: f64,
    single_shard_p50_ms: f64,
    single_shard_p99_ms: f64,
    single_shard_5xx: u64,
    baseline_rps: f64,
    // Phase 2: connection scale.
    shards: usize,
    idle_connections: usize,
    idle_connect_wall_s: f64,
    idle_probe_ok: usize,
    // Phase 3: live traffic across a rolling restart.
    live_requests: usize,
    live_p50_ms: f64,
    live_p95_ms: f64,
    live_p99_ms: f64,
    live_p99_bound_ms: f64,
    live_5xx: u64,
    live_transport_errors: u64,
    reloads: u64,
    generations_after: Vec<u64>,
    shards_up_after: u64,
    // Phase 4: routing identity.
    identity_checks: usize,
    identity_matches: usize,
}

fn run(report: &mut Report) -> Result<GateReport, String> {
    let bin = std::env::var("HISRECT_BIN").unwrap_or_else(|_| "target/release/hisrect".into());
    let seed = env_usize("HISRECT_SEED", 11) as u64;
    let clients = env_usize("HISRECT_CLUSTER_CLIENTS", 8);
    let per_client = env_usize("HISRECT_CLUSTER_REQUESTS", 100);
    let conn_target = env_usize("HISRECT_CLUSTER_CONNS", 10_000);
    let p99_bound_ms = env_f64("HISRECT_CLUSTER_P99_MS", 50.0);

    let fixture = Fixture::prepare(&bin, seed)?;
    let corpus = fixture.corpus.to_str().expect("utf-8 corpus path");
    let model = fixture.model.to_str().expect("utf-8 model path");
    // Long idle timeout: parked keep-alive connections must survive the
    // whole run, not get reaped by the default 5 s read deadline.
    let shard_args = |_n: usize| {
        vec![
            "serve".to_string(),
            "--corpus".into(),
            corpus.to_string(),
            "--model".into(),
            model.to_string(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            "--read-timeout-ms".into(),
            "120000".into(),
        ]
    };

    // ---- Phase 1: single-shard throughput vs the archived baseline.
    report.line("phase 1: single-shard closed-loop burst");
    let args = shard_args(0);
    let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
    let solo = Proc::spawn(&bin, "shard-solo", &arg_refs)?;
    let health = healthz(solo.addr)?;
    let profiles = health
        .get("profiles")
        .and_then(|v| v.as_u64())
        .ok_or("shard /healthz lacks `profiles`")? as usize;
    if profiles < 2 {
        return Err(format!("fixture has {profiles} profile(s); need >= 2"));
    }
    let pool = 12.min(profiles);
    // Warm-up pass primes the feature cache so the measured burst sees
    // steady-state latency, same as the archived loadgen run.
    let _ = burst(solo.addr, clients, 25, pool);
    let (samples, wall_s) = burst(solo.addr, clients, per_client, pool);
    let lat = sorted_latencies(&samples);
    let single_shard_rps = samples.len() as f64 / wall_s.max(1e-9);
    let single_shard_5xx = count_class(&samples, 500, 599);
    let baseline = baseline_rps();
    report.line(&format!(
        "  {} requests in {:.2}s -> {:.1} rps (baseline {:.1}), p50 {:.2}ms p99 {:.2}ms, 5xx {}",
        samples.len(),
        wall_s,
        single_shard_rps,
        baseline,
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        single_shard_5xx,
    ));
    let single = (
        samples.len(),
        single_shard_rps,
        percentile(&lat, 0.50),
        percentile(&lat, 0.99),
        single_shard_5xx,
    );
    solo.kill();

    // ---- Phase 2: 3-shard cluster behind the router; park 10k conns.
    report.line("phase 2: 3-shard cluster + idle keep-alive crowd");
    let mut shards = Vec::new();
    for n in 0..3 {
        let args = shard_args(n);
        let arg_refs: Vec<&str> = args.iter().map(String::as_str).collect();
        shards.push(Proc::spawn(&bin, &format!("shard-{n}"), &arg_refs)?);
    }
    let shard_list = shards
        .iter()
        .map(|s| s.addr.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let router = Proc::spawn(
        &bin,
        "router",
        &[
            "route",
            "--shards",
            &shard_list,
            "--addr",
            "127.0.0.1:0",
            "--read-timeout-ms",
            "120000",
            "--health-interval-ms",
            "100",
        ],
    )?;
    wait_for_shards_up(router.addr, 3)?;

    // This process only pays one descriptor per parked connection (the
    // router holds the other end), so 10k fits comfortably under the
    // raised limit with headroom for the burst clients below.
    let fd_limit = serve::event_loop::raise_nofile_limit();
    let conns = conn_target.min(fd_limit.saturating_sub(2_048) as usize);
    if conns < conn_target {
        report.line(&format!(
            "  fd limit {fd_limit} caps the crowd at {conns} connections (wanted {conn_target})"
        ));
    }
    let t0 = Instant::now();
    let sockets: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::with_capacity(conns)));
    let failed = Arc::new(AtomicU64::new(0));
    let openers = 8;
    let mut threads = Vec::new();
    for t in 0..openers {
        let sockets = Arc::clone(&sockets);
        let failed = Arc::clone(&failed);
        let addr = router.addr;
        let quota = conns / openers + usize::from(t < conns % openers);
        threads.push(std::thread::spawn(move || {
            let mut local = Vec::with_capacity(quota);
            for _ in 0..quota {
                match TcpStream::connect(addr) {
                    Ok(s) => {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
                        local.push(s);
                    }
                    Err(_) => {
                        failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            sockets.lock().expect("socket vec poisoned").extend(local);
        }));
    }
    for t in threads {
        t.join().expect("connection opener panicked");
    }
    let idle_connect_wall_s = t0.elapsed().as_secs_f64();
    let mut sockets = Arc::try_unwrap(sockets)
        .expect("openers joined")
        .into_inner()
        .expect("socket vec poisoned");
    let connect_failures = failed.load(Ordering::Relaxed);
    report.line(&format!(
        "  parked {} keep-alive connections in {:.2}s ({} connect failures)",
        sockets.len(),
        idle_connect_wall_s,
        connect_failures,
    ));
    if connect_failures > 0 {
        return Err(format!(
            "{connect_failures} idle connections failed to open"
        ));
    }

    // ---- Phase 3: live traffic while the cluster rolls twice.
    report.line("phase 3: live /judge traffic across a rolling restart");
    let stop = Arc::new(AtomicBool::new(false));
    let mut live_threads = Vec::new();
    for client_id in 0..clients {
        let stop = Arc::clone(&stop);
        let addr = router.addr;
        live_threads.push(std::thread::spawn(move || -> Vec<(u16, f64)> {
            let mut rng = Lcg(0x10ad ^ (client_id as u64) << 32);
            let mut http = HttpClient::new(addr);
            let mut out = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let i = rng.next() as usize % pool;
                let mut j = rng.next() as usize % pool;
                if j == i {
                    j = (j + 1) % pool;
                }
                let body = format!("{{\"i\":{i},\"j\":{j}}}");
                let t0 = Instant::now();
                match http.post("/judge", &body) {
                    Ok(resp) => out.push((resp.status, t0.elapsed().as_secs_f64() * 1e3)),
                    Err(_) => out.push((599, t0.elapsed().as_secs_f64() * 1e3)),
                }
            }
            out
        }));
    }
    // Two rolling reloads while the clients hammer: each drains every
    // shard in turn, reloads it, and re-admits it.
    let mut reloads = 0u64;
    std::thread::sleep(Duration::from_millis(300));
    let mut admin = HttpClient::new(router.addr);
    admin.set_timeout(Duration::from_secs(60));
    for round in 0..2 {
        let resp = admin
            .post("/reload", "")
            .map_err(|e| format!("rolling reload {round}: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "rolling reload {round} returned {}: {}",
                resp.status, resp.body
            ));
        }
        reloads += 1;
    }
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let mut live: Vec<(u16, f64)> = Vec::new();
    for t in live_threads {
        live.extend(t.join().expect("live client panicked"));
    }
    let live_lat = sorted_latencies(&live);
    let live_5xx = live
        .iter()
        .filter(|&&(s, _)| (500..=598).contains(&s))
        .count() as u64;
    let live_transport_errors = live.iter().filter(|&&(s, _)| s == 599).count() as u64;
    report.line(&format!(
        "  {} live requests, p50 {:.2}ms p95 {:.2}ms p99 {:.2}ms, 5xx {}, transport errors {}",
        live.len(),
        percentile(&live_lat, 0.50),
        percentile(&live_lat, 0.95),
        percentile(&live_lat, 0.99),
        live_5xx,
        live_transport_errors,
    ));

    // The parked crowd must have survived the restart: probe a spread
    // of held connections with a full request each.
    let body = "{\"i\":0,\"j\":1}";
    let raw = format!(
        "POST /judge HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let mut idle_probe_ok = 0usize;
    let n = sockets.len();
    for &probe in &[0usize, n / 2, n - 1] {
        let s = &mut sockets[probe];
        if s.write_all(raw.as_bytes()).is_ok() {
            if let Ok(r) = read_response(s) {
                if r.status == 200 {
                    idle_probe_ok += 1;
                    continue;
                }
            }
        }
        report.line(&format!("  parked connection #{probe} no longer answers"));
    }

    let after = healthz(router.addr)?;
    let shards_up_after = after.get("shards_up").and_then(|v| v.as_u64()).unwrap_or(0);
    let generations_after: Vec<u64> = after
        .get("generations")
        .and_then(|v| v.as_array())
        .map(|a| a.iter().filter_map(|g| g.as_u64()).collect())
        .unwrap_or_default();
    report.line(&format!(
        "  after restart: {shards_up_after} shards up, generations {generations_after:?}"
    ));

    // ---- Phase 4: routed bodies are byte-identical to a direct shard.
    report.line("phase 4: routed vs direct-shard byte identity");
    let mut via_router = HttpClient::new(router.addr);
    let mut direct = HttpClient::new(shards[0].addr);
    let mut identity_checks = 0usize;
    let mut identity_matches = 0usize;
    for (i, j) in [(0usize, 1usize), (1, 2), (2, 3), (3, 0)] {
        if i >= pool || j >= pool {
            continue;
        }
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        let routed = via_router
            .post("/judge", &body)
            .map_err(|e| format!("routed /judge: {e}"))?;
        let shard = direct
            .post("/judge", &body)
            .map_err(|e| format!("direct /judge: {e}"))?;
        identity_checks += 1;
        identity_matches += usize::from(routed.status == 200 && routed.body == shard.body);
    }
    for req in [
        ("/candidates", "{\"i\":0,\"k\":5}"),
        ("/judge_batch", "{\"pairs\":[[0,1],[1,2],[2,3]]}"),
    ] {
        let routed = via_router
            .post(req.0, req.1)
            .map_err(|e| format!("routed {}: {e}", req.0))?;
        let shard = direct
            .post(req.0, req.1)
            .map_err(|e| format!("direct {}: {e}", req.0))?;
        identity_checks += 1;
        identity_matches += usize::from(routed.status == 200 && routed.body == shard.body);
    }
    report.line(&format!(
        "  {identity_matches}/{identity_checks} routed responses byte-identical"
    ));

    drop(sockets);
    router.kill();
    for s in shards {
        s.kill();
    }

    Ok(GateReport {
        single_shard_clients: clients,
        single_shard_requests: single.0,
        single_shard_rps: single.1,
        single_shard_p50_ms: single.2,
        single_shard_p99_ms: single.3,
        single_shard_5xx: single.4,
        baseline_rps: baseline,
        shards: 3,
        idle_connections: conns,
        idle_connect_wall_s,
        idle_probe_ok,
        live_requests: live.len(),
        live_p50_ms: percentile(&live_lat, 0.50),
        live_p95_ms: percentile(&live_lat, 0.95),
        live_p99_ms: percentile(&live_lat, 0.99),
        live_p99_bound_ms: p99_bound_ms,
        live_5xx,
        live_transport_errors,
        reloads,
        generations_after,
        shards_up_after,
        identity_checks,
        identity_matches,
    })
}

/// Writes `BENCH_10.json` at the repo root: the committed evidence for
/// this change's acceptance numbers. (`BENCH_7.json` stays committed as
/// the previous change's snapshot.)
fn write_bench10(payload: &GateReport) {
    let path = bench::report::results_dir()
        .parent()
        .map(|p| p.join("BENCH_10.json"))
        .unwrap_or_else(|| "BENCH_10.json".into());
    match serde_json::to_string_pretty(payload) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json + "\n") {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize BENCH_10.json: {e}"),
    }
}

fn main() -> ExitCode {
    let mut report = Report::new("cluster_gate");
    let row = match run(&mut report) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report.save(&row);
    write_bench10(&row);

    let mut failures = Vec::new();
    if row.single_shard_rps < row.baseline_rps {
        failures.push(format!(
            "single-shard throughput {:.1} rps < thread-per-connection baseline {:.1}",
            row.single_shard_rps, row.baseline_rps
        ));
    }
    if row.single_shard_5xx > 0 {
        failures.push(format!(
            "{} single-shard responses were 5xx",
            row.single_shard_5xx
        ));
    }
    if row.idle_connections < 10_000 {
        failures.push(format!(
            "only {} idle connections parked (need >= 10000)",
            row.idle_connections
        ));
    }
    if row.idle_probe_ok < 3 {
        failures.push(format!(
            "{}/3 parked connections still answered after the restart",
            row.idle_probe_ok
        ));
    }
    if row.live_5xx > 0 {
        failures.push(format!(
            "{} live responses were 5xx during the rolling restart",
            row.live_5xx
        ));
    }
    if row.live_transport_errors > 0 {
        failures.push(format!(
            "{} live transport errors",
            row.live_transport_errors
        ));
    }
    if row.live_p99_ms > row.live_p99_bound_ms {
        failures.push(format!(
            "live p99 {:.2}ms exceeds the {:.0}ms bound",
            row.live_p99_ms, row.live_p99_bound_ms
        ));
    }
    if row.reloads < 2 {
        failures.push(format!(
            "{} rolling reloads completed (need 2)",
            row.reloads
        ));
    }
    if row.shards_up_after != 3 {
        failures.push(format!(
            "{} shards up after the restart (need 3)",
            row.shards_up_after
        ));
    }
    if row.generations_after != vec![3, 3, 3] {
        failures.push(format!(
            "shard generations {:?} after 2 reloads (expected [3, 3, 3])",
            row.generations_after
        ));
    }
    if row.identity_matches != row.identity_checks {
        failures.push(format!(
            "{}/{} routed responses byte-identical to a direct shard",
            row.identity_matches, row.identity_checks
        ));
    }
    if failures.is_empty() {
        println!("cluster gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("cluster gate: FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
