//! Blocking cluster gate: the serving acceptance run through the
//! **release binary**.
//!
//! Unlike the in-process brownout/ingest gates, this one exercises the
//! deployment shape end to end: it spawns `hisrect serve` shards and one
//! `hisrect route` router as separate processes (each with its own fd
//! budget) over the shared [`Fixture`], then drives them through four
//! phases:
//!
//! 1. **Single shard, at `--precision f32` and at `--precision int8`** —
//!    an 8-client closed-loop keep-alive burst against one shard must
//!    sustain at least the thread-per-connection baseline (1 674.7 rps,
//!    the last serve-gate run recorded before the event loop) with zero
//!    5xx and zero handler/batcher panics, hit the feature cache, and
//!    coalesce requests (mean micro-batch > 1). The report records each
//!    run's precision, kernel tier and batch-size distribution.
//! 2. **Connection scale** — the router must accept and hold 10k+
//!    concurrent keep-alive connections and still answer on a spread of
//!    them after phase 3.
//! 3. **Rolling restart** — two `POST /reload` rolling drains across
//!    all three shards while live `/judge` traffic flows must produce
//!    zero 5xx and zero transport errors, and live p99 must stay under
//!    the bound.
//! 4. **Routing identity** — routed `/judge`, `/judge_batch` and
//!    `/candidates` bodies must be byte-identical to a direct shard
//!    response.
//!
//! `HISRECT_BIN` names the CLI (default `target/release/hisrect`).
//! Writes `results/cluster_gate.{json,txt}`.

use bench::gate::{self, Fixture, Load, Stop, Verdict};
use bench::report::Report;
use serde::Serialize;
use serve::batcher::BATCH_BUCKET_LABELS;
use serve::client::read_response;
use serve::HttpClient;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Thread-per-connection-era throughput, from the last serve-gate run
/// recorded before the event loop. A constant, not read from a results
/// file: a floor that follows whichever box last ran gates nothing.
const BASELINE_RPS: f64 = 1674.7;

/// Closed-loop clients in phases 1 and 3.
const CLIENTS: usize = 8;

/// Phase-1 requests per client, after a 25-request cache warm-up.
const REQUESTS: usize = 100;
const WARMUP_REQUESTS: usize = 25;

/// Profiles in the pair pool.
const POOL: usize = 12;

/// Idle keep-alive connections phase 2 parks on the router.
const CONNS: usize = 10_000;

/// Live-traffic p99 bound across the rolling restart.
const P99_BOUND_MS: f64 = 50.0;

/// A spawned `hisrect serve` / `hisrect route` child, killed on drop.
struct Proc {
    child: Child,
    addr: SocketAddr,
}

impl Proc {
    /// Spawns the binary and blocks until it prints the
    /// `listening on http://HOST:PORT` sentinel.
    fn spawn(bin: &str, name: &str, args: &[&str]) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("{name}: spawn {bin}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let sentinel = lines.by_ref().map_while(Result::ok).find_map(|line| {
            let addr = line.strip_prefix("listening on http://")?;
            Some(addr.trim().parse::<SocketAddr>())
        });
        let addr = match sentinel {
            Some(Ok(addr)) => addr,
            other => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(match other {
                    Some(Err(e)) => format!("{name}: bad listening sentinel: {e}"),
                    _ => format!("{name}: exited before the listening sentinel"),
                });
            }
        };
        // Keep draining stdout in the background so the child never
        // blocks on a full pipe.
        std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
        Ok(Self { child, addr })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls the router's `/healthz` until it reports `want` shards up.
fn wait_for_shards_up(addr: SocketAddr, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(body) = gate::get_json(addr, "/healthz") {
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

/// Phase 1 at one precision.
#[derive(Serialize)]
struct ShardRun {
    precision: String,
    /// Kernel tier the shard reported (`avx2` / `portable`).
    kernel: String,
    clients: usize,
    pool: usize,
    requests: usize,
    rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    status_5xx: u64,
    panics: u64,
    cache_hits: u64,
    mean_batch_size: f64,
    /// Flushes per batch-size bucket (`[label, count]`, smallest first),
    /// warm-up included.
    batch_size_dist: Vec<(String, u64)>,
}

/// Shard command line; the long idle timeout keeps parked keep-alive
/// connections from being reaped by the default 5 s read deadline.
fn shard_args<'a>(fixture: &'a Fixture, precision: &'a str) -> Vec<&'a str> {
    vec![
        "serve",
        "--corpus",
        fixture.corpus.to_str().expect("utf-8 corpus path"),
        "--model",
        fixture.model.to_str().expect("utf-8 model path"),
        "--addr",
        "127.0.0.1:0",
        "--read-timeout-ms",
        "120000",
        "--precision",
        precision,
    ]
}

fn single_shard(bin: &str, fixture: &Fixture, precision: &str) -> Result<ShardRun, String> {
    let shard = Proc::spawn(bin, "shard-solo", &shard_args(fixture, precision))?;
    let health = gate::get_json(shard.addr, "/healthz")?;
    let pool = POOL.min(gate::profiles(&health)?);
    let burst = |requests| Load::new(CLIENTS, Stop::Count(requests), pool, 0xc105);
    // Warm-up pass primes the feature cache so the measured burst sees
    // steady-state latency.
    gate::drive(shard.addr, &burst(WARMUP_REQUESTS));
    let run = gate::drive(shard.addr, &burst(REQUESTS));
    let metrics = gate::get_json(shard.addr, "/metrics")?;
    let lat = run.sorted_ms();
    let field = |name: &str| {
        health
            .get(name)
            .and_then(|v| v.as_str())
            .unwrap_or("unknown")
            .to_string()
    };
    Ok(ShardRun {
        precision: field("precision"),
        kernel: field("kernel"),
        clients: CLIENTS,
        pool,
        requests: run.samples.len(),
        rps: run.rps(),
        p50_ms: gate::percentile(&lat, 0.50),
        p99_ms: gate::percentile(&lat, 0.99),
        status_5xx: run.count(500..=599),
        panics: gate::panics(&metrics),
        cache_hits: gate::counter(&metrics, "serve/cache_hit"),
        mean_batch_size: gate::counter(&metrics, "serve/batched_requests") as f64
            / gate::counter(&metrics, "serve/batches").max(1) as f64,
        batch_size_dist: BATCH_BUCKET_LABELS
            .iter()
            .map(|l| {
                let n = gate::counter(&metrics, &format!("serve/batch_bucket_{l}"));
                (l.to_string(), n)
            })
            .collect(),
    })
}

/// Parks `conns` idle keep-alive connections on `addr` from 8 opener
/// threads; errors if any connect fails.
fn park(addr: SocketAddr, conns: usize) -> Result<Vec<TcpStream>, String> {
    let openers = 8;
    let opened: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..openers)
            .map(|t| {
                let quota = conns / openers + usize::from(t < conns % openers);
                scope.spawn(move || {
                    (0..quota)
                        .map(|_| TcpStream::connect(addr))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("connection opener panicked"))
            .collect::<Vec<_>>()
    });
    let failed = opened.iter().filter(|s| s.is_err()).count();
    if failed > 0 {
        return Err(format!("{failed} idle connections failed to open"));
    }
    let sockets: Vec<TcpStream> = opened.into_iter().map_while(Result::ok).collect();
    for s in &sockets {
        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    }
    Ok(sockets)
}

/// Sends one `/judge` on the first, middle and last parked connection:
/// `(index, answered 200)` per probe, none when nothing is parked.
fn probe_parked(sockets: &mut [TcpStream]) -> Vec<(usize, bool)> {
    let n = sockets.len();
    if n == 0 {
        return Vec::new();
    }
    let body = "{\"i\":0,\"j\":1}";
    let raw = format!(
        "POST /judge HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    [0, n / 2, n - 1]
        .into_iter()
        .map(|i| {
            let s = &mut sockets[i];
            let ok = s.write_all(raw.as_bytes()).is_ok()
                && read_response(s).is_ok_and(|r| r.status == 200);
            (i, ok)
        })
        .collect()
}

/// Two rolling reloads: each drains every shard in turn, reloads it,
/// and re-admits it.
fn rolling_reloads(router: SocketAddr) -> Result<u64, String> {
    let mut admin = HttpClient::new(router);
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
    }
    Ok(2)
}

#[derive(Serialize)]
struct GateReport {
    // Phase 1: single-shard closed-loop burst, f32 then int8.
    single_shard: Vec<ShardRun>,
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
    let bin = gate::hisrect_bin();
    let fixture = Fixture::build(&bin)?;

    // ---- Phase 1: single-shard throughput at each precision.
    let mut shard_runs = Vec::new();
    for precision in ["f32", "int8"] {
        report.line(&format!("phase 1: single-shard burst, {precision}"));
        shard_runs.push(single_shard(&bin, &fixture, precision)?);
    }
    let pool = shard_runs[0].pool;

    // ---- Phase 2: 3-shard cluster behind the router; park 10k conns.
    report.line("phase 2: 3-shard cluster + idle keep-alive crowd");
    let mut shards = Vec::new();
    for n in 0..3 {
        let args = shard_args(&fixture, "f32");
        shards.push(Proc::spawn(&bin, &format!("shard-{n}"), &args)?);
    }
    let shard_list = shards
        .iter()
        .map(|s| s.addr.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let route = format!(
        "route --shards {shard_list} --addr 127.0.0.1:0 --read-timeout-ms 120000 \
         --health-interval-ms 100"
    );
    let router = Proc::spawn(&bin, "router", &route.split(' ').collect::<Vec<_>>())?;
    wait_for_shards_up(router.addr, 3)?;

    // This process only pays one descriptor per parked connection (the
    // router holds the other end), so 10k fits comfortably under the
    // raised limit with headroom for the burst clients below.
    let fd_limit = serve::event_loop::raise_nofile_limit();
    let conns = CONNS.min(fd_limit.saturating_sub(2_048) as usize);
    if conns < CONNS {
        report.line(&format!(
            "  fd limit {fd_limit} caps the crowd at {conns} connections (wanted {CONNS})"
        ));
    }
    let t0 = Instant::now();
    let mut sockets = park(router.addr, conns)?;
    let idle_connect_wall_s = t0.elapsed().as_secs_f64();

    // ---- Phase 3: live traffic while the cluster rolls twice.
    report.line("phase 3: live /judge traffic across a rolling restart");
    let stop = Arc::new(AtomicBool::new(false));
    let live = Load::new(CLIENTS, Stop::Flag(Arc::clone(&stop)), pool, 0x10ad);
    let router_addr = router.addr;
    let live = std::thread::spawn(move || gate::drive(router_addr, &live));
    std::thread::sleep(Duration::from_millis(300));
    let reloads = rolling_reloads(router.addr);
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    let live = live.join().expect("live clients panicked");
    let reloads = reloads?;
    let live_lat = live.sorted_ms();
    let live_5xx = live.count(500..=598);
    let live_transport_errors = live.count(599..=599);

    // The parked crowd must have survived the restart.
    let probes = probe_parked(&mut sockets);
    for &(i, _) in probes.iter().filter(|(_, ok)| !ok) {
        report.line(&format!("  parked connection #{i} no longer answers"));
    }
    let idle_probe_ok = probes.iter().filter(|(_, ok)| *ok).count();

    let after = gate::get_json(router.addr, "/healthz")?;
    let shards_up_after = after.get("shards_up").and_then(|v| v.as_u64()).unwrap_or(0);
    let generations_after: Vec<u64> = after
        .get("generations")
        .and_then(|v| v.as_array())
        .map(|a| a.iter().filter_map(|g| g.as_u64()).collect())
        .unwrap_or_default();

    // ---- Phase 4: routed bodies are byte-identical to a direct shard.
    report.line("phase 4: routed vs direct-shard byte identity");
    let mut via_router = HttpClient::new(router.addr);
    let mut direct = HttpClient::new(shards[0].addr);
    let mut requests: Vec<(&str, String)> = [(0usize, 1usize), (1, 2), (2, 3), (3, 0)]
        .into_iter()
        .filter(|&(i, j)| i < pool && j < pool)
        .map(|(i, j)| ("/judge", format!("{{\"i\":{i},\"j\":{j}}}")))
        .collect();
    requests.push(("/candidates", "{\"i\":0,\"k\":5}".into()));
    requests.push(("/judge_batch", "{\"pairs\":[[0,1],[1,2],[2,3]]}".into()));
    let mut identity_matches = 0usize;
    for (path, body) in &requests {
        let routed = via_router
            .post(path, body)
            .map_err(|e| format!("routed {path}: {e}"))?;
        let shard = direct
            .post(path, body)
            .map_err(|e| format!("direct {path}: {e}"))?;
        identity_matches += usize::from(routed.status == 200 && routed.body == shard.body);
    }

    Ok(GateReport {
        single_shard: shard_runs,
        baseline_rps: BASELINE_RPS,
        shards: 3,
        idle_connections: conns,
        idle_connect_wall_s,
        idle_probe_ok,
        live_requests: live.samples.len(),
        live_p50_ms: gate::percentile(&live_lat, 0.50),
        live_p95_ms: gate::percentile(&live_lat, 0.95),
        live_p99_ms: gate::percentile(&live_lat, 0.99),
        live_p99_bound_ms: P99_BOUND_MS,
        live_5xx,
        live_transport_errors,
        reloads,
        generations_after,
        shards_up_after,
        identity_checks: requests.len(),
        identity_matches,
    })
}

fn main() -> ExitCode {
    let mut report = Report::new("cluster_gate");
    let row = match run(&mut report) {
        Ok(row) => row,
        Err(e) => return gate::fatal(&e),
    };
    gate::save(report, &row);

    let mut verdict = Verdict::new("cluster gate");
    for s in &row.single_shard {
        let p = &s.precision;
        verdict.at_least(&format!("{p} single-shard rps"), s.rps, row.baseline_rps);
        verdict.equal(&format!("{p} single-shard 5xx"), s.status_5xx, 0);
        verdict.equal(&format!("{p} handler/batcher panics"), s.panics, 0);
        verdict.at_least(&format!("{p} feature cache hits"), s.cache_hits, 1);
        verdict.expect(
            s.mean_batch_size > 1.0,
            format!(
                "{p} mean batch size {:.2} (expected > 1)",
                s.mean_batch_size
            ),
        );
    }
    verdict.at_least("idle connections parked", row.idle_connections, CONNS);
    verdict.at_least("parked connections answering", row.idle_probe_ok, 3);
    verdict.equal("live 5xx during the rolling restart", row.live_5xx, 0);
    verdict.equal("live transport errors", row.live_transport_errors, 0);
    verdict.at_most("live p99 ms", row.live_p99_ms, row.live_p99_bound_ms);
    verdict.at_least("rolling reloads", row.reloads, 2);
    verdict.equal("shards up after the restart", row.shards_up_after, 3);
    verdict.equal(
        "shard generations after 2 reloads",
        row.generations_after.as_slice(),
        &[3, 3, 3],
    );
    verdict.equal(
        "routed responses byte-identical to a direct shard",
        row.identity_matches,
        row.identity_checks,
    );
    verdict.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probing_an_empty_crowd_reports_no_probes() {
        assert!(probe_parked(&mut []).is_empty());
    }
}
