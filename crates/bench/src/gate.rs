//! The gate harness: what the brownout, cluster and ingest gates share.
//!
//! Each gate binary is configuration, phases and assertions over this
//! module: one closed-loop `/judge` driver ([`drive`]), JSON probes of a
//! running server ([`get_json`], [`counter`]), nearest-rank
//! [`percentile`], a [`Verdict`] that turns failed assertions into the
//! exit code, and the [`Fixture`] corpus + model the release binary
//! builds.

use crate::report::Report;
use serde::{Serialize, Value};
use serve::{HttpClient, RetryPolicy};
use std::fmt;
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// q-th percentile of an ascending-sorted list (nearest rank); 0 when
/// the list is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// `name` parsed from the environment, or `default` when it is unset or
/// does not parse.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One client-observed exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Final HTTP status; 599 when the request failed at the transport
    /// (no response at all).
    pub status: u16,
    /// Wall latency of the exchange, retries included.
    pub ms: f64,
    /// Whether the response carried an `x-hisrect-degraded` label.
    pub degraded: bool,
}

/// When a closed-loop client stops sending.
#[derive(Debug)]
pub enum Stop {
    /// After exactly this many requests.
    Count(usize),
    /// After at least `min` requests *and* once `wall` has elapsed since
    /// the load started.
    Wall {
        /// Per-client request floor.
        min: usize,
        /// Minimum wall time.
        wall: Duration,
    },
    /// Once the flag is raised; the request in flight completes.
    Flag(Arc<AtomicBool>),
}

impl Stop {
    fn done(&self, sent: usize, start: Instant) -> bool {
        match self {
            Stop::Count(n) => sent >= *n,
            Stop::Wall { min, wall } => sent >= *min && start.elapsed() >= *wall,
            Stop::Flag(flag) => flag.load(Ordering::Relaxed),
        }
    }
}

/// A closed-loop `/judge` load: `clients` threads, each on one
/// keep-alive connection, sending its next request when the previous
/// one is answered.
#[derive(Debug)]
pub struct Load {
    /// Concurrent clients.
    pub clients: usize,
    /// Per-client stop rule.
    pub stop: Stop,
    /// Pairs are drawn from profiles `0..pool` (at least 1).
    pub pool: usize,
    /// Client `c` draws pairs from `Lcg(salt ^ (c << 32))`.
    pub salt: u64,
    /// Extra request headers sent with every `/judge`.
    pub headers: Vec<(&'static str, String)>,
    /// Retry transport errors and 503s with a seeded [`RetryPolicy`]
    /// (budget 2, seed `salt | c`) instead of recording them.
    pub retry: bool,
}

impl Load {
    /// `clients` clients sending plain `/judge` requests, no retries.
    pub fn new(clients: usize, stop: Stop, pool: usize, salt: u64) -> Self {
        Self {
            clients,
            stop,
            pool,
            salt,
            headers: Vec::new(),
            retry: false,
        }
    }
}

/// What one [`drive`] observed.
pub struct Run {
    /// Every exchange, client 0's first, each client's in send order.
    pub samples: Vec<Sample>,
    /// Wall time from the first send to the last answer.
    pub wall_s: f64,
}

impl Run {
    /// Samples whose status falls in `statuses`.
    pub fn count(&self, statuses: RangeInclusive<u16>) -> u64 {
        self.samples
            .iter()
            .filter(|s| statuses.contains(&s.status))
            .count() as u64
    }

    /// Samples labeled `x-hisrect-degraded`.
    pub fn degraded(&self) -> u64 {
        self.samples.iter().filter(|s| s.degraded).count() as u64
    }

    /// Exchanges per second of wall time.
    pub fn rps(&self) -> f64 {
        self.samples.len() as f64 / self.wall_s.max(1e-9)
    }

    /// Latencies in ascending order, for [`percentile`].
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.samples.iter().map(|s| s.ms).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }
}

/// Runs `load` against the server at `addr` until every client's stop
/// rule holds.
pub fn drive(addr: SocketAddr, load: &Load) -> Run {
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..load.clients)
            .map(|c| scope.spawn(move || client(addr, load, c as u64, start)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("load client panicked"))
            .collect()
    });
    Run {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn client(addr: SocketAddr, load: &Load, c: u64, start: Instant) -> Vec<Sample> {
    let mut rng = Lcg(load.salt ^ (c << 32));
    let mut http = if load.retry {
        HttpClient::with_retry(addr, RetryPolicy::new(2, load.salt | c))
    } else {
        HttpClient::new(addr)
    };
    let headers: Vec<(&str, &str)> = load.headers.iter().map(|(n, v)| (*n, v.as_str())).collect();
    let mut out = Vec::new();
    while !load.stop.done(out.len(), start) {
        let i = rng.next() as usize % load.pool;
        let mut j = rng.next() as usize % load.pool;
        if j == i {
            j = (j + 1) % load.pool;
        }
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        let t0 = Instant::now();
        let response = http.post_with_headers("/judge", &body, &headers);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.push(match response {
            Ok(r) => Sample {
                status: r.status,
                ms,
                degraded: r.header("x-hisrect-degraded").is_some(),
            },
            Err(_) => Sample {
                status: 599,
                ms,
                degraded: false,
            },
        });
    }
    out
}

/// Why [`get_json`] returned no document. Each variant carries the
/// requested path first.
#[derive(Debug, PartialEq)]
pub enum FetchError {
    /// No response arrived: path, I/O error.
    Transport(String, String),
    /// The server answered with a status other than 200: path, status.
    Status(String, u16),
    /// The 200 body is not JSON: path, parse error.
    Body(String, String),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Transport(path, error) => write!(f, "{path}: {error}"),
            FetchError::Status(path, status) => write!(f, "{path} returned {status}"),
            FetchError::Body(path, error) => write!(f, "{path} body: {error}"),
        }
    }
}

impl From<FetchError> for String {
    fn from(e: FetchError) -> String {
        e.to_string()
    }
}

/// `GET path` on a fresh connection, parsed as JSON; any status but 200
/// is an error.
pub fn get_json(addr: SocketAddr, path: &str) -> Result<Value, FetchError> {
    let resp = HttpClient::new(addr)
        .get(path)
        .map_err(|e| FetchError::Transport(path.into(), e.to_string()))?;
    if resp.status != 200 {
        return Err(FetchError::Status(path.into(), resp.status));
    }
    serde_json::from_str(&resp.body).map_err(|e| FetchError::Body(path.into(), e.to_string()))
}

/// Counter `name` of a `/metrics` snapshot; 0 when it is absent or not
/// a count.
pub fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Handler plus batcher panics in a `/metrics` snapshot.
pub fn panics(metrics: &Value) -> u64 {
    counter(metrics, "serve/handler_panic") + counter(metrics, "serve/batch_panic")
}

/// The profile count a shard's `/healthz` advertises; an error below
/// the two a pair needs.
pub fn profiles(health: &Value) -> Result<usize, String> {
    let n = health
        .get("profiles")
        .and_then(Value::as_u64)
        .ok_or("/healthz body lacks `profiles`")? as usize;
    if n < 2 {
        return Err(format!("server judges over {n} profile(s); need >= 2"));
    }
    Ok(n)
}

/// A gate's assertions: collects failures in the order they are found
/// and turns them into the exit code.
pub struct Verdict {
    gate: &'static str,
    failures: Vec<String>,
}

impl Verdict {
    /// An empty verdict for the gate named `gate` (e.g. `"cluster gate"`).
    pub fn new(gate: &'static str) -> Self {
        Self {
            gate,
            failures: Vec::new(),
        }
    }

    /// Records `failure` unless `ok`.
    pub fn expect(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }

    /// Records a failure unless `actual == want`.
    pub fn equal<T: PartialEq + fmt::Debug>(&mut self, what: &str, actual: T, want: T) {
        let failure = format!("{what}: {actual:?}, expected {want:?}");
        self.expect(actual == want, failure);
    }

    /// Records a failure unless `actual >= floor`.
    pub fn at_least<T: PartialOrd + fmt::Display>(&mut self, what: &str, actual: T, floor: T) {
        let failure = format!("{what}: {actual} < {floor}");
        self.expect(actual >= floor, failure);
    }

    /// Records a failure unless `actual <= ceiling`.
    pub fn at_most<T: PartialOrd + fmt::Display>(&mut self, what: &str, actual: T, ceiling: T) {
        let failure = format!("{what}: {actual} > {ceiling}");
        self.expect(actual <= ceiling, failure);
    }

    /// Failures recorded so far, in the order they were found.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Prints `<gate>: PASS` to stdout, or one `<gate>: FAIL: <failure>`
    /// line per failure to stderr; success exactly when nothing failed.
    pub fn finish(self) -> ExitCode {
        if self.failures.is_empty() {
            println!("{}: PASS", self.gate);
            return ExitCode::SUCCESS;
        }
        for failure in &self.failures {
            eprintln!("{}: FAIL: {failure}", self.gate);
        }
        ExitCode::FAILURE
    }
}

/// Echoes a gate's result row into `report` as pretty JSON, then saves
/// the `.json` / `.txt` pair.
pub fn save(mut report: Report, row: &impl Serialize) {
    let json = serde_json::to_string_pretty(row).expect("serializable row");
    for line in json.lines() {
        report.line(line);
    }
    report.save(row);
}

/// Prints a gate's setup error and fails.
pub fn fatal(error: &str) -> ExitCode {
    eprintln!("error: {error}");
    ExitCode::FAILURE
}

/// The `hisrect` CLI the gates drive: `HISRECT_BIN`, default
/// `target/release/hisrect`.
pub fn hisrect_bin() -> String {
    std::env::var("HISRECT_BIN").unwrap_or_else(|_| "target/release/hisrect".into())
}

/// The serving fixture: a tiny corpus and a model trained on it at
/// [`Fixture::SEED`], both built by the release binary in a scratch
/// directory removed on drop.
pub struct Fixture {
    /// Corpus JSON (`hisrect simulate --preset tiny`).
    pub corpus: PathBuf,
    /// Model JSON (`hisrect train`, 80 + 80 iterations).
    pub model: PathBuf,
    dir: PathBuf,
}

impl Fixture {
    /// Simulation and training seed.
    pub const SEED: u64 = 11;

    /// Simulates and trains the fixture with `bin`.
    pub fn build(bin: &str) -> Result<Self, String> {
        let dir = std::env::temp_dir().join(format!("hisrect-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let fixture = Self {
            corpus: dir.join("corpus.json"),
            model: dir.join("model.json"),
            dir,
        };
        let corpus = fixture.corpus.to_str().expect("utf-8 temp path");
        let model = fixture.model.to_str().expect("utf-8 temp path");
        let seed = Self::SEED.to_string();
        run_cli(
            bin,
            &[
                "simulate", "--preset", "tiny", "--seed", &seed, "--out", corpus,
            ],
        )?;
        run_cli(
            bin,
            &[
                "train",
                "--corpus",
                corpus,
                "--out",
                model,
                "--seed",
                &seed,
                "--iters",
                "80",
                "--judge-iters",
                "80",
            ],
        )?;
        Ok(fixture)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
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
