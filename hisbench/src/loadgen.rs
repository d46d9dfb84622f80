//! The load generator: a fixed number of keep-alive connections driving
//! a request list either on a schedule (open loop) or back to back
//! (closed loop), through the repository's own `serve::HttpClient`.

use crate::span::Tracer;
use serve::HttpClient;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long before an arrival is due its connection stops sleeping and
/// spins: long enough to absorb the scheduler's wake-up latency.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(400);

/// What a request asks for; latencies are reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /judge`.
    Judge,
    /// `POST /judge_batch`.
    Batch,
    /// `POST /candidates`.
    Candidates,
    /// `POST /reload`.
    Reload,
    /// `GET /healthz`.
    Health,
}

/// One generated input.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which endpoint.
    pub kind: Kind,
    /// Request body (empty for `GET` and a default reload).
    pub body: String,
    /// The index pairs the body names: `(i, j)` for a judge, `(i, k)` for
    /// candidates, every pair of a batch; empty otherwise.
    pub pairs: Vec<(usize, usize)>,
}

impl Request {
    /// A request of `kind` with no body.
    pub fn bare(kind: Kind) -> Self {
        Self {
            kind,
            body: String::new(),
            pairs: Vec::new(),
        }
    }

    /// The endpoint path.
    pub fn path(&self) -> &'static str {
        self.method_and_path().1
    }

    fn method_and_path(&self) -> (&'static str, &'static str) {
        match self.kind {
            Kind::Judge => ("POST", "/judge"),
            Kind::Batch => ("POST", "/judge_batch"),
            Kind::Candidates => ("POST", "/candidates"),
            Kind::Reload => ("POST", "/reload"),
            Kind::Health => ("GET", "/healthz"),
        }
    }
}

/// When requests are sent.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    /// Request `k` is due `due[k]` nanoseconds after the start, whatever
    /// happened to the requests before it.
    Open(&'a [u64]),
    /// Each connection sends its next request when the previous answer
    /// arrived, cycling through the list until the window ends.
    Closed(Duration),
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request kind.
    pub kind: Kind,
    /// Answer time minus due time.
    pub latency_ns: u64,
    /// Send time minus due time: how late the generator itself ran.
    pub late_ns: u64,
    /// 200 with a well-formed body.
    pub ok: bool,
}

/// Everything one drive produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per request sent, in no particular order.
    pub samples: Vec<Sample>,
    /// `(request index, response body)` of the answers kept for the
    /// output checks.
    pub bodies: Vec<(usize, String)>,
    /// Start of the window to the last answer.
    pub wall_s: f64,
}

impl Outcome {
    /// Latencies of the successful requests of `kind`, in milliseconds,
    /// ascending.
    pub fn latencies_ms(&self, kind: Kind) -> Vec<f64> {
        crate::stats::sorted(
            self.samples
                .iter()
                .filter(|s| s.kind == kind && s.ok)
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect(),
        )
    }

    /// Generator lateness of every request, in milliseconds, ascending.
    pub fn lateness_ms(&self) -> Vec<f64> {
        crate::stats::sorted(
            self.samples
                .iter()
                .map(|s| s.late_ns as f64 / 1e6)
                .collect(),
        )
    }

    /// Requests that did not come back 200 and well-formed.
    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }
}

/// Latency and generator lateness of one request. Latency runs from the
/// *due* time, not the send time: when a stall delays later requests,
/// the wait it imposed on them is part of what their users saw.
pub fn timing(due: Instant, sent: Instant, done: Instant) -> (u64, u64) {
    let ns = |d: Duration| d.as_nanos() as u64;
    (
        ns(done.saturating_duration_since(due)),
        ns(sent.saturating_duration_since(due)),
    )
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if let Some(sleep) = due
        .checked_duration_since(now)
        .and_then(|d| d.checked_sub(SPIN_BEFORE_DUE))
    {
        std::thread::sleep(sleep);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn well_formed(request: &Request, status: u16, body: &str) -> bool {
    // A batch answer must hold one judgement per pair asked.
    status == 200
        && (request.kind != Kind::Batch || body.matches("\"p_co\"").count() == request.pairs.len())
}

/// What the connections of one drive share.
struct Drive<'a> {
    addr: SocketAddr,
    requests: &'a [Request],
    pace: Pace<'a>,
    keep: usize,
    tracer: Option<&'a Mutex<Tracer>>,
    /// Next arrival (open loop) or list position (closed loop) to take.
    next: AtomicUsize,
    origin: Instant,
}

impl Drive<'_> {
    /// One keep-alive connection: takes the next request, waits until it
    /// is due, sends it, records what came back.
    fn connection(&self) -> Outcome {
        let mut client = HttpClient::new(self.addr);
        let mut outcome = Outcome::default();
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let due = match self.pace {
                Pace::Open(due) => match due.get(k) {
                    Some(&ns) => {
                        let at = self.origin + Duration::from_nanos(ns);
                        wait_until(at);
                        Some(at)
                    }
                    None => break,
                },
                Pace::Closed(window) => {
                    if self.origin.elapsed() >= window {
                        break;
                    }
                    None
                }
            };
            let index = k % self.requests.len();
            let request = &self.requests[index];
            let (method, path) = request.method_and_path();
            let body = (method == "POST").then_some(request.body.as_str());
            let sent = Instant::now();
            let answer = client.request(method, path, body);
            let done = Instant::now();
            let (latency_ns, late_ns) = timing(due.unwrap_or(sent), sent, done);
            let ok = match &answer {
                Ok(r) => well_formed(request, r.status, &r.body),
                Err(_) => false,
            };
            outcome.samples.push(Sample {
                kind: request.kind,
                latency_ns,
                late_ns,
                ok,
            });
            if let (true, Ok(r)) = (k < self.keep, answer) {
                outcome.bodies.push((index, r.body));
            }
            if let Some(tracer) = self.tracer {
                let mut tracer = tracer.lock().expect("tracer lock poisoned");
                tracer.record("loadgen.request", k as u64, sent, done);
            }
        }
        outcome
    }
}

/// Drives `requests` at `addr` over `connections` keep-alive
/// connections. The first `keep` answers (by request index) are kept
/// for output checks. With a tracer, every request leaves a client-side
/// span, which is how the tracing overhead is measured.
pub fn drive(
    addr: SocketAddr,
    requests: &[Request],
    pace: Pace<'_>,
    connections: usize,
    keep: usize,
    tracer: Option<&Mutex<Tracer>>,
) -> Outcome {
    assert!(!requests.is_empty(), "nothing to send");
    if let Pace::Open(due) = pace {
        assert_eq!(due.len(), requests.len(), "one due time per request");
    }
    let shared = Drive {
        addr,
        requests,
        pace,
        keep,
        tracer,
        next: AtomicUsize::new(0),
        origin: Instant::now(),
    };
    let per_connection: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| scope.spawn(|| shared.connection()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load connection panicked"))
            .collect()
    });
    let mut outcome = Outcome {
        wall_s: shared.origin.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for part in per_connection {
        outcome.samples.extend(part.samples);
        outcome.bodies.extend(part.bodies);
    }
    outcome.bodies.sort_by_key(|(index, _)| *index);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        // Due at 10 ms, but the connection was stuck until 13 ms; the
        // answer came at 15 ms. The user waited 5 ms, not 2.
        let (latency, late) = timing(at(10), at(13), at(15));
        assert_eq!(latency, 5_000_000);
        assert_eq!(late, 3_000_000);
        // On time: lateness is zero and latency is the service time.
        let (latency, late) = timing(at(10), at(10), at(12));
        assert_eq!(latency, 2_000_000);
        assert_eq!(late, 0);
    }

    #[test]
    fn batch_answers_must_hold_every_judgement() {
        let batch = Request {
            kind: Kind::Batch,
            body: String::new(),
            pairs: vec![(0, 1), (2, 3)],
        };
        let two = r#"{"judgements":[{"i":0,"j":1,"p_co":0.5,"co_located":false},{"i":2,"j":3,"p_co":0.7,"co_located":true}]}"#;
        assert!(well_formed(&batch, 200, two));
        assert!(!well_formed(&batch, 200, r#"{"judgements":[]}"#));
        assert!(!well_formed(&batch, 503, two));
    }
}
