//! The shared gate harness against canned servers: no model, no sleeps.

use bench::gate::{self, FetchError, Load, Stop, Verdict};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const OK: &str = "HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}";
const SHED: &str = "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\n\r\n";
const RETRY_NOW: &str =
    "HTTP/1.1 503 Service Unavailable\r\nretry-after: 0\r\ncontent-length: 0\r\n\r\n";
const DEGRADED: &str =
    "HTTP/1.1 200 OK\r\nx-hisrect-degraded: stale\r\ncontent-length: 2\r\n\r\n{}";

/// Serves up to `conns` connections one after another, answering the
/// `n`-th request (counted across connections) with `script(n)`. When the
/// script returns `None` it stops listening, then drops the connection
/// unanswered. Joins to the requests it answered, head and body.
fn stub(
    conns: usize,
    script: impl Fn(usize) -> Option<&'static str> + Send + 'static,
) -> (SocketAddr, JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let server = std::thread::spawn(move || {
        let mut requests = Vec::new();
        for _ in 0..conns {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(&stream);
            while let Some(request) = read_request(&mut reader) {
                match script(requests.len()) {
                    Some(response) => (&stream).write_all(response.as_bytes()).expect("answer"),
                    None => {
                        drop(listener);
                        return requests;
                    }
                }
                requests.push(request);
            }
        }
        requests
    });
    (addr, server)
}

/// One request, head and body, or `None` once the client hung up.
fn read_request(reader: &mut impl BufRead) -> Option<String> {
    let mut request = String::new();
    let mut content_length = 0;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        if let Some(n) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = n.trim().parse().expect("content-length");
        }
        request.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0; content_length];
    reader.read_exact(&mut body).ok()?;
    request.push_str(std::str::from_utf8(&body).expect("utf-8 body"));
    Some(request)
}

/// The body of a request [`stub`] recorded.
fn body(request: &str) -> &str {
    request.rsplit("\r\n").next().expect("body")
}

fn statuses(run: &gate::Run) -> Vec<u16> {
    run.samples.iter().map(|s| s.status).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    assert_eq!(gate::percentile(&[], 0.5), 0.0);
    let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert_eq!(gate::percentile(&sorted, 0.0), 1.0);
    assert_eq!(gate::percentile(&sorted, 0.5), 3.0);
    assert_eq!(gate::percentile(&sorted, 0.99), 5.0);
    assert_eq!(gate::percentile(&sorted, 1.0), 5.0);
}

#[test]
fn counter_reads_metrics_counts_and_defaults_to_zero() {
    let metrics: serde::Value = serde_json::from_str(
        r#"{"counters": {"serve/cache_hit": 7, "serve/batches": "seven"}, "histograms": {}}"#,
    )
    .expect("metrics json");
    assert_eq!(gate::counter(&metrics, "serve/cache_hit"), 7);
    assert_eq!(gate::counter(&metrics, "serve/missing"), 0);
    assert_eq!(gate::counter(&metrics, "serve/batches"), 0, "wrong type");
    let flat: serde::Value = serde_json::from_str(r#"{"serve/cache_hit": 7}"#).expect("json");
    assert_eq!(
        gate::counter(&flat, "serve/cache_hit"),
        0,
        "no counters map"
    );
}

#[test]
fn verdict_keeps_failures_in_order_and_sets_the_exit_code() {
    let mut verdict = Verdict::new("test gate");
    verdict.equal("panics", 0, 0);
    verdict.at_least("rps", 10.0, 5.0);
    verdict.at_most("p99 ms", 2.0, 50.0);
    verdict.expect(true, "never recorded");
    assert!(verdict.failures().is_empty());
    assert_eq!(verdict.finish(), ExitCode::SUCCESS);

    let mut verdict = Verdict::new("test gate");
    verdict.equal("5xx", 3, 0);
    verdict.at_least("rps", 4.0, 5.0);
    verdict.expect(false, "breaker never opened");
    verdict.at_most("p99 ms", 60.0, 50.0);
    assert_eq!(
        verdict.failures(),
        [
            "5xx: 3, expected 0",
            "rps: 4 < 5",
            "breaker never opened",
            "p99 ms: 60 > 50"
        ]
    );
    assert_eq!(verdict.finish(), ExitCode::FAILURE);
}

#[test]
fn get_json_rejects_non_200_and_non_json() {
    let (addr, server) = stub(2, |n| [SHED, OK].get(n).copied());
    assert_eq!(
        gate::get_json(addr, "/healthz"),
        Err(FetchError::Status("/healthz".into(), 503))
    );
    assert!(gate::get_json(addr, "/metrics").is_ok_and(|v| v.get("counters").is_none()));
    server.join().expect("stub");
    let (addr, server) = stub(1, |n| {
        ["HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nnot"]
            .get(n)
            .copied()
    });
    assert!(matches!(
        gate::get_json(addr, "/healthz"),
        Err(FetchError::Body(..))
    ));
    server.join().expect("stub");
    assert!(matches!(
        gate::get_json(addr, "/healthz"),
        Err(FetchError::Transport(..))
    ));
}

#[test]
fn count_stop_classes_statuses_labels_and_dropped_connections() {
    let (addr, server) = stub(1, |n| [OK, SHED, DEGRADED].get(n).copied());
    let run = gate::drive(addr, &Load::new(1, Stop::Count(4), 12, 0xc105));
    assert_eq!(
        statuses(&run),
        [200, 503, 200, 599],
        "dropped connection is 599"
    );
    let degraded: Vec<bool> = run.samples.iter().map(|s| s.degraded).collect();
    assert_eq!(degraded, [false, false, true, false]);
    assert_eq!(
        (run.count(200..=200), run.count(500..=599), run.degraded()),
        (2, 2, 1)
    );
    assert_eq!(server.join().expect("stub").len(), 3);
}

#[test]
fn every_client_replays_its_salted_pair_sequence() {
    // Reference SplitMix64, so a change to the driver's pair draw shows
    // up as a different request sequence.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let (salt, pool, per_client) = (0x10ad_u64, 12, 3);
    let (addr, server) = stub(2, |_| Some(OK));
    let run = gate::drive(addr, &Load::new(2, Stop::Count(per_client), pool, salt));
    assert_eq!(statuses(&run), [200; 6]);
    let mut seen: Vec<String> = server
        .join()
        .expect("stub")
        .iter()
        .map(|r| body(r).to_string())
        .collect();
    seen.sort();
    let mut want = Vec::new();
    for c in 0..2u64 {
        let mut state = salt ^ (c << 32);
        for _ in 0..per_client {
            let i = splitmix(&mut state) as usize % pool;
            let mut j = splitmix(&mut state) as usize % pool;
            if j == i {
                j = (j + 1) % pool;
            }
            want.push(format!("{{\"i\":{i},\"j\":{j}}}"));
        }
    }
    want.sort();
    assert_eq!(seen, want);
}

#[test]
fn wall_stop_honours_both_the_request_floor_and_the_wall_time() {
    let (addr, server) = stub(1, |_| Some(OK));
    let floor = Stop::Wall {
        min: 3,
        wall: Duration::ZERO,
    };
    let run = gate::drive(addr, &Load::new(1, floor, 2, 1));
    assert_eq!(run.samples.len(), 3);
    server.join().expect("stub");

    let (addr, server) = stub(1, |_| Some(OK));
    let wall = Stop::Wall {
        min: 0,
        wall: Duration::from_millis(20),
    };
    let run = gate::drive(addr, &Load::new(1, wall, 2, 1));
    assert!(run.wall_s >= 0.02 && !run.samples.is_empty());
    assert_eq!(run.count(200..=200) as usize, run.samples.len());
    server.join().expect("stub");
}

#[test]
fn flag_stop_ends_after_the_answer_in_flight() {
    let stop = Arc::new(AtomicBool::new(false));
    let raise = Arc::clone(&stop);
    // The stub raises the flag before answering request 4, so the client
    // sees it right after that answer.
    let (addr, server) = stub(1, move |n| {
        if n == 4 {
            raise.store(true, Ordering::SeqCst);
        }
        Some(OK)
    });
    let run = gate::drive(addr, &Load::new(1, Stop::Flag(stop), 2, 1));
    assert_eq!(statuses(&run), [200; 5]);
    server.join().expect("stub");
}

#[test]
fn retry_policy_absorbs_a_shed_and_headers_reach_the_server() {
    let (addr, server) = stub(1, |n| [RETRY_NOW, OK].get(n).copied());
    let load = Load {
        headers: vec![("x-deadline-ms", "400".into())],
        retry: true,
        ..Load::new(1, Stop::Count(1), 2, 1)
    };
    let run = gate::drive(addr, &load);
    assert_eq!(statuses(&run), [200], "the 503 was retried, not recorded");
    let requests = server.join().expect("stub");
    assert_eq!(requests.len(), 2);
    assert!(requests
        .iter()
        .all(|r| r.contains("x-deadline-ms: 400\r\n")));
}
