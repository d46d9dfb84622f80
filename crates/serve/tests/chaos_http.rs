//! Chaos coverage for the request path: deterministic `faultsim` plans
//! drive misbehaving clients (slow reads, mid-body disconnects, oversized
//! bodies, malformed JSON) and an injected in-handler panic. The server
//! must answer with *typed* 4xx/5xx and keep serving — no worker ever
//! dies.

mod common;

use common::{start_server, test_pairs};
use faultsim::FaultKind;
use serve::client::read_response;
use serve::HttpClient;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

// The fault plan is process-global; chaos tests must not interleave.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A client that consults the armed fault plan to decide how to
/// misbehave on this request. Each fault is one clean exchange — nothing
/// is written after the server may have closed the socket, so the
/// response (when one is due) is always readable. Returns the status, or
/// `None` when the fault is to vanish without waiting for one.
fn chaotic_judge_request(addr: SocketAddr, i: usize, j: usize) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let body = format!("{{\"i\":{i},\"j\":{j}}}");
    let head = |len: usize| format!("POST /judge HTTP/1.1\r\ncontent-length: {len}\r\n\r\n");

    if faultsim::fires(FaultKind::MidBodyDisconnect) {
        stream.write_all(head(body.len()).as_bytes()).unwrap();
        stream
            .write_all(&body.as_bytes()[..body.len() / 2])
            .unwrap();
        return None; // hang up mid-body
    }
    if faultsim::fires(FaultKind::SlowClient) {
        // Send half the head, then stall; the server's read timeout
        // answers before the rest would ever arrive.
        let full = head(body.len());
        stream
            .write_all(&full.as_bytes()[..full.len() / 2])
            .unwrap();
        stream.flush().unwrap();
        return Some(read_response(&mut stream).expect("read 408").status);
    }
    if faultsim::fires(FaultKind::OversizedBody) {
        // The declared length alone is over the limit — the server
        // rejects before any body byte is sent.
        stream.write_all(head(64 * 1024 * 1024).as_bytes()).unwrap();
        return Some(read_response(&mut stream).expect("read 413").status);
    }
    let body = if faultsim::fires(FaultKind::MalformedJson) {
        "{\"i\": oops,,".to_string()
    } else {
        body
    };
    stream.write_all(head(body.len()).as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();
    Some(read_response(&mut stream).expect("read response").status)
}

fn assert_healthy(addr: SocketAddr) {
    let mut client = HttpClient::new(addr);
    let r = client.get("/healthz").unwrap();
    assert_eq!(r.status, 200, "server unhealthy after chaos: {}", r.body);
    let (i, j) = test_pairs(1)[0];
    let r = client
        .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
        .unwrap();
    assert_eq!(r.status, 200, "judge broken after chaos: {}", r.body);
}

#[test]
fn slow_client_gets_request_timeout() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.limits.read_timeout = Duration::from_millis(100);
    });
    faultsim::configure_str("slow-client@1").unwrap();
    let (i, j) = test_pairs(1)[0];
    assert_eq!(
        chaotic_judge_request(server.addr(), i, j),
        Some(408),
        "stalled request must get 408"
    );
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn mid_body_disconnect_never_kills_a_worker() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    faultsim::configure_str("disconnect@1").unwrap();
    let (i, j) = test_pairs(1)[0];
    assert_eq!(chaotic_judge_request(server.addr(), i, j), None);
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    faultsim::configure_str("oversize-body@1").unwrap();
    let (i, j) = test_pairs(1)[0];
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(413));
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn malformed_json_is_rejected_with_400() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    faultsim::configure_str("malformed-json@1").unwrap();
    let (i, j) = test_pairs(1)[0];
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(400));
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn combined_request_chaos_volley_keeps_the_server_alive() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|c| {
        c.limits.read_timeout = Duration::from_millis(100);
    });
    // One plan arming every request-path fault across successive
    // requests; the client consults the kinds in a fixed order
    // (disconnect, slow, oversize, malformed), so the sequence of typed
    // responses is fully deterministic.
    faultsim::configure_str("disconnect@2,slow-client@2,oversize-body@1,malformed-json@1").unwrap();
    let (i, j) = test_pairs(1)[0];
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(413));
    assert_eq!(chaotic_judge_request(server.addr(), i, j), None);
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(408));
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(400));
    assert_eq!(chaotic_judge_request(server.addr(), i, j), Some(200));
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn injected_cpu_burn_only_costs_latency() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    faultsim::arm(FaultKind::CpuBurn, 1);
    let (i, j) = test_pairs(1)[0];
    let body = format!("{{\"i\":{i},\"j\":{j}}}");
    let start = std::time::Instant::now();
    let r = client.post("/judge", &body).unwrap();
    assert_eq!(r.status, 200, "a burning worker still answers: {}", r.body);
    assert!(
        start.elapsed() >= Duration::from_millis(45),
        "the burn must actually cost latency"
    );
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn injected_slow_judge_answers_200_and_never_kills_the_flusher() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    faultsim::configure_str("slow-judge@1:100").unwrap();
    let (i, j) = test_pairs(1)[0];
    let body = format!("{{\"i\":{i},\"j\":{j}}}");
    let r = client.post("/judge", &body).unwrap();
    assert_eq!(r.status, 200, "slow flush still answers: {}", r.body);
    // The default 5s latency budget is untouched by a 100ms crawl, so
    // the breaker stays closed and the next request is learned.
    let r = client.post("/judge", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(r.header("x-hisrect-degraded"), None);
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}

#[test]
fn injected_worker_panic_answers_500_and_the_worker_survives() {
    let _g = lock();
    faultsim::clear();
    let server = start_server(|_| {});
    let mut client = HttpClient::new(server.addr());
    faultsim::arm(FaultKind::WorkerPanic, 1);
    let (i, j) = test_pairs(1)[0];
    let body = format!("{{\"i\":{i},\"j\":{j}}}");
    let r = client.post("/judge", &body).unwrap();
    assert_eq!(r.status, 500, "injected panic must answer 500: {}", r.body);
    assert!(r.body.contains("panicked"), "{}", r.body);
    // The same worker pool keeps serving.
    let r = client.post("/judge", &body).unwrap();
    assert_eq!(r.status, 200, "worker died after panic: {}", r.body);
    assert_healthy(server.addr());
    faultsim::clear();
    server.shutdown();
}
