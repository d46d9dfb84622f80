//! The server's thread inventory. One test in its own binary, so no
//! other test's threads come and go while it counts: the micro-batcher
//! runs on the compute workers, nothing supervises it, and no request
//! path spawns a thread.

mod common;

use common::{start_server, test_pairs};
use serve::HttpClient;

/// Names of this process's live threads, from `/proc/self/task/*/comm`.
/// The kernel keeps the first 15 bytes of a name.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn no_request_path_spawns_a_thread() {
    let server = start_server(|_| {});
    let before = thread_names();
    for banned in ["hisrect-batch", "hisrect-watch"] {
        assert!(
            !before.iter().any(|name| name.starts_with(banned)),
            "a {banned}* thread is running: {before:?}"
        );
    }

    let mut client = HttpClient::new(server.addr());
    let pairs = test_pairs(8);
    for k in 0..200 {
        let (i, j) = pairs[k % pairs.len()];
        let r = client
            .post("/judge", &format!("{{\"i\":{i},\"j\":{j}}}"))
            .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let batch: Vec<String> = pairs.iter().map(|(i, j)| format!("[{i},{j}]")).collect();
    let body = format!("{{\"pairs\":[{}]}}", batch.join(","));
    for _ in 0..20 {
        let r = client.post("/judge_batch", &body).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }

    let after = thread_names();
    assert_eq!(
        before.len(),
        after.len(),
        "threads before {before:?}, after {after:?}"
    );
    server.shutdown();
}
