//! Metric records, the machine fingerprint, `result.json`, and the one
//! JSON line the benchmark contract reads from the end of stdout.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The end-to-end metrics of `BENCHMARK.json`: every workload reports
/// every one of them, and none is ever zero. What `op` and `work` mean
/// per workload is fixed in `workloads.rs` and tabulated in the README.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("work_per_s", "1/s")];

/// The per-layer metrics of `BENCHMARK.json`, printed by the traced run.
/// A value of 0 means the layer is not on that workload's path.
pub const PER_LAYER: [(&str, &str); 62] = [
    // The issue's per-workload end-to-end names: each exists on some
    // workloads only, so the contract cannot gate them.
    ("judge_p50_ms", "ms"),
    ("batch_pairs_per_s", "pairs/s"),
    ("batch_p50_ms", "ms"),
    ("cand_p50_ms", "ms"),
    ("reload_mean_ms", "ms"),
    ("train_wall_s", "s"),
    ("test_f1", "ratio"),
    ("error_share", "ratio"),
    // Demoted from end to end: it follows the seed's corpus size, which
    // spreads it 8-13 % across seeds at identical code.
    ("peak_rss_mb", "MB"),
    // Generator health and tails.
    ("loadgen.judge_p90_ms", "ms"),
    ("loadgen.judge_p99_ms", "ms"),
    ("loadgen.batch_p99_ms", "ms"),
    ("loadgen.cand_p99_ms", "ms"),
    ("loadgen.late_p50_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.failed", "count"),
    // Serve layers.
    ("serve.event_loop.healthz_rtt_us", "us"),
    ("serve.http.parse_us", "us"),
    ("serve.http.serialize_us", "us"),
    ("serve.batcher.wait_ms", "ms"),
    ("serve.batcher.mean_batch_size", "count"),
    ("serve.cache.hit_ns", "ns"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.router.hop_us", "us"),
    ("serve.registry.reload_ms", "ms"),
    ("serve.judge.unattributed_us", "us"),
    // Model, features, judge.
    ("core.model.load_json_ms", "ms"),
    ("core.candidates.build_ms", "ms"),
    ("core.candidates.query_us", "us"),
    ("core.service.features_for_us", "us"),
    ("core.fv.fv_feature_us", "us"),
    ("core.featurizer.features_us", "us"),
    ("core.service.judge_features_ns_f32", "ns"),
    ("core.service.judge_features_ns_int8", "ns"),
    ("core.service.judge_batch32_us_f32", "us"),
    ("core.service.judge_batch32_us_int8", "us"),
    // Retrieval.
    ("ann.build_ms", "ms"),
    ("ann.query_us", "us"),
    ("ann.exhaustive_us", "us"),
    ("ann.recall_at_10", "ratio"),
    // Training.
    ("text.skipgram.train_ms", "ms"),
    ("core.affinity.build_ms", "ms"),
    ("core.ssl.iter_ms", "ms"),
    ("core.featurizer.forward_batch_ms", "ms"),
    ("nn.tape.backward_ms", "ms"),
    ("nn.adam.step_us", "us"),
    ("core.judge.train_iter_us", "us"),
    ("tensor.matmul_24x96x96_ns", "ns"),
    ("tensor.matmul_calls_per_iter", "count"),
    ("tensor.pool.hit_ratio", "ratio"),
    // Metrics layer.
    ("obs.incr_ns", "ns"),
    ("obs.incr_contended_ns", "ns"),
    // Data and ingest.
    ("twitter-sim.generate_ms", "ms"),
    ("twitter-sim.corpus_load_s", "s"),
    ("twitter-sim.to_dataset_ms", "ms"),
    ("twitter-sim.stream.next_event_ns", "ns"),
    ("ingest.pipeline.offer_ns", "ns"),
    ("ingest.mirror.sync_us_per_profile", "us"),
    // The tracer itself.
    ("trace.overhead_pct", "%"),
    ("trace.replayed", "count"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Samples behind the value.
    pub n: u64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// The evidence.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Output checks; any failure makes the run incorrect.
    pub checks: Vec<Check>,
    /// Operations attempted / succeeded / failed.
    pub sent: u64,
    /// Operations answered correctly.
    pub ok: u64,
    /// Non-2xx answers plus transport errors.
    pub failed: u64,
    /// Reasons the numbers should not be compared (late generator, …).
    pub unresolved: Vec<String>,
}

impl WorkloadResult {
    /// An empty result for `workload`.
    pub fn new(workload: &str) -> Self {
        Self {
            workload: workload.into(),
            ..Self::default()
        }
    }

    /// Records a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &str, n: u64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
        });
    }

    /// Records an output check.
    pub fn check(&mut self, name: &str, pass: bool, detail: String) {
        self.checks.push(Check {
            name: name.into(),
            pass,
            detail,
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// True when every output check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.pass)
    }

    /// Prints every metric by name with its unit and sample count, then
    /// the checks.
    pub fn print(&self) {
        println!("== {} ==", self.workload);
        for m in &self.metrics {
            println!("{:<40} {:>16.6} {:<8} n={}", m.name, m.value, m.unit, m.n);
        }
        println!("sent={} ok={} failed={}", self.sent, self.ok, self.failed);
        for c in &self.checks {
            println!(
                "check {:<44} {} ({})",
                c.name,
                if c.pass { "PASS" } else { "FAIL" },
                c.detail
            );
        }
        for reason in &self.unresolved {
            println!("UNRESOLVED: {reason}");
        }
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding exactly `names` (a
    /// metric the workload has no value for reads 0).
    pub fn contract_line(&self, names: &[(&str, &str)]) -> String {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self.get(name).map_or(0.0, |m| m.value);
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::F64(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.sent.max(1))),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Obj(metrics)),
        ]);
        serde_json::to_string(&line).expect("values serialize")
    }
}

/// `hisbench/out`, beside this crate's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The repository root (parent of the crate directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("hisbench lives one level below the repository root")
        .to_path_buf()
}

fn first_line_of(cmd: &str, arg: &str) -> String {
    std::process::Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit `HEAD` points at, read from `.git` directly (the driver's
/// checkout is not a repository; there it reads `unknown`).
fn git_sha() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// Where the numbers were taken: without it two result files cannot be
/// told apart from two machines.
pub fn fingerprint(seed: u64, seconds: f64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("git_sha".into(), Value::Str(git_sha())),
        ("cpu_model".into(), Value::Str(cpu)),
        ("nproc".into(), Value::U64(nproc as u64)),
        ("simd_active".into(), Value::Bool(tensor::simd_active())),
        (
            "parallel_threads".into(),
            Value::U64(parallel::num_threads() as u64),
        ),
        (
            "rustc".into(),
            Value::Str(first_line_of("rustc", "--version")),
        ),
        ("seed".into(), Value::U64(seed)),
        ("seconds".into(), Value::F64(seconds)),
    ])
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Folds the repeats of one workload into the file schema: per metric
/// `{n, value, unit, values, spread}` with `value` the median over
/// repeats and `spread` their quartile distance as a share of it.
pub fn workload_json(repeats: &[WorkloadResult]) -> Value {
    let last = repeats.last().expect("at least one repeat");
    let metrics = last
        .metrics
        .iter()
        .map(|m| {
            let values: Vec<f64> = repeats
                .iter()
                .filter_map(|r| r.get(&m.name).map(|x| x.value))
                .collect();
            let mut fields = vec![
                ("n".to_string(), Value::U64(m.n)),
                ("value".to_string(), Value::F64(stats::median(&values))),
                ("unit".to_string(), Value::Str(m.unit.clone())),
                (
                    "values".to_string(),
                    Value::Arr(values.iter().map(|&v| Value::F64(v)).collect()),
                ),
            ];
            if let Some(spread) = stats::quartile_spread(&values) {
                fields.push(("spread".to_string(), Value::F64(spread)));
            }
            (m.name.clone(), Value::Obj(fields))
        })
        .collect();
    let sum = |f: fn(&WorkloadResult) -> u64| Value::U64(repeats.iter().map(f).sum());
    Value::Obj(vec![
        ("sent".into(), sum(|r| r.sent)),
        ("ok".into(), sum(|r| r.ok)),
        ("failed".into(), sum(|r| r.failed)),
        (
            "correct".into(),
            Value::Bool(repeats.iter().all(WorkloadResult::correct)),
        ),
        (
            "checks".into(),
            Value::Arr(
                last.checks
                    .iter()
                    .map(|c| {
                        Value::Obj(vec![
                            ("name".into(), Value::Str(c.name.clone())),
                            ("pass".into(), Value::Bool(c.pass)),
                            ("detail".into(), Value::Str(c.detail.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "unresolved".into(),
            Value::Arr(
                repeats
                    .iter()
                    .flat_map(|r| r.unresolved.iter().cloned())
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("metrics".into(), Value::Obj(metrics)),
    ])
}

/// Writes `{fingerprint, workloads}` to `path`.
pub fn write_result(
    path: &Path,
    fingerprint: Value,
    workloads: &BTreeMap<String, Vec<WorkloadResult>>,
) -> std::io::Result<()> {
    let doc = Value::Obj(vec![
        ("fingerprint".into(), fingerprint),
        (
            "workloads".into(),
            Value::Obj(
                workloads
                    .iter()
                    .map(|(name, repeats)| (name.clone(), workload_json(repeats)))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("values serialize"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a list of metrics")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_owned(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_owned(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_program_prints() {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).unwrap();
        let doc: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(names_of(doc.get("end_to_end").unwrap()), owned(&END_TO_END));
        assert_eq!(names_of(doc.get("per_layer").unwrap()), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let mut r = WorkloadResult::new("w");
        r.sent = 10;
        r.ok = 10;
        r.push("setup_s", 0.5, "s", 3);
        r.push("extra", 1.0, "ms", 1);
        let line: Value = serde_json::from_str(&r.contract_line(&END_TO_END)).unwrap();
        let Value::Obj(fields) = &line else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Value::as_f64), Some(0.5));
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = WorkloadResult::new("w");
        r.check("bodies match", false, "1 of 64 differ".into());
        assert!(!r.correct());
    }
}
