//! End-to-end CLI tests driving the compiled `hisrect` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hisrect"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hisrect-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_lists_commands() {
    let out = run(&["help"]);
    assert!(out.status.success());
    for cmd in ["simulate", "train", "judge", "infer", "cluster", "stats"] {
        assert!(stdout(&out).contains(cmd), "help must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_with_hint() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn unknown_and_removed_flags_are_rejected_by_name() {
    let dir = tmpdir("unknown-flags");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let cases: [&[&str]; 4] = [
        &["simulate", "--out", corpus_s, "--watchdog-stall-ms", "5"],
        &[
            "serve",
            "--corpus",
            corpus_s,
            "--model",
            corpus_s,
            "--batch-deadline-ms",
            "2",
        ],
        &[
            "serve",
            "--corpus",
            corpus_s,
            "--model",
            corpus_s,
            "--admission-watermark",
            "64",
        ],
        &["stats", "--corpus", corpus_s, "--top-k", "3"],
    ];
    for argv in cases {
        let out = run(argv);
        assert!(!out.status.success(), "{argv:?} must fail");
        let flag = argv[argv.len() - 2];
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{argv:?}: {}",
            stderr(&out)
        );
    }
    // Rejected before any work: simulate wrote nothing.
    assert!(!corpus.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_flags_are_reported() {
    let out = run(&["simulate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out"));
}

#[test]
fn full_pipeline_simulate_train_judge_infer_cluster() {
    let dir = tmpdir("pipeline");
    let corpus = dir.join("corpus.json");
    let model = dir.join("model.json");
    let corpus_s = corpus.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    // simulate
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "3", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));
    assert!(corpus.exists());

    // stats
    let out = run(&["stats", "--corpus", corpus_s]);
    assert!(out.status.success(), "stats: {}", stderr(&out));
    assert!(stdout(&out).contains("train_labeled_profiles"));

    // train (budget trimmed to keep the test fast)
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        model_s,
        "--seed",
        "3",
        "--iters",
        "200",
        "--judge-iters",
        "200",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));
    assert!(model.exists());

    // judge
    let out = run(&[
        "judge", "--corpus", corpus_s, "--model", model_s, "--seed", "3",
    ]);
    assert!(out.status.success(), "judge: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("Acc") && text.contains("F1"), "got: {text}");

    // infer
    let out = run(&[
        "infer", "--corpus", corpus_s, "--model", model_s, "--top-k", "3", "--seed", "3",
    ]);
    assert!(out.status.success(), "infer: {}", stderr(&out));
    assert!(stdout(&out).contains("Acc@1"));

    // cluster
    let out = run(&[
        "cluster",
        "--corpus",
        corpus_s,
        "--model",
        model_s,
        "--group-size",
        "3",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "cluster: {}", stderr(&out));
    assert!(stdout(&out).contains("pattern:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_out_writes_report_and_model_is_byte_identical() {
    let dir = tmpdir("metrics");
    let corpus = dir.join("corpus.json");
    let plain_model = dir.join("model-plain.json");
    let metered_model = dir.join("model-metered.json");
    let metrics = dir.join("results").join("metrics.json");
    let corpus_s = corpus.to_str().unwrap();

    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "9", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));

    let train = |model: &str, extra: &[&str]| {
        let mut args = vec![
            "train",
            "--corpus",
            corpus_s,
            "--out",
            model,
            "--seed",
            "9",
            "--iters",
            "40",
            "--judge-iters",
            "40",
        ];
        args.extend_from_slice(extra);
        run(&args)
    };
    let out = train(plain_model.to_str().unwrap(), &[]);
    assert!(out.status.success(), "plain train: {}", stderr(&out));
    let out = train(
        metered_model.to_str().unwrap(),
        &["--metrics-out", metrics.to_str().unwrap()],
    );
    assert!(out.status.success(), "metered train: {}", stderr(&out));
    assert!(stderr(&out).contains("metrics written to"));

    // Instrumentation must never touch the RNG or the numerics: the model
    // written with metrics on is byte-for-byte the plain one.
    let plain = std::fs::read(&plain_model).unwrap();
    let metered = std::fs::read(&metered_model).unwrap();
    assert_eq!(plain, metered, "metrics changed the trained model bytes");

    // The report carries phase wall times, the loss series and the
    // judge-latency histogram.
    let text = std::fs::read_to_string(&metrics).unwrap();
    for key in [
        "\"train/featurizer_phase\"",
        "\"train/judge_phase\"",
        "\"ssl/l_poi\"",
        "\"judge/l_co\"",
        "\"judge/pair_latency_ns\"",
        "\"tensor/matmul_serial\"",
    ] {
        assert!(text.contains(key), "metrics.json missing {key}:\n{text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn log_level_emits_phase_messages() {
    let dir = tmpdir("loglevel");
    let corpus = dir.join("corpus.json");
    let model = dir.join("model.json");
    let corpus_s = corpus.to_str().unwrap();

    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "4", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        model.to_str().unwrap(),
        "--seed",
        "4",
        "--iters",
        "20",
        "--judge-iters",
        "20",
        "--log-level",
        "info",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("[info]"), "expected [info] lines, got: {err}");
    assert!(err.contains("skip-gram"), "got: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_log_level_is_rejected() {
    let out = run(&["stats", "--corpus", "/dev/null", "--log-level", "loud"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown log level"));
}

#[test]
fn train_rejects_unknown_approach() {
    let dir = tmpdir("badapproach");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "1", "--out", corpus_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        "/dev/null",
        "--approach",
        "nonsense",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown approach"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_corpus_files_fail_with_typed_diagnostics() {
    let dir = tmpdir("badcorpus");
    let garbled = dir.join("garbled.json");
    let deschemad = dir.join("deschemad.json");
    std::fs::write(&garbled, "{\"pois\": [trailing garbage").unwrap();
    // Valid JSON, wrong shape for a corpus.
    std::fs::write(&deschemad, "{\"pois\": 42}").unwrap();

    let out = run(&["stats", "--corpus", garbled.to_str().unwrap()]);
    assert!(!out.status.success(), "garbled corpus must fail");
    assert!(
        stderr(&out).contains("not valid JSON"),
        "got: {}",
        stderr(&out)
    );

    let out = run(&["stats", "--corpus", deschemad.to_str().unwrap()]);
    assert!(!out.status.success(), "de-schemad corpus must fail");
    assert!(
        stderr(&out).contains("schema violation"),
        "got: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_model_file_fails_with_parse_diagnostic() {
    let dir = tmpdir("badmodel");
    let corpus = dir.join("corpus.json");
    let model = dir.join("model.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "1", "--out", corpus_s,
    ]);
    assert!(out.status.success());
    // A half-written model file: cut a plausible JSON document mid-stream.
    std::fs::write(&model, "{\"config\": {\"word_dim\": 16}, \"params\": [").unwrap();
    let out = run(&[
        "judge",
        "--corpus",
        corpus_s,
        "--model",
        model.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "truncated model must fail");
    assert!(
        stderr(&out).contains("not valid JSON"),
        "got: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_fault_spec_is_rejected_before_running() {
    let out = run(&["stats", "--corpus", "/dev/null", "--faults", "meteor@7"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("bad fault spec"), "{}", stderr(&out));
}

#[test]
fn resume_without_checkpoint_dir_is_rejected() {
    let dir = tmpdir("resumenodir");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "1", "--out", corpus_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        "/dev/null",
        "--resume",
        "true",
    ]);
    assert!(!out.status.success());
    assert!(
        stderr(&out).contains("--resume needs --checkpoint-dir"),
        "got: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end crash/resume through the binary: an injected crash fault
/// interrupts training with a non-zero exit and a resume hint, and the
/// resumed run writes a model byte-identical to an uninterrupted one.
#[test]
fn injected_crash_then_resume_reproduces_the_uninterrupted_model() {
    let dir = tmpdir("crashresume");
    let corpus = dir.join("corpus.json");
    let clean_model = dir.join("model-clean.json");
    let resumed_model = dir.join("model-resumed.json");
    let ckpt_dir = dir.join("ckpts");
    let corpus_s = corpus.to_str().unwrap();

    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "6", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));

    let train = |model: &str, extra: &[&str]| {
        let mut args = vec![
            "train",
            "--corpus",
            corpus_s,
            "--out",
            model,
            "--seed",
            "6",
            "--iters",
            "60",
            "--judge-iters",
            "60",
        ];
        args.extend_from_slice(extra);
        run(&args)
    };

    let out = train(clean_model.to_str().unwrap(), &[]);
    assert!(out.status.success(), "clean train: {}", stderr(&out));

    // Crash at featurizer iteration 37, past the checkpoints at 10..30.
    let ckpt_s = ckpt_dir.to_str().unwrap();
    let out = train(
        resumed_model.to_str().unwrap(),
        &[
            "--checkpoint-dir",
            ckpt_s,
            "--checkpoint-every",
            "10",
            "--faults",
            "crash@38",
        ],
    );
    assert!(!out.status.success(), "crashed run must exit non-zero");
    let err = stderr(&out);
    assert!(
        err.contains("interrupted") && err.contains("--resume"),
        "diagnostic must point at --resume, got: {err}"
    );
    assert!(!resumed_model.exists(), "no model written on interrupt");

    let out = train(
        resumed_model.to_str().unwrap(),
        &[
            "--checkpoint-dir",
            ckpt_s,
            "--checkpoint-every",
            "10",
            "--resume",
            "true",
        ],
    );
    assert!(out.status.success(), "resume: {}", stderr(&out));
    let clean = std::fs::read(&clean_model).unwrap();
    let resumed = std::fs::read(&resumed_model).unwrap();
    assert_eq!(clean, resumed, "resumed model must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

/// The HISRECT_FAULTS environment variable arms the same registry as
/// --faults (this is how the CI chaos job drives the binary).
#[test]
fn env_var_arms_fault_injection() {
    let dir = tmpdir("envfaults");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "2", "--out", corpus_s,
    ]);
    assert!(out.status.success());
    let out = bin()
        .args([
            "train",
            "--corpus",
            corpus_s,
            "--out",
            "/dev/null",
            "--iters",
            "30",
            "--judge-iters",
            "30",
        ])
        .env("HISRECT_FAULTS", "crash@5")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "env-armed crash must interrupt");
    let err = stderr(&out);
    assert!(
        err.contains("fault injection armed") && err.contains("interrupted"),
        "got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn judge_with_missing_model_file_fails_cleanly() {
    let dir = tmpdir("nomodel");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "1", "--out", corpus_s,
    ]);
    assert!(out.status.success());
    let out = run(&[
        "judge",
        "--corpus",
        corpus_s,
        "--model",
        "/nonexistent.json",
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("nonexistent"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: `serve` error paths exit non-zero with a one-line
/// diagnostic — missing model, garbled model, missing corpus.
#[test]
fn serve_with_missing_or_garbled_model_exits_cleanly() {
    let dir = tmpdir("servebadmodel");
    let corpus = dir.join("corpus.json");
    let corpus_s = corpus.to_str().unwrap();
    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "1", "--out", corpus_s,
    ]);
    assert!(out.status.success());

    // Missing model file.
    let out = run(&[
        "serve",
        "--corpus",
        corpus_s,
        "--model",
        "/nonexistent-model.json",
        "--addr",
        "127.0.0.1:0",
    ]);
    assert!(!out.status.success(), "missing model must exit non-zero");
    let err = stderr(&out);
    assert_eq!(
        err.lines().count(),
        1,
        "diagnostic must be one line, got: {err}"
    );
    assert!(err.starts_with("error:"), "got: {err}");
    assert!(err.contains("nonexistent-model"), "got: {err}");

    // Garbled model file.
    let model = dir.join("garbled-model.json");
    std::fs::write(&model, "{\"config\": {\"word_dim\": 16}, \"params\": [").unwrap();
    let out = run(&[
        "serve",
        "--corpus",
        corpus_s,
        "--model",
        model.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    assert!(!out.status.success(), "garbled model must exit non-zero");
    let err = stderr(&out);
    assert_eq!(err.lines().count(), 1, "got: {err}");
    assert!(err.contains("not valid JSON"), "got: {err}");

    // Missing corpus flag.
    let out = run(&["serve", "--model", model.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--corpus"), "got: {}", stderr(&out));

    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: a served `/judge` response is byte-identical to the
/// offline `judge --pair` output for the same pair and model — with the
/// feature cache cold (first query) and warm (repeat query).
#[test]
fn served_judgement_is_byte_identical_to_cli_judge_pair() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    let dir = tmpdir("servee2e");
    let corpus = dir.join("corpus.json");
    let model = dir.join("model.json");
    let corpus_s = corpus.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "11", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        model_s,
        "--seed",
        "11",
        "--iters",
        "40",
        "--judge-iters",
        "40",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));

    // Offline references via the CLI's canonical single-pair output.
    let pairs = [(0usize, 1usize), (2, 3)];
    let mut offline = Vec::new();
    for (i, j) in pairs {
        let out = run(&[
            "judge",
            "--corpus",
            corpus_s,
            "--model",
            model_s,
            "--pair",
            &format!("{i},{j}"),
        ]);
        assert!(out.status.success(), "judge --pair: {}", stderr(&out));
        let line = stdout(&out).trim_end().to_string();
        assert!(
            line.starts_with('{') && line.contains("\"p_co\":"),
            "{line}"
        );
        offline.push(line);
    }

    // Spawn the server on an ephemeral port and read the announced addr.
    let mut child = bin()
        .args([
            "serve",
            "--corpus",
            corpus_s,
            "--model",
            model_s,
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {line}"))
        .to_string();

    let request = |i: usize, j: usize| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect to server");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        let raw = format!(
            "POST /judge HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 200 OK\r\n"),
            "bad response: {response}"
        );
        let (_, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a body");
        body.to_string()
    };

    for (k, &(i, j)) in pairs.iter().enumerate() {
        let cold = request(i, j);
        assert_eq!(cold, offline[k], "cold-cache served bytes differ from CLI");
        let warm = request(i, j);
        assert_eq!(warm, offline[k], "warm-cache served bytes differ from CLI");
    }

    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Acceptance: the int8 path is one path — a server started with
/// `--precision int8` answers `/judge` with exactly the bytes of
/// `judge --pair --precision int8`, and rejects a garbled precision.
#[test]
fn served_int8_judgement_is_byte_identical_to_cli_judge_pair() {
    use std::io::{BufRead, BufReader, Read as _, Write as _};

    let dir = tmpdir("serveint8");
    let corpus = dir.join("corpus.json");
    let model = dir.join("model.json");
    let corpus_s = corpus.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let out = run(&[
        "simulate", "--preset", "tiny", "--seed", "13", "--out", corpus_s,
    ]);
    assert!(out.status.success(), "simulate: {}", stderr(&out));
    let out = run(&[
        "train",
        "--corpus",
        corpus_s,
        "--out",
        model_s,
        "--seed",
        "13",
        "--iters",
        "40",
        "--judge-iters",
        "40",
    ]);
    assert!(out.status.success(), "train: {}", stderr(&out));

    // A bad precision fails fast, before any model work.
    let out = run(&[
        "judge",
        "--corpus",
        corpus_s,
        "--model",
        model_s,
        "--pair",
        "0,1",
        "--precision",
        "fp16",
    ]);
    assert!(!out.status.success(), "bad precision must be rejected");
    assert!(
        stderr(&out).contains("--precision"),
        "diagnostic names the flag: {}",
        stderr(&out)
    );

    // Offline int8 references via the CLI's canonical single-pair output.
    let pairs = [(0usize, 1usize), (2, 3)];
    let mut offline = Vec::new();
    for (i, j) in pairs {
        let out = run(&[
            "judge",
            "--corpus",
            corpus_s,
            "--model",
            model_s,
            "--pair",
            &format!("{i},{j}"),
            "--precision",
            "int8",
        ]);
        assert!(out.status.success(), "judge --pair int8: {}", stderr(&out));
        let line = stdout(&out).trim_end().to_string();
        assert!(
            line.starts_with('{') && line.contains("\"p_co\":"),
            "{line}"
        );
        offline.push(line);
    }

    let mut child = bin()
        .args([
            "serve",
            "--corpus",
            corpus_s,
            "--model",
            model_s,
            "--addr",
            "127.0.0.1:0",
            "--precision",
            "int8",
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut line = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut line)
        .expect("read listen line");
    let addr = line
        .trim()
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected announce line: {line}"))
        .to_string();

    let request = |method: &str, path: &str, body: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect to server");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(
            response.starts_with("HTTP/1.1 200 OK\r\n"),
            "bad response: {response}"
        );
        let (_, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a body");
        body.to_string()
    };

    let health = request("GET", "/healthz", "");
    assert!(
        health.contains("\"precision\":\"int8\""),
        "healthz must advertise int8: {health}"
    );

    for (k, &(i, j)) in pairs.iter().enumerate() {
        let body = format!("{{\"i\":{i},\"j\":{j}}}");
        let cold = request("POST", "/judge", &body);
        assert_eq!(cold, offline[k], "cold-cache int8 bytes differ from CLI");
        let warm = request("POST", "/judge", &body);
        assert_eq!(warm, offline[k], "warm-cache int8 bytes differ from CLI");
    }

    child.kill().ok();
    child.wait().ok();
    std::fs::remove_dir_all(&dir).ok();
}
