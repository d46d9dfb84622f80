//! `hisrect` — command-line front end for the HisRect reproduction.
//!
//! ```text
//! hisrect simulate --preset nyc --seed 7 --out corpus.json
//! hisrect stats    --corpus corpus.json
//! hisrect train    --corpus corpus.json --approach hisrect --out model.json
//! hisrect judge    --corpus corpus.json --model model.json
//! hisrect candidates --corpus corpus.json --model model.json --profile 0 --top-k 10
//! hisrect infer    --corpus corpus.json --model model.json --top-k 5
//! hisrect cluster  --corpus corpus.json --model model.json --group-size 5
//! hisrect serve    --corpus corpus.json --model model.json --addr 127.0.0.1:7878
//! hisrect route    --shards 127.0.0.1:7878,127.0.0.1:7879 --addr 127.0.0.1:7900
//! hisrect ingest   --dir ingest-run --events 2000 --retrain-every 800 --serve-addr 127.0.0.1:7878
//! ```
//!
//! Argument parsing is hand-rolled (`clap` is outside the dependency set);
//! see [`args`] for the tiny flag grammar.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
hisrect — co-location judgement from historical visits and recent tweets

USAGE:
    hisrect <COMMAND> [FLAGS]

COMMANDS:
    simulate   Generate a synthetic corpus            (--preset nyc|lv|tiny --seed N --out FILE [--social RATE])
    stats      Print Table-2-style corpus statistics  (--corpus FILE [--seed N])
    train      Train an approach on a corpus          (--corpus FILE --out FILE [--approach NAME] [--seed N] [--iters N] [--judge-iters N] [--early-stop true]
                                                       [--checkpoint-dir DIR] [--checkpoint-every N] [--resume true])
    judge      Evaluate co-location on the test split (--corpus FILE --model FILE [--seed N] [--pair I,J] [--precision f32|int8])
    candidates Top-k likely co-located users          (--corpus FILE --model FILE --profile I [--top-k K] [--seed N]
                                                       [--precision f32|int8])
    infer      POI inference Acc@K on the test split  (--corpus FILE --model FILE [--top-k K] [--seed N])
    cluster    Cluster concurrent test profiles       (--corpus FILE --model FILE [--group-size N] [--seed N])
    serve      Online co-location inference server    (--corpus FILE --model FILE [--addr HOST:PORT] [--workers N]
                                                       [--cache-capacity N] [--batch-size N]
                                                       [--queue-depth N] [--precision f32|int8]
                                                       [--default-deadline-ms MS] [--admission-rate R]
                                                       [--admission-burst N]
                                                       [--breaker-failures N] [--breaker-cooldown-ms MS]
                                                       [--breaker-latency-budget-ms MS]
                                                       [--read-timeout-ms MS])
    route      Consistent-hash router over shards    (--shards HOST:PORT,HOST:PORT,... [--addr HOST:PORT]
                                                       [--workers N] [--queue-depth N] [--vnodes N]
                                                       [--health-interval-ms MS] [--fail-threshold N]
                                                       [--upstream-timeout-ms MS] [--read-timeout-ms MS])
    ingest     Closed streaming train→serve loop     (--dir DIR [--preset nyc|lv|tiny] [--seed N] [--events N]
                                                       [--retrain-every N] [--window-secs S] [--gap-slack N]
                                                       [--drift-every-days D] [--serve-addr HOST:PORT]
                                                       [--iters N] [--judge-iters N]
                                                       [--warm-start true|false])
    help       Show this message

GLOBAL FLAGS:
    --threads N          Worker threads for parallel kernels (default: all
                         cores, or the HISRECT_THREADS environment variable)
    --metrics-out FILE   Collect spans/counters/histograms during the run
                         and write them as JSON (e.g. results/metrics.json)
    --log-level LEVEL    Diagnostic verbosity on stderr: off|info|debug|trace
                         (default: off)
    --faults SPEC        Deterministic fault injection for chaos testing:
                         comma-separated `kind@n` entries (kinds: torn-write,
                         bit-flip, corrupt-json, nan-grad, worker-panic,
                         crash, and the stream faults reorder, gap, dup),
                         firing on the n-th opportunity. Also read
                         from the HISRECT_FAULTS environment variable.

CHECKPOINTING (train):
    --checkpoint-dir DIR   Write atomic, checksummed training snapshots into
                           DIR every --checkpoint-every iterations (default
                           100). With --resume true, training restores the
                           latest valid snapshot per phase and continues
                           bit-identically to an uninterrupted run.

APPROACHES (for train --approach):
    hisrect (default), hisrect-sl, one-phase, history-only, tweet-only,
    one-hot, blstm, convlstm
";

/// Flags every command accepts.
const GLOBAL_FLAGS: &str = "threads metrics-out log-level faults";

/// The flags each command reads besides [`GLOBAL_FLAGS`]. Any other flag
/// is an error, so a typo or a removed option is not silently ignored.
const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("simulate", "preset seed out social"),
    ("stats", "corpus seed"),
    (
        "train",
        "corpus seed out approach iters judge-iters early-stop \
         checkpoint-dir checkpoint-every resume",
    ),
    ("judge", "corpus seed model precision pair"),
    ("candidates", "corpus seed model precision profile top-k"),
    ("infer", "corpus seed model top-k"),
    ("cluster", "corpus seed model group-size"),
    (
        "serve",
        "corpus seed model addr workers cache-capacity batch-size queue-depth \
         read-timeout-ms precision default-deadline-ms admission-rate admission-burst \
         breaker-failures breaker-cooldown-ms breaker-latency-budget-ms",
    ),
    (
        "route",
        "shards addr workers queue-depth read-timeout-ms vnodes health-interval-ms \
         fail-threshold upstream-timeout-ms",
    ),
    (
        "ingest",
        "dir preset seed events retrain-every drift-every-days window-secs gap-slack \
         serve-addr warm-start iters judge-iters",
    ),
    ("help", ""),
    ("--help", ""),
    ("-h", ""),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match args::parse_flags(&argv[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // An unknown command is reported by the dispatch below.
    if let Some((_, known)) = COMMAND_FLAGS.iter().find(|(c, _)| *c == command.as_str()) {
        if let Err(e) = flags.check_known(command, &format!("{GLOBAL_FLAGS} {known}")) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match flags.parse_or("threads", 0usize) {
        Ok(0) => {} // keep HISRECT_THREADS / core-count default
        Ok(n) => parallel::set_threads(n),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(spec) = flags.get("log-level") {
        match spec.parse::<obs::Level>() {
            Ok(level) => obs::set_level(level),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics_out = flags.get("metrics-out").map(std::path::PathBuf::from);
    if metrics_out.is_some() {
        obs::set_enabled(true);
    }
    // Fault injection is opt-in: the --faults flag wins, the HISRECT_FAULTS
    // environment variable is the fallback (how the CI chaos job drives it).
    let fault_spec = flags
        .get("faults")
        .map(str::to_string)
        .or_else(|| std::env::var("HISRECT_FAULTS").ok());
    if let Some(spec) = fault_spec {
        if let Err(e) = faultsim::configure_str(&spec) {
            eprintln!("error: bad fault spec `{spec}`: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("fault injection armed: {spec}");
    }
    let result = match command.as_str() {
        "simulate" => commands::simulate(&flags),
        "stats" => commands::stats(&flags),
        "train" => commands::train(&flags),
        "judge" => commands::judge(&flags),
        "candidates" => commands::candidates(&flags),
        "infer" => commands::infer(&flags),
        "cluster" => commands::cluster(&flags),
        "serve" => commands::serve_cmd(&flags),
        "route" => commands::route_cmd(&flags),
        "ingest" => commands::ingest_cmd(&flags),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; run `hisrect help`")),
    };
    if result.is_ok() {
        if let Some(path) = &metrics_out {
            if let Err(e) = obs::report::write_snapshot(path) {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("metrics written to {}", path.display());
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
