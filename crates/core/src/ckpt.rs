//! Checkpoint/resume for the training phases.
//!
//! A checkpoint captures everything a phase needs to continue bit-for-bit:
//! the full [`ParamSnapshot`], every optimizer's [`AdamState`] (including a
//! backed-off learning rate), the raw RNG state, the loss traces recorded
//! so far, and the early-stopping best, if any. Files are written
//! atomically (temp file + fsync + rename) and carry a content checksum so
//! a torn write or a flipped bit is detected at load time and the loader
//! falls back to the previous snapshot.
//!
//! On-disk format (one file per snapshot, `{phase}-{iteration:08}.ckpt`):
//!
//! ```text
//! HISRECT-CKPT-V1 <fnv1a64-of-payload, 16 hex digits>\n
//! <payload: the TrainCheckpoint as JSON>
//! ```
//!
//! The header line keeps the checksum outside the checksummed bytes
//! without JSON-in-JSON escaping. Only the two most recent snapshots per
//! phase are kept.
//!
//! The framing, the atomic write and the newest-valid walk are
//! payload-agnostic ([`write_framed`], [`read_framed`], [`prune`],
//! [`newest_valid`]); the ingest loop's checkpoints (`crates/ingest`) are
//! a second typed shell over them.

use faultsim::FaultKind;
use nn::params::ParamSnapshot;
use nn::{Adam, AdamState, ParamStore};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic tag of the checkpoint header line.
const MAGIC: &str = "HISRECT-CKPT-V1";

/// Snapshots kept per phase; older ones are deleted on rotation.
const KEEP: usize = 2;

/// Where and how often training snapshots are written.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the `.ckpt` files live in (created on first save).
    pub dir: PathBuf,
    /// Iterations between snapshots (0 disables periodic saves; the final
    /// phase-complete snapshot is still written).
    pub every: usize,
    /// When true, each phase restores its latest valid snapshot before
    /// training and continues from there.
    pub resume: bool,
}

/// Why a checkpoint file could not be used.
#[derive(Debug)]
pub enum CkptError {
    /// Reading or writing the file failed.
    Io(std::io::Error),
    /// The file does not start with a valid `HISRECT-CKPT-V1` header.
    Format(String),
    /// The payload bytes do not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum the header promises.
        expected: u64,
        /// Checksum of the payload actually on disk.
        actual: u64,
    },
    /// The payload is not a valid `TrainCheckpoint` JSON document.
    Parse(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            Self::Format(d) => write!(f, "bad checkpoint header: {d}"),
            Self::ChecksumMismatch { expected, actual } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:016x}, payload hashes to {actual:016x}"
            ),
            Self::Parse(d) => write!(f, "checkpoint payload is not valid: {d}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// The early-stopping best tracked by the featurizer phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BestState {
    /// Best validation loss seen so far.
    pub loss: f32,
    /// Iteration it was measured at.
    pub iteration: usize,
    /// Parameter values at that iteration.
    pub params: ParamSnapshot,
}

/// Everything a training phase needs to continue bit-for-bit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Phase name ("featurizer" or "judge").
    pub phase: String,
    /// Next iteration to execute (== the phase budget when complete).
    pub iteration: usize,
    /// All parameter values.
    pub params: ParamSnapshot,
    /// Optimizer states, in the phase's optimizer order.
    pub adams: Vec<AdamState>,
    /// Raw xoshiro256++ state of the training RNG.
    pub rng: Vec<u64>,
    /// Per-iteration supervised losses recorded so far.
    pub poi_losses: Vec<f32>,
    /// Per-iteration unsupervised losses recorded so far.
    pub unsup_losses: Vec<f32>,
    /// Validation (iteration, loss) pairs recorded so far.
    pub valid_losses: Vec<(usize, f32)>,
    /// Iteration whose parameters were restored by early stopping.
    pub best_iteration: Option<usize>,
    /// Early-stopping best tracked so far.
    pub best: Option<BestState>,
}

/// 64-bit FNV-1a over `bytes` — the checkpoint content checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// File name of a snapshot.
fn file_name(phase: &str, iteration: usize) -> String {
    format!("{phase}-{iteration:08}.ckpt")
}

/// Atomically writes `ckpt` under `dir` and rotates old snapshots of the
/// same phase. Returns the final path.
pub fn save(dir: &Path, ckpt: &TrainCheckpoint) -> Result<PathBuf, CkptError> {
    let payload = serde_json::to_string(ckpt).map_err(|e| CkptError::Parse(e.to_string()))?;
    let path = write_framed(dir, &file_name(&ckpt.phase, ckpt.iteration), &payload)?;
    prune(dir, &format!("{}-", ckpt.phase))?;
    Ok(path)
}

/// Atomically writes `payload` under its checksum header to
/// `dir/file_name` (temp file + fsync + rename; `dir` is created if
/// missing). Returns the final path.
///
/// The `torn-write`, `bit-flip` and `corrupt-json` fault hooks corrupt the
/// bytes as a crashing writer or failing disk would; the file still lands
/// at its final path so [`newest_valid`] must detect and skip it.
pub fn write_framed(dir: &Path, file_name: &str, payload: &str) -> Result<PathBuf, CkptError> {
    fs::create_dir_all(dir)?;
    let mut bytes = format!("{MAGIC} {:016x}\n{payload}", fnv1a64(payload.as_bytes())).into_bytes();
    if faultsim::fires(FaultKind::BitFlip) {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
    }
    if faultsim::fires(FaultKind::CorruptJson) {
        let keep = bytes.len().min(MAGIC.len() + 18);
        bytes.truncate(keep);
        bytes.extend_from_slice(b"{\"phase\": not json");
    }
    if faultsim::fires(FaultKind::TornWrite) {
        bytes.truncate(bytes.len() / 2);
    }
    let path = dir.join(file_name);
    let tmp = dir.join(format!(".{file_name}.tmp"));
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    obs::incr("ckpt/saved");
    Ok(path)
}

/// Deletes all but the newest two `{prefix}{seq}.ckpt` files.
pub fn prune(dir: &Path, prefix: &str) -> Result<(), CkptError> {
    for (_, path) in newest_first(dir, prefix)?.into_iter().skip(KEEP) {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// All `(seq, path)` files named `{prefix}{seq}.ckpt` under `dir`,
/// highest sequence number first.
fn newest_first(dir: &Path, prefix: &str) -> Result<Vec<(u64, PathBuf)>, CkptError> {
    let mut found = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let seq = name
            .to_str()
            .and_then(|n| n.strip_prefix(prefix)?.strip_suffix(".ckpt")?.parse().ok());
        if let Some(seq) = seq {
            found.push((seq, entry.path()));
        }
    }
    found.sort_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    Ok(found)
}

/// Reads one framed file and returns its payload once the header parses
/// and the payload hashes to the checksum it promises.
pub fn read_framed(path: &Path) -> Result<String, CkptError> {
    let bytes = fs::read(path)?;
    let text = String::from_utf8(bytes)
        .map_err(|_| CkptError::Format("checkpoint is not valid UTF-8".into()))?;
    let Some((header, payload)) = text.split_once('\n') else {
        return Err(CkptError::Format("missing header line".into()));
    };
    let Some((magic, sum)) = header.split_once(' ') else {
        return Err(CkptError::Format("header is not `MAGIC <checksum>`".into()));
    };
    if magic != MAGIC {
        return Err(CkptError::Format(format!("unknown magic `{magic}`")));
    }
    let expected = u64::from_str_radix(sum, 16)
        .map_err(|_| CkptError::Format(format!("bad checksum field `{sum}`")))?;
    let actual = fnv1a64(payload.as_bytes());
    if actual != expected {
        return Err(CkptError::ChecksumMismatch { expected, actual });
    }
    Ok(payload.to_owned())
}

/// Loads and verifies one checkpoint file.
pub fn load(path: &Path) -> Result<TrainCheckpoint, CkptError> {
    serde_json::from_str(&read_framed(path)?).map_err(|e| CkptError::Parse(e.to_string()))
}

/// The newest `{prefix}{seq}.ckpt` file under `dir` that `load` accepts,
/// with its sequence number and path. Corrupt files (torn writes, flipped
/// bits, garbage) are skipped — counted in the `ckpt/corrupt_skipped`
/// counter — so recovery falls back to the previous good file instead of
/// failing.
pub fn newest_valid<T>(
    dir: &Path,
    prefix: &str,
    load: impl Fn(&Path) -> Result<T, CkptError>,
) -> Option<(u64, T, PathBuf)> {
    for (seq, path) in newest_first(dir, prefix).ok()? {
        match load(&path) {
            Ok(ckpt) => {
                obs::incr("ckpt/resumed");
                return Some((seq, ckpt, path));
            }
            Err(e) => {
                obs::incr("ckpt/corrupt_skipped");
                obs::logln(
                    obs::Level::Info,
                    &format!("ckpt: skipping corrupt {}: {e}", path.display()),
                );
            }
        }
    }
    None
}

/// The newest snapshot of `phase` that loads and verifies
/// ([`newest_valid`] over the phase's files).
pub fn latest_valid(dir: &Path, phase: &str) -> Option<(TrainCheckpoint, PathBuf)> {
    newest_valid(dir, &format!("{phase}-"), load).map(|(_, ckpt, path)| (ckpt, path))
}

/// Params-only view of the newest valid `phase` snapshot in `dir` — the
/// warm-start extraction path. A phase-complete snapshot fed back through
/// the resume machinery satisfies `start_iter >= iters` and runs zero
/// iterations, so "resume" cannot continue training a finished phase;
/// this helper turns that snapshot's weights into the *starting point* of
/// a fresh run instead (optimizer state, RNG and losses are deliberately
/// dropped).
pub fn warm_start_params(dir: &Path, phase: &str) -> Option<ParamSnapshot> {
    latest_valid(dir, phase).map(|(snap, _)| snap.params)
}

/// Restores parameters, optimizer states and the RNG from checkpointed
/// state, validating everything before touching the model. Shared by
/// disk-checkpoint resume and in-memory divergence rollback.
pub fn restore_training_state(
    store: &mut ParamStore,
    adams: &mut [&mut Adam],
    rng: &mut StdRng,
    params: &ParamSnapshot,
    adam_states: &[AdamState],
    rng_state: &[u64],
) -> Result<(), String> {
    if adam_states.len() != adams.len() {
        return Err(format!(
            "checkpoint holds {} optimizer states, phase has {} optimizers",
            adam_states.len(),
            adams.len()
        ));
    }
    let rng_state: [u64; 4] = rng_state
        .try_into()
        .map_err(|_| format!("rng state must be 4 words, got {}", rng_state.len()))?;
    let restored = store.try_load_snapshot(params)?;
    if restored != store.len() {
        return Err(format!(
            "checkpoint covers {restored} of {} parameters",
            store.len()
        ));
    }
    for (adam, state) in adams.iter_mut().zip(adam_states) {
        adam.restore_state(state)?;
    }
    *rng = StdRng::from_state(rng_state);
    Ok(())
}

/// In-memory last-known-good state for divergence rollback: cheaper than a
/// disk checkpoint and refreshed every few iterations regardless of
/// whether disk checkpointing is configured.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    /// Iteration the snapshot was taken at (training rolls back to here).
    pub iteration: usize,
    /// All parameter values.
    pub params: ParamSnapshot,
    /// Optimizer states, in the phase's optimizer order.
    pub adams: Vec<AdamState>,
    /// Raw RNG state.
    pub rng: [u64; 4],
    /// Lengths of the phase's loss traces, for truncation on rollback.
    pub trace_lens: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_ID: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "hisrect-ckpt-test-{}-{}",
            std::process::id(),
            DIR_ID.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(iteration: usize) -> TrainCheckpoint {
        TrainCheckpoint {
            phase: "featurizer".into(),
            iteration,
            params: ParamSnapshot {
                params: BTreeMap::new(),
            },
            adams: Vec::new(),
            rng: vec![1, 2, 3, 4],
            poi_losses: vec![0.5, 0.25],
            unsup_losses: vec![],
            valid_losses: vec![(0, 1.0)],
            best_iteration: None,
            best: None,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmp_dir();
        let path = save(&dir, &sample(40)).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.iteration, 40);
        assert_eq!(loaded.rng, vec![1, 2, 3, 4]);
        assert_eq!(loaded.poi_losses, vec![0.5, 0.25]);
        assert_eq!(loaded.valid_losses, vec![(0, 1.0)]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn warm_start_params_extracts_newest_snapshot() {
        let dir = tmp_dir();
        let mut ck = sample(25);
        ck.params.params.insert(
            "judge/w".into(),
            nn::params::SerializedMatrix {
                rows: 1,
                cols: 2,
                data: vec![0.25, -0.5],
            },
        );
        save(&dir, &ck).unwrap();
        let params = warm_start_params(&dir, "featurizer").expect("params");
        assert_eq!(params.params["judge/w"].data, vec![0.25, -0.5]);
        assert!(warm_start_params(&dir, "judge").is_none());
        assert!(warm_start_params(Path::new("/definitely/not/here"), "judge").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_keeps_two_newest() {
        let dir = tmp_dir();
        for it in [10, 20, 30] {
            save(&dir, &sample(it)).unwrap();
        }
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(!names.contains(&file_name("featurizer", 10)));
        let (latest, _) = latest_valid(&dir, "featurizer").unwrap();
        assert_eq!(latest.iteration, 30);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_file_reports_and_is_skipped() {
        let dir = tmp_dir();
        save(&dir, &sample(10)).unwrap();
        let newer = save(&dir, &sample(20)).unwrap();
        // Truncate the newest file mid-payload — a torn write.
        let bytes = fs::read(&newer).unwrap();
        fs::write(&newer, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            load(&newer),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        let (latest, _) = latest_valid(&dir, "featurizer").unwrap();
        assert_eq!(latest.iteration, 10, "must fall back to the older file");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_bit_fails_the_checksum() {
        let dir = tmp_dir();
        let path = save(&dir, &sample(10)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2 + 7;
        bytes[mid] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&path),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        assert!(latest_valid(&dir, "featurizer").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn de_schemad_payload_is_a_parse_error() {
        let dir = tmp_dir();
        let path = save(&dir, &sample(10)).unwrap();
        // Re-wrap a schema-less payload with a *valid* checksum: the
        // checksum passes, deserialization must still fail cleanly.
        let payload = "{\"not\": \"a checkpoint\"}";
        let doctored = format!("{MAGIC} {:016x}\n{payload}", fnv1a64(payload.as_bytes()));
        fs::write(&path, doctored).unwrap();
        assert!(matches!(load(&path), Err(CkptError::Parse(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_header_is_a_format_error() {
        let dir = tmp_dir();
        let path = dir.join(file_name("featurizer", 5));
        fs::write(&path, "GARBAGE HEADER\n{}").unwrap();
        assert!(matches!(load(&path), Err(CkptError::Format(_))));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so old checkpoints stay loadable across releases.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"hisrect"), fnv1a64(b"hisrect"));
        assert_ne!(fnv1a64(b"hisrect"), fnv1a64(b"hisrecu"));
    }
}
