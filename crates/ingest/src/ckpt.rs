//! Durable ingest checkpoints: stream cursor + pipeline state.
//!
//! A typed shell over the training checkpoints' format and writer in
//! `hisrect::ckpt`: a `HISRECT-CKPT-V1 <fnv1a64>` header over a JSON
//! payload, written atomically (temp file, `sync_all`, rename), with a
//! keep-2 rotation and a corrupt-skipping newest-valid loader. A crash
//! mid-write leaves the previous checkpoint intact; a corrupt latest
//! file falls back to its predecessor.

use std::path::{Path, PathBuf};

use crate::pipeline::IngestorState;
use hisrect::ckpt::{self, CkptError};
use serde::{Deserialize, Serialize};
use twitter_sim::stream::StreamCursor;

/// File-name prefix of ingest checkpoints (`ingest_{seq:08}.ckpt`).
const PREFIX: &str = "ingest_";

/// Everything needed to restart the closed loop exactly where it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestCheckpoint {
    /// Stream position to resume [`twitter_sim::TweetStream`] from.
    pub cursor: StreamCursor,
    /// Full pipeline state.
    pub state: IngestorState,
    /// Fine-tune generations published so far.
    pub generation: u64,
    /// Watermark timestamp the latest published model was trained up to.
    pub trained_to: i64,
}

/// Atomically writes checkpoint number `seq` into `dir` (created if
/// missing) and prunes everything older than the newest two.
pub fn save_checkpoint(dir: &Path, seq: u64, ck: &IngestCheckpoint) -> Result<PathBuf, CkptError> {
    let payload = serde_json::to_string(ck).map_err(|e| CkptError::Parse(e.to_string()))?;
    let path = ckpt::write_framed(dir, &format!("{PREFIX}{seq:08}.ckpt"), &payload)?;
    ckpt::prune(dir, PREFIX)?;
    Ok(path)
}

/// The newest checkpoint in `dir` that parses and passes its checksum,
/// with its sequence number. Corrupt or truncated files are skipped.
/// `None` when the directory is missing or holds no valid checkpoint.
pub fn latest_valid(dir: &Path) -> Option<(u64, IngestCheckpoint)> {
    let load = |path: &Path| {
        serde_json::from_str(&ckpt::read_framed(path)?).map_err(|e| CkptError::Parse(e.to_string()))
    };
    ckpt::newest_valid(dir, PREFIX, load).map(|(seq, ck, _)| (seq, ck))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{IngestConfig, Ingestor};
    use std::fs;
    use twitter_sim::{SimConfig, TweetStream};

    fn path_for(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("{PREFIX}{seq:08}.ckpt"))
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hisrect-ingest-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_ck(n_events: usize) -> IngestCheckpoint {
        let mut stream = TweetStream::new(SimConfig::tiny(31));
        let mut ing = Ingestor::new(
            stream.world().clone(),
            stream.friendships().to_vec(),
            stream.config().n_users,
            IngestConfig::default(),
        );
        for _ in 0..n_events {
            ing.offer(stream.next_event());
        }
        ing.flush();
        IngestCheckpoint {
            cursor: stream.cursor(),
            state: ing.state().clone(),
            generation: 3,
            trained_to: 12_345,
        }
    }

    #[test]
    fn roundtrip_and_rotation() {
        let dir = tmp_dir("rotate");
        let ck = sample_ck(120);
        for seq in 0..4u64 {
            save_checkpoint(&dir, seq, &ck).unwrap();
        }
        // Keep-2: only 2 and 3 survive.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, vec!["ingest_00000002.ckpt", "ingest_00000003.ckpt"]);
        let (seq, back) = latest_valid(&dir).expect("valid checkpoint");
        assert_eq!(seq, 3);
        assert_eq!(back, ck);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_latest_falls_back() {
        let dir = tmp_dir("corrupt");
        let ck = sample_ck(60);
        save_checkpoint(&dir, 1, &ck).unwrap();
        save_checkpoint(&dir, 2, &ck).unwrap();
        // Truncate the newest file mid-payload.
        let newest = path_for(&dir, 2);
        let raw = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &raw[..raw.len() / 2]).unwrap();
        let (seq, back) = latest_valid(&dir).expect("fallback");
        assert_eq!(seq, 1);
        assert_eq!(back, ck);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_none() {
        assert!(latest_valid(Path::new("/definitely/not/here")).is_none());
    }
}
