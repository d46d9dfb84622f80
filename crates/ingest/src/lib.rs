#![warn(missing_docs)]

//! Streaming ingestion and continuous learning.
//!
//! The rest of the workspace is batch: simulate a frozen corpus, train
//! once, serve a frozen model. This crate closes the loop against an
//! unbounded tweet stream ([`twitter_sim::TweetStream`]):
//!
//! ```text
//!  TweetStream ──► Ingestor ──────────────► CandidateMirror (ANN)
//!   (seeded,        │  per-user profiles      incremental insert
//!    resumable,     │  windowed affinity      + windowed eviction
//!    faultable)     │  watermark, counters
//!                   ▼
//!               IngestCheckpoint (cursor + state, HISRECT-CKPT-V1)
//!                   │
//!                   ▼
//!               driver::fine_tune ──► model_gen_N.json ──► POST /reload
//!                   (assemble window, resume ckpt)          (live server)
//! ```
//!
//! Three properties the tests pin down:
//!
//! 1. **Replay determinism** — ingesting a finite recorded stream yields
//!    profiles and affinity edges bit-identical to the batch pipeline
//!    ([`twitter_sim::assemble`] + [`hisrect::affinity`]) on the same
//!    events, at any thread count.
//! 2. **Crash safety** — kill the loop mid-stream, resume from the latest
//!    checkpoint + stream cursor, and the final profiles are byte-identical
//!    to an uninterrupted run.
//! 3. **Fault absorption** — `reorder@n` / `gap@n` / `dup@n` stream faults
//!    are absorbed without panics and without duplicate profile updates.

pub mod ckpt;
pub mod driver;
pub mod mirror;
pub mod pipeline;

pub use ckpt::{latest_valid, save_checkpoint, IngestCheckpoint};
pub use driver::{fine_tune, publish_reload, record_staleness, DriverConfig, FineTuneOutcome};
pub use mirror::CandidateMirror;
pub use pipeline::{Edge, IngestConfig, Ingestor, IngestorState, PKey};
