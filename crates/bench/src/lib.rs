#![warn(missing_docs)]

//! Shared experiment harness.
//!
//! Every `exp_*` binary reproduces one table or figure from the paper's
//! §6 on simulated NYC-like / LV-like datasets (see `DESIGN.md` for the
//! substitution argument). This library holds the pieces they share: the
//! approach registry (Table 3), training/evaluation wrappers, plain-
//! text result reporting, and the closed-loop harness the serving gates
//! share.

pub mod gate;
pub mod harness;
pub mod report;

pub use harness::{Approach, TrainedApproach};
pub use report::Report;
