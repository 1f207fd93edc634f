//! Ares-style fault-injection campaigns and design-space exploration
//! (paper §4).
//!
//! The paper's methodology, reimplemented:
//!
//! 1. Convert weights to their MLC representation, sample each cell's read
//!    distribution, flag threshold crossings as adjacent-level faults, and
//!    run inference on the corrupted model ([`campaign`]). Experiments are
//!    repeated over many randomly seeded trials.
//! 2. Quantify the resulting classification error either **end-to-end** on
//!    a trainable network ([`evaluate::NetworkEval`]) or through a
//!    calibrated weight-corruption sensitivity model for ImageNet-scale
//!    specs that cannot be trained in this substrate
//!    ([`evaluate::ProxyEval`], see `DESIGN.md`).
//! 3. Exhaustively sweep encodings × per-structure bits-per-cell ×
//!    protection schemes and keep the **minimal-cell** configuration whose
//!    error stays within the iso-training-noise bound ([`dse`], Fig. 6).
//!
//! [`analytic`] computes expected corruption closed-form from the fault
//! maps and structure geometry — used for the big four models, validated
//! against the Monte-Carlo path on small layers.

// Lint rules D2 (no panics in library code) and D3 (unsafe hygiene,
// reasoned exceptions): DESIGN.md §11.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod analytic;
pub mod campaign;
pub mod cancel;
pub mod checkpoint;
pub mod dse;
pub mod engine;
pub mod evaluate;
pub mod vulnerability;

pub use campaign::{wilson_interval, Campaign, CampaignResult, FailedTrial, TrialOutcome};
pub use cancel::CancelToken;
pub use checkpoint::{
    CampaignCheckpoint, CheckpointConfig, CheckpointStore, FaultPlan, FaultyStore, Fingerprint,
    FsStore, RetryPolicy,
};
pub use dse::{minimal_cells, DseConfig, DsePoint};
pub use engine::{EarlyStop, EngineError, EvalContext, RunControl, ShardSpec};
pub use evaluate::{AccuracyEval, NetworkEval, ProxyEval};
pub use vulnerability::{VulnerabilityRow, VulnerabilityStudy};
