//! Multi-level-cell (MLC) embedded non-volatile memory device and fault
//! models for the MaxNVM reproduction (paper §2).
//!
//! The paper characterizes two fundamentally different eNVM technologies —
//! charge-trap transistors (CTT, measured from a 16nm test chip) and
//! resistive RAM (RRAM, from published pulse-train programming data) — and
//! derives *inter-level fault rates* from the overlap of per-level Gaussian
//! read-current distributions. This crate implements:
//!
//! - [`level`]: per-level Gaussian distributions, sense thresholds, and the
//!   closed-form adjacent-level misread probabilities;
//! - [`tech`]: the four memory proposals evaluated in the paper
//!   (MLC-CTT, MLC-RRAM, Optimistic MLC-RRAM, SLC-RRAM) plus their device
//!   parameters (cell area in F², process node, write characteristics);
//! - [`sense`]: the sense-amplifier input-referred offset model (§2.3);
//! - [`fault`]: seeded Monte-Carlo fault injection over arrays of cell
//!   levels, as used by the Ares-style campaigns;
//! - [`sparse`]: the O(expected faults) geometric-skip sampler the
//!   evaluation engine uses in place of per-cell draws;
//! - [`gray`]: Gray coding so a level-to-level fault is a single bit flip
//!   (required for Hamming ECC, §3.3);
//! - [`write`](mod@write): the optimistic total-write-time model behind Table 5;
//! - [`reference`](mod@reference): the published chips of Table 1.
//!
//! # Example
//!
//! ```
//! use maxnvm_envm::{CellTechnology, MlcConfig};
//!
//! // An 8-level (3 bits/cell) CTT cell, as measured on the test chip.
//! let cell = CellTechnology::MlcCtt.cell_model(MlcConfig::new(3).unwrap());
//! let faults = cell.fault_map();
//! // MLC3 adjacent-level fault rates land in the paper's 1e-3..1e-5 band.
//! let worst = faults.worst_adjacent_rate();
//! assert!(worst > 1e-6 && worst < 1e-2, "worst = {worst}");
//! ```

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

pub mod fault;
pub mod gray;
pub mod level;
pub mod math;
pub mod reference;
pub mod retention;
pub mod sense;
pub mod sparse;
pub mod tech;
pub mod write;

pub use fault::{FaultInjector, FaultMap};
pub use gray::{from_gray, to_gray};
pub use level::{CellModel, LevelDistribution, MlcConfig};
pub use retention::RetentionParams;
pub use sense::SenseAmp;
pub use sparse::{LevelPartition, SparseFaultSampler};
pub use tech::{CellTechnology, DeviceParams};
pub use write::{EnduranceModel, WriteModel};
