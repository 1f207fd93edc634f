//! NVDLA-style accelerator performance and energy model (paper §3.5, §5–6).
//!
//! The paper evaluates MaxNVM by swapping NVDLA's off-chip DRAM weight
//! path for on-chip MLC eNVM (Fig. 7) and comparing frames per second,
//! average power, and energy per inference for two fixed datapath
//! configurations (Table 3). This crate reimplements that system model:
//!
//! - [`config`]: the NVDLA-64 and NVDLA-1024 baselines;
//! - [`source`]: where weights come from — DRAM, on-chip eNVM, or the §6
//!   hybrid split;
//! - [`perf`]: the per-layer roofline (compute vs weight-fetch vs
//!   activation-traffic bound) and whole-model system evaluation;
//! - [`nonvolatility`]: the §5.3 frame-rate study (DRAM always-on vs
//!   wake-up per inference vs eNVM);
//! - [`hybrid`]: the §6 fixed-area SRAM/eNVM partition sweep.

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

pub mod config;
pub mod hybrid;
pub mod nonvolatility;
pub mod perf;
pub mod source;

pub use config::NvdlaConfig;
pub use perf::{evaluate, LayerPerf, SystemReport};
pub use source::WeightSource;
