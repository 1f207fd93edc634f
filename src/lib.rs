//! Workspace facade for the MaxNVM reproduction: re-exports every
//! subsystem crate so the examples and integration tests have one import
//! surface. See the `maxnvm` crate for the pipeline API and `DESIGN.md`
//! for the system inventory.

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

pub use maxnvm;
pub use maxnvm_bits;
pub use maxnvm_dnn;
pub use maxnvm_ecc;
pub use maxnvm_encoding;
pub use maxnvm_envm;
pub use maxnvm_faultsim;
pub use maxnvm_nvdla;
pub use maxnvm_nvsim;
