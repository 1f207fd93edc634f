//! DNN substrate for the MaxNVM reproduction.
//!
//! The paper evaluates four image-classification networks (Table 2):
//! LeNet5/MNIST, VGG12/CiFar10, VGG16/ImageNet and ResNet50/ImageNet. This
//! crate provides everything the co-design pipeline needs from the DNN
//! side, built from scratch:
//!
//! - [`tensor`]: a minimal row-major f32 tensor and the im2col unfolding;
//! - [`layer`] / [`network`]: runnable networks (conv, linear, ReLU,
//!   max-pool, flatten) with forward inference and SGD backprop — the
//!   layer kinds of every network a fault-injection experiment runs (the
//!   ImageNet-scale models are [`zoo`] topology specs, not networks);
//! - [`train`]: SGD with momentum and softmax cross-entropy;
//! - [`data`]: procedurally generated datasets standing in for
//!   MNIST/CiFar10/ImageNet (see `DESIGN.md` for the substitution
//!   argument);
//! - [`zoo`]: topology specifications of the paper's four models with
//!   parameter counts matching Table 2, plus small *trainable* stand-ins
//!   used for end-to-end accuracy-under-fault measurements.
//!
//! # Example
//!
//! ```
//! use maxnvm_dnn::data::SyntheticDigits;
//! use maxnvm_dnn::zoo;
//! use maxnvm_dnn::train::{sgd_train, TrainConfig};
//!
//! let data = SyntheticDigits::generate(200, 42);
//! let mut net = zoo::lenet_mini(7);
//! let cfg = TrainConfig { epochs: 3, lr: 0.004, ..TrainConfig::default() };
//! // A run that ends no better than chance is a typed `TrainError::Diverged`.
//! let report = sgd_train(&mut net, &data.train, &cfg).unwrap();
//! assert!(report.train_error < 0.5, "train error {}", report.train_error);
//! ```

// Lint rules D2 (no panics in library code) and D3 (unsafe hygiene,
// reasoned exceptions): DESIGN.md §11. The SIMD kernels are the
// workspace's only `unsafe` code.
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
#![deny(
    clippy::undocumented_unsafe_blocks,
    clippy::missing_safety_doc,
    clippy::allow_attributes_without_reason
)]

pub mod data;
pub mod gemm;
pub mod layer;
pub mod network;
pub mod prefix;
pub mod rnn;
pub mod sparse;
pub mod tensor;
pub mod train;
pub mod zoo;

pub use gemm::{
    active_tier, env_force_scalar, fused_dot, gemm_into, gemm_row_into, parse_force_scalar,
    supported_tiers, GemmScratch, InvalidForceScalar, SimdTier, FORCE_SCALAR_ENV,
};
pub use layer::{ForwardScratch, Layer};
pub use network::{Network, WeightDelta};
pub use prefix::PrefixCache;
pub use sparse::SparseMatrix;
pub use tensor::{Batch, Tensor};
pub use zoo::{LayerSpec, ModelSpec};
