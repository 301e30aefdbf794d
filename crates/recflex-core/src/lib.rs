//! # recflex-core — the RecFlex engine
//!
//! Ties the system together the way the paper's Figure 4 does: the user
//! supplies a model (feature specs + schedule candidates via the registry)
//! and historical input data; the engine tunes with the interference-aware
//! two-stage tuner, compiles the fused kernel with the heterogeneous
//! schedule fusion compiler, and serves batches with runtime thread
//! mapping.
//!
//! [`RecFlexEngine`] implements the [`recflex_baselines::Backend`] trait, so it slots directly
//! into the Figure 9/10 comparison harnesses next to TensorFlow, RECom,
//! HugeCTR and TorchRec. [`EndToEndModel`] appends the evaluation MLP for
//! the end-to-end experiments.

pub mod end_to_end;
pub mod engine;
pub mod sharding;

pub use end_to_end::EndToEndModel;
pub use engine::{RecFlexEngine, VaultTuneReport, DEFAULT_WARM_BUDGET_PER_FEATURE};
pub use sharding::feature_cost_estimates;
