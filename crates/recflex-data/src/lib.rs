//! # recflex-data — features, distributions and synthetic datasets
//!
//! The paper evaluates on datasets synthesized from observations of
//! production recommendation models, because public datasets "are too simple
//! to be representative … and exhibit low feature heterogeneity"
//! (Section VI-A). This crate reproduces that data layer:
//!
//! * [`FeatureSpec`] — one feature field: embedding-table shape, embedding
//!   dimension, pooling-factor distribution, coverage (presence probability)
//!   and row-popularity skew,
//! * [`PoolingDist`] — the distributions from the paper's generator: fixed,
//!   truncated normal (e.g. `N(50, 10²)` with 0.3 coverage, Figure 3) and
//!   power law,
//! * [`Batch`] — CSR-encoded lookup indices per feature (offsets + indices),
//!   exactly the layout the host-side workload analysis consumes,
//! * [`ModelConfig`] / [`ModelPreset`] — models A–E of Table I plus the
//!   10 000-feature scalability set and a 26-feature MLPerf-like
//!   low-heterogeneity set,
//! * [`Dataset`] — a set of historical batches for tuning plus fresh
//!   batches for evaluation.
//!
//! Everything is seeded and deterministic.

pub mod batch;
pub mod dataset;
pub mod distribution;
pub mod feature;
pub mod io;
pub mod models;
pub mod placement;
mod row_draw;
pub mod shift;

pub use batch::{Batch, FeatureBatch, SplitError};
pub use dataset::Dataset;
pub use distribution::PoolingDist;
pub use feature::{FeatureSpec, ModelConfig};
pub use io::{load_dataset, load_model, save_dataset, save_model};
pub use models::ModelPreset;
pub use placement::{FleetAssignment, Placement};
pub use shift::shift_distribution;
