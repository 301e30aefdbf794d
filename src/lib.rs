//! # recflex — feature-heterogeneity-aware recommendation inference
//!
//! Root facade over the workspace crates that reproduce *RecFlex: Enabling
//! Feature Heterogeneity-Aware Optimization for Deep Recommendation Models
//! with Flexible Schedules* (SC'24) on a deterministic GPU simulator.
//!
//! Each sub-crate is re-exported under a short alias so downstream users can
//! depend on the single `recflex` package:
//!
//! * [`data`] — feature specs, pooling distributions, CSR batches, datasets,
//! * [`sim`] — the deterministic analytical GPU simulator,
//! * [`embedding`] — embedding tables, reference kernels, workload analysis,
//! * [`schedules`] — the per-feature schedule templates and registry,
//! * [`compiler`] — heterogeneous-schedule fusion compiler,
//! * [`tuner`] — the interference-aware two-stage tuner,
//! * [`baselines`] — TensorFlow/RECom/TorchRec/HugeCTR comparison backends,
//! * [`dnn`] — the dense MLP stage for end-to-end experiments,
//! * [`core`] — the tuned, compiled, servable [`RecFlexEngine`],
//! * [`serve`] — the deterministic online-serving tier (dynamic batching,
//!   SLO-aware scheduling, drift-triggered retuning) for one GPU or many.

pub use recflex_baselines as baselines;
pub use recflex_compiler as compiler;
pub use recflex_core as core;
pub use recflex_data as data;
pub use recflex_dnn as dnn;
pub use recflex_embedding as embedding;
pub use recflex_schedules as schedules;
pub use recflex_serve as serve;
pub use recflex_sim as sim;
pub use recflex_tuner as tuner;

pub use recflex_core::RecFlexEngine;
pub use recflex_data::{Batch, Dataset, FeatureSpec, ModelConfig, ModelPreset};
pub use recflex_sim::GpuArch;

/// Everything a typical tune → compile → serve session needs.
pub mod prelude {
    pub use recflex_baselines::{Backend, BackendError, BackendRun, CostReport};
    pub use recflex_core::RecFlexEngine;
    pub use recflex_data::{Batch, Dataset, FeatureSpec, ModelConfig, ModelPreset, PoolingDist};
    pub use recflex_embedding::TableSet;
    pub use recflex_serve::{
        BatchPolicy, LifecycleConfig, OutcomePlan, Request, RetuneOutcome, ServeConfig,
        ShardedReport, ShardedRetunePolicy, ShardedServeRuntime, WorkloadSpec,
    };
    pub use recflex_sim::GpuArch;
    pub use recflex_tuner::TunerConfig;
}
