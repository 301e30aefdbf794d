//! # recflex-schedules — per-feature kernel schedule templates
//!
//! A *schedule* is how one feature's embedding operation maps onto GPU
//! threads (paper footnote 2: tiling, thread mapping, loop order…). RecFlex
//! requires users to provide per-feature schedule *templates* with tunable
//! parameters (Section V: templates were written "based on the kernels
//! provided by TensorFlow, TorchRec, and NVIDIA Thrust"). This crate
//! provides five families:
//!
//! | Template | Thread mapping | Sweet spot |
//! |---|---|---|
//! | [`ScheduleKind::RowPerThread`] | one sample per thread, serial pooling | tiny dims, one-hot |
//! | [`ScheduleKind::SubWarp`] | 2–16 threads per sample across dim | small/mid dims |
//! | [`ScheduleKind::SamplePerWarp`] | one warp per sample (TorchRec-like) | dim ≈ 32–128 |
//! | [`ScheduleKind::SamplePerBlock`] | one block per sample (HugeCTR-like) | huge pooling factors |
//! | [`ScheduleKind::SmemStaged`] | warp per sample + smem row staging | large pf × large dim, low occupancy |
//!
//! Tunables: threads/block, vector width, pooling-loop unroll, staging
//! depth. Every concrete [`ScheduleInstance`]:
//!
//! * reports a resource footprint ([`ScheduleInstance::resources`]) that the
//!   occupancy calculator consumes — register demand grows with
//!   accumulator count and unrolling, so occupancy control has real
//!   consequences (the Figure 12 spill cliff),
//! * computes how many blocks a live workload needs
//!   ([`ScheduleInstance::required_blocks`]) — the input to runtime thread
//!   mapping,
//! * produces an analytic [`recflex_sim::BlockProfile`] per block from the
//!   CSR, with faithful coalescing (sector overfetch for scattered
//!   accesses), divergence (warps iterate to the max pooling factor among
//!   their samples) and predication (lanes beyond the dim are switched off),
//! * executes functionally, bit-identical to the scalar reference,
//! * prints the CUDA `__device__` function it corresponds to.

pub mod codegen;
pub mod exec;
pub mod profile;
pub mod registry;
pub mod store;
pub mod template;

pub use profile::BaseBlockProfile;
pub use registry::{enumerate_candidates, CandidateError, CandidateSet};
pub use store::{
    distribution_summary, DirVfs, MemVfs, ProfileKey, ProfileVault, ScheduleProfile, StoreError,
    StoreFault, StoreFaultKind, StoreFaultPlan, StoreFaultSpec, VaultStats, Vfs,
};
pub use template::{ScheduleInstance, ScheduleKind, ScheduleParams};
