//! # recflex-compiler — the heterogeneous schedule fusion compiler
//!
//! The second half of RecFlex (paper Section IV-B): given one schedule per
//! feature, build the single fused kernel that processes every feature with
//! its own schedule, and decide at *runtime* which blocks serve which
//! feature.
//!
//! * [`FusedKernelObject`] — the compiled artefact: deduplicated schedule
//!   table (`schedule_map`, features with identical optimal schedules share
//!   code, paper Figure 8), shared-memory union sizing, the
//!   `__launch_bounds__` resource union and the occupancy control decision.
//!   It holds no argument-offset table: the per-feature argument
//!   indirection (`arg_offsets`) exists only in the printed CUDA source.
//! * [`TaskMap`] — the `d_task_map` / `d_blocks_map` pair: for every block,
//!   `(feature_idx, rel_bidx)`. Built per batch by
//!   [`TaskMap::runtime`] from the host-side workload analysis (the
//!   paper's < 0.1 %-overhead CPU pass), or statically from historical
//!   statistics by [`TaskMap::static_map`] (the Figure 13 ablation):
//!   under-provisioned blocks loop over several logical blocks' work,
//!   over-provisioned ones idle.
//! * [`BoundFusedKernel`] — a fused kernel bound to a live batch; it
//!   implements [`recflex_sim::SimKernel`] for timing and executes
//!   functionally into a [`recflex_embedding::FusedOutput`].
//! * [`cuda_source`][FusedKernelObject::cuda_source] — pretty-prints the
//!   CUDA translation unit of Figure 8 (device functions, smem union,
//!   if-else dispatch).

pub mod cuda;
pub mod fused;
#[cfg(test)]
mod launch_oracle;
pub mod thread_map;
pub mod warp_map;

pub use fused::{BoundFusedKernel, DispatchMode, FusedKernelObject, FusedSpec};
pub use thread_map::{MappingStrategy, TaskMap};
pub use warp_map::{WarpMappedKernel, WarpTaskMap};
