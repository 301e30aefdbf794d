//! # recflex-sim — deterministic analytical GPU performance simulator
//!
//! This crate is the hardware substrate of the RecFlex reproduction. The paper
//! evaluates on NVIDIA V100/A100 GPUs; here the same machine model the paper
//! reasons with (Section IV-A, Equation 2) is implemented explicitly:
//!
//! * an **occupancy calculator** identical in structure to the CUDA occupancy
//!   rules (warp, block, register and shared-memory limits per SM),
//! * a **non-preemptive block scheduler**: blocks are dispatched in grid order
//!   to the earliest-free slot among `#SM × blocks_per_SM` slots and run to
//!   completion, which makes the paper's approximation
//!   `L ≈ Σ_b l_b / (#SM · O / W)` emerge naturally for large grids while
//!   still modelling the tail effect for small ones,
//! * a **memory system model**: DRAM bandwidth shared between co-resident
//!   blocks, memory latency hidden proportionally to resident warps and
//!   per-warp memory-level parallelism, and an L2 working-set model that
//!   captures grid-level interference between features,
//! * a **register-spill model**: capping registers below a kernel's natural
//!   demand converts the overflow into extra DRAM traffic (the cliff visible
//!   in the paper's Figure 12),
//! * **Nsight-Compute-like metrics** (memory throughput, % of peak bandwidth,
//!   L2 throughput, average active / not-predicated-off threads per warp) for
//!   reproducing Table II.
//!
//! Everything is cycle-analytic and fully deterministic: the same kernel and
//! architecture always produce the same latency, which makes the tuning
//! experiments reproducible bit-for-bit.

pub mod arch;
pub mod interconnect;
pub mod kernel;
pub mod launch;
pub mod memory;
pub mod metrics;
pub mod occupancy;
pub mod profile;
pub mod scheduler;

pub use arch::GpuArch;
pub use interconnect::Interconnect;
pub use kernel::{ProfileCtx, SimKernel};
pub use launch::{launch, BlockTime, BlockTimer, LaunchConfig, LaunchReport};
pub use memory::MemorySystem;
pub use metrics::KernelMetrics;
pub use occupancy::{BlockResources, Occupancy};
pub use profile::BlockProfile;
