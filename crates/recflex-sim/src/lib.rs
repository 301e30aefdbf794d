//! # recflex-sim — deterministic analytical GPU performance simulator
//!
//! This crate is the hardware substrate of the RecFlex reproduction. The paper
//! evaluates on NVIDIA V100/A100 GPUs; here the same machine model the paper
//! reasons with (Section IV-A, Equation 2) is implemented explicitly:
//!
//! * an **occupancy calculator** identical in structure to the CUDA occupancy
//!   rules (warp, block, register and shared-memory limits per SM),
//! * the **Equation-2 slot bound with Graham's tail**: blocks are dispatched
//!   non-preemptively onto `#SM × blocks_per_SM` slots, so the kernel takes
//!   at least `Σ_b l_b / slots` (the paper's `L ≈ Σ_b l_b / (#SM · O / W)`)
//!   plus `(1 − 1/slots) · max_b solo_b`, Graham's list-scheduling tail —
//!   the term that dominates small grids and vanishes relative to the work
//!   bound for large ones; the kernel latency is the largest of this and
//!   the chip-wide memory, issue and supply bounds ([`launch()`]),
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

pub use arch::GpuArch;
pub use interconnect::Interconnect;
pub use kernel::{ProfileCtx, SimKernel};
pub use launch::{launch, BlockTime, BlockTimer, LaunchConfig, LaunchReport};
pub use memory::MemorySystem;
pub use metrics::KernelMetrics;
pub use occupancy::{BlockResources, Occupancy};
pub use profile::BlockProfile;
