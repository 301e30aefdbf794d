//! Kernel launch: profiles → block times → makespan → latency and metrics.
//!
//! This is where the paper's machine model lives. For every block the model
//! takes the analytic demands ([`BlockProfile`]) and the launch environment
//! (resident blocks per SM `B`, grid-level L2 pressure) and computes
//!
//! ```text
//! t_issue   = issue_cycles      · B_eff / warp_schedulers     (SM issue shared)
//! t_lsu     = mem_transactions  · B_eff / lsu_per_sm          (LSU shared)
//! t_dram    = dram_bytes        · B_eff / dram_bytes_per_sm_cycle
//! t_l2      = l2_bytes          · B_eff / l2_bytes_per_sm_cycle
//! t_latency = (mem_transactions / active_warps) · avg_latency / mlp
//! l_b       = max(all of the above) + barriers · barrier_cost
//! ```
//!
//! where `B_eff = min(B, ceil(grid/#SM))` — a block sharing its SM with
//! fewer co-residents (small grid, or a straw-man isolated measurement)
//! sees less contention. The kernel latency is the maximum of all machine
//! lower bounds (see [`BoundBreakdown`]): the Equation-2 slot bound with
//! Graham's `(1 − 1/m)·max` tail term, chip-wide DRAM/L2/issue/LSU
//! capability, and a Little's-law concurrency supply bound. Occupancy
//! therefore creates the exact tension the RecFlex tuner navigates: more
//! resident warps raise the sustainable bandwidth and hide latency, but
//! cannot help chains or saturated DRAM, and forcing residency up via
//! register capping adds spill traffic.
//!
//! Serving prices every chunk with a launch, so after profiling [`launch`]
//! reads each block profile in two passes only: one for the grid's bytes,
//! which set the memory model, and one that times every block and folds
//! every sum the bounds and metrics need.

use rayon::prelude::*;

use crate::arch::GpuArch;
use crate::kernel::{ProfileCtx, SimKernel};
use crate::memory::MemorySystem;
use crate::metrics::KernelMetrics;
use crate::occupancy::{control_occupancy, occupancy, Occupancy};
use crate::profile::BlockProfile;

/// Grids smaller than this are profiled on the calling thread, where
/// dispatching their blocks to a pool costs more than profiling them.
/// `sim/profile_blocks` in `recflex-bench`'s micro-benchmarks (a tuned
/// shard of model A at 0.03 over 2 devices, 2-worker pool, 2-vCPU x86-64
/// VM, three runs) puts the crossover near 500 blocks: time on the pool
/// over time inline was 1.05–1.33 at 332 blocks, 0.96–1.03 at 498 and
/// 0.88–0.94 at 664. Whole launches of 200-feature kernels crossed between
/// 744 blocks (1.13) and 1 488 (0.81).
const INLINE_PROFILE_BLOCKS: u32 = 512;

/// Launch-time options.
#[derive(Debug, Clone, Copy, Default)]
pub struct LaunchConfig {
    /// Force residency to this many blocks/SM (the paper's explicit
    /// occupancy control). `None` uses the natural occupancy.
    pub occupancy_target: Option<u32>,
    /// Multiplier on issue cycles for dispatch overhead (1.0 = if-else
    /// inlined dispatch; ~1.45 models the function-pointer-array variant
    /// discussed in Section IV-B).
    pub issue_multiplier: f64,
}

impl LaunchConfig {
    /// Config with an occupancy target and default everything else.
    pub fn with_occupancy(target: u32) -> Self {
        LaunchConfig {
            occupancy_target: Some(target),
            ..Default::default()
        }
    }
}

/// Why a launch was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// Per-block resources exceed a single SM: the kernel cannot start.
    Unlaunchable,
    /// The grid is empty.
    EmptyGrid,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Unlaunchable => write!(f, "kernel resources exceed one SM"),
            LaunchError::EmptyGrid => write!(f, "kernel grid is empty"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// The individual lower bounds whose maximum is the kernel makespan —
/// diagnostic output explaining *why* a launch takes as long as it does.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundBreakdown {
    /// Equation-2 slot bound + Graham tail, cycles.
    pub slot_cycles: f64,
    /// Aggregate DRAM capability bound, cycles.
    pub dram_cycles: f64,
    /// Aggregate L2 capability bound, cycles.
    pub l2_cycles: f64,
    /// Aggregate instruction-issue bound, cycles.
    pub issue_cycles: f64,
    /// Aggregate LSU bound, cycles.
    pub lsu_cycles: f64,
    /// Little's-law concurrency supply bound, cycles.
    pub supply_cycles: f64,
    /// Host-interconnect (UVM) traffic bound, cycles.
    pub uvm_cycles: f64,
    /// Longest solo block (straggler), cycles.
    pub straggler_cycles: f64,
}

impl BoundBreakdown {
    /// Name of the binding constraint.
    pub fn binding(&self) -> &'static str {
        let pairs = [
            ("slots+tail", self.slot_cycles),
            ("dram", self.dram_cycles),
            ("l2", self.l2_cycles),
            ("issue", self.issue_cycles),
            ("lsu", self.lsu_cycles),
            ("supply", self.supply_cycles),
            ("uvm", self.uvm_cycles),
        ];
        pairs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(n, _)| n)
            .unwrap_or("slots+tail")
    }

    /// The makespan these bounds imply.
    pub fn makespan(&self) -> f64 {
        self.slot_cycles
            .max(self.dram_cycles)
            .max(self.l2_cycles)
            .max(self.issue_cycles)
            .max(self.lsu_cycles)
            .max(self.supply_cycles)
            .max(self.uvm_cycles)
    }
}

/// Result of one simulated kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub name: String,
    /// End-to-end latency including launch overhead, microseconds.
    pub latency_us: f64,
    /// GPU-side makespan in cycles.
    pub makespan_cycles: f64,
    /// Per-block steady-state execution times in cycles, in grid order —
    /// the tuner's Equation 3 sums slices of this.
    pub block_times: Vec<f64>,
    /// Per-block *solo* times (full machine to itself) — the straggler
    /// bound of each block; the kernel cannot finish before the slowest.
    pub block_solo_times: Vec<f64>,
    /// Achieved residency.
    pub occupancy: Occupancy,
    /// Slot utilization of the launch in `[0, 1]`.
    pub utilization: f64,
    /// Aggregated Nsight-like metrics.
    pub metrics: KernelMetrics,
    /// The lower bounds behind `makespan_cycles` and which one binds.
    pub bounds: BoundBreakdown,
}

impl LaunchReport {
    /// Sum of block times over a half-open block range (Equation 3 of the
    /// paper for one feature's block group).
    pub fn block_time_sum(&self, range: std::ops::Range<usize>) -> f64 {
        self.block_times[range].iter().sum()
    }
}

/// One block's times under a launch environment, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockTime {
    /// Steady-state time `l_b`, sharing its SM with `B_eff` co-residents.
    pub steady: f64,
    /// Solo time: the same block with the machine to itself.
    pub solo: f64,
    /// The memory-pipe part of the steady time (LSU, DRAM or L2 bound).
    pub mem: f64,
}

/// The environment every block of one launch is timed under: grid-level
/// memory behaviour, effective co-residency `B_eff` and dispatch overhead.
/// [`launch`] times its blocks with it, and so does any caller that needs
/// block times without a full report.
#[derive(Debug, Clone, Copy)]
pub struct BlockTimer<'a> {
    arch: &'a GpuArch,
    /// Grid-level memory behaviour.
    pub(crate) mem: MemorySystem,
    /// Co-residents a block shares its SM with: `min(B, ceil(grid/#SM))`.
    pub(crate) b_eff: f64,
    /// Multiplier on issue cycles (dispatch overhead).
    pub(crate) issue_mult: f64,
    /// DRAM bytes per SM-cycle.
    pub(crate) dram_rate: f64,
    /// L2 bytes per SM-cycle.
    pub(crate) l2_rate: f64,
}

impl<'a> BlockTimer<'a> {
    /// The environment of a `grid_blocks`-block launch under `cfg` at
    /// `blocks_per_sm` residency whose blocks request `total_bytes`, of
    /// which `unique_bytes` are first touches.
    #[inline]
    pub fn new(
        arch: &'a GpuArch,
        cfg: &LaunchConfig,
        blocks_per_sm: u32,
        grid_blocks: u64,
        total_bytes: u64,
        unique_bytes: u64,
    ) -> Self {
        BlockTimer {
            arch,
            mem: MemorySystem::from_traffic(arch, total_bytes, unique_bytes),
            b_eff: (blocks_per_sm as f64)
                .min((grid_blocks as f64 / arch.num_sms as f64).ceil())
                .max(1.0),
            issue_mult: if cfg.issue_multiplier > 0.0 {
                cfg.issue_multiplier
            } else {
                1.0
            },
            dram_rate: arch.dram_bytes_per_sm_cycle(),
            l2_rate: arch.l2_bytes_per_sm_cycle(),
        }
    }

    /// Time one block with profile `p`. Inlined into `launch`, which is
    /// generic and so compiled in its callers' crates.
    #[inline]
    pub fn time(&self, p: &BlockProfile) -> BlockTime {
        self.time_moving(p, self.mem.dram_bytes(p), self.mem.l2_bytes(p))
    }

    /// [`Self::time`] for a block whose DRAM and L2 bytes under this
    /// launch's memory system, `dram_b` and `l2_b`, are already known.
    #[inline]
    fn time_moving(&self, p: &BlockProfile, dram_b: f64, l2_b: f64) -> BlockTime {
        let arch = self.arch;
        let (mem, b_eff, issue_mult) = (&self.mem, self.b_eff, self.issue_mult);
        let aw = p.active_warps.max(1) as f64;
        let mlp = p.mlp.max(1.0);
        // The block retires with its slowest warp: prefer the explicit
        // critical chain; fall back to the uniform average for kernels
        // that do not report one.
        let chain = if p.critical_mem_chain > 0 {
            p.critical_mem_chain as f64
        } else {
            p.mem_transactions as f64 / aw
        };
        // Little's law per block: its warps sustain `aw × mlp` requests in
        // flight, so its memory work cannot drain faster than that supply,
        // and never faster than its slowest warp's chain.
        let t_lat = chain.max(p.mem_transactions as f64 / aw) * mem.avg_latency / mlp;
        // UVM misses: high-latency host accesses, hidden by the same
        // warp-level parallelism but with a far longer round trip.
        let t_uvm = (p.uvm_transactions as f64 / aw) * arch.uvm_latency / mlp;
        let barrier_cost = p.barriers as f64 * arch.barrier_cycles;

        // Steady-state time: the block shares its SM with `b_eff`
        // co-residents (the contention environment the tuner must rank
        // schedules under — these are the `l_b` of Equations 2/3).
        let t_issue = p.issue_cycles * issue_mult * b_eff / arch.warp_schedulers as f64;
        let t_lsu = p.mem_transactions as f64 * b_eff / arch.lsu_per_sm;
        let t_dram = dram_b * b_eff / self.dram_rate;
        let t_l2 = l2_b * b_eff / self.l2_rate;
        let t_mem = t_lsu.max(t_dram).max(t_l2);
        let l_b = t_issue.max(t_mem).max(t_lat).max(t_uvm) + barrier_cost;

        // Solo time: the same block with the machine to itself — how fast
        // a straggler drains once its co-residents have retired. DRAM and
        // issue bandwidth are fluid across the chip, so the kernel can
        // never finish before its longest solo block.
        let t_solo = (p.issue_cycles * issue_mult / arch.warp_schedulers as f64)
            .max(p.mem_transactions as f64 / arch.lsu_per_sm)
            .max(dram_b / self.dram_rate)
            .max(l2_b / self.l2_rate)
            .max(t_lat)
            .max(t_uvm)
            + barrier_cost;
        BlockTime {
            steady: l_b,
            solo: t_solo,
            mem: t_mem,
        }
    }
}

/// Launch `kernel` on `arch` under `cfg`.
pub fn launch<K: SimKernel>(
    kernel: &K,
    arch: &GpuArch,
    cfg: &LaunchConfig,
) -> Result<LaunchReport, LaunchError> {
    let grid = kernel.grid_blocks();
    if grid == 0 {
        return Err(LaunchError::EmptyGrid);
    }

    let natural_res = kernel.resources();
    let (res, blocks_per_sm, reg_cap) = match cfg.occupancy_target {
        Some(target) => {
            let ctl =
                control_occupancy(&natural_res, arch, target).ok_or(LaunchError::Unlaunchable)?;
            (ctl.resources, ctl.blocks_per_sm, ctl.reg_cap)
        }
        None => {
            let occ = occupancy(&natural_res, arch);
            if occ.blocks_per_sm == 0 {
                return Err(LaunchError::Unlaunchable);
            }
            (natural_res, occ.blocks_per_sm, None)
        }
    };
    let warps_per_block = res.warps_per_block(arch.warp_size);
    let occ = Occupancy {
        blocks_per_sm,
        warps_per_sm: blocks_per_sm * warps_per_block,
        limiter: occupancy(&res, arch).limiter,
    };

    let ctx = ProfileCtx { reg_cap };

    // Phase 1: profile every block (pure, so the pool changes no bit).
    let profile = |b| kernel.profile_block(b, &ctx);
    let profiles: Vec<BlockProfile> = if grid < INLINE_PROFILE_BLOCKS {
        (0..grid).map(profile).collect()
    } else {
        (0..grid).into_par_iter().map(profile).collect()
    };

    // Phase 2: grid-level memory behaviour.
    let (mut total_bytes, mut unique_bytes) = (0u64, 0u64);
    for p in &profiles {
        total_bytes += p.bytes_accessed;
        unique_bytes += p.unique_bytes;
    }
    let timer = BlockTimer::new(
        arch,
        cfg,
        blocks_per_sm,
        u64::from(grid),
        total_bytes,
        unique_bytes,
    );
    let (mem, b_eff, issue_mult) = (timer.mem, timer.b_eff, timer.issue_mult);

    // Phase 3: one pass times every block under the launch environment and
    // folds, in block order, every sum the bounds and metrics read. Each f64
    // sum starts at -0.0, as `Iterator::sum` does, except the memory-busy
    // total, which starts at 0.0: so each is bit for bit the sum a pass of
    // its own over the blocks takes.
    let mut block_times = Vec::with_capacity(grid as usize);
    let mut block_solo_times = Vec::with_capacity(grid as usize);
    let (mut total_shared, mut mem_bound_cycles, mut straggler) = (-0.0f64, 0.0f64, 0.0f64);
    let (mut dram_total, mut l2_total, mut issue_total) = (-0.0f64, -0.0f64, -0.0f64);
    // Bytes moved, and bytes moved weighted by MLP and by active warps.
    let (mut membytes, mut mlp_bytes, mut warp_bytes) = (-0.0f64, -0.0f64, -0.0f64);
    let (mut trans_total, mut uvm_total, mut flops) = (0u64, 0u64, 0u64);
    let (mut active_sum, mut useful_sum, mut slot_sum) = (0u64, 0u64, 0u64);
    for p in &profiles {
        let (dram_b, l2_b) = (mem.dram_bytes(p), mem.l2_bytes(p));
        let t = timer.time_moving(p, dram_b, l2_b);
        block_times.push(t.steady);
        block_solo_times.push(t.solo);
        total_shared += t.steady;
        mem_bound_cycles += t.mem;
        straggler = straggler.max(t.solo);
        dram_total += dram_b;
        l2_total += l2_b;
        issue_total += p.issue_cycles;
        let moved = dram_b + l2_b;
        membytes += moved;
        mlp_bytes += moved * p.mlp.max(1.0);
        warp_bytes += moved * p.active_warps.max(1) as f64;
        trans_total += p.mem_transactions;
        uvm_total += p.uvm_bytes;
        flops += p.flops;
        active_sum += p.thread_active_sum;
        useful_sum += p.thread_useful_sum;
        slot_sum += p.thread_slot_sum;
    }

    // Phase 4: kernel time = the maximum of all lower bounds.
    // * Slot bound: total steady-state block time over `#SM × B` slots —
    //   exactly Equation 2.
    // * Machine bounds: aggregate DRAM bytes, L2 bytes, issue slots and
    //   LSU transactions can never exceed chip-wide capability, whatever
    //   the residency (keeps underfilled grids honest).
    // * Straggler bound: the longest solo block — the tail effect for
    //   small grids, without over-penalizing underfull final waves where
    //   the fluid DRAM share speeds survivors up.
    let slots = arch.num_sms * blocks_per_sm;
    let (dram_rate, l2_rate) = (timer.dram_rate, timer.l2_rate);
    let throughput_bound = total_shared / slots as f64;
    let sms = arch.num_sms as f64;
    let dram_bound = dram_total / (dram_rate * sms);
    let l2_bound = l2_total / (l2_rate * sms);
    let issue_bound = issue_total * issue_mult / (arch.warp_schedulers as f64 * sms);
    let lsu_bound = trans_total as f64 / (arch.lsu_per_sm * sms);
    // Little's law at machine scope: achieved bandwidth is capped by the
    // requests the resident warps keep in flight — the reason a kernel
    // with an unsuitable schedule (few active warps, shallow MLP, low
    // forced occupancy) reads 380 GB/s where a tuned one reads 640 on the
    // same GPU (paper Table II).
    let total_membytes = membytes.max(1e-9);
    let weighted_mlp = mlp_bytes / total_membytes;
    let weighted_active_warps = warp_bytes / total_membytes;
    let eff_warps_per_sm = (b_eff * weighted_active_warps)
        .min(occ.warps_per_sm as f64)
        .max(1.0);
    let supply_rate = eff_warps_per_sm * weighted_mlp * arch.sector_bytes as f64 / mem.avg_latency;
    // A grid that moves no memory has a supply rate of 0 and nothing to
    // supply: no bound, not 1e-9 / 0 = ∞.
    let supply_bound = if membytes > 0.0 {
        total_membytes / (supply_rate * sms)
    } else {
        0.0
    };
    // UVM traffic crosses the host interconnect, a chip-global channel.
    let host_rate = arch.host_link_gbps / arch.clock_ghz; // bytes per cycle, whole chip
    let uvm_bound = uvm_total as f64 / host_rate.max(1e-9);
    // Graham's list-scheduling characterization: non-preemptive dispatch
    // lands between the work bound and work + (1 − 1/m)·max. Random-order
    // dispatch tracks the upper form closely, so the straggler term is a
    // real cost every long block imposes on the tail — the cost runtime
    // thread mapping avoids by splitting work finely (Figure 13).
    let tail = (1.0 - 1.0 / slots as f64) * straggler;
    let bounds = BoundBreakdown {
        slot_cycles: throughput_bound + tail,
        dram_cycles: dram_bound,
        l2_cycles: l2_bound,
        issue_cycles: issue_bound,
        lsu_cycles: lsu_bound,
        supply_cycles: supply_bound,
        uvm_cycles: uvm_bound,
        straggler_cycles: straggler,
    };
    let makespan = bounds.makespan();
    let utilization = if makespan > 0.0 {
        (throughput_bound.max(dram_bound)) / makespan
    } else {
        0.0
    };
    let latency_us = arch.cycles_to_us(makespan) + arch.kernel_launch_us;

    // Phase 5: metrics.
    let time_s = arch.cycles_to_us(makespan).max(1e-9) * 1e-6;
    let memory_throughput_gbps = dram_total / time_s / 1e9;
    let max_bandwidth_pct = 100.0 * memory_throughput_gbps / arch.dram_bw_gbps;
    let l2_throughput_pct = 100.0 * (l2_total / time_s / 1e9) / arch.l2_bw_gbps;
    let l1_throughput_pct =
        100.0 * trans_total as f64 / (makespan * arch.num_sms as f64 * arch.lsu_per_sm);
    let memory_busy_pct =
        100.0 * mem_bound_cycles / (slots as f64 * makespan.max(1e-9)) / b_eff.max(1.0)
            * blocks_per_sm as f64;

    let metrics = KernelMetrics {
        memory_throughput_gbps,
        max_bandwidth_pct: max_bandwidth_pct.min(100.0),
        memory_busy_pct: memory_busy_pct.min(100.0),
        l1_throughput_pct: l1_throughput_pct.min(100.0),
        l2_throughput_pct: l2_throughput_pct.min(100.0),
        avg_active_threads_per_warp: if slot_sum == 0 {
            0.0
        } else {
            32.0 * active_sum as f64 / slot_sum as f64
        },
        avg_not_pred_off_threads_per_warp: if slot_sum == 0 {
            0.0
        } else {
            32.0 * useful_sum as f64 / slot_sum as f64
        },
        achieved_warps_per_sm: occ.warps_per_sm,
        dram_bytes: dram_total,
        l2_bytes: l2_total,
        flops,
    };

    Ok(LaunchReport {
        name: kernel.name().to_string(),
        latency_us,
        makespan_cycles: makespan,
        block_times,
        block_solo_times,
        occupancy: occ,
        utilization,
        metrics,
        bounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::UniformKernel;
    use crate::occupancy::BlockResources;

    fn memory_bound_kernel(blocks: u32) -> UniformKernel {
        UniformKernel {
            name: "membound".into(),
            blocks,
            res: BlockResources::new(128, 40, 0),
            profile: BlockProfile {
                issue_cycles: 200.0,
                mem_transactions: 2000,
                bytes_accessed: 64_000,
                unique_bytes: 64_000,
                active_warps: 4,
                thread_active_sum: 64_000,
                thread_useful_sum: 64_000,
                thread_slot_sum: 64_000,
                mlp: 2.0,
                ..Default::default()
            },
        }
    }

    fn latency_bound_kernel(blocks: u32) -> UniformKernel {
        UniformKernel {
            name: "latbound".into(),
            blocks,
            res: BlockResources::new(128, 40, 0),
            profile: BlockProfile {
                issue_cycles: 100.0,
                mem_transactions: 400,
                bytes_accessed: 12_800,
                unique_bytes: 128, // high reuse: everything hits in L2
                active_warps: 4,
                thread_active_sum: 12_800,
                thread_useful_sum: 12_800,
                thread_slot_sum: 12_800,
                mlp: 1.0,
                ..Default::default()
            },
        }
    }

    /// Blocks that only issue instructions: 2 000 cycles each, no memory
    /// traffic.
    fn issue_bound_kernel(blocks: u32) -> UniformKernel {
        UniformKernel {
            name: "issuebound".into(),
            blocks,
            res: BlockResources::new(128, 40, 0),
            profile: BlockProfile {
                issue_cycles: 2_000.0,
                active_warps: 4,
                ..Default::default()
            },
        }
    }

    #[test]
    fn makespan_meets_equation_2_and_graham_tail() {
        let arch = GpuArch::v100();
        for k in [
            memory_bound_kernel(7),
            memory_bound_kernel(500),
            latency_bound_kernel(20_000),
            issue_bound_kernel(100),
            issue_bound_kernel(10_000),
        ] {
            let r = launch(&k, &arch, &LaunchConfig::default()).unwrap();
            let slots = f64::from(arch.num_sms * r.occupancy.blocks_per_sm);
            // Equation 2's `Σ l_b / slots` and the longest solo block.
            let work = r.block_times.iter().sum::<f64>() / slots;
            let straggler = r.block_solo_times.iter().copied().fold(0.0, f64::max);
            let grid = k.blocks;
            assert!(r.makespan_cycles >= work, "{} x{grid}", k.name);
            assert!(r.makespan_cycles >= straggler, "{} x{grid}", k.name);
            if r.bounds.binding() == "slots+tail" {
                let graham = work + (1.0 - 1.0 / slots) * straggler;
                let rel = (r.makespan_cycles - graham).abs() / graham;
                assert!(rel < 1e-12, "{} x{grid}: {rel}", k.name);
            }
            if k.name == "issuebound" && grid == 10_000 {
                // On a V100's 960 slots: a 500-cycle straggler tail on
                // 62 500 cycles of work, 0.8 % above Equation 2.
                assert_eq!(r.bounds.binding(), "slots+tail");
                let above = r.makespan_cycles / work - 1.0;
                assert!((0.0..0.01).contains(&above), "{above}");
            }
        }
    }

    #[test]
    fn launch_reports_all_blocks() {
        let k = memory_bound_kernel(500);
        let r = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        assert_eq!(r.block_times.len(), 500);
        assert!(r.latency_us > GpuArch::v100().kernel_launch_us);
    }

    #[test]
    fn empty_grid_rejected() {
        let k = memory_bound_kernel(0);
        assert!(matches!(
            launch(&k, &GpuArch::v100(), &LaunchConfig::default()),
            Err(LaunchError::EmptyGrid)
        ));
    }

    #[test]
    fn a_grid_that_moves_no_memory_costs_its_launch() {
        let mut k = latency_bound_kernel(16);
        k.profile = BlockProfile {
            issue_cycles: 0.0,
            mem_transactions: 0,
            bytes_accessed: 0,
            unique_bytes: 0,
            ..k.profile
        };
        let arch = GpuArch::v100();
        let r = launch(&k, &arch, &LaunchConfig::default()).unwrap();
        assert!(r.latency_us.is_finite(), "{}", r.latency_us);
        assert_eq!(r.bounds.supply_cycles, 0.0);
        assert!(r.latency_us >= arch.kernel_launch_us);
    }

    #[test]
    fn unlaunchable_rejected() {
        let mut k = memory_bound_kernel(10);
        k.res = BlockResources::new(128, 40, 999_999);
        assert!(matches!(
            launch(&k, &GpuArch::v100(), &LaunchConfig::default()),
            Err(LaunchError::Unlaunchable)
        ));
    }

    #[test]
    fn higher_occupancy_helps_latency_bound_kernels() {
        // A latency-bound kernel gains from more resident blocks (more slots
        // hide the same per-block latency).
        let arch = GpuArch::v100();
        let k = latency_bound_kernel(20_000);
        let low = launch(&k, &arch, &LaunchConfig::with_occupancy(1)).unwrap();
        let high = launch(&k, &arch, &LaunchConfig::with_occupancy(8)).unwrap();
        assert!(
            high.latency_us < low.latency_us * 0.5,
            "high occ {} vs low occ {}",
            high.latency_us,
            low.latency_us
        );
    }

    #[test]
    fn bandwidth_bound_kernels_insensitive_to_occupancy() {
        // A DRAM-saturated kernel cannot gain much from residency.
        let arch = GpuArch::v100();
        let mut k = memory_bound_kernel(20_000);
        // Huge unique working set (all DRAM) and enough memory-level
        // parallelism that latency is hidden even at 2 blocks/SM.
        k.profile.unique_bytes = k.profile.bytes_accessed;
        k.profile.mlp = 16.0;
        let low = launch(&k, &arch, &LaunchConfig::with_occupancy(2)).unwrap();
        let high = launch(&k, &arch, &LaunchConfig::with_occupancy(8)).unwrap();
        let ratio = low.latency_us / high.latency_us;
        assert!(ratio < 1.3, "bandwidth-bound ratio {ratio} should be ~1");
    }

    #[test]
    fn forced_low_occupancy_spills_and_slows_register_hungry_kernels() {
        // Figure 12's cliff: a register-hungry schedule under a tight
        // occupancy target spills and gets slower than its natural launch.
        let arch = GpuArch::v100();
        let mut k = latency_bound_kernel(20_000);
        k.res = BlockResources::new(128, 96, 0);
        let natural = launch(&k, &arch, &LaunchConfig::default()).unwrap();
        let forced = launch(&k, &arch, &LaunchConfig::with_occupancy(16)).unwrap();
        // Forcing 16 blocks/SM with 96 regs/thread requires capping to
        // 65536/(16·128) = 32 regs → 64 spilled.
        assert!(forced.metrics.dram_bytes > natural.metrics.dram_bytes);
    }

    #[test]
    fn fn_pointer_dispatch_slows_issue_bound_kernels() {
        let arch = GpuArch::v100();
        let mut k = latency_bound_kernel(20_000);
        k.profile.issue_cycles = 40_000.0; // firmly issue-bound
        let ifelse = launch(&k, &arch, &LaunchConfig::default()).unwrap();
        let fnptr = launch(
            &k,
            &arch,
            &LaunchConfig {
                issue_multiplier: 1.45,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(fnptr.latency_us > ifelse.latency_us * 1.2);
    }

    #[test]
    fn metrics_are_bounded() {
        let k = memory_bound_kernel(5000);
        let r = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        let m = &r.metrics;
        assert!(m.max_bandwidth_pct > 0.0 && m.max_bandwidth_pct <= 100.0);
        assert!(m.l2_throughput_pct >= 0.0 && m.l2_throughput_pct <= 100.0);
        assert!(m.avg_active_threads_per_warp > 0.0 && m.avg_active_threads_per_warp <= 32.0);
        assert!(m.avg_not_pred_off_threads_per_warp <= m.avg_active_threads_per_warp);
    }

    #[test]
    fn block_time_sum_matches_ranges() {
        let k = memory_bound_kernel(100);
        let r = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        let total: f64 = r.block_times.iter().sum();
        let split = r.block_time_sum(0..40) + r.block_time_sum(40..100);
        assert!((total - split).abs() < 1e-9);
    }

    #[test]
    fn determinism() {
        let k = memory_bound_kernel(1234);
        let arch = GpuArch::a100();
        let a = launch(&k, &arch, &LaunchConfig::default()).unwrap();
        let b = launch(&k, &arch, &LaunchConfig::default()).unwrap();
        assert_eq!(a.latency_us, b.latency_us);
        assert_eq!(a.block_times, b.block_times);
    }

    /// Block `b` does `b + 1` units of work, so block times must rise with
    /// the index: a profile merged at the wrong index shows.
    struct RampKernel(u32);

    impl SimKernel for RampKernel {
        fn name(&self) -> &str {
            "ramp"
        }
        fn grid_blocks(&self) -> u32 {
            self.0
        }
        fn resources(&self) -> BlockResources {
            BlockResources::new(128, 40, 0)
        }
        fn profile_block(&self, b: u32, _ctx: &ProfileCtx) -> BlockProfile {
            let w = 1 + u64::from(b);
            BlockProfile {
                issue_cycles: 40.0 + w as f64 * 3.7,
                mem_transactions: 40 * w,
                bytes_accessed: 1280 * w,
                unique_bytes: 320 * w,
                active_warps: 4,
                thread_active_sum: 1000 * w,
                thread_useful_sum: 900 * w,
                thread_slot_sum: 1024 * w,
                mlp: 2.0,
                critical_mem_chain: w,
                ..Default::default()
            }
        }
    }

    #[test]
    fn reports_are_bit_equal_at_one_and_two_threads_around_the_inline_threshold() {
        let arch = GpuArch::v100();
        let cfg = LaunchConfig::default();
        let (one, two) = (rayon::ThreadPool::new(1), rayon::ThreadPool::new(2));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for grid in [
            INLINE_PROFILE_BLOCKS - 1,
            INLINE_PROFILE_BLOCKS,
            INLINE_PROFILE_BLOCKS + 1,
        ] {
            let k = RampKernel(grid);
            let a = one.install(|| launch(&k, &arch, &cfg)).unwrap();
            let b = two.install(|| launch(&k, &arch, &cfg)).unwrap();
            assert_eq!(a.latency_us.to_bits(), b.latency_us.to_bits(), "{grid}");
            assert_eq!(bits(&a.block_times), bits(&b.block_times), "{grid}");
            assert_eq!(bits(&a.block_solo_times), bits(&b.block_solo_times));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "grid {grid}");
            assert!(a.block_times.windows(2).all(|t| t[0] < t[1]), "{grid}");
        }
    }

    #[test]
    fn a100_faster_than_v100_for_bandwidth_bound() {
        let k = memory_bound_kernel(20_000);
        let v = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        let a = launch(&k, &GpuArch::a100(), &LaunchConfig::default()).unwrap();
        assert!(a.latency_us < v.latency_us);
    }
}

#[cfg(test)]
mod bound_tests {
    use super::*;
    use crate::kernel::UniformKernel;
    use crate::occupancy::BlockResources;

    #[test]
    fn breakdown_is_consistent_with_makespan() {
        let k = UniformKernel {
            name: "b".into(),
            blocks: 3000,
            res: BlockResources::new(128, 40, 0),
            profile: BlockProfile {
                issue_cycles: 300.0,
                mem_transactions: 900,
                bytes_accessed: 28_800,
                unique_bytes: 28_800,
                active_warps: 4,
                thread_active_sum: 28_800,
                thread_useful_sum: 28_800,
                thread_slot_sum: 28_800,
                mlp: 4.0,
                ..Default::default()
            },
        };
        let r = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        assert_eq!(r.bounds.makespan(), r.makespan_cycles);
        assert!(!r.bounds.binding().is_empty());
        // Every component is a genuine lower bound.
        for b in [
            r.bounds.dram_cycles,
            r.bounds.l2_cycles,
            r.bounds.issue_cycles,
            r.bounds.lsu_cycles,
            r.bounds.supply_cycles,
        ] {
            assert!(b <= r.makespan_cycles + 1e-9);
        }
    }

    #[test]
    fn memory_bound_kernel_reports_memory_binding() {
        let k = UniformKernel {
            name: "m".into(),
            blocks: 20_000,
            res: BlockResources::new(128, 40, 0),
            profile: BlockProfile {
                issue_cycles: 10.0,
                mem_transactions: 4000,
                bytes_accessed: 128_000,
                unique_bytes: 128_000,
                active_warps: 4,
                thread_active_sum: 1,
                thread_useful_sum: 1,
                thread_slot_sum: 1,
                mlp: 8.0,
                critical_mem_chain: 100,
                ..Default::default()
            },
        };
        let r = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        let binding = r.bounds.binding();
        assert!(
            binding == "dram" || binding == "supply" || binding == "slots+tail",
            "unexpected binding {binding}"
        );
        assert_ne!(binding, "issue");
    }
}
