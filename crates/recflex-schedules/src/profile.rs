//! Analytic per-block profiling of schedules.
//!
//! Given a feature's CSR and a block index, each schedule computes the
//! block's [`BlockProfile`] exactly as the corresponding CUDA code would
//! behave:
//!
//! * **Coalescing** — loads are counted in 32-byte sectors. A warp-per-
//!   sample schedule reading a contiguous row produces `ceil(row_bytes/32)`
//!   sectors; a row-per-thread schedule's lanes each hit their own row, so
//!   every vector load is its own sector and small dims over-fetch.
//! * **Divergence** — a warp iterates to the *maximum* pooling factor among
//!   its samples; lanes whose sample is exhausted idle (the paper's Table II
//!   "Avg. Active Threads Per Warp" gap).
//! * **Predication** — lanes beyond the embedding dimension are predicated
//!   off (the TorchRec max-dim penalty).
//! * **Spilling** — if occupancy control capped registers below the
//!   schedule's natural demand, the overflow spills once per pooling-loop
//!   round.

use crate::template::{ScheduleInstance, ScheduleKind};
use recflex_data::FeatureBatch;
use recflex_embedding::FeatureWorkload;
use recflex_sim::BlockProfile;

/// Sectors needed to read `dim × 4` contiguous bytes in chunks of
/// `lanes × vec` floats.
fn sectors_per_row(dim: u32, lanes: u32, vec: u32) -> u64 {
    let chunk_floats = lanes * vec;
    let mut sectors = 0u64;
    let mut remaining = dim;
    while remaining > 0 {
        let this = remaining.min(chunk_floats);
        sectors += (this as u64 * 4).div_ceil(32);
        remaining -= this;
    }
    sectors.max(1)
}

/// The feature's first-touch share of its table bytes: a block's
/// grid-level reuse, exact at feature granularity.
fn unique_fraction(w: &FeatureWorkload) -> f64 {
    if w.bytes_read() == 0 {
        1.0
    } else {
        w.unique_bytes() as f64 / w.bytes_read() as f64
    }
}

/// Largest pooling factor among samples `s0..s1`.
fn max_pf(fb: &FeatureBatch, s0: u32, s1: u32) -> u32 {
    (s0..s1).map(|s| fb.pooling_factor(s)).max().unwrap_or(0)
}

/// A block's demands before occupancy control touches it: no register
/// cap, every table row on the device. Everything a launch changes about
/// the block afterwards is in [`ScheduleInstance::finish_block_profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaseBlockProfile {
    /// The block's demands with every register resident.
    pub(crate) profile: BlockProfile,
    /// Largest pooling factor among the block's samples, which sets the
    /// pooling-loop rounds a register cap spills over; `None` for an idle
    /// block, which has no samples and is never finished.
    pub(crate) max_pf: Option<u32>,
}

impl ScheduleInstance {
    /// Profile block `rel_bidx` of this schedule over feature batch `fb`:
    /// the base profile finished for `reg_cap`, the occupancy-control
    /// register budget. Blocks whose sample range is empty (possible under
    /// static over-allocation) report an idle profile.
    pub fn block_profile(
        &self,
        fb: &FeatureBatch,
        w: &FeatureWorkload,
        rel_bidx: u32,
        reg_cap: Option<u32>,
    ) -> BlockProfile {
        let Some((s0, s1)) = self.block_samples(fb, rel_bidx) else {
            return BlockProfile::idle();
        };
        let mut p = self.unfinished_profile(fb, w, s0, s1);
        let threads = self.params.threads_per_block;
        self.finish(&mut p, || max_pf(fb, s0, s1), threads, w, reg_cap);
        p
    }

    /// The part of [`Self::block_profile`] no register cap changes.
    pub fn base_block_profile(
        &self,
        fb: &FeatureBatch,
        w: &FeatureWorkload,
        rel_bidx: u32,
    ) -> BaseBlockProfile {
        match self.block_samples(fb, rel_bidx) {
            None => BaseBlockProfile {
                profile: BlockProfile::idle(),
                max_pf: None,
            },
            Some((s0, s1)) => BaseBlockProfile {
                profile: self.unfinished_profile(fb, w, s0, s1),
                max_pf: Some(max_pf(fb, s0, s1)),
            },
        }
    }

    /// Finish `base` for a launch that capped registers at `reg_cap`:
    /// add the spill traffic, then demote `w`'s cold share of all traffic
    /// to UVM, in that order.
    pub fn finish_block_profile(
        &self,
        base: &BaseBlockProfile,
        w: &FeatureWorkload,
        reg_cap: Option<u32>,
    ) -> BlockProfile {
        let mut p = base.profile;
        if let Some(max_pf) = base.max_pf {
            let threads = self.params.threads_per_block;
            self.finish(&mut p, || max_pf, threads, w, reg_cap);
        }
        p
    }

    /// The pooling factor that alone decides block `rel_bidx`'s profile
    /// over `fb`, for a schedule whose blocks each pool one sample
    /// (`SamplePerBlock`): everything else its [`Self::block_profile`] and
    /// [`Self::base_block_profile`] read — the schedule, the register cap,
    /// the feature's reuse and UVM share — is the same for every block of
    /// one feature in one launch. So two such blocks of one feature with
    /// one key profile alike. `None` for other schedules, whose blocks pool
    /// several samples, and for a block past the batch.
    pub fn profile_key(&self, fb: &FeatureBatch, rel_bidx: u32) -> Option<u32> {
        match self.kind {
            ScheduleKind::SamplePerBlock => self
                .block_samples(fb, rel_bidx)
                .map(|(s, _)| fb.pooling_factor(s)),
            _ => None,
        }
    }

    /// The profile of samples `s0..s1` before the finishing step.
    fn unfinished_profile(
        &self,
        fb: &FeatureBatch,
        w: &FeatureWorkload,
        s0: u32,
        s1: u32,
    ) -> BlockProfile {
        let unique_frac = unique_fraction(w);
        match self.kind {
            ScheduleKind::SamplePerBlock => self.profile_sample_per_block(fb, s0, unique_frac),
            ScheduleKind::GatherScatter => self.profile_gather(fb, s0, s1, unique_frac),
            _ => self.profile_grouped(fb, s0, s1, unique_frac),
        }
    }

    /// The finishing step shared by block and warp profiles of `threads`
    /// threads. `max_pf` yields the longest sample's pooling factor; it
    /// is called only when the cap spills.
    fn finish(
        &self,
        p: &mut BlockProfile,
        max_pf: impl FnOnce() -> u32,
        threads: u32,
        w: &FeatureWorkload,
        reg_cap: Option<u32>,
    ) {
        // Register spilling under occupancy control: the register set is
        // cycled once per pooling-loop round.
        if let Some(cap) = reg_cap {
            let natural = self.natural_regs();
            if cap < natural {
                let rounds = (max_pf() as u64).div_ceil(self.params.unroll as u64).max(1);
                p.add_spill(natural - cap, threads, rounds);
            }
        }
        // Host-resident table rows missing the GPU hot cache travel over
        // the interconnect (paper Section VII's UVM schedules).
        p.demote_to_uvm(w.uvm_cold_frac);
    }

    /// Whether this schedule can be dispatched at *warp* granularity
    /// (paper Section IV-B: the thread-mapping unit "can be extended to
    /// other thread group structures like warps"). Schedules that use
    /// block-wide shared memory or `__syncthreads()` need whole blocks.
    pub fn supports_warp_mapping(&self) -> bool {
        matches!(
            self.kind,
            ScheduleKind::RowPerThread | ScheduleKind::SubWarp | ScheduleKind::SamplePerWarp
        )
    }

    /// Warp tasks needed for a live workload under warp-granularity
    /// mapping: one task per `samples_per_warp()` samples.
    pub fn required_warps(&self, w: &FeatureWorkload) -> u32 {
        w.batch_size.div_ceil(self.samples_per_warp()).max(1)
    }

    /// Profile of a single *warp task* `rel_widx` (the warp-granularity
    /// analogue of [`Self::block_profile`]). Only meaningful for
    /// [`Self::supports_warp_mapping`] schedules.
    pub fn warp_profile(
        &self,
        fb: &FeatureBatch,
        w: &FeatureWorkload,
        rel_widx: u32,
        reg_cap: Option<u32>,
    ) -> BlockProfile {
        debug_assert!(self.supports_warp_mapping());
        let spw = self.samples_per_warp();
        let s0 = rel_widx.saturating_mul(spw);
        if s0 >= fb.batch_size() {
            return BlockProfile::idle();
        }
        let s1 = (s0 + spw).min(fb.batch_size());
        let mut p = self.profile_grouped(fb, s0, s1, unique_fraction(w));
        self.finish(&mut p, || max_pf(fb, s0, s1), 32, w, reg_cap);
        p
    }

    /// Profile for RowPerThread / SubWarp / SamplePerWarp / SmemStaged:
    /// `group_size` lanes per sample, several samples per warp.
    fn profile_grouped(
        &self,
        fb: &FeatureBatch,
        s0: u32,
        s1: u32,
        unique_frac: f64,
    ) -> BlockProfile {
        let g = self.params.group_size;
        let vec = self.params.vector_width;
        let dim = self.emb_dim;
        let spw = self.samples_per_warp();
        let chunks = self.chunks_per_row() as u64;
        let scattered = matches!(self.kind, ScheduleKind::RowPerThread);
        let row_sectors = if scattered {
            chunks
        } else {
            sectors_per_row(dim, g, vec)
        };
        let useful_lane_iters_per_row = (dim as u64).div_ceil(vec as u64);
        let out_sectors_per_sample = if scattered {
            chunks // lanes write their own sample's vector: scattered
        } else {
            sectors_per_row(dim, g, vec)
        };

        let staged = matches!(self.kind, ScheduleKind::SmemStaged);
        let instr_per_iter =
            1.0 + vec as f64 + 3.0 / self.params.unroll as f64 + if staged { 2.0 } else { 0.0 };

        let mut p = BlockProfile::default();
        let mut s = s0;
        let mut warps = 0u32;
        let mut block_max_pf = 0u32;
        let mut critical = 0u64;
        while s < s1 {
            let e = (s + spw).min(s1);
            let mut max_pf = 0u64;
            let mut sum_pf = 0u64;
            for si in s..e {
                let pf = fb.pooling_factor(si) as u64;
                max_pf = max_pf.max(pf);
                sum_pf += pf;
            }
            block_max_pf = block_max_pf.max(max_pf as u32);
            let warp_iters = max_pf * chunks;
            // This warp's dependent-load chain: one load per iteration.
            critical = critical.max(warp_iters);
            p.issue_cycles += warp_iters as f64 * instr_per_iter;
            p.mem_transactions += sum_pf * row_sectors;
            p.bytes_accessed += sum_pf * row_sectors * 32;
            p.thread_active_sum += sum_pf * chunks * g as u64;
            p.thread_useful_sum += sum_pf * useful_lane_iters_per_row;
            p.thread_slot_sum += warp_iters * 32;

            // Output stores: one pooled vector per sample in the warp.
            let n_samples = (e - s) as u64;
            p.mem_transactions += n_samples * out_sectors_per_sample;
            p.bytes_written += n_samples * out_sectors_per_sample * 32;
            p.issue_cycles += (n_samples * chunks) as f64 * 1.5;

            warps += 1;
            s = e;
        }

        p.active_warps = warps;
        // Prologue: the task-map entry and the argument pack are two
        // dependent global loads before any embedding work can start
        // (Figure 8 lines 8–11) — a real fixed cost per block that
        // penalizes schedules splintering the batch into tiny blocks.
        p.critical_mem_chain = critical + chunks + 2;
        p.mem_transactions += 2;
        p.unique_bytes = (p.bytes_accessed as f64 * unique_frac) as u64 + 64;
        p.bytes_accessed += 64;
        p.issue_cycles += 20.0;
        p.flops = (s0..s1).map(|si| fb.pooling_factor(si) as u64).sum::<u64>() * dim as u64;
        // Pooling loads are independent gathers; a warp keeps several in
        // flight, bounded by its scoreboard/MSHR share. Unrolling and
        // vectorization raise the sustainable depth.
        p.mlp = if staged {
            (self.params.stage_rows as f64 / 2.0).min(8.0)
        } else {
            (1.5 + self.params.unroll as f64 * vec as f64 / 2.0).min(6.0)
        };
        if staged {
            // One block-wide barrier per staging round.
            let rounds = (block_max_pf as u64).div_ceil(self.params.stage_rows.max(1) as u64);
            p.barriers += rounds as u32;
        }
        p
    }

    /// Profile for SamplePerBlock: the whole block serves sample `s`.
    fn profile_sample_per_block(
        &self,
        fb: &FeatureBatch,
        s: u32,
        unique_frac: f64,
    ) -> BlockProfile {
        let vec = self.params.vector_width;
        let dim = self.emb_dim;
        let num_warps = (self.params.threads_per_block / 32).max(1);
        let pf = fb.pooling_factor(s) as u64;
        let chunks = self.chunks_per_row() as u64;
        let row_sectors = sectors_per_row(dim, 32, vec);
        let useful_lane_iters_per_row = (dim as u64).div_ceil(vec as u64);

        let mut p = BlockProfile::default();
        let rows_per_warp = pf.div_ceil(num_warps as u64);
        let active_warps = pf.min(num_warps as u64).max(1) as u32;
        let warp_iters = rows_per_warp * chunks;
        let instr_per_iter = 1.0 + vec as f64 + 3.0 / self.params.unroll as f64;

        p.issue_cycles = active_warps as f64 * warp_iters as f64 * instr_per_iter
            / num_warps as f64
            * num_warps as f64; // total warp-instructions across the block
        p.mem_transactions = pf * row_sectors;
        p.bytes_accessed = pf * row_sectors * 32;
        p.thread_active_sum = pf * chunks * 32;
        p.thread_useful_sum = pf * useful_lane_iters_per_row;
        p.thread_slot_sum = (active_warps as u64 * warp_iters).max(1) * 32;

        // Cross-warp tree reduction through shared memory + final store.
        let out_sectors = sectors_per_row(dim, 32, vec);
        p.mem_transactions += out_sectors;
        p.bytes_written = out_sectors * 32;
        p.issue_cycles += num_warps as f64 * chunks as f64 * 3.0 + 25.0;
        p.barriers = 2;
        p.active_warps = active_warps;
        // Rows split across warps shorten the chain; + reduction round and
        // the two dependent prologue loads (task map, argument pack).
        p.critical_mem_chain = rows_per_warp * chunks + 2 * chunks + 2;
        p.mem_transactions += 2;
        p.unique_bytes = (p.bytes_accessed as f64 * unique_frac) as u64 + 64;
        p.bytes_accessed += 64;
        p.mlp = (1.5 + self.params.unroll as f64 * vec as f64 / 2.0).min(6.0);
        p.flops = pf * dim as u64 + num_warps as u64 * dim as u64;
        p
    }

    /// Profile for GatherScatter: two balanced streaming phases through a
    /// global scratch buffer (the TensorFlow gather + segment-sum
    /// lowering). Chains are the shortest of any template because every
    /// warp streams an even share of rows; the price is ~3× the memory
    /// traffic, and the scratch bytes are compulsory DRAM (no reuse).
    fn profile_gather(
        &self,
        fb: &FeatureBatch,
        s0: u32,
        s1: u32,
        unique_frac: f64,
    ) -> BlockProfile {
        let vec = self.params.vector_width;
        let dim = self.emb_dim;
        let num_warps = (self.params.threads_per_block / 32).max(1) as u64;
        let chunks = self.chunks_per_row() as u64;
        let row_sectors = sectors_per_row(dim, 32, vec);
        let rows: u64 = (s0..s1).map(|s| fb.pooling_factor(s) as u64).sum();
        let n_samples = (s1 - s0) as u64;

        let mut p = BlockProfile::default();
        let rows_per_warp = rows.div_ceil(num_warps);
        // Phase 1: gather (table read + scratch write), phase 2: reduce
        // (scratch read + output write). All streams, evenly balanced.
        let table_bytes = rows * row_sectors * 32;
        let scratch_bytes = 2 * rows * row_sectors * 32; // write + read back
        let out_sectors = n_samples * sectors_per_row(dim, 32, vec);
        p.mem_transactions = 3 * rows * row_sectors + out_sectors + 2;
        p.bytes_accessed = table_bytes + scratch_bytes + 64;
        p.bytes_written = rows * row_sectors * 32 + out_sectors * 32;
        // Table reads follow feature reuse; scratch traffic is all unique.
        p.unique_bytes = (table_bytes as f64 * unique_frac) as u64 + scratch_bytes + 64;
        p.issue_cycles = (3 * rows_per_warp * chunks) as f64 * (1.0 + vec as f64)
            + n_samples as f64 * chunks as f64 * 1.5
            + 20.0;
        // Both phases stream an even row share per warp; + prologue.
        p.critical_mem_chain = 3 * rows_per_warp * chunks + chunks + 2;
        p.active_warps = rows.min(num_warps).max(1) as u32;
        p.thread_active_sum = 3 * rows * chunks * 32;
        p.thread_useful_sum = 3 * rows * (dim as u64).div_ceil(vec as u64);
        p.thread_slot_sum = 3 * rows * chunks * 32;
        p.barriers = 1;
        p.flops = rows * dim as u64;
        p.mlp = 8.0; // pure streaming copies pipeline deeply
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::ScheduleParams;
    use recflex_data::{FeatureBatch, FeatureSpec, PoolingDist};

    fn workload(fb: &FeatureBatch, dim: u32) -> FeatureWorkload {
        FeatureWorkload::analyze(0, fb, dim, 100_000)
    }

    fn spec(dim: u32, pf: u32) -> FeatureSpec {
        FeatureSpec {
            name: "t".into(),
            table_rows: 100_000,
            emb_dim: dim,
            pooling: PoolingDist::Fixed(pf),
            coverage: 1.0,
            row_skew: 0.0,
        }
    }

    fn inst(
        kind: ScheduleKind,
        t: u32,
        g: u32,
        v: u32,
        u: u32,
        stage: u32,
        dim: u32,
    ) -> ScheduleInstance {
        ScheduleInstance {
            kind,
            params: ScheduleParams {
                threads_per_block: t,
                group_size: g,
                vector_width: v,
                unroll: u,
                stage_rows: stage,
            },
            emb_dim: dim,
        }
    }

    #[test]
    fn sectors_per_row_math() {
        // 32 floats = 128B = 4 sectors read by 32 lanes × 1 float.
        assert_eq!(sectors_per_row(32, 32, 1), 4);
        // 4 floats = 16B → still one 32B sector.
        assert_eq!(sectors_per_row(4, 32, 1), 1);
        // 64 floats by 8 lanes × 4 = 32 floats/chunk: 2 chunks × 4 sectors.
        assert_eq!(sectors_per_row(64, 8, 4), 8);
        // 2 lanes × 1 float = 8B chunks: 16 chunks of 1 sector for dim 32.
        assert_eq!(sectors_per_row(32, 2, 1), 16);
    }

    #[test]
    fn row_per_thread_overfetches_on_wide_dims() {
        let fb = FeatureBatch::generate(&spec(32, 10), 128, 1);
        let w = workload(&fb, 32);
        let rpt = inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 32);
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 32);
        let p_rpt = rpt.block_profile(&fb, &w, 0, None);
        let p_warp = warp.block_profile(&fb, &w, 0, None);
        // RowPerThread: every 1-float load is its own sector → 8× the bytes
        // of the coalesced warp mapping per unit of useful data.
        let rpt_bytes_per_flop = p_rpt.bytes_accessed as f64 / p_rpt.flops as f64;
        let warp_bytes_per_flop = p_warp.bytes_accessed as f64 / p_warp.flops as f64;
        assert!(
            rpt_bytes_per_flop > 4.0 * warp_bytes_per_flop,
            "rpt {rpt_bytes_per_flop} vs warp {warp_bytes_per_flop}"
        );
    }

    #[test]
    fn warp_mapping_wastes_lanes_on_tiny_dims() {
        let fb = FeatureBatch::generate(&spec(4, 1), 256, 2);
        let w = workload(&fb, 4);
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 4);
        let rpt = inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 4);
        let p_warp = warp.block_profile(&fb, &w, 0, None);
        let p_rpt = rpt.block_profile(&fb, &w, 0, None);
        let warp_useful = p_warp.thread_useful_sum as f64 / p_warp.thread_slot_sum as f64;
        let rpt_useful = p_rpt.thread_useful_sum as f64 / p_rpt.thread_slot_sum as f64;
        // 4 of 32 lanes useful for the warp mapping on dim 4.
        assert!(warp_useful < 0.2, "warp useful {warp_useful}");
        assert!(rpt_useful > 0.5, "rpt useful {rpt_useful}");
    }

    #[test]
    fn divergence_tracks_pf_variance() {
        // Warp of 32 samples: one has pf 100, the rest pf 1.
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for s in 0..32 {
            let pf = if s == 0 { 100 } else { 1 };
            for k in 0..pf {
                indices.push((s * 131 + k) % 1000);
            }
            offsets.push(indices.len() as u32);
        }
        let fb = FeatureBatch { offsets, indices };
        let w = workload(&fb, 8);
        let rpt = inst(ScheduleKind::RowPerThread, 32, 1, 1, 1, 0, 8);
        let p = rpt.block_profile(&fb, &w, 0, None);
        // Active fraction ≈ (100+31)/(32×100).
        let frac = p.thread_active_sum as f64 / p.thread_slot_sum as f64;
        assert!(
            frac < 0.1,
            "divergent warp should be mostly idle, got {frac}"
        );
    }

    #[test]
    fn uniform_pf_has_no_divergence() {
        let fb = FeatureBatch::generate(&spec(8, 10), 64, 3);
        let w = workload(&fb, 8);
        let rpt = inst(ScheduleKind::RowPerThread, 64, 1, 1, 1, 0, 8);
        let p = rpt.block_profile(&fb, &w, 0, None);
        assert_eq!(p.thread_active_sum, p.thread_slot_sum);
    }

    #[test]
    fn sample_per_block_parallelizes_rows() {
        let fb = FeatureBatch::generate(&spec(64, 200), 8, 4);
        let w = workload(&fb, 64);
        let blk = inst(ScheduleKind::SamplePerBlock, 256, 256, 4, 1, 0, 64);
        let warp = inst(ScheduleKind::SamplePerWarp, 256, 32, 4, 1, 0, 64);
        let p_blk = blk.block_profile(&fb, &w, 0, None);
        let p_warp = warp.block_profile(&fb, &w, 0, None);
        // Per unit of pooling work, the block mapping issues over ~8 warps
        // in parallel, so its per-sample issue chain is much shorter.
        let blk_chain = p_blk.issue_cycles / p_blk.active_warps.max(1) as f64 / p_blk.flops as f64;
        let warp_chain =
            p_warp.issue_cycles / p_warp.active_warps.max(1) as f64 / (p_warp.flops as f64 / 8.0); // block had 8 samples
        assert!(blk_chain < warp_chain, "blk {blk_chain} warp {warp_chain}");
        assert_eq!(p_blk.barriers, 2);
    }

    #[test]
    fn reg_cap_triggers_spill_traffic() {
        let fb = FeatureBatch::generate(&spec(128, 50), 128, 5);
        let w = workload(&fb, 128);
        let rpt = inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 128);
        let free = rpt.block_profile(&fb, &w, 0, None);
        let capped = rpt.block_profile(&fb, &w, 0, Some(32));
        // 116 spilled regs cycled 50 rounds adds ~22% on top of the already
        // overfetch-heavy RowPerThread baseline.
        assert!(
            capped.bytes_accessed as f64 > free.bytes_accessed as f64 * 1.15,
            "spill traffic must be visible: {} vs {}",
            capped.bytes_accessed,
            free.bytes_accessed
        );
        assert!(capped.issue_cycles > free.issue_cycles);
        // A schedule whose natural demand fits the cap is unaffected.
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 128);
        let wf = warp.block_profile(&fb, &w, 0, None);
        let wc = warp.block_profile(&fb, &w, 0, Some(32));
        assert_eq!(wf, wc);
    }

    #[test]
    fn block_profile_is_the_base_profile_plus_the_finishing_step() {
        // The finishing step spelled out as block_profile applied it before
        // the base profile was split off: spill for the cap over the
        // block's longest sample's pooling-loop rounds, then demote the
        // cold share to UVM. Idle blocks past the batch are never finished.
        let mut s = spec(64, 0);
        s.pooling = PoolingDist::PowerLaw {
            alpha: 1.2,
            max: 90,
        };
        let fb = FeatureBatch::generate(&s, 300, 11);
        let schedules = [
            inst(ScheduleKind::RowPerThread, 128, 1, 1, 2, 0, 64),
            inst(ScheduleKind::SubWarp, 128, 8, 2, 1, 0, 64),
            inst(ScheduleKind::SamplePerWarp, 256, 32, 4, 2, 0, 64),
            inst(ScheduleKind::SamplePerBlock, 128, 128, 2, 4, 0, 64),
            inst(ScheduleKind::SmemStaged, 128, 32, 4, 1, 16, 64),
            inst(ScheduleKind::GatherScatter, 128, 32, 2, 1, 0, 64),
        ];
        let mut spilled = 0;
        for cold in [0.0, 0.3] {
            let w = workload(&fb, 64).with_uvm_cold_frac(cold);
            for sched in &schedules {
                let spb = sched.samples_per_block();
                for b in 0..sched.required_blocks(&w) + 2 {
                    let base = sched.base_block_profile(&fb, &w, b);
                    for cap in [None, Some(32), Some(16)] {
                        let mut expect = base.profile;
                        let s0 = b * spb;
                        if s0 < fb.batch_size() {
                            let s1 = (s0 + spb).min(fb.batch_size());
                            let natural = sched.natural_regs();
                            if let Some(cap) = cap.filter(|&c| c < natural) {
                                let max_pf = (s0..s1).map(|s| fb.pooling_factor(s)).max();
                                let rounds = (max_pf.unwrap() as u64)
                                    .div_ceil(sched.params.unroll as u64)
                                    .max(1);
                                expect.add_spill(
                                    natural - cap,
                                    sched.params.threads_per_block,
                                    rounds,
                                );
                                spilled += 1;
                            }
                            expect.demote_to_uvm(cold);
                        } else {
                            assert_eq!(expect, BlockProfile::idle());
                        }
                        let got = sched.block_profile(&fb, &w, b, cap);
                        let what = format!("{:?} block {b} cap {cap:?} cold {cold}", sched.kind);
                        assert_eq!(got, expect, "{what}");
                        let finished = sched.finish_block_profile(&base, &w, cap);
                        assert_eq!(finished, expect, "{what}, finished from the base");
                    }
                }
            }
        }
        assert!(spilled > 0, "the caps must spill some schedule");
    }

    #[test]
    fn blocks_with_one_profile_key_profile_alike() {
        let mut s = spec(64, 0);
        s.pooling = PoolingDist::PowerLaw {
            alpha: 1.1,
            max: 40,
        };
        s.coverage = 0.7;
        let fb = FeatureBatch::generate(&s, 400, 12);
        let block = inst(ScheduleKind::SamplePerBlock, 128, 128, 2, 1, 0, 64);
        let mut keyed = 0;
        for cold in [0.0, 0.4] {
            let w = workload(&fb, 64).with_uvm_cold_frac(cold);
            for cap in [None, Some(24)] {
                let mut by_key = std::collections::HashMap::new();
                for b in 0..block.required_blocks(&w) + 2 {
                    let p = block.block_profile(&fb, &w, b, cap);
                    match block.profile_key(&fb, b) {
                        None => assert!(b >= fb.batch_size(), "block {b} has a sample"),
                        Some(key) => {
                            assert_eq!(key, fb.pooling_factor(b));
                            let first = *by_key.entry(key).or_insert(p);
                            assert_eq!(p, first, "block {b}, key {key}, cap {cap:?}");
                            keyed += 1;
                        }
                    }
                }
                assert!(by_key.len() > 3, "{} keys", by_key.len());
            }
        }
        assert_eq!(keyed, 4 * 400);
        // Blocks of every other schedule pool several samples: no key.
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 64);
        assert_eq!(warp.profile_key(&fb, 0), None);
    }

    #[test]
    fn out_of_range_block_is_idle() {
        let fb = FeatureBatch::generate(&spec(16, 5), 64, 6);
        let w = workload(&fb, 16);
        let s = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 16);
        // 4 samples/block → 16 blocks needed; block 100 has nothing.
        let p = s.block_profile(&fb, &w, 100, None);
        assert!(p.is_idle());
    }

    #[test]
    fn staged_has_higher_mlp_and_barriers() {
        let fb = FeatureBatch::generate(&spec(32, 64), 32, 7);
        let w = workload(&fb, 32);
        let staged = inst(ScheduleKind::SmemStaged, 128, 32, 4, 1, 16, 32);
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 32);
        let ps = staged.block_profile(&fb, &w, 0, None);
        let pw = warp.block_profile(&fb, &w, 0, None);
        assert!(ps.mlp > pw.mlp);
        assert!(ps.barriers > 0);
        assert_eq!(pw.barriers, 0);
    }

    #[test]
    fn unique_bytes_scaled_by_feature_reuse() {
        let mut s = spec(16, 20);
        s.table_rows = 50; // tiny table → heavy reuse
        let fb = FeatureBatch::generate(&s, 256, 8);
        let w = workload(&fb, 16);
        assert!(w.reuse_factor() > 10.0);
        let sched = inst(ScheduleKind::SamplePerWarp, 128, 32, 1, 1, 0, 16);
        let p = sched.block_profile(&fb, &w, 0, None);
        assert!(p.unique_bytes < p.bytes_accessed / 5);
    }

    #[test]
    fn profiles_cover_whole_batch_exactly_once() {
        let fb = FeatureBatch::generate(&spec(32, 10), 500, 9);
        let w = workload(&fb, 32);
        let s = inst(ScheduleKind::SubWarp, 128, 8, 2, 1, 0, 32);
        let blocks = s.required_blocks(&w);
        let total_flops: u64 = (0..blocks)
            .map(|b| s.block_profile(&fb, &w, b, None).flops)
            .sum();
        assert_eq!(total_flops, w.total_lookups as u64 * 32);
    }
}
