//! Schedule kinds, tunable parameters and resource footprints.

use recflex_data::FeatureBatch;
use recflex_embedding::FeatureWorkload;
use recflex_sim::BlockResources;

/// The five schedule template families (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// One sample per thread; the thread loops over its sample's rows and
    /// accumulates the whole embedding vector in registers. Scattered
    /// (uncoalesced) loads but zero lane waste for tiny dims.
    RowPerThread,
    /// `group_size` (2–16) threads cooperate on one sample, striding the
    /// embedding dimension; several samples share a warp.
    SubWarp,
    /// One warp per sample, lanes across the dimension — the FBGEMM /
    /// TorchRec mapping.
    SamplePerWarp,
    /// One block per sample; warps split the sample's rows and partial
    /// sums are tree-reduced through shared memory — the HugeCTR mapping.
    SamplePerBlock,
    /// Warp per sample with rows staged through shared memory in batches
    /// of `stage_rows`, trading shared memory for memory-level parallelism.
    SmemStaged,
    /// TensorFlow's two-phase lowering: materialize all gathered rows to a
    /// global scratch buffer with perfectly parallel coalesced copies, then
    /// segment-reduce the scratch. Shortest dependence chains of any
    /// template — and 3× the DRAM traffic (read + scratch write + scratch
    /// read-back), which makes it a classic trap for isolated tuning: it
    /// measures fastest when bandwidth is free and poisons a
    /// bandwidth-saturated fused kernel (paper Section II-C, straw-man 1).
    GatherScatter,
}

impl ScheduleKind {
    /// Short name used in reports and generated CUDA.
    pub fn short_name(&self) -> &'static str {
        match self {
            ScheduleKind::RowPerThread => "rpt",
            ScheduleKind::SubWarp => "subwarp",
            ScheduleKind::SamplePerWarp => "warp",
            ScheduleKind::SamplePerBlock => "block",
            ScheduleKind::SmemStaged => "staged",
            ScheduleKind::GatherScatter => "gather",
        }
    }
}

/// Tunable parameters of a schedule instance. The search space over these
/// is what the paper's users define in their template classes (Section V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleParams {
    /// Threads per block (64 / 128 / 256).
    pub threads_per_block: u32,
    /// Threads cooperating on one sample: 1 (RowPerThread), 2–16
    /// (SubWarp), 32 (SamplePerWarp / SmemStaged), or the whole block
    /// (SamplePerBlock).
    pub group_size: u32,
    /// Floats per vectorized load/store (1 / 2 / 4 — `float`, `float2`,
    /// `float4`).
    pub vector_width: u32,
    /// Pooling-loop unroll factor; raises register pressure and
    /// memory-level parallelism.
    pub unroll: u32,
    /// Rows staged in shared memory per round (SmemStaged only, else 0).
    pub stage_rows: u32,
}

/// A concrete schedule: a kind, its parameters and the feature's embedding
/// dimension (the only feature property baked into generated code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleInstance {
    /// Template family.
    pub kind: ScheduleKind,
    /// Tunable parameters.
    pub params: ScheduleParams,
    /// Embedding dimension of the feature this schedule serves.
    pub emb_dim: u32,
}

impl ScheduleInstance {
    /// Samples processed by one block.
    pub fn samples_per_block(&self) -> u32 {
        match self.kind {
            ScheduleKind::SamplePerBlock => 1,
            _ => (self.params.threads_per_block / self.params.group_size).max(1),
        }
    }

    /// Samples sharing one warp (divergence granularity).
    pub fn samples_per_warp(&self) -> u32 {
        match self.kind {
            ScheduleKind::SamplePerBlock => 1,
            _ => (32 / self.params.group_size).max(1),
        }
    }

    /// Embedding elements each cooperating thread accumulates.
    pub fn elems_per_thread(&self) -> u32 {
        let lanes = match self.kind {
            ScheduleKind::SamplePerBlock => 32, // per-warp row processing
            _ => self.params.group_size,
        };
        let per_chunk = lanes * self.params.vector_width;
        self.emb_dim.div_ceil(per_chunk) * self.params.vector_width
    }

    /// Dim chunks iterated per row (`ceil(dim / (lanes × vec))`).
    pub fn chunks_per_row(&self) -> u32 {
        let lanes = match self.kind {
            ScheduleKind::SamplePerBlock => 32,
            _ => self.params.group_size,
        };
        self.emb_dim
            .div_ceil(lanes * self.params.vector_width)
            .max(1)
    }

    /// Natural register demand per thread: base bookkeeping plus the
    /// accumulator vector plus unroll load buffers. This is what makes
    /// RowPerThread on a 128-dim feature a register hog and what feeds
    /// the spill model under occupancy control.
    pub fn natural_regs(&self) -> u32 {
        let base = 18;
        let accumulators = match self.kind {
            ScheduleKind::RowPerThread => self.emb_dim,
            _ => self.elems_per_thread(),
        };
        let unroll_bufs = self.params.unroll * self.params.vector_width * 2;
        (base + accumulators + unroll_bufs).min(255)
    }

    /// Shared memory per block in bytes.
    pub fn smem_bytes(&self) -> u32 {
        match self.kind {
            ScheduleKind::SamplePerBlock => {
                // One partial vector per warp for the cross-warp reduction.
                let warps = self.params.threads_per_block / 32;
                warps * self.emb_dim * 4
            }
            ScheduleKind::SmemStaged => {
                // Each warp stages `stage_rows` rows of its sample.
                let warps = self.params.threads_per_block / 32;
                warps * self.params.stage_rows * self.emb_dim * 4
            }
            _ => 0,
        }
    }

    /// Resource footprint for the occupancy calculator.
    pub fn resources(&self) -> BlockResources {
        BlockResources::new(
            self.params.threads_per_block,
            self.natural_regs(),
            self.smem_bytes(),
        )
    }

    /// Blocks needed for a live batch — the quantity the host-side runtime
    /// thread mapping sums over features. Every sample gets an output (a
    /// zero vector when the feature is absent), so the count depends on
    /// batch size, not on present samples.
    pub fn required_blocks(&self, w: &FeatureWorkload) -> u32 {
        w.batch_size.div_ceil(self.samples_per_block()).max(1)
    }

    /// Samples `s0..s1` of block `rel_bidx` over `fb`, or `None` past the
    /// batch. Profiling and functional execution both ask this, so they
    /// agree on which samples a block owns.
    pub fn block_samples(&self, fb: &FeatureBatch, rel_bidx: u32) -> Option<(u32, u32)> {
        let batch = fb.batch_size();
        let spb = self.samples_per_block();
        let s0 = rel_bidx.saturating_mul(spb);
        (s0 < batch).then(|| (s0, (s0 + spb).min(batch)))
    }

    /// Stable display name, e.g. `warp_t128_v4_u2`.
    pub fn label(&self) -> String {
        let p = &self.params;
        match self.kind {
            ScheduleKind::SubWarp => format!(
                "subwarp{}_t{}_v{}_u{}",
                p.group_size, p.threads_per_block, p.vector_width, p.unroll
            ),
            ScheduleKind::SmemStaged => format!(
                "staged{}_t{}_v{}",
                p.stage_rows, p.threads_per_block, p.vector_width
            ),
            k => format!(
                "{}_t{}_v{}_u{}",
                k.short_name(),
                p.threads_per_block,
                p.vector_width,
                p.unroll
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn samples_per_block_by_kind() {
        assert_eq!(
            inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 8).samples_per_block(),
            128
        );
        assert_eq!(
            inst(ScheduleKind::SubWarp, 128, 4, 1, 1, 0, 16).samples_per_block(),
            32
        );
        assert_eq!(
            inst(ScheduleKind::SamplePerWarp, 256, 32, 4, 1, 0, 64).samples_per_block(),
            8
        );
        assert_eq!(
            inst(ScheduleKind::SamplePerBlock, 128, 128, 4, 1, 0, 64).samples_per_block(),
            1
        );
    }

    #[test]
    fn elems_per_thread_covers_dim() {
        let s = inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 128);
        assert_eq!(s.elems_per_thread(), 4);
        assert_eq!(s.chunks_per_row(), 1);
        let s2 = inst(ScheduleKind::SubWarp, 128, 4, 2, 1, 0, 64);
        // 4 lanes × 2 floats = 8 per chunk → 8 chunks, 16 elems/thread.
        assert_eq!(s2.chunks_per_row(), 8);
        assert_eq!(s2.elems_per_thread(), 16);
    }

    #[test]
    fn row_per_thread_is_register_hungry_for_big_dims() {
        let small = inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 4);
        let big = inst(ScheduleKind::RowPerThread, 128, 1, 1, 1, 0, 128);
        assert!(small.natural_regs() < 32);
        assert!(big.natural_regs() > 120);
        let warp = inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 128);
        assert!(
            warp.natural_regs() < 40,
            "warp mapping splits the dim across lanes"
        );
    }

    #[test]
    fn smem_by_kind() {
        assert_eq!(
            inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 64).smem_bytes(),
            0
        );
        // SamplePerBlock: 4 warps × 64 dims × 4B = 1 KiB.
        assert_eq!(
            inst(ScheduleKind::SamplePerBlock, 128, 128, 4, 1, 0, 64).smem_bytes(),
            1024
        );
        // SmemStaged: 4 warps × 16 rows × 32 dims × 4B = 8 KiB.
        assert_eq!(
            inst(ScheduleKind::SmemStaged, 128, 32, 4, 1, 16, 32).smem_bytes(),
            8192
        );
    }

    #[test]
    fn required_blocks_scale_with_batch() {
        let s = inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 32);
        let w = FeatureWorkload {
            feature_idx: 0,
            batch_size: 512,
            total_lookups: 100,
            unique_rows: 50,
            max_pf: 5,
            mean_pf: 0.2,
            present_samples: 30,
            emb_dim: 32,
            table_rows: 1000,
            uvm_cold_frac: 0.0,
        };
        // 4 samples per block → 128 blocks.
        assert_eq!(s.required_blocks(&w), 128);
    }

    #[test]
    fn labels_are_unique_across_params() {
        let a = inst(ScheduleKind::SamplePerWarp, 128, 32, 4, 1, 0, 32);
        let b = inst(ScheduleKind::SamplePerWarp, 256, 32, 4, 1, 0, 32);
        let c = inst(ScheduleKind::SubWarp, 128, 8, 4, 1, 0, 32);
        assert_ne!(a.label(), b.label());
        assert_ne!(a.label(), c.label());
    }
}
