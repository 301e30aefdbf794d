//! The co-execution kernel of the local tuning stage (paper Figure 7).
//!
//! All candidates of one feature run in a single kernel on duplicated
//! inputs `ξ^(f)`, so they are ranked under identical conditions; padding
//! blocks emulating the other features' memory behaviour fill the SM slots
//! so intra-SM contention and grid-level L2 pressure match a busy fused
//! kernel. Without the padding, a single feature's blocks would spread
//! across idle SMs and occupancy would stop mattering — the exact failure
//! mode the paper describes for the straw-man tuner.

use recflex_data::FeatureBatch;
use recflex_embedding::FeatureWorkload;
use recflex_schedules::{BaseBlockProfile, ScheduleInstance};
use recflex_sim::{BlockProfile, BlockResources, ProfileCtx, SimKernel};
use std::ops::Range;

/// A synthetic profile standing in for "one average block of the rest of
/// the model" — the redundant embedding operations the paper's padding
/// blocks perform.
pub fn padding_profile(history: &[Vec<FeatureWorkload>]) -> BlockProfile {
    // Aggregate the model's per-block averages over all features/batches.
    let mut total_bytes = 0u64;
    let mut unique_bytes = 0u64;
    let mut total_lookups = 0u64;
    let mut n_blocks = 0u64;
    for batch in history {
        for w in batch {
            total_bytes += w.bytes_read();
            unique_bytes += w.unique_bytes();
            total_lookups += w.total_lookups as u64;
            // Assume a generic 4-samples-per-block mapping for sizing.
            n_blocks += (w.batch_size as u64).div_ceil(4).max(1);
        }
    }
    let n_blocks = n_blocks.max(1) / history.len().max(1) as u64;
    let bytes = (total_bytes / history.len().max(1) as u64) / n_blocks.max(1);
    let unique = (unique_bytes / history.len().max(1) as u64) / n_blocks.max(1);
    let lookups = (total_lookups / history.len().max(1) as u64) / n_blocks.max(1);
    let transactions = bytes / 32;
    BlockProfile {
        issue_cycles: (transactions as f64 * 3.0).max(50.0),
        mem_transactions: transactions.max(4),
        bytes_accessed: bytes.max(128),
        unique_bytes: unique.min(bytes).max(64),
        bytes_written: lookups.max(1) * 16,
        active_warps: 4,
        thread_active_sum: transactions * 32,
        thread_useful_sum: transactions * 24,
        thread_slot_sum: transactions * 32,
        barriers: 0,
        flops: lookups.max(1) * 32,
        mlp: 3.5,
        critical_mem_chain: (transactions / 4).max(1),
        uvm_bytes: 0,
        uvm_transactions: 0,
    }
}

/// Co-execution kernel: candidate segments + padding blocks.
pub struct CoExecKernel<'a> {
    /// The feature's candidates, each given its own block segment on a
    /// duplicate of the same input.
    pub candidates: &'a [ScheduleInstance],
    /// The feature's CSR (shared by all segments — the duplicated `ξ^(f)`).
    pub fb: &'a FeatureBatch,
    /// The feature's workload analysis.
    pub workload: &'a FeatureWorkload,
    /// Block ranges per candidate.
    segments: Vec<Range<u32>>,
    /// Number of trailing padding blocks.
    pub pad_blocks: u32,
    /// The profile every padding block reports.
    pub pad_profile: BlockProfile,
    resources: BlockResources,
}

impl<'a> CoExecKernel<'a> {
    /// Build the co-execution kernel. `pad_blocks` trailing blocks carry
    /// `pad_profile` (use zero padding for straw-man isolated launches).
    pub fn new(
        candidates: &'a [ScheduleInstance],
        fb: &'a FeatureBatch,
        workload: &'a FeatureWorkload,
        pad_blocks: u32,
        pad_profile: BlockProfile,
    ) -> Self {
        assert!(!candidates.is_empty());
        let mut segments = Vec::with_capacity(candidates.len());
        let mut cursor = 0u32;
        for c in candidates {
            let nb = c.required_blocks(workload);
            segments.push(cursor..cursor + nb);
            cursor += nb;
        }
        let resources = candidates
            .iter()
            .map(|c| c.resources())
            .reduce(|a, b| a.union(&b))
            .expect("non-empty candidates");
        CoExecKernel {
            candidates,
            fb,
            workload,
            segments,
            pad_blocks,
            pad_profile,
            resources,
        }
    }

    /// Block range of candidate `i` (for scoring from a launch report).
    pub fn segment(&self, i: usize) -> Range<usize> {
        let r = &self.segments[i];
        r.start as usize..r.end as usize
    }

    /// Grid blocks excluding padding.
    pub fn work_blocks(&self) -> u32 {
        self.segments.last().map(|r| r.end).unwrap_or(0)
    }

    /// Every work block's profile before occupancy control, in grid order:
    /// what the local stage profiles once and finishes per level.
    pub fn base_profiles(&self) -> Vec<BaseBlockProfile> {
        let mut out = Vec::with_capacity(self.work_blocks() as usize);
        for (cand, seg) in self.candidates.iter().zip(&self.segments) {
            out.extend(
                seg.clone()
                    .map(|b| cand.base_block_profile(self.fb, self.workload, b - seg.start)),
            );
        }
        out
    }
}

impl SimKernel for CoExecKernel<'_> {
    fn name(&self) -> &str {
        "recflex_coexec"
    }

    fn grid_blocks(&self) -> u32 {
        self.work_blocks().saturating_add(self.pad_blocks)
    }

    fn resources(&self) -> BlockResources {
        self.resources
    }

    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        if block_idx >= self.work_blocks() {
            return self.pad_profile;
        }
        // Segments are few (tens); linear scan is branch-predictor friendly.
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.contains(&block_idx) {
                let rel = block_idx - seg.start;
                return self.candidates[i].block_profile(self.fb, self.workload, rel, ctx.reg_cap);
            }
        }
        unreachable!("block {block_idx} outside all segments")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{Batch, ModelPreset};
    use recflex_embedding::analyze_batch;
    use recflex_schedules::enumerate_candidates;
    use recflex_sim::{launch, GpuArch, LaunchConfig};

    fn setup() -> (recflex_data::ModelConfig, Batch) {
        let m = ModelPreset::A.scaled(0.01);
        let b = Batch::generate(&m, 64, 3);
        (m, b)
    }

    #[test]
    fn segments_partition_work_blocks() {
        let (m, b) = setup();
        let ws = analyze_batch(&m, &b);
        let f = m.features.len() - 1; // a multi-hot feature
        let cs = enumerate_candidates(f, &m.features[f]).unwrap();
        let pad = padding_profile(std::slice::from_ref(&ws));
        let k = CoExecKernel::new(&cs.candidates, &b.features[f], &ws[f], 100, pad);
        let mut covered = 0u32;
        for i in 0..cs.len() {
            let seg = k.segment(i);
            assert_eq!(seg.start as u32, covered);
            covered = seg.end as u32;
            assert_eq!(
                (seg.end - seg.start) as u32,
                cs.candidates[i].required_blocks(&ws[f])
            );
        }
        assert_eq!(covered, k.work_blocks());
        assert_eq!(k.grid_blocks(), covered + 100);
    }

    #[test]
    fn padding_blocks_report_pad_profile() {
        let (m, b) = setup();
        let ws = analyze_batch(&m, &b);
        let cs = enumerate_candidates(0, &m.features[0]).unwrap();
        let pad = padding_profile(std::slice::from_ref(&ws));
        let k = CoExecKernel::new(&cs.candidates, &b.features[0], &ws[0], 10, pad);
        let ctx = ProfileCtx::default();
        let p = k.profile_block(k.grid_blocks() - 1, &ctx);
        assert_eq!(p, pad);
    }

    #[test]
    fn coexec_launches_and_scores_segments() {
        let (m, b) = setup();
        let ws = analyze_batch(&m, &b);
        let f = m.features.len() - 1;
        let cs = enumerate_candidates(f, &m.features[f]).unwrap();
        let pad = padding_profile(std::slice::from_ref(&ws));
        let k = CoExecKernel::new(&cs.candidates, &b.features[f], &ws[f], 320, pad);
        let report = launch(&k, &GpuArch::v100(), &LaunchConfig::with_occupancy(4)).unwrap();
        // Every candidate gets a finite positive score.
        for i in 0..cs.len() {
            let score = report.block_time_sum(k.segment(i));
            assert!(score.is_finite() && score > 0.0, "candidate {i}");
        }
    }

    #[test]
    fn padding_profile_is_memory_heavy() {
        let (m, b) = setup();
        let ws = analyze_batch(&m, &b);
        let pad = padding_profile(&[ws]);
        assert!(pad.bytes_accessed > 0);
        assert!(pad.unique_bytes <= pad.bytes_accessed);
        assert!(pad.mem_transactions > 0);
    }
}
