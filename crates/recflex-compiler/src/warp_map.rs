//! Warp-granularity thread mapping (paper Section IV-B).
//!
//! RecFlex chooses the thread *block* as its mapping unit for convenience
//! (separate shared memories, block-level intrinsics) but notes the design
//! "can be extended to other thread group structures like warps". This
//! module implements that extension for schedules that need no block-wide
//! shared memory or synchronization: warp *tasks* — one per
//! `samples_per_warp` samples of one feature — are packed densely into
//! physical blocks, so a feature needing 2.2 blocks' worth of warps no
//! longer rounds up to 3 whole blocks. The trade-offs are real on both
//! sides: finer packing (less fragmentation for small features, better for
//! small batches) versus one task-map read per *warp* instead of per block.

use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{analyze_batch, FeatureWorkload};
use recflex_schedules::ScheduleInstance;
use recflex_sim::{BlockProfile, BlockResources, ProfileCtx, SimKernel};

/// The warp-granularity task map: one entry per warp task.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpTaskMap {
    /// Per warp task: `(feature_idx, rel_widx)`.
    pub entries: Vec<(u32, u32)>,
    /// Warp tasks allocated per feature.
    pub warps_per_feature: Vec<u32>,
}

impl WarpTaskMap {
    /// Build the runtime warp map from the live workload analysis.
    ///
    /// Returns `None` if any schedule cannot be warp-mapped (block-wide
    /// shared memory / synchronization).
    pub fn runtime(schedules: &[ScheduleInstance], workloads: &[FeatureWorkload]) -> Option<Self> {
        if !schedules.iter().all(|s| s.supports_warp_mapping()) {
            return None;
        }
        let warps_per_feature: Vec<u32> = schedules
            .iter()
            .zip(workloads)
            .map(|(s, w)| s.required_warps(w))
            .collect();
        let total: u32 = warps_per_feature.iter().sum();
        let mut entries = Vec::with_capacity(total as usize);
        for (f, &n) in warps_per_feature.iter().enumerate() {
            for rel in 0..n {
                entries.push((f as u32, rel));
            }
        }
        Some(WarpTaskMap {
            entries,
            warps_per_feature,
        })
    }

    /// Total warp tasks.
    pub fn total_warps(&self) -> u32 {
        self.entries.len() as u32
    }
}

/// A fused kernel dispatched at warp granularity, bound to one batch.
pub struct WarpMappedKernel<'a> {
    /// One schedule per feature (all warp-mappable).
    pub schedules: &'a [ScheduleInstance],
    /// The live batch.
    pub batch: &'a Batch,
    /// Its workload analysis.
    pub workloads: Vec<FeatureWorkload>,
    /// The warp task map.
    pub map: WarpTaskMap,
    /// Warps per physical block.
    pub warps_per_block: u32,
    resources: BlockResources,
}

impl<'a> WarpMappedKernel<'a> {
    /// Bind `schedules` to a batch with runtime warp mapping. Returns
    /// `None` if any schedule is not warp-mappable.
    pub fn bind(
        schedules: &'a [ScheduleInstance],
        model: &ModelConfig,
        batch: &'a Batch,
    ) -> Option<Self> {
        let workloads = analyze_batch(model, batch);
        let map = WarpTaskMap::runtime(schedules, &workloads)?;
        let threads = schedules.iter().map(|s| s.params.threads_per_block).max()?;
        let regs = schedules.iter().map(|s| s.natural_regs()).max()?;
        let warps_per_block = (threads / 32).max(1);
        Some(WarpMappedKernel {
            schedules,
            batch,
            workloads,
            map,
            warps_per_block,
            resources: BlockResources::new(threads, regs, 0),
        })
    }
}

impl SimKernel for WarpMappedKernel<'_> {
    fn name(&self) -> &str {
        "recflex_fused_warp_unit"
    }

    fn grid_blocks(&self) -> u32 {
        self.map.total_warps().div_ceil(self.warps_per_block).max(1)
    }

    fn resources(&self) -> BlockResources {
        self.resources
    }

    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        // The block hosts `warps_per_block` consecutive warp tasks, which
        // execute concurrently: traffic sums, the chain is the slowest's.
        let lo = block_idx * self.warps_per_block;
        let hi = (lo + self.warps_per_block).min(self.map.total_warps());
        let mut merged: Option<BlockProfile> = None;
        for t in lo..hi {
            let (f, rel) = self.map.entries[t as usize];
            let f = f as usize;
            let p = self.schedules[f].warp_profile(
                &self.batch.features[f],
                &self.workloads[f],
                rel,
                ctx.reg_cap,
            );
            match merged.as_mut() {
                None => merged = Some(p),
                Some(m) => m.merge_concurrent(&p),
            }
        }
        merged.unwrap_or_else(BlockProfile::idle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{FusedKernelObject, FusedSpec};
    use recflex_data::{ModelPreset, PoolingDist};
    use recflex_embedding::TableSet;
    use recflex_schedules::{ScheduleKind, ScheduleParams};
    use recflex_sim::{launch, GpuArch, LaunchConfig};

    fn warp_schedules(model: &ModelConfig) -> Vec<ScheduleInstance> {
        model
            .features
            .iter()
            .map(|f| ScheduleInstance {
                kind: ScheduleKind::SamplePerWarp,
                params: ScheduleParams {
                    threads_per_block: 256,
                    group_size: 32,
                    vector_width: 2.min(f.emb_dim),
                    unroll: 1,
                    stage_rows: 0,
                },
                emb_dim: f.emb_dim,
            })
            .collect()
    }

    #[test]
    fn warp_map_partitions_all_tasks() {
        let m = ModelPreset::A.scaled(0.01);
        let b = Batch::generate(&m, 48, 3);
        let schedules = warp_schedules(&m);
        let k = WarpMappedKernel::bind(&schedules, &m, &b).unwrap();
        let total: u32 = k.map.warps_per_feature.iter().sum();
        assert_eq!(total, k.map.total_warps());
        for (f, s) in schedules.iter().enumerate() {
            assert_eq!(
                k.map.warps_per_feature[f],
                s.required_warps(&k.workloads[f])
            );
        }
    }

    #[test]
    fn block_schedules_are_rejected() {
        let m = ModelPreset::A.scaled(0.01);
        let b = Batch::generate(&m, 48, 3);
        let mut schedules = warp_schedules(&m);
        schedules[0] = ScheduleInstance {
            kind: ScheduleKind::SamplePerBlock,
            params: schedules[0].params,
            emb_dim: schedules[0].emb_dim,
        };
        assert!(WarpMappedKernel::bind(&schedules, &m, &b).is_none());
    }

    #[test]
    fn warp_unit_packs_tighter_than_block_unit() {
        // Many features whose warp demand is a fraction of one block.
        let m = ModelPreset::B.scaled(0.02); // mostly one-hot: tiny features
        let b = Batch::generate(&m, 24, 3); // 24 samples → 24 warps/feature? no: spw 1 → 24
        let schedules = warp_schedules(&m);
        let warp_kernel = WarpMappedKernel::bind(&schedules, &m, &b).unwrap();
        let block_obj = FusedKernelObject::compile(FusedSpec::new(schedules.clone()));
        let tables = TableSet::for_model(&m);
        let block_bound = block_obj.bind(&m, &tables, &b);
        assert!(
            warp_kernel.grid_blocks() <= recflex_sim::SimKernel::grid_blocks(&block_bound),
            "warp packing must not fragment more than block packing"
        );
    }

    #[test]
    fn work_is_conserved_across_units() {
        let m = ModelPreset::A.scaled(0.01);
        let b = Batch::generate(&m, 64, 9);
        let schedules = warp_schedules(&m);
        let warp_kernel = WarpMappedKernel::bind(&schedules, &m, &b).unwrap();
        let ctx = ProfileCtx::default();
        let warp_flops: u64 = (0..warp_kernel.grid_blocks())
            .map(|blk| warp_kernel.profile_block(blk, &ctx).flops)
            .sum();
        let expected: u64 = m
            .features
            .iter()
            .zip(&b.features)
            .map(|(f, fb)| fb.total_lookups() as u64 * f.emb_dim as u64)
            .sum();
        assert_eq!(warp_flops, expected);
    }

    #[test]
    fn warp_unit_launches_with_positive_latency() {
        let m = ModelPreset::A.scaled(0.01);
        let b = Batch::generate(&m, 48, 5);
        let schedules = warp_schedules(&m);
        let k = WarpMappedKernel::bind(&schedules, &m, &b).unwrap();
        let report = launch(&k, &GpuArch::v100(), &LaunchConfig::default()).unwrap();
        assert!(report.latency_us > 0.0);
    }

    #[test]
    fn single_feature_tiny_batch_prefers_warp_unit() {
        // One feature, 4 samples: block unit burns a whole 8-warp block
        // per 8 samples anyway, but with many such features the packing
        // difference shows in the grid size.
        let spec = recflex_data::FeatureSpec {
            name: "tiny".into(),
            table_rows: 1000,
            emb_dim: 16,
            pooling: PoolingDist::Fixed(4),
            coverage: 1.0,
            row_skew: 0.0,
        };
        let m = ModelConfig {
            name: "tiny".into(),
            features: vec![spec; 32],
        };
        let b = Batch::generate(&m, 4, 3);
        let schedules = warp_schedules(&m);
        let warp_kernel = WarpMappedKernel::bind(&schedules, &m, &b).unwrap();
        // 32 features × 4 warp tasks = 128 tasks / 8 warps = 16 blocks,
        // versus 32 blocks (one per feature, mostly idle warps).
        assert_eq!(warp_kernel.grid_blocks(), 16);
        let block_obj = FusedKernelObject::compile(FusedSpec::new(schedules));
        let tables = TableSet::for_model(&m);
        let bound = block_obj.bind(&m, &tables, &b);
        assert_eq!(recflex_sim::SimKernel::grid_blocks(&bound), 32);
    }
}
