//! HugeCTR-style execution: one block per sample, features processed
//! sequentially within the block.
//!
//! HugeCTR's fused embedding layer concatenates same-dimension tables and
//! launches a coarse sample-block kernel: block `s` walks *all* features of
//! sample `s` one after another (paper Section VI-B). The strategy needs
//! large embedding dimensions and batch sizes to saturate the GPU; with the
//! moderate inference batches and dims of models D/E it trails even RECom,
//! exactly as the paper measures. It refuses models whose features have
//! mixed dimensions.

use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{analyze_batch, reference_model_output, TableSet};
use recflex_sim::{
    launch, BlockProfile, BlockResources, GpuArch, LaunchConfig, ProfileCtx, SimKernel,
};

use crate::{Backend, BackendError, BackendRun, CostReport};

/// The HugeCTR fused pooling kernel bound to a batch.
struct HugeCtrKernel<'a> {
    batch: &'a Batch,
    dim: u32,
    threads: u32,
    /// Per-feature unique/total byte ratios for the L2 model.
    unique_fracs: Vec<f64>,
}

impl SimKernel for HugeCtrKernel<'_> {
    fn name(&self) -> &str {
        "hugectr_fused_pooling"
    }

    fn grid_blocks(&self) -> u32 {
        self.batch.batch_size
    }

    fn resources(&self) -> BlockResources {
        // Accumulator for one sample vector + bookkeeping; no smem (the
        // sample's pooled vector lives in the first warp's registers).
        BlockResources::new(
            self.threads,
            18 + self.dim.div_ceil(self.threads / 32).min(64),
            0,
        )
    }

    fn profile_block(&self, block_idx: u32, _ctx: &ProfileCtx) -> BlockProfile {
        let s = block_idx;
        let dim = self.dim as u64;
        // Lanes covering the dim: with dim 8, only 8 threads of the block
        // do useful work per row — the strategy's core weakness.
        let lanes_useful = dim.min(self.threads as u64);
        let sectors_per_row = (dim * 4).div_ceil(32);

        let mut p = BlockProfile::default();
        let mut bytes = 0u64;
        let mut unique = 0.0f64;
        for (f, fb) in self.batch.features.iter().enumerate() {
            let pf = fb.pooling_factor(s) as u64;
            if pf == 0 {
                continue;
            }
            // Features run strictly sequentially inside the block: every
            // row load of every feature sits on one dependence chain.
            p.critical_mem_chain += pf;
            p.issue_cycles += pf as f64 * 4.0 + 6.0;
            p.mem_transactions += pf * sectors_per_row;
            let b = pf * sectors_per_row * 32;
            bytes += b;
            unique += b as f64 * self.unique_fracs[f];
            p.thread_active_sum += pf * lanes_useful;
            p.thread_useful_sum += pf * lanes_useful;
            p.thread_slot_sum += pf * sectors_per_row.max(1) * 32;
            p.flops += pf * dim;
        }
        p.bytes_accessed = bytes;
        p.unique_bytes = unique as u64;
        // One pooled vector per feature written out.
        let out_sectors = self.batch.features.len() as u64 * sectors_per_row;
        p.mem_transactions += out_sectors;
        p.bytes_written = out_sectors * 32;
        p.issue_cycles += out_sectors as f64 * 1.5 + 30.0;
        // Only one warp's worth of lanes is ever memory-active when the
        // dim is small, and the feature loop is serial: low MLP.
        p.active_warps = ((dim as u32).div_ceil(32)).clamp(1, self.threads / 32);
        p.mlp = 2.5;
        p.barriers = 1;
        p
    }
}

/// HugeCTR baseline.
#[derive(Debug, Default)]
pub struct HugeCtrBackend;

impl Backend for HugeCtrBackend {
    fn name(&self) -> &'static str {
        "HugeCTR"
    }

    fn supports(&self, model: &ModelConfig) -> bool {
        model.uniform_dim().is_some()
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let cost = self.cost(model, tables, batch, arch)?;
        Ok(cost.with_output(reference_model_output(model, tables, batch)))
    }

    fn cost(
        &self,
        model: &ModelConfig,
        _tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        let dim = model
            .uniform_dim()
            .ok_or_else(|| BackendError::Unsupported("HugeCTR needs one embedding dim".into()))?;
        let workloads = analyze_batch(model, batch);
        let unique_fracs = workloads
            .iter()
            .map(|w| {
                if w.bytes_read() == 0 {
                    1.0
                } else {
                    w.unique_bytes() as f64 / w.bytes_read() as f64
                }
            })
            .collect();
        let kern = HugeCtrKernel {
            batch,
            dim,
            threads: 128,
            unique_fracs,
        };
        let report = launch(&kern, arch, &LaunchConfig::default())?;
        Ok(CostReport::one_launch(&report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{Dataset, ModelPreset};

    #[test]
    fn rejects_mixed_dims() {
        let a = ModelPreset::A.scaled(0.01);
        assert!(!HugeCtrBackend.supports(&a));
        let t = TableSet::for_model(&a);
        let b = Batch::generate(&a, 16, 1);
        assert!(matches!(
            HugeCtrBackend.run(&a, &t, &b, &GpuArch::v100()),
            Err(BackendError::Unsupported(_))
        ));
    }

    #[test]
    fn accepts_uniform_dim_models() {
        for preset in [ModelPreset::D, ModelPreset::E] {
            let m = preset.scaled(0.01);
            assert!(HugeCtrBackend.supports(&m));
            let t = TableSet::for_model(&m);
            let b = Batch::generate(&m, 32, 3);
            let run = HugeCtrBackend.run(&m, &t, &b, &GpuArch::v100()).unwrap();
            assert!(run.latency_us > 0.0);
            assert_eq!(run.kernel_launches, 1);
        }
    }

    #[test]
    fn slower_than_torchrec_on_model_d() {
        // Paper Figure 9: HugeCTR trails TorchRec (and RECom) because the
        // coarse sample-block mapping starves on dim-8 inference batches.
        let m = ModelPreset::D.scaled(0.02);
        let t = TableSet::for_model(&m);
        let b = Batch::generate(&m, 64, 9);
        let arch = GpuArch::v100();
        let hugectr = HugeCtrBackend.run(&m, &t, &b, &arch).unwrap();
        let torchrec = crate::TorchRecBackend::compile(&m)
            .run(&m, &t, &b, &arch)
            .unwrap();
        assert!(
            hugectr.latency_us > torchrec.latency_us,
            "HugeCTR {} must trail TorchRec {}",
            hugectr.latency_us,
            torchrec.latency_us
        );
    }

    #[test]
    fn output_matches_reference() {
        let m = ModelPreset::E.scaled(0.01);
        let t = TableSet::for_model(&m);
        let b = Batch::generate(&m, 24, 2);
        let run = HugeCtrBackend.run(&m, &t, &b, &GpuArch::v100()).unwrap();
        let golden = recflex_embedding::reference_model_output(&m, &t, &b);
        assert!(run.output.bits_eq(&golden));
    }

    #[test]
    fn used_with_dataset_models() {
        // Smoke test with several batch sizes.
        let m = ModelPreset::D.scaled(0.01);
        let t = TableSet::for_model(&m);
        let ds = Dataset::synthesize_varied(&m, &[8, 64, 200], 4);
        for b in ds.batches() {
            let run = HugeCtrBackend.run(&m, &t, b, &GpuArch::a100()).unwrap();
            assert!(run.latency_us.is_finite());
        }
    }
}
