//! Functional execution of schedules, one block at a time.
//!
//! Every schedule computes the same mathematical function — sum pooling of
//! the looked-up rows per sample — they differ only in how the work maps to
//! hardware, which the analytic profiles capture. A block pools the samples
//! [`ScheduleInstance::block_samples`] assigns it, the same samples its
//! profile times, into its own slice of the output, so the fused-kernel
//! executor can run blocks in parallel. Each row is added whole, in place,
//! into the sample's slot by [`EmbTable::add_row`] (a vectorized loop on
//! virtual tables, with no scratch row) **in CSR order** regardless of the
//! simulated thread mapping, so every schedule, the fused kernel and the
//! baselines produce output bit-identical to the scalar reference. (On a
//! real GPU the tree reductions of `SamplePerBlock` would reassociate the
//! sum; fixing the order here is what makes exact equality testing
//! possible, and is documented as a deliberate substitution in DESIGN.md.)

use crate::template::ScheduleInstance;
use recflex_data::FeatureBatch;
use recflex_embedding::EmbTable;

impl ScheduleInstance {
    /// Pool the samples `s0..s1` that [`Self::block_samples`] assigns
    /// block `rel_bidx` into `out`, which holds exactly those samples'
    /// rows: `(s1 − s0) × dim`, sample-row-major. A block past the batch
    /// owns no samples and takes an empty `out`.
    pub fn execute_block<T: EmbTable>(
        &self,
        table: &T,
        fb: &FeatureBatch,
        rel_bidx: u32,
        out: &mut [f32],
    ) {
        debug_assert_eq!(table.dim(), self.emb_dim);
        let dim = self.emb_dim as usize;
        let (s0, s1) = self.block_samples(fb, rel_bidx).unwrap_or((0, 0));
        assert_eq!(
            out.len(),
            (s1 - s0) as usize * dim,
            "block {rel_bidx} owns samples {s0}..{s1}"
        );
        for (s, dst) in (s0..s1).zip(out.chunks_exact_mut(dim.max(1))) {
            dst.fill(0.0);
            for &r in fb.sample_indices(s) {
                table.add_row(r, dst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{ScheduleKind, ScheduleParams};
    use recflex_data::{FeatureSpec, PoolingDist};
    use recflex_embedding::{reference_pooled, FeatureWorkload, VirtualTable};

    fn spec(dim: u32) -> FeatureSpec {
        FeatureSpec {
            name: "t".into(),
            table_rows: 500,
            emb_dim: dim,
            pooling: PoolingDist::Normal {
                mean: 12.0,
                std: 6.0,
                max: 60,
            },
            coverage: 0.8,
            row_skew: 0.5,
        }
    }

    fn all_kinds(dim: u32) -> Vec<ScheduleInstance> {
        [
            (ScheduleKind::RowPerThread, 1u32, 0u32),
            (ScheduleKind::SubWarp, 8, 0),
            (ScheduleKind::SamplePerWarp, 32, 0),
            (ScheduleKind::SamplePerBlock, 128, 0),
            (ScheduleKind::SmemStaged, 32, 8),
            (ScheduleKind::GatherScatter, 32, 0),
        ]
        .into_iter()
        .map(|(kind, g, stage)| ScheduleInstance {
            kind,
            params: ScheduleParams {
                threads_per_block: 128,
                group_size: g,
                vector_width: 2,
                unroll: 1,
                stage_rows: stage,
            },
            emb_dim: dim,
        })
        .collect()
    }

    #[test]
    fn every_kind_executed_block_by_block_matches_reference_bitwise() {
        for (dim, batch, data_seed, table_seed) in [(16, 96, 33, 9), (8, 77, 5, 4)] {
            let fb = FeatureBatch::generate(&spec(dim), batch, data_seed);
            let table = VirtualTable::new(table_seed, 500, dim);
            let w = FeatureWorkload::analyze(0, &fb, dim, 500);
            let mut golden = vec![0.0; (batch * dim) as usize];
            reference_pooled(&table, &fb, &mut golden);
            for sched in all_kinds(dim) {
                let mut out = vec![7.0; (batch * dim) as usize];
                for b in 0..sched.required_blocks(&w) {
                    let (s0, s1) = sched.block_samples(&fb, b).unwrap();
                    let dst = &mut out[(s0 * dim) as usize..(s1 * dim) as usize];
                    sched.execute_block(&table, &fb, b, dst);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&golden), "{:?} diverged", sched.kind);
            }
        }
    }

    #[test]
    fn out_of_range_block_owns_no_samples() {
        let dim = 8;
        let fb = FeatureBatch::generate(&spec(dim), 16, 5);
        let table = VirtualTable::new(4, 500, dim);
        let sched = &all_kinds(dim)[2];
        assert_eq!(sched.block_samples(&fb, 999), None);
        sched.execute_block(&table, &fb, 999, &mut []);
    }
}
