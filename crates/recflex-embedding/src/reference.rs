//! Golden reference implementation of the embedding operation.
//!
//! Every schedule, the fused kernel and every baseline must produce output
//! bit-identical to this scalar loop. All implementations accumulate each
//! sample's rows **in CSR order**, so floating-point summation order is
//! fixed and equality is exact, not approximate.

use crate::output::FusedOutput;
use crate::table::{EmbTable, TableSet};
use rayon::prelude::*;
use recflex_data::{Batch, FeatureBatch, ModelConfig};

/// Pool one feature: `out` is `batch × dim`, sample-row-major. Samples with
/// no lookups (feature absent) produce a zero vector.
pub fn reference_pooled<T: EmbTable>(table: &T, fb: &FeatureBatch, out: &mut [f32]) {
    let dim = table.dim() as usize;
    let batch = fb.batch_size();
    debug_assert_eq!(out.len(), batch as usize * dim);
    for s in 0..batch {
        let dst = &mut out[s as usize * dim..(s as usize + 1) * dim];
        dst.fill(0.0);
        for &row in fb.sample_indices(s) {
            for (d, slot) in dst.iter_mut().enumerate() {
                *slot += table.value(row, d as u32);
            }
        }
    }
}

/// Pool every feature of a batch (parallel across features) — the golden
/// full-model embedding output.
pub fn reference_model_output(
    model: &ModelConfig,
    tables: &TableSet,
    batch: &Batch,
) -> FusedOutput {
    let mut out = FusedOutput::zeros(model, batch.batch_size);
    {
        let parts = out.split_features_mut();
        parts
            .into_par_iter()
            .enumerate()
            .for_each(|(f, dst)| reference_pooled(tables.table(f), &batch.features[f], dst));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{DenseTable, VirtualTable};
    use recflex_data::{Batch, ModelPreset};

    #[test]
    fn single_lookup_copies_row() {
        let t = VirtualTable::new(3, 10, 4);
        let fb = FeatureBatch {
            offsets: vec![0, 1],
            indices: vec![7],
        };
        let mut out = vec![0.0; 4];
        reference_pooled(&t, &fb, &mut out);
        for d in 0..4 {
            assert_eq!(out[d as usize], t.value(7, d));
        }
    }

    #[test]
    fn absent_sample_is_zero() {
        let t = VirtualTable::new(3, 10, 4);
        let fb = FeatureBatch {
            offsets: vec![0, 0, 2],
            indices: vec![1, 2],
        };
        let mut out = vec![9.0; 8];
        reference_pooled(&t, &fb, &mut out);
        assert_eq!(&out[0..4], &[0.0; 4]);
        for d in 0..4u32 {
            assert_eq!(out[4 + d as usize], t.value(1, d) + t.value(2, d));
        }
    }

    #[test]
    fn pooling_is_sum_in_csr_order() {
        // Sum in CSR order must match a manual in-order accumulation even
        // with values where order matters at f32 precision.
        let data = vec![1e7f32, 1.0, -1e7, 2.0, 3.0, 4.0];
        let t = DenseTable::new(data, 3, 2);
        let fb = FeatureBatch {
            offsets: vec![0, 3],
            indices: vec![0, 1, 2],
        };
        let mut out = vec![0.0; 2];
        reference_pooled(&t, &fb, &mut out);
        let expect0 = (1e7f32 + -1e7) + 3.0;
        let expect1 = (1.0f32 + 2.0) + 4.0;
        assert_eq!(out, vec![expect0, expect1]);
    }

    #[test]
    fn model_output_matches_per_feature_reference() {
        let m = ModelPreset::A.scaled(0.01);
        let ts = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 32, 5);
        let fused = reference_model_output(&m, &ts, &batch);
        for (f, spec) in m.features.iter().enumerate() {
            let mut solo = vec![0.0; 32 * spec.emb_dim as usize];
            reference_pooled(ts.table(f), &batch.features[f], &mut solo);
            assert_eq!(fused.feature(f), &solo[..], "feature {f} diverged");
        }
    }

    #[test]
    fn pooling_survives_a_batch_split() {
        // Splitting a request at a cap (the industrial serving practice)
        // must not change any sample's pooled row: the chunks' outputs
        // stitch back into the whole batch's, bit for bit.
        let m = ModelPreset::C.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 100, 7);
        let dim = m.features[0].emb_dim as usize;
        let mut whole = vec![0.0f32; 100 * dim];
        reference_pooled(tables.table(0), &batch.features[0], &mut whole);
        let mut stitched = Vec::new();
        for c in batch.split(32).unwrap() {
            let mut part = vec![0.0f32; c.batch_size as usize * dim];
            reference_pooled(tables.table(0), &c.features[0], &mut part);
            stitched.extend(part);
        }
        assert_eq!(whole, stitched);
    }

    #[test]
    fn model_output_deterministic() {
        let m = ModelPreset::C.scaled(0.005);
        let ts = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 16, 11);
        let a = reference_model_output(&m, &ts, &batch);
        let b = reference_model_output(&m, &ts, &batch);
        assert!(a.bits_eq(&b));
    }
}
