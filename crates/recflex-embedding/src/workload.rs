//! Host-side workload analysis (paper Section IV-B).
//!
//! Before launching the fused kernel, RecFlex scans each feature's CSR on
//! the CPU — a pass the paper hides behind input preprocessing and measures
//! at < 0.1 % of data-loading time. The scan yields a [`FeatureWorkload`]
//! per feature: everything the runtime thread mapping, the schedules'
//! block-count formulas and the simulator's memory model need.
//!
//! Serving analyses every chunk it prices, so the scan is linear in the
//! lookups. The exact distinct-row count comes from
//! [`FeatureBatch::unique_rows`]: a vectorized range check of the indices,
//! then one pass over a reusable per-thread bitmap of the feature's
//! `table_rows` bits, rounded up to a power of two of words (under
//! `table_rows / 4 + 16` bytes per thread, sized by the table and never by
//! an index value), and a pass zeroing only the words it touched; neither
//! pass branches or checks bounds per lookup. [`analyze_batch`] walks the
//! features in order on the calling thread: for chunks of a few dozen
//! samples, dispatching features to the pool costs more than the scan.

use recflex_data::{Batch, FeatureBatch, ModelConfig};

/// Workload statistics of one feature in one batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureWorkload {
    /// Feature index in the model.
    pub feature_idx: usize,
    /// Samples in the batch.
    pub batch_size: u32,
    /// Total lookups across the batch.
    pub total_lookups: u32,
    /// Exact count of distinct rows touched.
    pub unique_rows: u32,
    /// Largest per-sample pooling factor.
    pub max_pf: u32,
    /// Mean pooling factor over *all* samples (absent samples count 0).
    pub mean_pf: f64,
    /// Samples with at least one lookup.
    pub present_samples: u32,
    /// Embedding dimension of the feature.
    pub emb_dim: u32,
    /// Embedding-table rows.
    pub table_rows: u32,
    /// Fraction of this batch's lookups that miss the GPU hot cache and
    /// must travel over the host interconnect (0.0 = table fully device-
    /// resident). Set by [`crate::CachePlan`]-aware bindings.
    pub uvm_cold_frac: f64,
}

impl FeatureWorkload {
    /// Analyze one feature's CSR.
    pub fn analyze(feature_idx: usize, fb: &FeatureBatch, emb_dim: u32, table_rows: u32) -> Self {
        let batch_size = fb.batch_size();
        let total_lookups = fb.total_lookups();
        let mut max_pf = 0u32;
        let mut present = 0u32;
        for s in 0..batch_size {
            let pf = fb.pooling_factor(s);
            max_pf = max_pf.max(pf);
            present += (pf > 0) as u32;
        }
        FeatureWorkload {
            feature_idx,
            batch_size,
            total_lookups,
            unique_rows: fb.unique_rows(table_rows),
            max_pf,
            mean_pf: if batch_size == 0 {
                0.0
            } else {
                total_lookups as f64 / batch_size as f64
            },
            present_samples: present,
            emb_dim,
            table_rows,
            uvm_cold_frac: 0.0,
        }
    }

    /// Copy of this workload with a UVM cold fraction attached.
    pub fn with_uvm_cold_frac(mut self, cold: f64) -> Self {
        self.uvm_cold_frac = cold.clamp(0.0, 1.0);
        self
    }

    /// Bytes read from the table across the batch (each lookup reads one
    /// `dim × 4`-byte row).
    pub fn bytes_read(&self) -> u64 {
        self.total_lookups as u64 * self.emb_dim as u64 * 4
    }

    /// First-touch distinct bytes (unique rows × row bytes).
    pub fn unique_bytes(&self) -> u64 {
        (self.unique_rows as u64 * self.emb_dim as u64 * 4).min(self.bytes_read())
    }

    /// Bytes written (one pooled vector per sample, absent ones zeroed).
    pub fn bytes_written(&self) -> u64 {
        self.batch_size as u64 * self.emb_dim as u64 * 4
    }

    /// Reuse factor `total / unique` (≥ 1 when any lookups exist).
    pub fn reuse_factor(&self) -> f64 {
        if self.unique_rows == 0 {
            1.0
        } else {
            self.total_lookups as f64 / self.unique_rows as f64
        }
    }
}

/// Analyze every feature of a batch, in feature order.
pub fn analyze_batch(model: &ModelConfig, batch: &Batch) -> Vec<FeatureWorkload> {
    model
        .features
        .iter()
        .zip(&batch.features)
        .enumerate()
        .map(|(i, (spec, fb))| FeatureWorkload::analyze(i, fb, spec.emb_dim, spec.table_rows))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{Batch, FeatureBatch, ModelPreset};

    #[test]
    fn stats_of_handcrafted_csr() {
        // 3 samples: pf 2, 0, 3; rows {5,5,1,2,5}.
        let fb = FeatureBatch {
            offsets: vec![0, 2, 2, 5],
            indices: vec![5, 5, 1, 2, 5],
        };
        let w = FeatureWorkload::analyze(0, &fb, 8, 100);
        assert_eq!(w.total_lookups, 5);
        assert_eq!(w.unique_rows, 3);
        assert_eq!(w.max_pf, 3);
        assert_eq!(w.present_samples, 2);
        assert!((w.mean_pf - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.bytes_read(), 5 * 8 * 4);
        assert_eq!(w.unique_bytes(), 3 * 8 * 4);
        assert_eq!(w.bytes_written(), 3 * 8 * 4);
        assert!((w.reuse_factor() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_feature_is_sane() {
        let fb = FeatureBatch::empty(4);
        let w = FeatureWorkload::analyze(0, &fb, 16, 100);
        assert_eq!(w.total_lookups, 0);
        assert_eq!(w.unique_rows, 0);
        assert_eq!(w.max_pf, 0);
        assert_eq!(w.present_samples, 0);
        assert_eq!(w.reuse_factor(), 1.0);
    }

    #[test]
    fn batch_analysis_covers_all_features() {
        let m = ModelPreset::A.scaled(0.01);
        let batch = Batch::generate(&m, 64, 9);
        let ws = analyze_batch(&m, &batch);
        assert_eq!(ws.len(), m.features.len());
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.feature_idx, i);
            assert_eq!(w.emb_dim, m.features[i].emb_dim);
            assert_eq!(w.total_lookups, batch.features[i].total_lookups());
        }
    }

    #[test]
    fn unique_bytes_never_exceed_bytes_read() {
        let m = ModelPreset::C.scaled(0.01);
        let batch = Batch::generate(&m, 128, 13);
        for w in analyze_batch(&m, &batch) {
            assert!(w.unique_bytes() <= w.bytes_read());
            assert!(w.unique_rows <= w.total_lookups);
            assert!(w.present_samples <= w.batch_size);
        }
    }
}

#[cfg(test)]
mod unique_rows_props {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The oracle: sort and deduplicate a copy of the indices.
    fn unique_by_sort(fb: &FeatureBatch) -> u32 {
        let mut rows = fb.indices.clone();
        rows.sort_unstable();
        rows.dedup();
        rows.len() as u32
    }

    /// A CSR over a `table_rows`-row table: up to 40 samples (none at all,
    /// or every sample empty, now and then), each drawing its lookups from
    /// the edge rows 0 and `table_rows - 1`, rows just past the table, rows
    /// near `u32::MAX` and uniform in-range rows, which repeat often on
    /// small tables.
    fn arb_csr(rng: &mut StdRng, table_rows: u32) -> FeatureBatch {
        let batch_size = rng.gen_range(0..40u32);
        let max_pf = if rng.gen_range(0..4u32) == 0 {
            0
        } else {
            rng.gen_range(1..30u32)
        };
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for _ in 0..batch_size {
            for _ in 0..rng.gen_range(0..=max_pf) {
                indices.push(match rng.gen_range(0..10u32) {
                    0 => 0,
                    1 => table_rows - 1,
                    2 => table_rows + rng.gen_range(0..3u32),
                    3 => u32::MAX - rng.gen_range(0..2u32),
                    _ => rng.gen_range(0..table_rows),
                });
            }
            offsets.push(indices.len() as u32);
        }
        FeatureBatch { offsets, indices }
    }

    /// The distinct-row count of `indices` over a `table_rows`-row table.
    fn count(indices: Vec<u32>, table_rows: u32) -> u32 {
        let offsets = vec![0, indices.len() as u32];
        FeatureWorkload::analyze(0, &FeatureBatch { offsets, indices }, 8, table_rows).unique_rows
    }

    #[test]
    fn first_and_last_rows_of_tables_around_word_and_power_of_two_edges() {
        for table_rows in [1, 63, 64, 65, 1 << 18, (1 << 18) + 1] {
            let last = table_rows - 1;
            let want = if table_rows == 1 { 1 } else { 2 };
            assert_eq!(
                count(vec![0, last, last, 0], table_rows),
                want,
                "{table_rows}"
            );
            assert_eq!(count(vec![last], table_rows), 1, "{table_rows}");
            assert_eq!(count(vec![0], table_rows), 1, "{table_rows}");
            // Every row of the table, twice: the last word fills exactly
            // or partly.
            if table_rows <= 65 {
                let every: Vec<u32> = (0..table_rows).chain(0..table_rows).collect();
                assert_eq!(count(every, table_rows), table_rows);
            }
        }
    }

    #[test]
    fn a_small_table_between_two_large_ones_sees_no_bit_the_large_left() {
        // One thread: a bit the large table left set would undercount the
        // 65-row table (its low words) or the large table's second count
        // (the words the small table's bitmap does not reach).
        let large: Vec<u32> = (0..5_000u32).map(|i| (i * 7_919) % 500_000).collect();
        let want_large = {
            let mut rows = large.clone();
            rows.sort_unstable();
            rows.dedup();
            rows.len() as u32
        };
        assert_eq!(count(large.clone(), 500_000), want_large);
        assert_eq!(count((0..65).rev().collect(), 65), 65);
        assert_eq!(count(large, 500_000), want_large);
    }

    #[test]
    fn a_feature_with_an_index_past_its_table_is_counted_exactly() {
        let mixed = vec![5, 5, 100, 99, u32::MAX, 100, 7, 0];
        assert_eq!(count(mixed, 100), 6);
        // The exact path leaves the bitmap clean for the next feature.
        assert_eq!(count(vec![5, 7, 99, 0, 5], 100), 4);
    }

    proptest! {
        #[test]
        fn linear_count_equals_sort_dedup(seed in 0u64..u64::MAX, features in 1usize..12) {
            // Features of different table sizes analysed back to back on
            // one thread: a bit one left set would undercount the next.
            let mut rng = StdRng::seed_from_u64(seed);
            for f in 0..features {
                let table_rows = match rng.gen_range(0..4u32) {
                    0 => 1,
                    1 => rng.gen_range(2..130u32),
                    2 => rng.gen_range(130..5_000u32),
                    _ => rng.gen_range(5_000..600_000u32),
                };
                let fb = arb_csr(&mut rng, table_rows);
                let w = FeatureWorkload::analyze(f, &fb, 8, table_rows);
                prop_assert_eq!(
                    w.unique_rows,
                    unique_by_sort(&fb),
                    "seed {} feature {} table_rows {}",
                    seed,
                    f,
                    table_rows
                );
            }
        }
    }
}
