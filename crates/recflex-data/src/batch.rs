//! CSR-encoded input batches.
//!
//! A batch carries, per feature, the classic ragged layout of embedding
//! inputs: `offsets[s]..offsets[s+1]` are the positions in `indices` holding
//! sample `s`'s lookup IDs. This is the structure the host-side workload
//! analysis (paper Section IV-B) scans to build the runtime thread mapping.
//!
//! Synthesis ([`FeatureBatch::generate`]) runs in two passes. The first
//! takes every random draw in a fixed order: per sample the coverage
//! draw, the pooling factor, then one uniform `u` per lookup. The second
//! maps each `u` to its skewed row in one vectorized loop that is exact
//! by construction: it decides a row only when a margin proves it equal
//! to libm's `powf` expression and computes every other row with that
//! expression. So every batch is a pure function of its seed, and equal
//! bit for bit to what one `powf` per lookup gives. [`Batch::generate`]
//! draws small batches inline and larger ones on the pool.
//!
//! Serving analyses every chunk it prices, and the exact distinct-row
//! count ([`FeatureBatch::unique_rows`]) is most of that analysis. After
//! one vectorized range check, it counts a feature's rows in a per-thread
//! bitmap whose two passes neither branch nor check bounds per lookup.

use crate::feature::{FeatureSpec, ModelConfig};
use crate::row_draw;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::ops::Range;

thread_local! {
    /// [`FeatureBatch::unique_rows`]'s row bitmap: all zero between calls.
    static SEEN_ROWS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// [`FeatureBatch::generate`]'s uniform lookup draws, reused per thread.
    static DRAWS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Lookup indices of one feature for one batch, in CSR form.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureBatch {
    /// `batch_size + 1` monotone offsets into `indices`.
    pub offsets: Vec<u32>,
    /// Concatenated lookup row IDs.
    pub indices: Vec<u32>,
}

impl FeatureBatch {
    /// An empty CSR for `batch_size` samples (feature absent everywhere).
    pub fn empty(batch_size: u32) -> Self {
        FeatureBatch {
            offsets: vec![0; batch_size as usize + 1],
            indices: Vec::new(),
        }
    }

    /// Number of samples.
    pub fn batch_size(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Total lookups across the batch.
    pub fn total_lookups(&self) -> u32 {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Pooling factor of sample `s`.
    pub fn pooling_factor(&self, s: u32) -> u32 {
        self.offsets[s as usize + 1] - self.offsets[s as usize]
    }

    /// Lookup IDs of sample `s`.
    pub fn sample_indices(&self, s: u32) -> &[u32] {
        let lo = self.offsets[s as usize] as usize;
        let hi = self.offsets[s as usize + 1] as usize;
        &self.indices[lo..hi]
    }

    /// Exact count of distinct rows touched in a table of `table_rows`
    /// rows, in time linear in the lookups.
    ///
    /// A vectorized scan first checks that every index is in range, as
    /// serving admission ([`FeatureBatch::validate`]) guarantees. Then one
    /// pass sets each row's bit in a reusable per-thread bitmap and counts
    /// the bits it newly sets, and a second zeroes the words the first
    /// touched, so the cost never depends on the table size. Neither pass
    /// branches or checks bounds per lookup: the bitmap holds a power of
    /// two of words, and masking a row's word index into it changes no
    /// in-range row. The bitmap is sized by `table_rows`, never by an
    /// index value, and grows to the largest table counted on its thread:
    /// under `table_rows / 4 + 16` bytes, at most twice the `table_rows /
    /// 8` an exact fit would take. A feature holding an index `>=
    /// table_rows`, which [`FeatureBatch::validate`] rejects, is still
    /// counted exactly, by sorting a copy of its indices.
    pub fn unique_rows(&self, table_rows: u32) -> u32 {
        let indices = &self.indices;
        if indices.is_empty() {
            return 0;
        }
        if !all_below(indices, table_rows) {
            let mut rows = indices.clone();
            rows.sort_unstable();
            rows.dedup();
            return rows.len() as u32;
        }
        SEEN_ROWS.with(|seen| {
            let mut bitmap = seen.borrow_mut();
            let mask = (table_rows as usize).div_ceil(64).next_power_of_two() - 1;
            if bitmap.len() <= mask {
                bitmap.resize(mask + 1, 0);
            }
            let bits = &mut bitmap[..=mask];
            let mut unique = 0u32;
            for &row in indices {
                let (word, bit) = ((row / 64) as usize & mask, 1u64 << (row % 64));
                unique += u32::from(bits[word] & bit == 0);
                bits[word] |= bit;
            }
            for &row in indices {
                bits[(row / 64) as usize & mask] = 0;
            }
            unique
        })
    }

    /// Validate CSR invariants against a table size; used by serving
    /// admission ([`Batch::validate`]), tests and the kernels' debug asserts.
    pub fn validate(&self, table_rows: u32) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets empty".into());
        }
        if self.offsets[0] != 0 {
            return Err("offsets must start at 0".into());
        }
        if !self.offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err("offsets not monotone".into());
        }
        if *self.offsets.last().unwrap() as usize != self.indices.len() {
            return Err("last offset must equal indices length".into());
        }
        // Serving validates every request, so the scan is branch-free and
        // vectorises; the first offender is looked up only if there is one.
        if !all_below(&self.indices, table_rows) {
            let bad = self.indices.iter().find(|&&i| i >= table_rows);
            return Err(format!(
                "index {} out of table range {table_rows}",
                bad.expect("the scan above saw one")
            ));
        }
        Ok(())
    }

    /// Samples `r` in place: their `r.len() + 1` offsets, not rebased,
    /// and their lookups.
    fn range(&self, r: &Range<u32>) -> (&[u32], &[u32]) {
        let offsets = &self.offsets[r.start as usize..=r.end as usize];
        let lo = offsets[0] as usize;
        let hi = offsets[offsets.len() - 1] as usize;
        (offsets, &self.indices[lo..hi])
    }

    /// The sub-CSR of samples `start..end`, offsets rebased to 0.
    pub fn slice(&self, start: u32, end: u32) -> FeatureBatch {
        let lo = self.offsets[start as usize];
        let hi = self.offsets[end as usize];
        let offsets = self.offsets[start as usize..=end as usize]
            .iter()
            .map(|&o| o - lo)
            .collect();
        let indices = self.indices[lo as usize..hi as usize].to_vec();
        FeatureBatch { offsets, indices }
    }

    /// Generate a CSR for `spec` with `batch_size` samples from `seed`.
    ///
    /// Sample by sample, a coverage draw decides whether the feature is
    /// present, `spec.pooling` draws its lookup count, and each lookup
    /// draws `u ∈ [0, 1)`; its row is `min(⌊rows · u^(1+row_skew)⌋, rows −
    /// 1)`. The draws are taken first, in that order; the rows are then
    /// mapped in one vectorized pass that falls back to libm's `powf`
    /// wherever it cannot prove its row equal (the module docs), so the
    /// output is a pure function of `(spec, batch_size, seed)`.
    ///
    /// # Panics
    ///
    /// If `spec.table_rows` is 0: no row exists to look up.
    pub fn generate(spec: &FeatureSpec, batch_size: u32, seed: u64) -> Self {
        assert!(
            spec.table_rows > 0,
            "FeatureBatch::generate: feature `{}` has a table of 0 rows",
            spec.name
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(batch_size as usize + 1);
        offsets.push(0u32);
        DRAWS.with(|draws| {
            let mut draws = draws.borrow_mut();
            draws.clear();
            for _ in 0..batch_size {
                let present = spec.coverage >= 1.0 || rng.gen_range(0.0..1.0) < spec.coverage;
                if present {
                    let pf = spec.pooling.sample(&mut rng);
                    draws.extend((0..pf).map(|_| rng.gen_range(0.0..1.0)));
                }
                offsets.push(draws.len() as u32);
            }
            let mut indices = vec![0; draws.len()];
            row_draw::map_rows(&draws, 1.0 + spec.row_skew, spec.table_rows, &mut indices);
            FeatureBatch { offsets, indices }
        })
    }
}

/// Whether every index lies below `table_rows`: one fold with no branch,
/// which vectorizes.
fn all_below(indices: &[u32], table_rows: u32) -> bool {
    indices.iter().fold(true, |ok, &i| ok & (i < table_rows))
}

/// Why a [`Batch::split`] request was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitError {
    /// A chunk capacity of zero can never make progress.
    ZeroCap,
}

impl std::fmt::Display for SplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SplitError::ZeroCap => write!(f, "split capacity must be at least 1"),
        }
    }
}

impl std::error::Error for SplitError {}

/// Expected lookups (`batch_size × Σ expected_lookups_per_sample`) from
/// which [`Batch::generate`] draws features on the pool rather than inline.
///
/// Waking the pool costs more than it saves on small batches. One batch of
/// model A at 0.03 and 0.05 (30 and 50 features), median of 9 runs on a
/// 2-worker pool, 2-vCPU AVX-512 VM: the pool took 1.36× the inline time
/// at 1 254 expected lookups and 1.03–1.19× at 1 800–2 700, but 0.89–0.93×
/// at 3 800–4 100 and 0.66–0.86× from 5 000 to 20 000. The break-even
/// lies between 2 700 and 3 800 lookups; this is the next power of two.
const POOL_MIN_LOOKUPS: f64 = 4_096.0;

/// One inference request: a CSR per feature, all with the same batch size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// Samples in the request.
    pub batch_size: u32,
    /// Per-feature CSR inputs, in model feature order.
    pub features: Vec<FeatureBatch>,
}

impl Batch {
    /// Synthesize one batch for `model`: feature `i` is
    /// [`FeatureBatch::generate`] from a seed derived from `seed` and `i`,
    /// so the batch is deterministic. Features go to the pool only when
    /// the batch expects at least 4 096 lookups (`batch_size × Σ
    /// expected_lookups_per_sample`), where the pool starts to pay;
    /// smaller batches are drawn in order on the calling thread. Both
    /// paths give the same batch, because `collect` keeps feature order.
    pub fn generate(model: &ModelConfig, batch_size: u32, seed: u64) -> Self {
        let feature = |(i, spec): (usize, &FeatureSpec)| {
            let fseed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .rotate_left(17);
            FeatureBatch::generate(spec, batch_size, fseed)
        };
        let per_sample: f64 = model
            .features
            .iter()
            .map(FeatureSpec::expected_lookups_per_sample)
            .sum();
        let features = if batch_size as f64 * per_sample >= POOL_MIN_LOOKUPS {
            model.features.par_iter().enumerate().map(feature).collect()
        } else {
            model.features.iter().enumerate().map(feature).collect()
        };
        Batch {
            batch_size,
            features,
        }
    }

    /// Total lookups across all features.
    pub fn total_lookups(&self) -> u64 {
        self.features.iter().map(|f| f.total_lookups() as u64).sum()
    }

    /// Split into chunks of at most `cap` samples, preserving sample order
    /// and CSR validity — the industrial batch-splitting practice of the
    /// paper's Section VI-D. The exact inverse is [`Batch::merge`]. An
    /// empty batch yields no chunks.
    ///
    /// Returns [`SplitError::ZeroCap`] instead of panicking on `cap == 0`,
    /// so a mis-configured server rejects the configuration rather than
    /// crashing its request loop.
    pub fn split(&self, cap: u32) -> Result<Vec<Batch>, SplitError> {
        if cap == 0 {
            return Err(SplitError::ZeroCap);
        }
        let n = self.batch_size;
        let mut out = Vec::with_capacity(n.div_ceil(cap) as usize);
        let mut start = 0u32;
        while start < n {
            let end = (start + cap).min(n);
            let features = self
                .features
                .iter()
                .map(|fb| fb.slice(start, end))
                .collect();
            out.push(Batch {
                batch_size: end - start,
                features,
            });
            start = end;
        }
        Ok(out)
    }

    /// Concatenate chunks back into one batch — the exact inverse of
    /// [`Batch::split`]: `Batch::merge(&b.split(cap)?) == b` for any `b`
    /// and `cap ≥ 1`, with CSR offsets and indices preserved exactly.
    /// [`Batch::gather`] builds a projection of the same concatenation
    /// from sample ranges, without copying each part first.
    ///
    /// Merging zero parts yields the empty zero-feature batch.
    ///
    /// # Panics
    /// If the parts disagree on feature count (they come from different
    /// models — never a recoverable condition for a batcher).
    pub fn merge(parts: &[Batch]) -> Batch {
        let Some(first) = parts.first() else {
            return Batch {
                batch_size: 0,
                features: Vec::new(),
            };
        };
        let n_features = first.features.len();
        assert!(
            parts.iter().all(|p| p.features.len() == n_features),
            "Batch::merge: feature-count mismatch across parts"
        );
        let batch_size = parts.iter().map(|p| p.batch_size).sum();
        let features = (0..n_features)
            .map(|f| {
                let mut offsets = Vec::with_capacity(batch_size as usize + 1);
                let mut indices = Vec::new();
                offsets.push(0u32);
                for part in parts {
                    let fb = &part.features[f];
                    let base = indices.len() as u32;
                    // Skip each part's leading 0; rebase the rest.
                    offsets.extend(fb.offsets[1..].iter().map(|&o| base + o));
                    indices.extend_from_slice(&fb.indices);
                }
                FeatureBatch { offsets, indices }
            })
            .collect();
        Batch {
            batch_size,
            features,
        }
    }

    /// The listed `features` of the concatenated sample ranges `parts`:
    /// what [`Placement::project_batch`](crate::Placement::project_batch)
    /// of [`Batch::merge`] of each part's slice returns, built in one pass
    /// that copies each lookup once. Offsets are rebased to the
    /// concatenation; zero-length ranges add nothing. A serving tier
    /// gathers a device chunk's shard slice this way straight from the
    /// requests it coalesces or splits.
    ///
    /// Gathering no parts yields a 0-sample batch with one empty CSR per
    /// listed feature.
    ///
    /// # Panics
    /// If a range is reversed or runs past its batch, or a listed feature
    /// is not in it.
    pub fn gather(parts: &[(&Batch, Range<u32>)], features: &[usize]) -> Batch {
        let batch_size = parts.iter().map(|(_, r)| r.len() as u32).sum();
        let features = features
            .iter()
            .map(|&f| {
                let lookups = parts
                    .iter()
                    .map(|(b, r)| b.features[f].range(r).1.len())
                    .sum();
                let mut offsets = Vec::with_capacity(batch_size as usize + 1);
                let mut indices = Vec::with_capacity(lookups);
                offsets.push(0u32);
                for (b, r) in parts {
                    let (part_offsets, part_indices) = b.features[f].range(r);
                    let (first, base) = (part_offsets[0], indices.len() as u32);
                    offsets.extend(part_offsets[1..].iter().map(|&o| base + (o - first)));
                    indices.extend_from_slice(part_indices);
                }
                FeatureBatch { offsets, indices }
            })
            .collect();
        Batch {
            batch_size,
            features,
        }
    }

    /// Run `check` on every one of `items` at once on the pool and return
    /// the first error in item order: the one a loop over `items` that
    /// stops at its first error returns, at any pool size. A serving tier
    /// checks the requests it is handed this way, each with
    /// [`Self::validate`] of its batch.
    pub fn validate_each<T: Sync, E: Send>(
        items: &[T],
        check: impl Fn(&T) -> Result<(), E> + Send + Sync,
    ) -> Result<(), E> {
        items.par_iter().map(check).collect()
    }

    /// Validate every feature CSR against the model.
    pub fn validate(&self, model: &ModelConfig) -> Result<(), String> {
        if self.features.len() != model.features.len() {
            return Err("feature count mismatch".into());
        }
        for (i, (fb, spec)) in self.features.iter().zip(&model.features).enumerate() {
            // The CSR check first: `batch_size` assumes non-empty offsets.
            fb.validate(spec.table_rows)
                .map_err(|e| format!("feature {i}: {e}"))?;
            if fb.batch_size() != self.batch_size {
                return Err(format!("feature {i} batch size mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::PoolingDist;

    fn spec(pooling: PoolingDist, coverage: f64) -> FeatureSpec {
        FeatureSpec {
            name: "t".into(),
            table_rows: 1000,
            emb_dim: 16,
            pooling,
            coverage,
            row_skew: 0.0,
        }
    }

    #[test]
    fn csr_invariants_hold() {
        let s = spec(
            PoolingDist::Normal {
                mean: 20.0,
                std: 5.0,
                max: 100,
            },
            0.7,
        );
        let fb = FeatureBatch::generate(&s, 256, 99);
        fb.validate(1000).unwrap();
        assert_eq!(fb.batch_size(), 256);
    }

    #[test]
    fn one_hot_full_coverage_has_one_per_sample() {
        let s = spec(PoolingDist::OneHot, 1.0);
        let fb = FeatureBatch::generate(&s, 128, 3);
        assert_eq!(fb.total_lookups(), 128);
        assert!((0..128).all(|i| fb.pooling_factor(i) == 1));
    }

    #[test]
    fn coverage_leaves_samples_empty() {
        let s = spec(PoolingDist::Fixed(10), 0.3);
        let fb = FeatureBatch::generate(&s, 2000, 5);
        let present = (0..2000).filter(|&i| fb.pooling_factor(i) > 0).count();
        assert!((400..800).contains(&present), "≈30% of 2000, got {present}");
        assert!((0..2000).all(|i| fb.pooling_factor(i) == 0 || fb.pooling_factor(i) == 10));
    }

    #[test]
    fn row_skew_concentrates_lookups() {
        let uniform = FeatureBatch::generate(&spec(PoolingDist::Fixed(50), 1.0), 256, 11);
        let mut skewed_spec = spec(PoolingDist::Fixed(50), 1.0);
        skewed_spec.row_skew = 3.0;
        let skewed = FeatureBatch::generate(&skewed_spec, 256, 11);
        assert!(skewed.unique_rows(1000) < uniform.unique_rows(1000));
    }

    #[test]
    fn batch_generation_deterministic_and_valid() {
        let model = ModelConfig {
            name: "m".into(),
            features: vec![
                spec(PoolingDist::OneHot, 1.0),
                spec(PoolingDist::Fixed(7), 0.5),
                spec(
                    PoolingDist::PowerLaw {
                        alpha: 1.2,
                        max: 200,
                    },
                    0.9,
                ),
            ],
        };
        let a = Batch::generate(&model, 64, 42);
        let b = Batch::generate(&model, 64, 42);
        assert_eq!(a, b);
        a.validate(&model).unwrap();
        let c = Batch::generate(&model, 64, 43);
        assert_ne!(a, c, "different seeds give different batches");
    }

    #[test]
    fn validate_catches_corruption() {
        let s = spec(PoolingDist::Fixed(3), 1.0);
        let mut fb = FeatureBatch::generate(&s, 8, 1);
        fb.indices[0] = 5000; // out of range
        assert!(fb.validate(1000).is_err());
        let mut fb2 = FeatureBatch::generate(&s, 8, 1);
        fb2.offsets[3] = fb2.offsets[4] + 1; // non-monotone
        assert!(fb2.validate(1000).is_err());
        let mut edge = FeatureBatch::generate(&s, 8, 1);
        edge.indices[5] = 999; // the last row
        assert!(edge.validate(1000).is_ok());
        edge.indices[5] = 1000; // one past it
        assert_eq!(
            edge.validate(1000),
            Err("index 1000 out of table range 1000".to_string())
        );
    }

    #[test]
    fn batch_validate_rejects_empty_offsets_without_panicking() {
        let model = ModelConfig {
            name: "m".into(),
            features: vec![spec(PoolingDist::OneHot, 1.0)],
        };
        let batch = Batch {
            batch_size: 4,
            features: vec![FeatureBatch {
                offsets: Vec::new(),
                indices: Vec::new(),
            }],
        };
        assert_eq!(
            batch.validate(&model),
            Err("feature 0: offsets empty".to_string())
        );
    }

    #[test]
    fn sample_indices_slices_match_offsets() {
        let s = spec(PoolingDist::Uniform { lo: 1, hi: 5 }, 1.0);
        let fb = FeatureBatch::generate(&s, 32, 9);
        let mut total = 0;
        for i in 0..32 {
            total += fb.sample_indices(i).len();
        }
        assert_eq!(total as u32, fb.total_lookups());
    }

    #[test]
    fn split_zero_cap_is_an_error_not_a_panic() {
        let s = spec(PoolingDist::Fixed(3), 1.0);
        let model = ModelConfig {
            name: "m".into(),
            features: vec![s],
        };
        let b = Batch::generate(&model, 16, 1);
        assert_eq!(b.split(0), Err(SplitError::ZeroCap));
        assert_eq!(b.split(1).unwrap().len(), 16);
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        let merged = Batch::merge(&[]);
        assert_eq!(merged.batch_size, 0);
        assert!(merged.features.is_empty());
    }

    #[test]
    fn merge_concatenates_distinct_batches() {
        // Merging *different* requests (the dynamic-batcher case), not just
        // re-joining a split: per-sample semantics must be preserved.
        let model = ModelConfig {
            name: "m".into(),
            features: vec![
                spec(PoolingDist::OneHot, 1.0),
                spec(
                    PoolingDist::PowerLaw {
                        alpha: 1.3,
                        max: 60,
                    },
                    0.8,
                ),
            ],
        };
        let a = Batch::generate(&model, 13, 5);
        let b = Batch::generate(&model, 29, 6);
        let merged = Batch::merge(&[a.clone(), b.clone()]);
        assert_eq!(merged.batch_size, 42);
        merged.validate(&model).unwrap();
        for f in 0..2 {
            for s in 0..13 {
                assert_eq!(
                    merged.features[f].sample_indices(s),
                    a.features[f].sample_indices(s)
                );
            }
            for s in 0..29 {
                assert_eq!(
                    merged.features[f].sample_indices(13 + s),
                    b.features[f].sample_indices(s)
                );
            }
        }
    }
}

#[cfg(test)]
mod generate_oracle {
    use super::*;
    use crate::models::ModelPreset;
    use proptest::prelude::*;

    /// The one-pass generator, frozen as the reference: one `powf` per
    /// lookup, inside the draw loop. Every generated batch must equal it
    /// bit for bit.
    fn reference_feature(spec: &FeatureSpec, batch_size: u32, seed: u64) -> FeatureBatch {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut offsets = Vec::with_capacity(batch_size as usize + 1);
        let mut indices = Vec::new();
        offsets.push(0u32);
        for _ in 0..batch_size {
            let present = spec.coverage >= 1.0 || rng.gen_range(0.0..1.0) < spec.coverage;
            if present {
                let pf = spec.pooling.sample(&mut rng);
                for _ in 0..pf {
                    let u: f64 = rng.gen_range(0.0..1.0);
                    let row = (spec.table_rows as f64 * u.powf(1.0 + spec.row_skew)) as u32;
                    indices.push(row.min(spec.table_rows - 1));
                }
            }
            offsets.push(indices.len() as u32);
        }
        FeatureBatch { offsets, indices }
    }

    /// `Batch::generate`'s seeding over [`reference_feature`], one feature
    /// after another.
    fn reference_batch(model: &ModelConfig, batch_size: u32, seed: u64) -> Batch {
        let features = (0..model.features.len())
            .map(|i| {
                let fseed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .rotate_left(17);
                reference_feature(&model.features[i], batch_size, fseed)
            })
            .collect();
        Batch {
            batch_size,
            features,
        }
    }

    const PRESETS: [ModelPreset; 7] = [
        ModelPreset::A,
        ModelPreset::B,
        ModelPreset::C,
        ModelPreset::D,
        ModelPreset::E,
        ModelPreset::MLPerfLike,
        ModelPreset::Scale10k,
    ];

    proptest! {
        #[test]
        fn generate_equals_the_frozen_powf_generator(
            preset in 0usize..7,
            permille in 2u32..12,
            batch_size in 1u32..=300,
            pick in 0u64..4,
            raw in 0u64..=u64::MAX,
        ) {
            // Scale10k has ten times the features; keep its models as small.
            let frac = permille as f64 / if preset == 6 { 10_000.0 } else { 1_000.0 };
            let model = PRESETS[preset].scaled(frac);
            let seed = match pick {
                0 => 0,
                1 => u64::MAX,
                _ => raw,
            };
            let want = reference_batch(&model, batch_size, seed);
            prop_assert_eq!(&Batch::generate(&model, batch_size, seed), &want);
            let spec = &model.features[raw as usize % model.features.len()];
            prop_assert_eq!(
                FeatureBatch::generate(spec, batch_size, seed),
                reference_feature(spec, batch_size, seed)
            );
        }
    }

    #[test]
    fn both_sides_of_the_pool_threshold_equal_the_reference() {
        let model = ModelPreset::A.scaled(0.01);
        let per_sample: f64 = model
            .features
            .iter()
            .map(FeatureSpec::expected_lookups_per_sample)
            .sum();
        let inline = (POOL_MIN_LOOKUPS / per_sample).floor() as u32;
        assert!(inline >= 1, "the smallest batch must draw inline");
        for batch_size in [1, inline, inline + 1, 4 * inline] {
            assert_eq!(
                Batch::generate(&model, batch_size, 5),
                reference_batch(&model, batch_size, 5),
                "batch size {batch_size}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "feature `empty` has a table of 0 rows")]
    fn generate_rejects_a_table_without_rows() {
        let spec = FeatureSpec {
            name: "empty".into(),
            table_rows: 0,
            emb_dim: 4,
            pooling: crate::PoolingDist::OneHot,
            coverage: 1.0,
            row_skew: 0.0,
        };
        FeatureBatch::generate(&spec, 4, 1);
    }
}

#[cfg(test)]
mod split_merge_props {
    use super::*;
    use crate::distribution::PoolingDist;
    use proptest::prelude::*;

    /// A small model whose feature mix varies with the seed, so the
    /// property sweep covers one-hot, fixed, normal and power-law CSR
    /// shapes as well as partial coverage (empty lookup segments).
    fn arb_model(seed: u64) -> ModelConfig {
        let pools = [
            PoolingDist::OneHot,
            PoolingDist::Fixed(1 + (seed % 7) as u32),
            PoolingDist::Normal {
                mean: 8.0,
                std: 4.0,
                max: 40,
            },
            PoolingDist::PowerLaw {
                alpha: 1.4,
                max: 50,
            },
        ];
        let features = (0..1 + (seed % 3) as usize)
            .map(|i| FeatureSpec {
                name: format!("f{i}"),
                table_rows: 500,
                emb_dim: 8,
                pooling: pools[(seed as usize + i) % pools.len()],
                coverage: if (seed + i as u64).is_multiple_of(2) {
                    1.0
                } else {
                    0.6
                },
                row_skew: 0.0,
            })
            .collect();
        ModelConfig {
            name: "prop".into(),
            features,
        }
    }

    proptest! {
        #[test]
        fn merge_is_the_exact_inverse_of_split(
            seed in 0u64..10_000,
            batch_size in 1u32..200,
            cap in 1u32..300,
        ) {
            let model = arb_model(seed);
            let batch = Batch::generate(&model, batch_size, seed);
            let chunks = batch.split(cap).unwrap();
            prop_assert!(chunks.iter().all(|c| c.batch_size <= cap));
            prop_assert_eq!(
                chunks.iter().map(|c| c.batch_size).sum::<u32>(),
                batch_size
            );
            // Offsets and indices must round-trip bit-exactly.
            prop_assert_eq!(Batch::merge(&chunks), batch);
        }

        #[test]
        fn split_chunks_are_valid_csr(
            seed in 0u64..1_000,
            batch_size in 1u32..120,
            cap in 1u32..50,
        ) {
            let model = arb_model(seed);
            let batch = Batch::generate(&model, batch_size, seed);
            for chunk in batch.split(cap).unwrap() {
                prop_assert!(chunk.validate(&model).is_ok());
            }
        }
    }
}

#[cfg(test)]
mod gather_oracle {
    use super::*;
    use crate::distribution::PoolingDist;
    use crate::placement::Placement;
    use proptest::prelude::*;

    /// A model whose features may be absent everywhere (coverage 0: a
    /// zero-lookup feature), absent in some samples (empty samples), or
    /// present with zero lookups (`Fixed(0)`).
    fn arb_model(rng: &mut StdRng, features: usize) -> ModelConfig {
        let features = (0..features)
            .map(|i| FeatureSpec {
                name: format!("f{i}"),
                table_rows: 300,
                emb_dim: 8,
                pooling: match rng.gen_range(0..3) {
                    0 => PoolingDist::OneHot,
                    1 => PoolingDist::Fixed(rng.gen_range(0..6)),
                    _ => PoolingDist::PowerLaw {
                        alpha: 1.4,
                        max: 30,
                    },
                },
                coverage: [0.0, 0.5, 1.0][rng.gen_range(0..3usize)],
                row_skew: 0.0,
            })
            .collect();
        ModelConfig {
            name: "gather".into(),
            features,
        }
    }

    /// Samples `r` of `b`, cut the way [`Batch::split`] cuts its chunks.
    fn slice(b: &Batch, r: &Range<u32>) -> Batch {
        Batch {
            batch_size: r.end - r.start,
            features: b
                .features
                .iter()
                .map(|fb| fb.slice(r.start, r.end))
                .collect(),
        }
    }

    proptest! {
        #[test]
        fn gather_equals_projecting_the_merged_slices(
            seed in 0u64..u64::MAX,
            n_features in 1usize..6,
            n_batches in 1usize..4,
            n_parts in 1usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = arb_model(&mut rng, n_features);
            let batches: Vec<Batch> = (0..n_batches)
                .map(|i| Batch::generate(&model, rng.gen_range(0..40), seed ^ i as u64))
                .collect();
            // Any batch, any range of it, zero-length ones included; a
            // batch may appear in several parts.
            let parts: Vec<(&Batch, Range<u32>)> = (0..n_parts)
                .map(|_| {
                    let b = &batches[rng.gen_range(0..n_batches)];
                    let start = rng.gen_range(0..=b.batch_size);
                    (b, start..rng.gen_range(start..=b.batch_size))
                })
                .collect();
            let slices: Vec<Batch> = parts.iter().map(|(b, r)| slice(b, r)).collect();
            let merged = Batch::merge(&slices);
            // Each device of a random 2-way placement is a random feature
            // subset, the empty one included.
            let placement = Placement {
                device_of: (0..n_features).map(|_| rng.gen_range(0..2)).collect(),
                num_devices: 2,
            };
            for device in 0..2 {
                let gathered = Batch::gather(&parts, &placement.features_on(device));
                prop_assert_eq!(&gathered, &placement.project_batch(&merged, device));
                prop_assert!(gathered.validate(&placement.sub_model(&model, device)).is_ok());
            }
        }
    }

    #[test]
    fn gather_of_nothing_is_an_empty_csr_per_feature() {
        let gathered = Batch::gather(&[], &[0, 2]);
        assert_eq!(gathered.batch_size, 0);
        assert_eq!(gathered.features, vec![FeatureBatch::empty(0); 2]);
    }
}
