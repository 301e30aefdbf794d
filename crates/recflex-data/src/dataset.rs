//! Datasets: collections of historical batches.
//!
//! RecFlex tunes on "the recent distribution of historical inputs" and
//! serves fresh batches from the same distribution (paper Section IV-A3,
//! Equation 5). A [`Dataset`] holds a seeded set of batches; disjoint seed
//! ranges give the tuning/evaluation split.

use crate::batch::Batch;
use crate::feature::ModelConfig;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A set of batches drawn from one model's input distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    batches: Vec<Batch>,
}

impl Dataset {
    /// Synthesize `n_batches` batches of `batch_size` samples for `model`.
    pub fn synthesize(model: &ModelConfig, n_batches: usize, batch_size: u32, seed: u64) -> Self {
        let batches: Vec<Batch> = (0..n_batches)
            .into_par_iter()
            .map(|i| Batch::generate(model, batch_size, seed.wrapping_add(i as u64 * 1_000_003)))
            .collect();
        Dataset { batches }
    }

    /// Synthesize batches whose sizes vary over `sizes` round-robin —
    /// models the varying request sizes of online serving.
    pub fn synthesize_varied(model: &ModelConfig, sizes: &[u32], seed: u64) -> Self {
        let batches: Vec<Batch> = sizes
            .par_iter()
            .enumerate()
            .map(|(i, &bs)| Batch::generate(model, bs, seed.wrapping_add(i as u64 * 1_000_003)))
            .collect();
        Dataset { batches }
    }

    /// Wrap existing batches into a dataset (projections, replays).
    pub fn from_batches(batches: Vec<Batch>) -> Self {
        Dataset { batches }
    }

    /// The batches.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Number of batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelPreset;

    #[test]
    fn synthesis_is_deterministic() {
        let m = ModelPreset::A.scaled(0.01);
        let a = Dataset::synthesize(&m, 3, 32, 7);
        let b = Dataset::synthesize(&m, 3, 32, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn batches_differ_within_dataset() {
        let m = ModelPreset::A.scaled(0.01);
        let d = Dataset::synthesize(&m, 2, 32, 7);
        assert_ne!(d.batches()[0], d.batches()[1]);
    }

    #[test]
    fn all_batches_valid() {
        let m = ModelPreset::C.scaled(0.01);
        let d = Dataset::synthesize(&m, 4, 48, 21);
        for b in d.batches() {
            b.validate(&m).unwrap();
        }
    }

    #[test]
    fn varied_sizes() {
        let m = ModelPreset::B.scaled(0.005);
        let d = Dataset::synthesize_varied(&m, &[16, 64, 256], 3);
        let sizes: Vec<u32> = d.batches().iter().map(|b| b.batch_size).collect();
        assert_eq!(sizes, vec![16, 64, 256]);
    }
}
