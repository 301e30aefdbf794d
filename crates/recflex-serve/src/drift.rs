//! Distribution-drift detection.
//!
//! RecFlex tunes its schedule against the *historical* feature
//! distribution; Section VI-C shows the tuned schedule stays near-optimal
//! under moderate shift but degrades once pooling factors or coverage
//! move far enough. An online server therefore needs to notice when live
//! traffic has drifted from the distribution the engine was tuned on and
//! trigger a background retune. The observable we track is the cheapest
//! one the host already has: **mean lookups per sample** (total CSR
//! indices / batch size), which moves monotonically with both
//! pooling-factor scale and coverage shift (the two axes of
//! [`recflex_data::shift_distribution`]).
//!
//! The aggregate alone is blind to *redistributions*: one feature's
//! pooling doubling while another's halves leaves the model-wide mean
//! flat, yet the tuned schedule — which assigned thread resources
//! per-feature — is now wrong on both. A monitor built with
//! [`DriftMonitor::for_model`] therefore also tracks lookups-per-sample
//! **per feature** against each feature's tuned reference
//! (coverage × mean pooling factor) and fires when any single feature
//! deviates, even when the aggregate cancels out.
//!
//! The policy is fixed: a verdict every 6 admitted batches, drift above
//! ±30 % model-wide or ±50 % on any one feature.

use recflex_data::{Batch, ModelConfig};

/// How many admitted batches form one observation window.
pub(crate) const WINDOW: usize = 6;

/// Relative deviation of the window mean from the tuned reference that
/// counts as drift (±30 %).
const THRESHOLD: f64 = 0.3;

/// Relative deviation of any *single feature's* window mean from its own
/// reference that counts as drift. Deliberately wider than
/// [`THRESHOLD`]: a per-feature estimate averages far fewer lookups than
/// the model-wide mean, so small-mean features wander tens of percent on
/// pure sampling noise.
const FEATURE_THRESHOLD: f64 = 0.5;

/// A feature whose reference traffic rounds to zero still gets a sane
/// relative-deviation denominator (lookups per sample).
const MIN_FEATURE_REFERENCE_LPS: f64 = 1e-3;

/// Sliding-window monitor comparing live lookups-per-sample against the
/// value the current engine was tuned for — model-wide, and per feature
/// until the first [`DriftMonitor::rebase`].
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    reference_lps: f64,
    /// Per-feature tuned references; empty for an aggregate-only monitor.
    reference_feature_lps: Vec<f64>,
    window_sum_lookups: f64,
    window_sum_samples: f64,
    /// Per-feature lookup sums over the current window (parallel to
    /// `reference_feature_lps`).
    window_feature_lookups: Vec<f64>,
    window_len: usize,
}

impl DriftMonitor {
    fn with_references(reference_lps: f64, per_feature: Vec<f64>) -> Self {
        let n = per_feature.len();
        DriftMonitor {
            reference_lps: reference_lps.max(f64::MIN_POSITIVE),
            reference_feature_lps: per_feature,
            window_sum_lookups: 0.0,
            window_sum_samples: 0.0,
            window_feature_lookups: vec![0.0; n],
            window_len: 0,
        }
    }

    /// Monitor against the *expected* lookups-per-sample of the model
    /// configuration the engine was tuned on: coverage·mean-pooling per
    /// feature, and their sum model-wide.
    pub fn for_model(model: &ModelConfig) -> Self {
        let per_feature = expected_lookups_per_sample_per_feature(model);
        Self::with_references(per_feature.iter().sum(), per_feature)
    }

    /// Record one admitted batch. Returns `true` when a full window has
    /// accumulated and either the window mean deviates from the aggregate
    /// reference by more than the threshold, or — for a feature-tracking
    /// monitor — any single feature's window mean deviates from its own
    /// reference. The window restarts after every verdict (drifted or
    /// not).
    pub fn observe(&mut self, batch: &Batch) -> bool {
        self.window_sum_lookups += batch.total_lookups() as f64;
        self.window_sum_samples += batch.batch_size as f64;
        if batch.features.len() == self.window_feature_lookups.len() {
            for (sum, fb) in self.window_feature_lookups.iter_mut().zip(&batch.features) {
                *sum += fb.total_lookups() as f64;
            }
        }
        self.window_len += 1;
        if self.window_len < WINDOW {
            return false;
        }
        let samples = self.window_sum_samples;
        let mean = if samples > 0.0 {
            self.window_sum_lookups / samples
        } else {
            0.0
        };
        let aggregate_drift = (mean / self.reference_lps - 1.0).abs() > THRESHOLD;
        let feature_drift = samples > 0.0
            && self
                .window_feature_lookups
                .iter()
                .zip(&self.reference_feature_lps)
                .any(|(&sum, &reference)| {
                    let lps = sum / samples;
                    let reference = reference.max(MIN_FEATURE_REFERENCE_LPS);
                    (lps / reference - 1.0).abs() > FEATURE_THRESHOLD
                });
        self.reset_window();
        aggregate_drift || feature_drift
    }

    /// Re-anchor after a retune: the freshly tuned engine now matches
    /// `new_reference_lps`, so deviation is measured from there. Only an
    /// aggregate is known, so per-feature tracking is dropped.
    pub fn rebase(&mut self, new_reference_lps: f64) {
        *self = Self::with_references(new_reference_lps, Vec::new());
    }

    /// Discard the partially accumulated window, keeping the reference.
    /// Called when a retune attempt launches so the next verdict only
    /// reflects traffic observed after the launch. A no-op right after a
    /// verdict (the window restarts on every verdict anyway), so the
    /// drift-fire → retune path is unchanged by the reset.
    pub fn reset_window(&mut self) {
        self.window_sum_lookups = 0.0;
        self.window_sum_samples = 0.0;
        self.window_feature_lookups
            .iter_mut()
            .for_each(|s| *s = 0.0);
        self.window_len = 0;
    }
}

/// Expected lookups per sample of a model configuration:
/// Σ over features of coverage × mean pooling factor.
pub fn expected_lookups_per_sample(model: &ModelConfig) -> f64 {
    expected_lookups_per_sample_per_feature(model)
        .into_iter()
        .sum()
}

/// Expected lookups per sample of each feature (coverage × mean pooling
/// factor), in model feature order.
pub fn expected_lookups_per_sample_per_feature(model: &ModelConfig) -> Vec<f64> {
    model
        .features
        .iter()
        .map(|f| f.coverage * f.pooling.mean())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{shift_distribution, Batch, ModelPreset};

    fn batches(model: &ModelConfig, n: usize, seed: u64) -> Vec<Batch> {
        (0..n)
            .map(|i| Batch::generate(model, 64, seed + i as u64))
            .collect()
    }

    #[test]
    fn in_distribution_traffic_does_not_trigger() {
        let model = ModelPreset::A.scaled(0.01);
        let mut mon = DriftMonitor::for_model(&model);
        for b in batches(&model, 32, 100) {
            assert!(!mon.observe(&b), "no drift expected in-distribution");
        }
    }

    #[test]
    fn shifted_traffic_triggers_within_one_window() {
        let model = ModelPreset::A.scaled(0.01);
        // Double every pooling factor: lookups/sample roughly doubles.
        let shifted = shift_distribution(&model, 2.0, 0.0);
        let mut mon = DriftMonitor::for_model(&model);
        let mut fired = false;
        for b in batches(&shifted, WINDOW, 200) {
            fired |= mon.observe(&b);
        }
        assert!(fired, "2x pooling shift must be detected in one window");
    }

    #[test]
    fn rebase_silences_the_alarm() {
        let model = ModelPreset::A.scaled(0.01);
        let shifted = shift_distribution(&model, 2.0, 0.0);
        let mut mon = DriftMonitor::for_model(&model);
        for b in batches(&shifted, WINDOW, 300) {
            mon.observe(&b);
        }
        // Pretend a retune ran on the shifted distribution.
        mon.rebase(expected_lookups_per_sample(&shifted));
        for b in batches(&shifted, 2 * WINDOW, 400) {
            assert!(!mon.observe(&b), "rebased monitor sees no drift");
        }
    }

    /// Two always-present fixed-pooling features: per-feature traffic is
    /// exact, so the test isolates the redistribution logic from
    /// sampling noise.
    fn two_feature_model(pooling_a: u32, pooling_b: u32) -> ModelConfig {
        use recflex_data::{FeatureSpec, PoolingDist};
        let feat = |name: &str, k: u32| FeatureSpec {
            name: name.into(),
            table_rows: 1000,
            emb_dim: 16,
            pooling: PoolingDist::Fixed(k),
            coverage: 1.0,
            row_skew: 0.0,
        };
        ModelConfig {
            name: "drift-pair".into(),
            features: vec![feat("up", pooling_a), feat("down", pooling_b)],
        }
    }

    #[test]
    fn opposed_per_feature_shifts_cancel_in_aggregate_but_fire() {
        let tuned = two_feature_model(20, 20);
        // Feature 0 rises 60 %, feature 1 falls 60 %: the model-wide mean
        // is still exactly 40 lookups/sample.
        let redistributed = two_feature_model(32, 8);

        // A rebase keeps only the aggregate reference.
        let mut aggregate_only = DriftMonitor::for_model(&tuned);
        aggregate_only.rebase(expected_lookups_per_sample(&tuned));
        let mut per_feature = DriftMonitor::for_model(&tuned);
        let mut aggregate_fired = false;
        let mut per_feature_fired = false;
        for b in batches(&redistributed, WINDOW, 500) {
            aggregate_fired |= aggregate_only.observe(&b);
            per_feature_fired |= per_feature.observe(&b);
        }
        assert!(
            !aggregate_fired,
            "the aggregate mean is unchanged, so the aggregate monitor is blind"
        );
        assert!(
            per_feature_fired,
            "per-feature tracking must catch the redistribution"
        );
    }

    #[test]
    fn per_feature_references_match_the_specs() {
        let model = ModelPreset::A.scaled(0.01);
        let per_feature = expected_lookups_per_sample_per_feature(&model);
        assert_eq!(per_feature.len(), model.features.len());
        for (r, f) in per_feature.iter().zip(&model.features) {
            assert!((r - f.coverage * f.pooling.mean()).abs() < 1e-12);
        }
        let total: f64 = per_feature.iter().sum();
        assert!((total - expected_lookups_per_sample(&model)).abs() < 1e-9);
    }

    #[test]
    fn expected_lps_tracks_pf_scale() {
        let model = ModelPreset::A.scaled(0.01);
        let base = expected_lookups_per_sample(&model);
        let doubled = expected_lookups_per_sample(&shift_distribution(&model, 2.0, 0.0));
        assert!(doubled > base * 1.5, "doubling pooling raises expected lps");
    }
}
