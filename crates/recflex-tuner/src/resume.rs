//! Warm-started tuning: resume from a vault profile instead of sweeping.
//!
//! A [`ScheduleProfile`] stores candidate *indices* and the chosen
//! schedules' labels. Resuming re-enumerates the candidate sets against
//! the *current* build and demands index → label agreement, so a profile
//! written by a build with a different enumeration order (skew the schema
//! version cannot see) is rejected with a structured [`ResumeError`] —
//! never silently resumed into the wrong schedule. A valid profile is
//! re-validated with one fused measurement per tuning batch: strictly
//! cheaper than the cold sweep's `O(K·F·B)` co-execution launches.

use recflex_compiler::{FusedKernelObject, FusedSpec};
use recflex_data::{Dataset, ModelConfig};
use recflex_schedules::{CandidateError, ScheduleInstance, ScheduleProfile};
use recflex_sim::{launch, GpuArch};

use crate::{TuneResult, TunerConfig, TuningContext};

/// Why a stored profile could not be resumed. Every variant renders a
/// deterministic diagnostic; the caller falls back to a cold tune.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// Candidate enumeration itself failed (degenerate feature).
    Candidate(CandidateError),
    /// The profile covers a different number of features than the model.
    FeatureCount {
        /// Features in the profile.
        profile: usize,
        /// Features in the model.
        model: usize,
    },
    /// A stored choice index is out of range for today's candidate set.
    ChoiceOutOfRange {
        /// Feature index.
        feature_idx: usize,
        /// The stored choice.
        choice: usize,
        /// Today's candidate count.
        available: usize,
    },
    /// The stored label disagrees with the schedule at the stored index —
    /// the enumeration order changed underneath the profile.
    LabelSkew {
        /// Feature index.
        feature_idx: usize,
        /// Label recorded in the profile.
        stored: String,
        /// Label of today's candidate at that index.
        found: String,
    },
    /// The resumed fused kernel is unlaunchable on every tuning batch.
    Infeasible,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Candidate(e) => write!(f, "{e}"),
            ResumeError::FeatureCount { profile, model } => write!(
                f,
                "profile covers {profile} features, model has {model}"
            ),
            ResumeError::ChoiceOutOfRange {
                feature_idx,
                choice,
                available,
            } => write!(
                f,
                "feature {feature_idx}: stored choice {choice} out of range ({available} candidates)"
            ),
            ResumeError::LabelSkew {
                feature_idx,
                stored,
                found,
            } => write!(
                f,
                "feature {feature_idx}: stored label `{stored}` but candidate is `{found}` (enumeration skew)"
            ),
            ResumeError::Infeasible => {
                write!(f, "resumed fused kernel unlaunchable on every tuning batch")
            }
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<CandidateError> for ResumeError {
    fn from(e: CandidateError) -> Self {
        ResumeError::Candidate(e)
    }
}

/// Resume tuning from a stored profile: validate it against today's
/// candidate sets, then re-measure the fused kernel once per tuning batch.
/// On success the result's `choices`/`schedules`/`occupancy` are exactly
/// the profile's, and `evaluations` is the (small) validation launch count.
pub fn resume_from_profile(
    model: &ModelConfig,
    dataset: &Dataset,
    arch: &GpuArch,
    cfg: &TunerConfig,
    profile: &ScheduleProfile,
) -> Result<TuneResult, ResumeError> {
    let ctx = TuningContext::new(model, dataset, arch, cfg);
    if profile.choices.len() != ctx.candidates.len() {
        return Err(ResumeError::FeatureCount {
            profile: profile.choices.len(),
            model: ctx.candidates.len(),
        });
    }
    let mut schedules: Vec<ScheduleInstance> = Vec::with_capacity(profile.choices.len());
    for (f, (&choice, stored_label)) in profile
        .choices
        .iter()
        .zip(&profile.schedule_labels)
        .enumerate()
    {
        let cs = &ctx.candidates[f];
        if choice >= cs.len() {
            return Err(ResumeError::ChoiceOutOfRange {
                feature_idx: f,
                choice,
                available: cs.len(),
            });
        }
        let candidate = cs.candidates[choice];
        let found = candidate.label();
        if &found != stored_label {
            return Err(ResumeError::LabelSkew {
                feature_idx: f,
                stored: stored_label.clone(),
                found,
            });
        }
        schedules.push(candidate);
    }

    // Validation measurement: the stored winner, compiled exactly as the
    // cold path would, once per tuning batch.
    let tables = recflex_embedding::TableSet::for_model(ctx.model);
    let mut spec = FusedSpec::new(schedules.clone());
    spec.occupancy_target = profile.occupancy;
    let obj = FusedKernelObject::compile(spec);
    let mut total = 0.0f64;
    let mut measured = 0usize;
    let mut evaluations = 0usize;
    for (batch, workloads) in ctx.tuning_batches().iter().zip(&ctx.history) {
        let bound = obj.bind_analyzed(ctx.model, &tables, batch, workloads.clone());
        evaluations += 1;
        if let Ok(report) = launch(&bound, ctx.arch, &obj.launch_config()) {
            total += report.latency_us;
            measured += 1;
        }
    }
    if measured == 0 {
        return Err(ResumeError::Infeasible);
    }
    let mean = total / measured as f64;
    let global_latencies = profile
        .occupancy
        .map(|k| vec![(k, mean)])
        .unwrap_or_default();
    Ok(TuneResult {
        schedules,
        choices: profile.choices.clone(),
        occupancy: profile.occupancy,
        global_latencies,
        evaluations,
        mean_latency_us: mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tune_two_stage;
    use recflex_data::{Dataset, ModelPreset};
    use recflex_schedules::{distribution_summary, ProfileKey};

    const SCHEMA_VERSION: u32 = recflex_schedules::store::SCHEMA_VERSION;

    fn profile_of(model: &ModelConfig, dataset: &Dataset, result: &TuneResult) -> ScheduleProfile {
        ScheduleProfile {
            schema_version: SCHEMA_VERSION,
            key: ProfileKey {
                model: model.name.clone(),
                arch: "V100".to_string(),
                dist_summary: distribution_summary(dataset.batches()),
            },
            choices: result.choices.clone(),
            schedule_labels: result.schedules.iter().map(|s| s.label()).collect(),
            occupancy: result.occupancy,
            mean_latency_us: result.mean_latency_us,
            hash: String::new(),
        }
    }

    #[test]
    fn warm_resume_is_cheaper_and_identical() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let cold = tune_two_stage(&m, &ds, &arch, &cfg);
        let profile = profile_of(&m, &ds, &cold);
        let warm = resume_from_profile(&m, &ds, &arch, &cfg, &profile).unwrap();
        assert_eq!(warm.choices, cold.choices);
        assert_eq!(warm.occupancy, cold.occupancy);
        assert_eq!(
            warm.schedules.iter().map(|s| s.label()).collect::<Vec<_>>(),
            cold.schedules.iter().map(|s| s.label()).collect::<Vec<_>>()
        );
        assert!(
            warm.evaluations < cold.evaluations,
            "warm {} must beat cold {}",
            warm.evaluations,
            cold.evaluations
        );
        assert!(warm.mean_latency_us.is_finite());
    }

    #[test]
    fn label_skew_is_rejected() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let cold = tune_two_stage(&m, &ds, &arch, &cfg);
        let mut profile = profile_of(&m, &ds, &cold);
        profile.schedule_labels[0] = "warp_t999_v9_u9".to_string();
        let err = resume_from_profile(&m, &ds, &arch, &cfg, &profile).unwrap_err();
        assert!(matches!(err, ResumeError::LabelSkew { feature_idx: 0, .. }));
        assert!(err.to_string().contains("enumeration skew"));
    }

    #[test]
    fn out_of_range_choice_and_feature_count_are_rejected() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let cold = tune_two_stage(&m, &ds, &arch, &cfg);

        let mut oob = profile_of(&m, &ds, &cold);
        oob.choices[1] = 10_000;
        assert!(matches!(
            resume_from_profile(&m, &ds, &arch, &cfg, &oob).unwrap_err(),
            ResumeError::ChoiceOutOfRange { feature_idx: 1, .. }
        ));

        let mut short = profile_of(&m, &ds, &cold);
        short.choices.pop();
        short.schedule_labels.pop();
        assert!(matches!(
            resume_from_profile(&m, &ds, &arch, &cfg, &short).unwrap_err(),
            ResumeError::FeatureCount { .. }
        ));
    }
}
