//! # recflex-tuner — the interference-aware schedule tuner
//!
//! RecFlex's first component (paper Section IV-A). The tuning problem: pick
//! one schedule per feature so the *fused* kernel is fastest (Equation 1).
//! Brute force is `Π N_f` combinations; tuning features in isolation
//! ignores inter-feature interference (occupancy coupling + resource
//! contention). The paper's answer, reproduced here:
//!
//! 1. **Local stage** ([`local`]): for each candidate occupancy `O_k`
//!    (explicitly enforced via register capping / smem padding) and each
//!    feature `f`, co-execute *all* of `f`'s candidates in one kernel on
//!    duplicated inputs, pad the grid with blocks that emulate the other
//!    features' SM- and L2-level pressure (Figure 7), and rank candidates
//!    by their summed block times (Equation 3). Cost: one kernel per
//!    `(f, k)` — `O(F·K)` — simulated in one pass over each feature's
//!    candidate blocks for all `k`.
//! 2. **Global stage** ([`global`]): fuse each occupancy's winners, measure
//!    the real fused kernel on sampled historical batches (Equation 5),
//!    keep the best occupancy (Equation 4). Cost: `O(K)`.
//!
//! The straw-man **separate-and-combine** tuner of Section II-C (no
//! padding, no occupancy control, per-candidate isolated latency) is in
//! [`strawman`] for the Figure 11 ablation.

pub mod coexec;
pub mod cost;
pub mod global;
pub mod local;
pub mod resume;
pub mod strawman;

pub use cost::TuningCost;
pub use resume::{resume_from_profile, ResumeError};

use rayon::prelude::*;
use recflex_data::{Dataset, ModelConfig};
use recflex_embedding::{analyze_batch, FeatureWorkload};
use recflex_schedules::{enumerate_candidates, CandidateSet, ScheduleInstance};
use recflex_sim::GpuArch;

/// Tuner options.
#[derive(Debug, Clone)]
pub struct TunerConfig {
    /// Occupancy levels `O_1..O_K` to enumerate; `None` uses
    /// [`GpuArch::occupancy_levels`].
    pub occupancy_levels: Option<Vec<u32>>,
    /// Historical batches sampled for tuning (Equation 5's `ξ_i`).
    pub tuning_batches: usize,
    /// Padding fill factor: padding blocks are added until the grid holds
    /// this multiple of the GPU's parallel-block slots.
    pub pad_fill: f64,
}

impl Default for TunerConfig {
    fn default() -> Self {
        TunerConfig {
            occupancy_levels: None,
            tuning_batches: 4,
            pad_fill: 2.0,
        }
    }
}

impl TunerConfig {
    /// Reduced-cost configuration for tests and examples.
    pub fn fast() -> Self {
        TunerConfig {
            occupancy_levels: Some(vec![2, 4, 8]),
            tuning_batches: 2,
            pad_fill: 1.5,
        }
    }
}

/// Output of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The selected schedule per feature (the paper's `s`).
    pub schedules: Vec<ScheduleInstance>,
    /// Index of the winning candidate within each feature's candidate set.
    pub choices: Vec<usize>,
    /// The winning occupancy target `O_k` (blocks/SM), if occupancy
    /// control is in force. The two-stage tuner returns `None` when a
    /// level's winners fused at the union's natural occupancy beat every
    /// controlled variant in the global stage; the straw man always
    /// returns `None`.
    pub occupancy: Option<u32>,
    /// Global-stage measurements: `(O_k, mean fused latency in µs)` —
    /// the data behind the Equation 4 argmin.
    pub global_latencies: Vec<(u32, f64)>,
    /// Kernel launches this result cost: the currency the profile vault's
    /// warm-start saves. Co-execution launches in the local stage, fused
    /// measurements in the global stage (isolated per-candidate launches
    /// for the straw man); a warm resume pays only its validation
    /// measurements.
    pub evaluations: usize,
    /// Mean fused latency of the chosen configuration in µs (`0.0` for
    /// the straw man, which never measures its fused kernel) — recorded
    /// into stored profiles for deterministic winner selection.
    pub mean_latency_us: f64,
}

/// Shared tuning context: the model, its candidate sets and the analyzed
/// historical batches.
pub struct TuningContext<'a> {
    /// The model being tuned.
    pub model: &'a ModelConfig,
    /// Historical batches (tuning inputs).
    pub dataset: &'a Dataset,
    /// Target architecture.
    pub arch: &'a GpuArch,
    /// Per-feature candidate sets `S^(f)`.
    pub candidates: Vec<CandidateSet>,
    /// Workload analysis of each tuning batch: `[batch][feature]`.
    pub history: Vec<Vec<FeatureWorkload>>,
}

impl<'a> TuningContext<'a> {
    /// Build the context: enumerate candidates and analyze the sampled
    /// history (in parallel).
    pub fn new(
        model: &'a ModelConfig,
        dataset: &'a Dataset,
        arch: &'a GpuArch,
        cfg: &TunerConfig,
    ) -> Self {
        assert!(!dataset.is_empty(), "tuning needs historical data");
        let candidates: Vec<CandidateSet> = model
            .features
            .par_iter()
            .enumerate()
            .map(|(i, f)| {
                enumerate_candidates(i, f)
                    .unwrap_or_else(|e| panic!("model `{}` is untunable: {e}", model.name))
            })
            .collect();
        let n = cfg.tuning_batches.clamp(1, dataset.len());
        let history: Vec<Vec<FeatureWorkload>> = dataset.batches()[..n]
            .par_iter()
            .map(|b| analyze_batch(model, b))
            .collect();
        TuningContext {
            model,
            dataset,
            arch,
            candidates,
            history,
        }
    }

    /// The tuning batches in use.
    pub fn tuning_batches(&self) -> &[recflex_data::Batch] {
        &self.dataset.batches()[..self.history.len()]
    }
}

/// Run the full two-stage interference-simulated tuning.
pub fn tune_two_stage(
    model: &ModelConfig,
    dataset: &Dataset,
    arch: &GpuArch,
    cfg: &TunerConfig,
) -> TuneResult {
    let ctx = TuningContext::new(model, dataset, arch, cfg);
    let levels = cfg
        .occupancy_levels
        .clone()
        .unwrap_or_else(|| arch.occupancy_levels());
    // Local stage: winners per occupancy level. Each level simulates one
    // co-execution kernel per (feature, batch) pair, all levels in one pass.
    let winners_per_level = local::tune_local_stages(&ctx, &levels, cfg);
    let local_evaluations = levels.len() * ctx.candidates.len() * ctx.history.len();
    // Global stage: pick the occupancy whose fused kernel is fastest.
    global::tune_global_stage(&ctx, &levels, winners_per_level, local_evaluations)
}

/// Run the straw-man separate-and-combine tuning (Figure 11 ablation).
pub fn tune_separate_combine(
    model: &ModelConfig,
    dataset: &Dataset,
    arch: &GpuArch,
    cfg: &TunerConfig,
) -> TuneResult {
    let ctx = TuningContext::new(model, dataset, arch, cfg);
    strawman::tune(&ctx)
}
