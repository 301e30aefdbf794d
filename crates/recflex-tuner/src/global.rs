//! Global tuning stage: pick the occupancy (Equation 4).
//!
//! For every occupancy level, fuse that level's local-stage winners with
//! explicit occupancy control and measure the real fused kernel on the
//! sampled historical batches; keep the level with the lowest mean latency.
//! The measurements are independent, so they run on the pool; the argmin
//! is then taken in level order, exactly as a sequential sweep would. They
//! bind the tuning batches with the context's analyses instead of
//! analysing each batch again per variant.

use rayon::prelude::*;
use recflex_compiler::{FusedKernelObject, FusedSpec};
use recflex_schedules::ScheduleInstance;
use recflex_sim::launch;

use crate::{TuneResult, TuningContext};

/// Run the global stage over `levels` with the corresponding local-stage
/// `winners` (one choice vector per level). `local_evaluations` is the
/// launch count the local stage already spent; the fused measurements made
/// here are added on top for [`TuneResult::evaluations`].
pub fn tune_global_stage(
    ctx: &TuningContext<'_>,
    levels: &[u32],
    winners: Vec<Vec<usize>>,
    local_evaluations: usize,
) -> TuneResult {
    assert_eq!(levels.len(), winners.len());
    let tables = recflex_embedding::TableSet::for_model(ctx.model);

    // Measure each level's winner set both with explicit control at `O_k`
    // and at the union's natural occupancy: controlling occupancy must
    // never be a regression over simply fusing the winners.
    let variants: Vec<(usize, Option<u32>)> = levels
        .iter()
        .enumerate()
        .flat_map(|(li, &k)| [(li, Some(k)), (li, None)])
        .collect();
    let means: Vec<Option<f64>> = variants
        .par_iter()
        .map(|&(li, occ)| {
            let schedules: Vec<ScheduleInstance> = winners[li]
                .iter()
                .enumerate()
                .map(|(f, &c)| ctx.candidates[f].candidates[c])
                .collect();
            let mut spec = FusedSpec::new(schedules);
            spec.occupancy_target = occ;
            let obj = FusedKernelObject::compile(spec);

            let mut total = 0.0f64;
            let mut measured = 0usize;
            for (batch, workloads) in ctx.tuning_batches().iter().zip(&ctx.history) {
                let bound = obj.bind_analyzed(ctx.model, &tables, batch, workloads.clone());
                if let Ok(report) = launch(&bound, ctx.arch, &obj.launch_config()) {
                    total += report.latency_us;
                    measured += 1;
                }
            }
            // `None`: infeasible for the union kernel.
            (measured > 0).then(|| total / measured as f64)
        })
        .collect();
    let evaluations = local_evaluations + variants.len() * ctx.tuning_batches().len();

    let mut global_latencies = Vec::with_capacity(levels.len());
    // (level index, occupancy decision) → measured mean latency.
    let mut best: Option<(usize, Option<u32>, f64)> = None;
    for (&(li, occ), mean) in variants.iter().zip(means) {
        let Some(mean) = mean else { continue };
        if occ.is_some() {
            global_latencies.push((levels[li], mean));
        }
        if best.map(|(_, _, b)| mean < b).unwrap_or(true) {
            best = Some((li, occ, mean));
        }
    }

    let (best_li, best_occ, best_mean) =
        best.expect("at least one occupancy level must be feasible");
    let choices = winners[best_li].clone();
    let schedules: Vec<ScheduleInstance> = choices
        .iter()
        .enumerate()
        .map(|(f, &c)| ctx.candidates[f].candidates[c])
        .collect();
    TuneResult {
        schedules,
        choices,
        occupancy: best_occ,
        global_latencies,
        evaluations,
        mean_latency_us: best_mean,
    }
}

#[cfg(test)]
mod tests {
    use crate::{tune_two_stage, TunerConfig};
    use recflex_data::{Dataset, ModelPreset};
    use recflex_sim::GpuArch;

    #[test]
    fn two_stage_produces_complete_result() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let result = tune_two_stage(&m, &ds, &arch, &TunerConfig::fast());
        assert_eq!(result.schedules.len(), m.features.len());
        assert_eq!(result.choices.len(), m.features.len());
        if let Some(occ) = result.occupancy {
            assert!(TunerConfig::fast().occupancy_levels.unwrap().contains(&occ));
            // The chosen level's latency is the minimum of the measured
            // controlled variants.
            let best = result
                .global_latencies
                .iter()
                .map(|&(_, l)| l)
                .fold(f64::INFINITY, f64::min);
            let chosen = result
                .global_latencies
                .iter()
                .find(|&&(k, _)| k == occ)
                .map(|&(_, l)| l)
                .unwrap();
            assert!(chosen <= best + 1e-9);
        }
        assert!(!result.global_latencies.is_empty());
    }

    #[test]
    fn two_stage_deterministic() {
        let m = ModelPreset::C.scaled(0.008);
        let ds = Dataset::synthesize(&m, 2, 32, 9);
        let arch = GpuArch::v100();
        let a = tune_two_stage(&m, &ds, &arch, &TunerConfig::fast());
        let b = tune_two_stage(&m, &ds, &arch, &TunerConfig::fast());
        assert_eq!(a.choices, b.choices);
        assert_eq!(a.occupancy, b.occupancy);
    }

    #[test]
    fn heterogeneous_model_selects_multiple_schedule_kinds() {
        // The raison d'être of RecFlex: different features get different
        // schedules. On a heterogeneous model the tuner must not collapse
        // to a single uniform choice.
        let m = ModelPreset::A.scaled(0.02);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let arch = GpuArch::v100();
        let result = tune_two_stage(&m, &ds, &arch, &TunerConfig::fast());
        let kinds: std::collections::HashSet<_> = result.schedules.iter().map(|s| s.kind).collect();
        let labels: std::collections::HashSet<_> =
            result.schedules.iter().map(|s| s.label()).collect();
        assert!(
            kinds.len() >= 2 || labels.len() >= 3,
            "heterogeneity-aware tuning must pick diverse schedules: kinds {kinds:?}"
        );
    }
}
