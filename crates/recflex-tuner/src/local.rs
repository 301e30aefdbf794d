//! Local tuning stage: per-feature winners under each occupancy level.
//!
//! For occupancy `O_k` and feature `f`, the stage launches one co-execution
//! kernel per tuning batch (candidates side by side on duplicated inputs,
//! grid padded to fill the SM slots) and sums every candidate's block times
//! across batches — Equations 3 + 5. The feature loop is embarrassingly
//! parallel (the paper farms it over eight GPUs; we farm it over cores).
//!
//! All levels are simulated in one pass per (feature, batch): the
//! candidate blocks are sorted once into the classes of identical blocks
//! that [`CoExecKernel`] reports to [`launch`], and each class is profiled
//! once without a register cap. Each level then finishes and times each
//! class once for its own cap, the padding entering through the grid's
//! memory totals alone, and folds every candidate's score block by block.
//! The scores are bit for bit those of scoring a full [`launch`] of each
//! level's [`CoExecKernel`] (DESIGN.md §5 says why).
//!
//! [`launch`]: recflex_sim::launch()

use rayon::prelude::*;
use recflex_schedules::BaseBlockProfile;
use recflex_sim::occupancy::control_occupancy;
use recflex_sim::{
    BlockClasses, BlockProfile, BlockTime, BlockTimer, GpuArch, LaunchConfig, SimKernel,
};

use crate::coexec::{padding_profile, CoExecKernel};
use crate::{TunerConfig, TuningContext};

/// Tune every feature under occupancy target `k`. Returns the winning
/// candidate index per feature.
pub fn tune_local_stage(ctx: &TuningContext<'_>, k: u32, cfg: &TunerConfig) -> Vec<usize> {
    tune_local_stages(ctx, &[k], cfg).swap_remove(0)
}

/// Tune every feature under each occupancy target in `levels`, in one pass
/// over the candidate blocks. Returns the winning candidate index per
/// feature, one vector per level.
pub fn tune_local_stages(
    ctx: &TuningContext<'_>,
    levels: &[u32],
    cfg: &TunerConfig,
) -> Vec<Vec<usize>> {
    let winners: Vec<Vec<usize>> = local_scores(ctx, levels, cfg)
        .iter()
        .map(|by_level| by_level.iter().map(|scores| argmin(scores)).collect())
        .collect();
    (0..levels.len())
        .map(|li| winners.iter().map(|w| w[li]).collect())
        .collect()
}

/// Every candidate's score, indexed `[feature][level][candidate]`.
pub(crate) fn local_scores(
    ctx: &TuningContext<'_>,
    levels: &[u32],
    cfg: &TunerConfig,
) -> Vec<Vec<Vec<f64>>> {
    let pad = padding_profile(&ctx.history);
    ctx.candidates
        .par_iter()
        .map(|cs| {
            let f = cs.feature_idx;
            let mut scores = vec![vec![0.0f64; cs.len()]; levels.len()];
            let mut finished = Vec::new();
            for (bi, batch) in ctx.tuning_batches().iter().enumerate() {
                let w = &ctx.history[bi][f];
                let fb = &batch.features[f];
                let mut kern = CoExecKernel::new(&cs.candidates, fb, w, 0, pad);
                let work = WorkClasses::of(&kern);
                for (&k, scores) in levels.iter().zip(&mut scores) {
                    kern.pad_blocks = pad_target(ctx.arch, k, cfg);
                    score_level(&kern, &work, ctx.arch, k, &mut finished, scores);
                }
            }
            scores
        })
        .collect()
}

/// Padding blocks that fill `cfg.pad_fill` times the SM slots at `k`.
fn pad_target(arch: &GpuArch, k: u32, cfg: &TunerConfig) -> u32 {
    let slots = arch.num_sms as f64 * k as f64;
    (slots * cfg.pad_fill).ceil() as u32
}

/// A co-execution kernel's work blocks sorted into classes of identical
/// blocks, each profiled once before occupancy control: what every level
/// finishes and times.
struct WorkClasses {
    /// The classes ([`CoExecKernel::work_classes`]).
    classes: BlockClasses,
    /// Per class, its candidate and its base profile.
    base: Vec<(usize, BaseBlockProfile)>,
    /// Per class, its number of blocks.
    blocks: Vec<u64>,
}

impl WorkClasses {
    fn of(kern: &CoExecKernel<'_>) -> Self {
        let classes = kern.work_classes();
        let base = kern.class_bases(&classes);
        let mut blocks = vec![0u64; base.len()];
        for &c in classes.class_of() {
            blocks[c as usize] += 1;
        }
        WorkClasses {
            classes,
            base,
            blocks,
        }
    }
}

/// Add each candidate's score from `kern` launched at occupancy `k` to
/// `scores`, given its work blocks' classes; `finished` is scratch. Adds
/// nothing when the candidate union cannot launch at `k`.
fn score_level(
    kern: &CoExecKernel<'_>,
    work: &WorkClasses,
    arch: &GpuArch,
    k: u32,
    finished: &mut Vec<BlockProfile>,
    scores: &mut [f64],
) {
    // A candidate union that cannot launch at `k` scores nothing from this
    // batch. There is no per-candidate fallback: if no batch launches,
    // every score stays zero and `argmin` picks candidate 0.
    let Some(ctl) = control_occupancy(&kern.resources(), arch, k) else {
        return;
    };
    // This level's register cap decides each class's spill.
    finished.clear();
    finished.extend(work.base.iter().map(|(i, base)| {
        kern.candidates[*i].finish_block_profile(base, kern.workload, ctl.reg_cap)
    }));
    // Padding blocks reach the candidates only through the grid's memory
    // totals and size: every one reports the same uncapped profile. The
    // totals are exact integers, so each class may add its bytes times its
    // block count.
    let pad = u64::from(kern.pad_blocks);
    let pad_total = pad.saturating_mul(kern.pad_profile.bytes_accessed);
    let pad_unique = pad.saturating_mul(kern.pad_profile.unique_bytes);
    let (mut total, mut unique) = (0u64, 0u64);
    for (p, &n) in finished.iter().zip(&work.blocks) {
        total += n * p.bytes_accessed;
        unique += n * p.unique_bytes;
    }
    let timer = BlockTimer::new(
        arch,
        &LaunchConfig::with_occupancy(k),
        ctl.blocks_per_sm,
        u64::from(kern.work_blocks()) + pad,
        total.saturating_add(pad_total),
        unique.saturating_add(pad_unique),
    );
    // Each class is timed once; the sums below fold its times per block.
    let times: Vec<BlockTime> = finished.iter().map(|p| timer.time(p)).collect();
    let class_of = work.classes.class_of();
    let slots = (arch.num_sms as f64 * k as f64).max(1.0);
    for (i, score) in scores.iter_mut().enumerate() {
        // The candidate's contribution to the fused two-bound makespan: its
        // Equation-3 block-time sum spread over the SM slots, floored by
        // its own worst straggler block. For saturating workloads the sum
        // term dominates and this reduces to the paper's Eq. 3.
        let mut straggler = 0.0f64;
        let sum: f64 = class_of[kern.segment(i)]
            .iter()
            .map(|&c| {
                let t = &times[c as usize];
                straggler = straggler.max(t.solo);
                t.steady
            })
            .sum();
        *score += (sum / slots).max(straggler);
    }
}

/// Index of the smallest score (first on ties; all-zero scores fall back
/// to candidate 0, a safe default).
pub(crate) fn argmin(scores: &[f64]) -> usize {
    let mut best = 0usize;
    let mut best_v = f64::INFINITY;
    for (i, &v) in scores.iter().enumerate() {
        let v = if v == 0.0 { f64::INFINITY } else { v };
        if v < best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coexec::PerBlock;
    use recflex_data::{Dataset, ModelPreset};
    use recflex_sim::{launch, GpuArch};

    /// The scorer before the one-pass rewrite, kept as the oracle: launch
    /// each feature's full padded co-execution kernel at `k` per batch,
    /// profiling every block on its own, and score every candidate segment
    /// from the report. `[feature][candidate]`.
    fn launch_scores(ctx: &TuningContext<'_>, k: u32, cfg: &TunerConfig) -> Vec<Vec<f64>> {
        let pad = padding_profile(&ctx.history);
        let slots = ctx.arch.num_sms as f64 * k as f64;
        let pad_target = (slots * cfg.pad_fill).ceil() as u32;
        ctx.candidates
            .iter()
            .map(|cs| {
                let f = cs.feature_idx;
                let mut scores = vec![0.0f64; cs.len()];
                let slots = (ctx.arch.num_sms * k).max(1) as f64;
                for (bi, batch) in ctx.tuning_batches().iter().enumerate() {
                    let w = &ctx.history[bi][f];
                    let fb = &batch.features[f];
                    let kern = CoExecKernel::new(&cs.candidates, fb, w, pad_target, pad);
                    let config = LaunchConfig::with_occupancy(k);
                    let Ok(report) = launch(&PerBlock(&kern), ctx.arch, &config) else {
                        continue;
                    };
                    for (i, score) in scores.iter_mut().enumerate() {
                        let seg = kern.segment(i);
                        let sum = report.block_time_sum(seg.clone()) / slots;
                        let straggler = report.block_solo_times[seg]
                            .iter()
                            .copied()
                            .fold(0.0f64, f64::max);
                        *score += sum.max(straggler);
                    }
                }
                scores
            })
            .collect()
    }

    #[test]
    fn one_pass_scores_and_winners_are_bit_identical_to_full_launches() {
        const LEVELS: [u32; 5] = [1, 2, 4, 8, 16];
        // V100 as shipped, where high levels cap registers and spill; and a
        // V100 whose 64-register thread limit leaves wide candidate unions
        // unlaunchable at low levels, until a high level caps them to fit.
        let mut narrow = GpuArch::v100();
        narrow.max_regs_per_thread = 64;
        let pools = [rayon::ThreadPool::new(1), rayon::ThreadPool::new(2)];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut spilled, mut skipped, mut collapsed) = (0, 0, 0);
        for (preset, scale) in [
            (ModelPreset::A, 0.01),
            (ModelPreset::C, 0.008),
            (ModelPreset::D, 0.01),
        ] {
            let m = preset.scaled(scale);
            let ds = Dataset::synthesize(&m, 2, 48, 5);
            for arch in [GpuArch::v100(), narrow.clone()] {
                let cfg = TunerConfig::fast();
                let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
                for cs in &ctx.candidates {
                    let f = cs.feature_idx;
                    for (bi, batch) in ctx.tuning_batches().iter().enumerate() {
                        let kern = CoExecKernel::new(
                            &cs.candidates,
                            &batch.features[f],
                            &ctx.history[bi][f],
                            0,
                            BlockProfile::idle(),
                        );
                        let classes = kern.work_classes().representatives().len();
                        collapsed += (classes < kern.work_blocks() as usize) as usize;
                    }
                    let union = cs
                        .candidates
                        .iter()
                        .map(|c| c.resources())
                        .reduce(|a, b| a.union(&b))
                        .unwrap();
                    for k in LEVELS {
                        match control_occupancy(&union, &arch, k) {
                            None => skipped += 1,
                            Some(ctl) => {
                                let cap = ctl.reg_cap.unwrap_or(u32::MAX);
                                spilled +=
                                    cs.candidates.iter().any(|c| c.natural_regs() > cap) as usize;
                            }
                        }
                    }
                }
                let oracle = LEVELS.map(|k| launch_scores(&ctx, k, &cfg));
                for pool in &pools {
                    let scores = pool.install(|| local_scores(&ctx, &LEVELS, &cfg));
                    let winners = pool.install(|| tune_local_stages(&ctx, &LEVELS, &cfg));
                    for (li, &k) in LEVELS.iter().enumerate() {
                        for (f, want) in oracle[li].iter().enumerate() {
                            assert_eq!(
                                bits(&scores[f][li]),
                                bits(want),
                                "{} on {:?}: feature {f} at O={k}",
                                m.name,
                                arch.max_regs_per_thread
                            );
                        }
                        let want: Vec<usize> = oracle[li].iter().map(|s| argmin(s)).collect();
                        assert_eq!(winners[li], want, "{} at O={k}", m.name);
                        assert_eq!(pool.install(|| tune_local_stage(&ctx, k, &cfg)), want);
                    }
                }
            }
        }
        assert!(
            spilled > 0,
            "some level must cap registers below a candidate"
        );
        assert!(
            skipped > 0,
            "some level must leave a candidate union unlaunchable"
        );
        assert!(
            collapsed > 0,
            "some feature's candidate blocks must collapse into classes"
        );
    }

    #[test]
    fn padding_arithmetic_cannot_overflow() {
        // An infinite fill factor saturates the padding-block count at
        // u32::MAX, and the last level makes the SM-slot count overflow
        // u32: totals and grid size are taken in u64, slots in f64.
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig {
            pad_fill: f64::INFINITY,
            ..TunerConfig::fast()
        };
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        assert_eq!(pad_target(&arch, 16, &cfg), u32::MAX);
        for winners in tune_local_stages(&ctx, &[1, 16, u32::MAX], &cfg) {
            for (f, &w) in winners.iter().enumerate() {
                assert!(w < ctx.candidates[f].len());
            }
        }
    }

    #[test]
    fn argmin_basics() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), 1);
        assert_eq!(argmin(&[1.0, 1.0]), 0, "ties break to the first");
        assert_eq!(argmin(&[0.0, 0.0]), 0, "all-unmeasured falls back to 0");
        assert_eq!(argmin(&[0.0, 5.0]), 1, "unmeasured treated as infinity");
    }

    #[test]
    fn local_stage_returns_valid_choices() {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        let winners = tune_local_stage(&ctx, 4, &cfg);
        assert_eq!(winners.len(), m.features.len());
        for (f, &w) in winners.iter().enumerate() {
            assert!(
                w < ctx.candidates[f].len(),
                "feature {f} choice out of range"
            );
        }
    }

    #[test]
    fn local_stage_is_deterministic() {
        let m = ModelPreset::C.scaled(0.008);
        let ds = Dataset::synthesize(&m, 2, 32, 9);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        assert_eq!(
            tune_local_stage(&ctx, 4, &cfg),
            tune_local_stage(&ctx, 4, &cfg)
        );
    }

    #[test]
    fn occupancy_changes_winners_for_some_feature() {
        // The whole point of the two-stage design: the best schedule
        // depends on the occupancy environment. Over a heterogeneous
        // model at least one feature should flip between extreme levels.
        let m = ModelPreset::A.scaled(0.02);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let ctx = TuningContext::new(&m, &ds, &arch, &cfg);
        let low = tune_local_stage(&ctx, 1, &cfg);
        let high = tune_local_stage(&ctx, 16, &cfg);
        assert_ne!(low, high, "occupancy must matter for schedule choice");
    }
}
