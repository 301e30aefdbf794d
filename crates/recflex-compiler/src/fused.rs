//! The fused kernel object and its batch-bound executable form.

use std::collections::HashMap;

use rayon::prelude::*;
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{analyze_batch, FeatureWorkload, FusedOutput, TableSet};
use recflex_schedules::ScheduleInstance;
use recflex_sim::{BlockProfile, BlockResources, LaunchConfig, ProfileCtx, SimKernel};

use crate::thread_map::{static_counts, MappingStrategy, TaskMap};

/// How the fused kernel dispatches blocks to schedules (paper Section IV-B
/// "If-else branches vs function pointer array").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Block-level if-else chain; every schedule inlines, overhead is
    /// negligible even with thousands of branches. The paper's choice.
    #[default]
    IfElse,
    /// Indirect call through a `__device__` function-pointer array —
    /// prevents inlining and costs ~45 % on issue-bound kernels; kept for
    /// the ablation.
    FnPtrArray,
}

/// Compile-time inputs of the fusion compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedSpec {
    /// One selected schedule per feature (the tuner's output `s`).
    pub schedules: Vec<ScheduleInstance>,
    /// Explicit occupancy control (blocks/SM), the global-stage decision.
    pub occupancy_target: Option<u32>,
    /// Dispatch mechanism.
    pub dispatch: DispatchMode,
}

impl FusedSpec {
    /// Spec with runtime defaults (if-else dispatch, natural occupancy).
    pub fn new(schedules: Vec<ScheduleInstance>) -> Self {
        FusedSpec {
            schedules,
            occupancy_target: None,
            dispatch: DispatchMode::IfElse,
        }
    }
}

/// The compiled fused kernel: schedule dedup table, resource union and
/// launch parameters. Independent of any particular batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedKernelObject {
    /// The spec this object was compiled from.
    pub spec: FusedSpec,
    /// `feature_idx → unique schedule id` (Figure 8's `schedule_map`).
    /// Features with identical schedules share one device function,
    /// shrinking code size and compile time.
    pub schedule_map: Vec<usize>,
    /// The deduplicated schedules, in first-appearance order.
    pub unique: Vec<ScheduleInstance>,
    /// `__launch_bounds__` resource union: max threads, max registers,
    /// max shared memory (the smem union of Figure 8 lines 12–15).
    pub resources: BlockResources,
}

impl FusedKernelObject {
    /// Compile a spec: deduplicate schedules and take the resource union.
    /// A spec with no schedules compiles to an empty kernel that demands
    /// no resources.
    pub fn compile(spec: FusedSpec) -> Self {
        let mut unique: Vec<ScheduleInstance> = Vec::new();
        let mut by_inst: HashMap<ScheduleInstance, usize> = HashMap::new();
        let mut schedule_map = Vec::with_capacity(spec.schedules.len());
        for s in &spec.schedules {
            let id = *by_inst.entry(*s).or_insert_with(|| {
                unique.push(*s);
                unique.len() - 1
            });
            schedule_map.push(id);
        }
        let mut resources = unique
            .iter()
            .fold(BlockResources::new(0, 0, 0), |a, s| a.union(&s.resources()));
        if spec.dispatch == DispatchMode::FnPtrArray {
            // Indirect calls block inlining: every schedule pays the ABI
            // register footprint, constraining the whole kernel's occupancy
            // (Section IV-B's 45 % penalty has two halves — this one and
            // the per-call issue overhead added in `profile_block`).
            resources.regs_per_thread = (resources.regs_per_thread + 26).min(255);
        }
        FusedKernelObject {
            spec,
            schedule_map,
            unique,
            resources,
        }
    }

    /// The launch configuration implied by the compile decisions.
    pub fn launch_config(&self) -> LaunchConfig {
        LaunchConfig {
            occupancy_target: self.spec.occupancy_target,
            issue_multiplier: match self.spec.dispatch {
                DispatchMode::IfElse => 1.0,
                DispatchMode::FnPtrArray => 1.45,
            },
        }
    }

    /// Bind to a live batch with **runtime thread mapping** (the RecFlex
    /// path): analyze the workload host-side, build the exact task map.
    pub fn bind<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
    ) -> BoundFusedKernel<'a> {
        self.bind_analyzed(model, tables, batch, analyze_batch(model, batch))
    }

    /// [`Self::bind`] for a batch whose `workloads` (one per feature, as
    /// [`analyze_batch`] returns them) are already known.
    pub fn bind_analyzed<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        workloads: Vec<FeatureWorkload>,
    ) -> BoundFusedKernel<'a> {
        let task_map = TaskMap::runtime(&self.spec.schedules, &workloads);
        BoundFusedKernel {
            obj: self,
            model,
            tables,
            batch,
            workloads,
            task_map,
        }
    }

    /// Bind with UVM-resident tables: lookups missing `plan`'s hot rows
    /// travel over the host interconnect (paper Section VII's hot-embedding
    /// cache composition).
    pub fn bind_uvm<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        plan: &recflex_embedding::CachePlan,
    ) -> BoundFusedKernel<'a> {
        let workloads = analyze_batch(model, batch)
            .into_iter()
            .enumerate()
            .map(|(f, w)| w.with_uvm_cold_frac(plan.cold_fraction(f, &batch.features[f])))
            .collect();
        self.bind_analyzed(model, tables, batch, workloads)
    }

    /// Bind with a **static** mapping computed from historical workloads
    /// (the Figure 13 ablation). Allocated blocks serialize extra rounds
    /// when the live batch needs more; surplus blocks idle.
    pub fn bind_static<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        history: &[Vec<FeatureWorkload>],
        strategy: MappingStrategy,
    ) -> BoundFusedKernel<'a> {
        let workloads = analyze_batch(model, batch);
        let task_map = match strategy {
            MappingStrategy::Runtime => TaskMap::runtime(&self.spec.schedules, &workloads),
            s => TaskMap::static_map(static_counts(&self.spec.schedules, history, s)),
        };
        BoundFusedKernel {
            obj: self,
            model,
            tables,
            batch,
            workloads,
            task_map,
        }
    }
}

/// A fused kernel bound to one batch: implements [`SimKernel`] for timing
/// and executes functionally.
pub struct BoundFusedKernel<'a> {
    /// The compiled kernel.
    pub obj: &'a FusedKernelObject,
    /// The model (feature specs).
    pub model: &'a ModelConfig,
    /// Embedding tables.
    pub tables: &'a TableSet,
    /// The live batch.
    pub batch: &'a Batch,
    /// Host-side workload analysis of the batch.
    pub workloads: Vec<FeatureWorkload>,
    /// The thread mapping in force.
    pub task_map: TaskMap,
}

impl BoundFusedKernel<'_> {
    /// Functional execution through the task map: every block pools, with
    /// its feature's schedule, the samples of its own logical block `rel`
    /// and, where a static map allocates fewer blocks than the batch
    /// requires, of its extra rounds `rel + allocated`, `rel +
    /// 2·allocated`, …; the timing model charges the block the same
    /// rounds. The logical blocks run in parallel, each into its own slice
    /// of the output.
    ///
    /// # Panics
    ///
    /// If the task map leaves a (feature, sample) unwritten or has two
    /// blocks write it; the message names the pair. The map is this
    /// crate's own output, so that is a bug here, not bad input.
    pub fn execute(&self) -> FusedOutput {
        let features = &self.batch.features;
        // (feature, logical block, its samples), sorted into buffer order.
        let mut blocks = Vec::with_capacity(self.task_map.entries.len());
        for b in 0..self.task_map.grid_blocks() {
            let (f, logical) = self.logical_blocks(b);
            let sched = &self.obj.spec.schedules[f];
            for l in logical {
                if let Some((s0, s1)) = sched.block_samples(&features[f], l) {
                    blocks.push((f, l, s0..s1));
                }
            }
        }
        blocks.sort_unstable_by_key(|(f, _, samples)| (*f, samples.start));
        let mut out = FusedOutput::zeros(self.model, self.batch.batch_size);
        let regions = out.split_blocks_mut(blocks.iter().map(|(f, _, s)| (*f, s.clone())));
        let work: Vec<_> = blocks.into_iter().zip(regions).collect();
        work.into_par_iter().for_each(|((f, l, _), dst)| {
            self.obj.spec.schedules[f].execute_block(self.tables.table(f), &features[f], l, dst);
        });
        out
    }

    /// The feature of task-map block `block_idx` and the logical blocks it
    /// runs: its own `rel`, then `rel + allocated`, `rel + 2·allocated`, …
    /// below the feature's `required_blocks`. A runtime map allocates
    /// exactly the required blocks, so each block runs one; a static map
    /// that allocates fewer serializes the rest as extra rounds, and
    /// surplus blocks of one that allocates more run none. Timing
    /// ([`SimKernel::profile_block`]) and [`Self::execute`] both ask here,
    /// so they agree on who owns which samples.
    fn logical_blocks(&self, block_idx: u32) -> (usize, impl Iterator<Item = u32>) {
        let (f, rel) = self.task_map.entries[block_idx as usize];
        let f = f as usize;
        let allocated = self.task_map.blocks_per_feature[f];
        let required = self.obj.spec.schedules[f].required_blocks(&self.workloads[f]);
        (f, (rel..required).step_by(allocated as usize))
    }
}

impl SimKernel for BoundFusedKernel<'_> {
    fn name(&self) -> &str {
        "recflex_fused"
    }

    fn grid_blocks(&self) -> u32 {
        self.task_map.grid_blocks()
    }

    fn resources(&self) -> BlockResources {
        self.obj.resources
    }

    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> BlockProfile {
        let (f, mut logical) = self.logical_blocks(block_idx);
        let Some(first) = logical.next() else {
            // Over-provisioned static mapping: this block finds no work.
            return BlockProfile::idle();
        };
        let sched = &self.obj.spec.schedules[f];
        let w = &self.workloads[f];
        let fb = &self.batch.features[f];
        // Under-provisioned static mapping: the block's extra rounds.
        let mut p = sched.block_profile(fb, w, first, ctx.reg_cap);
        for l in logical {
            p.accumulate(&sched.block_profile(fb, w, l, ctx.reg_cap));
        }
        match self.obj.spec.dispatch {
            // If-else dispatch: one comparison per preceding unique
            // schedule; inlined, so the cost is a handful of issue slots
            // (the paper measured it negligible even with thousands of
            // branches).
            DispatchMode::IfElse => p.issue_cycles += self.obj.schedule_map[f] as f64 * 0.05,
            // Function-pointer dispatch: call setup/teardown per block,
            // spilled ABI state, and no cross-call load reordering.
            DispatchMode::FnPtrArray => {
                p.issue_cycles += 60.0;
                p.mlp = (p.mlp * 0.6).max(1.0);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recflex_data::{Dataset, ModelPreset};
    use recflex_embedding::reference_model_output;
    use recflex_schedules::enumerate_candidates;
    use recflex_sim::{launch, GpuArch};

    fn compile_first_candidates(model: &ModelConfig) -> FusedKernelObject {
        let schedules: Vec<ScheduleInstance> = model
            .features
            .iter()
            .enumerate()
            .map(|(i, f)| enumerate_candidates(i, f).unwrap().candidates[0])
            .collect();
        FusedKernelObject::compile(FusedSpec::new(schedules))
    }

    #[test]
    fn dedup_shares_identical_schedules() {
        let m = ModelPreset::D.scaled(0.02); // uniform dim 8 → heavy sharing
        let obj = compile_first_candidates(&m);
        assert!(
            obj.unique.len() < m.features.len(),
            "uniform model must dedup"
        );
        assert_eq!(obj.schedule_map.len(), m.features.len());
        for (f, &id) in obj.schedule_map.iter().enumerate() {
            assert_eq!(obj.unique[id], obj.spec.schedules[f]);
        }
    }

    #[test]
    fn resource_union_bounds_every_schedule() {
        let m = ModelPreset::A.scaled(0.02);
        let obj = compile_first_candidates(&m);
        for s in &obj.unique {
            let r = s.resources();
            assert!(r.threads_per_block <= obj.resources.threads_per_block);
            assert!(r.regs_per_thread <= obj.resources.regs_per_thread);
            assert!(r.smem_per_block <= obj.resources.smem_per_block);
        }
    }

    #[test]
    fn fused_output_matches_reference() {
        let m = ModelPreset::A.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 48, 17);
        let obj = compile_first_candidates(&m);
        let bound = obj.bind(&m, &tables, &batch);
        let report = launch(&bound, &GpuArch::v100(), &obj.launch_config()).unwrap();
        let golden = reference_model_output(&m, &tables, &batch);
        assert!(bound.execute().bits_eq(&golden));
        assert!(report.latency_us > 0.0);
    }

    #[test]
    fn runtime_binding_profiles_every_block_non_idle() {
        let m = ModelPreset::C.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 64, 7);
        let obj = compile_first_candidates(&m);
        let bound = obj.bind(&m, &tables, &batch);
        let ctx = ProfileCtx::default();
        for b in 0..bound.grid_blocks() {
            let p = bound.profile_block(b, &ctx);
            assert!(
                !p.is_idle(),
                "runtime mapping never over-provisions (block {b})"
            );
        }
    }

    #[test]
    fn static_average_mapping_serializes_or_idles() {
        let m = ModelPreset::C.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let ds = Dataset::synthesize(&m, 3, 64, 5);
        let history: Vec<Vec<FeatureWorkload>> =
            ds.batches().iter().map(|b| analyze_batch(&m, b)).collect();
        let big = Batch::generate(&m, 256, 99); // larger than history
        let obj = compile_first_candidates(&m);
        let rt = obj.bind(&m, &tables, &big);
        let avg = obj.bind_static(&m, &tables, &big, &history, MappingStrategy::StaticAverage);
        assert!(
            avg.grid_blocks() < rt.grid_blocks(),
            "avg mapping under-provisions"
        );
        // Total work must be conserved: the serialized blocks pick it up.
        let ctx = ProfileCtx::default();
        let rt_flops: u64 = (0..rt.grid_blocks())
            .map(|b| rt.profile_block(b, &ctx).flops)
            .sum();
        let avg_flops: u64 = (0..avg.grid_blocks())
            .map(|b| avg.profile_block(b, &ctx).flops)
            .sum();
        assert_eq!(
            rt_flops, avg_flops,
            "work is conserved under static mapping"
        );
        // The serialized rounds pool their samples too.
        assert!(avg
            .execute()
            .bits_eq(&reference_model_output(&m, &tables, &big)));
    }

    #[test]
    fn static_max_mapping_idles_on_small_batches() {
        let m = ModelPreset::C.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let ds = Dataset::synthesize(&m, 3, 256, 5);
        let history: Vec<Vec<FeatureWorkload>> =
            ds.batches().iter().map(|b| analyze_batch(&m, b)).collect();
        let small = Batch::generate(&m, 32, 1);
        let obj = compile_first_candidates(&m);
        let bound = obj.bind_static(&m, &tables, &small, &history, MappingStrategy::StaticMax);
        let ctx = ProfileCtx::default();
        let idle = (0..bound.grid_blocks())
            .filter(|&b| bound.profile_block(b, &ctx).is_idle())
            .count();
        assert!(
            idle > 0,
            "max mapping must leave idle blocks on small batches"
        );
        assert!(bound
            .execute()
            .bits_eq(&reference_model_output(&m, &tables, &small)));
    }

    /// Execute model C at 0.02 after `corrupt` edits its runtime task
    /// map's entries, given the feature with the most blocks.
    fn execute_corrupted(corrupt: impl FnOnce(&mut Vec<(u32, u32)>, u32)) {
        let m = ModelPreset::C.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 200, 3);
        let obj = compile_first_candidates(&m);
        let mut bound = obj.bind(&m, &tables, &batch);
        let blocks = &bound.task_map.blocks_per_feature;
        let f = (0..blocks.len()).max_by_key(|&f| blocks[f]).unwrap();
        assert!(blocks[f] > 1);
        corrupt(&mut bound.task_map.entries, f as u32);
        bound.execute();
    }

    #[test]
    #[should_panic(expected = "no block writes it")]
    fn execute_panics_when_the_map_drops_a_features_last_block() {
        execute_corrupted(|entries, f| {
            let last = entries.iter().rposition(|e| e.0 == f).unwrap();
            entries.remove(last);
        });
    }

    #[test]
    #[should_panic(expected = "two blocks write it")]
    fn execute_panics_when_the_map_lists_a_block_twice() {
        execute_corrupted(|entries, f| {
            let first = entries.iter().position(|e| e.0 == f).unwrap();
            entries.insert(first + 1, entries[first]);
        });
    }

    proptest! {
        #[test]
        fn execute_through_any_mapping_matches_reference(
            preset in 0usize..6,
            frac_permille in 3u32..=12,
            batch_size in 1u32..=300,
            picks in 0u64..u64::MAX,
            strategy in 0usize..3,
        ) {
            let preset = [
                ModelPreset::A,
                ModelPreset::B,
                ModelPreset::C,
                ModelPreset::D,
                ModelPreset::E,
                ModelPreset::MLPerfLike,
            ][preset];
            let m = preset.scaled(frac_permille as f64 / 1000.0);
            let tables = TableSet::for_model(&m);
            let mut rng = StdRng::seed_from_u64(picks);
            let schedules: Vec<ScheduleInstance> = m
                .features
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let c = enumerate_candidates(i, f).unwrap().candidates;
                    c[rng.gen_range(0..c.len())]
                })
                .collect();
            let obj = FusedKernelObject::compile(FusedSpec::new(schedules));
            let batch = Batch::generate(&m, batch_size, picks);
            // History batches of other sizes, so static maps serialize
            // rounds or idle blocks.
            let history: Vec<Vec<FeatureWorkload>> = (0..3)
                .map(|i| {
                    let size = (batch_size + rng.gen_range(0..299u32)) % 300 + 1;
                    analyze_batch(&m, &Batch::generate(&m, size, picks ^ i))
                })
                .collect();
            let strategy = [
                MappingStrategy::Runtime,
                MappingStrategy::StaticAverage,
                MappingStrategy::StaticMax,
            ][strategy];
            let bound = obj.bind_static(&m, &tables, &batch, &history, strategy);
            prop_assert!(
                bound.execute().bits_eq(&reference_model_output(&m, &tables, &batch)),
                "{} at {} permille, batch {}, picks {}, {:?}",
                preset.name(),
                frac_permille,
                batch_size,
                picks,
                strategy
            );
        }
    }

    #[test]
    fn fnptr_dispatch_raises_issue_multiplier() {
        let m = ModelPreset::A.scaled(0.01);
        let mut obj = compile_first_candidates(&m);
        assert_eq!(obj.launch_config().issue_multiplier, 1.0);
        obj.spec.dispatch = DispatchMode::FnPtrArray;
        assert!((obj.launch_config().issue_multiplier - 1.45).abs() < 1e-12);
    }

    #[test]
    fn occupancy_target_propagates() {
        let m = ModelPreset::A.scaled(0.01);
        let mut obj = compile_first_candidates(&m);
        obj.spec.occupancy_target = Some(4);
        assert_eq!(obj.launch_config().occupancy_target, Some(4));
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 32, 2);
        let bound = obj.bind(&m, &tables, &batch);
        let report = launch(&bound, &GpuArch::v100(), &obj.launch_config()).unwrap();
        assert!(report.occupancy.blocks_per_sm <= 4);
    }
}
