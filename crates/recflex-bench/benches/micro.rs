//! Criterion micro-benchmarks for the overhead claims of Section VI-E:
//!
//! * `thread_map/runtime_build` — the host-side workload analysis + task
//!   map construction that the paper measures at < 0.1 % of data-loading
//!   time;
//! * `tuning/local_stage_20f` and `tuning/local_stages_20f_5levels` — the
//!   local stage at one occupancy level and at five in one pass, the unit
//!   cost behind the `O(F·K + K)` tuning complexity argument;
//! * simulator primitives (occupancy calculation, fused-kernel launch)
//!   that bound how fast experiments replay;
//! * `host/cost_small_chunk` and `host/unique_rows_35k` — the per-chunk
//!   price of timing-only serving on small requests, and the distinct-row
//!   count behind its workload analysis;
//! * `host/shard_fanout_*` — one chunk priced over a tier's lanes, shard
//!   by shard inline and all at once on a 2-worker pool;
//! * `host/chunk_slices_8x64` — the eight shard slices of one coalesced
//!   chunk, by `Batch::merge` plus `Placement::project_batch` and by
//!   `Batch::gather` from the requests' sample ranges;
//! * `sim/profile_blocks/*` — the grid profiling `launch` does, one
//!   block per class of identical blocks, inline and on a 2-worker pool,
//!   for the kernels the host benchmark's workloads launch;
//! * `exec/reference_pooling_50f_128b` and `exec/fused_execute_50f_128b` —
//!   one batch pooled by the scalar reference and by the fused kernel's
//!   task-map executor;
//! * `data/generate_*` — synthesizing one request: `serve-longtail`'s
//!   largest (2 560 samples of model A at 0.03) and two of
//!   `serve-smallreq`'s (8 and 3 samples of model A at 0.05), the first
//!   two drawn on the pool and the last inline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::ops::Range;

use rayon::prelude::*;
use recflex_baselines::{cost_each, Backend};
use recflex_compiler::{FusedKernelObject, FusedSpec, TaskMap};
use recflex_core::RecFlexEngine;
use recflex_data::{
    Batch, Dataset, FeatureBatch, FeatureSpec, ModelConfig, ModelPreset, Placement, PoolingDist,
};
use recflex_embedding::{analyze_batch, TableSet};
use recflex_schedules::{enumerate_candidates, ScheduleInstance};
use recflex_sim::{launch, occupancy, BlockResources, GpuArch, ProfileCtx, SimKernel};
use recflex_tuner::{local, TunerConfig, TuningContext};

/// Every feature's first candidate schedule.
fn first_candidates(m: &ModelConfig) -> Vec<ScheduleInstance> {
    m.features
        .iter()
        .enumerate()
        .map(|(i, f)| enumerate_candidates(i, f).unwrap().candidates[0])
        .collect()
}

fn bench_occupancy(c: &mut Criterion) {
    let arch = GpuArch::v100();
    c.bench_function("sim/occupancy_calc", |b| {
        b.iter(|| {
            let res = BlockResources::new(black_box(128), black_box(64), black_box(8192));
            black_box(occupancy::occupancy(&res, &arch))
        })
    });
}

fn bench_workload_analysis(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let batch = Batch::generate(&m, 256, 7);
    c.bench_function("host/workload_analysis_100f_256b", |b| {
        b.iter(|| black_box(analyze_batch(&m, &batch)))
    });
}

fn bench_thread_map(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let batch = Batch::generate(&m, 256, 7);
    let workloads = analyze_batch(&m, &batch);
    let schedules = first_candidates(&m);
    c.bench_function("host/thread_map_runtime_build", |b| {
        b.iter(|| black_box(TaskMap::runtime(&schedules, &workloads)))
    });
}

fn bench_fused_launch(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.1);
    let tables = TableSet::for_model(&m);
    let batch = Batch::generate(&m, 256, 7);
    let schedules = first_candidates(&m);
    let obj = FusedKernelObject::compile(FusedSpec::new(schedules));
    let arch = GpuArch::v100();
    let mut g = c.benchmark_group("sim");
    g.sample_size(20);
    g.bench_function("fused_launch_100f_256b", |b| {
        b.iter(|| {
            let bound = obj.bind(&m, &tables, &batch);
            black_box(
                launch(&bound, &arch, &obj.launch_config())
                    .unwrap()
                    .latency_us,
            )
        })
    });
    g.finish();
}

fn bench_cost_small_chunk(c: &mut Criterion) {
    // One shard of model A at 0.05 split 8 ways, pricing a 14-sample chunk
    // (the typical merged chunk of many small requests): what
    // `Backend::cost` pays per chunk — analysis, task map, launch.
    let arch = GpuArch::v100();
    let m = ModelPreset::A.scaled(0.05);
    let history = Dataset::synthesize(&m, 3, 256, 1);
    let costs = recflex_core::feature_cost_estimates(&m, &history, &arch);
    let shard = Placement::balance_by_cost(8, &costs).sub_model(&m, 0);
    let tables = TableSet::for_model(&shard);
    let chunk = Batch::generate(&shard, 14, 7);
    let schedules = first_candidates(&shard);
    let obj = FusedKernelObject::compile(FusedSpec::new(schedules));
    c.bench_function("host/cost_small_chunk", |b| {
        b.iter(|| {
            let bound = obj.bind(&shard, &tables, black_box(&chunk));
            black_box(
                launch(&bound, &arch, &obj.launch_config())
                    .unwrap()
                    .latency_us,
            )
        })
    });
}

fn bench_shard_fanout(c: &mut Criterion) {
    // One chunk priced over a tier's tuned lanes — each shard's projection
    // plus `Backend::cost` — shard by shard on this thread, and through
    // `cost_each` on a 2-worker pool: `serve-longtail`'s shape (model A at
    // 0.03 over 2 shards, a 256-sample chunk) and `serve-smallreq`'s (model
    // A at 0.05 over 8 shards, a 16-sample chunk).
    let arch = GpuArch::v100();
    let cfg = TunerConfig {
        occupancy_levels: Some(vec![1, 2, 4, 8, 16]),
        tuning_batches: 3,
        pad_fill: 2.0,
    };
    let pool = rayon::ThreadPool::new(2);
    for (frac, shards, samples) in [(0.03, 2, 256), (0.05, 8, 16)] {
        let m = ModelPreset::A.scaled(frac);
        let history = Dataset::synthesize(&m, 3, 256, 1);
        let costs = recflex_core::feature_cost_estimates(&m, &history, &arch);
        let placement = Placement::balance_by_cost(shards, &costs);
        let lanes: Vec<(usize, ModelConfig, TableSet, RecFlexEngine)> = (0..shards)
            .map(|s| {
                let sub = placement.sub_model(&m, s);
                let history = Dataset::synthesize(&sub, 3, 256, 2);
                let engine = RecFlexEngine::tune(&sub, &history, &arch, &cfg);
                let tables = TableSet::for_model(&sub);
                (s, sub, tables, engine)
            })
            .collect();
        let chunk = Batch::generate(&m, samples, 7);
        let price = |(s, sub, tables, engine): &(usize, ModelConfig, TableSet, RecFlexEngine)| {
            engine.cost(sub, tables, &placement.project_batch(&chunk, *s), &arch)
        };
        let mut g = c.benchmark_group(&format!("host/shard_fanout_{shards}x{samples}"));
        g.sample_size(400);
        g.bench_function("inline", |b| {
            b.iter(|| lanes.iter().map(price).collect::<Vec<_>>())
        });
        g.bench_function("pool2", |b| {
            b.iter(|| pool.install(|| cost_each(&lanes, price)))
        });
        g.finish();
    }
}

fn bench_chunk_slices(c: &mut Criterion) {
    // The eight shard slices of one 64-sample `serve-smallreq` chunk (model
    // A at 0.05 over 8 shards), drawn from five requests: the tail of one,
    // three whole ones and the head of the fifth. `merge_project` is the
    // copy path of coalesced chunks before `Batch::gather`: merge the
    // requests' pieces (themselves copies), then project the merged batch
    // per shard. `gather` builds each slice from the ranges in one copy.
    let arch = GpuArch::v100();
    let m = ModelPreset::A.scaled(0.05);
    let history = Dataset::synthesize(&m, 3, 256, 1);
    let costs = recflex_core::feature_cost_estimates(&m, &history, &arch);
    let placement = Placement::balance_by_cost(8, &costs);
    let features_of: Vec<Vec<usize>> = (0..8).map(|s| placement.features_on(s)).collect();
    let requests: Vec<Batch> = (1..)
        .zip([20, 9, 31, 14, 25])
        .map(|(seed, n)| Batch::generate(&m, n, seed))
        .collect();
    let ranges: Vec<(&Batch, Range<u32>)> = requests
        .iter()
        .zip([13..20, 0..9, 0..31, 0..14, 0..3])
        .collect();
    let pieces: Vec<Batch> = ranges
        .iter()
        .map(|(b, r)| Batch {
            batch_size: r.end - r.start,
            features: b
                .features
                .iter()
                .map(|fb| fb.slice(r.start, r.end))
                .collect(),
        })
        .collect();
    let mut g = c.benchmark_group("host/chunk_slices_8x64");
    g.sample_size(20_000);
    g.bench_function("merge_project", |b| {
        b.iter(|| {
            let merged = Batch::merge(black_box(&pieces));
            (0..8)
                .map(|s| placement.project_batch(&merged, s))
                .collect::<Vec<_>>()
        })
    });
    g.bench_function("gather", |b| {
        b.iter(|| {
            features_of
                .iter()
                .map(|f| Batch::gather(black_box(&ranges), f))
                .collect::<Vec<_>>()
        })
    });
    g.finish();
}

fn bench_unique_rows(c: &mut Criterion) {
    // 256 samples × 137 lookups over a table of model A's largest size:
    // the order of one serving backend call's lookups.
    let spec = FeatureSpec {
        name: "f".into(),
        table_rows: 500_000,
        emb_dim: 16,
        pooling: PoolingDist::Fixed(137),
        coverage: 1.0,
        row_skew: 0.0,
    };
    let fb = FeatureBatch::generate(&spec, 256, 7);
    c.bench_function("host/unique_rows_35k", |b| {
        b.iter(|| black_box(black_box(&fb).unique_rows(spec.table_rows)))
    });
}

fn bench_profile_grid(c: &mut Criterion) {
    // The grid profiling `launch` does (`SimKernel::profile_grid`: sort
    // the blocks into classes of identical blocks, then profile one block
    // per class), on the calling thread and with the classes profiled on
    // a 2-worker pool, for the kernels the host benchmark's workloads
    // launch: a tuned `serve-longtail` shard (model A at 0.03 over 2
    // shards) at its chunk sizes up to the 256-sample split cap, and at
    // 384 and 512 samples to place the crossover; a tuned `serve-smallreq`
    // shard (model A at 0.05 over 8 shards) at its chunk sizes up to 64
    // samples; and `tune-kernel`'s 200-feature kernel at its batch sizes.
    // Each name gives the grid's blocks and classes: where the pool starts
    // to pay.
    let arch = GpuArch::v100();
    let cfg = TunerConfig {
        occupancy_levels: Some(vec![1, 2, 4, 8, 16]),
        tuning_batches: 3,
        pad_fill: 2.0,
    };
    let shard = |frac: f64, shards: usize| {
        let m = ModelPreset::A.scaled(frac);
        let history = Dataset::synthesize(&m, 3, 256, 1);
        let costs = recflex_core::feature_cost_estimates(&m, &history, &arch);
        Placement::balance_by_cost(shards, &costs).sub_model(&m, 0)
    };
    let kernels = [
        ("longtail", shard(0.03, 2), vec![32, 64, 128, 256, 384, 512]),
        ("smallreq", shard(0.05, 8), vec![8, 16, 32, 64]),
        ("tune", ModelPreset::A.scaled(0.2), vec![32, 64, 128, 256]),
    ];
    let pool = rayon::ThreadPool::new(2);
    let ctx = ProfileCtx::default();
    let mut g = c.benchmark_group("sim/profile_blocks");
    g.sample_size(500);
    for (name, m, sizes) in &kernels {
        let history = Dataset::synthesize(m, 3, 256, 1);
        let engine = RecFlexEngine::tune(m, &history, &arch, &cfg);
        for &samples in sizes {
            let batch = Batch::generate(m, samples, 7);
            let bound = engine.object.bind(m, &engine.tables, &batch);
            let classes = bound.block_classes().representatives().len();
            let id = format!("{name}_{}b_{classes}c", bound.grid_blocks());
            g.bench_function(&format!("{id}_inline"), |b| {
                b.iter(|| {
                    let classes = bound.block_classes();
                    let reps = classes.representatives();
                    reps.iter()
                        .map(|&i| bound.profile_block(i, &ctx))
                        .collect::<Vec<_>>()
                })
            });
            g.bench_function(&format!("{id}_pool2"), |b| {
                b.iter(|| {
                    let classes = bound.block_classes();
                    let reps = classes.representatives();
                    pool.install(|| {
                        reps.par_iter()
                            .map(|&i| bound.profile_block(i, &ctx))
                            .collect::<Vec<_>>()
                    })
                })
            });
        }
    }
    g.finish();
}

fn bench_local_stage(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.02);
    let ds = Dataset::synthesize(&m, 2, 128, 3);
    let arch = GpuArch::v100();
    let cfg = TunerConfig::fast();
    let mut g = c.benchmark_group("tuning");
    g.sample_size(10);
    g.bench_function("local_stage_20f", |b| {
        b.iter_batched(
            || TuningContext::new(&m, &ds, &arch, &cfg),
            |ctx| black_box(local::tune_local_stage(&ctx, 4, &cfg)),
            BatchSize::LargeInput,
        )
    });
    // The two-stage tuner's call: every level of the experiment harness's
    // tuner in one pass.
    g.bench_function("local_stages_20f_5levels", |b| {
        b.iter_batched(
            || TuningContext::new(&m, &ds, &arch, &cfg),
            |ctx| black_box(local::tune_local_stages(&ctx, &[1, 2, 4, 8, 16], &cfg)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_cache_plan(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let ds = Dataset::synthesize(&m, 2, 128, 3);
    let budget = recflex_embedding::CachePlan::full_model_bytes(&m) / 20;
    c.bench_function("host/cache_plan_50f", |b| {
        b.iter(|| black_box(recflex_embedding::CachePlan::plan(&m, ds.batches(), budget)))
    });
}

fn bench_batch_split(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let batch = Batch::generate(&m, 2560, 7);
    c.bench_function("host/split_2560_at_512", |b| {
        b.iter(|| black_box(batch.split(512)))
    });
}

fn bench_functional_exec(c: &mut Criterion) {
    let m = ModelPreset::A.scaled(0.05);
    let tables = TableSet::for_model(&m);
    let batch = Batch::generate(&m, 128, 9);
    c.bench_function("exec/reference_pooling_50f_128b", |b| {
        b.iter(|| {
            black_box(recflex_embedding::reference_model_output(
                &m, &tables, &batch,
            ))
        })
    });
    // The same batch pooled by the fused kernel through its task map.
    let obj = FusedKernelObject::compile(FusedSpec::new(first_candidates(&m)));
    let bound = obj.bind(&m, &tables, &batch);
    c.bench_function("exec/fused_execute_50f_128b", |b| {
        b.iter(|| black_box(bound.execute()))
    });
}

fn bench_generate(c: &mut Criterion) {
    for (frac, samples) in [(0.03, 2560), (0.05, 8), (0.05, 3)] {
        let m = ModelPreset::A.scaled(frac);
        let name = format!("data/generate_{samples}x{}f", m.features.len());
        let mut seed = 0u64;
        c.bench_function(&name, |b| {
            b.iter(|| {
                seed += 1;
                black_box(Batch::generate(&m, samples, seed))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_occupancy,
    bench_workload_analysis,
    bench_thread_map,
    bench_fused_launch,
    bench_cost_small_chunk,
    bench_shard_fanout,
    bench_chunk_slices,
    bench_unique_rows,
    bench_profile_grid,
    bench_local_stage,
    bench_cache_plan,
    bench_batch_split,
    bench_functional_exec,
    bench_generate
);
criterion_main!(benches);
