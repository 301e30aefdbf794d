//! The four workloads and one measured pass of each.
//!
//! A pass is set-up (model, history, lane tuning, tier build, stream
//! generation) followed by the main phase (one `serve`, or one cold tune
//! plus the evaluation kernels). Inputs derive from the run's seed and
//! fixed constants only, so every pass of a run produces the same
//! simulated outcome and the same report digest; host times are the only
//! thing that differs.

use std::cell::Cell;

use recflex_baselines::Backend;
use recflex_core::{feature_cost_estimates, RecFlexEngine};
use recflex_data::{Batch, Dataset, ModelConfig, ModelPreset, Placement};
use recflex_embedding::{reference_model_output, FusedOutput, TableSet};
use recflex_serve::{
    BatchPolicy, BudgetedPolicy, Fault, FaultKind, PipelineFaultSpec, PipelineRuntime,
    PipelineSpec, Request, ServeConfig, ShardedReport, ShardedServeRuntime, StageFault,
    StagePolicy, StageSpec, WorkloadSpec,
};
use recflex_sim::{GpuArch, Interconnect};
use recflex_tuner::{global, local, TunerConfig, TuningContext};

use crate::stats::{fnv1a64, median_and_tail, Fnv};
use crate::trace::{replay, Call, Mark, Recorder, Replay};

/// The benchmark's workloads. Names are stable: result sets and the
/// benchmark definition refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeLongtail,
    ServeSmallreq,
    PipelineStall,
    TuneKernel,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeLongtail,
        Workload::ServeSmallreq,
        Workload::PipelineStall,
        Workload::TuneKernel,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLongtail => "serve-longtail",
            Workload::ServeSmallreq => "serve-smallreq",
            Workload::PipelineStall => "pipeline-stall",
            Workload::TuneKernel => "tune-kernel",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations one pass attempts: requests offered, or kernel batches.
    pub fn ops(self) -> u64 {
        match self {
            Workload::ServeLongtail | Workload::ServeSmallreq => tier_params(self).requests as u64,
            Workload::PipelineStall => PIPELINE_REQUESTS as u64,
            Workload::TuneKernel => EVAL_BATCHES as u64,
        }
    }
}

/// Histories are drawn at the experiment harness's default batch size.
const HISTORY_BATCH: u32 = 256;
/// Tail percentile reported for simulated latency.
pub const TAIL_Q: f64 = 0.95;

/// The experiment harness's tuner: occupancy levels {1, 2, 4, 8, 16},
/// three tuning batches.
fn tuner_config() -> TunerConfig {
    TunerConfig {
        occupancy_levels: Some(vec![1, 2, 4, 8, 16]),
        tuning_batches: 3,
        pad_fill: 2.0,
    }
}

/// Seed of what a workload keeps fixed from run to run: its trace
/// (arrival times and request sizes) and its tuning histories. The run
/// seed draws the embedding lookups served. Tuned on seeded histories, a
/// schedule choice flipped by the seed moved the busiest shard's
/// simulated utilization from 0.62 to 0.71; see [`stream`] for the trace.
const SHAPE_SEED: u64 = 0x7ACE;

/// Independent streams of randomness from one seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    (seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .rotate_left(29)
}

/// Simulated outcome of a pass: a pure function of the seed. Latencies
/// are per completed request, or per kernel batch for `tune-kernel`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    pub p50_us: f64,
    pub p95_us: f64,
    pub mean_us: f64,
    /// Completed requests, or kernel batches.
    pub samples: usize,
    pub slo_attainment: f64,
    pub availability: f64,
    pub shed_rate: f64,
    /// Tier breakdown; the pipeline's reports do not carry it.
    pub tier: Option<TierSim>,
    pub pipeline: Option<PipelineCounters>,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct TierSim {
    pub queue_us_mean: f64,
    pub device_us_p50: f64,
    pub gather_us_mean: f64,
    /// Largest shard's device time over the makespan.
    pub utilization: f64,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineCounters {
    pub amplification: f64,
    /// Stage executions that finished in budget over all executions.
    pub useful_frac: f64,
    pub retries: u64,
    pub retries_denied: u64,
    pub fallbacks: u64,
    pub breaker_trips: u64,
}

/// What the traced pass adds.
pub struct Traced {
    pub calls: Vec<Call>,
    pub replay: Replay,
    /// Every span of the pass, as Chrome trace events.
    pub events: Vec<serde_json::Value>,
}

/// One measured pass.
pub struct Pass {
    /// Wall-clock seconds of set-up.
    pub setup_s: f64,
    /// Wall-clock seconds of the main phase: the `serve` call, or the cold
    /// tune plus the evaluation kernels of `tune-kernel`.
    pub main_s: f64,
    /// Host CPU seconds of the main phase, all threads together.
    pub main_cpu_s: f64,
    /// Operations in the main phase: requests offered, or kernel batches.
    pub ops: u64,
    pub sim: Sim,
    /// FNV-1a-64 over the serialized report records (the simulated kernel
    /// latencies on `tune-kernel`).
    pub digest: u64,
    pub totals: crate::trace::Totals,
    /// Checks this pass failed, as messages.
    pub failures: Vec<String>,
    pub traced: Option<Traced>,
}

/// Run one pass of `workload`. `Err` means an operation returned an
/// error; its message says which.
pub fn run_pass(workload: Workload, seed: u64, rec: &Recorder) -> Result<Pass, String> {
    let mut pass = match workload {
        Workload::ServeLongtail | Workload::ServeSmallreq => serve_tier(workload, seed, rec)?,
        Workload::PipelineStall => pipeline_stall(seed, rec)?,
        Workload::TuneKernel => tune_kernel(seed, rec)?,
    };
    pass.totals = rec.totals.borrow().clone();
    if rec.traced {
        let calls = rec.take_calls();
        let start = Mark::now();
        let replay = replay(&calls, rec.offset_us(start));
        rec.phase("replay", "trace", start);
        if replay.mismatches > 0 {
            pass.failures.push(format!(
                "{} replayed calls disagree with the served simulated latency",
                replay.mismatches
            ));
        }
        let events = rec.chrome_events(workload.name(), &calls, &replay.spans);
        pass.traced = Some(Traced {
            calls,
            replay,
            events,
        });
    }
    Ok(pass)
}

/// Tune one engine on `history`: the public one-call tuner, or — traced —
/// the same two stages called one by one so each can be timed.
fn tune_engine(
    model: &ModelConfig,
    history: &Dataset,
    arch: &GpuArch,
    rec: &Recorder,
) -> RecFlexEngine {
    let cfg = tuner_config();
    let start = Mark::now();
    let engine = if rec.traced {
        let t = Mark::now();
        let ctx = TuningContext::new(model, history, arch, &cfg);
        let context_s = rec.phase("tuner.context", "tuner", t);
        let levels = cfg.occupancy_levels.clone().unwrap_or_default();
        let mut local_s = 0.0;
        let winners: Vec<Vec<usize>> = levels
            .iter()
            .map(|&k| {
                let t = Mark::now();
                let w = local::tune_local_stage(&ctx, k, &cfg);
                local_s += rec.phase(&format!("tuner.local O={k}"), "tuner", t);
                w
            })
            .collect();
        let local_evaluations = levels.len() * ctx.candidates.len() * ctx.history.len();
        let t = Mark::now();
        let result = global::tune_global_stage(&ctx, &levels, winners, local_evaluations);
        let global_s = rec.phase("tuner.global", "tuner", t);
        let mut totals = rec.totals.borrow_mut();
        totals.tuner_context_s += context_s;
        totals.tuner_local_s += local_s;
        totals.tuner_global_s += global_s;
        drop(totals);
        RecFlexEngine::from_tune_result(model, arch, result)
    } else {
        RecFlexEngine::tune(model, history, arch, &cfg)
    };
    let tune_s = rec.phase("tune", "tuner", start);
    let mut totals = rec.totals.borrow_mut();
    totals.tune_s += tune_s;
    let r = &engine.tune_result;
    totals.tuner_evaluations += r.evaluations as u64;
    for &c in &r.choices {
        totals.tune_digest.update(&(c as u64).to_le_bytes());
    }
    totals
        .tune_digest
        .update(&r.occupancy.unwrap_or(u32::MAX).to_le_bytes());
    totals
        .tune_digest
        .update(&(r.evaluations as u64).to_le_bytes());
    engine
}

/// Tunes the lanes `ShardedServeRuntime::build` asks for, in device order.
struct Lanes<'a> {
    rec: &'a Recorder,
    arch: &'a GpuArch,
    stage: usize,
    built: Cell<usize>,
    /// CPU seconds spent inside [`Lanes::backend`].
    secs: Cell<f64>,
}

impl<'a> Lanes<'a> {
    fn new(rec: &'a Recorder, arch: &'a GpuArch, stage: usize) -> Self {
        Lanes {
            rec,
            arch,
            stage,
            built: Cell::new(0),
            secs: Cell::new(0.0),
        }
    }

    fn backend(&self, sub: &ModelConfig) -> Box<dyn Backend> {
        let start = Mark::now();
        let history = Dataset::synthesize(sub, 3, HISTORY_BATCH, sub_seed(SHAPE_SEED, 2));
        let engine = tune_engine(sub, &history, self.arch, self.rec);
        let shard = self.built.replace(self.built.get() + 1);
        let backend = self.rec.lane_backend(engine, self.stage, shard);
        self.secs.set(self.secs.get() + start.cpu_elapsed());
        backend
    }

    /// Build a tier of tuned lanes, charging the build's own work (sub
    /// models and tables) to `tables_s`.
    fn tier<'m>(
        &self,
        model: &'m ModelConfig,
        arch: &'m GpuArch,
        placement: Placement,
        config: ServeConfig,
    ) -> ShardedServeRuntime<'m> {
        let before = self.secs.get();
        let start = Mark::now();
        let tier = ShardedServeRuntime::build(
            model,
            arch,
            placement,
            config,
            Interconnect::nvlink(),
            |sub| self.backend(sub),
        );
        let build_s = self
            .rec
            .phase(&format!("tier.build stage={}", self.stage), "serve", start);
        self.rec.totals.borrow_mut().tables_s += build_s - (self.secs.get() - before);
        tier
    }
}

/// Generate the request stream, charging it to `stream_gen_s`.
///
/// The trace — arrival times and request sizes — is
/// `WorkloadSpec::stream` at the fixed [`SHAPE_SEED`]; the run seed draws
/// every request's embedding lookups. Varying the heavy-tailed sizes with
/// the seed would swing a 200-request run's simulated tail latency and
/// host work by tens of percent between seeds, which no regression bound
/// could absorb. The trace is drawn on a one-feature copy of the model:
/// the stream's arrival and size draws do not depend on the model, so
/// this yields the same trace without generating batches nobody reads.
fn stream(
    spec: &WorkloadSpec,
    model: &ModelConfig,
    n: usize,
    seed: u64,
    rec: &Recorder,
) -> Vec<Request> {
    let start = Mark::now();
    let mut one_feature = model.clone();
    one_feature.features.truncate(1);
    let requests = spec
        .stream(&one_feature, n, SHAPE_SEED)
        .into_iter()
        .map(|r| Request {
            batch: Batch::generate(model, r.batch.batch_size, sub_seed(seed, 0x1000 + r.id)),
            ..r
        })
        .collect();
    rec.totals.borrow_mut().stream_gen_s += rec.phase("data.stream", "data", start);
    requests
}

/// Every offered request must come back as exactly one record, in order.
fn check_records(ids: impl Iterator<Item = u64>, offered: &[Request], failures: &mut Vec<String>) {
    let got: Vec<u64> = ids.collect();
    if got.len() != offered.len() || got.iter().zip(offered).any(|(&g, r)| g != r.id) {
        failures.push(format!(
            "{} records for {} offered requests, or out of order",
            got.len(),
            offered.len()
        ));
    }
}

/// Latency percentiles, mean and sample count.
fn latency_sim(latencies: Vec<f64>) -> Sim {
    let samples = latencies.len();
    let mean_us = latencies.iter().sum::<f64>() / samples.max(1) as f64;
    let (p50_us, p95_us) = median_and_tail(latencies, TAIL_Q);
    Sim {
        p50_us,
        p95_us,
        mean_us,
        samples,
        ..Sim::default()
    }
}

/// Simulated serving outcome of one sharded report.
fn tier_sim(report: &ShardedReport, offered: usize, slo_us: f64) -> Sim {
    let latencies: Vec<f64> = report.completed().map(|r| r.base.latency_us()).collect();
    let in_slo = latencies.iter().filter(|&&l| l <= slo_us + 1e-9).count();
    Sim {
        slo_attainment: in_slo as f64 / offered.max(1) as f64,
        availability: report.availability(),
        shed_rate: report.shed_rate(),
        tier: Some(TierSim {
            queue_us_mean: report.mean_queue_us(),
            device_us_p50: report.percentile_device_us(0.5),
            gather_us_mean: report.mean_gather_us(),
            utilization: utilization(report),
        }),
        ..latency_sim(latencies)
    }
}

fn utilization(report: &ShardedReport) -> f64 {
    let busiest = report
        .per_shard
        .iter()
        .map(|s| s.device_us)
        .fold(0.0, f64::max);
    if report.makespan_us > 0.0 {
        busiest / report.makespan_us
    } else {
        0.0
    }
}

/// Settings of the two single-tier serving workloads.
struct TierParams {
    model_frac: f64,
    shards: usize,
    policy: BatchPolicy,
    requests: usize,
    spec: WorkloadSpec,
    slo_us: f64,
}

/// Mean inter-arrival gap of `serve-longtail`, µs: the first rung of the
/// ladder 200, 175, 150, 125, 100 µs that loads the busiest shard to
/// 60–80 % simulated utilization (README.md records the calibration).
const LONGTAIL_GAP_US: f64 = 150.0;
/// Mean inter-arrival gap of `serve-smallreq`, µs (see README.md).
const SMALLREQ_GAP_US: f64 = 30.0;

fn tier_params(workload: Workload) -> TierParams {
    match workload {
        Workload::ServeLongtail => TierParams {
            model_frac: 0.03,
            shards: 2,
            policy: BatchPolicy::Split { cap: 256 },
            requests: 200,
            spec: WorkloadSpec::long_tail(LONGTAIL_GAP_US),
            slo_us: 10_000.0,
        },
        _ => TierParams {
            model_frac: 0.05,
            shards: 8,
            policy: BatchPolicy::DynamicPacked {
                max_batch: 64,
                max_wait_us: 100.0,
            },
            requests: 3_000,
            spec: WorkloadSpec {
                size_unit: 1,
                ..WorkloadSpec::long_tail(SMALLREQ_GAP_US)
            },
            slo_us: 1_000.0,
        },
    }
}

fn serve_tier(workload: Workload, seed: u64, rec: &Recorder) -> Result<Pass, String> {
    let p = tier_params(workload);
    let setup = Mark::now();
    let arch = GpuArch::v100();
    let model = ModelPreset::A.scaled(p.model_frac);
    let history = Dataset::synthesize(&model, 3, HISTORY_BATCH, sub_seed(SHAPE_SEED, 1));
    let costs = feature_cost_estimates(&model, &history, &arch);
    let config = ServeConfig {
        streams: 4,
        policy: p.policy,
        slo_deadline_us: Some(p.slo_us),
        closed_loop: false,
        hot_shard_cap: None,
    };
    let lanes = Lanes::new(rec, &arch, 0);
    let tier = lanes.tier(
        &model,
        &arch,
        Placement::balance_by_cost(p.shards, &costs),
        config,
    );
    let requests = stream(&p.spec, &model, p.requests, seed, rec);
    let setup_s = setup.wall_elapsed();
    rec.phase("setup", "pass", setup);

    let start = Mark::now();
    let served = tier.serve(&requests);
    let main_s = start.wall_elapsed();
    let main_cpu_s = rec.phase("serve", "serve", start);
    let report = served.map_err(|e| format!("serve: {e}"))?;

    let mut failures = Vec::new();
    check_records(
        report.records.iter().map(|r| r.base.id),
        &requests,
        &mut failures,
    );
    let records = serde_json::to_string(&report.records).map_err(|e| e.to_string())?;
    Ok(Pass {
        setup_s,
        main_s,
        main_cpu_s,
        ops: requests.len() as u64,
        sim: tier_sim(&report, requests.len(), p.slo_us),
        digest: fnv1a64(records.as_bytes()),
        totals: Default::default(),
        failures,
        traced: None,
    })
}

/// `pipeline-stall` settings.
const PIPELINE_FRAC: f64 = 0.03;
const PIPELINE_SHARDS: usize = 2;
const PIPELINE_REQUESTS: usize = 200;
const PIPELINE_GAP_US: f64 = 200.0;
const PIPELINE_SLO_US: f64 = 8_000.0;

fn pipeline_stall(seed: u64, rec: &Recorder) -> Result<Pass, String> {
    let setup = Mark::now();
    let arch = GpuArch::v100();
    let model = ModelPreset::A.scaled(PIPELINE_FRAC);
    let history = Dataset::synthesize(&model, 3, HISTORY_BATCH, sub_seed(SHAPE_SEED, 1));
    let costs = feature_cost_estimates(&model, &history, &arch);
    // Stages admit on the pipeline's per-attempt deadline shares.
    let config = ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let tiers = (0..2)
        .map(|stage| {
            Lanes::new(rec, &arch, stage).tier(
                &model,
                &arch,
                Placement::balance_by_cost(PIPELINE_SHARDS, &costs),
                config,
            )
        })
        .collect();
    let mut pipeline = PipelineRuntime::new(
        PipelineSpec {
            slo_us: PIPELINE_SLO_US,
            stages: vec![
                StageSpec::retrieval(64, 0.4),
                StageSpec::ranking(32, 0.6).with_ladder(vec![16]),
            ],
            policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(PIPELINE_SLO_US)),
            seed: sub_seed(seed, 3),
        },
        tiers,
    )
    .map_err(|e| format!("pipeline: {e}"))?;
    let requests = stream(
        &WorkloadSpec::long_tail(PIPELINE_GAP_US),
        &model,
        PIPELINE_REQUESTS,
        seed,
        rec,
    );
    // Ranking shard 0 stalls over 20–90 % of the arrival span; retries
    // re-enter past the stream tail, so the plans cover the drain too.
    let span = requests.last().map_or(0.0, |r| r.arrival_us);
    let stall = PipelineFaultSpec::scripted(vec![StageFault {
        stage: 1,
        fault: Fault {
            start_us: 0.2 * span,
            end_us: 0.9 * span,
            kind: FaultKind::Stall { shard: 0 },
        },
    }]);
    let plans = stall.plans(
        &[PIPELINE_SHARDS, PIPELINE_SHARDS],
        span + 4.0 * PIPELINE_SLO_US,
        SHAPE_SEED,
    );
    for (stage, plan) in plans.into_iter().enumerate() {
        pipeline.set_stage_plan(stage, plan);
    }
    let setup_s = setup.wall_elapsed();
    rec.phase("setup", "pass", setup);

    let start = Mark::now();
    let served = pipeline.serve(&requests);
    let main_s = start.wall_elapsed();
    let main_cpu_s = rec.phase("serve", "serve", start);
    let outcome = served.map_err(|e| format!("pipeline serve: {e}"))?;

    let mut failures = Vec::new();
    check_records(
        outcome.records.iter().map(|r| r.id),
        &requests,
        &mut failures,
    );
    let report = outcome.report();
    let latencies: Vec<f64> = outcome
        .records
        .iter()
        .filter(|r| !r.shed)
        .map(|r| r.latency_us())
        .collect();
    let executions: u64 = report.stages.iter().map(|s| s.executions).sum();
    let wasted: u64 = report.stages.iter().map(|s| s.late + s.faulted).sum();
    let n = requests.len().max(1) as f64;
    let sim = Sim {
        slo_attainment: report.answered_in_slo as f64 / n,
        availability: report.availability,
        shed_rate: 1.0 - report.answered as f64 / n,
        pipeline: Some(PipelineCounters {
            amplification: report.amplification,
            useful_frac: executions.saturating_sub(wasted) as f64 / executions.max(1) as f64,
            retries: report.stages.iter().map(|s| s.retries).sum(),
            retries_denied: report.stages.iter().map(|s| s.retries_denied).sum(),
            fallbacks: report.stages.iter().map(|s| s.fallbacks).sum(),
            breaker_trips: report.stages.iter().map(|s| s.breaker_trips).sum(),
        }),
        ..latency_sim(latencies)
    };
    let mut digest = Fnv::default();
    digest.update(
        serde_json::to_string(&report)
            .map_err(|e| e.to_string())?
            .as_bytes(),
    );
    digest.update(format!("{:?}", outcome.records).as_bytes());
    Ok(Pass {
        setup_s,
        main_s,
        main_cpu_s,
        ops: requests.len() as u64,
        sim,
        digest: digest.finish(),
        totals: Default::default(),
        failures,
        traced: None,
    })
}

/// `tune-kernel` settings: a 200-feature model, and evaluation batches
/// cycling through the experiment harness's request sizes. The cycle
/// starts at 64 so that sixteen batches hold three of size 128 and the
/// median falls on the middle one; started at 256, the median was the
/// largest 128-sample batch, next to the 192-sample ones, and moved 10 %
/// between seeds.
const KERNEL_FRAC: f64 = 0.2;
const EVAL_SIZES: [u32; 6] = [64, 128, 256, 32, 192, 256];
const EVAL_BATCHES: usize = 16;

fn tune_kernel(seed: u64, rec: &Recorder) -> Result<Pass, String> {
    let setup = Mark::now();
    let arch = GpuArch::v100();
    let model = ModelPreset::A.scaled(KERNEL_FRAC);
    let t = Mark::now();
    let tables = TableSet::for_model(&model);
    rec.totals.borrow_mut().tables_s += rec.phase("tables", "embedding", t);
    let history = Dataset::synthesize_varied(&model, &[256, 128, 192], sub_seed(SHAPE_SEED, 1));
    let t = Mark::now();
    let sizes: Vec<u32> = EVAL_SIZES
        .iter()
        .copied()
        .cycle()
        .take(EVAL_BATCHES)
        .collect();
    let eval = Dataset::synthesize_varied(&model, &sizes, sub_seed(seed, 5));
    rec.totals.borrow_mut().stream_gen_s += rec.phase("data.eval", "data", t);
    let setup_s = setup.wall_elapsed();
    rec.phase("setup", "pass", setup);

    let start = Mark::now();
    let engine = tune_engine(&model, &history, &arch, rec);
    let backend = rec.lane_backend(engine, 0, 0);
    let kernels = Mark::now();
    let runs: Result<Vec<_>, _> = eval
        .batches()
        .iter()
        .map(|b| backend.run(&model, &tables, b, &arch))
        .collect();
    rec.phase("kernels", "core", kernels);
    let main_s = start.wall_elapsed();
    let main_cpu_s = rec.phase("main", "pass", start);
    let runs = runs.map_err(|e| format!("kernel run: {e}"))?;

    // Bit-exact against the scalar reference, untimed. Outputs equal to
    // the reference are equal across passes, so the digest need only
    // cover the simulated latencies.
    let mut failures = Vec::new();
    let mut digest = Fnv::default();
    for (i, (b, run)) in eval.batches().iter().zip(&runs).enumerate() {
        let golden = reference_model_output(&model, &tables, b);
        if !bits_equal(&run.output, &golden) {
            failures.push(format!("eval batch {i}: output differs from the reference"));
        }
        digest.update(&run.latency_us.to_bits().to_le_bytes());
    }
    Ok(Pass {
        setup_s,
        main_s,
        main_cpu_s,
        ops: runs.len() as u64,
        sim: latency_sim(runs.iter().map(|r| r.latency_us).collect()),
        digest: digest.finish(),
        totals: Default::default(),
        failures,
        traced: None,
    })
}

fn bits_equal(a: &FusedOutput, b: &FusedOutput) -> bool {
    a.num_features() == b.num_features()
        && a.batch_size() == b.batch_size()
        && (0..a.num_features()).all(|f| {
            let (x, y) = (a.feature(f), b.feature(f));
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_lanes_serve_byte_identical_reports() {
        let model = ModelPreset::A.scaled(0.01);
        let arch = GpuArch::v100();
        let config = ServeConfig {
            streams: 4,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: Some(10_000.0),
            closed_loop: false,
            hot_shard_cap: None,
        };
        let serve = |traced: bool| {
            let rec = Recorder::new(traced);
            let tier = Lanes::new(&rec, &arch, 0).tier(
                &model,
                &arch,
                Placement::round_robin(&model, 2),
                config,
            );
            let requests = stream(&WorkloadSpec::long_tail(300.0), &model, 24, 7, &rec);
            let report = tier.serve(&requests).expect("a valid tier serves");
            let json = serde_json::to_string(&report).expect("reports serialize");
            (json, rec.take_calls().len())
        };
        let (plain, untraced_calls) = serve(false);
        let (timed, traced_calls) = serve(true);
        assert_eq!(
            plain, timed,
            "timing decorator and staged tuner are transparent"
        );
        assert_eq!(untraced_calls, 0);
        assert!(traced_calls > 0);
    }

    #[test]
    fn the_seed_draws_the_lookups_of_a_fixed_trace() {
        let model = ModelPreset::A.scaled(0.01);
        let rec = Recorder::new(false);
        let spec = WorkloadSpec::long_tail(LONGTAIL_GAP_US);
        let a = stream(&spec, &model, 32, 1, &rec);
        assert_eq!(
            a,
            stream(&spec, &model, 32, 1, &rec),
            "same seed, same stream"
        );
        let b = stream(&spec, &model, 32, 2, &rec);
        assert_ne!(a, b, "different seed, different stream");
        let trace = spec.stream(&model, 32, SHAPE_SEED);
        for ((x, y), t) in a.iter().zip(&b).zip(&trace) {
            assert_eq!(
                (x.id, x.arrival_us, x.batch.batch_size),
                (t.id, t.arrival_us, t.batch.batch_size)
            );
            assert_eq!(
                (y.arrival_us, y.batch.batch_size),
                (t.arrival_us, t.batch.batch_size)
            );
        }
    }
}
