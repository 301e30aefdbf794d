//! # recflex-serve — a deterministic online-serving runtime
//!
//! The paper evaluates RecFlex inside an online-serving context
//! (Section VI-D): concurrent long-tail requests, industrial batch
//! splitting, one CUDA stream per in-flight request. This crate builds
//! that serving layer as a discrete-event simulation over any
//! [`recflex_baselines::Backend`]:
//!
//! * [`WorkloadSpec`] / [`Request`] — seeded Poisson request streams
//!   with heavy-tailed batch sizes drawn from the same
//!   [`recflex_data::PoolingDist`] family as the data layer. The tier
//!   serves [`RequestRef`] views, so a pipeline stage or fleet member
//!   lends it payloads instead of copying them,
//! * [`BatchPolicy`] — forward unsplit (DeepRecSys-style), split at a
//!   cap (industrial practice), or dynamic batching that coalesces
//!   small requests and splits oversized ones. Chunks are lists of
//!   request sample ranges; each shard copies its slice once, with
//!   [`recflex_data::Batch::gather`], when it prices the chunk,
//! * [`DeviceExecutor`] — a deterministic processor-sharing model of a
//!   multi-stream device time-sharing one GPU,
//! * [`ShardedServeRuntime`] — the one serving event loop. A
//!   [`recflex_data::Placement`] partitions the model's features over `N`
//!   per-shard lanes (each with its own queue and processor-sharing
//!   executor), and every chunk's latency appends a ring all-gather of
//!   the pooled outputs gated by the slowest shard ([`ShardedReport`]
//!   breaks latency into queue + device + gather and reports straggler
//!   gaps and per-shard lane stats). A single GPU is the 1-shard tier
//!   ([`ShardedServeRuntime::single_device`]), whose lane may borrow the
//!   engine it serves,
//! * SLO-aware admission control — requests that cannot meet the
//!   deadline are shed at arrival ([`ServeConfig::slo_deadline_us`]),
//! * [`DriftMonitor`] / [`ShardedRetunePolicy`] — distribution-drift
//!   detection on live traffic triggering a *background* retune whose
//!   engines are hot-swapped in at a later simulated timestamp,
//! * [`LifecycleMachine`] ([`LifecycleConfig`]) — the schedule-lifecycle
//!   state machine supervising that swap: seeded retune outcomes
//!   (success / compile-fail / stall / regression via [`OutcomePlan`]),
//!   optional canaried promotion with shadow execution and rollback,
//!   bounded retries with exponential backoff, a post-episode cooldown,
//!   and staged per-shard rollout — all replayable, with counters and a
//!   transition trace in the reports. The drift window, retune latency,
//!   canary window, attempt budget, backoff and rollout stagger are fixed,
//! * [`FaultPlan`] / [`FaultSpec`] — deterministic fault injection
//!   (per-shard slowdown, stall, crash; interconnect degradation). The
//!   response side is one choice, [`ShardedServeRuntime::mitigated`],
//!   derived from the SLO: hedged re-execution on a standby replica lane
//!   per shard, crash failover onto the replica, and a
//!   graceful-degradation ladder that serves partial (zero-pooled)
//!   embeddings under sustained pressure instead of shedding,
//! * [`FleetWorkload`] / [`FleetRuntime`] — the fleet tier: several
//!   model scenarios with seeded diurnal and flash-crowd traffic shaping
//!   ([`TrafficShape`]) merged into one deterministic arrival trace and
//!   served over a pool of heterogeneous device classes
//!   ([`DeviceClass`]), with per-model SLO deadlines, DeepRecSys-style
//!   batch-size-aware admission gates ([`QueryGate`]), and a fleet-wide
//!   SLO-attainment roll-up ([`FleetReport`]),
//! * [`FleetFaultPlan`] / [`FleetChaosConfig`] — fleet-scale chaos:
//!   correlated whole-class outage/brownout windows, a health-monitored
//!   drain-and-migrate elasticity controller that re-places an
//!   unhealthy member onto the best surviving class
//!   ([`ElasticityConfig`]), and a fleet brownout ladder that tightens
//!   gates and answers outage-stranded traffic with degraded edge
//!   records. Every threshold, drain and handoff time is fixed or a
//!   fraction of the observation epoch,
//! * [`PipelineRuntime`] ([`PipelineSpec`]) — deadline-budgeted
//!   multi-stage cascades (retrieval → filtering → ranking), each stage
//!   its own sharded tier with a share of the end-to-end SLO threaded
//!   through the request path as a [`DeadlineBudget`]; a [`StagePolicy`]
//!   decides deterministically whether a late/faulted stage retries
//!   under a token-bucket [`RetryBudget`] (degrading candidates along a
//!   ladder), or trips the per-stage [`CircuitBreaker`] and answers from
//!   the stage fallback, flagged in a per-stage `degraded` mask instead
//!   of shedding. The budgeted policy is fixed up to the SLO
//!   ([`BudgetedPolicy::for_slo`]). A run distills into a
//!   [`PipelineReport`] of per-stage [`StageStats`], the numbers the
//!   pipeline benches serialize.
//!
//! Serving is timing-only: every chunk, canary replay included, is priced
//! with [`recflex_baselines::Backend::cost`], never `run`, so no pooled
//! embeddings are computed for reports that would not read them.
//!
//! Simulated time is the only clock; ties resolve in a fixed priority.
//! A run is a pure function of `(config, stream, backend, fault plan)`,
//! so replaying a seed reproduces the report bit-for-bit — the property
//! every test here leans on. An empty fault plan takes the exact same
//! arithmetic path as a runtime without fault injection at all.

pub mod drift;
pub mod elastic;
pub mod executor;
pub mod faults;
pub mod fleet;
pub mod lifecycle;
pub mod pipeline;
pub mod request;
pub mod runtime;
pub mod sharded;
pub mod stats;
pub mod workload;

pub use drift::{
    expected_lookups_per_sample, expected_lookups_per_sample_per_feature, DriftMonitor,
};
pub use elastic::{
    ElasticityConfig, FleetChaosConfig, FleetChaosStats, MigrationRecord, ResidualClassStats,
};
pub use executor::{DeviceExecutor, JobId};
pub use faults::{
    ClassFaultKind, ClassFaultWindow, Fault, FaultKind, FaultPlan, FaultSpec, FleetFaultPlan,
    PipelineFaultSpec, StageFault,
};
pub use fleet::{
    DeviceClass, DeviceClassStats, FleetMember, FleetModelOutcome, FleetReport, FleetRuntime,
    QueryGate,
};
pub use lifecycle::{
    EngineTuning, FailReason, LifecycleConfig, LifecycleEvent, LifecycleMachine, LifecycleStats,
    OutcomePlan, RegressedBackend, RetuneOutcome,
};
pub use pipeline::{
    BreakerStateStat, BudgetedPolicy, CircuitBreaker, DeadlineBudget, PipelineOutcome,
    PipelineRecord, PipelineReport, PipelineRuntime, PipelineSpec, RetryBudget, StageKind,
    StagePolicy, StageSpec, StageStats,
};
pub use request::{Request, RequestRef, WorkloadSpec};
pub use runtime::{BatchPolicy, ServeConfig, ServeError, TunedCandidate};
pub use sharded::{ShardLane, ShardedRetunePolicy, ShardedServeRuntime};
pub use stats::{RequestRecord, ShardLaneStats, ShardedReport, ShardedRequestRecord, ShedReason};
pub use workload::{
    DiurnalCurve, FlashCrowd, FleetArrival, FleetWorkload, ScenarioSpec, TrafficShape,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use crate::lifecycle::{BASE_BACKOFF_US, MAX_ATTEMPTS};

    use proptest::prelude::*;
    use recflex_baselines::{Backend, BackendError, BackendRun, TorchRecBackend};
    use recflex_data::{shift_distribution, Batch, ModelConfig, ModelPreset};
    use recflex_embedding::TableSet;
    use recflex_sim::GpuArch;

    fn setup() -> (ModelConfig, GpuArch) {
        (ModelPreset::A.scaled(0.01), GpuArch::v100())
    }

    #[test]
    fn replaying_a_seed_reproduces_the_report_bit_for_bit() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 48, 42);
        let config = ServeConfig {
            streams: 4,
            policy: BatchPolicy::Dynamic {
                max_batch: 256,
                max_wait_us: 200.0,
            },
            slo_deadline_us: Some(20_000.0),
            closed_loop: false,
            hot_shard_cap: None,
        };
        let rt = ShardedServeRuntime::single_device(&m, &arch, config, &backend);
        let a = rt.serve(&reqs).unwrap();
        let b = rt.serve(&reqs).unwrap();
        assert_eq!(a, b, "same seed, same config => identical report");
        assert_eq!(a.records.len(), 48);
    }

    #[test]
    fn all_policies_complete_every_request_without_slo() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        let reqs = WorkloadSpec::long_tail(500.0).stream(&m, 24, 7);
        for policy in [
            BatchPolicy::Unsplit,
            BatchPolicy::Split { cap: 128 },
            BatchPolicy::Dynamic {
                max_batch: 256,
                max_wait_us: 150.0,
            },
        ] {
            let rt = ShardedServeRuntime::single_device(
                &m,
                &arch,
                ServeConfig {
                    streams: 2,
                    policy,
                    slo_deadline_us: None,
                    closed_loop: false,
                    hot_shard_cap: None,
                },
                &backend,
            );
            let report = rt.serve(&reqs).unwrap();
            assert_eq!(report.records.len(), 24);
            assert_eq!(report.shed_rate(), 0.0);
            assert!(report
                .records
                .iter()
                .all(|r| r.base.done_us >= r.base.arrival_us));
            assert!(report.makespan_us > 0.0);
        }
    }

    #[test]
    fn dynamic_batching_coalesces_under_load() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // A dense burst of small requests: dynamic batching should need
        // strictly fewer device launches than one-launch-per-request.
        let reqs: Vec<Request> = (0..32)
            .map(|i| Request {
                id: i,
                arrival_us: i as f64 * 5.0,
                batch: Batch::generate(&m, 16, 1000 + i),
            })
            .collect();
        let unsplit = ShardedServeRuntime::single_device(
            &m,
            &arch,
            ServeConfig {
                streams: 1,
                policy: BatchPolicy::Unsplit,
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            &backend,
        )
        .serve(&reqs)
        .unwrap();
        let dynamic = ShardedServeRuntime::single_device(
            &m,
            &arch,
            ServeConfig {
                streams: 1,
                policy: BatchPolicy::Dynamic {
                    max_batch: 128,
                    max_wait_us: 500.0,
                },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            &backend,
        )
        .serve(&reqs)
        .unwrap();
        assert!(
            dynamic.kernel_launches < unsplit.kernel_launches,
            "coalescing must reduce launches: dynamic {} vs unsplit {}",
            dynamic.kernel_launches,
            unsplit.kernel_launches
        );
        assert_eq!(dynamic.shed_rate(), 0.0);
    }

    #[test]
    fn packed_dynamic_batching_fills_batches_tighter() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // 60-sample requests against a 100-sample target: plain Dynamic
        // flushes at 60 (the next request would overflow), packed splits
        // the straddler so every coalesced batch is exactly 100 until
        // the tail — strictly fewer launches on a busy device.
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request {
                id: i,
                arrival_us: i as f64 * 5.0,
                batch: Batch::generate(&m, 60, 4000 + i),
            })
            .collect();
        let serve = |policy| {
            ShardedServeRuntime::single_device(
                &m,
                &arch,
                ServeConfig {
                    streams: 1,
                    policy,
                    slo_deadline_us: None,
                    closed_loop: false,
                    hot_shard_cap: None,
                },
                &backend,
            )
            .serve(&reqs)
            .unwrap()
        };
        let loose = serve(BatchPolicy::Dynamic {
            max_batch: 100,
            max_wait_us: 500.0,
        });
        let packed = serve(BatchPolicy::DynamicPacked {
            max_batch: 100,
            max_wait_us: 500.0,
        });
        assert!(
            packed.kernel_launches < loose.kernel_launches,
            "packing must reduce launches: packed {} vs dynamic {}",
            packed.kernel_launches,
            loose.kernel_launches
        );
        assert_eq!(packed.records.len(), 10);
        assert_eq!(packed.shed_rate(), 0.0);
        assert!(packed
            .records
            .iter()
            .all(|r| r.base.done_us >= r.base.arrival_us));
        // A request split across two coalesced batches completes only
        // when its second half does, so done_us is still monotone with
        // full batch accounting.
        let b = serve(BatchPolicy::DynamicPacked {
            max_batch: 100,
            max_wait_us: 500.0,
        });
        assert_eq!(packed, b, "packed runs replay bit-for-bit");
    }

    #[test]
    fn packed_request_straddling_two_batches_completes_once() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // Request 1 (70 samples) lands in a buffer already holding 50 of
        // request 0: its head tops batch one off at 100, its 20-sample
        // tail waits for batch two. Both requests must finish exactly
        // once, with request 1 gated on the second launch.
        let reqs = vec![
            Request {
                id: 0,
                arrival_us: 0.0,
                batch: Batch::generate(&m, 50, 11),
            },
            Request {
                id: 1,
                arrival_us: 1.0,
                batch: Batch::generate(&m, 70, 12),
            },
        ];
        // Park the device so the batcher actually buffers: a huge
        // request arriving first keeps the single stream busy.
        let mut all = vec![Request {
            id: 99,
            arrival_us: 0.0,
            batch: Batch::generate(&m, 2048, 13),
        }];
        let mut shifted: Vec<Request> = reqs
            .into_iter()
            .map(|mut r| {
                r.id += 100;
                r.arrival_us += 2.0;
                r
            })
            .collect();
        all.append(&mut shifted);
        let report = ShardedServeRuntime::single_device(
            &m,
            &arch,
            ServeConfig {
                streams: 1,
                policy: BatchPolicy::DynamicPacked {
                    max_batch: 100,
                    max_wait_us: 10_000.0,
                },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            &backend,
        )
        .serve(&all)
        .unwrap();
        assert_eq!(report.records.len(), 3);
        assert_eq!(report.shed_rate(), 0.0);
        let r0 = &report.records[1].base;
        let r1 = &report.records[2].base;
        assert_eq!(r0.batch_size, 50);
        assert_eq!(r1.batch_size, 70);
        // The straddler cannot finish before the request whose batch it
        // topped off — its tail rides the later launch.
        assert!(r1.done_us >= r0.done_us);
    }

    #[test]
    fn multi_stream_overlap_conserves_work_and_removes_queue_wait() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // Four equal requests arriving together.
        let reqs: Vec<Request> = (0..4)
            .map(|i| Request {
                id: i,
                arrival_us: 0.0,
                batch: Batch::generate(&m, 128, 2000 + i),
            })
            .collect();
        let serve = |streams: u32| {
            ShardedServeRuntime::single_device(
                &m,
                &arch,
                ServeConfig {
                    streams,
                    policy: BatchPolicy::Unsplit,
                    slo_deadline_us: None,
                    closed_loop: false,
                    hot_shard_cap: None,
                },
                &backend,
            )
            .serve(&reqs)
            .unwrap()
        };
        let serial = serve(1);
        let overlapped = serve(4);
        // Processor sharing conserves total work, so the makespan is
        // identical; what changes is where requests spend the time.
        assert!((overlapped.makespan_us - serial.makespan_us).abs() < 1e-6);
        // With one stream, later requests wait in the launch queue;
        // with four streams nothing queues — the wait converts into
        // stretched (time-shared) device service.
        assert!(serial.mean_queue_us() > 0.0);
        assert_eq!(overlapped.mean_queue_us(), 0.0);
        assert!(overlapped.mean_latency_us() <= serial.percentile_us(1.0) + 1e-6);
    }

    #[test]
    fn slo_shedding_kicks_in_under_overload_and_bounds_tail() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // Offered load far beyond capacity: everything arrives at once.
        let reqs: Vec<Request> = (0..40)
            .map(|i| Request {
                id: i,
                arrival_us: i as f64,
                batch: Batch::generate(&m, 512, 3000 + i),
            })
            .collect();
        let mk = |slo: Option<f64>| {
            ShardedServeRuntime::single_device(
                &m,
                &arch,
                ServeConfig {
                    streams: 2,
                    policy: BatchPolicy::Split { cap: 128 },
                    slo_deadline_us: slo,
                    closed_loop: false,
                    hot_shard_cap: None,
                },
                &backend,
            )
            .serve(&reqs)
            .unwrap()
        };
        let open = mk(None);
        let slo = mk(Some(2_000.0));
        assert_eq!(open.shed_rate(), 0.0);
        assert!(
            slo.shed_rate() > 0.5,
            "overload must shed: {}",
            slo.shed_rate()
        );
        assert!(
            slo.percentile_us(1.0) < open.percentile_us(1.0),
            "shedding bounds the tail"
        );
        // Shed records keep their identity for accounting.
        for r in slo.records.iter().map(|r| &r.base).filter(|r| r.is_shed()) {
            assert_eq!(r.done_us, r.arrival_us);
            assert_eq!(r.service_us, 0.0);
        }
    }

    #[test]
    fn drift_triggers_background_retune_and_hot_swap() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        // First half in-distribution, second half with far heavier
        // pooling — mean lookups-per-sample jumps past the threshold.
        let shifted_model = shift_distribution(&m, 2.5, 0.0);
        let mut reqs = WorkloadSpec::long_tail(400.0).stream(&m, 16, 5);
        let mut tail = WorkloadSpec::long_tail(400.0).stream(&shifted_model, 24, 6);
        let t0 = reqs.last().unwrap().arrival_us;
        for (k, r) in tail.iter_mut().enumerate() {
            r.arrival_us += t0;
            r.id = 16 + k as u64;
        }
        reqs.append(&mut tail);

        let retune_inputs = Cell::new(0usize);
        let mut policy = ShardedRetunePolicy {
            lifecycle: LifecycleConfig::default(),
            retuner: Box::new(|_: &ModelConfig, recent: &[Batch]| {
                retune_inputs.set(recent.len());
                TunedCandidate::from(
                    Box::new(TorchRecBackend::compile(&shifted_model)) as Box<dyn Backend>
                )
            }),
        };
        let rt = ShardedServeRuntime::single_device(
            &m,
            &arch,
            ServeConfig {
                streams: 2,
                policy: BatchPolicy::Split { cap: 256 },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            &backend,
        );
        let report = rt.serve_with_retune(&reqs, &mut policy).unwrap();
        assert!(
            report.lifecycle.retunes_promoted >= 1,
            "drift must trigger a retune"
        );
        assert!(retune_inputs.get() > 0, "retuner sees the recent window");
        assert_eq!(
            report.records.len(),
            40,
            "serving never pauses for a retune"
        );
        assert_eq!(report.shed_rate(), 0.0);
    }

    #[test]
    fn in_distribution_traffic_never_retunes() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        let reqs = WorkloadSpec::long_tail(400.0).stream(&m, 40, 9);
        let mut policy = ShardedRetunePolicy {
            lifecycle: LifecycleConfig::default(),
            retuner: Box::new(|_: &ModelConfig, _: &[Batch]| {
                panic!("retuner must not fire on in-distribution traffic")
            }),
        };
        let rt = ShardedServeRuntime::single_device(&m, &arch, ServeConfig::default(), &backend);
        let report = rt.serve_with_retune(&reqs, &mut policy).unwrap();
        assert_eq!(report.lifecycle.retunes_promoted, 0);
    }

    #[test]
    fn closed_loop_split_matches_sum_of_chunk_latencies() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        let t = TableSet::for_model(&m);
        let big = Batch::generate(&m, 512, 3);
        // Reference: run the four 128-sample chunks directly.
        let mut expect = 0.0;
        let mut expect_launches = 0u64;
        for chunk in big.split(128).unwrap() {
            let run = backend.run(&m, &t, &chunk, &arch).unwrap();
            expect += run.latency_us;
            expect_launches += u64::from(run.kernel_launches);
        }
        let reqs = vec![Request {
            id: 0,
            arrival_us: 0.0,
            batch: big,
        }];
        let rt = ShardedServeRuntime::single_device(
            &m,
            &arch,
            ServeConfig {
                streams: 1,
                policy: BatchPolicy::Split { cap: 128 },
                slo_deadline_us: None,
                closed_loop: true,
                hot_shard_cap: None,
            },
            &backend,
        );
        let report = rt.serve(&reqs).unwrap();
        assert_eq!(report.kernel_launches, expect_launches);
        let lat = report.records[0].base.latency_us();
        assert!(
            (lat - expect).abs() < 1e-6,
            "closed-loop split latency {lat} != chunk-sum {expect}"
        );
    }

    #[test]
    fn unsupported_backend_error_propagates() {
        struct Refuses;
        impl Backend for Refuses {
            fn name(&self) -> &'static str {
                "refuses"
            }
            fn run(
                &self,
                _: &ModelConfig,
                _: &TableSet,
                _: &Batch,
                _: &GpuArch,
            ) -> Result<BackendRun, BackendError> {
                Err(BackendError::Unsupported("always".into()))
            }
        }
        let (m, arch) = setup();
        let backend = Refuses;
        let rt = ShardedServeRuntime::single_device(&m, &arch, ServeConfig::default(), &backend);
        let reqs = WorkloadSpec::long_tail(100.0).stream(&m, 1, 1);
        assert!(matches!(rt.serve(&reqs), Err(ServeError::Backend(_))));
    }

    #[test]
    fn empty_stream_yields_empty_report() {
        let (m, arch) = setup();
        let backend = TorchRecBackend::compile(&m);
        let rt = ShardedServeRuntime::single_device(&m, &arch, ServeConfig::default(), &backend);
        let report = rt.serve(&[]).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.kernel_launches, 0);
        assert_eq!(report.makespan_us, 0.0);
    }

    proptest! {
        /// Hysteresis under sustained drift: a stream that keeps the
        /// drift monitor firing must never launch overlapping retunes —
        /// every attempt resolves before the next starts, failures back
        /// off, and episode ends respect the cooldown. And the whole
        /// lifecycle trace replays bit for bit.
        #[test]
        fn sustained_drift_never_overlaps_retunes_and_replays_bit_for_bit(
            seed in 0u64..50,
            cooldown_us in 1_000.0f64..6_000.0,
        ) {
            let (m, arch) = setup();
            let backend = TorchRecBackend::compile(&m);
            // Every request comes from a heavily shifted distribution,
            // so the monitor window trips on every verdict.
            let shifted = shift_distribution(&m, 2.5, 0.0);
            let spec = WorkloadSpec { size_unit: 8, ..WorkloadSpec::long_tail(300.0) };
            let reqs = spec.stream(&shifted, 24, seed);
            let lifecycle = LifecycleConfig {
                // Every attempt fails to compile: the machine must walk
                // backoff → retry → give-up → cooldown forever.
                outcomes: OutcomePlan::scripted(vec![RetuneOutcome::CompileFail; 64]),
                cooldown_us,
                ..LifecycleConfig::default()
            };
            let mk_policy = || ShardedRetunePolicy {
                lifecycle: lifecycle.clone(),
                retuner: Box::new(|_: &ModelConfig, _: &[Batch]| {
                    unreachable!("a compile-fail attempt never reaches the retuner")
                }),
            };
            let config = ServeConfig {
                streams: 2,
                policy: BatchPolicy::Split { cap: 256 },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            };
            let rt = ShardedServeRuntime::single_device(&m, &arch, config, &backend);
            let a = rt.serve_with_retune(&reqs, &mut mk_policy()).unwrap();
            let b = rt.serve_with_retune(&reqs, &mut mk_policy()).unwrap();

            prop_assert!(a.lifecycle.retunes_attempted >= 1, "the stream must drift");
            prop_assert_eq!(a.lifecycle.retunes_promoted, 0);
            prop_assert_eq!(a.lifecycle.retunes_failed, a.lifecycle.retunes_attempted);

            // No overlap: each RetuneStarted resolves (fails) before the
            // next; failed attempts respect exponential backoff and an
            // exhausted episode respects the cooldown.
            let mut open: Option<f64> = None;
            let mut last_fail: Option<(f64, u32)> = None;
            let mut episode_end: Option<f64> = None;
            let mut episode_len = 0u32;
            for ev in &a.lifecycle_trace {
                match *ev {
                    LifecycleEvent::RetuneStarted { t_us, .. } => {
                        prop_assert!(open.is_none(), "overlapping retune at {t_us}");
                        if let Some((t_fail, k)) = last_fail {
                            let backoff = BASE_BACKOFF_US * 2.0f64.powi(k as i32 - 1);
                            prop_assert!(
                                t_us - t_fail >= backoff - 1e-9,
                                "retry at {t_us} ignored a {backoff} µs backoff from {t_fail}"
                            );
                        }
                        if let Some(t_end) = episode_end {
                            prop_assert!(
                                t_us - t_end >= cooldown_us - 1e-9,
                                "episode at {t_us} ignored the {cooldown_us} µs cooldown"
                            );
                        }
                        open = Some(t_us);
                        episode_len += 1;
                        last_fail = None;
                    }
                    LifecycleEvent::RetuneFailed { t_us, .. } => {
                        prop_assert!(open.is_some(), "failure without an attempt");
                        open = None;
                        last_fail = Some((t_us, episode_len));
                    }
                    LifecycleEvent::GaveUp { t_us, attempts } => {
                        prop_assert_eq!(attempts, MAX_ATTEMPTS);
                        episode_end = Some(t_us);
                        episode_len = 0;
                        last_fail = None;
                    }
                    _ => prop_assert!(false, "unexpected event {ev:?}"),
                }
            }

            // Same seed, same policy ⇒ the same lifecycle trace and the
            // same report, bit for bit.
            prop_assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap()
            );
            prop_assert_eq!(a, b);
        }
    }
}
