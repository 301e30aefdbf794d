//! Fleet tier: several models, several device classes, one report.
//!
//! A production recommendation fleet does not serve one model on one
//! device type. It serves a portfolio — a handful of models with wildly
//! different feature mixes — over a pool of heterogeneous accelerators,
//! and the placement of models onto device classes decides fleet-wide
//! SLO attainment (Hercules makes this point for training clusters;
//! DeepRecSys for per-query scheduling). The fleet tier composes:
//!
//! - a [`FleetWorkload`](crate::workload::FleetWorkload) — the merged,
//!   deterministic multi-scenario arrival trace,
//! - one [`ShardedServeRuntime`] per model, pinned to a device class,
//! - an optional per-model [`QueryGate`] — the DeepRecSys-style
//!   batch-size-aware accept/queue decision applied *before* a request
//!   enters the model's runtime,
//! - per-model SLO deadlines and a fleet-wide attainment roll-up.
//!
//! Determinism: [`FleetRuntime::serve`] demuxes the merged trace and
//! runs each member runtime on its slice, in member order, through the
//! member pass every chaos run also uses (`crate::elastic`). Every member
//! run is itself a pure function of its inputs, so the fleet report is
//! bit-reproducible and a degenerate one-model fleet (no gate, no
//! deadline) serializes byte-identically to the underlying
//! [`ShardedServeRuntime`] report — both invariants are gated by tests
//! and by the `serving_fleet` experiment in CI.

use serde::Serialize;

use crate::elastic::{FleetChaosConfig, FleetChaosStats};
use crate::lifecycle::EngineTuning;
use crate::sharded::ShardedServeRuntime;
use crate::stats::{RequestRecord, ShardedReport, ShardedRequestRecord, ShedReason};
use crate::workload::FleetArrival;
use crate::RequestRef;
use crate::ServeError;
use recflex_sim::GpuArch;

/// Synthesize the record of a request resolved *at the fleet edge*,
/// before it could enter any member runtime: an admission/brownout shed
/// (`shed != None`) or a degraded zero-pooled edge answer (`degraded`)
/// — zero queue, zero service, done at arrival. Keeps edge decisions
/// visible in the same record stream the runtimes produce, so
/// availability and shed-reason accounting see every offered request.
pub(crate) fn edge_record(
    req: &RequestRef<'_>,
    shed: ShedReason,
    degraded: bool,
) -> ShardedRequestRecord {
    ShardedRequestRecord {
        base: RequestRecord {
            id: req.id,
            batch_size: req.batch.batch_size,
            arrival_us: req.arrival_us,
            queue_us: 0.0,
            service_us: 0.0,
            done_us: req.arrival_us,
            shed,
        },
        device_us: 0.0,
        gather_us: 0.0,
        straggler_us: 0.0,
        degraded,
    }
}

/// Splice edge-synthesized records into a member report and restore one
/// arrival order over the combined stream.
pub(crate) fn splice_edge_records(report: &mut ShardedReport, edge: Vec<ShardedRequestRecord>) {
    if edge.is_empty() {
        return;
    }
    report.records.extend(edge);
    report.records.sort_by(|a, b| {
        a.base
            .arrival_us
            .total_cmp(&b.base.arrival_us)
            .then(a.base.id.cmp(&b.base.id))
    });
}

/// A pool of identical simulated devices — one heterogeneity bucket.
pub struct DeviceClass<'a> {
    /// Class name, for reports (e.g. `"V100"`).
    pub name: String,
    /// The simulated device architecture every pool member shares.
    pub arch: &'a GpuArch,
    /// How many devices the class contributes to the fleet budget.
    pub devices: usize,
}

/// A per-query admission gate: the DeepRecSys-style accept/queue
/// decision. A request whose batch would blow the model's latency budget
/// on its assigned class is shed *at the fleet edge* instead of
/// poisoning the lane's queue for everyone behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct QueryGate {
    /// Measured per-sample device cost on the member's class, µs.
    pub cost_per_sample_us: f64,
    /// Largest acceptable predicted device time for one query, µs.
    pub deadline_us: f64,
}

impl QueryGate {
    /// Accept a query of `batch_size` pooled samples?
    pub fn admits(&self, batch_size: u32) -> bool {
        batch_size as f64 * self.cost_per_sample_us <= self.deadline_us
    }
}

/// One model in the fleet: its serving runtime, the device class it is
/// placed on, and its SLO policy.
pub struct FleetMember<'a> {
    /// Model/scenario name, for reports.
    pub name: String,
    /// Index into the fleet's device classes.
    pub class: usize,
    /// The model's own sharded serving tier, built against the class
    /// arch.
    pub runtime: ShardedServeRuntime<'a>,
    /// End-to-end latency SLO for this model class, µs. `None` means
    /// every completed request attains.
    pub slo_deadline_us: Option<f64>,
    /// Per-query admission gate. `None` admits everything.
    pub gate: Option<QueryGate>,
    /// How this member's engines were tuned, when the builder went
    /// through the shared profile vault (replicas of one model reuse one
    /// sidecar). `None` for plainly tuned members.
    pub tuning: Option<EngineTuning>,
}

/// The fleet runtime: a pool of device classes and the members placed on
/// them.
pub struct FleetRuntime<'a> {
    /// The heterogeneity buckets.
    pub classes: Vec<DeviceClass<'a>>,
    /// The models, in scenario order — member `i` serves scenario `i` of
    /// the fleet workload.
    pub members: Vec<FleetMember<'a>>,
}

/// Per-model outcome in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetModelOutcome {
    /// Model name.
    pub name: String,
    /// Name of the device class the model was placed on.
    pub class: String,
    /// Devices (shards) the model's runtime spans.
    pub shards: usize,
    /// The model's SLO deadline, if any.
    pub slo_deadline_us: Option<f64>,
    /// Requests offered to this model, including gate-shed ones.
    pub requests_offered: u64,
    /// Requests shed by the admission gate before entering the runtime.
    pub gate_shed: u64,
    /// Fraction of offered requests that completed within the SLO.
    pub slo_attainment: f64,
    /// Median end-to-end latency over completed requests, µs.
    pub p50_us: f64,
    /// Tail end-to-end latency over completed requests, µs.
    pub p99_us: f64,
    /// Vault tuning accounting carried over from the member, if any.
    pub tuning: Option<EngineTuning>,
    /// The member runtime's full report.
    pub report: ShardedReport,
}

/// Per-device-class utilization in the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DeviceClassStats {
    /// Class name.
    pub name: String,
    /// Devices in the class.
    pub devices: usize,
    /// Total device-busy time accumulated by members on this class, µs.
    pub busy_us: f64,
    /// `busy_us / (devices × fleet makespan)`.
    pub utilization: f64,
}

/// The fleet-wide report: per-model outcomes, per-class utilization, and
/// the headline SLO attainment number placement strategies compete on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Per-model outcomes, in member order.
    pub models: Vec<FleetModelOutcome>,
    /// Per-class utilization, in class order.
    pub classes: Vec<DeviceClassStats>,
    /// Fleet makespan: the latest member makespan, µs.
    pub makespan_us: f64,
    /// Fleet-wide SLO attainment: attained requests over offered
    /// requests, across all members.
    pub slo_attainment: f64,
    /// Chaos/elasticity observables, populated only by
    /// [`FleetRuntime::serve_chaos`](crate::elastic) runs; `None` (and
    /// serialized as `null`) on the plain serving path.
    pub chaos: Option<FleetChaosStats>,
}

impl<'a> FleetRuntime<'a> {
    /// Serve a merged fleet trace: demux by scenario (preserving the
    /// merged order, which is already per-scenario arrival order) and
    /// run every member on its slice after its admission gate. Gate
    /// rejections surface as [`ShedReason::Admission`] records in the
    /// member report, so every offered request has a record. This is the
    /// chaos member pass with no faults, no migrations and no brownout
    /// ladder.
    pub fn serve(&self, arrivals: &[FleetArrival]) -> Result<FleetReport, ServeError> {
        let streams = self.demux(arrivals)?;
        self.check_shape()?;
        // A gate rejection never reaches the tier that would refuse a
        // non-finite arrival.
        for r in streams.iter().flatten() {
            r.check_arrival()?;
        }
        let pass = self.chaos_pass(&streams, &FleetChaosConfig::default(), &[], &[])?;
        let class_of: Vec<usize> = self.members.iter().map(|m| m.class).collect();
        Ok(self.assemble(
            pass.models,
            &class_of,
            pass.attained_total,
            pass.offered_total,
            None,
        ))
    }

    /// Demux a merged fleet trace into per-member request streams
    /// (preserving the merged order, which is already per-scenario
    /// arrival order) of views that borrow the arrivals' payloads. An
    /// arrival for a scenario no member serves is an error.
    pub(crate) fn demux<'r>(
        &self,
        arrivals: &'r [FleetArrival],
    ) -> Result<Vec<Vec<RequestRef<'r>>>, ServeError> {
        let mut streams: Vec<Vec<RequestRef<'r>>> = vec![Vec::new(); self.members.len()];
        for a in arrivals {
            let stream = streams
                .get_mut(a.scenario)
                .ok_or_else(|| ServeError::Request {
                    id: a.request.id,
                    reason: format!(
                        "scenario {} has no fleet member (the fleet has {})",
                        a.scenario,
                        self.members.len()
                    ),
                })?;
            stream.push(a.request.view());
        }
        Ok(streams)
    }

    /// Reject a fleet with a member pinned to a device class it does not
    /// have.
    pub(crate) fn check_shape(&self) -> Result<(), ServeError> {
        if self.members.iter().any(|m| m.class >= self.classes.len()) {
            return Err(ServeError::Policy(
                "a fleet member's device class is out of range",
            ));
        }
        Ok(())
    }

    /// Roll one member's finished report up into its fleet outcome,
    /// returning the outcome and the member's attained-request count.
    /// `class` is the device class the outcome is attributed to — the
    /// member's pinned class on the plain path, its *final* class after
    /// a chaos-path migration.
    pub(crate) fn finish_member(
        &self,
        member: &FleetMember<'a>,
        class: usize,
        offered: u64,
        gate_shed: u64,
        report: ShardedReport,
    ) -> (FleetModelOutcome, u64) {
        let attained = report
            .records
            .iter()
            .filter(|r| {
                !r.base.is_shed()
                    && member
                        .slo_deadline_us
                        .is_none_or(|d| r.base.latency_us() <= d)
            })
            .count() as u64;
        let outcome = FleetModelOutcome {
            name: member.name.clone(),
            class: self.classes[class].name.clone(),
            shards: member.runtime.placement.num_devices,
            slo_deadline_us: member.slo_deadline_us,
            requests_offered: offered,
            gate_shed,
            slo_attainment: if offered == 0 {
                1.0
            } else {
                attained as f64 / offered as f64
            },
            p50_us: report.percentile_us(0.50),
            p99_us: report.percentile_us(0.99),
            tuning: member.tuning,
            report,
        };
        (outcome, attained)
    }

    /// Assemble the fleet report from finished member outcomes.
    /// `class_of[i]` attributes member `i`'s busy time to a device class
    /// — the pinned classes on the plain path (where this reproduces the
    /// historical arithmetic branch-for-branch), the final post-migration
    /// classes on the chaos path.
    pub(crate) fn assemble(
        &self,
        models: Vec<FleetModelOutcome>,
        class_of: &[usize],
        attained_total: u64,
        offered_total: u64,
        chaos: Option<FleetChaosStats>,
    ) -> FleetReport {
        let makespan_us = models
            .iter()
            .map(|m| m.report.makespan_us)
            .fold(0.0, f64::max);
        let classes = self
            .classes
            .iter()
            .enumerate()
            .map(|(ci, class)| {
                let busy_us: f64 = class_of
                    .iter()
                    .zip(&models)
                    .filter(|(&c, _)| c == ci)
                    .map(|(_, out)| {
                        out.report
                            .per_shard
                            .iter()
                            .chain(&out.report.per_replica)
                            .map(|s| s.device_us)
                            .sum::<f64>()
                    })
                    .sum();
                let capacity = class.devices as f64 * makespan_us;
                DeviceClassStats {
                    name: class.name.clone(),
                    devices: class.devices,
                    busy_us,
                    utilization: if capacity > 0.0 {
                        busy_us / capacity
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        FleetReport {
            models,
            classes,
            makespan_us,
            slo_attainment: if offered_total == 0 {
                1.0
            } else {
                attained_total as f64 / offered_total as f64
            },
            chaos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ClassFaultKind, ClassFaultWindow, FleetFaultPlan};
    use crate::runtime::{BatchPolicy, ServeConfig};
    use crate::workload::{FleetWorkload, ScenarioSpec, TrafficShape};
    use crate::{Request, WorkloadSpec};
    use recflex_baselines::TorchRecBackend;
    use recflex_data::{ModelConfig, ModelPreset, Placement};
    use recflex_sim::Interconnect;

    fn config() -> ServeConfig {
        ServeConfig {
            streams: 2,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }

    /// A 1-model, 1-class fleet with no gate and no deadline is the
    /// underlying sharded runtime, bit for bit: the serialized member
    /// report equals the report from calling the runtime directly.
    #[test]
    fn degenerate_fleet_reproduces_sharded_runtime_byte_for_byte() {
        let model = ModelPreset::A.scaled(0.05);
        let arch = GpuArch::v100();
        let placement = Placement::balance(&model, 2);
        let build = || {
            ShardedServeRuntime::build(
                &model,
                &arch,
                placement.clone(),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        };
        let workload = FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "a".into(),
                workload: WorkloadSpec::long_tail(400.0),
                shape: TrafficShape::flat(),
                requests: 32,
            }],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);

        let fleet = FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch: &arch,
                devices: 2,
            }],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: build(),
                slo_deadline_us: None,
                gate: None,
                tuning: None,
            }],
        };
        let fleet_report = fleet.serve(&merged).expect("fleet serve");

        let direct = build()
            .serve(&WorkloadSpec::long_tail(400.0).stream(&model, 32, 42))
            .expect("direct serve");

        assert_eq!(
            serde_json::to_string(&fleet_report.models[0].report).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "degenerate fleet must reproduce the sharded runtime bit-for-bit"
        );
        assert_eq!(fleet_report.models[0].gate_shed, 0);
        assert!((fleet_report.makespan_us - direct.makespan_us).abs() == 0.0);
        // No deadline: attainment is completion rate.
        assert_eq!(
            fleet_report.slo_attainment,
            1.0 - direct.shed_rate(),
            "attainment without a deadline is the completion rate"
        );

        // Replay the whole fleet report too.
        let again = fleet.serve(&merged).expect("fleet replay");
        assert_eq!(fleet_report, again, "fleet replay must be bit-identical");
    }

    #[test]
    fn query_gate_sheds_oversized_batches_at_the_edge() {
        let model = ModelPreset::A.scaled(0.05);
        let arch = GpuArch::v100();
        let build = || {
            ShardedServeRuntime::build(
                &model,
                &arch,
                Placement::balance(&model, 1),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        };
        let workload = FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "a".into(),
                workload: WorkloadSpec::long_tail(400.0),
                shape: TrafficShape::flat(),
                requests: 48,
            }],
            seed: 11,
        };
        let merged = workload.merged(&[&model]);
        let sizes: Vec<u32> = merged.iter().map(|a| a.request.batch.batch_size).collect();
        let cut = *sizes.iter().max().unwrap() as f64; // gate out only the max
        let gate = QueryGate {
            cost_per_sample_us: 1.0,
            deadline_us: cut - 0.5,
        };
        let expect_shed = sizes.iter().filter(|&&s| !gate.admits(s)).count() as u64;
        assert!(expect_shed > 0, "test needs at least one oversized batch");

        let fleet = FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch: &arch,
                devices: 1,
            }],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: build(),
                slo_deadline_us: None,
                gate: Some(gate),
                tuning: None,
            }],
        };
        let report = fleet.serve(&merged).expect("fleet serve");
        assert_eq!(report.models[0].gate_shed, expect_shed);
        let records = &report.models[0].report.records;
        assert_eq!(
            records.len() as u64,
            48,
            "gated requests keep an edge record instead of vanishing"
        );
        let admission_shed = records
            .iter()
            .filter(|r| r.base.shed == crate::stats::ShedReason::Admission)
            .count() as u64;
        assert_eq!(
            admission_shed, expect_shed,
            "gate rejections surface as ShedReason::Admission"
        );
        for pair in records.windows(2) {
            assert!(
                pair[0].base.arrival_us <= pair[1].base.arrival_us,
                "edge records splice back into arrival order"
            );
        }
        // Gate-shed requests count against attainment.
        assert!(report.models[0].slo_attainment <= 1.0 - expect_shed as f64 / 48.0);
    }

    #[test]
    fn class_utilization_accounts_member_busy_time() {
        let (ma, mb) = (ModelPreset::A.scaled(0.05), ModelPreset::C.scaled(0.05));
        let v100 = GpuArch::v100();
        let edge = GpuArch::edge();
        fn build<'a>(
            model: &'a recflex_data::ModelConfig,
            arch: &'a GpuArch,
        ) -> ShardedServeRuntime<'a> {
            ShardedServeRuntime::build(
                model,
                arch,
                Placement::balance(model, 1),
                config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        }
        let workload = FleetWorkload {
            scenarios: vec![
                ScenarioSpec {
                    name: "a".into(),
                    workload: WorkloadSpec::long_tail(300.0),
                    shape: TrafficShape::flat(),
                    requests: 24,
                },
                ScenarioSpec {
                    name: "c".into(),
                    workload: WorkloadSpec::long_tail(500.0),
                    shape: TrafficShape::flat(),
                    requests: 16,
                },
            ],
            seed: 5,
        };
        let merged = workload.merged(&[&ma, &mb]);
        let fleet = FleetRuntime {
            classes: vec![
                DeviceClass {
                    name: "V100".into(),
                    arch: &v100,
                    devices: 1,
                },
                DeviceClass {
                    name: "Edge".into(),
                    arch: &edge,
                    devices: 1,
                },
            ],
            members: vec![
                FleetMember {
                    name: "a".into(),
                    class: 0,
                    runtime: build(&ma, &v100),
                    slo_deadline_us: None,
                    gate: None,
                    tuning: None,
                },
                FleetMember {
                    name: "c".into(),
                    class: 1,
                    runtime: build(&mb, &edge),
                    slo_deadline_us: None,
                    gate: None,
                    tuning: None,
                },
            ],
        };
        let report = fleet.serve(&merged).expect("fleet serve");
        assert_eq!(report.classes.len(), 2);
        for (ci, class) in report.classes.iter().enumerate() {
            let expect: f64 = report.models[ci]
                .report
                .per_shard
                .iter()
                .map(|s| s.device_us)
                .sum();
            assert!((class.busy_us - expect).abs() < 1e-9);
            assert!(class.utilization > 0.0 && class.utilization <= 1.0);
        }
        assert!(report.makespan_us >= report.models[0].report.makespan_us);
        assert!(report.makespan_us >= report.models[1].report.makespan_us);
    }

    /// One V100 class and a 1-shard member per entry of `classes`, each
    /// pinned to that class index.
    fn fleet<'a>(model: &'a ModelConfig, arch: &'a GpuArch, classes: &[usize]) -> FleetRuntime<'a> {
        FleetRuntime {
            classes: vec![DeviceClass {
                name: "V100".into(),
                arch,
                devices: classes.len(),
            }],
            members: classes
                .iter()
                .enumerate()
                .map(|(i, &class)| FleetMember {
                    name: format!("m{i}"),
                    class,
                    runtime: ShardedServeRuntime::build(
                        model,
                        arch,
                        Placement::balance(model, 1),
                        config(),
                        Interconnect::nvlink(),
                        |m| Box::new(TorchRecBackend::compile(m)),
                    ),
                    slo_deadline_us: None,
                    gate: None,
                    tuning: None,
                })
                .collect(),
        }
    }

    fn scenarios(n: usize) -> FleetWorkload {
        FleetWorkload {
            scenarios: (0..n)
                .map(|i| ScenarioSpec {
                    name: format!("s{i}"),
                    workload: WorkloadSpec::long_tail(400.0),
                    shape: TrafficShape::flat(),
                    requests: 8,
                })
                .collect(),
            seed: 3,
        }
    }

    /// A chaos config with one class outage and nothing else enabled.
    fn outage_chaos() -> FleetChaosConfig {
        FleetChaosConfig {
            faults: FleetFaultPlan::scripted(vec![ClassFaultWindow {
                class: 0,
                kind: ClassFaultKind::Outage,
                start_us: 1_000.0,
                end_us: 2_000.0,
            }]),
            ..FleetChaosConfig::default()
        }
    }

    #[test]
    fn an_arrival_without_a_member_is_an_error_not_a_panic() {
        let model = ModelPreset::A.scaled(0.01);
        let arch = GpuArch::v100();
        let merged = scenarios(3).merged(&[&model, &model, &model]);
        let mut fleet = fleet(&model, &arch, &[0, 0]);
        let stray = merged
            .iter()
            .find(|a| a.scenario == 2)
            .map(|a| a.request.id);
        match fleet.serve(&merged) {
            Err(ServeError::Request { id, .. }) => assert_eq!(Some(id), stray),
            other => panic!("serve: {other:?}"),
        }
        let chaotic = fleet.serve_chaos(&merged, &outage_chaos(), |_, _| {
            panic!("no elasticity, no rebuild")
        });
        assert!(
            matches!(chaotic, Err(ServeError::Request { .. })),
            "serve_chaos: {chaotic:?}"
        );
    }

    /// Requests the fleet's edge answers (here: a gate that rejects
    /// everything) never reach a tier, and `serve_chaos` sizes its epoch
    /// grid from the latest arrival, so both entries refuse a non-finite
    /// arrival themselves.
    #[test]
    fn non_finite_arrivals_are_request_errors() {
        let model = ModelPreset::A.scaled(0.01);
        let arch = GpuArch::v100();
        let valid = scenarios(1).merged(&[&model]);
        let brownout = FleetChaosConfig {
            epoch_us: 1_000.0,
            brownout: true,
            ..outage_chaos()
        };
        let reject_all = QueryGate {
            cost_per_sample_us: 1.0,
            deadline_us: 0.0,
        };
        let bad = 3;
        for gate in [None, Some(reject_all)] {
            for arrival in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
                let mut merged = valid.clone();
                merged[bad].request.arrival_us = arrival;
                let mut fleet = fleet(&model, &arch, &[0]);
                fleet.members[0].gate = gate;
                let no_rebuild = |_, _| panic!("no elasticity, no rebuild");
                let plain = fleet.serve(&merged);
                let outage = fleet.serve_chaos(&merged, &outage_chaos(), no_rebuild);
                let browned = fleet.serve_chaos(&merged, &brownout, no_rebuild);
                for (path, served) in [
                    ("serve", plain),
                    ("serve_chaos outage", outage),
                    ("serve_chaos brownout", browned),
                ] {
                    match served {
                        Err(ServeError::Request { id, reason }) => {
                            assert_eq!(id, merged[bad].request.id, "{path}");
                            assert!(reason.contains("arrival_us"), "{path}: {reason}");
                        }
                        other => panic!("{path}, gate {gate:?}, arrival {arrival}: {other:?}"),
                    }
                }
            }
        }
    }

    /// Each member's stream lends it the arrivals' own payloads: `demux`
    /// copies no batch, so neither do the member passes built on it.
    #[test]
    fn demux_lends_members_the_arrivals_payloads() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.01);
        let arch = GpuArch::v100();
        let merged = scenarios(2).merged(&[&model, &model]);
        let streams = fleet(&model, &arch, &[0, 0]).demux(&merged)?;
        assert_eq!(streams.iter().map(Vec::len).sum::<usize>(), merged.len());
        for (i, stream) in streams.iter().enumerate() {
            let own: Vec<&Request> = merged
                .iter()
                .filter(|a| a.scenario == i)
                .map(|a| &a.request)
                .collect();
            assert_eq!(stream.len(), own.len());
            for (view, r) in stream.iter().zip(own) {
                assert_eq!(
                    (view.id, view.arrival_us.to_bits()),
                    (r.id, r.arrival_us.to_bits())
                );
                assert!(std::ptr::eq(view.batch, &r.batch), "request {}", r.id);
            }
        }
        Ok(())
    }

    #[test]
    fn a_member_class_out_of_range_is_an_error_not_a_panic() {
        let model = ModelPreset::A.scaled(0.01);
        let arch = GpuArch::v100();
        let merged = scenarios(1).merged(&[&model]);
        let mut fleet = fleet(&model, &arch, &[1]);
        assert!(matches!(fleet.serve(&merged), Err(ServeError::Policy(_))));
        let chaotic = fleet.serve_chaos(&merged, &outage_chaos(), |_, _| {
            panic!("no elasticity, no rebuild")
        });
        assert!(
            matches!(chaotic, Err(ServeError::Policy(_))),
            "serve_chaos: {chaotic:?}"
        );
    }
}
