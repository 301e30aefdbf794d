//! Fleet-scale chaos: correlated class outages, health-monitored
//! drain-and-migrate elasticity, and the fleet brownout ladder.
//!
//! [`crate::faults`] lets one [`ShardedServeRuntime`] survive lane
//! faults; this module teaches the *fleet* to survive the failure mode a
//! real device pool actually sees — a whole device class going dark at
//! once — by composing three deterministic mechanisms:
//!
//! 1. **Correlated faults** ([`FleetFaultPlan`]): whole-class
//!    outage/brownout windows expand onto every lane of every member
//!    pinned to that class.
//! 2. **Health-monitored drain-and-migrate** ([`ElasticityConfig`]):
//!    a per-member health monitor folds per-epoch SLO-attainment
//!    shortfall through a leaky-bucket [`PressureTracker`] with a time
//!    constant of half an epoch; when it crosses 0.5 the elasticity
//!    controller re-solves placement against *residual* capacity
//!    ([`FleetAssignment::rehome`]) and executes the move as a staged,
//!    abortable drain on the §8f rollout cadence (one shard every eighth
//!    of an epoch, then a half-epoch handoff): healthy → draining →
//!    migrating → restored/aborted.
//! 3. **Fleet brownout ladder** ([`FleetChaosConfig::brownout`]): above
//!    the per-tier degradation ladder, the fleet grades each epoch's raw
//!    shortfall into rungs at 0.05, 0.15 and 0.25. From rung 1 every
//!    [`QueryGate`] admits only queries predicted within 0.6 of its
//!    deadline; rung 3 also answers outage-stranded traffic (and
//!    everything a tightened gate rejects) with degraded zero-pooled
//!    edge records instead of shedding it.
//!
//! Determinism is structural, not incidental. A chaos run is three pure
//! passes over the same demuxed streams, views that borrow the arrivals'
//! payloads (no pass copies a batch): an *observe* pass (plain
//! gate-filtered serving under the fault plans) whose records feed the
//! health monitor; a *telemetry* pass with migrations applied whose
//! records grade the brownout ladder; and the *final* pass with both
//! applied. Each pass is a pure function of its inputs and members run
//! sequentially in member order, so the composition replays bit-for-bit
//! at any `RECFLEX_THREADS`. The plain fleet ([`FleetRuntime::serve`])
//! is the same member pass with no faults, no migrations and no ladder.
//! A trivial config (no faults, no elasticity, no brownout) runs the
//! general passes like any other: no observe pass, no telemetry pass,
//! and a final pass with no landings and every epoch at rung 0. Its
//! report with `chaos` cleared is therefore byte-identical to the plain
//! fleet's, and its chaos stats record nothing; the
//! `serving_fleet_chaos` experiment gates both invariants in CI.
//!
//! [`QueryGate`]: crate::fleet::QueryGate
//! [`ShardedServeRuntime`]: crate::sharded::ShardedServeRuntime

use serde::Serialize;

use recflex_data::FleetAssignment;

use crate::faults::{FleetFaultPlan, PressureTracker};
use crate::fleet::{
    edge_record, splice_edge_records, FleetModelOutcome, FleetReport, FleetRuntime, QueryGate,
};
use crate::sharded::ShardedServeRuntime;
use crate::stats::{ShardedReport, ShardedRequestRecord, ShedReason};
use crate::workload::FleetArrival;
use crate::{RequestRef, ServeError};

/// The health monitor drains a member once its leaky-bucket shortfall
/// (time constant half an epoch) exceeds this.
const HEALTH_TRIP: f64 = 0.5;

/// Brownout rung thresholds on an epoch's fleet-wide shortfall,
/// exclusive and ascending: the rung is how many of them it exceeds.
/// Rung 2 acts as rung 1; it keeps the reported ladder graded in three
/// steps.
const RUNG_ABOVE: [f64; 3] = [0.05, 0.15, 0.25];

/// From rung 1, a gate admits a query only if its predicted device time
/// fits this fraction of the gate deadline.
const GATE_TIGHTEN: f64 = 0.6;

/// The most observation epochs a chaos run grades. The health monitor
/// and the brownout ladder keep per-epoch vectors (16 bytes an epoch per
/// member, and the ladder is reported), so an `epoch_us` tiny against
/// the run must be refused rather than sized into an allocation;
/// `serving_fleet_chaos` grades 13 epochs at smoke scale.
const MAX_EPOCHS: usize = 1 << 20;

/// The drain-and-migrate controller's input: what each member would cost
/// on each class.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticityConfig {
    /// `cost_matrix_us[member][class]`: per-sample device cost of each
    /// member on each class — the same measured matrix
    /// [`FleetAssignment::cheapest_fit`] placed with, re-consulted by
    /// [`FleetAssignment::rehome`] at migration time.
    pub cost_matrix_us: Vec<Vec<f64>>,
}

/// Everything a chaos run injects on top of the plain fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetChaosConfig {
    /// The fleet fault schedule.
    pub faults: FleetFaultPlan,
    /// Health/brownout observation epoch, µs. Must be positive and
    /// finite when elasticity or brownout is enabled.
    pub epoch_us: f64,
    /// Drain-and-migrate controller; `None` leaves placement static.
    pub elasticity: Option<ElasticityConfig>,
    /// Run the fleet brownout ladder; `false` never tightens a gate or
    /// answers at the fleet edge.
    pub brownout: bool,
}

/// One drain-and-migrate attempt, as reported.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MigrationRecord {
    /// Member (model) name.
    pub member: String,
    /// Class the member drained from.
    pub from_class: String,
    /// Class the member landed on (`None` when aborted before placement).
    pub to_class: Option<String>,
    /// When the health monitor triggered the drain, µs.
    pub trigger_us: f64,
    /// When the member resumed serving on its new class, µs (`None`
    /// when aborted).
    pub resume_us: Option<f64>,
    /// `"completed"`, `"aborted-no-capacity"`, or
    /// `"aborted-target-outage"`.
    pub outcome: String,
}

/// Post-migration residual capacity of one device class.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResidualClassStats {
    /// Class name.
    pub class: String,
    /// Devices in the class.
    pub devices: usize,
    /// Devices consumed by members placed on the class at run end.
    pub used: usize,
    /// Devices still free at run end.
    pub free: isize,
}

/// Chaos/elasticity observables attached to the [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetChaosStats {
    /// Fleet availability: answered (completed or degraded) requests
    /// over all offered requests, in `[0, 1]`.
    pub availability: f64,
    /// Lane-weighted outage downtime, µs: for each member, the merged
    /// outage windows of its original class (clipped to the run, and to
    /// its migration resume when it escaped) times its shard count.
    pub outage_downtime_us: f64,
    /// Drain-and-migrate attempts triggered by the health monitor.
    pub migrations_attempted: u32,
    /// Attempts aborted (no residual capacity, or target outage).
    pub migrations_aborted: u32,
    /// Attempts that completed and resumed on the new class.
    pub migrations_completed: u32,
    /// Every attempt, in member order.
    pub migrations: Vec<MigrationRecord>,
    /// Residual per-class capacity after migrations.
    pub residual: Vec<ResidualClassStats>,
    /// The brownout rung in effect per observation epoch.
    pub ladder: Vec<u8>,
    /// The observation epoch the run graded on, µs.
    pub epoch_us: f64,
    /// Requests answered with degraded zero-pooled edge records at
    /// rung 3.
    pub edge_degraded: u64,
    /// Requests shed because they arrived inside a drain/handoff
    /// window.
    pub drain_shed: u64,
}

/// A committed migration: drain on the staged cadence from the trigger,
/// resume on the target class after the handoff.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MigrationPlan {
    target: usize,
    trigger_us: f64,
    resume_us: f64,
}

/// A completed migration and the tier its member resumes on, built once
/// and armed with the target class's faults.
pub(crate) struct Landing<'a> {
    plan: MigrationPlan,
    tier: ShardedServeRuntime<'a>,
}

/// Aggregate of one member pass.
pub(crate) struct PassResult {
    pub(crate) models: Vec<FleetModelOutcome>,
    pub(crate) attained_total: u64,
    pub(crate) offered_total: u64,
    edge_degraded: u64,
    drain_shed: u64,
}

impl<'a> FleetRuntime<'a> {
    /// Serve a merged fleet trace under a chaos config. `rebuild(m, c)`
    /// must build member `m`'s sharded runtime against device class `c`
    /// — it is invoked once per completed migration, in member order, for
    /// its landing class. Every config, a trivial one included, runs the
    /// same passes and is held to the same epoch-grid bound.
    ///
    /// `serve_chaos` owns each member runtime's fault plan: it installs
    /// [`FleetFaultPlan::class_plan`] for the member's *current* class,
    /// which is why it takes `&mut self`. Each member's mitigation choice
    /// ([`ShardedServeRuntime::mitigated`]) is respected as built.
    pub fn serve_chaos<F>(
        &mut self,
        arrivals: &[FleetArrival],
        chaos: &FleetChaosConfig,
        mut rebuild: F,
    ) -> Result<FleetReport, ServeError>
    where
        F: FnMut(usize, usize) -> ShardedServeRuntime<'a>,
    {
        // Requests the edge answers (gate, drain, brownout) never reach a
        // tier, and the epoch grid spans the latest arrival: refuse a
        // non-finite arrival up front.
        for a in arrivals {
            a.request.view().check_arrival()?;
        }
        if (chaos.elasticity.is_some() || chaos.brownout)
            && !(chaos.epoch_us.is_finite() && chaos.epoch_us > 0.0)
        {
            return Err(ServeError::Policy(
                "chaos epoch_us must be positive and finite",
            ));
        }
        if let Some(el) = &chaos.elasticity {
            if el.cost_matrix_us.len() != self.members.len()
                || el
                    .cost_matrix_us
                    .iter()
                    .any(|row| row.len() != self.classes.len())
            {
                return Err(ServeError::Policy(
                    "elasticity cost matrix must be members x classes",
                ));
            }
        }

        let streams = self.demux(arrivals)?;
        self.check_shape()?;

        let horizon_us = streams
            .iter()
            .flat_map(|s| s.iter().map(|r| r.arrival_us))
            .fold(0.0f64, f64::max)
            + chaos.epoch_us.max(1.0);
        let epochs = if chaos.epoch_us > 0.0 {
            let grid = (horizon_us / chaos.epoch_us).ceil();
            if grid > MAX_EPOCHS as f64 {
                return Err(ServeError::Policy(
                    "chaos epoch_us is too small: the run would span more than 2^20 epochs",
                ));
            }
            grid as usize
        } else {
            0
        };

        // Install each member's fault plan for its pinned class.
        for member in &mut self.members {
            let shards = member.runtime.placement.num_devices;
            member.runtime.faults = chaos.faults.class_plan(member.class, shards);
        }

        // Observe pass: plain gate-filtered serving under the fault
        // plans feeds the per-member health monitor.
        let (migrations, records) = match &chaos.elasticity {
            Some(el) => {
                let observed = self.chaos_pass(&streams, chaos, &[], &[])?;
                self.plan_migrations(&observed.models, chaos, el, epochs)
            }
            None => (vec![None; self.members.len()], Vec::new()),
        };
        let landed: Vec<Option<Landing<'a>>> = migrations
            .iter()
            .enumerate()
            .map(|(i, m)| {
                m.map(|plan| {
                    let mut tier = rebuild(i, plan.target);
                    tier.faults = chaos
                        .faults
                        .class_plan(plan.target, tier.placement.num_devices);
                    Landing { plan, tier }
                })
            })
            .collect();

        // Telemetry pass: migrations applied, no brownout — its records
        // grade the ladder, so rungs clear once a migration has
        // actually relieved the pressure.
        let ladder: Vec<u8> = if chaos.brownout {
            let telemetry = self.chaos_pass(&streams, chaos, &landed, &[])?;
            let counts = epoch_counts(
                epochs,
                chaos.epoch_us,
                telemetry
                    .models
                    .iter()
                    .map(|m| (m.report.records.as_slice(), m.slo_deadline_us)),
            );
            ladder_levels(&counts)
        } else {
            vec![0; epochs]
        };

        // Final pass: migrations and brownout both in effect.
        let fin = self.chaos_pass(&streams, chaos, &landed, &ladder)?;

        let final_class: Vec<usize> = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| migrations[i].map_or(m.class, |p| p.target))
            .collect();
        let (answered, total) = fin.models.iter().fold((0u64, 0u64), |(a, t), m| {
            let shed = m.report.records.iter().filter(|r| r.base.is_shed()).count() as u64;
            let n = m.report.records.len() as u64;
            (a + n - shed, t + n)
        });
        let makespan_us = fin
            .models
            .iter()
            .map(|m| m.report.makespan_us)
            .fold(0.0, f64::max);
        let outage_downtime_us: f64 = self
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let until = migrations[i].map_or(makespan_us, |p| p.resume_us.min(makespan_us));
                chaos.faults.outage_downtime_us(m.class, until)
                    * m.runtime.placement.num_devices as f64
            })
            .sum();
        let mut used = vec![0usize; self.classes.len()];
        for (i, m) in self.members.iter().enumerate() {
            used[final_class[i]] += m.runtime.placement.num_devices;
        }
        let residual = self
            .classes
            .iter()
            .enumerate()
            .map(|(ci, c)| ResidualClassStats {
                class: c.name.clone(),
                devices: c.devices,
                used: used[ci],
                free: c.devices as isize - used[ci] as isize,
            })
            .collect();
        let stats = FleetChaosStats {
            availability: if total == 0 {
                1.0
            } else {
                answered as f64 / total as f64
            },
            outage_downtime_us,
            migrations_attempted: records.len() as u32,
            migrations_aborted: records.iter().filter(|r| r.outcome != "completed").count() as u32,
            migrations_completed: records.iter().filter(|r| r.outcome == "completed").count()
                as u32,
            migrations: records,
            residual,
            ladder,
            epoch_us: chaos.epoch_us,
            edge_degraded: fin.edge_degraded,
            drain_shed: fin.drain_shed,
        };
        Ok(self.assemble(
            fin.models,
            &final_class,
            fin.attained_total,
            fin.offered_total,
            Some(stats),
        ))
    }

    /// The elasticity controller: fold each member's observe-pass
    /// records through its health monitor, and for every member that
    /// trips, re-solve placement against residual capacity and commit
    /// (or abort) a staged drain. Members are processed in member
    /// order; each may migrate at most once.
    fn plan_migrations(
        &self,
        observed: &[FleetModelOutcome],
        chaos: &FleetChaosConfig,
        el: &ElasticityConfig,
        epochs: usize,
    ) -> (Vec<Option<MigrationPlan>>, Vec<MigrationRecord>) {
        let mut free: Vec<isize> = self.classes.iter().map(|c| c.devices as isize).collect();
        for m in &self.members {
            free[m.class] -= m.runtime.placement.num_devices as isize;
        }
        let mut plans = vec![None; self.members.len()];
        let mut records = Vec::new();
        for (i, member) in self.members.iter().enumerate() {
            let counts = epoch_counts(
                epochs,
                chaos.epoch_us,
                [(
                    observed[i].report.records.as_slice(),
                    member.slo_deadline_us,
                )],
            );
            let Some(trigger_us) = health_trigger(&counts, chaos.epoch_us) else {
                continue;
            };
            let shards = member.runtime.placement.num_devices;
            let banned: Vec<bool> = (0..self.classes.len())
                .map(|c| c == member.class || chaos.faults.outage_active(c, trigger_us))
                .collect();
            let Some(target) =
                FleetAssignment::rehome(&el.cost_matrix_us[i], shards, &free, &banned)
            else {
                records.push(MigrationRecord {
                    member: member.name.clone(),
                    from_class: self.classes[member.class].name.clone(),
                    to_class: None,
                    trigger_us,
                    resume_us: None,
                    outcome: "aborted-no-capacity".into(),
                });
                continue;
            };
            // One shard drains every eighth of an epoch, then the handoff
            // takes half an epoch.
            let drained_us = trigger_us + chaos.epoch_us / 8.0 * shards.saturating_sub(1) as f64;
            let resume_us = drained_us + chaos.epoch_us / 2.0;
            // Abort if any drain stage or the handoff would land inside
            // an outage window on the target — the §8f rollout's
            // abort-on-regression check, applied to class health.
            if chaos.faults.outage_overlaps(target, trigger_us, resume_us) {
                records.push(MigrationRecord {
                    member: member.name.clone(),
                    from_class: self.classes[member.class].name.clone(),
                    to_class: Some(self.classes[target].name.clone()),
                    trigger_us,
                    resume_us: None,
                    outcome: "aborted-target-outage".into(),
                });
                continue;
            }
            free[target] -= shards as isize;
            free[member.class] += shards as isize;
            plans[i] = Some(MigrationPlan {
                target,
                trigger_us,
                resume_us,
            });
            records.push(MigrationRecord {
                member: member.name.clone(),
                from_class: self.classes[member.class].name.clone(),
                to_class: Some(self.classes[target].name.clone()),
                trigger_us,
                resume_us: Some(resume_us),
                outcome: "completed".into(),
            });
        }
        (plans, records)
    }

    /// One serving pass over every member, in member order: each request
    /// is resolved at the fleet edge (brownout rungs, drain windows,
    /// gates) or routed to the member's tier — its landing tier once a
    /// migration has resumed — and the segment reports merge back into
    /// one per-member report. `landed[i]` is member `i`'s completed
    /// migration (missing entries migrate nothing) and `ladder[k]` the
    /// rung of epoch `k` (missing epochs are rung 0), so the plain fleet
    /// is this pass with no landings and an empty ladder.
    pub(crate) fn chaos_pass(
        &self,
        streams: &[Vec<RequestRef<'_>>],
        chaos: &FleetChaosConfig,
        landed: &[Option<Landing<'a>>],
        ladder: &[u8],
    ) -> Result<PassResult, ServeError> {
        let mut models = Vec::with_capacity(self.members.len());
        let mut attained_total = 0u64;
        let mut offered_total = 0u64;
        let mut edge_degraded = 0u64;
        let mut drain_shed = 0u64;
        for (i, (member, stream)) in self.members.iter().zip(streams).enumerate() {
            let landing = landed.get(i).and_then(Option::as_ref);
            let mig = landing.map(|l| l.plan);
            let offered = stream.len() as u64;
            let mut pre = Vec::new();
            let mut post = Vec::new();
            let mut edge: Vec<ShardedRequestRecord> = Vec::new();
            for r in stream {
                let t = r.arrival_us;
                let rung = ladder
                    .get((t / chaos.epoch_us) as usize)
                    .copied()
                    .unwrap_or(0);
                // Drain/handoff window: neither runtime can take the
                // request. Rung 3 answers it degraded; otherwise shed.
                if let Some(p) = mig {
                    if t >= p.trigger_us && t < p.resume_us {
                        if rung >= 3 {
                            edge.push(edge_record(r, ShedReason::None, true));
                            edge_degraded += 1;
                        } else {
                            edge.push(edge_record(r, ShedReason::Admission, false));
                            drain_shed += 1;
                        }
                        continue;
                    }
                }
                // Rung 3: traffic stranded on a class inside an active
                // outage window is answered degraded at the edge.
                let class_now = mig
                    .filter(|p| t >= p.resume_us)
                    .map_or(member.class, |p| p.target);
                if rung >= 3 && chaos.faults.outage_active(class_now, t) {
                    edge.push(edge_record(r, ShedReason::None, true));
                    edge_degraded += 1;
                    continue;
                }
                // Admission gate, tightened from rung 1.
                if let Some(g) = member.gate {
                    let gate = if rung >= 1 {
                        QueryGate {
                            deadline_us: g.deadline_us * GATE_TIGHTEN,
                            ..g
                        }
                    } else {
                        g
                    };
                    if !gate.admits(r.batch.batch_size) {
                        if rung >= 3 {
                            edge.push(edge_record(r, ShedReason::None, true));
                            edge_degraded += 1;
                        } else {
                            edge.push(edge_record(r, ShedReason::Admission, false));
                        }
                        continue;
                    }
                }
                match mig {
                    Some(p) if t >= p.resume_us => post.push(*r),
                    _ => pre.push(*r),
                }
            }
            let gate_shed = edge
                .iter()
                .filter(|e| e.base.shed == ShedReason::Admission)
                .count() as u64;
            let pre_report = member.runtime.serve_refs(&pre)?;
            let mut report = match landing {
                Some(l) => ShardedReport::merge(vec![pre_report, l.tier.serve_refs(&post)?]),
                None => pre_report,
            };
            splice_edge_records(&mut report, edge);
            let final_class = mig.map_or(member.class, |p| p.target);
            let (outcome, attained) =
                self.finish_member(member, final_class, offered, gate_shed, report);
            attained_total += attained;
            offered_total += offered;
            models.push(outcome);
        }
        Ok(PassResult {
            models,
            attained_total,
            offered_total,
            edge_degraded,
            drain_shed,
        })
    }
}

/// Per-epoch `(offered, attained)` request counts over `members`, each
/// a record stream and its SLO deadline. Arrivals past the grid count in
/// its last epoch.
fn epoch_counts<'r>(
    epochs: usize,
    epoch_us: f64,
    members: impl IntoIterator<Item = (&'r [ShardedRequestRecord], Option<f64>)>,
) -> Vec<(u64, u64)> {
    let mut counts = vec![(0u64, 0u64); epochs];
    let last = epochs.saturating_sub(1);
    for (records, slo_deadline_us) in members {
        for r in records {
            let k = ((r.base.arrival_us / epoch_us) as usize).min(last);
            let Some((offered, attained)) = counts.get_mut(k) else {
                continue;
            };
            *offered += 1;
            if !r.base.is_shed() && slo_deadline_us.is_none_or(|d| r.base.latency_us() <= d) {
                *attained += 1;
            }
        }
    }
    counts
}

/// Fold a member's per-epoch shortfall through the health monitor's
/// leaky bucket and return the first epoch-end timestamp at which it
/// trips — the drain trigger. Empty epochs (no arrivals) are skipped,
/// not observed as healthy.
fn health_trigger(counts: &[(u64, u64)], epoch_us: f64) -> Option<f64> {
    let mut shortfall = PressureTracker::default();
    for (k, &(offered, attained)) in counts.iter().enumerate() {
        if offered == 0 {
            continue;
        }
        let now = (k + 1) as f64 * epoch_us;
        let raw = 1.0 - attained as f64 / offered as f64;
        if shortfall.observe(now, raw, epoch_us / 2.0) > HEALTH_TRIP {
            return Some(now);
        }
    }
    None
}

/// Grade the fleet brownout ladder from a telemetry pass's per-epoch
/// fleet-wide counts: each epoch's raw shortfall maps to a rung. Epochs
/// with no offered traffic carry the previous shortfall forward.
fn ladder_levels(counts: &[(u64, u64)]) -> Vec<u8> {
    let mut p = 0.0f64;
    counts
        .iter()
        .map(|&(offered, attained)| {
            if offered > 0 {
                p = 1.0 - attained as f64 / offered as f64;
            }
            RUNG_ABOVE.iter().filter(|&&above| p > above).count() as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ClassFaultKind, ClassFaultWindow};
    use crate::fleet::{DeviceClass, FleetMember};
    use crate::runtime::{BatchPolicy, ServeConfig};
    use crate::workload::{FleetWorkload, ScenarioSpec, TrafficShape};
    use crate::WorkloadSpec;
    use proptest::prelude::*;
    use recflex_baselines::TorchRecBackend;
    use recflex_data::{ModelConfig, ModelPreset, Placement};
    use recflex_sim::{GpuArch, Interconnect};

    const EPOCH_US: f64 = 1_000.0;
    const OUTAGE: (f64, f64) = (4_000.0, 12_000.0);

    fn build<'a>(model: &'a ModelConfig, arch: &'a GpuArch) -> ShardedServeRuntime<'a> {
        build_on(model, arch, 1)
    }

    fn build_on<'a>(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        shards: usize,
    ) -> ShardedServeRuntime<'a> {
        ShardedServeRuntime::build(
            model,
            arch,
            Placement::balance(model, shards),
            ServeConfig {
                streams: 2,
                policy: BatchPolicy::Split { cap: 256 },
                // Tier-level SLO shedding so an unmitigated outage sheds
                // (reason Fault) instead of queueing forever.
                slo_deadline_us: Some(3_000.0),
                closed_loop: false,
                hot_shard_cap: None,
            },
            Interconnect::nvlink(),
            |m| Box::new(TorchRecBackend::compile(m)),
        )
    }

    fn scenario(name: &str, n: usize) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            workload: WorkloadSpec::long_tail(400.0),
            shape: TrafficShape::flat(),
            requests: n,
        }
    }

    fn outage(class: usize, start: f64, end: f64) -> ClassFaultWindow {
        ClassFaultWindow {
            class,
            kind: ClassFaultKind::Outage,
            start_us: start,
            end_us: end,
        }
    }

    fn one_member_fleet<'a>(
        model: &'a ModelConfig,
        v100: &'a GpuArch,
        a100: &'a GpuArch,
        spare_devices: usize,
    ) -> FleetRuntime<'a> {
        FleetRuntime {
            classes: vec![
                DeviceClass {
                    name: "V100".into(),
                    arch: v100,
                    devices: 1,
                },
                DeviceClass {
                    name: "A100".into(),
                    arch: a100,
                    devices: spare_devices,
                },
            ],
            members: vec![FleetMember {
                name: "a".into(),
                class: 0,
                runtime: build(model, v100),
                slo_deadline_us: Some(3_000.0),
                gate: None,
                tuning: None,
            }],
        }
    }

    fn elasticity() -> ElasticityConfig {
        ElasticityConfig {
            cost_matrix_us: vec![vec![1.0, 1.2]],
        }
    }

    fn chaos_with_outage(elastic: bool) -> FleetChaosConfig {
        FleetChaosConfig {
            faults: FleetFaultPlan::scripted(vec![outage(0, OUTAGE.0, OUTAGE.1)]),
            epoch_us: EPOCH_US,
            elasticity: elastic.then(elasticity),
            brownout: false,
        }
    }

    fn chaos_stats(report: &crate::fleet::FleetReport) -> Result<&FleetChaosStats, ServeError> {
        report
            .chaos
            .as_ref()
            .ok_or(ServeError::Internal("chaos stats missing"))
    }

    #[test]
    fn trivial_chaos_reproduces_plain_serve_byte_for_byte() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 24)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
        let plain = fleet.serve(&merged)?;
        let chaos = FleetChaosConfig {
            faults: FleetFaultPlan::default(),
            epoch_us: EPOCH_US,
            elasticity: None,
            brownout: false,
        };
        let mut chaotic = fleet.serve_chaos(&merged, &chaos, |_, _| panic!("must not rebuild"))?;
        let stats = chaotic
            .chaos
            .take()
            .ok_or(ServeError::Internal("chaos stats missing"))?;
        assert_eq!(
            serde_json::to_string(&plain).ok(),
            serde_json::to_string(&chaotic).ok(),
            "empty plan + disabled elasticity must reproduce serve byte-for-byte"
        );
        assert!(stats.migrations.is_empty());
        assert_eq!(stats.edge_degraded, 0);
        assert_eq!(stats.drain_shed, 0);
        assert_eq!(stats.outage_downtime_us, 0.0);
        assert!(!stats.ladder.is_empty(), "a 1 ms epoch grades the run");
        assert!(stats.ladder.iter().all(|&rung| rung == 0));
        Ok(())
    }

    #[test]
    fn an_epoch_grid_too_fine_for_the_run_is_a_policy_error() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 8)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
        // Outage only: no elasticity or brownout asks for a usable epoch.
        let mut chaos = chaos_with_outage(false);
        chaos.epoch_us = 1e-300;
        assert!(matches!(
            fleet.serve_chaos(&merged, &chaos, |_, _| panic!("no elasticity, no rebuild")),
            Err(ServeError::Policy(_))
        ));
        // An epoch of 0 grades nothing and stays accepted.
        chaos.epoch_us = 0.0;
        let report = fleet.serve_chaos(&merged, &chaos, |_, _| panic!("no rebuild"))?;
        assert!(chaos_stats(&report)?.ladder.is_empty());
        Ok(())
    }

    #[test]
    fn class_outage_triggers_a_completed_drain_and_migrate() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        for shards in [1, 3] {
            let mut fleet = one_member_fleet(&model, &v100, &a100, shards);
            fleet.classes[0].devices = shards;
            fleet.members[0].runtime = build_on(&model, &v100, shards);
            let report = fleet.serve_chaos(&merged, &chaos_with_outage(true), |_, c| {
                assert_eq!(c, 1, "the only surviving class is A100");
                build_on(&model, &a100, shards)
            })?;
            let stats = chaos_stats(&report)?;
            assert_eq!(stats.migrations_attempted, 1);
            assert_eq!(stats.migrations_completed, 1);
            assert_eq!(stats.migrations_aborted, 0);
            let mig = &stats.migrations[0];
            assert_eq!(mig.outcome, "completed");
            assert_eq!(mig.from_class, "V100");
            assert_eq!(mig.to_class.as_deref(), Some("A100"));
            // Requests in flight when the class goes dark finish late, so
            // the monitor can surface the damage in their *arrival* epoch,
            // slightly before the outage itself opens.
            assert!(
                mig.trigger_us > 0.0 && mig.trigger_us <= OUTAGE.1,
                "the health monitor triggers off the outage: {}",
                mig.trigger_us
            );
            let resume = mig
                .resume_us
                .ok_or(ServeError::Internal("completed migrations must resume"))?;
            // Shard 0 drains at the trigger and each further shard an
            // eighth of an epoch later; the handoff then takes half an
            // epoch.
            assert_eq!(
                resume,
                mig.trigger_us + EPOCH_US / 8.0 * (shards - 1) as f64 + EPOCH_US / 2.0
            );
            // The member escaped: its outcome is attributed to A100, the
            // spare A100 devices are consumed, and V100 is free again.
            assert_eq!(report.models[0].class, "A100");
            assert_eq!(stats.residual[0].free, shards as isize);
            assert_eq!(stats.residual[1].free, 0);
            assert!(stats.outage_downtime_us > 0.0);
            // Every offered request has a record (edge sheds included).
            assert_eq!(report.models[0].report.records.len(), 48);
            // Post-resume traffic actually completes on the new class.
            let post_ok = report.models[0]
                .report
                .records
                .iter()
                .filter(|r| r.base.arrival_us >= resume && !r.base.is_shed())
                .count();
            assert!(post_ok > 0, "post-migration traffic must be served");
        }
        Ok(())
    }

    #[test]
    fn elasticity_beats_static_placement_under_an_outage() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let availability = |elastic: bool| {
            let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
            let report = fleet.serve_chaos(&merged, &chaos_with_outage(elastic), |_, _| {
                build(&model, &a100)
            })?;
            Ok::<f64, ServeError>(chaos_stats(&report)?.availability)
        };
        assert!(
            availability(true)? > availability(false)?,
            "migrating off the dead class must strictly improve availability"
        );
        Ok(())
    }

    #[test]
    fn no_residual_capacity_aborts_the_migration() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        // Zero spare A100 devices: rehome must refuse to oversubscribe.
        let mut fleet = one_member_fleet(&model, &v100, &a100, 0);
        let report = fleet.serve_chaos(&merged, &chaos_with_outage(true), |_, _| {
            panic!("aborted migrations must not rebuild")
        })?;
        let stats = chaos_stats(&report)?;
        assert_eq!(stats.migrations_attempted, 1);
        assert_eq!(stats.migrations_aborted, 1);
        assert_eq!(stats.migrations_completed, 0);
        assert_eq!(stats.migrations[0].outcome, "aborted-no-capacity");
        assert!(stats.migrations[0].resume_us.is_none());
        assert_eq!(report.models[0].class, "V100", "the member stays put");
        Ok(())
    }

    #[test]
    fn target_outage_aborts_the_staged_drain() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        // Learn the deterministic trigger timestamp from a clean run…
        let trigger = {
            let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
            let report = fleet.serve_chaos(&merged, &chaos_with_outage(true), |_, _| {
                build(&model, &a100)
            })?;
            chaos_stats(&report)?.migrations[0].trigger_us
        };
        // …then open an A100 outage inside the drain+handoff window but
        // strictly after the trigger: the controller places onto A100
        // (healthy at decision time) and the staged abort check fires.
        let mut cfg = chaos_with_outage(true);
        cfg.faults = FleetFaultPlan::scripted(vec![
            outage(0, OUTAGE.0, OUTAGE.1),
            outage(1, trigger + 10.0, trigger + 20_000.0),
        ]);
        let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
        let report = fleet.serve_chaos(&merged, &cfg, |_, _| {
            panic!("aborted migrations must not rebuild")
        })?;
        let stats = chaos_stats(&report)?;
        assert_eq!(stats.migrations[0].outcome, "aborted-target-outage");
        assert_eq!(stats.migrations[0].to_class.as_deref(), Some("A100"));
        assert_eq!(stats.migrations_completed, 0);
        assert_eq!(report.models[0].class, "V100");
        Ok(())
    }

    #[test]
    fn brownout_rung_three_degrades_stranded_traffic_instead_of_shedding() -> Result<(), ServeError>
    {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let run = |brownout: bool| {
            let mut cfg = chaos_with_outage(false);
            cfg.brownout = brownout;
            let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
            fleet.serve_chaos(&merged, &cfg, |_, _| panic!("no elasticity, no rebuild"))
        };
        let faults_only = run(false)?;
        let browned = run(true)?;
        let stats = chaos_stats(&browned)?;
        assert!(
            stats.ladder.contains(&3),
            "the outage must climb the fleet ladder to rung 3: {:?}",
            stats.ladder
        );
        assert!(stats.edge_degraded > 0, "stranded traffic answers degraded");
        assert!(
            stats.availability > chaos_stats(&faults_only)?.availability,
            "degraded edge answers must beat shedding on availability"
        );
        Ok(())
    }

    proptest! {
        /// Replay gate: the same seed and `FleetFaultPlan` yield an
        /// identical migration trace and a byte-identical `FleetReport`
        /// across runs. (The CI `threads-replay` matrix
        /// extends this equality across `RECFLEX_THREADS`.)
        #[test]
        fn chaos_runs_replay_bit_for_bit(seed in 0u64..6) {
            // Kept deliberately small: each case is two full chaos runs,
            // and the default case count multiplies it.
            let model = ModelPreset::A.scaled(0.01);
            let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
            let workload = FleetWorkload {
                scenarios: vec![scenario("a", 12)],
                seed,
            };
            let merged = workload.merged(&[&model]);
            let cfg = chaos_with_outage(true);
            let run = || {
                let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
                fleet
                    .serve_chaos(&merged, &cfg, |_, _| build(&model, &a100))
                    .ok()
                    .and_then(|report| serde_json::to_string(&report).ok())
            };
            let (a, b) = (run(), run());
            prop_assert!(a.is_some(), "a faulty chaos run must still serve");
            prop_assert_eq!(a, b, "same inputs must replay bit-for-bit");
        }
    }
}
