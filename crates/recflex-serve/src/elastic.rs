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
//!    pinned to that class, on top of per-member background faults.
//! 2. **Health-monitored drain-and-migrate** ([`ElasticityConfig`]):
//!    a per-member health monitor folds per-epoch SLO-attainment
//!    shortfall through a leaky-bucket [`PressureTracker`]; when it
//!    crosses its threshold the elasticity controller re-solves
//!    placement against *residual* capacity
//!    ([`FleetAssignment::rehome`]) and executes the move as a staged,
//!    abortable drain on the §8f rollout cadence
//!    ([`StagedSchedule`]): healthy → draining → migrating →
//!    restored/aborted.
//! 3. **Fleet brownout ladder** ([`FleetBrownoutConfig`]): above the
//!    per-tier degradation ladder, the fleet grades its own pressure and
//!    climbs rung by rung — tighten every [`QueryGate`], then shed the
//!    lowest-priority scenarios, then answer outage-stranded traffic
//!    with degraded zero-pooled edge records instead of shedding it.
//!
//! Determinism is structural, not incidental. A chaos run is three pure
//! passes over the same demuxed streams: an *observe* pass (plain
//! gate-filtered serving under the fault plans) whose records feed the
//! health monitor; a *telemetry* pass with migrations applied whose
//! records grade the brownout ladder; and the *final* pass with both
//! applied. Each pass is a pure function of its inputs and members run
//! sequentially in member order, so the composition replays bit-for-bit
//! at any `RECFLEX_THREADS`. A trivial config short-circuits to
//! [`FleetRuntime::serve`] before touching any state — the no-fault
//! path is byte-identical to the plain fleet by construction, and both
//! invariants are gated by the `serving_fleet_chaos` experiment in CI.
//!
//! [`QueryGate`]: crate::fleet::QueryGate
//! [`ShardedServeRuntime`]: crate::sharded::ShardedServeRuntime

use serde::Serialize;

use recflex_data::FleetAssignment;

use crate::faults::{FleetFaultPlan, PressureSignal, PressureTracker};
use crate::fleet::{
    edge_record, splice_edge_records, FleetModelOutcome, FleetReport, FleetRuntime,
};
use crate::lifecycle::StagedSchedule;
use crate::sharded::ShardedServeRuntime;
use crate::stats::{ShardedReport, ShardedRequestRecord, ShedReason};
use crate::workload::FleetArrival;
use crate::{Request, ServeError};

/// When is a fleet member unhealthy enough to drain?
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// How raw per-epoch samples become graded pressure. Use
    /// [`PressureSignal::LeakyBucket`] so one bad epoch cannot trigger
    /// a migration but a sustained outage does.
    pub signal: PressureSignal,
    /// Trigger when graded SLO-attainment *shortfall* (`1 − attainment`
    /// over the epoch's offered requests) exceeds this, in `[0, 1]`.
    pub max_shortfall: f64,
}

/// The drain-and-migrate controller's knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ElasticityConfig {
    /// Per-member health monitor.
    pub health: HealthPolicy,
    /// Gap between per-shard drain stages, µs — the migration's
    /// [`StagedSchedule`] cadence (one stage per shard lane).
    pub drain_stagger_us: f64,
    /// Dead time between the last drain stage and the member resuming
    /// on its new class, µs (weights shipped, engine warmed).
    pub handoff_us: f64,
    /// `cost_matrix_us[member][class]`: per-sample device cost of each
    /// member on each class — the same measured matrix
    /// [`FleetAssignment::cheapest_fit`] placed with, re-consulted by
    /// [`FleetAssignment::rehome`] at migration time.
    pub cost_matrix_us: Vec<Vec<f64>>,
}

/// The fleet brownout ladder: thresholds on graded fleet-wide
/// attainment shortfall, in `[0, 1]`, exclusive and expected ascending.
///
/// * rung 1 (`> tighten_above`) — every member's [`QueryGate`] deadline
///   is multiplied by `gate_tighten`, rejecting the expensive tail at
///   the edge,
/// * rung 2 (`> shed_above`) — scenarios at the fleet's lowest
///   `priorities` value are shed entirely,
/// * rung 3 (`> degrade_above`) — traffic stranded by an active class
///   outage (and everything a tightened gate rejects) is answered with
///   degraded zero-pooled edge records instead of being shed:
///   availability degrades before goodput does, fleet-wide.
///
/// [`QueryGate`]: crate::fleet::QueryGate
#[derive(Debug, Clone, PartialEq)]
pub struct FleetBrownoutConfig {
    /// How per-epoch fleet shortfall becomes graded pressure.
    pub signal: PressureSignal,
    /// Rung-1 threshold.
    pub tighten_above: f64,
    /// Rung-2 threshold.
    pub shed_above: f64,
    /// Rung-3 threshold.
    pub degrade_above: f64,
    /// Gate-deadline multiplier at rung ≥ 1, in `(0, 1]`.
    pub gate_tighten: f64,
    /// Per-member scenario priorities (larger = more important), in
    /// member order. Rung 2 sheds the members at the minimum value;
    /// empty (or all-equal) priorities disable rung-2 shedding.
    pub priorities: Vec<u32>,
}

impl FleetBrownoutConfig {
    /// The rung at graded shortfall `p`.
    fn level(&self, p: f64) -> u8 {
        if p > self.degrade_above {
            3
        } else if p > self.shed_above {
            2
        } else if p > self.tighten_above {
            1
        } else {
            0
        }
    }
}

/// Everything a chaos run injects on top of the plain fleet.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetChaosConfig {
    /// The materialized fleet fault schedule.
    pub faults: FleetFaultPlan,
    /// Health/brownout observation epoch, µs. Must be positive and
    /// finite when elasticity or brownout is enabled.
    pub epoch_us: f64,
    /// Drain-and-migrate controller; `None` leaves placement static.
    pub elasticity: Option<ElasticityConfig>,
    /// Fleet brownout ladder; `None` never sheds at the fleet edge.
    pub brownout: Option<FleetBrownoutConfig>,
}

impl FleetChaosConfig {
    /// True when the config injects nothing and enables nothing — the
    /// guard for the byte-identity fast path.
    pub fn is_trivial(&self) -> bool {
        self.faults.is_empty() && self.elasticity.is_none() && self.brownout.is_none()
    }
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

/// A committed migration: drain on the staged cadence, resume on the
/// target class after the handoff.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MigrationPlan {
    target: usize,
    drain: StagedSchedule,
    resume_us: f64,
}

/// Aggregate of one chaos serving pass.
struct PassResult {
    models: Vec<FleetModelOutcome>,
    attained_total: u64,
    offered_total: u64,
    edge_degraded: u64,
    drain_shed: u64,
}

impl<'a> FleetRuntime<'a> {
    /// Serve a merged fleet trace under a chaos config. `rebuild(m, c)`
    /// must build member `m`'s sharded runtime against device class `c`
    /// — it is invoked (deterministically, in member order) for every
    /// completed migration's landing class. A trivial config
    /// short-circuits to [`FleetRuntime::serve`] before mutating
    /// anything, so the no-fault path stays byte-identical to the plain
    /// fleet.
    ///
    /// `serve_chaos` owns each member runtime's fault plan: it installs
    /// [`FleetFaultPlan::member_plan`] for the member's *current* class
    /// (background faults plus expanded class windows), which is why it
    /// takes `&mut self`. The rest of each member's
    /// [`ResilienceConfig`](crate::faults::ResilienceConfig) — ladder,
    /// replication, deadlines — is respected as built.
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
            a.request.check_arrival()?;
        }
        if chaos.is_trivial() {
            return self.serve(arrivals);
        }
        if (chaos.elasticity.is_some() || chaos.brownout.is_some())
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
        self.check_shape(streams.len())?;

        // Install each member's fault plan for its pinned class.
        for (i, member) in self.members.iter_mut().enumerate() {
            let shards = member.runtime.placement.num_devices;
            member.runtime.resilience.plan = chaos.faults.member_plan(i, member.class, shards);
        }

        let horizon_us = streams
            .iter()
            .flat_map(|s| s.iter().map(|r| r.arrival_us))
            .fold(0.0f64, f64::max)
            + chaos.epoch_us.max(1.0);
        let epochs = if chaos.epoch_us > 0.0 {
            (horizon_us / chaos.epoch_us).ceil() as usize
        } else {
            0
        };

        // Observe pass: plain gate-filtered serving under the fault
        // plans feeds the per-member health monitor.
        let (migrations, records) = match &chaos.elasticity {
            Some(el) => {
                let observed = self.serve_streams(&streams)?;
                self.plan_migrations(&observed, chaos, el, epochs)
            }
            None => (vec![None; self.members.len()], Vec::new()),
        };

        // Telemetry pass: migrations applied, no brownout — its records
        // grade the ladder, so rungs clear once a migration has
        // actually relieved the pressure.
        let ladder: Vec<u8> = match &chaos.brownout {
            Some(bw) => {
                let telemetry =
                    self.chaos_pass(&streams, chaos, &migrations, None, &mut rebuild)?;
                ladder_levels(&telemetry.models, chaos.epoch_us, epochs, bw)
            }
            None => vec![0; epochs],
        };

        // Final pass: migrations and brownout both in effect.
        let fin = self.chaos_pass(&streams, chaos, &migrations, Some(&ladder), &mut rebuild)?;

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
        observed: &FleetReport,
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
            let Some(trigger_us) = health_trigger(
                &observed.models[i].report.records,
                member.slo_deadline_us,
                chaos.epoch_us,
                epochs,
                &el.health,
            ) else {
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
            let drain = StagedSchedule::new(trigger_us, shards, el.drain_stagger_us);
            let resume_us = drain.complete_us() + el.handoff_us.max(0.0);
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
                drain,
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

    /// One chaos serving pass: every request is resolved at the fleet
    /// edge (brownout rungs, drain windows, gates) or routed to the
    /// member's pre-/post-migration runtime; segment reports merge back
    /// into one per-member report.
    fn chaos_pass<F>(
        &self,
        streams: &[Vec<Request>],
        chaos: &FleetChaosConfig,
        migrations: &[Option<MigrationPlan>],
        ladder: Option<&[u8]>,
        rebuild: &mut F,
    ) -> Result<PassResult, ServeError>
    where
        F: FnMut(usize, usize) -> ShardedServeRuntime<'a>,
    {
        let bw = chaos.brownout.as_ref();
        let prio = bw.map(|b| b.priorities.as_slice()).unwrap_or(&[]);
        let (prio_min, prio_max) = prio
            .iter()
            .fold((u32::MAX, u32::MIN), |(lo, hi), &p| (lo.min(p), hi.max(p)));
        let shed_priorities = prio.len() == self.members.len() && prio_min < prio_max;
        let rung_at = |t: f64| -> u8 {
            match ladder {
                Some(l) if chaos.epoch_us > 0.0 => {
                    let k = (t / chaos.epoch_us) as usize;
                    l.get(k).copied().unwrap_or(0)
                }
                _ => 0,
            }
        };

        let mut models = Vec::with_capacity(self.members.len());
        let mut attained_total = 0u64;
        let mut offered_total = 0u64;
        let mut edge_degraded = 0u64;
        let mut drain_shed = 0u64;
        for (i, (member, stream)) in self.members.iter().zip(streams).enumerate() {
            let mig = migrations[i];
            let offered = stream.len() as u64;
            let mut pre = Vec::new();
            let mut post = Vec::new();
            let mut edge: Vec<ShardedRequestRecord> = Vec::new();
            for r in stream {
                let t = r.arrival_us;
                let rung = rung_at(t);
                // Rung 2: the lowest-priority scenarios are shed whole.
                if rung >= 2 && shed_priorities && prio[i] == prio_min {
                    edge.push(edge_record(r, ShedReason::Admission, false));
                    continue;
                }
                // Drain/handoff window: neither runtime can take the
                // request. Rung 3 answers it degraded; otherwise shed.
                if let Some(p) = mig {
                    if t >= p.drain.start_us && t < p.resume_us {
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
                // Admission gate, tightened at rung ≥ 1.
                if let Some(g) = member.gate {
                    let tighten = match bw {
                        Some(b) if rung >= 1 => b.gate_tighten.clamp(0.0, 1.0),
                        _ => 1.0,
                    };
                    let admits =
                        r.batch.batch_size as f64 * g.cost_per_sample_us <= g.deadline_us * tighten;
                    if !admits {
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
                    Some(p) if t >= p.resume_us => post.push(r.clone()),
                    _ => pre.push(r.clone()),
                }
            }
            let gate_shed = edge
                .iter()
                .filter(|e| e.base.shed == ShedReason::Admission)
                .count() as u64;
            let pre_report = member.runtime.serve(&pre)?;
            let mut report = match mig {
                Some(p) => {
                    let mut landed = rebuild(i, p.target);
                    landed.resilience.plan =
                        chaos
                            .faults
                            .member_plan(i, p.target, landed.placement.num_devices);
                    let post_report = landed.serve(&post)?;
                    ShardedReport::merge(vec![pre_report, post_report])
                }
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

/// Fold one member's records through its health monitor and return the
/// first epoch-end timestamp at which graded shortfall crosses its
/// threshold — the drain trigger. Empty epochs (no arrivals) are
/// skipped, not observed as healthy.
fn health_trigger(
    records: &[ShardedRequestRecord],
    slo_deadline_us: Option<f64>,
    epoch_us: f64,
    epochs: usize,
    health: &HealthPolicy,
) -> Option<f64> {
    if epochs == 0 || epoch_us <= 0.0 {
        return None;
    }
    let mut offered = vec![0u64; epochs];
    let mut attained = vec![0u64; epochs];
    for r in records {
        let k = ((r.base.arrival_us / epoch_us) as usize).min(epochs - 1);
        offered[k] += 1;
        let ok = !r.base.is_shed() && slo_deadline_us.is_none_or(|d| r.base.latency_us() <= d);
        if ok {
            attained[k] += 1;
        }
    }
    let mut shortfall = PressureTracker::default();
    for k in 0..epochs {
        if offered[k] == 0 {
            continue;
        }
        let now = (k + 1) as f64 * epoch_us;
        let s = shortfall.observe(
            now,
            1.0 - attained[k] as f64 / offered[k] as f64,
            health.signal,
        );
        if s > health.max_shortfall {
            return Some(now);
        }
    }
    None
}

/// Grade the fleet brownout ladder from a telemetry pass: per-epoch
/// fleet-wide attainment shortfall, folded through the brownout's
/// pressure signal, mapped to a rung per epoch. Epochs with no offered
/// traffic carry the previous graded pressure forward.
fn ladder_levels(
    models: &[FleetModelOutcome],
    epoch_us: f64,
    epochs: usize,
    bw: &FleetBrownoutConfig,
) -> Vec<u8> {
    if epochs == 0 || epoch_us <= 0.0 {
        return Vec::new();
    }
    let mut offered = vec![0u64; epochs];
    let mut attained = vec![0u64; epochs];
    for m in models {
        for r in &m.report.records {
            let k = ((r.base.arrival_us / epoch_us) as usize).min(epochs - 1);
            offered[k] += 1;
            let ok =
                !r.base.is_shed() && m.slo_deadline_us.is_none_or(|d| r.base.latency_us() <= d);
            if ok {
                attained[k] += 1;
            }
        }
    }
    let mut tracker = PressureTracker::default();
    let mut p = 0.0f64;
    (0..epochs)
        .map(|k| {
            if offered[k] > 0 {
                let now = (k + 1) as f64 * epoch_us;
                p = tracker.observe(now, 1.0 - attained[k] as f64 / offered[k] as f64, bw.signal);
            }
            bw.level(p)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{ClassFaultKind, ClassFaultWindow, FleetFaultSpec};
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
        ShardedServeRuntime::build(
            model,
            arch,
            Placement::balance(model, 1),
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

    fn scenario(name: &str, n: usize, priority: u32) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            workload: WorkloadSpec::long_tail(400.0),
            shape: TrafficShape::flat(),
            requests: n,
            priority,
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
            health: HealthPolicy {
                signal: PressureSignal::Instantaneous,
                max_shortfall: 0.6,
            },
            drain_stagger_us: 100.0,
            handoff_us: 1_000.0,
            cost_matrix_us: vec![vec![1.0, 1.2]],
        }
    }

    fn chaos_with_outage(elastic: bool) -> FleetChaosConfig {
        FleetChaosConfig {
            faults: FleetFaultSpec {
                class_windows: vec![outage(0, OUTAGE.0, OUTAGE.1)],
                background: None,
            }
            .plan(&[1], 30_000.0, 7),
            epoch_us: EPOCH_US,
            elasticity: elastic.then(elasticity),
            brownout: None,
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
            scenarios: vec![scenario("a", 24, 1)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
        let plain = fleet.serve(&merged)?;
        let chaos = FleetChaosConfig {
            faults: FleetFaultPlan::none(1),
            epoch_us: EPOCH_US,
            elasticity: None,
            brownout: None,
        };
        assert!(chaos.is_trivial());
        let chaotic = fleet.serve_chaos(&merged, &chaos, |_, _| panic!("must not rebuild"))?;
        assert_eq!(
            serde_json::to_string(&plain).ok(),
            serde_json::to_string(&chaotic).ok(),
            "empty plan + disabled elasticity must reproduce serve byte-for-byte"
        );
        assert!(chaotic.chaos.is_none());
        Ok(())
    }

    #[test]
    fn class_outage_triggers_a_completed_drain_and_migrate() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48, 1)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
        let report = fleet.serve_chaos(&merged, &chaos_with_outage(true), |_, c| {
            assert_eq!(c, 1, "the only surviving class is A100");
            build(&model, &a100)
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
        assert!(resume > mig.trigger_us);
        // The member escaped: its outcome is attributed to A100, the
        // spare A100 device is consumed, and V100 is free again.
        assert_eq!(report.models[0].class, "A100");
        assert_eq!(stats.residual[0].free, 1);
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
        Ok(())
    }

    #[test]
    fn elasticity_beats_static_placement_under_an_outage() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("a", 48, 1)],
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
            scenarios: vec![scenario("a", 48, 1)],
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
            scenarios: vec![scenario("a", 48, 1)],
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
        cfg.faults = FleetFaultSpec {
            class_windows: vec![
                outage(0, OUTAGE.0, OUTAGE.1),
                outage(1, trigger + 10.0, trigger + 20_000.0),
            ],
            background: None,
        }
        .plan(&[1], 30_000.0, 7);
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
            scenarios: vec![scenario("a", 48, 1)],
            seed: 42,
        };
        let merged = workload.merged(&[&model]);
        let run = |brownout: Option<FleetBrownoutConfig>| {
            let mut cfg = chaos_with_outage(false);
            cfg.brownout = brownout;
            let mut fleet = one_member_fleet(&model, &v100, &a100, 1);
            fleet.serve_chaos(&merged, &cfg, |_, _| panic!("no elasticity, no rebuild"))
        };
        let faults_only = run(None)?;
        let browned = run(Some(FleetBrownoutConfig {
            signal: PressureSignal::Instantaneous,
            tighten_above: 0.01,
            shed_above: 0.03,
            degrade_above: 0.05,
            gate_tighten: 1.0,
            priorities: Vec::new(),
        }))?;
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

    #[test]
    fn brownout_rung_two_sheds_only_the_lowest_priority_scenario() -> Result<(), ServeError> {
        let model = ModelPreset::A.scaled(0.02);
        let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
        let workload = FleetWorkload {
            scenarios: vec![scenario("low", 32, 0), scenario("high", 32, 5)],
            seed: 42,
        };
        let merged = workload.merged(&[&model, &model]);
        let mut fleet = FleetRuntime {
            classes: vec![
                DeviceClass {
                    name: "V100".into(),
                    arch: &v100,
                    devices: 1,
                },
                DeviceClass {
                    name: "A100".into(),
                    arch: &a100,
                    devices: 1,
                },
            ],
            members: vec![
                FleetMember {
                    name: "low".into(),
                    class: 0,
                    runtime: build(&model, &v100),
                    slo_deadline_us: Some(3_000.0),
                    gate: None,
                    tuning: None,
                },
                FleetMember {
                    name: "high".into(),
                    class: 1,
                    runtime: build(&model, &a100),
                    slo_deadline_us: Some(3_000.0),
                    gate: None,
                    tuning: None,
                },
            ],
        };
        let cfg = FleetChaosConfig {
            faults: FleetFaultSpec {
                class_windows: vec![outage(0, OUTAGE.0, OUTAGE.1)],
                background: None,
            }
            .plan(&[1, 1], 30_000.0, 7),
            epoch_us: EPOCH_US,
            elasticity: None,
            brownout: Some(FleetBrownoutConfig {
                signal: PressureSignal::Instantaneous,
                tighten_above: 0.01,
                shed_above: 0.03,
                degrade_above: 2.0, // unreachable: the ladder caps at rung 2
                gate_tighten: 1.0,
                priorities: vec![0, 5],
            }),
        };
        let report = fleet.serve_chaos(&merged, &cfg, |_, _| panic!("no elasticity"))?;
        let stats = chaos_stats(&report)?;
        assert!(
            stats.ladder.contains(&2) && stats.ladder.iter().all(|&l| l < 3),
            "ladder must reach exactly rung 2: {:?}",
            stats.ladder
        );
        assert!(
            report.models[0].gate_shed > 0,
            "the low-priority scenario is shed at the edge"
        );
        assert_eq!(
            report.models[1].gate_shed, 0,
            "the high-priority scenario is untouched"
        );
        Ok(())
    }

    proptest! {
        /// Satellite replay gate: the same seed and `FleetFaultSpec`
        /// yield an identical migration trace and a byte-identical
        /// `FleetReport` across runs. (The CI `threads-replay` matrix
        /// extends this equality across `RECFLEX_THREADS`.)
        #[test]
        fn chaos_runs_replay_bit_for_bit(seed in 0u64..6) {
            // Kept deliberately small: each case is two full three-pass
            // chaos runs, and the default case count multiplies it.
            let model = ModelPreset::A.scaled(0.01);
            let (v100, a100) = (GpuArch::v100(), GpuArch::a100());
            let workload = FleetWorkload {
                scenarios: vec![scenario("a", 12, 1)],
                seed,
            };
            let merged = workload.merged(&[&model]);
            let spec = FleetFaultSpec {
                class_windows: vec![outage(0, OUTAGE.0, OUTAGE.1)],
                background: Some(crate::faults::FaultSpec::mixed(8_000.0, 2_000.0)),
            };
            let mut cfg = chaos_with_outage(true);
            cfg.faults = spec.plan(&[1], 30_000.0, seed);
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
