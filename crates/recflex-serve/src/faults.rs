//! Deterministic fault injection and the graceful-degradation policy.
//!
//! Production recommendation serving treats degraded hardware and tail
//! stragglers as first-class (Hercules provisions around heterogeneous,
//! partially-failed capacity; DeepRecSys schedules around tail-latency
//! SLAs). This module gives the simulated tier the same vocabulary, with
//! the same determinism contract as [`crate::WorkloadSpec`]: a
//! [`FaultSpec`] plus a seed replays to a bit-identical [`FaultPlan`],
//! so a chaotic run is still a pure function of its inputs.
//!
//! Four fault kinds, all timed windows over simulated µs:
//!
//! * [`FaultKind::Slowdown`] — a shard's executor retires work at a
//!   fraction of its healthy throughput (thermal throttling, a noisy
//!   neighbor on the host),
//! * [`FaultKind::Stall`] — the lane stops draining entirely until the
//!   window closes (driver hiccup, PCIe reset),
//! * [`FaultKind::Crash`] — the lane is dead until a recovery timestamp;
//!   in-flight work is lost and must be re-executed or degraded,
//! * [`FaultKind::LinkDegrade`] — the all-gather bandwidth is cut by a
//!   factor (flaky switch, congested fabric).
//!
//! The response side is one choice on the tier,
//! [`ShardedServeRuntime::mitigated`](crate::ShardedServeRuntime::mitigated),
//! whose thresholds all derive from the SLO: a standby replica lane per
//! shard, hedged re-execution of a chunk still running a quarter of the
//! SLO after fan-out, crash failover that re-projects a dead shard's work
//! onto its replica, and a degradation ladder that under sustained
//! backlog pressure first drops the hedge, then serves chunks touched by
//! a crashed shard with partial (zero-pooled) embeddings instead of
//! shedding — availability degrades before goodput does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// Shard `shard` retires work at `rate` (in `(0, 1)`) of healthy
    /// throughput for the fault window.
    Slowdown { shard: usize, rate: f64 },
    /// Shard `shard` stops draining entirely; queued and resident work
    /// freezes in place and resumes at the window end.
    Stall { shard: usize },
    /// Shard `shard` is dead until the window end (its recovery
    /// timestamp). In-flight work is lost, not paused.
    Crash { shard: usize },
    /// Every all-gather started inside the window sees its bandwidth cut
    /// by `factor` (≥ 1).
    LinkDegrade { factor: f64 },
}

impl FaultKind {
    /// The shard this fault pins down, if it is shard-scoped.
    pub fn shard(&self) -> Option<usize> {
        match *self {
            FaultKind::Slowdown { shard, .. }
            | FaultKind::Stall { shard }
            | FaultKind::Crash { shard } => Some(shard),
            FaultKind::LinkDegrade { .. } => None,
        }
    }
}

/// One timed fault window: active on `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Fault {
    /// When the fault begins, µs.
    pub start_us: f64,
    /// When the fault clears (a crash's recovery timestamp), µs.
    pub end_us: f64,
    /// What breaks.
    pub kind: FaultKind,
}

impl Fault {
    fn active_at(&self, t: f64) -> bool {
        self.start_us <= t && t < self.end_us
    }
}

/// A replayable schedule of faults for one run. Construct scripted plans
/// with [`FaultPlan::scripted`] or seeded ones with [`FaultSpec::plan`];
/// an empty plan ([`FaultPlan::none`]) leaves the serving tier on its
/// fault-free fast path, bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FaultPlan {
    /// Fault windows, sorted by start time (ties keep insertion order).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical behavior to a runtime
    /// without fault injection at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A hand-written plan. Windows are sorted by start time; windows
    /// with `end_us <= start_us` are empty and dropped.
    pub fn scripted(mut faults: Vec<Fault>) -> Self {
        faults.retain(|f| f.end_us > f.start_us);
        faults.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        FaultPlan { faults }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Every timestamp at which some fault starts or ends, sorted and
    /// deduplicated — the event points where lane rates change.
    pub fn transitions(&self) -> Vec<f64> {
        let mut ts: Vec<f64> = self
            .faults
            .iter()
            .flat_map(|f| [f.start_us, f.end_us])
            .collect();
        ts.sort_by(f64::total_cmp);
        ts.dedup();
        ts
    }

    /// True when any fault window covers `t`.
    pub fn any_active(&self, t: f64) -> bool {
        self.faults.iter().any(|f| f.active_at(t))
    }

    /// The throughput rate of `shard` at `t` from slowdowns and stalls:
    /// 1 healthy, 0 stalled, the product of active slowdown rates
    /// otherwise. Crashes are *not* folded in — they change job
    /// ownership, not just speed, so the runtime handles them separately
    /// via [`FaultPlan::crashed`].
    pub fn rate_of(&self, shard: usize, t: f64) -> f64 {
        let mut rate = 1.0f64;
        for f in &self.faults {
            if !f.active_at(t) {
                continue;
            }
            match f.kind {
                FaultKind::Stall { shard: s } if s == shard => return 0.0,
                FaultKind::Slowdown { shard: s, rate: r } if s == shard => {
                    rate *= r.clamp(0.0, 1.0);
                }
                _ => {}
            }
        }
        rate
    }

    /// True when a crash window covers `(shard, t)`.
    pub fn crashed(&self, shard: usize, t: f64) -> bool {
        self.faults.iter().any(|f| {
            f.active_at(t) && matches!(f.kind, FaultKind::Crash { shard: s } if s == shard)
        })
    }

    /// The all-gather slowdown factor at `t` (≥ 1): the product of every
    /// active link-degradation factor.
    pub fn link_factor(&self, t: f64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.active_at(t))
            .map(|f| match f.kind {
                FaultKind::LinkDegrade { factor } => factor.max(1.0),
                _ => 1.0,
            })
            .product()
    }

    /// Total time `shard` could make no progress (crash or stall
    /// windows) within `[0, until]`, µs. Overlapping windows are merged
    /// so downtime never exceeds `until`.
    pub fn downtime_us(&self, shard: usize, until: f64) -> f64 {
        let mut windows: Vec<(f64, f64)> = self
            .faults
            .iter()
            .filter(|f| {
                matches!(
                    f.kind,
                    FaultKind::Crash { shard: s } | FaultKind::Stall { shard: s } if s == shard
                )
            })
            .map(|f| (f.start_us.max(0.0), f.end_us.min(until)))
            .filter(|&(s, e)| e > s)
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut frontier = f64::NEG_INFINITY;
        for (s, e) in windows {
            let s = s.max(frontier);
            if e > s {
                total += e - s;
                frontier = e;
            }
        }
        total
    }
}

/// Draw weights of the four fault kinds, in the order slowdown, stall,
/// crash, link degradation: slowdowns are the common case.
const KIND_WEIGHTS: [f64; 4] = [3.0, 1.0, 1.0, 1.0];
/// Throughput multiplier a drawn slowdown imposes.
const SLOWDOWN_RATE: f64 = 0.4;
/// Bandwidth-cut factor a drawn link degradation imposes.
const LINK_FACTOR: f64 = 8.0;
/// The most faults one [`FaultSpec::plan`] draws, the bound
/// `elastic::MAX_EPOCHS` puts on a chaos run's epoch grid. The draw loop
/// ends when the clock passes the horizon, so a mean gap tiny against
/// the horizon would push faults until memory runs out (a 1e-3 µs gap
/// over 1 000 µs already draws about a million), and one too small to
/// move the clock at all would never end.
const MAX_FAULTS: usize = 1 << 20;

/// The statistical shape of a seeded fault schedule — the fault-side
/// analogue of [`crate::WorkloadSpec`]. Fault starts are a Poisson
/// process (exponential gaps) and durations are exponential. Kinds are
/// drawn 3 : 1 : 1 : 1 from slowdown (to 0.4 of healthy throughput),
/// stall, crash and link degradation (bandwidth cut 8×), and
/// shard-scoped faults pick a shard uniformly. Identical
/// `(spec, num_shards, horizon, seed)` replays a bit-identical
/// [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Mean gap between fault starts, µs.
    pub mean_time_between_us: f64,
    /// Mean fault duration, µs.
    pub mean_duration_us: f64,
}

impl FaultSpec {
    /// The fixed mix of all four fault kinds at the given cadence.
    pub fn mixed(mean_time_between_us: f64, mean_duration_us: f64) -> Self {
        FaultSpec {
            mean_time_between_us,
            mean_duration_us,
        }
    }

    /// Synthesize the fault schedule for `num_shards` shards over
    /// `[0, horizon_us)` from `seed`. Identical arguments produce
    /// byte-identical plans.
    ///
    /// A mean gap that is not finite and positive, or a horizon that is
    /// not finite, never lets the clock pass the horizon: such a spec
    /// yields no faults. At most 2^20 faults are drawn; a denser spec's
    /// plan ends at the last of them. Both answer a hostile spec with a
    /// plan rather than a [`ServeError`](crate::ServeError), because
    /// [`PipelineFaultSpec::plans`] is infallible for its callers.
    pub fn plan(&self, num_shards: usize, horizon_us: f64, seed: u64) -> FaultPlan {
        let gap = self.mean_time_between_us;
        let passes_horizon = gap.is_finite() && gap > 0.0 && horizon_us.is_finite();
        if num_shards == 0 || horizon_us <= 0.0 || !passes_horizon {
            return FaultPlan::none();
        }
        let [slowdown, stall, crash, link] = KIND_WEIGHTS;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x000F_A017_5EED);
        let mut faults = Vec::new();
        let mut t = 0.0f64;
        while faults.len() < MAX_FAULTS {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -gap * (1.0 - u).ln();
            if t >= horizon_us {
                break;
            }
            let d: f64 = rng.gen_range(0.0..1.0);
            let duration = -self.mean_duration_us * (1.0 - d).ln();
            let shard = rng.gen_range(0..num_shards as u64) as usize;
            let pick = rng.gen_range(0.0..slowdown + stall + crash + link);
            let kind = if pick < slowdown {
                FaultKind::Slowdown {
                    shard,
                    rate: SLOWDOWN_RATE,
                }
            } else if pick < slowdown + stall {
                FaultKind::Stall { shard }
            } else if pick < slowdown + stall + crash {
                FaultKind::Crash { shard }
            } else {
                FaultKind::LinkDegrade {
                    factor: LINK_FACTOR,
                }
            };
            faults.push(Fault {
                start_us: t,
                end_us: t + duration.max(1.0),
                kind,
            });
        }
        FaultPlan::scripted(faults)
    }
}

/// A correlated fault kind scoped to a whole [`DeviceClass`] of the
/// fleet rather than a single shard lane — the failure mode a real
/// device pool sees when a rack PDU trips or a driver rollout bricks
/// one accelerator generation.
///
/// [`DeviceClass`]: crate::fleet::DeviceClass
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ClassFaultKind {
    /// Every lane of every member pinned to the class is dead for the
    /// window (expands to [`FaultKind::Crash`] on every shard).
    Outage,
    /// Every lane of every member on the class retires work at `rate`
    /// of healthy throughput (expands to [`FaultKind::Slowdown`]) —
    /// a fleet-wide thermal event or power cap.
    Brownout {
        /// Throughput multiplier, in `(0, 1)`.
        rate: f64,
    },
}

/// One timed correlated fault window: `kind` hits device class `class`
/// on `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassFaultWindow {
    /// Index of the device class the window hits (into the fleet's
    /// class list).
    pub class: usize,
    /// What breaks, fleet-wide on that class.
    pub kind: ClassFaultKind,
    /// When the window opens, µs.
    pub start_us: f64,
    /// When the window clears, µs.
    pub end_us: f64,
}

impl ClassFaultWindow {
    fn active_at(&self, t: f64) -> bool {
        self.start_us <= t && t < self.end_us
    }

    fn overlaps(&self, start_us: f64, end_us: f64) -> bool {
        self.start_us < end_us && start_us < self.end_us
    }
}

/// The fleet-level fault schedule: correlated whole-class windows,
/// sorted by `(start, class)`. The fleet analogue of [`FaultPlan`]: the
/// plan a member runtime actually executes comes from
/// [`FleetFaultPlan::class_plan`], which expands the windows of the
/// member's *current* class onto its shard lanes — so a migrated member
/// escapes its old class's outages and inherits its new class's.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct FleetFaultPlan {
    /// Correlated whole-class windows, sorted by start time, then class.
    pub class_windows: Vec<ClassFaultWindow>,
}

impl FleetFaultPlan {
    /// A hand-written plan. Windows are sorted by `(start, class)`;
    /// windows with `end_us <= start_us` are empty and dropped.
    pub fn scripted(mut class_windows: Vec<ClassFaultWindow>) -> Self {
        class_windows.retain(|w| w.end_us > w.start_us);
        class_windows.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(a.class.cmp(&b.class))
        });
        FleetFaultPlan { class_windows }
    }

    /// The concrete [`FaultPlan`] a member executes while pinned to
    /// device class `class` with `num_shards` shard lanes: every window
    /// on `class` expanded onto all of its lanes (Outage → crash,
    /// Brownout → slowdown).
    pub fn class_plan(&self, class: usize, num_shards: usize) -> FaultPlan {
        let mut faults = Vec::new();
        for w in self.class_windows.iter().filter(|w| w.class == class) {
            for shard in 0..num_shards {
                let kind = match w.kind {
                    ClassFaultKind::Outage => FaultKind::Crash { shard },
                    ClassFaultKind::Brownout { rate } => FaultKind::Slowdown {
                        shard,
                        rate: rate.clamp(1e-3, 1.0),
                    },
                };
                faults.push(Fault {
                    start_us: w.start_us,
                    end_us: w.end_us,
                    kind,
                });
            }
        }
        FaultPlan::scripted(faults)
    }

    /// True when an outage window on `class` covers `t`.
    pub fn outage_active(&self, class: usize, t: f64) -> bool {
        self.class_windows
            .iter()
            .any(|w| w.class == class && matches!(w.kind, ClassFaultKind::Outage) && w.active_at(t))
    }

    /// True when any outage window on `class` intersects
    /// `[start_us, end_us)` — the query a staged migration runs before
    /// committing each rollout stage onto a target class.
    pub fn outage_overlaps(&self, class: usize, start_us: f64, end_us: f64) -> bool {
        self.class_windows.iter().any(|w| {
            w.class == class
                && matches!(w.kind, ClassFaultKind::Outage)
                && w.overlaps(start_us, end_us)
        })
    }

    /// Total outage downtime windows on `class` clipped to
    /// `[0, until]`, µs, overlaps merged.
    pub fn outage_downtime_us(&self, class: usize, until: f64) -> f64 {
        let mut windows: Vec<(f64, f64)> = self
            .class_windows
            .iter()
            .filter(|w| w.class == class && matches!(w.kind, ClassFaultKind::Outage))
            .map(|w| (w.start_us.max(0.0), w.end_us.min(until)))
            .filter(|&(s, e)| e > s)
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut frontier = f64::NEG_INFINITY;
        for (s, e) in windows {
            let s = s.max(frontier);
            if e > s {
                total += e - s;
                frontier = e;
            }
        }
        total
    }
}

/// A fault window scoped to one pipeline stage: the wrapped [`Fault`]
/// is injected only into that stage's tier, leaving the other stages
/// healthy — the shape that makes per-stage breakers and fallbacks
/// observable (a whole-pipeline fault would just look like overload).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageFault {
    /// Pipeline stage index the window applies to.
    pub stage: usize,
    /// The fault injected into that stage's shard lanes.
    pub fault: Fault,
}

/// The pipeline-level fault schedule: scripted stage-scoped windows plus
/// an optional background [`FaultSpec`] drawn independently per stage.
/// Identical
/// `(spec, stage shard counts, horizon, seed)` replays bit-identical
/// per-stage [`FaultPlan`]s.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct PipelineFaultSpec {
    /// Stage-scoped scripted windows.
    pub scripted: Vec<StageFault>,
    /// Background per-stage fault mix; `None` injects nothing beyond
    /// the scripted windows.
    pub background: Option<FaultSpec>,
}

impl PipelineFaultSpec {
    /// The empty schedule: every stage gets [`FaultPlan::none`] — the
    /// pipeline's bit-identity fast path.
    pub fn none() -> Self {
        PipelineFaultSpec::default()
    }

    /// A schedule of scripted stage windows only.
    pub fn scripted(scripted: Vec<StageFault>) -> Self {
        PipelineFaultSpec {
            scripted,
            background: None,
        }
    }

    /// Materialize one [`FaultPlan`] per stage, where stage `k` runs
    /// `stage_shards[k]` shard lanes. Background plans are seeded per
    /// stage with the same golden-ratio stride the fleet workload uses
    /// for per-scenario streams, so stages stay decorrelated but
    /// replayable.
    /// Scripted windows naming a stage out of range are dropped.
    pub fn plans(&self, stage_shards: &[usize], horizon_us: f64, seed: u64) -> Vec<FaultPlan> {
        stage_shards
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let mut faults: Vec<Fault> = self
                    .scripted
                    .iter()
                    .filter(|sf| sf.stage == k)
                    .map(|sf| sf.fault)
                    .collect();
                if let Some(spec) = &self.background {
                    let plan = spec.plan(
                        n,
                        horizon_us,
                        seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    faults.extend(plan.faults);
                }
                FaultPlan::scripted(faults)
            })
            .collect()
    }
}

/// A leaky bucket over raw samples (stage failures, epoch shortfall):
/// pressure charges toward each sample with a time constant and leaks
/// back the same way, so a short spike cannot cross a threshold but
/// sustained pressure still does. Deterministic: the value is a pure
/// fold over the (timestamp, sample) pairs its caller feeds it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PressureTracker {
    value: f64,
    last_us: f64,
}

impl PressureTracker {
    /// Fold in `raw` at `now` with time constant `tau_us` and return the
    /// pressure to grade on. Non-finite samples re-seed the bucket
    /// directly — `∞ × decay` would be `NaN`-prone, and an unbounded
    /// sample should cross every threshold immediately — and so does a
    /// `tau_us` of 0 or less.
    pub fn observe(&mut self, now: f64, raw: f64, tau_us: f64) -> f64 {
        if !raw.is_finite() || !self.value.is_finite() || tau_us <= 0.0 {
            self.value = raw;
        } else {
            let dt = (now - self.last_us).max(0.0);
            let alpha = 1.0 - (-dt / tau_us).exp();
            self.value += (raw - self.value) * alpha;
        }
        self.last_us = now;
        self.value
    }

    /// The current pressure without folding in a new sample.
    pub fn value(&self) -> f64 {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(shard: usize, start: f64, end: f64) -> Fault {
        Fault {
            start_us: start,
            end_us: end,
            kind: FaultKind::Crash { shard },
        }
    }

    #[test]
    fn scripted_plans_sort_and_drop_empty_windows() {
        let plan = FaultPlan::scripted(vec![
            crash(1, 500.0, 900.0),
            crash(0, 100.0, 100.0), // empty, dropped
            Fault {
                start_us: 50.0,
                end_us: 200.0,
                kind: FaultKind::Stall { shard: 2 },
            },
        ]);
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].start_us, 50.0);
        assert_eq!(plan.transitions(), vec![50.0, 200.0, 500.0, 900.0]);
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::scripted(vec![crash(0, 100.0, 200.0)]);
        assert!(!plan.crashed(0, 99.9));
        assert!(plan.crashed(0, 100.0));
        assert!(plan.crashed(0, 199.9));
        assert!(!plan.crashed(0, 200.0), "faults clear at their end stamp");
        assert!(!plan.crashed(1, 150.0), "other shards unaffected");
        assert!(plan.any_active(150.0));
        assert!(!plan.any_active(250.0));
    }

    #[test]
    fn rates_compose_and_stall_dominates() {
        let plan = FaultPlan::scripted(vec![
            Fault {
                start_us: 0.0,
                end_us: 100.0,
                kind: FaultKind::Slowdown {
                    shard: 0,
                    rate: 0.5,
                },
            },
            Fault {
                start_us: 50.0,
                end_us: 100.0,
                kind: FaultKind::Slowdown {
                    shard: 0,
                    rate: 0.5,
                },
            },
            Fault {
                start_us: 80.0,
                end_us: 90.0,
                kind: FaultKind::Stall { shard: 0 },
            },
        ]);
        assert_eq!(plan.rate_of(0, 10.0), 0.5);
        assert_eq!(plan.rate_of(0, 60.0), 0.25, "slowdowns compose");
        assert_eq!(plan.rate_of(0, 85.0), 0.0, "stall wins");
        assert_eq!(plan.rate_of(1, 60.0), 1.0, "other shards healthy");
        assert_eq!(plan.rate_of(0, 150.0), 1.0, "clears after the window");
    }

    #[test]
    fn link_factor_composes_and_defaults_to_one() {
        let plan = FaultPlan::scripted(vec![
            Fault {
                start_us: 0.0,
                end_us: 100.0,
                kind: FaultKind::LinkDegrade { factor: 4.0 },
            },
            Fault {
                start_us: 50.0,
                end_us: 150.0,
                kind: FaultKind::LinkDegrade { factor: 2.0 },
            },
        ]);
        assert_eq!(plan.link_factor(10.0), 4.0);
        assert_eq!(plan.link_factor(75.0), 8.0);
        assert_eq!(plan.link_factor(120.0), 2.0);
        assert_eq!(plan.link_factor(200.0), 1.0);
    }

    #[test]
    fn downtime_merges_overlaps_and_clips_to_the_run() {
        let plan = FaultPlan::scripted(vec![
            crash(0, 100.0, 300.0),
            Fault {
                start_us: 200.0,
                end_us: 400.0,
                kind: FaultKind::Stall { shard: 0 },
            },
            crash(0, 1000.0, 2000.0),
        ]);
        // [100, 400) merged = 300, plus [1000, 1200) clipped = 200.
        assert!((plan.downtime_us(0, 1200.0) - 500.0).abs() < 1e-9);
        assert_eq!(plan.downtime_us(1, 1200.0), 0.0);
    }

    #[test]
    fn seeded_plans_replay_bit_for_bit() {
        let spec = FaultSpec::mixed(2_000.0, 1_500.0);
        let a = spec.plan(4, 20_000.0, 7);
        let b = spec.plan(4, 20_000.0, 7);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "20k µs horizon at 2k µs cadence must fault");
        assert_ne!(a, spec.plan(4, 20_000.0, 8), "different seed differs");
        for f in &a.faults {
            assert!(f.end_us > f.start_us);
            assert!(f.start_us < 20_000.0);
            if let Some(s) = f.kind.shard() {
                assert!(s < 4);
            }
        }
    }

    #[test]
    fn hostile_fault_specs_draw_a_bounded_plan() {
        // A gap that is not finite and positive, or an infinite horizon,
        // draws no faults.
        for (gap, horizon) in [
            (0.0, 1_000.0),
            (-5.0, 1_000.0),
            (f64::NAN, 1_000.0),
            (f64::INFINITY, 1_000.0),
            (100.0, f64::INFINITY),
        ] {
            let plan = FaultSpec::mixed(gap, 100.0).plan(2, horizon, 1);
            assert!(plan.is_empty(), "gap {gap}, horizon {horizon}");
        }
        // A 1e-300 µs gap passes 1 000 µs only after about 1e303 draws.
        let dense = FaultSpec::mixed(1e-300, 100.0).plan(2, 1_000.0, 1);
        assert_eq!(dense.faults.len(), MAX_FAULTS);
    }

    #[test]
    fn leaky_bucket_rejects_spikes_but_tracks_sustained_pressure() {
        let tau = 100_000.0;
        let mut tracker = PressureTracker::default();
        // A 1 ms spike against a 100 ms time constant charges ~1%.
        let after_spike = tracker.observe(1_000.0, 10_000.0, tau);
        assert!(
            after_spike < 0.02 * 10_000.0,
            "spike must barely charge the bucket: {after_spike}"
        );
        // Sustained pressure converges onto the raw backlog.
        let mut p = after_spike;
        for k in 1..=20 {
            p = tracker.observe(1_000.0 + k as f64 * 50_000.0, 10_000.0, tau);
        }
        assert!(p > 0.99 * 10_000.0, "sustained pressure must converge: {p}");
        // And leaks back out once the backlog clears.
        let drained = tracker.observe(2_000_000.0, 0.0, tau);
        assert!(drained < 10.0, "bucket must leak: {drained}");
    }

    #[test]
    fn leaky_bucket_reseeds_on_infinite_backlog() {
        let tau = 100_000.0;
        let mut tracker = PressureTracker::default();
        tracker.observe(0.0, 100.0, tau);
        // A stalled lane is infinitely backlogged: the ladder must max
        // out immediately, not after a NaN-polluted decay.
        assert_eq!(tracker.observe(1.0, f64::INFINITY, tau), f64::INFINITY);
        // Recovery re-seeds cleanly from the next finite sample.
        let back = tracker.observe(2.0, 500.0, tau);
        assert_eq!(back, 500.0);
        assert!(tracker.value().is_finite());
    }

    fn outage(class: usize, start: f64, end: f64) -> ClassFaultWindow {
        ClassFaultWindow {
            class,
            kind: ClassFaultKind::Outage,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn empty_fleet_plan_expands_to_empty_class_plans() {
        let plan = FleetFaultPlan::default();
        assert!(plan.class_windows.is_empty());
        for class in 0..3 {
            assert!(plan.class_plan(class, 4).is_empty());
        }
        assert!(!plan.outage_active(0, 0.0));
        assert_eq!(plan.outage_downtime_us(0, 1e9), 0.0);
    }

    #[test]
    fn class_outage_expands_to_crashes_on_every_lane_of_the_class() {
        let plan = FleetFaultPlan::scripted(vec![
            outage(1, 1_000.0, 2_000.0),
            ClassFaultWindow {
                class: 0,
                kind: ClassFaultKind::Brownout { rate: 0.25 },
                start_us: 500.0,
                end_us: 800.0,
            },
            outage(0, 300.0, 300.0), // empty, dropped
        ]);
        assert_eq!(plan.class_windows.len(), 2, "empty windows are dropped");
        assert_eq!(plan.class_windows[0].start_us, 500.0, "sorted by start");

        // A member on class 1 sees a crash on each of its lanes.
        let on_hit = plan.class_plan(1, 2);
        assert_eq!(on_hit.faults.len(), 2);
        assert!(on_hit.crashed(0, 1_500.0) && on_hit.crashed(1, 1_500.0));
        assert!(!on_hit.crashed(0, 2_000.0), "windows stay half-open");

        // The same member pinned to class 0 instead sees the brownout.
        let on_other = plan.class_plan(0, 2);
        assert_eq!(on_other.rate_of(0, 600.0), 0.25);
        assert!(!on_other.crashed(0, 1_500.0));

        // Outage queries are class- and kind-scoped.
        assert!(plan.outage_active(1, 1_000.0));
        assert!(!plan.outage_active(1, 2_000.0));
        assert!(!plan.outage_active(0, 600.0), "brownout is not an outage");
        assert!(plan.outage_overlaps(1, 1_900.0, 5_000.0));
        assert!(!plan.outage_overlaps(1, 2_000.0, 5_000.0));
        assert_eq!(plan.outage_downtime_us(1, 1_600.0), 600.0);
    }
}
