//! The schedule-lifecycle state machine.
//!
//! The paper's online story (Section VI-C) makes drift trigger a
//! background retune whose schedule is hot-swapped in — but a real
//! autotuner is fallible: compilation of the winning schedule can fail,
//! the search can hang, and single-candidate measurements taken under
//! the interference effects of Sections III–IV can crown a schedule that
//! is *slower* than the incumbent. Production serving stacks gate model
//! pushes behind validation for exactly this reason. This module makes
//! the retune pipeline a supervised, replayable state machine:
//!
//! ```text
//!            drift fires                retune completes
//!  Steady ───────────────▶ Retuning ───────────────────▶ Canary
//!    ▲                        │ compile-fail /              │
//!    │                        │ stall past deadline         │ window decided
//!    │                        ▼                             ▼
//!    │◀── cooldown ── Backoff ◀──────────────── rolled back (lost) /
//!    │    expires       │  next attempt          Rollout (won, staged
//!    │                  ▼                        shard-by-shard)
//!    └───────────── give up after                      │
//!                   bounded attempts            Promoted (version += 1)
//! ```
//!
//! * every attempt's outcome is drawn from a seeded [`OutcomePlan`]
//!   (mirroring [`crate::FaultPlan`]), so a flaky-tuner run replays
//!   bit-for-bit,
//! * a successful candidate is **canaried**: it shadow-executes a
//!   configurable fraction of admitted device chunks (simulated cost
//!   accounted, results unused) and is promoted only if its measured
//!   device time beats the incumbent by a configurable margin over the
//!   canary window — otherwise it is rolled back,
//! * failures and rollbacks feed a bounded retry schedule with
//!   exponential backoff, and a cooldown after every episode keeps
//!   drift re-fires from thrashing retunes,
//! * in the sharded tier a winning canary is promoted *staged*,
//!   shard-by-shard; any regression observed at a rollout step rolls
//!   every shard back to the incumbent.
//!
//! With the default [`LifecycleConfig`] — every outcome a success, no
//! canary, no cooldown — the machine walks Steady → Retuning → Promoted
//! with the exact timestamps of the old unconditional hot swap, so the
//! no-failure path is bit-identical to the pre-lifecycle runtime.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use recflex_baselines::{Backend, BackendError, BackendRun, CostReport};
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::TableSet;
use recflex_sim::GpuArch;

/// What one retune attempt turns out to be.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum RetuneOutcome {
    /// The tuner returns a working engine that performs as measured.
    Success,
    /// The winning schedule fails to compile; no engine materializes.
    /// Resolves at the retune latency (the failure is discovered when
    /// the build finishes).
    CompileFail,
    /// The tuner hangs. The attempt resolves only when the configured
    /// [`LifecycleConfig::retune_deadline_us`] watchdog abandons it;
    /// without a deadline the attempt is wedged forever, exactly like a
    /// hung tuner with no watchdog.
    Stall,
    /// The tuner returns an engine, but interference-polluted
    /// measurements picked a schedule `slowdown`× slower than claimed.
    Regression {
        /// Device-time multiplier the regressed engine actually costs
        /// (≥ 1).
        slowdown: f64,
    },
}

/// A replayable schedule of per-attempt retune outcomes — the lifecycle
/// analogue of [`crate::FaultPlan`]. The k-th retune attempt of a run
/// (0-based, across episodes) draws `outcomes[k]`; attempts past the end
/// of the list succeed, so the empty plan ([`OutcomePlan::none`]) is the
/// infallible tuner the pre-lifecycle runtime assumed.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct OutcomePlan {
    /// Outcome of each attempt, in attempt order.
    pub outcomes: Vec<RetuneOutcome>,
}

impl OutcomePlan {
    /// The empty plan: every retune succeeds.
    pub fn none() -> Self {
        OutcomePlan::default()
    }

    /// A hand-written plan.
    pub fn scripted(outcomes: Vec<RetuneOutcome>) -> Self {
        OutcomePlan { outcomes }
    }

    /// The outcome of the `attempt`-th retune (0-based).
    pub fn outcome_of(&self, attempt: u32) -> RetuneOutcome {
        self.outcomes
            .get(attempt as usize)
            .copied()
            .unwrap_or(RetuneOutcome::Success)
    }

    /// True when no attempt can fail.
    pub fn is_all_success(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| matches!(o, RetuneOutcome::Success))
    }
}

/// The statistical shape of a seeded outcome schedule — the lifecycle
/// analogue of [`crate::FaultSpec`]. Outcomes are drawn independently
/// per attempt by weight; identical `(spec, attempts, seed)` replays a
/// bit-identical [`OutcomePlan`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OutcomeSpec {
    /// Relative draw weight of a clean success.
    pub success_weight: f64,
    /// Relative draw weight of a compile failure.
    pub compile_fail_weight: f64,
    /// Relative draw weight of a stalled tuner.
    pub stall_weight: f64,
    /// Relative draw weight of a regressed engine.
    pub regression_weight: f64,
    /// Device-time multiplier a regressed engine costs (≥ 1).
    pub regression_slowdown: f64,
}

impl OutcomeSpec {
    /// A tuner that mostly works but exhibits every failure mode.
    pub fn flaky() -> Self {
        OutcomeSpec {
            success_weight: 5.0,
            compile_fail_weight: 1.0,
            stall_weight: 1.0,
            regression_weight: 2.0,
            regression_slowdown: 3.0,
        }
    }

    /// Draw the outcome of the first `attempts` retunes from `seed`.
    /// Identical arguments produce byte-identical plans.
    pub fn plan(&self, attempts: usize, seed: u64) -> OutcomePlan {
        let total = self.success_weight
            + self.compile_fail_weight
            + self.stall_weight
            + self.regression_weight;
        if total <= 0.0 {
            return OutcomePlan::none();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0011_FEC7_C1E5);
        let outcomes = (0..attempts)
            .map(|_| {
                let pick = rng.gen_range(0.0..total);
                if pick < self.success_weight {
                    RetuneOutcome::Success
                } else if pick < self.success_weight + self.compile_fail_weight {
                    RetuneOutcome::CompileFail
                } else if pick < self.success_weight + self.compile_fail_weight + self.stall_weight
                {
                    RetuneOutcome::Stall
                } else {
                    RetuneOutcome::Regression {
                        slowdown: self.regression_slowdown.max(1.0),
                    }
                }
            })
            .collect();
        OutcomePlan::scripted(outcomes)
    }
}

/// How a successful candidate must prove itself before promotion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanaryConfig {
    /// Fraction of admitted device chunks the candidate shadow-executes,
    /// in `(0, 1]`. Shadow cost is accounted in
    /// [`LifecycleStats::canary_overhead_us`], never submitted to the
    /// device, so canarying does not perturb serving latencies.
    pub shadow_fraction: f64,
    /// Shadowed chunks that make one canary verdict (≥ 1).
    pub window: usize,
    /// Relative device-time margin the candidate must win by:
    /// promoted iff `candidate ≤ incumbent × (1 − margin)` summed over
    /// the window (0.0 promotes on a tie — two identical engines pass).
    pub min_win_margin: f64,
    /// Split-traffic canarying: when `true`, the canaried fraction of
    /// chunks is **served by the candidate** — its device time enters
    /// the real queue (actual queueing, not side-by-side shadow cost)
    /// and the incumbent's cost for the same chunk becomes the free
    /// comparator. `false` (the default) keeps the original shadow
    /// mode, where the candidate's cost is accounted but never queued,
    /// so default configs replay bit-identically.
    pub split_traffic: bool,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig {
            shadow_fraction: 0.25,
            window: 8,
            min_win_margin: 0.0,
            split_traffic: false,
        }
    }
}

/// Retry-with-backoff and hysteresis against retune thrash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts allowed per drift episode (≥ 1) before giving up.
    pub max_attempts: u32,
    /// Backoff before the retry after the first failure, µs.
    pub base_backoff_us: f64,
    /// Backoff growth per consecutive failure (exponential).
    pub backoff_multiplier: f64,
    /// After a promotion, a rollback that exhausted the episode, or a
    /// give-up: drift fires are ignored for this long. Zero keeps the
    /// pre-lifecycle behavior where a fresh drift verdict may retune
    /// immediately.
    pub cooldown_us: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 5_000.0,
            backoff_multiplier: 2.0,
            cooldown_us: 0.0,
        }
    }
}

/// Full lifecycle configuration. The default — all-success outcomes, no
/// canary, zero cooldown, no deadline — reproduces the pre-lifecycle
/// blind hot swap bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LifecycleConfig {
    /// Per-attempt outcomes; default all-success.
    pub outcomes: OutcomePlan,
    /// Canarying; `None` installs a completed retune unconditionally
    /// (the pre-lifecycle blind swap).
    pub canary: Option<CanaryConfig>,
    /// Retry/backoff/cooldown schedule.
    pub retry: RetryPolicy,
    /// Watchdog for a retune attempt, µs after launch: an attempt still
    /// unresolved then (a stalled tuner, or a build outliving its
    /// budget) is abandoned. `None` trusts the tuner to return.
    pub retune_deadline_us: Option<f64>,
}

impl LifecycleConfig {
    /// True when the machinery cannot alter the blind-swap path: every
    /// outcome succeeds and no canary gates promotion.
    pub fn is_blind_swap(&self) -> bool {
        self.outcomes.is_all_success() && self.canary.is_none()
    }
}

/// Why a retune attempt died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FailReason {
    /// The winning schedule failed to compile.
    CompileFail,
    /// The watchdog abandoned the attempt at the deadline.
    StallAbandoned,
    /// The canary measured the candidate slower than the incumbent (or
    /// the candidate refused a shadow batch).
    CanaryRegression,
}

/// One entry of the lifecycle trace. The trace is part of the report, so
/// replay tests can assert two runs of the same seed walked the same
/// machine path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum LifecycleEvent {
    /// Attempt `attempt` (1-based, across episodes) launched.
    RetuneStarted {
        /// Launch timestamp, µs.
        t_us: f64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// Attempt `attempt` died without a canary verdict.
    RetuneFailed {
        /// Failure timestamp, µs.
        t_us: f64,
        /// 1-based attempt number.
        attempt: u32,
        /// What killed it.
        reason: FailReason,
    },
    /// The candidate of attempt `attempt` entered its canary.
    CanaryStarted {
        /// Canary start timestamp, µs.
        t_us: f64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The canary lost (or a rollout step regressed): every promoted
    /// shard was restored to the incumbent.
    RolledBack {
        /// Rollback timestamp, µs.
        t_us: f64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// One shard switched to the candidate during a staged rollout.
    ShardPromoted {
        /// Promotion timestamp, µs.
        t_us: f64,
        /// The shard that switched.
        shard: usize,
    },
    /// The candidate became the incumbent on every shard.
    Promoted {
        /// Promotion timestamp, µs.
        t_us: f64,
        /// The engine version now serving (starts at 0, +1 per
        /// promotion).
        version: u32,
    },
    /// The episode exhausted its attempt budget.
    GaveUp {
        /// Give-up timestamp, µs.
        t_us: f64,
        /// Attempts the episode burned.
        attempts: u32,
    },
}

/// How one tuning run was produced — reported by retuners that tune
/// through the profile vault, aggregated into [`LifecycleStats`] and
/// surfaced per fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EngineTuning {
    /// Whether the run warm-started from a stored vault profile.
    pub warm_started: bool,
    /// Kernel launches the tuning run cost.
    pub tuner_evaluations: u64,
}

/// Lifecycle counters, reported per run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct LifecycleStats {
    /// Retune attempts launched (all episodes).
    pub retunes_attempted: u32,
    /// Attempts that died before a canary verdict (compile fail, stall).
    pub retunes_failed: u32,
    /// Candidates rolled back by the canary or a rollout recheck.
    pub retunes_rolled_back: u32,
    /// Candidates promoted to incumbent.
    pub retunes_promoted: u32,
    /// Device chunks the candidate shadow-executed.
    pub canary_shadow_chunks: u64,
    /// Simulated device time spent on shadow execution, µs (accounted,
    /// never submitted — canarying does not perturb serving latencies).
    pub canary_overhead_us: f64,
    /// The engine version serving at the end of the run (0 = the engine
    /// the runtime was built with).
    pub engine_version: u32,
    /// Kernel launches spent across every tuning run reported to this
    /// machine (zero when the retuner does not report tuning costs).
    pub tuner_evaluations: u64,
    /// Tuning runs that warm-started from a stored vault profile.
    pub warm_starts: u32,
}

/// The timing skeleton of a staged rollout, extracted from the §8f
/// shard-by-shard promotion machinery so other controllers (the fleet
/// elasticity drain in [`crate::elastic`]) can stage *their* multi-step
/// transitions on the same abortable cadence: `stages` steps starting
/// at `start_us`, spaced `stagger_us` apart. Step `k` commits at
/// [`stage_us(k)`](Self::stage_us); the whole transition is complete at
/// [`complete_us`](Self::complete_us). A controller that checks each
/// stage timestamp against an abort predicate before committing gets
/// exactly the lifecycle rollout's abort semantics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct StagedSchedule {
    /// When stage 0 commits, µs.
    pub start_us: f64,
    /// Number of stages (shards to drain, lanes to promote, …).
    pub stages: usize,
    /// Gap between consecutive stages, µs.
    pub stagger_us: f64,
}

impl StagedSchedule {
    /// A schedule of `stages` steps from `start_us`, `stagger_us`
    /// apart. Negative staggers collapse to zero (all stages commit at
    /// `start_us`, like a single-shard rollout).
    pub fn new(start_us: f64, stages: usize, stagger_us: f64) -> Self {
        StagedSchedule {
            start_us,
            stages: stages.max(1),
            stagger_us: stagger_us.max(0.0),
        }
    }

    /// The timestamp stage `k` commits at.
    pub fn stage_us(&self, k: usize) -> f64 {
        self.start_us + self.stagger_us * k as f64
    }

    /// When the final stage has committed.
    pub fn complete_us(&self) -> f64 {
        self.stage_us(self.stages - 1)
    }
}

/// What the runtime must do when a lifecycle timer fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerAction {
    /// An uncanaried retune completed: install the candidate on every
    /// shard now (the blind swap).
    PromoteAll,
    /// The retune completed and canarying is on: keep the candidate
    /// shadowing; promotion is decided by canary observations.
    BeginCanary,
    /// The attempt failed (compile fail or stall): drop the candidate.
    /// Any retry is scheduled internally.
    DropCandidate,
    /// Backoff expired: launch the next retune attempt.
    Retry,
    /// Staged rollout: switch this shard to the candidate now.
    PromoteShard(usize),
    /// A rollout recheck regressed: restore the incumbent on every
    /// promoted shard and drop the candidate.
    RollBackAll,
    /// No timer was actually due.
    Noop,
}

/// The verdict of one canary observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CanaryVerdict {
    /// The window is still filling.
    Pending,
    /// The candidate won; a staged rollout begins (promotions arrive as
    /// [`TimerAction::PromoteShard`] timer events).
    Promote,
    /// The candidate lost: restore every promoted shard and drop it.
    RollBack,
}

/// How an in-flight attempt resolves.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Resolution {
    /// The tuner returns a candidate at this timestamp.
    Succeeds(f64),
    /// The build fails at this timestamp.
    FailsCompile(f64),
    /// The tuner never returns; only the deadline resolves it.
    Stalls,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Steady,
    Cooldown {
        until_us: f64,
    },
    Backoff {
        until_us: f64,
    },
    Retuning {
        resolution: Resolution,
        deadline_us: f64,
    },
    Canary {
        incumbent_us: Vec<f64>,
        candidate_us: Vec<f64>,
        observed: usize,
    },
    Rollout {
        incumbent_us: Vec<f64>,
        candidate_us: Vec<f64>,
        /// Shards `0..next_shard` already run the candidate.
        next_shard: usize,
        next_at_us: f64,
    },
}

/// The deterministic lifecycle driver. The runtime owns the engines; the
/// machine owns the state, timers, counters and trace, and tells the
/// runtime what to do via [`TimerAction`] and [`CanaryVerdict`].
#[derive(Debug, Clone)]
pub struct LifecycleMachine {
    config: LifecycleConfig,
    retune_latency_us: f64,
    /// Gap between consecutive shard promotions in a staged rollout, µs.
    stagger_us: f64,
    num_shards: usize,
    state: State,
    stats: LifecycleStats,
    trace: Vec<LifecycleEvent>,
    /// Attempts burned in the current episode.
    episode_attempts: u32,
    /// Deterministic fraction sampler for shadow execution.
    shadow_acc: f64,
}

impl LifecycleMachine {
    /// A machine driving `num_shards` engine slots. `stagger_us` spaces
    /// the per-shard promotions of a staged rollout (irrelevant with one
    /// shard).
    pub fn new(
        config: LifecycleConfig,
        retune_latency_us: f64,
        num_shards: usize,
        stagger_us: f64,
    ) -> Self {
        LifecycleMachine {
            config,
            retune_latency_us,
            stagger_us: stagger_us.max(0.0),
            num_shards: num_shards.max(1),
            state: State::Steady,
            stats: LifecycleStats::default(),
            trace: Vec::new(),
            episode_attempts: 0,
            shadow_acc: 0.0,
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> LifecycleStats {
        self.stats
    }

    /// Record how a tuning run was produced (vault-aware retuners only).
    pub fn record_tuning(&mut self, tuning: EngineTuning) {
        self.stats.tuner_evaluations += tuning.tuner_evaluations;
        if tuning.warm_started {
            self.stats.warm_starts += 1;
        }
    }

    /// The trace so far.
    pub fn trace(&self) -> &[LifecycleEvent] {
        &self.trace
    }

    /// Consume the machine into its report fields.
    pub fn into_parts(self) -> (LifecycleStats, Vec<LifecycleEvent>) {
        (self.stats, self.trace)
    }

    /// The next timestamp at which [`Self::on_timer`] must run, if any.
    pub fn next_timer_us(&self) -> Option<f64> {
        match &self.state {
            State::Retuning {
                resolution,
                deadline_us,
            } => match *resolution {
                Resolution::Succeeds(at) | Resolution::FailsCompile(at) => {
                    Some(at.min(*deadline_us))
                }
                Resolution::Stalls => deadline_us.is_finite().then_some(*deadline_us),
            },
            State::Backoff { until_us } => Some(*until_us),
            State::Rollout { next_at_us, .. } => Some(*next_at_us),
            State::Steady | State::Cooldown { .. } | State::Canary { .. } => None,
        }
    }

    /// Whether a drift verdict at `now` should launch a retune. True
    /// only in steady state; an in-flight attempt, canary, backoff or
    /// cooldown absorbs the fire (the hysteresis that keeps drift
    /// re-fires from thrashing retunes). Lazily expires the cooldown.
    pub fn wants_drift_retune(&mut self, now: f64) -> bool {
        if let State::Cooldown { until_us } = self.state {
            if now >= until_us {
                self.state = State::Steady;
            }
        }
        matches!(self.state, State::Steady)
    }

    /// Launch a retune attempt at `now` and return its (injected)
    /// outcome so the caller can build — or not build — the candidate:
    /// [`RetuneOutcome::Success`] and [`RetuneOutcome::Regression`]
    /// produce an engine (wrap the latter in [`RegressedBackend`]);
    /// compile failures and stalls produce none.
    pub fn begin_attempt(&mut self, now: f64) -> RetuneOutcome {
        let outcome = self
            .config
            .outcomes
            .outcome_of(self.stats.retunes_attempted);
        self.stats.retunes_attempted += 1;
        self.episode_attempts += 1;
        self.trace.push(LifecycleEvent::RetuneStarted {
            t_us: now,
            attempt: self.stats.retunes_attempted,
        });
        let deadline_us = now + self.config.retune_deadline_us.unwrap_or(f64::INFINITY);
        let resolution = match outcome {
            RetuneOutcome::Success | RetuneOutcome::Regression { .. } => {
                Resolution::Succeeds(now + self.retune_latency_us)
            }
            RetuneOutcome::CompileFail => Resolution::FailsCompile(now + self.retune_latency_us),
            RetuneOutcome::Stall => Resolution::Stalls,
        };
        self.state = State::Retuning {
            resolution,
            deadline_us,
        };
        outcome
    }

    /// Advance the machine at a due timer.
    pub fn on_timer(&mut self, now: f64) -> TimerAction {
        match self.state.clone() {
            State::Retuning {
                resolution,
                deadline_us,
            } => match resolution {
                Resolution::Succeeds(at) if at <= deadline_us && now >= at => {
                    if self.config.canary.is_some() {
                        self.shadow_acc = 0.0;
                        self.trace.push(LifecycleEvent::CanaryStarted {
                            t_us: now,
                            attempt: self.stats.retunes_attempted,
                        });
                        self.state = State::Canary {
                            incumbent_us: vec![0.0; self.num_shards],
                            candidate_us: vec![0.0; self.num_shards],
                            observed: 0,
                        };
                        TimerAction::BeginCanary
                    } else {
                        self.promote(now);
                        TimerAction::PromoteAll
                    }
                }
                Resolution::FailsCompile(at) if at <= deadline_us && now >= at => {
                    self.conclude_failure(now, FailReason::CompileFail);
                    TimerAction::DropCandidate
                }
                _ if now >= deadline_us => {
                    self.conclude_failure(now, FailReason::StallAbandoned);
                    TimerAction::DropCandidate
                }
                _ => TimerAction::Noop,
            },
            State::Backoff { until_us } if now >= until_us => TimerAction::Retry,
            State::Rollout {
                incumbent_us,
                candidate_us,
                next_shard,
                next_at_us,
            } if now >= next_at_us => {
                // Recheck before every step: a regression observed since
                // the verdict (shadowing continues on unpromoted shards)
                // aborts the rollout.
                if !shard_wins(
                    &incumbent_us,
                    &candidate_us,
                    next_shard,
                    self.canary_margin(),
                ) {
                    self.roll_back(now);
                    return TimerAction::RollBackAll;
                }
                self.trace.push(LifecycleEvent::ShardPromoted {
                    t_us: now,
                    shard: next_shard,
                });
                if next_shard + 1 == self.num_shards {
                    self.promote(now);
                } else {
                    self.state = State::Rollout {
                        incumbent_us,
                        candidate_us,
                        next_shard: next_shard + 1,
                        next_at_us: now + self.stagger_us,
                    };
                }
                TimerAction::PromoteShard(next_shard)
            }
            _ => TimerAction::Noop,
        }
    }

    /// Whether the machine is in a phase where the candidate shadows
    /// admitted chunks (canary window or staged rollout).
    pub fn in_canary(&self) -> bool {
        matches!(self.state, State::Canary { .. } | State::Rollout { .. })
    }

    /// Shards already switched to the candidate (`0..k` during a staged
    /// rollout, else 0).
    pub fn promoted_shards(&self) -> usize {
        match self.state {
            State::Rollout { next_shard, .. } => next_shard,
            _ => 0,
        }
    }

    /// Whether canaried chunks are routed to the candidate under real
    /// queueing ([`CanaryConfig::split_traffic`]) instead of
    /// shadow-executed side-by-side.
    pub fn split_traffic(&self) -> bool {
        self.config.canary.is_some_and(|c| c.split_traffic)
    }

    /// Deterministically sample whether the next admitted chunk is
    /// shadowed (an accumulator over the configured fraction).
    pub fn should_shadow(&mut self) -> bool {
        if !self.in_canary() {
            return false;
        }
        let fraction = self
            .config
            .canary
            .map(|c| c.shadow_fraction.clamp(0.0, 1.0))
            .unwrap_or(0.0);
        self.shadow_acc += fraction;
        if self.shadow_acc >= 1.0 - 1e-9 {
            self.shadow_acc -= 1.0;
            true
        } else {
            false
        }
    }

    /// Record one shadowed chunk: per-shard device time of the incumbent
    /// and the candidate (promoted shards contribute zeros). Returns the
    /// verdict once the canary window fills; during a rollout the sums
    /// keep accumulating and the verdict is re-checked at each
    /// promotion step instead.
    pub fn observe_canary(
        &mut self,
        now: f64,
        incumbent_us: &[f64],
        candidate_us: &[f64],
    ) -> CanaryVerdict {
        let margin = self.canary_margin();
        let window = self.config.canary.map(|c| c.window.max(1)).unwrap_or(1);
        match &mut self.state {
            State::Canary {
                incumbent_us: inc,
                candidate_us: cand,
                observed,
            } => {
                accumulate(inc, incumbent_us);
                accumulate(cand, candidate_us);
                *observed += 1;
                self.stats.canary_shadow_chunks += 1;
                self.stats.canary_overhead_us += candidate_us.iter().sum::<f64>();
                if *observed < window {
                    return CanaryVerdict::Pending;
                }
                let all_win = (0..self.num_shards).all(|s| shard_wins(inc, cand, s, margin));
                if all_win {
                    self.state = State::Rollout {
                        incumbent_us: std::mem::take(inc),
                        candidate_us: std::mem::take(cand),
                        next_shard: 0,
                        next_at_us: now,
                    };
                    CanaryVerdict::Promote
                } else {
                    self.roll_back(now);
                    CanaryVerdict::RollBack
                }
            }
            State::Rollout {
                incumbent_us: inc,
                candidate_us: cand,
                ..
            } => {
                accumulate(inc, incumbent_us);
                accumulate(cand, candidate_us);
                self.stats.canary_shadow_chunks += 1;
                self.stats.canary_overhead_us += candidate_us.iter().sum::<f64>();
                CanaryVerdict::Pending
            }
            _ => CanaryVerdict::Pending,
        }
    }

    /// Abort the canary/rollout immediately (e.g. the candidate refused
    /// a shadow batch). No-op outside a canary phase.
    pub fn force_rollback(&mut self, now: f64) {
        if self.in_canary() {
            self.roll_back(now);
        }
    }

    fn canary_margin(&self) -> f64 {
        self.config
            .canary
            .map(|c| c.min_win_margin.clamp(0.0, 1.0))
            .unwrap_or(0.0)
    }

    fn promote(&mut self, now: f64) {
        self.stats.retunes_promoted += 1;
        self.stats.engine_version += 1;
        self.trace.push(LifecycleEvent::Promoted {
            t_us: now,
            version: self.stats.engine_version,
        });
        self.end_episode(now);
    }

    fn roll_back(&mut self, now: f64) {
        self.stats.retunes_rolled_back += 1;
        self.trace.push(LifecycleEvent::RolledBack {
            t_us: now,
            attempt: self.stats.retunes_attempted,
        });
        self.retry_or_give_up(now);
    }

    fn conclude_failure(&mut self, now: f64, reason: FailReason) {
        self.stats.retunes_failed += 1;
        self.trace.push(LifecycleEvent::RetuneFailed {
            t_us: now,
            attempt: self.stats.retunes_attempted,
            reason,
        });
        self.retry_or_give_up(now);
    }

    fn retry_or_give_up(&mut self, now: f64) {
        let retry = self.config.retry;
        if self.episode_attempts < retry.max_attempts.max(1) {
            let exponent = self.episode_attempts.saturating_sub(1);
            let backoff = retry.base_backoff_us.max(0.0)
                * retry.backoff_multiplier.max(1.0).powi(exponent as i32);
            self.state = State::Backoff {
                until_us: now + backoff,
            };
        } else {
            self.trace.push(LifecycleEvent::GaveUp {
                t_us: now,
                attempts: self.episode_attempts,
            });
            self.end_episode(now);
        }
    }

    fn end_episode(&mut self, now: f64) {
        self.episode_attempts = 0;
        let cooldown = self.config.retry.cooldown_us.max(0.0);
        self.state = if cooldown > 0.0 {
            State::Cooldown {
                until_us: now + cooldown,
            }
        } else {
            State::Steady
        };
    }
}

fn accumulate(sums: &mut [f64], xs: &[f64]) {
    for (s, &x) in sums.iter_mut().zip(xs) {
        *s += x;
    }
}

/// Whether the candidate wins shard `s`: summed candidate device time at
/// or below the incumbent's, less the margin. Empty sums (a shard with
/// zero-cost shadow chunks) count as a win.
fn shard_wins(incumbent_us: &[f64], candidate_us: &[f64], s: usize, margin: f64) -> bool {
    candidate_us[s] <= incumbent_us[s] * (1.0 - margin)
}

/// A tuner-produced engine whose real device time is `slowdown`× what
/// the tuner measured — the [`RetuneOutcome::Regression`] failure mode
/// made executable, so a blind swap demonstrably serves slower while a
/// canary catches it.
pub struct RegressedBackend {
    inner: Box<dyn Backend>,
    slowdown: f64,
}

impl RegressedBackend {
    /// Wrap `inner`, stretching its latency by `slowdown` (clamped ≥ 1).
    pub fn new(inner: Box<dyn Backend>, slowdown: f64) -> Self {
        RegressedBackend {
            inner,
            slowdown: slowdown.max(1.0),
        }
    }
}

impl Backend for RegressedBackend {
    fn name(&self) -> &'static str {
        "Regressed"
    }

    fn supports(&self, model: &ModelConfig) -> bool {
        self.inner.supports(model)
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let mut run = self.inner.run(model, tables, batch, arch)?;
        run.latency_us *= self.slowdown;
        Ok(run)
    }

    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        let mut cost = self.inner.cost(model, tables, batch, arch)?;
        cost.latency_us *= self.slowdown;
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(config: LifecycleConfig) -> LifecycleMachine {
        LifecycleMachine::new(config, 1_000.0, 1, 0.0)
    }

    #[test]
    fn default_config_walks_the_blind_swap_path() {
        let mut m = machine(LifecycleConfig::default());
        assert!(m.wants_drift_retune(0.0));
        assert_eq!(m.begin_attempt(100.0), RetuneOutcome::Success);
        assert!(!m.wants_drift_retune(500.0), "in-flight attempt absorbs");
        assert_eq!(m.next_timer_us(), Some(1_100.0));
        assert_eq!(m.on_timer(1_100.0), TimerAction::PromoteAll);
        let stats = m.stats();
        assert_eq!(stats.retunes_attempted, 1);
        assert_eq!(stats.retunes_promoted, 1);
        assert_eq!(stats.engine_version, 1);
        assert_eq!(stats.retunes_failed, 0);
        assert!(m.wants_drift_retune(1_100.0), "no cooldown by default");
    }

    #[test]
    fn compile_fail_retries_with_exponential_backoff_then_gives_up() {
        let cfg = LifecycleConfig {
            outcomes: OutcomePlan::scripted(vec![RetuneOutcome::CompileFail; 5]),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_us: 1_000.0,
                backoff_multiplier: 2.0,
                cooldown_us: 10_000.0,
            },
            ..Default::default()
        };
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        assert_eq!(m.on_timer(1_000.0), TimerAction::DropCandidate);
        // First failure: backoff = base.
        assert_eq!(m.next_timer_us(), Some(2_000.0));
        assert_eq!(m.on_timer(2_000.0), TimerAction::Retry);
        m.begin_attempt(2_000.0);
        assert_eq!(m.on_timer(3_000.0), TimerAction::DropCandidate);
        // Second failure: backoff doubles.
        assert_eq!(m.next_timer_us(), Some(5_000.0));
        assert_eq!(m.on_timer(5_000.0), TimerAction::Retry);
        m.begin_attempt(5_000.0);
        assert_eq!(m.on_timer(6_000.0), TimerAction::DropCandidate);
        // Third failure exhausts the episode: cooldown, no more timers.
        assert_eq!(m.next_timer_us(), None);
        assert!(!m.wants_drift_retune(10_000.0), "cooling down");
        assert!(m.wants_drift_retune(16_000.0), "cooldown expired");
        let stats = m.stats();
        assert_eq!(stats.retunes_attempted, 3);
        assert_eq!(stats.retunes_failed, 3);
        assert_eq!(stats.retunes_promoted, 0);
        assert_eq!(stats.engine_version, 0);
        assert!(m
            .trace()
            .iter()
            .any(|e| matches!(e, LifecycleEvent::GaveUp { attempts: 3, .. })));
    }

    #[test]
    fn stall_is_abandoned_only_by_the_watchdog() {
        let cfg = LifecycleConfig {
            outcomes: OutcomePlan::scripted(vec![RetuneOutcome::Stall]),
            retune_deadline_us: Some(4_000.0),
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        assert_eq!(m.next_timer_us(), Some(4_000.0), "only the deadline");
        assert_eq!(m.on_timer(4_000.0), TimerAction::DropCandidate);
        assert_eq!(m.stats().retunes_failed, 1);
        assert!(matches!(
            m.trace().last(),
            Some(LifecycleEvent::GaveUp { .. })
        ));
    }

    #[test]
    fn stall_without_a_deadline_wedges_forever() {
        let cfg = LifecycleConfig {
            outcomes: OutcomePlan::scripted(vec![RetuneOutcome::Stall]),
            ..Default::default()
        };
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        assert_eq!(m.next_timer_us(), None, "no watchdog, no timer");
        assert!(!m.wants_drift_retune(1e9), "wedged attempt absorbs drift");
    }

    #[test]
    fn canary_promotes_a_winner_and_rolls_back_a_loser() {
        let cfg = LifecycleConfig {
            canary: Some(CanaryConfig {
                shadow_fraction: 1.0,
                window: 2,
                min_win_margin: 0.0,
                split_traffic: false,
            }),
            ..Default::default()
        };
        // Winner: candidate strictly faster.
        let mut m = machine(cfg.clone());
        m.begin_attempt(0.0);
        assert_eq!(m.on_timer(1_000.0), TimerAction::BeginCanary);
        assert!(m.in_canary());
        assert!(m.should_shadow(), "fraction 1.0 shadows every chunk");
        assert_eq!(
            m.observe_canary(1_100.0, &[10.0], &[8.0]),
            CanaryVerdict::Pending
        );
        assert!(m.should_shadow());
        assert_eq!(
            m.observe_canary(1_200.0, &[10.0], &[8.0]),
            CanaryVerdict::Promote
        );
        assert_eq!(m.next_timer_us(), Some(1_200.0), "rollout starts now");
        assert_eq!(m.on_timer(1_200.0), TimerAction::PromoteShard(0));
        assert_eq!(m.stats().retunes_promoted, 1);
        assert_eq!(m.stats().engine_version, 1);
        assert_eq!(m.stats().canary_shadow_chunks, 2);
        assert!((m.stats().canary_overhead_us - 16.0).abs() < 1e-9);

        // Loser: candidate slower — rolled back, never promoted.
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        m.on_timer(1_000.0);
        m.should_shadow();
        m.observe_canary(1_100.0, &[10.0], &[12.0]);
        m.should_shadow();
        assert_eq!(
            m.observe_canary(1_200.0, &[10.0], &[12.0]),
            CanaryVerdict::RollBack
        );
        assert_eq!(m.stats().retunes_rolled_back, 1);
        assert_eq!(m.stats().engine_version, 0);
    }

    #[test]
    fn win_margin_demands_a_real_improvement() {
        let cfg = LifecycleConfig {
            canary: Some(CanaryConfig {
                shadow_fraction: 1.0,
                window: 1,
                min_win_margin: 0.10,
                split_traffic: false,
            }),
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        m.on_timer(1_000.0);
        m.should_shadow();
        // 5% faster is not 10% faster.
        assert_eq!(
            m.observe_canary(1_100.0, &[100.0], &[95.0]),
            CanaryVerdict::RollBack
        );
    }

    #[test]
    fn staged_rollout_promotes_shard_by_shard_and_aborts_on_regression() {
        let cfg = LifecycleConfig {
            canary: Some(CanaryConfig {
                shadow_fraction: 1.0,
                window: 1,
                min_win_margin: 0.0,
                split_traffic: false,
            }),
            retry: RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        // Clean staged rollout over 3 shards.
        let mut m = LifecycleMachine::new(cfg.clone(), 1_000.0, 3, 500.0);
        m.begin_attempt(0.0);
        m.on_timer(1_000.0);
        m.should_shadow();
        assert_eq!(
            m.observe_canary(1_100.0, &[5.0, 5.0, 5.0], &[4.0, 4.0, 4.0]),
            CanaryVerdict::Promote
        );
        assert_eq!(m.on_timer(1_100.0), TimerAction::PromoteShard(0));
        assert_eq!(m.promoted_shards(), 1);
        assert_eq!(m.next_timer_us(), Some(1_600.0), "stagger spaces steps");
        assert_eq!(m.on_timer(1_600.0), TimerAction::PromoteShard(1));
        assert_eq!(m.on_timer(2_100.0), TimerAction::PromoteShard(2));
        assert_eq!(m.stats().retunes_promoted, 1);
        assert!(!m.in_canary(), "rollout complete");

        // Regression surfacing mid-rollout aborts everything.
        let mut m = LifecycleMachine::new(cfg, 1_000.0, 3, 500.0);
        m.begin_attempt(0.0);
        m.on_timer(1_000.0);
        m.should_shadow();
        m.observe_canary(1_100.0, &[5.0, 5.0, 5.0], &[4.0, 4.0, 4.0]);
        assert_eq!(m.on_timer(1_100.0), TimerAction::PromoteShard(0));
        // Shadowing continues on unpromoted shards; shard 1 regresses.
        m.should_shadow();
        m.observe_canary(1_300.0, &[0.0, 5.0, 5.0], &[0.0, 50.0, 4.0]);
        assert_eq!(m.on_timer(1_600.0), TimerAction::RollBackAll);
        assert_eq!(m.stats().retunes_rolled_back, 1);
        assert_eq!(m.stats().retunes_promoted, 0);
        assert_eq!(m.promoted_shards(), 0);
    }

    #[test]
    fn shadow_fraction_samples_deterministically() {
        let cfg = LifecycleConfig {
            canary: Some(CanaryConfig {
                shadow_fraction: 0.5,
                window: 100,
                min_win_margin: 0.0,
                split_traffic: false,
            }),
            ..Default::default()
        };
        let mut m = machine(cfg);
        m.begin_attempt(0.0);
        m.on_timer(1_000.0);
        let pattern: Vec<bool> = (0..6).map(|_| m.should_shadow()).collect();
        assert_eq!(pattern, vec![false, true, false, true, false, true]);
    }

    #[test]
    fn outcome_plans_replay_bit_for_bit() {
        let spec = OutcomeSpec::flaky();
        let a = spec.plan(32, 7);
        let b = spec.plan(32, 7);
        assert_eq!(a, b);
        assert_ne!(a, spec.plan(32, 8), "different seed differs");
        assert!(
            a.outcomes
                .iter()
                .any(|o| !matches!(o, RetuneOutcome::Success)),
            "a flaky tuner must fail somewhere in 32 draws"
        );
        assert!(OutcomePlan::none().is_all_success());
        assert_eq!(
            OutcomePlan::none().outcome_of(17),
            RetuneOutcome::Success,
            "attempts past the plan succeed"
        );
    }

    #[test]
    fn regressed_backend_stretches_latency_only() {
        use recflex_baselines::TorchRecBackend;
        use recflex_data::ModelPreset;
        use recflex_embedding::TableSet;

        let m = ModelPreset::A.scaled(0.01);
        let t = TableSet::for_model(&m);
        let arch = GpuArch::v100();
        let batch = Batch::generate(&m, 64, 3);
        let clean = TorchRecBackend::compile(&m);
        let base = clean.run(&m, &t, &batch, &arch).unwrap();
        let slow = RegressedBackend::new(Box::new(TorchRecBackend::compile(&m)), 3.0);
        let run = slow.run(&m, &t, &batch, &arch).unwrap();
        assert!((run.latency_us - 3.0 * base.latency_us).abs() < 1e-9);
        assert_eq!(run.kernel_launches, base.kernel_launches);
        assert_eq!(run.output, base.output);
    }

    #[test]
    fn staged_schedule_spaces_stages_like_a_rollout() {
        let s = StagedSchedule::new(1_000.0, 3, 250.0);
        assert_eq!(s.stage_us(0), 1_000.0);
        assert_eq!(s.stage_us(1), 1_250.0);
        assert_eq!(s.stage_us(2), 1_500.0);
        assert_eq!(s.complete_us(), 1_500.0);
    }

    #[test]
    fn staged_schedule_clamps_degenerate_inputs() {
        let s = StagedSchedule::new(500.0, 0, -10.0);
        assert_eq!(s.stages, 1, "at least one stage always commits");
        assert_eq!(s.stagger_us, 0.0);
        assert_eq!(s.complete_us(), 500.0);
    }
}
