//! Deadline-budgeted multi-stage serving pipelines.
//!
//! Real recommendation serving is a cascade, not a single scoring call:
//! a cheap **retrieval** stage fans a request out into a candidate set,
//! an optional **filtering** stage prunes it, and an expensive
//! **ranking** stage scores what survives (DeepRecSys / RecPipe). Each
//! stage here is backed by its own tuned [`ShardedServeRuntime`] with
//! its own batch policy and candidate count, and owns a *share* of the
//! end-to-end SLO: a [`DeadlineBudget`] is threaded through the request
//! path, every stage consumes measured time from what remains, and the
//! surplus of a fast stage rolls forward to the stages behind it.
//!
//! Stage fan-out is also where naive robustness goes metastable: a
//! transient stall plus unbounded per-stage retries turns into a retry
//! storm that outlives the fault. The [`StagePolicy`] therefore decides
//! — deterministically, from the seeded event timeline — what a late or
//! faulted stage attempt does:
//!
//! * **retry** under a token-bucket [`RetryBudget`] that caps
//!   fleet-wide retry amplification, shrinking the candidate count
//!   along the stage's degradation ladder;
//! * **fall back** once the per-stage [`CircuitBreaker`] trips
//!   (closed → open → half-open on a leaky-bucket [`PressureTracker`] of
//!   failures): ranking falls back to retrieval-order scores, filtering
//!   is skipped — the answer arrives *within its budget share*, flagged
//!   in the per-stage `degraded` mask, instead of shedding.
//!
//! Neither policy has knobs: naive retry makes 6 attempts 100 µs apart,
//! and the budgeted policy scales with the SLO alone
//! ([`BudgetedPolicy::for_slo`]).
//!
//! Determinism: stage attempts are served by the (bit-replayable)
//! sharded tier, and all policy decisions run over the resulting
//! completion/shed events in `(time, id)` order, so a pipeline run is a
//! pure function of `(spec, stage tiers, stream)`. Every pipeline of 1
//! to 3 stages runs the same staged path under its SLO and policy. A
//! 1-stage run whose attempts are never late or shed answers each
//! request on its first attempt, at the instant the plain
//! [`ShardedServeRuntime::serve`] answers it.
//!
//! Modeling note: retry waves are served as fresh passes over the stage
//! tier at their absolute timestamps — retries see the stage's fault
//! windows and their own admission gates, but not queueing contention
//! from the wave before them. Amplification is therefore accounted in
//! execution counts (what the retry-storm gate bounds), not in
//! cross-wave queue growth.

use crate::faults::PressureTracker;
use crate::request::{Request, RequestRef};
use crate::runtime::ServeError;
use crate::sharded::ShardedServeRuntime;
use crate::stats::{percentile, ShedReason};
use recflex_data::Batch;
use serde::Serialize;

/// Attempt waves per stage the runtime will serve before forcing an
/// outcome — a determinism backstop, far above any sane retry policy.
const MAX_WAVES: u32 = 16;

/// Retry-budget bucket capacity, tokens.
const RETRY_BURST: f64 = 4.0;
/// Retry-budget refill rate, tokens per simulated millisecond.
const RETRY_REFILL_PER_MS: f64 = 0.5;
/// Failure pressure at or above which a closed breaker opens.
const BREAKER_TRIP: f64 = 0.5;
/// Attempts per (request, stage) under [`StagePolicy::Budgeted`].
const BUDGETED_ATTEMPTS: u32 = 2;
/// Attempts per (request, stage) under [`StagePolicy::NaiveRetry`].
const NAIVE_ATTEMPTS: u32 = 6;
/// Naive retry's delay before re-offering a failed attempt, µs.
const NAIVE_BACKOFF_US: f64 = 100.0;

/// What a pipeline stage computes, which fixes its fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Candidate generation. No fallback exists — a request whose
    /// retrieval ultimately fails is shed.
    Retrieval,
    /// Candidate pruning. Fallback: skip the stage (serve unfiltered).
    Filtering,
    /// Candidate scoring. Fallback: keep retrieval-order scores.
    Ranking,
}

impl StageKind {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            StageKind::Retrieval => "retrieval",
            StageKind::Filtering => "filtering",
            StageKind::Ranking => "ranking",
        }
    }

    /// Whether a tripped breaker / exhausted retry budget can answer
    /// from a fallback instead of shedding.
    pub fn has_fallback(self) -> bool {
        !matches!(self, StageKind::Retrieval)
    }
}

/// One stage of a [`PipelineSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// What the stage computes (fixes its fallback semantics).
    pub kind: StageKind,
    /// Candidate count the stage scores at full quality — the batch
    /// size of the stage's derived request (≥ 1). The quality-vs-
    /// latency knob of the pipeline.
    pub candidates: u32,
    /// The stage's share of the end-to-end SLO, as a fraction. Shares
    /// are clamped and, when they sum past 1, normalized by
    /// [`DeadlineBudget::stage_shares`] so budgets never over-commit.
    pub budget_frac: f64,
    /// Candidate counts successive retries degrade through (first
    /// retry uses `degrade_ladder[0]`, …; past the end, the last rung
    /// repeats). Empty keeps retries at full `candidates`.
    pub degrade_ladder: Vec<u32>,
}

impl StageSpec {
    /// A retrieval stage.
    pub fn retrieval(candidates: u32, budget_frac: f64) -> Self {
        StageSpec {
            kind: StageKind::Retrieval,
            candidates,
            budget_frac,
            degrade_ladder: Vec::new(),
        }
    }

    /// A filtering stage.
    pub fn filtering(candidates: u32, budget_frac: f64) -> Self {
        StageSpec {
            kind: StageKind::Filtering,
            candidates,
            budget_frac,
            degrade_ladder: Vec::new(),
        }
    }

    /// A ranking stage.
    pub fn ranking(candidates: u32, budget_frac: f64) -> Self {
        StageSpec {
            kind: StageKind::Ranking,
            candidates,
            budget_frac,
            degrade_ladder: Vec::new(),
        }
    }

    /// Attach a degradation ladder.
    pub fn with_ladder(mut self, ladder: Vec<u32>) -> Self {
        self.degrade_ladder = ladder;
        self
    }

    /// The candidate count attempt `attempt` runs at (attempt 0 is the
    /// first try).
    fn candidates_at(&self, attempt: u32) -> u32 {
        if attempt == 0 || self.degrade_ladder.is_empty() {
            return self.candidates.max(1);
        }
        let i = (attempt as usize - 1).min(self.degrade_ladder.len() - 1);
        self.degrade_ladder[i].max(1)
    }
}

/// Per-request deadline-budget arithmetic: a fixed end-to-end total,
/// consumed by measured stage time, never negative.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineBudget {
    total_us: f64,
    spent_us: f64,
}

impl DeadlineBudget {
    /// A fresh budget of `total_us` (clamped at ≥ 0).
    pub fn new(total_us: f64) -> Self {
        DeadlineBudget {
            total_us: total_us.max(0.0),
            spent_us: 0.0,
        }
    }

    /// The end-to-end total, µs.
    pub fn total_us(&self) -> f64 {
        self.total_us
    }

    /// Time consumed so far, µs.
    pub fn spent_us(&self) -> f64 {
        self.spent_us
    }

    /// What is left, µs — clamped at 0, never negative.
    pub fn remaining_us(&self) -> f64 {
        (self.total_us - self.spent_us).max(0.0)
    }

    /// Consume `us` of measured time (negative charges are ignored —
    /// time does not flow backwards).
    pub fn consume(&mut self, us: f64) {
        self.spent_us += us.max(0.0);
    }

    /// True once the budget is fully spent.
    pub fn is_exhausted(&self) -> bool {
        self.remaining_us() <= 0.0
    }

    /// Split `total_us` into per-stage shares from the stages' budget
    /// fractions. Each fraction is clamped to `[0, 1]`; when the
    /// clamped fractions sum past 1 they are normalized, so the shares
    /// always sum to ≤ `total_us` and no stage can over-commit the SLO.
    pub fn stage_shares(total_us: f64, fracs: &[f64]) -> Vec<f64> {
        let total_us = total_us.max(0.0);
        let clamped: Vec<f64> = fracs
            .iter()
            .map(|f| {
                if f.is_finite() {
                    f.clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let sum: f64 = clamped.iter().sum();
        let scale = if sum > 1.0 { 1.0 / sum } else { 1.0 };
        clamped.iter().map(|f| f * scale * total_us).collect()
    }
}

/// Token-bucket cap on fleet-wide retry amplification, one per pipeline
/// run and shared by all stages: every retry spends one token, and
/// tokens refill at 0.5 per simulated millisecond up to a burst of 4.
/// All draw is in simulated time, so grants replay deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBudget {
    tokens: f64,
    last_us: f64,
}

impl Default for RetryBudget {
    /// A full bucket.
    fn default() -> Self {
        RetryBudget {
            tokens: RETRY_BURST,
            last_us: 0.0,
        }
    }
}

impl RetryBudget {
    /// Take one token at simulated instant `now`; `false` means the
    /// retry is denied. Out-of-order instants refill conservatively
    /// (elapsed time below the high-water mark counts as zero).
    pub fn take(&mut self, now: f64) -> bool {
        let dt = (now - self.last_us).max(0.0);
        self.tokens = (self.tokens + dt * RETRY_REFILL_PER_MS / 1_000.0).min(RETRY_BURST);
        self.last_us = self.last_us.max(now);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Circuit-breaker state: a [`CircuitBreaker`]'s live state, and the
/// final state [`StageStats`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerStateStat {
    /// Traffic flows; failure pressure is below the trip threshold.
    Closed,
    /// Tripped: the stage is skipped and served by its fallback.
    Open,
    /// Cooldown elapsed: one probe execution decides reopen-or-close.
    HalfOpen,
}

impl BreakerStateStat {
    /// Stable lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            BreakerStateStat::Closed => "closed",
            BreakerStateStat::Open => "open",
            BreakerStateStat::HalfOpen => "half-open",
        }
    }
}

/// Per-stage circuit breaker: closed → open on failure pressure, open →
/// half-open after the cooldown (one probe), half-open → closed on a
/// probe success or back to open on a probe failure.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    tau_us: f64,
    cooldown_us: f64,
    tracker: PressureTracker,
    state: BreakerStateStat,
    opened_at_us: f64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker scaled to an end-to-end SLO: failure pressure
    /// (1 per failure, 0 per success) leaks with a time constant of
    /// `max(slo/2, 1)` µs, the breaker opens at 0.5, and it cools down
    /// for `max(slo, 1)` µs before letting one half-open probe through.
    pub fn new(slo_us: f64) -> Self {
        CircuitBreaker {
            tau_us: (slo_us / 2.0).max(1.0),
            cooldown_us: slo_us.max(1.0),
            tracker: PressureTracker::default(),
            state: BreakerStateStat::Closed,
            opened_at_us: 0.0,
            trips: 0,
        }
    }

    /// Fold in one attempt outcome at `now`. Closed: trips when the
    /// pressure crosses the threshold. Half-open: the observation *is*
    /// the probe verdict — success closes (and drains the bucket),
    /// failure re-opens.
    pub fn observe(&mut self, now: f64, failure: bool) {
        let raw = if failure { 1.0 } else { 0.0 };
        let pressure = self.tracker.observe(now, raw, self.tau_us);
        match self.state {
            BreakerStateStat::Closed if pressure >= BREAKER_TRIP => {
                self.trip(now);
            }
            BreakerStateStat::HalfOpen => {
                if failure {
                    self.trip(now);
                } else {
                    self.tracker = PressureTracker::default();
                    self.state = BreakerStateStat::Closed;
                }
            }
            _ => {}
        }
    }

    /// Whether a retry may execute at `now`. Closed admits; open admits
    /// nothing until the cooldown elapses, then flips half-open and
    /// admits exactly one probe; half-open admits nothing further until
    /// the probe's outcome is observed.
    pub fn admits_retry(&mut self, now: f64) -> bool {
        match self.state {
            BreakerStateStat::Closed => true,
            BreakerStateStat::Open => {
                if now >= self.opened_at_us + self.cooldown_us {
                    self.state = BreakerStateStat::HalfOpen;
                    true
                } else {
                    false
                }
            }
            BreakerStateStat::HalfOpen => false,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerStateStat {
        self.state
    }

    /// Closed → open trips so far.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    fn trip(&mut self, now: f64) {
        self.trips += 1;
        self.opened_at_us = now;
        self.state = BreakerStateStat::Open;
    }
}

/// How late/faulted stage attempts are handled.
#[derive(Debug, Clone, PartialEq)]
pub enum StagePolicy {
    /// Retry every failure up to 6 attempts, 100 µs apart, at full
    /// candidate count, with no breaker and no fallback — the metastable
    /// baseline the budgeted policy is graded against. A request whose
    /// attempts exhaust keeps its earliest (late) completion if any
    /// attempt finished at all, else sheds.
    NaiveRetry,
    /// Retries gated by the token-bucket [`RetryBudget`] and the
    /// per-stage [`CircuitBreaker`], degrading along the stage ladder;
    /// fallback instead of shed once retries are denied or the breaker
    /// is open.
    Budgeted(BudgetedPolicy),
}

/// [`StagePolicy::Budgeted`], scaled to an end-to-end SLO: a fresh
/// [`RetryBudget`] per run, a [`CircuitBreaker::new`] per stage, 2
/// attempts per (request, stage), and `max(slo/16, 1)` µs between them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetedPolicy {
    slo_us: f64,
}

impl BudgetedPolicy {
    /// The budgeted policy for an end-to-end SLO of `slo_us`.
    pub fn for_slo(slo_us: f64) -> Self {
        BudgetedPolicy { slo_us }
    }

    /// Delay before re-offering a failed attempt, µs.
    fn backoff_us(&self) -> f64 {
        (self.slo_us / 16.0).max(1.0)
    }
}

/// The full pipeline shape: stages, their SLO shares, and the failure
/// policy.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSpec {
    /// End-to-end SLO every answer is measured against, µs.
    pub slo_us: f64,
    /// The stages, in request order (1–3).
    pub stages: Vec<StageSpec>,
    /// What late/faulted attempts do.
    pub policy: StagePolicy,
    /// Seed deriving per-(stage, request, attempt) candidate batches.
    pub seed: u64,
}

/// One per-request outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineRecord {
    /// Stream-unique request id.
    pub id: u64,
    /// Arrival instant, µs.
    pub arrival_us: f64,
    /// Final answer instant, µs (arrival for shed requests).
    pub done_us: f64,
    /// True when the pipeline produced no answer.
    pub shed: bool,
    /// Per-stage degradation mask: `degraded_stages[k]` is set when
    /// stage `k` answered from its fallback, from a shrunken candidate
    /// count, or with a crashed shard zero-pooled by its tier.
    pub degraded_stages: Vec<bool>,
    /// Stage executions this request consumed (attempts, all stages).
    pub attempts: u32,
}

impl PipelineRecord {
    /// End-to-end latency, µs (0 for shed requests).
    pub fn latency_us(&self) -> f64 {
        if self.shed {
            0.0
        } else {
            self.done_us - self.arrival_us
        }
    }

    /// True when any stage answered degraded.
    pub fn degraded(&self) -> bool {
        self.degraded_stages.iter().any(|&d| d)
    }
}

/// One stage's aggregate statistics over a pipeline run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageStats {
    /// Stage label (`retrieval`, `filtering`, `ranking`, …).
    pub name: String,
    /// Chunks admitted into the stage (first attempts actually served —
    /// fallback-skipped chunks are not admitted).
    pub admitted: u64,
    /// Chunks the stage executed, including retries. The retry-storm
    /// gate bounds `executions / admitted`.
    pub executions: u64,
    /// Retry executions granted (naive: every failure until the attempt
    /// cap; budgeted: only while the token bucket has budget).
    pub retries: u64,
    /// Retries the token bucket refused (budgeted policy only).
    pub retries_denied: u64,
    /// Chunks answered by the stage's fallback (ranking →
    /// retrieval-order scores, filtering → skipped) instead of a shed.
    pub fallbacks: u64,
    /// Chunks that finished past the stage's deadline-budget share.
    pub late: u64,
    /// Chunks shed inside the stage (admission or fault).
    pub faulted: u64,
    /// Fraction of chunks that consumed no more than the stage's
    /// budget share (per surviving chunk; 1.0 for an idle stage).
    pub attainment: f64,
    /// Closed → Open transitions over the run.
    pub breaker_trips: u64,
    /// Breaker state when the run ended.
    pub breaker_final: BreakerStateStat,
}

impl StageStats {
    /// An empty accumulator for one named stage.
    pub fn named(name: impl Into<String>) -> Self {
        StageStats {
            name: name.into(),
            admitted: 0,
            executions: 0,
            retries: 0,
            retries_denied: 0,
            fallbacks: 0,
            late: 0,
            faulted: 0,
            attainment: 1.0,
            breaker_trips: 0,
            breaker_final: BreakerStateStat::Closed,
        }
    }
}

/// End-to-end statistics of one pipeline run, as the benches serialize
/// them.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PipelineReport {
    /// The end-to-end SLO every answer is measured against, µs.
    pub slo_us: f64,
    /// Requests offered to the pipeline.
    pub offered: u64,
    /// Requests that produced an answer (full-quality or degraded).
    pub answered: u64,
    /// Answers that landed within the end-to-end SLO.
    pub answered_in_slo: u64,
    /// Answers carrying at least one degraded-stage bit.
    pub degraded_answers: u64,
    /// `answered_in_slo / offered` — degraded answers count, late and
    /// shed ones do not.
    pub availability: f64,
    /// Median end-to-end latency over answered requests, µs.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency over answered requests, µs.
    pub p99_us: f64,
    /// Last completion instant, µs.
    pub makespan_us: f64,
    /// Sum of [`StageStats::executions`] over all stages.
    pub total_executions: u64,
    /// Sum of [`StageStats::admitted`] over all stages.
    pub total_admitted: u64,
    /// `total_executions / total_admitted` — 1.0 means zero retry
    /// amplification; the budgeted-policy gate caps this at 1.2.
    pub amplification: f64,
    /// Per-stage statistics, in pipeline order.
    pub stages: Vec<StageStats>,
}

/// Everything a pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The end-to-end SLO, µs.
    pub slo_us: f64,
    /// Per-request outcomes, in offered order.
    pub records: Vec<PipelineRecord>,
    /// Per-stage aggregate statistics, in pipeline order.
    pub stage_stats: Vec<StageStats>,
}

impl PipelineOutcome {
    /// Distill into the [`PipelineReport`] the benches serialize.
    pub fn report(&self) -> PipelineReport {
        let offered = self.records.len() as u64;
        let answered = self.records.iter().filter(|r| !r.shed).count() as u64;
        let answered_in_slo = self
            .records
            .iter()
            .filter(|r| !r.shed && r.latency_us() <= self.slo_us + 1e-9)
            .count() as u64;
        let degraded_answers = self
            .records
            .iter()
            .filter(|r| !r.shed && r.degraded())
            .count() as u64;
        let total_executions: u64 = self.stage_stats.iter().map(|s| s.executions).sum();
        let total_admitted: u64 = self.stage_stats.iter().map(|s| s.admitted).sum();
        let makespan_us = self
            .records
            .iter()
            .map(|r| r.done_us)
            .fold(0.0f64, f64::max);
        let answered_latencies = || {
            self.records
                .iter()
                .filter(|r| !r.shed)
                .map(PipelineRecord::latency_us)
        };
        PipelineReport {
            slo_us: self.slo_us,
            offered,
            answered,
            answered_in_slo,
            degraded_answers,
            availability: if offered == 0 {
                1.0
            } else {
                answered_in_slo as f64 / offered as f64
            },
            p50_us: percentile(answered_latencies(), 0.5),
            p99_us: percentile(answered_latencies(), 0.99),
            makespan_us,
            total_executions,
            total_admitted,
            amplification: if total_admitted == 0 {
                1.0
            } else {
                total_executions as f64 / total_admitted as f64
            },
            stages: self.stage_stats.clone(),
        }
    }
}

/// A staged serving pipeline: one sharded tier per stage plus the spec
/// tying their budgets and failure policy together.
pub struct PipelineRuntime<'a> {
    spec: PipelineSpec,
    tiers: Vec<ShardedServeRuntime<'a>>,
}

/// One in-flight stage attempt.
#[derive(Debug, Clone)]
struct Entry {
    /// Index into the offered request stream.
    ri: usize,
    /// The request's stream id.
    id: u64,
    /// When the attempt's input is available, µs.
    ready_us: f64,
    /// Candidate count this attempt runs at.
    candidates: u32,
    /// 0 for the first try.
    attempt: u32,
}

/// Per-request pipeline state while stages run.
#[derive(Debug, Clone)]
struct LiveReq {
    ready_us: f64,
    budget: DeadlineBudget,
    degraded: Vec<bool>,
    attempts: u32,
    /// Earliest completion of a late attempt in the current stage (naive
    /// keeps it as the answer when retries exhaust), ∞ when none finished.
    best_late_done_us: f64,
    shed: bool,
}

/// What one served attempt turned into.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AttemptOutcome {
    /// Finished within its deadline share at `done`.
    Success { done_us: f64 },
    /// Finished, but past its share — detected at the timeout instant.
    Late { done_us: f64, detect_us: f64 },
    /// Shed at admission — detected immediately.
    Shed { detect_us: f64 },
}

impl<'a> PipelineRuntime<'a> {
    /// Validate and assemble a pipeline. `tiers[k]` serves stage `k` of
    /// `spec.stages`.
    pub fn new(
        spec: PipelineSpec,
        tiers: Vec<ShardedServeRuntime<'a>>,
    ) -> Result<Self, ServeError> {
        if spec.stages.is_empty() || spec.stages.len() > 3 {
            return Err(ServeError::Policy("a pipeline has 1 to 3 stages"));
        }
        if spec.stages.len() != tiers.len() {
            return Err(ServeError::Policy("one serving tier per pipeline stage"));
        }
        if !spec.slo_us.is_finite() || spec.slo_us <= 0.0 {
            return Err(ServeError::Policy(
                "pipeline slo_us must be finite and positive",
            ));
        }
        for stage in &spec.stages {
            if stage.candidates == 0 {
                return Err(ServeError::Policy(
                    "stage candidate count must be at least 1",
                ));
            }
            if !stage.budget_frac.is_finite() || stage.budget_frac <= 0.0 {
                return Err(ServeError::Policy(
                    "stage budget fraction must be finite and positive",
                ));
            }
            if stage.degrade_ladder.contains(&0) {
                return Err(ServeError::Policy(
                    "degradation ladder rungs must be at least 1",
                ));
            }
        }
        Ok(PipelineRuntime { spec, tiers })
    }

    /// Swap the failure policy between sweep cells (tiers stay built).
    pub fn set_policy(&mut self, policy: StagePolicy) {
        self.spec.policy = policy;
    }

    /// Swap one stage's fault plan between scenario cells.
    pub fn set_stage_plan(&mut self, stage: usize, plan: crate::faults::FaultPlan) {
        if let Some(tier) = self.tiers.get_mut(stage) {
            tier.faults = plan;
        }
    }

    /// Re-point one stage's full-quality candidate count (the sweep
    /// knob). Rejects 0 like [`PipelineRuntime::new`] does.
    pub fn set_stage_candidates(
        &mut self,
        stage: usize,
        candidates: u32,
    ) -> Result<(), ServeError> {
        if candidates == 0 {
            return Err(ServeError::Policy(
                "stage candidate count must be at least 1",
            ));
        }
        if let Some(s) = self.spec.stages.get_mut(stage) {
            s.candidates = candidates;
        }
        Ok(())
    }

    /// Serve an offered request stream end to end.
    pub fn serve(&self, requests: &[Request]) -> Result<PipelineOutcome, ServeError> {
        let num_stages = self.spec.stages.len();
        let shares = DeadlineBudget::stage_shares(
            self.spec.slo_us,
            &self
                .spec
                .stages
                .iter()
                .map(|s| s.budget_frac)
                .collect::<Vec<_>>(),
        );
        let mut live: Vec<LiveReq> = requests
            .iter()
            .map(|r| LiveReq {
                ready_us: r.arrival_us,
                budget: DeadlineBudget::new(self.spec.slo_us),
                degraded: vec![false; num_stages],
                attempts: 0,
                best_late_done_us: f64::INFINITY,
                shed: false,
            })
            .collect();
        let mut retry_budget = match &self.spec.policy {
            StagePolicy::Budgeted(_) => Some(RetryBudget::default()),
            StagePolicy::NaiveRetry => None,
        };
        let mut stage_stats = Vec::with_capacity(num_stages);

        for (k, stage) in self.spec.stages.iter().enumerate() {
            let mut stats = StageStats::named(stage.kind.label());
            let mut breaker = match &self.spec.policy {
                StagePolicy::Budgeted(b) => Some(CircuitBreaker::new(b.slo_us)),
                StagePolicy::NaiveRetry => None,
            };
            // Where each surviving request stood when it entered the
            // stage, for per-stage budget attainment.
            let entry_ready: Vec<f64> = live.iter().map(|l| l.ready_us).collect();
            // A late completion of an earlier stage answers nothing here.
            for l in &mut live {
                l.best_late_done_us = f64::INFINITY;
            }

            let mut wave: Vec<Entry> = live
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.shed)
                .map(|(ri, l)| Entry {
                    ri,
                    id: requests[ri].id,
                    ready_us: l.ready_us,
                    candidates: stage.candidates_at(0),
                    attempt: 0,
                })
                .collect();
            stats.admitted += wave.len() as u64;
            let mut wave_no = 0u32;

            while !wave.is_empty() && wave_no < MAX_WAVES {
                wave.sort_by(|a, b| a.ready_us.total_cmp(&b.ready_us).then(a.id.cmp(&b.id)));
                let derived: Vec<Batch> = if k == 0 {
                    Vec::new()
                } else {
                    wave.iter().map(|e| self.stage_batch(k, e)).collect()
                };
                let deadlines: Vec<f64> = wave
                    .iter()
                    .map(|e| e.ready_us + shares[k].min(live[e.ri].budget.remaining_us()))
                    .collect();
                let report = self.tiers[k]
                    .serve_with_deadlines(&wave_views(k, &wave, requests, &derived), &deadlines)?;
                stats.executions += wave.len() as u64;
                if wave_no > 0 {
                    stats.retries += wave.len() as u64;
                }
                for e in &wave {
                    live[e.ri].attempts += 1;
                }

                // Policy decisions run over the wave's outcomes in
                // (event time, id) order, so breaker and token-bucket
                // state evolve on one deterministic timeline.
                let mut events: Vec<(f64, usize)> = Vec::with_capacity(wave.len());
                let mut outcomes: Vec<AttemptOutcome> = Vec::with_capacity(wave.len());
                for (j, rec) in report.records.iter().enumerate() {
                    let outcome = if rec.base.shed != ShedReason::None {
                        AttemptOutcome::Shed {
                            detect_us: rec.base.done_us,
                        }
                    } else if rec.base.done_us > deadlines[j] + 1e-9 {
                        AttemptOutcome::Late {
                            done_us: rec.base.done_us,
                            detect_us: deadlines[j],
                        }
                    } else {
                        AttemptOutcome::Success {
                            done_us: rec.base.done_us,
                        }
                    };
                    let t = match outcome {
                        AttemptOutcome::Success { done_us } => done_us,
                        AttemptOutcome::Late { detect_us, .. } => detect_us,
                        AttemptOutcome::Shed { detect_us } => detect_us,
                    };
                    events.push((t, j));
                    outcomes.push(outcome);
                }
                events.sort_by(|a, b| a.0.total_cmp(&b.0).then(wave[a.1].id.cmp(&wave[b.1].id)));

                let mut next_wave = Vec::new();
                for (t, j) in events {
                    let e = &wave[j];
                    let outcome = outcomes[j];
                    match outcome {
                        AttemptOutcome::Success { done_us } => {
                            if let Some(b) = breaker.as_mut() {
                                b.observe(done_us, false);
                            }
                            let l = &mut live[e.ri];
                            l.budget.consume(done_us - l.ready_us);
                            l.ready_us = done_us;
                            // A shrunken candidate count or a tier that
                            // zero-pooled a crashed shard answers degraded.
                            l.degraded[k] |= (e.attempt > 0 && e.candidates < stage.candidates)
                                || report.records[j].degraded;
                        }
                        AttemptOutcome::Late { .. } | AttemptOutcome::Shed { .. } => {
                            if let AttemptOutcome::Late { done_us, .. } = outcome {
                                live[e.ri].best_late_done_us =
                                    live[e.ri].best_late_done_us.min(done_us);
                                stats.late += 1;
                            } else {
                                stats.faulted += 1;
                            }
                            if let Some(b) = breaker.as_mut() {
                                b.observe(t, true);
                            }
                            self.decide_failure(
                                k,
                                stage,
                                t,
                                e,
                                &mut live,
                                &mut stats,
                                breaker.as_mut(),
                                retry_budget.as_mut(),
                                &mut next_wave,
                            );
                        }
                    }
                }
                wave = next_wave;
                wave_no += 1;
            }
            // Waves exhausted with attempts still pending (the MAX_WAVES
            // backstop): force each survivor's terminal outcome.
            for e in wave {
                self.finalize_exhausted(k, stage, &mut live, &mut stats, &e);
            }

            if let Some(b) = breaker {
                stats.breaker_trips = b.trips();
                stats.breaker_final = b.state();
            }
            let mut in_budget = 0u64;
            let mut entered = 0u64;
            for (ri, l) in live.iter().enumerate() {
                if l.shed {
                    continue;
                }
                entered += 1;
                if l.ready_us - entry_ready[ri] <= shares[k] + 1e-9 {
                    in_budget += 1;
                }
            }
            stats.attainment = if entered == 0 {
                1.0
            } else {
                in_budget as f64 / entered as f64
            };
            stage_stats.push(stats);
        }

        let records = requests
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                let l = &live[ri];
                PipelineRecord {
                    id: r.id,
                    arrival_us: r.arrival_us,
                    done_us: if l.shed { r.arrival_us } else { l.ready_us },
                    shed: l.shed,
                    degraded_stages: l.degraded.clone(),
                    attempts: l.attempts,
                }
            })
            .collect();
        Ok(PipelineOutcome {
            slo_us: self.spec.slo_us,
            records,
            stage_stats,
        })
    }

    /// The policy's verdict on one failed attempt: retry, fall back, or
    /// shed.
    #[allow(clippy::too_many_arguments)]
    fn decide_failure(
        &self,
        k: usize,
        stage: &StageSpec,
        detect_us: f64,
        e: &Entry,
        live: &mut [LiveReq],
        stats: &mut StageStats,
        breaker: Option<&mut CircuitBreaker>,
        retry_budget: Option<&mut RetryBudget>,
        next_wave: &mut Vec<Entry>,
    ) {
        match &self.spec.policy {
            StagePolicy::NaiveRetry => {
                let l = &mut live[e.ri];
                l.budget.consume(detect_us - l.ready_us);
                if e.attempt + 1 < NAIVE_ATTEMPTS {
                    let ready = detect_us + NAIVE_BACKOFF_US;
                    l.budget.consume(ready - detect_us);
                    l.ready_us = ready;
                    next_wave.push(Entry {
                        ri: e.ri,
                        id: e.id,
                        ready_us: ready,
                        candidates: stage.candidates,
                        attempt: e.attempt + 1,
                    });
                } else {
                    Self::naive_terminal(k, l);
                }
            }
            StagePolicy::Budgeted(b) => {
                let l = &mut live[e.ri];
                l.budget.consume(detect_us - l.ready_us);
                let breaker_admits = breaker.is_some_and(|br| br.admits_retry(detect_us));
                let attempts_left = e.attempt + 1 < BUDGETED_ATTEMPTS;
                let budget_left = !l.budget.is_exhausted();
                let granted = breaker_admits
                    && attempts_left
                    && budget_left
                    && retry_budget.is_some_and(|rb| {
                        let ok = rb.take(detect_us);
                        if !ok {
                            stats.retries_denied += 1;
                        }
                        ok
                    });
                if granted {
                    let ready = detect_us + b.backoff_us();
                    l.budget.consume(ready - detect_us);
                    l.ready_us = ready;
                    next_wave.push(Entry {
                        ri: e.ri,
                        id: e.id,
                        ready_us: ready,
                        candidates: stage.candidates_at(e.attempt + 1),
                        attempt: e.attempt + 1,
                    });
                } else {
                    Self::fall_back(k, stage, detect_us, l, stats);
                }
            }
        }
    }

    /// Terminal outcome for a naive request out of attempts: keep the
    /// stage's earliest late completion as the (late) answer, else shed.
    fn naive_terminal(k: usize, l: &mut LiveReq) {
        if l.best_late_done_us.is_finite() {
            let done = l.best_late_done_us;
            l.budget.consume(done - l.ready_us);
            l.ready_us = l.ready_us.max(done);
            l.degraded[k] = false;
        } else {
            l.shed = true;
        }
    }

    /// Serve the stage from its fallback at `now`: ranking keeps
    /// retrieval-order scores, filtering is skipped — both at zero
    /// stage cost — and retrieval, which has no fallback, sheds.
    fn fall_back(k: usize, stage: &StageSpec, now: f64, l: &mut LiveReq, stats: &mut StageStats) {
        if stage.kind.has_fallback() {
            stats.fallbacks += 1;
            l.budget.consume(now - l.ready_us);
            l.ready_us = l.ready_us.max(now);
            l.degraded[k] = true;
        } else {
            l.shed = true;
        }
    }

    /// Forced terminal outcome when the wave backstop fires.
    fn finalize_exhausted(
        &self,
        k: usize,
        stage: &StageSpec,
        live: &mut [LiveReq],
        stats: &mut StageStats,
        e: &Entry,
    ) {
        let l = &mut live[e.ri];
        match &self.spec.policy {
            StagePolicy::NaiveRetry => Self::naive_terminal(k, l),
            StagePolicy::Budgeted(_) => Self::fall_back(k, stage, l.ready_us, l, stats),
        }
    }

    /// The derived batch stage `k > 0` scores for attempt `e`: a seeded
    /// candidate batch of the attempt's candidate count.
    fn stage_batch(&self, k: usize, e: &Entry) -> Batch {
        let seed = self
            .spec
            .seed
            .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            ^ e.id.wrapping_mul(0x2545_F491_4F6C_DD1D)
            ^ (u64::from(e.attempt) << 56);
        Batch::generate(self.tiers[k].model, e.candidates, seed)
    }
}

/// Stage `k`'s requests for `wave`, in wave order and with each
/// attempt's ready time as its arrival. Stage 0 borrows the offered
/// payloads; a later stage borrows `derived[j]`, the candidate batch drawn
/// for `wave[j]`, which lives for the wave.
fn wave_views<'r>(
    k: usize,
    wave: &[Entry],
    requests: &'r [Request],
    derived: &'r [Batch],
) -> Vec<RequestRef<'r>> {
    wave.iter()
        .enumerate()
        .map(|(j, e)| RequestRef {
            id: e.id,
            arrival_us: e.ready_us,
            batch: if k == 0 {
                &requests[e.ri].batch
            } else {
                &derived[j]
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{Fault, FaultKind, FaultPlan};
    use crate::request::WorkloadSpec;
    use crate::runtime::{BatchPolicy, ServeConfig};
    use proptest::prelude::*;
    use recflex_baselines::TorchRecBackend;
    use recflex_data::{ModelConfig, ModelPreset, Placement};
    use recflex_sim::{GpuArch, Interconnect};

    fn setup() -> (ModelConfig, GpuArch) {
        (ModelPreset::A.scaled(0.01), GpuArch::v100())
    }

    fn stage_config() -> ServeConfig {
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Split { cap: 256 },
            // Admission runs off the pipeline's per-attempt deadlines,
            // not a tier-level SLO.
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }

    fn stage_tier<'a>(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        shards: usize,
        plan: FaultPlan,
    ) -> ShardedServeRuntime<'a> {
        ShardedServeRuntime {
            faults: plan,
            ..ShardedServeRuntime::build(
                model,
                arch,
                Placement::balance(model, shards),
                stage_config(),
                Interconnect::nvlink(),
                |m| Box::new(TorchRecBackend::compile(m)),
            )
        }
    }

    fn stall(shard: usize, start: f64, end: f64) -> Fault {
        Fault {
            start_us: start,
            end_us: end,
            kind: FaultKind::Stall { shard },
        }
    }

    fn budgeted_spec(slo_us: f64, stages: Vec<StageSpec>) -> PipelineSpec {
        PipelineSpec {
            slo_us,
            stages,
            policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)),
            seed: 11,
        }
    }

    #[test]
    fn one_stage_pipeline_matches_the_plain_tier() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
        let plain = stage_tier(&m, &arch, 2, FaultPlan::none()).serve(&reqs)?;
        let pipe = PipelineRuntime::new(
            budgeted_spec(50_000.0, vec![StageSpec::retrieval(64, 1.0)]),
            vec![stage_tier(&m, &arch, 2, FaultPlan::none())],
        )?;
        let out = pipe.serve(&reqs)?;
        assert_eq!(out.records.len(), plain.records.len());
        for (rec, p) in out.records.iter().zip(&plain.records) {
            assert_eq!(
                (
                    rec.id,
                    rec.arrival_us.to_bits(),
                    rec.done_us.to_bits(),
                    rec.shed,
                    rec.degraded_stages.as_slice(),
                    rec.attempts,
                ),
                (
                    p.base.id,
                    p.base.arrival_us.to_bits(),
                    p.base.done_us.to_bits(),
                    p.base.is_shed(),
                    [p.degraded].as_slice(),
                    1,
                ),
            );
        }
        Ok(())
    }

    /// A 1-stage pipeline on a mitigated tier keeps the tier's degraded
    /// flag: an answer the tier zero-pooled around a crashed shard is a
    /// degraded answer of the pipeline too.
    #[test]
    fn a_one_stage_pipeline_flags_answers_its_tier_zero_pooled() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(200.0).stream(&m, 48, 29);
        let slo_us = 50_000.0;
        // Zero-pooling starts once the crashed shard's work piles three
        // quarters of the tier's 2 ms SLO onto its replica.
        let tier = || ShardedServeRuntime {
            config: ServeConfig {
                slo_deadline_us: Some(2_000.0),
                ..stage_config()
            },
            mitigated: true,
            ..stage_tier(
                &m,
                &arch,
                2,
                FaultPlan::scripted(vec![Fault {
                    start_us: 1_500.0,
                    end_us: 9_000.0,
                    kind: FaultKind::Crash { shard: 0 },
                }]),
            )
        };
        // The one stage's attempt deadline is the whole SLO.
        let deadlines: Vec<f64> = reqs.iter().map(|r| r.arrival_us + slo_us).collect();
        let views: Vec<_> = reqs.iter().map(Request::view).collect();
        let plain = tier().serve_with_deadlines(&views, &deadlines)?;
        let zero_pooled = plain.records.iter().filter(|r| r.degraded).count() as u64;
        assert!(zero_pooled > 0, "the crash must zero-pool some answers");
        let out = PipelineRuntime::new(
            budgeted_spec(slo_us, vec![StageSpec::retrieval(64, 1.0)]),
            vec![tier()],
        )?
        .serve(&reqs)?;
        for (rec, p) in out.records.iter().zip(&plain.records) {
            assert_eq!(
                (rec.id, rec.attempts, rec.degraded_stages.as_slice()),
                (p.base.id, 1, [p.degraded].as_slice()),
            );
        }
        assert_eq!(out.report().degraded_answers, zero_pooled);
        Ok(())
    }

    /// A 1-stage pipeline runs its SLO and policy like any other: a stall
    /// on the one tier makes attempts fail, the failures reach the retry
    /// budget and breaker, and no answer lands past the SLO.
    #[test]
    fn a_one_stage_pipeline_holds_its_slo_under_a_stall() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
        let span = reqs.last().map_or(0.0, |r| r.arrival_us);
        let slo_us = 8_000.0;
        let pipe = PipelineRuntime::new(
            budgeted_spec(slo_us, vec![StageSpec::retrieval(64, 1.0)]),
            vec![stage_tier(
                &m,
                &arch,
                2,
                FaultPlan::scripted(vec![stall(0, 0.2 * span, 0.9 * span)]),
            )],
        )?;
        let out = pipe.serve(&reqs)?;
        let stage = &out.stage_stats[0];
        assert!(
            stage.late + stage.faulted > 0,
            "the stall must fail attempts"
        );
        assert!(
            stage.retries + stage.retries_denied > 0,
            "failures must reach the retry policy: {stage:?}"
        );
        for rec in &out.records {
            assert!(
                rec.shed || rec.latency_us() <= slo_us + 1e-9,
                "request {} answered {} us after arrival",
                rec.id,
                rec.latency_us()
            );
        }
        Ok(())
    }

    #[test]
    fn multi_stage_clean_run_answers_everything_without_amplification() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(400.0).stream(&m, 24, 7);
        let spec = budgeted_spec(
            60_000.0,
            vec![
                StageSpec::retrieval(64, 0.3),
                StageSpec::filtering(48, 0.2),
                StageSpec::ranking(32, 0.5).with_ladder(vec![16, 8]),
            ],
        );
        let mk = || {
            PipelineRuntime::new(
                spec.clone(),
                vec![
                    stage_tier(&m, &arch, 2, FaultPlan::none()),
                    stage_tier(&m, &arch, 2, FaultPlan::none()),
                    stage_tier(&m, &arch, 2, FaultPlan::none()),
                ],
            )
        };
        let a = mk()?.serve(&reqs)?;
        let b = mk()?.serve(&reqs)?;
        let report = a.report();
        assert_eq!(report.offered, 24);
        assert_eq!(report.answered, 24);
        assert_eq!(report.degraded_answers, 0);
        assert!((report.amplification - 1.0).abs() < 1e-12);
        assert!(report.availability >= 0.95, "{}", report.availability);
        // Stage order is preserved and budgets propagate: every answer
        // lands within the end-to-end SLO.
        for rec in &a.records {
            assert!(rec.latency_us() <= spec.slo_us + 1e-9);
            assert!(rec.done_us >= rec.arrival_us);
        }
        assert_eq!(a.records, b.records, "pipeline runs replay bit-for-bit");
        assert_eq!(a.stage_stats, b.stage_stats);
        Ok(())
    }

    #[test]
    fn budgeted_policy_beats_naive_retry_under_a_ranking_stall() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
        let span = reqs.last().map_or(0.0, |r| r.arrival_us);
        let slo_us = 8_000.0;
        let stages = vec![
            StageSpec::retrieval(64, 0.4),
            StageSpec::ranking(32, 0.6).with_ladder(vec![16]),
        ];
        let rank_fault = FaultPlan::scripted(vec![stall(0, 0.2 * span, 0.9 * span)]);
        let run = |policy: StagePolicy| {
            let pipe = PipelineRuntime::new(
                PipelineSpec {
                    slo_us,
                    stages: stages.clone(),
                    policy,
                    seed: 11,
                },
                vec![
                    stage_tier(&m, &arch, 2, FaultPlan::none()),
                    stage_tier(&m, &arch, 2, rank_fault.clone()),
                ],
            )?;
            Ok::<_, ServeError>(pipe.serve(&reqs)?.report())
        };
        let naive = run(StagePolicy::NaiveRetry)?;
        let budgeted = run(StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)))?;

        assert!(
            budgeted.availability >= 0.95,
            "budgeted availability {}",
            budgeted.availability
        );
        assert!(
            budgeted.availability > naive.availability,
            "budgeted {} vs naive {}",
            budgeted.availability,
            naive.availability
        );
        assert!(
            budgeted.p99_us < naive.p99_us,
            "budgeted p99 {} vs naive {}",
            budgeted.p99_us,
            naive.p99_us
        );
        assert!(
            budgeted.amplification <= 1.2,
            "budgeted amplification {}",
            budgeted.amplification
        );
        assert!(
            naive.amplification > budgeted.amplification,
            "naive {} vs budgeted {}",
            naive.amplification,
            budgeted.amplification
        );
        let rank = &budgeted.stages[1];
        assert!(rank.fallbacks > 0, "the stall must force fallbacks");
        assert!(rank.breaker_trips >= 1, "sustained failure must trip");
        assert!(budgeted.degraded_answers > 0);
        Ok(())
    }

    #[test]
    fn breaker_labels_are_stable() {
        assert_eq!(BreakerStateStat::Closed.label(), "closed");
        assert_eq!(BreakerStateStat::Open.label(), "open");
        assert_eq!(BreakerStateStat::HalfOpen.label(), "half-open");
    }

    #[test]
    fn breaker_walks_closed_open_half_open_and_back() {
        // SLO 100 µs: failure pressure leaks with τ = 50 µs, the breaker
        // opens at 0.5 and cools down for 100 µs.
        let mut b = CircuitBreaker::new(100.0);
        assert_eq!(b.state(), BreakerStateStat::Closed);
        b.observe(10.0, false);
        assert_eq!(b.state(), BreakerStateStat::Closed);
        b.observe(20.0, true);
        assert_eq!(
            b.state(),
            BreakerStateStat::Closed,
            "one failure charges the bucket to 1 - e^-0.2, below the trip"
        );
        b.observe(200.0, true);
        assert_eq!(b.state(), BreakerStateStat::Open, "sustained failure trips");
        assert_eq!(b.trips(), 1);
        assert!(!b.admits_retry(250.0), "cooldown blocks retries");
        assert_eq!(b.state(), BreakerStateStat::Open);
        assert!(b.admits_retry(300.0), "cooldown elapsed: one probe");
        assert_eq!(b.state(), BreakerStateStat::HalfOpen);
        assert!(!b.admits_retry(301.0), "only one probe in flight");
        assert_eq!(b.state(), BreakerStateStat::HalfOpen);
        b.observe(310.0, true);
        assert_eq!(b.state(), BreakerStateStat::Open, "probe failure reopens");
        assert_eq!(b.trips(), 2);
        assert!(b.admits_retry(410.0));
        assert_eq!(b.state(), BreakerStateStat::HalfOpen);
        b.observe(420.0, false);
        assert_eq!(b.state(), BreakerStateStat::Closed, "probe success closes");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn retry_budget_spends_and_refills_tokens() {
        let mut rb = RetryBudget::default();
        for _ in 0..4 {
            assert!(rb.take(0.0), "a full bucket holds 4 tokens");
        }
        assert!(!rb.take(0.0), "bucket empty");
        assert!(!rb.take(1_000.0), "half a token refilled: still denied");
        assert!(rb.take(2_000.0), "a full token refilled");
        assert!(!rb.take(2_000.0));
        // Refill never overshoots the burst cap.
        for _ in 0..4 {
            assert!(rb.take(1_000_000.0));
        }
        assert!(!rb.take(1_000_000.0));
    }

    /// Under naive retry a late completion answers only the stage it came
    /// from. Request 1's first retrieval attempt is late (retrieval shard
    /// 0 stalls across its deadline) and its retry succeeds; every
    /// ranking attempt of it then sheds behind request 0, whose attempts
    /// sit on the stalled ranking shard 0. Request 1 must end shed, not
    /// answered from its late retrieval.
    #[test]
    fn a_late_attempt_answers_only_its_own_stage() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let req = |id: u64, arrival_us: f64| Request {
            id,
            arrival_us,
            batch: Batch::generate(&m, 64, 300 + id),
        };
        let reqs = [req(0, 0.0), req(1, 20_000.0)];
        // Retrieval's share is 3.2 ms: request 1's first attempt is due
        // at 23.2 ms, its retry is offered at 23.3 ms.
        let pipe = PipelineRuntime::new(
            PipelineSpec {
                slo_us: 8_000.0,
                stages: vec![StageSpec::retrieval(64, 0.4), StageSpec::ranking(32, 0.6)],
                policy: StagePolicy::NaiveRetry,
                seed: 11,
            },
            vec![
                stage_tier(
                    &m,
                    &arch,
                    2,
                    FaultPlan::scripted(vec![stall(0, 19_990.0, 23_250.0)]),
                ),
                stage_tier(
                    &m,
                    &arch,
                    2,
                    FaultPlan::scripted(vec![stall(0, 0.0, 60_000.0)]),
                ),
            ],
        )?;
        let out = pipe.serve(&reqs)?;
        let (retrieval, ranking) = (&out.stage_stats[0], &out.stage_stats[1]);
        assert_eq!((retrieval.late, retrieval.faulted), (1, 0), "{retrieval:?}");
        assert_eq!(
            (ranking.late, ranking.faulted),
            (u64::from(NAIVE_ATTEMPTS), u64::from(NAIVE_ATTEMPTS)),
            "request 0 is late and request 1 shed on every ranking attempt: {ranking:?}"
        );
        let rec = &out.records[1];
        assert_eq!(rec.attempts, 2 + NAIVE_ATTEMPTS);
        assert!(rec.shed, "request 1 answered at {} us", rec.done_us);
        assert!(
            !out.records[0].shed,
            "request 0 keeps its late ranking answer"
        );
        Ok(())
    }

    /// A stage-0 wave lends its tier the offered payloads, and a later
    /// stage's wave the candidate batches drawn for it: no payload is
    /// copied on the way to a stage tier.
    #[test]
    fn stage_waves_borrow_their_payloads() {
        let (m, _) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 8, 42);
        // A retry wave: every other request, in reverse, 100 µs late.
        let wave: Vec<Entry> = reqs
            .iter()
            .enumerate()
            .rev()
            .step_by(2)
            .map(|(ri, r)| Entry {
                ri,
                id: r.id,
                ready_us: r.arrival_us + 100.0,
                candidates: 16,
                attempt: 1,
            })
            .collect();
        for (v, e) in wave_views(0, &wave, &reqs, &[]).iter().zip(&wave) {
            assert_eq!((v.id, v.arrival_us.to_bits()), (e.id, e.ready_us.to_bits()));
            assert!(std::ptr::eq(v.batch, &reqs[e.ri].batch), "request {}", e.id);
        }
        let derived: Vec<Batch> = wave
            .iter()
            .map(|e| Batch::generate(&m, e.candidates, e.id))
            .collect();
        let views = wave_views(1, &wave, &reqs, &derived);
        assert_eq!(views.len(), derived.len());
        for (v, d) in views.iter().zip(&derived) {
            assert!(std::ptr::eq(v.batch, d), "request {}", v.id);
        }
    }

    /// A bad stage-0 arrival or payload is the offered request's fault:
    /// the stage tier validates the borrowed request and names its id.
    #[test]
    fn non_finite_arrivals_are_request_errors() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let valid = WorkloadSpec::long_tail(300.0).stream(&m, 8, 42);
        let pipe = PipelineRuntime::new(
            budgeted_spec(
                8_000.0,
                vec![
                    StageSpec::retrieval(64, 0.4),
                    StageSpec::ranking(32, 0.6).with_ladder(vec![16]),
                ],
            ),
            vec![
                stage_tier(&m, &arch, 2, FaultPlan::none()),
                stage_tier(&m, &arch, 2, FaultPlan::none()),
            ],
        )?;
        let bad = 3;
        let expect_request_error = |reqs: &[Request], needle: &str| match pipe.serve(reqs) {
            Err(ServeError::Request { id, reason }) => {
                assert_eq!(id, reqs[bad].id);
                assert!(reason.contains(needle), "{reason}");
            }
            other => panic!("{needle}: {:?}", other.map(|_| ())),
        };
        for arrival in [f64::INFINITY, f64::NAN, f64::NEG_INFINITY] {
            let mut reqs = valid.clone();
            reqs[bad].arrival_us = arrival;
            expect_request_error(&reqs, "arrival_us");
        }
        // Malformed payloads, in the first feature with lookups.
        let f = valid[bad]
            .batch
            .features
            .iter()
            .position(|fb| !fb.indices.is_empty())
            .expect("a long-tail request has lookups");
        let mut reqs = valid.clone();
        reqs[bad].batch.features[f].indices[0] = m.features[f].table_rows;
        expect_request_error(&reqs, "out of table range");
        let mut reqs = valid.clone();
        reqs[bad].batch.features[f].indices.pop();
        expect_request_error(&reqs, "last offset must equal indices length");
        Ok(())
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let (m, arch) = setup();
        let mk_spec = |stages: Vec<StageSpec>| budgeted_spec(10_000.0, stages);
        let err = |spec: PipelineSpec, n_tiers: usize| {
            let tiers = (0..n_tiers)
                .map(|_| stage_tier(&m, &arch, 2, FaultPlan::none()))
                .collect();
            PipelineRuntime::new(spec, tiers).err()
        };
        assert!(err(mk_spec(vec![]), 0).is_some(), "no stages");
        assert!(
            err(mk_spec(vec![StageSpec::retrieval(8, 0.25); 4]), 4).is_some(),
            "too many stages"
        );
        assert!(
            err(mk_spec(vec![StageSpec::retrieval(8, 0.5)]), 2).is_some(),
            "tier count mismatch"
        );
        assert!(
            err(mk_spec(vec![StageSpec::retrieval(0, 0.5)]), 1).is_some(),
            "zero candidates"
        );
        assert!(
            err(mk_spec(vec![StageSpec::retrieval(8, 0.0)]), 1).is_some(),
            "zero budget fraction"
        );
        assert!(
            err(
                mk_spec(vec![StageSpec::ranking(8, 0.5).with_ladder(vec![4, 0])]),
                1
            )
            .is_some(),
            "zero ladder rung"
        );
        let mut bad_slo = mk_spec(vec![StageSpec::retrieval(8, 0.5)]);
        bad_slo.slo_us = f64::NAN;
        assert!(err(bad_slo, 1).is_some(), "non-finite slo");
    }

    proptest! {
        /// Budget shares never over-commit: for any fraction vector the
        /// per-stage shares are non-negative and sum to at most the
        /// end-to-end total.
        #[test]
        fn stage_shares_sum_to_at_most_the_slo(
            total in 0.0f64..100_000.0,
            len in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::for_case("stage_shares", seed);
            let fracs: Vec<f64> = (0..len).map(|_| rng.next_f64() * 4.0).collect();
            let shares = DeadlineBudget::stage_shares(total, &fracs);
            prop_assert_eq!(shares.len(), fracs.len());
            for s in &shares {
                prop_assert!(*s >= 0.0);
            }
            let sum: f64 = shares.iter().sum();
            prop_assert!(sum <= total * (1.0 + 1e-12) + 1e-9, "{} > {}", sum, total);
        }

        /// An exhausted budget never goes negative, no matter what gets
        /// consumed (including bogus negative charges).
        #[test]
        fn budget_remaining_is_never_negative(
            total in 0.0f64..50_000.0,
            len in 0usize..12,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = proptest::TestRng::for_case("budget_charges", seed);
            // Charges in [-1000, 20000): bogus negative charges included.
            let charges: Vec<f64> = (0..len).map(|_| rng.next_f64() * 21_000.0 - 1_000.0).collect();
            let mut budget = DeadlineBudget::new(total);
            let mut prev = budget.remaining_us();
            for c in charges {
                budget.consume(c);
                let rem = budget.remaining_us();
                prop_assert!(rem >= 0.0, "remaining {} < 0", rem);
                prop_assert!(rem <= prev + 1e-12, "remaining must be monotone");
                prev = rem;
            }
            prop_assert!(budget.spent_us() >= 0.0);
            prop_assert!(budget.total_us() >= 0.0);
        }
    }
}
