//! The serving tier: the one discrete-event loop every deployment runs.
//!
//! A seeded request stream enters an admission gate (SLO-aware load
//! shedding), flows through the batching policy (forward unsplit, split
//! at a cap, or coalesce dynamically), and executes on `N` simulated GPUs
//! the TorchRec way: the model's features are partitioned by a
//! [`Placement`], every admitted device batch is *projected* onto each
//! shard's feature subset, and the per-shard fused kernels run
//! concurrently on independent devices — each with its own FIFO launch
//! queue and processor-sharing executor. A chunk's embedding output is
//! only usable once every shard has finished **and** the pooled rows have
//! been exchanged, so the latency model appends a ring all-gather
//! (bytes = rows × concatenated dim × 4, over a configurable
//! [`Interconnect`]) gated by the *slowest* shard. Stragglers are
//! first-class observables: every record carries the gap between the
//! fastest and slowest shard for its chunks, and the report breaks
//! latency into queue + device + gather.
//!
//! A single-GPU deployment is a 1-shard tier
//! ([`ShardedServeRuntime::single_device`]): the projection is the
//! identity, the gather is free, and there are no gather, fault or hedge
//! events, so a request's latency is its queue wait plus device time.
//!
//! A drift monitor watches admitted traffic and can trigger a
//! *background* retune supervised by the
//! [`LifecycleMachine`](crate::lifecycle): the attempt may fail or stall,
//! a successful candidate may be canaried against the incumbent before a
//! (staged) promotion, and failures retry with exponential backoff — all
//! at later simulated timestamps, so serving never pauses.
//!
//! Everything is event-driven over simulated time. Simultaneous events
//! resolve in the fixed priority of `EventKind` — completion ≺ gather ≺
//! lifecycle ≺ fault ≺ hedge ≺ arrival ≺ flush — so a run is a pure
//! function of `(config, request stream, backends, fault plan, lifecycle
//! plan)`: replaying the same seed yields a bit-identical
//! [`ShardedReport`].
//!
//! Batch shaping (unsplit / split / dynamic coalescing) happens *before*
//! the fan-out and copies nothing: a device chunk is a list of
//! `(request, sample range)` parts, and each shard gathers its own
//! features of those ranges ([`Batch::gather`]) when it prices the chunk.
//! All shards always see the same sample axis for a chunk, which is what
//! keeps the all-gather well-defined.
//!
//! ## Faults and the degradation ladder
//!
//! The tier's [`FaultPlan`] drives per-shard throughput (slowdown /
//! stall), lane death (crash) and gather bandwidth (link degradation) at
//! precomputed transition timestamps — fault transitions are ordinary
//! events in the same deterministic loop. The response side is one
//! choice, [`ShardedServeRuntime::mitigated`], and every threshold in it
//! is a fixed fraction of the SLO:
//!
//! * **hedging** — a chunk still running a quarter of the SLO after
//!   fan-out gets a copy of each undelivered shard slice submitted to
//!   that shard's standby replica lane. First finisher wins, the sibling
//!   is cancelled.
//! * **failover** — a crash drops the lane's resident and queued kernels;
//!   each lost chunk-shard work item is re-executed on the shard's
//!   replica (which runs the same sub-model, so the re-executed cost
//!   equals the original).
//! * **the ladder** — graded on the tier's worst *effective* backlog
//!   (device-µs owed ÷ current throughput; a stalled lane is infinitely
//!   backlogged). Past half the SLO the hedge stops; past three quarters
//!   of it chunks touched by a crashed shard are served with that shard's
//!   features zero-pooled and flagged `degraded` instead of re-executed —
//!   availability degrades before goodput.
//!
//! An unmitigated tier is the baseline: a crashed lane freezes with its
//! queue intact (the restart-from-checkpoint model) and the tier simply
//! sheds under the resulting backlog, which is exactly what the chaos
//! gate proves is worse. With an empty plan and no mitigation every rate
//! is 1 and every branch below falls through to the fault-free
//! arithmetic, so no-fault runs stay bit-for-bit identical to the
//! pre-fault tier.

use std::collections::HashMap;
use std::ops::Range;

use recflex_baselines::{cost_each, Backend, BackendError, CostReport};
use recflex_data::{Batch, ModelConfig, Placement, SplitError};
use recflex_embedding::TableSet;
use recflex_sim::{GpuArch, Interconnect};

use crate::drift::{self, DriftMonitor};
use crate::executor::DeviceExecutor;
use crate::faults::{FaultKind, FaultPlan};
use crate::lifecycle::{
    CanaryVerdict, LifecycleConfig, LifecycleMachine, RegressedBackend, RetuneOutcome, TimerAction,
};
use crate::request::{Request, RequestRef};
use crate::runtime::{BatchPolicy, ServeConfig, ServeError, TunedCandidate};
use crate::stats::{
    RequestRecord, ShardLaneStats, ShardedReport, ShardedRequestRecord, ShedReason,
};

/// Drift-triggered background retuning. One drift monitor watches the
/// *full* admitted batches; when it fires (and the [`LifecycleConfig`]
/// machine is in steady state) the retuner is invoked once per shard with
/// that shard's sub-model and the recent window projected onto its
/// features (on a 1-shard tier: the whole model and the window itself).
/// The retune costs [`RETUNE_LATENCY_US`](crate::lifecycle::RETUNE_LATENCY_US)
/// of simulated time while the old engines keep serving. A successful
/// candidate set is promoted per the lifecycle config: blindly at the
/// retune timestamp, or — canaried — shadow-executed, compared per shard,
/// and rolled out **staged** shard-by-shard
/// ([`STAGGER_US`](crate::lifecycle::STAGGER_US) apart), aborting and
/// restoring every already-swapped shard if any canary regresses.
pub struct ShardedRetunePolicy<'a> {
    /// Outcome injection, canarying, and cooldown for each attempt.
    pub lifecycle: LifecycleConfig,
    /// Builds a new per-shard backend from the shard's sub-model and
    /// recent traffic projected onto it.
    #[allow(clippy::type_complexity)]
    pub retuner: Box<dyn FnMut(&ModelConfig, &[Batch]) -> TunedCandidate + 'a>,
}

/// One shard's serving lane: the sub-model it owns, its tables and the
/// engine compiled for it. The engine may borrow (`Box::new(&engine)`),
/// so a tier can serve an engine it does not own.
pub struct ShardLane<'a> {
    /// The features this shard serves, as a model.
    pub model: ModelConfig,
    /// The shard's embedding tables.
    pub tables: TableSet,
    /// The engine serving this shard.
    pub backend: Box<dyn Backend + 'a>,
}

impl<'a> ShardLane<'a> {
    fn new(model: ModelConfig, backend: Box<dyn Backend + 'a>) -> Self {
        ShardLane {
            tables: TableSet::for_model(&model),
            model,
            backend,
        }
    }
}

/// The sharded serving runtime: one model partitioned over `N` devices.
pub struct ShardedServeRuntime<'a> {
    /// Feature → device partition.
    pub placement: Placement,
    /// Per-device lanes, indexed by device.
    pub lanes: Vec<ShardLane<'a>>,
    /// The full model (for gather sizing).
    pub model: &'a ModelConfig,
    /// The simulated device type (same for every shard).
    pub arch: &'a GpuArch,
    /// Runtime configuration, shared across shards.
    pub config: ServeConfig,
    /// The link pooled outputs are gathered over.
    pub interconnect: Interconnect,
    /// The faults injected into the run. The empty default is the exact
    /// pre-fault serving tier.
    pub faults: FaultPlan,
    /// Crash and straggler mitigation, derived from the SLO
    /// ([`ServeConfig::slo_deadline_us`], which a mitigated tier must
    /// set): one standby replica lane per shard, hedging at a quarter of
    /// the SLO, crash failover onto the replica, and a degradation ladder
    /// that drops the hedge above half the SLO of backlog and zero-pools
    /// crashed shards above three quarters of it. `false` is the
    /// no-mitigation baseline, where a crashed lane holds its queue
    /// frozen until recovery (the restart-from-checkpoint model) and the
    /// tier sheds under the resulting backlog.
    pub mitigated: bool,
}

impl<'a> ShardedServeRuntime<'a> {
    /// A single-GPU deployment: a 1-shard tier serving `backend` over the
    /// whole model, with no faults and no mitigation.
    pub fn single_device(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        config: ServeConfig,
        backend: impl Backend + 'a,
    ) -> Self {
        let placement = Placement::balance(model, 1);
        ShardedServeRuntime {
            lanes: vec![ShardLane::new(
                placement.sub_model(model, 0),
                Box::new(backend),
            )],
            placement,
            model,
            arch,
            config,
            interconnect: Interconnect::ideal(),
            faults: FaultPlan::none(),
            mitigated: false,
        }
    }

    /// Build the tier: partition `model` by `placement` and compile one
    /// lane per device with `make_backend`, called once per device in
    /// device order, with each lane's sub-model
    /// ([`Placement::sub_model`]). A caller holding engines tuned ahead
    /// of time can therefore hand them out by counting calls. The tier
    /// starts with no faults and no mitigation.
    pub fn build(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        placement: Placement,
        config: ServeConfig,
        interconnect: Interconnect,
        make_backend: impl Fn(&ModelConfig) -> Box<dyn Backend + 'a>,
    ) -> Self {
        assert_eq!(placement.device_of.len(), model.features.len());
        let lanes = (0..placement.num_devices)
            .map(|dev| {
                let sub_model = placement.sub_model(model, dev);
                let backend = make_backend(&sub_model);
                ShardLane::new(sub_model, backend)
            })
            .collect();
        ShardedServeRuntime {
            placement,
            lanes,
            model,
            arch,
            config,
            interconnect,
            faults: FaultPlan::none(),
            mitigated: false,
        }
    }

    /// The SLO every mitigation threshold derives from, when the tier is
    /// mitigated. [`Self::run`] refuses a mitigated tier without one.
    fn mitigation_slo_us(&self) -> Option<f64> {
        self.config.slo_deadline_us.filter(|_| self.mitigated)
    }

    /// Serve a request stream across all shards.
    pub fn serve(&self, requests: &[Request]) -> Result<ShardedReport, ServeError> {
        self.serve_refs(&views(requests))
    }

    /// [`Self::serve`] over borrowed requests: how a pipeline stage or a
    /// fleet member offers the tier payloads it does not own.
    pub(crate) fn serve_refs(
        &self,
        requests: &[RequestRef<'_>],
    ) -> Result<ShardedReport, ServeError> {
        self.run(requests, None, None)
    }

    /// Serve with a per-request **absolute** admission deadline
    /// (`deadlines[i]` is the wall-clock µs instant request `i` must
    /// finish by). Overrides the uniform [`ServeConfig::slo_deadline_us`]
    /// gate: a request sheds at admission when its remaining time is
    /// already spent or the worst per-shard backlog exceeds it. This is
    /// the plumbing a pipeline stage uses to thread its share of the
    /// end-to-end SLO budget through the tier, over payloads it borrows.
    /// The vector must have one non-NaN entry per request.
    pub fn serve_with_deadlines(
        &self,
        requests: &[RequestRef<'_>],
        deadlines: &[f64],
    ) -> Result<ShardedReport, ServeError> {
        self.run(requests, None, Some(deadlines))
    }

    /// Serve a request stream with drift-triggered background retuning
    /// supervised by the schedule lifecycle (see [`ShardedRetunePolicy`]).
    pub fn serve_with_retune(
        &self,
        requests: &[Request],
        retune: &mut ShardedRetunePolicy<'_>,
    ) -> Result<ShardedReport, ServeError> {
        self.run(&views(requests), Some(retune), None)
    }

    fn run(
        &self,
        requests: &[RequestRef<'_>],
        mut retune: Option<&mut ShardedRetunePolicy<'_>>,
        deadlines: Option<&[f64]>,
    ) -> Result<ShardedReport, ServeError> {
        match self.config.policy {
            BatchPolicy::Split { cap: 0 } => {
                return Err(ServeError::Policy("split cap must be at least 1"))
            }
            BatchPolicy::Dynamic {
                max_batch,
                max_wait_us,
            }
            | BatchPolicy::DynamicPacked {
                max_batch,
                max_wait_us,
            } => {
                if max_batch == 0 {
                    return Err(ServeError::Policy("dynamic max_batch must be at least 1"));
                }
                if !max_wait_us.is_finite() || max_wait_us < 0.0 {
                    return Err(ServeError::Policy(
                        "dynamic max_wait_us must be finite and >= 0",
                    ));
                }
            }
            _ => {}
        }
        if self.config.hot_shard_cap == Some(0) {
            return Err(ServeError::Policy("hot_shard_cap must be at least 1"));
        }
        if self.lanes.iter().any(|l| l.model.features.is_empty()) {
            return Err(ServeError::Policy(
                "every shard must own at least one feature",
            ));
        }
        // `backlog > NaN` is false, so a NaN deadline would silently
        // admit everything.
        if self.config.slo_deadline_us.is_some_and(f64::is_nan) {
            return Err(ServeError::Policy("slo_deadline_us must not be NaN"));
        }
        if self.mitigated && self.config.slo_deadline_us.is_none() {
            return Err(ServeError::Policy(
                "a mitigated tier derives its thresholds from slo_deadline_us, which must be set",
            ));
        }
        // A zero bandwidth or an infinite base latency prices every gather
        // at +∞; a NaN bandwidth or a negative base latency prices it at
        // 0 µs or less.
        let link = &self.interconnect;
        if link.bandwidth_gbps.is_nan() || link.bandwidth_gbps <= 0.0 {
            return Err(ServeError::Policy(
                "interconnect bandwidth_gbps must be positive",
            ));
        }
        if !link.base_latency_us.is_finite() || link.base_latency_us < 0.0 {
            return Err(ServeError::Policy(
                "interconnect base_latency_us must be finite and >= 0",
            ));
        }
        for fault in &self.faults.faults {
            if fault.kind.shard().is_some_and(|s| s >= self.lanes.len()) {
                return Err(ServeError::Policy(
                    "a fault names a shard the tier does not have",
                ));
            }
            match fault.kind {
                FaultKind::LinkDegrade { factor } if !factor.is_finite() => {
                    return Err(ServeError::Policy("a LinkDegrade factor must be finite"));
                }
                // A NaN rate stalls the lane without counting downtime.
                FaultKind::Slowdown { rate, .. } if rate.is_nan() => {
                    return Err(ServeError::Policy("a Slowdown rate must not be NaN"));
                }
                _ => {}
            }
        }
        // Requests before deadlines: a pipeline stage derives each
        // deadline from its request's arrival, and a bad arrival is the
        // fault to name.
        for r in requests {
            r.check_arrival()?;
            r.batch
                .validate(self.model)
                .map_err(|reason| ServeError::Request { id: r.id, reason })?;
        }
        if let Some(d) = deadlines {
            if d.len() != requests.len() {
                return Err(ServeError::Policy(
                    "deadlines must be given for every request",
                ));
            }
            if d.iter().any(|t| t.is_nan()) {
                return Err(ServeError::Policy("deadlines must not be NaN"));
            }
        }

        let n = requests.len();
        let num_shards = self.placement.num_devices;
        let replicas = if self.mitigated { num_shards } else { 0 };
        let mut st = ShardedRunState {
            executors: (0..num_shards + replicas)
                .map(|_| DeviceExecutor::new(self.config.streams))
                .collect(),
            lane_stats: vec![ShardLaneStats::default(); num_shards],
            replica_stats: vec![ShardLaneStats::default(); replicas],
            records: vec![None; n],
            remaining_chunks: vec![0u32; n],
            first_start_us: vec![f64::INFINITY; n],
            device_done_us: vec![0.0f64; n],
            last_done_us: vec![0.0f64; n],
            straggler_us: vec![0.0f64; n],
            degraded: vec![false; n],
            arrival_eff_us: requests.iter().map(|r| r.arrival_us).collect(),
            chunks: HashMap::new(),
            job_info: HashMap::new(),
            pending_gathers: Vec::new(),
            pending_deadlines: Vec::new(),
            was_crashed: vec![false; num_shards],
            next_chunk: 0,
            next_job: 0,
            launches: 0,
            hedge_fires: 0,
            hedge_wins: 0,
            failovers: 0,
            buffer: Vec::new(),
            buffer_size: 0,
            buffer_oldest_us: f64::INFINITY,
            features_of: (0..num_shards)
                .map(|s| self.placement.features_on(s))
                .collect(),
            monitor: retune.as_ref().map(|_| DriftMonitor::for_model(self.model)),
            recent: Vec::new(),
            machine: retune
                .as_ref()
                .map(|r| LifecycleMachine::new(r.lifecycle.clone(), num_shards)),
            candidates: (0..num_shards).map(|_| None).collect(),
            promoted: (0..num_shards).map(|_| None).collect(),
            displaced: Vec::new(),
        };

        let transitions = self.faults.transitions();
        let mut fault_cursor = 0usize;
        let mut cursor = 0usize;
        let mut now = 0.0f64;

        loop {
            // Candidate events, probed in `EventKind` priority order.
            st.pending_deadlines
                .retain(|&(_, c)| st.chunks.contains_key(&c));
            let mut next: Option<(f64, EventKind)> = None;
            let mut consider = |t: Option<f64>, kind: EventKind| {
                if let Some(t) = t {
                    if next.is_none_or(|(bt, _)| t < bt) {
                        next = Some((t, kind));
                    }
                }
            };
            let completion_t = st
                .executors
                .iter()
                .filter_map(|e| e.next_completion_us())
                .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.min(t))));
            consider(completion_t, EventKind::Completion);
            let gather_t = st
                .pending_gathers
                .iter()
                .map(|&(t, _)| t)
                .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.min(t))));
            consider(gather_t, EventKind::Gather);
            consider(
                st.machine
                    .as_ref()
                    .and_then(LifecycleMachine::next_timer_us),
                EventKind::Lifecycle,
            );
            // Fault transitions matter only while the run is live; once
            // every request is resolved there is nothing left to break,
            // and skipping the tail keeps the makespan a completion
            // timestamp.
            let live = cursor < n
                || !st.all_idle()
                || !st.buffer.is_empty()
                || !st.pending_gathers.is_empty();
            if live && fault_cursor < transitions.len() {
                consider(Some(transitions[fault_cursor].max(now)), EventKind::Fault);
            }
            let deadline_t = st
                .pending_deadlines
                .iter()
                .map(|&(t, _)| t)
                .fold(None, |m: Option<f64>, t| Some(m.map_or(t, |m| m.min(t))));
            consider(deadline_t, EventKind::Hedge);
            let arrival_t = if cursor < n {
                if self.config.closed_loop {
                    // Admit only when the previous request fully drained,
                    // gathers included.
                    (st.all_idle() && st.buffer.is_empty() && st.pending_gathers.is_empty())
                        .then_some(now)
                } else {
                    Some(requests[cursor].arrival_us.max(now))
                }
            } else {
                None
            };
            consider(arrival_t, EventKind::Arrival);
            let flush_t = match self.config.policy {
                BatchPolicy::Dynamic { max_wait_us, .. }
                | BatchPolicy::DynamicPacked { max_wait_us, .. }
                    if !st.buffer.is_empty() =>
                {
                    Some((st.buffer_oldest_us + max_wait_us).max(now))
                }
                _ => None,
            };
            consider(flush_t, EventKind::Flush);

            let Some((t, kind)) = next else { break };
            now = t;

            match kind {
                EventKind::Completion => {
                    for ex in &mut st.executors {
                        ex.advance_to(now);
                    }
                    st.collect_completions(self, requests)?;
                    // Work-conserving: idle devices drain the batcher.
                    if st.all_idle() && !st.buffer.is_empty() {
                        st.flush_buffer(now, self, requests)?;
                    }
                }
                EventKind::Gather => {
                    st.retire_gathers(now, requests)?;
                }
                EventKind::Lifecycle => {
                    let action = match st.machine.as_mut() {
                        Some(m) => m.on_timer(now),
                        None => TimerAction::Noop,
                    };
                    match action {
                        TimerAction::PromoteAll => st.promote_all_shards(requests)?,
                        TimerAction::PromoteShard(s) => st.promote_shard(s, requests)?,
                        TimerAction::DropCandidate | TimerAction::RollBackAll => {
                            st.roll_back_engines();
                        }
                        TimerAction::Retry => {
                            if let Some(policy) = retune.as_deref_mut() {
                                st.launch_attempt(now, self, policy, requests);
                            }
                        }
                        TimerAction::BeginCanary | TimerAction::Noop => {}
                    }
                }
                EventKind::Fault => {
                    while fault_cursor < transitions.len() && transitions[fault_cursor] <= now {
                        fault_cursor += 1;
                    }
                    st.apply_fault_transitions(now, self, requests)?;
                }
                EventKind::Hedge => {
                    st.fire_deadlines(now, self, requests)?;
                }
                EventKind::Arrival => {
                    st.admit(cursor, now, self, requests, &mut retune, deadlines)?;
                    cursor += 1;
                }
                EventKind::Flush => {
                    st.flush_buffer(now, self, requests)?;
                }
            }
        }

        debug_assert!(st.records.iter().all(Option::is_some));
        for (s, stats) in st.lane_stats.iter_mut().enumerate() {
            stats.downtime_us = self.faults.downtime_us(s, now);
        }
        let (lifecycle, lifecycle_trace) = st
            .machine
            .map(LifecycleMachine::into_parts)
            .unwrap_or_default();
        Ok(ShardedReport {
            records: st.records.into_iter().flatten().collect(),
            per_shard: st.lane_stats,
            per_replica: st.replica_stats,
            kernel_launches: st.launches,
            hedge_fires: st.hedge_fires,
            hedge_wins: st.hedge_wins,
            failovers: st.failovers,
            makespan_us: now,
            lifecycle,
            lifecycle_trace,
        })
    }
}

/// Each request's view, in stream order: what the `&[Request]` entries
/// hand the event loop.
fn views(requests: &[Request]) -> Vec<RequestRef<'_>> {
    requests.iter().map(Request::view).collect()
}

/// Which event fires next; declaration order is the tie-break priority
/// for simultaneous events. `Lifecycle` follows `Completion` (and the
/// gathers that completions start), so a blind-swap promotion lands at
/// the same priority whatever the shard count.
#[derive(PartialEq, Eq, PartialOrd, Ord, Clone, Copy, Debug)]
enum EventKind {
    Completion,
    Gather,
    Lifecycle,
    Fault,
    Hedge,
    Arrival,
    Flush,
}

/// What one device job is doing for the tier. One chunk fans out to one
/// job per shard in the healthy case, but hedges and failovers mean a
/// shard's slice of a chunk can be in flight on several lanes at once —
/// job ids are globally unique and this record maps them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobRole {
    /// The original fan-out job on the shard's own lane.
    Primary,
    /// A deadline-triggered duplicate racing the primary on a replica.
    Hedge,
    /// A re-execution of work lost to (or blocked by) a crash.
    Failover,
}

#[derive(Debug, Clone, Copy)]
struct JobInfo {
    chunk: u64,
    shard: usize,
    /// Executor index (primary lanes first, then replicas).
    lane: usize,
    role: JobRole,
    /// Whether the kernel has left the FIFO queue.
    started: bool,
    /// Whether this job's start gates the chunk's start accounting.
    /// Primaries count; hedges never do (the race is extra capacity, not
    /// the request's critical path); failovers inherit the slot of the
    /// job they replace.
    counts_start: bool,
}

/// In-flight bookkeeping for one device chunk fanned out over all shards.
struct ChunkState {
    owners: Vec<usize>,
    /// Samples in the chunk (sizes the all-gather).
    rows: u32,
    /// Original per-shard kernel cost, µs — what a hedge or failover
    /// re-submits (the replica runs the identical sub-model).
    work_us: Vec<f64>,
    /// Kernel launches per shard, re-counted on re-execution.
    launches_of: Vec<u32>,
    /// Which shards have delivered (first finisher wins) or been
    /// zero-pooled.
    shard_done: Vec<bool>,
    /// Outstanding job ids per shard (primary + hedge + failover).
    active_jobs: Vec<Vec<u64>>,
    pending_shards: usize,
    /// Start-gating slots still open (see [`JobInfo::counts_start`]).
    pending_starts: usize,
    gating_registered: bool,
    any_start: bool,
    /// Latest gating kernel start seen so far. A chunk only counts as
    /// "on the device" once its *gating* (last-starting) lane picked it
    /// up; until then it is queue time, just as a 1-shard tier counts
    /// its one lane's launch-queue wait.
    start_max_us: f64,
    /// Earliest / latest real per-shard completion seen so far.
    done_min_us: f64,
    done_max_us: f64,
    /// Whether any shard delivered a real (non-zero-pooled) result.
    real_done: bool,
    /// Whether any shard was zero-pooled.
    degraded: bool,
}

struct ShardedRunState {
    /// Primary lanes `0..num_shards`, then (when mitigated) the replica
    /// lane of each shard in shard order: shard `s`'s replica is lane
    /// `num_shards + s`.
    executors: Vec<DeviceExecutor>,
    lane_stats: Vec<ShardLaneStats>,
    replica_stats: Vec<ShardLaneStats>,
    records: Vec<Option<ShardedRequestRecord>>,
    remaining_chunks: Vec<u32>,
    first_start_us: Vec<f64>,
    /// Last per-shard kernel completion over the request's chunks.
    device_done_us: Vec<f64>,
    /// Last gather completion over the request's chunks.
    last_done_us: Vec<f64>,
    /// Worst chunk straggler gap over the request's chunks.
    straggler_us: Vec<f64>,
    /// Whether any of the request's chunks was served partial.
    degraded: Vec<bool>,
    arrival_eff_us: Vec<f64>,
    chunks: HashMap<u64, ChunkState>,
    job_info: HashMap<u64, JobInfo>,
    /// Gathers in flight: (completion timestamp, chunk id).
    pending_gathers: Vec<(f64, u64)>,
    /// Hedge deadlines in flight: (fire timestamp, chunk id).
    pending_deadlines: Vec<(f64, u64)>,
    was_crashed: Vec<bool>,
    next_chunk: u64,
    next_job: u64,
    launches: u64,
    hedge_fires: u64,
    hedge_wins: u64,
    failovers: u64,
    /// Samples waiting in the dynamic batcher, in arrival order: the
    /// whole request under `Dynamic`, a boundary-split head or tail under
    /// `DynamicPacked`.
    buffer: Vec<Part>,
    buffer_size: u32,
    buffer_oldest_us: f64,
    /// Each shard's features ([`Placement::features_on`]), listed once
    /// per run.
    features_of: Vec<Vec<usize>>,
    /// Drift monitor over full admitted batches (retuning only).
    monitor: Option<DriftMonitor>,
    /// Indices of the most recent admitted requests (drift window),
    /// oldest first.
    recent: Vec<usize>,
    /// The lifecycle state machine (present iff retuning is on).
    machine: Option<LifecycleMachine>,
    /// Per-shard candidate engines from the current attempt, awaiting
    /// canary verdict or staged promotion.
    candidates: Vec<Option<Box<dyn Backend>>>,
    /// Per-shard promoted engines. `None` means the lane's built-in
    /// backend serves; run-local so `serve` stays `&self` and replayable.
    promoted: Vec<Option<Box<dyn Backend>>>,
    /// Engines the current staged rollout swapped out, restored if it
    /// aborts: `(shard, engine that served before)`.
    displaced: Vec<(usize, Option<Box<dyn Backend>>)>,
}

/// One request's run of samples in a device chunk: `(request index,
/// sample range)` into the served requests.
type Part = (usize, Range<u32>);

/// Samples in `parts`.
fn samples(parts: &[Part]) -> u32 {
    parts.iter().map(|(_, r)| r.end - r.start).sum()
}

/// Cut `parts` into consecutive chunks of at most `cap` samples, where
/// [`Batch::split`] would cut their concatenation; a part that straddles
/// a cut is cut in two. No samples, no chunks.
fn cut_parts(parts: &[Part], cap: u32) -> Result<Vec<Vec<Part>>, SplitError> {
    if cap == 0 {
        return Err(SplitError::ZeroCap);
    }
    let mut chunks = Vec::new();
    let mut open = Vec::new();
    let mut size = 0;
    for (ri, r) in parts {
        let mut start = r.start;
        while start < r.end {
            let end = start + (r.end - start).min(cap - size);
            open.push((*ri, start..end));
            size += end - start;
            start = end;
            if size == cap {
                chunks.push(std::mem::take(&mut open));
                size = 0;
            }
        }
    }
    if !open.is_empty() {
        chunks.push(open);
    }
    Ok(chunks)
}

/// A mitigated tier's degradation-ladder rung at effective backlog
/// `backlog_us` under SLO `slo_us`: rung 1 (the hedge is dropped —
/// duplicate work is the wrong spend when every lane is behind) above
/// half the SLO, rung 2 (crashed-shard slices are zero-pooled instead of
/// failed over) above three quarters of it. Thresholds are exclusive.
///
/// Backlog is itself an integral of pressure — it only exceeds a
/// threshold after demand has outrun capacity for a sustained stretch —
/// so grading on it implements "sustained SLO pressure" without a
/// separate hysteresis clock.
fn ladder_rung(backlog_us: f64, slo_us: f64) -> u8 {
    if backlog_us > 0.75 * slo_us {
        2
    } else if backlog_us > slo_us / 2.0 {
        1
    } else {
        0
    }
}

impl ShardedRunState {
    fn num_shards(&self) -> usize {
        self.lane_stats.len()
    }

    fn all_idle(&self) -> bool {
        self.executors.iter().all(|e| e.is_idle())
    }

    /// The tier's worst effective backlog: device-µs owed divided by the
    /// lane's current throughput. A lane that cannot progress (crash or
    /// stall, rate 0) is infinitely backlogged when nothing will re-home
    /// its work — but with mitigation armed its work moves to hedges,
    /// failovers or the zero-pool, so the lane is *skipped* and the real
    /// pressure shows up on the replica lanes that absorb it. At the
    /// healthy rate of 1 the division is an exact IEEE identity, so the
    /// fault-free path is bit-for-bit the old raw-backlog admission test.
    fn max_effective_backlog_us(&self, rt: &ShardedServeRuntime<'_>) -> f64 {
        let mut worst = 0.0f64;
        for ex in &self.executors[..self.num_shards()] {
            let backlog = ex.backlog_us();
            if backlog <= 0.0 {
                continue;
            }
            let rate = ex.rate();
            let eff = if rate > 0.0 {
                backlog / rate
            } else if rt.mitigated {
                continue;
            } else {
                f64::INFINITY
            };
            worst = worst.max(eff);
        }
        for ex in &self.executors[self.num_shards()..] {
            worst = worst.max(ex.backlog_us());
        }
        worst
    }

    /// The degradation ladder's rung, graded on the raw worst effective
    /// backlog; 0 when the tier is not mitigated.
    fn ladder_level(&self, rt: &ShardedServeRuntime<'_>) -> u8 {
        rt.mitigation_slo_us()
            .map_or(0, |slo| ladder_rung(self.max_effective_backlog_us(rt), slo))
    }

    /// The engine serving shard `s`: the promoted candidate if a
    /// lifecycle promotion installed one, else the lane's own backend.
    fn engine_of<'rt>(&'rt self, rt: &'rt ShardedServeRuntime<'_>, s: usize) -> &'rt dyn Backend {
        self.promoted[s]
            .as_deref()
            .unwrap_or(rt.lanes[s].backend.as_ref())
    }

    /// Price the chunk `parts` on each listed `(shard, engine)`: each
    /// shard gathers its slice ([`Batch::gather`]) and prices it with
    /// `Backend::cost`, all shards at once on the pool, as each device of
    /// a sharded deployment computes its own thread mapping. Results come
    /// back in list order, so callers fold them exactly as a sequential
    /// loop would.
    fn price_slices(
        &self,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
        parts: &[Part],
        engines: &[(usize, &dyn Backend)],
    ) -> Vec<Result<CostReport, BackendError>> {
        let ranges: Vec<(&Batch, Range<u32>)> = parts
            .iter()
            .map(|(ri, r)| (requests[*ri].batch, r.clone()))
            .collect();
        let features_of = &self.features_of;
        cost_each(engines, |&(s, engine)| {
            let lane = &rt.lanes[s];
            let slice = Batch::gather(&ranges, &features_of[s]);
            engine.cost(&lane.model, &lane.tables, &slice, rt.arch)
        })
    }

    /// Start a retune attempt: draw the scripted outcome, and — when the
    /// retuner actually produces engines — compile one candidate per
    /// shard against that shard's slice of the recent traffic.
    fn launch_attempt(
        &mut self,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        policy: &mut ShardedRetunePolicy<'_>,
        requests: &[RequestRef<'_>],
    ) {
        let outcome = match self.machine.as_mut() {
            Some(m) => m.begin_attempt(now),
            None => return,
        };
        if let Some(mon) = self.monitor.as_mut() {
            mon.reset_window();
        }
        match outcome {
            RetuneOutcome::CompileFail | RetuneOutcome::Stall => {
                for c in &mut self.candidates {
                    *c = None;
                }
            }
            RetuneOutcome::Success | RetuneOutcome::Regression { .. } => {
                for s in 0..self.num_shards() {
                    let projected: Vec<Batch> = self
                        .recent
                        .iter()
                        .map(|&ri| rt.placement.project_batch(requests[ri].batch, s))
                        .collect();
                    let tuned = (policy.retuner)(&rt.lanes[s].model, &projected);
                    if let (Some(t), Some(m)) = (tuned.tuning, self.machine.as_mut()) {
                        m.record_tuning(t);
                    }
                    let engine: Box<dyn Backend> =
                        if let RetuneOutcome::Regression { slowdown } = outcome {
                            Box::new(RegressedBackend::new(tuned.backend, slowdown))
                        } else {
                            tuned.backend
                        };
                    self.candidates[s] = Some(engine);
                }
            }
        }
    }

    /// Install every shard's candidate at once (blind swap, or a canary
    /// window that cleared with no stagger).
    fn promote_all_shards(&mut self, requests: &[RequestRef<'_>]) -> Result<(), ServeError> {
        for s in 0..self.candidates.len() {
            self.promote_shard(s, requests)?;
        }
        Ok(())
    }

    /// Install one shard's candidate. During a staged rollout the engine
    /// it replaces is kept for an abort; once the rollout is complete the
    /// drift monitor rebases and the candidate set is the incumbent.
    fn promote_shard(&mut self, s: usize, requests: &[RequestRef<'_>]) -> Result<(), ServeError> {
        let candidate = self.candidates[s]
            .take()
            .ok_or(ServeError::Internal("promotion without a candidate engine"))?;
        let previous = self.promoted[s].replace(candidate);
        if self.machine.as_ref().is_some_and(|m| m.in_canary()) {
            self.displaced.push((s, previous));
        } else if self.candidates.iter().all(Option::is_none) {
            // The last shard landed (a blind swap installs every shard
            // first): the rollout can no longer abort.
            self.displaced.clear();
            self.rebase_monitor(requests);
        }
        Ok(())
    }

    /// Drop every candidate and put back the engines the current rollout
    /// displaced. Engines promoted by earlier, completed rollouts stay.
    fn roll_back_engines(&mut self) {
        for c in &mut self.candidates {
            *c = None;
        }
        for (s, previous) in self.displaced.drain(..) {
            self.promoted[s] = previous;
        }
    }

    /// Re-anchor the drift monitor on the traffic the new engines were
    /// tuned for, so the mix that forced the retune reads as baseline.
    fn rebase_monitor(&mut self, requests: &[RequestRef<'_>]) {
        if let Some(mon) = self.monitor.as_mut() {
            let (lk, sm) = self.recent.iter().fold((0.0, 0.0), |(l, s), &ri| {
                let b = requests[ri].batch;
                (l + b.total_lookups() as f64, s + b.batch_size as f64)
            });
            if sm > 0.0 {
                mon.rebase(lk / sm);
            }
        }
    }

    fn admit(
        &mut self,
        ri: usize,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
        retune: &mut Option<&mut ShardedRetunePolicy<'_>>,
        deadlines: Option<&[f64]>,
    ) -> Result<(), ServeError> {
        let req = &requests[ri];
        self.arrival_eff_us[ri] = if rt.config.closed_loop {
            now
        } else {
            req.arrival_us
        };

        // SLO admission: the slowest shard gates a chunk, so the tier's
        // effective backlog is the worst per-shard backlog. A shed that
        // happens while a fault is active is capacity loss, not traffic —
        // record the reason so chaos reports can tell them apart. A
        // per-request absolute deadline (a pipeline stage's remaining
        // budget share) overrides the uniform config gate.
        let admission_window = match deadlines {
            Some(d) => Some(d[ri] - self.arrival_eff_us[ri]),
            None => rt.config.slo_deadline_us,
        };
        if let Some(deadline) = admission_window {
            if deadline < 0.0 || self.max_effective_backlog_us(rt) > deadline {
                let reason = if rt.faults.any_active(now) {
                    ShedReason::Fault
                } else {
                    ShedReason::Admission
                };
                self.records[ri] = Some(ShardedRequestRecord {
                    base: RequestRecord {
                        id: req.id,
                        batch_size: req.batch.batch_size,
                        arrival_us: self.arrival_eff_us[ri],
                        queue_us: 0.0,
                        service_us: 0.0,
                        done_us: self.arrival_eff_us[ri],
                        shed: reason,
                    },
                    device_us: 0.0,
                    gather_us: 0.0,
                    straggler_us: 0.0,
                    degraded: false,
                });
                return Ok(());
            }
        }

        // Drift monitoring sees every admitted batch (full, pre-fan-out).
        if let Some(policy) = retune.as_deref_mut() {
            self.recent.push(ri);
            if self.recent.len() > drift::WINDOW {
                self.recent.drain(..self.recent.len() - drift::WINDOW);
            }
            let drifted = self
                .monitor
                .as_mut()
                .map(|m| m.observe(req.batch))
                .unwrap_or(false);
            // The machine absorbs fires while an attempt, canary,
            // backoff or cooldown is active.
            let wants = drifted
                && self
                    .machine
                    .as_mut()
                    .is_some_and(|m| m.wants_drift_retune(now));
            if wants {
                self.launch_attempt(now, rt, policy, requests);
            }
        }

        // Chunks name sample ranges of the request; no batch is copied
        // until each shard gathers its slice.
        let n = req.batch.batch_size;
        match rt.config.policy {
            // A request without samples has nothing to price, as under
            // every policy.
            BatchPolicy::Unsplit if n == 0 => self.finalize_empty(ri, now, requests),
            BatchPolicy::Unsplit => {
                self.submit_chunk(&[(ri, 0..n)], vec![ri], now, rt, requests)?;
            }
            BatchPolicy::Split { cap } => {
                let chunks = cut_parts(&[(ri, 0..n)], cap)
                    .map_err(|_| ServeError::Policy("split cap must be at least 1"))?;
                if chunks.is_empty() {
                    self.finalize_empty(ri, now, requests);
                } else {
                    for chunk in chunks {
                        self.submit_chunk(&chunk, vec![ri], now, rt, requests)?;
                    }
                }
            }
            BatchPolicy::Dynamic { max_batch, .. } => {
                if n == 0 {
                    self.finalize_empty(ri, now, requests);
                } else if n >= max_batch {
                    // Oversized: flush waiting small requests first so
                    // device order stays FIFO, then split the big one.
                    self.flush_buffer(now, rt, requests)?;
                    let chunks = cut_parts(&[(ri, 0..n)], max_batch)
                        .map_err(|_| ServeError::Policy("dynamic max_batch must be at least 1"))?;
                    for chunk in chunks {
                        self.submit_chunk(&chunk, vec![ri], now, rt, requests)?;
                    }
                } else {
                    if self.buffer_size + n > max_batch {
                        self.flush_buffer(now, rt, requests)?;
                    }
                    self.buffer.push((ri, 0..n));
                    self.buffer_size += n;
                    self.buffer_oldest_us = self.buffer_oldest_us.min(self.arrival_eff_us[ri]);
                    if self.buffer_size == max_batch || self.all_idle() {
                        self.flush_buffer(now, rt, requests)?;
                    }
                }
            }
            BatchPolicy::DynamicPacked { max_batch, .. } => {
                if n == 0 {
                    self.finalize_empty(ri, now, requests);
                } else {
                    // Padding-free coalescing: top the open batch off to
                    // exactly `max_batch`, rolling the remainder of a
                    // boundary-straddling request into the next batch.
                    // The invariant `buffer_size < max_batch` holds on
                    // entry and exit, so `room >= 1` always.
                    let mut start = 0;
                    loop {
                        let room = max_batch - self.buffer_size;
                        self.buffer_oldest_us = self.buffer_oldest_us.min(self.arrival_eff_us[ri]);
                        if n - start < room {
                            self.buffer_size += n - start;
                            self.buffer.push((ri, start..n));
                            break;
                        }
                        self.buffer.push((ri, start..start + room));
                        self.buffer_size = max_batch;
                        self.flush_buffer(now, rt, requests)?;
                        start += room;
                        if start == n {
                            break;
                        }
                    }
                    if !self.buffer.is_empty() && self.all_idle() {
                        self.flush_buffer(now, rt, requests)?;
                    }
                }
            }
        }
        Ok(())
    }

    fn flush_buffer(
        &mut self,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let parts = std::mem::take(&mut self.buffer);
        self.buffer_size = 0;
        self.buffer_oldest_us = f64::INFINITY;
        let owners = parts.iter().map(|(ri, _)| *ri).collect();
        self.submit_chunk(&parts, owners, now, rt, requests)
    }

    /// Submit one device chunk, re-splitting it first when
    /// `hot_shard_cap` narrows it: every sub-chunk of at most `cap`
    /// samples fans out independently, so the slowest shard gates on a
    /// strictly smaller slice of work per gather and the straggler gap
    /// shrinks where placement is imbalanced. Each sub-chunk keeps the
    /// full owner set — `remaining_chunks` counts per sub-chunk, so
    /// request finalization waits for all of them. `None` takes the
    /// exact historical single-submission path.
    fn submit_chunk(
        &mut self,
        parts: &[Part],
        owners: Vec<usize>,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        match rt.config.hot_shard_cap {
            Some(cap) if samples(parts) > cap => {
                let chunks = cut_parts(parts, cap)
                    .map_err(|_| ServeError::Policy("hot_shard_cap must be at least 1"))?;
                for chunk in chunks {
                    self.submit_chunk_inner(&chunk, owners.clone(), now, rt, requests)?;
                }
                Ok(())
            }
            _ => self.submit_chunk_inner(parts, owners, now, rt, requests),
        }
    }

    /// Fan one device chunk out over every shard. Shards crashed at
    /// submission time (under mitigation) never see the job — their slice
    /// goes straight to their replica or the zero-pool.
    fn submit_chunk_inner(
        &mut self,
        parts: &[Part],
        owners: Vec<usize>,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        let num_shards = rt.placement.num_devices;
        let chunk_id = self.next_chunk;
        self.next_chunk += 1;
        for &ri in &owners {
            self.remaining_chunks[ri] += 1;
        }
        let engines: Vec<(usize, &dyn Backend)> = (0..num_shards)
            .map(|s| (s, self.engine_of(rt, s)))
            .collect();
        let mut work_us = Vec::with_capacity(num_shards);
        let mut launches_of = Vec::with_capacity(num_shards);
        // Folded in shard order, so the lowest failing shard's error wins.
        for cost in self.price_slices(rt, requests, parts, &engines) {
            let cost = cost?;
            // A price with no finite completion time would hang its lane
            // (+∞) or vanish from it (NaN clamps to 0 µs).
            if !cost.latency_us.is_finite() {
                return Err(ServeError::Backend(BackendError::Launch(format!(
                    "a shard slice was priced at {} us",
                    cost.latency_us
                ))));
            }
            work_us.push(cost.latency_us);
            launches_of.push(cost.kernel_launches);
        }

        // Canary: candidate engines replay the same shard slices so
        // their cost is observable. The results are never submitted to a
        // device — accounted, not served. Shards already promoted
        // mid-rollout are skipped (their cost is now `work_us`).
        let wants_shadow = self
            .machine
            .as_ref()
            .is_some_and(LifecycleMachine::in_canary);
        if wants_shadow {
            let start = self
                .machine
                .as_ref()
                .map_or(0, LifecycleMachine::promoted_shards);
            let shadows: Vec<(usize, &dyn Backend)> = (start..num_shards)
                .filter_map(|s| Some((s, self.candidates[s].as_deref()?)))
                .collect();
            let mut inc = vec![0.0; num_shards];
            let mut cand = vec![0.0; num_shards];
            let mut shadow_err = false;
            let costs = self.price_slices(rt, requests, parts, &shadows);
            for (&(s, _), cost) in shadows.iter().zip(costs) {
                match cost {
                    Ok(r) => {
                        inc[s] = work_us[s];
                        cand[s] = r.latency_us;
                    }
                    Err(_) => {
                        shadow_err = true;
                        break;
                    }
                }
            }
            let verdict = match self.machine.as_mut() {
                Some(machine) if shadow_err => {
                    machine.force_rollback(now);
                    CanaryVerdict::RollBack
                }
                Some(machine) => machine.observe_canary(now, &inc, &cand),
                None => CanaryVerdict::Pending,
            };
            if verdict == CanaryVerdict::RollBack {
                self.roll_back_engines();
            }
        }
        self.chunks.insert(
            chunk_id,
            ChunkState {
                owners,
                rows: samples(parts),
                work_us,
                launches_of,
                shard_done: vec![false; num_shards],
                active_jobs: vec![Vec::new(); num_shards],
                pending_shards: num_shards,
                pending_starts: 0,
                gating_registered: false,
                any_start: false,
                start_max_us: 0.0,
                done_min_us: f64::INFINITY,
                done_max_us: 0.0,
                real_done: false,
                degraded: false,
            },
        );
        for s in 0..num_shards {
            if rt.mitigated && rt.faults.crashed(s, now) {
                self.dispatch_replacement(chunk_id, s, now, rt, requests, true)?;
            } else {
                self.submit_job(chunk_id, s, s, now, JobRole::Primary, true)?;
            }
        }
        if let Some(slo) = rt.mitigation_slo_us() {
            if self.chunks.contains_key(&chunk_id) {
                self.pending_deadlines.push((now + slo / 4.0, chunk_id));
            }
        }
        // Zero-cost shard kernels retire inside `submit`; collect them so
        // their owners don't wait for a completion event that may never
        // have a distinct timestamp.
        self.collect_completions(rt, requests)
    }

    /// Put `shard`'s slice of `chunk_id` on executor `lane`.
    fn submit_job(
        &mut self,
        chunk_id: u64,
        shard: usize,
        lane: usize,
        now: f64,
        role: JobRole,
        counts_start: bool,
    ) -> Result<(), ServeError> {
        let id = self.next_job;
        self.next_job += 1;
        let (work, kernels) = {
            let chunk = self
                .chunks
                .get_mut(&chunk_id)
                .ok_or(ServeError::Internal("job for live chunk"))?;
            chunk.active_jobs[shard].push(id);
            if counts_start {
                chunk.pending_starts += 1;
            }
            (chunk.work_us[shard], chunk.launches_of[shard])
        };
        self.job_info.insert(
            id,
            JobInfo {
                chunk: chunk_id,
                shard,
                lane,
                role,
                started: false,
                counts_start,
            },
        );
        self.launches += u64::from(kernels);
        self.executors[lane].submit(now, id, work);
        let num_shards = self.num_shards();
        let backlog = self.executors[lane].backlog_us();
        let depth = self.executors[lane].depth();
        let stats = if lane < num_shards {
            &mut self.lane_stats[lane]
        } else {
            &mut self.replica_stats[lane - num_shards]
        };
        stats.jobs += 1;
        stats.device_us += work;
        stats.max_backlog_us = stats.max_backlog_us.max(backlog);
        stats.max_queue_depth = stats.max_queue_depth.max(depth);
        Ok(())
    }

    /// Re-home `shard`'s slice of a chunk after a crash took (or blocks)
    /// its primary job: onto the shard's replica lane, or — past ladder
    /// level 2 — into the zero-pool. Only a mitigated tier, which has a
    /// replica for every shard, re-homes work.
    fn dispatch_replacement(
        &mut self,
        chunk_id: u64,
        shard: usize,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
        counts_start: bool,
    ) -> Result<(), ServeError> {
        let Some(chunk) = self.chunks.get(&chunk_id) else {
            return Ok(());
        };
        if chunk.shard_done[shard] {
            return Ok(());
        }
        if self.ladder_level(rt) >= 2 {
            return self.zero_pool(chunk_id, shard, now, rt, requests);
        }
        self.failovers += 1;
        self.lane_stats[shard].failovers += 1;
        let replica = self.num_shards() + shard;
        self.submit_job(
            chunk_id,
            shard,
            replica,
            now,
            JobRole::Failover,
            counts_start,
        )
    }

    /// Serve `shard`'s slice of `chunk_id` as zeros: for sum/mean pooling
    /// a missing shard contributes an all-zero segment to the
    /// concatenated embedding, so the chunk stays answerable — flagged
    /// degraded — without any device work.
    fn zero_pool(
        &mut self,
        chunk_id: u64,
        shard: usize,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        let (siblings, resolved) = {
            let Some(chunk) = self.chunks.get_mut(&chunk_id) else {
                return Ok(());
            };
            if chunk.shard_done[shard] {
                return Ok(());
            }
            chunk.shard_done[shard] = true;
            chunk.degraded = true;
            chunk.pending_shards -= 1;
            (
                std::mem::take(&mut chunk.active_jobs[shard]),
                chunk.pending_shards == 0,
            )
        };
        for j in siblings {
            if let Some(info) = self.job_info.remove(&j) {
                self.executors[info.lane].cancel(now, j);
                if info.counts_start && !info.started {
                    self.uncount_start(chunk_id);
                }
            }
        }
        if resolved {
            self.resolve_chunk(chunk_id, now, rt, requests)?;
        }
        Ok(())
    }

    /// A crash dropped every kernel on lane `s`; re-home each lost
    /// chunk-shard work item, unless a sibling on the shard's replica (a
    /// hedge or an earlier failover) already covers it.
    fn crash_begin(
        &mut self,
        s: usize,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        let num_shards = self.num_shards();
        let failed = self.executors[s].fail_all(now);
        for job in failed {
            let Some(info) = self.job_info.remove(&job) else {
                continue;
            };
            let still_needed = {
                let Some(chunk) = self.chunks.get_mut(&info.chunk) else {
                    continue;
                };
                chunk.active_jobs[info.shard].retain(|&j| j != job);
                !chunk.shard_done[info.shard]
            };
            let covered = self.chunks[&info.chunk].active_jobs[info.shard]
                .iter()
                .any(|j| self.job_info.get(j).is_some_and(|i| i.lane >= num_shards));
            let replace_counts = info.counts_start && !info.started;
            if replace_counts {
                self.uncount_start(info.chunk);
            }
            if still_needed && !covered {
                self.dispatch_replacement(
                    info.chunk,
                    info.shard,
                    now,
                    rt,
                    requests,
                    replace_counts,
                )?;
            }
        }
        Ok(())
    }

    /// Fire every hedge deadline due at `now`: shards that have not
    /// delivered their slice get a duplicate on their replica lane —
    /// unless the ladder has already dropped the hedge.
    fn fire_deadlines(
        &mut self,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        let mut due: Vec<(f64, u64)> = Vec::new();
        self.pending_deadlines.retain(|&(t, id)| {
            if t <= now {
                due.push((t, id));
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (_, chunk_id) in due {
            if !self.chunks.contains_key(&chunk_id) {
                continue;
            }
            if self.ladder_level(rt) >= 1 {
                continue; // rung 1: duplicate work is the wrong spend
            }
            for s in 0..self.num_shards() {
                let replica_lane = self.num_shards() + s;
                let wants_hedge = {
                    let chunk = &self.chunks[&chunk_id];
                    !chunk.shard_done[s]
                        && !chunk.active_jobs[s]
                            .iter()
                            .any(|j| self.job_info.get(j).is_some_and(|i| i.lane == replica_lane))
                };
                if wants_hedge {
                    self.hedge_fires += 1;
                    self.submit_job(chunk_id, s, replica_lane, now, JobRole::Hedge, false)?;
                }
            }
        }
        self.collect_completions(rt, requests)
    }

    /// Apply every fault state change at `now`: lane rates (slowdown,
    /// stall, crash freeze) and crash onset/recovery.
    fn apply_fault_transitions(
        &mut self,
        now: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        for s in 0..self.num_shards() {
            let crashed = rt.faults.crashed(s, now);
            // Without mitigation a crash freezes the lane with its queue
            // intact — the restart-from-checkpoint model: the work is
            // replayed after recovery, and the tier pays for it in
            // backlog (and SLO sheds) instead of re-homing it.
            let rate = if crashed {
                0.0
            } else {
                rt.faults.rate_of(s, now)
            };
            self.executors[s].set_rate(now, rate);
            if crashed && !self.was_crashed[s] {
                self.was_crashed[s] = true;
                if rt.mitigated {
                    self.crash_begin(s, now, rt, requests)?;
                }
            } else if !crashed && self.was_crashed[s] {
                self.was_crashed[s] = false;
            }
        }
        self.collect_completions(rt, requests)
    }

    /// Drain per-shard completions, resolve finished chunks, and either
    /// finalize them (1 shard / free gather) or start their all-gather.
    /// Loops until quiescent: cancelling a raced sibling can promote
    /// zero-cost queued work whose completion must also land this event.
    fn collect_completions(
        &mut self,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        loop {
            self.note_starts();
            let mut any = false;
            let mut resolved: Vec<(u64, f64)> = Vec::new();
            for lane in 0..self.executors.len() {
                for (t_done, job_id) in self.executors[lane].drain_completed() {
                    any = true;
                    let Some(info) = self.job_info.remove(&job_id) else {
                        continue; // lost a race that was resolved earlier
                    };
                    let (siblings, resolve) = {
                        let Some(chunk) = self.chunks.get_mut(&info.chunk) else {
                            continue;
                        };
                        chunk.active_jobs[info.shard].retain(|&j| j != job_id);
                        if chunk.shard_done[info.shard] {
                            continue; // a sibling already delivered
                        }
                        chunk.shard_done[info.shard] = true;
                        chunk.pending_shards -= 1;
                        chunk.done_min_us = chunk.done_min_us.min(t_done);
                        chunk.done_max_us = chunk.done_max_us.max(t_done);
                        chunk.real_done = true;
                        (
                            std::mem::take(&mut chunk.active_jobs[info.shard]),
                            chunk.pending_shards == 0,
                        )
                    };
                    if info.role == JobRole::Hedge {
                        self.hedge_wins += 1;
                    }
                    for j in siblings {
                        if let Some(sib) = self.job_info.remove(&j) {
                            self.executors[sib.lane].cancel(t_done, j);
                            if sib.counts_start && !sib.started {
                                self.uncount_start(info.chunk);
                            }
                        }
                    }
                    if resolve {
                        resolved.push((info.chunk, t_done));
                    }
                }
            }
            for (chunk_id, t) in resolved {
                self.resolve_chunk(chunk_id, t, rt, requests)?;
            }
            if !any {
                break;
            }
        }
        Ok(())
    }

    /// Every shard has delivered (or been zero-pooled): account the
    /// chunk's device phase and start its gather (or retire it).
    fn resolve_chunk(
        &mut self,
        chunk_id: u64,
        fallback_t: f64,
        rt: &ShardedServeRuntime<'_>,
        requests: &[RequestRef<'_>],
    ) -> Result<(), ServeError> {
        let chunk = self
            .chunks
            .remove(&chunk_id)
            .ok_or(ServeError::Internal("resolving live chunk"))?;
        let num_shards = rt.placement.num_devices;
        let base_t = if chunk.real_done {
            chunk.done_max_us
        } else {
            // Every shard zero-pooled: the chunk resolves at the ladder
            // decision instant with no device completion to anchor on.
            fallback_t
        };
        let out_bytes = rt.model.concat_dim() as u64 * chunk.rows as u64 * 4;
        let factor = rt.faults.link_factor(base_t);
        let gather_us = if factor > 1.0 {
            rt.interconnect
                .degrade(factor)
                .all_gather_us(out_bytes, num_shards)
        } else {
            rt.interconnect.all_gather_us(out_bytes, num_shards)
        };
        let straggler = if chunk.real_done {
            chunk.done_max_us - chunk.done_min_us
        } else {
            0.0
        };
        for &ri in &chunk.owners {
            self.device_done_us[ri] = self.device_done_us[ri].max(base_t);
            self.straggler_us[ri] = self.straggler_us[ri].max(straggler);
            if chunk.degraded {
                self.degraded[ri] = true;
            }
        }
        if gather_us > 0.0 {
            self.pending_gathers.push((base_t + gather_us, chunk_id));
            self.chunks.insert(chunk_id, chunk);
        } else {
            // One shard (or an ideal link): the chunk is done the
            // moment the device finishes, with no gather event.
            self.retire_chunk(&chunk, base_t, requests);
        }
        Ok(())
    }

    /// Retire every gather due at `now` (submission order on ties).
    fn retire_gathers(&mut self, now: f64, requests: &[RequestRef<'_>]) -> Result<(), ServeError> {
        let mut due: Vec<(f64, u64)> = Vec::new();
        self.pending_gathers.retain(|&(t, id)| {
            if t <= now {
                due.push((t, id));
                false
            } else {
                true
            }
        });
        due.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (t, chunk_id) in due {
            let chunk = self
                .chunks
                .remove(&chunk_id)
                .ok_or(ServeError::Internal("gather chunk state"))?;
            self.retire_chunk(&chunk, t, requests);
        }
        Ok(())
    }

    fn retire_chunk(&mut self, chunk: &ChunkState, done_us: f64, requests: &[RequestRef<'_>]) {
        for &ri in &chunk.owners {
            self.remaining_chunks[ri] -= 1;
            self.last_done_us[ri] = self.last_done_us[ri].max(done_us);
            if self.remaining_chunks[ri] == 0 {
                self.finalize(ri, requests);
            }
        }
    }

    /// Fold freshly drained kernel-start events into per-request first
    /// *gating* start times: a chunk starts when its last gating lane
    /// picks it up, and a request starts at its earliest chunk start.
    fn note_starts(&mut self) {
        for lane in 0..self.executors.len() {
            for (t_start, job_id) in self.executors[lane].drain_started() {
                let (chunk_id, counts) = {
                    let Some(info) = self.job_info.get_mut(&job_id) else {
                        continue; // cancelled after queueing its start
                    };
                    info.started = true;
                    (info.chunk, info.counts_start)
                };
                if !counts {
                    continue; // hedge starts don't gate the request
                }
                let register = {
                    let Some(chunk) = self.chunks.get_mut(&chunk_id) else {
                        continue;
                    };
                    chunk.any_start = true;
                    chunk.start_max_us = chunk.start_max_us.max(t_start);
                    chunk.pending_starts -= 1;
                    if chunk.pending_starts == 0 && !chunk.gating_registered {
                        chunk.gating_registered = true;
                        Some((chunk.owners.clone(), chunk.start_max_us))
                    } else {
                        None
                    }
                };
                if let Some((owners, gating)) = register {
                    for ri in owners {
                        self.first_start_us[ri] = self.first_start_us[ri].min(gating);
                    }
                }
            }
        }
    }

    /// A gating-start slot closed without a start event (its job was
    /// killed or zero-pooled before launching): if it was the last open
    /// slot, register the gating start from what did launch.
    fn uncount_start(&mut self, chunk_id: u64) {
        let register = {
            let Some(chunk) = self.chunks.get_mut(&chunk_id) else {
                return;
            };
            chunk.pending_starts -= 1;
            if chunk.pending_starts == 0 && !chunk.gating_registered && chunk.any_start {
                chunk.gating_registered = true;
                Some((chunk.owners.clone(), chunk.start_max_us))
            } else {
                None
            }
        };
        if let Some((owners, gating)) = register {
            for ri in owners {
                self.first_start_us[ri] = self.first_start_us[ri].min(gating);
            }
        }
    }

    fn finalize(&mut self, ri: usize, requests: &[RequestRef<'_>]) {
        let arrival = self.arrival_eff_us[ri];
        let done = self.last_done_us[ri];
        // A request whose every chunk was fully zero-pooled never saw a
        // kernel start; treat it as starting at completion (zero service).
        let first = if self.first_start_us[ri].is_finite() {
            self.first_start_us[ri]
        } else {
            done
        };
        let device_done = self.device_done_us[ri];
        self.records[ri] = Some(ShardedRequestRecord {
            base: RequestRecord {
                id: requests[ri].id,
                batch_size: requests[ri].batch.batch_size,
                arrival_us: arrival,
                queue_us: first - arrival,
                service_us: done - first,
                done_us: done,
                shed: ShedReason::None,
            },
            device_us: device_done - first,
            gather_us: done - device_done,
            straggler_us: self.straggler_us[ri],
            degraded: self.degraded[ri],
        });
    }

    fn finalize_empty(&mut self, ri: usize, now: f64, requests: &[RequestRef<'_>]) {
        self.records[ri] = Some(ShardedRequestRecord {
            base: RequestRecord {
                id: requests[ri].id,
                batch_size: 0,
                arrival_us: self.arrival_eff_us[ri],
                queue_us: 0.0,
                service_us: 0.0,
                done_us: now,
                shed: ShedReason::None,
            },
            device_us: 0.0,
            gather_us: 0.0,
            straggler_us: 0.0,
            degraded: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::sync::Mutex;

    use crate::faults::{Fault, FaultKind, FaultSpec};
    use crate::lifecycle::{LifecycleEvent, OutcomePlan, STAGGER_US};
    use crate::request::WorkloadSpec;
    use proptest::prelude::*;
    use recflex_baselines::{BackendRun, TorchRecBackend};
    use recflex_data::shift_distribution;
    use recflex_data::ModelPreset;

    fn setup() -> (ModelConfig, GpuArch) {
        (ModelPreset::A.scaled(0.01), GpuArch::v100())
    }

    fn tier<'a>(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        shards: usize,
        config: ServeConfig,
        interconnect: Interconnect,
    ) -> ShardedServeRuntime<'a> {
        ShardedServeRuntime::build(
            model,
            arch,
            Placement::balance(model, shards),
            config,
            interconnect,
            |m| Box::new(TorchRecBackend::compile(m)),
        )
    }

    fn faulty_tier<'a>(
        model: &'a ModelConfig,
        arch: &'a GpuArch,
        shards: usize,
        config: ServeConfig,
        faults: FaultPlan,
        mitigated: bool,
    ) -> ShardedServeRuntime<'a> {
        ShardedServeRuntime {
            faults,
            mitigated,
            ..tier(model, arch, shards, config, Interconnect::nvlink())
        }
    }

    fn load_config() -> ServeConfig {
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }

    fn crash(shard: usize, start: f64, end: f64) -> Fault {
        Fault {
            start_us: start,
            end_us: end,
            kind: FaultKind::Crash { shard },
        }
    }

    #[test]
    fn no_fault_mitigated_path_is_bit_for_bit_the_plain_tier() -> Result<(), ServeError> {
        // Replicas provisioned and mitigation armed, but no faults and an
        // SLO so loose that no hedge deadline comes due: the event loop
        // must take the exact fault-free branches and reproduce the plain
        // tier's report fields.
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(250.0).stream(&m, 48, 7);
        let config = ServeConfig {
            slo_deadline_us: Some(1e9),
            ..load_config()
        };
        let plain = tier(&m, &arch, 4, config, Interconnect::nvlink()).serve(&reqs)?;
        let armed = faulty_tier(&m, &arch, 4, config, FaultPlan::none(), true).serve(&reqs)?;
        assert_eq!(plain.records, armed.records);
        assert_eq!(plain.per_shard, armed.per_shard);
        assert_eq!(plain.kernel_launches, armed.kernel_launches);
        assert_eq!(plain.makespan_us, armed.makespan_us);
        assert_eq!(armed.hedge_fires, 0);
        assert_eq!(armed.per_replica.len(), 4, "standby lanes exist");
        assert!(armed.per_replica.iter().all(|s| s.jobs == 0), "and idle");
        Ok(())
    }

    #[test]
    fn a_mitigated_tier_without_an_slo_is_a_policy_error() {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(250.0).stream(&m, 4, 7);
        for shards in [1, 2] {
            let rt = faulty_tier(&m, &arch, shards, load_config(), FaultPlan::none(), true);
            assert!(matches!(rt.serve(&reqs), Err(ServeError::Policy(_))));
        }
    }

    #[test]
    fn ladder_rungs_grade_on_backlog_against_the_slo() {
        let slo = 2_000.0;
        assert_eq!(ladder_rung(0.0, slo), 0);
        assert_eq!(ladder_rung(1_000.0, slo), 0, "thresholds are exclusive");
        assert_eq!(ladder_rung(1_001.0, slo), 1);
        assert_eq!(ladder_rung(1_500.0, slo), 1);
        assert_eq!(ladder_rung(1_501.0, slo), 2);
        assert_eq!(
            ladder_rung(f64::INFINITY, slo),
            2,
            "a stalled lane maxes out"
        );
    }

    #[test]
    fn replaying_a_seed_reproduces_the_report_bit_for_bit() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(250.0).stream(&m, 48, 7);
        let rt = tier(&m, &arch, 4, load_config(), Interconnect::nvlink());
        let a = rt.serve(&reqs)?;
        let b = rt.serve(&reqs)?;
        assert_eq!(a, b);
        assert_eq!(a.records.len(), 48);
        assert_eq!(a.per_shard.len(), 4);
        Ok(())
    }

    #[test]
    fn more_shards_cut_device_time_under_load() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(150.0).stream(&m, 48, 9);
        let p50 = |shards: usize| {
            tier(&m, &arch, shards, load_config(), Interconnect::nvlink())
                .serve(&reqs)
                .map(|r| r.percentile_device_us(0.5))
        };
        let one = p50(1)?;
        let two = p50(2)?;
        let four = p50(4)?;
        assert!(two <= one, "2 shards {two} vs 1 shard {one}");
        assert!(four <= two, "4 shards {four} vs 2 shards {two}");
        Ok(())
    }

    #[test]
    fn gather_and_straggler_terms_appear_with_multiple_shards() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(400.0).stream(&m, 24, 3);
        let report = tier(&m, &arch, 4, load_config(), Interconnect::nvlink()).serve(&reqs)?;
        assert!(report.mean_gather_us() > 0.0, "gather must be accounted");
        assert!(
            report.mean_straggler_us() > 0.0,
            "heterogeneous shards must straggle"
        );
        // The breakdown is additive on the critical path.
        for r in report.completed() {
            let sum = r.base.queue_us + r.device_us + r.gather_us;
            assert!(
                (r.base.latency_us() - sum).abs() < 1e-6,
                "queue {} + device {} + gather {} != latency {}",
                r.base.queue_us,
                r.device_us,
                r.gather_us,
                r.base.latency_us()
            );
        }
        Ok(())
    }

    #[test]
    fn an_idle_tier_serves_in_the_slowest_lane_cost_plus_gather() -> Result<(), ServeError> {
        // One request, closed loop on one stream and unsplit: nothing
        // queues, so latency is the slowest lane's cost plus a ring
        // all-gather of the whole pooled output.
        let (m, arch) = setup();
        let batch = Batch::generate(&m, 96, 9);
        let config = ServeConfig {
            streams: 1,
            policy: BatchPolicy::Unsplit,
            closed_loop: true,
            ..ServeConfig::default()
        };
        for shards in [1, 2, 4] {
            let rt = tier(&m, &arch, shards, config, Interconnect::nvlink());
            let mut slowest = 0.0f64;
            for (s, lane) in rt.lanes.iter().enumerate() {
                let sub = rt.placement.project_batch(&batch, s);
                let cost = lane.backend.cost(&lane.model, &lane.tables, &sub, &arch)?;
                slowest = slowest.max(cost.latency_us);
            }
            let out_bytes = u64::from(batch.batch_size) * u64::from(m.concat_dim()) * 4;
            let expect = slowest + rt.interconnect.all_gather_us(out_bytes, shards);
            let report = rt.serve(&[Request {
                id: 0,
                arrival_us: 0.0,
                batch: batch.clone(),
            }])?;
            let record = &report.records[0];
            let latency = record.base.latency_us();
            if shards == 1 {
                assert_eq!(record.gather_us, 0.0, "one shard gathers nothing");
                assert_eq!(latency, expect, "1 shard: the lane's cost, bit for bit");
            } else {
                assert!(
                    ((latency - expect) / expect).abs() < 1e-12,
                    "{shards} shards: latency {latency} vs slowest + gather {expect}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn make_backend_runs_once_per_device_in_order() {
        let (m, arch) = setup();
        let placement = Placement::balance(&m, 3);
        let features_of = |dev: usize| {
            placement
                .features_on(dev)
                .iter()
                .map(|&f| m.features[f].clone())
                .collect::<Vec<_>>()
        };
        let calls = RefCell::new(Vec::new());
        ShardedServeRuntime::build(
            &m,
            &arch,
            placement.clone(),
            ServeConfig::default(),
            Interconnect::nvlink(),
            |sub| {
                calls.borrow_mut().push(sub.features.clone());
                Box::new(TorchRecBackend::compile(sub))
            },
        );
        assert_eq!(calls.take(), [0, 1, 2].map(features_of));
    }

    /// TorchRec's kernel, keeping every batch the tier asks it to price.
    struct Recording<'a> {
        inner: TorchRecBackend,
        priced: &'a Mutex<Vec<Batch>>,
    }

    impl Backend for Recording<'_> {
        fn name(&self) -> &'static str {
            "Recording"
        }

        fn run(
            &self,
            model: &ModelConfig,
            tables: &TableSet,
            batch: &Batch,
            arch: &GpuArch,
        ) -> Result<BackendRun, BackendError> {
            self.inner.run(model, tables, batch, arch)
        }

        fn cost(
            &self,
            model: &ModelConfig,
            tables: &TableSet,
            batch: &Batch,
            arch: &GpuArch,
        ) -> Result<CostReport, BackendError> {
            self.priced
                .lock()
                .expect("no pricing job panicked holding the log")
                .push(batch.clone());
            self.inner.cost(model, tables, batch, arch)
        }
    }

    /// TorchRec's kernel, with every slice priced at one fixed latency.
    struct FixedPrice(TorchRecBackend, f64);

    impl Backend for FixedPrice {
        fn name(&self) -> &'static str {
            "FixedPrice"
        }

        fn run(
            &self,
            model: &ModelConfig,
            tables: &TableSet,
            batch: &Batch,
            arch: &GpuArch,
        ) -> Result<BackendRun, BackendError> {
            let run = self.0.run(model, tables, batch, arch)?;
            Ok(BackendRun {
                latency_us: self.1,
                ..run
            })
        }

        fn cost(
            &self,
            model: &ModelConfig,
            tables: &TableSet,
            batch: &Batch,
            arch: &GpuArch,
        ) -> Result<CostReport, BackendError> {
            let cost = self.0.cost(model, tables, batch, arch)?;
            Ok(CostReport {
                latency_us: self.1,
                ..cost
            })
        }
    }

    const EVERY_POLICY: [BatchPolicy; 4] = [
        BatchPolicy::Unsplit,
        BatchPolicy::Split { cap: 16 },
        BatchPolicy::Dynamic {
            max_batch: 64,
            max_wait_us: 20.0,
        },
        BatchPolicy::DynamicPacked {
            max_batch: 64,
            max_wait_us: 20.0,
        },
    ];

    fn fixed_price_tier<'a>(
        m: &'a ModelConfig,
        arch: &'a GpuArch,
        shards: usize,
        policy: BatchPolicy,
        latency_us: f64,
    ) -> ShardedServeRuntime<'a> {
        ShardedServeRuntime::build(
            m,
            arch,
            Placement::balance(m, shards),
            ServeConfig {
                streams: 2,
                policy,
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            Interconnect::nvlink(),
            |sub| Box::new(FixedPrice(TorchRecBackend::compile(sub), latency_us)),
        )
    }

    #[test]
    fn slices_priced_at_zero_us_answer_every_request() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let requests = WorkloadSpec::long_tail(50.0).stream(&m, 24, 9);
        for policy in EVERY_POLICY {
            for shards in [1, 2] {
                let report = fixed_price_tier(&m, &arch, shards, policy, 0.0).serve(&requests)?;
                assert_eq!(report.records.len(), requests.len(), "{policy:?}");
                for (rec, req) in report.records.iter().zip(&requests) {
                    assert_eq!(rec.base.id, req.id, "{policy:?}");
                    assert!(!rec.base.is_shed(), "{policy:?}: request {}", req.id);
                    assert_eq!(rec.device_us, 0.0, "{policy:?}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn a_shard_without_features_is_a_policy_error_not_a_panic() {
        let (mut m, arch) = setup();
        m.features.truncate(2);
        let rt = tier(&m, &arch, 3, ServeConfig::default(), Interconnect::nvlink());
        let requests = WorkloadSpec::long_tail(50.0).stream(&m, 4, 9);
        assert!(
            matches!(rt.serve(&requests), Err(ServeError::Policy(_))),
            "3 shards over 2 features leave one shard empty"
        );
    }

    /// A slice priced at a time that never comes (a backend's +∞) is
    /// refused, not left to hold its lane forever.
    #[test]
    fn a_slice_priced_at_infinity_is_a_backend_error_not_a_hang() {
        let (m, arch) = setup();
        let requests = WorkloadSpec::long_tail(50.0).stream(&m, 4, 9);
        for policy in EVERY_POLICY {
            let served = fixed_price_tier(&m, &arch, 2, policy, f64::INFINITY).serve(&requests);
            assert!(
                matches!(served, Err(ServeError::Backend(_))),
                "{policy:?}: {served:?}"
            );
        }
    }

    #[test]
    fn every_admitted_sample_is_priced_once_per_shard_in_admission_order() -> Result<(), ServeError>
    {
        let (m, arch) = setup();
        let shards = 3;
        let placement = Placement::balance(&m, shards);
        // Sizes straddle `max_batch` (16) and the hot-shard cap (7), and
        // one request has no samples (it must make no chunk). Bursts 2 µs apart coalesce; every fifth gap outlasts the
        // batcher's wait.
        let sizes = [3, 20, 0, 16, 1, 15, 40, 2, 9, 17, 5, 31, 1, 1, 64, 8];
        let mut t = 0.0;
        let requests: Vec<Request> = (0u64..)
            .zip(sizes)
            .map(|(id, n)| {
                t += if id % 5 == 4 { 500.0 } else { 2.0 };
                Request {
                    id,
                    arrival_us: t,
                    batch: Batch::generate(&m, n, 100 + id),
                }
            })
            .collect();
        let batches: Vec<Batch> = requests.iter().map(|r| r.batch.clone()).collect();
        let admitted = Batch::merge(&batches);
        for (policy, widest) in [
            (BatchPolicy::Unsplit, u32::MAX),
            (BatchPolicy::Split { cap: 6 }, 6),
            (
                BatchPolicy::Dynamic {
                    max_batch: 16,
                    max_wait_us: 50.0,
                },
                16,
            ),
            (
                BatchPolicy::DynamicPacked {
                    max_batch: 16,
                    max_wait_us: 50.0,
                },
                16,
            ),
        ] {
            for hot_shard_cap in [None, Some(7)] {
                let priced: Vec<Mutex<Vec<Batch>>> =
                    (0..shards).map(|_| Mutex::default()).collect();
                let built = Cell::new(0);
                let config = ServeConfig {
                    streams: 2,
                    policy,
                    slo_deadline_us: None,
                    closed_loop: false,
                    hot_shard_cap,
                };
                let rt = ShardedServeRuntime::build(
                    &m,
                    &arch,
                    placement.clone(),
                    config,
                    Interconnect::nvlink(),
                    |sub| {
                        let s = built.replace(built.get() + 1);
                        Box::new(Recording {
                            inner: TorchRecBackend::compile(sub),
                            priced: &priced[s],
                        })
                    },
                );
                let report = rt.serve(&requests)?;
                assert_eq!(report.records.len(), requests.len());
                assert!(report.records.iter().all(|r| !r.base.is_shed()));
                let widest = hot_shard_cap.map_or(widest, |cap| cap.min(widest));
                drop(rt);
                for (s, log) in priced.into_iter().enumerate() {
                    let slices = log.into_inner().expect("no pricing job panicked");
                    let why = format!("{policy:?}, hot_shard_cap {hot_shard_cap:?}, shard {s}");
                    assert!(slices.iter().all(|b| b.batch_size <= widest), "{why}");
                    assert_eq!(
                        Batch::merge(&slices),
                        placement.project_batch(&admitted, s),
                        "{why}"
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn slower_interconnect_raises_tail_latency() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 5);
        let p99 = |link: Interconnect| {
            tier(&m, &arch, 4, load_config(), link)
                .serve(&reqs)
                .map(|r| r.percentile_us(0.99))
        };
        assert!(p99(Interconnect::pcie())? > p99(Interconnect::nvlink())?);
        assert!(p99(Interconnect::nvlink())? > p99(Interconnect::ideal())?);
        Ok(())
    }

    #[test]
    fn per_shard_stats_cover_every_chunk() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 24, 13);
        let report = tier(&m, &arch, 3, load_config(), Interconnect::nvlink()).serve(&reqs)?;
        let jobs: Vec<u64> = report.per_shard.iter().map(|s| s.jobs).collect();
        // Every chunk fans out to every shard.
        assert!(jobs.iter().all(|&j| j == jobs[0] && j > 0));
        assert!(report.per_shard.iter().all(|s| s.device_us > 0.0));
        assert!(report.per_shard.iter().all(|s| s.max_queue_depth >= 1));
        Ok(())
    }

    #[test]
    fn slo_shedding_works_in_the_sharded_tier() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs: Vec<Request> = (0..40)
            .map(|i| Request {
                id: i,
                arrival_us: i as f64,
                batch: Batch::generate(&m, 512, 3000 + i),
            })
            .collect();
        let config = ServeConfig {
            streams: 2,
            policy: BatchPolicy::Split { cap: 128 },
            slo_deadline_us: Some(2_000.0),
            closed_loop: false,
            hot_shard_cap: None,
        };
        let report = tier(&m, &arch, 2, config, Interconnect::nvlink()).serve(&reqs)?;
        assert!(report.shed_rate() > 0.0, "overload must shed");
        for r in report.records.iter().filter(|r| r.base.is_shed()) {
            assert_eq!(r.base.shed, ShedReason::Admission, "no faults injected");
            assert_eq!(r.base.done_us, r.base.arrival_us);
            assert_eq!(r.device_us, 0.0);
        }
        Ok(())
    }

    #[test]
    fn zero_split_cap_is_a_policy_error() {
        let (m, arch) = setup();
        let config = ServeConfig {
            streams: 1,
            policy: BatchPolicy::Split { cap: 0 },
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        };
        let rt = tier(&m, &arch, 2, config, Interconnect::nvlink());
        let reqs = WorkloadSpec::long_tail(100.0).stream(&m, 2, 1);
        assert!(matches!(rt.serve(&reqs), Err(ServeError::Policy(_))));
    }

    #[test]
    fn nan_slo_is_a_policy_error() {
        // `backlog > NaN` is false: unchecked, a NaN SLO admits everything.
        let (m, arch) = setup();
        let config = ServeConfig {
            slo_deadline_us: Some(f64::NAN),
            ..slo_config()
        };
        let reqs = WorkloadSpec::long_tail(100.0).stream(&m, 4, 1);
        for shards in [1, 2] {
            let rt = tier(&m, &arch, shards, config, Interconnect::nvlink());
            assert!(matches!(rt.serve(&reqs), Err(ServeError::Policy(_))));
        }
    }

    #[test]
    fn nan_deadline_entry_is_a_policy_error() {
        let (m, arch) = setup();
        let stream = WorkloadSpec::long_tail(100.0).stream(&m, 4, 1);
        let reqs = views(&stream);
        let mut deadlines: Vec<f64> = reqs.iter().map(|r| r.arrival_us + 1e6).collect();
        deadlines[2] = f64::NAN;
        for shards in [1, 2] {
            let rt = tier(&m, &arch, shards, load_config(), Interconnect::nvlink());
            assert!(matches!(
                rt.serve_with_deadlines(&reqs, &deadlines),
                Err(ServeError::Policy(_))
            ));
            assert!(matches!(
                rt.serve_with_deadlines(&reqs, &deadlines[..3]),
                Err(ServeError::Policy(_))
            ));
        }
    }

    #[test]
    fn links_and_faults_the_tier_cannot_honour_are_policy_errors() {
        // Served, each of these answers every request at +∞ latency,
        // prices every gather at 0 µs, ignores a fault outright, or stalls
        // a lane for the whole window without reporting downtime.
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 8, 3);
        let link = |bandwidth_gbps, base_latency_us| Interconnect {
            bandwidth_gbps,
            base_latency_us,
        };
        for bad in [
            link(0.0, 5.0),
            link(-1.0, 5.0),
            link(f64::NAN, 5.0),
            link(120.0, f64::INFINITY),
            link(120.0, -1e9),
            link(120.0, f64::NAN),
        ] {
            let rt = tier(&m, &arch, 2, ServeConfig::default(), bad.clone());
            let err = rt.serve(&reqs);
            assert!(
                matches!(err, Err(ServeError::Policy(_))),
                "{bad:?}: {err:?}"
            );
        }
        let window = |kind| {
            FaultPlan::scripted(vec![Fault {
                start_us: 0.0,
                end_us: 1e9,
                kind,
            }])
        };
        for bad in [
            FaultKind::LinkDegrade {
                factor: f64::INFINITY,
            },
            FaultKind::LinkDegrade { factor: f64::NAN },
            FaultKind::Crash { shard: 5 },
            FaultKind::Stall { shard: 2 },
            FaultKind::Slowdown {
                shard: 0,
                rate: f64::NAN,
            },
        ] {
            let rt = faulty_tier(&m, &arch, 2, ServeConfig::default(), window(bad), false);
            let err = rt.serve(&reqs);
            assert!(
                matches!(err, Err(ServeError::Policy(_))),
                "{bad:?}: {err:?}"
            );
        }
        // The presets and in-range faults still serve.
        for good in [
            Interconnect::nvlink(),
            Interconnect::pcie(),
            Interconnect::ideal(),
        ] {
            assert!(tier(&m, &arch, 2, ServeConfig::default(), good)
                .serve(&reqs)
                .is_ok());
        }
        for good in [
            FaultKind::LinkDegrade { factor: 8.0 },
            FaultKind::Crash { shard: 1 },
            FaultKind::Slowdown {
                shard: 0,
                rate: 0.4,
            },
        ] {
            let rt = faulty_tier(&m, &arch, 2, ServeConfig::default(), window(good), false);
            assert!(rt.serve(&reqs).is_ok(), "{good:?}");
        }
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let (m, arch) = setup();
        let valid = WorkloadSpec::long_tail(100.0).stream(&m, 4, 1);
        let bad = 2;
        let mut missing_feature = valid.clone();
        missing_feature[bad].batch.features.pop();
        let mut out_of_range = valid.clone();
        let fb = out_of_range[bad]
            .batch
            .features
            .iter_mut()
            .find(|fb| !fb.indices.is_empty())
            .expect("a request with lookups");
        fb.indices[0] = u32::MAX - 1;
        let mut non_monotone = valid.clone();
        let offsets = &mut non_monotone[bad].batch.features[0].offsets;
        offsets[1] = offsets[2] + 1;
        // `+∞` used to stall the event loop forever; `NaN` and `−∞` were
        // served with a NaN or infinite latency.
        let arriving_at = |t: f64| {
            let mut reqs = valid.clone();
            reqs[bad].arrival_us = t;
            reqs
        };
        let never = arriving_at(f64::INFINITY);
        let nan = arriving_at(f64::NAN);
        let before_time = arriving_at(f64::NEG_INFINITY);
        for shards in [1, 2] {
            let rt = tier(&m, &arch, shards, load_config(), Interconnect::nvlink());
            for (reqs, why) in [
                (&missing_feature, "feature count mismatch"),
                (&out_of_range, "out of table range"),
                (&non_monotone, "offsets not monotone"),
                (&never, "arrival_us must be finite"),
                (&nan, "arrival_us must be finite"),
                (&before_time, "arrival_us must be finite"),
            ] {
                match rt.serve(reqs).map(|_| ()) {
                    Err(ServeError::Request { id, reason }) => {
                        assert_eq!(id, reqs[bad].id);
                        assert!(reason.contains(why), "{shards} shards: {reason}");
                    }
                    other => panic!("{shards} shards, {why}: {other:?}"),
                }
            }
        }
    }

    fn slo_config() -> ServeConfig {
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: Some(8_000.0),
            closed_loop: false,
            hot_shard_cap: None,
        }
    }

    fn crash_window() -> FaultPlan {
        // Crash shard 0 for a long mid-run window sized off the workload
        // (requests arrive roughly every 200 µs for 64 requests).
        FaultPlan::scripted(vec![crash(0, 1_500.0, 9_000.0)])
    }

    #[test]
    fn mitigated_crash_holds_availability_where_no_mitigation_sheds() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(200.0).stream(&m, 64, 21);
        let serve = |mitigated: bool| {
            faulty_tier(&m, &arch, 2, slo_config(), crash_window(), mitigated).serve(&reqs)
        };
        let baseline = serve(false)?; // lane freezes, backlog sheds
        let mitigated = serve(true)?;
        assert!(
            baseline.availability() < 1.0,
            "an unmitigated crash must shed: availability {}",
            baseline.availability()
        );
        assert!(
            baseline.shed_rate_for(ShedReason::Fault) > 0.0,
            "sheds during the crash window carry the fault reason"
        );
        assert!(
            mitigated.availability() >= 0.95,
            "failover + degradation must hold availability: {}",
            mitigated.availability()
        );
        assert!(
            mitigated.availability() > baseline.availability(),
            "mitigation must strictly beat the baseline: {} vs {}",
            mitigated.availability(),
            baseline.availability()
        );
        assert!(mitigated.failovers > 0, "crash work must be re-homed");
        assert!(
            mitigated.per_shard[0].downtime_us > 0.0,
            "the crashed shard reports downtime"
        );
        assert_eq!(
            mitigated.per_shard[1].downtime_us, 0.0,
            "the healthy shard reports none"
        );
        Ok(())
    }

    #[test]
    fn hedging_fires_on_deadline_and_wins_against_a_stalled_shard() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(400.0).stream(&m, 32, 17);
        let plan = FaultPlan::scripted(vec![Fault {
            start_us: 1_000.0,
            end_us: 10_000.0,
            kind: FaultKind::Stall { shard: 0 },
        }]);
        // Hedges come due a quarter of the SLO after fan-out. The control
        // is the same mitigated tier under an SLO so loose that no hedge
        // comes due, so the two differ only in hedging.
        let serve = |slo_deadline_us: f64| {
            let config = ServeConfig {
                slo_deadline_us: Some(slo_deadline_us),
                ..slo_config()
            };
            faulty_tier(&m, &arch, 2, config, plan.clone(), true).serve(&reqs)
        };
        let hedged = serve(8_000.0)?;
        let unhedged = serve(1e9)?;
        assert_eq!(unhedged.hedge_fires, 0);
        // Neither sheds, so both tails are over the same requests.
        assert_eq!(hedged.shed_rate(), 0.0);
        assert_eq!(unhedged.shed_rate(), 0.0);
        assert!(hedged.hedge_fires > 0, "deadlines must fire on the stall");
        assert!(
            hedged.hedge_wins > 0,
            "the replica must beat a stalled primary"
        );
        assert!(hedged.hedge_wins <= hedged.hedge_fires);
        assert!(
            hedged.percentile_us(0.99) < unhedged.percentile_us(0.99),
            "hedging must cut the stall-bound tail: {} vs {}",
            hedged.percentile_us(0.99),
            unhedged.percentile_us(0.99)
        );
        Ok(())
    }

    #[test]
    fn ladder_rung_two_serves_partial_answers_instead_of_shedding() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(200.0).stream(&m, 48, 29);
        // A tight SLO: once the crashed shard's work has piled three
        // quarters of it onto the replica, further crashed-shard slices
        // zero-pool instead of failing over.
        let config = ServeConfig {
            slo_deadline_us: Some(2_000.0),
            ..slo_config()
        };
        let report = faulty_tier(&m, &arch, 2, config, crash_window(), true).serve(&reqs)?;
        assert!(report.failovers > 0, "the replica takes work first");
        assert!(
            report.degraded_rate() > 0.0,
            "crashed-shard chunks must be served partial"
        );
        assert!(
            report.availability() >= 0.95,
            "partial service holds availability: {}",
            report.availability()
        );
        for r in report.records.iter().filter(|r| r.degraded) {
            assert!(!r.base.is_shed(), "degraded answers are answers");
        }
        Ok(())
    }

    #[test]
    fn slowdown_and_link_faults_stretch_the_run_deterministically() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 33);
        let plan = FaultPlan::scripted(vec![
            Fault {
                start_us: 500.0,
                end_us: 6_000.0,
                kind: FaultKind::Slowdown {
                    shard: 1,
                    rate: 0.25,
                },
            },
            Fault {
                start_us: 500.0,
                end_us: 6_000.0,
                kind: FaultKind::LinkDegrade { factor: 16.0 },
            },
        ]);
        let serve = |faults: FaultPlan| {
            faulty_tier(&m, &arch, 4, load_config(), faults, false).serve(&reqs)
        };
        let healthy = serve(FaultPlan::none())?;
        let a = serve(plan.clone())?;
        let b = serve(plan)?;
        assert_eq!(a, b, "faulty runs replay bit-for-bit");
        assert!(
            a.percentile_us(0.99) > healthy.percentile_us(0.99),
            "a throttled shard gates the tier"
        );
        assert!(
            a.mean_gather_us() > healthy.mean_gather_us(),
            "a degraded link stretches gathers"
        );
        Ok(())
    }

    proptest! {
        /// Same seed + same FaultSpec ⇒ the same fault trace and the same
        /// report, bit for bit — the determinism-replay invariant
        /// extended to faulty runs.
        #[test]
        fn seeded_fault_runs_replay_bit_for_bit(seed in 0u64..500, shards in 1usize..4) {
            let (m, arch) = setup();
            // Small batches keep the 64-case sweep fast without losing
            // event-loop coverage (faults, hedges, sheds all still fire).
            let spec = WorkloadSpec {
                size_unit: 8,
                ..WorkloadSpec::long_tail(250.0)
            };
            let reqs = spec.stream(&m, 10, seed);
            let spec = FaultSpec::mixed(1_500.0, 900.0);
            let plan_a = spec.plan(shards, 6_000.0, seed);
            let plan_b = spec.plan(shards, 6_000.0, seed);
            prop_assert_eq!(&plan_a, &plan_b, "fault trace must replay");
            let rt = faulty_tier(&m, &arch, shards, slo_config(), plan_a, true);
            let a = rt.serve(&reqs);
            let b = rt.serve(&reqs);
            prop_assert!(a.is_ok() && b.is_ok(), "a faulty run must still serve");
            let (Ok(a), Ok(b)) = (a, b) else { return };
            prop_assert_eq!(
                serde_json::to_string(&a).ok(),
                serde_json::to_string(&b).ok()
            );
            prop_assert_eq!(a, b);
        }
    }

    /// In-distribution head, heavily shifted tail: the drift monitor
    /// fires partway through.
    fn drifting_stream(m: &ModelConfig) -> (ModelConfig, Vec<Request>) {
        let shifted = shift_distribution(m, 2.5, 0.0);
        let mut reqs = WorkloadSpec::long_tail(400.0).stream(m, 16, 5);
        let mut tail = WorkloadSpec::long_tail(400.0).stream(&shifted, 24, 6);
        let t0 = reqs.last().map_or(0.0, |r| r.arrival_us);
        for (k, r) in tail.iter_mut().enumerate() {
            r.arrival_us += t0;
            r.id = 16 + k as u64;
        }
        reqs.append(&mut tail);
        (shifted, reqs)
    }

    #[test]
    fn a_failed_attempt_after_a_promotion_keeps_the_promoted_engine() -> Result<(), ServeError> {
        // Drift fires twice (in-distribution → shifted → back): attempt 1
        // promotes a 4x-regressed engine, attempt 2 fails to compile. The
        // failure must drop only its own (absent) candidate — the served
        // records equal a run whose second attempt never launched.
        let (m, arch) = setup();
        let (_shifted, mut reqs) = drifting_stream(&m);
        let mut back = WorkloadSpec::long_tail(400.0).stream(&m, 24, 8);
        let t0 = reqs.last().map_or(0.0, |r| r.arrival_us);
        for (k, r) in back.iter_mut().enumerate() {
            r.arrival_us += t0;
            r.id = 40 + k as u64;
        }
        reqs.append(&mut back);
        let regress = RetuneOutcome::Regression { slowdown: 4.0 };
        let run = |shards: usize, lifecycle: LifecycleConfig| {
            let mut policy = ShardedRetunePolicy {
                lifecycle,
                retuner: Box::new(|sm: &ModelConfig, _: &[Batch]| {
                    TunedCandidate::from(Box::new(TorchRecBackend::compile(sm)) as Box<dyn Backend>)
                }),
            };
            tier(&m, &arch, shards, load_config(), Interconnect::nvlink())
                .serve_with_retune(&reqs, &mut policy)
        };
        for shards in [1, 2] {
            let failed_retry = run(
                shards,
                LifecycleConfig {
                    outcomes: OutcomePlan::scripted(
                        std::iter::once(regress)
                            .chain(std::iter::repeat_n(RetuneOutcome::CompileFail, 8))
                            .collect(),
                    ),
                    ..LifecycleConfig::default()
                },
            )?;
            let one_attempt = run(
                shards,
                LifecycleConfig {
                    outcomes: OutcomePlan::scripted(vec![regress]),
                    cooldown_us: 1e12,
                    ..LifecycleConfig::default()
                },
            )?;
            assert!(
                failed_retry.lifecycle.retunes_failed >= 1,
                "attempt 2 must run"
            );
            assert_eq!(failed_retry.lifecycle.retunes_promoted, 1);
            assert_eq!(one_attempt.lifecycle.retunes_attempted, 1);
            assert_eq!(failed_retry.records, one_attempt.records, "{shards} shards");
        }
        Ok(())
    }

    #[test]
    fn canary_rolls_back_a_regressed_retune_and_protects_latency() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let (_shifted, reqs) = drifting_stream(&m);
        let regressed = OutcomePlan::scripted(vec![RetuneOutcome::Regression { slowdown: 4.0 }; 8]);
        let mk_policy = |lifecycle: LifecycleConfig| ShardedRetunePolicy {
            lifecycle,
            retuner: Box::new(|sm: &ModelConfig, _: &[Batch]| {
                TunedCandidate::from(Box::new(TorchRecBackend::compile(sm)) as Box<dyn Backend>)
            }),
        };
        let plain = tier(&m, &arch, 2, load_config(), Interconnect::nvlink()).serve(&reqs)?;
        let mut blind_policy = mk_policy(LifecycleConfig {
            outcomes: regressed.clone(),
            ..LifecycleConfig::default()
        });
        let blind = tier(&m, &arch, 2, load_config(), Interconnect::nvlink())
            .serve_with_retune(&reqs, &mut blind_policy)?;
        let mut canaried_policy = mk_policy(LifecycleConfig {
            outcomes: regressed,
            canary: true,
            ..LifecycleConfig::default()
        });
        let canaried = tier(&m, &arch, 2, load_config(), Interconnect::nvlink())
            .serve_with_retune(&reqs, &mut canaried_policy)?;

        assert!(
            blind.lifecycle.retunes_promoted >= 1,
            "a blind swap installs the regressed engine"
        );
        assert_eq!(
            canaried.lifecycle.retunes_promoted, 0,
            "the canary must never promote a 4x-slower candidate"
        );
        assert!(canaried.lifecycle.retunes_rolled_back >= 1);
        assert!(canaried.lifecycle.canary_shadow_chunks > 0);
        assert!(canaried.lifecycle.canary_overhead_us > 0.0);
        // Shadow runs are accounted but never submitted: request records
        // are bit-identical to a tier that never retuned at all.
        assert_eq!(canaried.records, plain.records);
        assert!(
            canaried.percentile_us(0.99) < blind.percentile_us(0.99),
            "rolling back must beat serving on the regressed engine: {} vs {}",
            canaried.percentile_us(0.99),
            blind.percentile_us(0.99)
        );
        Ok(())
    }

    #[test]
    fn staged_rollout_promotes_every_shard_in_order() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let (_shifted, reqs) = drifting_stream(&m);
        let mut policy = ShardedRetunePolicy {
            lifecycle: LifecycleConfig {
                canary: true,
                ..LifecycleConfig::default()
            },
            retuner: Box::new(|sm: &ModelConfig, _: &[Batch]| {
                TunedCandidate::from(Box::new(TorchRecBackend::compile(sm)) as Box<dyn Backend>)
            }),
        };
        let report = tier(&m, &arch, 3, load_config(), Interconnect::nvlink())
            .serve_with_retune(&reqs, &mut policy)?;
        assert_eq!(report.lifecycle.retunes_promoted, 1);
        assert_eq!(report.lifecycle.engine_version, 1);
        assert_eq!(report.lifecycle.retunes_rolled_back, 0);
        let promotions: Vec<(f64, usize)> = report
            .lifecycle_trace
            .iter()
            .filter_map(|e| match e {
                LifecycleEvent::ShardPromoted { t_us, shard } => Some((*t_us, *shard)),
                _ => None,
            })
            .collect();
        let order: Vec<usize> = promotions.iter().map(|&(_, s)| s).collect();
        assert_eq!(order, vec![0, 1, 2], "shards promote in placement order");
        for pair in promotions.windows(2) {
            let gap = pair[1].0 - pair[0].0;
            assert!(
                (gap - STAGGER_US).abs() < 1e-9,
                "promotions are staggered by {STAGGER_US} µs, got {gap}"
            );
        }
        Ok(())
    }

    #[test]
    fn hot_shard_cap_none_and_slack_cap_are_byte_identical() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 40, 42);
        let run = |cap: Option<u32>| {
            let mut config = load_config();
            config.hot_shard_cap = cap;
            tier(&m, &arch, 2, config, Interconnect::nvlink()).serve(&reqs)
        };
        let baseline = run(None)?;
        // A cap no chunk can exceed must not perturb a single record.
        assert_eq!(baseline, run(Some(u32::MAX))?);
        assert_eq!(
            serde_json::to_string(&baseline).ok(),
            serde_json::to_string(&run(Some(u32::MAX))?).ok()
        );
        Ok(())
    }

    #[test]
    fn hot_shard_cap_zero_is_rejected_up_front() {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 4, 42);
        let mut config = load_config();
        config.hot_shard_cap = Some(0);
        let err = tier(&m, &arch, 2, config, Interconnect::nvlink()).serve(&reqs);
        assert!(matches!(err, Err(ServeError::Policy(_))), "{err:?}");
    }

    #[test]
    fn hot_shard_cap_resplits_hot_chunks_without_losing_requests() -> Result<(), ServeError> {
        let (m, arch) = setup();
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 40, 42);
        let run = |cap: Option<u32>| {
            let mut config = load_config();
            config.policy = BatchPolicy::Unsplit; // admit whole hot batches
            config.hot_shard_cap = cap;
            tier(&m, &arch, 2, config, Interconnect::nvlink()).serve(&reqs)
        };
        let uncapped = run(None)?;
        let capped = run(Some(256))?;
        // The cap only re-splits submissions above it: every request
        // still completes, in more, narrower chunks on every lane.
        let ids = |r: &ShardedReport| {
            let mut v: Vec<u64> = r.records.iter().map(|x| x.base.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&uncapped), ids(&capped));
        assert!(capped.records.iter().all(|r| !r.base.is_shed()));
        assert!(
            capped.kernel_launches > uncapped.kernel_launches,
            "{} vs {}",
            capped.kernel_launches,
            uncapped.kernel_launches
        );
        Ok(())
    }
}
