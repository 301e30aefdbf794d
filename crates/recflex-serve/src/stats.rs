//! Per-request latency accounting.
//!
//! Serving quality is a tail-latency story (Section VI-D reports
//! end-to-end latency under concurrent long-tail requests), so the
//! runtime records a full breakdown for every request — queue wait
//! versus device time — and the report exposes nearest-rank percentiles
//! over completed requests plus the shed rate for SLO accounting.
//! [`ShardedReport`] adds the cross-shard terms and the fault observables
//! (downtime, hedge fires and wins, failovers, degraded-request rate,
//! availability) that the chaos harness gates on.

use serde::Serialize;

use crate::lifecycle::{LifecycleEvent, LifecycleStats};

/// Why (or whether) a request was dropped at admission. Serialized under
/// the field name `shed` that used to hold a bool — the vendored
/// serde_derive ignores `#[serde(rename)]` attributes, so the rename is a
/// hand-written `Serialize` impl below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedReason {
    /// The request was served (possibly degraded), not shed.
    #[default]
    None,
    /// Pure load shedding: the backlog already exceeded the SLO deadline
    /// with every lane healthy.
    Admission,
    /// Fault shedding: the backlog exceeded the deadline (or a lane could
    /// not drain at all) while a fault was active — capacity, not
    /// traffic, was the problem.
    Fault,
}

impl ShedReason {
    /// True when the request was dropped for any reason.
    pub fn is_shed(&self) -> bool {
        !matches!(self, ShedReason::None)
    }
}

impl Serialize for ShedReason {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Str(
            match self {
                ShedReason::None => "none",
                ShedReason::Admission => "admission",
                ShedReason::Fault => "fault",
            }
            .to_string(),
        )
    }
}

/// What happened to one request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestRecord {
    /// Stream-unique request id, in arrival order.
    pub id: u64,
    /// Samples in the request.
    pub batch_size: u32,
    /// Arrival timestamp, µs.
    pub arrival_us: f64,
    /// Time spent waiting before the first chunk launched, µs
    /// (batching delay + stream queueing). Zero for shed requests.
    pub queue_us: f64,
    /// Time from first launch to last completion, µs. Zero for shed.
    pub service_us: f64,
    /// Completion timestamp, µs (equals `arrival_us` for shed requests).
    pub done_us: f64,
    /// Whether admission control dropped the request, and why
    /// ([`ShedReason::None`] means it ran).
    pub shed: ShedReason,
}

impl RequestRecord {
    /// End-to-end latency: queue wait plus device service.
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.arrival_us
    }

    /// True when admission control dropped this request.
    pub fn is_shed(&self) -> bool {
        self.shed.is_shed()
    }
}

/// What happened to one request in the serving tier: the per-request
/// breakdown plus the cross-shard terms.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardedRequestRecord {
    /// The per-request record (`service_us` and `done_us` include the
    /// all-gather; latency = queue + device + gather).
    pub base: RequestRecord,
    /// Gating launch to last per-shard kernel completion, µs — the pure
    /// device share of service time. A chunk is "launched" once its
    /// *last* lane picks it up, so a backlogged shard's launch-queue
    /// wait stays in `queue_us` rather than inflating device time.
    pub device_us: f64,
    /// All-gather overhang on the critical path, µs (last device
    /// completion to final completion). Zero with one shard.
    pub gather_us: f64,
    /// Largest straggler gap over this request's chunks, µs: slowest
    /// shard completion minus fastest for the same chunk. The slowest
    /// shard gates the gather, so this is the latency lost to imbalance.
    pub straggler_us: f64,
    /// True when any of this request's chunks was served with partial
    /// embeddings: a crashed shard's features were zero-pooled instead
    /// of gathered (the degradation ladder's availability-over-fidelity
    /// trade).
    pub degraded: bool,
}

/// Aggregate view of one shard's lane over a run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ShardLaneStats {
    /// Chunks executed on this shard.
    pub jobs: u64,
    /// Total device work submitted, µs.
    pub device_us: f64,
    /// Peak backlog (device-µs owed) observed at any submission.
    pub max_backlog_us: f64,
    /// Peak queue depth (resident + FIFO-queued jobs) at any submission.
    pub max_queue_depth: usize,
    /// Total time this shard was unable to make progress (crash or stall
    /// fault windows clipped to the run), µs.
    pub downtime_us: f64,
    /// Chunks whose work was re-projected off this shard onto its
    /// replica because it crashed.
    pub failovers: u64,
}

/// Aggregate outcome of one serving run on the tier (a single GPU is the
/// 1-shard case).
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct ShardedReport {
    /// One record per request, in arrival order (shed included).
    pub records: Vec<ShardedRequestRecord>,
    /// Per-shard lane statistics, indexed by device.
    pub per_shard: Vec<ShardLaneStats>,
    /// Standby replica lane statistics, in mirrored-shard order (empty
    /// without replication).
    pub per_replica: Vec<ShardLaneStats>,
    /// Kernel launches summed over every shard.
    pub kernel_launches: u64,
    /// Hedged re-executions fired after a chunk-shard deadline expired.
    pub hedge_fires: u64,
    /// Hedges whose replica copy finished before the primary.
    pub hedge_wins: u64,
    /// Chunk-shard work items re-projected off a crashed lane.
    pub failovers: u64,
    /// Timestamp of the last completion (or last arrival if all shed).
    pub makespan_us: f64,
    /// Schedule-lifecycle counters (attempts, failures, rollbacks,
    /// promotions, canary overhead, engine version).
    pub lifecycle: LifecycleStats,
    /// The lifecycle trace: every state-machine transition, in order.
    pub lifecycle_trace: Vec<LifecycleEvent>,
}

impl ShardedReport {
    /// Records of requests that actually ran.
    pub fn completed(&self) -> impl Iterator<Item = &ShardedRequestRecord> {
        self.records.iter().filter(|r| !r.base.is_shed())
    }

    /// Fraction of requests shed by admission control, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.base.is_shed()).count() as f64 / self.records.len() as f64
    }

    /// Fraction of requests shed for the given reason, in `[0, 1]`.
    pub fn shed_rate_for(&self, reason: ShedReason) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .filter(|r| r.base.shed == reason)
            .count() as f64
            / self.records.len() as f64
    }

    /// Availability: the fraction of requests that were answered —
    /// completed normally *or* served degraded — in `[0, 1]`. This is the
    /// quantity the degradation ladder protects: a zero-pooled partial
    /// embedding is an answer, a shed request is not.
    pub fn availability(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        1.0 - self.shed_rate()
    }

    /// Fraction of *answered* requests that were served degraded
    /// (partial embeddings), in `[0, 1]`.
    pub fn degraded_rate(&self) -> f64 {
        let (degraded, n) = self
            .completed()
            .fold((0u64, 0u64), |(d, n), r| (d + u64::from(r.degraded), n + 1));
        if n == 0 {
            0.0
        } else {
            degraded as f64 / n as f64
        }
    }

    /// Mean end-to-end latency over completed requests, µs.
    pub fn mean_latency_us(&self) -> f64 {
        mean(self.completed().map(|r| r.base.latency_us()))
    }

    /// Nearest-rank percentile of end-to-end latency over completed
    /// requests, µs. `q` in `[0, 1]`; `q = 0` is the minimum, `q = 1` the
    /// maximum.
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(self.completed().map(|r| r.base.latency_us()), q)
    }

    /// Nearest-rank percentile of the pure device share of service, µs.
    pub fn percentile_device_us(&self, q: f64) -> f64 {
        percentile(self.completed().map(|r| r.device_us), q)
    }

    /// Nearest-rank percentile of the straggler gap, µs.
    pub fn percentile_straggler_us(&self, q: f64) -> f64 {
        percentile(self.completed().map(|r| r.straggler_us), q)
    }

    /// Mean all-gather overhang over completed requests, µs.
    pub fn mean_gather_us(&self) -> f64 {
        mean(self.completed().map(|r| r.gather_us))
    }

    /// Mean straggler gap over completed requests, µs.
    pub fn mean_straggler_us(&self) -> f64 {
        mean(self.completed().map(|r| r.straggler_us))
    }

    /// Mean queue wait over completed requests, µs.
    pub fn mean_queue_us(&self) -> f64 {
        mean(self.completed().map(|r| r.base.queue_us))
    }

    /// Merge the reports of one logical run that was served in several
    /// time segments — the shape a drained-and-migrated fleet member
    /// produces (pre-migration traffic on the old class, post-handoff
    /// traffic on the new one). Records concatenate and re-sort by
    /// `(arrival_us, id)` so the merged stream reads as one arrival
    /// order; lane stats concatenate in segment order (the segments may
    /// run on different hardware, so their lanes are distinct);
    /// counters and downtime sum; makespan is the max; lifecycle
    /// counters sum field-wise except `engine_version`, which takes the
    /// max (versions only move forward); traces concatenate in segment
    /// order.
    pub fn merge(parts: Vec<ShardedReport>) -> ShardedReport {
        let mut out = ShardedReport::default();
        for part in parts {
            out.records.extend(part.records);
            out.per_shard.extend(part.per_shard);
            out.per_replica.extend(part.per_replica);
            out.kernel_launches += part.kernel_launches;
            out.hedge_fires += part.hedge_fires;
            out.hedge_wins += part.hedge_wins;
            out.failovers += part.failovers;
            out.makespan_us = out.makespan_us.max(part.makespan_us);
            out.lifecycle.retunes_attempted += part.lifecycle.retunes_attempted;
            out.lifecycle.retunes_failed += part.lifecycle.retunes_failed;
            out.lifecycle.retunes_rolled_back += part.lifecycle.retunes_rolled_back;
            out.lifecycle.retunes_promoted += part.lifecycle.retunes_promoted;
            out.lifecycle.canary_shadow_chunks += part.lifecycle.canary_shadow_chunks;
            out.lifecycle.canary_overhead_us += part.lifecycle.canary_overhead_us;
            out.lifecycle.engine_version = out
                .lifecycle
                .engine_version
                .max(part.lifecycle.engine_version);
            out.lifecycle_trace.extend(part.lifecycle_trace);
        }
        out.records.sort_by(|a, b| {
            a.base
                .arrival_us
                .total_cmp(&b.base.arrival_us)
                .then(a.base.id.cmp(&b.base.id))
        });
        out
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0u64), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Nearest-rank percentile of `xs`, 0 when empty. `q` in `[0, 1]`;
/// `q = 0` is the minimum, `q = 1` the maximum.
pub(crate) fn percentile(xs: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = xs.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, arrival: f64, queue: f64, service: f64) -> RequestRecord {
        RequestRecord {
            id,
            batch_size: 32,
            arrival_us: arrival,
            queue_us: queue,
            service_us: service,
            done_us: arrival + queue + service,
            shed: ShedReason::None,
        }
    }

    fn shed(id: u64, arrival: f64) -> RequestRecord {
        RequestRecord {
            id,
            batch_size: 32,
            arrival_us: arrival,
            queue_us: 0.0,
            service_us: 0.0,
            done_us: arrival,
            shed: ShedReason::Admission,
        }
    }

    /// A tier report over `records`, with no cross-shard terms.
    fn report(records: Vec<RequestRecord>) -> ShardedReport {
        ShardedReport {
            records: records
                .into_iter()
                .map(|base| ShardedRequestRecord {
                    base,
                    device_us: 0.0,
                    gather_us: 0.0,
                    straggler_us: 0.0,
                    degraded: false,
                })
                .collect(),
            ..Default::default()
        }
    }

    #[test]
    fn percentiles_over_known_latencies() {
        let report = report(
            (0..10)
                .map(|i| rec(i, 0.0, 0.0, (i + 1) as f64 * 10.0))
                .collect(),
        );
        assert_eq!(report.percentile_us(0.5), 50.0);
        assert_eq!(report.percentile_us(0.9), 90.0);
        assert_eq!(report.percentile_us(1.0), 100.0);
    }

    #[test]
    fn percentile_zero_is_the_minimum() {
        let report = report(vec![rec(0, 0.0, 0.0, 30.0), rec(1, 0.0, 0.0, 10.0)]);
        assert_eq!(report.percentile_us(0.0), 10.0);
    }

    #[test]
    fn single_record_percentiles_all_agree() {
        let report = report(vec![rec(0, 5.0, 2.0, 40.0)]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(report.percentile_us(q), 42.0);
        }
    }

    #[test]
    fn shed_requests_count_in_shed_rate_not_latency() {
        let report = report(vec![
            rec(0, 0.0, 0.0, 100.0),
            shed(1, 1.0),
            shed(2, 2.0),
            rec(3, 3.0, 0.0, 100.0),
        ]);
        assert_eq!(report.shed_rate(), 0.5);
        assert_eq!(report.mean_latency_us(), 100.0);
        assert_eq!(report.percentile_us(0.99), 100.0);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let report = ShardedReport::default();
        assert_eq!(report.shed_rate(), 0.0);
        assert_eq!(report.mean_latency_us(), 0.0);
        assert_eq!(report.percentile_us(0.5), 0.0);
    }

    #[test]
    fn shed_reason_serializes_under_the_legacy_field_shape() {
        // The `shed` field stays present by name; the bool became a
        // reason string.
        let json = serde_json::to_string(&shed(1, 2.0)).unwrap();
        assert!(json.contains("\"shed\":\"admission\""), "{json}");
        let json = serde_json::to_string(&rec(1, 0.0, 0.0, 1.0)).unwrap();
        assert!(json.contains("\"shed\":\"none\""), "{json}");
        let mut fault = shed(1, 2.0);
        fault.shed = ShedReason::Fault;
        let json = serde_json::to_string(&fault).unwrap();
        assert!(json.contains("\"shed\":\"fault\""), "{json}");
    }

    #[test]
    fn merge_interleaves_records_and_sums_counters() {
        let a = ShardedReport {
            per_shard: vec![ShardLaneStats {
                jobs: 2,
                ..Default::default()
            }],
            kernel_launches: 4,
            hedge_fires: 1,
            makespan_us: 30.0,
            lifecycle: LifecycleStats {
                retunes_promoted: 1,
                engine_version: 1,
                ..Default::default()
            },
            ..report(vec![rec(0, 0.0, 0.0, 10.0), rec(2, 20.0, 0.0, 10.0)])
        };
        let b = ShardedReport {
            per_shard: vec![ShardLaneStats {
                jobs: 1,
                ..Default::default()
            }],
            kernel_launches: 2,
            failovers: 3,
            makespan_us: 20.0,
            lifecycle: LifecycleStats {
                retunes_attempted: 2,
                engine_version: 0,
                ..Default::default()
            },
            ..report(vec![rec(1, 10.0, 0.0, 10.0)])
        };
        let merged = ShardedReport::merge(vec![a, b]);
        assert_eq!(
            merged.records.iter().map(|r| r.base.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "records re-sort into one arrival order"
        );
        assert_eq!(merged.per_shard.len(), 2, "lane stats stay segmented");
        assert_eq!(merged.kernel_launches, 6);
        assert_eq!(merged.hedge_fires, 1);
        assert_eq!(merged.failovers, 3);
        assert_eq!(merged.makespan_us, 30.0);
        assert_eq!(merged.lifecycle.retunes_attempted, 2);
        assert_eq!(merged.lifecycle.retunes_promoted, 1);
        assert_eq!(merged.lifecycle.engine_version, 1, "versions take the max");
    }

    #[test]
    fn merge_of_one_part_reorders_nothing() {
        let wrap = |base: RequestRecord| ShardedRequestRecord {
            base,
            device_us: 1.0,
            gather_us: 2.0,
            straggler_us: 3.0,
            degraded: true,
        };
        let part = ShardedReport {
            records: vec![wrap(rec(0, 0.0, 0.0, 10.0)), wrap(rec(1, 5.0, 0.0, 10.0))],
            makespan_us: 15.0,
            ..Default::default()
        };
        assert_eq!(ShardedReport::merge(vec![part.clone()]), part);
        assert_eq!(ShardedReport::merge(Vec::new()), ShardedReport::default());
    }

    #[test]
    fn availability_counts_degraded_answers_but_not_sheds() {
        let mut fault_shed = shed(2, 2.0);
        fault_shed.shed = ShedReason::Fault;
        let mut report = report(vec![
            rec(0, 0.0, 0.0, 10.0),
            rec(1, 1.0, 0.0, 10.0),
            fault_shed,
            shed(3, 3.0),
        ]);
        report.records[1].degraded = true;
        assert_eq!(report.availability(), 0.5);
        assert_eq!(report.degraded_rate(), 0.5);
        assert_eq!(report.shed_rate_for(ShedReason::Fault), 0.25);
        assert_eq!(report.shed_rate_for(ShedReason::Admission), 0.25);
        assert_eq!(ShardedReport::default().availability(), 1.0);
    }
}
