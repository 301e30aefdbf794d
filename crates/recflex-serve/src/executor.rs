//! Multi-stream device executor.
//!
//! Online serving time-shares one device among concurrent kernels
//! (Section VI-D runs one CUDA stream per in-flight request). The
//! simulator models that as deterministic *processor sharing*: up to
//! `streams` kernels are resident at once and each resident kernel
//! progresses at rate `1/k` when `k` are resident, so total device
//! throughput is one µs of work per µs of wall time regardless of
//! occupancy. Kernels beyond the stream limit wait in a FIFO launch
//! queue. The model is event-driven and exactly reproducible: ties are
//! broken by submission order, never by wall clock or hash order.
//!
//! Fault injection hooks into the same model: a *slowdown* scales the
//! device's aggregate throughput (rate `r` µs of work per µs of wall
//! time), a *stall* is rate zero (resident kernels freeze in place), and
//! a *crash* drains every resident and queued kernel without completion
//! events so the serving tier can re-execute or degrade them. At the
//! default rate of 1 every code path is arithmetically identical to the
//! fault-free model — the no-fault bit-for-bit guarantee leans on
//! `x / 1.0 == x` and `x * 1.0 == x` being exact in IEEE arithmetic.

use std::collections::VecDeque;

/// Caller-chosen identifier for a unit of device work.
pub type JobId = u64;

#[derive(Debug, Clone)]
struct Job {
    id: JobId,
    /// Device-µs of work still to do (at `clock`, for resident jobs).
    remaining_us: f64,
}

/// A deterministic processor-sharing model of one device.
#[derive(Debug)]
pub struct DeviceExecutor {
    streams: usize,
    clock: f64,
    /// Aggregate throughput: µs of device work retired per µs of wall
    /// time. 1 is a healthy device, (0, 1) a fault-injected slowdown,
    /// 0 a stall (kernels freeze until the rate recovers).
    rate: f64,
    resident: Vec<Job>,
    queue: VecDeque<Job>,
    started: Vec<(f64, JobId)>,
    completed: Vec<(f64, JobId)>,
}

impl DeviceExecutor {
    /// A device that can keep `streams` kernels resident (≥ 1).
    pub fn new(streams: u32) -> Self {
        DeviceExecutor {
            streams: streams.max(1) as usize,
            clock: 0.0,
            rate: 1.0,
            resident: Vec::new(),
            queue: VecDeque::new(),
            started: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Submit `work_us` of device work at time `now_us` (must be ≥ the
    /// timestamp of every earlier call — the runtime's event loop is
    /// monotone). The job starts immediately if a stream is free,
    /// otherwise it queues FIFO.
    pub fn submit(&mut self, now_us: f64, id: JobId, work_us: f64) {
        self.advance_to(now_us);
        self.queue.push_back(Job {
            id,
            remaining_us: work_us.max(0.0),
        });
        self.promote();
    }

    /// The absolute time at which the next resident kernel finishes, if
    /// any work is in flight. A stalled device (rate 0) never completes
    /// on its own — it needs a rate recovery first.
    pub fn next_completion_us(&self) -> Option<f64> {
        if self.rate <= 0.0 {
            return None;
        }
        let k = self.resident.len();
        self.resident
            .iter()
            .map(|j| j.remaining_us)
            .fold(None, |m: Option<f64>, r| Some(m.map_or(r, |m| m.min(r))))
            .map(|min| self.clock + min * k as f64 / self.rate)
    }

    /// Change the device's aggregate throughput at time `now_us`,
    /// accounting all progress made under the old rate first. Rate 1 is
    /// healthy, (0, 1) a slowdown, 0 a stall.
    pub fn set_rate(&mut self, now_us: f64, rate: f64) {
        self.advance_to(now_us);
        self.rate = rate.max(0.0);
    }

    /// The current aggregate throughput.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Kill the device at time `now_us`: every resident and queued kernel
    /// is dropped *without* a completion event and their ids are returned
    /// (resident first, in submission order, then the FIFO queue) so the
    /// caller can re-execute them elsewhere or serve degraded output.
    /// Partial progress on resident kernels is lost.
    pub fn fail_all(&mut self, now_us: f64) -> Vec<JobId> {
        self.advance_to(now_us);
        let mut failed: Vec<JobId> = self.resident.drain(..).map(|j| j.id).collect();
        failed.extend(self.queue.drain(..).map(|j| j.id));
        failed
    }

    /// Cancel one kernel at time `now_us` (hedged re-execution lost the
    /// race, or its chunk was served degraded). Progress is accounted
    /// first; a freed stream immediately promotes queued work. Returns
    /// false if the job already completed or was never submitted.
    pub fn cancel(&mut self, now_us: f64, id: JobId) -> bool {
        self.advance_to(now_us);
        if let Some(i) = self.resident.iter().position(|j| j.id == id) {
            self.resident.remove(i);
            self.promote();
            return true;
        }
        if let Some(i) = self.queue.iter().position(|j| j.id == id) {
            self.queue.remove(i);
            return true;
        }
        false
    }

    /// Total device-µs of outstanding work (resident + queued). Because
    /// aggregate throughput is 1, this is exactly the time the device
    /// needs to drain if nothing else arrives — the quantity SLO
    /// admission control compares against a request's deadline.
    pub fn backlog_us(&self) -> f64 {
        self.resident.iter().map(|j| j.remaining_us).sum::<f64>()
            + self.queue.iter().map(|j| j.remaining_us).sum::<f64>()
    }

    /// True when no work is resident or queued.
    pub fn is_idle(&self) -> bool {
        self.resident.is_empty() && self.queue.is_empty()
    }

    /// Jobs currently on the device: resident plus FIFO-queued. The
    /// sharded tier samples this at every submission to report per-shard
    /// peak queue depth.
    pub fn depth(&self) -> usize {
        self.resident.len() + self.queue.len()
    }

    /// Advance the device clock to `t`, retiring every kernel that
    /// finishes on the way and promoting queued kernels into freed
    /// streams. Completions are buffered for [`Self::drain_completed`].
    /// A kernel whose remaining work is too small to move the clock at
    /// all is due at the clock itself, and retires even when `t` is the
    /// current clock.
    pub fn advance_to(&mut self, t: f64) {
        loop {
            if self.resident.is_empty() || self.rate <= 0.0 {
                // Nothing resident, or stalled: time passes, work doesn't.
                self.clock = self.clock.max(t);
                return;
            }
            let k = self.resident.len() as f64;
            let min_rem = self
                .resident
                .iter()
                .map(|j| j.remaining_us)
                .fold(f64::INFINITY, f64::min);
            let finish_at = self.clock + min_rem * k / self.rate;
            if finish_at > t || !finish_at.is_finite() {
                if self.clock < t {
                    let per_job = (t - self.clock) * self.rate / k;
                    for j in &mut self.resident {
                        j.remaining_us -= per_job;
                    }
                    self.clock = t;
                }
                return;
            }
            for j in &mut self.resident {
                j.remaining_us -= min_rem;
            }
            self.clock = self.clock.max(finish_at);
            // Retire in submission order (Vec order), so simultaneous
            // completions resolve deterministically.
            let mut i = 0;
            while i < self.resident.len() {
                if self.resident[i].remaining_us <= 1e-9 {
                    let job = self.resident.remove(i);
                    self.completed.push((self.clock, job.id));
                } else {
                    i += 1;
                }
            }
            self.promote();
        }
    }

    /// Take every completion recorded so far, in completion order.
    pub fn drain_completed(&mut self) -> Vec<(f64, JobId)> {
        std::mem::take(&mut self.completed)
    }

    /// Take every kernel-start event recorded so far, in start order —
    /// the moment a job left the FIFO launch queue and became resident.
    /// The gap between submission and start is the stream-queue wait.
    pub fn drain_started(&mut self) -> Vec<(f64, JobId)> {
        std::mem::take(&mut self.started)
    }

    fn promote(&mut self) {
        while self.resident.len() < self.streams {
            match self.queue.pop_front() {
                Some(job) if job.remaining_us <= 1e-9 => {
                    // Zero-cost work retires instantly.
                    self.started.push((self.clock, job.id));
                    self.completed.push((self.clock, job.id));
                }
                Some(job) => {
                    self.started.push((self.clock, job.id));
                    self.resident.push(job);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_idle(ex: &mut DeviceExecutor) -> Vec<(f64, JobId)> {
        while let Some(t) = ex.next_completion_us() {
            ex.advance_to(t);
        }
        ex.drain_completed()
    }

    #[test]
    fn single_job_takes_its_own_cost() {
        let mut ex = DeviceExecutor::new(4);
        ex.submit(10.0, 1, 100.0);
        assert_eq!(run_until_idle(&mut ex), vec![(110.0, 1)]);
    }

    #[test]
    fn processor_sharing_slows_concurrent_jobs() {
        // Two equal jobs each run at half rate: both finish at 200.
        let mut ex = DeviceExecutor::new(4);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 100.0);
        assert_eq!(run_until_idle(&mut ex), vec![(200.0, 1), (200.0, 2)]);
    }

    #[test]
    fn unequal_jobs_finish_at_work_conserving_times() {
        // B(50) at half rate finishes at 100; A then runs alone and
        // finishes its remaining 50 at 150. Total work 150 is conserved.
        let mut ex = DeviceExecutor::new(4);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 50.0);
        assert_eq!(run_until_idle(&mut ex), vec![(100.0, 2), (150.0, 1)]);
    }

    #[test]
    fn single_stream_is_fifo_serial() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 50.0);
        ex.submit(120.0, 3, 30.0);
        assert_eq!(
            run_until_idle(&mut ex),
            vec![(100.0, 1), (150.0, 2), (180.0, 3)]
        );
    }

    #[test]
    fn backlog_is_total_outstanding_work() {
        let mut ex = DeviceExecutor::new(2);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 60.0);
        ex.submit(0.0, 3, 40.0); // queued
        assert!((ex.backlog_us() - 200.0).abs() < 1e-9);
        ex.advance_to(50.0); // 25 µs progress per resident job
        assert!((ex.backlog_us() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn start_events_measure_stream_queue_wait() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 50.0);
        run_until_idle(&mut ex);
        assert_eq!(ex.drain_started(), vec![(0.0, 1), (100.0, 2)]);
    }

    #[test]
    fn slowdown_stretches_completions_by_the_rate() {
        // 100 µs of work at rate 0.5 takes 200 µs of wall time.
        let mut ex = DeviceExecutor::new(4);
        ex.set_rate(0.0, 0.5);
        ex.submit(0.0, 1, 100.0);
        assert_eq!(run_until_idle(&mut ex), vec![(200.0, 1)]);
    }

    #[test]
    fn mid_flight_rate_change_accounts_prior_progress() {
        // Half the work at rate 1 (50 µs), the rest at rate 0.25 (200 µs).
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.set_rate(50.0, 0.25);
        assert_eq!(run_until_idle(&mut ex), vec![(250.0, 1)]);
    }

    #[test]
    fn stall_freezes_work_until_recovery() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.set_rate(30.0, 0.0);
        assert_eq!(ex.next_completion_us(), None, "stalled device never fires");
        ex.advance_to(500.0);
        assert!(
            (ex.backlog_us() - 70.0).abs() < 1e-9,
            "no progress while stalled"
        );
        ex.set_rate(500.0, 1.0);
        assert_eq!(run_until_idle(&mut ex), vec![(570.0, 1)]);
    }

    #[test]
    fn fail_all_drains_resident_and_queued_without_completions() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 50.0);
        let failed = ex.fail_all(10.0);
        assert_eq!(failed, vec![1, 2], "resident first, then the queue");
        assert!(ex.is_idle());
        assert!(ex.drain_completed().is_empty());
        // The device serves fresh work normally after the crash.
        ex.submit(20.0, 3, 30.0);
        assert_eq!(run_until_idle(&mut ex), vec![(50.0, 3)]);
    }

    #[test]
    fn cancel_removes_one_job_and_promotes_queued_work() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 100.0);
        ex.submit(0.0, 2, 50.0);
        assert!(ex.cancel(10.0, 1), "resident job cancels");
        assert!(!ex.cancel(10.0, 1), "already gone");
        // Job 2 starts at the cancellation instant and runs alone.
        assert_eq!(run_until_idle(&mut ex), vec![(60.0, 2)]);
        assert_eq!(ex.drain_started(), vec![(0.0, 1), (10.0, 2)]);
    }

    #[test]
    fn work_too_small_to_move_the_clock_completes_at_the_clock() {
        // Near 1e9 µs the clock resolves about 1.2e-7 µs, so a 1e-8 µs
        // kernel is due the moment it becomes resident.
        let mut ex = DeviceExecutor::new(2);
        ex.advance_to(1e9);
        ex.submit(1e9, 1, 1e-8);
        assert_eq!(ex.next_completion_us(), Some(1e9));
        ex.advance_to(1e9);
        assert_eq!(ex.drain_completed(), vec![(1e9, 1)]);
        assert!(ex.is_idle());
    }

    #[test]
    fn queued_work_promotes_when_a_stream_frees() {
        let mut ex = DeviceExecutor::new(1);
        ex.submit(0.0, 1, 10.0);
        ex.submit(0.0, 2, 10.0);
        ex.advance_to(5.0);
        assert_eq!(ex.next_completion_us(), Some(10.0));
        let done = run_until_idle(&mut ex);
        assert_eq!(done, vec![(10.0, 1), (20.0, 2)]);
    }
}
