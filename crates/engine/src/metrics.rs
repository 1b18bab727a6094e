//! Engine metrics: counters, latency histogram, checkpointer health, and
//! timeline sampling.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use calc_common::hist::Histogram;
use calc_core::strategy::CheckpointStrategy;

use crate::service::ErrorClass;

/// Shared engine counters. Latency is measured from *submission* to
/// commit, so queueing during quiesce periods shows up — exactly what
/// Figure 5's CDFs require.
pub struct Metrics {
    committed: AtomicU64,
    aborted: AtomicU64,
    /// Submission-to-commit latency in nanoseconds.
    pub latency: Histogram,
    started: Instant,
}

impl Metrics {
    /// Fresh metrics anchored at now.
    pub fn new() -> Self {
        Metrics {
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            latency: Histogram::new(),
            started: Instant::now(),
        }
    }

    /// Records a committed transaction and its latency.
    #[inline]
    pub fn record_commit(&self, latency: Duration) {
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency.as_nanos() as u64);
    }

    /// Records an aborted transaction.
    #[inline]
    pub fn record_abort(&self) {
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// Committed count.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Aborted count.
    pub fn aborted(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Time since metrics creation.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Metrics(committed={}, aborted={}, {:?})",
            self.committed(),
            self.aborted(),
            self.latency
        )
    }
}

/// Sentinel for "no timestamp recorded" in [`Health`]'s nanosecond slots.
const NEVER: u64 = u64::MAX;

/// Checkpointer health, shared between the [`crate::service::CheckpointService`],
/// manual [`crate::Database::checkpoint_now`] calls, the background
/// merger, and observers.
///
/// All fields are monotonic counters or last-value slots so readers never
/// block writers; timestamps are nanoseconds since construction so they
/// fit in atomics. The stalled-cycle watchdog is computed lazily by
/// readers ([`Health::stalled`]) instead of by a dedicated timer thread.
pub struct Health {
    started: Instant,
    degraded_after: u32,
    watchdog: Duration,
    consecutive_failures: AtomicU32,
    total_failures: AtomicU64,
    degraded: AtomicBool,
    degraded_entries: AtomicU64,
    degraded_exits: AtomicU64,
    /// Class + message of the last failed cycle.
    last_error: Mutex<Option<(ErrorClass, String)>>,
    /// Nanos-since-start of the last successfully published checkpoint.
    last_success_nanos: AtomicU64,
    /// Nanos-since-start when the in-flight cycle began ([`NEVER`] when
    /// no cycle is running) — the watchdog's reference point.
    cycle_started_nanos: AtomicU64,
    /// Background partial-checkpoint merges that failed.
    merge_failures: AtomicU64,
    last_merge_error: Mutex<Option<String>>,
    /// Part files written by the most recent checkpoint cycle (0 until
    /// one completes).
    last_checkpoint_parts: AtomicU64,
    /// Disk bytes written by the most recent cycle (post-compression).
    last_checkpoint_bytes: AtomicU64,
    /// Uncompressed record-stream bytes of the most recent cycle.
    last_checkpoint_raw_bytes: AtomicU64,
    /// Superseded checkpoint chains pruned by retention, lifetime total.
    checkpoints_pruned: AtomicU64,
    /// Command-log segments truncated by retention, lifetime total.
    log_segments_truncated: AtomicU64,
    /// Command-log bytes freed by retention, lifetime total.
    log_bytes_truncated: AtomicU64,
    /// Retention passes (prune or truncate) that failed. Retention runs
    /// after the cycle is durably published, so a failure never un-commits
    /// a checkpoint — disk use just stays higher until the next pass.
    retention_failures: AtomicU64,
    /// Highest commit seq a warm standby has applied (0 until tailing).
    standby_applied_seq: AtomicU64,
    /// Commits the most recent tail poll found waiting beyond the applied
    /// watermark — how far behind the standby had fallen between polls.
    standby_commits_behind: AtomicU64,
    /// Log bytes beyond the trusted tail the most recent poll could not
    /// yet apply (an in-flight append, or untrusted bytes past a wedge).
    standby_bytes_behind: AtomicU64,
    /// Times the standby rebuilt its state from the covering checkpoint
    /// after retention truncated segments below its cursor.
    standby_rebootstraps: AtomicU64,
    /// Tail errors recorded (poll failures and tail-thread exits).
    tail_errors: AtomicU64,
    /// Class + message of the most recent tail error.
    last_tail_error: Mutex<Option<(ErrorClass, String)>>,
    /// Nanos-since-start of the most recent tail poll ([`NEVER`] until
    /// the standby starts tailing) — the tail watchdog's reference point.
    tail_heartbeat_nanos: AtomicU64,
    /// The tail loop exited (thread death or fatal error): the applied
    /// watermark is frozen and will never advance again.
    tail_exited: AtomicBool,
    /// The standby was promoted: lag slots are final, not live.
    promoted: AtomicBool,
    /// Group-commit batches fsynced, lifetime total.
    commit_batches: AtomicU64,
    /// Commit records made durable across all batches (the numerator of
    /// the average batch size).
    commit_batch_records: AtomicU64,
    /// Per-batch fsync latency in nanoseconds.
    fsync_latency: Histogram,
    /// Server connections accepted, lifetime total.
    connections_opened: AtomicU64,
    /// Server connections closed, lifetime total.
    connections_closed: AtomicU64,
    /// The command log hit ENOSPC and the engine is shedding writes while
    /// the group committer retries inside its heal window.
    log_read_only: AtomicBool,
    /// Times the command log entered read-only degraded mode (ENOSPC).
    log_enospc_entries: AtomicU64,
    /// Emergency retention passes triggered by ENOSPC on the command log.
    emergency_retention_passes: AtomicU64,
}

impl Health {
    /// Fresh health state. `degraded_after` consecutive cycle failures
    /// (or one fatal failure) enter degraded mode; a cycle running longer
    /// than `watchdog` is reported stalled.
    pub fn new(degraded_after: u32, watchdog: Duration) -> Self {
        Health {
            started: Instant::now(),
            degraded_after: degraded_after.max(1),
            watchdog,
            consecutive_failures: AtomicU32::new(0),
            total_failures: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            degraded_entries: AtomicU64::new(0),
            degraded_exits: AtomicU64::new(0),
            last_error: Mutex::new(None),
            last_success_nanos: AtomicU64::new(NEVER),
            cycle_started_nanos: AtomicU64::new(NEVER),
            merge_failures: AtomicU64::new(0),
            last_merge_error: Mutex::new(None),
            last_checkpoint_parts: AtomicU64::new(0),
            last_checkpoint_bytes: AtomicU64::new(0),
            last_checkpoint_raw_bytes: AtomicU64::new(0),
            checkpoints_pruned: AtomicU64::new(0),
            log_segments_truncated: AtomicU64::new(0),
            log_bytes_truncated: AtomicU64::new(0),
            retention_failures: AtomicU64::new(0),
            standby_applied_seq: AtomicU64::new(0),
            standby_commits_behind: AtomicU64::new(0),
            standby_bytes_behind: AtomicU64::new(0),
            standby_rebootstraps: AtomicU64::new(0),
            tail_errors: AtomicU64::new(0),
            last_tail_error: Mutex::new(None),
            tail_heartbeat_nanos: AtomicU64::new(NEVER),
            tail_exited: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            commit_batches: AtomicU64::new(0),
            commit_batch_records: AtomicU64::new(0),
            fsync_latency: Histogram::new(),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            log_read_only: AtomicBool::new(false),
            log_enospc_entries: AtomicU64::new(0),
            emergency_retention_passes: AtomicU64::new(0),
        }
    }

    fn now_nanos(&self) -> u64 {
        // Saturate far below NEVER; ~584 years of uptime before wrap.
        self.started.elapsed().as_nanos().min((NEVER - 1) as u128) as u64
    }

    /// A checkpoint cycle is starting (arms the watchdog).
    pub fn cycle_started(&self) {
        self.cycle_started_nanos
            .store(self.now_nanos(), Ordering::Release);
    }

    /// The in-flight cycle published successfully: resets the failure
    /// streak and exits degraded mode (self-heal).
    pub fn cycle_succeeded(&self) {
        self.last_success_nanos
            .store(self.now_nanos(), Ordering::Release);
        self.cycle_started_nanos.store(NEVER, Ordering::Release);
        self.consecutive_failures.store(0, Ordering::Release);
        if self.degraded.swap(false, Ordering::AcqRel) {
            self.degraded_exits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The in-flight cycle failed. Enters degraded mode when the streak
    /// reaches the threshold, or immediately on a fatal error. Returns
    /// `true` if this failure newly entered degraded mode.
    pub fn cycle_failed(&self, class: ErrorClass, err: &io::Error) -> bool {
        self.cycle_started_nanos.store(NEVER, Ordering::Release);
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        self.total_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock() = Some((class, err.to_string()));
        if (class == ErrorClass::Fatal || streak >= self.degraded_after)
            && !self.degraded.swap(true, Ordering::AcqRel)
        {
            self.degraded_entries.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// A background partial-checkpoint merge failed (it will be retried
    /// at the next merge trigger).
    pub fn record_merge_failure(&self, err: &io::Error) {
        self.merge_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_merge_error.lock() = Some(err.to_string());
    }

    /// Whether the engine is in degraded mode: checkpointing is failing,
    /// but transactions keep committing and the command log keeps
    /// growing, so recovery works — with a longer replay.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// Times degraded mode has been entered.
    pub fn degraded_entries(&self) -> u64 {
        self.degraded_entries.load(Ordering::Relaxed)
    }

    /// Times degraded mode has been exited (self-heals).
    pub fn degraded_exits(&self) -> u64 {
        self.degraded_exits.load(Ordering::Relaxed)
    }

    /// Current streak of failed cycles.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures.load(Ordering::Acquire)
    }

    /// Total failed cycles over the engine's lifetime.
    pub fn total_failures(&self) -> u64 {
        self.total_failures.load(Ordering::Relaxed)
    }

    /// Class and message of the most recent cycle failure.
    pub fn last_error(&self) -> Option<(ErrorClass, String)> {
        self.last_error.lock().clone()
    }

    /// Time since the last successfully published checkpoint (`None` if
    /// none has ever published) — the recovery-replay-length proxy.
    pub fn time_since_last_success(&self) -> Option<Duration> {
        match self.last_success_nanos.load(Ordering::Acquire) {
            NEVER => None,
            n => Some(self.started.elapsed().saturating_sub(Duration::from_nanos(n))),
        }
    }

    /// Watchdog: `true` while an in-flight cycle has been running longer
    /// than the configured budget. Distinguishes "cycles failing fast"
    /// (degraded mode, retries in progress) from "a cycle is wedged and
    /// nothing is being retried at all".
    pub fn stalled(&self) -> bool {
        match self.cycle_started_nanos.load(Ordering::Acquire) {
            NEVER => false,
            n => self.started.elapsed().saturating_sub(Duration::from_nanos(n)) > self.watchdog,
        }
    }

    /// The stalled-cycle budget.
    pub fn watchdog(&self) -> Duration {
        self.watchdog
    }

    /// Records how many part files the just-completed checkpoint cycle
    /// wrote (from [`calc_core::strategy::CheckpointStats::parts`]).
    pub fn record_parts(&self, parts: usize) {
        self.last_checkpoint_parts
            .store(parts as u64, Ordering::Relaxed);
    }

    /// Part files written by the most recent checkpoint cycle (0 before
    /// the first completes). With `checkpoint_threads = n` this is n for
    /// every parallel capture; 1 indicates the serial pipeline.
    pub fn last_checkpoint_parts(&self) -> u64 {
        self.last_checkpoint_parts.load(Ordering::Relaxed)
    }

    /// Records the just-completed cycle's disk footprint (from
    /// [`calc_core::strategy::CheckpointStats`]): bytes on disk and the
    /// uncompressed stream size they encode.
    pub fn record_footprint(&self, bytes: u64, raw_bytes: u64) {
        self.last_checkpoint_bytes.store(bytes, Ordering::Relaxed);
        self.last_checkpoint_raw_bytes
            .store(raw_bytes, Ordering::Relaxed);
    }

    /// Disk bytes written by the most recent checkpoint cycle.
    pub fn last_checkpoint_bytes(&self) -> u64 {
        self.last_checkpoint_bytes.load(Ordering::Relaxed)
    }

    /// Uncompressed record-stream bytes of the most recent cycle. The
    /// ratio against [`Health::last_checkpoint_bytes`] is the cycle's
    /// compression ratio (1.0 under codec `none`).
    pub fn last_checkpoint_raw_bytes(&self) -> u64 {
        self.last_checkpoint_raw_bytes.load(Ordering::Relaxed)
    }

    /// Records one retention pass: checkpoints pruned, command-log
    /// segments truncated, and log bytes freed.
    pub fn record_retention(&self, pruned: u64, segments: u64, log_bytes: u64) {
        self.checkpoints_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.log_segments_truncated
            .fetch_add(segments, Ordering::Relaxed);
        self.log_bytes_truncated
            .fetch_add(log_bytes, Ordering::Relaxed);
    }

    /// A retention pass failed (the cycle itself already published).
    pub fn record_retention_failure(&self) {
        self.retention_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Superseded checkpoints pruned by retention, lifetime total.
    pub fn checkpoints_pruned(&self) -> u64 {
        self.checkpoints_pruned.load(Ordering::Relaxed)
    }

    /// Command-log segments truncated by retention, lifetime total.
    pub fn log_segments_truncated(&self) -> u64 {
        self.log_segments_truncated.load(Ordering::Relaxed)
    }

    /// Command-log bytes freed by retention, lifetime total.
    pub fn log_bytes_truncated(&self) -> u64 {
        self.log_bytes_truncated.load(Ordering::Relaxed)
    }

    /// Failed retention passes.
    pub fn retention_failures(&self) -> u64 {
        self.retention_failures.load(Ordering::Relaxed)
    }

    // --- group commit & server connections ---

    /// Records one successful group-commit batch: how many commit records
    /// it made durable and how long its fsync took. Fed by the engine's
    /// [`calc_recovery::GroupCommitter`] batch observer.
    pub fn record_commit_batch(&self, records: u64, fsync: Duration) {
        self.commit_batches.fetch_add(1, Ordering::Relaxed);
        self.commit_batch_records.fetch_add(records, Ordering::Relaxed);
        self.fsync_latency.record(fsync.as_nanos() as u64);
    }

    /// Group-commit batches fsynced, lifetime total.
    pub fn commit_batches(&self) -> u64 {
        self.commit_batches.load(Ordering::Relaxed)
    }

    /// Commit records made durable across all batches.
    pub fn commit_batch_records(&self) -> u64 {
        self.commit_batch_records.load(Ordering::Relaxed)
    }

    /// Mean records per fsync — the amortization factor group commit
    /// achieves (1.0 means every commit paid its own fsync).
    pub fn avg_batch_size(&self) -> f64 {
        let batches = self.commit_batches();
        if batches == 0 {
            return 0.0;
        }
        self.commit_batch_records() as f64 / batches as f64
    }

    /// 99th-percentile batch fsync latency in microseconds (0 before the
    /// first batch).
    pub fn fsync_p99_us(&self) -> u64 {
        self.fsync_latency.quantile(0.99) / 1_000
    }

    /// A server connection was accepted.
    pub fn connection_opened(&self) {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// A server connection was closed.
    pub fn connection_closed(&self) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections currently open (opened minus closed).
    pub fn active_connections(&self) -> u64 {
        self.connections_opened
            .load(Ordering::Relaxed)
            .saturating_sub(self.connections_closed.load(Ordering::Relaxed))
    }

    /// Connections accepted over the engine's lifetime.
    pub fn total_connections(&self) -> u64 {
        self.connections_opened.load(Ordering::Relaxed)
    }

    // --- command-log read-only degradation (ENOSPC) ---

    /// The command log's read-only mode transitioned: `true` entering
    /// (ENOSPC on the log), `false` healing (space returned). Counts
    /// entries; fed by the group committer's read-only observer.
    pub fn set_log_read_only(&self, entering: bool) {
        let was = self.log_read_only.swap(entering, Ordering::AcqRel);
        if entering && !was {
            self.log_enospc_entries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether the engine is currently shedding writes because the
    /// command log hit ENOSPC (self-clears when the committer heals).
    pub fn log_read_only(&self) -> bool {
        self.log_read_only.load(Ordering::Acquire)
    }

    /// Times the command log entered read-only degraded mode.
    pub fn log_enospc_entries(&self) -> u64 {
        self.log_enospc_entries.load(Ordering::Relaxed)
    }

    /// An ENOSPC-triggered emergency retention pass ran (attempting to
    /// free log segments and superseded checkpoints).
    pub fn record_emergency_retention(&self) {
        self.emergency_retention_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Emergency retention passes triggered by log ENOSPC.
    pub fn emergency_retention_passes(&self) -> u64 {
        self.emergency_retention_passes.load(Ordering::Relaxed)
    }

    /// Background merges that failed.
    pub fn merge_failures(&self) -> u64 {
        self.merge_failures.load(Ordering::Relaxed)
    }

    /// Message of the most recent merge failure.
    pub fn last_merge_error(&self) -> Option<String> {
        self.last_merge_error.lock().clone()
    }

    // --- warm standby lag ---

    /// A tail poll is running now (stamps the tail heartbeat). Called at
    /// the top of every standby poll, whether or not it makes progress.
    pub fn tail_heartbeat(&self) {
        self.tail_heartbeat_nanos
            .store(self.now_nanos(), Ordering::Release);
    }

    /// Records the outcome of one standby tail poll: the applied commit
    /// watermark, how many commits the poll found waiting (its lag at
    /// poll start), and the log bytes it could not yet trust/apply.
    pub fn record_standby_lag(&self, applied_seq: u64, commits_behind: u64, bytes_behind: u64) {
        self.standby_applied_seq
            .fetch_max(applied_seq, Ordering::AcqRel);
        self.standby_commits_behind
            .store(commits_behind, Ordering::Relaxed);
        self.standby_bytes_behind
            .store(bytes_behind, Ordering::Relaxed);
    }

    /// Retention truncated below the standby's cursor and its state was
    /// rebuilt from the covering checkpoint.
    pub fn record_standby_rebootstrap(&self) {
        self.standby_rebootstraps.fetch_add(1, Ordering::Relaxed);
    }

    /// A tail poll failed. Recoverable errors leave the loop running;
    /// pair with [`Health::record_tail_exit`] when the loop dies.
    pub fn record_tail_error(&self, class: ErrorClass, err: &io::Error) {
        self.tail_errors.fetch_add(1, Ordering::Relaxed);
        *self.last_tail_error.lock() = Some((class, err.to_string()));
    }

    /// The tail loop exited for good (fatal error, wedged log, or thread
    /// death). The applied watermark is frozen: observers must see a
    /// classified error, not a silently stale standby.
    pub fn record_tail_exit(&self, class: ErrorClass, err: &io::Error) {
        self.record_tail_error(class, err);
        self.tail_exited.store(true, Ordering::Release);
        self.tail_heartbeat_nanos.store(NEVER, Ordering::Release);
    }

    /// The standby was promoted: the lag slots are zeroed (a promoted
    /// engine has no one to lag behind) and the watchdog is disarmed.
    pub fn standby_promoted(&self) {
        self.promoted.store(true, Ordering::Release);
        self.standby_commits_behind.store(0, Ordering::Relaxed);
        self.standby_bytes_behind.store(0, Ordering::Relaxed);
        self.tail_heartbeat_nanos.store(NEVER, Ordering::Release);
    }

    /// Highest commit seq the standby has applied.
    pub fn standby_applied_seq(&self) -> u64 {
        self.standby_applied_seq.load(Ordering::Acquire)
    }

    /// Commits the most recent tail poll found waiting (0 when caught up
    /// or promoted).
    pub fn standby_commits_behind(&self) -> u64 {
        self.standby_commits_behind.load(Ordering::Relaxed)
    }

    /// Log bytes the most recent tail poll could not yet apply.
    pub fn standby_bytes_behind(&self) -> u64 {
        self.standby_bytes_behind.load(Ordering::Relaxed)
    }

    /// Checkpoint re-bootstraps forced by retention, lifetime total.
    pub fn standby_rebootstraps(&self) -> u64 {
        self.standby_rebootstraps.load(Ordering::Relaxed)
    }

    /// Tail errors recorded.
    pub fn tail_errors(&self) -> u64 {
        self.tail_errors.load(Ordering::Relaxed)
    }

    /// Class and message of the most recent tail error.
    pub fn last_tail_error(&self) -> Option<(ErrorClass, String)> {
        self.last_tail_error.lock().clone()
    }

    /// Whether the tail loop has exited for good.
    pub fn tail_exited(&self) -> bool {
        self.tail_exited.load(Ordering::Acquire)
    }

    /// Whether this standby has been promoted.
    pub fn promoted(&self) -> bool {
        self.promoted.load(Ordering::Acquire)
    }

    /// Tail watchdog: `true` when the standby *should* be polling but no
    /// poll has stamped the heartbeat within the watchdog budget — a
    /// stalled (wedged, deadlocked, or silently dead) tail thread.
    /// Disarmed until the first poll, after promotion, and after a
    /// recorded tail exit (those surface via [`Health::tail_exited`]).
    pub fn tail_stalled(&self) -> bool {
        match self.tail_heartbeat_nanos.load(Ordering::Acquire) {
            NEVER => false,
            n => self.started.elapsed().saturating_sub(Duration::from_nanos(n)) > self.watchdog,
        }
    }
}

impl std::fmt::Debug for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Health(degraded={}, streak={}, total_failures={}, merge_failures={}, stalled={})",
            self.degraded(),
            self.consecutive_failures(),
            self.total_failures(),
            self.merge_failures(),
            self.stalled()
        )
    }
}

/// One sampled point of the throughput/memory timeline.
#[derive(Clone, Copy, Debug)]
pub struct TimelinePoint {
    /// Seconds since sampling started.
    pub t: f64,
    /// Commits during this sample interval.
    pub commits: u64,
    /// Instantaneous throughput (txns/sec) over the interval.
    pub tps: f64,
    /// Total record copies in memory (live + extra) — Figure 6's y-axis.
    pub mem_copies: usize,
    /// Total record bytes in memory.
    pub mem_bytes: usize,
}

/// Background sampler recording a throughput + memory timeline at a fixed
/// interval — the data series behind Figures 2(a,b), 3(a,b), 4(a), 6 and
/// 7(a).
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Vec<TimelinePoint>>>,
}

impl Sampler {
    /// Starts sampling `metrics` (and the strategy's memory stats) every
    /// `interval`.
    pub fn start(
        metrics: Arc<Metrics>,
        strategy: Arc<dyn CheckpointStrategy>,
        interval: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("calc-sampler".into())
            .spawn(move || {
                let mut points = Vec::new();
                let start = Instant::now();
                let mut last_commits = metrics.committed();
                let mut next = start + interval;
                while !stop2.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep((next - now).min(Duration::from_millis(5)));
                        continue;
                    }
                    let commits_now = metrics.committed();
                    let delta = commits_now - last_commits;
                    last_commits = commits_now;
                    let mem = strategy.memory();
                    let t = now.duration_since(start).as_secs_f64();
                    points.push(TimelinePoint {
                        t,
                        commits: delta,
                        tps: delta as f64 / interval.as_secs_f64(),
                        mem_copies: mem.total_copies(),
                        mem_bytes: mem.total_bytes(),
                    });
                    next += interval;
                }
                points
            })
            .expect("spawn sampler");
        Sampler {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops sampling and returns the timeline.
    pub fn finish(mut self) -> Vec<TimelinePoint> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .expect("finish called once")
            .join()
            .expect("sampler thread panicked")
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_degraded_threshold_and_self_heal() {
        let h = Health::new(2, Duration::from_secs(1));
        let err = io::Error::new(io::ErrorKind::Interrupted, "x");
        assert!(!h.cycle_failed(ErrorClass::Transient, &err));
        assert!(!h.degraded());
        assert!(h.cycle_failed(ErrorClass::Transient, &err));
        assert!(h.degraded());
        assert_eq!(h.consecutive_failures(), 2);
        // Further failures do not re-enter.
        assert!(!h.cycle_failed(ErrorClass::Transient, &err));
        assert_eq!(h.degraded_entries(), 1);
        h.cycle_succeeded();
        assert!(!h.degraded());
        assert_eq!(h.degraded_exits(), 1);
        assert_eq!(h.consecutive_failures(), 0);
        assert_eq!(h.total_failures(), 3);
    }

    #[test]
    fn health_watchdog_is_lazy_and_cycle_scoped() {
        let h = Health::new(3, Duration::from_millis(2));
        assert!(!h.stalled(), "no cycle in flight");
        h.cycle_started();
        assert!(!h.stalled(), "budget not yet exceeded");
        std::thread::sleep(Duration::from_millis(10));
        assert!(h.stalled(), "overdue cycle must trip the watchdog");
        h.cycle_succeeded();
        assert!(!h.stalled(), "completed cycle must clear the watchdog");
    }

    #[test]
    fn standby_lag_advances_while_tailing_and_resets_on_promotion() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.standby_applied_seq(), 0);
        assert!(!h.tail_stalled(), "watchdog disarmed before the first poll");

        // Poll 1: 5 commits were waiting, all applied, clean tail.
        h.tail_heartbeat();
        h.record_standby_lag(5, 5, 0);
        assert_eq!(h.standby_applied_seq(), 5);
        assert_eq!(h.standby_commits_behind(), 5);

        // Poll 2: the primary pulled further ahead between polls — lag
        // advances — and the tail ends mid-append (pending bytes).
        h.tail_heartbeat();
        h.record_standby_lag(40, 35, 17);
        assert_eq!(h.standby_applied_seq(), 40);
        assert_eq!(h.standby_commits_behind(), 35);
        assert_eq!(h.standby_bytes_behind(), 17);

        // The applied watermark is monotonic even if a racy reader
        // records a stale value.
        h.record_standby_lag(12, 0, 0);
        assert_eq!(h.standby_applied_seq(), 40);

        h.record_standby_rebootstrap();
        assert_eq!(h.standby_rebootstraps(), 1);

        h.standby_promoted();
        assert!(h.promoted());
        assert_eq!(h.standby_commits_behind(), 0, "promotion resets lag");
        assert_eq!(h.standby_bytes_behind(), 0);
        assert!(!h.tail_stalled(), "promotion disarms the tail watchdog");
        assert_eq!(
            h.standby_applied_seq(),
            40,
            "the sealed watermark survives promotion"
        );
    }

    #[test]
    fn dead_or_stalled_tail_surfaces_as_classified_error() {
        let h = Health::new(3, Duration::from_millis(2));
        // A stalled tail: one heartbeat, then silence past the watchdog.
        h.tail_heartbeat();
        h.record_standby_lag(3, 3, 0);
        assert!(!h.tail_stalled());
        std::thread::sleep(Duration::from_millis(10));
        assert!(h.tail_stalled(), "silent tail thread must trip the watchdog");
        assert_eq!(h.standby_applied_seq(), 3, "watermark frozen, not advancing");

        // A dead tail: the loop records a classified exit instead of
        // freezing silently.
        let err = io::Error::new(io::ErrorKind::InvalidData, "sealed segment torn");
        h.record_tail_exit(ErrorClass::Fatal, &err);
        assert!(h.tail_exited());
        assert_eq!(h.tail_errors(), 1);
        let (class, msg) = h.last_tail_error().expect("classified error recorded");
        assert_eq!(class, ErrorClass::Fatal);
        assert!(msg.contains("sealed segment torn"));
        assert!(
            !h.tail_stalled(),
            "an exited tail reports via tail_exited, not a stuck watchdog"
        );
    }

    #[test]
    fn counters_and_latency() {
        let m = Metrics::new();
        m.record_commit(Duration::from_micros(100));
        m.record_commit(Duration::from_micros(300));
        m.record_abort();
        assert_eq!(m.committed(), 2);
        assert_eq!(m.aborted(), 1);
        assert_eq!(m.latency.count(), 2);
        assert!(m.latency.max() >= 300_000);
    }

    #[test]
    fn group_commit_counters_track_batches_and_fsync_latency() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.commit_batches(), 0);
        assert_eq!(h.avg_batch_size(), 0.0, "no batches yet");
        assert_eq!(h.fsync_p99_us(), 0);

        h.record_commit_batch(10, Duration::from_micros(500));
        h.record_commit_batch(30, Duration::from_micros(1500));
        assert_eq!(h.commit_batches(), 2);
        assert_eq!(h.commit_batch_records(), 40);
        assert!((h.avg_batch_size() - 20.0).abs() < f64::EPSILON);
        // p99 lands on the slowest recorded fsync (histogram buckets are
        // approximate upward, never below the true value's bucket floor).
        assert!(h.fsync_p99_us() >= 1000, "p99 {}us", h.fsync_p99_us());
    }

    #[test]
    fn connection_counters_balance_open_and_close() {
        let h = Health::new(3, Duration::from_secs(1));
        assert_eq!(h.active_connections(), 0);
        h.connection_opened();
        h.connection_opened();
        h.connection_opened();
        assert_eq!(h.active_connections(), 3);
        assert_eq!(h.total_connections(), 3);
        h.connection_closed();
        assert_eq!(h.active_connections(), 2);
        h.connection_closed();
        h.connection_closed();
        assert_eq!(h.active_connections(), 0);
        // A stray double-close must not underflow.
        h.connection_closed();
        assert_eq!(h.active_connections(), 0);
        assert_eq!(h.total_connections(), 3, "total is monotone");
    }

    #[test]
    fn log_read_only_transitions_count_entries_once() {
        let h = Health::new(3, Duration::from_secs(1));
        assert!(!h.log_read_only());
        assert_eq!(h.log_enospc_entries(), 0);
        h.set_log_read_only(true);
        assert!(h.log_read_only());
        assert_eq!(h.log_enospc_entries(), 1);
        // Re-entering while already read-only is not a new entry.
        h.set_log_read_only(true);
        assert_eq!(h.log_enospc_entries(), 1);
        h.set_log_read_only(false);
        assert!(!h.log_read_only());
        h.set_log_read_only(true);
        assert_eq!(h.log_enospc_entries(), 2, "a fresh entry counts again");
        h.record_emergency_retention();
        assert_eq!(h.emergency_retention_passes(), 1);
    }

    #[test]
    fn sampler_produces_points() {
        use calc_core::calc::CalcStrategy;
        use calc_storage::dual::StoreConfig;
        use calc_txn::commitlog::CommitLog;

        let metrics = Arc::new(Metrics::new());
        let strategy: Arc<dyn CheckpointStrategy> = Arc::new(CalcStrategy::full(
            StoreConfig::for_records(16, 16),
            Arc::new(CommitLog::new(false)),
        ));
        strategy.load_initial(calc_common::types::Key(1), b"x").unwrap();
        let sampler = Sampler::start(metrics.clone(), strategy, Duration::from_millis(10));
        for _ in 0..50 {
            metrics.record_commit(Duration::from_micros(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        let points = sampler.finish();
        assert!(points.len() >= 3, "got {} points", points.len());
        let total: u64 = points.iter().map(|p| p.commits).sum();
        assert!(total <= 50);
        assert!(total >= 20, "sampled too few commits: {total}");
        assert!(points.iter().all(|p| p.mem_copies == 1));
    }
}
