//! Shard-parallel checkpoint pipeline benchmark (ISSUE 5 satellite).
//!
//! Emits `BENCH_pipeline.json` with three sections so subsequent PRs
//! have a wall-clock trajectory:
//!
//! 1. **capture/recovery at scale** — a ≥500k-record CALC store is
//!    checkpointed and recovered at `checkpoint_threads` = 1 and 4,
//!    timing the full-cycle capture wall-time and the recovery phase
//!    breakdown ([`calc_recovery::replay::RecoveryStats`]).
//! 2. **throughput during checkpointing** — a closed-loop micro run with
//!    checkpoints firing mid-run, serial vs. parallel capture.
//! 3. **per-strategy smoke** — a small fixed-duration micro run for each
//!    of the ten checkpointing strategies: throughput, mean checkpoint
//!    cycle duration, parts per cycle.
//! 4. **disk footprint** (ISSUE 6) — the same 500k-record store captured
//!    and recovered under every codec (compressed vs. raw bytes, ratio,
//!    recovery time), plus a segmented command-log run with truncation at
//!    a moving watermark showing disk use stays bounded.
//! 5. **failover** (ISSUE 7) — the same 500k-record store behind a warm
//!    standby that tailed the command log live: promotion latency (final
//!    drain + seal) vs. cold recovery (chain load + log replay),
//!    asserting the warm standby is ≥5× faster to serving.
//! 6. **server** (ISSUE 8) — a real calc-server over loopback TCP under a
//!    multi-connection durable-write load: throughput and p50/p99 commit
//!    latency at several connection counts, with and without a concurrent
//!    checkpoint, plus the per-commit-fsync baseline (`max_batch = 1`)
//!    asserting group commit buys ≥2× throughput at ≥100 connections.
//! 7. **overload** (ISSUE 9, non-gating) — the same server with a bounded
//!    in-flight permit gate driven ≥4× past saturation by a BUSY-aware
//!    client loop: throughput and accepted-request p50/p99 with and
//!    without a concurrent checkpoint under adaptive pacing, plus the
//!    shed counts and capture-yield totals the admission path produced.
//!
//! Environment knobs: `BENCH_OUT` (output path, default
//! `BENCH_pipeline.json`), `BENCH_RECORDS` (default 500_000),
//! `BENCH_SMOKE_MS` (per-strategy run length, default 1200),
//! `BENCH_SERVER_CONNS` (comma-separated connection counts, default
//! `100,400,1000`), `BENCH_SERVER_MS` (per-point run length, default 800),
//! `BENCH_OVERLOAD_CONNS` (default 64).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_bench::runner::{self, RunSpec, WorkloadSpec};
use calc_common::types::{CommitSeq, Key, TxnId};
use calc_common::vfs::{OsVfs, Vfs};
use calc_core::calc::CalcStrategy;
use calc_core::manifest::CheckpointDir;
use calc_core::strategy::{CheckpointStrategy, NoopEnv};
use calc_core::throttle::Throttle;
use calc_core::Codec;
use calc_engine::StrategyKind;
use calc_recovery::logfile::{list_segments, CommandLogStream, SegmentedLogWriter};
use calc_recovery::replay::{recover_checkpoint_only, recover_streamed};
use calc_recovery::truncate_segments_below;
use calc_replica::{Standby, StandbyConfig};
use calc_storage::dual::StoreConfig;
use calc_txn::commitlog::{CommitLog, CommitRecord};
use calc_txn::proc::{
    params, AbortReason, LockRequest, ProcId, ProcRegistry, Procedure, TxnOps,
};
use calc_workload::micro::MicroConfig;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

/// Upsert procedure for the failover section's command-log tail.
const BENCH_SET: ProcId = ProcId(1);

struct BenchSetProc;
impl Procedure for BenchSetProc {
    fn id(&self) -> ProcId {
        BENCH_SET
    }
    fn name(&self) -> &'static str {
        "bench-set"
    }
    fn locks(&self, p: &[u8]) -> Result<LockRequest, AbortReason> {
        let mut r = params::Reader::new(p);
        Ok(LockRequest {
            reads: vec![],
            writes: vec![Key(r.u64()?)],
        })
    }
    fn run(&self, p: &[u8], ops: &mut dyn TxnOps) -> Result<(), AbortReason> {
        let mut r = params::Reader::new(p);
        let key = Key(r.u64()?);
        let val = r.bytes()?;
        if ops.get(key).is_some() {
            ops.put(key, val);
        } else {
            ops.insert(key, val);
        }
        Ok(())
    }
}

fn bench_registry() -> ProcRegistry {
    let mut r = ProcRegistry::new();
    r.register(Arc::new(BenchSetProc));
    r
}

/// One capture + recovery measurement at a fixed thread count.
struct PipelinePoint {
    threads: usize,
    capture: Duration,
    parts: usize,
    records: u64,
    recovery_total: Duration,
    part_load: Duration,
    merge: Duration,
    recovery_threads: usize,
}

/// Checkpoints and recovers a `records`-record CALC store with `threads`
/// capture/load threads, returning wall-times. The store is built once
/// by the caller; each call gets its own checkpoint directory.
fn capture_and_recover(
    strategy: &CalcStrategy,
    root: &std::path::Path,
    records: u64,
    threads: usize,
) -> PipelinePoint {
    let dir = CheckpointDir::open(
        &root.join(format!("threads-{threads}")),
        Arc::new(Throttle::unlimited()),
    )
    .expect("open bench dir");
    dir.set_checkpoint_threads(threads);

    // Warm-up cycle (first touch pays page-in), then the measured cycle.
    strategy
        .checkpoint(&NoopEnv, &dir)
        .expect("warm-up checkpoint");
    let start = Instant::now();
    let stats = strategy
        .checkpoint(&NoopEnv, &dir)
        .expect("measured checkpoint");
    let capture = start.elapsed();
    assert!(
        stats.records >= records,
        "capture missed records: {} < {records}",
        stats.records
    );

    let fresh = CalcStrategy::full(
        StoreConfig::for_records(records as usize + records as usize / 4 + 1024, 64),
        Arc::new(CommitLog::new(false)),
    );
    let start = Instant::now();
    let outcome = recover_checkpoint_only(&dir, &fresh).expect("recover");
    let recovery_total = start.elapsed();
    assert_eq!(outcome.loaded_records, records, "recovery missed records");

    PipelinePoint {
        threads,
        capture,
        parts: stats.parts,
        records: stats.records,
        recovery_total,
        part_load: outcome.stats.part_load,
        merge: outcome.stats.merge,
        recovery_threads: outcome.stats.threads,
    }
}

fn micro(db_size: u64) -> WorkloadSpec {
    WorkloadSpec::Micro(MicroConfig {
        db_size,
        record_size: 100,
        ops_per_txn: 10,
        txn_spin: 8,
        long_txn_prob: 0.0,
        long_txn_spin: 1000,
        long_txn_batch: 50,
        hot_fraction: 1.0,
    })
}

/// Mean checkpoint-cycle wall-time of a run, in milliseconds.
fn mean_ckpt_ms(result: &runner::RunResult) -> f64 {
    if result.checkpoints.is_empty() {
        return 0.0;
    }
    let total: Duration = result.checkpoints.iter().map(|s| s.duration).sum();
    total.as_secs_f64() * 1e3 / result.checkpoints.len() as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One server-load measurement: `conns` client connections hammer durable
/// PUTs over loopback TCP for `run`, optionally with a concurrent
/// checkpointer firing through the admin verb on its own connection.
/// Returns `(tps, p50_us, p99_us)` of the acknowledged commits.
fn server_load(
    addr: std::net::SocketAddr,
    conns: usize,
    run: Duration,
    with_checkpoint: bool,
) -> (f64, u64, u64) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let stop = Arc::new(AtomicBool::new(false));
    let hist = Arc::new(calc_common::hist::Histogram::new());
    let start = Instant::now();
    // Spawned before the client flood: on a saturated host the first
    // timeslice this thread gets may otherwise come after the window has
    // already closed. The loop always fires at least one checkpoint
    // before consulting `stop` for the same reason.
    let checkpointer = with_checkpoint.then(|| {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = calc_server::Client::connect(addr).expect("bench ckpt client");
            let mut cycles = 0u64;
            loop {
                c.checkpoint().expect("bench checkpoint");
                cycles += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(run / 4);
            }
            cycles
        })
    });
    let clients: Vec<_> = (0..conns)
        .map(|i| {
            let stop = stop.clone();
            let hist = hist.clone();
            std::thread::Builder::new()
                .name(format!("bench-conn-{i}"))
                .stack_size(128 << 10)
                .spawn(move || {
                    let mut c =
                        calc_server::Client::connect(addr).expect("bench client connect");
                    // Each connection cycles its own 64-key working set,
                    // disjoint from every other connection and from the
                    // preload (which lives below 1 << 32).
                    let base = (i as u64 + 1) << 32;
                    let payload = [7u8; 64];
                    let mut count = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        c.put(base | (count & 0x3F), &payload).expect("bench put");
                        hist.record(t.elapsed().as_micros() as u64);
                        count += 1;
                    }
                    count
                })
                .expect("spawn bench client")
        })
        .collect();
    std::thread::sleep(run);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("bench client panicked"))
        .sum();
    let elapsed = start.elapsed();
    if let Some(h) = checkpointer {
        let cycles = h.join().expect("bench checkpointer panicked");
        assert!(cycles > 0, "no checkpoint cycle completed during the run");
    }
    (
        total as f64 / elapsed.as_secs_f64(),
        hist.quantile(0.5),
        hist.quantile(0.99),
    )
}

/// [`server_load`]'s BUSY-aware sibling for the overload section: every
/// connection hammers durable PUTs, but a `BUSY` (admission shed) is
/// *counted and retried* instead of treated as a failure — the loop
/// measures what an overloaded-but-well-behaved client population sees.
/// Returns `(accepted_tps, p50_us, p99_us, busy_count)` where the
/// latency quantiles cover accepted (OK-acked) requests only.
fn overload_load(
    addr: std::net::SocketAddr,
    conns: usize,
    run: Duration,
    with_checkpoint: bool,
) -> (f64, u64, u64, u64) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let stop = Arc::new(AtomicBool::new(false));
    let hist = Arc::new(calc_common::hist::Histogram::new());
    let busy = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let checkpointer = with_checkpoint.then(|| {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = calc_server::Client::connect(addr).expect("overload ckpt client");
            let mut cycles = 0u64;
            loop {
                c.checkpoint().expect("overload checkpoint");
                cycles += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(run / 4);
            }
            cycles
        })
    });
    let clients: Vec<_> = (0..conns)
        .map(|i| {
            let stop = stop.clone();
            let hist = hist.clone();
            let busy = busy.clone();
            std::thread::Builder::new()
                .name(format!("overload-conn-{i}"))
                .stack_size(128 << 10)
                .spawn(move || {
                    let mut c =
                        calc_server::Client::connect(addr).expect("overload client connect");
                    let base = (i as u64 + 1) << 32;
                    let payload = [7u8; 64];
                    let mut count = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        match c.put(base | (count & 0x3F), &payload) {
                            Ok(_) => {
                                hist.record(t.elapsed().as_micros() as u64);
                                count += 1;
                            }
                            Err(calc_server::KvError::Busy(_)) => {
                                // Shed before execution: back off a hair
                                // and offer it again — the retry that IS
                                // always safe.
                                busy.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                            }
                            Err(e) => panic!("overload put failed: {e}"),
                        }
                    }
                    count
                })
                .expect("spawn overload client")
        })
        .collect();
    std::thread::sleep(run);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = clients
        .into_iter()
        .map(|h| h.join().expect("overload client panicked"))
        .sum();
    let elapsed = start.elapsed();
    if let Some(h) = checkpointer {
        let cycles = h.join().expect("overload checkpointer panicked");
        assert!(cycles > 0, "no checkpoint cycle completed during overload run");
    }
    (
        total as f64 / elapsed.as_secs_f64(),
        hist.quantile(0.5),
        hist.quantile(0.99),
        busy.load(Ordering::Relaxed),
    )
}

fn main() {
    let out_path = PathBuf::from(
        std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_pipeline.json".into()),
    );
    let records = env_u64("BENCH_RECORDS", 500_000);
    let smoke_ms = env_u64("BENCH_SMOKE_MS", 1200);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let root = std::env::temp_dir().join(format!("calc-bench-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create bench root");

    // ---- Section 1: capture + recovery at scale, threads 1 vs 4.
    eprintln!("pipeline: loading {records} records…");
    let strategy = CalcStrategy::full(
        StoreConfig::for_records(records as usize + records as usize / 4 + 1024, 64),
        Arc::new(CommitLog::new(false)),
    );
    let payload = [0u8; 64];
    for k in 0..records {
        strategy
            .load_initial(calc_common::types::Key(k), &payload)
            .expect("load");
    }
    let mut points = Vec::new();
    for threads in [1usize, 4] {
        eprintln!("pipeline: capture+recover at checkpoint_threads={threads}…");
        points.push(capture_and_recover(&strategy, &root, records, threads));
    }

    // ---- Section 2: throughput during checkpointing, serial vs parallel.
    let mut tps_points = Vec::new();
    for threads in [1usize, 4] {
        eprintln!("pipeline: closed-loop CALC run at checkpoint_threads={threads}…");
        let mut spec = RunSpec::quick(StrategyKind::Calc, micro(100_000));
        spec.duration = Duration::from_millis(3 * smoke_ms);
        spec.checkpoint_at = vec![
            Duration::from_millis(smoke_ms / 2),
            Duration::from_millis(smoke_ms / 2 + smoke_ms),
            Duration::from_millis(smoke_ms / 2 + 2 * smoke_ms),
        ];
        spec.workers = cores.max(1);
        spec.feeders = 1;
        spec.disk_bytes_per_sec = 0;
        spec.checkpoint_threads = Some(threads);
        spec.dir_root = root.clone();
        let result = runner::run(&spec);
        assert_eq!(
            result.checkpoint_failures, 0,
            "checkpoint failed during throughput run"
        );
        tps_points.push((
            threads,
            result.mean_tps(spec.duration),
            mean_ckpt_ms(&result),
            result.checkpoints.iter().map(|s| s.parts).max().unwrap_or(0),
        ));
    }

    // ---- Section 3: per-strategy smoke runs.
    let mut smoke = Vec::new();
    for kind in StrategyKind::ALL_CHECKPOINTING {
        eprintln!("pipeline: smoke run {kind}…");
        let mut spec = RunSpec::quick(kind, micro(20_000));
        spec.duration = Duration::from_millis(smoke_ms);
        spec.checkpoint_at = vec![Duration::from_millis(smoke_ms / 3)];
        spec.workers = cores.max(1);
        spec.feeders = 1;
        spec.disk_bytes_per_sec = 0;
        spec.dir_root = root.clone();
        let result = runner::run(&spec);
        smoke.push((
            kind.name().to_string(),
            result.mean_tps(spec.duration),
            mean_ckpt_ms(&result),
            result.checkpoints.iter().map(|s| s.parts).max().unwrap_or(0),
            result.checkpoint_failures,
        ));
    }

    // ---- Section 4: disk footprint — compression ratio plus segmented-log
    // retention, the ISSUE 6 additions. The same 500k-record store is
    // checkpointed under each codec (4 capture threads) and recovered, so
    // the bytes and recovery times are directly comparable.
    let mut footprint = Vec::new();
    for codec in Codec::ALL {
        eprintln!("pipeline: footprint capture+recover with codec={codec}…");
        let dir = CheckpointDir::open(
            &root.join(format!("footprint-{codec}")),
            Arc::new(Throttle::unlimited()),
        )
        .expect("open footprint dir");
        dir.set_checkpoint_threads(4);
        dir.set_codec(codec);
        let start = Instant::now();
        let stats = strategy
            .checkpoint(&NoopEnv, &dir)
            .expect("footprint checkpoint");
        let capture = start.elapsed();
        let fresh = CalcStrategy::full(
            StoreConfig::for_records(records as usize + records as usize / 4 + 1024, 64),
            Arc::new(CommitLog::new(false)),
        );
        let start = Instant::now();
        let outcome = recover_checkpoint_only(&dir, &fresh).expect("footprint recover");
        let recovery = start.elapsed();
        assert_eq!(outcome.loaded_records, records, "footprint recovery lost records");
        footprint.push((codec.name(), ms(capture), stats.bytes, stats.raw_bytes, ms(recovery)));
    }
    assert!(
        footprint.iter().any(|f| f.0 == "rle" && f.2 < f.3),
        "rle checkpoint must be smaller than its raw stream"
    );

    // Segmented command log with truncation at a moving durable watermark:
    // disk use stays bounded near one segment while records keep flowing.
    eprintln!("pipeline: footprint segmented-log retention…");
    let log_dir = root.join("footprint-log");
    let vfs: Arc<dyn Vfs> = Arc::new(OsVfs);
    let mut log = SegmentedLogWriter::create(vfs.clone(), &log_dir, 64 << 10)
        .expect("create segmented log");
    let params: Arc<[u8]> = vec![0u8; 100].into();
    let appended = 8_000u64;
    let mut segments_truncated = 0u64;
    let mut log_bytes_truncated = 0u64;
    for seq in 1..=appended {
        log.append(&CommitRecord {
            seq: CommitSeq(seq),
            txn: TxnId(seq),
            proc: ProcId(1),
            params: params.clone(),
        })
        .expect("append log record");
        if seq % 2_000 == 0 {
            log.sync().expect("sync log");
            let t = truncate_segments_below(vfs.as_ref(), &log_dir, CommitSeq(seq))
                .expect("truncate log");
            segments_truncated += t.removed;
            log_bytes_truncated += t.bytes;
        }
    }
    log.sync().expect("final sync");
    let segments_written = log.rotations() + 1;
    let live_log_bytes: u64 = list_segments(vfs.as_ref(), &log_dir)
        .expect("list segments")
        .iter()
        .map(|(_, p)| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();
    assert!(segments_truncated > 0, "retention never truncated a segment");
    assert!(
        live_log_bytes < log_bytes_truncated,
        "live log ({live_log_bytes} B) not bounded below truncated volume"
    );

    // ---- Section 5: warm-standby promotion vs cold recovery (ISSUE 7).
    // The 500k-record store is checkpointed once more, then a command-log
    // tail of post-checkpoint updates is appended. A standby bootstraps
    // from the chain and tails the log to caught-up *before* the clock
    // starts — that is the steady state a warm standby buys. Promotion
    // then only drains an already-applied log and seals, while the cold
    // path pays the full chain load plus log replay.
    eprintln!("pipeline: failover — preparing primary footprint…");
    let fo_ckpts = root.join("failover-ckpts");
    let fo_log_dir = root.join("failover-log");
    let fo_dir = CheckpointDir::open(&fo_ckpts, Arc::new(Throttle::unlimited()))
        .expect("open failover dir");
    fo_dir.set_checkpoint_threads(4);
    let fo_stats = strategy
        .checkpoint(&NoopEnv, &fo_dir)
        .expect("failover checkpoint");
    let tail_records = env_u64("BENCH_FAILOVER_TAIL", 1_000);
    let mut fo_log = SegmentedLogWriter::create(vfs.clone(), &fo_log_dir, 1 << 20)
        .expect("create failover log");
    let fo_payload = vec![7u8; 64];
    for k in 0..tail_records {
        let seq = fo_stats.watermark.0 + 1 + k;
        fo_log
            .append(&CommitRecord {
                seq: CommitSeq(seq),
                txn: TxnId(seq),
                proc: BENCH_SET,
                params: params::Writer::new().u64(k).bytes(&fo_payload).finish(),
            })
            .expect("append failover tail");
    }
    fo_log.sync().expect("sync failover tail");
    let registry = bench_registry();
    let fo_store = || StoreConfig::for_records(records as usize + records as usize / 4 + 1024, 64);

    eprintln!("pipeline: failover — cold recovery (chain + log replay)…");
    let cold_target = CalcStrategy::full(fo_store(), Arc::new(CommitLog::new(false)));
    let start = Instant::now();
    let stream =
        CommandLogStream::open_dir_with_vfs(vfs.clone(), &fo_log_dir).expect("open log stream");
    let cold_outcome =
        recover_streamed(&fo_dir, &cold_target, &registry, stream).expect("cold recovery");
    let cold_recovery = start.elapsed();
    assert_eq!(
        cold_outcome.replayed, tail_records,
        "cold recovery replayed the wrong tail"
    );

    eprintln!("pipeline: failover — warm standby bootstrap + tail…");
    let mut cfg = StandbyConfig::new(
        StrategyKind::Calc,
        fo_store(),
        fo_ckpts.clone(),
        fo_log_dir.clone(),
    );
    cfg.checkpoint_threads = 4;
    let mut standby = Standby::open(cfg, bench_registry()).expect("open standby");
    let poll = standby.poll().expect("standby catch-up poll");
    assert_eq!(
        poll.applied_seq,
        fo_stats.watermark.0 + tail_records,
        "standby failed to catch up before promotion"
    );

    eprintln!("pipeline: failover — promote…");
    let promoted = standby.promote().expect("promote");
    let promote = promoted.promote_duration();
    assert_eq!(
        promoted.record_count(),
        cold_target.record_count(),
        "promoted state diverged from cold recovery"
    );
    let failover_speedup = cold_recovery.as_secs_f64() / promote.as_secs_f64().max(1e-9);
    assert!(
        failover_speedup >= 5.0,
        "warm-standby promotion ({:.3} ms) must be ≥5× faster than cold recovery ({:.3} ms)",
        ms(promote),
        ms(cold_recovery)
    );

    // ---- Section 6: the TCP front-end under multi-connection durable
    // load (ISSUE 8). One group-commit server serves every point; the
    // per-commit-fsync baseline (`max_batch = 1`) gets its own instance.
    let server_ms = env_u64("BENCH_SERVER_MS", 800);
    let server_run = Duration::from_millis(server_ms);
    let server_conns: Vec<usize> = std::env::var("BENCH_SERVER_CONNS")
        .ok()
        .map(|s| s.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![100, 400, 1000]);
    let preloaded = 20_000u64;

    eprintln!("pipeline: server — starting group-commit server…");
    let mut window_us = 0u64;
    let gc_db = calc_server::open_or_recover(&root.join("server-gc"), |c| {
        window_us = c.group_commit_window.as_micros() as u64;
    })
    .expect("open server engine");
    let gc_server = calc_server::Server::start(Arc::new(gc_db), "127.0.0.1:0")
        .expect("bind bench server");
    let gc_addr = gc_server.local_addr();
    {
        // Preload so every mid-run checkpoint captures a real store.
        let mut c = calc_server::Client::connect(gc_addr).expect("preload client");
        let payload = vec![7u8; 64];
        for batch in 0..(preloaded / 100) {
            let pairs: Vec<(u64, Vec<u8>)> = (0..100)
                .map(|j| (batch * 100 + j, payload.clone()))
                .collect();
            c.mput(&pairs).expect("preload mput");
        }
    }
    let mut server_points = Vec::new();
    for &conns in &server_conns {
        for with_checkpoint in [false, true] {
            eprintln!(
                "pipeline: server — {conns} connections{}…",
                if with_checkpoint { " + concurrent checkpoint" } else { "" }
            );
            let (tps, p50, p99) = server_load(gc_addr, conns, server_run, with_checkpoint);
            server_points.push((conns, with_checkpoint, tps, p50, p99));
        }
    }
    let gc_db = gc_server.shutdown();
    let Ok(gc_db) = Arc::try_unwrap(gc_db) else {
        panic!("server shutdown must release the sole database handle");
    };
    gc_db.shutdown();

    // Baseline: same wire path, same engine, but every commit pays its
    // own fsync — the wall group commit exists to break.
    let baseline_conns = *server_conns
        .iter()
        .find(|&&c| c >= 100)
        .unwrap_or_else(|| server_conns.iter().max().expect("non-empty conns"));
    eprintln!(
        "pipeline: server — per-commit-fsync baseline at {baseline_conns} connections…"
    );
    let fsync_db = calc_server::open_or_recover(&root.join("server-fsync"), |c| {
        c.group_commit_max_batch = 1;
    })
    .expect("open baseline engine");
    let fsync_server = calc_server::Server::start(Arc::new(fsync_db), "127.0.0.1:0")
        .expect("bind baseline server");
    let (baseline_tps, baseline_p50, baseline_p99) =
        server_load(fsync_server.local_addr(), baseline_conns, server_run, false);
    let fsync_db = fsync_server.shutdown();
    let Ok(fsync_db) = Arc::try_unwrap(fsync_db) else {
        panic!("server shutdown must release the sole database handle");
    };
    fsync_db.shutdown();

    let gc_tps = server_points
        .iter()
        .find(|(c, ck, ..)| *c == baseline_conns && !ck)
        .map(|(_, _, tps, ..)| *tps)
        .expect("group-commit point at the baseline connection count");
    let server_speedup = gc_tps / baseline_tps.max(1e-9);
    assert!(
        server_speedup >= 2.0,
        "group commit ({gc_tps:.0} tps) must be ≥2× per-commit fsync \
         ({baseline_tps:.0} tps) at {baseline_conns} connections"
    );

    // ---- Section 7: overload resilience (ISSUE 9, non-gating numbers).
    // A bounded permit gate admits conns/4 requests at a time while all
    // `overload_conns` connections offer load — ≥4× past saturation — so
    // the BUSY-aware loop exercises real shedding. The run with a
    // concurrent checkpoint shows what adaptive pacing buys: the pacer
    // sees the same LoadSignal the gate sheds on.
    let overload_conns = env_u64("BENCH_OVERLOAD_CONNS", 64) as usize;
    let overload_inflight = (overload_conns / 4).max(1);
    eprintln!(
        "pipeline: overload — {overload_conns} connections over {overload_inflight} permits…"
    );
    let ov_db = calc_server::open_or_recover(&root.join("server-overload"), |_| {})
        .expect("open overload engine");
    let ov_server = calc_server::Server::start_with(
        Arc::new(ov_db),
        "127.0.0.1:0",
        calc_server::ServerConfig {
            max_inflight: overload_inflight,
            queue_deadline: Duration::from_millis(2),
            ..calc_server::ServerConfig::default()
        },
    )
    .expect("bind overload server");
    let ov_addr = ov_server.local_addr();
    {
        // Preload so the concurrent checkpoint captures a real store.
        let mut c = calc_server::Client::connect(ov_addr).expect("overload preload client");
        let payload = vec![7u8; 64];
        for batch in 0..(preloaded / 100) {
            let pairs: Vec<(u64, Vec<u8>)> = (0..100)
                .map(|j| (batch * 100 + j, payload.clone()))
                .collect();
            c.mput(&pairs).expect("overload preload mput");
        }
    }
    let (ov_base_tps, ov_base_p50, ov_base_p99, ov_base_busy) =
        overload_load(ov_addr, overload_conns, server_run, false);
    eprintln!("pipeline: overload — same sweep with a concurrent checkpoint…");
    let (ov_ckpt_tps, ov_ckpt_p50, ov_ckpt_p99, ov_ckpt_busy) =
        overload_load(ov_addr, overload_conns, server_run, true);
    let ov_penalty_pct = (1.0 - ov_ckpt_tps / ov_base_tps.max(1e-9)) * 100.0;
    let (ov_shed_requests, ov_shed_connections, ov_capture_yields) = {
        let mut c = calc_server::Client::connect(ov_addr).expect("overload health client");
        let f = c.health_fields().expect("overload health");
        (
            f.get("shed_requests").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0),
            f.get("shed_connections").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0),
            f.get("capture_yields").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0),
        )
    };
    let ov_db = ov_server.shutdown();
    let Ok(ov_db) = Arc::try_unwrap(ov_db) else {
        panic!("server shutdown must release the sole database handle");
    };
    ov_db.shutdown();

    // ---- Emit JSON (hand-rolled; every value is a number or plain name).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"meta\": {{\"cores\": {cores}, \"records\": {records}, \"record_size\": 64}},\n"
    ));
    json.push_str("  \"capture_recovery\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {}, \"capture_ms\": {:.3}, \"parts\": {}, \"records\": {}, \
             \"recovery_ms\": {:.3}, \"part_load_ms\": {:.3}, \"merge_ms\": {:.3}, \
             \"recovery_threads\": {}}}{}\n",
            p.threads,
            ms(p.capture),
            p.parts,
            p.records,
            ms(p.recovery_total),
            ms(p.part_load),
            ms(p.merge),
            p.recovery_threads,
            if i + 1 < points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"throughput_during_checkpoint\": [\n");
    for (i, (threads, tps, ckpt_ms, parts)) in tps_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {threads}, \"tps\": {tps:.1}, \"ckpt_cycle_ms\": {ckpt_ms:.3}, \
             \"parts\": {parts}}}{}\n",
            if i + 1 < tps_points.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"strategies\": [\n");
    for (i, (name, tps, ckpt_ms, parts, failures)) in smoke.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"kind\": \"{name}\", \"tps\": {tps:.1}, \"ckpt_cycle_ms\": {ckpt_ms:.3}, \
             \"parts\": {parts}, \"ckpt_failures\": {failures}}}{}\n",
            if i + 1 < smoke.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"disk_footprint\": {\n");
    json.push_str("    \"codecs\": [\n");
    for (i, (name, capture_ms, bytes, raw_bytes, recovery_ms)) in footprint.iter().enumerate() {
        let ratio = if *bytes > 0 {
            *raw_bytes as f64 / *bytes as f64
        } else {
            1.0
        };
        json.push_str(&format!(
            "      {{\"codec\": \"{name}\", \"capture_ms\": {capture_ms:.3}, \
             \"bytes\": {bytes}, \"raw_bytes\": {raw_bytes}, \"ratio\": {ratio:.3}, \
             \"recovery_ms\": {recovery_ms:.3}}}{}\n",
            if i + 1 < footprint.len() { "," } else { "" },
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"log_retention\": {{\"appended_records\": {appended}, \
         \"segments_written\": {segments_written}, \
         \"segments_truncated\": {segments_truncated}, \
         \"log_bytes_truncated\": {log_bytes_truncated}, \
         \"live_log_bytes\": {live_log_bytes}}}\n"
    ));
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"failover\": {{\"records\": {records}, \"tail_records\": {tail_records}, \
         \"cold_recovery_ms\": {:.3}, \"promote_ms\": {:.3}, \"speedup\": {:.1}}},\n",
        ms(cold_recovery),
        ms(promote),
        failover_speedup,
    ));
    json.push_str("  \"server\": {\n");
    json.push_str(&format!(
        "    \"window_us\": {window_us}, \"preloaded_records\": {preloaded}, \
         \"run_ms\": {server_ms},\n"
    ));
    json.push_str("    \"points\": [\n");
    for (i, (conns, ckpt, tps, p50, p99)) in server_points.iter().enumerate() {
        json.push_str(&format!(
            "      {{\"connections\": {conns}, \"concurrent_checkpoint\": {ckpt}, \
             \"tps\": {tps:.1}, \"p50_us\": {p50}, \"p99_us\": {p99}}}{}\n",
            if i + 1 < server_points.len() { "," } else { "" },
        ));
    }
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"fsync_per_commit_baseline\": {{\"connections\": {baseline_conns}, \
         \"tps\": {baseline_tps:.1}, \"p50_us\": {baseline_p50}, \
         \"p99_us\": {baseline_p99}}},\n"
    ));
    json.push_str(&format!(
        "    \"group_commit_speedup\": {server_speedup:.2}\n"
    ));
    json.push_str("  },\n");
    json.push_str("  \"overload\": {\n");
    json.push_str(&format!(
        "    \"connections\": {overload_conns}, \"max_inflight\": {overload_inflight}, \
         \"queue_deadline_ms\": 2, \"run_ms\": {server_ms},\n"
    ));
    json.push_str(&format!(
        "    \"no_checkpoint\": {{\"tps\": {ov_base_tps:.1}, \"p50_us\": {ov_base_p50}, \
         \"p99_us\": {ov_base_p99}, \"busy\": {ov_base_busy}}},\n"
    ));
    json.push_str(&format!(
        "    \"with_checkpoint\": {{\"tps\": {ov_ckpt_tps:.1}, \"p50_us\": {ov_ckpt_p50}, \
         \"p99_us\": {ov_ckpt_p99}, \"busy\": {ov_ckpt_busy}}},\n"
    ));
    json.push_str(&format!(
        "    \"checkpoint_tps_penalty_pct\": {ov_penalty_pct:.1},\n"
    ));
    json.push_str(&format!(
        "    \"shed_requests\": {ov_shed_requests}, \
         \"shed_connections\": {ov_shed_connections}, \
         \"capture_yields\": {ov_capture_yields}\n"
    ));
    json.push_str("  }\n");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write BENCH_pipeline.json");
    eprintln!("pipeline: wrote {}", out_path.display());
    println!("{json}");
    let _ = std::fs::remove_dir_all(&root);
}
