//! Plumbing the workloads share: the engine configuration a calc-server
//! runs with, a restart split into its public calls, and a closed
//! loop over `Database::execute` with checkpoint cycles on a cadence.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use calc_common::vfs::OsVfs;
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_txn::proc::{ProcId, ProcRegistry};

use crate::check::Ledger;
use crate::report::Op;
use crate::trace::{self, ns_of};

/// The engine configuration `calc_server::open_or_recover` builds for
/// `dir`: CALC, checkpoints under `dir/ckpts`, segmented command log
/// under `dir/cmdlog`, everything else at its default.
pub fn server_config(dir: &Path) -> EngineConfig {
    let mut config = EngineConfig::new(StrategyKind::Calc, 1 << 20, 64, dir.join("ckpts"));
    config.command_log_dir = Some(dir.join("cmdlog"));
    config
}

/// Durable bytes of an engine directory: checkpoints plus command log.
pub fn durable_bytes(dir: &Path) -> u64 {
    crate::report::dir_bytes(&dir.join("ckpts")) + crate::report::dir_bytes(&dir.join("cmdlog"))
}

/// Where a restart's time went, by public call.
#[derive(Clone, Debug, Default)]
pub struct Split {
    pub total_s: f64,
    pub read_dir_logs_s: f64,
    pub open_s: f64,
    pub recover_s: f64,
    pub part_load_s: f64,
    pub merge_s: f64,
    pub replay_s: f64,
    pub parts_loaded: f64,
    pub replayed: f64,
}

/// Restarts the engine over `dir` the way `open_or_recover` does —
/// read the surviving log, open, recover — calling each step itself so
/// each can be timed, and spanned when `traced`.
pub fn reopen(dir: &Path, registry: ProcRegistry, traced: bool) -> io::Result<(Database, Split)> {
    let t0 = Instant::now();
    let commands = {
        let _s = trace::span(traced, "recovery.read_dir_logs");
        calc_recovery::read_dir_logs(&OsVfs, &dir.join("cmdlog"))?
    };
    let t1 = Instant::now();
    let db = {
        let _s = trace::span(traced, "engine.open");
        Database::open(server_config(dir), registry)?
    };
    let t2 = Instant::now();
    let outcome = {
        let span = trace::span(traced, "engine.recover");
        let start = trace::now_ns();
        let outcome = db
            .recover(&commands)
            .map_err(|e| io::Error::other(format!("recovery failed: {e}")))?;
        if let Some(span) = &span {
            // The phases RecoveryOutcome reports, laid end to end from
            // the call's start: load parts, merge, replay.
            let mut at = start;
            for (name, d) in [
                ("recovery.part_load", outcome.stats.part_load),
                ("recovery.merge", outcome.stats.merge),
                ("recovery.replay", outcome.stats.replay),
            ] {
                let end = at + d.as_nanos() as u64;
                trace::record(name, span.id(), at, end);
                at = end;
            }
        }
        outcome
    };
    let t3 = Instant::now();
    let split = Split {
        total_s: (t3 - t0).as_secs_f64(),
        read_dir_logs_s: (t1 - t0).as_secs_f64(),
        open_s: (t2 - t1).as_secs_f64(),
        recover_s: (t3 - t2).as_secs_f64(),
        part_load_s: outcome.stats.part_load.as_secs_f64(),
        merge_s: outcome.stats.merge.as_secs_f64(),
        replay_s: outcome.stats.replay.as_secs_f64(),
        parts_loaded: outcome.stats.parts_loaded as f64,
        replayed: outcome.replayed as f64,
    };
    Ok((db, split))
}

/// One generated transaction. `group` names the 8-key group and stamp a
/// group write stores, so its acknowledgement lands in the ledger.
pub struct Req {
    pub proc: ProcId,
    pub params: Arc<[u8]>,
    pub group: Option<(u64, u64)>,
}

/// A per-thread request generator.
pub type Gen = Box<dyn FnMut() -> Req + Send>;

/// When checkpoint cycles run and when the closed loop stops.
pub enum Schedule {
    /// After `warmup` (run but not measured), measure for `window`;
    /// cycle `c` starts `cycle_starts[c]` into the window, never before
    /// the previous cycle ended.
    Timed {
        warmup: Duration,
        window: Duration,
        cycle_starts: Vec<Duration>,
    },
    /// Run exactly `total` transactions; cycle `c` starts once
    /// `cycle_after[c]` were issued (and the previous cycle ended).
    Counted { total: u64, cycle_after: Vec<u64> },
}

pub struct Plan {
    pub schedule: Schedule,
    /// Span every other operation (and every cycle and memory sample).
    pub traced: bool,
}

/// What a closed loop measured. Times are ns from the start of the
/// measured window.
#[derive(Default)]
pub struct Drive {
    pub window_ns: u64,
    pub ops: Vec<Op>,
    pub committed: u64,
    pub aborted: u64,
    pub cycles: Vec<(u64, u64)>,
    pub cycle_s: Vec<f64>,
    pub cycle_errors: u64,
    pub extra_peak: u64,
    pub live_bytes: u64,
    pub ledger: Ledger,
}

#[derive(Default)]
struct ThreadOut {
    ops: Vec<Op>,
    committed: u64,
    aborted: u64,
    ledger: Ledger,
}

/// Runs `gens.len()` caller threads in a closed loop on
/// `Database::execute` while one thread runs `checkpoint_now` cycles
/// per `plan`, sampling the store's memory every 50 ms. Operations that
/// start before the measured window are run but not recorded.
pub fn drive(db: &Database, plan: &Plan, gens: Vec<Gen>) -> Drive {
    let (warmup, total, cycles_planned) = match &plan.schedule {
        Schedule::Timed {
            warmup,
            cycle_starts,
            ..
        } => (*warmup, u64::MAX, cycle_starts.len()),
        Schedule::Counted { total, cycle_after } => (Duration::ZERO, *total, cycle_after.len()),
    };
    let stop = AtomicBool::new(false);
    let issued = AtomicU64::new(0);
    let cycles_done = AtomicBool::new(false);
    let cycles = Mutex::new((Vec::new(), Vec::new(), 0u64));
    let from = Instant::now() + warmup;
    let rel = |t: Instant| ns_of(t).saturating_sub(ns_of(from));
    let mut out = Drive::default();

    // One caller thread's closed loop.
    let caller = |mut gen: Gen| -> ThreadOut {
        let mut o = ThreadOut::default();
        let mut i = 0u64;
        while !stop.load(Ordering::Relaxed) && issued.fetch_add(1, Ordering::Relaxed) < total {
            let req = gen();
            let traced = plan.traced && i.is_multiple_of(2);
            i += 1;
            let t = Instant::now();
            let outcome = {
                let _s = trace::span(traced, "engine.execute");
                db.execute(req.proc, req.params)
            };
            let end = Instant::now();
            if t >= from {
                o.ops.push(Op {
                    end_ns: rel(end),
                    us: (end - t).as_secs_f64() * 1e6,
                    traced,
                });
            }
            match outcome {
                TxnOutcome::Committed(seq) => {
                    o.committed += 1;
                    if let Some((g, stamp)) = req.group {
                        o.ledger.ack(g, seq.0, stamp);
                    }
                }
                TxnOutcome::Aborted(_) => o.aborted += 1,
            }
        }
        trace::flush_thread();
        o
    };
    std::thread::scope(|s| {
        let callers: Vec<_> = gens
            .into_iter()
            .map(|gen| s.spawn(|| caller(gen)))
            .collect();

        let checkpointer = s.spawn(|| {
            for c in 0..cycles_planned {
                match &plan.schedule {
                    Schedule::Timed { cycle_starts, .. } => {
                        if let Some(wait) =
                            (from + cycle_starts[c]).checked_duration_since(Instant::now())
                        {
                            std::thread::sleep(wait);
                        }
                    }
                    Schedule::Counted { cycle_after, .. } => {
                        while issued.load(Ordering::Relaxed) < cycle_after[c] {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                }
                let t = Instant::now();
                let ok = {
                    let _s = trace::span(plan.traced, "engine.checkpoint_now");
                    db.checkpoint_now().is_ok()
                };
                let end = Instant::now();
                let mut c = cycles.lock().expect("cycle list poisoned");
                c.0.push((rel(t), rel(end)));
                c.1.push((end - t).as_secs_f64());
                c.2 += u64::from(!ok);
            }
            cycles_done.store(true, Ordering::Release);
            trace::flush_thread();
        });

        let mut next_sample = Instant::now();
        loop {
            if Instant::now() >= next_sample {
                let m = {
                    let _s = trace::span(plan.traced, "storage.memory");
                    db.strategy().memory()
                };
                out.extra_peak = out.extra_peak.max(m.extra_bytes as u64);
                out.live_bytes = m.live_bytes as u64;
                next_sample += Duration::from_millis(50);
            }
            let done = cycles_done.load(Ordering::Acquire)
                && match &plan.schedule {
                    Schedule::Timed { window, .. } => Instant::now() >= from + *window,
                    Schedule::Counted { total, .. } => issued.load(Ordering::Relaxed) >= *total,
                };
            if done {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        stop.store(true, Ordering::Relaxed);
        out.window_ns = rel(Instant::now());
        checkpointer.join().expect("checkpoint thread panicked");
        for h in callers {
            let o = h.join().expect("caller thread panicked");
            out.ops.extend(o.ops);
            out.committed += o.committed;
            out.aborted += o.aborted;
            out.ledger.merge(o.ledger);
        }
    });
    if matches!(plan.schedule, Schedule::Counted { .. }) {
        // The window ends with the last transaction, not with the wait
        // for the last cycle.
        out.window_ns = out
            .ops
            .iter()
            .map(|o| o.end_ns)
            .max()
            .unwrap_or(out.window_ns);
    }
    let (c, s, e) = cycles.into_inner().expect("cycle list poisoned");
    out.cycles = c;
    out.cycle_s = s;
    out.cycle_errors = e;
    trace::flush_thread();
    out
}
