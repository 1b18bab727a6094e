//! Layer probes for the traced run: short, serial loops over one public
//! call of a layer, on inputs drawn the way the workload draws them.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use calc_common::phase::Phase;
use calc_common::rng::SplitMix;
use calc_common::types::{Key, TxnId};
use calc_core::strategy::{CheckpointStrategy, NoopEnv};
use calc_core::{CalcStrategy, CheckpointDir, Throttle};
use calc_engine::{Database, EngineConfig, StrategyKind, TxnOutcome};
use calc_server::{procs, Client, KvError, Server};
use calc_storage::StoreConfig;
use calc_txn::commitlog::CommitLog;
use calc_txn::locks::{LockManager, LockMode};
use calc_txn::proc::{params, ProcId};

use crate::check::Ledger;
use crate::engine::Split;
use crate::gen::{distinct_keys, group_keys, label, payload, stream, GROUP};
use crate::report::{median, Outcome};
use crate::{trace, Ctx};

/// Probe writes stamp above this, so their stamps never collide with a
/// workload writer's.
const PROBE_STAMPS: u64 = 1 << 62;

/// The `MPUT` parameters writing `stamp` to every key of group `g`.
pub fn mput_params(g: u64, stamp: u64) -> Arc<[u8]> {
    let keys = group_keys(g);
    let mut w = params::Writer::new().u32(GROUP as u32);
    for k in keys {
        w = w.u64(k).bytes(&payload(k, stamp));
    }
    w.finish()
}

/// The `(key, value)` pairs of a wire `MPUT` writing `stamp` to group `g`.
pub fn mput_pairs(g: u64, stamp: u64) -> Vec<(u64, Vec<u8>)> {
    group_keys(g)
        .iter()
        .map(|&k| (k, payload(k, stamp)))
        .collect()
}

/// What a traced run measured through the engine and the server, and
/// what it carries to [`finish`].
#[derive(Default)]
pub struct Layers {
    pub get8_us: f64,
    pub durable_us: f64,
    /// Median wire `MGET` and `MPUT` latency (µs).
    pub mget_us: f64,
    pub mput_us: f64,
    pub busy: u64,
    pub shed: u64,
    /// Wire `MGET`s whose keys showed more than one `MPUT`.
    pub torn: u64,
    /// Probe operations that failed.
    pub failed: u64,
    pub splits: Vec<Split>,
    /// Traced minus untraced median latency of the workload's operation.
    pub overhead_us: f64,
    /// Probe writes made so far; each takes the next stamp above
    /// `PROBE_STAMPS`.
    pub stamps: u64,
}

impl Layers {
    fn next_stamp(&mut self) -> u64 {
        self.stamps += 1;
        PROBE_STAMPS + self.stamps
    }
}

/// Times in-process 8-key reads (8 × `Database::get`) and durable 8-key
/// writes (`Database::execute_durable(procs::MPUT)`) on `db`, medians in
/// µs. Acknowledged writes go to `ledger`.
pub fn engine(
    db: &Database,
    next_group: &mut dyn FnMut() -> u64,
    (reads, writes): (usize, usize),
    ledger: &mut Ledger,
    l: &mut Layers,
) {
    let mut lat = Vec::with_capacity(reads);
    for _ in 0..reads {
        let keys = group_keys(next_group());
        let t = Instant::now();
        let _s = trace::span(true, "engine.get8");
        for k in keys {
            std::hint::black_box(db.get(Key(k)));
        }
        lat.push(t.elapsed().as_secs_f64() * 1e6);
    }
    l.get8_us = median(&lat);
    lat.clear();
    for _ in 0..writes {
        let g = next_group();
        let stamp = l.next_stamp();
        let p = mput_params(g, stamp);
        let t = Instant::now();
        let r = {
            let _s = trace::span(true, "engine.execute_durable");
            db.execute_durable(procs::MPUT, p)
        };
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        match r {
            Ok(TxnOutcome::Committed(seq)) => ledger.ack(g, seq.0, stamp),
            Ok(TxnOutcome::Aborted(_)) => l.failed += 1,
            Err(_) => {
                ledger.unsure(g, stamp);
                l.failed += 1;
            }
        }
    }
    l.durable_us = median(&lat);
}

/// Serves `db` over loopback and times `MGET`s and durable `MPUT`s from
/// one connection, medians in µs; returns the engine after a graceful
/// server shutdown.
pub fn wire(
    db: Arc<Database>,
    next_group: &mut dyn FnMut() -> u64,
    (reads, writes): (usize, usize),
    ledger: &mut Ledger,
    l: &mut Layers,
) -> io::Result<Arc<Database>> {
    let server = Server::start(db, "127.0.0.1:0")?;
    let mut client = Client::connect(server.local_addr())?;
    let mut lat = Vec::with_capacity(reads);
    for _ in 0..reads {
        let keys = group_keys(next_group());
        let t = Instant::now();
        let r = {
            let _s = trace::span(true, "server.mget");
            client.mget(&keys)
        };
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = r {
            l.failed += 1;
            l.busy += u64::from(matches!(e, KvError::Busy(_)));
        }
    }
    l.mget_us = median(&lat);
    lat.clear();
    for _ in 0..writes {
        let g = next_group();
        let stamp = l.next_stamp();
        let pairs = mput_pairs(g, stamp);
        let t = Instant::now();
        let r = {
            let _s = trace::span(true, "server.mput");
            client.mput(&pairs)
        };
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        match r {
            Ok(seq) => ledger.ack(g, seq, stamp),
            Err(e) => {
                l.failed += 1;
                l.busy += u64::from(matches!(e, KvError::Busy(_)));
                if !matches!(e, KvError::Busy(_) | KvError::Aborted(_)) {
                    ledger.unsure(g, stamp);
                }
            }
        }
    }
    l.mput_us = median(&lat);
    l.shed = shed_requests(&mut client);
    drop(client);
    Ok(server.shutdown())
}

/// The server's `shed_requests` counter, read over `HEALTH`.
pub fn shed_requests(client: &mut Client) -> u64 {
    client
        .health_fields()
        .ok()
        .and_then(|f| f.get("shed_requests")?.parse().ok())
        .unwrap_or(0)
}

/// Median ns of `n` serial `LockManager::acquire` + release of
/// exclusive footprints of `keys_per_txn` keys below `key_bound`.
fn locks(rng: &mut SplitMix, key_bound: u64, keys_per_txn: usize, n: usize) -> f64 {
    let lm = LockManager::new(1024);
    let lat: Vec<f64> = (0..n)
        .map(|_| {
            let req: Vec<(Key, LockMode)> = distinct_keys(rng, key_bound, keys_per_txn)
                .into_iter()
                .map(|k| (Key(k), LockMode::Exclusive))
                .collect();
            let t = Instant::now();
            let _s = trace::span(true, "txn.locks");
            lm.acquire(&req).release();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&lat)
}

/// `calc-core` probe numbers.
struct Core {
    capture_s: f64,
    quiesce_ms: f64,
    bytes: f64,
    parts: f64,
    hook_rest_ns: f64,
    hook_capture_ns: f64,
}

/// One transaction through CALC's write hooks: begin, a write per key,
/// commit token, commit hook, end.
fn hook_txn(calc: &CalcStrategy, log: &CommitLog, keys: &[u64], value: &[u8], id: u64) {
    let mut token = calc.txn_begin();
    for &k in keys {
        calc.apply_write(&mut token, Key(k), value)
            .expect("probe keys were loaded");
    }
    let (seq, stamp) = log.append_commit(TxnId(id), ProcId(0), Arc::from(&[][..]));
    calc.on_commit(&mut token, seq, stamp);
    calc.txn_end(token);
}

/// Runs a stand-alone `CalcStrategy` holding `records` records: one
/// capture into a fresh directory under `dir`, then `n` write-hook
/// transactions of `keys_per_txn` keys at rest and `n` while a capture
/// runs.
fn core(
    records: u64,
    keys_per_txn: usize,
    dir: &Path,
    rng: &mut SplitMix,
    n: usize,
) -> io::Result<Core> {
    let log = Arc::new(CommitLog::new(false));
    let sizing = EngineConfig::new(StrategyKind::Calc, 1 << 20, 64, dir.to_path_buf());
    let store = StoreConfig::for_records(records as usize + records as usize / 4 + 1024, 64);
    let calc = CalcStrategy::full(store, log.clone());
    for k in 0..records {
        calc.load_initial(Key(k), &payload(k, 0))
            .expect("probe store sized for its records");
    }
    let open = |name: &str| -> io::Result<CheckpointDir> {
        let d = CheckpointDir::open(&dir.join(name), Arc::new(Throttle::unlimited()))?;
        d.set_checkpoint_threads(sizing.checkpoint_threads);
        Ok(d)
    };
    let first = open("probe-capture")?;
    let t = Instant::now();
    let stats = {
        let _s = trace::span(true, "core.checkpoint");
        calc.checkpoint(&NoopEnv, &first)?
    };
    let capture_s = t.elapsed().as_secs_f64();

    let value = payload(u64::MAX, 1);
    let mut id = 0;
    let mut timed_txn = |rng: &mut SplitMix| {
        let keys = distinct_keys(rng, records, keys_per_txn);
        id += 1;
        let t = Instant::now();
        let _s = trace::span(true, "core.write_hook");
        hook_txn(&calc, &log, &keys, &value, id);
        t.elapsed().as_nanos() as f64
    };
    let rest: Vec<f64> = (0..n).map(|_| timed_txn(rng)).collect();

    // With a capture running: only transactions that began and ended
    // outside REST count. Captures repeat until enough were seen.
    let second = open("probe-capture-running")?;
    let mut during = Vec::with_capacity(n);
    for _ in 0..50 {
        let done = AtomicBool::new(false);
        std::thread::scope(|s| -> io::Result<()> {
            let capture = s.spawn(|| {
                let r = calc.checkpoint(&NoopEnv, &second);
                done.store(true, Ordering::Release);
                r
            });
            while !done.load(Ordering::Acquire) && during.len() < n {
                let before = log.current_phase();
                let ns = timed_txn(rng);
                if before != Phase::Rest && log.current_phase() != Phase::Rest {
                    during.push(ns);
                }
            }
            capture.join().expect("probe capture panicked")?;
            Ok(())
        })?;
        if during.len() >= n {
            break;
        }
    }
    trace::flush_thread();
    Ok(Core {
        capture_s,
        quiesce_ms: stats.quiesce.as_secs_f64() * 1e3,
        bytes: stats.bytes as f64,
        parts: stats.parts as f64,
        hook_rest_ns: median(&rest),
        hook_capture_ns: median(&during),
    })
}

/// Runs the probes that need no engine (lock manager, stand-alone CALC
/// strategy, `scan`/`claims` of the checkpoint directory the run left),
/// then records every per-layer metric from `l` and the trace, and
/// writes the spans out.
pub fn finish(
    ctx: &Ctx,
    out: &mut Outcome,
    l: Layers,
    ckpt_dir: &Path,
    records: u64,
    keys_per_txn: usize,
) -> io::Result<()> {
    let sc = &ctx.scale;
    let mut rng = stream(ctx.seed, label::PROBE + 1);
    let dir = CheckpointDir::open(ckpt_dir, Arc::new(Throttle::unlimited()))?;
    let t = Instant::now();
    {
        let _s = trace::span(true, "core.scan");
        dir.scan()?;
    }
    out.set("core.scan_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    {
        let _s = trace::span(true, "core.claims");
        dir.claims()?;
    }
    out.set("core.claims_s", t.elapsed().as_secs_f64());
    out.set(
        "txn.locks.acquire_release_ns",
        locks(&mut rng, records, keys_per_txn, sc.probe_locks),
    );
    let c = core(records, keys_per_txn, &ctx.dir, &mut rng, sc.probe_hooks)?;
    out.set("core.calc.write_hook_rest_ns", c.hook_rest_ns);
    out.set("core.calc.write_hook_capture_ns", c.hook_capture_ns);
    out.set("core.capture_s", c.capture_s);
    out.set("core.quiesce_ms", c.quiesce_ms);
    out.set("core.ckpt_bytes", c.bytes);
    out.set("core.ckpt_parts", c.parts);

    out.set("engine.get8_us.p50", l.get8_us);
    out.set("engine.execute_durable_us.p50", l.durable_us);
    out.set("server.mget_overhead_us", l.mget_us - l.get8_us);
    out.set("server.mput_overhead_us", l.mput_us - l.durable_us);
    out.set("server.busy_replies", l.busy as f64);
    out.set("server.shed_requests", l.shed as f64);
    out.set("server.torn_mgets", l.torn as f64);
    out.failed += l.failed;
    let m = |f: fn(&Split) -> f64| median(&l.splits.iter().map(f).collect::<Vec<_>>());
    out.set("recovery.read_dir_logs_s", m(|s| s.read_dir_logs_s));
    out.set("recovery.open_s", m(|s| s.open_s));
    out.set("recovery.recover_s", m(|s| s.recover_s));
    out.set("recovery.part_load_s", m(|s| s.part_load_s));
    out.set("recovery.merge_s", m(|s| s.merge_s));
    out.set("recovery.replay_s", m(|s| s.replay_s));
    out.set("recovery.parts_loaded", m(|s| s.parts_loaded));
    out.set("recovery.replayed", m(|s| s.replayed));

    let spans = trace::take();
    let self_s = trace::self_seconds(&spans);
    for (layer, name) in [
        ("engine", "self_s.engine"),
        ("server", "self_s.server"),
        ("txn", "self_s.txn"),
        ("core", "self_s.core"),
        ("storage", "self_s.storage"),
        ("recovery", "self_s.recovery"),
    ] {
        out.set(name, self_s.get(layer).copied().unwrap_or(0.0));
    }
    out.set("trace.spans", spans.len() as f64);
    out.set("trace.span_ns", trace::span_cost_ns());
    out.set("trace.overhead_us", l.overhead_us);
    ctx.dump(&spans)
}

/// Sets the group-commit counters of `db`'s command log.
pub fn fill_group_commit(out: &mut Outcome, db: &Database) {
    let h = db.health();
    out.set("recovery.gc.batches", h.commit_batches() as f64);
    out.set("recovery.gc.avg_batch", h.avg_batch_size());
    out.set("recovery.gc.fsync_p99_us", h.fsync_p99_us() as f64);
    out.set("engine.committed", db.metrics().committed() as f64);
    out.set("engine.aborted", db.metrics().aborted() as f64);
}
