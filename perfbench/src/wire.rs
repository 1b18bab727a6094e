//! `wire-rw`: a calc-server over loopback, one writer and one reader
//! connection, both in a closed loop over Zipf-skewed 8-key groups.
//!
//! The writer sends durable `MPUT`s whose eight values carry one writer
//! stamp; the reader sends `MGET`s of a group and counts those whose
//! stamps disagree (torn reads). ~100k records are loaded in-process
//! before `Server::start`; the server's own checkpoint daemon runs on a
//! fixed interval.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::Key;
use calc_engine::Database;
use calc_server::{procs, Client, KvError, Server};

use crate::check::{check_group, GroupRead, Ledger};
use crate::engine::{self, durable_bytes};
use crate::gen::{group_keys, label, payload, stream, Zipf, GROUP};
use crate::report::{latencies, mean, median, peak_rss_mb, quantile, sliced, Op, Outcome};
use crate::trace::{self, ns_of};
use crate::{probes, Ctx};

#[derive(Default)]
struct Conn {
    ops: Vec<Op>,
    attempted: u64,
    failed: u64,
    busy: u64,
    torn: u64,
    corrupt: u64,
    ledger: Ledger,
}

impl Conn {
    /// Records an operation issued at `t`, unless it started before the
    /// measured window (which starts at `t0`).
    fn time(&mut self, traced: bool, t: Instant, end: Instant, t0: Instant) {
        self.attempted += 1;
        if t < t0 {
            return;
        }
        self.ops.push(Op {
            end_ns: ns_of(end).saturating_sub(ns_of(t0)),
            us: (end - t).as_secs_f64() * 1e6,
            traced,
        });
    }

    fn error(&mut self, e: &KvError) {
        self.failed += 1;
        self.busy += u64::from(matches!(e, KvError::Busy(_)));
    }
}

/// Loads `records` records (stamp 0) into a fresh server engine with the
/// checkpoint daemon on, and starts serving it.
fn set_up(dir: &std::path::Path, records: u64, interval: Duration) -> io::Result<Server> {
    let db = calc_server::open_or_recover(dir, |c| c.checkpoint_interval = Some(interval))?;
    for k in 0..records {
        db.load_initial(Key(k), &payload(k, 0))
            .map_err(|e| io::Error::other(format!("load: {e:?}")))?;
    }
    Server::start(Arc::new(db), "127.0.0.1:0")
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let sc = &ctx.scale;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..sc.setup_reps {
        let dir = ctx.dir.join(format!("wire-{i}"));
        let t = Instant::now();
        let server = set_up(&dir, sc.wire_records, sc.wire_interval)?;
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 == sc.setup_reps {
            kept = Some((server, dir));
        } else {
            drop(server.shutdown());
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let (server, dir) = kept.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    let db = server.db().clone();
    let addr = server.local_addr();
    let groups = sc.wire_records / GROUP as u64;
    let zipf = Zipf::new(groups, Zipf::THETA);

    // Cycle ends come from the daemon's last-success time; the daemon
    // waits one interval after each cycle, so a cycle starts one
    // interval after the previous one ended.
    let last_success = |db: &Database| {
        db.health()
            .time_since_last_success()
            .map(|since| Instant::now() - since)
    };
    let window = Duration::from_secs_f64(ctx.seconds);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now() + sc.warmup;
    let mut prev_end = last_success(&db).unwrap_or(t0);
    let mut cycles = Vec::new();
    let (mut extra_peak, mut next_sample) = (0u64, t0);
    let (writer, reader) = std::thread::scope(|s| -> io::Result<(Conn, Conn)> {
        let writer = s.spawn(|| -> io::Result<Conn> {
            let mut c = Conn::default();
            let mut client = Client::connect(addr)?;
            let mut rng = stream(ctx.seed, label::WRITER);
            let mut stamp = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let g = zipf.next(&mut rng);
                stamp += 1;
                let pairs = probes::mput_pairs(g, stamp);
                let traced = ctx.traced && c.ops.len().is_multiple_of(2);
                let t = Instant::now();
                let r = {
                    let _s = trace::span(traced, "server.mput");
                    client.mput(&pairs)
                };
                c.time(traced, t, Instant::now(), t0);
                match r {
                    Ok(seq) => c.ledger.ack(g, seq, stamp),
                    Err(e) => {
                        if !matches!(e, KvError::Busy(_) | KvError::Aborted(_)) {
                            c.ledger.unsure(g, stamp);
                        }
                        c.error(&e);
                    }
                }
            }
            trace::flush_thread();
            Ok(c)
        });
        let reader = s.spawn(|| -> io::Result<Conn> {
            let mut c = Conn::default();
            let mut client = Client::connect(addr)?;
            let mut rng = stream(ctx.seed, label::READER);
            while !stop.load(Ordering::Relaxed) {
                let keys = group_keys(zipf.next(&mut rng));
                let traced = ctx.traced && c.ops.len().is_multiple_of(2);
                let t = Instant::now();
                let r = {
                    let _s = trace::span(traced, "server.mget");
                    client.mget(&keys)
                };
                c.time(traced, t, Instant::now(), t0);
                match r {
                    Ok(values) => match check_group(&keys, &values) {
                        GroupRead::Whole(_) => {}
                        GroupRead::Torn => c.torn += 1,
                        GroupRead::Corrupt => c.corrupt += 1,
                    },
                    Err(e) => c.error(&e),
                }
            }
            trace::flush_thread();
            Ok(c)
        });
        while Instant::now() < t0 + window {
            if let Some(end) = last_success(&db) {
                if end > prev_end + Duration::from_millis(1) {
                    let start = (prev_end + sc.wire_interval).max(t0);
                    if t0 < end && start < end {
                        cycles.push((start, end));
                    }
                    prev_end = end;
                }
            }
            if Instant::now() >= next_sample {
                let m = {
                    let _s = trace::span(ctx.traced, "storage.memory");
                    db.strategy().memory()
                };
                extra_peak = extra_peak.max(m.extra_bytes as u64);
                next_sample += Duration::from_millis(50);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        let w = writer.join().expect("writer thread panicked")?;
        let r = reader.join().expect("reader thread panicked")?;
        Ok((w, r))
    })?;
    let window_ns = window.as_nanos() as u64;
    let (reads, mut writes) = (reader, writer);
    let cycle_s: Vec<f64> = cycles
        .iter()
        .map(|(s, e)| (*e - *s).as_secs_f64())
        .collect();
    let cycle_ns: Vec<(u64, u64)> = cycles
        .iter()
        .map(|(s, e)| (ns_of(*s) - ns_of(t0), ns_of(*e) - ns_of(t0)))
        .collect();
    let mut all = reads.ops.clone();
    all.extend(&writes.ops);
    let (r, w) = (
        sliced(&reads.ops, &cycle_ns, window_ns, sc.slices),
        sliced(&writes.ops, &cycle_ns, window_ns, sc.slices),
    );
    let (mut read_us, mut write_us) = (latencies(&reads.ops, false), latencies(&writes.ops, false));
    out.set("ops_per_s", r.rate);
    out.set("op_p50_us", r.p50_us);
    out.set("write_p50_us", w.p50_us);
    out.set("op_p99_us", quantile(&mut read_us, 0.99));
    out.set("write_p99_us", quantile(&mut write_us, 0.99));
    out.set("ckpt_cycle_s", mean(&cycle_s));
    out.set(
        "ckpt_tps_ratio",
        sliced(&all, &cycle_ns, window_ns, sc.slices).ratio,
    );
    out.set(
        "engine.checkpoint_now_s.first",
        cycle_s.first().copied().unwrap_or(0.0),
    );
    out.set(
        "engine.checkpoint_now_s.last",
        cycle_s.last().copied().unwrap_or(0.0),
    );
    out.set("storage.extra_bytes.peak", extra_peak as f64);
    out.attempted = reads.attempted + writes.attempted;

    // Every acknowledged group must read back its last stamp.
    let mut ledger = std::mem::take(&mut writes.ledger);
    let mut client = Client::connect(addr)?;
    let mut lost = 0;
    for g in ledger.groups() {
        let keys = group_keys(g);
        let ok = client
            .mget(&keys)
            .is_ok_and(|v| ledger.holds(g, check_group(&keys, &v)));
        lost += u64::from(!ok);
    }
    let mut layers = probes::Layers {
        mget_us: r.p50_us,
        mput_us: w.p50_us,
        busy: reads.busy + writes.busy,
        shed: probes::shed_requests(&mut client),
        overhead_us: median(&latencies(&reads.ops, true)) - median(&read_us),
        torn: reads.torn,
        ..Default::default()
    };
    drop(client);
    probes::fill_group_commit(&mut out, &db);
    if ctx.traced {
        let mut prng = stream(ctx.seed, label::PROBE);
        let mut next = || zipf.next(&mut prng);
        let n = (sc.probe_reads, sc.probe_writes);
        probes::engine(&db, &mut next, n, &mut ledger, &mut layers);
    }
    let live_bytes = db.strategy().memory().live_bytes as f64;
    out.set("storage.live_bytes", live_bytes);
    drop(db);
    Arc::try_unwrap(server.shutdown())
        .map_err(|_| io::Error::other("engine still shared after the run"))?
        .shutdown();
    out.set(
        "disk_bytes_per_user_byte",
        durable_bytes(&dir) as f64 / live_bytes,
    );

    // Restart over what the run left, a few times; the first restarted
    // engine must hold every acknowledged write.
    let (mut restart_s, mut lost_after) = (Vec::new(), 0);
    for i in 0..sc.wire_restarts {
        let t = Instant::now();
        let rdb = if ctx.traced {
            let (db, split) = engine::reopen(&dir, procs::registry(), true)?;
            layers.splits.push(split);
            db
        } else {
            calc_server::open_or_recover(&dir, |_| {})?
        };
        restart_s.push(t.elapsed().as_secs_f64());
        if i == 0 {
            lost_after += u64::from(rdb.record_count() as u64 != sc.wire_records);
            for g in ledger.groups() {
                let keys = group_keys(g);
                let values: Vec<_> = keys
                    .iter()
                    .map(|&k| rdb.get(Key(k)).map(|v| v.to_vec()))
                    .collect();
                lost_after += u64::from(!ledger.holds(g, check_group(&keys, &values)));
            }
        }
        rdb.shutdown();
    }
    out.set("recovery_s", median(&restart_s));
    // A torn `MGET` breaks no guarantee the server states (DESIGN.md §9:
    // reads are per-key atomic), and how many a run sees depends on
    // thread timing, so it is reported on its own, not in `failed`.
    out.failed = reads.failed + writes.failed + reads.corrupt + lost + lost_after;
    out.correct = reads.corrupt == 0 && lost == 0 && lost_after == 0;
    if reads.torn > 0 {
        eprintln!(
            "perfbench: wire-rw: {} of {} MGETs saw a torn MPUT",
            reads.torn, reads.attempted
        );
    }
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.traced {
        probes::finish(
            ctx,
            &mut out,
            layers,
            &dir.join("ckpts"),
            sc.wire_records,
            GROUP,
        )?;
    }
    std::fs::remove_dir_all(&dir)?;
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
