//! `restart`: recovery of the durable state a default-config server
//! leaves behind.
//!
//! Set-up builds it through the server's own engine configuration:
//! ~500k records, then two threads commit 8-key `MPUT`s while several
//! CALC cycles run (all retained, as the default retention keeps them),
//! and a tail of ~100k commits past the last cycle. The workload then
//! times `calc_server::open_or_recover` over that directory, again and
//! again, checking each recovered engine.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use calc_common::types::Key;
use calc_engine::Database;
use calc_server::procs;

use crate::check::{check_group, Ledger};
use crate::engine::{self, durable_bytes, Gen, Plan, Req, Schedule};
use crate::gen::{group_keys, label, payload, stream, GROUP};
use crate::report::{latencies, mean, median, peak_rss_mb, quantile, sliced, Outcome};
use crate::{probes, Ctx};

/// Writer threads building the history.
const WRITERS: u64 = 2;

/// The history set-up leaves, and what it measured on the way.
struct History {
    ledger: Ledger,
    commit_us: Vec<f64>,
    cycle_s: Vec<f64>,
    ratio: f64,
    extra_peak: u64,
    live_bytes: u64,
    committed: u64,
    aborted: u64,
    cycle_errors: u64,
}

/// Builds the history in a fresh engine over `dir`; returns what it
/// measured and the engine, still open.
fn build(ctx: &Ctx, dir: &std::path::Path) -> io::Result<(History, Database)> {
    let sc = &ctx.scale;
    let db = calc_server::open_or_recover(dir, |_| {})?;
    for k in 0..sc.restart_records {
        db.load_initial(Key(k), &payload(k, 0))
            .map_err(|e| io::Error::other(format!("load: {e:?}")))?;
    }
    let groups = sc.restart_records / GROUP as u64;
    let gens: Vec<Gen> = (0..WRITERS)
        .map(|i| {
            let mut rng = stream(ctx.seed, label::HISTORY + i);
            let mut stamp = (i + 1) << 48;
            Box::new(move || {
                let g = rng.next_below(groups);
                stamp += 1;
                Req {
                    proc: procs::MPUT,
                    params: probes::mput_params(g, stamp),
                    group: Some((g, stamp)),
                }
            }) as Gen
        })
        .collect();
    let cycles = sc.restart_cycles as u64;
    let plan = Plan {
        schedule: Schedule::Counted {
            total: (cycles - 1) * sc.restart_every + sc.restart_tail,
            cycle_after: (0..cycles).map(|c| c * sc.restart_every).collect(),
        },
        traced: ctx.traced,
    };
    let d = engine::drive(&db, &plan, gens);
    let history = History {
        ratio: sliced(&d.ops, &d.cycles, d.window_ns, 1).ratio,
        ledger: d.ledger,
        commit_us: latencies(&d.ops, false),
        cycle_s: d.cycle_s,
        extra_peak: d.extra_peak,
        live_bytes: d.live_bytes,
        committed: d.committed,
        aborted: d.aborted,
        cycle_errors: d.cycle_errors,
    };
    Ok((history, db))
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let sc = &ctx.scale;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let (mut commit_us, mut cycle_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..sc.setup_reps {
        let dir = ctx.dir.join(format!("restart-{i}"));
        let t = Instant::now();
        let last = i + 1 == sc.setup_reps;
        let (h, db) = build(ctx, &dir)?;
        if last {
            probes::fill_group_commit(&mut out, &db);
        }
        db.shutdown();
        setups.push(t.elapsed().as_secs_f64());
        commit_us.extend_from_slice(&h.commit_us);
        cycle_s.push(mean(&h.cycle_s));
        ratios.push(h.ratio);
        if last {
            kept = Some((h, dir));
        } else {
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let (h, dir) = kept.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    out.set("write_p50_us", median(&commit_us));
    out.set("write_p99_us", quantile(&mut commit_us, 0.99));
    out.set("ckpt_cycle_s", median(&cycle_s));
    out.set("ckpt_tps_ratio", median(&ratios));
    out.set(
        "engine.checkpoint_now_s.first",
        h.cycle_s.first().copied().unwrap_or(0.0),
    );
    out.set(
        "engine.checkpoint_now_s.last",
        h.cycle_s.last().copied().unwrap_or(0.0),
    );
    out.set("storage.extra_bytes.peak", h.extra_peak as f64);
    out.set("storage.live_bytes", h.live_bytes as f64);
    out.set(
        "disk_bytes_per_user_byte",
        durable_bytes(&dir) as f64 / h.live_bytes as f64,
    );

    // Restart over the same directory until the run's time is up (at
    // least three times). Traced runs split every other restart into
    // its public calls.
    let groups = sc.restart_records / GROUP as u64;
    let mut srng = stream(ctx.seed, label::SAMPLE);
    let (mut untraced_s, mut traced_s, mut splits) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reps, mut bad_reps) = (0u64, 0u64);
    let t0 = Instant::now();
    while reps < 3 || t0.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.traced && reps.is_multiple_of(2);
        reps += 1;
        let t = Instant::now();
        let opened = if traced {
            engine::reopen(&dir, procs::registry(), true).map(|(db, split)| {
                splits.push(split);
                db
            })
        } else {
            calc_server::open_or_recover(&dir, |_| {})
        };
        let s = t.elapsed().as_secs_f64();
        let Ok(db) = opened else {
            bad_reps += 1;
            continue;
        };
        if traced {
            traced_s.push(s);
        } else {
            untraced_s.push(s);
        }
        let mut ok = db.record_count() as u64 == sc.restart_records;
        for _ in 0..sc.sample {
            let g = srng.next_below(groups);
            let keys = group_keys(g);
            let values: Vec<_> = keys
                .iter()
                .map(|&k| db.get(Key(k)).map(|v| v.to_vec()))
                .collect();
            ok &= h.ledger.holds(g, check_group(&keys, &values));
        }
        bad_reps += u64::from(!ok);
        db.shutdown();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let times = if untraced_s.is_empty() {
        &traced_s
    } else {
        &untraced_s
    };
    out.set("ops_per_s", reps as f64 / elapsed);
    out.set("recovery_s", median(times));
    out.set("op_p50_us", median(times) * 1e6);
    out.set("op_p99_us", quantile(&mut times.clone(), 0.99) * 1e6);
    out.attempted = reps + h.committed + h.aborted;
    out.failed = bad_reps + h.aborted + h.cycle_errors;
    out.correct = bad_reps == 0;
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.traced {
        // Probes run on one more restarted engine, after the timed ones.
        let db = calc_server::open_or_recover(&dir, |_| {})?;
        let mut prng = stream(ctx.seed, label::PROBE);
        let mut next = || prng.next_below(groups);
        let mut ledger = Ledger::default();
        let n = (sc.probe_reads, sc.probe_writes);
        let mut layers = probes::Layers {
            splits,
            overhead_us: (median(&traced_s) - median(&untraced_s)) * 1e6,
            ..Default::default()
        };
        probes::engine(&db, &mut next, n, &mut ledger, &mut layers);
        drop(probes::wire(
            Arc::new(db),
            &mut next,
            n,
            &mut ledger,
            &mut layers,
        )?);
        probes::finish(
            ctx,
            &mut out,
            layers,
            &dir.join("ckpts"),
            sc.restart_records,
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
