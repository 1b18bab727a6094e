//! `micro-ckpt`: the paper's §5.1 microbenchmark on an embedded engine.
//!
//! Two caller threads run uniform 10-record read-update transactions in
//! a closed loop on `Database::execute` (ack before fsync) over ~1M
//! 100-byte records, with the segmented command log on, while a fixed
//! number of `checkpoint_now` cycles run on a fixed cadence. The run
//! ends with a restart over the state it left.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calc_common::types::Key;
use calc_engine::Database;
use calc_server::procs;
use calc_txn::proc::ProcRegistry;
use calc_workload::micro::{MicroConfig, MicroWorkload};

use crate::check::Ledger;
use crate::engine::{self, durable_bytes, Gen, Plan, Req, Schedule};
use crate::gen::{distinct_keys, label, stream, GROUP};
use crate::report::{latencies, mean, median, peak_rss_mb, quantile, sliced, Outcome};
use crate::{probes, Ctx};

/// Caller threads of the closed loop.
const CALLERS: u64 = 2;

fn registry(cfg: &MicroConfig) -> ProcRegistry {
    // The server's procedures too, so the traced run can probe
    // `execute_durable(procs::MPUT)` on this engine.
    let mut r = procs::registry();
    MicroWorkload::register(&mut r, cfg);
    r
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let sc = &ctx.scale;
    let cfg = MicroConfig {
        db_size: sc.micro_records,
        ..MicroConfig::default()
    };
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut kept = None;
    for i in 0..sc.setup_reps {
        let dir = ctx.dir.join(format!("micro-{i}"));
        let t = Instant::now();
        let db = Database::open(engine::server_config(&dir), registry(&cfg))?;
        MicroWorkload::new(cfg.clone(), ctx.seed).populate(&db);
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 == sc.setup_reps {
            kept = Some((Arc::new(db), dir));
        } else {
            db.shutdown();
            std::fs::remove_dir_all(&dir)?;
        }
    }
    let (db, dir) = kept.expect("at least one set-up");
    out.set("setup_s", median(&setups));

    // The window is cut into equal periods; a cycle starts a quarter
    // into each, so every period holds one cycle and time without one.
    let window = Duration::from_secs_f64(ctx.seconds);
    let cadence = window / sc.micro_cycles as u32;
    let plan = Plan {
        schedule: Schedule::Timed {
            warmup: sc.warmup,
            window,
            cycle_starts: (0..sc.micro_cycles as u32)
                .map(|c| cadence * c + cadence / 4)
                .collect(),
        },
        traced: ctx.traced,
    };
    let gens: Vec<Gen> = (0..CALLERS)
        .map(|i| {
            let mut w =
                MicroWorkload::new(cfg.clone(), stream(ctx.seed, label::MICRO + i).next_u64());
            Box::new(move || {
                let (proc, params) = w.next_request();
                Req {
                    proc,
                    params,
                    group: None,
                }
            }) as Gen
        })
        .collect();
    let d = engine::drive(&db, &plan, gens);

    let periods = sliced(&d.ops, &d.cycles, d.window_ns, sc.micro_cycles as u64);
    let mut txn_us = latencies(&d.ops, false);
    out.set("ops_per_s", periods.rate);
    out.set("op_p50_us", periods.p50_us);
    out.set("write_p50_us", periods.p50_us);
    out.set("op_p99_us", quantile(&mut txn_us, 0.99));
    out.set("write_p99_us", quantile(&mut txn_us, 0.99));
    out.set("ckpt_cycle_s", mean(&d.cycle_s));
    out.set("ckpt_tps_ratio", periods.ratio);
    out.set(
        "engine.checkpoint_now_s.first",
        d.cycle_s.first().copied().unwrap_or(0.0),
    );
    out.set(
        "engine.checkpoint_now_s.last",
        d.cycle_s.last().copied().unwrap_or(0.0),
    );
    out.set("storage.extra_bytes.peak", d.extra_peak as f64);
    out.attempted = d.committed + d.aborted;
    out.failed = d.aborted + d.cycle_errors;

    let groups = sc.micro_records / GROUP as u64;
    let mut layers = probes::Layers {
        overhead_us: median(&latencies(&d.ops, true)) - median(&txn_us),
        ..Default::default()
    };
    let db = if ctx.traced {
        let mut prng = stream(ctx.seed, label::PROBE);
        let mut next = || prng.next_below(groups);
        let mut ledger = Ledger::default();
        let n = (sc.probe_reads, sc.probe_writes);
        probes::engine(&db, &mut next, n, &mut ledger, &mut layers);
        probes::wire(db, &mut next, n, &mut ledger, &mut layers)?
    } else {
        db
    };

    // What a restart must bring back: the record count and a seeded
    // sample of values.
    let live_bytes = db.strategy().memory().live_bytes as f64;
    out.set("storage.live_bytes", live_bytes);
    probes::fill_group_commit(&mut out, &db);
    let count = db.record_count();
    let mut srng = stream(ctx.seed, label::SAMPLE);
    let sample: Vec<(u64, Option<Vec<u8>>)> = distinct_keys(&mut srng, sc.micro_records, sc.sample)
        .into_iter()
        .map(|k| (k, db.get(Key(k)).map(|v| v.to_vec())))
        .collect();
    Arc::try_unwrap(db)
        .map_err(|_| io::Error::other("engine still shared after the run"))?
        .shutdown();
    out.set(
        "disk_bytes_per_user_byte",
        durable_bytes(&dir) as f64 / live_bytes,
    );

    let (rdb, split) = engine::reopen(&dir, registry(&cfg), ctx.traced)?;
    out.set("recovery_s", split.total_s);
    layers.splits.push(split);
    let mut wrong = u64::from(rdb.record_count() != count);
    wrong += sample
        .iter()
        .filter(|(k, v)| rdb.get(Key(*k)).map(|x| x.to_vec()) != *v)
        .count() as u64;
    rdb.shutdown();
    out.failed += wrong;
    out.correct = wrong == 0;
    out.set("peak_rss_mb", peak_rss_mb());

    if ctx.traced {
        probes::finish(
            ctx,
            &mut out,
            layers,
            &dir.join("ckpts"),
            sc.micro_records,
            cfg.ops_per_txn,
        )?;
    }
    std::fs::remove_dir_all(&dir)?;
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
