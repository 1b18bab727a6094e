//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload micro-ckpt|wire-rw|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It prints a metadata line, then as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end ones with `--trace 0`, per-layer ones with
//! `--trace 1`). Engine state lives under `.perfbench/` and is removed
//! at the end; a traced run leaves its spans in `.perfbench/traces/`.
//! See `README.md` for the workloads and what each metric means.

mod check;
mod engine;
mod gen;
mod micro;
mod probes;
mod report;
mod restart;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use report::{Outcome, END_TO_END, PER_LAYER};

/// Environment variables that change the engine under test.
const REFUSED_ENV: [&str; 3] = ["EXEC_MODE", "CKPT_THREADS", "CKPT_CODEC"];

/// Input sizes. [`Scale::full`] is what the benchmark measures.
#[derive(Clone, Debug)]
pub struct Scale {
    pub micro_records: u64,
    pub micro_cycles: usize,
    pub wire_records: u64,
    pub wire_interval: Duration,
    /// Restarts at the end of a `wire-rw` run; `recovery_s` is their
    /// median.
    pub wire_restarts: usize,
    pub restart_records: u64,
    pub restart_tail: u64,
    pub restart_cycles: usize,
    /// Transactions between the starts of two set-up cycles.
    pub restart_every: u64,
    /// Traffic run before a measured window starts.
    pub warmup: Duration,
    /// Slices of a `wire-rw` window; its rates and latencies are
    /// medians over slices.
    pub slices: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Records (or groups) sampled by the post-restart check.
    pub sample: usize,
    pub probe_reads: usize,
    pub probe_writes: usize,
    pub probe_locks: usize,
    pub probe_hooks: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale {
            micro_records: 1_000_000,
            micro_cycles: 4,
            wire_records: 100_000,
            wire_interval: Duration::from_millis(1000),
            wire_restarts: 3,
            restart_records: 500_000,
            restart_tail: 100_000,
            restart_cycles: 4,
            restart_every: 50_000,
            warmup: Duration::from_secs(2),
            slices: 10,
            setup_reps: 3,
            sample: 1000,
            probe_reads: 4000,
            probe_writes: 200,
            probe_locks: 50_000,
            probe_hooks: 20_000,
        }
    }

    /// A few thousand records: every code path, in about a second.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Scale {
            micro_records: 4096,
            micro_cycles: 2,
            wire_records: 2048,
            wire_interval: Duration::from_millis(100),
            wire_restarts: 2,
            restart_records: 4096,
            restart_tail: 1000,
            restart_cycles: 2,
            restart_every: 500,
            warmup: Duration::from_millis(100),
            slices: 3,
            setup_reps: 2,
            sample: 32,
            probe_reads: 50,
            probe_writes: 5,
            probe_locks: 200,
            probe_hooks: 200,
        }
    }

    /// Records of `workload`.
    fn records(&self, workload: &str) -> u64 {
        match workload {
            "micro-ckpt" => self.micro_records,
            "wire-rw" => self.wire_records,
            _ => self.restart_records,
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Engine directories of this run (removed at the end).
    pub dir: PathBuf,
    /// Where traced runs leave their spans.
    pub trace_dir: PathBuf,
    pub scale: Scale,
}

impl Ctx {
    /// Writes the run's spans to `<trace_dir>/<workload>.csv`, replacing
    /// the previous traced run's, so traces never pile up.
    pub fn dump(&self, spans: &[trace::Span]) -> std::io::Result<()> {
        let path = self.trace_dir.join(format!("{}.csv", self.workload));
        trace::dump(spans, &path)
    }
}

/// Runs one workload; the engine directory is removed even on error.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    trace::now_ns();
    std::fs::create_dir_all(&ctx.dir).map_err(|e| format!("create {}: {e}", ctx.dir.display()))?;
    let result = match ctx.workload.as_str() {
        "micro-ckpt" => micro::run(ctx),
        "wire-rw" => wire::run(ctx),
        "restart" => restart::run(ctx),
        other => return Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    result.map_err(|e| format!("{} failed: {e}", ctx.workload))
}

/// The commit the checkout was made from, read from `.git` if present.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(str::to_string))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn usage() -> String {
    "usage: perfbench --workload micro-ckpt|wire-rw|restart --seed N --seconds S --trace 0|1".into()
}

fn parse(args: &[String]) -> Result<(String, u64, f64, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(usage)?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage()),
                })
            }
            _ => return Err(usage()),
        }
    }
    let seconds = seconds.ok_or_else(usage)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok((
        workload.ok_or_else(usage)?,
        seed.ok_or_else(usage)?,
        seconds,
        trace.ok_or_else(usage)?,
    ))
}

fn main() -> ExitCode {
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the engine under test");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, traced) = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"meta\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"nproc\": {nproc}, \"git_rev\": \"{}\", \"profile\": \"{}\", \
         \"records\": {}, \"record_bytes\": {}}}}}",
        u8::from(traced),
        git_rev(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        scale.records(&workload),
        gen::RECORD_BYTES,
    );
    let root = Path::new(".perfbench");
    let ctx = Ctx {
        workload,
        seed,
        seconds,
        traced,
        dir: root.join(format!("run-{}", std::process::id())),
        trace_dir: root.join("traces"),
        scale,
    };
    let wanted = if traced { PER_LAYER } else { END_TO_END };
    match run(&ctx).and_then(|o| o.result_line(wanted)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, traced: bool) -> Outcome {
        let ctx = Ctx {
            workload: workload.into(),
            seed: 7,
            seconds: 0.6,
            traced,
            dir: std::env::temp_dir().join(format!(
                "perfbench-test-{}-{workload}-{traced}",
                std::process::id()
            )),
            trace_dir: std::env::temp_dir().join(format!(
                "perfbench-test-traces-{}-{workload}",
                std::process::id()
            )),
            scale: Scale::tiny(),
        };
        let out = run(&ctx).expect("tiny run");
        assert!(!ctx.dir.exists(), "run left its engine directory behind");
        if traced {
            let trace = ctx.trace_dir.join(format!("{workload}.csv"));
            assert!(trace.is_file(), "traced run wrote no spans");
            std::fs::remove_dir_all(&ctx.trace_dir).expect("remove test traces");
        }
        out
    }

    /// Each workload, untraced and traced, emits every named metric.
    #[test]
    fn every_workload_emits_every_metric() {
        for workload in ["micro-ckpt", "wire-rw", "restart"] {
            for (traced, wanted) in [(false, END_TO_END), (true, PER_LAYER)] {
                let out = tiny(workload, traced);
                let line = out
                    .result_line(wanted)
                    .unwrap_or_else(|e| panic!("{workload} trace={traced}: {e}"));
                for (name, unit) in wanted {
                    let field = format!("\"{name}\": {{\"value\": ");
                    assert!(line.contains(&field), "{workload}: no {name}");
                    assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
                }
                assert!(out.correct, "{workload} trace={traced}: a check failed");
                assert!(out.attempted > 0);
                if !traced {
                    for (name, _) in END_TO_END {
                        assert!(out.metrics[name] > 0.0, "{workload}: {name} is 0");
                    }
                }
            }
        }
    }

    /// `BENCHMARK.json` names the same metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in ["micro-ckpt", "wire-rw", "restart"] {
            assert!(json.contains(&format!("\"name\": \"{workload}\"")));
        }
    }

    #[test]
    fn refuses_bad_arguments() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse(&args("--workload restart --seed 1 --seconds 5 --trace 0")).is_ok());
        assert!(parse(&args("--workload restart --seed x --seconds 5 --trace 0")).is_err());
        assert!(parse(&args("--workload restart --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse(&args("--workload restart --seed 1 --trace 0")).is_err());
    }
}
