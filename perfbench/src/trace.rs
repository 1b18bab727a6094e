//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name `layer.call`, a start, an end and the span that
//! was open on the same thread when it began (its parent). Spans stay in
//! per-thread buffers until [`flush_thread`], then in one shared list
//! until [`take`]; nothing is written while a run measures.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// `0` when the span has no parent.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Local {
    open: Vec<u64>,
    done: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SHARED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the run's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Converts an instant to nanoseconds since the run's epoch.
pub fn ns_of(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// An open span; it ends when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Guard {
    /// The span's id, for children recorded with [`record`].
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            l.done.push(span);
        });
    }
}

/// Opens span `name` when `on`; `None` (and no cost beyond the branch)
/// otherwise.
pub fn span(on: bool, name: &'static str) -> Option<Guard> {
    if !on {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(0);
        l.open.push(id);
        parent
    });
    Some(Guard {
        id,
        parent,
        name,
        start_ns: now_ns(),
    })
}

/// Records an already finished span (a phase a layer reported the
/// duration of) under `parent`.
pub fn record(name: &'static str, parent: u64, start_ns: u64, end_ns: u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| {
        l.borrow_mut().done.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        })
    });
}

/// Moves this thread's finished spans to the shared list. Call at the
/// end of every thread that opened spans.
pub fn flush_thread() {
    let done = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().done));
    SHARED.lock().expect("trace list poisoned").extend(done);
}

/// Flushes this thread and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SHARED.lock().expect("trace list poisoned"))
}

/// Cost in nanoseconds of opening and closing one span, measured on
/// this thread (median over batches); the spans it makes are discarded.
pub fn span_cost_ns() -> f64 {
    const BATCH: u32 = 1000;
    let before = LOCAL.with(|l| l.borrow().done.len());
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                drop(std::hint::black_box(span(true, "trace.cost")));
            }
            let ns = t.elapsed().as_nanos() as f64 / f64::from(BATCH);
            LOCAL.with(|l| l.borrow_mut().done.truncate(before));
            ns
        })
        .collect();
    crate::report::median(&batches)
}

/// Self time per layer in seconds: each span's duration minus the part
/// of it its children cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer()).or_insert(0.0) += own as f64 / 1e9;
    }
    out
}

/// Writes `spans` as CSV (`id,parent,name,start_ns,end_ns`).
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "engine.recover",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "recovery.replay",
                start_ns: 10,
                end_ns: 70,
            },
            Span {
                id: 3,
                parent: 0,
                name: "engine.get",
                start_ns: 200,
                end_ns: 210,
            },
        ];
        let st = self_seconds(&spans);
        assert!((st["engine"] - 50e-9).abs() < 1e-15);
        assert!((st["recovery"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        std::thread::spawn(|| {
            let outer = span(true, "engine.outer").expect("tracing on");
            drop(span(true, "txn.inner"));
            let outer_id = outer.id();
            drop(outer);
            assert!(span(false, "engine.off").is_none());
            let spans = LOCAL.with(|l| l.borrow().done.clone());
            assert_eq!(spans.len(), 2);
            assert_eq!(spans[0].parent, outer_id);
            assert_eq!(spans[1].parent, 0);
        })
        .join()
        .expect("trace thread");
    }
}
