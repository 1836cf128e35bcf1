//! The benchmark's own span recorder.
//!
//! Spans wrap the benchmark's calls into each layer's public functions; the
//! program itself is not instrumented. Each span has a name, start, end,
//! parent (the enclosing span on the same thread) and a group id shared by
//! every span of one run or job. Spans stay in memory until the workload
//! ends; [`write_jsonl`] then saves them. Recording is off unless
//! [`set_enabled`] turned it on, and an off recorder reads no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static GROUP: Cell<u64> = const { Cell::new(0) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds of `t` since the recorder's epoch.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

/// Sets the group id that spans opened on this thread carry.
pub fn set_group(group: u64) {
    GROUP.with(|g| g.set(group));
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            push(Span {
                id,
                parent,
                group: GROUP.with(Cell::get),
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
    }
}

/// Records an interval measured elsewhere (e.g. a queue wait that starts
/// on one thread and ends on another) as a root span of `group`.
pub fn record(name: &'static str, group: u64, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: 0,
        group,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    });
}

fn push(span: Span) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// Per-name totals: span count, total duration and self time (duration
/// minus the part of it covered by child spans), in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map(|c| union_len(c, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn union_len(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut len = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                len += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        len += cb - ca;
    }
    len
}

/// Writes spans as JSON lines (one object per span).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                group: 1,
                name: "run",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                group: 1,
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                group: 1,
                name: "b",
                start_ns: 50,
                end_ns: 90,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["run"].self_ns, 30);
        assert_eq!(t["a"].self_ns, 30);
        assert_eq!(t["b"].total_ns, 40);
    }
}
