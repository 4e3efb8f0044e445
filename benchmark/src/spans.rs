//! The benchmark's own tracing: spans recorded from outside the product,
//! around the calls into each layer, kept in memory and written out when
//! the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root (ids start at 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The slice (one closed-loop operation) the span belongs to.
    pub slice: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span sink shared by the driving thread and the worker
/// threads the product spawns (through [`crate::wrappers::TracingBackend`]).
///
/// The workloads are closed loops of one operation at a time, so one
/// "current parent" cell is enough to attach spans opened on worker
/// threads to the slice or round that caused them.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    current_parent: AtomicU64,
    current_slice: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current_parent: AtomicU64::new(0),
            current_slice: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 14)),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under, on the driving thread.
    /// Returns a token for [`Tracer::exit`].
    pub fn enter(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current_parent.swap(id, Ordering::SeqCst);
        Open {
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close a span opened by [`Tracer::enter`] and restore its parent as
    /// the current one.
    pub fn exit(&self, open: Open) {
        let end_ns = self.now_ns();
        self.current_parent.store(open.parent, Ordering::SeqCst);
        self.push(Span {
            id: open.id,
            parent: open.parent,
            slice: self.current_slice.load(Ordering::Relaxed),
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }

    /// Mark which slice subsequently recorded spans belong to.
    pub fn set_slice(&self, slice: u64) {
        self.current_slice.store(slice, Ordering::Relaxed);
    }

    /// Time `f` as a leaf span under the current parent (any thread).
    pub fn leaf<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current_parent.load(Ordering::SeqCst);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let slice = self.current_slice.load(Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            slice,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink").push(span);
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span sink").clone()
    }
}

/// A span opened on the driving thread and not yet closed.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// `span`'s duration minus the part of its interval that `kids` (the
/// intervals of its direct children) cover. Children that ran in parallel
/// overlap, so the covered part is the union of their intervals, not
/// their sum.
fn uncovered_ns(span: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(a, b) in kids.iter() {
        let a = a.max(cursor);
        let b = b.min(span.end_ns);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.dur_ns().saturating_sub(covered)
}

/// Sum of self time (see [`uncovered_ns`]) and span count per span name,
/// in first-seen order.
pub fn self_ns_by_name(all: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut kids: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in all {
        kids.entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut rows: Vec<(&'static str, u64, u64)> = Vec::new();
    for span in all {
        let own = uncovered_ns(
            span,
            kids.get_mut(&span.id).map_or(&mut [], Vec::as_mut_slice),
        );
        match rows.iter_mut().find(|(n, _, _)| *n == span.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => rows.push((span.name, own, 1)),
        }
    }
    rows
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"slice\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.slice, s.name, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self time of the span with `id`, through the public grouping.
    fn self_ns(id: u64, all: &[Span]) -> u64 {
        let named: Vec<Span> = all
            .iter()
            .map(|s| Span {
                name: if s.id == id { "it" } else { "other" },
                ..s.clone()
            })
            .collect();
        self_ns_by_name(&named)
            .iter()
            .find(|r| r.0 == "it")
            .unwrap()
            .1
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            slice: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let all = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60), // two parallel children overlapping 30..60
            span(3, 1, 30, 90),
            span(4, 2, 20, 25), // grandchild: counts against span 2 only
        ];
        assert_eq!(self_ns(1, &all), 100 - 80);
        assert_eq!(self_ns(2, &all), 50 - 5);
        assert_eq!(self_ns(3, &all), 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let all = vec![span(1, 0, 50, 100), span(2, 1, 40, 70), span(3, 1, 95, 130)];
        assert_eq!(self_ns(1, &all), 50 - 20 - 5);
    }

    #[test]
    fn nesting_follows_enter_and_exit() {
        let t = Tracer::new();
        t.set_slice(7);
        let outer = t.enter("slice");
        let inner = t.enter("round");
        t.leaf("scan", || ());
        t.exit(inner);
        t.leaf("tail", || ());
        t.exit(outer);
        let spans = t.snapshot();
        let by = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        assert_eq!(by("slice").parent, 0);
        assert_eq!(by("round").parent, by("slice").id);
        assert_eq!(by("scan").parent, by("round").id);
        assert_eq!(by("tail").parent, by("slice").id);
        assert!(spans.iter().all(|s| s.slice == 7));
        assert!(to_json(&spans).contains("\"name\":\"scan\""));
    }
}
