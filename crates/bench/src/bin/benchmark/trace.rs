//! Spans around layer calls, kept in memory and written out at exit.
//!
//! A span is `(name, start, end, parent, thread)`. A span's *self time*
//! is its duration minus the part of it that its children cover, where
//! children may run on other threads and overlap each other. For
//! attributing a wall-clock phase to layers, [`wall_shares`] splits each
//! instant evenly among the spans running their own code at that instant,
//! so the shares of every layer add up to the phase wall even where two
//! sample workers overlap.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `"peel"`.
    pub name: &'static str,
    /// Start time.
    pub start: f64,
    /// End time (`NaN` while open).
    pub end: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Small per-process thread number.
    pub thread: usize,
}

fn thread_number() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ID: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// An in-memory span and counter recorder shared by the replay's threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: f64::NAN,
                parent,
                thread: thread_number(),
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span list lock poisoned")[id].end = end;
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn add(&self, name: &'static str, value: f64) {
        *self
            .counters
            .lock()
            .expect("counter lock poisoned")
            .entry(name)
            .or_insert(0.0) += value;
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// A copy of every counter.
    pub fn counters(&self) -> BTreeMap<&'static str, f64> {
        self.counters.lock().expect("counter lock poisoned").clone()
    }
}

/// Sorted, disjoint union of intervals, clipped to `[lo, hi]`.
fn union(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> Vec<(f64, f64)> {
    intervals.retain(|&(a, b)| b > lo && a < hi);
    intervals.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// For every span, the intervals where it runs its own code: its extent
/// minus the union of its direct children's extents.
pub fn self_intervals(spans: &[Span]) -> Vec<Vec<(f64, f64)>> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let mut own = Vec::new();
            let mut cursor = s.start;
            for (a, b) in union(kids, s.start, s.end) {
                if a > cursor {
                    own.push((cursor, a));
                }
                cursor = cursor.max(b);
            }
            if s.end > cursor {
                own.push((cursor, s.end));
            }
            own
        })
        .collect()
}

/// Self time of span `i`: its duration minus the union of its children.
#[cfg(test)]
pub fn self_time(spans: &[Span], i: SpanId) -> f64 {
    self_intervals(spans)[i].iter().map(|(a, b)| b - a).sum()
}

/// Per-layer busy time inside `[lo, hi]`: the sum of self times of the
/// layer's spans, counting overlapping threads once each.
pub fn busy(spans: &[Span], lo: f64, hi: f64) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_intervals(spans)) {
        let t: f64 = union(own, lo, hi).iter().map(|(a, b)| b - a).sum();
        *out.entry(s.name).or_insert(0.0) += t;
    }
    out
}

/// Each layer's share of the wall clock inside `[lo, hi]`: every instant
/// is split evenly among the spans running their own code at that
/// instant. The shares add up to the part of the window some span covers.
pub fn wall_shares(spans: &[Span], lo: f64, hi: f64) -> BTreeMap<&'static str, f64> {
    // (time, +1 opens / -1 closes, layer)
    let mut events: Vec<(f64, i32, &'static str)> = Vec::new();
    for (s, own) in spans.iter().zip(self_intervals(spans)) {
        for (a, b) in union(own, lo, hi) {
            events.push((a, 1, s.name));
            events.push((b, -1, s.name));
        }
    }
    events.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    let mut active: BTreeMap<&'static str, i32> = BTreeMap::new();
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last = lo;
    for (t, delta, name) in events {
        let total: i32 = active.values().sum();
        if total > 0 && t > last {
            for (&layer, &k) in &active {
                *shares.entry(layer).or_insert(0.0) += (t - last) * f64::from(k) / f64::from(total);
            }
        }
        last = last.max(t);
        *active.entry(name).or_insert(0) += delta;
        shares.entry(name).or_insert(0.0);
    }
    shares
}

/// `map` with owned keys, as JSON objects need them.
pub fn owned_keys(map: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    map.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// The trace as written to disk: every span plus the counters.
pub fn to_json(spans: &[Span], counters: &BTreeMap<&'static str, f64>) -> Value {
    json!({
        "spans": spans.iter().map(|s| json!({
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "thread": s.thread,
        })).collect::<Vec<_>>(),
        "counters": owned_keys(counters),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<SpanId>,
        thread: usize,
    ) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            thread,
        }
    }

    /// A parent on thread 0 waiting on two children that overlap on
    /// threads 1 and 2.
    fn pool() -> Vec<Span> {
        vec![
            span("scan", 0.0, 10.0, None, 0),
            span("peel", 1.0, 4.0, Some(0), 1),
            span("peel", 3.0, 6.0, Some(0), 2),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = pool();
        // The children cover [1, 6]: the overlap [3, 4] counts once.
        assert_eq!(self_time(&spans, 0), 5.0);
        assert_eq!(self_time(&spans, 1), 3.0);
        assert_eq!(self_time(&spans, 2), 3.0);
    }

    #[test]
    fn only_direct_children_count_and_overhang_is_clipped() {
        let spans = vec![
            span("root", 0.0, 10.0, None, 0),
            span("child", 2.0, 5.0, Some(0), 0),
            span("grandchild", 3.0, 4.0, Some(1), 0),
            span("late", 9.0, 12.0, Some(0), 1),
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 3.0 - 1.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 2), 1.0);
    }

    #[test]
    fn wall_shares_split_overlap_and_sum_to_the_wall() {
        let spans = pool();
        let shares = wall_shares(&spans, 0.0, 10.0);
        assert_eq!(shares["scan"], 5.0);
        // [1,3) alone, [3,4) halved, [4,6) alone.
        assert_eq!(shares["peel"], 2.0 + 1.0 + 2.0);
        assert_eq!(shares.values().sum::<f64>(), 10.0);
        // Busy time counts both threads in full.
        let b = busy(&spans, 0.0, 10.0);
        assert_eq!(b["peel"], 6.0);
    }

    #[test]
    fn window_clips_shares() {
        let spans = pool();
        let shares = wall_shares(&spans, 2.0, 5.0);
        // [2,3) peel alone, [3,4) two peels, [4,5) peel alone.
        assert_eq!(shares["peel"], 3.0);
        assert_eq!(shares.get("scan"), None);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let t = Tracer::new();
        t.span("outer", None, |outer| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| t.span("inner", Some(outer), |_| t.add("work", 1.0)));
                }
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(spans.iter().filter(|s| s.parent == Some(0)).count(), 2);
        assert_eq!(t.counters()["work"], 2.0);
        let threads: std::collections::HashSet<usize> =
            spans[1..].iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 2);
    }
}
