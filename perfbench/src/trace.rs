//! In-memory span recorder for the traced run.
//!
//! Every span wraps one call into a public function of a layer. A span has
//! a name, a layer, start and end (ns since the recorder was made), the
//! span that caused it, and a key: the arrival index of a decision or the
//! job index of a simulation. Spans are kept in memory and written as
//! JSONL when the run ends. A layer's self time is the span's duration
//! minus the part of it that its child spans cover; children that run in
//! parallel on pool workers are merged first, so overlap is not counted
//! twice.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// Spans kept for the JSONL file; the aggregates below cover every span.
const LOG_CAP: usize = 50_000;

struct Open {
    name: &'static str,
    layer: &'static str,
    parent: Option<SpanId>,
    key: u64,
    start: u64,
    children: Vec<(u64, u64)>,
}

#[derive(Default, Clone, Copy)]
struct LayerAgg {
    spans: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
struct Inner {
    next: u64,
    open: HashMap<SpanId, Open>,
    layers: BTreeMap<&'static str, LayerAgg>,
    durations: BTreeMap<&'static str, Vec<f64>>,
    log: String,
    logged: usize,
    dropped: u64,
}

/// Thread-safe span recorder; pool workers record into it too.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Length of `[start, end]` covered by the union of `children`.
fn covered(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update below leaves the maps consistent, so a guard
        // poisoned by a panicking job is still valid.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        key: u64,
    ) -> SpanId {
        let start = self.now();
        let mut g = self.lock();
        let id = SpanId(g.next);
        g.next += 1;
        g.open.insert(
            id,
            Open {
                name,
                layer,
                parent,
                key,
                start,
                children: Vec::new(),
            },
        );
        id
    }

    /// Closes a span.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        let mut g = self.lock();
        let Some(mut s) = g.open.remove(&id) else {
            return;
        };
        let dur = end.saturating_sub(s.start);
        let self_ns = dur - covered(s.start, end, &mut s.children);
        if let Some(p) = s.parent.and_then(|p| g.open.get_mut(&p)) {
            p.children.push((s.start, end));
        }
        let agg = g.layers.entry(s.layer).or_default();
        agg.spans += 1;
        agg.total_ns += dur;
        agg.self_ns += self_ns;
        g.durations.entry(s.name).or_default().push(dur as f64);
        if g.logged < LOG_CAP {
            let parent = s.parent.map_or("null".to_string(), |p| p.0.to_string());
            let line = format!(
                "{{\"type\":\"span\",\"id\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{end},\"parent\":{parent},\"key\":{}}}\n",
                id.0, s.name, s.layer, s.start, s.key
            );
            g.log.push_str(&line);
            g.logged += 1;
        } else {
            g.dropped += 1;
        }
    }

    /// Durations (ns) of every closed span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.lock().durations.get(name).cloned().unwrap_or_default()
    }

    /// Spans closed so far.
    pub fn spans(&self) -> u64 {
        self.lock().layers.values().map(|a| a.spans).sum()
    }

    /// The JSONL export: kept spans, then one self-time record per layer,
    /// then the names this recorder cannot measure from outside.
    pub fn to_jsonl(&self, meta: &str, unmeasured: &[(&str, &str)]) -> String {
        let g = self.lock();
        let mut out = format!(
            "{{\"type\":\"meta\",{meta},\"spans_dropped\":{}}}\n",
            g.dropped
        );
        out.push_str(&g.log);
        for (layer, a) in &g.layers {
            let _ = writeln!(
                out,
                "{{\"type\":\"layer\",\"layer\":\"{layer}\",\"spans\":{},\"total_ms\":{},\"self_ms\":{}}}",
                a.spans,
                a.total_ns as f64 * 1e-6,
                a.self_ns as f64 * 1e-6
            );
        }
        for (name, why) in unmeasured {
            let _ = writeln!(
                out,
                "{{\"type\":\"unmeasured\",\"name\":\"{name}\",\"reason\":\"{why}\"}}"
            );
        }
        out
    }
}

/// Runs `f` inside a span when tracing, or plainly when `tracer` is `None`;
/// `f` receives the span to parent its own calls to.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    layer: &'static str,
    parent: Option<SpanId>,
    key: u64,
    f: impl FnOnce(Option<SpanId>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, layer, parent, key);
            let r = f(Some(id));
            t.close(id);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_merges_overlapping_children() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (90, 200)];
        assert_eq!(covered(0, 100, &mut kids), 30 + 10 + 10);
    }

    #[test]
    fn nested_spans_split_self_time() {
        let t = Tracer::new();
        let outer = t.open("outer", "bench", None, 0);
        let inner = t.open("inner", "store", Some(outer), 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(inner);
        t.close(outer);
        let g = t.lock();
        let (o, i) = (g.layers["bench"], g.layers["store"]);
        assert_eq!(i.self_ns, i.total_ns);
        assert!(o.self_ns < o.total_ns && o.total_ns >= i.total_ns);
        assert_eq!(o.spans + i.spans, 2);
    }
}
