//! In-memory spans for the traced run.
//!
//! Each span records its name (`layer.operation`), start and end, the
//! span that caused it and the request it belongs to. Spans are kept in
//! memory while the run measures and written out as JSON lines when it
//! ends; a layer's self time is its spans' durations minus the parts of
//! those intervals their child spans cover.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later ones are counted as dropped.
const MAX_SPANS: usize = 500_000;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span that has started and not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    pub id: u64,
    name: &'static str,
    parent: u64,
    request: u64,
    pub start: Instant,
}

/// Collects spans when enabled; every call is a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A fresh identifier for a span or a request (0 means "none").
    pub fn fresh_id(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        // ordering: Relaxed; the counter only hands out unique numbers.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Starts a span under `parent` for `request`.
    pub fn open(&self, name: &'static str, parent: u64, request: u64) -> Open {
        Open {
            id: self.fresh_id(),
            name,
            parent,
            request,
            start: Instant::now(),
        }
    }

    /// Ends `open` now.
    pub fn close(&self, open: Open) {
        self.record(open, Instant::now());
    }

    /// Ends `open` at `end`.
    pub fn record(&self, open: Open, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
        };
        let mut spans = self.spans.lock().expect("span buffer poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            // ordering: Relaxed; a statistic read after every thread joined.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans recorded so far, and spans dropped over the cap.
    pub fn counts(&self) -> (usize, u64) {
        let kept = self.spans.lock().expect("span buffer poisoned").len();
        // ordering: Relaxed; read after the recording threads joined.
        (kept, self.dropped.load(Ordering::Relaxed))
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut by_layer = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            *by_layer.entry(s.layer()).or_insert(0) += total.saturating_sub(covered);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50), (45, 60)];
        assert_eq!(covered_ns(&mut kids, 0, 55), 20 + 15);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let parent = t.open("bench.traffic", 0, 0);
        let child = t.open("server.query", parent.id, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(child);
        t.close(parent);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["server"] >= 2_000_000);
        assert!(by_layer["bench"] < by_layer["server"]);
        assert_eq!(t.counts(), (2, 0));
    }
}
