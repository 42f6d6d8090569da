//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`layer.call`), a start and end, the span that
//! caused it and a request id. Spans are only kept when tracing is on;
//! they stay in memory until the run ends, when [`Tracer::write`] dumps
//! them as JSON lines. A layer's self time is its spans' durations minus
//! the part of each that child spans cover ([`Tracer::self_seconds`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span, used as the parent of nested spans. `NONE`
/// marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next: Mutex<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()), next: Mutex::new(0) }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        let mut next = self.next.lock().expect("span id counter poisoned");
        *next += 1;
        *next
    }

    /// Run `f` inside a span; `f` receives the span's id for nesting.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        if !self.on {
            return f(SpanId::NONE);
        }
        let id = self.fresh_id();
        let start = Instant::now();
        let out = f(SpanId(id));
        self.push(id, parent, name, req, start, Instant::now());
        out
    }

    /// Record a span whose bounds were measured elsewhere (client-side
    /// request timings, epoch callbacks).
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::NONE;
        }
        let id = self.fresh_id();
        self.push(id, parent, name, req, start, end);
        SpanId(id)
    }

    fn push(&self, id: u64, parent: SpanId, name: &'static str, req: u64, s: Instant, e: Instant) {
        let span =
            Span { id, parent: parent.0, name, req, start_ns: self.ns(s), end_ns: self.ns(e) };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Self time per layer (the span name up to its first `.`), seconds.
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &spans {
            let covered = children.get(&s.id).map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Seconds since the tracer was made.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Share of the wall time since the tracer was made that root spans
    /// cover.
    pub fn coverage(&self) -> f64 {
        let end = self.ns(Instant::now());
        let roots: Vec<(u64, u64)> =
            self.spans().iter().filter(|s| s.parent == 0).map(|s| (s.start_ns, s.end_ns)).collect();
        union_ns(&roots, 0, end) as f64 / end.max(1) as f64
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(&[(0, 10), (5, 20), (30, 40)], 0, 100), 30);
        assert_eq!(union_ns(&[(0, 10), (5, 20)], 8, 12), 4);
        assert_eq!(union_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("a.outer", SpanId::NONE, 0, |p| {
            t.span("b.inner", p, 0, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let st = t.self_seconds();
        assert!(st["b"] >= 0.02);
        assert!(st["a"] < st["b"]);
        assert!(t.coverage() > 0.5);
    }
}
