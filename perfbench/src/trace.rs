//! The harness's own span recorder for the traced run.
//!
//! Spans are recorded from the harness around its calls into each
//! layer's public functions; nothing inside the program is armed. Each
//! span keeps its name, start, end, parent and the process-wide
//! allocation count at both ends (from the counting allocator the
//! harness installs). Spans stay in memory and are written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    allocs_start: u64,
    allocs_end: u64,
}

/// A layer's totals over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Sum of self times (span time not covered by child spans).
    pub self_ns: u64,
    /// Allocations made while the layer itself ran (children excluded).
    pub self_allocs: u64,
    /// Number of spans.
    pub spans: u64,
}

/// Single-threaded span recorder; a disabled recorder records nothing
/// and costs one branch per span.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            // reserved up front so recording does not allocate inside
            // the layers it measures
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
            open: Vec::with_capacity(64),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span named `name`, child of the innermost open span;
    /// close it with [`Recorder::exit`].
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs_start: obs::alloc::totals().0,
            allocs_end: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        Some(id)
    }

    /// Close the span [`Recorder::enter`] opened (spans close in
    /// reverse order of opening).
    pub fn exit(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.allocs_end = obs::alloc::totals().0;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time and self allocations of span `id`: its duration minus
    /// the union of its children's intervals, and its allocations minus
    /// theirs.
    fn self_of(&self, id: usize, children: &[usize]) -> (u64, u64) {
        let span = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0;
        let mut cursor = span.start_ns;
        for (a, b) in intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let child_allocs: u64 = children
            .iter()
            .map(|&c| self.spans[c].allocs_end - self.spans[c].allocs_start)
            .sum();
        let allocs = (span.allocs_end - span.allocs_start).saturating_sub(child_allocs);
        (span.end_ns - span.start_ns - covered, allocs)
    }

    /// Per-name totals of self time and self allocations, over the
    /// spans that descend from a span named `root` (or over every span
    /// when `root` is `None`).
    pub fn layers(&self, root: Option<&str>) -> BTreeMap<&'static str, LayerTotal> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let under = |mut i: usize| loop {
            match self.spans[i].parent {
                Some(p) if Some(self.spans[p].name) == root => return true,
                Some(p) => i = p,
                None => return root.is_none(),
            }
        };
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if !under(i) {
                continue;
            }
            let (ns, allocs) = self.self_of(i, &children[i]);
            let t = out.entry(s.name).or_default();
            t.self_ns += ns;
            t.self_allocs += allocs;
            t.spans += 1;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.allocs_end - s.allocs_start
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("outer", |rec| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            rec.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let layers = rec.layers(None);
        let outer = layers["outer"].self_ns;
        let inner = layers["inner"].self_ns;
        assert!(inner >= 20_000_000, "inner {inner}");
        assert!((5_000_000..20_000_000).contains(&outer), "outer {outer}");
        let under = rec.layers(Some("outer"));
        assert_eq!(under.keys().copied().collect::<Vec<_>>(), vec!["inner"]);
        assert_eq!(under["inner"].self_ns, inner);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", |_| 7);
        assert_eq!(v, 7);
        assert!(rec.layers(None).is_empty());
    }
}
