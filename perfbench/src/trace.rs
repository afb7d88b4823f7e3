//! In-memory wall-clock spans recorded around calls into the layer
//! crates, with self-time attribution and a Chrome `trace_event` export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span: `[start_s, end_s)` relative to the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Summed duration of the direct children (they never overlap: the
    /// benchmark is single-threaded).
    pub child_s: f64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The span's duration minus the part its children cover.
    pub fn self_s(&self) -> f64 {
        self.dur_s() - self.child_s
    }
}

/// Records nested spans. Spans stay in memory until [`Tracer::to_chrome_json`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
            child_s: 0.0,
        });
        self.open.push(id);
        let out = f(self);
        let end_s = self.epoch.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[id].end_s = end_s;
        if let Some(p) = self.spans[id].parent {
            let d = self.spans[id].dur_s();
            self.spans[p].child_s += d;
        }
        out
    }

    /// Total duration of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .sum()
    }

    /// Total self time of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::self_s)
            .sum()
    }

    /// Self time per span name, in name order.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.self_s();
        }
        out
    }

    /// Chrome `trace_event` JSON (complete events, microseconds), loadable
    /// in Perfetto; `args.parent` names the enclosing span's index.
    pub fn to_chrome_json(&self, meta: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_s * 1e6,
                s.dur_s() * 1e6,
                s.self_s() * 1e6,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = writeln!(out, "],\"metadata\":{meta}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = &t.spans[0];
        assert_eq!(t.spans[1].parent, Some(0));
        assert!((outer.child_s - t.spans[1].dur_s()).abs() < 1e-12);
        assert!(outer.self_s() < outer.dur_s());
        assert!(t.self_s("inner") >= 0.005);
    }
}
