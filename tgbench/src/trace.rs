//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written once, as JSON
//! lines, when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` is 0 for a root span; spans of one
/// scenario share `scenario` (0 when the call serves no single one).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub scenario: u64,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh identifier, for a span or a scenario.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Times `f` as a span; `f` receives the span's id so it can parent
    /// nested spans. Returns `f`'s value and the span's duration.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        scenario: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.fresh_id();
        let start = Instant::now();
        let value = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            scenario,
            name,
            start_s: start.duration_since(self.origin).as_secs_f64(),
            end_s: end.duration_since(self.origin).as_secs_f64(),
        };
        let seconds = span.duration();
        self.spans.lock().expect("span store lock").push(span);
        (value, seconds)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store lock").clone()
    }

    /// Writes every span as one JSON line with its self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out = String::with_capacity(spans.len() * 120);
        for (span, self_s) in spans.iter().zip(selfs) {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"scenario\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{}}}",
                span.id, span.parent, span.scenario, span.name, span.start_s, span.end_s, self_s
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Where the next span goes: the tracer and its parent span's id, or
/// `None` when the run is untraced.
pub type Scope<'a> = Option<(&'a Tracer, u64)>;

/// A root scope on `tracer` (nothing when untraced).
pub fn root(tracer: Option<&Tracer>) -> Scope<'_> {
    tracer.map(|t| (t, 0))
}

/// Runs `f` inside a span named `name` under `scope`, handing `f` the
/// scope for nested spans; untraced, it just runs `f`.
pub fn within<'a, R>(
    scope: Scope<'a>,
    name: &'static str,
    scenario: u64,
    f: impl FnOnce(Scope<'a>) -> R,
) -> R {
    match scope {
        Some((tracer, parent)) => {
            tracer
                .span(name, parent, scenario, |id| f(Some((tracer, id))))
                .0
        }
        None => f(None),
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (overlapping children, e.g. from
/// two worker threads, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: std::collections::HashMap<u64, Vec<(f64, f64)>> = Default::default();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_s, span.end_s));
    }
    spans
        .iter()
        .map(|span| {
            let mut kids = children.remove(&span.id).unwrap_or_default();
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, span.start_s);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_s));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_s: f64, end_s: f64) -> Span {
        Span {
            id,
            parent,
            scenario: 0,
            name: "t",
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0.0, 10.0),
            span(2, 1, 1.0, 4.0),
            span(3, 1, 3.0, 5.0),  // overlaps span 2
            span(4, 1, 9.0, 12.0), // clipped at the parent's end
            span(5, 2, 1.5, 2.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 5.0).abs() < 1e-12, "{selfs:?}");
        assert!((selfs[1] - 2.5).abs() < 1e-12);
        assert!((selfs[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn spans_nest_through_scopes() {
        let tracer = Tracer::new();
        let scenario = tracer.fresh_id();
        let value = within(root(Some(&tracer)), "outer", scenario, |scope| {
            within(scope, "inner", scenario, |_| 7)
        });
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((outer.parent, inner.parent), (0, outer.id));
        assert_eq!(inner.scenario, outer.scenario);
        assert!(inner.start_s >= outer.start_s && inner.end_s <= outer.end_s);
        assert!(within(None, "untraced", 0, |scope| scope.is_none()));
    }
}
