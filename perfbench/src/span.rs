//! In-memory span recording around each call into a layer.
//!
//! A span is `(run, name, start, end, parent)`: the spans of one
//! simulated run share a run id, and a span's parent is the span that was
//! open when it began. Spans stay in memory and are written out once,
//! when the benchmark exits. With recording off, [`Tracer::span`] only
//! runs the closure — the untraced runs that give the end-to-end numbers
//! pay for a branch, not a clock read.

use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The run this span belongs to.
    pub run: u32,
    /// The layer call, `<layer>.<operation>`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for later spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new run id; later spans belong to it.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Runs `f` inside a span named `name` (recorded only when enabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            run: self.run,
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}\n",
                s.run, s.name, s.start_s, s.end_s
            ));
        }
        out
    }
}

/// Self time per span: its duration minus the part of its interval its
/// child spans cover (children never overlap each other here — layer
/// calls are sequential).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Median self time of every span named `name`, seconds (`None` when the
/// name never occurs).
pub fn median_self(spans: &[Span], name: &str) -> Option<f64> {
    let own = self_times(spans);
    let picked: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .collect();
    crate::stats::median(&picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_runs() {
        let mut t = Tracer::new(true);
        t.next_run();
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 1 && s.end_s >= s.start_s));
        assert!(spans[0].start_s <= spans[1].start_s && spans[1].end_s <= spans[0].end_s);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 3), 3);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let span = |name, start_s, end_s, parent| Span {
            run: 1,
            name,
            start_s,
            end_s,
            parent,
        };
        let spans = vec![
            span("run", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 3.0, 4.0]);
        assert_eq!(median_self(&spans, "run"), Some(3.0));
        assert_eq!(median_self(&spans, "missing"), None);
    }
}
