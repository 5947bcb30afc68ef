//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public function: a name, host start and end, the enclosing span, and
//! the request the span belongs to. They stay in memory until the run
//! ends and are then written out once, as Trace Event Format JSON that
//! Perfetto and `chrome://tracing` open directly. A disabled tracer costs
//! one branch per `begin`/`end`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Static layer name, e.g. `"ir.lift"`.
    pub name: &'static str,
    /// Host start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host end, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (unit of work) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans when enabled; does nothing otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new request: spans begun from here on carry its id.
    pub fn next_request(&mut self) -> u64 {
        self.request += 1;
        self.request
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// For every request, the summed duration of its spans named `name`,
    /// keyed by request id (requests without such a span are absent).
    pub fn per_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.request).or_insert(0.0) += s.ms();
        }
        out
    }

    /// For every span named `root`: its duration minus the durations of
    /// its direct children — the time no layer span accounts for.
    pub fn residuals_ms(&self, root: &str) -> Vec<f64> {
        let mut child_ms: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_ms.entry(p).or_insert(0.0) += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| s.ms() - child_ms.get(&i).copied().unwrap_or(0.0))
            .collect()
    }

    /// The spans as Trace Event Format JSON (complete `"X"` events, times
    /// in microseconds; the parent and request ride in `args`).
    pub fn to_trace_event_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    concat!(
                        "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, ",
                        "\"ts\": {:.3}, \"dur\": {:.3}, ",
                        "\"args\": {{\"id\": {}, \"parent\": {}, \"request\": {}}}}}"
                    ),
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    i,
                    parent,
                    s.request,
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("a");
        t.end(s);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_the_request() {
        let mut t = Tracer::new(true);
        let req = t.next_request();
        let root = t.begin("root");
        let child = t.begin("child");
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == req));
        let residual = t.residuals_ms("root");
        assert_eq!(residual.len(), 1);
        assert!(residual[0] >= 0.0);
        assert!(t.to_trace_event_json().contains("\"parent\": 0"));
    }
}
