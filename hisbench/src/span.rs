//! The benchmark's own spans: recorded around calls into each layer,
//! kept in memory, written out when the traced run ends.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`crate.module.operation`).
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin; 0 while open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of all spans carrying one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Completed spans.
    pub count: u64,
    /// Summed durations, children included.
    pub total_ns: u64,
    /// Summed self times: duration minus the direct children's.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, in nanoseconds.
    pub fn mean_self_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// Single-threaded span recorder. Spans nest by call structure: the
/// innermost open span is the parent of the next one entered.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `request`.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span (used by the load generator, whose
    /// threads time first and record under a lock afterwards).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans)
    }

    /// The spans as a JSON array (name, start, end, parent, request).
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::Obj(vec![
                        ("name".into(), Value::Str(s.name.into())),
                        ("start_ns".into(), Value::U64(s.start_ns)),
                        ("end_ns".into(), Value::U64(s.end_ns)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                        ),
                        ("request".into(), Value::U64(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

/// A layer's self time is its span's duration minus the part of that
/// interval its child spans cover. Children of one single-threaded
/// parent never overlap, so that part is the sum of their durations.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request [0,100] ── parse [5,15]
        //                 └─ judge [20,90] ── forward [30,70]
        let spans = vec![
            span("request", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("judge", 20, 90, Some(0)),
            span("forward", 30, 70, Some(2)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["request"].self_ns, 100 - 10 - 70);
        assert_eq!(layers["judge"].self_ns, 70 - 40);
        assert_eq!(layers["forward"].self_ns, 40);
        assert_eq!(layers["parse"].self_ns, 10);
        // Self times partition the root's duration.
        let total_self: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 100);
        assert_eq!(layers["request"].total_ns, 100);
    }

    #[test]
    fn same_name_spans_aggregate() {
        let spans = vec![
            span("request", 0, 10, None),
            span("lookup", 1, 3, Some(0)),
            span("lookup", 4, 9, Some(0)),
        ];
        let layers = layer_times(&spans);
        assert_eq!(layers["lookup"].count, 2);
        assert_eq!(layers["lookup"].self_ns, 7);
        assert_eq!(layers["lookup"].mean_self_ns(), 3.5);
        assert_eq!(layers["request"].self_ns, 3);
    }

    #[test]
    fn scopes_nest_by_call_structure() {
        let mut tracer = Tracer::new();
        tracer.scope("outer", 9, |t| {
            t.scope("inner", 9, |_| std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, 9);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
