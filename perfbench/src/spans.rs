//! In-memory spans around the benchmark's calls into each crate's public
//! functions. Spans of one benchmark op share an op id; self time is a
//! span's duration minus the time its direct children cover. Nothing is
//! written until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The benchmark op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `inject.Campaign::run`.
    pub name: &'static str,
    /// What the span ran on: an app, a worker count, a grid cell.
    pub label: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. While disabled every call is a plain closure call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
        }
    }

    /// Turns recording on or off (between ops, never inside one).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a new benchmark op: a root span with a fresh op id.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        self.next_op += 1;
        self.with_span(name, label, f)
    }

    /// Runs `f` as a child span of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        self.with_span(name, label, |_| f())
    }

    fn with_span<R>(
        &mut self,
        name: &'static str,
        label: &str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            op: self.next_op,
            parent: self.open.last().copied(),
            name,
            label: label.to_owned(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let out = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, index-aligned with [`Tracer::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                self_ns[p] = self_ns[p].saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Self times (µs) of the spans called `name`, grouped by label in
    /// first-seen order.
    pub fn self_us_by_label(&self, name: &str) -> Vec<(String, Vec<f64>)> {
        let self_ns = self.self_times_ns();
        let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
        for (span, &ns) in self.spans.iter().zip(&self_ns) {
            if span.name != name {
                continue;
            }
            let us = ns as f64 / 1e3;
            match groups.iter_mut().find(|(l, _)| *l == span.label) {
                Some((_, v)) => v.push(us),
                None => groups.push((span.label.clone(), vec![us])),
            }
        }
        groups
    }

    /// Tab-separated dump: one header line, then one line per span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tid\tparent\tname\tlabel\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                s.op, s.name, s.label, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.op("op", "x", |t| t.span("child", "x", || 7));
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.op("op", "a", |t| {
            spin(200);
            t.span("child", "a", || spin(500));
        });
        t.op("op", "b", |t| t.span("child", "b", || spin(100)));
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!((spans[0].op, spans[1].op, spans[2].op), (1, 1, 2));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        let self_ns = t.self_times_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert!(self_ns[0] >= 200_000 && self_ns[1] >= 500_000);
        let by_label = t.self_us_by_label("child");
        assert_eq!(by_label.len(), 2);
        assert_eq!(by_label[0].0, "a");
        assert!(t.to_tsv().lines().count() == 5);
    }
}
