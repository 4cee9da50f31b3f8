//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! named span (`workloads.gen`, `mem.access`, `engine.star`, ...). Spans
//! nest; a span's self time is its duration minus the durations of its
//! direct children. Spans stay in memory and are summarised once, when
//! the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.star`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals for every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed wall-clock time.
    pub total_ns: u64,
    /// Summed self time (wall minus direct children).
    pub self_ns: u64,
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// [`span`](Self::span), also returning the span's duration in ns.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let out = self.span(name, f);
        (out, self.spans[idx].dur_ns() as f64)
    }

    /// Position to summarise from (see [`summary_since`](Self::summary_since)).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over the spans opened at or after `mark`.
    pub fn summary_since(&self, mark: usize) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans[mark..] {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate().skip(mark) {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += span.dur_ns() - child_ns[i];
        }
        out
    }

    /// Per-name totals over every span.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        self.summary_since(0)
    }

    /// Summed duration of the top-level spans: the traced wall clock.
    pub fn root_wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur_ns)
            .sum()
    }
}

/// Total wall time of spans named `name` in `summary` (0 if absent).
pub fn total_ns(summary: &BTreeMap<&'static str, LayerTime>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, |t| t.total_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_wall() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |t| t.span("b", |_| std::hint::black_box(1 + 1)));
            t.span("c", |_| ());
        });
        let s = t.summary();
        assert_eq!(s["root"].count, 1);
        let self_sum: u64 = s.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, t.root_wall_ns());
        assert_eq!(s["a"].total_ns, s["a"].self_ns + s["b"].total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
