//! Host-time spans recorded around the benchmark's own calls into each
//! layer, and the per-layer ledger that closes them against wall time.
//!
//! Spans nest: a span's self time is its duration minus the time its
//! child spans cover. Spans are kept in memory as per-name aggregates and
//! summarised when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Aggregate of every span recorded under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub total_s: f64,
    pub self_s: f64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_s: f64,
}

/// In-memory span recorder.
#[derive(Default)]
pub struct Tracer {
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` are its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_s: 0.0,
        });
        let out = f(self);
        let open = self.stack.pop().expect("spans close in order");
        debug_assert_eq!(open.name, name);
        let dur = open.start.elapsed().as_secs_f64();
        if let Some(parent) = self.stack.last_mut() {
            parent.child_s += dur;
        }
        let t = self.totals.entry(name).or_default();
        t.total_s += dur;
        t.self_s += dur - open.child_s;
        out
    }

    /// Totals recorded under `name` (zero when never opened).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }
}

/// How a ledger row's seconds were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Self time of a span recorded around the benchmark's call.
    Span,
    /// ns per call (timed at the workload's operating point) × a count.
    Attributed,
}

/// One layer's share of a traced run.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: &'static str,
    pub self_s: f64,
    pub source: Source,
}

/// Per-layer host-time ledger of one traced run.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Wall time of the traced run, seconds.
    pub wall_s: f64,
    /// Quiet wall times of all the run's traced and untraced batches,
    /// seconds (0 until every batch is in).
    pub traced_quiet_s: f64,
    pub untraced_quiet_s: f64,
    pub rows: Vec<Row>,
}

impl Ledger {
    pub fn new(wall_s: f64) -> Self {
        Self {
            wall_s,
            traced_quiet_s: 0.0,
            untraced_quiet_s: 0.0,
            rows: Vec::new(),
        }
    }

    pub fn span(&mut self, layer: &'static str, self_s: f64) {
        self.rows.push(Row {
            layer,
            self_s,
            source: Source::Span,
        });
    }

    pub fn attributed(&mut self, layer: &'static str, self_s: f64) {
        self.rows.push(Row {
            layer,
            self_s,
            source: Source::Attributed,
        });
    }

    /// Sum of every attributed layer's self time.
    pub fn attributed_s(&self) -> f64 {
        self.rows.iter().map(|r| r.self_s).sum()
    }

    /// Wall time no layer accounts for (negative when layers double count).
    pub fn residual_s(&self) -> f64 {
        self.wall_s - self.attributed_s()
    }

    /// Traced minus untraced quiet wall time.
    pub fn overhead_s(&self) -> f64 {
        self.traced_quiet_s - self.untraced_quiet_s
    }

    /// Whether the layers claim more than the wall time (double counting),
    /// or a layer claims negative time (an over-attributed child).
    pub fn double_counted(&self) -> bool {
        self.attributed_s() > self.wall_s || self.rows.iter().any(|r| r.self_s < 0.0)
    }

    /// The closure table: each layer's self time and share of wall time,
    /// then the attributed sum, the residual and the tracing overhead.
    pub fn render(&self, residual_layer: &str) -> String {
        let pct = |s: f64| 100.0 * s / self.wall_s;
        let mut out = String::from("per-layer ledger (host time)\n");
        out.push_str(&format!(
            "  {:<28} {:>12} {:>8}  source\n",
            "layer", "self_s", "share"
        ));
        for r in &self.rows {
            let source = match r.source {
                Source::Span => "span",
                Source::Attributed => "ns/call x count",
            };
            out.push_str(&format!(
                "  {:<28} {:>12.6} {:>7.2}%  {source}\n",
                r.layer,
                r.self_s,
                pct(r.self_s)
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:>12.6} {:>7.2}%\n",
            "attributed sum",
            self.attributed_s(),
            pct(self.attributed_s())
        ));
        out.push_str(&format!(
            "  {:<28} {:>12.6} {:>7.2}%  wall - attributed\n",
            residual_layer,
            self.residual_s(),
            pct(self.residual_s())
        ));
        for (label, s) in [
            ("this traced wall", self.wall_s),
            ("traced wall (quiet)", self.traced_quiet_s),
            ("untraced wall (quiet)", self.untraced_quiet_s),
        ] {
            out.push_str(&format!("  {label:<28} {s:>12.6}\n"));
        }
        out.push_str(&format!(
            "  {:<28} {:>12.6}  traced - untraced\n",
            "tracing overhead",
            self.overhead_s()
        ));
        if self.double_counted() {
            out.push_str("  FLAG: attributed layers exceed wall time (double counting)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_spans_leave_the_parent_self_time() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", |_| ());
        });
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert!(inner.total_s >= 0.005);
        assert!((outer.self_s - (outer.total_s - inner.total_s)).abs() < 1e-12);
        assert_eq!(t.totals("never"), SpanTotals::default());
    }

    #[test]
    fn ledger_closes_and_flags_double_counting() {
        let mut l = Ledger::new(1.0);
        (l.traced_quiet_s, l.untraced_quiet_s) = (1.0, 0.9);
        l.span("a", 0.5);
        l.attributed("b", 0.25);
        assert!((l.residual_s() - 0.25).abs() < 1e-12);
        assert!((l.overhead_s() - 0.1).abs() < 1e-12);
        assert!(!l.double_counted());
        l.attributed("c", 0.5);
        assert!(l.double_counted());
        assert!(l.render("rest").contains("FLAG"));
    }
}
