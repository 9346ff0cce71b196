//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end, parent span and the job it
//! belongs to. Spans stay in memory and are written out once, at the end
//! of the run. Self time is a span's duration minus the part of it that
//! its child spans cover.

use crate::util::{jstr, median};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's spans. Timestamps are nanoseconds since the shared
/// `origin`, so several tracers merge onto one timeline.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A new, empty tracer on this tracer's clock.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn enter(&mut self, name: &'static str, job: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, job);
        let r = f();
        self.exit();
        r
    }

    /// Record an already-measured interval as a top-level span.
    pub fn record(&mut self, name: &'static str, job: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            job,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn median_us(&self, name: &str) -> f64 {
        median(&self.durations_us(name))
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 / 1e3
            })
            .collect()
    }

    /// Per span name: count, total and self time in microseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, self_us) in self.spans.iter().zip(self.self_times_us()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.us();
            e.2 += self_us;
        }
        out
    }

    /// Append another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span and the per-name summary as one JSON document.
    pub fn to_json(&self, host: &str) -> String {
        let mut s = format!("{{\"host\": {host},\n\"summary\": [\n");
        let summary = self.summary();
        for (i, (name, (n, total, own))) in summary.iter().enumerate() {
            let _ = writeln!(
                s,
                "  {{\"name\": {}, \"count\": {n}, \"total_us\": {total:.3}, \"self_us\": {own:.3}}}{}",
                jstr(name),
                if i + 1 < summary.len() { "," } else { "" }
            );
        }
        // One array per span, its id being its position.
        s.push_str("],\n\"span_fields\": [\"name\", \"job\", \"parent\", \"start_ns\", \"end_ns\"],\n\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = writeln!(
                s,
                "[{},{},{},{},{}]{}",
                jstr(sp.name),
                sp.job,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.start_ns,
                sp.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut t = Tracer::new(Instant::now());
        t.record("parent", 0, 0, 100);
        t.spans.push(Span {
            name: "a",
            job: 0,
            parent: Some(0),
            start_ns: 10,
            end_ns: 40,
        });
        t.spans.push(Span {
            name: "b",
            job: 0,
            parent: Some(0),
            start_ns: 30,
            end_ns: 60,
        });
        let own = t.self_times_us();
        assert!(
            (own[0] - 0.050).abs() < 1e-12,
            "100 - union(10..60) = 50 ns"
        );
        assert!((own[1] - 0.030).abs() < 1e-12);
    }
}
