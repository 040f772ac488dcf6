//! Spans recorded by the harness around its calls into each layer.
//!
//! The harness is single-threaded, so spans nest strictly: a span's parent is
//! the span open when it started. Spans stay in memory and are written out
//! when the run ends. With tracing off the same calls only read the clocks.
//!
//! A span's start and end are wall-clock time: where the run's time went.
//! Closing a span returns the CPU seconds it used (see `clock`), which is
//! what the end-to-end metrics are made of.

use crate::clock::cpu_seconds;
use crate::json::Obj;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one pass, window or sweep.
    pub pass: u32,
    /// Calls the span stands for: 1, or the number of per-statement calls a
    /// batch summed into it.
    pub calls: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span.
pub struct Open {
    cpu_started: f64,
    index: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on carry this identifier.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.on.then(|| {
            let start_ns = self.now_ns(started);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().copied(),
                pass: self.pass,
                calls: 1,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            cpu_started: cpu_seconds(),
            index,
        }
    }

    /// Closes `open` and returns the CPU seconds used since it was opened.
    pub fn exit(&mut self, open: Open) -> f64 {
        let cpu = cpu_seconds() - open.cpu_started;
        if let Some(i) = open.index {
            assert_eq!(
                self.stack.pop(),
                Some(i),
                "spans close in reverse order of opening"
            );
            self.spans[i].end_ns = self.now_ns(Instant::now());
        }
        cpu
    }

    /// Times one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Records `calls` per-statement calls that together took `seconds`
    /// as one child of the open span, placed after its earlier children.
    pub fn add_summed(&mut self, name: &'static str, seconds: f64, calls: u64) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = match parent {
            Some(p) => self
                .spans
                .iter()
                .filter(|s| s.parent == Some(p))
                .map(|s| s.end_ns)
                .max()
                .unwrap_or(self.spans[p].start_ns),
            None => self.now_ns(Instant::now()),
        };
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent,
            pass: self.pass,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name`, summed per pass identifier.
    pub fn per_pass(&self, name: &str) -> Vec<f64> {
        let mut by_pass: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_pass.entry(s.pass).or_default() += s.seconds();
        }
        by_pass.into_values().collect()
    }

    /// Seconds spent in the direct children of spans called `parent`, summed
    /// per pass identifier.
    pub fn children_per_pass(&self, parent: &str) -> Vec<f64> {
        let mut by_pass: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent.is_some_and(|p| self.spans[p].name == parent) {
                *by_pass.entry(s.pass).or_default() += s.seconds();
            }
        }
        by_pass.into_values().collect()
    }

    pub fn to_json(&self) -> String {
        let selfs = self_times(&self.spans);
        let spans: Vec<String> = self
            .spans
            .iter()
            .zip(&selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                let mut o = Obj::new();
                o.int("id", i as u64)
                    .str("name", s.name)
                    .int("start_ns", s.start_ns)
                    .int("end_ns", s.end_ns)
                    .int("self_ns", *self_ns)
                    .int("pass", u64::from(s.pass))
                    .int("calls", s.calls);
                match s.parent {
                    Some(p) => o.int("parent", p as u64),
                    None => o.raw("parent", "null"),
                };
                o.finish()
            })
            .collect();
        let mut layers = Obj::new();
        for (name, (self_s, calls)) in self_time_by_name(&self.spans) {
            let mut o = Obj::new();
            o.num("self_s", self_s).int("calls", calls);
            layers.raw(name, &o.finish());
        }
        let mut root = Obj::new();
        root.raw("layers", &layers.finish())
            .raw("spans", &format!("[{}]", spans.join(",")));
        root.finish()
    }
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Self seconds and calls of each span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += self_ns as f64 / 1e9;
        e.1 += s.calls;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("rank", 10, 60, Some(0)),
            span("whatif", 20, 50, Some(1)),
            span("knapsack", 60, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["pass"], (40e-9, 1));
        assert_eq!(by_name["whatif"], (30e-9, 1));
    }

    #[test]
    fn children_longer_than_parent_clamp_to_zero() {
        let spans = vec![span("batch", 0, 10, None), span("parse", 0, 12, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 12]);
    }

    /// Uses about `seconds` of CPU.
    fn burn(seconds: f64) {
        let started = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - started < seconds {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
    }

    #[test]
    fn tracer_nests_and_sums_per_pass() {
        let mut tr = Tracer::new(true);
        tr.set_pass(3);
        let outer = tr.enter("pass");
        let ((), inner_s) = tr.time("rank", || burn(0.002));
        tr.add_summed("parse", 0.001, 500);
        tr.add_summed("record", 0.0005, 500);
        let outer_s = tr.exit(outer);
        assert!(outer_s >= inner_s && inner_s >= 0.002, "CPU seconds");
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].calls, 500);
        // Summed spans stack after the children already recorded.
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert!(spans.iter().all(|s| s.pass == 3));
        assert_eq!(tr.per_pass("rank").len(), 1);
        let children = tr.children_per_pass("pass");
        assert_eq!(children.len(), 1);
        // Wall-clock seconds of the children: the burn (other tests' threads
        // run the CPU clock too, so it may be short) and the two summed spans.
        assert!(children[0] >= 0.0015, "{children:?}");
        assert!(tr.per_pass("absent").is_empty());
        crate::json::validate(&tr.to_json()).expect("trace is valid JSON");
    }

    #[test]
    fn tracer_off_records_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        let ((), s) = tr.time("x", || burn(0.001));
        tr.add_summed("y", 1.0, 1);
        assert!(s >= 0.001);
        assert!(tr.spans().is_empty());
    }
}
