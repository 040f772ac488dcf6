//! Windowed time-series telemetry.
//!
//! The cumulative instruments in [`crate::metrics`] answer "how much since
//! start"; continuous tuning needs "how much *lately*". This module keeps a
//! fixed-capacity ring buffer of per-window deltas: each [`tick`] diffs the
//! current metrics snapshot against the previous one and stores counters as
//! (delta, rate/sec) pairs and histograms as windowed p50/p90/p99 computed
//! from the log₂ bucket deltas. The `ContinuousTuner` ticks once per tuning
//! window, the SLO evaluator ([`crate::slo`]) reads the resulting
//! [`Window`]s, and the introspection server exposes the ring at
//! `/timeseries`.
//!
//! Like everything else in this crate the module is a no-op while telemetry
//! is disabled: [`tick`] returns `None` without taking any lock.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::metrics::{self, HistogramSnapshot, Series};
use crate::report::json_escape;

/// Default ring capacity: enough for a few hours of minute-grained windows.
pub const DEFAULT_CAPACITY: usize = 240;

/// Windowed view of one histogram: stats over only the observations that
/// arrived during the window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowHistogram {
    /// Observations recorded during the window.
    pub count: u64,
    /// Sum of those observations.
    pub sum: f64,
    /// Median estimate from the windowed log₂ bucket deltas.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl WindowHistogram {
    /// Mean observation over the window (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One closed telemetry window: metric deltas between two consecutive
/// [`tick`]s. Counters and histograms that did not change during the window
/// are omitted.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// 1-based tick sequence number (monotonic, survives ring eviction).
    pub index: u64,
    /// Caller-supplied label, e.g. `continuous_window`.
    pub label: String,
    /// Wall-clock span of the window. The first window after a reset has no
    /// predecessor tick and reports [`Duration::ZERO`] (its rates are 0).
    pub duration: Duration,
    /// `(series, delta, rate per second)` for counters that moved.
    pub counters: Vec<(Series, u64, f64)>,
    /// Windowed stats for histograms that received observations.
    pub histograms: Vec<(Series, WindowHistogram)>,
}

impl Window {
    /// Delta of a counter's bare (all-tenant) series over this window,
    /// `None` if it did not move.
    pub fn counter_delta(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(s, _, _)| s.is_bare(name))
            .map(|(_, d, _)| *d)
    }

    /// Windowed stats of a histogram's bare (all-tenant) series, `None` if
    /// it saw no observations.
    pub fn histogram(&self, name: &str) -> Option<&WindowHistogram> {
        self.histograms
            .iter()
            .find(|(s, _)| s.is_bare(name))
            .map(|(_, h)| h)
    }

    /// Per-tenant views of histogram `name`: the bare (all-tenant) series
    /// as `None` and each purely tenant-labeled series as `Some(tenant)`.
    /// Series carrying extra labels (e.g. a `phase` from a tuning worker)
    /// are deliberately excluded so live-traffic judgments (SLOs) are not
    /// polluted by tuning-internal replays.
    pub fn tenant_histograms(&self, name: &str) -> Vec<(Option<String>, &WindowHistogram)> {
        self.histograms
            .iter()
            .filter(|(s, _)| s.name() == name)
            .filter_map(|(s, h)| match s.labels() {
                [] => Some((None, h)),
                [("tenant", v)] => Some((Some(v.clone()), h)),
                _ => None,
            })
            .collect()
    }

    fn json(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"index\":{},\"label\":\"{}\",\"duration_ms\":{:.3},\"counters\":{{",
            self.index,
            json_escape(&self.label),
            self.duration.as_secs_f64() * 1e3,
        ));
        for (i, (name, delta, rate)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"delta\":{},\"rate\":{:.3}}}",
                json_escape(&name.to_string()),
                delta,
                rate
            ));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{:.3},\"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3}}}",
                json_escape(&name.to_string()),
                h.count,
                h.sum,
                h.p50,
                h.p90,
                h.p99
            ));
        }
        out.push_str("}}");
    }
}

/// Cumulative baseline captured at the previous tick.
struct Baseline {
    at: Instant,
    counters: BTreeMap<Series, u64>,
    histograms: BTreeMap<Series, HistogramSnapshot>,
}

struct State {
    capacity: usize,
    ticks: u64,
    ring: VecDeque<Window>,
    last: Option<Baseline>,
}

impl Default for State {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_CAPACITY,
            ticks: 0,
            ring: VecDeque::new(),
            last: None,
        }
    }
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(State::default))
}

/// Subtracts a cumulative bucket list from a newer one. Both lists are
/// sorted by upper bound (they come from [`metrics::snapshot`]).
fn bucket_deltas(now: &[(f64, u64)], then: &[(f64, u64)]) -> Vec<(f64, u64)> {
    let prior: BTreeMap<u64, u64> = then.iter().map(|&(u, c)| (u.to_bits(), c)).collect();
    now.iter()
        .filter_map(|&(upper, count)| {
            let before = prior.get(&upper.to_bits()).copied().unwrap_or(0);
            let delta = count.saturating_sub(before);
            (delta > 0).then_some((upper, delta))
        })
        .collect()
}

/// Windowed histogram stats from bucket deltas, reusing the cumulative
/// snapshot's interpolating [`HistogramSnapshot::quantile`]. The windowed
/// min/max are approximated by the delta buckets' edge bounds.
fn window_histogram(count: u64, sum: f64, deltas: Vec<(f64, u64)>) -> WindowHistogram {
    let min = deltas
        .first()
        .map(|&(u, _)| if u <= 1.0 { 0.0 } else { u / 2.0 })
        .unwrap_or(0.0);
    let max = deltas.last().map(|&(u, _)| u).unwrap_or(0.0);
    let snap = HistogramSnapshot {
        count,
        sum,
        min,
        max,
        buckets: deltas,
        ..HistogramSnapshot::default()
    };
    WindowHistogram {
        count,
        sum,
        p50: snap.quantile(0.50),
        p90: snap.quantile(0.90),
        p99: snap.quantile(0.99),
    }
}

/// Closes the current window: diffs the metrics snapshot against the
/// previous tick's baseline, pushes the resulting [`Window`] into the ring
/// (evicting the oldest at capacity) and returns a copy of it. Returns
/// `None` while telemetry is disabled.
pub fn tick(label: &str) -> Option<Window> {
    if !crate::is_enabled() {
        return None;
    }
    let snap = metrics::snapshot();
    let now = Instant::now();
    let window = with_state(|s| {
        let baseline = s.last.take();
        let duration = baseline
            .as_ref()
            .map(|b| now.saturating_duration_since(b.at))
            .unwrap_or(Duration::ZERO);
        let secs = duration.as_secs_f64();

        let mut counters = Vec::new();
        for (name, value) in &snap.counters {
            let before = baseline
                .as_ref()
                .and_then(|b| b.counters.get(name).copied())
                .unwrap_or(0);
            let delta = value.saturating_sub(before);
            if delta > 0 {
                let rate = if secs > 0.0 { delta as f64 / secs } else { 0.0 };
                counters.push((name.clone(), delta, rate));
            }
        }

        let mut histograms = Vec::new();
        let empty = HistogramSnapshot::default();
        for (name, h) in &snap.histograms {
            let before = baseline.as_ref().and_then(|b| b.histograms.get(name));
            let before = before.unwrap_or(&empty);
            let count = h.count.saturating_sub(before.count);
            if count == 0 {
                continue;
            }
            let sum = (h.sum - before.sum).max(0.0);
            let deltas = bucket_deltas(&h.buckets, &before.buckets);
            histograms.push((name.clone(), window_histogram(count, sum, deltas)));
        }

        s.ticks += 1;
        let window = Window {
            index: s.ticks,
            label: label.to_string(),
            duration,
            counters,
            histograms,
        };
        while s.ring.len() >= s.capacity {
            s.ring.pop_front();
        }
        s.ring.push_back(window.clone());
        s.last = Some(Baseline {
            at: now,
            counters: snap.counters.iter().cloned().collect(),
            histograms: snap.histograms.iter().cloned().collect(),
        });
        window
    });
    metrics::TIMESERIES_WINDOWS.incr();
    Some(window)
}

/// The most recent `n` windows, oldest first.
pub fn recent(n: usize) -> Vec<Window> {
    with_state(|s| {
        let skip = s.ring.len().saturating_sub(n);
        s.ring.iter().skip(skip).cloned().collect()
    })
}

/// Number of windows currently held in the ring.
pub fn len() -> usize {
    with_state(|s| s.ring.len())
}

/// Total ticks since the last reset (monotonic; unaffected by eviction).
pub fn ticks() -> u64 {
    with_state(|s| s.ticks)
}

/// Resizes the ring, evicting the oldest windows if shrinking. Capacity is
/// clamped to at least 1.
pub fn set_capacity(capacity: usize) {
    with_state(|s| {
        s.capacity = capacity.max(1);
        while s.ring.len() > s.capacity {
            s.ring.pop_front();
        }
    });
}

/// JSON document for the `/timeseries` endpoint: the most recent `n`
/// windows, oldest first.
pub fn to_json(n: usize) -> String {
    let windows = recent(n);
    let mut out = String::from("{\"windows\":[");
    for (i, w) in windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        w.json(&mut out);
    }
    out.push_str("]}");
    out
}

/// Clears the ring, the tick count and the delta baseline.
pub fn reset() {
    with_state(|s| *s = State::default());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_is_noop_while_disabled() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::disable();
        assert!(tick("w").is_none());
        assert_eq!(len(), 0);
    }

    #[test]
    fn windows_hold_deltas_not_cumulative_values() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();

        metrics::STATEMENTS_EXECUTED.add(10);
        metrics::histogram_record("ts.cost", 2.0);
        metrics::histogram_record("ts.cost", 100.0);
        let w1 = tick("first").unwrap();
        assert_eq!(w1.index, 1);
        assert_eq!(w1.counter_delta("exec.statements"), Some(10));
        let h1 = w1.histogram("ts.cost").unwrap();
        assert_eq!(h1.count, 2);
        assert!((h1.sum - 102.0).abs() < 1e-9);

        // Second window: only the *new* activity shows up.
        metrics::STATEMENTS_EXECUTED.add(3);
        metrics::histogram_record("ts.cost", 5000.0);
        let w2 = tick("second").unwrap();
        assert_eq!(w2.index, 2);
        assert_eq!(w2.counter_delta("exec.statements"), Some(3));
        let h2 = w2.histogram("ts.cost").unwrap();
        assert_eq!(h2.count, 1);
        assert!((h2.sum - 5000.0).abs() < 1e-9);
        // All mass in one bucket → every quantile lands in (2048, 8192].
        assert!(h2.p50 > 2048.0 && h2.p50 <= 8192.0, "p50 = {}", h2.p50);
        assert!(h2.p99 >= h2.p50);

        // A quiet window omits the idle instruments entirely.
        let w3 = tick("third").unwrap();
        assert_eq!(w3.counter_delta("exec.statements"), None);
        assert!(w3.histogram("ts.cost").is_none());

        assert_eq!(metrics::TIMESERIES_WINDOWS.get(), 3);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_indices() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        set_capacity(3);
        for _ in 0..5 {
            metrics::ROWS_READ.incr();
            tick("w");
        }
        let windows = recent(10);
        assert_eq!(windows.len(), 3);
        assert_eq!(
            windows.iter().map(|w| w.index).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert_eq!(ticks(), 5);
        // recent(n) trims from the old side.
        assert_eq!(recent(1)[0].index, 5);
        crate::disable();
        crate::reset();
    }

    #[test]
    fn json_document_parses_and_matches() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        metrics::PAGES_READ.add(7);
        metrics::histogram_record("ts.lat", 33.0);
        tick("json \"window\"");
        let doc = crate::jsonv::parse(&to_json(8)).expect("timeseries json parses");
        let w = &doc.get("windows").unwrap().as_arr().unwrap()[0];
        assert_eq!(w.get("label").unwrap().as_str(), Some("json \"window\""));
        assert_eq!(
            w.path("counters/exec.pages_read/delta").unwrap().as_f64(),
            Some(7.0)
        );
        assert_eq!(
            w.path("histograms/ts.lat/count").unwrap().as_f64(),
            Some(1.0)
        );
        crate::disable();
        crate::reset();
    }
}
