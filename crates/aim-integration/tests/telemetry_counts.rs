//! What an observation costs, as counts: heap allocations (exact, from the
//! counting allocator of `common/counting.rs`) and series cells moved
//! (from diffing two snapshots). These are the two contracts the deleted
//! `bench_observe` timed — telemetry off is free, and a scoped observation
//! costs little over an unscoped one — held as numbers that repeat.
//!
//! `cargo test -p aim-integration --test telemetry_counts -- --nocapture`
//! prints the table.

#[path = "common/counting.rs"]
mod counting;

use aim_telemetry as tel;
use counting::count;
use std::sync::Mutex;
use tel::metrics::{
    counter_add, gauge_set, histogram_record, Series, Snapshot, STATEMENTS_EXECUTED,
};

/// Telemetry state is process-global; the two tests take turns.
static LOCK: Mutex<()> = Mutex::new(());

/// With telemetry off, every hook the instrumented pipeline calls allocates
/// nothing and leaves nothing behind.
#[test]
fn disabled_hooks_allocate_nothing_and_record_nothing() {
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tel::reset();
    tel::disable();
    let hooks: [(&str, u64); 7] = [
        ("span", count(|| drop(tel::span("off.span")))),
        ("Counter::add", count(|| STATEMENTS_EXECUTED.add(1))),
        ("counter_add", count(|| counter_add("off.hits", 1))),
        ("gauge_set", count(|| gauge_set("off.depth", 1))),
        (
            "histogram_record",
            count(|| histogram_record("off.cost", 1.0)),
        ),
        ("scope enter + drop", count(|| drop(tel::scope("acme")))),
        (
            "scope_phase enter + drop",
            count(|| drop(tel::scope_phase("acme", "probe"))),
        ),
    ];
    for (hook, allocations) in hooks {
        eprintln!("disabled {hook}: {allocations} allocations");
        assert_eq!(allocations, 0, "{hook} allocates with telemetry off");
    }
    let snap = tel::snapshot();
    assert!(snap
        .counters
        .iter()
        .all(|(s, v)| *v == 0 && s.labels().is_empty()));
    assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
}

/// Every entry of `after` that differs from `before`, as
/// `(series, Δ counter or histogram count — 0 for a gauge)`.
fn moved(before: &Snapshot, after: &Snapshot) -> Vec<(Series, u64)> {
    let mut out = Vec::new();
    for (series, v) in &after.counters {
        let was = before
            .counters
            .iter()
            .find(|(s, _)| s == series)
            .map_or(0, |(_, v)| *v);
        if *v != was {
            out.push((series.clone(), v - was));
        }
    }
    for (series, v) in &after.gauges {
        if before
            .gauges
            .iter()
            .find(|(s, _)| s == series)
            .map(|(_, v)| v)
            != Some(v)
        {
            out.push((series.clone(), 0));
        }
    }
    for (series, h) in &after.histograms {
        let was = before
            .histograms
            .iter()
            .find(|(s, _)| s == series)
            .map_or(0, |(_, h)| h.count);
        if h.count != was {
            out.push((series.clone(), h.count - was));
        }
    }
    out
}

/// With telemetry on and a scope active, the 2nd…Nth observation of an
/// existing series allocates nothing and writes one cell: the scope's
/// series moves, the bare name moves by the same amount because it is
/// derived from it, and what was observed outside the scope — the
/// empty-label cell, the bare gauge — stays where it was.
#[test]
fn scoped_observation_of_an_existing_series_writes_one_cell_and_allocates_nothing() {
    const N: u64 = 100;
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    tel::reset();
    tel::enable();
    type EntryPoint = (&'static str, fn(u64));
    let entry_points: [EntryPoint; 4] = [
        ("exec.statements", |i| STATEMENTS_EXECUTED.add(i)),
        ("on.hits", |i| counter_add("on.hits", i)),
        ("on.depth", |i| gauge_set("on.depth", i as i64)),
        ("on.cost", |i| histogram_record("on.cost", i as f64)),
    ];
    // Something outside the scope first, so every name has a bare value.
    for (_, observe) in entry_points {
        observe(1_000);
    }
    let acme = [("tenant", "acme")];
    for (name, observe) in entry_points {
        let _scope = tel::scope("acme");
        observe(1);
        let before = tel::snapshot();
        let allocations = count(|| (2..=N).for_each(observe));
        let moved = moved(&before, &tel::snapshot());
        eprintln!(
            "scoped {name}: {allocations} allocations in {} observations; moved {}",
            N - 1,
            moved
                .iter()
                .map(|(s, d)| format!("{s} +{d}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        assert_eq!(allocations, 0, "{name}: a scoped observation allocates");
        let labeled = Series::new(name, &acme);
        let bare = Series::from(name);
        if name == "on.depth" {
            // A gauge has no total: the bare one is the unscoped write.
            assert_eq!(moved, [(labeled, 0)], "{name}");
        } else {
            let delta = if name == "on.cost" {
                N - 1
            } else {
                (2..=N).sum()
            };
            assert_eq!(moved, [(bare, delta), (labeled, delta)], "{name}");
        }
    }
    tel::disable();
    let snap = tel::snapshot();
    assert_eq!(snap.gauges[0], (Series::from("on.depth"), 1_000));
    // Bare minus labeled is the empty-label cell: untouched under the scope.
    let scoped: u64 = (1..=N).sum();
    assert_eq!(snap.counter("exec.statements"), Some(1_000 + scoped));
    assert_eq!(snap.counter_labeled("exec.statements", &acme), Some(scoped));
    assert_eq!(snap.counter("on.hits"), Some(1_000 + scoped));
    assert_eq!(snap.counter_labeled("on.hits", &acme), Some(scoped));
    tel::reset();
}
