//! Zero-dependency observability for the AIM advisor pipeline.
//!
//! The paper's AIM runs continuously against production traffic and must be
//! debuggable when it mis-tunes (§VII); this crate is the repro's
//! first-class instrumentation layer. It is std-only and provides three
//! primitives, wired through every crate of the workspace:
//!
//! * **Spans** ([`span`]) — RAII timers forming a phase tree. Nested spans
//!   aggregate by name into a per-thread [`ProfileNode`] tree, the single
//!   timing source of truth for "algorithm runtime" reporting.
//! * **Counters / gauges / histograms** ([`metrics`]) — one lock-sharded
//!   store of series (instrument name + a small label set such as
//!   `tenant`): a fixed taxonomy of atomic counters (what-if calls, plans
//!   evaluated, rows read, ...), ad-hoc counters, gauges and log₂-bucket
//!   histograms, each observation landing in exactly one series and
//!   all-tenant totals summed when read.
//! * **Event journal** ([`journal`]) — a bounded ring buffer of structured
//!   events (plan chosen, candidate merged, index accepted/rejected,
//!   regression detected, validation verdict), read back with
//!   [`journal::events`] and served at `/journal`.
//!
//! Telemetry is **off by default**. When disabled, spans skip all
//! bookkeeping (one atomic load + one `Instant::now`), counters are no-ops,
//! and events vanish — the advisor hot path stays within noise of the
//! uninstrumented build. Enable it around the region you want profiled:
//!
//! ```
//! use aim_telemetry as tel;
//!
//! tel::reset();
//! tel::enable();
//! {
//!     let _pass = tel::span("tune");
//!     {
//!         let _gen = tel::span("candidate_generation");
//!         tel::metrics::WHATIF_CALLS.add(3);
//!     }
//!     tel::journal::event(
//!         tel::journal::EventKind::IndexAccepted,
//!         "aim_orders_customer",
//!         "benefit 812.0",
//!     );
//! }
//! tel::disable();
//!
//! let profile = tel::take_profile();
//! assert_eq!(profile.children[0].name, "tune");
//! assert_eq!(profile.children[0].children[0].name, "candidate_generation");
//! assert_eq!(tel::metrics::WHATIF_CALLS.get(), 3);
//! assert_eq!(tel::journal::events().len(), 1);
//! ```

pub mod journal;
pub mod jsonv;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod slo;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use journal::{event, events, Event, EventKind};
pub use metrics::{
    scope, scope_phase, snapshot, Counter, HistogramSnapshot, Series, Snapshot, TelemetryScope,
};
pub use slo::{SloRule, SloStat, SloStatus};
pub use report::{render_counters, render_profile, write_artifact};
pub use serve::{
    clear_ledger_source, render_prometheus, set_ledger_source, IntrospectionServer,
};
pub use span::{
    profile_snapshot, publish_profile, published_profile, span, take_profile, ProfileNode,
    SpanGuard,
};
pub use timeseries::{Window, WindowHistogram};
pub use trace::{fork, AdoptGuard, TraceContext};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry collection off (process-wide). Open spans keep timing
/// but close normally; new spans, counter updates and events are skipped.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when telemetry collection is on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all collected state: counters, gauges, histograms, labeled
/// series, the event journal, the calling thread's span profile, the
/// time-series ring, the trace recorder and registered SLO rules.
pub fn reset() {
    metrics::reset();
    journal::reset();
    span::reset();
    timeseries::reset();
    trace::reset();
    slo::clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// Telemetry state is process-global; tests touching it serialize here.
    pub(crate) fn lock() -> MutexGuard<'static, ()> {
        static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
        GUARD
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_by_default_and_toggles() {
        let _g = lock();
        reset();
        disable();
        assert!(!is_enabled());
        metrics::WHATIF_CALLS.incr();
        assert_eq!(metrics::WHATIF_CALLS.get(), 0);
        {
            let _s = span("ignored");
        }
        assert!(profile_snapshot().children.is_empty());
        event(EventKind::PlanChosen, "t", "d");
        assert!(events().is_empty());

        enable();
        assert!(is_enabled());
        metrics::WHATIF_CALLS.incr();
        assert_eq!(metrics::WHATIF_CALLS.get(), 1);
        disable();
        reset();
    }

    #[test]
    fn span_elapsed_works_even_when_disabled() {
        let _g = lock();
        disable();
        let s = span("x");
        assert!(s.elapsed() <= std::time::Duration::from_secs(1));
    }
}
