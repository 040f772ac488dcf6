//! Zero-dependency observability for the AIM advisor pipeline.
//!
//! The paper's AIM runs continuously against production traffic and must be
//! debuggable when it mis-tunes (§VII); this crate is the repro's
//! first-class instrumentation layer. It is std-only and provides two
//! primitives, wired through every crate of the workspace:
//!
//! * **Spans** ([`span`](mod@span)) — RAII timers forming a phase tree. Nested spans
//!   aggregate by name into a per-thread [`ProfileNode`] tree, the single
//!   timing source of truth for "algorithm runtime" reporting.
//! * **Counters / gauges / histograms** ([`metrics`]) — one lock-sharded
//!   store of series (instrument name + a small label set such as
//!   `tenant`): a fixed taxonomy of atomic counters (what-if calls, plans
//!   evaluated, rows read, ...), ad-hoc counters, gauges and log₂-bucket
//!   histograms, each observation landing in exactly one series and
//!   all-tenant totals summed when read.
//!
//! What the advisor decided is not telemetry: it lives in what a pass
//! returns and in `aim-core`'s decision ledger.
//!
//! Telemetry is **off by default**. When disabled, spans skip all
//! bookkeeping (one atomic load + one `Instant::now`) and counters are
//! no-ops — the advisor hot path stays within noise of the uninstrumented
//! build. Enable it around the region you want profiled:
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
//! }
//! tel::disable();
//!
//! let profile = tel::take_profile();
//! assert_eq!(profile.children[0].name, "tune");
//! assert_eq!(profile.children[0].children[0].name, "candidate_generation");
//! assert_eq!(tel::metrics::WHATIF_CALLS.get(), 3);
//! ```

pub mod jsonv;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod span;
pub mod trace;

pub use metrics::{
    scope, scope_phase, snapshot, Counter, HistogramSnapshot, Series, Snapshot, TelemetryScope,
};
pub use report::{render_counters, render_profile, write_artifact};
pub use serve::{
    clear_ledger_source, render_prometheus, route_paths, set_ledger_source, IntrospectionServer,
};
pub use span::{
    profile_snapshot, publish_profile, published_profile, span, take_profile, ProfileNode,
    SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry collection on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry collection off (process-wide). Open spans keep timing
/// but close normally; new spans and counter updates are skipped.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True when telemetry collection is on.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears all collected state: counters, gauges, histograms, labeled
/// series, the calling thread's span profile and the trace recorder.
pub fn reset() {
    metrics::reset();
    span::reset();
    trace::reset();
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
