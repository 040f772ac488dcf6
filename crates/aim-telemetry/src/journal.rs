//! The event journal: a bounded ring buffer of structured advisor events.
//!
//! Events capture the *decisions* of the pipeline — which plan was chosen,
//! which candidates merged, which indexes were accepted, rejected, reverted
//! or garbage-collected, and what the clone-validation verdict was — so a
//! mis-tune can be reconstructed after the fact. The journal keeps the most
//! recent [`capacity`](set_capacity) events.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of decision an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The planner settled on an access path / join order for a query.
    PlanChosen,
    /// Partial orders were merged into wider composite candidates.
    CandidateMerged,
    /// An index passed validation and was materialized on production.
    IndexAccepted,
    /// A candidate was rejected (validation or materialization failure).
    IndexRejected,
    /// The continuous detector flagged a per-query regression.
    RegressionDetected,
    /// A recently-created automation index was dropped after a regression.
    IndexReverted,
    /// An automation index was garbage-collected as unused.
    IndexDropped,
    /// Clone validation finished a round or delivered its final verdict.
    ValidationVerdict,
    /// A tuning pass completed (summary).
    TuningPass,
    /// A pass was aborted (deadline, cancellation, an injected fault) and
    /// its partially materialized indexes were rolled back.
    PassAborted,
}

impl EventKind {
    /// Stable snake_case name used in JSON artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::PlanChosen => "plan_chosen",
            EventKind::CandidateMerged => "candidate_merged",
            EventKind::IndexAccepted => "index_accepted",
            EventKind::IndexRejected => "index_rejected",
            EventKind::RegressionDetected => "regression_detected",
            EventKind::IndexReverted => "index_reverted",
            EventKind::IndexDropped => "index_dropped",
            EventKind::ValidationVerdict => "validation_verdict",
            EventKind::TuningPass => "tuning_pass",
            EventKind::PassAborted => "pass_aborted",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Process-wide monotonic sequence number.
    pub seq: u64,
    pub kind: EventKind,
    /// What the event is about (index name, table, query fingerprint...).
    pub target: String,
    /// Human-readable specifics.
    pub detail: String,
}

const DEFAULT_CAPACITY: usize = 4096;

struct Journal {
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Default for Journal {
    fn default() -> Self {
        Self {
            ring: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        }
    }
}

static JOURNAL: Mutex<Option<Journal>> = Mutex::new(None);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn with_journal<R>(f: impl FnOnce(&mut Journal) -> R) -> R {
    let mut guard = JOURNAL.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Journal::default))
}

/// Records an event (no-op while telemetry is disabled). The event enters
/// the ring buffer, evicting the oldest entry when full.
pub fn event(kind: EventKind, target: impl Into<String>, detail: impl Into<String>) {
    if !crate::is_enabled() {
        return;
    }
    let e = Event {
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        kind,
        target: target.into(),
        detail: detail.into(),
    };
    let evicted = with_journal(|j| {
        let mut evicted = 0u64;
        while j.ring.len() >= j.capacity {
            j.ring.pop_front();
            j.dropped += 1;
            evicted += 1;
        }
        j.ring.push_back(e);
        evicted
    });
    if evicted > 0 {
        crate::metrics::JOURNAL_DROPPED.add(evicted);
    }
}

/// Snapshot of the journal's current contents, oldest first.
pub fn events() -> Vec<Event> {
    with_journal(|j| j.ring.iter().cloned().collect())
}

/// Number of events evicted from the ring so far.
pub fn dropped() -> u64 {
    with_journal(|j| j.dropped)
}

/// Changes the ring capacity (evicting immediately if shrinking).
pub fn set_capacity(capacity: usize) {
    let evicted = with_journal(|j| {
        j.capacity = capacity.max(1);
        let mut evicted = 0u64;
        while j.ring.len() > j.capacity {
            j.ring.pop_front();
            j.dropped += 1;
            evicted += 1;
        }
        evicted
    });
    if evicted > 0 {
        crate::metrics::JOURNAL_DROPPED.add(evicted);
    }
}

/// Clears the journal and its eviction count.
pub fn reset() {
    with_journal(|j| {
        let capacity = j.capacity;
        *j = Journal {
            capacity,
            ..Journal::default()
        };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_and_eviction() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        set_capacity(3);
        for i in 0..5 {
            event(EventKind::IndexAccepted, format!("ix{i}"), "");
        }
        crate::disable();
        let evs = events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].target, "ix2");
        assert_eq!(evs[2].target, "ix4");
        assert_eq!(dropped(), 2);
        // Evictions also surface on the journal_dropped counter so a
        // snapshot (or /metrics scrape) shows the loss without polling
        // `dropped()`.
        assert_eq!(
            crate::snapshot().counter("telemetry.journal_dropped"),
            Some(2)
        );
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq));
        set_capacity(DEFAULT_CAPACITY);
        crate::reset();
    }
}
