//! The decision ledger: a queryable audit trail of every candidate's
//! lifecycle through the tuning pipeline.
//!
//! The paper's operators must be able to answer "why did AIM (not) build
//! this index?" after the fact (§VII). The ledger records, per candidate
//! and per pass, the full chain of decisions:
//!
//! * **generated** — which normalized queries contributed partial orders
//!   (a candidate merged from several queries lists all of them),
//! * **already_served** — dropped because an existing index covers it,
//! * **ranked** — benefit, maintenance, net utility and size estimate,
//! * **knapsack_accepted / knapsack_rejected** — the budget math: bytes
//!   remaining before the decision, bytes reclaimed by absorbing prefix
//!   indexes, bytes remaining after,
//! * **validation_accepted / validation_rejected / validation_skipped** —
//!   the clone-replay verdict,
//! * **materialized / build_rejected / rolled_back** — what actually
//!   happened on production, and
//! * **reverted / dropped_unused** — post-pass removals by the continuous
//!   tuner (regression implication, unused-index GC).
//!
//! Recording is **off by default** (`AimConfig::record_ledger`, builder
//! method [`ledger`](crate::session::AimConfigBuilder::ledger)); when off,
//! the tuning hot path performs a single bool check per phase. The ledger
//! is queryable via
//! [`TuningSession::ledger`](crate::session::TuningSession::ledger) and
//! serializable as the `results/decision_ledger.json` artifact
//! ([`DecisionLedger::to_json`] / [`DecisionLedger::write_json`]).

use crate::candidates::CandidateIndex;
use aim_telemetry::report::json_escape;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;

/// One step in a candidate's lifecycle. The `stage` doubles as the
/// verdict (`knapsack_rejected`, `materialized`, ...); `detail` carries
/// the human-readable arithmetic behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEvent {
    pub stage: String,
    pub detail: String,
}

/// The lifecycle record of one candidate index within one tuning pass
/// (post-pass events — revert, GC — append to the candidate's most recent
/// record).
#[derive(Debug, Clone)]
pub struct CandidateRecord {
    /// 1-based pass number within this ledger.
    pub pass: u64,
    /// Index name (`aim_<table>_<cols>`).
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    /// Normalized fingerprints of the queries whose partial orders
    /// produced (or merged into) this candidate.
    pub sources: Vec<String>,
    /// Economics at ranking time (after any sharding re-pricing).
    pub benefit: Option<f64>,
    pub maintenance: Option<f64>,
    pub size_bytes: Option<u64>,
    /// Ordered lifecycle events.
    pub events: Vec<LedgerEvent>,
}

impl CandidateRecord {
    fn new(pass: u64, name: String, table: String, columns: Vec<String>) -> Self {
        Self {
            pass,
            name,
            table,
            columns,
            sources: Vec::new(),
            benefit: None,
            maintenance: None,
            size_bytes: None,
            events: Vec::new(),
        }
    }

    /// Net utility at ranking time, when ranked.
    pub fn utility(&self) -> Option<f64> {
        Some(self.benefit? - self.maintenance?)
    }

    /// The candidate's terminal disposition: the stage of its last event.
    pub fn outcome(&self) -> &str {
        self.events.last().map_or("generated", |e| e.stage.as_str())
    }

    /// The stages this record went through, in order.
    pub fn stages(&self) -> Vec<&str> {
        self.events.iter().map(|e| e.stage.as_str()).collect()
    }

    fn json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"pass\":{},\"name\":\"{}\",\"table\":\"{}\",\"columns\":[",
            self.pass,
            json_escape(&self.name),
            json_escape(&self.table)
        );
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(c));
        }
        out.push_str("],\"sources\":[");
        for (i, s) in self.sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        out.push_str("],");
        match (self.benefit, self.maintenance) {
            (Some(b), Some(m)) => {
                let _ = write!(
                    out,
                    "\"benefit\":{b:.3},\"maintenance\":{m:.3},\"utility\":{:.3},",
                    b - m
                );
            }
            _ => out.push_str("\"benefit\":null,\"maintenance\":null,\"utility\":null,"),
        }
        match self.size_bytes {
            Some(s) => {
                let _ = write!(out, "\"size_bytes\":{s},");
            }
            None => out.push_str("\"size_bytes\":null,"),
        }
        let _ = write!(out, "\"outcome\":\"{}\",\"events\":[", json_escape(self.outcome()));
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&e.stage),
                json_escape(&e.detail)
            );
        }
        out.push_str("]}");
    }
}

/// The accumulated decision trail of a session (possibly many passes).
#[derive(Debug, Clone, Default)]
pub struct DecisionLedger {
    /// Number of passes recorded so far.
    pub passes: u64,
    records: Vec<CandidateRecord>,
}

impl DecisionLedger {
    /// Opens a new pass; subsequent [`DecisionLedger::note`] calls with
    /// the returned pass number group under it.
    pub fn begin_pass(&mut self) -> u64 {
        self.passes += 1;
        self.passes
    }

    /// All records, in pass order then first-seen order.
    pub fn records(&self) -> &[CandidateRecord] {
        &self.records
    }

    /// The most recent record for `name`, across passes.
    pub fn find(&self, name: &str) -> Option<&CandidateRecord> {
        self.records.iter().rev().find(|r| r.name == name)
    }

    /// Number of candidate records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn entry(
        &mut self,
        pass: u64,
        name: &str,
        table: &str,
        columns: &[String],
    ) -> &mut CandidateRecord {
        let idx = match self
            .records
            .iter()
            .position(|r| r.pass == pass && r.name == name)
        {
            Some(i) => i,
            None => {
                self.records.push(CandidateRecord::new(
                    pass,
                    name.to_string(),
                    table.to_string(),
                    columns.to_vec(),
                ));
                self.records.len() - 1
            }
        };
        &mut self.records[idx]
    }

    /// Registers a candidate at generation time with its source queries.
    pub fn observe(
        &mut self,
        pass: u64,
        name: &str,
        table: &str,
        columns: &[String],
        sources: Vec<String>,
        detail: String,
    ) {
        let rec = self.entry(pass, name, table, columns);
        rec.sources = sources;
        rec.events.push(LedgerEvent {
            stage: "generated".to_string(),
            detail,
        });
    }

    /// Appends a lifecycle event to the candidate's record in `pass`,
    /// creating a minimal record when the candidate was not yet observed.
    pub fn note(
        &mut self,
        pass: u64,
        name: &str,
        table: &str,
        columns: &[String],
        stage: &str,
        detail: String,
    ) {
        let rec = self.entry(pass, name, table, columns);
        rec.events.push(LedgerEvent {
            stage: stage.to_string(),
            detail,
        });
    }

    /// Records ranking economics on the candidate's record. The tuple is
    /// `(benefit, maintenance, size_bytes)` as produced by the ranker.
    pub fn note_ranked(
        &mut self,
        pass: u64,
        name: &str,
        table: &str,
        columns: &[String],
        (benefit, maintenance, size_bytes): (f64, f64, u64),
    ) {
        let rec = self.entry(pass, name, table, columns);
        rec.benefit = Some(benefit);
        rec.maintenance = Some(maintenance);
        rec.size_bytes = Some(size_bytes);
        rec.events.push(LedgerEvent {
            stage: "ranked".to_string(),
            detail: format!(
                "benefit {benefit:.1}, maintenance {maintenance:.1}, net utility {:.1}, \
                 size {size_bytes} bytes, density {:.6}/byte",
                benefit - maintenance,
                (benefit - maintenance) / size_bytes.max(1) as f64
            ),
        });
    }

    /// Appends an event to the candidate's *most recent* record across
    /// passes — the path for post-pass removals (regression reverts,
    /// unused-index GC) that refer to an index created earlier. Unknown
    /// names get a fresh record in the current pass so the removal is
    /// never lost.
    pub fn annotate_latest(&mut self, name: &str, table: &str, stage: &str, detail: String) {
        let ev = LedgerEvent {
            stage: stage.to_string(),
            detail,
        };
        if let Some(rec) = self.records.iter_mut().rev().find(|r| r.name == name) {
            rec.events.push(ev);
        } else {
            let pass = self.passes;
            self.records
                .push(CandidateRecord::new(pass, name.to_string(), table.to_string(), Vec::new()));
            self.records.last_mut().expect("just pushed").events.push(ev);
        }
    }

    /// The ledger as one JSON document (hand-emitted; same conventions as
    /// the telemetry artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"passes\":{},\"records\":[", self.passes);
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            r.json(&mut out);
        }
        out.push_str("]}");
        out
    }

    /// Writes [`DecisionLedger::to_json`] to `path`, creating parent
    /// directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Where a pass reports what it decided about each candidate: one pass of
/// a shared [`DecisionLedger`], or nowhere. Stages report unconditionally;
/// with nobody listening a report costs one branch and its detail text is
/// never built, which keeps the ledger-off pipeline allocation-free.
pub(crate) struct Decisions<'a> {
    sink: Option<(&'a Mutex<DecisionLedger>, u64)>,
}

impl<'a> Decisions<'a> {
    /// A sink that drops everything: the fleet probe, the advisor, and
    /// sessions built without [`ledger`](crate::session::AimConfigBuilder::ledger).
    pub(crate) fn none() -> Self {
        Self { sink: None }
    }

    /// Opens the next pass of `ledger`.
    pub(crate) fn begin(ledger: &'a Mutex<DecisionLedger>) -> Self {
        let pass = ledger.lock().unwrap_or_else(|e| e.into_inner()).begin_pass();
        Self { sink: Some((ledger, pass)) }
    }

    pub(crate) fn recording(&self) -> bool {
        self.sink.is_some()
    }

    /// Hands the ledger and the pass number to `f` when someone listens.
    pub(crate) fn record(&self, f: impl FnOnce(&mut DecisionLedger, u64)) {
        if let Some((ledger, pass)) = self.sink {
            f(&mut ledger.lock().unwrap_or_else(|e| e.into_inner()), pass);
        }
    }

    /// Appends `stage` to `candidate`'s record of this pass.
    pub(crate) fn note(
        &self,
        candidate: &CandidateIndex,
        stage: &str,
        detail: impl FnOnce() -> String,
    ) {
        self.record(|l, pass| {
            l.note(pass, &candidate.name(), &candidate.table, &candidate.columns, stage, detail())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lifecycle_accumulates_on_one_record() {
        let mut l = DecisionLedger::default();
        let p = l.begin_pass();
        assert_eq!(p, 1);
        l.observe(p, "aim_t_a", "t", &cols(&["a"]), vec!["q1".into(), "q2".into()],
                  "merged from 2 queries".into());
        l.note_ranked(p, "aim_t_a", "t", &cols(&["a"]), (100.0, 10.0, 4096));
        l.note(p, "aim_t_a", "t", &cols(&["a"]), "knapsack_accepted",
               "fits: 4096 <= 8192 remaining".into());
        l.note(p, "aim_t_a", "t", &cols(&["a"]), "materialized", "built".into());

        assert_eq!(l.len(), 1);
        let rec = l.find("aim_t_a").unwrap();
        assert_eq!(rec.sources, vec!["q1", "q2"]);
        assert_eq!(rec.utility(), Some(90.0));
        assert_eq!(rec.outcome(), "materialized");
        assert_eq!(rec.stages(), vec!["generated", "ranked", "knapsack_accepted", "materialized"]);
    }

    #[test]
    fn annotate_latest_attaches_to_newest_record() {
        let mut l = DecisionLedger::default();
        let p1 = l.begin_pass();
        l.note(p1, "aim_t_a", "t", &cols(&["a"]), "materialized", "built".into());
        let p2 = l.begin_pass();
        l.note(p2, "aim_t_a", "t", &cols(&["a"]), "materialized", "rebuilt".into());
        l.annotate_latest("aim_t_a", "t", "reverted", "regression".into());
        assert_eq!(l.len(), 2);
        assert_eq!(l.records()[0].outcome(), "materialized");
        assert_eq!(l.records()[1].outcome(), "reverted");

        // Unknown names still land somewhere visible.
        l.annotate_latest("aim_t_zzz", "t", "dropped_unused", "gc".into());
        assert_eq!(l.find("aim_t_zzz").unwrap().outcome(), "dropped_unused");
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let mut l = DecisionLedger::default();
        let p = l.begin_pass();
        l.observe(p, "aim_t_a", "t", &cols(&["a", "b"]), vec!["q\"1".into()],
                  "merged".into());
        l.note_ranked(p, "aim_t_a", "t", &cols(&["a", "b"]), (50.0, 5.0, 1024));
        l.note(p, "aim_t_a", "t", &cols(&["a", "b"]), "knapsack_rejected",
               "does not fit: needs 1024, 100 remaining".into());

        let doc = aim_telemetry::jsonv::parse(&l.to_json()).expect("ledger JSON parses");
        assert_eq!(doc.path("passes").and_then(|v| v.as_f64()), Some(1.0));
        let recs = doc.path("records").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.path("name").and_then(|v| v.as_str()), Some("aim_t_a"));
        assert_eq!(r.path("utility").and_then(|v| v.as_f64()), Some(45.0));
        assert_eq!(r.path("size_bytes").and_then(|v| v.as_f64()), Some(1024.0));
        assert_eq!(r.path("outcome").and_then(|v| v.as_str()), Some("knapsack_rejected"));
        assert_eq!(r.path("sources").and_then(|v| v.as_arr()).unwrap().len(), 1);
        assert_eq!(r.path("events").and_then(|v| v.as_arr()).unwrap().len(), 3);
    }

    #[test]
    fn unranked_record_serializes_nulls() {
        let mut l = DecisionLedger::default();
        let p = l.begin_pass();
        l.note(p, "aim_t_a", "t", &cols(&["a"]), "already_served",
               "existing index ix covers it".into());
        let doc = aim_telemetry::jsonv::parse(&l.to_json()).unwrap();
        let r = &doc.path("records").and_then(|v| v.as_arr()).unwrap()[0];
        assert!(matches!(r.path("utility"), Some(aim_telemetry::jsonv::Json::Null)));
        assert!(matches!(r.path("size_bytes"), Some(aim_telemetry::jsonv::Json::Null)));
    }
}
