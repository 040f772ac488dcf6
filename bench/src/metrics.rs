//! The metrics a run reports. `BENCHMARK.json` lists the same names, units
//! and directions; a test keeps the two in step.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count or a ratio of counts: the same inputs give the same value to
    /// the last bit, whatever the machine or the number of iterations.
    pub exact: bool,
}

const fn measured(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Reported by the untraced run of every workload.
pub const END_TO_END: &[Def] = &[
    measured("setup_s", "s", Lower),
    measured("pass_s", "s", Lower),
    exact("cost_ratio", "ratio", Lower),
    measured("replay_stmts_per_s", "1/s", Higher),
    measured("ingest_stmts_per_s", "1/s", Higher),
    measured("peak_rss_mb", "MiB", Lower),
];

/// Reported by the traced run of every workload.
pub const PER_LAYER: &[Def] = &[
    // aim-sql and aim-monitor on the serving path, per ingest batch.
    measured("sql.lex_s", "s", Lower),
    measured("sql.parse_s", "s", Lower),
    measured("sql.normalize_s", "s", Lower),
    exact("sql.stmts", "count", Higher),
    measured("monitor.record_s", "s", Lower),
    exact("monitor.records", "count", Higher),
    exact("monitor.templates", "count", Higher),
    exact("monitor.first_sight_share", "ratio", Lower),
    // The stages of one pass, per pass.
    measured("monitor.select_workload_s", "s", Lower),
    exact("monitor.selected_queries", "count", Higher),
    measured("candidates.generate_s", "s", Lower),
    exact("candidates.generated", "count", Lower),
    measured("ranking.rank_s", "s", Lower),
    exact("ranking.ranked", "count", Lower),
    measured("ranking.knapsack_s", "s", Lower),
    exact("ranking.chosen", "count", Higher),
    exact("ranking.chosen_bytes", "B", Lower),
    exact("whatif.calls", "count", Lower),
    exact("whatif.hits", "count", Higher),
    exact("whatif.hit_rate", "ratio", Higher),
    measured("session.materialize_s", "s", Lower),
    exact("session.indexes_created", "count", Higher),
    measured("validate.validate_s", "s", Lower),
    exact("validate.accepted", "count", Higher),
    exact("validate.rejected", "count", Lower),
    measured("storage.clone_s", "s", Lower),
    measured("storage.create_index_s", "s", Lower),
    measured("storage.analyze_s", "s", Lower),
    exact("storage.index_bytes_built", "B", Lower),
    measured("session.pass_wall_s", "s", Lower),
    measured("session.unattributed_s", "s", Lower),
    measured("telemetry.armed_overhead_pct", "%", Lower),
    measured("telemetry.trace_overhead_pct", "%", Lower),
    // aim-exec during replay on the tuned database.
    measured("exec.execute_s", "s", Lower),
    measured("exec.stmts", "count", Higher),
    measured("exec.stmt_p50_us", "us", Lower),
    measured("exec.stmt_p99_us", "us", Lower),
    measured("exec.read_stmts_per_s", "1/s", Higher),
    measured("exec.write_stmts_per_s", "1/s", Higher),
    exact("exec.rows_read_per_row_sent", "ratio", Lower),
    // aim-storage; every counter below is zero off the disk backend.
    measured("storage.load_s", "s", Lower),
    measured("load_rows_per_s", "1/s", Higher),
    exact("storage.wal_bytes", "B", Lower),
    exact("storage.wal_fsyncs", "count", Lower),
    exact("storage.wal_bytes_per_write_stmt_pre", "B", Lower),
    exact("storage.wal_bytes_per_write_stmt_post", "B", Lower),
    exact("storage.pages_read", "count", Lower),
    exact("storage.pages_written", "count", Lower),
    exact("storage.bp_hit_rate", "ratio", Higher),
    exact("storage.bp_evictions", "count", Lower),
    exact("storage.checkpoints", "count", Lower),
    measured("storage.checkpoint_s", "s", Lower),
    measured("storage.recovery_s", "s", Lower),
    exact("storage.recovered_records", "count", Lower),
    exact("wal_bytes_per_row", "B", Lower),
    exact("fsyncs_per_commit", "ratio", Lower),
    exact("bytes_stored_per_user_byte", "ratio", Lower),
    exact("failed_share", "ratio", Lower),
];

pub fn defs(trace: bool) -> &'static [Def] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The calibration kernel's seconds at reference speed: what it takes on the
/// builder's two-core box in a quiet minute.
pub const REFERENCE_KERNEL_S: f64 = 0.025;

impl Def {
    /// `value` at reference speed, given how many times slower than the
    /// reference the machine ran: durations shrink by `slowdown`, rates grow
    /// by it, counts, ratios, bytes and percentages stay.
    pub fn at_reference_speed(&self, value: f64, slowdown: f64) -> f64 {
        match self.unit {
            "s" | "us" => value / slowdown,
            "1/s" => value * slowdown,
            _ => value,
        }
    }
}

/// One metric of a report: its summary at reference speed and the median as
/// the clock gave it.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub def: Def,
    pub summary: Summary,
    pub raw: f64,
}

/// Samples collected during a run, by metric name.
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.by_name.entry(name).or_default().extend(values);
    }

    /// Replaces whatever was collected for `name` by one value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.by_name.insert(name, vec![value]);
    }

    /// Each metric of `defs`, scaled to reference speed by `slowdown` (set-up
    /// time by `setup_slowdown`); a metric nothing was collected for is a
    /// harness bug and is named in the error.
    pub fn report(
        &self,
        defs: &[Def],
        slowdown: f64,
        setup_slowdown: f64,
    ) -> Result<Vec<Reported>, String> {
        defs.iter()
            .map(|d| match self.by_name.get(d.name) {
                Some(v) if !v.is_empty() => {
                    let raw = summarize(v);
                    let by = if d.name == "setup_s" {
                        setup_slowdown
                    } else {
                        slowdown
                    };
                    // A rate's quartiles swap places with nothing; scaling is monotone.
                    let at = |x: f64| d.at_reference_speed(x, by);
                    Ok(Reported {
                        def: *d,
                        summary: Summary {
                            median: at(raw.median),
                            q1: at(raw.q1),
                            q3: at(raw.q3),
                            n: raw.n,
                        },
                        raw: raw.median,
                    })
                }
                _ => Err(format!("metric {} was not measured", d.name)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_telemetry::jsonv::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = crate::json::validate(&text).expect("valid JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (l, d) in listed.iter().zip(defs) {
                assert_eq!(l.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(l.get("unit").and_then(Json::as_str), Some(d.unit));
                assert_eq!(
                    l.get("better").and_then(Json::as_str),
                    Some(d.better.label())
                );
            }
        }
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn an_unmeasured_metric_is_an_error() {
        let mut s = Samples::default();
        s.push("setup_s", 1.0);
        s.extend("setup_s", [3.0, 2.0]);
        let setup = s.report(&END_TO_END[..1], 1.0, 2.0).unwrap()[0];
        assert_eq!((setup.raw, setup.summary.median), (2.0, 1.0));
        assert!(s
            .report(&END_TO_END[..2], 1.0, 1.0)
            .unwrap_err()
            .contains("pass_s"));
        s.set("setup_s", 9.0);
        assert_eq!(s.report(&END_TO_END[..1], 1.0, 1.0).unwrap()[0].raw, 9.0);
    }

    #[test]
    fn only_times_and_rates_scale_with_the_machine() {
        let by_name = |n: &str| {
            *END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|d| d.name == n)
                .unwrap()
        };
        assert_eq!(by_name("pass_s").at_reference_speed(1.2, 1.2), 1.0);
        assert_eq!(
            by_name("exec.stmt_p50_us").at_reference_speed(30.0, 1.5),
            20.0
        );
        assert_eq!(
            by_name("replay_stmts_per_s").at_reference_speed(100.0, 1.25),
            125.0
        );
        for n in [
            "cost_ratio",
            "peak_rss_mb",
            "whatif.calls",
            "telemetry.armed_overhead_pct",
            "storage.wal_bytes",
        ] {
            assert_eq!(by_name(n).at_reference_speed(7.0, 1.5), 7.0, "{n}");
        }
    }
}
