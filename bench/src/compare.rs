//! `aim-e2e compare A.json B.json`: B against A, one row per metric and
//! workload, judged by the bounds and directions `BENCHMARK.json` fixes.
//!
//! Each file is one report of `aim-e2e run` or a set of them,
//! `{"runs": [...]}`, as `bench/run.sh` writes.

use aim_telemetry::jsonv::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// A's own samples are spread so widely that its median is uncertain by
    /// more than the bound: the pair of runs cannot tell a change of that
    /// size from noise.
    Unresolved,
}

/// Judges `b` against `a` for a metric that may worsen by `bound` of `a`.
pub fn judge(a: f64, a_spread: f64, b: f64, lower_is_better: bool, bound: f64) -> Verdict {
    if a_spread > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { b - a } else { a - b } / a.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    crate::json::validate(&text).map_err(|e| format!("{path}: {e}"))
}

/// The reports of a file, keyed by workload and trace mode.
fn runs(doc: &Json) -> BTreeMap<(String, bool), &Json> {
    let list: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    };
    list.into_iter()
        .filter_map(|r| {
            let workload = r.get("workload")?.as_str()?.to_string();
            let trace = r.get("trace")?.as_f64()? != 0.0;
            Some(((workload, trace), r))
        })
        .collect()
}

fn number(run: &Json, path: &str) -> Option<f64> {
    run.path(path).and_then(Json::as_f64)
}

fn failed_share(run: &Json) -> f64 {
    number(run, "failed").unwrap_or(0.0) / number(run, "attempted").unwrap_or(1.0).max(1.0)
}

pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let benchmark = load("BENCHMARK.json")?;
    // name -> (lower is better, bound)
    let bounds: BTreeMap<&str, (bool, f64)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            let lower = m.get("better")?.as_str()? == "lower";
            Some((m.get("name")?.as_str()?, (lower, m.get("bound")?.as_f64()?)))
        })
        .collect();
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let (a_runs, b_runs) = (runs(&a_doc), runs(&b_doc));
    let mut ok = true;
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    println!(
        "{:<14} {:<38} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for ((workload, trace), a) in &a_runs {
        let Some(b) = b_runs.get(&(workload.clone(), *trace)) else {
            println!(
                "{workload:<14} (trace {}) is missing from {b_path}",
                u8::from(*trace)
            );
            ok = false;
            continue;
        };
        if failed_share(b) > failed_share(a) {
            println!(
                "{workload:<14} failed_share rose from {} to {}",
                failed_share(a),
                failed_share(b)
            );
            ok = false;
        }
        let Some(metrics) = a.get("metrics").and_then(Json::as_obj) else {
            continue;
        };
        for (name, am) in metrics {
            let (Some(av), Some(bv)) = (
                number(am, "value"),
                number(b, &format!("metrics/{name}/value")),
            ) else {
                continue;
            };
            let verdict = if let Some(&(lower, bound)) = bounds.get(name.as_str()) {
                // The quartiles are those of the run's samples; its median
                // is steadier than one sample by the root of their number.
                let n = number(am, "n").unwrap_or(1.0).max(1.0);
                let spread = match (number(am, "q1"), number(am, "q3")) {
                    (Some(q1), Some(q3)) if av != 0.0 => (q3 - q1) / av.abs() / n.sqrt(),
                    _ => 0.0,
                };
                let v = judge(av, spread, bv, lower, bound);
                ok &= v != Verdict::Regressed;
                match v {
                    Verdict::Improved => "improved",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            } else if am.get("exact").and_then(Json::as_bool) == Some(true) {
                // Per-layer metrics have no bound; a count either repeats or not.
                if av.to_bits() == bv.to_bits() {
                    "same"
                } else {
                    "changed"
                }
            } else {
                "-"
            };
            *counts.entry(verdict).or_default() += 1;
            let change = if av != 0.0 {
                (bv - av) / av.abs() * 100.0
            } else {
                0.0
            };
            println!("{workload:<14} {name:<38} {av:>16.6} {bv:>16.6} {change:>+7.1}%  {verdict}");
        }
    }
    println!("{counts:?}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Lower is better, bound 10 %.
        assert_eq!(judge(1.0, 0.02, 1.05, true, 0.1), Verdict::Unchanged);
        assert_eq!(judge(1.0, 0.02, 1.2, true, 0.1), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.02, 0.8, true, 0.1), Verdict::Improved);
        // Higher is better.
        assert_eq!(judge(100.0, 0.0, 80.0, false, 0.1), Verdict::Regressed);
        assert_eq!(judge(100.0, 0.0, 120.0, false, 0.1), Verdict::Improved);
        // A's own spread wider than the bound.
        assert_eq!(judge(1.0, 0.3, 2.0, true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn a_set_and_a_single_report_both_load() {
        let one = r#"{"workload": "w", "trace": 0, "attempted": 10, "failed": 1, "metrics": {}}"#;
        let set = format!(
            r#"{{"runs": [{one}, {}]}}"#,
            one.replace("\"trace\": 0", "\"trace\": 1")
        );
        let (one, set) = (
            crate::json::validate(one).unwrap(),
            crate::json::validate(&set).unwrap(),
        );
        assert_eq!(runs(&one).len(), 1);
        assert_eq!(runs(&set).len(), 2);
        assert_eq!(failed_share(runs(&one)[&("w".to_string(), false)]), 0.1);
    }
}
