//! Rendering and JSON artifacts.
//!
//! [`render_profile`] pretty-prints a span tree with per-phase wall time,
//! call counts and percent-of-parent; [`render_counters`] tabulates a
//! metrics snapshot; [`write_artifact`] dumps the full telemetry state
//! (counters, gauges, histograms, profile, journal) as one JSON document —
//! the machine-readable artifact the bench binaries drop into `results/`.
//!
//! JSON is emitted by hand (this crate takes no dependencies); the format
//! is plain nested objects, stable enough to diff across runs.

use crate::journal::Event;
use crate::metrics::Snapshot;
use crate::span::ProfileNode;
use std::fmt::Write as _;
use std::path::Path;

/// Escapes a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// One event as a JSON object (also the JSON-lines sink format).
pub fn event_json(e: &Event) -> String {
    format!(
        "{{\"seq\":{},\"kind\":\"{}\",\"target\":\"{}\",\"detail\":\"{}\"}}",
        e.seq,
        e.kind.as_str(),
        json_escape(&e.target),
        json_escape(&e.detail)
    )
}

pub(crate) fn profile_node_json(node: &ProfileNode, out: &mut String) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"count\":{},\"total_ms\":{:.3},\"children\":[",
        json_escape(&node.name),
        node.count,
        node.total.as_secs_f64() * 1e3
    );
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        profile_node_json(c, out);
    }
    out.push_str("]}");
}

fn snapshot_json(s: &Snapshot, out: &mut String) {
    out.push_str("\"counters\":{");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(&name.to_string()), v);
    }
    out.push_str("},\"gauges\":{");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{}", json_escape(&name.to_string()), v);
    }
    out.push_str("},\"histograms\":{");
    for (i, (name, h)) in s.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"count\":{},\"sum\":{:.3},\"min\":{:.3},\"max\":{:.3},\
             \"p50\":{:.3},\"p90\":{:.3},\"p99\":{:.3},\"buckets\":[",
            json_escape(&name.to_string()),
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50,
            h.p90,
            h.p99
        );
        for (j, (ub, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{ub},{c}]");
        }
        out.push_str("]}");
    }
    out.push('}');
}

/// The full telemetry state as one JSON document.
pub fn artifact_json(label: &str) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"label\":\"{}\",", json_escape(label));
    snapshot_json(&crate::metrics::snapshot(), &mut out);
    out.push_str(",\"profile\":[");
    let profile = crate::span::profile_snapshot();
    for (i, c) in profile.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        profile_node_json(c, &mut out);
    }
    out.push_str("],\"events\":[");
    for (i, e) in crate::journal::events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&event_json(e));
    }
    let _ = write!(out, "],\"events_dropped\":{},", crate::journal::dropped());
    out.push_str("\"timeseries\":");
    out.push_str(&crate::timeseries::to_json(usize::MAX));
    out.push('}');
    out
}

/// Writes [`artifact_json`] to `path`, creating parent directories.
pub fn write_artifact(path: impl AsRef<Path>, label: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, artifact_json(label))
}

fn render_node(node: &ProfileNode, parent_total: f64, prefix: &str, last: bool, out: &mut String) {
    let ms = node.total.as_secs_f64() * 1e3;
    let pct = if parent_total > 0.0 {
        ms / parent_total * 100.0
    } else {
        100.0
    };
    let branch = if prefix.is_empty() {
        String::new()
    } else {
        format!("{prefix}{}", if last { "└─ " } else { "├─ " })
    };
    let label = format!("{branch}{}", node.name);
    let _ = writeln!(out, "{label:<44} {ms:>10.3} ms  ×{:<6} {pct:>5.1}%", node.count);
    let child_prefix = if prefix.is_empty() {
        "  ".to_string()
    } else {
        format!("{prefix}{}", if last { "   " } else { "│  " })
    };
    for (i, c) in node.children.iter().enumerate() {
        render_node(c, ms, &child_prefix, i + 1 == node.children.len(), out);
    }
    // Wall time not covered by child spans, when material.
    let covered: f64 = node.children.iter().map(|c| c.total.as_secs_f64() * 1e3).sum();
    if !node.children.is_empty() && ms - covered > ms * 0.01 {
        let _ = writeln!(
            out,
            "{child_prefix}(untracked){:>width$.3} ms        {:>5.1}%",
            ms - covered,
            (ms - covered) / ms * 100.0,
            width = 54usize.saturating_sub(child_prefix.len() + 11)
        );
    }
}

/// Pretty-prints the span tree of a profile root (as returned by
/// [`crate::take_profile`]).
pub fn render_profile(profile: &ProfileNode) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>13}  {:<7} {:>6}",
        "phase", "wall time", "calls", "of parent"
    );
    for (i, c) in profile.children.iter().enumerate() {
        render_node(c, 0.0, "", i + 1 == profile.children.len(), &mut out);
    }
    out
}

/// Tabulates the non-zero instruments of a snapshot. Telemetry health
/// meters are rendered even at zero: a report must show that the journal
/// lost nothing and how much windowing/stitching happened, not silently
/// omit them.
pub fn render_counters(s: &Snapshot) -> String {
    const ALWAYS: &[&str] = &[
        "telemetry.journal_dropped",
        "telemetry.series_dropped",
        "timeseries.windows",
        "trace.spans_stitched",
    ];
    let mut out = String::new();
    for (series, v) in &s.counters {
        if *v > 0 || ALWAYS.iter().any(|name| series.is_bare(name)) {
            let _ = writeln!(out, "{:<36} {v:>14}", series.to_string());
        }
    }
    for (series, v) in &s.gauges {
        let _ = writeln!(out, "{:<36} {v:>14}  (gauge)", series.to_string());
    }
    for (series, h) in &s.histograms {
        let _ = writeln!(
            out,
            "{:<36} {:>14}  (histogram: mean {:.1}, p50 {:.1}, p90 {:.1}, \
             p99 {:.1}, min {:.1}, max {:.1})",
            series.to_string(),
            h.count,
            if h.count > 0 { h.sum / h.count as f64 } else { 0.0 },
            h.p50,
            h.p90,
            h.p99,
            h.min,
            h.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn artifact_is_valid_enough_json() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        crate::metrics::WHATIF_CALLS.add(2);
        crate::metrics::histogram_record("h", 10.0);
        {
            let _s = crate::span("root");
            let _c = crate::span("child");
        }
        crate::journal::event(crate::EventKind::TuningPass, "pass", "ok");
        crate::disable();
        let json = artifact_json("test");
        // Structural sanity: balanced braces/brackets, expected keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in ["\"label\":\"test\"", "\"counters\"", "\"profile\"", "\"events\"", "\"root\"", "\"tuning_pass\""] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        crate::reset();
    }

    #[test]
    fn render_profile_shows_tree_and_percentages() {
        let tree = ProfileNode {
            name: String::new(),
            count: 0,
            total: Duration::ZERO,
            children: vec![ProfileNode {
                name: "tune".into(),
                count: 1,
                total: Duration::from_millis(100),
                children: vec![
                    ProfileNode {
                        name: "ranking".into(),
                        count: 40,
                        total: Duration::from_millis(60),
                        children: Vec::new(),
                    },
                    ProfileNode {
                        name: "validation".into(),
                        count: 1,
                        total: Duration::from_millis(39),
                        children: Vec::new(),
                    },
                ],
            }],
        };
        let text = render_profile(&tree);
        assert!(text.contains("tune"));
        assert!(text.contains("├─ ranking"));
        assert!(text.contains("└─ validation"));
        assert!(text.contains("×40"));
        assert!(text.contains("60.0%"));
    }

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
