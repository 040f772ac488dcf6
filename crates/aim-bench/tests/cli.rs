//! `aim_cli`, run as a process. `explain`: the JSON form keeps the
//! `ExplainPlan` contract its consumers parse, the text form names the
//! access path the planner chose. `continuous`: no file without a path.
//! `fleet --serve`: `/alerts` evaluates the rule the run registered.

use aim_telemetry::jsonv::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};

const SQL: &str = "SELECT id FROM orders WHERE customer_id = 7";

/// Runs `aim_cli explain ARGS demo SQL` and returns its stdout.
fn explain(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_aim_cli"))
        .arg("explain")
        .args(args)
        .args(["demo", SQL])
        .output()
        .expect("aim_cli starts");
    assert!(
        out.status.success(),
        "aim_cli explain {args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("explain output is UTF-8")
}

#[test]
fn explain_json_keeps_the_explain_plan_contract() {
    let text = explain(&["--json"]);
    let doc = jsonv::parse(text.trim()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let nodes = doc
        .path("nodes")
        .and_then(Json::as_arr)
        .expect("nodes array");
    assert!(!nodes.is_empty(), "explain has no plan nodes");
    for node in nodes {
        for key in ["step", "binding", "table", "est_rows", "est_cost"] {
            assert!(node.path(key).is_some(), "node missing {key}: {text}");
        }
        let alts = node
            .path("alternatives")
            .and_then(Json::as_arr)
            .expect("node has an alternatives array");
        assert!(!alts.is_empty(), "node has no alternatives");
        let chosen: Vec<&Json> = alts
            .iter()
            .filter(|a| a.path("chosen").and_then(Json::as_bool) == Some(true))
            .collect();
        assert_eq!(
            chosen.len(),
            1,
            "exactly one chosen alternative per node: {text}"
        );
        assert!(
            chosen[0].path("est_cost").and_then(Json::as_f64).is_some(),
            "the chosen alternative must be priced: {text}"
        );
        for a in alts {
            assert!(
                a.path("access").and_then(Json::as_str).is_some(),
                "alternative missing access"
            );
            assert!(
                a.path("reason").and_then(Json::as_str).is_some(),
                "alternative missing reason"
            );
        }
    }
    for key in ["est_cost", "est_rows", "order_via_index", "group_via_index"] {
        assert!(doc.path(key).is_some(), "plan missing {key}: {text}");
    }
}

#[test]
fn explain_text_names_the_chosen_access() {
    let text = explain(&[]);
    assert!(
        text.lines()
            .any(|l| l.trim_start().starts_with("chosen") && l.contains("full scan")),
        "an untuned demo database scans orders in full:\n{text}"
    );
}

/// `aim_cli continuous` writes an artifact where a path is passed and
/// nothing otherwise: run in an empty directory, it leaves it empty.
#[test]
fn continuous_writes_artifacts_only_where_a_path_is_given() {
    let dir = std::env::temp_dir().join(format!("aim_cli_continuous_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_aim_cli"))
            .current_dir(&dir)
            .args(["continuous", "demo", "--windows", "2"])
            .args(extra)
            .output()
            .expect("aim_cli starts");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("UTF-8")
    };
    let files = || std::fs::read_dir(&dir).expect("readable").count();

    let text = run(&[]);
    assert!(text.contains("window 1: created 1, rejected 0, reverted 0, dropped 0\n"), "{text}");
    assert!(text.contains("decision ledger: 1 records over 2 passes"), "{text}");
    assert_eq!(files(), 0, "a run without a path wrote a file");

    run(&["--ledger-out", "ledger.json", "--telemetry-out", "telemetry.json"]);
    assert_eq!(files(), 2);
    let ledger = std::fs::read_to_string(dir.join("ledger.json")).expect("ledger written");
    jsonv::parse(&ledger).unwrap_or_else(|e| panic!("{e}:\n{ledger}"));
    std::fs::remove_dir_all(&dir).expect("scratch directory removed");
}

/// `aim_cli fleet --serve` registers its per-tenant select-cost SLO and
/// serves its evaluation at `/alerts` until stdin closes.
#[test]
fn fleet_serves_alerts_for_the_rule_it_registers() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aim_cli"))
        .args(["fleet", "--tenants", "2", "--workers", "1", "--serve", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("aim_cli starts");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let mut seen = String::new();
    let addr = lines
        .by_ref()
        .map(|l| l.expect("UTF-8"))
        .inspect(|l| seen.push_str(&format!("{l}\n")))
        .find_map(|l| {
            let rest = l.strip_prefix("endpoint still serving on http://")?;
            Some(rest.split(';').next()?.to_string())
        })
        .unwrap_or_else(|| panic!("the run never held its endpoint open:\n{seen}"));
    assert!(seen.contains("fleet: 2/2 tuned"), "{seen}");

    let mut conn = std::net::TcpStream::connect(&addr).expect("endpoint accepts");
    conn.write_all(b"GET /alerts HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .expect("request sent");
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("response read");
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let doc = jsonv::parse(body).unwrap_or_else(|e| panic!("{e}:\n{body}"));
    let rules = doc.path("rules").and_then(Json::as_arr).expect("rules array");
    assert!(
        rules
            .iter()
            .any(|r| r.path("name").and_then(Json::as_str) == Some("fleet-select-p99")),
        "{body}"
    );
    assert!(doc.path("alerts").and_then(Json::as_arr).is_some(), "{body}");

    drop(child.stdin.take());
    assert!(child.wait().expect("aim_cli exits").success());
}
