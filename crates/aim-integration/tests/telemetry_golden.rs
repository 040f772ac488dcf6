//! Differential oracle for what telemetry serves: one fixed single-thread
//! script of observations, rendered through every output edge and compared
//! against a committed file instead of against a second implementation.
//!
//! The script covers a builtin and an ad-hoc counter, a gauge and a
//! histogram, each written unscoped, under `scope("acme")`, under the
//! nested `scope_phase("acme", "probe")` and under a second tenant; the
//! three explicit `*_labeled` calls, on names of their own; a hostile label
//! value; and a series cap with two tenants past it. The file holds the
//! Prometheus exposition, the metrics section of the artifact JSON and the
//! `/fleet` body.
//! Histogram observations are dyadic, so every `sum` is exact whatever the
//! order of addition.
//!
//! Regenerate intentionally with
//! `BLESS=1 cargo test -p aim-integration --test telemetry_golden`.

mod common;

use aim_telemetry as tel;
use std::io::{Read, Write};
use tel::metrics::{
    counter_add, counter_add_labeled, gauge_set, histogram_record, histogram_record_labeled,
    set_series_cap, FLEET_SHARDS_TUNED, WHATIF_CALLS,
};

/// One observation through each of the four scoped entry points, plus the
/// instruments the `/fleet` rollup reads.
fn observe(k: u64) {
    WHATIF_CALLS.add(k);
    counter_add("gold.hits", 2 * k);
    gauge_set("db.index_bytes", 10 + k as i64);
    histogram_record("gold.cost", k as f64 * 0.5);
    histogram_record("gold.cost", k as f64 * 64.0);
}

fn fleet_observe(k: u64) {
    FLEET_SHARDS_TUNED.add(k);
    gauge_set("fleet.budget_granted_bytes", 4096 * k as i64);
    gauge_set("fleet.budget_used_bytes", 1024 * k as i64);
    histogram_record("fleet.tenant_duration", 8.0 * k as f64);
    histogram_record("exec.select_cost", 32.0 * k as f64);
}

/// Puts one entry per line so a change shows as the lines it touches:
/// breaks after every `,` and opening bracket down to `depth` levels.
fn reflow(json: &str, depth: usize) -> String {
    let mut out = String::new();
    let (mut level, mut in_string, mut escaped) = (0usize, false, false);
    for c in json.chars() {
        out.push(c);
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => level += 1,
            '}' | ']' => level -= 1,
            _ => {}
        }
        if matches!(c, ',' | '{' | '[') && level <= depth {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    }
    out
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let (head, body) = response.split_once("\r\n\r\n").expect("full response");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

#[test]
fn served_telemetry_matches_golden() {
    tel::reset();
    tel::enable();

    observe(1);
    {
        let _acme = tel::scope("acme");
        observe(2);
        fleet_observe(1);
        {
            let _probe = tel::scope_phase("acme", "probe");
            observe(3);
            fleet_observe(2);
        }
        observe(4);
    }
    {
        let _globex = tel::scope("globex");
        observe(5);
        fleet_observe(3);
    }

    counter_add_labeled(
        "gold.explicit",
        &[("tenant", "acme"), ("backend", "disk")],
        6,
    );
    histogram_record_labeled("gold.latency", &[("tenant", "globex")], 256.0);
    counter_add_labeled("gold.hostile", &[("tenant", "a\\b\"c\nd")], 7);

    // Everything admitted so far keeps its series; every new one folds.
    set_series_cap(3);
    for (k, tenant) in [(6, "initech"), (7, "umbrella")] {
        let _t = tel::scope(tenant);
        observe(k);
        let _p = tel::scope_phase(tenant, "tune");
        observe(k + 2);
    }
    observe(10);
    {
        // The last write of the gauge is a scoped one.
        let _acme = tel::scope("acme");
        observe(11);
    }

    let mut out = String::new();
    out.push_str("== prometheus\n");
    out.push_str(&tel::render_prometheus(&tel::snapshot()));
    out.push_str("== artifact metrics\n");
    let artifact = tel::report::artifact_json("golden");
    let metrics = artifact
        .split_once(",\"profile\":[")
        .expect("artifact has a profile section")
        .0;
    out.push_str(&reflow(metrics, 2));
    out.push_str("\n== fleet\n");
    let server = tel::IntrospectionServer::start(0).expect("bind loopback");
    for query in ["/fleet", "/fleet?sort=shards&top=2"] {
        out.push_str(&reflow(&http_get(server.addr(), query), 2));
        out.push('\n');
    }
    server.shutdown();
    tel::disable();
    tel::reset();

    common::assert_matches_golden("telemetry_exposition.txt", &out);
}
