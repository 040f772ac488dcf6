//! Live introspection endpoint: a std-only HTTP server over the telemetry
//! state, so a long-running continuous-tuning process can be watched from
//! the outside while it runs.
//!
//! Security posture: **off by default** — nothing listens unless the host
//! process calls [`IntrospectionServer::start`] — and the listener binds
//! `127.0.0.1` only, so the endpoint is never reachable off-box. It serves
//! read-only GETs, holds no state of its own, and supports exactly eight
//! routes:
//!
//! * `/metrics` — counters, gauges and histograms in Prometheus text
//!   exposition format (histograms as summaries with `p50/p90/p99`
//!   quantile lines),
//! * `/journal` — the event ring buffer as a JSON array,
//! * `/profile` — the published span tree (see
//!   [`crate::publish_profile`]) as JSON,
//! * `/timeseries` — the windowed metric ring from
//!   [`crate::timeseries`] as JSON (`?n=K` limits to the last K windows),
//! * `/trace` — the Chrome trace-event buffer from [`crate::trace`],
//! * `/ledger` — whatever JSON document the host registered via
//!   [`set_ledger_source`] (404 until a session registers one),
//! * `/fleet` — per-tenant rollups of the tenant-labeled series
//!   (`?sort=tenant|shards|granted|used|duration|p99`, `?top=N`),
//! * `/alerts` — every SLO rule and its live burn state from
//!   [`crate::slo`].

use crate::metrics::Series;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type LedgerSource = Box<dyn Fn() -> String + Send + Sync>;

static LEDGER_SOURCE: Mutex<Option<LedgerSource>> = Mutex::new(None);

/// Registers the JSON provider behind `/ledger` (typically a closure over
/// a tuning session's decision ledger). Replaces any previous source.
pub fn set_ledger_source(source: impl Fn() -> String + Send + Sync + 'static) {
    *LEDGER_SOURCE.lock().unwrap_or_else(|e| e.into_inner()) = Some(Box::new(source));
}

/// Unregisters the `/ledger` provider; the route 404s again.
pub fn clear_ledger_source() {
    *LEDGER_SOURCE.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

fn ledger_json() -> Option<String> {
    LEDGER_SOURCE
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|f| f())
}

/// A running introspection endpoint. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops the listener thread.
pub struct IntrospectionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl IntrospectionServer {
    /// Binds `127.0.0.1:port` (use port 0 for an ephemeral port) and
    /// starts serving on a background thread.
    pub fn start(port: u16) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("aim-introspection".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_thread.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection, served inline: the
                        // endpoint is a debugging aid, not a web server.
                        let _ = serve_one(stream);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and waits for it to exit.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; poke it awake.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for IntrospectionServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn serve_one(mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;

    // Read until the end of the request head (or the timeout); only the
    // request line matters — GETs carry no body we care about.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let raw_path = parts.next().unwrap_or("");
    let (path, query) = match raw_path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (raw_path, ""),
    };

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "read-only endpoint: use GET\n".to_string(),
        )
    } else {
        match path {
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "aim introspection endpoint\n\
                 routes: /metrics /journal /profile /timeseries /trace /ledger \
                 /fleet /alerts\n"
                    .to_string(),
            ),
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_prometheus(&crate::metrics::snapshot()),
            ),
            "/journal" => ("200 OK", "application/json", journal_body()),
            "/profile" => ("200 OK", "application/json", profile_body()),
            "/timeseries" => {
                let n = query_param(query, "n").unwrap_or(usize::MAX);
                ("200 OK", "application/json", crate::timeseries::to_json(n))
            }
            "/trace" => (
                "200 OK",
                "application/json",
                crate::trace::chrome_trace_json(),
            ),
            "/ledger" => match ledger_json() {
                Some(json) => ("200 OK", "application/json", json),
                None => (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "no ledger registered (see aim_telemetry::set_ledger_source)\n".to_string(),
                ),
            },
            "/fleet" => (
                "200 OK",
                "application/json",
                fleet_json(
                    query_param_str(query, "sort").unwrap_or("tenant"),
                    query_param(query, "top").unwrap_or(usize::MAX),
                ),
            ),
            "/alerts" => ("200 OK", "application/json", crate::slo::alerts_json()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "unknown route (try /metrics, /journal, /profile, /timeseries, \
                 /trace, /ledger, /fleet, /alerts)\n"
                    .to_string(),
            ),
        }
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// First value of `key` in a raw query string (`a=1&b=2`), parsed as usize.
fn query_param(query: &str, key: &str) -> Option<usize> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.parse().ok()).flatten()
    })
}

/// First raw value of `key` in a query string.
fn query_param_str<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// One tenant's rollup row for the `/fleet` endpoint, accumulated from
/// the tenant-labeled series in a metrics snapshot.
#[derive(Debug, Clone, Default)]
struct FleetRow {
    shards_tuned: u64,
    budget_granted: i64,
    budget_used: i64,
    duration_ms: f64,
    cost_p50: f64,
    cost_p99: f64,
    cost_count: u64,
}

/// Per-tenant rollup document behind `/fleet`: for every tenant seen in
/// any labeled series, the shards tuned, budget bytes granted vs. used,
/// tuning wall clock and select-cost p50/p99. `sort`
/// orders rows (`tenant`, `shards`, `granted`, `used`, `duration`, `p99`;
/// non-tenant keys sort descending) and `top` truncates.
fn fleet_json(sort: &str, top: usize) -> String {
    let snap = crate::metrics::snapshot();
    let mut rows: BTreeMap<String, FleetRow> = BTreeMap::new();
    fn row_of<'a>(
        rows: &'a mut BTreeMap<String, FleetRow>,
        series: &Series,
    ) -> Option<&'a mut FleetRow> {
        let tenant = series.label("tenant")?;
        Some(rows.entry(tenant.to_string()).or_default())
    }
    for (series, v) in &snap.counters {
        if series.name() == "fleet.shards_tuned" {
            if let Some(row) = row_of(&mut rows, series) {
                row.shards_tuned += v;
            }
        }
    }
    for (series, v) in &snap.gauges {
        let Some(row) = row_of(&mut rows, series) else {
            continue;
        };
        match series.name() {
            "fleet.budget_granted_bytes" => row.budget_granted = *v,
            "fleet.budget_used_bytes" => row.budget_used = *v,
            _ => {}
        }
    }
    for (series, h) in &snap.histograms {
        let Some(row) = row_of(&mut rows, series) else {
            continue;
        };
        match series.name() {
            "fleet.tenant_duration" => row.duration_ms += h.sum,
            // Prefer the pure per-tenant live series; fall back to a
            // phase-scoped one (tuning replay) when no live traffic exists.
            "exec.select_cost" => {
                let pure = series.labels().len() == 1;
                if pure || row.cost_count == 0 {
                    row.cost_p50 = h.p50;
                    row.cost_p99 = h.p99;
                    row.cost_count = h.count;
                }
            }
            _ => {}
        }
    }

    let mut ordered: Vec<(String, FleetRow)> = rows.into_iter().collect();
    match sort {
        "shards" => ordered.sort_by_key(|r| std::cmp::Reverse(r.1.shards_tuned)),
        "granted" => ordered.sort_by_key(|r| std::cmp::Reverse(r.1.budget_granted)),
        "used" => ordered.sort_by_key(|r| std::cmp::Reverse(r.1.budget_used)),
        "duration" => ordered.sort_by(|a, b| {
            b.1.duration_ms
                .partial_cmp(&a.1.duration_ms)
                .unwrap_or(std::cmp::Ordering::Equal)
        }),
        "p99" => ordered.sort_by(|a, b| {
            b.1.cost_p99
                .partial_cmp(&a.1.cost_p99)
                .unwrap_or(std::cmp::Ordering::Equal)
        }),
        _ => {} // BTreeMap order: tenant id ascending.
    }
    ordered.truncate(top);

    let mut out = String::from("{\"tenants\":[");
    for (i, (tenant, row)) in ordered.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"tenant\":\"{}\",\"shards_tuned\":{},\"budget_granted_bytes\":{},\
             \"budget_used_bytes\":{},\"duration_ms\":{:.3},\"cost_p50\":{:.3},\
             \"cost_p99\":{:.3}}}",
            crate::report::json_escape(tenant),
            row.shards_tuned,
            row.budget_granted,
            row.budget_used,
            row.duration_ms,
            row.cost_p50,
            row.cost_p99,
        ));
    }
    out.push_str(&format!(
        "],\"series_active\":{},\"series_dropped\":{}}}",
        crate::metrics::series_count(),
        snap.counter("telemetry.series_dropped").unwrap_or(0),
    ));
    out
}

fn journal_body() -> String {
    let mut out = String::from("{\"events\":[");
    for (i, e) in crate::journal::events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&crate::report::event_json(e));
    }
    out.push_str(&format!(
        "],\"events_dropped\":{}}}",
        crate::journal::dropped()
    ));
    out
}

fn profile_body() -> String {
    let profile = crate::span::published_profile();
    let mut out = String::from("{\"profile\":[");
    for (i, c) in profile.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        crate::report::profile_node_json(c, &mut out);
    }
    out.push_str("]}");
    out
}

/// Sanitizes an instrument name into the Prometheus metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), prefixed with `aim_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("aim_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Sanitizes a label key into the Prometheus label alphabet
/// (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_label_key(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Escapes a `# HELP` line per exposition format 0.0.4: `\` → `\\` and
/// newline → `\n` (quotes are *not* escaped in HELP text).
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders a series' label blob through [`crate::metrics::write_labels`],
/// keys sanitized and in the series' (sorted) order; `extra` is appended
/// last (used for the `quantile` label on summary samples).
fn prom_labels(series: &Series, extra: Option<(&str, &str)>) -> String {
    let labels = series
        .labels()
        .iter()
        .map(|(k, v)| (prom_label_key(k), v.as_str()));
    let extra = extra.map(|(k, v)| (k.to_string(), v));
    let mut out = String::new();
    let _ = crate::metrics::write_labels(&mut out, labels.chain(extra));
    out
}

/// Groups snapshot entries into Prometheus families: all samples of one
/// instrument rendered together under a single `# HELP`/`# TYPE` pair, in
/// order of first appearance — the bare series first, labeled series after
/// in snapshot order.
fn family_groups<T>(entries: &[(Series, T)]) -> Vec<Vec<&(Series, T)>> {
    let mut index: BTreeMap<&str, usize> = BTreeMap::new();
    let mut groups: Vec<Vec<&(Series, T)>> = Vec::new();
    for entry in entries {
        let at = *index.entry(entry.0.name()).or_insert(groups.len());
        if at == groups.len() {
            groups.push(Vec::new());
        }
        groups[at].push(entry);
    }
    groups
}

/// Renders a metrics snapshot in Prometheus text exposition format
/// (version 0.0.4). Every family gets a `# HELP` line (from
/// [`crate::metrics::help_for`], escaped) followed by its `# TYPE`; all
/// samples of a family — the flat series and its labeled variants — are
/// grouped under one header with stable label ordering and escaped label
/// values. Histograms are exposed as summaries with the `p50/p90/p99`
/// quantile estimates from the log₂ buckets.
pub fn render_prometheus(s: &crate::metrics::Snapshot) -> String {
    let mut out = String::new();
    fn header(out: &mut String, name: &str, kind: &str) -> String {
        let n = prom_name(name);
        let help = escape_help(crate::metrics::help_for(name));
        out.push_str(&format!("# HELP {n} {help}\n# TYPE {n} {kind}\n"));
        n
    }
    fn scalars<T: std::fmt::Display>(out: &mut String, entries: &[(Series, T)], kind: &str) {
        for samples in family_groups(entries) {
            let n = header(out, samples[0].0.name(), kind);
            for (series, v) in samples {
                out.push_str(&format!("{n}{} {v}\n", prom_labels(series, None)));
            }
        }
    }
    scalars(&mut out, &s.counters, "counter");
    scalars(&mut out, &s.gauges, "gauge");
    for samples in family_groups(&s.histograms) {
        let n = header(&mut out, samples[0].0.name(), "summary");
        for (series, h) in samples {
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                let labels = prom_labels(series, Some(("quantile", q)));
                out.push_str(&format!("{n}{labels} {v:.6}\n"));
            }
            let labels = prom_labels(series, None);
            out.push_str(&format!("{n}_sum{labels} {:.6}\n", h.sum));
            out.push_str(&format!("{n}_count{labels} {}\n", h.count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_shuts_down() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        crate::metrics::WHATIF_CALLS.add(3);
        crate::metrics::gauge_set("db.index_bytes", 512);
        for v in [1.0, 8.0, 100.0] {
            crate::metrics::histogram_record("exec.whatif_cost", v);
        }
        crate::journal::event(crate::EventKind::IndexAccepted, "aim_t_a", "why");
        crate::trace::start_recording();
        {
            let _s = crate::span("pass");
        }
        crate::trace::stop_recording();
        crate::publish_profile();
        crate::timeseries::tick("w1");
        crate::metrics::ROWS_READ.add(5);
        crate::timeseries::tick("w2");
        crate::disable();

        let server = IntrospectionServer::start(0).expect("bind loopback");
        let addr = server.addr();
        assert!(addr.ip().is_loopback(), "must only bind loopback");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("# TYPE aim_exec_whatif_calls counter"));
        assert!(body.contains("aim_exec_whatif_calls 3"));
        assert!(body.contains("# TYPE aim_db_index_bytes gauge"));
        assert!(body.contains("# TYPE aim_exec_whatif_cost summary"));
        assert!(body.contains("aim_exec_whatif_cost{quantile=\"0.5\"}"));
        assert!(body.contains("aim_exec_whatif_cost{quantile=\"0.99\"}"));
        assert!(body.contains("aim_exec_whatif_cost_count 3"));

        let (head, body) = get(addr, "/journal");
        assert!(head.starts_with("HTTP/1.1 200"));
        let parsed = crate::jsonv::parse(&body).expect("journal is JSON");
        assert_eq!(
            parsed
                .path("events")
                .and_then(crate::jsonv::Json::as_arr)
                .map(<[crate::jsonv::Json]>::len),
            Some(1)
        );

        let (head, body) = get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(crate::jsonv::parse(&body).is_ok());
        assert!(body.contains("\"pass\""));

        let (head, body) = get(addr, "/timeseries");
        assert!(head.starts_with("HTTP/1.1 200"));
        let parsed = crate::jsonv::parse(&body).expect("timeseries is JSON");
        assert_eq!(parsed.get("windows").unwrap().as_arr().unwrap().len(), 2);
        // ?n= limits to the most recent windows.
        let (_, body) = get(addr, "/timeseries?n=1");
        let parsed = crate::jsonv::parse(&body).expect("limited timeseries is JSON");
        let windows = parsed.get("windows").unwrap().as_arr().unwrap();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].get("label").unwrap().as_str(), Some("w2"));
        assert_eq!(
            windows[0]
                .path("counters/exec.rows_read/delta")
                .and_then(crate::jsonv::Json::as_f64),
            Some(5.0)
        );

        let (head, body) = get(addr, "/trace");
        assert!(head.starts_with("HTTP/1.1 200"));
        let parsed = crate::jsonv::parse(&body).expect("trace is JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "the recorded span close shows up");
        assert_eq!(events[0].get("name").unwrap().as_str(), Some("pass"));

        let (head, _) = get(addr, "/ledger");
        assert!(head.starts_with("HTTP/1.1 404"), "no ledger yet: {head}");
        set_ledger_source(|| "{\"passes\":0}".to_string());
        let (head, body) = get(addr, "/ledger");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(crate::jsonv::parse(&body).is_ok());
        clear_ledger_source();

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
        // The port is released: a fresh bind to the same port succeeds.
        let again = TcpListener::bind(addr);
        assert!(again.is_ok(), "listener thread still holds the port");
        crate::reset();
    }

    /// Structural validation of the exposition format: every sample line
    /// must be preceded by a `# HELP` and `# TYPE` for its family, names
    /// must stay in the Prometheus alphabet, and values must be numeric.
    #[test]
    fn prometheus_exposition_is_well_formed() {
        use std::collections::{BTreeMap, BTreeSet};

        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        crate::metrics::STATEMENTS_EXECUTED.add(12);
        crate::metrics::counter_add("adhoc.with-dash", 1);
        crate::metrics::gauge_set("db.index_bytes", 99);
        for v in [2.0, 20.0, 200.0] {
            crate::metrics::histogram_record("exec.select_cost", v);
        }
        // Labeled twins of the same families must group under one header.
        {
            let _t = crate::metrics::scope("tenant with space");
            crate::metrics::STATEMENTS_EXECUTED.add(2);
            crate::metrics::histogram_record("exec.select_cost", 42.0);
        }
        crate::disable();

        let text = render_prometheus(&crate::metrics::snapshot());
        let mut helped: BTreeSet<String> = BTreeSet::new();
        let mut typed: BTreeMap<String, String> = BTreeMap::new();
        let mut last_family = String::new();
        let mut closed_families: BTreeSet<String> = BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP carries text");
                assert!(!help.trim().is_empty(), "empty HELP for {name}");
                helped.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest.split_once(' ').expect("TYPE carries a type");
                assert!(
                    ["counter", "gauge", "summary"].contains(&ty),
                    "unknown type {ty}"
                );
                assert!(helped.contains(name), "HELP must precede TYPE for {name}");
                assert!(
                    !closed_families.contains(name),
                    "family {name} split across multiple headers"
                );
                typed.insert(name.to_string(), ty.to_string());
            } else {
                // Sample lines are `name{labels} value`; label values may
                // contain spaces, the value never does.
                let (name_with_labels, value) =
                    line.rsplit_once(' ').expect("sample carries a value");
                value.parse::<f64>().unwrap_or_else(|_| {
                    panic!("non-numeric sample value in {line:?}")
                });
                let name = name_with_labels.split('{').next().unwrap();
                let family = name
                    .strip_suffix("_sum")
                    .or_else(|| name.strip_suffix("_count"))
                    .filter(|b| typed.get(*b).map(String::as_str) == Some("summary"))
                    .unwrap_or(name)
                    .to_string();
                if family != last_family && !last_family.is_empty() {
                    closed_families.insert(last_family.clone());
                }
                last_family = family;
                assert!(name.starts_with("aim_"), "unprefixed name {name}");
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                    "name {name} outside the Prometheus alphabet"
                );
                assert!(
                    typed.contains_key(&last_family),
                    "TYPE must precede sample {name}"
                );
                assert!(
                    helped.contains(&last_family),
                    "HELP must precede sample {name}"
                );
            }
        }
        // The labeled twins landed inside their families with stable
        // label order and escaped values.
        assert!(text.contains("aim_exec_statements{tenant=\"tenant with space\"} 2"));
        assert!(
            text.contains("aim_exec_select_cost{tenant=\"tenant with space\",quantile=\"0.5\"}")
        );
        // The new counters are part of the fixed taxonomy and always appear.
        for family in [
            "aim_timeseries_windows",
            "aim_trace_spans_stitched",
            "aim_telemetry_journal_dropped",
            "aim_telemetry_series_dropped",
        ] {
            assert!(text.contains(&format!("# HELP {family} ")), "{family}");
        }
        crate::reset();
    }

    /// Satellite: hostile label values — backslashes, quotes and newlines —
    /// must render escaped per exposition format 0.0.4 and still parse as
    /// one sample per line.
    #[test]
    fn hostile_label_values_are_escaped() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        let hostile = "a\\b\"c\nd";
        crate::metrics::counter_add_labeled("hostile.hits", &[("tenant", hostile)], 7);
        crate::disable();

        let text = render_prometheus(&crate::metrics::snapshot());
        let line = text
            .lines()
            .find(|l| l.starts_with("aim_hostile_hits{"))
            .expect("labeled sample rendered");
        assert_eq!(
            line,
            "aim_hostile_hits{tenant=\"a\\\\b\\\"c\\nd\"} 7",
            "escaping mismatch"
        );
        // No raw newline survived into the sample (it would split the line).
        assert_eq!(
            text.lines().filter(|l| l.contains("hostile")).count(),
            3, // HELP + TYPE + the one sample
        );
        crate::reset();
    }

    #[test]
    fn fleet_and_alerts_routes_serve_live_rollups() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        for (tenant, shards, granted, used, cost) in [
            ("t0", 3u64, 4096i64, 2048i64, 10.0),
            ("t1", 1, 1024, 512, 500.0),
        ] {
            let _t = crate::metrics::scope(tenant);
            crate::metrics::FLEET_SHARDS_TUNED.add(shards);
            crate::metrics::gauge_set("fleet.budget_granted_bytes", granted);
            crate::metrics::gauge_set("fleet.budget_used_bytes", used);
            crate::metrics::histogram_record("fleet.tenant_duration", 5.0);
            crate::metrics::histogram_record("exec.select_cost", cost);
        }
        crate::slo::register(crate::SloRule::new("lat", "exec.select_cost", 100.0).windows(1, 2));
        crate::timeseries::tick("fleet_test");

        let server = IntrospectionServer::start(0).expect("bind loopback");
        let addr = server.addr();

        let (head, body) = get(addr, "/fleet?sort=p99&top=1");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let doc = crate::jsonv::parse(&body).expect("fleet json parses");
        let tenants = doc.get("tenants").unwrap().as_arr().unwrap();
        assert_eq!(tenants.len(), 1, "top=1 truncates");
        assert_eq!(tenants[0].get("tenant").unwrap().as_str(), Some("t1"));
        assert_eq!(
            tenants[0].get("budget_granted_bytes").unwrap().as_f64(),
            Some(1024.0)
        );
        assert_eq!(tenants[0].get("shards_tuned").unwrap().as_f64(), Some(1.0));

        let (head, body) = get(addr, "/alerts");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let doc = crate::jsonv::parse(&body).expect("alerts json parses");
        let alerts = doc.get("alerts").unwrap().as_arr().unwrap();
        assert!(alerts
            .iter()
            .any(|a| a.get("tenant").unwrap().as_str() == Some("t1")
                && a.get("firing").unwrap().as_bool() == Some(true)));
        assert!(alerts
            .iter()
            .any(|a| a.get("tenant").unwrap().as_str() == Some("t0")
                && a.get("firing").unwrap().as_bool() == Some(false)));

        server.shutdown();
        crate::disable();
        crate::reset();
    }
}
