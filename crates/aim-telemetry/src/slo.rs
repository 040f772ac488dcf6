//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloRule`] names a windowed histogram stat (e.g. the p99 of
//! `exec.select_cost`), a target it must stay under, and an error budget:
//! the fraction of windows allowed to violate the target. [`evaluate`]
//! sweeps the [`crate::timeseries`] ring and computes the *burn rate* —
//! violating fraction ÷ budget — over two lookbacks, a fast one (default
//! 5 windows) and a slow one (default 60). A rule **fires** only when both
//! burns meet the threshold: the fast window gives quick detection, the
//! slow window suppresses one-off blips, the classic multi-window
//! burn-rate construction from SRE alerting practice.
//!
//! Rules marked `per_tenant` evaluate every `tenant`-labeled variant of
//! the metric separately (plus the unlabeled all-tenant series), so a
//! single rule covers a whole fleet and a firing status names the tenant
//! that burned its budget. Series carrying extra labels (a tuning-phase
//! scope, say) are excluded — SLOs judge live traffic, not tuning
//! replays. The `/alerts` endpoint renders [`alerts_json`], and that is
//! all an alert does: the evaluator is read-only over the time-series ring
//! and nothing in the advisor decides from it.

use std::collections::BTreeSet;
use std::sync::Mutex;

use crate::metrics;
use crate::report::json_escape;
use crate::timeseries::{self, WindowHistogram};

/// Which windowed histogram stat an SLO tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloStat {
    P50,
    P90,
    P99,
    Mean,
}

impl SloStat {
    fn of(self, h: &WindowHistogram) -> f64 {
        match self {
            SloStat::P50 => h.p50,
            SloStat::P90 => h.p90,
            SloStat::P99 => h.p99,
            SloStat::Mean => h.mean(),
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            SloStat::P50 => "p50",
            SloStat::P90 => "p90",
            SloStat::P99 => "p99",
            SloStat::Mean => "mean",
        }
    }
}

/// One declarative SLO rule. Construct with [`SloRule::new`] and adjust
/// the defaults with the chainable setters.
#[derive(Debug, Clone)]
pub struct SloRule {
    /// Rule name, e.g. `select-latency`.
    pub name: String,
    /// Base histogram name the rule watches, e.g. `exec.select_cost`.
    pub metric: String,
    /// Windowed stat compared against the target.
    pub stat: SloStat,
    /// The stat must stay strictly under this value.
    pub target: f64,
    /// Evaluate each `tenant`-labeled series separately.
    pub per_tenant: bool,
    /// Fast lookback (windows) for quick detection.
    pub fast_windows: usize,
    /// Slow lookback (windows) for blip suppression; clamped to the
    /// windows actually present in the ring.
    pub slow_windows: usize,
    /// Error budget: allowed violating fraction of windows (0, 1].
    pub budget: f64,
    /// Fire when both burn rates reach this multiple of the budget.
    pub burn_threshold: f64,
}

impl SloRule {
    /// A per-tenant p99 rule with the default 5/60 windows, a 10% budget
    /// and a burn threshold of 1.0.
    pub fn new(name: &str, metric: &str, target: f64) -> Self {
        Self {
            name: name.to_string(),
            metric: metric.to_string(),
            stat: SloStat::P99,
            target,
            per_tenant: true,
            fast_windows: 5,
            slow_windows: 60,
            budget: 0.1,
            burn_threshold: 1.0,
        }
    }

    pub fn stat(mut self, stat: SloStat) -> Self {
        self.stat = stat;
        self
    }

    pub fn per_tenant(mut self, per_tenant: bool) -> Self {
        self.per_tenant = per_tenant;
        self
    }

    pub fn windows(mut self, fast: usize, slow: usize) -> Self {
        self.fast_windows = fast.max(1);
        self.slow_windows = slow.max(self.fast_windows);
        self
    }

    pub fn budget(mut self, budget: f64) -> Self {
        self.budget = budget.clamp(1e-6, 1.0);
        self
    }

    pub fn burn_threshold(mut self, threshold: f64) -> Self {
        self.burn_threshold = threshold.max(0.0);
        self
    }
}

/// Evaluation outcome for one (rule, tenant) pair.
#[derive(Debug, Clone)]
pub struct SloStatus {
    /// Name of the rule that produced this status.
    pub rule: String,
    /// Base metric the rule watches.
    pub metric: String,
    /// Tenant the status applies to; `None` is the all-tenant series.
    pub tenant: Option<String>,
    /// Stat value in the most recent window holding data.
    pub current: f64,
    /// The rule's target.
    pub target: f64,
    /// Burn rate over the fast lookback.
    pub fast_burn: f64,
    /// Burn rate over the slow lookback (clamped to ring length).
    pub slow_burn: f64,
    /// Whether both burns met the rule's threshold.
    pub firing: bool,
}

static RULES: Mutex<Option<Vec<SloRule>>> = Mutex::new(None);

fn with_rules<R>(f: impl FnOnce(&mut Vec<SloRule>) -> R) -> R {
    let mut guard = RULES.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Vec::new))
}

/// Registers a rule (replacing any existing rule of the same name).
pub fn register(rule: SloRule) {
    with_rules(|rules| {
        rules.retain(|r| r.name != rule.name);
        rules.push(rule);
    });
}

/// Drops all registered rules.
pub fn clear() {
    with_rules(|rules| rules.clear());
}

/// The registered rules, in registration order.
pub fn rules() -> Vec<SloRule> {
    with_rules(|rules| rules.clone())
}

/// Burn rate of `rule` for `tenant` over the last `lookback` windows of
/// `stats`: violating fraction of data-bearing windows ÷ budget. `None`
/// when no window in the lookback holds data for the series.
fn burn(
    rule: &SloRule,
    tenant: &Option<String>,
    lookback: usize,
    stats: &[Vec<(Option<String>, f64)>],
) -> Option<f64> {
    let take = lookback.min(stats.len());
    let mut seen = 0u64;
    let mut violated = 0u64;
    for per_window in stats.iter().rev().take(take) {
        if let Some((_, v)) = per_window.iter().find(|(t, _)| t == tenant) {
            seen += 1;
            if *v > rule.target {
                violated += 1;
            }
        }
    }
    (seen > 0).then(|| (violated as f64 / seen as f64) / rule.budget)
}

/// Evaluates every rule against the timeseries ring, returning one status
/// per (rule, observed series). Updates the `slo.rules` / `slo.firing`
/// gauges and the `slo.evaluations` counter as a side effect.
pub fn evaluate() -> Vec<SloStatus> {
    let ruleset = rules();
    let deepest = ruleset
        .iter()
        .map(|r| r.slow_windows)
        .max()
        .unwrap_or(0);
    let windows = timeseries::recent(deepest);
    let mut out = Vec::new();
    for rule in &ruleset {
        // Per-window `(tenant, stat)` samples, oldest window first.
        let stats: Vec<Vec<(Option<String>, f64)>> = windows
            .iter()
            .map(|w| {
                w.tenant_histograms(&rule.metric)
                    .into_iter()
                    .filter(|(t, _)| rule.per_tenant || t.is_none())
                    .map(|(t, h)| (t, rule.stat.of(h)))
                    .collect()
            })
            .collect();
        let mut tenants: BTreeSet<Option<String>> = BTreeSet::new();
        for per_window in &stats {
            for (t, _) in per_window {
                tenants.insert(t.clone());
            }
        }
        for tenant in tenants {
            let Some(fast) = burn(rule, &tenant, rule.fast_windows, &stats) else {
                continue;
            };
            let slow = burn(rule, &tenant, rule.slow_windows, &stats).unwrap_or(0.0);
            let current = stats
                .iter()
                .rev()
                .find_map(|pw| pw.iter().find(|(t, _)| *t == tenant).map(|(_, v)| *v))
                .unwrap_or(0.0);
            out.push(SloStatus {
                rule: rule.name.clone(),
                metric: rule.metric.clone(),
                tenant,
                current,
                target: rule.target,
                fast_burn: fast,
                slow_burn: slow,
                firing: fast >= rule.burn_threshold && slow >= rule.burn_threshold,
            });
        }
    }
    metrics::gauge_set("slo.rules", ruleset.len() as i64);
    metrics::gauge_set("slo.firing", out.iter().filter(|s| s.firing).count() as i64);
    metrics::counter_add("slo.evaluations", 1);
    out
}

/// JSON document for the `/alerts` endpoint: every registered rule and
/// every evaluated status, firing or not.
pub fn alerts_json() -> String {
    let ruleset = rules();
    let statuses = evaluate();
    let mut out = String::from("{\"rules\":[");
    for (i, r) in ruleset.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"metric\":\"{}\",\"stat\":\"{}\",\"target\":{:.3},\
             \"per_tenant\":{},\"fast_windows\":{},\"slow_windows\":{},\
             \"budget\":{:.4},\"burn_threshold\":{:.3}}}",
            json_escape(&r.name),
            json_escape(&r.metric),
            r.stat.as_str(),
            r.target,
            r.per_tenant,
            r.fast_windows,
            r.slow_windows,
            r.budget,
            r.burn_threshold,
        ));
    }
    out.push_str("],\"alerts\":[");
    for (i, s) in statuses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let tenant = match &s.tenant {
            Some(t) => format!("\"{}\"", json_escape(t)),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"metric\":\"{}\",\"tenant\":{},\"current\":{:.3},\
             \"target\":{:.3},\"fast_burn\":{:.3},\"slow_burn\":{:.3},\"firing\":{}}}",
            json_escape(&s.rule),
            json_escape(&s.metric),
            tenant,
            s.current,
            s.target,
            s.fast_burn,
            s.slow_burn,
            s.firing,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_window(values: &[(&str, f64)]) {
        for (tenant, v) in values {
            let _t = metrics::scope(tenant);
            metrics::histogram_record("slo.test_cost", *v);
        }
        timeseries::tick("slo_test");
    }

    #[test]
    fn burn_rate_fires_per_tenant_and_clears() {
        let _g = crate::tests::lock();
        crate::reset();
        clear();
        crate::enable();
        register(SloRule::new("lat", "slo.test_cost", 100.0).windows(3, 10));

        // Three healthy windows for both tenants.
        for _ in 0..3 {
            seed_window(&[("good", 10.0), ("bad", 20.0)]);
        }
        let statuses = evaluate();
        assert!(statuses.iter().all(|s| !s.firing));

        // Tenant `bad` regresses for three straight windows.
        for _ in 0..3 {
            seed_window(&[("good", 10.0), ("bad", 900.0)]);
        }
        let statuses = evaluate();
        let bad = statuses
            .iter()
            .find(|s| s.tenant.as_deref() == Some("bad"))
            .unwrap();
        assert!(bad.firing, "fast {} slow {}", bad.fast_burn, bad.slow_burn);
        assert!(bad.current > 100.0);
        let good = statuses
            .iter()
            .find(|s| s.tenant.as_deref() == Some("good"))
            .unwrap();
        assert!(!good.firing);
        // The all-tenant series also exists (flat twin) and is regressed,
        // since the blended p99 tracks the bad tenant.
        assert!(statuses.iter().any(|s| s.tenant.is_none()));

        // Recovery: enough clean windows dilute the fast burn below 1.
        for _ in 0..6 {
            seed_window(&[("good", 10.0), ("bad", 20.0)]);
        }
        let statuses = evaluate();
        let bad = statuses
            .iter()
            .find(|s| s.tenant.as_deref() == Some("bad"))
            .unwrap();
        assert!(!bad.firing, "fast {} slow {}", bad.fast_burn, bad.slow_burn);

        crate::disable();
        clear();
        crate::reset();
    }

    #[test]
    fn alerts_json_is_valid_and_complete() {
        let _g = crate::tests::lock();
        crate::reset();
        clear();
        crate::enable();
        register(SloRule::new("lat\"q", "slo.test_cost", 50.0).windows(2, 4));
        seed_window(&[("t0", 500.0)]);
        seed_window(&[("t0", 500.0)]);
        let doc = crate::jsonv::parse(&alerts_json()).expect("alerts json parses");
        let rules = doc.get("rules").unwrap().as_arr().unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].get("name").unwrap().as_str(), Some("lat\"q"));
        let alerts = doc.get("alerts").unwrap().as_arr().unwrap();
        assert!(alerts
            .iter()
            .any(|a| a.get("tenant").unwrap().as_str() == Some("t0")
                && a.get("firing").unwrap().as_bool() == Some(true)));
        crate::disable();
        clear();
        crate::reset();
    }
}
