//! The latency regression sentinel (§VII-C, aggregate form).
//!
//! [`crate::continuous::RegressionDetector`] watches *per-query* average
//! CPU; it cannot see an aggregate tail-latency regression spread thinly
//! across the workload — the failure mode DBA-bandits-style safety loops
//! guard against. The sentinel closes that gap from the windowed telemetry
//! side: it keeps an EWMA baseline of a select-latency histogram statistic
//! (p99 of `exec.select_cost` by default) across tuning windows, arms
//! itself whenever a pass materializes indexes, and — if an armed window's
//! statistic exceeds the baseline by the tolerance — returns a
//! [`SentinelVerdict::Regressed`] naming the materialized indexes as
//! suspects. [`crate::continuous::ContinuousTuner::step`] then drops those
//! indexes and records a `regression_rollback` stage in the decision
//! ledger, closing the observe → detect → rollback loop.
//!
//! Since the dimensional-telemetry rework the sentinel is **per-tenant**:
//! it keeps one EWMA baseline and one armed watch per `tenant`-labeled
//! variant of the watched histogram (the unlabeled all-tenant series is
//! tenant `""`). [`LatencySentinel::observe_window_all`] judges every
//! tenant in a window independently, so one tenant's regression rolls back
//! only that tenant's indexes, and accepts the set of tenants whose
//! latency SLO is firing (see [`aim_telemetry::slo`]): a firing alert
//! forces an armed tenant's verdict to `Regressed` even when the EWMA
//! tolerance alone would let the window pass, and suspends baseline
//! absorption so the incident cannot normalize itself. Each judged tenant
//! also publishes a `sentinel.state` gauge (0 idle, 1 armed, 2 regressed)
//! that the `/fleet` rollup surfaces.

use std::collections::{BTreeMap, BTreeSet};

use aim_storage::{Database, IndexDef};
use aim_telemetry as tel;
use aim_telemetry::timeseries::{Window, WindowHistogram};

/// Which windowed statistic of the watched histogram the sentinel tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SentinelStat {
    P50,
    P90,
    P99,
    Mean,
}

/// Tuning knobs for [`LatencySentinel`].
#[derive(Debug, Clone)]
pub struct SentinelConfig {
    /// Windowed histogram to watch (a [`aim_telemetry::timeseries`] name).
    pub histogram: &'static str,
    /// Statistic of that histogram compared against the baseline.
    pub stat: SentinelStat,
    /// Tolerated relative growth over the EWMA baseline before an armed
    /// window is declared regressed (`0.5` = 50%).
    pub tolerance: f64,
    /// EWMA smoothing factor in `(0, 1]`; higher weighs recent windows
    /// more.
    pub ewma_alpha: f64,
    /// How many post-materialization windows stay under scrutiny before
    /// the sentinel disarms on its own.
    pub arm_windows: usize,
    /// Windows with fewer observations than this neither update the
    /// baseline nor count against the armed grace period.
    pub min_samples: u64,
}

impl Default for SentinelConfig {
    fn default() -> Self {
        Self {
            histogram: "exec.select_cost",
            stat: SentinelStat::P99,
            tolerance: 0.5,
            ewma_alpha: 0.3,
            arm_windows: 2,
            min_samples: 5,
        }
    }
}

/// What the sentinel concluded about one window.
#[derive(Debug, Clone, PartialEq)]
pub enum SentinelVerdict {
    /// Not armed; the window fed the baseline.
    Idle,
    /// Too little data to judge (below `min_samples`, or no baseline yet
    /// while armed); nothing changed.
    Insufficient,
    /// Armed and the window looked fine; scrutiny continues.
    Cleared,
    /// Armed, the final grace window passed clean, and the sentinel
    /// disarmed — the materialization is considered vindicated.
    Disarmed,
    /// An armed window blew through the baseline: the suspect indexes
    /// should be rolled back.
    Regressed {
        /// Windowed statistic that tripped the detector.
        current: f64,
        /// EWMA baseline it was compared against.
        baseline: f64,
        /// Indexes materialized by the pass that armed the sentinel.
        suspects: Vec<String>,
    },
}

/// One tenant's judgment from [`LatencySentinel::observe_window_all`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantVerdict {
    /// Tenant the verdict applies to (`""` is the all-tenant series).
    pub tenant: String,
    pub verdict: SentinelVerdict,
    /// True when a firing SLO alert forced (or corroborated) the verdict;
    /// rollback ledger entries record this attribution.
    pub alert: bool,
}

#[derive(Debug, Clone)]
struct Armed {
    suspects: Vec<String>,
    windows_left: usize,
}

#[derive(Debug, Clone, Default)]
struct TenantState {
    ewma: Option<f64>,
    windows_observed: u64,
    armed: Option<Armed>,
}

/// EWMA + threshold detector over windowed select-latency statistics,
/// one independent baseline per tenant (`""` = the all-tenant series).
#[derive(Debug, Clone)]
pub struct LatencySentinel {
    pub config: SentinelConfig,
    states: BTreeMap<String, TenantState>,
}

impl LatencySentinel {
    pub fn new(config: SentinelConfig) -> Self {
        Self {
            config,
            states: BTreeMap::new(),
        }
    }

    /// Puts the global (all-tenant) sentinel on alert: the next
    /// `arm_windows` data-bearing windows are compared against the
    /// baseline, with `suspects` (the just-materialized indexes) on the
    /// hook. Re-arming replaces any previous watch.
    pub fn arm(&mut self, suspects: Vec<String>) {
        self.arm_tenant("", suspects);
    }

    /// Arms the watch for one tenant's series.
    pub fn arm_tenant(&mut self, tenant: &str, suspects: Vec<String>) {
        if suspects.is_empty() {
            return;
        }
        let windows_left = self.config.arm_windows;
        self.states.entry(tenant.to_string()).or_default().armed = Some(Armed {
            suspects,
            windows_left,
        });
    }

    /// Current EWMA baseline of the global series, if established.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline_for("")
    }

    /// Current EWMA baseline for one tenant's series.
    pub fn baseline_for(&self, tenant: &str) -> Option<f64> {
        self.states.get(tenant).and_then(|s| s.ewma)
    }

    /// True while the global series is under scrutiny.
    pub fn is_armed(&self) -> bool {
        self.is_armed_for("")
    }

    /// True while `tenant`'s series is under scrutiny.
    pub fn is_armed_for(&self, tenant: &str) -> bool {
        self.states
            .get(tenant)
            .is_some_and(|s| s.armed.is_some())
    }

    /// Data-bearing windows folded into the global baseline so far.
    pub fn windows_observed(&self) -> u64 {
        self.states.get("").map_or(0, |s| s.windows_observed)
    }

    /// Tenants with any sentinel state (baseline or armed watch).
    pub fn tenants(&self) -> Vec<String> {
        self.states.keys().cloned().collect()
    }

    fn stat_of(&self, h: &WindowHistogram) -> Option<f64> {
        if h.count < self.config.min_samples {
            return None;
        }
        Some(match self.config.stat {
            SentinelStat::P50 => h.p50,
            SentinelStat::P90 => h.p90,
            SentinelStat::P99 => h.p99,
            SentinelStat::Mean => h.mean(),
        })
    }

    /// Judges one tenant's windowed stat. Regressed windows are *not*
    /// absorbed into the baseline (the rollback restores the
    /// pre-materialization world the baseline describes); neither are
    /// windows under a firing alert, so an incident cannot normalize
    /// itself into the EWMA.
    fn judge(config: &SentinelConfig, state: &mut TenantState, stat: Option<f64>, alert: bool) -> SentinelVerdict {
        let absorb = |state: &mut TenantState, stat: f64| {
            let alpha = config.ewma_alpha.clamp(f64::EPSILON, 1.0);
            state.ewma = Some(match state.ewma {
                None => stat,
                Some(e) => alpha * stat + (1.0 - alpha) * e,
            });
            state.windows_observed += 1;
        };
        let Some(stat) = stat else {
            return SentinelVerdict::Insufficient;
        };
        if let Some(armed) = state.armed.as_mut() {
            let Some(baseline) = state.ewma else {
                // Armed before any baseline existed: this window becomes
                // the baseline rather than being judged against nothing.
                absorb(state, stat);
                return SentinelVerdict::Insufficient;
            };
            if alert || stat > baseline * (1.0 + config.tolerance) {
                let suspects = std::mem::take(&mut armed.suspects);
                state.armed = None;
                return SentinelVerdict::Regressed {
                    current: stat,
                    baseline,
                    suspects,
                };
            }
            armed.windows_left = armed.windows_left.saturating_sub(1);
            let disarmed = armed.windows_left == 0;
            if disarmed {
                state.armed = None;
            }
            absorb(state, stat);
            if disarmed {
                SentinelVerdict::Disarmed
            } else {
                SentinelVerdict::Cleared
            }
        } else {
            if !alert {
                absorb(state, stat);
            }
            SentinelVerdict::Idle
        }
    }

    /// Judges the global (unlabeled) series of one closed window.
    pub fn observe_window(&mut self, w: &Window) -> SentinelVerdict {
        let stat = w
            .histogram(self.config.histogram)
            .and_then(|h| self.stat_of(h));
        let state = self.states.entry(String::new()).or_default();
        Self::judge(&self.config, state, stat, false)
    }

    /// Judges every tenant series of one closed window independently —
    /// the unlabeled series as tenant `""` plus each purely
    /// tenant-labeled variant — and returns one verdict per tenant that
    /// holds data or an armed watch. `firing` names the tenants whose
    /// latency SLO alert is burning (see [`aim_telemetry::slo::evaluate`]);
    /// a firing tenant that is
    /// armed regresses outright, attribution recorded in
    /// [`TenantVerdict::alert`]. Publishes a per-tenant `sentinel.state`
    /// gauge as a side effect.
    pub fn observe_window_all(
        &mut self,
        w: &Window,
        firing: &BTreeSet<String>,
    ) -> Vec<TenantVerdict> {
        let mut stats: BTreeMap<String, Option<f64>> = BTreeMap::new();
        for (tenant, h) in w.tenant_histograms(self.config.histogram) {
            stats.insert(tenant.unwrap_or_default(), self.stat_of(h));
        }
        // Armed tenants with no data this window still get judged (as
        // Insufficient) so their gauges stay fresh.
        for tenant in self.states.keys() {
            stats.entry(tenant.clone()).or_insert(None);
        }
        let mut out = Vec::new();
        for (tenant, stat) in stats {
            let alert = firing.contains(&tenant);
            let state = self.states.entry(tenant.clone()).or_default();
            let verdict = Self::judge(&self.config, state, stat, alert);
            let gauge = match &verdict {
                SentinelVerdict::Regressed { .. } => 2,
                _ if state.armed.is_some() => 1,
                _ => 0,
            };
            if tenant.is_empty() {
                tel::metrics::gauge_set("sentinel.state", gauge);
            } else {
                tel::metrics::gauge_set_labeled("sentinel.state", &[("tenant", &tenant)], gauge);
            }
            out.push(TenantVerdict {
                tenant,
                verdict,
                alert,
            });
        }
        out
    }

    /// Closes one observation window: journals every firing SLO alert
    /// (see [`aim_telemetry::slo`]), judges every tenant series with
    /// [`Self::observe_window_all`] — a firing alert on the watched
    /// histogram regresses an armed tenant even if this window's statistic
    /// alone would pass — and rolls each regressed tenant's suspect indexes
    /// back on that tenant's database only. Every rollback is journaled
    /// and handed to `annotate` with its decision-ledger text. Returns
    /// `(tenant, index name)` per rolled-back index.
    pub(crate) fn close_window(
        &mut self,
        window: &Window,
        dbs: &mut (impl TenantDatabases + ?Sized),
        mut annotate: impl FnMut(&IndexDef, String),
    ) -> Vec<(String, String)> {
        let mut firing: BTreeSet<String> = BTreeSet::new();
        for status in tel::slo::evaluate() {
            if !status.firing {
                continue;
            }
            let tenant = status.tenant.clone().unwrap_or_default();
            tel::event(
                tel::EventKind::SloAlert,
                &status.rule,
                format!(
                    "tenant \"{tenant}\" {}: current {:.1} over target {:.1}, \
                     burn rate fast {:.2} / slow {:.2}",
                    status.metric, status.current, status.target,
                    status.fast_burn, status.slow_burn
                ),
            );
            if status.metric == self.config.histogram {
                firing.insert(tenant);
            }
        }
        let mut rolled = Vec::new();
        for tv in self.observe_window_all(window, &firing) {
            let SentinelVerdict::Regressed {
                current,
                baseline,
                suspects,
            } = tv.verdict
            else {
                continue;
            };
            let Some(db) = dbs.database(&tv.tenant) else {
                continue;
            };
            let _rollback_span = tel::span("regression_rollback");
            tel::metrics::REGRESSIONS_DETECTED.incr();
            let attribution = if tv.alert {
                " (SLO alert-attributed)"
            } else {
                ""
            };
            let series = if tv.tenant.is_empty() {
                "all-tenant".to_string()
            } else {
                format!("tenant \"{}\"", tv.tenant)
            };
            for name in suspects {
                let Some(def) = drop_index_named(db, &name) else {
                    continue;
                };
                tel::metrics::counter_add("sentinel.rollbacks", 1);
                tel::event(
                    tel::EventKind::RegressionRollback,
                    &def.name,
                    format!(
                        "{series} windowed select-latency regressed \
                         ({baseline:.1} -> {current:.1}){attribution}; rolling \
                         back the materialization that armed the sentinel"
                    ),
                );
                annotate(
                    &def,
                    format!(
                        "latency sentinel{attribution}: {series} windowed \
                         select-latency {current:.1} exceeded the EWMA baseline \
                         {baseline:.1} within the post-materialization watch"
                    ),
                );
                rolled.push((tv.tenant.clone(), def.name));
            }
        }
        rolled
    }
}

/// The databases a window's verdicts apply to: the one database every
/// tenant label lives on (a continuous tuner's), or a fleet's, each tenant
/// on its own.
pub(crate) trait TenantDatabases {
    fn database(&mut self, tenant: &str) -> Option<&mut Database>;
}

impl TenantDatabases for Database {
    fn database(&mut self, _tenant: &str) -> Option<&mut Database> {
        Some(self)
    }
}

/// Drops the index called `name`, whichever table holds it. `None` when
/// there is no such index or the drop failed.
pub(crate) fn drop_index_named(db: &mut Database, name: &str) -> Option<IndexDef> {
    let def = db.all_indexes().into_iter().find(|d| d.name == name)?;
    db.drop_index(&def.table, &def.name).ok()?;
    Some(def)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_telemetry::metrics::Series;
    use aim_telemetry::timeseries::WindowHistogram;

    fn window(count: u64, p99: f64) -> Window {
        Window {
            index: 0,
            label: "test".into(),
            duration: std::time::Duration::from_secs(1),
            counters: Vec::new(),
            histograms: vec![(
                "exec.select_cost".into(),
                WindowHistogram {
                    count,
                    sum: p99 * count as f64,
                    p50: p99 * 0.5,
                    p90: p99 * 0.9,
                    p99,
                },
            )],
        }
    }

    fn tenant_window(series: &[(&str, u64, f64)]) -> Window {
        Window {
            index: 0,
            label: "test".into(),
            duration: std::time::Duration::from_secs(1),
            counters: Vec::new(),
            histograms: series
                .iter()
                .map(|(tenant, count, p99)| {
                    let series = if tenant.is_empty() {
                        Series::from("exec.select_cost")
                    } else {
                        Series::new("exec.select_cost", &[("tenant", tenant)])
                    };
                    (
                        series,
                        WindowHistogram {
                            count: *count,
                            sum: p99 * *count as f64,
                            p50: p99 * 0.5,
                            p90: p99 * 0.9,
                            p99: *p99,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn idle_windows_build_an_ewma_baseline() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        assert_eq!(s.observe_window(&window(10, 100.0)), SentinelVerdict::Idle);
        assert_eq!(s.baseline(), Some(100.0));
        s.observe_window(&window(10, 200.0));
        // alpha 0.3: 0.3*200 + 0.7*100 = 130.
        assert!((s.baseline().unwrap() - 130.0).abs() < 1e-9);
        assert_eq!(s.windows_observed(), 2);
    }

    #[test]
    fn sparse_windows_are_ignored() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        assert_eq!(
            s.observe_window(&window(2, 1e9)),
            SentinelVerdict::Insufficient
        );
        assert_eq!(s.baseline(), None);
        // While armed, a sparse window burns no grace.
        s.observe_window(&window(10, 100.0));
        s.arm(vec!["aim_t_a".into()]);
        assert_eq!(
            s.observe_window(&window(1, 1e9)),
            SentinelVerdict::Insufficient
        );
        assert!(s.is_armed());
    }

    #[test]
    fn armed_regression_names_the_suspects_once() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        s.observe_window(&window(10, 100.0));
        s.arm(vec!["aim_t_a".into(), "aim_t_ab".into()]);
        let verdict = s.observe_window(&window(10, 151.0));
        match verdict {
            SentinelVerdict::Regressed {
                current,
                baseline,
                suspects,
            } => {
                assert!((current - 151.0).abs() < 1e-9);
                assert!((baseline - 100.0).abs() < 1e-9);
                assert_eq!(suspects, vec!["aim_t_a", "aim_t_ab"]);
            }
            other => panic!("expected a regression, got {other:?}"),
        }
        // Disarmed after firing; the regressed window never polluted the
        // baseline.
        assert!(!s.is_armed());
        assert_eq!(s.baseline(), Some(100.0));
        assert_eq!(s.observe_window(&window(10, 100.0)), SentinelVerdict::Idle);
    }

    #[test]
    fn clean_windows_clear_then_disarm() {
        let mut s = LatencySentinel::new(SentinelConfig {
            arm_windows: 2,
            ..SentinelConfig::default()
        });
        s.observe_window(&window(10, 100.0));
        s.arm(vec!["aim_t_a".into()]);
        assert_eq!(
            s.observe_window(&window(10, 110.0)),
            SentinelVerdict::Cleared
        );
        assert!(s.is_armed());
        assert_eq!(
            s.observe_window(&window(10, 105.0)),
            SentinelVerdict::Disarmed
        );
        assert!(!s.is_armed());
        // Clean armed windows do feed the baseline.
        assert!(s.baseline().unwrap() > 100.0);
    }

    #[test]
    fn arming_with_no_suspects_is_a_noop() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        s.arm(Vec::new());
        assert!(!s.is_armed());
    }

    #[test]
    fn per_tenant_baselines_are_independent() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        let none = BTreeSet::new();
        s.observe_window_all(&tenant_window(&[("a", 10, 100.0), ("b", 10, 5000.0)]), &none);
        assert_eq!(s.baseline_for("a"), Some(100.0));
        assert_eq!(s.baseline_for("b"), Some(5000.0));
        // Tenant b's high latency is its own normal; arming b and holding
        // steady clears, while a regressing trips only a.
        s.arm_tenant("a", vec!["aim_a_x".into()]);
        s.arm_tenant("b", vec!["aim_b_y".into()]);
        let verdicts =
            s.observe_window_all(&tenant_window(&[("a", 10, 400.0), ("b", 10, 5100.0)]), &none);
        let of = |t: &str, v: &[TenantVerdict]| {
            v.iter().find(|tv| tv.tenant == t).unwrap().verdict.clone()
        };
        match of("a", &verdicts) {
            SentinelVerdict::Regressed { suspects, .. } => {
                assert_eq!(suspects, vec!["aim_a_x"]);
            }
            other => panic!("tenant a should regress, got {other:?}"),
        }
        assert_eq!(of("b", &verdicts), SentinelVerdict::Cleared);
        assert!(s.is_armed_for("b"));
        assert!(!s.is_armed_for("a"));
    }

    #[test]
    fn firing_alert_forces_an_armed_regression_and_freezes_idle_baselines() {
        let mut s = LatencySentinel::new(SentinelConfig::default());
        let mut firing = BTreeSet::new();
        s.observe_window_all(&tenant_window(&[("a", 10, 100.0), ("b", 10, 100.0)]), &firing);
        s.arm_tenant("a", vec!["aim_a_x".into()]);
        firing.insert("a".to_string());
        firing.insert("b".to_string());
        // Within EWMA tolerance (120 < 150) — the alert still fires a.
        let verdicts =
            s.observe_window_all(&tenant_window(&[("a", 10, 120.0), ("b", 10, 120.0)]), &firing);
        let a = verdicts.iter().find(|tv| tv.tenant == "a").unwrap();
        assert!(a.alert);
        assert!(matches!(a.verdict, SentinelVerdict::Regressed { .. }));
        // b is not armed: nothing to roll back, and its baseline did not
        // absorb the alert-tainted window.
        let b = verdicts.iter().find(|tv| tv.tenant == "b").unwrap();
        assert_eq!(b.verdict, SentinelVerdict::Idle);
        assert_eq!(s.baseline_for("b"), Some(100.0));
    }
}
