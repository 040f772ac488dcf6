//! Deterministic fault injection for chaos-testing the tuning pipeline.
//!
//! Production index automation must survive optimizer errors, failed index
//! builds, unavailable clone providers and corrupted statistics without
//! ever leaving the database inconsistent. This module provides a seeded
//! [`FaultPlan`] that can be *armed* process-wide: instrumented operation
//! sites (`storage.create_index`, `storage.clone`, `storage.analyze`,
//! `exec.whatif`, `exec.execute`, ...) consult [`hit`] and, when a rule
//! matches, fail, stall, or corrupt deterministically.
//!
//! The layer is compiled in unconditionally but is zero-cost while
//! disarmed: [`hit`] is a single relaxed atomic load on that path, so the
//! production hot paths pay nothing. Every decision an armed plan makes is
//! a pure function of `(seed, site, per-site call number)`, which makes
//! fault schedules replayable: the same plan against the same workload
//! injects exactly the same faults.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// What an injected fault does at its operation site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with [`crate::StorageError::FaultInjected`] (or
    /// the execution-layer equivalent).
    Fail,
    /// The operation stalls for this many milliseconds, then proceeds
    /// normally (the sleep happens inside [`hit`]).
    Latency(u64),
    /// Freshly computed statistics are replaced with garbage before being
    /// installed (only meaningful at `storage.analyze`).
    CorruptStats,
}

/// One rule of a [`FaultPlan`]: where, what, and how often to inject.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation site this rule arms, e.g. `"storage.create_index"`.
    pub site: String,
    pub kind: FaultKind,
    /// Skip the first `after` calls at the site before becoming eligible.
    pub after: u64,
    /// Inject at most this many times; `u64::MAX` = unbounded.
    pub limit: u64,
    /// Chance of injecting on each eligible call, decided deterministically
    /// from the plan seed, the site and the call number. `1.0` = always.
    pub probability: f64,
}

/// A seeded, replayable schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds an arbitrary rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Fail `site` on every call after the first `after`, at most `limit`
    /// times.
    pub fn fail(self, site: &str, after: u64, limit: u64) -> Self {
        self.rule(FaultRule {
            site: site.to_string(),
            kind: FaultKind::Fail,
            after,
            limit,
            probability: 1.0,
        })
    }

    /// Fail `site` with the given per-call probability (seeded, so the
    /// exact schedule is still deterministic).
    pub fn fail_with_probability(self, site: &str, probability: f64, limit: u64) -> Self {
        self.rule(FaultRule {
            site: site.to_string(),
            kind: FaultKind::Fail,
            after: 0,
            limit,
            probability,
        })
    }

    /// Stall `site` for `ms` milliseconds on each eligible call.
    pub fn delay_ms(self, site: &str, ms: u64, after: u64, limit: u64) -> Self {
        self.rule(FaultRule {
            site: site.to_string(),
            kind: FaultKind::Latency(ms),
            after,
            limit,
            probability: 1.0,
        })
    }

    /// Corrupt statistics computed at `site` (normally `storage.analyze`).
    pub fn corrupt_stats(self, site: &str, after: u64, limit: u64) -> Self {
        self.rule(FaultRule {
            site: site.to_string(),
            kind: FaultKind::CorruptStats,
            after,
            limit,
            probability: 1.0,
        })
    }
}

/// One injected fault, for post-run assertions and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    pub site: String,
    /// 1-based call number at the site when the fault fired.
    pub call: u64,
    pub kind: FaultKind,
}

#[derive(Debug, Default)]
struct Armed {
    plan: FaultPlan,
    /// Per-site call counts since arming.
    calls: BTreeMap<String, u64>,
    /// Per-rule injection counts (indexed like `plan.rules`).
    injected: Vec<u64>,
    log: Vec<Injection>,
}

/// Fast-path gate: a relaxed load is all a disarmed process ever pays.
static ARMED: AtomicBool = AtomicBool::new(false);
static STATE: Mutex<Option<Armed>> = Mutex::new(None);

/// Arms `plan` process-wide, resetting all call counters and the injection
/// log. Replaces any previously armed plan.
pub fn arm(plan: FaultPlan) {
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let injected = vec![0; plan.rules.len()];
    *guard = Some(Armed {
        plan,
        calls: BTreeMap::new(),
        injected,
        log: Vec::new(),
    });
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms fault injection and returns the log of everything injected
/// since [`arm`].
pub fn disarm() -> Vec<Injection> {
    ARMED.store(false, Ordering::SeqCst);
    let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.take().map(|a| a.log).unwrap_or_default()
}

/// True while a plan is armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Snapshot of the injection log of the currently armed plan.
pub fn injections() -> Vec<Injection> {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|a| a.log.clone()).unwrap_or_default()
}

/// Number of faults injected by the currently armed plan.
pub fn injection_count() -> usize {
    let guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(|a| a.log.len()).unwrap_or(0)
}

/// Test support: takes a test's turn at the process-global fault registry
/// and guarantees a clean slate on entry and (via drop) on exit, even when
/// the test panics.
pub struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultGuard {
    pub fn acquire() -> Self {
        static TURN: Mutex<()> = Mutex::new(());
        let turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        Self(turn)
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// splitmix64: the deterministic coin for probabilistic rules.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Consults the armed plan at an operation site. Returns the fault to
/// apply, if any; [`FaultKind::Latency`] sleeps *here* (outside the state
/// lock) and is also returned so callers may journal it. Disarmed, this is
/// one relaxed atomic load.
#[inline]
pub fn hit(site: &str) -> Option<FaultKind> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    // This crate's unit tests share one process: a plan armed by one test
    // must not fire in the I/O of a test running beside it.
    #[cfg(test)]
    if !tests::lock_held_by_this_thread() {
        return None;
    }
    hit_slow(site)
}

#[cold]
fn hit_slow(site: &str) -> Option<FaultKind> {
    let kind = {
        let mut guard = STATE.lock().unwrap_or_else(|e| e.into_inner());
        let armed = guard.as_mut()?;
        let call = armed.calls.entry(site.to_string()).or_insert(0);
        *call += 1;
        let call = *call;
        let seed = armed.plan.seed;
        let mut fired: Option<(usize, FaultKind)> = None;
        for (i, rule) in armed.plan.rules.iter().enumerate() {
            if rule.site != site || call <= rule.after || armed.injected[i] >= rule.limit {
                continue;
            }
            if rule.probability < 1.0 {
                let u = (mix(seed ^ fnv(site) ^ call) >> 11) as f64 / (1u64 << 53) as f64;
                if u >= rule.probability {
                    continue;
                }
            }
            fired = Some((i, rule.kind));
            break;
        }
        let (i, kind) = fired?;
        armed.injected[i] += 1;
        armed.log.push(Injection {
            site: site.to_string(),
            call,
            kind,
        });
        kind
    };
    // Latency is served after the state lock is released so concurrent
    // sites are not serialized behind a sleeping injector.
    if let FaultKind::Latency(ms) = kind {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    Some(kind)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::{Mutex as TestMutex, OnceLock};

    thread_local! {
        static HOLDS_LOCK: Cell<bool> = const { Cell::new(false) };
    }

    /// Held by a test while it arms faults; only that test's thread sees
    /// them fire.
    pub(crate) struct FaultLock(#[allow(dead_code)] MutexGuard<'static, ()>);

    impl Drop for FaultLock {
        fn drop(&mut self) {
            HOLDS_LOCK.with(|h| h.set(false));
        }
    }

    /// Fault state is process-global; tests touching it serialize here.
    pub(crate) fn lock() -> FaultLock {
        static GUARD: OnceLock<TestMutex<()>> = OnceLock::new();
        let guard = GUARD
            .get_or_init(|| TestMutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        HOLDS_LOCK.with(|h| h.set(true));
        FaultLock(guard)
    }

    pub(crate) fn lock_held_by_this_thread() -> bool {
        HOLDS_LOCK.with(Cell::get)
    }

    #[test]
    fn disarmed_is_silent() {
        let _g = lock();
        disarm();
        assert!(!is_armed());
        assert_eq!(hit("storage.create_index"), None);
        assert!(injections().is_empty());
    }

    #[test]
    fn trigger_counts_and_limits_respected() {
        let _g = lock();
        arm(FaultPlan::new(1).fail("s", 2, 2));
        assert_eq!(hit("s"), None); // call 1 <= after
        assert_eq!(hit("s"), None); // call 2 <= after
        assert_eq!(hit("s"), Some(FaultKind::Fail)); // call 3
        assert_eq!(hit("s"), Some(FaultKind::Fail)); // call 4
        assert_eq!(hit("s"), None); // limit exhausted
        assert_eq!(hit("other"), None); // site mismatch
        let log = disarm();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0], Injection { site: "s".into(), call: 3, kind: FaultKind::Fail });
    }

    #[test]
    fn probabilistic_schedule_is_deterministic() {
        let _g = lock();
        let run = |seed: u64| {
            arm(FaultPlan::new(seed).fail_with_probability("p", 0.5, u64::MAX));
            let fired: Vec<bool> = (0..64).map(|_| hit("p").is_some()).collect();
            disarm();
            fired
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule (w.h.p.)");
        let n = a.iter().filter(|f| **f).count();
        assert!((8..56).contains(&n), "~50% fire rate, got {n}/64");
    }

    #[test]
    fn arming_replaces_previous_plan() {
        let _g = lock();
        arm(FaultPlan::new(1).fail("x", 0, u64::MAX));
        assert_eq!(hit("x"), Some(FaultKind::Fail));
        arm(FaultPlan::new(1).fail("y", 0, u64::MAX));
        assert_eq!(hit("x"), None, "old rule gone");
        assert_eq!(hit("y"), Some(FaultKind::Fail));
        assert_eq!(injection_count(), 1, "log reset on re-arm");
        disarm();
    }

    #[test]
    fn latency_rule_sleeps_and_reports() {
        let _g = lock();
        arm(FaultPlan::new(1).delay_ms("slow", 5, 0, 1));
        let t0 = std::time::Instant::now();
        assert_eq!(hit("slow"), Some(FaultKind::Latency(5)));
        assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
        assert_eq!(hit("slow"), None);
        disarm();
    }
}
