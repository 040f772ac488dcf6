//! Counters, gauges and histograms in one dimensional series store.
//!
//! A *series* is an instrument name plus a small bounded label set
//! (`tenant`, `phase`, `backend`); the flat series of a name is its empty
//! label set. Every series owns one *cell* in a lock-sharded map keyed by
//! the name and the interned label values, and an observation writes
//! exactly one cell: the one for the calling thread's current label set —
//! empty outside a [`TelemetryScope`], the scope's tenant (and phase)
//! inside one, or whatever an explicit `*_labeled` call names. That costs
//! one shard lock and one map probe, and allocates nothing once the series
//! exists. The well-known [`Counter`]s of the advisor pipeline keep an
//! atomic as their empty-label cell, so an unscoped `add` is one relaxed
//! add and no lock.
//!
//! Nothing is stored twice. The all-tenant total of a counter or histogram
//! is *derived when read* ([`snapshot`], [`Counter::get`]): the name's
//! empty-label cell plus every labeled cell of that name, fold bucket
//! included, served under the bare name. A gauge has no sum; its bare name
//! holds unscoped writes only.
//!
//! A hard cardinality cap bounds memory: once [`DEFAULT_SERIES_CAP`] labeled
//! series exist, new ones deterministically fold their `tenant` label into
//! `"__other__"` and bump `telemetry.series_dropped`. Everything is a no-op
//! while telemetry is disabled.
//!
//! Readers get series as values ([`Series`]: name + label pairs). The
//! `name{k="v",…}` text is written by `write_labels` at the output edges
//! — artifact keys, `render_counters`, the Prometheus exposition — and
//! never read back.

use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A monotonically increasing counter of the fixed taxonomy. Its atomic is
/// the lock-free cell of the empty label set.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Const-constructible so counters can be statics. `help` is the
    /// one-line `# HELP` text of the exposition.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while telemetry is disabled) to the cell of the
    /// calling thread's label set: the atomic outside a [`TelemetryScope`],
    /// the scope's series inside one.
    pub fn add(&self, n: u64) {
        if crate::is_enabled() {
            match current_scope() {
                None => {
                    self.value.fetch_add(n, Ordering::Relaxed);
                }
                Some(sc) => {
                    write(counters, sc.key(self.name), |c| *c += n);
                }
            }
        }
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The all-tenant total, as [`snapshot`] derives it: the atomic plus
    /// every series of this name.
    pub fn get(&self) -> u64 {
        snapshot().counter(self.name).unwrap_or(0)
    }
}

// ------------------------------------------------------------ taxonomy
// The fixed instrument set wired through the workspace, one line each:
// the static, its served name and its `# HELP` text. Names are
// `layer.instrument`; layers mirror the crates.

macro_rules! builtin_counters {
    ($($(#[$doc:meta])* $ident:ident = $name:literal, $help:literal;)*) => {
        $($(#[$doc])* pub static $ident: Counter = Counter::new($name, $help);)*
        static BUILTIN: &[&Counter] = &[$(&$ident),*];
    };
}

builtin_counters! {
    /// Optimizer what-if invocations (advisory plans + DML maintenance costing).
    WHATIF_CALLS = "exec.whatif_calls",
        "Optimizer what-if invocations (advisory plans + DML costing).";
    /// What-if evaluations answered from the memo cache (optimizer calls saved).
    WHATIF_CACHE_HITS = "exec.whatif_cache_hits",
        "What-if evaluations answered from the memo cache.";
    WHATIF_CACHE_MISSES = "exec.whatif_cache_misses",
        "What-if evaluations that missed the memo cache.";
    PLANS_EVALUATED = "exec.plans_evaluated", "Planner invocations, advisory and execution-bound.";
    STATEMENTS_EXECUTED = "exec.statements", "Statements run by the executor.";
    ROWS_READ = "exec.rows_read", "Rows examined by the executor.";
    PAGES_READ = "exec.pages_read", "Pages read by the executor.";
    INDEX_SEEKS = "exec.seeks", "B+-tree descents performed by the executor.";
    MONITOR_RECORDS = "monitor.records", "Executions ingested by the workload monitor.";
    CANDIDATES_GENERATED = "aim.candidates_generated",
        "Candidate indexes produced by structural generation.";
    PO_MERGES = "aim.partial_order_merges", "Pairwise partial-order merges that succeeded.";
    VALIDATION_ROUNDS = "aim.validation_rounds", "Clone-validation rounds executed.";
    VALIDATION_EXECUTED = "aim.validation_executed",
        "Statements clone validation executed on its test bed.";
    /// Replayed statements clone validation did not execute: their plan had
    /// already been measured on the same test bed.
    VALIDATION_REUSED = "aim.validation_reused",
        "Replayed statements answered from an already-measured plan.";
    INDEXES_CREATED = "aim.indexes_created", "Indexes materialized on production by tuning passes.";
    /// Candidates rejected (validation or materialization).
    INDEXES_REJECTED = "aim.indexes_rejected",
        "Candidates rejected during validation or materialization.";
    REGRESSIONS_DETECTED = "aim.regressions_detected",
        "Regressions flagged by the continuous detector.";
    /// Passes aborted (deadline, cancellation, or an injected fault) and
    /// rolled back.
    PASSES_ABORTED = "aim.passes_aborted", "Passes aborted and rolled back.";
    /// Batched what-if evaluations (one per `eval_select_batch` call).
    SELECTION_BATCHES = "selection.batch.count", "Batched what-if evaluations.";
    /// Batch members that reused the batch's shared binding / predicate /
    /// selectivity derivation instead of re-deriving it from scratch
    /// (planner passes beyond a batch's first).
    SELECTION_BATCH_BINDING_REUSE = "selection.batch.binding_reuse",
        "Batch members reusing the shared binding derivation.";
    /// Batch members served by an identical-projection plan from the same
    /// batch without any planner pass at all.
    SELECTION_BATCH_PLAN_REUSE = "selection.batch.plan_reuse",
        "Batch members served by an identical-projection plan.";
    SELECTION_LP_ITERATIONS = "selection.lp.iterations",
        "Simplex iterations performed by the LP selector.";
    FLEET_SHARDS_TUNED = "fleet.shards_tuned", "Tenant tuning passes completed inside fleet runs.";
    /// Tenants granted more than the uniform per-shard budget share by the
    /// fleet-level knapsack allocation.
    FLEET_BUDGET_TRANSFERS = "fleet.budget_transfers",
        "Tenants granted more than the uniform budget share.";
    /// Tenant tuning passes that failed inside a fleet run (the fleet
    /// continues; the failure is isolated to the tenant).
    FLEET_TENANT_FAILURES = "fleet.tenant_failures",
        "Tenant tuning passes that failed inside fleet runs.";
    /// Labeled observations whose new series would exceed the cardinality cap
    /// and were folded into the `tenant="__other__"` bucket instead.
    SERIES_DROPPED = "telemetry.series_dropped",
        "Labeled observations folded into tenant=__other__ by the cardinality cap.";
}

/// The fallback HELP line for names nobody registered a description for.
const HELP_FALLBACK: &str = "AIM telemetry instrument (no description registered).";

/// Whether the instrument `name` has a registered, non-generic HELP
/// description. The exposition well-formedness test uses this to catch
/// new instruments that ship without documentation.
pub fn has_help(name: &str) -> bool {
    help_for(name) != HELP_FALLBACK
}

/// One-line description of an instrument, for the Prometheus `# HELP`
/// exposition: the fixed taxonomy describes itself, the well-known ad-hoc
/// names are listed here, and anything else gets a generic line (the
/// exposition format requires *some* HELP text, not a registry).
pub fn help_for(name: &str) -> &'static str {
    if let Some(c) = BUILTIN.iter().find(|c| c.name == name) {
        return c.help;
    }
    match name {
        "exec.select_cost" => "Estimated cost of executed SELECT statements (latency proxy).",
        "fleet.tenant_duration" => "Per-tenant tuning wall clock inside fleet runs (ms).",
        "fleet.budget_granted_bytes" => "Storage budget granted to a tenant by fleet allocation.",
        "fleet.budget_used_bytes" => "Secondary-index bytes actually built for a tenant.",
        "telemetry.series_active" => "Distinct labeled series currently tracked.",
        "aim.candidate_width" => "Column width of generated candidate indexes.",
        "selection.batch.size" => {
            "Hypothetical index configurations costed per batched what-if call."
        }
        "db.index_bytes" => "Estimated bytes across all indexes on the tuned database.",
        "db.secondary_index_bytes" => "Estimated bytes across secondary indexes (budget basis).",
        "exec.whatif_cost" => "Estimated cost of what-if-priced statements.",
        "monitor.selected_queries" => "Statements selected by the monitor for tuning windows.",
        "monitor.window_queries" => "Statements observed in the current monitor window.",
        "storage.bp.hit" => "Buffer-pool page hits.",
        "storage.bp.miss" => "Buffer-pool page misses (disk reads).",
        "storage.bp.evict" => "Buffer-pool page evictions.",
        "storage.wal.bytes" => "Bytes appended to the write-ahead log.",
        "storage.wal.fsyncs" => "WAL fsync batches issued.",
        _ => HELP_FALLBACK,
    }
}

// ----------------------------------------------------------- histograms

const HISTOGRAM_BUCKETS: usize = 40;

#[derive(Debug, Clone)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// `buckets[i]` counts values in `(2^(i-1), 2^i]`; bucket 0 is `<= 1`.
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let idx = if v <= 1.0 {
            0
        } else {
            (v.log2().ceil() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
    }

    /// Adds `other`'s observations to this histogram.
    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// `(inclusive upper bound, count)` for non-empty buckets.
    pub buckets: Vec<(f64, u64)>,
    /// Median estimate interpolated from the log₂ buckets.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the log₂ bucket holding the target rank. The true value lies
    /// somewhere in `(upper/2, upper]`, so the estimate is off by at most
    /// one bucket width; the observed `min`/`max` clamp the extremes.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            let before = cum as f64;
            cum += n;
            if cum as f64 >= target {
                let lower = if upper <= 1.0 { 0.0 } else { upper / 2.0 };
                let frac = ((target - before) / n as f64).clamp(0.0, 1.0);
                let est = lower + frac * (upper - lower);
                return est.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------- series store

/// Interned label-value handle. Values are interned once (at scope
/// creation or on an explicit labeled call) so series keys compare as
/// integers on the hot path, never strings.
type Sym = u32;

/// Label values by symbol. Append-only for the life of the process —
/// [`reset`] leaves it alone — so a symbol never changes its meaning and a
/// scope that outlives a reset keeps labeling with its own tenant.
struct Interner {
    map: BTreeMap<String, Sym>,
    values: Vec<String>,
}

static INTERNER: Mutex<Interner> = Mutex::new(Interner {
    map: BTreeMap::new(),
    values: Vec::new(),
});

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn intern(value: &str) -> Sym {
    let mut int = lock(&INTERNER);
    if let Some(&s) = int.map.get(value) {
        return s;
    }
    let s = int.values.len() as Sym;
    int.values.push(value.to_string());
    int.map.insert(value.to_string(), s);
    s
}

/// The tenant bucket that over-cap series fold into.
pub const OTHER_TENANT: &str = "__other__";

/// Default hard cap on distinct labeled series across all shards.
pub const DEFAULT_SERIES_CAP: usize = 512;

/// Labels one series can carry (DESIGN §13 names three: `tenant`, `phase`,
/// `backend`); an explicit `*_labeled` call's labels beyond this many, in
/// key order, are ignored.
const MAX_LABELS: usize = 3;

/// Inline room per key: [`MAX_LABELS`] plus the `tenant` a fold adds to a
/// label set that had none.
const LABEL_SLOTS: usize = MAX_LABELS + 1;

static SERIES_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_SERIES_CAP);
static SERIES_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Sets the cardinality cap. Existing series are never evicted; only the
/// admission of *new* series consults the cap.
pub fn set_series_cap(cap: usize) {
    SERIES_CAP.store(cap, Ordering::Relaxed);
}

/// Distinct labeled series currently tracked (including fold buckets).
/// Empty-label cells are not counted and not capped: their number is
/// bounded by the instrument names in the code.
pub fn series_count() -> usize {
    SERIES_COUNT.load(Ordering::Relaxed)
}

/// Where a cell lives: the instrument name and up to [`LABEL_SLOTS`]
/// `(label key, interned value)` pairs sorted by label key, held inline so
/// building a key allocates nothing. Unused slots hold `("", 0)`, which
/// makes the bare key the smallest of its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: &'static str,
    len: usize,
    labels: [(&'static str, Sym); LABEL_SLOTS],
}

impl SeriesKey {
    fn bare(name: &'static str) -> Self {
        Self {
            name,
            len: 0,
            labels: [("", 0); LABEL_SLOTS],
        }
    }

    fn push(&mut self, key: &'static str, value: Sym) {
        self.labels[self.len] = (key, value);
        self.len += 1;
        self.labels[..self.len].sort_unstable_by_key(|&(k, _)| k);
    }

    fn labels(&self) -> &[(&'static str, Sym)] {
        &self.labels[..self.len]
    }

    /// This key with its `tenant` label replaced by (or set to) `tenant`.
    fn with_tenant(mut self, tenant: Sym) -> Self {
        match self.labels[..self.len]
            .iter_mut()
            .find(|(k, _)| *k == "tenant")
        {
            Some(slot) => slot.1 = tenant,
            None => self.push("tenant", tenant),
        }
        self
    }

    fn shard(&self) -> usize {
        // FNV-1a over the name bytes, label keys and value symbols.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        self.name.bytes().for_each(&mut eat);
        for (k, v) in self.labels() {
            k.bytes().for_each(&mut eat);
            v.to_le_bytes().into_iter().for_each(&mut eat);
        }
        (h as usize) % SHARDS.len()
    }
}

/// The one map type of the store: a series' cell by its key.
type SeriesMap<T> = BTreeMap<SeriesKey, T>;

struct Shard {
    counters: SeriesMap<u64>,
    gauges: SeriesMap<i64>,
    histograms: SeriesMap<Histogram>,
}

impl Shard {
    const fn new() -> Self {
        Self {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }
}

static SHARDS: [Mutex<Shard>; 8] = [const { Mutex::new(Shard::new()) }; 8];

fn counters(s: &mut Shard) -> &mut SeriesMap<u64> {
    &mut s.counters
}

fn gauges(s: &mut Shard) -> &mut SeriesMap<i64> {
    &mut s.gauges
}

fn histograms(s: &mut Shard) -> &mut SeriesMap<Histogram> {
    &mut s.histograms
}

/// Claims one cap slot for a new series; `false` means the cap is full
/// and the caller must fold.
fn try_claim_series_slot() -> bool {
    let cap = SERIES_CAP.load(Ordering::Relaxed);
    let prev = SERIES_COUNT.fetch_add(1, Ordering::Relaxed);
    if prev < cap {
        true
    } else {
        SERIES_COUNT.fetch_sub(1, Ordering::Relaxed);
        false
    }
}

/// The one write of the store; every entry point ends here. Applies the
/// observation to the cell of `key`: in place when the series exists,
/// after admitting it when the cap allows (the empty label set is always
/// admitted), otherwise to the series with the `tenant` label folded into
/// [`OTHER_TENANT`]. Returns whether the observation created its series.
///
/// At most one shard lock is held at a time (the fold re-probes under its
/// own lock), so shard order can never deadlock. Fold buckets are always
/// admitted — their cardinality is bounded by the non-tenant label space —
/// and each folded observation bumps `telemetry.series_dropped`, on its
/// atomic, so a fold can never recurse into another fold.
fn write<T: Default>(
    cells: fn(&mut Shard) -> &mut SeriesMap<T>,
    key: SeriesKey,
    apply: impl FnOnce(&mut T),
) -> bool {
    {
        let mut shard = lock(&SHARDS[key.shard()]);
        let cells = cells(&mut shard);
        if let Some(cell) = cells.get_mut(&key) {
            apply(cell);
            return false;
        }
        if key.len == 0 || try_claim_series_slot() {
            apply(cells.entry(key).or_default());
            return true;
        }
    }
    // Over the cap: fold deterministically into tenant="__other__".
    SERIES_DROPPED.value.fetch_add(1, Ordering::Relaxed);
    let folded = key.with_tenant(intern(OTHER_TENANT));
    let mut shard = lock(&SHARDS[folded.shard()]);
    match cells(&mut shard).entry(folded) {
        Entry::Occupied(cell) => {
            apply(cell.into_mut());
            false
        }
        Entry::Vacant(slot) => {
            SERIES_COUNT.fetch_add(1, Ordering::Relaxed);
            apply(slot.insert(T::default()));
            true
        }
    }
}

/// An observation of an ad-hoc counter or histogram on the calling
/// thread's label set. A scoped observation that creates its series also
/// registers the name's empty-label cell, at zero: that cell is what makes
/// [`snapshot`] serve the name's all-tenant total under the bare name.
/// Explicit `*_labeled` calls name their own series and register nothing.
fn observe<T: Default>(
    cells: fn(&mut Shard) -> &mut SeriesMap<T>,
    name: &'static str,
    apply: impl FnOnce(&mut T),
) {
    let key = scope_key(name);
    if write(cells, key, apply) && key.len > 0 {
        write(cells, SeriesKey::bare(name), |_| {});
    }
}

/// Adds to an ad-hoc named counter, on the calling thread's label set.
pub fn counter_add(name: &'static str, n: u64) {
    if crate::is_enabled() {
        observe(counters, name, |c| *c += n);
    }
}

/// Sets a gauge to an instantaneous value, on the calling thread's label
/// set. A gauge has no all-tenant sum: the bare name holds what was set
/// outside any scope.
pub fn gauge_set(name: &'static str, v: i64) {
    if crate::is_enabled() {
        write(gauges, scope_key(name), |g| *g = v);
    }
}

/// Records one observation into a log₂-bucket histogram, on the calling
/// thread's label set.
pub fn histogram_record(name: &'static str, v: f64) {
    if crate::is_enabled() {
        observe(histograms, name, |h| h.record(v));
    }
}

fn labeled_key(name: &'static str, labels: &[(&'static str, &str)]) -> SeriesKey {
    debug_assert!(
        labels.len() <= MAX_LABELS,
        "{name}: more than {MAX_LABELS} labels"
    );
    let mut key = SeriesKey::bare(name);
    for &(k, v) in labels.iter().take(MAX_LABELS) {
        key.push(k, intern(v));
    }
    key
}

/// Adds to a labeled counter series (no-op while telemetry is disabled).
pub fn counter_add_labeled(name: &'static str, labels: &[(&'static str, &str)], n: u64) {
    if crate::is_enabled() {
        write(counters, labeled_key(name, labels), |c| *c += n);
    }
}

/// Records one observation into a labeled histogram series.
pub fn histogram_record_labeled(name: &'static str, labels: &[(&'static str, &str)], v: f64) {
    if crate::is_enabled() {
        write(histograms, labeled_key(name, labels), |h| h.record(v));
    }
}

// ------------------------------------------------------- telemetry scope

/// Thread-local scope payload: interned tenant + optional phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ScopeData {
    tenant: Sym,
    phase: Option<Sym>,
}

impl ScopeData {
    /// The scope's series of `name`.
    fn key(self, name: &'static str) -> SeriesKey {
        let mut key = SeriesKey::bare(name);
        if let Some(phase) = self.phase {
            key.push("phase", phase);
        }
        key.push("tenant", self.tenant);
        key
    }
}

thread_local! {
    static SCOPE: Cell<Option<ScopeData>> = const { Cell::new(None) };
}

#[inline]
fn current_scope() -> Option<ScopeData> {
    SCOPE.with(|s| s.get())
}

/// The calling thread's series of `name`: bare outside a scope.
fn scope_key(name: &'static str) -> SeriesKey {
    match current_scope() {
        Some(sc) => sc.key(name),
        None => SeriesKey::bare(name),
    }
}

/// RAII guard that scopes every instrument call on this thread to a tenant
/// (and optionally a phase): each observation lands in the
/// `name{tenant="…"}` series instead of the bare one. Scopes nest;
/// dropping restores the previous scope. Creating a scope while telemetry
/// is disabled is free (no interning, no TLS write).
#[derive(Debug)]
pub struct TelemetryScope {
    prev: Option<ScopeData>,
    active: bool,
    /// TLS restoration is thread-affine; keep the guard on its thread.
    _not_send: PhantomData<*const ()>,
}

impl TelemetryScope {
    fn enter(tenant: &str, phase: Option<&str>) -> Self {
        let active = crate::is_enabled();
        let prev = if active {
            let data = ScopeData {
                tenant: intern(tenant),
                phase: phase.map(intern),
            };
            SCOPE.with(|s| s.replace(Some(data)))
        } else {
            None
        };
        Self {
            prev,
            active,
            _not_send: PhantomData,
        }
    }
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        if self.active {
            SCOPE.with(|s| s.set(self.prev));
        }
    }
}

/// Enters a tenant scope (see [`TelemetryScope`]).
pub fn scope(tenant: &str) -> TelemetryScope {
    TelemetryScope::enter(tenant, None)
}

/// Enters a tenant scope with a phase label (`probe`, `tune`, …).
pub fn scope_phase(tenant: &str, phase: &str) -> TelemetryScope {
    TelemetryScope::enter(tenant, Some(phase))
}

// ------------------------------------------------------- series identity

/// Identity of one served series: the instrument name and its label pairs
/// sorted by label key. The empty label set is the name's bare series.
/// `Display` renders `name{k="v",…}`, the text the output edges print.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Series {
    name: &'static str,
    labels: Vec<(&'static str, String)>,
}

impl Series {
    pub fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<_> = labels.iter().map(|&(k, v)| (k, v.to_string())).collect();
        labels.sort_by_key(|&(k, _)| k);
        Self { name, labels }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn labels(&self) -> &[(&'static str, String)] {
        &self.labels
    }

    /// True for the bare (empty label set) series of `name`.
    pub fn is_bare(&self, name: &str) -> bool {
        self.name == name && self.labels.is_empty()
    }

    /// Value of the label `key`, if the series carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl From<&'static str> for Series {
    fn from(name: &'static str) -> Self {
        Self::new(name, &[])
    }
}

impl fmt::Display for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        write_labels(f, self.labels.iter().map(|(k, v)| (*k, v.as_str())))
    }
}

/// Writes a label set as `{k="v",…}` in the order given — nothing when it
/// is empty — with values escaped per Prometheus exposition format 0.0.4:
/// `\` → `\\`, `"` → `\"`, newline → `\n`. The only place label syntax is
/// produced.
pub(crate) fn write_labels<K: AsRef<str>>(
    out: &mut impl fmt::Write,
    labels: impl IntoIterator<Item = (K, impl AsRef<str>)>,
) -> fmt::Result {
    let mut open = false;
    for (k, v) in labels {
        out.write_char(if open { ',' } else { '{' })?;
        open = true;
        out.write_str(k.as_ref())?;
        out.write_str("=\"")?;
        for c in v.as_ref().chars() {
            match c {
                '\\' => out.write_str("\\\\")?,
                '"' => out.write_str("\\\"")?,
                '\n' => out.write_str("\\n")?,
                _ => out.write_char(c)?,
            }
        }
        out.write_char('"')?;
    }
    if open {
        out.write_char('}')?;
    }
    Ok(())
}

/// Point-in-time view of every instrument. Each list holds the fixed
/// taxonomy first (counters only), then the other bare names in name
/// order, then the labeled series in the order of their rendered text.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub counters: Vec<(Series, u64)>,
    pub gauges: Vec<(Series, i64)>,
    pub histograms: Vec<(Series, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter's bare series: its all-tenant total.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counter_labeled(name, &[])
    }

    /// Value of one counter series; `labels` in key order.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let is = |s: &Series| {
            let have = s.labels.iter().map(|(k, v)| (*k, v.as_str()));
            s.name == name && have.eq(labels.iter().copied())
        };
        self.counters.iter().find(|(s, _)| is(s)).map(|(_, v)| *v)
    }
}

/// Orders one instrument kind's cells for serving: the bare names (those
/// with an empty-label cell) — the taxonomy's in its own order, the others
/// by name — then the labeled series in the order of their rendered text.
/// `total` folds each labeled cell into its name's bare entry — the
/// derived all-tenant total, added in served order — and is a no-op for
/// gauges, which have no sum.
fn serve<T>(int: &Interner, cells: Vec<(SeriesKey, T)>, total: fn(&mut T, &T)) -> Vec<(Series, T)> {
    let rank = |name: &'static str| {
        let taxonomy = BUILTIN.iter().position(|c| c.name == name);
        (taxonomy.unwrap_or(BUILTIN.len()), name)
    };
    let mut bare: BTreeMap<(usize, &'static str), T> = BTreeMap::new();
    let mut labeled: Vec<(Series, T)> = Vec::new();
    for (key, cell) in cells {
        if key.len == 0 {
            match bare.entry(rank(key.name)) {
                Entry::Occupied(mut e) => total(e.get_mut(), &cell),
                Entry::Vacant(e) => {
                    e.insert(cell);
                }
            }
            continue;
        }
        let labels = key.labels().iter();
        let labels = labels.map(|&(k, v)| (k, int.values[v as usize].clone()));
        let name = key.name;
        labeled.push((
            Series {
                name,
                labels: labels.collect(),
            },
            cell,
        ));
    }
    labeled.sort_by_cached_key(|(s, _)| s.to_string());
    for (series, cell) in &labeled {
        if let Some(t) = bare.get_mut(&rank(series.name)) {
            total(t, cell);
        }
    }
    let bare = bare
        .into_iter()
        .map(|((_, name), cell)| (Series::from(name), cell));
    bare.chain(labeled).collect()
}

/// Captures all counters, gauges and histograms. Shard locks are taken one
/// at a time and released before the interner's.
pub fn snapshot() -> Snapshot {
    // The atomics of the taxonomy are its empty-label cells.
    let mut counters: Vec<(SeriesKey, u64)> = BUILTIN
        .iter()
        .map(|c| (SeriesKey::bare(c.name), c.value.load(Ordering::Relaxed)))
        .collect();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for shard in &SHARDS {
        let shard = lock(shard);
        counters.extend(shard.counters.iter().map(|(k, v)| (*k, *v)));
        gauges.extend(shard.gauges.iter().map(|(k, v)| (*k, *v)));
        histograms.extend(shard.histograms.iter().map(|(k, h)| (*k, h.clone())));
    }
    let int = lock(&INTERNER);
    let histograms = serve(&int, histograms, Histogram::merge);
    Snapshot {
        counters: serve(&int, counters, |t, v| *t += v),
        gauges: serve(&int, gauges, |_, _| {}),
        histograms: histograms
            .into_iter()
            .map(|(s, h)| (s, histogram_to_snapshot(&h)))
            .collect(),
    }
}

fn histogram_to_snapshot(h: &Histogram) -> HistogramSnapshot {
    let occupied = h.buckets.iter().enumerate().filter(|(_, c)| **c > 0);
    let mut snap = HistogramSnapshot {
        count: h.count,
        sum: h.sum,
        min: h.min,
        max: h.max,
        buckets: occupied.map(|(i, c)| ((1u64 << i) as f64, *c)).collect(),
        ..HistogramSnapshot::default()
    };
    snap.p50 = snap.quantile(0.50);
    snap.p90 = snap.quantile(0.90);
    snap.p99 = snap.quantile(0.99);
    snap
}

/// Zeroes the taxonomy, drops every series and restores the default
/// cardinality cap. Interned label values stay (see `Interner`): a
/// [`TelemetryScope`] alive across the reset keeps its own tenant.
pub fn reset() {
    for c in BUILTIN {
        c.value.store(0, Ordering::Relaxed);
    }
    for shard in &SHARDS {
        *lock(shard) = Shard::new();
    }
    SERIES_COUNT.store(0, Ordering::Relaxed);
    SERIES_CAP.store(DEFAULT_SERIES_CAP, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        WHATIF_CALLS.add(5);
        counter_add("custom.hits", 2);
        gauge_set("custom.depth", -3);
        histogram_record("custom.cost", 0.5);
        histogram_record("custom.cost", 3.0);
        histogram_record("custom.cost", 3000.0);
        crate::disable();

        let s = snapshot();
        assert_eq!(s.counter("exec.whatif_calls"), Some(5));
        assert_eq!(s.counter("custom.hits"), Some(2));
        assert_eq!(s.gauges, vec![(Series::from("custom.depth"), -3)]);
        let (name, h) = &s.histograms[0];
        assert_eq!(*name, Series::from("custom.cost"));
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 3000.0);
        // 0.5 → bucket ≤1; 3.0 → ≤4; 3000 → ≤4096.
        assert_eq!(h.buckets, vec![(1.0, 1), (4.0, 1), (4096.0, 1)]);

        crate::reset();
        assert_eq!(snapshot().counter("exec.whatif_calls"), Some(0));
        assert!(snapshot().histograms.is_empty());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        // 100 observations spread over three decades.
        for i in 1..=100 {
            histogram_record("q.cost", i as f64);
        }
        crate::disable();

        let s = snapshot();
        let (_, h) = &s.histograms[0];
        assert_eq!(h.count, 100);
        // Quantiles are monotone, within [min, max], and roughly placed:
        // the p50 of 1..=100 must land in the (32, 64] bucket.
        assert!(h.p50 <= h.p90 && h.p90 <= h.p99);
        assert!(h.p50 >= h.min && h.p99 <= h.max);
        assert!(h.p50 > 32.0 && h.p50 <= 64.0, "p50 = {}", h.p50);
        assert!(h.p99 > 64.0 && h.p99 <= 100.0, "p99 = {}", h.p99);
        // Degenerate histograms stay finite.
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);
        crate::reset();
    }

    #[test]
    fn scope_labels_flat_instruments_and_preserves_totals() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        {
            let _t = scope("acme");
            WHATIF_CALLS.add(3);
            counter_add("custom.hits", 2);
            histogram_record("custom.cost", 8.0);
            gauge_set("custom.depth", 7);
            {
                let _p = scope_phase("acme", "probe");
                counter_add("custom.hits", 1);
            }
            // Inner scope restored to the outer one, not cleared.
            counter_add("custom.restored", 1);
        }
        counter_add("custom.hits", 5); // unscoped
        crate::disable();

        let s = snapshot();
        // Bare values are the all-tenant totals.
        assert_eq!(s.counter("exec.whatif_calls"), Some(3));
        assert_eq!(WHATIF_CALLS.get(), 3);
        assert_eq!(s.counter("custom.hits"), Some(8));
        // Labeled series carry the scoped share.
        let acme = [("tenant", "acme")];
        assert_eq!(s.counter_labeled("exec.whatif_calls", &acme), Some(3));
        assert_eq!(s.counter_labeled("custom.hits", &acme), Some(2));
        assert_eq!(s.counter_labeled("custom.restored", &acme), Some(1));
        assert_eq!(
            s.counter_labeled("custom.hits", &[("phase", "probe"), ("tenant", "acme")]),
            Some(1)
        );
        // A gauge has no total: nothing was set outside the scope.
        assert_eq!(s.gauges, vec![(Series::new("custom.depth", &acme), 7)]);
        assert!(s
            .histograms
            .iter()
            .any(|(n, h)| *n == Series::new("custom.cost", &acme) && h.count == 1));
        assert!(s
            .histograms
            .iter()
            .any(|(n, h)| *n == Series::from("custom.cost") && h.count == 1 && h.sum == 8.0));
        assert_eq!(s.counter("telemetry.series_dropped"), Some(0));
        crate::reset();
    }

    #[test]
    fn cardinality_cap_folds_into_other_bucket() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        set_series_cap(2);
        counter_add_labeled("cap.hits", &[("tenant", "a")], 1);
        counter_add_labeled("cap.hits", &[("tenant", "b")], 2);
        // Cap reached: c and d fold into __other__; a keeps updating.
        counter_add_labeled("cap.hits", &[("tenant", "c")], 4);
        counter_add_labeled("cap.hits", &[("tenant", "d")], 8);
        counter_add_labeled("cap.hits", &[("tenant", "a")], 16);
        crate::disable();

        let s = snapshot();
        assert_eq!(s.counter_labeled("cap.hits", &[("tenant", "a")]), Some(17));
        assert_eq!(s.counter_labeled("cap.hits", &[("tenant", "b")]), Some(2));
        assert_eq!(s.counter_labeled("cap.hits", &[("tenant", "c")]), None);
        assert_eq!(
            s.counter_labeled("cap.hits", &[("tenant", OTHER_TENANT)]),
            Some(12)
        );
        assert_eq!(s.counter("telemetry.series_dropped"), Some(2));
        // Totals are conserved across the fold.
        let total: u64 = s
            .counters
            .iter()
            .filter(|(n, _)| n.name() == "cap.hits")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, 31);
        crate::reset();
        assert_eq!(series_count(), 0);
    }

    #[test]
    fn series_encoding_roundtrips_hostile_values() {
        let hostile = "a\\b\"c\nd";
        let series = Series::new("m.x", &[("tenant", hostile), ("phase", "p")]);
        assert_eq!(
            series.to_string(),
            "m.x{phase=\"p\",tenant=\"a\\\\b\\\"c\\nd\"}"
        );
        // The value itself is carried, not its escaped text.
        assert_eq!(series.name(), "m.x");
        assert_eq!(
            series.labels(),
            [("phase", "p".to_string()), ("tenant", hostile.to_string())]
        );
        assert_eq!(series.label("tenant"), Some(hostile));
        assert_eq!(Series::from("plain.name").to_string(), "plain.name");
        // Through the store and back out.
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        counter_add_labeled("m.x", &[("tenant", hostile), ("phase", "p")], 1);
        crate::disable();
        assert!(snapshot().counters.contains(&(series, 1)));
        crate::reset();
        // HELP is looked up by instrument name.
        assert!(has_help(
            Series::new("exec.whatif_calls", &[("tenant", "a")]).name()
        ));
        assert!(!has_help("no.such.metric"));
    }

    /// Interned symbols never change their meaning, so a scope alive
    /// across a `reset()` keeps labeling with its own tenant, whatever is
    /// interned after it.
    #[test]
    fn scope_alive_across_reset_keeps_its_tenant() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        let _a = scope("a");
        crate::reset();
        crate::enable();
        counter_add_labeled("x", &[("tenant", "b")], 1);
        counter_add("y", 1);
        crate::disable();
        let s = snapshot();
        assert_eq!(s.counter_labeled("x", &[("tenant", "b")]), Some(1));
        assert_eq!(s.counter_labeled("y", &[("tenant", "a")]), Some(1));
        assert_eq!(s.counter_labeled("y", &[("tenant", "b")]), None);
        drop(_a);
        crate::reset();
    }

    /// The bare name of a counter or histogram is read, not written: the
    /// empty-label cell plus every labeled cell of the name, an explicitly
    /// labeled one included once the name has a bare cell.
    #[test]
    fn totals_are_derived_from_every_series_of_the_name() {
        let _g = crate::tests::lock();
        crate::reset();
        crate::enable();
        histogram_record("d.cost", 1.0);
        WHATIF_CALLS.add(1);
        {
            let _t = scope_phase("t", "tune");
            histogram_record("d.cost", 4.0);
            WHATIF_CALLS.add(2);
        }
        histogram_record_labeled("d.cost", &[("backend", "disk")], 64.0);
        counter_add_labeled("exec.whatif_calls", &[("backend", "disk")], 4);
        // A labeled-only name is served without a bare entry.
        counter_add_labeled("d.only", &[("tenant", "t")], 1);
        crate::disable();

        let s = snapshot();
        assert_eq!(s.counter("exec.whatif_calls"), Some(7));
        assert_eq!(WHATIF_CALLS.get(), 7);
        assert_eq!(s.counter("d.only"), None);
        let (_, total) = &s.histograms[0];
        assert_eq!(s.histograms[0].0, Series::from("d.cost"));
        assert_eq!(
            (total.count, total.sum, total.min, total.max),
            (3, 69.0, 1.0, 64.0)
        );
        assert_eq!(total.buckets, vec![(1.0, 1), (4.0, 1), (64.0, 1)]);
        assert_eq!(s.histograms.len(), 3);
        crate::reset();
    }
}
