//! Sharding economics (§VIII-b of the paper).
//!
//! Heavily sharded databases mandate a *common physical design across all
//! shards*: an index helps only the shards where its queries actually run,
//! but **every** shard pays its storage and write amplification. This
//! module re-prices ranked candidates for a sharded deployment:
//!
//! * each benefiting query's contribution is scaled by the fraction of
//!   shards it executes on (its *hit fraction*),
//! * maintenance overhead and storage footprint are multiplied by the
//!   shard count (all shards pay),
//!
//! after which the ordinary knapsack selection applies against the
//! fleet-wide storage budget. An index that clears the bar on a single
//! database can easily drown once 1000 shards each pay for it — exactly
//! the adjustment the paper describes making for "performance sensitive"
//! sharded deployments.

use crate::ranking::RankedCandidate;
use aim_sql::normalize::QueryFingerprint;
use std::collections::BTreeMap;

/// Shard-execution profile of a horizontally partitioned database.
#[derive(Debug, Clone)]
pub struct ShardingProfile {
    /// Number of shards sharing the physical design.
    pub shard_count: u64,
    /// Per-query fraction of shards the query executes on (`0.0..=1.0`);
    /// queries absent from the map default to
    /// [`ShardingProfile::default_hit_fraction`].
    hit_fractions: BTreeMap<QueryFingerprint, f64>,
    /// Hit fraction assumed for unprofiled queries.
    pub default_hit_fraction: f64,
}

impl ShardingProfile {
    /// Profile for `shard_count` shards; unprofiled queries are assumed to
    /// run everywhere (conservative: over-values benefits).
    ///
    /// `shard_count == 0` does not describe a deployment — there is no
    /// fleet with zero shards — so it is normalized to `1`, i.e. a single
    /// unsharded database whose [`ShardingProfile::apply`] re-pricing is
    /// the identity on maintenance and storage. Pass the real shard count
    /// for any actual fleet.
    pub fn new(shard_count: u64) -> Self {
        Self {
            shard_count: shard_count.max(1),
            hit_fractions: BTreeMap::new(),
            default_hit_fraction: 1.0,
        }
    }

    /// Chainable setter for the hit fraction assumed for unprofiled
    /// queries (clamped to `0.0..=1.0`), for building a profile as a
    /// first-class
    /// [`AimConfig::builder().sharding(...)`](crate::AimConfig::builder)
    /// input:
    ///
    /// ```ignore
    /// let mut profile = ShardingProfile::new(1000).with_default_hit_fraction(0.5);
    /// profile.set_hit_fraction(fp, 0.001);
    /// let session = AimConfig::builder().sharding(profile).session();
    /// ```
    pub fn with_default_hit_fraction(mut self, fraction: f64) -> Self {
        self.default_hit_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Records that `query` executes on `fraction` of the shards.
    pub fn set_hit_fraction(&mut self, query: QueryFingerprint, fraction: f64) {
        self.hit_fractions.insert(query, fraction.clamp(0.0, 1.0));
    }

    /// Hit fraction for a query, always in `0.0..=1.0`: recorded fractions
    /// are clamped on insert, and the clamp is re-applied here so an
    /// out-of-range [`ShardingProfile::default_hit_fraction`] written
    /// directly to the public field cannot leak a fraction outside the
    /// meaningful range into the benefit scaling.
    pub fn hit_fraction(&self, query: QueryFingerprint) -> f64 {
        self.hit_fractions
            .get(&query)
            .copied()
            .unwrap_or(self.default_hit_fraction)
            .clamp(0.0, 1.0)
    }

    /// Re-prices ranked candidates for this sharded deployment and re-sorts
    /// by the adjusted utility density. Storage sizes become fleet-wide
    /// (per-shard size × shard count), so the knapsack budget passed to
    /// `knapsack_select` afterwards must also be fleet-wide.
    pub fn apply(&self, ranked: &mut [RankedCandidate]) {
        let n = self.shard_count as f64;
        for r in ranked.iter_mut() {
            // Benefit accrues only on shards the benefiting queries hit.
            let mut benefit = 0.0;
            for (fp, b) in &mut r.benefiting_queries {
                *b *= self.hit_fraction(*fp);
                benefit += *b;
            }
            r.benefit = benefit;
            // Every shard pays maintenance and storage.
            r.maintenance *= n;
            r.size_bytes = r.size_bytes.saturating_mul(self.shard_count);
        }
        ranked.sort_by(|a, b| b.density().total_cmp(&a.density()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateIndex;
    use crate::partial_order::PartialOrder;
    use crate::ranking::knapsack_select;
    use aim_sql::normalize::QueryFingerprint;
    use std::collections::BTreeSet;

    fn ranked(benefit: f64, maintenance: f64, size: u64, fp: QueryFingerprint) -> RankedCandidate {
        RankedCandidate {
            candidate: CandidateIndex {
                table: "t".into(),
                columns: vec![format!("c{}", size)],
                po: PartialOrder::chain([format!("c{}", size)]).expect("valid"),
                sources: BTreeSet::new(),
            },
            size_bytes: size,
            benefit,
            maintenance,
            benefiting_queries: vec![(fp, benefit)],
        }
    }

    #[test]
    fn low_hit_fraction_kills_marginal_indexes() {
        let fp = QueryFingerprint(1);
        let mut rs = vec![ranked(100.0, 10.0, 1000, fp)];
        // Unsharded: utility 90, selected.
        assert_eq!(knapsack_select(&rs, u64::MAX, 0).len(), 1);
        // 100 shards, query hits 1% of them: benefit 1, maintenance 1000.
        let mut profile = ShardingProfile::new(100);
        profile.set_hit_fraction(fp, 0.01);
        profile.apply(&mut rs);
        assert!(rs[0].utility() < 0.0);
        assert!(knapsack_select(&rs, u64::MAX, 0).is_empty());
    }

    #[test]
    fn fleet_wide_storage_accounted() {
        let fp = QueryFingerprint(2);
        let mut rs = vec![ranked(1e9, 0.0, 1000, fp)];
        let profile = ShardingProfile::new(50);
        profile.apply(&mut rs);
        assert_eq!(rs[0].size_bytes, 50_000);
        // A per-shard budget no longer fits the fleet-wide size.
        assert!(knapsack_select(&rs, 1000, 0).is_empty());
        assert_eq!(knapsack_select(&rs, 50_000, 0).len(), 1);
    }

    #[test]
    fn hot_everywhere_query_survives_sharding() {
        let fp = QueryFingerprint(3);
        let mut rs = vec![ranked(1000.0, 1.0, 100, fp)];
        let mut profile = ShardingProfile::new(100);
        profile.set_hit_fraction(fp, 1.0);
        profile.apply(&mut rs);
        // benefit 1000 vs maintenance 100: still worth it fleet-wide.
        assert!(rs[0].utility() > 0.0);
    }

    #[test]
    fn reprices_and_resorts_by_density() {
        let fp_local = QueryFingerprint(4);
        let fp_global = QueryFingerprint(5);
        let mut rs = vec![
            ranked(1000.0, 0.0, 100, fp_local), // denser unsharded
            ranked(500.0, 0.0, 100, fp_global),
        ];
        let mut profile = ShardingProfile::new(10);
        profile.set_hit_fraction(fp_local, 0.05);
        profile.set_hit_fraction(fp_global, 1.0);
        profile.apply(&mut rs);
        // The globally-hit query's index now ranks first.
        assert_eq!(rs[0].benefiting_queries[0].0, fp_global);
    }

    #[test]
    fn default_hit_fraction_is_conservative() {
        let profile = ShardingProfile::new(10);
        assert_eq!(profile.hit_fraction(QueryFingerprint(99)), 1.0);
        let mut p2 = profile.clone();
        p2.default_hit_fraction = 0.2;
        assert_eq!(p2.hit_fraction(QueryFingerprint(99)), 0.2);
    }
}
