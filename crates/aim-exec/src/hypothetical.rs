//! Dataless (hypothetical / "what-if") indexes, §III-A4 of the paper.
//!
//! A dataless index carries only metadata and size estimates — never
//! entries. The planner treats it exactly like a materialized index when
//! costing plans, which is how AIM (and the baseline advisors) evaluate a
//! candidate configuration without paying the build cost. This mirrors the
//! role HypoPG plays for PostgreSQL in the paper's experiments.

use aim_storage::{Database, IndexDef, TableStats};
use std::sync::{Arc, OnceLock};

/// A hypothetical index: definition plus estimated physical footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct HypotheticalIndex {
    pub def: IndexDef,
    /// Estimated average entry width (key columns + PK suffix + overhead).
    pub entry_width: f64,
    /// Estimated total size in bytes, comparable with
    /// `SecondaryIndex::size_bytes` so budget arithmetic is consistent
    /// between hypothetical and materialized configurations.
    pub size_bytes: u64,
}

impl HypotheticalIndex {
    /// Builds a hypothetical index from table statistics. Unknown columns
    /// fall back to the schema's declared average width.
    pub fn build(db: &Database, def: IndexDef) -> Option<Self> {
        let table = db.table(&def.table).ok()?;
        let schema = table.schema();
        // Verify every key column exists.
        for c in &def.columns {
            schema.column_index(c)?;
        }
        let stats = db.stats(&def.table);
        let row_count = table.row_count() as u64;

        let col_width = |name: &str| -> f64 {
            stats
                .and_then(|s: &TableStats| s.column(name))
                .map(|c| c.avg_width)
                .or_else(|| schema.column(name).map(|c| f64::from(c.avg_width)))
                .unwrap_or(8.0)
        };

        let key_width: f64 = def.columns.iter().map(|c| col_width(c)).sum();
        let pk_width: f64 = schema
            .primary_key_names()
            .iter()
            .map(|c| col_width(c))
            .sum();
        const ENTRY_OVERHEAD: f64 = 12.0;
        let entry_width = key_width + pk_width + ENTRY_OVERHEAD;
        // Same 4/3 structural factor as materialized indexes.
        let size_bytes = (row_count as f64 * entry_width * 4.0 / 3.0) as u64;
        Some(Self {
            def,
            entry_width,
            size_bytes,
        })
    }

    /// Index width (number of key columns).
    pub fn width(&self) -> usize {
        self.def.columns.len()
    }

    /// Stable identity of the index *definition* (table + key columns, not
    /// the name): the unit the what-if cache uses to remember which
    /// hypothetical indexes a cached plan used.
    pub fn def_key(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.def.table.as_bytes());
        for c in &self.def.columns {
            eat(b"|");
            eat(c.as_bytes());
        }
        h
    }
}

/// A what-if configuration: a set of hypothetical indexes overlaid on
/// whatever is already materialized in the database.
///
/// Indexes are held behind [`Arc`] so that building per-query / per-subset
/// configurations (the ranking marginal-attribution loop, baseline
/// enumeration) shares one allocation per hypothetical index instead of
/// deep-cloning key-column vectors for every what-if call. They are fixed
/// at construction, which is what lets [`Self::canonical_key`] be memoized.
#[derive(Debug, Clone, Default)]
pub struct HypoConfig {
    indexes: Vec<Arc<HypotheticalIndex>>,
    /// Lazily memoized [`Self::canonical_key`]. Ranking and batched costing
    /// hash the same configuration once per statement (or once per batch
    /// member); without the memo the sort-and-FNV walk reruns every time.
    key_memo: OnceLock<u64>,
}

impl PartialEq for HypoConfig {
    fn eq(&self, other: &Self) -> bool {
        // The memo is derived state and must not affect equality (a config
        // that has been hashed still equals a fresh identical one).
        self.indexes == other.indexes
    }
}

impl HypoConfig {
    /// The database as it stands: no hypothetical index.
    pub fn none() -> Self {
        Self::default()
    }

    /// The given shared hypothetical indexes over the materialized ones (no
    /// per-index allocation — the cheap path for subset enumeration).
    pub fn shared(indexes: Vec<Arc<HypotheticalIndex>>) -> Self {
        Self {
            indexes,
            key_memo: OnceLock::new(),
        }
    }

    /// The given hypothetical indexes over the materialized ones (the
    /// HypoPG-style usage).
    pub fn overlay(indexes: Vec<HypotheticalIndex>) -> Self {
        Self::shared(indexes.into_iter().map(Arc::new).collect())
    }

    /// The hypothetical indexes, in configuration order.
    pub fn indexes(&self) -> &[Arc<HypotheticalIndex>] {
        &self.indexes
    }

    /// Hypothetical indexes on a given table.
    pub fn for_table<'a>(
        &'a self,
        table: &'a str,
    ) -> impl Iterator<Item = (usize, &'a HypotheticalIndex)> {
        self.indexes
            .iter()
            .enumerate()
            .filter(move |(_, h)| h.def.table == table)
            .map(|(i, h)| (i, h.as_ref()))
    }

    /// Order-insensitive canonical key of this configuration (its sorted,
    /// distinct index identities). Two configs with the same key cost
    /// every statement identically, so this is the config component of the
    /// what-if cache key.
    ///
    /// The key is memoized on first call: ranking asks for it once per
    /// statement it costs a config against, and batched evaluation asks
    /// once per batch member.
    pub fn canonical_key(&self) -> u64 {
        *self.key_memo.get_or_init(|| {
            let mut keys: Vec<u64> = self.indexes.iter().map(|h| h.def_key()).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for k in keys {
                for b in k.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_storage::{ColumnDef, ColumnType, IoStats, TableSchema, Value};

    fn db_with_rows(n: i64) -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("s", ColumnType::Str),
                ],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut io = IoStats::new();
        for i in 0..n {
            db.table_mut("t")
                .unwrap()
                .insert(
                    vec![Value::Int(i), Value::Int(i % 7), Value::Str("x".repeat(10))],
                    &mut io,
                )
                .unwrap();
        }
        db.analyze_all();
        db
    }

    #[test]
    fn size_scales_with_rows_and_width() {
        let db = db_with_rows(1000);
        let narrow =
            HypotheticalIndex::build(&db, IndexDef::new("h1", "t", vec!["a".into()])).unwrap();
        let wide =
            HypotheticalIndex::build(&db, IndexDef::new("h2", "t", vec!["a".into(), "s".into()]))
                .unwrap();
        assert!(wide.size_bytes > narrow.size_bytes);
        assert_eq!(wide.width(), 2);
    }

    #[test]
    fn hypothetical_size_close_to_materialized() {
        let mut db = db_with_rows(2000);
        let hypo =
            HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let mut io = IoStats::new();
        db.create_index(IndexDef::new("real", "t", vec!["a".into()]), &mut io)
            .unwrap();
        let real = db.table("t").unwrap().index("real").unwrap().size_bytes();
        let ratio = hypo.size_bytes as f64 / real as f64;
        assert!((0.5..2.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn unknown_column_rejected() {
        let db = db_with_rows(10);
        assert!(
            HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["nope".into()])).is_none()
        );
        assert!(
            HypotheticalIndex::build(&db, IndexDef::new("h", "missing", vec!["a".into()]))
                .is_none()
        );
    }

    #[test]
    fn canonical_key_is_memoized_and_ignored_by_equality() {
        let db = db_with_rows(100);
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let a = HypoConfig::overlay(vec![h.clone()]);
        let b = HypoConfig::overlay(vec![h]);
        // Hashing one side must not break equality with a fresh config.
        let k1 = a.canonical_key();
        assert_eq!(a, b);
        assert_eq!(k1, a.canonical_key());
        assert_eq!(k1, b.canonical_key());
        // Clones carry the memo but stay equal and key-stable.
        let c = a.clone();
        assert_eq!(c, a);
        assert_eq!(c.canonical_key(), k1);
    }

    #[test]
    fn config_helpers() {
        let db = db_with_rows(100);
        let h = HypotheticalIndex::build(&db, IndexDef::new("h", "t", vec!["a".into()])).unwrap();
        let cfg = HypoConfig::overlay(vec![h]);
        assert_eq!(cfg.for_table("t").count(), 1);
        assert_eq!(cfg.for_table("other").count(), 0);
    }
}
