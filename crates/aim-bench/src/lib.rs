//! The paper's evaluation as functions: one module per table / figure of
//! §VI, each with a `run` that computes the experiment at a [`Scale`] and
//! returns typed rows. `tests/paper_claims.rs` calls them at
//! [`Scale::Quick`] and asserts the paper's claims on the rows; the
//! binaries of the same names (`src/bin/`) parse arguments, call `run` and
//! print the rows to stdout. Nothing here writes a file.

pub mod continuous;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table2;

use aim_core::{AimConfig, AimConfigBuilder};
use aim_monitor::SelectionConfig;
use aim_storage::IndexDef;
use std::collections::BTreeSet;

/// The size an experiment runs at. `Quick` is the reduced scale the claim
/// tests run in the default test profile (every printer takes `quick` as
/// an argument to print exactly what they assert on); `Full` is what
/// `scripts/figures.sh` records under `results/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    /// `Quick` when `quick` is among the command-line arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// `quick` at the reduced scale, `full` at the recorded one.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The session configuration every replayed experiment tunes with: all
/// observed statements (DML included) seen at least `min_executions`
/// times, unlimited storage unless the experiment sets a budget.
pub(crate) fn tuning_config(min_executions: u64) -> AimConfigBuilder {
    AimConfig::builder().selection(SelectionConfig {
        min_executions,
        min_benefit: 0.5,
        max_queries: usize::MAX,
        include_dml: true,
    })
}

/// Jaccard similarity between two index sets, comparing `(table, columns)`
/// identity — the measure of Table II.
pub fn jaccard(a: &[IndexDef], b: &[IndexDef]) -> f64 {
    jaccard_by(a, b, |d| (d.table.clone(), d.columns.clone()))
}

/// Order-insensitive variant: two indexes match when they cover the same
/// column *set* on the same table (column order differs between equally
/// valid orderings of an unordered equality prefix).
pub fn jaccard_sets(a: &[IndexDef], b: &[IndexDef]) -> f64 {
    jaccard_by(a, b, |d| {
        let mut cols = d.columns.clone();
        cols.sort();
        (d.table.clone(), cols)
    })
}

fn jaccard_by<K: Ord>(a: &[IndexDef], b: &[IndexDef], key: impl Fn(&IndexDef) -> K) -> f64 {
    let ka: BTreeSet<K> = a.iter().map(&key).collect();
    let kb: BTreeSet<K> = b.iter().map(&key).collect();
    let inter = ka.intersection(&kb).count() as f64;
    let union = ka.union(&kb).count() as f64;
    if union == 0.0 {
        1.0
    } else {
        inter / union
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(table: &str, cols: &[&str]) -> IndexDef {
        IndexDef::new(
            format!("x_{}_{}", table, cols.join("_")),
            table,
            cols.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn jaccard_basic() {
        let a = vec![def("t", &["a"]), def("t", &["b"])];
        let b = vec![def("t", &["a"]), def("t", &["c"])];
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&[], &[]), 1.0);
        assert_eq!(jaccard(&a, &[]), 0.0);
    }

    #[test]
    fn jaccard_ignores_names() {
        let mut x = def("t", &["a"]);
        x.name = "different_name".into();
        assert_eq!(jaccard(&[x], &[def("t", &["a"])]), 1.0);
    }
}
