//! Partial orders of index columns (§III-A3) and their merging (§III-E).
//!
//! A candidate index is not a concrete column list but a *strict partial
//! order* represented as a sequence of ordered partitions:
//!
//! ```text
//! <{col1, col2}, {col3}, {col5, col6, col7}>
//! ```
//!
//! denotes every index whose first two columns are `col1`/`col2` in either
//! order, whose third column is `col3`, followed by any permutation of the
//! last three. Merging partial orders from different queries is what lets
//! AIM build one wide composite index that serves several queries at once.
//!
//! ## Merge semantics
//!
//! [`PartialOrder::merge_pairwise`] implements `MergeCandidatesPairwise`:
//! given `(P, ≺_P)` and `(Q, ≺_Q)` with `P ⊆ Q` (as column sets) and no
//! ordering conflict, the result is P's partitions — each refined by Q's
//! relative order among its members — followed by Q's remaining columns in
//! Q's order (the ordinal sum `⊕`). We implement a *strengthened* conflict
//! check relative to the paper's `C_merge`: in addition to conflicts within
//! `P × P`, a merge is rejected when Q orders any column of `Q \ P` before
//! a column of `P`, since the merged order would contradict `≺_Q`. The
//! paper's formula only quantifies over `P`; without the extra check the
//! merged index could be useless for Q's query, which defeats the stated
//! purpose ("either candidate ... can individually be beneficial to queries
//! for which the base partial orders were merged").
//!
//! ## One rule, over column bitsets
//!
//! The rule is written once, in `merge_into`, over a compact per-table
//! form: `ColumnIds` interns a table's column names to small ids **in
//! name order**, and a `CompactOrder` holds each partition as a bitset
//! over those ids with the order's column mask and each column's partition
//! rank beside it, so the subset test is an AND and the conflict tests walk
//! each order once. Because ids ascend with names, a bitset iterates as the
//! `BTreeSet<String>` it stands for and `CompactOrder`'s `Ord` is
//! [`PartialOrder`]'s — which of two orders a candidate key keeps does not
//! depend on the form. The name-typed entry points
//! ([`PartialOrder::merge_pairwise`], [`merge_partial_orders`]) intern,
//! call the rule and translate back; candidate generation stays in the
//! compact form.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A strict partial order of index columns on one table, as a sequence of
/// ordered partitions. Invariants: partitions are non-empty and pairwise
/// disjoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartialOrder {
    partitions: Vec<BTreeSet<String>>,
}

impl PartialOrder {
    /// Builds a partial order from partitions, dropping empty ones.
    /// Returns `None` if partitions are not pairwise disjoint.
    pub fn new<I, P, S>(partitions: I) -> Option<Self>
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut seen = BTreeSet::new();
        let mut parts = Vec::new();
        for p in partitions {
            let set: BTreeSet<String> = p.into_iter().map(Into::into).collect();
            if set.is_empty() {
                continue;
            }
            for c in &set {
                if !seen.insert(c.clone()) {
                    return None;
                }
            }
            parts.push(set);
        }
        Some(Self { partitions: parts })
    }

    /// A fully ordered chain (`<{a}, {b}, {c}>`).
    pub fn chain<S: Into<String>>(cols: impl IntoIterator<Item = S>) -> Option<Self> {
        Self::new(cols.into_iter().map(|c| vec![c]))
    }

    /// The ordered partitions.
    pub fn partitions(&self) -> &[BTreeSet<String>] {
        &self.partitions
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    /// Total number of columns (the width of any satisfying index).
    pub fn width(&self) -> usize {
        self.partitions.iter().map(BTreeSet::len).sum()
    }

    /// The set of all columns.
    pub fn columns(&self) -> BTreeSet<String> {
        self.partitions.iter().flatten().cloned().collect()
    }

    /// Appends the given columns as a trailing partition, skipping columns
    /// already present (used for covering suffixes: `c.append(...)` in
    /// Algorithms 4, 6 and 7).
    pub fn append<S: Into<String>>(&self, cols: impl IntoIterator<Item = S>) -> Self {
        let existing = self.columns();
        let fresh: BTreeSet<String> = cols
            .into_iter()
            .map(Into::into)
            .filter(|c| !existing.contains(c))
            .collect();
        let mut partitions = self.partitions.clone();
        if !fresh.is_empty() {
            partitions.push(fresh);
        }
        Self { partitions }
    }

    /// Index of the partition holding `col`, if any.
    fn partition_of(&self, col: &str) -> Option<usize> {
        self.partitions.iter().position(|p| p.contains(col))
    }

    /// True if `a ≺ b` in this partial order (both present, strictly
    /// earlier partition).
    pub fn precedes(&self, a: &str, b: &str) -> bool {
        match (self.partition_of(a), self.partition_of(b)) {
            (Some(pa), Some(pb)) => pa < pb,
            _ => false,
        }
    }

    /// `MergeCandidatesPairwise(self, other)`: merge when `self ⊆ other`
    /// (column sets) and the orders are compatible; `None` otherwise.
    ///
    /// The merged order is: self's partitions, each refined by `other`'s
    /// internal order, followed by `other`'s leftover columns in `other`'s
    /// order.
    pub fn merge_pairwise(&self, other: &PartialOrder) -> Option<PartialOrder> {
        let ids = ColumnIds::of([self, other]);
        let mut merged = ids.scratch();
        merge_into(&ids.compact(self), &ids.compact(other), &mut merged)
            .then(|| ids.expand(&merged))
    }

    /// True if the concrete column sequence `order` satisfies this partial
    /// order: same column set, and partition boundaries respected.
    pub fn is_satisfied_by(&self, order: &[String]) -> bool {
        if self.width() != order.len() {
            return false;
        }
        let mut pos = 0usize;
        for part in &self.partitions {
            let slice: BTreeSet<&str> = order[pos..pos + part.len()]
                .iter()
                .map(String::as_str)
                .collect();
            let expect: BTreeSet<&str> = part.iter().map(String::as_str).collect();
            if slice != expect {
                return false;
            }
            pos += part.len();
        }
        true
    }

    /// Chooses one deterministic total order satisfying this partial order.
    ///
    /// Within each partition, `tie_break` orders columns (lower key first);
    /// the paper leaves this choice arbitrary — AIM uses dataless-index
    /// statistics to put more selective columns first, which callers get by
    /// passing a selectivity-derived key.
    pub fn total_order_by<K: Ord>(&self, mut tie_break: impl FnMut(&str) -> K) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width());
        for part in &self.partitions {
            let mut cols: Vec<&String> = part.iter().collect();
            cols.sort_by_key(|c| tie_break(c));
            out.extend(cols.into_iter().cloned());
        }
        out
    }
}

impl fmt::Display for PartialOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, part) in self.partitions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            for (j, c) in part.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{c}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ">")
    }
}

/// `MergePartialOrders` (§III-E): closes a set of partial orders under
/// pairwise merging, returning the fixed point in ascending order. Input
/// orders that merged into wider ones are retained as well — ranking
/// decides which to keep.
pub fn merge_partial_orders(orders: &[PartialOrder]) -> Vec<PartialOrder> {
    let ids = ColumnIds::of(orders);
    let closed = close(&ids, orders.iter().map(|o| ids.compact(o)));
    closed.iter().map(|c| ids.expand(c.parts())).collect()
}

// ---------------------------------------------------------- compact form

/// One table's column names interned to ids in name order: id `i` is the
/// `i`-th smallest name, so ascending ids are ascending names.
pub(crate) struct ColumnIds<'a> {
    names: Vec<&'a str>,
}

impl<'a> ColumnIds<'a> {
    /// Interns every column the given orders mention.
    pub(crate) fn of(orders: impl IntoIterator<Item = &'a PartialOrder>) -> Self {
        let mut names: Vec<&str> = orders
            .into_iter()
            .flat_map(|o| o.partitions.iter().flatten())
            .map(String::as_str)
            .collect();
        names.sort_unstable();
        names.dedup();
        Self { names }
    }

    /// Number of interned columns.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The name behind an id.
    pub(crate) fn name(&self, id: usize) -> &'a str {
        self.names[id]
    }

    /// `u64` words per bitset: one up to 64 columns, more beyond.
    fn words(&self) -> usize {
        self.names.len().div_ceil(64).max(1)
    }

    /// An empty partition list to [`ColumnIds::compact_into`] or
    /// [`merge_into`] into.
    pub(crate) fn scratch(&self) -> Partitions {
        Partitions {
            words: self.words(),
            bits: Vec::new(),
        }
    }

    /// Writes `po`'s partitions into `out`. Every column must be interned.
    pub(crate) fn compact_into(&self, po: &PartialOrder, out: &mut Partitions) {
        out.bits.clear();
        for part in &po.partitions {
            let at = out.bits.len();
            out.bits.resize(at + out.words, 0);
            for c in part {
                let id = self
                    .names
                    .binary_search(&c.as_str())
                    .expect("column interned by `of`");
                out.bits[at + id / 64] |= 1 << (id % 64);
            }
        }
    }

    pub(crate) fn compact(&self, po: &PartialOrder) -> CompactOrder {
        let mut parts = self.scratch();
        self.compact_into(po, &mut parts);
        CompactOrder::new(parts, self.len())
    }

    /// The name-typed order `parts` stands for.
    pub(crate) fn expand(&self, parts: &Partitions) -> PartialOrder {
        let partitions = parts
            .iter()
            .map(|p| ones(p).map(|id| self.names[id].to_string()).collect())
            .collect();
        PartialOrder { partitions }
    }
}

/// Ids of the set bits of a bitset, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |x| {
            let rest = x & (x - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// True if every bit of `a` is set in `b`.
pub(crate) fn is_subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Compares two bitsets as the ascending id sequences they hold — the
/// order of the `BTreeSet<String>`s they stand for.
fn cmp_sets(a: &[u64], b: &[u64]) -> Ordering {
    let Some(w) = (0..a.len()).find(|&w| a[w] != b[w]) else {
        return Ordering::Equal;
    };
    // The lowest id only one side holds: that side continues with it, the
    // other with something larger, or not at all (a proper prefix).
    let id = (a[w] ^ b[w]).trailing_zeros();
    let (holder_is_a, other) = if a[w] >> id & 1 == 1 {
        (true, b)
    } else {
        (false, a)
    };
    let other_continues = other[w] >> id > 1 || other[w + 1..].iter().any(|&x| x != 0);
    if holder_is_a == other_continues {
        Ordering::Less
    } else {
        Ordering::Greater
    }
}

/// Ordered partitions as bitsets over one table's [`ColumnIds`], `words`
/// `u64`s each, back to back. Equality and order are [`PartialOrder`]'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Partitions {
    words: usize,
    bits: Vec<u64>,
}

impl Partitions {
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u64]> {
        self.bits.chunks_exact(self.words)
    }

    /// True if the sequence of distinct ids `order` satisfies these
    /// partitions: the same columns, partition boundaries respected
    /// ([`PartialOrder::is_satisfied_by`]).
    pub(crate) fn is_satisfied_by(&self, order: &[usize]) -> bool {
        let mut rest = order;
        for part in self.iter() {
            let n: usize = part.iter().map(|w| w.count_ones() as usize).sum();
            if rest.len() < n {
                return false;
            }
            let (head, tail) = rest.split_at(n);
            if !head.iter().all(|&id| part[id / 64] >> (id % 64) & 1 == 1) {
                return false;
            }
            rest = tail;
        }
        rest.is_empty()
    }
}

impl Ord for Partitions {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.iter().zip(other.iter()) {
            match cmp_sets(a, b) {
                Ordering::Equal => {}
                unequal => return unequal,
            }
        }
        self.bits.len().cmp(&other.bits.len())
    }
}

impl PartialOrd for Partitions {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A partial order in the compact form, with what the merge rule reads of
/// it computed once: the mask of all its columns and each column's
/// partition index.
#[derive(Debug, Clone)]
pub(crate) struct CompactOrder {
    parts: Partitions,
    mask: Vec<u64>,
    /// Partition index by column id; unspecified for columns not in `mask`.
    rank: Vec<usize>,
}

impl CompactOrder {
    /// `columns` is the table's [`ColumnIds::len`].
    pub(crate) fn new(parts: Partitions, columns: usize) -> Self {
        let mut mask = vec![0; parts.words];
        let mut rank = vec![0; columns];
        for (k, part) in parts.iter().enumerate() {
            for (m, p) in mask.iter_mut().zip(part) {
                *m |= p;
            }
            for id in ones(part) {
                rank[id] = k;
            }
        }
        Self { parts, mask, rank }
    }

    pub(crate) fn parts(&self) -> &Partitions {
        &self.parts
    }

    /// Bitset of every column of the order.
    pub(crate) fn mask(&self) -> &[u64] {
        &self.mask
    }
}

// Identity and order are the partitions'; `mask` and `rank` follow from
// them. `Borrow` lets a set of orders be probed with a scratch
// `Partitions` before anything is allocated for a new member.
impl PartialEq for CompactOrder {
    fn eq(&self, other: &Self) -> bool {
        self.parts == other.parts
    }
}

impl Eq for CompactOrder {}

impl Ord for CompactOrder {
    fn cmp(&self, other: &Self) -> Ordering {
        self.parts.cmp(&other.parts)
    }
}

impl PartialOrd for CompactOrder {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Borrow<Partitions> for CompactOrder {
    fn borrow(&self) -> &Partitions {
        &self.parts
    }
}

/// `MergeCandidatesPairwise(p, q)` — the one implementation of the rule in
/// the module docs. Returns false when `p ⊄ q` or the orders conflict;
/// otherwise `out` holds p's partitions, each refined by q's order among
/// its members, then q's leftover columns in q's order. Allocates nothing
/// once `out` has grown to a table's widest order.
pub(crate) fn merge_into(p: &CompactOrder, q: &CompactOrder, out: &mut Partitions) -> bool {
    if !is_subset(&p.mask, &q.mask) {
        return false;
    }
    let w = out.words;
    out.bits.clear();
    // Conflict within P×P (a ≺_P b but b ≺_Q a): walking p's partitions in
    // order, q's ranks must never step back below an earlier partition's.
    let mut floor = 0;
    for part in p.parts.iter() {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for id in ones(part) {
            lo = lo.min(q.rank[id]);
            hi = hi.max(q.rank[id]);
        }
        if lo < floor {
            return false;
        }
        floor = hi;
        // Refinement: the members of `part`, grouped by q's partitions.
        for q_part in q.parts.bits[lo * w..(hi + 1) * w].chunks_exact(w) {
            let at = out.bits.len();
            out.bits.extend(part.iter().zip(q_part).map(|(x, y)| x & y));
            if out.bits[at..].iter().all(|&x| x == 0) {
                out.bits.truncate(at);
            }
        }
    }
    // q's leftover columns follow, in q's partition structure. Strengthened
    // check: none of them may precede a column of p in q, i.e. sit in a
    // partition before `floor`, the last q-partition that holds one.
    for (k, q_part) in q.parts.iter().enumerate() {
        let at = out.bits.len();
        out.bits
            .extend(q_part.iter().zip(&p.mask).map(|(y, m)| y & !m));
        if out.bits[at..].iter().all(|&x| x == 0) {
            out.bits.truncate(at);
        } else if k < floor {
            return false;
        }
    }
    true
}

/// Merges `p` into `q` and, when the result is in neither `known` nor
/// `fresh`, adds it to `fresh`.
fn merge_new(
    p: &CompactOrder,
    q: &CompactOrder,
    known: &BTreeMap<CompactOrder, usize>,
    fresh: &mut BTreeSet<CompactOrder>,
    scratch: &mut Partitions,
) {
    if merge_into(p, q, scratch) && !known.contains_key(scratch) && !fresh.contains(scratch) {
        fresh.insert(CompactOrder::new(scratch.clone(), q.rank.len()));
        aim_telemetry::metrics::PO_MERGES.incr();
    }
}

/// The fixed point of `orders` under [`merge_into`], ascending. Semi-naive:
/// a round only tries pairs with a member the previous round added, since
/// every other pair was tried before.
pub(crate) fn close(
    ids: &ColumnIds,
    orders: impl IntoIterator<Item = CompactOrder>,
) -> Vec<CompactOrder> {
    // Every known order with the round that added it.
    let mut known: BTreeMap<CompactOrder, usize> = orders.into_iter().map(|o| (o, 0)).collect();
    let mut scratch = ids.scratch();
    for round in 0.. {
        let mut fresh = BTreeSet::new();
        let (new, old): (Vec<_>, Vec<_>) = known.iter().partition(|(_, added)| **added == round);
        for (i, (a, _)) in new.iter().enumerate() {
            for (b, _) in &new[i + 1..] {
                merge_new(a, b, &known, &mut fresh, &mut scratch);
                merge_new(b, a, &known, &mut fresh, &mut scratch);
            }
            for (b, _) in &old {
                merge_new(a, b, &known, &mut fresh, &mut scratch);
                merge_new(b, a, &known, &mut fresh, &mut scratch);
            }
        }
        if fresh.is_empty() {
            break;
        }
        known.extend(fresh.into_iter().map(|o| (o, round + 1)));
    }
    known.into_keys().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn po(parts: &[&[&str]]) -> PartialOrder {
        PartialOrder::new(parts.iter().map(|p| p.iter().copied())).unwrap()
    }

    #[test]
    fn paper_example_merge() {
        // <{col1, col2, col3}> merged with <{col2, col3}>
        // must produce <{col2, col3}, {col1}>.
        let q = po(&[&["col1", "col2", "col3"]]);
        let p = po(&[&["col2", "col3"]]);
        let merged = p.merge_pairwise(&q).unwrap();
        assert_eq!(merged, po(&[&["col2", "col3"], &["col1"]]));
        // The reverse direction fails the subset condition.
        assert!(q.merge_pairwise(&p).is_none());
    }

    #[test]
    fn merged_order_satisfies_both_queries() {
        let q = po(&[&["col1", "col2", "col3"]]);
        let p = po(&[&["col2", "col3"]]);
        let merged = p.merge_pairwise(&q).unwrap();
        let total = merged.total_order_by(|c| c.to_string());
        // Any satisfying order serves P (prefix {col2,col3}) and Q (all 3).
        assert_eq!(
            total[..2].iter().cloned().collect::<BTreeSet<_>>(),
            ["col2".to_string(), "col3".to_string()].into()
        );
        assert_eq!(total[2], "col1");
    }

    #[test]
    fn conflicting_orders_do_not_merge() {
        // P says a before b; Q says b before a.
        let p = po(&[&["a"], &["b"]]);
        let q = po(&[&["b"], &["a"], &["c"]]);
        assert!(p.merge_pairwise(&q).is_none());
    }

    #[test]
    fn strengthened_check_rejects_leftover_before_p() {
        // Q orders c (not in P) before a (in P): merged <P..., c> would
        // contradict Q.
        let p = po(&[&["a", "b"]]);
        let q = po(&[&["c"], &["a", "b"]]);
        assert!(p.merge_pairwise(&q).is_none());
        // But leftover after P merges fine.
        let q2 = po(&[&["a", "b"], &["c"]]);
        let merged = p.merge_pairwise(&q2).unwrap();
        assert_eq!(merged, po(&[&["a", "b"], &["c"]]));
    }

    #[test]
    fn refinement_splits_partition_by_q_order() {
        // P = <{a, b}> unordered; Q = <{a}, {b}, {c}> fully ordered.
        // Merge must refine P to <{a}, {b}> then append {c}.
        let p = po(&[&["a", "b"]]);
        let q = po(&[&["a"], &["b"], &["c"]]);
        let merged = p.merge_pairwise(&q).unwrap();
        assert_eq!(merged, po(&[&["a"], &["b"], &["c"]]));
    }

    #[test]
    fn identical_orders_merge_to_themselves() {
        let p = po(&[&["a"], &["b", "c"]]);
        let merged = p.merge_pairwise(&p.clone()).unwrap();
        assert_eq!(merged, p);
    }

    #[test]
    fn new_rejects_overlapping_partitions() {
        assert!(PartialOrder::new([vec!["a", "b"], vec!["b", "c"]]).is_none());
    }

    #[test]
    fn append_skips_existing_columns() {
        let p = po(&[&["a"], &["b"]]);
        let appended = p.append(["b", "c", "d"]);
        assert_eq!(appended, po(&[&["a"], &["b"], &["c", "d"]]));
        // Appending nothing new is identity.
        assert_eq!(appended.append(["a"]), appended);
    }

    #[test]
    fn is_satisfied_by_checks_partition_boundaries() {
        let p = po(&[&["a", "b"], &["c"]]);
        let sat = |cols: &[&str]| {
            p.is_satisfied_by(&cols.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert!(sat(&["a", "b", "c"]));
        assert!(sat(&["b", "a", "c"]));
        assert!(!sat(&["a", "c", "b"]));
        assert!(!sat(&["a", "b"]));
        assert!(!sat(&["a", "b", "c", "d"]));
    }

    #[test]
    fn total_order_by_uses_tie_break() {
        let p = po(&[&["a", "b", "c"]]);
        // Reverse-lexicographic tie-break.
        let order = p.total_order_by(|c| std::cmp::Reverse(c.to_string()));
        assert_eq!(order, vec!["c", "b", "a"]);
    }

    #[test]
    fn merge_closure_reaches_fixed_point() {
        let a = po(&[&["col1", "col2", "col3"]]);
        let b = po(&[&["col2", "col3"]]);
        let c = po(&[&["col2"]]);
        let merged = merge_partial_orders(&[a, b, c]);
        // Closure must contain <{col2}, {col3}, {col1}> obtained by
        // merging c into (b into a).
        assert!(merged.contains(&po(&[&["col2"], &["col3"], &["col1"]])));
    }

    #[test]
    fn display_format() {
        let p = po(&[&["b", "a"], &["c"]]);
        assert_eq!(p.to_string(), "<{a, b}, {c}>");
    }

    #[test]
    fn width_and_columns() {
        let p = po(&[&["a", "b"], &["c"]]);
        assert_eq!(p.width(), 3);
        assert_eq!(p.columns().len(), 3);
        assert!(!p.is_empty());
        assert!(po(&[]).is_empty());
    }
}
