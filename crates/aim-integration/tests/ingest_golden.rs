//! Differential oracle for the ingest path: `parse_statement` →
//! `normalize_statement` → `WorkloadMonitor::record`, compared against a
//! committed file instead of against a second implementation.
//!
//! Per corpus, every observation is recorded once in execution order and
//! then 50 000 seeded draws follow. One line per template carries its
//! fingerprint, an FNV-1a of the normalized text and of the printed
//! normalized AST, the counters `record` accumulated (floats by their
//! bits), the indexes of the most recent plan and the freshest exemplar's
//! printed text. A change to the lexer, parser, printer, normalizer or
//! monitor that alters a template, a sum, or which exemplar and plan
//! survive changes the file.
//!
//! The golden file lives in `tests/golden/`; regenerate intentionally with
//! `BLESS=1 cargo test -p aim-integration --test ingest_golden`.

mod common;

use aim_monitor::WorkloadMonitor;
use aim_sql::normalize::{fnv1a, QueryFingerprint};
use aim_workloads::rng::{Rng, SeedableRng, StdRng};
use common::Corpus;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const DRAWS: usize = 50_000;

fn corpus_section(out: &mut String, corpus: &Corpus) {
    let templates: BTreeSet<QueryFingerprint> = corpus
        .stmts
        .iter()
        .map(|s| common::checked_normalize(s).fingerprint)
        .collect();

    let mut monitor = WorkloadMonitor::new();
    for (i, outcome) in &corpus.observed {
        monitor.record(&corpus.stmts[*i], outcome);
    }
    let mut rng = StdRng::seed_from_u64(0x1263 ^ fnv1a(corpus.name.as_bytes()));
    for _ in 0..DRAWS {
        let (i, outcome) = &corpus.observed[rng.gen_range(0..corpus.observed.len())];
        monitor.record(&corpus.stmts[*i], outcome);
    }

    let recorded: BTreeSet<QueryFingerprint> = monitor.queries().map(|q| q.fingerprint).collect();
    assert!(
        recorded.is_subset(&templates),
        "{}: the monitor holds a template no statement normalizes to",
        corpus.name
    );
    writeln!(
        out,
        "{} statements={} observed={} templates={} recorded={}",
        corpus.name,
        corpus.stmts.len(),
        corpus.observed.len(),
        templates.len(),
        recorded.len()
    )
    .unwrap();
    for q in monitor.queries() {
        let indexes: Vec<String> = q
            .indexes_used
            .iter()
            .map(|u| {
                format!(
                    "{}.{}/{}/{}",
                    u.table,
                    u.index,
                    u.eq_prefix_len,
                    u8::from(u.covering)
                )
            })
            .collect();
        writeln!(
            out,
            "{} {} text={:016x} ast={:016x} n={} cpu={:016x} read={} sent={} seeks={} ddr={:016x} idx=[{}] | {}",
            corpus.name,
            q.fingerprint,
            fnv1a(q.normalized_text.as_bytes()),
            fnv1a(q.normalized.to_string().as_bytes()),
            q.executions,
            q.total_cpu.to_bits(),
            q.total_rows_read,
            q.total_rows_sent,
            q.total_seeks,
            q.ddr_avg().to_bits(),
            indexes.join(";"),
            q.exemplar
        )
        .unwrap();
    }
}

#[test]
fn ingest_digests_match_golden() {
    let mut actual = String::new();
    // One corpus in memory at a time.
    for build in [common::product_b, common::tpch, common::job, common::oltp] {
        corpus_section(&mut actual, &build());
    }
    common::assert_matches_golden("ingest_digest.txt", &actual);
}
