//! Heap-allocation budget of the ingest path, counted exactly by a
//! counting global allocator over the Product B + TPC-H statement texts
//! (the `ingest_stream` corpus: 9 588 texts here, 76 bytes and 29 tokens on
//! average). Counts repeat exactly, unlike timings, so a regression shows
//! as a number, and the numbers before the borrowed-token lexer, the
//! streamed fingerprint and in-place exemplars are kept beside each bound.
//!
//! This is its own test binary because of the `#[global_allocator]` in
//! `common/counting.rs`; the counter is thread-local, so the harness's
//! other threads do not disturb it.

mod common;
#[path = "common/counting.rs"]
mod counting;

use aim_monitor::WorkloadMonitor;
use aim_sql::lexer::lex;
use aim_sql::normalize::{fingerprint, normalize_statement};
use aim_sql::parse_statement;
use counting::count;

#[test]
fn ingest_path_stays_within_its_allocation_budget() {
    let [mut lexed, mut parsed, mut fingerprinted, mut normalized, mut known] = [0u64; 5];
    let mut n = 0usize;
    // One corpus in memory at a time.
    for build in [common::product_b, common::tpch] {
        let corpus = build();
        n += corpus.texts.len();
        for (text, stmt) in corpus.texts.iter().zip(&corpus.stmts) {
            lexed += count(|| lex(text).is_ok());
            parsed += count(|| parse_statement(text).is_ok());
            fingerprinted += count(|| fingerprint(stmt));
            normalized += count(|| normalize_statement(stmt).fingerprint);
        }
        // A known template arriving with the stored exemplar's shape and
        // the stored plan: every observation is recorded twice in a row
        // and the second call counted.
        let mut monitor = WorkloadMonitor::new();
        for (i, outcome) in &corpus.observed {
            monitor.record(&corpus.stmts[*i], outcome);
            known += count(|| monitor.record(&corpus.stmts[*i], outcome));
        }
    }
    let mean = |total: u64| total as f64 / n as f64;

    eprintln!(
        "allocations per statement over {n} texts: lex {:.2}, parse_statement {:.2}, \
         fingerprint {:.2}, normalize_statement {:.2}; record of a known template {known} in all",
        mean(lexed),
        mean(parsed),
        mean(fingerprinted),
        mean(normalized),
    );
    // Was 34.29: an upper-cased copy of every word, a `String` per
    // identifier and keyword, string literals pushed a `char` at a time.
    // Now the token buffer, plus one `String` per literal holding `''`.
    assert!(mean(lexed) <= 1.1, "lex: {:.2}", mean(lexed));
    // Was 56.31: the lexer's 34 plus `peek().clone()` on every identifier.
    // What remains is the AST: its boxes, vectors and names.
    assert!(mean(parsed) <= 30.0, "parse_statement: {:.2}", mean(parsed));
    // The monitor's per-record normalization was `normalize_statement`
    // at 24.85: a second AST and its printed text.
    assert_eq!(fingerprinted, 0, "fingerprint allocates");
    // Was 24.85. First sight and `QueryStats::synthetic` still build the
    // tree, but print the text into one reserved buffer.
    assert!(
        mean(normalized) <= 22.0,
        "normalize_statement: {:.2}",
        mean(normalized)
    );
    // Was 48.63: the 24.85 above, `exemplar = stmt.clone()` at about 20
    // and a fresh `indexes_used` vector with two `String`s per index.
    assert_eq!(known, 0, "record of a known template allocates");
}
