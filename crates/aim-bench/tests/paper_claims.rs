//! The paper's evaluation claims (§VI), asserted on the rows the printers
//! print: `aim_bench::{fig3, fig4, fig5, fig6, table2, continuous}::run` at
//! `Scale::Quick`, i.e. exactly what `fig4 tpch quick`, `table2 quick`, …
//! show. Counts and cost units only — nothing here reads a clock. Where the
//! reproduction does not show a claim, the test pins what it shows and says
//! so by name (EXPERIMENTS.md carries the same sentence).
//!
//! Measured on the 2-vCPU box, default test profile: 66 s for the binary,
//! the seven side by side (99 s if they ran one by one: `fig4` on TPC-H
//! 30 s, `table2` 22 s, `fig4` on JOB and TPC-DS 17 s, `fig3` 11 s, `fig5`
//! 9 s, `fig6` 8 s, `continuous` 1 s). Every advisor run counts its own
//! what-if calls, so nothing here shares state. The baselines of `fig4`
//! and `fig5` ask a what-if cache for every repeated question, and the
//! test profile re-plans every hit (DESIGN.md §6).

use aim_bench::fig4::{Benchmark, Sweep};
use aim_bench::{continuous, fig3, fig4, fig5, fig6, table2, Scale};

fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// Fig. 4b/4d on one benchmark: AIM's what-if calls do not depend on the
/// budget; DTA's and Extend's grow with it and end at least `factor` times
/// AIM's.
fn whatif_calls_claim(sweep: &Sweep, factor: u64) {
    let calls =
        |advisor| -> Vec<u64> { sweep.of(advisor).iter().map(|r| r.whatif_calls).collect() };
    let (aim, dta, extend) = (calls("AIM"), calls("DTA"), calls("Extend"));
    let label = sweep.benchmark.label();
    println!("{label} what-if calls: AIM {aim:?} DTA {dta:?} Extend {extend:?}");

    let (lo, hi) = (*aim.iter().min().unwrap(), *aim.iter().max().unwrap());
    assert!(lo > 0, "{label}: AIM is not being counted: {aim:?}");
    // The stated factor: 1.1. Ranking prices every candidate whatever the
    // budget; only the knapsack reads it.
    assert!(
        hi * 10 <= lo * 11,
        "{label}: AIM's calls move with the budget: {aim:?}"
    );
    for (name, baseline) in [("DTA", &dta), ("Extend", &extend)] {
        let (first, last) = (baseline[0], *baseline.last().unwrap());
        assert!(
            baseline.windows(2).all(|w| w[0] <= w[1]) && last > first,
            "{label}: {name}'s calls do not grow with the budget: {baseline:?}"
        );
        assert!(
            last >= factor * aim.last().unwrap(),
            "{label}: {name} ends at {last} calls, under {factor}x AIM's {aim:?}"
        );
    }
}

/// Fig. 4a/4b on TPC-H, width ≤ 4.
#[test]
fn fig4_tpch_aim_is_cheap_at_every_budget_and_best_once_the_budget_relaxes() {
    let sweep = fig4::run(Benchmark::Tpch, Scale::Quick);
    whatif_calls_claim(&sweep, 10);

    let cost =
        |advisor| -> Vec<f64> { sweep.of(advisor).iter().map(|r| r.relative_cost).collect() };
    let (aim, dta, extend) = (cost("AIM"), cost("DTA"), cost("Extend"));
    println!("TPC-H relative cost: AIM {aim:?} DTA {dta:?} Extend {extend:?}");
    assert!(
        aim.len() >= 4,
        "the sweep needs a smallest, a third and a largest budget"
    );
    // (a) Worst at the smallest budget: solution granularity traded for speed.
    assert!(
        aim[0] > dta[0] && aim[0] > extend[0],
        "AIM is not the worst advisor at the smallest budget"
    );
    // (b) At par (2%) or better from the third budget on.
    for i in 2..aim.len() {
        assert!(
            aim[i] <= dta[i].min(extend[i]) * 1.02,
            "budget #{i}: AIM {} behind DTA {} / Extend {}",
            aim[i],
            dta[i],
            extend[i]
        );
    }
    // Every advisor's recommendation fits its budget's purpose: cost falls
    // (weakly) as the budget grows.
    for (name, series) in [("AIM", &aim), ("DTA", &dta), ("Extend", &extend)] {
        assert!(
            series.windows(2).all(|w| w[1] <= w[0] + 1e-9),
            "{name} not monotone: {series:?}"
        );
    }
}

/// Fig. 4c/4d and the TPC-DS remark, width ≤ 3: the runtime shape only.
/// Quality on JOB lands behind DTA at the largest budgets (EXPERIMENTS.md),
/// so no quality claim is made here.
#[test]
fn fig4_job_and_tpcds_show_the_same_call_counts_shape() {
    // JOB: DTA ends at 6.5x AIM's calls at this scale (Extend at 13x), under
    // the 10x of the other two benchmarks; pinned at 5x rather than tuned.
    whatif_calls_claim(&fig4::run(Benchmark::Job, Scale::Quick), 5);
    whatif_calls_claim(&fig4::run(Benchmark::Tpcds, Scale::Quick), 10);
}

/// Fig. 5: at 40% of the full configuration the three advisors' per-query
/// costs are "very similar" — every one far below the unindexed workload,
/// none more than a third off another, estimated or measured.
#[test]
fn fig5_the_three_advisors_track_each_other_per_query() {
    let fig = fig5::run(Scale::Quick);
    let none = fig.totals("none");
    let totals: Vec<(f64, f64)> = ["AIM", "DTA", "Extend"]
        .iter()
        .map(|a| fig.totals(a))
        .collect();
    println!("fig5 totals (estimated, measured): none {none:?} AIM/DTA/Extend {totals:?}");
    assert_eq!(fig.rows.len(), 4 * 22);
    for column in [|t: &(f64, f64)| t.0, |t: &(f64, f64)| t.1] {
        let (lo, hi) = totals
            .iter()
            .map(column)
            .fold((f64::MAX, 0.0f64), |(lo, hi), x| (lo.min(x), hi.max(x)));
        assert!(
            hi < 0.5 * column(&none),
            "an advisor leaves half the unindexed cost: {totals:?}"
        );
        assert!(hi <= lo * 4.0 / 3.0, "the advisors diverge: {totals:?}");
    }
    // AIM's configuration is the cheapest by the optimizer's own estimate.
    assert!(
        totals[0].0 <= totals[1].0 && totals[0].0 <= totals[2].0,
        "{totals:?}"
    );
}

/// Fig. 3: identical until the drop, a CPU spike and a throughput dip at
/// it, and the control's level again once AIM's indexes have landed.
#[test]
fn fig3_the_test_machine_spikes_at_the_drop_and_recovers() {
    let rows = fig3::run(Scale::Quick);
    let products: std::collections::BTreeSet<&str> =
        rows.iter().map(|r| r.product.as_str()).collect();
    assert!(products.len() >= 2);
    for product in products {
        let rows: Vec<&fig3::Row> = rows.iter().filter(|r| r.product == product).collect();
        assert_eq!(rows.len(), fig3::TOTAL_TICKS);
        for r in &rows[..fig3::DROP_TICK] {
            assert_eq!(
                (r.test_cpu_pct, r.test_throughput),
                (r.control_cpu_pct, r.control_throughput)
            );
        }
        let drop = rows[fig3::DROP_TICK];
        println!(
            "fig3 {product}: drop tick cpu {:.1} vs {:.1}, throughput {:.1} vs {:.1}",
            drop.test_cpu_pct, drop.control_cpu_pct, drop.test_throughput, drop.control_throughput
        );
        assert!(
            drop.test_cpu_pct >= 1.5 * drop.control_cpu_pct,
            "{product}: no CPU spike at the drop"
        );
        assert!(
            drop.test_throughput < 0.9 * drop.control_throughput,
            "{product}: no throughput dip"
        );

        let tail = &rows[fig3::TOTAL_TICKS - 8..];
        let test_cpu = mean(tail.iter().map(|r| r.test_cpu_pct));
        let control_cpu = mean(tail.iter().map(|r| r.control_cpu_pct));
        println!("fig3 {product}: last 8 ticks cpu {test_cpu:.1} vs control {control_cpu:.1}");
        assert!(
            test_cpu <= control_cpu * 1.10,
            "{product}: {test_cpu:.1}% vs the control's {control_cpu:.1}%"
        );
        assert!(
            tail.iter()
                .all(|r| r.test_throughput == r.control_throughput),
            "{product}: throughput"
        );
    }
}

/// Fig. 6, in executed cost per statement (the capacity-free reading):
/// j=2 materially better than j=1, AIM ahead of GIA.
///
/// The paper's "j=3 marginal" is *not* reproduced in cost and is pinned as
/// measured: j=3 takes 31 % off j=2 here (j3/j2 = 0.69; 45 % at full scale)
/// and serves the same throughput, the offered load. The step is the 4-way
/// star, the one query where `child` joins three tables: Algorithm 3
/// generates its `child` candidates only at j=3, and Eq. 7 prices a
/// candidate only on the queries it was generated for, so no j=2 pass
/// prices an index on it (EXPERIMENTS.md, Figure 6).
#[test]
fn fig6_j2_is_where_the_join_parameter_pays_and_aim_beats_gia() {
    let fig = fig6::run(Scale::Quick);
    let aim = |phase| fig.phase("AIM", phase);
    let gia = fig.phase("GIA", "tuned");
    let [j0, j1, j2, j3] = ["unindexed", "j=1", "j=2", "j=3"].map(|p| aim(p).cost_per_statement);
    println!(
        "fig6 cost per statement: unindexed {j0:.1} j=1 {j1:.1} j=2 {j2:.1} j=3 {j3:.1} GIA {:.1}",
        gia.cost_per_statement
    );
    println!(
        "fig6 throughput j=2 {:.1} j=3 {:.1}; created j=2 {:?} j=3 {:?}",
        aim("j=2").throughput,
        aim("j=3").throughput,
        aim("j=2").created,
        aim("j=3").created
    );
    assert!(j1 < 0.5 * j0, "j=1 does not help");
    assert!(j2 <= 0.7 * j1, "j=2 is not materially better than j=1");
    assert!(
        (0.6..=0.8).contains(&(j3 / j2)),
        "j=3 moved off its measured step: {}",
        j3 / j2
    );
    assert!(aim("j=3").throughput >= aim("j=2").throughput);
    let fk_d_first = |p: &fig6::Phase| p.created.iter().any(|c| c.starts_with("child(fk_d"));
    assert!(
        !fk_d_first(aim("j=2")) && fk_d_first(aim("j=3")),
        "the 4-way star's index moved"
    );
    assert!(j3 <= 0.9 * gia.cost_per_statement, "AIM does not beat GIA");
    assert!(aim("j=3").cpu_pct < gia.cpu_pct && aim("j=3").throughput >= gia.throughput);
    assert!(aim("j=2").throughput >= aim("j=1").throughput);
    assert!(aim("j=3").created.is_empty() || aim("j=3").created.len() < aim("j=2").created.len());
}

/// Table II: at par with the DBA oracle on fewer indexes and fewer bytes,
/// on all seven profiles.
///
/// Two of the paper's numbers are *not* reproduced and are pinned as
/// measured: parity is ≤ 1.02 on six profiles but 1.07 on the write-heavy
/// 16-table Product D (1.03 at full scale, 1.02 when the table was first
/// recorded); and Jaccard lands at 0.38–0.55, below the paper's 0.61–0.97
/// band — the DBA here is an oracle heuristic, not a human converging on
/// AIM's conventions.
#[test]
fn table2_parity_with_the_dba_on_fewer_indexes_and_bytes() {
    let rows = table2::run(Scale::Quick);
    assert_eq!(
        rows.iter().map(|r| r.product.as_str()).collect::<String>(),
        "ABCDEFG"
    );
    for r in &rows {
        println!(
            "table2 {}: {}/{} indexes, {}/{} bytes, Jaccard {:.2} ({:.2} by column set), cost {:.3}",
            r.product, r.dba_indexes, r.aim_indexes, r.dba_bytes, r.aim_bytes, r.jaccard, r.jaccard_sets, r.cost_ratio
        );
        assert!(
            r.aim_indexes < r.dba_indexes,
            "{}: not fewer indexes",
            r.product
        );
        assert!(r.aim_bytes < r.dba_bytes, "{}: not fewer bytes", r.product);
        let parity = if r.product == "D" { 1.08 } else { 1.02 };
        assert!(
            r.cost_ratio <= parity,
            "{}: cost A/D {:.3} > {parity}",
            r.product,
            r.cost_ratio
        );
        assert!(
            (0.35..=0.97).contains(&r.jaccard),
            "{}: Jaccard {:.2}",
            r.product,
            r.jaccard
        );
        assert!(r.jaccard_sets >= r.jaccard);
    }
    // The paper's lower edge (0.61) is reached by no profile; the best ones
    // come within 0.1 of it.
    let best = rows.iter().map(|r| r.jaccard).fold(0.0, f64::max);
    assert!(
        (0.5..0.61).contains(&best),
        "best Jaccard moved to {best:.2}: correct the note above"
    );
}

/// §VI-D: the bootstrap converges on the initial workload; the pass after
/// the new queries arrive creates indexes for them and the window gets
/// cheaper.
#[test]
fn continuous_the_post_shift_pass_creates_indexes_and_lowers_window_cost() {
    let shift = continuous::run(Scale::Quick);
    let created: Vec<usize> = shift
        .bootstrap
        .iter()
        .map(|w| w.tuning.created.len())
        .collect();
    let post = &shift.post_shift;
    println!(
        "continuous: bootstrap {created:?}, post-shift {}, {} of {} improved ({} by 10x), saving {:.1}%",
        continuous::window_line(post),
        shift.queries_improved,
        shift.queries_measured,
        shift.improved_10x,
        shift.cpu_saving_pct()
    );
    assert!(created[0] > 0);
    assert_eq!(created.last(), Some(&0), "the bootstrap has not converged");
    assert!(
        !post.tuning.created.is_empty(),
        "the new queries got no index"
    );
    assert!(post.reverted.is_empty());
    assert!(shift.window_cost_after < 0.9 * shift.window_cost_before);
    assert!(shift.queries_improved > 0 && shift.improved_10x <= shift.queries_improved);
}
