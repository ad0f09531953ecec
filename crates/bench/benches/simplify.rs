//! Experiment F12 — predicate simplification: constant-folding width
//! sweep (how rewrite time scales with qualification size) and the
//! execution payoff of folded qualifications.

use eds_bench::{simple_table, wide_conjunction_sql};
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn series() {
    println!("\n# F12 predicate simplification: conjunct-width sweep (500 rows)");
    println!(
        "{:<7} {:>14} {:>14} {:>12} {:>12}",
        "width", "conj_before", "conj_after", "checks", "applications"
    );
    let mut dbms = simple_table(500);
    dbms.rewriter.set_plan_cache_cap(0);
    for n in [1usize, 4, 8, 16] {
        let sql = wide_conjunction_sql(n);
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let count = |e: &eds_lera::Expr| match e {
            eds_lera::Expr::Search { pred, .. } => pred.conjuncts().len(),
            _ => 0,
        };
        println!(
            "{:<7} {:>14} {:>14} {:>12} {:>12}",
            n,
            count(&prepared.expr),
            count(&rewritten.expr),
            rewritten.stats.condition_checks,
            rewritten.stats.applications,
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("simplify");
    group.sample_size(20);
    let mut dbms = simple_table(500);
    dbms.rewriter.set_plan_cache_cap(0);
    for n in [4usize, 16] {
        let sql = wide_conjunction_sql(n);
        let prepared = dbms.prepare(&sql).unwrap();
        group.bench_with_input(BenchmarkId::new("rewrite", n), &prepared, |b, p| {
            b.iter(|| dbms.rewrite(p).unwrap());
        });
        let rewritten = dbms.rewrite(&prepared).unwrap();
        group.bench_with_input(
            BenchmarkId::new("exec_unfolded", n),
            &prepared.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("exec_folded", n),
            &rewritten.expr,
            |b, e| b.iter(|| dbms.run_expr(e).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
