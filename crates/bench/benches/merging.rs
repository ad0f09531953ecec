//! Experiment F3/F7 — operation merging (Figure 7).
//!
//! Sweeps view-stack depth and reports, per depth: plan operator count
//! before/after rewriting, estimated plan cost, engine work, and the
//! rewrite time itself. The paper's qualitative claim: merging "reduces
//! the size of a LERA program" and "provides more opportunity to find
//! the best access plan".

use eds_bench::view_stack;
use eds_lera::CostModel;
use eds_testkit::bench::{BenchmarkId, Criterion};
use eds_testkit::{criterion_group, criterion_main};

fn series() {
    println!("\n# F7 operation merging: view-stack depth sweep (1000 base rows)");
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "depth",
        "ops_before",
        "ops_after",
        "cost_before",
        "cost_after",
        "work_before",
        "work_after"
    );
    let mut model = CostModel::new();
    model.set_card("BASE", 1000.0);
    for depth in [1usize, 2, 4, 8, 12] {
        let dbms = view_stack(depth, 1000);
        let sql = format!("SELECT K FROM V{depth} WHERE B = 3 ;");
        let prepared = dbms.prepare(&sql).unwrap();
        let rewritten = dbms.rewrite(&prepared).unwrap();
        let (_, before) = dbms.run_expr_with_stats(&prepared.expr).unwrap();
        let (_, after) = dbms.run_expr_with_stats(&rewritten.expr).unwrap();
        println!(
            "{:<6} {:>10} {:>10} {:>12.0} {:>12.0} {:>12} {:>12}",
            depth,
            prepared.expr.node_count(),
            rewritten.expr.node_count(),
            model.estimate(&prepared.expr).cost,
            model.estimate(&rewritten.expr).cost,
            before.rows_emitted,
            after.rows_emitted,
        );
    }
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut group = c.benchmark_group("merging");
    group.sample_size(20);
    for depth in [2usize, 8] {
        let mut dbms = view_stack(depth, 100);
        dbms.rewriter.set_plan_cache_cap(0);
        let sql = format!("SELECT K FROM V{depth} WHERE B = 3 ;");
        let prepared = dbms.prepare(&sql).unwrap();
        group.bench_with_input(BenchmarkId::new("rewrite", depth), &depth, |b, _| {
            b.iter(|| dbms.rewrite(&prepared).unwrap());
        });
        let rewritten = dbms.rewrite(&prepared).unwrap();
        group.bench_with_input(BenchmarkId::new("exec_unmerged", depth), &depth, |b, _| {
            b.iter(|| dbms.run_expr(&prepared.expr).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("exec_merged", depth), &depth, |b, _| {
            b.iter(|| dbms.run_expr(&rewritten.expr).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
