//! Same-host smoke gate for cost-guided rewriting — the CI leg behind
//! the `EDS_OPT_LEVEL` matrix. Everything here compares two
//! measurements taken back to back on the *same* machine, so the gate
//! is meaningful on any runner (committed nanoseconds from another host
//! are never consulted; those live in `BENCH_exec.json` and are gated
//! by `bench_report_exec --check-opt-level-floor` on baseline
//! re-records).
//!
//! Three checks, any failure exits 1:
//!
//! 1. **Exploration wins its floors** — for each `opt_level` workload,
//!    the `OptLevel::Full` plan must beat the `OptLevel::Simple` plan
//!    in measured execution by at least the factor committed in
//!    `crates/bench/baselines/opt_level_floors.tsv` (the join-order
//!    workload's floor is 1.5x), and the exploration must have stayed
//!    within its budget (`budget_exhausted` unset, candidate count
//!    under the cap).
//! 2. **Full never regresses the exec workloads** — on every
//!    `exec_workloads` entry, either Full picks the same plan as
//!    Simple, or its pick must not run measurably slower (>25%
//!    tolerance for timing noise).
//! 3. **None cuts prepare time on trivial statements** — rewriting a
//!    point scan at `OptLevel::None` must be faster than at `Simple`,
//!    since it skips the rule kernel entirely.

use std::time::Instant;

use eds_bench::{exec_workloads, opt_level_workloads, simple_table};
use eds_core::{Dbms, OptLevel, Prepared};

/// Median wall-clock nanoseconds of `iters` runs of `f`.
fn median_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[samples.len() / 2]
}

fn read_floors() -> Vec<(String, f64)> {
    let path = {
        let mut dir = std::env::current_dir().expect("cwd");
        loop {
            if dir.join("Cargo.lock").exists() {
                break dir.join("crates/bench/baselines/opt_level_floors.tsv");
            }
            assert!(dir.pop(), "no workspace root above the current directory");
        }
    };
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .lines()
        .filter_map(|l| {
            let mut cols = l.split('\t');
            Some((cols.next()?.to_owned(), cols.next()?.trim().parse().ok()?))
        })
        .collect()
}

fn plans_at_levels(
    dbms: &mut Dbms,
    prepared: &Prepared,
) -> (eds_core::RewriteOutcome, eds_core::RewriteOutcome) {
    dbms.rewriter.set_plan_cache_cap(0);
    dbms.set_opt_level(OptLevel::Simple);
    let simple = dbms.rewrite(prepared).unwrap();
    dbms.set_opt_level(OptLevel::Full);
    let full = dbms.rewrite(prepared).unwrap();
    (simple, full)
}

fn main() {
    let mut failures: Vec<String> = Vec::new();

    // 1. The opt_level workloads hold their committed floors.
    let floors = read_floors();
    for (id, mut dbms, sql) in opt_level_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        let (simple, full) = plans_at_levels(&mut dbms, &prepared);
        let ex = full.exploration.expect("Full reports exploration");
        if full.budget_exhausted {
            failures.push(format!("{id}: exploration exhausted a block budget"));
        }
        let simple_ns = median_ns(7, || {
            dbms.run_expr(&simple.expr).unwrap();
        });
        let full_ns = median_ns(7, || {
            dbms.run_expr(&full.expr).unwrap();
        });
        let speedup = simple_ns / full_ns;
        let floor = floors
            .iter()
            .find(|(f, _)| f == id)
            .map_or_else(|| panic!("{id} has no committed floor"), |(_, v)| *v);
        println!(
            "{id}: simple {simple_ns:.0} ns, full {full_ns:.0} ns, speedup {speedup:.2}x \
             (floor {floor:.1}x, considered {} candidates, est. {:.0} vs runner-up {:.0})",
            ex.considered,
            ex.chosen_cost,
            ex.runner_up_cost.unwrap_or(f64::NAN),
        );
        if speedup < floor {
            failures.push(format!(
                "{id}: Full speedup {speedup:.2}x below committed floor {floor:.1}x"
            ));
        }
    }

    // 2. Full never makes an exec workload measurably slower.
    for (id, mut dbms, sql) in exec_workloads() {
        let prepared = dbms.prepare(&sql).unwrap();
        let (simple, full) = plans_at_levels(&mut dbms, &prepared);
        if simple.expr == full.expr {
            continue;
        }
        let simple_ns = median_ns(5, || {
            dbms.run_expr(&simple.expr).unwrap();
        });
        let full_ns = median_ns(5, || {
            dbms.run_expr(&full.expr).unwrap();
        });
        println!(
            "{id}: Full chose a different plan — simple {simple_ns:.0} ns, full {full_ns:.0} ns"
        );
        if full_ns > simple_ns * 1.25 {
            failures.push(format!(
                "{id}: Full's plan is {:.2}x slower than Simple's",
                full_ns / simple_ns
            ));
        }
    }

    // 3. None skips the rule kernel on trivial statements.
    {
        let mut dbms = simple_table(100);
        dbms.rewriter.set_plan_cache_cap(0);
        let prepared = dbms.prepare("SELECT Y FROM T WHERE X = 42 ;").unwrap();
        dbms.set_opt_level(OptLevel::Simple);
        let simple_ns = median_ns(25, || {
            dbms.rewrite(&prepared).unwrap();
        });
        dbms.set_opt_level(OptLevel::None);
        let none = dbms.rewrite(&prepared).unwrap();
        if none.stats.condition_checks != 0 {
            failures.push(format!(
                "trivial scan still rewrote at OptLevel::None ({} checks)",
                none.stats.condition_checks
            ));
        }
        let none_ns = median_ns(25, || {
            dbms.rewrite(&prepared).unwrap();
        });
        println!(
            "trivial prepare: simple {simple_ns:.0} ns, none {none_ns:.0} ns ({:.1}x faster)",
            simple_ns / none_ns
        );
        if none_ns >= simple_ns {
            failures.push(format!(
                "OptLevel::None did not cut trivial-statement prepare time \
                 (none {none_ns:.0} ns >= simple {simple_ns:.0} ns)"
            ));
        }
    }

    if failures.is_empty() {
        println!("opt_level gate: all checks passed");
    } else {
        eprintln!("opt_level gate failures:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
