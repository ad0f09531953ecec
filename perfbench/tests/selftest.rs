//! Self-tests of the benchmark: determinism of the program counters and
//! of the generators, each workload's op mix, and the result checks.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use eds_perfbench::bench::{gated_world, untraced};
use eds_perfbench::probe::Probe;
use eds_perfbench::run::{check_rows, run_phase, Budget, Counters, Phase};
use eds_perfbench::trace::Tracer;
use eds_perfbench::workload::{literal_sql, setup, Config, Op, Workload, World, INGEST_BATCH};

fn world(workload: Workload, seed: u64) -> World {
    let (world, failures) = gated_world(workload, seed, &Config::pinned()).expect("setup");
    assert!(failures.is_empty(), "{failures:?}");
    world
}

fn traced_ops(workload: Workload, seed: u64, ops: u64) -> (Phase, Tracer) {
    let mut w = world(workload, seed);
    let mut tracer = Tracer::default();
    let phase = run_phase(&mut w, Budget::Ops(ops), Some(&mut tracer));
    assert_eq!(phase.failed, 0, "{:?}", phase.failures);
    (phase, tracer)
}

fn untraced_ops(workload: Workload, seed: u64, ops: u64) -> Phase {
    let mut w = world(workload, seed);
    let phase = run_phase(&mut w, Budget::Ops(ops), None);
    assert_eq!(phase.failed, 0, "{:?}", phase.failures);
    phase
}

/// The counters the paper's §7 discussion and the executor report:
/// these must not depend on timing.
fn program_counters(c: &Counters) -> [u64; 6] {
    [
        c.condition_checks,
        c.applications,
        c.combinations_tried,
        c.rows_emitted,
        c.hits,
        c.misses,
    ]
}

#[test]
fn program_counters_repeat_at_one_seed() {
    for (workload, ops) in [
        (Workload::AdhocCold, 200),
        (Workload::RepeatWarm, 200),
        (Workload::IngestScan, 60),
        (Workload::AdhocFull, 40),
    ] {
        let (a, _) = traced_ops(workload, 7, ops);
        let (b, _) = traced_ops(workload, 7, ops);
        assert_eq!(
            program_counters(&a.total),
            program_counters(&b.total),
            "{}",
            workload.name()
        );
        assert_eq!(a.total.explore_candidates, b.total.explore_candidates);
        assert_eq!(a.total.fix_iterations, b.total.fix_iterations);
        assert!(a.total.rows_emitted > 0, "{}", workload.name());
    }
}

#[test]
fn generators_are_deterministic_and_seed_dependent() {
    for workload in Workload::ALL {
        let cfg = Config::pinned();
        let stream = |seed: u64| {
            let mut w = setup(workload, seed, &cfg).expect("setup");
            (0..300).map(|_| w.gen.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(stream(11), stream(11), "{}", workload.name());
        assert_ne!(stream(11), stream(12), "{}", workload.name());
    }
    // The data differs across seeds too.
    let rows = |seed: u64| {
        let w = setup(Workload::RepeatWarm, seed, &Config::pinned()).expect("setup");
        w.dbms
            .query("SELECT K FROM SCAN WHERE A > 990 ;")
            .expect("query")
            .canonical()
            .rows
    };
    assert_eq!(rows(3), rows(3));
    assert_ne!(rows(3), rows(4));
}

fn hit_ratio(p: &Phase) -> f64 {
    p.total.hits as f64 / (p.total.hits + p.total.misses).max(1) as f64
}

#[test]
fn adhoc_cold_misses_the_plan_cache() {
    let p = untraced_ops(Workload::AdhocCold, 5, 400);
    let [query, execute, insert, ddl] = p.kinds;
    assert!(hit_ratio(&p) < 0.05, "hit ratio {}", hit_ratio(&p));
    assert!(query as f64 > 0.75 * p.attempted as f64);
    assert!(execute > 0 && insert > 0 && ddl == 0);
    let mut w = setup(Workload::AdhocCold, 5, &Config::pinned()).expect("setup");
    let texts: Vec<String> = (0..400)
        .filter_map(|_| match w.gen.next_op().op {
            Op::Query(sql) => Some(sql),
            _ => None,
        })
        .collect();
    let distinct: std::collections::HashSet<&String> = texts.iter().collect();
    assert!(distinct.len() as f64 > 0.95 * texts.len() as f64);
}

#[test]
fn repeat_warm_is_served_from_the_cache() {
    let p = untraced_ops(Workload::RepeatWarm, 5, 2000);
    let [query, execute, insert, _] = p.kinds;
    assert!(hit_ratio(&p) > 0.99, "hit ratio {}", hit_ratio(&p));
    assert!(query > 800 && execute > 800 && insert > 0);
}

#[test]
fn ingest_scan_interleaves_writes_with_scans() {
    let mut w = world(Workload::IngestScan, 5);
    let before = w.dbms.db.cardinality("SCAN").expect("SCAN");
    let p = run_phase(&mut w, Budget::Ops(400), None);
    assert_eq!(p.failed, 0, "{:?}", p.failures);
    let [query, execute, insert, ddl] = p.kinds;
    assert!(insert as f64 > 0.4 * p.attempted as f64);
    assert!(query + execute > 0);
    assert!((ddl as f64) < 0.02 * p.attempted as f64);
    let after = w.dbms.db.cardinality("SCAN").expect("SCAN");
    assert_eq!(after - before, insert as usize * INGEST_BATCH);
}

#[test]
fn adhoc_full_explores_candidates() {
    let (p, _) = traced_ops(Workload::AdhocFull, 5, 40);
    assert!(p.total.explore_candidates > 0);
    assert!(p.total.misses > 0 && hit_ratio(&p) < 0.1);
}

#[test]
fn layer_self_times_account_for_op_latency() {
    let (_, tracer) = traced_ops(Workload::AdhocCold, 9, 100);
    let spans = tracer.spans();
    let op_total: u64 = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let in_ops: u64 = tracer
        .self_times()
        .iter()
        .filter(|(name, _)| **name != "lera.cost.model_build")
        .map(|(_, &(ns, _))| ns)
        .sum();
    assert_eq!(op_total, in_ops);
    for name in [
        "esql.parse",
        "lera.translate",
        "rewrite.strategy",
        "engine.eval",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
}

#[test]
fn time_metrics_are_scaled_by_the_host_speed() {
    assert_eq!(Probe::default().speed(), 1.0);
    let report =
        untraced(Workload::AdhocCold, 3, Budget::Ops(300), &Config::pinned()).expect("run");
    let info = |key: &str| {
        report
            .info
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
            .expect(key)
    };
    let speed: f64 = info("host_speed").parse().expect("speed");
    assert!(speed.is_finite() && speed > 0.0);
    let raw = info("raw");
    let raw_value = |name: &str| -> f64 {
        let tail = raw.split(&format!("\"{name}\":")).nth(1).expect(name);
        tail.split([',', '}']).next().unwrap().parse().expect(name)
    };
    let value = |name: &str| {
        report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .expect(name)
            .value
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
    assert!(close(value("ops_per_s"), raw_value("ops_per_s") / speed));
    for name in [
        "latency_p50_us",
        "latency_p99_us",
        "write_p50_us",
        "write_p99_us",
    ] {
        assert!(close(value(name), raw_value(name) * speed), "{name}");
    }
}

#[test]
fn a_wrong_result_is_caught() {
    let w = world(Workload::AdhocCold, 1);
    let sql = "SELECT K FROM V3 WHERE B = 4 ;";
    let mut rel = w.dbms.query(sql).expect("query");
    check_rows(&w, sql, &rel).expect("correct rows pass");
    let extra = rel.rows[0].clone();
    rel.rows.push(extra);
    assert!(check_rows(&w, sql, &rel).is_err());
}

#[test]
fn binds_spell_as_literals() {
    use eds_core::adt::Value;
    use eds_perfbench::workload::literal;
    assert_eq!(
        literal_sql(
            "SELECT K FROM T WHERE A = ? AND B = ? ;",
            &[Value::Int(3), Value::str("o'k")]
        ),
        "SELECT K FROM T WHERE A = 3 AND B = 'o''k' ;"
    );
    assert_eq!(literal(&Value::Null), "NULL");
}

#[test]
fn refuses_to_run_with_pinned_settings_in_the_environment() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "adhoc_cold",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("EDS_PARALLELISM", "4")
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
