//! One benchmark run: setup, correctness gate, measured phase, metrics.

use std::time::Instant;

use crate::probe::Probe;
use crate::run::{gate, run_phase, Budget, Phase};
use crate::trace::Tracer;
use crate::workload::{setup, Config, Workload, World, PARALLELISM};

/// Fewest setups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Setups repeat past [`SETUP_REPS`] until this many seconds have been
/// spent on them (a cheap setup is timed many times), up to
/// [`SETUP_MAX_REPS`].
pub const SETUP_MIN_S: f64 = 1.0;
/// Most setups per untraced run.
pub const SETUP_MAX_REPS: usize = 100;

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct Report {
    /// Ops attempted in the measured phase(s).
    pub attempted: u64,
    /// Ops that failed or returned a wrong result, gate failures included.
    pub failed: u64,
    /// Metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Extra facts for the info line, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// The traced run's spans as JSON.
    pub trace_json: Option<String>,
}

/// Length of the windows an untraced run is cut into, seconds.
pub const WINDOW_S: f64 = 1.0;

/// One window of measured time.
#[derive(Debug)]
struct Window {
    /// Sorted read latencies, ns.
    reads: Vec<u64>,
    /// Sorted write latencies, ns.
    writes: Vec<u64>,
}

/// Cut `phase` into [`WINDOW_S`] windows of measured time (the last one
/// absorbs the remainder).
fn windows(phase: &Phase) -> Vec<Window> {
    let n = ((phase.measured_s / WINDOW_S) as usize).max(1);
    let slot = |at: u64| ((at as f64 / 1e9 / WINDOW_S) as usize).min(n - 1);
    let mut out: Vec<Window> = (0..n)
        .map(|_| Window {
            reads: Vec::new(),
            writes: Vec::new(),
        })
        .collect();
    for s in &phase.reads {
        out[slot(s.at_ns)].reads.push(s.lat_ns);
    }
    for s in &phase.writes {
        out[slot(s.at_ns)].writes.push(s.lat_ns);
    }
    for w in &mut out {
        w.reads.sort_unstable();
        w.writes.sort_unstable();
    }
    out
}

/// Nearest-rank percentile `p` (0..1) of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// The highest percentile up to p99 with at least ten samples beyond it:
/// `(value, percentile)`.
fn tail(sorted: &[u64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = (1.0 - 10.0 / n).clamp(0.5, 0.99);
    (percentile(sorted, p), p)
}

fn median_f(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn config_json(workload: Workload, seed: u64, cfg: &Config) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"nproc\":{},\"parallelism\":{},\"columnar\":{},\"opt_level\":\"{}\",\"plan_cache_cap\":{}}}",
        workload.name(),
        cfg.nproc,
        PARALLELISM,
        cfg.columnar,
        workload.opt_level(),
        cfg.plan_cache_cap
    )
}

/// Build a world and run the correctness gate over it.
pub fn gated_world(
    workload: Workload,
    seed: u64,
    cfg: &Config,
) -> Result<(World, Vec<String>), String> {
    let world = setup(workload, seed, cfg).map_err(|e| format!("setup: {e}"))?;
    let failures = gate(&world);
    Ok((world, failures))
}

fn info_common(phase: &Phase, gate_failures: usize) -> Vec<(&'static str, String)> {
    let t = &phase.total;
    vec![
        ("ops", phase.attempted.to_string()),
        (
            "op_kinds",
            format!(
                "{{\"query\":{},\"execute\":{},\"insert\":{},\"ddl\":{}}}",
                phase.kinds[0], phase.kinds[1], phase.kinds[2], phase.kinds[3]
            ),
        ),
        ("checks", phase.checks.to_string()),
        ("paused_s", phase.paused_s.to_string()),
        ("gate_failures", gate_failures.to_string()),
        (
            "error_rate",
            ratio(phase.failed + gate_failures as u64, phase.attempted).to_string(),
        ),
        (
            "plan_cache_hit_ratio",
            ratio(t.hits, t.hits + t.misses).to_string(),
        ),
    ]
}

/// The untraced run: setup [`SETUP_REPS`] times, gate, then measure for
/// `budget`. Reports the end-to-end metrics.
pub fn untraced(
    workload: Workload,
    seed: u64,
    budget: Budget,
    cfg: &Config,
) -> Result<Report, String> {
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_probe = Probe::default();
    let mut world = None;
    while setups.len() < SETUP_REPS
        || (setups.iter().sum::<f64>() < SETUP_MIN_S && setups.len() < SETUP_MAX_REPS)
    {
        drop(world.take());
        setup_probe.sample();
        let t = Instant::now();
        let w = setup(workload, seed, cfg).map_err(|e| format!("setup: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        world = Some(w);
    }
    let setups_len = setups.len();
    let mut world = world.expect("at least one setup");
    let gate_failures = gate(&world);
    let phase = run_phase(&mut world, budget, None);
    drop(world);
    let wins = windows(&phase);
    let med = |f: &dyn Fn(&Window) -> f64| median_f(wins.iter().map(f).collect());
    // Times as measured, then stated at the reference host speed: a
    // time is multiplied by the speed, a rate divided by it.
    let raw = [
        median_f(setups),
        phase.ops_per_s(),
        med(&|w| percentile(&w.reads, 0.5)) / 1e3,
        med(&|w| tail(&w.reads).0) / 1e3,
        med(&|w| percentile(&w.writes, 0.5)) / 1e3,
        med(&|w| tail(&w.writes).0) / 1e3,
    ];
    let (setup_speed, speed) = (setup_probe.speed(), phase.probe.speed());
    let metrics = vec![
        metric("setup_s", raw[0] * setup_speed, "s"),
        metric("ops_per_s", raw[1] / speed, "ops/s"),
        metric("latency_p50_us", raw[2] * speed, "us"),
        metric("latency_p99_us", raw[3] * speed, "us"),
        metric("write_p50_us", raw[4] * speed, "us"),
        metric("write_p99_us", raw[5] * speed, "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let raw_json: Vec<String> = metrics
        .iter()
        .zip(raw)
        .map(|(m, v)| format!("\"{}\":{v}", m.name))
        .collect();
    let mut info = vec![
        ("config", config_json(workload, seed, cfg)),
        ("host_speed", speed.to_string()),
        ("setup_host_speed", setup_speed.to_string()),
        ("probes", phase.probe.samples.len().to_string()),
        ("raw", format!("{{{}}}", raw_json.join(","))),
    ];
    info.extend(info_common(&phase, gate_failures.len()));
    info.extend([
        ("setup_reps", setups_len.to_string()),
        ("windows", wins.len().to_string()),
        ("read_samples", phase.reads.len().to_string()),
        (
            "latency_p99_percentile",
            med(&|w| tail(&w.reads).1).to_string(),
        ),
        ("write_samples", phase.writes.len().to_string()),
        (
            "write_p99_percentile",
            med(&|w| tail(&w.writes).1).to_string(),
        ),
    ]);
    let mut failures = gate_failures.clone();
    failures.extend(phase.failures.iter().cloned());
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed + gate_failures.len() as u64,
        metrics,
        info,
        failures,
        trace_json: None,
    })
}

/// Per-layer metric names and the span whose self time each one sums.
pub const LAYER_SPANS: [(&str, &str); 10] = [
    ("esql.parse_us", "esql.parse"),
    ("lera.translate_us", "lera.translate"),
    ("lera.term_bridge_us", "lera.term_bridge"),
    ("rewrite.strategy_us", "rewrite.strategy"),
    ("core.plan_cache.hit_us", "core.plan_cache.hit"),
    ("core.execute_us", "core.execute"),
    ("engine.eval_us", "engine.eval"),
    ("engine.database.insert_us", "engine.database.insert"),
    (
        "engine.database.columnar_build_us",
        "engine.database.columnar",
    ),
    ("harness.self_us", "op"),
];

/// The traced run: an untraced phase and a traced phase of half of
/// `budget` each, on identical fresh worlds, so the tracing overhead is
/// the ratio of their throughputs and the run takes as long as an
/// untraced one. Reports the per-layer metrics.
pub fn traced(
    workload: Workload,
    seed: u64,
    budget: Budget,
    cfg: &Config,
) -> Result<Report, String> {
    let (mut world, gate_a) = gated_world(workload, seed, cfg)?;
    let plain = run_phase(&mut world, budget.half(), None);
    drop(world);
    let (mut world, gate_b) = gated_world(workload, seed, cfg)?;
    let mut tracer = Tracer::default();
    let phase = run_phase(&mut world, budget.half(), Some(&mut tracer));
    drop(world);

    let ops = phase.attempted.max(1) as f64;
    let self_times = tracer.self_times();
    let per_op = |span: &str| {
        self_times
            .get(span)
            .map_or(0.0, |&(ns, _)| ns as f64 / ops / 1e3)
    };
    let op_latency_us: f64 = self_times
        .iter()
        .filter(|(name, _)| LAYER_SPANS.iter().any(|(_, s)| s == *name))
        .map(|(_, &(ns, _))| ns as f64)
        .sum::<f64>()
        / ops
        / 1e3;
    let (build_ns, builds) = self_times
        .get("lera.cost.model_build")
        .copied()
        .unwrap_or((0, 0));
    let w = &phase.window;
    let t = &phase.total;
    let lookups = t.hits + t.misses + t.shape_hits + t.shape_misses;
    let mut metrics: Vec<Metric> = LAYER_SPANS
        .iter()
        .map(|&(name, span)| metric(name, per_op(span), "us"))
        .collect();
    metrics.extend([
        metric(
            "rewrite.condition_checks",
            w.condition_checks as f64,
            "count",
        ),
        metric("rewrite.applications", w.applications as f64, "count"),
        metric(
            "rewrite.apply_ratio",
            ratio(w.applications, w.condition_checks),
            "ratio",
        ),
        metric(
            "rewrite.explore_candidates",
            w.explore_candidates as f64,
            "count",
        ),
        metric("rewrite.explore_checks", w.explore_checks as f64, "count"),
        metric(
            "rewrite.explore_win_ratio",
            ratio(w.explore_wins, w.explorations),
            "ratio",
        ),
        metric(
            "core.plan_cache.hit_ratio",
            ratio(t.hits, t.hits + t.misses),
            "ratio",
        ),
        metric(
            "core.plan_cache.shape_hit_ratio",
            ratio(t.shape_hits, lookups),
            "ratio",
        ),
        metric("core.plan_cache.evictions", t.evictions as f64, "count"),
        metric(
            "core.plan_cache.invalidations",
            t.invalidations as f64,
            "count",
        ),
        metric(
            "lera.cost.model_build_us",
            ratio(build_ns, builds) / 1e3,
            "us",
        ),
        metric(
            "lera.cost.qerror_p50",
            median_f(phase.qerrors.clone()),
            "ratio",
        ),
        metric("engine.rows_emitted", w.rows_emitted as f64, "count"),
        metric(
            "engine.combinations_tried",
            w.combinations_tried as f64,
            "count",
        ),
        metric(
            "engine.combos_per_row",
            ratio(w.combinations_tried, w.result_rows),
            "ratio",
        ),
        metric("engine.fix_iterations", w.fix_iterations as f64, "count"),
        metric(
            "engine.database.mirror_rebuilds",
            t.mirror_rebuilds as f64,
            "count",
        ),
        metric("trace.op_latency_us", op_latency_us, "us"),
        metric("trace.ops_per_s", phase.ops_per_s(), "ops/s"),
        metric("trace.untraced_ops_per_s", plain.ops_per_s(), "ops/s"),
        metric(
            "trace.overhead_ratio",
            plain.ops_per_s() / phase.ops_per_s().max(1e-9),
            "ratio",
        ),
    ]);

    // Self times partition each op span, so they must add up to the
    // measured op latency (to clock granularity).
    let span_op_us: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "op")
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .sum::<f64>()
        / ops
        / 1e3;
    let gate_failures = gate_a.len() + gate_b.len();
    let mut info = vec![("config", config_json(workload, seed, cfg))];
    info.extend(info_common(&phase, gate_failures));
    info.extend([
        ("window_ops", phase.window_ops.to_string()),
        ("op_span_mean_us", span_op_us.to_string()),
        ("untraced_ops", plain.attempted.to_string()),
        ("spans", tracer.spans().len().to_string()),
        ("model_builds", builds.to_string()),
    ]);
    let header = format!("\"config\":{}", config_json(workload, seed, cfg));
    let mut failures = gate_a;
    failures.extend(gate_b);
    failures.extend(plain.failures.iter().cloned());
    failures.extend(phase.failures.iter().cloned());
    Ok(Report {
        attempted: plain.attempted + phase.attempted,
        failed: plain.failed + phase.failed + gate_failures as u64,
        metrics,
        info,
        failures,
        trace_json: Some(tracer.to_json(&header)),
    })
}
