//! The closed loop: one client issues ops back to back, each timed on
//! its own, with result checks and tracing bookkeeping paused out of
//! the measured time.
//!
//! Untraced ops call the public facade (`Dbms::query`,
//! `PreparedStmt::execute`, `Dbms::execute`). Traced ops replay the
//! facade's body through each layer's public functions so every call
//! gets its own span:
//!
//! * `Dbms::query`: `esql::parse_query` → `lera::translate_query` →
//!   `expr_to_term` → `QueryRewriter::rewrite_term_leveled` →
//!   `expr_from_term` → `Database::columnar` (per stored input) →
//!   `engine::eval_with`;
//! * `Dbms::execute` of an `INSERT`: `esql::parse_statements` →
//!   `Database::execute_insert`;
//! * `Dbms::execute` of a `CREATE VIEW`: `esql::parse_statements` →
//!   `QueryRewriter::invalidate_plan_cache` + `Database::install_stmt`
//!   (view translation);
//! * `PreparedStmt::execute` is timed as one call: its plan lookup is
//!   private to the statement.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use eds_core::engine::{eval_reference, eval_with, Relation};
use eds_core::esql::{parse_query, parse_statements, Stmt as EsqlStmt};
use eds_core::lera::{expr_from_term, expr_to_term, translate_query, Expr, SchemaCtx};
use eds_core::{stats_cost_model, Executed};

use crate::probe::Probe;
use crate::trace::Tracer;
use crate::workload::{literal_sql, Op, Planned, World};

/// How long a phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Measured (not wall) seconds.
    Seconds(f64),
    /// A fixed number of ops, for the self-tests.
    Ops(u64),
}

impl Budget {
    /// Half the measured time; a fixed op count stays as it is.
    pub fn half(self) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            ops => ops,
        }
    }
}

/// Measured time between two host-speed probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(100);

/// Ops over which the traced run's program counters are summed: a fixed
/// prefix of the seeded stream, so the counters do not depend on how
/// many ops the host completes in the time budget.
pub const COUNTER_WINDOW: u64 = 512;

/// Program counters, read from the program's own stats structs as
/// deltas around each call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Rule condition checks of cache-miss rewrites.
    pub condition_checks: u64,
    /// Rule applications of cache-miss rewrites.
    pub applications: u64,
    /// Candidates scored by Full exploration.
    pub explore_candidates: u64,
    /// Checks spent normalizing exploration candidates.
    pub explore_checks: u64,
    /// Rewrites where an explored candidate beat the mainline plan.
    pub explore_wins: u64,
    /// Cache-miss rewrites that ran exploration.
    pub explorations: u64,
    /// Term-tier hits.
    pub hits: u64,
    /// Term-tier misses.
    pub misses: u64,
    /// Shape-tier hits.
    pub shape_hits: u64,
    /// Shape-tier misses.
    pub shape_misses: u64,
    /// Entries dropped at capacity.
    pub evictions: u64,
    /// Invalidation events.
    pub invalidations: u64,
    /// Rows produced by all operators.
    pub rows_emitted: u64,
    /// Tuple combinations tried by search/join loops.
    pub combinations_tried: u64,
    /// Fixpoint iterations.
    pub fix_iterations: u64,
    /// Rows in query results.
    pub result_rows: u64,
    /// `Database::columnar` calls that returned a different mirror than
    /// the previous call for the same table.
    pub mirror_rebuilds: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        macro_rules! sum {
            ($($f:ident),*) => { $(self.$f += o.$f;)* };
        }
        sum!(
            condition_checks,
            applications,
            explore_candidates,
            explore_checks,
            explore_wins,
            explorations,
            hits,
            misses,
            shape_hits,
            shape_misses,
            evictions,
            invalidations,
            rows_emitted,
            combinations_tried,
            fix_iterations,
            result_rows,
            mirror_rebuilds
        );
    }
}

/// One op's latency and the measured time it completed at.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion, ns of measured time since the phase began.
    pub at_ns: u64,
    /// Latency, ns.
    pub lat_ns: u64,
}

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or returned a wrong result.
    pub failed: u64,
    /// Result checks made.
    pub checks: u64,
    /// First few failure messages.
    pub failures: Vec<String>,
    /// Measured seconds: loop time minus paused harness work.
    pub measured_s: f64,
    /// Seconds of paused harness work: result checks, probes and
    /// tracing bookkeeping.
    pub paused_s: f64,
    /// Host-speed probes taken every [`PROBE_EVERY`] of measured time.
    pub probe: Probe,
    /// Read ops: queries and prepared executes.
    pub reads: Vec<Sample>,
    /// Insert ops.
    pub writes: Vec<Sample>,
    /// Counters over the whole phase.
    pub total: Counters,
    /// Counters over the first [`COUNTER_WINDOW`] ops.
    pub window: Counters,
    /// Ops inside the counter window.
    pub window_ops: u64,
    /// Root-cardinality q-errors of sampled traced queries.
    pub qerrors: Vec<f64>,
    /// Op count per kind: query, execute, insert, ddl.
    pub kinds: [u64; 4],
}

impl Phase {
    /// Ops per measured second.
    pub fn ops_per_s(&self) -> f64 {
        self.attempted as f64 / self.measured_s.max(1e-9)
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

enum Outcome {
    Rows(Relation),
    Inserted(usize),
    Ddl,
}

/// Run ops from `world`'s stream until `budget` is spent. With a tracer,
/// ops are replayed layer by layer and recorded as spans.
pub fn run_phase(world: &mut World, budget: Budget, mut tracer: Option<&mut Tracer>) -> Phase {
    let mut phase = Phase::default();
    let mut cards: HashMap<&'static str, usize> = HashMap::new();
    let mut mirrors: HashMap<String, usize> = HashMap::new();
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut next_probe = Duration::ZERO;
    loop {
        let mut measured = start.elapsed().saturating_sub(paused);
        if measured >= next_probe {
            let p0 = Instant::now();
            phase.probe.sample();
            paused += p0.elapsed();
            next_probe = measured + PROBE_EVERY;
            measured = start.elapsed().saturating_sub(paused);
        }
        let done = match budget {
            Budget::Seconds(s) => measured.as_secs_f64() >= s,
            Budget::Ops(n) => phase.attempted >= n,
        };
        if done {
            phase.measured_s = measured.as_secs_f64();
            phase.paused_s = paused.as_secs_f64();
            break;
        }
        let Planned { op, verify } = world.gen.next_op();
        let index = phase.attempted;
        phase.attempted += 1;
        phase.kinds[match op {
            Op::Query(_) => 0,
            Op::Execute { .. } => 1,
            Op::Insert { .. } => 2,
            Op::Ddl(_) => 3,
        }] += 1;
        if let Op::Insert { table, .. } = op {
            let World { dbms, .. } = &*world;
            cards
                .entry(table)
                .or_insert_with(|| dbms.db.cardinality(table).unwrap_or(0));
        }
        let mut counters = Counters::default();
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            None => exec_untraced(world, &op, &mut counters),
            Some(t) => {
                t.set_op(index);
                let root = t.enter("op");
                let r = exec_traced(world, &op, t, &mut counters, &mut mirrors);
                t.exit(root);
                r
            }
        };
        let lat = t0.elapsed().as_nanos() as u64;
        let at_ns = start.elapsed().saturating_sub(paused).as_nanos() as u64;
        let sample = Sample { at_ns, lat_ns: lat };
        // Everything below is harness work, paused out of the measured
        // time.
        let p0 = Instant::now();
        match &op {
            Op::Query(_) | Op::Execute { .. } => phase.reads.push(sample),
            Op::Insert { .. } => phase.writes.push(sample),
            Op::Ddl(_) => {}
        }
        if let Ok((Outcome::Rows(rel), _)) = &result {
            counters.result_rows = rel.len() as u64;
        }
        phase.total.add(&counters);
        if index < COUNTER_WINDOW {
            phase.window.add(&counters);
            phase.window_ops += 1;
        }
        match result {
            Err(e) => phase.fail(format!("op {index} {op:?}: {e}")),
            Ok((outcome, plan)) => {
                if let Err(e) = check(world, &op, &outcome, verify, &mut cards, &mut phase) {
                    phase.fail(format!("op {index} {op:?}: {e}"));
                }
                if let (Some(t), Some(plan), Outcome::Rows(rel)) =
                    (tracer.as_deref_mut(), plan.as_ref(), &outcome)
                {
                    if verify {
                        // The replayed chain must agree with the facade.
                        if let Op::Query(sql) = &op {
                            match world.dbms.query(sql) {
                                Ok(facade) if facade.rows == rel.rows => {}
                                Ok(_) => phase
                                    .fail(format!("op {index}: replay differs from Dbms::query")),
                                Err(e) => phase.fail(format!("op {index}: Dbms::query: {e}")),
                            }
                        }
                    }
                    if index % 4 == 0 {
                        let model =
                            t.span("lera.cost.model_build", || stats_cost_model(&world.dbms.db));
                        let est = model.estimate(plan).card.max(1.0);
                        let actual = (rel.len() as f64).max(1.0);
                        phase.qerrors.push((est / actual).max(actual / est));
                    }
                }
            }
        }
        paused += p0.elapsed();
    }
    phase
}

/// An op's outcome, plus the executed plan of a traced query.
type OpResult = (Outcome, Option<Expr>);

fn exec_untraced(world: &mut World, op: &Op, c: &mut Counters) -> Result<OpResult, String> {
    let dbms = &mut world.dbms;
    let before = dbms.rewriter.plan_cache_stats();
    let out = match op {
        Op::Query(sql) => Outcome::Rows(dbms.query(sql).map_err(|e| e.to_string())?),
        Op::Execute { stmt, binds } => Outcome::Rows(
            world.stmts[*stmt]
                .stmt
                .execute(dbms, binds)
                .map_err(|e| e.to_string())?,
        ),
        Op::Insert { sql, .. } | Op::Ddl(sql) => {
            match dbms.execute(sql).map_err(|e| e.to_string())?.as_slice() {
                [Executed::Inserted(n)] => Outcome::Inserted(*n),
                [Executed::Ddl] => Outcome::Ddl,
                other => return Err(format!("unexpected outcome {other:?}")),
            }
        }
    };
    cache_delta(c, &before, &dbms.rewriter.plan_cache_stats());
    Ok((out, None))
}

fn cache_delta(
    c: &mut Counters,
    before: &eds_core::PlanCacheStats,
    after: &eds_core::PlanCacheStats,
) {
    c.hits += after.hits - before.hits;
    c.misses += after.misses - before.misses;
    c.shape_hits += after.shape_hits - before.shape_hits;
    c.shape_misses += after.shape_misses - before.shape_misses;
    c.evictions += after.evictions - before.evictions;
    c.invalidations += after.invalidations - before.invalidations;
}

fn exec_traced(
    world: &mut World,
    op: &Op,
    t: &mut Tracer,
    c: &mut Counters,
    mirrors: &mut HashMap<String, usize>,
) -> Result<OpResult, String> {
    let dbms = &mut world.dbms;
    let before = dbms.rewriter.plan_cache_stats();
    let out = match op {
        Op::Query(sql) => {
            let query = t
                .span("esql.parse", || parse_query(sql))
                .map_err(|e| e.to_string())?;
            let (expr, _) = t
                .span("lera.translate", || {
                    translate_query(&query, &SchemaCtx::new(&dbms.db.catalog))
                })
                .map_err(|e| e.to_string())?;
            let term = t.span("lera.term_bridge", || expr_to_term(&expr));
            let level = dbms.eval_options.opt_level;
            let id = t.enter("rewrite.strategy");
            let rewritten =
                dbms.rewriter
                    .rewrite_term_leveled(term, &dbms.db, &dbms.constraints, level);
            t.exit(id);
            let rewritten = rewritten.map_err(|e| e.to_string())?;
            if dbms.rewriter.plan_cache_stats().hits > before.hits {
                t.rename(id, "core.plan_cache.hit");
            } else {
                let s = &rewritten.stats;
                c.condition_checks += s.condition_checks;
                c.applications += s.applications;
                c.explore_candidates += s.explore_candidates;
                c.explore_checks += s.explore_checks;
                c.explore_wins += s.explore_wins;
                c.explorations += u64::from(s.explore_candidates > 0);
            }
            let plan = t
                .span("lera.term_bridge", || expr_from_term(&rewritten.term))
                .map_err(|e| e.to_string())?;
            let mut tables: Vec<&str> = plan.base_relations();
            tables.sort_unstable();
            tables.dedup();
            for name in tables {
                if dbms.db.relation(name).is_none() {
                    continue;
                }
                let addr = t
                    .span("engine.database.columnar", || dbms.db.columnar(name))
                    .map_or(0, |m| std::sync::Arc::as_ptr(&m) as usize);
                if let Some(prev) = mirrors.insert(name.to_owned(), addr) {
                    c.mirror_rebuilds += u64::from(prev != addr && addr != 0);
                }
            }
            let (rel, stats) = t
                .span("engine.eval", || {
                    eval_with(&plan, &dbms.db, dbms.eval_options)
                })
                .map_err(|e| e.to_string())?;
            c.rows_emitted += stats.rows_emitted;
            c.combinations_tried += stats.combinations_tried;
            c.fix_iterations += stats.fix_iterations;
            cache_delta(c, &before, &dbms.rewriter.plan_cache_stats());
            return Ok((Outcome::Rows(rel), Some(plan)));
        }
        Op::Execute { stmt, binds } => {
            let (rel, stats) = t
                .span("core.execute", || {
                    world.stmts[*stmt].stmt.execute_with_stats(dbms, binds)
                })
                .map_err(|e| e.to_string())?;
            c.rows_emitted += stats.rows_emitted;
            c.combinations_tried += stats.combinations_tried;
            c.fix_iterations += stats.fix_iterations;
            Outcome::Rows(rel)
        }
        Op::Insert { sql, .. } | Op::Ddl(sql) => {
            let stmts = t
                .span("esql.parse", || parse_statements(sql))
                .map_err(|e| e.to_string())?;
            let [stmt] = stmts.as_slice() else {
                return Err(format!("expected one statement, got {}", stmts.len()));
            };
            match stmt {
                EsqlStmt::Insert(ins) => Outcome::Inserted(
                    t.span("engine.database.insert", || dbms.db.execute_insert(ins))
                        .map_err(|e| e.to_string())?,
                ),
                EsqlStmt::ViewDecl(_) => {
                    t.span("lera.translate", || {
                        dbms.rewriter.invalidate_plan_cache();
                        dbms.db.install_stmt(stmt)
                    })
                    .map_err(|e| e.to_string())?;
                    Outcome::Ddl
                }
                other => return Err(format!("unexpected statement {other:?}")),
            }
        }
    };
    cache_delta(c, &before, &dbms.rewriter.plan_cache_stats());
    Ok((out, None))
}

/// Compare `got`, as a multiset, with what `eds_engine::eval_reference`
/// returns for `sql`'s unrewritten canonical plan.
pub fn check_rows(world: &World, sql: &str, got: &Relation) -> Result<(), String> {
    let dbms = &world.dbms;
    let canonical = dbms.prepare(sql).map_err(|e| e.to_string())?.expr;
    let want =
        eval_reference(&canonical, &dbms.db, dbms.eval_options).map_err(|e| e.to_string())?;
    if got.bag_eq(&want) {
        Ok(())
    } else {
        Err(format!(
            "{} rows, reference has {} rows, or the rows differ",
            got.len(),
            want.len()
        ))
    }
}

fn check(
    world: &World,
    op: &Op,
    outcome: &Outcome,
    verify: bool,
    cards: &mut HashMap<&'static str, usize>,
    phase: &mut Phase,
) -> Result<(), String> {
    match (op, outcome) {
        (Op::Insert { table, rows, .. }, Outcome::Inserted(n)) => {
            if n != rows {
                return Err(format!("inserted {n} rows, sent {rows}"));
            }
            let expected = cards.get_mut(table).expect("recorded before the op");
            *expected += rows;
            if verify {
                phase.checks += 1;
                let actual = world.dbms.db.cardinality(table).unwrap_or(0);
                if actual != *expected {
                    return Err(format!("{table} holds {actual} rows, expected {expected}"));
                }
            }
            Ok(())
        }
        (Op::Ddl(_), Outcome::Ddl) => Ok(()),
        (Op::Query(sql), Outcome::Rows(rel)) => {
            if verify {
                phase.checks += 1;
                check_rows(world, sql, rel)?;
            }
            Ok(())
        }
        (Op::Execute { stmt, binds }, Outcome::Rows(rel)) => {
            if verify {
                phase.checks += 1;
                check_rows(world, &literal_sql(&world.stmts[*stmt].sql, binds), rel)?;
            }
            Ok(())
        }
        _ => Err("outcome does not match the op".to_owned()),
    }
}

/// The correctness gate run before timing: every text of the warm pool
/// through `Dbms::query` (which also warms the plan cache, as a running
/// server would be) and every prepared statement at each of its pool
/// binds, all against the reference executor. Returns the failures.
pub fn gate(world: &World) -> Vec<String> {
    let mut failures = Vec::new();
    for sql in &world.gen.pool {
        let r = world
            .dbms
            .query(sql)
            .map_err(|e| e.to_string())
            .and_then(|rel| check_rows(world, sql, &rel));
        if let Err(e) = r {
            failures.push(format!("gate {sql}: {e}"));
        }
    }
    for (i, binds) in world.gen.binds.iter().enumerate() {
        let stmt = &world.stmts[i];
        for b in binds {
            let r = stmt
                .stmt
                .execute(&world.dbms, b)
                .map_err(|e| e.to_string())
                .and_then(|rel| check_rows(world, &literal_sql(&stmt.sql, b), &rel));
            if let Err(e) = r {
                failures.push(format!("gate {} {b:?}: {e}", stmt.sql));
            }
        }
    }
    failures
}
