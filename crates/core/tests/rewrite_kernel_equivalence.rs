//! Kernel-equivalence oracle: the rewrite kernel (run-wide worklist,
//! method memo, per-run rule indexes) must be observably identical to the
//! naive loop it accelerates — every block starts from fresh state and
//! every attempt is a full [`apply_rule_once`] scan.
//!
//! Both run over the built-in knowledge base on a seeded corpus of the
//! query shapes the paper's figures exercise: view stacks, union and
//! `GROUP BY` views, bound transitive closure, the cross-product join,
//! union pushdown, 8-way unions and wide foldable conjunctions. At every
//! optimization level the output term, `condition_checks`, `applications`,
//! `budget_exhausted` and the trace events must match; under `Full` so
//! must every exploration counter and the exploration report.

use std::collections::HashSet;

use eds_adt::Value;
use eds_core::pipeline::{stats_cost_model, EXPLORE_CHECK_COST, EXPLORE_K, EXPLORE_MAX_CHECKS};
use eds_core::{CoreEnv, Dbms, OptLevel};
use eds_lera::{expr_from_term, expr_to_term};
use eds_rewrite::{
    apply_rule_once, Block, Exploration, Limit, MethodRegistry, RewriteStats, RuleSet, Strategy,
    Term, TermEnv, TraceEvent,
};

/// Snapshots kept per block run under exploration: the pre-block state
/// plus the most recent ones (the kernel's bound).
const SNAPSHOT_CAP: usize = 16;

/// What one rewrite produced, in the terms the two implementations are
/// compared on.
#[derive(Debug, PartialEq)]
struct Observed {
    term: Term,
    condition_checks: u64,
    applications: u64,
    explore_candidates: u64,
    explore_checks: u64,
    explore_budget_stops: u64,
    explore_wins: u64,
    budget_exhausted: bool,
    exploration: Option<Exploration>,
    trace: Vec<TraceEvent>,
}

/// The naive kernel: the knowledge base and environment it runs in.
struct Naive<'a> {
    rules: &'a RuleSet,
    strategy: &'a Strategy,
    methods: &'a MethodRegistry,
    env: &'a dyn TermEnv,
}

struct BlockRun {
    term: Term,
    stats: RewriteStats,
    trace: Vec<TraceEvent>,
    exhausted: bool,
}

impl Naive<'_> {
    fn order(&self) -> (Vec<&Block>, u64) {
        match &self.strategy.sequence {
            Some(seq) => (
                seq.blocks
                    .iter()
                    .filter_map(|n| self.strategy.block(n))
                    .collect(),
                seq.passes,
            ),
            None => (self.strategy.blocks().collect(), 1),
        }
    }

    /// One block with fresh state: every attempt scans the whole term.
    fn block(
        &self,
        block: &Block,
        mut term: Term,
        mut capture: Option<&mut Vec<Term>>,
    ) -> BlockRun {
        let mut budget = match block.limit {
            Limit::Finite(n) => n,
            Limit::Infinite => u64::MAX,
        };
        let mut stats = RewriteStats::default();
        let mut trace = Vec::new();
        let mut exhausted = false;
        'outer: loop {
            let mut progressed = false;
            for name in &block.rules {
                let Some(rule) = self.rules.get(name) else {
                    continue;
                };
                if budget == 0 {
                    exhausted = true;
                    break 'outer;
                }
                budget -= 1;
                let outcome = apply_rule_once(rule, &term, self.methods, self.env, &mut stats)
                    .expect("built-in rules apply cleanly");
                if let Some((new_term, app)) = outcome {
                    if let Some(snaps) = capture.as_deref_mut() {
                        if snaps.len() >= SNAPSHOT_CAP {
                            snaps.remove(1);
                        }
                        snaps.push(term.clone());
                    }
                    trace.push(TraceEvent {
                        block: block.name.clone(),
                        rule: rule.name.clone(),
                        path: app.path,
                        before_size: term.size(),
                        after_size: new_term.size(),
                    });
                    term = new_term;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        BlockRun {
            term,
            stats,
            trace,
            exhausted,
        }
    }

    /// The whole sequence, snapshotting at choice-point blocks when
    /// `snapshots` is given.
    fn mainline(
        &self,
        mut term: Term,
        mut snapshots: Option<&mut Vec<(u64, usize, Term)>>,
    ) -> Observed {
        let (order, passes) = self.order();
        let mut out = Observed::new(Term::int(0));
        for pass in 0..passes {
            let before = term.clone();
            for (bi, block) in order.iter().enumerate() {
                let mut taken = Vec::new();
                let capture = (snapshots.is_some() && self.strategy.is_explore_block(&block.name))
                    .then_some(&mut taken);
                let run = self.block(block, term, capture);
                term = run.term;
                out.absorb(&run.stats);
                out.trace.extend(run.trace);
                out.budget_exhausted |= run.exhausted;
                if let Some(snaps) = snapshots.as_deref_mut() {
                    snaps.extend(taken.into_iter().map(|t| (pass, bi, t)));
                }
            }
            if term == before {
                break;
            }
        }
        out.term = term;
        out
    }

    /// A candidate normalized by the non-choice-point remainder of the
    /// sequence; returns it with the checks spent.
    fn normalize(&self, start_pass: u64, start_bi: usize, mut term: Term) -> (Term, u64) {
        let (order, passes) = self.order();
        let mut checks = 0;
        for pass in start_pass..passes {
            let first = if pass == start_pass { start_bi + 1 } else { 0 };
            let before = term.clone();
            for block in order.iter().skip(first) {
                if self.strategy.is_explore_block(&block.name) {
                    continue;
                }
                let run = self.block(block, term, None);
                term = run.term;
                checks += run.stats.condition_checks;
            }
            if pass > start_pass && term == before {
                break;
            }
        }
        (term, checks)
    }

    /// Cost-guided exploration over the naive mainline's trajectory.
    fn explore(&self, term: Term, score: &dyn Fn(&Term) -> Option<f64>) -> Observed {
        let mut snapshots = Vec::new();
        let mut out = self.mainline(term, Some(&mut snapshots));
        let Some(mainline_cost) = score(&out.term) else {
            return out;
        };
        out.explore_candidates += 1;
        let mut best_term = out.term.clone();
        let mut best_cost = mainline_cost;
        let mut runner_up: Option<f64> = None;
        let mut seen_snaps: HashSet<Term> = HashSet::new();
        let mut seen_plans: HashSet<Term> = HashSet::from([out.term.clone()]);
        let mut scored = 0;
        let mut expected_checks = out.condition_checks.max(1);
        for (pass, bi, snap) in snapshots.into_iter().rev() {
            if scored >= EXPLORE_K {
                break;
            }
            if out.explore_checks >= EXPLORE_MAX_CHECKS
                || best_cost <= EXPLORE_CHECK_COST * expected_checks as f64
            {
                out.explore_budget_stops += 1;
                break;
            }
            if !seen_snaps.insert(snap.clone()) {
                continue;
            }
            let (normalized, checks) = self.normalize(pass, bi, snap);
            out.explore_checks += checks;
            expected_checks = checks.max(1);
            if !seen_plans.insert(normalized.clone()) {
                continue;
            }
            scored += 1;
            out.explore_candidates += 1;
            let Some(cost) = score(&normalized) else {
                continue;
            };
            if cost < best_cost {
                runner_up = Some(best_cost);
                best_cost = cost;
                best_term = normalized;
            } else if runner_up.is_none_or(|r| cost < r) {
                runner_up = Some(cost);
            }
        }
        let improved = best_term != out.term;
        if improved {
            out.explore_wins += 1;
        }
        out.exploration = Some(Exploration {
            considered: out.explore_candidates,
            chosen_cost: best_cost,
            runner_up_cost: runner_up,
            improved,
        });
        out.term = best_term;
        out
    }
}

impl Observed {
    fn new(term: Term) -> Self {
        Observed {
            term,
            condition_checks: 0,
            applications: 0,
            explore_candidates: 0,
            explore_checks: 0,
            explore_budget_stops: 0,
            explore_wins: 0,
            budget_exhausted: false,
            exploration: None,
            trace: Vec::new(),
        }
    }

    fn absorb(&mut self, stats: &RewriteStats) {
        self.condition_checks += stats.condition_checks;
        self.applications += stats.applications;
    }
}

/// The naive loop at `level`, mirroring the levels' contract: `None`
/// leaves trivial scans as translated, `Full` explores.
fn naive(dbms: &Dbms, term: Term, level: OptLevel) -> Observed {
    if level == OptLevel::None && expr_from_term(&term).is_ok_and(|e| e.is_trivial_scan()) {
        return Observed::new(term);
    }
    let env = CoreEnv {
        db: &dbms.db,
        constraints: &dbms.constraints,
    };
    let oracle = Naive {
        rules: dbms.rewriter.rules(),
        strategy: dbms.rewriter.strategy(),
        methods: dbms.rewriter.methods(),
        env: &env,
    };
    if level == OptLevel::Full {
        let model = stats_cost_model(&dbms.db);
        let score = |t: &Term| expr_from_term(t).ok().map(|e| model.estimate(&e).cost);
        oracle.explore(term, &score)
    } else {
        oracle.mainline(term, None)
    }
}

/// The real kernel at `level`, with its trace.
fn kernel(dbms: &Dbms, term: Term, level: OptLevel) -> Observed {
    let (out, trace) = dbms
        .rewriter
        .trace_term(term, &dbms.db, &dbms.constraints, level)
        .expect("kernel rewrite");
    Observed {
        term: out.term,
        condition_checks: out.stats.condition_checks,
        applications: out.stats.applications,
        explore_candidates: out.stats.explore_candidates,
        explore_checks: out.stats.explore_checks,
        explore_budget_stops: out.stats.explore_budget_stops,
        explore_wins: out.stats.explore_wins,
        budget_exhausted: out.budget_exhausted,
        exploration: out.exploration,
        trace: trace.events().to_vec(),
    }
}

/// Deterministic corpus generator (64-bit LCG).
struct Rng(u64);

impl Rng {
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        lo + ((self.0 >> 33) as i64).rem_euclid(hi - lo)
    }
}

fn ddl(dbms: &mut Dbms, src: &str) {
    dbms.execute_ddl(src).expect("fixture DDL");
}

fn ints(vals: &[i64]) -> Vec<Value> {
    vals.iter().map(|&v| Value::Int(v)).collect()
}

/// View stack, 6-way union, `GROUP BY` view, recursive `TC`, the
/// enumeration-typed `PRODUCT` with its domain constraint, the flat `T`
/// and the film schema's object dereferences.
fn adhoc_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    ddl(&mut dbms, "TABLE BASE (K : INT, A : INT, B : INT);");
    for k in 0..40 {
        dbms.insert("BASE", ints(&[k, k % 9, k % 13])).unwrap();
    }
    let mut prev = "BASE".to_owned();
    for d in 1..=6 {
        ddl(
            &mut dbms,
            &format!("CREATE VIEW V{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;"),
        );
        prev = format!("V{d}");
    }
    let mut selects = Vec::new();
    for b in 0..6 {
        ddl(&mut dbms, &format!("TABLE PART{b} (K : INT, P : INT);"));
        for k in 0..10 {
            dbms.insert(&format!("PART{b}"), ints(&[k * 3 + b, b]))
                .unwrap();
        }
        selects.push(format!("SELECT K, P FROM PART{b}"));
    }
    ddl(
        &mut dbms,
        &format!(
            "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;",
            selects.join(" UNION ")
        ),
    );
    ddl(
        &mut dbms,
        "TABLE DETAIL (G : INT, Item : INT);
         CREATE VIEW GROUPED (G, Items) AS
           SELECT G, MakeSet(Item) FROM DETAIL GROUP BY G ;
         TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;
         TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;
         TABLE PRODUCT (Id : INT, Grade : Grade, Price : INT, Weight : INT);
         TABLE T (X : INT, Y : INT);
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;",
    );
    dbms.add_constraint_source(
        "GradeDomain : F(x) / ISA(x, Grade) --> F(x) AND MEMBER(x, {'A', 'B', 'C'}) / ;",
    )
    .unwrap();
    for i in 0..12 {
        dbms.insert("DETAIL", ints(&[i % 4, i])).unwrap();
        dbms.insert("EDGE", ints(&[i, i + 1])).unwrap();
        dbms.insert("T", ints(&[i * 7, i % 5])).unwrap();
        dbms.insert(
            "PRODUCT",
            vec![
                Value::Int(i),
                Value::str(["A", "B", "C"][i as usize % 3]),
                Value::Int(i * 50),
                Value::Int(i % 7),
            ],
        )
        .unwrap();
    }
    for f in 0..4 {
        let actor = dbms.create_object(
            "Actor",
            Value::Tuple(vec![
                Value::str(format!("Actor{f}")),
                Value::set(vec![]),
                Value::Int(5_000 + f * 4_000),
            ]),
        );
        dbms.insert("FILM", vec![Value::Int(f), Value::str(format!("Film{f}"))])
            .unwrap();
        dbms.insert("APPEARS_IN", vec![Value::Int(f), actor])
            .unwrap();
    }
    dbms
}

/// The cross-product join, the union pushdown and an 8-way union: the
/// shapes where `Full`'s exploration finds a cheaper plan.
fn explore_dbms() -> Dbms {
    let mut dbms = Dbms::new().unwrap();
    ddl(
        &mut dbms,
        "TABLE R (K : INT, A : INT);
         TABLE S (K : INT, J : INT);
         TABLE T (J : INT, B : INT);
         CREATE VIEW RS (K, J) AS SELECT R.K, S.J FROM R, S WHERE R.K = S.K ;
         TABLE U0 (K : INT);
         TABLE U1 (K : INT);
         TABLE BIGF (K : INT, V : INT);
         CREATE VIEW ALLU (K) AS ( SELECT K FROM U0 UNION SELECT K FROM U1 ) ;
         CREATE VIEW FSEL (K) AS SELECT K FROM BIGF WHERE V = 7 ;",
    );
    for i in 0..60 {
        dbms.insert("R", ints(&[i % 20, i])).unwrap();
        dbms.insert("S", ints(&[i % 20, i % 6])).unwrap();
        dbms.insert("BIGF", ints(&[i % 40, i % 11])).unwrap();
    }
    for j in 0..6 {
        dbms.insert("T", ints(&[j, j * 3])).unwrap();
    }
    for i in 0..10 {
        dbms.insert("U0", ints(&[i])).unwrap();
        dbms.insert("U1", ints(&[i + 10])).unwrap();
    }
    let mut selects = Vec::new();
    for b in 0..8 {
        ddl(&mut dbms, &format!("TABLE PART{b} (K : INT, P : INT);"));
        for k in 0..10 {
            dbms.insert(&format!("PART{b}"), ints(&[k * 5 + b, b]))
                .unwrap();
        }
        selects.push(format!("SELECT K, P FROM PART{b}"));
    }
    ddl(
        &mut dbms,
        &format!(
            "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;",
            selects.join(" UNION ")
        ),
    );
    dbms
}

fn adhoc_query(r: &mut Rng, shape: usize) -> String {
    match shape {
        0 => format!(
            "SELECT K FROM V{} WHERE B = {} AND K < {} ;",
            r.range(1, 7),
            r.range(0, 13),
            r.range(5, 40)
        ),
        1 => {
            let lo = r.range(0, 20);
            format!(
                "SELECT K FROM ALLPARTS WHERE P = {} AND K > {lo} AND K < {} ;",
                r.range(0, 6),
                lo + r.range(2, 20)
            )
        }
        2 => {
            let lo = r.range(0, 3);
            format!(
                "SELECT G, Items FROM GROUPED WHERE G > {lo} AND G < {} ;",
                lo + r.range(1, 4)
            )
        }
        3 => {
            let lo = r.range(0, 6);
            format!(
                "SELECT Dst FROM TC WHERE Src = {} AND Dst > {lo} AND Dst < {} ;",
                r.range(0, 12),
                lo + r.range(2, 8)
            )
        }
        4 => format!(
            "SELECT Id FROM PRODUCT WHERE Grade = '{}' AND Price < {} AND Weight > {} ;",
            ["A", "B", "C", "D"][r.range(0, 4) as usize],
            r.range(0, 600),
            r.range(0, 7)
        ),
        5 => {
            let parts: Vec<String> = (0..r.range(3, 7))
                .flat_map(|_| {
                    [
                        format!("X < {} + {}", r.range(0, 50), r.range(0, 50)),
                        format!("Y <> {}", r.range(0, 5)),
                    ]
                })
                .collect();
            format!("SELECT X FROM T WHERE {} ;", parts.join(" AND "))
        }
        6 => format!(
            "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > {} AND Numf < {} ;",
            r.range(5_000, 20_000),
            r.range(1, 4)
        ),
        7 => format!(
            "SELECT Title FROM FILM, APPEARS_IN WHERE Salary(Refactor) > {} \
             AND FILM.Numf = APPEARS_IN.Numf AND FILM.Numf < {} ;",
            r.range(5_000, 20_000),
            r.range(1, 4)
        ),
        _ => format!("SELECT A FROM BASE WHERE K = {} ;", r.range(0, 40)),
    }
}

fn explore_query(r: &mut Rng, shape: usize) -> String {
    match shape {
        0 => format!(
            "SELECT B FROM RS, T WHERE RS.J = T.J AND T.B > {} AND RS.K < {} ;",
            r.range(0, 12),
            r.range(2, 20)
        ),
        1 => {
            let lo = r.range(0, 10);
            format!(
                "SELECT ALLU.K FROM ALLU, FSEL WHERE ALLU.K = FSEL.K \
                 AND ALLU.K > {lo} AND ALLU.K < {} ;",
                lo + r.range(2, 12)
            )
        }
        _ => format!(
            "SELECT K FROM ALLPARTS WHERE P = {} AND K < {} ;",
            r.range(0, 8),
            r.range(5, 50)
        ),
    }
}

/// Rewrite every corpus query with both kernels at every level and
/// compare. Returns how many (query, level) pairs applied a rule, so the
/// caller can check the corpus exercises the kernel.
fn check_corpus(dbms: &Dbms, corpus: &[String]) -> usize {
    let mut active = 0;
    for sql in corpus {
        let canonical = expr_to_term(&dbms.prepare(sql).expect("corpus query").expr);
        for level in [OptLevel::None, OptLevel::Simple, OptLevel::Full] {
            let want = naive(dbms, canonical.clone(), level);
            let got = kernel(dbms, canonical.clone(), level);
            assert_eq!(got, want, "{sql} at {level}");
            if got.applications > 0 {
                active += 1;
            }
        }
    }
    active
}

#[test]
fn kernel_matches_naive_loop_on_adhoc_shapes() {
    let dbms = adhoc_dbms();
    let mut rng = Rng(0xED5);
    let corpus: Vec<String> = (0..27).map(|i| adhoc_query(&mut rng, i % 9)).collect();
    assert!(check_corpus(&dbms, &corpus) >= 48);
}

#[test]
fn kernel_matches_naive_loop_on_explored_shapes() {
    let dbms = explore_dbms();
    let mut rng = Rng(0x5EED);
    let corpus: Vec<String> = (0..12).map(|i| explore_query(&mut rng, i % 3)).collect();
    assert!(check_corpus(&dbms, &corpus) >= 36);
    // Exploration must actually have found wins on this corpus, or the
    // Full comparison proves little.
    let wins = corpus
        .iter()
        .filter(|sql| {
            let canonical = expr_to_term(&dbms.prepare(sql).unwrap().expr);
            kernel(&dbms, canonical, OptLevel::Full).explore_wins > 0
        })
        .count();
    assert!(wins > 0, "no exploration wins on the corpus");
}
