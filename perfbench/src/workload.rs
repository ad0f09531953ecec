//! The four workloads: schema, seeded data, prepared statements and the
//! seeded op stream each one feeds through the public `Dbms` API.
//!
//! Every op is ESQL text (or a prepared statement plus a bind array);
//! the program under test never sees anything but generated SQL, rows
//! and binds.

use std::collections::HashSet;

use eds_core::adt::Value;
use eds_core::engine::EvalOptions;
use eds_core::{CoreResult, Dbms, OptLevel, PreparedStmt};

use crate::rng::{Rng, Zipf};

/// A workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Fresh ad-hoc texts at `OptLevel::Simple`: every query misses the
    /// plan cache.
    AdhocCold,
    /// A Zipf-skewed draw from a fixed pool of texts and prepared
    /// statements: almost every op is served from a cached plan.
    RepeatWarm,
    /// Multi-row inserts interleaved with columnar scans of a growing
    /// table, and a rare `CREATE VIEW` that empties the plan cache.
    IngestScan,
    /// Fresh ad-hoc texts at `OptLevel::Full`: cost-guided exploration
    /// runs on every cold rewrite.
    AdhocFull,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::AdhocCold,
        Workload::RepeatWarm,
        Workload::IngestScan,
        Workload::AdhocFull,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdhocCold => "adhoc_cold",
            Workload::RepeatWarm => "repeat_warm",
            Workload::IngestScan => "ingest_scan",
            Workload::AdhocFull => "adhoc_full",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The optimization level the workload runs at.
    pub fn opt_level(self) -> OptLevel {
        match self {
            Workload::AdhocFull => OptLevel::Full,
            _ => OptLevel::Simple,
        }
    }
}

/// Engine and rewriter settings, pinned by the benchmark rather than read
/// from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Columnar mirrors on.
    pub columnar: bool,
    /// Plan-cache capacity per tier.
    pub plan_cache_cap: usize,
    /// Logical cores the host reports.
    pub nproc: usize,
}

/// Engine worker threads on every workload. A second thread bought no
/// throughput on a 2-vCPU host (the process used one core's worth of
/// CPU time either way) and made each op wait on a thread wake-up and
/// on whichever core another tenant held: `ingest_scan`'s read p99
/// doubled from one run to the next at 2 threads and held within 2% at
/// 1.
pub const PARALLELISM: usize = 1;

impl Config {
    /// The pinned configuration on this host.
    pub fn pinned() -> Self {
        Config {
            columnar: true,
            plan_cache_cap: 256,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// Engine options for `workload`.
    pub fn eval_options(&self, workload: Workload) -> EvalOptions {
        EvalOptions {
            parallelism: PARALLELISM,
            columnar: self.columnar,
            opt_level: workload.opt_level(),
            ..EvalOptions::default()
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Dbms::query` on a text.
    Query(String),
    /// `PreparedStmt::execute` of statement `stmt` with a bind array.
    Execute {
        /// Index into [`World::stmts`].
        stmt: usize,
        /// Bind values, `?` numbered left to right.
        binds: Vec<Value>,
    },
    /// `Dbms::execute` of a multi-row `INSERT`.
    Insert {
        /// The statement text.
        sql: String,
        /// Target table.
        table: &'static str,
        /// Rows it inserts.
        rows: usize,
    },
    /// `Dbms::execute` of a `CREATE VIEW`.
    Ddl(String),
}

/// A prepared statement with its text and the binds the stream draws.
#[derive(Debug)]
pub struct Stmt {
    /// `?`-parameterized text.
    pub sql: String,
    /// The statement.
    pub stmt: PreparedStmt,
}

/// A populated DBMS plus the op generator that drives it.
#[derive(Debug)]
pub struct World {
    /// The system under test.
    pub dbms: Dbms,
    /// Statements prepared at setup.
    pub stmts: Vec<Stmt>,
    /// The seeded op stream.
    pub gen: Gen,
}

// ---------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------

const TAGS: [&str; 8] = [
    "hot", "cold", "warm", "cool", "tepid", "mild", "arid", "damp",
];

fn ddl(dbms: &mut Dbms, src: &str) -> CoreResult<()> {
    dbms.execute_ddl(src).map(|_| ())
}

/// Figure 2's film database: `films` films, `actors` actor objects,
/// three appearances per film.
fn film(dbms: &mut Dbms, rng: &mut Rng, films: i64, actors: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
         TYPE Person OBJECT TUPLE ( Name : CHAR, Firstname : SET OF CHAR) ;
         TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
         TYPE SetCategory SET OF Category ;
         TABLE FILM ( Numf : NUMERIC, Title : CHAR, Categories : SetCategory) ;
         TABLE APPEARS_IN ( Numf : NUMERIC, Refactor : Actor) ;",
    )?;
    let refs: Vec<Value> = (0..actors)
        .map(|i| {
            dbms.create_object(
                "Actor",
                Value::Tuple(vec![
                    Value::str(format!("Actor{i}")),
                    Value::set(vec![]),
                    Value::Int(5_000 + rng.range(0, 40) * 1_000),
                ]),
            )
        })
        .collect();
    let categories = ["Comedy", "Adventure", "Science Fiction", "Western"];
    for f in 0..films {
        let mut cats: Vec<Value> = categories
            .iter()
            .filter(|_| rng.chance(0.4))
            .map(|c| Value::str(*c))
            .collect();
        if cats.is_empty() {
            cats.push(Value::str("Comedy"));
        }
        dbms.insert(
            "FILM",
            vec![
                Value::Int(f),
                Value::str(format!("Film{f}")),
                Value::set(cats),
            ],
        )?;
        for _ in 0..3 {
            let a = rng.pick(&refs).clone();
            dbms.insert("APPEARS_IN", vec![Value::Int(f), a])?;
        }
    }
    Ok(())
}

/// `BASE` and a stack of `depth` views `V1..V<depth>` (Figure 7's
/// merging shape).
fn view_stack(dbms: &mut Dbms, rng: &mut Rng, rows: i64, depth: usize) -> CoreResult<()> {
    ddl(dbms, "TABLE BASE (K : INT, A : INT, B : INT);")?;
    for k in 0..rows {
        dbms.insert(
            "BASE",
            vec![k.into(), rng.range(0, 97).into(), rng.range(0, 13).into()],
        )?;
    }
    let mut prev = "BASE".to_owned();
    for d in 1..=depth {
        ddl(
            dbms,
            &format!("CREATE VIEW V{d} (K, A, B) AS SELECT K, A, B FROM {prev} WHERE A >= {d} ;"),
        )?;
        prev = format!("V{d}");
    }
    Ok(())
}

/// `PART0..` and their union view `ALLPARTS` (Figure 8's permutation
/// shape).
fn union_parts(dbms: &mut Dbms, rng: &mut Rng, branches: usize, rows: i64) -> CoreResult<()> {
    let mut selects = Vec::new();
    for b in 0..branches {
        ddl(dbms, &format!("TABLE PART{b} (K : INT, P : INT);"))?;
        for _ in 0..rows {
            dbms.insert(
                &format!("PART{b}"),
                vec![rng.range(0, rows).into(), (b as i64).into()],
            )?;
        }
        selects.push(format!("SELECT K, P FROM PART{b}"));
    }
    ddl(
        dbms,
        &format!(
            "CREATE VIEW ALLPARTS (K, P) AS ( {} ) ;",
            selects.join(" UNION ")
        ),
    )
}

/// `DETAIL` and its `GROUP BY` view `GROUPED`.
fn grouped(dbms: &mut Dbms, groups: i64, per_group: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TABLE DETAIL (G : INT, Item : INT);
         CREATE VIEW GROUPED (G, Items) AS
           SELECT G, MakeSet(Item) FROM DETAIL GROUP BY G ;",
    )?;
    for g in 0..groups {
        for i in 0..per_group {
            dbms.insert("DETAIL", vec![g.into(), (g * per_group + i).into()])?;
        }
    }
    Ok(())
}

/// `EDGE` (a chain plus short forward edges) and the recursive `TC`
/// view (Figure 9's magic shape).
fn graph(dbms: &mut Dbms, rng: &mut Rng, nodes: i64, extra: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TABLE EDGE (Src : INT, Dst : INT);
         CREATE VIEW TC (Src, Dst) AS
         ( SELECT Src, Dst FROM EDGE
           UNION
           SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src ) ;",
    )?;
    for i in 0..nodes - 1 {
        dbms.insert("EDGE", vec![i.into(), (i + 1).into()])?;
    }
    for _ in 0..extra {
        let a = rng.range(0, nodes - 1);
        let b = (a + rng.range(1, 5)).min(nodes - 1);
        dbms.insert("EDGE", vec![a.into(), b.into()])?;
    }
    Ok(())
}

/// `PRODUCT` with an enumeration-typed column and the domain constraint
/// of Figures 10-11.
fn product(dbms: &mut Dbms, rng: &mut Rng, rows: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TYPE Grade ENUMERATION OF ('A', 'B', 'C') ;
         TABLE PRODUCT (Id : INT, Grade : Grade, Price : INT, Weight : INT);",
    )?;
    dbms.add_constraint_source(
        "GradeDomain : F(x) / ISA(x, Grade) --> F(x) AND MEMBER(x, {'A', 'B', 'C'}) / ;",
    )?;
    for i in 0..rows {
        dbms.insert(
            "PRODUCT",
            vec![
                i.into(),
                (*rng.pick(&["A", "B", "C"])).into(),
                rng.range(0, 1000).into(),
                rng.range(0, 50).into(),
            ],
        )?;
    }
    Ok(())
}

/// The `LOG` table ad-hoc sessions append to; no query reads it, so
/// the data the queries see stays fixed while the stream runs.
fn log_table(dbms: &mut Dbms) -> CoreResult<()> {
    ddl(dbms, "TABLE LOG (Id : INT, Note : CHAR, At : INT);")
}

/// The flat `T (X, Y)` table the wide-conjunction queries read.
fn simple_t(dbms: &mut Dbms, rng: &mut Rng, rows: i64) -> CoreResult<()> {
    ddl(dbms, "TABLE T (X : INT, Y : INT);")?;
    for _ in 0..rows {
        dbms.insert(
            "T",
            vec![rng.range(0, 1000).into(), rng.range(0, 101).into()],
        )?;
    }
    Ok(())
}

/// One `SCAN` row: typed columns, a NULL in `A` every 13th key.
fn scan_row(rng: &mut Rng, k: i64) -> Vec<Value> {
    let a = if k % 13 == 5 {
        Value::Null
    } else {
        Value::Int(rng.range(0, 1000))
    };
    vec![
        Value::Int(k),
        a,
        Value::Int(k * 7 % 1000),
        Value::str(*rng.pick(&TAGS)),
        Value::Int(k % 16),
    ]
}

/// The wide typed `SCAN` table the columnar kernels serve.
fn scan(dbms: &mut Dbms, rng: &mut Rng, rows: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TABLE SCAN (K : INT, A : INT, B : INT, Tag : CHAR, G : INT);",
    )?;
    for k in 0..rows {
        dbms.insert("SCAN", scan_row(rng, k))?;
    }
    Ok(())
}

/// The 3-way join whose Simple plan is a cross product (`RS ⋈ T`).
fn join3(dbms: &mut Dbms, rows: i64, keys: i64, small: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TABLE R (K : INT, A : INT);
         TABLE S (K : INT, J : INT);
         TABLE T (J : INT, B : INT);
         CREATE VIEW RS (K, J) AS SELECT R.K, S.J FROM R, S WHERE R.K = S.K ;",
    )?;
    for i in 0..rows {
        dbms.insert("R", vec![(i % keys).into(), i.into()])?;
        dbms.insert("S", vec![(i % keys).into(), (i % small).into()])?;
    }
    for j in 0..small {
        dbms.insert("T", vec![j.into(), (j * 3).into()])?;
    }
    Ok(())
}

/// A small union joined with a selective filtered view over a big table.
fn pushdown(dbms: &mut Dbms, union_rows: i64, big_rows: i64) -> CoreResult<()> {
    ddl(
        dbms,
        "TABLE U0 (K : INT);
         TABLE U1 (K : INT);
         TABLE BIGF (K : INT, V : INT);
         CREATE VIEW ALLU (K) AS ( SELECT K FROM U0 UNION SELECT K FROM U1 ) ;
         CREATE VIEW FSEL (K) AS SELECT K FROM BIGF WHERE V = 7 ;",
    )?;
    for i in 0..union_rows {
        dbms.insert("U0", vec![i.into()])?;
        dbms.insert("U1", vec![(i + union_rows).into()])?;
    }
    for i in 0..big_rows {
        dbms.insert(
            "BIGF",
            vec![(i % (4 * union_rows)).into(), (i % 500).into()],
        )?;
    }
    Ok(())
}

/// ESQL literal spelling of a bind value.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        other => panic!("no literal spelling for {other:?}"),
    }
}

/// `sql` with each `?` replaced, left to right, by the literal spelling
/// of the matching bind: the text the reference executor checks a
/// prepared execute against.
pub fn literal_sql(sql: &str, binds: &[Value]) -> String {
    let mut next = binds.iter();
    let mut out = String::with_capacity(sql.len() + 8 * binds.len());
    for c in sql.chars() {
        if c == '?' {
            out.push_str(&literal(next.next().expect("more ? than binds")));
        } else {
            out.push(c);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Setup
// ---------------------------------------------------------------------

/// Rows in `ingest_scan`'s `SCAN` table before the first op.
pub const INGEST_ROWS: i64 = 300_000;
/// Rows in `repeat_warm`'s `SCAN` table.
pub const WARM_SCAN_ROWS: i64 = 100_000;
/// Rows per `INSERT` in `ingest_scan`.
pub const INGEST_BATCH: usize = 4;

/// Build the world for `workload` at `seed`: `Dbms::new`, DDL, data,
/// and the prepared statements. This is what `setup_s` times.
pub fn setup(workload: Workload, seed: u64, cfg: &Config) -> CoreResult<World> {
    let mut dbms = Dbms::new()?;
    dbms.eval_options = cfg.eval_options(workload);
    dbms.rewriter.set_plan_cache_cap(cfg.plan_cache_cap);
    let mut rng = Rng::new(seed, 1);
    let stmt_sql: Vec<&str> = match workload {
        Workload::AdhocCold => {
            film(&mut dbms, &mut rng, 80, 40)?;
            view_stack(&mut dbms, &mut rng, 3000, 6)?;
            union_parts(&mut dbms, &mut rng, 6, 400)?;
            grouped(&mut dbms, 400, 5)?;
            graph(&mut dbms, &mut rng, 30, 8)?;
            product(&mut dbms, &mut rng, 1500)?;
            simple_t(&mut dbms, &mut rng, 1000)?;
            log_table(&mut dbms)?;
            vec![
                "SELECT K FROM V6 WHERE B = ? AND K < ? ;",
                "SELECT K FROM ALLPARTS WHERE P = ? AND K < ? ;",
                "SELECT X FROM T WHERE X < ? AND Y <> ? ;",
            ]
        }
        Workload::AdhocFull => {
            // Small enough that Full's cold rewrite, not the evaluation
            // of its plans, takes most of an op. With 400-row join
            // inputs, a 20k-row BIGF and 2000-row parts, evaluation took
            // 60% of an op and `ops_per_s` spread by 0.2 to 0.35 over
            // ten seeds, twice as much as the host's speed moved.
            join3(&mut dbms, 160, 32, 16)?;
            pushdown(&mut dbms, 50, 5_000)?;
            union_parts(&mut dbms, &mut rng, 8, 500)?;
            log_table(&mut dbms)?;
            vec![
                "SELECT K FROM ALLPARTS WHERE P = ? AND K < ? ;",
                "SELECT B FROM RS, T WHERE RS.J = T.J AND T.B > ? ;",
            ]
        }
        Workload::RepeatWarm => {
            scan(&mut dbms, &mut rng, WARM_SCAN_ROWS)?;
            film(&mut dbms, &mut rng, 150, 80)?;
            view_stack(&mut dbms, &mut rng, 4000, 8)?;
            union_parts(&mut dbms, &mut rng, 4, 3000)?;
            graph(&mut dbms, &mut rng, 30, 8)?;
            vec![
                "SELECT K FROM SCAN WHERE A > ? AND B < ? ;",
                "SELECT K FROM SCAN WHERE Tag = ? ;",
                "SELECT K FROM V8 WHERE B = ? ;",
                "SELECT K FROM ALLPARTS WHERE P = ? AND K < ? ;",
                "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > ? ;",
                "SELECT DISTINCT P FROM ALLPARTS WHERE K < ? ;",
            ]
        }
        Workload::IngestScan => {
            scan(&mut dbms, &mut rng, INGEST_ROWS)?;
            vec![
                "SELECT K FROM SCAN WHERE A > ? AND B < ? ;",
                "SELECT K FROM SCAN WHERE Tag = ? AND A > ? ;",
                "SELECT G, MakeSet(K) FROM SCAN WHERE A > ? GROUP BY G ;",
            ]
        }
    };
    let stmts = stmt_sql
        .into_iter()
        .map(|sql| {
            Ok(Stmt {
                sql: sql.to_owned(),
                stmt: dbms.prepare_stmt(sql)?,
            })
        })
        .collect::<CoreResult<Vec<_>>>()?;
    let next_key = match workload {
        Workload::IngestScan => INGEST_ROWS,
        Workload::RepeatWarm => WARM_SCAN_ROWS,
        _ => 1_000_000,
    };
    Ok(World {
        dbms,
        stmts,
        gen: Gen::new(workload, seed, next_key),
    })
}

// ---------------------------------------------------------------------
// Op stream
// ---------------------------------------------------------------------

/// Draws [`Gen::fresh`] makes before accepting a repeated text.
const FRESH_TRIES: usize = 32;
/// Size of `repeat_warm`'s text pool.
pub const POOL_SIZE: usize = 64;
/// Bind arrays per prepared statement in `repeat_warm`.
pub const BINDS_PER_STMT: usize = 8;

/// The seeded op generator. Op `i` depends only on the seed and ops
/// `0..i`, never on timing.
#[derive(Debug)]
pub struct Gen {
    workload: Workload,
    rng: Rng,
    verify_rng: Rng,
    seen: HashSet<String>,
    last_query: Option<String>,
    next_key: i64,
    views: u32,
    issued: u64,
    /// Fresh ad-hoc texts (or scan reads) issued so far: their shape is
    /// this count modulo the number of shapes, so every seed gets the
    /// same shape mix.
    shape_seq: u64,
    /// `repeat_warm`'s text pool, in Zipf rank order.
    pub pool: Vec<String>,
    /// `repeat_warm`'s bind arrays per statement, in Zipf rank order.
    pub binds: Vec<Vec<Vec<Value>>>,
    zipf_pool: Zipf,
    zipf_binds: Zipf,
}

/// An op plus whether its result is checked against the reference
/// executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// The request.
    pub op: Op,
    /// Check this op's result.
    pub verify: bool,
}

impl Gen {
    fn new(workload: Workload, seed: u64, next_key: i64) -> Self {
        let mut gen = Gen {
            workload,
            rng: Rng::new(seed, 2),
            verify_rng: Rng::new(seed, 3),
            seen: HashSet::new(),
            last_query: None,
            next_key,
            views: 0,
            issued: 0,
            shape_seq: 0,
            pool: Vec::new(),
            binds: Vec::new(),
            zipf_pool: Zipf::new(POOL_SIZE, 1.0),
            zipf_binds: Zipf::new(BINDS_PER_STMT, 1.0),
        };
        if workload == Workload::RepeatWarm {
            gen.build_warm_pool();
        }
        gen
    }

    /// The next shape out of `n`, round robin.
    fn next_shape(&mut self, n: u64) -> u64 {
        self.shape_seq += 1;
        (self.shape_seq - 1) % n
    }

    /// The warm pool: eight shapes of eight texts each, and eight bind
    /// arrays per prepared statement. Zipf rank `r` goes to shape
    /// `r % 8`. The rank order is fixed, so every seed weights the same
    /// texts and binds alike and the read-latency median does not hinge
    /// on which literal a seed makes hot; the seed changes the data and
    /// the draws.
    fn build_warm_pool(&mut self) {
        let shapes: [Vec<String>; 8] = [
            [800, 850, 900, 950]
                .into_iter()
                .flat_map(|a| {
                    [100, 300].map(|b| format!("SELECT K FROM SCAN WHERE A > {a} AND B < {b} ;"))
                })
                .collect(),
            TAGS.map(|t| format!("SELECT K FROM SCAN WHERE Tag = '{t}' ;"))
                .to_vec(),
            (0..8)
                .map(|i| {
                    format!(
                        "SELECT G, MakeSet(K) FROM SCAN WHERE A > {} GROUP BY G ;",
                        960 + 2 * i
                    )
                })
                .collect(),
            (0..8)
                .map(|i| {
                    format!(
                        "SELECT Title FROM FILM, APPEARS_IN \
                         WHERE Salary(Refactor) > {} AND FILM.Numf = APPEARS_IN.Numf ;",
                        16_000 + 4_000 * i
                    )
                })
                .collect(),
            (0..8)
                .map(|i| {
                    format!(
                        "SELECT DISTINCT P FROM ALLPARTS WHERE K < {} ;",
                        1000 + 200 * i
                    )
                })
                .collect(),
            (0..8)
                .map(|b| format!("SELECT K FROM V8 WHERE B = {b} ;"))
                .collect(),
            (10..18)
                .map(|src| format!("SELECT Dst FROM TC WHERE Src = {src} ;"))
                .collect(),
            (0..4)
                .flat_map(|p| {
                    [1000, 2000]
                        .map(|k| format!("SELECT K FROM ALLPARTS WHERE P = {p} AND K < {k} ;"))
                })
                .collect(),
        ];
        let mut shapes = shapes.map(Vec::into_iter);
        self.pool = (0..POOL_SIZE)
            .map(|r| shapes[r % 8].next().expect("eight texts per shape"))
            .collect();
        self.seen.extend(self.pool.iter().cloned());
        let int = |v: i64| Value::Int(v);
        self.binds = (0..6)
            .map(|stmt| {
                (0..BINDS_PER_STMT as i64)
                    .map(|i| match stmt {
                        0 => vec![int(900 + 10 * i), int(200)],
                        1 => vec![Value::str(TAGS[i as usize])],
                        2 => vec![int(i)],
                        3 => vec![int(i % 4), int(1000 + 1000 * (i / 4))],
                        4 => vec![int(20_000 + 3_000 * i)],
                        _ => vec![int(1000 + 200 * i)],
                    })
                    .collect()
            })
            .collect();
    }

    /// A fresh text from `make`, redrawn until it has not been issued
    /// before (or, should a shape's literal space run dry in a very long
    /// run, a repeat after [`FRESH_TRIES`] draws).
    fn fresh(&mut self, make: impl Fn(&mut Rng) -> String) -> String {
        let mut sql = make(&mut self.rng);
        for _ in 1..FRESH_TRIES {
            if !self.seen.contains(&sql) {
                break;
            }
            sql = make(&mut self.rng);
        }
        self.seen.insert(sql.clone());
        sql
    }

    fn insert_sql(&mut self, table: &'static str, rows: usize) -> Op {
        let mut values = Vec::with_capacity(rows);
        for _ in 0..rows {
            let k = self.next_key;
            self.next_key += 1;
            let row: Vec<String> = match table {
                "SCAN" => scan_row(&mut self.rng, k).iter().map(literal).collect(),
                _ => vec![
                    k.to_string(),
                    format!("'note{}'", k % 97),
                    self.rng.range(0, 86_400).to_string(),
                ],
            };
            values.push(format!("({})", row.join(", ")));
        }
        Op::Insert {
            sql: format!("INSERT INTO {table} VALUES {} ;", values.join(", ")),
            table,
            rows,
        }
    }

    /// The next op.
    pub fn next_op(&mut self) -> Planned {
        let op = match self.workload {
            Workload::AdhocCold => self.adhoc_cold(),
            Workload::AdhocFull => self.adhoc_full(),
            Workload::RepeatWarm => self.repeat_warm(),
            Workload::IngestScan => self.ingest_scan(),
        };
        // Checks run the reference executor between measured ops, which
        // costs wall time and evicts the program's data from the caches;
        // these rates hold them to about a tenth of a run's wall time.
        let verify = match self.workload {
            // A seeded sample of the other streams.
            Workload::AdhocCold => self.verify_rng.chance(1.0 / 150.0),
            Workload::AdhocFull => self.verify_rng.chance(1.0 / 40.0),
            Workload::RepeatWarm => self.verify_rng.chance(1.0 / 500.0),
            // Fixed checkpoints.
            Workload::IngestScan => self.issued.is_multiple_of(500),
        };
        self.issued += 1;
        if let Op::Query(sql) = &op {
            self.last_query = Some(sql.clone());
        }
        Planned { op, verify }
    }

    /// Ad-hoc mix shared by both cold workloads: fresh query texts, a
    /// re-run of the previous text, executes of the `stmts` statements
    /// prepared at setup with fresh binds, and small inserts.
    fn adhoc_mix(
        &mut self,
        fresh: fn(&mut Gen) -> String,
        stmts: u64,
        binds: fn(&mut Rng, usize) -> Vec<Value>,
    ) -> Op {
        let u = self.rng.unit();
        if u < 0.02 {
            if let Some(last) = self.last_query.clone() {
                return Op::Query(last);
            }
        }
        if u < 0.09 {
            let stmt = self.rng.below(stmts) as usize;
            return Op::Execute {
                stmt,
                binds: binds(&mut self.rng, stmt),
            };
        }
        if u < 0.19 {
            let rows = self.rng.range(1, 5) as usize;
            return self.insert_sql("LOG", rows);
        }
        Op::Query(fresh(self))
    }

    fn adhoc_cold(&mut self) -> Op {
        self.adhoc_mix(
            |g| {
                let shape = g.next_shape(8);
                g.fresh(|r| match shape {
                    0 => format!(
                        "SELECT K FROM V{} WHERE B = {} AND K < {} ;",
                        r.range(1, 7),
                        r.range(0, 13),
                        r.range(100, 3000)
                    ),
                    1 => {
                        let lo = r.range(0, 300);
                        format!(
                            "SELECT K FROM ALLPARTS WHERE P = {} AND K > {lo} AND K < {} ;",
                            r.range(0, 6),
                            lo + r.range(10, 100)
                        )
                    }
                    2 => {
                        let lo = r.range(0, 390);
                        format!(
                            "SELECT G, Items FROM GROUPED WHERE G > {lo} AND G < {} ;",
                            lo + r.range(2, 60)
                        )
                    }
                    3 => {
                        let lo = r.range(0, 30);
                        format!(
                            "SELECT Dst FROM TC WHERE Src = {} AND Dst > {lo} AND Dst < {} ;",
                            r.range(0, 30),
                            lo + r.range(2, 30)
                        )
                    }
                    4 => format!(
                        "SELECT Id FROM PRODUCT WHERE Grade = '{}' AND Price < {} AND Weight > {} ;",
                        r.pick(&["A", "B", "C", "D", "E"]),
                        r.range(0, 1000),
                        r.range(0, 50)
                    ),
                    5 => {
                        let n = r.range(3, 7);
                        let parts: Vec<String> = (0..n)
                            .flat_map(|_| {
                                [
                                    format!("X < {} + {}", r.range(0, 500), r.range(0, 500)),
                                    format!("Y <> {}", r.range(0, 101)),
                                ]
                            })
                            .collect();
                        format!("SELECT X FROM T WHERE {} ;", parts.join(" AND "))
                    }
                    6 => format!(
                        "SELECT Numf FROM APPEARS_IN WHERE Salary(Refactor) > {} AND Numf < {} ;",
                        r.range(5_000, 45_000),
                        r.range(10, 80)
                    ),
                    _ => format!(
                        "SELECT Title FROM FILM, APPEARS_IN WHERE Salary(Refactor) > {} \
                         AND FILM.Numf = APPEARS_IN.Numf AND FILM.Numf < {} ;",
                        r.range(5_000, 45_000),
                        r.range(10, 80)
                    ),
                })
            },
            3,
            |r, stmt| match stmt {
                0 => vec![Value::Int(r.range(0, 13)), Value::Int(r.range(100, 3000))],
                1 => vec![Value::Int(r.range(0, 6)), Value::Int(r.range(10, 400))],
                _ => vec![Value::Int(r.range(0, 1000)), Value::Int(r.range(0, 101))],
            },
        )
    }

    fn adhoc_full(&mut self) -> Op {
        self.adhoc_mix(
            |g| {
                let shape = g.next_shape(3);
                g.fresh(|r| match shape {
                    0 => format!(
                        "SELECT B FROM RS, T WHERE RS.J = T.J AND T.B > {} AND RS.K < {} ;",
                        r.range(0, 110),
                        r.range(5, 80)
                    ),
                    1 => {
                        let lo = r.range(0, 90);
                        format!(
                            "SELECT ALLU.K FROM ALLU, FSEL WHERE ALLU.K = FSEL.K \
                             AND ALLU.K > {lo} AND ALLU.K < {} ;",
                            lo + r.range(5, 100)
                        )
                    }
                    _ => format!(
                        "SELECT K FROM ALLPARTS WHERE P = {} AND K < {} ;",
                        r.range(0, 8),
                        r.range(10, 2000)
                    ),
                })
            },
            2,
            |r, stmt| match stmt {
                0 => vec![Value::Int(r.range(0, 8)), Value::Int(r.range(10, 2000))],
                _ => vec![Value::Int(r.range(0, 110))],
            },
        )
    }

    fn repeat_warm(&mut self) -> Op {
        let u = self.rng.unit();
        if u < 0.03 {
            return self.insert_sql("SCAN", 4);
        }
        if u < 0.0325 {
            // A rare ad-hoc text against the warm server.
            return Op::Query(self.fresh(|r| {
                format!(
                    "SELECT K FROM SCAN WHERE A > {} AND B < {} ;",
                    r.range(0, 1000),
                    r.range(0, 1000)
                )
            }));
        }
        if u < 0.52 {
            let rank = self.zipf_pool.sample(&mut self.rng);
            return Op::Query(self.pool[rank].clone());
        }
        let stmt = self.next_shape(self.binds.len() as u64) as usize;
        let rank = self.zipf_binds.sample(&mut self.rng);
        Op::Execute {
            stmt,
            binds: self.binds[stmt][rank].clone(),
        }
    }

    fn ingest_scan(&mut self) -> Op {
        let u = self.rng.unit();
        if u < 0.005 {
            self.views += 1;
            return Op::Ddl(format!(
                "CREATE VIEW HOT{} (K, A) AS SELECT K, A FROM SCAN WHERE Tag = 'hot' AND A > {} ;",
                self.views,
                self.rng.range(0, 1000)
            ));
        }
        if u < 0.55 {
            return self.insert_sql("SCAN", INGEST_BATCH);
        }
        let shape = self.next_shape(3);
        let r = &mut self.rng;
        if u < 0.775 {
            let sql = match shape {
                0 => format!(
                    "SELECT K FROM SCAN WHERE A > {} AND B < {} ;",
                    990 + r.range(0, 9),
                    100 * r.range(1, 4)
                ),
                1 => format!(
                    "SELECT K FROM SCAN WHERE Tag = '{}' AND A > {} ;",
                    r.pick(&TAGS),
                    980 + 3 * r.range(0, 5)
                ),
                _ => format!(
                    "SELECT G, MakeSet(K) FROM SCAN WHERE A > {} GROUP BY G ;",
                    990 + 2 * r.range(0, 5)
                ),
            };
            return Op::Query(sql);
        }
        let stmt = shape as usize;
        let binds = match stmt {
            0 => vec![Value::Int(r.range(990, 999)), Value::Int(r.range(100, 400))],
            1 => vec![Value::str(*r.pick(&TAGS)), Value::Int(r.range(980, 995))],
            _ => vec![Value::Int(r.range(990, 999))],
        };
        Op::Execute { stmt, binds }
    }
}
