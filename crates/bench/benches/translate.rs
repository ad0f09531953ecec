//! Front-end throughput: ESQL parsing and ESQL → LERA translation of the
//! paper's Figure-3/4/5 queries (the canonical-form production the
//! rewriter consumes).

use eds_bench::film_dbms;
use eds_esql::parse_statements;
use eds_testkit::bench::Criterion;
use eds_testkit::{criterion_group, criterion_main};

const FIG3: &str = "SELECT Title, Categories, Salary(Refactor) \
                    FROM FILM, APPEARS_IN \
                    WHERE FILM.Numf = APPEARS_IN.Numf \
                    AND Name(Refactor) = 'Quinn' \
                    AND MEMBER('Adventure', Categories) ;";

fn series() {
    let dbms = film_dbms(50, 20, 3);
    let prepared = dbms.prepare(FIG3).unwrap();
    println!("\n# F3 canonical translation (compare paper Section 3.1):");
    println!("{}", prepared.expr);
    println!();
}

fn bench(c: &mut Criterion) {
    series();
    let mut dbms = film_dbms(50, 20, 3);
    dbms.execute_ddl(
        "CREATE VIEW FilmActors (Title, Categories, Actors) AS
           SELECT Title, Categories, MakeSet(Refactor)
           FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf
           GROUP BY Title, Categories ;
         CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS
           ( SELECT Refactor1, Refactor2 FROM DOMINATE
             UNION
             SELECT B1.Refactor1, B2.Refactor2
             FROM BETTER_THAN B1, BETTER_THAN B2
             WHERE B1.Refactor2 = B2.Refactor1 ) ;",
    )
    .unwrap();
    dbms.rewriter.set_plan_cache_cap(0);

    let fig4 = "SELECT Title FROM FilmActors \
                WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10_000) ;";
    let fig5 = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn' ;";

    let mut group = c.benchmark_group("translate");
    group.sample_size(50);
    group.bench_function("parse_fig3", |b| b.iter(|| parse_statements(FIG3).unwrap()));
    for (label, sql) in [("fig3", FIG3), ("fig4", fig4), ("fig5", fig5)] {
        group.bench_function(format!("prepare_{label}"), |b| {
            b.iter(|| dbms.prepare(sql).unwrap());
        });
        let prepared = dbms.prepare(sql).unwrap();
        group.bench_function(format!("rewrite_{label}"), |b| {
            b.iter(|| dbms.rewrite(&prepared).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
