//! Single-rule application: match, check constraints, run methods, build
//! the right term.
//!
//! The scanner is a recursive pre-order walk (outermost-leftmost, the
//! paper's application order) with two O(1) accelerations built on the
//! term representation:
//!
//! * **head gate** — a rule whose LHS is an application `F(...)` can only
//!   match at `F` nodes; subtrees whose cached functor fingerprint lacks
//!   `F`'s bit are skipped wholesale without visiting them;
//! * **dirty-region scan** — given the paths the strategy's run-wide
//!   worklist logged since the rule last failed, `scan_rule` restricts
//!   the walk to the spine and subtree of each. Positions outside that
//!   region are provably unchanged subtrees where the rule already failed
//!   to match, so skipping them cannot change which position matches
//!   first.
//!
//! Constraint-position method calls go through the run's
//! [`MethodMemo`], so a call that failed once is not run again.

use crate::error::{RewriteError, RwResult};
use crate::matching::{match_term, Control};
use crate::methods::{eval_constraint, normalize_builtins, MethodMemo, MethodRegistry, TermEnv};
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::{Bindings, Term};

/// Counters accumulated while rewriting; `condition_checks` implements the
/// paper's block-limit unit ("each time a rule condition is checked, the
/// limit of the block is decreased by one").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Number of (rule, query) match attempts — the paper's "condition
    /// checks".
    pub condition_checks: u64,
    /// Number of successful rule applications.
    pub applications: u64,
    /// Candidate matches the scanner saw and rejected (constraint or
    /// method failure, or a no-op replacement). This counts *scan work*,
    /// not semantics: it falls when the worklist re-scans fewer positions,
    /// while the rewrite result and `condition_checks` stay the same.
    pub rejected: u64,
    /// Candidate rewrites scored by cost-guided exploration (including
    /// the mainline saturation result). Zero outside `Full` runs.
    pub explore_candidates: u64,
    /// Condition checks spent normalizing exploration candidates — extra
    /// work beyond the mainline, *not* included in `condition_checks`,
    /// so the mainline counter stays comparable across levels.
    pub explore_checks: u64,
    /// Times exploration stopped early because the estimated win could
    /// not repay the exploration cost (the generalized cost budget).
    pub explore_budget_stops: u64,
    /// Explorations where a candidate beat the mainline plan.
    pub explore_wins: u64,
}

impl RewriteStats {
    /// Merge another stats record into this one.
    pub fn absorb(&mut self, other: RewriteStats) {
        self.condition_checks += other.condition_checks;
        self.applications += other.applications;
        self.rejected += other.rejected;
        self.explore_candidates += other.explore_candidates;
        self.explore_checks += other.explore_checks;
        self.explore_budget_stops += other.explore_budget_stops;
        self.explore_wins += other.explore_wins;
    }
}

/// Where a rule fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Application {
    /// Position (path) of the rewritten subterm.
    pub path: Vec<usize>,
}

/// Try `rule` at exactly one position: enumerate matches, filter through
/// constraints and methods, build the replacement. `Ok(None)` when no
/// accepted match exists at this node.
fn match_at(
    rule: &Rule,
    sub: &Term,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    memo: &mut MethodMemo,
    rejected: &mut u64,
) -> RwResult<Option<Term>> {
    let mut rewritten: Option<Term> = None;
    let mut failure: Option<RewriteError> = None;

    let mut binds = Bindings::new();
    let mut sink = |b: &Bindings| {
        let mut candidate = b.clone();
        // 1. Constraints.
        for c in &rule.constraints {
            match eval_constraint(c, &mut candidate, methods, env, memo) {
                Ok(true) => {}
                Ok(false) => {
                    *rejected += 1;
                    return Control::Continue;
                }
                Err(e) => {
                    failure = Some(e);
                    return Control::Stop;
                }
            }
        }
        // 2. Methods (may bind output variables).
        for m in &rule.methods {
            match methods.call(&m.name, &m.args, &mut candidate, env) {
                Ok(true) => {}
                Ok(false) => {
                    *rejected += 1;
                    return Control::Continue;
                }
                Err(e) => {
                    failure = Some(e);
                    return Control::Stop;
                }
            }
        }
        // 3. Build the right term.
        let built = normalize_builtins(&candidate.apply(&rule.rhs));
        if let Some(v) = built
            .variables()
            .into_iter()
            .find(|v| !candidate.contains(*v))
        {
            failure = Some(RewriteError::UnboundInRhs {
                rule: rule.name.clone(),
                variable: v.to_owned(),
            });
            return Control::Stop;
        }
        if &built == sub {
            // No-op application; try another match.
            *rejected += 1;
            return Control::Continue;
        }
        rewritten = Some(built);
        Control::Stop
    };
    match_term(&rule.lhs, sub, &mut binds, &mut sink);

    if let Some(e) = failure {
        return Err(e);
    }
    Ok(rewritten)
}

/// Pre-order walk of the whole subtree at `node`, pruning subtrees whose
/// fingerprint proves the rule head absent. Returns the replacement and
/// the (root-relative) path of the first accepted match.
#[allow(clippy::too_many_arguments)]
fn walk(
    rule: &Rule,
    node: &Term,
    head: Option<Symbol>,
    path: &mut Vec<usize>,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    memo: &mut MethodMemo,
    rejected: &mut u64,
) -> RwResult<Option<(Term, Vec<usize>)>> {
    let try_here = match head {
        Some(h) => node.head() == Some(h),
        None => true,
    };
    if try_here {
        if let Some(new_sub) = match_at(rule, node, methods, env, memo, rejected)? {
            return Ok(Some((new_sub, path.clone())));
        }
    }
    if let Term::App(_, args) = node {
        for (i, a) in args.iter().enumerate() {
            if let Some(h) = head {
                if !a.may_contain(h) {
                    continue;
                }
            }
            path.push(i);
            let found = walk(rule, a, head, path, methods, env, memo, rejected)?;
            path.pop();
            if found.is_some() {
                return Ok(found);
            }
        }
    }
    Ok(None)
}

/// Restricted walk for the incremental worklist: `suffixes` are the dirty
/// paths relative to `node`. Spine nodes (proper prefixes of a dirty
/// path) are tested and descended only toward dirty children; a node
/// reached by a full dirty path switches to the unrestricted [`walk`].
/// Visit order is still pre-order, so the first match found here is the
/// first match of the whole term.
#[allow(clippy::too_many_arguments)]
fn walk_dirty(
    rule: &Rule,
    node: &Term,
    head: Option<Symbol>,
    path: &mut Vec<usize>,
    suffixes: &[&[usize]],
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    memo: &mut MethodMemo,
    rejected: &mut u64,
) -> RwResult<Option<(Term, Vec<usize>)>> {
    if suffixes.iter().any(|s| s.is_empty()) {
        // The whole subtree is dirty.
        if head.is_none_or(|h| node.may_contain(h)) {
            return walk(rule, node, head, path, methods, env, memo, rejected);
        }
        return Ok(None);
    }
    // Spine node: its child list changed, so the rule may newly match
    // here even though it failed before.
    let try_here = match head {
        Some(h) => node.head() == Some(h),
        None => true,
    };
    if try_here {
        if let Some(new_sub) = match_at(rule, node, methods, env, memo, rejected)? {
            return Ok(Some((new_sub, path.clone())));
        }
    }
    if let Term::App(_, args) = node {
        // Group dirty suffixes by their leading child index; visit
        // children in ascending order to keep the walk pre-order.
        let mut by_child: std::collections::BTreeMap<usize, Vec<&[usize]>> =
            std::collections::BTreeMap::new();
        for s in suffixes {
            by_child.entry(s[0]).or_default().push(&s[1..]);
        }
        for (i, child_suffixes) in by_child {
            // Stale paths (from before an ancestor was replaced) may
            // point past the current arity; they are simply ignored.
            let Some(a) = args.get(i) else { continue };
            path.push(i);
            let found = walk_dirty(
                rule,
                a,
                head,
                path,
                &child_suffixes,
                methods,
                env,
                memo,
                rejected,
            )?;
            path.pop();
            if found.is_some() {
                return Ok(found);
            }
        }
    }
    Ok(None)
}

/// Attempt to apply `rule` once, at the outermost-leftmost position where
/// its pattern matches with satisfied constraints and methods. Returns the
/// rewritten whole term.
///
/// A match whose replacement equals the matched subterm is skipped — this
/// keeps idempotent rules from looping without consuming the block budget
/// on no-ops.
pub fn apply_rule_once(
    rule: &Rule,
    term: &Term,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    stats: &mut RewriteStats,
) -> RwResult<Option<(Term, Application)>> {
    let mut memo = MethodMemo::default();
    scan_rule(rule, term, None, methods, env, &mut memo, stats)
}

/// [`apply_rule_once`] as the strategy kernel runs it: with the run's
/// method memo and, when `dirty` is given, re-examining only the dirty
/// region — for each path in `dirty`, the spine from the root to that
/// path plus the entire subtree below it. A restricted scan is sound
/// whenever the rule is known not to match anywhere on the term as it was
/// before the subterms at `dirty` were replaced (the worklist's
/// bookkeeping guarantees exactly that), and it then finds the same first
/// match as a full scan.
///
/// Counts one condition check either way — the paper's `Limit`
/// accounting does not change with the scan strategy.
pub(crate) fn scan_rule(
    rule: &Rule,
    term: &Term,
    dirty: Option<&[Vec<usize>]>,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    memo: &mut MethodMemo,
    stats: &mut RewriteStats,
) -> RwResult<Option<(Term, Application)>> {
    stats.condition_checks += 1;
    let lhs_head = rule.lhs.head();
    if let Some(h) = lhs_head {
        if !term.may_contain(h) {
            return Ok(None);
        }
    }
    let mut rejected = 0;
    let mut path = Vec::new();
    let found = match dirty {
        None => walk(
            rule,
            term,
            lhs_head,
            &mut path,
            methods,
            env,
            memo,
            &mut rejected,
        )?,
        Some(paths) => {
            let suffixes: Vec<&[usize]> = paths.iter().map(Vec::as_slice).collect();
            walk_dirty(
                rule,
                term,
                lhs_head,
                &mut path,
                &suffixes,
                methods,
                env,
                memo,
                &mut rejected,
            )?
        }
    };
    stats.rejected += rejected;
    match found {
        Some((new_sub, path)) => {
            stats.applications += 1;
            let new_term = term.replace_at(&path, new_sub);
            Ok(Some((new_term, Application { path })))
        }
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::BasicEnv;
    use crate::rule::MethodCall;

    /// A restricted scan with a fresh memo.
    fn apply_rule_once_dirty(
        rule: &Rule,
        term: &Term,
        dirty: &[Vec<usize>],
        methods: &MethodRegistry,
        env: &dyn TermEnv,
        stats: &mut RewriteStats,
    ) -> RwResult<Option<(Term, Application)>> {
        let mut memo = MethodMemo::default();
        scan_rule(rule, term, Some(dirty), methods, env, &mut memo, stats)
    }

    fn apply(rule: &Rule, term: &Term) -> Option<Term> {
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        apply_rule_once(rule, term, &methods, &env, &mut stats)
            .unwrap()
            .map(|(t, _)| t)
    }

    #[test]
    fn applies_at_nested_position() {
        // F(G(x)) --> x, applied inside H(...).
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::app("G", vec![Term::var("x")])]),
            Term::var("x"),
        );
        let term = Term::app(
            "H",
            vec![Term::app("F", vec![Term::app("G", vec![Term::int(7)])])],
        );
        assert_eq!(
            apply(&rule, &term),
            Some(Term::app("H", vec![Term::int(7)]))
        );
    }

    #[test]
    fn constraint_vetoes_match() {
        // F(x) / x > 5 --> G(x)
        let rule = Rule {
            name: "gate".into(),
            lhs: Term::app("F", vec![Term::var("x")]),
            constraints: vec![Term::app(">", vec![Term::var("x"), Term::int(5)])],
            rhs: Term::app("G", vec![Term::var("x")]),
            methods: vec![],
        };
        assert_eq!(apply(&rule, &Term::app("F", vec![Term::int(3)])), None);
        assert_eq!(
            apply(&rule, &Term::app("F", vec![Term::int(9)])),
            Some(Term::app("G", vec![Term::int(9)]))
        );
    }

    #[test]
    fn paper_example_rule_fires() {
        // F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(x*)
        // (the syntactically-correct example rule of Section 4.1).
        let rule = Rule {
            name: "example".into(),
            lhs: Term::app(
                "F",
                vec![Term::set(vec![
                    Term::seq("x"),
                    Term::app("G", vec![Term::var("y"), Term::var("f")]),
                ])],
            ),
            constraints: vec![
                Term::app("MEMBER", vec![Term::var("y"), Term::seq("x")]),
                Term::app("=", vec![Term::var("f"), Term::atom("TRUE")]),
            ],
            rhs: Term::app("F", vec![Term::seq("x")]),
            methods: vec![],
        };
        let term = Term::app(
            "F",
            vec![Term::set(vec![
                Term::atom("A"),
                Term::atom("B"),
                Term::app("G", vec![Term::atom("B"), Term::bool(true)]),
            ])],
        );
        let out = apply(&rule, &term).expect("rule should fire");
        assert_eq!(out, Term::app("F", vec![Term::atom("A"), Term::atom("B")]));
        // y not in x* -> no application.
        let term2 = Term::app(
            "F",
            vec![Term::set(vec![
                Term::atom("A"),
                Term::app("G", vec![Term::atom("B"), Term::bool(true)]),
            ])],
        );
        assert_eq!(apply(&rule, &term2), None);
    }

    #[test]
    fn method_output_used_in_rhs() {
        // F(x, y) / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(F(x,y), a)
        // — the constant-folding simplification rule of Figure 12, with
        // F instantiated as "+".
        let rule = Rule {
            name: "fold".into(),
            lhs: Term::app("+", vec![Term::var("x"), Term::var("y")]),
            constraints: vec![
                Term::app("ISA", vec![Term::var("x"), Term::atom("constant")]),
                Term::app("ISA", vec![Term::var("y"), Term::atom("constant")]),
            ],
            rhs: Term::var("a"),
            methods: vec![MethodCall {
                name: "EVALUATE".into(),
                args: vec![
                    Term::app("+", vec![Term::var("x"), Term::var("y")]),
                    Term::var("a"),
                ],
            }],
        };
        let term = Term::app("+", vec![Term::int(40), Term::int(2)]);
        assert_eq!(apply(&rule, &term), Some(Term::int(42)));
        // Non-constant argument: no fold.
        let term2 = Term::app("+", vec![Term::attr(1, 1), Term::int(2)]);
        assert_eq!(apply(&rule, &term2), None);
    }

    #[test]
    fn noop_matches_are_skipped() {
        // x --> x never "applies".
        let rule = Rule::simple("identity", Term::var("x"), Term::var("x"));
        assert_eq!(apply(&rule, &Term::int(1)), None);
    }

    #[test]
    fn unbound_rhs_variable_is_an_error() {
        let rule = Rule::simple(
            "broken",
            Term::app("F", vec![Term::var("x")]),
            Term::app("G", vec![Term::var("zz")]),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let err = apply_rule_once(
            &rule,
            &Term::app("F", vec![Term::int(1)]),
            &methods,
            &env,
            &mut stats,
        )
        .unwrap_err();
        assert!(matches!(err, RewriteError::UnboundInRhs { .. }));
    }

    #[test]
    fn stats_count_checks_and_applications() {
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let mut stats = RewriteStats::default();
        let term = Term::app("F", vec![Term::int(1)]);
        apply_rule_once(&rule, &term, &methods, &env, &mut stats).unwrap();
        assert_eq!(stats.condition_checks, 1);
        assert_eq!(stats.applications, 1);
    }

    #[test]
    fn dirty_scan_agrees_with_full_scan() {
        // A term with two F-redexes; after rewriting the left one, a
        // dirty scan restricted to that path must find the same next
        // match as a full scan.
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();

        let term = Term::app(
            "H",
            vec![
                Term::app("F", vec![Term::int(1)]),
                Term::app("F", vec![Term::int(2)]),
            ],
        );
        let mut s1 = RewriteStats::default();
        let (t1, app1) = apply_rule_once(&rule, &term, &methods, &env, &mut s1)
            .unwrap()
            .unwrap();
        assert_eq!(app1.path, vec![0]);

        // Full rescan vs dirty rescan from the rewritten position.
        let mut s2 = RewriteStats::default();
        let full = apply_rule_once(&rule, &t1, &methods, &env, &mut s2)
            .unwrap()
            .unwrap();
        let mut s3 = RewriteStats::default();
        // The other F at [1] was never scanned past in the first call's
        // early return, so the conservative dirty set is "everything
        // after the application" — here modelled by marking the root
        // dirty, which degenerates to a full scan.
        let dirty = apply_rule_once_dirty(&rule, &t1, &[vec![]], &methods, &env, &mut s3)
            .unwrap()
            .unwrap();
        assert_eq!(full.0, dirty.0);
        assert_eq!(full.1.path, dirty.1.path);
        assert_eq!(s2.condition_checks, 1);
        assert_eq!(s3.condition_checks, 1);
    }

    #[test]
    fn dirty_scan_finds_spine_match() {
        // G(H(x)) --> x matches at the root only after the child is
        // rewritten into H(...): the spine of the dirty path must be
        // re-examined.
        let rule = Rule::simple(
            "spine",
            Term::app("G", vec![Term::app("H", vec![Term::var("x")])]),
            Term::var("x"),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        // Term G(H(1)) — pretend H(1) just replaced something at [0].
        let term = Term::app("G", vec![Term::app("H", vec![Term::int(1)])]);
        let mut stats = RewriteStats::default();
        let (out, app) =
            apply_rule_once_dirty(&rule, &term, &[vec![0]], &methods, &env, &mut stats)
                .unwrap()
                .unwrap();
        assert_eq!(out, Term::int(1));
        assert_eq!(app.path, Vec::<usize>::new());
    }

    #[test]
    fn dirty_scan_ignores_stale_paths() {
        let rule = Rule::simple(
            "collapse",
            Term::app("F", vec![Term::var("x")]),
            Term::var("x"),
        );
        let env = BasicEnv::new();
        let methods = MethodRegistry::with_builtins();
        let term = Term::app("G", vec![Term::int(1)]);
        let mut stats = RewriteStats::default();
        // Paths far outside the term's shape must be skipped silently.
        let out = apply_rule_once_dirty(
            &rule,
            &term,
            &[vec![5, 7], vec![0, 3]],
            &methods,
            &env,
            &mut stats,
        )
        .unwrap();
        assert!(out.is_none());
    }
}
