//! Bounded 3-valued equivalence prover for pure boolean/comparison rules.
//!
//! The provable fragment is the qualification algebra: `AND`/`OR`/`NOT`,
//! the six comparison operators over scalar expressions built from
//! variables, numeric literals and `+`/`-`/`*`, plus the `TRUE`/`FALSE`
//! literals. For a rule whose LHS and RHS both live in this fragment the
//! prover enumerates **every** valuation of the rule's variables over a
//! small domain — boolean variables range over {TRUE, FALSE, UNKNOWN},
//! scalar variables over {NULL, -1, 0, 1, 2} — and compares both sides under
//! SQL's 3-valued Kleene semantics (a comparison with a NULL operand is
//! UNKNOWN).
//!
//! The verdicts:
//!
//! * every admitted valuation agrees → **proved** (within the bounded
//!   domain; see the false-negative discussion in DESIGN.md);
//! * some valuation with no NULL/UNKNOWN assignment disagrees →
//!   **refuted** ([`super::EDS030`], error) with the witness valuation;
//! * only NULL-involving valuations disagree → **conditional**
//!   ([`super::EDS032`], warning): the rule is sound exactly under a
//!   `NOT NULL` side condition — guard the offending variables with the
//!   built-in `NOTNULL(x)` constraint and the prover will certify it;
//! * anything outside the fragment (methods, collection variables,
//!   relational operators, unknown functors, too many variables) →
//!   **unsupported** ([`super::EDS031`], info): differential fuzzing is
//!   the only semantic coverage.
//!
//! Side conditions (rule constraints) are honored: a valuation is only
//! admitted when every constraint evaluates to true under the bindings
//! it induces, using the same [`eval_constraint`] the rewriter itself
//! runs at match time.

use std::collections::BTreeMap;

use eds_adt::Value;

use crate::analyze::{Diagnostic, CMP_OPS};
use crate::methods::{eval_constraint, MethodMemo, MethodRegistry, TermEnv};
use crate::rule::Rule;
use crate::term::{Bindings, Term};
use crate::verify::{refuted, side_condition, unsupported};

/// Kleene three-valued truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Definitely false.
    False,
    /// NULL / unknown.
    Unknown,
    /// Definitely true.
    True,
}

impl std::fmt::Display for Tri {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tri::False => f.write_str("FALSE"),
            Tri::Unknown => f.write_str("UNKNOWN"),
            Tri::True => f.write_str("TRUE"),
        }
    }
}

impl Tri {
    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }
}

/// Outcome of [`check_rule`] for one rule.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// LHS ≡ RHS at every admitted valuation of the bounded domain.
    Proved {
        /// Number of valuations that satisfied the side conditions.
        valuations: usize,
    },
    /// A NULL-free valuation distinguishes the sides (`EDS030`).
    Refuted(Diagnostic),
    /// Only NULL-involving valuations distinguish the sides, or the side
    /// conditions could not be honored in the bounded domain (`EDS032`).
    Conditional(Diagnostic),
    /// The rule is outside the provable fragment (`EDS031`).
    Unsupported(Diagnostic),
}

/// The position a variable occurs in decides its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Bool,
    Scalar,
}

/// Scalar domain: NULL plus four small integers — enough to separate
/// `=`/`<>`/`<`/`<=`/`>`/`>=` and to exercise `+`/`-`/`*`. The negative
/// element matters: without it, sign-sensitive non-theorems like
/// `0 <= x --> TRUE` hold at every domain point and the rule-discovery
/// pipeline would emit them as proved.
pub(crate) const SCALAR_DOMAIN: [Option<f64>; 5] =
    [None, Some(-1.0), Some(0.0), Some(1.0), Some(2.0)];
pub(crate) const BOOL_DOMAIN: [Tri; 3] = [Tri::True, Tri::False, Tri::Unknown];

/// Valuation cap: 3^b · 4^s must stay below this for the enumeration to
/// run (8 variables of the worst mix stay well under it).
const MAX_VALUATIONS: usize = 1 << 16;

/// One assignment of domain values to the rule's variables.
#[derive(Debug, Default, Clone)]
pub(crate) struct Valuation {
    pub(crate) bools: BTreeMap<String, Tri>,
    pub(crate) scalars: BTreeMap<String, Option<f64>>,
}

impl Valuation {
    pub(crate) fn has_null(&self) -> bool {
        self.bools.values().any(|t| *t == Tri::Unknown)
            || self.scalars.values().any(Option::is_none)
    }

    fn bindings(&self) -> Bindings {
        let mut binds = Bindings::new();
        for (name, t) in &self.bools {
            let term = match t {
                Tri::True => Term::bool(true),
                Tri::False => Term::bool(false),
                Tri::Unknown => Term::Const(Value::Null),
            };
            binds.bind(name.as_str(), term);
        }
        for (name, v) in &self.scalars {
            let term = match v {
                // The domain only holds small integers; surface them as
                // INT literals so ISA(x, constant)-style conditions see
                // ordinary constants.
                Some(k) => Term::int(*k as i64),
                None => Term::Const(Value::Null),
            };
            binds.bind(name.as_str(), term);
        }
        binds
    }
}

impl std::fmt::Display for Valuation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (name, t) in &self.bools {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{name} = {t}")?;
            first = false;
        }
        for (name, v) in &self.scalars {
            if !first {
                f.write_str(", ")?;
            }
            match v {
                Some(k) => write!(f, "{name} = {k}")?,
                None => write!(f, "{name} = NULL")?,
            }
            first = false;
        }
        if first {
            f.write_str("(no variables)")?;
        }
        Ok(())
    }
}

/// Classify every variable of `t` (a boolean-position term) into
/// [`Kind`]s, rejecting anything outside the provable fragment.
pub(crate) fn classify(
    t: &Term,
    kind: Kind,
    kinds: &mut BTreeMap<String, Kind>,
) -> Result<(), String> {
    match t {
        Term::Var(v) => {
            let name = v.as_str().to_owned();
            if let Some(prev) = kinds.get(&name) {
                if *prev != kind {
                    return Err(format!(
                        "variable '{name}' is used in both boolean and scalar positions"
                    ));
                }
            } else {
                kinds.insert(name, kind);
            }
            Ok(())
        }
        Term::SeqVar(v) => Err(format!("collection variable '{v}*'")),
        Term::Const(v) => match (kind, v) {
            (Kind::Bool, Value::Bool(_) | Value::Null) => Ok(()),
            (Kind::Scalar, Value::Int(_) | Value::Real(_) | Value::Null) => Ok(()),
            _ => Err(format!("literal {t} outside the boolean/numeric fragment")),
        },
        Term::App(head, args) => {
            let (head, args) = (head.as_str(), args.as_slice());
            match kind {
                Kind::Bool => match (head, args.len()) {
                    ("AND" | "OR", 2) => {
                        classify(&args[0], Kind::Bool, kinds)?;
                        classify(&args[1], Kind::Bool, kinds)
                    }
                    ("NOT", 1) => classify(&args[0], Kind::Bool, kinds),
                    ("TRUE" | "FALSE", 0) => Ok(()),
                    (op, 2) if CMP_OPS.contains(&op) => {
                        classify(&args[0], Kind::Scalar, kinds)?;
                        classify(&args[1], Kind::Scalar, kinds)
                    }
                    _ => Err(format!("boolean operator {head}/{}", args.len())),
                },
                Kind::Scalar => match (head, args.len()) {
                    ("+" | "-" | "*", 2) => {
                        classify(&args[0], Kind::Scalar, kinds)?;
                        classify(&args[1], Kind::Scalar, kinds)
                    }
                    ("-", 1) => classify(&args[0], Kind::Scalar, kinds),
                    ("NULL", 0) => Ok(()),
                    _ => Err(format!("scalar operator {head}/{}", args.len())),
                },
            }
        }
    }
}

/// 3-valued evaluation of a boolean-fragment term under a valuation.
/// `classify` has vetted the shape, so unreachable arms are defensive.
pub(crate) fn eval_bool(t: &Term, val: &Valuation) -> Option<Tri> {
    match t {
        Term::Var(v) => val.bools.get(v.as_str()).copied(),
        Term::Const(Value::Bool(b)) => Some(if *b { Tri::True } else { Tri::False }),
        Term::Const(Value::Null) => Some(Tri::Unknown),
        Term::Const(_) | Term::SeqVar(_) => None,
        Term::App(head, args) => {
            let (head, args) = (head.as_str(), args.as_slice());
            match (head, args.len()) {
                ("TRUE", 0) => Some(Tri::True),
                ("FALSE", 0) => Some(Tri::False),
                ("AND", 2) => Some(eval_bool(&args[0], val)?.and(eval_bool(&args[1], val)?)),
                ("OR", 2) => Some(eval_bool(&args[0], val)?.or(eval_bool(&args[1], val)?)),
                ("NOT", 1) => Some(eval_bool(&args[0], val)?.not()),
                (op, 2) if CMP_OPS.contains(&op) => {
                    let (Some(a), Some(b)) =
                        (eval_scalar(&args[0], val)?, eval_scalar(&args[1], val)?)
                    else {
                        return Some(Tri::Unknown);
                    };
                    let ord = a.total_cmp(&b);
                    let holds = match op {
                        "=" => ord.is_eq(),
                        "<>" => ord.is_ne(),
                        "<" => ord.is_lt(),
                        "<=" => ord.is_le(),
                        ">" => ord.is_gt(),
                        _ => ord.is_ge(),
                    };
                    Some(if holds { Tri::True } else { Tri::False })
                }
                _ => None,
            }
        }
    }
}

/// Scalar evaluation; the outer `Option` is "outside the fragment", the
/// inner is NULL.
fn eval_scalar(t: &Term, val: &Valuation) -> Option<Option<f64>> {
    match t {
        Term::Var(v) => val.scalars.get(v.as_str()).copied(),
        Term::Const(Value::Int(n)) => Some(Some(*n as f64)),
        Term::Const(Value::Real(r)) => Some(Some(r.0)),
        Term::Const(Value::Null) => Some(None),
        Term::App(head, args) => {
            let (head, args) = (head.as_str(), args.as_slice());
            match (head, args.len()) {
                ("NULL", 0) => Some(None),
                ("-", 1) => {
                    let a = eval_scalar(&args[0], val)?;
                    Some(a.map(|a| -a))
                }
                ("+" | "-" | "*", 2) => {
                    let (a, b) = (eval_scalar(&args[0], val)?, eval_scalar(&args[1], val)?);
                    let (Some(a), Some(b)) = (a, b) else {
                        return Some(None);
                    };
                    Some(Some(match head {
                        "+" => a + b,
                        "-" => a - b,
                        _ => a * b,
                    }))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// The `idx`-th valuation in the mixed-radix enumeration over the
/// classified variables.
pub(crate) fn nth_valuation(kinds: &BTreeMap<String, Kind>, mut idx: usize) -> Valuation {
    let mut val = Valuation::default();
    for (name, kind) in kinds {
        match kind {
            Kind::Bool => {
                val.bools
                    .insert(name.clone(), BOOL_DOMAIN[idx % BOOL_DOMAIN.len()]);
                idx /= BOOL_DOMAIN.len();
            }
            Kind::Scalar => {
                val.scalars
                    .insert(name.clone(), SCALAR_DOMAIN[idx % SCALAR_DOMAIN.len()]);
                idx /= SCALAR_DOMAIN.len();
            }
        }
    }
    val
}

/// Prove, refute, or decline one rule. See the module docs for the
/// verdict policy; `methods` and `env` are used to evaluate the rule's
/// side conditions exactly as the rewriter would at match time.
pub fn check_rule(rule: &Rule, methods: &MethodRegistry, env: &dyn TermEnv) -> Outcome {
    if !rule.methods.is_empty() {
        return Outcome::Unsupported(unsupported(
            &rule.name,
            "the rule invokes methods, whose semantics the prover cannot model",
        ));
    }
    let mut kinds = BTreeMap::new();
    if let Err(reason) = classify(&rule.lhs, Kind::Bool, &mut kinds) {
        return Outcome::Unsupported(unsupported(&rule.name, &format!("LHS uses {reason}")));
    }
    let lhs_vars: Vec<String> = kinds.keys().cloned().collect();
    if let Err(reason) = classify(&rule.rhs, Kind::Bool, &mut kinds) {
        return Outcome::Unsupported(unsupported(&rule.name, &format!("RHS uses {reason}")));
    }
    if kinds.len() != lhs_vars.len() {
        // A fresh RHS variable has no valuation source; EDS001 already
        // flags it as an error, so just decline here.
        return Outcome::Unsupported(unsupported(
            &rule.name,
            "the RHS introduces variables the LHS does not bind",
        ));
    }
    for c in &rule.constraints {
        if c.variables().iter().any(|v| !kinds.contains_key(*v)) {
            return Outcome::Conditional(side_condition(
                &rule.name,
                &format!(
                    "side condition {c} references variables outside the pattern; \
                     the prover cannot discharge it"
                ),
            ));
        }
    }
    let total: usize = kinds
        .values()
        .map(|k| match k {
            Kind::Bool => BOOL_DOMAIN.len(),
            Kind::Scalar => SCALAR_DOMAIN.len(),
        })
        .product();
    if total > MAX_VALUATIONS {
        return Outcome::Unsupported(unsupported(
            &rule.name,
            "too many variables for exhaustive valuation",
        ));
    }

    let mut admitted = 0usize;
    let mut null_witness: Option<(Valuation, Tri, Tri)> = None;
    for idx in 0..total {
        let val = nth_valuation(&kinds, idx);
        // Side conditions, evaluated with the rewriter's own machinery.
        let mut binds = val.bindings();
        let mut excluded = false;
        for c in &rule.constraints {
            match eval_constraint(c, &mut binds, methods, env, &mut MethodMemo::default()) {
                Ok(true) => {}
                Ok(false) => {
                    excluded = true;
                    break;
                }
                Err(e) => {
                    return Outcome::Conditional(side_condition(
                        &rule.name,
                        &format!("side condition {c} is not evaluable in the bounded prover: {e}"),
                    ));
                }
            }
        }
        if excluded {
            continue;
        }
        admitted += 1;
        let (Some(l), Some(r)) = (eval_bool(&rule.lhs, &val), eval_bool(&rule.rhs, &val)) else {
            return Outcome::Unsupported(unsupported(
                &rule.name,
                "evaluation left the boolean fragment",
            ));
        };
        if l != r {
            if val.has_null() {
                null_witness.get_or_insert((val, l, r));
            } else {
                return Outcome::Refuted(refuted(
                    &rule.name,
                    &format!(
                        "bounded equivalence prover: at {val} the left side is {l} \
                         but the right side is {r}"
                    ),
                ));
            }
        }
    }
    if admitted == 0 {
        return Outcome::Conditional(side_condition(
            &rule.name,
            "the side conditions exclude every valuation in the bounded domain; nothing proved",
        ));
    }
    if let Some((val, l, r)) = null_witness {
        return Outcome::Conditional(side_condition(
            &rule.name,
            &format!(
                "equivalence holds for all non-NULL valuations but at {val} the left side \
                 is {l} and the right side is {r}; soundness needs a NOT-NULL side \
                 condition — guard the offending variables with NOTNULL(...)"
            ),
        ));
    }
    Outcome::Proved {
        valuations: admitted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_source;
    use crate::methods::BasicEnv;
    use crate::SourceItem;

    fn rule(src: &str) -> Rule {
        match parse_source(src).unwrap().remove(0) {
            SourceItem::Rule(r) => r,
            other => panic!("expected a rule, got {other:?}"),
        }
    }

    fn check(src: &str) -> Outcome {
        check_rule(
            &rule(src),
            &MethodRegistry::with_builtins(),
            &BasicEnv::new(),
        )
    }

    #[test]
    fn demorgan_is_proved() {
        let out = check("DM : NOT(AND(f, g)) / --> OR(NOT(f), NOT(g)) / ;");
        assert!(matches!(out, Outcome::Proved { valuations: 9 }), "{out:?}");
    }

    #[test]
    fn dropped_negation_is_refuted_with_a_null_free_witness() {
        let out = check("Bad : NOT(AND(f, g)) / --> OR(NOT(f), g) / ;");
        let Outcome::Refuted(d) = out else {
            panic!("expected refutation, got {out:?}");
        };
        assert_eq!(d.code, "EDS030");
        assert!(d.message.contains("f = TRUE"), "{}", d.message);
        assert!(!d.message.contains("UNKNOWN"), "{}", d.message);
    }

    #[test]
    fn comparison_folding_is_proved_over_numbers() {
        let out = check("Diff : x - y = 0 / --> x = y / ;");
        assert!(matches!(out, Outcome::Proved { valuations: 25 }), "{out:?}");
    }

    #[test]
    fn contradiction_collapse_needs_a_null_side_condition() {
        let out = check("Contra : AND(x > y, x <= y) / --> FALSE / ;");
        let Outcome::Conditional(d) = out else {
            panic!("expected conditional, got {out:?}");
        };
        assert_eq!(d.code, "EDS032");
        assert!(d.message.contains("NULL"), "{}", d.message);
    }

    #[test]
    fn notnull_guards_discharge_the_null_counterexample() {
        // The side condition EDS032 asks for, expressed with the
        // built-in NOTNULL guard: NULL valuations are excluded and the
        // remaining 4 x 4 scalar grid proves the collapse.
        let out = check("Contra : AND(x > y, x <= y) / NOTNULL(x), NOTNULL(y) --> FALSE / ;");
        assert!(matches!(out, Outcome::Proved { valuations: 16 }), "{out:?}");
    }

    #[test]
    fn relational_rules_are_unsupported() {
        let out = check("Merge : FILTER(FILTER(r, p), q) / --> FILTER(r, AND(p, q)) / ;");
        let Outcome::Unsupported(d) = out else {
            panic!("expected unsupported, got {out:?}");
        };
        assert_eq!(d.code, "EDS031");
    }

    #[test]
    fn side_conditions_restrict_the_domain() {
        // x = 0 is only admitted where the condition binds x to 0; under
        // it the rewrite to TRUE is sound except for NULL.
        let out = check("Cond : x >= 0 / x = 0 --> x <= 0 / ;");
        assert!(matches!(out, Outcome::Proved { .. }), "{out:?}");
    }
}
