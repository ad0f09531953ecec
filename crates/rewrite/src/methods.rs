//! Constraint evaluation and method calls.
//!
//! Rule *constraints* are additional boolean conditions bearing on the
//! matched arguments; rule *methods* are external functions (paper:
//! "programmed in C", here Rust closures) that compute derived bindings
//! used in the right term — e.g. `SUBSTITUTE(f, z, f')` binds `f'`.
//! Both are dispatched through a [`MethodRegistry`], and value-level
//! computation is delegated to the ADT [`FunctionRegistry`] so that "all
//! functions including the constraints should be written using known ADT
//! functions" (Section 4.1).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use eds_adt::{EvalContext, FunctionRegistry, ObjectStore, Type, TypeRegistry, Value};

use crate::error::{RewriteError, RwResult};
use crate::symbol::{well_known, Symbol};
use crate::term::{Bindings, Term};

/// Environment a rewrite session runs in: value-level functions, objects,
/// types, and optional schema knowledge contributed by the algebra layer.
pub trait TermEnv {
    /// ADT function registry used to evaluate ground function terms.
    fn functions(&self) -> &FunctionRegistry;
    /// Object store (for `VALUE` in constant folding).
    fn objects(&self) -> &ObjectStore;
    /// Type registry (for `ISA`).
    fn types(&self) -> &TypeRegistry;
    /// Attribute types of a relation-valued term, when the environment
    /// can infer them. Needed by `SCHEMA`, `SPLITNEST` and the semantic
    /// rules.
    fn rel_schema(&self, _term: &Term) -> Option<Vec<Type>> {
        None
    }
    /// Output arity (attribute count) of a relation-valued term, when the
    /// environment can infer it. Needed by `SUBSTITUTE`/`SCHEMA`.
    fn rel_arity(&self, term: &Term) -> Option<usize> {
        self.rel_schema(term).map(|s| s.len())
    }
    /// Static type of a scalar term, when derivable (drives `ISA` on
    /// non-constant terms).
    fn term_type(&self, _term: &Term) -> Option<Type> {
        None
    }
    /// Integrity-constraint templates applicable to a value of type `ty`:
    /// predicates over the variable `x` declared by the database
    /// administrator (Figure 10). Subclass substitution (Figure 11) falls
    /// out of the `ISA` check used to collect them.
    fn constraints_for(&self, _ty: &Type) -> Vec<Term> {
        Vec::new()
    }
}

/// Is this term a *constant* in the sense of the `ISA(x, constant)` rule
/// constraints of Figure 12: a literal, or a collection/tuple constructor
/// applied to constants?
pub fn is_constant_term(t: &Term) -> bool {
    match t {
        Term::Const(_) => true,
        Term::App(h, args) => {
            matches!(
                h.as_str(),
                "SET"
                    | "BAG"
                    | "LIST"
                    | "TUPLE"
                    | "TRUE"
                    | "FALSE"
                    | "NULL"
                    | "MAKESET"
                    | "MAKEBAG"
                    | "MAKELIST"
            ) && args.iter().all(is_constant_term)
        }
        _ => false,
    }
}

/// Conservative static non-NULL analysis backing the built-in `NOTNULL`
/// guard: true only for terms that provably cannot evaluate to NULL —
/// non-NULL literals, the boolean atoms, and arithmetic all of whose
/// operands are themselves statically non-NULL. Variables, attribute
/// references and anything else return false.
pub fn statically_not_null(t: &Term) -> bool {
    match t {
        Term::Const(v) => !matches!(v, Value::Null),
        Term::App(h, args) => match (h.as_str(), args.len()) {
            ("TRUE" | "FALSE", 0) => true,
            ("-", 1) => statically_not_null(&args[0]),
            ("+" | "-" | "*", 2) => args.iter().all(statically_not_null),
            _ => false,
        },
        _ => false,
    }
}

/// A self-contained environment for tests and standalone use.
#[derive(Debug, Default)]
pub struct BasicEnv {
    /// Function registry (pre-loaded with built-ins).
    pub functions: FunctionRegistry,
    /// Object store.
    pub objects: ObjectStore,
    /// Type registry.
    pub types: TypeRegistry,
}

impl BasicEnv {
    /// Environment with built-in functions and empty stores.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TermEnv for BasicEnv {
    fn functions(&self) -> &FunctionRegistry {
        &self.functions
    }
    fn objects(&self) -> &ObjectStore {
        &self.objects
    }
    fn types(&self) -> &TypeRegistry {
        &self.types
    }
}

/// Resolve a term under bindings: ordinary variables are replaced by their
/// bindings, sequence variables inside collection constructors are
/// spliced. A bare sequence variable resolves to a `LIST` of its segment
/// (so constraints like `MEMBER(y, x*)` can treat segments as lists).
pub fn resolve(term: &Term, binds: &Bindings) -> Term {
    match term {
        Term::SeqVar(v) => match binds.get_seq(v) {
            Some(seg) => Term::list(seg.to_vec()),
            None => term.clone(),
        },
        other => binds.apply(other),
    }
}

/// A method implementation. Receives the call's argument terms *resolved
/// under the current bindings where possible* (output variables stay as
/// `Term::Var`), and may extend the bindings. Returning `Ok(false)` means
/// "the method does not apply here" and vetoes the rule application.
pub type MethodFn =
    Arc<dyn Fn(&[Term], &mut Bindings, &dyn TermEnv) -> RwResult<bool> + Send + Sync>;

/// Declared shape of a method: how many arguments it takes and which
/// argument positions (0-based) it *binds* rather than reads. The static
/// analyzer ([`crate::analyze`]) uses signatures to check calls at rule
/// registration; methods registered without one are checked for existence
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodSig {
    /// Exact argument count.
    pub arity: usize,
    /// 0-based output positions among the arguments.
    pub outputs: &'static [usize],
}

impl MethodSig {
    /// Signature with `arity` arguments, all of them inputs (a predicate).
    pub const fn predicate(arity: usize) -> Self {
        MethodSig {
            arity,
            outputs: &[],
        }
    }

    /// Is `idx` an output position?
    pub fn is_output(&self, idx: usize) -> bool {
        self.outputs.contains(&idx)
    }
}

/// Registry of methods usable in rule constraints and conclusions.
#[derive(Clone, Default)]
pub struct MethodRegistry {
    methods: HashMap<String, MethodFn>,
    sigs: HashMap<String, MethodSig>,
}

impl std::fmt::Debug for MethodRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&String> = self.methods.keys().collect();
        names.sort();
        f.debug_struct("MethodRegistry")
            .field("methods", &names)
            .finish()
    }
}

impl MethodRegistry {
    /// Registry pre-loaded with the generic built-in methods —
    /// `EVALUATE` (constant folding) and `NOTNULL` (static non-NULL
    /// guard); `REFER`-style helpers are algebra-specific and are
    /// registered by the optimizer crate.
    pub fn with_builtins() -> Self {
        let mut reg = Self::default();
        reg.register_with_sig(
            "EVALUATE",
            MethodSig {
                arity: 2,
                outputs: &[1],
            },
            |args, binds, env| {
                // EVALUATE(expr, out): constant-fold a ground expression.
                if args.len() != 2 {
                    return Err(RewriteError::MethodFailed {
                        method: "EVALUATE".into(),
                        message: format!("expected 2 arguments, got {}", args.len()),
                    });
                }
                let expr = resolve(&args[0], binds);
                if !expr.is_ground() {
                    return Ok(false);
                }
                let value = match eval_value(&expr, binds, env) {
                    Ok(v) => v,
                    Err(_) => return Ok(false),
                };
                bind_output(&args[1], Term::Const(value), binds, "EVALUATE")
            },
        );
        reg.register_with_sig("NOTNULL", MethodSig::predicate(1), |args, binds, _env| {
            // NOTNULL(x): admit the rule only when the resolved
            // argument is *statically* non-NULL. Anything the
            // analysis cannot decide declines the application — the
            // guard errs toward vetoing, never toward unsoundness.
            if args.len() != 1 {
                return Err(RewriteError::MethodFailed {
                    method: "NOTNULL".into(),
                    message: format!("expected 1 argument, got {}", args.len()),
                });
            }
            Ok(statically_not_null(&resolve(&args[0], binds)))
        });
        reg
    }

    /// Register (or replace) a method without a declared signature: the
    /// analyzer then only checks that calls resolve by name.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&[Term], &mut Bindings, &dyn TermEnv) -> RwResult<bool> + Send + Sync + 'static,
    ) {
        let key = name.to_ascii_uppercase();
        self.sigs.remove(&key);
        self.methods.insert(key, Arc::new(f));
    }

    /// Register (or replace) a method together with its signature, making
    /// calls to it fully checkable at rule-registration time.
    pub fn register_with_sig(
        &mut self,
        name: &str,
        sig: MethodSig,
        f: impl Fn(&[Term], &mut Bindings, &dyn TermEnv) -> RwResult<bool> + Send + Sync + 'static,
    ) {
        let key = name.to_ascii_uppercase();
        self.sigs.insert(key.clone(), sig);
        self.methods.insert(key, Arc::new(f));
    }

    /// Whether `name` is a registered method.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The declared signature of `name`, when one was registered.
    pub fn signature(&self, name: &str) -> Option<MethodSig> {
        self.sigs.get(lookup_key(name).as_ref()).copied()
    }

    /// The implementation registered under `name`, if any.
    fn get(&self, name: &str) -> Option<&MethodFn> {
        self.methods.get(lookup_key(name).as_ref())
    }

    /// Invoke a method.
    pub fn call(
        &self,
        name: &str,
        args: &[Term],
        binds: &mut Bindings,
        env: &dyn TermEnv,
    ) -> RwResult<bool> {
        let f = self
            .get(name)
            .ok_or_else(|| RewriteError::UnknownMethod(name.to_owned()))?;
        f(args, binds, env)
    }
}

/// Names are registered upper-cased and matched case-insensitively. Rule
/// sources spell method names in upper case, so the lookup borrows the
/// name as written and only allocates for a name with lower-case letters.
fn lookup_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_lowercase()) {
        Cow::Owned(name.to_ascii_uppercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Failed constraint-position method calls of one rewrite run.
///
/// A method is pure in its arguments resolved under the bindings and in
/// the environment, and the environment does not change during a run, so
/// a call that returned `Ok(false)` once returns it again: a repeat —
/// the same method on the same resolved arguments, from a later rescan,
/// block or exploration candidate — is answered here without running the
/// method. Only failures are kept; a success binds outputs and is rerun.
/// The strategy kernel owns one memo per run and drops it when the run
/// ends; standalone callers pass a fresh `MethodMemo::default()`.
#[derive(Debug, Default)]
pub struct MethodMemo {
    failed: HashSet<(Symbol, Vec<Term>)>,
}

impl MethodMemo {
    /// Call `f` (registered as `name`) unless the same call already failed
    /// in this run.
    fn call(
        &mut self,
        name: Symbol,
        f: &MethodFn,
        args: &[Term],
        binds: &mut Bindings,
        env: &dyn TermEnv,
    ) -> RwResult<bool> {
        let key = (name, args.iter().map(|a| resolve(a, binds)).collect());
        if self.failed.contains(&key) {
            return Ok(false);
        }
        let applies = f(args, binds, env)?;
        if !applies {
            // A failing call leaves the bindings as it found them (a
            // multi-output method may have bound some outputs before it
            // failed), so an answer from the memo is indistinguishable
            // from running the method. An argument that resolved to
            // itself was an unbound variable before the call.
            for (arg, resolved) in args.iter().zip(&key.1) {
                if let (Term::Var(v), Term::Var(r)) = (arg, resolved) {
                    if v == r {
                        binds.remove(*v);
                    }
                }
            }
            self.failed.insert(key);
        }
        Ok(applies)
    }
}

/// Bind a method output argument: it must be an unbound variable (or the
/// exact same term, making the method a check).
pub fn bind_output(arg: &Term, value: Term, binds: &mut Bindings, method: &str) -> RwResult<bool> {
    match arg {
        Term::Var(v) => {
            if let Some(existing) = binds.get(v) {
                Ok(existing == &value)
            } else {
                binds.bind(*v, value);
                Ok(true)
            }
        }
        other => {
            let resolved = resolve(other, binds);
            if resolved == value {
                Ok(true)
            } else {
                Err(RewriteError::MethodFailed {
                    method: method.to_owned(),
                    message: format!("output position holds non-variable term {other}"),
                })
            }
        }
    }
}

/// Evaluate a ground scalar term to a [`Value`]: constants evaluate to
/// themselves, `AND`/`OR`/`NOT` use three-valued logic, comparisons use
/// SQL semantics, everything else dispatches to the ADT function registry.
pub fn eval_value(term: &Term, binds: &Bindings, env: &dyn TermEnv) -> RwResult<Value> {
    let term = resolve(term, binds);
    eval_resolved(&term, env)
}

fn eval_resolved(term: &Term, env: &dyn TermEnv) -> RwResult<Value> {
    match term {
        Term::Const(v) => Ok(v.clone()),
        Term::Var(v) => Err(RewriteError::UnboundVariable(v.to_string())),
        Term::SeqVar(v) => Err(RewriteError::UnboundVariable(format!("{v}*"))),
        Term::App(head, args) => match (head.as_str(), args.as_slice()) {
            ("TRUE", []) => Ok(Value::Bool(true)),
            ("FALSE", []) => Ok(Value::Bool(false)),
            ("NULL", []) => Ok(Value::Null),
            // A statement parameter has no value until bind time. Reported
            // as an unbound variable so conditions that inspect it are
            // *unsatisfied* (the rule defers to bind time) rather than hard
            // errors — the parameter-independence gate of the prepared-
            // statement pipeline.
            ("PARAM", [_]) => Err(RewriteError::UnboundVariable("?".into())),
            ("AND", [a, b]) => {
                let va = eval_resolved(a, env)?;
                let vb = eval_resolved(b, env)?;
                Ok(three_valued_and(va, vb))
            }
            ("OR", [a, b]) => {
                let va = eval_resolved(a, env)?;
                let vb = eval_resolved(b, env)?;
                Ok(three_valued_or(va, vb))
            }
            ("NOT", [a]) => match eval_resolved(a, env)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(RewriteError::NonBooleanConstraint(other.to_string())),
            },
            ("=" | "<" | ">" | "<=" | ">=" | "<>", [a, b]) => {
                let va = eval_resolved(a, env)?;
                let vb = eval_resolved(b, env)?;
                Ok(eval_cmp(head.as_str(), &va, &vb))
            }
            // Collection constructors evaluate their elements.
            ("LIST", elems) => Ok(Value::list(eval_all(elems, env)?)),
            ("SET", elems) => Ok(Value::set(eval_all(elems, env)?)),
            ("BAG", elems) => Ok(Value::bag(eval_all(elems, env)?)),
            ("TUPLE", elems) => Ok(Value::Tuple(eval_all(elems, env)?)),
            (name, args) => {
                let values = eval_all(args, env)?;
                let ctx = EvalContext {
                    objects: env.objects(),
                    types: env.types(),
                };
                env.functions()
                    .call(name, &values, &ctx)
                    .map_err(Into::into)
            }
        },
    }
}

fn eval_all(terms: &[Term], env: &dyn TermEnv) -> RwResult<Vec<Value>> {
    terms.iter().map(|t| eval_resolved(t, env)).collect()
}

/// SQL comparison returning NULL on NULL inputs.
pub fn eval_cmp(op: &str, a: &Value, b: &Value) -> Value {
    match a.sql_cmp(b) {
        None => Value::Null,
        Some(ord) => {
            let res = match op {
                "=" => ord.is_eq(),
                "<" => ord.is_lt(),
                ">" => ord.is_gt(),
                "<=" => ord.is_le(),
                ">=" => ord.is_ge(),
                "<>" => ord.is_ne(),
                _ => unreachable!("non-comparison operator {op}"),
            };
            Value::Bool(res)
        }
    }
}

fn three_valued_and(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

fn three_valued_or(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Evaluate a rule constraint to a boolean.
///
/// Special forms handled structurally (before value evaluation):
/// * `ISA(t, spec)` — `spec` may be the atom `constant` (syntactic check:
///   is `t` a literal?), a collection-kind atom, or a registered type
///   name; non-constant terms consult [`TermEnv::term_type`];
/// * `MEMBER(t, x*)` — membership of a *term* in a bound segment;
/// * `=`/`<>` between non-value terms — structural term equality;
/// * registered methods usable as boolean predicates (e.g. `REFER`).
///
/// Everything else is evaluated as a value expression which must yield a
/// boolean (NULL counts as not satisfied).
///
/// Method calls that fail are recorded in `memo`, and calls it already
/// holds are answered from it (see [`MethodMemo`]).
pub fn eval_constraint(
    constraint: &Term,
    binds: &mut Bindings,
    methods: &MethodRegistry,
    env: &dyn TermEnv,
    memo: &mut MethodMemo,
) -> RwResult<bool> {
    if let Some((head_sym, args)) = constraint.as_app_sym() {
        let head = head_sym.as_str();
        match (head, args.len()) {
            ("AND", 2) => {
                return Ok(eval_constraint(&args[0], binds, methods, env, memo)?
                    && eval_constraint(&args[1], binds, methods, env, memo)?);
            }
            ("OR", 2) => {
                return Ok(eval_constraint(&args[0], binds, methods, env, memo)?
                    || eval_constraint(&args[1], binds, methods, env, memo)?);
            }
            ("NOT", 1) => {
                return Ok(!eval_constraint(&args[0], binds, methods, env, memo)?);
            }
            ("TRUE", 0) => return Ok(true),
            ("FALSE", 0) => return Ok(false),
            ("ISA", 2) => return eval_isa(&args[0], &args[1], binds, env),
            ("ISEMPTY", 1) => {
                // Structural emptiness of a segment or collection term
                // (needed before value evaluation, whose elements may be
                // relation atoms).
                let t = resolve(&args[0], binds);
                if let Some((h, elems)) = t.as_app() {
                    if Term::is_collection_ctor(h) {
                        return Ok(elems.is_empty());
                    }
                }
            }
            ("MEMBER", 2) => {
                // Term-level membership when the second argument is a
                // segment or a non-ground collection term.
                let needle = resolve(&args[0], binds);
                let hay = resolve(&args[1], binds);
                if let Some((h, elems)) = hay.as_app() {
                    if Term::is_collection_ctor(h) {
                        return Ok(elems.contains(&needle));
                    }
                }
                // Fall through to value evaluation below.
            }
            ("=" | "<>", 2) => {
                let l = resolve(&args[0], binds);
                let r = resolve(&args[1], binds);
                let both_values = l.as_const().is_some() && r.as_const().is_some();
                if !both_values && (l.is_ground() || r.is_ground()) {
                    // Structural comparison of terms (e.g. `f = TRUE`
                    // compares the bound formula with the TRUE atom).
                    let eq = l == r || term_is_truth(&l, &r);
                    return Ok(if head == "=" { eq } else { !eq });
                }
            }
            _ => {
                if let Some(f) = methods.get(head) {
                    return memo.call(head_sym, f, args, binds, env);
                }
            }
        }
    }
    match eval_value(constraint, binds, env) {
        Ok(Value::Bool(b)) => Ok(b),
        Ok(Value::Null) => Ok(false),
        Ok(other) => Err(RewriteError::NonBooleanConstraint(other.to_string())),
        Err(RewriteError::UnboundVariable(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// `f = TRUE` must accept both the `TRUE` atom and the boolean constant.
fn term_is_truth(l: &Term, r: &Term) -> bool {
    let truthy = |t: &Term| t.is_app("TRUE") || t.as_const() == Some(&Value::Bool(true));
    let falsy = |t: &Term| t.is_app("FALSE") || t.as_const() == Some(&Value::Bool(false));
    (truthy(l) && truthy(r)) || (falsy(l) && falsy(r))
}

fn eval_isa(
    subject: &Term,
    spec: &Term,
    binds: &mut Bindings,
    env: &dyn TermEnv,
) -> RwResult<bool> {
    let subject = resolve(subject, binds);
    let spec_name = match spec {
        Term::App(h, args) if args.is_empty() => h.as_str().to_owned(),
        // Lower-case specification names (like `constant` in Figure 12)
        // lex as variables; an unbound variable in specification
        // position is read as the name itself.
        Term::Var(v) => match binds.get(v) {
            Some(Term::App(h, a)) if a.is_empty() => h.as_str().to_owned(),
            None => v.as_str().to_owned(),
            _ => return Ok(false),
        },
        Term::Const(Value::Str(s)) => s.clone(),
        _ => return Ok(false),
    };

    // Syntactic specification: ISA(x, constant).
    if spec_name.eq_ignore_ascii_case("constant") {
        return Ok(is_constant_term(&subject));
    }

    let target = parse_type_spec(&spec_name, env.types());
    match &subject {
        Term::Const(v) => {
            let types = env.types();
            let objects = env.objects();
            Ok(types.value_isa(v, &target, &|oid| {
                objects.type_of(eds_adt::Oid(oid)).ok().map(str::to_owned)
            }))
        }
        other => match env.term_type(other) {
            Some(ty) => Ok(env.types().isa(&ty, &target)),
            None => Ok(false),
        },
    }
}

/// Interpret a type-specification atom: a collection-kind keyword, a
/// scalar keyword, or a registered named type.
pub fn parse_type_spec(name: &str, _types: &TypeRegistry) -> Type {
    match name.to_ascii_uppercase().as_str() {
        "BOOL" => Type::Bool,
        "INT" | "INTEGER" => Type::Int,
        "REAL" => Type::Real,
        "NUMERIC" => Type::Numeric,
        "CHAR" | "STRING" => Type::Char,
        "SET" => Type::Coll(eds_adt::CollKind::Set, Box::new(Type::Any)),
        "BAG" => Type::Coll(eds_adt::CollKind::Bag, Box::new(Type::Any)),
        "LIST" => Type::Coll(eds_adt::CollKind::List, Box::new(Type::Any)),
        "ARRAY" => Type::Coll(eds_adt::CollKind::Array, Box::new(Type::Any)),
        "COLLECTION" => Type::AnyColl(Box::new(Type::Any)),
        _ => Type::Named(name.to_owned()),
    }
}

/// Normalize optimizer built-in *term functions* appearing in rule
/// right-hand sides: `APPEND(...)` concatenates list-valued arguments into
/// a `LIST`, `SET_UNION(...)` unions set-valued arguments into a `SET`.
/// Non-collection arguments contribute themselves. Applied bottom-up after
/// substitution; a subtree whose fingerprint rules out all three functors
/// is returned as a shared clone instead of being rebuilt.
pub fn normalize_builtins(term: &Term) -> Term {
    let builtins = well_known::append().fp_bit()
        | well_known::set_union().fp_bit()
        | well_known::setunion().fp_bit();
    if term.fingerprint() & builtins == 0 {
        return term.clone();
    }
    match term {
        Term::App(head, args) => {
            let args: Vec<Term> = args.iter().map(normalize_builtins).collect();
            match head.as_str() {
                "APPEND" if args.iter().any(|a| a.is_app("LIST")) => {
                    Term::list(flatten(&args, "LIST"))
                }
                "SET_UNION" | "SETUNION" => Term::set(flatten(&args, "SET")),
                _ => Term::App(*head, args.into()),
            }
        }
        other => other.clone(),
    }
}

fn flatten(args: &[Term], ctor: &str) -> Vec<Term> {
    let mut out = Vec::new();
    for a in args {
        match a.as_app() {
            Some((h, elems)) if h == ctor => out.extend(elems.iter().cloned()),
            _ => out.push(a.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> BasicEnv {
        BasicEnv::new()
    }

    /// A constraint evaluated on its own, with a fresh memo.
    fn check(
        c: &Term,
        binds: &mut Bindings,
        methods: &MethodRegistry,
        e: &BasicEnv,
    ) -> RwResult<bool> {
        eval_constraint(c, binds, methods, e, &mut MethodMemo::default())
    }

    #[test]
    fn eval_ground_arithmetic() {
        let e = env();
        let t = Term::app("+", vec![Term::int(2), Term::int(3)]);
        assert_eq!(eval_value(&t, &Bindings::new(), &e).unwrap(), Value::Int(5));
    }

    #[test]
    fn eval_member_value_level() {
        let e = env();
        let t = Term::app(
            "MEMBER",
            vec![
                Term::str("Adventure"),
                Term::set(vec![Term::str("Comedy"), Term::str("Adventure")]),
            ],
        );
        assert_eq!(
            eval_value(&t, &Bindings::new(), &e).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn constraint_member_on_segment() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("y", Term::atom("B"));
        binds.bind_seq("x", vec![Term::atom("A"), Term::atom("B")]);
        let c = Term::app("MEMBER", vec![Term::var("y"), Term::seq("x")]);
        assert!(check(&c, &mut binds, &methods, &e).unwrap());
        binds.bind("y", Term::atom("Z"));
        assert!(!check(&c, &mut binds, &methods, &e).unwrap());
    }

    #[test]
    fn constraint_formula_equals_true_atom() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("f", Term::bool(true));
        let c = Term::app("=", vec![Term::var("f"), Term::atom("TRUE")]);
        assert!(check(&c, &mut binds, &methods, &e).unwrap());
        binds.bind("f", Term::app("=", vec![Term::attr(1, 1), Term::int(5)]));
        assert!(!check(&c, &mut binds, &methods, &e).unwrap());
    }

    #[test]
    fn isa_constant_is_syntactic() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("x", Term::int(3));
        binds.bind("y", Term::attr(1, 1));
        let c_x = Term::app("ISA", vec![Term::var("x"), Term::atom("constant")]);
        let c_y = Term::app("ISA", vec![Term::var("y"), Term::atom("constant")]);
        assert!(check(&c_x, &mut binds, &methods, &e).unwrap());
        assert!(!check(&c_y, &mut binds, &methods, &e).unwrap());
    }

    #[test]
    fn isa_value_against_scalar_types() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("x", Term::int(3));
        let c = Term::app("ISA", vec![Term::var("x"), Term::atom("NUMERIC")]);
        assert!(check(&c, &mut binds, &methods, &e).unwrap());
        let c2 = Term::app("ISA", vec![Term::var("x"), Term::atom("CHAR")]);
        assert!(!check(&c2, &mut binds, &methods, &e).unwrap());
    }

    #[test]
    fn evaluate_method_folds_constants() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("x", Term::int(6));
        binds.bind("y", Term::int(7));
        let args = vec![
            Term::app("*", vec![Term::var("x"), Term::var("y")]),
            Term::var("a"),
        ];
        assert!(methods.call("EVALUATE", &args, &mut binds, &e).unwrap());
        assert_eq!(binds.get("a"), Some(&Term::Const(Value::Int(42))));
    }

    #[test]
    fn evaluate_method_rejects_non_ground() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        let args = vec![
            Term::app("*", vec![Term::var("x"), Term::int(2)]),
            Term::var("a"),
        ];
        assert!(!methods.call("EVALUATE", &args, &mut binds, &e).unwrap());
        assert!(binds.get("a").is_none());
    }

    #[test]
    fn normalize_append_and_set_union() {
        // append(x*, v*, z) after substitution: APPEND(A, B, LIST(C)) and
        // set_union(x*, z): SET_UNION(R, SET(S, T)).
        let t = Term::app(
            "APPEND",
            vec![
                Term::atom("A"),
                Term::atom("B"),
                Term::list(vec![Term::atom("C")]),
            ],
        );
        assert_eq!(
            normalize_builtins(&t),
            Term::list(vec![Term::atom("A"), Term::atom("B"), Term::atom("C")])
        );
        let u = Term::app(
            "SET_UNION",
            vec![
                Term::atom("R"),
                Term::set(vec![Term::atom("S"), Term::atom("T")]),
            ],
        );
        assert_eq!(
            normalize_builtins(&u),
            Term::set(vec![Term::atom("R"), Term::atom("S"), Term::atom("T")])
        );
    }

    #[test]
    fn three_valued_connectives() {
        let e = env();
        let and_null = Term::app("AND", vec![Term::atom("TRUE"), Term::atom("NULL")]);
        assert_eq!(
            eval_value(&and_null, &Bindings::new(), &e).unwrap(),
            Value::Null
        );
        let and_false = Term::app("AND", vec![Term::atom("NULL"), Term::atom("FALSE")]);
        assert_eq!(
            eval_value(&and_false, &Bindings::new(), &e).unwrap(),
            Value::Bool(false)
        );
        let or_true = Term::app("OR", vec![Term::atom("NULL"), Term::atom("TRUE")]);
        assert_eq!(
            eval_value(&or_true, &Bindings::new(), &e).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn method_names_match_case_insensitively() {
        let e = env();
        let mut methods = MethodRegistry::with_builtins();
        methods.register("Twice", |_, _, _| Ok(true));
        assert!(methods.contains("TWICE") && methods.contains("twice"));
        assert!(methods.contains("notnull"));
        assert_eq!(methods.signature("Evaluate"), methods.signature("EVALUATE"));
        assert!(methods.signature("EVALUATE").is_some());
        assert!(methods
            .call("tWiCe", &[], &mut Bindings::new(), &e)
            .unwrap());
    }

    #[test]
    fn unknown_method_errors() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        let err = methods.call("ALEXANDER", &[], &mut binds, &e).unwrap_err();
        assert_eq!(err, RewriteError::UnknownMethod("ALEXANDER".into()));
    }

    #[test]
    fn comparison_chain() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        binds.bind("x", Term::int(5));
        binds.bind("y", Term::int(9));
        let c = Term::app("<", vec![Term::var("x"), Term::var("y")]);
        assert!(check(&c, &mut binds, &methods, &e).unwrap());
        let c2 = Term::app(">=", vec![Term::var("x"), Term::var("y")]);
        assert!(!check(&c2, &mut binds, &methods, &e).unwrap());
    }

    #[test]
    fn param_leaf_defers_value_conditions() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        let param = Term::app("PARAM", vec![Term::int(0)]);
        // ISA(x, constant) is false: a parameter is not a constant.
        binds.bind("x", param.clone());
        let isa = Term::app("ISA", vec![Term::var("x"), Term::atom("constant")]);
        assert!(!check(&isa, &mut binds, &methods, &e).unwrap());
        // A value comparison against a parameter is unsatisfied, not an
        // error — the rule defers to bind time.
        let cmp = Term::app("<", vec![Term::var("x"), Term::int(10)]);
        assert!(!check(&cmp, &mut binds, &methods, &e).unwrap());
        // EVALUATE refuses to fold an expression containing a parameter.
        let args = vec![
            Term::app("+", vec![param, Term::int(1)]),
            Term::var("folded"),
        ];
        assert!(!methods.call("EVALUATE", &args, &mut binds, &e).unwrap());
        assert!(binds.get("folded").is_none());
    }

    #[test]
    fn memo_answers_repeated_failures_and_restores_bindings() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // PAIR(x, a, b) binds `a` and then fails unless x is 1; it counts
        // its calls so the test sees which ones the memo answered.
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let mut methods = MethodRegistry::with_builtins();
        methods.register("PAIR", move |args, binds, _env| {
            counter.fetch_add(1, Ordering::Relaxed);
            bind_output(&args[1], Term::int(7), binds, "PAIR")?;
            let x = resolve(&args[0], binds);
            bind_output(&args[2], x.clone(), binds, "PAIR")?;
            Ok(x == Term::int(1))
        });
        let e = env();
        let c = Term::app("PAIR", vec![Term::var("x"), Term::var("a"), Term::var("b")]);
        let mut memo = MethodMemo::default();
        let mut binds = Bindings::new();
        binds.bind("x", Term::int(2));
        assert!(!eval_constraint(&c, &mut binds, &methods, &e, &mut memo).unwrap());
        assert!(!binds.contains("a") && !binds.contains("b"));
        assert!(!eval_constraint(&c, &mut binds, &methods, &e, &mut memo).unwrap());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "repeat answered by the memo"
        );
        // Other resolved arguments are a different call.
        binds.bind("x", Term::int(1));
        assert!(eval_constraint(&c, &mut binds, &methods, &e, &mut memo).unwrap());
        assert_eq!(binds.get("a"), Some(&Term::int(7)));
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn unbound_variable_constraint_is_unsatisfied() {
        let e = env();
        let methods = MethodRegistry::with_builtins();
        let mut binds = Bindings::new();
        let c = Term::app("<", vec![Term::var("nope"), Term::int(1)]);
        assert!(!check(&c, &mut binds, &methods, &e).unwrap());
    }
}
