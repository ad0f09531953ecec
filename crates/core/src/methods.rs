//! The optimizer's built-in method library.
//!
//! Methods are the external functions rule conclusions call to compute
//! derived bindings (Section 4.1: "these methods can be defined by the
//! database implementor as methods of specific ADTs"; here they are Rust
//! closures registered in the [`MethodRegistry`]).
//!
//! | Method | Role | Used by |
//! |---|---|---|
//! | `SUBSTITUTE(t, x*, z, b, t')` | remap outer attribute refs across a merged search | search merging (Fig 7) |
//! | `SHIFT(t, x*, t')` | shift relation indices of an inlined qualification | search merging (Fig 7) |
//! | `SCHEMA(z, e')` | identity projection list for a relation term | nest pushing (Fig 8) |
//! | `SPLITNEST(f, x*, a, b, fi, fo)` | split a qualification at a nest boundary | nest pushing (Fig 8) |
//! | `ADORNMENT(x*, r, f, s)` | compute the binding signature of a fixpoint | Alexander (Fig 9) |
//! | `ALEXANDER(r, e, x*, f, s, u, f')` | push selection into the fixpoint | Alexander (Fig 9) |
//! | `ADDCONSTRAINTS(l, f, f')` | conjoin applicable integrity constraints | semantic rules (Fig 10/11) |
//! | `TRANSITIVITY(f, f')` | transitivity of `=` and `INCLUDE` | implicit knowledge (Fig 11) |
//! | `EQSUBST(f, f')` | equality substitution of constants | implicit knowledge (Fig 11) |
//! | `SIMPLIFYQ(f, f')` | conjunct-level simplification and inconsistency detection | simplification (Fig 12) |

use eds_adt::Value;
use eds_rewrite::methods::{bind_output, resolve, MethodSig};
use eds_rewrite::{Bindings, MethodRegistry, RewriteError, RwResult, Term, TermEnv};

use crate::magic;

/// Split a qualification term into its conjuncts.
pub fn flatten_and(t: &Term) -> Vec<Term> {
    match t.as_app() {
        Some(("AND", [a, b])) => {
            let mut out = flatten_and(a);
            out.extend(flatten_and(b));
            out
        }
        _ => vec![t.clone()],
    }
}

/// Rebuild a conjunction (TRUE for no conjuncts).
pub fn build_and(mut conjuncts: Vec<Term>) -> Term {
    match conjuncts.len() {
        0 => Term::bool(true),
        1 => conjuncts.remove(0),
        _ => {
            let first = conjuncts.remove(0);
            conjuncts
                .into_iter()
                .fold(first, |acc, c| Term::app("AND", vec![acc, c]))
        }
    }
}

/// Map every `ATTR(rel, attr)` node through `f`.
pub fn map_attr_refs(t: &Term, f: &impl Fn(i64, i64) -> Term) -> Term {
    if let Some((rel, attr)) = t.as_attr() {
        return f(rel, attr);
    }
    match t {
        Term::App(h, args) => Term::App(*h, args.iter().map(|a| map_attr_refs(a, f)).collect()),
        other => other.clone(),
    }
}

/// Collect every `(rel, attr)` reference.
pub fn collect_attr_refs(t: &Term) -> Vec<(i64, i64)> {
    let mut out = Vec::new();
    fn walk(t: &Term, out: &mut Vec<(i64, i64)>) {
        if let Some(ra) = t.as_attr() {
            out.push(ra);
            return;
        }
        if let Term::App(_, args) = t {
            args.iter().for_each(|a| walk(a, out));
        }
    }
    walk(t, &mut out);
    out
}

/// Shift all relation indices by `delta`.
pub fn shift_rels(t: &Term, delta: i64) -> Term {
    map_attr_refs(t, &|rel, attr| Term::attr(rel + delta, attr))
}

/// Resolve an argument that should denote a list: a bound collection
/// variable segment or a `LIST` term.
fn resolve_list(arg: &Term, binds: &Bindings) -> Option<Vec<Term>> {
    let r = resolve(arg, binds);
    match r.as_app() {
        Some(("LIST", items)) => Some(items.to_vec()),
        _ => None,
    }
}

fn method_err(method: &str, message: impl Into<String>) -> RewriteError {
    RewriteError::MethodFailed {
        method: method.to_owned(),
        message: message.into(),
    }
}

/// Register every optimizer method into a registry, with its declared
/// signature (argument count and 0-based output positions) so rule
/// registration can statically check every call site.
pub fn register_core_methods(reg: &mut MethodRegistry) {
    let sig = |arity, outputs| MethodSig { arity, outputs };
    reg.register_with_sig("SUBSTITUTE", sig(5, &[4]), substitute);
    reg.register_with_sig("SHIFT", sig(3, &[2]), shift);
    reg.register_with_sig("SCHEMA", sig(2, &[1]), schema);
    reg.register_with_sig("SPLITNEST", sig(6, &[4, 5]), splitnest);
    reg.register_with_sig("ADORNMENT", sig(4, &[3]), adornment);
    reg.register_with_sig("ALEXANDER", sig(7, &[5, 6]), alexander);
    reg.register_with_sig("ADDCONSTRAINTS", sig(3, &[2]), addconstraints);
    reg.register_with_sig("TRANSITIVITY", sig(2, &[1]), transitivity);
    reg.register_with_sig("EQSUBST", sig(2, &[1]), eqsubst);
    reg.register_with_sig("SIMPLIFYQ", sig(2, &[1]), simplifyq);
    reg.register_with_sig("REFER", MethodSig::predicate(2), refer);
}

// ------------------------------------------------------- search merging

/// `SUBSTITUTE(t, x*, z, b, t')`: `t` is a qualification or projection
/// list of the *outer* search whose input list was `(x*, SEARCH(z, g, b),
/// v*)`; after merging, the inner inputs `z` are spliced in place of the
/// inner search. References `rel <= k` (into `x*`) are unchanged;
/// `rel == k+1` (the inner search's output) inline the inner projection
/// expression shifted by `k`; `rel > k+1` shift by `|z| - 1`.
fn substitute(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 5 {
        return Err(method_err("SUBSTITUTE", "expected 5 arguments"));
    }
    let t = resolve(&args[0], binds);
    let xs = resolve_list(&args[1], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "x* must resolve to a list"))?;
    let z = resolve_list(&args[2], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "z must resolve to a list"))?;
    let b = resolve_list(&args[3], binds)
        .ok_or_else(|| method_err("SUBSTITUTE", "b must resolve to a list"))?;
    let k = xs.len() as i64;
    let m = z.len() as i64;

    // Reject out-of-range references into the inner projection.
    if collect_attr_refs(&t)
        .iter()
        .any(|&(rel, attr)| rel == k + 1 && (attr < 1 || attr as usize > b.len()))
    {
        return Ok(false);
    }
    let new = map_attr_refs(&t, &|rel, attr| {
        if rel <= k {
            Term::attr(rel, attr)
        } else if rel == k + 1 {
            shift_rels(&b[(attr - 1) as usize], k)
        } else {
            Term::attr(rel + m - 1, attr)
        }
    });
    bind_output(&args[4], new, binds, "SUBSTITUTE")
}

/// `SHIFT(t, x*, t')`: shift every relation index in `t` by the length
/// of the segment `x*` (used to renumber the inner qualification when it
/// is spliced behind `x*`).
fn shift(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 3 {
        return Err(method_err("SHIFT", "expected 3 arguments"));
    }
    let t = resolve(&args[0], binds);
    let xs = resolve_list(&args[1], binds)
        .ok_or_else(|| method_err("SHIFT", "x* must resolve to a list"))?;
    bind_output(&args[2], shift_rels(&t, xs.len() as i64), binds, "SHIFT")
}

/// `SCHEMA(z, e')`: identity projection list for the relation term (or
/// list of relation terms) `z` — `LIST(1.1, ..., 1.n)`.
fn schema(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("SCHEMA", "expected 2 arguments"));
    }
    let z = resolve(&args[0], binds);
    let inputs: Vec<Term> = match z.as_app() {
        Some(("LIST", items)) => items.to_vec(),
        _ => vec![z.clone()],
    };
    let mut proj = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let Some(arity) = env.rel_arity(input) else {
            return Ok(false);
        };
        for a in 1..=arity {
            proj.push(Term::attr((i + 1) as i64, a as i64));
        }
    }
    bind_output(&args[1], Term::list(proj), binds, "SCHEMA")
}

/// `REFER(a, f)`: Figure 8's boolean external function — true when some
/// attribute reference of `f` falls in the index list `a`. (The built-in
/// nest-pushing rule uses the richer `SPLITNEST`; `REFER` is provided for
/// user rules written exactly as in the paper.)
fn refer(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("REFER", "expected 2 arguments"));
    }
    let attrs = resolve_list(&args[0], binds)
        .ok_or_else(|| method_err("REFER", "first argument must be an index list"))?;
    let indices: Vec<i64> = attrs
        .iter()
        .filter_map(|t| t.as_const().and_then(|v| v.as_int().ok()))
        .collect();
    let f = resolve(&args[1], binds);
    Ok(collect_attr_refs(&f)
        .iter()
        .any(|(_, attr)| indices.contains(attr)))
}

// --------------------------------------------------------- nest pushing

/// `SPLITNEST(f, x*, a, b, fi, fo)`: the nest operator sits at input
/// position `k = |x*| + 1`; its output exposes the group attributes
/// (`b`, 1-based positions into the nest input) first and the collection
/// last. A conjunct is *pushable* when all its references are
/// `ATTR(k, i)` with `i` a group position. `fi` receives the pushed
/// conjuncts remapped below the nest (`ATTR(1, b[i])`), `fo` the rest.
/// Fails (returns false) when nothing is pushable.
fn splitnest(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 6 {
        return Err(method_err("SPLITNEST", "expected 6 arguments"));
    }
    let f = resolve(&args[0], binds);
    let xs = resolve_list(&args[1], binds)
        .ok_or_else(|| method_err("SPLITNEST", "x* must resolve to a list"))?;
    let group = resolve_list(&args[3], binds)
        .ok_or_else(|| method_err("SPLITNEST", "group positions must be a list"))?;
    let group: Vec<i64> = group
        .iter()
        .filter_map(|t| t.as_const().and_then(|v| v.as_int().ok()))
        .collect();
    let k = xs.len() as i64 + 1;
    let gl = group.len() as i64;

    let mut pushed = Vec::new();
    let mut rest = Vec::new();
    for c in flatten_and(&f) {
        let refs = collect_attr_refs(&c);
        let pushable = !refs.is_empty()
            && refs
                .iter()
                .all(|&(rel, attr)| rel == k && attr >= 1 && attr <= gl);
        if pushable {
            pushed.push(map_attr_refs(&c, &|_, attr| {
                Term::attr(1, group[(attr - 1) as usize])
            }));
        } else {
            rest.push(c);
        }
    }
    if pushed.is_empty() {
        return Ok(false);
    }
    Ok(
        bind_output(&args[4], build_and(pushed), binds, "SPLITNEST")?
            && bind_output(&args[5], build_and(rest), binds, "SPLITNEST")?,
    )
}

// ------------------------------------------------- fixpoint reduction

/// Bound conjuncts of `f` for the relation at position `k`: conjuncts of
/// the form `ATTR(k, j) = const` (either orientation). Returns
/// `(j, constant, conjunct)` triples.
fn bound_conjuncts(f: &Term, k: i64) -> Vec<(usize, Value, Term)> {
    let mut out = Vec::new();
    for c in flatten_and(f) {
        if let Some(("=", [l, r])) = c.as_app() {
            let pair = match (l.as_attr(), r.as_const(), r.as_attr(), l.as_const()) {
                (Some((rel, j)), Some(v), _, _) if rel == k => Some((j, v.clone())),
                (_, _, Some((rel, j)), Some(v)) if rel == k => Some((j, v.clone())),
                _ => None,
            };
            if let Some((j, v)) = pair {
                out.push((j as usize, v, c.clone()));
            }
        }
    }
    out
}

/// `ADORNMENT(x*, r, f, s)`: compute the binding signature of the
/// fixpoint `r` sitting at input position `|x*| + 1` under qualification
/// `f` — e.g. `"fb"` when the second attribute is bound by a constant.
/// Fails when no attribute is bound (nothing to push).
fn adornment(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 4 {
        return Err(method_err("ADORNMENT", "expected 4 arguments"));
    }
    let xs = resolve_list(&args[0], binds)
        .ok_or_else(|| method_err("ADORNMENT", "x* must resolve to a list"))?;
    let r = resolve(&args[1], binds);
    let f = resolve(&args[2], binds);
    let k = xs.len() as i64 + 1;
    let bound = bound_conjuncts(&f, k);
    if bound.is_empty() {
        return Ok(false);
    }
    let arity = env
        .rel_arity(&r)
        .unwrap_or_else(|| bound.iter().map(|(j, _, _)| *j).max().unwrap_or(1));
    let sig: String = (1..=arity)
        .map(|j| {
            if bound.iter().any(|(bj, _, _)| *bj == j) {
                'b'
            } else {
                'f'
            }
        })
        .collect();
    bind_output(&args[3], Term::str(sig), binds, "ADORNMENT")
}

/// `ALEXANDER(r, e, x*, f, s, u, f')`: apply the Alexander/magic-sets
/// transformation to the fixpoint `fix(r, e)` given the signature `s`:
/// `u` is bound to the reduced fixpoint (selection pushed into the seed,
/// recursion restricted to relevant facts) and `f'` to the outer
/// qualification with the pushed conjuncts removed. Fails when the
/// fixpoint's shape is outside the supported class (see
/// [`crate::magic`]); the query then stays as-is, which is always safe.
fn alexander(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 7 {
        return Err(method_err("ALEXANDER", "expected 7 arguments"));
    }
    let r = resolve(&args[0], binds);
    let e = resolve(&args[1], binds);
    let xs = resolve_list(&args[2], binds)
        .ok_or_else(|| method_err("ALEXANDER", "x* must resolve to a list"))?;
    let f = resolve(&args[3], binds);
    let name = match r.as_app() {
        Some((n, [])) => n.to_owned(),
        _ => return Ok(false),
    };
    let k = xs.len() as i64 + 1;
    let bound = bound_conjuncts(&f, k);
    if bound.is_empty() {
        return Ok(false);
    }
    let Ok(body) = eds_lera::expr_from_term(&e) else {
        return Ok(false);
    };
    let bindings: Vec<(usize, Value)> = bound.iter().map(|(j, v, _)| (*j, v.clone())).collect();
    let Some(reduced) = magic::alexander(&name, &body, &bindings) else {
        return Ok(false);
    };
    let u = eds_lera::expr_to_term(&reduced);
    let removed: Vec<&Term> = bound.iter().map(|(_, _, c)| c).collect();
    let remaining: Vec<Term> = flatten_and(&f)
        .into_iter()
        .filter(|c| !removed.contains(&c))
        .collect();
    Ok(bind_output(&args[5], u, binds, "ALEXANDER")?
        && bind_output(&args[6], build_and(remaining), binds, "ALEXANDER")?)
}

// ------------------------------------------------------ semantic rules

/// `ADDCONSTRAINTS(l, f, f')`: for every attribute reference in `f`,
/// instantiate the integrity constraints applicable to its type (via
/// `ISA`, so supertype constraints reach subtypes) and conjoin the ones
/// not already present. Fails when nothing new is added.
fn addconstraints(args: &[Term], binds: &mut Bindings, env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 3 {
        return Err(method_err("ADDCONSTRAINTS", "expected 3 arguments"));
    }
    let inputs = resolve_list(&args[0], binds)
        .ok_or_else(|| method_err("ADDCONSTRAINTS", "l must resolve to a list"))?;
    let f = resolve(&args[1], binds);
    // Schemas are inferred only for the inputs `f` references, once each.
    let mut schemas: Vec<Option<Option<Vec<eds_adt::Type>>>> = vec![None; inputs.len()];

    let mut conjuncts = flatten_and(&f);
    let existing = conjuncts.clone();
    let mut added = false;

    let mut seen_refs: Vec<(i64, i64)> = Vec::new();
    for (rel, attr) in collect_attr_refs(&f) {
        if seen_refs.contains(&(rel, attr)) {
            continue;
        }
        seen_refs.push((rel, attr));
        let Some(i) = usize::try_from(rel - 1).ok().filter(|&i| i < inputs.len()) else {
            continue;
        };
        let Some(schema) = schemas[i].get_or_insert_with(|| env.rel_schema(&inputs[i])) else {
            continue;
        };
        let Some(ty) = schema.get((attr - 1) as usize) else {
            continue;
        };
        for template in env.constraints_for(ty) {
            let inst = subst_var(&template, "x", &Term::attr(rel, attr));
            if !existing.contains(&inst) && !conjuncts.contains(&inst) {
                conjuncts.push(inst);
                added = true;
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[2], build_and(conjuncts), binds, "ADDCONSTRAINTS")
}

fn subst_var(t: &Term, var: &str, replacement: &Term) -> Term {
    match t {
        Term::Var(v) if v == var => replacement.clone(),
        Term::App(h, args) => Term::App(
            *h,
            args.iter()
                .map(|a| subst_var(a, var, replacement))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// `TRANSITIVITY(f, f')`: one step of the Figure-11 transitivity rules —
/// `x = y ∧ y = z` adds `x = z`; `INCLUDE(x,y) ∧ INCLUDE(y,z)` adds
/// `INCLUDE(x,z)`. Fails when nothing new can be derived.
fn transitivity(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("TRANSITIVITY", "expected 2 arguments"));
    }
    let f = resolve(&args[0], binds);
    let mut conjuncts = flatten_and(&f);

    // Equalities in both orientations.
    let mut eqs: Vec<(Term, Term)> = Vec::new();
    let mut includes: Vec<(Term, Term)> = Vec::new();
    for c in &conjuncts {
        match c.as_app() {
            Some(("=", [l, r])) => {
                eqs.push((l.clone(), r.clone()));
                eqs.push((r.clone(), l.clone()));
            }
            Some(("INCLUDE", [l, r])) => includes.push((l.clone(), r.clone())),
            _ => {}
        }
    }

    let has_eq = |cs: &[Term], a: &Term, b: &Term| {
        cs.iter().any(|c| match c.as_app() {
            Some(("=", [l, r])) => (l == a && r == b) || (l == b && r == a),
            _ => false,
        })
    };
    let mut added = false;
    let snapshot = eqs.clone();
    for (a, b) in &snapshot {
        for (c, d) in &snapshot {
            if b == c && a != d && !has_eq(&conjuncts, a, d) {
                // Avoid deriving trivial const = const chains.
                if a.as_const().is_some() && d.as_const().is_some() {
                    continue;
                }
                conjuncts.push(Term::app("=", vec![a.clone(), d.clone()]));
                added = true;
            }
        }
    }
    let inc_snapshot = includes.clone();
    for (a, b) in &inc_snapshot {
        for (c, d) in &inc_snapshot {
            if b == c && a != d {
                let derived = Term::app("INCLUDE", vec![a.clone(), d.clone()]);
                if !conjuncts.contains(&derived) {
                    conjuncts.push(derived);
                    added = true;
                }
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[1], build_and(conjuncts), binds, "TRANSITIVITY")
}

/// `EQSUBST(f, f')`: the Figure-11 equality-substitution rule —
/// `(X = Y) ∧ p(X)` adds `p(Y)`. Constants substitute for terms, and
/// term-for-term substitution is applied in both directions (so
/// `1.3 = 1.4 ∧ 1.3 > 100` derives `1.4 > 100`, exposing cross-conjunct
/// contradictions to the simplifier). Fails when nothing new is derived.
fn eqsubst(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("EQSUBST", "expected 2 arguments"));
    }
    let f = resolve(&args[0], binds);
    let mut conjuncts = flatten_and(&f);

    // (from, to) substitution pairs from equality conjuncts.
    let mut substitutions: Vec<(Term, Term)> = Vec::new();
    for c in &conjuncts {
        if let Some(("=", [l, r])) = c.as_app() {
            match (l.as_const(), r.as_const()) {
                (None, Some(_)) => substitutions.push((l.clone(), r.clone())),
                (Some(_), None) => substitutions.push((r.clone(), l.clone())),
                (None, None) => {
                    // Term-for-term: both directions.
                    substitutions.push((l.clone(), r.clone()));
                    substitutions.push((r.clone(), l.clone()));
                }
                (Some(_), Some(_)) => {}
            }
        }
    }
    let mut added = false;
    let snapshot = conjuncts.clone();
    for (from, to) in &substitutions {
        for c in &snapshot {
            // Skip the defining equality itself.
            if let Some(("=", [l, r])) = c.as_app() {
                if (l == from && r == to) || (r == from && l == to) {
                    continue;
                }
            }
            let derived = subst_term(c, from, to);
            if derived != *c && !conjuncts.contains(&derived) {
                conjuncts.push(derived);
                added = true;
            }
        }
    }
    if !added {
        return Ok(false);
    }
    bind_output(&args[1], build_and(conjuncts), binds, "EQSUBST")
}

fn subst_term(t: &Term, from: &Term, to: &Term) -> Term {
    if t == from {
        return to.clone();
    }
    match t {
        Term::App(h, args) => Term::App(*h, args.iter().map(|a| subst_term(a, from, to)).collect()),
        other => other.clone(),
    }
}

/// `SIMPLIFYQ(f, f')`: conjunct-level simplification — drop `TRUE` and
/// duplicate conjuncts, collapse to `FALSE` on any false conjunct, on
/// contradictory comparisons over the same operands (`x > y ∧ x <= y`),
/// or on two distinct constant equalities for the same term. Fails when
/// `f` is already simplified.
fn simplifyq(args: &[Term], binds: &mut Bindings, _env: &dyn TermEnv) -> RwResult<bool> {
    if args.len() != 2 {
        return Err(method_err("SIMPLIFYQ", "expected 2 arguments"));
    }
    let f = resolve(&args[0], binds);
    let original = flatten_and(&f);

    let mut kept: Vec<Term> = Vec::new();
    let mut falsified = false;
    for c in &original {
        match c.as_const() {
            Some(Value::Bool(true)) => continue,
            Some(Value::Bool(false)) => {
                falsified = true;
                break;
            }
            _ => {}
        }
        if !kept.contains(c) {
            kept.push(c.clone());
        }
    }

    // Possible comparison outcomes {<, =, >} per operand pair.
    fn outcomes(op: &str) -> Option<u8> {
        // bit 0: <, bit 1: =, bit 2: >
        Some(match op {
            "<" => 0b001,
            "=" => 0b010,
            ">" => 0b100,
            "<=" => 0b011,
            ">=" => 0b110,
            "<>" => 0b101,
            _ => return None,
        })
    }
    fn mirror(mask: u8) -> u8 {
        (mask & 0b010) | ((mask & 0b001) << 2) | ((mask & 0b100) >> 2)
    }

    if !falsified {
        use std::collections::HashMap;
        let mut per_pair: HashMap<(Term, Term), u8> = HashMap::new();
        let mut eq_consts: HashMap<Term, Vec<Value>> = HashMap::new();
        for c in &kept {
            if let Some((op, [l, r])) = c.as_app() {
                if let Some(mask) = outcomes(op) {
                    // Canonical orientation: smaller term first.
                    let (key, mask) = if l <= r {
                        ((l.clone(), r.clone()), mask)
                    } else {
                        ((r.clone(), l.clone()), mirror(mask))
                    };
                    let entry = per_pair.entry(key).or_insert(0b111);
                    *entry &= mask;
                    if *entry == 0 {
                        falsified = true;
                        break;
                    }
                }
                if op == "=" {
                    match (l.as_const(), r.as_const()) {
                        (None, Some(v)) => eq_consts.entry(l.clone()).or_default().push(v.clone()),
                        (Some(v), None) => eq_consts.entry(r.clone()).or_default().push(v.clone()),
                        _ => {}
                    }
                }
            }
        }
        if !falsified {
            for (_, consts) in eq_consts {
                if consts.windows(2).any(|w| w[0] != w[1]) {
                    falsified = true;
                    break;
                }
            }
        }

        // Numeric range conflicts: collect (op, constant) constraints per
        // term and check pairwise satisfiability (x > 100 ∧ x < 7 → ⊥).
        if !falsified {
            let mut ranges: HashMap<Term, Vec<(String, f64)>> = HashMap::new();
            for c in &kept {
                if let Some((op, [l, r])) = c.as_app() {
                    if outcomes(op).is_none() {
                        continue;
                    }
                    let entry = match (l.as_const(), r.as_const()) {
                        (None, Some(v)) => v.as_f64().ok().map(|n| (l.clone(), op.to_owned(), n)),
                        (Some(v), None) => v
                            .as_f64()
                            .ok()
                            .map(|n| (r.clone(), flip_op(op).to_owned(), n)),
                        _ => None,
                    };
                    if let Some((t, op, n)) = entry {
                        ranges.entry(t).or_default().push((op, n));
                    }
                }
            }
            'scan: for (_, constraints) in ranges {
                for i in 0..constraints.len() {
                    for j in (i + 1)..constraints.len() {
                        if !range_pair_satisfiable(&constraints[i], &constraints[j]) {
                            falsified = true;
                            break 'scan;
                        }
                    }
                }
            }
        }
    }

    let simplified = if falsified {
        Term::bool(false)
    } else {
        build_and(kept)
    };
    if flatten_and(&simplified) == original {
        return Ok(false);
    }
    bind_output(&args[1], simplified, binds, "SIMPLIFYQ")
}

/// Mirror a comparison operator (`c op t` ⇔ `t op' c`).
fn flip_op(op: &str) -> &str {
    match op {
        "<" => ">",
        ">" => "<",
        "<=" => ">=",
        ">=" => "<=",
        other => other,
    }
}

/// Can some number satisfy both `x op1 c1` and `x op2 c2`?
fn range_pair_satisfiable(a: &(String, f64), b: &(String, f64)) -> bool {
    let (op1, c1) = (a.0.as_str(), a.1);
    let (op2, c2) = (b.0.as_str(), b.1);
    let holds = |x: f64, op: &str, c: f64| match op {
        "<" => x < c,
        ">" => x > c,
        "<=" => x <= c,
        ">=" => x >= c,
        "=" => x == c,
        "<>" => x != c,
        _ => true,
    };
    // Candidate witnesses: the constants themselves, points just beside
    // them, a midpoint, and far sentinels.
    let eps = 0.5 * (c1 - c2).abs().max(1.0);
    let candidates = [
        c1,
        c2,
        c1 - eps,
        c1 + eps,
        c2 - eps,
        c2 + eps,
        (c1 + c2) / 2.0,
        f64::MIN / 2.0,
        f64::MAX / 2.0,
    ];
    candidates
        .iter()
        .any(|&x| holds(x, op1, c1) && holds(x, op2, c2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eds_rewrite::BasicEnv;

    fn call(name: &str, args: Vec<Term>, binds: &mut Bindings) -> RwResult<bool> {
        let mut reg = MethodRegistry::with_builtins();
        register_core_methods(&mut reg);
        let env = BasicEnv::new();
        reg.call(name, &args, binds, &env)
    }

    #[test]
    fn flatten_and_build_roundtrip() {
        let f = Term::app(
            "AND",
            vec![
                Term::app("AND", vec![Term::atom("A"), Term::atom("B")]),
                Term::atom("C"),
            ],
        );
        let cs = flatten_and(&f);
        assert_eq!(cs.len(), 3);
        assert_eq!(flatten_and(&build_and(cs.clone())), cs);
        assert_eq!(build_and(vec![]), Term::bool(true));
    }

    #[test]
    fn substitute_remaps_through_merge() {
        // Outer inputs were (X, SEARCH(z=[R, S], g, b), Y): k=1, m=2.
        // b = (2.1, 1.3): inner output attr 1 is 2.1 (rel shifts +1 -> 3.1).
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("X")]);
        binds.bind("z", Term::list(vec![Term::atom("R"), Term::atom("S")]));
        binds.bind("b", Term::list(vec![Term::attr(2, 1), Term::attr(1, 3)]));
        let t = Term::app(
            "AND",
            vec![
                Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 1)]),
                Term::app(">", vec![Term::attr(3, 2), Term::int(5)]),
            ],
        );
        binds.bind("t", t);
        let ok = call(
            "SUBSTITUTE",
            vec![
                Term::var("t"),
                Term::seq("xs"),
                Term::var("z"),
                Term::var("b"),
                Term::var("out"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // 1.1 unchanged; 2.1 (inner output attr 1) -> b[0]=2.1 shifted +1 = 3.1;
        // 3.2 (after the search) -> rel 3 + (2-1) = 4.2
        assert_eq!(
            binds.get("out").unwrap().to_string(),
            "((1.1 = 3.1) AND (4.2 > 5))"
        );
    }

    #[test]
    fn substitute_rejects_out_of_range_projection() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("z", Term::list(vec![Term::atom("R")]));
        binds.bind("b", Term::list(vec![Term::attr(1, 1)]));
        binds.bind("t", Term::app("=", vec![Term::attr(1, 9), Term::int(0)]));
        let ok = call(
            "SUBSTITUTE",
            vec![
                Term::var("t"),
                Term::seq("xs"),
                Term::var("z"),
                Term::var("b"),
                Term::var("out"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn shift_renumbers() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("A"), Term::atom("B")]);
        binds.bind(
            "g",
            Term::app("=", vec![Term::attr(1, 2), Term::attr(2, 1)]),
        );
        let ok = call(
            "SHIFT",
            vec![Term::var("g"), Term::seq("xs"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap().to_string(), "(3.2 = 4.1)");
    }

    #[test]
    fn splitnest_partitions_conjuncts() {
        // Nest at position 2 (x* = [A]); group positions (1, 2) of the
        // nest input; conjunct on 2.1 pushable, on 2.3 (collection) not,
        // on 1.1 (other relation) not.
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![Term::atom("A")]);
        binds.bind("a", Term::list(vec![Term::int(3)]));
        binds.bind("b", Term::list(vec![Term::int(1), Term::int(2)]));
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(2, 1), Term::int(7)]),
            Term::app("MEMBER", vec![Term::int(1), Term::attr(2, 3)]),
            Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SPLITNEST",
            vec![
                Term::var("f"),
                Term::seq("xs"),
                Term::var("a"),
                Term::var("b"),
                Term::var("fi"),
                Term::var("fo"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // Pushed: 2.1 = 7 with group[0] = 1 -> 1.1 = 7.
        assert_eq!(binds.get("fi").unwrap().to_string(), "(1.1 = 7)");
        let fo = binds.get("fo").unwrap().to_string();
        assert!(fo.contains("MEMBER") && fo.contains("(1.1 = 2.2)"), "{fo}");
    }

    #[test]
    fn splitnest_fails_without_pushable_conjunct() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("a", Term::list(vec![Term::int(2)]));
        binds.bind("b", Term::list(vec![Term::int(1)]));
        binds.bind(
            "f",
            Term::app("MEMBER", vec![Term::int(1), Term::attr(1, 2)]),
        );
        let ok = call(
            "SPLITNEST",
            vec![
                Term::var("f"),
                Term::seq("xs"),
                Term::var("a"),
                Term::var("b"),
                Term::var("fi"),
                Term::var("fo"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn transitivity_derives_equality() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::attr(2, 1)]),
            Term::app("=", vec![Term::attr(2, 1), Term::attr(3, 1)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "TRANSITIVITY",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        let out = binds.get("out").unwrap().to_string();
        assert!(out.contains("(1.1 = 3.1)"), "{out}");
        // Re-running on the closure derives nothing new.
        let mut binds2 = Bindings::new();
        binds2.bind("f", binds.get("out").unwrap().clone());
        let again = call(
            "TRANSITIVITY",
            vec![Term::var("f"), Term::var("out")],
            &mut binds2,
        )
        .unwrap();
        assert!(!again);
    }

    #[test]
    fn eqsubst_propagates_constants() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::int(5)]),
            Term::app(">", vec![Term::attr(1, 1), Term::attr(2, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "EQSUBST",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        let out = binds.get("out").unwrap().to_string();
        assert!(out.contains("(5 > 2.2)"), "{out}");
    }

    #[test]
    fn simplifyq_detects_contradiction() {
        let mut binds = Bindings::new();
        // x > y AND x <= y (Figure 12).
        let f = build_and(vec![
            Term::app(">", vec![Term::attr(1, 1), Term::attr(1, 2)]),
            Term::app("<=", vec![Term::attr(1, 1), Term::attr(1, 2)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_mirrored_contradiction() {
        // x > y AND y >= x, written with swapped operands.
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app(">", vec![Term::attr(1, 1), Term::attr(1, 2)]),
            Term::app(">=", vec![Term::attr(1, 2), Term::attr(1, 1)]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_conflicting_constant_equalities() {
        let mut binds = Bindings::new();
        let f = build_and(vec![
            Term::app("=", vec![Term::attr(1, 1), Term::str("a")]),
            Term::app("=", vec![Term::attr(1, 1), Term::str("b")]),
        ]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &Term::bool(false));
    }

    #[test]
    fn simplifyq_drops_true_and_duplicates() {
        let mut binds = Bindings::new();
        let c = Term::app("=", vec![Term::attr(1, 1), Term::int(1)]);
        let f = build_and(vec![Term::bool(true), c.clone(), c.clone()]);
        binds.bind("f", f);
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(binds.get("out").unwrap(), &c);
    }

    #[test]
    fn simplifyq_noop_on_clean_input() {
        let mut binds = Bindings::new();
        binds.bind("f", Term::app("=", vec![Term::attr(1, 1), Term::int(1)]));
        let ok = call(
            "SIMPLIFYQ",
            vec![Term::var("f"), Term::var("out")],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn refer_checks_attribute_usage() {
        let mut binds = Bindings::new();
        binds.bind("a", Term::list(vec![Term::int(2), Term::int(3)]));
        binds.bind("f", Term::app("=", vec![Term::attr(1, 2), Term::int(0)]));
        assert!(call("REFER", vec![Term::var("a"), Term::var("f")], &mut binds).unwrap());
        binds.bind("f", Term::app("=", vec![Term::attr(1, 5), Term::int(0)]));
        assert!(!call("REFER", vec![Term::var("a"), Term::var("f")], &mut binds).unwrap());
    }

    #[test]
    fn adornment_computes_signature() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("r", Term::atom("BT"));
        binds.bind(
            "f",
            Term::app("=", vec![Term::attr(1, 2), Term::str("Quinn")]),
        );
        let ok = call(
            "ADORNMENT",
            vec![
                Term::seq("xs"),
                Term::var("r"),
                Term::var("f"),
                Term::var("s"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(ok);
        // BasicEnv knows no arity; signature extends to the max bound attr.
        assert_eq!(binds.get("s").unwrap(), &Term::str("fb"));
    }

    #[test]
    fn adornment_fails_without_bound_attribute() {
        let mut binds = Bindings::new();
        binds.bind_seq("xs", vec![]);
        binds.bind("r", Term::atom("BT"));
        binds.bind(
            "f",
            Term::app("=", vec![Term::attr(1, 2), Term::attr(2, 1)]),
        );
        let ok = call(
            "ADORNMENT",
            vec![
                Term::seq("xs"),
                Term::var("r"),
                Term::var("f"),
                Term::var("s"),
            ],
            &mut binds,
        )
        .unwrap();
        assert!(!ok);
    }
}
