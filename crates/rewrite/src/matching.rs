//! Pattern matching with collection variables.
//!
//! Matching is *one-way* (pattern against a ground-ish subject), supports
//! segment matching for `LIST` arguments and commutative (multiset)
//! matching for `SET`/`BAG` arguments — "using sets as arguments eliminates
//! the use of permutation rules, as sets are unordered" (Section 4.1).
//! Because a pattern like `LIST(x*, t, y*)` can match in several ways, the
//! matcher enumerates alternatives through a callback and backtracks; the
//! engine's callback checks rule constraints and accepts the first
//! satisfying match.
//!
//! One `Bindings` is threaded through the whole enumeration by `&mut`:
//! every site that binds a variable removes the binding again when the
//! rest of the match fails (`Control::Continue`), so backtracking restores
//! the state without cloning the substitution at each argument.

use crate::symbol::{well_known, Symbol};
use crate::term::{Bindings, Term};

/// Continue enumeration or stop (match accepted)?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep enumerating alternative matches.
    Continue,
    /// Stop: the caller accepted this match.
    Stop,
}

/// Callback invoked once per successful match with the extended bindings.
pub type MatchSink<'a> = dyn FnMut(&Bindings) -> Control + 'a;

/// The matcher's internal continuation: the rest of the match, run on the
/// bindings made so far. It must leave `binds` as it found them when it
/// returns `Control::Continue`.
type Cont<'a> = dyn FnMut(&mut Bindings) -> Control + 'a;

/// Enumerate matches of `pattern` against `subject` starting from `binds`.
/// Returns `Control::Stop` as soon as the sink accepts a match.
pub fn match_term(
    pattern: &Term,
    subject: &Term,
    binds: &mut Bindings,
    sink: &mut MatchSink<'_>,
) -> Control {
    match_into(pattern, subject, binds, &mut |b: &mut Bindings| sink(b))
}

fn match_into(
    pattern: &Term,
    subject: &Term,
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
) -> Control {
    match pattern {
        Term::Var(v) => {
            if let Some(bound) = binds.get(v) {
                if bound == subject {
                    sink(binds)
                } else {
                    Control::Continue
                }
            } else {
                binds.bind(*v, subject.clone());
                let ctl = sink(binds);
                if ctl == Control::Continue {
                    binds.remove(v);
                }
                ctl
            }
        }
        // A sequence variable is only meaningful inside a collection
        // constructor's argument list; elsewhere it matches nothing.
        Term::SeqVar(_) => Control::Continue,
        Term::Const(p) => match subject {
            Term::Const(s) if p == s => sink(binds),
            _ => Control::Continue,
        },
        Term::App(ph, pargs) => match subject {
            Term::App(sh, sargs) if ph == sh => {
                if *ph == well_known::list() {
                    match_segments(pargs, sargs, binds, sink)
                } else if *ph == well_known::set() {
                    match_multiset(pargs, sargs, binds, sink, true)
                } else if *ph == well_known::bag() {
                    match_multiset(pargs, sargs, binds, sink, false)
                } else if pargs.len() == sargs.len() {
                    match_pairwise(pargs, sargs, binds, sink)
                } else {
                    Control::Continue
                }
            }
            _ => Control::Continue,
        },
    }
}

/// Fixed-arity argument matching.
fn match_pairwise(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
) -> Control {
    match (pats.split_first(), subs.split_first()) {
        (None, None) => sink(binds),
        (Some((p0, prest)), Some((s0, srest))) => {
            let mut inner = |b: &mut Bindings| match_pairwise(prest, srest, b, sink);
            match_into(p0, s0, binds, &mut inner)
        }
        _ => Control::Continue,
    }
}

/// Ordered segment matching for `LIST` arguments: sequence variables match
/// contiguous segments; shorter segments are tried first.
fn match_segments(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
) -> Control {
    match pats.split_first() {
        None => {
            if subs.is_empty() {
                sink(binds)
            } else {
                Control::Continue
            }
        }
        Some((Term::SeqVar(v), prest)) => {
            if let Some(bound) = binds.get_seq(v) {
                let n = bound.len();
                if subs.len() >= n && subs[..n] == *bound {
                    return match_segments(prest, &subs[n..], binds, sink);
                }
                return Control::Continue;
            }
            // Minimum subjects the remaining patterns require.
            let min_rest = prest
                .iter()
                .filter(|p| !matches!(p, Term::SeqVar(_)))
                .count();
            let max_take = subs.len().saturating_sub(min_rest);
            // With no sequence variable left in the tail, every later
            // pattern consumes exactly one subject, so this segment's
            // length is forced — trying shorter prefixes would always
            // fail at the end of the list.
            let any_seq_left = prest.iter().any(|p| matches!(p, Term::SeqVar(_)));
            let min_take = if any_seq_left { 0 } else { max_take };
            for take in min_take..=max_take {
                binds.bind_seq(*v, subs[..take].to_vec());
                let ctl = match_segments(prest, &subs[take..], binds, sink);
                if ctl == Control::Stop {
                    return Control::Stop;
                }
                binds.remove(v);
            }
            Control::Continue
        }
        Some((p0, prest)) => {
            if subs.is_empty() {
                return Control::Continue;
            }
            let (s0, srest) = subs.split_first().expect("non-empty");
            let mut inner = |b: &mut Bindings| match_segments(prest, srest, b, sink);
            match_into(p0, s0, binds, &mut inner)
        }
    }
}

/// Commutative (multiset) matching for `SET`/`BAG` arguments. Element
/// patterns may match any remaining subject element; remaining elements
/// are distributed over the sequence variables. With `canonical_order`
/// (sets), collected segments are sorted so bindings are deterministic.
fn match_multiset(
    pats: &[Term],
    subs: &[Term],
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
    canonical_order: bool,
) -> Control {
    // Split patterns into element patterns and sequence variables.
    let elem_pats: Vec<&Term> = pats
        .iter()
        .filter(|p| !matches!(p, Term::SeqVar(_)))
        .collect();
    let seq_vars: Vec<Symbol> = pats
        .iter()
        .filter_map(|p| match p {
            Term::SeqVar(v) => Some(*v),
            _ => None,
        })
        .collect();

    // Without sequence variables the counts must agree exactly.
    if seq_vars.is_empty() && elem_pats.len() != subs.len() {
        return Control::Continue;
    }
    if elem_pats.len() > subs.len() {
        return Control::Continue;
    }

    match_elems(&elem_pats, subs, &seq_vars, binds, sink, canonical_order)
}

fn match_elems(
    elem_pats: &[&Term],
    remaining: &[Term],
    seq_vars: &[Symbol],
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
    canonical_order: bool,
) -> Control {
    match elem_pats.split_first() {
        None => distribute_rest(remaining, seq_vars, binds, sink, canonical_order),
        Some((p0, prest)) => {
            for i in 0..remaining.len() {
                let mut inner = |b: &mut Bindings| {
                    let mut rest: Vec<Term> = remaining.to_vec();
                    rest.remove(i);
                    match_elems(prest, &rest, seq_vars, b, sink, canonical_order)
                };
                if match_into(p0, &remaining[i], binds, &mut inner) == Control::Stop {
                    return Control::Stop;
                }
            }
            Control::Continue
        }
    }
}

/// Distribute the leftover multiset elements over the sequence variables.
fn distribute_rest(
    remaining: &[Term],
    seq_vars: &[Symbol],
    binds: &mut Bindings,
    sink: &mut Cont<'_>,
    canonical_order: bool,
) -> Control {
    match seq_vars.split_first() {
        None => {
            if remaining.is_empty() {
                sink(binds)
            } else {
                Control::Continue
            }
        }
        Some((v, [])) => {
            // Single (last) sequence variable takes everything left.
            if let Some(bound) = binds.get_seq(v) {
                let mut bound = bound.to_vec();
                let mut rem = remaining.to_vec();
                bound.sort();
                rem.sort();
                return if bound == rem {
                    sink(binds)
                } else {
                    Control::Continue
                };
            }
            let mut seg = remaining.to_vec();
            if canonical_order {
                seg.sort();
            }
            binds.bind_seq(*v, seg);
            let ctl = sink(binds);
            if ctl == Control::Continue {
                binds.remove(v);
            }
            ctl
        }
        Some((v, vrest)) => {
            // Enumerate subsets for `v` (by index mask); small collections
            // only in practice — rules use at most two collection variables.
            let n = remaining.len();
            assert!(n <= 20, "multiset distribution over large collection");
            for mask in 0u64..(1u64 << n) {
                let mut mine = Vec::new();
                let mut rest = Vec::new();
                for (i, t) in remaining.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        mine.push(t.clone());
                    } else {
                        rest.push(t.clone());
                    }
                }
                if let Some(bound) = binds.get_seq(v) {
                    let mut bound = bound.to_vec();
                    bound.sort();
                    mine.sort();
                    if bound != mine {
                        continue;
                    }
                    if distribute_rest(&rest, vrest, binds, sink, canonical_order) == Control::Stop
                    {
                        return Control::Stop;
                    }
                } else {
                    if canonical_order {
                        mine.sort();
                    }
                    binds.bind_seq(*v, mine);
                    let ctl = distribute_rest(&rest, vrest, binds, sink, canonical_order);
                    binds.remove(v);
                    if ctl == Control::Stop {
                        return Control::Stop;
                    }
                }
            }
            Control::Continue
        }
    }
}

/// Convenience: the first match of `pattern` against `subject`, if any.
pub fn find_match(pattern: &Term, subject: &Term) -> Option<Bindings> {
    let mut result = None;
    let mut binds = Bindings::new();
    let mut sink = |b: &Bindings| {
        result = Some(b.clone());
        Control::Stop
    };
    match_term(pattern, subject, &mut binds, &mut sink);
    result
}

/// Convenience: all matches of `pattern` against `subject`.
pub fn all_matches(pattern: &Term, subject: &Term) -> Vec<Bindings> {
    let mut out = Vec::new();
    let mut binds = Bindings::new();
    let mut sink = |b: &Bindings| {
        out.push(b.clone());
        Control::Continue
    };
    match_term(pattern, subject, &mut binds, &mut sink);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: &str) -> Term {
        Term::atom(n)
    }

    #[test]
    fn var_binds_subject() {
        let b = find_match(&Term::var("x"), &a("FILM")).unwrap();
        assert_eq!(b.get("x"), Some(&a("FILM")));
    }

    #[test]
    fn repeated_var_must_agree() {
        let pat = Term::app("F", vec![Term::var("x"), Term::var("x")]);
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("A")])).is_some());
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("B")])).is_none());
    }

    #[test]
    fn head_and_arity_must_agree() {
        let pat = Term::app("F", vec![Term::var("x")]);
        assert!(find_match(&pat, &Term::app("G", vec![a("A")])).is_none());
        assert!(find_match(&pat, &Term::app("F", vec![a("A"), a("B")])).is_none());
    }

    #[test]
    fn list_segments_enumerate_splits() {
        // LIST(x*, v, y*) against LIST(A, B, C): v can be A, B or C.
        let pat = Term::list(vec![Term::seq("x"), Term::var("v"), Term::seq("y")]);
        let sub = Term::list(vec![a("A"), a("B"), a("C")]);
        let matches = all_matches(&pat, &sub);
        assert_eq!(matches.len(), 3);
        let vs: Vec<&Term> = matches.iter().map(|b| b.get("v").unwrap()).collect();
        assert_eq!(vs, vec![&a("A"), &a("B"), &a("C")]);
        // Segments reconstruct the original list.
        let m = &matches[1];
        assert_eq!(m.get_seq("x").unwrap(), &[a("A")]);
        assert_eq!(m.get_seq("y").unwrap(), &[a("C")]);
    }

    #[test]
    fn list_segment_matching_is_ordered() {
        let pat = Term::list(vec![a("B"), Term::seq("x")]);
        assert!(find_match(&pat, &Term::list(vec![a("A"), a("B")])).is_none());
        assert!(find_match(&pat, &Term::list(vec![a("B"), a("A")])).is_some());
    }

    #[test]
    fn set_matching_is_commutative() {
        // SET(x*, UNION(z)) from the union-merging rule of Figure 7:
        // the nested UNION may sit anywhere in the set.
        let pat = Term::set(vec![
            Term::seq("x"),
            Term::app("UNION", vec![Term::var("z")]),
        ]);
        let sub = Term::set(vec![a("R"), Term::app("UNION", vec![a("S")]), a("T")]);
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("z"), Some(&a("S")));
        let mut rest = b.get_seq("x").unwrap().to_vec();
        rest.sort();
        assert_eq!(rest, vec![a("R"), a("T")]);
    }

    #[test]
    fn set_exact_element_count_without_seqvars() {
        let pat = Term::set(vec![Term::var("u"), Term::var("v")]);
        assert!(find_match(&pat, &Term::set(vec![a("A"), a("B")])).is_some());
        assert!(find_match(&pat, &Term::set(vec![a("A")])).is_none());
        assert!(find_match(&pat, &Term::set(vec![a("A"), a("B"), a("C")])).is_none());
    }

    #[test]
    fn two_seqvars_in_list() {
        let pat = Term::list(vec![Term::seq("x"), Term::seq("y")]);
        let sub = Term::list(vec![a("A"), a("B")]);
        let matches = all_matches(&pat, &sub);
        // splits: (0,2) (1,1) (2,0)
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn two_seqvars_in_set_partition() {
        let pat = Term::set(vec![Term::seq("x"), Term::seq("y")]);
        let sub = Term::set(vec![a("A"), a("B")]);
        let matches = all_matches(&pat, &sub);
        // each of the 2 elements goes to x or y: 4 assignments
        assert_eq!(matches.len(), 4);
    }

    #[test]
    fn bound_seqvar_must_agree() {
        let pat = Term::app(
            "F",
            vec![
                Term::list(vec![Term::seq("x")]),
                Term::list(vec![Term::seq("x")]),
            ],
        );
        let good = Term::app(
            "F",
            vec![
                Term::list(vec![a("A"), a("B")]),
                Term::list(vec![a("A"), a("B")]),
            ],
        );
        let bad = Term::app(
            "F",
            vec![Term::list(vec![a("A")]), Term::list(vec![a("B")])],
        );
        assert!(find_match(&pat, &good).is_some());
        assert!(find_match(&pat, &bad).is_none());
    }

    #[test]
    fn nested_structure_match() {
        // The search-merging pattern skeleton of Figure 7.
        let pat = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![
                    Term::seq("x"),
                    Term::app(
                        "SEARCH",
                        vec![Term::var("z"), Term::var("g"), Term::var("b")],
                    ),
                    Term::seq("v"),
                ]),
                Term::var("f"),
                Term::var("a"),
            ],
        );
        let inner = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![a("FILM")]),
                Term::bool(true),
                Term::list(vec![Term::attr(1, 1)]),
            ],
        );
        let sub = Term::app(
            "SEARCH",
            vec![
                Term::list(vec![a("APPEARS_IN"), inner.clone()]),
                Term::bool(true),
                Term::list(vec![Term::attr(2, 1)]),
            ],
        );
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("z"), Some(&Term::list(vec![a("FILM")])));
        assert_eq!(b.get_seq("x").unwrap(), &[a("APPEARS_IN")]);
        assert_eq!(b.get_seq("v").unwrap(), &[] as &[Term]);
    }

    #[test]
    fn seqvar_outside_collection_never_matches() {
        let pat = Term::app("F", vec![Term::seq("x")]);
        assert!(find_match(&pat, &Term::app("F", vec![a("A")])).is_none());
    }

    #[test]
    fn const_matching() {
        assert!(find_match(&Term::int(5), &Term::int(5)).is_some());
        assert!(find_match(&Term::int(5), &Term::int(6)).is_none());
        assert!(find_match(&Term::str("a"), &Term::str("a")).is_some());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::term::Term;

    fn a(n: &str) -> Term {
        Term::atom(n)
    }

    #[test]
    fn set_with_duplicate_subject_elements() {
        // BAG semantics: SET(u, v) against SET with two equal elements —
        // the matcher sees the term's argument list as given.
        let pat = Term::app("F", vec![Term::set(vec![Term::var("u"), Term::var("v")])]);
        let sub = Term::app("F", vec![Term::set(vec![a("A"), a("A")])]);
        let matches = all_matches(&pat, &sub);
        assert_eq!(matches.len(), 2); // both assignments of the two A's
        for m in matches {
            assert_eq!(m.get("u"), Some(&a("A")));
            assert_eq!(m.get("v"), Some(&a("A")));
        }
    }

    #[test]
    fn bound_var_constrains_set_choice() {
        // F(u, SET(u, x*)): the first argument pins which set element u is.
        let pat = Term::app(
            "F",
            vec![
                Term::var("u"),
                Term::set(vec![Term::var("u"), Term::seq("x")]),
            ],
        );
        let sub = Term::app("F", vec![a("B"), Term::set(vec![a("A"), a("B"), a("C")])]);
        let b = find_match(&pat, &sub).expect("must match");
        assert_eq!(b.get("u"), Some(&a("B")));
        let mut rest = b.get_seq("x").unwrap().to_vec();
        rest.sort();
        assert_eq!(rest, vec![a("A"), a("C")]);
    }

    #[test]
    fn empty_list_pattern_matches_only_empty() {
        let pat = Term::list(vec![]);
        assert!(find_match(&pat, &Term::list(vec![])).is_some());
        assert!(find_match(&pat, &Term::list(vec![a("A")])).is_none());
    }

    #[test]
    fn seqvar_in_pattern_matches_empty_segment_subject() {
        let pat = Term::list(vec![Term::seq("x")]);
        let b = find_match(&pat, &Term::list(vec![])).unwrap();
        assert_eq!(b.get_seq("x").unwrap(), &[] as &[Term]);
    }

    #[test]
    fn list_does_not_match_set() {
        assert!(find_match(&Term::list(vec![Term::seq("x")]), &Term::set(vec![a("A")])).is_none());
    }

    #[test]
    fn deep_nesting_matches() {
        // Pattern and subject nested 10 levels deep.
        let mut pat = Term::var("x");
        let mut sub = Term::int(1);
        for _ in 0..10 {
            pat = Term::app("F", vec![pat]);
            sub = Term::app("F", vec![sub]);
        }
        let b = find_match(&pat, &sub).unwrap();
        assert_eq!(b.get("x"), Some(&Term::int(1)));
    }
}
