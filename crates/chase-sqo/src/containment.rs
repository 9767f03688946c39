//! Conjunctive-query containment and equivalence under constraints.
//!
//! Classically `q1 ⊑ q2` iff `q2` maps homomorphically into `q1`'s frozen
//! canonical instance hitting `q1`'s head. Under a constraint set `Σ` the
//! canonical instance is first chased (`q1 ⊑Σ q2` iff the frozen head of
//! `q1` is among `q2`'s answers on `chase_Σ(freeze(q1))`) — sound and
//! complete when the chase terminates. Since termination is exactly what
//! cannot be taken for granted here, every check runs under a caller-chosen
//! budget and returns `None` ("unknown") when the chase was cut off.

use chase_core::homomorphism::Subst;
use chase_core::{ConjunctiveQuery, ConstraintSet, Instance, Sym, Term};
use chase_engine::{chase, ChaseConfig, StopReason};

/// Freeze `q` and chase it; returns the chased instance and the frozen head
/// tuple (with chase-time EGD merges applied), or `None` when the chase did
/// not terminate.
pub(crate) fn chased_canonical(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> Option<(Instance, Vec<Term>)> {
    let (frozen, var_map) = q.freeze();
    let mut head: Vec<Term> = q
        .head_args()
        .iter()
        .map(|t| match t {
            Term::Var(v) => Term::Null(var_map[v]),
            other => *other,
        })
        .collect();
    let mut run_cfg = cfg.clone();
    run_cfg.keep_trace = true; // needed to replay EGD merges onto the head
    let res = chase(&frozen, set, &run_cfg);
    if res.reason != StopReason::Satisfied {
        return None;
    }
    for rec in &res.trace {
        if let Some((from, to)) = rec.merged {
            for t in &mut head {
                if *t == from {
                    *t = to;
                }
            }
        }
    }
    Some((res.instance, head))
}

/// Is `q1 ⊑Σ q2` (every answer of `q1` is an answer of `q2` on every
/// instance satisfying `Σ`)? `None` when the chase budget was exhausted.
pub fn contained_under(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> Option<bool> {
    if q1.head_args().len() != q2.head_args().len() {
        return Some(false);
    }
    let (chased, head) = chased_canonical(q1, set, cfg)?;
    Some(answers_include(q2, &chased, &head))
}

/// Is `head` among `q`'s answers on `inst`? With `inst` the chased
/// canonical instance of some `q1` and `head` its frozen head, this is
/// `q1 ⊑Σ q`. Nulls act as plain domain values here, so a direct
/// homomorphism search does the job.
pub(crate) fn answers_include(q: &ConjunctiveQuery, inst: &Instance, head: &[Term]) -> bool {
    chase_core::homomorphism::for_each_hom(q.body(), inst, &Subst::new(), false, &mut |h| {
        q.head_args()
            .iter()
            .zip(head)
            .all(|(&t, &want)| h.apply(t) == want)
    })
}

/// Is `q1 ≡Σ q2`? `None` when either direction's chase was cut off.
pub fn equivalent_under(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> Option<bool> {
    match contained_under(q1, q2, set, cfg)? {
        false => Some(false),
        true => contained_under(q2, q1, set, cfg),
    }
}

/// Plain CQ containment (no constraints): `q1 ⊑ q2`.
pub fn contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> bool {
    contained_under(q1, q2, &ConstraintSet::new(), &ChaseConfig::default())
        .expect("empty-Σ chase terminates immediately")
}

/// Renames `q`'s head predicate (containment ignores the head name, but the
/// rewriting pipeline wants consistent names).
pub fn with_head_pred(q: &ConjunctiveQuery, name: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::new(Sym::new(name), q.head_args().to_vec(), q.body().to_vec())
        .expect("renaming the head preserves well-formedness")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn classical_containment() {
        // More atoms = more constrained = contained in the 1-atom query.
        let small = q("q(X) <- E(X,Y)");
        let big = q("q(X) <- E(X,Y), E(Y,Z)");
        assert!(contained(&big, &small));
        assert!(!contained(&small, &big));
    }

    #[test]
    fn self_containment_modulo_renaming() {
        let a = q("q(X) <- E(X,Y), E(Y,X)");
        let b = q("p(U) <- E(U,V), E(V,U)");
        assert!(contained(&a, &b));
        assert!(contained(&b, &a));
    }

    #[test]
    fn constants_matter() {
        let with_const = q("q(X) <- E(c,X)");
        let general = q("q(X) <- E(Y,X)");
        assert!(contained(&with_const, &general));
        assert!(!contained(&general, &with_const));
    }

    #[test]
    fn containment_under_constraints() {
        // Under rail-symmetry, the reversed atom is implied.
        let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
        let q1 = q("q(X) <- rail(c,X,D)");
        let q2 = q("q(X) <- rail(c,X,D), rail(X,c,D)");
        assert_eq!(
            contained_under(&q1, &q2, &set, &ChaseConfig::default()),
            Some(true)
        );
        // Without Σ the containment fails.
        assert!(!contained(&q1, &q2));
        assert_eq!(
            equivalent_under(&q1, &q2, &set, &ChaseConfig::default()),
            Some(true)
        );
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
        let q1 = q("q(X) <- S(X)");
        let cfg = ChaseConfig::with_max_steps(10);
        assert_eq!(contained_under(&q1, &q1, &set, &cfg), None);
    }

    #[test]
    fn egd_merges_propagate_to_the_head() {
        // The key constraint merges Y into b; q1 ⊑Σ q2 despite the head
        // variable being equated away.
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let q1 = q("q(Y) <- E(a,b), E(a,Y)");
        let q2 = q("q(Y) <- E(a,Y), E(a,b)");
        assert_eq!(
            equivalent_under(&q1, &q2, &set, &ChaseConfig::default()),
            Some(true)
        );
    }
}
