//! Trigger enumeration: which constraint instantiations can fire?
//!
//! A *standard* chase step for a TGD applies to `(α, µ)` when `µ` maps the
//! body into the instance and cannot be extended to a head homomorphism; an
//! EGD applies when the body maps and the equated terms differ. An
//! *oblivious* step applies whenever the body maps, regardless of
//! satisfaction.
//!
//! The engines enumerate through a [`Matcher`] (the `chase-plan`
//! cost-guided join programs). The free functions here run the classic
//! backtracking searcher instead, in its deterministic order, for callers
//! with no plan cache (`core_of`, `bfs`). Both enumerate the same
//! homomorphism *sets*; since triggers are identified by their normalized
//! assignment and selected canonically, every function whose result is a
//! set or a canonical element is enumeration-order-independent.

use chase_core::fx::FxHashSet;
use chase_core::homomorphism::{for_each_hom, Subst};
use chase_core::{Constraint, Instance, Sym, Term};
pub use chase_plan::Matcher;

/// Is `(c, µ)` an active (standard-chase) trigger? Assumes `µ` maps the body
/// into `inst`; checks the violation side.
pub fn is_active(c: &Constraint, inst: &Instance, mu: &Subst) -> bool {
    match c {
        Constraint::Tgd(t) => !chase_core::exists_extension(t.head(), inst, mu),
        Constraint::Egd(e) => mu.var(e.left()) != mu.var(e.right()),
    }
}

/// First active trigger of `c` in deterministic search order, if any.
pub fn first_active_trigger(c: &Constraint, inst: &Instance) -> Option<Subst> {
    let mut found = None;
    for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
        if is_active(c, inst, mu) {
            found = Some(mu.clone());
            true
        } else {
            false
        }
    });
    found
}

/// All active triggers of `c`, deduplicated, in deterministic order.
pub fn active_triggers(c: &Constraint, inst: &Instance) -> Vec<Subst> {
    let mut out: Vec<Subst> = Vec::new();
    let mut seen: FxHashSet<Vec<(Sym, Term)>> = FxHashSet::default();
    for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
        if is_active(c, inst, mu) {
            let key = normalize(c, mu);
            if seen.insert(key) {
                out.push(mu.clone());
            }
        }
        false
    });
    out
}

/// Canonical form of an assignment: bindings of the universal variables,
/// sorted by variable name. Two triggers are "the same" iff they agree here.
pub fn normalize(c: &Constraint, mu: &Subst) -> Vec<(Sym, Term)> {
    normalize_in(&key_order(c), mu)
}

/// The order [`normalize`] lists a constraint's bindings in: its universal
/// variables sorted by name. Each name comparison reads the process-wide
/// interner, so hot paths compute this once per constraint and build keys
/// with [`normalize_in`].
pub(crate) fn key_order(c: &Constraint) -> Vec<Sym> {
    let mut order = c.universals();
    order.sort_by_key(|s| s.as_str());
    order
}

/// [`normalize`] with the constraint's [`key_order`] precomputed.
pub(crate) fn normalize_in(order: &[Sym], mu: &Subst) -> Vec<(Sym, Term)> {
    order
        .iter()
        .filter_map(|&u| mu.var(u).map(|t| (u, t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::{Atom, ConstraintSet};

    /// The trigger keys `m` enumerates for constraint `ci` — every body
    /// homomorphism, or only the active ones — deduplicated and sorted.
    fn trigger_keys(
        m: &Matcher,
        ci: usize,
        c: &Constraint,
        inst: &Instance,
        active_only: bool,
    ) -> Vec<Vec<(Sym, Term)>> {
        let mut keys: Vec<Vec<(Sym, Term)>> = Vec::new();
        m.for_each_body_hom(ci, inst, &mut |mu| {
            if !active_only || m.is_active(ci, c, inst, mu) {
                keys.push(normalize(c, mu));
            }
            false
        });
        keys.sort();
        keys.dedup();
        keys
    }

    /// [`trigger_keys`] through the backtracking searcher: the reference.
    fn reference_keys(c: &Constraint, inst: &Instance, active_only: bool) -> Vec<Vec<(Sym, Term)>> {
        let mut keys: Vec<Vec<(Sym, Term)>> = Vec::new();
        for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
            if !active_only || is_active(c, inst, mu) {
                keys.push(normalize(c, mu));
            }
            false
        });
        keys.sort();
        keys.dedup();
        keys
    }

    #[test]
    fn tgd_trigger_only_when_violated() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let sat = Instance::parse("S(a). E(a,b).").unwrap();
        let unsat = Instance::parse("S(a). S(b). E(b,c).").unwrap();
        assert!(first_active_trigger(&set[0], &sat).is_none());
        let mu = first_active_trigger(&set[0], &unsat).unwrap();
        assert_eq!(mu.var(Sym::new("X")), Some(Term::constant("a")));
    }

    #[test]
    fn oblivious_triggers_ignore_satisfaction() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let sat = Instance::parse("S(a). E(a,b).").unwrap();
        let m = Matcher::planned(&set, &sat);
        assert_eq!(trigger_keys(&m, 0, &set[0], &sat, true).len(), 0);
        assert_eq!(trigger_keys(&m, 0, &set[0], &sat, false).len(), 1);
    }

    #[test]
    fn egd_trigger_requires_difference() {
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let same = Instance::parse("E(a,b).").unwrap();
        let diff = Instance::parse("E(a,b). E(a,c).").unwrap();
        assert!(first_active_trigger(&set[0], &same).is_none());
        // (b,c) and (c,b) are two distinct violating assignments.
        assert_eq!(active_triggers(&set[0], &diff).len(), 2);
    }

    #[test]
    fn head_revalidation_agrees_with_activity_check() {
        // For a trigger that was violated before the delta, "the delta newly
        // satisfied the head" must coincide with "the trigger is no longer
        // active" — the contract pool revalidation relies on.
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let c = &set[0];
        let Constraint::Tgd(t) = c else {
            panic!("expected a TGD")
        };
        let mut inst = Instance::parse("S(a). S(b).").unwrap();
        let mus = active_triggers(c, &inst);
        assert_eq!(mus.len(), 2);
        let added = vec![
            Atom::new("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("T", vec![Term::constant("b")]),
        ];
        for a in &added {
            inst.insert(a.clone());
        }
        let m = Matcher::planned(&set, &inst);
        for mu in &mus {
            assert_eq!(
                m.head_newly_satisfied(0, t.head(), &inst, &added, mu),
                !is_active(c, &inst, mu),
                "disagreement for {mu}"
            );
        }
    }

    #[test]
    fn planned_and_unplanned_trigger_sets_agree() {
        let set = ConstraintSet::parse(
            "E(X,Y), E(Y,Z) -> E(X,Z)\n\
             S(X) -> E(X,Y)\n\
             E(X,Y), E(X,Z) -> Y = Z",
        )
        .unwrap();
        let inst = Instance::parse("E(a,b). E(b,c). E(a,c). S(a). S(z).").unwrap();
        let planned = Matcher::planned(&set, &inst);
        for (ci, c) in set.enumerate() {
            assert_eq!(
                trigger_keys(&planned, ci, c, &inst, true),
                reference_keys(c, &inst, true),
                "active trigger sets differ on constraint {ci}"
            );
            assert_eq!(
                trigger_keys(&planned, ci, c, &inst, false),
                reference_keys(c, &inst, false),
                "oblivious trigger sets differ on constraint {ci}"
            );
            // The free function is the searcher path.
            let mut free: Vec<_> = active_triggers(c, &inst)
                .iter()
                .map(|mu| normalize(c, mu))
                .collect();
            free.sort();
            assert_eq!(free, reference_keys(c, &inst, true));
        }
    }

    #[test]
    fn triggers_are_deduplicated() {
        // The body has one atom; three matching facts, all violating.
        let set = ConstraintSet::parse("S(X) -> T(X,Y)").unwrap();
        let inst = Instance::parse("S(a). S(b). S(c).").unwrap();
        assert_eq!(active_triggers(&set[0], &inst).len(), 3);
    }
}
