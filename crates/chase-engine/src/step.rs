//! Single chase steps.
//!
//! A TGD step extends the trigger homomorphism `µ` to `ν` by assigning a
//! fresh labeled null to every existential variable and adds `ν(head)`.
//! An EGD step merges the two equated terms — replacing a labeled null by
//! the other term — or **fails** when both are distinct constants
//! (Section 2).

use chase_core::homomorphism::Subst;
use chase_core::{Atom, Constraint, Instance, MergeEffect, Term};

/// What a single chase step did to the instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEffect {
    /// A TGD fired: these atoms of `ν(head)` were new to the instance (the
    /// rest were already present) and these fresh nulls were invented for
    /// the existential variables, in declaration order.
    Tgd {
        /// Atoms newly added to the instance.
        added: Vec<Atom>,
        /// Fresh nulls, one per existential variable.
        fresh_nulls: Vec<Term>,
    },
    /// An EGD fired and merged `from` into `to` (`from` was a labeled
    /// null). Carries the store's [`MergeEffect`]: the surviving rewritten
    /// fact ids (the merge's delta) and the collapse count, which the
    /// delta engine uses to repair its trigger pool without a rebuild.
    Merged(MergeEffect),
    /// An EGD tried to equate two distinct constants: the chase fails and the
    /// result is undefined.
    Failed,
    /// The step was a no-op (e.g. an oblivious EGD step on an already-equal
    /// pair).
    NoOp,
}

/// Apply one chase step for `(c, µ)` to `inst`.
///
/// The caller is responsible for `µ` being a body homomorphism; standard
/// versus oblivious discipline (whether `µ` must violate `c`) is a property
/// of *trigger selection*, not of the step itself — an oblivious step on a
/// satisfied TGD trigger still invents fresh nulls and adds the head.
pub fn apply_step(inst: &mut Instance, c: &Constraint, mu: &Subst) -> StepEffect {
    match c {
        Constraint::Tgd(t) => {
            let fresh: Vec<Term> = t.existentials().iter().map(|_| inst.fresh_null()).collect();
            // ν extends µ by the fresh nulls; each head atom is built once,
            // inserted by reference and kept only if it was new.
            let nu = |x: Term| match x {
                Term::Var(v) => match t.existentials().iter().position(|&y| y == v) {
                    Some(i) => fresh[i],
                    None => mu.apply(x),
                },
                ground => ground,
            };
            let mut added = Vec::new();
            for h in t.head() {
                let a = h.map_terms(&nu);
                if inst.insert(&a) {
                    added.push(a);
                }
            }
            StepEffect::Tgd {
                added,
                fresh_nulls: fresh,
            }
        }
        Constraint::Egd(e) => {
            let a = mu.var(e.left()).expect("EGD trigger binds left variable");
            let b = mu.var(e.right()).expect("EGD trigger binds right variable");
            if a == b {
                return StepEffect::NoOp;
            }
            // Paper rule: replace µ(x_j) when it is a null, else replace
            // µ(x_i) when it is a null, else the chase fails.
            let (from, to) = if b.is_null() {
                (b, a)
            } else if a.is_null() {
                (a, b)
            } else {
                return StepEffect::Failed;
            };
            StepEffect::Merged(inst.merge_terms(from, to))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trigger::first_active_trigger;
    use chase_core::ConstraintSet;

    #[test]
    fn tgd_step_adds_head_with_fresh_nulls() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
        let mut inst = Instance::parse("S(a).").unwrap();
        let mu = first_active_trigger(&set[0], &inst).unwrap();
        let eff = apply_step(&mut inst, &set[0], &mu);
        match eff {
            StepEffect::Tgd {
                added, fresh_nulls, ..
            } => {
                assert_eq!(added.len(), 2);
                assert_eq!(fresh_nulls.len(), 1);
                assert!(fresh_nulls[0].is_null());
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(inst.len(), 3);
    }

    #[test]
    fn egd_step_merges_null_into_constant() {
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut inst = Instance::parse("E(a,b). E(a,_n0).").unwrap();
        let mu = first_active_trigger(&set[0], &inst).unwrap();
        let eff = apply_step(&mut inst, &set[0], &mu);
        match eff {
            StepEffect::Merged(m) => {
                assert!(m.from.is_null());
                assert_eq!(m.to, Term::constant("b"));
                // E(a,_n0) rewrote to E(a,b), which the earlier fact
                // already carries, so it collapsed and nothing survives
                // as delta.
                assert!(m.rewritten.is_empty());
                assert_eq!(m.collapsed, 1);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(inst.len(), 1);
    }

    #[test]
    fn egd_step_fails_on_two_constants() {
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut inst = Instance::parse("E(a,b). E(a,c).").unwrap();
        let mu = first_active_trigger(&set[0], &inst).unwrap();
        assert_eq!(apply_step(&mut inst, &set[0], &mu), StepEffect::Failed);
    }

    #[test]
    fn egd_prefers_replacing_the_right_null() {
        // Both sides nulls: the paper replaces µ(x_j) (the right-hand side).
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut inst = Instance::parse("E(a,_n0). E(a,_n1).").unwrap();
        let mu = first_active_trigger(&set[0], &inst).unwrap();
        match apply_step(&mut inst, &set[0], &mu) {
            StepEffect::Merged(m) => {
                assert!(m.from.is_null() && m.to.is_null());
                assert_ne!(m.from, m.to);
            }
            other => panic!("unexpected effect {other:?}"),
        }
        assert_eq!(inst.len(), 1);
    }
}
