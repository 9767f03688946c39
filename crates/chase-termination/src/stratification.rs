//! Stratification (Definition 3), c-stratification (Definition 5) and the
//! terminating-order construction of Theorem 2.
//!
//! A set is (c-)stratified when the constraints of every cycle of its
//! (c-)chase graph are weakly acyclic; following the paper's own algorithms
//! (Prop. 1, Thm. 2, Figs. 7/8) this is checked per non-trivial strongly
//! connected component (see DESIGN.md §4.3).
//!
//! The paper's corrected reading of stratification (Theorem 1/2): it does
//! **not** guarantee termination of every chase sequence (Example 4), but a
//! terminating sequence exists and can be constructed statically — chase the
//! strongly connected components of `G(Σ)` in topological order
//! ([`stratified_order`]), feeding `chase_engine::Strategy::Phased`.

use crate::chasegraph::{c_chase_graph, chase_graph, ChaseGraph};
use crate::depgraph::is_weakly_acyclic;
use crate::hierarchy::Recognition;
use crate::precedence::PrecedenceConfig;
use chase_core::ConstraintSet;

fn stratified_via(set: &ConstraintSet, g: &ChaseGraph) -> Recognition {
    for comp in g.graph.nontrivial_sccs() {
        if !is_weakly_acyclic(&set.subset(&comp)) {
            // A violating component is definite only when none of its edges
            // was added conservatively.
            let conservative = g
                .unknown_edges
                .iter()
                .any(|&(a, b)| comp.contains(&a) && comp.contains(&b));
            return if conservative {
                Recognition::Unknown
            } else {
                Recognition::No
            };
        }
    }
    // All components weakly acyclic. Conservative extra edges only merge
    // components, and weak acyclicity is closed under subsets, so a "yes"
    // here is sound even when the oracle gave up somewhere.
    Recognition::Yes
}

/// Is `Σ` stratified (Definition 3)?
///
/// Note (Theorem 1): stratification guarantees the existence of *some*
/// terminating chase sequence, not termination of every sequence.
pub fn is_stratified(set: &ConstraintSet, cfg: &PrecedenceConfig) -> Recognition {
    stratified_via(set, &chase_graph(set, cfg))
}

/// Is `Σ` c-stratified (Definition 5)? C-stratification guarantees
/// termination of **every** chase sequence in polynomial data complexity
/// (Theorem 3).
pub fn is_c_stratified(set: &ConstraintSet, cfg: &PrecedenceConfig) -> Recognition {
    stratified_via(set, &c_chase_graph(set, cfg))
}

/// The terminating chase order of Theorem 2: strongly connected components
/// of the chase graph `G(Σ)` in topological order, as phases of constraint
/// indices (trivial components become singleton phases).
///
/// For a stratified `Σ`, chasing these phases to completion in order
/// (e.g. with `chase_engine::Strategy::Phased`) terminates on every
/// instance, in polynomially many steps.
pub fn stratified_order(set: &ConstraintSet, cfg: &PrecedenceConfig) -> Vec<Vec<usize>> {
    chase_graph(set, cfg).graph.sccs_topological()
}

/// Phase metadata for `chase_engine::Strategy::Phased`: which constraint
/// groups to chase in which order, and whether that order carries Theorem
/// 2's termination guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSchedule {
    /// Constraint-index groups in execution order. For a stratified set these
    /// are the chase-graph SCCs in topological order ([`stratified_order`]);
    /// otherwise a single phase containing every constraint.
    pub phases: Vec<Vec<usize>>,
    /// The stratification verdict behind the schedule. Only
    /// [`Recognition::Yes`] makes the phase order a Theorem 2 terminating
    /// order; `No`/`Unknown` schedules are the single-phase fallback and give
    /// no termination guarantee.
    pub stratified: Recognition,
}

impl PhaseSchedule {
    /// The trivial schedule: every constraint in one phase (what an
    /// unstratified set falls back to).
    pub fn single_phase(constraints: usize) -> PhaseSchedule {
        PhaseSchedule {
            phases: vec![(0..constraints).collect()],
            stratified: Recognition::No,
        }
    }

    /// Number of scheduled phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// True iff the schedule has no phases (empty constraint set).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// Build the execution schedule for `Σ`: the Theorem 2 SCC-topological phase
/// order when `Σ` is recognizably stratified, and the single-phase fallback
/// otherwise (`No` *and* `Unknown` — an oracle giving up must not be treated
/// as a termination guarantee).
///
/// Either way the schedule covers every constraint exactly once, so running
/// its phases with `chase_engine::Strategy::Phased` under either engine
/// (`chase` or the `chase_naive` reference) preserves the "chase until
/// satisfied" contract; stratification only decides whether Theorem 2
/// additionally promises termination. The umbrella `chase` crate's docs
/// show the composition end to end.
pub fn phase_schedule(set: &ConstraintSet, cfg: &PrecedenceConfig) -> PhaseSchedule {
    let stratified = is_stratified(set, cfg);
    if stratified == Recognition::Yes {
        PhaseSchedule {
            phases: stratified_order(set, cfg),
            stratified,
        }
    } else {
        PhaseSchedule {
            phases: vec![(0..set.len()).collect()],
            stratified,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PrecedenceConfig {
        PrecedenceConfig::default()
    }

    fn parse(text: &str) -> ConstraintSet {
        ConstraintSet::parse(text).unwrap()
    }

    fn example4() -> ConstraintSet {
        parse(
            "R(X1) -> S(X1,X1)\n\
             S(X1,X2) -> T(X2,Z)\n\
             S(X1,X2) -> T(X1,X2), T(X2,X1)\n\
             T(X1,X2), T(X1,X3), T(X3,X1) -> R(X2)",
        )
    }

    #[test]
    fn example3_gamma_is_stratified_but_not_weakly_acyclic() {
        let s = parse("E(X1,X2), E(X2,X1) -> E(X1,Y1), E(Y1,Y2), E(Y2,X1)");
        assert!(!is_weakly_acyclic(&s));
        assert_eq!(is_stratified(&s, &cfg()), Recognition::Yes);
        assert_eq!(is_c_stratified(&s, &cfg()), Recognition::Yes);
    }

    #[test]
    fn example4_is_stratified_but_not_c_stratified() {
        // The paper's counterexample to the original stratification claim.
        let s = example4();
        assert_eq!(is_stratified(&s, &cfg()), Recognition::Yes);
        assert_eq!(is_c_stratified(&s, &cfg()), Recognition::No);
    }

    #[test]
    fn weakly_acyclic_sets_are_stratified() {
        for text in [
            "E(X,Y) -> E(Y,X)",
            "S(X) -> E(X,Y)",
            "src(X,Y) -> dst(X,Y)\ndst(X,Y) -> link(X,Z)",
        ] {
            let s = parse(text);
            assert!(is_weakly_acyclic(&s));
            assert_eq!(is_stratified(&s, &cfg()), Recognition::Yes, "{text}");
            assert_eq!(is_c_stratified(&s, &cfg()), Recognition::Yes, "{text}");
        }
    }

    #[test]
    fn intro_alpha2_not_stratified() {
        // S(x) → ∃y E(x,y), S(y) self-precedes and is not weakly acyclic.
        let s = parse("S(X) -> E(X,Y), S(Y)");
        assert_eq!(is_stratified(&s, &cfg()), Recognition::No);
        assert_eq!(is_c_stratified(&s, &cfg()), Recognition::No);
    }

    #[test]
    fn example4_order_puts_cycle_before_alpha2() {
        // Example 5 / Theorem 2: the cycle {α1, α3, α4} must be chased
        // before α2 (α2 is a sink, so it comes last in topological order of
        // predecessors… precisely: the component {α1,α3,α4} precedes {α2}).
        let order = stratified_order(&example4(), &cfg());
        let pos_of = |ci: usize| order.iter().position(|ph| ph.contains(&ci)).unwrap();
        assert!(pos_of(0) < pos_of(1));
        assert_eq!(order.iter().map(Vec::len).sum::<usize>(), 4);
        // α1, α3, α4 form one phase.
        assert!(order.iter().any(|ph| ph == &vec![0, 2, 3]));
    }

    #[test]
    fn phase_schedule_uses_theorem2_order_when_stratified() {
        let s = example4();
        let sched = phase_schedule(&s, &cfg());
        assert_eq!(sched.stratified, Recognition::Yes);
        assert_eq!(sched.phases, stratified_order(&s, &cfg()));
        assert!(sched.len() >= 2);
    }

    #[test]
    fn phase_schedule_falls_back_to_single_phase() {
        // α2 is unstratified: one phase holding every constraint, no
        // termination claim.
        let s = parse("S(X) -> E(X,Y), S(Y)\nE(X,Y) -> T(Y)");
        let sched = phase_schedule(&s, &cfg());
        assert_ne!(sched.stratified, Recognition::Yes);
        assert_eq!(sched.phases, vec![vec![0, 1]]);
        assert_eq!(sched, {
            let mut single = PhaseSchedule::single_phase(2);
            single.stratified = sched.stratified;
            single
        });
    }

    #[test]
    fn phase_schedule_covers_every_constraint_once() {
        for text in [
            "S(X) -> E(X,Y)",
            "S(X) -> E(X,Y), S(Y)",
            "R(X1) -> S(X1,X1)\nS(X1,X2) -> T(X2,Z)",
        ] {
            let s = parse(text);
            let sched = phase_schedule(&s, &cfg());
            let mut seen: Vec<usize> = sched.phases.iter().flatten().copied().collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..s.len()).collect::<Vec<_>>(), "{text}");
        }
    }

    #[test]
    fn thm4_safe_set_is_not_stratified() {
        // {α, β} from the proof of Theorem 4(c): safe but not stratified.
        let s = parse(
            "S(X2,X3), R(X1,X2,X3) -> R(X2,Y,X1)\n\
             R(X1,X2,X3) -> S(X1,X3)",
        );
        assert!(crate::propgraph::is_safe(&s));
        assert_eq!(is_stratified(&s, &cfg()), Recognition::No);
    }
}
