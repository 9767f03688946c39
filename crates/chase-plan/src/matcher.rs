//! The [`Matcher`]: per-constraint plan cache with stats-epoch invalidation.
//!
//! A matcher is bound to one [`ConstraintSet`] and caches, per constraint
//! id:
//!
//! * the **full-body** program (pool rebuilds, naive re-enumeration),
//! * one **delta-body** program per body slot (the slot's atom pinned to a
//!   delta fact, its variables seeding the rest of the body — the
//!   semi-naive re-matching path),
//! * the **head** program for TGDs (the `exists_extension` activity check,
//!   universal variables seeded),
//! * one **head-rest** program per head slot (delta-seeded revalidation:
//!   the slot's atom unified with a delta fact, the rest completed).
//!
//! Plans are recompiled when the instance's [`Instance::stats_epoch`]
//! changes (each doubling — or merge-driven halving — of the fact count)
//! or when the matcher is handed a different constraint set. Plans only
//! read the store, so its layout never depends on which plans ran. Merges
//! are *not* a recompile trigger on their own: the store maintains its
//! cardinality and distinct-count statistics incrementally through
//! [`Instance::merge_terms`], so a merge that leaves the stats epoch alone
//! leaves the plans exactly as good as they were.
//! Between refreshes the matcher is plain read-only data.
//!
//! The classic backtracking searcher (`chase_core::homomorphism`) is the
//! reference: the tests pin every matcher query against it. Both return
//! the same homomorphism multisets; only enumeration order and cost differ,
//! and the engines' canonical (normalized-key) trigger selection makes
//! traces independent of enumeration order.

use crate::exec::{exists_match, for_each_match, run, seed_regs};
use crate::plan::{compile, JoinProgram};
use chase_core::homomorphism::Subst;
use chase_core::{Atom, Constraint, ConstraintSet, Instance, Sym, Term, TermId};
use chase_obs::{EventKind, Phase, Recorder};

/// Compiled programs for one constraint.
#[derive(Debug, Clone)]
pub struct ConstraintPlans {
    /// Full-body enumeration.
    pub body: JoinProgram,
    /// Per body slot `j`: the body without atom `j`, atom `j`'s variables
    /// seeded.
    pub body_delta: Vec<JoinProgram>,
    /// TGD head, universal variables seeded (`None` for EGDs).
    pub head: Option<JoinProgram>,
    /// Per head slot `j`: the head without atom `j`, universals plus atom
    /// `j`'s variables seeded.
    pub head_rests: Vec<JoinProgram>,
}

fn without(atoms: &[Atom], j: usize) -> Vec<Atom> {
    atoms
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != j)
        .map(|(_, a)| a.clone())
        .collect()
}

fn compile_constraint(c: &Constraint, stats: &Instance) -> ConstraintPlans {
    let body = c.body();
    let body_plan = compile(body, &[], stats);
    let body_delta = (0..body.len())
        .map(|j| compile(&without(body, j), &body[j].vars(), stats))
        .collect();
    let (head, head_rests) = match c {
        Constraint::Tgd(t) => {
            let universals = t.universals();
            let head_plan = compile(t.head(), universals, stats);
            let rests = (0..t.head().len())
                .map(|j| {
                    let mut seed: Vec<Sym> = universals.to_vec();
                    for v in t.head()[j].vars() {
                        if !seed.contains(&v) {
                            seed.push(v);
                        }
                    }
                    compile(&without(t.head(), j), &seed, stats)
                })
                .collect();
            (Some(head_plan), rests)
        }
        Constraint::Egd(_) => (None, Vec::new()),
    };
    ConstraintPlans {
        body: body_plan,
        body_delta,
        head,
        head_rests,
    }
}

/// The plan cache: the compiled programs plus everything needed to
/// decide staleness — the set they were compiled from and the instance
/// statistics stamp at compile time.
#[derive(Debug, Clone)]
struct PlanCache {
    /// The constraint set the plans belong to; compared on refresh so a
    /// matcher handed a different set recompiles instead of silently
    /// executing the wrong programs.
    set: ConstraintSet,
    plans: Vec<ConstraintPlans>,
    /// [`Instance::stats_epoch`] at compile time; `None` forces a
    /// recompile at the next [`Matcher::refresh`].
    stamp: Option<u32>,
    /// How many times the cache has recompiled — the observable behind the
    /// serving layer's "plan caches are reused across update epochs" pin
    /// ([`Matcher::recompile_count`]).
    recompiles: u64,
}

/// The matching engine handle threaded through trigger enumeration: a plan
/// cache for one constraint set.
#[derive(Debug, Clone)]
pub struct Matcher {
    cache: PlanCache,
    /// Telemetry sink for plan-compile timings and recompile events;
    /// write-only (never consulted by planning), so it cannot perturb plan
    /// choice or enumeration order. Disabled by default.
    recorder: Recorder,
}

impl Matcher {
    /// A matcher for `set`, compiled against `inst`'s current
    /// statistics.
    pub fn planned(set: &ConstraintSet, inst: &Instance) -> Matcher {
        Matcher::planned_with(set, inst, Recorder::disabled())
    }

    /// [`Matcher::planned`], with a telemetry recorder installed before the
    /// initial compile so the first `PlanCompile` phase is captured too.
    pub fn planned_with(set: &ConstraintSet, inst: &Instance, recorder: Recorder) -> Matcher {
        let mut m = Matcher {
            cache: PlanCache {
                set: set.clone(),
                plans: Vec::new(),
                stamp: None,
                recompiles: 0,
            },
            recorder,
        };
        m.refresh(set, inst);
        m
    }

    /// Install a telemetry recorder (timing of future plan compiles).
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The compiled plans for constraint `ci` (for `EXPLAIN` dumps and
    /// tests).
    pub fn plans(&self, ci: usize) -> &ConstraintPlans {
        &self.cache.plans[ci]
    }

    /// How many times the plan cache has recompiled. A stable count across
    /// calls that *could* have recompiled — e.g. update batches that only
    /// duplicate existing facts — is the observable the serving layer's
    /// plan-cache-reuse tests pin.
    pub fn recompile_count(&self) -> u64 {
        self.cache.recompiles
    }

    /// Force recompilation at the next [`Matcher::refresh`].
    pub fn invalidate(&mut self) {
        self.cache.stamp = None;
    }

    /// Recompile the plans if they are stale — the instance's statistics
    /// epoch moved (a fact-count doubling, or a merge collapsing the count
    /// past a power of two), the constraint set differs from the one
    /// compiled for, or [`Matcher::invalidate`] was called. Merges alone
    /// don't invalidate: the store keeps its statistics current through
    /// [`Instance::merge_terms`]. Returns `true` if a recompile happened.
    ///
    /// Stale plans compiled from the *same* set are never incorrect — the
    /// executor re-verifies every candidate — so skipping refresh only
    /// costs speed. A changed set, however, would execute the wrong
    /// programs, which is why refresh compares it.
    pub fn refresh(&mut self, set: &ConstraintSet, inst: &Instance) -> bool {
        let cache = &mut self.cache;
        let stamp = inst.stats_epoch();
        // The structural set comparison runs on every call, including the
        // per-step fast path — deliberately: a same-length different set
        // with an unchanged stamp would otherwise keep executing the wrong
        // programs, and constraint sets are at most dozens of small atoms
        // (`Vec` equality length-checks first), which is noise next to one
        // chase step's matching work.
        if cache.stamp == Some(stamp) && cache.set == *set {
            return false;
        }
        if cache.set != *set {
            cache.set = set.clone();
        }
        let _t = self.recorder.phase(Phase::PlanCompile);
        cache.plans = set.iter().map(|c| compile_constraint(c, inst)).collect();
        cache.recompiles += 1;
        self.recorder
            .event(EventKind::PlanRecompile, cache.recompiles, u64::from(stamp));
        cache.stamp = Some(stamp);
        true
    }

    /// Enumerate every body homomorphism of constraint `ci` extending the
    /// empty substitution. Same set as
    /// `chase_core::homomorphism::for_each_hom(body, inst, ..)`; order is
    /// plan-dependent.
    pub fn for_each_body_hom(
        &self,
        ci: usize,
        inst: &Instance,
        cb: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        for_each_match(&self.cache.plans[ci].body, inst, &Subst::new(), cb)
    }

    /// Semi-naive delta enumeration for constraint `ci`: every body
    /// homomorphism mapping at least one body atom onto an atom of `delta`
    /// (a subset of `inst`). Each body slot is pinned to each delta atom in
    /// turn and the rest of the body is completed by the matcher, so the
    /// cost scales with the delta, not the instance. A match using several
    /// delta atoms is reported once per delta atom it uses; callers
    /// deduplicate by normalized assignment.
    ///
    /// Pinning binds the slot program's registers straight from the delta
    /// atom's term ids; the slot's variables the rest of the body does not
    /// mention ride along in the reported substitution.
    pub fn for_each_delta_match(
        &self,
        ci: usize,
        c: &Constraint,
        inst: &Instance,
        delta: &[Atom],
        cb: &mut dyn FnMut(&Subst) -> bool,
    ) -> bool {
        for (j, pattern) in c.body().iter().enumerate() {
            let prog = &self.cache.plans[ci].body_delta[j];
            for a in delta.iter().filter(|a| same_shape(pattern, a)) {
                let pin = |regs: &mut [Option<TermId>], out: &mut Subst| {
                    pin_atom(prog, pattern, a, regs, &mut |v, t| match out.var(v) {
                        Some(bound) => bound == t,
                        None => {
                            out.bind_var(v, t);
                            true
                        }
                    })
                };
                if run(prog, inst, pin, Some(&mut *cb)) {
                    return true;
                }
            }
        }
        false
    }

    /// Can the TGD head of constraint `ci` be satisfied under `mu` — the
    /// `exists_extension` activity check.
    ///
    /// # Panics
    /// Panics if `ci` is not a TGD (EGDs have no head plan).
    pub fn head_satisfiable(&self, ci: usize, inst: &Instance, mu: &Subst) -> bool {
        let head = self.cache.plans[ci].head.as_ref();
        exists_match(head.expect("head plan for a TGD"), inst, mu)
    }

    /// Is `(ci, µ)` an active (standard-chase) trigger? Assumes `µ` maps the
    /// body into `inst` — the matcher-aware form of
    /// `chase_engine::trigger::is_active`.
    pub fn is_active(&self, ci: usize, c: &Constraint, inst: &Instance, mu: &Subst) -> bool {
        match c {
            Constraint::Tgd(_) => !self.head_satisfiable(ci, inst, mu),
            Constraint::Egd(e) => mu.var(e.left()) != mu.var(e.right()),
        }
    }

    /// Did adding `added` (already inserted into `inst`) newly satisfy the
    /// TGD head of `ci` under the pooled trigger `mu`? Delta-seeded, like
    /// the body re-match: a *new* head extension must map at least one head
    /// atom onto a delta atom, so only those pairs are tried, each completed
    /// by the slot's head-rest program from registers bound straight from
    /// `mu` and the delta atom's term ids.
    pub fn head_newly_satisfied(
        &self,
        ci: usize,
        head: &[Atom],
        inst: &Instance,
        added: &[Atom],
        mu: &Subst,
    ) -> bool {
        head.iter().enumerate().any(|(j, h)| {
            let prog = &self.cache.plans[ci].head_rests[j];
            added.iter().filter(|a| same_shape(h, a)).any(|a| {
                let pin = |regs: &mut [Option<TermId>], _: &mut Subst| {
                    seed_regs(prog, mu, regs);
                    pin_atom(prog, h, a, regs, &mut |v, t| match mu.var(v) {
                        Some(bound) => bound == t,
                        // An existential only this head atom mentions: it
                        // must read alike at each of its positions.
                        None => h
                            .terms()
                            .iter()
                            .zip(a.terms())
                            .all(|(&p, &f)| p != Term::Var(v) || f == t),
                    })
                };
                run(prog, inst, pin, None)
            })
        })
    }
}

/// Same predicate and arity: the cheap test before pinning.
fn same_shape(pattern: &Atom, fact: &Atom) -> bool {
    pattern.pred() == fact.pred() && pattern.arity() == fact.arity()
}

/// Unify `pattern` with the ground atom `fact` into `prog`'s registers:
/// a variable with a register binds it (or must agree with its binding),
/// a variable without one goes to `loose`, and a ground pattern term must
/// equal the fact's. `false` if they do not unify.
fn pin_atom(
    prog: &JoinProgram,
    pattern: &Atom,
    fact: &Atom,
    regs: &mut [Option<TermId>],
    loose: &mut dyn FnMut(Sym, Term) -> bool,
) -> bool {
    pattern
        .terms()
        .iter()
        .zip(fact.terms())
        .all(|(&p, &f)| match p {
            Term::Var(v) => match prog.reg_of(v) {
                Some(r) => {
                    // As in a seed: a non-ground term matches no stored fact.
                    let id = TermId::from_ground(f).unwrap_or(TermId::NEVER);
                    *regs[r as usize].get_or_insert(id) == id
                }
                None => loose(v, f),
            },
            ground => ground == f,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::homomorphism::{exists_extension, find_all_homs, for_each_hom, unify_atom};

    /// Reference delta enumeration: each body slot unified with each delta
    /// atom, the rest of the body completed by the backtracking searcher.
    fn reference_delta(c: &Constraint, inst: &Instance, delta: &[Atom]) -> Vec<Subst> {
        let mut out = Vec::new();
        for (j, pattern) in c.body().iter().enumerate() {
            let rest = without(c.body(), j);
            for a in delta {
                if let Some(mu0) = unify_atom(pattern, a, &Subst::new()) {
                    for_each_hom(&rest, inst, &mu0, false, &mut |mu| {
                        out.push(mu.clone());
                        false
                    });
                }
            }
        }
        out
    }

    /// Reference activity: the searcher's head-extension check.
    fn reference_active(c: &Constraint, inst: &Instance, mu: &Subst) -> bool {
        match c {
            Constraint::Tgd(t) => !exists_extension(t.head(), inst, mu),
            Constraint::Egd(e) => mu.var(e.left()) != mu.var(e.right()),
        }
    }

    /// Reference head revalidation: some head atom unifies with an added
    /// atom under `mu`, and the searcher extends that to the rest of the
    /// head.
    fn reference_newly_satisfied(
        head: &[Atom],
        inst: &Instance,
        added: &[Atom],
        mu: &Subst,
    ) -> bool {
        (0..head.len()).any(|j| {
            added.iter().any(|a| {
                unify_atom(&head[j], a, mu)
                    .is_some_and(|seed| exists_extension(&without(head, j), inst, &seed))
            })
        })
    }

    fn sorted_bindings(homs: Vec<Subst>) -> Vec<Vec<(Sym, Term)>> {
        let mut v: Vec<Vec<(Sym, Term)>> = homs.into_iter().map(|m| m.var_bindings()).collect();
        v.sort();
        v
    }

    #[test]
    fn planned_and_unplanned_matchers_agree() {
        let set = ConstraintSet::parse(
            "E(X,Y), E(Y,Z) -> E(X,Z)\n\
             S(X), E(X,Y) -> E(Y,X)\n\
             E(X,Y), E(X,Z) -> Y = Z",
        )
        .unwrap();
        let inst = Instance::parse("E(a,b). E(b,c). E(c,d). E(a,c). S(a). S(c).").unwrap();
        let planned = Matcher::planned(&set, &inst);
        for (ci, c) in set.enumerate() {
            let mut a = Vec::new();
            planned.for_each_body_hom(ci, &inst, &mut |mu| {
                a.push(mu.clone());
                false
            });
            let mut b = Vec::new();
            for_each_hom(c.body(), &inst, &Subst::new(), false, &mut |mu| {
                b.push(mu.clone());
                false
            });
            assert_eq!(
                sorted_bindings(a.clone()),
                sorted_bindings(b),
                "body homs differ on constraint {ci}"
            );
            assert_eq!(
                sorted_bindings(a),
                sorted_bindings(find_all_homs(c.body(), &inst)),
                "planned matcher diverges from find_all_homs on {ci}"
            );
            // Activity agrees hom by hom.
            for mu in find_all_homs(c.body(), &inst) {
                assert_eq!(
                    planned.is_active(ci, c, &inst, &mu),
                    reference_active(c, &inst, &mu)
                );
            }
        }
    }

    #[test]
    fn delta_matching_agrees_and_counts_multiplicity() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let inst = Instance::parse("E(a,b). E(b,c). E(c,d).").unwrap();
        let delta = vec![Atom::new(
            "E",
            vec![Term::constant("b"), Term::constant("c")],
        )];
        let planned = Matcher::planned(&set, &inst);
        let mut out = Vec::new();
        planned.for_each_delta_match(0, &set[0], &inst, &delta, &mut |mu| {
            out.push(mu.clone());
            false
        });
        let a = sorted_bindings(out);
        let b = sorted_bindings(reference_delta(&set[0], &inst, &delta));
        assert_eq!(a, b);
        // E(b,c) seeds both slots: (a,b,c) via slot 1 and (b,c,d) via slot 0.
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn refresh_recompiles_on_staleness_only() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c).").unwrap();
        let mut m = Matcher::planned(&set, &inst);
        assert_eq!(m.recompile_count(), 1, "planned() compiles once");
        assert!(!m.refresh(&set, &inst), "same stamp: no recompile");
        assert_eq!(m.recompile_count(), 1);
        inst.insert(Atom::new(
            "E",
            vec![Term::constant("c"), Term::constant("d")],
        ));
        inst.insert(Atom::new(
            "E",
            vec![Term::constant("d"), Term::constant("e")],
        ));
        assert!(m.refresh(&set, &inst), "len doubled: epoch moved");
        // A merge that keeps the fact count inside the same epoch does NOT
        // recompile — the store's statistics are maintained incrementally,
        // so the compiled plans are as good as they were.
        inst.insert(Atom::new("E", vec![Term::constant("d"), Term::null(0)]));
        m.refresh(&set, &inst);
        let before = m.recompile_count();
        let eff = inst.merge_terms(Term::null(0), Term::constant("e"));
        assert_eq!(eff.collapsed, 1, "E(d,_n0) collapses onto E(d,e)");
        assert!(!m.refresh(&set, &inst), "same-epoch merge: no recompile");
        assert_eq!(m.recompile_count(), before);
        m.invalidate();
        assert!(m.refresh(&set, &inst), "invalidate forces recompile");
        assert_eq!(m.recompile_count(), before + 1, "one count per recompile");
    }

    #[test]
    fn no_occurrence_merge_is_invisible_to_plans() {
        // Satellite regression: merging away a term that occurs in no fact
        // must be a true no-op — no version bump, no recompile.
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut inst = Instance::parse("E(a,b). E(b,c).").unwrap();
        let mut m = Matcher::planned(&set, &inst);
        let before = m.recompile_count();
        let version = inst.version();
        let eff = inst.merge_terms(Term::null(7), Term::constant("b"));
        assert!(eff.is_noop());
        assert_eq!(inst.version(), version, "no-op merge leaves the version");
        assert!(!m.refresh(&set, &inst), "no-op merge: nothing to refresh");
        assert_eq!(m.recompile_count(), before);
    }

    #[test]
    fn refresh_recompiles_for_a_different_set() {
        // Same length, different constraints: the cache must not keep the
        // old programs.
        let set_a = ConstraintSet::parse("E(X,Y) -> E(Y,X)").unwrap();
        let set_b = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let inst = Instance::parse("E(a,b). S(a). S(b).").unwrap();
        let mut m = Matcher::planned(&set_a, &inst);
        assert!(m.refresh(&set_b, &inst), "set change forces recompile");
        let mut homs = Vec::new();
        m.for_each_body_hom(0, &inst, &mut |mu| {
            homs.push(mu.var_bindings());
            false
        });
        homs.sort();
        assert_eq!(homs.len(), 2, "S(X) matches S(a), S(b)");
        assert!(!m.refresh(&set_b, &inst), "now in sync with set_b");
    }

    #[test]
    fn head_revalidation_matches_activity_flip() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), T(Y)").unwrap();
        let c = &set[0];
        let t = c.as_tgd().unwrap();
        let mut inst = Instance::parse("S(a). S(b).").unwrap();
        let planned = Matcher::planned(&set, &inst);
        let mut mus = Vec::new();
        planned.for_each_body_hom(0, &inst, &mut |mu| {
            mus.push(mu.clone());
            false
        });
        assert_eq!(mus.len(), 2);
        let added = vec![
            Atom::new("E", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("T", vec![Term::constant("b")]),
        ];
        for a in &added {
            inst.insert(a.clone());
        }
        for mu in &mus {
            let newly = planned.head_newly_satisfied(0, t.head(), &inst, &added, mu);
            assert_eq!(
                newly,
                !planned.is_active(0, c, &inst, mu),
                "revalidation and activity disagree for {mu}"
            );
            assert_eq!(
                newly,
                reference_newly_satisfied(t.head(), &inst, &added, mu)
            );
        }
    }
}
