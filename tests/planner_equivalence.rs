//! The planned matcher's core contract: for arbitrary constraint sets and
//! instances, the `chase-plan` join programs enumerate **exactly** the same
//! homomorphism multiset as the unplanned backtracking searcher — for full
//! body enumeration, semi-naive delta re-matching, head activity checks,
//! and delta-seeded head revalidation. Plans change cost, never results;
//! everything the engines' trace equivalence rests on is pinned here at the
//! matcher level, against reference helpers written over the searcher.

use chase_core::homomorphism::{exists_extension, find_all_homs, for_each_hom, unify_atom, Subst};
use chase_core::{Atom, Constraint, ConstraintSet, Instance, Sym, Term};
use chase_corpus::random::{random_instance, random_tgds, RandomInstanceConfig, RandomTgdConfig};
use chase_engine::Matcher;
use chase_plan::Access;
use proptest::prelude::*;

/// Normalized multiset of substitutions (sorted variable bindings, then the
/// whole list sorted) for order-free comparison.
fn multiset(homs: &[Subst]) -> Vec<Vec<(Sym, Term)>> {
    let mut v: Vec<Vec<(Sym, Term)>> = homs.iter().map(|mu| mu.var_bindings()).collect();
    v.sort();
    v
}

fn collect_body(m: &Matcher, ci: usize, inst: &Instance) -> Vec<Subst> {
    let mut out = Vec::new();
    m.for_each_body_hom(ci, inst, &mut |mu| {
        out.push(mu.clone());
        false
    });
    out
}

fn collect_delta(
    m: &Matcher,
    ci: usize,
    set: &ConstraintSet,
    inst: &Instance,
    delta: &[Atom],
) -> Vec<Subst> {
    let mut out = Vec::new();
    m.for_each_delta_match(ci, &set[ci], inst, delta, &mut |mu| {
        out.push(mu.clone());
        false
    });
    out
}

/// `atoms` without the atom at `j`.
fn without(atoms: &[Atom], j: usize) -> Vec<Atom> {
    let mut rest = atoms.to_vec();
    rest.remove(j);
    rest
}

/// Reference body enumeration: the backtracking searcher.
fn reference_body(c: &Constraint, inst: &Instance) -> Vec<Subst> {
    let mut out = Vec::new();
    for_each_hom(c.body(), inst, &Subst::new(), false, &mut |mu| {
        out.push(mu.clone());
        false
    });
    out
}

/// Reference delta enumeration: each body slot unified with each delta
/// atom, the rest of the body completed by the searcher.
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

/// Reference activity of a TGD trigger: no head extension exists.
fn reference_active(head: &[Atom], inst: &Instance, mu: &Subst) -> bool {
    !exists_extension(head, inst, mu)
}

/// Reference head revalidation: some head atom unifies with a delta atom
/// under `mu`, and the searcher extends that to the rest of the head.
fn reference_newly_satisfied(head: &[Atom], inst: &Instance, delta: &[Atom], mu: &Subst) -> bool {
    (0..head.len()).any(|j| {
        delta.iter().any(|a| {
            unify_atom(&head[j], a, mu)
                .is_some_and(|seed| exists_extension(&without(head, j), inst, &seed))
        })
    })
}

/// The whole matcher surface, planned vs the searcher reference, on one
/// workload.
fn assert_matchers_agree(
    set: &ConstraintSet,
    inst: &Instance,
    delta_len: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let planned = Matcher::planned(set, inst);
    let delta: Vec<Atom> = inst.atoms().iter().take(delta_len).cloned().collect();
    for (ci, c) in set.enumerate() {
        // Full-body enumeration: same multiset as the classic searcher.
        let p = collect_body(&planned, ci, inst);
        let u = reference_body(c, inst);
        prop_assert_eq!(
            multiset(&p),
            multiset(&u),
            "body multisets differ for constraint {} of:\n{}\non {}",
            ci,
            set,
            inst
        );
        prop_assert_eq!(
            multiset(&p),
            multiset(&find_all_homs(c.body(), inst)),
            "planned matcher diverges from for_each_hom on constraint {}",
            ci
        );
        // Delta re-matching: same multiset (per-delta-atom multiplicity
        // included — both report a match once per delta atom seeding it).
        let pd = collect_delta(&planned, ci, set, inst, &delta);
        let ud = reference_delta(c, inst, &delta);
        prop_assert_eq!(
            multiset(&pd),
            multiset(&ud),
            "delta multisets differ for constraint {} of:\n{}\non {} with delta {:?}",
            ci,
            set,
            inst,
            delta
        );
        // Head checks: activity and delta-seeded revalidation agree hom by
        // hom.
        let Some(t) = c.as_tgd() else { continue };
        for mu in &u {
            prop_assert_eq!(
                planned.is_active(ci, c, inst, mu),
                reference_active(t.head(), inst, mu),
                "activity differs for constraint {} under {}",
                ci,
                mu
            );
            prop_assert_eq!(
                planned.head_newly_satisfied(ci, t.head(), inst, &delta, mu),
                reference_newly_satisfied(t.head(), inst, &delta, mu),
                "head revalidation differs for constraint {} under {}",
                ci,
                mu
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn planned_matcher_enumerates_the_same_homomorphisms(
        seed in any::<u64>(),
        constraints in 1usize..=4,
        facts in 1usize..24,
        delta_len in 0usize..6,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 3),
            head_atoms: (1, 2),
            existential_prob: 0.35,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 4, seed });
        assert_matchers_agree(&set, &inst, delta_len)?;
    }

    #[test]
    fn planned_matcher_agrees_on_join_heavy_bodies(
        seed in any::<u64>(),
        facts in 4usize..32,
    ) {
        // Wider bodies over fewer predicates: repeated variables and
        // multi-way joins stress the ordering and the row probes.
        let set = random_tgds(&RandomTgdConfig {
            constraints: 3,
            predicates: 2,
            max_arity: 3,
            body_atoms: (2, 4),
            head_atoms: (1, 1),
            existential_prob: 0.2,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let delta_len = facts.min(4);
        assert_matchers_agree(&set, &inst, delta_len)?;
    }
}

/// Nulls in the data (not just constants): plans must treat them as plain
/// ground values, and the corpus families must agree too.
#[test]
fn corpus_and_null_workloads_agree() {
    use chase_corpus::families;
    let mut cases: Vec<(ConstraintSet, Instance)> = vec![
        (families::copy_chain(4), families::chain_source_instance(3)),
        (families::safe_family(3), families::path_instance(4)),
        (
            chase_corpus::paper::example4_sigma(),
            chase_corpus::paper::example5_instance(),
        ),
        (
            chase_corpus::paper::fig9_travel(),
            chase_corpus::random::random_travel_instance(
                &chase_corpus::random::RandomTravelConfig {
                    cities: 6,
                    flights: 14,
                    rails: 8,
                    seed: 5,
                },
            ),
        ),
    ];
    cases.push((
        ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)\nS(X) -> E(X,Y)").unwrap(),
        Instance::parse("E(a,_n0). E(_n0,b). E(b,_n1). S(a). S(_n1).").unwrap(),
    ));
    for (set, inst) in &cases {
        assert_matchers_agree(set, inst, 3).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// A fully bound step (one exact-row probe) and a partly bound arity-3 step
/// (the smallest positional bucket, filtered position by position), each
/// pinned against the unplanned searcher — nulls in the data included.
#[test]
fn probe_and_partly_bound_steps_agree() {
    let set = ConstraintSet::parse(
        "E(X,Y), E(Y,X) -> S(X)\n\
         S(X), E(X,Y), R(X,Y,Z) -> R(Y,W,X)",
    )
    .unwrap();
    let inst = Instance::parse(
        "E(a,b). E(b,a). E(b,c). E(c,_n0). E(_n0,c). S(a). S(c). \
         R(a,b,c). R(a,b,d). R(b,c,a). R(c,_n0,a). R(b,a,c). R(c,_n0,b).",
    )
    .unwrap();
    let planned = Matcher::planned(&set, &inst);
    let steps: Vec<(Access, usize, usize)> = (0..set.len())
        .flat_map(|ci| {
            let p = planned.plans(ci);
            std::iter::once(&p.body)
                .chain(&p.head)
                .flat_map(|prog| &prog.steps)
                .map(|s| (s.access, s.terms.len(), s.bound.len()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(steps.contains(&(Access::Probe, 2, 2)), "{steps:?}");
    assert!(steps.contains(&(Access::Positional, 3, 2)), "{steps:?}");
    assert_matchers_agree(&set, &inst, 4).unwrap_or_else(|e| panic!("{e:?}"));
}

/// Plans survive instance growth across statistics epochs: refresh
/// recompiles, matching stays equivalent at every size.
#[test]
fn refresh_keeps_equivalence_across_epochs() {
    let set = ConstraintSet::parse("E(X,Y), E(Y,Z), S(Z) -> E(X,Z)").unwrap();
    let mut inst = Instance::parse("E(a,b). S(b).").unwrap();
    let mut planned = Matcher::planned(&set, &inst);
    for i in 0..40 {
        inst.insert(Atom::new(
            "E",
            vec![
                Term::constant(&format!("v{i}")),
                Term::constant(&format!("v{}", i + 1)),
            ],
        ));
        if i % 8 == 0 {
            inst.insert(Atom::new("S", vec![Term::constant(&format!("v{i}"))]));
        }
        planned.refresh(&set, &inst);
        let p = collect_body(&planned, 0, &inst);
        assert_eq!(
            multiset(&p),
            multiset(&find_all_homs(set[0].body(), &inst)),
            "divergence after {} inserts",
            i + 1
        );
    }
}
