//! Equivalence of the two engines: naive re-enumeration and the
//! delta-driven trigger queue.
//!
//! The delta-driven trigger queue promises *identical semantics* to naive
//! per-step re-enumeration — same trigger fired at every step, so the same
//! trace, step count, fresh-null count, and final instance — under every
//! strategy, including Theorem 2's phase order (`Strategy::Phased` over
//! `phase_schedule`). These tests hold
//! the engines against each other over the `chase-corpus` random families
//! and the named corpus families, across strategies and chase modes. On
//! terminating runs the results must additionally be homomorphically
//! equivalent (they are in fact equal, which is stronger; the hom check
//! guards the contract the chase actually promises).

use chase_core::homomorphism::hom_equivalent;
use chase_corpus::families;
use chase_corpus::random::{
    merge_storm_sigma, merge_storm_stream, random_egd_mix, random_instance, random_tgds,
    MergeStormConfig, RandomInstanceConfig, RandomTgdConfig,
};
use chase_engine::{
    chase, chase_naive, chase_resume, ChaseConfig, ChaseMode, EngineState, Strategy,
};
use chase_termination::{phase_schedule, PhaseSchedule, PrecedenceConfig, Recognition};
use proptest::prelude::*;

fn assert_equivalent(
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
    cfg: &ChaseConfig,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut cfg = cfg.clone();
    cfg.keep_trace = true;
    let fast = chase(inst, set, &cfg);
    let slow = chase_naive(inst, set, &cfg);
    prop_assert_eq!(
        &fast.reason,
        &slow.reason,
        "engines disagree on stop reason for:\n{}\non {}",
        set,
        inst
    );
    prop_assert_eq!(
        fast.steps,
        slow.steps,
        "engines disagree on step count for:\n{}\non {}",
        set,
        inst
    );
    prop_assert_eq!(
        fast.fresh_nulls,
        slow.fresh_nulls,
        "engines disagree on fresh nulls for:\n{}\non {}",
        set,
        inst
    );
    for (i, (a, b)) in fast.trace.iter().zip(&slow.trace).enumerate() {
        prop_assert_eq!(
            a.constraint,
            b.constraint,
            "step {} fired different constraints for:\n{}\non {}",
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &a.assignment,
            &b.assignment,
            "step {} fired different assignments for:\n{}\non {}",
            i,
            set,
            inst
        );
    }
    prop_assert_eq!(
        &fast.instance,
        &slow.instance,
        "engines disagree on the final instance for:\n{}\non {}",
        set,
        inst
    );
    if fast.terminated() {
        prop_assert!(
            hom_equivalent(&fast.instance, &slow.instance),
            "terminating results not hom-equivalent for:\n{}\non {}",
            set,
            inst
        );
    }
    Ok(())
}

/// Trace equality between two results of the same run configuration.
fn assert_traces_equal(
    label: &str,
    a: &chase_engine::ChaseResult,
    b: &chase_engine::ChaseResult,
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(
        &a.reason,
        &b.reason,
        "{}: stop reason differs for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.steps,
        b.steps,
        "{}: step count differs for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.fresh_nulls,
        b.fresh_nulls,
        "{}: fresh nulls differ for:\n{}\non {}",
        label,
        set,
        inst
    );
    prop_assert_eq!(
        a.trace.len(),
        b.trace.len(),
        "{}: trace length differs",
        label
    );
    for (i, (x, y)) in a.trace.iter().zip(&b.trace).enumerate() {
        prop_assert_eq!(
            x.constraint,
            y.constraint,
            "{}: step {} fired different constraints for:\n{}\non {}",
            label,
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &x.assignment,
            &y.assignment,
            "{}: step {} fired different assignments for:\n{}\non {}",
            label,
            i,
            set,
            inst
        );
        prop_assert_eq!(
            &x.added,
            &y.added,
            "{}: step {} added different atoms",
            label,
            i
        );
        prop_assert_eq!(
            &x.fresh_nulls,
            &y.fresh_nulls,
            "{}: step {} invented different nulls",
            label,
            i
        );
        prop_assert_eq!(
            &x.merged,
            &y.merged,
            "{}: step {} merged differently",
            label,
            i
        );
    }
    prop_assert_eq!(
        &a.instance,
        &b.instance,
        "{}: final instances differ for:\n{}\non {}",
        label,
        set,
        inst
    );
    Ok(())
}

/// The two-way check under the set's phase schedule: naive and delta must
/// replay the same trace.
fn assert_two_way(
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
    max_steps: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let schedule = phase_schedule(set, &PrecedenceConfig::default());
    assert_two_way_phased(set, inst, &schedule.phases, max_steps)
}

/// [`assert_two_way`] under explicitly given phases.
fn assert_two_way_phased(
    set: &chase_core::ConstraintSet,
    inst: &chase_core::Instance,
    phases: &[Vec<usize>],
    max_steps: usize,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let cfg = ChaseConfig {
        strategy: Strategy::Phased(phases.to_vec()),
        max_steps: Some(max_steps),
        keep_trace: true,
        ..ChaseConfig::default()
    };
    let delta = chase(inst, set, &cfg);
    let naive = chase_naive(inst, set, &cfg);
    assert_traces_equal("naive vs delta", &naive, &delta, set, inst)?;
    if delta.terminated() {
        prop_assert!(
            hom_equivalent(&delta.instance, &naive.instance),
            "terminating results not hom-equivalent for:\n{}\non {}",
            set,
            inst
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn random_families_agree_round_robin(
        seed in any::<u64>(),
        constraints in 1usize..=4,
        facts in 1usize..10,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 2),
            existential_prob: 0.35,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 4, seed });
        assert_equivalent(&set, &inst, &ChaseConfig::with_max_steps(300))?;
    }

    #[test]
    fn random_families_agree_random_strategy(
        seed in any::<u64>(),
        order_seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints: 3,
            predicates: 2,
            max_arity: 2,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.3,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            strategy: Strategy::Random { seed: order_seed },
            max_steps: Some(300),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }

    #[test]
    fn random_families_agree_three_way(
        seed in any::<u64>(),
        constraints in 1usize..=3,
        facts in 1usize..10,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 2),
            existential_prob: 0.35,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 4, seed });
        assert_two_way(&set, &inst, 200)?;
    }

    #[test]
    fn egd_heavy_random_families_agree_three_way(
        seed in any::<u64>(),
        facts in 1usize..10,
        egds in 1usize..=3,
    ) {
        // Existential-heavy TGDs invent nulls, random key EGDs merge them
        // away: the delta engine must repair its trigger state through the
        // merge delta and still replay the naive trace bit for bit.
        let set = random_egd_mix(&RandomTgdConfig {
            constraints: 2,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.6,
            seed,
        }, egds);
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        assert_two_way(&set, &inst, 200)?;
    }

    #[test]
    fn egd_heavy_random_families_agree_oblivious(
        seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        // Oblivious mode is the fired-memo path: merges must remap memo
        // keys identically in the naive and delta engines.
        let set = random_egd_mix(&RandomTgdConfig {
            constraints: 2,
            predicates: 2,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.5,
            seed,
        }, 2);
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }

    #[test]
    fn random_families_agree_oblivious(
        seed in any::<u64>(),
        facts in 1usize..8,
    ) {
        let set = random_tgds(&RandomTgdConfig {
            constraints: 2,
            predicates: 2,
            max_arity: 2,
            body_atoms: (1, 2),
            head_atoms: (1, 1),
            existential_prob: 0.3,
            seed,
        });
        let inst = random_instance(&set, &RandomInstanceConfig { facts, domain: 3, seed });
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg)?;
    }
}

#[test]
fn corpus_families_agree_across_strategies() {
    let cases: Vec<(chase_core::ConstraintSet, chase_core::Instance)> = vec![
        (families::copy_chain(4), families::chain_source_instance(3)),
        (families::lav_star(3), families::chain_source_instance(3)),
        (families::safe_family(3), families::path_instance(4)),
        (families::stratified_family(3), families::path_instance(3)),
        (families::full_tgd_cycle(3), families::cycle_instance(3)),
        (families::divergent_family(2), families::cycle_instance(2)),
    ];
    for (set, inst) in &cases {
        for cfg in [
            ChaseConfig::with_max_steps(200),
            ChaseConfig {
                strategy: Strategy::Random { seed: 7 },
                max_steps: Some(200),
                ..ChaseConfig::default()
            },
            ChaseConfig {
                strategy: Strategy::FixedCycle((0..set.len()).rev().collect()),
                max_steps: Some(200),
                ..ChaseConfig::default()
            },
        ] {
            assert_equivalent(set, inst, &cfg).unwrap_or_else(|e| panic!("{e:?}"));
        }
    }
}

#[test]
fn corpus_families_agree_three_way() {
    let cases: Vec<(chase_core::ConstraintSet, chase_core::Instance)> = vec![
        (families::copy_chain(4), families::chain_source_instance(3)),
        (families::lav_star(3), families::chain_source_instance(3)),
        (families::safe_family(3), families::path_instance(4)),
        (families::stratified_family(3), families::path_instance(3)),
        (families::full_tgd_cycle(3), families::cycle_instance(3)),
        (families::divergent_family(2), families::cycle_instance(2)),
        (
            chase_corpus::paper::example4_sigma(),
            families::unary_instance("R", 4),
        ),
        (
            chase_corpus::paper::fig9_travel(),
            chase_corpus::random::random_travel_instance(
                &chase_corpus::random::RandomTravelConfig {
                    cities: 8,
                    flights: 20,
                    rails: 10,
                    seed: 11,
                },
            ),
        ),
    ];
    for (set, inst) in &cases {
        assert_two_way(set, inst, 200).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// Runs the two-way check on a parsed set and instance under explicit phases.
fn assert_phased_case(set: &str, inst: &str, phases: &[Vec<usize>]) {
    let set = chase_core::ConstraintSet::parse(set).unwrap();
    let inst = chase_core::Instance::parse(inst).unwrap();
    assert_two_way_phased(&set, &inst, phases, 200).unwrap_or_else(|e| panic!("{e:?}"));
}

// Small shapes that each stress one maintenance path of the delta engine
// under `Strategy::Phased`.

#[test]
fn phased_engines_agree_on_tgd_chains() {
    assert_phased_case(
        "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
        "S(a). S(b). S(c).",
        &[vec![0], vec![1], vec![2]],
    );
}

#[test]
fn phased_engines_agree_on_single_phase_divergence() {
    // The unstratified fallback: one phase, budget-bounded divergence.
    assert_phased_case(
        "S(X) -> E(X,Y), S(Y)",
        "S(n1). S(n2). E(n1,n2).",
        &[vec![0]],
    );
}

#[test]
fn phased_engines_agree_on_egd_merges() {
    assert_phased_case(
        "E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)",
        "S(a). E(a,_n0). E(_n0,c). E(a,b).",
        &[vec![0, 1]],
    );
}

#[test]
fn phased_engines_agree_on_joins() {
    assert_phased_case(
        "E(X,Y), E(Y,Z) -> E(X,Z)",
        "E(a,b). E(b,c). E(c,d). E(d,e).",
        &[vec![0]],
    );
}

/// An unstratified set must fall back to a single-phase schedule, and the
/// delta engine must still replay the naive trace on it.
#[test]
fn unstratified_sets_fall_back_to_single_phase() {
    let set = chase_core::ConstraintSet::parse("S(X) -> E(X,Y), S(Y)\nE(X,Y) -> T(Y)").unwrap();
    let schedule = phase_schedule(&set, &PrecedenceConfig::default());
    assert_ne!(schedule.stratified, Recognition::Yes);
    assert_eq!(schedule.phases, vec![vec![0, 1]]);
    assert_eq!(
        schedule.phases,
        PhaseSchedule::single_phase(set.len()).phases
    );
    let inst = chase_core::Instance::parse("S(n1). S(n2). E(n1,n2).").unwrap();
    assert_two_way(&set, &inst, 120).unwrap_or_else(|e| panic!("{e:?}"));
}

/// EGD-heavy workload: merges force the delta engine down its rebuild path.
#[test]
fn egd_workloads_agree() {
    let set =
        chase_core::ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)\nE(X,Y) -> T(Y)")
            .unwrap();
    let inst =
        chase_core::Instance::parse("S(a). S(b). E(a,_n0). E(_n0,c). E(b,_n1). E(b,d).").unwrap();
    for strategy in [
        Strategy::RoundRobin,
        Strategy::Random { seed: 3 },
        Strategy::FixedCycle(vec![2, 1, 0]),
    ] {
        let cfg = ChaseConfig {
            strategy,
            max_steps: Some(200),
            ..ChaseConfig::default()
        };
        assert_equivalent(&set, &inst, &cfg).unwrap_or_else(|e| panic!("{e:?}"));
    }
}

/// Warm multi-batch runs against the naive reference. The state ingests
/// each batch with `EngineState::insert_batch` and continues with
/// `chase_resume`; the reference chases the same pre-resume instance from
/// scratch with `chase_naive`. Small step budgets leave a backlog of
/// pooled triggers when the next batch arrives, so the batch's atoms (and
/// later steps' atoms) must find, through the pool's head index, exactly
/// the pooled triggers they satisfy. A final round-robin resume drains the
/// backlog: a trigger that revalidation missed fires there although
/// satisfied, and the traces part. Every case runs under several budgets
/// and strategies.
///
/// Constraint 0 is a filler, `Wait(X) -> Waited(X)`, and every batch brings
/// four fresh `Wait` facts. A cycle that visits the filler four times
/// first spends budgets of 1–3 steps on it alone, so `sigma`'s triggers
/// stay pooled while every later batch arrives.
fn assert_warm_batches_agree(sigma: &str, batches: &[&str]) {
    let set = chase_core::ConstraintSet::parse(&format!("Wait(X) -> Waited(X)\n{sigma}")).unwrap();
    let n = set.len();
    let budgets = [Some(1), Some(2), Some(3), Some(200)];
    let strategies = [
        Strategy::RoundRobin,
        Strategy::FixedCycle((0..n).rev().collect()),
        Strategy::Random { seed: 5 },
        Strategy::FixedCycle([0, 0, 0, 0].into_iter().chain(1..n).collect()),
    ];
    let drain = ChaseConfig {
        max_steps: Some(200),
        keep_trace: true,
        ..ChaseConfig::default()
    };
    for strategy in &strategies {
        for max_steps in budgets {
            let cfg = ChaseConfig {
                strategy: strategy.clone(),
                max_steps,
                ..drain.clone()
            };
            let label = format!("{sigma} / {strategy:?} / {max_steps:?}");
            let mut st = EngineState::new(&chase_core::Instance::new(), &set, &cfg);
            let resume_agrees = |st: &mut EngineState, cfg: &ChaseConfig, at: &str| {
                let before = st.instance().clone();
                let warm = chase_resume(st, &set, cfg);
                let naive = chase_naive(&before, &set, cfg);
                assert_eq!(warm.reason, naive.reason, "{at}: stop reason");
                assert_eq!(warm.steps, naive.steps, "{at}: steps");
                assert_eq!(warm.fresh_nulls, naive.fresh_nulls, "{at}: nulls");
                assert_eq!(
                    format!("{:?}", warm.trace),
                    format!("{:?}", naive.trace),
                    "{at}: trace"
                );
                assert_eq!(st.instance(), &naive.instance, "{at}: instance");
            };
            for (b, text) in batches.iter().enumerate() {
                let text = format!("{text} Wait(w{b}a). Wait(w{b}b). Wait(w{b}c). Wait(w{b}d).");
                let atoms = chase_core::Instance::parse(&text).unwrap().atoms();
                st.insert_batch(&set, &cfg, atoms).unwrap();
                resume_agrees(&mut st, &cfg, &format!("{label} / batch {b}"));
            }
            resume_agrees(&mut st, &drain, &format!("{label} / drain"));
            assert!(st.quiescent(), "{label}: the drain left triggers pooled");
        }
    }
}

#[test]
fn warm_batches_agree_with_a_head_constant() {
    assert_warm_batches_agree(
        "E(X,Y) -> R(X,c)",
        &[
            "E(a,k). E(b,k). E(d,k). E(e,k). E(f,k).",
            "R(d,c). R(e,z). R(c,e).",
            "E(g,k). E(h,k). R(f,c). R(h,c).",
        ],
    );
}

#[test]
fn warm_batches_agree_with_a_repeated_frontier_variable() {
    assert_warm_batches_agree(
        "E(X,Y) -> R(X,X)",
        &[
            "E(a,k). E(b,k). E(d,k). E(e,k).",
            "R(d,d). R(e,a). R(a,e).",
            "E(f,k). R(e,e). R(f,f).",
        ],
    );
}

#[test]
fn warm_batches_agree_with_one_frontier_variable_in_two_head_atoms() {
    assert_warm_batches_agree(
        "E(X,Y) -> R(X,Z), S(X)",
        &[
            "E(a,k). E(b,k). E(d,k). E(e,k).",
            "S(d). R(e,q).",
            "R(d,q). S(e). E(f,k). S(f). R(f,f).",
        ],
    );
}

#[test]
fn warm_batches_agree_with_a_head_atom_without_frontier_variables() {
    // `T(Y)` has no frontier position: every pooled trigger shares one
    // bucket, and any T atom satisfies them all.
    assert_warm_batches_agree(
        "U(X) -> V(X)\nS(X) -> T(Y)",
        &[
            "U(a). U(b). S(a). S(b). S(c).",
            "T(k). U(d).",
            "S(d). U(e).",
        ],
    );
}

#[test]
fn warm_batches_agree_with_a_multi_atom_existential_head() {
    // A pooled trigger dies only when the delta completes the whole join
    // `R(x,n), T(n,y)` through some witness n, old or new.
    assert_warm_batches_agree(
        "E(X,Y) -> R(X,Z), T(Z,Y)",
        &[
            "E(a,b). E(c,d). E(e,f). E(g,h).",
            "R(c,w). T(w,d). R(e,v). T(u,f).",
            "T(v,f). R(g,g). E(i,j). R(i,m). T(m,j).",
        ],
    );
}

#[test]
fn warm_batches_agree_with_one_predicate_at_two_arities() {
    // Σ fixes R's arity, but base facts may use R at another arity too:
    // `R(a,a)` must not satisfy the head `R(X)` under X ↦ a.
    assert_warm_batches_agree(
        "F(X) -> G(X)\nE(X,Y) -> R(X)",
        &[
            "E(a,k). E(b,k). E(d,k). F(a). F(b). F(d).",
            "R(a,a). R(b). R(d,d,d). R(d).",
            "E(e,k). F(e). R(e,e). R(a).",
        ],
    );
}

#[test]
fn warm_batches_agree_through_merges_that_remap_pooled_triggers() {
    // Nulls invented for E are merged into F's constants, remapping the
    // pooled `E(X,Y) -> R(Y,X)` triggers that bind them (remove, then
    // insert under the new key). The later R atoms then satisfy them only
    // under their remapped frontier values.
    assert_warm_batches_agree(
        "S(X) -> E(X,Y)\nE(X,Y), F(X,Z) -> Y = Z\nE(X,Y) -> R(Y,X)",
        &[
            "S(a). S(b). S(d).",
            "F(a,p). F(b,q).",
            "R(p,a). F(d,r).",
            "R(q,b). R(r,d). S(e). F(e,p).",
        ],
    );
}

#[test]
fn warm_batches_agree_over_a_merge_storm_stream() {
    // Consecutive merge-storm episodes with each episode's entities renamed
    // apart, as a durable merge-storm tenant sends them. A `Val` batch
    // merges an invented null into its ground value and rewrites the rows
    // that bind it, so the delta re-match finds every trigger those rows
    // feed again, under its renamed key. Each was fired or found satisfied
    // before the merge and must stay out of the pool.
    let attributes = 2;
    let mut batches: Vec<String> = Vec::new();
    for episode in 0..2 {
        let (_, stream) = merge_storm_stream(&MergeStormConfig {
            entities: 4,
            attributes,
            values: 3,
            batches: 4,
            seed: 17 + episode,
        });
        for batch in stream {
            let mut text = String::new();
            for a in &batch {
                let terms: Vec<String> = a.terms().iter().map(|t| t.to_string()).collect();
                let (entity, rest) = terms.split_first().expect("an entity first");
                let rest: String = rest.iter().map(|t| format!(",{t}")).collect();
                text.push_str(&format!("{}(p{episode}{entity}{rest}). ", a.pred()));
            }
            batches.push(text);
        }
    }
    let batches: Vec<&str> = batches.iter().map(String::as_str).collect();
    assert_warm_batches_agree(&merge_storm_sigma(attributes).to_string(), &batches);
}
