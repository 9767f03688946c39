//! The level-wise backchase of `minimal_rewritings` against its
//! definition: the exhaustive `equivalent_subqueries`, filtered to its
//! smallest body size. Both must agree on the list, its order, and the
//! error — on the serving workloads' query templates, the paper's q2, and
//! random small queries, including chases cut off by a tiny step budget.

use chase_core::{ConjunctiveQuery, ConstraintSet};
use chase_corpus::{paper, random::merge_storm_sigma};
use chase_engine::ChaseConfig;
use chase_sqo::{equivalent_subqueries, minimal_rewritings, SqoError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Figure 9's α1 and α2: airports of flight endpoints, symmetric rail.
const TRAVEL: &str =
    "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";

/// A serving session's default plan limit and rewriting budget.
const MAX_PLAN_ATOMS: usize = 10;

fn sqo_cfg() -> ChaseConfig {
    ChaseConfig::with_max_steps(500)
}

/// The definition: every equivalent subquery, cut to the smallest size.
fn reference(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
    max_plan_atoms: usize,
) -> Result<Vec<ConjunctiveQuery>, SqoError> {
    let all = equivalent_subqueries(q, set, cfg, max_plan_atoms)?;
    let min = all.iter().map(|c| c.body().len()).min();
    Ok(all
        .into_iter()
        .filter(|c| Some(c.body().len()) == min)
        .collect())
}

fn assert_agrees(q: &ConjunctiveQuery, set: &ConstraintSet, cfg: &ChaseConfig, max: usize) {
    assert_eq!(
        minimal_rewritings(q, set, cfg, max),
        reference(q, set, cfg, max),
        "{q}"
    );
}

fn parse(text: &str) -> ConjunctiveQuery {
    ConjunctiveQuery::parse(text).unwrap()
}

#[test]
fn travel_pool_templates_agree() {
    let set = ConstraintSet::parse(TRAVEL).unwrap();
    let templates = [
        "q(Y) <- fly(@,Y,D)",
        "q(Y) <- fly(@,Y,D), hasAirport(Y)",
        "q(Y) <- rail(@,Y,D), rail(Y,@,D)",
        "q(Z) <- rail(@,Y,D), fly(Y,Z,E)",
        "q(Z) <- fly(@,Y,D), fly(Y,Z,E)",
        "q(Y,D) <- fly(@,Y,D), hasAirport(@)",
        "q(X) <- hasAirport(X)",
        "q(X,Y,D) <- rail(X,Y,D)",
        "q(X,Y,D) <- fly(X,Y,D)",
    ];
    for t in templates {
        for city in ["city0", "city17"] {
            assert_agrees(
                &parse(&t.replace('@', city)),
                &set,
                &sqo_cfg(),
                MAX_PLAN_ATOMS,
            );
        }
    }
}

#[test]
fn merge_storm_pool_templates_agree() {
    let set = merge_storm_sigma(3);
    for j in 0..3 {
        let j2 = (j + 1) % 3;
        for (k, k2) in [(0, 5), (3, 3)] {
            for text in [
                format!("q(E) <- A{j}(E,v{k})"),
                format!("q(E) <- A{j}(E,v{k}), Uses(v{k})"),
                format!("q(E) <- Val{j}(E,v{k}), Ent(E), A{j}(E,V)"),
                format!("q(E) <- A{j}(E,v{k}), A{j2}(E,v{k2})"),
                format!("q(E,V) <- A{j}(E,V)"),
            ] {
                assert_agrees(&parse(&text), &set, &sqo_cfg(), MAX_PLAN_ATOMS);
            }
        }
    }
    for text in ["q(E) <- Ent(E)", "q(V) <- Uses(V)"] {
        assert_agrees(&parse(text), &set, &sqo_cfg(), MAX_PLAN_ATOMS);
    }
}

#[test]
fn the_papers_q2_agrees_and_errors_agree() {
    let guarded = ChaseConfig {
        monitor_depth: Some(3),
        max_steps: Some(2_000),
        ..ChaseConfig::default()
    };
    let sigma = paper::fig9_travel();
    assert_agrees(&paper::q2(), &sigma, &guarded, 12);
    // A plan over the limit, and a query chase that never stops.
    assert_agrees(&paper::q2(), &sigma, &guarded, 5);
    assert!(matches!(
        minimal_rewritings(&paper::q2(), &sigma, &guarded, 5),
        Err(SqoError::PlanTooLarge(6))
    ));
    assert_agrees(&paper::q1(), &sigma, &guarded, 12);
    assert_eq!(
        minimal_rewritings(&paper::q1(), &sigma, &guarded, 12),
        Err(SqoError::NonTerminatingChase)
    );
}

/// A seeded conjunctive query of `atoms` atoms over `schema`'s
/// `(predicate, arity)` pairs, drawing terms from four variables and two
/// constants; the head keeps one or two of the body's variables.
fn random_cq(schema: &[(&str, usize)], consts: [&str; 2], atoms: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut body = Vec::new();
    let mut vars: Vec<String> = Vec::new();
    for _ in 0..atoms {
        let (pred, arity) = schema[rng.gen_range(0..schema.len())];
        let args: Vec<String> = (0..arity)
            .map(|_| match rng.gen_range(0..6usize) {
                c @ 4..=5 => consts[c - 4].to_string(),
                v => {
                    let v = format!("X{v}");
                    if !vars.contains(&v) {
                        vars.push(v.clone());
                    }
                    v
                }
            })
            .collect();
        body.push(format!("{pred}({})", args.join(",")));
    }
    let keep = vars.len().min(rng.gen_range(1..=2usize));
    format!("q({}) <- {}", vars[..keep].join(","), body.join(", "))
}

const TRAVEL_SCHEMA: &[(&str, usize)] = &[("fly", 3), ("rail", 3), ("hasAirport", 1)];
const MERGE_SCHEMA: &[(&str, usize)] = &[
    ("Ent", 1),
    ("A0", 2),
    ("A1", 2),
    ("Val0", 2),
    ("Val1", 2),
    ("Uses", 1),
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, .. ProptestConfig::default() })]

    #[test]
    fn random_travel_queries_agree(seed in any::<u64>(), atoms in 1usize..=5, cut in any::<bool>()) {
        let set = ConstraintSet::parse(TRAVEL).unwrap();
        let q = parse(&random_cq(TRAVEL_SCHEMA, ["c0", "c1"], atoms, seed));
        let cfg = if cut { ChaseConfig::with_max_steps(3) } else { sqo_cfg() };
        prop_assert_eq!(
            minimal_rewritings(&q, &set, &cfg, MAX_PLAN_ATOMS),
            reference(&q, &set, &cfg, MAX_PLAN_ATOMS)
        );
    }

    #[test]
    fn random_merge_storm_queries_agree(seed in any::<u64>(), atoms in 1usize..=5, cut in any::<bool>()) {
        let set = merge_storm_sigma(3);
        let q = parse(&random_cq(MERGE_SCHEMA, ["v0", "v1"], atoms, seed));
        let cfg = if cut { ChaseConfig::with_max_steps(3) } else { sqo_cfg() };
        prop_assert_eq!(
            minimal_rewritings(&q, &set, &cfg, MAX_PLAN_ATOMS),
            reference(&q, &set, &cfg, MAX_PLAN_ATOMS)
        );
    }
}
