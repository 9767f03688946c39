//! Seeded random workload generators.
//!
//! Used by the property tests ("class inclusions hold on arbitrary TGD
//! sets") and by the recognition benchmarks. All generation is driven by an
//! explicit seed: equal configs produce equal workloads.

use chase_core::{Atom, Constraint, ConstraintSet, Egd, Instance, Sym, Term, Tgd};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a random TGD set.
#[derive(Debug, Clone)]
pub struct RandomTgdConfig {
    /// Number of constraints to generate.
    pub constraints: usize,
    /// Predicate pool size (names `P0 … P{n−1}`).
    pub predicates: usize,
    /// Maximum predicate arity (arities are assigned per predicate,
    /// uniformly in `1..=max_arity`).
    pub max_arity: usize,
    /// Body atoms per TGD, inclusive range.
    pub body_atoms: (usize, usize),
    /// Head atoms per TGD, inclusive range.
    pub head_atoms: (usize, usize),
    /// Probability that a head slot introduces an existential variable
    /// rather than reusing a body variable.
    pub existential_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomTgdConfig {
    fn default() -> RandomTgdConfig {
        RandomTgdConfig {
            constraints: 4,
            predicates: 3,
            max_arity: 3,
            body_atoms: (1, 2),
            head_atoms: (1, 2),
            existential_prob: 0.3,
            seed: 0,
        }
    }
}

/// Generate a random TGD set according to `cfg`.
///
/// Every generated TGD is well-formed by construction: head variables are
/// drawn from body variables or declared fresh existentials.
pub fn random_tgds(cfg: &RandomTgdConfig) -> ConstraintSet {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let arities: Vec<usize> = (0..cfg.predicates)
        .map(|_| rng.gen_range(1..=cfg.max_arity))
        .collect();
    let mut out = Vec::with_capacity(cfg.constraints);
    for _ in 0..cfg.constraints {
        // Body: random atoms over a small variable pool.
        let n_body = rng.gen_range(cfg.body_atoms.0..=cfg.body_atoms.1);
        let var_pool = 1 + cfg.max_arity; // keep joins likely
        let mut body = Vec::with_capacity(n_body);
        for _ in 0..n_body {
            let p = rng.gen_range(0..cfg.predicates);
            let terms: Vec<Term> = (0..arities[p])
                .map(|_| Term::var(&format!("X{}", rng.gen_range(0..var_pool))))
                .collect();
            body.push(Atom::new(format!("P{p}").as_str(), terms));
        }
        // Collect body variables for head reuse.
        let mut body_vars = Vec::new();
        for a in &body {
            for v in a.vars() {
                if !body_vars.contains(&v) {
                    body_vars.push(v);
                }
            }
        }
        // Head: reuse body variables or mint existentials.
        let n_head = rng.gen_range(cfg.head_atoms.0..=cfg.head_atoms.1);
        let mut head = Vec::with_capacity(n_head);
        let mut next_exist = 0usize;
        for _ in 0..n_head {
            let p = rng.gen_range(0..cfg.predicates);
            let terms: Vec<Term> = (0..arities[p])
                .map(|_| {
                    if body_vars.is_empty() || rng.gen_bool(cfg.existential_prob) {
                        // Reuse one of a couple of existential names so
                        // repeated slots can share a fresh null.
                        let e = if next_exist > 0 && rng.gen_bool(0.5) {
                            rng.gen_range(0..=next_exist.min(2))
                        } else {
                            next_exist += 1;
                            next_exist - 1
                        };
                        Term::var(&format!("Y{e}"))
                    } else {
                        Term::Var(body_vars[rng.gen_range(0..body_vars.len())])
                    }
                })
                .collect();
            head.push(Atom::new(format!("P{p}").as_str(), terms));
        }
        let tgd = Tgd::new(body, head).expect("generated TGD is well-formed");
        out.push(Constraint::Tgd(tgd));
    }
    ConstraintSet::from_constraints(out).expect("consistent generated schema")
}

/// A random TGD set plus `egds` random key EGDs over the same schema: each
/// EGD makes one predicate functional from a key position to a value
/// position (`P(.., X, .., Y, ..), P(.., X, .., Z, ..) -> Y = Z`); arity-1
/// predicates get the singleton EGD `P(U0), P(V0) -> U0 = V0`. The
/// EGD-heavy families the merge-delta equivalence tests chase — random
/// existentials invent nulls, random keys merge them away again.
pub fn random_egd_mix(cfg: &RandomTgdConfig, egds: usize) -> ConstraintSet {
    let tgds = random_tgds(cfg);
    let schema = tgds.schema().expect("consistent generated schema");
    let preds = schema.predicates();
    if preds.is_empty() {
        return tgds;
    }
    let mut out: Vec<Constraint> = tgds.iter().cloned().collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_e9d5_0b5e_55ed);
    for _ in 0..egds {
        let p = preds[rng.gen_range(0..preds.len())];
        let ar = schema.arity(p).expect("predicate in schema");
        // Two body atoms agreeing on the key position; every other
        // position gets a side-local variable, and the value position's
        // pair is equated.
        let (key, val) = if ar == 1 {
            (None, 0)
        } else {
            let key = rng.gen_range(0..ar);
            let mut val = rng.gen_range(0..ar - 1);
            if val >= key {
                val += 1;
            }
            (Some(key), val)
        };
        let side = |tag: &str| -> Atom {
            let terms = (0..ar)
                .map(|i| {
                    if Some(i) == key {
                        Term::var("K")
                    } else {
                        Term::var(&format!("{tag}{i}"))
                    }
                })
                .collect();
            Atom::new(p, terms)
        };
        let egd = Egd::new(
            vec![side("U"), side("V")],
            Sym::new(&format!("U{val}")),
            Sym::new(&format!("V{val}")),
        )
        .expect("generated EGD is well-formed");
        out.push(Constraint::Egd(egd));
    }
    ConstraintSet::from_constraints(out).expect("consistent generated schema")
}

/// Shape of a merge-storm workload: an EGD-heavy update stream in which
/// early batches declare entities (whose attribute TGDs invent labeled
/// nulls) and later batches deliver the ground attribute values (whose key
/// EGDs merge those nulls away again) — every batch after the first fires
/// merges against a warm instance.
#[derive(Debug, Clone)]
pub struct MergeStormConfig {
    /// Number of entities (`e0 … e{n−1}`).
    pub entities: usize,
    /// Attribute predicates per entity (`A0 … A{k−1}`, each with its own
    /// invention TGD and key EGD).
    pub attributes: usize,
    /// Ground-value pool size (`v0 … v{m−1}`); small pools make rewritten
    /// rows collapse onto existing duplicates more often.
    pub values: usize,
    /// Number of update batches (≥ 2: values always land strictly after
    /// their entity's declaration).
    pub batches: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MergeStormConfig {
    fn default() -> MergeStormConfig {
        MergeStormConfig {
            entities: 60,
            attributes: 3,
            values: 8,
            batches: 10,
            seed: 0,
        }
    }
}

/// The merge-storm constraint set for `attributes` attribute predicates:
/// per attribute `j`, an invention TGD `Ent(E) -> Aj(E,V)`, the
/// cross-table key EGD `Aj(E,V1), Valj(E,V2) -> V1 = V2` (the base table
/// `Valj` holds the ground values, so even a from-scratch chase must
/// invent the null first and merge it away afterwards — the merges cannot
/// be satisfied into nonexistence by base facts), the self-key
/// `Aj(E,V1), Aj(E,V2) -> V1 = V2`, and a propagation TGD
/// `Aj(E,V) -> Uses(V)` so each invented null occurs in more than one fact
/// (merges rewrite surviving rows, not just collapse duplicates).
pub fn merge_storm_sigma(attributes: usize) -> ConstraintSet {
    let mut text = String::new();
    for j in 0..attributes {
        text.push_str(&format!("Ent(E) -> A{j}(E,V)\n"));
        text.push_str(&format!("A{j}(E,V1), Val{j}(E,V2) -> V1 = V2\n"));
        text.push_str(&format!("A{j}(E,V1), A{j}(E,V2) -> V1 = V2\n"));
        text.push_str(&format!("A{j}(E,V) -> Uses(V)\n"));
    }
    ConstraintSet::parse(&text).expect("merge-storm sigma parses")
}

/// Generate a merge-storm workload: [`merge_storm_sigma`] plus an update
/// stream in which each entity's `Ent(e)` declaration lands in a random
/// non-final batch and each of its ground attribute values `Valj(e, v)`
/// lands in a random strictly later batch. Chasing the stream warm invents
/// one null per (entity, attribute) and later merges it into the ground
/// value; a from-scratch chase of any prefix union pays the same
/// invent-then-merge work for *every* entity again. Deterministic per
/// seed; each (entity, attribute) gets exactly one ground value, so the
/// chase never fails on a constant–constant conflict.
pub fn merge_storm_stream(cfg: &MergeStormConfig) -> (ConstraintSet, Vec<Vec<Atom>>) {
    let set = merge_storm_sigma(cfg.attributes);
    let batches = cfg.batches.max(2);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = vec![Vec::new(); batches];
    for e in 0..cfg.entities {
        let eb = rng.gen_range(0..batches - 1);
        let ent = Term::constant(&format!("e{e}"));
        out[eb].push(Atom::new("Ent", vec![ent]));
        for j in 0..cfg.attributes {
            let vb = rng.gen_range(eb + 1..batches);
            let v = rng.gen_range(0..cfg.values.max(1));
            out[vb].push(Atom::new(
                format!("Val{j}").as_str(),
                vec![ent, Term::constant(&format!("v{v}"))],
            ));
        }
    }
    (set, out)
}

/// Shape of a random instance.
#[derive(Debug, Clone)]
pub struct RandomInstanceConfig {
    /// Number of facts.
    pub facts: usize,
    /// Constant pool size (`c0 … c{n−1}`).
    pub domain: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomInstanceConfig {
    fn default() -> RandomInstanceConfig {
        RandomInstanceConfig {
            facts: 10,
            domain: 5,
            seed: 0,
        }
    }
}

/// Generate a random instance over the schema of `set` according to `cfg`.
pub fn random_instance(set: &ConstraintSet, cfg: &RandomInstanceConfig) -> Instance {
    let schema = set.schema().expect("consistent schema");
    let preds = schema.predicates();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inst = Instance::new();
    if preds.is_empty() {
        return inst;
    }
    for _ in 0..cfg.facts {
        let p = preds[rng.gen_range(0..preds.len())];
        let ar = schema.arity(p).expect("predicate in schema");
        let terms: Vec<Term> = (0..ar)
            .map(|_| Term::constant(&format!("c{}", rng.gen_range(0..cfg.domain))))
            .collect();
        inst.insert(Atom::new(p, terms));
    }
    inst
}

/// Shape of a random travel network for the Figure 9 constraints
/// (`fly`/`rail` over cities, with durations), scalable from a unit-test
/// network to the ~150k-fact tenants the serving benchmarks load.
#[derive(Debug, Clone)]
pub struct RandomTravelConfig {
    /// City pool size (`city0 … city{n−1}`).
    pub cities: usize,
    /// Number of `fly(c1, c2, d)` facts.
    pub flights: usize,
    /// Number of `rail(c1, c2, d)` facts.
    pub rails: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomTravelConfig {
    fn default() -> RandomTravelConfig {
        RandomTravelConfig {
            cities: 50,
            flights: 400,
            rails: 200,
            seed: 0,
        }
    }
}

/// Generate a random travel network matching the schema of
/// [`crate::paper::fig9_travel`]: `flights + rails` facts over `cities`
/// cities with a small duration pool. Deterministic per seed; duplicate
/// facts collapse, so the instance may be slightly smaller than requested.
pub fn random_travel_instance(cfg: &RandomTravelConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut inst = Instance::new();
    let cities = cfg.cities.max(2);
    let fact = |rng: &mut StdRng, pred: &str| {
        let a = rng.gen_range(0..cities);
        let mut b = rng.gen_range(0..cities - 1);
        if b >= a {
            b += 1; // no self-loops: keep routes between distinct cities
        }
        let d = rng.gen_range(0..8usize);
        Atom::new(
            pred,
            vec![
                Term::constant(&format!("city{a}")),
                Term::constant(&format!("city{b}")),
                Term::constant(&format!("d{d}")),
            ],
        )
    };
    for _ in 0..cfg.flights {
        let a = fact(&mut rng, "fly");
        inst.insert(a);
    }
    for _ in 0..cfg.rails {
        let a = fact(&mut rng, "rail");
        inst.insert(a);
    }
    inst
}

/// Shape of a seeded update stream: a base-fact instance cut into an
/// initial load plus a sequence of update batches — the workload shape the
/// `chase-serve` session layer and the `session_updates` bench consume.
#[derive(Debug, Clone)]
pub struct UpdateStreamConfig {
    /// Number of batches to cut the instance into (≥ 1; the first batch is
    /// the initial load).
    pub batches: usize,
    /// RNG seed for the shuffle that decides which facts land in which
    /// batch. Equal seeds give equal streams.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> UpdateStreamConfig {
        UpdateStreamConfig {
            batches: 8,
            seed: 0,
        }
    }
}

/// Cut `inst` into `cfg.batches` update batches: a seeded Fisher–Yates
/// shuffle of the facts, split into near-equal chunks (earlier chunks get
/// the remainder). Deterministic per seed; the union of the batches is
/// exactly `inst`.
///
/// # Examples
///
/// ```
/// use chase_core::Instance;
/// use chase_corpus::random::{update_stream, UpdateStreamConfig};
///
/// let inst = Instance::parse("E(a,b). E(b,c). E(c,d). E(d,e). E(e,f).").unwrap();
/// let cfg = UpdateStreamConfig { batches: 3, seed: 1 };
/// let stream = update_stream(&inst, &cfg);
/// assert_eq!(stream.len(), 3);
/// assert_eq!(stream.iter().map(Vec::len).sum::<usize>(), inst.len());
/// ```
pub fn update_stream(inst: &Instance, cfg: &UpdateStreamConfig) -> Vec<Vec<Atom>> {
    let mut atoms = inst.atoms();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Fisher–Yates (the vendored rand stand-in has no `shuffle`).
    for i in (1..atoms.len()).rev() {
        let j = rng.gen_range(0..=i);
        atoms.swap(i, j);
    }
    let batches = cfg.batches.max(1);
    let base = atoms.len() / batches;
    let rem = atoms.len() % batches;
    let mut out = Vec::with_capacity(batches);
    let mut it = atoms.into_iter();
    for b in 0..batches {
        let take = base + usize::from(b < rem);
        out.push(it.by_ref().take(take).collect());
    }
    out
}

/// A seeded travel update stream: [`random_travel_instance`] facts cut into
/// batches with [`update_stream`] (same seed drives both), matching the
/// Figure 9 travel constraints.
pub fn random_travel_stream(travel: &RandomTravelConfig, batches: usize) -> Vec<Vec<Atom>> {
    update_stream(
        &random_travel_instance(travel),
        &UpdateStreamConfig {
            batches,
            seed: travel.seed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = RandomTgdConfig::default();
        let a = random_tgds(&cfg);
        let b = random_tgds(&cfg);
        assert_eq!(a.to_string(), b.to_string());
        let c = random_tgds(&RandomTgdConfig { seed: 1, ..cfg });
        assert_ne!(a.to_string(), c.to_string());
    }

    #[test]
    fn generated_sets_are_well_formed() {
        for seed in 0..20 {
            let cfg = RandomTgdConfig {
                constraints: 5,
                seed,
                ..RandomTgdConfig::default()
            };
            let s = random_tgds(&cfg);
            assert_eq!(s.len(), 5);
            s.schema().expect("schema consistent");
            // Reparse round-trip.
            let re = ConstraintSet::parse(&s.to_string()).expect("display parses");
            assert_eq!(re.to_string(), s.to_string());
        }
    }

    #[test]
    fn travel_instances_are_deterministic_and_well_typed() {
        let cfg = RandomTravelConfig {
            cities: 10,
            flights: 40,
            rails: 20,
            seed: 3,
        };
        let a = random_travel_instance(&cfg);
        let b = random_travel_instance(&cfg);
        assert_eq!(a, b);
        assert!(a.len() <= 60);
        assert!(a.len() > 30); // some duplicates, not a collapse
        let schema = a.schema().unwrap();
        for p in schema.predicates() {
            assert_eq!(schema.arity(p), Some(3));
            assert!(p.as_str() == "fly" || p.as_str() == "rail");
        }
        // Chaseable by the Figure 9 constraints without schema mismatch.
        let mut merged = crate::paper::fig9_travel().schema().unwrap();
        merged
            .merge(&schema)
            .expect("travel instance fits the fig9 schema");
    }

    #[test]
    fn update_streams_partition_the_instance() {
        let inst = random_travel_instance(&RandomTravelConfig {
            cities: 12,
            flights: 50,
            rails: 30,
            seed: 9,
        });
        let cfg = UpdateStreamConfig {
            batches: 5,
            seed: 9,
        };
        let a = update_stream(&inst, &cfg);
        let b = update_stream(&inst, &cfg);
        assert_eq!(a, b, "streams are deterministic per seed");
        assert_eq!(a.len(), 5);
        // The union of the batches is exactly the instance, duplicate-free.
        let mut union = Instance::new();
        for batch in &a {
            for atom in batch {
                assert!(union.insert(atom.clone()), "batches never overlap");
            }
        }
        assert_eq!(&union, &inst);
        // Chunks are near-equal: sizes differ by at most one.
        let sizes: Vec<usize> = a.iter().map(Vec::len).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "unbalanced batches: {sizes:?}");
        // More batches than facts: trailing batches come out empty rather
        // than panicking.
        let tiny = Instance::parse("E(a,b).").unwrap();
        let wide = update_stream(
            &tiny,
            &UpdateStreamConfig {
                batches: 4,
                seed: 0,
            },
        );
        assert_eq!(wide.len(), 4);
        assert_eq!(wide.iter().map(Vec::len).sum::<usize>(), 1);
    }

    #[test]
    fn egd_mixes_are_well_formed_and_deterministic() {
        for seed in 0..10 {
            let cfg = RandomTgdConfig {
                constraints: 3,
                seed,
                ..RandomTgdConfig::default()
            };
            let s = random_egd_mix(&cfg, 2);
            assert_eq!(s.len(), 5, "3 TGDs + 2 EGDs");
            assert_eq!(
                s.iter().filter(|c| matches!(c, Constraint::Egd(_))).count(),
                2
            );
            s.schema().expect("schema consistent");
            let re = ConstraintSet::parse(&s.to_string()).expect("display parses");
            assert_eq!(re.to_string(), s.to_string());
            assert_eq!(s.to_string(), random_egd_mix(&cfg, 2).to_string());
        }
    }

    #[test]
    fn merge_storm_streams_order_values_after_entities() {
        let cfg = MergeStormConfig {
            entities: 20,
            attributes: 2,
            values: 4,
            batches: 6,
            seed: 5,
        };
        let (set, stream) = merge_storm_stream(&cfg);
        assert_eq!(
            set.len(),
            8,
            "2 attributes × (invention, val-key, self-key, propagation)"
        );
        assert_eq!(stream, merge_storm_stream(&cfg).1, "deterministic per seed");
        assert_eq!(stream.len(), 6);
        let total: usize = stream.iter().map(Vec::len).sum();
        assert_eq!(total, 20 * (1 + 2), "one Ent plus one value per attribute");
        // Every ground attribute value lands strictly after its entity.
        let mut declared_at = std::collections::HashMap::new();
        for (b, batch) in stream.iter().enumerate() {
            for a in batch {
                if a.pred() == chase_core::Sym::new("Ent") {
                    declared_at.insert(a.terms()[0], b);
                }
            }
        }
        for (b, batch) in stream.iter().enumerate() {
            for a in batch {
                if a.pred() != chase_core::Sym::new("Ent") {
                    let e = a.terms()[0];
                    assert!(
                        declared_at[&e] < b,
                        "value {a} in batch {b} not after its Ent declaration"
                    );
                }
            }
        }
    }

    #[test]
    fn random_instances_respect_schema() {
        let set = ConstraintSet::parse("E(X,Y) -> E(Y,X)\nS(X) -> E(X,Y)").unwrap();
        let inst = random_instance(
            &set,
            &RandomInstanceConfig {
                facts: 30,
                domain: 4,
                seed: 7,
            },
        );
        assert!(inst.len() <= 30); // duplicates collapse
        let schema = inst.schema().unwrap();
        for p in schema.predicates() {
            assert!(set.schema().unwrap().contains(p));
        }
    }
}
