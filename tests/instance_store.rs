//! Property tests for the interned columnar fact store behind
//! [`chase_core::Instance`]:
//!
//! * [`chase_core::TermId`] interning round-trips every ground term, and id
//!   order equals term order (the property that lets canonical selection
//!   sort ids instead of terms without changing any chase trace);
//! * columnar `atoms()` iteration returns exactly the deduplicated insert
//!   stream, in insertion order — the invariant every engine's trace
//!   reproducibility rests on;
//! * EGD merges (the id-remap path) leave every index, statistic and
//!   exact-row probe exactly as a from-scratch replay builds them, through
//!   chained merges and post-merge inserts.
//!
//! The vendored proptest stand-in has no collection strategies, so fact
//! streams are generated from a `u64` seed through a `StdRng`, like the
//! `chase-corpus` random families.

use chase_core::{Atom, FactId, Instance, Sym, Term, TermId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One ground term from a small pool of constants and nulls (small on
/// purpose — collisions are where dedup, buckets, and merges do real work).
fn ground(rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.5) {
        Term::constant(&format!("pc{}", rng.gen_range(0..12u32)))
    } else {
        Term::null(rng.gen_range(0..6u32))
    }
}

/// A ground atom over a couple of predicates with arity 1–3.
fn fact(rng: &mut StdRng) -> Atom {
    let pred = ["P", "Q", "R"][rng.gen_range(0..3usize)];
    let arity = rng.gen_range(1..=3usize);
    Atom::new(pred, (0..arity).map(|_| ground(rng)).collect())
}

fn fact_stream(seed: u64, len: usize) -> Vec<Atom> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| fact(&mut rng)).collect()
}

/// The atom stream with `from` replaced by `to` everywhere — the input the
/// replay oracle re-inserts from scratch.
fn substituted(atoms: &[Atom], from: Term, to: Term) -> Vec<Atom> {
    atoms
        .iter()
        .map(|a| {
            Atom::new(
                a.pred(),
                a.terms()
                    .iter()
                    .map(|&t| if t == from { to } else { t })
                    .collect(),
            )
        })
        .collect()
}

/// A from-scratch store over `atoms`, inserted in order.
fn replay_oracle(atoms: &[Atom]) -> Instance {
    let mut o = Instance::new();
    for a in atoms {
        o.insert(a.clone());
    }
    o
}

/// Compare every observable the planner and the matching paths read between
/// the incrementally maintained `inst` and the replay `oracle`: the fact
/// stream, `by_pred`/`by_pos` buckets, the cardinality/distinct statistics
/// the join planner costs with, and the exact-row probe
/// ([`Instance::find_ids`]) — against a brute-force scan, for every stored
/// row, the same row with `to` swapped back to `from` (the dedup entry the
/// merge had to retire), and the row's prefixes and extension (the same
/// predicate at other arities, which the generator also stores).
fn same_store(inst: &Instance, oracle: &Instance, merge: (Term, Term)) -> Result<(), String> {
    macro_rules! check {
        ($l:expr, $r:expr, $($what:tt)+) => {{
            let (l, r) = (&$l, &$r);
            if l != r {
                return Err(format!(
                    "{} diverged\n  incremental: {:?}\n       oracle: {:?}",
                    format!($($what)+), l, r
                ));
            }
        }};
    }
    check!(inst.len(), oracle.len(), "len");
    check!(inst.atoms(), oracle.atoms(), "atoms");
    check!(inst.domain(), oracle.domain(), "domain");
    check!(inst.nulls(), oracle.nulls(), "nulls");
    check!(inst.constants(), oracle.constants(), "constants");
    // Probe by_pos through candidates() with every term either store has
    // seen plus both merge endpoints (the `from` probe checks the merged
    // term's buckets are gone, not merely unreachable).
    let (from, to) = merge;
    let mut probes: BTreeSet<Term> = inst.domain();
    probes.extend(oracle.domain());
    probes.insert(from);
    probes.insert(to);
    for pred in ["P", "Q", "R"] {
        let p = Sym::new(pred);
        check!(
            inst.pred_cardinality(p),
            oracle.pred_cardinality(p),
            "pred_cardinality({pred})"
        );
        check!(
            inst.pred_bucket(p),
            oracle.pred_bucket(p),
            "pred_bucket({pred})"
        );
        for pos in 0..3usize {
            check!(
                inst.distinct_at(p, pos),
                oracle.distinct_at(p, pos),
                "distinct_at({pred}, {pos})"
            );
            for &t in &probes {
                check!(
                    inst.candidates(p, &[(pos, t)]),
                    oracle.candidates(p, &[(pos, t)]),
                    "candidates({pred}, {pos}, {t})"
                );
            }
        }
    }
    let ids = |terms: &[Term]| -> Vec<TermId> {
        terms
            .iter()
            .map(|&t| TermId::from_ground(t).expect("ground"))
            .collect()
    };
    let atoms = inst.atoms();
    for a in &atoms {
        let stale: Vec<Term> = a
            .terms()
            .iter()
            .map(|&t| if t == to { from } else { t })
            .collect();
        let mut rows: Vec<Vec<Term>> = (0..=a.arity()).map(|k| a.terms()[..k].to_vec()).collect();
        rows.push([a.terms(), &a.terms()[..1]].concat());
        rows.push(stale);
        for row in rows {
            let scanned = atoms
                .iter()
                .position(|b| b.pred() == a.pred() && b.terms() == row.as_slice())
                .map(|f| f as FactId);
            let key = ids(&row);
            check!(
                inst.find_ids(a.pred(), &key),
                scanned,
                "find_ids({}, {row:?})",
                a.pred()
            );
            check!(
                oracle.find_ids(a.pred(), &key),
                scanned,
                "oracle find_ids({}, {row:?})",
                a.pred()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn interning_round_trips_every_ground_term(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let t = ground(&mut rng);
            let id = TermId::from_ground(t).expect("ground terms intern");
            prop_assert_eq!(id.term(), t);
            prop_assert_eq!(id.is_null(), t.is_null());
            prop_assert_eq!(id.as_null(), t.as_null());
        }
        // Variables are the one term kind without an id.
        prop_assert_eq!(TermId::from_ground(Term::var("X")), None);
    }

    #[test]
    fn term_id_order_is_term_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..32 {
            let (a, b) = (ground(&mut rng), ground(&mut rng));
            let (ia, ib) = (
                TermId::from_ground(a).unwrap(),
                TermId::from_ground(b).unwrap(),
            );
            prop_assert_eq!(ia.cmp(&ib), a.cmp(&b));
            prop_assert_eq!(ia == ib, a == b);
        }
    }

    #[test]
    fn atoms_iterate_in_insertion_order(seed in any::<u64>(), len in 0usize..40) {
        let stream = fact_stream(seed, len);
        let mut inst = Instance::new();
        // Reference: first occurrence of each fact, in stream order.
        let mut expected: Vec<Atom> = Vec::new();
        for a in &stream {
            let new = inst.insert(a.clone());
            prop_assert_eq!(new, !expected.contains(a), "dedup disagrees on {}", a);
            if new {
                expected.push(a.clone());
            }
        }
        prop_assert_eq!(inst.len(), expected.len());
        prop_assert_eq!(inst.atoms(), expected.clone());
        // atom_at / fact views agree with the materialized stream.
        for (i, a) in expected.iter().enumerate() {
            prop_assert_eq!(&inst.atom_at(i as FactId), a);
            let v = inst.fact(i as FactId);
            prop_assert_eq!(v.pred(), a.pred());
            prop_assert_eq!(v.arity(), a.arity());
            for (pos, &t) in a.terms().iter().enumerate() {
                prop_assert_eq!(v.term(pos), t);
                prop_assert_eq!(v.term_id(pos), TermId::from_ground(t).unwrap());
            }
        }
    }

    #[test]
    fn incremental_merges_match_the_replay_oracle(
        seed in any::<u64>(),
        len in 1usize..40,
        n0 in 0u32..6,
        n2 in 0u32..6,
    ) {
        // A chained null→null→constant merge sequence (plus one extra
        // random merge), each step checked against a from-scratch replay:
        // a fresh store over the pre-merge atom stream with `from`
        // substituted by `to`, inserted in insertion order. The incremental
        // delta pass must be observably identical — same fact stream, same
        // buckets, same statistics — and its MergeEffect must name exactly
        // the surviving rewritten rows.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5_5a5a_0f0f_f0f0);
        let n1 = (n0 + 1 + rng.gen_range(0..5u32)) % 6; // any null but n0
        let c = Term::constant(&format!("pc{}", rng.gen_range(0..12u32)));
        let g = ground(&mut rng);
        let merges = [
            (Term::null(n0), Term::null(n1)),
            (Term::null(n1), c),
            (Term::null(n2), g),
        ];
        let mut inst = Instance::new();
        for a in fact_stream(seed, len) {
            inst.insert(a);
        }
        for &(from, to) in &merges {
            if from == to {
                continue;
            }
            let pre_atoms = inst.atoms();
            let pre_len = inst.len();
            let pre_version = inst.version();
            let occurs = pre_atoms.iter().any(|a| a.terms().contains(&from));
            let eff = inst.merge_terms(from, to);
            prop_assert_eq!((eff.from, eff.to), (from, to));
            prop_assert_eq!(
                eff.collapsed,
                pre_len - inst.len(),
                "collapsed must count exactly the rows the merge removed"
            );
            if occurs {
                prop_assert_eq!(inst.version(), pre_version + 1, "one bump per effective merge");
            } else {
                prop_assert!(eff.is_noop(), "no occurrences: merge must be a no-op");
                prop_assert_eq!(
                    inst.version(),
                    pre_version,
                    "a no-op merge must not bump the version"
                );
            }
            prop_assert!(
                eff.rewritten.windows(2).all(|w| w[0] < w[1]),
                "rewritten ids must be sorted and unique: {:?}",
                &eff.rewritten
            );
            for &f in &eff.rewritten {
                prop_assert!((f as usize) < inst.len(), "rewritten id {f} out of range");
                prop_assert!(
                    inst.atom_at(f).terms().contains(&to),
                    "rewritten row {f} = {} does not carry the merge target {}",
                    inst.atom_at(f),
                    to
                );
            }
            let oracle = replay_oracle(&substituted(&pre_atoms, from, to));
            let cmp = same_store(&inst, &oracle, (from, to));
            prop_assert!(
                cmp.is_ok(),
                "after merge {} -> {}: {}",
                from,
                to,
                cmp.unwrap_err()
            );
        }
        // Fresh inserts after the chain must dedup identically against the
        // rewritten rows — the dedup-table equivalent of the bucket checks.
        let last = merges[2];
        let mut oracle = replay_oracle(&inst.atoms());
        for a in fact_stream(seed.wrapping_mul(31).wrapping_add(7), 10) {
            prop_assert_eq!(
                inst.insert(a.clone()),
                oracle.insert(a.clone()),
                "post-merge dedup disagrees on {}",
                a
            );
        }
        let cmp = same_store(&inst, &oracle, last);
        prop_assert!(cmp.is_ok(), "after post-merge inserts: {}", cmp.unwrap_err());
    }
}

/// The rows a from-scratch replay of `pre` under `from ↦ to` drops: every
/// position whose rewritten content repeats an earlier one, ascending,
/// each with whether the row held `from` (a collapsing rewritten row) or
/// not (an untouched row absorbed by an earlier rewritten one).
fn replay_removals(pre: &[Atom], from: Term, to: Term) -> Vec<(usize, bool)> {
    let mut seen: BTreeSet<Atom> = BTreeSet::new();
    let mut removed = Vec::new();
    for (f, a) in substituted(pre, from, to).into_iter().enumerate() {
        if !seen.insert(a) {
            removed.push((f, pre[f].terms().contains(&from)));
        }
    }
    removed
}

#[test]
fn a_long_merge_chain_matches_the_replay_oracle_after_every_merge() {
    // A few hundred facts over four tables — `P/2`, `Q/2`, `Q/3` (one
    // predicate at two arities) and `R/1` — then dozens of chained merges,
    // each checked against a from-scratch replay. Planted rows make sure
    // the chain includes a merge that absorbs an untouched row mid-store
    // with many later rows, one that removes rows from two tables, and
    // one that touches both arities of `Q`; the walk below asserts each of
    // those really happened.
    let mut rng = StdRng::seed_from_u64(0x5eed_cafe);
    let c = |i: u32| Term::constant(&format!("lc{i}"));
    let pick = |rng: &mut StdRng| {
        if rng.gen_bool(0.4) {
            c(rng.gen_range(0..16u32))
        } else {
            Term::null(rng.gen_range(0..48u32))
        }
    };
    let mut stream: Vec<Atom> = Vec::new();
    for i in 0..300 {
        // Planted rows, at fixed stream positions.
        match i {
            20 => stream.push(Atom::new("P", vec![Term::null(102), c(90)])),
            30 => stream.push(Atom::new("Q", vec![Term::null(102), c(91), c(92)])),
            40 => stream.push(Atom::new("Q", vec![Term::null(104), c(93)])),
            100 => stream.push(Atom::new("P", vec![Term::null(100), c(94)])),
            150 => stream.push(Atom::new("P", vec![c(95), c(94)])),
            200 => stream.push(Atom::new("P", vec![Term::null(101), c(90)])),
            210 => stream.push(Atom::new("Q", vec![Term::null(101), c(91), c(92)])),
            220 => stream.push(Atom::new("Q", vec![Term::null(103), c(93)])),
            230 => stream.push(Atom::new("Q", vec![Term::null(103), c(93), c(96)])),
            _ => {}
        }
        let (pred, arity) = [("P", 2), ("Q", 2), ("Q", 3), ("R", 1)][rng.gen_range(0..4usize)];
        stream.push(Atom::new(
            pred,
            (0..arity).map(|_| pick(&mut rng)).collect(),
        ));
    }
    let mut inst = replay_oracle(&stream);
    assert!(inst.len() > 250, "the store must hold a few hundred facts");

    // Planted merges interleaved with a chain over the random nulls: null
    // into null, null into constant.
    let mut merges: Vec<(Term, Term)> = Vec::new();
    for k in 0..40u32 {
        match k {
            5 => merges.push((Term::null(100), c(95))), // absorbs P(lc95, lc94)
            15 => merges.push((Term::null(101), Term::null(102))), // P and Q/3
            25 => merges.push((Term::null(103), Term::null(104))), // Q/2 and Q/3
            _ => {}
        }
        let to = if k % 3 == 0 {
            c(rng.gen_range(0..16u32))
        } else {
            Term::null(k + 1 + rng.gen_range(0..8u32))
        };
        merges.push((Term::null(k), to));
    }

    let (mut mid_absorb, mut two_tables, mut two_arities, mut removing) = (false, false, false, 0);
    for &(from, to) in &merges {
        let pre = inst.atoms();
        let removals = replay_removals(&pre, from, to);
        let eff = inst.merge_terms(from, to);
        assert_eq!(eff.collapsed, removals.len(), "merge {from} -> {to}");
        assert_eq!(eff.collapsed, pre.len() - inst.len());
        let oracle = replay_oracle(&substituted(&pre, from, to));
        if let Err(e) = same_store(&inst, &oracle, (from, to)) {
            panic!("after merge {from} -> {to}: {e}");
        }
        if let Some(&(first, _)) = removals.first() {
            removing += 1;
            let later = pre.len() - first - 1;
            mid_absorb |= removals.iter().any(|&(_, touched)| !touched)
                && first > pre.len() / 4
                && later >= 50;
            let tables: BTreeSet<(Sym, usize)> = removals
                .iter()
                .map(|&(f, _)| (pre[f].pred(), pre[f].arity()))
                .collect();
            two_tables |= tables.len() >= 2;
        }
        let q = Sym::new("Q");
        let touched_arities: BTreeSet<usize> = pre
            .iter()
            .filter(|a| a.pred() == q && a.terms().contains(&from))
            .map(|a| a.arity())
            .collect();
        two_arities |= touched_arities.len() == 2 && !removals.is_empty();
    }
    assert!(removing >= 10, "only {removing} merges removed rows");
    assert!(mid_absorb, "no merge absorbed an untouched row mid-store");
    assert!(two_tables, "no merge removed rows from two tables");
    assert!(two_arities, "no removing merge touched Q at both arities");
}
