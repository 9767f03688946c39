//! The homomorphism engine.
//!
//! A homomorphism from a set of atoms `A1` to a set of atoms `A2` is a
//! mapping that is the identity on constants and maps each atom of `A1` into
//! `A2` (Section 2). This module implements backtracking search for such
//! mappings against an indexed [`Instance`], with two flexibility modes:
//!
//! * **pattern mode** (`flex_nulls = false`): only variables are mapped —
//!   used for constraint bodies, TGD-head extension tests and conjunctive
//!   queries;
//! * **instance mode** (`flex_nulls = true`): labeled nulls of the source are
//!   mapped too — used for homomorphisms *between instances* (e.g. chase
//!   result equivalence, universal-plan checks).
//!
//! Atom ordering is dynamic: at every depth the searcher expands the
//! remaining atom with the fewest index candidates under the current partial
//! substitution (the classic "most constrained first" join heuristic).

use crate::atom::Atom;
use crate::instance::Instance;
use crate::symbol::Sym;
use crate::term::Term;
use std::fmt;

/// A substitution: finite mapping from variables (and, in instance mode,
/// labeled nulls) to ground terms. Constants are always fixed.
///
/// Each half is a vector of pairs sorted by key (the variable's `Sym` id,
/// the null id), not a hash map: a trigger binds three or four variables,
/// so scanning a few pairs beats hashing (a binary search lost to the hash
/// map on `matching_micro/star`), and cloning a match copies one small
/// buffer. The sorted order is canonical, so the derived `PartialEq` is map
/// equality.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Subst {
    vars: Vec<(Sym, Term)>,
    nulls: Vec<(u32, Term)>,
}

/// Bind `k` in a key-sorted vector, overwriting an existing binding.
fn bind<K: Ord + Copy>(map: &mut Vec<(K, Term)>, k: K, t: Term) {
    match map.iter().position(|&(key, _)| key >= k) {
        Some(i) if map[i].0 == k => map[i].1 = t,
        Some(i) => map.insert(i, (k, t)),
        None => map.push((k, t)),
    }
}

/// The binding of `k` in a key-sorted vector.
fn lookup<K: Ord + Copy>(map: &[(K, Term)], k: K) -> Option<Term> {
    map.iter().find(|&&(key, _)| key == k).map(|&(_, t)| t)
}

/// Remove the binding of `k` from a key-sorted vector, if any.
fn unbind<K: Ord + Copy>(map: &mut Vec<(K, Term)>, k: K) {
    if let Some(i) = map.iter().position(|&(key, _)| key == k) {
        map.remove(i);
    }
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// Build a substitution from variable bindings.
    pub fn from_vars(bindings: impl IntoIterator<Item = (Sym, Term)>) -> Subst {
        let mut mu = Subst::new();
        for (v, t) in bindings {
            mu.bind_var(v, t);
        }
        mu
    }

    /// Bind a variable.
    pub fn bind_var(&mut self, v: Sym, t: Term) {
        bind(&mut self.vars, v, t);
    }

    /// Bind a labeled null (instance mode).
    pub fn bind_null(&mut self, n: u32, t: Term) {
        bind(&mut self.nulls, n, t);
    }

    /// Binding of a variable, if any.
    pub fn var(&self, v: Sym) -> Option<Term> {
        lookup(&self.vars, v)
    }

    /// Binding of a null, if any.
    pub fn null(&self, n: u32) -> Option<Term> {
        lookup(&self.nulls, n)
    }

    /// Apply to a term: bound variables/nulls are replaced, everything else
    /// (including unbound variables) is returned unchanged.
    pub fn apply(&self, t: Term) -> Term {
        match t {
            Term::Var(v) => self.var(v).unwrap_or(t),
            Term::Null(n) => self.null(n).unwrap_or(t),
            Term::Const(_) => t,
        }
    }

    /// Apply to every argument of an atom.
    pub fn apply_atom(&self, a: &Atom) -> Atom {
        a.map_terms(|t| self.apply(t))
    }

    /// Apply to a slice of atoms.
    pub fn apply_atoms(&self, atoms: &[Atom]) -> Vec<Atom> {
        atoms.iter().map(|a| self.apply_atom(a)).collect()
    }

    /// Variable bindings, sorted by variable name (deterministic).
    pub fn var_bindings(&self) -> Vec<(Sym, Term)> {
        let mut v = self.vars.clone();
        v.sort_by_key(|(k, _)| k.as_str());
        v
    }

    /// Null bindings, sorted by null id (deterministic).
    pub fn null_bindings(&self) -> Vec<(u32, Term)> {
        self.nulls.clone()
    }

    /// True iff no variable or null is bound.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty() && self.nulls.is_empty()
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (v, t) in self.var_bindings() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{v}→{t}")?;
        }
        for (n, t) in self.null_bindings() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "_n{n}→{t}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// What the searcher undoes when backtracking out of an atom match.
enum Undo {
    Var(Sym),
    Null(u32),
}

struct Searcher<'a> {
    pattern: &'a [Atom],
    target: &'a Instance,
    flex_nulls: bool,
    subst: Subst,
}

impl<'a> Searcher<'a> {
    /// Positions of `atom` whose value is already determined under the
    /// current substitution; used for dynamic atom ordering and for the
    /// index-driven candidate scan.
    fn fixed_positions(&self, atom: &Atom) -> Vec<(usize, Term)> {
        let mut fixed = Vec::new();
        for (i, &raw) in atom.terms().iter().enumerate() {
            let t = self.subst.apply(raw);
            let determined = match t {
                Term::Const(_) => true,
                Term::Var(_) => false, // unbound variable: wildcard
                Term::Null(n) => {
                    // In flex mode an *unbound* null is a wildcard; a bound
                    // null (even one bound to itself) and any null in rigid
                    // mode only match that exact term.
                    !(self.flex_nulls && raw == t && self.subst.null(n).is_none())
                }
            };
            if determined {
                fixed.push((i, t));
            }
        }
        fixed
    }

    /// Try to match `atom` against the stored fact `fact`, extending the
    /// substitution. Returns the undo list on success.
    ///
    /// The fact stays in the columnar store — each position is an O(1) id
    /// round-trip ([`crate::instance::FactView::term`]), so no candidate is
    /// ever materialized or cloned.
    fn try_match(&mut self, atom: &Atom, fact: crate::instance::FactView<'_>) -> Option<Vec<Undo>> {
        debug_assert_eq!(atom.pred(), fact.pred());
        if atom.arity() != fact.arity() {
            return None;
        }
        let mut undo = Vec::new();
        for (i, &p) in atom.terms().iter().enumerate() {
            let g = fact.term(i);
            let ok = match p {
                Term::Const(_) => p == g,
                Term::Var(v) => match self.subst.var(v) {
                    Some(t) => t == g,
                    None => {
                        self.subst.bind_var(v, g);
                        undo.push(Undo::Var(v));
                        true
                    }
                },
                Term::Null(n) => {
                    if self.flex_nulls {
                        match self.subst.null(n) {
                            Some(t) => t == g,
                            None => {
                                self.subst.bind_null(n, g);
                                undo.push(Undo::Null(n));
                                true
                            }
                        }
                    } else {
                        p == g
                    }
                }
            };
            if !ok {
                self.unwind(undo);
                return None;
            }
        }
        Some(undo)
    }

    fn unwind(&mut self, undo: Vec<Undo>) {
        for u in undo {
            match u {
                Undo::Var(v) => unbind(&mut self.subst.vars, v),
                Undo::Null(n) => unbind(&mut self.subst.nulls, n),
            }
        }
    }

    /// Depth-first search. `remaining` holds indices into `self.pattern`.
    /// Returns `true` if the callback asked to stop.
    fn search(&mut self, remaining: &mut Vec<usize>, cb: &mut dyn FnMut(&Subst) -> bool) -> bool {
        if remaining.is_empty() {
            return cb(&self.subst);
        }
        // Dynamic ordering: expand the most constrained remaining atom.
        let mut best_slot = 0;
        let mut best_len = usize::MAX;
        for (slot, &ai) in remaining.iter().enumerate() {
            let atom = &self.pattern[ai];
            let fixed = self.fixed_positions(atom);
            let len = self.target.candidates(atom.pred(), &fixed).len();
            if len < best_len {
                best_len = len;
                best_slot = slot;
                if len == 0 {
                    return false; // some atom has no candidates: dead branch
                }
            }
        }
        let ai = remaining.swap_remove(best_slot);
        let atom = &self.pattern[ai];
        let fixed = self.fixed_positions(atom);
        // The candidate bucket borrows from `target`; clone the indices so we
        // can mutate `self` while iterating.
        let cands: Vec<u32> = self.target.candidates(atom.pred(), &fixed).to_vec();
        // Copy the `&'a Instance` out of `self` so candidate views outlive
        // the `&mut self` re-borrows below.
        let target = self.target;
        let mut stopped = false;
        for ci in cands {
            let fact = target.fact(ci);
            if let Some(undo) = self.try_match(&self.pattern[ai], fact) {
                if self.search(remaining, cb) {
                    self.unwind(undo);
                    stopped = true;
                    break;
                }
                self.unwind(undo);
            }
        }
        // Restore `remaining` exactly (swap_remove reordering is fine — it is
        // a set — but the element must come back).
        remaining.push(ai);
        stopped
    }
}

/// Enumerate homomorphisms from `pattern` into `target`, extending `seed`.
///
/// The callback receives each complete substitution; returning `true` stops
/// the enumeration. The function returns `true` iff the callback stopped it.
pub fn for_each_hom(
    pattern: &[Atom],
    target: &Instance,
    seed: &Subst,
    flex_nulls: bool,
    cb: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let mut searcher = Searcher {
        pattern,
        target,
        flex_nulls,
        subst: seed.clone(),
    };
    let mut remaining: Vec<usize> = (0..pattern.len()).collect();
    searcher.search(&mut remaining, cb)
}

/// First homomorphism from `pattern` into `target`, if any (pattern mode).
pub fn find_hom(pattern: &[Atom], target: &Instance) -> Option<Subst> {
    find_hom_seeded(pattern, target, &Subst::new())
}

/// First homomorphism extending `seed`, if any (pattern mode).
pub fn find_hom_seeded(pattern: &[Atom], target: &Instance, seed: &Subst) -> Option<Subst> {
    let mut found = None;
    for_each_hom(pattern, target, seed, false, &mut |s| {
        found = Some(s.clone());
        true
    });
    found
}

/// Does any homomorphism from `pattern` into `target` exist (pattern mode)?
pub fn exists_hom(pattern: &[Atom], target: &Instance) -> bool {
    exists_extension(pattern, target, &Subst::new())
}

/// Does a homomorphism extending `seed` exist (pattern mode)?
///
/// This is the TGD-applicability primitive: a TGD with body match `µ` is
/// *satisfied* for `µ` iff `exists_extension(head, instance, µ)`.
pub fn exists_extension(pattern: &[Atom], target: &Instance, seed: &Subst) -> bool {
    for_each_hom(pattern, target, seed, false, &mut |_| true)
}

/// All homomorphisms from `pattern` into `target` (pattern mode), in the
/// deterministic order produced by the searcher.
pub fn find_all_homs(pattern: &[Atom], target: &Instance) -> Vec<Subst> {
    find_all_homs_seeded(pattern, target, &Subst::new())
}

/// All homomorphisms extending `seed` (pattern mode).
pub fn find_all_homs_seeded(pattern: &[Atom], target: &Instance, seed: &Subst) -> Vec<Subst> {
    let mut out = Vec::new();
    for_each_hom(pattern, target, seed, false, &mut |s| {
        out.push(s.clone());
        false
    });
    out
}

/// Unify one pattern atom with one ground fact, extending `seed` (pattern
/// mode: variables bind or must agree; constants and nulls only match
/// themselves). Returns the extended substitution on success.
///
/// This is the single-atom, persistent-substitution counterpart of the
/// searcher's internal `try_match` and must keep the same per-position
/// semantics — the delta-driven trigger engine seeds its re-matching with
/// it, and the matcher's reference completes the seed through
/// [`for_each_hom`], so a disagreement between the two would make delta
/// enumeration diverge from full enumeration (see
/// `unify_atom_agrees_with_searcher`).
pub fn unify_atom(pattern: &Atom, fact: &Atom, seed: &Subst) -> Option<Subst> {
    if pattern.pred() != fact.pred() || pattern.arity() != fact.arity() {
        return None;
    }
    let mut mu = seed.clone();
    for (&p, &g) in pattern.terms().iter().zip(fact.terms()) {
        match p {
            Term::Var(v) => match mu.var(v) {
                Some(t) if t == g => {}
                Some(_) => return None,
                None => mu.bind_var(v, g),
            },
            _ => {
                if p != g {
                    return None;
                }
            }
        }
    }
    Some(mu)
}

/// A homomorphism **between instances**: constants fixed, nulls of `from`
/// flexible. Returns the mapping if one exists.
pub fn instance_hom(from: &Instance, to: &Instance) -> Option<Subst> {
    let mut found = None;
    for_each_hom(&from.atoms(), to, &Subst::new(), true, &mut |s| {
        found = Some(s.clone());
        true
    });
    found
}

/// Are two instances homomorphically equivalent (maps both ways)?
pub fn hom_equivalent(a: &Instance, b: &Instance) -> bool {
    instance_hom(a, b).is_some() && instance_hom(b, a).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(text: &str) -> Instance {
        Instance::parse(text).unwrap()
    }

    fn atoms(text: &str) -> Vec<Atom> {
        crate::parser::parse_atom_list(text).unwrap()
    }

    #[test]
    fn simple_match() {
        let i = inst("E(a,b). E(b,c).");
        let homs = find_all_homs(&atoms("E(X,Y), E(Y,Z)"), &i);
        assert_eq!(homs.len(), 1);
        let h = &homs[0];
        assert_eq!(h.var(Sym::new("X")), Some(Term::constant("a")));
        assert_eq!(h.var(Sym::new("Z")), Some(Term::constant("c")));
    }

    #[test]
    fn shared_variable_constrains() {
        let i = inst("E(a,b). E(c,d).");
        assert!(!exists_hom(&atoms("E(X,Y), E(Y,Z)"), &i));
    }

    #[test]
    fn constants_are_fixed() {
        let i = inst("E(a,b).");
        assert!(exists_hom(&atoms("E(a,Y)"), &i));
        assert!(!exists_hom(&atoms("E(b,Y)"), &i));
    }

    #[test]
    fn empty_pattern_has_exactly_one_hom() {
        let i = inst("E(a,b).");
        assert_eq!(find_all_homs(&[], &i).len(), 1);
        assert!(exists_hom(&[], &Instance::new()));
    }

    #[test]
    fn seeded_search_respects_bindings() {
        let i = inst("E(a,b). E(b,c).");
        let seed = Subst::from_vars([(Sym::new("X"), Term::constant("b"))]);
        let homs = find_all_homs_seeded(&atoms("E(X,Y)"), &i, &seed);
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].var(Sym::new("Y")), Some(Term::constant("c")));
    }

    #[test]
    fn nulls_rigid_in_pattern_mode() {
        let i = inst("E(a,_n0).");
        // The pattern contains _n1, which does not occur in the instance; in
        // pattern mode nulls only match themselves.
        let pat = vec![Atom::new("E", vec![Term::constant("a"), Term::null(1)])];
        assert!(!exists_hom(&pat, &i));
        let pat0 = vec![Atom::new("E", vec![Term::constant("a"), Term::null(0)])];
        assert!(exists_hom(&pat0, &i));
    }

    #[test]
    fn instance_hom_maps_nulls() {
        let from = inst("E(a,_n0). S(_n0).");
        let to = inst("E(a,b). S(b). S(c).");
        let h = instance_hom(&from, &to).expect("hom should exist");
        assert_eq!(h.null(0), Some(Term::constant("b")));
        assert!(
            instance_hom(&to, &from).is_none(),
            "no hom back: c unmatched"
        );
    }

    #[test]
    fn hom_equivalence_detects_isomorphic_cores() {
        let a = inst("E(a,_n0).");
        let b = inst("E(a,_n5). E(a,_n6).");
        assert!(hom_equivalent(&a, &b));
    }

    #[test]
    fn all_homs_count() {
        let i = inst("E(a,b). E(a,c). E(b,c).");
        assert_eq!(find_all_homs(&atoms("E(X,Y)"), &i).len(), 3);
        assert_eq!(find_all_homs(&atoms("E(a,Y)"), &i).len(), 2);
    }

    #[test]
    fn cartesian_patterns_enumerate_fully() {
        let i = inst("P(a). P(b). Q(c). Q(d).");
        assert_eq!(find_all_homs(&atoms("P(X), Q(Y)"), &i).len(), 4);
    }

    #[test]
    fn unify_atom_agrees_with_searcher() {
        // For a single-atom pattern, `unify_atom` against each fact must
        // produce exactly the substitutions the backtracking searcher
        // enumerates — the contract the delta-driven trigger engine relies
        // on.
        let i = inst("E(a,b). E(b,b). E(a,_n0). S(a). T(a,b,c).");
        let patterns = ["E(X,Y)", "E(X,X)", "E(a,Y)", "S(X)", "T(X,Y,Z)", "T(X,X,Z)"];
        for pat in patterns {
            let pattern = &atoms(pat)[0];
            let mut via_unify: Vec<Vec<(Sym, Term)>> = i
                .iter()
                .filter_map(|fact| unify_atom(pattern, &fact, &Subst::new()))
                .map(|mu| mu.var_bindings())
                .collect();
            let mut via_search: Vec<Vec<(Sym, Term)>> =
                find_all_homs(std::slice::from_ref(pattern), &i)
                    .into_iter()
                    .map(|mu| mu.var_bindings())
                    .collect();
            via_unify.sort();
            via_search.sort();
            assert_eq!(via_unify, via_search, "disagreement on {pat}");
        }
        // Rigid nulls and fixed seeds behave the same way, too.
        let pat = &atoms("E(X,_n0)")[0];
        assert_eq!(
            i.iter()
                .filter_map(|f| unify_atom(pat, &f, &Subst::new()))
                .count(),
            1
        );
        let seed = Subst::from_vars([(Sym::new("X"), Term::constant("a"))]);
        let pat = &atoms("E(X,Y)")[0];
        assert_eq!(
            i.iter().filter_map(|f| unify_atom(pat, &f, &seed)).count(),
            2
        );
    }

    mod subst_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const VARS: [&str; 6] = ["Zeta", "X", "Y1", "A", "W", "Mid"];
        const CONSTS: [&str; 3] = ["a", "b", "c7"];

        /// SplitMix64: one random stream per proptest seed.
        fn next(state: &mut u64) -> u64 {
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn ground(x: u64) -> Term {
            if x.is_multiple_of(2) {
                Term::constant(CONSTS[(x / 2 % 3) as usize])
            } else {
                Term::null((x / 2 % 4) as u32)
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            #[test]
            fn subst_behaves_like_a_sorted_map(seed in any::<u64>(), len in 0usize..24) {
                let mut state = seed;
                let mut mu = Subst::new();
                let mut vars: BTreeMap<&str, Term> = BTreeMap::new();
                let mut nulls: BTreeMap<u32, Term> = BTreeMap::new();
                for _ in 0..len {
                    let (key, t) = (next(&mut state), ground(next(&mut state)));
                    if key.is_multiple_of(3) {
                        let n = (key / 3 % 5) as u32;
                        mu.bind_null(n, t);
                        nulls.insert(n, t);
                    } else {
                        let name = VARS[(key / 3 % 6) as usize];
                        mu.bind_var(Sym::new(name), t);
                        vars.insert(name, t);
                    }
                }
                for name in VARS {
                    let v = Sym::new(name);
                    prop_assert_eq!(mu.var(v), vars.get(name).copied());
                    prop_assert_eq!(mu.apply(Term::Var(v)), vars.get(name).copied().unwrap_or(Term::Var(v)));
                }
                for n in 0..5 {
                    prop_assert_eq!(mu.null(n), nulls.get(&n).copied());
                    prop_assert_eq!(mu.apply(Term::Null(n)), nulls.get(&n).copied().unwrap_or(Term::Null(n)));
                }
                prop_assert_eq!(mu.apply(Term::constant("a")), Term::constant("a"));
                let model_vars: Vec<(Sym, Term)> = vars.iter().map(|(&k, &t)| (Sym::new(k), t)).collect();
                let model_nulls: Vec<(u32, Term)> = nulls.iter().map(|(&k, &t)| (k, t)).collect();
                prop_assert_eq!(mu.var_bindings(), &model_vars[..]);
                prop_assert_eq!(mu.null_bindings(), &model_nulls[..]);
                prop_assert_eq!(mu.is_empty(), vars.is_empty() && nulls.is_empty());
                let text: Vec<String> = vars
                    .iter()
                    .map(|(k, t)| format!("{k}→{t}"))
                    .chain(nulls.iter().map(|(n, t)| format!("_n{n}→{t}")))
                    .collect();
                prop_assert_eq!(format!("{mu:?}"), format!("{{{}}}", text.join(", ")));
                // The same bindings made in another order compare equal; one
                // changed binding does not.
                let mut rebuilt = Subst::new();
                for &(n, t) in model_nulls.iter().rev() {
                    rebuilt.bind_null(n, t);
                }
                for &(v, t) in model_vars.iter().rev() {
                    rebuilt.bind_var(v, t);
                }
                prop_assert_eq!(&rebuilt, &mu);
                if let Some(&(v, t)) = model_vars.first() {
                    let other = if t == Term::constant("a") { Term::constant("b") } else { Term::constant("a") };
                    rebuilt.bind_var(v, other);
                    prop_assert!(rebuilt != mu);
                }
            }
        }
    }
}
