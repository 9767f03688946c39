//! Planned execution: run a [`JoinProgram`] against an indexed [`Instance`].
//!
//! The executor keeps variable bindings in a dense *register file* of
//! interned term ids (`Vec<Option<TermId>>` indexed by the plan's register
//! allocation) instead of a hash-map substitution, verifies candidate facts
//! position by position straight out of the columnar store (raw `u32`
//! compares, no atom materialized), and unwinds bindings through an
//! explicit trail. [`chase_core::Term`]s are materialized — an O(1) id
//! round-trip each
//! — only when a complete match builds the [`chase_core::Subst`] the
//! callback needs.
//!
//! Candidates come from the access path the compiler chose: one exact-row
//! probe of the dedup table when every position is bound, else the
//! smallest applicable `(pred, position, id)` bucket, else the
//! per-predicate bucket. Every access path over-approximates the
//! matching facts and the per-position verification filters exactly, so the
//! enumerated homomorphism set is independent of the plan — the equivalence
//! the proptest suite pins against [`chase_core::homomorphism::for_each_hom`].

use crate::plan::{Access, JoinProgram, PatTerm};
use chase_core::homomorphism::Subst;
use chase_core::{Instance, TermId};

/// Mutable search state, separate from the instance so candidate buckets
/// (which borrow the instance) stay valid across recursion.
struct RunState {
    regs: Vec<Option<TermId>>,
    /// Registers bound since entry, for backtracking.
    trail: Vec<u16>,
    /// Scratch buffer for probed rows (reused across nodes).
    row: Vec<TermId>,
    /// The substitution handed to the callback, reused across matches: at a
    /// complete match every register is bound, so overwriting the pattern
    /// variables' bindings in place is equivalent to rebuilding from the
    /// seed — without the per-match clone.
    out: Subst,
}

/// Enumerate every homomorphism of the program's pattern into `inst` that
/// extends `seed`, exactly as [`chase_core::homomorphism::for_each_hom`]
/// would (pattern mode), but in plan order. The callback returns `true` to
/// stop; the function returns `true` iff the callback stopped it.
///
/// Seed bindings for variables the compiler did not assume bound are
/// honored (over-binding narrows the search); seed bindings for variables
/// outside the pattern ride along into the substitutions handed to the
/// callback, which extend the seed like the backtracking searcher's do.
pub fn for_each_match(
    prog: &JoinProgram,
    inst: &Instance,
    seed: &Subst,
    cb: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let mut st = RunState {
        regs: vec![None; prog.vars.len()],
        trail: Vec::with_capacity(prog.vars.len()),
        row: Vec::new(),
        out: seed.clone(),
    };
    for (r, &v) in prog.vars.iter().enumerate() {
        if let Some(t) = seed.var(v) {
            // A seed binding to a non-ground term (a variable bound to a
            // variable) could never equal a stored fact term; `NEVER` keeps
            // that semantics in id space.
            st.regs[r] = Some(TermId::from_ground(t).unwrap_or(TermId::NEVER));
        }
    }
    step(prog, inst, &mut st, 0, cb)
}

/// Does any homomorphism extending `seed` exist? The planned counterpart of
/// [`chase_core::exists_extension`].
pub fn exists_match(prog: &JoinProgram, inst: &Instance, seed: &Subst) -> bool {
    for_each_match(prog, inst, seed, &mut |_| true)
}

fn step(
    prog: &JoinProgram,
    inst: &Instance,
    st: &mut RunState,
    depth: usize,
    cb: &mut dyn FnMut(&Subst) -> bool,
) -> bool {
    let Some(s) = prog.steps.get(depth) else {
        // Complete match: every register is bound (each variable occurs in
        // some matched atom), so overwriting `out`'s bindings in place
        // yields exactly `seed` extended by the current registers. The
        // substitution is only valid for the duration of the callback, like
        // the backtracking searcher's. This is the one place ids become
        // [`chase_core::Term`]s again.
        for (r, &v) in prog.vars.iter().enumerate() {
            let t = st.regs[r].expect("all registers bound at a complete match");
            st.out.bind_var(v, t.term());
        }
        return cb(&st.out);
    };
    // Resolve the step's access path under the current registers. Bound
    // registers are always `Some` by construction (seed or earlier step);
    // the fallbacks below (a probe whose row does not resolve, positions
    // skipped in `positional_bucket`) only defend against callers seeding
    // less than the compiler was promised, degrading to a wider bucket.
    let hit: [u32; 1];
    let cands: &[u32] = match s.access {
        Access::Probe if resolve_row(&s.terms, &st.regs, &mut st.row) => {
            match inst.find_ids(s.pred, &st.row) {
                Some(f) => {
                    hit = [f];
                    &hit
                }
                None => &[],
            }
        }
        Access::Probe | Access::Positional => positional_bucket(inst, s, &st.regs),
        Access::FullScan => inst.pred_bucket(s.pred),
    };
    'cand: for &ci in cands {
        let fact = inst.fact(ci);
        if fact.arity() != s.terms.len() {
            continue;
        }
        let mark = st.trail.len();
        for (i, &pt) in s.terms.iter().enumerate() {
            let g = fact.term_id(i);
            let ok = match pt {
                PatTerm::Ground(t) => t == g,
                PatTerm::Var(r) => match st.regs[r as usize] {
                    Some(t) => t == g,
                    None => {
                        st.regs[r as usize] = Some(g);
                        st.trail.push(r);
                        true
                    }
                },
            };
            if !ok {
                unwind(st, mark);
                continue 'cand;
            }
        }
        if step(prog, inst, st, depth + 1, cb) {
            unwind(st, mark);
            return true;
        }
        unwind(st, mark);
    }
    false
}

/// The smallest applicable single-position bucket for the step (the same
/// choice [`Instance::candidates`] makes), falling back to the
/// per-predicate bucket when nothing is bound.
fn positional_bucket<'a>(
    inst: &'a Instance,
    s: &crate::plan::PlanStep,
    regs: &[Option<TermId>],
) -> &'a [u32] {
    let mut best: Option<&'a [u32]> = None;
    for &(pos, pt) in &s.bound {
        let Some(t) = resolve(pt, regs) else { continue };
        let bucket = inst.pos_bucket(s.pred, pos as usize, t);
        if best.is_none_or(|b| bucket.len() < b.len()) {
            best = Some(bucket);
        }
        if bucket.is_empty() {
            break;
        }
    }
    best.unwrap_or_else(|| inst.pred_bucket(s.pred))
}

/// Resolve every slot of `terms` into `row`; `false` if some register is
/// unbound.
fn resolve_row(terms: &[PatTerm], regs: &[Option<TermId>], row: &mut Vec<TermId>) -> bool {
    row.clear();
    for &pt in terms {
        match resolve(pt, regs) {
            Some(t) => row.push(t),
            None => return false,
        }
    }
    true
}

fn resolve(pt: PatTerm, regs: &[Option<TermId>]) -> Option<TermId> {
    match pt {
        PatTerm::Ground(t) => Some(t),
        PatTerm::Var(r) => regs[r as usize],
    }
}

fn unwind(st: &mut RunState, mark: usize) {
    while st.trail.len() > mark {
        let r = st.trail.pop().expect("trail entry");
        st.regs[r as usize] = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{compile, NoStats};
    use chase_core::homomorphism::find_all_homs_seeded;
    use chase_core::parser::parse_atom_list;
    use chase_core::{Atom, Sym, Term};

    fn inst(text: &str) -> Instance {
        Instance::parse(text).unwrap()
    }

    fn atoms(text: &str) -> Vec<Atom> {
        parse_atom_list(text).unwrap()
    }

    /// Normalized multiset of all matches, for order-free comparison.
    fn all_matches(prog: &JoinProgram, i: &Instance, seed: &Subst) -> Vec<Vec<(Sym, Term)>> {
        let mut out = Vec::new();
        for_each_match(prog, i, seed, &mut |mu| {
            out.push(mu.var_bindings());
            false
        });
        out.sort();
        out
    }

    fn unplanned(pat: &[Atom], i: &Instance, seed: &Subst) -> Vec<Vec<(Sym, Term)>> {
        let mut out: Vec<Vec<(Sym, Term)>> = find_all_homs_seeded(pat, i, seed)
            .into_iter()
            .map(|mu| mu.var_bindings())
            .collect();
        out.sort();
        out
    }

    #[test]
    fn planned_matches_agree_with_searcher() {
        let i = inst("E(a,b). E(b,c). E(c,d). E(a,c). S(b). S(c). T(a,b,c). T(b,c,d).");
        for pat in [
            "E(X,Y), E(Y,Z)",
            "S(X), E(X,Y), E(Y,Z), S(Z)",
            "T(X,Y,Z), E(X,Y), S(Y)",
            "E(X,X)",
            "E(a,Y)",
            "P(X)", // predicate absent from the instance
        ] {
            let pattern = atoms(pat);
            let prog = compile(&pattern, &[], &i);
            assert_eq!(
                all_matches(&prog, &i, &Subst::new()),
                unplanned(&pattern, &i, &Subst::new()),
                "planned/unplanned disagree on {pat}\n{prog}"
            );
        }
    }

    #[test]
    fn planned_matches_respect_seeds() {
        let i = inst("E(a,b). E(b,c). E(c,d).");
        let pattern = atoms("E(X,Y), E(Y,Z)");
        let seed = Subst::from_vars([(Sym::new("X"), Term::constant("a"))]);
        let prog = compile(&pattern, &[Sym::new("X")], &i);
        assert_eq!(
            all_matches(&prog, &i, &seed),
            unplanned(&pattern, &i, &seed)
        );
        // Over-binding: a variable the compiler assumed free arrives bound.
        let over = Subst::from_vars([
            (Sym::new("X"), Term::constant("a")),
            (Sym::new("Z"), Term::constant("c")),
        ]);
        assert_eq!(
            all_matches(&prog, &i, &over),
            unplanned(&pattern, &i, &over)
        );
        // Seed bindings outside the pattern ride along.
        let extra = Subst::from_vars([(Sym::new("W"), Term::constant("q"))]);
        let homs = all_matches(&prog, &i, &extra);
        assert!(homs
            .iter()
            .all(|b| b.contains(&(Sym::new("W"), Term::constant("q")))));
    }

    #[test]
    fn empty_pattern_yields_exactly_the_seed() {
        let i = inst("E(a,b).");
        let prog = compile(&[], &[], &NoStats);
        let seed = Subst::from_vars([(Sym::new("X"), Term::constant("a"))]);
        assert_eq!(all_matches(&prog, &i, &seed), vec![seed.var_bindings()]);
        assert!(exists_match(&prog, &Instance::new(), &Subst::new()));
    }

    #[test]
    fn row_probe_agrees_with_searcher() {
        // T(X,Y) is probed once S and R bind both columns; U(X,Y,Z) gets a
        // two-column positional step; T at arity 1 shares the predicate.
        let mut i = Instance::new();
        for k in 0..32 {
            let (a, b) = (format!("a{}", k % 4), format!("b{}", k % 8));
            let (a, b) = (Term::constant(&a), Term::constant(&b));
            i.insert(Atom::new("T", vec![a, b]));
            i.insert(Atom::new("U", vec![a, b, Term::constant("c")]));
            i.insert(Atom::new("T", vec![a]));
        }
        for k in 0..4 {
            i.insert(Atom::new("S", vec![Term::constant(&format!("a{k}"))]));
            i.insert(Atom::new("R", vec![Term::constant(&format!("b{k}"))]));
        }
        for pat in ["T(X,Y), S(X), R(Y)", "U(X,Y,Z), S(X), R(Y)", "T(X,Y), T(X)"] {
            let pattern = atoms(pat);
            let prog = compile(&pattern, &[], &i);
            let got = all_matches(&prog, &i, &Subst::new());
            assert!(!got.is_empty(), "{pat}");
            assert_eq!(got, unplanned(&pattern, &i, &Subst::new()), "{pat}\n{prog}");
        }
        let prog = compile(&atoms("T(X,Y), S(X), R(Y)"), &[], &i);
        assert!(
            prog.steps.iter().any(|s| s.access == Access::Probe),
            "{prog}"
        );
    }

    #[test]
    fn rigid_nulls_only_match_themselves() {
        let i = inst("E(a,_n0). E(a,b).");
        let pattern = vec![Atom::new("E", vec![Term::constant("a"), Term::null(0)])];
        let prog = compile(&pattern, &[], &i);
        assert_eq!(all_matches(&prog, &i, &Subst::new()).len(), 1);
        let missing = vec![Atom::new("E", vec![Term::constant("a"), Term::null(7)])];
        let prog = compile(&missing, &[], &i);
        assert!(!exists_match(&prog, &i, &Subst::new()));
    }

    #[test]
    fn callback_stop_propagates() {
        let i = inst("S(a). S(b). S(c).");
        let pattern = atoms("S(X)");
        let prog = compile(&pattern, &[], &i);
        let mut n = 0;
        let stopped = for_each_match(&prog, &i, &Subst::new(), &mut |_| {
            n += 1;
            n == 2
        });
        assert!(stopped);
        assert_eq!(n, 2);
    }
}
