//! Constraints: tuple-generating and equality-generating dependencies.
//!
//! Section 2 of the paper. A TGD is `∀x (φ(x) → ∃y ψ(x,y))` with conjunctive
//! `φ` (possibly empty) and non-empty conjunctive `ψ`; an EGD is
//! `∀x (φ(x) → xi = xj)`. Existential variables of a TGD are *inferred*: every
//! head variable that does not occur in the body is existentially quantified,
//! which makes condition (e) of the paper's definition hold by construction.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::homomorphism::{exists_extension, for_each_hom, Subst};
use crate::instance::Instance;
use crate::schema::{PosSet, Position, Schema};
use crate::symbol::Sym;
use crate::term::Term;
use std::fmt;

fn check_constraint_atoms(atoms: &[Atom], side: &str) -> Result<(), CoreError> {
    for a in atoms {
        for t in a.terms() {
            if t.is_null() {
                return Err(CoreError::InvalidConstraint(format!(
                    "labeled null {t} in {side} atom {a}; constraints range over variables and constants only"
                )));
            }
        }
    }
    Ok(())
}

fn distinct_vars(atoms: &[Atom]) -> Vec<Sym> {
    let mut out = Vec::new();
    for a in atoms {
        for v in a.vars() {
            if !out.contains(&v) {
                out.push(v);
            }
        }
    }
    out
}

fn positions_of_atoms(atoms: &[Atom]) -> PosSet {
    let mut out = PosSet::new();
    for a in atoms {
        for i in 0..a.arity() {
            out.insert(Position::new(a.pred(), i));
        }
    }
    out
}

fn positions_of_var(atoms: &[Atom], v: Sym) -> PosSet {
    let mut out = PosSet::new();
    for a in atoms {
        for (p, t) in a.entries() {
            if t == Term::Var(v) {
                out.insert(p);
            }
        }
    }
    out
}

/// A tuple-generating dependency `∀x (body → ∃y head)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Tgd {
    body: Vec<Atom>,
    head: Vec<Atom>,
    universals: Vec<Sym>,
    existentials: Vec<Sym>,
    frontier: Vec<Sym>,
}

impl Tgd {
    /// Construct a TGD; head variables absent from the body become
    /// existential. Errors if the head is empty or any atom contains a null.
    pub fn new(body: Vec<Atom>, head: Vec<Atom>) -> Result<Tgd, CoreError> {
        if head.is_empty() {
            return Err(CoreError::InvalidConstraint(
                "a TGD must have a non-empty head".into(),
            ));
        }
        check_constraint_atoms(&body, "body")?;
        check_constraint_atoms(&head, "head")?;
        let universals = distinct_vars(&body);
        let head_vars = distinct_vars(&head);
        let existentials: Vec<Sym> = head_vars
            .iter()
            .copied()
            .filter(|v| !universals.contains(v))
            .collect();
        let frontier: Vec<Sym> = head_vars
            .into_iter()
            .filter(|v| universals.contains(v))
            .collect();
        Ok(Tgd {
            body,
            head,
            universals,
            existentials,
            frontier,
        })
    }

    /// Parse a single TGD from text.
    pub fn parse(text: &str) -> Result<Tgd, CoreError> {
        match crate::parser::parse_constraint(text)? {
            Constraint::Tgd(t) => Ok(t),
            Constraint::Egd(_) => Err(CoreError::InvalidConstraint(
                "expected a TGD, parsed an EGD".into(),
            )),
        }
    }

    /// Body atoms (`φ`).
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Head atoms (`ψ`).
    pub fn head(&self) -> &[Atom] {
        &self.head
    }

    /// Universally quantified variables (distinct body variables, in
    /// first-occurrence order).
    pub fn universals(&self) -> &[Sym] {
        &self.universals
    }

    /// Existentially quantified variables (head variables not in the body).
    pub fn existentials(&self) -> &[Sym] {
        &self.existentials
    }

    /// Frontier: universally quantified variables that occur in the head.
    pub fn frontier(&self) -> &[Sym] {
        &self.frontier
    }

    /// A *full* TGD has no existential variables.
    pub fn is_full(&self) -> bool {
        self.existentials.is_empty()
    }

    /// `pos(α)`: the positions of the body (the paper's convention).
    pub fn body_positions(&self) -> PosSet {
        positions_of_atoms(&self.body)
    }

    /// The positions of the head.
    pub fn head_positions(&self) -> PosSet {
        positions_of_atoms(&self.head)
    }

    /// Positions at which variable `v` occurs in the body.
    pub fn body_positions_of(&self, v: Sym) -> PosSet {
        positions_of_var(&self.body, v)
    }

    /// Positions at which variable `v` occurs in the head.
    pub fn head_positions_of(&self, v: Sym) -> PosSet {
        positions_of_var(&self.head, v)
    }

    /// Is the TGD satisfied by the instance (`I ⊨ α`)?
    ///
    /// True iff every body homomorphism extends to a head homomorphism.
    pub fn satisfied_by(&self, inst: &Instance) -> bool {
        !for_each_hom(&self.body, inst, &Subst::new(), false, &mut |mu| {
            !exists_extension(&self.head, inst, mu)
        })
    }

    /// Is the *instantiated* constraint `α(a)` satisfied (`I ⊨ α(a)`)?
    ///
    /// `a` must bind every universal variable to a ground term. `α(a)` holds
    /// iff the instantiated body is not contained in `inst`, or the head can
    /// be extended within `inst`.
    pub fn satisfied_with(&self, inst: &Instance, a: &Subst) -> bool {
        let ground_body = a.apply_atoms(&self.body);
        if !ground_body.iter().all(|atom| inst.contains(atom)) {
            return true;
        }
        exists_extension(&self.head, inst, a)
    }

    /// Total number of atoms (used for the paper's `|α|` candidate bounds).
    pub fn atom_count(&self) -> usize {
        self.body.len() + self.head.len()
    }
}

impl fmt::Display for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        if self.body.is_empty() {
            write!(f, "-> ")?;
        } else {
            write!(f, " -> ")?;
        }
        for (i, a) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Tgd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An equality-generating dependency `∀x (body → left = right)`.
#[derive(Clone, PartialEq, Eq)]
pub struct Egd {
    body: Vec<Atom>,
    left: Sym,
    right: Sym,
}

impl Egd {
    /// Construct an EGD. Both equated variables must occur in the non-empty
    /// body.
    pub fn new(body: Vec<Atom>, left: Sym, right: Sym) -> Result<Egd, CoreError> {
        if body.is_empty() {
            return Err(CoreError::InvalidConstraint(
                "an EGD must have a non-empty body".into(),
            ));
        }
        check_constraint_atoms(&body, "body")?;
        let vars = distinct_vars(&body);
        for v in [left, right] {
            if !vars.contains(&v) {
                return Err(CoreError::InvalidConstraint(format!(
                    "equated variable {v} does not occur in the EGD body"
                )));
            }
        }
        Ok(Egd { body, left, right })
    }

    /// Body atoms.
    pub fn body(&self) -> &[Atom] {
        &self.body
    }

    /// Left equated variable.
    pub fn left(&self) -> Sym {
        self.left
    }

    /// Right equated variable.
    pub fn right(&self) -> Sym {
        self.right
    }

    /// Universally quantified variables.
    pub fn universals(&self) -> Vec<Sym> {
        distinct_vars(&self.body)
    }

    /// `pos(α)`: the positions of the body.
    pub fn body_positions(&self) -> PosSet {
        positions_of_atoms(&self.body)
    }

    /// Positions at which variable `v` occurs in the body.
    pub fn body_positions_of(&self, v: Sym) -> PosSet {
        positions_of_var(&self.body, v)
    }

    /// Is the EGD satisfied by the instance?
    pub fn satisfied_by(&self, inst: &Instance) -> bool {
        !for_each_hom(&self.body, inst, &Subst::new(), false, &mut |mu| {
            mu.var(self.left) != mu.var(self.right)
        })
    }

    /// Is the instantiated constraint `α(a)` satisfied?
    pub fn satisfied_with(&self, inst: &Instance, a: &Subst) -> bool {
        let ground_body = a.apply_atoms(&self.body);
        if !ground_body.iter().all(|atom| inst.contains(atom)) {
            return true;
        }
        a.var(self.left) == a.var(self.right)
    }

    /// Total number of atoms.
    pub fn atom_count(&self) -> usize {
        self.body.len()
    }
}

impl fmt::Display for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, " -> {} = {}", self.left, self.right)
    }
}

impl fmt::Debug for Egd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Either kind of dependency.
#[derive(Clone, PartialEq, Eq)]
pub enum Constraint {
    /// Tuple-generating dependency.
    Tgd(Tgd),
    /// Equality-generating dependency.
    Egd(Egd),
}

impl Constraint {
    /// Parse a single constraint from text.
    pub fn parse(text: &str) -> Result<Constraint, CoreError> {
        crate::parser::parse_constraint(text)
    }

    /// Body atoms.
    pub fn body(&self) -> &[Atom] {
        match self {
            Constraint::Tgd(t) => t.body(),
            Constraint::Egd(e) => e.body(),
        }
    }

    /// Head atoms of a TGD; empty slice for an EGD.
    pub fn head_atoms(&self) -> &[Atom] {
        match self {
            Constraint::Tgd(t) => t.head(),
            Constraint::Egd(_) => &[],
        }
    }

    /// Universally quantified variables.
    pub fn universals(&self) -> Vec<Sym> {
        match self {
            Constraint::Tgd(t) => t.universals().to_vec(),
            Constraint::Egd(e) => e.universals(),
        }
    }

    /// `pos(α)`: positions of the body.
    pub fn body_positions(&self) -> PosSet {
        match self {
            Constraint::Tgd(t) => t.body_positions(),
            Constraint::Egd(e) => e.body_positions(),
        }
    }

    /// Is this a TGD?
    pub fn is_tgd(&self) -> bool {
        matches!(self, Constraint::Tgd(_))
    }

    /// Is this an EGD?
    pub fn is_egd(&self) -> bool {
        matches!(self, Constraint::Egd(_))
    }

    /// The TGD, if this is one.
    pub fn as_tgd(&self) -> Option<&Tgd> {
        match self {
            Constraint::Tgd(t) => Some(t),
            Constraint::Egd(_) => None,
        }
    }

    /// The EGD, if this is one.
    pub fn as_egd(&self) -> Option<&Egd> {
        match self {
            Constraint::Egd(e) => Some(e),
            Constraint::Tgd(_) => None,
        }
    }

    /// `I ⊨ α`.
    pub fn satisfied_by(&self, inst: &Instance) -> bool {
        match self {
            Constraint::Tgd(t) => t.satisfied_by(inst),
            Constraint::Egd(e) => e.satisfied_by(inst),
        }
    }

    /// `I ⊨ α(a)`.
    pub fn satisfied_with(&self, inst: &Instance, a: &Subst) -> bool {
        match self {
            Constraint::Tgd(t) => t.satisfied_with(inst, a),
            Constraint::Egd(e) => e.satisfied_with(inst, a),
        }
    }

    /// Total number of atoms (the paper's `|α|` proxy for candidate bounds).
    pub fn atom_count(&self) -> usize {
        match self {
            Constraint::Tgd(t) => t.atom_count(),
            Constraint::Egd(e) => e.atom_count(),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Tgd(t) => t.fmt(f),
            Constraint::Egd(e) => e.fmt(f),
        }
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Tgd> for Constraint {
    fn from(t: Tgd) -> Constraint {
        Constraint::Tgd(t)
    }
}

impl From<Egd> for Constraint {
    fn from(e: Egd) -> Constraint {
        Constraint::Egd(e)
    }
}

/// An ordered set `Σ` of constraints.
///
/// Constraints are addressed by their index; all graphs built by the
/// termination analyses (chase graphs, restriction systems) use these
/// indices as node ids.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
}

// Constraint sets are shared read-only across threads: the session server's
// rewrite cache holds one behind an `Arc` that every query thread reads.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Constraint>();
    assert_sync::<ConstraintSet>();
};

impl ConstraintSet {
    /// Empty set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Build from constraints, validating schema consistency.
    pub fn from_constraints(
        items: impl IntoIterator<Item = Constraint>,
    ) -> Result<ConstraintSet, CoreError> {
        let set = ConstraintSet {
            items: items.into_iter().collect(),
        };
        set.schema()?;
        Ok(set)
    }

    /// Parse constraints separated by newlines or `;` (`#` starts a
    /// comment running to the end of the line).
    ///
    /// # Examples
    ///
    /// ```
    /// use chase_core::ConstraintSet;
    ///
    /// let sigma = ConstraintSet::parse(
    ///     "# special nodes have 2- and 3-cycles (the paper's Example 10)
    ///      S(X), E(X,Y) -> E(Y,X)
    ///      S(X), E(X,Y) -> E(Y,Z), E(Z,X)",
    /// ).unwrap();
    /// assert_eq!(sigma.len(), 2);
    /// assert!(sigma[1].as_tgd().unwrap().existentials().len() == 1);
    ///
    /// // `;` separates too, so a whole set fits one line of text — the
    /// // form the chase-serve wire protocol and REPL commands carry.
    /// let one_line = ConstraintSet::parse(
    ///     "S(X), E(X,Y) -> E(Y,X); S(X), E(X,Y) -> E(Y,Z), E(Z,X)",
    /// ).unwrap();
    /// assert_eq!(one_line.len(), 2);
    /// ```
    pub fn parse(text: &str) -> Result<ConstraintSet, CoreError> {
        crate::parser::parse_constraints(text)
    }

    /// Append a constraint.
    pub fn push(&mut self, c: impl Into<Constraint>) {
        self.items.push(c.into());
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter()
    }

    /// Iterate with indices.
    pub fn enumerate(&self) -> impl Iterator<Item = (usize, &Constraint)> {
        self.items.iter().enumerate()
    }

    /// The TGDs of the set, with their indices.
    pub fn tgds(&self) -> impl Iterator<Item = (usize, &Tgd)> {
        self.items
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_tgd().map(|t| (i, t)))
    }

    /// Constraint at index `i`.
    pub fn get(&self, i: usize) -> &Constraint {
        &self.items[i]
    }

    /// `pos(Σ)`: union of the body positions of all constraints.
    pub fn positions(&self) -> PosSet {
        let mut out = PosSet::new();
        for c in &self.items {
            out.extend(c.body_positions());
        }
        out
    }

    /// Every position mentioned anywhere (body or head) — the position
    /// universe used by dependency/propagation graphs.
    pub fn all_positions(&self) -> PosSet {
        let mut out = PosSet::new();
        for c in &self.items {
            out.extend(c.body_positions());
            if let Constraint::Tgd(t) = c {
                out.extend(t.head_positions());
            }
        }
        out
    }

    /// The schema induced by all atoms; errors on arity clashes.
    pub fn schema(&self) -> Result<Schema, CoreError> {
        let mut s = Schema::new();
        for c in &self.items {
            for a in c.body() {
                s.observe_atom(a)?;
            }
            for a in c.head_atoms() {
                s.observe_atom(a)?;
            }
        }
        Ok(s)
    }

    /// The sub-set with the given constraint indices (order preserved,
    /// duplicates removed).
    pub fn subset(&self, indices: &[usize]) -> ConstraintSet {
        let mut seen = Vec::new();
        let mut items = Vec::new();
        for &i in indices {
            if !seen.contains(&i) {
                seen.push(i);
                items.push(self.items[i].clone());
            }
        }
        ConstraintSet { items }
    }

    /// `I ⊨ Σ`.
    pub fn satisfied_by(&self, inst: &Instance) -> bool {
        self.items.iter().all(|c| c.satisfied_by(inst))
    }

    /// Constants mentioned in any constraint (parameters from `∆`).
    pub fn constants(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = Vec::new();
        for c in &self.items {
            for a in c.body().iter().chain(c.head_atoms()) {
                for t in a.terms() {
                    if let Term::Const(s) = t {
                        if !out.contains(s) {
                            out.push(*s);
                        }
                    }
                }
            }
        }
        out.sort_by_key(|s| s.as_str());
        out
    }
}

impl std::ops::Index<usize> for ConstraintSet {
    type Output = Constraint;
    fn index(&self, i: usize) -> &Constraint {
        &self.items[i]
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> ConstraintSet {
        ConstraintSet {
            items: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a Constraint;
    type IntoIter = std::slice::Iter<'a, Constraint>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl fmt::Display for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tgd_classifies_variables() {
        let t = Tgd::parse("S(X), E(X,Y) -> E(Y,Z), E(Z,X)").unwrap();
        assert_eq!(t.universals(), &[Sym::new("X"), Sym::new("Y")]);
        assert_eq!(t.existentials(), &[Sym::new("Z")]);
        assert_eq!(t.frontier(), &[Sym::new("Y"), Sym::new("X")]);
        assert!(!t.is_full());
    }

    #[test]
    fn full_tgd() {
        let t = Tgd::parse("E(X,Y) -> E(Y,X)").unwrap();
        assert!(t.is_full());
        assert!(t.existentials().is_empty());
    }

    #[test]
    fn empty_body_tgd_is_allowed() {
        let t = Tgd::parse("-> S(X), E(X,Y)").unwrap();
        assert!(t.body().is_empty());
        assert_eq!(t.existentials().len(), 2);
    }

    #[test]
    fn empty_head_rejected() {
        assert!(Tgd::new(vec![Atom::new("S", vec![Term::var("X")])], vec![]).is_err());
    }

    #[test]
    fn egd_requires_vars_in_body() {
        let body = vec![Atom::new("E", vec![Term::var("X"), Term::var("Y")])];
        assert!(Egd::new(body.clone(), Sym::new("X"), Sym::new("Y")).is_ok());
        assert!(Egd::new(body, Sym::new("X"), Sym::new("Z")).is_err());
    }

    #[test]
    fn tgd_satisfaction() {
        let t = Tgd::parse("S(X) -> E(X,Y)").unwrap();
        let sat = Instance::parse("S(a). E(a,b).").unwrap();
        let unsat = Instance::parse("S(a). S(b). E(b,c).").unwrap();
        assert!(t.satisfied_by(&sat));
        assert!(!t.satisfied_by(&unsat));
    }

    #[test]
    fn tgd_satisfaction_with_parameters() {
        let t = Tgd::parse("S(X) -> E(X,Y)").unwrap();
        let inst = Instance::parse("S(a). S(b). E(b,c).").unwrap();
        let a = Subst::from_vars([(Sym::new("X"), Term::constant("a"))]);
        let b = Subst::from_vars([(Sym::new("X"), Term::constant("b"))]);
        let c = Subst::from_vars([(Sym::new("X"), Term::constant("c"))]);
        assert!(!t.satisfied_with(&inst, &a), "S(a) has no outgoing edge");
        assert!(t.satisfied_with(&inst, &b));
        assert!(t.satisfied_with(&inst, &c), "body not in instance: vacuous");
    }

    #[test]
    fn egd_satisfaction() {
        let e = Constraint::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let sat = Instance::parse("E(a,b).").unwrap();
        let unsat = Instance::parse("E(a,b). E(a,c).").unwrap();
        assert!(e.satisfied_by(&sat));
        assert!(!e.satisfied_by(&unsat));
    }

    #[test]
    fn positions_follow_paper_convention() {
        let t = Tgd::parse("S(X), E(X,Y) -> E(Y,Z)").unwrap();
        let body = t.body_positions();
        assert_eq!(body.len(), 3); // S^1, E^1, E^2
        assert!(body.contains(&Position::new("S", 0)));
        let x_pos = t.body_positions_of(Sym::new("X"));
        assert!(x_pos.contains(&Position::new("S", 0)));
        assert!(x_pos.contains(&Position::new("E", 0)));
        assert_eq!(x_pos.len(), 2);
    }

    #[test]
    fn display_roundtrips_through_parser() {
        for text in [
            "S(X), E(X,Y) -> E(Y,Z), E(Z,X)",
            "E(X,Y), E(X,Z) -> Y = Z",
            "-> S(X)",
            "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)",
        ] {
            let c = Constraint::parse(text).unwrap();
            let c2 = Constraint::parse(&c.to_string()).unwrap();
            assert_eq!(c, c2, "roundtrip failed for {text}");
        }
    }

    #[test]
    fn constraint_set_parse_and_positions() {
        let s = ConstraintSet::parse(
            "# the two intro constraints\n\
             S(X) -> E(X,Y), S(Y)\n\
             \n\
             S(X), E(X,Y) -> E(Y,X)",
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        // pos(Σ) = body positions only.
        assert!(s.positions().contains(&Position::new("S", 0)));
        assert!(s.positions().contains(&Position::new("E", 0)));
        assert_eq!(s.positions().len(), 3);
        assert_eq!(s.all_positions().len(), 3);
    }

    #[test]
    fn constraint_set_schema_clash() {
        let s = ConstraintSet::parse("S(X) -> E(X,Y)\nE(X) -> S(X)");
        assert!(s.is_err());
    }

    #[test]
    fn subset_preserves_order_and_dedupes() {
        let s = ConstraintSet::parse("S(X) -> T(X)\nT(X) -> U(X)\nU(X) -> S(X)").unwrap();
        let sub = s.subset(&[2, 0, 2]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].to_string(), "U(X) -> S(X)");
    }
}
