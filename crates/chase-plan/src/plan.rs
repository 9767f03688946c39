//! Join-plan compilation: a constraint body (or TGD head) becomes a
//! [`JoinProgram`] — a fixed atom order with per-step binding masks and
//! access-path choices, picked once per statistics epoch instead of at every
//! search node.
//!
//! The ordering heuristic is greedy *bind-first / smallest-relation-first*:
//! at each step the atom with the smallest estimated candidate count is
//! appended, where the estimate divides the predicate's cardinality by the
//! distinct-value count of every already-bound position (independence
//! assumption, the textbook join heuristic "Stop the Chase" points at).
//! Ties prefer the atom with more bound positions, then the smaller pattern
//! index, so compilation is deterministic.
//!
//! Compilation never affects *which* homomorphisms are enumerated — only the
//! order atoms are expanded in and the index buckets scanned. The executor
//! ([`crate::exec`]) re-verifies every candidate fact position by position.

use chase_core::{Atom, Instance, Sym, Term, TermId};
use std::fmt;

/// Statistics source for plan compilation.
///
/// Implemented by [`Instance`] (live, incrementally maintained counters) and
/// by [`NoStats`] (compile with no data — pure bind-first ordering).
pub trait Stats {
    /// `|R|`: number of facts with predicate `pred`.
    fn rows(&self, pred: Sym) -> usize;
    /// Number of distinct terms at `(pred, pos)`.
    fn distinct(&self, pred: Sym, pos: usize) -> usize;
}

impl Stats for Instance {
    fn rows(&self, pred: Sym) -> usize {
        self.pred_cardinality(pred)
    }

    fn distinct(&self, pred: Sym, pos: usize) -> usize {
        self.distinct_at(pred, pos)
    }
}

/// The "no statistics" source: every relation looks empty, so ordering
/// degenerates to bind-first with pattern order as the tie-break.
pub struct NoStats;

impl Stats for NoStats {
    fn rows(&self, _pred: Sym) -> usize {
        0
    }

    fn distinct(&self, _pred: Sym, _pos: usize) -> usize {
        0
    }
}

/// One compiled argument slot of a pattern atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatTerm {
    /// A ground term (constant — or a rigid labeled null, which in pattern
    /// mode only matches itself), pre-interned at compile time so the
    /// executor compares raw ids against the columnar store.
    Ground(TermId),
    /// A variable, resolved to a register index.
    Var(u16),
}

/// The access path a step scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// All facts of the predicate.
    FullScan,
    /// The smallest applicable `(pred, position, term)` bucket over the
    /// step's bound positions.
    Positional,
    /// Every position is bound: one exact-row probe of the store's dedup
    /// table ([`Instance::find_ids`]) — at most one candidate.
    Probe,
}

/// One step of a [`JoinProgram`]: match the compiled atom against the
/// candidate bucket selected by its binding mask.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Index of this atom in the original pattern slice.
    pub pattern_index: usize,
    /// The atom's predicate.
    pub pred: Sym,
    /// Compiled argument slots.
    pub terms: Vec<PatTerm>,
    /// Positions whose value is determined when the step starts (ground, or
    /// a register bound by the seed or an earlier step), ascending.
    pub bound: Vec<(u32, PatTerm)>,
    /// The access path chosen at compile time.
    pub access: Access,
    /// Estimated candidate rows at compile time (`EXPLAIN` output; never
    /// consulted at run time).
    pub est_rows: f64,
}

/// A compiled join program: pattern atoms in execution order plus the
/// register file layout. Plain data, compiled once per statistics epoch
/// and then only read.
#[derive(Debug, Clone)]
pub struct JoinProgram {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// Register → variable symbol (registers are dense, in seed-first then
    /// first-occurrence order).
    pub vars: Vec<Sym>,
    /// Registers the compiler assumed bound at entry (the seed variables
    /// that occur in the pattern).
    pub seed_regs: Vec<u16>,
    /// Number of atoms in the original pattern.
    pub pattern_len: usize,
}

impl JoinProgram {
    /// The register holding variable `v`, if `v` occurs in the pattern.
    pub fn reg_of(&self, v: Sym) -> Option<u16> {
        self.vars.iter().position(|&u| u == v).map(|i| i as u16)
    }
}

/// Compile `pattern` into a [`JoinProgram`], treating `seed_vars` as bound
/// at entry (they arrive through the seed substitution at execution time).
///
/// The pattern may contain constants, variables and labeled nulls (rigid, as
/// in the searcher's pattern mode). An empty pattern compiles to a program
/// with no steps, which enumerates exactly the seed substitution.
pub fn compile(pattern: &[Atom], seed_vars: &[Sym], stats: &dyn Stats) -> JoinProgram {
    // Register allocation: seed variables that occur in the pattern first,
    // then the rest in first-occurrence order.
    let mut vars: Vec<Sym> = Vec::new();
    let occurs = |v: Sym| pattern.iter().any(|a| a.terms().contains(&Term::Var(v)));
    for &v in seed_vars {
        if occurs(v) && !vars.contains(&v) {
            vars.push(v);
        }
    }
    let seed_count = vars.len();
    for a in pattern {
        for v in a.vars() {
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
    }
    assert!(
        vars.len() <= u16::MAX as usize,
        "pattern has too many variables"
    );
    let reg = |v: Sym| vars.iter().position(|&u| u == v).expect("var allocated") as u16;

    let compiled: Vec<Vec<PatTerm>> = pattern
        .iter()
        .map(|a| {
            a.terms()
                .iter()
                .map(|&t| match t {
                    Term::Var(v) => PatTerm::Var(reg(v)),
                    ground => PatTerm::Ground(
                        TermId::from_ground(ground).expect("non-variable pattern term interns"),
                    ),
                })
                .collect()
        })
        .collect();

    let mut bound_regs: Vec<bool> = vec![false; vars.len()];
    bound_regs[..seed_count].fill(true);
    let mut remaining: Vec<usize> = (0..pattern.len()).collect();
    let mut steps = Vec::with_capacity(pattern.len());
    while !remaining.is_empty() {
        // Greedy pick: smallest estimated candidate count; more bound
        // positions, then smaller pattern index on ties.
        let mut best_slot = 0usize;
        let mut best_est = f64::INFINITY;
        let mut best_bound = 0usize;
        for (slot, &ai) in remaining.iter().enumerate() {
            let (est, nbound) = estimate(pattern[ai].pred(), &compiled[ai], &bound_regs, stats);
            let better = est < best_est || (est == best_est && nbound > best_bound);
            if better {
                best_slot = slot;
                best_est = est;
                best_bound = nbound;
            }
        }
        let ai = remaining.remove(best_slot);
        let terms = compiled[ai].clone();
        let bound: Vec<(u32, PatTerm)> = terms
            .iter()
            .enumerate()
            .filter(|&(_, &pt)| match pt {
                PatTerm::Ground(_) => true,
                PatTerm::Var(r) => bound_regs[r as usize],
            })
            .map(|(i, &pt)| (i as u32, pt))
            .collect();
        let access = if bound.len() == terms.len() {
            Access::Probe
        } else if bound.is_empty() {
            Access::FullScan
        } else {
            Access::Positional
        };
        for &pt in &terms {
            if let PatTerm::Var(r) = pt {
                bound_regs[r as usize] = true;
            }
        }
        steps.push(PlanStep {
            pattern_index: ai,
            pred: pattern[ai].pred(),
            terms,
            bound,
            access,
            est_rows: best_est,
        });
    }
    JoinProgram {
        steps,
        vars,
        seed_regs: (0..seed_count as u16).collect(),
        pattern_len: pattern.len(),
    }
}

/// Candidate estimate for matching `terms` with the current bound-register
/// set: `rows / Π distinct(bound position)`, floored at one row unless the
/// relation is empty. Returns the estimate and the bound-position count.
fn estimate(pred: Sym, terms: &[PatTerm], bound_regs: &[bool], stats: &dyn Stats) -> (f64, usize) {
    let rows = stats.rows(pred);
    let mut est = rows as f64;
    let mut nbound = 0usize;
    for (i, &pt) in terms.iter().enumerate() {
        let determined = match pt {
            PatTerm::Ground(_) => true,
            PatTerm::Var(r) => bound_regs[r as usize],
        };
        if determined {
            nbound += 1;
            est /= stats.distinct(pred, i).max(1) as f64;
        }
    }
    if rows > 0 {
        est = est.max(1.0);
    }
    (est, nbound)
}

impl fmt::Display for JoinProgram {
    /// `EXPLAIN`-style dump: one line per step with the atom, the access
    /// path, and the compile-time row estimate.
    ///
    /// ```text
    /// JoinProgram (3 steps, 3 vars):
    ///   1. T(X1,X2)  scan T                 est 4
    ///   2. T(X1,X3)  idx T[0]               est 2
    ///   3. T(X3,X1)  probe T                est 1
    /// ```
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "JoinProgram ({} steps, {} vars):",
            self.steps.len(),
            self.vars.len()
        )?;
        for (k, s) in self.steps.iter().enumerate() {
            let mut atom = format!("{}(", s.pred);
            for (i, pt) in s.terms.iter().enumerate() {
                if i > 0 {
                    atom.push(',');
                }
                match pt {
                    PatTerm::Ground(t) => atom.push_str(&t.to_string()),
                    PatTerm::Var(r) => atom.push_str(self.vars[*r as usize].as_str()),
                }
            }
            atom.push(')');
            let access = match s.access {
                Access::FullScan => format!("scan {}", s.pred),
                Access::Positional => {
                    let cols: Vec<String> = s.bound.iter().map(|(p, _)| p.to_string()).collect();
                    format!("idx {}[{}]", s.pred, cols.join(","))
                }
                Access::Probe => format!("probe {}", s.pred),
            };
            writeln!(
                f,
                "  {}. {:<24} {:<24} est {}",
                k + 1,
                atom,
                access,
                s.est_rows
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::parser::parse_atom_list;
    use chase_core::Instance;

    fn atoms(text: &str) -> Vec<Atom> {
        parse_atom_list(text).unwrap()
    }

    #[test]
    fn selective_atom_is_ordered_first() {
        // Many E-facts, few S-facts: the plan must start at S even though it
        // is written last.
        let mut inst = Instance::new();
        for i in 0..64 {
            inst.insert(Atom::new(
                "E",
                vec![
                    Term::constant(&format!("v{i}")),
                    Term::constant(&format!("v{}", i + 1)),
                ],
            ));
        }
        inst.insert(Atom::new("S", vec![Term::constant("v0")]));
        let pat = atoms("E(X,Y), E(Y,Z), S(X)");
        let prog = compile(&pat, &[], &inst);
        assert_eq!(prog.steps[0].pattern_index, 2, "S(X) first:\n{prog}");
        // After S binds X, E(X,Y) is index-assisted; then E(Y,Z).
        assert_eq!(prog.steps[1].pattern_index, 0);
        assert_eq!(prog.steps[1].access, Access::Positional);
        assert_eq!(prog.steps[2].pattern_index, 1);
    }

    #[test]
    fn access_path_follows_the_bound_positions() {
        // T is big with a low-selectivity first column, S and R are small:
        // the greedy order is S, R, T — and by then T has both columns
        // bound, so it is one row probe instead of any single bucket.
        let mut inst = Instance::new();
        for i in 0..64 {
            let (a, b) = (format!("a{}", i % 4), format!("b{i}"));
            inst.insert(Atom::new("T", vec![Term::constant(&a), Term::constant(&b)]));
            inst.insert(Atom::new(
                "U",
                vec![Term::constant(&a), Term::constant(&b), Term::constant("c")],
            ));
        }
        for i in 0..4 {
            inst.insert(Atom::new("S", vec![Term::constant(&format!("a{i}"))]));
            inst.insert(Atom::new("R", vec![Term::constant(&format!("b{i}"))]));
        }
        let pat = atoms("T(X,Y), S(X), R(Y)");
        let prog = compile(&pat, &[], &inst);
        let t_step = prog
            .steps
            .iter()
            .find(|s| s.pattern_index == 0)
            .expect("T step present");
        assert_eq!(t_step.access, Access::Probe, "{prog}");
        assert!(prog.to_string().contains("probe T"), "{prog}");
        // Two of three positions bound: the positional bucket, over both.
        let prog = compile(&atoms("U(X,Y,Z), S(X), R(Y)"), &[], &inst);
        let u_step = prog.steps.iter().find(|s| s.pattern_index == 0).unwrap();
        assert_eq!(u_step.access, Access::Positional, "{prog}");
        let cols: Vec<u32> = u_step.bound.iter().map(|&(p, _)| p).collect();
        assert_eq!(cols, vec![0, 1]);
        // Ground positions count as bound too; nothing bound is a scan.
        let prog = compile(&atoms("S(a), T(X,Y)"), &[], &inst);
        assert_eq!(prog.steps[0].access, Access::Probe, "{prog}");
        assert_eq!(prog.steps[1].access, Access::FullScan, "{prog}");
    }

    #[test]
    fn seed_vars_count_as_bound() {
        let inst = Instance::new();
        let pat = atoms("E(X,Y), S(Y)");
        let unseeded = compile(&pat, &[], &NoStats);
        assert_eq!(unseeded.seed_regs.len(), 0);
        let seeded = compile(&pat, &[Sym::new("X")], &NoStats);
        assert_eq!(seeded.seed_regs, vec![0]);
        assert_eq!(seeded.vars[0], Sym::new("X"));
        // With X seeded, E(X,Y)'s first column is bound at entry.
        let e_step = seeded.steps.iter().find(|s| s.pattern_index == 0).unwrap();
        assert!(matches!(e_step.bound.as_slice(), [(0, PatTerm::Var(0))]));
        // Seed variables that do not occur in the pattern get no register.
        let extra = compile(&pat, &[Sym::new("Z"), Sym::new("X")], &inst);
        assert_eq!(extra.seed_regs.len(), 1);
        assert!(extra.reg_of(Sym::new("Z")).is_none());
    }

    #[test]
    fn constants_bind_without_stats() {
        let pat = atoms("E(a,Y), E(Y,Z)");
        let prog = compile(&pat, &[], &NoStats);
        // Both atoms estimate 0 rows (no stats); bind-first prefers the
        // constant-bound atom.
        assert_eq!(prog.steps[0].pattern_index, 0);
        assert_eq!(prog.steps[0].access, Access::Positional);
        assert!(matches!(
            prog.steps[0].bound.as_slice(),
            [(0, PatTerm::Ground(_))]
        ));
    }

    #[test]
    fn empty_pattern_compiles_to_no_steps() {
        let prog = compile(&[], &[], &NoStats);
        assert!(prog.steps.is_empty());
        assert_eq!(prog.pattern_len, 0);
    }

    #[test]
    fn explain_dump_is_stable() {
        let mut inst = Instance::new();
        inst.insert(Atom::new("S", vec![Term::constant("a")]));
        for c in ["a", "b", "c"] {
            inst.insert(Atom::new("E", vec![Term::constant(c), Term::constant("x")]));
        }
        let pat = atoms("E(X,Y), S(X)");
        let prog = compile(&pat, &[], &inst);
        let dump = prog.to_string();
        assert!(dump.starts_with("JoinProgram (2 steps, 2 vars):"), "{dump}");
        assert!(dump.contains("S(X)"), "{dump}");
        assert!(dump.contains("idx E[0]"), "{dump}");
    }
}
