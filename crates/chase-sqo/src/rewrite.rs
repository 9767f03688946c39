//! Universal plans and rewriting enumeration (Section 4's SQO scenario).
//!
//! Chasing a frozen query yields the *universal plan*: a query incorporating
//! every constraint-implied atom. Any subquery of the plan that remains
//! equivalent to the original under `Σ` is a valid rewriting; dropping atoms
//! is join **elimination** (the paper's q2''), keeping implied atoms absent
//! from the original is join **introduction** (q2''').

use crate::containment::{answers_include, chased_canonical, contained_under};
use chase_core::{ConjunctiveQuery, ConstraintSet, CoreError, Instance, Term};
use chase_engine::ChaseConfig;
use std::fmt;

/// Errors of the rewriting pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqoError {
    /// The chase of the frozen query did not terminate within its budget;
    /// use the data-dependent analyses of Section 4 before retrying.
    NonTerminatingChase,
    /// The universal plan has more atoms than the subset search accepts
    /// (the caller's `max_plan_atoms`, or [`MAX_MASK_ATOMS`]).
    PlanTooLarge(usize),
    /// Query construction failed.
    Core(CoreError),
}

impl fmt::Display for SqoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqoError::NonTerminatingChase => {
                write!(
                    f,
                    "the chase of the frozen query did not terminate within budget"
                )
            }
            SqoError::PlanTooLarge(n) => {
                write!(
                    f,
                    "universal plan has {n} atoms; subset enumeration refused"
                )
            }
            SqoError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SqoError {}

impl From<CoreError> for SqoError {
    fn from(e: CoreError) -> SqoError {
        SqoError::Core(e)
    }
}

/// The universal plan of `q` under `Σ`: the frozen query chased to
/// completion and thawed back into a query.
///
/// # Examples
///
/// ```
/// use chase_core::{ConjunctiveQuery, ConstraintSet};
/// use chase_engine::ChaseConfig;
/// use chase_sqo::rewrite::{body_signature, universal_plan};
///
/// let sigma = ConstraintSet::parse("emp(E,D) -> dept(D)").unwrap();
/// let q = ConjunctiveQuery::parse("q(E) <- emp(E,D)").unwrap();
/// let plan = universal_plan(&q, &sigma, &ChaseConfig::default()).unwrap();
/// assert_eq!(body_signature(&plan), vec!["dept", "emp"]);
/// ```
pub fn universal_plan(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> Result<ConjunctiveQuery, SqoError> {
    let (chased, head) = chased_canonical(q, set, cfg).ok_or(SqoError::NonTerminatingChase)?;
    Ok(ConjunctiveQuery::thaw(&chased, q.head_pred(), &head)?)
}

/// The widest universal plan the subset search accepts, whatever the
/// caller's `max_plan_atoms`: candidate subqueries are bit masks over the
/// plan's atoms.
pub const MAX_MASK_ATOMS: usize = u64::BITS as usize;

/// All subqueries of the universal plan of `q` that are equivalent to `q`
/// under `Σ`, smallest bodies first, each size in ascending subset-mask
/// order (bit `i` = the plan's `i`-th atom).
///
/// The plan is searched level by level, one body size at a time, and the
/// query is chased only once: that chase is the universal plan's own.
/// `q ⊑Σ cand` is a homomorphism search into that one chased instance,
/// with no further chase; only when it holds is the candidate's frozen body
/// chased, for `cand ⊑Σ q`. A candidate whose chase is cut off by `cfg`'s
/// budget is not equivalent.
///
/// The search is exhaustive over `2^n − 1` subsets, so `max_plan_atoms`
/// bounds the plan size `n` (the plan for a hand-written query is small;
/// refuse absurd inputs instead of hanging). A plan wider than
/// [`MAX_MASK_ATOMS`] is refused whatever `max_plan_atoms` says.
pub fn equivalent_subqueries(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
    max_plan_atoms: usize,
) -> Result<Vec<ConjunctiveQuery>, SqoError> {
    let search = Backchase::new(q, set, cfg, max_plan_atoms)?;
    Ok((1..=search.width()).flat_map(|k| search.level(k)).collect())
}

/// The minimum-size equivalent rewritings of `q` under `Σ`: the first
/// nonempty level of [`equivalent_subqueries`]' search, in the same order.
///
/// The search stops at the end of that level, so it never looks at a
/// subset larger than the smallest rewriting. That level is usually no
/// higher than `|q|`, since `q`'s own atoms sit in the plan. Errors are
/// those of [`equivalent_subqueries`]: an oversized plan is refused up
/// front, even when a small rewriting exists.
pub fn minimal_rewritings(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
    max_plan_atoms: usize,
) -> Result<Vec<ConjunctiveQuery>, SqoError> {
    let search = Backchase::new(q, set, cfg, max_plan_atoms)?;
    Ok((1..=search.width())
        .map(|k| search.level(k))
        .find(|level| !level.is_empty())
        .unwrap_or_default())
}

/// The backchase over one universal plan: `q`, its chased canonical
/// instance and frozen head, and the plan thawed from them.
struct Backchase<'a> {
    q: &'a ConjunctiveQuery,
    set: &'a ConstraintSet,
    cfg: &'a ChaseConfig,
    chased: Instance,
    head: Vec<Term>,
    plan: ConjunctiveQuery,
}

impl<'a> Backchase<'a> {
    fn new(
        q: &'a ConjunctiveQuery,
        set: &'a ConstraintSet,
        cfg: &'a ChaseConfig,
        max_plan_atoms: usize,
    ) -> Result<Backchase<'a>, SqoError> {
        let (chased, head) = chased_canonical(q, set, cfg).ok_or(SqoError::NonTerminatingChase)?;
        let plan = ConjunctiveQuery::thaw(&chased, q.head_pred(), &head)?;
        let n = plan.body().len();
        if n > max_plan_atoms.min(MAX_MASK_ATOMS) {
            return Err(SqoError::PlanTooLarge(n));
        }
        Ok(Backchase {
            q,
            set,
            cfg,
            chased,
            head,
            plan,
        })
    }

    /// Atoms in the plan.
    fn width(&self) -> usize {
        self.plan.body().len()
    }

    /// The equivalent subqueries with exactly `k` atoms, in ascending mask
    /// order.
    fn level(&self, k: usize) -> Vec<ConjunctiveQuery> {
        masks_of_popcount(self.width(), k)
            .filter_map(|mask| self.candidate(mask))
            .filter(|cand| {
                answers_include(cand, &self.chased, &self.head)
                    && contained_under(cand, self.q, self.set, self.cfg) == Some(true)
            })
            .collect()
    }

    /// The plan's atoms selected by `mask` under the plan's head, or `None`
    /// when they drop a head variable.
    fn candidate(&self, mask: u64) -> Option<ConjunctiveQuery> {
        let atoms = self.plan.body();
        let body: Vec<_> = (0..atoms.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| atoms[i].clone())
            .collect();
        let covered = self
            .plan
            .head_args()
            .iter()
            .filter_map(|t| t.as_var())
            .all(|v| body.iter().any(|a| a.vars().contains(&v)));
        if !covered {
            return None;
        }
        ConjunctiveQuery::new(self.q.head_pred(), self.plan.head_args().to_vec(), body).ok()
    }
}

/// The `n`-bit masks with exactly `k` bits set (`1 ≤ k ≤ n ≤ 64`), in
/// ascending order, generated lazily by Gosper's next-same-popcount step.
fn masks_of_popcount(n: usize, k: usize) -> impl Iterator<Item = u64> {
    debug_assert!(1 <= k && k <= n && n <= MAX_MASK_ATOMS);
    let first = u64::MAX >> (MAX_MASK_ATOMS - k);
    let last = first << (n - k);
    std::iter::successors(Some(first), move |&m| {
        // Below `last`, the lowest run of ones never reaches bit 63, so
        // `m + low` cannot overflow.
        (m != last).then(|| {
            let low = m & m.wrapping_neg();
            let carried = m + low;
            (((carried ^ m) >> 2) / low) | carried
        })
    })
}

/// Convenience: does `inst` (a frozen-query canonical database) have the
/// same atoms as `q`'s freeze, up to homomorphic equivalence? Used by tests
/// comparing rewritings structurally.
pub fn queries_hom_equivalent(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
    let fa: Instance = a.freeze().0;
    let fb: Instance = b.freeze().0;
    chase_core::homomorphism::hom_equivalent(&fa, &fb)
}

/// Body signature of a query as sorted predicate names — handy for asserting
/// which rewriting shape was produced.
pub fn body_signature(q: &ConjunctiveQuery) -> Vec<String> {
    let mut v: Vec<String> = q
        .body()
        .iter()
        .map(|a| a.pred().as_str().to_owned())
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(text: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(text).unwrap()
    }

    #[test]
    fn universal_plan_adds_implied_atoms() {
        let set = ConstraintSet::parse("emp(E,D) -> dept(D)").unwrap();
        let query = q("q(E) <- emp(E,D)");
        let plan = universal_plan(&query, &set, &ChaseConfig::default()).unwrap();
        assert_eq!(plan.body().len(), 2);
        assert_eq!(body_signature(&plan), vec!["dept", "emp"]);
    }

    #[test]
    fn join_elimination_via_symmetry() {
        let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
        let query = q("q(X) <- rail(c,X,D), rail(X,c,D)");
        let minimal = minimal_rewritings(&query, &set, &ChaseConfig::default(), 12).unwrap();
        assert!(!minimal.is_empty());
        assert_eq!(minimal[0].body().len(), 1, "one rail atom suffices");
    }

    #[test]
    fn equivalent_subqueries_include_the_plan_itself() {
        let set = ConstraintSet::parse("emp(E,D) -> dept(D)").unwrap();
        let query = q("q(E) <- emp(E,D)");
        let subs = equivalent_subqueries(&query, &set, &ChaseConfig::default(), 12).unwrap();
        // emp alone, and emp+dept.
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].body().len(), 1);
        assert_eq!(subs[1].body().len(), 2);
    }

    #[test]
    fn nonterminating_chase_is_an_error() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
        let query = q("q(X) <- S(X)");
        let cfg = ChaseConfig::with_max_steps(10);
        assert_eq!(
            universal_plan(&query, &set, &cfg),
            Err(SqoError::NonTerminatingChase)
        );
    }

    #[test]
    fn masks_come_level_by_level_in_ascending_order() {
        for n in 1..=10 {
            let mut sorted: Vec<u64> = (1..(1u64 << n)).collect();
            sorted.sort_by_key(|m| m.count_ones());
            let lazy: Vec<u64> = (1..=n).flat_map(|k| masks_of_popcount(n, k)).collect();
            assert_eq!(lazy, sorted, "n = {n}");
        }
        // The widest levels stop at their last mask instead of overflowing.
        assert_eq!(masks_of_popcount(64, 64).collect::<Vec<_>>(), [u64::MAX]);
        let top: Vec<u64> = masks_of_popcount(64, 1).collect();
        assert_eq!((top.len(), top[63]), (64, 1 << 63));
        assert_eq!(masks_of_popcount(64, 63).count(), 64);
    }

    fn star(arms: usize) -> ConjunctiveQuery {
        let body: Vec<String> = (1..=arms).map(|i| format!("E(X,Y{i})")).collect();
        q(&format!("q(X) <- {}", body.join(", ")))
    }

    #[test]
    fn a_forty_atom_plan_reduces_to_one_atom() {
        let minimal = minimal_rewritings(
            &star(40),
            &ConstraintSet::new(),
            &ChaseConfig::default(),
            64,
        )
        .unwrap();
        assert_eq!(minimal.len(), 40, "every single arm is a rewriting");
        assert!(minimal.iter().all(|r| r.body().len() == 1));
    }

    #[test]
    fn a_plan_wider_than_the_mask_is_refused_whatever_the_limit() {
        let cfg = ChaseConfig::default();
        let set = ConstraintSet::new();
        assert_eq!(
            minimal_rewritings(&star(65), &set, &cfg, usize::MAX),
            Err(SqoError::PlanTooLarge(65))
        );
        assert_eq!(
            equivalent_subqueries(&star(65), &set, &cfg, usize::MAX),
            Err(SqoError::PlanTooLarge(65))
        );
    }

    #[test]
    fn head_variables_are_never_dropped() {
        let set = ConstraintSet::new();
        let query = q("q(X,Z) <- E(X,Y), E(Y,Z)");
        let subs = equivalent_subqueries(&query, &set, &ChaseConfig::default(), 12).unwrap();
        for s in &subs {
            let vars: Vec<_> = s.body().iter().flat_map(|a| a.vars()).collect();
            assert!(vars.contains(&chase_core::Sym::new("V0")) || !s.body().is_empty());
            for h in s.head_args() {
                if let Some(v) = h.as_var() {
                    assert!(s.body().iter().any(|a| a.vars().contains(&v)));
                }
            }
        }
    }
}
