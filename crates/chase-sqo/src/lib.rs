#![warn(missing_docs)]

//! # chase-sqo
//!
//! Semantic query optimization with the chase — the application domain
//! motivating the paper's data-dependent analysis (Section 4).
//!
//! The pipeline mirrors Deutsch–Popa–Tannen query reformulation as the paper
//! describes it:
//!
//! 1. freeze the conjunctive query into its canonical instance
//!    ([`chase_core::ConjunctiveQuery::freeze`]),
//! 2. chase it under the constraint set into the **universal plan**
//!    ([`universal_plan`]) — guarded by budgets/monitors because the chase
//!    need not terminate,
//! 3. backchase: search the universal plan's subqueries level by level,
//!    smallest bodies first, for those that remain equivalent under the
//!    constraints ([`rewrite::equivalent_subqueries`] searches every level,
//!    [`rewrite::minimal_rewritings`] stops at the first level that holds
//!    one), yielding join-elimination and join-introduction rewritings
//!    like the paper's q2'' and q2'''. The query's chase from step 2
//!    decides one direction of each candidate's equivalence; only the
//!    candidate itself is chased for the other.
//!
//! Containment and equivalence under constraints live in [`containment`].
//!
//! # Examples
//!
//! Join elimination under rail symmetry (the paper's q2''-style shrink):
//!
//! ```
//! use chase_core::{ConjunctiveQuery, ConstraintSet};
//! use chase_engine::ChaseConfig;
//! use chase_sqo::{equivalent_under, minimal_rewritings};
//!
//! let sigma = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
//! let q = ConjunctiveQuery::parse("q(X) <- rail(c,X,D), rail(X,c,D)").unwrap();
//! let minimal = minimal_rewritings(&q, &sigma, &ChaseConfig::default(), 12).unwrap();
//! // One rail atom suffices: its mirror image is implied by Σ.
//! assert_eq!(minimal[0].body().len(), 1);
//! assert_eq!(equivalent_under(&minimal[0], &q, &sigma, &ChaseConfig::default()), Some(true));
//! ```

pub mod containment;
pub mod rewrite;

pub use containment::{contained_under, equivalent_under};
pub use rewrite::{equivalent_subqueries, minimal_rewritings, universal_plan, SqoError};
