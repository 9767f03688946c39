#![warn(missing_docs)]

//! # chase-plan
//!
//! Cost-guided join-plan compilation for chase trigger enumeration.
//!
//! Every chase engine in this workspace bottoms out in body-homomorphism
//! search — *Stop the Chase* (Meier, Schmidt, Lausen) frames chase cost as
//! exactly this join-evaluation problem. The classic searcher re-derives an
//! atom order at every search node; this crate compiles each constraint
//! body (and TGD head) **once per statistics epoch** into a
//! [`JoinProgram`]:
//!
//! * a greedy *bind-first / smallest-relation-first* atom order driven by
//!   per-predicate cardinalities and per-position distinct-value counts
//!   harvested from the [`chase_core::Instance`] ([`plan`]),
//! * precomputed bound positions and access paths per step — one exact-row
//!   probe of the store's dedup table when every position is bound, the
//!   smallest positional bucket when some are, a per-predicate scan
//!   otherwise ([`exec`]); plans only read the store, so its layout never
//!   depends on which plans ran,
//! * a register-file executor that never clones candidate facts, only
//!   materializes a [`chase_core::Subst`] at complete matches (never for an
//!   existence check), and reuses its run state, so a warm run allocates
//!   nothing.
//!
//! The [`Matcher`] bundles the compiled programs per constraint — full
//! body, per-slot delta bodies, head, per-slot head rests — behind one
//! handle the engines thread through trigger enumeration, with plan-cache
//! invalidation on statistics-epoch changes. It is the engines' only
//! matcher; the unplanned searcher stays the reference the tests pin it
//! against, since both enumerate the same homomorphism sets.

pub mod exec;
pub mod matcher;
pub mod plan;

pub use exec::{exists_match, for_each_match};
pub use matcher::{ConstraintPlans, Matcher};
pub use plan::{compile, Access, JoinProgram, NoStats, PatTerm, PlanStep, Stats};
