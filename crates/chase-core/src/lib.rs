#![warn(missing_docs)]

//! # chase-core
//!
//! The relational substrate underneath the chase algorithm of
//! *On Chase Termination Beyond Stratification* (Meier, Schmidt, Lausen;
//! VLDB 2009):
//!
//! * interned [`Sym`]bols, [`Term`]s (constants, labeled nulls, variables)
//!   and their interned ground form [`TermId`], [`Atom`]s and database
//!   [`Position`]s,
//! * indexed database [`Instance`]s — an interned, columnar fact store with
//!   an id-keyed dedup table (which doubles as the exact-row lookup),
//!   per-predicate and positional indexes (see [`instance`]),
//! * a backtracking [`homomorphism`] engine (the workhorse behind chase-step
//!   applicability, constraint satisfaction and conjunctive-query
//!   evaluation),
//! * the constraint language of the paper — tuple-generating dependencies
//!   ([`Tgd`]) and equality-generating dependencies ([`Egd`]) — plus
//!   [`ConjunctiveQuery`]s,
//! * a plain-text [`parser`] for constraints, instances and queries.
//!
//! Everything in this crate is deterministic: iteration orders are fixed by
//! insertion order or by explicit sorting, so chase sequences built on top of
//! it are reproducible.

pub mod atom;
pub mod constraint;
pub mod cq;
pub mod error;
pub mod fx;
pub mod homomorphism;
pub mod instance;
pub mod parser;
pub mod schema;
pub mod snapshot;
pub mod symbol;
pub mod term;

pub use atom::Atom;
pub use constraint::{Constraint, ConstraintSet, Egd, Tgd};
pub use cq::ConjunctiveQuery;
pub use error::CoreError;
pub use homomorphism::{exists_extension, exists_hom, find_all_homs, find_hom, unify_atom, Subst};
pub use instance::{FactId, FactView, Instance, MergeEffect};
pub use schema::{PosSet, Position, Schema};
pub use snapshot::{crc32, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use symbol::Sym;
pub use term::{Term, TermId};
