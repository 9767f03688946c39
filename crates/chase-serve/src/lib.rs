#![warn(missing_docs)]

//! # chase-serve
//!
//! The serving layer: long-lived **incremental chase sessions** over the
//! engines of this workspace. Where `chase-engine` chases one instance
//! once and returns, a [`ChaseSession`] stays resident — it owns the
//! columnar instance, the delta engine's warm trigger pool, and the
//! `chase-plan` plan cache — and absorbs **update batches**, each one
//! continued semi-naively from the batch delta instead of re-chasing from
//! scratch. On top of the warm state it answers **certain-answer
//! conjunctive queries** (optionally routed through `chase-sqo`
//! join-elimination rewritings) and supports **snapshot/restore/fork** for
//! cheap what-if branching.
//!
//! This is the paper's own application framing made operational: *Stop the
//! Chase* motivates the chase as a repeated, latency-sensitive operation
//! inside data exchange and semantic query optimization — exactly the
//! setting where the dominant cost is redoing trigger matching that an
//! earlier chase already did.
//!
//! ## Example
//!
//! ```
//! use chase_core::{ConjunctiveQuery, ConstraintSet, Instance};
//! use chase_serve::{ChaseSession, ServeError};
//!
//! // Travel constraints: rail links are symmetric.
//! let sigma = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
//! let mut session = ChaseSession::new(sigma);
//!
//! // Ingest update batches; each continues the chase warm.
//! session.apply(Instance::parse("rail(berlin,paris,d9).").unwrap().atoms()).unwrap();
//! let out = session.apply(Instance::parse("rail(paris,lyon,d2).").unwrap().atoms()).unwrap();
//! assert_eq!(out.steps, 1); // only the new link's symmetric closure fires
//!
//! // Certain-answer queries over the chased state.
//! let q = ConjunctiveQuery::parse("q(X) <- rail(X,paris,D)").unwrap();
//! let from_paris = session.query(&q).unwrap();
//! assert_eq!(from_paris.len(), 2); // berlin and lyon
//!
//! // Snapshot, diverge, rewind.
//! let snap = session.snapshot();
//! session.apply(Instance::parse("rail(lyon,nice,d1).").unwrap().atoms()).unwrap();
//! session.restore(&snap);
//! assert_eq!(session.instance(), snap.instance());
//! # Ok::<(), ServeError>(())
//! ```

pub mod conductor;
pub mod proto;
pub mod server;
pub mod session;
pub mod wal;

pub use conductor::{Conductor, ConductorConfig, FleetStats, SessionHandle};
pub use server::{serve, Client, ClientError, Server};
pub use session::{
    ChaseOutcome, ChaseSession, QueryOpts, QuerySpec, ServeError, SessionBuilder, SessionConfig,
    SessionSnapshot, SessionStats,
};
pub use wal::{DurabilityConfig, DurabilityStats, FsyncPolicy, WalRecord};
