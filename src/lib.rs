//! # chase — *On Chase Termination Beyond Stratification*, as a library
//!
//! Umbrella crate re-exporting the full reproduction of Meier, Schmidt &
//! Lausen (VLDB 2009):
//!
//! * `core` ([`chase_core`]) — terms, atoms, instances, homomorphisms, TGDs/EGDs,
//!   conjunctive queries, parser;
//! * `engine` ([`chase_engine`]) — the chase procedure (standard/oblivious),
//!   strategies, budgets, and the monitor-graph guard of Section 4.2;
//! * `plan` ([`chase_plan`]) — cost-guided join-plan compilation and the
//!   secondary-index matcher behind all of the engines' trigger
//!   enumeration;
//! * `termination` ([`chase_termination`]) — weak acyclicity, (c-)stratification,
//!   safety, restriction systems, inductive restriction, the T-hierarchy,
//!   and data-dependent analysis;
//! * `guarded` ([`chase_guarded`]) — weakly/restrictedly guarded TGDs (Section 5);
//! * `sqo` ([`chase_sqo`]) — semantic query optimization with the chase
//!   (universal plans, equivalence under constraints, rewriting enumeration);
//! * `obs` ([`chase_obs`]) — zero-dependency observability: phase timers,
//!   log-scale latency histograms, bounded event rings, and named metric
//!   registries with a Prometheus-style text exposition;
//! * `serve` ([`chase_serve`]) — the serving layer: long-lived incremental
//!   chase sessions with warm re-chase over update batches, certain-answer
//!   queries, snapshot/restore forking, a multi-tenant TCP session
//!   server (each request run on its connection's thread under its
//!   session's lock, behind a framed wire protocol), and durable sessions (write-ahead log + columnar
//!   snapshots with warm restart);
//! * `corpus` ([`chase_corpus`]) — every example of the paper plus synthetic
//!   workload generators.
//!
//! ## Quickstart
//!
//! ```
//! use chase::prelude::*;
//!
//! let sigma = ConstraintSet::parse("S(X2), E(X1,X2) -> E(Y,X1)").unwrap();
//! let report = analyze(&sigma, 4, &PrecedenceConfig::default());
//! assert_eq!(report.t_level, Some(3)); // the paper's Figure 2 constraint
//!
//! let instance = Instance::parse("S(n1). S(n2). E(n1,n2).").unwrap();
//! let result = chase_default(&instance, &sigma);
//! assert!(result.terminated());
//! ```
//!
//! ## Theorem 2's terminating order
//!
//! The terminating order is a [`Strategy`](chase_engine::Strategy), not a
//! separate engine: [`phase_schedule`](chase_termination::phase_schedule)
//! turns the chase graph's SCCs into phases (one all-constraint phase when
//! the set is not recognizably stratified), and `Strategy::Phased` chases
//! them to completion in order. The [`prelude`] example composes the two.

pub use chase_core as core;
pub use chase_corpus as corpus;
pub use chase_engine as engine;
pub use chase_guarded as guarded;
pub use chase_obs as obs;
pub use chase_plan as plan;
pub use chase_serve as serve;
pub use chase_sqo as sqo;
pub use chase_termination as termination;

/// Everything most callers need, in one import.
///
/// # Examples
///
/// Theorem 2's terminating order: compute the phase schedule, then chase
/// it under `Strategy::Phased`.
///
/// ```
/// use chase::prelude::*;
///
/// let sigma = ConstraintSet::parse("S(X) -> T(X)\nT(X) -> U(X,Y)").unwrap();
/// let schedule = phase_schedule(&sigma, &PrecedenceConfig::default());
/// assert_eq!(schedule.stratified, Recognition::Yes);
/// assert_eq!(schedule.phases, vec![vec![0], vec![1]]);
///
/// let cfg = ChaseConfig {
///     strategy: Strategy::Phased(schedule.phases),
///     ..ChaseConfig::default()
/// };
/// let inst = Instance::parse("S(a). S(b).").unwrap();
/// let res = chase(&inst, &sigma, &cfg);
/// assert!(res.terminated());
/// assert_eq!(res.steps, 4);
/// ```
pub mod prelude {
    pub use chase_core::{
        Atom, ConjunctiveQuery, Constraint, ConstraintSet, CoreError, Egd, Instance, PosSet,
        Position, Schema, Subst, Sym, Term, Tgd,
    };
    pub use chase_engine::{
        chase, chase_default, chase_resume, core_chase, core_of, find_terminating_sequence,
        is_core, BfsOutcome, ChaseConfig, ChaseMode, ChaseResult, CoreChaseResult, EngineState,
        Matcher, MonitorGraph, ResumeOutcome, StopReason, Strategy,
    };
    pub use chase_obs::{Histogram, MetricsRegistry, Phase, Recorder};
    pub use chase_plan::JoinProgram;
    pub use chase_serve::{
        serve, ChaseOutcome, ChaseSession, Client, ClientError, Conductor, ConductorConfig,
        DurabilityConfig, DurabilityStats, FleetStats, FsyncPolicy, QueryOpts, QuerySpec,
        ServeError, SessionBuilder, SessionConfig, SessionHandle, SessionSnapshot, SessionStats,
        WalRecord,
    };
    pub use chase_termination::{
        affected_positions, analyze, c_chase_graph, chase_graph, check, data_dependent_terminates,
        dependency_graph, irrelevant_constraints, is_c_stratified, is_inductively_restricted,
        is_safe, is_safely_restricted, is_stratified, is_weakly_acyclic,
        minimal_restriction_system, phase_schedule, precedes, precedes_c, precedes_k,
        propagation_graph, stratified_order, t_level, AnalysisReport, PhaseSchedule,
        PrecedenceConfig, Recognition, Verdict,
    };
}
