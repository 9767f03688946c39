#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # chase-engine
//!
//! The chase procedure itself (Section 2 of *On Chase Termination Beyond
//! Stratification*): standard and oblivious chase steps, EGD merge semantics
//! with failure, pluggable sequencing [`Strategy`]s (round-robin, fixed
//! cyclic order, seeded random, phased), step/null budgets, and the
//! data-dependent *monitor graph* guard of Section 4.2.
//!
//! The runner is deliberately able to reproduce **non-terminating** chase
//! sequences up to a budget — reproducing Example 4's divergence is as much a
//! part of the paper as reproducing the terminating orders of Theorem 2.
//!
//! Two engines share the same canonical trigger selection and therefore
//! produce bit-identical traces on the same inputs:
//!
//! * [`chase_naive`] — per-step full trigger re-enumeration (the reference);
//! * [`chase`] — the delta-driven trigger queue (semi-naive re-matching).
//!
//! Theorem 2's terminating order is not a third engine but a strategy:
//! [`Strategy::Phased`] with the SCC phases that
//! `chase_termination::phase_schedule` computes runs either engine phase by
//! phase.
//!
//! The delta engine's run state (trigger pool, oblivious fired-trigger
//! memo, plan cache, monitor, counters) is reified as a resumable [`EngineState`]:
//! one-shot entry points build and tear one down per call, while
//! [`EngineState::insert_batch`] + [`chase_resume`] keep it warm across
//! base-fact update batches — the primitive behind the `chase-serve`
//! session layer.

pub mod bfs;
pub mod core_of;
pub mod monitor;
pub mod runner;
pub mod step;
pub mod trigger;

pub use bfs::{find_terminating_sequence, BfsOutcome};
pub use core_of::{core_chase, core_of, is_core, CoreChaseResult};
pub use monitor::MonitorGraph;
pub use runner::{
    chase, chase_default, chase_naive, chase_resume, ChaseConfig, ChaseMode, ChaseResult,
    EngineState, ResumeOutcome, StepRecord, StopReason, Strategy,
};
pub use step::{apply_step, StepEffect};
pub use trigger::{active_triggers, first_active_trigger, head_rests, is_active, Matcher};
