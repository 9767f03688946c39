//! The [`ChaseSession`]: a long-lived handle over one instance, one
//! constraint set, and the delta engine's warm run state.
//!
//! A session owns a `chase_engine::EngineState` — the columnar
//! [`Instance`], the incrementally maintained trigger pool, and the
//! compiled `chase-plan` plan cache — and keeps all of it
//! alive across update batches. [`ChaseSession::apply`] ingests a batch of
//! base facts and continues the chase *semi-naively from the batch delta*:
//! only constraints whose bodies can see the new atoms are re-matched, only
//! pooled triggers whose heads the new atoms may have satisfied are
//! revalidated, and plans recompile only when the batch actually moves the
//! instance's statistics epoch. A from-scratch re-chase after every batch —
//! the cold path the `session_updates` bench compares against — redoes all
//! of that work per batch.
//!
//! Because trigger selection stays canonical inside the engine, a session
//! that applies batches `B1..Bn` runs *some* legal chase sequence of
//! `B1 ∪ … ∪ Bn`; on terminating workloads its result is a universal model
//! of the accumulated facts, so its core is isomorphic to the core of the
//! from-scratch chase (pinned by `tests/session_equivalence.rs` at the
//! workspace root) and certain answers agree exactly.

use crate::wal::{self, DurabilityConfig, DurabilityStats, Wal};
use chase_core::parser::parse_facts;
use chase_core::{Atom, ConjunctiveQuery, ConstraintSet, CoreError, Instance, Term};
use chase_engine::{chase_resume, ChaseConfig, ChaseMode, EngineState, StopReason};
use chase_obs::{Phase, Recorder, RegistrySnapshot};
use chase_sqo::minimal_rewritings;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Instant;

/// Session configuration: the engine configuration used for every warm
/// re-chase, plus the query-rewriting policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// The chase configuration each [`ChaseSession::apply`] resumes under.
    /// Budgets (`max_steps`, `max_nulls`) apply per batch, not cumulatively.
    pub chase: ChaseConfig,
    /// Route queries through `chase-sqo` rewriting when beneficial (a
    /// strictly smaller Σ-equivalent body exists). Rewriting decisions are
    /// cached per query text (up to a fixed cap per session), so the
    /// universal-plan chase runs once per distinct query, not once per
    /// call. Under a [`Conductor`](crate::Conductor), every session with an
    /// equal constraint set and equal `use_sqo`, `sqo_chase` and
    /// `sqo_max_plan_atoms` shares one cache, so a query text costs that
    /// chase once per Σ, not once per tenant.
    pub use_sqo: bool,
    /// Budgeted configuration for the rewriting pipeline's own chases
    /// (freezing and chasing the query — guarded, because that chase need
    /// not terminate even when the data chase does).
    pub sqo_chase: ChaseConfig,
    /// The largest universal plan (in atoms) whose subqueries are searched
    /// for a rewriting; larger plans are refused and the query runs as
    /// written. The search goes level by level, one body size at a time,
    /// and stops at the first size holding a Σ-equivalent subquery, so its
    /// cost is the subsets up to that size, not all `2^n`. Plans wider than
    /// `chase_sqo::rewrite::MAX_MASK_ATOMS` (64) are refused whatever this
    /// says (see `chase_sqo::minimal_rewritings`).
    pub sqo_max_plan_atoms: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            chase: ChaseConfig::default(),
            use_sqo: true,
            sqo_chase: ChaseConfig::with_max_steps(500),
            sqo_max_plan_atoms: 10,
        }
    }
}

/// What one [`ChaseSession::apply`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseOutcome {
    /// Why the warm re-chase stopped. [`StopReason::Satisfied`] means the
    /// session is quiescent again; `Failed`/`MonitorAbort` poison the
    /// session (later calls return [`ServeError::Poisoned`]).
    pub reason: StopReason,
    /// Chase steps fired for this batch.
    pub steps: usize,
    /// Fresh nulls invented for this batch.
    pub fresh_nulls: usize,
    /// Batch facts that were actually new (duplicates cost nothing: no
    /// pool work, no statistics movement, no plan recompiles).
    pub new_facts: usize,
    /// Total facts in the chased instance after this batch.
    pub total_facts: usize,
    /// 1-based index of this batch in the session's update stream. (The
    /// session's batch counter — distinct from the instance's
    /// `stats_epoch`, which only moves when the data doubles.)
    pub epoch: u64,
}

/// One coherent reading of a session's counters, taken at a single point
/// in time — the redesigned replacement for seven scalar getters, and
/// *verbatim* the wire protocol's `Stats` response (see
/// [`crate::proto::Response::Stats`]), so the REPL client, the server and
/// the load-generator bench all print the same numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionStats {
    /// Batches applied so far (the session's epoch counter — distinct from
    /// the instance's `stats_epoch`, which only moves when the data
    /// doubles).
    pub epoch: u64,
    /// Facts in the chased instance right now.
    pub total_facts: u64,
    /// Chase steps fired across every batch.
    pub total_steps: u64,
    /// Join-plan cache recompiles since the session started — the
    /// plan-cache-reuse observable (duplicate-only batches must leave this
    /// unchanged).
    pub plan_recompiles: u64,
    /// Facts rewritten in place by EGD merges across every batch — the
    /// cumulative size of the merge deltas the engine repaired its trigger
    /// pool from (no pool rebuilds).
    pub merge_rewritten: u64,
    /// Facts that collapsed onto an existing duplicate during EGD merges
    /// across every batch.
    pub merge_collapsed: u64,
    /// Why the most recent apply/query chase stopped, if any ran yet.
    pub last_reason: Option<StopReason>,
    /// Is the session fully chased (no pending triggers, not poisoned)?
    pub quiescent: bool,
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epochs {}, facts {}, total steps {}, merge rewritten {}, merge collapsed {}, \
             plan recompiles {}, quiescent {}, last stop {}",
            self.epoch,
            self.total_facts,
            self.total_steps,
            self.merge_rewritten,
            self.merge_collapsed,
            self.plan_recompiles,
            self.quiescent,
            match &self.last_reason {
                Some(r) => format!("{r:?}"),
                None => "-".to_string(),
            }
        )
    }
}

/// Options for [`ChaseSession::query`] — how a conjunctive query is
/// answered. The default is the certain-answer projection with `chase-sqo`
/// rewriting enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOpts {
    /// Keep answer tuples containing labeled nulls (the full evaluation)
    /// instead of projecting down to the certain answers.
    pub all: bool,
    /// Route through `chase-sqo` join-elimination rewriting when the
    /// session is quiescent and a strictly smaller Σ-equivalent body
    /// exists. Decisions are cached per query text.
    pub sqo: bool,
}

impl Default for QueryOpts {
    fn default() -> QueryOpts {
        QueryOpts {
            all: false,
            sqo: true,
        }
    }
}

impl QueryOpts {
    /// Certain answers only (the default).
    pub fn certain() -> QueryOpts {
        QueryOpts::default()
    }

    /// The full evaluation: answer tuples containing labeled nulls are kept.
    pub fn all_tuples() -> QueryOpts {
        QueryOpts {
            all: true,
            ..QueryOpts::default()
        }
    }

    /// Disable `chase-sqo` rewriting for this query.
    pub fn without_sqo(mut self) -> QueryOpts {
        self.sqo = false;
        self
    }
}

/// A query plus its options — the one argument of [`ChaseSession::query`].
///
/// Built implicitly from `&cq` (default options) or `(&cq, opts)`, so the
/// common call stays a one-liner while every option remains reachable
/// through the same entry point:
///
/// ```
/// # use chase_core::{ConjunctiveQuery, ConstraintSet};
/// # use chase_serve::{ChaseSession, QueryOpts};
/// # let mut s = ChaseSession::new(ConstraintSet::parse("S(X) -> E(X,Y)").unwrap());
/// # let q = ConjunctiveQuery::parse("q(X,Y) <- E(X,Y)").unwrap();
/// let certain = s.query(&q).unwrap();                          // defaults
/// let full = s.query((&q, QueryOpts::all_tuples())).unwrap();  // with nulls
/// assert!(certain.len() <= full.len());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct QuerySpec<'q> {
    /// The conjunctive query to answer.
    pub q: &'q ConjunctiveQuery,
    /// How to answer it.
    pub opts: QueryOpts,
}

impl<'q> From<&'q ConjunctiveQuery> for QuerySpec<'q> {
    fn from(q: &'q ConjunctiveQuery) -> QuerySpec<'q> {
        QuerySpec {
            q,
            opts: QueryOpts::default(),
        }
    }
}

impl<'q> From<(&'q ConjunctiveQuery, QueryOpts)> for QuerySpec<'q> {
    fn from((q, opts): (&'q ConjunctiveQuery, QueryOpts)) -> QuerySpec<'q> {
        QuerySpec { q, opts }
    }
}

/// Errors of the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The session hit a terminal stop earlier — an EGD failure or a
    /// monitor abort — and cannot chase or answer further. Restore a
    /// [`SessionSnapshot`] taken before the poisoning batch to recover.
    Poisoned(StopReason),
    /// Batch rejected: a non-ground atom. The batch was not applied.
    Core(chase_core::CoreError),
    /// The conductor refused a new session: the global session cap is
    /// already reached.
    Capacity {
        /// The configured cap.
        max_sessions: usize,
    },
    /// No session with this id exists (never created, or already closed).
    UnknownSession(u64),
    /// No snapshot with this id exists on the addressed session.
    UnknownSnapshot(u64),
    /// The conductor refused a snapshot: the session already holds the
    /// per-session cap of server-side snapshots. The snapshots it holds
    /// stay restorable.
    SnapshotCapacity {
        /// The configured cap.
        max_snapshots: usize,
    },
    /// The session is gone (closed, evicted, or killed by a panic in one of
    /// its requests); it can no longer be addressed.
    SessionGone,
    /// A durability operation failed: the write-ahead log or a snapshot
    /// could not be read or written, a durable directory's manifest does
    /// not match the requested session, or the log itself is inconsistent
    /// (an epoch discontinuity, records after a poisoning batch). Carries
    /// a rendered description rather than the `io::Error` so the error
    /// type stays `Clone + PartialEq` for the wire protocol.
    Durability(String),
    /// The session idled past the conductor's `evict_after` TTL and, being
    /// non-durable, was discarded. (A durable session warm-restarts
    /// transparently instead of ever surfacing this.)
    Evicted(u64),
    /// The session configuration's chase strategy (or its SQO chase
    /// strategy) names a constraint index the constraint set does not have
    /// (see `Strategy::out_of_range`). No session was built.
    StrategyOutOfRange {
        /// The first out-of-range index the strategy names.
        index: usize,
        /// The number of constraints in the set.
        constraints: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Poisoned(r) => write!(f, "session poisoned by terminal stop {r:?}"),
            ServeError::Core(e) => write!(f, "{e}"),
            ServeError::Capacity { max_sessions } => {
                write!(f, "session cap reached ({max_sessions} sessions)")
            }
            ServeError::UnknownSession(id) => write!(f, "no session {id}"),
            ServeError::UnknownSnapshot(id) => write!(f, "no snapshot {id}"),
            ServeError::SnapshotCapacity { max_snapshots } => {
                write!(f, "snapshot cap reached ({max_snapshots} per session)")
            }
            ServeError::SessionGone => write!(f, "session is gone"),
            ServeError::Durability(msg) => write!(f, "durability: {msg}"),
            ServeError::Evicted(id) => write!(
                f,
                "session {id} was evicted after idling past the server's TTL \
                 (non-durable state discarded)"
            ),
            ServeError::StrategyOutOfRange { index, constraints } => write!(
                f,
                "session strategy names constraint {index}, but the set has \
                 {constraints} constraints"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<chase_core::CoreError> for ServeError {
    fn from(e: chase_core::CoreError) -> ServeError {
        ServeError::Core(e)
    }
}

/// A point-in-time copy of a session's full engine state — instance,
/// trigger pool, memos, plan cache, and counters. Restoring one rewinds
/// the session exactly (continued runs are bit-identical to the original
/// timeline); cloning a session ([`ChaseSession::fork`]) is the same
/// operation without the handle indirection.
///
/// A snapshot *is* a frozen session: it dereferences to [`ChaseSession`],
/// so every read accessor (`instance`, `constraints`, `config`, `stats`)
/// is written once on the session and available on both. The constraint
/// set and session configuration travel inside the frozen session —
/// [`ChaseSession::restore`] checks them, because engine state is indexed
/// by constraint position and its memos depend on the chase mode, so
/// restoring under other semantics would silently corrupt matching.
#[derive(Clone)]
pub struct SessionSnapshot(ChaseSession);

impl Deref for SessionSnapshot {
    type Target = ChaseSession;

    fn deref(&self) -> &ChaseSession {
        &self.0
    }
}

/// Events retained per session by the engine's telemetry ring.
const SESSION_EVENT_RING: usize = 256;

/// A long-lived incremental chase session. See the [module docs](self).
///
/// # Examples
///
/// ```
/// use chase_core::{ConjunctiveQuery, ConstraintSet, Instance, Term};
/// use chase_serve::ChaseSession;
///
/// let sigma = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
/// let mut session = ChaseSession::new(sigma);
/// session.apply(Instance::parse("E(a,b).").unwrap().atoms()).unwrap();
/// let out = session.apply(Instance::parse("E(b,c).").unwrap().atoms()).unwrap();
/// assert_eq!(out.steps, 1); // warm: only the new join fires
///
/// let q = ConjunctiveQuery::parse("reach(X) <- E(a,X)").unwrap();
/// let reach = session.query(&q).unwrap();
/// assert_eq!(reach.len(), 2); // b and c
/// ```
pub struct ChaseSession {
    cfg: SessionConfig,
    state: EngineState,
    epoch: u64,
    last_reason: Option<StopReason>,
    /// The constraint set plus the per-query rewriting decisions under it.
    /// Shared by every fork and snapshot of the session (and by the
    /// conductor's read path): decisions depend only on Σ and the SQO
    /// policy, which never change under a session. Under a conductor the
    /// decisions themselves sit in a store shared with every session on an
    /// equal Σ and policy.
    rewrites: Arc<RewriteCache>,
    /// The durability attachment (WAL handle, snapshot thresholds,
    /// counters), present on sessions built with [`SessionBuilder::durable`]
    /// or reopened with [`ChaseSession::open`]. Boxed: most sessions are
    /// in-memory and pay one pointer for the feature.
    durable: Option<Box<Durable>>,
}

/// Everything a durable session owns beyond its in-memory state.
struct Durable {
    dir: PathBuf,
    wal: Wal,
    cfg: DurabilityConfig,
    stats: DurabilityStats,
    /// Batches applied since the last snapshot (compaction trigger).
    batches_since_snapshot: u32,
}

impl Clone for ChaseSession {
    /// Clones (and therefore [`ChaseSession::fork`]s and
    /// [`ChaseSession::snapshot`]s) are **in-memory**: the write-ahead log
    /// stays with the original session. Two sessions appending to one log
    /// would interleave incompatible histories, so the copy simply is not
    /// durable — persist a fork by building it a durable directory of its
    /// own.
    fn clone(&self) -> ChaseSession {
        ChaseSession {
            cfg: self.cfg.clone(),
            state: self.state.clone(),
            epoch: self.epoch,
            last_reason: self.last_reason.clone(),
            rewrites: Arc::clone(&self.rewrites),
            durable: None,
        }
    }
}

/// Builder for a [`ChaseSession`] — the one construction path behind
/// [`ChaseSession::new`] and [`ChaseSession::with_config`]:
///
/// ```
/// use chase_core::{ConstraintSet, Instance};
/// use chase_serve::{ChaseSession, SessionConfig};
///
/// let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
/// let session = ChaseSession::builder(set)
///     .config(SessionConfig::default())
///     .instance(&Instance::parse("E(a,b). E(b,c).").unwrap())
///     .build();
/// assert_eq!(session.instance().len(), 2); // seeded, not yet chased
/// ```
#[derive(Clone)]
pub struct SessionBuilder {
    set: ConstraintSet,
    cfg: SessionConfig,
    instance: Instance,
    durable_dir: Option<PathBuf>,
    durability: DurabilityConfig,
}

impl SessionBuilder {
    /// Use `cfg` as the session configuration (default:
    /// [`SessionConfig::default`]).
    pub fn config(mut self, cfg: SessionConfig) -> SessionBuilder {
        self.cfg = cfg;
        self
    }

    /// Override just the chase configuration, keeping the rest of the
    /// session configuration as currently set.
    pub fn chase(mut self, chase: ChaseConfig) -> SessionBuilder {
        self.cfg.chase = chase;
        self
    }

    /// Seed the session with `instance` (taken as base facts; the first
    /// [`ChaseSession::apply`] or [`ChaseSession::query`] chases them).
    pub fn instance(mut self, instance: &Instance) -> SessionBuilder {
        self.instance = instance.clone();
        self
    }

    /// Make the session durable in directory `dir` (created if missing).
    ///
    /// A fresh directory gets a `MANIFEST` (the constraint set and full
    /// session configuration) and an empty write-ahead log; from then on
    /// every applied batch is logged before it is applied, and snapshots
    /// compact the log per the [`DurabilityConfig`] thresholds. A directory
    /// that already holds a manifest is **resumed**: the manifest must
    /// match the builder's constraint set and configuration exactly, the
    /// builder must not also seed an instance, and the built session comes
    /// back warm — newest valid snapshot loaded, WAL-since-snapshot
    /// replayed ([`ChaseSession::open`] is the shorthand that reads the
    /// manifest instead of requiring Σ up front).
    ///
    /// ```
    /// use chase_core::{ConstraintSet, Instance};
    /// use chase_serve::{ChaseSession, ServeError};
    ///
    /// let dir = std::env::temp_dir().join(format!("chase-doc-durable-{}", std::process::id()));
    /// let sigma = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    /// let mut s = ChaseSession::builder(sigma).durable(&dir).try_build()?;
    /// s.apply(Instance::parse("E(a,b). E(b,c).").unwrap().atoms())?;
    /// drop(s); // or crash — the batch is already on disk
    ///
    /// let reopened = ChaseSession::open(&dir)?;
    /// assert_eq!(reopened.stats().epoch, 1);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// # Ok::<(), ServeError>(())
    /// ```
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> SessionBuilder {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Tune fsync policy and snapshot-compaction thresholds (only
    /// meaningful together with [`SessionBuilder::durable`]).
    pub fn durability(mut self, cfg: DurabilityConfig) -> SessionBuilder {
        self.durability = cfg;
        self
    }

    /// Build the session.
    ///
    /// # Panics
    /// Panics if the builder is durable and setting up or resuming the
    /// durable directory fails; use [`SessionBuilder::try_build`] to handle
    /// that as an error.
    pub fn build(self) -> ChaseSession {
        self.try_build().expect("building the session failed")
    }

    /// Build the session, reporting durability problems as
    /// [`ServeError::Durability`] instead of panicking. For in-memory
    /// builders the only error is [`ServeError::StrategyOutOfRange`].
    pub fn try_build(self) -> Result<ChaseSession, ServeError> {
        check_strategies(&self.set, &self.cfg)?;
        let Some(dir) = self.durable_dir else {
            return Ok(build_in_memory(self.set, self.cfg, &self.instance));
        };
        std::fs::create_dir_all(&dir).map_err(dur_err)?;
        match wal::read_manifest(&dir).map_err(ServeError::Durability)? {
            Some((set, cfg)) => {
                if set != self.set {
                    return Err(ServeError::Durability(format!(
                        "{} was created under a different constraint set",
                        dir.display()
                    )));
                }
                if cfg != self.cfg {
                    return Err(ServeError::Durability(format!(
                        "{} was created under a different session configuration",
                        dir.display()
                    )));
                }
                if !self.instance.is_empty() {
                    return Err(ServeError::Durability(
                        "cannot seed an instance into an existing durable directory \
                         (its log already determines the state)"
                            .to_string(),
                    ));
                }
                DecodedSession::decode_with(dir, set, cfg, self.durability)?.replay()
            }
            None => {
                wal::write_manifest(&dir, &self.set, &self.cfg).map_err(dur_err)?;
                let (wal, records, _) = Wal::open(&dir).map_err(dur_err)?;
                debug_assert!(records.is_empty(), "fresh durable dir has a non-empty WAL");
                // The new `wal.log` entry, and the session directory's own
                // entry in its parent, must reach disk before any batch is
                // acknowledged into them.
                let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
                wal::sync_dir(&dir)
                    .and_then(|()| wal::sync_dir(parent.unwrap_or(Path::new("."))))
                    .map_err(dur_err)?;
                let mut session = build_in_memory(self.set, self.cfg, &self.instance);
                // A seeded instance is covered by an immediate snapshot so
                // reopen reconstructs it (seeds never pass through the WAL).
                let mut durable = Durable {
                    dir,
                    wal,
                    cfg: self.durability,
                    stats: DurabilityStats::default(),
                    batches_since_snapshot: 0,
                };
                if !session.state.instance().is_empty() {
                    wal::write_snapshot(&durable.dir, 0, session.state.instance())
                        .map_err(dur_err)?;
                    durable.stats.snapshots_written = 1;
                }
                session.durable = Some(Box::new(durable));
                Ok(session)
            }
        }
    }
}

/// The in-memory construction every build path bottoms out in.
fn build_in_memory(set: ConstraintSet, cfg: SessionConfig, instance: &Instance) -> ChaseSession {
    let mut state = EngineState::new(instance, &set, &cfg.chase);
    // Sessions are long-lived and observable by construction: install a
    // live recorder (phase histograms + a bounded event ring) in place
    // of the env-gated process-global one. Recording is write-only for
    // the engine, so this cannot perturb the deterministic trace.
    state.set_recorder(Recorder::enabled(SESSION_EVENT_RING));
    ChaseSession {
        rewrites: Arc::new(RewriteCache::new(set, &cfg)),
        cfg,
        state,
        epoch: 0,
        last_reason: None,
        durable: None,
    }
}

/// Refuse a configuration whose chase or SQO strategy names a constraint
/// index Σ does not have (`Strategy::out_of_range`): the engine would panic
/// on it. Building and reopening both check here, so a hand-edited or
/// foreign manifest fails the open instead of the process.
fn check_strategies(set: &ConstraintSet, cfg: &SessionConfig) -> Result<(), ServeError> {
    let constraints = set.len();
    for strategy in [&cfg.chase.strategy, &cfg.sqo_chase.strategy] {
        if let Some(index) = strategy.out_of_range(constraints) {
            return Err(ServeError::StrategyOutOfRange { index, constraints });
        }
    }
    Ok(())
}

/// Render an `io::Error` into the serve layer's clonable error type.
fn dur_err(e: io::Error) -> ServeError {
    ServeError::Durability(e.to_string())
}

/// A durable session directory read and parsed but not yet chased: the
/// first half of [`ChaseSession::open_with`].
///
/// Decoding does every `Sym::new` an open does — the manifest's Σ, the
/// snapshot's symbol table, the log tail's facts — and replay does none.
/// Interner order decides trigger order and so null labels, which is why
/// a warm restart decodes on one thread in session-id order and only
/// replays in parallel: the reopened fleet is then bit-identical to
/// opening the directories one by one.
pub(crate) struct DecodedSession {
    dir: PathBuf,
    set: ConstraintSet,
    cfg: SessionConfig,
    durability: DurabilityConfig,
    wal: Wal,
    truncated_bytes: u64,
    /// The newest valid snapshot, if any: its epoch and instance.
    snapshot: Option<(u64, Instance)>,
    /// The log records past the snapshot, parsed, in epoch order.
    batches: Vec<Vec<Atom>>,
    /// Why decoding stopped early (an epoch gap or a record that does not
    /// parse). Replay raises it after the batches before it, unless one of
    /// them already failed or poisoned the session — the precedence a
    /// record-by-record open has.
    tail: Option<ServeError>,
}

impl DecodedSession {
    /// Decode the directory, taking Σ and the session configuration from
    /// its `MANIFEST`.
    pub(crate) fn decode(
        dir: &Path,
        durability: DurabilityConfig,
    ) -> Result<DecodedSession, ServeError> {
        let (set, cfg) = wal::read_manifest(dir)
            .map_err(ServeError::Durability)?
            .ok_or_else(|| {
                ServeError::Durability(format!(
                    "{} is not a durable session directory (no MANIFEST)",
                    dir.display()
                ))
            })?;
        DecodedSession::decode_with(dir.to_path_buf(), set, cfg, durability)
    }

    /// Decode the directory under a Σ and configuration already read from
    /// its manifest (the resume path of [`SessionBuilder::durable`]).
    fn decode_with(
        dir: PathBuf,
        set: ConstraintSet,
        cfg: SessionConfig,
        durability: DurabilityConfig,
    ) -> Result<DecodedSession, ServeError> {
        check_strategies(&set, &cfg)?;
        let (wal, records, truncated_bytes) = Wal::open(&dir).map_err(dur_err)?;
        let snapshot = wal::load_newest_snapshot(&dir);
        let snapshot_epoch = snapshot.as_ref().map_or(0, |(epoch, _)| *epoch);
        let mut batches = Vec::new();
        let mut tail = None;
        // Records at or below the snapshot's epoch are covered by it: a
        // crash between writing the snapshot and truncating the log leaves
        // this overlap.
        let past = records.iter().filter(|r| r.epoch > snapshot_epoch);
        for (expected, record) in (snapshot_epoch + 1..).zip(past) {
            if record.epoch != expected {
                tail = Some(ServeError::Durability(format!(
                    "WAL epoch discontinuity: expected {expected}, found {}",
                    record.epoch
                )));
                break;
            }
            match parse_facts(&record.batch) {
                Ok(batch) => batches.push(batch),
                Err(e) => {
                    tail = Some(ServeError::Durability(format!(
                        "WAL record for epoch {expected} does not parse: {e}"
                    )));
                    break;
                }
            }
        }
        Ok(DecodedSession {
            dir,
            set,
            cfg,
            durability,
            wal,
            truncated_bytes,
            snapshot,
            batches,
            tail,
        })
    }

    /// The second half of an open: build the engine over the snapshot and
    /// chase every decoded batch through the ordinary warm apply path, one
    /// `wal_replay` phase sample per batch.
    pub(crate) fn replay(self) -> Result<ChaseSession, ServeError> {
        let loaded_snapshot = self.snapshot.is_some();
        let (snapshot_epoch, seed) = self.snapshot.unwrap_or_else(|| (0, Instance::new()));
        let mut session = build_in_memory(self.set, self.cfg, &seed);
        session.epoch = snapshot_epoch;
        let recorder = session.state.recorder().clone();
        let poisoned = |session: &ChaseSession| {
            ServeError::Durability(format!(
                "WAL records continue past the poisoning batch at epoch {}",
                session.epoch
            ))
        };
        let replayed_records = self.batches.len() as u64;
        for batch in self.batches {
            // One wal_replay sample per record, so the phase count in the
            // metrics exposition *is* the replayed-record count.
            let _t = recorder.phase(Phase::WalReplay);
            if session.state.poisoned().is_some() {
                return Err(poisoned(&session));
            }
            session.apply_inner(batch)?;
        }
        if let Some(err) = self.tail {
            return Err(if session.state.poisoned().is_some() {
                poisoned(&session)
            } else {
                err
            });
        }
        session.durable = Some(Box::new(Durable {
            dir: self.dir,
            wal: self.wal,
            cfg: self.durability,
            stats: DurabilityStats {
                replayed_records,
                truncated_bytes: self.truncated_bytes,
                loaded_snapshot,
                snapshot_epoch,
                ..DurabilityStats::default()
            },
            batches_since_snapshot: 0,
        }));
        Ok(session)
    }
}

impl ChaseSession {
    /// Start building a session over `set`; see [`SessionBuilder`].
    pub fn builder(set: ConstraintSet) -> SessionBuilder {
        SessionBuilder {
            set,
            cfg: SessionConfig::default(),
            instance: Instance::new(),
            durable_dir: None,
            durability: DurabilityConfig::default(),
        }
    }

    /// A session over the empty instance with the default configuration —
    /// the one-liner for `builder(set).build()`.
    pub fn new(set: ConstraintSet) -> ChaseSession {
        ChaseSession::builder(set).build()
    }

    /// A session over the empty instance with an explicit configuration —
    /// shorthand for `builder(set).config(cfg).build()`.
    pub fn with_config(set: ConstraintSet, cfg: SessionConfig) -> ChaseSession {
        ChaseSession::builder(set).config(cfg).build()
    }

    /// Reopen a durable session from its directory — the warm-restart
    /// entry point. The constraint set and session configuration come from
    /// the directory's `MANIFEST`; the state comes back by loading the
    /// newest valid snapshot and replaying the write-ahead log records past
    /// its epoch through the ordinary warm apply path (timed under the
    /// `wal_replay` phase). A torn or corrupt log tail is truncated
    /// (those records were never acknowledged); an unreadable snapshot is
    /// skipped in favor of an older one or full replay.
    ///
    /// ```
    /// use chase_core::{ConjunctiveQuery, ConstraintSet, Instance};
    /// use chase_serve::{ChaseSession, ServeError};
    ///
    /// let dir = std::env::temp_dir().join(format!("chase-doc-open-{}", std::process::id()));
    /// let sigma = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
    /// let mut s = ChaseSession::builder(sigma).durable(&dir).try_build()?;
    /// s.apply(Instance::parse("rail(berlin,paris,d9).").unwrap().atoms())?;
    /// drop(s); // simulate losing the process
    ///
    /// let mut back = ChaseSession::open(&dir)?;
    /// let q = ConjunctiveQuery::parse("q(X) <- rail(X,berlin,D)").unwrap();
    /// assert_eq!(back.query(&q)?.len(), 1); // the symmetric closure survived
    /// assert_eq!(back.durability().unwrap().replayed_records, 1);
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// # Ok::<(), ServeError>(())
    /// ```
    ///
    /// # Errors
    /// [`ServeError::Durability`] when the directory has no manifest, the
    /// manifest or log cannot be read, or the log is inconsistent (epoch
    /// discontinuity, records following a poisoning batch);
    /// [`ServeError::StrategyOutOfRange`] when the manifest's strategy names
    /// a constraint its Σ does not have.
    pub fn open(dir: impl AsRef<Path>) -> Result<ChaseSession, ServeError> {
        ChaseSession::open_with(dir, DurabilityConfig::default())
    }

    /// [`ChaseSession::open`] with explicit durability knobs for the
    /// reopened session.
    ///
    /// An open is two halves. The decode reads the manifest, the log and
    /// the newest snapshot, and parses the log tail into batches: all the
    /// work that interns names. The replay builds the engine and chases
    /// the batches, interning nothing. A warm-restarting
    /// [`crate::Conductor`] decodes its directories one by one in id
    /// order and replays them on every core; this runs the same two
    /// halves back to back.
    pub fn open_with(
        dir: impl AsRef<Path>,
        durability: DurabilityConfig,
    ) -> Result<ChaseSession, ServeError> {
        DecodedSession::decode(dir.as_ref(), durability)?.replay()
    }

    /// Is this session durable (building it attached a write-ahead log)?
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durability counters (`None` on an in-memory session): WAL
    /// appends/bytes/fsyncs from this process, what the open replayed or
    /// truncated, snapshots written. Also exported by
    /// [`ChaseSession::metrics_snapshot`] as `chase_wal_*` /
    /// `chase_snapshot*` series.
    pub fn durability(&self) -> Option<DurabilityStats> {
        self.durable.as_ref().map(|d| d.stats)
    }

    /// Force a durability point now: write a snapshot at the current epoch
    /// and compact the write-ahead log (the REPL's `\persist`). Returns the
    /// epoch the on-disk state now covers.
    ///
    /// Oblivious-mode sessions cannot snapshot chased state (resuming an
    /// oblivious engine from a bare instance would re-fire old triggers),
    /// so for them `persist` flushes the log instead — same durability,
    /// replay-from-log recovery. A poisoned Standard session likewise only
    /// flushes: the poisoning is reproduced at reopen by replaying its
    /// batch rather than baked into a snapshot.
    ///
    /// # Errors
    /// [`ServeError::Durability`] if the session is not durable or the
    /// snapshot/flush fails (a failed snapshot loses nothing: the log
    /// still holds every batch).
    pub fn persist(&mut self) -> Result<u64, ServeError> {
        if self.durable.is_none() {
            return Err(ServeError::Durability(
                "session is not durable (build it with SessionBuilder::durable)".to_string(),
            ));
        }
        if self.cfg.chase.mode == ChaseMode::Oblivious || self.state.poisoned().is_some() {
            let d = self.durable.as_mut().unwrap();
            d.wal.fsync().map_err(dur_err)?;
            d.stats.wal_fsyncs += 1;
            return Ok(self.epoch);
        }
        self.snapshot_to_disk().map_err(dur_err)?;
        Ok(self.epoch)
    }

    /// Write `snapshot-<epoch>.csnp` for the current state, then compact:
    /// drop every WAL record (all are ≤ the snapshot's epoch), remove
    /// snapshots from abandoned futures (restore rewinds the epoch), prune
    /// old generations. Callers decide whether a failure is fatal.
    fn snapshot_to_disk(&mut self) -> io::Result<()> {
        let d = self
            .durable
            .as_mut()
            .expect("snapshot_to_disk on in-memory session");
        wal::write_snapshot(&d.dir, self.epoch, self.state.instance())?;
        wal::remove_snapshots_above(&d.dir, self.epoch);
        d.wal.truncate_all()?;
        wal::prune_snapshots(&d.dir, d.cfg.keep_snapshots);
        d.stats.snapshots_written += 1;
        d.stats.snapshot_epoch = self.epoch;
        d.batches_since_snapshot = 0;
        Ok(())
    }

    /// Count this batch against the compaction thresholds and snapshot if
    /// one is due. Snapshot failures are counted, not raised — the WAL
    /// still holds everything, so a missed compaction costs replay time at
    /// the next open, never data.
    fn maybe_snapshot(&mut self) {
        if self.cfg.chase.mode == ChaseMode::Oblivious || self.state.poisoned().is_some() {
            return;
        }
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        d.batches_since_snapshot += 1;
        let cfg = d.cfg;
        let due = (cfg.snapshot_every_batches > 0
            && d.batches_since_snapshot >= cfg.snapshot_every_batches)
            || (cfg.snapshot_every_bytes > 0 && d.wal.len() >= cfg.snapshot_every_bytes);
        if due && self.snapshot_to_disk().is_err() {
            let d = self.durable.as_mut().unwrap();
            d.stats.snapshot_errors += 1;
        }
    }

    /// The constraint set the session chases under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.rewrites.store.set
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The current (chased-so-far) instance.
    pub fn instance(&self) -> &Instance {
        self.state.instance()
    }

    /// The terminal stop that poisoned the session, if any.
    pub fn poisoned(&self) -> Option<&StopReason> {
        self.state.poisoned()
    }

    /// One coherent snapshot of every session counter — epochs, steps,
    /// merge work, plan recompiles, quiescence, and the last stop reason.
    /// This is the only counter accessor; it is also, verbatim, the wire
    /// protocol's `Stats` response.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            epoch: self.epoch,
            total_facts: self.state.instance().len() as u64,
            total_steps: self.state.total_steps() as u64,
            plan_recompiles: self.state.matcher().recompile_count(),
            merge_rewritten: self.state.total_merge_rewritten() as u64,
            merge_collapsed: self.state.total_merge_collapsed() as u64,
            last_reason: self.last_reason.clone(),
            quiescent: self.state.quiescent(),
        }
    }

    /// Insert a batch of ground base facts and continue the chase warm,
    /// semi-naively from the batch delta. Returns what happened; see
    /// [`ChaseOutcome`]. An empty or all-duplicate batch still counts an
    /// epoch but performs no matching work and recompiles no plans.
    ///
    /// On a durable session the batch is **logged first**: it is appended
    /// to the write-ahead log (and fsynced, per the [`FsyncPolicy`]) before
    /// any of it is applied, so a crash at any point leaves either a log
    /// that replays the batch or one that never mentions it — never a
    /// half-applied state. [`ServeError::Durability`] on a durable apply
    /// means the batch was not applied.
    ///
    /// # Errors
    ///
    /// [`ServeError::Poisoned`] if an earlier batch ended in an EGD failure
    /// or monitor abort; [`ServeError::Core`] (batch unapplied) if the
    /// batch contains a non-ground atom.
    ///
    /// [`FsyncPolicy`]: crate::wal::FsyncPolicy
    pub fn apply(
        &mut self,
        batch: impl IntoIterator<Item = Atom>,
    ) -> Result<ChaseOutcome, ServeError> {
        if self.durable.is_none() {
            return self.apply_inner(batch);
        }
        if let Some(r) = self.state.poisoned() {
            return Err(ServeError::Poisoned(r.clone()));
        }
        let batch: Vec<Atom> = batch.into_iter().collect();
        // Validate groundness *before* the append so a rejected batch never
        // reaches the log: every logged record corresponds to exactly one
        // applied epoch, which is what lets replay assert epoch continuity.
        if let Some(bad) = batch.iter().find(|a| !a.is_ground()) {
            return Err(ServeError::Core(CoreError::NonGroundAtom(bad.to_string())));
        }
        let text = render_batch(&batch);
        let recorder = self.state.recorder().clone();
        {
            let d = self.durable.as_mut().unwrap();
            let bytes = {
                let _t = recorder.phase(Phase::WalAppend);
                d.wal.append(self.epoch + 1, &text).map_err(dur_err)?
            };
            d.stats.wal_appends += 1;
            d.stats.wal_bytes += bytes;
            if d.wal.fsync_due(d.cfg.fsync) {
                let _t = recorder.phase(Phase::WalFsync);
                d.wal.fsync().map_err(dur_err)?;
                d.stats.wal_fsyncs += 1;
            }
        }
        let out = self.apply_inner(batch)?;
        self.maybe_snapshot();
        Ok(out)
    }

    /// The in-memory apply: the whole of a non-durable [`ChaseSession::apply`],
    /// and the part of a durable one that runs *after* the write-ahead
    /// append — which is exactly why WAL replay goes through it.
    fn apply_inner(
        &mut self,
        batch: impl IntoIterator<Item = Atom>,
    ) -> Result<ChaseOutcome, ServeError> {
        if let Some(r) = self.state.poisoned() {
            return Err(ServeError::Poisoned(r.clone()));
        }
        let set = &self.rewrites.store.set;
        let added = self.state.insert_batch(set, &self.cfg.chase, batch)?;
        let out = chase_resume(&mut self.state, set, &self.cfg.chase);
        self.epoch += 1;
        self.last_reason = Some(out.reason.clone());
        Ok(ChaseOutcome {
            reason: out.reason,
            steps: out.steps,
            fresh_nulls: out.fresh_nulls,
            new_facts: added.len(),
            total_facts: self.state.instance().len(),
            epoch: self.epoch,
        })
    }

    /// Answer a conjunctive query against the chased instance — the single
    /// query entry point. Pass `&q` for the defaults (certain answers,
    /// `chase-sqo` routing on) or `(&q, opts)` to select the full
    /// evaluation or disable rewriting; see [`QuerySpec`] and [`QueryOpts`].
    ///
    /// By default the result is the *certain-answer* projection: answer
    /// tuples free of labeled nulls, sorted and deduplicated. With
    /// [`QueryOpts::all_tuples`] tuples containing labeled nulls are kept
    /// (the full evaluation).
    ///
    /// Pending work (a freshly seeded session, or a previous budget stop)
    /// is chased first, so queries always see the most-chased state. When
    /// the session is quiescent the result is exactly the certain answers
    /// of the accumulated base facts under Σ; after a budget stop the
    /// result is still *sound* (every returned tuple is a certain answer)
    /// but may be incomplete.
    ///
    /// With [`QueryOpts::sqo`] *and* [`SessionConfig::use_sqo`] (both
    /// default), evaluation on a quiescent instance is routed through
    /// `chase-sqo`: if a strictly smaller Σ-equivalent rewriting of the
    /// query exists, the rewriting is evaluated instead — same answers
    /// (the instance satisfies Σ), fewer joins. Decisions are cached per
    /// query text, in a cache the session's forks and snapshots share.
    ///
    /// # Errors
    /// [`ServeError::Poisoned`] on a failed/aborted session.
    pub fn query<'q>(
        &mut self,
        spec: impl Into<QuerySpec<'q>>,
    ) -> Result<Vec<Vec<Term>>, ServeError> {
        let QuerySpec { q, opts } = spec.into();
        self.quiesce()?;
        // A non-quiescent instance (after a budget stop) need not satisfy
        // Σ, and Σ-equivalent rewritings only agree on instances that do.
        let sqo = opts.sqo && self.state.quiescent();
        Ok(self
            .rewrites
            .answer(q, QueryOpts { sqo, ..opts }, self.state.instance()))
    }

    /// Chase pending work before answering (no-op when quiescent).
    fn quiesce(&mut self) -> Result<(), ServeError> {
        if let Some(r) = self.state.poisoned() {
            return Err(ServeError::Poisoned(r.clone()));
        }
        if !self.state.quiescent() {
            let out = chase_resume(&mut self.state, &self.rewrites.store.set, &self.cfg.chase);
            self.last_reason = Some(out.reason.clone());
            if let Some(r) = self.state.poisoned() {
                return Err(ServeError::Poisoned(r.clone()));
            }
        }
        Ok(())
    }

    /// The rewriting cache the session, its forks and snapshots share.
    pub(crate) fn rewrite_cache(&self) -> &Arc<RewriteCache> {
        &self.rewrites
    }

    /// Read and fill the rewriting decisions of every other session
    /// registered in `stores` under an equal Σ and rewriting policy,
    /// instead of a private cache. Decisions depend on nothing else, so
    /// answers cannot change; only first sights are saved.
    ///
    /// # Panics
    /// Panics if the cache is already shared (with a fork, a snapshot, or
    /// a handle) or holds a decision: switching it then would split what
    /// they see.
    pub(crate) fn share_rewrites(&mut self, stores: &RewriteStores) {
        assert!(
            Arc::strong_count(&self.rewrites) == 1 && self.rewrites.len() == 0,
            "a session joins a shared rewrite store before anything reads its cache"
        );
        self.rewrites = Arc::new(stores.view(&self.rewrites.store));
    }

    /// The telemetry recorder the session's engine reports into. All
    /// snapshots and forks of a session share one recorder (telemetry is
    /// not part of the rewindable state — restoring a snapshot does not
    /// rewind the histograms).
    pub fn recorder(&self) -> &Recorder {
        self.state.recorder()
    }

    /// The session's metrics as a mergeable registry snapshot: per-phase
    /// engine latency histograms (`chase_phase_ns{phase="…"}`), the
    /// headline counters from [`ChaseSession::stats`], the durability
    /// counters of a durable session (`chase_wal_*`, `chase_snapshot*`) and
    /// the rewrite cache's size. The conductor exports every open session
    /// through the same code and merges them into the server-wide
    /// exposition.
    ///
    /// ```
    /// use chase_core::{ConstraintSet, Instance};
    /// use chase_serve::ChaseSession;
    ///
    /// let mut s = ChaseSession::new(ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap());
    /// s.apply(Instance::parse("E(a,b). E(b,c).").unwrap().atoms()).unwrap();
    /// let snap = s.metrics_snapshot();
    /// assert_eq!(snap.counter("chase_session_epochs_total"), Some(1));
    /// let inserts = snap.histogram("chase_phase_ns{phase=\"insert\"}").unwrap();
    /// assert!(inserts.count() > 0, "the transitive step was timed");
    /// ```
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.series().export(self.recorder(), &self.rewrites)
    }

    /// The session's counter series, copied out for [`SessionSeries::export`].
    pub(crate) fn series(&self) -> SessionSeries {
        SessionSeries {
            stats: self.stats(),
            durability: self.durability(),
        }
    }

    /// Snapshot the full engine state — O(instance + pool), no re-chasing
    /// or recompiling on either side of the copy.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot(self.clone())
    }

    /// Rewind the session to a snapshot (taken from this session or a
    /// fork). The rewriting cache is kept — the constraint set and policy
    /// are asserted equal, so cached decisions stay valid.
    ///
    /// On a **durable** session the on-disk log must be rewound too — it
    /// records batches the restore just abandoned. Restoring re-anchors the
    /// directory: a fresh snapshot of the restored state is written and the
    /// write-ahead log is truncated, so a reopen comes back at the restored
    /// timeline.
    ///
    /// # Panics
    /// Panics if the snapshot was taken under a different constraint set
    /// or session configuration: engine state is indexed by constraint
    /// position and its memos depend on the chase mode, so restoring it
    /// under other semantics would silently corrupt trigger matching.
    /// Panics on a durable *oblivious* session — its chased state cannot be
    /// snapshotted (see [`ChaseSession::persist`]), so the on-disk log
    /// cannot be re-anchored to the restored state — and if re-anchoring
    /// fails, since continuing would let the log diverge from the state.
    pub fn restore(&mut self, snap: &SessionSnapshot) {
        if self.durable.is_some() {
            assert!(
                self.cfg.chase.mode != ChaseMode::Oblivious,
                "restore on a durable oblivious session is unsupported: \
                 its log cannot be re-anchored to the restored state"
            );
        }
        assert!(
            snap.constraints() == self.constraints(),
            "snapshot taken under a different constraint set than this session's"
        );
        assert!(
            snap.0.cfg == self.cfg,
            "snapshot taken under a different session configuration than this session's"
        );
        self.state = snap.0.state.clone();
        self.epoch = snap.0.epoch;
        self.last_reason = snap.0.last_reason.clone();
        if self.durable.is_some() {
            self.snapshot_to_disk()
                .expect("re-anchoring the durable log after restore failed");
        }
    }

    /// Fork the session: an independent session over a copy of the warm
    /// state. Cheap in the same sense as [`ChaseSession::snapshot`]. Forks
    /// of a durable session are in-memory (the log stays with the
    /// original); give a fork its own [`SessionBuilder::durable`] directory
    /// to persist it.
    pub fn fork(&self) -> ChaseSession {
        self.clone()
    }
}

/// Render a batch into the WAL's on-disk text: the fact surface syntax,
/// one `pred(args).` per atom — exactly what [`parse_facts`] reads back
/// at replay. Labeled nulls round-trip (`_n3` ↔ null 3).
fn render_batch(batch: &[Atom]) -> String {
    let mut out = String::new();
    for atom in batch {
        out.push_str(&atom.to_string());
        out.push_str(". ");
    }
    out
}

/// The series a session exports besides its recorder's lock-free sinks:
/// its [`SessionStats`] and, when durable, its [`DurabilityStats`]. The
/// conductor refreshes a copy before a request that can move it returns,
/// so a metrics scrape reads it without locking the session.
#[derive(Debug, Clone)]
pub(crate) struct SessionSeries {
    stats: SessionStats,
    durability: Option<DurabilityStats>,
}

impl SessionSeries {
    /// The one per-session exporter: these counters plus the recorder's
    /// phase histograms and drop count and the rewrite cache's series.
    pub(crate) fn export(&self, rec: &Recorder, rewrites: &RewriteCache) -> RegistrySnapshot {
        let mut snap = RegistrySnapshot::new();
        let stats = &self.stats;
        snap.set_counter("chase_session_epochs_total", stats.epoch);
        snap.set_counter("chase_session_steps_total", stats.total_steps);
        snap.set_counter("chase_session_plan_recompiles_total", stats.plan_recompiles);
        snap.set_counter("chase_session_merge_rewritten_total", stats.merge_rewritten);
        snap.set_counter("chase_session_merge_collapsed_total", stats.merge_collapsed);
        snap.set_gauge("chase_session_facts", stats.total_facts as i64);
        rec.export_phases("chase_phase_ns", &mut snap);
        snap.set_counter("chase_events_dropped_total", rec.events_dropped());
        snap.set_gauge("chase_rewrite_cache_decisions", rewrites.len() as i64);
        snap.set_counter("chase_rewrite_cache_evictions_total", rewrites.evictions());
        let (first_sights, first_sight_ns) = rewrites.first_sights();
        snap.set_counter("chase_rewrite_first_sight_total", first_sights);
        snap.set_counter("chase_rewrite_first_sight_ns_total", first_sight_ns);
        if let Some(d) = &self.durability {
            snap.set_counter("chase_wal_appends_total", d.wal_appends);
            snap.set_counter("chase_wal_bytes_total", d.wal_bytes);
            snap.set_counter("chase_wal_fsyncs_total", d.wal_fsyncs);
            snap.set_counter("chase_wal_replayed_total", d.replayed_records);
            snap.set_counter("chase_wal_truncated_bytes_total", d.truncated_bytes);
            snap.set_counter("chase_snapshots_total", d.snapshots_written);
            snap.set_counter("chase_snapshot_errors_total", d.snapshot_errors);
            snap.set_gauge("chase_snapshot_epoch", d.snapshot_epoch as i64);
        }
        snap
    }
}

/// Rewriting decisions one [`RewriteCache`] view may own, and the size of
/// a conductor's orphan list. A decision costs one universal-plan chase to
/// recompute, so an evicted entry is a slower query, never a wrong one;
/// the cap keeps a tenant that sends endless distinct query texts from
/// growing the cache without bound.
pub(crate) const REWRITE_CACHE_CAP: usize = 1024;

/// `chase-sqo` rewriting decisions keyed by query text: the strictly
/// smaller Σ-equivalent rewriting chosen for a query, or `None` when
/// rewriting is not beneficial (or its chase was cut off). Keyed by
/// client-sent text, so the map keeps the default (collision-resistant)
/// hasher.
type Decisions = HashMap<Arc<str>, Option<ConjunctiveQuery>>;

/// Drop the decision cached under `key` if it is the entry `key` was
/// inserted with (the same allocation), not a later one for the same text.
fn forget(decisions: &mut Decisions, key: &Arc<str>) {
    if decisions
        .get_key_value(&**key)
        .is_some_and(|(cached, _)| Arc::ptr_eq(cached, key))
    {
        decisions.remove(&**key);
    }
}

/// The rewriting decisions under one Σ and one rewriting policy. A
/// decision depends on nothing else — never on a tenant's data — so every
/// session with an equal Σ and policy may share one store: a
/// [`Conductor`](crate::Conductor) shares them through its
/// [`RewriteStores`]. Each session reads and fills its store through a
/// [`RewriteCache`] view of its own.
struct RewriteStore {
    set: ConstraintSet,
    enabled: bool,
    chase: ChaseConfig,
    max_plan_atoms: usize,
    decisions: Mutex<Decisions>,
}

impl RewriteStore {
    /// Would `self` and `other` make the same decision for every query?
    fn decides_like(&self, other: &RewriteStore) -> bool {
        self.enabled == other.enabled
            && self.max_plan_atoms == other.max_plan_atoms
            && self.chase == other.chase
            && self.set == other.set
    }

    /// The decisions. A poisoned lock is recovered (every update is one
    /// map insert or remove), so a view's `Drop` never panics here.
    fn decisions(&self) -> MutexGuard<'_, Decisions> {
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One session's view of a [`RewriteStore`]: shared, through an `Arc`, by
/// everything that answers queries for the session — the session itself,
/// its forks and snapshots, and every conductor handle. A decision the
/// view computes is charged to it: at [`REWRITE_CACHE_CAP`] it evicts its
/// own oldest decision, never one another session computed, so a tenant
/// flooding the store with distinct texts only churns its own share.
pub(crate) struct RewriteCache {
    store: Arc<RewriteStore>,
    /// Where the view's decisions go when it is dropped: its conductor's
    /// orphan list, or nowhere when no other session can reach the store.
    orphans: Option<Arc<Orphans>>,
    /// The decisions this view computed and still owns (their keys in the
    /// store), oldest first.
    owned: Mutex<VecDeque<Arc<str>>>,
    /// Owned decisions dropped to stay within [`REWRITE_CACHE_CAP`].
    evictions: AtomicU64,
    /// Decisions computed (misses in the store), and the nanoseconds they
    /// took.
    first_sights: AtomicU64,
    first_sight_ns: AtomicU64,
}

impl RewriteCache {
    /// A session's private view, on a store of its own.
    fn new(set: ConstraintSet, cfg: &SessionConfig) -> RewriteCache {
        let store = RewriteStore {
            set,
            enabled: cfg.use_sqo,
            chase: cfg.sqo_chase.clone(),
            max_plan_atoms: cfg.sqo_max_plan_atoms,
            decisions: Mutex::default(),
        };
        RewriteCache::on(Arc::new(store), None)
    }

    fn on(store: Arc<RewriteStore>, orphans: Option<Arc<Orphans>>) -> RewriteCache {
        RewriteCache {
            store,
            orphans,
            owned: Mutex::default(),
            evictions: AtomicU64::new(0),
            first_sights: AtomicU64::new(0),
            first_sight_ns: AtomicU64::new(0),
        }
    }

    /// The rewriting to evaluate instead of `q`, computed and cached on
    /// first sight; `None` = evaluate `q` itself. Only sound on instances
    /// that satisfy Σ (callers check quiescence).
    pub(crate) fn rewrite(&self, q: &ConjunctiveQuery) -> Option<ConjunctiveQuery> {
        let store = &*self.store;
        if !store.enabled {
            return None;
        }
        let key = q.to_string();
        if let Some(hit) = store.decisions().get(key.as_str()) {
            return hit.clone();
        }
        // Computed without the lock: a first sight runs a chase, and reads
        // of other queries must not queue behind it. Racing computations
        // of one key agree, so the first insert stands (and both count).
        let started = Instant::now();
        let choice = choose_rewriting(q, &store.set, &store.chase, store.max_plan_atoms);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.first_sights.fetch_add(1, Ordering::Relaxed);
        self.first_sight_ns.fetch_add(ns, Ordering::Relaxed);
        let mut decisions = store.decisions();
        if !decisions.contains_key(key.as_str()) {
            let mut owned = self.owned();
            if owned.len() >= REWRITE_CACHE_CAP {
                if let Some(victim) = owned.pop_front() {
                    forget(&mut decisions, &victim);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            let key: Arc<str> = key.into();
            decisions.insert(Arc::clone(&key), choice.clone());
            owned.push_back(key);
        }
        choice
    }

    /// Answer `q` on `instance` as `opts` asks: through its cached
    /// rewriting when `opts.sqo`, else as written. The one query-answering
    /// path of a session and of a handle's snapshot read; callers pass
    /// `sqo` only for an instance that satisfies Σ.
    pub(crate) fn answer(
        &self,
        q: &ConjunctiveQuery,
        opts: QueryOpts,
        instance: &Instance,
    ) -> Vec<Vec<Term>> {
        let target = if opts.sqo { self.rewrite(q) } else { None };
        let target = target.as_ref().unwrap_or(q);
        if opts.all {
            target.evaluate(instance)
        } else {
            target.evaluate_certain(instance)
        }
    }

    fn owned(&self) -> MutexGuard<'_, VecDeque<Arc<str>>> {
        self.owned
            .lock()
            .expect("no code panics while holding a rewrite view's lock")
    }

    /// Decisions this view owns (computed, and not yet evicted).
    pub(crate) fn len(&self) -> usize {
        self.owned().len()
    }

    /// Owned decisions evicted so far to stay within [`REWRITE_CACHE_CAP`].
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Decisions this view computed so far (every miss in the store,
    /// unsampled), and their total wall time in nanoseconds.
    pub(crate) fn first_sights(&self) -> (u64, u64) {
        (
            self.first_sights.load(Ordering::Relaxed),
            self.first_sight_ns.load(Ordering::Relaxed),
        )
    }
}

impl Drop for RewriteCache {
    /// A closed session's decisions stay in the store, as orphans, for the
    /// sessions still open on it.
    fn drop(&mut self) {
        if let Some(orphans) = &self.orphans {
            let owned = self.owned.get_mut().unwrap_or_else(PoisonError::into_inner);
            orphans.adopt(&self.store, std::mem::take(owned));
        }
    }
}

/// A closed session's decision kept in its store.
struct Orphan {
    store: Weak<RewriteStore>,
    key: Arc<str>,
}

/// The decisions of closed sessions, across every store of one conductor:
/// at most [`REWRITE_CACHE_CAP`], the oldest dropped first. With each open
/// session owning at most the cap, a conductor's stores hold at most
/// `REWRITE_CACHE_CAP × (open sessions + 1)` decisions.
#[derive(Default)]
struct Orphans(Mutex<VecDeque<Orphan>>);

impl Orphans {
    /// The list, less the orphans of stores no session views any more
    /// (those were freed with their store). A poisoned lock is recovered
    /// (the list is valid after every step), so a view's `Drop` never
    /// panics here.
    fn live(&self) -> MutexGuard<'_, VecDeque<Orphan>> {
        let mut list = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        list.retain(|o| o.store.strong_count() > 0);
        list
    }

    /// Take over a dropped view's decisions in `store`, then drop the
    /// oldest orphans past the cap.
    fn adopt(&self, store: &Arc<RewriteStore>, owned: VecDeque<Arc<str>>) {
        if owned.is_empty() {
            return;
        }
        let evicted: Vec<Orphan> = {
            let mut list = self.live();
            list.extend(owned.into_iter().map(|key| Orphan {
                store: Arc::downgrade(store),
                key,
            }));
            let excess = list.len().saturating_sub(REWRITE_CACHE_CAP);
            list.drain(..excess).collect()
        };
        // Outside the list's lock: a store's lock is never taken under it.
        for o in evicted {
            if let Some(store) = o.store.upgrade() {
                forget(&mut store.decisions(), &o.key);
            }
        }
    }

    /// Orphaned decisions held right now.
    fn len(&self) -> usize {
        self.live().len()
    }
}

/// A conductor's registry of [`RewriteStore`]s: one per (Σ, rewriting
/// policy) among its sessions, held weakly — a store lives exactly as long
/// as some session views it — plus the orphan list they share.
#[derive(Default)]
pub(crate) struct RewriteStores {
    stores: Mutex<Vec<Weak<RewriteStore>>>,
    orphans: Arc<Orphans>,
}

impl RewriteStores {
    /// A view on the live store that decides like `mine`, or on `mine`
    /// itself, registered, when none does.
    fn view(&self, mine: &Arc<RewriteStore>) -> RewriteCache {
        let mut stores = self.stores();
        let found = stores
            .iter()
            .filter_map(Weak::upgrade)
            .find(|s| s.decides_like(mine));
        let store = found.unwrap_or_else(|| {
            stores.push(Arc::downgrade(mine));
            Arc::clone(mine)
        });
        RewriteCache::on(store, Some(Arc::clone(&self.orphans)))
    }

    /// The registry, pruned of stores no session views any more.
    fn stores(&self) -> MutexGuard<'_, Vec<Weak<RewriteStore>>> {
        let mut stores = self
            .stores
            .lock()
            .expect("no code panics while holding the rewrite registry lock");
        stores.retain(|w| w.strong_count() > 0);
        stores
    }

    /// Stores alive right now.
    pub(crate) fn len(&self) -> usize {
        self.stores().len()
    }

    /// Decisions of closed sessions still held for the open ones.
    pub(crate) fn orphans(&self) -> usize {
        self.orphans.len()
    }
}

/// The `chase-sqo` rewriting choice for `q` under `set`: the first minimal
/// rewriting when it is a *strict* shrink of the body, `None` otherwise
/// (or when the rewriting chase was cut off).
fn choose_rewriting(
    q: &ConjunctiveQuery,
    set: &ConstraintSet,
    chase: &ChaseConfig,
    max_plan_atoms: usize,
) -> Option<ConjunctiveQuery> {
    minimal_rewritings(q, set, chase, max_plan_atoms)
        .ok()
        .and_then(|v| v.into_iter().next())
        .filter(|r| r.body().len() < q.body().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_engine::chase;

    fn atoms(text: &str) -> Vec<Atom> {
        Instance::parse(text).unwrap().atoms()
    }

    #[test]
    fn session_chases_batches_incrementally() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut s = ChaseSession::new(set.clone());
        let o1 = s.apply(atoms("E(a,b). E(b,c).")).unwrap();
        assert_eq!(o1.reason, StopReason::Satisfied);
        assert_eq!(o1.epoch, 1);
        let o2 = s.apply(atoms("E(c,d).")).unwrap();
        assert_eq!(o2.new_facts, 1);
        assert!(s.stats().quiescent);
        // Same final instance as chasing the union from scratch (null-free
        // and confluent here, so equality outright).
        let union = Instance::parse("E(a,b). E(b,c). E(c,d).").unwrap();
        let scratch = chase(&union, &set, &ChaseConfig::default());
        assert_eq!(s.instance(), &scratch.instance);
    }

    #[test]
    fn empty_and_duplicate_batches_do_no_work() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("E(a,b). E(b,c). E(c,d).")).unwrap();
        let stats_epoch = s.instance().stats_epoch();
        let recompiles = s.stats().plan_recompiles;
        let facts = s.instance().len();

        let empty = s.apply(Vec::new()).unwrap();
        assert_eq!(empty.reason, StopReason::Satisfied);
        assert_eq!((empty.steps, empty.new_facts), (0, 0));

        // A batch that only duplicates existing facts (base and derived).
        let dup = s.apply(atoms("E(a,b). E(a,c).")).unwrap();
        assert_eq!((dup.steps, dup.new_facts), (0, 0));
        assert_eq!(dup.total_facts, facts);
        assert_eq!(
            s.instance().stats_epoch(),
            stats_epoch,
            "duplicates must not advance the statistics epoch"
        );
        assert_eq!(
            s.stats().plan_recompiles,
            recompiles,
            "duplicates must not recompile plans"
        );
        assert_eq!(s.stats().epoch, 3, "epochs still count the batches");
    }

    #[test]
    fn batch_after_monitor_abort_is_refused() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
        let cfg = SessionConfig {
            chase: ChaseConfig::with_monitor_depth(3),
            ..SessionConfig::default()
        };
        let mut s = ChaseSession::with_config(set, cfg);
        let out = s.apply(atoms("S(a).")).unwrap();
        assert_eq!(out.reason, StopReason::MonitorAbort { depth: 3 });
        assert_eq!(s.poisoned(), Some(&StopReason::MonitorAbort { depth: 3 }));
        let err = s.apply(atoms("S(b).")).unwrap_err();
        assert_eq!(
            err,
            ServeError::Poisoned(StopReason::MonitorAbort { depth: 3 })
        );
        let q = ConjunctiveQuery::parse("q(X) <- S(X)").unwrap();
        assert!(matches!(s.query(&q), Err(ServeError::Poisoned(_))));
    }

    #[test]
    fn egd_failure_poisons_and_snapshot_recovers() {
        let set = ConstraintSet::parse("E(X,Y), E(X,Z) -> Y = Z").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("E(a,b).")).unwrap();
        let snap = s.snapshot();
        let out = s.apply(atoms("E(a,c).")).unwrap();
        assert_eq!(out.reason, StopReason::Failed);
        assert!(matches!(s.apply(Vec::new()), Err(ServeError::Poisoned(_))));
        // Rewind before the failing batch and continue on a compatible one.
        s.restore(&snap);
        assert!(s.poisoned().is_none());
        let ok = s.apply(atoms("E(a,b). E(d,e).")).unwrap();
        assert_eq!(ok.reason, StopReason::Satisfied);
        assert_eq!(ok.new_facts, 1);
    }

    #[test]
    fn non_ground_batch_is_rejected_atomically() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("E(a,b).")).unwrap();
        let facts = s.instance().len();
        let bad = vec![
            Atom::new("E", vec![Term::constant("b"), Term::constant("c")]),
            Atom::new("E", vec![Term::var("X"), Term::constant("c")]),
        ];
        assert!(matches!(s.apply(bad), Err(ServeError::Core(_))));
        assert_eq!(s.instance().len(), facts, "batch must not half-apply");
        assert_eq!(s.stats().epoch, 1, "rejected batches are not epochs");
    }

    #[test]
    fn snapshot_restore_round_trips_the_columnar_store() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)\nE(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("S(a). S(b). E(a,b).")).unwrap();
        let snap = s.snapshot();
        let frozen = s.instance().clone();
        // Diverge, then rewind.
        s.apply(atoms("S(c). E(b,c).")).unwrap();
        assert_ne!(s.instance(), &frozen);
        s.restore(&snap);
        assert_eq!(s.instance(), snap.instance());
        assert_eq!(s.instance(), &frozen);
        assert_eq!(s.stats().epoch, snap.stats().epoch);
        // The restored timeline replays identically to a fork that never
        // diverged — pool and memo state came back with the snapshot.
        let mut fork = s.fork();
        let a = s.apply(atoms("S(c). E(b,c).")).unwrap();
        let b = fork.apply(atoms("S(c). E(b,c).")).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fresh_nulls, b.fresh_nulls);
        assert_eq!(s.instance(), fork.instance());
    }

    #[test]
    fn merge_counters_accumulate_and_rewind_with_snapshots() {
        // F is a key: S(X) invents a null value, a later ground F collapses
        // it away. The session-level counters expose the merge deltas.
        let set = ConstraintSet::parse("S(X) -> F(X,Y)\nF(X,Y), F(X,Z) -> Y = Z").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("S(a). G(a,b).")).unwrap(); // invents F(a,_n0)
        assert_eq!(
            (s.stats().merge_rewritten, s.stats().merge_collapsed),
            (0, 0)
        );
        let snap = s.snapshot();
        // F(a,b) arrives: the EGD merges _n0 → b and F(a,_n0) collapses
        // onto the freshly inserted duplicate.
        s.apply(atoms("F(a,b).")).unwrap();
        assert!(s.stats().quiescent);
        assert_eq!(
            s.stats().merge_collapsed,
            1,
            "F(a,_n0) collapsed onto F(a,b) during the merge"
        );
        let after = (s.stats().merge_rewritten, s.stats().merge_collapsed);
        s.restore(&snap);
        assert_eq!(
            (s.stats().merge_rewritten, s.stats().merge_collapsed),
            (0, 0),
            "snapshots carry the merge counters"
        );
        s.apply(atoms("F(a,b).")).unwrap();
        assert_eq!(
            (s.stats().merge_rewritten, s.stats().merge_collapsed),
            after
        );
    }

    #[test]
    #[should_panic(expected = "different constraint set")]
    fn restoring_a_foreign_snapshot_panics() {
        let mut a = ChaseSession::new(ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap());
        let b = ChaseSession::new(ConstraintSet::parse("S(X) -> T(X)").unwrap());
        a.restore(&b.snapshot());
    }

    #[test]
    #[should_panic(expected = "different session configuration")]
    fn restoring_a_snapshot_with_other_config_panics() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let a = ChaseSession::new(set.clone());
        let mut b = ChaseSession::with_config(
            set,
            SessionConfig {
                use_sqo: false,
                ..SessionConfig::default()
            },
        );
        b.restore(&a.snapshot());
    }

    #[test]
    fn query_answers_match_direct_evaluation_with_and_without_sqo() {
        // Rail symmetry: the two-atom query rewrites to one atom.
        let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- rail(c,X,D), rail(X,c,D)").unwrap();
        let data = "rail(c,u,d1). rail(u,v,d2). rail(c,w,d1).";
        let mk = |use_sqo: bool| {
            let cfg = SessionConfig {
                use_sqo,
                ..SessionConfig::default()
            };
            ChaseSession::with_config(set.clone(), cfg)
        };
        let mut with_sqo = mk(true);
        let mut without = mk(false);
        with_sqo.apply(atoms(data)).unwrap();
        without.apply(atoms(data)).unwrap();
        let a = with_sqo.query(&q).unwrap();
        let b = without.query(&q).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2); // u and w
                                // The rewriting decision was cached and is a strict shrink.
        let cached = with_sqo.rewrites.store.decisions()[q.to_string().as_str()].clone();
        assert_eq!(cached.unwrap().body().len(), 1);
        // Second query hits the cache (no way to observe the chase from
        // here, but the cached entry must be stable).
        assert_eq!(with_sqo.query(&q).unwrap(), a);
    }

    #[test]
    fn only_an_equal_sigma_and_policy_share_a_rewrite_store() {
        let stores = RewriteStores::default();
        let joined = |text: &str, cfg: SessionConfig| {
            let mut s = ChaseSession::with_config(ConstraintSet::parse(text).unwrap(), cfg);
            s.share_rewrites(&stores);
            s
        };
        let shares =
            |x: &ChaseSession, y: &ChaseSession| Arc::ptr_eq(&x.rewrites.store, &y.rewrites.store);
        let travel =
            "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";
        let a = joined(travel, SessionConfig::default());
        // An equal set, written differently.
        let b = joined(
            "fly(C1,C2,D)->hasAirport(C1),hasAirport(C2);rail(C1,C2,D)->rail(C2,C1,D)",
            SessionConfig::default(),
        );
        assert!(shares(&a, &b));
        // The same constraints in another order are another set (engine
        // state is indexed by position), and a policy field apart is
        // another policy.
        let others = [
            joined(
                "rail(C1,C2,D) -> rail(C2,C1,D); fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)",
                SessionConfig::default(),
            ),
            joined(
                travel,
                SessionConfig {
                    sqo_max_plan_atoms: 6,
                    ..SessionConfig::default()
                },
            ),
            joined(
                travel,
                SessionConfig {
                    sqo_chase: ChaseConfig::with_max_steps(50),
                    ..SessionConfig::default()
                },
            ),
            joined(
                travel,
                SessionConfig {
                    use_sqo: false,
                    ..SessionConfig::default()
                },
            ),
        ];
        for other in &others {
            assert!(!shares(&a, other));
        }
        assert_eq!(stores.len(), 5);
        // A fork shares the session's view; a store lives while any
        // session views it.
        let fork = a.fork();
        drop((a, b, others));
        assert_eq!(stores.len(), 1);
        drop(fork);
        assert_eq!(stores.len(), 0);
    }

    #[test]
    fn query_on_a_seeded_session_chases_first() {
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let inst = Instance::parse("E(a,b). E(b,c).").unwrap();
        let mut s = ChaseSession::builder(set).instance(&inst).build();
        assert!(!s.stats().quiescent);
        let q = ConjunctiveQuery::parse("q(X) <- E(a,X)").unwrap();
        let ans = s.query(&q).unwrap();
        assert_eq!(ans.len(), 2, "query sees the chased closure");
        assert!(s.stats().quiescent);
    }

    #[test]
    fn certain_answers_drop_null_tuples() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let mut s = ChaseSession::new(set);
        s.apply(atoms("S(a). E(a,b).")).unwrap();
        s.apply(atoms("S(c).")).unwrap(); // invents E(c, _null)
        let q = ConjunctiveQuery::parse("q(X,Y) <- E(X,Y)").unwrap();
        let certain = s.query(&q).unwrap();
        assert_eq!(
            certain,
            vec![vec![Term::constant("a"), Term::constant("b")]]
        );
        let all = s.query((&q, QueryOpts::all_tuples())).unwrap();
        assert_eq!(all.len(), 2);
    }
}
