//! The multi-tenant session runtime: sessions behind one lock each,
//! fronted by a [`Conductor`] that creates, routes, admits and evicts
//! sessions.
//!
//! ## One lock per session
//!
//! Every open session owns a [`ChaseSession`] — warm trigger pool, plan
//! cache and all — behind one mutex. A [`SessionHandle`] request that needs
//! the engine (apply, snapshot, restore, stats, persist, and a query the
//! published snapshot cannot answer) takes that lock and runs **on the
//! calling thread**; in the server that is the connection's thread. A chase
//! run is one sequence of steps over one instance, so a session only needs
//! its requests not to interleave, and the lock gives exactly that. Sessions
//! share no lock, so tenants run in parallel up to the number of callers,
//! and an idle session costs a map entry, not a thread.
//!
//! ## Concurrent reads during an in-flight apply
//!
//! After every mutating request the session *publishes* an
//! `Arc<`[`Instance`]`>` snapshot of the chased instance — but only when
//! [`Instance::version`] actually moved, so duplicate-only batches never
//! touch it (**copy-on-read**: readers share the published `Arc`). A TGD
//! step only appends facts, so when no reader holds the snapshot and no
//! EGD merged since the last publish, the snapshot is caught up in place
//! with the facts appended since ([`Instance::catch_up`], O(delta)).
//! Only when a reader still holds it, a merge rewrote terms, or a restore
//! switched lineage is a full clone published instead (counted in
//! `chase_snapshot_publish_cloned_total`), and the retired snapshot dropped
//! outside the snapshot lock. [`SessionHandle::query`] evaluates against
//! that published snapshot without taking the session lock whenever it is
//! quiescent, so a certain-answer read admitted while a large apply holds
//! the lock returns immediately with exactly the pre-batch state — it never
//! queues behind the write. Publication happens *before* the apply returns,
//! so a client that saw its apply acknowledged is guaranteed to read its
//! own writes. Both read paths route through the session's one rewriting
//! cache, so they rewrite a query identically; sessions on an equal Σ and
//! rewriting policy share that cache's decisions, so each query text pays
//! its first-sight rewriting once per Σ.
//!
//! ## Eviction
//!
//! With [`ConductorConfig::evict_after`] set, a janitor thread tears down
//! sessions idle past the TTL, oldest-touch first in effect: **durable**
//! sessions [`ChaseSession::persist`] *before* they become restorable and
//! transparently warm-restart from their `durable_root` directory at the
//! next [`Conductor::route`]; **non-durable** sessions lose their state and
//! later touches fail with [`ServeError::Evicted`]. A session whose lock is
//! held (a request in flight) is never evicted. The persist, and a
//! route-time restore's decode and replay, run outside the sessions lock,
//! so other tenants keep routing and opening meanwhile; routes of the same
//! id wait for that one persist or restore. A restore holds a slot under
//! the session cap while it runs (`chase_sessions_restoring`).
//!
//! ## Panic containment
//!
//! A panic inside a request is caught on the calling thread. The lock guard
//! is held outside the unwind boundary, so the panic poisons the session,
//! not the mutex: the session is marked dead (later requests answer
//! [`ServeError::SessionGone`], and so does the one that panicked), its
//! read surface is poisoned (reads fail with [`ServeError::Poisoned`]), and
//! `chase_session_panics_total` counts it. Every other session keeps
//! serving.
//!
//! ## Admission
//!
//! The conductor enforces a **global session cap** (admission fails with
//! [`ServeError::Capacity`]) and clamps every admitted session's chase
//! budget to the configured **per-session step budget**, so one runaway
//! tenant can neither starve the machine nor chase unboundedly.

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use chase_core::{Atom, ConjunctiveQuery, ConstraintSet, Instance, Term};
use chase_engine::{ChaseMode, StopReason};
use chase_obs::{
    Counter, EventKind, Gauge, Histogram, MetricsRegistry, Recorder, RegistrySnapshot,
};

use crate::session::{
    ChaseOutcome, ChaseSession, DecodedSession, QueryOpts, RewriteCache, RewriteStores, ServeError,
    SessionConfig, SessionSeries, SessionSnapshot, SessionStats,
};
use crate::wal::{self, DurabilityConfig};

/// Admission, durability and eviction policy for a [`Conductor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConductorConfig {
    /// Global cap on concurrently open sessions.
    pub max_sessions: usize,
    /// Per-session chase step budget. Every admitted session's
    /// `chase.max_steps` is clamped to at most this, whatever the session
    /// template asks for.
    pub step_budget: Option<usize>,
    /// Session template: configuration every admitted session starts from.
    pub session: SessionConfig,
    /// Make sessions durable under this root: each admitted session logs
    /// to `<root>/session-<id>` and [`Conductor::new`] **warm-restarts**
    /// every session directory it finds there (same ids, snapshot loaded,
    /// WAL-since-snapshot replayed). `None` (the default) keeps every
    /// session in memory.
    pub durable_root: Option<PathBuf>,
    /// Fsync policy and snapshot-compaction thresholds for durable
    /// sessions (ignored without [`ConductorConfig::durable_root`]).
    pub durability: DurabilityConfig,
    /// Evict sessions idle (no request or route) for at least this long.
    /// Durable sessions persist first and warm-restart transparently on
    /// the next touch; non-durable sessions are discarded and answer
    /// [`ServeError::Evicted`] thereafter. `None` (default) never evicts.
    pub evict_after: Option<Duration>,
    /// Server-side snapshots ([`SessionHandle::snapshot`]) one session may
    /// hold; each is a full copy of its state. Past the cap a snapshot
    /// request fails with [`ServeError::SnapshotCapacity`], counted in
    /// `chase_snapshot_requests_rejected_total`, and the snapshots already
    /// held stay restorable.
    pub max_snapshots: usize,
}

impl Default for ConductorConfig {
    fn default() -> ConductorConfig {
        ConductorConfig {
            max_sessions: 64,
            step_budget: Some(100_000),
            session: SessionConfig::default(),
            durable_root: None,
            durability: DurabilityConfig::default(),
            evict_after: None,
            max_snapshots: 64,
        }
    }
}

/// Series names in the conductor-wide registry (see [`Conductor::metrics`]).
const M_SESSIONS_OPEN: &str = "chase_sessions_open";
const M_SESSIONS_PEAK: &str = "chase_sessions_peak";
const M_SESSIONS_OPENED: &str = "chase_sessions_opened_total";
const M_SESSIONS_REJECTED: &str = "chase_sessions_rejected_total";
const M_APPLY_NS: &str = "chase_apply_ns";
const M_QUERY_NS: &str = "chase_query_ns";
const M_PUBLISH: &str = "chase_snapshot_publish_total";
const M_PUBLISH_SKIPPED: &str = "chase_snapshot_publish_skipped_total";
const M_PUBLISH_CLONED: &str = "chase_snapshot_publish_cloned_total";
const M_SESSIONS_REOPENED: &str = "chase_sessions_reopened_total";
const M_REOPEN_FAILED: &str = "chase_sessions_reopen_failed_total";
const M_WARM_RESTART_NS: &str = "chase_warm_restart_ns";
const M_SESSIONS_RESTORING: &str = "chase_sessions_restoring";
const M_SESSION_PANICS: &str = "chase_session_panics_total";
const M_EVICTIONS: &str = "chase_evictions_total";
const M_EVICTIONS_RESTORED: &str = "chase_evictions_restored_total";
const M_SNAPSHOTS_REJECTED: &str = "chase_snapshot_requests_rejected_total";
const M_REWRITE_CACHES: &str = "chase_rewrite_caches";
const M_REWRITE_ORPHANS: &str = "chase_rewrite_cache_orphans";
const M_REWRITE_DECISIONS: &str = "chase_rewrite_cache_decisions";

const SERIES_LOCK: &str = "no code panics while holding the series lock";

/// Handles into the conductor-wide [`MetricsRegistry`] plus the session's
/// engine recorder, shared by every [`SessionHandle`] clone. All fields are
/// cheap-to-clone views onto conductor-owned series — per-session work
/// lands in the server-wide aggregate without extra locking.
struct HandleMetrics {
    /// Blocking-apply latency (lock wait → chased → published).
    apply_ns: Arc<Histogram>,
    /// Query latency, snapshot path and locked path alike.
    query_ns: Arc<Histogram>,
    /// Snapshot publications that moved the published state (caught up in
    /// place or replaced by a clone).
    publishes: Counter,
    /// Publications filtered out by the version compare (the other half of
    /// the republish ratio).
    publish_skipped: Counter,
    /// Publications that replaced the snapshot by a full clone instead of
    /// catching it up in place.
    publish_cloned: Counter,
    /// Snapshot requests refused by the per-session snapshot cap.
    snapshots_rejected: Counter,
    /// Requests that panicked (each one killed its session).
    panics: Counter,
    /// The session's engine recorder (phase histograms + event ring),
    /// readable without taking the session lock.
    recorder: Recorder,
}

/// One published state: an immutable chased instance plus the flags a
/// reader needs to decide whether it may answer from it.
#[derive(Clone)]
struct Published {
    /// The chased instance readers evaluate against.
    instance: Arc<Instance>,
    /// [`Instance::version`] at publication — the republish filter.
    version: u64,
    /// Was the session quiescent (fully chased, unpoisoned) when this was
    /// published? Only quiescent snapshots may answer queries locally.
    quiescent: bool,
    /// Terminal stop, if the session is poisoned.
    poisoned: Option<StopReason>,
}

/// What the session owns besides its read surface: the engine state and
/// the server-side snapshot store, guarded by the session's one lock.
struct SessionCore {
    session: ChaseSession,
    /// At most [`ConductorConfig::max_snapshots`] entries.
    snapshots: HashMap<u64, SessionSnapshot>,
    max_snapshots: usize,
    next_snapshot: u64,
}

/// One session: core + read surface + idle clock. The read surface
/// (`metrics`, `published`, `rewrites`) is what handles touch without
/// taking the core lock.
struct SessionCell {
    core: Mutex<SessionCore>,
    /// Set by close, eviction and a panic; requests then answer
    /// [`ServeError::SessionGone`].
    dead: AtomicBool,
    /// Conductor-wide metric handles this session reports into.
    metrics: HandleMetrics,
    /// The latest published snapshot.
    published: RwLock<Published>,
    /// The session's counter series, refreshed under the core lock before a
    /// request that can move them returns — what a scrape exports instead
    /// of locking `core`.
    series: Mutex<SessionSeries>,
    /// The session's rewriting cache, shared with its [`ChaseSession`] so
    /// the snapshot read path and the locked path rewrite identically.
    rewrites: Arc<RewriteCache>,
    /// Was this session durable when admitted (decides the eviction path).
    durable: bool,
    /// Zero point of `last_touch`: the conductor's start.
    epoch: Instant,
    /// Milliseconds since `epoch` at the last touch (request or route) —
    /// the eviction clock.
    last_touch: AtomicU64,
}

/// A clonable address of one session. All methods are `&self`; clones
/// address the same session.
#[derive(Clone)]
pub struct SessionHandle {
    cell: Arc<SessionCell>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle").finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// Reset the session's idle clock (routing counts as a touch).
    fn touch(&self) {
        let now = self.cell.epoch.elapsed().as_millis() as u64;
        self.cell.last_touch.store(now, Ordering::Relaxed);
    }

    /// Run one request against the session's core on the calling thread,
    /// under the session's one lock. A dead session (closed, evicted or
    /// panicked) answers [`ServeError::SessionGone`]. The guard is taken
    /// outside `catch_unwind`, so a panic in `f` poisons the session, not
    /// the mutex: the session is marked dead, its reads fail with
    /// [`ServeError::Poisoned`], and `chase_session_panics_total` counts it.
    fn locked<T>(
        &self,
        f: impl FnOnce(&mut SessionCore, &SessionCell) -> T,
    ) -> Result<T, ServeError> {
        self.touch();
        let cell = &*self.cell;
        // Only a panic that escaped after `dead` was set can poison the
        // lock, so a recovered guard is never used past the check below.
        let mut core = cell.core.lock().unwrap_or_else(PoisonError::into_inner);
        if cell.dead.load(Ordering::Acquire) {
            return Err(ServeError::SessionGone);
        }
        std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut core, cell))).map_err(|_| {
            cell.dead.store(true, Ordering::Release);
            cell.metrics.panics.inc();
            cell.published.write().unwrap().poisoned = Some(StopReason::Failed);
            ServeError::SessionGone
        })
    }

    /// Apply an update batch on the calling thread, returning once the warm
    /// re-chase has finished and its snapshot is published. Queries from
    /// other threads meanwhile are answered from the pre-batch snapshot.
    pub fn apply(&self, batch: Vec<Atom>) -> Result<ChaseOutcome, ServeError> {
        let t0 = Instant::now();
        let out = self.locked(|core, cell| {
            let out = core.session.apply(batch);
            // Publish before returning: once the caller sees the ack it is
            // guaranteed to read its own writes from the snapshot.
            publish(&core.session, cell, false);
            out
        })?;
        self.cell.metrics.apply_ns.record_duration(t0.elapsed());
        out
    }

    /// Answer a conjunctive query. When the published snapshot is
    /// quiescent this evaluates against that snapshot without taking the
    /// session lock — concurrent with any in-flight apply, which it does
    /// not wait for. Otherwise (mid-budget stop pending, or nothing
    /// published yet after a restore) it takes the lock and quiesces
    /// first, exactly like [`ChaseSession::query`].
    pub fn query(
        &self,
        q: &ConjunctiveQuery,
        opts: QueryOpts,
    ) -> Result<Vec<Vec<Term>>, ServeError> {
        let t0 = Instant::now();
        let out = self.query_inner(q, opts);
        self.cell.metrics.query_ns.record_duration(t0.elapsed());
        out
    }

    /// [`SessionHandle::query`] minus the latency accounting, so both the
    /// snapshot path and the locked path land in one histogram.
    fn query_inner(
        &self,
        q: &ConjunctiveQuery,
        opts: QueryOpts,
    ) -> Result<Vec<Vec<Term>>, ServeError> {
        let published = self.cell.published.read().unwrap().clone();
        if let Some(r) = published.poisoned {
            return Err(ServeError::Poisoned(r));
        }
        if published.quiescent {
            return Ok(self.cell.rewrites.answer(q, opts, &published.instance));
        }
        self.locked(|core, cell| {
            let out = core.session.query((q, opts));
            // The query may have quiesced a budget-stopped chase.
            publish(&core.session, cell, false);
            out
        })?
    }

    /// Take a server-side snapshot; returns its id for [`SessionHandle::restore`].
    ///
    /// # Errors
    ///
    /// [`ServeError::SnapshotCapacity`] when the session already holds
    /// [`ConductorConfig::max_snapshots`] snapshots.
    pub fn snapshot(&self) -> Result<u64, ServeError> {
        self.locked(|core, cell| {
            if core.snapshots.len() >= core.max_snapshots {
                cell.metrics.snapshots_rejected.inc();
                return Err(ServeError::SnapshotCapacity {
                    max_snapshots: core.max_snapshots,
                });
            }
            let id = core.next_snapshot;
            core.next_snapshot += 1;
            core.snapshots.insert(id, core.session.snapshot());
            Ok(id)
        })?
    }

    /// Rewind the session to a snapshot taken earlier on it.
    pub fn restore(&self, snapshot: u64) -> Result<(), ServeError> {
        self.locked(|core, cell| {
            let out = match core.snapshots.get(&snapshot) {
                // Guard what `ChaseSession::restore` would panic on — a
                // panic kills the whole session, an error only fails the
                // one request.
                Some(_)
                    if core.session.is_durable()
                        && core.session.config().chase.mode == ChaseMode::Oblivious =>
                {
                    Err(ServeError::Durability(
                        "restore on a durable oblivious session is unsupported \
                         (its log cannot be re-anchored)"
                            .to_string(),
                    ))
                }
                Some(snap) => {
                    core.session.restore(snap);
                    Ok(())
                }
                None => Err(ServeError::UnknownSnapshot(snapshot)),
            };
            // A restored state is another lineage: its version says nothing
            // about the published one, so it is always republished by clone.
            publish(&core.session, cell, out.is_ok());
            out
        })?
    }

    /// The published instance rendered as fact text (the protocol's
    /// `Dump`). Served from the read snapshot like [`SessionHandle::query`],
    /// so it never waits behind an in-flight apply.
    pub fn dump(&self) -> Result<String, ServeError> {
        let published = self.cell.published.read().unwrap().clone();
        if let Some(r) = published.poisoned {
            return Err(ServeError::Poisoned(r));
        }
        Ok(published.instance.to_string())
    }

    /// One coherent reading of the session's counters.
    pub fn stats(&self) -> Result<SessionStats, ServeError> {
        self.locked(|core, _| core.session.stats())
    }

    /// Force a durability point now ([`ChaseSession::persist`]): snapshot
    /// the session's state and compact its write-ahead log. Returns the
    /// epoch the on-disk state covers; [`ServeError::Durability`] on an
    /// in-memory session.
    pub fn persist(&self) -> Result<u64, ServeError> {
        self.locked(|core, cell| {
            let out = core.session.persist();
            *cell.series.lock().expect(SERIES_LOCK) = core.session.series();
            out
        })?
    }

    /// Fault-injection hook: panic inside the session's lock, so tests can
    /// pin panic containment. Hidden, test-only.
    #[doc(hidden)]
    pub fn inject_panic(&self) {
        let _ = self.locked(|_, _| panic!("injected request panic (test hook)"));
    }
}

/// Why a session id no longer resolves even though it once did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EvictedKind {
    /// Persisted to its durable dir; the next route warm-restarts it.
    Durable,
    /// In-memory state discarded; the id answers [`ServeError::Evicted`].
    Transient,
    /// The janitor is persisting it, or a route is warm-restarting it,
    /// outside the sessions lock; routes of the same id wait for that one.
    /// A finished persist, or a failed restore, puts `Durable` in its place.
    Restoring,
}

/// Creates, routes, admits and evicts sessions: the server's front object.
///
/// `open` admits a session (subject to the global cap and the per-session
/// step budget), `route` resolves a session id to a [`SessionHandle`] —
/// transparently warm-restarting a TTL-evicted durable session — and
/// `close` tears a session down and frees its slot. All methods take
/// `&self`; the conductor is shared behind an `Arc` across connection
/// threads.
pub struct Conductor {
    cfg: ConductorConfig,
    sessions: Arc<Mutex<HashMap<u64, SessionHandle>>>,
    /// Sessions torn down by the TTL janitor, by kind — consulted by
    /// `route` to decide between warm-restart and [`ServeError::Evicted`].
    evicted: Arc<Mutex<HashMap<u64, EvictedKind>>>,
    /// Restores in flight (`chase_sessions_restoring`); changed only under
    /// the sessions lock, and counted against the session cap.
    restoring: Gauge,
    /// Signalled, with the sessions lock, when a restore or an eviction's
    /// persist settles.
    restored: Arc<Condvar>,
    next_id: AtomicU64,
    /// The server-wide aggregate registry: session lifecycle gauges and
    /// counters, apply/query latency histograms, publish counters, panic
    /// and eviction series. Every session reports into these shared series
    /// via [`HandleMetrics`].
    metrics: MetricsRegistry,
    /// Zero point of every session's idle clock.
    epoch: Instant,
    /// Set by shutdown: stops the janitor, and a restore that finishes
    /// after it serves nothing.
    stop: Arc<AtomicBool>,
    /// One rewrite-decision store per (Σ, rewriting policy) among the
    /// sessions, so tenants on equal constraints share first sights.
    rewrites: RewriteStores,
    /// The eviction janitor, joined at shutdown.
    janitor: Mutex<Option<thread::JoinHandle<()>>>,
}

/// Conductor-wide session lifecycle counters, served without taking any
/// session lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Sessions open right now.
    pub open: usize,
    /// High-water mark of concurrently open sessions.
    pub peak: u64,
    /// Sessions ever admitted.
    pub opened_total: u64,
    /// Admissions refused by the capacity cap.
    pub rejected_total: u64,
}

impl Conductor {
    /// A conductor with the given admission and eviction policy.
    ///
    /// With [`ConductorConfig::evict_after`] set, this spawns the eviction
    /// janitor; no other thread outlives construction.
    ///
    /// With [`ConductorConfig::durable_root`] set, construction is a **warm
    /// restart**: every `session-<id>` directory under the root is reopened
    /// through [`ChaseSession::open_with`] — newest snapshot loaded, the
    /// write-ahead log since it replayed — and served again under its old
    /// id; id allocation continues past the highest reopened id. A
    /// directory that fails to reopen is left untouched on disk and
    /// counted in `chase_sessions_reopen_failed_total` rather than taking
    /// the whole server down.
    ///
    /// The restart runs on every core: the calling thread decodes the
    /// directories in id order (manifest, log, snapshot, log tail parsed —
    /// everything that interns names), and `min(available cores,
    /// directories)` threads replay them meanwhile. Interner order decides
    /// null labels, so keeping decode on one thread in id order makes the
    /// reopened fleet bit-identical to opening the directories one by one
    /// with [`ChaseSession::open_with`], whatever the core count. The wall
    /// time of the whole reopen is exported as `chase_warm_restart_ns`.
    pub fn new(cfg: ConductorConfig) -> Conductor {
        let metrics = MetricsRegistry::new();
        // Registered up front, so a scrape shows it at zero.
        metrics.counter(M_SESSION_PANICS);
        let conductor = Conductor {
            cfg,
            sessions: Arc::new(Mutex::new(HashMap::new())),
            evicted: Arc::new(Mutex::new(HashMap::new())),
            restoring: metrics.gauge(M_SESSIONS_RESTORING),
            restored: Arc::new(Condvar::new()),
            next_id: AtomicU64::new(1),
            metrics,
            epoch: Instant::now(),
            stop: Arc::new(AtomicBool::new(false)),
            rewrites: RewriteStores::default(),
            janitor: Mutex::new(None),
        };
        conductor.reopen_durable_sessions();
        conductor.spawn_janitor();
        conductor
    }

    /// Scan the durable root and bring every reopenable session back up.
    ///
    /// This thread decodes the directories one by one in id order
    /// (`DecodedSession::decode`, every name interned), while
    /// `min(available cores, directories)` scoped threads replay them. A
    /// directory is decoded only while the sessions already up plus those
    /// still replaying leave room under the cap, so exactly the directories
    /// a one-by-one open would try are tried, and a failed one lets the
    /// next one in. The reopened sessions join the fleet in id order.
    fn reopen_durable_sessions(&self) {
        let Some(root) = &self.cfg.durable_root else {
            return;
        };
        let Ok(entries) = std::fs::read_dir(root) else {
            return; // nothing persisted yet; `open` creates the root lazily
        };
        let t0 = Instant::now();
        let mut found: Vec<(u64, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let id: u64 = name.strip_prefix("session-")?.parse().ok()?;
                let path = e.path();
                wal::is_session_dir(&path).then_some((id, path))
            })
            .collect();
        found.sort();
        let max_id = found.last().map_or(0, |(id, _)| *id);
        let failed = self.metrics.counter(M_REOPEN_FAILED);
        let cap = self.cfg.max_sessions;
        let threads = thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(found.len())
            .min(cap);
        let mut reopened = BTreeMap::new();
        let (jobs, queue) = mpsc::channel::<(u64, DecodedSession)>();
        let (done, results) = mpsc::channel();
        let queue = Mutex::new(queue);
        thread::scope(|s| {
            for _ in 0..threads {
                let (queue, done) = (&queue, done.clone());
                s.spawn(move || loop {
                    let Ok((id, decoded)) = queue.lock().unwrap().recv() else {
                        return;
                    };
                    let replayed = std::panic::catch_unwind(AssertUnwindSafe(|| decoded.replay()));
                    let _ = done.send((id, replayed));
                });
            }
            drop(done);
            // A replay that panicked panics the warm restart, as a
            // one-by-one open would.
            let settle = |reopened: &mut BTreeMap<u64, ChaseSession>,
                          (id, replayed): (u64, thread::Result<_>)| {
                match replayed.unwrap_or_else(|p| std::panic::resume_unwind(p)) {
                    Ok(session) => {
                        reopened.insert(id, session);
                    }
                    Err(_) => failed.inc(),
                }
            };
            let mut replaying = 0;
            for (id, dir) in found {
                while replaying > 0 && reopened.len() + replaying >= cap {
                    let result = results.recv().expect("replay threads outlive their jobs");
                    settle(&mut reopened, result);
                    replaying -= 1;
                }
                if reopened.len() >= cap {
                    failed.inc();
                    continue;
                }
                match DecodedSession::decode(&dir, self.cfg.durability) {
                    Ok(decoded) => {
                        jobs.send((id, decoded)).expect("replay threads are up");
                        replaying += 1;
                    }
                    Err(_) => failed.inc(),
                }
            }
            drop(jobs);
            for result in results {
                settle(&mut reopened, result);
            }
        });
        let mut sessions = self.sessions.lock().unwrap();
        for (id, session) in reopened {
            sessions.insert(id, self.handle_for(session));
            self.metrics.counter(M_SESSIONS_OPENED).inc();
            self.metrics.counter(M_SESSIONS_REOPENED).inc();
        }
        let open = sessions.len() as i64;
        self.metrics.gauge(M_SESSIONS_OPEN).set(open);
        self.metrics.gauge(M_SESSIONS_PEAK).raise_to(open);
        drop(sessions);
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        self.metrics
            .gauge(M_WARM_RESTART_NS)
            .set(t0.elapsed().as_nanos() as i64);
    }

    /// Start the TTL janitor (with `evict_after` only): every tick it runs
    /// one [`sweep`] over the fleet.
    fn spawn_janitor(&self) {
        let Some(ttl) = self.cfg.evict_after else {
            return;
        };
        let (epoch, stop) = (self.epoch, Arc::clone(&self.stop));
        let sessions = Arc::clone(&self.sessions);
        let evicted = Arc::clone(&self.evicted);
        let restored = Arc::clone(&self.restored);
        let evictions = self.metrics.counter(M_EVICTIONS);
        let open_gauge = self.metrics.gauge(M_SESSIONS_OPEN);
        let tick = (ttl / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
        let nap = tick.min(Duration::from_millis(25));
        let handle = thread::spawn(move || {
            let mut slept = Duration::ZERO;
            loop {
                thread::sleep(nap);
                if stop.load(Ordering::Acquire) {
                    return;
                }
                slept += nap;
                if slept < tick {
                    continue;
                }
                slept = Duration::ZERO;
                sweep(
                    epoch,
                    &sessions,
                    &evicted,
                    &restored,
                    ttl,
                    &evictions,
                    &open_gauge,
                );
            }
        });
        *self.janitor.lock().unwrap() = Some(handle);
    }

    /// The admission policy.
    pub fn config(&self) -> &ConductorConfig {
        &self.cfg
    }

    /// Open sessions right now.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Admit a new session over `sigma`, returning its id.
    ///
    /// # Errors
    ///
    /// [`ServeError::Capacity`] when [`ConductorConfig::max_sessions`]
    /// sessions are already open.
    pub fn open(&self, sigma: ConstraintSet) -> Result<u64, ServeError> {
        let mut sessions = self.sessions.lock().unwrap();
        if self.admitted(&sessions) >= self.cfg.max_sessions {
            self.metrics.counter(M_SESSIONS_REJECTED).inc();
            return Err(ServeError::Capacity {
                max_sessions: self.cfg.max_sessions,
            });
        }
        let mut cfg = self.cfg.session.clone();
        if let Some(budget) = self.cfg.step_budget {
            cfg.chase.max_steps = Some(match cfg.chase.max_steps {
                Some(n) => n.min(budget),
                None => budget,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut builder = ChaseSession::builder(sigma).config(cfg);
        if let Some(root) = &self.cfg.durable_root {
            builder = builder
                .durable(root.join(format!("session-{id}")))
                .durability(self.cfg.durability);
        }
        let session = builder.try_build()?;
        sessions.insert(id, self.handle_for(session));
        // Still under the sessions lock, so open/peak can never observe a
        // torn admission.
        self.metrics.counter(M_SESSIONS_OPENED).inc();
        let open = sessions.len() as i64;
        self.metrics.gauge(M_SESSIONS_OPEN).set(open);
        self.metrics.gauge(M_SESSIONS_PEAK).raise_to(open);
        Ok(id)
    }

    /// Wire a built (or reopened) session into a cell behind a handle — the
    /// shared tail of [`Conductor::open`], warm restart, and post-eviction
    /// reopen. The session joins the rewrite store of its Σ and policy here,
    /// before any snapshot or handle shares its cache.
    fn handle_for(&self, mut session: ChaseSession) -> SessionHandle {
        session.share_rewrites(&self.rewrites);
        // An empty unpoisoned instance is vacuously quiescent even before
        // the trigger pool exists; a reopened non-quiescent state (snapshot
        // without replay) must route queries through the locked quiesce.
        let quiescent = session.stats().quiescent
            || (session.instance().is_empty() && session.poisoned().is_none());
        let cell = Arc::new(SessionCell {
            dead: AtomicBool::new(false),
            metrics: HandleMetrics {
                apply_ns: self.metrics.histogram(M_APPLY_NS),
                query_ns: self.metrics.histogram(M_QUERY_NS),
                publishes: self.metrics.counter(M_PUBLISH),
                publish_skipped: self.metrics.counter(M_PUBLISH_SKIPPED),
                publish_cloned: self.metrics.counter(M_PUBLISH_CLONED),
                snapshots_rejected: self.metrics.counter(M_SNAPSHOTS_REJECTED),
                panics: self.metrics.counter(M_SESSION_PANICS),
                recorder: session.recorder().clone(),
            },
            published: RwLock::new(Published {
                instance: Arc::new(session.instance().clone()),
                version: session.instance().version(),
                quiescent,
                poisoned: session.poisoned().cloned(),
            }),
            series: Mutex::new(session.series()),
            rewrites: Arc::clone(session.rewrite_cache()),
            durable: session.is_durable(),
            epoch: self.epoch,
            last_touch: AtomicU64::new(self.epoch.elapsed().as_millis() as u64),
            core: Mutex::new(SessionCore {
                session,
                snapshots: HashMap::new(),
                max_snapshots: self.cfg.max_snapshots,
                next_snapshot: 1,
            }),
        });
        SessionHandle { cell }
    }

    /// Resolve a session id to a handle. A durable session evicted by the
    /// TTL janitor is **transparently warm-restarted** from its directory
    /// (counted in `chase_evictions_restored_total`); a non-durable
    /// evicted id fails with [`ServeError::Evicted`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if no such session was ever open (or
    /// it was explicitly closed); [`ServeError::Evicted`] for a TTL-evicted
    /// in-memory session; [`ServeError::Capacity`] when a warm-restart
    /// would exceed the session cap.
    pub fn route(&self, id: u64) -> Result<SessionHandle, ServeError> {
        let mut sessions = self.sessions.lock().unwrap();
        let kind = loop {
            if let Some(handle) = sessions.get(&id) {
                handle.touch();
                return Ok(handle.clone());
            }
            let kind = self.evicted.lock().unwrap().get(&id).copied();
            match kind {
                // Another route is restoring this id: wait for its outcome.
                Some(EvictedKind::Restoring) => sessions = self.restored.wait(sessions).unwrap(),
                kind => break kind,
            }
        };
        match kind {
            None => Err(ServeError::UnknownSession(id)),
            Some(EvictedKind::Transient) => Err(ServeError::Evicted(id)),
            Some(EvictedKind::Restoring) => unreachable!("the loop waits restores out"),
            Some(EvictedKind::Durable) => {
                if self.admitted(&sessions) >= self.cfg.max_sessions {
                    self.metrics.counter(M_SESSIONS_REJECTED).inc();
                    return Err(ServeError::Capacity {
                        max_sessions: self.cfg.max_sessions,
                    });
                }
                let root = self
                    .cfg
                    .durable_root
                    .as_ref()
                    .ok_or(ServeError::UnknownSession(id))?;
                let dir = root.join(format!("session-{id}"));
                self.evicted
                    .lock()
                    .unwrap()
                    .insert(id, EvictedKind::Restoring);
                self.restoring.add(1);
                drop(sessions);
                // Decode and replay outside the lock: every other tenant
                // keeps routing meanwhile.
                let opened = ChaseSession::open_with(&dir, self.cfg.durability);
                let mut sessions = self.sessions.lock().unwrap();
                self.restoring.add(-1);
                let out = match opened {
                    // A shutdown meanwhile drained the fleet for good.
                    Ok(_) if self.stop.load(Ordering::Acquire) => Err(ServeError::SessionGone),
                    Ok(session) => {
                        let handle = self.handle_for(session);
                        sessions.insert(id, handle.clone());
                        self.evicted.lock().unwrap().remove(&id);
                        self.metrics.counter(M_EVICTIONS_RESTORED).inc();
                        let open = sessions.len() as i64;
                        self.metrics.gauge(M_SESSIONS_OPEN).set(open);
                        self.metrics.gauge(M_SESSIONS_PEAK).raise_to(open);
                        Ok(handle)
                    }
                    Err(e) => Err(e),
                };
                if out.is_err() {
                    self.evicted
                        .lock()
                        .unwrap()
                        .insert(id, EvictedKind::Durable);
                }
                drop(sessions);
                self.restored.notify_all();
                out
            }
        }
    }

    /// Sessions counted against [`ConductorConfig::max_sessions`]: those
    /// open plus those a route is restoring outside the sessions lock.
    fn admitted(&self, sessions: &HashMap<u64, SessionHandle>) -> usize {
        sessions.len() + self.restoring.get().max(0) as usize
    }

    /// Close a session and free its slot. Requests waiting for its lock,
    /// and every later one on a handle to it, fail with
    /// [`ServeError::SessionGone`]; the one in flight (if any) completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if no such session is open.
    pub fn close(&self, id: u64) -> Result<(), ServeError> {
        let handle = {
            let mut sessions = self.sessions.lock().unwrap();
            let handle = sessions.remove(&id).ok_or(ServeError::UnknownSession(id))?;
            self.metrics
                .gauge(M_SESSIONS_OPEN)
                .set(sessions.len() as i64);
            handle
        };
        handle.cell.dead.store(true, Ordering::Release);
        Ok(())
    }

    /// Close every open session and stop the janitor (used on server
    /// shutdown).
    pub fn shutdown(&self) {
        let handles: Vec<SessionHandle> = {
            let mut sessions = self.sessions.lock().unwrap();
            let handles = sessions.drain().map(|(_, h)| h).collect();
            self.metrics.gauge(M_SESSIONS_OPEN).set(0);
            handles
        };
        for handle in handles {
            handle.cell.dead.store(true, Ordering::Release);
        }
        self.stop.store(true, Ordering::Release);
        let janitor = self.janitor.lock().unwrap().take();
        if let Some(janitor) = janitor {
            let _ = janitor.join();
        }
    }

    /// Fleet-level lifecycle counters, read straight off the aggregate
    /// registry — no session lock is taken.
    pub fn stats(&self) -> FleetStats {
        FleetStats {
            open: self.session_count(),
            peak: self.metrics.gauge(M_SESSIONS_PEAK).get().max(0) as u64,
            opened_total: self.metrics.counter(M_SESSIONS_OPENED).get(),
            rejected_total: self.metrics.counter(M_SESSIONS_REJECTED).get(),
        }
    }

    /// The server-wide aggregate registry (session gauges, apply/query
    /// latency histograms, publish counters, panic/eviction series).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// One server-wide metrics snapshot: the aggregate registry plus every
    /// *open* session's [`ChaseSession::metrics_snapshot`] series, summed
    /// (phase histograms merge into one `chase_phase_ns{phase="…"}`
    /// family). The rewrite stores add their count
    /// (`chase_rewrite_caches`) and the decisions closed sessions left
    /// behind (`chase_rewrite_cache_orphans`, also counted in
    /// `chase_rewrite_cache_decisions`, where each open session counts the
    /// decisions it computed, so every decision is counted once).
    ///
    /// Reads the session map, lock-free recorder sinks and each session's
    /// series as its last request refreshed them — never a session core —
    /// so a metrics scrape cannot block behind a tenant's in-flight
    /// apply. Sessions closed before the scrape no longer contribute.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        let cells: Vec<Arc<SessionCell>> = self
            .sessions
            .lock()
            .unwrap()
            .values()
            .map(|h| Arc::clone(&h.cell))
            .collect();
        let mut snap = self.metrics.snapshot();
        let orphans = self.rewrites.orphans() as i64;
        snap.set_gauge(M_REWRITE_CACHES, self.rewrites.len() as i64);
        snap.set_gauge(M_REWRITE_ORPHANS, orphans);
        snap.set_gauge(M_REWRITE_DECISIONS, orphans);
        for cell in cells {
            let series = cell.series.lock().expect(SERIES_LOCK).clone();
            snap.merge(&series.export(&cell.metrics.recorder, &cell.rewrites));
        }
        snap
    }

    /// [`Conductor::metrics_snapshot`] rendered as Prometheus-style text
    /// exposition (the payload behind the protocol's `Metrics` request).
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render()
    }
}

impl Drop for Conductor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One janitor pass over the fleet: evict every session idle past the TTL
/// whose lock is free (a held lock means a request is in flight).
///
/// Under the sessions lock each one is marked dead and removed, so no route
/// can reach it half torn down, and a durable one's id is marked
/// `Restoring`, so routes of it wait. Durable sessions then persist outside
/// the sessions lock, so every other tenant keeps routing and opening, and
/// only then turn `Durable`: the next route warm-restarts the persisted
/// state. A failed persist is tolerable, since the WAL already holds every
/// acknowledged batch. Non-durable sessions are discarded and their ids
/// answer [`ServeError::Evicted`].
fn sweep(
    epoch: Instant,
    sessions: &Mutex<HashMap<u64, SessionHandle>>,
    evicted: &Mutex<HashMap<u64, EvictedKind>>,
    restored: &Condvar,
    ttl: Duration,
    evictions: &Counter,
    open_gauge: &Gauge,
) {
    let ttl_ms = ttl.as_millis() as u64;
    let now = epoch.elapsed().as_millis() as u64;
    let mut persisting = Vec::new();
    let mut map = sessions.lock().unwrap();
    let idle: Vec<u64> = map
        .iter()
        .filter_map(|(id, h)| {
            let touched = h.cell.last_touch.load(Ordering::Relaxed);
            (now.saturating_sub(touched) >= ttl_ms).then_some(*id)
        })
        .collect();
    for id in idle {
        let cell = &map[&id].cell;
        // Busy sessions are never evicted, and a dead one stays admitted
        // until closed.
        let Ok(guard) = cell.core.try_lock() else {
            continue;
        };
        if cell.dead.swap(true, Ordering::AcqRel) {
            continue;
        }
        drop(guard);
        let cell = map.remove(&id).unwrap().cell;
        let kind = if cell.durable {
            persisting.push((id, cell));
            EvictedKind::Restoring
        } else {
            EvictedKind::Transient
        };
        evicted.lock().unwrap().insert(id, kind);
        evictions.inc();
        open_gauge.set(map.len() as i64);
    }
    if persisting.is_empty() {
        return;
    }
    drop(map);
    for (_, cell) in &persisting {
        // Requests on a dead session's handles only check `dead`, and a
        // panic here must not leave its id waiting forever.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut core = cell.core.lock().unwrap_or_else(PoisonError::into_inner);
            core.session.persist()
        }));
    }
    // Under the sessions lock, so a route between its check and its wait
    // cannot miss the wakeup.
    let map = sessions.lock().unwrap();
    let mut kinds = evicted.lock().unwrap();
    for (id, _) in persisting {
        kinds.insert(id, EvictedKind::Durable);
    }
    drop((kinds, map));
    restored.notify_all();
}

/// Republish the session's read surface: its counter series always, its
/// read snapshot if anything observable moved. The [`Instance::version`]
/// comparison is the copy-on-read filter: a duplicate-only batch leaves
/// the version alone, so readers keep sharing the old `Arc` and nothing is
/// copied.
///
/// A moved snapshot that no reader holds is caught up in place
/// ([`Instance::catch_up`], O(delta)) under the write lock. Otherwise —
/// a reader still holds it, an EGD merge happened since, or `restored`
/// says the session switched lineage — a full clone is built outside the
/// lock, swapped in, and the retired snapshot dropped after the lock is
/// released; `chase_snapshot_publish_cloned_total` counts these.
fn publish(session: &ChaseSession, cell: &SessionCell, restored: bool) {
    *cell.series.lock().expect(SERIES_LOCK) = session.series();
    let stats = session.stats();
    let instance = session.instance();
    let version = instance.version();
    let poisoned = session.poisoned().cloned();
    let mut current = cell.published.write().unwrap();
    let moved = restored || current.version != version;
    if !moved && current.quiescent == stats.quiescent && current.poisoned == poisoned {
        drop(current);
        cell.metrics.publish_skipped.inc();
        return;
    }
    let mut retired = None;
    if moved {
        // `get_mut` fails while any reader holds a clone of the `Arc`, so a
        // reader never sees the snapshot it holds mutate.
        let caught_up = !restored
            && Arc::get_mut(&mut current.instance).is_some_and(|mine| mine.catch_up(instance));
        if !caught_up {
            drop(current);
            let fresh = Arc::new(instance.clone());
            current = cell.published.write().unwrap();
            retired = Some(std::mem::replace(&mut current.instance, fresh));
            cell.metrics.publish_cloned.inc();
        }
    }
    current.version = version;
    current.quiescent = stats.quiescent;
    current.poisoned = poisoned;
    drop(current);
    drop(retired);
    cell.metrics.publishes.inc();
    cell.metrics.recorder.event(
        EventKind::SnapshotPublish,
        version,
        u64::from(stats.quiescent),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Instance;

    fn atoms(text: &str) -> Vec<Atom> {
        Instance::parse(text).unwrap().atoms()
    }

    fn sigma(text: &str) -> ConstraintSet {
        ConstraintSet::parse(text).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chase-conductor-test-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn open_route_apply_query_close() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        let out = h.apply(atoms("e(a,b).")).unwrap();
        assert_eq!(out.total_facts, 2);
        let q = ConjunctiveQuery::parse("q(X) <- e(X,b)").unwrap();
        let ans = h.query(&q, QueryOpts::default()).unwrap();
        assert_eq!(ans.len(), 1);
        let stats = h.stats().unwrap();
        assert_eq!(stats.epoch, 1);
        assert!(stats.quiescent);
        conductor.close(id).unwrap();
        assert_eq!(
            conductor.route(id).unwrap_err(),
            ServeError::UnknownSession(id)
        );
        // The handle outlives the slot but its session is dead.
        assert_eq!(h.stats().unwrap_err(), ServeError::SessionGone);
    }

    #[test]
    fn capacity_is_enforced_and_freed_by_close() {
        let conductor = Conductor::new(ConductorConfig {
            max_sessions: 2,
            ..ConductorConfig::default()
        });
        let a = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let _b = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        assert_eq!(
            conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap_err(),
            ServeError::Capacity { max_sessions: 2 }
        );
        conductor.close(a).unwrap();
        conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
    }

    #[test]
    fn a_template_strategy_the_sigma_cannot_run_is_rejected_at_open() {
        use chase_engine::Strategy;
        let mut session = SessionConfig::default();
        session.chase.strategy = Strategy::FixedCycle(vec![1, 0]);
        let conductor = Conductor::new(ConductorConfig {
            session,
            ..ConductorConfig::default()
        });
        assert_eq!(
            conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap_err(),
            ServeError::StrategyOutOfRange {
                index: 1,
                constraints: 1
            }
        );
        assert_eq!(conductor.session_count(), 0);
        // A sigma the cycle fits opens and chases normally.
        let id = conductor
            .open(sigma("e(X,Y) -> e(Y,X)\ne(X,Y) -> n(X)"))
            .unwrap();
        let out = conductor
            .route(id)
            .unwrap()
            .apply(atoms("e(a,b)."))
            .unwrap();
        assert_eq!(out.reason, StopReason::Satisfied);
        assert_eq!(out.total_facts, 4);
    }

    #[test]
    fn step_budget_clamps_admitted_sessions() {
        let conductor = Conductor::new(ConductorConfig {
            step_budget: Some(3),
            ..ConductorConfig::default()
        });
        // Unbounded growth: each fact spawns a longer chain.
        let id = conductor.open(sigma("e(X,Y) -> e(Y,Z)")).unwrap();
        let h = conductor.route(id).unwrap();
        let out = h.apply(atoms("e(a,b).")).unwrap();
        assert!(matches!(out.reason, StopReason::StepLimit(_)));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let snap = h.snapshot().unwrap();
        h.apply(atoms("e(c,d).")).unwrap();
        assert_eq!(h.stats().unwrap().total_facts, 4);
        h.restore(snap).unwrap();
        assert_eq!(h.stats().unwrap().total_facts, 2);
        // Restored state is published: reads see the rewound instance.
        let q = ConjunctiveQuery::parse("q(X) <- e(c,X)").unwrap();
        assert!(h.query(&q, QueryOpts::default()).unwrap().is_empty());
        assert_eq!(h.restore(99).unwrap_err(), ServeError::UnknownSnapshot(99));
    }

    #[test]
    fn restore_onto_a_same_version_branch_republishes() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        let s0 = h.snapshot().unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let t = h.snapshot().unwrap();
        h.restore(s0).unwrap();
        h.apply(atoms("e(c,d).")).unwrap();
        // Both branches sit at version 2: the version compare alone would
        // keep serving the `e(c,d)` branch.
        h.restore(t).unwrap();
        assert_eq!(h.dump().unwrap(), "e(a,b). e(b,a).");
        let q = ConjunctiveQuery::parse("q(X) <- e(a,X)").unwrap();
        assert_eq!(
            h.query(&q, QueryOpts::default()).unwrap(),
            vec![vec![Term::constant("b")]]
        );
    }

    /// Structural equality through the public API: the same facts under
    /// the same ids, the same index buckets, statistics and dedup hits, the
    /// same version and fresh-null counter.
    fn assert_same_store(published: &Instance, session: &Instance) {
        assert_eq!(published.atoms(), session.atoms());
        assert_eq!(published.version(), session.version());
        assert_eq!(published.clone().fresh_null(), session.clone().fresh_null());
        for f in 0..session.len() as u32 {
            let view = session.fact(f);
            let pred = view.pred();
            let ids: Vec<_> = (0..view.arity()).map(|p| view.term_id(p)).collect();
            assert_eq!(published.find_ids(pred, &ids), Some(f));
            assert_eq!(published.pred_bucket(pred), session.pred_bucket(pred));
            for (p, &id) in ids.iter().enumerate() {
                assert_eq!(
                    published.pos_bucket(pred, p, id),
                    session.pos_bucket(pred, p, id)
                );
                assert_eq!(published.distinct_at(pred, p), session.distinct_at(pred, p));
            }
        }
    }

    #[test]
    fn the_published_snapshot_is_the_session_instance_after_every_ack() {
        let conductor = Conductor::new(ConductorConfig {
            step_budget: Some(40),
            ..ConductorConfig::default()
        });
        // Symmetric edges (inserts only), plus invented nulls an EGD merges
        // into constants once the matching `k` fact arrives.
        let id = conductor
            .open(sigma(
                "e(X,Y) -> e(Y,X)\np(X) -> f(X,Y)\nf(X,Y), k(X,Z) -> Y = Z",
            ))
            .unwrap();
        let h = conductor.route(id).unwrap();
        let check = || {
            let published = h.cell.published.read().unwrap().clone();
            let core = h.cell.core.lock().unwrap();
            assert_same_store(&published.instance, core.session.instance());
            assert_eq!(published.version, core.session.instance().version());
            assert_eq!(published.quiescent, core.session.stats().quiescent);
        };
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut roll = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let q = ConjunctiveQuery::parse("q(X,Y) <- e(X,Y)").unwrap();
        let mut sent: Vec<String> = Vec::new();
        let mut snapshots = Vec::new();
        let mut held: Option<(Published, Vec<Atom>)> = None;
        let mut fresh = 0;
        // An empty session is published as vacuously quiescent: start past
        // that.
        h.apply(atoms("e(v0,v0).")).unwrap();
        check();
        for _ in 0..300 {
            match roll(8) {
                0 => {
                    let batch: String = (0..=roll(3))
                        .map(|_| {
                            fresh += 1;
                            format!("e(v{fresh},v{}).", roll(fresh))
                        })
                        .collect();
                    h.apply(atoms(&batch)).unwrap();
                    sent.push(batch);
                }
                // Duplicates only (on the current branch, at least).
                1 if !sent.is_empty() => {
                    h.apply(atoms(&sent[roll(sent.len() as u64) as usize]))
                        .unwrap();
                }
                2 => {
                    h.apply(atoms(&format!("p(x{}).", roll(20)))).unwrap();
                }
                // Merges `x`'s invented null into `cx` (one constant per
                // `x`, so no merge ever fails).
                3 => {
                    let x = roll(20);
                    h.apply(atoms(&format!("k(x{x},c{x})."))).unwrap();
                }
                // Past the step budget, then a query that quiesces.
                4 => {
                    let batch: String = (0..60)
                        .map(|_| {
                            fresh += 1;
                            format!("e(w{fresh},w{}).", fresh + 1)
                        })
                        .collect();
                    let out = h.apply(atoms(&batch)).unwrap();
                    assert!(matches!(out.reason, StopReason::StepLimit(_)));
                    check();
                    h.query(&q, QueryOpts::default()).unwrap();
                }
                5 => snapshots.push(h.snapshot().unwrap()),
                6 if !snapshots.is_empty() => {
                    h.restore(snapshots[roll(snapshots.len() as u64) as usize])
                        .unwrap();
                }
                // A reader holding the snapshot across publishes forces the
                // fallback, and never sees its snapshot change.
                _ => match held.take() {
                    Some((published, atoms)) => assert_eq!(published.instance.atoms(), atoms),
                    None => {
                        let published = h.cell.published.read().unwrap().clone();
                        let atoms = published.instance.atoms();
                        held = Some((published, atoms));
                    }
                },
            }
            check();
        }
        let snap = conductor.metrics_snapshot();
        let (publishes, cloned) = (
            snap.counter(M_PUBLISH).unwrap(),
            snap.counter(M_PUBLISH_CLONED).unwrap(),
        );
        assert!(0 < cloned && cloned < publishes, "{cloned} of {publishes}");
    }

    #[test]
    fn queries_during_apply_see_the_pre_batch_snapshot() {
        let conductor = Conductor::new(ConductorConfig {
            step_budget: None,
            ..ConductorConfig::default()
        });
        let id = conductor.open(sigma("e(X,Y), e(Y,Z) -> e(X,Z)")).unwrap();
        let h = conductor.route(id).unwrap();
        // Seed a small chain, then queue a batch whose transitive closure
        // takes real work.
        h.apply(atoms("e(a,b).")).unwrap();
        let mut big = String::new();
        for i in 0..60 {
            big.push_str(&format!("p{i}(x). e(n{i},n{}).", i + 1));
        }
        let writer = h.clone();
        let pending = thread::spawn(move || writer.apply(atoms(&big)));
        let q = ConjunctiveQuery::parse("q(X) <- e(a,X)").unwrap();
        // Issued while the apply may still be chasing: must answer from a
        // coherent snapshot, i.e. either exactly pre-batch or post-batch.
        let mid = h.query(&q, QueryOpts::default()).unwrap();
        assert_eq!(mid.len(), 1); // `a` reaches only `b` in both states
        pending.join().unwrap().unwrap();
        let after = h.query(&q, QueryOpts::default()).unwrap();
        assert_eq!(after.len(), 1);
        assert!(h.stats().unwrap().total_facts > 120);
    }

    #[test]
    fn poisoned_sessions_fail_reads_on_the_fast_path() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("p(X), p(Y) -> X = Y")).unwrap();
        let h = conductor.route(id).unwrap();
        let err = h.apply(atoms("p(a). p(b).")).unwrap();
        assert_eq!(err.reason, StopReason::Failed);
        let q = ConjunctiveQuery::parse("q(X) <- p(X)").unwrap();
        assert_eq!(
            h.query(&q, QueryOpts::default()).unwrap_err(),
            ServeError::Poisoned(StopReason::Failed)
        );
    }

    #[test]
    fn fleet_stats_track_admission_lifecycle() {
        let conductor = Conductor::new(ConductorConfig {
            max_sessions: 2,
            ..ConductorConfig::default()
        });
        let a = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let b = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        assert!(conductor.open(sigma("e(X,Y) -> e(Y,X)")).is_err());
        conductor.close(a).unwrap();
        let s = conductor.stats();
        assert_eq!(s.open, 1);
        assert_eq!(s.peak, 2);
        assert_eq!(s.opened_total, 2);
        assert_eq!(s.rejected_total, 1);
        conductor.close(b).unwrap();
        assert_eq!(conductor.stats().open, 0);
        assert_eq!(conductor.stats().peak, 2);
    }

    #[test]
    fn metrics_snapshot_merges_latency_and_phases() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- e(X,b)").unwrap();
        h.query(&q, QueryOpts::default()).unwrap();
        h.apply(atoms("e(a,b).")).unwrap(); // duplicate: publish skipped

        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.gauge(M_SESSIONS_OPEN), Some(1));
        let apply = snap.histogram(M_APPLY_NS).unwrap();
        assert_eq!(apply.count(), 2);
        assert!(apply.percentile(0.5) > 0);
        assert_eq!(snap.histogram(M_QUERY_NS).unwrap().count(), 1);
        assert_eq!(snap.counter(M_PUBLISH), Some(1));
        assert!(snap.counter(M_PUBLISH_SKIPPED).unwrap() >= 1);
        // The session's engine phases surface under the labeled family.
        let insert = snap.histogram("chase_phase_ns{phase=\"insert\"}").unwrap();
        assert!(insert.count() > 0);
        assert_eq!(snap.counter(M_SESSION_PANICS), Some(0));

        let text = conductor.metrics_text();
        assert!(text.contains("chase_sessions_open 1"));
        assert!(text.contains("chase_apply_ns_p99_ns"));
        assert!(text.contains("chase_phase_ns_p50_ns{phase=\"insert\"}"));
        assert!(text.contains("chase_session_panics_total 0"));
        assert!(!text.contains("chase_pool_") && !text.contains("chase_mailbox_depth"));
    }

    #[test]
    fn duplicate_batches_do_not_republish() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let before = Arc::as_ptr(&h.cell.published.read().unwrap().instance);
        h.apply(atoms("e(a,b).")).unwrap();
        let after = Arc::as_ptr(&h.cell.published.read().unwrap().instance);
        assert_eq!(before, after, "duplicate-only batch must not re-clone");
    }

    #[test]
    fn many_sessions_are_served_from_a_few_caller_threads() {
        // 24 sessions, 2 client threads: every apply completes on its
        // caller's thread, and reads see their own writes right after it.
        let conductor = Conductor::new(ConductorConfig::default());
        let handles: Vec<SessionHandle> = (0..24)
            .map(|_| {
                let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
                conductor.route(id).unwrap()
            })
            .collect();
        let q = ConjunctiveQuery::parse("q(X,Y) <- e(X,Y)").unwrap();
        thread::scope(|s| {
            for part in handles.chunks(12) {
                s.spawn(|| {
                    for (i, h) in part.iter().enumerate() {
                        h.apply(atoms(&format!("e(a{i},b{i})."))).unwrap();
                        assert_eq!(h.query(&q, QueryOpts::default()).unwrap().len(), 2);
                    }
                });
            }
        });
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.histogram(M_APPLY_NS).unwrap().count(), 24);
    }

    #[test]
    fn a_conductor_without_eviction_spawns_no_thread_and_still_serves() {
        let conductor = Conductor::new(ConductorConfig::default());
        assert!(conductor.janitor.lock().unwrap().is_none());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- e(X,b)").unwrap();
        assert_eq!(h.query(&q, QueryOpts::default()).unwrap().len(), 1);
        assert_eq!(h.stats().unwrap().epoch, 1, "the locked path is served");
        conductor.close(id).unwrap();
    }

    #[test]
    fn a_query_flood_keeps_the_rewrite_cache_bounded_and_answers_exact() {
        use crate::session::REWRITE_CACHE_CAP;
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("rail(X,Y,D) -> rail(Y,X,D)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("rail(c1,u,d1). rail(u,v,d2). rail(c2,w,d1)."))
            .unwrap();
        // Every text is distinct and rewrites (the symmetric twin atom is
        // redundant under Σ), so each one is a first sight for the cache.
        for i in 0..REWRITE_CACHE_CAP + 64 {
            let c = i % 3;
            let text = format!("q{i}(X) <- rail(c{c},X,D), rail(X,c{c},D)");
            let q = ConjunctiveQuery::parse(&text).unwrap();
            let plain = h.query(&q, QueryOpts::default().without_sqo()).unwrap();
            assert_eq!(h.query(&q, QueryOpts::default()).unwrap(), plain, "{text}");
            assert!(h.cell.rewrites.len() <= REWRITE_CACHE_CAP);
        }
        assert_eq!(h.cell.rewrites.len(), REWRITE_CACHE_CAP);
        // The cap's effect is observable from a scrape: the cache holds
        // exactly the cap, and every first sight past it evicted one.
        let snap = conductor.metrics_snapshot();
        assert_eq!(
            snap.gauge("chase_rewrite_cache_decisions"),
            Some(REWRITE_CACHE_CAP as i64)
        );
        assert_eq!(
            snap.counter("chase_rewrite_cache_evictions_total"),
            Some(64)
        );
        assert!(conductor
            .metrics_text()
            .contains("chase_rewrite_cache_evictions_total 64"));
    }

    #[test]
    fn first_sights_count_each_distinct_query_text_once() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor
            .open(sigma(
                "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)",
            ))
            .unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("rail(c0,c1,d). fly(c1,c2,e). fly(c0,c2,d)."))
            .unwrap();
        // 12 anchors x 4 templates: 48 distinct texts, as in a read pool.
        let texts: Vec<String> = (0..12)
            .flat_map(|c| {
                [
                    "q(Y) <- fly(@,Y,D)",
                    "q(Y) <- fly(@,Y,D), hasAirport(Y)",
                    "q(Y) <- rail(@,Y,D), rail(Y,@,D)",
                    "q(Z) <- rail(@,Y,D), fly(Y,Z,E)",
                ]
                .map(|t| t.replace('@', &format!("c{c}")))
            })
            .collect();
        let first_sights = |conductor: &Conductor| {
            let snap = conductor.metrics_snapshot();
            (
                snap.counter("chase_rewrite_first_sight_total"),
                snap.counter("chase_rewrite_first_sight_ns_total"),
            )
        };
        assert_eq!(first_sights(&conductor), (Some(0), Some(0)));
        let ask = |text: &String| {
            let q = ConjunctiveQuery::parse(text).unwrap();
            h.query(&q, QueryOpts::default()).unwrap();
        };
        texts.iter().for_each(ask);
        let (count, ns) = first_sights(&conductor);
        assert_eq!(count, Some(48));
        assert!(ns > Some(0));
        // Repeats are cache hits: neither counter moves.
        texts.iter().for_each(ask);
        assert_eq!(first_sights(&conductor), (Some(48), ns));
        assert!(conductor
            .metrics_text()
            .contains("chase_rewrite_first_sight_total 48"));
    }

    /// Figure 9's travel Σ and a seeded travel instance over 16 cities: the
    /// shape of servebench's `tenant_churn` tenants, small.
    const TRAVEL: &str =
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";

    fn travel_facts(seed: u64) -> Vec<Atom> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut roll = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let text: String = (0..80)
            .map(|i| {
                let pred = if i % 2 == 0 { "fly" } else { "rail" };
                let (a, b, d) = (roll(16), roll(16), roll(4));
                format!("{pred}(city{a},city{b},d{d}). ")
            })
            .collect();
        atoms(&text)
    }

    /// servebench's `tenant_churn` read pool (12 anchors × 4 templates)
    /// followed by its probes, the first of which every set-up sends.
    fn travel_reads() -> Vec<ConjunctiveQuery> {
        let templates = [
            "q(Y) <- fly(@,Y,D)",
            "q(Y) <- fly(@,Y,D), hasAirport(Y)",
            "q(Y) <- rail(@,Y,D), rail(Y,@,D)",
            "q(Z) <- rail(@,Y,D), fly(Y,Z,E)",
        ];
        let probes = [
            "q(X) <- hasAirport(X)",
            "q(X,Y,D) <- rail(X,Y,D)",
            "q(X,Y,D) <- fly(X,Y,D)",
        ];
        (0..12)
            .flat_map(|c| templates.map(|t| t.replace('@', &format!("city{c}"))))
            .chain(probes.map(String::from))
            .map(|text| ConjunctiveQuery::parse(&text).unwrap())
            .collect()
    }

    fn first_sight_total(conductor: &Conductor) -> u64 {
        let snap = conductor.metrics_snapshot();
        snap.counter("chase_rewrite_first_sight_total").unwrap()
    }

    #[test]
    fn sessions_on_one_sigma_share_first_sights_and_answer_like_private_ones() {
        let reads = travel_reads();
        let shared = Conductor::new(ConductorConfig::default());
        let privates: Vec<Conductor> = (0..8)
            .map(|_| Conductor::new(ConductorConfig::default()))
            .collect();
        let open = |conductor: &Conductor, tenant: u64| {
            let id = conductor.open(sigma(TRAVEL)).unwrap();
            let h = conductor.route(id).unwrap();
            h.apply(travel_facts(tenant)).unwrap();
            h
        };
        let pairs: Vec<(SessionHandle, SessionHandle)> = privates
            .iter()
            .zip(0..)
            .map(|(private, t)| (open(&shared, t), open(private, t)))
            .collect();
        // One set-up's reads: the pool, then the first probe.
        for (a, b) in &pairs {
            for q in &reads[..49] {
                let (x, y) = (
                    a.query(q, QueryOpts::default()),
                    b.query(q, QueryOpts::default()),
                );
                assert_eq!(x.unwrap(), y.unwrap(), "{q}");
                assert_eq!(
                    a.cell.rewrites.rewrite(q),
                    b.cell.rewrites.rewrite(q),
                    "{q}"
                );
            }
        }
        assert_eq!(first_sight_total(&shared), 49);
        for private in &privates {
            assert_eq!(first_sight_total(private), 49);
        }
        // The other probes, and every read once more, agree too.
        for (a, b) in &pairs {
            for q in &reads {
                let (x, y) = (
                    a.query(q, QueryOpts::default()),
                    b.query(q, QueryOpts::default()),
                );
                assert_eq!(x.unwrap(), y.unwrap(), "{q}");
            }
        }
        assert_eq!(first_sight_total(&shared), reads.len() as u64);
        let snap = shared.metrics_snapshot();
        assert_eq!(snap.gauge(M_REWRITE_CACHES), Some(1));
        assert_eq!(snap.gauge(M_REWRITE_DECISIONS), Some(reads.len() as i64));
        // A session on another Σ gets a store of its own.
        let other = shared
            .open(sigma("rail(C1,C2,D) -> rail(C2,C1,D)"))
            .unwrap();
        let other = shared.route(other).unwrap();
        other.query(&reads[2], QueryOpts::default()).unwrap();
        assert_eq!(first_sight_total(&shared), reads.len() as u64 + 1);
        assert_eq!(shared.metrics_snapshot().gauge(M_REWRITE_CACHES), Some(2));
    }

    #[test]
    fn a_flooding_tenant_evicts_only_its_own_decisions_and_closed_ones_stay_bounded() {
        use crate::session::REWRITE_CACHE_CAP;
        let conductor = Conductor::new(ConductorConfig {
            max_sessions: 8,
            ..ConductorConfig::default()
        });
        let reads = travel_reads();
        let a = conductor
            .route(conductor.open(sigma(TRAVEL)).unwrap())
            .unwrap();
        a.apply(travel_facts(1)).unwrap();
        let warm = |h: &SessionHandle| {
            for q in &reads[..48] {
                h.query(q, QueryOpts::default()).unwrap();
            }
        };
        warm(&a);
        assert_eq!(a.cell.rewrites.first_sights().0, 48);
        let b_id = conductor.open(sigma(TRAVEL)).unwrap();
        let b = conductor.route(b_id).unwrap();
        for i in 0..2 * REWRITE_CACHE_CAP {
            let q = ConjunctiveQuery::parse(&format!("q{i}(X) <- rail(city{},X,D)", i % 16));
            b.query(&q.unwrap(), QueryOpts::default()).unwrap();
        }
        assert_eq!(b.cell.rewrites.len(), REWRITE_CACHE_CAP);
        assert_eq!(b.cell.rewrites.evictions(), REWRITE_CACHE_CAP as u64);
        warm(&a);
        assert_eq!(
            a.cell.rewrites.first_sights().0,
            48,
            "B evicted A's decisions"
        );
        let decisions = |conductor: &Conductor| {
            let snap = conductor.metrics_snapshot();
            snap.gauge(M_REWRITE_DECISIONS).unwrap() as usize
        };
        assert_eq!(decisions(&conductor), 48 + REWRITE_CACHE_CAP);
        // Closing B orphans its decisions: A still reads them.
        drop(b);
        conductor.close(b_id).unwrap();
        let snap = conductor.metrics_snapshot();
        assert_eq!(
            snap.gauge(M_REWRITE_ORPHANS),
            Some(REWRITE_CACHE_CAP as i64)
        );
        assert_eq!(decisions(&conductor), 48 + REWRITE_CACHE_CAP);
        let q = ConjunctiveQuery::parse("q2047(X) <- rail(city15,X,D)").unwrap();
        a.query(&q, QueryOpts::default()).unwrap();
        assert_eq!(
            a.cell.rewrites.first_sights().0,
            48,
            "the orphan was dropped"
        );
        // A second flooder's orphans push out the first's: the list keeps
        // the cap, not the cap per closed session.
        let c_id = conductor.open(sigma(TRAVEL)).unwrap();
        let c = conductor.route(c_id).unwrap();
        for i in 0..REWRITE_CACHE_CAP {
            let q = ConjunctiveQuery::parse(&format!("r{i}(X) <- fly(city{},X,D)", i % 16));
            c.query(&q.unwrap(), QueryOpts::default()).unwrap();
        }
        drop(c);
        conductor.close(c_id).unwrap();
        let snap = conductor.metrics_snapshot();
        assert_eq!(
            snap.gauge(M_REWRITE_ORPHANS),
            Some(REWRITE_CACHE_CAP as i64)
        );
        assert_eq!(decisions(&conductor), 48 + REWRITE_CACHE_CAP);
        // A thousand sessions on distinct Σs come and go: the registry
        // holds a store per open session at most, and the decisions stay
        // within the cap per open session plus one for the orphans.
        for i in 0..1000 {
            let id = conductor
                .open(sigma(&format!("e{i}(X,Y) -> e{i}(Y,X)")))
                .unwrap();
            let h = conductor.route(id).unwrap();
            let q = ConjunctiveQuery::parse(&format!("q(X) <- e{i}(X,Y), e{i}(Y,X)"));
            h.query(&q.unwrap(), QueryOpts::default()).unwrap();
            assert!(conductor.rewrites.len() <= conductor.session_count());
            drop(h);
            conductor.close(id).unwrap();
            assert!(conductor.rewrites.len() <= conductor.session_count());
            let bound = REWRITE_CACHE_CAP * (conductor.session_count() + 1);
            assert!(decisions(&conductor) <= bound);
        }
        assert_eq!(conductor.rewrites.len(), 1);
        // The orphans of every dead store went with it.
        let snap = conductor.metrics_snapshot();
        assert_eq!(
            snap.gauge(M_REWRITE_ORPHANS),
            Some(REWRITE_CACHE_CAP as i64 - 1)
        );
    }

    #[test]
    fn a_snapshot_flood_is_capped_and_earlier_snapshots_still_restore() {
        let conductor = Conductor::new(ConductorConfig {
            max_snapshots: 3,
            ..ConductorConfig::default()
        });
        let h = conductor
            .route(conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap())
            .unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let first = h.snapshot().unwrap();
        h.snapshot().unwrap();
        h.snapshot().unwrap();
        for _ in 0..5 {
            assert_eq!(
                h.snapshot().unwrap_err(),
                ServeError::SnapshotCapacity { max_snapshots: 3 }
            );
        }
        h.apply(atoms("e(c,d).")).unwrap();
        h.restore(first).unwrap();
        assert_eq!(h.stats().unwrap().total_facts, 2);
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.counter(M_SNAPSHOTS_REJECTED), Some(5));
    }

    #[test]
    fn a_panicking_dispatch_poisons_only_its_session() {
        let conductor = Conductor::new(ConductorConfig::default());
        let a = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let b = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let ha = conductor.route(a).unwrap();
        let hb = conductor.route(b).unwrap();
        ha.apply(atoms("e(a,b).")).unwrap();
        ha.inject_panic();
        // The panic is caught on this thread, which goes on serving b.
        hb.apply(atoms("e(c,d).")).unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- e(X,d)").unwrap();
        assert_eq!(hb.query(&q, QueryOpts::default()).unwrap().len(), 1);
        // a is poisoned on the snapshot path and gone on the locked path.
        let q = ConjunctiveQuery::parse("q(X) <- e(X,b)").unwrap();
        assert_eq!(
            ha.query(&q, QueryOpts::default()).unwrap_err(),
            ServeError::Poisoned(StopReason::Failed)
        );
        assert_eq!(ha.stats().unwrap_err(), ServeError::SessionGone);
        assert_eq!(
            conductor.metrics_snapshot().counter(M_SESSION_PANICS),
            Some(1)
        );
        // The slot is still admitted until closed; close frees it.
        conductor.close(a).unwrap();
    }

    #[test]
    fn idle_transient_sessions_are_evicted() {
        let conductor = Conductor::new(ConductorConfig {
            evict_after: Some(Duration::from_millis(80)),
            ..ConductorConfig::default()
        });
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while conductor.session_count() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(conductor.session_count(), 0, "janitor never evicted");
        assert_eq!(conductor.route(id).unwrap_err(), ServeError::Evicted(id));
        assert_eq!(conductor.metrics_snapshot().counter(M_EVICTIONS), Some(1));
    }

    #[test]
    fn evicted_durable_sessions_warm_restart_on_route() {
        let dir = temp_dir("evict-reopen");
        let conductor = Conductor::new(ConductorConfig {
            evict_after: Some(Duration::from_millis(80)),
            durable_root: Some(dir.clone()),
            ..ConductorConfig::default()
        });
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while conductor.session_count() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(conductor.session_count(), 0, "janitor never evicted");
        // Routing the evicted id transparently reopens from disk.
        let h2 = conductor.route(id).unwrap();
        let stats = h2.stats().unwrap();
        assert_eq!(stats.epoch, 1);
        assert_eq!(stats.total_facts, 2);
        let q = ConjunctiveQuery::parse("q(X) <- e(X,b)").unwrap();
        assert_eq!(h2.query(&q, QueryOpts::default()).unwrap().len(), 1);
        let snap = conductor.metrics_snapshot();
        assert!(snap.counter(M_EVICTIONS).unwrap() >= 1);
        assert!(snap.counter(M_EVICTIONS_RESTORED).unwrap() >= 1);
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sweep_never_evicts_a_session_with_a_request_in_flight() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        let sweep_now = || sweep_all_idle(&conductor);
        // Holding the core keeps the apply from finishing, so the session
        // stays busy however the applying thread is timed.
        let busy = h.cell.core.lock().unwrap();
        let writer = h.clone();
        let pending = thread::spawn(move || writer.apply(atoms("e(a,b).")));
        sweep_now();
        assert_eq!(conductor.session_count(), 1, "a busy session was evicted");
        drop(busy);
        pending.join().unwrap().unwrap();
        sweep_now();
        assert_eq!(conductor.session_count(), 0);
        assert_eq!(conductor.route(id).unwrap_err(), ServeError::Evicted(id));
    }

    #[test]
    fn a_quiescent_read_never_takes_the_session_lock() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        h.apply(atoms("e(a,b).")).unwrap();
        // Holding the core stands in for an apply in flight: a read that
        // queued behind it would never answer while the guard lives.
        let busy = h.cell.core.lock().unwrap();
        let reader = h.clone();
        let (tx, rx) = mpsc::channel();
        let pending = thread::spawn(move || {
            let q = ConjunctiveQuery::parse("q(X,Y) <- e(X,Y)").unwrap();
            let _ = tx.send(reader.query(&q, QueryOpts::default()));
        });
        let mut answers = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a quiescent read waited for the session lock")
            .unwrap();
        answers.sort();
        let (a, b) = (Term::constant("a"), Term::constant("b"));
        assert_eq!(answers, vec![vec![a, b], vec![b, a]]);
        drop(busy);
        pending.join().unwrap();
        conductor.close(id).unwrap();
    }

    #[test]
    fn a_request_queued_on_a_session_closed_under_it_gets_session_gone() {
        let conductor = Conductor::new(ConductorConfig::default());
        let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let h = conductor.route(id).unwrap();
        // Holding the core keeps the stats request from being served
        // before the close, whether it was posted before or after it.
        let busy = h.cell.core.lock().unwrap();
        let waiter = h.clone();
        let pending = thread::spawn(move || waiter.stats());
        conductor.close(id).unwrap();
        drop(busy);
        assert_eq!(
            pending.join().unwrap().unwrap_err(),
            ServeError::SessionGone
        );
    }

    /// One janitor pass with a zero TTL: every session not busy is evicted.
    fn sweep_all_idle(conductor: &Conductor) {
        sweep(
            conductor.epoch,
            &conductor.sessions,
            &conductor.evicted,
            &conductor.restored,
            Duration::ZERO,
            &conductor.metrics.counter(M_EVICTIONS),
            &conductor.metrics.gauge(M_SESSIONS_OPEN),
        );
    }

    /// A durable conductor over an oblivious template: evicting an
    /// oblivious session only flushes its log (it cannot snapshot), so a
    /// route-time restore replays every logged batch.
    fn oblivious_durable(name: &str) -> (Conductor, PathBuf) {
        let dir = temp_dir(name);
        let mut session = SessionConfig::default();
        session.chase.mode = ChaseMode::Oblivious;
        session.chase.max_steps = None;
        let conductor = Conductor::new(ConductorConfig {
            step_budget: None,
            durable_root: Some(dir.clone()),
            session,
            ..ConductorConfig::default()
        });
        (conductor, dir)
    }

    /// Open a transitive-closure session over a `len`-edge chain, then
    /// evict every idle session: the id's restore replays the closure.
    fn evicted_chain(conductor: &Conductor, len: usize) -> u64 {
        let id = conductor.open(sigma("e(X,Y), e(Y,Z) -> e(X,Z)")).unwrap();
        let chain: String = (0..len).map(|i| format!("e(n{i},n{}).", i + 1)).collect();
        let h = conductor.route(id).unwrap();
        let out = h.apply(atoms(&chain)).unwrap();
        assert_eq!(out.total_facts, len * (len + 1) / 2);
        sweep_all_idle(conductor);
        assert_eq!(conductor.session_count(), 0);
        id
    }

    #[test]
    fn concurrent_routes_of_an_evicted_id_share_one_restore() {
        let (conductor, dir) = oblivious_durable("one-restore");
        let id = evicted_chain(&conductor, 40);
        let start = std::sync::Barrier::new(6);
        let handles: Vec<SessionHandle> = thread::scope(|s| {
            let routes: Vec<_> = (0..6)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        conductor.route(id).unwrap()
                    })
                })
                .collect();
            routes.into_iter().map(|r| r.join().unwrap()).collect()
        });
        for h in &handles {
            assert!(
                Arc::ptr_eq(&h.cell, &handles[0].cell),
                "two sessions for one id"
            );
        }
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.counter(M_EVICTIONS_RESTORED), Some(1));
        assert_eq!(snap.gauge(M_SESSIONS_RESTORING), Some(0));
        assert_eq!(conductor.session_count(), 1);
        assert_eq!(handles[0].stats().unwrap().total_facts, 40 * 41 / 2);
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_restore_in_flight_stalls_no_other_tenant() {
        let (conductor, dir) = oblivious_durable("restore-stall");
        let slow = evicted_chain(&conductor, 70);
        let other = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        conductor
            .route(other)
            .unwrap()
            .apply(atoms("e(a,b)."))
            .unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- e(X,a)").unwrap();
        thread::scope(|s| {
            let restore = s.spawn(|| conductor.route(slow).unwrap());
            // `chase_sessions_restoring`, read off its handle: a scrape
            // takes the sessions lock.
            while conductor.restoring.get() == 0 {
                thread::yield_now();
            }
            // The other tenant routes and reads while the replay runs.
            let h = conductor.route(other).unwrap();
            assert_eq!(h.query(&q, QueryOpts::default()).unwrap().len(), 1);
            assert_eq!(
                conductor.restoring.get(),
                1,
                "the route waited for the restore"
            );
            // The in-flight restore holds a slot.
            assert_eq!(conductor.admitted(&conductor.sessions.lock().unwrap()), 2);
            let back = restore.join().unwrap();
            assert_eq!(back.stats().unwrap().total_facts, 70 * 71 / 2);
        });
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.gauge(M_SESSIONS_RESTORING), Some(0));
        assert_eq!(snap.counter(M_EVICTIONS_RESTORED), Some(1));
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_restore_leaves_the_id_evicted_and_retryable() {
        let (conductor, dir) = oblivious_durable("restore-fail");
        let id = evicted_chain(&conductor, 4);
        let manifest = dir.join(format!("session-{id}")).join("MANIFEST");
        let good = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, "chase-session v1\nsigma\nnot a constraint set\n").unwrap();
        assert!(matches!(
            conductor.route(id).unwrap_err(),
            ServeError::Durability(_)
        ));
        assert_eq!(conductor.restoring.get(), 0);
        assert_eq!(
            conductor.evicted.lock().unwrap().get(&id),
            Some(&EvictedKind::Durable)
        );
        std::fs::write(&manifest, good).unwrap();
        assert_eq!(
            conductor.route(id).unwrap().stats().unwrap().total_facts,
            10
        );
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_eviction_persist_in_flight_stalls_no_other_tenant() {
        let dir = temp_dir("evict-persist");
        let conductor = Conductor::new(ConductorConfig {
            durable_root: Some(dir.clone()),
            ..ConductorConfig::default()
        });
        let slow = conductor.open(sigma("e(X,Y), e(Y,Z) -> e(X,Z)")).unwrap();
        let chain: String = (0..12).map(|i| format!("e(n{i},n{}).", i + 1)).collect();
        let hs = conductor.route(slow).unwrap();
        hs.apply(atoms(&chain)).unwrap();
        let other = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
        let ho = conductor.route(other).unwrap();
        ho.apply(atoms("e(a,b).")).unwrap();
        let q = ConjunctiveQuery::parse("q(X) <- e(X,a)").unwrap();
        let persisting =
            || conductor.evicted.lock().unwrap().get(&slow) == Some(&EvictedKind::Restoring);
        thread::scope(|s| {
            // A held core is a busy session: the sweep evicts only `slow`.
            let busy = ho.cell.core.lock().unwrap();
            // Holding `evicted` parks the sweep after it has marked `slow`
            // dead and let go of its core; holding that core then parks the
            // persist, so the persist is in flight for as long as needed.
            let parked = conductor.evicted.lock().unwrap();
            let evict = s.spawn(|| sweep_all_idle(&conductor));
            while !hs.cell.dead.load(Ordering::Acquire) {
                thread::yield_now();
            }
            let persist = hs.cell.core.lock().unwrap();
            drop(parked);
            while !persisting() {
                thread::yield_now();
            }
            drop(busy);
            let back = s.spawn(|| conductor.route(slow).unwrap());
            // The other tenant routes and reads while the persist runs, and
            // the evicted id's route waits for it.
            let h = conductor.route(other).unwrap();
            assert_eq!(h.query(&q, QueryOpts::default()).unwrap().len(), 1);
            assert!(persisting());
            assert!(!back.is_finished(), "a route restored before the persist");
            drop(persist);
            evict.join().unwrap();
            // Then it warm-restarted exactly what the persist wrote: a
            // snapshot, and nothing to replay.
            let back = back.join().unwrap();
            assert_eq!(back.stats().unwrap().total_facts, 12 * 13 / 2);
            let durability = back.cell.core.lock().unwrap().session.durability();
            let durability = durability.unwrap();
            assert!(durability.loaded_snapshot);
            assert_eq!(durability.replayed_records, 0);
        });
        assert_eq!(conductor.session_count(), 2);
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.counter(M_EVICTIONS), Some(1));
        assert_eq!(snap.counter(M_EVICTIONS_RESTORED), Some(1));
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_strategy_out_of_range_fails_its_open_and_the_restart_skips_it() {
        let dir = temp_dir("strategy-range");
        let cfg = ConductorConfig {
            durable_root: Some(dir.clone()),
            ..ConductorConfig::default()
        };
        let conductor = Conductor::new(cfg.clone());
        let ids: Vec<u64> = (0..3)
            .map(|i| {
                let id = conductor.open(sigma("e(X,Y) -> e(Y,X)")).unwrap();
                let h = conductor.route(id).unwrap();
                h.apply(atoms(&format!("e(a{i},b{i})."))).unwrap();
                id
            })
            .collect();
        drop(conductor);
        let bad = dir.join(format!("session-{}", ids[1]));
        let manifest = bad.join("MANIFEST");
        let text = std::fs::read_to_string(&manifest).unwrap();
        let (from, to) = (
            "\nchase.strategy round_robin\n",
            "\nchase.strategy fixed_cycle 3\n",
        );
        assert!(text.contains(from), "{text}");
        std::fs::write(&manifest, text.replace(from, to)).unwrap();
        assert!(matches!(
            ChaseSession::open_with(&bad, DurabilityConfig::default()),
            Err(ServeError::StrategyOutOfRange {
                index: 3,
                constraints: 1
            })
        ));
        // The warm restart skips that directory and serves its siblings.
        let conductor = Conductor::new(cfg);
        assert_eq!(conductor.session_count(), 2);
        let snap = conductor.metrics_snapshot();
        assert_eq!(snap.counter(M_REOPEN_FAILED), Some(1));
        assert_eq!(
            conductor.route(ids[1]).unwrap_err(),
            ServeError::UnknownSession(ids[1])
        );
        for i in [0, 2] {
            let q = ConjunctiveQuery::parse(&format!("q(X) <- e(b{i},X)")).unwrap();
            let h = conductor.route(ids[i]).unwrap();
            assert_eq!(
                h.query(&q, QueryOpts::default()).unwrap(),
                vec![vec![Term::constant(&format!("a{i}"))]]
            );
        }
        drop(conductor);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
