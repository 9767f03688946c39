//! The chase runner: sequences of chase steps under a pluggable strategy.
//!
//! The paper's chase imposes *no* order on applicable constraints, and its
//! central negative results (Example 4) hinge on specific orders diverging
//! while others terminate. The runner therefore makes the order an explicit
//! [`Strategy`]:
//!
//! * [`Strategy::RoundRobin`] — scan constraints cyclically, one step each;
//! * [`Strategy::FixedCycle`] — apply constraints in a given cyclic order
//!   (reproduces Example 4's diverging sequence exactly);
//! * [`Strategy::Random`] — pick a uniformly random active trigger each step
//!   (seeded, for property tests over "every chase sequence" claims);
//! * [`Strategy::Phased`] — exhaust constraint groups in order (the
//!   terminating-order construction of Theorem 2).
//!
//! Budgets (`max_steps`, `max_nulls`) and the monitor-graph guard
//! (`monitor_depth`, Section 4.2) bound runs that would otherwise diverge.
//!
//! # The delta-driven trigger queue
//!
//! The engine keeps every currently fireable trigger in a trigger pool —
//! one ordered map per constraint, keyed by the normalized assignment — and
//! maintains it **incrementally**. After a TGD step adds atoms:
//!
//! * only constraints whose *body* predicates intersect the delta are
//!   re-matched, semi-naively: each new atom is pinned into each compatible
//!   body slot and the rest of the body is completed through the
//!   index-driven homomorphism searcher
//!   ([`crate::Matcher::for_each_delta_match`]);
//! * only pooled triggers whose *TGD head* some new atom can unify with
//!   are re-validated (new atoms are the only way a violated TGD trigger
//!   can become satisfied). The pool indexes each TGD's triggers per head
//!   atom by their frontier values, so a new atom looks up the few
//!   triggers it can satisfy instead of scanning the pool;
//! * a satisfied trigger is dropped, not remembered. Without a merge, a
//!   body match is discovered only through a new atom of its image, and no
//!   atom is new twice, so each trigger is probed at most once. A merge can
//!   make a match's image new again; the rediscovered trigger then pays one
//!   activity probe, which answers "satisfied" for good, because
//!   satisfaction is monotone under inserts and survives the renaming.
//!
//! EGD merges are delta-driven too. The store returns a
//! [`chase_core::MergeEffect`] naming the rows the merge rewrote, and the
//! engine repairs its structures from that delta: pooled substitutions and
//! (oblivious mode) fired memo keys are remapped through `from ↦ to`
//! (normalized keys sort by variable *name*, so the substitution
//! renormalizes them in place), remapped pool triggers are re-validated in
//! full, and the rewritten rows seed the same semi-naive re-matching and
//! head revalidation a TGD delta uses — no pool rebuild, no memo wipe.
//!
//! The oblivious chase's fired memo is a `KeyMemo`: the key set plus, for
//! each labeled null, the member keys that bind it. A forgotten fired
//! trigger would fire again — a wrong step, not an extra probe — so this
//! memo cannot go the way of the satisfied triggers. A merge only ever
//! renames a null, so the memo remap visits just the keys listed under
//! `from`, skipping entries already renamed away through another null they
//! bind, and never scans the whole memo. A key that binds no null is never
//! listed: inserting it costs one hash and no clone, as in a plain set;
//! under a Σ without EGDs no key is listed at all. The pool is still
//! scanned for keys that mention `from`.
//!
//! All matching work — pool rebuilds, semi-naive delta re-matching, head
//! revalidation, and the naive reference's full re-enumeration — goes
//! through a [`Matcher`]: each constraint body and head is compiled once per
//! statistics epoch into a `chase-plan` join program (greedy
//! bind-first/smallest-relation-first atom order, exact-row probes for fully
//! bound atoms). The programs enumerate the same homomorphism sets as the
//! classic backtracking searcher, and triggers are selected canonically by
//! normalized assignment, so enumeration order never reaches a trace.
//!
//! This replaces the seed engine's per-step full re-enumeration — a
//! backtracking search over the whole instance for every constraint on every
//! step, the quadratic blow-up *Stop the Chase* (Meier et al., 2009) calls
//! out — with work driven by each step's delta: body re-matching starts
//! from the new atoms, and head revalidation visits only the pooled
//! triggers in the head-index buckets the new atoms hash to. The old
//! behaviour is retained as [`chase_naive`] so tests and benches can
//! compare the two engines trigger for trigger: both select the
//! canonically least trigger (smallest constraint index, then smallest
//! normalized assignment), so their traces are bit-identical whenever the
//! pool is maintained correctly.

use crate::monitor::MonitorGraph;
use crate::step::{apply_step, StepEffect};
use crate::trigger::{key_order, normalize_in, Matcher};
use chase_core::fx::{FxHashMap, FxHashSet, FxHasher};
use chase_core::homomorphism::Subst;
use chase_core::{Atom, Constraint, ConstraintSet, Instance, MergeEffect, Sym, Term};
use chase_obs::{EventKind, Phase, PhaseTimer, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Standard chase (fire only violated triggers) or oblivious chase (fire
/// every body match once).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChaseMode {
    /// Fire a trigger only while the instantiated constraint is violated.
    #[default]
    Standard,
    /// Fire every `(constraint, assignment)` pair exactly once, violated or
    /// not (the oblivious chase used by c-stratification, Definition 4).
    Oblivious,
}

/// The order in which applicable constraints are fired.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Cycle through constraint indices `0..n`, applying at most one step per
    /// constraint per pass.
    #[default]
    RoundRobin,
    /// Cycle through the given constraint indices (repetitions allowed),
    /// applying at most one step per entry per pass.
    FixedCycle(Vec<usize>),
    /// Uniformly random choice among all active triggers, from a seeded RNG.
    Random {
        /// RNG seed; equal seeds give equal sequences.
        seed: u64,
    },
    /// Chase each group of constraint indices to completion before moving to
    /// the next group, then finish with a round-robin pass over everything
    /// (a no-op for correctly stratified phases, Theorem 2).
    Phased(Vec<Vec<usize>>),
}

impl Strategy {
    /// The first constraint index this strategy names that is out of range
    /// for a set of `constraints` constraints, if any. Only
    /// [`Strategy::FixedCycle`] and [`Strategy::Phased`] name indices; every
    /// run asserts this is `None` before it starts, and the serving layer
    /// uses it to reject a session template up front.
    pub fn out_of_range(&self, constraints: usize) -> Option<usize> {
        let beyond = |&ci: &usize| ci >= constraints;
        match self {
            Strategy::FixedCycle(order) => order.iter().copied().find(beyond),
            Strategy::Phased(phases) => phases.iter().flatten().copied().find(beyond),
            Strategy::RoundRobin | Strategy::Random { .. } => None,
        }
    }
}

/// Chase configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaseConfig {
    /// Standard or oblivious stepping.
    pub mode: ChaseMode,
    /// Firing order.
    pub strategy: Strategy,
    /// Stop after this many steps (`None` = unbounded — beware, the chase
    /// need not terminate).
    pub max_steps: Option<usize>,
    /// Stop after inventing this many fresh nulls.
    pub max_nulls: Option<usize>,
    /// Abort as soon as the monitor graph becomes k-cyclic for this `k`
    /// (Section 4.2). Implies monitor-graph maintenance.
    pub monitor_depth: Option<usize>,
    /// Keep a full step-by-step trace in the result.
    pub keep_trace: bool,
    /// Maintain (and return) the monitor graph even without a depth guard.
    pub keep_monitor: bool,
}

impl Default for ChaseConfig {
    fn default() -> ChaseConfig {
        ChaseConfig {
            mode: ChaseMode::Standard,
            strategy: Strategy::RoundRobin,
            max_steps: Some(10_000),
            max_nulls: None,
            monitor_depth: None,
            keep_trace: false,
            keep_monitor: false,
        }
    }
}

impl ChaseConfig {
    /// Default configuration with a step budget.
    pub fn with_max_steps(n: usize) -> ChaseConfig {
        ChaseConfig {
            max_steps: Some(n),
            ..ChaseConfig::default()
        }
    }

    /// Default configuration with the Section 4.2 monitor guard.
    pub fn with_monitor_depth(k: usize) -> ChaseConfig {
        ChaseConfig {
            monitor_depth: Some(k),
            max_steps: None,
            ..ChaseConfig::default()
        }
    }
}

/// Why the run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The instance satisfies every constraint: the chase terminated and the
    /// result is `I^Σ`.
    Satisfied,
    /// An EGD tried to equate two distinct constants: the chase fails.
    Failed,
    /// The step budget was exhausted with violations remaining.
    StepLimit(usize),
    /// The fresh-null budget was exhausted.
    NullLimit(usize),
    /// The monitor graph became k-cyclic for the configured depth: the
    /// sequence is *potentially* infinite and no guarantee can be given.
    MonitorAbort {
        /// The configured cycle depth that was reached.
        depth: usize,
    },
}

/// One applied chase step, as recorded in the trace.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Index of the fired constraint.
    pub constraint: usize,
    /// The trigger assignment, restricted to universal variables and sorted
    /// by variable name.
    pub assignment: Vec<(Sym, Term)>,
    /// The instantiated body under the assignment.
    pub ground_body: Vec<Atom>,
    /// Atoms newly added (TGD steps).
    pub added: Vec<Atom>,
    /// Fresh nulls invented (TGD steps).
    pub fresh_nulls: Vec<Term>,
    /// Merge performed (EGD steps): `(from, to)`.
    pub merged: Option<(Term, Term)>,
    /// Facts rewritten by the merge (EGD steps; `0` otherwise) — the size
    /// of the delta the pool was re-matched against.
    pub merge_rewritten: usize,
    /// Facts that collapsed onto existing rows during the merge (EGD
    /// steps; `0` otherwise).
    pub merge_collapsed: usize,
}

/// The outcome of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The final (or last reached) instance.
    pub instance: Instance,
    /// Why the run stopped.
    pub reason: StopReason,
    /// Number of chase steps applied (the sequence length `r`).
    pub steps: usize,
    /// Number of fresh nulls invented.
    pub fresh_nulls: usize,
    /// Per-step trace (only when `keep_trace`).
    pub trace: Vec<StepRecord>,
    /// The monitor graph (only when maintained).
    pub monitor: Option<MonitorGraph>,
}

impl ChaseResult {
    /// Did the chase terminate with `I ⊨ Σ`?
    pub fn terminated(&self) -> bool {
        self.reason == StopReason::Satisfied
    }

    /// Did the chase fail on an EGD?
    pub fn failed(&self) -> bool {
        self.reason == StopReason::Failed
    }
}

impl fmt::Display for ChaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} after {} steps ({} fresh nulls, {} atoms)",
            self.reason,
            self.steps,
            self.fresh_nulls,
            self.instance.len()
        )
    }
}

/// Canonical identity of a trigger: the normalized assignment of the
/// constraint's universal variables (see [`crate::trigger::normalize`]).
type TriggerKey = Vec<(Sym, Term)>;

/// One TGD head atom, as the pool's revalidation index sees it.
///
/// An added atom can newly satisfy a pooled trigger's head only by unifying
/// with the trigger's instance of some head atom: same predicate and arity,
/// the atom's constants in place, and µ's values at its frontier positions.
/// The slot buckets pooled triggers by a hash of those frontier values, so
/// an added atom finds every trigger it might satisfy through this atom by
/// hashing its own values at the same positions.
#[derive(Clone)]
struct HeadSlot {
    pred: Sym,
    arity: usize,
    /// `(position, constant)`: what a unifying atom must carry there.
    consts: Vec<(usize, Term)>,
    /// `(position, universal variable)`, in position order.
    frontier: Vec<(usize, Sym)>,
    /// Frontier-value hash → the pooled keys with those values. A hash
    /// collision only adds a candidate; revalidation's exact check drops it.
    buckets: FxHashMap<u64, FxHashSet<TriggerKey>>,
}

/// Hash a sequence of terms the same way for triggers and atoms.
fn hash_terms(terms: impl Iterator<Item = Term>) -> u64 {
    let mut h = FxHasher::default();
    for t in terms {
        t.hash(&mut h);
    }
    h.finish()
}

impl HeadSlot {
    fn new(atom: &Atom, universals: &[Sym]) -> HeadSlot {
        let mut consts = Vec::new();
        let mut frontier = Vec::new();
        for (p, &t) in atom.terms().iter().enumerate() {
            match t {
                Term::Var(v) if universals.contains(&v) => frontier.push((p, v)),
                Term::Var(_) => {}
                _ => consts.push((p, t)),
            }
        }
        HeadSlot {
            pred: atom.pred(),
            arity: atom.arity(),
            consts,
            frontier,
            buckets: FxHashMap::default(),
        }
    }

    fn trigger_hash(&self, mu: &Subst) -> u64 {
        hash_terms(
            self.frontier
                .iter()
                .map(|&(_, v)| mu.var(v).expect("a pooled trigger binds every universal")),
        )
    }

    /// The bucket `a` would unify into, or `None` when its predicate,
    /// arity or constants rule out every trigger.
    fn atom_hash(&self, a: &Atom) -> Option<u64> {
        let terms = a.terms();
        let fits = a.pred() == self.pred
            && terms.len() == self.arity
            && self.consts.iter().all(|&(p, t)| terms[p] == t);
        fits.then(|| hash_terms(self.frontier.iter().map(|&(p, _)| terms[p])))
    }

    fn add(&mut self, key: &TriggerKey, mu: &Subst) {
        let h = self.trigger_hash(mu);
        self.buckets.entry(h).or_default().insert(key.clone());
    }

    fn remove(&mut self, key: &TriggerKey, mu: &Subst) {
        let h = self.trigger_hash(mu);
        let bucket = self
            .buckets
            .get_mut(&h)
            .expect("a pooled trigger is indexed in every head slot");
        bucket.remove(key);
        if bucket.is_empty() {
            self.buckets.remove(&h);
        }
    }
}

/// The currently fireable triggers, one ordered map per constraint.
///
/// `BTreeMap` gives the canonical within-constraint order (assignments
/// compare by interned symbol id, then term) that both engines use for
/// selection, and `pop_first` hands the fired trigger out by value — no
/// `Subst` clone on the hot path.
///
/// In standard mode every TGD's head atoms also index its pooled triggers
/// ([`HeadSlot`]), so head revalidation visits only the triggers an added
/// atom can unify with instead of the whole pool. Every mutation below
/// keeps the index in step with the maps.
#[derive(Clone)]
struct TriggerPool {
    pools: Vec<BTreeMap<TriggerKey, Subst>>,
    /// Per constraint, one slot per TGD head atom; empty for EGDs and in
    /// oblivious mode, where nothing revalidates.
    slots: Vec<Vec<HeadSlot>>,
    total: usize,
}

impl TriggerPool {
    fn new(set: &ConstraintSet, mode: ChaseMode) -> TriggerPool {
        let slots = set
            .enumerate()
            .map(|(_, c)| match c {
                Constraint::Tgd(t) if mode == ChaseMode::Standard => t
                    .head()
                    .iter()
                    .map(|a| HeadSlot::new(a, t.universals()))
                    .collect(),
                _ => Vec::new(),
            })
            .collect();
        TriggerPool {
            pools: (0..set.len()).map(|_| BTreeMap::new()).collect(),
            slots,
            total: 0,
        }
    }

    fn insert(&mut self, ci: usize, key: TriggerKey, mu: Subst) -> bool {
        match self.pools[ci].entry(key) {
            Entry::Occupied(mut e) => {
                // Equal keys bind every universal alike, so the frontier
                // values — and the index — are unchanged.
                e.insert(mu);
                false
            }
            Entry::Vacant(e) => {
                for slot in &mut self.slots[ci] {
                    slot.add(e.key(), &mu);
                }
                e.insert(mu);
                self.total += 1;
                true
            }
        }
    }

    fn contains(&self, ci: usize, key: &TriggerKey) -> bool {
        self.pools[ci].contains_key(key)
    }

    /// Account for a trigger just taken out of `pools[ci]`: drop it from
    /// the index and the total.
    fn unindex(&mut self, ci: usize, key: &TriggerKey, mu: &Subst) {
        for slot in &mut self.slots[ci] {
            slot.remove(key, mu);
        }
        self.total -= 1;
    }

    fn remove(&mut self, ci: usize, key: &TriggerKey) -> Option<Subst> {
        let mu = self.pools[ci].remove(key)?;
        self.unindex(ci, key, &mu);
        Some(mu)
    }

    fn pop_first(&mut self, ci: usize) -> Option<(TriggerKey, Subst)> {
        let (key, mu) = self.pools[ci].pop_first()?;
        self.unindex(ci, &key, &mu);
        Some((key, mu))
    }

    /// Remove and return the `n`-th trigger in global canonical order
    /// (constraint index, then assignment).
    fn take_nth(&mut self, mut n: usize) -> Option<(usize, TriggerKey, Subst)> {
        for ci in 0..self.pools.len() {
            let len = self.pools[ci].len();
            if n < len {
                let key = self.pools[ci]
                    .keys()
                    .nth(n)
                    .expect("index in range")
                    .clone();
                let mu = self.remove(ci, &key).expect("key just read");
                return Some((ci, key, mu));
            }
            n -= len;
        }
        None
    }

    fn clear(&mut self) {
        for pool in &mut self.pools {
            pool.clear();
        }
        for slot in self.slots.iter_mut().flatten() {
            slot.buckets.clear();
        }
        self.total = 0;
    }

    /// The pooled triggers of `ci` whose frontier values at some head atom
    /// an atom of `added` carries, in canonical key order: a superset of
    /// the triggers `added` may have newly satisfied (hash collisions and
    /// existential positions are left to the exact check).
    fn head_candidates(&self, ci: usize, added: &[Atom]) -> Vec<&TriggerKey> {
        let mut out: Vec<&TriggerKey> = Vec::new();
        for slot in &self.slots[ci] {
            // One visit per bucket, however many added atoms hash to it.
            let hashes: FxHashSet<u64> = added.iter().filter_map(|a| slot.atom_hash(a)).collect();
            for h in hashes {
                if let Some(bucket) = slot.buckets.get(&h) {
                    out.extend(bucket);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The resumable core of a chase run: the instance together with every
/// incrementally maintained matching structure — the trigger pool, the
/// oblivious fired memo, the compiled [`Matcher`] plan cache, the monitor
/// graph, and the cumulative step/null counters.
///
/// A one-shot [`chase`] builds an `EngineState`, drives it to a stop, and
/// tears it apart into a [`ChaseResult`]. The serving layer
/// (`chase-serve`) instead keeps one alive across update batches: after
/// [`EngineState::insert_batch`] the pool has already been re-matched
/// semi-naively from the batch delta, so [`chase_resume`] continues the
/// chase warm instead of rebuilding pool, memos, and plans from scratch.
///
/// Warm continuation is sound because the pool's verdicts are monotone
/// under the chase's own operations: added atoms (chase steps *or*
/// base-fact batches) never un-satisfy a TGD trigger and never change an
/// EGD trigger's bindings, and EGD merges rename terms permanently, so a
/// trigger dropped as satisfied stays satisfied, and a fired one stays
/// fired once its key is remapped through the merge.
/// Trigger selection stays canonical, so a resumed chase is some legal
/// chase sequence of the accumulated base facts.
///
/// The state is only meaningful for the `(set, cfg)` pair it was built
/// with; methods taking them again expect the *same* values (the session
/// layer owns all three together). `Clone` is the snapshot/fork
/// primitive: the columnar instance, the pool's ordered maps, and the plan
/// cache all clone without re-deriving anything.
#[derive(Clone)]
pub struct EngineState {
    inst: Instance,
    steps: usize,
    fresh_nulls: usize,
    monitor: Option<MonitorGraph>,
    /// Oblivious mode: triggers that already fired, keyed per constraint so
    /// membership probes borrow the key instead of cloning it.
    fired: Vec<KeyMemo>,
    /// The incrementally maintained active-trigger queue (delta engine only).
    pool: TriggerPool,
    /// Per-constraint body predicates, for delta → constraint dispatch.
    body_preds: Vec<FxHashSet<Sym>>,
    /// Per-constraint [`key_order`]: trigger keys are built in it, so
    /// normalizing a match never sorts by name.
    key_orders: Vec<Vec<Sym>>,
    /// The matching engine every trigger query goes through: compiled
    /// `chase-plan` join programs. Refreshed when the instance's statistics
    /// epoch moves; it only ever reads the instance.
    matcher: Matcher,
    /// Facts rewritten by EGD merges, cumulative across every run over
    /// this state (merge-cost observability for the serving layer).
    merge_rewritten: usize,
    /// Facts removed by merge deduplication, cumulative.
    merge_collapsed: usize,
    /// Did the pool's initial full enumeration run yet? (Delta engines
    /// only; the naive reference never builds the pool.)
    pool_built: bool,
    /// A terminal stop ([`StopReason::Failed`] or
    /// [`StopReason::MonitorAbort`]) observed by some run over this state.
    /// Budget stops are *not* terminal — a later resume gets a fresh
    /// budget — but a failed or aborted state cannot be chased further.
    poisoned: Option<StopReason>,
    /// Telemetry sink: per-phase wall-clock histograms and the event ring.
    /// Strictly write-only from the engine's point of view — nothing here
    /// is ever read back into trigger selection, so recording cannot
    /// perturb the deterministic trace. Defaults to the process-global
    /// recorder ([`chase_obs::global`], enabled by `CHASE_OBS`); `Clone`
    /// shares the sink, so forks and snapshots keep feeding one recorder.
    recorder: Recorder,
}

impl EngineState {
    /// Build fresh state for chasing `instance` under `set`/`cfg`: clones
    /// the instance, compiles the matcher, and sets up the dispatch tables.
    /// The trigger pool itself is populated lazily by the first run (or
    /// resume) over the state.
    pub fn new(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> EngineState {
        let monitor = if cfg.monitor_depth.is_some() || cfg.keep_monitor {
            Some(MonitorGraph::new())
        } else {
            None
        };
        let body_preds: Vec<FxHashSet<Sym>> = set
            .enumerate()
            .map(|(_, c)| c.body().iter().map(|a| a.pred()).collect())
            .collect();
        let key_orders: Vec<Vec<Sym>> = set.enumerate().map(|(_, c)| key_order(c)).collect();
        let renames = set
            .enumerate()
            .any(|(_, c)| matches!(c, Constraint::Egd(_)));
        let inst = instance.clone();
        let recorder = chase_obs::global().clone();
        let matcher = Matcher::planned_with(set, &inst, recorder.clone());
        EngineState {
            inst,
            steps: 0,
            fresh_nulls: 0,
            monitor,
            fired: vec![KeyMemo::new(renames); set.len()],
            pool: TriggerPool::new(set, cfg.mode),
            body_preds,
            key_orders,
            matcher,
            merge_rewritten: 0,
            merge_collapsed: 0,
            pool_built: false,
            poisoned: None,
            recorder,
        }
    }

    /// Install a telemetry recorder for this state (and its matcher),
    /// replacing the process-global default. The recorder only *observes* —
    /// phase timings and events never feed back into trigger selection —
    /// so traces are bit-identical whether it is enabled or not.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.matcher.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// The telemetry recorder this state reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The current instance (chased as far as the runs so far got).
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Consume the state, keeping only the instance.
    pub fn into_instance(self) -> Instance {
        self.inst
    }

    /// Chase steps applied across every run over this state.
    pub fn total_steps(&self) -> usize {
        self.steps
    }

    /// Fresh nulls invented across every run over this state.
    pub fn total_fresh_nulls(&self) -> usize {
        self.fresh_nulls
    }

    /// Facts rewritten by EGD merges across every run over this state —
    /// the total merge delta the pool was re-matched against.
    pub fn total_merge_rewritten(&self) -> usize {
        self.merge_rewritten
    }

    /// Facts that collapsed onto existing rows during EGD merges across
    /// every run over this state.
    pub fn total_merge_collapsed(&self) -> usize {
        self.merge_collapsed
    }

    /// The matcher (plan cache) the state threads through every run — for
    /// plan-cache-reuse introspection (`Matcher::recompile_count`).
    pub fn matcher(&self) -> &Matcher {
        &self.matcher
    }

    /// The monitor graph, when the configuration maintains one.
    pub fn monitor(&self) -> Option<&MonitorGraph> {
        self.monitor.as_ref()
    }

    /// The terminal stop that poisoned this state, if any: an EGD
    /// [`StopReason::Failed`] or a [`StopReason::MonitorAbort`]. Poisoned
    /// states refuse further chasing ([`chase_resume`] returns the reason
    /// immediately); budget stops do not poison.
    pub fn poisoned(&self) -> Option<&StopReason> {
        self.poisoned.as_ref()
    }

    /// Is the state fully chased — the pool built, empty, and the state not
    /// poisoned? A quiescent standard-mode state satisfies its constraint
    /// set; resuming it is a no-op.
    pub fn quiescent(&self) -> bool {
        self.pool_built && self.pool.total == 0 && self.poisoned.is_none()
    }

    /// Ingest a batch of ground base facts and update the trigger pool
    /// incrementally: the batch is inserted atomically
    /// ([`Instance::insert_batch`]), plans are refreshed if the batch moved
    /// the statistics epoch, pooled triggers whose heads the new atoms may
    /// have satisfied are revalidated, and affected constraints are
    /// re-matched semi-naively from the batch delta — exactly the
    /// maintenance a TGD chase step performs for its own added atoms.
    ///
    /// Returns the actually-new atoms (duplicates contribute no work: the
    /// pool, plans, and statistics are untouched by an all-duplicate
    /// batch). Does **not** chase; call [`chase_resume`] afterwards.
    ///
    /// # Errors
    /// A non-ground atom anywhere in the batch rejects the whole batch and
    /// leaves the state untouched.
    ///
    /// # Panics
    /// Panics on a poisoned state (see [`EngineState::poisoned`]): its pool
    /// is inconsistent and the accepted facts could never be chased, so
    /// silently ingesting them would corrupt the session's contract. Check
    /// `poisoned()` first (the `chase-serve` layer does, turning it into
    /// an error).
    pub fn insert_batch(
        &mut self,
        set: &ConstraintSet,
        cfg: &ChaseConfig,
        batch: impl IntoIterator<Item = Atom>,
    ) -> Result<Vec<Atom>, chase_core::CoreError> {
        assert!(
            self.poisoned.is_none(),
            "insert_batch on a poisoned EngineState ({:?})",
            self.poisoned
        );
        let added = self.inst.insert_batch(batch)?;
        if !added.is_empty() {
            // Same maintenance order as a TGD step in `Run::fire`: refresh
            // plans first (the batch may have crossed a stats epoch — and
            // before the *first* run, the plans still carry the seed
            // instance's statistics), then revalidate + re-match from the
            // delta. Before the initial pool build the delta work is moot:
            // the first run's full enumeration will see the batch.
            self.matcher.refresh(set, &self.inst);
            if self.pool_built {
                Run::new(set, cfg, self, false).apply_delta(&added);
            }
        }
        Ok(added)
    }
}

/// Internal per-run view: borrows a (possibly resumed) [`EngineState`] and
/// drives it under one `(set, cfg, strategy)` until a stop. Budgets are
/// per run — a resumed state's accumulated totals don't eat into a new
/// run's budget — and the trace is per run too.
struct Run<'a> {
    set: &'a ConstraintSet,
    cfg: &'a ChaseConfig,
    st: &'a mut EngineState,
    /// Naive reference mode: skip all pool maintenance and re-enumerate
    /// triggers from scratch at every step (the seed engine's behaviour).
    naive: bool,
    rng: Option<StdRng>,
    stop: Option<StopReason>,
    trace: Vec<StepRecord>,
    /// Step/null counters at run start — the budget baselines.
    steps0: usize,
    nulls0: usize,
}

/// Does this normalized key bind some variable to `t`?
fn key_mentions(key: &TriggerKey, t: Term) -> bool {
    key.iter().any(|&(_, bound)| bound == t)
}

/// Substitute `from ↦ to` in a normalized key. Keys sort by variable
/// *name*, which the substitution leaves untouched, so the result is
/// normalized too.
fn remap_key(key: &TriggerKey, from: Term, to: Term) -> TriggerKey {
    key.iter()
        .map(|&(v, t)| (v, if t == from { to } else { t }))
        .collect()
}

/// Substitute `from ↦ to` in a trigger assignment.
fn remap_subst(mu: &Subst, from: Term, to: Term) -> Subst {
    let mut nu = Subst::new();
    for (v, t) in mu.var_bindings() {
        nu.bind_var(v, if t == from { to } else { t });
    }
    nu
}

/// A per-constraint memo of the oblivious chase's fired trigger keys that
/// an EGD merge can rename in O(keys binding the merged-away null) instead
/// of a scan of every key.
///
/// `by_null` lists, under each null, the member keys that bind it. It is
/// append-only between remaps and may hold stale entries: a key binding
/// two nulls is listed under both, and once a merge of one renames it, its
/// entry under the other names a key that is no longer a member. A remap
/// skips such entries by checking membership. Keys binding no null are
/// never listed, so inserting one costs one hash and no clone, as in a
/// plain set. Under a Σ without EGDs nothing is ever renamed, so `by_null`
/// is `None` and no key is listed at all.
#[derive(Clone)]
struct KeyMemo {
    keys: FxHashSet<TriggerKey>,
    by_null: Option<FxHashMap<u32, Vec<TriggerKey>>>,
}

impl KeyMemo {
    /// An empty memo; `renames` says whether Σ has an EGD, the only way a
    /// key's null is ever renamed.
    fn new(renames: bool) -> KeyMemo {
        KeyMemo {
            keys: FxHashSet::default(),
            by_null: renames.then(FxHashMap::default),
        }
    }

    fn contains(&self, key: &TriggerKey) -> bool {
        self.keys.contains(key)
    }

    /// Add `key`; `false` if it was already a member.
    fn insert(&mut self, key: TriggerKey) -> bool {
        let Some(by_null) = &mut self.by_null else {
            return self.keys.insert(key);
        };
        if !key.iter().any(|&(_, t)| t.is_null()) || self.keys.contains(&key) {
            return self.keys.insert(key);
        }
        for (i, &(_, t)) in key.iter().enumerate() {
            // List the key once per distinct null: at its first binding.
            if let Some(n) = t
                .as_null()
                .filter(|_| key[..i].iter().all(|&(_, u)| u != t))
            {
                by_null.entry(n).or_default().push(key.clone());
            }
        }
        self.keys.insert(key)
    }

    /// Rename every member key binding `from` through `from ↦ to`. Renamed
    /// keys can collide with existing members; set union is exactly what
    /// the fired memo's semantics want ("already fired" holds for the
    /// collided key either way).
    ///
    /// Only a null is ever merged away (the paper's EGD rule replaces a
    /// null), so a constant `from` binds no listed key and renames nothing.
    fn remap(&mut self, from: Term, to: Term) {
        debug_assert!(from.is_null(), "an EGD merge renames a null, not {from}");
        let by_null = self
            .by_null
            .as_mut()
            .expect("only a constraint set with an EGD merges");
        let Some(listed) = from.as_null().and_then(|n| by_null.remove(&n)) else {
            return;
        };
        for key in listed {
            // Stale: already renamed away through another null it binds.
            if self.keys.remove(&key) {
                self.insert(remap_key(&key, from, to));
            }
        }
    }
}

/// Sampling mask for the *per-step* telemetry sites — the
/// [`Phase::HeadRevalidate`], [`Phase::DeltaMatch`] and (TGD steps only)
/// [`Phase::Insert`] timers plus the [`EventKind::StepFired`] event.
/// Timing every step costs a handful of clock reads per chase step, which
/// dominates micro-chases (the CI overhead gate caps the recording-on vs
/// -off median delta on `ex4_strategies` at 5%); instead, one step in 64
/// records the full
/// decomposition and the rest skip even the clock reads. The gate is keyed
/// on the deterministic step counter, so sampling is write-only and
/// reproducible — it can never perturb trigger selection — and step 0
/// always samples, so even a two-fact session surfaces nonzero phase
/// percentiles. The rare, heavy sites ([`Phase::MergeRepair`], one sample
/// per effective EGD merge; [`Phase::PoolMaintain`], [`Phase::PlanCompile`]
/// and all other events) record every occurrence.
const OBS_SAMPLE_MASK: u64 = 63;

impl<'a> Run<'a> {
    fn new(
        set: &'a ConstraintSet,
        cfg: &'a ChaseConfig,
        st: &'a mut EngineState,
        naive: bool,
    ) -> Run<'a> {
        if let Some(ci) = cfg.strategy.out_of_range(set.len()) {
            panic!(
                "strategy names constraint {ci}, but the set has {} constraints",
                set.len()
            );
        }
        let rng = match cfg.strategy {
            Strategy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let (steps0, nulls0) = (st.steps, st.fresh_nulls);
        let mut run = Run {
            set,
            cfg,
            st,
            naive,
            rng,
            stop: None,
            trace: Vec::new(),
            steps0,
            nulls0,
        };
        if !run.naive && !run.st.pool_built {
            let _t = run.st.recorder.phase(Phase::PoolMaintain);
            run.rebuild_pool();
            run.st.pool_built = true;
        }
        run
    }

    /// Does the current step land on the [`OBS_SAMPLE_MASK`] sampling
    /// grid? Decides whether this step's per-step telemetry records.
    #[inline]
    fn step_sampled(&self) -> bool {
        self.st.steps as u64 & OBS_SAMPLE_MASK == 0
    }

    /// A [`Recorder::phase`] timer when this step is sampled, a disarmed
    /// guard (no clock read, nothing recorded) otherwise.
    #[inline]
    fn sampled_phase(&self, phase: Phase) -> PhaseTimer {
        if self.step_sampled() {
            self.st.recorder.phase(phase)
        } else {
            PhaseTimer::disarmed()
        }
    }

    /// Is `(ci, µ)` fireable right now, honoring the chase mode?
    fn fires(&self, ci: usize, c: &Constraint, mu: &Subst, key: &TriggerKey) -> bool {
        match self.cfg.mode {
            ChaseMode::Standard => self.st.matcher.is_active(ci, c, &self.st.inst, mu),
            ChaseMode::Oblivious => !self.st.fired[ci].contains(key),
        }
    }

    /// Populate the pool from a full enumeration — the **initial build**
    /// only. EGD merges used to route through here conservatively; they
    /// are now repaired incrementally by [`Run::apply_merge_delta`], so a
    /// running engine never re-enumerates.
    fn rebuild_pool(&mut self) {
        // Split borrows: the matcher holds `inst` while the callback fills
        // `pool`.
        let Run { set, cfg, st, .. } = self;
        let EngineState {
            inst,
            fired,
            pool,
            matcher,
            key_orders,
            ..
        } = &mut **st;
        pool.clear();
        let matcher = &*matcher;
        for (ci, c) in set.enumerate() {
            matcher.for_each_body_hom(ci, inst, &mut |mu| {
                let key = normalize_in(&key_orders[ci], mu);
                let fires = match cfg.mode {
                    ChaseMode::Standard => matcher.is_active(ci, c, inst, mu),
                    ChaseMode::Oblivious => !fired[ci].contains(&key),
                };
                if fires && !pool.contains(ci, &key) {
                    pool.insert(ci, key, mu.clone());
                }
                false
            });
        }
    }

    /// Semi-naive re-matching of the `affected` constraints against `delta`
    /// (a subset of the instance): the fireable triggers not yet pooled, as
    /// `(constraint, key, assignment)`, deduplicated per constraint.
    ///
    /// A satisfied trigger found again costs one activity probe here: no
    /// memo remembers it. Without an EGD that never happens — a match is
    /// found only through a new atom of its image, and no atom is new
    /// twice — so under such a Σ a found trigger is never already pooled.
    fn collect_delta_matches(
        &self,
        affected: &[usize],
        delta: &[Atom],
    ) -> Vec<(usize, TriggerKey, Subst)> {
        let mut out = Vec::new();
        let egd_free = cfg!(debug_assertions) && !self.set.iter().any(Constraint::is_egd);
        for &ci in affected {
            let c = &self.set[ci];
            // The map both dedups matches reported once per delta atom they
            // use and distinct homomorphisms that normalize to the same
            // trigger.
            let mut found: FxHashMap<TriggerKey, Subst> = FxHashMap::default();
            let pool = &self.st.pool;
            let fired = &self.st.fired;
            let mode = self.cfg.mode;
            let order = &self.st.key_orders[ci];
            self.st
                .matcher
                .for_each_delta_match(ci, c, &self.st.inst, delta, &mut |mu| {
                    let key = normalize_in(order, mu);
                    let pooled = pool.contains(ci, &key);
                    debug_assert!(
                        !(egd_free && pooled),
                        "an EGD-free delta rediscovered pooled trigger {ci} {key:?}"
                    );
                    let known = pooled
                        || (mode == ChaseMode::Oblivious && fired[ci].contains(&key))
                        || found.contains_key(&key);
                    if !known {
                        found.insert(key, mu.clone());
                    }
                    false
                });
            let (inst, matcher) = (&self.st.inst, &self.st.matcher);
            out.extend(
                found
                    .into_iter()
                    .filter(|(_, mu)| {
                        mode == ChaseMode::Oblivious || matcher.is_active(ci, c, inst, mu)
                    })
                    .map(|(key, mu)| (ci, key, mu)),
            );
        }
        out
    }

    /// Incremental pool update after a TGD step added `added` to the
    /// instance.
    fn apply_delta(&mut self, added: &[Atom]) {
        if added.is_empty() {
            return;
        }
        let delta_preds: FxHashSet<Sym> = added.iter().map(|a| a.pred()).collect();
        // Revalidate pooled triggers that the new atoms may have satisfied.
        // A violated TGD trigger becomes satisfied only when a new atom
        // unifies with one of its instantiated head atoms, which pins the
        // atom's values at that head atom's frontier positions. The pool's
        // head index hands out every trigger whose frontier values some new
        // atom carries, and the exact check below decides. (Oblivious
        // triggers and EGD triggers never die from added atoms.)
        if self.cfg.mode == ChaseMode::Standard {
            let _t = self.sampled_phase(Phase::HeadRevalidate);
            for ci in 0..self.set.len() {
                let Constraint::Tgd(t) = &self.set[ci] else {
                    continue;
                };
                let head = t.head();
                let pool = &self.st.pool;
                let candidates = pool.head_candidates(ci, added);
                if candidates.is_empty() {
                    continue;
                }
                let (inst, matcher) = (&self.st.inst, &self.st.matcher);
                let satisfied: Vec<TriggerKey> = candidates
                    .into_iter()
                    .filter(|&key| {
                        let mu = &pool.pools[ci][key];
                        matcher.head_newly_satisfied(ci, head, inst, added, mu)
                    })
                    .cloned()
                    .collect();
                for key in satisfied {
                    self.st.pool.remove(ci, &key);
                }
            }
        }
        // Re-match constraints whose body can see the delta, seeded from the
        // new atoms.
        let _t = self.sampled_phase(Phase::DeltaMatch);
        let affected: Vec<usize> = (0..self.set.len())
            .filter(|&ci| !self.st.body_preds[ci].is_disjoint(&delta_preds))
            .collect();
        if affected.is_empty() {
            return;
        }
        for (ci, key, mu) in self.collect_delta_matches(&affected, added) {
            self.st.pool.insert(ci, key, mu);
        }
    }

    /// Repair the pool after an EGD merge — the delta-shaped replacement
    /// for the old conservative full rebuild:
    ///
    /// 1. **Remap.** Every pooled trigger whose key mentions `from` is
    ///    rewritten through `from ↦ to` (normalized keys sort by variable
    ///    *name*, so substituting the bound terms renormalizes them in
    ///    place; equal bound variables imply equal substitutions, so key
    ///    collisions are idempotent). A remapped pooled trigger is
    ///    re-admitted only if it is still active under its new bindings —
    ///    a *full* activity check, because the remapped head instantiation
    ///    can coincide with an unchanged fact, and an EGD's sides can have
    ///    become equal — and not already pooled (or fired, oblivious mode)
    ///    under its new name.
    /// 2. **Re-match.** The surviving rewritten rows, returned, are the
    ///    merge's delta: the caller gives them the exact maintenance a TGD
    ///    step's added atoms get ([`Run::apply_delta`] — head revalidation
    ///    of pooled triggers, then semi-naive body re-matching).
    ///
    /// Soundness rests on two facts. A body match mentions a rewritten row
    /// iff its assignment binds `from` (the merged-away null cannot occur
    /// in a body constant), so remapping the mentioning keys covers every
    /// stale pool entry. And any body match new after the merge embeds at
    /// least one row content that is new to the store — a subset of the
    /// rewritten rows — so delta seeding discovers it.
    fn apply_merge_delta(&mut self, m: &MergeEffect) -> Vec<Atom> {
        for ci in 0..self.set.len() {
            let stale: Vec<TriggerKey> = self.st.pool.pools[ci]
                .keys()
                .filter(|k| key_mentions(k, m.from))
                .cloned()
                .collect();
            for key in stale {
                let mu = self
                    .st
                    .pool
                    .remove(ci, &key)
                    .expect("stale key just listed");
                let key = remap_key(&key, m.from, m.to);
                let mu = remap_subst(&mu, m.from, m.to);
                if !self.st.pool.contains(ci, &key) && self.fires(ci, &self.set[ci], &mu, &key) {
                    self.st.pool.insert(ci, key, mu);
                }
            }
        }
        m.rewritten
            .iter()
            .map(|&f| self.st.inst.atom_at(f))
            .collect()
    }

    /// Next fireable trigger for constraint `ci` under the naive reference:
    /// re-enumerate every body homomorphism and keep the canonically least
    /// fireable one, exactly like the pool (but in O(instance) per call).
    fn naive_next_trigger(&self, ci: usize) -> Option<(TriggerKey, Subst)> {
        let c = &self.set[ci];
        let mut best: Option<(TriggerKey, Subst)> = None;
        self.st
            .matcher
            .for_each_body_hom(ci, &self.st.inst, &mut |mu| {
                let key = normalize_in(&self.st.key_orders[ci], mu);
                if best.as_ref().is_none_or(|(bk, _)| key < *bk) && self.fires(ci, c, mu, &key) {
                    best = Some((key, mu.clone()));
                }
                false
            });
        best
    }

    /// All fireable triggers in global canonical order, re-enumerated from
    /// scratch (naive reference for `Random`).
    fn naive_all_triggers(&self) -> Vec<(usize, TriggerKey, Subst)> {
        let mut out: Vec<(usize, TriggerKey, Subst)> = Vec::new();
        for (ci, c) in self.set.enumerate() {
            let mut per: BTreeMap<TriggerKey, Subst> = BTreeMap::new();
            self.st
                .matcher
                .for_each_body_hom(ci, &self.st.inst, &mut |mu| {
                    let key = normalize_in(&self.st.key_orders[ci], mu);
                    if !per.contains_key(&key) && self.fires(ci, c, mu, &key) {
                        per.insert(key, mu.clone());
                    }
                    false
                });
            out.extend(per.into_iter().map(|(key, mu)| (ci, key, mu)));
        }
        out
    }

    /// Take the next trigger to fire for constraint `ci`, removing it from
    /// the pool in delta mode.
    fn take_next_trigger(&mut self, ci: usize) -> Option<(TriggerKey, Subst)> {
        if self.naive {
            self.naive_next_trigger(ci)
        } else {
            self.st.pool.pop_first(ci)
        }
    }

    /// Apply one step; returns `false` when the run must stop.
    fn fire(&mut self, ci: usize, key: TriggerKey, mu: Subst) -> bool {
        let c = &self.set[ci];
        if self.cfg.mode == ChaseMode::Oblivious {
            self.st.fired[ci].insert(key.clone());
        }
        let ground_body: Vec<Atom> = mu.apply_atoms(c.body());
        // One sampling decision covers the whole step: taken before the
        // counter moves, so the insert timer and the StepFired event
        // describe the same (sampled) step.
        let sampled = self.step_sampled();
        let is_tgd = matches!(c, Constraint::Tgd(_));
        let insert = if sampled && is_tgd {
            self.st.recorder.phase(Phase::Insert)
        } else {
            PhaseTimer::disarmed()
        };
        // An EGD step is timed unsampled instead: an effective merge
        // records one `merge_repair` sample spanning the store merge and the
        // memo/pool remap below (but not the delta re-match, which times
        // itself).
        let merge_t0 = (!is_tgd && self.st.recorder.is_enabled()).then(Instant::now);
        let effect = apply_step(&mut self.st.inst, c, &mu);
        drop(insert);
        self.st.steps += 1;
        if sampled {
            self.st
                .recorder
                .event(EventKind::StepFired, ci as u64, self.st.steps as u64);
        }
        let (added, fresh, merged, merge_stats) = match effect {
            StepEffect::Tgd {
                added, fresh_nulls, ..
            } => {
                // Plans are refreshed (statistics epoch permitting) before
                // the delta re-match, so growth-driven recompiles kick in as
                // soon as the data doubles.
                self.st.matcher.refresh(self.set, &self.st.inst);
                if !self.naive {
                    self.apply_delta(&added);
                }
                (added, fresh_nulls, None, (0, 0))
            }
            StepEffect::Merged(m) => {
                self.st.recorder.event(
                    EventKind::EgdMerge,
                    m.rewritten.len() as u64,
                    m.collapsed as u64,
                );
                // Merges maintain statistics incrementally, so the refresh
                // only recompiles if the collapses moved the stats epoch.
                self.st.matcher.refresh(self.set, &self.st.inst);
                if !m.is_noop() {
                    // A fired trigger stays fired under the renaming:
                    // remap the oblivious fired memo in *both* engines, so
                    // naive and delta traces keep moving together.
                    if self.cfg.mode == ChaseMode::Oblivious {
                        for memo in &mut self.st.fired {
                            memo.remap(m.from, m.to);
                        }
                    }
                    let rematch = (!self.naive).then(|| self.apply_merge_delta(&m));
                    if let Some(t0) = merge_t0 {
                        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        self.st.recorder.record_phase(Phase::MergeRepair, ns);
                    }
                    if let Some(rematch) = rematch {
                        self.apply_delta(&rematch);
                    }
                }
                self.st.merge_rewritten += m.rewritten.len();
                self.st.merge_collapsed += m.collapsed;
                let stats = (m.rewritten.len(), m.collapsed);
                (Vec::new(), Vec::new(), Some((m.from, m.to)), stats)
            }
            StepEffect::Failed => {
                self.stop = Some(StopReason::Failed);
                return false;
            }
            StepEffect::NoOp => (Vec::new(), Vec::new(), None, (0, 0)),
        };
        self.st.fresh_nulls += fresh.len();
        if let Some(monitor) = &mut self.st.monitor {
            if !fresh.is_empty() {
                monitor.record_tgd_step(ci, &ground_body, &fresh, &added);
            }
            if let Some(depth) = self.cfg.monitor_depth {
                if monitor.is_k_cyclic(depth) {
                    self.stop = Some(StopReason::MonitorAbort { depth });
                }
            }
        }
        if self.cfg.keep_trace {
            self.trace.push(StepRecord {
                constraint: ci,
                assignment: key,
                ground_body,
                added,
                fresh_nulls: fresh,
                merged,
                merge_rewritten: merge_stats.0,
                merge_collapsed: merge_stats.1,
            });
        }
        if self.stop.is_some() {
            return false;
        }
        if let Some(limit) = self.cfg.max_steps {
            if self.st.steps - self.steps0 >= limit && !self.satisfied() {
                self.stop = Some(StopReason::StepLimit(limit));
                return false;
            }
        }
        if let Some(limit) = self.cfg.max_nulls {
            if self.st.fresh_nulls - self.nulls0 >= limit && !self.satisfied() {
                self.stop = Some(StopReason::NullLimit(limit));
                return false;
            }
        }
        true
    }

    fn satisfied(&self) -> bool {
        if !self.naive {
            // The pool holds exactly the fireable triggers; empty ⇔ done
            // (standard: `I ⊨ Σ`; oblivious: no unfired body match remains).
            return self.st.pool.total == 0;
        }
        match self.cfg.mode {
            ChaseMode::Standard => self.set.satisfied_by(&self.st.inst),
            // The oblivious chase is done when no unfired trigger remains.
            ChaseMode::Oblivious => {
                (0..self.set.len()).all(|ci| self.naive_next_trigger(ci).is_none())
            }
        }
    }

    /// Run a cyclic order until a full pass makes no progress.
    fn run_cycle(&mut self, order: &[usize]) {
        loop {
            let mut progressed = false;
            for &ci in order {
                if self.stop.is_some() {
                    return;
                }
                if let Some((key, mu)) = self.take_next_trigger(ci) {
                    progressed = true;
                    if !self.fire(ci, key, mu) {
                        return;
                    }
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn run_random(&mut self) {
        loop {
            if self.stop.is_some() {
                return;
            }
            let (ci, key, mu) = if self.naive {
                let mut triggers = self.naive_all_triggers();
                if triggers.is_empty() {
                    return;
                }
                let pick = self
                    .rng
                    .as_mut()
                    .expect("random strategy has an RNG")
                    .gen_range(0..triggers.len());
                triggers.swap_remove(pick)
            } else {
                if self.st.pool.total == 0 {
                    return;
                }
                let pick = self
                    .rng
                    .as_mut()
                    .expect("random strategy has an RNG")
                    .gen_range(0..self.st.pool.total);
                let (ci, key, mu) = self.st.pool.take_nth(pick).expect("pick in range");
                (ci, key, mu)
            };
            if !self.fire(ci, key, mu) {
                return;
            }
        }
    }

    fn finish(mut self) -> ResumeOutcome {
        let reason = match self.stop.take() {
            Some(r) => r,
            None => {
                debug_assert!(
                    self.cfg.mode == ChaseMode::Oblivious || self.set.satisfied_by(&self.st.inst),
                    "chase stopped without exhausting triggers"
                );
                StopReason::Satisfied
            }
        };
        if matches!(reason, StopReason::Failed | StopReason::MonitorAbort { .. }) {
            // Terminal stops poison the state: an EGD failure leaves the
            // fired trigger consumed but its effect unapplied, and a
            // monitor abort would re-trip immediately — neither state can
            // be chased further.
            let depth = match reason {
                StopReason::MonitorAbort { depth } => depth as u64,
                _ => 0,
            };
            self.st.recorder.event(EventKind::Poison, depth, 0);
            self.st.poisoned = Some(reason.clone());
        }
        self.st.recorder.event(
            EventKind::ResumeEnd,
            (self.st.steps - self.steps0) as u64,
            self.st.pool.total as u64,
        );
        ResumeOutcome {
            reason,
            steps: self.st.steps - self.steps0,
            fresh_nulls: self.st.fresh_nulls - self.nulls0,
            trace: self.trace,
        }
    }

    fn run(mut self) -> ResumeOutcome {
        self.st.recorder.event(
            EventKind::ResumeBegin,
            self.st.steps as u64,
            self.st.pool.total as u64,
        );
        // `cfg` outlives `&mut self`, so the strategy's vectors can be
        // borrowed across the run without cloning.
        let cfg = self.cfg;
        match &cfg.strategy {
            Strategy::RoundRobin => {
                let order: Vec<usize> = (0..self.set.len()).collect();
                self.run_cycle(&order);
            }
            Strategy::FixedCycle(order) => {
                self.run_cycle(order);
            }
            Strategy::Random { .. } => self.run_random(),
            Strategy::Phased(phases) => {
                for phase in phases {
                    if self.stop.is_some() {
                        break;
                    }
                    self.run_cycle(phase);
                }
                if self.stop.is_none() {
                    // Safety net: make the "chase until satisfied" contract
                    // hold even for phase lists that do not cover every
                    // violation.
                    let order: Vec<usize> = (0..self.set.len()).collect();
                    self.run_cycle(&order);
                }
            }
        }
        self.finish()
    }
}

/// Run the chase on `instance` with constraint set `set` under `cfg`.
///
/// # Examples
///
/// ```
/// use chase_core::{ConstraintSet, Instance};
/// use chase_engine::{chase, ChaseConfig, StopReason};
///
/// let sigma = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
/// let inst = Instance::parse("S(n1). S(n2). E(n1,n2).").unwrap();
/// let res = chase(&inst, &sigma, &ChaseConfig::default());
/// assert!(res.terminated());
/// assert_eq!(res.steps, 1); // only n2 lacked an outgoing edge
///
/// // A divergent set is cut off by the monitor guard of Section 4.2.
/// let bad = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
/// let res = chase(&inst, &bad, &ChaseConfig::with_monitor_depth(3));
/// assert_eq!(res.reason, StopReason::MonitorAbort { depth: 3 });
/// ```
pub fn chase(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> ChaseResult {
    run_to_result(instance, set, cfg, false)
}

/// One-shot driver shared by [`chase`] and [`chase_naive`]: build fresh
/// state, run it to a stop, tear it apart into a [`ChaseResult`].
fn run_to_result(
    instance: &Instance,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
    naive: bool,
) -> ChaseResult {
    let mut st = EngineState::new(instance, set, cfg);
    let out = Run::new(set, cfg, &mut st, naive).run();
    ChaseResult {
        instance: st.inst,
        reason: out.reason,
        steps: out.steps,
        fresh_nulls: out.fresh_nulls,
        trace: out.trace,
        monitor: st.monitor,
    }
}

/// The outcome of one [`chase_resume`] call over an [`EngineState`]:
/// everything a [`ChaseResult`] reports except the instance and the
/// monitor graph, which stay inside the state for the next resume.
///
/// `steps` and `fresh_nulls` count **this resume only**; the state's
/// [`EngineState::total_steps`] / [`EngineState::total_fresh_nulls`] hold
/// the running totals.
#[derive(Debug, Clone)]
pub struct ResumeOutcome {
    /// Why this resume stopped.
    pub reason: StopReason,
    /// Chase steps applied by this resume.
    pub steps: usize,
    /// Fresh nulls invented by this resume.
    pub fresh_nulls: usize,
    /// Per-step trace of this resume (only when `keep_trace`).
    pub trace: Vec<StepRecord>,
}

/// Continue the delta-driven chase on a (possibly warm) [`EngineState`]
/// until the pool drains, a budget trips, or a terminal stop occurs.
///
/// `set` and `cfg` must be the values the state was built with. Budgets
/// (`max_steps`, `max_nulls`) apply per resume, not cumulatively. A
/// poisoned state ([`EngineState::poisoned`]) is returned unchanged, with
/// the poisoning reason and zero steps.
///
/// # Examples
///
/// ```
/// use chase_core::{ConstraintSet, Instance};
/// use chase_engine::{chase_resume, ChaseConfig, EngineState, StopReason};
///
/// let sigma = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
/// let cfg = ChaseConfig::default();
/// let inst = Instance::parse("E(a,b).").unwrap();
/// let mut state = EngineState::new(&inst, &sigma, &cfg);
/// assert_eq!(chase_resume(&mut state, &sigma, &cfg).reason, StopReason::Satisfied);
///
/// // Warm update: ingest a batch, continue from the batch delta.
/// let batch = Instance::parse("E(b,c).").unwrap().atoms();
/// state.insert_batch(&sigma, &cfg, batch).unwrap();
/// let out = chase_resume(&mut state, &sigma, &cfg);
/// assert_eq!(out.steps, 1); // only the new join E(a,b)∘E(b,c) fires
/// assert_eq!(state.instance().len(), 3);
/// ```
pub fn chase_resume(
    state: &mut EngineState,
    set: &ConstraintSet,
    cfg: &ChaseConfig,
) -> ResumeOutcome {
    if let Some(reason) = state.poisoned.clone() {
        return ResumeOutcome {
            reason,
            steps: 0,
            fresh_nulls: 0,
            trace: Vec::new(),
        };
    }
    Run::new(set, cfg, state, false).run()
}

/// Run the chase with naive trigger discovery: every constraint is
/// re-matched against the whole instance on every step.
///
/// Trigger *selection* is canonical and identical to [`chase`] (least
/// constraint index, then least normalized assignment; `Random` draws the
/// same index from the same seeded stream over the same canonically ordered
/// trigger list), so on the same inputs both engines produce bit-identical
/// traces, step counts, and final instances — only the work per step
/// differs. Retained as the reference for equivalence tests and as the
/// baseline the `ex4_strategies`/`fig1_hierarchy` benches compare against.
///
/// Honesty note for benchmark readers: canonical selection means the cyclic
/// strategies here enumerate *all* of a constraint's body matches per step
/// to find the least fireable one, where the seed engine stopped at the
/// first fireable match in search order. Per-step re-enumeration is the
/// same O(instance); the constant is somewhat larger than the seed's on
/// workloads where an early match exists. (The seed's `Random` strategy
/// already enumerated everything every step.)
pub fn chase_naive(instance: &Instance, set: &ConstraintSet, cfg: &ChaseConfig) -> ChaseResult {
    run_to_result(instance, set, cfg, true)
}

/// Run the chase with the default configuration (standard mode, round-robin,
/// 10 000-step budget).
pub fn chase_default(instance: &Instance, set: &ConstraintSet) -> ChaseResult {
    chase(instance, set, &ChaseConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(set: &str, inst: &str) -> (ConstraintSet, Instance) {
        (
            ConstraintSet::parse(set).unwrap(),
            Instance::parse(inst).unwrap(),
        )
    }

    #[test]
    fn intro_alpha1_terminates() {
        // α1: every special node has an outgoing edge (Introduction).
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase_default(&inst, &set);
        assert!(res.terminated());
        assert_eq!(res.steps, 1);
        assert_eq!(res.instance.len(), 4);
        assert!(set.satisfied_by(&res.instance));
    }

    #[test]
    fn intro_alpha2_diverges_until_budget() {
        // α2: every special node links to a special node — non-terminating on
        // the Introduction's instance.
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase(&inst, &set, &ChaseConfig::with_max_steps(50));
        assert_eq!(res.reason, StopReason::StepLimit(50));
    }

    #[test]
    fn intro_alpha2_monitor_aborts() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(n1). S(n2). E(n1,n2).");
        let res = chase(&inst, &set, &ChaseConfig::with_monitor_depth(3));
        assert_eq!(res.reason, StopReason::MonitorAbort { depth: 3 });
        assert!(res.monitor.unwrap().is_k_cyclic(3));
    }

    #[test]
    fn egd_failure_propagates() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,c).");
        let res = chase_default(&inst, &set);
        assert!(res.failed());
    }

    #[test]
    fn egd_merge_terminates() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,_n0). E(_n0,c).");
        let res = chase_default(&inst, &set);
        assert!(res.terminated());
        assert_eq!(res.instance, Instance::parse("E(a,b). E(b,c).").unwrap());
    }

    #[test]
    fn trace_records_steps() {
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(a). S(b).");
        let cfg = ChaseConfig {
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert!(res.terminated());
        assert_eq!(res.trace.len(), 2);
        assert_eq!(res.trace[0].constraint, 0);
        assert_eq!(res.trace[0].fresh_nulls.len(), 1);
    }

    #[test]
    fn random_strategy_is_reproducible() {
        let (set, inst) = parse(
            "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
            "S(a). S(b). S(c).",
        );
        let cfg = |seed| ChaseConfig {
            strategy: Strategy::Random { seed },
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let r1 = chase(&inst, &set, &cfg(42));
        let r2 = chase(&inst, &set, &cfg(42));
        assert!(r1.terminated());
        assert_eq!(r1.steps, r2.steps);
        assert_eq!(r1.instance, r2.instance);
        let order1: Vec<usize> = r1.trace.iter().map(|s| s.constraint).collect();
        let order2: Vec<usize> = r2.trace.iter().map(|s| s.constraint).collect();
        assert_eq!(order1, order2);
    }

    #[test]
    fn oblivious_chase_fires_satisfied_triggers_once() {
        // The constraint is already satisfied, but the oblivious chase still
        // fires the body match exactly once.
        let (set, inst) = parse("S(X) -> E(X,Y)", "S(a). E(a,b).");
        let cfg = ChaseConfig {
            mode: ChaseMode::Oblivious,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert_eq!(res.steps, 1);
        assert_eq!(res.fresh_nulls, 1);
        assert_eq!(res.instance.len(), 3);
    }

    #[test]
    fn phased_strategy_follows_phases() {
        // Phase 0 = {1}, phase 1 = {0}: U-facts must be produced before the
        // final pass touches constraint 0.
        let (set, inst) = parse("T(X) -> U(X)\nS(X) -> T(X)", "S(a).");
        let cfg = ChaseConfig {
            strategy: Strategy::Phased(vec![vec![1], vec![0]]),
            keep_trace: true,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert!(res.terminated());
        assert_eq!(res.instance.len(), 3);
        let fired: Vec<usize> = res.trace.iter().map(|s| s.constraint).collect();
        assert_eq!(fired, vec![1, 0]);
    }

    /// Strategy indices are checked once, before the run does any work:
    /// an out-of-range index panics with a message naming it, for both
    /// strategies that name indices, and in both engines.
    #[test]
    fn phase_index_out_of_range_panics() {
        let (set, inst) = parse("S(X) -> T(X)", "S(a).");
        for strategy in [
            Strategy::Phased(vec![vec![0, 3]]),
            Strategy::FixedCycle(vec![0, 3]),
        ] {
            assert_eq!(strategy.out_of_range(set.len()), Some(3));
            let cfg = ChaseConfig {
                strategy,
                ..ChaseConfig::default()
            };
            for engine in [chase, chase_naive] {
                let err = std::panic::catch_unwind(|| engine(&inst, &set, &cfg)).unwrap_err();
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert_eq!(
                    msg,
                    "strategy names constraint 3, but the set has 1 constraints"
                );
            }
        }
        assert_eq!(Strategy::Phased(vec![vec![0]]).out_of_range(1), None);
        assert_eq!(Strategy::RoundRobin.out_of_range(0), None);
    }

    #[test]
    fn null_budget_stops_runaway() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(a).");
        let cfg = ChaseConfig {
            max_nulls: Some(7),
            max_steps: None,
            ..ChaseConfig::default()
        };
        let res = chase(&inst, &set, &cfg);
        assert_eq!(res.reason, StopReason::NullLimit(7));
        assert_eq!(res.fresh_nulls, 7);
    }

    /// Drive both engines over the same inputs and demand bit-identical
    /// traces: the contract that makes the bench comparisons honest.
    fn assert_engines_agree(set: &str, inst: &str, cfg: &ChaseConfig) {
        let (set, inst) = parse(set, inst);
        let mut cfg = cfg.clone();
        cfg.keep_trace = true;
        let fast = chase(&inst, &set, &cfg);
        let slow = chase_naive(&inst, &set, &cfg);
        assert_eq!(fast.reason, slow.reason);
        assert_eq!(fast.steps, slow.steps);
        assert_eq!(fast.fresh_nulls, slow.fresh_nulls);
        assert_eq!(fast.instance, slow.instance);
        assert_eq!(fast.trace.len(), slow.trace.len());
        for (a, b) in fast.trace.iter().zip(&slow.trace) {
            assert_eq!(a.constraint, b.constraint);
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.ground_body, b.ground_body);
            assert_eq!(a.added, b.added);
            assert_eq!(a.fresh_nulls, b.fresh_nulls);
            assert_eq!(a.merged, b.merged);
            assert_eq!(a.merge_rewritten, b.merge_rewritten);
            assert_eq!(a.merge_collapsed, b.merge_collapsed);
        }
    }

    #[test]
    fn delta_and_naive_agree_on_tgd_chains() {
        assert_engines_agree(
            "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
            "S(a). S(b). S(c).",
            &ChaseConfig::default(),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_divergence_cutoff() {
        assert_engines_agree(
            "S(X) -> E(X,Y), S(Y)",
            "S(n1). S(n2). E(n1,n2).",
            &ChaseConfig::with_max_steps(60),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_egd_merges() {
        assert_engines_agree(
            "E(X,Y), E(X,Z) -> Y = Z\nS(X) -> E(X,Y)",
            "S(a). E(a,_n0). E(_n0,c). E(a,b).",
            &ChaseConfig::default(),
        );
    }

    #[test]
    fn delta_and_naive_agree_on_random_strategy() {
        for seed in 0..5 {
            assert_engines_agree(
                "S(X) -> T(X)\nT(X) -> U(X,Y)\nU(X,Y) -> V(Y)",
                "S(a). S(b). S(c).",
                &ChaseConfig {
                    strategy: Strategy::Random { seed },
                    ..ChaseConfig::default()
                },
            );
        }
    }

    #[test]
    fn delta_and_naive_agree_on_oblivious_mode() {
        assert_engines_agree(
            "S(X) -> E(X,Y)\nE(X,Y), E(X,Z) -> Y = Z",
            "S(a). E(a,b).",
            &ChaseConfig {
                mode: ChaseMode::Oblivious,
                ..ChaseConfig::default()
            },
        );
    }

    /// Warm resume over an [`EngineState`] must land on the same instance
    /// as a from-scratch chase of the accumulated facts — here the inputs
    /// are null-free and confluent, so the final instances are equal
    /// outright.
    #[test]
    fn warm_resume_matches_from_scratch_chase() {
        let (set, inst) = parse("E(X,Y), E(Y,Z) -> E(X,Z)", "E(a,b). E(b,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        let first = chase_resume(&mut st, &set, &cfg);
        assert_eq!(first.reason, StopReason::Satisfied);
        assert!(st.quiescent());
        let batch = Instance::parse("E(c,d). E(a,b).").unwrap().atoms();
        let added = st.insert_batch(&set, &cfg, batch.clone()).unwrap();
        assert_eq!(added.len(), 1, "E(a,b) is a duplicate");
        let second = chase_resume(&mut st, &set, &cfg);
        assert_eq!(second.reason, StopReason::Satisfied);
        assert!(second.steps > 0);
        let mut union = inst.clone();
        union.insert_batch(batch).unwrap();
        let scratch = chase(&union, &set, &cfg);
        assert_eq!(st.instance(), &scratch.instance);
        assert_eq!(
            st.total_steps(),
            scratch.steps,
            "warm resume fires exactly the triggers the scratch chase fires"
        );
    }

    /// Per-resume budgets: a resumed state gets a fresh step budget, and a
    /// budget stop does not poison the state.
    #[test]
    fn resume_budgets_are_per_run() {
        let (set, inst) = parse("S(X) -> E(X,Y), S(Y)", "S(a).");
        let cfg = ChaseConfig::with_max_steps(5);
        let mut st = EngineState::new(&inst, &set, &cfg);
        let first = chase_resume(&mut st, &set, &cfg);
        assert_eq!(first.reason, StopReason::StepLimit(5));
        assert_eq!(first.steps, 5);
        assert!(st.poisoned().is_none());
        let second = chase_resume(&mut st, &set, &cfg);
        assert_eq!(second.reason, StopReason::StepLimit(5));
        assert_eq!(second.steps, 5, "budget renews per resume");
        assert_eq!(st.total_steps(), 10);
    }

    /// Terminal stops poison the state; later resumes refuse to run.
    #[test]
    fn failed_state_is_poisoned() {
        let (set, inst) = parse("E(X,Y), E(X,Z) -> Y = Z", "E(a,b). E(a,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        assert_eq!(chase_resume(&mut st, &set, &cfg).reason, StopReason::Failed);
        assert_eq!(st.poisoned(), Some(&StopReason::Failed));
        let after = chase_resume(&mut st, &set, &cfg);
        assert_eq!(after.reason, StopReason::Failed);
        assert_eq!(after.steps, 0, "poisoned state refuses to chase");
    }

    /// Cloning the state is a full snapshot: the clone and the original
    /// evolve independently and identically from the fork point.
    #[test]
    fn engine_state_clone_is_a_fork() {
        let (set, inst) = parse("E(X,Y), E(Y,Z) -> E(X,Z)", "E(a,b). E(b,c).");
        let cfg = ChaseConfig::default();
        let mut st = EngineState::new(&inst, &set, &cfg);
        chase_resume(&mut st, &set, &cfg);
        let mut fork = st.clone();
        let batch = Instance::parse("E(c,a).").unwrap().atoms();
        st.insert_batch(&set, &cfg, batch.clone()).unwrap();
        let a = chase_resume(&mut st, &set, &cfg);
        fork.insert_batch(&set, &cfg, batch).unwrap();
        let b = chase_resume(&mut fork, &set, &cfg);
        assert_eq!(a.steps, b.steps);
        assert_eq!(st.instance(), fork.instance());
    }

    #[test]
    fn delta_engine_prunes_rematch_work() {
        // A multi-atom join body: the delta path must still find triggers
        // that combine a new atom with old atoms.
        assert_engines_agree(
            "E(X,Y), E(Y,Z) -> E(X,Z)",
            "E(a,b). E(b,c). E(c,d).",
            &ChaseConfig::default(),
        );
    }

    fn memo_key(binds: &[(&str, Term)]) -> TriggerKey {
        binds.iter().map(|&(v, t)| (Sym::new(v), t)).collect()
    }

    fn listed(memo: &KeyMemo) -> &FxHashMap<u32, Vec<TriggerKey>> {
        memo.by_null.as_ref().expect("a memo under a Σ with an EGD")
    }

    #[test]
    fn key_memo_renames_a_two_null_key_through_either_null_first() {
        let (n0, n1, c) = (Term::null(0), Term::null(1), Term::constant("c"));
        let k = memo_key(&[("X", n0), ("Y", n1)]);
        for (first, second) in [((n0, c), (n1, c)), ((n1, c), (n0, c))] {
            let mut memo = KeyMemo::new(true);
            assert!(memo.insert(k.clone()));
            assert!(!memo.insert(k.clone()), "a member is not re-added");
            memo.remap(first.0, first.1);
            let half = remap_key(&k, first.0, first.1);
            assert!(memo.contains(&half) && !memo.contains(&k));
            // `k` is still listed under the other null: a stale entry the
            // second remap must skip.
            memo.remap(second.0, second.1);
            let full = memo_key(&[("X", c), ("Y", c)]);
            assert!(memo.contains(&full) && !memo.contains(&half));
            assert_eq!(memo.keys.len(), 1);
            assert!(listed(&memo).is_empty(), "each null's list leaves with it");
        }
        // Null into null: the renamed key binds `_n1` twice, listed once.
        let mut memo = KeyMemo::new(true);
        memo.insert(k.clone());
        memo.remap(n0, n1);
        assert!(memo.contains(&memo_key(&[("X", n1), ("Y", n1)])));
        assert_eq!(listed(&memo)[&1].len(), 2, "the stale `k` plus its rename");
        memo.remap(n1, c);
        assert_eq!(memo.keys.len(), 1);
        assert!(memo.contains(&memo_key(&[("X", c), ("Y", c)])));
    }

    #[test]
    fn key_memo_remap_onto_a_member_is_a_union() {
        let (n0, n1, c) = (Term::null(0), Term::null(1), Term::constant("c"));
        let mut memo = KeyMemo::new(true);
        memo.insert(memo_key(&[("X", n0)]));
        memo.insert(memo_key(&[("X", c)]));
        memo.remap(n0, c);
        assert_eq!(memo.keys.len(), 1);
        assert!(memo.contains(&memo_key(&[("X", c)])));
        assert!(listed(&memo).is_empty());
        // Onto a member that binds a null: it stays listed once.
        memo.insert(memo_key(&[("X", n0)]));
        memo.insert(memo_key(&[("X", n1)]));
        memo.remap(n0, n1);
        assert_eq!(memo.keys.len(), 2);
        assert!(memo.contains(&memo_key(&[("X", n1)])));
        assert_eq!(listed(&memo)[&1], vec![memo_key(&[("X", n1)])]);
    }

    #[test]
    fn key_memo_lists_no_null_free_key_and_nothing_without_an_egd() {
        let (c, d) = (Term::constant("c"), Term::constant("d"));
        let mut memo = KeyMemo::new(true);
        assert!(memo.insert(memo_key(&[("X", c), ("Y", d)])));
        assert!(listed(&memo).is_empty());
        memo.remap(Term::null(0), c);
        assert!(memo.contains(&memo_key(&[("X", c), ("Y", d)])));
        assert_eq!(memo.keys.len(), 1);
        // Under a Σ without EGDs nothing is renamed: not even a key that
        // binds a null is listed.
        let mut memo = KeyMemo::new(false);
        assert!(memo.insert(memo_key(&[("X", Term::null(0))])));
        assert!(memo.by_null.is_none());
        let set = ConstraintSet::parse("S(X) -> E(X,Y), S(Y)").unwrap();
        let st = EngineState::new(&Instance::new(), &set, &ChaseConfig::default());
        assert!(st.fired.iter().all(|m| m.by_null.is_none()));
    }

    /// Against a scan of a plain set: random keys over a few nulls and
    /// constants, a random chain of merges, inserts in between.
    #[test]
    fn key_memo_agrees_with_a_rescan_of_every_key() {
        let mut rng = StdRng::seed_from_u64(41);
        let term = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                Term::constant(&format!("k{}", rng.gen_range(0..3u32)))
            } else {
                Term::null(rng.gen_range(0..12u32))
            }
        };
        let mut memo = KeyMemo::new(true);
        let mut oracle: FxHashSet<TriggerKey> = FxHashSet::default();
        for round in 0..60 {
            for _ in 0..8 {
                let k = memo_key(&[("X", term(&mut rng)), ("Y", term(&mut rng))]);
                assert_eq!(memo.insert(k.clone()), oracle.insert(k));
            }
            let (from, to) = (Term::null(rng.gen_range(0..12u32)), term(&mut rng));
            if from == to {
                continue;
            }
            memo.remap(from, to);
            oracle = oracle.iter().map(|k| remap_key(k, from, to)).collect();
            assert_eq!(memo.keys, oracle, "round {round}: {from} -> {to}");
        }
    }
}
