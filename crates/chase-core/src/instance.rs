//! Database instances: deduplicated, indexed sets of ground atoms over an
//! interned, columnar fact store.
//!
//! An [`Instance`] stores facts in insertion order (so chase sequences are
//! reproducible), but not as owned [`Atom`]s: every ground term is interned
//! to a [`TermId`] (constants through the process-wide [`Sym`] table, nulls
//! self-encoded — see [`TermId`]) and facts live in per-`(predicate, arity)`
//! **column-major tables**, one flat `Vec<TermId>` per argument position.
//! A fact is addressed by its [`FactId`] (its insertion index), which maps
//! through a location table to `(table, row)`.
//!
//! Everything downstream is keyed by ids instead of owned terms:
//!
//! * **dedup** — a row-content hash table (`u64` hash → fact chain) probed
//!   with a handful of `u32`s; inserting a duplicate never allocates,
//!   inserting a new fact appends to the columns instead of cloning an
//!   atom, and an exact-row lookup ([`Instance::find_ids`]) is one probe;
//! * **`by_pos`** — the `(predicate, position, TermId)` index behind
//!   [`Instance::candidates`];
//! * per-predicate cardinality and per-position distinct-value statistics
//!   for the `chase-plan` join compiler.
//!
//! EGD merges ([`Instance::merge_terms`]) are **delta passes**: the
//! occurrences of `from` are located through `by_pos`, only those rows are
//! rewritten in place, and every index and statistic is patched
//! incrementally — rows that collapse onto already-present rows are removed
//! and the surviving fact ids compacted, reproducing exactly the state a
//! from-scratch replay of the rewritten insert stream would build. Only the
//! facts after the first removed id move, so only they are re-keyed. The
//! returned [`MergeEffect`] names the rewritten rows so engines can treat
//! a merge like any other delta.
//!
//! The atom-level API ([`Instance::atoms`], [`Instance::iter`],
//! [`Instance::atom_at`]) materializes [`Atom`]s on demand (an O(arity)
//! gather per fact); hot paths use the id-level accessors
//! ([`Instance::fact`], [`Instance::pos_bucket`], [`Instance::find_ids`])
//! and touch only `u32`s.

use crate::atom::Atom;
use crate::error::CoreError;
use crate::fx::{FxHashMap, FxHasher};
use crate::schema::{PosSet, Position, Schema};
use crate::symbol::Sym;
use crate::term::{Term, TermId};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hasher;

/// A fact's insertion index in its [`Instance`] — the currency of every
/// index bucket and candidate list.
pub type FactId = u32;

/// One column-major relation: all facts sharing a predicate *and* arity
/// (the store tolerates one predicate at several arities, like the old
/// atom-level store did — each gets its own table).
#[derive(Clone, Default)]
pub(crate) struct PredTable {
    /// One flat id vector per argument position; all the same length.
    pub(crate) cols: Vec<Vec<TermId>>,
    /// Row count (kept explicitly so zero-arity predicates work).
    pub(crate) rows: u32,
}

/// Where a [`FactId`] lives: which table, which row.
#[derive(Clone, Copy)]
pub(crate) struct FactLoc {
    pub(crate) table: u32,
    pub(crate) row: u32,
}

/// A database instance: a finite set of ground atoms over constants and
/// labeled nulls, stored columnar (see the module docs).
#[derive(Clone, Default)]
pub struct Instance {
    pub(crate) tables: Vec<PredTable>,
    /// Predicate of each table (parallel to `tables`; split out so location
    /// lookups resolving a predicate touch a dense array). Table lookup on
    /// insert is a linear scan of this vector — the number of distinct
    /// `(pred, arity)` pairs is schema-bounded and small, and a scan keeps
    /// the per-instance footprint down (tiny instances are built by the
    /// million in the brute-force oracles).
    pub(crate) table_preds: Vec<Sym>,
    /// [`FactId`] → location, in insertion order. Its length is the fact
    /// count.
    pub(crate) locs: Vec<FactLoc>,
    /// Dedup: row-content hash → the fact with that hash. Collisions (rare;
    /// the hash covers predicate, arity and every id) chain into
    /// `dedup_overflow`. Probes compare against the columns, so neither hit
    /// nor miss allocates.
    dedup: FxHashMap<u64, FactId>,
    dedup_overflow: FxHashMap<u64, Vec<FactId>>,
    by_pred: FxHashMap<Sym, Vec<FactId>>,
    by_pos: FxHashMap<(Sym, u32, TermId), Vec<FactId>>,
    /// Distinct-value count per `(pred, position)` — the number of live
    /// `by_pos` buckets, maintained without scanning the key space.
    distinct: FxHashMap<(Sym, u32), u32>,
    /// Bumped on every mutation of the fact set: each new fact inserted and
    /// each effective merge. Two reads of [`Instance::version`] returning
    /// the same number bracket a window in which the instance was not
    /// modified — the cheap staleness check behind copy-on-read snapshot
    /// publication in the serving layer (`chase-serve`).
    version: u64,
    pub(crate) next_null: u32,
    /// Reusable id buffer for the insert path (cleared per call, never
    /// shrunk) — keeps `try_insert` allocation-free after warm-up.
    scratch: Vec<TermId>,
}

/// The structured outcome of one EGD merge ([`Instance::merge_terms`]).
///
/// `rewritten` holds the *post-merge* [`FactId`]s of the rows whose content
/// changed and survived deduplication, ascending — exactly the delta a
/// trigger pool has to be re-matched against, which is how `chase-engine`
/// treats a merge like any other step. `collapsed` counts the rows that
/// vanished: rewritten rows that collapsed onto an already-present row,
/// plus present rows absorbed by an earlier rewritten row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeEffect {
    /// Surviving rewritten facts, by post-merge id, ascending.
    pub rewritten: Vec<FactId>,
    /// Facts removed by deduplication during the merge.
    pub collapsed: usize,
    /// The merged-away term.
    pub from: Term,
    /// The term every `from` occurrence now reads.
    pub to: Term,
}

impl MergeEffect {
    fn noop(from: Term, to: Term) -> MergeEffect {
        MergeEffect {
            rewritten: Vec::new(),
            collapsed: 0,
            from,
            to,
        }
    }

    /// Did the merge leave the instance untouched (`from` occurred in no
    /// fact, or `from == to`)? Then no index was modified and no epoch
    /// moved — callers can skip all maintenance.
    pub fn is_noop(&self) -> bool {
        self.rewritten.is_empty() && self.collapsed == 0
    }
}

/// Insert `fact` into a bucket kept sorted ascending (every index bucket
/// stores fact ids in insertion order, which is ascending id order).
fn bucket_insert(bucket: &mut Vec<FactId>, fact: FactId) {
    if let Err(i) = bucket.binary_search(&fact) {
        bucket.insert(i, fact);
    }
}

/// Remove `fact` from a sorted bucket, if present.
fn bucket_remove(bucket: &mut Vec<FactId>, fact: FactId) {
    if let Ok(i) = bucket.binary_search(&fact) {
        bucket.remove(i);
    }
}

/// Hash of one row's content: predicate, arity, then every id. The dedup
/// key — covering the arity keeps a predicate's two arities from colliding
/// structurally.
fn row_hash(pred: Sym, ids: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u32(pred.id());
    h.write_u32(ids.len() as u32);
    for &id in ids {
        h.write_u32(id.raw());
    }
    h.finish()
}

impl Instance {
    /// The empty instance.
    pub fn new() -> Instance {
        Instance::default()
    }

    /// Build an instance from ground atoms. Errors on a non-ground atom.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Result<Instance, CoreError> {
        let mut inst = Instance::new();
        for a in atoms {
            inst.try_insert(a)?;
        }
        Ok(inst)
    }

    /// Parse an instance from text (see [`crate::parser::parse_instance`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use chase_core::Instance;
    ///
    /// let i = Instance::parse("S(n1). E(n1,_n0).").unwrap();
    /// assert_eq!(i.len(), 2);
    /// assert_eq!(i.nulls().len(), 1);   // the labeled null _n0
    /// assert_eq!(i.domain_size(), 2);   // n1 (a constant) and _n0
    /// ```
    pub fn parse(text: &str) -> Result<Instance, CoreError> {
        crate::parser::parse_instance(text)
    }

    /// Insert a ground atom, given by value or by reference (the store
    /// keeps ids, never the atom); returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the atom contains a variable; use [`Instance::try_insert`]
    /// for a checked version.
    pub fn insert(&mut self, atom: impl Borrow<Atom>) -> bool {
        self.try_insert(atom)
            .expect("non-ground atom inserted into instance")
    }

    /// Insert a ground atom; returns `true` if it was new, or an error if the
    /// atom contains a variable.
    pub fn try_insert(&mut self, atom: impl Borrow<Atom>) -> Result<bool, CoreError> {
        let atom = atom.borrow();
        let mut ids = std::mem::take(&mut self.scratch);
        ids.clear();
        for &t in atom.terms() {
            match TermId::from_ground(t) {
                Some(id) => ids.push(id),
                None => {
                    self.scratch = ids;
                    return Err(CoreError::NonGroundAtom(atom.to_string()));
                }
            }
        }
        let new = self.insert_ids(atom.pred(), &ids);
        self.scratch = ids;
        Ok(new)
    }

    /// Insert a fact given as a predicate plus interned term ids — the
    /// id-level insert every other insert path bottoms out in. Returns
    /// `true` if the fact was new.
    ///
    /// The ids must come from [`TermId::from_ground`] (the merge remap and
    /// the micro-benchmarks use this to bypass atom materialization
    /// entirely).
    pub fn insert_ids(&mut self, pred: Sym, ids: &[TermId]) -> bool {
        let hash = row_hash(pred, ids);
        if self.probe(hash, pred, ids).is_some() {
            return false;
        }
        self.append(hash, pred, ids);
        true
    }

    /// Append a fact known to be absent, `hash` being its [`row_hash`]:
    /// the insert path after the dedup probe.
    fn append(&mut self, hash: u64, pred: Sym, ids: &[TermId]) {
        let fact = FactId::try_from(self.locs.len()).expect("instance too large");
        // Locate (or create) the `(pred, arity)` table and append the row.
        let table = match self
            .table_preds
            .iter()
            .zip(&self.tables)
            .position(|(&p, t)| p == pred && t.cols.len() == ids.len())
        {
            Some(t) => t as u32,
            None => {
                let t = u32::try_from(self.tables.len()).expect("too many relations");
                self.tables.push(PredTable {
                    cols: vec![Vec::new(); ids.len()],
                    rows: 0,
                });
                self.table_preds.push(pred);
                t
            }
        };
        let tbl = &mut self.tables[table as usize];
        let row = tbl.rows;
        for (col, &id) in tbl.cols.iter_mut().zip(ids) {
            col.push(id);
        }
        tbl.rows += 1;
        self.locs.push(FactLoc { table, row });
        // Positional index + distinct statistics, then the per-predicate
        // bucket — the same maintenance order (and therefore the same bucket
        // contents) as the old atom-keyed store.
        for (i, &id) in ids.iter().enumerate() {
            if let Some(n) = id.as_null() {
                self.next_null = self.next_null.max(n + 1);
            }
            let bucket = self.by_pos.entry((pred, i as u32, id)).or_default();
            if bucket.is_empty() {
                *self.distinct.entry((pred, i as u32)).or_insert(0) += 1;
            }
            bucket.push(fact);
        }
        self.by_pred.entry(pred).or_default().push(fact);
        self.dedup_insert(hash, fact);
        self.version += 1;
    }

    /// Insert a batch of ground atoms atomically; returns the atoms that
    /// were actually new (the batch *delta*), in insertion order.
    ///
    /// The whole batch is validated up front: if any atom contains a
    /// variable, an error is returned and the instance is left untouched —
    /// unlike a loop over [`Instance::try_insert`], which would stop
    /// half-way. Duplicates (against the store *and* within the batch)
    /// simply don't appear in the returned delta, so the result is exactly
    /// the atom set a delta-driven trigger pool must be re-matched against
    /// after ingesting the batch (see `chase_engine::EngineState`).
    ///
    /// # Examples
    ///
    /// ```
    /// use chase_core::{Atom, Instance};
    ///
    /// let mut i = Instance::parse("E(a,b).").unwrap();
    /// let delta = i
    ///     .insert_batch(Instance::parse("E(a,b). E(b,c).").unwrap().atoms())
    ///     .unwrap();
    /// assert_eq!(delta.len(), 1); // E(a,b) was already present
    /// assert_eq!(i.len(), 2);
    /// ```
    pub fn insert_batch(
        &mut self,
        atoms: impl IntoIterator<Item = Atom>,
    ) -> Result<Vec<Atom>, CoreError> {
        let batch: Vec<Atom> = atoms.into_iter().collect();
        if let Some(bad) = batch.iter().find(|a| !a.is_ground()) {
            return Err(CoreError::NonGroundAtom(bad.to_string()));
        }
        // Groundness is validated; insert through the id-level path and
        // move (never clone) the atoms that turn out to be new into the
        // delta — duplicates cost an intern + probe and nothing else.
        let mut added = Vec::new();
        let mut ids = std::mem::take(&mut self.scratch);
        for a in batch {
            ids.clear();
            ids.extend(
                a.terms()
                    .iter()
                    .map(|&t| TermId::from_ground(t).expect("batch validated ground")),
            );
            if self.insert_ids(a.pred(), &ids) {
                added.push(a);
            }
        }
        self.scratch = ids;
        Ok(added)
    }

    /// The fact with this exact content, if present (dedup probe).
    fn probe(&self, hash: u64, pred: Sym, ids: &[TermId]) -> Option<FactId> {
        let eq = |f: FactId| {
            let loc = self.locs[f as usize];
            let tbl = &self.tables[loc.table as usize];
            self.table_preds[loc.table as usize] == pred
                && tbl.cols.len() == ids.len()
                && tbl
                    .cols
                    .iter()
                    .zip(ids)
                    .all(|(col, &id)| col[loc.row as usize] == id)
        };
        let &first = self.dedup.get(&hash)?;
        if eq(first) {
            return Some(first);
        }
        self.dedup_overflow
            .get(&hash)?
            .iter()
            .copied()
            .find(|&f| eq(f))
    }

    /// The fact reading exactly `pred(ids)`, if present — one dedup probe,
    /// no allocation. The id-level membership test: the planned executor
    /// answers a pattern atom with every position bound through it.
    pub fn find_ids(&self, pred: Sym, ids: &[TermId]) -> Option<FactId> {
        self.probe(row_hash(pred, ids), pred, ids)
    }

    /// Does the instance contain this exact atom?
    pub fn contains(&self, atom: &Atom) -> bool {
        let mut ids = Vec::with_capacity(atom.arity());
        for &t in atom.terms() {
            match TermId::from_ground(t) {
                Some(id) => ids.push(id),
                None => return false,
            }
        }
        self.find_ids(atom.pred(), &ids).is_some()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// True iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Facts in insertion order, materialized.
    ///
    /// This gathers every fact out of the columns into owned [`Atom`]s —
    /// O(total terms). Fine for snapshots, encoders and instance-level
    /// homomorphism searches; per-fact hot paths should use
    /// [`Instance::fact`] instead.
    pub fn atoms(&self) -> Vec<Atom> {
        self.iter().collect()
    }

    /// Iterate over facts in insertion order, materializing each.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Atom> + '_ {
        (0..self.locs.len() as u32).map(|f| self.atom_at(f))
    }

    /// Facts with the given predicate, in insertion order.
    ///
    /// Routed through the per-predicate index: O(k) in the number of
    /// `pred`-facts, independent of the instance size (pinned by
    /// `with_pred_is_index_backed` below — per-predicate iteration is on the
    /// planner's statistics path and must never degrade to a full scan).
    pub fn with_pred(&self, pred: Sym) -> impl ExactSizeIterator<Item = Atom> + '_ {
        self.by_pred
            .get(&pred)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(move |&i| self.atom_at(i))
    }

    /// Number of facts with the given predicate — `|R|`, in O(1).
    pub fn pred_cardinality(&self, pred: Sym) -> usize {
        self.by_pred.get(&pred).map_or(0, Vec::len)
    }

    /// Number of distinct terms occurring at `(pred, pos)`, in O(1).
    ///
    /// Maintained incrementally as `by_pos` buckets are created and (on
    /// merges) emptied. This is the per-position selectivity statistic the
    /// join planner divides by.
    pub fn distinct_at(&self, pred: Sym, pos: usize) -> usize {
        self.distinct
            .get(&(pred, pos as u32))
            .map_or(0, |&n| n as usize)
    }

    /// The mutation version: bumped once per new fact inserted and once per
    /// effective merge, never decremented.
    ///
    /// Within one lineage — one instance and the clones it mutates from —
    /// equal versions across two observations mean the fact set (and every
    /// index over it) was not modified in between, which makes a cached
    /// clone taken at version `v` still exact while `version()` still reads
    /// `v`. Across lineages it means nothing: a clone carries its parent's
    /// version forward, so two branches mutated from one clone can reach the
    /// same version with different facts. The `chase-serve` conductor uses
    /// the version as its copy-on-read staleness check (and
    /// [`Instance::catch_up`] as its publish path), and republishes by full
    /// clone whenever a restore switches the session's lineage.
    ///
    /// Nothing inside `chase-core` keys off the counter except
    /// [`Instance::catch_up`].
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bring `self` up to `src` in O(delta) when `self` is an earlier state
    /// of `src` with only inserts since; returns whether it did.
    ///
    /// Appends `src`'s facts `self.len()..src.len()` through the insert
    /// path's append, skipping its dedup probe: a fact `src` added after
    /// `self`'s state is absent from it by construction (debug builds still
    /// probe and assert so). Then it copies the fresh-null counter, so the
    /// result is structurally identical to `src.clone()`: same fact ids,
    /// tables, index buckets, dedup chains and version. The inserts-only
    /// case is detected in O(1): each new fact bumps both the version and
    /// the length by one, while an effective merge bumps the version and
    /// adds no fact, so the two deltas agree exactly when no merge
    /// happened. Otherwise (a merge since, or `self` ahead of `src`) this
    /// returns `false` and leaves `self` untouched.
    ///
    /// The arithmetic cannot tell lineages apart: the caller guarantees
    /// that `self` was a clone of `src` (or of an ancestor state `src` was
    /// mutated from), never of a different branch.
    pub fn catch_up(&mut self, src: &Instance) -> bool {
        let (Some(versions), Some(facts)) = (
            src.version.checked_sub(self.version),
            src.len().checked_sub(self.len()),
        ) else {
            return false;
        };
        if versions != facts as u64 {
            return false;
        }
        let mut ids = std::mem::take(&mut self.scratch);
        for loc in &src.locs[self.len()..] {
            let tbl = &src.tables[loc.table as usize];
            ids.clear();
            ids.extend(tbl.cols.iter().map(|col| col[loc.row as usize]));
            let pred = src.table_preds[loc.table as usize];
            let hash = row_hash(pred, &ids);
            debug_assert!(
                self.probe(hash, pred, &ids).is_none(),
                "catch-up replayed a fact the earlier state held"
            );
            self.append(hash, pred, &ids);
        }
        self.scratch = ids;
        self.next_null = src.next_null;
        true
    }

    /// The statistics epoch: the bit length of the fact count.
    ///
    /// Grows by one each time the instance doubles, so a plan cache that
    /// recompiles on epoch change re-reads the statistics O(log n) times over
    /// a run instead of every step. Stale plans remain *correct* — only
    /// their cost estimates age.
    pub fn stats_epoch(&self) -> u32 {
        u64::BITS - (self.locs.len() as u64).leading_zeros()
    }

    /// Indices of candidate facts for a `pred`-atom whose argument at each
    /// listed `(index, term)` pair is already fixed. Returns the smallest
    /// applicable index bucket (the caller still has to verify the full
    /// match). With no fixed positions this is the per-predicate bucket.
    pub fn candidates(&self, pred: Sym, fixed: &[(usize, Term)]) -> &[FactId] {
        if fixed.is_empty() {
            return self.pred_bucket(pred);
        }
        let mut best: Option<&[FactId]> = None;
        for &(i, t) in fixed {
            let id = TermId::from_ground(t).unwrap_or(TermId::NEVER);
            let bucket = self.pos_bucket(pred, i, id);
            if best.is_none_or(|b| bucket.len() < b.len()) {
                best = Some(bucket);
            }
            if bucket.is_empty() {
                break;
            }
        }
        best.unwrap_or(&[])
    }

    /// All facts of `pred`, in insertion order — the per-predicate bucket.
    pub fn pred_bucket(&self, pred: Sym) -> &[FactId] {
        self.by_pred.get(&pred).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// The `(pred, position, id)` bucket: facts whose argument at `pos` is
    /// exactly `id`, in insertion order. The id-level positional index the
    /// planned executor scans.
    pub fn pos_bucket(&self, pred: Sym, pos: usize, id: TermId) -> &[FactId] {
        self.by_pos
            .get(&(pred, pos as u32, id))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Fact at a raw index, materialized (used with
    /// [`Instance::candidates`]); hot paths use [`Instance::fact`].
    pub fn atom_at(&self, idx: FactId) -> Atom {
        let view = self.fact(idx);
        Atom::new(
            view.pred(),
            (0..view.arity()).map(|i| view.term(i)).collect(),
        )
    }

    /// Zero-copy view of the fact at `idx`: predicate, arity, and per-column
    /// id access without materializing an [`Atom`].
    pub fn fact(&self, idx: FactId) -> FactView<'_> {
        let loc = self.locs[idx as usize];
        FactView {
            table: &self.tables[loc.table as usize],
            pred: self.table_preds[loc.table as usize],
            row: loc.row as usize,
        }
    }

    /// A fresh labeled null, never used in this instance before.
    pub fn fresh_null(&mut self) -> Term {
        let t = Term::Null(self.next_null);
        self.next_null += 1;
        t
    }

    /// Make sure future fresh nulls are numbered at least `floor`.
    pub fn reserve_nulls(&mut self, floor: u32) {
        self.next_null = self.next_null.max(floor);
    }

    /// The domain `dom(I)`: every constant and null occurring in some fact,
    /// in sorted order.
    pub fn domain(&self) -> BTreeSet<Term> {
        let mut out = BTreeSet::new();
        for tbl in &self.tables {
            for col in &tbl.cols {
                out.extend(col.iter().map(|id| id.term()));
            }
        }
        out
    }

    /// `|dom(I)|`.
    pub fn domain_size(&self) -> usize {
        self.domain().len()
    }

    /// All labeled nulls occurring in the instance.
    pub fn nulls(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for tbl in &self.tables {
            for col in &tbl.cols {
                out.extend(col.iter().filter_map(|id| id.as_null()));
            }
        }
        out
    }

    /// All constants occurring in the instance.
    pub fn constants(&self) -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for tbl in &self.tables {
            for col in &tbl.cols {
                out.extend(col.iter().filter_map(|id| id.term().as_const()));
            }
        }
        out
    }

    /// `null-pos({t}, I)` (Definition 9): the set of positions at which `t`
    /// occurs in the instance.
    pub fn positions_of(&self, t: Term) -> PosSet {
        let mut out = PosSet::new();
        let Some(id) = TermId::from_ground(t) else {
            return out;
        };
        for (ti, tbl) in self.tables.iter().enumerate() {
            for (i, col) in tbl.cols.iter().enumerate() {
                if col.contains(&id) {
                    out.insert(Position::new(self.table_preds[ti], i));
                }
            }
        }
        out
    }

    /// Replace every occurrence of `from` by `to` (the EGD merge primitive).
    ///
    /// A **delta pass**: the rows containing `from` are located through the
    /// `(pred, pos, from)` buckets of the positional index, only those rows
    /// are rewritten in place, and dedup, `by_pred`, `by_pos` and the
    /// cardinality/distinct statistics are patched incrementally.
    /// Rewritten rows that collapse onto an already-present row (and
    /// present rows absorbed by an earlier rewritten row) are removed and
    /// the remaining fact ids compacted, so the resulting store is
    /// indistinguishable from replaying the whole rewritten insert stream
    /// from scratch.
    ///
    /// Cost: O(touched rows · arity) to rewrite, plus — only when some row
    /// is removed — O(s · arity · log b) to compact, where `s` is the number
    /// of facts after the first removed id and `b` the largest index bucket
    /// such a fact sits in. Facts before the first removed id keep their
    /// ids and rows, so their index entries are never visited. A merge that
    /// removes nothing never renumbers; one that removes an early fact
    /// still re-keys the whole suffix behind it.
    ///
    /// A merge whose `from` occurs in no fact (including a variable or
    /// `from == to`) is a true no-op: no index is touched and
    /// [`Instance::version`] does not move, so plan caches and trigger
    /// pools stay untouched too. An effective merge bumps the version once.
    ///
    /// Returns a [`MergeEffect`] naming the surviving rewritten rows — the
    /// delta engines re-match triggers against — and the collapse count.
    ///
    /// # Panics
    /// Panics when `from` occurs in some fact but `to` is not ground (the
    /// rewrite would have to store a variable).
    pub fn merge_terms(&mut self, from: Term, to: Term) -> MergeEffect {
        if from == to {
            return MergeEffect::noop(from, to);
        }
        // A variable (never-interned) `from` occurs in no fact.
        let Some(from_id) = TermId::from_ground(from) else {
            return MergeEffect::noop(from, to);
        };
        // The occurrences of `from`, via the positional index: the union of
        // the `(pred, pos, from)` buckets over every stored column. The
        // `(pred, pos)` pairs are collected first because two tables can
        // share a predicate (mixed arities share positional buckets).
        let mut pairs: Vec<(Sym, u32)> = Vec::new();
        for (ti, tbl) in self.tables.iter().enumerate() {
            let pred = self.table_preds[ti];
            for p in 0..tbl.cols.len() as u32 {
                if !pairs.contains(&(pred, p)) {
                    pairs.push((pred, p));
                }
            }
        }
        let mut touched: Vec<FactId> = Vec::new();
        for &(pred, p) in &pairs {
            if let Some(bucket) = self.by_pos.get(&(pred, p, from_id)) {
                touched.extend_from_slice(bucket);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        if touched.is_empty() {
            return MergeEffect::noop(from, to);
        }
        let to_id = match TermId::from_ground(to) {
            Some(id) => id,
            // The old owned-atom store hit `insert`'s ground check when the
            // replay produced a non-ground atom; the delta path must not
            // silently store the NEVER sentinel instead.
            None => panic!("merge target must be ground, got {to} for occurring term {from}"),
        };

        // Phase 1 — classify, replay-faithfully: walking the touched rows
        // in id order, the first row to reach a content keeps it and later
        // duplicates collapse; a rewritten row also *absorbs* a later
        // untouched row that already carried its post-rewrite content.
        // Read-only: the store still answers pre-merge probes here.
        struct RowPlan {
            fact: FactId,
            old_hash: u64,
            new_hash: u64,
            /// Positions where `from` occurred in this row.
            from_positions: Vec<u32>,
            /// `false`: collapses onto an earlier row and is removed.
            survives: bool,
        }
        let mut plans: Vec<RowPlan> = Vec::with_capacity(touched.len());
        // Untouched rows absorbed by an earlier rewritten row.
        let mut absorbed: Vec<FactId> = Vec::new();
        // Contents minted so far this merge: new row hash → the surviving
        // touched rows now carrying it (chained on hash collision).
        let mut fresh: FxHashMap<u64, Vec<FactId>> = FxHashMap::default();
        let mut ids = std::mem::take(&mut self.scratch);
        for &t in &touched {
            let loc = self.locs[t as usize];
            let tbl = &self.tables[loc.table as usize];
            let pred = self.table_preds[loc.table as usize];
            ids.clear();
            let mut from_positions = Vec::new();
            let mut oh = FxHasher::default();
            let mut nh = FxHasher::default();
            oh.write_u32(pred.id());
            nh.write_u32(pred.id());
            oh.write_u32(tbl.cols.len() as u32);
            nh.write_u32(tbl.cols.len() as u32);
            for (p, col) in tbl.cols.iter().enumerate() {
                let id = col[loc.row as usize];
                oh.write_u32(id.raw());
                if id == from_id {
                    from_positions.push(p as u32);
                    nh.write_u32(to_id.raw());
                    ids.push(to_id);
                } else {
                    nh.write_u32(id.raw());
                    ids.push(id);
                }
            }
            let (old_hash, new_hash) = (oh.finish(), nh.finish());
            let mut survives = true;
            if let Some(owners) = fresh.get(&new_hash) {
                // An earlier touched row already owns this content (its
                // stored cells still read `from`, so compare through the
                // rewrite).
                survives = !owners
                    .iter()
                    .any(|&o| self.row_matches_rewritten(o, pred, &ids, from_id, to_id));
            }
            if survives {
                if let Some(j) = self.probe(new_hash, pred, &ids) {
                    // A pre-merge row already carries the new content; it
                    // can only be an untouched row (touched contents still
                    // contain `from`). Earlier row wins, exactly like the
                    // replay.
                    if j < t {
                        survives = false;
                    } else {
                        absorbed.push(j);
                    }
                }
            }
            if survives {
                fresh.entry(new_hash).or_default().push(t);
            }
            plans.push(RowPlan {
                fact: t,
                old_hash,
                new_hash,
                from_positions,
                survives,
            });
        }
        let mut removed = absorbed;
        removed.extend(plans.iter().filter(|p| !p.survives).map(|p| p.fact));
        removed.sort_unstable();

        // Phase 2 — apply, while every cell still reads its pre-merge
        // content. Removed rows (collapsing touched rows and absorbed
        // untouched ones) leave dedup and every positional bucket but the
        // `from` ones, which empty wholesale below. They leave dedup before
        // any survivor is rehashed: an absorbed row's entry sits under the
        // exact hash its absorber is about to claim.
        for &r in &removed {
            let loc = self.locs[r as usize];
            let pred = self.table_preds[loc.table as usize];
            let tbl = &self.tables[loc.table as usize];
            ids.clear();
            ids.extend(tbl.cols.iter().map(|c| c[loc.row as usize]));
            self.dedup_remove(row_hash(pred, &ids), r);
            for (p, &id) in ids.iter().enumerate() {
                if id != from_id {
                    self.remove_pos_entry(pred, p as u32, id, r);
                }
            }
        }
        for plan in plans.iter().filter(|p| p.survives) {
            self.dedup_remove(plan.old_hash, plan.fact);
            self.dedup_insert(plan.new_hash, plan.fact);
        }
        // Every `(pred, pos, from)` bucket empties wholesale — its members
        // are exactly the touched rows.
        for &(pred, p) in &pairs {
            if self.by_pos.remove(&(pred, p, from_id)).is_some() {
                self.uncount_distinct(pred, p);
            }
        }
        // Survivors move into the `to` buckets at their rewritten positions,
        // and their cells are rewritten in place.
        for plan in plans.iter().filter(|p| p.survives) {
            let loc = self.locs[plan.fact as usize];
            let pred = self.table_preds[loc.table as usize];
            for &p in &plan.from_positions {
                let bucket = self.by_pos.entry((pred, p, to_id)).or_default();
                if bucket.is_empty() {
                    *self.distinct.entry((pred, p)).or_insert(0) += 1;
                }
                bucket_insert(bucket, plan.fact);
                self.tables[loc.table as usize].cols[p as usize][loc.row as usize] = to_id;
            }
        }

        // Physically drop the removed rows. A fact before `removed[0]` was
        // inserted before every removed row, so its id, its table row and
        // every index entry naming it stay put: only the suffix from the
        // first removal moves, and only it is compacted and re-keyed.
        if !removed.is_empty() {
            for &r in &removed {
                let loc = self.locs[r as usize];
                let pred = self.table_preds[loc.table as usize];
                let bucket = self.by_pred.get_mut(&pred).expect("fact was indexed");
                bucket_remove(bucket, r);
                if bucket.is_empty() {
                    self.by_pred.remove(&pred);
                }
            }
            // A table's rows are in id order, so walking `removed` in id
            // order lists each table's removed rows ascending.
            let mut rows_by_table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
            for &r in &removed {
                let loc = self.locs[r as usize];
                rows_by_table.entry(loc.table).or_default().push(loc.row);
            }
            for (&t, rows) in &rows_by_table {
                let tbl = &mut self.tables[t as usize];
                let nrows = tbl.rows as usize;
                for col in &mut tbl.cols {
                    let start = rows[0] as usize;
                    let (mut next_gone, mut w) = (0, start);
                    for r in start..nrows {
                        if next_gone < rows.len() && rows[next_gone] as usize == r {
                            next_gone += 1;
                            continue;
                        }
                        col[w] = col[r];
                        w += 1;
                    }
                    col.truncate(w);
                }
                tbl.rows -= rows.len() as u32;
            }
            // Shift `locs` down in place and re-key each moved fact from its
            // old id to its new one, in ascending id order: every bucket
            // entry below the fact is either untouched (below the first
            // removal) or already re-keyed to an id below the new one, and
            // every entry above it still holds an old id above the old one,
            // so each bucket stays sorted while it is patched and a binary
            // search finds the old id.
            let first = removed[0] as usize;
            let (mut next_gone, mut w) = (0, first);
            for f in first..self.locs.len() {
                if next_gone < removed.len() && removed[next_gone] as usize == f {
                    next_gone += 1;
                    continue;
                }
                let mut loc = self.locs[f];
                if let Some(rows) = rows_by_table.get(&loc.table) {
                    loc.row -= rows.partition_point(|&r| r < loc.row) as u32;
                }
                self.locs[w] = loc;
                let (old, new) = (f as FactId, w as FactId);
                w += 1;
                let pred = self.table_preds[loc.table as usize];
                ids.clear();
                ids.extend(
                    self.tables[loc.table as usize]
                        .cols
                        .iter()
                        .map(|c| c[loc.row as usize]),
                );
                let rekey = |bucket: &mut Vec<FactId>| {
                    let i = bucket.binary_search(&old).expect("moved fact is indexed");
                    bucket[i] = new;
                };
                rekey(self.by_pred.get_mut(&pred).expect("moved fact is indexed"));
                for (p, &id) in ids.iter().enumerate() {
                    rekey(
                        self.by_pos
                            .get_mut(&(pred, p as u32, id))
                            .expect("moved fact is indexed"),
                    );
                }
                let hash = row_hash(pred, &ids);
                match self.dedup.get_mut(&hash) {
                    Some(slot) if *slot == old => *slot = new,
                    _ => {
                        let chain = self
                            .dedup_overflow
                            .get_mut(&hash)
                            .expect("moved fact is deduplicated");
                        let slot = chain
                            .iter_mut()
                            .find(|f| **f == old)
                            .expect("moved fact is deduplicated");
                        *slot = new;
                    }
                }
            }
            self.locs.truncate(w);
        }

        if let Some(n) = to_id.as_null() {
            self.next_null = self.next_null.max(n + 1);
        }
        self.version += 1;
        self.scratch = ids;
        let rewritten = plans
            .iter()
            .filter(|p| p.survives)
            .map(|p| p.fact - removed.partition_point(|&r| r < p.fact) as u32)
            .collect();
        MergeEffect {
            rewritten,
            collapsed: removed.len(),
            from,
            to,
        }
    }

    /// Content equality of `ids` (a row as it will read post-rewrite)
    /// against the stored row `f` viewed through the same `from → to`
    /// rewrite. Used by the merge's classification phase, where the store
    /// still holds pre-merge cells.
    fn row_matches_rewritten(
        &self,
        f: FactId,
        pred: Sym,
        ids: &[TermId],
        from_id: TermId,
        to_id: TermId,
    ) -> bool {
        let loc = self.locs[f as usize];
        let tbl = &self.tables[loc.table as usize];
        self.table_preds[loc.table as usize] == pred
            && tbl.cols.len() == ids.len()
            && tbl.cols.iter().zip(ids).all(|(col, &want)| {
                let mut have = col[loc.row as usize];
                if have == from_id {
                    have = to_id;
                }
                have == want
            })
    }

    /// Drop `fact` from the `(pred, pos, id)` bucket, dropping the bucket
    /// (and its distinct count) when it empties.
    fn remove_pos_entry(&mut self, pred: Sym, pos: u32, id: TermId, fact: FactId) {
        let Some(bucket) = self.by_pos.get_mut(&(pred, pos, id)) else {
            return;
        };
        bucket_remove(bucket, fact);
        if bucket.is_empty() {
            self.by_pos.remove(&(pred, pos, id));
            self.uncount_distinct(pred, pos);
        }
    }

    /// One `(pred, pos, _)` bucket was dropped: decrement the position's
    /// distinct count, dropping the count at zero.
    fn uncount_distinct(&mut self, pred: Sym, pos: u32) {
        let d = self
            .distinct
            .get_mut(&(pred, pos))
            .expect("live bucket is counted");
        *d -= 1;
        if *d == 0 {
            self.distinct.remove(&(pred, pos));
        }
    }

    /// Drop `fact` from the dedup table under `hash`, keeping the
    /// primary-slot/overflow-chain invariant (a probe gives up when the
    /// primary slot is empty, so a surviving chain entry gets promoted).
    fn dedup_remove(&mut self, hash: u64, fact: FactId) {
        if self.dedup.get(&hash) == Some(&fact) {
            match self.dedup_overflow.get_mut(&hash) {
                Some(chain) if !chain.is_empty() => {
                    let promoted = chain.remove(0);
                    if chain.is_empty() {
                        self.dedup_overflow.remove(&hash);
                    }
                    self.dedup.insert(hash, promoted);
                }
                _ => {
                    self.dedup.remove(&hash);
                    self.dedup_overflow.remove(&hash);
                }
            }
        } else if let Some(chain) = self.dedup_overflow.get_mut(&hash) {
            chain.retain(|&f| f != fact);
            if chain.is_empty() {
                self.dedup_overflow.remove(&hash);
            }
        }
    }

    /// Enter `fact` into the dedup table under `hash`: primary slot if
    /// free, overflow chain otherwise (the tail of `insert_ids`, shared
    /// with the merge path).
    fn dedup_insert(&mut self, hash: u64, fact: FactId) {
        match self.dedup.entry(hash) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(fact);
            }
            std::collections::hash_map::Entry::Occupied(_) => {
                self.dedup_overflow.entry(hash).or_default().push(fact);
            }
        }
    }

    /// The schema induced by the facts.
    pub fn schema(&self) -> Result<Schema, CoreError> {
        let mut s = Schema::new();
        // Tables are created in first-occurrence order, so an arity
        // conflict reports the earliest arity as "expected", like the old
        // per-atom observation did.
        for (ti, tbl) in self.tables.iter().enumerate() {
            s.observe(self.table_preds[ti], tbl.cols.len())?;
        }
        Ok(s)
    }

    /// Facts in a canonical sorted order (for display and comparison).
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut v: Vec<Atom> = self.iter().collect();
        v.sort_by(|a, b| {
            a.pred()
                .as_str()
                .cmp(b.pred().as_str())
                .then_with(|| a.terms().cmp(b.terms()))
        });
        v
    }
}

/// A borrowed view of one stored fact: predicate, arity and per-position
/// term access without materializing an [`Atom`].
///
/// This is what the homomorphism searcher and the planned executor match
/// candidates against — [`FactView::term_id`] is a column load, so
/// verifying a candidate position by position touches only `u32`s.
#[derive(Clone, Copy)]
pub struct FactView<'a> {
    table: &'a PredTable,
    pred: Sym,
    row: usize,
}

impl FactView<'_> {
    /// The fact's predicate.
    pub fn pred(&self) -> Sym {
        self.pred
    }

    /// The fact's arity.
    pub fn arity(&self) -> usize {
        self.table.cols.len()
    }

    /// The interned id at position `pos`.
    ///
    /// # Panics
    /// Panics when `pos` is out of the fact's arity.
    #[inline]
    pub fn term_id(&self, pos: usize) -> TermId {
        self.table.cols[pos][self.row]
    }

    /// The term at position `pos` (an O(1) id round-trip).
    ///
    /// # Panics
    /// Panics when `pos` is out of the fact's arity.
    #[inline]
    pub fn term(&self, pos: usize) -> Term {
        self.term_id(pos).term()
    }
}

// Instances are shared read-only across threads: the session server
// publishes each chased instance as an `Arc<Instance>` snapshot that query
// threads read while the next batch is chased. `Sym` is an index into the
// process-wide interner, which is guarded by a `parking_lot`-style
// `RwLock`, and `TermId` is plain data, so everything an instance holds is
// plain shareable data.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<Instance>();
};

impl PartialEq for Instance {
    /// Set equality over facts (insertion order and null counters ignored).
    fn eq(&self, other: &Instance) -> bool {
        if self.locs.len() != other.locs.len() {
            return false;
        }
        // Both sides are duplicate-free, so equal cardinality plus
        // one-sided containment is set equality.
        let mut ids: Vec<TermId> = Vec::new();
        for (ti, tbl) in self.tables.iter().enumerate() {
            let pred = self.table_preds[ti];
            for row in 0..tbl.rows {
                ids.clear();
                ids.extend(tbl.cols.iter().map(|col| col[row as usize]));
                if other.probe(row_hash(pred, &ids), pred, &ids).is_none() {
                    return false;
                }
            }
        }
        true
    }
}

impl Eq for Instance {}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in self.sorted_atoms() {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{a}.")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{self}}}")
    }
}

impl Extend<Atom> for Instance {
    fn extend<T: IntoIterator<Item = Atom>>(&mut self, iter: T) {
        for a in iter {
            self.insert(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ca(pred: &str, terms: &[&str]) -> Atom {
        Atom::new(pred, terms.iter().map(|t| Term::constant(t)).collect())
    }

    #[test]
    fn insert_dedupes() {
        let mut i = Instance::new();
        assert!(i.insert(ca("E", &["a", "b"])));
        assert!(!i.insert(ca("E", &["a", "b"])));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn version_moves_exactly_on_mutation() {
        let mut i = Instance::new();
        assert_eq!(i.version(), 0);
        i.insert(ca("E", &["a", "b"]));
        assert_eq!(i.version(), 1);
        // Duplicate insert: no mutation, no version movement.
        i.insert(ca("E", &["a", "b"]));
        assert_eq!(i.version(), 1);
        i.insert(ca("E", &["a", "c"]));
        assert_eq!(i.version(), 2);
        // A merge whose `from` occurs nowhere is a true no-op.
        let eff = i.merge_terms(Term::constant("zzz"), Term::constant("b"));
        assert!(eff.is_noop());
        assert_eq!(i.version(), 2);
        // An effective merge bumps once.
        let eff = i.merge_terms(Term::constant("c"), Term::constant("b"));
        assert!(!eff.is_noop());
        assert_eq!(i.version(), 3);
        // Clones carry the version forward.
        assert_eq!(i.clone().version(), 3);
    }

    /// Structural equality, stronger than the set equality of `==`: the
    /// same facts under the same ids, the same tables, index buckets,
    /// statistics and dedup chains, the same version and null counter.
    fn assert_same_store(a: &Instance, b: &Instance) {
        assert_eq!(a.atoms(), b.atoms());
        assert_eq!(a.version(), b.version());
        assert_eq!(a.clone().fresh_null(), b.clone().fresh_null());
        assert_eq!(a.table_preds, b.table_preds);
        assert_eq!(a.tables.len(), b.tables.len());
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!((&ta.cols, ta.rows), (&tb.cols, tb.rows));
        }
        assert_eq!(a.by_pred, b.by_pred);
        assert_eq!(a.by_pos, b.by_pos);
        assert_eq!(a.distinct, b.distinct);
        assert_eq!(a.dedup, b.dedup);
        assert_eq!(a.dedup_overflow, b.dedup_overflow);
        for f in 0..a.len() as FactId {
            let view = a.fact(f);
            let ids: Vec<TermId> = (0..view.arity()).map(|p| view.term_id(p)).collect();
            assert_eq!(b.find_ids(view.pred(), &ids), Some(f));
        }
    }

    #[test]
    fn catch_up_from_an_earlier_clone_equals_a_fresh_clone() {
        let mut src = Instance::parse("E(a,b). S(a).").unwrap();
        // A merge before the clone is fine: the clone starts after it.
        src.merge_terms(Term::constant("b"), Term::constant("a"));
        let mut stages = vec![src.clone()];
        // Plain inserts, a duplicate, and a labeled null.
        src.insert(ca("E", &["b", "c"]));
        src.insert(ca("E", &["b", "c"]));
        src.insert(Atom::new("E", vec![Term::Null(3), Term::constant("a")]));
        stages.push(src.clone());
        // A predicate first seen in the delta, then the same predicate at a
        // second arity: two new tables.
        src.insert(ca("P", &["a"]));
        src.insert(ca("P", &["a", "b"]));
        src.insert(ca("P", &["c"]));
        stages.push(src.clone());
        // A fresh-null bump that adds no fact, then one that does.
        src.reserve_nulls(10);
        stages.push(src.clone());
        let n = src.fresh_null();
        src.insert(Atom::new("S", vec![n]));
        src.fresh_null();
        for stage in &stages {
            let mut published = stage.clone();
            assert!(published.catch_up(&src));
            assert_same_store(&published, &src.clone());
        }
        // Caught up already: a no-op that still reports success.
        let mut same = src.clone();
        assert!(same.catch_up(&src));
        assert_same_store(&same, &src);
        // Catching up stage by stage lands on the same store.
        let mut stepped = stages[0].clone();
        for stage in &stages[1..] {
            assert!(stepped.catch_up(stage));
        }
        assert!(stepped.catch_up(&src));
        assert_same_store(&stepped, &src);
    }

    #[test]
    fn catch_up_refuses_after_a_merge_or_when_ahead() {
        let mut src = Instance::parse("E(a,b). E(c,b). S(c).").unwrap();
        let early = src.clone();
        // An insert, an effective merge that collapses it, another insert:
        // the length moved by one, the version by three.
        src.insert(Atom::new("E", vec![Term::Null(0), Term::constant("b")]));
        src.merge_terms(Term::Null(0), Term::constant("a"));
        src.insert(ca("S", &["d"]));
        let mut published = early.clone();
        assert!(!published.catch_up(&src));
        assert_same_store(&published, &early);
        // A merge that collapses nothing is refused too.
        let mut merged = early.clone();
        merged.insert(Atom::new("T", vec![Term::Null(5)]));
        merged.merge_terms(Term::Null(5), Term::constant("z"));
        let mut published = early.clone();
        assert!(!published.catch_up(&merged));
        assert_same_store(&published, &early);
        // `self` ahead of `src`.
        let mut ahead = early.clone();
        ahead.insert(ca("S", &["e"]));
        let before = ahead.clone();
        assert!(!ahead.catch_up(&early));
        assert_same_store(&ahead, &before);
    }

    #[test]
    fn insert_batch_is_atomic_and_returns_the_delta() {
        let mut i = Instance::parse("E(a,b). S(a).").unwrap();
        let delta = i
            .insert_batch(vec![
                ca("E", &["a", "b"]),
                ca("E", &["b", "c"]),
                ca("S", &["b"]),
            ])
            .unwrap();
        assert_eq!(delta, vec![ca("E", &["b", "c"]), ca("S", &["b"])]);
        assert_eq!(i.len(), 4);
        // In-batch duplicates collapse into one delta entry.
        let delta = i
            .insert_batch(vec![ca("T", &["x"]), ca("T", &["x"])])
            .unwrap();
        assert_eq!(delta.len(), 1);
        // A non-ground atom anywhere in the batch rejects the whole batch.
        let before = i.len();
        let res = i.insert_batch(vec![ca("T", &["y"]), Atom::new("T", vec![Term::var("X")])]);
        assert!(res.is_err());
        assert_eq!(i.len(), before, "failed batch must not partially apply");
    }

    #[test]
    fn rejects_variables() {
        let mut i = Instance::new();
        let res = i.try_insert(Atom::new("E", vec![Term::var("X")]));
        assert!(res.is_err());
    }

    #[test]
    fn fresh_nulls_avoid_existing_ids() {
        let mut i = Instance::new();
        i.insert(Atom::new("S", vec![Term::null(7)]));
        assert_eq!(i.fresh_null(), Term::null(8));
        assert_eq!(i.fresh_null(), Term::null(9));
    }

    #[test]
    fn atoms_round_trip_in_insertion_order() {
        let mut i = Instance::new();
        let a = Atom::new("E", vec![Term::constant("a"), Term::null(0)]);
        let b = ca("S", &["a"]);
        let c = ca("E", &["a", "b"]);
        i.insert(a.clone());
        i.insert(b.clone());
        i.insert(c.clone());
        assert_eq!(i.atoms(), vec![a.clone(), b, c]);
        assert_eq!(i.atom_at(0), a);
        let v = i.fact(0);
        assert_eq!(v.pred(), Sym::new("E"));
        assert_eq!(v.arity(), 2);
        assert_eq!(v.term(0), Term::constant("a"));
        assert_eq!(v.term_id(1), TermId::from_ground(Term::null(0)).unwrap());
    }

    #[test]
    fn mixed_arity_predicates_coexist() {
        // The old atom-level store tolerated one predicate at two arities;
        // the columnar store keeps that (separate tables, shared buckets).
        let mut i = Instance::new();
        i.insert(ca("R", &["a"]));
        i.insert(ca("R", &["a", "b"]));
        i.insert(ca("R", &["b"]));
        assert_eq!(i.len(), 3);
        assert_eq!(i.pred_cardinality(Sym::new("R")), 3);
        let atoms: Vec<Atom> = i.with_pred(Sym::new("R")).collect();
        assert_eq!(
            atoms,
            vec![ca("R", &["a"]), ca("R", &["a", "b"]), ca("R", &["b"])]
        );
        assert!(i.contains(&ca("R", &["a", "b"])));
        assert!(!i.contains(&ca("R", &["a", "c"])));
        assert!(i.schema().is_err(), "schema still reports the conflict");
    }

    #[test]
    fn candidates_uses_position_index() {
        let mut i = Instance::new();
        i.insert(ca("E", &["a", "b"]));
        i.insert(ca("E", &["a", "c"]));
        i.insert(ca("E", &["d", "c"]));
        let all = i.candidates(Sym::new("E"), &[]);
        assert_eq!(all.len(), 3);
        let first_a = i.candidates(Sym::new("E"), &[(0, Term::constant("a"))]);
        assert_eq!(first_a.len(), 2);
        let both = i.candidates(
            Sym::new("E"),
            &[(0, Term::constant("d")), (1, Term::constant("c"))],
        );
        assert_eq!(both.len(), 1);
        let none = i.candidates(Sym::new("E"), &[(0, Term::constant("zzz"))]);
        assert!(none.is_empty());
    }

    #[test]
    fn merge_rewrites_and_dedupes() {
        let mut i = Instance::new();
        i.insert(Atom::new("E", vec![Term::constant("a"), Term::null(0)]));
        i.insert(Atom::new(
            "E",
            vec![Term::constant("a"), Term::constant("b")],
        ));
        let eff = i.merge_terms(Term::null(0), Term::constant("b"));
        // The rewritten row (id 0) survives and absorbs the later duplicate.
        assert_eq!(eff.rewritten, vec![0]);
        assert_eq!(eff.collapsed, 1);
        assert!(!eff.is_noop());
        assert_eq!((eff.from, eff.to), (Term::null(0), Term::constant("b")));
        assert_eq!(i.len(), 1);
        assert!(i.contains(&ca("E", &["a", "b"])));
        // Null counter still advances past the merged null.
        assert!(i.fresh_null().as_null().unwrap() >= 1);
    }

    #[test]
    fn merge_effect_names_surviving_rows_post_compaction() {
        // E(_n0,c) id0, E(b,c) id1, S(_n0) id2: merging _n0→b makes id0
        // read E(b,c); being earlier, id0 keeps the content and absorbs
        // the untouched duplicate id1, while id2 rewrites to S(b).
        let mut i = Instance::new();
        i.insert(Atom::new("E", vec![Term::null(0), Term::constant("c")]));
        i.insert(ca("E", &["b", "c"]));
        i.insert(Atom::new("S", vec![Term::null(0)]));
        let eff = i.merge_terms(Term::null(0), Term::constant("b"));
        // id0 rewrites to E(b,c) and absorbs id1; id2 rewrites to S(b) and
        // compacts from id 2 to id 1.
        assert_eq!(eff.rewritten, vec![0, 1]);
        assert_eq!(eff.collapsed, 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.atom_at(0), ca("E", &["b", "c"]));
        assert_eq!(i.atom_at(1), ca("S", &["b"]));
    }

    /// The position index must agree with a brute-force scan — the
    /// delta-driven engine trusts `candidates` to seed trigger re-matching,
    /// so a stale bucket after a merge would silently shrink the trigger
    /// set.
    fn assert_index_consistent(i: &Instance) {
        let atoms = i.atoms();
        let mut preds: BTreeSet<Sym> = BTreeSet::new();
        for a in &atoms {
            preds.insert(a.pred());
        }
        for &p in &preds {
            for t in i.domain() {
                let max_arity = atoms
                    .iter()
                    .filter(|a| a.pred() == p)
                    .map(|a| a.terms().len())
                    .max()
                    .unwrap_or(0);
                for pos in 0..max_arity {
                    let indexed: Vec<u32> = i.candidates(p, &[(pos, t)]).to_vec();
                    let scanned: Vec<u32> = atoms
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| a.pred() == p && a.terms().get(pos) == Some(&t))
                        .map(|(idx, _)| idx as u32)
                        .collect();
                    assert_eq!(
                        indexed, scanned,
                        "stale index bucket for ({p}, {pos}, {t}) in {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_keeps_position_index_consistent() {
        let mut i = Instance::new();
        i.insert(Atom::new("E", vec![Term::constant("a"), Term::null(0)]));
        i.insert(Atom::new("E", vec![Term::null(0), Term::constant("c")]));
        i.insert(Atom::new(
            "E",
            vec![Term::constant("a"), Term::constant("b")],
        ));
        i.insert(Atom::new("S", vec![Term::null(0)]));
        i.insert(Atom::new("S", vec![Term::constant("b")]));
        assert_index_consistent(&i);
        i.merge_terms(Term::null(0), Term::constant("b"));
        assert_index_consistent(&i);
        // The merged-away null must have vanished from every bucket.
        assert!(i
            .candidates(Sym::new("E"), &[(0, Term::null(0))])
            .is_empty());
        assert!(i
            .candidates(Sym::new("E"), &[(1, Term::null(0))])
            .is_empty());
        assert!(i
            .candidates(Sym::new("S"), &[(0, Term::null(0))])
            .is_empty());
        // Chained merges (null into null, then into a constant) stay clean.
        let mut j = Instance::new();
        j.insert(Atom::new("E", vec![Term::null(1), Term::null(2)]));
        j.insert(Atom::new("E", vec![Term::null(2), Term::null(1)]));
        j.merge_terms(Term::null(2), Term::null(1));
        assert_index_consistent(&j);
        j.merge_terms(Term::null(1), Term::constant("x"));
        assert_index_consistent(&j);
        assert!(j.contains(&ca("E", &["x", "x"])));
        assert_eq!(j.len(), 1);
    }

    #[test]
    #[should_panic(expected = "merge target must be ground")]
    fn merge_to_a_variable_panics_when_occurring() {
        // The old owned-atom store hit `insert`'s ground check when the
        // replay produced a non-ground atom; the id-remap path must not
        // silently store the NEVER sentinel instead.
        let mut i = Instance::new();
        i.insert(ca("E", &["a", "b"]));
        i.merge_terms(Term::constant("b"), Term::var("X"));
    }

    #[test]
    fn merge_without_occurrences_is_a_true_no_op() {
        // Nothing to rewrite — whether `from` is a variable or simply a
        // term occurring in no fact — must leave everything alone: no
        // index cleared, no version bumped (so plan caches and trigger
        // pools see nothing either).
        let mut i = Instance::new();
        i.insert(ca("E", &["a", "b"]));
        let eff = i.merge_terms(Term::var("X"), Term::constant("c"));
        assert!(eff.is_noop());
        let eff = i.merge_terms(Term::null(9), Term::constant("c"));
        assert!(eff.is_noop());
        assert_eq!(i.version(), 1, "no-op merges move no version");
        assert_eq!(i.len(), 1);
        assert_index_consistent(&i);
    }

    /// `with_pred` must be served by the per-predicate index, not a scan
    /// over all atoms — after merges included.
    #[test]
    fn with_pred_is_index_backed() {
        let mut i = Instance::new();
        i.insert(ca("E", &["a", "b"]));
        i.insert(ca("S", &["a"]));
        i.insert(Atom::new("E", vec![Term::constant("a"), Term::null(0)]));
        let e: Vec<Atom> = i.with_pred(Sym::new("E")).collect();
        assert_eq!(e.len(), 2); // ExactSizeIterator: length known up front
        assert_eq!(i.with_pred(Sym::new("E")).len(), 2);
        assert_eq!(i.pred_cardinality(Sym::new("E")), 2);
        assert_eq!(i.pred_cardinality(Sym::new("zzz")), 0);
        let scanned: Vec<Atom> = i.iter().filter(|a| a.pred() == Sym::new("E")).collect();
        assert_eq!(e, scanned);
        i.merge_terms(Term::null(0), Term::constant("b"));
        assert_eq!(i.with_pred(Sym::new("E")).len(), 1);
        assert_eq!(i.pred_cardinality(Sym::new("E")), 1);
    }

    #[test]
    fn distinct_counts_track_inserts_and_merges() {
        let mut i = Instance::new();
        i.insert(ca("E", &["a", "b"]));
        i.insert(ca("E", &["a", "c"]));
        i.insert(ca("E", &["d", "c"]));
        let e = Sym::new("E");
        assert_eq!(i.distinct_at(e, 0), 2); // a, d
        assert_eq!(i.distinct_at(e, 1), 2); // b, c
        assert_eq!(i.distinct_at(e, 2), 0);
        assert_eq!(i.distinct_at(Sym::new("S"), 0), 0);
        // Merging c into b collapses the second column to one value.
        i.insert(Atom::new("E", vec![Term::constant("a"), Term::null(0)]));
        assert_eq!(i.distinct_at(e, 1), 3);
        i.merge_terms(Term::null(0), Term::constant("b"));
        assert_eq!(i.distinct_at(e, 1), 2);
        assert_eq!(i.distinct_at(e, 0), 2);
    }

    #[test]
    fn stats_epoch_grows_with_doubling() {
        let mut i = Instance::new();
        assert_eq!(i.stats_epoch(), 0);
        i.insert(ca("S", &["a"]));
        assert_eq!(i.stats_epoch(), 1);
        i.insert(ca("S", &["b"]));
        assert_eq!(i.stats_epoch(), 2);
        i.insert(ca("S", &["c"]));
        assert_eq!(i.stats_epoch(), 2);
        i.insert(ca("S", &["d"]));
        assert_eq!(i.stats_epoch(), 3);
        // Collapsing S(_n0) onto S(a) bumps the version once and leaves
        // the epoch; a no-op merge moves neither.
        i.insert(Atom::new("S", vec![Term::null(0)]));
        assert_eq!(i.version(), 5);
        i.merge_terms(Term::null(0), Term::constant("a"));
        assert_eq!(i.version(), 6);
        assert_eq!(i.stats_epoch(), 3);
        i.merge_terms(Term::constant("a"), Term::constant("a")); // no-op
        assert_eq!(i.version(), 6);
    }

    /// [`Instance::find_ids`] on a ground atom's interned row.
    fn find(i: &Instance, a: &Atom) -> Option<FactId> {
        let ids: Vec<TermId> = a
            .terms()
            .iter()
            .map(|&t| TermId::from_ground(t).unwrap())
            .collect();
        i.find_ids(a.pred(), &ids)
    }

    #[test]
    fn find_ids_matches_brute_force() {
        let mut i = Instance::new();
        i.insert(ca("T", &["a", "b", "c"]));
        i.insert(ca("T", &["a", "b", "d"]));
        i.insert(ca("T", &["y", "b", "c"]));
        i.insert(ca("S", &["a"]));
        for (f, a) in i.atoms().iter().enumerate() {
            assert_eq!(find(&i, a), Some(f as FactId), "{a}");
        }
        let miss = ca("T", &["a", "x", "c"]);
        assert_eq!(find(&i, &miss), None);
        assert_eq!(i.find_ids(Sym::new("T"), &[TermId::NEVER; 3]), None);
        // Inserts are visible to the next probe.
        i.insert(miss.clone());
        assert_eq!(find(&i, &miss), Some(4));
    }

    #[test]
    fn find_ids_survives_merges() {
        // T(a,_n0,c) id0, T(a,b,c) id1, T(z,b,c) id2: merging _n0→b makes
        // id0 absorb id1, and id2 compacts to id 1.
        let mut i = Instance::new();
        let null_row = Atom::new(
            "T",
            vec![Term::constant("a"), Term::null(0), Term::constant("c")],
        );
        i.insert(null_row.clone());
        i.insert(ca("T", &["a", "b", "c"]));
        i.insert(ca("T", &["z", "b", "c"]));
        assert_eq!(find(&i, &null_row), Some(0));
        i.merge_terms(Term::null(0), Term::constant("b"));
        assert_eq!(find(&i, &null_row), None, "the null row is gone");
        assert_eq!(find(&i, &ca("T", &["a", "b", "c"])), Some(0));
        assert_eq!(find(&i, &ca("T", &["z", "b", "c"])), Some(1), "compacted");
        i.insert(ca("T", &["a", "b", "q"]));
        assert_eq!(find(&i, &ca("T", &["a", "b", "q"])), Some(2));
    }

    #[test]
    fn find_ids_keeps_arities_apart() {
        let mut i = Instance::new();
        i.insert(ca("S", &["a"]));
        i.insert(ca("S", &["a", "a"]));
        assert_eq!(find(&i, &ca("S", &["a"])), Some(0));
        assert_eq!(find(&i, &ca("S", &["a", "a"])), Some(1));
        assert_eq!(find(&i, &ca("S", &["a", "a", "a"])), None);
        assert_eq!(find(&i, &ca("S", &[])), None);
    }

    #[test]
    fn domain_and_positions() {
        let mut i = Instance::new();
        i.insert(Atom::new("E", vec![Term::constant("a"), Term::null(1)]));
        i.insert(Atom::new("S", vec![Term::null(1)]));
        assert_eq!(i.domain_size(), 2);
        let pos = i.positions_of(Term::null(1));
        assert!(pos.contains(&Position::new("E", 1)));
        assert!(pos.contains(&Position::new("S", 0)));
        assert_eq!(pos.len(), 2);
    }

    #[test]
    fn set_equality_ignores_order() {
        let i1 = Instance::from_atoms(vec![ca("E", &["a", "b"]), ca("S", &["a"])]).unwrap();
        let i2 = Instance::from_atoms(vec![ca("S", &["a"]), ca("E", &["a", "b"])]).unwrap();
        assert_eq!(i1, i2);
        let i3 = Instance::from_atoms(vec![ca("E", &["a", "b"]), ca("S", &["b"])]).unwrap();
        assert_ne!(i1, i3);
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let i = Instance::from_atoms(vec![ca("S", &["b"]), ca("E", &["a", "b"]), ca("S", &["a"])])
            .unwrap();
        assert_eq!(i.to_string(), "E(a,b). S(a). S(b).");
    }
}
