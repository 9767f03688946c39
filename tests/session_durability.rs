//! Durability, pinned at the only boundary that matters: **a SIGKILL at
//! any point costs nothing that was acknowledged.** A durable
//! [`ChaseSession`] appends every batch to a checksummed write-ahead log
//! *before* applying it, so the session that
//! [`ChaseSession::open`]s the directory after a crash must be
//! indistinguishable — core isomorphism and exact certain answers — from a
//! cold chase of every batch the dead process acknowledged.
//!
//! The suite simulates the crash the honest way an in-process test can:
//! under [`FsyncPolicy::EveryBatch`] an acknowledged apply is already on
//! disk, so dropping the session without ceremony *is* the kill (the CI
//! smoke test does the real `kill -9` against the example server). On top
//! of the clean-kill pin it drives the corruption paths by hand — a tail
//! truncated mid-record, garbage appended past the last record — and the
//! compaction machinery: snapshots are a cache over the log, so loading
//! one must only change how fast reopen is (`replayed_records`), never
//! what it converges to.
//!
//! The vendored proptest stand-in has no collection strategies, so random
//! kill points and streams derive from a `u64` seed through `StdRng`,
//! like `session_server.rs`.

use chase::prelude::*;
use chase_core::homomorphism::hom_equivalent;
use chase_corpus::random::{
    random_instance, random_travel_stream, update_stream, RandomInstanceConfig, RandomTravelConfig,
    UpdateStreamConfig,
};
use chase_engine::chase;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fs::OpenOptions;
use std::path::PathBuf;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// A fresh per-test directory under the system temp dir. Each test name
/// appears once per process, so recreating from scratch keeps reruns
/// hermetic without a tempdir dependency.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "chase-durability-test-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn atoms(text: &str) -> Vec<Atom> {
    Instance::parse(text).unwrap().atoms()
}

/// Durability knobs with compaction off: every batch stays in the WAL, so
/// `replayed_records` counts exactly the acknowledged stream.
fn no_compaction() -> DurabilityConfig {
    DurabilityConfig {
        snapshot_every_batches: 0,
        snapshot_every_bytes: 0,
        ..DurabilityConfig::default()
    }
}

/// Chase the union of all batches from scratch (the cold reference).
fn scratch_chase(set: &ConstraintSet, batches: &[Vec<Atom>], cfg: &ChaseConfig) -> ChaseResult {
    let mut union = Instance::new();
    for b in batches {
        union.extend(b.iter().cloned());
    }
    chase(&union, set, cfg)
}

/// The recovery pin: the (re)opened session and a cold chase of every
/// acknowledged batch have isomorphic cores and agree exactly on certain
/// answers.
fn assert_recovered_equivalent(
    name: &str,
    session: &mut ChaseSession,
    batches: &[Vec<Atom>],
    queries: &[&str],
) {
    let scratch = scratch_chase(
        session.constraints(),
        batches,
        &session.config().chase.clone(),
    );
    assert!(
        scratch.terminated(),
        "{name}: the cold reference chase must terminate for this pin"
    );
    let warm_core = core_of(session.instance());
    let cold_core = core_of(&scratch.instance);
    assert_eq!(
        warm_core.len(),
        cold_core.len(),
        "{name}: cores differ in size\nrecovered: {warm_core}\ncold: {cold_core}"
    );
    assert!(
        hom_equivalent(&warm_core, &cold_core),
        "{name}: cores are not hom-equivalent\nrecovered: {warm_core}\ncold: {cold_core}"
    );
    for q_text in queries {
        let q = ConjunctiveQuery::parse(q_text).unwrap();
        let recovered = session.query(&q).unwrap();
        let cold = q.evaluate_certain(&scratch.instance);
        assert_eq!(
            recovered, cold,
            "{name}: certain answers differ for {q_text}"
        );
    }
}

/// Build a durable session in `dir`, apply `batches`, and assert each one
/// quiesced.
fn durable_over(
    dir: &PathBuf,
    set: &ConstraintSet,
    durability: DurabilityConfig,
    batches: &[Vec<Atom>],
) -> ChaseSession {
    let mut s = ChaseSession::builder(set.clone())
        .durable(dir)
        .durability(durability)
        .try_build()
        .unwrap();
    for (i, b) in batches.iter().enumerate() {
        let out = s
            .apply(b.iter().cloned())
            .unwrap_or_else(|e| panic!("batch {i} refused: {e}"));
        assert_eq!(
            out.reason,
            StopReason::Satisfied,
            "batch {i} did not quiesce"
        );
    }
    s
}

// ---------------------------------------------------------------------------
// Clean-kill recovery
// ---------------------------------------------------------------------------

/// Travel corpus over a durable session: kill after the full stream,
/// reopen, and the recovered state matches a cold chase — with the replay
/// counter showing exactly one WAL record per acknowledged batch (no
/// snapshot was taken, so reopen is pure replay).
#[test]
fn reopened_session_matches_cold_chase() {
    let set = ConstraintSet::parse(
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\n\
         rail(C1,C2,D) -> rail(C2,C1,D)",
    )
    .unwrap();
    let stream = random_travel_stream(
        &RandomTravelConfig {
            cities: 12,
            flights: 40,
            rails: 30,
            seed: 7,
        },
        5,
    );
    let dir = test_dir("reopen-matches-cold");
    let session = durable_over(&dir, &set, no_compaction(), &stream);
    let epoch_at_kill = session.stats().epoch;
    drop(session); // the kill: EveryBatch fsync means nothing unflushed

    let mut reopened = ChaseSession::open(&dir).unwrap();
    assert_eq!(reopened.stats().epoch, epoch_at_kill);
    let d = reopened.durability().unwrap();
    assert!(!d.loaded_snapshot, "no snapshot existed to load");
    assert_eq!(d.replayed_records, stream.len() as u64);
    assert_eq!(d.truncated_bytes, 0, "a clean kill leaves no torn tail");
    assert_recovered_equivalent(
        "travel reopen",
        &mut reopened,
        &stream,
        &[
            "airports(C) <- hasAirport(C)",
            "back(X,D) <- rail(city0,X,D), rail(X,city0,D)",
        ],
    );
}

/// The null-inventing family survives recovery: the WAL logs the *base*
/// batches (never invented nulls beyond what the batch text carries), so
/// replay re-runs the same warm chase and lands on the same universal
/// model.
#[test]
fn null_inventing_stream_recovers_up_to_core() {
    let set = ConstraintSet::parse(
        "S(X) -> E(X,Y)\n\
         E(X,Y), E(Y,Z) -> E(X,Z)",
    )
    .unwrap();
    let batches: Vec<Vec<Atom>> = vec![
        atoms("S(a). S(b)."),
        atoms("E(a,b). E(b,c)."),
        atoms("S(c). E(c,a)."),
    ];
    let dir = test_dir("null-inventing");
    drop(durable_over(&dir, &set, no_compaction(), &batches));
    let mut reopened = ChaseSession::open(&dir).unwrap();
    assert_recovered_equivalent(
        "lav_tc reopen",
        &mut reopened,
        &batches,
        &["q(X,Y) <- E(X,Y)", "q2(X) <- E(a,X)"],
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The central property: kill a durable session at a *random* batch
    /// boundary, reopen, apply the rest of the stream, and the result is
    /// core-isomorphic (with identical certain answers) to a cold chase of
    /// the whole stream. Snapshot cadence is randomized too, so the kill
    /// lands before, on, and after compaction points across seeds.
    #[test]
    fn kill_at_any_batch_boundary_recovers(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = ConstraintSet::parse(
            "S(X) -> E(X,Y)\n\
             E(X,Y), E(Y,Z) -> E(X,Z)",
        )
        .unwrap();
        let mut base = random_instance(
            &set,
            &RandomInstanceConfig {
                facts: 20,
                domain: 6,
                seed: rng.next_u64(),
            },
        );
        for i in 0..3 {
            base.insert(Atom::new("S", vec![Term::constant(&format!("c{i}"))]));
        }
        let stream = update_stream(&base, &UpdateStreamConfig { batches: 5, seed: rng.next_u64() });
        let kill_at = rng.gen_range(0..=stream.len());
        let durability = DurabilityConfig {
            snapshot_every_batches: rng.gen_range(0..4u32),
            snapshot_every_bytes: 0,
            keep_snapshots: rng.gen_range(1..3usize),
            ..DurabilityConfig::default()
        };

        let dir = test_dir(&format!("kill-boundary-{seed}"));
        drop(durable_over(&dir, &set, durability, &stream[..kill_at]));

        let mut reopened = ChaseSession::open(&dir).unwrap();
        prop_assert_eq!(reopened.stats().epoch, kill_at as u64);
        for b in &stream[kill_at..] {
            let out = reopened.apply(b.iter().cloned()).unwrap();
            prop_assert_eq!(out.reason, StopReason::Satisfied);
        }
        assert_recovered_equivalent(
            &format!("kill at {kill_at}/{} (seed {seed})", stream.len()),
            &mut reopened,
            &stream,
            &["q(X,Y) <- E(X,Y)"],
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A tail torn *mid-record* (the crash landed inside an append that was
    /// never acknowledged) rewinds to the last whole record: reopen drops
    /// exactly the torn batch, reports the truncated bytes, and a second
    /// reopen finds a clean log.
    #[test]
    fn torn_tail_rewinds_to_the_last_whole_record(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let edges = random_instance(
            &set,
            &RandomInstanceConfig { facts: 18, domain: 6, seed: rng.next_u64() },
        );
        let stream = update_stream(&edges, &UpdateStreamConfig { batches: 4, seed: rng.next_u64() });

        let dir = test_dir(&format!("torn-tail-{seed}"));
        drop(durable_over(&dir, &set, no_compaction(), &stream));

        // Tear the tail: chop 1..8 bytes off the last record (at least its
        // CRC is damaged, so the whole record must be discarded).
        let wal = dir.join("wal.log");
        let full_len = std::fs::metadata(&wal).unwrap().len();
        let bite = rng.gen_range(1..8u64).min(full_len);
        OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(full_len - bite)
            .unwrap();

        let acknowledged = &stream[..stream.len() - 1];
        let mut reopened = ChaseSession::open(&dir).unwrap();
        let d = reopened.durability().unwrap();
        prop_assert!(d.truncated_bytes > 0, "the torn record must be counted");
        prop_assert_eq!(d.replayed_records, acknowledged.len() as u64);
        prop_assert_eq!(reopened.stats().epoch, acknowledged.len() as u64);
        assert_recovered_equivalent(
            &format!("torn tail (seed {seed})"),
            &mut reopened,
            acknowledged,
            &["q(X,Y) <- E(X,Y)"],
        );
        drop(reopened);

        // The truncation is durable: a second open sees a clean log.
        let again = ChaseSession::open(&dir).unwrap();
        prop_assert_eq!(again.durability().unwrap().truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Garbage appended past the last record (a crash mid-append that wrote
/// only junk) is truncated byte-for-byte, keeping every whole record.
#[test]
fn trailing_garbage_is_truncated_exactly() {
    let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
    let batches = vec![atoms("rail(a,b,d1)."), atoms("rail(b,c,d2).")];
    let dir = test_dir("trailing-garbage");
    drop(durable_over(&dir, &set, no_compaction(), &batches));

    let wal = dir.join("wal.log");
    let clean_len = std::fs::metadata(&wal).unwrap().len();
    use std::io::Write;
    let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
    // Looks like the start of a record (plausible length prefix, right
    // version and tag) but ends mid-payload.
    f.write_all(&[64, 0, 0, 0, 1, 1, 9, 9, 9]).unwrap();
    drop(f);

    let reopened = ChaseSession::open(&dir).unwrap();
    let d = reopened.durability().unwrap();
    assert_eq!(d.truncated_bytes, 9);
    assert_eq!(d.replayed_records, 2);
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), clean_len);
}

// ---------------------------------------------------------------------------
// Write-ahead ordering
// ---------------------------------------------------------------------------

/// The ordering pin: a batch is logged *before* it is applied, so the
/// batch that poisons a session IS in the WAL (reopen re-poisons
/// deterministically), while a batch refused after poisoning is NOT (the
/// epoch does not move across the crash).
#[test]
fn poisoning_batch_is_logged_refused_batch_is_not() {
    let set = ConstraintSet::parse("p(X), p(Y) -> X = Y").unwrap();
    let dir = test_dir("write-ahead-ordering");
    let mut s = ChaseSession::builder(set)
        .durable(&dir)
        .durability(no_compaction())
        .try_build()
        .unwrap();
    s.apply(atoms("p(a).")).unwrap();
    let out = s.apply(atoms("p(a). p(b).")).unwrap();
    assert_eq!(out.reason, StopReason::Failed, "two constants must clash");
    assert!(s.poisoned().is_some());
    // Refused after poisoning: must not reach the log.
    assert!(matches!(
        s.apply(atoms("p(c).")),
        Err(ServeError::Poisoned(_))
    ));
    let epoch_at_kill = s.stats().epoch;
    assert_eq!(epoch_at_kill, 2);
    drop(s);

    let mut reopened = ChaseSession::open(&dir).unwrap();
    assert_eq!(
        reopened.poisoned(),
        Some(&StopReason::Failed),
        "replaying the logged poisoning batch must re-poison the session"
    );
    assert_eq!(
        reopened.stats().epoch,
        epoch_at_kill,
        "the refused batch must not have advanced the on-disk epoch"
    );
    assert!(matches!(
        reopened.apply(atoms("p(d).")),
        Err(ServeError::Poisoned(_))
    ));
}

// ---------------------------------------------------------------------------
// Snapshots: warm restart is replay-since-snapshot, not re-chase
// ---------------------------------------------------------------------------

/// `persist` writes a snapshot and compacts the log; a later reopen loads
/// it and replays only the records past it. The counters make the warm
/// path observable: `loaded_snapshot` true, `replayed_records` exactly
/// the post-persist batches.
#[test]
fn reopen_after_persist_replays_only_the_tail() {
    let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    let stream: Vec<Vec<Atom>> = vec![
        atoms("E(a,b). E(b,c)."),
        atoms("E(c,d)."),
        atoms("E(d,e)."),
        atoms("E(e,f)."),
        atoms("E(f,g)."),
    ];
    let dir = test_dir("persist-tail");
    let mut s = durable_over(&dir, &set, no_compaction(), &stream[..3]);
    let covered = s.persist().unwrap();
    assert_eq!(covered, 3, "persist covers everything applied so far");
    for b in &stream[3..] {
        s.apply(b.iter().cloned()).unwrap();
    }
    drop(s);

    let mut reopened = ChaseSession::open(&dir).unwrap();
    let d = reopened.durability().unwrap();
    assert!(
        d.loaded_snapshot,
        "the persist point must be loaded, not re-chased"
    );
    assert_eq!(d.snapshot_epoch, 3);
    assert_eq!(
        d.replayed_records, 2,
        "only the two post-persist batches go through replay"
    );
    assert_eq!(reopened.stats().epoch, 5);
    assert_recovered_equivalent("persist tail", &mut reopened, &stream, &["q(X) <- E(a,X)"]);
}

/// Periodic compaction: with a batch-count trigger the session snapshots
/// on cadence, truncates the WAL each time, and prunes old generations
/// down to `keep_snapshots`.
#[test]
fn periodic_snapshots_compact_and_prune() {
    let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
    let batches: Vec<Vec<Atom>> = (0..6)
        .map(|i| atoms(&format!("rail(s{i},s{},d).", i + 1)))
        .collect();
    let dir = test_dir("periodic-compaction");
    let durability = DurabilityConfig {
        snapshot_every_batches: 2,
        snapshot_every_bytes: 0,
        keep_snapshots: 1,
        ..DurabilityConfig::default()
    };
    let s = durable_over(&dir, &set, durability, &batches);
    let d = s.durability().unwrap();
    assert_eq!(d.snapshots_written, 3, "a snapshot every 2 batches over 6");
    assert_eq!(d.snapshot_epoch, 6);
    assert_eq!(d.snapshot_errors, 0);
    drop(s);

    let snapshots: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with("snapshot-") && n.ends_with(".csnp")
        })
        .collect();
    assert_eq!(snapshots.len(), 1, "pruned down to keep_snapshots");

    let reopened = ChaseSession::open(&dir).unwrap();
    let d = reopened.durability().unwrap();
    assert!(d.loaded_snapshot);
    assert_eq!(d.replayed_records, 0, "the WAL was compacted away entirely");
    assert_eq!(reopened.stats().epoch, 6);
}

/// A corrupt newest snapshot is skipped, not fatal: reopen falls back to
/// full WAL replay when no older generation exists, because the log —
/// not the snapshot — is the source of truth.
#[test]
fn corrupt_snapshot_falls_back_to_replay() {
    let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    let batches = vec![atoms("E(a,b)."), atoms("E(b,c).")];
    let dir = test_dir("corrupt-snapshot");
    let mut s = durable_over(&dir, &set, no_compaction(), &batches);
    s.persist().unwrap();
    // Two more batches so the log is non-empty past the snapshot.
    s.apply(atoms("E(c,d).")).unwrap();
    drop(s);

    // Flip a byte in the snapshot body: the CRC check must reject it.
    let snap = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().starts_with("snapshot-"))
        .expect("persist wrote a snapshot")
        .path();
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, bytes).unwrap();

    // The WAL only holds the post-persist batch, so a reopen that merely
    // skipped the bad snapshot would be missing the first two batches —
    // it must fail loudly instead of resurrecting a partial state.
    match ChaseSession::open(&dir) {
        Err(ServeError::Durability(_)) => {} // replay noticed the gap
        Ok(reopened) => {
            // If open succeeded, the implementation kept enough log to
            // recover fully — then the state must still be complete.
            let d = reopened.durability().unwrap();
            assert!(!d.loaded_snapshot, "the corrupt snapshot must not load");
            assert_eq!(reopened.stats().epoch, 3);
        }
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Modes and policies
// ---------------------------------------------------------------------------

/// Oblivious sessions never snapshot chased state (a bare instance cannot
/// resume an oblivious engine without re-firing old triggers): `persist`
/// only flushes, and reopen replays the full log to the *identical*
/// instance — oblivious replay is deterministic, so this is exact
/// equality, not just core isomorphism.
#[test]
fn oblivious_sessions_recover_by_full_replay() {
    let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
    let mut cfg = SessionConfig::default();
    cfg.chase.mode = ChaseMode::Oblivious;
    let dir = test_dir("oblivious-replay");
    let mut s = ChaseSession::builder(set)
        .config(cfg)
        .durable(&dir)
        .durability(no_compaction())
        .try_build()
        .unwrap();
    s.apply(atoms("S(a). S(b).")).unwrap();
    s.apply(atoms("S(c).")).unwrap();
    s.persist().unwrap();
    let before = s.instance().clone();
    let d = s.durability().unwrap();
    assert_eq!(
        d.snapshots_written, 0,
        "persist on oblivious flushes the log, never snapshots"
    );
    drop(s);

    let reopened = ChaseSession::open(&dir).unwrap();
    let d = reopened.durability().unwrap();
    assert!(!d.loaded_snapshot);
    assert_eq!(d.replayed_records, 2);
    assert_eq!(
        reopened.instance(),
        &before,
        "deterministic oblivious replay reproduces the instance exactly"
    );
}

/// `FsyncPolicy::Interval(n)` amortizes flushes: 8 appends cost 2 fsyncs
/// at interval 4, versus one per append under the default.
#[test]
fn interval_fsync_amortizes_flushes() {
    let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
    let batches: Vec<Vec<Atom>> = (0..8)
        .map(|i| atoms(&format!("rail(a{i},b{i},d).")))
        .collect();

    let dir = test_dir("fsync-interval");
    let s = durable_over(
        &dir,
        &set,
        DurabilityConfig {
            fsync: FsyncPolicy::Interval(4),
            ..no_compaction()
        },
        &batches,
    );
    let d = s.durability().unwrap();
    assert_eq!(d.wal_appends, 8);
    assert_eq!(d.wal_fsyncs, 2, "interval 4 over 8 appends");
    drop(s);

    let dir = test_dir("fsync-every");
    let s = durable_over(&dir, &set, no_compaction(), &batches);
    let d = s.durability().unwrap();
    assert_eq!(d.wal_fsyncs, 8, "the default flushes every append");
}

/// Forks and in-memory snapshots are just that — in memory. The log stays
/// with the original: nothing a fork applies can reach the original's
/// directory.
#[test]
fn forks_do_not_inherit_the_log() {
    let set = ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
    let dir = test_dir("fork-no-log");
    let mut s = durable_over(&dir, &set, no_compaction(), &[atoms("rail(a,b,d1).")]);
    let mut fork = s.fork();
    assert!(!fork.is_durable());
    assert!(fork.durability().is_none());
    fork.apply(atoms("rail(x,y,d9).")).unwrap();
    s.apply(atoms("rail(b,c,d2).")).unwrap();
    drop((s, fork));

    let reopened = ChaseSession::open(&dir).unwrap();
    assert_eq!(
        reopened.stats().epoch,
        2,
        "only the original's batches are in the log"
    );
    let q = ConjunctiveQuery::parse("q(X,Y) <- rail(X,Y,d9)").unwrap();
    let mut reopened = reopened;
    assert!(
        reopened.query(&q).unwrap().is_empty(),
        "the fork's batch must not leak into the durable state"
    );
}

/// `restore` on a durable session re-anchors the log at the restored
/// epoch: the abandoned future is gone from disk, and batches applied
/// after the restore extend the restored timeline.
#[test]
fn restore_re_anchors_the_log() {
    let set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    let dir = test_dir("restore-reanchor");
    let mut s = durable_over(&dir, &set, no_compaction(), &[atoms("E(a,b).")]);
    let snap = s.snapshot();
    s.apply(atoms("E(b,c).")).unwrap(); // the future to abandon
    s.restore(&snap);
    assert_eq!(s.stats().epoch, 1);
    s.apply(atoms("E(b,z).")).unwrap(); // the replacement timeline
    drop(s);

    let mut reopened = ChaseSession::open(&dir).unwrap();
    assert_eq!(reopened.stats().epoch, 2);
    let q = ConjunctiveQuery::parse("q(X) <- E(a,X)").unwrap();
    let mut answers = reopened.query(&q).unwrap();
    answers.sort();
    assert_eq!(
        answers,
        vec![vec![Term::constant("b")], vec![Term::constant("z")]],
        "the abandoned E(b,c) closure must not survive the restore"
    );
}

// ---------------------------------------------------------------------------
// Conductor warm restart
// ---------------------------------------------------------------------------

/// A conductor pointed at a durable root warm-restarts every session it
/// finds there: same ids, same answers, id allocation continuing past the
/// reopened maximum, and the reopen surfaced in the server-wide metrics.
#[test]
fn conductor_warm_restarts_its_fleet() {
    let root = test_dir("conductor-restart");
    let cfg = ConductorConfig {
        durable_root: Some(root.clone()),
        ..ConductorConfig::default()
    };

    let first = Conductor::new(cfg.clone());
    let rail = first
        .open(ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap())
        .unwrap();
    let tc = first
        .open(ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap())
        .unwrap();
    first
        .route(rail)
        .unwrap()
        .apply(atoms("rail(berlin,paris,d9)."))
        .unwrap();
    first
        .route(tc)
        .unwrap()
        .apply(atoms("E(a,b). E(b,c)."))
        .unwrap();
    first.shutdown();
    drop(first);

    let second = Conductor::new(cfg);
    assert_eq!(second.session_count(), 2, "both sessions warm-restarted");
    let text = second.metrics_text();
    assert!(
        text.contains("chase_sessions_reopened_total 2"),
        "reopen must be observable in the exposition:\n{text}"
    );

    // Same ids, same answers.
    let q = ConjunctiveQuery::parse("q(X) <- rail(X,berlin,D)").unwrap();
    let answers = second
        .route(rail)
        .unwrap()
        .query(&q, QueryOpts::default())
        .unwrap();
    assert_eq!(answers, vec![vec![Term::constant("paris")]]);
    let q = ConjunctiveQuery::parse("q(X) <- E(a,X)").unwrap();
    let answers = second
        .route(tc)
        .unwrap()
        .query(&q, QueryOpts::default())
        .unwrap();
    assert_eq!(answers.len(), 2, "the closure survived the restart");

    // The epoch stream continues where the dead process stopped.
    let out = second.route(tc).unwrap().apply(atoms("E(c,d).")).unwrap();
    assert_eq!(out.epoch, 2);

    // Fresh ids continue past the reopened maximum.
    let fresh = second
        .open(ConstraintSet::parse("p(X) -> q(X)").unwrap())
        .unwrap();
    assert!(
        fresh > rail.max(tc),
        "id allocation must not collide with warm-restarted sessions"
    );
    second.shutdown();
}

/// The server-wide exposition carries every durable session's WAL,
/// snapshot and session series (exported by the same code as
/// `ChaseSession::metrics_snapshot`), current as of each acknowledged
/// message, and a warm restart exports what the reopen replayed before the
/// session handles any message.
#[test]
fn conductor_metrics_carry_durability_series() {
    let root = test_dir("conductor-metrics");
    let cfg = ConductorConfig {
        durable_root: Some(root.clone()),
        ..ConductorConfig::default()
    };
    let first = Conductor::new(cfg.clone());
    let h = first
        .route(
            first
                .open(ConstraintSet::parse("E(X,Y) -> E(Y,X)").unwrap())
                .unwrap(),
        )
        .unwrap();
    h.apply(atoms("E(a,b).")).unwrap();
    h.apply(atoms("E(b,c).")).unwrap();
    assert_eq!(h.persist().unwrap(), 2);
    h.apply(atoms("E(c,d).")).unwrap();
    let text = first.metrics_text();
    for line in [
        "chase_wal_appends_total 3",
        "chase_wal_fsyncs_total 3",
        "chase_wal_replayed_total 0",
        "chase_snapshots_total 1",
        "chase_snapshot_epoch 2",
        "chase_session_epochs_total 3",
        "chase_session_facts 6",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}`:\n{text}");
    }
    first.shutdown();
    drop(first);

    // Only the batch logged after the snapshot replays.
    let text = Conductor::new(cfg).metrics_text();
    assert!(
        text.lines().any(|l| l == "chase_wal_replayed_total 1"),
        "{text}"
    );
}

/// A session directory that cannot be reopened (here: a manifest whose
/// constraint set no longer parses) is skipped and counted, never fatal —
/// the rest of the fleet still comes up.
#[test]
fn unreopenable_directories_are_skipped_and_counted() {
    let root = test_dir("conductor-skip");
    let cfg = ConductorConfig {
        durable_root: Some(root.clone()),
        ..ConductorConfig::default()
    };
    let first = Conductor::new(cfg.clone());
    let good = first
        .open(ConstraintSet::parse("rail(X,Y,D) -> rail(Y,X,D)").unwrap())
        .unwrap();
    let bad = first
        .open(ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap())
        .unwrap();
    first
        .route(good)
        .unwrap()
        .apply(atoms("rail(a,b,d)."))
        .unwrap();
    first.shutdown();
    drop(first);

    // Vandalize the second session's manifest.
    std::fs::write(
        root.join(format!("session-{bad}")).join("MANIFEST"),
        "chase-session v1\nsigma\nnot a constraint set\n",
    )
    .unwrap();

    let second = Conductor::new(cfg);
    assert_eq!(second.session_count(), 1, "the good session still comes up");
    assert!(second.route(good).is_ok());
    assert!(
        second.route(bad).is_err(),
        "the broken one is not resurrected"
    );
    let text = second.metrics_text();
    assert!(text.contains("chase_sessions_reopened_total 1"), "{text}");
    assert!(
        text.contains("chase_sessions_reopen_failed_total 1"),
        "{text}"
    );
    second.shutdown();
}

/// Restore on a durable *oblivious* session is refused through the
/// conductor with a typed durability error: its log cannot be re-anchored
/// (re-anchoring writes a snapshot, which oblivious state forbids).
#[test]
fn durable_oblivious_restore_is_refused() {
    let root = test_dir("oblivious-restore");
    let mut session = SessionConfig::default();
    session.chase.mode = ChaseMode::Oblivious;
    let conductor = Conductor::new(ConductorConfig {
        durable_root: Some(root),
        session,
        ..ConductorConfig::default()
    });
    let id = conductor
        .open(ConstraintSet::parse("S(X) -> E(X,Y)").unwrap())
        .unwrap();
    let h = conductor.route(id).unwrap();
    h.apply(atoms("S(a).")).unwrap();
    let snap = h.snapshot().unwrap();
    match h.restore(snap) {
        Err(ServeError::Durability(_)) => {}
        other => panic!("expected a durability refusal, got {other:?}"),
    }
    // The session is untouched by the refusal.
    assert_eq!(h.stats().unwrap().epoch, 1);
    conductor.shutdown();
}

// ---------------------------------------------------------------------------
// Warm restart: determinism across processes, admission under a cap
// ---------------------------------------------------------------------------

/// Set in the child processes of
/// `warm_restart_is_bit_identical_across_fresh_processes`: `<mode>:<root>`,
/// where `open` reopens the fleet one directory at a time and `conductor`
/// warm-restarts it through a `Conductor`.
const REOPEN_CHILD: &str = "CHASE_DURABILITY_REOPEN_CHILD";
const FLEET: u64 = 6;
const DUMPS_BEGIN: &str = "--- reopened dumps ---";
const DUMPS_END: &str = "--- end of dumps ---";

/// Names every session of the interning fleet holds in its snapshot.
const POOL: usize = 2000;

/// A fleet whose reopen interns names in an order that shows in its dumps.
/// Every snapshot holds `R` facts (outside Σ) over one shared pool of
/// names, each session listing the pool in its own order: rotated, and
/// reversed on even ids. An instance displays its facts in interner order,
/// and a tail batch's triggers fire in interner order too, so both the
/// fact order and the null labels of every dump follow which snapshot or
/// log record saw each name first. Sessions 1–5 chase `S(X) -> T(X,Y)`,
/// session 6 invents nulls and EGD-merges some of them; each log tail
/// holds two batches over pool names and fresh ones.
fn build_interning_fleet(root: &std::path::Path) {
    let s = ConstraintSet::parse("S(X) -> T(X,Y)").unwrap();
    let egd = ConstraintSet::parse("Ent(E) -> A(E,V); A(E,V1), Val(E,V2) -> V1 = V2").unwrap();
    for id in 1..=FLEET {
        let i = id as usize;
        let mut pool: Vec<String> = (0..POOL)
            .map(|j| format!("w{}", (j + 397 * i) % POOL))
            .collect();
        if i.is_multiple_of(2) {
            pool.reverse();
        }
        let seen: String = pool.iter().map(|w| format!("R({w}). ")).collect();
        let (set, base, tail) = if id < FLEET {
            let tail: String = pool[..8]
                .iter()
                .rev()
                .map(|w| format!("S({w}). "))
                .collect();
            (
                &s,
                format!("{seen}S(a{i})."),
                [tail, format!("S(v{i}). S({}).", pool[9])],
            )
        } else {
            let w = |j: usize| &pool[j];
            (
                &egd,
                format!(
                    "{seen}Ent({}). Ent({}). Val({},{}).",
                    w(1),
                    w(2),
                    w(1),
                    w(3)
                ),
                [
                    format!("Ent({}). Ent({}). Val({},{}).", w(7), w(4), w(4), w(6)),
                    format!("Val({},{}). Ent(e{i}).", w(7), w(0)),
                ],
            )
        };
        let mut session = durable_over(
            &root.join(format!("session-{id}")),
            set,
            no_compaction(),
            &[atoms(&base)],
        );
        session.persist().unwrap();
        for batch in &tail {
            session.apply(atoms(batch)).unwrap();
        }
    }
}

/// The child half: reopen the fleet the given way and print every
/// session's dump between markers.
fn reopen_child(spec: &str) {
    let (mode, root) = spec.split_once(':').unwrap();
    let root = PathBuf::from(root);
    let dumps: Vec<String> = match mode {
        "open" => (1..=FLEET)
            .map(|id| {
                let session = ChaseSession::open(root.join(format!("session-{id}"))).unwrap();
                session.instance().to_string()
            })
            .collect(),
        "conductor" => {
            let conductor = Conductor::new(ConductorConfig {
                durable_root: Some(root),
                ..ConductorConfig::default()
            });
            assert_eq!(conductor.session_count(), FLEET as usize);
            (1..=FLEET)
                .map(|id| conductor.route(id).unwrap().dump().unwrap())
                .collect()
        }
        other => panic!("unknown reopen mode {other}"),
    };
    println!("{DUMPS_BEGIN}");
    for (id, dump) in (1..).zip(&dumps) {
        println!("session {id}: {dump}");
    }
    println!("{DUMPS_END}");
}

/// Interner order decides null labels, and a fresh process starts with an
/// empty interner — the state a crashed server restarts into, which no
/// in-process reopen reaches. So this test re-executes its own binary:
/// five children warm-restart the fleet through a `Conductor` (replaying
/// on every core) and one opens it directory by directory in id order;
/// all six must print byte-identical dumps.
#[test]
fn warm_restart_is_bit_identical_across_fresh_processes() {
    if let Ok(spec) = std::env::var(REOPEN_CHILD) {
        return reopen_child(&spec);
    }
    let root = test_dir("fresh-process-restart");
    build_interning_fleet(&root);
    let child = |mode: &str| {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "warm_restart_is_bit_identical_across_fresh_processes",
                "--nocapture",
                "--test-threads=1",
            ])
            .env(REOPEN_CHILD, format!("{mode}:{}", root.display()))
            .output()
            .unwrap();
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(
            out.status.success(),
            "{mode} child failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let dumps = stdout.split(DUMPS_BEGIN).nth(1).unwrap();
        dumps.split(DUMPS_END).next().unwrap().to_string()
    };
    let sequential = child("open");
    assert_eq!(
        sequential.lines().filter(|l| !l.is_empty()).count(),
        FLEET as usize
    );
    assert!(
        sequential.contains("_n"),
        "the fleet invents nulls:\n{sequential}"
    );
    for run in 0..5 {
        assert_eq!(
            child("conductor"),
            sequential,
            "warm restart {run} labels nulls differently from a one-by-one open"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Admission under a cap, with broken directories inside it: exactly the
/// directories a one-by-one open in id order would try are tried, each
/// failure (at decode or at replay) lets the next directory in, and
/// nothing past the cap is opened. Here the cap is 3 over six
/// directories: 2 has a broken manifest, 4 logs a record past its
/// poisoning batch, so 1, 3 and 5 come up, 6 is never opened, and ids
/// continue at 7.
#[test]
fn warm_restart_admits_under_the_cap_past_broken_directories() {
    use std::io::Write;
    let root = test_dir("restart-admission");
    let tc = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
    let clash = ConstraintSet::parse("p(X), p(Y) -> X = Y").unwrap();
    let session_dir = |id: u64| root.join(format!("session-{id}"));
    for id in [1, 2, 3, 5, 6] {
        durable_over(
            &session_dir(id),
            &tc,
            no_compaction(),
            &[atoms(&format!("E(a{id},b). E(b,c)."))],
        );
    }
    std::fs::write(
        session_dir(2).join("MANIFEST"),
        "chase-session v1\nsigma\nnot a constraint set\n",
    )
    .unwrap();
    // Session 4 poisons at epoch 1; graft another log's epoch-2 record
    // after it (records are self-framed, so logs concatenate).
    let mut poisoned = ChaseSession::builder(clash)
        .durable(session_dir(4))
        .durability(no_compaction())
        .try_build()
        .unwrap();
    assert_eq!(
        poisoned.apply(atoms("p(a). p(b).")).unwrap().reason,
        StopReason::Failed
    );
    drop(poisoned);
    let donor = test_dir("restart-admission-donor");
    drop(durable_over(
        &donor,
        &tc,
        no_compaction(),
        &[atoms("E(x,y)."), atoms("E(y,z).")],
    ));
    let donor_log = std::fs::read(donor.join("wal.log")).unwrap();
    let first = 4 + u32::from_le_bytes(donor_log[..4].try_into().unwrap()) as usize + 4;
    OpenOptions::new()
        .append(true)
        .open(session_dir(4).join("wal.log"))
        .unwrap()
        .write_all(&donor_log[first..])
        .unwrap();
    assert!(
        ChaseSession::open(session_dir(4)).is_err(),
        "4 fails at replay"
    );
    // Opening 6 would truncate this garbage away.
    let log6 = session_dir(6).join("wal.log");
    OpenOptions::new()
        .append(true)
        .open(&log6)
        .unwrap()
        .write_all(b"torn")
        .unwrap();
    let log6_len = std::fs::metadata(&log6).unwrap().len();

    let conductor = Conductor::new(ConductorConfig {
        durable_root: Some(root.clone()),
        max_sessions: 3,
        ..ConductorConfig::default()
    });
    let up: Vec<u64> = (1..=6).filter(|&id| conductor.route(id).is_ok()).collect();
    assert_eq!(up, [1, 3, 5]);
    let q = ConjunctiveQuery::parse("q(X) <- E(X,c)").unwrap();
    for id in up {
        let answers = conductor
            .route(id)
            .unwrap()
            .query(&q, QueryOpts::default())
            .unwrap();
        assert_eq!(answers.len(), 2, "session {id} reopened its closure");
    }
    let text = conductor.metrics_text();
    for line in [
        "chase_sessions_reopened_total 3",
        "chase_sessions_reopen_failed_total 3",
        "chase_sessions_open 3",
    ] {
        assert!(text.lines().any(|l| l == line), "missing `{line}`:\n{text}");
    }
    assert!(text.contains("chase_warm_restart_ns "), "{text}");
    assert_eq!(
        std::fs::metadata(&log6).unwrap().len(),
        log6_len,
        "6 was opened"
    );
    conductor.close(1).unwrap();
    assert_eq!(conductor.open(tc).unwrap(), 7);
    conductor.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&donor);
}
