//! S2 — merge_storm: EGD-heavy update streams through a warm
//! `chase-serve` session against from-scratch re-chase.
//!
//! The workload shape ([`chase_corpus::random::merge_storm_stream`]): early
//! batches declare entities, whose attribute TGDs invent labeled nulls;
//! later batches deliver the ground attribute values, whose key EGDs merge
//! those nulls away again. Every warm batch therefore fires EGD merges
//! against an already-chased instance — the path where the store rewrites
//! only the merged term's occurrences (via `by_pos`) and the engine repairs
//! its trigger pool from the returned merge delta instead of rebuilding it.
//! The **cold** baseline re-chases the accumulated union from scratch at
//! every epoch, paying full re-matching for every merge ever applied.

use chase_bench::{print_table, scaled, Row};
use chase_core::{Atom, ConjunctiveQuery, ConstraintSet, Instance, Term};
use chase_corpus::random::{merge_storm_sigma, merge_storm_stream, MergeStormConfig};
use chase_engine::{chase, ChaseConfig, StopReason};
use chase_serve::{
    ChaseSession, Conductor, ConductorConfig, DurabilityConfig, FsyncPolicy, QueryOpts,
    SessionConfig,
};
use chase_sqo::minimal_rewritings;
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Workload {
    name: &'static str,
    set: ConstraintSet,
    stream: Vec<Vec<Atom>>,
}

fn workloads() -> Vec<Workload> {
    let mk = |name: &'static str, cfg: MergeStormConfig| {
        let (set, stream) = merge_storm_stream(&cfg);
        Workload { name, set, stream }
    };
    vec![
        mk(
            "storm",
            MergeStormConfig {
                entities: scaled(120, 20),
                attributes: 3,
                values: 10,
                batches: scaled(12, 4),
                seed: 7,
            },
        ),
        mk(
            "storm_wide",
            MergeStormConfig {
                entities: scaled(100, 14),
                attributes: 6,
                values: 6,
                batches: scaled(14, 4),
                seed: 8,
            },
        ),
        // A tight value pool: most rewritten `Uses` rows collapse onto an
        // existing duplicate, stressing the collapse bookkeeping.
        mk(
            "storm_dense",
            MergeStormConfig {
                entities: scaled(150, 24),
                attributes: 4,
                values: 3,
                batches: scaled(12, 4),
                seed: 9,
            },
        ),
    ]
}

/// Warm path: one resident session; each batch's merges are applied as
/// deltas. Returns (steps, merge-rewritten, merge-collapsed).
fn run_warm(set: &ConstraintSet, stream: &[Vec<Atom>]) -> (usize, usize, usize) {
    let cfg = SessionConfig {
        use_sqo: false, // no queries here; measure pure re-chase
        ..SessionConfig::default()
    };
    let mut session = ChaseSession::with_config(set.clone(), cfg);
    let mut steps = 0;
    for batch in stream {
        let out = session.apply(batch.iter().cloned()).expect("batch applies");
        assert_eq!(out.reason, StopReason::Satisfied, "workload must quiesce");
        steps += out.steps;
    }
    let stats = session.stats();
    (
        steps,
        stats.merge_rewritten as usize,
        stats.merge_collapsed as usize,
    )
}

/// Cold path: re-chase the accumulated union from scratch at every epoch.
fn run_cold(set: &ConstraintSet, stream: &[Vec<Atom>]) -> usize {
    let cfg = ChaseConfig::default();
    let mut union = Instance::new();
    let mut last_steps = 0;
    for batch in stream {
        union.extend(batch.iter().cloned());
        let res = chase(&union, set, &cfg);
        assert_eq!(res.reason, StopReason::Satisfied, "workload must quiesce");
        last_steps = res.steps;
    }
    last_steps
}

fn print_shape() {
    let mut rows = Vec::new();
    for w in workloads() {
        let epochs = w.stream.len();
        let t0 = Instant::now();
        let (warm_steps, rewritten, collapsed) = run_warm(&w.set, &w.stream);
        let warm_time = t0.elapsed();
        let t0 = Instant::now();
        let cold_final_steps = run_cold(&w.set, &w.stream);
        let cold_time = t0.elapsed();
        rows.push(Row::new(
            w.name.to_string(),
            vec![
                epochs.to_string(),
                format!("{warm_steps}/{cold_final_steps}"),
                format!("{rewritten}/{collapsed}"),
                format!("{:.2} ms", warm_time.as_secs_f64() * 1e3),
                format!("{:.2} ms", cold_time.as_secs_f64() * 1e3),
                format!(
                    "{:.2}x",
                    cold_time.as_secs_f64() / warm_time.as_secs_f64().max(1e-9)
                ),
            ],
        ));
    }
    print_table(
        "S2 — EGD merge storms: warm merge-delta session vs from-scratch re-chase",
        &[
            "workload",
            "epochs",
            "steps warm/cold-final",
            "merge rewritten/collapsed",
            "warm total",
            "cold total",
            "cold/warm",
        ],
        &rows,
    );
}

/// Episode counts of the `long_history` group. The larger has 8x the
/// history, so a chase linear in it reads ~8–9x the smaller's; a merge path
/// that scans the whole store or memo per merge makes it ~40x.
const HISTORY_EPISODES: [usize; 2] = [16, 128];

/// `episodes` consecutive merge-storm episodes in `durable_merge`'s shape
/// (24 entities × 3 attributes × 8 values, 8 batches an episode), each
/// with its entities renamed apart by an episode prefix, so one session's
/// history keeps growing without repeating a fact or conflicting on a
/// value.
fn long_history(episodes: usize) -> (ConstraintSet, Vec<Vec<Atom>>) {
    let mut stream = Vec::new();
    for e in 0..episodes {
        let (_, batches) = merge_storm_stream(&MergeStormConfig {
            entities: 24,
            attributes: 3,
            values: 8,
            batches: 8,
            seed: 1_000 + e as u64,
        });
        let prefix = format!("p{e}");
        for batch in batches {
            stream.push(
                batch
                    .into_iter()
                    .map(|a| {
                        let mut terms = a.terms().to_vec();
                        terms[0] = Term::constant(&format!("{prefix}{}", terms[0]));
                        Atom::new(a.pred(), terms)
                    })
                    .collect(),
            );
        }
    }
    (merge_storm_sigma(3), stream)
}

/// Feed one fresh session the whole stream; returns the chase time summed
/// over its applies.
fn run_history(set: &ConstraintSet, stream: &[Vec<Atom>]) -> Duration {
    let cfg = SessionConfig {
        use_sqo: false,
        ..SessionConfig::default()
    };
    let mut session = ChaseSession::with_config(set.clone(), cfg);
    let mut chase = Duration::ZERO;
    for batch in stream {
        let t0 = Instant::now();
        let out = session.apply(batch.iter().cloned()).expect("batch applies");
        chase += t0.elapsed();
        assert_eq!(out.reason, StopReason::Satisfied, "workload must quiesce");
    }
    chase
}

fn print_history_shape() {
    let [short, long] = HISTORY_EPISODES.map(|episodes| {
        let (set, stream) = long_history(episodes);
        // Best of three: the ratio is the claim, so damp one-off noise.
        (0..3)
            .map(|_| run_history(&set, &stream))
            .min()
            .expect("three runs")
    });
    let ms = |d: Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    print_table(
        "S2 — long merge history: one warm session's chase at 16 and 128 episodes",
        &["16 episodes", "128 episodes", "128/16"],
        &[Row::new(
            ms(short),
            vec![
                ms(long),
                format!("{:.1}x", long.as_secs_f64() / short.as_secs_f64().max(1e-9)),
            ],
        )],
    );
}

fn bench_long_history(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_storm/long_history");
    g.sample_size(10);
    for episodes in HISTORY_EPISODES {
        let (set, stream) = long_history(episodes);
        g.bench_function(episodes.to_string(), |b| {
            b.iter(|| run_history(black_box(&set), &stream))
        });
    }
    g.finish();
}

/// Fleet sizes of the `fleet_reopen` group.
const FLEET_SESSIONS: [u64; 2] = [1, 4];

/// A durable root of `sessions` sessions shaped like servebench's
/// `durable_merge` recovery fixture: each persisted after 16 merge-storm
/// episodes, then 32 more batches in its log, so a reopen loads a
/// snapshot and replays 32 records per session.
fn durable_fleet(sessions: u64) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "chase-bench-fleet-reopen-{sessions}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let (set, stream) = long_history(20);
    let (base, tail) = stream.split_at(16 * 8);
    assert_eq!(tail.len(), 32);
    let durability = DurabilityConfig {
        fsync: FsyncPolicy::Interval(u32::MAX),
        snapshot_every_batches: 0,
        snapshot_every_bytes: 0,
        ..DurabilityConfig::default()
    };
    for id in 1..=sessions {
        let mut session = ChaseSession::builder(set.clone())
            .durable(root.join(format!("session-{id}")))
            .durability(durability)
            .try_build()
            .expect("a fresh durable directory");
        for batch in base {
            session.apply(batch.iter().cloned()).expect("batch applies");
        }
        session.persist().expect("snapshot written");
        for batch in tail {
            session.apply(batch.iter().cloned()).expect("batch applies");
        }
    }
    root
}

/// Warm-restart the fleet under `root`: one `Conductor::new`, shut down.
fn reopen_fleet(root: &Path, sessions: u64) {
    let conductor = Conductor::new(ConductorConfig {
        durable_root: Some(root.to_path_buf()),
        ..ConductorConfig::default()
    });
    assert_eq!(conductor.session_count() as u64, sessions);
}

fn print_fleet_shape(roots: &[(u64, PathBuf)]) {
    let times: Vec<Duration> = roots
        .iter()
        .map(|(sessions, root)| {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    reopen_fleet(root, *sessions);
                    t0.elapsed()
                })
                .min()
                .expect("three runs")
        })
        .collect();
    let ms = |d: Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    print_table(
        "S2 — fleet warm restart: Conductor::new over 1 and 4 durable_merge-shaped sessions",
        &["1 session", "4 sessions", "4/1"],
        &[Row::new(
            ms(times[0]),
            vec![
                ms(times[1]),
                format!(
                    "{:.1}x",
                    times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9)
                ),
            ],
        )],
    );
}

fn bench_fleet_reopen(c: &mut Criterion, roots: &[(u64, PathBuf)]) {
    let mut g = c.benchmark_group("merge_storm/fleet_reopen");
    g.sample_size(10);
    for (sessions, root) in roots {
        g.bench_function(sessions.to_string(), |b| {
            b.iter(|| reopen_fleet(black_box(root), *sessions))
        });
    }
    g.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_storm");
    g.sample_size(10);
    for w in workloads() {
        g.bench_with_input(BenchmarkId::new(w.name, "warm"), &w, |b, w| {
            b.iter(|| run_warm(black_box(&w.set), &w.stream))
        });
        g.bench_with_input(BenchmarkId::new(w.name, "cold"), &w, |b, w| {
            b.iter(|| run_cold(black_box(&w.set), &w.stream))
        });
    }
    g.finish();
    bench_long_history(c);
    bench_sqo_first_sight(c);
}

/// A session's first sight of a query: the rewriting search behind
/// `SessionConfig::use_sqo`, under the session's default budget and plan
/// limit. `val_ent_a0` is the merge-storm read template whose universal
/// plan has 8 atoms; `travel_rail_fly` is the travel rail-then-fly one.
/// `second_session` is what `val_ent_a0` costs a tenant whose Σ another
/// session of the same conductor already asked it under: open a session,
/// query it through its handle (a hit in the shared rewrite store), close.
fn bench_sqo_first_sight(c: &mut Criterion) {
    let defaults = SessionConfig::default();
    let cases = [
        (
            "val_ent_a0",
            merge_storm_sigma(3),
            "q(E) <- Val0(E,v1), Ent(E), A0(E,V)",
        ),
        (
            "travel_rail_fly",
            ConstraintSet::parse(
                "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)",
            )
            .expect("travel sigma parses"),
            "q(Z) <- rail(c,Y,D), fly(Y,Z,E)",
        ),
    ];
    let mut g = c.benchmark_group("merge_storm/sqo_first_sight");
    for (name, set, text) in &cases {
        let q = ConjunctiveQuery::parse(text).expect("query parses");
        g.bench_function(*name, |b| {
            b.iter(|| {
                minimal_rewritings(
                    black_box(&q),
                    set,
                    &defaults.sqo_chase,
                    defaults.sqo_max_plan_atoms,
                )
                .expect("the plan chase terminates")
            })
        });
    }
    let conductor = Conductor::new(ConductorConfig::default());
    let (_, sigma, text) = &cases[0];
    let q = ConjunctiveQuery::parse(text).expect("query parses");
    let ask = |conductor: &Conductor| {
        let id = conductor.open(sigma.clone()).expect("a free session slot");
        let handle = conductor.route(id).expect("the session just opened");
        let answers = handle.query(&q, QueryOpts::default()).expect("query");
        conductor.close(id).expect("the session is open");
        answers
    };
    // The first session stays open: its store lives while a session views it.
    let first = conductor.open(sigma.clone()).expect("a free session slot");
    let handle = conductor.route(first).expect("the session just opened");
    handle.query(&q, QueryOpts::default()).expect("query");
    g.bench_function("second_session", |b| b.iter(|| black_box(ask(&conductor))));
    g.finish();
}

fn main() {
    print_shape();
    print_history_shape();
    let roots: Vec<(u64, PathBuf)> = FLEET_SESSIONS
        .iter()
        .map(|&sessions| (sessions, durable_fleet(sessions)))
        .collect();
    print_fleet_shape(&roots);
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    bench_fleet_reopen(&mut c, &roots);
    c.final_summary();
    for (_, root) in roots {
        let _ = std::fs::remove_dir_all(root);
    }
}
