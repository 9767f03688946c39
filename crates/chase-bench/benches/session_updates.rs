//! S1 — session_updates: warm incremental re-chase through a
//! `chase-serve` session against from-scratch re-chase, on seeded update
//! streams.
//!
//! The serving model: after every update batch the caller needs the chased
//! state (to answer queries). The **cold** path re-chases the union of all
//! batches so far from scratch at every epoch — paying full trigger
//! re-discovery on data it already chased. The **warm** path keeps one
//! `ChaseSession` resident: each batch is inserted into the columnar store,
//! the trigger pool is re-matched semi-naively from the batch delta, and
//! the chase resumes with its trigger pool and join plans already warm.
//! Both paths produce a universal model of the same accumulated facts
//! after every epoch (pinned up to core isomorphism by
//! `tests/session_equivalence.rs`); only the work differs.
//!
//! `travel_rail_batch/warm` is the per-step cost at scale: one 1000-fact
//! `rail` batch into a resident travel session of ~50k chased facts. Every
//! step's new rail atom must retire the pooled trigger it satisfies, so a
//! head revalidation that scanned the pool would make the batch quadratic
//! in its size.
//!
//! `travel_rail_batch/handle` is the per-request cost at the same scale:
//! one 16-fact `rail` batch through a `Conductor`'s `SessionHandle::apply`,
//! which publishes the session's read snapshot before it returns. The
//! publish catches the snapshot up with the batch's facts, so a publish
//! that cloned the whole instance would dominate this case.

use chase_bench::{print_table, scaled, Row};
use chase_core::{Atom, ConstraintSet, Instance, Term};
use chase_corpus::random::{
    random_instance, random_travel_instance, random_travel_stream, update_stream,
    RandomInstanceConfig, RandomTravelConfig, UpdateStreamConfig,
};
use chase_engine::{chase, ChaseConfig, StopReason};
use chase_serve::{ChaseSession, Conductor, ConductorConfig, SessionConfig, SessionHandle};
use criterion::{BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

struct Workload {
    name: &'static str,
    set: ConstraintSet,
    stream: Vec<Vec<Atom>>,
}

fn workloads() -> Vec<Workload> {
    let travel_set = ConstraintSet::parse(
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\n\
         rail(C1,C2,D) -> rail(C2,C1,D)",
    )
    .expect("travel set parses");
    let travel_stream = random_travel_stream(
        &RandomTravelConfig {
            cities: scaled(80, 14),
            flights: scaled(900, 60),
            rails: scaled(500, 40),
            seed: 11,
        },
        scaled(10, 4),
    );

    let tc_set = ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").expect("tc set parses");
    let tc_edges = random_instance(
        &tc_set,
        &RandomInstanceConfig {
            facts: scaled(90, 24),
            domain: scaled(40, 10),
            seed: 11,
        },
    );
    let tc_stream = update_stream(
        &tc_edges,
        &UpdateStreamConfig {
            batches: scaled(10, 4),
            seed: 11,
        },
    );

    let lav_set = ConstraintSet::parse(
        "S(X) -> E(X,Y)\n\
         E(X,Y), E(Y,Z) -> E(X,Z)",
    )
    .expect("lav set parses");
    let mut lav_base = random_instance(
        &lav_set,
        &RandomInstanceConfig {
            facts: scaled(60, 16),
            domain: scaled(30, 8),
            seed: 12,
        },
    );
    for i in 0..scaled(20, 5) {
        lav_base.insert(Atom::new(
            "S",
            vec![chase_core::Term::constant(&format!("c{i}"))],
        ));
    }
    let lav_stream = update_stream(
        &lav_base,
        &UpdateStreamConfig {
            batches: scaled(8, 4),
            seed: 12,
        },
    );

    vec![
        Workload {
            name: "travel",
            set: travel_set,
            stream: travel_stream,
        },
        Workload {
            name: "tc_random",
            set: tc_set,
            stream: tc_stream,
        },
        Workload {
            name: "lav_tc",
            set: lav_set,
            stream: lav_stream,
        },
    ]
}

/// The `travel_rail_batch` load: the travel Σ, a travel instance that
/// chases to ~50k facts (~12k in quick mode), and its city count. Both
/// cases load it the way servebench's `big_tenant` loads, in 1000-fact
/// batches, each within the per-batch step budget.
fn travel_load() -> (ConstraintSet, Vec<Atom>, usize) {
    let set = ConstraintSet::parse(
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2)\n\
         rail(C1,C2,D) -> rail(C2,C1,D)",
    )
    .expect("travel set parses");
    let cities = scaled(2500, 600);
    let base = random_travel_instance(&RandomTravelConfig {
        cities,
        flights: scaled(16_000, 4_000),
        rails: scaled(16_000, 4_000),
        seed: 11,
    });
    (set, base.atoms(), cities)
}

/// SQO off: the benches run no queries, so they measure pure re-chase.
fn bench_session_config() -> SessionConfig {
    SessionConfig {
        use_sqo: false,
        ..SessionConfig::default()
    }
}

/// The `travel_rail_batch/warm` case: a loaded session and a 1000-fact
/// `rail` batch over the same cities.
fn rail_batch_case() -> (ChaseSession, Vec<Atom>) {
    let (set, base, cities) = travel_load();
    let mut session = ChaseSession::with_config(set, bench_session_config());
    for chunk in base.chunks(1000) {
        let out = session.apply(chunk.to_vec()).expect("base applies");
        assert_eq!(out.reason, StopReason::Satisfied, "base must quiesce");
    }
    let batch = random_travel_instance(&RandomTravelConfig {
        cities,
        flights: 0,
        rails: 1000,
        seed: 12,
    })
    .atoms();
    (session, batch)
}

/// The `travel_rail_batch/handle` case: the same load served by a
/// conductor, plus the city count the per-iteration batches draw from.
fn rail_handle_case() -> (Conductor, SessionHandle, usize) {
    let (set, base, cities) = travel_load();
    let conductor = Conductor::new(ConductorConfig {
        session: bench_session_config(),
        ..ConductorConfig::default()
    });
    let id = conductor.open(set).expect("session opens");
    let handle = conductor.route(id).expect("session routes");
    for chunk in base.chunks(1000) {
        let out = handle.apply(chunk.to_vec()).expect("base applies");
        assert_eq!(out.reason, StopReason::Satisfied, "base must quiesce");
    }
    (conductor, handle, cities)
}

/// The `n`-th 16-fact `rail` batch of the handle case. Its distance
/// constant is new to the session, so every fact is new and every apply
/// publishes.
fn rail_handle_batch(n: usize, cities: usize) -> Vec<Atom> {
    let d = Term::constant(&format!("h{n}"));
    let city = |c: usize| Term::constant(&format!("city{c}"));
    (0..16)
        .map(|j| {
            let a = (n * 16 + j) * 7919 % cities;
            let b = (a + 1 + j) % cities;
            Atom::new("rail", vec![city(a), city(b), d])
        })
        .collect()
}

/// Warm path: one resident session, every batch continued from its delta.
fn run_warm(set: &ConstraintSet, stream: &[Vec<Atom>]) -> usize {
    let mut session = ChaseSession::with_config(set.clone(), bench_session_config());
    let mut steps = 0;
    for batch in stream {
        let out = session.apply(batch.iter().cloned()).expect("batch applies");
        assert_eq!(out.reason, StopReason::Satisfied, "workload must quiesce");
        steps += out.steps;
    }
    steps
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
        let warm_steps = run_warm(&w.set, &w.stream);
        let warm_time = t0.elapsed();
        let t0 = Instant::now();
        let cold_final_steps = run_cold(&w.set, &w.stream);
        let cold_time = t0.elapsed();
        // Warm steps can exceed the final from-scratch count (a warm
        // session may derive a fact a later batch would have delivered as
        // base data), but never by more than the stream's fact count.
        rows.push(Row::new(
            w.name.to_string(),
            vec![
                epochs.to_string(),
                format!("{warm_steps}/{cold_final_steps}"),
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
        "S1 — warm session re-chase vs from-scratch re-chase per epoch",
        &[
            "workload",
            "epochs",
            "steps warm/cold-final",
            "warm total",
            "cold total",
            "cold/warm",
        ],
        &rows,
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("session_updates");
    g.sample_size(10);
    for w in workloads() {
        g.bench_with_input(BenchmarkId::new(w.name, "warm"), &w, |b, w| {
            b.iter(|| run_warm(black_box(&w.set), &w.stream))
        });
        g.bench_with_input(BenchmarkId::new(w.name, "cold"), &w, |b, w| {
            b.iter(|| run_cold(black_box(&w.set), &w.stream))
        });
    }
    // Each iteration applies the batch to a fresh clone of the loaded
    // session, so the timing includes that clone.
    let (loaded, batch) = rail_batch_case();
    g.bench_function(BenchmarkId::new("travel_rail_batch", "warm"), |b| {
        b.iter(|| {
            let mut session = loaded.clone();
            let out = session.apply(batch.iter().cloned()).expect("batch applies");
            assert_eq!(out.reason, StopReason::Satisfied, "batch must quiesce");
            out.steps
        })
    });
    // The session grows by 32 facts per iteration, a rounding error on the
    // loaded ~50k.
    let (_conductor, handle, cities) = rail_handle_case();
    let mut n = 0;
    g.bench_function(BenchmarkId::new("travel_rail_batch", "handle"), |b| {
        b.iter(|| {
            n += 1;
            let out = handle
                .apply(rail_handle_batch(n, cities))
                .expect("batch applies");
            assert_eq!(out.new_facts, 16, "every fact is new");
            out.steps
        })
    });
    g.finish();
}

fn main() {
    print_shape();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
