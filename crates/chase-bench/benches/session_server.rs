//! S2 — session_server: load generator for the multi-tenant TCP session
//! server. N concurrent connections drive seeded chase-corpus update
//! streams through real framed-protocol sessions and report
//! **sessions/sec** plus **p50/p99 apply and query latency**.
//!
//! The headline measurement is the concurrency claim behind the
//! copy-on-read design: certain-answer queries are served from the
//! session's published snapshot on the connection thread, so a reader
//! never queues behind an in-flight apply. The bench pins that down by
//! measuring p99 query latency twice over the same loaded sessions —
//! once **read-only** (no writer traffic at all) and once **write-heavy**
//! (a dedicated writer connection per session streaming fresh batches the
//! whole time) — and printing the ratio, which must stay well under the
//! 2x that reads queuing behind the session lock would blow through.
//!
//! The **high-tenancy** group then pushes fleet size instead of per-tenant
//! load: thousands of mostly-idle sessions opened over pipelined frames
//! onto one server, where each costs a map entry, not a thread.

use chase_bench::{print_table, quick, scaled, Row};
use chase_corpus::random::{random_travel_stream, RandomTravelConfig};
use chase_obs::{Histogram, HistogramSnapshot, Phase};
use chase_serve::proto::{Request, Response};
use chase_serve::{
    serve, ChaseSession, Client, ConductorConfig, DurabilityConfig, QueryOpts, Server,
};
use criterion::Criterion;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The travel-agency sigma every tenant session runs under.
const SIGMA: &str =
    "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";

/// Concurrent tenant sessions. Stays >= 4 in quick mode: the latency
/// comparison is only meaningful under real concurrency.
fn tenants() -> usize {
    scaled(8, 4)
}

fn queries_per_reader() -> usize {
    scaled(1200, 500)
}

/// The measured read mix: a star join and a chain join, both over
/// relations the write-heavy stream never grows, so a read costs the same
/// in both phases and the p99 comparison isolates contention.
const READ_MIX: [&str; 2] = [
    "q(C1,C2) <- fly(C1,C2,D), hasAirport(C1), hasAirport(C2)",
    "q(C1,C3) <- fly(C1,C2,D1), fly(C2,C3,D2)",
];

/// Open-loop pacing for the measured readers: a steady per-tenant query
/// stream rather than a closed loop, so client threads don't measure
/// their own CPU squeeze on small machines.
const READ_INTERVAL: Duration = Duration::from_micros(1500);

/// Render a batch of atoms as wire fact text.
fn batch_text(batch: &[chase_core::Atom]) -> String {
    let mut s = String::new();
    for a in batch {
        s.push_str(&a.to_string());
        s.push_str(". ");
    }
    s
}

/// A seeded per-tenant update stream.
fn stream_for(tenant: usize) -> Vec<String> {
    random_travel_stream(
        &RandomTravelConfig {
            cities: scaled(60, 16),
            flights: scaled(400, 50),
            rails: scaled(300, 40),
            seed: 100 + tenant as u64,
        },
        scaled(8, 4),
    )
    .iter()
    .map(|b| batch_text(b))
    .collect()
}

/// Fresh, never-seen-before write batch for the write-heavy phase: new
/// rail links each round so every apply moves the instance version and
/// republishes (duplicate batches would be free and prove nothing). Rail
/// only — the read mix never touches `rail`, so a read's evaluation cost
/// is identical in both phases and the comparison isolates *contention*.
fn fresh_batch(tenant: usize, round: usize) -> String {
    let n = scaled(24, 8);
    let mut s = String::new();
    for i in 0..n {
        s.push_str(&format!(
            "rail(w{tenant}_{round}_{i}a,w{tenant}_{round}_{i}b,d)."
        ));
        s.push(' ');
    }
    s
}

fn fmt_us(ns: u64) -> String {
    format!("{:.2} µs", ns as f64 / 1e3)
}

/// Print a latency distribution in the criterion stand-in's line format so
/// `bench2json` records it on the trajectory: [p50 p90 p99].
fn print_latency_line(label: &str, snap: &HistogramSnapshot) {
    println!(
        "{label:<60} time: [{} {} {}]",
        fmt_us(snap.percentile(0.50)),
        fmt_us(snap.percentile(0.90)),
        fmt_us(snap.percentile(0.99)),
    );
}

/// One tenant's full lifecycle: open, stream every batch, query, close.
/// Per-apply latencies land in `applies` (shared, lock-free).
fn run_session(addr: std::net::SocketAddr, stream: &[String], applies: &Histogram) {
    let mut c = Client::connect(addr).expect("connect");
    let s = c.open(SIGMA).expect("open");
    for batch in stream {
        let t0 = Instant::now();
        c.apply(s, batch).expect("apply");
        applies.record_duration(t0.elapsed());
    }
    let ans = c
        .query(s, "q(C) <- hasAirport(C)", QueryOpts::default())
        .expect("query");
    black_box(ans);
    c.close(s).expect("close");
}

/// Load one session per tenant (left open) and return `(session,
/// snapshot)` pairs — the snapshot is the loaded baseline the write-heavy
/// writers periodically rewind to, bounding instance growth.
fn load_sessions(server: &Server) -> Vec<(u64, u64)> {
    (0..tenants())
        .map(|t| {
            let mut c = Client::connect(server.addr()).expect("connect");
            let s = c.open(SIGMA).expect("open");
            for batch in stream_for(t) {
                c.apply(s, &batch).expect("apply");
            }
            // Warm the read mix once: the first sight of a query text pays
            // the SQO rewriting chase, which belongs to neither measured
            // phase.
            for q in READ_MIX {
                c.query(s, q, QueryOpts::default()).expect("warm query");
            }
            let snap = c.snapshot(s).expect("snapshot");
            (s, snap)
        })
        .collect()
}

/// Per-tenant reader loop: `n` queries over its session, each round trip's
/// latency recorded into the shared histogram.
fn reader(addr: std::net::SocketAddr, session: u64, n: usize, lat: &Histogram) {
    let mut c = Client::connect(addr).expect("connect");
    for i in 0..n {
        let q = READ_MIX[i % READ_MIX.len()];
        let t0 = Instant::now();
        let ans = c.query(session, q, QueryOpts::default()).expect("query");
        lat.record_duration(t0.elapsed());
        black_box(ans);
        let spent = t0.elapsed();
        if spent < READ_INTERVAL {
            thread::sleep(READ_INTERVAL - spent);
        }
    }
}

/// Query latencies across all tenants with no writer traffic.
fn measure_read_only(server: &Server, sessions: &[(u64, u64)]) -> HistogramSnapshot {
    let addr = server.addr();
    let n = queries_per_reader();
    let lat = Arc::new(Histogram::new());
    let handles: Vec<_> = sessions
        .iter()
        .map(|&(s, _)| {
            let lat = Arc::clone(&lat);
            thread::spawn(move || reader(addr, s, n, &lat))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    lat.snapshot()
}

/// How often each write-heavy writer issues a batch. Open-loop pacing: a
/// steady update stream per tenant, not a closed CPU-burn loop — on small
/// machines an unpaced writer fleet would measure the OS scheduler, not
/// the server.
const WRITE_INTERVAL: Duration = Duration::from_millis(8);

/// Query + apply latencies across all tenants while a dedicated writer
/// connection per session streams fresh batches for the entire window,
/// rewinding to the loaded snapshot every few rounds to bound growth.
fn measure_write_heavy(
    server: &Server,
    sessions: &[(u64, u64)],
) -> (HistogramSnapshot, HistogramSnapshot) {
    let addr = server.addr();
    let n = queries_per_reader();
    let stop = Arc::new(AtomicBool::new(false));
    let applies = Arc::new(Histogram::new());
    let queries = Arc::new(Histogram::new());
    let writers: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(t, &(s, snap))| {
            let stop = Arc::clone(&stop);
            let lat = Arc::clone(&applies);
            thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut round = 0;
                while !stop.load(Ordering::Relaxed) {
                    let batch = fresh_batch(t, round);
                    let t0 = Instant::now();
                    c.apply(s, &batch).expect("apply");
                    lat.record_duration(t0.elapsed());
                    round += 1;
                    if round % 8 == 0 {
                        c.restore(s, snap).expect("restore");
                    }
                    let spent = t0.elapsed();
                    if spent < WRITE_INTERVAL {
                        thread::sleep(WRITE_INTERVAL - spent);
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = sessions
        .iter()
        .map(|&(s, _)| {
            let lat = Arc::clone(&queries);
            thread::spawn(move || reader(addr, s, n, &lat))
        })
        .collect();
    for h in readers {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in writers {
        h.join().unwrap();
    }
    (queries.snapshot(), applies.snapshot())
}

fn print_shape() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).expect("bind");

    // Throughput: every tenant runs its full session lifecycle once,
    // concurrently; sessions/sec is tenants over the wall-clock window.
    let t0 = Instant::now();
    let lifecycle = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..tenants())
        .map(|t| {
            let addr = server.addr();
            let lat = Arc::clone(&lifecycle);
            thread::spawn(move || run_session(addr, &stream_for(t), &lat))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let applies = lifecycle.snapshot();
    let window = t0.elapsed();
    let sessions_per_sec = tenants() as f64 / window.as_secs_f64();

    // Latency under contention: the read-only baseline, then the same
    // readers racing a write-heavy stream.
    let sessions = load_sessions(&server);
    let read_only = measure_read_only(&server, &sessions);
    let (write_heavy_q, write_heavy_a) = measure_write_heavy(&server, &sessions);
    let p99_ro = read_only.percentile(0.99);
    let p99_wh = write_heavy_q.percentile(0.99);
    let ratio = p99_wh as f64 / (p99_ro as f64).max(1.0);

    let rows = vec![
        Row::new(
            "session lifecycle",
            vec![
                format!("{} tenants", tenants()),
                format!("{sessions_per_sec:.1} sessions/s"),
                fmt_us(applies.percentile(0.50)),
                fmt_us(applies.percentile(0.99)),
            ],
        ),
        Row::new(
            "query, read-only",
            vec![
                format!("{} reads", read_only.count()),
                "-".into(),
                fmt_us(read_only.percentile(0.50)),
                fmt_us(p99_ro),
            ],
        ),
        Row::new(
            "query, write-heavy",
            vec![
                format!("{} reads", write_heavy_q.count()),
                "-".into(),
                fmt_us(write_heavy_q.percentile(0.50)),
                fmt_us(p99_wh),
            ],
        ),
        Row::new(
            "apply, write-heavy",
            vec![
                format!("{} writes", write_heavy_a.count()),
                "-".into(),
                fmt_us(write_heavy_a.percentile(0.50)),
                fmt_us(write_heavy_a.percentile(0.99)),
            ],
        ),
    ];
    print_table(
        "S2 — session server load generation (sessions over TCP)",
        &["phase", "volume", "throughput", "p50", "p99"],
        &rows,
    );
    println!(
        "p99 query latency write-heavy/read-only: {ratio:.2}x \
         (reads come off the published snapshot; target < 2x at >= {} sessions)",
        tenants()
    );

    // Trajectory lines in the criterion stand-in's format: [p50 p90 p99].
    print_latency_line("session_server/query_readonly/p50p90p99", &read_only);
    print_latency_line("session_server/query_writeheavy/p50p90p99", &write_heavy_q);
    print_latency_line("session_server/apply_writeheavy/p50p90p99", &write_heavy_a);

    // Per-stage engine phase timings, aggregated over every still-open
    // session's recorder via the conductor (full-budget runs only: quick
    // mode's workload is too small for stable per-stage percentiles).
    let exposition = server.conductor().metrics_text();
    if !quick() {
        let snap = server.conductor().metrics_snapshot();
        let rows: Vec<Row> = Phase::ALL
            .iter()
            .map(|p| {
                let h = snap
                    .histogram(&format!("chase_phase_ns{{phase=\"{}\"}}", p.name()))
                    .cloned()
                    .unwrap_or_default();
                Row::new(
                    p.name(),
                    vec![
                        format!("{}", h.count()),
                        fmt_us(h.percentile(0.50)),
                        fmt_us(h.percentile(0.90)),
                        fmt_us(h.percentile(0.99)),
                    ],
                )
            })
            .collect();
        print_table(
            "S2 — per-stage chase phase timings (chase-obs recorders, all sessions)",
            &["phase", "samples", "p50", "p90", "p99"],
            &rows,
        );
    }

    // Machine-readable exposition dump for bench2json to embed into the
    // trajectory point.
    println!("metrics_exposition_begin");
    print!("{exposition}");
    println!("metrics_exposition_end");

    for (s, _) in sessions {
        let mut c = Client::connect(server.addr()).expect("connect");
        let _ = c.close(s);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// High tenancy
// ---------------------------------------------------------------------------

/// The fleet sizes the server is pushed to. The top quick-mode count is the
/// acceptance floor (>= 2k concurrent sessions).
fn high_tenancy_counts() -> &'static [usize] {
    if quick() {
        &[512, 2048]
    } else {
        &[2048, 8192]
    }
}

/// Pipelined frames kept in flight while loading the tenant fleet.
const PIPELINE_CHUNK: usize = 64;

struct TenancyPoint {
    n: usize,
    opens_per_sec: f64,
    touch: HistogramSnapshot,
}

/// One high-tenancy round: open `n` sessions over pipelined frames on a
/// single connection, give each exactly one small write, then measure
/// sequential stats round trips against a sample of the (now mostly idle)
/// fleet — the latency a tenant sees when thousands of neighbours hold
/// sessions open.
fn high_tenancy_round(n: usize) -> TenancyPoint {
    let cfg = ConductorConfig {
        max_sessions: n + 8,
        ..ConductorConfig::default()
    };
    let server = serve("127.0.0.1:0", cfg).expect("bind");
    let mut c = Client::connect(server.addr()).expect("connect");

    // Open + touch the whole fleet, pipelined.
    let t0 = Instant::now();
    let mut sessions: Vec<u64> = Vec::with_capacity(n);
    while sessions.len() < n {
        let k = PIPELINE_CHUNK.min(n - sessions.len());
        let reqs: Vec<Request> = (0..k)
            .map(|_| Request::Open {
                sigma: SIGMA.into(),
            })
            .collect();
        for reply in c.pipeline(&reqs).expect("pipelined opens") {
            match reply.expect("open") {
                Response::Opened { session } => sessions.push(session),
                other => panic!("unexpected open reply: {other:?}"),
            }
        }
    }
    for chunk in sessions.chunks(PIPELINE_CHUNK) {
        let reqs: Vec<Request> = chunk
            .iter()
            .map(|&s| Request::Apply {
                session: s,
                facts: format!("fly(a{s},b{s},d)."),
            })
            .collect();
        for reply in c.pipeline(&reqs).expect("pipelined applies") {
            reply.expect("apply");
        }
    }
    let opens_per_sec = n as f64 / t0.elapsed().as_secs_f64();

    // Sampled round-trip latency across the resident fleet.
    let touch = Histogram::new();
    let sample = 256.min(n);
    for i in 0..sample {
        let s = sessions[(i * n) / sample];
        let t0 = Instant::now();
        let stats = c.stats(s).expect("stats");
        touch.record_duration(t0.elapsed());
        black_box(stats);
    }
    server.shutdown();
    TenancyPoint {
        n,
        opens_per_sec,
        touch: touch.snapshot(),
    }
}

/// Drive the server across the fleet sizes: trajectory lines per count plus
/// a human-readable table.
fn high_tenancy() {
    let points: Vec<TenancyPoint> = high_tenancy_counts()
        .iter()
        .map(|&n| high_tenancy_round(n))
        .collect();
    let rows: Vec<Row> = points
        .iter()
        .map(|p| {
            Row::new(
                format!("pool_s{}", p.n),
                vec![
                    format!("{} sessions", p.n),
                    format!("{:.0} opens/s", p.opens_per_sec),
                    fmt_us(p.touch.percentile(0.50)),
                    fmt_us(p.touch.percentile(0.99)),
                ],
            )
        })
        .collect();
    print_table(
        "S2 — high tenancy: mostly-idle sessions",
        &["fleet", "sessions", "load rate", "touch p50", "touch p99"],
        &rows,
    );
    for p in &points {
        print_latency_line(
            &format!("session_server/high_tenancy/pool_s{}", p.n),
            &p.touch,
        );
    }
}

fn bench(c: &mut Criterion) {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).expect("bind");
    let addr = server.addr();
    let mut g = c.benchmark_group("session_server");
    g.sample_size(10);
    // One tenant's full lifecycle over the wire, batches included.
    let stream = stream_for(0);
    let sink = Histogram::new();
    g.bench_function("lifecycle/tcp", |b| {
        b.iter(|| run_session(addr, black_box(&stream), &sink))
    });
    // A single framed query round trip against a loaded session.
    let mut c0 = Client::connect(addr).expect("connect");
    let s0 = c0.open(SIGMA).expect("open");
    for batch in &stream {
        c0.apply(s0, batch).expect("apply");
    }
    g.bench_function("query_roundtrip/tcp", |b| {
        b.iter(|| {
            c0.query(s0, "q(C) <- hasAirport(C)", QueryOpts::default())
                .expect("query")
        })
    });

    // Durable reopen, both recovery paths. `wal_replay` reopens a session
    // whose whole stream sits in the log (compaction disabled), re-running
    // every batch through the warm apply path; `snapshot_reopen` reopens
    // after a persist, so recovery is one columnar snapshot load and an
    // empty-log replay. The gap between the two is what periodic
    // compaction buys at restart time.
    let replay_dir = durable_dir("wal-replay", false);
    g.bench_function("wal_replay/reopen", |b| {
        b.iter(|| ChaseSession::open(black_box(&replay_dir)).expect("reopen"))
    });
    let snap_dir = durable_dir("snapshot-reopen", true);
    g.bench_function("snapshot_reopen/reopen", |b| {
        b.iter(|| ChaseSession::open(black_box(&snap_dir)).expect("reopen"))
    });
    g.finish();
    server.shutdown();
    std::fs::remove_dir_all(&replay_dir).ok();
    std::fs::remove_dir_all(&snap_dir).ok();
}

/// Prepare a durable session directory holding tenant 0's full stream —
/// as a WAL to replay (`persisted = false`) or compacted into a snapshot
/// (`persisted = true`).
fn durable_dir(name: &str, persisted: bool) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chase-bench-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let sigma = chase_core::ConstraintSet::parse(SIGMA).expect("sigma");
    let mut s = ChaseSession::builder(sigma)
        .durable(&dir)
        .durability(DurabilityConfig {
            snapshot_every_batches: 0,
            snapshot_every_bytes: 0,
            ..DurabilityConfig::default()
        })
        .try_build()
        .expect("durable session");
    for batch in stream_for(0) {
        let atoms = chase_core::Instance::parse(&batch).expect("batch").atoms();
        s.apply(atoms).expect("apply");
    }
    if persisted {
        s.persist().expect("persist");
    }
    dir
}

fn main() {
    print_shape();
    high_tenancy();
    let mut c = Criterion::default().configure_from_args();
    bench(&mut c);
    c.final_summary();
}
