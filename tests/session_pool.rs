//! The session fleet, pinned at serving scale: **thousands of mostly-idle
//! sessions cost map entries, not OS threads.** Every request runs on its
//! caller's thread under its session's one lock.
//!
//! * **No starvation.** Four client threads sharing hundreds of sessions
//!   (thousands under `CHASE_POOL_FULL=1`) get every session's apply
//!   acknowledged, and then every session answers its read-your-writes
//!   query — no tenant waits forever behind a busy neighbour.
//!
//! * **Eviction round-trip.** A durable session idled past `evict_after`
//!   is persisted and torn down; the next touch warm-restarts it from its
//!   `durable_root` directory, and the reattached session is
//!   indistinguishable — isomorphic cores via [`core_of`] and exact
//!   certain-answer agreement — from a twin that was never evicted.
//!
//! * **Fault containment.** An EGD-poisoned chase, or an injected panic
//!   inside a request, wedges nothing: the calling thread marks that one
//!   session poisoned and goes on serving every other tenant.
//!
//! The quick tier keeps CI fast; `CHASE_POOL_FULL=1` runs the ≥2k-session
//! soak from the acceptance criteria.

use chase::prelude::*;
use chase::serve::proto::{ErrorCode, Request, Response};
use chase_core::homomorphism::hom_equivalent;
use std::path::PathBuf;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

/// Sessions in the soak: 256 by default, ≥2048 when `CHASE_POOL_FULL=1`.
fn soak_sessions() -> usize {
    if std::env::var("CHASE_POOL_FULL").is_ok() {
        2048
    } else {
        256
    }
}

/// A fresh per-test directory under the system temp dir (same idiom as
/// `session_durability.rs`: hermetic reruns without a tempdir crate).
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chase-pool-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn atoms(text: &str) -> Vec<Atom> {
    Instance::parse(text).unwrap().atoms()
}

fn normalized(mut answers: Vec<Vec<Term>>) -> Vec<Vec<Term>> {
    answers.sort();
    answers
}

/// Spin until `cond` holds or the deadline passes.
fn wait_for(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(
            start.elapsed() < deadline,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Soak: no starvation, a few client threads
// ---------------------------------------------------------------------------

/// Client threads driving the soak: a fixed few, never one per session.
const SOAK_CLIENTS: usize = 4;

/// Hundreds-to-thousands of sessions driven by 4 client threads: every
/// apply is acknowledged, and every session then answers its own
/// read-your-writes query.
#[test]
fn a_four_worker_pool_serves_thousands_of_sessions_without_starvation() {
    let n = soak_sessions();
    let conductor = Conductor::new(ConductorConfig {
        max_sessions: n + 8,
        ..ConductorConfig::default()
    });
    let sigma = ConstraintSet::parse("e(X,Y) -> e(Y,X)").unwrap();
    let fleet: Vec<(usize, u64, SessionHandle)> = (0..n)
        .map(|i| {
            let id = conductor.open(sigma.clone()).unwrap();
            (i, id, conductor.route(id).unwrap())
        })
        .collect();

    // No starvation: each client thread applies to its share of the fleet,
    // and every apply is acknowledged.
    std::thread::scope(|s| {
        for share in fleet.chunks(n.div_ceil(SOAK_CLIENTS)) {
            s.spawn(move || {
                for (i, _, h) in share {
                    let out = h.apply(atoms(&format!("e(s{i},t{i}).")));
                    assert_eq!(out.unwrap().total_facts, 2, "session #{i}");
                }
            });
        }
    });

    // Read-your-writes after the ack, for every tenant.
    for (i, _, h) in &fleet {
        let q = ConjunctiveQuery::parse(&format!("q(X) <- e(t{i},X)")).unwrap();
        let ans = h.query(&q, QueryOpts::default()).unwrap();
        assert_eq!(
            ans,
            vec![vec![Term::constant(&format!("s{i}"))]],
            "session #{i}"
        );
    }

    let snap = conductor.metrics_snapshot();
    assert_eq!(snap.histogram("chase_apply_ns").unwrap().count(), n as u64);
    assert_eq!(snap.counter("chase_session_panics_total"), Some(0));
    for (_, id, _) in fleet {
        conductor.close(id).unwrap();
    }
    conductor.shutdown();
}

/// Read-your-writes under pipelining over real TCP: one connection keeps a
/// whole batch in flight across many tenants, and every query in the batch
/// sees the apply pipelined ahead of it.
#[test]
fn pipelined_batches_preserve_read_your_writes_across_tenants() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let tenants: Vec<u64> = (0..8)
        .map(|_| c.open("e(X,Y) -> e(Y,X)").unwrap())
        .collect();

    // Interleave apply/query across tenants in one pipelined batch: the
    // server handles a connection's frames in order, so each query must
    // see the apply for the same tenant written just before it.
    let mut reqs = Vec::new();
    for round in 0..4 {
        for (t, &session) in tenants.iter().enumerate() {
            reqs.push(Request::Apply {
                session,
                facts: format!("e(t{t}_{round},t{t}_{n}).", n = round + 1),
            });
            reqs.push(Request::Query {
                session,
                cq: format!("q(X) <- e(t{t}_{n},X)", n = round + 1),
                opts: QueryOpts::default(),
            });
        }
    }
    let replies = c.pipeline(&reqs).unwrap();
    assert_eq!(replies.len(), reqs.len());
    for (i, reply) in replies.iter().enumerate() {
        match (i % 2, reply) {
            (0, Ok(Response::Applied { .. })) => {}
            (1, Ok(Response::Answers { tuples })) => {
                let t = (i / 2) % tenants.len();
                let round = i / (2 * tenants.len());
                assert_eq!(
                    tuples,
                    &vec![vec![format!("t{t}_{round}")]],
                    "query #{i} did not see its own tenant's pipelined write"
                );
            }
            other => panic!("reply #{i} unexpected: {other:?}"),
        }
    }
    for s in tenants {
        c.close(s).unwrap();
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Eviction round-trip
// ---------------------------------------------------------------------------

/// The eviction pin from the issue: a durable session evicted by TTL and
/// reattached on the next touch has a core isomorphic to a never-evicted
/// twin's and agrees with it exactly on certain answers.
#[test]
fn an_evicted_durable_session_reattaches_equivalent_to_a_never_evicted_twin() {
    let root = test_dir("evict-roundtrip");
    let evicting = Conductor::new(ConductorConfig {
        durable_root: Some(root.clone()),
        evict_after: Some(Duration::from_millis(60)),
        ..ConductorConfig::default()
    });
    let plain = Conductor::new(ConductorConfig::default());

    // Existential TGDs so the instances carry labeled nulls — core
    // isomorphism is then a real check, not a set equality.
    let sigma = ConstraintSet::parse(
        "person(X) -> hasParent(X,Y); hasParent(X,Y), hasParent(Y,Z) -> ancestor(X,Z)",
    )
    .unwrap();
    let a = evicting.open(sigma.clone()).unwrap();
    let b = plain.open(sigma).unwrap();
    let batches = [
        "person(ada). person(bob).",
        "hasParent(ada,cleo). person(cleo).",
        "hasParent(bob,cleo).",
    ];
    for batch in batches {
        evicting.route(a).unwrap().apply(atoms(batch)).unwrap();
        plain.route(b).unwrap().apply(atoms(batch)).unwrap();
    }

    // Let the janitor evict the idle durable session (persist + teardown).
    wait_for(
        "TTL eviction of the durable session",
        Duration::from_secs(10),
        || evicting.session_count() == 0,
    );
    let text = evicting.metrics_text();
    assert!(text.contains("chase_evictions_total 1"), "{text}");

    // The next touch reattaches transparently from the durable directory.
    let reattached = evicting.route(a).unwrap();
    let twin = plain.route(b).unwrap();
    let core_a = core_of(&Instance::parse(&reattached.dump().unwrap()).unwrap());
    let core_b = core_of(&Instance::parse(&twin.dump().unwrap()).unwrap());
    assert!(
        hom_equivalent(&core_a, &core_b),
        "reattached core differs from the never-evicted twin"
    );
    for cq in [
        "q(X) <- ancestor(X,Z)",
        "q(X,Y) <- hasParent(X,Y)",
        "q(X) <- person(X)",
    ] {
        let q = ConjunctiveQuery::parse(cq).unwrap();
        assert_eq!(
            normalized(reattached.query(&q, QueryOpts::default()).unwrap()),
            normalized(twin.query(&q, QueryOpts::default()).unwrap()),
            "certain answers diverged on {cq}"
        );
    }
    assert!(
        evicting
            .metrics_text()
            .contains("chase_evictions_restored_total 1"),
        "restore not counted"
    );
    evicting.shutdown();
    plain.shutdown();
    let _ = std::fs::remove_dir_all(root);
}

/// A non-durable session evicted by TTL is gone for good, and says so
/// with the dedicated error — both in-process and over the wire.
#[test]
fn evicted_transient_sessions_answer_with_the_evicted_error() {
    let server = serve(
        "127.0.0.1:0",
        ConductorConfig {
            evict_after: Some(Duration::from_millis(60)),
            ..ConductorConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let s = c.open("e(X,Y) -> e(Y,X)").unwrap();
    c.apply(s, "e(a,b).").unwrap();
    wait_for("TTL eviction", Duration::from_secs(10), || {
        server.conductor().session_count() == 0
    });
    match c.stats(s).unwrap_err() {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Evicted),
        other => panic!("expected a server error, got {other:?}"),
    }
    // A fresh id is still served: the conductor did not wedge.
    let s2 = c.open("e(X,Y) -> e(Y,X)").unwrap();
    c.apply(s2, "e(x,y).").unwrap();
    c.close(s2).unwrap();
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Fault containment
// ---------------------------------------------------------------------------

/// An EGD failure inside an apply poisons only its own session: the
/// *same* thread goes on serving the other tenant, and the poisoned session
/// answers with the poison error, not a hang.
#[test]
fn an_egd_poisoned_chase_does_not_wedge_its_worker() {
    let conductor = Conductor::new(ConductorConfig::default());
    let poisoned = conductor
        .open(ConstraintSet::parse("p(X), p(Y) -> X = Y").unwrap())
        .unwrap();
    let healthy = conductor
        .open(ConstraintSet::parse("e(X,Y) -> e(Y,X)").unwrap())
        .unwrap();
    let hp = conductor.route(poisoned).unwrap();
    let hh = conductor.route(healthy).unwrap();

    // Two distinct constants through one EGD: terminal failure.
    let out = hp.apply(atoms("p(a). p(b).")).unwrap();
    assert_eq!(out.reason, StopReason::Failed);

    // This thread keeps serving the healthy session afterwards.
    let out = hh.apply(atoms("e(a,b).")).unwrap();
    assert_eq!(out.total_facts, 2);
    let q = ConjunctiveQuery::parse("q(X) <- e(b,X)").unwrap();
    assert_eq!(
        hh.query(&q, QueryOpts::default()).unwrap(),
        vec![vec![Term::constant("a")]]
    );

    // The poisoned session answers with the poison error — no hang.
    let q = ConjunctiveQuery::parse("q(X) <- p(X)").unwrap();
    assert!(matches!(
        hp.query(&q, QueryOpts::default()),
        Err(ServeError::Poisoned(StopReason::Failed))
    ));
    conductor.shutdown();
}

/// The panic path: a request that panics is caught on its caller's
/// thread, the session is marked poisoned and dead, and the conductor keeps
/// serving everything else. (The injection hook exists only for this pin.)
#[test]
fn a_panicking_dispatch_is_caught_poisons_the_session_and_requeues_nothing() {
    let conductor = Conductor::new(ConductorConfig::default());
    let victim = conductor
        .open(ConstraintSet::parse("e(X,Y) -> e(Y,X)").unwrap())
        .unwrap();
    let bystander = conductor
        .open(ConstraintSet::parse("e(X,Y) -> e(Y,X)").unwrap())
        .unwrap();
    let hv = conductor.route(victim).unwrap();
    let hb = conductor.route(bystander).unwrap();
    hv.apply(atoms("e(a,b).")).unwrap();
    hv.inject_panic();

    // The caller survives: the bystander is served by the same thread.
    let out = hb.apply(atoms("e(x,y).")).unwrap();
    assert_eq!(out.total_facts, 2);

    // The victim is poisoned on reads and dead to requests.
    let q = ConjunctiveQuery::parse("q(X) <- e(a,X)").unwrap();
    assert!(matches!(
        hv.query(&q, QueryOpts::default()),
        Err(ServeError::Poisoned(StopReason::Failed))
    ));
    assert!(matches!(
        hv.apply(atoms("e(c,d).")),
        Err(ServeError::SessionGone)
    ));
    assert!(
        conductor
            .metrics_text()
            .contains("chase_session_panics_total 1"),
        "panic not counted"
    );
    // Close still releases the slot; the conductor is fully usable.
    conductor.close(victim).unwrap();
    conductor.close(bystander).unwrap();
    assert_eq!(conductor.session_count(), 0);
    conductor.shutdown();
}
