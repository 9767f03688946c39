//! The session server, pinned at its two trust boundaries:
//!
//! * **The wire.** Every [`Request`]/[`Response`] round-trips bit-exactly
//!   through the framed codec (property-tested over seeded random
//!   messages), correlation ids are echoed verbatim and associate replies
//!   even when they arrive out of request order, and *no* byte-level
//!   corruption — truncation at every prefix, random flips, oversized
//!   length prefixes — can make decoding panic: malformed input always
//!   comes back as a [`ProtoError`] value. A v1 (no-correlation) client is
//!   answered with a clean version error frame, never silence.
//!
//! * **The clock.** A query admitted while an apply is chasing on another
//!   thread is answered from the *published* snapshot: it sees
//!   exactly the pre-batch instance (never a torn intermediate state), and
//!   once the apply's acknowledgement is observed, reads see the post-batch
//!   instance (read-your-writes).
//!
//! Plus the full loopback TCP lifecycle: multi-tenant isolation under
//! concurrent connections and every protocol error path.
//!
//! The vendored proptest stand-in has no collection strategies, so random
//! messages are generated from a `u64` seed through a `StdRng`, like the
//! `chase-corpus` random families.

use chase::prelude::*;
use chase::serve::proto::{
    read_frame, write_frame, ErrorCode, ProtoError, Request, Response, MAX_FRAME,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::Cursor;

// ---------------------------------------------------------------------------
// Seeded message generators
// ---------------------------------------------------------------------------

/// A string the protocol may carry: anything UTF-8, including separators,
/// quotes, multi-byte characters and embedded newlines.
fn wire_text(rng: &mut StdRng) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '0', '_', '(', ')', ',', '.', ';', ' ', '\n', '\t', '"', '\\', 'é', 'π', '→',
        '🦀',
    ];
    let len = rng.gen_range(0..24usize);
    (0..len)
        .map(|_| POOL[rng.gen_range(0..POOL.len())])
        .collect()
}

fn opts(rng: &mut StdRng) -> QueryOpts {
    QueryOpts {
        all: rng.gen_bool(0.5),
        sqo: rng.gen_bool(0.5),
    }
}

fn stop_reason(rng: &mut StdRng) -> StopReason {
    match rng.gen_range(0..5u8) {
        0 => StopReason::Satisfied,
        1 => StopReason::Failed,
        2 => StopReason::StepLimit(rng.gen_range(0..1_000_000usize)),
        3 => StopReason::NullLimit(rng.gen_range(0..1_000_000usize)),
        _ => StopReason::MonitorAbort {
            depth: rng.gen_range(0..64usize),
        },
    }
}

fn request(rng: &mut StdRng) -> Request {
    let session = rng.next_u64();
    match rng.gen_range(0..8u8) {
        0 => Request::Open {
            sigma: wire_text(rng),
        },
        1 => Request::Apply {
            session,
            facts: wire_text(rng),
        },
        2 => Request::Query {
            session,
            cq: wire_text(rng),
            opts: opts(rng),
        },
        3 => Request::Snapshot { session },
        4 => Request::Restore {
            session,
            snapshot: rng.next_u64(),
        },
        5 => Request::Stats { session },
        6 => Request::Dump { session },
        _ => Request::Close { session },
    }
}

fn response(rng: &mut StdRng) -> Response {
    match rng.gen_range(0..9u8) {
        0 => Response::Opened {
            session: rng.next_u64(),
        },
        1 => Response::Applied {
            outcome: ChaseOutcome {
                reason: stop_reason(rng),
                steps: rng.gen_range(0..1_000_000usize),
                fresh_nulls: rng.gen_range(0..10_000usize),
                new_facts: rng.gen_range(0..10_000usize),
                total_facts: rng.gen_range(0..1_000_000usize),
                epoch: rng.next_u64(),
            },
        },
        2 => {
            let tuples = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    (0..rng.gen_range(0..4usize))
                        .map(|_| wire_text(rng))
                        .collect()
                })
                .collect();
            Response::Answers { tuples }
        }
        3 => Response::Snapshotted {
            snapshot: rng.next_u64(),
        },
        4 => Response::Restored,
        5 => Response::Stats {
            stats: SessionStats {
                epoch: rng.next_u64(),
                total_facts: rng.next_u64(),
                total_steps: rng.next_u64(),
                plan_recompiles: rng.next_u64(),
                merge_rewritten: rng.next_u64(),
                merge_collapsed: rng.next_u64(),
                last_reason: if rng.gen_bool(0.5) {
                    Some(stop_reason(rng))
                } else {
                    None
                },
                quiescent: rng.gen_bool(0.5),
            },
        },
        6 => Response::Dump {
            text: wire_text(rng),
        },
        7 => Response::Closed,
        _ => Response::Error {
            code: [
                ErrorCode::Parse,
                ErrorCode::Poisoned,
                ErrorCode::Capacity,
                ErrorCode::UnknownSession,
                ErrorCode::UnknownSnapshot,
                ErrorCode::SessionGone,
                ErrorCode::Internal,
            ][rng.gen_range(0..7usize)],
            message: wire_text(rng),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Every message round-trips bit-exactly through encode/frame/decode —
    /// including its correlation id, echoed verbatim over the full u64
    /// range — with back-to-back frames sharing one stream.
    #[test]
    fn codec_round_trips(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reqs: Vec<(u64, Request)> = (0..8)
            .map(|_| (rng.next_u64(), request(&mut rng)))
            .collect();
        let resps: Vec<(u64, Response)> = (0..8)
            .map(|_| (rng.next_u64(), response(&mut rng)))
            .collect();
        let mut stream = Vec::new();
        for (corr, r) in &reqs {
            r.write_to(&mut stream, *corr).unwrap();
        }
        let mut cursor = Cursor::new(stream);
        for (corr, r) in &reqs {
            let got = Request::read_from(&mut cursor).unwrap();
            prop_assert_eq!(got.as_ref(), Some(&(*corr, r.clone())));
        }
        prop_assert_eq!(Request::read_from(&mut cursor).unwrap(), None);
        for (corr, r) in &resps {
            let bytes = r.encode(*corr);
            prop_assert_eq!(&Response::decode(&bytes).unwrap(), &(*corr, r.clone()));
        }
    }

    /// Correlation ids associate replies with their requests even when the
    /// replies arrive in a different order than the requests were issued:
    /// shuffling the reply stream loses nothing and confuses nothing.
    #[test]
    fn out_of_order_replies_associate_by_correlation_id(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..10usize);
        let base = rng.next_u64();
        // Distinct ids (sequential from a random base, as Client issues).
        let resps: Vec<(u64, Response)> = (0..n)
            .map(|i| (base.wrapping_add(i as u64), response(&mut rng)))
            .collect();
        // Serve the replies in a shuffled order.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut stream = Vec::new();
        for &i in &order {
            resps[i].1.write_to(&mut stream, resps[i].0).unwrap();
        }
        // Reassociate by id: every reply lands on its own request slot.
        let mut cursor = Cursor::new(stream);
        let mut slots: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        while let Some((corr, resp)) = Response::read_from(&mut cursor).unwrap() {
            let idx = usize::try_from(corr.wrapping_sub(base)).unwrap();
            prop_assert!(idx < n, "correlation id outside the batch");
            prop_assert!(slots[idx].is_none(), "duplicate correlation id");
            slots[idx] = Some(resp);
        }
        for (i, slot) in slots.into_iter().enumerate() {
            prop_assert_eq!(slot.as_ref(), Some(&resps[i].1));
        }
    }

    /// No byte-level corruption panics the decoder: every strict prefix of
    /// a valid payload is an error, and arbitrary single-byte flips decode
    /// to *something* (a value or an error), never a crash.
    #[test]
    fn corruption_never_panics(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads = [
            request(&mut rng).encode(rng.next_u64()),
            response(&mut rng).encode(rng.next_u64()),
        ];
        for (which, payload) in payloads.iter().enumerate() {
            for cut in 0..payload.len() {
                let err_req = Request::decode(&payload[..cut]).is_err();
                let err_resp = Response::decode(&payload[..cut]).is_err();
                // A strict prefix can never be a complete message of the
                // *same* kind it was cut from.
                if which == 0 {
                    prop_assert!(err_req, "prefix of len {cut} decoded as a request");
                } else {
                    prop_assert!(err_resp, "prefix of len {cut} decoded as a response");
                }
            }
            for _ in 0..64 {
                let mut bent = payload.clone();
                let at = rng.gen_range(0..bent.len());
                bent[at] ^= 1 << rng.gen_range(0..8u32);
                let _ = Request::decode(&bent);
                let _ = Response::decode(&bent);
            }
            // Appending garbage is always trailing-bytes, never accepted
            // (as the message kind the payload came from; the other kind's
            // tag space may happen to fit the bytes).
            let mut long = payload.clone();
            long.push(rng.next_u64() as u8);
            if which == 0 {
                prop_assert!(Request::decode(&long).is_err());
            } else {
                prop_assert!(Response::decode(&long).is_err());
            }
        }
    }

    /// Frame reading rejects truncated and oversized frames without
    /// allocating or panicking, whatever the declared length.
    #[test]
    fn bad_frames_are_rejected(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Truncated mid-prefix.
        let cut = rng.gen_range(1..4usize);
        let mut c = Cursor::new(vec![0u8; cut]);
        prop_assert_eq!(read_frame(&mut c).unwrap_err(), ProtoError::Truncated);
        // Truncated mid-payload.
        let declared = rng.gen_range(1..64u32);
        let supplied = rng.gen_range(0..declared) as usize;
        let mut bytes = declared.to_le_bytes().to_vec();
        bytes.extend(std::iter::repeat_n(0u8, supplied));
        let mut c = Cursor::new(bytes);
        prop_assert_eq!(read_frame(&mut c).unwrap_err(), ProtoError::Truncated);
        // Oversized declared length: rejected before allocation.
        let len = MAX_FRAME + 1 + rng.gen_range(0..1_000_000u32);
        let mut c = Cursor::new(len.to_le_bytes().to_vec());
        prop_assert_eq!(read_frame(&mut c).unwrap_err(), ProtoError::Oversized { len });
    }
}

// ---------------------------------------------------------------------------
// Snapshot isolation under concurrency
// ---------------------------------------------------------------------------

fn atoms(text: &str) -> Vec<Atom> {
    Instance::parse(text).unwrap().atoms()
}

fn normalized(mut answers: Vec<Vec<Term>>) -> Vec<Vec<Term>> {
    answers.sort();
    answers
}

/// A query answered while an apply is chasing on another thread sees
/// exactly the pre-batch snapshot; after the apply's acknowledgement, the
/// post-batch instance (read-your-writes). Nothing in between is ever
/// observable.
#[test]
fn query_mid_apply_sees_exactly_the_pre_batch_snapshot() {
    let conductor = Conductor::new(ConductorConfig {
        step_budget: None,
        ..ConductorConfig::default()
    });
    let id = conductor
        .open(ConstraintSet::parse("E(X,Y), E(Y,Z) -> E(X,Z)").unwrap())
        .unwrap();
    let h = conductor.route(id).unwrap();

    // Pre-batch state: one short chain from `a`.
    h.apply(atoms("E(a,b). E(b,c).")).unwrap();
    let q = ConjunctiveQuery::parse("q(X) <- E(a,X)").unwrap();
    let pre = normalized(h.query(&q, QueryOpts::default()).unwrap());
    assert_eq!(pre.len(), 2); // b and c

    // The batch extends the chain from `c`, so its closure adds new
    // `E(a, _)` answers — pre and post are disjoint in size.
    let mut batch = String::new();
    batch.push_str("E(c,m0). ");
    for i in 0..160 {
        batch.push_str(&format!("E(m{i},m{}). ", i + 1));
    }
    let writer = h.clone();
    let pending = std::thread::spawn(move || writer.apply(atoms(&batch)));

    // Issued right after the writer starts: it is (at most) mid-way through
    // the batch, and the published snapshot is still pre-batch.
    let mid = normalized(h.query(&q, QueryOpts::default()).unwrap());
    assert_eq!(
        mid, pre,
        "a query racing the apply must see exactly the pre-batch snapshot"
    );

    // Every answer until the ack is either the pre-batch snapshot or the
    // complete post-batch one — never a torn intermediate.
    let post = loop {
        let now = normalized(h.query(&q, QueryOpts::default()).unwrap());
        if now != pre {
            break now;
        }
        if pending.is_finished() {
            // Ack observed: from here on, reads must be post-batch.
            break normalized(h.query(&q, QueryOpts::default()).unwrap());
        }
    };
    assert_eq!(
        post.len(),
        2 + 161,
        "post-batch closure from `a`: b, c, m0..m160"
    );
    // Collect the ack if the loop broke on publication first.
    pending.join().unwrap().unwrap();
    let settled = normalized(h.query(&q, QueryOpts::default()).unwrap());
    assert_eq!(settled, post, "after the ack, reads are post-batch");
}

// ---------------------------------------------------------------------------
// Loopback TCP
// ---------------------------------------------------------------------------

/// Concurrent tenants over real connections: every tenant's chased state
/// stays its own (no cross-session leakage), and the conductor serves all
/// of them to completion.
#[test]
fn concurrent_tenants_are_isolated() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let addr = server.addr();
    let handles: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let s = c.open("rail(X,Y,D) -> rail(Y,X,D)").expect("open");
                for i in 0..5 {
                    c.apply(s, &format!("rail(t{t}_{i},t{t}_{next},d).", next = i + 1))
                        .map_err(|e| format!("{e}"))
                        .expect("apply");
                }
                let mine = c
                    .query(
                        s,
                        &format!("q(X) <- rail(X,t{t}_0,D)"),
                        QueryOpts::default(),
                    )
                    .expect("query");
                let stats = c.stats(s).expect("stats");
                c.close(s).expect("close");
                (mine, stats)
            })
        })
        .collect();
    for (t, h) in handles.into_iter().enumerate() {
        let (mine, stats) = h.join().unwrap();
        // Only this tenant's own symmetric edge answers its query.
        assert_eq!(mine, vec![vec![format!("t{t}_1")]]);
        assert_eq!(stats.epoch, 5);
        assert_eq!(stats.total_facts, 10);
    }
    assert_eq!(server.conductor().session_count(), 0);
    server.shutdown();
}

/// Every protocol error path over the wire: parse failures, unknown ids,
/// capacity, poisoning — each as a typed [`ErrorCode`], with the session
/// (where one exists) left usable.
#[test]
fn protocol_error_paths() {
    let server = serve(
        "127.0.0.1:0",
        ConductorConfig {
            max_sessions: 2,
            ..ConductorConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();

    let code = |e: ClientError| match e {
        ClientError::Server { code, .. } => code,
        other => panic!("expected server error, got {other:?}"),
    };

    // Parse errors: sigma, facts, query.
    assert_eq!(code(c.open("not a sigma").unwrap_err()), ErrorCode::Parse);
    let s = c.open("p(X), p(Y) -> X = Y").unwrap();
    assert_eq!(code(c.apply(s, "p(").unwrap_err()), ErrorCode::Parse);
    assert_eq!(
        code(c.query(s, "garbage", QueryOpts::default()).unwrap_err()),
        ErrorCode::Parse
    );

    // Unknown ids.
    assert_eq!(code(c.stats(999).unwrap_err()), ErrorCode::UnknownSession);
    assert_eq!(
        code(c.restore(s, 42).unwrap_err()),
        ErrorCode::UnknownSnapshot
    );

    // Capacity: the cap counts sessions, and close frees the slot.
    let s2 = c.open("e(X,Y) -> e(Y,X)").unwrap();
    assert_eq!(
        code(c.open("e(X,Y) -> e(Y,X)").unwrap_err()),
        ErrorCode::Capacity
    );
    c.close(s2).unwrap();
    let s3 = c.open("e(X,Y) -> e(Y,X)").unwrap();
    c.close(s3).unwrap();

    // Poisoning: a failing EGD poisons the session; snapshots taken before
    // the poisoning batch recover it.
    let snap = c.snapshot(s).unwrap();
    let out = c.apply(s, "p(a). p(b).").unwrap();
    assert_eq!(out.reason, StopReason::Failed);
    assert_eq!(
        code(
            c.query(s, "q(X) <- p(X)", QueryOpts::default())
                .unwrap_err()
        ),
        ErrorCode::Poisoned
    );
    assert_eq!(code(c.dump(s).unwrap_err()), ErrorCode::Poisoned);
    c.restore(s, snap).unwrap();
    c.apply(s, "p(a).").unwrap();
    assert_eq!(
        c.query(s, "q(X) <- p(X)", QueryOpts::default()).unwrap(),
        vec![vec!["a".to_string()]]
    );
    c.close(s).unwrap();
    server.shutdown();
}

/// `QueryOpts` travel the wire: `all` keeps labeled-null tuples that the
/// certain-answer default projects away.
#[test]
fn query_opts_select_evaluation_over_the_wire() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let s = c.open("person(X) -> hasParent(X,Y)").unwrap();
    c.apply(s, "person(ada).").unwrap();
    let certain = c
        .query(s, "q(X,Y) <- hasParent(X,Y)", QueryOpts::default())
        .unwrap();
    assert!(certain.is_empty(), "null parent is not a certain answer");
    let all = c
        .query(s, "q(X,Y) <- hasParent(X,Y)", QueryOpts::all_tuples())
        .unwrap();
    assert_eq!(all.len(), 1, "the full evaluation keeps the null tuple");
    c.close(s).unwrap();
    server.shutdown();
}

/// A v1 (pre-correlation-id) client talking to the new server gets a
/// clean version error frame followed by hangup — never a hang, never
/// silence. The v1 payload layout was `[version][tag][fields]` with no
/// correlation id, so its Metrics request was the two bytes `[1, 9]`.
#[test]
fn v1_clients_get_a_clean_version_error_not_a_hang() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, &[1u8, 9]).unwrap();
    // The server replies with exactly one error frame...
    let payload = read_frame(&mut stream)
        .expect("a reply frame, not a hang")
        .expect("a reply frame, not silence");
    let (corr, resp) = Response::decode(&payload).unwrap();
    assert_eq!(corr, 0, "a v1 frame has no id to echo; the reply carries 0");
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("version"), "unhelpful message: {message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    // ...then hangs up (resync with a v1 peer is hopeless).
    assert_eq!(read_frame(&mut stream).unwrap(), None);
    server.shutdown();
}
