//! A hostile tenant cannot hurt the server: each resource a client can
//! grow over the wire has a cap, and past the cap the client gets a typed
//! error reply while everything it already holds keeps working. Every
//! test drives a real server over loopback TCP.

use chase::prelude::*;
use chase::serve::proto::{ErrorCode, ProtoError, Request, Response, MAX_FRAME};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

/// The server's per-frame deadline: how long a request frame may take to
/// arrive once its first byte has (`FRAME_DEADLINE` in `chase_serve::server`).
const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// How often an idle connection thread wakes (`POLL_INTERVAL` in
/// `chase_serve::server`).
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server-side snapshots are full copies of a session's state: a client
/// that keeps asking for them is refused at the per-session cap with a
/// `Capacity` error, the refusals are counted, and the snapshots taken
/// before the cap still restore.
#[test]
fn a_snapshot_flood_gets_capacity_errors_and_held_snapshots_still_restore() {
    let server = serve(
        "127.0.0.1:0",
        ConductorConfig {
            max_snapshots: 4,
            ..ConductorConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let s = c.open("e(X,Y) -> e(Y,X)").unwrap();
    c.apply(s, "e(a,b).").unwrap();
    let first = c.snapshot(s).unwrap();
    for _ in 1..4 {
        c.snapshot(s).unwrap();
    }
    for _ in 0..100 {
        match c.snapshot(s) {
            Err(ClientError::Server {
                code: ErrorCode::Capacity,
                message,
            }) => assert!(message.contains("snapshot cap"), "{message}"),
            other => panic!("expected a capacity error, got {other:?}"),
        }
    }
    // The flood left the session serving, and its first snapshot intact.
    c.apply(s, "e(c,d).").unwrap();
    assert_eq!(c.stats(s).unwrap().total_facts, 4);
    c.restore(s, first).unwrap();
    assert_eq!(c.stats(s).unwrap().total_facts, 2);
    let answers = c.query(s, "q(X) <- e(X,a)", QueryOpts::default()).unwrap();
    assert_eq!(answers, vec![vec!["b".to_string()]]);
    assert!(c
        .metrics()
        .unwrap()
        .contains("chase_snapshot_requests_rejected_total 100"));
    // The cap is per session: another tenant still snapshots.
    let t = c.open("e(X,Y) -> e(Y,X)").unwrap();
    c.snapshot(t).unwrap();
    server.shutdown();
}

/// A slow client is served; a stalled one cannot pin its connection
/// thread: a frame that stops arriving past the deadline gets one error
/// frame, then the server hangs up.
#[test]
fn a_paused_frame_is_answered_and_a_stalled_one_gets_an_error_frame() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(FRAME_DEADLINE * 5)).unwrap();
    let mut frame = Vec::new();
    Request::Metrics.write_to(&mut frame, 7).unwrap();
    // A pause longer than the poll interval but inside the deadline
    // is a slow client: the frame is answered normally.
    stream.write_all(&frame[..6]).unwrap();
    thread::sleep(Duration::from_millis(150));
    stream.write_all(&frame[6..]).unwrap();
    let (corr, resp) = Response::read_from(&mut stream).unwrap().unwrap();
    assert_eq!(corr, 7);
    assert!(matches!(resp, Response::Metrics { .. }), "{resp:?}");
    // A stall past the deadline gets one error frame, then a hang-up.
    stream.write_all(&frame[..6]).unwrap();
    thread::sleep(FRAME_DEADLINE + POLL_INTERVAL * 3);
    let (corr, resp) = Response::read_from(&mut stream).unwrap().unwrap();
    assert_eq!(corr, 0);
    match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(Response::read_from(&mut stream).unwrap(), None);
    server.shutdown();
}

/// A fresh per-test directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chase-adversarial-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `count` facts `s(<name>).` whose text is exactly `len` bytes: distinct
/// names, padded with `x`.
fn padded_facts(count: usize, len: usize) -> String {
    let room = len - count * "s().".len();
    let mut facts = String::with_capacity(len);
    for i in 0..count {
        let width = room / count + usize::from(i < room % count);
        let name = format!("n{i:03}");
        facts.push_str(&format!("s({name}{}).", "x".repeat(width - name.len())));
    }
    assert_eq!(facts.len(), len);
    facts
}

/// A legal `Apply` frame can hold a batch whose WAL record would be over
/// the record cap: the server re-renders the facts, which adds bytes. That
/// batch is refused with a `Durability` error before anything is logged or
/// applied, the session keeps serving on the same connection, and a
/// reopen replays only what was acknowledged.
#[test]
fn a_batch_over_the_wal_record_cap_is_refused_and_the_session_lives() {
    let root = test_dir("wal-record-cap");
    let server = serve(
        "127.0.0.1:0",
        ConductorConfig {
            durable_root: Some(root.clone()),
            ..ConductorConfig::default()
        },
    )
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let s = c.open("s(X) -> t(X)").unwrap();
    // The frame's payload is 22 bytes of header (version, correlation id,
    // tag, session id, text length) and then the text: a full frame.
    let facts = padded_facts(100, MAX_FRAME as usize - 22);
    match c.apply(s, &facts) {
        Err(ClientError::Server {
            code: ErrorCode::Durability,
            message,
        }) => assert!(message.contains("WAL record"), "{message}"),
        other => panic!("expected a durability error, got {other:?}"),
    }
    drop(facts);
    assert_eq!(c.apply(s, "s(a).").unwrap().epoch, 1);
    assert_eq!(c.stats(s).unwrap().total_facts, 2);
    server.shutdown();

    let back = ChaseSession::open(root.join(format!("session-{s}"))).unwrap();
    assert_eq!(back.durability().unwrap().replayed_records, 1);
    assert_eq!(back.stats().epoch, 1);
    assert_eq!(back.stats().total_facts, 2);
    std::fs::remove_dir_all(&root).unwrap();
}

/// A reply over the frame cap is never sent: the request gets a
/// `Capacity` error frame under its own correlation id, and the next call
/// on the same connection is answered normally. A request over the cap is
/// refused on the client's side before a byte is sent.
#[test]
fn a_reply_over_the_frame_cap_is_a_capacity_error_and_the_connection_stays_in_step() {
    let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let s = c.open("s(X) -> t(X)").unwrap();
    // Two batches of six 1 MiB names; each name appears in an `s` and a
    // `t` fact, so the dump is ~24 MiB.
    let mib = 1 << 20;
    for batch in 0..2 {
        let facts: String = (0..6)
            .map(|i| format!("s(n{}{}).", batch * 6 + i, "x".repeat(mib)))
            .collect();
        c.apply(s, &facts).unwrap();
    }
    match c.dump(s) {
        Err(ClientError::Server {
            code: ErrorCode::Capacity,
            message,
        }) => assert!(message.contains("cap"), "{message}"),
        other => panic!("expected a capacity error, got {other:?}"),
    }
    assert_eq!(c.stats(s).unwrap().epoch, 2);

    let facts = padded_facts(1, MAX_FRAME as usize);
    match c.apply(s, &facts) {
        Err(ClientError::Proto(ProtoError::Io(message))) => {
            assert!(message.contains("cap"), "{message}")
        }
        other => panic!("expected a local refusal, got {other:?}"),
    }
    assert_eq!(c.stats(s).unwrap().epoch, 2);
    server.shutdown();
}
