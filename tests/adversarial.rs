//! A hostile tenant cannot hurt the server: each resource a client can
//! grow over the wire has a cap, and past the cap the client gets a typed
//! error reply while everything it already holds keeps working. Every
//! test drives a real server over loopback TCP.

use chase::prelude::*;
use chase::serve::proto::{ErrorCode, Request, Response};
use std::io::Write;
use std::net::TcpStream;
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
