//! A hostile tenant cannot hurt the server: each resource a client can
//! grow over the wire has a cap, and past the cap the client gets a typed
//! error reply while everything it already holds keeps working. Every
//! test drives a real server over loopback TCP.

use chase::prelude::*;
use chase::serve::proto::ErrorCode;

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
