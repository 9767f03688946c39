//! The bytes on the wire and on disk, pinned as literals. A wire frame, an
//! instance snapshot, a WAL record and a session snapshot file each have
//! one golden encoding here, and a durability directory written by an
//! earlier build (`tests/fixtures/durable_session_v1`) must reopen to the
//! same epoch and answers. A codec refactor that moves one byte fails here
//! before it reaches a deployed directory or a peer on the old build.

use chase::prelude::*;
use chase::serve::proto::{ErrorCode, Request, Response};
use std::fs;
use std::path::{Path, PathBuf};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

/// A fresh per-test directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chase-byte-grammar-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_request_has_pinned_bytes() {
    let corr = 0x0102_0304_0506_0708;
    let req = Request::Query {
        session: 7,
        cq: "q(X) <- e(X,Y)".into(),
        opts: QueryOpts::all_tuples().without_sqo(),
    };
    let golden = "\
        02\
        0807060504030201\
        03\
        0700000000000000\
        0e000000\
        71285829203c2d206528582c5929\
        01\
        00";
    assert_eq!(hex(&req.encode(corr)), golden);
    assert_eq!(Request::decode(&unhex(golden)).unwrap(), (corr, req));
}

#[test]
fn responses_have_pinned_bytes() {
    let corr = 0xA1A2_A3A4_A5A6_A7A8;
    let applied = Response::Applied {
        outcome: ChaseOutcome {
            reason: StopReason::StepLimit(300),
            steps: 300,
            fresh_nulls: 2,
            new_facts: 5,
            total_facts: 9,
            epoch: 4,
        },
    };
    let stats = Response::Stats {
        stats: SessionStats {
            epoch: 3,
            total_facts: 20,
            total_steps: 17,
            plan_recompiles: 2,
            merge_rewritten: 1,
            merge_collapsed: 0,
            last_reason: Some(StopReason::MonitorAbort { depth: 2 }),
            quiescent: true,
        },
    };
    let answers = Response::Answers {
        tuples: vec![vec!["a".into(), "_n1".into()], vec![]],
    };
    let error = Response::Error {
        code: ErrorCode::Capacity,
        message: "cap".into(),
    };
    let goldens = [
        (
            applied,
            "02a8a7a6a5a4a3a2a102\
             022c01000000000000\
             2c01000000000000\
             0200000000000000\
             0500000000000000\
             0900000000000000\
             0400000000000000",
        ),
        (
            stats,
            "02a8a7a6a5a4a3a2a106\
             0300000000000000\
             1400000000000000\
             1100000000000000\
             0200000000000000\
             0100000000000000\
             0000000000000000\
             01040200000000000000\
             01",
        ),
        (
            answers,
            "02a8a7a6a5a4a3a2a103\
             02000000\
             02000000\
             0100000061\
             030000005f6e31\
             00000000",
        ),
        (
            error,
            "02a8a7a6a5a4a3a2a109\
             02\
             03000000636170",
        ),
    ];
    for (resp, golden) in goldens {
        assert_eq!(hex(&resp.encode(corr)), golden, "{resp:?}");
        assert_eq!(Response::decode(&unhex(golden)).unwrap(), (corr, resp));
    }
}

/// The instance snapshot keeps labeled nulls verbatim and carries the
/// null counter explicitly: after the merge, null 3 is gone but the
/// counter still reads 4.
#[test]
fn an_instance_snapshot_has_pinned_bytes() {
    let mut inst = Instance::parse("S(a). E(a,_n0). E(_n0,_n3). T(b,_n3).").unwrap();
    assert!(!inst.merge_terms(Term::Null(3), Term::Null(0)).is_noop());
    let golden = "\
        43534e50\
        01\
        05000000\
        0100000053\
        0100000045\
        0100000054\
        0100000061\
        0100000062\
        04000000\
        03000000\
        00000000010000000100000003000000\
        0100000002000000020000000300000000000080\
        0000008000000080\
        020000000200000001000000\
        0400000000000080\
        04000000\
        0000000000000000\
        0100000000000000\
        0100000001000000\
        0200000000000000\
        75518398";
    let bytes = inst.to_snapshot_bytes();
    assert_eq!(hex(&bytes), golden);
    let back = Instance::from_snapshot_bytes(&unhex(golden)).unwrap();
    assert_eq!(back, inst);
    assert_eq!(back.to_snapshot_bytes(), bytes);
}

/// One apply on a durable session leaves exactly one WAL record, and a
/// persist leaves one session snapshot file; both are pinned byte for
/// byte.
#[test]
fn a_wal_record_and_a_session_snapshot_file_have_pinned_bytes() {
    let dir = test_dir("files");
    let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
    let mut session = ChaseSession::builder(set)
        .durable(&dir)
        .try_build()
        .unwrap();
    session
        .apply(Instance::parse("S(a).").unwrap().atoms())
        .unwrap();
    let wal = fs::read(dir.join("wal.log")).unwrap();
    assert_eq!(
        hex(&wal),
        "\
        14000000\
        0101\
        0100000000000000\
        06000000532861292e20\
        443cd8a0"
    );
    assert_eq!(session.persist().unwrap(), 1);
    let snapshot = fs::read(dir.join("snapshot-00000000000000000001.csnp")).unwrap();
    assert_eq!(
        hex(&snapshot),
        "\
        4353534e\
        01\
        0100000000000000\
        5c000000\
        43534e50\
        01\
        03000000\
        0100000053\
        0100000045\
        0100000061\
        01000000\
        02000000\
        00000000010000000100000002000000\
        0100000002000000010000000200000000000080\
        02000000\
        0000000000000000\
        0100000000000000\
        f9be0dbf\
        a1fccfa0"
    );
    drop(session);
    let back = ChaseSession::open(&dir).unwrap();
    assert_eq!(back.stats().epoch, 1);
    fs::remove_dir_all(&dir).unwrap();
}

fn copy_fixture(to: &Path) {
    let from = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/durable_session_v1");
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn all_answers(session: &mut ChaseSession, cq: &str) -> Vec<Vec<String>> {
    let q = ConjunctiveQuery::parse(cq).unwrap();
    session
        .query((&q, QueryOpts::all_tuples()))
        .unwrap()
        .into_iter()
        .map(|t| t.iter().map(|term| term.to_string()).collect())
        .collect()
}

/// A durability directory written by an earlier build: a manifest, a
/// snapshot at epoch 3 and two WAL records past it, from five batches
/// under a Σ whose EGD merges invented nulls. It reopens to the epoch
/// and answers that build saw, and to those of a session that never went
/// to disk.
#[test]
fn a_directory_written_by_an_earlier_build_reopens() {
    let dir = test_dir("fixture");
    copy_fixture(&dir);
    let mut back = ChaseSession::open(&dir).unwrap();
    let stats = back.durability().unwrap();
    assert!(stats.loaded_snapshot);
    assert_eq!(stats.replayed_records, 2);
    assert_eq!(stats.truncated_bytes, 0);
    assert_eq!(back.stats().epoch, 5);
    assert_eq!(back.stats().total_facts, 20);
    let pairs = |v: &[(&str, &str)]| -> Vec<Vec<String>> {
        v.iter()
            .map(|(x, y)| vec![x.to_string(), y.to_string()])
            .collect()
    };
    let expected = pairs(&[("a", "_n0"), ("b", "c"), ("c", "_n3"), ("d", "e")]);
    assert_eq!(all_answers(&mut back, "q(X,Y) <- E(X,Y)"), expected);

    let set =
        ConstraintSet::parse("S(X) -> E(X,Y), F(Y); T(X) -> E(X,Y), G(Y); E(X,Y), E(X,Z) -> Y = Z")
            .unwrap();
    let mut never_stored = ChaseSession::builder(set).build();
    for batch in [
        "S(a). S(b).",
        "T(a). E(b,c).",
        "S(c). T(c).",
        "T(b). S(d).",
        "T(d). E(d,e).",
    ] {
        never_stored
            .apply(Instance::parse(batch).unwrap().atoms())
            .unwrap();
    }
    assert_eq!(never_stored.stats().epoch, 5);
    for cq in ["q(X,Y) <- E(X,Y)", "q(Y) <- F(Y), G(Y)", "q(X) <- S(X)"] {
        assert_eq!(
            all_answers(&mut back, cq),
            all_answers(&mut never_stored, cq),
            "{cq}"
        );
    }
    fs::remove_dir_all(&dir).unwrap();
}
