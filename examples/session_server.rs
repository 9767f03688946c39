//! session_server: a stdin-driven REPL that speaks the `chase-serve`
//! **wire protocol** to a session server over TCP — the serving layer end
//! to end: a conductor serving tenant sessions, each request on its
//! connection's thread under its session's lock, batched inserts with warm
//! re-chase, certain-answer queries served from the published snapshot,
//! and server-side snapshot/restore.
//!
//! By default the example starts its own loopback server on an ephemeral
//! port and connects to it, so it exercises the real framed protocol even
//! when run standalone (as in CI):
//!
//! ```sh
//! cargo run --example session_server
//! echo 'insert rail(berlin,paris,d9).
//! query q(X) <- rail(X,berlin,D)' | cargo run --example session_server
//! ```
//!
//! Modes:
//!
//! * *(default)* — serve on `127.0.0.1:0` in-process and connect to it;
//! * `--serve <addr>` — run a server only (e.g. `127.0.0.1:7474`), no REPL;
//! * `--connect <addr>` — REPL against an already-running server;
//! * `--durable <dir>` — make the server durable (with the default or
//!   `--serve` mode): sessions log to `<dir>/session-<id>` and a restarted
//!   server **warm-restarts** every session it finds there, same ids. This
//!   is the crash-recovery path `docs/OPERATIONS.md` walks through;
//! * `--evict-after <secs>` — TTL for idle sessions: durable
//!   ones persist + tear down and warm-restart transparently on the next
//!   touch (`attach <id>` works), non-durable ones answer `Evicted`.
//!
//! Commands (one per line; `#` starts a comment):
//!
//! | command               | effect                                           |
//! |-----------------------|--------------------------------------------------|
//! | `sigma <constraints>` | open a fresh session under a new constraint set  |
//! | `attach <id>`         | address an existing session (e.g. warm-restarted)|
//! | `insert <facts>`      | apply the facts as one update batch (warm)       |
//! | `query <cq>`          | certain answers of `q(X) <- body` on the chase   |
//! | `snapshot`            | take a server-side snapshot (stacked)            |
//! | `restore`             | pop the stack and rewind to that snapshot        |
//! | `\persist`            | force a durability point (snapshot + compact WAL)|
//! | `show`                | print the chased instance (from the server)      |
//! | `stats`               | the session's `SessionStats`, verbatim           |
//! | `\metrics`            | server-wide Prometheus-style metrics exposition  |
//! | `quit`                | close the session and exit                       |
//!
//! A `sigma` line holds one constraint set; separate constraints with `;`
//! (first-class in the grammar — no escape tricks needed).
//!
//! With no input on stdin (as in CI), a built-in demo script runs instead.

use chase::prelude::*;
use std::io::BufRead;

/// The demo script run when stdin has no input — the travel-agency serving
/// scenario from PAPER.md's "Serving layer" section.
const DEMO: &str = "\
sigma fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)
insert fly(berlin,paris,d9). rail(paris,lyon,d2).
query airports(C) <- hasAirport(C)
snapshot
insert rail(lyon,nice,d1). fly(nice,berlin,d8).
query reach(X) <- rail(X,lyon,D)
stats
restore
stats
query reach(X) <- rail(X,lyon,D)
\\metrics
quit";

struct Repl {
    client: Client,
    session: u64,
    snapshots: Vec<u64>,
}

impl Repl {
    fn new(mut client: Client, sigma: &str) -> Result<Repl, ClientError> {
        let session = client.open(sigma)?;
        Ok(Repl {
            client,
            session,
            snapshots: Vec::new(),
        })
    }

    /// Handle one command line; returns `false` on `quit`.
    fn handle(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return true;
        }
        let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
        match cmd {
            "sigma" => match self.client.open(rest) {
                Ok(id) => {
                    let _ = self.client.close(self.session);
                    self.session = id;
                    self.snapshots.clear();
                    println!("session #{id} opened under the new constraint set");
                }
                Err(e) => println!("error: {e}"),
            },
            "insert" => match self.client.apply(self.session, rest) {
                Ok(out) => println!(
                    "epoch {}: +{} facts, {} chase steps, {} fresh nulls, {:?} ({} total)",
                    out.epoch,
                    out.new_facts,
                    out.steps,
                    out.fresh_nulls,
                    out.reason,
                    out.total_facts
                ),
                Err(e) => println!("error: {e}"),
            },
            "query" => match self.client.query(self.session, rest, QueryOpts::default()) {
                Ok(answers) => {
                    println!("{} certain answer(s):", answers.len());
                    for tuple in answers {
                        println!("  ({})", tuple.join(", "));
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            "attach" => match rest.trim().parse::<u64>() {
                Ok(id) => match self.client.stats(id) {
                    Ok(stats) => {
                        if id != self.session {
                            let _ = self.client.close(self.session);
                            self.session = id;
                            self.snapshots.clear();
                        }
                        println!("attached to session #{id} ({stats})");
                    }
                    Err(e) => println!("error: {e}"),
                },
                Err(_) => println!("error: attach takes a numeric session id"),
            },
            "snapshot" => match self.client.snapshot(self.session) {
                Ok(id) => {
                    self.snapshots.push(id);
                    println!("snapshot #{id} taken server-side");
                }
                Err(e) => println!("error: {e}"),
            },
            "restore" => match self.snapshots.pop() {
                Some(id) => match self.client.restore(self.session, id) {
                    Ok(()) => match self.client.stats(self.session) {
                        Ok(stats) => println!(
                            "restored to snapshot #{id} (epoch {}, {} facts)",
                            stats.epoch, stats.total_facts
                        ),
                        Err(e) => println!("restored to snapshot #{id}; stats failed: {e}"),
                    },
                    Err(e) => println!("error: {e}"),
                },
                None => println!("error: no snapshot on the stack"),
            },
            "show" => match self.client.dump(self.session) {
                Ok(text) => println!("{text}"),
                Err(e) => println!("error: {e}"),
            },
            "stats" => match self.client.stats(self.session) {
                Ok(stats) => println!("{stats}"),
                Err(e) => println!("error: {e}"),
            },
            "\\persist" | "persist" => match self.client.persist(self.session) {
                Ok(epoch) => println!(
                    "persisted: on-disk snapshot now covers epoch {epoch}, WAL compacted"
                ),
                Err(e) => println!("error: {e}"),
            },
            "\\metrics" | "metrics" => match self.client.metrics() {
                Ok(text) => print!("{text}"),
                Err(e) => println!("error: {e}"),
            },
            "quit" | "exit" => {
                let _ = self.client.close(self.session);
                return false;
            }
            other => println!(
                "unknown command {other:?} (sigma/attach/insert/query/snapshot/restore/\\persist/show/stats/\\metrics/quit)"
            ),
        }
        true
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    // Durable servers log every session under this root and warm-restart
    // whatever a previous process left there. `--evict-after` puts a TTL
    // on idle sessions.
    let conductor_cfg = || ConductorConfig {
        durable_root: flag("--durable").map(std::path::PathBuf::from),
        evict_after: flag("--evict-after").map(|v| {
            std::time::Duration::from_secs_f64(v.parse().expect("--evict-after takes seconds"))
        }),
        ..ConductorConfig::default()
    };

    // Server-only mode: bind, print the address, serve until killed.
    if let Some(addr) = flag("--serve") {
        let cfg = conductor_cfg();
        let server = serve(addr.as_str(), cfg).expect("bind");
        let restarted = server.conductor().session_count();
        if restarted > 0 {
            println!("warm-restarted {restarted} durable session(s)");
        }
        println!("serving chase sessions on {}", server.addr());
        loop {
            std::thread::park();
        }
    }

    // REPL mode: connect to the given server, or spin up a loopback one.
    let (client, _local) = match flag("--connect") {
        Some(addr) => (Client::connect(addr.as_str()).expect("connect"), None),
        None => {
            let server = serve("127.0.0.1:0", conductor_cfg()).expect("bind loopback");
            let client = Client::connect(server.addr()).expect("connect loopback");
            println!("(loopback server on {})", server.addr());
            (client, Some(server))
        }
    };

    // Default constraint set until a `sigma` command replaces the session.
    let mut repl = Repl::new(client, "E(X,Y), E(Y,Z) -> E(X,Z)").expect("open default session");
    println!(
        "chase-serve session client — commands: sigma/attach/insert/query/snapshot/restore/\\persist/show/stats/\\metrics/quit"
    );

    let mut saw_input = false;
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("stdin line");
        saw_input = true;
        println!("> {line}");
        if !repl.handle(&line) {
            return;
        }
    }
    if !saw_input {
        println!("(no stdin input — running the built-in demo script)\n");
        for line in DEMO.lines() {
            println!("> {line}");
            if !repl.handle(line) {
                return;
            }
        }
    }
}
