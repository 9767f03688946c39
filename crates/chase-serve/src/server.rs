//! The TCP front door: a [`Server`] accepting framed [`proto`](crate::proto)
//! traffic on a `std::net` listener, one thread per connection, all
//! connections sharing one [`Conductor`] — plus the thin [`Client`] the
//! REPL example and the load-generator bench speak through.
//!
//! Sessions are **server-side and connection-independent**: any connection
//! may address any session by id, so a tenant can open a session, drop the
//! link, and pick the warm state up on a new connection. Slots are released
//! by an explicit `Close` request, idle-TTL eviction (when the conductor is
//! configured with `evict_after`), or server shutdown.
//!
//! Requests may be **pipelined**: every frame carries a u64 correlation id
//! that the server echoes in the matching reply, so a client can keep many
//! requests in flight on one connection ([`Client::pipeline`]). The server
//! still processes each connection's frames in order — the id associates,
//! it does not reorder.
//!
//! Shutdown is cooperative: [`Server::shutdown`] raises a flag, nudges the
//! accept loop awake with a loopback connect, joins it, then closes every
//! session through the conductor. Connection threads poll the flag between
//! frames (socket read timeout) and drain themselves.
//!
//! A frame that has started must arrive whole within two seconds:
//! a client may pause mid-frame, but a stalled one gets one final error
//! frame and is disconnected, never silence.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use chase_core::parser::parse_facts;
use chase_core::{ConjunctiveQuery, ConstraintSet};
use chase_obs::Counter;

use crate::conductor::{Conductor, ConductorConfig, SessionHandle};
use crate::proto::{ErrorCode, ProtoError, Request, Response};
use crate::session::{ChaseOutcome, QueryOpts, ServeError, SessionStats};

/// How often an idle connection thread wakes to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long the accept loop pauses after a failed `accept`. The error that
/// matters, running out of file descriptors, leaves the connection queued,
/// so an immediate retry fails again at once and would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// How long a request frame may take to arrive once its first byte has.
const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// The read half of a connection while one frame is in flight: rides out
/// the [`POLL_INTERVAL`] read timeouts until the frame's deadline passes.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl FrameReader<'_> {
    fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if is_timeout(&e) && !self.expired() => continue,
                other => return other,
            }
        }
    }
}

/// Did a read end on the socket's read timeout?
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A running session server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop and closes every session.
pub struct Server {
    conductor: Arc<Conductor>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

/// Counts connections answered with an error because the OS refused
/// their thread.
const M_CONNECTIONS_REFUSED: &str = "chase_connections_refused_total";

/// Counts `accept` calls that failed (each followed by [`ACCEPT_BACKOFF`]).
const M_ACCEPT_ERRORS: &str = "chase_accept_errors_total";

/// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
/// framed protocol traffic with the given admission policy.
pub fn serve(addr: impl ToSocketAddrs, cfg: ConductorConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let conductor = Arc::new(Conductor::new(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let refused = conductor.metrics().counter(M_CONNECTIONS_REFUSED);
    let accept_errors = conductor.metrics().counter(M_ACCEPT_ERRORS);
    let accept_conductor = Arc::clone(&conductor);
    let accept_stop = Arc::clone(&stop);
    let accept_thread = thread::spawn(move || {
        accept_loop(
            listener.incoming(),
            accept_conductor,
            accept_stop,
            refused,
            accept_errors,
            |f| thread::Builder::new().spawn(f).map(drop),
        )
    });
    Ok(Server {
        conductor,
        addr,
        stop,
        accept_thread: Some(accept_thread),
    })
}

/// Accept connections from `incoming` until `stop` is raised, running
/// each on a thread that `spawn` starts. A failed `accept` counts in
/// `accept_errors` and is followed by an [`ACCEPT_BACKOFF`] pause. When the
/// OS refuses a connection's thread, the connection gets one `Internal`
/// error frame and is closed, and `refused` counts it. Either way the loop
/// goes on.
fn accept_loop(
    incoming: impl Iterator<Item = io::Result<TcpStream>>,
    conductor: Arc<Conductor>,
    stop: Arc<AtomicBool>,
    refused: Counter,
    accept_errors: Counter,
    spawn: impl Fn(Box<dyn FnOnce() + Send>) -> io::Result<()>,
) {
    for stream in incoming {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            accept_errors.inc();
            thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        let stream = Arc::new(stream);
        let (conn, conductor, stop) = (
            Arc::clone(&stream),
            Arc::clone(&conductor),
            Arc::clone(&stop),
        );
        if let Err(e) = spawn(Box::new(move || connection(&conn, &conductor, &stop))) {
            refused.inc();
            let _ = Response::Error {
                code: ErrorCode::Internal,
                message: format!("server could not start a connection thread: {e}"),
            }
            .write_to(&mut &*stream, 0);
        }
    }
}

impl Server {
    /// The bound address (with the real port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared conductor (for in-process inspection in tests/benches).
    pub fn conductor(&self) -> &Arc<Conductor> {
        &self.conductor
    }

    /// Stop accepting, drain the accept thread, close every session.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Nudge the blocking accept() awake so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.conductor.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One connection: read frames, dispatch against the conductor, write
/// replies. Exits on client close, malformed traffic, or server shutdown.
fn connection(stream: &TcpStream, conductor: &Conductor, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let _ = stream.set_nodelay(true);
    let (reader, mut writer) = (stream, stream);
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Poll for the next frame without committing to a blocking read,
        // so shutdown is observed between frames.
        let mut probe = [0u8; 1];
        match reader.peek(&mut probe) {
            Ok(0) => return, // client closed cleanly
            Ok(_) => {}
            Err(e) if is_timeout(&e) => continue,
            Err(_) => return,
        }
        // A frame has started: pauses are tolerated up to its deadline.
        let mut frame = FrameReader {
            stream: reader,
            deadline: Instant::now() + FRAME_DEADLINE,
        };
        let message = match Request::read_from(&mut frame) {
            Ok(Some((corr, req))) => {
                // `write_frame` refuses a reply over the frame cap before a
                // byte of it leaves, so an error reply keeps the stream in step.
                let sent = respond(conductor, req)
                    .write_to(&mut writer, corr)
                    .or_else(|e| match e.kind() {
                        io::ErrorKind::InvalidInput => Response::Error {
                            code: ErrorCode::Capacity,
                            message: format!("reply refused: {e}"),
                        }
                        .write_to(&mut writer, corr),
                        _ => Err(e),
                    });
                if sent.is_err() {
                    return;
                }
                continue;
            }
            Ok(None) => return,
            Err(e @ (ProtoError::Oversized { .. } | ProtoError::Version { .. })) => e.to_string(),
            Err(ProtoError::Io(_)) if frame.expired() => {
                format!("request frame not completed within the {FRAME_DEADLINE:?} deadline")
            }
            Err(_) => return,
        };
        // Tell the peer why before hanging up; resync is hopeless. The
        // failed frame's correlation id was never read (a v1 frame has
        // none), so reply with 0 — the pinned contract is "one final error
        // frame, never silence", not id association.
        let _ = Response::Error {
            code: ErrorCode::Internal,
            message,
        }
        .write_to(&mut writer, 0);
        return;
    }
}

fn parse_error(e: impl std::fmt::Display) -> Response {
    Response::Error {
        code: ErrorCode::Parse,
        message: e.to_string(),
    }
}

/// Route one request to the conductor and shape the reply. Total: every
/// failure becomes a [`Response::Error`], never a dropped connection.
fn respond(conductor: &Conductor, req: Request) -> Response {
    fn routed(
        conductor: &Conductor,
        session: u64,
        f: impl FnOnce(SessionHandle) -> Result<Response, ServeError>,
    ) -> Response {
        match conductor.route(session).and_then(f) {
            Ok(resp) => resp,
            Err(e) => Response::from_serve_error(&e),
        }
    }

    match req {
        Request::Open { sigma } => match ConstraintSet::parse(&sigma) {
            Err(e) => parse_error(e),
            Ok(set) => match conductor.open(set) {
                Ok(session) => Response::Opened { session },
                Err(e) => Response::from_serve_error(&e),
            },
        },
        Request::Apply { session, facts } => match parse_facts(&facts) {
            Err(e) => parse_error(e),
            Ok(batch) => routed(conductor, session, |h| {
                h.apply(batch).map(|outcome| Response::Applied { outcome })
            }),
        },
        Request::Query { session, cq, opts } => match ConjunctiveQuery::parse(&cq) {
            Err(e) => parse_error(e),
            Ok(q) => routed(conductor, session, |h| {
                h.query(&q, opts).map(|answers| Response::Answers {
                    tuples: answers
                        .into_iter()
                        .map(|t| t.into_iter().map(|term| term.to_string()).collect())
                        .collect(),
                })
            }),
        },
        Request::Snapshot { session } => routed(conductor, session, |h| {
            h.snapshot()
                .map(|snapshot| Response::Snapshotted { snapshot })
        }),
        Request::Restore { session, snapshot } => routed(conductor, session, |h| {
            h.restore(snapshot).map(|()| Response::Restored)
        }),
        Request::Stats { session } => routed(conductor, session, |h| {
            h.stats().map(|stats| Response::Stats { stats })
        }),
        Request::Dump { session } => routed(conductor, session, |h| {
            h.dump().map(|text| Response::Dump { text })
        }),
        Request::Close { session } => match conductor.close(session) {
            Ok(()) => Response::Closed,
            Err(e) => Response::from_serve_error(&e),
        },
        Request::Metrics => Response::Metrics {
            text: conductor.metrics_text(),
        },
        Request::Persist { session } => routed(conductor, session, |h| {
            h.persist().map(|epoch| Response::Persisted { epoch })
        }),
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// What a [`Client`] call can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The transport or codec failed (disconnect, malformed frame, ...).
    Proto(ProtoError),
    /// The server answered with a protocol-level error.
    Server {
        /// Machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response the request does not admit —
    /// a peer bug, not a user error.
    Unexpected {
        /// Debug rendering of the response received.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server { message, .. } => write!(f, "server error: {message}"),
            ClientError::Unexpected { got } => write!(f, "unexpected response: {got}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Proto(ProtoError::from(e))
    }
}

/// A thin, blocking protocol client over one TCP connection: each method
/// writes one request frame and decodes the one reply frame. All chase
/// interpretation stays server-side; the client only moves text and
/// counters. [`Client::pipeline`] keeps a whole batch of requests in
/// flight before reading any reply.
pub struct Client {
    stream: TcpStream,
    next_corr: u64,
}

impl Client {
    /// Connect to a session server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_corr: 1,
        })
    }

    fn fresh_corr(&mut self) -> u64 {
        let corr = self.next_corr;
        self.next_corr = self.next_corr.wrapping_add(1);
        corr
    }

    /// One request/reply round trip; [`Response::Error`] is mapped into
    /// [`ClientError::Server`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let corr = self.fresh_corr();
        req.write_to(&mut self.stream, corr)?;
        self.stream.flush()?;
        match Response::read_from(&mut self.stream)? {
            None => Err(ClientError::Proto(ProtoError::Truncated)),
            Some((echo, _)) if echo != corr => Err(ClientError::Unexpected {
                got: format!("correlation id {echo} in reply to request {corr}"),
            }),
            Some((_, Response::Error { code, message })) => {
                Err(ClientError::Server { code, message })
            }
            Some((_, resp)) => Ok(resp),
        }
    }

    /// Write every request before reading any reply, then associate the
    /// replies to their requests by correlation id. The outer `Err` is a
    /// connection-level failure (nothing more can be read); the inner
    /// per-request results map [`Response::Error`] to
    /// [`ClientError::Server`] exactly like [`Client::call`]. Results come
    /// back in **request order** regardless of the order replies arrived.
    pub fn pipeline(
        &mut self,
        reqs: &[Request],
    ) -> Result<Vec<Result<Response, ClientError>>, ClientError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_corr;
        // Frame the whole batch before sending any of it, so a request over
        // the frame cap is refused without leaving replies unread.
        let mut frames = Vec::new();
        for req in reqs {
            let corr = self.fresh_corr();
            req.write_to(&mut frames, corr)?;
        }
        self.stream.write_all(&frames)?;
        self.stream.flush()?;
        let mut slots: Vec<Option<Result<Response, ClientError>>> =
            (0..reqs.len()).map(|_| None).collect();
        for _ in 0..reqs.len() {
            let (corr, resp) = Response::read_from(&mut self.stream)?
                .ok_or(ClientError::Proto(ProtoError::Truncated))?;
            let idx = corr.wrapping_sub(base);
            let slot = usize::try_from(idx)
                .ok()
                .and_then(|i| slots.get_mut(i))
                .ok_or_else(|| ClientError::Unexpected {
                    got: format!("correlation id {corr} outside pipelined batch"),
                })?;
            if slot.is_some() {
                return Err(ClientError::Unexpected {
                    got: format!("duplicate reply for correlation id {corr}"),
                });
            }
            *slot = Some(match resp {
                Response::Error { code, message } => Err(ClientError::Server { code, message }),
                resp => Ok(resp),
            });
        }
        // Every slot is filled: n distinct in-range ids over n slots.
        Ok(slots.into_iter().map(|s| s.unwrap()).collect())
    }

    /// Open a session over a constraint set in surface syntax (`;` or
    /// newline separated); returns the session id.
    pub fn open(&mut self, sigma: &str) -> Result<u64, ClientError> {
        match self.call(&Request::Open {
            sigma: sigma.into(),
        })? {
            Response::Opened { session } => Ok(session),
            other => Err(unexpected(other)),
        }
    }

    /// Apply a batch of facts in surface syntax (e.g. `e(a,b). e(b,c).`).
    pub fn apply(&mut self, session: u64, facts: &str) -> Result<ChaseOutcome, ClientError> {
        match self.call(&Request::Apply {
            session,
            facts: facts.into(),
        })? {
            Response::Applied { outcome } => Ok(outcome),
            other => Err(unexpected(other)),
        }
    }

    /// Answer a conjunctive query; each tuple's terms come back in
    /// surface syntax.
    pub fn query(
        &mut self,
        session: u64,
        cq: &str,
        opts: QueryOpts,
    ) -> Result<Vec<Vec<String>>, ClientError> {
        match self.call(&Request::Query {
            session,
            cq: cq.into(),
            opts,
        })? {
            Response::Answers { tuples } => Ok(tuples),
            other => Err(unexpected(other)),
        }
    }

    /// Take a server-side snapshot; returns its id.
    pub fn snapshot(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Snapshot { session })? {
            Response::Snapshotted { snapshot } => Ok(snapshot),
            other => Err(unexpected(other)),
        }
    }

    /// Rewind the session to a snapshot id.
    pub fn restore(&mut self, session: u64, snapshot: u64) -> Result<(), ClientError> {
        match self.call(&Request::Restore { session, snapshot })? {
            Response::Restored => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the session's [`SessionStats`].
    pub fn stats(&mut self, session: u64) -> Result<SessionStats, ClientError> {
        match self.call(&Request::Stats { session })? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the chased instance as fact text.
    pub fn dump(&mut self, session: u64) -> Result<String, ClientError> {
        match self.call(&Request::Dump { session })? {
            Response::Dump { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Close the session, releasing its slot under the global cap.
    pub fn close(&mut self, session: u64) -> Result<(), ClientError> {
        match self.call(&Request::Close { session })? {
            Response::Closed => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the server-wide metrics exposition: Prometheus-style
    /// `name{label} value` text covering conductor gauges, apply/query
    /// latency histograms and every open session's engine phase timings.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(unexpected(other)),
        }
    }

    /// Force a durability point on a durable session (snapshot + WAL
    /// compaction); returns the epoch the on-disk state now covers. Errors
    /// with [`ErrorCode::Durability`] when the server has no durable root.
    pub fn persist(&mut self, session: u64) -> Result<u64, ClientError> {
        match self.call(&Request::Persist { session })? {
            Response::Persisted { epoch } => Ok(epoch),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(got: Response) -> ClientError {
    ClientError::Unexpected {
        got: format!("{got:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refused_connection_thread_is_answered_and_the_next_connection_served() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conductor = Arc::new(Conductor::new(ConductorConfig::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let refused = conductor.metrics().counter(M_CONNECTIONS_REFUSED);
        let accept_errors = conductor.metrics().counter(M_ACCEPT_ERRORS);
        let started = Instant::now();
        let accept = {
            let (conductor, stop) = (Arc::clone(&conductor), Arc::clone(&stop));
            thread::spawn(move || {
                // Three accepts fail first, as when the process is out of
                // file descriptors; then the first spawn fails as if the
                // OS were out of threads.
                let failed = (0..3).map(|_| Err(io::Error::other("injected accept failure")));
                let incoming = failed.chain(listener.incoming());
                let first = AtomicBool::new(true);
                accept_loop(incoming, conductor, stop, refused, accept_errors, |f| {
                    if first.swap(false, Ordering::SeqCst) {
                        Err(io::Error::other("injected spawn failure"))
                    } else {
                        thread::Builder::new().spawn(f).map(drop)
                    }
                })
            })
        };
        let mut turned_away = TcpStream::connect(addr).unwrap();
        let (corr, reply) = Response::read_from(&mut turned_away).unwrap().unwrap();
        assert_eq!(corr, 0);
        match reply {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("injected spawn failure"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert!(started.elapsed() >= 3 * ACCEPT_BACKOFF);
        assert_eq!(Response::read_from(&mut turned_away).unwrap(), None);
        let mut c = Client::connect(addr).unwrap();
        let s = c.open("S(X) -> T(X)").unwrap();
        assert_eq!(c.apply(s, "S(a).").unwrap().total_facts, 2);
        let metrics = conductor.metrics_text();
        assert!(metrics.contains("chase_accept_errors_total 3"));
        assert!(metrics.contains("chase_connections_refused_total 1"));
        drop(c);
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        accept.join().unwrap();
        conductor.shutdown();
    }

    #[test]
    fn loopback_session_lifecycle() {
        let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
        let metrics = server.conductor().metrics_text();
        assert!(metrics.contains("chase_connections_refused_total 0"));
        assert!(metrics.contains("chase_accept_errors_total 0"));
        let mut c = Client::connect(server.addr()).unwrap();
        let s = c.open("rail(X,Y,D) -> rail(Y,X,D)").unwrap();
        let out = c.apply(s, "rail(berlin,paris,d9).").unwrap();
        assert_eq!(out.total_facts, 2);
        let ans = c
            .query(s, "q(X) <- rail(X,paris,D)", QueryOpts::default())
            .unwrap();
        assert_eq!(ans, vec![vec!["berlin".to_string()]]);
        let snap = c.snapshot(s).unwrap();
        c.apply(s, "rail(paris,lyon,d2).").unwrap();
        assert_eq!(c.stats(s).unwrap().total_facts, 4);
        c.restore(s, snap).unwrap();
        assert_eq!(c.stats(s).unwrap().total_facts, 2);
        assert!(c.dump(s).unwrap().contains("rail(berlin,paris,d9)"));
        c.close(s).unwrap();
        let err = c.stats(s).unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        server.shutdown();
    }

    #[test]
    fn metrics_over_live_tcp_expose_phases_and_gauges() {
        let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let s = c
            .open("e(X,Y) -> e(Y,X); e(X,Y), e(Y,Z) -> e(X,Z)")
            .unwrap();
        c.apply(s, "e(a,b). e(b,c). e(c,d).").unwrap();
        c.query(s, "q(X) <- e(a,X)", QueryOpts::default()).unwrap();
        let text = c.metrics().unwrap();
        assert!(text.contains("chase_sessions_open 1"), "{text}");
        assert!(text.contains("chase_sessions_opened_total 1"), "{text}");
        // Per-stage latency made it across the wire with nonzero medians.
        let p50 = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
        };
        assert!(p50("chase_phase_ns_p50_ns{phase=\"insert\"} ") > 0);
        assert!(p50("chase_phase_ns_p99_ns{phase=\"insert\"} ") > 0);
        assert!(p50("chase_apply_ns_p50_ns ") > 0);
        server.shutdown();
    }

    #[test]
    fn sessions_survive_reconnects() {
        let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
        let s = {
            let mut c = Client::connect(server.addr()).unwrap();
            let s = c.open("e(X,Y) -> e(Y,X)").unwrap();
            c.apply(s, "e(a,b).").unwrap();
            s
        }; // connection dropped here
        let mut c2 = Client::connect(server.addr()).unwrap();
        assert_eq!(c2.stats(s).unwrap().total_facts, 2);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_request_order() {
        let server = serve("127.0.0.1:0", ConductorConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let s = c.open("e(X,Y) -> e(Y,X)").unwrap();
        let reqs = vec![
            Request::Apply {
                session: s,
                facts: "e(a,b).".into(),
            },
            Request::Query {
                session: s,
                cq: "q(X) <- e(b,X)".into(),
                opts: QueryOpts::default(),
            },
            Request::Stats { session: s },
            Request::Apply {
                session: s,
                facts: "e(X,".into(), // parse error mid-batch
            },
            Request::Stats { session: s },
        ];
        let replies = c.pipeline(&reqs).unwrap();
        assert_eq!(replies.len(), 5);
        assert!(matches!(replies[0], Ok(Response::Applied { .. })));
        // Read-your-writes under pipelining: the query queued behind the
        // apply on the same connection sees the applied batch.
        match &replies[1] {
            Ok(Response::Answers { tuples }) => {
                assert_eq!(tuples, &vec![vec!["a".to_string()]]);
            }
            other => panic!("unexpected reply: {other:?}"),
        }
        assert!(matches!(
            replies[2],
            Ok(Response::Stats { ref stats }) if stats.total_facts == 2
        ));
        assert!(matches!(
            replies[3],
            Err(ClientError::Server {
                code: ErrorCode::Parse,
                ..
            })
        ));
        // The error did not desynchronize the stream.
        assert!(matches!(replies[4], Ok(Response::Stats { .. })));
        // And the connection is still usable for plain calls afterwards.
        assert_eq!(c.stats(s).unwrap().total_facts, 2);
        server.shutdown();
    }

    #[test]
    fn server_surfaces_parse_and_capacity_errors() {
        let server = serve(
            "127.0.0.1:0",
            ConductorConfig {
                max_sessions: 1,
                ..ConductorConfig::default()
            },
        )
        .unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        let err = c.open("this is not sigma").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Parse,
                ..
            }
        ));
        let s = c.open("e(X,Y) -> e(Y,X)").unwrap();
        let err = c.open("e(X,Y) -> e(Y,X)").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: ErrorCode::Capacity,
                ..
            }
        ));
        // Bad facts and bad queries come back as Parse, session unharmed.
        assert!(c.apply(s, "e(X,").is_err());
        assert!(c.query(s, "nonsense", QueryOpts::default()).is_err());
        assert_eq!(c.stats(s).unwrap().epoch, 0);
        server.shutdown();
    }
}
