//! The session server's wire protocol: versioned request/response enums
//! over length-prefixed frames, written in [`chase_core::bytes`]'s grammar.
//!
//! ## Framing
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+---------+----------------+-----+------------------+
//! | u32 LE length  | version | u64 LE corr id | tag | fields ...       |
//! +----------------+---------+----------------+-----+------------------+
//!        4 bytes      1 byte       8 bytes     1 byte  length - 10 bytes
//! ```
//!
//! The length counts the payload only (version byte onward) and is capped
//! at [`MAX_FRAME`]; a peer announcing more is rejected *before* any
//! allocation. Truncated frames, unknown versions or tags, bad UTF-8 and
//! trailing bytes all surface as [`ProtoError`] values — decoding never
//! panics, whatever the bytes.
//!
//! ## Correlation and pipelining
//!
//! Since version 2 every frame carries a **u64 correlation id** between
//! the version byte and the tag. The server echoes a request's id on its
//! reply verbatim, so a client may keep any number of requests in flight
//! on one connection and associate replies by id instead of by arrival
//! order (the `Client::pipeline` batch API does exactly that). The server
//! still processes one connection's requests strictly in order — the id
//! adds association, not reordering. A version-1 peer (no correlation
//! field) is answered with one final error frame and a hangup, never
//! silence: its version byte fails the check below and the server replies
//! before closing.
//!
//! ## Encoding
//!
//! Frames and fields are [`chase_core::bytes`]'s grammar, the one
//! definition shared with the WAL and the snapshots: `u32` lengths and
//! counts, `u64` ids and counters, one-byte booleans, `str` strings.
//! Structured chase payloads — constraint sets, fact batches, conjunctive
//! queries, answer terms — are carried as *text* in the workspace's own
//! surface syntax and re-parsed server-side, so the protocol inherits the
//! parsers' validation instead of duplicating it.
//! One-line constraint sets use the `;` separator (see
//! [`chase_core::ConstraintSet::parse`]); no escaping is required.
//!
//! Counter payloads ([`SessionStats`], [`ChaseOutcome`]) are encoded
//! field-for-field, so the `Stats` response *is* the session API's
//! [`SessionStats`] — one struct, printed identically by the REPL client,
//! the server log and the load-generator bench.

use std::fmt;
use std::io::{self, Read, Write};

use chase_core::bytes::{DecodeError, Reader, Writer};
use chase_engine::StopReason;

use crate::session::{ChaseOutcome, QueryOpts, ServeError, SessionStats};

/// Protocol version carried in every frame. Bumped on any incompatible
/// change to the codec; a server rejects frames from a different version
/// with [`ProtoError::Version`]. Version 2 added the u64 correlation id
/// after the version byte.
pub const PROTO_VERSION: u8 = 2;

/// Hard cap on a frame's payload length (16 MiB). A declared length above
/// this is rejected before any buffer is allocated, so a hostile or
/// corrupt peer cannot drive allocation with a 4-byte header.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Everything that can go wrong reading or decoding a frame. Decoding is
/// total: malformed input yields one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended mid-frame (inside the length prefix or payload).
    Truncated,
    /// The payload ran out while a field still needed bytes.
    Short,
    /// The frame announced a payload longer than [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The frame's version byte is not [`PROTO_VERSION`].
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The message tag byte is not one this version defines.
    Tag {
        /// The tag byte received.
        got: u8,
    },
    /// A string field was not valid UTF-8.
    Utf8,
    /// The payload decoded cleanly but bytes were left over.
    Trailing {
        /// How many bytes remained.
        extra: usize,
    },
    /// The transport failed (stringified [`io::Error`], kept comparable).
    Io(String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "stream ended mid-frame"),
            ProtoError::Short => write!(f, "frame payload too short for its fields"),
            ProtoError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {MAX_FRAME}")
            }
            ProtoError::Version { got } => {
                write!(
                    f,
                    "protocol version {got} (this build speaks {PROTO_VERSION})"
                )
            }
            ProtoError::Tag { got } => write!(f, "unknown message tag {got}"),
            ProtoError::Utf8 => write!(f, "string field is not valid UTF-8"),
            ProtoError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            ProtoError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        match e {
            DecodeError::Short => ProtoError::Short,
            DecodeError::Bool(got) => ProtoError::Tag { got },
            DecodeError::Utf8 => ProtoError::Utf8,
            DecodeError::Trailing(extra) => ProtoError::Trailing { extra },
        }
    }
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtoError::Truncated
        } else {
            ProtoError::Io(e.to_string())
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame: `u32` LE payload length, then the payload bytes.
///
/// The frame goes to `w` in one write, so on an unbuffered `TCP_NODELAY`
/// socket it leaves as one segment, not a 4-byte one and then the rest.
///
/// A payload over [`MAX_FRAME`] is refused with
/// [`io::ErrorKind::InvalidInput`] before a byte reaches `w`, so the
/// stream stays in step and the caller can still answer on it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Writer(Vec::with_capacity(4 + payload.len()));
    frame.frame(payload, MAX_FRAME)?;
    w.write_all(&frame.0)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` means the peer closed the stream
/// cleanly *between* frames; EOF anywhere inside a frame is
/// [`ProtoError::Truncated`]. An oversized declared length is rejected
/// without allocating, and an accepted one is never trusted up front: the
/// buffer grows with the bytes that actually arrive.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut prefix = Vec::with_capacity(4);
    r.take(4).read_to_end(&mut prefix)?;
    match prefix.len() {
        0 => return Ok(None),
        4 => {}
        _ => return Err(ProtoError::Truncated),
    }
    let len = Reader::new(&prefix).u32()?;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized { len });
    }
    let mut payload = Vec::new();
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(ProtoError::Truncated);
    }
    Ok(Some(payload))
}

/// The header every payload opens with: version byte, correlation id, tag.
trait FrameHeader {
    fn new(tag: u8, corr: u64) -> Self;
}

impl FrameHeader for Writer {
    fn new(tag: u8, corr: u64) -> Writer {
        let mut w = Writer(vec![PROTO_VERSION]);
        w.u64(corr);
        w.u8(tag);
        w
    }
}

/// A whole payload: the header, then what `fields` writes.
fn payload(tag: u8, corr: u64, fields: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new(tag, corr);
    fields(&mut w);
    w.0
}

/// Open a payload: check the version byte, then yield the correlation id,
/// the tag and a cursor over the fields.
fn open(payload: &[u8]) -> Result<(u64, u8, Reader<'_>), ProtoError> {
    let mut r = Reader::new(payload);
    let version = r.u8()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Version { got: version });
    }
    let corr = r.u64()?;
    let tag = r.u8()?;
    Ok((corr, tag, r))
}

// ---------------------------------------------------------------------------
// Shared sub-codecs
// ---------------------------------------------------------------------------

fn put_reason(w: &mut Writer, r: &StopReason) {
    match r {
        StopReason::Satisfied => w.u8(0),
        StopReason::Failed => w.u8(1),
        StopReason::StepLimit(n) => {
            w.u8(2);
            w.u64(*n as u64);
        }
        StopReason::NullLimit(n) => {
            w.u8(3);
            w.u64(*n as u64);
        }
        StopReason::MonitorAbort { depth } => {
            w.u8(4);
            w.u64(*depth as u64);
        }
    }
}

fn get_reason(r: &mut Reader<'_>) -> Result<StopReason, ProtoError> {
    Ok(match r.u8()? {
        0 => StopReason::Satisfied,
        1 => StopReason::Failed,
        2 => StopReason::StepLimit(r.u64()? as usize),
        3 => StopReason::NullLimit(r.u64()? as usize),
        4 => StopReason::MonitorAbort {
            depth: r.u64()? as usize,
        },
        got => return Err(ProtoError::Tag { got }),
    })
}

fn put_outcome(w: &mut Writer, o: &ChaseOutcome) {
    put_reason(w, &o.reason);
    w.u64(o.steps as u64);
    w.u64(o.fresh_nulls as u64);
    w.u64(o.new_facts as u64);
    w.u64(o.total_facts as u64);
    w.u64(o.epoch);
}

fn get_outcome(r: &mut Reader<'_>) -> Result<ChaseOutcome, ProtoError> {
    Ok(ChaseOutcome {
        reason: get_reason(r)?,
        steps: r.u64()? as usize,
        fresh_nulls: r.u64()? as usize,
        new_facts: r.u64()? as usize,
        total_facts: r.u64()? as usize,
        epoch: r.u64()?,
    })
}

fn put_stats(w: &mut Writer, s: &SessionStats) {
    w.u64(s.epoch);
    w.u64(s.total_facts);
    w.u64(s.total_steps);
    w.u64(s.plan_recompiles);
    w.u64(s.merge_rewritten);
    w.u64(s.merge_collapsed);
    w.bool(s.last_reason.is_some());
    if let Some(reason) = &s.last_reason {
        put_reason(w, reason);
    }
    w.bool(s.quiescent);
}

fn get_stats(r: &mut Reader<'_>) -> Result<SessionStats, ProtoError> {
    Ok(SessionStats {
        epoch: r.u64()?,
        total_facts: r.u64()?,
        total_steps: r.u64()?,
        plan_recompiles: r.u64()?,
        merge_rewritten: r.u64()?,
        merge_collapsed: r.u64()?,
        last_reason: match r.bool()? {
            true => Some(get_reason(r)?),
            false => None,
        },
        quiescent: r.bool()?,
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A client-to-server message. Session-addressed variants carry the id the
/// conductor handed back from [`Request::Open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Create a session over a constraint set (surface syntax; `;` or
    /// newline separated). Answered by [`Response::Opened`] or an error if
    /// the sigma fails to parse or the global session cap is reached.
    Open {
        /// The constraint set, in surface syntax.
        sigma: String,
    },
    /// Apply an update batch of ground facts (surface syntax, e.g.
    /// `e(a,b). e(b,c).`) and continue the chase warm.
    Apply {
        /// The target session.
        session: u64,
        /// The batch, in fact surface syntax.
        facts: String,
    },
    /// Answer a conjunctive query, e.g. `q(X) <- e(X,Y), e(Y,Z)`.
    /// Concurrent-safe: served from the session's published snapshot, so
    /// it does not wait behind an in-flight apply.
    Query {
        /// The target session.
        session: u64,
        /// The query, in surface syntax.
        cq: String,
        /// Evaluation options (certain vs. all, SQO routing).
        opts: QueryOpts,
    },
    /// Take a server-side snapshot; answered with its id for `Restore`.
    Snapshot {
        /// The target session.
        session: u64,
    },
    /// Rewind the session to a snapshot taken earlier on it.
    Restore {
        /// The target session.
        session: u64,
        /// The snapshot id from [`Response::Snapshotted`].
        snapshot: u64,
    },
    /// Fetch the session's [`SessionStats`].
    Stats {
        /// The target session.
        session: u64,
    },
    /// Fetch the chased instance as text (the REPL's `show`).
    Dump {
        /// The target session.
        session: u64,
    },
    /// Close the session and release its slot under the global cap.
    Close {
        /// The target session.
        session: u64,
    },
    /// Fetch the server-wide metrics exposition (not session-addressed):
    /// conductor gauges, apply/query latency histograms and every open
    /// session's engine phase timings, as Prometheus-style text.
    Metrics,
    /// Force a durability point on a durable session: snapshot + WAL
    /// compaction (the REPL's `\persist`). Errors with
    /// [`ErrorCode::Durability`] on a server without a durable root.
    Persist {
        /// The target session.
        session: u64,
    },
}

impl Request {
    /// Encode into a frame payload (version byte + correlation id + tag +
    /// fields). The server echoes `corr` on the reply.
    pub fn encode(&self, corr: u64) -> Vec<u8> {
        match self {
            Request::Open { sigma } => payload(1, corr, |w| w.str(sigma)),
            Request::Apply { session, facts } => payload(2, corr, |w| {
                w.u64(*session);
                w.str(facts);
            }),
            Request::Query { session, cq, opts } => payload(3, corr, |w| {
                w.u64(*session);
                w.str(cq);
                w.bool(opts.all);
                w.bool(opts.sqo);
            }),
            Request::Snapshot { session } => payload(4, corr, |w| w.u64(*session)),
            Request::Restore { session, snapshot } => payload(5, corr, |w| {
                w.u64(*session);
                w.u64(*snapshot);
            }),
            Request::Stats { session } => payload(6, corr, |w| w.u64(*session)),
            Request::Dump { session } => payload(7, corr, |w| w.u64(*session)),
            Request::Close { session } => payload(8, corr, |w| w.u64(*session)),
            Request::Metrics => payload(9, corr, |_| {}),
            Request::Persist { session } => payload(10, corr, |w| w.u64(*session)),
        }
    }

    /// Decode a frame payload into its correlation id and request. Total:
    /// malformed bytes yield a [`ProtoError`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), ProtoError> {
        let (corr, tag, mut r) = open(payload)?;
        let req = match tag {
            1 => Request::Open {
                sigma: r.str()?.into(),
            },
            2 => Request::Apply {
                session: r.u64()?,
                facts: r.str()?.into(),
            },
            3 => Request::Query {
                session: r.u64()?,
                cq: r.str()?.into(),
                opts: QueryOpts {
                    all: r.bool()?,
                    sqo: r.bool()?,
                },
            },
            4 => Request::Snapshot { session: r.u64()? },
            5 => Request::Restore {
                session: r.u64()?,
                snapshot: r.u64()?,
            },
            6 => Request::Stats { session: r.u64()? },
            7 => Request::Dump { session: r.u64()? },
            8 => Request::Close { session: r.u64()? },
            9 => Request::Metrics,
            10 => Request::Persist { session: r.u64()? },
            got => return Err(ProtoError::Tag { got }),
        };
        r.finish()?;
        Ok((corr, req))
    }

    /// Write this request as one frame carrying `corr`.
    pub fn write_to(&self, w: &mut impl Write, corr: u64) -> io::Result<()> {
        write_frame(w, &self.encode(corr))
    }

    /// Read one request frame; `Ok(None)` on clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<(u64, Request)>, ProtoError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(payload) => Request::decode(&payload).map(Some),
        }
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Coarse classification of a server-side failure, carried on the wire
/// (as the discriminant byte) alongside the human-readable message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// A sigma, fact batch or query failed to parse.
    Parse = 0,
    /// The session hit a terminal stop earlier ([`ServeError::Poisoned`]).
    Poisoned = 1,
    /// A cap is reached: the global session cap ([`ServeError::Capacity`]),
    /// a session's snapshot cap ([`ServeError::SnapshotCapacity`]), or the
    /// frame cap: a reply over [`MAX_FRAME`] is refused whole, and the
    /// connection stays open.
    Capacity = 2,
    /// No such session id ([`ServeError::UnknownSession`]).
    UnknownSession = 3,
    /// No such snapshot id ([`ServeError::UnknownSnapshot`]).
    UnknownSnapshot = 4,
    /// The session is gone ([`ServeError::SessionGone`]).
    SessionGone = 5,
    /// Anything else (core rejection, a session template whose strategy
    /// the sigma cannot run, internal failure).
    Internal = 6,
    /// A durability operation failed ([`ServeError::Durability`]): the
    /// write-ahead log or a snapshot could not be read or written, or the
    /// session/server is not durable at all.
    Durability = 7,
    /// The session idled past the server's TTL and, being non-durable, was
    /// discarded ([`ServeError::Evicted`]). Durable sessions never surface
    /// this — they warm-restart transparently on the next touch.
    Evicted = 8,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, ProtoError> {
        Ok(match v {
            0 => ErrorCode::Parse,
            1 => ErrorCode::Poisoned,
            2 => ErrorCode::Capacity,
            3 => ErrorCode::UnknownSession,
            4 => ErrorCode::UnknownSnapshot,
            5 => ErrorCode::SessionGone,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Durability,
            8 => ErrorCode::Evicted,
            got => return Err(ProtoError::Tag { got }),
        })
    }
}

impl From<&ServeError> for ErrorCode {
    fn from(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::Poisoned(_) => ErrorCode::Poisoned,
            ServeError::Core(_) | ServeError::StrategyOutOfRange { .. } => ErrorCode::Internal,
            ServeError::Capacity { .. } | ServeError::SnapshotCapacity { .. } => {
                ErrorCode::Capacity
            }
            ServeError::UnknownSession(_) => ErrorCode::UnknownSession,
            ServeError::UnknownSnapshot(_) => ErrorCode::UnknownSnapshot,
            ServeError::SessionGone => ErrorCode::SessionGone,
            ServeError::Durability(_) => ErrorCode::Durability,
            ServeError::Evicted(_) => ErrorCode::Evicted,
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session was created; address it with this id.
    Opened {
        /// The new session's id.
        session: u64,
    },
    /// The batch was applied; what the warm re-chase did.
    Applied {
        /// The apply's [`ChaseOutcome`], field-for-field.
        outcome: ChaseOutcome,
    },
    /// The query's answer tuples, each term in surface syntax.
    Answers {
        /// One `Vec<String>` per answer tuple.
        tuples: Vec<Vec<String>>,
    },
    /// A snapshot was taken server-side.
    Snapshotted {
        /// Its id, for [`Request::Restore`].
        snapshot: u64,
    },
    /// The session was rewound to the addressed snapshot.
    Restored,
    /// The session's counters, *verbatim* [`SessionStats`].
    Stats {
        /// The stats struct the session API returns.
        stats: SessionStats,
    },
    /// The chased instance as text.
    Dump {
        /// Facts in surface syntax, one per line.
        text: String,
    },
    /// The session was closed and its slot released.
    Closed,
    /// The server-wide metrics exposition.
    Metrics {
        /// Prometheus-style `name{label} value` lines, one per metric.
        text: String,
    },
    /// A durability point was taken ([`Request::Persist`]).
    Persisted {
        /// The epoch the on-disk state now covers.
        epoch: u64,
    },
    /// The request failed; the session (if any) is otherwise unharmed
    /// unless the code says poisoned.
    Error {
        /// Coarse machine-readable classification.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Build the error response for a [`ServeError`].
    pub fn from_serve_error(e: &ServeError) -> Response {
        Response::Error {
            code: ErrorCode::from(e),
            message: e.to_string(),
        }
    }

    /// Encode into a frame payload (version byte + correlation id + tag +
    /// fields). `corr` echoes the request this answers.
    pub fn encode(&self, corr: u64) -> Vec<u8> {
        match self {
            Response::Opened { session } => payload(1, corr, |w| w.u64(*session)),
            Response::Applied { outcome } => payload(2, corr, |w| put_outcome(w, outcome)),
            Response::Answers { tuples } => payload(3, corr, |w| {
                w.u32(tuples.len() as u32);
                for t in tuples {
                    w.u32(t.len() as u32);
                    for term in t {
                        w.str(term);
                    }
                }
            }),
            Response::Snapshotted { snapshot } => payload(4, corr, |w| w.u64(*snapshot)),
            Response::Restored => payload(5, corr, |_| {}),
            Response::Stats { stats } => payload(6, corr, |w| put_stats(w, stats)),
            Response::Dump { text } => payload(7, corr, |w| w.str(text)),
            Response::Closed => payload(8, corr, |_| {}),
            Response::Error { code, message } => payload(9, corr, |w| {
                w.u8(*code as u8);
                w.str(message);
            }),
            Response::Metrics { text } => payload(10, corr, |w| w.str(text)),
            Response::Persisted { epoch } => payload(11, corr, |w| w.u64(*epoch)),
        }
    }

    /// Decode a frame payload into its correlation id and response. Total:
    /// malformed bytes yield a [`ProtoError`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), ProtoError> {
        let (corr, tag, mut r) = open(payload)?;
        let resp = match tag {
            1 => Response::Opened { session: r.u64()? },
            2 => Response::Applied {
                outcome: get_outcome(&mut r)?,
            },
            3 => {
                let tuple = |r: &mut Reader<'_>| -> Result<Vec<String>, ProtoError> {
                    (0..r.u32()?).map(|_| Ok(r.str()?.into())).collect()
                };
                let tuples = (0..r.u32()?).map(|_| tuple(&mut r));
                Response::Answers {
                    tuples: tuples.collect::<Result<_, _>>()?,
                }
            }
            4 => Response::Snapshotted { snapshot: r.u64()? },
            5 => Response::Restored,
            6 => Response::Stats {
                stats: get_stats(&mut r)?,
            },
            7 => Response::Dump {
                text: r.str()?.into(),
            },
            8 => Response::Closed,
            9 => Response::Error {
                code: ErrorCode::from_u8(r.u8()?)?,
                message: r.str()?.into(),
            },
            10 => Response::Metrics {
                text: r.str()?.into(),
            },
            11 => Response::Persisted { epoch: r.u64()? },
            got => return Err(ProtoError::Tag { got }),
        };
        r.finish()?;
        Ok((corr, resp))
    }

    /// Write this response as one frame echoing `corr`.
    pub fn write_to(&self, w: &mut impl Write, corr: u64) -> io::Result<()> {
        write_frame(w, &self.encode(corr))
    }

    /// Read one response frame; `Ok(None)` on clean end-of-stream.
    pub fn read_from(r: &mut impl Read) -> Result<Option<(u64, Response)>, ProtoError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(payload) => Response::decode(&payload).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let corr = 0xDEAD_BEEF_CAFE_F00D ^ req.encode(0).len() as u64;
        let mut buf = Vec::new();
        req.write_to(&mut buf, corr).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (back_corr, back) = Request::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back_corr, corr);
        assert_eq!(back, req);
        assert!(Request::read_from(&mut cursor).unwrap().is_none());
    }

    fn roundtrip_resp(resp: Response) {
        let corr = u64::MAX - resp.encode(0).len() as u64;
        let mut buf = Vec::new();
        resp.write_to(&mut buf, corr).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let (back_corr, back) = Response::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back_corr, corr);
        assert_eq!(back, resp);
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        /// Records every `write` call a frame takes.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let req = Request::Apply {
            session: 3,
            facts: "S(a). E(a,b).".into(),
        };
        let resp = Response::Answers {
            tuples: vec![vec!["a".into(), "b".into()]],
        };
        fn writes(frame: impl FnOnce(&mut Writes) -> io::Result<()>) -> Vec<Vec<u8>> {
            let mut w = Writes::default();
            frame(&mut w).unwrap();
            w.0
        }
        for (written, payload) in [
            (writes(|w| req.write_to(w, 9)), req.encode(9)),
            (writes(|w| resp.write_to(w, 9)), resp.encode(9)),
        ] {
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend(payload);
            assert_eq!(written, vec![frame]);
        }
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Open {
            sigma: "e(X,Y) -> e(Y,X); e(X,Y), e(Y,Z) -> e(X,Z)".into(),
        });
        roundtrip_req(Request::Apply {
            session: 7,
            facts: "e(a,b). e(b,c).".into(),
        });
        roundtrip_req(Request::Query {
            session: 7,
            cq: "q(X) <- e(X,Y)".into(),
            opts: QueryOpts::all_tuples().without_sqo(),
        });
        roundtrip_req(Request::Snapshot { session: 1 });
        roundtrip_req(Request::Restore {
            session: 1,
            snapshot: 3,
        });
        roundtrip_req(Request::Stats { session: u64::MAX });
        roundtrip_req(Request::Dump { session: 0 });
        roundtrip_req(Request::Close { session: 2 });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Persist { session: 11 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Opened { session: 9 });
        roundtrip_resp(Response::Applied {
            outcome: ChaseOutcome {
                reason: StopReason::StepLimit(10_000),
                steps: 10_000,
                fresh_nulls: 3,
                new_facts: 42,
                total_facts: 99,
                epoch: 5,
            },
        });
        roundtrip_resp(Response::Answers {
            tuples: vec![vec!["a".into(), "b".into()], vec!["n_1".into()]],
        });
        roundtrip_resp(Response::Answers { tuples: vec![] });
        roundtrip_resp(Response::Snapshotted { snapshot: 4 });
        roundtrip_resp(Response::Restored);
        roundtrip_resp(Response::Stats {
            stats: SessionStats {
                epoch: 3,
                total_facts: 20,
                total_steps: 17,
                plan_recompiles: 2,
                merge_rewritten: 1,
                merge_collapsed: 0,
                last_reason: Some(StopReason::MonitorAbort { depth: 2 }),
                quiescent: false,
            },
        });
        roundtrip_resp(Response::Dump {
            text: "e(a,b).\ne(b,a).\n".into(),
        });
        roundtrip_resp(Response::Closed);
        roundtrip_resp(Response::Metrics {
            text: "chase_sessions_open 2\nchase_apply_ns_p50_ns 1500\n".into(),
        });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Capacity,
            message: "session cap reached (8 sessions)".into(),
        });
        roundtrip_resp(Response::Persisted { epoch: 17 });
        roundtrip_resp(Response::Error {
            code: ErrorCode::Durability,
            message: "durability: server has no durable root".into(),
        });
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        // EOF before any byte: clean end-of-stream.
        let mut empty = io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty).unwrap(), None);

        // EOF inside the length prefix.
        let mut partial = io::Cursor::new(vec![5u8, 0]);
        assert_eq!(read_frame(&mut partial).unwrap_err(), ProtoError::Truncated);

        // EOF inside the payload.
        let mut short = io::Cursor::new(vec![5, 0, 0, 0, 1, 2]);
        assert_eq!(read_frame(&mut short).unwrap_err(), ProtoError::Truncated);

        // Declared length over the cap: rejected before allocation.
        let mut huge = io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut huge).unwrap_err(),
            ProtoError::Oversized { len: MAX_FRAME + 1 }
        );
    }

    #[test]
    fn a_maximal_header_with_a_short_payload_is_truncated() {
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[PROTO_VERSION, 1, 2, 3]);
        let mut stream = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut stream).unwrap_err(), ProtoError::Truncated);
    }

    #[test]
    fn malformed_payloads_error_without_panicking() {
        assert_eq!(Request::decode(&[]).unwrap_err(), ProtoError::Short);
        // Version byte alone: the correlation id is missing.
        assert_eq!(
            Request::decode(&[PROTO_VERSION]).unwrap_err(),
            ProtoError::Short
        );
        assert_eq!(
            Request::decode(&[99, 1]).unwrap_err(),
            ProtoError::Version { got: 99 }
        );
        // Correlation id present but the tag is unknown.
        let mut bad_tag = vec![PROTO_VERSION];
        bad_tag.extend_from_slice(&7u64.to_le_bytes());
        bad_tag.push(200);
        assert_eq!(
            Request::decode(&bad_tag).unwrap_err(),
            ProtoError::Tag { got: 200 }
        );
        // Correlation id truncated mid-field.
        let mut short_corr = vec![PROTO_VERSION];
        short_corr.extend_from_slice(&[1, 2, 3]);
        assert_eq!(Request::decode(&short_corr).unwrap_err(), ProtoError::Short);
        // String length field claims more bytes than the payload holds.
        let mut w = Writer::new(1, 42);
        w.u32(1000);
        assert_eq!(Request::decode(&w.0).unwrap_err(), ProtoError::Short);
        // Bad UTF-8 in a string field.
        let mut w = Writer::new(1, 42);
        w.u32(2);
        w.0.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(Request::decode(&w.0).unwrap_err(), ProtoError::Utf8);
        // Trailing garbage after a complete message.
        let mut bytes = Request::Close { session: 1 }.encode(3);
        bytes.push(0);
        assert_eq!(
            Request::decode(&bytes).unwrap_err(),
            ProtoError::Trailing { extra: 1 }
        );
        // Responses too.
        let mut zero_tag = vec![PROTO_VERSION];
        zero_tag.extend_from_slice(&0u64.to_le_bytes());
        zero_tag.push(0);
        assert_eq!(
            Response::decode(&zero_tag).unwrap_err(),
            ProtoError::Tag { got: 0 }
        );
        let mut w = Writer::new(9, 0);
        w.u8(250);
        assert_eq!(
            Response::decode(&w.0).unwrap_err(),
            ProtoError::Tag { got: 250 }
        );
    }

    #[test]
    fn v1_frames_are_rejected_with_a_version_error() {
        // A hand-built version-1 frame (no correlation id): the old layout
        // was [version=1][tag][fields]. The decoder must answer with a
        // clean Version error rather than misparse the tag as corr bytes.
        let v1_payload = [1u8, 9, 0]; // v1 Metrics-shaped bytes
        assert_eq!(
            Request::decode(&v1_payload).unwrap_err(),
            ProtoError::Version { got: 1 }
        );
        assert_eq!(
            Response::decode(&v1_payload).unwrap_err(),
            ProtoError::Version { got: 1 }
        );
    }
}
