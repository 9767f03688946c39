//! Durable session storage: a write-ahead log of applied batches plus
//! periodic columnar snapshots.
//!
//! ## The WAL is the truth, snapshots are cache
//!
//! A durable [`crate::ChaseSession`] appends every update batch to an
//! append-only log *before* applying it (write-ahead ordering). Because
//! chase traces are deterministic — canonical trigger selection is pinned
//! bit-identical across every engine in this workspace — replaying the
//! logged batches through the ordinary warm-resume path reconstructs the
//! exact pre-crash instance, nulls, counters and all. Snapshots
//! ([`chase_core::Instance::to_snapshot_bytes`]) only exist so a reopen can
//! skip re-chasing history: load the newest valid snapshot, then replay
//! WAL-since-snapshot. Deleting every snapshot loses no data.
//!
//! ## WAL record grammar
//!
//! The log is a sequence of [`chase_core::bytes`] records, the same grammar
//! the wire protocol and the snapshots are written in:
//!
//! ```text
//! record  := u32 payload-length | seal(payload)   -- seal = payload | u32 CRC-32
//! payload := version (u8 = 1) | tag (u8 = 1, batch)
//!          | epoch (u64)                -- the epoch this batch becomes
//!          | text (str)                 -- facts in surface syntax
//! ```
//!
//! A session snapshot file is one `seal` of `"CSSN" | version (u8 = 1) |
//! epoch (u64) | instance snapshot (bytes)`.
//!
//! Batches travel as *text* in the workspace's fact surface syntax — the
//! same encoding the wire protocol uses — so the log inherits the parser's
//! validation and stays readable with `xxd`. Labeled nulls round-trip
//! (`_n3` parses back to null 3), and null ids are session-local, so text
//! is a stable on-disk encoding even though in-memory `Sym` ids are not.
//!
//! ## Torn-write rule
//!
//! On open, records are read until the first incomplete frame or checksum
//! mismatch; everything from that point is **truncated away**. This is
//! safe, not lossy: a torn tail can only be the record of a batch whose
//! apply was never acknowledged (appends complete — and fsync, per policy —
//! before the batch is applied and the reply released), so dropping it
//! re-creates a state the client was entitled to observe.
//!
//! ## Version byte policy
//!
//! Every record carries [`WAL_VERSION`]; a record with an unknown version
//! or tag is treated exactly like a corrupt record (truncate from there).
//! Snapshot files carry their own version ([`SESSION_SNAPSHOT_VERSION`]
//! wrapping the instance codec's version); an unreadable snapshot is
//! *skipped*, falling back to an older snapshot or to full WAL replay —
//! never an error, because snapshots are cache.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use chase_core::bytes::{unseal, Reader, Writer};
use chase_core::{ConstraintSet, Instance};
use chase_engine::{ChaseConfig, ChaseMode, Strategy};

use crate::session::SessionConfig;

/// Version byte carried in every WAL record.
pub const WAL_VERSION: u8 = 1;

/// Record tag: an applied update batch.
pub const WAL_TAG_BATCH: u8 = 1;

/// Version byte of the session snapshot container (wraps the instance
/// codec, which carries its own version).
pub const SESSION_SNAPSHOT_VERSION: u8 = 1;

/// Magic prefix of a session snapshot file.
const SESSION_SNAPSHOT_MAGIC: [u8; 4] = *b"CSSN";

/// Hard cap on a single WAL record's payload (mirrors the wire protocol's
/// frame cap): a corrupt length prefix cannot drive allocation.
const MAX_WAL_RECORD: u32 = 16 * 1024 * 1024;

/// File names inside a session's durability directory.
const WAL_FILE: &str = "wal.log";
const MANIFEST_FILE: &str = "MANIFEST";
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".csnp";

/// When a durable session calls `fsync` on its WAL.
///
/// The trade-off is the classic one: [`FsyncPolicy::EveryBatch`] bounds
/// loss to zero acknowledged batches at the cost of one disk flush per
/// apply; [`FsyncPolicy::Interval`] amortizes the flush over `n` appends
/// and accepts that a crash may drop up to `n - 1` *acknowledged* batches
/// (the torn-tail rule then rewinds to the last synced record boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch (the default): an acknowledged
    /// apply is durable.
    #[default]
    EveryBatch,
    /// `fsync` every `n` appends. `Interval(1)` behaves like `EveryBatch`;
    /// `Interval(0)` is treated as `Interval(1)`.
    Interval(u32),
}

/// Durability knobs for a session: fsync policy and snapshot compaction
/// thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// When WAL appends are flushed to disk.
    pub fsync: FsyncPolicy,
    /// Write a snapshot (and compact the WAL) after this many applied
    /// batches since the last snapshot. `0` disables the batch-count
    /// trigger.
    pub snapshot_every_batches: u32,
    /// Write a snapshot (and compact the WAL) once this many WAL bytes
    /// accumulated since the last snapshot. `0` disables the byte trigger.
    pub snapshot_every_bytes: u64,
    /// How many snapshot generations to keep on disk (at least 1). Older
    /// snapshot files are removed after a newer one lands.
    pub keep_snapshots: usize,
}

impl Default for DurabilityConfig {
    fn default() -> DurabilityConfig {
        DurabilityConfig {
            fsync: FsyncPolicy::EveryBatch,
            snapshot_every_batches: 64,
            snapshot_every_bytes: 1 << 20,
            keep_snapshots: 2,
        }
    }
}

/// Counters a durable session accumulates, surfaced through
/// [`crate::ChaseSession::durability`] and the `\metrics` exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// WAL records appended by this process (replay does not count).
    pub wal_appends: u64,
    /// Bytes appended to the WAL by this process.
    pub wal_bytes: u64,
    /// `fsync` calls issued on the WAL.
    pub wal_fsyncs: u64,
    /// WAL records replayed through the warm path when the session opened.
    pub replayed_records: u64,
    /// Torn/corrupt trailing bytes truncated from the WAL at open.
    pub truncated_bytes: u64,
    /// Did the open load a snapshot (warm start) rather than replay the
    /// full log?
    pub loaded_snapshot: bool,
    /// Snapshots written by this process (periodic compaction plus explicit
    /// `persist` calls).
    pub snapshots_written: u64,
    /// Snapshot writes that failed (the WAL still holds everything, so a
    /// failed snapshot costs replay time, not data).
    pub snapshot_errors: u64,
    /// The epoch covered by the newest on-disk snapshot (0 = none).
    pub snapshot_epoch: u64,
}

/// One decoded WAL record: the batch text that became `epoch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The session epoch this batch produced when first applied.
    pub epoch: u64,
    /// The batch, in fact surface syntax.
    pub batch: String,
}

/// The append-only log handle a durable session holds.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    /// Current file length — the append cursor.
    len: u64,
    appends_since_fsync: u32,
}

impl Wal {
    /// Open (or create) the WAL in `dir`, returning the handle, every valid
    /// record, and how many torn/corrupt trailing bytes were truncated.
    pub(crate) fn open(dir: &Path) -> io::Result<(Wal, Vec<WalRecord>, u64)> {
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = decode_records(&bytes);
        let truncated = bytes.len() as u64 - valid_len;
        if truncated > 0 {
            file.set_len(valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok((
            Wal {
                file,
                len: valid_len,
                appends_since_fsync: 0,
            },
            records,
            truncated,
        ))
    }

    /// Append one batch record; returns the bytes written. The record is in
    /// the OS page cache after this — durability requires [`Wal::fsync`]
    /// (called per the session's [`FsyncPolicy`]). A record over
    /// [`MAX_WAL_RECORD`] is refused with [`io::ErrorKind::InvalidInput`]
    /// and nothing is written.
    pub(crate) fn append(&mut self, epoch: u64, batch: &str) -> io::Result<u64> {
        let record = encode_record(epoch, batch)?;
        self.file.write_all(&record)?;
        self.len += record.len() as u64;
        self.appends_since_fsync += 1;
        Ok(record.len() as u64)
    }

    /// Should this append be flushed under `policy`?
    pub(crate) fn fsync_due(&self, policy: FsyncPolicy) -> bool {
        match policy {
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::Interval(n) => self.appends_since_fsync >= n.max(1),
        }
    }

    /// Flush appended records to stable storage.
    pub(crate) fn fsync(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        self.appends_since_fsync = 0;
        Ok(())
    }

    /// Drop every record (they are covered by a snapshot) and start the log
    /// over. Flushes, so the empty log and the snapshot that justified the
    /// truncation can never be observed torn apart by a crash in between
    /// (the snapshot is written and fsynced first).
    pub(crate) fn truncate_all(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.len = 0;
        self.appends_since_fsync = 0;
        Ok(())
    }

    /// Current log length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }
}

/// The record logging `batch` as `epoch`; refused over [`MAX_WAL_RECORD`].
fn encode_record(epoch: u64, batch: &str) -> io::Result<Vec<u8>> {
    let mut payload = Writer(vec![WAL_VERSION, WAL_TAG_BATCH]);
    payload.u64(epoch);
    payload.str(batch);
    let mut record = Writer(Vec::with_capacity(payload.0.len() + 8));
    record
        .record(&payload.0, MAX_WAL_RECORD)
        .map_err(|e| io::Error::new(e.kind(), format!("WAL record refused: {e}")))?;
    Ok(record.0)
}

/// Decode records until the first torn or corrupt one; returns the records
/// and the byte length of the valid prefix.
fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, u64) {
    let mut records = Vec::new();
    let mut r = Reader::new(bytes);
    let mut valid = 0;
    while let Some(rec) = r.record(MAX_WAL_RECORD).and_then(decode_payload) {
        records.push(rec);
        valid = bytes.len() - r.remaining();
    }
    (records, valid as u64)
}

/// Decode one record payload; `None` on any structural problem (treated as
/// corruption by the caller).
fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut r = Reader::new(payload);
    if r.u8().ok()? != WAL_VERSION || r.u8().ok()? != WAL_TAG_BATCH {
        return None;
    }
    let epoch = r.u64().ok()?;
    let batch = r.str().ok()?.to_string();
    r.finish().ok()?;
    Some(WalRecord { epoch, batch })
}

// ---------------------------------------------------------------------------
// Session snapshot files
// ---------------------------------------------------------------------------

/// Write a snapshot of `instance` as of `epoch` into `dir`, atomically:
/// the bytes land in a temporary file, are fsynced, and are renamed into
/// place, so a crash mid-write leaves either the old set of snapshots or
/// the old set plus one complete new file — never a half-written one that
/// parses. The directory is fsynced after the rename, so once this
/// returns the snapshot survives a power cut and the log it covers may be
/// truncated.
pub(crate) fn write_snapshot(dir: &Path, epoch: u64, instance: &Instance) -> io::Result<PathBuf> {
    let name = format!("{SNAPSHOT_PREFIX}{epoch:020}{SNAPSHOT_SUFFIX}");
    write_durably(dir, &name, &encode_snapshot(epoch, instance))
}

/// The bytes of a snapshot file for `instance` as of `epoch`.
fn encode_snapshot(epoch: u64, instance: &Instance) -> Vec<u8> {
    let mut w = Writer(SESSION_SNAPSHOT_MAGIC.to_vec());
    w.u8(SESSION_SNAPSHOT_VERSION);
    w.u64(epoch);
    w.bytes(&instance.to_snapshot_bytes());
    w.seal()
}

/// Replace `dir/name` with `bytes` so that a crash leaves the old file or
/// the new one, whole: write a temporary file, fsync it, rename it over
/// `name`, fsync the directory. Returns the final path.
fn write_durably(dir: &Path, name: &str, bytes: &[u8]) -> io::Result<PathBuf> {
    let path = dir.join(name);
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    sync_dir(dir)?;
    Ok(path)
}

/// Make `dir`'s entries durable: a rename or a file creation reaches
/// stable storage only once its directory is fsynced.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Decode one snapshot file's bytes; `None` when they are unreadable in
/// any way (snapshots are cache — an invalid one is skipped, never fatal).
fn read_snapshot(bytes: &[u8]) -> Option<(u64, Instance)> {
    let mut r = Reader::new(unseal(bytes)?);
    if r.take(4).ok()? != SESSION_SNAPSHOT_MAGIC || r.u8().ok()? != SESSION_SNAPSHOT_VERSION {
        return None;
    }
    let epoch = r.u64().ok()?;
    let body = r.bytes().ok()?;
    r.finish().ok()?;
    let instance = Instance::from_snapshot_bytes(body).ok()?;
    Some((epoch, instance))
}

/// Every snapshot file in `dir`, sorted by epoch descending (the zero-padded
/// file names sort correctly, but the epoch is re-read from the name for
/// robustness).
fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name
            .strip_prefix(SNAPSHOT_PREFIX)
            .and_then(|s| s.strip_suffix(SNAPSHOT_SUFFIX))
        else {
            continue;
        };
        let Ok(epoch) = stem.parse::<u64>() else {
            continue;
        };
        found.push((epoch, entry.path()));
    }
    found.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    found
}

/// Load the newest snapshot in `dir` that decodes validly, if any.
pub(crate) fn load_newest_snapshot(dir: &Path) -> Option<(u64, Instance)> {
    snapshot_files(dir)
        .into_iter()
        .find_map(|(_, path)| read_snapshot(&fs::read(path).ok()?))
}

/// Remove all but the newest `keep` snapshot files (best-effort; removal
/// failures are ignored — stale snapshots waste disk, nothing else).
pub(crate) fn prune_snapshots(dir: &Path, keep: usize) {
    for (_, path) in snapshot_files(dir).into_iter().skip(keep.max(1)) {
        let _ = fs::remove_file(path);
    }
}

/// Remove snapshots from abandoned futures: after a restore rewinds the
/// session to `epoch`, snapshots beyond it describe a timeline that no
/// longer exists and must not win the newest-valid scan at the next open.
pub(crate) fn remove_snapshots_above(dir: &Path, epoch: u64) {
    for (e, path) in snapshot_files(dir) {
        if e > epoch {
            let _ = fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Manifest: the session's sigma and configuration, human-readable
// ---------------------------------------------------------------------------

/// Serialize `set` and `cfg` into the manifest text format: a line-oriented
/// `key value` header (both chase configurations spelled out field by
/// field), then the constraint set in surface syntax after a `sigma` line.
fn render_manifest(set: &ConstraintSet, cfg: &SessionConfig) -> String {
    let mut out = String::from("chase-session v1\n");
    render_chase_cfg(&mut out, "chase", &cfg.chase);
    out.push_str(&format!("use_sqo {}\n", cfg.use_sqo));
    render_chase_cfg(&mut out, "sqo_chase", &cfg.sqo_chase);
    out.push_str(&format!("sqo_max_plan_atoms {}\n", cfg.sqo_max_plan_atoms));
    out.push_str("sigma\n");
    out.push_str(&set.to_string());
    out.push('\n');
    out
}

fn render_chase_cfg(out: &mut String, prefix: &str, c: &ChaseConfig) {
    let mode = match c.mode {
        ChaseMode::Standard => "standard",
        ChaseMode::Oblivious => "oblivious",
    };
    out.push_str(&format!("{prefix}.mode {mode}\n"));
    let strategy = match &c.strategy {
        Strategy::RoundRobin => "round_robin".to_string(),
        Strategy::FixedCycle(ix) => format!("fixed_cycle {}", join_usize(ix)),
        Strategy::Random { seed } => format!("random {seed}"),
        Strategy::Phased(groups) => format!(
            "phased {}",
            groups
                .iter()
                .map(|g| join_usize(g))
                .collect::<Vec<_>>()
                .join("|")
        ),
    };
    out.push_str(&format!("{prefix}.strategy {strategy}\n"));
    out.push_str(&format!("{prefix}.max_steps {}\n", opt_usize(c.max_steps)));
    out.push_str(&format!("{prefix}.max_nulls {}\n", opt_usize(c.max_nulls)));
    out.push_str(&format!(
        "{prefix}.monitor_depth {}\n",
        opt_usize(c.monitor_depth)
    ));
    out.push_str(&format!("{prefix}.keep_trace {}\n", c.keep_trace));
    out.push_str(&format!("{prefix}.keep_monitor {}\n", c.keep_monitor));
}

fn join_usize(v: &[usize]) -> String {
    v.iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "none".to_string(),
    }
}

/// Parse a manifest back into the constraint set and session configuration.
fn parse_manifest(text: &str) -> Result<(ConstraintSet, SessionConfig), String> {
    let mut lines = text.lines();
    match lines.next() {
        Some("chase-session v1") => {}
        other => return Err(format!("unknown manifest header {other:?}")),
    }
    let mut cfg = SessionConfig::default();
    let mut sigma_text = String::new();
    let mut in_sigma = false;
    for line in lines {
        if in_sigma {
            sigma_text.push_str(line);
            sigma_text.push('\n');
            continue;
        }
        if line == "sigma" {
            in_sigma = true;
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed manifest line {line:?}"))?;
        match key {
            "use_sqo" => cfg.use_sqo = parse_bool(key, value)?,
            "sqo_max_plan_atoms" => {
                cfg.sqo_max_plan_atoms =
                    value.parse().map_err(|_| format!("bad {key} {value:?}"))?
            }
            _ if key.starts_with("chase.") => {
                apply_cfg_line(&mut cfg.chase, &key["chase.".len()..], value)?
            }
            _ if key.starts_with("sqo_chase.") => {
                apply_cfg_line(&mut cfg.sqo_chase, &key["sqo_chase.".len()..], value)?
            }
            _ => return Err(format!("unknown manifest key {key:?}")),
        }
    }
    if !in_sigma {
        return Err("manifest has no sigma section".to_string());
    }
    let set = ConstraintSet::parse(&sigma_text).map_err(|e| format!("manifest sigma: {e}"))?;
    Ok((set, cfg))
}

fn parse_bool(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(format!("bad {key} {value:?}")),
    }
}

fn parse_opt_usize(key: &str, value: &str) -> Result<Option<usize>, String> {
    if value == "none" {
        return Ok(None);
    }
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("bad {key} {value:?}"))
}

fn parse_usize_list(key: &str, value: &str) -> Result<Vec<usize>, String> {
    if value.is_empty() {
        return Ok(Vec::new());
    }
    value
        .split(',')
        .map(|n| n.parse().map_err(|_| format!("bad {key} {value:?}")))
        .collect()
}

fn apply_cfg_line(c: &mut ChaseConfig, key: &str, value: &str) -> Result<(), String> {
    match key {
        "mode" => {
            c.mode = match value {
                "standard" => ChaseMode::Standard,
                "oblivious" => ChaseMode::Oblivious,
                _ => return Err(format!("bad mode {value:?}")),
            }
        }
        "strategy" => {
            let (head, rest) = value.split_once(' ').unwrap_or((value, ""));
            c.strategy = match head {
                "round_robin" => Strategy::RoundRobin,
                "fixed_cycle" => Strategy::FixedCycle(parse_usize_list(key, rest)?),
                "random" => Strategy::Random {
                    seed: rest.parse().map_err(|_| format!("bad seed {rest:?}"))?,
                },
                "phased" => Strategy::Phased(
                    rest.split('|')
                        .filter(|g| !g.is_empty())
                        .map(|g| parse_usize_list(key, g))
                        .collect::<Result<_, _>>()?,
                ),
                _ => return Err(format!("bad strategy {value:?}")),
            }
        }
        "max_steps" => c.max_steps = parse_opt_usize(key, value)?,
        "max_nulls" => c.max_nulls = parse_opt_usize(key, value)?,
        "monitor_depth" => c.monitor_depth = parse_opt_usize(key, value)?,
        "keep_trace" => c.keep_trace = parse_bool(key, value)?,
        "keep_monitor" => c.keep_monitor = parse_bool(key, value)?,
        // Manifests written while the planner could be switched off carry
        // this key; both settings gave bit-identical traces, so it is read
        // and ignored.
        "use_planner" => {
            parse_bool(key, value)?;
        }
        _ => return Err(format!("unknown config key {key:?}")),
    }
    Ok(())
}

/// Write the manifest for a fresh durability directory (atomically, like
/// snapshots: see [`write_durably`]).
pub(crate) fn write_manifest(
    dir: &Path,
    set: &ConstraintSet,
    cfg: &SessionConfig,
) -> io::Result<()> {
    write_durably(dir, MANIFEST_FILE, render_manifest(set, cfg).as_bytes()).map(drop)
}

/// Read the manifest in `dir`, if one exists. `Ok(None)` = fresh directory;
/// `Err` = a manifest exists but cannot be understood.
pub(crate) fn read_manifest(dir: &Path) -> Result<Option<(ConstraintSet, SessionConfig)>, String> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    parse_manifest(&text).map(Some)
}

/// Does `dir` look like a session durability directory (has a manifest)?
pub(crate) fn is_session_dir(dir: &Path) -> bool {
    dir.join(MANIFEST_FILE).exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chase_core::Term;
    use chase_engine::ChaseConfig;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig};

    fn tempdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("chase-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_appends_round_trip_across_reopen() {
        let dir = tempdir("roundtrip");
        {
            let (mut wal, records, truncated) = Wal::open(&dir).unwrap();
            assert!(records.is_empty());
            assert_eq!(truncated, 0);
            wal.append(1, "e(a,b). ").unwrap();
            wal.append(2, "e(b,c). e(c,d). ").unwrap();
            wal.fsync().unwrap();
        }
        let (_, records, truncated) = Wal::open(&dir).unwrap();
        assert_eq!(truncated, 0);
        assert_eq!(
            records,
            vec![
                WalRecord {
                    epoch: 1,
                    batch: "e(a,b). ".into()
                },
                WalRecord {
                    epoch: 2,
                    batch: "e(b,c). e(c,d). ".into()
                },
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_stays_truncated() {
        let dir = tempdir("torn");
        {
            let (mut wal, _, _) = Wal::open(&dir).unwrap();
            wal.append(1, "e(a,b). ").unwrap();
            wal.fsync().unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let path = dir.join(WAL_FILE);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, WAL_VERSION, WAL_TAG_BATCH, 9, 9])
            .unwrap();
        drop(f);
        let before = fs::metadata(&path).unwrap().len();
        let (_, records, truncated) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 1, "the intact record survives");
        assert_eq!(truncated, 8);
        assert_eq!(fs::metadata(&path).unwrap().len(), before - 8);
        // A second open sees a clean log.
        let (_, records, truncated) = Wal::open(&dir).unwrap();
        assert_eq!((records.len(), truncated), (1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let dir = tempdir("corrupt");
        {
            let (mut wal, _, _) = Wal::open(&dir).unwrap();
            wal.append(1, "e(a,b). ").unwrap();
            wal.append(2, "e(b,c). ").unwrap();
            wal.fsync().unwrap();
        }
        // Flip a byte inside the second record's payload.
        let path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (_, records, truncated) = Wal::open(&dir).unwrap();
        assert_eq!(records.len(), 1);
        assert!(truncated > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_files_newest_valid_wins() {
        let dir = tempdir("snapshots");
        let early = Instance::parse("e(a,b).").unwrap();
        let late = Instance::parse("e(a,b). e(b,c).").unwrap();
        write_snapshot(&dir, 3, &early).unwrap();
        let late_path = write_snapshot(&dir, 7, &late).unwrap();
        let (epoch, inst) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(inst, late);
        // Corrupt the newest: loading falls back to the older one.
        let mut bytes = fs::read(&late_path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        fs::write(&late_path, &bytes).unwrap();
        let (epoch, inst) = load_newest_snapshot(&dir).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(inst, early);
        // Pruning keeps the newest files by epoch.
        write_snapshot(&dir, 9, &late).unwrap();
        prune_snapshots(&dir, 1);
        assert_eq!(snapshot_files(&dir).len(), 1);
        assert_eq!(snapshot_files(&dir)[0].0, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_every_config_field() {
        let dir = tempdir("manifest");
        let set = ConstraintSet::parse("S(X) -> E(X,Y); E(X,Y), E(Y,Z) -> E(X,Z)").unwrap();
        let cfg = SessionConfig {
            chase: ChaseConfig {
                mode: ChaseMode::Oblivious,
                strategy: Strategy::Phased(vec![vec![0, 2], vec![1]]),
                max_steps: None,
                max_nulls: Some(77),
                monitor_depth: Some(4),
                keep_trace: true,
                keep_monitor: true,
            },
            use_sqo: false,
            sqo_chase: ChaseConfig {
                strategy: Strategy::Random { seed: 42 },
                ..ChaseConfig::with_max_steps(123)
            },
            sqo_max_plan_atoms: 5,
        };
        write_manifest(&dir, &set, &cfg).unwrap();
        let (set2, cfg2) = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(set2, set);
        assert_eq!(cfg2, cfg);
        // FixedCycle too (separate write to cover the remaining variant).
        let cfg3 = SessionConfig {
            chase: ChaseConfig {
                strategy: Strategy::FixedCycle(vec![1, 0, 1]),
                ..ChaseConfig::default()
            },
            ..SessionConfig::default()
        };
        write_manifest(&dir, &set, &cfg3).unwrap();
        let (_, cfg4) = read_manifest(&dir).unwrap().unwrap();
        assert_eq!(cfg4, cfg3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn legacy_use_planner_lines_are_ignored() {
        let set = ConstraintSet::parse("S(X) -> E(X,Y)").unwrap();
        let cfg = SessionConfig::default();
        let text = render_manifest(&set, &cfg);
        assert!(!text.contains("use_planner"));
        let legacy = text
            .replacen("use_sqo ", "chase.use_planner false\nuse_sqo ", 1)
            .replacen("sigma\n", "sqo_chase.use_planner true\nsigma\n", 1);
        assert_eq!(parse_manifest(&legacy).unwrap(), (set, cfg));
        let bad = text.replacen("sigma\n", "chase.use_planner maybe\nsigma\n", 1);
        assert!(parse_manifest(&bad).is_err(), "the value is still checked");
    }

    #[test]
    fn fresh_dir_has_no_manifest() {
        let dir = tempdir("fresh");
        assert!(read_manifest(&dir).unwrap().is_none());
        assert!(!is_session_dir(&dir));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// SplitMix64: random bytes and instances from one proptest seed (the
    /// vendored proptest has no collection strategies).
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn term(&mut self) -> String {
            match self.below(2) {
                0 => format!("c{}", self.below(6)),
                _ => format!("_n{}", self.below(6)),
            }
        }
    }

    /// Up to a dozen facts over constants and nulls, with null 5 (when
    /// present) merged away so the null counter outruns the live nulls.
    fn random_instance(rng: &mut Mix) -> Instance {
        let mut text = String::new();
        for _ in 0..=rng.below(12) {
            let fact = match rng.below(2) {
                0 => format!("p({}). ", rng.term()),
                _ => format!("e({},{}). ", rng.term(), rng.term()),
            };
            text.push_str(&fact);
        }
        let mut inst = Instance::parse(&text).unwrap();
        inst.merge_terms(Term::Null(5), Term::Null(0));
        inst
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Decoding the snapshot side is total. Random bytes, every
        /// truncation of a valid encoding and every single-bit flip of one
        /// are refused by the instance snapshot and snapshot file decoders;
        /// the WAL decoder keeps exactly the whole records before the
        /// damage. None of them panics.
        #[test]
        fn snapshot_side_decoding_is_total(seed in any::<u64>()) {
            let mut rng = Mix(seed);
            let inst = random_instance(&mut rng);
            let snapshot = inst.to_snapshot_bytes();
            let file = encode_snapshot(rng.below(100), &inst);
            let records: Vec<WalRecord> = (1..=1 + rng.below(4))
                .map(|epoch| WalRecord {
                    epoch,
                    batch: format!("e({},{}). ", rng.term(), rng.term()),
                })
                .collect();
            let mut wal = Vec::new();
            let mut ends = vec![0];
            for r in &records {
                wal.extend(encode_record(r.epoch, &r.batch).unwrap());
                ends.push(wal.len());
            }
            // What the WAL decoder must keep of a log damaged at byte `at`.
            let kept = |at: usize| {
                let k = ends.iter().filter(|&&end| end <= at).count() - 1;
                (records[..k].to_vec(), ends[k] as u64)
            };

            prop_assert_eq!(Instance::from_snapshot_bytes(&snapshot), Ok(inst.clone()));
            prop_assert!(read_snapshot(&file).is_some_and(|(_, back)| back == inst));
            prop_assert_eq!(decode_records(&wal), (records.clone(), wal.len() as u64));

            let noise: Vec<u8> = (0..rng.below(256)).map(|_| rng.below(256) as u8).collect();
            prop_assert!(Instance::from_snapshot_bytes(&noise).is_err());
            prop_assert!(read_snapshot(&noise).is_none());
            prop_assert_eq!(decode_records(&noise), (Vec::new(), 0));

            for cut in 0..snapshot.len() {
                prop_assert!(Instance::from_snapshot_bytes(&snapshot[..cut]).is_err());
            }
            for cut in 0..file.len() {
                prop_assert!(read_snapshot(&file[..cut]).is_none());
            }
            for cut in 0..wal.len() {
                prop_assert_eq!(decode_records(&wal[..cut]), kept(cut));
            }

            let flip = |bytes: &[u8], bit: usize| {
                let mut bent = bytes.to_vec();
                bent[bit / 8] ^= 1 << (bit % 8);
                bent
            };
            for bit in 0..snapshot.len() * 8 {
                prop_assert!(Instance::from_snapshot_bytes(&flip(&snapshot, bit)).is_err());
            }
            for bit in 0..file.len() * 8 {
                prop_assert!(read_snapshot(&flip(&file, bit)).is_none());
            }
            for bit in 0..wal.len() * 8 {
                prop_assert_eq!(decode_records(&flip(&wal, bit)), kept(bit / 8));
            }
        }
    }
}
