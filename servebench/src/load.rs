//! The end-to-end run: set a fleet up over TCP, then drive it with a read
//! lane and a write lane, each one thread on its own connection, speaking
//! only the public `Client` API.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::thread;
use std::time::{Duration, Instant};

use chase_serve::{
    serve, Client, ClientError, ConductorConfig, DurabilityConfig, QueryOpts, Server,
};

use crate::spec::{Inputs, Kind, ReadGen, Spec, WriteGen, WriteOp, READ_RATE};
use crate::stats::{fingerprint, median, Samples, Tally};

/// The server configuration every workload runs: the defaults, plus a
/// durable root for durable workloads.
pub fn conductor_config(spec: &Spec, root: Option<&Path>) -> ConductorConfig {
    let mut cfg = ConductorConfig::default();
    if let (Some(fsync), Some(root)) = (spec.fsync, root) {
        cfg.durable_root = Some(root.to_path_buf());
        cfg.durability = DurabilityConfig {
            fsync,
            ..DurabilityConfig::default()
        };
    }
    cfg
}

pub fn cause(e: &ClientError) -> String {
    match e {
        ClientError::Server { code, .. } => format!("{code:?}"),
        ClientError::Proto(_) => "io".to_string(),
        ClientError::Unexpected { .. } => "unexpected".to_string(),
    }
}

/// A loaded, warmed fleet behind a running server.
pub struct Fleet {
    pub server: Server,
    /// Tenant → session id.
    pub sessions: Vec<u64>,
    /// Tenant → snapshot taken right after its load (restore target).
    pub snapshots: Vec<u64>,
}

/// How long one set-up took, from `serve` on.
pub struct SetupTimes {
    /// Until every session answered its probe query.
    pub probed: Duration,
    /// Until every session had also answered the whole read pool once, so
    /// every SQO rewriting decision is cached.
    pub warmed: Duration,
}

/// Start a server and load every tenant through it.
pub fn setup(
    spec: &Spec,
    inputs: &Inputs,
    root: Option<&Path>,
) -> Result<(Fleet, SetupTimes), String> {
    let t0 = Instant::now();
    let server =
        serve("127.0.0.1:0", conductor_config(spec, root)).map_err(|e| format!("serve: {e}"))?;
    let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let err = |what: &str, e: ClientError| format!("set-up {what}: {e}");
    let mut sessions = Vec::new();
    for base in &inputs.base {
        let sid = c.open(&inputs.sigma).map_err(|e| err("open", e))?;
        for batch in base {
            c.apply(sid, batch).map_err(|e| err("load", e))?;
        }
        sessions.push(sid);
    }
    for &sid in &sessions {
        c.query(sid, inputs.probes[0], QueryOpts::default())
            .map_err(|e| err("probe", e))?;
    }
    let probed = t0.elapsed();
    let mut snapshots = Vec::new();
    if spec.restore_every > 0 {
        for &sid in &sessions {
            snapshots.push(c.snapshot(sid).map_err(|e| err("snapshot", e))?);
        }
    }
    for &sid in &sessions {
        for q in &inputs.pool {
            c.query(sid, q, QueryOpts::default())
                .map_err(|e| err("warm query", e))?;
        }
    }
    let warmed = t0.elapsed();
    Ok((
        Fleet {
            server,
            sessions,
            snapshots,
        },
        SetupTimes { probed, warmed },
    ))
}

/// A phase runs in chunks, and every chunk is cut into this many equal
/// windows; a latency or rate is reported over the windows with the least
/// stolen CPU time, so a transient stall of the shared machine moves it less
/// than a pooled statistic.
pub const CHUNK_WINDOWS: usize = 4;

/// One chunk of a measurement phase.
#[derive(Clone, Copy)]
pub struct Phase {
    pub start: Instant,
    pub end: Instant,
    /// Paced: op `i` is due at `start + i * interval` and its latency counts
    /// from then. `None`: closed loop, the next op goes out when the previous
    /// reply is in.
    pub interval: Option<Duration>,
    /// The phase's window index of this chunk's first window.
    pub first_window: usize,
}

impl Phase {
    fn window(&self, t: Instant) -> usize {
        let len = (self.end - self.start).as_nanos() / CHUNK_WINDOWS as u128;
        let at = t.saturating_duration_since(self.start).as_nanos();
        self.first_window + ((at / len.max(1)) as usize).min(CHUNK_WINDOWS - 1)
    }
}

/// What one lane saw in one phase.
#[derive(Default)]
pub struct LaneStats {
    /// Per op kind and window: latency (µs; from due when paced).
    pub lat: BTreeMap<&'static str, Vec<Samples>>,
    /// Per op kind: attempted / ok / failed by cause.
    pub tally: BTreeMap<&'static str, Tally>,
    /// Per window: ops completed.
    pub done: Vec<u64>,
    /// How late the generator sent each paced op (µs).
    pub lateness: Samples,
    /// Lane ticks issued (a write tick may send several requests).
    pub ticks: u64,
    /// Per window: is it in the half of the phase's windows in which the
    /// hypervisor stole the least CPU time? Only those enter the
    /// statistics (all windows when unset).
    pub quiet: Vec<bool>,
}

impl LaneStats {
    /// Count one op in window `w`; a successful one also records its
    /// latency, measured from `since` to now.
    fn record(&mut self, kind: &'static str, w: usize, since: Instant, res: Result<(), String>) {
        self.record_latency(kind, w, since.elapsed(), res);
    }

    fn record_latency(
        &mut self,
        kind: &'static str,
        w: usize,
        latency: Duration,
        res: Result<(), String>,
    ) {
        let t = self.tally.entry(kind).or_default();
        t.attempted += 1;
        match res {
            Ok(()) => {
                t.ok += 1;
                if self.done.len() <= w {
                    self.done.resize(w + 1, 0);
                }
                self.done[w] += 1;
                let lat = self.lat.entry(kind).or_default();
                if lat.len() <= w {
                    lat.resize(w + 1, Samples::default());
                }
                lat[w].push(latency);
            }
            Err(cause) => t.fail(&cause),
        }
    }

    pub fn merge(&mut self, other: &LaneStats) {
        for (k, v) in &other.lat {
            let lat = self.lat.entry(k).or_default();
            if lat.len() < v.len() {
                lat.resize(v.len(), Samples::default());
            }
            for (w, s) in v.iter().enumerate() {
                lat[w].extend(s);
            }
        }
        for (k, v) in &other.tally {
            self.tally.entry(k).or_default().merge(v);
        }
        if self.done.len() < other.done.len() {
            self.done.resize(other.done.len(), 0);
        }
        for (w, n) in other.done.iter().enumerate() {
            self.done[w] += n;
        }
        self.lateness.extend(&other.lateness);
        self.ticks += other.ticks;
    }

    pub fn completed(&self) -> u64 {
        self.done.iter().sum()
    }

    /// Does window `w` enter the statistics?
    pub fn counts(&self, w: usize) -> bool {
        self.quiet.get(w).copied().unwrap_or(true)
    }

    /// Every latency sample of one op kind in the counted windows, pooled.
    pub fn pooled(&self, kind: &str) -> Samples {
        let mut all = Samples::default();
        for (w, s) in self.lat.get(kind).into_iter().flatten().enumerate() {
            if self.counts(w) {
                all.extend(s);
            }
        }
        all
    }

    /// The median over the counted, non-empty windows of `stat` on one op
    /// kind's latencies.
    pub fn windowed(&self, kind: &str, stat: impl Fn(&Samples) -> f64) -> f64 {
        let values: Vec<f64> = self
            .lat
            .get(kind)
            .into_iter()
            .flatten()
            .enumerate()
            .filter(|&(w, s)| s.len() > 0 && self.counts(w))
            .map(|(_, s)| stat(s))
            .collect();
        median(&values)
    }
}

/// Make `thread::sleep` wake close to its deadline: the default 50 µs timer
/// slack would otherwise show up in every paced latency.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only changes
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        thread::sleep(due - now);
    }
}

/// Run `op(due, window)` on the phase's schedule until it ends. In a
/// closed loop the next op waits until `ready(ticks so far)` holds.
fn drive(
    phase: Phase,
    stats: &mut LaneStats,
    mut ready: impl FnMut(u64) -> bool,
    mut op: impl FnMut(Instant, usize, &mut LaneStats),
) {
    let mut i = 0u32;
    loop {
        if phase.interval.is_none() {
            while !ready(stats.ticks) && Instant::now() < phase.end {
                thread::sleep(Duration::from_micros(50));
            }
        }
        let due = match phase.interval {
            Some(interval) => phase.start + interval * i,
            None => Instant::now(),
        };
        // A lane that fell behind abandons its backlog at the end.
        if due >= phase.end || Instant::now() >= phase.end {
            break;
        }
        if phase.interval.is_some() {
            sleep_until(due);
            stats.lateness.push(Instant::now() - due);
        }
        stats.ticks += 1;
        op(due, phase.window(due), stats);
        i += 1;
    }
}

/// Per (tenant, pool query): the fingerprint every answer must have, when
/// the workload's answers are fixed for the run.
pub type Expected = Vec<Vec<(usize, u64)>>;

/// State shared by both lanes.
pub struct Shared<'a> {
    pub spec: &'static Spec,
    pub inputs: &'a Inputs,
    pub addr: SocketAddr,
    /// Tenant → live session id; a churn swaps it under the write lock, so
    /// a reader never addresses a closed session.
    pub ids: Vec<RwLock<u64>>,
    pub snapshots: Vec<u64>,
    pub expected: Option<Expected>,
    /// Write ticks issued in the current phase: the saturated read lane
    /// keeps to the paced read:write ratio against it, so both phases run
    /// the same mix.
    pub write_ticks: AtomicU64,
}

pub struct Reader {
    client: Client,
    gen: ReadGen,
}

impl Reader {
    pub fn new(shared: &Shared, seed: u64) -> Result<Reader, String> {
        Ok(Reader {
            client: Client::connect(shared.addr).map_err(|e| format!("connect: {e}"))?,
            gen: ReadGen::new(shared.spec, shared.inputs.pool.len(), seed, 0),
        })
    }

    pub fn run(&mut self, shared: &Shared, phase: Phase, stats: &mut LaneStats) {
        tighten_timer_slack();
        let ratio = READ_RATE / shared.spec.write_rate;
        let first = stats.ticks;
        let in_mix = |reads: u64| {
            (reads - first) as f64
                <= ratio * (shared.write_ticks.load(Ordering::Relaxed) + 1) as f64
        };
        drive(phase, stats, in_mix, |due, w, stats| {
            let (t, qi) = self.gen.next_op();
            let guard = shared.ids[t].read().expect("session table lock poisoned");
            let res = self
                .client
                .query(*guard, &shared.inputs.pool[qi], QueryOpts::default());
            let done = Instant::now();
            drop(guard);
            let res = match res {
                Err(e) => Err(cause(&e)),
                Ok(tuples) => match &shared.expected {
                    Some(exp) if fingerprint(&tuples) != exp[t][qi] => {
                        Err("wrong_answer".to_string())
                    }
                    _ => Ok(()),
                },
            };
            // Timed to the reply, not to the end of the answer check.
            stats.record_latency("query", w, done - due, res);
        });
    }
}

pub struct Writer {
    client: Client,
    gen: WriteGen,
    /// Tenant → fresh batches applied since its base load (for the oracle).
    pub applied: Vec<Vec<String>>,
    /// Admission-probe sessions opened (and closed) on a durable root.
    pub probe_ids: Vec<u64>,
}

impl Writer {
    pub fn new(shared: &Shared, seed: u64) -> Result<Writer, String> {
        Ok(Writer {
            client: Client::connect(shared.addr).map_err(|e| format!("connect: {e}"))?,
            gen: WriteGen::new(shared.spec, seed, 1),
            applied: vec![Vec::new(); shared.spec.tenants],
            probe_ids: Vec::new(),
        })
    }

    pub fn run(&mut self, shared: &Shared, phase: Phase, stats: &mut LaneStats) {
        tighten_timer_slack();
        drive(
            phase,
            stats,
            |_| true,
            |due, w, stats| {
                shared.write_ticks.fetch_add(1, Ordering::Relaxed);
                self.tick(shared, due, w, stats)
            },
        );
    }

    fn tick(&mut self, shared: &Shared, due: Instant, w: usize, stats: &mut LaneStats) {
        let c = &mut self.client;
        let sid = |t: usize| *shared.ids[t].read().expect("session table lock poisoned");
        match self.gen.next_op() {
            WriteOp::Apply { tenant, facts } => {
                let res = c
                    .apply(sid(tenant), &facts)
                    .map(drop)
                    .map_err(|e| cause(&e));
                let ok = res.is_ok();
                stats.record("apply", w, due, res);
                if ok {
                    self.applied[tenant].push(facts);
                }
            }
            WriteOp::Restore { tenant } => {
                let res = c
                    .restore(sid(tenant), shared.snapshots[tenant])
                    .map_err(|e| cause(&e));
                let ok = res.is_ok();
                stats.record("restore", w, due, res);
                if ok {
                    self.applied[tenant].clear();
                }
            }
            WriteOp::Churn { tenant } => {
                let fresh = match c.open(&shared.inputs.sigma) {
                    Ok(id) => {
                        stats.record("open", w, due, Ok(()));
                        id
                    }
                    Err(e) => return stats.record("open", w, due, Err(cause(&e))),
                };
                for batch in &shared.inputs.base[tenant] {
                    let t0 = Instant::now();
                    let res = c.apply(fresh, batch).map(drop).map_err(|e| cause(&e));
                    stats.record("load", w, t0, res);
                }
                let old = std::mem::replace(
                    &mut *shared.ids[tenant]
                        .write()
                        .expect("session table lock poisoned"),
                    fresh,
                );
                self.applied[tenant].clear();
                let t0 = Instant::now();
                let res = c.close(old).map_err(|e| cause(&e));
                stats.record("close", w, t0, res);
            }
            WriteOp::Probe => {
                let id = match c.open(&shared.inputs.sigma) {
                    Ok(id) => {
                        stats.record("open", w, due, Ok(()));
                        id
                    }
                    Err(e) => return stats.record("open", w, due, Err(cause(&e))),
                };
                let t0 = Instant::now();
                let res = c.close(id).map_err(|e| cause(&e));
                stats.record("close", w, t0, res);
                if shared.spec.kind == Kind::DurableMerge {
                    self.probe_ids.push(id);
                }
            }
        }
    }
}

impl Writer {
    /// Snapshot every durable session, then log exactly `n` more batches on
    /// each, so the WAL every recovery replays has the same length.
    pub fn fix_wal_tail(&mut self, shared: &Shared, n: usize) -> Result<(), String> {
        for t in 0..shared.spec.tenants {
            let sid = *shared.ids[t].read().expect("session table lock poisoned");
            self.client
                .persist(sid)
                .map_err(|e| format!("persist: {e}"))?;
            for _ in 0..n {
                let facts = self.gen.stream_batch(t);
                self.client
                    .apply(sid, &facts)
                    .map_err(|e| format!("tail apply: {e}"))?;
                self.applied[t].push(facts);
            }
        }
        Ok(())
    }
}

/// Clock ticks of CPU time stolen from this virtual machine so far, summed
/// over its CPUs (`/proc/stat`; 0 where there is no such counter).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The share of the machine's CPU time the hypervisor stole since
/// `steal_ticks()` read `since`, `over` ago.
pub fn stolen_share(since: u64, over: Duration) -> f64 {
    // USER_HZ is 100 on Linux: a tick is 10 ms of one CPU.
    let cpus = thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let ticks = steal_ticks().saturating_sub(since) as f64;
    (ticks * 0.01 / (over.as_secs_f64() * cpus)).min(0.9)
}

/// Both lanes' statistics for one phase, and the share of CPU time stolen
/// in each window.
#[derive(Default)]
pub struct PhaseStats {
    pub read: LaneStats,
    pub write: LaneStats,
    pub steal: Vec<f64>,
}

impl PhaseStats {
    /// Both lanes merged, counting only the quieter half of the windows:
    /// on a shared host, stolen CPU time is what moves a window's latency
    /// most, and it comes in bursts.
    pub fn merged(&self) -> LaneStats {
        let mut all = LaneStats::default();
        all.merge(&self.read);
        all.merge(&self.write);
        let mut order: Vec<usize> = (0..self.steal.len()).collect();
        order.sort_by(|&a, &b| self.steal[a].total_cmp(&self.steal[b]));
        all.quiet = vec![false; self.steal.len()];
        for &w in &order[..self.steal.len() / 2] {
            all.quiet[w] = true;
        }
        all
    }
}

/// Run both lanes through one chunk of a phase, each on its own thread,
/// while a third samples stolen CPU time at every window boundary; the
/// chunk's windows follow those already in `stats`. `paced` gives each lane
/// its interval from its rate.
pub fn run_chunk(
    shared: &Shared,
    reader: &mut Reader,
    writer: &mut Writer,
    stats: &mut PhaseStats,
    len: Duration,
    paced: bool,
) {
    let start = Instant::now() + Duration::from_millis(5);
    let phase = |rate: f64| Phase {
        start,
        end: start + len,
        interval: paced.then(|| Duration::from_secs_f64(1.0 / rate)),
        first_window: stats.steal.len(),
    };
    let (read_phase, write_phase) = (phase(READ_RATE), phase(shared.spec.write_rate));
    shared.write_ticks.store(0, Ordering::Relaxed);
    // USER_HZ is 100 on Linux: a tick is 10 ms of one CPU.
    let cpus = thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let tick_share = 0.01 / (len.as_secs_f64() / CHUNK_WINDOWS as f64 * cpus);
    let PhaseStats { read, write, steal } = stats;
    thread::scope(|s| {
        s.spawn(|| reader.run(shared, read_phase, read));
        s.spawn(|| writer.run(shared, write_phase, write));
        let marks: Vec<u64> = (0..=CHUNK_WINDOWS)
            .map(|w| {
                sleep_until(start + len * w as u32 / CHUNK_WINDOWS as u32);
                steal_ticks()
            })
            .collect();
        steal.extend(marks.windows(2).map(|m| (m[1] - m[0]) as f64 * tick_share));
    });
}

/// Where runs keep their scratch files, relative to the working directory.
pub const TEMP_ROOT: &str = ".servebench_tmp";

/// A fresh temp directory inside the working directory.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(TEMP_ROOT).join(format!("{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
