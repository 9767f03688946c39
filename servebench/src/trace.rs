//! The traced run (`--trace 1`): per-layer metrics, measured from outside
//! the program by timing calls into each layer's public functions.
//!
//! Besides the TCP fleet it sets up an in-process twin: a second
//! `Conductor` holding the same sessions, and per session a mirror
//! `ChaseSession` (in memory, plus a durable one for durable workloads)
//! fed the same batches. It then runs the workload's op mix (reads and
//! write ticks in the ratio of the paced rates) on one thread, closed loop,
//! for `--seconds`, alternating blocks of two kinds:
//!
//! * **untraced** — each op over TCP only (the writes are replayed into the
//!   twin after the block, untimed, to keep it in step);
//! * **traced** — each op over TCP, then the same request again in process,
//!   layer by layer: `proto` encode/decode, the `parser`, `Conductor::route`,
//!   the `SessionHandle` call, the mirrors' `ChaseSession::apply`, SQO and
//!   CQ evaluation.
//!
//! A request's `server.overhead` is its TCP round trip minus its in-process
//! cost. `trace.coverage.<op>` is the sum of the layer medians over the
//! round-trip median; `trace.overhead_ratio` is the traced blocks' query
//! round-trip median over the untraced blocks'.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use chase_core::{ConjunctiveQuery, ConstraintSet, Instance};
use chase_serve::proto::{Request, Response};
use chase_serve::{
    ChaseSession, Client, Conductor, ConductorConfig, QueryOpts, SessionConfig, SessionSnapshot,
};
use chase_sqo::minimal_rewritings;

use crate::load::{self, cause};
use crate::spec::{self, Inputs, ReadGen, Spec, WriteGen, WriteOp, READ_RATE};
use crate::stats::{fingerprint, metric, Metric, Rng, Samples, Tally};
use crate::{check_fleet, expected_answers, Args, Outcome};

/// Ops per untraced or traced block.
const BLOCK: usize = 50;

/// Coverage outside `1 ± COVERAGE_BAND` means the layers do not add up.
const COVERAGE_BAND: f64 = 0.10;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e6)
}

/// One tenant on the TCP fleet.
struct Wired {
    session: u64,
    /// Restore target: the snapshot taken right after the load.
    snapshot: Option<u64>,
    /// Fresh batches applied since the base load (for the oracle).
    applied: Vec<String>,
}

/// One tenant in the twin: its twin session and its mirrors.
struct Mirrored {
    session: u64,
    mem: ChaseSession,
    durable: Option<(ChaseSession, PathBuf)>,
    /// Restore targets (twin snapshot id, in-memory mirror snapshot).
    snapshot: Option<(u64, SessionSnapshot)>,
}

/// Samples keyed by `op:layer`.
#[derive(Default)]
struct Layers(BTreeMap<String, Samples>);

impl Layers {
    fn rec(&mut self, op: &str, layer: &str, us: f64) {
        self.0
            .entry(format!("{op}:{layer}"))
            .or_default()
            .push_us(us);
    }

    fn get(&self, op: &str, layer: &str) -> Samples {
        self.0
            .get(&format!("{op}:{layer}"))
            .cloned()
            .unwrap_or_default()
    }

    fn med(&self, op: &str, layer: &str) -> f64 {
        self.get(op, layer).median()
    }
}

/// The layers that add up to each op's round trip.
const QUERY_PARTS: [&str; 5] = ["overhead", "codec", "parse", "route", "call"];
const APPLY_PARTS: [&str; 7] = [
    "overhead", "codec", "parse", "route", "wait", "engine", "wal",
];
const OPEN_PARTS: [&str; 4] = ["overhead", "codec", "parse", "call"];

/// The session configuration the conductor gives every admitted session.
fn admitted_config(cfg: &ConductorConfig) -> SessionConfig {
    let mut s = cfg.session.clone();
    if let Some(budget) = cfg.step_budget {
        s.chase.max_steps = Some(s.chase.max_steps.map_or(budget, |n| n.min(budget)));
    }
    s
}

/// The in-process twin of the TCP fleet.
struct Twin<'a> {
    spec: &'static Spec,
    inputs: &'a Inputs,
    sigma: ConstraintSet,
    conductor: Conductor,
    session_cfg: SessionConfig,
    cfg: ConductorConfig,
    tmp: PathBuf,
    mirrors: usize,
    /// Per pool query: SQO's rewriting, as the session would choose it.
    rewritten: Vec<Option<ConjunctiveQuery>>,
}

impl Twin<'_> {
    fn mirror(&mut self) -> Result<(ChaseSession, Option<(ChaseSession, PathBuf)>), String> {
        let mem = ChaseSession::builder(self.sigma.clone())
            .config(self.session_cfg.clone())
            .build();
        let durable = match self.spec.fsync {
            None => None,
            Some(_) => {
                self.mirrors += 1;
                let dir = self.tmp.join(format!("mirror-{}", self.mirrors));
                let s = ChaseSession::builder(self.sigma.clone())
                    .config(self.session_cfg.clone())
                    .durable(&dir)
                    .durability(self.cfg.durability)
                    .try_build()
                    .map_err(|e| format!("durable mirror: {e}"))?;
                Some((s, dir))
            }
        };
        Ok((mem, durable))
    }

    /// Load tenant `t`'s base facts into the open twin session `twin` and
    /// into fresh mirrors. `warm` answers the read pool once, as set-up
    /// does on the TCP fleet (a churned-in session starts cold there).
    fn load_tenant(&mut self, t: usize, twin: u64, warm: bool) -> Result<Mirrored, String> {
        let (mut mem, mut durable) = self.mirror()?;
        let h = self.conductor.route(twin).map_err(|e| e.to_string())?;
        for batch in &self.inputs.base[t] {
            let atoms = parse_facts(batch)?;
            h.apply(atoms.clone())
                .map_err(|e| format!("twin load: {e}"))?;
            if let Some((d, _)) = &mut durable {
                d.apply(atoms.clone())
                    .map_err(|e| format!("mirror load: {e}"))?;
            }
            mem.apply(atoms).map_err(|e| format!("mirror load: {e}"))?;
        }
        for q in self.inputs.pool.iter().filter(|_| warm) {
            let q = ConjunctiveQuery::parse(q).map_err(|e| e.to_string())?;
            h.query(&q, QueryOpts::default())
                .map_err(|e| e.to_string())?;
        }
        let snapshot = if self.spec.restore_every > 0 {
            Some((h.snapshot().map_err(|e| e.to_string())?, mem.snapshot()))
        } else {
            None
        };
        Ok(Mirrored {
            session: twin,
            mem,
            durable,
            snapshot,
        })
    }
}

fn parse_facts(text: &str) -> Result<Vec<chase_core::Atom>, String> {
    Instance::parse(text)
        .map(|i| i.atoms())
        .map_err(|e| format!("facts: {e}"))
}

/// One op of the traced mix.
enum Op {
    Read(usize, usize),
    Write(WriteOp),
}

/// What the TCP side of the loop needs.
struct Wire<'a> {
    client: Client,
    inputs: &'a Inputs,
    expected: Option<load::Expected>,
    tally: Tally,
}

impl Wire<'_> {
    fn note<T>(&mut self, res: Result<T, chase_serve::ClientError>) -> Option<T> {
        self.tally.attempted += 1;
        match res {
            Ok(v) => {
                self.tally.ok += 1;
                Some(v)
            }
            Err(e) => {
                self.tally.fail(&cause(&e));
                None
            }
        }
    }
}

pub fn run(spec: &'static Spec, args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let inputs = spec::inputs(spec, args.seed);
    let sigma = ConstraintSet::parse(&inputs.sigma).map_err(|e| format!("sigma: {e}"))?;
    let server_root = spec.fsync.map(|_| tmp.join("server"));
    let (fleet, _) = load::setup(spec, &inputs, server_root.as_deref())?;
    let expected = match spec.kind {
        spec::Kind::DurableMerge => None,
        _ => Some(expected_answers(&sigma, &inputs)?),
    };

    let cfg = load::conductor_config(spec, spec.fsync.map(|_| tmp.join("twin")).as_deref());
    let mut twin = Twin {
        spec,
        inputs: &inputs,
        sigma: sigma.clone(),
        conductor: Conductor::new(cfg.clone()),
        session_cfg: admitted_config(&cfg),
        cfg,
        tmp: tmp.to_path_buf(),
        mirrors: 0,
        rewritten: Vec::new(),
    };
    let mut tenants = Vec::new();
    for t in 0..spec.tenants {
        let id = twin
            .conductor
            .open(sigma.clone())
            .map_err(|e| format!("twin open: {e}"))?;
        tenants.push(twin.load_tenant(t, id, true)?);
    }
    let mut wired: Vec<Wired> = fleet
        .sessions
        .iter()
        .enumerate()
        .map(|(t, &session)| Wired {
            session,
            snapshot: fleet.snapshots.get(t).copied(),
            applied: Vec::new(),
        })
        .collect();

    // First-sight SQO: the rewriting choice for every pool query.
    let mut layers = Layers::default();
    for text in &inputs.pool {
        let q = ConjunctiveQuery::parse(text).map_err(|e| e.to_string())?;
        let (rw, us) = timed(|| {
            minimal_rewritings(
                &q,
                &sigma,
                &twin.session_cfg.sqo_chase,
                twin.session_cfg.sqo_max_plan_atoms,
            )
        });
        layers.rec("sqo", "rewrite", us);
        let choice = rw
            .ok()
            .and_then(|v| v.into_iter().next())
            .filter(|r| r.body().len() < q.body().len());
        twin.rewritten.push(choice);
    }

    let mut wire = Wire {
        client: Client::connect(fleet.server.addr()).map_err(|e| format!("connect: {e}"))?,
        inputs: &inputs,
        expected,
        tally: Tally::default(),
    };
    let read_share = READ_RATE / (READ_RATE + spec.write_rate);
    let mut rng = Rng::new(args.seed, 300);
    let mut reads = ReadGen::new(spec, inputs.pool.len(), args.seed, 0);
    let mut writes = WriteGen::new(spec, args.seed, 1);
    let mut next_op = move || {
        if rng.unit() < read_share {
            let (t, q) = reads.next_op();
            Op::Read(t, q)
        } else {
            Op::Write(writes.next_op())
        }
    };

    // Alternate untraced and traced blocks of the same op stream, so both
    // see the same fleet as it grows. An untraced block runs over TCP only;
    // its writes reach the twin, untimed, when the block ends.
    let mut untraced = Layers::default();
    let before = twin.conductor.metrics_snapshot();
    let wal_before: Vec<_> = tenants
        .iter()
        .map(|t| t.durable.as_ref().and_then(|(d, _)| d.durability()))
        .collect();
    let mut user_bytes = 0usize;
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut traced = false;
    while Instant::now() < end {
        let mut backlog = Vec::new();
        for _ in 0..BLOCK {
            let op = next_op();
            if let Op::Write(WriteOp::Apply { facts, .. }) = &op {
                user_bytes += facts.len();
            }
            if !traced {
                wire_op(&mut wire, &mut wired, &op, &mut untraced);
                if let Op::Write(w) = op {
                    backlog.push(w);
                }
                continue;
            }
            let rtt = wire_op(&mut wire, &mut wired, &op, &mut layers);
            match &op {
                Op::Read(t, qi) => twin_read(&twin, &tenants[*t], *qi, &mut layers, rtt)?,
                Op::Write(w) => twin_write(&mut twin, &mut tenants, w, &mut layers, rtt)?,
            }
        }
        let mut scratch = Layers::default();
        for w in &backlog {
            twin_write(&mut twin, &mut tenants, w, &mut scratch, 0.0)?;
        }
        traced = !traced;
    }
    let after = twin.conductor.metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    let publishes = delta("chase_snapshot_publish_total");
    let skipped = delta("chase_snapshot_publish_skipped_total");
    let dispatches = delta("chase_pool_dispatches_total");
    let messages = delta("chase_pool_messages_total");

    // WAL counters over the run, then reopen every durable mirror.
    let (mut appends, mut fsyncs, mut wal_bytes, mut snapshots) = (0, 0, 0, 0);
    for (t, b) in tenants.iter().zip(&wal_before) {
        if let (Some((d, _)), Some(b)) = (&t.durable, b) {
            let a = d.durability().expect("durable mirror has stats");
            appends += a.wal_appends - b.wal_appends;
            fsyncs += a.wal_fsyncs - b.wal_fsyncs;
            wal_bytes += a.wal_bytes - b.wal_bytes;
            snapshots += a.snapshots_written - b.snapshots_written;
        }
    }
    let mut replayed = Samples::default();
    for t in &mut tenants {
        if let Some((d, dir)) = t.durable.take() {
            drop(d);
            let (reopened, us) = timed(|| ChaseSession::open_with(&dir, twin.cfg.durability));
            let reopened = reopened.map_err(|e| format!("mirror reopen: {e}"))?;
            layers.rec("wal", "reopen", us);
            replayed.push_us(reopened.durability().map_or(0, |s| s.replayed_records) as f64);
        }
    }

    let facts_resident: usize = tenants.iter().map(|t| t.mem.instance().len()).sum();
    let applied: Vec<Vec<String>> = wired.iter().map(|t| t.applied.clone()).collect();
    let ids: Vec<u64> = wired.iter().map(|t| t.session).collect();
    let (check, _) = check_fleet(fleet.server.addr(), &ids, &sigma, &inputs, &applied)?;
    println!(
        "  correctness: {} probe answers checked against a cold chase, {} wrong",
        check.attempted,
        check.failed_total()
    );
    drop(wire.client);
    twin.conductor.shutdown();
    fleet.server.shutdown();

    let metrics = report(
        &layers,
        &untraced,
        Extra {
            publishes,
            skipped,
            dispatches,
            messages,
            facts_resident,
            appends,
            fsyncs,
            wal_bytes,
            snapshots,
            user_bytes,
            replayed: replayed.median(),
            rewritten: twin.rewritten.iter().filter(|r| r.is_some()).count() as f64
                / twin.rewritten.len().max(1) as f64,
        },
    );
    let mut total = wire.tally;
    total.merge(&check);
    Ok(Outcome {
        correct: check.failed_total() == 0,
        attempted: total.attempted,
        failed: total.failed_total(),
        metrics,
    })
}

/// Run one op over TCP; returns the round trip of its timed request (µs).
fn wire_op(wire: &mut Wire, tenants: &mut [Wired], op: &Op, layers: &mut Layers) -> f64 {
    match op {
        Op::Read(t, qi) => {
            let sid = tenants[*t].session;
            let text = &wire.inputs.pool[*qi];
            let (res, rtt) = timed(|| wire.client.query(sid, text, QueryOpts::default()));
            let res = res
                .map_err(|e| cause(&e))
                .and_then(|tuples| match &wire.expected {
                    Some(exp) if fingerprint(&tuples) != exp[*t][*qi] => {
                        Err("wrong_answer".to_string())
                    }
                    _ => Ok(()),
                });
            wire.tally.attempted += 1;
            match res {
                Ok(()) => wire.tally.ok += 1,
                Err(c) => wire.tally.fail(&c),
            }
            layers.rec("query", "rtt", rtt);
            rtt
        }
        Op::Write(WriteOp::Apply { tenant, facts }) => {
            let sid = tenants[*tenant].session;
            let (res, rtt) = timed(|| wire.client.apply(sid, facts));
            if wire.note(res).is_some() {
                tenants[*tenant].applied.push(facts.clone());
            }
            layers.rec("apply", "rtt", rtt);
            rtt
        }
        Op::Write(WriteOp::Restore { tenant }) => {
            let t = &mut tenants[*tenant];
            let res = wire.client.restore(
                t.session,
                t.snapshot.expect("restore workloads snapshot at set-up"),
            );
            if wire.note(res).is_some() {
                t.applied.clear();
            }
            0.0
        }
        Op::Write(WriteOp::Churn { tenant }) => {
            let (res, rtt) = timed(|| wire.client.open(&wire.inputs.sigma));
            layers.rec("open", "rtt", rtt);
            let Some(fresh) = wire.note(res) else {
                return rtt;
            };
            for batch in &wire.inputs.base[*tenant] {
                let res = wire.client.apply(fresh, batch);
                wire.note(res);
            }
            let old = std::mem::replace(&mut tenants[*tenant].session, fresh);
            tenants[*tenant].applied.clear();
            let res = wire.client.close(old);
            wire.note(res);
            rtt
        }
        Op::Write(WriteOp::Probe) => {
            let (res, rtt) = timed(|| wire.client.open(&wire.inputs.sigma));
            layers.rec("open", "rtt", rtt);
            if let Some(id) = wire.note(res) {
                let res = wire.client.close(id);
                wire.note(res);
            }
            rtt
        }
    }
}

/// Time `Request` encode + decode, returning the payload size.
fn codec_request(req: &Request) -> Result<(f64, usize), String> {
    let (payload, enc) = timed(|| req.encode(7));
    let (dec, us) = timed(|| Request::decode(&payload));
    dec.map_err(|e| format!("decode: {e}"))?;
    Ok((enc + us, payload.len()))
}

/// Time `Response` encode + decode, returning the payload size.
fn codec_response(resp: &Response) -> Result<(f64, usize), String> {
    let (payload, enc) = timed(|| resp.encode(7));
    let (dec, us) = timed(|| Response::decode(&payload));
    dec.map_err(|e| format!("decode: {e}"))?;
    Ok((enc + us, payload.len()))
}

/// Replay a query in process, layer by layer.
fn twin_read(
    twin: &Twin,
    tenant: &Mirrored,
    qi: usize,
    layers: &mut Layers,
    rtt: f64,
) -> Result<(), String> {
    let text = &twin.inputs.pool[qi];
    let opts = QueryOpts::default();
    let (req_us, req_bytes) = codec_request(&Request::Query {
        session: tenant.session,
        cq: text.clone(),
        opts,
    })?;
    let (q, parse) = timed(|| ConjunctiveQuery::parse(text));
    let q = q.map_err(|e| e.to_string())?;
    let (h, route) = timed(|| twin.conductor.route(tenant.session));
    let h = h.map_err(|e| e.to_string())?;
    let (ans, call) = timed(|| h.query(&q, opts));
    let ans = ans.map_err(|e| e.to_string())?;
    // Rendering terms to text is part of the reply's encode, as in the server.
    let (resp, render) = timed(|| Response::Answers {
        tuples: ans
            .into_iter()
            .map(|t| t.into_iter().map(|term| term.to_string()).collect())
            .collect(),
    });
    let (resp_us, resp_bytes) = codec_response(&resp)?;
    let codec = req_us + render + resp_us;
    layers.rec("query", "codec", codec);
    layers.rec("query", "parse", parse);
    layers.rec("query", "route", route);
    layers.rec("query", "call", call);
    layers.rec("query", "overhead", rtt - (codec + parse + route + call));
    layers.rec("all", "bytes", (req_bytes + resp_bytes) as f64);
    let target = twin.rewritten[qi].as_ref().unwrap_or(&q);
    let (answers, eval) = timed(|| target.evaluate_certain(tenant.mem.instance()));
    layers.rec("cq", "eval", eval);
    layers.rec("cq", "answers", answers.len() as f64);
    Ok(())
}

/// Replay a write tick in process. `rtt` is the TCP round trip of its
/// timed request (0 in an untraced block: nothing is recorded then).
fn twin_write(
    twin: &mut Twin,
    tenants: &mut [Mirrored],
    op: &WriteOp,
    layers: &mut Layers,
    rtt: f64,
) -> Result<(), String> {
    let traced = rtt > 0.0;
    match op {
        WriteOp::Apply { tenant, facts } => {
            let t = &mut tenants[*tenant];
            let (req_us, req_bytes) = codec_request(&Request::Apply {
                session: t.session,
                facts: facts.clone(),
            })?;
            let (atoms, parse) = timed(|| parse_facts(facts));
            let atoms = atoms?;
            let n = atoms.len();
            let (h, route) = timed(|| twin.conductor.route(t.session));
            let h = h.map_err(|e| e.to_string())?;
            let (out, call) = timed(|| h.apply(atoms.clone()));
            let outcome = out.map_err(|e| format!("twin apply: {e}"))?;
            let mem_atoms = atoms.clone();
            let (m, engine) = timed(|| t.mem.apply(mem_atoms));
            let m = m.map_err(|e| format!("mirror apply: {e}"))?;
            let durable = match &mut t.durable {
                Some((d, _)) => {
                    let (r, us) = timed(|| d.apply(atoms));
                    r.map_err(|e| format!("durable mirror apply: {e}"))?;
                    Some(us)
                }
                None => None,
            };
            if !traced {
                return Ok(());
            }
            let (resp_us, resp_bytes) = codec_response(&Response::Applied { outcome })?;
            let codec = req_us + resp_us;
            let wal = durable.map_or(0.0, |d| d - engine);
            let wait = call - durable.unwrap_or(engine);
            layers.rec("apply", "codec", codec);
            layers.rec("apply", "parse", parse);
            layers.rec("apply", "route", route);
            layers.rec("apply", "call", call);
            layers.rec("apply", "wait", wait);
            layers.rec("apply", "engine", engine);
            layers.rec("apply", "wal", wal);
            layers.rec("apply", "overhead", rtt - (codec + parse + route + call));
            layers.rec("all", "bytes", (req_bytes + resp_bytes) as f64);
            layers.rec("engine", "steps", m.steps as f64);
            layers.rec("engine", "nulls", m.fresh_nulls as f64);
            layers.rec("engine", "new_ratio", m.new_facts as f64 / n.max(1) as f64);
        }
        WriteOp::Restore { tenant } => {
            let t = &mut tenants[*tenant];
            let (snap, mem_snap) = t.snapshot.as_ref().ok_or("restore without a snapshot")?;
            let h = twin.conductor.route(t.session).map_err(|e| e.to_string())?;
            h.restore(*snap).map_err(|e| format!("twin restore: {e}"))?;
            t.mem.restore(mem_snap);
        }
        WriteOp::Churn { tenant } => {
            let id = twin_open(twin, layers, rtt)?;
            let fresh = twin.load_tenant(*tenant, id, false)?;
            let old = std::mem::replace(&mut tenants[*tenant], fresh);
            twin.conductor
                .close(old.session)
                .map_err(|e| e.to_string())?;
        }
        WriteOp::Probe => {
            let id = twin_open(twin, layers, rtt)?;
            twin.conductor.close(id).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Replay an `Open` in process; returns the twin session id.
fn twin_open(twin: &Twin, layers: &mut Layers, rtt: f64) -> Result<u64, String> {
    let (req_us, req_bytes) = codec_request(&Request::Open {
        sigma: twin.inputs.sigma.clone(),
    })?;
    let (set, parse) = timed(|| ConstraintSet::parse(&twin.inputs.sigma));
    let set = set.map_err(|e| e.to_string())?;
    let (id, call) = timed(|| twin.conductor.open(set));
    let id = id.map_err(|e| format!("twin open: {e}"))?;
    if rtt > 0.0 {
        let (resp_us, resp_bytes) = codec_response(&Response::Opened { session: id })?;
        let codec = req_us + resp_us;
        layers.rec("open", "codec", codec);
        layers.rec("open", "parse", parse);
        layers.rec("open", "call", call);
        layers.rec("open", "overhead", rtt - (codec + parse + call));
        layers.rec("all", "bytes", (req_bytes + resp_bytes) as f64);
    }
    Ok(id)
}

/// Counters read off the twin and the mirrors after the run.
struct Extra {
    publishes: u64,
    skipped: u64,
    dispatches: u64,
    messages: u64,
    facts_resident: usize,
    appends: u64,
    fsyncs: u64,
    wal_bytes: u64,
    snapshots: u64,
    user_bytes: usize,
    replayed: f64,
    rewritten: f64,
}

/// Print the per-layer table with coverage, and return the metrics.
fn report(layers: &Layers, untraced: &Layers, x: Extra) -> Vec<Metric> {
    let mut coverage = BTreeMap::new();
    for (op, parts) in [
        ("query", &QUERY_PARTS[..]),
        ("apply", &APPLY_PARTS[..]),
        ("open", &OPEN_PARTS[..]),
    ] {
        let rtt = layers.get(op, "rtt");
        let e2e = rtt.median();
        println!(
            "  {op}: round trip p50 {e2e:.1} us traced, {:.1} us untraced (n={})",
            untraced.med(op, "rtt"),
            rtt.len()
        );
        let mut sum = 0.0;
        for part in parts {
            let m = layers.med(op, part);
            sum += m;
            println!(
                "    {part:<9} p50 {m:>10.1} us  {:>5.1}% of the round trip",
                100.0 * m / e2e
            );
        }
        let cov = sum / e2e;
        let flag = if (cov - 1.0).abs() > COVERAGE_BAND {
            "  OUTSIDE the 10% band"
        } else {
            ""
        };
        println!("    coverage {cov:.3}{flag}");
        coverage.insert(op, cov);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let overhead_ratio = ratio(layers.med("query", "rtt"), untraced.med("query", "rtt"));
    let metrics = vec![
        metric("server.overhead_us", layers.med("query", "overhead"), "us"),
        metric("proto.codec_us", layers.med("query", "codec"), "us"),
        metric("proto.bytes_per_op", layers.get("all", "bytes").mean(), "B"),
        metric("parser.facts_us", layers.med("apply", "parse"), "us"),
        metric("parser.cq_us", layers.med("query", "parse"), "us"),
        metric("parser.sigma_us", layers.med("open", "parse"), "us"),
        metric("conductor.open_us", layers.med("open", "call"), "us"),
        metric("conductor.route_us", layers.med("query", "route"), "us"),
        metric("conductor.query_us", layers.med("query", "call"), "us"),
        metric("conductor.apply_wait_us", layers.med("apply", "wait"), "us"),
        metric("conductor.publish_total", x.publishes as f64, "count"),
        metric(
            "conductor.publish_skip_ratio",
            ratio(x.skipped as f64, (x.publishes + x.skipped) as f64),
            "ratio",
        ),
        metric(
            "conductor.msgs_per_dispatch",
            ratio(x.messages as f64, x.dispatches as f64),
            "ratio",
        ),
        metric("engine.apply_us", layers.med("apply", "engine"), "us"),
        metric(
            "engine.steps_per_apply",
            layers.get("engine", "steps").mean(),
            "count",
        ),
        metric(
            "engine.nulls_per_apply",
            layers.get("engine", "nulls").mean(),
            "count",
        ),
        metric(
            "engine.new_fact_ratio",
            layers.get("engine", "new_ratio").mean(),
            "ratio",
        ),
        metric("engine.facts_resident", x.facts_resident as f64, "count"),
        metric("wal.append_us", layers.med("apply", "wal"), "us"),
        metric(
            "wal.fsyncs_per_apply",
            ratio(x.fsyncs as f64, x.appends as f64),
            "ratio",
        ),
        metric(
            "wal.bytes_per_user_byte",
            ratio(x.wal_bytes as f64, x.user_bytes as f64),
            "ratio",
        ),
        metric("wal.snapshots", x.snapshots as f64, "count"),
        metric("wal.reopen_us", layers.med("wal", "reopen"), "us"),
        metric("wal.replayed_records", x.replayed, "count"),
        metric("sqo.rewrite_us", layers.med("sqo", "rewrite"), "us"),
        metric("sqo.rewritten_ratio", x.rewritten, "ratio"),
        metric("cq.eval_us", layers.med("cq", "eval"), "us"),
        metric(
            "cq.answers_per_query",
            layers.get("cq", "answers").mean(),
            "count",
        ),
        metric("trace.coverage.query", coverage["query"], "ratio"),
        metric("trace.coverage.apply", coverage["apply"], "ratio"),
        metric("trace.coverage.open", coverage["open"], "ratio"),
        metric("trace.overhead_ratio", overhead_ratio, "ratio"),
    ];
    for m in &metrics {
        println!("  {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    metrics
}
