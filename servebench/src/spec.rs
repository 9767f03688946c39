//! The three workloads: their fixed parameters, and every input they send,
//! generated from `--seed` with `chase-corpus`. The server only ever sees
//! the generated surface-syntax text.

use std::collections::VecDeque;

use chase_core::Atom;
use chase_corpus::random::{
    merge_storm_sigma, merge_storm_stream, random_travel_instance, MergeStormConfig,
    RandomTravelConfig,
};
use chase_serve::FsyncPolicy;

use crate::stats::Rng;

/// The travel constraints every travel tenant runs under (Figure 9's α1
/// and α2: airports of flight endpoints, symmetric rail links).
pub const TRAVEL_SIGMA: &str =
    "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)";

/// Attribute tables of the merge-storm constraints.
const MERGE_ATTRIBUTES: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    TenantChurn,
    BigTenant,
    DurableMerge,
}

/// Paced read lane: queries per second, every workload. A burst of stolen
/// CPU time queues every read due during it; at 1000/s a few percent of
/// stolen time doubled the query p50.
pub const READ_RATE: f64 = 250.0;

/// The tail percentiles reported as `apply_tail_ms` / `query_tail_ms`: the
/// higher of p90 and p99 with at least ten samples beyond it in the
/// counted paced windows, at every workload's rates. Fixed, so runs and
/// commits always compare the same percentile.
pub const APPLY_TAIL: f64 = 90.0;
pub const QUERY_TAIL: f64 = 99.0;

/// A workload's fixed parameters. Rates are paced-phase rates; the
/// saturated phase runs the same mix closed-loop.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Resident sessions.
    pub tenants: usize,
    /// Paced write lane: write ticks per second (an apply, a churn, a
    /// restore or an admission probe per tick).
    pub write_rate: f64,
    /// Every this many write ticks is an admission probe (0: never).
    pub probe_every: u64,
    /// Durable sessions with this fsync policy, or in-memory ones.
    pub fsync: Option<FsyncPolicy>,
    /// Travel sizes per tenant (cities, flights, rails) or merge-storm
    /// episodes preloaded per session.
    pub cities: usize,
    pub flights: usize,
    pub rails: usize,
    pub base_episodes: usize,
    /// Base facts per load batch (keeps each load apply within the
    /// server's per-batch step budget).
    pub load_batch: usize,
    /// Restore the big tenant to its loaded snapshot every this many applies.
    pub restore_every: usize,
    /// The lanes run in this many chunks, each followed by a sample round
    /// (a fresh set-up, and recoveries of a durable fleet), so the samples
    /// `setup_s` and `recover_s` take their medians over are spread across
    /// the whole run, not taken at one moment of a host whose speed drifts.
    pub rounds: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "tenant_churn",
        kind: Kind::TenantChurn,
        tenants: 32,
        write_rate: 24.0,
        probe_every: 0,
        fsync: None,
        cities: 150,
        flights: 1100,
        rails: 900,
        base_episodes: 0,
        load_batch: 250,
        restore_every: 0,
        rounds: 10,
    },
    Spec {
        name: "big_tenant",
        kind: Kind::BigTenant,
        tenants: 1,
        write_rate: 20.0,
        probe_every: 8,
        fsync: None,
        cities: 2500,
        flights: 50_000,
        rails: 50_000,
        base_episodes: 0,
        load_batch: 1000,
        restore_every: 64,
        rounds: 6,
    },
    Spec {
        name: "durable_merge",
        kind: Kind::DurableMerge,
        tenants: 4,
        write_rate: 70.0,
        probe_every: 16,
        fsync: Some(FsyncPolicy::EveryBatch),
        cities: 0,
        flights: 0,
        rails: 0,
        base_episodes: 16,
        load_batch: 0,
        restore_every: 0,
        rounds: 6,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything the fleet is set up from.
pub struct Inputs {
    /// Σ in surface syntax, as sent in `Open`.
    pub sigma: String,
    /// Per tenant: the load batches, as fact text.
    pub base: Vec<Vec<String>>,
    /// The read pool: distinct CQ texts the read lane draws from.
    pub pool: Vec<String>,
    /// The correctness probe set (the first one doubles as the recovery probe).
    pub probes: Vec<&'static str>,
}

/// Render atoms as a fact batch: `p(a,b). q(c). `.
pub fn batch_text<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> String {
    let mut s = String::new();
    for a in atoms {
        s.push_str(&a.to_string());
        s.push_str(". ");
    }
    s
}

pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 1);
    match spec.kind {
        Kind::TenantChurn | Kind::BigTenant => {
            let base = (0..spec.tenants)
                .map(|t| {
                    let inst = random_travel_instance(&RandomTravelConfig {
                        cities: spec.cities,
                        flights: spec.flights,
                        rails: spec.rails,
                        seed: seed.wrapping_mul(1000).wrapping_add(t as u64),
                    });
                    inst.atoms()
                        .chunks(spec.load_batch)
                        .map(batch_text)
                        .collect()
                })
                .collect();
            // Templates anchored at a base city. Fresh writes only ever use
            // fresh constants, so every pool answer is fixed for the run.
            // The second template of each pair has an atom Σ implies, which
            // SQO eliminates.
            let templates: &[&str] = if spec.kind == Kind::TenantChurn {
                &[
                    "q(Y) <- fly(@,Y,D)",
                    "q(Y) <- fly(@,Y,D), hasAirport(Y)",
                    "q(Y) <- rail(@,Y,D), rail(Y,@,D)",
                    "q(Z) <- rail(@,Y,D), fly(Y,Z,E)",
                ]
            } else {
                // The big tenant's writes only grow `rail`; reads never touch it.
                &[
                    "q(Y) <- fly(@,Y,D)",
                    "q(Y) <- fly(@,Y,D), hasAirport(Y)",
                    "q(Z) <- fly(@,Y,D), fly(Y,Z,E)",
                    "q(Y,D) <- fly(@,Y,D), hasAirport(@)",
                ]
            };
            let mut cities: Vec<usize> = Vec::new();
            while cities.len() < 12 {
                let c = rng.below(spec.cities);
                if !cities.contains(&c) {
                    cities.push(c);
                }
            }
            let pool = cities
                .into_iter()
                .flat_map(|c| {
                    let city = format!("city{c}");
                    templates
                        .iter()
                        .map(move |t| t.replace('@', &city))
                        .collect::<Vec<_>>()
                })
                .collect();
            Inputs {
                sigma: TRAVEL_SIGMA.to_string(),
                base,
                pool,
                probes: vec![
                    "q(X) <- hasAirport(X)",
                    "q(X,Y,D) <- rail(X,Y,D)",
                    "q(X,Y,D) <- fly(X,Y,D)",
                ],
            }
        }
        Kind::DurableMerge => {
            let base = (0..spec.tenants)
                .map(|t| {
                    let mut stream = MergeStream::new(seed, t);
                    (0..spec.base_episodes * EPISODE_BATCHES)
                        .map(|_| stream.next_batch())
                        .collect()
                })
                .collect();
            let mut pool = Vec::new();
            for i in 0..12 {
                // Distinct (attribute, value) anchors: 12 texts per template.
                let j = i % MERGE_ATTRIBUTES;
                let k = i / MERGE_ATTRIBUTES * 2 + rng.below(2);
                let j2 = (j + 1) % MERGE_ATTRIBUTES;
                let k2 = rng.below(8);
                pool.push(format!("q(E) <- A{j}(E,v{k})"));
                pool.push(format!("q(E) <- A{j}(E,v{k}), Uses(v{k})"));
                pool.push(format!("q(E) <- Val{j}(E,v{k}), Ent(E), A{j}(E,V)"));
                pool.push(format!("q(E) <- A{j}(E,v{k}), A{j2}(E,v{k2})"));
            }
            Inputs {
                sigma: merge_storm_sigma(MERGE_ATTRIBUTES).to_string(),
                base,
                pool,
                probes: vec![
                    "q(E) <- Ent(E)",
                    "q(E,V) <- A0(E,V)",
                    "q(E,V) <- A1(E,V)",
                    "q(E,V) <- A2(E,V)",
                    "q(V) <- Uses(V)",
                ],
            }
        }
    }
}

/// Batches per merge-storm episode.
const EPISODE_BATCHES: usize = 8;

/// One durable session's endless merge-storm stream: consecutive
/// `merge_storm_stream` episodes, each with its entities renamed apart, so
/// every batch declares entities (inventing nulls) and grounds earlier ones
/// (EGD merges) without ever repeating a fact or conflicting on a value.
pub struct MergeStream {
    seed: u64,
    session: usize,
    episode: u64,
    pending: VecDeque<String>,
}

impl MergeStream {
    pub fn new(seed: u64, session: usize) -> MergeStream {
        MergeStream {
            seed,
            session,
            episode: 0,
            pending: VecDeque::new(),
        }
    }

    pub fn next_batch(&mut self) -> String {
        if self.pending.is_empty() {
            let (_, batches) = merge_storm_stream(&MergeStormConfig {
                entities: 24,
                attributes: MERGE_ATTRIBUTES,
                values: 8,
                batches: EPISODE_BATCHES,
                seed: Rng::new(
                    self.seed,
                    2 + self.session as u64 * 1_000_003 + self.episode,
                )
                .next_u64(),
            });
            let prefix = format!("s{}p{}", self.session, self.episode);
            for batch in batches {
                let mut text = String::new();
                for a in &batch {
                    let terms: Vec<String> = a.terms().iter().map(|t| t.to_string()).collect();
                    text.push_str(&format!("{}({}{}", a.pred().as_str(), prefix, terms[0]));
                    for t in &terms[1..] {
                        text.push(',');
                        text.push_str(t);
                    }
                    text.push_str("). ");
                }
                self.pending.push_back(text);
            }
            self.episode += 1;
        }
        self.pending.pop_front().expect("an episode has batches")
    }
}

/// One write-lane tick.
pub enum WriteOp {
    /// A fresh fact batch for a tenant.
    Apply { tenant: usize, facts: String },
    /// Replace a tenant: open a new session, load its base facts, switch
    /// readers over, close the old one.
    Churn { tenant: usize },
    /// Rewind a tenant to the snapshot taken right after its load.
    Restore { tenant: usize },
    /// Admission probe: open a session and close it again.
    Probe,
}

/// The write lane's op sequence, a pure function of the seed.
pub struct WriteGen {
    kind: Kind,
    tenants: usize,
    probe_every: u64,
    restore_every: usize,
    rng: Rng,
    tick: u64,
    applies: u64,
    fresh: u64,
    streams: Vec<MergeStream>,
}

impl WriteGen {
    /// `streams` continue each durable session's merge stream where its
    /// base load stopped.
    pub fn new(spec: &Spec, seed: u64, lane: u64) -> WriteGen {
        let streams = (0..spec.tenants)
            .map(|t| {
                let mut s = MergeStream::new(seed, t);
                if spec.kind == Kind::DurableMerge {
                    for _ in 0..spec.base_episodes * EPISODE_BATCHES {
                        s.next_batch();
                    }
                }
                s
            })
            .collect();
        WriteGen {
            kind: spec.kind,
            tenants: spec.tenants,
            probe_every: spec.probe_every,
            restore_every: spec.restore_every,
            rng: Rng::new(seed, 100 + lane),
            tick: 0,
            applies: 0,
            fresh: lane << 40,
            streams,
        }
    }

    pub fn next_op(&mut self) -> WriteOp {
        self.tick += 1;
        match self.kind {
            Kind::TenantChurn => {
                if self.rng.below(3) < 2 {
                    let tenant = self.rng.below(self.tenants);
                    // Four flights and four rail links between fresh cities.
                    self.fresh += 1;
                    let k = self.fresh;
                    let mut facts = String::new();
                    for i in 0..4 {
                        facts.push_str(&format!(
                            "fly(n{k}x{i}a,n{k}x{i}b,d{i}). rail(n{k}x{i}c,n{k}x{i}d,d{i}). "
                        ));
                    }
                    WriteOp::Apply { tenant, facts }
                } else {
                    // Only a quarter of the tenants churn. A churned-in
                    // session answers every pool query first-sight once, and
                    // churning them all would make about a third of all reads
                    // first-sight: the query p50 would sit on the boundary
                    // between rewrites and cache hits.
                    WriteOp::Churn {
                        tenant: self.rng.below(self.tenants / 4),
                    }
                }
            }
            Kind::BigTenant | Kind::DurableMerge => {
                if self.probe_every > 0 && self.tick.is_multiple_of(self.probe_every) {
                    return WriteOp::Probe;
                }
                let tenant = (self.applies % self.tenants as u64) as usize;
                self.applies += 1;
                if self.restore_every > 0 && self.applies.is_multiple_of(self.restore_every as u64)
                {
                    return WriteOp::Restore { tenant };
                }
                let facts = if self.kind == Kind::BigTenant {
                    self.fresh += 1;
                    let k = self.fresh;
                    (0..16)
                        .map(|i| format!("rail(w{k}x{i}a,w{k}x{i}b,d{}). ", i % 8))
                        .collect()
                } else {
                    self.streams[tenant].next_batch()
                };
                WriteOp::Apply { tenant, facts }
            }
        }
    }
}

impl WriteGen {
    /// The next batch of durable session `t`'s merge-storm stream.
    pub fn stream_batch(&mut self, t: usize) -> String {
        self.streams[t].next_batch()
    }
}

/// The read lane's op sequence: (tenant, pool index) pairs.
pub struct ReadGen {
    rng: Rng,
    tenants: usize,
    pool: usize,
}

impl ReadGen {
    pub fn new(spec: &Spec, pool: usize, seed: u64, lane: u64) -> ReadGen {
        ReadGen {
            rng: Rng::new(seed, 200 + lane),
            tenants: spec.tenants,
            pool,
        }
    }

    pub fn next_op(&mut self) -> (usize, usize) {
        (self.rng.below(self.tenants), self.rng.below(self.pool))
    }
}
