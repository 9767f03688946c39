//! Small numeric helpers: a seeded PRNG, order statistics, answer
//! fingerprints, the host's current speed, the process's peak RSS, and the
//! one-line JSON result.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// SplitMix64: a tiny seeded generator, so every input the benchmark makes
/// is a pure function of `--seed` and a stream label.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Latency samples in microseconds.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn push_us(&mut self, us: f64) {
        self.0.push(us);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The `p`-th percentile (0–100), linearly interpolated; 0 when empty.
    pub fn pct(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.0.iter().sum::<f64>() / self.0.len() as f64
        }
    }
}

pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many of `n` samples lie beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

/// Order-independent fingerprint of an answer set: tuple count plus the
/// wrapping sum of each tuple's FNV-1a hash.
pub fn fingerprint<'a, T: AsRef<str> + 'a>(
    tuples: impl IntoIterator<Item = impl IntoIterator<Item = T>>,
) -> (usize, u64) {
    let mut n = 0;
    let mut sum = 0u64;
    for tuple in tuples {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for term in tuple {
            for b in term.as_ref().bytes().chain([0x1f]) {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        sum = sum.wrapping_add(h);
        n += 1;
    }
    (n, sum)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A named metric with its unit, in print order.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Per-kind operation counts for one phase: attempted, succeeded, and
/// failures by cause (an `ErrorCode`, `io`, `unexpected`, `wrong_answer`).
#[derive(Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub failed: BTreeMap<String, u64>,
}

impl Tally {
    pub fn failed_total(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn fail(&mut self, cause: &str) {
        *self.failed.entry(cause.to_string()).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (k, v) in &other.failed {
            *self.failed.entry(k.clone()).or_default() += v;
        }
    }
}

/// Seconds the calibration loop takes on the reference host, a shared
/// 2-core virtual machine, about its typical reading there. A time scaled
/// by `CALIB_REF / calibrate()` reads as seconds on that host.
pub const CALIB_REF: f64 = 0.012;

type FixedHasher = BuildHasherDefault<DefaultHasher>;

/// How long the host takes, right now, to run a fixed loop of the kind of
/// work the server does — formatting and splitting fact text, hashing its
/// terms into a map and looking them up — in seconds (the median of three
/// repetitions). It uses only the standard library, so no change to the
/// program moves it; it tracks the shared host's CPU speed, which drifts by
/// ±25% over seconds to minutes. (A variant that also copied and hashed a
/// 200k-tuple table out of cache tracked the program worse: its times
/// varied far more than the program's did.)
pub fn calibrate() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut rng = Rng::new(0, 0);
            let mut map: HashMap<String, u64, FixedHasher> = HashMap::default();
            for i in 0..20_000u64 {
                let fact = format!(
                    "fly(city{},city{},d{})",
                    rng.below(7500),
                    rng.below(7500),
                    i % 8
                );
                for term in fact.split(['(', ',', ')']).filter(|t| !t.is_empty()) {
                    *map.entry(term.to_string()).or_default() += i;
                }
            }
            let mut hits = 0u64;
            for k in 0..20_000 {
                hits += map.get(&format!("city{k}")).copied().unwrap_or(0);
            }
            std::hint::black_box(hits);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}
