//! The engine-facing recording surface: a [`Recorder`] handle that is either
//! enabled (an `Arc` of phase histograms plus an event ring) or disabled (a
//! `None` — every call is one branch and returns immediately).
//!
//! The engine threads a `Recorder` through its hot loops; the disabled path
//! never touches a clock, so leaving instrumentation compiled in costs one
//! predictable branch per site (bench-gated at <2% on the `ex4_strategies`
//! medians). Recording is strictly write-only from the engine's point of
//! view: nothing reads timers or events back into trigger selection, which
//! is what keeps the deterministic trace bit-identical with recording on.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::registry::RegistrySnapshot;
use crate::ring::{Event, EventKind, EventRing};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The stages a chase resume decomposes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Semi-naive re-matching of constraint bodies against delta facts.
    DeltaMatch,
    /// Re-checking head satisfaction of pooled triggers (Standard mode).
    HeadRevalidate,
    /// Applying a TGD step's head: inserting facts / allocating nulls.
    Insert,
    /// One effective EGD merge: rewriting the store's facts and indexes,
    /// then remapping the trigger pool and, in oblivious mode, the fired
    /// memo (not the delta re-match, which is [`Phase::DeltaMatch`]).
    MergeRepair,
    /// Building or pruning the trigger pool.
    PoolMaintain,
    /// Compiling join plans in the matcher.
    PlanCompile,
    /// Encoding and appending a batch record to a session's write-ahead log.
    WalAppend,
    /// Waiting on the OS to flush WAL appends durable (`fsync`).
    WalFsync,
    /// Replaying WAL records through the warm resume path at reopen.
    WalReplay,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::DeltaMatch,
        Phase::HeadRevalidate,
        Phase::Insert,
        Phase::MergeRepair,
        Phase::PoolMaintain,
        Phase::PlanCompile,
        Phase::WalAppend,
        Phase::WalFsync,
        Phase::WalReplay,
    ];

    /// The snake_case name used in metric labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::DeltaMatch => "delta_match",
            Phase::HeadRevalidate => "head_revalidate",
            Phase::Insert => "insert",
            Phase::MergeRepair => "merge_repair",
            Phase::PoolMaintain => "pool_maintain",
            Phase::PlanCompile => "plan_compile",
            Phase::WalAppend => "wal_append",
            Phase::WalFsync => "wal_fsync",
            Phase::WalReplay => "wal_replay",
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    epoch: Instant,
    phases: [Histogram; Phase::ALL.len()],
    ring: EventRing,
}

/// A cloneable recording handle; disabled by default.
///
/// All clones of an enabled recorder share the same histograms and ring, so
/// a session can hand copies to its engine state and matcher and read one
/// aggregate back.
///
/// ```
/// use chase_obs::{EventKind, Phase, Recorder};
///
/// let rec = Recorder::enabled(16);
/// {
///     let _t = rec.phase(Phase::Insert); // RAII: records on drop
/// }
/// rec.event(EventKind::StepFired, 0, 1);
/// assert_eq!(rec.phase_snapshot(Phase::Insert).count(), 1);
/// assert_eq!(rec.events().len(), 1);
///
/// let off = Recorder::disabled(); // every call is a single branch
/// let _t = off.phase(Phase::Insert);
/// assert_eq!(off.phase_snapshot(Phase::Insert).count(), 0);
/// ```
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Recorder({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Recorder {
    /// A recorder that records nothing; every call costs one branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder whose event ring retains `ring_capacity` events.
    pub fn enabled(ring_capacity: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                epoch: Instant::now(),
                phases: std::array::from_fn(|_| Histogram::new()),
                ring: EventRing::new(ring_capacity),
            })),
        }
    }

    /// Whether this recorder retains anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start timing `phase`; the returned guard records the elapsed wall
    /// clock into the phase histogram when dropped. On a disabled recorder
    /// the clock is never read.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseTimer {
        PhaseTimer {
            armed: self
                .inner
                .as_ref()
                .map(|r| (Arc::clone(r), phase, Instant::now())),
        }
    }

    /// Record an already-measured phase duration in nanoseconds.
    #[inline]
    pub fn record_phase(&self, phase: Phase, nanos: u64) {
        if let Some(r) = &self.inner {
            r.phases[phase as usize].record(nanos);
        }
    }

    /// Append an event to the ring (dropped silently when disabled).
    #[inline]
    pub fn event(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = &self.inner {
            let at_ns = u64::try_from(r.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
            r.ring.push(Event { at_ns, kind, a, b });
        }
    }

    /// A copy of the retained events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|r| r.ring.snapshot())
            .unwrap_or_default()
    }

    /// Events evicted or rejected by the ring so far.
    pub fn events_dropped(&self) -> u64 {
        self.inner.as_ref().map(|r| r.ring.dropped()).unwrap_or(0)
    }

    /// A snapshot of one phase's latency distribution (empty when disabled).
    pub fn phase_snapshot(&self, phase: Phase) -> HistogramSnapshot {
        self.inner
            .as_ref()
            .map(|r| r.phases[phase as usize].snapshot())
            .unwrap_or_default()
    }

    /// Export every phase histogram into `snap` as
    /// `{prefix}{{phase="<name>"}}` series. No-op when disabled.
    pub fn export_phases(&self, prefix: &str, snap: &mut RegistrySnapshot) {
        if let Some(r) = &self.inner {
            for p in Phase::ALL {
                snap.set_histogram(
                    &format!("{prefix}{{phase=\"{}\"}}", p.name()),
                    r.phases[p as usize].snapshot(),
                );
            }
        }
    }
}

/// RAII guard returned by [`Recorder::phase`].
#[must_use = "a PhaseTimer records on drop; binding it to _ drops immediately"]
pub struct PhaseTimer {
    armed: Option<(Arc<RecorderInner>, Phase, Instant)>,
}

impl PhaseTimer {
    /// A timer that records nothing on drop. Lets a caller sample a hot
    /// site — keep one code path returning `PhaseTimer`, hand out a
    /// disarmed guard for the occurrences it chooses to skip — without
    /// reading the clock for the skipped ones.
    pub fn disarmed() -> PhaseTimer {
        PhaseTimer { armed: None }
    }
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((rec, phase, t0)) = self.armed.take() {
            rec.phases[phase as usize].record_duration(t0.elapsed());
        }
    }
}

/// The process-wide recorder, enabled when the `CHASE_OBS` environment
/// variable is set to anything but empty or `0` at first use.
///
/// One-shot entry points (`chase()`, the benches) default to this recorder,
/// so recording can be switched on for an unmodified binary — the CI
/// overhead smoke compares `CHASE_OBS=1` against unset on the same bench.
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(|| match std::env::var("CHASE_OBS") {
        Ok(v) if !v.is_empty() && v != "0" => Recorder::enabled(1024),
        _ => Recorder::disabled(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let rec = Recorder::disabled();
        drop(rec.phase(Phase::DeltaMatch));
        rec.record_phase(Phase::Insert, 99);
        rec.event(EventKind::Poison, 1, 2);
        assert!(!rec.is_enabled());
        assert_eq!(rec.phase_snapshot(Phase::Insert).count(), 0);
        assert!(rec.events().is_empty());
        let mut snap = RegistrySnapshot::new();
        rec.export_phases("x", &mut snap);
        assert_eq!(snap, RegistrySnapshot::new());
    }

    #[test]
    fn clones_share_sinks() {
        let rec = Recorder::enabled(8);
        let other = rec.clone();
        other.record_phase(Phase::PlanCompile, 500);
        other.event(EventKind::PlanRecompile, 1, 0);
        assert_eq!(rec.phase_snapshot(Phase::PlanCompile).count(), 1);
        assert_eq!(rec.events()[0].kind, EventKind::PlanRecompile);
    }

    #[test]
    fn export_phases_labels_series() {
        let rec = Recorder::enabled(0);
        rec.record_phase(Phase::MergeRepair, 1000);
        let mut snap = RegistrySnapshot::new();
        rec.export_phases("chase_phase_ns", &mut snap);
        let h = snap
            .histogram("chase_phase_ns{phase=\"merge_repair\"}")
            .unwrap();
        assert_eq!(h.count(), 1);
        assert!(snap
            .render()
            .contains("chase_phase_ns_count{phase=\"merge_repair\"} 1"));
    }

    #[test]
    fn timer_measures_nonzero() {
        let rec = Recorder::enabled(0);
        {
            let _t = rec.phase(Phase::PoolMaintain);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let s = rec.phase_snapshot(Phase::PoolMaintain);
        assert_eq!(s.count(), 1);
    }
}
