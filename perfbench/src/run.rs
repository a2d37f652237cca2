//! What every workload shares: run options, the phase budget, the
//! guarded timed launch, and the per-phase sample the report is built
//! from.

use crate::guard::{self, Guarded, Tally};
use crate::heap::{add, delta, Heap};
use crate::report::Metric;
use crate::timed::Timed;
use crate::trace::{self, Layer};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::{DeviceAllocator, DeviceConfig};
use std::time::{Duration, Instant};

/// A launch still running after this long is declared hung. Healthy
/// launches of every workload take milliseconds to tens of
/// milliseconds on a 2-core host.
pub const LAUNCH_DEADLINE: Duration = Duration::from_secs(5);

/// Options of one benchmark process.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Simulator worker threads (the pinned pool width).
    pub workers: usize,
}

/// How long a phase may run.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Time from the first timed launch after which no launch starts.
    pub time: Duration,
    /// Timed launches after which no launch starts (the traced phase
    /// replays the untraced phase's count).
    pub max_launches: Option<u64>,
    /// Per-launch deadline.
    pub deadline: Duration,
}

impl Budget {
    /// A time-bounded budget with the standard deadline.
    pub fn for_time(time: Duration) -> Self {
        Budget { time, max_launches: None, deadline: LAUNCH_DEADLINE }
    }

    /// Whether another launch may start.
    pub fn open(&self, started: Instant, launches: u64) -> bool {
        started.elapsed() < self.time && self.max_launches.is_none_or(|m| launches < m)
    }
}

/// The shape a workload launches at, for the layer microbenches.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Device of the timed launches.
    pub device: DeviceConfig,
    /// Threads per timed launch.
    pub threads: u64,
    /// vEB universes of the heap: segment count, blocks per segment.
    pub universes: Vec<u64>,
}

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Sample {
    /// Failure accounting.
    pub tally: Tally,
    /// Host time of each timed launch, ms.
    pub launch_ms: Vec<f64>,
    /// Launches carrying operations started (for
    /// [`Budget::max_launches`]).
    pub launches: u64,
    /// Summed host time of the timed launches, s.
    pub timed_s: f64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// The workload's units of work completed per second, one sample per
    /// timed launch (per round in the slice workloads, per engine run in
    /// `serve-replay`).
    pub rates: Vec<f64>,
    /// Workload-specific end-to-end metrics.
    pub end_to_end: Vec<Metric>,
    /// Workload-specific per-layer metrics.
    pub layers: Vec<Metric>,
    /// Peak bytes held (non-free segments × segment size), read between
    /// launches.
    pub peak_held: u64,
    /// Peak live requested bytes.
    pub peak_live: u64,
    /// Bytes still held once every allocation was freed.
    pub drain_retained: Option<u64>,
    /// Allocator counters over the phase (summed over rebuilds).
    pub counters: MetricsSnapshot,
    /// Lowest free-segment count read between launches.
    pub free_segments_min: Option<u64>,
    /// In-device spills over the phase.
    pub spills: u64,
    /// Cross-device spills over the phase.
    pub cross_spills: u64,
    /// Coordinator turn grants (deterministic launches only).
    pub grants: u64,
    /// Host time spent after the last batch of each engine run (ledger
    /// audit and reduction), s.
    pub tail_s: f64,
}

/// The allocator a phase measures: the heap, its timing wrapper, and
/// the counter readings it started from.
pub struct Target {
    /// The heap.
    pub heap: Heap,
    /// The heap behind the timing wrapper.
    pub alloc: Timed,
    base: Reading,
    /// The last reading between launches.
    last: Reading,
}

/// Counter readings of a heap.
#[derive(Clone, Copy)]
struct Reading {
    counters: MetricsSnapshot,
    spills: u64,
    cross: u64,
}

impl Reading {
    fn of(heap: &Heap) -> Self {
        Reading { counters: heap.counters(), spills: heap.spills(), cross: heap.cross_spills() }
    }
}

impl Target {
    /// Start measuring `heap`.
    pub fn new(heap: Heap) -> Self {
        let base = Reading::of(&heap);
        Target { alloc: heap.timed(), heap, base, last: base }
    }

    /// Read the heap between launches: occupancy into `s`, counters kept
    /// so that a launch that then hangs can be left out of them.
    pub fn observe(&mut self, s: &mut Sample) {
        s.peak_held = s.peak_held.max(self.heap.held_bytes());
        let free = self.heap.free_segments();
        s.free_segments_min = Some(s.free_segments_min.map_or(free, |m| m.min(free)));
        self.last = Reading::of(&self.heap);
    }

    /// Reset the allocator between launches. A reset zeroes its
    /// counters, so their movement so far goes into `s` first.
    pub fn reset(&mut self, s: &mut Sample) {
        self.fold(s, &Reading::of(&self.heap));
        self.alloc.reset();
        self.base = Reading::of(&self.heap);
        self.last = self.base;
    }

    /// Add the heap's counter movement into `s`, then check it and let it
    /// go (after a panic, before a rebuild). Dropping the heap before the
    /// next is built keeps one arena resident at a time.
    pub fn retire(self, s: &mut Sample) {
        self.fold(s, &Reading::of(&self.heap));
        check(s, &self.heap);
    }

    /// End of phase: counters, and unless a launch hung (the heap is then
    /// still in use), the bytes held once drained and the invariant check.
    /// A hung launch's counters are left out and reported on their own:
    /// they show what it was spinning on.
    pub fn finish(self, s: &mut Sample, hung: bool) {
        let now = Reading::of(&self.heap);
        if hung {
            self.fold(s, &self.last);
            let d = delta(&self.last.counters, &now.counters);
            s.tally.notes.push(format!(
                "while the abandoned launch ran: {} CAS ({} failed), {} RMW, {} straggler bounces, \
                 {} drain spins, {} reclaim attempts",
                d.cas_attempts,
                d.cas_failures,
                d.atomic_rmw,
                d.straggler_bounces,
                d.drain_spins,
                d.reclaim_attempts
            ));
        } else {
            self.fold(s, &now);
            s.drain_retained = Some(self.heap.held_bytes());
            check(s, &self.heap);
        }
    }

    fn fold(&self, s: &mut Sample, upto: &Reading) {
        s.counters = add(&s.counters, &delta(&self.base.counters, &upto.counters));
        s.spills += upto.spills.saturating_sub(self.base.spills);
        s.cross_spills += upto.cross.saturating_sub(self.base.cross);
    }
}

/// Why a guarded launch produced no time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lost {
    /// It panicked: the allocator must be rebuilt, the run goes on.
    Panicked,
    /// It missed its deadline: the run ends.
    Hung,
}

/// Run `f` as one launch of `ops` operations under the deadline,
/// charging failures to `s`. If the launch hangs, the run's remaining
/// operations are priced from the time left in `budget` when it started.
/// The launch's host time is recorded as a [`Layer::Launch`] span when
/// tracing, unless the launch carries no operations (an untimed check
/// kernel).
pub fn launch<T: Send + 'static>(
    s: &mut Sample,
    ops: u64,
    started: Instant,
    budget: &Budget,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<(T, Duration), Lost> {
    s.tally.attempted += ops;
    s.launches += u64::from(ops > 0);
    let at = started.elapsed();
    match guard::run(budget.deadline, f) {
        Guarded::Done(v, took) => {
            if ops > 0 {
                trace::record(Layer::Launch, 1, took.as_nanos() as u64);
            }
            Ok((v, took))
        }
        Guarded::Panicked(msg) => {
            s.tally.panicked(ops, msg);
            Err(Lost::Panicked)
        }
        Guarded::TimedOut => {
            s.tally.hung(ops, at, budget.time);
            s.tally.notes.push(format!(
                "check_invariants not run: a launch was still running after {:?} and was abandoned",
                budget.deadline
            ));
            Err(Lost::Hung)
        }
    }
}

/// Run `check_invariants` on the quiescent `heap` (guarded: a corrupt
/// heap may panic or loop while being walked) and keep its error text.
pub fn check(s: &mut Sample, heap: &Heap) {
    let h = heap.clone();
    match guard::run(Duration::from_secs(30), move || h.check()) {
        Guarded::Done(r, _) => s.tally.invariants(r),
        Guarded::Panicked(m) => s.tally.invariants(Err(format!("check_invariants panicked: {m}"))),
        Guarded::TimedOut => {
            s.tally.invariants(Err("check_invariants did not finish in 30 s".into()))
        }
    }
}

/// Record a completed timed launch that did `work` units of work.
pub fn timed(s: &mut Sample, took: Duration, work: u64) {
    s.timed_s += took.as_secs_f64();
    s.launch_ms.push(took.as_secs_f64() * 1e3);
    s.rates.push(work as f64 / took.as_secs_f64());
}
