//! The allocator under test, with the host-side readings the benchmark
//! takes between launches.

use crate::timed::Timed;
use gallatin::{DevicePool, Gallatin, GallatinPool};
use gpu_sim::metrics::MetricsSnapshot;
use gpu_sim::DeviceAllocator;
use std::sync::Arc;

/// One allocator instance of a workload.
#[derive(Clone)]
pub enum Heap {
    /// One `Gallatin`.
    Single(Arc<Gallatin>),
    /// A `GallatinPool`.
    Pool(Arc<GallatinPool>),
    /// A multi-device `DevicePool`.
    Devices(Arc<DevicePool>),
    /// Any other allocator: no tier geometry, no introspection.
    Other(Arc<dyn DeviceAllocator>),
}

impl Heap {
    fn dyn_alloc(&self) -> Arc<dyn DeviceAllocator> {
        match self {
            Heap::Single(g) => g.clone(),
            Heap::Pool(p) => p.clone(),
            Heap::Devices(d) => d.clone(),
            Heap::Other(a) => a.clone(),
        }
    }

    fn instances(&self) -> Vec<&Gallatin> {
        match self {
            Heap::Single(g) => vec![g],
            Heap::Pool(p) => (0..p.num_instances()).map(|i| p.instance(i)).collect(),
            Heap::Devices(d) => (0..d.devices() as usize)
                .flat_map(|k| {
                    let p = d.pool(k);
                    (0..p.num_instances()).map(move |i| p.instance(i))
                })
                .collect(),
            Heap::Other(_) => Vec::new(),
        }
    }

    /// The allocator wrapped for timing.
    pub fn timed(&self) -> Timed {
        let (max_slice, segment_bytes) = match self.instances().first() {
            Some(g) => (g.geometry().max_slice(), g.geometry().segment_bytes),
            None => (u64::MAX, u64::MAX),
        };
        Timed::new(self.dyn_alloc(), max_slice, segment_bytes)
    }

    /// Segment size (0 without introspection).
    pub fn segment_bytes(&self) -> u64 {
        self.instances().first().map_or(0, |g| g.geometry().segment_bytes)
    }

    /// Segments of the whole heap.
    pub fn num_segments(&self) -> u64 {
        self.instances().first().map_or(0, |g| g.geometry().num_segments)
    }

    /// Free segments: every instance's segment tree plus pool free lists.
    pub fn free_segments(&self) -> u64 {
        let parked = match self {
            Heap::Pool(p) => p.pool_free_segments(),
            Heap::Devices(d) => {
                (0..d.devices() as usize).map(|k| d.pool(k).pool_free_segments()).sum()
            }
            _ => 0,
        };
        self.instances().iter().map(|g| g.free_segments()).sum::<u64>() + parked
    }

    /// Bytes held: segments not free, times the segment size.
    pub fn held_bytes(&self) -> u64 {
        self.num_segments().saturating_sub(self.free_segments()) * self.segment_bytes()
    }

    /// Allocator counters summed over every instance (plus the
    /// topology's traffic counters).
    pub fn counters(&self) -> MetricsSnapshot {
        let mut snaps: Vec<MetricsSnapshot> =
            self.instances().iter().filter_map(|g| g.metrics()).map(|m| m.snapshot()).collect();
        match self {
            Heap::Devices(d) => snaps.extend(d.metrics().map(|m| m.snapshot())),
            Heap::Other(a) => snaps.extend(a.metrics().map(|m| m.snapshot())),
            _ => {}
        }
        snaps.iter().fold(MetricsSnapshot::default(), |a, b| add(&a, b))
    }

    /// Spills inside a device (home instance → sibling).
    pub fn spills(&self) -> u64 {
        match self {
            Heap::Pool(p) => p.total_spills(),
            Heap::Devices(d) => (0..d.devices() as usize).map(|k| d.pool(k).total_spills()).sum(),
            _ => 0,
        }
    }

    /// Spills across devices.
    pub fn cross_spills(&self) -> u64 {
        match self {
            Heap::Devices(d) => d.total_cross_spills(),
            _ => 0,
        }
    }

    /// Touch every page of the arena once, so the timed launches do not
    /// pay first-touch page faults (a GPU heap is resident from
    /// `cudaMalloc` on). Only valid before the first allocation.
    pub fn prefault(&self) {
        let a = self.dyn_alloc();
        a.memory().zero_range(0, a.memory().len());
    }

    /// `check_invariants` of the whole allocator (quiescent only).
    pub fn check(&self) -> Result<(), String> {
        self.dyn_alloc().check_invariants()
    }
}

/// `a + b`, counter by counter.
pub fn add(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    MetricsSnapshot {
        atomic_rmw: a.atomic_rmw + b.atomic_rmw,
        cas_attempts: a.cas_attempts + b.cas_attempts,
        cas_failures: a.cas_failures + b.cas_failures,
        lock_acquires: a.lock_acquires + b.lock_acquires,
        coalesced_requests: a.coalesced_requests + b.coalesced_requests,
        mallocs: a.mallocs + b.mallocs,
        frees: a.frees + b.frees,
        failed_mallocs: a.failed_mallocs + b.failed_mallocs,
        reclaim_attempts: a.reclaim_attempts + b.reclaim_attempts,
        reclaim_aborts: a.reclaim_aborts + b.reclaim_aborts,
        drain_spins: a.drain_spins + b.drain_spins,
        straggler_bounces: a.straggler_bounces + b.straggler_bounces,
        local_accesses: a.local_accesses + b.local_accesses,
        peer_accesses: a.peer_accesses + b.peer_accesses,
    }
}

/// `b − a`, counter by counter.
pub fn delta(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let d = |x: u64, y: u64| y.saturating_sub(x);
    MetricsSnapshot {
        atomic_rmw: d(a.atomic_rmw, b.atomic_rmw),
        cas_attempts: d(a.cas_attempts, b.cas_attempts),
        cas_failures: d(a.cas_failures, b.cas_failures),
        lock_acquires: d(a.lock_acquires, b.lock_acquires),
        coalesced_requests: d(a.coalesced_requests, b.coalesced_requests),
        mallocs: d(a.mallocs, b.mallocs),
        frees: d(a.frees, b.frees),
        failed_mallocs: d(a.failed_mallocs, b.failed_mallocs),
        reclaim_attempts: d(a.reclaim_attempts, b.reclaim_attempts),
        reclaim_aborts: d(a.reclaim_aborts, b.reclaim_aborts),
        drain_spins: d(a.drain_spins, b.drain_spins),
        straggler_bounces: d(a.straggler_bounces, b.straggler_bounces),
        local_accesses: d(a.local_accesses, b.local_accesses),
        peer_accesses: d(a.peer_accesses, b.peer_accesses),
    }
}
