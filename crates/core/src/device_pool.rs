//! The multi-device face of the pool.
//!
//! A [`DevicePool`] is a [`GallatinPool`] built over a [`Topology`](gpu_sim::Topology) of
//! `devices` arenas of `width` instances each — the same single
//! `devices × width` placement walk, owner table, parked lists, and
//! ownership audit (see `crate::pool` and `crate::elastic`), with
//! nothing layered on top. It derefs to the pool for every counter and
//! elastic operation ([`GallatinPool::donate_across`],
//! [`GallatinPool::total_cross_spills`], …) and adds only:
//!
//! * a borrowed per-device view ([`DevicePool::pool`]) and the
//!   topology snapshot ([`DevicePool::topo_stats`]);
//! * its [`DeviceAllocator`] identity: the name `"DevicePool"`, and
//!   [`DeviceAllocator::metrics`] returning the local/peer traffic
//!   counters (a plain [`GallatinPool`] reports per-instance metrics
//!   only).
//!
//! Bytes are never copied between devices: a segment donated across
//! devices stays resident on its physical device and the recipient
//! serves it as peer memory, which the traffic counters then show.

use crate::config::GallatinConfig;
use crate::gallatin::Gallatin;
use crate::pool::{GallatinPool, PoolStats};
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics, WarpCtx};
use std::ops::Deref;
use std::sync::atomic::Ordering;

/// A [`GallatinPool`] spanning `devices` devices: SM→device affinity,
/// ownership-routed frees, cross-device spill as the last resort, and
/// quiesce-gated cross-device segment donation.
pub struct DevicePool(GallatinPool);

/// Point-in-time snapshot of the whole topology's occupancy, pressure,
/// and interconnect traffic — what the E23 scaling experiment reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopoStats {
    /// Total bytes across every device.
    pub heap_bytes: u64,
    /// Total bytes reserved across every device.
    pub reserved_bytes: u64,
    /// In-device spills summed over every device.
    pub in_device_spills: u64,
    /// Whole-device denials a peer device absorbed.
    pub cross_spills: u64,
    /// Segments re-homed device-to-device.
    pub cross_donations: u64,
    /// Accesses served by the issuing SM's own device.
    pub local_accesses: u64,
    /// Accesses that crossed the interconnect.
    pub peer_accesses: u64,
    /// One [`PoolStats`] per device, in device order.
    pub devices: Vec<PoolStats>,
}

impl TopoStats {
    /// Fraction of classified accesses that crossed the interconnect.
    pub fn peer_share(&self) -> f64 {
        let total = self.local_accesses + self.peer_accesses;
        if total == 0 {
            0.0
        } else {
            self.peer_accesses as f64 / total as f64
        }
    }
}

impl DevicePool {
    /// Build `devices × width` instances, every instance configured by
    /// `cfg` (so `cfg.heap_bytes` is the *per-instance* shard; the
    /// topology manages `devices × width` times that).
    pub fn new(devices: u32, width: usize, cfg: GallatinConfig) -> Self {
        DevicePool(GallatinPool::with_devices(devices, width, cfg))
    }

    /// Device `d`'s share of the pool, for per-device introspection.
    pub fn pool(&self, d: usize) -> DeviceView<'_> {
        assert!(d < self.devices.len(), "device {d} out of range");
        DeviceView { pool: &self.0, d }
    }

    /// Snapshot occupancy, pressure, and interconnect traffic.
    pub fn topo_stats(&self) -> TopoStats {
        let devices: Vec<PoolStats> =
            (0..self.devices.len()).map(|d| self.pool(d).pool_stats()).collect();
        let m = self.traffic.snapshot();
        TopoStats {
            heap_bytes: self.heap_bytes(),
            reserved_bytes: devices.iter().map(|s| s.reserved_bytes).sum(),
            in_device_spills: devices.iter().map(|s| s.spills).sum(),
            cross_spills: self.total_cross_spills(),
            cross_donations: self.cross_donations.load(Ordering::Relaxed),
            local_accesses: m.local_accesses,
            peer_accesses: m.peer_accesses,
            devices,
        }
    }
}

impl Deref for DevicePool {
    type Target = GallatinPool;

    fn deref(&self) -> &GallatinPool {
        &self.0
    }
}

/// One device's instances and counters, borrowed from a [`DevicePool`].
/// Instance indices are local to the device.
#[derive(Clone, Copy)]
pub struct DeviceView<'a> {
    pool: &'a GallatinPool,
    d: usize,
}

impl<'a> DeviceView<'a> {
    /// Instances on this device.
    pub fn num_instances(&self) -> usize {
        self.pool.width()
    }

    /// This device's instance `i`.
    pub fn instance(&self, i: usize) -> &'a Gallatin {
        self.pool.instance(self.d * self.pool.width() + i)
    }

    /// In-device spills charged to this device's instances.
    pub fn total_spills(&self) -> u64 {
        (0..self.num_instances())
            .map(|i| self.pool.spill_count(self.d * self.pool.width() + i))
            .sum()
    }

    /// Segments parked on this device.
    pub fn pool_free_segments(&self) -> u64 {
        self.pool.devices[self.d].parked.count()
    }

    /// [`PoolStats`] over this device's instances and counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats_over(self.d..self.d + 1)
    }
}

/// Implement each listed method by calling the wrapped pool's.
macro_rules! forward {
    ($(fn $name:ident(&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?;)*) => {
        $(fn $name(&self $(, $arg: $ty)*) $(-> $ret)? { self.0.$name($($arg),*) })*
    };
}

/// Forwards to the pool; only the name and the metrics differ.
impl DeviceAllocator for DevicePool {
    fn name(&self) -> &str {
        "DevicePool"
    }

    fn metrics(&self) -> Option<&Metrics> {
        // The topology-level counters (local/peer traffic). Per-instance
        // allocator metrics stay on `instance(g)`.
        Some(&self.0.traffic)
    }

    forward! {
        fn memory(&self) -> &DeviceMemory;
        fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr;
        fn free(&self, ctx: &LaneCtx, ptr: DevicePtr);
        fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]);
        fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]);
        fn reset(&self);
        fn heap_bytes(&self) -> u64;
        fn supports_size(&self, size: u64) -> bool;
        fn max_native_size(&self) -> u64;
        fn device_count(&self) -> u32;
        fn device_of(&self, ptr: DevicePtr) -> u32;
        fn affinity_device(&self, sm: u32) -> u32;
        fn check_invariants(&self) -> Result<(), String>;
        fn stats(&self) -> AllocStats;
    }
}
