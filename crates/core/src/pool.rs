//! The pool: `devices × width` Gallatin instances over one arena.
//!
//! The paper's allocator is a single shared heap; under extreme SM
//! counts even its coalesced atomics contend on the shared trees. A
//! [`GallatinPool`] shards the heap into full [`Gallatin`] instances,
//! laid out device-major over a [`Topology`] of device arenas — one
//! device for [`GallatinPool::new`], several for a
//! [`crate::DevicePool`]. Every instance sees the *whole* arena and the
//! *shared* [`MemoryTable`] (one metadata row per segment, pool-wide),
//! but its segment tree starts with only its own shard of segments — so
//! steady-state traffic from different SM groups touches different
//! trees, rings, and claim words, while a segment can be *re-homed*
//! without copying anything: ownership is just tree membership plus one
//! row in the pool's routing table (see `crate::elastic`).
//!
//! * **Placement** is SM-affine: a warp on SM `s` allocates on device
//!   `s % devices` ([`Topology::affinity_device`]) from that device's
//!   instance `s % width`.
//! * **One spill walk** serves scalar and collective mallocs alike. On
//!   each device it tries the home instance; then, if the device has
//!   parked headroom, adopts a parked segment and retries; then walks
//!   the sibling instances (`home+1, home+2, …` mod `width`). A request
//!   the whole home device denies crosses to the peer devices in order,
//!   each walked the same way. A sibling placement is charged to the
//!   serving device's home instance, a peer placement to the home
//!   device — *only* when somebody actually serves the request; a walk
//!   that everyone denies is a failed malloc, not a spill.
//! * **Frees route by segment ownership**: pointers are global offsets
//!   into the one arena, so `ptr / segment_bytes` names the segment and
//!   [`GallatinPool::seg_owner`] names the owning instance — any lane
//!   on any SM can free any pool pointer, and the route stays correct
//!   across donations because donation updates the same table.
//!
//! Requests larger than one instance's nominal shard (`stride`) are
//! denied up front — before touching any instance's trees — counting
//! each denial once, on the home device
//! ([`PoolStats::oversize_denials`]).
//!
//! Every served malloc and every free is classified local/peer against
//! the issuing SM's affinity device ([`Topology::classify_access`]) —
//! host-side accounting only, never a scheduler preemption point, so
//! traffic counting never perturbs a deterministic replay.
//!
//! Trace events are stamped with the owning `(device, instance)`
//! ([`trace::with_device`], [`trace::with_instance`]), so one sink
//! captures a pool run and the lifecycle [`trace::Ledger`] pairs
//! mallocs with frees per owner — routing bugs surface as unmatched
//! frees instead of silent corruption. Donations only move *quiescent
//! free* segments, so no live pointer ever changes owner mid-lifecycle
//! and the pairing survives elasticity.

use crate::config::GallatinConfig;
use crate::gallatin::{ledger_errors, Gallatin};
use crate::index::SegmentIndex;
use crate::table::MemoryTable;
use gpu_sim::{
    trace, AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics, Topology,
    WarpCtx, WARP_SIZE,
};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// `seg_owner` value for a segment parked on a device's free list
/// (owned by no instance).
pub(crate) const UNOWNED: u32 = u32::MAX;

/// One device's share of the pool: its parked free list and counters.
pub(crate) struct DeviceState {
    /// Whole segments returned by shrink, claimable by this device's
    /// instances (`grow`, or the malloc walk's adopt step).
    pub(crate) parked: SegmentIndex,
    /// Approximate occupancy of `parked` (cheap gate for the malloc hot
    /// path; exact only at quiescent points).
    pub(crate) parked_len: AtomicU64,
    /// Requests homed here larger than the stride, denied before
    /// touching any instance (no instance could have served them).
    pub(crate) oversize_denials: AtomicU64,
    /// Mallocs homed here that only a peer device could serve.
    cross_spills: AtomicU64,
    /// Segments donated instance-to-instance out of this device.
    pub(crate) donations: AtomicU64,
    /// Segments parked here by shrink.
    pub(crate) returned: AtomicU64,
    /// Segments adopted out of `parked`.
    pub(crate) adopted: AtomicU64,
}

/// `devices × width` Gallatin instances over one arena and one shared
/// memory table, with SM-affine placement, one spill walk,
/// ownership-routed frees, and elastic segment migration
/// (`crate::elastic`).
pub struct GallatinPool {
    /// The device arenas; [`DeviceAllocator::memory`] returns the whole
    /// reservation so pool pointers index it directly.
    topo: Topology,
    /// Device-major: global instance `g` is instance `g % width` of
    /// device `g / width`.
    instances: Vec<Gallatin>,
    /// Instances per device.
    width: usize,
    /// The shared per-segment metadata table (every instance holds the
    /// same `Arc`); the elastic quiesce checks read it directly.
    pub(crate) table: Arc<MemoryTable>,
    /// Per-instance nominal heap in bytes (the initial shard size and
    /// the pool's max servable request).
    stride: u64,
    /// Bytes per segment (global-offset → segment routing).
    pub(crate) segment_bytes: u64,
    /// Segments per instance at construction (reset restores this).
    segs_per_instance: u64,
    /// The routing table: owning global instance per segment, or
    /// [`UNOWNED`] for segments parked on a device free list. Donation
    /// and shrink update this *before* the new owner can touch the
    /// segment.
    pub(crate) seg_owner: Vec<AtomicU32>,
    /// Per-device parked lists and counters.
    pub(crate) devices: Vec<DeviceState>,
    /// Allocations a sibling instance absorbed, charged to the serving
    /// device's home instance (only on successful placement).
    spills: Vec<AtomicU64>,
    /// Segments re-homed device-to-device (`donate_across`).
    pub(crate) cross_donations: AtomicU64,
    /// Local/peer traffic counters (see [`Topology::classify_access`]).
    pub(crate) traffic: Metrics,
}

/// Point-in-time occupancy snapshot of one pool instance, as reported
/// by [`GallatinPool::pool_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InstanceStats {
    /// Bytes of this instance's nominal partition (the pool stride).
    pub heap_bytes: u64,
    /// Bytes reserved by live allocations (size-class rounded).
    pub reserved_bytes: u64,
    /// Segments still unclaimed in the instance's segment tree.
    pub free_segments: u64,
    /// Segments currently homed on this instance (initial shard, minus
    /// donations/returns, plus adoptions).
    pub owned_segments: u64,
    /// Allocations homed here that a sibling had to absorb.
    pub spills: u64,
}

/// Point-in-time snapshot of the whole pool's occupancy and pressure —
/// the signal a host-side admission controller reads to decide whether
/// to keep admitting traffic: per-instance headroom (a hot instance
/// near capacity predicts spills), the spill and oversize-denial
/// counters (already-visible pressure), the elasticity counters
/// (donated / returned / adopted segments and the parked free lists),
/// and the aggregate reservation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total bytes across all partitions.
    pub heap_bytes: u64,
    /// Total bytes reserved across all instances.
    pub reserved_bytes: u64,
    /// Total spills across all home instances.
    pub spills: u64,
    /// Requests denied up front for exceeding the stride.
    pub oversize_denials: u64,
    /// Segments re-homed instance-to-instance (elastic donation).
    pub donated_segments: u64,
    /// Segments returned to a parked free list (shrink).
    pub returned_segments: u64,
    /// Segments adopted out of a parked free list (grow /
    /// adopt-before-spill).
    pub adopted_segments: u64,
    /// Segments currently parked.
    pub pool_free_segments: u64,
    /// One entry per instance, in instance order.
    pub instances: Vec<InstanceStats>,
}

impl PoolStats {
    /// Unreserved bytes across the pool (an upper bound on what further
    /// admissions could possibly reserve; per-instance headroom is the
    /// binding constraint for sizes near the stride).
    pub fn headroom_bytes(&self) -> u64 {
        self.heap_bytes - self.reserved_bytes.min(self.heap_bytes)
    }
}

impl GallatinPool {
    /// Build `n` instances on one device, each configured by `cfg` (so
    /// `cfg.heap_bytes` is the *per-instance* shard; the pool manages
    /// `n` times that).
    pub fn new(n: usize, cfg: GallatinConfig) -> Self {
        Self::with_devices(1, n, cfg)
    }

    /// Build `devices × width` instances over a topology of `devices`
    /// arenas, each instance configured by `cfg`. Instance `g` starts
    /// with segments `[g·per, (g+1)·per)` of the shared table.
    pub(crate) fn with_devices(devices: u32, width: usize, cfg: GallatinConfig) -> Self {
        assert!(width > 0, "a pool needs at least one instance");
        let n = devices as usize * width;
        let device_bytes =
            cfg.geometry().heap_bytes.checked_mul(width as u64).expect("pool size overflow");
        let topo = Topology::new(devices, device_bytes);
        // One full-universe geometry: every instance sees every segment,
        // ownership is expressed through tree membership + `seg_owner`.
        let full = GallatinConfig { heap_bytes: topo.memory().len() as u64, ..cfg };
        let geo = full.geometry();
        let table = Arc::new(MemoryTable::new(geo));
        let per = geo.num_segments / n as u64;
        assert!(
            per > 0 && per * n as u64 == geo.num_segments,
            "{} segments do not shard evenly over {n} instances",
            geo.num_segments
        );
        let instances = (0..n as u64)
            .map(|g| {
                let mem = topo.memory().clone_view();
                Gallatin::with_shared_table(full, mem, Arc::clone(&table), g * per, per)
            })
            .collect();
        let zero = || AtomicU64::new(0);
        GallatinPool {
            instances,
            width,
            table,
            stride: per * geo.segment_bytes,
            segment_bytes: geo.segment_bytes,
            segs_per_instance: per,
            seg_owner: (0..geo.num_segments).map(|s| AtomicU32::new((s / per) as u32)).collect(),
            devices: (0..devices)
                .map(|_| DeviceState {
                    parked: SegmentIndex::new(full.search, geo.num_segments),
                    parked_len: zero(),
                    oversize_denials: zero(),
                    cross_spills: zero(),
                    donations: zero(),
                    returned: zero(),
                    adopted: zero(),
                })
                .collect(),
            spills: (0..n).map(|_| zero()).collect(),
            cross_donations: zero(),
            traffic: Metrics::new(),
            topo,
        }
    }

    /// Number of instances in the pool (across every device).
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of devices.
    pub fn devices(&self) -> u32 {
        self.devices.len() as u32
    }

    /// Instances per device.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The underlying topology (device stride, affinity).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The per-instance nominal heap size in bytes (the initial shard
    /// and the largest servable request).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Instance `g` (device-major), for per-instance metrics and
    /// diagnostics.
    pub fn instance(&self, g: usize) -> &Gallatin {
        &self.instances[g]
    }

    /// Allocations whose home was instance `g` but that a sibling
    /// served.
    pub fn spill_count(&self, g: usize) -> u64 {
        self.spills[g].load(Ordering::Relaxed)
    }

    /// Total spills across all home instances.
    pub fn total_spills(&self) -> u64 {
        self.spills.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Allocations whose home device `d` denied wholesale and a peer
    /// device absorbed.
    pub fn cross_spill_count(&self, d: usize) -> u64 {
        self.devices[d].cross_spills.load(Ordering::Relaxed)
    }

    /// Total cross-device spills across all home devices.
    pub fn total_cross_spills(&self) -> u64 {
        self.devices.iter().map(|d| d.cross_spills.load(Ordering::Relaxed)).sum()
    }

    /// Segments currently parked.
    pub fn pool_free_segments(&self) -> u64 {
        self.devices.iter().map(|d| d.parked.count()).sum()
    }

    /// The instance that currently owns `seg`, or `None` if the segment
    /// is parked.
    pub fn owner_of_segment(&self, seg: u64) -> Option<usize> {
        match self.seg_owner[seg as usize].load(Ordering::Acquire) {
            UNOWNED => None,
            o => Some(o as usize),
        }
    }

    /// Snapshot the pool's occupancy and pressure counters (see
    /// [`PoolStats`]). Relaxed reads: the snapshot is advisory, exact
    /// only when the pool is quiescent.
    pub fn pool_stats(&self) -> PoolStats {
        self.stats_over(0..self.devices.len())
    }

    /// [`PoolStats`] over the instances and counters of `devs` only.
    pub(crate) fn stats_over(&self, devs: Range<usize>) -> PoolStats {
        let mut owned = vec![0u64; self.instances.len()];
        for o in &self.seg_owner {
            let g = o.load(Ordering::Relaxed);
            if g != UNOWNED {
                owned[g as usize] += 1;
            }
        }
        let instances: Vec<InstanceStats> = (devs.start * self.width..devs.end * self.width)
            .map(|g| InstanceStats {
                heap_bytes: self.stride,
                reserved_bytes: self.instances[g].reserved_bytes(),
                free_segments: self.instances[g].free_segments(),
                owned_segments: owned[g],
                spills: self.spill_count(g),
            })
            .collect();
        let devs = &self.devices[devs];
        let sum = |f: fn(&DeviceState) -> &AtomicU64| -> u64 {
            devs.iter().map(|d| f(d).load(Ordering::Relaxed)).sum()
        };
        PoolStats {
            heap_bytes: self.stride * instances.len() as u64,
            reserved_bytes: instances.iter().map(|s| s.reserved_bytes).sum(),
            spills: instances.iter().map(|s| s.spills).sum(),
            oversize_denials: sum(|d| &d.oversize_denials),
            donated_segments: sum(|d| &d.donations),
            returned_segments: sum(|d| &d.returned),
            adopted_segments: sum(|d| &d.adopted),
            pool_free_segments: devs.iter().map(|d| d.parked.count()).sum(),
            instances,
        }
    }

    /// Run `f` on global instance `g` under its `(device, instance)`
    /// trace stamp.
    pub(crate) fn on_instance<R>(&self, g: usize, f: impl FnOnce(&Gallatin) -> R) -> R {
        let (d, i) = (g / self.width, g % self.width);
        trace::with_device(d as u32, || trace::with_instance(i as u32, || f(&self.instances[g])))
    }

    /// Owning global instance of a pool pointer (global offset), via the
    /// segment routing table.
    #[inline]
    pub(crate) fn owner_of(&self, ptr: DevicePtr) -> usize {
        let seg = ptr.0 / self.segment_bytes;
        let Some(o) = self.seg_owner.get(seg as usize) else {
            panic!("free of foreign pointer {}", ptr.0)
        };
        let o = o.load(Ordering::Acquire);
        assert!(o != UNOWNED, "free of foreign pointer {} (segment {seg} is unowned)", ptr.0);
        o as usize
    }

    /// The one placement walk, shared by scalar and collective mallocs:
    /// home device first, then the peers in order; on each device the
    /// home instance, then adopt-before-spill when the device has parked
    /// headroom, then the siblings. `offer` tries the still-unserved
    /// lanes on one instance and returns how many it served plus the
    /// bytes still unserved (`None` once every lane is served, which
    /// ends the walk).
    fn place(&self, sm: u32, mut offer: impl FnMut(&Gallatin) -> (u64, Option<u64>)) {
        let (nd, w) = (self.devices.len(), self.width);
        let (hd, hi) = (sm as usize % nd, sm as usize % w);
        for k in 0..nd {
            let d = (hd + k) % nd;
            for j in 0..w {
                let g = d * w + (hi + j) % w;
                let (mut served, mut left) = self.on_instance(g, &mut offer);
                if let Some(bytes) = left {
                    if j == 0
                        && self.devices[d].parked_len.load(Ordering::Relaxed) > 0
                        && self.grow(g, bytes.div_ceil(self.segment_bytes).max(1)) > 0
                    {
                        let (more, rest) = self.on_instance(g, &mut offer);
                        (served, left) = (served + more, rest);
                    }
                }
                if served > 0 && j > 0 {
                    self.spills[d * w + hi].fetch_add(served, Ordering::Relaxed);
                }
                if served > 0 && k > 0 {
                    self.devices[hd].cross_spills.fetch_add(served, Ordering::Relaxed);
                }
                if left.is_none() {
                    return;
                }
            }
        }
    }

    /// Release every instance's block-buffer wavefront (see
    /// [`Gallatin::trim`]); returns the total blocks reclaimed.
    pub fn trim(&self) -> u64 {
        self.instances.iter().map(|g| g.trim()).sum()
    }
}

impl DeviceAllocator for GallatinPool {
    fn name(&self) -> &str {
        "GallatinPool"
    }

    fn memory(&self) -> &DeviceMemory {
        self.topo.memory()
    }

    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        let sm = ctx.sm_id();
        // Nothing larger than the stride fits in *any* instance: deny
        // before touching a tree, once, on the home device.
        if size > self.stride {
            let hd = sm as usize % self.devices.len();
            self.devices[hd].oversize_denials.fetch_add(1, Ordering::Relaxed);
            return DevicePtr::NULL;
        }
        let mut p = DevicePtr::NULL;
        self.place(sm, |inst| {
            p = inst.malloc(ctx, size);
            if p.is_null() {
                (0, Some(size))
            } else {
                (1, None)
            }
        });
        if !p.is_null() {
            self.topo.classify_access(sm, p, &self.traffic);
        }
        p
    }

    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr) {
        let g = self.owner_of(ptr);
        self.topo.classify_access(ctx.sm_id(), ptr, &self.traffic);
        self.on_instance(g, |inst| inst.free(ctx, ptr));
    }

    /// Warp-collective allocation: the eligible lanes take the same walk
    /// as a scalar malloc, as one coalesced group per instance — the
    /// whole warp at its home instance, then only the unserved lanes.
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        debug_assert_eq!(sizes.len(), warp.active as usize);
        debug_assert_eq!(out.len(), warp.active as usize);
        out.fill(DevicePtr::NULL);
        // Oversize lanes are denied before the walk (their request never
        // reaches any instance — see `malloc`); the rest of the warp
        // proceeds as one coalesced group.
        let mut rest = [None::<u64>; WARP_SIZE];
        let mut oversize = 0u64;
        for lane in warp.lanes() {
            match sizes[lane] {
                Some(sz) if sz > self.stride => oversize += 1,
                sz => rest[lane] = sz,
            }
        }
        let active = warp.active as usize;
        if oversize > 0 {
            let hd = warp.sm_id as usize % self.devices.len();
            self.devices[hd].oversize_denials.fetch_add(oversize, Ordering::Relaxed);
            if rest[..active].iter().all(Option::is_none) {
                return; // the whole warp was oversize: nothing to launch
            }
        }
        self.place(warp.sm_id, |inst| {
            let mut sub = [DevicePtr::NULL; WARP_SIZE];
            inst.warp_malloc(warp, &rest[..active], &mut sub[..active]);
            let mut served = 0;
            for lane in warp.lanes().filter(|&l| !sub[l].is_null()) {
                (out[lane], rest[lane]) = (sub[lane], None);
                served += 1;
            }
            let any_left = rest.iter().any(Option::is_some);
            (served, any_left.then(|| rest.iter().flatten().sum()))
        });
        for &p in out.iter().filter(|p| !p.is_null()) {
            self.topo.classify_access(warp.sm_id, p, &self.traffic);
        }
    }

    /// Warp-collective free with per-owner regrouping: the warp's
    /// pointers are split by owning instance (segment routing table) and
    /// each owner receives one lane-aligned collective free, in instance
    /// order, so the per-block `fetch_add` coalescing inside each
    /// instance survives the sharding.
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        debug_assert_eq!(ptrs.len(), warp.active as usize);
        let active = warp.active as usize;
        let mut owner = [UNOWNED; WARP_SIZE];
        for lane in warp.lanes() {
            if !ptrs[lane].is_null() {
                owner[lane] = self.owner_of(ptrs[lane]) as u32;
                self.topo.classify_access(warp.sm_id, ptrs[lane], &self.traffic);
            }
        }
        while let Some(g) = owner[..active].iter().copied().filter(|&o| o != UNOWNED).min() {
            let mut local = [DevicePtr::NULL; WARP_SIZE];
            for lane in warp.lanes() {
                if owner[lane] == g {
                    local[lane] = ptrs[lane];
                    owner[lane] = UNOWNED;
                }
            }
            self.on_instance(g as usize, |inst| inst.warp_free(warp, &local[..active]));
        }
    }

    fn reset(&self) {
        for inst in &self.instances {
            inst.reset_local();
        }
        for (s, o) in self.seg_owner.iter().enumerate() {
            o.store((s as u64 / self.segs_per_instance) as u32, Ordering::Relaxed);
        }
        for dev in &self.devices {
            dev.parked.clear();
            for c in [
                &dev.parked_len,
                &dev.oversize_denials,
                &dev.cross_spills,
                &dev.donations,
                &dev.returned,
                &dev.adopted,
            ] {
                c.store(0, Ordering::Relaxed);
            }
        }
        self.spills.iter().for_each(|s| s.store(0, Ordering::Relaxed));
        self.cross_donations.store(0, Ordering::Relaxed);
        self.traffic.reset();
        // Shared by every instance: reset once, not per instance.
        self.table.reset();
    }

    fn heap_bytes(&self) -> u64 {
        self.stride * self.instances.len() as u64
    }

    fn supports_size(&self, size: u64) -> bool {
        // Sharding trades the single heap's "any size" property for
        // isolation: nothing larger than one instance's shard fits.
        size <= self.stride
    }

    fn max_native_size(&self) -> u64 {
        self.stride
    }

    fn metrics(&self) -> Option<&Metrics> {
        // No pooled counter: per-instance metrics are the point (the E18
        // benchmark reads `instance(i).metrics()` individually).
        None
    }

    fn device_count(&self) -> u32 {
        self.devices()
    }

    fn device_of(&self, ptr: DevicePtr) -> u32 {
        self.topo.device_of(ptr)
    }

    fn affinity_device(&self, sm: u32) -> u32 {
        self.topo.affinity_device(sm)
    }

    /// Verify every instance's structural invariants over exactly the
    /// segments it currently owns (each error prefixed with the owning
    /// `(device, instance)`), the ownership audit (routing table vs
    /// parked lists vs quiescence), plus one pool-wide lifecycle-ledger
    /// pass — the ledger pairs per owner, so a free routed to the wrong
    /// instance shows up as an unmatched free *and* a leak.
    fn check_invariants(&self) -> Result<(), String> {
        let mut errors: Vec<String> = Vec::new();
        for (g, inst) in self.instances.iter().enumerate() {
            let mine = |s: u64| self.seg_owner[s as usize].load(Ordering::Acquire) == g as u32;
            for e in inst.structural_errors_where(&mine) {
                errors.push(format!("device {}: instance {}: {e}", g / self.width, g % self.width));
            }
        }
        self.ownership_audit(&mut errors);
        ledger_errors(&mut errors);
        if errors.is_empty() {
            Ok(())
        } else {
            if let Some(path) = trace::auto_dump("pool_invariant_failure") {
                errors.push(format!("trace auto-dumped to {}", path.display()));
            }
            Err(errors.join("\n"))
        }
    }

    fn stats(&self) -> AllocStats {
        AllocStats {
            heap_bytes: self.heap_bytes(),
            reserved_bytes: self.instances.iter().map(|g| g.reserved_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> GallatinPool {
        GallatinPool::new(n, GallatinConfig::small_test(1 << 20)) // 16 segments each
    }

    fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
        WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
    }

    #[test]
    fn sm_affinity_places_on_the_home_instance() {
        let p = pool(2);
        let a = p.malloc(&warp_on(0, 1).lane(0), 16);
        let b = p.malloc(&warp_on(1, 1).lane(0), 16);
        assert!(!a.is_null() && !b.is_null());
        assert!(a.0 < p.stride(), "SM 0 allocates from instance 0");
        assert!(b.0 >= p.stride(), "SM 1 allocates from instance 1");
        p.free(&warp_on(5, 1).lane(0), a); // any lane may free
        p.free(&warp_on(0, 1).lane(0), b);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after cross-instance frees");
    }

    #[test]
    fn exhausted_home_spills_to_a_sibling_and_counts_it() {
        let p = pool(2);
        let l0 = warp_on(0, 1);
        // Exhaust instance 0 wholesale: 16 segment-sized allocations.
        let seg = p.instance(0).geometry().segment_bytes;
        let held: Vec<_> = (0..16).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert!(held.iter().all(|q| q.0 < p.stride()), "all from home");
        assert_eq!(p.spill_count(0), 0);
        // The 17th spills to instance 1 and is charged to home 0.
        let spilled = p.malloc(&l0.lane(0), seg);
        assert!(!spilled.is_null());
        assert!(spilled.0 >= p.stride(), "served by the sibling");
        assert_eq!(p.spill_count(0), 1);
        assert_eq!(p.spill_count(1), 0);
        // Frees route home by ownership regardless of the freeing SM.
        p.free(&warp_on(1, 1).lane(0), spilled);
        for q in held {
            p.free(&warp_on(3, 1).lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after spill + routed frees");
    }

    #[test]
    fn spills_are_charged_only_on_successful_sibling_placement() {
        // The PR 5 pressure case: 24 segment-sized claims against a
        // 16-segment home. Exactly the 8 overflow claims are spills…
        let p = pool(2);
        let l0 = warp_on(0, 1);
        let seg = p.instance(0).geometry().segment_bytes;
        let held: Vec<_> = (0..24).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(0), 8, "24 claims vs a 16-segment home: 8 spills");
        // …filling the sibling's remainder keeps charging placements…
        let rest: Vec<_> = (0..8).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(rest.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(0), 16);
        // …but pushing past total pool capacity adds zero further spills:
        // a walk every sibling denies is a failed malloc, not a spill.
        for _ in 0..5 {
            assert!(p.malloc(&l0.lane(0), seg).is_null());
        }
        assert_eq!(p.spill_count(0), 16, "denied walks must not be charged as spills");
        assert_eq!(p.total_spills(), 16);
        for q in held.into_iter().chain(rest) {
            p.free(&l0.lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after capacity stress");
    }

    #[test]
    fn oversized_requests_fail_without_walking_siblings() {
        let p = pool(4);
        assert!(!p.supports_size(p.stride() + 1));
        assert_eq!(p.max_native_size(), p.stride());
        assert_eq!(p.heap_bytes(), 4 * p.stride());
        // The denial must be decided before any instance is consulted:
        // zero atomic traffic (no CAS, no RMW, not even a counted failed
        // malloc) on every instance, scalar and collective path alike.
        let before: Vec<_> = (0..4).map(|i| p.instance(i).metrics().unwrap().snapshot()).collect();
        let q = p.malloc(&warp_on(2, 1).lane(0), p.stride() + 1);
        assert!(q.is_null());
        let w = warp_on(2, 32);
        let sizes = vec![Some(p.stride() + 1); 32];
        let mut out = vec![DevicePtr(7); 32];
        p.warp_malloc(&w, &sizes, &mut out);
        assert!(out.iter().all(|q| q.is_null()), "oversize lanes must come back NULL");
        for (i, before) in before.iter().enumerate() {
            let after = p.instance(i).metrics().unwrap().snapshot();
            assert_eq!(after, *before, "instance {i} saw traffic for an unservable size");
        }
        assert_eq!(p.total_spills(), 0, "an unservable size is not a spill");
        assert_eq!(p.pool_stats().oversize_denials, 33, "1 scalar + 32 collective lanes");
        p.reset();
        assert_eq!(p.pool_stats().oversize_denials, 0, "reset clears the denial counter");
    }

    #[test]
    fn mixed_warp_serves_eligible_lanes_and_denies_oversize_ones() {
        let p = pool(2);
        let w = warp_on(0, 32);
        // Even lanes ask for a servable size, odd lanes for an impossible
        // one: the eligible half must still be served as one group.
        let sizes: Vec<Option<u64>> =
            (0..32).map(|l| Some(if l % 2 == 0 { 64 } else { p.stride() + 1 })).collect();
        let mut out = vec![DevicePtr::NULL; 32];
        p.warp_malloc(&w, &sizes, &mut out);
        for (lane, q) in out.iter().enumerate() {
            if lane % 2 == 0 {
                assert!(!q.is_null(), "eligible lane {lane} must be served");
            } else {
                assert!(q.is_null(), "oversize lane {lane} must be denied");
            }
        }
        assert_eq!(p.pool_stats().oversize_denials, 16);
        p.warp_free(&w, &out);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after mixed warp");
    }

    #[test]
    fn pool_stats_snapshot_tracks_reservation_and_pressure() {
        let p = pool(2);
        let idle = p.pool_stats();
        assert_eq!(idle.heap_bytes, 2 * p.stride());
        assert_eq!(idle.reserved_bytes, 0);
        assert_eq!(idle.headroom_bytes(), idle.heap_bytes);
        assert_eq!(idle.instances.len(), 2);
        assert_eq!(idle.instances[0].owned_segments, 16);
        assert_eq!(idle.pool_free_segments, 0);
        let seg = p.instance(0).geometry().segment_bytes;
        // Fill home 0 and force one spill: the snapshot must show the
        // reservation split across instances and the spill pressure.
        let held: Vec<_> = (0..17).map(|_| p.malloc(&warp_on(0, 1).lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        let s = p.pool_stats();
        assert_eq!(s.reserved_bytes, 17 * seg);
        assert_eq!(s.instances[0].reserved_bytes, 16 * seg);
        assert_eq!(s.instances[1].reserved_bytes, seg);
        assert_eq!(s.instances[0].free_segments, 0);
        assert_eq!(s.instances[1].free_segments, 15);
        assert_eq!((s.spills, s.instances[0].spills, s.instances[1].spills), (1, 1, 0));
        assert_eq!(s.headroom_bytes(), s.heap_bytes - 17 * seg);
        for q in held {
            p.free(&warp_on(0, 1).lane(0), q);
        }
        assert_eq!(p.pool_stats().reserved_bytes, 0);
    }

    #[test]
    fn warp_collectives_split_by_owning_instance() {
        let p = pool(2);
        let w0 = warp_on(0, 32);
        let w1 = warp_on(1, 32);
        let sizes = vec![Some(16u64); 32];
        let mut a = vec![DevicePtr::NULL; 32];
        let mut b = vec![DevicePtr::NULL; 32];
        p.warp_malloc(&w0, &sizes, &mut a);
        p.warp_malloc(&w1, &sizes, &mut b);
        assert!(a.iter().all(|q| !q.is_null() && q.0 < p.stride()));
        assert!(b.iter().all(|q| !q.is_null() && q.0 >= p.stride()));
        // Interleave the two instances' pointers in one warp free: each
        // instance receives its half as one coalesced group.
        let mixed: Vec<DevicePtr> = (0..32).map(|l| if l % 2 == 0 { a[l] } else { b[l] }).collect();
        let rest: Vec<DevicePtr> = (0..32).map(|l| if l % 2 == 0 { b[l] } else { a[l] }).collect();
        p.warp_free(&w0, &mixed);
        p.warp_free(&w1, &rest);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after interleaved collective frees");
    }

    #[test]
    fn reset_restores_every_instance_and_spill_counter() {
        let p = pool(2);
        let l0 = warp_on(0, 1);
        let seg = p.instance(0).geometry().segment_bytes;
        for _ in 0..17 {
            assert!(!p.malloc(&l0.lane(0), seg).is_null());
        }
        assert_eq!(p.spill_count(0), 1);
        p.reset();
        assert_eq!(p.total_spills(), 0);
        assert_eq!(p.stats().reserved_bytes, 0);
        for i in 0..2 {
            assert_eq!(p.instance(i).free_segments(), 16);
            assert_eq!(p.pool_stats().instances[i].owned_segments, 16);
        }
        p.check_invariants().expect("clean after reset");
    }

    #[test]
    #[should_panic(expected = "foreign pointer")]
    fn foreign_pointer_free_panics() {
        let p = pool(2);
        p.free(&warp_on(0, 1).lane(0), DevicePtr(p.heap_bytes() + 64));
    }

    #[test]
    fn pool_invariant_check_names_the_corrupt_instance() {
        let p = pool(2);
        // Segment 19 is instance 1's (segments 16..32): claim its tree_id
        // without removing it from the segment tree or formatting it.
        p.instance(1).table().seg(19).tree_id.store(0, Ordering::SeqCst);
        let err = p.check_invariants().unwrap_err();
        assert!(err.contains("instance 1: segment 19"), "unexpected report: {err}");
    }
}
