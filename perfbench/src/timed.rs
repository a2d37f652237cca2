//! A [`DeviceAllocator`] that forwards every call and, in the traced
//! run, times it.
//!
//! Each timed call becomes one span tagged with the tier its request
//! size falls in: up to `max_slice` is the slice tier, up to
//! `segment_bytes` the block tier, anything larger the segment tier. A
//! free carries no size, so while tracing the wrapper remembers the tier
//! of every pointer it handed out, in a lock-free 4-way set-associative
//! table touched outside the timed interval (a pointer evicted from a
//! full set reads back as the slice tier). A warp call is charged to the
//! largest tier among its lanes. With tracing off the wrapper adds one relaxed load per call
//! and nothing else: it must observe without perturbing.

use crate::trace::{self, Layer};
use gpu_sim::{AllocStats, DeviceAllocator, DeviceMemory, DevicePtr, LaneCtx, Metrics, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Sets of the pointer → tier table (a power of two).
const SETS: usize = 1 << 20;
/// Entries per set.
const WAYS: usize = 4;

/// Allocator tier, named from request size.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u64)]
pub enum Tier {
    /// Slices: up to `max_slice`.
    Slice,
    /// Whole blocks: up to a segment.
    Block,
    /// Contiguous segments.
    Segment,
}

impl Tier {
    fn malloc(self) -> Layer {
        [Layer::SliceMalloc, Layer::BlockMalloc, Layer::SegmentMalloc][self as usize]
    }

    fn free(self) -> Layer {
        [Layer::SliceFree, Layer::BlockFree, Layer::SegmentFree][self as usize]
    }

    fn from_bits(b: u64) -> Tier {
        [Tier::Slice, Tier::Block, Tier::Segment][(b & 3) as usize]
    }
}

/// Live pointer → tier. An entry is one plus `ptr << 2 | tier`, so 0
/// marks a free way. A free always follows its malloc through the
/// benchmark's own ordering (same warp, or a later launch), so relaxed
/// accesses suffice.
struct TierTable {
    slots: Box<[AtomicU64]>,
}

impl TierTable {
    fn new() -> Self {
        TierTable { slots: (0..SETS * WAYS).map(|_| AtomicU64::new(0)).collect() }
    }

    fn set(ptr: DevicePtr) -> usize {
        ((ptr.0 >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SETS.trailing_zeros())) as usize
            * WAYS
    }

    fn insert(&self, ptr: DevicePtr, tier: Tier) {
        let (set, v) = (Self::set(ptr), (ptr.0 << 2 | tier as u64) + 1);
        let ways = &self.slots[set..set + WAYS];
        if !ways
            .iter()
            .any(|w| w.compare_exchange(0, v, Ordering::Relaxed, Ordering::Relaxed).is_ok())
        {
            ways[0].store(v, Ordering::Relaxed);
        }
    }

    fn remove(&self, ptr: DevicePtr) -> Tier {
        let set = Self::set(ptr);
        for w in &self.slots[set..set + WAYS] {
            let v = w.load(Ordering::Relaxed);
            if v != 0
                && (v - 1) >> 2 == ptr.0
                && w.compare_exchange(v, 0, Ordering::Relaxed, Ordering::Relaxed).is_ok()
            {
                return Tier::from_bits(v - 1);
            }
        }
        Tier::Slice
    }
}

/// The forwarding, timing wrapper.
#[derive(Clone)]
pub struct Timed {
    inner: Arc<dyn DeviceAllocator>,
    max_slice: u64,
    segment_bytes: u64,
    tiers: Arc<OnceLock<TierTable>>,
}

impl Timed {
    /// Wrap `inner`, whose slice tier ends at `max_slice` and whose
    /// segments are `segment_bytes`.
    pub fn new(inner: Arc<dyn DeviceAllocator>, max_slice: u64, segment_bytes: u64) -> Self {
        Timed { inner, max_slice, segment_bytes, tiers: Arc::new(OnceLock::new()) }
    }

    /// The tier a request of `size` bytes is served from.
    pub fn tier(&self, size: u64) -> Tier {
        if size <= self.max_slice {
            Tier::Slice
        } else if size <= self.segment_bytes {
            Tier::Block
        } else {
            Tier::Segment
        }
    }

    fn table(&self) -> &TierTable {
        self.tiers.get_or_init(TierTable::new)
    }

    fn remember(&self, ptr: DevicePtr, tier: Tier) {
        if !ptr.is_null() {
            self.table().insert(ptr, tier);
        }
    }

    fn forget(&self, ptr: DevicePtr) -> Tier {
        self.table().remove(ptr)
    }
}

impl DeviceAllocator for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn memory(&self) -> &DeviceMemory {
        self.inner.memory()
    }
    fn malloc(&self, ctx: &LaneCtx, size: u64) -> DevicePtr {
        if !trace::enabled() {
            return self.inner.malloc(ctx, size);
        }
        let tier = self.tier(size);
        let p = trace::span(tier.malloc(), 1, || self.inner.malloc(ctx, size));
        self.remember(p, tier);
        p
    }
    fn free(&self, ctx: &LaneCtx, ptr: DevicePtr) {
        if !trace::enabled() {
            return self.inner.free(ctx, ptr);
        }
        let tier = self.forget(ptr);
        trace::span(tier.free(), 1, || self.inner.free(ctx, ptr));
    }
    fn warp_malloc(&self, warp: &WarpCtx, sizes: &[Option<u64>], out: &mut [DevicePtr]) {
        if !trace::enabled() {
            return self.inner.warp_malloc(warp, sizes, out);
        }
        let ops = sizes.iter().flatten().count() as u32;
        let tier = sizes.iter().flatten().map(|&s| self.tier(s)).max().unwrap_or(Tier::Slice);
        trace::span(tier.malloc(), ops, || self.inner.warp_malloc(warp, sizes, out));
        for (p, s) in out.iter().zip(sizes) {
            if let Some(s) = s {
                self.remember(*p, self.tier(*s));
            }
        }
    }
    fn warp_free(&self, warp: &WarpCtx, ptrs: &[DevicePtr]) {
        if !trace::enabled() {
            return self.inner.warp_free(warp, ptrs);
        }
        let live = ptrs.iter().filter(|p| !p.is_null());
        let tier = live.clone().map(|&p| self.forget(p)).max().unwrap_or(Tier::Slice);
        trace::span(tier.free(), live.count() as u32, || self.inner.warp_free(warp, ptrs));
    }
    fn reset(&self) {
        self.inner.reset()
    }
    fn heap_bytes(&self) -> u64 {
        self.inner.heap_bytes()
    }
    fn supports_size(&self, size: u64) -> bool {
        self.inner.supports_size(size)
    }
    fn max_native_size(&self) -> u64 {
        self.inner.max_native_size()
    }
    fn is_managing(&self) -> bool {
        self.inner.is_managing()
    }
    fn metrics(&self) -> Option<&Metrics> {
        self.inner.metrics()
    }
    fn device_count(&self) -> u32 {
        self.inner.device_count()
    }
    fn device_of(&self, ptr: DevicePtr) -> u32 {
        self.inner.device_of(ptr)
    }
    fn affinity_device(&self, sm: u32) -> u32 {
        self.inner.affinity_device(sm)
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
    fn stats(&self) -> AllocStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use crate::heap::Heap;
    use gallatin::{Gallatin, GallatinConfig};
    use gpu_sim::ledger::{Ledger, LedgerOutcome};
    use gpu_sim::metrics::MetricsSnapshot;
    use gpu_sim::trace::TraceSink;
    use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
    use std::sync::Arc;

    /// Mixed slice- and block-tier churn, warp-collective and scalar,
    /// under one deterministic schedule.
    fn scenario(alloc: &dyn DeviceAllocator, stats: &Gallatin) -> (MetricsSnapshot, LedgerOutcome) {
        let sink = Arc::new(TraceSink::new());
        gpu_sim::trace::with_sink(sink.clone(), || {
            launch_warps(DeviceConfig::with_sms(4).seeded(7), 6 * 32, |w| {
                for round in 0..4u64 {
                    let sizes: Vec<Option<u64>> = w
                        .lanes()
                        .map(|l| Some(16u64 << ((l as u64 + round + w.warp_id) % 11)))
                        .collect();
                    let mut out = vec![DevicePtr::NULL; w.active as usize];
                    alloc.warp_malloc(w, &sizes, &mut out);
                    let lane = w.lane(0);
                    let p = alloc.malloc(&lane, 48 << round);
                    alloc.free(&lane, p);
                    alloc.warp_free(w, &out);
                }
            });
        });
        let m = stats.metrics().expect("Gallatin keeps metrics").snapshot();
        (m, Ledger::build(&sink.snapshot()).outcome())
    }

    #[test]
    fn wrapping_observes_without_perturbing() {
        let _serial = crate::serial();
        let plain = Gallatin::new(GallatinConfig::small_test(1 << 20));
        let bare = scenario(&plain, &plain);
        let inner = Arc::new(Gallatin::new(GallatinConfig::small_test(1 << 20)));
        let timed = Heap::Single(inner.clone()).timed();
        crate::trace::set_enabled(true);
        let wrapped = scenario(&timed, &inner);
        crate::trace::set_enabled(false);
        let spans = crate::trace::take();
        assert!(spans.iter().any(|s| s.layer.is_core()), "the wrapped run was traced");
        assert!(bare.0.mallocs > 0 && bare.1.mallocs > 0, "the scenario allocates: {bare:?}");
        assert_eq!(bare, wrapped);
    }
}
