//! Elastic pool operations: segment donation, shrink, and grow.
//!
//! A [`crate::pool::GallatinPool`] starts with fixed disjoint shards,
//! but memory pressure is rarely uniform — a hot instance exhausts its
//! shard while a cold sibling sits on free segments. The paper's
//! two-phase segment reclamation (§4.4) already defines the state this
//! module needs: a segment the reclaim protocol published back to a
//! segment tree is *quiescent free* — no live slices, no wholesale
//! blocks, every block home in the ring and published, no straggler
//! mid-push ([`crate::table::SegmentMeta::is_quiescent_free`]). Such a
//! segment can be re-homed without copying a byte, because the pool's
//! instances share one arena and one memory table; ownership is only
//! tree membership plus a row in the pool's routing table.
//!
//! Every re-homing — **donation** instance-to-instance (`donate`) or
//! device-to-device (`donate_across`), **shrink** onto a device's
//! parked list (`shrink_instance` / `shrink_to`), and **grow** back out
//! of it (also run by the malloc walk's adopt-before-spill) — is one
//! segment move, in three steps per segment:
//!
//! 1. *claim-unreachable* — withdraw the segment from its source (an
//!    instance's segment tree or a parked list), so no malloc there can
//!    claim it;
//! 2. *quiesce-check* — verify the shared metadata still shows the
//!    reclaimed state (the same predicate phase 2 of `try_reclaim`
//!    publishes). A failure bounces the segment back to its source and
//!    stops the move — never corrupts;
//! 3. *re-home* — update `seg_owner` (so frees route to the new owner
//!    *before* it can hand out pointers; a parked segment is unowned),
//!    then publish the segment at its destination. Donations emit a
//!    `SegmentDonate` trace event just before.
//!
//! Only free segments move, so no live allocation ever changes owner
//! mid-lifecycle: the trace ledger's `(device, instance, ptr)` pairing
//! survives any interleaving of moves with traffic.

use crate::config::GallatinConfig;
use crate::gallatin::Gallatin;
use crate::pool::{GallatinPool, UNOWNED};
use crate::table::MemoryTable;
use crate::tiers::{BlockTier, SegmentTier, SliceTier};
use gpu_sim::{trace, DeviceMemory, Metrics, StripedCounter};
use std::sync::atomic::Ordering;
use std::sync::Arc;

impl Gallatin {
    /// Build an instance over a shared arena view and a shared memory
    /// table, owning only segments `[first_seg, first_seg+num_segs)` of
    /// the table's universe. Pointers are *global* offsets into the
    /// arena — [`crate::pool::GallatinPool`] routes them by segment
    /// ownership, and a donated segment's metadata needs no translation
    /// because every instance reads the same table.
    pub(crate) fn with_shared_table(
        cfg: GallatinConfig,
        mem: DeviceMemory,
        table: Arc<MemoryTable>,
        first_seg: u64,
        num_segs: u64,
    ) -> Self {
        let geo = cfg.geometry();
        assert!(
            mem.len() as u64 >= geo.heap_bytes,
            "device memory of {} bytes cannot back a {}-byte heap",
            mem.len(),
            geo.heap_bytes
        );
        assert!(first_seg + num_segs <= geo.num_segments, "owned span exceeds the universe");
        assert_eq!(
            table.geometry().num_segments,
            geo.num_segments,
            "shared table laid out for a different universe"
        );
        let segments = SegmentTier::with_span(cfg.search, geo.num_segments, first_seg, num_segs);
        let blocks = BlockTier::new(&cfg, geo.num_segments, geo.num_classes);
        Gallatin {
            geo,
            mem,
            segments,
            blocks,
            slices: SliceTier,
            table,
            metrics: Metrics::new(),
            randomize_probes: cfg.randomize_probe_starts,
            reserved: StripedCounter::new(),
            span: (first_seg, num_segs),
        }
    }

    /// The instance-local share of a reset: drain the buffer wavefront,
    /// restore the segment tree to the instance's *initial* span, clear
    /// the block trees and counters. Does NOT touch the memory table —
    /// it is shared in pool mode, so the pool resets it exactly once.
    pub(crate) fn reset_local(&self) {
        for b in &self.blocks.buffers {
            b.drain();
        }
        self.segments.tree.clear();
        self.segments.tree.insert_range(self.span.0, self.span.1);
        for t in &self.blocks.trees {
            t.clear();
        }
        self.metrics.reset();
        self.reserved.clear();
    }

    /// Withdraw one free segment from this instance's segment tree (the
    /// claim-unreachable step of donation/shrink): once the bit is
    /// claimed, no malloc on this instance can reach the segment.
    pub(crate) fn withdraw_free_segment(&self) -> Option<u64> {
        self.segments.tree.claim_first_ge(0)
    }

    /// Hand a (quiescent free) segment to this instance: inserting the
    /// bit is the publish — the very next malloc may claim and format
    /// it. The caller must already have routed the segment here.
    pub(crate) fn adopt_segment(&self, seg: u64) {
        self.segments.tree.insert(seg);
    }
}

/// Where a segment sits while it moves: in a global instance's segment
/// tree, or on a device's parked free list.
#[derive(Clone, Copy)]
enum Spot {
    Instance(usize),
    Parked(usize),
}

impl GallatinPool {
    /// Take one free segment out of `spot` (the claim-unreachable step:
    /// once withdrawn, no malloc can reach it).
    fn withdraw(&self, spot: Spot) -> Option<u64> {
        match spot {
            Spot::Instance(g) => self.instance(g).withdraw_free_segment(),
            Spot::Parked(d) => {
                let seg = self.devices[d].parked.claim_first_ge(0)?;
                self.devices[d].parked_len.fetch_sub(1, Ordering::Relaxed);
                Some(seg)
            }
        }
    }

    /// Route `seg` to `spot`, then publish it there. Routing comes first
    /// so a free targeting the segment reaches the new owner from the
    /// instant the owner can hand out pointers from it.
    fn settle(&self, seg: u64, spot: Spot) {
        match spot {
            Spot::Instance(g) => {
                self.seg_owner[seg as usize].store(g as u32, Ordering::Release);
                self.instance(g).adopt_segment(seg);
            }
            Spot::Parked(d) => {
                self.seg_owner[seg as usize].store(UNOWNED, Ordering::Release);
                self.devices[d].parked.insert(seg);
                self.devices[d].parked_len.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The one segment move behind donation, shrink, and grow. Up to
    /// `max` times: withdraw a free segment from the first of `from`
    /// that has one, check it is quiescent free, `announce` it, then
    /// route and publish it at `to(k)` for the `k`-th move. A segment
    /// failing the check bounces back where it came from and ends the
    /// loop. Returns the segments moved and the bounced segment, if any.
    fn move_segments(
        &self,
        max: u64,
        from: &[Spot],
        to: impl Fn(u64) -> Spot,
        announce: impl Fn(u64),
    ) -> (u64, Option<u64>) {
        let mut moved = 0u64;
        while moved < max {
            let Some((src, seg)) = from.iter().find_map(|&s| self.withdraw(s).map(|seg| (s, seg)))
            else {
                break;
            };
            // The protocol step, not an optimization: membership in a
            // tree or parked list should already imply this, but a
            // segment that fails it never moves in a torn state.
            if !self.table.seg(seg).is_quiescent_free() {
                self.settle(seg, src);
                return (moved, Some(seg));
            }
            announce(seg);
            self.settle(seg, to(moved));
            moved += 1;
        }
        (moved, None)
    }

    /// Re-home up to `max` quiescent free segments from instance `from`
    /// to instance `to` (global indices). Returns the number donated
    /// (possibly 0 when the donor has nothing free). A segment that
    /// fails the quiesce check is bounced back to the donor and the
    /// donation aborts with an error — partial progress is reported in
    /// the error string and already counted.
    ///
    /// Host-side operation, but safe to run concurrently with device
    /// traffic: every step is an atomic handoff (tree claim → routing
    /// store → tree insert) and only free segments move.
    pub fn donate(&self, from: usize, to: usize, max: u64) -> Result<u64, String> {
        if from == to {
            return Err("donation requires two distinct instances".to_string());
        }
        let n = self.num_instances();
        if from >= n || to >= n {
            return Err(format!("donation between out-of-range instances {from} -> {to}"));
        }
        let (moved, bounced) = self.move_segments(
            max,
            &[Spot::Instance(from)],
            |_| Spot::Instance(to),
            |seg| {
                trace::emit(|| trace::TraceEvent::SegmentDonate {
                    from: from as u32,
                    to: to as u32,
                    seg,
                })
            },
        );
        self.devices[from / self.width()].donations.fetch_add(moved, Ordering::Relaxed);
        donation_result(moved, bounced, "")
    }

    /// Re-home up to `max` quiescent free segments from device `from` to
    /// device `to`, spreading them round-robin over the recipient's
    /// instances. Parked segments move first, then instance-free ones.
    /// Errors and bounces as [`GallatinPool::donate`].
    ///
    /// Bytes never move: the recipient serves the donated segment as
    /// peer memory, which the local/peer counters then show.
    pub fn donate_across(&self, from: usize, to: usize, max: u64) -> Result<u64, String> {
        if from == to {
            return Err("cross-device donation requires two distinct devices".to_string());
        }
        let (nd, w) = (self.devices.len(), self.width());
        if from >= nd || to >= nd {
            return Err(format!("donation between out-of-range devices {from} -> {to}"));
        }
        let sources: Vec<Spot> = std::iter::once(Spot::Parked(from))
            .chain((from * w..(from + 1) * w).map(Spot::Instance))
            .collect();
        let (moved, bounced) = self.move_segments(
            max,
            &sources,
            |k| Spot::Instance(to * w + k as usize % w),
            |seg| {
                trace::with_device(to as u32, || {
                    trace::emit(|| trace::TraceEvent::SegmentDonate {
                        from: from as u32,
                        to: to as u32,
                        seg,
                    })
                })
            },
        );
        self.cross_donations.fetch_add(moved, Ordering::Relaxed);
        donation_result(moved, bounced, " across devices")
    }

    /// Withdraw up to `max` quiescent free segments from instance `g`
    /// and park them on its device's free list (memory returned to the
    /// pool). Returns the number returned. Call [`GallatinPool::trim`]
    /// first to release the buffered wavefront if the instance should
    /// give up everything it can.
    pub fn shrink_instance(&self, g: usize, max: u64) -> u64 {
        let d = g / self.width();
        let (count, _) = self.move_segments(max, &[Spot::Instance(g)], |_| Spot::Parked(d), |_| {});
        self.devices[d].returned.fetch_add(count, Ordering::Relaxed);
        count
    }

    /// Release whole free segments round-robin across instances until
    /// the instance-owned footprint is at most `target_bytes` (or no
    /// instance can give anything more). Returns the number of segments
    /// parked by this call — best effort: live allocations pin their
    /// segments.
    pub fn shrink_to(&self, target_bytes: u64) -> u64 {
        let mut released = 0u64;
        loop {
            let parked: u64 =
                self.devices.iter().map(|d| d.parked_len.load(Ordering::Relaxed)).sum();
            let owned_bytes = (self.seg_owner.len() as u64 - parked) * self.segment_bytes;
            if owned_bytes <= target_bytes {
                return released;
            }
            let need = (owned_bytes - target_bytes).div_ceil(self.segment_bytes);
            let mut progress = 0u64;
            for g in 0..self.num_instances() {
                if progress >= need {
                    break;
                }
                progress += self.shrink_instance(g, need - progress);
            }
            released += progress;
            if progress == 0 {
                return released;
            }
        }
    }

    /// Adopt up to `max` segments from instance `g`'s device free list
    /// (the inverse of shrink). Returns the number adopted. The malloc
    /// walk calls this automatically when a home instance is exhausted
    /// while its device holds parked headroom.
    pub fn grow(&self, g: usize, max: u64) -> u64 {
        let d = g / self.width();
        let (count, _) = self.move_segments(max, &[Spot::Parked(d)], |_| Spot::Instance(g), |_| {});
        self.devices[d].adopted.fetch_add(count, Ordering::Relaxed);
        count
    }

    /// The ownership audit: every segment is owned by exactly one
    /// instance, or else parked on exactly one device's list — and then
    /// quiescent free; each device's parked-length counter matches its
    /// list. A segment dropped from both the routing table and every
    /// list is reported as lost.
    pub(crate) fn ownership_audit(&self, errors: &mut Vec<String>) {
        let n = self.num_instances() as u32;
        for seg in 0..self.seg_owner.len() as u64 {
            let on: Vec<usize> =
                (0..self.devices.len()).filter(|&d| self.devices[d].parked.contains(seg)).collect();
            let error = match (self.seg_owner[seg as usize].load(Ordering::Acquire), &on[..]) {
                (UNOWNED, []) => "is neither owned by an instance nor parked".to_string(),
                (UNOWNED, [_]) if self.table.seg(seg).is_quiescent_free() => continue,
                (UNOWNED, [d]) => format!("is parked on device {d} but not quiescent-free"),
                (UNOWNED, _) => format!("is parked on devices {on:?}"),
                (o, _) if o >= n => format!("is routed to nonexistent instance {o}"),
                (_, []) => continue,
                (o, _) => format!("is owned by instance {o} but also parked on devices {on:?}"),
            };
            errors.push(format!("segment {seg} {error}"));
        }
        for (d, dev) in self.devices.iter().enumerate() {
            let (len, count) = (dev.parked_len.load(Ordering::Relaxed), dev.parked.count());
            if len != count {
                errors.push(format!(
                    "device {d}'s parked counter says {len}, its list holds {count}"
                ));
            }
        }
    }

    /// Test-only sabotage: re-home a *formatted* segment from instance
    /// `from` to `to` without the claim-unreachable or quiesce steps —
    /// exactly the corruption a buggy donation would plant. Returns the
    /// segment moved, or `None` if the donor holds no formatted segment.
    /// The planted state must be caught by `check_invariants` (the donor
    /// still holds the segment in a block tree it no longer owns; the
    /// recipient sees it simultaneously free and formatted).
    #[doc(hidden)]
    pub fn debug_donate_skip_quiesce(&self, from: usize, to: usize) -> Option<u64> {
        let num_classes = self.instance(from).geometry().num_classes;
        let seg = (0..self.seg_owner.len() as u64).find(|&s| {
            self.seg_owner[s as usize].load(Ordering::Acquire) == from as u32
                && (self.table.seg(s).ldcv_tree_id() as usize) < num_classes
        })?;
        self.settle(seg, Spot::Instance(to));
        Some(seg)
    }
}

/// A donation's outcome: the count, or the bounce that aborted it.
fn donation_result(moved: u64, bounced: Option<u64>, scope: &str) -> Result<u64, String> {
    match bounced {
        None => Ok(moved),
        Some(seg) => Err(format!(
            "segment {seg} failed the quiesce check mid-donation \
             ({moved} segment(s) already moved{scope})"
        )),
    }
}

#[cfg(test)]
mod tests {
    use crate::config::GallatinConfig;
    use crate::pool::GallatinPool;
    use crate::table::TREE_FREE;
    use gpu_sim::{DeviceAllocator, DevicePtr, WarpCtx};
    use std::sync::atomic::Ordering;

    fn pool(n: usize) -> GallatinPool {
        GallatinPool::new(n, GallatinConfig::small_test(1 << 20)) // 16 segments each
    }

    fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
        WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
    }

    #[test]
    fn donation_rehomes_free_segments_and_routing_follows() {
        let p = pool(2);
        assert_eq!(p.donate(0, 1, 4), Ok(4));
        assert_eq!(p.pool_stats().donated_segments, 4);
        let s = p.pool_stats();
        assert_eq!(s.instances[0].owned_segments, 12);
        assert_eq!(s.instances[1].owned_segments, 20);
        p.check_invariants().expect("clean after donation");
        // Instance 1 can now hold 20 segment-sized allocations at home.
        let l1 = warp_on(1, 1);
        let seg = p.instance(1).geometry().segment_bytes;
        let held: Vec<_> = (0..20).map(|_| p.malloc(&l1.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(1), 0, "all 20 served at home after the donation");
        // Frees of pointers in donated segments route to the new owner.
        for q in held {
            p.free(&warp_on(7, 1).lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after routed frees of donated segments");
    }

    #[test]
    fn donation_bounces_when_the_quiesce_check_fails() {
        let p = pool(2);
        // Plant a torn state: segment 0 claims to be formatted while
        // still sitting in instance 0's segment tree.
        p.instance(0).table().seg(0).tree_id.store(0, Ordering::SeqCst);
        let err = p.donate(0, 1, 16).unwrap_err();
        assert!(err.contains("quiesce"), "unexpected error: {err}");
        // The segment bounced back to the donor: nothing crossed over.
        assert_eq!(p.pool_stats().instances[0].owned_segments, 16);
        assert_eq!(p.pool_stats().donated_segments, 0);
        // Undoing the corruption lets the full donation through.
        p.instance(0).table().seg(0).tree_id.store(TREE_FREE, Ordering::SeqCst);
        assert_eq!(p.donate(0, 1, 16), Ok(16));
        p.check_invariants().expect("clean after the repaired donation");
    }

    #[test]
    fn donation_skipping_quiesce_is_caught_by_the_invariant_check() {
        let p = pool(2);
        // Live traffic pins a formatted segment on instance 0.
        let l0 = warp_on(0, 1);
        let live = p.malloc(&l0.lane(0), 16);
        assert!(!live.is_null());
        p.check_invariants().expect("healthy before the planted corruption");
        let seg = p.debug_donate_skip_quiesce(0, 1).expect("a formatted segment to steal");
        let err = p.check_invariants().unwrap_err();
        assert!(err.contains(&format!("segment {seg}")), "unexpected report: {err}");
        assert!(
            err.contains("not owned by this instance")
                || err.contains("simultaneously free and formatted"),
            "unexpected report: {err}"
        );
    }

    #[test]
    fn shrink_returns_segments_and_malloc_adopts_them_back() {
        let p = pool(2);
        assert_eq!(p.shrink_instance(1, 10), 10);
        assert_eq!(p.pool_stats().returned_segments, 10);
        assert_eq!(p.pool_free_segments(), 10);
        p.check_invariants().expect("clean after shrink");
        // Instance 0's home pressure adopts from the pool free list
        // before spilling: 20 claims = 16 original + 4 adopted, 0 spills.
        let l0 = warp_on(0, 1);
        let seg = p.instance(0).geometry().segment_bytes;
        let held: Vec<_> = (0..20).map(|_| p.malloc(&l0.lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.spill_count(0), 0, "adoption absorbs the pressure, no spills");
        assert_eq!(p.pool_stats().adopted_segments, 4);
        assert_eq!(p.pool_free_segments(), 6);
        for q in held {
            p.free(&l0.lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after adopted traffic");
    }

    #[test]
    fn collective_malloc_adopts_parked_headroom_before_failing() {
        // Everything parked: only the walk's adopt step can serve. A
        // collective malloc must take it just like a scalar one.
        let p = pool(2);
        p.trim();
        assert_eq!(p.shrink_to(0), 32);
        let w = warp_on(0, 32);
        let mut out = vec![DevicePtr::NULL; 32];
        p.warp_malloc(&w, &[Some(64); 32], &mut out);
        assert!(out.iter().all(|q| !q.is_null()), "every lane served from adopted headroom");
        assert!(p.pool_stats().adopted_segments > 0);
        assert_eq!(p.spill_count(0), 0, "adoption absorbs the pressure, no spills");
        p.warp_free(&w, &out);
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after adopted collective traffic");
    }

    #[test]
    fn shrink_to_releases_down_to_the_target_and_is_pinned_by_live_data() {
        let p = pool(2);
        let seg_bytes = p.instance(0).geometry().segment_bytes;
        let total = p.heap_bytes();
        assert_eq!(p.shrink_to(total - 6 * seg_bytes), 6);
        assert_eq!(p.pool_free_segments(), 6);
        assert_eq!(p.shrink_to(total - 6 * seg_bytes), 0, "idempotent at the target");
        p.check_invariants().expect("clean after shrink_to");
        // Live allocations pin their segments: shrinking to zero only
        // releases what is actually free.
        let l0 = warp_on(0, 1);
        let held: Vec<_> = (0..10).map(|_| p.malloc(&l0.lane(0), seg_bytes)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        assert_eq!(p.shrink_to(0), 16, "only the free segments could be released");
        assert_eq!(p.pool_free_segments(), 22);
        p.check_invariants().expect("clean with live data after best-effort shrink");
        for q in held {
            p.free(&l0.lane(0), q);
        }
        assert_eq!(p.stats().reserved_bytes, 0);
        p.check_invariants().expect("clean after frees");
        let s = p.pool_stats();
        assert_eq!(s.returned_segments, 22);
    }

    #[test]
    fn donation_conserves_segments_and_reset_restores_the_shards() {
        let p = pool(4);
        assert_eq!(p.donate(0, 3, 2), Ok(2));
        assert_eq!(p.shrink_instance(1, 3), 3);
        assert_eq!(p.grow(2, 1), 1);
        let s = p.pool_stats();
        let owned: u64 = s.instances.iter().map(|i| i.owned_segments).sum();
        assert_eq!(owned + s.pool_free_segments, 64, "segments are conserved");
        p.check_invariants().expect("clean after a donate/shrink/grow mix");
        p.reset();
        let s = p.pool_stats();
        assert!(s.instances.iter().all(|i| i.owned_segments == 16));
        assert_eq!(s.pool_free_segments, 0);
        assert_eq!((s.donated_segments, s.returned_segments, s.adopted_segments), (0, 0, 0));
        p.check_invariants().expect("clean after reset");
    }
}
