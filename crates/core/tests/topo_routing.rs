//! Device-level routing in the hierarchical topology pool (ISSUE 10
//! acceptance), mirroring `pool_routing.rs` one layer up:
//!
//! * property: a pointer malloc'd on device `i` (SM affinity chooses
//!   `i`, and the instance within it) and freed from a lane pinned to
//!   an arbitrary device `j` routes home through the `(device,
//!   instance)` tables, for arbitrary `(devices × width × SM × size
//!   class)` combinations — the pointer→device→instance round-trip;
//! * seeded sweep: churn with rotated cross-device frees shows zero
//!   leaks and zero double frees in the lifecycle ledger across
//!   `GALLATIN_TOPO_SEEDS` deterministic schedule seeds (default 16;
//!   CI quick uses 4);
//! * spill regression: exhausting a whole device crosses the
//!   interconnect deterministically, the spilled events carry the peer
//!   device's tag, and the trace replays byte-identically under the
//!   same seed;
//! * the global allocator can be topology-backed
//!   (`init_global_device_pool`), exercised here because this
//!   integration binary is its own process;
//! * unit cases of the multi-device pool through its public API —
//!   affinity, whole-device spill, cross-device donation, oversize
//!   denial, collective regrouping, reset, invariant reports — and the
//!   parity gate: a 1-device `DevicePool` replays a `GallatinPool` of
//!   the same width bit for bit (scalar, collective, and elastic
//!   traffic).

use gallatin::global::{
    global_allocator, global_allocator_initialized, global_check_invariants, global_device_pool,
    global_free, global_malloc, init_global_device_pool,
};
use gallatin::{DevicePool, GallatinConfig, GallatinPool, TREE_FREE};
use gpu_sim::trace::{self, Ledger, TraceSink};
use gpu_sim::{launch, launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WarpCtx};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const HEAP: u64 = 1 << 20; // per instance: 16 small_test segments
const WARPS: u64 = 8;

/// Seed sweep width, overridable by `GALLATIN_TOPO_SEEDS` (the CI quick
/// lane sets 4).
fn topo_seeds() -> u64 {
    std::env::var("GALLATIN_TOPO_SEEDS")
        .ok()
        .map(|s| s.parse().expect("GALLATIN_TOPO_SEEDS must be a u64"))
        .unwrap_or(16)
}

/// One seeded round: every warp mallocs a mixed batch on its affinity
/// device, then a second kernel frees each warp's batch from the *next*
/// warp — one SM over, hence (for multi-device topologies) routinely
/// one device over. The armed ledger proves every free found its owner.
fn routed_churn(seed: u64, devices: u32, width: usize) {
    let pool = Arc::new(DevicePool::new(devices, width, GallatinConfig::small_test(HEAP)));
    let num_sms = devices * width as u32;
    let device_bytes = pool.stride() * width as u64;
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    trace::with_sink(sink.clone(), || {
        // (malloc home device, batch) per warp, for the rotated pass.
        let slots: Vec<Mutex<(usize, Vec<DevicePtr>)>> =
            (0..WARPS).map(|_| Mutex::new((0, Vec::new()))).collect();
        launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed), WARPS * 32, |warp| {
            let k = warp.active as usize;
            let sizes: Vec<Option<u64>> =
                (0..k).map(|l| Some(16u64 << ((warp.base_tid as usize + l) % 4))).collect();
            let mut out = vec![DevicePtr::NULL; k];
            pool.warp_malloc(warp, &sizes, &mut out);
            let home = warp.sm_id as usize % devices as usize;
            for p in &out {
                assert!(!p.is_null(), "per-device heap must not exhaust");
                assert_eq!(
                    (p.0 / device_bytes) as usize,
                    home,
                    "an uncontended topology places on the affinity device"
                );
            }
            *slots[warp.warp_id as usize].lock().unwrap() = (home, out);
        });
        assert_eq!(pool.total_cross_spills(), 0, "this workload fits every home device");
        // Rotated frees: warp w returns warp (w+1)'s batch.
        let cross = AtomicU64::new(0);
        launch_warps(DeviceConfig::with_sms(num_sms).seeded(seed ^ 0x5eed), WARPS * 32, |warp| {
            let victim = ((warp.warp_id + 1) % WARPS) as usize;
            let (owner_home, ptrs) = slots[victim].lock().unwrap().clone();
            if warp.sm_id as usize % devices as usize != owner_home {
                cross.fetch_add(1, Ordering::Relaxed);
            }
            pool.warp_free(warp, &ptrs);
        });
        if devices > 1 {
            assert!(
                cross.load(Ordering::Relaxed) > 0,
                "rotation must exercise the cross-device path"
            );
            assert!(pool.topo_stats().peer_accesses > 0, "peer frees must be classified");
        }
        assert_eq!(pool.stats().reserved_bytes, 0, "every routed free reached its owner");
        let ledger = Ledger::build(&sink.snapshot());
        assert!(ledger.live.is_empty(), "seed {seed}: cross-device leaks: {:?}", ledger.live);
        assert!(
            ledger.double_frees.is_empty(),
            "seed {seed}: mis-routed frees: {:?}",
            ledger.double_frees
        );
        pool.check_invariants().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    });
}

#[test]
fn cross_device_frees_route_home_across_seeds() {
    for seed in 0..topo_seeds() {
        routed_churn(seed, 2, 2);
    }
}

#[test]
fn wider_topologies_route_the_same_way() {
    for seed in [3, 11] {
        routed_churn(seed, 4, 2);
        routed_churn(seed, 3, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline property: SM affinity picks device `i` and instance
    /// `i'` within it; a warp on an arbitrary other SM frees; the
    /// reservation comes back to zero — the free routed home purely by
    /// the pointer→device→instance tables.
    #[test]
    fn pointer_mallocd_on_device_i_freed_from_j_routes_home(
        devices in 1u32..=4,
        width in 1usize..=2,
        malloc_sm in 0u32..8,
        free_sm in 0u32..8,
        count in 1usize..=32,
        class_skew in 0usize..5,
    ) {
        let pool = DevicePool::new(devices, width, GallatinConfig::small_test(HEAP));
        let device_bytes = pool.stride() * width as u64;
        let seg_bytes = pool.pool(0).instance(0).geometry().segment_bytes;
        let wm = WarpCtx { warp_id: 0, sm_id: malloc_sm, base_tid: 0, active: count as u32 };
        let sizes: Vec<Option<u64>> =
            (0..count).map(|l| Some(16u64 << ((l + class_skew) % 5))).collect();
        let mut out = vec![DevicePtr::NULL; count];
        pool.warp_malloc(&wm, &sizes, &mut out);
        let home_dev = malloc_sm as usize % devices as usize;
        let home_inst = malloc_sm as usize % width;
        for p in &out {
            prop_assert!(!p.is_null());
            // Pointer → physical device → instance round-trip: the
            // flat instance index decomposes as device × width + local.
            prop_assert_eq!(
                (p.0 / device_bytes) as usize, home_dev,
                "a fresh topology serves from the affinity device"
            );
            prop_assert_eq!(
                (p.0 / pool.stride()) as usize, home_dev * width + home_inst,
                "…and from the affinity instance within it"
            );
            // The routing table agrees with the physical placement
            // (no donations have moved anything yet).
            prop_assert_eq!(
                pool.owner_of_segment(p.0 / seg_bytes),
                Some(home_dev * width + home_inst)
            );
        }
        prop_assert_eq!(pool.total_cross_spills(), 0);
        let wf = WarpCtx { warp_id: 1, sm_id: free_sm, base_tid: 1 << 20, active: count as u32 };
        pool.warp_free(&wf, &out);
        prop_assert_eq!(
            pool.stats().reserved_bytes, 0,
            "a free from device {} must route to owner {}",
            free_sm as usize % devices as usize, home_dev
        );
        pool.check_invariants().map_err(TestCaseError::fail)?;
    }
}

/// Exhaust device 0 wholesale from SM 0 and overflow once; return the
/// cross-spill counters and the trace export for replay comparison.
fn spill_run(seed: u64) -> (u64, u64, String) {
    let pool = Arc::new(DevicePool::new(2, 1, GallatinConfig::small_test(HEAP)));
    let device_bytes = pool.stride();
    let sink = Arc::new(TraceSink::new());
    sink.set_leak_check(true);
    let export = trace::with_sink(sink.clone(), || {
        launch_warps(DeviceConfig::with_sms(1).seeded(seed), 32, |warp| {
            let l = warp.lane(0);
            let seg = pool.pool(0).instance(0).geometry().segment_bytes;
            // 16 segment-sized claims drain device 0 (width 1); the
            // 17th must cross the interconnect.
            let held: Vec<_> = (0..17).map(|_| pool.malloc(&l, seg)).collect();
            assert!(held.iter().all(|p| !p.is_null()), "the peer must absorb the overflow");
            assert!(held[..16].iter().all(|p| p.0 < device_bytes), "home device serves first");
            assert!(held[16].0 >= device_bytes, "the 17th allocation crossed devices");
            for p in held {
                pool.free(&l, p);
            }
        });
        pool.check_invariants().expect("clean after the cross-device round-trip");
        trace::chrome_trace_json(&sink.snapshot())
    });
    (pool.cross_spill_count(0), pool.cross_spill_count(1), export)
}

#[test]
fn cross_device_spill_is_deterministic_and_device_tagged() {
    let (home, peer, a) = spill_run(5);
    assert_eq!((home, peer), (1, 0), "exactly one cross spill, charged to the home device");
    assert!(a.contains("\"device\": 1"), "spilled events must carry the serving device's tag");
    let (home2, _, b) = spill_run(5);
    assert_eq!(home2, 1);
    assert_eq!(a, b, "the cross-device spill must replay byte-identically under one seed");
}

#[test]
fn global_allocator_can_be_a_device_pool() {
    assert!(!global_allocator_initialized());
    init_global_device_pool(2, 2, 64 << 20).expect("first init in this process");
    let pool = global_device_pool().expect("the global is topology-backed");
    assert_eq!((pool.devices(), pool.width()), (2, 2));
    assert_eq!(global_allocator().heap_bytes(), 64 << 20); // 16 MB per instance
    assert_eq!(global_allocator().name(), "DevicePool");
    // Double init of any flavour reports what already won.
    let err = init_global_device_pool(4, 1, 128 << 20).unwrap_err();
    assert_eq!(err.existing, "DevicePool");
    let err = gallatin::global::init_global_pool(2, 64 << 20).unwrap_err();
    assert_eq!(err.existing, "DevicePool");

    let ok = AtomicU64::new(0);
    launch(DeviceConfig::with_sms(4), 4096, |ctx| {
        let p = global_malloc(ctx, 48);
        assert!(!p.is_null());
        global_allocator().memory().write_stamp(p, ctx.global_tid());
        assert_eq!(global_allocator().memory().read_stamp(p), ctx.global_tid());
        global_free(ctx, p);
        ok.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ok.load(Ordering::Relaxed), 4096);
    assert_eq!(global_allocator().stats().reserved_bytes, 0);
    global_check_invariants().expect("topology-backed global consistent after the storm");
    // Same-lane malloc/free is all-local traffic — affinity routing
    // keeps a self-contained storm off the interconnect entirely.
    let s = pool.topo_stats();
    assert!(s.local_accesses > 0);
    assert_eq!(s.peer_accesses, 0, "a same-lane storm never crosses the interconnect");
}

fn topo_pool(devices: u32, width: usize) -> DevicePool {
    DevicePool::new(devices, width, GallatinConfig::small_test(HEAP))
}

fn warp_on(sm_id: u32, active: u32) -> WarpCtx {
    WarpCtx { warp_id: sm_id as u64, sm_id, base_tid: (sm_id as u64) << 32, active }
}

#[test]
fn affinity_places_on_the_sm_home_device() {
    let t = topo_pool(2, 2);
    let stride = t.topology().device_stride();
    // SM 0 and 2 home on device 0, SM 1 and 3 on device 1.
    for sm in 0..4u32 {
        let p = t.malloc(&warp_on(sm, 1).lane(0), 64);
        assert!(!p.is_null());
        assert_eq!(p.device_of(stride), sm % 2, "SM {sm} must allocate on its device");
        assert_eq!(t.device_of(p), t.affinity_device(sm));
        t.free(&warp_on(sm, 1).lane(0), p);
    }
    let s = t.topo_stats();
    assert_eq!((s.cross_spills, s.peer_accesses), (0, 0), "all-affine traffic stays local");
    assert_eq!(s.local_accesses, 8, "4 mallocs + 4 frees, all local");
    assert_eq!(t.stats().reserved_bytes, 0);
    t.check_invariants().expect("clean after affine traffic");
}

#[test]
fn whole_device_denial_spills_across_the_interconnect() {
    let t = topo_pool(2, 2);
    let seg = t.pool(0).instance(0).geometry().segment_bytes;
    let l0 = warp_on(0, 1);
    // Exhaust device 0 wholesale: 2 instances × 16 segments.
    let held: Vec<_> = (0..32).map(|_| t.malloc(&l0.lane(0), seg)).collect();
    assert!(held.iter().all(|q| !q.is_null()));
    assert_eq!(t.total_cross_spills(), 0, "in-device walk absorbed everything so far");
    assert!(t.pool(0).total_spills() > 0, "the in-device spill walk ran first");
    // The 33rd crosses to device 1 — charged to home device 0, and the
    // access is classified peer.
    let crossed = t.malloc(&l0.lane(0), seg);
    assert!(!crossed.is_null());
    assert_eq!(t.device_of(crossed), 1, "served by the peer device");
    assert_eq!(t.cross_spill_count(0), 1);
    assert_eq!(t.metrics().unwrap().snapshot().peer_accesses, 1);
    // Frees route home by segment ownership regardless of SM.
    t.free(&warp_on(3, 1).lane(0), crossed);
    for q in held {
        t.free(&warp_on(2, 1).lane(0), q);
    }
    assert_eq!(t.stats().reserved_bytes, 0);
    t.check_invariants().expect("clean after cross-device spill + routed frees");
}

#[test]
fn cross_device_donation_rehomes_and_routing_follows() {
    let t = topo_pool(2, 2);
    assert_eq!(t.donate_across(0, 1, 4), Ok(4));
    assert_eq!(t.topo_stats().cross_donations, 4);
    t.check_invariants().expect("clean after cross-device donation");
    // Device 1 now answers for 36 segments; device 0 for 28.
    let s = t.topo_stats();
    let owned: Vec<u64> = s
        .devices
        .iter()
        .map(|d| d.instances.iter().map(|i| i.owned_segments).sum::<u64>())
        .collect();
    assert_eq!(owned, vec![28, 36], "responsibility moved without copying bytes");
    // Device 1 can hold 36 segment claims with no cross-device spill;
    // the 4 donated ones are physically on device 0, so those
    // allocations classify as peer accesses.
    let seg = t.pool(0).instance(0).geometry().segment_bytes;
    let l1 = warp_on(1, 1);
    let held: Vec<_> = (0..36).map(|_| t.malloc(&l1.lane(0), seg)).collect();
    assert!(held.iter().all(|q| !q.is_null()));
    assert_eq!(t.total_cross_spills(), 0, "donated headroom absorbed the pressure");
    let donated: Vec<_> = held.iter().filter(|q| t.device_of(**q) == 0).collect();
    assert_eq!(donated.len(), 4, "exactly the donated segments are peer memory");
    assert_eq!(t.metrics().unwrap().snapshot().peer_accesses, 4);
    // Frees of donated-segment pointers route to device 1 (the owner),
    // not device 0 (the physical host).
    for q in held {
        t.free(&warp_on(5, 1).lane(0), q);
    }
    assert_eq!(t.stats().reserved_bytes, 0);
    t.check_invariants().expect("clean after routed frees of donated segments");
}

#[test]
fn cross_device_donation_bounces_when_the_quiesce_check_fails() {
    let t = topo_pool(2, 1);
    // Plant a torn state on device 0's first segment.
    t.pool(0).instance(0).table().seg(0).tree_id.store(0, Ordering::SeqCst);
    let err = t.donate_across(0, 1, 16).unwrap_err();
    assert!(err.contains("quiesce"), "unexpected error: {err}");
    assert_eq!(t.topo_stats().cross_donations, 0);
    // Repair and retry: the full span crosses.
    t.pool(0).instance(0).table().seg(0).tree_id.store(TREE_FREE, Ordering::SeqCst);
    assert_eq!(t.donate_across(0, 1, 16), Ok(16));
    t.check_invariants().expect("clean after the repaired donation");
}

#[test]
fn oversize_requests_are_denied_once_and_walk_nothing() {
    let t = topo_pool(2, 2);
    assert!(!t.supports_size(t.stride() + 1));
    assert_eq!(t.max_native_size(), t.stride());
    assert!(t.malloc(&warp_on(0, 1).lane(0), t.stride() + 1).is_null());
    let denials = |d: usize| t.pool(d).pool_stats().oversize_denials;
    assert_eq!(denials(0), 1, "home device counts the one denial");
    assert_eq!(denials(1), 0, "peers are never consulted");
    let w = warp_on(0, 32);
    let sizes = vec![Some(t.stride() + 1); 32];
    let mut out = vec![DevicePtr(7); 32];
    t.warp_malloc(&w, &sizes, &mut out);
    assert!(out.iter().all(|q| q.is_null()));
    assert_eq!((denials(0), denials(1)), (33, 0));
    assert_eq!(t.total_cross_spills(), 0, "an unservable size is not a spill");
}

#[test]
fn warp_collectives_regroup_across_devices() {
    let t = topo_pool(2, 1);
    let w0 = warp_on(0, 32);
    let w1 = warp_on(1, 32);
    let sizes = vec![Some(16u64); 32];
    let mut a = vec![DevicePtr::NULL; 32];
    let mut b = vec![DevicePtr::NULL; 32];
    t.warp_malloc(&w0, &sizes, &mut a);
    t.warp_malloc(&w1, &sizes, &mut b);
    assert!(a.iter().all(|q| !q.is_null() && t.device_of(*q) == 0));
    assert!(b.iter().all(|q| !q.is_null() && t.device_of(*q) == 1));
    // Interleave both devices' pointers in one collective free: each
    // owner receives its half as one group.
    let mixed: Vec<DevicePtr> = (0..32).map(|l| if l % 2 == 0 { a[l] } else { b[l] }).collect();
    let rest: Vec<DevicePtr> = (0..32).map(|l| if l % 2 == 0 { b[l] } else { a[l] }).collect();
    t.warp_free(&w0, &mixed);
    t.warp_free(&w1, &rest);
    assert_eq!(t.stats().reserved_bytes, 0);
    t.check_invariants().expect("clean after interleaved cross-device frees");
}

#[test]
fn reset_restores_the_initial_topology() {
    let t = topo_pool(2, 2);
    let seg = t.pool(0).instance(0).geometry().segment_bytes;
    let l0 = warp_on(0, 1);
    for _ in 0..33 {
        assert!(!t.malloc(&l0.lane(0), seg).is_null());
    }
    assert_eq!(t.total_cross_spills(), 1);
    assert_eq!(t.donate_across(1, 0, 2), Ok(2));
    t.reset();
    let s = t.topo_stats();
    assert_eq!((s.reserved_bytes, s.cross_spills, s.cross_donations), (0, 0, 0));
    assert_eq!((s.local_accesses, s.peer_accesses), (0, 0));
    for d in 0..2 {
        assert!(s.devices[d].instances.iter().all(|i| i.owned_segments == 16));
    }
    t.check_invariants().expect("clean after reset");
}

#[test]
#[should_panic(expected = "foreign pointer")]
fn foreign_pointer_free_panics() {
    let t = topo_pool(2, 1);
    t.free(&warp_on(0, 1).lane(0), DevicePtr(t.heap_bytes() + 64));
}

#[test]
fn invariant_check_names_the_corrupt_device() {
    let t = topo_pool(2, 1);
    // Segment 17 is device 1's: claim its tree_id without removing it
    // from the segment tree or formatting it.
    t.pool(1).instance(0).table().seg(17).tree_id.store(0, Ordering::SeqCst);
    let err = t.check_invariants().unwrap_err();
    assert!(err.contains("device 1: instance 0: segment 17"), "unexpected report: {err}");
}

#[test]
fn single_device_pool_matches_a_standalone_pool_bit_for_bit() {
    // The parity gate: DevicePool(1, n, cfg) must replay GallatinPool(n,
    // cfg) exactly — same placement, same counters, same per-instance
    // metrics — because the topology adds only host-side accounting
    // (never a preemption point).
    let one = topo_pool(1, 2);
    let flat = GallatinPool::new(2, GallatinConfig::small_test(HEAP));
    let seg = flat.instance(0).geometry().segment_bytes;
    // Scalar traffic, with a forced in-device spill.
    let scalar = |a: &dyn DeviceAllocator| {
        let mut held = Vec::new();
        for sm in 0..4u32 {
            for i in 0..5u64 {
                let p = a.malloc(&warp_on(sm, 1).lane(0), 16 << (i % 3));
                assert!(!p.is_null());
                held.push((sm, p));
            }
        }
        for _ in 0..17 {
            let p = a.malloc(&warp_on(0, 1).lane(0), seg);
            assert!(!p.is_null());
            held.push((0, p));
        }
        for (sm, p) in held {
            a.free(&warp_on(sm, 1).lane(0), p);
        }
    };
    // Warp-collective traffic: fill instance 0 with segment-sized
    // claims, then a warp homed there spills its group to the sibling.
    let collective = |a: &dyn DeviceAllocator| {
        let filler: Vec<_> = (0..15).map(|_| a.malloc(&warp_on(0, 1).lane(0), seg)).collect();
        let (w, mut out) = (warp_on(2, 32), vec![DevicePtr::NULL; 32]);
        let sizes: Vec<Option<u64>> = (0..32).map(|l| Some(if l < 2 { seg } else { 64 })).collect();
        a.warp_malloc(&w, &sizes, &mut out);
        assert!(out.iter().all(|p| !p.is_null()));
        a.warp_free(&warp_on(3, 32), &out);
        for p in filler {
            a.free(&warp_on(1, 1).lane(0), p);
        }
    };
    scalar(&one);
    scalar(&flat);
    let before = flat.total_spills();
    collective(&one);
    collective(&flat);
    assert!(flat.total_spills() > before, "the collective walk must spill to the sibling");
    // Elastic traffic: donate, shrink, grow, and adopt-before-spill.
    for p in [&*one, &flat] {
        p.trim();
        assert_eq!(p.donate(0, 1, 3), Ok(3));
        assert_eq!(p.shrink_instance(1, 5), 5);
        assert_eq!(p.grow(0, 2), 2);
        let held: Vec<_> = (0..16).map(|_| p.malloc(&warp_on(0, 1).lane(0), seg)).collect();
        assert!(held.iter().all(|q| !q.is_null()));
        for q in held {
            p.free(&warp_on(0, 1).lane(0), q);
        }
    }
    for i in 0..2 {
        assert_eq!(
            one.pool(0).instance(i).metrics().unwrap().snapshot(),
            flat.instance(i).metrics().unwrap().snapshot(),
            "instance {i} metrics must be bit-identical"
        );
    }
    assert_eq!(one.pool(0).pool_stats(), flat.pool_stats());
    assert!(flat.pool_stats().adopted_segments > 2, "the malloc walk adopted parked headroom");
    assert_eq!(one.total_cross_spills(), 0, "one device has no peers to spill to");
    assert_eq!(one.metrics().unwrap().snapshot().peer_accesses, 0);
    one.check_invariants().expect("clean");
    flat.check_invariants().expect("clean");
}
