//! `slice-warm` and `slice-cold`: the slice tier at the paper's geometry.
//!
//! One `Gallatin` with the published configuration (16 MiB segments,
//! 16 B–4 KiB slices, 4096 slices per block, 128 SMs) over a 2 GiB heap.
//! Each round is an alloc kernel of 2^16 lanes requesting power-of-two
//! sizes through `warp_malloc` (each lane stamps both ends of its
//! allocation), an untimed kernel that checks every stamp, and a free
//! kernel. `slice-warm` resets nothing between rounds (§6.9 warm mode);
//! `slice-cold` resets the allocator, untimed, before each round (cold
//! mode), so every alloc kernel refills the per-SM buffers from fresh
//! segments. The launch percentiles are taken over alloc kernels.

use crate::heap::Heap;
use crate::report::{quantile, sorted, Metric};
use crate::run::{self, Budget, Lost, Opts, Sample, Shape, Target};
use crate::timed::Timed;
use crate::{trace, Rng};
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Heap size.
pub const HEAP: u64 = 2 << 30;
/// Lanes per round.
pub const LANES: u64 = 1 << 16;
/// Simulated SMs.
pub const SMS: u32 = 128;
/// Distinct rounds of request sizes, used in turn.
const INPUTS: usize = 16;

fn config() -> GallatinConfig {
    GallatinConfig { heap_bytes: HEAP, num_sms: SMS, ..GallatinConfig::default() }
}

/// Launch shape.
pub fn shape() -> Shape {
    let g = config().geometry();
    Shape {
        device: DeviceConfig::with_sms(SMS),
        threads: LANES,
        universes: vec![g.num_segments, g.max_blocks],
    }
}

/// Set-up state.
pub struct State {
    heap: Heap,
    sizes: Arc<Vec<u32>>,
}

fn build() -> Heap {
    let heap = Heap::Single(Arc::new(Gallatin::new(config())));
    heap.prefault();
    heap
}

/// Build the allocator and the inputs, and warm the launch path.
pub fn setup(o: &Opts) -> State {
    let heap = build();
    let mut rng = Rng::new(o.seed);
    let sizes = (0..INPUTS as u64 * LANES).map(|_| 16u32 << rng.below(9)).collect();
    launch_warps(shape().device, LANES, |w| {
        black_box(w);
    });
    State { heap, sizes: Arc::new(sizes) }
}

fn stamp(round: u64, tid: u64) -> u64 {
    0xA5A5_0000_0000_0000 ^ (round << 24) ^ tid
}

/// Per-lane pointers of the current round.
type Ptrs = Arc<Vec<AtomicU64>>;

fn alloc_kernel(alloc: Timed, sizes: Arc<Vec<u32>>, ptrs: Ptrs, round: u64) {
    let base = (round % INPUTS as u64) * LANES;
    launch_warps(shape().device, LANES, |w| {
        trace::warp(|| {
            let n = w.active as usize;
            let req: Vec<Option<u64>> = (0..n)
                .map(|l| Some(sizes[(base + w.base_tid + l as u64) as usize] as u64))
                .collect();
            let mut out = vec![DevicePtr::NULL; n];
            alloc.warp_malloc(w, &req, &mut out);
            let mem = alloc.memory();
            for (l, p) in out.iter().enumerate() {
                let tid = w.base_tid + l as u64;
                if !p.is_null() {
                    let size = req[l].unwrap_or(16);
                    mem.write_stamp(*p, stamp(round, tid));
                    mem.write_stamp(p.offset(size - 8), stamp(round, tid));
                }
                ptrs[tid as usize].store(p.0, Ordering::Relaxed);
            }
        })
    });
}

/// Untimed: (nulls, stamp mismatches, live requested bytes).
fn check_kernel(alloc: Timed, sizes: Arc<Vec<u32>>, ptrs: Ptrs, round: u64) -> [u64; 3] {
    let base = (round % INPUTS as u64) * LANES;
    let acc: [AtomicU64; 3] = Default::default();
    launch_warps(shape().device, LANES, |w| {
        let mut mine = [0u64; 3];
        for l in w.lanes() {
            let tid = w.base_tid + l as u64;
            let p = DevicePtr(ptrs[tid as usize].load(Ordering::Relaxed));
            let size = sizes[(base + tid) as usize] as u64;
            if p.is_null() {
                mine[0] += 1;
                continue;
            }
            let mem = alloc.memory();
            let want = stamp(round, tid);
            if mem.read_stamp(p) != want || mem.read_stamp(p.offset(size - 8)) != want {
                mine[1] += 1;
            }
            mine[2] += size;
        }
        for (a, m) in acc.iter().zip(mine) {
            a.fetch_add(m, Ordering::Relaxed);
        }
    });
    acc.map(|a| a.into_inner())
}

fn free_kernel(alloc: Timed, ptrs: Ptrs) {
    launch_warps(shape().device, LANES, |w| {
        trace::warp(|| {
            let mine: Vec<DevicePtr> = w
                .lanes()
                .map(|l| DevicePtr(ptrs[w.base_tid as usize + l].swap(u64::MAX, Ordering::Relaxed)))
                .collect();
            alloc.warp_free(w, &mine);
        })
    });
}

/// `slice-warm`: run rounds until the budget closes.
pub fn measure(_o: &Opts, st: State, budget: &Budget) -> Sample {
    rounds(st, budget, false)
}

/// `slice-cold`: the same rounds, each on a freshly reset allocator.
pub fn measure_cold(_o: &Opts, st: State, budget: &Budget) -> Sample {
    rounds(st, budget, true)
}

fn rounds(st: State, budget: &Budget, cold: bool) -> Sample {
    let mut s = Sample::default();
    let mut t = Target::new(st.heap);
    let ptrs: Ptrs = Arc::new((0..LANES).map(|_| AtomicU64::new(u64::MAX)).collect());
    let (mut malloc_rates, mut free_rates) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut round = 0u64;
    let mut lost = None;
    while budget.open(started, s.launches) {
        if lost.take() == Some(Lost::Panicked) {
            t.retire(&mut s);
            t = Target::new(build());
            ptrs.iter().for_each(|p| p.store(u64::MAX, Ordering::Relaxed));
        }
        if cold {
            // The previous round freed everything; the drain reading at
            // the end of the phase still sees what its last round left.
            t.reset(&mut s);
        }
        let this = round;
        round += 1;
        let (a, z, p) = (t.alloc.clone(), st.sizes.clone(), ptrs.clone());
        let alloc_took = match run::launch(&mut s, LANES, started, budget, move || {
            alloc_kernel(a, z, p, this)
        }) {
            Ok(((), took)) => took,
            Err(why) => {
                lost = Some(why);
                if why == Lost::Hung {
                    break;
                }
                continue;
            }
        };
        s.timed_s += alloc_took.as_secs_f64();
        s.launch_ms.push(alloc_took.as_secs_f64() * 1e3);
        t.observe(&mut s);
        let (a, z, p) = (t.alloc.clone(), st.sizes.clone(), ptrs.clone());
        let [nulls, bad, live] =
            match run::launch(&mut s, 0, started, budget, move || check_kernel(a, z, p, this)) {
                Ok((found, _)) => found,
                Err(why) => {
                    lost = Some(why);
                    if why == Lost::Hung {
                        break;
                    }
                    continue;
                }
            };
        s.tally.nulls += nulls;
        s.tally.mismatches += bad;
        s.peak_live = s.peak_live.max(live);
        let served = LANES - nulls;
        let (a, p) = (t.alloc.clone(), ptrs.clone());
        match run::launch(&mut s, served, started, budget, move || free_kernel(a, p)) {
            Ok(((), took)) => {
                // Free kernels are about a third of an alloc kernel: the
                // launch percentiles cover alloc kernels only, so they do
                // not straddle two clusters. Throughput is per round.
                s.timed_s += took.as_secs_f64();
                s.rates.push(2.0 * served as f64 / (alloc_took + took).as_secs_f64());
                malloc_rates.push(served as f64 / alloc_took.as_secs_f64());
                free_rates.push(served as f64 / took.as_secs_f64());
            }
            Err(why) => {
                lost = Some(why);
                if why == Lost::Hung {
                    break;
                }
                continue;
            }
        }
        t.observe(&mut s);
    }
    s.wall_s = started.elapsed().as_secs_f64();
    t.finish(&mut s, lost == Some(Lost::Hung));
    let (malloc_rates, free_rates) = (sorted(malloc_rates), sorted(free_rates));
    s.end_to_end = vec![
        Metric::new(
            "malloc_mops",
            "Mops/s",
            quantile(&malloc_rates, 0.5) / 1e6,
            malloc_rates.len() as u64,
        ),
        Metric::new(
            "free_mops",
            "Mops/s",
            quantile(&free_rates, 0.5) / 1e6,
            free_rates.len() as u64,
        ),
    ];
    s
}
