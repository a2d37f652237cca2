//! `block-churn`: the block and segment tiers and pool routing, with
//! malloc and free interleaved inside each kernel.
//!
//! A `DevicePool` of 2 devices × 2 instances at the paper's geometry on
//! 16 simulated SMs. Each launch is 32 warps; every warp runs 4 rounds
//! of `warp_malloc` → stamp → verify → `warp_free` over power-of-two
//! sizes of 8–256 KiB. Warps on SM 0 ask double, and two of their lanes
//! per launch ask for 32 MiB (two segments). Each instance holds 4
//! segments: SM 0's home instance spills in every launch while the pool
//! as a whole never runs dry, so every NULL is a failure. Since every
//! allocation is freed inside its launch, the bytes held are also read
//! inside the kernel, by each warp right after its malloc.

use crate::heap::Heap;
use crate::report::{ratio, Metric};
use crate::run::{self, Budget, Lost, Opts, Sample, Shape, Target};
use crate::timed::Timed;
use crate::{trace, Rng};
use gallatin::{DevicePool, GallatinConfig};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr, WARP_SIZE};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Devices.
pub const DEVICES: u32 = 2;
/// Instances per device.
pub const WIDTH: usize = 2;
/// Simulated SMs.
pub const SMS: u32 = 16;
/// Segments per instance.
pub const SEGMENTS_PER_INSTANCE: u64 = 4;
/// Warps per launch.
pub const WARPS: u64 = 32;
/// malloc → stamp → verify → free rounds per warp.
pub const ROUNDS: u64 = 4;
/// Lanes per launch that request two segments.
pub const BIG_LANES: u64 = 2;
/// Distinct launches of request sizes, used in turn.
const INPUTS: u64 = 64;
/// Requests per launch.
const PER_LAUNCH: u64 = WARPS * ROUNDS * WARP_SIZE as u64;

fn config() -> GallatinConfig {
    let segment = GallatinConfig::default().segment_bytes;
    GallatinConfig {
        heap_bytes: SEGMENTS_PER_INSTANCE * segment,
        num_sms: SMS,
        ..GallatinConfig::default()
    }
}

fn build() -> Heap {
    let heap = Heap::Devices(Arc::new(DevicePool::new(DEVICES, WIDTH, config())));
    heap.prefault();
    heap
}

/// Launch shape.
pub fn shape() -> Shape {
    let g = GallatinConfig {
        heap_bytes: config().heap_bytes * DEVICES as u64 * WIDTH as u64,
        ..config()
    }
    .geometry();
    Shape {
        device: DeviceConfig::with_sms(SMS),
        threads: WARPS * WARP_SIZE as u64,
        universes: vec![g.num_segments, g.max_blocks],
    }
}

/// Set-up state.
pub struct State {
    heap: Heap,
    sizes: Arc<Vec<u32>>,
}

/// Build the pool and the inputs, and warm the launch path.
pub fn setup(o: &Opts) -> State {
    let st = State::over(build(), o.seed);
    launch_warps(shape().device, shape().threads, |w| {
        black_box(w);
    });
    st
}

impl State {
    /// The inputs of `seed` over `heap`.
    pub fn over(heap: Heap, seed: u64) -> State {
        let mut rng = Rng::new(seed);
        let big = 2 * config().segment_bytes as u32;
        let mut sizes: Vec<u32> = (0..INPUTS * PER_LAUNCH)
            .map(|i| {
                let warp = i / (ROUNDS * WARP_SIZE as u64) % WARPS;
                let double = u32::from(warp.is_multiple_of(SMS as u64));
                (8u32 << 10) << (rng.below(6) as u32 + double)
            })
            .collect();
        // SM 0 runs warps 0 and 16: runs 0 and SMS of ROUNDS × 32
        // requests in each launch.
        let sm0_runs = [0, SMS as u64];
        for launch in 0..INPUTS {
            for _ in 0..BIG_LANES {
                let run = sm0_runs[rng.below(2) as usize] * ROUNDS * WARP_SIZE as u64;
                sizes
                    [(launch * PER_LAUNCH + run + rng.below(ROUNDS * WARP_SIZE as u64)) as usize] =
                    big;
            }
        }
        State { heap, sizes: Arc::new(sizes) }
    }
}

fn stamp(launch: u64, tid: u64, round: u64) -> u64 {
    0xB10C_0000_0000_0000 ^ (launch << 32) ^ (round << 24) ^ tid
}

/// Totals of one launch: [nulls, stamp mismatches, served mallocs (each
/// also freed), peak live bytes, peak held bytes].
fn churn_kernel(heap: Heap, alloc: Timed, sizes: Arc<Vec<u32>>, launch: u64) -> [u64; 5] {
    let base = (launch % INPUTS) * PER_LAUNCH;
    let acc: [AtomicU64; 3] = Default::default();
    let (live, peak, held) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
    launch_warps(shape().device, shape().threads, |w| {
        trace::warp(|| {
            let n = w.active as usize;
            let mut mine = [0u64; 3];
            let mut out = vec![DevicePtr::NULL; n];
            for round in 0..ROUNDS {
                let at = |l: usize| {
                    (base + (w.warp_id * ROUNDS + round) * WARP_SIZE as u64) as usize + l
                };
                let req: Vec<Option<u64>> = (0..n).map(|l| Some(sizes[at(l)] as u64)).collect();
                alloc.warp_malloc(w, &req, &mut out);
                let mem = alloc.memory();
                let mut bytes = 0u64;
                for (l, p) in out.iter().enumerate() {
                    if p.is_null() {
                        mine[0] += 1;
                        continue;
                    }
                    let size = sizes[at(l)] as u64;
                    let tag = stamp(launch, w.base_tid + l as u64, round);
                    mem.write_stamp(*p, tag);
                    mem.write_stamp(p.offset(size - 8), tag);
                    bytes += size;
                }
                let now = live.fetch_add(bytes, Ordering::Relaxed) + bytes;
                peak.fetch_max(now, Ordering::Relaxed);
                held.fetch_max(heap.held_bytes(), Ordering::Relaxed);
                for (l, p) in out.iter().enumerate().filter(|(_, p)| !p.is_null()) {
                    let size = sizes[at(l)] as u64;
                    let tag = stamp(launch, w.base_tid + l as u64, round);
                    if mem.read_stamp(*p) != tag || mem.read_stamp(p.offset(size - 8)) != tag {
                        mine[1] += 1;
                    }
                    mine[2] += 1;
                }
                alloc.warp_free(w, &out);
                live.fetch_sub(bytes, Ordering::Relaxed);
            }
            for (a, m) in acc.iter().zip(mine) {
                a.fetch_add(m, Ordering::Relaxed);
            }
        })
    });
    let [nulls, bad, served] = acc.map(|a| a.into_inner());
    [nulls, bad, served, peak.into_inner(), held.into_inner()]
}

/// Run launches until the budget closes.
pub fn measure(_o: &Opts, st: State, budget: &Budget) -> Sample {
    churn(st, budget, &build)
}

/// The launch loop over `st.heap`; after a panic the heap is replaced by
/// `rebuild()`.
pub fn churn(st: State, budget: &Budget, rebuild: &dyn Fn() -> Heap) -> Sample {
    let mut s = Sample::default();
    let mut t = Target::new(st.heap);
    let (mut done, mut spilled_launches, mut timed_launches) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    let mut launch = 0u64;
    let mut hung = false;
    while budget.open(started, s.launches) {
        let spills_before = t.heap.spills() + t.heap.cross_spills();
        let (h, a, z) = (t.heap.clone(), t.alloc.clone(), st.sizes.clone());
        match run::launch(&mut s, 2 * PER_LAUNCH, started, budget, move || {
            churn_kernel(h, a, z, launch)
        }) {
            Ok(([nulls, bad, served, peak, held], took)) => {
                run::timed(&mut s, took, 2 * served);
                timed_launches += 1;
                // A NULL's free never happens: both ops failed.
                s.tally.nulls += 2 * nulls;
                s.tally.mismatches += bad;
                s.peak_live = s.peak_live.max(peak);
                s.peak_held = s.peak_held.max(held);
                done += 2 * served;
                spilled_launches +=
                    u64::from(t.heap.spills() + t.heap.cross_spills() > spills_before);
            }
            Err(Lost::Hung) => {
                hung = true;
                break;
            }
            Err(Lost::Panicked) => {
                t.retire(&mut s);
                t = Target::new(rebuild());
            }
        }
        t.observe(&mut s);
        launch += 1;
    }
    s.wall_s = started.elapsed().as_secs_f64();
    t.finish(&mut s, hung);
    s.end_to_end = vec![
        Metric::new("churn_mops", "Mops/s", ratio(done as f64, s.timed_s) / 1e6, timed_launches),
        Metric::new(
            "spilling_launch_share",
            "ratio",
            ratio(spilled_launches as f64, timed_launches as f64),
            timed_launches,
        ),
    ];
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{DeviceMemory, LaneCtx};
    use std::time::Duration;

    /// An allocator that fails in one fixed way.
    enum Stub {
        Null(DeviceMemory),
        Panic(DeviceMemory),
        Spin(DeviceMemory),
    }

    impl DeviceAllocator for Stub {
        fn name(&self) -> &str {
            "stub"
        }
        fn memory(&self) -> &DeviceMemory {
            match self {
                Stub::Null(m) | Stub::Panic(m) | Stub::Spin(m) => m,
            }
        }
        fn malloc(&self, _: &LaneCtx, _: u64) -> DevicePtr {
            match self {
                Stub::Null(_) => DevicePtr::NULL,
                Stub::Panic(_) => panic!("stub allocator panics"),
                Stub::Spin(_) => loop {
                    std::thread::sleep(Duration::from_millis(1));
                },
            }
        }
        fn free(&self, _: &LaneCtx, _: DevicePtr) {}
        fn reset(&self) {}
        fn heap_bytes(&self) -> u64 {
            self.memory().len() as u64
        }
    }

    fn run_stub(make: fn() -> Stub) -> (Sample, Duration) {
        let _serial = crate::serial();
        let heap = || Heap::Other(Arc::new(make()));
        let budget = Budget {
            time: Duration::from_millis(400),
            max_launches: Some(4),
            deadline: Duration::from_millis(300),
        };
        let t0 = Instant::now();
        let s = churn(State::over(heap(), 1), &budget, &heap);
        (s, t0.elapsed())
    }

    #[test]
    fn nulls_land_in_failed_share() {
        let (s, _) = run_stub(|| Stub::Null(DeviceMemory::new(4096)));
        assert_eq!(s.tally.nulls, s.tally.attempted);
        assert_eq!(s.tally.failed_share(), 1.0);
    }

    #[test]
    fn panics_land_in_failed_share_and_the_run_goes_on() {
        let (s, _) = run_stub(|| Stub::Panic(DeviceMemory::new(4096)));
        assert_eq!(s.tally.panics, 4, "every launch panics, and each is followed by a rebuild");
        assert_eq!(s.tally.panic_ops, s.tally.attempted);
        assert!(
            s.tally.panic_messages[0].contains("stub allocator panics"),
            "{:?}",
            s.tally.panic_messages
        );
    }

    #[test]
    fn a_spinning_launch_ends_the_run_instead_of_hanging_it() {
        let (s, took) = run_stub(|| Stub::Spin(DeviceMemory::new(4096)));
        assert_eq!(s.tally.hangs, 1);
        assert!(s.tally.failed_share() > 0.99, "{:?}", s.tally);
        assert!(took < Duration::from_secs(5), "the run waited {took:?}");
    }
}
