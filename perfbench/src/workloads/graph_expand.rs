//! `graph-expand` and `graph-cold`: the paper's §6.12 application on one
//! `Gallatin`.
//!
//! `graph::DynamicGraph` over 2^16 vertices on a paper-geometry
//! `Gallatin` (1 GiB heap), fed by per-thread update kernels of 2^16
//! updates each. A cycle is three launches: a uniform insert batch, a
//! Zipf(α = 1) insert batch whose hub lists double from slice sizes into
//! block sizes, and a delete batch removing the previous cycle's uniform
//! edges (short lists, so each delete scans little, and quarter-occupancy
//! shrinks call free then malloc). Deletes never target hub edges: the
//! linear scan of `delete_edge` would swamp everything else. An episode
//! is 16 cycles on a fresh graph, ending with a check of the hub lists
//! and `destroy`. `graph-expand` runs every episode over the same (warm)
//! allocator; `graph-cold` resets it, untimed, before each episode.

use crate::heap::Heap;
use crate::report::{ratio, Metric};
use crate::run::{self, Budget, Lost, Opts, Sample, Shape, Target};
use crate::timed::Timed;
use crate::trace::{self, Layer};
use gallatin::{Gallatin, GallatinConfig};
use gpu_sim::{launch_warps, DeviceConfig};
use graph::gen::{uniform_edges, zipf_edges, EdgeBatch};
use graph::DynamicGraph;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Vertices.
pub const VERTICES: u32 = 1 << 16;
/// Updates per launch.
pub const BATCH: u64 = 1 << 16;
/// Heap size.
pub const HEAP: u64 = 1 << 30;
/// Simulated SMs.
pub const SMS: u32 = 128;
/// Cycles per episode.
pub const CYCLES: u64 = 16;
/// Distinct batches of each kind, used in turn.
const INPUTS: u64 = 8;
/// Vertices whose edge lists are compared with a host model.
const CHECKED_HUBS: u32 = 4;

fn config() -> GallatinConfig {
    GallatinConfig { heap_bytes: HEAP, num_sms: SMS, ..GallatinConfig::default() }
}

/// Launch shape.
pub fn shape() -> Shape {
    let g = config().geometry();
    Shape {
        device: DeviceConfig::with_sms(SMS),
        threads: BATCH,
        universes: vec![g.num_segments, g.max_blocks],
    }
}

/// Set-up state.
pub struct State {
    heap: Heap,
    uniform: Arc<Vec<EdgeBatch>>,
    zipf: Arc<Vec<EdgeBatch>>,
}

fn build() -> Heap {
    let heap = Heap::Single(Arc::new(Gallatin::new(config())));
    heap.prefault();
    heap
}

/// Build the allocator and the update batches, and warm the launch path.
pub fn setup(o: &Opts) -> State {
    let heap = build();
    let uniform =
        (0..INPUTS).map(|k| uniform_edges(VERTICES, BATCH as usize, o.seed ^ (k << 40))).collect();
    let zipf = (0..INPUTS)
        .map(|k| zipf_edges(VERTICES, BATCH as usize, 1.0, o.seed ^ (k << 40) ^ 0x21FF))
        .collect();
    launch_warps(shape().device, BATCH, |w| {
        black_box(w);
    });
    State { heap, uniform: Arc::new(uniform), zipf: Arc::new(zipf) }
}

type Graph = Arc<DynamicGraph<Timed>>;

/// What a launch does with its batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Insert,
    /// Delete the edges whose insert succeeded.
    Delete,
}

/// Apply `batch` (destinations xor `salt`); `ok[i]` records (insert) or
/// gates (delete) update `i`. Returns [applied, refused].
fn update_kernel(
    g: Graph,
    batches: Arc<Vec<EdgeBatch>>,
    which: usize,
    salt: u64,
    kind: Kind,
    ok: Arc<Vec<AtomicBool>>,
) -> [u64; 2] {
    let acc: [AtomicU64; 2] = Default::default();
    let batch = &batches[which];
    launch_warps(shape().device, BATCH, |w| {
        trace::warp(|| {
            let mut mine = [0u64; 2];
            for l in w.lanes() {
                let ctx = w.lane(l);
                let i = (w.base_tid + l as u64) as usize;
                let (src, dst) = batch[i];
                let done = match kind {
                    Kind::Insert => {
                        let r = trace::span(Layer::GraphInsert, 1, || {
                            g.insert_edge(&ctx, src, dst ^ salt)
                        });
                        ok[i].store(r, Ordering::Relaxed);
                        r
                    }
                    Kind::Delete if ok[i].load(Ordering::Relaxed) => {
                        trace::span(Layer::GraphDelete, 1, || g.delete_edge(&ctx, src, dst ^ salt))
                    }
                    Kind::Delete => continue,
                };
                mine[usize::from(!done)] += 1;
            }
            for (a, m) in acc.iter().zip(mine) {
                a.fetch_add(m, Ordering::Relaxed);
            }
        })
    });
    acc.map(|a| a.into_inner())
}

/// Host model of the checked hub lists.
#[derive(Default)]
struct Model {
    hubs: HashMap<u32, Vec<u64>>,
    edges: u64,
}

impl Model {
    fn apply(&mut self, batch: &EdgeBatch, salt: u64, kind: Kind, ok: &[AtomicBool]) {
        for (i, &(src, dst)) in batch.iter().enumerate() {
            if !ok[i].load(Ordering::Relaxed) {
                continue;
            }
            let list = (src < CHECKED_HUBS).then(|| self.hubs.entry(src).or_default());
            match kind {
                Kind::Insert => {
                    self.edges += 1;
                    list.into_iter().for_each(|l| l.push(dst ^ salt));
                }
                Kind::Delete => {
                    self.edges -= 1;
                    if let Some(l) = list {
                        if let Some(at) = l.iter().position(|&e| e == dst ^ salt) {
                            l.swap_remove(at);
                        }
                    }
                }
            }
        }
    }

    /// Hub lists that differ from the graph's.
    fn mismatches(&self, g: &DynamicGraph<Timed>) -> u64 {
        (0..CHECKED_HUBS)
            .filter(|v| {
                let mut want = self.hubs.get(v).cloned().unwrap_or_default();
                let mut have = g.edges(*v);
                want.sort_unstable();
                have.sort_unstable();
                want != have
            })
            .count() as u64
    }
}

/// `graph-expand`: run episodes until the budget closes.
pub fn measure(_o: &Opts, st: State, budget: &Budget) -> Sample {
    episodes(st, budget, false)
}

/// `graph-cold`: the same episodes, each on a freshly reset allocator.
pub fn measure_cold(_o: &Opts, st: State, budget: &Budget) -> Sample {
    episodes(st, budget, true)
}

fn episodes(st: State, budget: &Budget, cold: bool) -> Sample {
    let mut s = Sample::default();
    let mut t = Target::new(st.heap);
    let (mut applied, mut launches_done) = (0u64, 0u64);
    let started = Instant::now();
    let mut hung = false;
    let mut cycle = 0u64;
    'episodes: while budget.open(started, s.launches) {
        if cold {
            // The previous episode destroyed its graph, freeing everything.
            t.reset(&mut s);
        }
        let g: Graph = Arc::new(DynamicGraph::new(VERTICES as usize, t.alloc.clone()));
        let mut model = Model::default();
        let mut ok_prev: Arc<Vec<AtomicBool>> =
            Arc::new((0..BATCH).map(|_| AtomicBool::new(false)).collect());
        let mut lost = false;
        for c in 0..CYCLES {
            if !budget.open(started, s.launches) {
                break;
            }
            let ok_cur: Arc<Vec<AtomicBool>> =
                Arc::new((0..BATCH).map(|_| AtomicBool::new(false)).collect());
            let ok_zipf: Arc<Vec<AtomicBool>> =
                Arc::new((0..BATCH).map(|_| AtomicBool::new(false)).collect());
            let u = (cycle % INPUTS) as usize;
            let u_prev = ((cycle + INPUTS - 1) % INPUTS) as usize;
            let steps = [
                (st.uniform.clone(), u, cycle << 48, Kind::Insert, ok_cur.clone()),
                (st.zipf.clone(), u, 0, Kind::Insert, ok_zipf.clone()),
                (
                    st.uniform.clone(),
                    u_prev,
                    cycle.wrapping_sub(1) << 48,
                    Kind::Delete,
                    ok_prev.clone(),
                ),
            ];
            for (batches, which, salt, kind, ok) in steps {
                if kind == Kind::Delete && c == 0 {
                    continue;
                }
                let ops = match kind {
                    Kind::Insert => BATCH,
                    Kind::Delete => ok.iter().filter(|b| b.load(Ordering::Relaxed)).count() as u64,
                };
                let (gg, bb, oo) = (g.clone(), batches.clone(), ok.clone());
                match run::launch(&mut s, ops, started, budget, move || {
                    update_kernel(gg, bb, which, salt, kind, oo)
                }) {
                    Ok(([done, refused], took)) => {
                        run::timed(&mut s, took, done);
                        launches_done += 1;
                        applied += done;
                        match kind {
                            // A refused insert got NULL from the allocator.
                            Kind::Insert => s.tally.nulls += refused,
                            // A refused delete lost an edge it had stored.
                            Kind::Delete => s.tally.mismatches += refused,
                        }
                        model.apply(&batches[which], salt, kind, &ok);
                        s.tally.mismatches += model.edges.abs_diff(g.num_edges());
                    }
                    Err(Lost::Hung) => {
                        hung = true;
                        break 'episodes;
                    }
                    Err(Lost::Panicked) => {
                        lost = true;
                        break;
                    }
                }
                t.observe(&mut s);
                s.peak_live = s.peak_live.max(g.edge_bytes());
            }
            if lost {
                break;
            }
            ok_prev = ok_cur;
            cycle += 1;
        }
        if lost {
            // The graph may hold the panicked launch's locks: rebuild both.
            drop(g);
            t.retire(&mut s);
            t = Target::new(build());
            cycle += 1;
            continue;
        }
        s.tally.mismatches += model.mismatches(&g);
        let gg = g.clone();
        let destroyed = run::launch(&mut s, 0, started, budget, move || {
            launch_warps(DeviceConfig::with_sms(SMS), 1, |w| gg.destroy(&w.lane(0)));
        });
        match destroyed {
            Ok(_) => t.observe(&mut s),
            Err(Lost::Hung) => {
                hung = true;
                break;
            }
            Err(Lost::Panicked) => {
                t.retire(&mut s);
                t = Target::new(build());
            }
        }
    }
    s.wall_s = started.elapsed().as_secs_f64();
    t.finish(&mut s, hung);
    let allocs = s.counters.mallocs + s.counters.frees;
    s.end_to_end = vec![Metric::new(
        "edge_updates_per_s",
        "updates/s",
        ratio(applied as f64, s.timed_s),
        launches_done,
    )];
    s.layers = vec![Metric::new(
        "graph.allocs_per_update",
        "ratio",
        ratio(allocs as f64, applied as f64),
        applied,
    )];
    s
}
