//! Layer microbenches, each at a workload's own shape and through the
//! layer's public API only.

use crate::report::{quantile, sorted, Metric};
use crate::Rng;
use gpu_sim::{launch_warps, launch_warps_counted, preempt_point, DeviceConfig, PreemptPoint};
use std::hint::black_box;
use std::time::{Duration, Instant};
use veb::VebTree;

/// Samples per microbench, at most.
const MAX_SAMPLES: usize = 400;

fn sample(budget: Duration, mut once: impl FnMut() -> f64) -> Vec<f64> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < 20 || (t0.elapsed() < budget && out.len() < MAX_SAMPLES) {
        out.push(once());
    }
    sorted(out)
}

/// `gpu_sim.launch_us`: one empty `launch_warps` of `threads` threads
/// on `device` (free-running, at the pinned worker count).
pub fn launch_us(device: DeviceConfig, threads: u64, budget: Duration) -> Metric {
    let v = sample(budget, || {
        let t0 = Instant::now();
        launch_warps(device, threads, |w| {
            black_box(w);
        });
        t0.elapsed().as_secs_f64() * 1e6
    });
    Metric::new("gpu_sim.launch_us", "us", quantile(&v, 0.5), v.len() as u64)
}

/// `gpu_sim.sched.grant_us`: host time per coordinator turn grant, from
/// deterministic `launch_warps_counted` launches of `warps` warps on
/// `sms` SMs, each warp crossing `points` preemption points.
pub fn grant_us(sms: u32, warps: u64, points: u32, budget: Duration) -> Metric {
    let mut seed = 0u64;
    let v = sample(budget, || {
        seed += 1;
        let t0 = Instant::now();
        let steps =
            launch_warps_counted(DeviceConfig::with_sms(sms).seeded(seed), warps * 32, |_| {
                for _ in 0..points {
                    preempt_point(PreemptPoint::Rmw);
                }
            });
        t0.elapsed().as_secs_f64() * 1e6 / steps.max(1) as f64
    });
    Metric::new("gpu_sim.sched.grant_us", "us", quantile(&v, 0.5), v.len() as u64)
}

/// `veb.succ_ns`, `veb.insert_ns`, `veb.remove_ns`: nanoseconds per
/// operation on half-full wide-scan trees (the configuration Gallatin
/// builds) over each universe in turn; one sample is a batch of 256
/// operations of one kind.
pub fn veb(universes: &[u64], seed: u64, budget: Duration) -> Vec<Metric> {
    const BATCH: usize = 256;
    let mut rng = Rng::new(seed ^ 0x7EB);
    let trees: Vec<VebTree> = universes
        .iter()
        .map(|&u| {
            let t = VebTree::with_wide(u, true);
            for x in 0..u {
                if rng.below(2) == 0 {
                    t.insert(x);
                }
            }
            t
        })
        .collect();
    let share = budget / 3;
    let mut k = 0usize;
    let mut next_tree = || {
        k += 1;
        &trees[k % trees.len()]
    };
    let mut rng2 = Rng::new(seed);
    let succ = sample(share, || {
        let t = next_tree();
        let starts: Vec<u64> = (0..BATCH).map(|_| rng2.below(t.universe())).collect();
        let t0 = Instant::now();
        for &s in &starts {
            black_box(t.find_first_from(s));
        }
        t0.elapsed().as_nanos() as f64 / BATCH as f64
    });
    // Remove then re-insert the same members, so occupancy stays put.
    let mut members: Vec<u64> = Vec::new();
    let remove = sample(share, || {
        let t = next_tree();
        members = (0..BATCH).map(|_| rng2.below(t.universe())).filter(|&x| t.contains(x)).collect();
        let t0 = Instant::now();
        for &x in &members {
            black_box(t.remove(x));
        }
        let ns = t0.elapsed().as_nanos() as f64 / members.len().max(1) as f64;
        for &x in &members {
            t.insert(x);
        }
        ns
    });
    let insert = sample(share, || {
        let t = next_tree();
        members = (0..BATCH).map(|_| rng2.below(t.universe())).filter(|&x| t.contains(x)).collect();
        for &x in &members {
            t.remove(x);
        }
        let t0 = Instant::now();
        for &x in &members {
            black_box(t.insert(x));
        }
        t0.elapsed().as_nanos() as f64 / members.len().max(1) as f64
    });
    vec![
        Metric::new("veb.succ_ns", "ns", quantile(&succ, 0.5), succ.len() as u64),
        Metric::new("veb.insert_ns", "ns", quantile(&insert, 0.5), insert.len() as u64),
        Metric::new("veb.remove_ns", "ns", quantile(&remove, 0.5), remove.len() as u64),
    ]
}
