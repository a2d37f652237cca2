//! E18 — sharded-pool scaling (`repro pool`).
//!
//! Runs the E16 block-churn workload through a [`GallatinPool`] of 1, 2,
//! 4, and 8 instances — each instance carrying the same per-instance
//! configuration as the single-allocator churn, so the 1-instance column
//! is directly comparable to E16 — and emits `BENCH_pool.json` with
//! **per-instance** atomic-op counts and spill rates. Under the
//! deterministic scheduler the counts are exact functions of the seed,
//! so sharding effects (atomics spread across instance-private metadata,
//! zero cross-instance traffic while every home has capacity) show up as
//! bit-stable numbers rather than wall-clock noise.
//!
//! A second, deterministic **pressure** case drains one instance with
//! segment-sized claims from a single SM and keeps allocating, forcing
//! the overflow walk: its spill count is exact (every claim past the
//! home instance's 16th spills to the sibling) and regression-tested
//! below.

use crate::report::{write_bench_json, BenchRecord, Table};
use crate::HarnessConfig;
use gallatin::{GallatinConfig, GallatinPool};
use gpu_sim::{launch_warps, DeviceAllocator, DeviceConfig, DevicePtr};
use std::time::Instant;

use super::ablation::{
    block_churn_config, churn_once, SWEEP_ROUNDS, SWEEP_SEEDS_SMOKE, SWEEP_SIZE_BLOCK, SWEEP_WARPS,
};

/// Pool widths swept by `repro pool`.
const POOL_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Schedule seed for the pressure case (any seed reproduces the same
/// spill count — one warp, one SM, nothing to interleave with).
const PRESSURE_SEED: u64 = 3;

/// Segment-sized claims issued by the pressure case: the home instance
/// holds 16 small_test segments, so the remaining claims all spill.
const PRESSURE_CLAIMS: u64 = 24;

/// Counters accumulated for one pool instance across a seed sweep.
#[derive(Clone, Copy, Default)]
struct InstanceTotals {
    cas_attempts: u64,
    cas_failures: u64,
    atomic_rmw: u64,
    spills: u64,
}

/// Run the block churn over `seeds` deterministic schedules on a fresh
/// `n`-instance pool per seed; return per-instance totals and wall time.
fn churn_pool(n: usize, seeds: u64) -> (Vec<InstanceTotals>, f64) {
    let mut per = vec![InstanceTotals::default(); n];
    let mut ms = 0.0;
    for seed in 0..seeds {
        let pool = GallatinPool::new(n, block_churn_config());
        let t0 = Instant::now();
        churn_once(&pool, seed, SWEEP_SIZE_BLOCK);
        ms += t0.elapsed().as_secs_f64() * 1e3;
        pool.check_invariants().expect("invariants after pool churn");
        assert_eq!(pool.stats().reserved_bytes, 0, "pool churn leaked");
        for (i, t) in per.iter_mut().enumerate() {
            let m = pool.instance(i).metrics().expect("gallatin keeps metrics").snapshot();
            t.cas_attempts += m.cas_attempts;
            t.cas_failures += m.cas_failures;
            t.atomic_rmw += m.atomic_rmw;
            t.spills += pool.spill_count(i);
        }
    }
    (per, ms)
}

/// Allocation requests one churn sweep issues (the spill-rate
/// denominator).
fn churn_requests(seeds: u64) -> u64 {
    seeds * SWEEP_WARPS * 32 * SWEEP_ROUNDS
}

/// The deterministic pressure case: one SM drains its home instance with
/// segment-sized claims, forcing the overflow walk onto the sibling.
/// Returns `(spills charged to the home, claims issued)`.
fn pressure() -> (u64, u64) {
    let pool = GallatinPool::new(2, GallatinConfig::small_test(1 << 20));
    launch_warps(DeviceConfig::with_sms(1).seeded(PRESSURE_SEED), 32, |warp| {
        let lane = warp.lane(0);
        let seg = pool.instance(0).geometry().segment_bytes;
        let held: Vec<DevicePtr> = (0..PRESSURE_CLAIMS).map(|_| pool.malloc(&lane, seg)).collect();
        assert!(held.iter().all(|p| !p.is_null()), "sibling must absorb the pressure");
        for p in held {
            pool.free(&lane, p);
        }
    });
    pool.check_invariants().expect("invariants after pressure case");
    (pool.spill_count(0), PRESSURE_CLAIMS)
}

fn rec(
    experiment: &str,
    case: &str,
    extra: Vec<(String, String)>,
    ms: f64,
    counts: Vec<(String, u64)>,
) -> BenchRecord {
    let mut params = vec![("case".to_string(), case.to_string())];
    params.extend(extra);
    BenchRecord {
        experiment: experiment.to_string(),
        allocator: "GallatinPool".to_string(),
        params,
        median_ms: ms,
        counts,
    }
}

/// Records for one pool width: an aggregate row plus one row per
/// instance (the per-instance counts are the experiment's deliverable).
fn width_records(experiment: &str, n: usize, seeds: u64) -> Vec<BenchRecord> {
    let (per, ms) = churn_pool(n, seeds);
    let sum = |f: fn(&InstanceTotals) -> u64| per.iter().map(f).sum::<u64>();
    let mut out = vec![rec(
        experiment,
        "pool-churn",
        vec![
            ("instances".into(), n.to_string()),
            ("size".into(), SWEEP_SIZE_BLOCK.to_string()),
            ("seeds".into(), seeds.to_string()),
        ],
        ms,
        vec![
            ("cas_attempts".into(), sum(|t| t.cas_attempts)),
            ("cas_failures".into(), sum(|t| t.cas_failures)),
            ("atomic_rmw".into(), sum(|t| t.atomic_rmw)),
            ("spills".into(), sum(|t| t.spills)),
            ("requests".into(), churn_requests(seeds)),
        ],
    )];
    for (i, t) in per.iter().enumerate() {
        out.push(rec(
            experiment,
            "pool-churn",
            vec![
                ("instances".into(), n.to_string()),
                ("instance".into(), i.to_string()),
                ("size".into(), SWEEP_SIZE_BLOCK.to_string()),
                ("seeds".into(), seeds.to_string()),
            ],
            ms,
            vec![
                ("cas_attempts".into(), t.cas_attempts),
                ("cas_failures".into(), t.cas_failures),
                ("atomic_rmw".into(), t.atomic_rmw),
                ("spills".into(), t.spills),
            ],
        ));
    }
    out
}

/// The smoke-gate slice of E18: the 2-instance aggregate at the smoke
/// seed width, appended to `smoke_records()` so a pool-path count
/// regression fails the same gate as the single-instance sweeps.
pub fn pool_smoke_records() -> Vec<BenchRecord> {
    let (per, ms) = churn_pool(2, SWEEP_SEEDS_SMOKE);
    let sum = |f: fn(&InstanceTotals) -> u64| per.iter().map(f).sum::<u64>();
    vec![rec(
        "bench_smoke",
        "pool-churn",
        vec![
            ("instances".into(), "2".into()),
            ("size".into(), SWEEP_SIZE_BLOCK.to_string()),
            ("seeds".into(), SWEEP_SEEDS_SMOKE.to_string()),
        ],
        ms,
        vec![
            ("cas_attempts".into(), sum(|t| t.cas_attempts)),
            ("cas_failures".into(), sum(|t| t.cas_failures)),
            ("atomic_rmw".into(), sum(|t| t.atomic_rmw)),
            ("spills".into(), sum(|t| t.spills)),
        ],
    )]
}

/// Run the E18 sweep and emit table + CSV + `BENCH_pool.json`.
pub fn run_pool(cfg: &HarnessConfig) {
    let seeds = SWEEP_SEEDS_SMOKE;
    let mut recs = Vec::new();
    for n in POOL_WIDTHS {
        recs.extend(width_records("pool", n, seeds));
    }
    let t0 = Instant::now();
    let (spills, claims) = pressure();
    let pressure_ms = t0.elapsed().as_secs_f64() * 1e3;
    recs.push(rec(
        "pool",
        "pressure",
        vec![("instances".into(), "2".into()), ("seed".into(), PRESSURE_SEED.to_string())],
        pressure_ms,
        vec![("spills".into(), spills), ("requests".into(), claims)],
    ));

    let mut tab = Table::new(
        "E18 — sharded pool: block churn across instance counts",
        &[
            "case",
            "instances",
            "instance",
            "cas attempts",
            "cas failures",
            "atomic rmw",
            "spills",
            "spill rate",
        ],
    );
    for r in &recs {
        let get = |k: &str| r.counts.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        let param = |k: &str| {
            r.params
                .iter()
                .find(|(pk, _)| pk == k)
                .map(|(_, v)| v.clone())
                .unwrap_or_else(|| "-".to_string())
        };
        let spill_rate = match (get("spills"), get("requests")) {
            (Some(s), Some(req)) if req > 0 => format!("{:.4}", s as f64 / req as f64),
            _ => "-".to_string(),
        };
        let show = |v: Option<u64>| v.map(|v| v.to_string()).unwrap_or_else(|| "-".to_string());
        tab.row(vec![
            r.params[0].1.clone(),
            param("instances"),
            param("instance"),
            show(get("cas_attempts")),
            show(get("cas_failures")),
            show(get("atomic_rmw")),
            show(get("spills")),
            spill_rate,
        ]);
    }
    tab.emit(&cfg.out_dir, "e18_pool");
    match write_bench_json(&cfg.out_dir, "pool", &recs) {
        Ok(p) => println!("wrote {}", p.display()),
        Err(e) => eprintln!("warning: could not write BENCH_pool.json: {e}"),
    }
    println!(
        "pressure case: {spills} of {claims} segment claims spilled to the sibling \
         (home capacity 16 segments)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_churn_counts_replay_and_never_spill_with_headroom() {
        let (a, _) = churn_pool(2, 2);
        let (b, _) = churn_pool(2, 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cas_attempts, y.cas_attempts, "pool churn must replay exactly");
            assert_eq!(x.atomic_rmw, y.atomic_rmw);
        }
        assert_eq!(
            a.iter().map(|t| t.spills).sum::<u64>(),
            0,
            "every home instance has capacity for this workload"
        );
        // Both instances see traffic: 8 SMs split evenly over 2 homes.
        assert!(a.iter().all(|t| t.atomic_rmw > 0), "every instance must serve its SMs");
    }

    #[test]
    fn pressure_case_spills_exactly_the_overflow() {
        let (spills, claims) = pressure();
        assert_eq!(spills, claims - 16, "every claim past the home's 16 segments spills");
        assert_eq!(pressure().0, spills, "the pressure spill count is deterministic");
    }
}
