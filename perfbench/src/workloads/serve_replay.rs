//! `serve-replay`: the E20 serving engine under the deterministic
//! coordinator.
//!
//! `bench::serve::run_serve_engine` over `GallatinPool(2)` in
//! `small_test(4 MiB)` on 16 SMs: Poisson traffic at 90 requests per
//! kstep over a 60 k-step horizon, the two standard tenants, batch width
//! 64 and the ledger audit on. Each engine run gets a fresh pool, so
//! every run at one seed replays the same schedule: its step latencies
//! repeat exactly, and only host time varies.

use crate::heap::Heap;
use crate::report::{ratio, Metric};
use crate::run::{self, Budget, Lost, Opts, Sample, Shape, Target};
use crate::timed::Timed;
use crate::trace::{self, Layer};
use bench::serve::arrival::{self, ArrivalConfig, ArrivalShape};
use bench::serve::engine::{run_serve_engine_sampled, ServeConfig, ServeOutcome};
use bench::serve::tenant::{Rejection, TenantSpec};
use gallatin::{GallatinConfig, GallatinPool};
use gpu_sim::DeviceConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool instances.
pub const INSTANCES: usize = 2;
/// Heap per instance.
pub const INSTANCE_HEAP: u64 = 4 << 20;
/// Simulated SMs.
pub const SMS: u32 = 16;
/// Step horizon of one engine run.
pub const HORIZON: u64 = 60_000;
/// Offered load, requests per 1000 steps.
pub const RATE: u64 = 90;
/// Queued mallocs fused into one launch.
pub const BATCH_WIDTH: usize = 64;
/// One engine run is a single guarded call; it takes about a second.
const RUN_DEADLINE: Duration = Duration::from_secs(60);

/// The standard two-tenant mix of E20: a heavy service and a light one.
fn tenants() -> Vec<TenantSpec> {
    vec![
        TenantSpec {
            name: "svc-a".into(),
            weight: 3,
            quota_bytes: 1 << 21,
            size_min: 16,
            size_max: 4096,
            mean_lifetime_steps: 96,
        },
        TenantSpec {
            name: "svc-b".into(),
            weight: 1,
            quota_bytes: 1 << 20,
            size_min: 64,
            size_max: 1024,
            mean_lifetime_steps: 24,
        },
    ]
}

fn serve_config(seed: u64, horizon: u64) -> ServeConfig {
    ServeConfig {
        arrivals: ArrivalConfig {
            shape: ArrivalShape::Poisson,
            seed: seed ^ 0x5E4E,
            rate_per_kstep: RATE,
            horizon_steps: horizon,
        },
        tenants: tenants(),
        sched_seed: seed,
        batch_width: BATCH_WIDTH,
        queue_capacity: 4 * BATCH_WIDTH,
        launch_overhead_steps: 8,
        max_request_bytes: INSTANCE_HEAP,
        enforce_quotas: true,
        num_sms: SMS,
        ledger_check: true,
    }
}

fn build() -> Heap {
    Heap::Pool(Arc::new(GallatinPool::new(INSTANCES, GallatinConfig::small_test(INSTANCE_HEAP))))
}

/// Launch shape: a full batch of mallocs plus as many frees.
pub fn shape() -> Shape {
    let g = GallatinConfig::small_test(INSTANCE_HEAP * INSTANCES as u64).geometry();
    Shape {
        device: DeviceConfig::with_sms(SMS).seeded(1),
        threads: 2 * BATCH_WIDTH as u64,
        universes: vec![g.num_segments, g.max_blocks],
    }
}

/// Set-up state: nothing survives set-up but its warmed caches.
pub struct State;

/// Generate the arrivals once (the engine regenerates the same list from
/// the seed) and warm the engine with a short run on a throwaway pool.
pub fn setup(o: &Opts) -> State {
    let arrivals = arrival::generate(&serve_config(o.seed, HORIZON).arrivals, &tenants());
    assert!(!arrivals.is_empty(), "the arrival schedule is empty");
    let warm = build().timed();
    std::hint::black_box(run_serve_engine_sampled(
        &serve_config(o.seed, HORIZON / 20),
        &warm,
        0,
        &mut |_| {},
    ));
    State
}

/// One engine run: the outcome, host ms of every batch, and the host
/// time after the last batch (ledger audit and reduction).
fn engine_run(cfg: ServeConfig, alloc: Timed) -> (ServeOutcome, Vec<f64>, Duration) {
    let calls = AtomicU64::new(0);
    let counting = Counting { inner: alloc, calls: &calls };
    let mut batch_ms = Vec::new();
    let (mut last_calls, mut mark) = (0u64, Instant::now());
    // The sampler fires at every batch boundary (every step crossed): an
    // interval in which the allocator was called held one batch.
    let out = trace::span(Layer::Serve, 1, || {
        run_serve_engine_sampled(&cfg, &counting, 1, &mut |_| {
            let c = calls.load(Ordering::Relaxed);
            if c != last_calls {
                batch_ms.push(mark.elapsed().as_secs_f64() * 1e3);
                last_calls = c;
            }
            mark = Instant::now();
        })
    });
    (out, batch_ms, mark.elapsed())
}

/// Run engine runs until the budget closes.
pub fn measure(o: &Opts, _st: State, budget: &Budget) -> Sample {
    let mut s = Sample::default();
    let started = Instant::now();
    let (mut batches, mut served) = (0u64, 0u64);
    let mut steps: Option<(u64, u64)> = None;
    let mut repeatable = true;
    let deadline = Budget { deadline: RUN_DEADLINE, ..*budget };
    while budget.open(started, s.launches) {
        let mut t = Target::new(build());
        let cfg = serve_config(o.seed, HORIZON);
        let alloc = t.alloc.clone();
        let offered = arrival::generate(&cfg.arrivals, &cfg.tenants).len() as u64;
        match run::launch(&mut s, 2 * offered, started, &deadline, move || engine_run(cfg, alloc)) {
            Ok(((out, batch_ms, tail), took)) => {
                s.timed_s += took.as_secs_f64();
                s.rates.push(out.sched_steps as f64 / took.as_secs_f64());
                s.launch_ms.extend(batch_ms);
                s.tail_s += tail.as_secs_f64();
                s.grants += out.sched_steps;
                batches += out.batches;
                served += out.served;
                // Attempted: every offered request's malloc and free.
                // Refusals by quota or queue are admission policy, not
                // failures; a NULL for an admitted request is one.
                let exhausted: u64 =
                    out.tenants.iter().map(|t| t.rejected[Rejection::Exhausted as usize]).sum();
                let policy = offered - out.admitted;
                s.tally.attempted -= 2 * policy;
                s.tally.nulls += 2 * exhausted;
                if !out.clean() {
                    s.tally.mismatches += out.quota_violations
                        + out.ledger_leaks
                        + out.ledger_double_frees
                        + out.ledger_unknown_frees
                        + out.ledger_size_mismatches;
                }
                let now = (out.latency.p50, out.latency.p99);
                repeatable &= steps.is_none_or(|p| p == now);
                steps = Some(now);
            }
            Err(Lost::Hung) => break,
            Err(Lost::Panicked) => {}
        }
        t.observe(&mut s);
        t.finish(&mut s, false);
    }
    s.wall_s = started.elapsed().as_secs_f64();
    if !repeatable {
        s.tally.notes.push("serve step latencies differed between runs at one seed".into());
        s.tally.mismatches += 1;
    }
    let (p50, p99) = steps.unwrap_or_default();
    s.end_to_end = vec![
        Metric::new("serve_p50_steps", "steps", p50 as f64, served),
        Metric::new("serve_p99_steps", "steps", p99 as f64, served),
        Metric::new("grants_per_s", "grants/s", ratio(s.grants as f64, s.timed_s), s.grants),
    ];
    s.layers = vec![
        Metric::new(
            "serve.steps_per_batch",
            "steps",
            ratio(s.grants as f64, batches as f64),
            batches,
        ),
        Metric::new("serve.ledger_us", "us", ratio(s.tail_s * 1e6, s.launches as f64), s.launches),
    ];
    s
}

/// Forwards to the timed allocator and counts calls, so the engine's
/// sampler can tell batch boundaries from idle clock jumps.
struct Counting<'a> {
    inner: Timed,
    calls: &'a AtomicU64,
}

impl gpu_sim::DeviceAllocator for Counting<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn memory(&self) -> &gpu_sim::DeviceMemory {
        self.inner.memory()
    }
    fn malloc(&self, ctx: &gpu_sim::LaneCtx, size: u64) -> gpu_sim::DevicePtr {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.malloc(ctx, size)
    }
    fn free(&self, ctx: &gpu_sim::LaneCtx, ptr: gpu_sim::DevicePtr) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.free(ctx, ptr)
    }
    fn warp_malloc(
        &self,
        warp: &gpu_sim::WarpCtx,
        sizes: &[Option<u64>],
        out: &mut [gpu_sim::DevicePtr],
    ) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.warp_malloc(warp, sizes, out)
    }
    fn warp_free(&self, warp: &gpu_sim::WarpCtx, ptrs: &[gpu_sim::DevicePtr]) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.warp_free(warp, ptrs)
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
    fn metrics(&self) -> Option<&gpu_sim::Metrics> {
        self.inner.metrics()
    }
    fn device_count(&self) -> u32 {
        self.inner.device_count()
    }
    fn device_of(&self, ptr: gpu_sim::DevicePtr) -> u32 {
        self.inner.device_of(ptr)
    }
    fn affinity_device(&self, sm: u32) -> u32 {
        self.inner.affinity_device(sm)
    }
    fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
    fn stats(&self) -> gpu_sim::AllocStats {
        self.inner.stats()
    }
}
