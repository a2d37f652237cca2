//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <slice-cold|graph-cold|serve-replay|slice-warm|block-churn|graph-expand>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times (the median is
//! `setup_s`), measures it untraced for `--seconds`, and ends with the
//! end-to-end metrics. `--trace 1` measures it untraced for half the
//! time, then replays the same number of launches on a fresh set-up with
//! spans on, runs the layer microbenches, and ends with the per-layer
//! metrics, the attribution table and the tracing overhead. Either way
//! the last line of standard output is one JSON object.

use perfbench::micro;
use perfbench::report::{self, quantile, ratio, sorted, Metric};
use perfbench::run::{Budget, Opts, Sample};
use perfbench::trace::{self, Layer, LayerStats};
use perfbench::workloads::{self, Workload};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The process ends (without a result) if it is still running after this.
const HARD_LIMIT: Duration = Duration::from_secs(170);
/// End-to-end metrics on the result line, as listed in `BENCHMARK.json`.
const END_TO_END: [&str; 5] =
    ["ops_per_s", "launch_ms_p50", "launch_ms_p90", "peak_rss_mb", "setup_s"];
/// Per-layer metrics on the result line, as listed in `BENCHMARK.json`.
const PER_LAYER: [&str; 16] = [
    "gpu_sim.launch_us",
    "gpu_sim.sched.grant_us",
    "veb.succ_ns",
    "veb.insert_ns",
    "veb.remove_ns",
    "gpu_sim.rmw_per_op",
    "gpu_sim.cas_fail_ratio",
    "gpu_sim.coalesced_share",
    "core.malloc_ns.p50",
    "core.malloc_ns.p90",
    "core.free_ns.p50",
    "core.alloc_time_share",
    "core.segment.free_segments_min",
    "core.segment.reclaim_attempts",
    "core.segment.drain_spins",
    "trace.overhead_share",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {v:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = v.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = v.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", workloads::NAMES));
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pinned = std::env::var_os(PINNED_ENV).is_some();
    if workloads::SERVE_REPLAY.name == args.workload && !pinned {
        if let Some(code) = rerun_on_one_cpu() {
            std::process::exit(code);
        }
        println!("# note: taskset is unavailable; serve-replay runs unpinned");
    }
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!("perfbench: still running after {HARD_LIMIT:?}; giving up without a result");
        std::process::exit(3);
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(nproc)
        .build_global()
        .expect("pin the simulator pool");
    let o = Opts { seed: args.seed, workers: nproc };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} workers={} \
         pinned_cpu0={pinned} git={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.workers,
        git_sha()
    );
    match args.workload.as_str() {
        "slice-cold" => drive(&workloads::SLICE_COLD, &o, &args),
        "slice-warm" => drive(&workloads::SLICE_WARM, &o, &args),
        "block-churn" => drive(&workloads::BLOCK_CHURN, &o, &args),
        "graph-expand" => drive(&workloads::GRAPH_EXPAND, &o, &args),
        "graph-cold" => drive(&workloads::GRAPH_COLD, &o, &args),
        _ => drive(&workloads::SERVE_REPLAY, &o, &args),
    }
}

/// Set in the environment of a run re-executed on one CPU.
const PINNED_ENV: &str = "PERFBENCH_PINNED";

/// Run this same command again under `taskset -c 0` and wait for it;
/// `None` if `taskset` cannot pin here. `serve-replay` runs this way:
/// the coordinator lets one warp run at a time, so the run uses one CPU
/// anyway, and on one CPU every turn handoff is a local context switch.
/// Left to the scheduler, handoffs between CPUs cost cross-CPU wakeups
/// whose price varies from run to run (grants/s differed by up to 2x
/// between runs of one seed on a 2-vCPU VM; pinned, within 10%).
fn rerun_on_one_cpu() -> Option<i32> {
    use std::process::{Command, Stdio};
    let probe = Command::new("taskset").args(["-c", "0", "true"]).stderr(Stdio::null()).status();
    if !probe.is_ok_and(|s| s.success()) {
        return None;
    }
    let status = Command::new("taskset")
        .args(["-c", "0"])
        .arg(std::env::current_exe().ok()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    Some(status.code().unwrap_or(1))
}

/// The commit being measured, read from `.git` in the working directory
/// (the benchmark reads nothing outside its checkout); "unknown" when
/// there is none.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let sha = read("HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))?
                .split(' ')
                .next()
                .map(str::to_string)
        }),
    });
    sha.map_or_else(|| "unknown".into(), |s| s.chars().take(12).collect())
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn drive<S>(w: &Workload<S>, o: &Opts, args: &Args) {
    let seconds = Duration::from_secs_f64(args.seconds);
    let (s, line) = if args.trace { traced(w, o, seconds) } else { untraced(w, o, seconds) };
    // Correct: no payload, edge or ledger check failed. Failed operations
    // (NULLs, panics, hangs) are counted, not judged here.
    let correct = s.tally.mismatches == 0;
    report::print_tally(&s.tally);
    println!("{}", report::result_line(correct, &s.tally, &line));
}

fn pick(all: &[Metric], names: &[&str]) -> Vec<Metric> {
    names
        .iter()
        .map(|n| {
            all.iter()
                .find(|m| m.name == *n)
                .cloned()
                .unwrap_or_else(|| panic!("metric {n} computed"))
        })
        .collect()
}

/// Set up `SETUP_REPS` times, measure the last set-up untraced.
fn untraced<S>(w: &Workload<S>, o: &Opts, seconds: Duration) -> (Sample, Vec<Metric>) {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first, so only one is ever resident.
        drop(state.take());
        let t0 = Instant::now();
        state = Some((w.setup)(o));
        times.push(t0.elapsed().as_secs_f64());
    }
    let times = sorted(times);
    let s = (w.measure)(o, state.expect("set up at least once"), &Budget::for_time(seconds));
    let ms = sorted(s.launch_ms.clone());
    let rates = sorted(s.rates.clone());
    let mut all = vec![
        Metric::new("ops_per_s", "1/s", quantile(&rates, 0.5), rates.len() as u64),
        Metric::new("launch_ms_p50", "ms", quantile(&ms, 0.5), ms.len() as u64),
        Metric::new("launch_ms_p90", "ms", quantile(&ms, 0.9), ms.len() as u64),
        Metric::new("failed_share", "ratio", s.tally.failed_share(), s.tally.attempted),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb(), 1),
        Metric::new("setup_s", "s", quantile(&times, 0.5), times.len() as u64),
    ];
    if s.peak_live > 0 {
        all.push(Metric::new(
            "mem_overhead",
            "ratio",
            ratio(s.peak_held as f64, s.peak_live as f64),
            s.launches,
        ));
    }
    if let Some(d) = s.drain_retained {
        all.push(Metric::new("drain_retained_mb", "MiB", d as f64 / (1 << 20) as f64, 1));
    }
    all.extend(s.end_to_end.iter().cloned());
    report::print_table(
        &format!("{} end-to-end (untraced, {:.2} s measured)", w.name, s.wall_s),
        &all,
    );
    let c = &s.counters;
    println!(
        "# counters: mallocs={} frees={} rmw={} cas={} cas_failed={} coalesced={} reclaims={} \
         reclaim_aborts={} drain_spins={} straggler_bounces={} spills={} cross_spills={}",
        c.mallocs,
        c.frees,
        c.atomic_rmw,
        c.cas_attempts,
        c.cas_failures,
        c.coalesced_requests,
        c.reclaim_attempts,
        c.reclaim_aborts,
        c.drain_spins,
        c.straggler_bounces,
        s.spills,
        s.cross_spills
    );
    if ms.len() < 100 {
        println!(
            "# note: {} timed launches; launch_ms_p90 has fewer than 10 samples beyond it",
            ms.len()
        );
    }
    let line = pick(&all, &END_TO_END);
    (s, line)
}

/// Untraced for half the time, then the same launches traced, then the
/// microbenches.
fn traced<S>(w: &Workload<S>, o: &Opts, seconds: Duration) -> (Sample, Vec<Metric>) {
    let plain = (w.measure)(o, (w.setup)(o), &Budget::for_time(seconds / 2));
    let replay = Budget {
        time: seconds * 3,
        max_launches: Some(plain.launches),
        ..Budget::for_time(seconds)
    };
    let state = (w.setup)(o);
    trace::set_enabled(true);
    let mut t = (w.measure)(o, state, &replay);
    trace::set_enabled(false);
    let spans = trace::reduce(&trace::take());
    let shape = (w.shape)();
    // The coordinator microbench runs at the workload's SM count and at
    // most 64 of its warps, each crossing 32 preemption points.
    let warps = shape.threads.div_ceil(32).min(64);
    let mut micro_m = vec![
        micro::launch_us(shape.device, shape.threads, Duration::from_millis(300)),
        micro::grant_us(shape.device.num_sms, warps, 32, Duration::from_millis(300)),
    ];
    micro_m.extend(micro::veb(&shape.universes, o.seed, Duration::from_millis(600)));
    let workers = if w.deterministic { 1 } else { o.workers };
    let all = layer_metrics(&plain, &t, &spans, micro_m, workers);
    report::print_table(&format!("{} per-layer (traced)", w.name), &all);
    attribution(&plain, &t, &spans, workers);
    if plain.tally.hangs > 0 {
        t.tally.notes.push(
            "the untraced phase left a hung launch running; the traced phase and the \
             microbenches ran beside it"
                .into(),
        );
    }
    // Failures of either phase count.
    t.tally.absorb(plain.tally);
    let line = pick(&all, &PER_LAYER);
    (t, line)
}

fn per_op(st: &LayerStats, q: f64) -> f64 {
    quantile(&st.per_op_ns, q)
}

/// Per-layer metrics. Counters come from the untraced phase; times from
/// the traced one.
fn layer_metrics(
    plain: &Sample,
    t: &Sample,
    spans: &[LayerStats],
    micro_m: Vec<Metric>,
    workers: usize,
) -> Vec<Metric> {
    let c = &plain.counters;
    let ops = c.mallocs + c.frees;
    let l = |layer: Layer| &spans[layer as usize];
    let mut m = micro_m;
    m.push(Metric::new(
        "gpu_sim.rmw_per_op",
        "ratio",
        ratio((c.atomic_rmw + c.cas_attempts) as f64, ops as f64),
        ops,
    ));
    m.push(Metric::new(
        "gpu_sim.cas_fail_ratio",
        "ratio",
        ratio(c.cas_failures as f64, c.cas_attempts as f64),
        c.cas_attempts,
    ));
    m.push(Metric::new(
        "gpu_sim.coalesced_share",
        "ratio",
        ratio(c.coalesced_requests as f64, ops as f64),
        ops,
    ));
    m.push(Metric::new(
        "gpu_sim.peer_share",
        "ratio",
        ratio(c.peer_accesses as f64, (c.local_accesses + c.peer_accesses) as f64),
        c.local_accesses + c.peer_accesses,
    ));
    // All tiers together, then each tier that saw calls.
    let merge = |layers: &[Layer]| {
        let mut v: Vec<f64> = layers.iter().flat_map(|&x| l(x).per_op_ns.iter().copied()).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let mallocs = merge(&[Layer::SliceMalloc, Layer::BlockMalloc, Layer::SegmentMalloc]);
    let frees = merge(&[Layer::SliceFree, Layer::BlockFree, Layer::SegmentFree]);
    m.push(Metric::new("core.malloc_ns.p50", "ns", quantile(&mallocs, 0.5), mallocs.len() as u64));
    m.push(Metric::new("core.malloc_ns.p90", "ns", quantile(&mallocs, 0.9), mallocs.len() as u64));
    m.push(Metric::new("core.free_ns.p50", "ns", quantile(&frees, 0.5), frees.len() as u64));
    for (tier, ml, fl) in [
        ("slice", Layer::SliceMalloc, Layer::SliceFree),
        ("block", Layer::BlockMalloc, Layer::BlockFree),
        ("segment", Layer::SegmentMalloc, Layer::SegmentFree),
    ] {
        if l(ml).calls > 0 {
            m.push(Metric::new(
                &format!("core.{tier}.malloc_ns.p50"),
                "ns",
                per_op(l(ml), 0.5),
                l(ml).calls,
            ));
            m.push(Metric::new(
                &format!("core.{tier}.malloc_ns.p90"),
                "ns",
                per_op(l(ml), 0.9),
                l(ml).calls,
            ));
        } else {
            println!("# dropped core.{tier}.malloc_ns: no request of this workload falls in the {tier} tier");
        }
        if l(fl).calls > 0 {
            m.push(Metric::new(
                &format!("core.{tier}.free_ns.p50"),
                "ns",
                per_op(l(fl), 0.5),
                l(fl).calls,
            ));
        }
    }
    m.push(Metric::new("core.block.straggler_bounces", "count", c.straggler_bounces as f64, ops));
    let core_ns: u64 = Layer::ALL.iter().filter(|x| x.is_core()).map(|&x| l(x).total_ns).sum();
    let launch_ns = l(Layer::Launch).total_ns as f64 * workers as f64;
    m.push(Metric::new(
        "core.alloc_time_share",
        "ratio",
        ratio(core_ns as f64, launch_ns),
        l(Layer::Launch).calls,
    ));
    m.push(Metric::new(
        "core.segment.free_segments_min",
        "count",
        plain.free_segments_min.unwrap_or(0) as f64,
        plain.launches,
    ));
    m.push(Metric::new("core.segment.reclaim_attempts", "count", c.reclaim_attempts as f64, ops));
    m.push(Metric::new(
        "core.segment.reclaim_abort_ratio",
        "ratio",
        ratio(c.reclaim_aborts as f64, c.reclaim_attempts as f64),
        c.reclaim_attempts,
    ));
    m.push(Metric::new("core.segment.drain_spins", "count", c.drain_spins as f64, ops));
    m.push(Metric::new(
        "core.pool.spill_share",
        "ratio",
        ratio(plain.spills as f64, c.mallocs as f64),
        c.mallocs,
    ));
    m.push(Metric::new(
        "core.device_pool.cross_spill_share",
        "ratio",
        ratio(plain.cross_spills as f64, c.mallocs as f64),
        c.mallocs,
    ));
    let (gi, gd) = (l(Layer::GraphInsert), l(Layer::GraphDelete));
    if gi.calls == 0 {
        println!("# dropped graph.*: this workload makes no graph calls");
    } else {
        m.push(Metric::new("graph.insert_us.p50", "us", per_op(gi, 0.5) / 1e3, gi.calls));
        m.push(Metric::new("graph.delete_us.p50", "us", per_op(gd, 0.5) / 1e3, gd.calls));
        let total = gi.total_ns + gd.total_ns;
        m.push(Metric::new(
            "graph.self_share",
            "ratio",
            ratio((gi.self_ns + gd.self_ns) as f64, total as f64),
            gi.calls + gd.calls,
        ));
    }
    if t.grants == 0 {
        println!("# dropped serve.*: this workload runs no serving engine");
    } else {
        // Per batch: the engine loop's host time outside its batches
        // (arrival intake, queueing, idle clock jumps) and outside the
        // ledger audit.
        let batches = t.launch_ms.len() as f64;
        let between = l(Layer::Serve).total_ns as f64 / 1e3 - t.launch_ms.iter().sum::<f64>() * 1e3;
        m.push(Metric::new(
            "serve.engine_self_us",
            "us",
            ratio(between - t.tail_s * 1e6, batches),
            batches as u64,
        ));
    }
    m.extend(plain.layers.iter().cloned());
    m.push(Metric::new("trace.overhead_share", "ratio", overhead(plain, t), t.launches));
    m
}

/// Traced over untraced host time per timed launch, minus one. The two
/// phases run the same launches unless one of them hung.
fn overhead(plain: &Sample, t: &Sample) -> f64 {
    let per = |s: &Sample| ratio(s.timed_s, s.launch_ms.len() as f64);
    ratio(per(t), per(plain)) - 1.0
}

/// Print self time per layer next to the end-to-end time, untraced and
/// traced: the layer numbers must add up.
fn attribution(plain: &Sample, t: &Sample, spans: &[LayerStats], workers: usize) {
    let l = |layer: Layer| &spans[layer as usize];
    let budget = l(Layer::Launch).total_ns as f64 * workers as f64;
    println!("# attribution: self time per layer over {workers} worker(s) x traced launch time");
    let mut named = 0.0;
    for &layer in &Layer::ALL[1..] {
        let st = l(layer);
        if st.calls == 0 {
            continue;
        }
        // Allocator calls made on coordinator threads are not nested in
        // the serve span; take them out of it here.
        let own = if layer == Layer::Serve {
            let core: u64 = Layer::ALL.iter().filter(|x| x.is_core()).map(|&x| l(x).total_ns).sum();
            st.self_ns.saturating_sub(core) as f64
        } else {
            st.self_ns as f64
        };
        named += own;
        println!(
            "  {:<24} {:>12.3} ms  {:>6.1}%",
            layer.name(),
            own / 1e6,
            100.0 * ratio(own, budget)
        );
    }
    let rest = budget - named;
    println!(
        "  {:<24} {:>12.3} ms  {:>6.1}%",
        "gpu_sim.launch (rest)",
        rest / 1e6,
        100.0 * ratio(rest, budget)
    );
    println!(
        "  sum / workers = {:.3} ms; traced launches {:.3} ms ({} launches); untraced launches \
         {:.3} ms ({} launches); tracing overhead {:+.3} ms ({:+.1}% per launch)",
        (named + rest) / workers as f64 / 1e6,
        t.timed_s * 1e3,
        t.launch_ms.len(),
        plain.timed_s * 1e3,
        plain.launch_ms.len(),
        (t.timed_s - plain.timed_s) * 1e3,
        100.0 * overhead(plain, t)
    );
}
