//! `repro` — regenerate every table and figure of the Gallatin paper.
//!
//! ```text
//! repro <subcommand> [flags]
//!
//! Subcommands (see DESIGN.md §5 for the experiment index):
//!   init            E1  — §6.4 initialization overhead
//!   single          E2/E3 — Fig 4a/4b single-size alloc + free
//!   mixed           E4/E5 — Fig 4c/4d mixed-size alloc + free
//!   scaling         E6/E7 — Fig 5 scaling with thread count
//!   variance        E8  — §6.8 latency variance
//!   warmup          E9  — §6.9 warmed-up allocators
//!   fragmentation   E10 — Fig 6a/6b fragmentation
//!   utilization     E11 — Fig 6c utilization (OOM test)
//!   graph           E12 — §6.12 dynamic graph phases
//!   expansion       E13 — §6.12 graph expansion
//!   reclaim         E15 — reclaim-protocol telemetry (attempts/aborts/bounces)
//!   ablation        E16 — deterministic atomic-count ablation (64-seed sweep)
//!   bench-smoke     E16 smoke subset, gated against results/BENCH_bench_smoke.json;
//!                   exits 1 if any atomic-op count regresses past the tolerance
//!   trace           E17 — allocation-lifecycle trace of the block-churn workload
//!                   (Chrome trace_event JSON; seed from GALLATIN_SCHED_SEED)
//!   pool            E18 — sharded-pool block churn over 1/2/4/8 instances
//!                   (per-instance atomic counts + spill rates, BENCH_pool.json)
//!   replay          E19 — trace-replay round trip: record the block churn,
//!                   convert to a gallatin-replay-v1 script, re-run it through
//!                   Gallatin and GallatinPool(2), assert lifecycle-outcome
//!                   equality (seed from GALLATIN_SCHED_SEED)
//!   serve           E20 — open-loop serving sweep: seeded arrivals (Poisson/
//!                   bursty), bounded queue, batched launches, multi-tenant
//!                   admission control; p50/p99/p999 + goodput to
//!                   BENCH_serve.json; exits 1 on any quota violation or
//!                   ledger anomaly (seed from GALLATIN_SCHED_SEED)
//!   elastic         E22 — elastic pool: hotspot donation with lifecycle
//!                   ledger, fragmentation-attack compaction A/B, and
//!                   donation latency with/without compaction, to
//!                   BENCH_elastic.json; exits 1 if the hot home absorbs no
//!                   donated segment, the ledger shows anomalies, or a
//!                   compaction row fails to strictly beat its control
//!                   (seed from GALLATIN_SCHED_SEED)
//!   topo            E23 — multi-device topology scaling over 1/2/4/8 devices:
//!                   locality-skew traffic sweep, cross-device spill cascade,
//!                   single-device parity vs GallatinPool, and a 2-device
//!                   serving cell, to BENCH_topo.json; exits 1 if the affine
//!                   cells exceed 5% peer traffic, the cascade overflow is
//!                   wrong, parity diverges, or the serve cell is dirty
//!                   (seed count from GALLATIN_TOPO_SEEDS, default 8)
//!   summary         §6.3-style speedup summary from the written CSVs
//!   all             everything above, in order
//!   perf-check      lint BENCH_*.json files/dirs (positional args, default
//!                   results/): median_ms must be a number or "untimed";
//!                   null/missing exits 1
//!
//! Flags:
//!   --threads N     logical GPU threads (default 32768)
//!   --runs N        repetitions per measurement, median reported (default 7)
//!   --heap BYTES    heap per allocator, accepts suffix K/M/G (default 1G)
//!   --sms N         simulated streaming multiprocessors (default 128)
//!   --pool N        OS worker threads (default max(8, cores))
//!   --out DIR       CSV output directory (default results)
//!   --json          also write machine-readable BENCH_<experiment>.json files
//!   --full          paper-scale: 1M threads, 50 runs, 2G heap, 2^20 scaling
//!   --smoke         CI smoke subset (serve): shorter horizon, fewer cells
//! ```

use bench::experiments as exp;
use bench::HarnessConfig;

const USAGE: &str = "usage: repro <init|single|mixed|scaling|variance|warmup|fragmentation|utilization|graph|expansion|reclaim|ablation|bench-smoke|trace|pool|replay|serve|elastic|topo|summary|all|perf-check> [--threads N] [--runs N] [--heap BYTES] [--sms N] [--pool N] [--out DIR] [--json] [--full] [--smoke]";

/// A byte count with an optional K/M/G suffix; `None` if it does not
/// parse or overflows `u64`.
fn parse_bytes(s: &str) -> Option<u64> {
    let (num, mult) = match s.chars().last()? {
        'G' | 'g' => (&s[..s.len() - 1], 1u64 << 30),
        'M' | 'm' => (&s[..s.len() - 1], 1u64 << 20),
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// The value following `flag`, or an error naming the flag.
fn flag_value<'a>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a str, String> {
    rest.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
}

/// `flag`'s value parsed as a number, or an error naming the flag.
fn flag_num<'a, T: std::str::FromStr>(
    flag: &str,
    rest: &mut impl Iterator<Item = &'a String>,
) -> Result<T, String> {
    let v = flag_value(flag, rest)?;
    v.parse().map_err(|_| format!("{flag}: not a number: {v}"))
}

/// Split the command line into the subcommand, the harness
/// configuration and the positional arguments.
fn parse_args(args: &[String]) -> Result<(String, HarnessConfig, Vec<String>), String> {
    let (cmd, flags) = args.split_first().ok_or("missing subcommand")?;
    let mut cfg = HarnessConfig::default();
    let mut positional = Vec::new();
    let mut rest = flags.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--threads" => cfg.threads = flag_num(arg, &mut rest)?,
            "--runs" => cfg.runs = flag_num(arg, &mut rest)?,
            "--heap" => {
                let v = flag_value(arg, &mut rest)?;
                cfg.heap_bytes = parse_bytes(v).ok_or_else(|| {
                    format!("--heap: not a byte count (K/M/G suffix, fits u64): {v}")
                })?;
            }
            "--sms" => cfg.num_sms = flag_num(arg, &mut rest)?,
            "--pool" => cfg.pool_threads = flag_num(arg, &mut rest)?,
            "--out" => cfg.out_dir = flag_value(arg, &mut rest)?.to_string(),
            "--json" => cfg.json = true,
            "--full" => cfg = cfg.at_full_scale(),
            "--smoke" => cfg.smoke = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => positional.push(other.to_string()),
        }
    }
    Ok((cmd.clone(), cfg, positional))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, cfg, positional) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    cfg.install_pool();
    println!(
        "# gallatin-repro harness — threads={} runs={} heap={}MiB sms={} pool={}",
        cfg.threads,
        cfg.runs,
        cfg.heap_bytes >> 20,
        cfg.num_sms,
        cfg.pool_threads
    );

    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "init" => exp::run_init(&cfg),
        "single" => exp::run_single(&cfg),
        "mixed" => exp::run_mixed(&cfg),
        "scaling" => exp::run_scaling(&cfg),
        "variance" => exp::run_variance(&cfg),
        "warmup" => exp::run_warmup(&cfg),
        "fragmentation" => exp::run_fragmentation(&cfg),
        "utilization" => exp::run_utilization(&cfg),
        "graph" => exp::run_graph(&cfg),
        "expansion" => exp::run_graph_expansion(&cfg),
        "reclaim" => exp::run_reclaim(&cfg),
        "ablation" => exp::run_ablation(&cfg),
        "bench-smoke" => {
            if !exp::run_bench_smoke(&cfg) {
                std::process::exit(1);
            }
        }
        "trace" => exp::run_trace(&cfg),
        "pool" => exp::run_pool(&cfg),
        "replay" => exp::run_replay(&cfg),
        "serve" => {
            if !exp::run_serve(&cfg) {
                std::process::exit(1);
            }
        }
        "elastic" => {
            if !exp::run_elastic(&cfg) {
                std::process::exit(1);
            }
        }
        "topo" => {
            if !exp::run_topo(&cfg) {
                std::process::exit(1);
            }
        }
        "summary" => exp::run_summary(&cfg.out_dir),
        "perf-check" => {
            let paths =
                if positional.is_empty() { vec!["results".to_string()] } else { positional };
            if !bench::report::run_perf_check(&paths) {
                std::process::exit(1);
            }
        }
        "all" => {
            exp::run_init(&cfg);
            exp::run_single(&cfg);
            exp::run_mixed(&cfg);
            exp::run_scaling(&cfg);
            exp::run_variance(&cfg);
            exp::run_warmup(&cfg);
            exp::run_fragmentation(&cfg);
            exp::run_utilization(&cfg);
            exp::run_graph(&cfg);
            exp::run_graph_expansion(&cfg);
            exp::run_reclaim(&cfg);
            exp::run_ablation(&cfg);
            exp::run_trace(&cfg);
            exp::run_pool(&cfg);
            exp::run_replay(&cfg);
            exp::run_serve(&cfg);
            exp::run_elastic(&cfg);
            exp::run_topo(&cfg);
            exp::run_summary(&cfg.out_dir);
        }
        other => {
            eprintln!("unknown subcommand {other}");
            std::process::exit(2);
        }
    }
    println!("\n# done in {:.1}s — CSVs in {}/", t0.elapsed().as_secs_f64(), cfg.out_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_fill_the_config() {
        let (cmd, cfg, pos) =
            parse_args(&argv("perf-check --heap 64M --sms 4 --out x --json a b")).unwrap();
        assert_eq!(cmd, "perf-check");
        assert_eq!((cfg.heap_bytes, cfg.num_sms, cfg.out_dir.as_str()), (64 << 20, 4, "x"));
        assert!(cfg.json);
        assert_eq!(pos, ["a", "b"]);
    }

    #[test]
    fn missing_value_names_the_flag() {
        for flag in ["--out", "--threads", "--heap"] {
            let err = parse_args(&argv(&format!("pool {flag}"))).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&argv("pool --samples 3")).unwrap_err().contains("--samples"));
    }

    #[test]
    fn heap_overflow_is_rejected() {
        assert_eq!(parse_bytes("16G"), Some(16 << 30));
        assert_eq!(parse_bytes("17179869184G"), None);
        assert_eq!(parse_bytes("G"), None);
        assert!(parse_args(&argv("pool --heap 99999999999999G")).unwrap_err().contains("--heap"));
    }
}
