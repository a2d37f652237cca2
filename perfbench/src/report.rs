//! Metrics, quantiles and the result line.

use crate::guard::Tally;
use std::fmt::Write as _;

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json` or the per-workload tables.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64, samples: u64) -> Self {
        Metric { name: name.to_string(), unit, value, samples }
    }
}

/// Quantile `q` of sorted `v` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Sort a sample set in place and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// `num ÷ den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Print `metrics` as aligned human-readable lines.
pub fn print_table(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        println!("  {:<38} {:>16.6} {:<10} n={}", m.name, m.value, m.unit, m.samples);
    }
}

/// Print the failure accounting of a run.
pub fn print_tally(t: &Tally) {
    println!(
        "# failures: attempted={} failed={} (nulls={} stamp_mismatches={} panic_ops={} deadline_ops={}) \
         panics={} hangs={}",
        t.attempted,
        t.failed(),
        t.nulls,
        t.mismatches,
        t.panic_ops,
        t.deadline_ops,
        t.panics,
        t.hangs
    );
    for m in &t.panic_messages {
        println!("#   panic: {m}");
    }
    for n in &t.notes {
        println!("#   note: {n}");
    }
    if t.invariant_errors.is_empty() && t.hangs == 0 {
        println!("#   check_invariants: ok");
    }
    for e in &t.invariant_errors {
        let mut lines = e.lines();
        let first = lines.next().unwrap_or_default();
        let more = lines.count();
        println!(
            "#   check_invariants: {first}{}",
            if more > 0 { format!(" (+{more} more)") } else { String::new() }
        );
    }
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let t = Tally { attempted: 10, nulls: 1, ..Tally::default() };
        let line = result_line(true, &t, &[Metric::new("setup_s", "s", 0.5, 3)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
