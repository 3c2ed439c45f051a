//! `--compare A.json B.json`: per workload × end-to-end metric, both sets'
//! medians, the change, the bound from `BENCHMARK.json`, and a verdict.
//!
//! A file holds one run record per line (what `--out` writes; concatenate
//! several runs to make a set). B is judged against A:
//!
//! * `ok` — B's median is not worse than A's by more than the bound;
//! * `worse` — it is;
//! * `unresolved` — a set's inter-quartile spread is wider than the bound,
//!   so the medians cannot settle it — unless every run of B reads better
//!   than every run of A, which is `ok`.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B's values against A's for a metric where `higher_is_better`,
/// with `bound` the tolerated worsening as a share of A's median.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Signed worsening as a share of A's median: positive means B is worse.
    let worsening = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_always_better = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if stats::spread(a).max(stats::spread(b)) > bound && !b_always_better {
        return Verdict::Unresolved;
    }
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `workload → metric → values` of the end-to-end records in a file.
fn load_set(path: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut set: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}:{}: record has no workload", path.display(), n + 1))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .ok_or_else(|| format!("{}:{}: record has no result.metrics", path.display(), n + 1))?;
        let per_workload = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_workload.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(set)
}

/// Print the comparison table; `Ok(true)` when no pairing is `worse`.
pub fn compare(a: &Path, b: &Path, bench: &Path) -> Result<bool, String> {
    let bench_text = std::fs::read_to_string(bench)
        .map_err(|e| format!("cannot read {}: {e}", bench.display()))?;
    let bench_doc = Json::parse(&bench_text).map_err(|e| format!("{}: {e}", bench.display()))?;
    let end_to_end = bench_doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", bench.display()))?;
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict (runs A/B)",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let mut none_worse = true;
    for (workload, metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(workload) else {
            println!("{workload:<14} (absent from B)");
            continue;
        };
        for m in end_to_end {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let (Some(va), Some(vb)) = (metrics_a.get(name), metrics_b.get(name)) else {
                continue;
            };
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (ma, mb) = (stats::median(va), stats::median(vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let verdict = judge(va, vb, higher, bound);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{workload:<14} {name:<22} {ma:>14.4} {mb:>14.4} {:>+8.2}% {:>6.0}%  {} ({}/{})",
                change * 100.0,
                bound * 100.0,
                verdict.label(),
                va.len(),
                vb.len()
            );
        }
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better, 10 % bound.
        assert_eq!(judge(&steady, &[105.0; 5], false, 0.10), Verdict::Ok);
        assert_eq!(judge(&steady, &[115.0; 5], false, 0.10), Verdict::Worse);
        assert_eq!(judge(&steady, &[80.0; 5], false, 0.10), Verdict::Ok);
        // Higher is better: a drop beyond the bound is worse.
        assert_eq!(judge(&steady, &[85.0; 5], true, 0.10), Verdict::Worse);
        assert_eq!(judge(&steady, &[95.0; 5], true, 0.10), Verdict::Ok);
        // A noisy set cannot settle a 10 % question …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &[104.0; 5], false, 0.10), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(judge(&noisy, &[70.0; 5], false, 0.10), Verdict::Ok);
    }
}
