//! `compare A.json B.json`: A is the parent, B the change. Applies each
//! end-to-end metric's regression bound from `BENCHMARK.json` and prints
//! one row per (workload, metric): better / within bound / worse /
//! unresolved. Exit status 1 on any worse row or any rise in failures.
//!
//! A result file is what `run.sh --out` writes:
//! `{"provenance": {...}, "runs": [{"workload", "seed", "trace",
//! "correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}]}`.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Direction {
    Lower,
    Higher,
}

pub struct Bound {
    pub better: Direction,
    pub bound: f64,
}

/// Reads the `end_to_end` table of `BENCHMARK.json`.
pub fn bounds_from_manifest(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = json::parse(text)?;
    let rows = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without a name")?;
        let better = match row.get("better").and_then(Value::as_str) {
            Some("lower") => Direction::Lower,
            Some("higher") => Direction::Higher,
            other => return Err(format!("{name}: bad direction {other:?}")),
        };
        let bound = row
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        out.insert(name.to_string(), Bound { better, bound });
    }
    Ok(out)
}

/// Untraced runs of one file: workload → metric → values, plus failures
/// and attempts per workload.
#[derive(Default)]
struct Side {
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    failed: BTreeMap<String, (f64, f64)>,
}

fn load(text: &str) -> Result<Side, String> {
    let doc = json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("no runs list")?;
    let mut side = Side::default();
    for run in runs {
        if run.get("trace").and_then(Value::as_f64).unwrap_or(0.0) != 0.0 {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let tally = side
            .failed
            .entry(workload.to_string())
            .or_insert((0.0, 0.0));
        tally.0 += run.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        tally.1 += run.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                side.values
                    .entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// Judges one (workload, metric) pairing by the rule of the
/// choosing-metrics guide: the change's median may be worse than the
/// parent's by at most the bound; where either side's own spread is wider
/// than the bound the row is unresolved — unless every run of the change
/// reads better than every run of the parent.
pub fn judge(parent: &[f64], change: &[f64], bound: &Bound) -> Verdict {
    let (Some(mp), Some(mc)) = (stats::median(parent), stats::median(change)) else {
        return Verdict::Unresolved;
    };
    if mp == 0.0 {
        return if mc == 0.0 {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = worse, as a share of the parent's median.
    let worse_by = match bound.better {
        Direction::Lower => (mc - mp) / mp.abs(),
        Direction::Higher => (mp - mc) / mp.abs(),
    };
    let clean_win = match bound.better {
        Direction::Lower => max(change) < min(parent),
        Direction::Higher => min(change) > max(parent),
    };
    let noisy = [parent, change]
        .iter()
        .any(|side| stats::spread(side).is_some_and(|s| s > bound.bound));
    if noisy && !clean_win {
        Verdict::Unresolved
    } else if worse_by > bound.bound {
        Verdict::Worse
    } else if worse_by < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Runs the comparison; returns the process exit status.
pub fn run(manifest: &str, parent: &str, change: &str) -> Result<i32, String> {
    let bounds = bounds_from_manifest(manifest)?;
    let a = load(parent).map_err(|e| format!("parent file: {e}"))?;
    let b = load(change).map_err(|e| format!("change file: {e}"))?;
    let mut status = 0;
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "parent median", "change median", "change", "bound"
    );
    for (workload, metrics) in &a.values {
        let Some(theirs) = b.values.get(workload) else {
            println!("{workload:<16} (absent from the change's file)");
            status = 1;
            continue;
        };
        for (name, bound) in &bounds {
            let (Some(pv), Some(cv)) = (metrics.get(name), theirs.get(name)) else {
                continue;
            };
            let verdict = judge(pv, cv, bound);
            let (mp, mc) = (
                stats::median(pv).unwrap_or(0.0),
                stats::median(cv).unwrap_or(0.0),
            );
            let delta = if mp != 0.0 {
                (mc - mp) / mp.abs() * 100.0
            } else {
                0.0
            };
            let word = match verdict {
                Verdict::Better => "better",
                Verdict::Within => "within bound",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved (spread wider than bound)",
            };
            println!(
                "{workload:<16} {name:<22} {mp:>14.4} {mc:>14.4} {delta:>+8.2}% {:>6.0}%  {word}",
                bound.bound * 100.0
            );
            if verdict == Verdict::Worse {
                status = 1;
            }
        }
        let share = |(failed, attempted): (f64, f64)| failed / attempted.max(1.0);
        let (fa, fb) = (
            share(a.failed.get(workload).copied().unwrap_or_default()),
            share(b.failed.get(workload).copied().unwrap_or_default()),
        );
        let word = if fb > fa {
            "WORSE (any rise fails)"
        } else {
            "no rise"
        };
        println!(
            "{workload:<16} {:<22} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {word}",
            "failed_share", "", ""
        );
        if fb > fa {
            status = 1;
        }
    }
    Ok(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Direction::Lower,
        bound: 0.10,
    };
    const HIGHER: Bound = Bound {
        better: Direction::Higher,
        bound: 0.10,
    };

    #[test]
    fn judges_by_median_and_bound() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&parent, &[104.0, 105.0, 103.0, 104.5, 103.5], &LOWER),
            Verdict::Within
        );
        assert_eq!(
            judge(&parent, &[115.0, 116.0, 114.0, 115.5, 114.5], &LOWER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&parent, &[80.0, 81.0, 79.0, 80.5, 79.5], &LOWER),
            Verdict::Better
        );
        assert_eq!(
            judge(&parent, &[80.0, 81.0, 79.0, 80.5, 79.5], &HIGHER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&parent, &[120.0, 121.0, 119.0, 120.5, 119.5], &HIGHER),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&noisy, &[104.0, 105.0, 103.0, 104.5, 103.5], &LOWER),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent.
        assert_eq!(
            judge(&noisy, &[50.0, 51.0, 49.0, 50.5, 49.5], &LOWER),
            Verdict::Better
        );
    }

    #[test]
    fn end_to_end_compare_flags_a_regression_and_a_failure_rise() {
        let manifest = r#"{"end_to_end": [{"name": "latency", "unit": "us", "better": "lower", "bound": 0.1}]}"#;
        let file = |values: [f64; 3], failed: u64| {
            let runs: Vec<String> = values
                .iter()
                .map(|v| {
                    format!(
                        r#"{{"workload": "w", "seed": 1, "trace": 0, "correct": true, "attempted": 100, "failed": {failed}, "metrics": {{"latency": {{"value": {v}, "unit": "us"}}}}}}"#
                    )
                })
                .collect();
            format!(r#"{{"provenance": {{}}, "runs": [{}]}}"#, runs.join(","))
        };
        let parent = file([100.0, 101.0, 99.0], 0);
        assert_eq!(
            run(manifest, &parent, &file([102.0, 103.0, 101.0], 0)),
            Ok(0)
        );
        assert_eq!(
            run(manifest, &parent, &file([130.0, 131.0, 129.0], 0)),
            Ok(1)
        );
        assert_eq!(
            run(manifest, &parent, &file([100.0, 101.0, 99.0], 1)),
            Ok(1)
        );
    }
}
