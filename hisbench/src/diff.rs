//! `hisbench diff A.json B.json`: one row per (metric, workload), judged
//! against the bounds `BENCHMARK.json` fixes.

use serde_json::Value;
use std::path::Path;

/// The issue's per-workload end-to-end names. They exist on some
/// workloads only, so `BENCHMARK.json` lists them under `per_layer`
/// without a bound; their rows are informational.
const NAMED: [&str; 7] = [
    "judge_p50_ms",
    "batch_pairs_per_s",
    "batch_p50_ms",
    "cand_p50_ms",
    "reload_mean_ms",
    "train_wall_s",
    "test_f1",
];
/// Bound the informational rows are judged by.
const NAMED_BOUND: f64 = 0.10;

/// How B compares with A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: no call.
    Unresolved,
}

/// Judges `b` against `a`. `spread` is the wider of the two files'
/// quartile spreads, when they hold repeats.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let change = (b - a) / a.abs();
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(doc: &Value, workload: &str, name: &str) -> Option<(f64, Option<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(name)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("spread").and_then(Value::as_f64),
    ))
}

/// Prints the comparison and returns how many gated rows got worse.
pub fn run(a_path: &Path, b_path: &Path) -> Result<usize, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let benchmark = load(&crate::report::repo_root().join("BENCHMARK.json"))?;
    // (name, higher is better, bound, gated)
    let listed = |section: &str| -> Result<Vec<(String, bool, Option<f64>)>, String> {
        Ok(benchmark
            .get(section)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {section} list"))?
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_owned(),
                    m.get("better")?.as_str()? == "higher",
                    m.get("bound").and_then(Value::as_f64),
                ))
            })
            .collect())
    };
    let mut rows: Vec<(String, bool, f64, bool)> = listed("end_to_end")?
        .into_iter()
        .filter_map(|(name, higher, bound)| Some((name, higher, bound?, true)))
        .collect();
    rows.extend(
        listed("per_layer")?
            .into_iter()
            .filter(|(name, _, _)| NAMED.contains(&name.as_str()))
            .map(|(name, higher, _)| (name, higher, NAMED_BOUND, false)),
    );
    for side in [&a, &b] {
        if let Some(f) = side.get("fingerprint") {
            println!("# {}", serde_json::to_string(f).expect("values serialize"));
        }
    }
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    let mut worse = 0;
    for workload in crate::workloads::NAMES {
        for (name, higher, bound, gated) in &rows {
            let (Some((va, sa)), Some((vb, sb))) =
                (metric(&a, workload, name), metric(&b, workload, name))
            else {
                continue;
            };
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = verdict(va, vb, *higher, *bound, spread);
            if v == Verdict::Worse && *gated {
                worse += 1;
            }
            println!(
                "{workload:<18} {name:<20} {va:>14.4} {vb:>14.4} {:>+7.1}% {bound:>6.2}  {}{}",
                (vb - va) / va.abs() * 100.0,
                format!("{v:?}").to_lowercase(),
                if *gated { "" } else { " (ungated)" },
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_respects_direction_and_bound() {
        // Lower is better: 2.0 -> 2.3 is 15 % worse.
        assert_eq!(verdict(2.0, 2.3, false, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(2.0, 2.1, false, 0.10, None), Verdict::Same);
        assert_eq!(verdict(2.0, 1.5, false, 0.10, None), Verdict::Better);
        // Higher is better: the same moves flip.
        assert_eq!(verdict(2.0, 2.3, true, 0.10, None), Verdict::Better);
        assert_eq!(verdict(2.0, 1.5, true, 0.10, None), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(
            verdict(2.0, 2.0, false, 0.10, Some(0.13)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(2.0, 2.0, false, 0.10, Some(0.05)), Verdict::Same);
    }
}
