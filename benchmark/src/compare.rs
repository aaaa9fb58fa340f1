//! `benchmark compare A.json B.json`: the bounds table applied to two
//! files written by `benchmark all`, A the baseline.

use std::process::ExitCode;

use crate::config::WORKLOADS;
use crate::json::{parse, Value};
use crate::metrics::{Better, EndToEnd, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// One side has no usable value: nothing can be said.
    Unresolved,
}

/// `setup_s` may also differ by this much whatever the share: short
/// set-ups move by more than their bound on any host.
const SETUP_SLACK_S: f64 = 0.2;

/// How `b` stands against baseline `a`. `exact`: the metric is on the
/// simulated clock and the two runs had one seed and one length, so any
/// difference is a change of behaviour.
pub fn verdict(m: &EndToEnd, a: Option<f64>, b: Option<f64>, exact: bool) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    if !a.is_finite() || !b.is_finite() || a <= 0.0 {
        return Verdict::Unresolved;
    }
    if a == b {
        return Verdict::Same;
    }
    // Positive when b is worse.
    let worse_by = match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    let slack = if exact { 0.0 } else { m.bound };
    if m.name == "setup_s" && (b - a).abs() <= SETUP_SLACK_S {
        return Verdict::Same;
    }
    if worse_by > slack {
        Verdict::Worse
    } else if -worse_by > slack {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn metric(file: &Value, workload: &str, section: &str, name: &str) -> Option<f64> {
    let run = file.get("workloads")?.get(workload)?.get(section)?;
    if section == "end_to_end"
        && (run.get("correct")?.as_bool() != Some(true) || run.get("failed")?.as_f64() != Some(0.0))
    {
        return None;
    }
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// One row per workload and end-to-end metric; whether any is worse.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<String>, bool), String> {
    let same_inputs = a.get("seed").and_then(Value::as_f64)
        == b.get("seed").and_then(Value::as_f64)
        && a.get("seconds").and_then(Value::as_f64) == b.get("seconds").and_then(Value::as_f64);
    let mut rows = Vec::new();
    let mut any_worse = false;
    for w in &WORKLOADS {
        let pinned = |f: &Value| metric(f, w.name, "per_layer", "harness.pinned");
        if let (Some(pa), Some(pb)) = (pinned(a), pinned(b)) {
            if pa != pb {
                return Err(format!("{}: one result was measured pinned to a CPU and the other not; they do not compare", w.name));
            }
        }
        let on_sim = w.name.starts_with("churn.");
        for m in &END_TO_END {
            let (va, vb) = (
                metric(a, w.name, "end_to_end", m.name),
                metric(b, w.name, "end_to_end", m.name),
            );
            let v = verdict(m, va, vb, same_inputs && on_sim && m.exact_on_sim);
            any_worse |= v == Verdict::Worse;
            let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
            rows.push(
                format!(
                    "{:<14} {:<18} {:>16} {:>16} {:>6} {:?}",
                    w.name,
                    m.name,
                    show(va),
                    show(vb),
                    m.unit,
                    v
                )
                .to_lowercase(),
            );
        }
    }
    Ok((rows, any_worse))
}

pub fn command(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, any_worse) = compare(&load(a)?, &load(b)?)?;
    println!(
        "{:<14} {:<18} {:>16} {:>16} {:>6} verdict",
        "workload", "metric", "a", "b", "unit"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_on_seeded_pairs() {
        let ops = m("ops_per_s"); // higher is better
        assert_eq!(
            verdict(ops, Some(1000.0), Some(1000.0), false),
            Verdict::Same
        );
        assert_eq!(
            verdict(ops, Some(1000.0), Some(950.0), false),
            Verdict::Same
        );
        assert_eq!(
            verdict(ops, Some(1000.0), Some(500.0), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(ops, Some(1000.0), Some(2000.0), false),
            Verdict::Better
        );
        // On the simulated clock any difference counts.
        assert_eq!(
            verdict(ops, Some(1000.0), Some(999.0), true),
            Verdict::Worse
        );
        assert_eq!(
            verdict(ops, Some(1000.0), Some(1001.0), true),
            Verdict::Better
        );
        assert_eq!(
            verdict(ops, Some(1000.0), Some(1000.0), true),
            Verdict::Same
        );
        let lat = m("get_mean_us"); // lower is better
        assert_eq!(
            verdict(lat, Some(100.0), Some(200.0), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lat, Some(100.0), Some(50.0), false),
            Verdict::Better
        );
        assert_eq!(verdict(lat, Some(100.0), None, false), Verdict::Unresolved);
        assert_eq!(
            verdict(lat, Some(f64::NAN), Some(1.0), false),
            Verdict::Unresolved
        );
        // A short set-up may move by 0.2 s whatever the share.
        let setup = m("setup_s");
        assert_eq!(verdict(setup, Some(0.1), Some(0.25), false), Verdict::Same);
        assert_eq!(verdict(setup, Some(2.0), Some(2.4), false), Verdict::Same);
        assert_eq!(verdict(setup, Some(2.0), Some(2.6), false), Verdict::Worse);
    }

    fn file(pinned: u8, ops: f64, failed: u64) -> Value {
        let one = format!(
            r#"{{"end_to_end": {{"correct": true, "attempted": 10, "failed": {failed}, "metrics": {{"ops_per_s": {{"value": {ops}, "unit": "1/s"}}}}}}, "per_layer": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{"harness.pinned": {{"value": {pinned}, "unit": "bool"}}}}}}}}"#
        );
        let workloads: Vec<String> = WORKLOADS
            .iter()
            .map(|w| format!("\"{}\": {one}", w.name))
            .collect();
        parse(&format!(
            "{{\"seed\": 7, \"seconds\": 5, \"workloads\": {{{}}}}}",
            workloads.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn files_compare_row_by_row() {
        let (rows, worse) = compare(&file(1, 1000.0, 0), &file(1, 1000.0, 0)).unwrap();
        assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert!(!worse);
        assert!(rows
            .iter()
            .any(|r| r.contains("ops_per_s") && r.ends_with("same")));
        assert!(rows
            .iter()
            .any(|r| r.contains("setup_s") && r.ends_with("unresolved")));
        // churn.* is exact on the simulated clock; hot has its bound.
        let (rows, worse) = compare(&file(1, 1000.0, 0), &file(1, 995.0, 0)).unwrap();
        assert!(worse);
        assert!(rows.iter().any(|r| r.starts_with("churn.zone")
            && r.contains("ops_per_s")
            && r.ends_with("worse")));
        assert!(rows
            .iter()
            .any(|r| r.starts_with("hot") && r.contains("ops_per_s") && r.ends_with("same")));
        // A run with failures has no usable value.
        let (rows, _) = compare(&file(1, 1000.0, 0), &file(1, 1000.0, 3)).unwrap();
        assert!(rows
            .iter()
            .filter(|r| r.contains("ops_per_s"))
            .all(|r| r.ends_with("unresolved")));
        assert!(
            compare(&file(1, 1000.0, 0), &file(0, 1000.0, 0)).is_err(),
            "pinned against unpinned must be refused"
        );
    }
}
