//! `flowbench compare <a.json> <b.json>`: per workload × end-to-end
//! metric, is set `b` worse than set `a` by more than the metric's bound?

use crate::json::Json;
use crate::spec::Bound;
use crate::stats::{iqr, max, median, min};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Regressed,
    /// The medians are within the bound, but either set's own spread (the
    /// distance between its quartiles) is wider than the bound, so
    /// "unchanged" is not shown — unless every run of `b` reads better than
    /// every run of `a`.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one lower-is-better metric from the raw runs of both sets.
/// The delta is in the bound's terms: a share of `a`'s median, or a
/// distance in the metric's unit.
pub fn judge(a: &[f64], b: &[f64], bound: Bound) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let (delta, limit) = match bound {
        Bound::Share(limit) => ((mb - ma) / ma, limit),
        Bound::Absolute(limit) => (mb - ma, limit),
    };
    let verdict = if !delta.is_finite() || delta > limit {
        Verdict::Regressed
    } else {
        let spread = |v: &[f64]| match bound {
            Bound::Share(_) => iqr(v) / median(v),
            Bound::Absolute(_) => iqr(v),
        };
        let all_better = max(b) < min(a);
        if (spread(a) > limit || spread(b) > limit) && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Ok
        }
    };
    (delta, verdict)
}

/// One judged row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    pub delta: f64,
    pub bound: Bound,
    pub verdict: Verdict,
}

fn runs_of(set: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let runs = set
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?;
    runs.as_array()?.iter().map(Json::as_f64).collect()
}

/// The bound the suite recorded with a workload's metric.
fn bound_of(entry: &Json) -> Option<Bound> {
    let bound = entry.get("bound")?.as_f64()?;
    match entry.get("bound_is")?.as_str()? {
        "share" => Some(Bound::Share(bound)),
        "absolute" => Some(Bound::Absolute(bound)),
        _ => None,
    }
}

/// Judges every workload × end-to-end metric of `a` against `b`. Metric
/// names and bounds are the ones recorded in `a`, the baseline.
///
/// # Errors
///
/// A message naming what either set lacks.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("baseline has no workloads")?;
    let mut rows = Vec::new();
    for (workload, recorded) in workloads {
        let metrics = recorded
            .get("end_to_end")
            .and_then(Json::as_object)
            .ok_or(format!("baseline lacks {workload}/end_to_end"))?;
        for (name, entry) in metrics {
            let bound =
                bound_of(entry).ok_or(format!("baseline lacks the bound of {workload}/{name}"))?;
            let runs_a =
                runs_of(a, workload, name).ok_or(format!("baseline lacks {workload}/{name}"))?;
            let runs_b =
                runs_of(b, workload, name).ok_or(format!("second set lacks {workload}/{name}"))?;
            let (delta, verdict) = judge(&runs_a, &runs_b, bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                median_a: median(&runs_a),
                median_b: median(&runs_b),
                delta,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Per-layer values that are counts or deterministic outputs: between two
/// sets of the same code and seed they must be bit-equal, as must every
/// round's quality metrics.
const EXACT: [&str; 8] = [
    "core.gp_iterations",
    "core.pad_rounds",
    "pad.recycled_cells",
    "congest.reuse_ratio",
    "congest.rsmt_hit_ratio",
    "route.rounds",
    "route.hof_pct",
    "route.vof_pct",
];

/// `(workload, metric)` of every exact value that differs between the sets.
pub fn exact_differences(a: &Json, b: &Json) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Some(workloads) = a.get("workloads").and_then(Json::as_object) else {
        return out;
    };
    for (workload, wa) in workloads {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        let layer = |set: Option<&Json>, name: &str| set?.get("per_layer")?.get(name)?.as_f64();
        for name in EXACT {
            if layer(Some(wa), name).map(f64::to_bits) != layer(wb, name).map(f64::to_bits) {
                out.push((workload.clone(), name.to_string()));
            }
        }
        for name in ["hpwl", "routed_wl", "hof_pct", "vof_pct"] {
            let bits = |set: &Json| {
                runs_of(set, workload, name)
                    .map(|r| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            if bits(a) != bits(b) {
                out.push((workload.clone(), name.to_string()));
            }
        }
    }
    out
}

/// Prints the comparison and returns how many rows regressed.
pub fn report(a: &Json, b: &Json) -> Result<usize, String> {
    let rows = compare(a, b)?;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "median a", "median b", "delta", "bound"
    );
    for r in &rows {
        // A share reads as a percentage, a distance in the metric's unit.
        let (delta, bound) = match r.bound {
            Bound::Share(b) => (
                format!("{:+.2}%", r.delta * 100.0),
                format!("{:.1}%", b * 100.0),
            ),
            Bound::Absolute(b) => (format!("{:+.3}", r.delta), format!("{b:.3}")),
        };
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {delta:>8} {bound:>7}  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.verdict.as_str()
        );
    }
    let changed = exact_differences(a, b);
    if changed.is_empty() {
        println!("exact values (counts, HOF/VOF, HPWL, routed WL): bit-equal between the sets");
    }
    for (workload, metric) in &changed {
        println!("exact value changed: {workload} {metric}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} regressed, {} unresolved, {} ok",
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Ok)
    );
    Ok(count(Verdict::Regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{suite_metrics, WORKLOADS};

    /// The committed baseline: real runs, and the bounds the suite recorded.
    fn set_a() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/set_a.json");
        Json::parse(&std::fs::read_to_string(path).expect("results/set_a.json")).expect("json")
    }

    /// `set` with every run of `workload`'s `metric` multiplied by `factor`.
    fn doctored(set: &Json, workload: &str, metric: &str, factor: f64) -> Json {
        fn edit(j: &mut Json, path: &[&str], factor: f64) {
            match (j, path) {
                (Json::Arr(runs), []) => {
                    for v in runs {
                        *v = Json::Num(v.as_f64().expect("number") * factor);
                    }
                }
                (Json::Obj(fields), [key, rest @ ..]) => {
                    let field = fields.iter_mut().find(|(k, _)| k == key).expect("key");
                    edit(&mut field.1, rest, factor);
                }
                _ => panic!("not the shape of a result set"),
            }
        }
        let mut out = set.clone();
        let path = ["workloads", workload, "end_to_end", metric, "runs"];
        edit(&mut out, &path, factor);
        out
    }

    #[test]
    fn the_baseline_records_the_bounds_of_the_table() {
        let rows = compare(&set_a(), &set_a()).unwrap();
        let table: Vec<_> = WORKLOADS
            .iter()
            .flat_map(|w| suite_metrics().map(move |m| (w.name, m.name, w.compare_bound(m.name))))
            .collect();
        let recorded: Vec<_> = rows
            .iter()
            .map(|r| (r.workload.as_str(), r.metric.as_str(), r.bound))
            .collect();
        assert_eq!(recorded, table);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Regressed));
    }

    #[test]
    fn a_doctored_twenty_percent_slowdown_is_flagged_and_named() {
        let a = set_a();
        for w in &WORKLOADS {
            let rows = compare(&a, &doctored(&a, w.name, "flow_wall_s", 1.20)).unwrap();
            let regressed: Vec<_> = rows
                .iter()
                .filter(|r| r.verdict == Verdict::Regressed)
                .collect();
            assert_eq!(regressed.len(), 1, "{rows:#?}");
            assert_eq!(
                (regressed[0].workload.as_str(), regressed[0].metric.as_str()),
                (w.name, "flow_wall_s")
            );
            assert!((regressed[0].delta - 0.20).abs() < 1e-9);
        }
    }

    #[test]
    fn one_percent_is_not_flagged() {
        let a = set_a();
        for w in &WORKLOADS {
            let rows = compare(&a, &doctored(&a, w.name, "flow_wall_s", 1.01)).unwrap();
            assert!(
                rows.iter().all(|r| r.verdict != Verdict::Regressed),
                "{rows:#?}"
            );
        }
    }

    #[test]
    fn a_noisy_pair_is_unresolved_unless_every_run_is_better() {
        let noisy = [2.0, 2.6, 2.1, 2.5, 2.2];
        let ten = Bound::Share(0.10);
        assert_eq!(judge(&noisy, &noisy, ten).1, Verdict::Unresolved);
        assert_eq!(
            judge(&noisy, &[1.5, 1.9, 1.6, 1.8, 1.7], ten).1,
            Verdict::Ok
        );
        assert_eq!(judge(&[1.0; 5], &[0.0; 5], ten).1, Verdict::Ok);
        assert_eq!(
            judge(&[0.0; 5], &[0.0; 5], ten).1,
            Verdict::Regressed,
            "0/0 is not a pass"
        );
    }

    #[test]
    fn an_absolute_bound_judges_distances_and_allows_zero() {
        let five = Bound::Absolute(0.05);
        assert_eq!(judge(&[0.0; 5], &[0.0; 5], five), (0.0, Verdict::Ok));
        assert_eq!(judge(&[1.85; 5], &[1.89; 5], five).1, Verdict::Ok);
        assert_eq!(judge(&[1.85; 5], &[1.91; 5], five).1, Verdict::Regressed);
        // failed_share: any failure regresses a clean baseline.
        let none = Bound::Absolute(0.0);
        assert_eq!(judge(&[0.0; 5], &[0.0; 5], none).1, Verdict::Ok);
        assert_eq!(
            judge(&[0.0; 5], &[0.0, 0.0, 0.1, 0.1, 0.1], none).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_missing_workload_is_an_error() {
        let mut b = set_a();
        if let Json::Obj(fields) = &mut b {
            fields.retain(|(k, _)| k != "workloads");
        }
        assert!(compare(&set_a(), &b).is_err());
    }
}
