//! Declarative benchmark regression gating (`irnuma bench-check`).
//!
//! The committed baseline file `results/bench_baselines.json` declares a
//! set of rules over the `BENCH_<family>.json` medians the bench binaries
//! write at the repository root:
//!
//! ```json
//! {
//!   "tolerance": 0.05,
//!   "rules": [
//!     {"metric": "inference/infer_batch_8_graphs_h64", "max": 950000.0},
//!     {"metric": "inference/tracing_overhead_ratio", "max": 1.02}
//!   ]
//! }
//! ```
//!
//! A rule's `metric` is `<family>/<id>`, looked up in `BENCH_<family>.json`.
//! `min`/`max` bound the fresh value, stretched by the noise `tolerance`
//! (file-level, overridable per rule): a `min` passes at
//! `value >= min * (1 - tolerance)`, a `max` at
//! `value <= max * (1 + tolerance)`. In `--quick` mode — CI smoke, where
//! the benches write only a subset of their metrics — rules whose metric
//! (or whole family file) is absent are skipped; in full mode absence is a
//! failure, so a renamed metric can't silently disable its gate.

use std::path::{Path, PathBuf};

/// One declarative bound over a bench metric.
#[derive(Debug, Clone)]
pub struct Rule {
    /// `<family>/<id>`, e.g. `inference/tracing_overhead_ratio`.
    pub metric: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// Per-rule noise tolerance override (fraction, e.g. `0.05`).
    pub tolerance: Option<f64>,
}

/// The parsed baseline file.
#[derive(Debug, Clone)]
pub struct Baselines {
    /// Default noise tolerance applied to every rule without its own.
    pub tolerance: f64,
    pub rules: Vec<Rule>,
}

/// Outcome of checking one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Pass,
    Fail,
    /// Metric or family file absent in `--quick` mode.
    Skipped,
}

/// One rule's verdict, with a human-readable detail line.
#[derive(Debug, Clone)]
pub struct CheckResult {
    pub metric: String,
    pub value: Option<f64>,
    pub outcome: Outcome,
    pub detail: String,
}

/// Parse `results/bench_baselines.json`.
pub fn load_baselines(path: &Path) -> Result<Baselines, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_baselines(&body).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_baselines(body: &str) -> Result<Baselines, String> {
    let v = serde_json::parse_value(body).map_err(|e| format!("malformed JSON: {e:?}"))?;
    let tolerance = v.field("tolerance").and_then(|t| t.as_f64()).unwrap_or(0.0);
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let rules_v = v.field("rules").and_then(|r| r.as_array()).ok_or("missing `rules` array")?;
    let mut rules = Vec::with_capacity(rules_v.len());
    for (i, r) in rules_v.iter().enumerate() {
        let metric = r
            .field("metric")
            .and_then(|m| m.as_str())
            .ok_or_else(|| format!("rule {i}: missing `metric`"))?
            .to_string();
        if !metric.contains('/') {
            return Err(format!("rule {i}: metric `{metric}` is not <family>/<id>"));
        }
        let rule = Rule {
            metric,
            min: r.field("min").and_then(|x| x.as_f64()),
            max: r.field("max").and_then(|x| x.as_f64()),
            tolerance: r.field("tolerance").and_then(|x| x.as_f64()),
        };
        if rule.min.is_none() && rule.max.is_none() {
            return Err(format!("rule {i} ({}): needs `min` and/or `max`", rule.metric));
        }
        rules.push(rule);
    }
    Ok(Baselines { tolerance, rules })
}

/// Write benchmark medians as `BENCH_<family>.json` at the repository
/// root: a flat `{"id": value}` object, the format [`check`] reads. Every
/// bench writer goes through here: the bench binaries (from
/// `Criterion::medians()` plus derived metrics) and `irnuma serve-bench`.
/// Returns the path written.
pub fn write_bench_json(family: &str, entries: &[(String, f64)]) -> std::io::Result<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join(format!("BENCH_{family}.json"));
    let mut body = String::from("{\n");
    for (i, (id, v)) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        body.push_str(&format!("  \"{id}\": {v:.3}{sep}\n"));
    }
    body.push_str("}\n");
    irnuma_store::atomic_write(&path, body.as_bytes())?;
    Ok(path)
}

/// Look `metric` (`family/id`) up in `BENCH_<family>.json` under `root`.
/// `Ok(None)` means the family file or the metric is absent; malformed JSON
/// is an error.
fn lookup(root: &Path, metric: &str) -> Result<Option<f64>, String> {
    let family = metric.split('/').next().unwrap_or_default();
    let path = root.join(format!("BENCH_{family}.json"));
    let body = match std::fs::read_to_string(&path) {
        Ok(b) => b,
        Err(_) => return Ok(None),
    };
    let v = serde_json::parse_value(&body)
        .map_err(|e| format!("{}: malformed JSON: {e:?}", path.display()))?;
    Ok(v.field(metric).and_then(|x| x.as_f64()))
}

/// Evaluate every rule against the `BENCH_*.json` files under `root`.
/// Returns the per-rule results and whether the whole check passed.
pub fn check(baselines: &Baselines, root: &Path, quick: bool) -> (Vec<CheckResult>, bool) {
    let mut results = Vec::with_capacity(baselines.rules.len());
    let mut ok = true;
    for rule in &baselines.rules {
        let tol = rule.tolerance.unwrap_or(baselines.tolerance);
        let value = match lookup(root, &rule.metric) {
            Ok(v) => v,
            Err(e) => {
                ok = false;
                results.push(CheckResult {
                    metric: rule.metric.clone(),
                    value: None,
                    outcome: Outcome::Fail,
                    detail: e,
                });
                continue;
            }
        };
        let Some(value) = value else {
            let (outcome, detail) = if quick {
                (Outcome::Skipped, "metric absent (quick mode)".to_string())
            } else {
                ok = false;
                (Outcome::Fail, "metric absent from bench output".to_string())
            };
            results.push(CheckResult { metric: rule.metric.clone(), value: None, outcome, detail });
            continue;
        };
        let mut failures = Vec::new();
        if let Some(min) = rule.min {
            let floor = min * (1.0 - tol);
            if value < floor {
                failures.push(format!("{value:.3} < min {min:.3} (floor {floor:.3})"));
            }
        }
        if let Some(max) = rule.max {
            let ceil = max * (1.0 + tol);
            if value > ceil {
                failures.push(format!("{value:.3} > max {max:.3} (ceiling {ceil:.3})"));
            }
        }
        let (outcome, detail) = if failures.is_empty() {
            let bounds = match (rule.min, rule.max) {
                (Some(a), Some(b)) => {
                    format!("within [{a:.3}, {b:.3}] ±{tol:.0}%", tol = tol * 100.0)
                }
                (Some(a), None) => format!("{value:.3} >= min {a:.3} (tol {:.0}%)", tol * 100.0),
                (None, Some(b)) => format!("{value:.3} <= max {b:.3} (tol {:.0}%)", tol * 100.0),
                (None, None) => unreachable!("validated at parse time"),
            };
            (Outcome::Pass, bounds)
        } else {
            ok = false;
            (Outcome::Fail, failures.join("; "))
        };
        results.push(CheckResult {
            metric: rule.metric.clone(),
            value: Some(value),
            outcome,
            detail,
        });
    }
    (results, ok)
}

/// Render check results as the `irnuma bench-check` table.
pub fn render(results: &[CheckResult], ok: bool) -> String {
    let mut out = String::new();
    for r in results {
        let tag = match r.outcome {
            Outcome::Pass => "PASS",
            Outcome::Fail => "FAIL",
            Outcome::Skipped => "SKIP",
        };
        out.push_str(&format!("{tag}  {:<48} {}\n", r.metric, r.detail));
    }
    let (passes, fails, skips) = results.iter().fold((0, 0, 0), |(p, f, s), r| match r.outcome {
        Outcome::Pass => (p + 1, f, s),
        Outcome::Fail => (p, f + 1, s),
        Outcome::Skipped => (p, f, s + 1),
    });
    out.push_str(&format!(
        "\nbench-check: {passes} passed, {fails} failed, {skips} skipped — {}\n",
        if ok { "OK" } else { "REGRESSION" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, body: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(name), body).unwrap();
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("irnuma-bench-check-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const BASELINES: &str = r#"{
        "tolerance": 0.10,
        "rules": [
            {"metric": "inference/speedup", "min": 2.0},
            {"metric": "inference/overhead", "max": 1.02, "tolerance": 0.0}
        ]
    }"#;

    #[test]
    fn passing_metrics_pass() {
        let d = tmpdir("pass");
        write(
            &d,
            "BENCH_inference.json",
            r#"{"inference/speedup": 2.5, "inference/overhead": 1.01}"#,
        );
        let b = parse_baselines(BASELINES).unwrap();
        let (results, ok) = check(&b, &d, false);
        assert!(ok, "{results:?}");
        assert!(results.iter().all(|r| r.outcome == Outcome::Pass));
    }

    #[test]
    fn regressions_fail_and_name_the_bound() {
        let d = tmpdir("fail");
        write(
            &d,
            "BENCH_inference.json",
            r#"{"inference/speedup": 2.5, "inference/overhead": 1.05}"#,
        );
        let b = parse_baselines(BASELINES).unwrap();
        let (results, ok) = check(&b, &d, false);
        assert!(!ok);
        let over = results.iter().find(|r| r.metric == "inference/overhead").unwrap();
        assert_eq!(over.outcome, Outcome::Fail);
        assert!(over.detail.contains("max 1.020"), "{}", over.detail);
        assert!(render(&results, ok).contains("REGRESSION"));
    }

    #[test]
    fn tolerance_stretches_the_bound() {
        let d = tmpdir("tol");
        // speedup 1.85 is under min 2.0 but above the 10%-tolerance floor 1.8.
        write(
            &d,
            "BENCH_inference.json",
            r#"{"inference/speedup": 1.85, "inference/overhead": 1.0}"#,
        );
        let b = parse_baselines(BASELINES).unwrap();
        let (results, ok) = check(&b, &d, false);
        assert!(ok, "{results:?}");
        // 1.79 is below the floor.
        write(
            &d,
            "BENCH_inference.json",
            r#"{"inference/speedup": 1.79, "inference/overhead": 1.0}"#,
        );
        let (_, ok) = check(&b, &d, false);
        assert!(!ok);
    }

    #[test]
    fn absent_metric_skips_in_quick_mode_fails_in_full() {
        let d = tmpdir("absent");
        write(&d, "BENCH_inference.json", r#"{"inference/speedup": 2.5}"#);
        let b = parse_baselines(BASELINES).unwrap();
        let (results, ok) = check(&b, &d, true);
        assert!(ok, "{results:?}");
        assert_eq!(
            results.iter().find(|r| r.metric == "inference/overhead").unwrap().outcome,
            Outcome::Skipped
        );
        let (_, ok) = check(&b, &d, false);
        assert!(!ok, "full mode treats an absent metric as a failure");
    }

    #[test]
    fn missing_family_file_skips_in_quick_mode() {
        let d = tmpdir("nofile");
        let b = parse_baselines(BASELINES).unwrap();
        let (results, ok) = check(&b, &d, true);
        assert!(ok);
        assert!(results.iter().all(|r| r.outcome == Outcome::Skipped));
        let (_, ok) = check(&b, &d, false);
        assert!(!ok);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baselines("{").is_err());
        assert!(parse_baselines(r#"{"rules": [{"metric": "noslash"}]}"#).is_err());
        assert!(parse_baselines(r#"{"rules": [{"metric": "a/b"}]}"#).is_err(), "no bounds");
        assert!(parse_baselines(r#"{"tolerance": 2.0, "rules": []}"#).is_err());
    }
}
