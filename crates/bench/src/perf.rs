//! `repro perf [--check]` — the perf-regression gate.
//!
//! Re-measures the six committed baselines (`BENCH_planning.json`,
//! `BENCH_churn.json`, `BENCH_chaos.json`, `BENCH_scale.json`,
//! `BENCH_shard.json`, `BENCH_replication.json`) through the same
//! shared cell modules the criterion benches use, then diffs fresh
//! against committed field by field:
//!
//! * **wall-time fields** (`*_ms`, `*_wall*`, `*speedup*`) get a
//!   generous ratio band — they vary with the machine; the gate only
//!   catches order-of-magnitude regressions. The band is
//!   [`DEFAULT_WALL_BAND`]× in either direction.
//! * **every other number** is exact — convergence ticks, retry and
//!   fault counts, cost ratios, and structural fields are all
//!   deterministic, so *any* drift is a behavior change, not noise.
//!
//! With `--check` the gate exits nonzero when any field falls outside
//! its band; without it the comparison is printed and always succeeds.

use peercache_obs::Json;

use crate::{
    chaos_cells, churn_cells, planning_cells, replication_cells, scale_cells, shard_cells,
};

/// Default multiplicative band for wall-time fields: fresh must lie in
/// `[committed / band, committed * band]`.
pub const DEFAULT_WALL_BAND: f64 = 8.0;

/// Whether a JSON key holds a wall-clock-dependent measurement.
pub fn is_wall_field(key: &str) -> bool {
    key.ends_with("_ms") || key.contains("wall") || key.contains("speedup")
}

/// One field-level discrepancy found by [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Discrepancy {
    /// Dotted path of the offending field (e.g. `rows[4].retries`).
    pub path: String,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Recursively diffs `fresh` against `baseline`.
///
/// Object key sets must match exactly (a vanished or new field is a
/// schema change the baseline must be regenerated for); arrays compare
/// element-wise; numbers under a wall-time key use the ratio band,
/// every other leaf compares exactly.
pub fn compare(baseline: &Json, fresh: &Json, band: f64) -> Vec<Discrepancy> {
    let mut out = Vec::new();
    diff("", baseline, fresh, band, false, &mut out);
    out
}

fn push(out: &mut Vec<Discrepancy>, path: &str, detail: String) {
    out.push(Discrepancy {
        path: if path.is_empty() {
            "$".into()
        } else {
            path.into()
        },
        detail,
    });
}

fn diff(
    path: &str,
    baseline: &Json,
    fresh: &Json,
    band: f64,
    wall: bool,
    out: &mut Vec<Discrepancy>,
) {
    match (baseline, fresh) {
        (Json::Obj(b), Json::Obj(f)) => {
            let sub = |key: &str| match path {
                "" => key.to_string(),
                _ => format!("{path}.{key}"),
            };
            for (key, bv) in b {
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => diff(&sub(key), bv, fv, band, wall || is_wall_field(key), out),
                    None => push(out, &sub(key), "missing in fresh output".into()),
                }
            }
            for (key, _) in f.iter().filter(|(k, _)| !b.iter().any(|(bk, _)| bk == k)) {
                push(out, &sub(key), "not in committed baseline".into());
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                push(
                    out,
                    path,
                    format!("length {} in baseline, {} fresh", b.len(), f.len()),
                );
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                diff(&format!("{path}[{i}]"), bv, fv, band, wall, out);
            }
        }
        (bn, fn_) if bn.as_f64().is_some() && fn_.as_f64().is_some() => {
            // Exact equality is integer-exact when both sides parsed as
            // integers (counts, ticks); float-exact otherwise.
            let exact_eq = match (bn, fn_) {
                (Json::Int(b), Json::Int(f)) => b == f,
                _ => bn.as_f64() == fn_.as_f64(),
            };
            let b = bn.as_f64().unwrap_or(f64::NAN);
            let f = fn_.as_f64().unwrap_or(f64::NAN);
            if wall {
                let lo = b / band;
                let hi = b * band;
                // A zero committed wall time accepts anything small.
                let ok = if b == 0.0 {
                    f.abs() <= band
                } else {
                    f >= lo.min(hi) && f <= lo.max(hi)
                };
                if !ok {
                    push(
                        out,
                        path,
                        format!(
                            "wall-time {f} outside [{:.3}, {:.3}] (committed {b})",
                            lo, hi
                        ),
                    );
                }
            } else if !exact_eq {
                push(out, path, format!("expected {b}, got {f} (exact field)"));
            }
        }
        _ => {
            if baseline != fresh {
                push(out, path, format!("expected {baseline:?}, got {fresh:?}"));
            }
        }
    }
}

/// One baseline of the gate: its committed file and how to re-measure.
pub struct Baseline {
    /// Committed file name at the repository root.
    pub file: &'static str,
    /// Re-runs the measurement and renders it in the committed format.
    pub fresh: fn() -> String,
}

/// The six gated baselines.
pub const BASELINES: [Baseline; 6] = [
    Baseline {
        file: "BENCH_planning.json",
        fresh: || {
            let rows: Vec<planning_cells::Row> = planning_cells::FULL_SIDES
                .iter()
                .map(|&side| planning_cells::measure_side(side, planning_cells::FULL_RUNS))
                .collect();
            planning_cells::render_json(&rows, planning_cells::CHUNKS)
        },
    },
    Baseline {
        file: "BENCH_churn.json",
        fresh: || {
            let mut world = churn_cells::warm_world();
            let rows = churn_cells::run_trace(
                &mut world,
                churn_cells::FULL_STEPS,
                churn_cells::TRACE_SEED,
            );
            world.validate().expect("trace leaves a valid world");
            churn_cells::render_json(&rows)
        },
    },
    Baseline {
        file: "BENCH_chaos.json",
        fresh: || chaos_cells::render_json(&chaos_cells::run_matrix()),
    },
    Baseline {
        file: "BENCH_scale.json",
        fresh: || {
            let quality =
                scale_cells::measure_quality(scale_cells::QUALITY_SIDE, scale_cells::SCALE_CHUNKS);
            let rows = vec![
                scale_cells::measure_scale(
                    &format!("grid{}", scale_cells::GRID_SIDE),
                    &scale_cells::grid_network(scale_cells::GRID_SIDE),
                    scale_cells::SCALE_CHUNKS,
                    scale_cells::GRID_BUDGET_MS,
                ),
                scale_cells::measure_scale(
                    &format!("rgg{}", scale_cells::RGG_NODES),
                    &scale_cells::rgg_network(scale_cells::RGG_NODES, scale_cells::RGG_SEED),
                    scale_cells::SCALE_CHUNKS,
                    scale_cells::RGG_BUDGET_MS,
                ),
            ];
            scale_cells::render_json(&quality, &rows, scale_cells::SCALE_CHUNKS)
        },
    },
    Baseline {
        file: "BENCH_shard.json",
        fresh: || {
            let rows = shard_cells::run_sweep(shard_cells::GRID_SIDE, shard_cells::TICKS);
            shard_cells::render_json(shard_cells::GRID_SIDE, shard_cells::TICKS, &rows)
        },
    },
    Baseline {
        file: "BENCH_replication.json",
        fresh: || replication_cells::render_json(&replication_cells::run_matrix()),
    },
];

/// Runs the gate against the committed files in `root`. Returns the
/// discrepancies per baseline, or an error string when a file is
/// missing or unparsable.
pub fn run_gate(
    root: &std::path::Path,
    band: f64,
) -> Result<Vec<(String, Vec<Discrepancy>)>, String> {
    let mut results = Vec::new();
    for b in &BASELINES {
        let path = root.join(b.file);
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let committed = Json::parse(&committed).map_err(|e| format!("{}: {e}", path.display()))?;
        let fresh_text = (b.fresh)();
        let fresh =
            Json::parse(&fresh_text).map_err(|e| format!("fresh {} output: {e}", b.file))?;
        results.push((b.file.to_string(), compare(&committed, &fresh, band)));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str =
        r#"{"bench":"x","rows":[{"ticks":153,"retries":1369,"wall_ms":10.0,"speedup":2.5}]}"#;

    fn parsed(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        assert!(compare(&parsed(BASE), &parsed(BASE), 4.0).is_empty());
    }

    #[test]
    fn wall_fields_tolerate_machine_noise_but_not_blowups() {
        let fresh = BASE.replace("10.0", "30.0"); // 3x: inside a 4x band
        assert!(compare(&parsed(BASE), &parsed(&fresh), 4.0).is_empty());
        let fresh = BASE.replace("10.0", "45.0"); // 4.5x: outside
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "rows[0].wall_ms");
    }

    /// A perturbed count must trip the gate — counts are exact.
    #[test]
    fn perturbed_counts_fail_exactly() {
        let fresh = BASE.replace("1369", "1370");
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "rows[0].retries");
        assert!(diffs[0].detail.contains("exact"));
    }

    #[test]
    fn speedup_fields_are_banded_not_exact() {
        let fresh = BASE.replace("2.5", "3.0");
        assert!(compare(&parsed(BASE), &parsed(&fresh), 4.0).is_empty());
    }

    #[test]
    fn schema_drift_is_reported_both_ways() {
        let fresh = BASE.replace("\"ticks\":153,", "");
        let diffs = compare(&parsed(BASE), &parsed(&fresh), 4.0);
        assert!(diffs.iter().any(|d| d.path == "rows[0].ticks"));
        let diffs = compare(&parsed(&fresh), &parsed(BASE), 4.0);
        assert!(diffs
            .iter()
            .any(|d| d.detail.contains("not in committed baseline")));
    }

    #[test]
    fn array_length_drift_is_one_finding() {
        let base = r#"{"rows":[1,2,3]}"#;
        let fresh = r#"{"rows":[1,2]}"#;
        let diffs = compare(&parsed(base), &parsed(fresh), 4.0);
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].detail.contains("length"));
    }

    /// Every committed baseline survives a render: parsing it, rendering
    /// it with the bench writers' renderer and parsing that again gives
    /// back an equal document.
    #[test]
    fn committed_baselines_round_trip_through_the_renderer() {
        for b in &BASELINES {
            let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), b.file);
            let committed = parsed(&std::fs::read_to_string(&path).unwrap());
            assert_eq!(parsed(&committed.render()), committed, "{}", b.file);
        }
    }

    #[test]
    fn wall_band_classification() {
        assert!(is_wall_field("repair_total_ms"));
        assert!(is_wall_field("replan_wall_us"));
        assert!(is_wall_field("repair_over_replan_speedup"));
        assert!(!is_wall_field("retries"));
        assert!(!is_wall_field("cost_ratio_mean"));
    }
}
