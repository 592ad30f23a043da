//! The planning-hot-path measurement shared by the `planning_hot_path`
//! criterion bench and the `repro perf` regression gate (same
//! workloads, same median-of-N timing, same JSON rendering as the
//! committed `BENCH_planning.json`).

use std::time::Instant;

use peercache_core::approx::{ApproxConfig, ApproxPlanner};
use peercache_core::planner::CachePlanner;
use peercache_core::workload::paper_grid;
use peercache_core::Network;
use peercache_obs::Json;

/// Chunks planned per measurement.
pub const CHUNKS: usize = 8;

/// Grid sides of the full (non-quick) measurement.
pub const FULL_SIDES: [usize; 2] = [10, 20];

/// Timing repetitions of the full measurement (median taken).
pub const FULL_RUNS: usize = 3;

/// The optimized pipeline under measurement.
pub fn optimized_config() -> ApproxConfig {
    ApproxConfig::default()
}

/// The original reference pipeline.
pub fn reference_config() -> ApproxConfig {
    ApproxConfig {
        reference_mode: true,
        ..Default::default()
    }
}

/// Plans `chunks` chunks on a copy of `net` and returns the total cost.
pub fn plan_total(net: &Network, cfg: &ApproxConfig, chunks: usize) -> f64 {
    let mut copy = net.clone();
    let placement = ApproxPlanner::new(cfg.clone())
        .plan(&mut copy, chunks)
        .expect("planner succeeds");
    placement.total_costs().total()
}

/// Median wall time in milliseconds over `runs` full plans.
pub fn measure_ms(net: &Network, cfg: &ApproxConfig, chunks: usize, runs: usize) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            let total = plan_total(net, cfg, chunks);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(total.is_finite());
            ms
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// One result row: `(topology, nodes, optimized_ms, reference_ms,
/// cost_bitwise_equal)`.
pub type Row = (String, usize, f64, f64, bool);

/// Measures one grid side at the baseline's settings.
pub fn measure_side(side: usize, runs: usize) -> Row {
    let net = paper_grid(side).expect("grid builds");
    let opt_ms = measure_ms(&net, &optimized_config(), CHUNKS, runs);
    let ref_ms = measure_ms(&net, &reference_config(), CHUNKS, runs);
    let cost_equal = plan_total(&net, &optimized_config(), CHUNKS).to_bits()
        == plan_total(&net, &reference_config(), CHUNKS).to_bits();
    (
        format!("grid{side}"),
        side * side,
        opt_ms,
        ref_ms,
        cost_equal,
    )
}

/// Renders the rows as the committed `BENCH_planning.json` document.
pub fn render_json(rows: &[Row], chunks: usize) -> String {
    let results = rows
        .iter()
        .map(|(topo, nodes, opt_ms, ref_ms, cost_equal)| {
            Json::obj([
                ("topology", topo.as_str().into()),
                ("nodes", (*nodes).into()),
                ("optimized_ms", Json::fixed(*opt_ms, 1)),
                ("reference_ms", Json::fixed(*ref_ms, 1)),
                ("speedup", Json::fixed(ref_ms / opt_ms, 2)),
                ("cost_bitwise_equal", (*cost_equal).into()),
            ])
        });
    Json::obj([
        ("bench", "planning_hot_path".into()),
        ("chunks", chunks.into()),
        ("planner", "Appx".into()),
        ("results", Json::Arr(results.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimized_and_reference_agree_bitwise_on_a_small_grid() {
        let (_, nodes, opt_ms, ref_ms, equal) = measure_side(4, 1);
        assert_eq!(nodes, 16);
        assert!(opt_ms > 0.0 && ref_ms > 0.0);
        assert!(equal, "pipelines must price plans identically");
    }
}
