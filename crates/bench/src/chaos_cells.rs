//! The chaos-matrix cells shared by the `chaos_matrix` criterion bench
//! and the `repro perf` regression gate.
//!
//! Both consumers must measure *exactly* the same thing — same seeds,
//! same liveness arming, same intensity grid — or the committed
//! `BENCH_chaos.json` baseline would drift from what the gate
//! recomputes. Keeping the cell logic here makes that a compile-time
//! fact instead of a convention.

use peercache_core::workload::{paper_grid, paper_random};
use peercache_core::{ChunkId, Network};
use peercache_dist::engine::LossConfig;
use peercache_dist::sim::{run_chunk_round, SimConfig};
use peercache_dist::view::build_views;
use peercache_dist::{FaultPlan, LivenessConfig};
use peercache_graph::NodeId;
use peercache_obs::Json;

/// Local-control scope of every cell (the paper's sweet spot, Fig. 3).
pub const K_HOPS: u32 = 2;

/// The fault-intensity grid.
pub const INTENSITIES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// The liveness parameters armed for every cell.
pub fn liveness() -> LivenessConfig {
    LivenessConfig {
        retry_limit: 3,
        backoff_base: 4,
        backoff_jitter: 2,
        lease_ticks: 20,
        election_timeout: 300,
    }
}

/// Scales every fault knob with one intensity in `[0, 1]`: loss,
/// duplication, and reordering at the given probability, plus a
/// partition window islanding one non-producer node whose length grows
/// with the intensity.
pub fn config_at(net: &Network, intensity: f64) -> SimConfig {
    let island = if net.producer() == NodeId::new(0) {
        NodeId::new(1)
    } else {
        NodeId::new(0)
    };
    let mut chaos = FaultPlan::new(0xFA117)
        .duplicate(intensity / 2.0)
        .reorder(intensity / 2.0, 2);
    let window = (intensity * 200.0) as u64;
    if window > 0 {
        chaos = chaos.partition(10, 10 + window, vec![island]);
    }
    SimConfig {
        loss: LossConfig {
            drop_probability: intensity,
            seed: 29,
        },
        chaos,
        liveness: liveness(),
        ..Default::default()
    }
}

/// One matrix row: what a single chaos-afflicted round did.
pub struct Cell {
    /// Topology label (`grid10` / `random60`).
    pub topology: &'static str,
    /// Node count of the topology.
    pub nodes: usize,
    /// Fault intensity of the cell.
    pub intensity: f64,
    /// Ticks to convergence.
    pub ticks: u64,
    /// TIGHT/SPAN retransmissions.
    pub retries: u64,
    /// Lease-expiry depositions.
    pub depositions: u64,
    /// Chaos-layer faults injected.
    pub faults: u64,
    /// Messages dropped (loss + chaos).
    pub lossy_drops: u64,
    /// Clients that left the round degraded.
    pub degraded: usize,
    /// Clients that fell back to the producer.
    pub fallbacks: usize,
}

/// Runs one cell and panics if the round fails to settle.
pub fn run_cell(net: &Network, topology: &'static str, intensity: f64) -> Cell {
    let (views, _) = build_views(net, K_HOPS).expect("views build");
    let cfg = config_at(net, intensity);
    let out = run_chunk_round(net, &views, ChunkId::new(0), &cfg);
    assert!(
        out.ticks < cfg.max_ticks,
        "{topology} @ {intensity}: round must settle"
    );
    Cell {
        topology,
        nodes: net.node_count(),
        intensity,
        ticks: out.ticks,
        retries: out.retries,
        depositions: out.depositions,
        faults: out.faults.total(),
        lossy_drops: out.stats.dropped,
        degraded: out.degraded.len(),
        fallbacks: out.producer_fallbacks,
    }
}

/// Runs the full matrix (both topologies, all intensities) in the
/// committed baseline's row order.
pub fn run_matrix() -> Vec<Cell> {
    let grid = paper_grid(10).expect("grid builds");
    let geo = paper_random(60, 7).expect("random geometric builds");
    let mut cells = Vec::new();
    for &intensity in &INTENSITIES {
        cells.push(run_cell(&grid, "grid10", intensity));
        cells.push(run_cell(&geo, "random60", intensity));
    }
    cells
}

/// Renders the matrix as the committed `BENCH_chaos.json` document.
pub fn render_json(cells: &[Cell]) -> String {
    let liv = liveness();
    let rows = cells.iter().map(|c| {
        Json::obj([
            ("topology", c.topology.into()),
            ("nodes", c.nodes.into()),
            ("intensity", Json::fixed(c.intensity, 2)),
            ("ticks", c.ticks.into()),
            ("retries", c.retries.into()),
            ("depositions", c.depositions.into()),
            ("chaos_faults", c.faults.into()),
            ("lossy_drops", c.lossy_drops.into()),
            ("degraded", c.degraded.into()),
            ("producer_fallbacks", c.fallbacks.into()),
        ])
    });
    let liveness = Json::obj([
        ("retry_limit", liv.retry_limit.into()),
        ("backoff_base", liv.backoff_base.into()),
        ("lease_ticks", liv.lease_ticks.into()),
        ("election_timeout", liv.election_timeout.into()),
    ]);
    Json::obj([
        ("bench", "chaos_matrix".into()),
        ("liveness", liveness),
        ("rows", Json::Arr(rows.collect())),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_replay_identically() {
        let net = paper_grid(4).unwrap();
        let a = run_cell(&net, "grid4", 0.2);
        let b = run_cell(&net, "grid4", 0.2);
        assert_eq!(
            (a.ticks, a.retries, a.faults, a.lossy_drops),
            (b.ticks, b.retries, b.faults, b.lossy_drops)
        );
    }

    #[test]
    fn render_matches_baseline_shape() {
        let net = paper_grid(3).unwrap();
        let cells = vec![run_cell(&net, "grid3", 0.0)];
        let json = render_json(&cells);
        let parsed = peercache_obs::Json::parse(&json).expect("well-formed");
        assert_eq!(
            parsed.get("bench").and_then(|j| j.as_str()),
            Some("chaos_matrix")
        );
        assert_eq!(
            parsed.get("rows").and_then(|j| j.as_arr()).map(|r| r.len()),
            Some(1)
        );
    }
}
