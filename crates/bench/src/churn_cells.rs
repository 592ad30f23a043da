//! The churn-trace measurement shared by the `churn_trace` criterion
//! bench and the `repro perf` regression gate (same warm-up, same
//! seeded departure trace, same JSON rendering as the committed
//! `BENCH_churn.json`).

use peercache_core::approx::ApproxConfig;
use peercache_core::workload::paper_grid;
use peercache_core::world::{CacheWorld, EventOutcome, WorldEvent};
use peercache_graph::NodeId;
use peercache_obs::Json;

/// Live-chunk retention window of the warmed world.
pub const RETENTION: usize = 6;

/// Departure-trace seed of the committed baseline.
pub const TRACE_SEED: u64 = 0xBADC0DE;

/// Departures in the full (non-quick) trace.
pub const FULL_STEPS: usize = 12;

/// xorshift64 — the trace must be identical on every run.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Builds the warmed-up world: a 10x10 grid with the retention window
/// full of live chunks.
pub fn warm_world() -> CacheWorld {
    let net = paper_grid(10).expect("grid builds");
    let mut world = CacheWorld::new(net, ApproxConfig::default()).with_retention(RETENTION);
    for _ in 0..RETENTION {
        world.apply(WorldEvent::ChunkArrived).expect("arrival");
    }
    world
}

/// One departure + one arrival per trace step, keeping the live set
/// full. Returns per-step `(repair_us, replan_us, cost_ratio)`.
pub fn run_trace(world: &mut CacheWorld, steps: usize, seed: u64) -> Vec<(u64, u64, f64)> {
    let mut rng = XorShift(seed);
    let mut rows = Vec::new();
    while rows.len() < steps {
        let producer = world.network().producer();
        let candidates: Vec<NodeId> = world
            .network()
            .active_nodes()
            .into_iter()
            .filter(|&n| n != producer)
            .collect();
        let victim = candidates[rng.below(candidates.len())];
        let report = match world.apply(WorldEvent::NodeDeparted(victim)) {
            Ok(EventOutcome::Departed(report)) => report,
            Ok(_) => unreachable!("departure outcome"),
            Err(_) => continue, // would disconnect the survivors; redraw
        };
        let gap = world.repair_vs_replan().expect("oracle replan");
        rows.push((report.wall_us, gap.replan_wall_us, gap.cost_ratio));
        world.apply(WorldEvent::ChunkArrived).expect("arrival");
    }
    rows
}

/// Renders the trace summary as the committed `BENCH_churn.json` document.
pub fn render_json(rows: &[(u64, u64, f64)]) -> String {
    let repair_us: u64 = rows.iter().map(|r| r.0).sum();
    let replan_us: u64 = rows.iter().map(|r| r.1).sum();
    let speedup = replan_us as f64 / repair_us.max(1) as f64;
    let max_ratio = rows.iter().map(|r| r.2).fold(0.0, f64::max);
    let mean_ratio = rows.iter().map(|r| r.2).sum::<f64>() / rows.len().max(1) as f64;
    Json::obj([
        ("bench", "churn_trace".into()),
        ("topology", "grid10".into()),
        ("nodes", 100u64.into()),
        ("retention", RETENTION.into()),
        ("departures", rows.len().into()),
        ("repair_total_ms", Json::fixed(repair_us as f64 / 1e3, 2)),
        ("replan_total_ms", Json::fixed(replan_us as f64 / 1e3, 2)),
        ("repair_over_replan_speedup", Json::fixed(speedup, 2)),
        ("cost_ratio_mean", Json::fixed(mean_ratio, 4)),
        ("cost_ratio_max", Json::fixed(max_ratio, 4)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The departure trace (victims, cost ratios) is a pure function of
    /// the seed; only the wall-clock fields vary between runs.
    #[test]
    fn trace_cost_ratios_replay_identically() {
        let mut a = warm_world();
        let ra = run_trace(&mut a, 2, TRACE_SEED);
        let mut b = warm_world();
        let rb = run_trace(&mut b, 2, TRACE_SEED);
        let ratios = |r: &[(u64, u64, f64)]| r.iter().map(|x| x.2).collect::<Vec<_>>();
        assert_eq!(ratios(&ra), ratios(&rb));
        a.validate().unwrap();
    }
}
