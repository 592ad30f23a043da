// Fixture: idiomatic code that must pass every rule.
use std::collections::BTreeMap;

pub fn plan_order(weights: &BTreeMap<usize, f64>, eps: f64) -> Result<Vec<usize>, String> {
    // Epsilon comparison instead of `==`; integer ids compared exactly.
    let picked: Vec<usize> = weights
        .iter()
        .filter(|&(&id, &w)| (w - 1.0).abs() <= eps && id != 0)
        .map(|(&id, _)| id)
        .collect();
    picked
        .first()
        .copied()
        .map(|_| picked.clone())
        .ok_or_else(|| "empty plan".to_string())
}

pub fn rows(paths: &AllPairsPaths, world: &ShardedWorld) -> usize {
    // Type positions and read-only accessors are fine; only the dense
    // `AllPairsPaths::compute` and `arena_mut(...)` call sites fire.
    paths.node_count() + world.arena(0).len()
}

// Mentions in prose and strings must not fire: AllPairsPaths::compute(g),
// arena_mut(0), cost == 0.0.
pub const DOC: &str = "AllPairsPaths::compute(g) arena_mut(0) cost == 0.0";
