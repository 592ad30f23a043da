// Fixture: rule D1 (clippy `disallowed_types`) must flag hash-ordered
// collections.
use std::collections::HashMap;
use std::collections::HashSet;

pub fn plan_order(ids: &[usize]) -> Vec<usize> {
    let mut seen: HashSet<usize> = HashSet::new();
    let mut weights: HashMap<usize, f64> = HashMap::new();
    for &id in ids {
        if seen.insert(id) {
            weights.insert(id, 1.0);
        }
    }
    // Iteration order of a HashMap is nondeterministic: this is exactly
    // the bug class D1 exists to stop.
    weights.keys().copied().collect()
}
