// Fixture: violations confined to test-only items are exempt.
pub fn production(x: Option<u32>) -> u32 {
    x.unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn helper_may_break_the_production_rules() {
        let paths = AllPairsPaths::compute(&graph, &node_costs);
        world.arena_mut(0).clear();
        let cost = paths.cost(0, 1);
        assert!(cost == 0.5);
    }
}
