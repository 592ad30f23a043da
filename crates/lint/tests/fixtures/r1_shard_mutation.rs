//! Fixture for rule R1: direct shard-state mutation outside the shard
//! modules. Never compiled — lexed by the lint tests only.

pub fn poke_foreign_shard(world: &mut ShardedWorld, row: ArenaRow) {
    // Reaching into another shard's arena bypasses the sharded world's
    // serial merge order.
    let shard = &mut world.shards[0];
    shard.arena_mut().set(row.client, row.chunk, row.provider, row.cost_bits);
}

pub fn retire_out_of_band(shard: &mut WorldShard, chunk: ChunkId) {
    // Dropping rows outside the owning world's retire merge.
    shard.arena_mut().remove_chunk(chunk);
}

pub fn quiet_sites(shard: &WorldShard) -> usize {
    // Mentions without a call never fire: doc talk about arena_mut
    // semantics, field-position identifiers, reads.
    let arena_mut_count = 0;
    shard.arena().len() + arena_mut_count
}

#[cfg(test)]
mod tests {
    // Test-only regions stay exempt even for R1.
    fn t(shard: &mut WorldShard) {
        shard.arena_mut().remove_chunk(ChunkId::new(0));
    }
}
