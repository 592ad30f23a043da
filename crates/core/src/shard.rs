//! Shard-local state of the region-sharded world: the placement arena
//! and the shard that owns it.
//!
//! A [`WorldShard`](crate::sharded::ShardedWorld) owns exactly one
//! region of the scoped store's
//! [`RegionPartition`](peercache_graph::regions::RegionPartition) —
//! shard `r` *is* region `r`. All per-client placement rows of the
//! shard's members live in a [`PlacementArena`]: a slot per member plus
//! one intrusive cell pool, so churn reuses freed cells instead of
//! reallocating per event (the shard/arena idiom).
//!
//! **Mutation discipline.** Arena state may only be mutated through
//! `WorldShard::arena_mut`, which lint rule R1 fences to
//! `core/src/shard.rs` and `core/src/sharded.rs`. Every call there sits
//! in one of the sharded world's serial merge phases, so no other call
//! site in the workspace can write a shard's rows outside the
//! deterministic merge order.

use peercache_graph::NodeId;

use crate::ChunkId;

/// Sentinel for "no cell" in the arena's intrusive lists.
const NIL: u32 = u32::MAX;

/// One placement row stored in the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaRow {
    /// The client the row belongs to.
    pub client: NodeId,
    /// The chunk.
    pub chunk: ChunkId,
    /// The provider serving `client` for `chunk`.
    pub provider: NodeId,
    /// Access cost at the time the row was written (`f64::to_bits`).
    /// Deliberately *not* rewritten when unrelated contention moves —
    /// rows refresh when their chunk is planned, repaired, or handed
    /// off, which keeps replay byte-exact and bounded.
    pub cost_bits: u64,
}

/// One cell of the arena's intrusive per-client chunk lists.
#[derive(Debug, Clone, Copy)]
struct Cell {
    chunk: ChunkId,
    provider: NodeId,
    cost_bits: u64,
    /// Next cell of the same client's list (ascending chunk order), or
    /// the next free cell when on the free list.
    next: u32,
}

/// Arena-backed placement rows for one shard's members: a slot (list
/// head) per member, all cells pooled in one `Vec` with a free list.
///
/// Lists are kept in ascending chunk order, members are sorted, so
/// iteration order — and therefore every digest and merge fold over
/// the arena — is deterministic regardless of the mutation history.
#[derive(Debug, Clone)]
pub struct PlacementArena {
    /// Shard members, sorted ascending.
    members: Vec<NodeId>,
    /// Head cell per member (parallel to `members`), [`NIL`] when empty.
    heads: Vec<u32>,
    /// The shared cell pool.
    cells: Vec<Cell>,
    /// Free-list head into `cells`.
    free: u32,
    /// Live rows.
    live: usize,
}

impl PlacementArena {
    /// Creates an empty arena for the given (sorted) member list.
    pub fn new(members: Vec<NodeId>) -> PlacementArena {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let heads = vec![NIL; members.len()];
        PlacementArena {
            members,
            heads,
            cells: Vec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// The shard members this arena holds slots for.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no rows are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Cells ever allocated (pool size; freed cells are reused).
    pub fn pool_cells(&self) -> usize {
        self.cells.len()
    }

    fn slot_of(&self, client: NodeId) -> Option<usize> {
        self.members.binary_search(&client).ok()
    }

    fn alloc(&mut self, cell: Cell) -> u32 {
        if self.free == NIL {
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = self.cells[at as usize].next;
            self.cells[at as usize] = cell;
            at
        }
    }

    /// The row for `(client, chunk)`, if present.
    pub fn get(&self, client: NodeId, chunk: ChunkId) -> Option<ArenaRow> {
        let slot = self.slot_of(client)?;
        let mut at = self.heads[slot];
        while at != NIL {
            let c = &self.cells[at as usize];
            if c.chunk == chunk {
                return Some(ArenaRow {
                    client,
                    chunk,
                    provider: c.provider,
                    cost_bits: c.cost_bits,
                });
            }
            if c.chunk > chunk {
                return None;
            }
            at = c.next;
        }
        None
    }

    /// Inserts or overwrites the row for `(client, chunk)`; returns
    /// `true` when the row is new, `false` for an unknown client (not a
    /// member — the write is dropped) or an overwrite.
    pub fn set(
        &mut self,
        client: NodeId,
        chunk: ChunkId,
        provider: NodeId,
        cost_bits: u64,
    ) -> bool {
        let Some(slot) = self.slot_of(client) else {
            return false;
        };
        // Walk to the insertion point, keeping the list chunk-ascending.
        let mut prev = NIL;
        let mut at = self.heads[slot];
        while at != NIL && self.cells[at as usize].chunk < chunk {
            prev = at;
            at = self.cells[at as usize].next;
        }
        if at != NIL && self.cells[at as usize].chunk == chunk {
            self.cells[at as usize].provider = provider;
            self.cells[at as usize].cost_bits = cost_bits;
            return false;
        }
        let cell = self.alloc(Cell {
            chunk,
            provider,
            cost_bits,
            next: at,
        });
        if prev == NIL {
            self.heads[slot] = cell;
        } else {
            self.cells[prev as usize].next = cell;
        }
        self.live += 1;
        true
    }

    /// Removes the row for `(client, chunk)`; returns whether it
    /// existed.
    pub fn remove(&mut self, client: NodeId, chunk: ChunkId) -> bool {
        let Some(slot) = self.slot_of(client) else {
            return false;
        };
        let mut prev = NIL;
        let mut at = self.heads[slot];
        while at != NIL {
            let c = self.cells[at as usize];
            if c.chunk == chunk {
                if prev == NIL {
                    self.heads[slot] = c.next;
                } else {
                    self.cells[prev as usize].next = c.next;
                }
                self.cells[at as usize].next = self.free;
                self.free = at;
                self.live -= 1;
                return true;
            }
            if c.chunk > chunk {
                return false;
            }
            prev = at;
            at = c.next;
        }
        false
    }

    /// Removes every row of `chunk` across all slots; returns how many.
    pub fn remove_chunk(&mut self, chunk: ChunkId) -> usize {
        let mut removed = 0usize;
        for slot in 0..self.members.len() {
            let mut prev = NIL;
            let mut at = self.heads[slot];
            while at != NIL {
                let c = self.cells[at as usize];
                if c.chunk == chunk {
                    if prev == NIL {
                        self.heads[slot] = c.next;
                    } else {
                        self.cells[prev as usize].next = c.next;
                    }
                    self.cells[at as usize].next = self.free;
                    self.free = at;
                    self.live -= 1;
                    removed += 1;
                    break; // at most one row per (client, chunk)
                }
                if c.chunk > chunk {
                    break;
                }
                prev = at;
                at = c.next;
            }
        }
        removed
    }

    /// Frees every row of `client` (its demand vanished); returns how
    /// many rows were dropped.
    pub fn clear_client(&mut self, client: NodeId) -> usize {
        let Some(slot) = self.slot_of(client) else {
            return 0;
        };
        let mut dropped = 0usize;
        let mut at = self.heads[slot];
        while at != NIL {
            let next = self.cells[at as usize].next;
            self.cells[at as usize].next = self.free;
            self.free = at;
            self.live -= 1;
            dropped += 1;
            at = next;
        }
        self.heads[slot] = NIL;
        dropped
    }

    /// All live rows in `(member, chunk)` ascending order — the
    /// deterministic fold order of digests and audits.
    pub fn rows(&self) -> Vec<ArenaRow> {
        let mut out = Vec::with_capacity(self.live);
        for (slot, &client) in self.members.iter().enumerate() {
            let mut at = self.heads[slot];
            while at != NIL {
                let c = &self.cells[at as usize];
                out.push(ArenaRow {
                    client,
                    chunk: c.chunk,
                    provider: c.provider,
                    cost_bits: c.cost_bits,
                });
                at = c.next;
            }
        }
        out
    }
}

/// One shard of the region-sharded world: a region's members and
/// their placement arena.
#[derive(Debug, Clone)]
pub struct WorldShard {
    id: u32,
    arena: PlacementArena,
}

impl WorldShard {
    /// Creates the shard for region `id` over the given (sorted)
    /// member list.
    pub fn new(id: u32, members: Vec<NodeId>) -> WorldShard {
        WorldShard {
            id,
            arena: PlacementArena::new(members),
        }
    }

    /// The shard's region index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The shard's members (sorted ascending).
    pub fn members(&self) -> &[NodeId] {
        self.arena.members()
    }

    /// Read access to the placement arena.
    pub fn arena(&self) -> &PlacementArena {
        &self.arena
    }

    /// Mutable access to the arena — the only mutation path, fenced by
    /// lint rule R1 to this module and the world that drives it.
    pub(crate) fn arena_mut(&mut self) -> &mut PlacementArena {
        &mut self.arena
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn c(i: usize) -> ChunkId {
        ChunkId::new(i)
    }

    #[test]
    fn arena_set_get_remove_roundtrip() {
        let mut a = PlacementArena::new(vec![n(2), n(5), n(9)]);
        assert!(a.set(n(5), c(1), n(2), 7));
        assert!(a.set(n(5), c(0), n(9), 3));
        assert!(a.set(n(2), c(1), n(5), 4));
        // Overwrite is not an insert.
        assert!(!a.set(n(5), c(1), n(9), 8));
        assert_eq!(a.len(), 3);
        // Non-members are rejected.
        assert!(!a.set(n(3), c(0), n(2), 1));
        let row = a.get(n(5), c(1)).unwrap();
        assert_eq!((row.provider, row.cost_bits), (n(9), 8));
        assert!(a.remove(n(5), c(0)));
        assert!(!a.remove(n(5), c(0)));
        assert_eq!(a.len(), 2);
        assert!(a.get(n(5), c(0)).is_none());
    }

    #[test]
    fn arena_rows_come_back_in_member_then_chunk_order() {
        let mut a = PlacementArena::new(vec![n(1), n(4)]);
        a.set(n(4), c(2), n(1), 0);
        a.set(n(1), c(1), n(4), 0);
        a.set(n(4), c(0), n(1), 0);
        a.set(n(1), c(3), n(4), 0);
        let order: Vec<(NodeId, ChunkId)> = a.rows().iter().map(|r| (r.client, r.chunk)).collect();
        assert_eq!(
            order,
            vec![(n(1), c(1)), (n(1), c(3)), (n(4), c(0)), (n(4), c(2))]
        );
    }

    #[test]
    fn arena_reuses_freed_cells() {
        let mut a = PlacementArena::new(vec![n(0), n(1)]);
        for i in 0..4 {
            a.set(n(0), c(i), n(1), 0);
        }
        assert_eq!(a.pool_cells(), 4);
        assert_eq!(a.clear_client(n(0)), 4);
        assert!(a.is_empty());
        for i in 0..4 {
            a.set(n(1), c(i), n(0), 0);
        }
        // Churn reuses the freed cells instead of growing the pool.
        assert_eq!(a.pool_cells(), 4);
        assert_eq!(a.remove_chunk(c(2)), 1);
        assert_eq!(a.len(), 3);
    }
}
