//! K-hop-scoped contention state and the hierarchical region planner —
//! the locality stack that breaks the `O(N²)` wall of the dense
//! [`ContentionMatrix`](crate::costs::ContentionMatrix).
//!
//! The dense planners keep every Path Contention Cost `c_ij` in memory:
//! `O(N²)` state and `O(N·(N+E) log N)` recompute per chunk. This
//! module replaces that with three cooperating pieces:
//!
//! 1. **Region partition** — the graph is covered once by connected
//!    regions of bounded size
//!    ([`RegionPartition::grow`](peercache_graph::regions::RegionPartition)),
//!    each extended by a `k`-hop halo.
//! 2. **[`ScopedContention`]** — per region, the exact pairwise costs
//!    from the region's nodes to everything in its `k`-hop demand ball
//!    (region ∪ halo), computed on the induced block subgraph and kept
//!    as lean `cost f64 + hops u32` rows (12 B/pair, no parent
//!    pointers). Because every hop-shortest path between nodes at hop
//!    distance `h ≤ k` stays inside the `k`-ball, these block values
//!    are **bit-identical** to the dense matrix for all pairs within
//!    `k` hops. Everything farther is answered by a seeded
//!    [`LandmarkOracle`] — `O(L·N)` state — whose triangle-inequality
//!    upper bound serves as the documented cross-ball estimate.
//! 3. **[`HierarchicalPlanner`]** — runs the *same* event-driven dual
//!    ascent ([`crate::approx::dual_ascent_scoped`]) independently per
//!    region over a [`RegionView`] of the scoped store, stitches the
//!    result across borders (clients may pick providers in their
//!    region's halo, i.e. within `k` hops of a boundary), and builds
//!    the dissemination tree as a union of producer-rooted
//!    shortest-path-tree trunks instead of a full metric-closure
//!    Steiner run.
//!
//! Each block keeps only its region rows, so it is built with
//! [`source_rows`] — the all-pairs Dijkstra run for the row sources
//! alone over the induced ball subgraph — rather than a full all-pairs
//! computation whose halo rows would be thrown away.
//!
//! # Mark now, settle at the next read
//!
//! The incremental discipline mirrors the dense path: committing a
//! chunk dirties only the new caches and the producer, so only the
//! blocks whose demand ball contains a dirty node go stale. Refreshing
//! is split in two steps:
//!
//! * `mark` refreshes the per-node terms eagerly — so
//!   [`ScopedContention::node_term`] and
//!   [`ScopedContention::edge_cost`] are always current — adds the
//!   stale regions to the pending set and flags the landmark oracle;
//! * `settle` rebuilds every pending block and refreshes the oracle,
//!   once.
//!
//! [`ScopedContention::update`] and
//! [`ScopedContention::update_topology`] are `mark` followed by
//! `settle`. The sharded world marks at every state change and settles
//! only right before it reads a block, so several changes between two
//! reads cost one block sweep. A block is a pure function of (graph,
//! terms, partition), so the deferred store is bit-identical to the
//! eager one. Block readers ([`ScopedContention::cost`],
//! [`ScopedContention::is_exact`],
//! [`ScopedContention::region_cols`]) debug-assert that what they read
//! is settled.
//!
//! Staleness is decided by the term diff *and*, for topology edits, by
//! the edited links' endpoints: a degree-preserving link swap leaves
//! every term bitwise unchanged while moving edges inside some balls,
//! so every block whose columns hold an edit endpoint is marked, and
//! the oracle is refreshed on any edit, whatever the term diff says.

use peercache_graph::oracle::LandmarkOracle;
use peercache_graph::paths::{dijkstra_edge_weighted, source_rows, Parallelism, PathSelection};
use peercache_graph::regions::RegionPartition;
use peercache_graph::NodeId;
use peercache_obs as obs;

use crate::approx::{dual_ascent_scoped, ApproxConfig};
use crate::costs::{cost_tie_eq, node_contention_terms, CostWeights};
use crate::instance::{ConflCosts, ConflInstance, SetCosts};
use crate::placement::{ChunkPlacement, Placement};
use crate::planner::{chunk_span, finish_chunk_span, CachePlanner};
use crate::{ChunkId, CoreError, Network};

/// Tuning parameters of the scoped contention store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopedConfig {
    /// Maximum nodes per region (the block row count).
    pub region_max: usize,
    /// Halo radius `k`: block columns cover the region plus everything
    /// within `k` hops, and pairs within `k` hops are answered exactly.
    pub halo_hops: u32,
    /// Landmark count `L` of the cross-ball distance oracle.
    pub landmarks: usize,
    /// Seed for region growth order and landmark selection.
    pub seed: u64,
}

impl Default for ScopedConfig {
    fn default() -> Self {
        ScopedConfig {
            region_max: 128,
            halo_hops: 2,
            landmarks: 8,
            seed: 0xCAC4E,
        }
    }
}

/// One region's exact-cost block: rows are the region's nodes, columns
/// its `k`-hop demand ball (region ∪ halo), values the pair costs of
/// the induced block subgraph.
#[derive(Debug, Clone)]
struct Block {
    /// Region members, sorted ascending (the block's rows).
    rows: Vec<NodeId>,
    /// Region ∪ halo, sorted ascending (the block's columns).
    cols: Vec<NodeId>,
    /// Closed pair costs, `rows.len() × cols.len()`, row-major.
    cost: Vec<f64>,
    /// Routed hop counts, same shape; `u32::MAX` when unreachable
    /// inside the block.
    hops: Vec<u32>,
}

impl Block {
    fn lookup(&self, row: NodeId, col: NodeId) -> Option<(f64, u32)> {
        let ci = self.cols.binary_search(&col).ok()?;
        let ri = self
            .rows
            .binary_search(&row)
            .expect("block rows cover the region");
        let at = ri * self.cols.len() + ci;
        Some((self.cost[at], self.hops[at]))
    }

    fn state_bytes(&self) -> u64 {
        (self.cost.len() * 8 + self.hops.len() * 4 + (self.rows.len() + self.cols.len()) * 4) as u64
    }
}

/// Scoped replacement for the dense contention matrix: exact block
/// state within each region's `k`-hop demand ball, landmark-oracle
/// estimates across balls. See the module docs for the exactness
/// guarantee and the error model.
#[derive(Debug, Clone)]
pub struct ScopedContention {
    cfg: ScopedConfig,
    selection: PathSelection,
    partition: RegionPartition,
    /// Per-node contention terms `w_k (1 + S(k))`, always current.
    terms: Vec<f64>,
    blocks: Vec<Block>,
    /// Per region: the block is stale and waits for the next settle.
    pending: Vec<bool>,
    oracle: LandmarkOracle,
    /// The landmark vectors are stale and wait for the next settle.
    oracle_pending: bool,
}

impl ScopedContention {
    /// Builds the scoped store for the network's current caching state:
    /// grows the region partition, computes every region block on its
    /// induced subgraph (fanned out over `parallelism`), and builds the
    /// landmark oracle.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures (cannot
    /// happen for a well-formed [`Network`]).
    pub fn new(
        net: &Network,
        cfg: ScopedConfig,
        selection: PathSelection,
        parallelism: Parallelism,
    ) -> Result<Self, CoreError> {
        let g = net.graph();
        let terms = node_contention_terms(net);
        let partition = RegionPartition::grow(g, cfg.region_max, cfg.seed);
        let oracle = LandmarkOracle::build(g, &terms, cfg.landmarks, cfg.seed)?;
        let all: Vec<usize> = (0..partition.region_count()).collect();
        let built = build_blocks(
            net,
            &partition,
            &terms,
            cfg.halo_hops,
            selection,
            parallelism,
            &all,
        )?;
        let blocks: Vec<Block> = built.into_iter().map(|(_, b)| b).collect();
        Ok(ScopedContention {
            cfg,
            selection,
            partition,
            terms,
            pending: vec![false; blocks.len()],
            blocks,
            oracle,
            oracle_pending: false,
        })
    }

    /// The region partition the store is built over.
    pub fn partition(&self) -> &RegionPartition {
        &self.partition
    }

    /// The scoped store's configuration.
    pub fn config(&self) -> &ScopedConfig {
        &self.cfg
    }

    /// The per-node contention term `w_k (1 + S(k))`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of bounds.
    pub fn node_term(&self, k: NodeId) -> f64 {
        self.terms[k.index()]
    }

    /// Edge cost `c_e` for an adjacent pair — identical to
    /// [`ContentionMatrix::edge_cost`](crate::costs::ContentionMatrix::edge_cost).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn edge_cost(&self, u: NodeId, v: NodeId) -> f64 {
        self.terms[u.index()] + self.terms[v.index()]
    }

    /// The demand-ball columns (region ∪ halo, sorted) of region `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn region_cols(&self, r: usize) -> &[NodeId] {
        &self.settled_block(r).cols
    }

    /// Block `r`, debug-asserted to hold no pending rebuild.
    fn settled_block(&self, r: usize) -> &Block {
        debug_assert!(!self.pending[r], "read of block {r} before settle");
        &self.blocks[r]
    }

    /// The Path Contention Cost `c_uv` under the scoped store: `0` on
    /// the diagonal, the exact block value when either endpoint's block
    /// covers the pair (bit-identical to the dense matrix whenever the
    /// pair is within `k` hops), and the landmark upper-bound estimate
    /// across balls.
    ///
    /// Symmetric by construction: the lookup tries the lower id's home
    /// block first, then the higher id's, so `(u, v)` and `(v, u)`
    /// resolve through the same path.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn cost(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        if let Some((c, _)) = self.settled_block(self.partition.region_of(a)).lookup(a, b) {
            return c;
        }
        if let Some((c, _)) = self.settled_block(self.partition.region_of(b)).lookup(b, a) {
            return c;
        }
        debug_assert!(!self.oracle_pending, "oracle read before settle");
        self.oracle.estimate(a, b)
    }

    /// Whether [`ScopedContention::cost`] answers this pair from exact
    /// block state (as opposed to the cross-ball oracle estimate) *and*
    /// the pair lies within the `k`-hop exactness radius.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of bounds.
    pub fn is_exact(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return true;
        }
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        for (row, col) in [(a, b), (b, a)] {
            if let Some((_, h)) = self
                .settled_block(self.partition.region_of(row))
                .lookup(row, col)
            {
                return h <= self.cfg.halo_hops;
            }
        }
        false
    }

    /// Refreshes the store after the caching state changed, rebuilding
    /// only the blocks whose demand ball contains a node whose
    /// contention term moved, and re-running the (fixed-selection)
    /// landmark vectors: `mark` followed by `settle` (see the module
    /// docs). `dirty` is the caller's account of the changed nodes,
    /// cross-checked in debug builds; the actual invalidation diffs the
    /// recomputed terms, so a stale set cannot produce a wrong store.
    ///
    /// Returns the number of blocks rebuilt (including any still
    /// pending from earlier marks).
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the graph's node count no
    ///   longer matches the partition (a node joined).
    /// * [`CoreError::Graph`] on internal failures.
    pub fn update(
        &mut self,
        net: &Network,
        dirty: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        self.mark(net, dirty, &[])?;
        self.settle(net, parallelism)
    }

    /// Refreshes the store after a *topology* change (links added or
    /// removed, a node deactivated): the structural sibling of
    /// [`ScopedContention::update`].
    ///
    /// Why the invalidation is sound for topology edits: a block's
    /// values can only change if an edited edge lies inside its induced
    /// ball subgraph — both endpoints in its columns — and a ball can
    /// only gain or lose a member through an edited edge whose nearer
    /// endpoint was within `k-1` hops (hence already a column). Either
    /// way the stale block holds an edit endpoint. The term diff alone
    /// does not see every endpoint: the term is `w_k (1 + S(k))` with
    /// `w_k` the node's *degree*, and a degree-preserving link swap
    /// inside one batch leaves every term bitwise unchanged. So every
    /// `touched` node is treated as a possible edit endpoint: each block
    /// whose columns hold one is rebuilt, and the oracle is refreshed,
    /// whatever the term diff says.
    ///
    /// The one structural edit this cannot absorb is a *new node id*
    /// ([`Network::join_node`] grows the graph): the region partition
    /// has no region for it, so that case is rejected and the caller
    /// must rebuild with [`ScopedContention::new`].
    ///
    /// `touched` must cover every edited link's endpoints and every node
    /// whose degree or load changed (include the producer when
    /// distinct-chunk counts may have moved); the term diff is
    /// cross-checked against it in debug builds exactly like `update`'s
    /// dirty set. Returns the number of blocks rebuilt.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameter`] if the graph's node count no
    ///   longer matches the partition (a node joined).
    /// * [`CoreError::Graph`] on internal failures.
    pub fn update_topology(
        &mut self,
        net: &Network,
        touched: &[NodeId],
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        self.mark(net, touched, touched)?;
        self.settle(net, parallelism)
    }

    /// First half of a refresh: recomputes the per-node terms, adds
    /// every block whose columns hold a term-changed node or a link-edit
    /// endpoint (`edited`) to the pending set, and flags the oracle when
    /// anything moved. `dirty` must cover every term change (checked in
    /// debug builds). Blocks are rebuilt by the next
    /// [`ScopedContention::settle`]; until then
    /// [`ScopedContention::node_term`] and
    /// [`ScopedContention::edge_cost`] are already current.
    ///
    /// Returns the number of blocks newly marked.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] if the graph's node count no
    /// longer matches the partition (a node joined).
    pub(crate) fn mark(
        &mut self,
        net: &Network,
        dirty: &[NodeId],
        edited: &[NodeId],
    ) -> Result<usize, CoreError> {
        if net.node_count() != self.terms.len() {
            return Err(CoreError::InvalidParameter(format!(
                "scoped store built for {} nodes cannot absorb a grown graph of {} — rebuild",
                self.terms.len(),
                net.node_count()
            )));
        }
        let terms = node_contention_terms(net);
        let mut moved: Vec<NodeId> = (0..terms.len())
            .filter(|&k| terms[k].to_bits() != self.terms[k].to_bits())
            .map(NodeId::new)
            .collect();
        debug_assert!(
            moved.iter().all(|c| dirty.contains(c)),
            "a node outside the declared dirty set {dirty:?} changed its contention term"
        );
        self.terms = terms;
        moved.extend_from_slice(edited);
        if moved.is_empty() {
            return Ok(0);
        }
        self.oracle_pending = true;
        let mut marked = 0usize;
        for (block, pending) in self.blocks.iter().zip(self.pending.iter_mut()) {
            if !*pending && moved.iter().any(|c| block.cols.binary_search(c).is_ok()) {
                *pending = true;
                marked += 1;
            }
        }
        Ok(marked)
    }

    /// Second half of a refresh: rebuilds every pending block (fanned
    /// out over `parallelism`) and refreshes the landmark oracle if it
    /// was flagged, once, against the current graph and terms. A no-op
    /// when nothing is pending; otherwise one `scoped.settle` span.
    ///
    /// Returns the number of blocks rebuilt.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Graph`] on internal failures.
    pub(crate) fn settle(
        &mut self,
        net: &Network,
        parallelism: Parallelism,
    ) -> Result<usize, CoreError> {
        if !self.oracle_pending && !self.pending.contains(&true) {
            return Ok(0);
        }
        debug_assert!(
            self.stale_term(net).is_none(),
            "the network changed after the last mark"
        );
        let which: Vec<usize> = (0..self.pending.len())
            .filter(|&r| self.pending[r])
            .collect();
        let _span = obs::span!(
            "scoped.settle",
            blocks = which.len(),
            oracle = self.oracle_pending,
        );
        let rebuilt = build_blocks(
            net,
            &self.partition,
            &self.terms,
            self.cfg.halo_hops,
            self.selection,
            parallelism,
            &which,
        )?;
        for (r, b) in rebuilt {
            self.blocks[r] = b;
            self.pending[r] = false;
        }
        if self.oracle_pending {
            self.oracle.refresh(net.graph(), &self.terms)?;
            self.oracle_pending = false;
        }
        Ok(which.len())
    }

    /// The first node whose held term differs bitwise from the
    /// network's current one, if any.
    fn stale_term(&self, net: &Network) -> Option<usize> {
        let terms = node_contention_terms(net);
        if terms.len() != self.terms.len() {
            return Some(terms.len().min(self.terms.len()));
        }
        (0..terms.len()).find(|&k| terms[k].to_bits() != self.terms[k].to_bits())
    }

    /// Strict-invariants oracle: asserts the terms are current and
    /// rebuilds every *settled* block from scratch *over the retained
    /// partition*, asserting the held state matches bitwise. Pending
    /// blocks are skipped: they are rebuilt by the next settle, before
    /// anything reads them. A fresh [`ScopedContention::new`] would
    /// re-grow the partition over the current graph and legitimately
    /// differ after topology churn; the invariant is that incremental
    /// maintenance of *this* partition equals a from-scratch build of
    /// it.
    ///
    /// # Panics
    ///
    /// Panics on any bitwise divergence (corrupted incremental state).
    #[cfg(feature = "strict-invariants")]
    pub fn strict_verify(&self, net: &Network) {
        assert_eq!(
            net.node_count(),
            self.terms.len(),
            "strict: node count drifted under the scoped store"
        );
        if let Some(k) = self.stale_term(net) {
            panic!("strict: stale contention term at node {k}");
        }
        let settled: Vec<usize> = (0..self.partition.region_count())
            .filter(|&r| !self.pending[r])
            .collect();
        let built = build_blocks(
            net,
            &self.partition,
            &self.terms,
            self.cfg.halo_hops,
            self.selection,
            Parallelism::Sequential,
            &settled,
        )
        .expect("strict: from-scratch block rebuild failed");
        for (r, fresh) in built {
            let held = &self.blocks[r];
            assert_eq!(held.cols, fresh.cols, "strict: block {r} columns drifted");
            assert_eq!(held.hops, fresh.hops, "strict: block {r} hops drifted");
            assert!(
                held.cost
                    .iter()
                    .zip(&fresh.cost)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "strict: block {r} cost values drifted from a fresh rebuild"
            );
        }
    }

    /// Bytes of heap state the store holds: all block rows plus the
    /// landmark vectors and the term table. This is the
    /// `planner.contention_bytes` gauge.
    pub fn contention_bytes(&self) -> u64 {
        let blocks: u64 = self.blocks.iter().map(Block::state_bytes).sum();
        blocks + self.oracle.state_bytes() + (self.terms.len() * 8) as u64
    }

    /// Bytes an equivalent dense
    /// [`AllPairsPaths`](peercache_graph::paths::AllPairsPaths) snapshot
    /// would hold:
    /// interior `f64` + hops `u32` + parent `Option<NodeId>` per pair
    /// (20 B), mask words excluded — the conservative side.
    pub fn dense_equivalent_bytes(n: usize) -> u64 {
        (n as u64) * (n as u64) * 20
    }
}

/// Builds the blocks for the listed regions, fanning out over
/// `parallelism`; results come back tagged with their region index in
/// `which` order, so the merge is deterministic regardless of thread
/// scheduling.
fn build_blocks(
    net: &Network,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    selection: PathSelection,
    parallelism: Parallelism,
    which: &[usize],
) -> Result<Vec<(usize, Block)>, CoreError> {
    parallelism
        .fan_out(which, |&r| {
            build_block(net, partition, terms, halo_hops, selection, r).map(|b| (r, b))
        })
        .into_iter()
        .collect()
}

/// Computes one region's block: the region rows of the closed path
/// costs on the induced region-∪-halo subgraph, from one Dijkstra per
/// region node ([`source_rows`]) — the halo nodes are columns only.
fn build_block(
    net: &Network,
    partition: &RegionPartition,
    terms: &[f64],
    halo_hops: u32,
    selection: PathSelection,
    r: usize,
) -> Result<Block, CoreError> {
    let g = net.graph();
    let rows: Vec<NodeId> = partition.region(r).to_vec();
    let halo = partition.halo_of(g, r, halo_hops);
    let mut cols = Vec::with_capacity(rows.len() + halo.len());
    cols.extend_from_slice(&rows);
    cols.extend_from_slice(&halo);
    cols.sort_unstable();
    let (sub, _) = g.induced_subgraph(&cols)?;
    let local_terms: Vec<f64> = cols.iter().map(|&x| terms[x.index()]).collect();
    let sources: Vec<NodeId> = rows
        .iter()
        .map(|u| {
            NodeId::new(
                cols.binary_search(u)
                    .expect("region rows are block columns"),
            )
        })
        .collect();
    let closed = source_rows(&sub, &local_terms, selection, &sources)?;
    Ok(Block {
        rows,
        cols,
        cost: closed.cost,
        hops: closed.hops,
    })
}

/// One region's ConFL view over the scoped store: clients and
/// candidates restricted to the region, connection costs answered by
/// [`ScopedContention::cost`], the ambient producer as the pre-opened
/// root. Feed it to [`dual_ascent_scoped`].
#[derive(Debug)]
pub struct RegionView<'a> {
    scoped: &'a ScopedContention,
    facility_cost: &'a [f64],
    producer: NodeId,
    clients: Vec<NodeId>,
    candidates: Vec<NodeId>,
    weights: CostWeights,
}

impl<'a> RegionView<'a> {
    /// Builds the view for region `r`: `clients` is the chunk audience
    /// restricted to the region (sorted), candidates are the region's
    /// finite-cost nodes.
    pub fn new(
        scoped: &'a ScopedContention,
        facility_cost: &'a [f64],
        producer: NodeId,
        weights: CostWeights,
        r: usize,
        clients: Vec<NodeId>,
    ) -> Self {
        let candidates: Vec<NodeId> = scoped
            .partition()
            .region(r)
            .iter()
            .copied()
            .filter(|&i| facility_cost[i.index()].is_finite())
            .collect();
        RegionView {
            scoped,
            facility_cost,
            producer,
            clients,
            candidates,
            weights,
        }
    }
}

impl ConflCosts for RegionView<'_> {
    fn node_count(&self) -> usize {
        self.facility_cost.len()
    }

    fn producer(&self) -> NodeId {
        self.producer
    }

    fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    fn candidates(&self) -> Vec<NodeId> {
        self.candidates.clone()
    }

    fn facility_cost(&self, i: NodeId) -> f64 {
        self.facility_cost[i.index()]
    }

    fn connection_cost(&self, i: NodeId, j: NodeId) -> f64 {
        self.weights.contention * self.scoped.cost(i, j)
    }

    fn weights(&self) -> CostWeights {
        self.weights
    }
}

/// The hierarchical region planner ("Hier" in the figures): per-region
/// dual ascent over the scoped store, border-stitched assignment, and
/// an SPT-trunk dissemination tree. Plans 10k–100k-node networks in
/// seconds where the dense pipeline needs the full `O(N²)` matrix.
#[derive(Debug, Clone, Default)]
pub struct HierarchicalPlanner {
    /// Dual-ascent parameters (shared with the dense planner).
    pub config: ApproxConfig,
    /// Scoped-store parameters.
    pub scoped: ScopedConfig,
}

impl HierarchicalPlanner {
    /// Creates a planner with explicit parameters.
    pub fn new(config: ApproxConfig, scoped: ScopedConfig) -> Self {
        HierarchicalPlanner { config, scoped }
    }
}

impl CachePlanner for HierarchicalPlanner {
    fn name(&self) -> &str {
        "Hier"
    }

    fn plan(&self, net: &mut Network, chunk_count: usize) -> Result<Placement, CoreError> {
        self.config.validate()?;
        let mut scoped = ScopedContention::new(
            net,
            self.scoped,
            self.config.selection,
            self.config.parallelism,
        )?;
        let regions = scoped.partition().region_count();
        obs::gauge("planner.region_count").set(regions as i64);
        obs::gauge("planner.contention_bytes").set(scoped.contention_bytes() as i64);
        let mut scale_span = obs::span!(
            "planner.scale",
            nodes = net.node_count(),
            regions = regions,
            chunks = chunk_count,
        );

        let mut placement = Placement::default();
        for q in 0..chunk_count {
            let chunk = ChunkId::new(q);
            let mut span = chunk_span("Hier", chunk);
            let plan = plan_chunk(&scoped, net, &self.config, chunk, &mut span)?;
            let mut clock = obs::Stopwatch::start();
            for &i in &plan.caches {
                net.cache(i, chunk)?;
            }
            let cp = ChunkPlacement {
                chunk,
                caches: plan.caches,
                assignment: plan.audience.into_iter().zip(plan.providers).collect(),
                tree_edges: plan.tree_edges,
                costs: plan.costs,
            };
            #[cfg(feature = "strict-invariants")]
            crate::strict::check_tree_connectivity(net, &cp);
            let commit_us = clock.lap_us();
            if q + 1 < chunk_count {
                let mut dirty = cp.caches.clone();
                dirty.push(net.producer());
                let rebuilt = scoped.update(net, &dirty, self.config.parallelism)?;
                if span.is_recording() {
                    span.add_field("blocks_rebuilt", obs::Value::from(rebuilt));
                }
            }
            obs::gauge("planner.contention_bytes").set(scoped.contention_bytes() as i64);
            if span.is_recording() {
                span.add_field("commit_us", obs::Value::from(commit_us));
            }
            finish_chunk_span(span, &cp);
            placement.push(cp);
        }
        if scale_span.is_recording() {
            scale_span.add_field(
                "contention_bytes",
                obs::Value::from(scoped.contention_bytes()),
            );
        }
        Ok(placement)
    }
}

/// One chunk's hierarchical plan, not yet committed: what
/// [`plan_chunk`] hands each caller to commit its own way.
#[derive(Debug)]
pub(crate) struct ChunkPlan {
    /// The chunk's interested clients, sorted.
    pub(crate) audience: Vec<NodeId>,
    /// The nodes to cache the chunk on, sorted.
    pub(crate) caches: Vec<NodeId>,
    /// Each client's provider, in audience order.
    pub(crate) providers: Vec<NodeId>,
    /// Each client's weighted access cost, in audience order.
    pub(crate) access: Vec<f64>,
    /// Trunk dissemination tree as `(child, parent)` pairs.
    pub(crate) tree_edges: Vec<(NodeId, NodeId)>,
    /// Summed (unweighted) edge cost of the trunk tree.
    pub(crate) tree_cost: f64,
    /// The fairness/access/dissemination split at the pre-commit load.
    pub(crate) costs: SetCosts,
}

/// Plans one chunk through the hierarchical pipeline against a
/// *settled* store: per-region dual ascent, border-stitched assignment
/// and prune, producer SPT, scoped removal, R-copy top-up, trunk tree.
/// The one place a chunk is planned at scale — [`HierarchicalPlanner`]
/// and [`ShardedWorld`](crate::ShardedWorld) differ only in how they
/// commit the result. Records `regions_active` and the
/// `ascent_us`/`prune_us`/`improve_us` phase laps on `span`.
pub(crate) fn plan_chunk(
    scoped: &ScopedContention,
    net: &Network,
    cfg: &ApproxConfig,
    chunk: ChunkId,
    span: &mut obs::Span,
) -> Result<ChunkPlan, CoreError> {
    let mut clock = obs::Stopwatch::start();
    let producer = net.producer();
    let weights = cfg.weights;
    let regions = scoped.partition().region_count();
    let facility_cost = ConflInstance::facility_costs(net, weights);
    let audience = net.interested_clients(chunk);

    // Per-region dual ascent over the scoped store, fanned out in
    // parallel; the merge is by region order, so every parallelism
    // setting yields the same facilities.
    let mut by_region: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
    for &j in &audience {
        by_region[scoped.partition().region_of(j)].push(j);
    }
    let busy: Vec<usize> = (0..regions).filter(|&r| !by_region[r].is_empty()).collect();
    let opened = cfg.parallelism.fan_out(&busy, |&r| {
        let view = RegionView::new(
            scoped,
            &facility_cost,
            producer,
            weights,
            r,
            by_region[r].clone(),
        );
        if view.candidates.is_empty() {
            return Ok(Vec::new());
        }
        dual_ascent_scoped(&view, cfg).map(|(facilities, _)| facilities)
    });
    let mut facilities: Vec<NodeId> = Vec::new();
    for region in opened {
        facilities.extend(region?);
    }
    facilities.sort_unstable();
    facilities.dedup();
    let ascent_us = clock.lap_us();

    // Border-stitched assignment + prune: every client chooses among
    // the facilities in its region's demand ball (its own region plus
    // the k-hop halo — the cross-border stitch) and the producer;
    // facilities serving nobody are dropped to a fixpoint, exactly like
    // the dense pipeline's prune.
    let (mut current, mut providers, mut access) =
        assign_and_prune(scoped, producer, weights, &audience, facilities);
    let prune_us = clock.lap_us();

    // Dissemination: one producer-rooted edge-weighted SPT per chunk;
    // the tree is the union of the facilities' trunk paths. Removal
    // improvement scores each facility by the fairness it frees, the
    // access it costs its clients, and the trunk edges only it holds
    // alive.
    let (_, spt_parent) =
        dijkstra_edge_weighted(net.graph(), producer, |u, v| scoped.edge_cost(u, v));
    improve_by_scoped_removal(
        scoped,
        &facility_cost,
        producer,
        weights,
        &audience,
        &spt_parent,
        &mut current,
        &mut providers,
        &mut access,
    );
    let improve_us = clock.lap_us();

    // R-copy durability floor (a no-op for the default single-copy
    // policy): top the pruned set up to the replication degree under
    // the replica-load cap, then re-derive providers so a client may be
    // served by a replica that landed inside its region's demand ball.
    // The trunk tree below unions the SPT paths of *all* R copies — the
    // R-connected dissemination objective.
    let extra = crate::replication::top_up_targets(
        net,
        &current,
        &cfg.replication,
        |i| facility_cost[i.index()],
        |a, b| weights.contention * scoped.cost(a, b),
        producer,
    );
    if !extra.is_empty() {
        current.extend(extra);
        current.sort_unstable();
        let by_ball = facilities_by_region(scoped, &current);
        for (idx, &j) in audience.iter().enumerate() {
            let options = &by_ball[scoped.partition().region_of(j)];
            let (p, c) = best_provider(scoped, weights, producer, options, j, None);
            providers[idx] = p;
            access[idx] = c;
        }
    }

    let (tree_edges, tree_cost) = trunk_tree(scoped, producer, &spt_parent, &current);
    let costs = SetCosts {
        fairness: current.iter().map(|&i| facility_cost[i.index()]).sum(),
        access: access.iter().sum(),
        dissemination: weights.dissemination * tree_cost,
    };
    if span.is_recording() {
        span.add_field("regions_active", obs::Value::from(busy.len()));
        span.add_field("ascent_us", obs::Value::from(ascent_us));
        span.add_field("prune_us", obs::Value::from(prune_us));
        span.add_field("improve_us", obs::Value::from(improve_us));
    }
    Ok(ChunkPlan {
        audience,
        caches: current,
        providers,
        access,
        tree_edges,
        tree_cost,
        costs,
    })
}

/// Facilities available to each region's clients: the open facilities
/// inside the region's demand ball (region ∪ halo), sorted.
fn facilities_by_region(scoped: &ScopedContention, facilities: &[NodeId]) -> Vec<Vec<NodeId>> {
    (0..scoped.partition().region_count())
        .map(|r| {
            let cols = scoped.region_cols(r);
            facilities
                .iter()
                .copied()
                .filter(|i| cols.binary_search(i).is_ok())
                .collect()
        })
        .collect()
}

/// The cheapest provider for one client among its region's reachable
/// facilities (minus `skip`) and the producer; ties break toward the
/// lower node id, matching the dense assignment.
pub(crate) fn best_provider(
    scoped: &ScopedContention,
    weights: CostWeights,
    producer: NodeId,
    options: &[NodeId],
    j: NodeId,
    skip: Option<NodeId>,
) -> (NodeId, f64) {
    let mut best = (producer, weights.contention * scoped.cost(producer, j));
    for &i in options {
        if Some(i) == skip {
            continue;
        }
        let c = weights.contention * scoped.cost(i, j);
        if c < best.1 || (cost_tie_eq(c, best.1) && i < best.0) {
            best = (i, c);
        }
    }
    best
}

/// Assigns every client and drops unused facilities to a fixpoint.
/// Returns the surviving facilities (sorted), plus per-client providers
/// and access costs in audience order.
fn assign_and_prune(
    scoped: &ScopedContention,
    producer: NodeId,
    weights: CostWeights,
    audience: &[NodeId],
    mut current: Vec<NodeId>,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<f64>) {
    loop {
        let by_region = facilities_by_region(scoped, &current);
        let mut providers = Vec::with_capacity(audience.len());
        let mut costs = Vec::with_capacity(audience.len());
        for &j in audience {
            let options = &by_region[scoped.partition().region_of(j)];
            let (p, c) = best_provider(scoped, weights, producer, options, j, None);
            providers.push(p);
            costs.push(c);
        }
        let mut used: Vec<NodeId> = providers
            .iter()
            .copied()
            .filter(|&p| p != producer)
            .collect();
        used.sort_unstable();
        used.dedup();
        if used.len() == current.len() {
            return (current, providers, costs);
        }
        current = used;
    }
}

/// The trunk dissemination tree: union of the producer-rooted SPT paths
/// of all facilities. Edges are identified by their child node (each
/// non-root node owns exactly one SPT edge), reported as
/// `(child, parent)` pairs in ascending child order, with the summed
/// edge cost.
pub(crate) fn trunk_tree(
    scoped: &ScopedContention,
    producer: NodeId,
    spt_parent: &[Option<NodeId>],
    facilities: &[NodeId],
) -> (Vec<(NodeId, NodeId)>, f64) {
    let mut on_tree = vec![false; spt_parent.len()];
    for &i in facilities {
        let mut v = i;
        while v != producer && !on_tree[v.index()] {
            on_tree[v.index()] = true;
            v = spt_parent[v.index()].expect("facilities are reachable from the producer");
        }
    }
    let mut edges = Vec::new();
    let mut total = 0.0f64;
    for v in 0..on_tree.len() {
        if on_tree[v] {
            let child = NodeId::new(v);
            let parent = spt_parent[v].expect("tree nodes have SPT parents");
            total += scoped.edge_cost(child, parent);
            edges.push((child, parent));
        }
    }
    (edges, total)
}

/// Reference counts of the trunk edges (keyed by child node) across all
/// facilities' SPT paths.
fn trunk_refcounts(
    producer: NodeId,
    spt_parent: &[Option<NodeId>],
    facilities: &[NodeId],
) -> Vec<u32> {
    let mut refc = vec![0u32; spt_parent.len()];
    for &i in facilities {
        let mut v = i;
        while v != producer {
            refc[v.index()] += 1;
            v = spt_parent[v.index()].expect("facilities are reachable from the producer");
        }
    }
    refc
}

/// Greedy improving-removal over the scoped objective: drop a facility
/// whenever the fairness it frees plus the trunk edges only it holds
/// alive outweigh the access its clients lose. Passes repeat until no
/// removal improves; within a pass candidates are visited in
/// ascending-id order, so the outcome is deterministic.
///
/// The per-region option lists are maintained *incrementally* — a
/// removal deletes the facility from the regions whose demand ball
/// held it, so later candidates in the same pass see the post-removal
/// options without the `O(regions × facilities)` rebuild a restart
/// would cost. Total work is `O(passes × facilities)` candidate
/// evaluations, which is what lets the 100k-node plan finish.
#[allow(clippy::too_many_arguments)]
fn improve_by_scoped_removal(
    scoped: &ScopedContention,
    facility_cost: &[f64],
    producer: NodeId,
    weights: CostWeights,
    audience: &[NodeId],
    spt_parent: &[Option<NodeId>],
    current: &mut Vec<NodeId>,
    providers: &mut [NodeId],
    costs: &mut [f64],
) {
    if current.is_empty() {
        return;
    }
    let m_weight = weights.dissemination;
    let mut refc = trunk_refcounts(producer, spt_parent, current);
    let mut by_region = facilities_by_region(scoped, current);
    // Regions whose demand ball holds each facility (facility order =
    // `current` order, maintained across removals).
    let mut regions_of: Vec<Vec<u32>> = vec![Vec::new(); current.len()];
    for (r, options) in by_region.iter().enumerate() {
        for &i in options {
            let fi = current.binary_search(&i).expect("option is a facility");
            regions_of[fi].push(r as u32);
        }
    }
    // Clients per facility, as audience indices.
    let mut clients_of: Vec<Vec<u32>> = vec![Vec::new(); current.len()];
    for (jx, &p) in providers.iter().enumerate() {
        if p != producer {
            if let Ok(fi) = current.binary_search(&p) {
                clients_of[fi].push(jx as u32);
            }
        }
    }
    loop {
        let mut removed_any = false;
        let mut fi = 0usize;
        while fi < current.len() {
            let i = current[fi];
            // Trunk edges only `i` keeps alive.
            let mut freed_tree = 0.0f64;
            let mut v = i;
            while v != producer {
                if refc[v.index()] == 1 {
                    let parent = spt_parent[v.index()].expect("reachable");
                    freed_tree += scoped.edge_cost(v, parent);
                }
                v = spt_parent[v.index()].expect("reachable");
            }
            // Access its clients would lose, with `i` withdrawn.
            let mut lost_access = 0.0f64;
            let mut moves: Vec<(u32, NodeId, f64)> = Vec::new();
            for &jx in &clients_of[fi] {
                let j = audience[jx as usize];
                let options = &by_region[scoped.partition().region_of(j)];
                let (p, c) = best_provider(scoped, weights, producer, options, j, Some(i));
                lost_access += c - costs[jx as usize];
                moves.push((jx, p, c));
            }
            let delta = lost_access - facility_cost[i.index()] - m_weight * freed_tree;
            if delta < -1e-9 {
                // Apply: retire the trunk path, delist the facility from
                // its regions' option lists, reroute the clients.
                let mut v = i;
                while v != producer {
                    refc[v.index()] -= 1;
                    v = spt_parent[v.index()].expect("reachable");
                }
                for &r in &regions_of[fi] {
                    let options = &mut by_region[r as usize];
                    if let Ok(pos) = options.binary_search(&i) {
                        options.remove(pos);
                    }
                }
                for (jx, p, c) in moves {
                    providers[jx as usize] = p;
                    costs[jx as usize] = c;
                    if p != producer {
                        if let Ok(pi) = current.binary_search(&p) {
                            clients_of[pi].push(jx);
                        }
                    }
                }
                current.remove(fi);
                clients_of.remove(fi);
                regions_of.remove(fi);
                removed_any = true;
                // The element after `i` shifted into slot `fi`; scan on.
            } else {
                fi += 1;
            }
        }
        if !removed_any {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::ApproxPlanner;
    use crate::costs::ContentionMatrix;
    use crate::planner::plan_on_copy;
    use peercache_graph::builders;

    fn grid_net(side: usize, cap: usize) -> Network {
        Network::new(builders::grid(side, side), NodeId::new(side + 1), cap).unwrap()
    }

    fn small_cfg() -> ScopedConfig {
        ScopedConfig {
            region_max: 12,
            halo_hops: 2,
            landmarks: 4,
            seed: 7,
        }
    }

    #[test]
    fn scoped_cost_is_exact_within_the_halo_radius() {
        let net = grid_net(8, 4);
        let dense = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let mut exact_pairs = 0usize;
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                if scoped.is_exact(u, v) {
                    exact_pairs += 1;
                    assert_eq!(
                        scoped.cost(u, v).to_bits(),
                        dense.cost(u, v).to_bits(),
                        "exact pair ({u},{v}) diverged from the dense matrix"
                    );
                }
            }
        }
        assert!(exact_pairs > net.node_count() * 5, "halo too thin");
        // Every pair within the halo radius must be exact.
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                if dense.hops(u, v).is_some_and(|h| h <= 2) {
                    assert!(scoped.is_exact(u, v), "({u},{v}) within k not exact");
                }
            }
        }
    }

    #[test]
    fn scoped_cost_is_symmetric_and_finite_on_connected_graphs() {
        let net = grid_net(7, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                let a = scoped.cost(u, v);
                let b = scoped.cost(v, u);
                assert_eq!(a.to_bits(), b.to_bits(), "asymmetric ({u},{v})");
                assert!(a.is_finite());
            }
        }
    }

    #[test]
    fn update_matches_fresh_rebuild() {
        let mut net = grid_net(6, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        net.cache(NodeId::new(3), ChunkId::new(0)).unwrap();
        net.cache(NodeId::new(20), ChunkId::new(0)).unwrap();
        let dirty = [NodeId::new(3), NodeId::new(20), net.producer()];
        let rebuilt = scoped
            .update(&net, &dirty, Parallelism::Sequential)
            .unwrap();
        assert!(rebuilt > 0);
        let fresh = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(
                    scoped.cost(u, v).to_bits(),
                    fresh.cost(u, v).to_bits(),
                    "updated store diverged at ({u},{v})"
                );
            }
        }
    }

    #[test]
    fn update_with_no_changes_rebuilds_nothing() {
        let net = grid_net(5, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let rebuilt = scoped.update(&net, &[], Parallelism::Sequential).unwrap();
        assert_eq!(rebuilt, 0);
    }

    #[test]
    fn update_topology_matches_scratch_rebuild_of_retained_partition() {
        let mut net = grid_net(6, 4);
        let cfg = small_cfg();
        let mut scoped = ScopedContention::new(
            &net,
            cfg,
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        // One link down, one shortcut up, one corner departure — every
        // touched node's degree (hence term) changes, which is what the
        // invalidation rides on.
        let mut touched = vec![NodeId::new(0), NodeId::new(1)];
        assert!(net.remove_link(NodeId::new(0), NodeId::new(1)).unwrap());
        assert!(net.add_link(NodeId::new(2), NodeId::new(14)).unwrap());
        touched.extend([NodeId::new(2), NodeId::new(14)]);
        let dep = net.deactivate_node(NodeId::new(35)).unwrap();
        touched.push(NodeId::new(35));
        touched.extend(dep.former_neighbors);
        touched.push(net.producer());
        touched.sort_unstable();
        touched.dedup();
        let rebuilt = scoped
            .update_topology(&net, &touched, Parallelism::Sequential)
            .unwrap();
        assert!(rebuilt > 0, "topology churn must invalidate blocks");
        // Every block must now equal a from-scratch build over the
        // *retained* partition, bitwise.
        let terms = node_contention_terms(&net);
        let all: Vec<usize> = (0..scoped.partition().region_count()).collect();
        let fresh = build_blocks(
            &net,
            scoped.partition(),
            &terms,
            cfg.halo_hops,
            PathSelection::FewestHops,
            Parallelism::Sequential,
            &all,
        )
        .unwrap();
        for (r, b) in fresh {
            assert_eq!(scoped.blocks[r].cols, b.cols, "block {r} cols drifted");
            assert_eq!(scoped.blocks[r].hops, b.hops, "block {r} hops drifted");
            assert!(
                scoped.blocks[r]
                    .cost
                    .iter()
                    .zip(&b.cost)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "block {r} costs drifted"
            );
        }
        // A grown graph cannot be absorbed: the partition has no region
        // for the newcomer, so the call must refuse and demand a rebuild.
        net.join_node(&[NodeId::new(2)], 3).unwrap();
        assert!(matches!(
            scoped.update_topology(&net, &[], Parallelism::Sequential),
            Err(CoreError::InvalidParameter(_))
        ));
    }

    /// Asserts two stores hold bitwise-identical terms, blocks and
    /// answers (the answers cover the landmark oracle's estimates).
    fn assert_same_store(a: &ScopedContention, b: &ScopedContention, net: &Network, at: &str) {
        assert!(
            a.terms
                .iter()
                .zip(&b.terms)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{at}: terms differ"
        );
        for (r, (x, y)) in a.blocks.iter().zip(&b.blocks).enumerate() {
            assert_eq!(x.cols, y.cols, "{at}: block {r} cols differ");
            assert_eq!(x.hops, y.hops, "{at}: block {r} hops differ");
            assert!(
                x.cost
                    .iter()
                    .zip(&y.cost)
                    .all(|(p, q)| p.to_bits() == q.to_bits()),
                "{at}: block {r} costs differ"
            );
        }
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(
                    a.cost(u, v).to_bits(),
                    b.cost(u, v).to_bits(),
                    "{at}: cost ({u},{v}) differs"
                );
            }
        }
    }

    #[test]
    fn deferred_marks_settle_to_the_eager_store() {
        for par in [Parallelism::Sequential, Parallelism::Threads(2)] {
            let mut net = grid_net(7, 3);
            let mk = || {
                ScopedContention::new(&net, small_cfg(), PathSelection::FewestHops, par).unwrap()
            };
            let (mut eager, mut deferred) = (mk(), mk());
            let mut rng = 0x9E37_79B9_7F4A_7C15u64;
            let mut below = |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let n = net.node_count();
            let mut settles = 0usize;
            for step in 0..80 {
                let (mut touched, mut edited) = (Vec::new(), Vec::new());
                match below(4) {
                    0 => {
                        let (i, q) = (NodeId::new(below(n)), ChunkId::new(below(4)));
                        if net.remaining(i) > 0 && !net.is_cached(i, q) {
                            net.cache(i, q).unwrap();
                            touched.push(i);
                        }
                    }
                    1 => {
                        let (i, q) = (NodeId::new(below(n)), ChunkId::new(below(4)));
                        if net.uncache(i, q) {
                            touched.push(i);
                        }
                    }
                    2 => {
                        // A degree-preserving swap: (a,b),(c,d) become
                        // (a,c),(b,d) — every term stays put.
                        let edges: Vec<(NodeId, NodeId)> = net.graph().edges().collect();
                        let (a, b) = edges[below(edges.len())];
                        let (c, d) = edges[below(edges.len())];
                        let distinct = [a, b, c, d]
                            .iter()
                            .all(|x| [a, b, c, d].iter().filter(|y| *y == x).count() == 1);
                        if distinct
                            && !net.graph().contains_edge(a, c)
                            && !net.graph().contains_edge(b, d)
                        {
                            net.remove_link(a, b).unwrap();
                            net.remove_link(c, d).unwrap();
                            net.add_link(a, c).unwrap();
                            net.add_link(b, d).unwrap();
                            edited.extend([a, b, c, d]);
                        }
                    }
                    _ => {
                        let (u, v) = (NodeId::new(below(n)), NodeId::new(below(n)));
                        let flipped = if net.graph().contains_edge(u, v) {
                            net.remove_link(u, v).unwrap()
                        } else {
                            u != v && net.add_link(u, v).unwrap()
                        };
                        if flipped {
                            edited.extend([u, v]);
                        }
                    }
                }
                touched.extend_from_slice(&edited);
                touched.push(net.producer());
                eager.update_topology(&net, &touched, par).unwrap();
                deferred.mark(&net, &touched, &edited).unwrap();
                if below(3) == 0 {
                    deferred.settle(&net, par).unwrap();
                    settles += 1;
                    assert_same_store(&eager, &deferred, &net, &format!("{par:?} step {step}"));
                }
            }
            deferred.settle(&net, par).unwrap();
            assert_same_store(&eager, &deferred, &net, &format!("{par:?} end"));
            assert!(settles > 10, "trace settled too rarely");
            // The settled store also equals a from-scratch build of the
            // retained partition.
            let all: Vec<usize> = (0..deferred.partition().region_count()).collect();
            let fresh = build_blocks(
                &net,
                deferred.partition(),
                &node_contention_terms(&net),
                small_cfg().halo_hops,
                PathSelection::FewestHops,
                Parallelism::Sequential,
                &all,
            )
            .unwrap();
            for (r, b) in fresh {
                assert_eq!(
                    deferred.blocks[r].hops, b.hops,
                    "{par:?}: block {r} vs fresh"
                );
            }
        }
    }

    #[test]
    fn degree_preserving_swap_rebuilds_the_blocks_it_rewires() {
        let mut net = grid_net(6, 4);
        let mut scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let id = NodeId::new;
        net.remove_link(id(7), id(8)).unwrap();
        net.remove_link(id(19), id(20)).unwrap();
        net.add_link(id(7), id(19)).unwrap();
        net.add_link(id(8), id(20)).unwrap();
        let touched = [id(7), id(8), id(19), id(20)];
        let rebuilt = scoped
            .update_topology(&net, &touched, Parallelism::Sequential)
            .unwrap();
        assert!(
            rebuilt > 0,
            "the swap must invalidate the blocks it rewires"
        );
        let dense = ContentionMatrix::compute(&net, PathSelection::FewestHops).unwrap();
        assert_eq!(dense.hops(id(7), id(8)), Some(3));
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                if scoped.is_exact(u, v) {
                    assert_eq!(
                        scoped.cost(u, v).to_bits(),
                        dense.cost(u, v).to_bits(),
                        "exact pair ({u},{v}) is stale after the swap"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let net = grid_net(8, 4);
        let seq = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let par = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Threads(4),
        )
        .unwrap();
        for u in net.graph().nodes() {
            for v in net.graph().nodes() {
                assert_eq!(seq.cost(u, v).to_bits(), par.cost(u, v).to_bits());
            }
        }
    }

    #[test]
    fn state_stays_far_below_dense_equivalent() {
        let net = grid_net(20, 4); // 400 nodes
        let scoped = ScopedContention::new(
            &net,
            ScopedConfig {
                region_max: 32,
                ..ScopedConfig::default()
            },
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let dense = ScopedContention::dense_equivalent_bytes(net.node_count());
        assert!(
            scoped.contention_bytes() * 4 < dense,
            "scoped state {} not well below dense {}",
            scoped.contention_bytes(),
            dense
        );
    }

    #[test]
    fn region_view_restricts_candidates_to_the_region() {
        let net = grid_net(6, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let fc = ConflInstance::facility_costs(&net, CostWeights::default());
        let view = RegionView::new(
            &scoped,
            &fc,
            net.producer(),
            CostWeights::default(),
            0,
            scoped.partition().region(0).to_vec(),
        );
        for c in view.candidates() {
            assert_eq!(scoped.partition().region_of(c), 0);
            assert_ne!(c, net.producer());
        }
        assert_eq!(view.node_count(), net.node_count());
    }

    #[test]
    fn hierarchical_planner_places_all_chunks_respecting_capacity() {
        let mut net = grid_net(8, 3);
        let planner = HierarchicalPlanner::new(ApproxConfig::default(), small_cfg());
        let placement = planner.plan(&mut net, 3).unwrap();
        assert_eq!(placement.chunks().len(), 3);
        for n in net.graph().nodes() {
            assert!(net.used(n) <= net.capacity(n));
        }
        for cp in placement.chunks() {
            for &c in &cp.caches {
                assert!(net.is_cached(c, cp.chunk));
            }
            assert_eq!(cp.assignment.len(), net.node_count() - 1);
            assert!(cp.costs.total().is_finite());
        }
    }

    #[test]
    fn hierarchical_planner_is_deterministic_across_runs_and_threads() {
        let net = grid_net(8, 3);
        let mk = |par| {
            let planner = HierarchicalPlanner::new(
                ApproxConfig {
                    parallelism: par,
                    ..Default::default()
                },
                small_cfg(),
            );
            plan_on_copy(&planner, &net, 3).unwrap().0
        };
        let a = mk(Parallelism::Sequential);
        let b = mk(Parallelism::Threads(4));
        assert_eq!(a.chunks().len(), b.chunks().len());
        for (x, y) in a.chunks().iter().zip(b.chunks()) {
            assert_eq!(x.caches, y.caches);
            assert_eq!(x.assignment, y.assignment);
            assert_eq!(x.tree_edges, y.tree_edges);
            assert_eq!(x.costs.total().to_bits(), y.costs.total().to_bits());
        }
    }

    #[test]
    fn hierarchical_plan_stays_near_the_dense_appx_plan() {
        // The quality gate in miniature (the full seeded suite lives in
        // tests/scale_planner.rs): on a 10x10 grid with forced
        // multi-region decomposition the hierarchical total must stay
        // within 10% of the exact-matrix Appx total.
        let net = grid_net(10, 4);
        let (dense, _) = plan_on_copy(&ApproxPlanner::default(), &net, 4).unwrap();
        let planner = HierarchicalPlanner::new(
            ApproxConfig::default(),
            ScopedConfig {
                region_max: 32,
                ..ScopedConfig::default()
            },
        );
        let (hier, _) = plan_on_copy(&planner, &net, 4).unwrap();
        let dense_total: f64 = dense.chunks().iter().map(|c| c.costs.total()).sum();
        let hier_total: f64 = hier.chunks().iter().map(|c| c.costs.total()).sum();
        assert!(
            hier_total <= dense_total * 1.10,
            "hierarchical total {hier_total} exceeds 1.10x dense {dense_total}"
        );
    }

    #[test]
    fn trunk_tree_connects_every_facility_to_the_producer() {
        let net = grid_net(6, 4);
        let scoped = ScopedContention::new(
            &net,
            small_cfg(),
            PathSelection::FewestHops,
            Parallelism::Sequential,
        )
        .unwrap();
        let producer = net.producer();
        let (_, parent) =
            dijkstra_edge_weighted(net.graph(), producer, |u, v| scoped.edge_cost(u, v));
        let facilities = [NodeId::new(0), NodeId::new(35), NodeId::new(17)];
        let (edges, cost) = trunk_tree(&scoped, producer, &parent, &facilities);
        assert!(cost > 0.0);
        // Union-find over the reported edges: every facility must reach
        // the producer.
        let n = net.node_count();
        let mut root: Vec<usize> = (0..n).collect();
        fn find(root: &mut [usize], x: usize) -> usize {
            let mut x = x;
            while root[x] != x {
                root[x] = root[root[x]];
                x = root[x];
            }
            x
        }
        for &(a, b) in &edges {
            let (ra, rb) = (find(&mut root, a.index()), find(&mut root, b.index()));
            root[ra] = rb;
        }
        let rp = find(&mut root, producer.index());
        for &f in &facilities {
            assert_eq!(find(&mut root, f.index()), rp, "{f} disconnected");
        }
    }
}
