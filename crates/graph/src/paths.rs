//! Shortest-path machinery.
//!
//! The paper's Path Contention Cost (Eq. 2) sums **node** costs
//! `w_k (1 + S(k))` along the shortest path between two nodes, so unlike
//! textbook shortest paths the metric here is node-weighted. This module
//! provides:
//!
//! * [`bfs_hops`] — plain hop distances (the Hop-Count baseline metric),
//! * [`k_hop_neighborhood`] — the scope of the distributed algorithm's
//!   local messages,
//! * [`AllPairsPaths`] — all-pairs node-weighted shortest paths with path
//!   reconstruction, under either hop-first or cost-first selection,
//!   computable sequentially or with a scoped-thread fan-out
//!   ([`Parallelism`]) and incrementally updatable when node costs
//!   change ([`AllPairsPaths::update`]),
//! * [`source_rows`] — the closed cost and hop rows of a listed set of
//!   sources only, for callers that keep a few rows of a subgraph
//!   (the scoped contention blocks) and would throw the rest of an
//!   all-pairs computation away.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use peercache_obs as obs;

use crate::{Csr, Graph, GraphError, NodeId};

/// How ties between candidate paths are resolved.
///
/// The paper routes packets along the *hop-shortest* path and then sums
/// contention costs along it ([`PathSelection::FewestHops`], the
/// default). Selecting the *cheapest* path under the node-cost metric
/// ([`PathSelection::MinCost`]) is a natural ablation: it can only lower
/// path costs, at the price of longer routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PathSelection {
    /// Prefer fewer hops; break ties by lower total node cost.
    #[default]
    FewestHops,
    /// Prefer lower total node cost; break ties by fewer hops.
    MinCost,
}

/// How many OS threads a per-source shortest-path fan-out may use.
///
/// Every per-source Dijkstra is independent and deterministic, so the
/// result is **byte-identical** for every variant — parallelism is purely
/// a wall-clock knob and can be flipped freely without perturbing
/// placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One thread per available core, capped at the number of sources.
    #[default]
    Auto,
    /// Single-threaded; never spawns (the right choice for small
    /// graphs, where spawn overhead dwarfs the work).
    Sequential,
    /// Exactly this many threads (clamped to at least 1 and at most the
    /// number of sources).
    Threads(usize),
}

impl Parallelism {
    /// Resolves the thread count for `work` independent items.
    pub fn threads(self, work: usize) -> usize {
        let raw = match self {
            Parallelism::Sequential => 1,
            Parallelism::Auto => std::thread::available_parallelism().map_or(1, usize::from),
            Parallelism::Threads(t) => t.max(1),
        };
        raw.min(work).max(1)
    }

    /// Maps `task` over `items` on up to [`Parallelism::threads`] scoped
    /// threads: results land in pre-indexed slots, so the output is in
    /// item order however the threads are scheduled. Every task runs
    /// under [`obs::with_quiet`] — on the calling thread too — so the
    /// trace and its span counts are the same for every setting. `task`
    /// must be a pure function of frozen state.
    pub fn fan_out<T: Sync, R: Send>(self, items: &[T], task: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let threads = self.threads(items.len());
        if threads <= 1 {
            return items
                .iter()
                .map(|item| obs::with_quiet(|| task(item)))
                .collect();
        }
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let per = items.len().div_ceil(threads);
        std::thread::scope(|s| {
            for (chunk, part) in slots.chunks_mut(per).zip(items.chunks(per)) {
                let task = &task;
                s.spawn(move || {
                    for (slot, item) in chunk.iter_mut().zip(part) {
                        *slot = Some(obs::with_quiet(|| task(item)));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every fan-out slot is filled"))
            .collect()
    }
}

/// Hop distances from `src` to every node (`None` when unreachable).
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::path(4);
/// let hops = paths::bfs_hops(&g, NodeId::new(0));
/// assert_eq!(hops[3], Some(3));
/// ```
pub fn bfs_hops(g: &Graph, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; g.node_count()];
    dist[src.index()] = Some(0);
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Nodes within `k` hops of `src`, excluding `src` itself, sorted by id.
///
/// This is the reach of the distributed algorithm's local control
/// messages (the paper limits CC/TIGHT/SPAN/FREEZE exchanges to a k-hop
/// range, with k = 2 by default). The BFS is depth-bounded: expansion
/// stops at depth `k`, so the cost is proportional to the ball actually
/// returned, not to the whole graph — the distributed engine calls this
/// once per node per round.
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::grid(3, 3);
/// // Center of the 3x3 grid reaches everything within 2 hops.
/// let reach = paths::k_hop_neighborhood(&g, NodeId::new(4), 2);
/// assert_eq!(reach.len(), 8);
/// ```
pub fn k_hop_neighborhood(g: &Graph, src: NodeId, k: u32) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    if k == 0 {
        assert!(
            src.index() < g.node_count(),
            "source {src} out of bounds for {} nodes",
            g.node_count()
        );
        return out;
    }
    let mut seen = vec![false; g.node_count()];
    seen[src.index()] = true;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back((src, 0u32));
    while let Some((u, depth)) = queue.pop_front() {
        if depth == k {
            // Nodes at the boundary are in the ball but not expanded.
            continue;
        }
        for v in g.neighbors(u) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                out.push(v);
                queue.push_back((v, depth + 1));
            }
        }
    }
    out.sort_unstable();
    out
}

/// All-pairs node-weighted shortest paths with path reconstruction.
///
/// The cost of a (non-trivial) path is the sum of `node_cost` over
/// **every node on the path, endpoints included** — matching the paper's
/// reading of Eq. 2 where both the sender and the receiver contend for
/// the medium. The trivial path from a node to itself has cost 0 (a node
/// reading its own cache transmits nothing).
///
/// Paths are deterministic: among equal candidates the lexicographically
/// smallest parent is chosen.
///
/// Internally the structure stores, per pair, the **interior** cost —
/// the path sum excluding both endpoints — and adds the endpoint terms
/// at query time. Because all candidate paths between a fixed pair share
/// their endpoints, routing depends only on interior costs; this split
/// is what makes [`AllPairsPaths::update`] sound: an endpoint-only cost
/// change never invalidates a stored row.
#[derive(Debug, Clone)]
pub struct AllPairsPaths {
    n: usize,
    selection: PathSelection,
    node_cost: Vec<f64>,
    /// Per-pair interior path cost (`f64::INFINITY` when unreachable).
    interior: Vec<f64>,
    hops: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    /// Per-source bitset of nodes appearing as an *interior* node on
    /// some selected path (i.e. non-source parents in the SP tree);
    /// `words_per_row` words per source.
    interior_mask: Vec<u64>,
}

const UNREACHABLE_HOPS: u32 = u32::MAX;

/// Per-source scratch buffers reused across Dijkstra runs.
struct Scratch {
    heap: BinaryHeap<Reverse<(Key, usize)>>,
    settled: Vec<bool>,
    queue: Vec<u32>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            heap: BinaryHeap::new(),
            settled: vec![false; n],
            queue: Vec::with_capacity(n),
        }
    }
}

impl AllPairsPaths {
    /// Computes all-pairs shortest paths under the node-cost metric,
    /// single-threaded.
    ///
    /// Runs one deterministic Dijkstra per source with the lexicographic
    /// key implied by `selection`; `O(N (N + E) log N)` total. Equivalent
    /// to [`AllPairsPaths::compute_with`] under
    /// [`Parallelism::Sequential`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than the node count.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::{builders, paths::{AllPairsPaths, PathSelection}, NodeId};
    ///
    /// let g = builders::path(3);
    /// let costs = vec![1.0, 5.0, 1.0];
    /// let ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops)?;
    /// // 0 -> 2 passes through the expensive middle node: 1 + 5 + 1.
    /// assert_eq!(ap.cost(NodeId::new(0), NodeId::new(2)), 7.0);
    /// assert_eq!(ap.cost(NodeId::new(1), NodeId::new(1)), 0.0);
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn compute(
        g: &Graph,
        node_cost: &[f64],
        selection: PathSelection,
    ) -> Result<Self, GraphError> {
        AllPairsPaths::compute_with(g, node_cost, selection, Parallelism::Sequential)
    }

    /// Computes all-pairs shortest paths with a configurable per-source
    /// fan-out over scoped threads.
    ///
    /// Sources are split into contiguous row blocks, one per thread;
    /// every per-source Dijkstra is independent, so the result is
    /// byte-identical to the sequential computation for any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than the node count.
    pub fn compute_with(
        g: &Graph,
        node_cost: &[f64],
        selection: PathSelection,
        parallelism: Parallelism,
    ) -> Result<Self, GraphError> {
        let n = g.node_count();
        if node_cost.len() < n {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count: n,
            });
        }
        let words = words_per_row(n);
        let mut ap = AllPairsPaths {
            n,
            selection,
            node_cost: node_cost[..n].to_vec(),
            interior: vec![f64::INFINITY; n * n],
            hops: vec![UNREACHABLE_HOPS; n * n],
            parent: vec![None; n * n],
            interior_mask: vec![0u64; n * words],
        };
        if n == 0 {
            return Ok(ap);
        }
        let csr = Csr::from_graph(g);
        let threads = parallelism.threads(n);
        let mut span = obs::span!("apsp.compute", sources = n, threads = threads);
        if threads <= 1 {
            let mut scratch = Scratch::new(n);
            for src in 0..n {
                let (ic, hc, pc, mc) = ap.row_mut(src, words);
                single_source(
                    &csr,
                    node_cost,
                    src,
                    selection,
                    ic,
                    hc,
                    pc,
                    mc,
                    &mut scratch,
                );
            }
        } else {
            let rows_per = n.div_ceil(threads);
            std::thread::scope(|s| {
                let chunks = ap
                    .interior
                    .chunks_mut(rows_per * n)
                    .zip(ap.hops.chunks_mut(rows_per * n))
                    .zip(ap.parent.chunks_mut(rows_per * n))
                    .zip(ap.interior_mask.chunks_mut(rows_per * words));
                for (block, (((ints, hops), parents), masks)) in chunks.enumerate() {
                    let csr = &csr;
                    s.spawn(move || {
                        let n = csr.node_count();
                        let mut scratch = Scratch::new(n);
                        for (row, (((ic, hc), pc), mc)) in ints
                            .chunks_mut(n)
                            .zip(hops.chunks_mut(n))
                            .zip(parents.chunks_mut(n))
                            .zip(masks.chunks_mut(words))
                            .enumerate()
                        {
                            let src = block * rows_per + row;
                            single_source(
                                csr,
                                node_cost,
                                src,
                                selection,
                                ic,
                                hc,
                                pc,
                                mc,
                                &mut scratch,
                            );
                        }
                    });
                }
            });
        }
        if span.is_recording() {
            span.add_field("recomputed_sources", obs::Value::from(n));
        }
        Ok(ap)
    }

    /// Incrementally refreshes the structure after the node costs
    /// changed, recomputing only the sources whose selected paths route
    /// *through* a changed node.
    ///
    /// The invalidation rule: a stored row stays valid when every
    /// changed node appears on that source's selected paths only as an
    /// **endpoint** — endpoint terms are added at query time, so the
    /// stored interior costs, hop counts, and parents are untouched.
    /// When a changed node is interior to some selected path, the row is
    /// re-run from scratch. If any node cost *decreased*, previously
    /// unattractive routes may win anywhere, so every row is recomputed
    /// (the caching planners only ever raise `S(k)`, keeping the fast
    /// path; the conservative fallback covers eviction workloads).
    ///
    /// `g` must be the same graph the structure was computed on.
    ///
    /// Returns the number of sources recomputed. The result is
    /// byte-identical to a fresh [`AllPairsPaths::compute_with`] on the
    /// new costs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than the node count or `g` has a different node count.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::paths::{AllPairsPaths, Parallelism, PathSelection};
    /// use peercache_graph::{builders, NodeId};
    ///
    /// let g = builders::path(4);
    /// let mut costs = vec![1.0; 4];
    /// let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops)?;
    /// costs[3] = 5.0; // a leaf: never interior to any path
    /// let redone = ap.update(&g, &costs, Parallelism::Sequential)?;
    /// assert_eq!(redone, 0); // no row re-ran; queries still see the new cost
    /// assert_eq!(ap.cost(NodeId::new(0), NodeId::new(3)), 8.0);
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn update(
        &mut self,
        g: &Graph,
        node_cost: &[f64],
        parallelism: Parallelism,
    ) -> Result<usize, GraphError> {
        let n = self.n;
        if node_cost.len() < n || g.node_count() != n {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len().min(g.node_count())),
                node_count: n,
            });
        }
        let words = words_per_row(n);
        let mut dirty_words = vec![0u64; words];
        let mut dirty = 0usize;
        let mut decreased = false;
        for k in 0..n {
            if node_cost[k] != self.node_cost[k] {
                dirty_words[k / 64] |= 1u64 << (k % 64);
                dirty += 1;
                decreased |= node_cost[k] < self.node_cost[k];
            }
        }
        if dirty == 0 {
            return Ok(0);
        }
        let rows: Vec<usize> = (0..n)
            .filter(|&src| {
                decreased
                    || self.interior_mask[src * words..(src + 1) * words]
                        .iter()
                        .zip(&dirty_words)
                        .any(|(m, d)| m & d != 0)
            })
            .collect();
        self.node_cost.copy_from_slice(&node_cost[..n]);
        let csr = Csr::from_graph(g);
        let threads = parallelism.threads(rows.len());
        let mut span = obs::span!(
            "apsp.update",
            sources = n,
            dirty_nodes = dirty,
            threads = threads,
        );
        self.recompute_rows(&csr, node_cost, &rows, parallelism);
        if span.is_recording() {
            span.add_field("recomputed_sources", obs::Value::from(rows.len()));
        }
        Ok(rows.len())
    }

    /// Incrementally refreshes the structure after **structural** edits —
    /// edges removed or added, possibly combined with node-cost changes —
    /// recomputing only the rows the edit can actually affect.
    ///
    /// `g` must be the graph *after* the edit; `removed_edges` /
    /// `added_edges` list the net difference from the graph the structure
    /// was last computed on (an edge must not appear in both lists). The
    /// per-row invalidation rules:
    ///
    /// * **Removed edge `(u, v)`** — removal only prunes candidate
    ///   paths, so a row stays valid (and optimal) unless its stored
    ///   shortest-path tree actually uses the edge (`parent[v] == u` or
    ///   `parent[u] == v`).
    /// * **Added edge `(u, v)`**, hop-first selection — a row is
    ///   unaffected when both endpoints sit at *equal* hop depth from the
    ///   source (including both unreachable): an intra-layer edge is
    ///   never part of a hop-shortest path and is never considered by the
    ///   layer DP. Cost-first selection falls back to "dirty when either
    ///   endpoint is reachable". More than one added edge per call falls
    ///   back to a full recompute (per-edge tests against stale hop
    ///   labels are unsound when additions compound).
    /// * **Node-cost changes** are folded in. Increases use the interior
    ///   bitset exactly like [`AllPairsPaths::update`]. A *decrease* at a
    ///   connected node `k` under hop-first selection dirties only the
    ///   rows for which `k` lies on some hop-shortest path — `k`
    ///   reachable with a neighbor one BFS layer further out — which
    ///   keeps departures (where surviving neighbors' degree terms drop)
    ///   incremental. A decrease at an *isolated* node is ignored: it
    ///   cannot be, or become, interior to any path. Cost-first
    ///   selection with any decrease falls back to recomputing every
    ///   remaining row.
    /// * A **node-count change** rebuilds the whole structure.
    ///
    /// Returns the number of rows recomputed; the result is
    /// byte-identical to a fresh [`AllPairsPaths::compute_with`] on the
    /// new graph and costs.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
    /// than `g`'s node count or an edit mentions an unknown node.
    ///
    /// # Example
    ///
    /// ```
    /// use peercache_graph::paths::{AllPairsPaths, Parallelism, PathSelection};
    /// use peercache_graph::{builders, NodeId};
    ///
    /// let mut g = builders::grid(3, 3);
    /// let costs = vec![1.0; 9];
    /// let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops)?;
    /// let (u, v) = (NodeId::new(4), NodeId::new(5));
    /// g.remove_edge(u, v)?;
    /// let redone = ap.update_topology(&g, &costs, &[(u, v)], &[], Parallelism::Sequential)?;
    /// assert!(redone < 9); // only rows whose tree used (4, 5)
    /// assert_eq!(ap.hops(u, v), Some(3)); // rerouted around the gap
    /// # Ok::<(), peercache_graph::GraphError>(())
    /// ```
    pub fn update_topology(
        &mut self,
        g: &Graph,
        node_cost: &[f64],
        removed_edges: &[(NodeId, NodeId)],
        added_edges: &[(NodeId, NodeId)],
        parallelism: Parallelism,
    ) -> Result<usize, GraphError> {
        if node_cost.len() < g.node_count() {
            return Err(GraphError::NodeOutOfBounds {
                node: NodeId::new(node_cost.len()),
                node_count: g.node_count(),
            });
        }
        for &(u, v) in removed_edges.iter().chain(added_edges) {
            for e in [u, v] {
                if e.index() >= g.node_count() {
                    return Err(GraphError::NodeOutOfBounds {
                        node: e,
                        node_count: g.node_count(),
                    });
                }
            }
        }
        if g.node_count() != self.n || added_edges.len() > 1 {
            *self = AllPairsPaths::compute_with(g, node_cost, self.selection, parallelism)?;
            return Ok(self.n);
        }
        let n = self.n;
        if n == 0 {
            return Ok(0);
        }
        debug_assert!(
            removed_edges.iter().all(|&(u, v)| !g.contains_edge(u, v)),
            "removed_edges must already be absent from the post-edit graph"
        );
        debug_assert!(
            added_edges.iter().all(|&(u, v)| g.contains_edge(u, v)),
            "added_edges must be present in the post-edit graph"
        );
        let words = words_per_row(n);

        // Structurally dirty rows, judged against the stored (pre-edit)
        // trees and hop labels.
        let mut dirty = vec![false; n];
        for (src, flag) in dirty.iter_mut().enumerate() {
            let base = src * n;
            let row_parent = &self.parent[base..base + n];
            let row_hops = &self.hops[base..base + n];
            *flag = removed_edges.iter().any(|&(u, v)| {
                row_parent[v.index()] == Some(u) || row_parent[u.index()] == Some(v)
            }) || added_edges.first().is_some_and(|&(u, v)| {
                let (hu, hv) = (row_hops[u.index()], row_hops[v.index()]);
                match self.selection {
                    PathSelection::FewestHops => hu != hv,
                    PathSelection::MinCost => hu != UNREACHABLE_HOPS || hv != UNREACHABLE_HOPS,
                }
            });
        }
        let structural: Vec<usize> = (0..n).filter(|&src| dirty[src]).collect();
        let csr = Csr::from_graph(g);
        let mut span = obs::span!(
            "apsp.update_topology",
            sources = n,
            removed = removed_edges.len(),
            added = added_edges.len(),
        );
        self.recompute_rows(&csr, node_cost, &structural, parallelism);

        // Fold node-cost changes into the rows the edit left untouched
        // (structurally dirty rows were recomputed with the new costs).
        let mut dirty_words = vec![0u64; words];
        let mut cost_changed = false;
        let mut decreased: Vec<usize> = Vec::new();
        for k in 0..n {
            if node_cost[k] != self.node_cost[k] {
                cost_changed = true;
                dirty_words[k / 64] |= 1u64 << (k % 64);
                if node_cost[k] < self.node_cost[k] && g.degree(NodeId::new(k)) > 0 {
                    decreased.push(k);
                }
            }
        }
        self.node_cost[..n].copy_from_slice(&node_cost[..n]);
        let mut cost_rows: Vec<usize> = Vec::new();
        if cost_changed {
            let mincost_fallback =
                !decreased.is_empty() && self.selection == PathSelection::MinCost;
            for (src, &row_dirty) in dirty.iter().enumerate() {
                if row_dirty {
                    continue;
                }
                let needs = mincost_fallback
                    || self.interior_mask[src * words..(src + 1) * words]
                        .iter()
                        .zip(&dirty_words)
                        .any(|(m, d)| m & d != 0)
                    || decreased.iter().any(|&k| {
                        // The source's own cost never enters its row
                        // (it steps at cost 0), so skip k == src.
                        let hk = self.hops[src * n + k];
                        k != src
                            && hk != UNREACHABLE_HOPS
                            && csr
                                .neighbors(k)
                                .iter()
                                .any(|&x| self.hops[src * n + x as usize] == hk + 1)
                    });
                if needs {
                    cost_rows.push(src);
                }
            }
            self.recompute_rows(&csr, node_cost, &cost_rows, parallelism);
        }
        let total = structural.len() + cost_rows.len();
        if span.is_recording() {
            span.add_field("recomputed_sources", obs::Value::from(total));
        }
        Ok(total)
    }

    /// Re-runs [`single_source`] for the given rows against `csr`,
    /// sequentially in place or fanned out over
    /// [`Parallelism::fan_out`]. Byte-identical for any thread count.
    fn recompute_rows(
        &mut self,
        csr: &Csr,
        node_cost: &[f64],
        rows: &[usize],
        parallelism: Parallelism,
    ) {
        if rows.is_empty() {
            return;
        }
        let n = self.n;
        let words = words_per_row(n);
        let selection = self.selection;
        let threads = parallelism.threads(rows.len());
        if threads <= 1 {
            let mut scratch = Scratch::new(n);
            for &src in rows {
                let (ic, hc, pc, mc) = self.row_mut(src, words);
                single_source(csr, node_cost, src, selection, ic, hc, pc, mc, &mut scratch);
            }
        } else {
            // Dirty rows are scattered, so each task fills owned row
            // buffers for one run of rows (reusing one `Scratch`), and
            // the buffers are scattered back on the calling thread.
            let runs: Vec<&[usize]> = rows.chunks(rows.len().div_ceil(threads)).collect();
            let results = parallelism.fan_out(&runs, |run| {
                let mut scratch = Scratch::new(n);
                run.iter()
                    .map(|&src| {
                        let mut buf = RowBuf::new(n, words);
                        single_source(
                            csr,
                            node_cost,
                            src,
                            selection,
                            &mut buf.interior,
                            &mut buf.hops,
                            &mut buf.parent,
                            &mut buf.mask,
                            &mut scratch,
                        );
                        (src, buf)
                    })
                    .collect::<Vec<_>>()
            });
            for (src, buf) in results.into_iter().flatten() {
                let (ic, hc, pc, mc) = self.row_mut(src, words);
                ic.copy_from_slice(&buf.interior);
                hc.copy_from_slice(&buf.hops);
                pc.copy_from_slice(&buf.parent);
                mc.copy_from_slice(&buf.mask);
            }
        }
    }

    /// Disjoint mutable views of one source's row.
    #[allow(clippy::type_complexity)]
    fn row_mut(
        &mut self,
        src: usize,
        words: usize,
    ) -> (&mut [f64], &mut [u32], &mut [Option<NodeId>], &mut [u64]) {
        let base = src * self.n;
        (
            &mut self.interior[base..base + self.n],
            &mut self.hops[base..base + self.n],
            &mut self.parent[base..base + self.n],
            &mut self.interior_mask[src * words..(src + 1) * words],
        )
    }

    /// Number of nodes the structure was computed for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Cost of the selected path from `u` to `v` (`f64::INFINITY` when
    /// unreachable, `0.0` on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn cost(&self, u: NodeId, v: NodeId) -> f64 {
        if u == v {
            return 0.0;
        }
        let idx = u.index() * self.n + v.index();
        closed_cost(
            self.interior[idx],
            self.hops[idx],
            self.node_cost[u.index()],
            self.node_cost[v.index()],
        )
    }

    /// Hop length of the selected path (`None` when unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn hops(&self, u: NodeId, v: NodeId) -> Option<u32> {
        match self.hops[u.index() * self.n + v.index()] {
            UNREACHABLE_HOPS => None,
            h => Some(h),
        }
    }

    /// Reconstructs the selected path from `u` to `v`, endpoints
    /// included (`None` when unreachable). `path(u, u)` is `[u]`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of bounds.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.hops(u, v)?;
        let mut rev = vec![v];
        let mut cur = v;
        while cur != u {
            cur = self.parent[u.index() * self.n + cur.index()]
                .expect("reachable nodes have parents");
            rev.push(cur);
        }
        rev.reverse();
        Some(rev)
    }
}

/// Closed cost and hop rows for a listed set of sources; see
/// [`source_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct SourceRows {
    /// `sources × n` closed path costs, row-major, `n` the graph's
    /// node count — exactly [`AllPairsPaths::cost`] for the same pairs:
    /// `0.0` on the diagonal, `f64::INFINITY` when unreachable.
    pub cost: Vec<f64>,
    /// Hop counts of the selected paths, same shape; `u32::MAX` when
    /// unreachable.
    pub hops: Vec<u32>,
}

/// Computes only the rows of the listed `sources`: the same
/// deterministic per-source Dijkstra [`AllPairsPaths::compute_with`]
/// runs, closed with the same endpoint terms, so every entry is
/// bit-identical to the matching [`AllPairsPaths::cost`] /
/// [`AllPairsPaths::hops`] value. Costs `O(S (N + E) log N)` time and
/// `O(S·N)` state for `S` sources instead of the full `N²` interior,
/// hop, parent and mask arrays.
///
/// # Errors
///
/// Returns [`GraphError::NodeOutOfBounds`] if `node_cost` is shorter
/// than the node count or a source is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths::{source_rows, PathSelection}, NodeId};
///
/// let g = builders::path(3);
/// let rows = source_rows(&g, &[1.0, 5.0, 1.0], PathSelection::FewestHops, &[NodeId::new(0)])?;
/// assert_eq!(rows.cost, vec![0.0, 6.0, 7.0]);
/// assert_eq!(rows.hops, vec![0, 1, 2]);
/// # Ok::<(), peercache_graph::GraphError>(())
/// ```
pub fn source_rows(
    g: &Graph,
    node_cost: &[f64],
    selection: PathSelection,
    sources: &[NodeId],
) -> Result<SourceRows, GraphError> {
    let n = g.node_count();
    if node_cost.len() < n {
        return Err(GraphError::NodeOutOfBounds {
            node: NodeId::new(node_cost.len()),
            node_count: n,
        });
    }
    if let Some(&bad) = sources.iter().find(|s| s.index() >= n) {
        return Err(GraphError::NodeOutOfBounds {
            node: bad,
            node_count: n,
        });
    }
    let mut rows = SourceRows {
        cost: vec![f64::INFINITY; sources.len() * n],
        hops: vec![UNREACHABLE_HOPS; sources.len() * n],
    };
    if sources.is_empty() {
        return Ok(rows);
    }
    let csr = Csr::from_graph(g);
    let mut scratch = Scratch::new(n);
    let mut buf = RowBuf::new(n, words_per_row(n));
    for (&src, (cost, hops)) in sources
        .iter()
        .zip(rows.cost.chunks_mut(n).zip(rows.hops.chunks_mut(n)))
    {
        let s = src.index();
        single_source(
            &csr,
            node_cost,
            s,
            selection,
            &mut buf.interior,
            hops,
            &mut buf.parent,
            &mut buf.mask,
            &mut scratch,
        );
        for (v, (c, &h)) in cost.iter_mut().zip(hops.iter()).enumerate() {
            *c = if v == s {
                0.0
            } else {
                closed_cost(buf.interior[v], h, node_cost[s], node_cost[v])
            };
        }
    }
    Ok(rows)
}

/// The closed cost of an off-diagonal pair: the stored interior plus
/// both endpoint terms, or `f64::INFINITY` when unreachable. The one
/// expression every cost query goes through, so row kernels and the
/// all-pairs structure agree bitwise.
#[inline]
fn closed_cost(interior: f64, hops: u32, cu: f64, cv: f64) -> f64 {
    if hops == UNREACHABLE_HOPS {
        f64::INFINITY
    } else {
        interior + cu + cv
    }
}

fn words_per_row(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// Owned buffers for one recomputed row (threaded update path, and the
/// reused per-source scratch of [`source_rows`]).
struct RowBuf {
    interior: Vec<f64>,
    hops: Vec<u32>,
    parent: Vec<Option<NodeId>>,
    mask: Vec<u64>,
}

impl RowBuf {
    fn new(n: usize, words: usize) -> Self {
        RowBuf {
            interior: vec![f64::INFINITY; n],
            hops: vec![UNREACHABLE_HOPS; n],
            parent: vec![None; n],
            mask: vec![0u64; words],
        }
    }
}

/// One deterministic Dijkstra over the interior-cost metric, writing
/// into the caller's row slices.
///
/// The relaxation `interior(v) = interior(u) + node_cost[u]` (0 when `u`
/// is the source) orders paths exactly as the full endpoint-inclusive
/// cost does — every candidate between a fixed pair shares its
/// endpoints — while keeping stored rows independent of endpoint terms.
#[allow(clippy::too_many_arguments)]
fn single_source(
    csr: &Csr,
    node_cost: &[f64],
    src: usize,
    selection: PathSelection,
    interior: &mut [f64],
    hops: &mut [u32],
    parent: &mut [Option<NodeId>],
    mask: &mut [u64],
    scratch: &mut Scratch,
) {
    interior.fill(f64::INFINITY);
    hops.fill(UNREACHABLE_HOPS);
    parent.fill(None);
    mask.fill(0);

    interior[src] = 0.0;
    hops[src] = 0;
    match selection {
        PathSelection::FewestHops => {
            // Hop count is the primary key, so every hop-`h-1` node is
            // final before any hop-`h` node is looked at — the heap
            // degenerates into BFS layers. Run a plain BFS for the hop
            // labels, then a layer-order DP picking each node's best
            // predecessor: the lexicographic minimum over
            // `(interior cost, parent id)`, exactly the value the
            // generic Dijkstra's relaxation rule converges to.
            let queue = &mut scratch.queue;
            queue.clear();
            queue.push(src as u32);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &v in csr.neighbors(u) {
                    let vi = v as usize;
                    if hops[vi] == UNREACHABLE_HOPS {
                        hops[vi] = hops[u] + 1;
                        queue.push(v);
                    }
                }
            }
            // BFS order visits layers in order, so each node's
            // predecessors (hop exactly one less) are already final.
            let order: &[u32] = queue;
            for &qv in order.iter().skip(1) {
                let vi = qv as usize;
                let hv = hops[vi];
                let mut best = f64::INFINITY;
                let mut best_parent: Option<NodeId> = None;
                for &u in csr.neighbors(vi) {
                    let ui = u as usize;
                    if hops[ui] + 1 != hv {
                        continue;
                    }
                    let step = if ui == src { 0.0 } else { node_cost[ui] };
                    let cand = interior[ui] + step;
                    let better = match best_parent {
                        None => true,
                        Some(p) => match cand.total_cmp(&best) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => NodeId::new(ui) < p,
                            std::cmp::Ordering::Greater => false,
                        },
                    };
                    if better {
                        best = cand;
                        best_parent = Some(NodeId::new(ui));
                    }
                }
                interior[vi] = best;
                parent[vi] = best_parent;
            }
        }
        PathSelection::MinCost => {
            scratch.heap.clear();
            scratch.settled.fill(false);
            let settled = &mut scratch.settled;
            let heap = &mut scratch.heap;
            heap.push(Reverse((Key::new(selection, 0.0, 0), src)));
            while let Some(Reverse((key, u))) = heap.pop() {
                if settled[u] {
                    continue;
                }
                // Stale entries carry a worse key than the settled value.
                if key != Key::new(selection, interior[u], hops[u]) {
                    continue;
                }
                settled[u] = true;
                // Leaving `u` makes it an interior node of every longer
                // path.
                let step = if u == src { 0.0 } else { node_cost[u] };
                for &v in csr.neighbors(u) {
                    let vi = v as usize;
                    if settled[vi] {
                        continue;
                    }
                    let cand_interior = interior[u] + step;
                    let cand_hops = hops[u] + 1;
                    let cand = Key::new(selection, cand_interior, cand_hops);
                    let cur = Key::new(selection, interior[vi], hops[vi]);
                    let better = cand < cur
                        || (cand == cur && parent[vi].is_some_and(|p| NodeId::new(u) < p));
                    if better {
                        interior[vi] = cand_interior;
                        hops[vi] = cand_hops;
                        parent[vi] = Some(NodeId::new(u));
                        heap.push(Reverse((cand, vi)));
                    }
                }
            }
        }
    }
    // The interior-node bitset: every non-source parent routes traffic
    // through itself, so its term is baked into some stored row entry.
    for &p in parent.iter().flatten() {
        if p.index() != src {
            mask[p.index() / 64] |= 1u64 << (p.index() % 64);
        }
    }
}

/// Single-source shortest paths under a per-edge weight closure.
///
/// Returns `(cost, parent)` vectors indexed by node; unreachable nodes
/// have `f64::INFINITY` cost and no parent. Ties are broken by smaller
/// parent id, so the tree is deterministic.
///
/// Negative weights are not supported (weights model transmission costs,
/// which are nonnegative); a negative weight yields unspecified — but
/// memory-safe — results, as with any Dijkstra.
///
/// # Panics
///
/// Panics if `src` is out of bounds.
///
/// # Example
///
/// ```
/// use peercache_graph::{builders, paths, NodeId};
///
/// let g = builders::ring(4);
/// let (cost, parent) = paths::dijkstra_edge_weighted(&g, NodeId::new(0), |_, _| 1.0);
/// assert_eq!(cost[2], 2.0);
/// assert!(parent[0].is_none());
/// ```
pub fn dijkstra_edge_weighted<W>(
    g: &Graph,
    src: NodeId,
    weight: W,
) -> (Vec<f64>, Vec<Option<NodeId>>)
where
    W: Fn(NodeId, NodeId) -> f64,
{
    let n = g.node_count();
    let mut cost = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(Key, usize)>> = BinaryHeap::new();
    cost[src.index()] = 0.0;
    heap.push(Reverse((
        Key {
            primary: 0.0,
            secondary: 0.0,
        },
        src.index(),
    )));
    while let Some(Reverse((key, u))) = heap.pop() {
        if settled[u] || key.primary != cost[u] {
            continue;
        }
        settled[u] = true;
        for v in g.neighbors(NodeId::new(u)) {
            let vi = v.index();
            if settled[vi] {
                continue;
            }
            let cand = cost[u] + weight(NodeId::new(u), v);
            let better = cand < cost[vi]
                || (cand == cost[vi] && parent[vi].is_some_and(|p| NodeId::new(u) < p));
            if better {
                cost[vi] = cand;
                parent[vi] = Some(NodeId::new(u));
                heap.push(Reverse((
                    Key {
                        primary: cand,
                        secondary: 0.0,
                    },
                    vi,
                )));
            }
        }
    }
    (cost, parent)
}

/// Lexicographic Dijkstra key; which component leads depends on the
/// [`PathSelection`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct Key {
    primary: f64,
    secondary: f64,
}

impl Key {
    fn new(selection: PathSelection, cost: f64, hops: u32) -> Self {
        match selection {
            PathSelection::FewestHops => Key {
                primary: f64::from(hops.min(UNREACHABLE_HOPS - 1)),
                secondary: cost,
            },
            PathSelection::MinCost => Key {
                primary: cost,
                secondary: f64::from(hops.min(UNREACHABLE_HOPS - 1)),
            },
        }
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.primary
            .total_cmp(&other.primary)
            .then(self.secondary.total_cmp(&other.secondary))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn unit_costs(g: &Graph) -> Vec<f64> {
        vec![1.0; g.node_count()]
    }

    #[test]
    fn bfs_hops_on_grid() {
        let g = builders::grid(3, 3);
        let hops = bfs_hops(&g, NodeId::new(0));
        assert_eq!(hops[0], Some(0));
        assert_eq!(hops[8], Some(4)); // opposite corner
    }

    #[test]
    fn bfs_hops_unreachable_is_none() {
        let g = Graph::new(2);
        let hops = bfs_hops(&g, NodeId::new(0));
        assert_eq!(hops[1], None);
    }

    #[test]
    fn k_hop_neighborhood_grows_with_k() {
        let g = builders::grid(5, 5);
        let center = NodeId::new(12);
        let one = k_hop_neighborhood(&g, center, 1);
        let two = k_hop_neighborhood(&g, center, 2);
        assert_eq!(one.len(), 4);
        assert_eq!(two.len(), 12);
        assert!(one.iter().all(|n| two.contains(n)));
    }

    #[test]
    fn k_zero_neighborhood_is_empty() {
        let g = builders::grid(3, 3);
        assert!(k_hop_neighborhood(&g, NodeId::new(4), 0).is_empty());
    }

    #[test]
    fn k_hop_matches_bfs_filter_reference() {
        // The depth-bounded BFS must agree with the naive
        // full-BFS-then-filter definition on every (src, k).
        let g = builders::grid(4, 5);
        for src in g.nodes() {
            let hops = bfs_hops(&g, src);
            for k in 0..=6u32 {
                let reference: Vec<NodeId> = g
                    .nodes()
                    .filter(|&v| v != src && hops[v.index()].is_some_and(|h| h <= k))
                    .collect();
                assert_eq!(k_hop_neighborhood(&g, src, k), reference, "src={src} k={k}");
            }
        }
    }

    #[test]
    fn k_hop_is_depth_bounded_on_disconnected_parts() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(
            k_hop_neighborhood(&g, NodeId::new(0), 3),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn all_pairs_diagonal_is_zero() {
        let g = builders::grid(3, 3);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g), PathSelection::FewestHops).unwrap();
        for u in g.nodes() {
            assert_eq!(ap.cost(u, u), 0.0);
            assert_eq!(ap.hops(u, u), Some(0));
            assert_eq!(ap.path(u, u), Some(vec![u]));
        }
    }

    #[test]
    fn unit_cost_path_includes_both_endpoints() {
        let g = builders::path(4);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g), PathSelection::FewestHops).unwrap();
        // 0-1: both endpoints -> cost 2.
        assert_eq!(ap.cost(NodeId::new(0), NodeId::new(1)), 2.0);
        assert_eq!(ap.cost(NodeId::new(0), NodeId::new(3)), 4.0);
    }

    #[test]
    fn path_reconstruction_matches_hops() {
        let g = builders::grid(4, 4);
        let ap = AllPairsPaths::compute(&g, &unit_costs(&g), PathSelection::FewestHops).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                let p = ap.path(u, v).expect("grid is connected");
                assert_eq!(p.len() as u32 - 1, ap.hops(u, v).unwrap());
                assert_eq!(*p.first().unwrap(), u);
                assert_eq!(*p.last().unwrap(), v);
                // Consecutive nodes are adjacent.
                for w in p.windows(2) {
                    assert!(g.contains_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn min_cost_routes_around_expensive_nodes() {
        // Square 0-1, 0-2, 1-3, 2-3 with node 1 very expensive.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let costs = vec![1.0, 100.0, 1.0, 1.0];
        let hop_first = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        let cost_first = AllPairsPaths::compute(&g, &costs, PathSelection::MinCost).unwrap();
        // Both routes are 2 hops; tie broken by cost, so both avoid node 1 here.
        assert_eq!(hop_first.cost(NodeId::new(0), NodeId::new(3)), 3.0);
        assert_eq!(cost_first.cost(NodeId::new(0), NodeId::new(3)), 3.0);
        // Force a detour: connect 0-3 through a longer cheap path.
        let g2 = Graph::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 4), (4, 3)]).unwrap();
        let costs2 = vec![1.0, 100.0, 1.0, 1.0, 1.0];
        let hop2 = AllPairsPaths::compute(&g2, &costs2, PathSelection::FewestHops).unwrap();
        let cost2 = AllPairsPaths::compute(&g2, &costs2, PathSelection::MinCost).unwrap();
        // Hop-first goes 0-1-3 (cost 102); cost-first goes 0-2-4-3 (cost 4).
        assert_eq!(hop2.cost(NodeId::new(0), NodeId::new(3)), 102.0);
        assert_eq!(hop2.hops(NodeId::new(0), NodeId::new(3)), Some(2));
        assert_eq!(cost2.cost(NodeId::new(0), NodeId::new(3)), 4.0);
        assert_eq!(cost2.hops(NodeId::new(0), NodeId::new(3)), Some(3));
    }

    #[test]
    fn unreachable_pairs_report_infinity() {
        let g = Graph::new(3); // no edges
        let ap = AllPairsPaths::compute(&g, &[1.0; 3], PathSelection::FewestHops).unwrap();
        assert!(ap.cost(NodeId::new(0), NodeId::new(2)).is_infinite());
        assert_eq!(ap.hops(NodeId::new(0), NodeId::new(2)), None);
        assert_eq!(ap.path(NodeId::new(0), NodeId::new(2)), None);
    }

    #[test]
    fn cost_matrix_is_symmetric_for_symmetric_metrics() {
        let g = builders::grid(4, 4);
        let costs: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64).collect();
        let ap = AllPairsPaths::compute(&g, &costs, PathSelection::MinCost).unwrap();
        for u in g.nodes() {
            for v in g.nodes() {
                assert!((ap.cost(u, v) - ap.cost(v, u)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn short_cost_slice_is_an_error() {
        let g = builders::grid(2, 2);
        let err = AllPairsPaths::compute(&g, &[1.0], PathSelection::FewestHops).unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    fn assert_identical(a: &AllPairsPaths, b: &AllPairsPaths, g: &Graph) {
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(a.cost(u, v).to_bits(), b.cost(u, v).to_bits(), "{u}->{v}");
                assert_eq!(a.hops(u, v), b.hops(u, v));
                assert_eq!(a.path(u, v), b.path(u, v));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_bytewise() {
        let g = builders::grid(5, 5);
        let costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 7) as f64).collect();
        for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
            let seq = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            for threads in [2usize, 3, 8, 64] {
                let par = AllPairsPaths::compute_with(
                    &g,
                    &costs,
                    selection,
                    Parallelism::Threads(threads),
                )
                .unwrap();
                assert_identical(&seq, &par, &g);
            }
        }
    }

    #[test]
    fn update_matches_fresh_compute() {
        let g = builders::grid(5, 5);
        let mut costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 4) as f64).collect();
        for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
            let mut ap = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            // Raise a few node terms, as committing a chunk does.
            for bump in [12usize, 3, 24] {
                costs[bump] += 2.0;
                let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
                assert!(redone <= g.node_count());
                let fresh = AllPairsPaths::compute(&g, &costs, selection).unwrap();
                assert_identical(&ap, &fresh, &g);
            }
            // A decrease falls back to the full recompute and stays correct.
            costs[12] -= 3.0;
            let redone = ap.update(&g, &costs, Parallelism::Sequential).unwrap();
            assert_eq!(redone, g.node_count());
            let fresh = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            assert_identical(&ap, &fresh, &g);
            costs[12] += 1.0; // restore for the next selection
        }
    }

    #[test]
    fn update_with_unchanged_costs_is_a_noop() {
        let g = builders::grid(3, 3);
        let costs = unit_costs(&g);
        let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        assert_eq!(ap.update(&g, &costs, Parallelism::Auto).unwrap(), 0);
    }

    #[test]
    fn update_threaded_matches_sequential() {
        let g = builders::grid(6, 6);
        let mut costs: Vec<f64> = (0..36).map(|i| 1.0 + (i % 3) as f64).collect();
        let mut seq = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        let mut par = seq.clone();
        costs[7] += 4.0;
        costs[20] += 1.0;
        let a = seq.update(&g, &costs, Parallelism::Sequential).unwrap();
        let b = par.update(&g, &costs, Parallelism::Threads(4)).unwrap();
        assert_eq!(a, b);
        assert_identical(&seq, &par, &g);
    }

    #[test]
    fn topology_update_after_edge_removal_matches_fresh() {
        for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
            let mut g = builders::grid(5, 5);
            let costs: Vec<f64> = (0..25).map(|i| 1.0 + (i % 4) as f64).collect();
            let mut ap = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            let (u, v) = (NodeId::new(6), NodeId::new(7));
            g.remove_edge(u, v).unwrap();
            let redone = ap
                .update_topology(&g, &costs, &[(u, v)], &[], Parallelism::Sequential)
                .unwrap();
            let fresh = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            assert_identical(&ap, &fresh, &g);
            assert!(redone < 25, "removal must stay incremental, redid {redone}");
        }
    }

    #[test]
    fn topology_update_after_edge_addition_matches_fresh() {
        for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
            let mut g = builders::grid(2, 2); // square 0-1, 0-2, 1-3, 2-3
            let costs = vec![1.0, 2.0, 3.0, 4.0];
            let mut ap = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            let (u, v) = (NodeId::new(0), NodeId::new(3));
            g.add_edge(u, v).unwrap();
            let redone = ap
                .update_topology(&g, &costs, &[], &[(u, v)], Parallelism::Sequential)
                .unwrap();
            let fresh = AllPairsPaths::compute(&g, &costs, selection).unwrap();
            assert_identical(&ap, &fresh, &g);
            if selection == PathSelection::FewestHops {
                // From sources 1 and 2 the new diagonal joins two nodes
                // at equal depth, so only rows 0 and 3 re-ran.
                assert_eq!(redone, 2);
            }
        }
    }

    #[test]
    fn topology_update_node_departure_with_cost_decreases() {
        // A departure removes all incident edges AND lowers the degree
        // terms of the surviving neighbors — the combination the world
        // layer issues. The decrease must not force a full recompute
        // under hop-first selection.
        let mut g = builders::grid(5, 5);
        let costs: Vec<f64> = (0..25)
            .map(|k| 1.0 + (g.degree(NodeId::new(k))) as f64)
            .collect();
        let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        let dead = NodeId::new(12); // center
        let former = g.remove_node(dead).unwrap();
        let removed: Vec<(NodeId, NodeId)> = former.iter().map(|&v| (dead, v)).collect();
        let new_costs: Vec<f64> = (0..25)
            .map(|k| 1.0 + (g.degree(NodeId::new(k))) as f64)
            .collect();
        let redone = ap
            .update_topology(&g, &new_costs, &removed, &[], Parallelism::Sequential)
            .unwrap();
        let fresh = AllPairsPaths::compute(&g, &new_costs, PathSelection::FewestHops).unwrap();
        assert_identical(&ap, &fresh, &g);
        assert!(redone <= 25);
        assert!(ap.cost(NodeId::new(0), dead).is_infinite());
    }

    #[test]
    fn topology_update_pure_decrease_stays_incremental_hop_first() {
        // Lowering the cost of a node that no hop-shortest path can use
        // must not recompute anything (the old `update` would redo all
        // rows on any decrease).
        let g = builders::path(4);
        let mut costs = vec![1.0, 1.0, 1.0, 5.0];
        let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        costs[3] = 2.0; // a leaf: never interior
        let redone = ap
            .update_topology(&g, &costs, &[], &[], Parallelism::Sequential)
            .unwrap();
        assert_eq!(redone, 0);
        let fresh = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        assert_identical(&ap, &fresh, &g);
        // An interior decrease re-runs the rows that can route through it.
        costs[1] = 0.5;
        let redone = ap
            .update_topology(&g, &costs, &[], &[], Parallelism::Sequential)
            .unwrap();
        assert!(redone > 0);
        let fresh = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn topology_update_node_count_change_rebuilds() {
        let mut g = builders::path(3);
        let mut costs = vec![1.0; 3];
        let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        let new = g.add_node();
        g.add_edge(new, NodeId::new(2)).unwrap();
        costs.push(1.0);
        let redone = ap
            .update_topology(
                &g,
                &costs,
                &[],
                &[(new, NodeId::new(2))],
                Parallelism::Sequential,
            )
            .unwrap();
        assert_eq!(redone, 4);
        assert_eq!(ap.node_count(), 4);
        let fresh = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn topology_update_multi_addition_falls_back_to_full() {
        let mut g = builders::path(4);
        let costs = vec![1.0; 4];
        let mut ap = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        let added = [
            (NodeId::new(0), NodeId::new(2)),
            (NodeId::new(1), NodeId::new(3)),
        ];
        for &(u, v) in &added {
            g.add_edge(u, v).unwrap();
        }
        let redone = ap
            .update_topology(&g, &costs, &[], &added, Parallelism::Sequential)
            .unwrap();
        assert_eq!(redone, 4);
        let fresh = AllPairsPaths::compute(&g, &costs, PathSelection::FewestHops).unwrap();
        assert_identical(&ap, &fresh, &g);
    }

    #[test]
    fn topology_update_rejects_unknown_endpoints() {
        let g = builders::path(3);
        let mut ap =
            AllPairsPaths::compute(&g, &unit_costs(&g), PathSelection::FewestHops).unwrap();
        let err = ap
            .update_topology(
                &g,
                &unit_costs(&g),
                &[(NodeId::new(0), NodeId::new(9))],
                &[],
                Parallelism::Sequential,
            )
            .unwrap_err();
        assert!(matches!(err, GraphError::NodeOutOfBounds { .. }));
    }

    /// Tiny deterministic xorshift so the randomized churn test needs no
    /// external RNG crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }
    }

    #[test]
    fn topology_update_randomized_churn_matches_fresh() {
        for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
            let mut g = builders::grid(4, 4);
            let mut costs: Vec<f64> = (0..16).map(|i| 1.0 + (i % 5) as f64).collect();
            let mut ap =
                AllPairsPaths::compute_with(&g, &costs, selection, Parallelism::Threads(3))
                    .unwrap();
            let mut rng = XorShift(0x9e3779b97f4a7c15);
            for step in 0..60 {
                let (mut removed, mut added) = (Vec::new(), Vec::new());
                match rng.below(3) {
                    0 => {
                        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
                        if !edges.is_empty() {
                            let (u, v) = edges[rng.below(edges.len())];
                            g.remove_edge(u, v).unwrap();
                            removed.push((u, v));
                        }
                    }
                    1 => {
                        let (u, v) = (NodeId::new(rng.below(16)), NodeId::new(rng.below(16)));
                        if u != v && !g.contains_edge(u, v) {
                            g.add_edge(u, v).unwrap();
                            added.push((u, v));
                        }
                    }
                    _ => {
                        let k = rng.below(16);
                        costs[k] = 1.0 + rng.below(7) as f64;
                    }
                }
                let par = if step % 2 == 0 {
                    Parallelism::Sequential
                } else {
                    Parallelism::Threads(4)
                };
                ap.update_topology(&g, &costs, &removed, &added, par)
                    .unwrap();
                let fresh = AllPairsPaths::compute(&g, &costs, selection).unwrap();
                assert_identical(&ap, &fresh, &g);
            }
        }
    }

    #[test]
    fn source_rows_match_all_pairs_rows_bitwise() {
        let mut rng = XorShift(0x5eed_c0de_1234_5678);
        let mut unreachable = 0usize;
        for trial in 0..24 {
            // Sparse random graphs: at 0.6 edges per node most trials
            // leave several components, so unreachable pairs are hit.
            let n = 6 + rng.below(20);
            let mut g = Graph::new(n);
            for _ in 0..(n * 3 / 5 + rng.below(n)) {
                let (u, v) = (NodeId::new(rng.below(n)), NodeId::new(rng.below(n)));
                if u != v && !g.contains_edge(u, v) {
                    g.add_edge(u, v).unwrap();
                }
            }
            let costs: Vec<f64> = (0..n).map(|_| 0.5 + rng.below(9) as f64 * 0.75).collect();
            let sources: Vec<NodeId> = (0..n)
                .filter(|_| rng.below(3) != 0)
                .map(NodeId::new)
                .collect();
            for selection in [PathSelection::FewestHops, PathSelection::MinCost] {
                let ap = AllPairsPaths::compute(&g, &costs, selection).unwrap();
                let rows = source_rows(&g, &costs, selection, &sources).unwrap();
                assert_eq!(rows.cost.len(), sources.len() * n);
                for (r, &u) in sources.iter().enumerate() {
                    for v in g.nodes() {
                        let at = r * n + v.index();
                        assert_eq!(
                            rows.cost[at].to_bits(),
                            ap.cost(u, v).to_bits(),
                            "trial {trial} {selection:?}: cost ({u},{v})"
                        );
                        assert_eq!(
                            rows.hops[at],
                            ap.hops(u, v).unwrap_or(UNREACHABLE_HOPS),
                            "trial {trial} {selection:?}: hops ({u},{v})"
                        );
                        unreachable += usize::from(rows.hops[at] == UNREACHABLE_HOPS);
                    }
                }
            }
        }
        assert!(unreachable > 0, "no trial produced a disconnected pair");
    }

    #[test]
    fn source_rows_reject_bad_inputs() {
        let g = builders::path(3);
        assert!(matches!(
            source_rows(&g, &[1.0, 1.0], PathSelection::FewestHops, &[]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        assert!(matches!(
            source_rows(&g, &[1.0; 3], PathSelection::MinCost, &[NodeId::new(3)]),
            Err(GraphError::NodeOutOfBounds { .. })
        ));
        let empty = source_rows(&g, &[1.0; 3], PathSelection::MinCost, &[]).unwrap();
        assert!(empty.cost.is_empty() && empty.hops.is_empty());
    }

    #[test]
    fn update_rejects_mismatched_graph() {
        let g = builders::grid(3, 3);
        let mut ap =
            AllPairsPaths::compute(&g, &unit_costs(&g), PathSelection::FewestHops).unwrap();
        let other = builders::grid(2, 2);
        assert!(ap
            .update(&other, &unit_costs(&g), Parallelism::Sequential)
            .is_err());
    }

    #[test]
    fn parallelism_thread_resolution() {
        assert_eq!(Parallelism::Sequential.threads(100), 1);
        assert_eq!(Parallelism::Threads(4).threads(100), 4);
        assert_eq!(Parallelism::Threads(0).threads(100), 1);
        assert_eq!(Parallelism::Threads(16).threads(3), 3);
        assert!(Parallelism::Auto.threads(100) >= 1);
        assert_eq!(Parallelism::Auto.threads(0), 1);
    }
}
