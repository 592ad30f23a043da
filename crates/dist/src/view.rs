//! Per-node k-hop local views — the product of the CC (contention
//! collection) exchange.
//!
//! A node cannot see the whole topology; it learns, within `k` hops,
//! which peers exist and their `(degree, load)` pairs, and estimates the
//! Path Contention Cost to each of them *through its local subgraph*.
//! Estimates are conservative: paths leaving the k-hop ball are
//! invisible, so a local estimate is never lower than the true global
//! cost restricted to local routes.

use peercache_core::Network;
use peercache_graph::paths::{k_hop_neighborhood, source_rows, PathSelection};
use peercache_graph::NodeId;

use crate::error::ProtocolError;
use crate::protocol::{MessageKind, MessageStats};

/// One node's view of its k-hop neighborhood.
#[derive(Debug, Clone)]
pub struct LocalView {
    center: NodeId,
    members: Vec<NodeId>,
    cost: Vec<f64>,
    hops: Vec<u32>,
}

impl LocalView {
    /// The node owning this view.
    pub fn center(&self) -> NodeId {
        self.center
    }

    /// Peers within k hops (sorted by id, center excluded).
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Estimated Path Contention Cost from the center to `members()[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    // Out-of-range `idx` panics by documented contract (`# Panics`).
    #[allow(clippy::indexing_slicing)]
    pub fn cost(&self, idx: usize) -> f64 {
        self.cost[idx]
    }

    /// Hop distance from the center to `members()[idx]`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    // Out-of-range `idx` panics by documented contract (`# Panics`).
    #[allow(clippy::indexing_slicing)]
    pub fn hops(&self, idx: usize) -> u32 {
        self.hops[idx]
    }

    /// Index of `node` within [`LocalView::members`], if visible.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.members.binary_search(&node).ok()
    }

    /// Largest finite member cost (0 for an empty view).
    pub fn max_cost(&self) -> f64 {
        self.cost.iter().copied().fold(0.0, f64::max)
    }
}

/// Builds every client's local view for the network's current state and
/// accounts the CC message traffic (one request + one reply per member).
///
/// # Errors
///
/// Returns [`ProtocolError`] if a k-hop member cannot be mapped into its
/// induced subgraph — only possible if the graph mutates mid-build.
pub fn build_views(
    net: &Network,
    k_hops: u32,
) -> Result<(Vec<LocalView>, MessageStats), ProtocolError> {
    let graph = net.graph();
    let mut stats = MessageStats::default();
    let mut views = Vec::with_capacity(graph.node_count());
    for center in graph.nodes() {
        let members = k_hop_neighborhood(graph, center, k_hops);
        if center != net.producer() {
            stats.add(MessageKind::Cc, 2 * members.len() as u64);
        }
        // Induced subgraph over {center} ∪ members with *global* node
        // terms (each node reports its own degree and load).
        let mut keep = Vec::with_capacity(members.len() + 1);
        keep.push(center);
        keep.extend_from_slice(&members);
        keep.sort_unstable();
        let (sub, originals) = graph.induced_subgraph(&keep)?;
        let terms: Vec<f64> = originals
            .iter()
            .map(|&o| graph.degree(o) as f64 * (1.0 + net.used(o) as f64))
            .collect();
        let local_index = |node: NodeId| -> Result<NodeId, ProtocolError> {
            originals
                .iter()
                .position(|&o| o == node)
                .map(NodeId::new)
                .ok_or(ProtocolError::ViewMemberMissing {
                    center,
                    member: node,
                })
        };
        // Only the center's row is read, so run its one Dijkstra — the
        // rows-only kernel is bit-identical to the all-pairs row.
        let center_local = local_index(center)?;
        let row = source_rows(&sub, &terms, PathSelection::FewestHops, &[center_local])?;
        let mut cost = Vec::with_capacity(members.len());
        let mut hops = Vec::with_capacity(members.len());
        for &m in &members {
            let m_local = local_index(m)?.index();
            let (&c, &h) = row
                .cost
                .get(m_local)
                .zip(row.hops.get(m_local))
                .ok_or(ProtocolError::ViewMemberMissing { center, member: m })?;
            cost.push(c);
            hops.push(h);
        }
        views.push(LocalView {
            center,
            members,
            cost,
            hops,
        });
    }
    Ok((views, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_core::workload::paper_grid;
    use peercache_core::ChunkId;

    #[test]
    fn two_hop_view_of_a_grid_center() {
        let net = paper_grid(5).unwrap();
        let (views, stats) = build_views(&net, 2).unwrap();
        let center = &views[12];
        assert_eq!(center.center(), NodeId::new(12));
        assert_eq!(center.members().len(), 12);
        assert!(stats[MessageKind::Cc] > 0);
    }

    #[test]
    fn view_costs_match_global_costs_when_paths_stay_local() {
        let net = paper_grid(4).unwrap();
        let (views, _) = build_views(&net, 1).unwrap();
        // Adjacent pair: local estimate equals the exact two-term cost.
        let v = &views[0];
        let idx = v.index_of(NodeId::new(1)).unwrap();
        // degree(0) = 2, degree(1) = 3, nothing cached.
        assert_eq!(v.cost(idx), 2.0 + 3.0);
        assert_eq!(v.hops(idx), 1);
    }

    #[test]
    fn views_reflect_cached_load() {
        let mut net = paper_grid(4).unwrap();
        let (before, _) = build_views(&net, 1).unwrap();
        net.cache(NodeId::new(1), ChunkId::new(0)).unwrap();
        let (after, _) = build_views(&net, 1).unwrap();
        let idx = before[0].index_of(NodeId::new(1)).unwrap();
        assert!(after[0].cost(idx) > before[0].cost(idx));
    }

    #[test]
    fn producer_sends_no_cc_traffic() {
        let net = paper_grid(3).unwrap(); // producer clamped to node 8? no: min(9, 8) = 8
        let (_, stats) = build_views(&net, 2).unwrap();
        // Every client pays 2 messages per member; just sanity-check the
        // total is consistent with 8 clients.
        assert!(stats[MessageKind::Cc] >= 16);
    }

    #[test]
    fn larger_k_sees_no_smaller_costs() {
        let net = paper_grid(5).unwrap();
        let (k1, _) = build_views(&net, 1).unwrap();
        let (k2, _) = build_views(&net, 2).unwrap();
        for (v1, v2) in k1.iter().zip(&k2) {
            for (i, &m) in v1.members().iter().enumerate() {
                let j = v2.index_of(m).unwrap();
                // More topology visible => equal or cheaper local route.
                assert!(v2.cost(j) <= v1.cost(i) + 1e-9);
            }
        }
    }
}
