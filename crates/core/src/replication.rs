//! R-copy replication policy: top up every chunk's facility set to a
//! target replication degree under a per-node replica-load fairness cap.
//!
//! The paper's ConFL objective opens facilities where demand pays for
//! them; nothing guarantees a *minimum* copy count, so a single death
//! can erase a chunk the planner paid to place. [`ReplicationPolicy`]
//! adds a durability floor: after the ascent (and after every repair),
//! the holder set is greedily extended to `degree` copies. Each extra
//! copy is priced like any other facility — its fairness cost plus the
//! cheapest attachment to the already-placed set — so the dissemination
//! tree that is subsequently rebuilt over all holders stays an
//! R-connected Steiner tree rooted at the producer.
//!
//! Fairness of the replica load itself is enforced by a cap: a node is
//! eligible as a top-up target only while its storage load stays below
//! [`ReplicationPolicy::load_cap`] times the current network mean (hub
//! nodes stop absorbing replicas once they are ahead of the pack, the
//! FairCache motivation). The cap is best-effort: when no capped
//! candidate remains, durability wins and the cap is waived for the
//! remaining picks.
//!
//! With the default `degree = 1` every hook in the planners is a no-op
//! and all single-copy behavior (including bench baselines and shard
//! digests) is bit-for-bit unchanged.

// Panic-free event path (rule P1, DESIGN.md §11); clippy.toml's
// `allow-*-in-tests` exempts test code.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use peercache_graph::NodeId;

use crate::{CoreError, Network};

/// The replication knob shared by every planner (see
/// [`crate::approx::ApproxConfig::replication`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicationPolicy {
    /// Target number of cached copies per chunk (`R`). `1` disables
    /// replication entirely (the single-copy objective of the paper).
    pub degree: usize,
    /// Per-node replica-load fairness cap, as a multiple of the mean
    /// storage load across active nodes. A node whose load is at or
    /// above `load_cap × mean` is skipped by the top-up (unless no
    /// capped candidate remains at all).
    pub load_cap: f64,
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy {
            degree: 1,
            load_cap: 2.0,
        }
    }
}

impl ReplicationPolicy {
    /// A policy with the given degree and the default fairness cap.
    pub fn with_degree(degree: usize) -> Self {
        ReplicationPolicy {
            degree,
            ..Default::default()
        }
    }

    /// Whether this policy leaves the planners' single-copy behavior
    /// untouched.
    pub fn is_single_copy(&self) -> bool {
        self.degree <= 1
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a zero degree or a cap below
    /// 1 (which could forbid even the mean load) or non-finite.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.degree == 0 {
            return Err(CoreError::InvalidParameter(
                "replication degree must be at least 1".into(),
            ));
        }
        if !(self.load_cap.is_finite() && self.load_cap >= 1.0) {
            return Err(CoreError::InvalidParameter(format!(
                "replication load_cap must be finite and >= 1, got {}",
                self.load_cap
            )));
        }
        Ok(())
    }

    /// The per-node storage budget the fairness cap allows right now:
    /// `ceil(load_cap × mean active load)`, at least 1 so an empty
    /// network can always take its first copies.
    pub fn cap_slots(&self, net: &Network) -> usize {
        let active = net.active_nodes();
        if active.is_empty() {
            return 1;
        }
        let total: usize = active.iter().map(|&n| net.used(n)).sum();
        let mean = total as f64 / active.len() as f64;
        let slots = (self.load_cap * mean).ceil();
        if slots < 1.0 {
            1
        } else {
            slots as usize
        }
    }
}

/// Greedily selects the nodes that top `holders` up to the policy's
/// replication degree.
///
/// Each pick minimizes `facility(i) + min_{h ∈ holders ∪ picked ∪
/// {producer}} link(i, h)` — the fairness price of the copy plus its
/// cheapest attachment to the already-connected set, the same attach
/// logic the dual ascent charges through its `γ` bids. Candidates are
/// scanned in ascending node id, so cost ties resolve to the lower id
/// and the result is deterministic. Eligible candidates are active
/// non-producer nodes with free storage in the producer's component
/// that do not already hold the chunk; the fairness cap
/// ([`ReplicationPolicy::cap_slots`]) is applied first and waived only
/// when it would leave the degree unmet.
///
/// Returns the picked targets in pick order (possibly fewer than
/// requested when the network runs out of eligible nodes). Empty for a
/// single-copy policy.
pub fn top_up_targets(
    net: &Network,
    holders: &[NodeId],
    policy: &ReplicationPolicy,
    facility: impl Fn(NodeId) -> f64,
    link: impl Fn(NodeId, NodeId) -> f64,
    producer: NodeId,
) -> Vec<NodeId> {
    let need = policy.degree.saturating_sub(holders.len());
    if need == 0 {
        return Vec::new();
    }
    let cap = policy.cap_slots(net);
    let mut current: Vec<NodeId> = holders.to_vec();
    debug_assert!(current.windows(2).all(|w| w[0] < w[1]), "holders sorted");
    let mut picked = Vec::with_capacity(need);
    for _ in 0..need {
        let next = pick_best(net, &current, cap, &facility, &link, producer)
            .or_else(|| pick_best(net, &current, usize::MAX, &facility, &link, producer));
        let Some(i) = next else { break };
        picked.push(i);
        if let Err(at) = current.binary_search(&i) {
            current.insert(at, i);
        }
    }
    picked
}

/// One greedy pick: the cheapest eligible candidate under `cap`, ties
/// to the lowest id (the ascending scan makes the first minimum win).
fn pick_best(
    net: &Network,
    current: &[NodeId],
    cap: usize,
    facility: &impl Fn(NodeId) -> f64,
    link: &impl Fn(NodeId, NodeId) -> f64,
    producer: NodeId,
) -> Option<NodeId> {
    let mut best: Option<(f64, NodeId)> = None;
    for i in net.active_nodes() {
        if i == producer || current.binary_search(&i).is_ok() {
            continue;
        }
        if net.remaining(i) == 0 || net.used(i) >= cap || !net.in_producer_component(i) {
            continue;
        }
        let mut attach = link(i, producer);
        for &h in current {
            let via = link(i, h);
            if via < attach {
                attach = via;
            }
        }
        let score = facility(i) + attach;
        if !score.is_finite() {
            continue;
        }
        if best.is_none_or(|(bs, _)| score < bs) {
            best = Some((score, i));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkId;
    use peercache_graph::builders;

    fn grid_net(side: usize, cap: usize) -> Network {
        Network::new(builders::grid(side, side), NodeId::new(0), cap).unwrap()
    }

    #[test]
    fn default_policy_is_single_copy_and_valid() {
        let p = ReplicationPolicy::default();
        assert!(p.is_single_copy());
        p.validate().unwrap();
        assert!(top_up_targets(
            &grid_net(3, 2),
            &[NodeId::new(4)],
            &p,
            |_| 0.0,
            |_, _| 1.0,
            NodeId::new(0),
        )
        .is_empty());
    }

    #[test]
    fn validation_rejects_degenerate_parameters() {
        assert!(ReplicationPolicy {
            degree: 0,
            load_cap: 2.0
        }
        .validate()
        .is_err());
        for bad in [0.5, f64::NAN, f64::INFINITY] {
            assert!(ReplicationPolicy {
                degree: 2,
                load_cap: bad
            }
            .validate()
            .is_err());
        }
        ReplicationPolicy::with_degree(3).validate().unwrap();
    }

    #[test]
    fn top_up_reaches_the_degree_and_skips_holders() {
        let net = grid_net(4, 3);
        let holders = vec![NodeId::new(5)];
        let policy = ReplicationPolicy::with_degree(3);
        let picked = top_up_targets(&net, &holders, &policy, |_| 0.0, |_, _| 1.0, net.producer());
        assert_eq!(picked.len(), 2);
        assert!(picked.iter().all(|&i| i != net.producer()));
        assert!(picked.iter().all(|&i| !holders.contains(&i)));
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), picked.len(), "picks are distinct");
    }

    #[test]
    fn uniform_costs_break_ties_toward_lower_ids() {
        let net = grid_net(3, 2);
        let picked = top_up_targets(
            &net,
            &[],
            &ReplicationPolicy::with_degree(2),
            |_| 0.0,
            |_, _| 1.0,
            net.producer(),
        );
        // Producer is node 0, so the two cheapest eligible ids win.
        assert_eq!(picked, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn fairness_cap_steers_picks_to_less_loaded_nodes() {
        let mut net = grid_net(3, 5);
        // Node 1 hoards 4 chunks; mean load is low, so the cap excludes
        // it even though its link cost would win.
        for q in 0..4 {
            net.cache(NodeId::new(1), ChunkId::new(10 + q)).unwrap();
        }
        let cheap_hub = NodeId::new(1);
        let picked = top_up_targets(
            &net,
            &[],
            &ReplicationPolicy {
                degree: 1,
                load_cap: 1.5,
            },
            |_| 0.0,
            |i, _| if i == cheap_hub { 0.0 } else { 10.0 },
            net.producer(),
        );
        assert_eq!(picked.len(), 1);
        assert_ne!(picked[0], cheap_hub, "cap must exclude the loaded hub");
    }

    #[test]
    fn cap_is_waived_when_it_would_leave_the_degree_unmet() {
        let mut net = grid_net(2, 4);
        // Every non-producer node already carries load; the cap (mean
        // multiple) excludes nobody absolutely — shrink to a tiny graph
        // where only over-cap nodes remain and the waiver must kick in.
        for q in 0..3 {
            net.cache(NodeId::new(1), ChunkId::new(20 + q)).unwrap();
        }
        let picked = top_up_targets(
            &net,
            &[NodeId::new(2), NodeId::new(3)],
            &ReplicationPolicy {
                degree: 3,
                load_cap: 1.0,
            },
            |_| 0.0,
            |_, _| 1.0,
            net.producer(),
        );
        assert_eq!(picked, vec![NodeId::new(1)], "waiver keeps durability");
    }

    #[test]
    fn exhausted_storage_yields_fewer_picks_not_an_error() {
        let mut net = grid_net(2, 1);
        for u in 1..4 {
            net.cache(NodeId::new(u), ChunkId::new(9)).unwrap();
        }
        let picked = top_up_targets(
            &net,
            &[],
            &ReplicationPolicy::with_degree(3),
            |_| 0.0,
            |_, _| 1.0,
            net.producer(),
        );
        assert!(picked.is_empty(), "no free slot anywhere");
    }

    #[test]
    fn cap_slots_tracks_the_mean_load() {
        let mut net = grid_net(3, 6);
        let policy = ReplicationPolicy {
            degree: 2,
            load_cap: 2.0,
        };
        assert_eq!(policy.cap_slots(&net), 1, "empty network floors at 1");
        for u in 1..9 {
            net.cache(NodeId::new(u), ChunkId::new(50)).unwrap();
        }
        // Mean load 8/9, cap 2.0 → ceil(16/9) = 2 slots.
        assert_eq!(policy.cap_slots(&net), 2);
    }
}
