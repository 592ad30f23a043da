//! The seeded trace generator: link flaps and departure victims.
//!
//! Every pick is a pure function of the workload seed and the world
//! state the generator is shown, and every pick is first tried on a
//! clone of the network (`probe`), so the world is only ever sent
//! events it accepts. The generator runs outside the timed region.

use peercache_core::Network;
use peercache_graph::regions::splitmix64;
use peercache_graph::NodeId;

/// A seeded 64-bit stream (SplitMix64).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-purpose `stream` tag, so the
    /// flap, victim and drop picks never share draws.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// The next draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// A draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Candidates tried per pick before the generator gives up for a tick.
const PICK_TRIES: usize = 16;

/// Link flaps: a link goes down now and comes back a few ticks later.
#[derive(Debug)]
pub struct Flapper {
    rng: Rng,
    /// `(due tick, u, v)` of links currently down.
    down: Vec<(u64, NodeId, NodeId)>,
}

impl Flapper {
    /// A flapper on its own stream of `seed`.
    pub fn new(seed: u64) -> Self {
        Flapper {
            rng: Rng::new(seed, 0xF1A9),
            down: Vec::new(),
        }
    }

    /// Takes the links due back up at tick `t`, applying each to
    /// `probe`; a link with an endpoint that is not `alive` stays down
    /// for good (its endpoint is leaving).
    pub fn due_ups(
        &mut self,
        t: u64,
        probe: &mut Network,
        alive: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, NodeId)> {
        let mut ups = Vec::new();
        self.down.retain(|&(due, u, v)| {
            if due > t {
                return true;
            }
            if alive(u) && alive(v) && probe.add_link(u, v).is_ok() {
                ups.push((u, v));
            }
            false
        });
        ups
    }

    /// Picks one link to drop at tick `t` among links whose endpoints
    /// are both `eligible`, and drops it from `probe`. A pick `probe`
    /// refuses (it would disconnect the active nodes) is skipped.
    pub fn pick_down(
        &mut self,
        t: u64,
        probe: &mut Network,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Option<(NodeId, NodeId)> {
        let edges: Vec<(NodeId, NodeId)> = probe
            .graph()
            .edges()
            .filter(|&(u, v)| eligible(u) && eligible(v))
            .collect();
        if edges.is_empty() {
            return None;
        }
        for _ in 0..PICK_TRIES {
            let (u, v) = edges[self.rng.below(edges.len())];
            if probe.remove_link(u, v) == Ok(true) {
                let due = t + 2 + self.rng.below(4) as u64;
                self.down.push((due, u, v));
                return Some((u, v));
            }
        }
        None
    }
}

/// Picks a departure victim among `candidates` (sorted, deduplicated):
/// the first seeded draw that passes `eligible` and whose departure
/// `probe` accepts. The accepted departure is applied to `probe`.
pub fn pick_victim(
    rng: &mut Rng,
    candidates: &[NodeId],
    probe: &mut Network,
    eligible: impl Fn(NodeId) -> bool,
) -> Option<NodeId> {
    if candidates.is_empty() {
        return None;
    }
    for _ in 0..PICK_TRIES {
        let v = candidates[rng.below(candidates.len())];
        if eligible(v) && probe.deactivate_node(v).is_ok() {
            return Some(v);
        }
    }
    None
}

/// Deterministic message loss: a pure hash of `(seed, t, from, to)`
/// against a per-mille threshold.
pub fn dropped(seed: u64, t: u64, from: NodeId, to: NodeId, permille: u64) -> bool {
    let key = seed
        ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((from.index() as u64) << 32)
        ^ to.index() as u64;
    splitmix64(key) % 1000 < permille
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_graph::builders;

    #[test]
    fn streams_are_pure_functions_of_seed_and_tag() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(7, 1);
        let mut y = Rng::new(7, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn flaps_never_disconnect_and_come_back() {
        let mut net = Network::new(builders::grid(4, 4), NodeId::new(0), 2).unwrap();
        let edges = net.graph().edge_count();
        let mut flaps = Flapper::new(3);
        for t in 0..40 {
            flaps.due_ups(t, &mut net, |_| true);
            flaps.pick_down(t, &mut net, |_| true);
            assert!(net.active_connected());
        }
        flaps.due_ups(u64::MAX, &mut net, |_| true);
        assert_eq!(net.graph().edge_count(), edges);
    }
}
