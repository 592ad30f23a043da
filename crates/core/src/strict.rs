//! Runtime invariant oracles, compiled only with the `strict-invariants`
//! feature.
//!
//! These checks make the repo's correctness story executable: instead of
//! trusting that the fast dual ascent, the incremental contention snapshot,
//! and the placement repair machinery preserve their invariants, the
//! determinism and churn test suites run with this feature enabled and
//! every violation panics at the point of corruption.
//!
//! Four oracles, plus [`check_self_audit`], which turns a world's own
//! `validate()` verdict into a panic:
//!
//! * [`check_dual_solution`] — re-runs the *reference* round-scanning dual
//!   ascent with dual-feasibility and complementary-slackness assertions
//!   armed, and requires the facility set produced by the fast path to
//!   match the reference opening sequence exactly.
//! * [`check_matrix_consistency`] — compares a carried
//!   [`ContentionMatrix`] bitwise against a from-scratch recompute for the
//!   network's current state.
//! * [`check_tree_connectivity`] — verifies every placement's
//!   dissemination (Steiner) tree actually connects its caches to the
//!   producer.
//! * [`check_component_tracking`] — compares the network's incremental
//!   connected-component labels against a from-scratch BFS over the
//!   active subgraph.
//!
//! The functions panic (rather than returning `Result`) by design: a
//! violated invariant means internal state is already corrupted, and the
//! suites run them as debug assertions.

use peercache_graph::paths::{Parallelism, PathSelection};
use peercache_graph::NodeId;

use crate::approx::ApproxConfig;
use crate::costs::ContentionMatrix;
use crate::placement::ChunkPlacement;
use crate::{CoreError, Network};

/// Aborts at the point of corruption when a world's self-audit fails;
/// `world` names the audited engine in the message.
///
/// # Panics
///
/// Panics when `audit` is an error.
pub fn check_self_audit(world: &str, audit: Result<(), CoreError>) {
    if let Err(e) = audit {
        panic!("strict-invariants: {world} self-audit failed: {e}");
    }
}

/// Slack for dual-payment assertions; matches the `1e-12` payment slack
/// the ascent itself uses, scaled up for accumulated sums.
const DUAL_EPS: f64 = 1e-9;

/// Re-runs the reference dual ascent for `inst` under `cfg`, asserting the
/// dual invariants every round, and checks that `facilities` (the opened
/// set reported by the production path, sorted) matches the reference
/// outcome.
///
/// Invariants asserted per round:
///
/// * **Dual feasibility**: `Σ_j β_ij ≤ f_i + ε` for every candidate `i`
///   (resource bids never overpay a facility's fairness cost);
/// * contributions only flow from *tight* clients: `β_ij > 0` or
///   `γ_ij > 0` implies `α_j ≥ c_ij`;
/// * **complementary slackness at opening**: a facility opens only when
///   its fairness cost is fully paid (`Σ_j β_ij ≥ f_i − ε`), its
///   attachment is covered (`Σ_j γ_ij ≥ M·attach(i) − ε`), and it has at
///   least `span_threshold` supporters.
///
/// # Panics
///
/// Panics on any violated invariant, on non-convergence, and when
/// `facilities` differs from the reference opened set.
pub fn check_dual_solution<V: crate::instance::ConflCosts>(
    inst: &V,
    cfg: &ApproxConfig,
    facilities: &[NodeId],
) {
    let n = inst.node_count();
    let producer = inst.producer();
    let clients: Vec<NodeId> = inst.clients().to_vec();
    let candidates = inst.candidates();

    let mut alpha = vec![0.0f64; n];
    let mut frozen = vec![false; n];
    let mut open = vec![false; n];
    let mut beta = vec![0.0f64; n * n];
    let mut beta_sum = vec![0.0f64; n];
    let mut gamma = vec![0.0f64; n * n];
    let mut gamma_sum = vec![0.0f64; n];
    let mut attach: Vec<f64> = (0..n)
        .map(|i| inst.connection_cost(producer, NodeId::new(i)))
        .collect();

    let max_producer_cost = clients
        .iter()
        .map(|&j| inst.connection_cost(producer, j))
        .fold(0.0f64, f64::max);
    let round_cap = (max_producer_cost / cfg.u_alpha).ceil() as usize + 2;

    let mut rounds = 0usize;
    while clients.iter().any(|&j| !frozen[j.index()]) {
        rounds += 1;
        assert!(
            rounds <= round_cap,
            "strict-invariants: reference dual ascent failed to converge \
             within {round_cap} rounds"
        );

        for &j in &clients {
            if !frozen[j.index()] {
                alpha[j.index()] += cfg.u_alpha;
            }
        }
        for &j in &clients {
            if frozen[j.index()] {
                continue;
            }
            let tight_open = alpha[j.index()] >= inst.connection_cost(producer, j)
                || candidates
                    .iter()
                    .any(|&i| open[i.index()] && alpha[j.index()] >= inst.connection_cost(i, j));
            if tight_open {
                frozen[j.index()] = true;
            }
        }
        for &j in &clients {
            if frozen[j.index()] {
                continue;
            }
            for &i in &candidates {
                if i == j || open[i.index()] {
                    continue;
                }
                if alpha[j.index()] >= inst.connection_cost(i, j) {
                    let f_i = inst.facility_cost(i);
                    let room = f_i - beta_sum[i.index()];
                    if room > 0.0 {
                        let add = cfg.u_beta.min(room);
                        beta[i.index() * n + j.index()] += add;
                        beta_sum[i.index()] += add;
                    }
                    gamma[i.index() * n + j.index()] += cfg.u_gamma;
                    gamma_sum[i.index()] += cfg.u_gamma;
                }
            }
        }

        // Dual feasibility + tightness of contributors, every round.
        for &i in &candidates {
            let f_i = inst.facility_cost(i);
            assert!(
                beta_sum[i.index()] <= f_i + DUAL_EPS,
                "strict-invariants: dual infeasible in round {rounds}: \
                 Σβ for facility {i} is {} > f_i = {f_i}",
                beta_sum[i.index()]
            );
            for &j in &clients {
                let b = beta[i.index() * n + j.index()];
                let g = gamma[i.index() * n + j.index()];
                if b > 0.0 || g > 0.0 {
                    assert!(
                        alpha[j.index()] + DUAL_EPS >= inst.connection_cost(i, j),
                        "strict-invariants: round {rounds}: client {j} contributes \
                         (β={b}, γ={g}) to facility {i} without a tight edge \
                         (α={} < c_ij={})",
                        alpha[j.index()],
                        inst.connection_cost(i, j)
                    );
                }
            }
        }

        let mut best_open: Option<(usize, NodeId)> = None;
        for &i in &candidates {
            if open[i.index()] {
                continue;
            }
            let f_i = inst.facility_cost(i);
            if beta_sum[i.index()] + 1e-12 < f_i {
                continue;
            }
            let attach_due = inst.weights().dissemination * attach[i.index()];
            if gamma_sum[i.index()] + 1e-12 < attach_due {
                continue;
            }
            let supporters = clients
                .iter()
                .filter(|&&j| {
                    j != i && !frozen[j.index()] && gamma[i.index() * n + j.index()] > 0.0
                })
                .count();
            if supporters >= cfg.span_threshold
                && best_open.is_none_or(|(bs, bi)| supporters > bs || (supporters == bs && i < bi))
            {
                best_open = Some((supporters, i));
            }
        }
        if let Some((supporters, i)) = best_open {
            // Complementary slackness: the opened facility is fully paid.
            let f_i = inst.facility_cost(i);
            assert!(
                beta_sum[i.index()] >= f_i - DUAL_EPS,
                "strict-invariants: facility {i} opened in round {rounds} with \
                 unpaid fairness cost (Σβ={} < f_i={f_i})",
                beta_sum[i.index()]
            );
            let attach_due = inst.weights().dissemination * attach[i.index()];
            assert!(
                gamma_sum[i.index()] >= attach_due - DUAL_EPS,
                "strict-invariants: facility {i} opened in round {rounds} with \
                 unpaid attachment (Σγ={} < M·attach={attach_due})",
                gamma_sum[i.index()]
            );
            assert!(
                supporters >= cfg.span_threshold,
                "strict-invariants: facility {i} opened in round {rounds} with \
                 {supporters} supporters < span threshold {}",
                cfg.span_threshold
            );
            open[i.index()] = true;
            for &j in &clients {
                if frozen[j.index()] || j == i {
                    continue;
                }
                if beta[i.index() * n + j.index()] > 0.0 || gamma[i.index() * n + j.index()] > 0.0 {
                    frozen[j.index()] = true;
                }
            }
            for (k, slot) in attach.iter_mut().enumerate() {
                let via = inst.connection_cost(i, NodeId::new(k));
                if via < *slot {
                    *slot = via;
                }
            }
        }
    }

    let reference: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&i| open[i.index()])
        .collect();
    assert_eq!(
        facilities,
        &reference[..],
        "strict-invariants: production dual ascent opened {facilities:?} but the \
         reference run opened {reference:?}"
    );
}

/// Compares a carried contention snapshot bitwise against a from-scratch
/// recompute for `net`'s current caching state.
///
/// The incremental `update`/`update_topology` paths promise bit-identical
/// results to `compute`; any drift (a stale per-node term, a missed path
/// invalidation) breaks the byte-identical replan guarantee, so the
/// comparison is on raw bit patterns, not epsilons.
///
/// # Panics
///
/// Panics on the first divergent term, pairwise cost, or hop count.
pub fn check_matrix_consistency(
    carried: &ContentionMatrix,
    net: &Network,
    selection: PathSelection,
    parallelism: Parallelism,
) {
    let fresh = ContentionMatrix::compute_with(net, selection, parallelism)
        .unwrap_or_else(|e| panic!("strict-invariants: fresh contention recompute failed: {e}"));
    let n = net.node_count();
    for k in 0..n {
        let node = NodeId::new(k);
        let a = carried.node_term(node);
        let b = fresh.node_term(node);
        assert!(
            a.to_bits() == b.to_bits(),
            "strict-invariants: carried node term diverged at node {k}: \
             carried {a} vs fresh {b}"
        );
    }
    for i in 0..n {
        for j in 0..n {
            let (ni, nj) = (NodeId::new(i), NodeId::new(j));
            let a = carried.cost(ni, nj);
            let b = fresh.cost(ni, nj);
            assert!(
                a.to_bits() == b.to_bits(),
                "strict-invariants: carried path cost diverged at ({i}, {j}): \
                 carried {a} vs fresh {b}"
            );
            assert_eq!(
                carried.hops(ni, nj),
                fresh.hops(ni, nj),
                "strict-invariants: carried hop count diverged at ({i}, {j})"
            );
        }
    }
}

/// Verifies that `placement`'s dissemination tree connects every caching
/// node to the producer.
///
/// Caches outside the producer's connected component are skipped: a
/// partition-tolerant world keeps detached replicas serving their own
/// island, and those are by definition not on the producer-side tree.
/// On a connected network (the default policy) nothing is skipped.
///
/// # Panics
///
/// Panics if a tree edge references an unknown node or a producer-side
/// cache is not reachable from the producer through the tree edges.
pub fn check_tree_connectivity(net: &Network, placement: &ChunkPlacement) {
    if placement.caches.is_empty() {
        return; // every client fetches from the producer; no tree needed
    }
    let n = net.node_count();
    // Union-find over node ids, restricted to the tree edges.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(a, b) in &placement.tree_edges {
        assert!(
            a.index() < n && b.index() < n,
            "strict-invariants: chunk {:?} tree edge ({a}, {b}) references a \
             node outside the network",
            placement.chunk
        );
        let (ra, rb) = (find(&mut parent, a.index()), find(&mut parent, b.index()));
        parent[ra] = rb;
    }
    let root = find(&mut parent, net.producer().index());
    for &c in &placement.caches {
        if !net.in_producer_component(c) {
            continue; // detached replica: serves its island off-tree
        }
        assert!(
            find(&mut parent, c.index()) == root,
            "strict-invariants: chunk {:?}: cache {c} is not connected to the \
             producer {} by the dissemination tree {:?}",
            placement.chunk,
            net.producer(),
            placement.tree_edges
        );
    }
}

/// Compares the network's incremental component labels against a
/// from-scratch BFS over the active subgraph.
///
/// The partition-tolerant world relies on `Network`'s labels for every
/// served/deferred audience decision; any drift (a missed split, a stale
/// merge) silently corrupts planning, so the check requires exact
/// structural equality, including component order.
///
/// # Panics
///
/// Panics if the incremental labels disagree with the BFS.
pub fn check_component_tracking(net: &Network) {
    let expected =
        peercache_graph::components::components_of_subset(net.graph(), &net.active_nodes());
    let got = net.active_components();
    assert!(
        got == expected,
        "strict-invariants: incremental component labels diverged from the \
         from-scratch BFS: incremental {got:?} vs BFS {expected:?}"
    );
}
