//! The three closed-loop workloads.
//!
//! A replay builds a world (timed as set-up), then drives it tick by
//! tick: the generator picks the tick's events outside the timed region,
//! the tick itself is timed, and the world is validated outside the
//! timed region again. Each tick's batch is sent only after the previous
//! tick has returned (one caller, closed loop). A replay is a pure
//! function of the seed, so every replay of a run must end on the same
//! digest, cost and Gini.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use peercache_core::approx::ApproxConfig;
use peercache_core::metrics;
use peercache_core::placement::ChunkPlacement;
use peercache_core::scoped::{ScopedConfig, ScopedContention};
use peercache_core::sharded::{ShardConfig, ShardedWorld, TickReport};
use peercache_core::workload::paper_grid;
use peercache_core::world::{CacheWorld, WorldEvent};
use peercache_core::{ChunkId, CoreError, Network, ReplicationPolicy};
use peercache_dist::membership::{Swim, SwimConfig};
use peercache_dist::replica::ReplicaSim;
use peercache_graph::paths::{dijkstra_edge_weighted, Parallelism};
use peercache_graph::regions::splitmix64;
use peercache_graph::{builders, NodeId};

use crate::gen::{dropped, pick_victim, Flapper, Rng};

/// Live-chunk retention of every workload (the warm-up fills it).
pub const RETENTION: usize = 6;

/// Per-node storage capacity of the sharded grids.
const NODE_CAP: usize = 5;

/// `shard-churn`: a holder is killed every this many ticks.
const KILL_EVERY: u64 = 3;

/// `shard-churn`: an arrival comes every this many ticks. Arrival ticks
/// take ten times a churn-only tick; at 12% of ticks p90 lands inside
/// that well-separated class. With arrivals under 10% it fell on the
/// steep tail of the few heaviest repair ticks and moved by a quarter
/// between runs.
const ARRIVE_EVERY: u64 = 8;

/// `shard-churn`: anti-entropy round period and read period, in ticks.
const AE_EVERY: u64 = 2;
const READ_EVERY: u64 = 3;

/// `shard-churn`: replica-message loss during the churn phase. A write
/// is acked only when all of a chunk's ~200 holders store it, so the
/// loss is kept low enough that most writes still ack.
const DROP_PERMILLE: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `grid(50,50)` sharded world, R=1, an arrival and a flap per tick.
    ShardArrivals,
    /// The same grid at R=2 with SWIM-confirmed departures and replicas.
    ShardChurn,
    /// `paper_grid(20)` through the dense `CacheWorld` with Appx.
    PaperGrid20,
}

/// Size of one replay: grid side, ticks, and (churn) quiet tail.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Grid side.
    pub side: usize,
    /// Measured ticks per replay.
    pub ticks: u64,
    /// `shard-churn`: final ticks without kills or message loss, so
    /// every death is confirmed and replicas converge.
    pub tail: u64,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::ShardArrivals,
        Workload::ShardChurn,
        Workload::PaperGrid20,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ShardArrivals => "shard-arrivals",
            Workload::ShardChurn => "shard-churn",
            Workload::PaperGrid20 => "paper-grid20",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ShardArrivals => Shape {
                side: 50,
                ticks: 30,
                tail: 0,
            },
            Workload::ShardChurn => Shape {
                side: 50,
                ticks: 150,
                tail: 40,
            },
            Workload::PaperGrid20 => Shape {
                side: 20,
                ticks: 60,
                tail: 0,
            },
        }
    }

    /// A shrunk shape (grid12 sharded, grid6 dense) for the tests.
    #[cfg(test)]
    pub fn small_shape(self) -> Shape {
        match self {
            Workload::ShardArrivals => Shape {
                side: 12,
                ticks: 8,
                tail: 0,
            },
            Workload::ShardChurn => Shape {
                side: 12,
                ticks: 60,
                tail: 30,
            },
            Workload::PaperGrid20 => Shape {
                side: 6,
                ticks: 10,
                tail: 0,
            },
        }
    }
}

/// Run settings shared by every replay of a run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload seed.
    pub seed: u64,
    /// Thread budget of the world.
    pub parallelism: Parallelism,
    /// Also time the kernel probes (scoped-store build, producer SPT);
    /// traced runs only, so they never touch the end-to-end numbers.
    pub kernels: bool,
}

/// Everything a run measures, accumulated over its replays.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Set-up wall time per replay, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time per measured tick, ms.
    pub tick_ms: Vec<f64>,
    /// Wall time of ticks carrying an arrival, ms.
    pub arrival_tick_ms: Vec<f64>,
    /// Wall time of ticks without an arrival, ms.
    pub churn_tick_ms: Vec<f64>,
    /// `(start, end)` of each measured tick, µs after the run's epoch.
    pub windows: Vec<(u64, u64)>,
    /// World events submitted.
    pub events: u64,
    /// Ticks attempted.
    pub ticks: u64,
    /// Ticks that returned `Err`, refused an event, or failed `validate`.
    pub failed: u64,
    /// First failure messages (bounded).
    pub errors: Vec<String>,
    /// Generator wall time per tick, ms.
    pub gen_ms: Vec<f64>,
    /// `TickReport` totals (sharded workloads).
    pub cross_shard_events: u64,
    /// Copies restored by repair.
    pub copies_restored: u64,
    /// Orphaned clients re-assigned.
    pub orphans_reassigned: u64,
    /// Events the world refused.
    pub events_rejected: u64,
    /// `Swim::tick` wall time, µs.
    pub swim_us: Vec<f64>,
    /// Probe messages SWIM sent (deliver-closure calls).
    pub probes: u64,
    /// Worst death → confirmation lag, ticks.
    pub detect_lag_max: u64,
    /// Confirmations of nodes that were never killed.
    pub false_positives: u64,
    /// Kills whose confirmation never came.
    pub unconfirmed: u64,
    /// `ReplicaSim::write` wall time, µs.
    pub write_us: Vec<f64>,
    /// `ReplicaSim::anti_entropy_round` wall time, µs.
    pub anti_entropy_us: Vec<f64>,
    /// Replica writes attempted / acknowledged.
    pub write_attempts: u64,
    /// Acknowledged replica writes.
    pub write_acks: u64,
    /// Anti-entropy repairs applied.
    pub repairs: u64,
    /// Acked live-chunk writes exposed to a kill.
    pub at_risk: u64,
    /// Acked live-chunk writes a kill erased.
    pub lost_writes: u64,
    /// Producer SPT over scoped edge costs, ms (kernel probe).
    pub spt_ms: Vec<f64>,
    /// `ScopedContention::new` on the workload network, ms (kernel probe).
    pub scoped_build_ms: Vec<f64>,
    /// Bytes of that scoped store.
    pub contention_bytes: u64,
}

impl Recorder {
    fn fail(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Records one measured tick.
    fn tick(&mut self, epoch: Instant, start: Instant, end: Instant, arrival: bool, events: usize) {
        let ms = (end - start).as_secs_f64() * 1e3;
        self.tick_ms.push(ms);
        if arrival {
            self.arrival_tick_ms.push(ms);
        } else {
            self.churn_tick_ms.push(ms);
        }
        let us = |i: Instant| i.saturating_duration_since(epoch).as_micros() as u64;
        self.windows.push((us(start), us(end)));
        self.events += events as u64;
        self.ticks += 1;
    }

    /// Books a sharded tick's outcome; `false` when the tick returned
    /// `Err` or refused an event (the generator only sends events the
    /// world accepts).
    fn sharded_outcome(&mut self, t: u64, result: &Result<TickReport, CoreError>) -> bool {
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                self.fail(format!("tick {t}: {e}"));
                return false;
            }
        };
        self.cross_shard_events += report.cross_events;
        self.copies_restored += report.copies_restored.len() as u64;
        self.orphans_reassigned += report.orphans_reassigned as u64;
        self.events_rejected += report.rejected as u64;
        if report.rejected > 0 {
            self.fail(format!("tick {t}: {} events refused", report.rejected));
        }
        report.rejected == 0
    }

    /// Acknowledged writes that survived ÷ those at risk (1 when no
    /// acked write was ever exposed to a kill).
    pub fn durability(&self) -> f64 {
        if self.at_risk == 0 {
            1.0
        } else {
            1.0 - self.lost_writes as f64 / self.at_risk as f64
        }
    }
}

/// The end state of one replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayEnd {
    /// `ShardedWorld::state_digest`, or the outside digest of the dense
    /// world's live placements.
    pub digest: u64,
    /// Digest of the replica stores and the SWIM state (`shard-churn`).
    pub aux_digest: u64,
    /// Σ over live chunks of access + dissemination + the copies'
    /// fairness priced without the chunk, averaged over the ticks.
    pub placement_cost: f64,
    /// Gini of per-node cached-copy counts over active non-producers,
    /// averaged over the ticks.
    pub load_gini: f64,
    /// Cached copies per live chunk, averaged over the ticks.
    pub caches_per_chunk: f64,
    /// Samples (live chunk × tick) whose `costs.total()` as the world
    /// reports it is infinite (a sharded `placement()` re-prices
    /// fairness at the current load, infinite on a full cache node).
    pub infinite_cost_chunks: u64,
    /// `ReplicaSim::converged` (`true` where there are no replicas).
    pub converged: bool,
}

impl ReplayEnd {
    /// Bitwise equality (floats compared by bits).
    pub fn same_as(&self, other: &ReplayEnd) -> bool {
        self.digest == other.digest
            && self.aux_digest == other.aux_digest
            && self.placement_cost.to_bits() == other.placement_cost.to_bits()
            && self.load_gini.to_bits() == other.load_gini.to_bits()
            && self.caches_per_chunk.to_bits() == other.caches_per_chunk.to_bits()
            && self.infinite_cost_chunks == other.infinite_cost_chunks
            && self.converged == other.converged
    }
}

/// Runs one replay of `w`, appending its measurements to `rec`.
pub fn replay(
    w: Workload,
    shape: Shape,
    cfg: Config,
    rec: &mut Recorder,
    epoch: Instant,
) -> ReplayEnd {
    match w {
        Workload::ShardArrivals => replay_arrivals(shape, cfg, rec, epoch),
        Workload::ShardChurn => replay_churn(shape, cfg, rec, epoch),
        Workload::PaperGrid20 => replay_grid(shape, cfg, rec, epoch),
    }
}

fn sharded_world(side: usize, degree: usize, parallelism: Parallelism) -> ShardedWorld {
    let net = Network::new(builders::grid(side, side), NodeId::new(0), NODE_CAP)
        .expect("grid network builds");
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism,
            replication: ReplicationPolicy::with_degree(degree),
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    let mut world = ShardedWorld::new(net, cfg)
        .expect("sharded world builds")
        .with_retention(RETENTION);
    for _ in 0..RETENTION {
        world
            .apply(WorldEvent::ChunkArrived)
            .expect("warm-up arrival places");
    }
    world
}

/// Times `ScopedContention::new` on `net` (kernel probe).
fn probe_scoped_build(net: &Network, cfg: &ApproxConfig, rec: &mut Recorder) -> ScopedContention {
    let t = Instant::now();
    let store = ScopedContention::new(net, ScopedConfig::default(), cfg.selection, cfg.parallelism)
        .expect("scoped store builds");
    rec.scoped_build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    rec.contention_bytes = store.contention_bytes();
    store
}

/// Times the producer-rooted SPT over `store`'s edge costs (kernel probe).
fn probe_spt(net: &Network, store: &ScopedContention, rec: &mut Recorder) {
    let t = Instant::now();
    let tree = dijkstra_edge_weighted(net.graph(), net.producer(), |u, v| store.edge_cost(u, v));
    black_box(tree);
    rec.spt_ms.push(t.elapsed().as_secs_f64() * 1e3);
}

fn validate(rec: &mut Recorder, t: u64, result: Result<(), CoreError>) -> bool {
    match result {
        Ok(()) => true,
        Err(e) => {
            rec.fail(format!("tick {t}: validate: {e}"));
            false
        }
    }
}

fn link_events(ups: Vec<(NodeId, NodeId)>, down: Option<(NodeId, NodeId)>) -> Vec<WorldEvent> {
    let mut events: Vec<WorldEvent> = ups
        .into_iter()
        .map(|(u, v)| WorldEvent::LinkUp(u, v))
        .collect();
    events.extend(down.map(|(u, v)| WorldEvent::LinkDown(u, v)));
    events
}

/// Gini of cached-copy counts over active non-producer nodes.
fn load_gini(net: &Network) -> f64 {
    let producer = net.producer();
    let loads: Vec<usize> = net
        .active_nodes()
        .into_iter()
        .filter(|&n| n != producer)
        .map(|n| net.cached_chunks(n).len())
        .collect();
    metrics::gini(&loads)
}

/// Eq. 1's Fairness Degree Cost of node `i` priced without one of the
/// chunks it holds: `(S(i) − 1) / (S_tot(i) − S(i) + 1)`. Finite even
/// when the node has since filled up, where `Network::fairness_cost`
/// (and so a sharded `placement()` view, which re-prices fairness at
/// the current load) is infinite.
fn fairness_without_one(net: &Network, i: NodeId) -> f64 {
    let others = net.used(i).saturating_sub(1);
    others as f64 / net.capacity(i).saturating_sub(others).max(1) as f64
}

/// Placement quality summed over a replay's ticks, each sampled at the
/// end of its tick; a replay reports the means.
#[derive(Debug, Default)]
struct Quality {
    cost: f64,
    gini: f64,
    caches: f64,
    ticks: u64,
    /// Σ over samples of live chunks whose own `costs.total()` is
    /// infinite.
    infinite: u64,
}

impl Quality {
    /// Samples the live placements: each chunk costs its access and
    /// dissemination terms plus its copies' fairness priced without it.
    fn add(&mut self, net: &Network, fairness_weight: f64, live: &[ChunkPlacement]) {
        for p in live {
            let fairness: f64 = p.caches.iter().map(|&i| fairness_without_one(net, i)).sum();
            self.cost += fairness_weight * fairness + p.costs.access + p.costs.dissemination;
        }
        let copies: usize = live.iter().map(|p| p.caches.len()).sum();
        self.caches += copies as f64 / live.len().max(1) as f64;
        self.gini += load_gini(net);
        self.infinite += live.iter().filter(|p| !p.costs.total().is_finite()).count() as u64;
        self.ticks += 1;
    }

    fn end(&self, digest: u64, aux_digest: u64, converged: bool) -> ReplayEnd {
        let n = self.ticks.max(1) as f64;
        ReplayEnd {
            digest,
            aux_digest,
            placement_cost: self.cost / n,
            load_gini: self.gini / n,
            caches_per_chunk: self.caches / n,
            infinite_cost_chunks: self.infinite,
            converged,
        }
    }
}

fn sharded_sample(world: &ShardedWorld, quality: &mut Quality) {
    let live: Vec<ChunkPlacement> = world
        .live_chunks()
        .into_iter()
        .filter_map(|c| world.placement(c))
        .collect();
    quality.add(
        world.network(),
        world.config().approx.weights.fairness,
        &live,
    );
}

fn replay_arrivals(shape: Shape, cfg: Config, rec: &mut Recorder, epoch: Instant) -> ReplayEnd {
    let t0 = Instant::now();
    let mut world = sharded_world(shape.side, 1, cfg.parallelism);
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    if cfg.kernels {
        probe_scoped_build(world.network(), &world.config().approx, rec);
    }
    let mut flaps = Flapper::new(cfg.seed);
    let mut quality = Quality::default();
    for t in 1..=shape.ticks {
        let g = Instant::now();
        let mut probe = world.network().clone();
        let ups = flaps.due_ups(t, &mut probe, |_| true);
        let down = flaps.pick_down(t, &mut probe, |_| true);
        let mut events = link_events(ups, down);
        events.push(WorldEvent::ChunkArrived);
        rec.gen_ms.push(g.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let result = world.tick(&events);
        rec.tick(epoch, start, Instant::now(), true, events.len());
        let mut ok = rec.sharded_outcome(t, &result);
        ok &= validate(rec, t, world.validate());
        rec.failed += u64::from(!ok);
        sharded_sample(&world, &mut quality);
        if cfg.kernels {
            probe_spt(world.network(), world.scoped(), rec);
        }
    }
    quality.end(world.state_digest(), 0, true)
}

/// SWIM parameters of `shard-churn`.
fn swim_config(seed: u64) -> SwimConfig {
    SwimConfig {
        ping_period: 1,
        suspect_timeout: 16,
        ping_req_fanout: 2,
        seed: splitmix64(seed ^ 0x5717),
    }
}

fn caches(world: &ShardedWorld, chunk: ChunkId) -> Vec<NodeId> {
    world
        .chunk(chunk)
        .map(|sc| sc.caches.clone())
        .unwrap_or_default()
}

/// Live chunks whose acknowledged write has no surviving copy.
fn lost_live(replica: &ReplicaSim, live: &[ChunkId]) -> BTreeSet<ChunkId> {
    replica
        .lost_acked_writes()
        .into_iter()
        .map(|(c, _)| c)
        .filter(|c| live.contains(c))
        .collect()
}

fn replay_churn(shape: Shape, cfg: Config, rec: &mut Recorder, epoch: Instant) -> ReplayEnd {
    let t0 = Instant::now();
    let mut world = sharded_world(shape.side, 2, cfg.parallelism);
    let n = world.network().node_count();
    let producer = world.network().producer();
    let mut replica = ReplicaSim::new(n);
    let mut swim = Swim::new(
        (0..n).map(NodeId::new).filter(|&v| v != producer),
        swim_config(cfg.seed),
    );
    // The first probe round builds every member's ring: set-up work.
    swim.tick(0, &mut |_, _, _| true);
    for c in world.live_chunks() {
        replica.write(c, producer, &caches(&world, c), |_, _| true);
    }
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    if cfg.kernels {
        probe_scoped_build(world.network(), &world.config().approx, rec);
    }

    let mut flaps = Flapper::new(cfg.seed);
    let mut quality = Quality::default();
    let mut victims = Rng::new(cfg.seed, 0xDEAD);
    let mut readers = Rng::new(cfg.seed, 0x8EAD);
    let mut killed_at: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut confirmed_total = 0u64;
    let mut attempted: BTreeMap<ChunkId, Vec<NodeId>> = BTreeMap::new();
    let churn_end = shape.ticks - shape.tail;
    for t in 1..=shape.ticks {
        let g = Instant::now();
        let net = world.network();
        let mut probe = net.clone();
        let pending: Vec<NodeId> = killed_at
            .keys()
            .copied()
            .filter(|&d| net.is_active(d))
            .collect();
        for &d in &pending {
            // Accepted when the victim was picked; stays accepted since
            // flaps never touch a dead node's links.
            let _ = probe.deactivate_node(d);
        }
        if t <= churn_end && t % KILL_EVERY == 0 {
            let live = world.live_chunks();
            let mut holders: Vec<NodeId> = live
                .iter()
                .flat_map(|&c| caches(&world, c))
                .filter(|&h| h != producer && !killed_at.contains_key(&h))
                .collect();
            holders.sort_unstable();
            holders.dedup();
            // One fault per chunk at a time (the R=2 fault model): the
            // victim has no dying neighbour, and every live chunk it
            // holds is fully re-replicated on live nodes.
            let eligible = |v: NodeId| {
                net.graph().neighbors(v).all(|u| !pending.contains(&u))
                    && live.iter().all(|&c| {
                        let hs = caches(&world, c);
                        !hs.contains(&v)
                            || (replica.hosts(c) == hs.as_slice()
                                && hs.iter().all(|h| !killed_at.contains_key(h)))
                    })
            };
            if let Some(v) = pick_victim(&mut victims, &holders, &mut probe, eligible) {
                let before = lost_live(&replica, &live);
                rec.at_risk += live
                    .iter()
                    .filter(|c| replica.acked_versions().contains_key(c))
                    .count() as u64;
                replica.kill(v);
                killed_at.insert(v, t);
                rec.lost_writes += lost_live(&replica, &live).difference(&before).count() as u64;
            }
        }
        let dead = |u: NodeId| killed_at.contains_key(&u);
        let ups = flaps.due_ups(t, &mut probe, |u| !dead(u));
        let down = flaps.pick_down(t, &mut probe, |u| !dead(u));
        let links = link_events(ups, down);
        let arrival = t % ARRIVE_EVERY == 0;
        let reader = NodeId::new(readers.below(n));
        rec.gen_ms.push(g.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let mut probes = 0u64;
        swim.tick(t, &mut |_, a, b| {
            probes += 1;
            !dead(a) && !dead(b)
        });
        rec.swim_us.push(start.elapsed().as_secs_f64() * 1e6);
        let confirmed = swim.take_confirmed();
        let mut events: Vec<WorldEvent> = confirmed
            .iter()
            .map(|&d| WorldEvent::NodeDeparted(d))
            .collect();
        events.extend(links);
        if arrival {
            events.push(WorldEvent::ChunkArrived);
        }
        let result = world.tick(&events);
        let lossy = t <= churn_end;
        let reach = |a: NodeId, b: NodeId| {
            let lost = lossy && dropped(cfg.seed, t, a, b, DROP_PERMILLE);
            !(dead(a) || dead(b) || lost)
        };
        let live = world.live_chunks();
        for &c in &live {
            let hs = caches(&world, c);
            // Write on a holder change; retry an unacknowledged write
            // on anti-entropy ticks.
            let changed = attempted.get(&c) != Some(&hs);
            if !hs.is_empty() && replica.hosts(c) != hs.as_slice() && (changed || t % AE_EVERY == 0)
            {
                attempted.insert(c, hs.clone());
                let w = Instant::now();
                let out = replica.write(c, producer, &hs, reach);
                rec.write_us.push(w.elapsed().as_secs_f64() * 1e6);
                rec.write_attempts += 1;
                rec.write_acks += u64::from(out.acked);
            }
        }
        if t % AE_EVERY == 0 {
            let a = Instant::now();
            rec.repairs += replica.anti_entropy_round(reach) as u64;
            rec.anti_entropy_us.push(a.elapsed().as_secs_f64() * 1e6);
        }
        if t % READ_EVERY == 0 {
            if let (Some(&c), false) = (live.last(), dead(reader)) {
                black_box(replica.read(c, reader, reach));
            }
        }
        rec.tick(epoch, start, Instant::now(), arrival, events.len());
        rec.probes += probes;

        let mut ok = rec.sharded_outcome(t, &result);
        for d in confirmed {
            confirmed_total += 1;
            match killed_at.get(&d) {
                Some(&at) => rec.detect_lag_max = rec.detect_lag_max.max(t - at),
                None => {
                    rec.false_positives += 1;
                    rec.fail(format!("tick {t}: SWIM confirmed live node {d}"));
                    ok = false;
                }
            }
        }
        ok &= validate(rec, t, world.validate());
        rec.failed += u64::from(!ok);
        sharded_sample(&world, &mut quality);
        if cfg.kernels {
            probe_spt(world.network(), world.scoped(), rec);
        }
    }
    let killed = killed_at.len() as u64;
    if confirmed_total < killed {
        rec.unconfirmed += killed - confirmed_total;
        rec.fail(format!(
            "{} of {killed} kills never confirmed",
            killed - confirmed_total
        ));
    }
    let aux = splitmix64(replica.digest() ^ splitmix64(swim.digest()));
    quality.end(world.state_digest(), aux, replica.converged())
}

/// Outside digest of a dense world: active set, per-node caches and
/// every live placement (caches, assignment, tree, cost bits).
fn dense_digest(world: &CacheWorld) -> u64 {
    let mut h = 0x4445_4e53_4557_4f52u64; // "DENSEWOR"
    let mut mix = |x: u64| h = splitmix64(h ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let net = world.network();
    for u in 0..net.node_count() {
        let node = NodeId::new(u);
        mix(u64::from(net.is_active(node)));
        for &c in net.cached_chunks(node) {
            mix(c.index() as u64 + 1);
        }
        mix(u64::MAX);
    }
    for &chunk in world.live_chunks() {
        mix(chunk.index() as u64);
        if let Some(p) = world.placement(chunk) {
            for &i in &p.caches {
                mix(i.index() as u64);
            }
            for &(j, i) in &p.assignment {
                mix(((j.index() as u64) << 32) | i.index() as u64);
            }
            for &(a, b) in &p.tree_edges {
                mix(((a.index() as u64) << 32) | b.index() as u64);
            }
            mix(p.costs.total().to_bits());
        }
    }
    h
}

fn replay_grid(shape: Shape, cfg: Config, rec: &mut Recorder, epoch: Instant) -> ReplayEnd {
    let t0 = Instant::now();
    let net = paper_grid(shape.side).expect("paper grid builds");
    let approx = ApproxConfig {
        parallelism: cfg.parallelism,
        ..ApproxConfig::default()
    };
    let mut world = CacheWorld::new(net, approx).with_retention(RETENTION);
    for _ in 0..RETENTION {
        world
            .apply(WorldEvent::ChunkArrived)
            .expect("warm-up arrival places");
    }
    rec.setup_s.push(t0.elapsed().as_secs_f64());
    let store = cfg
        .kernels
        .then(|| probe_scoped_build(world.network(), world.config(), rec));

    let mut flaps = Flapper::new(cfg.seed);
    let mut quality = Quality::default();
    let mut victims = Rng::new(cfg.seed, 0xDEAD);
    for t in 1..=shape.ticks {
        let g = Instant::now();
        let net = world.network();
        let producer = net.producer();
        let mut probe = net.clone();
        // Half the picks target a cache holder, so repair has work.
        let mut candidates: Vec<NodeId> = if victims.below(2) == 0 {
            world
                .live_chunks()
                .iter()
                .flat_map(|&c| net.holders(c))
                .collect()
        } else {
            net.active_nodes()
        };
        candidates.retain(|&v| v != producer);
        candidates.sort_unstable();
        candidates.dedup();
        let victim = pick_victim(&mut victims, &candidates, &mut probe, |_| true);
        let active: Vec<bool> = (0..net.node_count())
            .map(|u| probe.is_active(NodeId::new(u)))
            .collect();
        let ups = flaps.due_ups(t, &mut probe, |u| active[u.index()]);
        let down = flaps.pick_down(t, &mut probe, |_| true);
        let mut events: Vec<WorldEvent> =
            victim.map(WorldEvent::NodeDeparted).into_iter().collect();
        events.extend(link_events(ups, down));
        events.push(WorldEvent::ChunkArrived);
        rec.gen_ms.push(g.elapsed().as_secs_f64() * 1e3);

        let start = Instant::now();
        let mut errors = Vec::new();
        for ev in &events {
            if let Err(e) = world.apply(ev.clone()) {
                errors.push(format!("tick {t}: {ev:?}: {e}"));
            }
        }
        rec.tick(epoch, start, Instant::now(), true, events.len());
        let mut ok = errors.is_empty();
        for e in errors {
            rec.fail(e);
        }
        ok &= validate(rec, t, world.validate());
        rec.failed += u64::from(!ok);
        let live: Vec<ChunkPlacement> = world
            .live_chunks()
            .iter()
            .filter_map(|&c| world.placement(c).cloned())
            .collect();
        quality.add(world.network(), world.config().weights.fairness, &live);
        if let Some(store) = &store {
            probe_spt(world.network(), store, rec);
        }
    }
    quality.end(dense_digest(&world), 0, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload, parallelism: Parallelism) -> (ReplayEnd, Recorder) {
        let cfg = Config {
            seed: 11,
            parallelism,
            kernels: false,
        };
        let mut rec = Recorder::default();
        let end = replay(w, w.small_shape(), cfg, &mut rec, Instant::now());
        (end, rec)
    }

    #[test]
    fn shrunk_workloads_replay_identically_across_parallelism() {
        for w in Workload::ALL {
            let (seq, rec) = small(w, Parallelism::Sequential);
            assert_eq!(rec.failed, 0, "{}: {:?}", w.name(), rec.errors);
            assert!(seq.converged, "{}: replicas converge", w.name());
            let (threaded, _) = small(w, Parallelism::Threads(2));
            assert!(
                seq.same_as(&threaded),
                "{}: Sequential != Threads(2)",
                w.name()
            );
            let (again, _) = small(w, Parallelism::Threads(2));
            assert!(threaded.same_as(&again), "{}: replay diverged", w.name());
        }
    }

    #[test]
    fn shrunk_churn_kills_confirms_and_keeps_every_acked_write() {
        let (_, rec) = small(Workload::ShardChurn, Parallelism::Sequential);
        assert!(rec.at_risk > 0, "kills expose acked writes");
        assert_eq!(rec.lost_writes, 0);
        assert_eq!(rec.false_positives, 0);
        assert_eq!(rec.unconfirmed, 0);
        assert!(rec.probes > 0 && rec.write_attempts > 0);
    }

    #[test]
    fn fairness_of_a_full_cache_stays_finite_without_one_chunk() {
        let mut net = Network::new(builders::grid(2, 2), NodeId::new(0), 2).unwrap();
        let node = NodeId::new(3);
        net.cache(node, ChunkId::new(0)).unwrap();
        assert_eq!(fairness_without_one(&net, node), 0.0);
        net.cache(node, ChunkId::new(1)).unwrap();
        assert!(net.fairness_cost(node).is_infinite());
        assert_eq!(fairness_without_one(&net, node), 1.0);
    }

    #[test]
    fn seeds_change_the_trace() {
        let cfg = |seed| Config {
            seed,
            parallelism: Parallelism::Sequential,
            kernels: false,
        };
        let w = Workload::PaperGrid20;
        let a = replay(
            w,
            w.small_shape(),
            cfg(1),
            &mut Recorder::default(),
            Instant::now(),
        );
        let b = replay(
            w,
            w.small_shape(),
            cfg(2),
            &mut Recorder::default(),
            Instant::now(),
        );
        assert_ne!(a.digest, b.digest);
    }
}
