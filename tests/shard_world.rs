//! Determinism suite for the region-sharded world: the same long
//! seeded churn trace (arrivals, retirements, departures, joins, link
//! flaps) must drive [`ShardedWorld`] to a **byte-identical state
//! digest** — and identical per-tick reports, span counts, and
//! cross-shard routing totals — under every [`Parallelism`] setting.
//! The thread knob is pure wall-clock; any divergence is a scheduling
//! leak in the shard fan-out.
//!
//! It also pins the scoped store's mark/settle contract inside the
//! world: a degree-preserving link swap must still refresh the blocks
//! it rewires, and the `scoped.settle` spans (at most one per arrival
//! tick) must match across thread settings.
//!
//! `scripts/check.sh` re-runs this suite with `--features
//! strict-invariants`, arming the per-tick oracles (full state
//! validation plus a from-scratch scoped-contention rebuild compare)
//! inside every `tick`.

use std::path::Path;
use std::process::Command;

use peercache::approx::ApproxConfig;
use peercache::costs::ContentionMatrix;
use peercache::graph::paths::{Parallelism, PathSelection};
use peercache::obs;
use peercache::prelude::*;

/// Tiny xorshift64 generator so the trace is deterministic without
/// pulling a RNG crate into the integration tests.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Keep at least this many active nodes so departures cannot hollow
/// out the audience entirely.
const MIN_ACTIVE: usize = 8;

/// Events per tick batch; [`TICKS`] batches ≥ 200 events total.
const BATCH: usize = 5;

/// Churn ticks driven per trace.
const TICKS: usize = 45;

fn shard_world(net: Network, par: Parallelism) -> ShardedWorld {
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism: par,
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig::default(),
    };
    ShardedWorld::new(net, cfg)
        .expect("sharded world builds")
        .with_retention(5)
}

/// Draws one event from the trace RNG against the current world state.
/// Worlds under different thread settings evolve identically (that is
/// the property under test), so the state-dependent picks stay in
/// lockstep as long as the RNG sequence matches.
fn draw_event(world: &ShardedWorld, rng: &mut XorShift) -> WorldEvent {
    let roll = rng.below(100);
    if roll < 45 || world.live_chunks().is_empty() {
        WorldEvent::ChunkArrived
    } else if roll < 58 {
        let live = world.live_chunks();
        WorldEvent::ChunkRetired(live[rng.below(live.len())])
    } else if roll < 73 {
        let producer = world.network().producer();
        let candidates: Vec<NodeId> = world
            .network()
            .active_nodes()
            .into_iter()
            .filter(|&n| n != producer)
            .collect();
        if candidates.len() < MIN_ACTIVE {
            WorldEvent::ChunkArrived
        } else {
            WorldEvent::NodeDeparted(candidates[rng.below(candidates.len())])
        }
    } else if roll < 81 {
        let active = world.network().active_nodes();
        let a = active[rng.below(active.len())];
        let b = active[rng.below(active.len())];
        let neighbors = if a == b { vec![a] } else { vec![a, b] };
        WorldEvent::NodeJoined {
            neighbors,
            capacity: 3 + rng.below(3),
        }
    } else if roll < 91 {
        let edges: Vec<(NodeId, NodeId)> = world.network().graph().edges().collect();
        let (u, v) = edges[rng.below(edges.len())];
        WorldEvent::LinkDown(u, v)
    } else {
        let active = world.network().active_nodes();
        let a = active[rng.below(active.len())];
        let b = active[rng.below(active.len())];
        if a == b {
            WorldEvent::ChunkArrived
        } else {
            WorldEvent::LinkUp(a, b)
        }
    }
}

/// Outcome of one full trace under one thread setting.
struct TraceRun {
    reports: Vec<TickReport>,
    digest: u64,
    spans: u64,
    cross_events: u64,
    applied: u64,
    rejected: u64,
}

/// Drives [`TICKS`] batches of [`BATCH`] events through a fresh world
/// on `net` and returns everything comparable about the run.
fn run_trace(net: Network, par: Parallelism, seed: u64) -> TraceRun {
    let mut world = shard_world(net, par);
    let mut rng = XorShift::new(seed);
    let mut reports = Vec::with_capacity(TICKS);
    for _ in 0..TICKS {
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            batch.push(draw_event(&world, &mut rng));
        }
        let report = world.tick(&batch).expect("tick never fails wholesale");
        world
            .validate()
            .expect("world must stay consistent after every tick");
        reports.push(report);
    }
    TraceRun {
        digest: world.state_digest(),
        spans: world.span_count(),
        cross_events: world.cross_shard_events(),
        applied: world.events_applied(),
        rejected: world.events_rejected(),
        reports,
    }
}

/// The parallelism sweep of the suite: serial, two workers, and
/// whatever the host auto-detects.
fn settings() -> [Parallelism; 3] {
    [
        Parallelism::Sequential,
        Parallelism::Threads(2),
        Parallelism::Auto,
    ]
}

/// End state a trace must reach: `(digest, cross_events, spans)`.
/// Pinned so a change to how shard rows are written or crossings are
/// counted cannot move the joins, retirements and handoffs these traces
/// drive unnoticed, even when it moves every thread setting alike.
type Pinned = (u64, u64, u64);

/// End state of the 14x14 grid trace (seed `0x5EED_0001`).
const GRID_PINNED: Pinned = (0xd5b0_814c_cdad_c68c, 23_214, 150);

/// End state of the 120-node random geometric trace (seed `0x5EED_0002`).
const RGG_PINNED: Pinned = (0x7b2d_4a4e_7cdf_b4c6, 1_412, 149);

fn assert_identical_runs(mut make_net: impl FnMut() -> Network, seed: u64, pinned: Pinned) {
    let baseline = run_trace(make_net(), Parallelism::Sequential, seed);
    assert_eq!(
        (baseline.digest, baseline.cross_events, baseline.spans),
        pinned,
        "end state (digest, cross_events, spans) left the pinned values"
    );
    assert_eq!(
        baseline.applied + baseline.rejected,
        (TICKS * BATCH) as u64,
        "trace must attempt every drawn event"
    );
    assert!(
        baseline.applied >= 200,
        "trace too short: only {} events applied",
        baseline.applied
    );
    assert!(
        baseline.reports.iter().any(|r| !r.departed.is_empty()),
        "trace must exercise departures"
    );
    assert!(
        baseline.reports.iter().any(|r| !r.joined.is_empty()),
        "trace must exercise joins"
    );
    assert!(baseline.cross_events > 0, "trace must route across shards");
    for par in settings().into_iter().skip(1) {
        let run = run_trace(make_net(), par, seed);
        assert_eq!(
            run.digest, baseline.digest,
            "{par:?} diverged from Sequential: state digest differs"
        );
        assert_eq!(run.spans, baseline.spans, "{par:?}: span count differs");
        assert_eq!(
            run.cross_events, baseline.cross_events,
            "{par:?}: cross-shard event count differs"
        );
        assert_eq!(run.applied, baseline.applied);
        assert_eq!(run.rejected, baseline.rejected);
        assert_eq!(
            run.reports, baseline.reports,
            "{par:?}: per-tick reports differ"
        );
    }
}

#[test]
fn grid_churn_trace_is_byte_identical_across_thread_settings() {
    assert_identical_runs(
        || Network::new(builders::grid(14, 14), NodeId::new(0), 5).expect("grid network builds"),
        0x5EED_0001,
        GRID_PINNED,
    );
}

#[test]
fn random_geometric_churn_trace_is_byte_identical_across_thread_settings() {
    assert_identical_runs(
        || paper_random(120, 7).expect("rgg network builds"),
        0x5EED_0002,
        RGG_PINNED,
    );
}

/// Re-running the identical trace twice under the *same* setting must
/// also reproduce bit-for-bit — cross-run determinism, the property the
/// committed `BENCH_shard.json` digest rests on.
#[test]
fn traces_replay_identically_across_runs() {
    let net =
        || Network::new(builders::grid(12, 12), NodeId::new(0), 5).expect("grid network builds");
    let a = run_trace(net(), Parallelism::Auto, 0xDECADE);
    let b = run_trace(net(), Parallelism::Auto, 0xDECADE);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.spans, b.spans);
    assert_eq!(a.reports, b.reports);
}

/// Regression: a degree-preserving link swap inside one tick leaves
/// every degree — hence every contention term — bitwise unchanged, so
/// an invalidation driven by the term diff alone rebuilds no block and
/// leaves the rewired balls stale. The edited links' endpoints must
/// mark their blocks whatever the term diff says. Under
/// `strict-invariants` the per-tick oracle catches a stale block at the
/// swap tick; without it, the dense-matrix comparison below does.
#[test]
fn degree_preserving_link_swap_refreshes_the_scoped_store() {
    let net = Network::new(builders::grid(6, 6), NodeId::new(0), 3).expect("grid network builds");
    let cfg = ShardConfig {
        approx: ApproxConfig::default(),
        scoped: ScopedConfig {
            region_max: 12,
            halo_hops: 2,
            landmarks: 4,
            seed: 7,
        },
    };
    let mut world = ShardedWorld::new(net, cfg).expect("sharded world builds");
    world
        .apply(WorldEvent::ChunkArrived)
        .expect("arrival places");
    let id = NodeId::new;
    // A departure settles every block the arrival's commit marked, so
    // nothing is pending when the swap lands.
    world
        .apply(WorldEvent::NodeDeparted(id(35)))
        .expect("departure applies");
    let report = world
        .tick(&[
            WorldEvent::LinkDown(id(7), id(8)),
            WorldEvent::LinkDown(id(19), id(20)),
            WorldEvent::LinkUp(id(7), id(19)),
            WorldEvent::LinkUp(id(8), id(20)),
        ])
        .expect("swap tick applies");
    assert_eq!((report.links_removed, report.links_added), (2, 2));
    world.validate().expect("consistent after the swap");
    // Another far departure settles every pending block before repair;
    // repair commits refresh eagerly, so the store is fully settled
    // afterwards and every exact answer must match the dense matrix of
    // the rewired graph.
    world
        .apply(WorldEvent::NodeDeparted(id(30)))
        .expect("departure applies");
    world.validate().expect("consistent after the departure");
    let net = world.network();
    let dense = ContentionMatrix::compute(net, PathSelection::FewestHops).expect("dense matrix");
    assert_eq!(dense.hops(id(7), id(8)), Some(3), "the swap rewired 7-8");
    let mut exact = 0usize;
    for u in net.graph().nodes() {
        for v in net.graph().nodes() {
            if world.scoped().is_exact(u, v) {
                exact += 1;
                assert_eq!(
                    world.scoped().cost(u, v).to_bits(),
                    dense.cost(u, v).to_bits(),
                    "exact pair ({u},{v}) is stale after the swap"
                );
            }
        }
    }
    assert!(exact > net.node_count(), "too few exact pairs checked");
}

/// Ticks of the traced settle run below.
const SETTLE_TICKS: usize = 16;

/// One arrival and one link flap per tick on a 12x12 grid — the
/// arrival path of the `shard-arrivals` workload in miniature.
fn run_settle_trace(par: Parallelism) {
    let net = Network::new(builders::grid(12, 12), NodeId::new(0), 4).expect("grid network builds");
    let cfg = ShardConfig {
        approx: ApproxConfig {
            parallelism: par,
            ..ApproxConfig::default()
        },
        scoped: ScopedConfig {
            region_max: 24,
            ..ScopedConfig::default()
        },
    };
    let mut world = ShardedWorld::new(net, cfg)
        .expect("sharded world builds")
        .with_retention(4);
    let mut down: Option<(NodeId, NodeId)> = None;
    for t in 0..SETTLE_TICKS {
        let mut batch = vec![WorldEvent::ChunkArrived];
        if let Some((u, v)) = down.take() {
            batch.push(WorldEvent::LinkUp(u, v));
        }
        let edges: Vec<(NodeId, NodeId)> = world.network().graph().edges().collect();
        let (u, v) = edges[(t * 37 + 11) % edges.len()];
        batch.push(WorldEvent::LinkDown(u, v));
        down = Some((u, v));
        world.tick(&batch).expect("tick applies");
    }
    obs::flush();
}

#[test]
#[ignore = "emitter helper; run by scoped_settle_spans_match_across_thread_settings"]
fn emit_settle_trace_sequential() {
    run_settle_trace(Parallelism::Sequential);
}

#[test]
#[ignore = "emitter helper; run by scoped_settle_spans_match_across_thread_settings"]
fn emit_settle_trace_threads() {
    run_settle_trace(Parallelism::Threads(2));
}

/// Re-executes this test binary with `PEERCACHE_TRACE={path}` (the
/// sink latches the variable once per process) running only the named
/// ignored emitter, and returns the `(blocks, oracle)` fields of every
/// `scoped.settle` span plus the `world.tick` span count. Every
/// captured record must name each of its keys once.
fn settle_capture(emitter: &str, path: &Path) -> (Vec<(u64, bool)>, usize) {
    let _ = std::fs::remove_file(path); // the sink appends
    let exe = std::env::current_exe().expect("test binary path");
    let output = Command::new(exe)
        .args(["--ignored", "--exact", emitter, "--test-threads=1"])
        .env("PEERCACHE_TRACE", path)
        .output()
        .expect("spawn emitter child");
    assert!(
        output.status.success(),
        "emitter {emitter} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let capture = std::fs::read_to_string(path).expect("read capture");
    let _ = std::fs::remove_file(path);
    let (mut settles, mut ticks) = (Vec::new(), 0usize);
    for line in capture.lines() {
        let rec = obs::Json::parse(line).expect("capture line parses");
        let mut keys: Vec<&str> = rec
            .as_obj()
            .expect("capture record is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let count = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            count,
            "duplicate key in captured record: {line}"
        );
        if rec.get("kind").and_then(obs::Json::as_str) != Some("span") {
            continue;
        }
        match rec.get("name").and_then(obs::Json::as_str) {
            Some("world.tick") => ticks += 1,
            Some("scoped.settle") => settles.push((
                rec.get("blocks")
                    .and_then(obs::Json::as_u64)
                    .expect("blocks field"),
                rec.get("oracle")
                    .and_then(obs::Json::as_bool)
                    .expect("oracle field"),
            )),
            _ => {}
        }
    }
    (settles, ticks)
}

/// The store settles at most once per arrival tick — commit, flap and
/// retire share one block sweep — and the `scoped.settle` spans, with
/// their fields, are identical under every thread setting.
#[test]
fn scoped_settle_spans_match_across_thread_settings() {
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!(
            "peercache_settle_{}_{tag}.jsonl",
            std::process::id()
        ))
    };
    let (seq, seq_ticks) = settle_capture("emit_settle_trace_sequential", &tmp("seq"));
    let (par, par_ticks) = settle_capture("emit_settle_trace_threads", &tmp("par"));
    assert_eq!(seq_ticks, SETTLE_TICKS);
    assert_eq!(par_ticks, SETTLE_TICKS);
    assert_eq!(
        seq, par,
        "settle spans differ between Sequential and Threads(2)"
    );
    assert!(!seq.is_empty(), "no settle was traced");
    assert!(
        seq.len() <= SETTLE_TICKS,
        "{} settles in {SETTLE_TICKS} arrival ticks",
        seq.len()
    );
    assert!(seq.iter().all(|&(blocks, _)| blocks > 0));
}
