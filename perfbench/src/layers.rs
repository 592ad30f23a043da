//! `--trace 1`: the per-layer breakdown.
//!
//! The run measures half its time untraced (tick timers, counts and the
//! reference digest), then starts itself again as a worker with
//! `PEERCACHE_TRACE` pointing at a capture file. The worker repeats the
//! same seeded replays with the kernel probes on, reduces its own
//! capture, and hands its numbers back as one JSON line.

use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::Instant;

use peercache_obs::{self as obs, Json};

use crate::reduce::{field_mean, parse_capture, reduce};
use crate::stats::median;
use crate::workloads::{Config, ReplayEnd};
use crate::{check_run, measure, metric, metrics_json, print_result, Args, Metric};

/// Per-layer metrics of the result line (and of `BENCHMARK.json`):
/// the ones every workload measures. Layers that only one engine runs
/// (SWIM and replica timers, APSP, dense repair) are printed in the
/// table above the result line instead.
pub const PER_LAYER: [&str; 19] = [
    "world.tick_arrival_ms",
    "planner.chunk_ms",
    "planner.caches_per_chunk",
    "trace.attributed_share",
    "trace.overhead",
    "scoped.build_ms",
    "scoped.contention_bytes",
    "graph.spt_ms",
    "apsp.rows_recomputed",
    "sharded.cross_shard_events",
    "sharded.copies_restored",
    "sharded.orphans_reassigned",
    "sharded.events_rejected",
    "membership.probes",
    "membership.detect_lag_max",
    "membership.false_positives",
    "replica.repairs",
    "replica.write_ack_ratio",
    "bench.generator_ms",
];

/// Layer metrics taken from the untraced half. Counts are per replay,
/// so they do not depend on how many replays a run fits in.
fn untraced_layers(run: &crate::Run) -> Vec<Metric> {
    let rec = &run.rec;
    let replays = run.ends.len() as f64;
    let per_replay = |count: u64| count as f64 / replays;
    let p50 = |samples: &[f64]| median(samples).unwrap_or(f64::NAN);
    let ack_ratio = if rec.write_attempts == 0 {
        1.0
    } else {
        rec.write_acks as f64 / rec.write_attempts as f64
    };
    vec![
        metric("world.tick_arrival_ms", p50(&rec.arrival_tick_ms), "ms"),
        metric("world.tick_churn_ms", p50(&rec.churn_tick_ms), "ms"),
        metric(
            "planner.caches_per_chunk",
            run.ends[0].caches_per_chunk,
            "count",
        ),
        metric(
            "sharded.cross_shard_events",
            per_replay(rec.cross_shard_events),
            "count",
        ),
        metric(
            "sharded.copies_restored",
            per_replay(rec.copies_restored),
            "count",
        ),
        metric(
            "sharded.orphans_reassigned",
            per_replay(rec.orphans_reassigned),
            "count",
        ),
        metric(
            "sharded.events_rejected",
            per_replay(rec.events_rejected),
            "count",
        ),
        metric("membership.tick_us", p50(&rec.swim_us), "us"),
        metric("membership.probes", per_replay(rec.probes), "count"),
        metric(
            "membership.detect_lag_max",
            rec.detect_lag_max as f64,
            "ticks",
        ),
        metric(
            "membership.false_positives",
            rec.false_positives as f64,
            "count",
        ),
        metric("replica.write_us", p50(&rec.write_us), "us"),
        metric("replica.anti_entropy_us", p50(&rec.anti_entropy_us), "us"),
        metric("replica.repairs", per_replay(rec.repairs), "count"),
        metric("replica.write_ack_ratio", ack_ratio, "ratio"),
        metric("bench.generator_ms", p50(&rec.gen_ms), "ms"),
    ]
}

fn capture_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    dir.join(format!(
        "perfbench-capture-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

/// The end-state fields a traced run must reproduce bit for bit.
fn end_fields(end: &ReplayEnd) -> [(&'static str, String); 4] {
    [
        ("digest", format!("{:#018x}", end.digest)),
        ("aux_digest", format!("{:#018x}", end.aux_digest)),
        (
            "cost_bits",
            format!("{:#018x}", end.placement_cost.to_bits()),
        ),
        ("gini_bits", format!("{:#018x}", end.load_gini.to_bits())),
    ]
}

/// The traced worker: replays, reduces its capture, prints one JSON line.
pub fn traced_worker(args: &Args, cfg: Config) -> bool {
    // Open the sink first, then pin the capture epoch to `epoch`: the
    // first record starts the capture's clock.
    let tracing = obs::enabled();
    let epoch = Instant::now();
    obs::event("bench.run", &[]);
    let run = measure(args.workload, cfg, args.seconds, 1, epoch);
    obs::flush();
    let mut bad = check_run(args.workload, args.seed, &run);
    if !tracing {
        bad.push("worker started without PEERCACHE_TRACE".into());
    }
    let path = std::env::var("PEERCACHE_TRACE").unwrap_or_default();
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let spans = parse_capture(&text).unwrap_or_else(|e| {
        bad.push(e);
        Vec::new()
    });
    let red = reduce(&spans, &run.rec.windows);
    let matched = red.by_name.get("world.tick").map_or(0, Vec::len) as u64;
    if spans.iter().any(|s| s.name == "world.tick") && matched != run.rec.ticks {
        bad.push(format!(
            "capture: {matched} world.tick spans inside {} measured ticks",
            run.rec.ticks
        ));
    }
    println!(
        "{:<24} {:>7} {:>10} {:>11} {:>11} {:>8}",
        "span (inside ticks)", "count", "p50_ms", "total_ms", "self_ms", "share"
    );
    for r in &red.rows {
        println!(
            "{:<24} {:>7} {:>10.3} {:>11.2} {:>11.2} {:>8.4}",
            r.name, r.count, r.p50_ms, r.total_ms, r.self_ms, r.share
        );
    }
    let rec = &run.rec;
    let span_p50 = |name| red.p50_ms(name).unwrap_or(f64::NAN);
    let rows_recomputed: f64 = ["apsp.update", "apsp.update_topology"]
        .iter()
        .flat_map(|n| red.by_name.get(*n).into_iter().flatten())
        .filter_map(|&i| {
            spans[i]
                .field("recomputed_sources")
                .or(spans[i].field("sources"))
        })
        .fold(0.0, |a, b| a + b);
    // The dense world places a chunk inside `online.insert` and emits
    // no `planner.chunk`; that span is its per-chunk placement time.
    let chunk_ms = red
        .p50_ms("planner.chunk")
        .or(red.p50_ms("online.insert"))
        .unwrap_or(f64::NAN);
    let layers = [
        metric("planner.chunk_ms", chunk_ms, "ms"),
        metric("trace.attributed_share", red.attributed_share, "ratio"),
        metric(
            "scoped.build_ms",
            median(&rec.scoped_build_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "scoped.contention_bytes",
            rec.contention_bytes as f64,
            "bytes",
        ),
        metric(
            "graph.spt_ms",
            median(&rec.spt_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "apsp.rows_recomputed",
            rows_recomputed / rec.ticks.max(1) as f64,
            "count",
        ),
        metric("approx.ascent_ms", span_p50("core.dual_ascent"), "ms"),
        metric(
            "approx.dual_rounds",
            field_mean(&red, &spans, "core.dual_ascent", "rounds").unwrap_or(f64::NAN),
            "count",
        ),
        metric("apsp.update_ms", span_p50("apsp.update"), "ms"),
        metric(
            "apsp.update_topology_ms",
            span_p50("apsp.update_topology"),
            "ms",
        ),
        metric("world.repair_ms", span_p50("world.repair"), "ms"),
        metric("world.insert_ms", span_p50("online.insert"), "ms"),
    ];
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    let mut line = format!(
        "{{\"correct\": {}, \"ticks\": {}, \"failed\": {}, \"tick_p50_ms\": {}",
        bad.is_empty(),
        rec.ticks,
        rec.failed,
        median(&rec.tick_ms).unwrap_or(-1.0),
    );
    for (key, value) in end_fields(&run.ends[0]) {
        let _ = write!(line, ", \"{key}\": \"{value}\"");
    }
    line.push_str(", \"layers\": ");
    line.push_str(&metrics_json(&layers, |_| true));
    line.push('}');
    println!("{line}");
    bad.is_empty()
}

/// `--trace 1`: untraced half, traced worker, merged per-layer metrics.
pub fn per_layer(args: &Args, cfg: Config) -> bool {
    let half = args.seconds / 2.0;
    let run = measure(args.workload, cfg, half, 1, Instant::now());
    let mut bad = check_run(args.workload, args.seed, &run);
    let mut layers = untraced_layers(&run);

    let capture = capture_path(args);
    let _ = std::fs::remove_file(&capture);
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--worker", "--workload", args.workload.name()])
            .args([
                "--seed",
                &args.seed.to_string(),
                "--seconds",
                &half.to_string(),
            ])
            .env("PEERCACHE_TRACE", &capture)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let stdout = match output {
        Ok(out) => String::from_utf8_lossy(&out.stdout).into_owned(),
        Err(e) => {
            bad.push(format!("traced worker did not start: {e}"));
            String::new()
        }
    };
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in lines {
        println!("{l}");
    }
    let worker = Json::parse(last).unwrap_or(Json::Null);
    if worker.get("correct").and_then(Json::as_bool) != Some(true) {
        bad.push("traced worker failed its checks".into());
    }
    let mut same_state = true;
    for (key, untraced) in end_fields(&run.ends[0]) {
        let traced = worker.get(key).and_then(Json::as_str).unwrap_or("missing");
        if traced != untraced {
            same_state = false;
            bad.push(format!("traced {key} {traced} != untraced {untraced}"));
        }
    }
    let untraced_p50 = median(&run.rec.tick_ms).unwrap_or(f64::NAN);
    let traced_p50 = worker
        .get("tick_p50_ms")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    println!(
        "traced digest == untraced digest: {same_state}; \
         tick p50 traced {traced_p50:.3} ms / untraced {untraced_p50:.3} ms"
    );
    for (name, m) in worker.get("layers").and_then(Json::as_obj).unwrap_or(&[]) {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("count");
        layers.push(metric(name, value, unit));
    }
    layers.push(metric("trace.overhead", traced_p50 / untraced_p50, "ratio"));
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    let worker_count = |key| worker.get(key).and_then(Json::as_u64).unwrap_or(0);
    print_result(
        bad.is_empty(),
        run.rec.ticks + worker_count("ticks"),
        run.rec.failed + worker_count("failed"),
        &layers,
        &PER_LAYER,
    )
}
