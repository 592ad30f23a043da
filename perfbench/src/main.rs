//! The peercache benchmark: seeded closed-loop world traces with
//! end-to-end metrics and a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload shard-arrivals --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` measures half
//! the time untraced, then re-runs itself with `PEERCACHE_TRACE` set to
//! a capture file for the other half and prints the per-layer metrics.
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the exit code is
//! nonzero when any correctness check fails. See `perfbench/README.md`.

mod gen;
mod layers;
mod reduce;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::time::Instant;

use layers::{per_layer, traced_worker};
use peercache_graph::paths::Parallelism;
use stats::{median, tail_percentile};
use workloads::{Config, Recorder, ReplayEnd, Workload};

/// Seed whose end state is committed in [`EXPECTED`].
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out from tuning: a later claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 20_170_605;

/// Measured ticks a `--trace 0` run needs, so p90 has ten samples
/// beyond it.
const MIN_TICKS: u64 = 100;

/// A run stops starting replays after this long, whatever its ticks.
const HARD_STOP_S: f64 = 140.0;

/// End-to-end metrics of the result line (and of `BENCHMARK.json`).
pub const END_TO_END: [&str; 9] = [
    "events_per_s",
    "tick_p50_ms",
    "tick_p90_ms",
    "setup_s",
    "peak_rss_mb",
    "tick_ok_ratio",
    "placement_cost",
    "load_gini",
    "write_durability",
];

/// Committed default-seed end states: `(workload, digest, placement
/// cost, load Gini)`. The digest is `ShardedWorld::state_digest` for the
/// sharded workloads and the outside placement digest for the dense one.
const EXPECTED: [(&str, u64, f64, f64); 3] = [
    (
        "shard-arrivals",
        0x6c23_3ae1_2c64_6bf6,
        268_444.749_999_999_77,
        0.533_849_379_982_420_7,
    ),
    (
        "shard-churn",
        0x2067_2e3a_818a_6e6e,
        265_282.810_000_000_2,
        0.543_358_879_319_305_5,
    ),
    (
        "paper-grid20",
        0x7b17_89df_aea4_1911,
        41_599.141_666_666_7,
        0.682_379_221_663_383_9,
    ),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: the traced half of a `--trace 1` run.
    worker: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut worker) =
        (None, DEFAULT_SEED, 30.0, false, false);
    while let Some(flag) = argv.next() {
        if flag == "--worker" {
            worker = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        worker,
    })
}

/// A measured run: replays until `seconds` have passed and at least
/// `min_ticks` ticks were measured.
struct Run {
    rec: Recorder,
    ends: Vec<ReplayEnd>,
    /// `VmHWM` after the first replay, MiB: the peak of one world's life.
    /// Later replays reuse a heap the first one fragmented and raise the
    /// high-water mark by a fifth, so the whole run's peak would depend
    /// on how many replays fit in the time.
    peak_rss_mb: f64,
}

fn measure(w: Workload, cfg: Config, seconds: f64, min_ticks: u64, epoch: Instant) -> Run {
    let mut rec = Recorder::default();
    let start = Instant::now();
    let mut ends = vec![workloads::replay(w, w.shape(), cfg, &mut rec, epoch)];
    let peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if (elapsed >= seconds && rec.ticks >= min_ticks) || elapsed >= HARD_STOP_S {
            break;
        }
        ends.push(workloads::replay(w, w.shape(), cfg, &mut rec, epoch));
    }
    Run {
        rec,
        ends,
        peak_rss_mb,
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Correctness checks shared by both modes; returns the failures.
fn check_run(w: Workload, seed: u64, run: &Run) -> Vec<String> {
    let mut bad: Vec<String> = run.rec.errors.clone();
    if run.rec.failed > 0 {
        bad.push(format!(
            "{} of {} ticks failed",
            run.rec.failed, run.rec.ticks
        ));
    }
    let first = run.ends[0];
    if run.ends.iter().any(|e| !e.same_as(&first)) {
        bad.push("replays of one seed ended in different states".into());
    }
    if !first.converged {
        bad.push("replicas did not converge".into());
    }
    if run.rec.false_positives > 0 || run.rec.unconfirmed > 0 {
        bad.push(format!(
            "membership: {} false positives, {} unconfirmed kills",
            run.rec.false_positives, run.rec.unconfirmed
        ));
    }
    if run.rec.lost_writes > 0 {
        bad.push(format!("{} acked writes lost", run.rec.lost_writes));
    }
    if seed == DEFAULT_SEED {
        if let Some(&(_, digest, cost, gini)) = EXPECTED.iter().find(|e| e.0 == w.name()) {
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
            if first.digest != digest
                || !close(first.placement_cost, cost)
                || !close(first.load_gini, gini)
            {
                bad.push(format!(
                    "default seed: digest {:#018x} cost {} gini {} != committed {digest:#018x} {cost} {gini}",
                    first.digest, first.placement_cost, first.load_gini
                ));
            }
        }
    }
    bad
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: String,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

/// Renders metrics as a JSON object `{name: {value, unit}}`, keeping
/// those `keep` selects; a value that was not measured is `null`.
fn metrics_json(metrics: &[Metric], keep: impl Fn(&str) -> bool) -> String {
    let mut out = String::from("{");
    for m in metrics.iter().filter(|m| keep(&m.name)) {
        if out.len() > 1 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": ", m.name);
        if m.value.is_finite() {
            let _ = write!(out, "{}", m.value);
        } else {
            out.push_str("null");
        }
        let _ = write!(out, ", \"unit\": \"{}\"}}", m.unit);
    }
    out.push('}');
    out
}

/// Prints every metric as a table, then the result line with the
/// metrics named in `selected`. Returns `correct`, cleared when a
/// selected metric was not measured.
fn print_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    selected: &[&str],
) -> bool {
    println!("{:<34} {:>18} unit", "metric", "value");
    for m in metrics {
        if m.value.is_finite() {
            println!("{:<34} {:>18.6} {}", m.name, m.value, m.unit);
        } else {
            println!("{:<34} {:>18} {}", m.name, "n/a", m.unit);
        }
    }
    let missing: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|name| {
            !metrics
                .iter()
                .any(|m| m.name == *name && m.value.is_finite())
        })
        .collect();
    if !missing.is_empty() {
        println!("CHECK FAILED: not measured: {missing:?}");
    }
    let correct = correct && missing.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics, |name| selected.contains(&name))
    );
    correct
}

fn host_block(w: Workload, cfg: &Config) {
    println!(
        "host: nproc={} profile=release threads={:?} malloc_arena_max={} workload={} seed={} held_out_seed={HELD_OUT_SEED}",
        threads(),
        cfg.parallelism,
        std::env::var("MALLOC_ARENA_MAX").unwrap_or_default(),
        w.name(),
        cfg.seed
    );
}

fn end_to_end(args: &Args, cfg: Config) -> bool {
    let epoch = Instant::now();
    let run = measure(args.workload, cfg, args.seconds, MIN_TICKS, epoch);
    let mut bad = check_run(args.workload, args.seed, &run);
    let rec = &run.rec;
    let p90 = tail_percentile(&rec.tick_ms, 0.9).unwrap_or_else(|e| {
        bad.push(e);
        f64::NAN
    });
    let end = run.ends[0];
    let wall_s: f64 = rec.tick_ms.iter().sum::<f64>() / 1e3;
    println!(
        "run: {} replays, {} ticks, {} events ({} rejected), p90 over {} samples",
        run.ends.len(),
        rec.ticks,
        rec.events,
        rec.events_rejected,
        rec.tick_ms.len()
    );
    println!(
        "end state: digest {:#018x} aux {:#018x} error_ratio {} infinite_world_cost_samples {}",
        end.digest,
        end.aux_digest,
        rec.failed as f64 / rec.ticks as f64,
        end.infinite_cost_chunks
    );
    let metrics = [
        metric("events_per_s", rec.events as f64 / wall_s, "events/s"),
        metric(
            "tick_p50_ms",
            median(&rec.tick_ms).unwrap_or(f64::NAN),
            "ms",
        ),
        metric("tick_p90_ms", p90, "ms"),
        metric("setup_s", median(&rec.setup_s).unwrap_or(f64::NAN), "s"),
        metric("peak_rss_mb", run.peak_rss_mb, "MiB"),
        metric(
            "tick_ok_ratio",
            (rec.ticks - rec.failed) as f64 / rec.ticks as f64,
            "ratio",
        ),
        metric("placement_cost", end.placement_cost, "cost"),
        metric("load_gini", end.load_gini, "ratio"),
        metric("write_durability", rec.durability(), "ratio"),
    ];
    for b in &bad {
        println!("CHECK FAILED: {b}");
    }
    print_result(bad.is_empty(), rec.ticks, rec.failed, &metrics, &END_TO_END)
}

/// Runs this benchmark again with glibc malloc held to one arena, and
/// exits with its code. With an arena per thread, the peak resident set
/// depends on which thread freed what first and varies by a fifth from
/// run to run; with one arena it repeats within a few percent.
fn rerun_with_one_arena() -> ! {
    let status = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("MALLOC_ARENA_MAX", "1")
            .status()
    });
    match status {
        Ok(s) => std::process::exit(s.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("perfbench: cannot re-run with MALLOC_ARENA_MAX=1: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    if std::env::var_os("MALLOC_ARENA_MAX").is_none() {
        rerun_with_one_arena();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <shard-arrivals|shard-churn|paper-grid20> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    if !args.worker {
        // Tracing is latched on the first observability call: keep the
        // measuring process untraced whatever the environment says.
        std::env::remove_var("PEERCACHE_TRACE");
    }
    let cfg = Config {
        seed: args.seed,
        parallelism: Parallelism::Threads(threads()),
        kernels: args.worker,
    };
    let correct = if args.worker {
        traced_worker(&args, cfg)
    } else if args.trace {
        host_block(args.workload, &cfg);
        per_layer(&args, cfg)
    } else {
        host_block(args.workload, &cfg);
        end_to_end(&args, cfg)
    };
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peercache_obs::Json;

    fn names<'a>(doc: &'a Json, key: &str) -> Vec<&'a str> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect()
    }

    #[test]
    fn benchmark_json_round_trips_through_obs_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        assert_eq!(names(&doc, "end_to_end"), END_TO_END);
        assert_eq!(names(&doc, "per_layer"), layers::PER_LAYER);
        let bound = |name: &str| {
            doc.get("end_to_end")
                .and_then(Json::as_arr)
                .and_then(|ms| {
                    ms.iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                })
                .and_then(|m| m.get("bound"))
                .and_then(Json::as_f64)
                .expect("every end-to-end metric has a bound")
        };
        let setup = bound("setup_s");
        for name in END_TO_END {
            let b = bound(name);
            assert!(b > 0.0 && b <= 0.25 && b <= setup, "{name}: bound {b}");
        }
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert!((1..=60).contains(&seconds));
    }
}
