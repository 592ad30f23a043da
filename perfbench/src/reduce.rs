//! Reduces a `PEERCACHE_TRACE` capture into the per-layer table.
//!
//! Span records are flat (`ts_us` at the end, `dur_us`, fields) and come
//! from the world's calling thread only (fan-out workers are quiet), so
//! nesting is recovered from time containment: a span is the parent of
//! every earlier-ending span that started inside it. Only spans inside a
//! measured tick window count; set-up and kernel probes are left out.

use std::collections::BTreeMap;

use peercache_obs::Json;

use crate::stats::{mean, median};

/// Rounding slack between µs timestamps of one clock.
const SLACK_US: u64 = 2;

/// Slack between the capture's clock and the tick windows. The two
/// clocks start a few µs apart (more if the thread is preempted in
/// between); no span is emitted within this distance outside a window,
/// since validation and the generator run between ticks.
const WINDOW_SLACK_US: u64 = 100;

/// One span record.
#[derive(Debug)]
pub struct SpanRec {
    /// Span name.
    pub name: String,
    /// Start, µs since the capture epoch.
    pub start: u64,
    /// End, µs since the capture epoch.
    pub end: u64,
    /// The whole record, for field lookups.
    pub record: Json,
    /// Σ duration of direct children, µs.
    pub covered: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl SpanRec {
    /// Duration in µs.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// A numeric field of the record.
    pub fn field(&self, key: &str) -> Option<f64> {
        self.record.get(key).and_then(Json::as_f64)
    }
}

/// Parses the span records of a JSONL capture and links each span to
/// its parent. Non-span records are skipped; a malformed line is an
/// error.
pub fn parse_capture(text: &str) -> Result<Vec<SpanRec>, String> {
    let mut spans: Vec<SpanRec> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("capture line {}: {e}", i + 1))?;
        if record.get("kind").and_then(Json::as_str) != Some("span") {
            continue;
        }
        let name = record
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let end = record.get("ts_us").and_then(Json::as_u64).unwrap_or(0);
        let dur = record.get("dur_us").and_then(Json::as_u64).unwrap_or(0);
        spans.push(SpanRec {
            name,
            start: end.saturating_sub(dur),
            end,
            record,
            covered: 0,
            parent: None,
        });
    }
    // Records arrive in end order; a span adopts every unparented span
    // that started inside it.
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            if spans[top].start + SLACK_US < spans[i].start {
                break;
            }
            open.pop();
            spans[top].parent = Some(i);
            let d = spans[top].dur();
            spans[i].covered += d;
        }
        open.push(i);
    }
    Ok(spans)
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Span name.
    pub name: String,
    /// Spans inside measured ticks.
    pub count: usize,
    /// Median duration, ms.
    pub p50_ms: f64,
    /// Σ duration, ms.
    pub total_ms: f64,
    /// Σ self time (duration minus covered children), ms.
    pub self_ms: f64,
    /// Σ duration ÷ Σ tick-root duration.
    pub share: f64,
}

/// The reduced capture.
#[derive(Debug, Default)]
pub struct Reduction {
    /// Rows by span name.
    pub rows: Vec<LayerRow>,
    /// Σ direct children of the tick roots ÷ Σ tick roots, where a
    /// root is a `world.tick` span, or the measured window itself when
    /// the engine emits no tick span.
    pub attributed_share: f64,
    /// Spans inside measured ticks, by name (for field lookups).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

impl Reduction {
    /// Median duration of `name` spans, ms.
    pub fn p50_ms(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.p50_ms)
    }
}

/// Reduces `spans` to the spans inside the measured tick `windows`
/// (sorted `(start, end)` µs pairs on the capture's clock).
pub fn reduce(spans: &[SpanRec], windows: &[(u64, u64)]) -> Reduction {
    let window_of = |s: &SpanRec| {
        let mid = s.start + (s.end - s.start) / 2;
        let k = windows.partition_point(|&(_, end)| end < mid);
        windows
            .get(k)
            .filter(|&&(start, end)| {
                s.start + WINDOW_SLACK_US >= start && s.end <= end + WINDOW_SLACK_US
            })
            .map(|_| k)
    };
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut in_window: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let w = window_of(s);
        in_window.push(w);
        if w.is_some() {
            by_name.entry(s.name.clone()).or_default().push(i);
        }
    }
    // Tick roots: world.tick spans, else the bare window.
    let mut root_us = 0u64;
    let mut attributed_us = 0u64;
    let mut windows_with_tick = vec![false; windows.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.name == "world.tick" {
            if let Some(w) = in_window[i] {
                windows_with_tick[w] = true;
                root_us += s.dur();
                attributed_us += s.covered;
            }
        }
    }
    for (w, &(start, end)) in windows.iter().enumerate() {
        if !windows_with_tick[w] {
            root_us += end - start;
        }
    }
    for (i, s) in spans.iter().enumerate() {
        if let Some(w) = in_window[i] {
            if !windows_with_tick[w] && s.parent.is_none_or(|p| in_window[p].is_none()) {
                attributed_us += s.dur();
            }
        }
    }
    let ms = |us: u64| us as f64 / 1e3;
    let rows = by_name
        .iter()
        .map(|(name, idx)| {
            let durs: Vec<f64> = idx.iter().map(|&i| ms(spans[i].dur())).collect();
            let total: u64 = idx.iter().map(|&i| spans[i].dur()).sum();
            let self_us: u64 = idx
                .iter()
                .map(|&i| spans[i].dur().saturating_sub(spans[i].covered))
                .sum();
            LayerRow {
                name: name.clone(),
                count: idx.len(),
                p50_ms: median(&durs).unwrap_or(0.0),
                total_ms: ms(total),
                self_ms: ms(self_us),
                share: if root_us == 0 {
                    0.0
                } else {
                    total as f64 / root_us as f64
                },
            }
        })
        .collect();
    Reduction {
        rows,
        attributed_share: if root_us == 0 {
            0.0
        } else {
            attributed_us as f64 / root_us as f64
        },
        by_name,
    }
}

/// Mean of a numeric field over the `name` spans of a reduction.
pub fn field_mean(red: &Reduction, spans: &[SpanRec], name: &str, key: &str) -> Option<f64> {
    let vals: Vec<f64> = red
        .by_name
        .get(name)?
        .iter()
        .filter_map(|&i| spans[i].field(key))
        .collect();
    mean(&vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPTURE: &str = r#"{"ts_us":5,"kind":"span","name":"planner.chunk","dur_us":5}
{"ts_us":1030,"kind":"span","name":"apsp.update","dur_us":10,"recomputed_sources":4}
{"ts_us":1045,"kind":"span","name":"planner.chunk","dur_us":10,"caches":3}
{"ts_us":1050,"kind":"event","name":"online.retire"}
{"ts_us":1060,"kind":"span","name":"world.tick","dur_us":45}
{"ts_us":1090,"kind":"span","name":"world.repair","dur_us":20}
"#;

    #[test]
    fn nesting_self_time_and_attribution() {
        let spans = parse_capture(CAPTURE).unwrap();
        assert_eq!(spans.len(), 5);
        // world.tick [1015, 1060] holds apsp.update [1020, 1030] and
        // planner.chunk [1035, 1045]; the first planner.chunk is set-up.
        assert_eq!(spans[1].parent, Some(3));
        assert_eq!(spans[2].parent, Some(3));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].covered, 20);
        let red = reduce(&spans, &[(1010, 1062), (1065, 1095)]);
        let tick = red.rows.iter().find(|r| r.name == "world.tick").unwrap();
        assert_eq!(tick.count, 1);
        assert!((tick.self_ms - 0.025).abs() < 1e-12);
        let chunk = red.rows.iter().find(|r| r.name == "planner.chunk").unwrap();
        assert_eq!(chunk.count, 1, "the set-up span is outside every window");
        // Window 1 roots at world.tick (45 µs, 20 attributed); window 2
        // has no tick span, so the window (30 µs) is the root and its
        // top-level world.repair (20 µs) is attributed.
        assert!((red.attributed_share - 40.0 / 75.0).abs() < 1e-12);
        assert_eq!(
            field_mean(&red, &spans, "planner.chunk", "caches"),
            Some(3.0)
        );
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(parse_capture("{\"ts_us\":1,").is_err());
    }
}
