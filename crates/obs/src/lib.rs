//! Zero-dependency observability for the peercache workspace.
//!
//! Three pieces, all hand-rolled on `std` (the build environment has no
//! crates-io access, and the hot paths must stay dependency-free):
//!
//! * **Tracing** — [`span()`]/[`Span`] RAII timers on monotonic clocks and
//!   fire-and-forget [`event()`]s, both carrying typed key/value fields.
//!   The [`span!`] and [`event!`] macros are the ergonomic entry points.
//! * **Metrics** — process-global [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s behind a name-interned registry ([`counter`],
//!   [`gauge`], [`histogram`]); handles are `&'static` atomics, so
//!   recording is a relaxed atomic op with no locking.
//! * **A JSONL sink** — selected by the `PEERCACHE_TRACE` environment
//!   variable: `stderr`, `stdout`, or a file path (appended). When the
//!   variable is unset or empty, every tracing call is a no-op: no sink
//!   is allocated, no field vectors are built, no I/O happens — the
//!   only residual cost is one atomic load per call site.
//! * **Causal tracing** — [`TraceContext`]/[`emit_span`] spans with
//!   explicit trace/span/parent ids and tick timestamps, plus the
//!   offline analysis half ([`parse_spans`], [`build_forest`],
//!   [`critical_path`], [`latency_table`]) used by `repro trace`.
//! * **Time-series** — bounded, deterministic [`TimeSeries`] recorders
//!   with decimation, owned by the instrumented component.
//! * **Support** — a minimal [`Json`] parser and renderer (no crates-io
//!   access) and the central observability-name registry
//!   ([`REGISTERED_NAMES`], enforced by lint rule O1).
//!
//! # Record schema
//!
//! One JSON object per line, timestamps in microseconds since the
//! process's first observability call:
//!
//! ```json
//! {"ts_us":120,"kind":"span","name":"dual_ascent","dur_us":431,"chunk":0,"rounds":17}
//! {"ts_us":552,"kind":"event","name":"plan_chunk","planner":"Appx","cost_total":96.5}
//! {"ts_us":901,"kind":"counter","name":"dist.cross_shard_msgs","value":1204}
//! {"ts_us":902,"kind":"histogram","name":"plan.chunk_us","count":5,"sum":2125,"min":311,"max":612}
//! ```
//!
//! # Example
//!
//! ```
//! use peercache_obs as obs;
//!
//! // With PEERCACHE_TRACE unset this is all no-op (and allocation-free).
//! let mut sp = obs::span!("demo.work", items = 3usize);
//! for i in 0..3u64 {
//!     obs::counter("demo.iterations").incr();
//!     obs::event!("demo.step", step = i);
//! }
//! sp.add_field("outcome", "ok".into());
//! drop(sp); // emits the span record (if tracing is enabled)
//! assert!(obs::counter("demo.iterations").get() >= 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod json;
mod metrics;
mod names;
mod sink;
mod span;
mod timeseries;
mod trace;
mod value;

pub use clock::MonotonicClock;
pub use json::Json;
pub use metrics::{
    counter, gauge, histogram, reset_metrics, snapshot_metrics, Counter, Gauge, Histogram,
    MetricSnapshot,
};
pub use names::{is_registered, REGISTERED_NAMES};
pub use sink::{emit_metrics, enabled, flush, with_quiet};
pub use span::{event, span, Span, Stopwatch};
pub use timeseries::TimeSeries;
pub use trace::{
    build_forest, critical_path, emit_span, latency_table, parse_spans, CriticalPath, LatencyRow,
    SpanRecord, TraceContext, TraceTree,
};
pub use value::Value;

/// Starts a [`Span`] with inline fields:
/// `span!("name", key = value, ...)`.
///
/// Field values go through [`Value::from`]; the span records wall time
/// from this point until it is dropped. No-op when tracing is off.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut __span = $crate::span($name);
        if __span.is_recording() {
            $(__span.add_field(stringify!($key), $crate::Value::from($val));)*
        }
        __span
    }};
}

/// Emits an [`event()`] with inline fields:
/// `event!("name", key = value, ...)`.
///
/// The field array is only built when tracing is enabled.
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::event($name, &[$((stringify!($key), $crate::Value::from($val))),*]);
        }
    };
}
