//! # irnuma-obs — structured tracing, metrics & profiling
//!
//! Zero-dependency observability for the train/infer pipeline:
//!
//! * **Spans** — hierarchical wall-clock timing with thread-aware nesting
//!   that works across rayon workers ([`span!`], [`span_under!`],
//!   [`current_span`]);
//! * **Metrics** — monotonic [`Counter`]s, [`Gauge`]s, and log-scale
//!   [`Histogram`]s with p50/p90/p99 extraction, interned in a lock-sharded
//!   global registry ([`counter!`], [`gauge!`], [`histogram!`]);
//! * **Sinks** — a [`JsonlSink`] (one stable-schema event per line) and an
//!   in-memory [`MemorySink`] for tests;
//! * **Logs** — [`error!`]/[`warn!`]/[`info!`]/[`debug!`] to stderr (and to
//!   the trace, when one is active).
//!
//! Configuration is environment-driven:
//!
//! * `IRNUMA_TRACE=<path>` — write a JSONL trace to `<path>`;
//! * `IRNUMA_LOG=error|warn|info|debug` — stderr log level. Defaults to
//!   `warn` in libraries/tests (quiet) and `info` in the CLI binaries.
//!
//! Disabled instrumentation costs one relaxed atomic load per site; the
//! `off` cargo feature compiles every site out entirely.
//!
//! ```
//! let _pipeline = irnuma_obs::span!("train.fit", graphs = 128usize);
//! for epoch in 0..3u64 {
//!     let mut s = irnuma_obs::span!("train.epoch", epoch = epoch);
//!     irnuma_obs::histogram!("train.epoch_ns").record(1000);
//!     s.field("loss", 0.5f64);
//! }
//! irnuma_obs::counter!("train.batches").inc(1);
//! ```

pub mod alloc;
mod context;
pub mod export;
mod macros;
mod metrics;
pub mod perfetto;
pub mod profile;
mod registry;
mod sink;
mod snapshot;
mod span;
pub mod tree;
mod value;

pub use context::{ScopeGuard, TraceContext};
pub use metrics::{
    bucket_index, bucket_lower, bucket_upper, Counter, Gauge, Histogram, HistogramSnapshot,
    NUM_BUCKETS,
};
pub use registry::{flush_metrics, registry, MetricSnapshot, Registry};
pub use sink::{
    clear_sink, emit, epoch_ns, flush_sink, profiling_enabled, set_sink, set_stats_enabled,
    stats_enabled, telemetry_enabled, trace_enabled, Event, JsonlSink, MemorySink, Sink,
};
pub use snapshot::TelemetrySnapshot;
pub use span::{current_span, timed, SpanGuard};
pub use tree::{PathSegment, SpanForest, SpanRecord, SubtreeStats};
pub use value::{write_json_string, Value};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Log severity, most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parse an `IRNUMA_LOG` value (case-insensitive; `None` if unknown).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" | "trace" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// Sentinel: the level has not been initialized yet.
const LEVEL_UNSET: u8 = u8::MAX;
static LOG_LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

fn level_from_env(default: Level) -> Level {
    std::env::var("IRNUMA_LOG").ok().and_then(|v| Level::parse(&v)).unwrap_or(default)
}

/// Whether a message at `level` would be printed. One relaxed load on the
/// fast path; the first call lazily reads `IRNUMA_LOG` (defaulting to
/// `warn`, so libraries and tests stay quiet unless asked).
#[inline]
pub fn log_enabled(level: Level) -> bool {
    if cfg!(feature = "off") {
        return false;
    }
    let mut cur = LOG_LEVEL.load(Ordering::Relaxed);
    if cur == LEVEL_UNSET {
        cur = level_from_env(Level::Warn) as u8;
        LOG_LEVEL.store(cur, Ordering::Relaxed);
    }
    (level as u8) <= cur
}

/// Force the stderr log level (overrides any earlier initialization).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Write one log line to stderr and, when a trace sink is active, emit a
/// `log` event. Use through the level macros, which gate on
/// [`log_enabled`] first.
pub fn log(level: Level, message: String) {
    match level {
        Level::Error => eprintln!("error: {message}"),
        Level::Warn => eprintln!("warning: {message}"),
        Level::Info | Level::Debug => eprintln!("{message}"),
    }
    if trace_enabled() {
        emit(&Event::now("log", message).field("level", level.as_str()));
    }
}

/// RAII handle returned by [`init`]: flushes metrics and the trace sink
/// when dropped (typically at the end of `main`).
pub struct ObsGuard {
    _priv: (),
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        shutdown();
    }
}

/// Initialize observability for a binary:
///
/// * stderr log level from `IRNUMA_LOG`, falling back to `default_level`
///   (binaries pass [`Level::Info`] so progress lines show by default);
/// * if `IRNUMA_TRACE=<path>` is set, install a [`JsonlSink`] writing there;
/// * if `IRNUMA_METRICS=<addr>` is set, serve live [`TelemetrySnapshot`]s
///   over TCP (`/metrics` Prometheus text, `/json` for `irnuma top`) and
///   turn on span latency aggregation;
/// * if `IRNUMA_PROFILE=<path>` is set, start the sampling wall-clock
///   profiler (rate from `IRNUMA_PROFILE_HZ`, default 997 Hz); the folded
///   stacks land at `<path>` when the returned guard drops;
/// * a panic hook that flushes the trace sink before unwinding, so crashed
///   runs keep their buffered trace tail ([`install_panic_flush_hook`]).
///
/// Returns a guard that flushes metric snapshots into the trace, flushes
/// the sink, and dumps the profile when dropped.
pub fn init(default_level: Level) -> ObsGuard {
    set_log_level(level_from_env(default_level));
    install_panic_flush_hook();
    if let Ok(path) = std::env::var("IRNUMA_TRACE") {
        if !path.is_empty() {
            match JsonlSink::create(&path) {
                Ok(sink) => set_sink(Arc::new(sink)),
                Err(e) => eprintln!("warning: IRNUMA_TRACE={path}: cannot create trace file: {e}"),
            }
        }
    }
    if let Ok(addr) = std::env::var("IRNUMA_METRICS") {
        if !addr.is_empty() {
            match export::serve(addr.as_str()) {
                Ok(server) => info!("serving telemetry on {}", server.addr()),
                Err(e) => eprintln!("warning: IRNUMA_METRICS={addr}: cannot bind: {e}"),
            }
        }
    }
    if let Ok(path) = std::env::var("IRNUMA_PROFILE") {
        if !path.is_empty() {
            let hz =
                std::env::var("IRNUMA_PROFILE_HZ").ok().and_then(|v| v.parse().ok()).unwrap_or(997);
            profile::start(&path, hz);
        }
    }
    ObsGuard { _priv: () }
}

/// Install a panic hook that flushes the trace sink before unwinding, so a
/// crashed (or `--fault`-injected) run leaves a complete JSONL file rather
/// than one truncated mid-line by the buffered writer. Wraps — and then
/// calls — the previously installed hook; idempotent ([`init`] calls it,
/// but embedders without `init` can too). The flush itself is wrapped in
/// `catch_unwind` so a poisoned sink can't turn one panic into an abort.
pub fn install_panic_flush_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = std::panic::catch_unwind(flush_sink);
            prev(info);
        }));
    });
}

/// Flush metric snapshots into the trace (one event per metric), flush the
/// sink, and stop the profiler (writing its folded-stacks file) if one is
/// running. Idempotent; called automatically when an [`ObsGuard`] drops.
pub fn shutdown() {
    if let Some(path) = profile::stop_and_dump() {
        info!("wrote profile to {}", path.display());
    }
    alloc::refresh_mem_gauges();
    flush_metrics();
    flush_sink();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parses_case_insensitively() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse("Debug"), Some(Level::Debug));
        assert_eq!(Level::parse("nope"), None);
    }

    #[test]
    fn level_ordering_matches_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }
}
