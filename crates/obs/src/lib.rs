//! # obs — deterministic-safe tracing and metrics
//!
//! Telemetry for the monitoring pipeline, built around one hard contract:
//! **observability is strictly out-of-band**. Nothing in this crate touches
//! an RNG stream, stage-visible state, or anything else a simulation result
//! could depend on — recording uses wall-clock time and process-global
//! atomics only, so `StudyResults` is byte-identical with telemetry on or
//! off, at any thread count (`telemetry_equivalence` in `dangling-core`
//! proves it end to end).
//!
//! Three subsystems:
//!
//! - [`metrics`] — sharded [`Counter`]/[`Gauge`]/[`Histogram`] primitives.
//!   Writes are relaxed atomic increments on per-thread stripes; merging
//!   happens only at scrape time, so the parallel crawl pays near-zero
//!   contention. A process-global registry dumps everything as JSON
//!   (`repro --metrics out.json`).
//! - [`span`] — wall-clock spans with sim-time/round correlation, recorded
//!   into a per-thread buffer (flushed to a global sink on overflow or
//!   thread exit, never on the hot path) and exported as Chrome
//!   `trace_event` JSON, directly loadable in Perfetto
//!   (`repro --trace out.json`).
//! - [`output`] — verbosity-gated human output ([`info!`], [`warn!`],
//!   [`progress!`]) replacing ad-hoc `eprintln!` calls; libraries default to
//!   silent, binaries opt in.
//! - [`causal`] — deterministic, *virtual-time* causal traces of individual
//!   crawls (`trace/{fqdn}/{day}`-keyed ids, keyed sampling, Perfetto flow
//!   arrows, per-round critical-path analysis). Opt-in via
//!   [`set_causal_tracing`]; like everything else here, provably unable to
//!   perturb results.
//!
//! ## Always-on vs. opt-in
//!
//! Metric recording is always compiled in and always on: a write is one
//! relaxed `fetch_add` on a cache-padded stripe, cheap enough to leave
//! enabled (`obs_overhead` bench asserts <2% on a full crawl round). Span
//! *collection* is opt-in via [`set_tracing`] because spans allocate buffer
//! entries; a [`SpanGuard`] created while tracing is off still measures time
//! for its optional histogram but records no trace event.
//!
//! ## Metric naming scheme
//!
//! `subsystem.metric[_unit]`, lowercase, dot-separated subsystem, underscore
//! words: `pipeline.crawl_ns`, `crawl.steals`, `storelog.commit_ns`,
//! `world.hijacks`. Durations are always `_ns` histograms; ratios are
//! gauges.

pub mod causal;
pub mod metrics;
pub mod output;
pub mod span;

pub use causal::{
    causal_enabled, collect_causal, critical_paths, sampled, set_causal_tracing, set_trace_sample,
    take_causal, trace_id, trace_sample, CausalSpan, RoundCriticalPath, TraceCtx, TraceDigest,
    TraceId,
};
pub use metrics::{counter, gauge, histogram, metrics_json, Counter, Gauge, Histogram};
pub use output::{set_progress, set_verbosity, Verbosity};
pub use span::{
    export_trace, set_tracing, take_spans, tracing_enabled, write_chrome_trace,
    write_chrome_trace_with_causal, SpanGuard, SpanRecord,
};

/// Start a span named `name` under category `cat`. The guard records a trace
/// event when dropped (if tracing is enabled — see [`span::set_tracing`])
/// and optionally feeds its duration into a histogram via
/// [`SpanGuard::record_into`].
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    SpanGuard::new(name, cat)
}

/// This process's resident set in bytes, `(current, peak)`: `VmRSS` and
/// `VmHWM` from `/proc/self/status`. Both read 0 where that file does not
/// exist (non-Linux hosts).
pub fn process_memory() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (
        status_kib(&status, "VmRSS:") * 1024,
        status_kib(&status, "VmHWM:") * 1024,
    )
}

/// The `kB` value of one `/proc/<pid>/status` line, 0 if absent.
fn status_kib(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_to_kib() {
        let status = "Name:\trepro\nVmHWM:\t  309124 kB\nVmRSS:\t   65536 kB\n";
        assert_eq!(status_kib(status, "VmRSS:"), 65536);
        assert_eq!(status_kib(status, "VmHWM:"), 309124);
        assert_eq!(status_kib(status, "VmSwap:"), 0);
        assert_eq!(status_kib("", "VmRSS:"), 0);
    }

    #[test]
    fn process_memory_is_zero_or_consistent() {
        let (rss, peak) = process_memory();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0 && rss <= peak, "rss {rss} peak {peak}");
        } else {
            assert_eq!((rss, peak), (0, 0));
        }
    }
}
