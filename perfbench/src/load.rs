//! The daemon workload's outside view: a [`RoundSink`] wrapped around the
//! daemon's `ServeSink`, and the open-loop query generator.

use crate::Out;
use dangling_core::pipeline::{RoundSink, RoundView};
use serve::{Query, ServeHandle, ServeSink};
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the wrapping sink saw, shared with the main thread.
#[derive(Default)]
pub struct SinkStats {
    /// Start of the resumed run → republication of its last replayed round.
    pub resume_s: f64,
    /// Rounds committed (replayed and live).
    pub rounds: u64,
    publish_ns: Vec<u64>,
}

impl SinkStats {
    pub fn write(&self, out: &mut Out) {
        let mut p = self.publish_ns.clone();
        p.sort_unstable();
        out.num("resume_s", self.resume_s)
            .num("rounds", self.rounds as f64)
            .num("publish_us_p50", pct(&p, 0.50) as f64 / 1e3);
    }
}

/// Wraps the daemon's [`ServeSink`] and times every publication. At round
/// `mid` a recording run requests the graceful stop (as a SIGTERM handler
/// would, through the daemon's own flag); a resumed run instead stamps the
/// republication of its last replayed round.
pub struct BenchSink {
    inner: ServeSink,
    stats: Arc<Mutex<SinkStats>>,
    start: Instant,
    mid: u64,
    resume: bool,
}

impl BenchSink {
    pub fn new(
        inner: ServeSink,
        stats: Arc<Mutex<SinkStats>>,
        start: Instant,
        mid: u64,
        resume: bool,
    ) -> Self {
        BenchSink {
            inner,
            stats,
            start,
            mid,
            resume,
        }
    }
}

impl RoundSink for BenchSink {
    fn round_committed(&mut self, view: RoundView<'_>) {
        let rounds = view.rounds_done;
        let t = Instant::now();
        self.inner.round_committed(view);
        let done = Instant::now();
        let mut stats = self.stats.lock().expect("sink stats lock");
        stats
            .publish_ns
            .push(done.duration_since(t).as_nanos() as u64);
        stats.rounds = rounds;
        if rounds == self.mid {
            if self.resume {
                stats.resume_s = done.duration_since(self.start).as_secs_f64();
            } else {
                self.inner.handle().request_stop();
            }
        }
    }

    fn stop_requested(&self) -> bool {
        self.inner.stop_requested()
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn pct(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Per-query samples of one generator run, in nanoseconds.
pub struct LoadReport {
    /// Due time → reply: what a client on the schedule waits.
    latency_ns: Vec<u64>,
    /// Call → return: the program's own share of that wait.
    service_ns: Vec<u64>,
    /// Due time → send: how late the generator itself ran.
    lateness_ns: Vec<u64>,
    torn: u64,
}

impl LoadReport {
    /// Raw samples go to `run.py`, which pools them over a run's phases.
    pub fn write(&self, out: &mut Out) {
        out.num("queries", self.latency_ns.len() as f64)
            .num("torn", self.torn as f64)
            .list("latency_ns", &self.latency_ns)
            .list("service_ns", &self.service_ns)
            .list("lateness_ns", &self.lateness_ns);
    }
}

/// SplitMix64: the generator's own deterministic query-mix stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The generator's fixed send rate, queries per second.
const QPS: f64 = 1000.0;

/// Start the open-loop generator: one thread sends query `i` at
/// `start + i / QPS` whether or not earlier ones have returned late, until
/// `stop` is raised. Mix: 40% verdicts for names the published view
/// knows, 20% verdicts for unknown names, 10% each Status, Health,
/// Signatures, Clusters.
pub fn spawn(handle: ServeHandle, seed: u64, stop: Arc<AtomicBool>) -> JoinHandle<LoadReport> {
    std::thread::spawn(move || {
        let period_ns = 1e9 / QPS;
        let mut mix = Mix(seed ^ 0x5eed_0000_0000_0000);
        let mut known: Vec<String> = Vec::new();
        let mut known_seq = u64::MAX;
        let mut report = LoadReport {
            latency_ns: Vec::new(),
            service_ns: Vec::new(),
            lateness_ns: Vec::new(),
            torn: 0,
        };
        let start = Instant::now();
        for i in 0u64.. {
            if stop.load(SeqCst) {
                break;
            }
            // Refresh the known-name pool off the clock, before the due time.
            if i % 64 == 0 {
                let view = handle.view();
                if view.seq != known_seq {
                    known_seq = view.seq;
                    let step = (view.verdicts.len() / 256).max(1);
                    known = view.verdicts.keys().step_by(step).cloned().collect();
                }
            }
            let r = mix.next();
            let q = match r % 10 {
                0..=3 if !known.is_empty() => Query::Verdict {
                    fqdn: known[(r >> 8) as usize % known.len()].clone(),
                },
                0..=5 => Query::Verdict {
                    fqdn: format!("u{}.unknown-{}.example", r >> 40, i % 97),
                },
                6 => Query::Status,
                7 => Query::Health,
                8 => Query::Signatures,
                _ => Query::Clusters,
            };
            let due = start + Duration::from_nanos((i as f64 * period_ns) as u64);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = handle.query(&q);
            let done = Instant::now();
            if !reply.consistent() {
                report.torn += 1;
            }
            report
                .lateness_ns
                .push(sent.saturating_duration_since(due).as_nanos() as u64);
            report
                .latency_ns
                .push(done.saturating_duration_since(due).as_nanos() as u64);
            report
                .service_ns
                .push(done.duration_since(sent).as_nanos() as u64);
        }
        report
    })
}
