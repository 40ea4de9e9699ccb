//! One measured child process of the benchmark.
//!
//! `run.py` starts a fresh process of this binary for every sample, so each
//! one pays its own world generation (the label intern table is
//! process-global) and its `VmHWM` is the peak of that sample alone. Every
//! mode prints exactly one JSON object on stdout.
//!
//! ```text
//! perfbench setup  --seed N --threads T
//! perfbench study  --seed N --threads T [--trace]
//! perfbench daemon --seed N --threads T --state DIR --phase record|resume [--trace]
//! ```
//!
//! Untraced samples go through the program's own entry points
//! (`RunState::new`, `Scenario::run`, `Scenario::run_persisted`); traced
//! samples run [`ledger::run`], the benchmark's copy of the orchestrator
//! loop, with every stage call timed from outside.

mod ledger;
mod load;

use dangling_core::pipeline::{PersistOptions, RunState};
use dangling_core::{Scenario, ScenarioConfig, StudyResults};
use simcore::SimTime;
use std::fmt::Write as _;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Args {
    mode: String,
    seed: u64,
    threads: usize,
    trace: bool,
    state: Option<String>,
    resume: bool,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_default();
    let mut a = Args {
        mode,
        seed: 1,
        threads: 1,
        trace: false,
        state: None,
        resume: false,
    };
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--seed" => a.seed = num(&val()),
            "--threads" => a.threads = num(&val()),
            "--state" => a.state = Some(val()),
            "--phase" => {
                a.resume = match val().as_str() {
                    "record" => false,
                    "resume" => true,
                    other => die(&format!("unknown phase {other:?}")),
                }
            }
            "--trace" => a.trace = true,
            other => die(&format!("unknown flag {other:?}")),
        }
    }
    a
}

fn num<T: std::str::FromStr>(s: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(&format!("not a number: {s:?}")))
}

fn die(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

/// The study shape every workload shares: the default scenario at scale
/// 1/3200 with reduced enterprise lists (the scenario tests' device), so the
/// full 2020-01 → 2023-06 horizon runs in seconds. Smaller worlds hold too
/// few hijacks per campaign for signatures to reach `min_signature_slds`,
/// and recall falls below the scenario tests' floor.
fn config(a: &Args) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(3200);
    cfg.world.n_fortune1000 = 125;
    cfg.world.n_global500 = 60;
    cfg.seed = a.seed;
    cfg.crawl_threads = a.threads;
    cfg
}

/// Monitoring rounds in the study window (weekly from `monitor_start`
/// through `monitor_end`, as `RunState::new` schedules them).
fn total_rounds(interval_days: i32) -> u64 {
    let span = SimTime::monitor_end().0 - SimTime::monitor_start().0;
    (span / interval_days) as u64 + 1
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// FNV-1a 64 over the serialized results — the digest the repository's
/// equivalence suites pin.
fn digest(results: &StudyResults) -> String {
    let json = serde_json::to_string(results).expect("results serialize");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    format!("{h:016x}")
}

/// A flat JSON object built field by field.
#[derive(Default)]
pub struct Out(String);

impl Out {
    pub fn num(&mut self, key: &str, v: f64) -> &mut Self {
        let v = if v.is_finite() { v } else { 0.0 };
        self.sep();
        let _ = write!(self.0, "\"{key}\":{v}");
        self
    }

    pub fn text(&mut self, key: &str, v: &str) -> &mut Self {
        self.sep();
        let _ = write!(self.0, "\"{key}\":\"{v}\"");
        self
    }

    pub fn list(&mut self, key: &str, v: &[u64]) -> &mut Self {
        self.sep();
        let items: Vec<String> = v.iter().map(u64::to_string).collect();
        let _ = write!(self.0, "\"{key}\":[{}]", items.join(","));
        self
    }

    fn sep(&mut self) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
    }

    fn print(&mut self) {
        self.0.push('}');
        println!("{}", self.0);
    }
}

/// Fields every study-producing sample reports. `peak` is taken before the
/// digest serializes the results, so the JSON buffer is not in it.
fn results_fields(out: &mut Out, results: &StudyResults, wall_s: f64, peak: u64) {
    out.num("wall_s", wall_s)
        .num(
            "gauge_bytes_per_fqdn",
            obs::gauge("pipeline.bytes_per_fqdn").get(),
        )
        .num("peak_rss_bytes", peak as f64)
        .num("monitored", results.monitored_total as f64)
        .num("true_positives", results.detection.true_positives as f64)
        .num("false_positives", results.detection.false_positives as f64)
        .num("false_negatives", results.detection.false_negatives as f64)
        .text("digest", &digest(results));
}

fn main() {
    let a = parse_args();
    let cfg = config(&a);
    let mut out = Out::default();
    match a.mode.as_str() {
        "setup" => {
            let t = Instant::now();
            let rs = RunState::new(cfg);
            let setup_s = t.elapsed().as_secs_f64();
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            out.num("setup_s", setup_s)
                .num("peak_rss_bytes", peak_rss_bytes() as f64)
                .num("available_parallelism", cores as f64);
            drop(rs);
        }
        "study" if a.trace => {
            let t = Instant::now();
            let (results, ledger) =
                ledger::run(cfg, None, false, None).expect("an in-memory run cannot fail");
            let wall_s = t.elapsed().as_secs_f64();
            let peak = peak_rss_bytes();
            ledger.write(&mut out);
            results_fields(&mut out, &results, wall_s, peak);
        }
        "study" => {
            let t = Instant::now();
            let results = Scenario::new(cfg).run();
            let wall_s = t.elapsed().as_secs_f64();
            let peak = peak_rss_bytes();
            results_fields(&mut out, &results, wall_s, peak);
        }
        "daemon" => daemon(&a, cfg, &mut out),
        other => die(&format!("unknown mode {other:?} (setup|study|daemon)")),
    }
    out.print();
}

/// One daemon phase: a persisted, incremental, served run with the
/// open-loop query generator running against it the whole time. `record`
/// stops gracefully at mid-horizon through the daemon's own stop flag;
/// `resume` replays that history, republishes it and runs live to the
/// horizon.
fn daemon(a: &Args, cfg: ScenarioConfig, out: &mut Out) {
    let state = a
        .state
        .clone()
        .unwrap_or_else(|| die("daemon needs --state"));
    let mid = total_rounds(cfg.monitor_interval_days).div_ceil(2);
    let (serve_sink, handle) = serve::daemon();
    let stop = Arc::new(AtomicBool::new(false));
    let generator = load::spawn(handle.clone(), a.seed, stop.clone());

    let opts = PersistOptions {
        resume: a.resume,
        ..PersistOptions::new(&state)
    };
    let stats = Arc::new(Mutex::new(load::SinkStats::default()));
    let t = Instant::now();
    let sink = load::BenchSink::new(serve_sink, stats.clone(), t, mid, a.resume);
    let (results, ledger) = if a.trace {
        let (r, l) = ledger::run(cfg, Some(&opts), true, Some(Box::new(sink)))
            .unwrap_or_else(|e| die(&format!("persisted run failed: {e}")));
        (r, Some(l))
    } else {
        let r = Scenario::new(cfg)
            .incremental(true)
            .round_sink(Box::new(sink))
            .run_persisted(&opts)
            .unwrap_or_else(|e| die(&format!("persisted run failed: {e}")));
        (r, None)
    };
    let wall_s = t.elapsed().as_secs_f64();
    let peak = peak_rss_bytes();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let report = generator.join().expect("query generator");
    handle.drain();

    if let Some(l) = ledger {
        l.write(out);
    }
    out.num("publishes", handle.rounds_published() as f64)
        .num("mid", mid as f64);
    stats.lock().expect("sink stats lock").write(out);
    report.write(out);
    results_fields(out, &results, wall_s, peak);
}
