//! Streamed-vs-one-shot differential harness for the retro fold: a
//! full-horizon scenario run that streams the fold round by round
//! ([`dangling_core`]'s `repro --incremental` path) must serialize
//! [`dangling_core::StudyResults`] to the *same bytes* as a run whose fold
//! ingests the whole change log once at the horizon, across
//!
//! - thread counts `{1} ∪ INCR_EQ_THREADS` (default `2,4,8`),
//! - fresh runs and `--resume` replays of a recorded history, and
//! - tracing off and on (telemetry must stay out-of-band everywhere).
//!
//! The replay legs also pin the "segments → retro without re-crawling"
//! contract: a full-history replay into the streamed fold must drive
//! *zero* crawl rounds (the `pipeline.crawl_ns` histogram — recorded whether
//! or not tracing is on — must not grow) while still replaying recorded
//! rounds (`persist.rounds_replayed` must grow). The history is recorded
//! one-shot and resumed streamed on purpose: the retro-pass mode is a
//! builder flag, not part of the persisted config fingerprint, so recorded
//! histories are mode-portable.
//!
//! The whole matrix lives in one `#[test]` because the tracing flag is
//! process-global — concurrent test functions would race on it.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::PersistOptions;
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("incr_eq_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Same full-window config as `retro_parallel_equivalence`: the attacker
/// campaigns only start in 2020, so a round-bounded run would leave the
/// retro fold with no abuse to find — and the comparison vacuous.
fn study_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

/// Thread counts beyond the serial baseline: `INCR_EQ_THREADS=2,8` style
/// override (the CI matrix runs one count per leg), `2,4,8` by default.
fn threads_under_test() -> Vec<usize> {
    std::env::var("INCR_EQ_THREADS")
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t >= 1)
                .collect()
        })
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![2, 4, 8])
}

fn run_incremental(threads: usize) -> String {
    let results = Scenario::new(study_cfg(threads)).incremental(true).run();
    serde_json::to_string(&results).expect("results serialize")
}

/// Replay a recorded history with the incremental pass on, asserting the
/// crawl stays idle for the whole replay while recorded rounds stream in.
fn run_replayed_incremental(dir: &TempDir, threads: usize) -> String {
    let crawls_before = obs::histogram("pipeline.crawl_ns").snapshot().count;
    let replayed_before = obs::counter("persist.rounds_replayed").get();
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let results = Scenario::new(study_cfg(threads))
        .incremental(true)
        .run_persisted(&opts)
        .expect("replay run");
    assert_eq!(
        obs::histogram("pipeline.crawl_ns").snapshot().count,
        crawls_before,
        "full-history replay at {threads} threads must not re-run the crawl"
    );
    assert!(
        obs::counter("persist.rounds_replayed").get() > replayed_before,
        "replay at {threads} threads must stream recorded rounds"
    );
    serde_json::to_string(&results).expect("results serialize")
}

#[test]
fn incremental_retro_is_byte_identical_to_batch() {
    let threads = threads_under_test();

    // One-shot serial baseline, tracing off — and a meaningfulness gate:
    // the streamed fold must have real signatures/clusters/matches to
    // reproduce or every byte-comparison below is vacuous.
    obs::set_tracing(false);
    let baseline_results = Scenario::new(study_cfg(1)).run();
    assert!(
        !baseline_results.world.truth.is_empty(),
        "scenario must contain hijacks for the retro pass to chase"
    );
    assert!(
        !baseline_results.abuse.is_empty(),
        "retro matching must detect abuse"
    );
    assert!(
        !baseline_results.signatures.is_empty(),
        "retro derivation must produce signatures"
    );
    assert!(
        !baseline_results.change_clusters.is_empty(),
        "retro clustering must produce clusters"
    );
    let baseline = serde_json::to_string(&baseline_results).expect("results serialize");

    // Fresh streamed runs, tracing off (serial first: streamed vs one-shot
    // with no parallelism in the mix isolates the per-round path itself).
    assert_eq!(
        run_incremental(1),
        baseline,
        "serial streamed run diverged from one-shot"
    );
    for &t in &threads {
        assert_eq!(
            run_incremental(t),
            baseline,
            "fresh untraced incremental run diverged at {t} threads"
        );
    }

    // Fresh incremental runs, tracing on (serial included: tracing itself
    // must be invisible at every thread count).
    obs::set_tracing(true);
    assert_eq!(
        run_incremental(1),
        baseline,
        "traced serial incremental run diverged"
    );
    for &t in &threads {
        assert_eq!(
            run_incremental(t),
            baseline,
            "fresh traced incremental run diverged at {t} threads"
        );
    }
    obs::set_tracing(false);
    let spans = obs::take_spans();
    for name in [
        "incr.weekly",
        "retro.incr.round",
        "retro.incr.validate",
        "retro.incr.finalize",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "traced incremental runs must collect the {name} span"
        );
    }

    // Record the full history once *one-shot*, then replay it into the
    // streamed fold at every thread count in both tracing modes. The
    // mode flip is deliberate: it pins that the retro-pass mode stays out of
    // the persisted config fingerprint, and each replay leg asserts the
    // recorded rounds stream into the retro pass without re-crawling.
    let dir = TempDir::new("replay");
    {
        let opts = PersistOptions::new(&dir.0);
        let recorded = Scenario::new(study_cfg(1))
            .run_persisted(&opts)
            .expect("recording run");
        assert_eq!(
            serde_json::to_string(&recorded).expect("results serialize"),
            baseline,
            "recording the run changed the results"
        );
    }
    for &t in threads.iter().chain(std::iter::once(&1)) {
        assert_eq!(
            run_replayed_incremental(&dir, t),
            baseline,
            "untraced incremental replay diverged at {t} threads"
        );
    }
    obs::set_tracing(true);
    for &t in &threads {
        assert_eq!(
            run_replayed_incremental(&dir, t),
            baseline,
            "traced incremental replay diverged at {t} threads"
        );
    }
    obs::set_tracing(false);
    let spans = obs::take_spans();
    for name in ["persist.replay_round", "retro.incr.round"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "traced incremental replays must collect the {name} span"
        );
    }
}
