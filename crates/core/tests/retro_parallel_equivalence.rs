//! The retrospective pass's determinism contract, end to end: with every
//! parallel stage live — the crawl, Algorithm-1 classification, and the
//! retro fold's signature matching and validation — a full-horizon
//! scenario run must serialize [`dangling_core::StudyResults`] to the *same
//! bytes* across
//!
//! - thread counts `{1} ∪ RETRO_EQ_THREADS` (default `2,4,8`),
//! - fresh runs and `--resume` replays of a recorded history, and
//! - tracing off and on (telemetry must stay out-of-band everywhere).
//!
//! The whole matrix lives in one `#[test]` because the tracing flag is
//! process-global — concurrent test functions would race on it.
//!
//! The config runs the *full* study window (the attacker campaigns only
//! start in 2020, so a round-bounded run would leave the retro pass with no
//! abuse to find) with the transient-failure model on, so the RNG-keyed
//! crawl path is exercised alongside the retro stages.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::PersistOptions;
use std::path::PathBuf;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("retro_eq_{tag}_{}", std::process::id()));
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

fn study_cfg(threads: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = threads;
    cfg.crawl_failure_rate = 0.02;
    cfg
}

/// Thread counts beyond the serial baseline: `RETRO_EQ_THREADS=2,8` style
/// override (the CI matrix runs one count per leg), `2,4,8` by default.
fn threads_under_test() -> Vec<usize> {
    std::env::var("RETRO_EQ_THREADS")
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

fn run_fresh(threads: usize) -> String {
    let results = Scenario::new(study_cfg(threads)).run();
    serde_json::to_string(&results).expect("results serialize")
}

fn run_replayed(dir: &TempDir, threads: usize) -> String {
    let mut opts = PersistOptions::new(&dir.0);
    opts.resume = true;
    let results = Scenario::new(study_cfg(threads))
        .run_persisted(&opts)
        .expect("replay run");
    serde_json::to_string(&results).expect("results serialize")
}

#[test]
fn retro_pass_is_byte_identical_across_threads_replay_and_tracing() {
    let threads = threads_under_test();

    // Serial baseline, tracing off — and a meaningfulness gate: every
    // parallel retro stage must have real work or the comparison is vacuous.
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

    // Fresh runs, tracing off.
    for &t in &threads {
        assert_eq!(
            run_fresh(t),
            baseline,
            "fresh untraced run diverged at {t} threads"
        );
    }

    // Fresh runs, tracing on (serial included: tracing itself must be
    // invisible at every thread count).
    obs::set_tracing(true);
    assert_eq!(run_fresh(1), baseline, "traced serial run diverged");
    for &t in &threads {
        assert_eq!(
            run_fresh(t),
            baseline,
            "fresh traced run diverged at {t} threads"
        );
    }
    obs::set_tracing(false);
    let spans = obs::take_spans();
    for name in [
        "collect.weekly",
        "crawl.weekly",
        "retro.assemble",
        "retro.incr.round",
        "retro.incr.finalize",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "traced runs must collect the {name} span"
        );
    }

    // Record the full history once, then replay it at every thread count in
    // both tracing modes. Replays re-run the retro pass over the recorded
    // observations — the cheap legs of the matrix.
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
            run_replayed(&dir, t),
            baseline,
            "untraced replay diverged at {t} threads"
        );
    }
    obs::set_tracing(true);
    for &t in &threads {
        assert_eq!(
            run_replayed(&dir, t),
            baseline,
            "traced replay diverged at {t} threads"
        );
    }
    obs::set_tracing(false);
    assert!(
        obs::take_spans()
            .iter()
            .any(|s| s.name == "persist.replay_round"),
        "traced replays must collect replay spans"
    );
}
