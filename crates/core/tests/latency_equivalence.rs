//! The virtual-time determinism contract (DESIGN.md §10), end to end:
//! switching the crawl's completion-queue loop between the degenerate
//! `zero` clock and any other loss-free latency profile (`datacenter`,
//! `wan`) moves **only timing telemetry** — the serialized `StudyResults`
//! are byte-identical.
//!
//! Why this holds: a crawl's outcome is a pure function of its own
//! operation sequence — every task reads the pre-round store, the simulated
//! authority and web are static within a round, and per-worker DNS caches
//! only ever return what a fresh resolution would. Latency therefore
//! reorders *completions*, never *observations*; only the `lossy` profile
//! (which drops queries) can change results, and its thread-count
//! invariance is pinned by `parallel_equivalence`.

use dangling_core::scenario::{Scenario, ScenarioConfig};
use dangling_core::StudyResults;

fn run_with_profile(latency_profile: &str) -> StudyResults {
    let mut cfg = ScenarioConfig::at_scale(2000);
    cfg.world.n_fortune1000 = 30;
    cfg.world.n_global500 = 15;
    cfg.seed = 11;
    cfg.crawl_threads = 2;
    cfg.crawl_failure_rate = 0.02;
    cfg.latency_profile = latency_profile.into();
    Scenario::new(cfg).run()
}

#[test]
fn latency_profiles_change_timing_telemetry_never_results() {
    let zero = run_with_profile("zero");
    let zero_json = serde_json::to_string(&zero).expect("results serialize");
    assert!(zero_json.len() > 1000, "run produced a non-trivial result");

    // The degenerate clock records latency telemetry but never advances.
    let s = zero
        .resolution_latency_summary()
        .expect("the crawl records round latency");
    assert_eq!(s.p99_ns, 0, "zero profile consumed virtual time");
    assert!(s.samples > 0);

    for profile in ["datacenter", "wan"] {
        let timed = run_with_profile(profile);
        let timed_json = serde_json::to_string(&timed).expect("results serialize");
        assert_eq!(
            zero_json, timed_json,
            "StudyResults diverged between the zero profile and the \
             {profile} profile"
        );

        // The telemetry side: nonzero-latency profiles must actually have
        // consumed virtual time — which is what proves the byte-equality
        // above compared a run that really modeled latency, not a silently
        // degenerate one.
        let s = timed
            .resolution_latency_summary()
            .expect("the crawl records round latency");
        assert!(
            s.p50_ns > 0,
            "{profile} profile recorded no simulated resolution latency"
        );
    }
}
