//! The `repro` binary at its surface. Every test runs it as a child process,
//! so the metrics it checks come from that process's own registry: no
//! sibling test can move a counter it reads.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

/// Run a short study with a `--metrics` dump and return
/// `(pipeline.rounds, retro.incr.rounds)` from it; an absent counter reads
/// `None`.
fn round_counters(tag: &str, extra: &[&str]) -> (Option<u64>, Option<u64>) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("repro_cli_{tag}_{}.json", std::process::id()));
    let path_s = path.to_str().expect("utf-8 temp path");
    let mut args = vec![
        "--scale",
        "800",
        "--rounds",
        "2",
        "--threads",
        "2",
        "-q",
        "--metrics",
        path_s,
    ];
    args.extend_from_slice(extra);
    args.push("summary");
    let out = repro(&args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("metrics dump written");
    let _ = std::fs::remove_file(&path);
    let m: serde_json::Value = serde_json::from_str(&text).expect("metrics dump parses");
    let counter = |name: &str| m["counters"][name].as_u64();
    (counter("pipeline.rounds"), counter("retro.incr.rounds"))
}

#[test]
fn streamed_retro_counts_exactly_the_pipeline_rounds() {
    let (pipeline, retro) = round_counters("incr", &["--incremental"]);
    assert_eq!(pipeline, Some(2));
    assert_eq!(
        retro, pipeline,
        "retro.incr.rounds must count streamed rounds, not the horizon catch-up"
    );
}

#[test]
fn horizon_only_retro_streams_no_rounds() {
    let (pipeline, retro) = round_counters("oneshot", &[]);
    assert_eq!(pipeline, Some(2));
    assert_eq!(retro, Some(0), "a horizon-only run streams no retro rounds");
}

#[test]
fn unknown_latency_profile_is_rejected_with_the_valid_names() {
    // Bounded so that a regression accepting the name fails in seconds
    // instead of running a full study.
    let out = repro(&[
        "--scale",
        "800",
        "--rounds",
        "1",
        "-q",
        "--latency-profile",
        "off",
        "summary",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    for name in simcore::LatencyProfile::NAMES {
        assert!(err.contains(name), "rejection lists {name}: {err}");
    }
}
