#!/usr/bin/env python3
"""End-to-end benchmark of the dangling-resource study pipeline.

    python3 perfbench/run.py --workload study|study-serial|daemon \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (the Rust package that
drives the library's public API) with cargo, then measures by starting one
fresh child process per sample, so every sample pays its own world
generation and its peak RSS is its own. Sample i of a run simulates world
`seed * 1000 + i`; the same seed always gives the same worlds. See
perfbench/README.md for the workloads, the metrics and which layer should
move which number.

The last line of stdout is one JSON object:
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
With --trace 0 the metrics are the end-to-end ones (medians over the run's
samples); with --trace 1 they are the per-layer ones, from the same
untraced samples plus one traced sample of the first world.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

SETUPS_PER_SAMPLE = 5
MIN_SAMPLES = 2
CHILD_TIMEOUT_S = 120
# Detection floors of the scenario tests (core::scenario); see detection().
PRECISION_FLOOR = 0.9
RECALL_FLOOR = 0.5

# Metric names and units are declared once, in BENCHMARK.json.
with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
    _spec = json.load(f)
END_TO_END = [(m["name"], m["unit"]) for m in _spec["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _spec["per_layer"]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def commit():
    """The checked-out commit, when the checkout is a git work tree."""
    if not os.path.isdir(".git"):
        return "unknown"
    r = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def pct(values, q):
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[min(len(v), max(1, math.ceil(q * len(v)))) - 1] if v else 0


def median(samples, key):
    return statistics.median(s[key] for s in samples)


class Run:
    """One benchmark run: its child processes, samples and output checks."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        n = nproc()
        # study: every core; study-serial: one; daemon: leaves one core to
        # the query generator. The cross-check runs the batch study at the
        # other thread count, so digests are compared across thread counts
        # and across batch/fresh vs incremental/resumed.
        self.threads = {"study": n, "study-serial": 1, "daemon": max(1, n - 1)}[workload]
        self.check_threads = 1 if workload == "study" else n
        self.available_parallelism = 0
        self.attempted = 0
        self.failed = 0
        self.state_root = os.path.join(".perfbench_state", str(os.getpid()))

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log(f"check failed: {what}")

    def child(self, world, *args):
        cmd = [self.binary, *args, "--seed", str(self.seed * 1000 + world)]
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            sys.exit(f"perfbench: child {' '.join(args)} exited with {p.returncode}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def setup(self, world):
        s = self.child(world, "setup", "--threads", str(self.threads))
        self.available_parallelism = int(s["available_parallelism"])
        return s["setup_s"]

    def study(self, world, threads, trace=False):
        return self.child(world, "study", "--threads", str(threads), *(["--trace"] if trace else []))

    def daemon(self, world, trace=False):
        """Record to mid-horizon, stop gracefully, resume to the horizon."""
        state = os.path.join(self.state_root, "daemon")
        shutil.rmtree(state, ignore_errors=True)
        args = ["--threads", str(self.threads), "--state", state]
        args += ["--trace"] if trace else []
        try:
            rec = self.child(world, "daemon", "--phase", "record", *args)
            res = self.child(world, "daemon", "--phase", "resume", *args)
            storelog = sum(os.path.getsize(os.path.join(d, f))
                           for d, _, fs in os.walk(state) for f in fs)
        finally:
            shutil.rmtree(state, ignore_errors=True)
        self.check(rec["rounds"] == rec["mid"], "record phase stops at mid-horizon")
        self.check(res["resume_s"] > 0, "resumed daemon republishes its replayed rounds")
        self.check(res["publishes"] == res["rounds"], "every round of the resumed run is published")
        s = dict(res)
        s["wall_s"] = rec["wall_s"] + res["wall_s"]
        s["peak_rss_bytes"] = max(rec["peak_rss_bytes"], res["peak_rss_bytes"])
        s["storelog_bytes"] = storelog
        s["publishes"] = rec["publishes"] + res["publishes"]
        s["torn"] = rec["torn"] + res["torn"]
        for k in ("latency_ns", "service_ns", "lateness_ns"):
            s[k] = rec[k] + res[k]
        # Every query is an operation; a torn reply is a failed one.
        self.attempted += len(s["latency_ns"])
        self.failed += s["torn"]
        # Stage time and counts add up over the two processes; the store is
        # the resumed run's final one.
        for k in rec:
            if k.startswith("l_") and k != "l_store_bytes":
                s[k] = rec[k] + res[k]
        return s

    def sample(self, world, trace=False):
        if self.workload == "daemon":
            return self.daemon(world, trace)
        return self.study(world, self.threads, trace)

    def measure(self, seconds):
        """Untraced samples, one world each, until `seconds` are used."""
        setups, samples = [], []
        start = time.monotonic()
        while True:
            world = len(samples)
            setups += [self.setup(world) for _ in range(SETUPS_PER_SAMPLE)]
            samples.append(self.sample(world))
            log(f"world {world}: wall {samples[-1]['wall_s']:.3f} s, "
                f"peak {samples[-1]['peak_rss_bytes'] / 2**20:.1f} MiB")
            elapsed = time.monotonic() - start
            if len(samples) >= MIN_SAMPLES and elapsed * (len(samples) + 1) / len(samples) > seconds:
                break
        self.cross_check(samples[0]["digest"])
        return setups, samples

    def cross_check(self, digest):
        """study == study-serial, and incremental+resumed == batch+fresh,
        on the run's first world."""
        other = self.study(0, self.check_threads)
        self.check(other["digest"] == digest,
                   f"{self.workload} digest {digest} == batch study at "
                   f"{self.check_threads} threads {other['digest']}")

    def detection(self, samples):
        """Precision and recall pooled over the run's worlds.

        Precision is held to the scenario tests' floor. Recall is only
        reported: the 0.5 floor holds for those tests' 1/800 world, but at
        this benchmark's 1/3200 a campaign hijacks so few domains that some
        worlds yield no two-SLD signature (recall 0/4 and 0/3 seen), and
        about one run in 25 pooled below 0.5."""
        tp = sum(s["true_positives"] for s in samples)
        fp = sum(s["false_positives"] for s in samples)
        fn = sum(s["false_negatives"] for s in samples)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        self.check(precision >= PRECISION_FLOOR, f"precision {precision} >= {PRECISION_FLOOR}")
        if recall < RECALL_FLOOR:
            log(f"note: recall {recall:.3f} ({tp}/{tp + fn}) is below the scenario "
                f"tests' floor {RECALL_FLOOR}")
        return precision, recall

    def cleanup(self):
        shutil.rmtree(self.state_root, ignore_errors=True)
        try:
            os.rmdir(".perfbench_state")
        except OSError:
            pass


def end_to_end(setups, samples):
    n = len(samples)
    return {
        "wall_s": (median(samples, "wall_s"), n),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (median(samples, "peak_rss_bytes") / 2**20, n),
    }


def layers(l, threads):
    """Per-layer metrics from a traced sample's raw stage sums."""
    sites = max(1, l["l_crawl_sites"])
    return {
        "world.busy_s": l["l_world_s"],
        "world.events": l["l_world_events"],
        "collect.busy_s": l["l_collect_s"],
        "collect.admit_ratio": l["l_collect_admitted"] / max(1, l["l_collect_candidates"]),
        "crawl.busy_s": l["l_crawl_s"],
        "crawl.sites": l["l_crawl_sites"],
        "crawl.us_per_site": l["l_crawl_s"] * 1e6 / sites,
        # DNS and HTTP time is summed over the crawl workers.
        "crawl.self_s": l["l_crawl_s"] - (l["l_dns_s"] + l["l_http_s"]) / threads,
        "crawl.worker_imbalance": l["l_worker_imbalance_sum"] / max(1, l["l_crawl_rounds"]),
        "dns.exchanges": l["l_dns_exchanges"],
        "dns.exchanges_per_site": l["l_dns_exchanges"] / sites,
        "dns.busy_s": l["l_dns_s"],
        "dns.resolvers_built": l["l_resolvers"],
        "http.requests": l["l_http_requests"],
        "http.busy_s": l["l_http_s"],
        "diff.busy_s": l["l_diff_s"],
        "diff.changes": l["l_diff_changes"],
        "snapshot.store_bytes": l["l_store_bytes"],
        "retro.busy_s": l["l_retro_s"],
        "incr.busy_s": l["l_incr_s"],
        "persist.record_s": l["l_record_s"],
        "persist.replay_s": l["l_replay_s"],
        "persist.seal_s": l["l_seal_s"],
    }


def per_layer(run, samples):
    t = run.sample(0, trace=True)
    plain = samples[0]
    run.check(t["digest"] == plain["digest"],
              f"traced digest {t['digest']} == untraced digest {plain['digest']}")
    m = {k: (v, 1) for k, v in layers(t, run.threads).items()}
    m["trace.overhead_s"] = (t["wall_s"] - plain["wall_s"], 1)
    n = len(samples)
    m["pipeline.bytes_per_fqdn"] = (median(samples, "gauge_bytes_per_fqdn"), n)
    m["rss_bytes_per_fqdn"] = (statistics.median(
        s["peak_rss_bytes"] / max(1, s["monitored"]) for s in samples), n)
    if run.workload == "daemon":
        lat = [v for s in samples for v in s["latency_ns"]]
        svc = [v for s in samples for v in s["service_ns"]]
        late = [v for s in samples for v in s["lateness_ns"]]
        # A p99 needs at least ten samples beyond it.
        run.check(len(lat) >= 1000, f"{len(lat)} queries support a p99")
        m["resume_s"] = (median(samples, "resume_s"), n)
        m["query_p50_us"] = (pct(lat, 0.50) / 1e3, len(lat))
        m["query_p99_us"] = (pct(lat, 0.99) / 1e3, len(lat))
        m["gen.lateness_us_p99"] = (pct(late, 0.99) / 1e3, len(late))
        m["serve.query_service_us_p50"] = (pct(svc, 0.50) / 1e3, len(svc))
        m["serve.query_service_us_p99"] = (pct(svc, 0.99) / 1e3, len(svc))
        m["serve.torn"] = (sum(s["torn"] for s in samples), len(lat))
        m["serve.publishes"] = (median(samples, "publishes"), n)
        m["serve.publish_us_p50"] = (median(samples, "publish_us_p50"), n)
        m["storelog.bytes"] = (median(samples, "storelog_bytes"), n)
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["study", "study-serial", "daemon"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    run = Run(build(), a.workload, a.seed)
    try:
        setups, samples = run.measure(a.seconds)
        precision, recall = run.detection(samples)
        if a.trace:
            values, names = per_layer(run, samples), PER_LAYER
            values["precision"] = (precision, len(samples))
            values["recall"] = (recall, len(samples))
        else:
            values, names = end_to_end(setups, samples), END_TO_END
    finally:
        run.cleanup()
    error_rate = run.failed / run.attempted
    if a.trace:
        values["error_rate"] = (error_rate, run.attempted)
        # Metrics of layers this workload does not use read 0.
        for name, _ in PER_LAYER:
            values.setdefault(name, (0, 0))

    print(json.dumps({"env": {
        "workload": a.workload, "seed": a.seed, "worlds": len(samples),
        "threads": run.threads, "nproc": nproc(),
        "available_parallelism": run.available_parallelism,
        "commit": commit()}}))
    for name, unit in names:
        v, n = values[name]
        print(f"{name:28} {v:14.6g} {unit:6} (n={n})")
    if not a.trace:
        print(f"{'error_rate':28} {error_rate:14.6g} {'ratio':6} "
              f"(failed {run.failed} of {run.attempted} operations)")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name][0], "unit": unit} for name, unit in names},
    }))


if __name__ == "__main__":
    main()
