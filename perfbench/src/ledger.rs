//! The traced run: the benchmark's own copy of `Scenario::run`'s orchestrator
//! loop, timing every call into a stage's public functions from outside and
//! counting DNS exchanges and HTTP serves through wrapped transports handed
//! to `CrawlExecutor::run`. Nothing inside the crates is instrumented.
//!
//! The copy must stay faithful: `run.py` fails the run unless the traced
//! results' digest equals the untraced `Scenario::run` digest for the same
//! config and seed.

use crate::Out;
use dangling_core::pipeline::{
    CollectStage, CrawlExecutor, DiffStage, Ev, IncrementalRetro, PersistError, PersistOptions,
    PersistStage, RetroStage, RoundSink, RoundView, RunState, Stage, WorldStage,
};
use dangling_core::report::RoundLatency;
use dangling_core::{ScenarioConfig, StudyResults};
use dns::resolver::Transport;
use dns::{Message, Resolver};
use httpsim::{Endpoint, Request, Response};
use simcore::SimTime;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Totals the wrapped transports flush into when they are dropped.
#[derive(Default)]
struct Tally {
    dns_exchanges: AtomicU64,
    dns_ns: AtomicU64,
    resolvers: AtomicU64,
    http_requests: AtomicU64,
    http_ns: AtomicU64,
}

/// A DNS transport that counts and times every exchange. Each crawl worker
/// gets its own (the executor builds one resolver per shard per round), so
/// the counters are uncontended until they flush on drop.
struct CountingDns<'a, T> {
    inner: T,
    tally: &'a Tally,
    exchanges: AtomicU64,
    ns: AtomicU64,
}

impl<'a, T> CountingDns<'a, T> {
    fn new(inner: T, tally: &'a Tally) -> Self {
        tally.resolvers.fetch_add(1, Relaxed);
        CountingDns {
            inner,
            tally,
            exchanges: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.exchanges.fetch_add(1, Relaxed);
        r
    }
}

impl<T: Transport> Transport for CountingDns<'_, T> {
    fn exchange(&self, query: &Message) -> Message {
        self.timed(|| self.inner.exchange(query))
    }

    fn try_exchange(&self, query: &Message) -> Option<Message> {
        self.timed(|| self.inner.try_exchange(query))
    }
}

impl<T> Drop for CountingDns<'_, T> {
    fn drop(&mut self) {
        let t = self.tally;
        t.dns_exchanges
            .fetch_add(self.exchanges.load(Relaxed), Relaxed);
        t.dns_ns.fetch_add(self.ns.load(Relaxed), Relaxed);
    }
}

/// An HTTP endpoint that counts served requests and times every call
/// (ICMP, TCP connect and HTTP) into the front end.
struct CountingWeb<'a, E> {
    inner: E,
    tally: &'a Tally,
    requests: AtomicU64,
    ns: AtomicU64,
}

impl<'a, E> CountingWeb<'a, E> {
    fn new(inner: E, tally: &'a Tally) -> Self {
        CountingWeb {
            inner,
            tally,
            requests: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        r
    }
}

impl<E: Endpoint> Endpoint for CountingWeb<'_, E> {
    fn icmp_responds(&self, ip: Ipv4Addr, now: SimTime) -> bool {
        self.timed(|| self.inner.icmp_responds(ip, now))
    }

    fn tcp_open(&self, ip: Ipv4Addr, port: u16, now: SimTime) -> bool {
        self.timed(|| self.inner.tcp_open(ip, port, now))
    }

    fn http_serve(&self, ip: Ipv4Addr, request: &Request, now: SimTime) -> Option<Response> {
        self.requests.fetch_add(1, Relaxed);
        self.timed(|| self.inner.http_serve(ip, request, now))
    }
}

impl<E> Drop for CountingWeb<'_, E> {
    fn drop(&mut self) {
        let t = self.tally;
        t.http_requests
            .fetch_add(self.requests.load(Relaxed), Relaxed);
        t.http_ns.fetch_add(self.ns.load(Relaxed), Relaxed);
    }
}

/// Seconds spent in each stage's calls, with the counts that go with them.
#[derive(Default)]
pub struct Ledger {
    world_s: f64,
    world_events: u64,
    collect_s: f64,
    collect_candidates: u64,
    collect_admitted: u64,
    crawl_s: f64,
    crawl_rounds: u64,
    crawl_sites: u64,
    worker_imbalance_sum: f64,
    dns_exchanges: u64,
    dns_s: f64,
    resolvers: u64,
    http_requests: u64,
    http_s: f64,
    diff_s: f64,
    diff_changes: u64,
    store_bytes: f64,
    retro_s: f64,
    incr_s: f64,
    record_s: f64,
    replay_s: f64,
    seal_s: f64,
}

impl Ledger {
    /// Raw sums, `l_`-prefixed; `run.py` adds phases together and derives
    /// the per-layer ratios.
    pub fn write(&self, out: &mut Out) {
        out.num("l_world_s", self.world_s)
            .num("l_world_events", self.world_events as f64)
            .num("l_collect_s", self.collect_s)
            .num("l_collect_candidates", self.collect_candidates as f64)
            .num("l_collect_admitted", self.collect_admitted as f64)
            .num("l_crawl_s", self.crawl_s)
            .num("l_crawl_rounds", self.crawl_rounds as f64)
            .num("l_crawl_sites", self.crawl_sites as f64)
            .num("l_worker_imbalance_sum", self.worker_imbalance_sum)
            .num("l_dns_exchanges", self.dns_exchanges as f64)
            .num("l_dns_s", self.dns_s)
            .num("l_resolvers", self.resolvers as f64)
            .num("l_http_requests", self.http_requests as f64)
            .num("l_http_s", self.http_s)
            .num("l_diff_s", self.diff_s)
            .num("l_diff_changes", self.diff_changes as f64)
            .num("l_store_bytes", self.store_bytes)
            .num("l_retro_s", self.retro_s)
            .num("l_incr_s", self.incr_s)
            .num("l_record_s", self.record_s)
            .num("l_replay_s", self.replay_s)
            .num("l_seal_s", self.seal_s);
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `Scenario::run_inner`, re-driven through the stages' public API with a
/// timer around every stage call. Same stage order, same arguments, same
/// stop rules — the digest check in `run.py` holds it to that.
pub fn run(
    cfg: ScenarioConfig,
    persist_opts: Option<&PersistOptions>,
    incremental: bool,
    mut sink: Option<Box<dyn RoundSink>>,
) -> Result<(StudyResults, Ledger), PersistError> {
    let threads = cfg.crawl_threads;
    let failure_rate = cfg.crawl_failure_rate;
    let mut l = Ledger::default();
    let candidates0 = obs::counter("collect.candidates").get();
    let admitted0 = obs::counter("collect.admitted").get();

    let mut rs = RunState::new(cfg);

    let tally = Tally::default();
    let mut rounds: u64 = 0;
    let mut world_stage = WorldStage::new(&rs);
    let mut collect = CollectStage::new(&rs, threads);
    let crawl = CrawlExecutor::new(threads, failure_rate).with_latency(rs.cfg.latency_model());
    let mut diff = DiffStage;
    let mut persist = match persist_opts {
        Some(opts) => {
            // Opening a state dir loads the recorded history: replay work.
            let t = Instant::now();
            let p = PersistStage::open(opts, &rs.cfg, rs.store.shard_count())?;
            l.replay_s += secs(t);
            Some(p)
        }
        None => None,
    };
    let mut incr = incremental.then(|| IncrementalRetro::new(threads));

    while let Some((now, ev)) = rs.q.pop() {
        if now > rs.horizon {
            break;
        }
        if ev != Ev::MonitorWeek {
            let t = Instant::now();
            world_stage.on_event(&mut rs, now, ev);
            l.world_s += secs(t);
            l.world_events += 1;
            continue;
        }

        let t = Instant::now();
        collect.weekly(&mut rs, now);
        l.collect_s += secs(t);

        let replayed = match persist.as_mut() {
            Some(p) => {
                let t = Instant::now();
                let r = p.replay_round(&mut rs, now)?;
                l.replay_s += secs(t);
                r
            }
            None => false,
        };
        if !replayed {
            let t = Instant::now();
            crawl_round(&crawl, &mut rs, now, &tally);
            l.crawl_s += secs(t);
            l.crawl_rounds += 1;
            l.crawl_sites += rs.crawl_batch.len() as u64;
            l.worker_imbalance_sum += obs::gauge("crawl.worker_imbalance").get();
            if let Some(p) = persist.as_mut() {
                let t = Instant::now();
                p.record_round(&rs, now)?;
                l.record_s += secs(t);
            }
        }

        let changes_before = rs.changes.len();
        let t = Instant::now();
        diff.weekly(&mut rs, now);
        l.diff_s += secs(t);
        l.diff_changes += (rs.changes.len() - changes_before) as u64;

        if let Some(incr) = incr.as_mut() {
            let t = Instant::now();
            incr.weekly(&mut rs, now);
            l.incr_s += secs(t);
        }
        rounds += 1;

        let mut stop = false;
        if let Some(p) = persist.as_mut() {
            rs.rng_witness = world_stage.rng_cursor_digest();
            let t = Instant::now();
            p.finish_round(&rs, now)?;
            l.seal_s += secs(t);
            stop = p.should_stop();
        }
        if let Some(sink) = sink.as_mut() {
            sink.round_committed(RoundView {
                rs: &rs,
                now,
                rounds_done: rounds,
                provisional: incr.as_ref().and_then(|i| i.provisional_round()),
            });
            stop = stop || sink.stop_requested();
        }
        if stop {
            break;
        }
    }

    l.store_bytes = rs.store.approx_bytes() as f64;
    l.collect_candidates = obs::counter("collect.candidates").get() - candidates0;
    l.collect_admitted = obs::counter("collect.admitted").get() - admitted0;
    l.dns_exchanges = tally.dns_exchanges.load(Relaxed);
    l.dns_s = tally.dns_ns.load(Relaxed) as f64 / 1e9;
    l.resolvers = tally.resolvers.load(Relaxed);
    l.http_requests = tally.http_requests.load(Relaxed);
    l.http_s = tally.http_ns.load(Relaxed) as f64 / 1e9;

    let t = Instant::now();
    let results = match incr {
        Some(incr) => incr.finalize(rs),
        None => RetroStage::new(threads).assemble(rs),
    };
    l.retro_s = secs(t);
    Ok((results, l))
}

/// `CrawlStage::weekly` with counting transports: the same executor call and
/// the same round-latency bookkeeping.
fn crawl_round(crawl: &CrawlExecutor, rs: &mut RunState, now: SimTime, tally: &Tally) {
    let RunState {
        world,
        store,
        monitored,
        tree,
        crawl_batch,
        round_latency,
        ..
    } = rs;
    let world = &*world;
    *crawl_batch = crawl.run(
        monitored,
        store,
        tree,
        now,
        &|| Resolver::new(CountingDns::new(world.dns(), tally)),
        &|| CountingWeb::new(world.web(), tally),
    );
    let mut samples: Vec<u64> = crawl_batch.iter().map(|o| o.dns_elapsed_ns).collect();
    if let Some(r) = RoundLatency::from_samples(now, &mut samples) {
        round_latency.push(r);
    }
}
