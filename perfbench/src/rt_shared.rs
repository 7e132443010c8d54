//! `rt-shared`: the path a caching client embeds.
//!
//! `lease_rt::NetClient` runs two client caches on two connections
//! against a one-shard `NetServer`. Two generator threads each keep one
//! blocking op outstanding (closed loop) over 64 shared 64-byte files,
//! nine reads per write, uniform over the files, with a 1 s term. Most
//! reads are local hits; misses and writes are single RPCs, and every
//! write waits for the other cache's approval when it holds the file.
//! The client library and the per-op socket path do most of the work;
//! the lease table stays tiny.

use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::{Clock, Dur, WallClock};
use lease_core::{
    ClientCounters, LeaseServer, MemStorage, ServerConfig, ServerCounters, Storage, Version,
};
use lease_faults::check_history;
use lease_net::{NetCountersSnapshot, NetServer};
use lease_rt::{NetClient, NetClientConfig, RtClientHandle};
use lease_svc::{Egress, EgressSink, LeaseService, SvcConfig, SvcHooks};
use lease_vsys::HistoryEvent;

use crate::replay::{self, Kind, Sent};
use crate::stats::{failed_ratio, median, peak_rss_mb, ratio, Lat, Sliced};
use crate::trace::{SpanId, Tracer};
use crate::{splitmix, Args, Outcome};

type R = u64;
type D = Bytes;

const FILES: u64 = 64;
const FILE_BYTES: usize = 64;
const TERM: Dur = Dur(1_000_000_000);
const CLIENTS: usize = 2;
/// One read in ten is a write.
const WRITE_ONE_IN: u64 = 10;
/// Deployments timed for `setup_s` (the median is reported; the last
/// one is measured).
const SETUPS: usize = 5;
/// Closed-loop time before measuring: caches fill and a term passes.
const WARMUP: Duration = Duration::from_millis(1500);

/// 64 bytes derived from `(seed, key)`.
fn payload(seed: u64, key: u64) -> Bytes {
    let mut x = seed ^ key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut v = Vec::with_capacity(FILE_BYTES);
    while v.len() < FILE_BYTES {
        x = splitmix(x);
        v.extend_from_slice(&x.to_le_bytes());
    }
    Bytes::from(v)
}

/// Primary storage that records every commit on the oracle's clock.
struct CommitLog {
    inner: MemStorage<R, D>,
    commits: Arc<Mutex<Vec<HistoryEvent>>>,
    clock: Arc<dyn Clock>,
}

impl Storage<R, D> for CommitLog {
    fn read(&self, resource: &R) -> Option<(D, Version)> {
        self.inner.read(resource)
    }

    fn version(&self, resource: &R) -> Option<Version> {
        self.inner.version(resource)
    }

    fn write(&mut self, resource: &R, data: D) -> Version {
        let version = self.inner.write(resource, data);
        let at = self.clock.now();
        self.commits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(HistoryEvent::Commit {
                resource: *resource,
                version,
                writer: None,
                at,
            });
        version
    }
}

struct Deployment {
    service: LeaseService<R, D>,
    net: NetServer,
    fleet: NetClient,
    egress: Egress<R, D>,
    commits: Arc<Mutex<Vec<HistoryEvent>>>,
}

/// Starts service, socket server and both client caches, and returns
/// once each cache has completed one read over its connection.
fn deploy(seed: u64) -> Deployment {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let commits = Arc::new(Mutex::new(Vec::new()));
    let egress: Egress<R, D> = Egress::new(CLIENTS, 1024);
    let (log, store_clock) = (Arc::clone(&commits), Arc::clone(&clock));
    let service = LeaseService::spawn(
        SvcConfig::default(),
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        move |_| {
            let mut inner = MemStorage::new();
            for r in 0..FILES {
                inner.insert(r, payload(seed, r));
            }
            let store = CommitLog {
                inner,
                commits: Arc::clone(&log),
                clock: Arc::clone(&store_clock),
            };
            (
                LeaseServer::new(ServerConfig::fixed(TERM)),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, Arc::clone(&clock))
        .expect("bind loopback server");
    let mut cfg = NetClientConfig::new(net.local_addr(), CLIENTS as u32);
    cfg.clock = Some(clock);
    let fleet = NetClient::connect(cfg);
    thread::scope(|s| {
        for c in 0..CLIENTS {
            let client = fleet.client(c);
            s.spawn(move || client.read(c as u64).expect("first read over the socket"));
        }
    });
    Deployment {
        service,
        net,
        fleet,
        egress,
        commits,
    }
}

fn teardown(d: Deployment) {
    d.fleet.shutdown();
    d.net.shutdown();
    d.service.shutdown();
}

/// What one generator thread measured.
struct Gen {
    /// Read and write completions by slice of the window (end to end).
    reads: Sliced,
    writes: Sliced,
    /// Every measured hit and miss, pooled (per layer).
    hit: Lat,
    miss: Lat,
    attempted: u64,
    failed: u64,
    capture: Vec<Sent>,
}

impl Gen {
    fn new(window: Duration) -> Gen {
        Gen {
            reads: Sliced::new(window),
            writes: Sliced::new(window),
            hit: Lat::default(),
            miss: Lat::default(),
            attempted: 0,
            failed: 0,
            capture: Vec::new(),
        }
    }
}

/// Closed loop on one cache until `until`; ops issued before `from` are
/// warm-up and not counted. With a tracer, each op is a span and every
/// server-bound op (miss or write) is captured for the replays.
fn generate(
    client: &RtClientHandle,
    id: usize,
    seed: u64,
    from: Instant,
    until: Instant,
    mut tracer: Option<&mut Tracer>,
) -> Gen {
    let mut g = Gen::new(until - from);
    let mut rng = splitmix(seed ^ (id as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut n = 0u64;
    loop {
        let t0 = Instant::now();
        if t0 >= until {
            return g;
        }
        rng = splitmix(rng);
        let file = rng % FILES;
        let is_write = (rng >> 32).is_multiple_of(WRITE_ONE_IN);
        n += 1;
        let op = (id as u64) << 48 | n;
        let name = if is_write { "rt.write" } else { "rt.read" };
        let span = tracer
            .as_mut()
            .map_or(SpanId::NONE, |t| t.begin(name, SpanId::NONE, op));
        let sent_ns = tracer.as_ref().map_or(0, |t| t.now());
        let result = if is_write {
            client.write(file, payload(rng, n)).map(|_| None)
        } else {
            client
                .read_detailed(file)
                .map(|(data, _, hit)| Some((data.len() == FILE_BYTES, hit)))
        };
        let done = Instant::now();
        let ns = done.duration_since(t0).as_nanos() as u64;
        if let Some(t) = tracer.as_mut() {
            t.end(span);
        }
        if t0 < from {
            continue;
        }
        g.attempted += 1;
        let kind = match result {
            Ok(None) => Some(Kind::Write),
            Ok(Some((true, true))) => None,
            Ok(Some((true, false))) => Some(Kind::Fetch),
            Ok(Some((false, _))) | Err(_) => {
                g.failed += 1;
                continue;
            }
        };
        let offset = done.duration_since(from);
        match kind {
            Some(Kind::Write) => g.writes.push(offset, ns),
            Some(Kind::Fetch) => {
                g.reads.push(offset, ns);
                g.miss.push(ns);
            }
            None => {
                g.reads.push(offset, ns);
                g.hit.push(ns);
            }
        }
        if let (Some(kind), true) = (kind, tracer.is_some()) {
            g.capture.push(Sent {
                at_ns: sent_ns,
                from: id as u32,
                kind,
                req: n,
                resource: file,
            });
        }
    }
}

/// Counters the run diffs across a measured window.
struct Snap {
    net: NetCountersSnapshot,
    svc: ServerCounters,
    wakes: u64,
    clients: Vec<ClientCounters>,
}

fn snap(d: &Deployment) -> Snap {
    Snap {
        net: d.net.counters().snapshot(),
        svc: d.service.stats().expect("service stats").counters,
        wakes: d.egress.wakes(),
        clients: (0..CLIENTS)
            .map(|c| d.fleet.client(c).stats().expect("client stats"))
            .collect(),
    }
}

/// Runs both generators over `[from, until)` and merges their results.
fn phase(
    d: &Deployment,
    seed: u64,
    from: Instant,
    until: Instant,
    tracers: Option<&mut [Tracer]>,
) -> (Gen, Snap, Snap) {
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    let mut before = None;
    let gens: Vec<Gen> = thread::scope(|s| {
        let handles: Vec<_> = tracers
            .drain(..)
            .enumerate()
            .map(|(c, t)| {
                let client = d.fleet.client(c);
                s.spawn(move || generate(client, c, seed, from, until, t))
            })
            .collect();
        thread::sleep(from.saturating_duration_since(Instant::now()));
        before = Some(snap(d));
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let after = snap(d);
    let mut all = Gen::new(until - from);
    for mut g in gens {
        all.reads.merge(g.reads);
        all.writes.merge(g.writes);
        all.hit.extend(g.hit);
        all.miss.extend(g.miss);
        all.attempted += g.attempted;
        all.failed += g.failed;
        all.capture.append(&mut g.capture);
    }
    (all, before.expect("snapshot taken"), after)
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployment = None;
    for _ in 0..SETUPS {
        if let Some(d) = deployment.take() {
            teardown(d);
        }
        let t0 = Instant::now();
        deployment = Some(deploy(a.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let d = deployment.expect("at least one set-up");

    let window = if a.trace { a.seconds / 2 } else { a.seconds };
    let from = Instant::now() + WARMUP;
    let until = from + window;
    let (mut g, s0, s1) = phase(&d, a.seed, from, until, None);
    let secs = window.as_secs_f64();
    let ops = (g.reads.count() + g.writes.count()) as f64;
    let ops_per_s = Sliced::rate(&[&g.reads, &g.writes]);
    let rss = peak_rss_mb();

    let (read_p50, read_p99) = g.reads.summarize("reads (hits and misses)");
    let (write_p50, write_p99) = g.writes.summarize("writes");
    let msgs_in = s1.net.msgs_in - s0.net.msgs_in;
    let msgs_out = s1.net.msgs_out - s0.net.msgs_out;
    out.set("setup_s", median(&mut setups));
    out.set("ops_per_s", ops_per_s);
    out.set("read_p50_us", read_p50);
    out.set("read_p99_us", read_p99);
    out.set("write_p50_us", write_p50);
    out.set("write_p99_us", write_p99);
    out.set("failed_ops_ratio", failed_ratio(g.failed, g.attempted));
    out.set(
        "server_msgs_per_op",
        ratio((msgs_in + msgs_out) as f64, ops),
    );
    out.set("peak_rss_mb", rss);
    out.set("sim_events_per_s", msgs_in as f64 / secs);
    out.attempted = g.attempted;
    out.failed = g.failed;

    if a.trace {
        let epoch = Instant::now();
        let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::new(epoch, 1 << 20)).collect();
        let from = Instant::now();
        let (mut t, t0, t1) = phase(&d, a.seed ^ 1, from, from + window, Some(&mut tracers));
        layer_metrics(&mut out, &mut t, &t0, &t1, ops_per_s);
        out.attempted += t.attempted;
        out.failed += t.failed;
        for (c, tr) in tracers.into_iter().enumerate() {
            out.tracers.push((format!("client{c}"), tr));
        }
    }

    let bad_frames = d.net.counters().snapshot().bad_frames;
    out.check(
        format!("server counted {bad_frames} bad frames"),
        bad_frames == 0,
    );
    let mut history = d.fleet.recorder().snapshot();
    for c in d
        .commits
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .drain(..)
    {
        history.push(c);
    }
    let events = history.events.len();
    let verdict = check_history(&history);
    let violations = verdict.as_ref().map_or_else(Vec::len, |_| 0);
    if let Err(v) = &verdict {
        for x in v.iter().take(5) {
            eprintln!("violation: {x:?}");
        }
    }
    out.check(
        format!("oracle: {violations} violations in {events} history events"),
        verdict.is_ok(),
    );
    teardown(d);
    out
}

fn layer_metrics(out: &mut Outcome, g: &mut Gen, s0: &Snap, s1: &Snap, untraced_ops_per_s: f64) {
    let ops = g.attempted as f64;
    let traced_ops_per_s = Sliced::rate(&[&g.reads, &g.writes]);
    let (hit50, hit99) = g.hit.summarize("traced hits");
    let (miss50, miss99) = g.miss.summarize("traced misses");
    out.set("rt.read_hit_p50_us", hit50);
    out.set("rt.read_hit_p99_us", hit99);
    out.set("rt.read_miss_p50_us", miss50);
    out.set("rt.read_miss_p99_us", miss99);

    let mut c = ClientCounters::default();
    for (a, b) in s0.clients.iter().zip(&s1.clients) {
        c.hits += b.hits - a.hits;
        c.misses_cold += b.misses_cold - a.misses_cold;
        c.misses_extend += b.misses_extend - a.misses_extend;
        c.writes += b.writes - a.writes;
        c.approvals += b.approvals - a.approvals;
        c.retries += b.retries - a.retries;
        c.timeouts += b.timeouts - a.timeouts;
        c.sheds += b.sheds - a.sheds;
    }
    let reads = (c.hits + c.misses_cold + c.misses_extend) as f64;
    out.set("rt.hit_ratio", ratio(c.hits as f64, reads));
    out.set(
        "rt.approvals_per_write",
        ratio(c.approvals as f64, c.writes as f64),
    );
    out.set("rt.retries_per_op", ratio(c.retries as f64, ops));
    out.set("rt.timeouts", c.timeouts as f64);
    out.set("rt.sheds", c.sheds as f64);

    let (a, b) = (&s0.svc, &s1.svc);
    out.set("svc.wakes_per_op", ratio((s1.wakes - s0.wakes) as f64, ops));
    out.set(
        "svc.grants_per_op",
        ratio((b.grants - a.grants) as f64, ops),
    );
    out.set(
        "svc.deferred_write_ratio",
        ratio(
            (b.writes_deferred - a.writes_deferred) as f64,
            (b.writes_rx - a.writes_rx) as f64,
        ),
    );
    out.set("svc.sheds_per_op", ratio((b.sheds - a.sheds) as f64, ops));
    out.set(
        "svc.expired_drops",
        (b.expired_drops - a.expired_drops) as f64,
    );

    let (a, b) = (&s0.net, &s1.net);
    let reads_n = (b.read_calls - a.read_calls) as f64;
    let writes_n = (b.write_calls - a.write_calls) as f64;
    out.set("net.syscalls_per_op", ratio(reads_n + writes_n, ops));
    out.set(
        "net.msgs_per_read_call",
        ratio((b.msgs_in - a.msgs_in) as f64, reads_n),
    );
    out.set(
        "net.msgs_per_write_call",
        ratio((b.msgs_out - a.msgs_out) as f64, writes_n),
    );
    out.set(
        "net.bytes_per_op",
        ratio(
            (b.bytes_in - a.bytes_in + b.bytes_out - a.bytes_out) as f64,
            ops,
        ),
    );
    out.set("net.retransmits_per_op", ratio(c.retries as f64, ops));
    out.set("net.bad_frames", (b.bad_frames - a.bad_frames) as f64);
    out.set(
        "net.expired_at_door",
        (b.expired_at_door - a.expired_at_door) as f64,
    );

    let stream = replay::rebase(std::mem::take(&mut g.capture));
    println!("replaying {} captured server-bound ops", stream.len());
    // The rt transport sends one frame per submission.
    let (enc, dec) = replay::wire(&stream, 1, |k| payload(0, k));
    out.set("wire.encode_ns_per_msg", enc);
    out.set("wire.decode_ns_per_msg", dec);
    out.set("wire.msgs_per_frame", 1.0);
    let core = replay::core(&stream, FILES, TERM, |k| payload(0, k));
    out.set("core.handle_ns_per_msg", core.handle_ns_per_msg);
    out.set("core.wheel_ns_per_timer", core.wheel_ns_per_timer);
    out.set("core.live_leases", core.live_leases);
    out.set(
        "trace.overhead_ratio",
        ratio(traced_ops_per_s, untraced_ops_per_s),
    );
}
