//! `net-fleet`: the server at capacity.
//!
//! Two connections, one client id each, drive pipelined windows of
//! `lease-wire` batch frames straight at a one-shard `NetServer` over
//! 2^20 files, one write in 32 ops. Each frame is stamped with its
//! connection's id. Each connection keeps a fixed window in flight
//! (closed loop). With a 1 s term, grants and expiries balance within
//! the warm-up, so the slab table and the wheel hold a steady few
//! hundred thousand live leases. Sharing is low: most writes commit
//! without waiting for the other connection's approval. The wire codec,
//! socket I/O, rings, table and wheel do the work; the client library
//! does none.
//!
//! The traced run adds an in-process leg: the same generator against
//! `SvcHandle`/`EgressRx` with no sockets, so the gap between its rate
//! and the socket rate is the transport's share.

use std::collections::HashMap;
use std::io::{ErrorKind, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use lease_clock::{Clock, Dur, WallClock};
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, ServerCounters, Storage, ToClient,
    ToServer,
};
use lease_net::{connect_as, FrameAccum, NetCountersSnapshot, NetServer};
use lease_svc::{
    BatchBuf, Egress, EgressRx, EgressSink, LeaseService, SvcConfig, SvcHandle, SvcHooks,
};
use lease_wire::{frame_len, frame_messages, Dir, FrameBuilder};

use crate::replay::{self, Kind, Sent};
use crate::stats::{failed_ratio, median, peak_rss_mb, percentile, ratio, Lat, Sliced};
use crate::trace::{SpanId, Tracer};
use crate::{splitmix, Args, Outcome};

type R = u64;
type D = u64;
type Up = ToServer<R, D>;
type Down = ToClient<R, D>;

const FILES: u64 = 1 << 20;
const TERM: Dur = Dur(1_000_000_000);
const CONNS: usize = 2;
/// Ops staged per frame.
const BATCH: usize = 32;
/// Ops in flight per connection.
const WINDOW: usize = 64;
const WRITE_ONE_IN: u64 = 32;
/// An op unanswered this long is sent again.
const RETRANSMIT_AFTER: Duration = Duration::from_millis(200);
/// How long in-flight ops may take to finish after the window closes.
const DRAIN: Duration = Duration::from_secs(2);
/// Deployments timed for `setup_s` (the median is reported; the last
/// one is measured).
const SETUPS: usize = 5;
/// Time before measuring: more than one term, so the table is steady.
const WARMUP: Duration = Duration::from_millis(2000);
/// Server-bound ops captured per connection in the traced phase.
const CAPTURE: usize = 600_000;

fn datum(seed: u64, r: u64) -> D {
    splitmix(seed ^ r)
}

struct Server {
    service: LeaseService<R, D>,
    net: NetServer,
    egress: Egress<R, D>,
}

/// A one-shard service over `FILES` preloaded files with ring egress
/// for `CONNS` clients.
fn service(seed: u64) -> (LeaseService<R, D>, Egress<R, D>, Arc<dyn Clock>) {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
    let egress: Egress<R, D> = Egress::new(CONNS, 1024);
    let base = SvcConfig::default();
    let service = LeaseService::spawn(
        SvcConfig {
            batch: base.batch.max(BATCH * 2),
            ..base
        },
        Arc::new(EgressSink::new(egress.clone())),
        SvcHooks {
            clock: Some(Arc::clone(&clock)),
            ..SvcHooks::default()
        },
        move |_| {
            let mut store: MemStorage<R, D> = MemStorage::new();
            for r in 0..FILES {
                store.insert(r, datum(seed, r));
            }
            (
                LeaseServer::new(ServerConfig::fixed(TERM)),
                Box::new(store) as Box<dyn Storage<R, D> + Send>,
            )
        },
    );
    (service, egress, clock)
}

/// Starts the socket server, opens one connection per client id, and
/// returns once each connection has had one fetch granted.
fn deploy(seed: u64) -> (Server, Vec<Sock>) {
    let (service, egress, clock) = service(seed);
    let net = NetServer::bind("127.0.0.1:0", service.handle(), &egress, clock)
        .expect("bind loopback server");
    let addr = net.local_addr();
    let mut links: Vec<Sock> = (0..CONNS)
        .map(|c| {
            let who = ClientId(c as u32);
            let stream = connect_as(&addr, who).expect("connect over loopback");
            stream
                .set_read_timeout(Some(Duration::from_millis(1)))
                .expect("set read timeout");
            Sock {
                who,
                stream,
                accum: FrameAccum::new(),
                wire: Vec::with_capacity(64 * 1024),
            }
        })
        .collect();
    let mut st = LinkStats::default();
    let mut replies = Vec::new();
    for (c, link) in links.iter_mut().enumerate() {
        let probe = Up::Fetch {
            req: ReqId(0),
            resource: c as u64,
            cached: None,
            also_extend: Vec::new(),
        };
        link.send(&mut vec![probe], &mut None, SpanId::NONE, &mut st)
            .expect("send the first fetch");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !replies
            .iter()
            .any(|m| matches!(m, Down::Grants { req: ReqId(0), .. }))
        {
            assert!(Instant::now() < deadline, "no grant for the first fetch");
            link.recv(&mut replies, &mut None, SpanId::NONE, &mut st)
                .expect("receive the first grant");
        }
        replies.clear();
    }
    (
        Server {
            service,
            net,
            egress,
        },
        links,
    )
}

/// Times `f` as a span under `parent` when tracing; returns its result
/// and duration (zero untraced).
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    parent: SpanId,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    match tracer {
        Some(t) => {
            let id = t.begin(name, parent, op);
            let out = f();
            (out, t.end(id))
        }
        None => (f(), 0),
    }
}

/// Client-side per-layer tallies (traced phase only).
#[derive(Default)]
struct LinkStats {
    frames: u64,
    msgs_encoded: u64,
    encode_ns: u64,
    msgs_decoded: u64,
    decode_ns: u64,
    write_call: Lat,
    read_call: Lat,
    send_batch: Lat,
}

/// How a generator reaches the service.
trait Link {
    /// Submits `staged`; whatever the service refuses is sent again on
    /// the next call.
    fn send(
        &mut self,
        staged: &mut Vec<Up>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        st: &mut LinkStats,
    ) -> std::io::Result<()>;

    /// Appends available replies to `out`, waiting about 1 ms for the
    /// first when none is ready.
    fn recv(
        &mut self,
        out: &mut Vec<Down>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        st: &mut LinkStats,
    ) -> std::io::Result<()>;
}

/// One loopback connection: batch frames out, reply frames in.
struct Sock {
    who: ClientId,
    stream: TcpStream,
    accum: FrameAccum,
    wire: Vec<u8>,
}

impl Link for Sock {
    fn send(
        &mut self,
        staged: &mut Vec<Up>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        st: &mut LinkStats,
    ) -> std::io::Result<()> {
        let n = staged.len() as u64;
        let ((), ns) = timed(tr, "wire.encode", parent, n, || {
            self.wire.clear();
            let mut fb = FrameBuilder::begin(&mut self.wire, Dir::C2s, self.who);
            for m in staged.iter() {
                fb.push_c2s(&mut self.wire, m, None);
            }
            fb.finish(&mut self.wire);
        });
        st.frames += 1;
        st.msgs_encoded += n;
        st.encode_ns += ns;
        let (r, ns) = timed(tr, "net.write", parent, n, || {
            self.stream.write_all(&self.wire)
        });
        r?;
        if tr.is_some() {
            st.write_call.push(ns);
        }
        staged.clear();
        Ok(())
    }

    fn recv(
        &mut self,
        out: &mut Vec<Down>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        st: &mut LinkStats,
    ) -> std::io::Result<()> {
        let (r, ns) = timed(tr, "net.read", parent, 0, || {
            self.accum.fill(&mut self.stream)
        });
        match r {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(_) if tr.is_some() => st.read_call.push(ns),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
        loop {
            let len = match frame_len(self.accum.bytes()) {
                Ok(Some(len)) if self.accum.bytes().len() >= len => len,
                Ok(_) => return Ok(()),
                Err(_) => return Err(ErrorKind::InvalidData.into()),
            };
            let before = out.len();
            let (ok, ns) = timed(tr, "wire.decode", parent, 0, || {
                let Ok((h, mut it)) = frame_messages(&self.accum.bytes()[..len]) else {
                    return false;
                };
                while let Ok(Some(m)) = it.next_s2c::<R, D>() {
                    out.push(m);
                }
                h.dir == Dir::S2c
            });
            if !ok {
                return Err(ErrorKind::InvalidData.into());
            }
            st.msgs_decoded += (out.len() - before) as u64;
            st.decode_ns += ns;
            self.accum.consume(len);
        }
    }
}

/// The same generator against the service's rings, no sockets.
struct Inproc {
    who: ClientId,
    handle: SvcHandle<R, D>,
    rx: EgressRx<R, D>,
    buf: BatchBuf<R, D>,
}

impl Link for Inproc {
    fn send(
        &mut self,
        staged: &mut Vec<Up>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        st: &mut LinkStats,
    ) -> std::io::Result<()> {
        for m in staged.drain(..) {
            self.buf.push(self.who, m);
        }
        let n = self.buf.len() as u64;
        let (r, ns) = timed(tr, "svc.try_send_batch", parent, n, || {
            self.handle.try_send_batch(&mut self.buf)
        });
        if tr.is_some() {
            st.send_batch.push(ns);
        }
        r.map(|_| ())
            .map_err(|e| std::io::Error::other(format!("{e:?}")))
    }

    fn recv(
        &mut self,
        out: &mut Vec<Down>,
        tr: &mut Option<&mut Tracer>,
        parent: SpanId,
        _st: &mut LinkStats,
    ) -> std::io::Result<()> {
        timed(tr, "svc.egress_drain", parent, 0, || {
            let ticket = self.rx.bell().ticket();
            if self.rx.drain_into(out, usize::MAX) == 0 {
                self.rx.bell().wait(ticket, Duration::from_millis(1));
                self.rx.drain_into(out, usize::MAX);
            }
        });
        Ok(())
    }
}

struct Pending {
    t0: Instant,
    last_tx: Instant,
    resource: u64,
    write: bool,
    measured: bool,
    msg: Up,
}

/// What one generator measured.
struct Gen {
    /// Read and write completions by slice of the measured window.
    reads: Sliced,
    writes: Sliced,
    attempted: u64,
    failed: u64,
    /// Completions that answered an op with the wrong kind or file.
    wrong: u64,
    /// Replies to no pending op (duplicates caused by retransmission).
    unknown: u64,
    retransmits: u64,
    link: LinkStats,
    capture: Vec<Sent>,
}

impl Gen {
    fn new(window: Duration) -> Gen {
        Gen {
            reads: Sliced::new(window),
            writes: Sliced::new(window),
            attempted: 0,
            failed: 0,
            wrong: 0,
            unknown: 0,
            retransmits: 0,
            link: LinkStats::default(),
            capture: Vec::new(),
        }
    }

    /// Ops completed inside the measured window.
    fn completed(&self) -> u64 {
        self.reads.count() + self.writes.count()
    }

    fn rate(&self) -> f64 {
        Sliced::rate(&[&self.reads, &self.writes])
    }
}

/// Drives one link with a window of `WINDOW` ops, `BATCH` staged per
/// send, until `until`, then drains. Ops staged before `from` are
/// warm-up. `done` counts generators that have drained: each keeps
/// answering approval requests until all have, so no peer's write is
/// left waiting on it.
#[allow(clippy::too_many_arguments)]
fn generate<L: Link>(
    link: &mut L,
    id: usize,
    seed: u64,
    from: Instant,
    until: Instant,
    done: &AtomicUsize,
    mut tracer: Option<&mut Tracer>,
) -> Gen {
    let mut g = Gen::new(until - from);
    if tracer.is_some() {
        g.capture.reserve_exact(CAPTURE);
    }
    let mut rng = splitmix(seed ^ (id as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f));
    let mut next_req = 0u64;
    let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(WINDOW * 2);
    let mut staged: Vec<Up> = Vec::with_capacity(WINDOW * 2);
    let mut replies: Vec<Down> = Vec::with_capacity(4096);
    let mut drained = false;
    let mut round = 0u64;
    let hard_stop = until + DRAIN + Duration::from_millis(500);

    loop {
        let now = Instant::now();
        if now >= until {
            if !drained && (pending.is_empty() || now >= until + DRAIN) {
                drained = true;
                done.fetch_add(1, Ordering::SeqCst);
            }
            if drained && (done.load(Ordering::SeqCst) == CONNS || now >= hard_stop) {
                break;
            }
        } else {
            while staged.len() < BATCH && pending.len() < WINDOW {
                rng = splitmix(rng);
                next_req += 1;
                let resource = rng % FILES;
                let write = (rng >> 40).is_multiple_of(WRITE_ONE_IN);
                let req = ReqId(next_req);
                let msg = if write {
                    Up::Write {
                        req,
                        resource,
                        data: rng,
                    }
                } else {
                    Up::Fetch {
                        req,
                        resource,
                        cached: None,
                        also_extend: Vec::new(),
                    }
                };
                let measured = now >= from;
                g.attempted += u64::from(measured);
                if let Some(t) = tracer.as_ref() {
                    if g.capture.len() < CAPTURE {
                        g.capture.push(Sent {
                            at_ns: t.now(),
                            from: id as u32,
                            kind: if write { Kind::Write } else { Kind::Fetch },
                            req: next_req,
                            resource,
                        });
                    }
                }
                staged.push(msg.clone());
                pending.insert(
                    next_req,
                    Pending {
                        t0: now,
                        last_tx: now,
                        resource,
                        write,
                        measured,
                        msg,
                    },
                );
            }
        }
        for p in pending.values_mut() {
            if now.duration_since(p.last_tx) >= RETRANSMIT_AFTER {
                p.last_tx = now;
                staged.push(p.msg.clone());
                g.retransmits += 1;
            }
        }

        round += 1;
        let span = tracer
            .as_mut()
            .map_or(SpanId::NONE, |t| t.begin("gen.round", SpanId::NONE, round));
        let io = (|| {
            if !staged.is_empty() {
                link.send(&mut staged, &mut tracer, span, &mut g.link)?;
            }
            link.recv(&mut replies, &mut tracer, span, &mut g.link)
        })();
        if let Some(t) = tracer.as_mut() {
            t.end(span);
        }
        if let Err(e) = io {
            eprintln!("net-fleet connection {id}: {e}");
            break;
        }

        let now = Instant::now();
        for m in replies.drain(..) {
            let (req, ok) = match &m {
                Down::Grants { req, grants } => (
                    req.0,
                    pending.get(&req.0).map(|p| {
                        !p.write
                            && grants
                                .iter()
                                .any(|x| x.resource == p.resource && x.data.is_some())
                    }),
                ),
                Down::WriteDone { req, resource, .. } => (
                    req.0,
                    pending
                        .get(&req.0)
                        .map(|p| p.write && p.resource == *resource),
                ),
                Down::ApprovalRequest { write_id, .. } => {
                    staged.push(Up::Approve {
                        write_id: *write_id,
                    });
                    continue;
                }
                Down::Error { req, .. } => (req.0, pending.get(&req.0).map(|_| false)),
                Down::InstalledExtend { .. } => continue,
            };
            let Some(ok) = ok else {
                g.unknown += 1;
                continue;
            };
            let p = pending.remove(&req).expect("looked up above");
            if !ok {
                g.wrong += u64::from(!matches!(m, Down::Error { .. }));
                g.failed += u64::from(p.measured);
                continue;
            }
            if p.measured {
                let ns = now.duration_since(p.t0).as_nanos() as u64;
                let offset = now.duration_since(from);
                if p.write {
                    g.writes.push(offset, ns);
                } else {
                    g.reads.push(offset, ns);
                }
            }
        }
    }
    g.failed += pending.values().filter(|p| p.measured).count() as u64;
    if !drained {
        done.fetch_add(1, Ordering::SeqCst);
    }
    g
}

/// Runs one generator per link over `[from, until)`, and `during` on
/// the calling thread meanwhile; merges the generators' results.
fn phase<L: Link + Send, T>(
    links: &mut [L],
    seed: u64,
    from: Instant,
    until: Instant,
    tracers: Option<&mut [Tracer]>,
    during: impl FnOnce() -> T,
) -> (Gen, T) {
    let done = AtomicUsize::new(0);
    let done = &done;
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => links.iter().map(|_| None).collect(),
    };
    let (gens, during): (Vec<Gen>, T) = thread::scope(|s| {
        let hs: Vec<_> = links
            .iter_mut()
            .zip(tracers.drain(..))
            .enumerate()
            .map(|(i, (l, t))| s.spawn(move || generate(l, i, seed, from, until, done, t)))
            .collect();
        let during = during();
        let gens = hs
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        (gens, during)
    });
    let mut all = Gen::new(until - from);
    for mut g in gens {
        all.reads.merge(g.reads);
        all.writes.merge(g.writes);
        all.attempted += g.attempted;
        all.failed += g.failed;
        all.wrong += g.wrong;
        all.unknown += g.unknown;
        all.retransmits += g.retransmits;
        let (a, b) = (&mut all.link, g.link);
        a.frames += b.frames;
        a.msgs_encoded += b.msgs_encoded;
        a.encode_ns += b.encode_ns;
        a.msgs_decoded += b.msgs_decoded;
        a.decode_ns += b.decode_ns;
        a.write_call.extend(b.write_call);
        a.read_call.extend(b.read_call);
        a.send_batch.extend(b.send_batch);
        all.capture.append(&mut g.capture);
    }
    (all, during)
}

/// Counters diffed across a measured window.
struct Snap {
    net: NetCountersSnapshot,
    svc: ServerCounters,
    wakes: u64,
}

fn snap(s: &Server) -> Snap {
    Snap {
        net: s.net.counters().snapshot(),
        svc: s.service.stats().expect("service stats").counters,
        wakes: s.egress.wakes(),
    }
}

/// Runs a phase, snapshotting the server's counters at `from` and
/// `until`.
fn measured_phase(
    server: &Server,
    links: &mut [Sock],
    seed: u64,
    from: Instant,
    until: Instant,
    tracers: Option<&mut [Tracer]>,
) -> (Gen, Snap, Snap) {
    let (g, (a, b)) = phase(links, seed, from, until, tracers, || {
        thread::sleep(from.saturating_duration_since(Instant::now()));
        let a = snap(server);
        thread::sleep(until.saturating_duration_since(Instant::now()));
        (a, snap(server))
    });
    (g, a, b)
}

fn check(out: &mut Outcome, g: &Gen, what: &str) {
    out.check(
        format!("{what}: {} wrong completions", g.wrong),
        g.wrong == 0,
    );
    out.check(
        format!(
            "{what}: {} replies to no pending op, at most one per retransmission ({})",
            g.unknown, g.retransmits
        ),
        g.unknown <= g.retransmits,
    );
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut deployed = None;
    for _ in 0..SETUPS {
        if let Some((s, links)) = deployed.take() {
            drop(links);
            shutdown(s);
        }
        let t0 = Instant::now();
        deployed = Some(deploy(a.seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (server, mut links) = deployed.expect("at least one set-up");

    let window = if a.trace { a.seconds / 2 } else { a.seconds };
    let secs = window.as_secs_f64();
    let from = Instant::now() + WARMUP;
    let (mut g, s0, s1) = measured_phase(&server, &mut links, a.seed, from, from + window, None);
    let rss = peak_rss_mb();
    check(&mut out, &g, "socket");
    let ops = g.completed() as f64;
    let ops_per_s = g.rate();
    let (read_p50, read_p99) = g.reads.summarize("reads (staging to grant)");
    let (write_p50, write_p99) = g.writes.summarize("writes (staging to WriteDone)");
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
        let mut tracers: Vec<Tracer> = (0..CONNS).map(|_| Tracer::new(epoch, 1 << 20)).collect();
        let from = Instant::now();
        let (mut t, t0, t1) = measured_phase(
            &server,
            &mut links,
            a.seed ^ 1,
            from,
            from + window,
            Some(&mut tracers),
        );
        check(&mut out, &t, "socket, traced");
        out.attempted += t.attempted;
        out.failed += t.failed;
        socket_layers(&mut out, &mut t, &t0, &t1);
        out.set("trace.overhead_ratio", ratio(t.rate(), ops_per_s));
        for (c, tr) in tracers.into_iter().enumerate() {
            out.tracers.push((format!("conn{c}"), tr));
        }

        let stream = replay::rebase(std::mem::take(&mut t.capture));
        println!("replaying {} captured server-bound ops", stream.len());
        let core = replay::core(&stream, FILES, TERM, |k| datum(a.seed, k));
        out.set("core.handle_ns_per_msg", core.handle_ns_per_msg);
        out.set("core.wheel_ns_per_timer", core.wheel_ns_per_timer);
        out.set("core.live_leases", core.live_leases);
    }
    let bad_frames = server.net.counters().snapshot().bad_frames;
    out.check(
        format!("server counted {bad_frames} bad frames"),
        bad_frames == 0,
    );
    drop(links);
    shutdown(server);

    if a.trace {
        inproc_leg(&mut out, a.seed, window.min(Duration::from_secs(3)));
    }
    out
}

fn shutdown(s: Server) {
    s.net.shutdown();
    s.service.shutdown();
}

fn socket_layers(out: &mut Outcome, g: &mut Gen, s0: &Snap, s1: &Snap) {
    let ops = g.completed() as f64;
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
    let reads = (b.read_calls - a.read_calls) as f64;
    let writes = (b.write_calls - a.write_calls) as f64;
    out.set("net.syscalls_per_op", ratio(reads + writes, ops));
    out.set(
        "net.msgs_per_read_call",
        ratio((b.msgs_in - a.msgs_in) as f64, reads),
    );
    out.set(
        "net.msgs_per_write_call",
        ratio((b.msgs_out - a.msgs_out) as f64, writes),
    );
    out.set(
        "net.bytes_per_op",
        ratio(
            (b.bytes_in - a.bytes_in + b.bytes_out - a.bytes_out) as f64,
            ops,
        ),
    );
    let l = &mut g.link;
    l.write_call.0.sort_unstable();
    l.read_call.0.sort_unstable();
    out.set(
        "net.client_write_p50_us",
        percentile(&l.write_call.0, 0.5) as f64 / 1e3,
    );
    out.set(
        "net.client_read_p50_us",
        percentile(&l.read_call.0, 0.5) as f64 / 1e3,
    );
    out.set("net.retransmits_per_op", ratio(g.retransmits as f64, ops));
    out.set("net.bad_frames", (b.bad_frames - a.bad_frames) as f64);
    out.set(
        "net.expired_at_door",
        (b.expired_at_door - a.expired_at_door) as f64,
    );

    out.set(
        "wire.encode_ns_per_msg",
        ratio(l.encode_ns as f64, l.msgs_encoded as f64),
    );
    out.set(
        "wire.decode_ns_per_msg",
        ratio(l.decode_ns as f64, l.msgs_decoded as f64),
    );
    out.set(
        "wire.msgs_per_frame",
        ratio(l.msgs_encoded as f64, l.frames as f64),
    );
}

/// The `net-fleet` generator against the service's rings, traced: sets
/// the `try_send_batch` p50 and the in-process completion rate.
fn inproc_leg(out: &mut Outcome, seed: u64, window: Duration) {
    let (service, egress, _clock) = service(seed);
    let handle = service.handle();
    let mut links: Vec<Inproc> = (0..CONNS)
        .map(|c| Inproc {
            who: ClientId(c as u32),
            handle: handle.clone(),
            rx: egress.rx(c),
            buf: BatchBuf::new(),
        })
        .collect();
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNS).map(|_| Tracer::new(epoch, 1 << 20)).collect();
    let from = Instant::now() + WARMUP;
    let (mut g, ()) = phase(
        &mut links,
        seed ^ 2,
        from,
        from + window,
        Some(&mut tracers),
        || (),
    );
    drop(links);
    service.shutdown();
    check(out, &g, "in-process");
    out.attempted += g.attempted;
    out.failed += g.failed;
    g.link.send_batch.0.sort_unstable();
    let p50 = percentile(&g.link.send_batch.0, 0.5) as f64 / 1e3;
    let rate = g.rate();
    println!("in-process leg: {rate:.0} ops/s, try_send_batch p50 {p50:.2} us");
    out.set("svc.try_send_batch_p50_us", p50);
    out.set("svc.inproc_ops_per_s", rate);
    for (c, t) in tracers.into_iter().enumerate() {
        out.tracers.push((format!("inproc{c}"), t));
    }
}
