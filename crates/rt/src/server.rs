//! The server side: storage backend and `lease-svc` runtime adapters.
//!
//! The seed ran one server state machine on one dedicated thread behind
//! one channel. The real-time deployment now runs on the sharded
//! `lease-svc` runtime instead: the pieces here adapt it to this crate's
//! world — the durable [`StoreBackend`] shared by every shard, the
//! [`RtSink`] that delivers shard output over per-client ring lanes
//! (with cut switches, seeded chaos faults and the replica fence judged
//! per message), and the [`ServerPort`] client threads use to submit
//! protocol messages into the service.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use bytes::Bytes;
use lease_clock::{Clock, Dur, Time, WallClock};
use lease_core::{ClientId, ServerCounters, Storage, ToClient, ToServer, Version};
use lease_store::{FileId, Store};
use lease_svc::{
    chaos::Delivery, ClientSink, Egress, EgressWorker, FaultPlan, LinkChaos, SvcError, SvcHandle,
    WorkerSink,
};
use lease_vsys::HistoryEvent;

use crate::record::Recorder;

/// The resource key in the real-time system: the store's file id, as u64.
pub type Res = u64;

/// How long a client thread waits before resubmitting a message the
/// service refused under backpressure.
pub const RETRY_AFTER: Dur = Dur::from_millis(2);

/// Observable server statistics.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Protocol counters, merged across every shard.
    pub counters: ServerCounters,
    /// Committed writes in the store.
    pub writes_committed: u64,
    /// Crash/restart count per shard.
    pub shard_restarts: Vec<u64>,
}

/// Adapts `lease_store::Store` to the protocol's storage interface.
pub struct StoreBackend {
    /// The underlying durable store.
    pub store: Store,
    clock: WallClock,
    /// Logs every committed version for the consistency oracle.
    pub(crate) recorder: Option<Arc<Recorder>>,
}

impl StoreBackend {
    /// Wraps a store.
    pub fn new(store: Store, clock: WallClock) -> StoreBackend {
        StoreBackend {
            store,
            clock,
            recorder: None,
        }
    }
}

impl Storage<Res, Bytes> for StoreBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        if let Ok((data, v)) = self.store.read(FileId(*resource)) {
            return Some((data.clone(), Version(v.0)));
        }
        // Directory resources serve their serialized name bindings (§2:
        // the name-to-file information is leased like any datum).
        let dir = lease_store::DirId(*resource);
        let v = self.store.dir_version(dir)?;
        Some((
            crate::naming::encode_listing(&self.store, dir),
            Version(v.0),
        ))
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        if let Some(f) = self.store.file(FileId(*resource)) {
            return Some(Version(f.version.0));
        }
        self.store
            .dir_version(lease_store::DirId(*resource))
            .map(|v| Version(v.0))
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        let now = self.clock.now();
        let before = self.version(resource);
        let committed = if self.store.file(FileId(*resource)).is_some() {
            let v = self
                .store
                .install(FileId(*resource), data, now)
                .expect("file exists");
            Version(v.0)
        } else {
            // A write to a directory resource carries an encoded namespace
            // mutation; it lands here only after the lease protocol
            // collected every binding-holder's approval.
            let dir = lease_store::DirId(*resource);
            if let Some(op) = crate::naming::NameOp::decode(&data) {
                let apply = match op {
                    crate::naming::NameOp::Rename { from, to } => {
                        self.store.rename(dir, &from, dir, &to, now).map(|_| ())
                    }
                    crate::naming::NameOp::Unlink { name } => {
                        self.store.unlink(dir, &name, now).map(|_| ())
                    }
                    crate::naming::NameOp::Create { name } => self
                        .store
                        .create_file(
                            dir,
                            &name,
                            lease_store::FileKind::Regular,
                            lease_store::Perms::rw(),
                            now,
                        )
                        .map(|_| ()),
                };
                if apply.is_err() {
                    // The op no longer applies (e.g. name vanished while
                    // the write waited for approvals): bump the version
                    // anyway so callers revalidate, by touching and
                    // undoing nothing.
                }
            }
            Version(self.store.dir_version(dir).map(|v| v.0).unwrap_or(0))
        };
        // Only a version that actually advanced is a commit on the
        // oracle's timeline (a no-op name mutation leaves it unchanged).
        if before != Some(committed) {
            if let Some(rec) = &self.recorder {
                rec.push(HistoryEvent::Commit {
                    resource: *resource,
                    version: committed,
                    writer: None,
                    at: rec.now(),
                });
            }
        }
        committed
    }
}

/// The one durable backend, shared by every shard worker. Resources are
/// partitioned by shard, so two shards never write the same file; the
/// mutex only serializes unrelated accesses.
///
/// The lock recovers from poisoning: the store is only ever mutated
/// through committed writes, which either complete before a panic or were
/// never observable, so a holder dying mid-critical-section (a supervised
/// shard crash) must not cascade into whole-server failure.
pub(crate) struct SharedBackend(pub Arc<Mutex<StoreBackend>>);

/// Locks a possibly-poisoned backend mutex, accepting the poison: the
/// data under it is consistent by construction (see [`SharedBackend`]).
pub(crate) fn lock_backend(m: &Mutex<StoreBackend>) -> MutexGuard<'_, StoreBackend> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Storage<Res, Bytes> for SharedBackend {
    fn read(&self, resource: &Res) -> Option<(Bytes, Version)> {
        lock_backend(&self.0).read(resource)
    }

    fn version(&self, resource: &Res) -> Option<Version> {
        lock_backend(&self.0).version(resource)
    }

    fn write(&mut self, resource: &Res, data: Bytes) -> Version {
        lock_backend(&self.0).write(resource, data)
    }
}

/// Seeded chaos applied to the client↔server transport: per-link
/// deterministic drop/delay/duplicate dice plus plan-relative cut windows,
/// generalizing the boolean cut switches.
pub(crate) struct ChaosNet {
    plan: FaultPlan,
    truth: WallClock,
    /// Server→client fault dice, one stream per client.
    s2c: Vec<LinkChaos>,
    /// Client→server fault dice, one stream per client.
    c2s: Vec<LinkChaos>,
}

/// Stream-id bit distinguishing the client→server direction.
const C2S_STREAM: u64 = 1 << 32;

impl ChaosNet {
    pub fn new(plan: FaultPlan, truth: WallClock, clients: usize) -> ChaosNet {
        let s2c = (0..clients).map(|i| plan.link(i as u64)).collect();
        let c2s = (0..clients)
            .map(|i| plan.link(i as u64 | C2S_STREAM))
            .collect();
        ChaosNet {
            plan,
            truth,
            s2c,
            c2s,
        }
    }

    /// Elapsed run time on the true clock (plans are start-relative).
    fn elapsed(&self) -> Dur {
        self.truth.now().saturating_since(Time::ZERO)
    }

    /// Whether a plan cut window covers `client` right now.
    pub fn cut(&self, client: usize) -> bool {
        self.plan.cut_active(client, self.elapsed())
    }

    /// Whether a plan cut window covers grantor replica `replica` now
    /// (host-level partitions in the replicated topology).
    pub fn replica_cut(&self, replica: usize) -> bool {
        self.plan.replica_cut_active(replica, self.elapsed())
    }

    pub fn s2c(&self, client: usize) -> Delivery {
        self.s2c[client].next()
    }

    pub fn c2s(&self, client: usize) -> Delivery {
        self.c2s[client].next()
    }
}

/// One shared sleeper thread servicing every delayed (or duplicated)
/// chaos delivery in one direction, instead of a short-lived thread per
/// faulted message: entries wait in a min-heap keyed by deadline, and
/// the sleeper parks until the earliest one is due and hands it to its
/// `deliver` callback. The callback is built once, up front, and moves
/// into the sleeper thread, so it can own what a delivery needs without
/// a lock — an [`EgressWorker`] for replies (one more producer on the
/// client's lanes), service handle clones for submissions. The thread
/// is spawned lazily on the first delayed delivery (fault-free runs
/// never pay for it) and exits when the pool drops, discarding whatever
/// is still pending — an undelivered delayed message is
/// indistinguishable from a dropped one, which chaos already models.
pub(crate) struct DelayPool<T> {
    inner: Arc<DelayShared<T>>,
}

/// The sleeper's delivery callback.
type Deliver<T> = Box<dyn FnMut(T) + Send>;

struct DelayShared<T> {
    state: Mutex<DelayState<T>>,
    cvar: Condvar,
}

struct DelayState<T> {
    heap: BinaryHeap<Delayed<T>>,
    seq: u64,
    /// The callback, until the sleeper thread takes it.
    deliver: Option<Deliver<T>>,
    closed: bool,
}

struct Delayed<T> {
    due: Instant,
    /// Insertion order, so equal deadlines deliver FIFO.
    seq: u64,
    item: T,
}

impl<T> Ord for Delayed<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // `BinaryHeap` is a max-heap; invert so the earliest deadline
        // surfaces first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Delayed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Delayed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<T> Eq for Delayed<T> {}

impl<T: Send + 'static> DelayPool<T> {
    pub fn new(deliver: impl FnMut(T) + Send + 'static) -> DelayPool<T> {
        DelayPool {
            inner: Arc::new(DelayShared {
                state: Mutex::new(DelayState {
                    heap: BinaryHeap::new(),
                    seq: 0,
                    deliver: Some(Box::new(deliver)),
                    closed: false,
                }),
                cvar: Condvar::new(),
            }),
        }
    }

    /// Queues `item` for delivery after `delay`.
    pub fn schedule(&self, delay: Dur, item: T) {
        let due = Instant::now() + std::time::Duration::from(delay);
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if st.closed {
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        st.heap.push(Delayed { due, seq, item });
        if let Some(deliver) = st.deliver.take() {
            let inner = Arc::clone(&self.inner);
            std::thread::Builder::new()
                .name("rt-chaos-delay".into())
                .spawn(move || inner.run(deliver))
                .expect("spawn chaos delay sleeper");
        }
        drop(st);
        self.inner.cvar.notify_one();
    }
}

impl<T> Drop for DelayPool<T> {
    fn drop(&mut self) {
        let mut st = self
            .inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        st.heap.clear();
        drop(st);
        self.inner.cvar.notify_all();
    }
}

impl<T> DelayShared<T> {
    fn run(&self, mut deliver: Deliver<T>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if st.closed {
                return;
            }
            let due = match st.heap.peek() {
                None => {
                    st = self.cvar.wait(st).unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                Some(top) => top.due,
            };
            let now = Instant::now();
            if due > now {
                st = self
                    .cvar
                    .wait_timeout(st, due - now)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                continue;
            }
            let entry = st.heap.pop().expect("peeked");
            // Deliver outside the lock: schedulers must never block
            // behind a slow (or full) client lane or shard mailbox.
            drop(st);
            deliver(entry.item);
            st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A chaos-delayed reply: `copies` of the message, bound for `to`.
type DelayedReply = (ClientId, ToClient<Res, Bytes>, u32);

/// A chaos-delayed (or duplicated) client submission.
pub(crate) struct DelayedSubmit {
    pub from: ClientId,
    pub msg: ToServer<Res, Bytes>,
    pub deadline: Option<Time>,
    pub copies: u32,
}

/// Egress fencing for one replica of the replicated topology: which
/// replica this service is, and the grantor gate its replies must pass.
#[derive(Clone)]
pub(crate) struct RtFence {
    /// This service's replica index (for plan-relative cut windows).
    pub replica: usize,
    /// The replica's serving gate: while it is closed — never elected,
    /// lease lapsed, stale after a partition — every reply is dropped, so
    /// a stale grantor's grants and approvals cannot reach clients.
    pub gate: Arc<lease_quorum::GrantorGate>,
}

/// Delivers shard output to client threads over per-client SPSC ring
/// lanes: each shard worker attaches a private [`RtWorkerSink`] at
/// thread start, which makes the per-message fault and fence decisions
/// before publishing.
pub(crate) struct RtSink {
    egress: Egress<Res, Bytes>,
    /// Per-client kill switches (the partition / crashed-client fault).
    cuts: Arc<Vec<Arc<AtomicBool>>>,
    chaos: Option<Arc<ChaosNet>>,
    /// Present only in the replicated topology.
    fence: Option<RtFence>,
    /// Shared sleeper for chaos-delayed replies.
    delay: Arc<DelayPool<DelayedReply>>,
}

impl RtSink {
    pub fn new(
        egress: Egress<Res, Bytes>,
        cuts: Arc<Vec<Arc<AtomicBool>>>,
        chaos: Option<Arc<ChaosNet>>,
        fence: Option<RtFence>,
    ) -> RtSink {
        let mut worker = egress.worker();
        let mut run = Vec::new();
        let delay = Arc::new(DelayPool::new(move |(to, msg, copies): DelayedReply| {
            for _ in 1..copies {
                run.push(msg.clone());
            }
            run.push(msg);
            worker.push_run(to, &mut run);
            worker.flush_wakes();
        }));
        RtSink {
            egress,
            cuts,
            chaos,
            fence,
            delay,
        }
    }
}

impl ClientSink<Res, Bytes> for RtSink {
    fn attach_worker(&self) -> Box<dyn WorkerSink<Res, Bytes>> {
        Box::new(RtWorkerSink {
            worker: self.egress.worker(),
            cuts: Arc::clone(&self.cuts),
            chaos: self.chaos.clone(),
            fence: self.fence.clone(),
            delay: Arc::clone(&self.delay),
            run: Vec::new(),
        })
    }
}

/// A shard worker's private egress half in the real-time topology. Every
/// message is judged on its own, in this order: replica fence (gate
/// closed or replica cut) → drop; client cut switch → drop; plan cut
/// window → drop; the client's server→client dice → drop, pass, or hand
/// to the delay sleeper. Each link's dice stream is therefore consumed
/// once per message that reaches it. Survivors to the same client are
/// published as one run.
struct RtWorkerSink {
    worker: EgressWorker<Res, Bytes>,
    cuts: Arc<Vec<Arc<AtomicBool>>>,
    chaos: Option<Arc<ChaosNet>>,
    fence: Option<RtFence>,
    delay: Arc<DelayPool<DelayedReply>>,
    run: Vec<ToClient<Res, Bytes>>,
}

impl RtWorkerSink {
    /// Whether the replica may emit anything at all right now. Re-checked
    /// per message: the gate can lapse mid-flush.
    fn fenced(&self) -> bool {
        self.fence.as_ref().is_some_and(|f| {
            !f.gate.is_open()
                || self
                    .chaos
                    .as_ref()
                    .is_some_and(|c| c.replica_cut(f.replica))
        })
    }

    /// The per-message decision: `Some` publishes now, `None` means the
    /// message was dropped or handed to the delay sleeper.
    fn admit(&self, to: ClientId, msg: ToClient<Res, Bytes>) -> Option<ToClient<Res, Bytes>> {
        if self.fenced() {
            return None;
        }
        let c = to.0 as usize;
        if self.cuts[c].load(Ordering::Relaxed) {
            return None;
        }
        if let Some(chaos) = &self.chaos {
            if chaos.cut(c) {
                return None;
            }
            match chaos.s2c(c) {
                Delivery::Drop => return None,
                Delivery::Deliver { delay, copies } => {
                    if !delay.is_zero() || copies != 1 {
                        // Delayed (or duplicated) delivery must not block
                        // the shard worker: hand it to the shared sleeper.
                        self.delay.schedule(delay, (to, msg, copies));
                        return None;
                    }
                }
            }
        }
        Some(msg)
    }
}

impl WorkerSink<Res, Bytes> for RtWorkerSink {
    fn deliver_batch(&mut self, msgs: &mut Vec<(ClientId, ToClient<Res, Bytes>)>) {
        let mut run = std::mem::take(&mut self.run);
        let mut it = msgs.drain(..).peekable();
        while let Some((to, msg)) = it.next() {
            run.extend(self.admit(to, msg));
            while let Some((next, _)) = it.peek() {
                if *next != to {
                    break;
                }
                let (_, m) = it.next().expect("peeked");
                run.extend(self.admit(to, m));
            }
            if !run.is_empty() {
                self.worker.push_run(to, &mut run);
            }
        }
        drop(it);
        self.run = run;
        self.worker.flush_wakes();
    }
}

/// What became of a client's submission attempt.
pub enum PortVerdict {
    /// Handed to the service (or scheduled for chaotic delivery).
    Sent,
    /// Dropped: the link is cut, chaos ate it, or the service is gone.
    /// The client's retransmission machinery recovers.
    Dropped,
    /// The service pushed back; resubmit the returned message after
    /// [`RETRY_AFTER`] instead of surfacing an error.
    RetryAfter(ToServer<Res, Bytes>),
}

/// Where a client thread submits protocol messages: the single-server
/// topology's [`ServerPort`], or the replicated topology's failover port
/// that hunts for the current grantor. Implementations never block on a
/// saturated shard — backpressure degrades into
/// [`PortVerdict::RetryAfter`], and unreachability into
/// [`PortVerdict::Dropped`] (the client's retransmission backoff is the
/// retry schedule).
///
/// Each client thread **owns** its port (`Box<dyn Port>`): a
/// [`SvcHandle`] is a per-producer object (one SPSC lane per shard), so
/// ports are cloned per client rather than shared behind an `Arc` —
/// which is exactly the thread-per-producer shape the ingress wants.
pub trait Port: Send {
    /// Submits one client message, unless faults interfere. `deadline` is
    /// the originating op's drop-dead time, propagated so the service can
    /// discard the work if it drains it too late.
    fn send(
        &self,
        from: ClientId,
        msg: ToServer<Res, Bytes>,
        deadline: Option<Time>,
    ) -> PortVerdict;
}

/// The client→server half of a chaos plan: the dice, plus the system's
/// one sleeper for delayed (or duplicated) submissions, whose callback
/// owns its own service handle(s).
pub(crate) struct C2sChaos {
    pub net: Arc<ChaosNet>,
    pub delay: DelayPool<DelayedSubmit>,
}

impl C2sChaos {
    /// Rolls the dice for one submission: `Ok` sends it now, `Err` is
    /// the verdict when chaos dropped it or handed it to the sleeper.
    pub fn roll(
        &self,
        from: ClientId,
        msg: ToServer<Res, Bytes>,
        deadline: Option<Time>,
    ) -> Result<ToServer<Res, Bytes>, PortVerdict> {
        if self.net.cut(from.0 as usize) {
            return Err(PortVerdict::Dropped);
        }
        match self.net.c2s(from.0 as usize) {
            Delivery::Drop => Err(PortVerdict::Dropped),
            Delivery::Deliver { delay, copies } if !delay.is_zero() || copies != 1 => {
                let late = DelayedSubmit {
                    from,
                    msg,
                    deadline,
                    copies,
                };
                self.delay.schedule(delay, late);
                Err(PortVerdict::Sent)
            }
            Delivery::Deliver { .. } => Ok(msg),
        }
    }
}

/// What client threads hold instead of a channel to a server thread: the
/// sharded service handle, the cut switches, and the inbound chaos.
#[derive(Clone)]
pub(crate) struct ServerPort {
    svc: SvcHandle<Res, Bytes>,
    cuts: Arc<Vec<Arc<AtomicBool>>>,
    chaos: Option<Arc<C2sChaos>>,
}

impl ServerPort {
    pub fn new(
        svc: SvcHandle<Res, Bytes>,
        cuts: Arc<Vec<Arc<AtomicBool>>>,
        chaos: Option<Arc<ChaosNet>>,
    ) -> ServerPort {
        let chaos = chaos.map(|net| {
            // The sleeper owns its own handle clone: late (or duplicated)
            // submissions happen off the client thread, where the
            // blocking send is fine.
            let late = svc.clone();
            let delay = DelayPool::new(move |d: DelayedSubmit| {
                for _ in 0..d.copies {
                    let _ = late.send_at(d.from, d.msg.clone(), d.deadline);
                }
            });
            Arc::new(C2sChaos { net, delay })
        });
        ServerPort { svc, cuts, chaos }
    }
}

impl Port for ServerPort {
    fn send(
        &self,
        from: ClientId,
        msg: ToServer<Res, Bytes>,
        deadline: Option<Time>,
    ) -> PortVerdict {
        if self.cuts[from.0 as usize].load(Ordering::Relaxed) {
            return PortVerdict::Dropped; // Fault injection: drop inbound too.
        }
        let msg = match &self.chaos {
            Some(chaos) => match chaos.roll(from, msg, deadline) {
                Ok(msg) => msg,
                Err(verdict) => return verdict,
            },
            None => msg,
        };
        match self.svc.try_send_at(from, msg.clone(), deadline) {
            Ok(()) => PortVerdict::Sent,
            Err(SvcError::Backpressure) => PortVerdict::RetryAfter(msg),
            Err(_) => PortVerdict::Dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use lease_core::{MemStorage, ServerConfig, WriteId};
    use lease_quorum::{QuorumConfig, QuorumHooks, QuorumRuntime};
    use lease_svc::{EgressSink, LeaseService, SvcConfig, SvcHooks};

    use super::*;

    fn approval() -> ToClient<Res, Bytes> {
        ToClient::ApprovalRequest {
            write_id: WriteId(1),
            resource: 7,
            replaces: Version(1),
        }
    }

    /// The egress fence is judged on the lanes, per message: a worker
    /// sink of a replica whose gate is closed publishes nothing, while
    /// the current grantor's sink, over the same registry, does.
    #[test]
    fn worker_sink_drops_replies_while_its_gate_is_closed() {
        let quorum = QuorumRuntime::spawn(
            QuorumConfig {
                term: Dur::from_millis(250),
                max_term: Dur::from_millis(550),
                op_timeout: Dur::from_millis(60),
                retry_base: Dur::from_millis(10),
                stagger: Dur::from_millis(15),
                ..QuorumConfig::default()
            },
            FaultPlan::new(0),
            Arc::new(WallClock::new()),
            QuorumHooks::default(),
        );
        let start = Instant::now();
        let grantor = loop {
            if let Some(r) = (0..quorum.replicas()).find(|&r| quorum.gate(r).is_open()) {
                break r;
            }
            assert!(start.elapsed() < Duration::from_secs(10), "no grantor");
            std::thread::sleep(Duration::from_millis(5));
        };
        let stale = (grantor + 1) % quorum.replicas();

        let egress: Egress<Res, Bytes> = Egress::new(1, 16);
        let mut rx = egress.rx(0);
        let cuts = Arc::new(vec![Arc::new(AtomicBool::new(false))]);
        let sink = |replica: usize| {
            RtSink::new(
                egress.clone(),
                Arc::clone(&cuts),
                None,
                Some(RtFence {
                    replica,
                    gate: quorum.gate(replica),
                }),
            )
            .attach_worker()
        };
        let mut got = Vec::new();

        sink(stale).deliver_batch(&mut vec![(ClientId(0), approval()); 3]);
        rx.drain_into(&mut got, usize::MAX);
        assert!(got.is_empty(), "a closed gate leaked {} replies", got.len());

        sink(grantor).deliver_batch(&mut vec![(ClientId(0), approval()); 3]);
        rx.drain_into(&mut got, usize::MAX);
        assert_eq!(got.len(), 3, "the grantor's replies ride the lanes");
        quorum.shutdown();
    }

    /// Threads alive in this process (Linux; `None` elsewhere).
    fn threads() -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|n| n.trim().parse().ok())
    }

    /// Delayed and duplicated submissions share one sleeper thread: a few
    /// hundred of them in flight at once must not add a thread apiece.
    #[test]
    fn delayed_submissions_share_one_sleeper() {
        let egress: Egress<Res, Bytes> = Egress::new(1, 16);
        let svc: LeaseService<Res, Bytes> = LeaseService::spawn(
            SvcConfig {
                shards: 1,
                ..SvcConfig::default()
            },
            Arc::new(EgressSink::new(egress.clone())),
            SvcHooks::default(),
            |_| {
                (
                    lease_core::LeaseServer::new(ServerConfig::fixed(Dur::from_secs(10))),
                    Box::new(MemStorage::new()) as Box<dyn Storage<Res, Bytes> + Send>,
                )
            },
        );
        // Every submission is duplicated and delayed up to half a second,
        // so each one takes the late path.
        let plan = FaultPlan::new(11)
            .duplicate_messages(1.0)
            .delay_messages(Dur::from_millis(500));
        let chaos = Arc::new(ChaosNet::new(plan, WallClock::new(), 1));
        let cuts = Arc::new(vec![Arc::new(AtomicBool::new(false))]);
        let port = ServerPort::new(svc.handle(), cuts, Some(chaos));

        let before = threads();
        for _ in 0..300 {
            let msg = ToServer::Relinquish { resources: vec![7] };
            assert!(matches!(
                port.send(ClientId(0), msg, None),
                PortVerdict::Sent
            ));
        }
        let after = threads();
        // Other tests in this binary may start a few threads meanwhile;
        // a thread per message would add ~300.
        if let (Some(b), Some(a)) = (before, after) {
            assert!(
                a < b + 64,
                "300 delayed submissions grew the process from {b} to {a} threads"
            );
        }
        drop(port);
        svc.shutdown();
    }
}
