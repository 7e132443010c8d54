//! Replays of a workload's captured server-bound stream through layers
//! the workload does not call directly: a bare `LeaseServer`, a bare
//! `TimerWheel`, and the `lease-wire` codec.

use std::collections::HashMap;
use std::time::Instant;

use lease_clock::{Dur, Time};
use lease_core::{
    ClientId, LeaseServer, MemStorage, ReqId, ServerConfig, ServerInput, ServerOutput, ServerTimer,
    TimerWheel, ToClient, ToServer, WriteId,
};
use lease_wire::{frame_messages, Dir, FrameBuilder, WireValue};

use crate::stats::{median, ratio};

/// What a captured message asked for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Fetch,
    Write,
}

/// One captured client-to-server op, compact so a capture of a million
/// ops stays small. `at_ns` is the send time since the capture began.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub at_ns: u64,
    pub from: u32,
    pub kind: Kind,
    pub req: u64,
    pub resource: u64,
}

impl Sent {
    fn msg<D>(&self, data: &impl Fn(u64) -> D) -> ToServer<u64, D> {
        match self.kind {
            Kind::Fetch => ToServer::Fetch {
                req: ReqId(self.req),
                resource: self.resource,
                cached: None,
                also_extend: Vec::new(),
            },
            Kind::Write => ToServer::Write {
                req: ReqId(self.req),
                resource: self.resource,
                data: data(self.req),
            },
        }
    }
}

/// Puts the ops of every capturing thread in send order, with times
/// rebased so the first op is sent at zero.
pub fn rebase(mut all: Vec<Sent>) -> Vec<Sent> {
    all.sort_by_key(|s| s.at_ns);
    let base = all.first().map_or(0, |s| s.at_ns);
    for s in &mut all {
        s.at_ns -= base;
    }
    all
}

pub struct CoreReplay {
    pub handle_ns_per_msg: f64,
    pub wheel_ns_per_timer: f64,
    /// Median lease-table size once the first term has passed.
    pub live_leases: f64,
}

/// Replays `stream` into a fresh `LeaseServer` over `files` preloaded
/// files, on the capture's own clock. Approval requests are answered at
/// once by the addressed client and write deadlines fire from a timer
/// wheel, so no write stays pending. Only `handle` calls are timed.
/// Then replays the same grant pattern (one expiry `term` after each
/// op) through a bare `TimerWheel`.
pub fn core<D: Clone>(
    stream: &[Sent],
    files: u64,
    term: Dur,
    data: impl Fn(u64) -> D,
) -> CoreReplay {
    let mut store: MemStorage<u64, D> = MemStorage::new();
    for r in 0..files {
        store.insert(r, data(r));
    }
    let mut server: LeaseServer<u64, D> = LeaseServer::new(ServerConfig::fixed(term));
    let mut wheel: TimerWheel<u64> = TimerWheel::new(Dur::from_millis(1), Time::ZERO);
    let mut armed: HashMap<u64, Time> = HashMap::new();
    let mut due = Vec::new();
    let mut inputs: Vec<(ClientId, ToServer<u64, D>)> = Vec::new();
    let mut busy_ns = 0u64;
    let mut handled = 0u64;
    let mut last_prune = Time::ZERO;
    let mut next_sample = Time::ZERO.saturating_add(term);
    let mut sizes = Vec::new();

    for s in stream {
        let now = Time(s.at_ns);
        wheel.advance_into(now, &mut due);
        let fired: Vec<u64> = due
            .drain(..)
            .filter(|(at, k)| armed.get(k) == Some(at))
            .map(|(_, k)| k)
            .collect();
        for k in fired {
            armed.remove(&k);
            let t0 = Instant::now();
            let outs = server.handle(
                now,
                ServerInput::Timer(ServerTimer::WriteDeadline(WriteId(k))),
                &mut store,
            );
            busy_ns += t0.elapsed().as_nanos() as u64;
            handled += 1;
            follow(outs, &mut wheel, &mut armed, &mut inputs);
        }
        if now.0 - last_prune.0 >= 1_000_000 {
            server.prune(now);
            last_prune = now;
        }
        if now >= next_sample {
            sizes.push(server.table().len() as f64);
            next_sample = next_sample.saturating_add(Dur::from_millis(100));
        }

        inputs.push((ClientId(s.from), s.msg(&data)));
        while let Some((from, msg)) = inputs.pop() {
            let t0 = Instant::now();
            let outs = server.handle(now, ServerInput::Msg { from, msg }, &mut store);
            busy_ns += t0.elapsed().as_nanos() as u64;
            handled += 1;
            follow(outs, &mut wheel, &mut armed, &mut inputs);
        }
    }
    let live_leases = if sizes.is_empty() {
        server.table().len() as f64
    } else {
        median(&mut sizes)
    };

    // The expiry pattern alone: one timer per op, fired as time passes.
    let mut wheel: TimerWheel<u64> = TimerWheel::new(Dur::from_millis(1), Time::ZERO);
    let t0 = Instant::now();
    for (i, s) in stream.iter().enumerate() {
        let now = Time(s.at_ns);
        wheel.advance_into(now, &mut due);
        due.clear();
        wheel.schedule(now.saturating_add(term), i as u64);
    }
    let wheel_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(wheel.len());

    CoreReplay {
        handle_ns_per_msg: ratio(busy_ns as f64, handled as f64),
        wheel_ns_per_timer: ratio(wheel_ns, stream.len() as f64),
        live_leases,
    }
}

/// Applies a `handle` call's effects: arms write deadlines and queues
/// each addressed client's approval.
fn follow<D>(
    outs: Vec<ServerOutput<u64, D>>,
    wheel: &mut TimerWheel<u64>,
    armed: &mut HashMap<u64, Time>,
    inputs: &mut Vec<(ClientId, ToServer<u64, D>)>,
) {
    for o in outs {
        match o {
            ServerOutput::SetTimer {
                at,
                timer: ServerTimer::WriteDeadline(w),
            } => {
                armed.insert(w.0, at);
                wheel.schedule(at, w.0);
            }
            ServerOutput::Send {
                to,
                msg: ToClient::ApprovalRequest { write_id, .. },
            } => inputs.push((to, ToServer::Approve { write_id })),
            ServerOutput::Multicast {
                to,
                msg: ToClient::ApprovalRequest { write_id, .. },
            } => {
                for c in to {
                    inputs.push((c, ToServer::Approve { write_id }));
                }
            }
            _ => {}
        }
    }
}

/// Encodes `stream` into client frames of `per_frame` messages (as the
/// workload's client sends them), then decodes every frame. Returns
/// `(encode_ns_per_msg, decode_ns_per_msg)`.
pub fn wire<D: WireValue>(
    stream: &[Sent],
    per_frame: usize,
    data: impl Fn(u64) -> D,
) -> (f64, f64) {
    let msgs: Vec<(u32, ToServer<u64, D>)> =
        stream.iter().map(|s| (s.from, s.msg(&data))).collect();
    let mut buf: Vec<u8> = Vec::with_capacity(msgs.len() * 64);
    let mut frames: Vec<(usize, usize)> = Vec::with_capacity(msgs.len() / per_frame + 1);
    let t0 = Instant::now();
    for chunk in msgs.chunks(per_frame) {
        let start = buf.len();
        let mut fb = FrameBuilder::begin(&mut buf, Dir::C2s, ClientId(chunk[0].0));
        for (_, m) in chunk {
            fb.push_c2s(&mut buf, m, None);
        }
        fb.finish(&mut buf);
        frames.push((start, buf.len()));
    }
    let encode_ns = t0.elapsed().as_nanos() as f64;

    let mut decoded = 0u64;
    let mut check = 0u64;
    let t0 = Instant::now();
    for &(a, b) in &frames {
        let (_, mut it) = frame_messages(&buf[a..b]).expect("self-encoded frame");
        while let Some((m, _)) = it.next_c2s::<u64, D>().expect("self-encoded message") {
            if let ToServer::Fetch { resource, .. } | ToServer::Write { resource, .. } = m {
                check ^= resource;
            }
            decoded += 1;
        }
    }
    let decode_ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(check);
    assert_eq!(decoded, msgs.len() as u64, "every encoded message decodes");
    (
        ratio(encode_ns, msgs.len() as f64),
        ratio(decode_ns, decoded as f64),
    )
}
