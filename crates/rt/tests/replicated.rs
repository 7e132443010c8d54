//! End-to-end tests of the replicated topology: N grantor replicas over
//! one durable store, clients failing over to the current grantor.
//!
//! The acceptance bar is the satellite requirement: killing the grantor
//! produces zero oracle violations and a bounded added delay — the next
//! retransmission simply lands on the successor once its takeover
//! recovery completes.

use std::time::{Duration, Instant};

use bytes::Bytes;
use lease_clock::Dur;
use lease_faults::check_history;
use lease_quorum::QuorumConfig;
use lease_rt::{FaultPlan, ReplicatedSystem};

/// Fast quorum tuning so takeovers land well inside the test budget.
fn quick_quorum() -> QuorumConfig {
    QuorumConfig {
        term: Dur::from_millis(250),
        max_term: Dur::from_millis(550),
        op_timeout: Dur::from_millis(60),
        retry_base: Dur::from_millis(10),
        stagger: Dur::from_millis(15),
        ..QuorumConfig::default()
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, timeout: Duration, f: F) {
    let start = Instant::now();
    while !f() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The quiet path: one replica wins the election and serves reads and
/// writes exactly like the single server, cache hits included.
#[test]
fn replicated_system_serves_reads_and_writes() {
    let sys = ReplicatedSystem::builder()
        .term(Dur::from_millis(200))
        .retry_interval(Dur::from_millis(20))
        .max_retries(100)
        .quorum(quick_quorum())
        .clients(2)
        .file("/data/a", b"v0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));
    let (_, _, from_cache) = c0.read_detailed(a).unwrap();
    assert!(
        from_cache,
        "second read inside the term must be a cache hit"
    );

    c1.write(a, b"v1".as_ref()).unwrap();
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v1"));
    assert!(sys.current_grantor().is_some());

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// Satellite acceptance: kill the grantor mid-workload. A successor takes
/// over, clients fail over through retransmission alone, the post-kill
/// write completes within a bounded delay, and the oracle accepts the
/// whole history.
#[test]
fn killed_grantor_fails_over_with_no_violations_and_bounded_delay() {
    let sys = ReplicatedSystem::builder()
        .term(Dur::from_millis(150))
        .retry_interval(Dur::from_millis(20))
        .max_retries(200)
        .quorum(quick_quorum())
        .clients(2)
        .file("/data/a", b"v0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    // Warm up through the first grantor: both clients hold leases its
    // death will orphan.
    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"v0"));
    c1.write(a, b"v1".as_ref()).unwrap();
    let first = sys.current_grantor().expect("a grantor served the warmup");

    sys.kill_replica(first);

    // The write straddling the takeover: it must reach the successor via
    // ordinary retransmission and commit once §5 recovery lets writes
    // through. Budget = grantor-lease expiry on the surviving acceptors
    // (~250 ms) + election + the successor's recovery window (~150 ms
    // file term), with generous headroom for load.
    let t0 = Instant::now();
    c0.write(a, b"v2".as_ref()).unwrap();
    let delay = t0.elapsed();
    assert!(
        delay < Duration::from_secs(4),
        "failover took {delay:?}, expected bounded takeover"
    );

    wait_for(
        "successor grantor",
        Duration::from_secs(5),
        || matches!(sys.current_grantor(), Some(g) if g != first),
    );

    // Post-takeover reads see the committed write (the successor granted
    // nothing until every lease of its predecessor could have expired).
    assert_eq!(c1.read(a).unwrap(), Bytes::from_static(b"v2"));

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// Killing grantors repeatedly — every replica in turn — never corrupts
/// the history: each successor defers until its predecessor's grants are
/// dead, and clients just keep retrying.
#[test]
fn rolling_grantor_kills_keep_history_consistent() {
    let sys = ReplicatedSystem::builder()
        .term(Dur::from_millis(120))
        .retry_interval(Dur::from_millis(15))
        .max_retries(300)
        .quorum(quick_quorum())
        .clients(2)
        .file("/data/a", b"r0".as_ref())
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));

    assert_eq!(c0.read(a).unwrap(), Bytes::from_static(b"r0"));
    for round in 1..=3u32 {
        if let Some(g) = sys.current_grantor() {
            sys.kill_replica(g);
        }
        let data = format!("r{round}");
        c1.write(a, data.clone().into_bytes()).unwrap();
        assert_eq!(c0.read(a).unwrap(), Bytes::from(data.into_bytes()));
    }

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}

/// Message chaos on every client link of the replicated topology: the
/// fenced replies travel the ring lanes (each replica's shard workers are
/// producers on one shared registry) and the history stays clean.
#[test]
fn replicated_chaos_replies_ride_the_lanes() {
    let plan = FaultPlan::new(0xFE9CE)
        .drop_messages(0.05)
        .duplicate_messages(0.05)
        .delay_messages(Dur::from_millis(5));
    let sys = ReplicatedSystem::builder()
        .term(Dur::from_millis(200))
        .retry_interval(Dur::from_millis(20))
        .max_retries(400)
        .quorum(quick_quorum())
        .clients(2)
        .file("/data/a", b"a0".as_ref())
        .chaos(plan)
        .start();
    let a = sys.lookup("/data/a").unwrap();
    let (c0, c1) = (sys.client(0), sys.client(1));
    for k in 0..4 {
        c0.read(a).unwrap();
        c1.write(a, format!("a{}", k + 1).into_bytes()).unwrap();
        assert_eq!(c0.read(a).unwrap(), Bytes::from(format!("a{}", k + 1)));
    }
    assert!(sys.egress_lanes() > 0, "fenced replies bypassed the lanes");

    let history = sys.history();
    sys.shutdown();
    let res = check_history(&history);
    assert!(res.is_ok(), "violations: {:?}", res.err());
}
