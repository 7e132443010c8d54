//! `paper-sweep`: the reproduction's own traffic.
//!
//! The V compile trace (`VTrace::calibrated(seed)`) runs through
//! `lease_bench::run_at_term` over the `figure_terms()` × seeds grid on
//! one thread, pass after pass, until the time is up. No threads, no
//! sockets: the numbers move only with simulator cost (`lease-sim`'s
//! event queue and `lease-vsys`'s actors).
//!
//! There are no host-side reads or writes here, so every latency metric
//! reports the host latency of one grid cell (one `run_at_term` call),
//! and an "op" is a simulated client operation.

use std::time::{Duration, Instant};

use lease_bench::{figure_terms, run_at_term, sweep_digest, SimSweepRow};
use lease_clock::Dur;
use lease_workload::{Trace, VTrace};

use crate::stats::{failed_ratio, median, peak_rss_mb, percentile, ratio, Lat};
use crate::trace::{SpanId, Tracer};
use crate::{alloc_count, Args, Outcome};

/// Trace generations timed for `setup_s` (the median is reported).
const SETUPS: usize = 21;

/// `seed digest events` lines recorded from earlier runs of this code.
const RECORDED: &str = include_str!("../sweep_digests.txt");

/// One pass over the grid.
struct Pass {
    wall_s: f64,
    digest: String,
    events: u64,
    ops: u64,
    failures: u64,
    consistency_msgs: u64,
    cell_ns: Vec<u64>,
}

fn grid(seed: u64) -> Vec<(u64, f64)> {
    [seed, seed.wrapping_add(1)]
        .into_iter()
        .flat_map(|s| figure_terms().into_iter().map(move |t| (s, t)))
        .collect()
}

fn pass(trace: &Trace, cells: &[(u64, f64)], mut tracer: Option<&mut Tracer>, n: u64) -> Pass {
    let root = tracer
        .as_mut()
        .map_or(SpanId::NONE, |t| t.begin("sweep.pass", SpanId::NONE, n));
    let t0 = Instant::now();
    let mut p = Pass {
        wall_s: 0.0,
        digest: String::new(),
        events: 0,
        ops: 0,
        failures: 0,
        consistency_msgs: 0,
        cell_ns: Vec::with_capacity(cells.len()),
    };
    let mut rows = Vec::with_capacity(cells.len());
    for (i, &(seed, term_s)) in cells.iter().enumerate() {
        let span = tracer
            .as_mut()
            .map_or(SpanId::NONE, |t| t.begin("sim.run_at_term", root, i as u64));
        let t0 = Instant::now();
        let r = run_at_term(trace, Dur::from_secs_f64(term_s), seed);
        p.cell_ns.push(t0.elapsed().as_nanos() as u64);
        if let Some(t) = tracer.as_mut() {
            t.end(span);
        }
        p.events += r.sim_events;
        p.ops += r.hits + r.remote_reads + r.writes;
        p.failures += r.op_failures;
        p.consistency_msgs += r.consistency_msgs;
        rows.push(SimSweepRow {
            seed,
            term_s,
            consistency_msgs: r.consistency_msgs,
            hits: r.hits,
            remote_reads: r.remote_reads,
            writes: r.writes,
            mean_delay_ms: r.mean_delay_ms(),
            sim_events: r.sim_events,
        });
    }
    p.digest = sweep_digest(&rows);
    p.wall_s = t0.elapsed().as_secs_f64();
    if let Some(t) = tracer {
        t.end(root);
    }
    p
}

/// Median over passes of `count(pass)` per second.
fn rate(passes: &[Pass], count: impl Fn(&Pass) -> u64) -> f64 {
    let mut r: Vec<f64> = passes.iter().map(|p| count(p) as f64 / p.wall_s).collect();
    median(&mut r)
}

/// Passes until `budget` is spent (at least one).
fn measure(
    trace: &Trace,
    cells: &[(u64, f64)],
    budget: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t0.elapsed() < budget {
        passes.push(pass(
            trace,
            cells,
            tracer.as_deref_mut(),
            passes.len() as u64,
        ));
    }
    passes
}

fn recorded(seed: u64) -> Option<(&'static str, u64)> {
    RECORDED.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()?.parse::<u64>().ok()? == seed)
            .then(|| Some((f.next()?, f.next()?.parse().ok()?)))
            .flatten()
    })
}

pub fn run(a: &Args) -> Outcome {
    let mut out = Outcome::default();

    // Every generated trace stays alive until all are timed, so each
    // generation starts from the same allocator state: fresh memory.
    let mut gen_s = Vec::with_capacity(SETUPS);
    let mut traces = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        traces.push(VTrace::calibrated(a.seed).generate());
        gen_s.push(t0.elapsed().as_secs_f64());
    }
    let trace = traces.pop().expect("at least one set-up");
    drop(traces);
    let setup_s = median(&mut gen_s);
    let cells = grid(a.seed);

    // Warm-up pass: faults in lazy state; also the reference the timed
    // passes must reproduce exactly.
    let first = pass(&trace, &cells, None, 0);
    println!(
        "grid: {} cells, {} trace records, digest {} events {}",
        cells.len(),
        trace.records.len(),
        first.digest,
        first.events
    );
    match recorded(a.seed) {
        Some((digest, events)) => {
            out.check(
                "sweep digest equals the recorded one",
                first.digest == digest,
            );
            out.check(
                "sim.events equals the recorded count",
                first.events == events,
            );
        }
        None => println!(
            "no recorded digest for seed {}: checking pass-to-pass equality only",
            a.seed
        ),
    }

    let budget = if a.trace { a.seconds / 2 } else { a.seconds };
    let passes = measure(&trace, &cells, budget, None);
    let events_per_s = rate(&passes, |p| p.events);
    let mut traced = Vec::new();
    if a.trace {
        let mut t = Tracer::new(Instant::now(), 1 << 16);
        let (tp, allocs) = alloc_count::count(|| measure(&trace, &cells, budget, Some(&mut t)));
        let events: u64 = tp.iter().map(|p| p.events).sum();
        let mut cell: Vec<u64> = tp.iter().flat_map(|p| p.cell_ns.iter().copied()).collect();
        cell.sort_unstable();
        out.set("sim.events", first.events as f64);
        out.set("sim.allocs_per_event", ratio(allocs as f64, events as f64));
        out.set("sim.cell_p50_ms", percentile(&cell, 0.5) as f64 / 1e6);
        out.set("sim.trace_gen_s", setup_s);
        out.set(
            "trace.overhead_ratio",
            ratio(rate(&tp, |p| p.events), events_per_s),
        );
        out.tracers.push(("sweep".into(), t));
        traced = tp;
    }

    let all = || passes.iter().chain(&traced);
    let same = all().all(|p| p.digest == first.digest && p.events == first.events);
    out.check(
        format!("every pass reproduces the first ({} passes)", all().count()),
        same,
    );
    out.attempted = all().map(|p| p.ops).sum();
    out.failed = all().map(|p| p.failures).sum();

    let mut cell = Lat(passes
        .iter()
        .flat_map(|p| p.cell_ns.iter().copied())
        .collect());
    let (p50, p99) = cell.summarize("cell latency");
    out.set("setup_s", setup_s);
    out.set("ops_per_s", rate(&passes, |p| p.ops));
    out.set("read_p50_us", p50);
    out.set("read_p99_us", p99);
    out.set("write_p50_us", p50);
    out.set("write_p99_us", p99);
    out.set("failed_ops_ratio", failed_ratio(first.failures, first.ops));
    out.set(
        "server_msgs_per_op",
        ratio(first.consistency_msgs as f64, first.ops as f64),
    );
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("sim_events_per_s", events_per_s);
    out
}
