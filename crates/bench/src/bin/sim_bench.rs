//! Simulation-side perf trajectory: single-run engine speed and sweep
//! scaling.
//!
//! Two measurements, mirroring `svc_load`'s role on the service side:
//!
//! * **single-run** — the full simulated system (V compile trace) run
//!   repeatedly on one thread, reported as simulator events per second,
//!   at two lease terms: 10 s (short leases, frequent refetches) and
//!   300 s (long leases, more expiry timers pending). With the
//!   `alloc-count` feature the run also reports heap allocations per
//!   event.
//! * **sweep** — the `seeds × terms` experiment grid behind the figure
//!   binaries, run at 1, 2 and 4 worker threads through
//!   [`lease_bench::sweep::run`]. Wall-clock per thread count gives the
//!   parallel speedup; the per-thread-count digests must be identical
//!   (the sweep is deterministic by construction).
//!
//! Results go to `BENCH_sim.json`; `--check PATH` re-measures and gates
//! against a recorded baseline instead of writing, with one re-measure
//! before failing. The events/s floor compares raw throughput, so the
//! baseline must come from the same class of host as the check.

use std::time::Instant;

use lease_bench::sweep::available_cores;
use lease_bench::{allocations, figure_terms, run_at_term, run_sim_sweep, sweep_digest};
use lease_clock::Dur;
use lease_workload::{Trace, VTrace};

const HELP: &str = "\
sim_bench: simulation engine + sweep-runner perf trajectory

  --quick         smaller single-run budget and sweep grid (CI smoke)
  --threads LIST  comma-separated sweep worker counts (default 1,2,4;
                  each entry N or `auto`)
  --json PATH     where to write results (default BENCH_sim.json)
  --check PATH    measure, then gate against the baseline at PATH instead
                  of writing: sweep digests must match across thread
                  counts; at each term, best-run events/s must stay
                  >= 0.75x and allocs/event (alloc-count builds)
                  <= 1.25x the baseline's; and the 4-thread sweep
                  speedup must stay >= 0.75x the baseline's. The
                  baseline must have been recorded in the same mode
                  (quick/full) as this run — comparing across workloads
                  is meaningless. One re-measure before failing.
  --help          this text

On a single hardware thread the sweep speedups land near 1.0x (workers
time-slice one core); the digest equality and per-term gates still bite
there. The events/s and speedup gates compare against a baseline
recorded on the same class of host.";

#[derive(serde::Serialize, serde::Deserialize)]
struct SingleRun {
    term_s: f64,
    runs: u64,
    sim_events: u64,
    /// Aggregate rate over every run in the budget.
    events_per_sec: f64,
    /// The fastest single run's rate: the gated figure. A busy host only
    /// ever slows runs down, so the best run is far steadier across
    /// invocations than the aggregate.
    best_events_per_sec: f64,
    /// `None` when built without the `alloc-count` feature.
    allocs_per_event: Option<f64>,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct SweepTiming {
    threads: usize,
    wall_s: f64,
    digest: String,
}

#[derive(serde::Serialize, serde::Deserialize)]
struct SimBench {
    schema: String,
    quick: bool,
    cores: usize,
    /// Single-run engine speed at 10 s and 300 s terms.
    single: Vec<SingleRun>,
    sweep_cells: usize,
    sweep: Vec<SweepTiming>,
}

/// Runs `trace` repeatedly until `min_elapsed` has been spent
/// simulating, and reports aggregate and best-run events/s.
fn measure_single(trace: &Trace, term: Dur, min_elapsed: f64) -> SingleRun {
    // One untimed warmup run to fault in lazy setup.
    let _ = run_at_term(trace, term, 7);
    let before_allocs = allocations();
    let t0 = Instant::now();
    let mut runs = 0u64;
    let mut events = 0u64;
    let mut best = 0f64;
    while t0.elapsed().as_secs_f64() < min_elapsed {
        let t1 = Instant::now();
        let r = run_at_term(trace, term, 7 + runs);
        best = best.max(r.sim_events as f64 / t1.elapsed().as_secs_f64());
        events += r.sim_events;
        runs += 1;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let allocs_per_event = allocations()
        .zip(before_allocs)
        .map(|(a, b)| (a - b) as f64 / events.max(1) as f64);
    SingleRun {
        term_s: term.as_secs_f64(),
        runs,
        sim_events: events,
        events_per_sec: events as f64 / elapsed,
        best_events_per_sec: best,
        allocs_per_event,
    }
}

fn measure(quick: bool, thread_counts: &[usize]) -> SimBench {
    // Single-run workload: the V trace scaled to 120 modules — big
    // enough that one run is dominated by steady-state event churn.
    let single_trace = VTrace::scaled(1989, 120).generate();
    let min_elapsed = if quick { 0.3 } else { 1.5 };
    let single: Vec<SingleRun> = [10u64, 300]
        .into_iter()
        .map(|term_s| {
            let run = measure_single(&single_trace, Dur::from_secs(term_s), min_elapsed);
            println!(
                "single-run {term_s:>3}s terms: {:>9.0} ev/s (best run {:>9.0})  allocs/ev {}",
                run.events_per_sec,
                run.best_events_per_sec,
                run.allocs_per_event
                    .map(|a| format!("{a:.2}"))
                    .unwrap_or_else(|| "n/a".into()),
            );
            run
        })
        .collect();

    // Sweep workload: the calibrated figure grid.
    let sweep_trace = VTrace::calibrated(1989).generate();
    let seeds: &[u64] = if quick { &[7] } else { &[7, 8, 9] };
    let terms = if quick {
        vec![0.0, 1.0, 10.0]
    } else {
        figure_terms()
    };
    let cells = seeds.len() * terms.len();
    let mut sweep = Vec::new();
    for &t in thread_counts {
        let t0 = Instant::now();
        let rows = run_sim_sweep(&sweep_trace, seeds, &terms, t);
        let wall_s = t0.elapsed().as_secs_f64();
        let digest = sweep_digest(&rows);
        println!("sweep: threads={t:<2} cells={cells:<3} wall={wall_s:.3}s digest={digest}");
        sweep.push(SweepTiming {
            threads: t,
            wall_s,
            digest,
        });
    }
    SimBench {
        schema: "lease-bench/BENCH_sim/v2".to_string(),
        quick,
        cores: available_cores(),
        single,
        sweep_cells: cells,
        sweep,
    }
}

fn speedup(bench: &SimBench, threads: usize) -> Option<f64> {
    let t1 = bench.sweep.iter().find(|s| s.threads == 1)?;
    let tn = bench.sweep.iter().find(|s| s.threads == threads)?;
    Some(t1.wall_s / tn.wall_s.max(1e-9))
}

/// The gate: digests identical across thread counts (hard — determinism
/// is a correctness property), then per term best-run events/s >= 0.75x
/// and allocs/event <= 1.25x the baseline's, and the 4-thread speedup
/// >= 0.75x the baseline's.
fn check(fresh: &SimBench, baseline_path: &str) -> Result<(), String> {
    if let Some(first) = fresh.sweep.first() {
        for s in &fresh.sweep {
            if s.digest != first.digest {
                return Err(format!(
                    "sweep digest diverged: threads={} gave {} but threads={} gave {}",
                    first.threads, first.digest, s.threads, s.digest
                ));
            }
        }
    }
    let text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline: SimBench =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {baseline_path}: {e:?}"))?;
    // Rates only make sense against a baseline measured on the same
    // workload and budget, so the recorded mode must match the gate's.
    if fresh.quick != baseline.quick {
        let mode = |quick: bool| if quick { "quick" } else { "full" };
        return Err(format!(
            "baseline {baseline_path} was recorded in {} mode but this run is {} mode; \
             re-record it with the gate's flags (CI uses --quick)",
            mode(baseline.quick),
            mode(fresh.quick),
        ));
    }
    for base in &baseline.single {
        let term_s = base.term_s;
        let got = fresh
            .single
            .iter()
            .find(|r| r.term_s == term_s)
            .ok_or_else(|| format!("no single-run measurement at {term_s}s terms"))?;
        let (got_rate, base_rate) = (got.best_events_per_sec, base.best_events_per_sec);
        let floor = base_rate * 0.75;
        println!(
            "check {term_s}s best-run events/s: {got_rate:.0} vs baseline {base_rate:.0} (floor {floor:.0})"
        );
        if got_rate < floor {
            return Err(format!(
                "{term_s}s-term best-run events/s {got_rate:.0} regressed >25% below baseline {base_rate:.0}"
            ));
        }
        if let Some(base_allocs) = base.allocs_per_event {
            let got_allocs = got.allocs_per_event.ok_or(
                "baseline records allocs/event; build with --features alloc-count to gate it",
            )?;
            let ceiling = base_allocs * 1.25;
            println!(
                "check {term_s}s allocs/event: {got_allocs:.3} vs baseline {base_allocs:.3} (ceiling {ceiling:.3})"
            );
            if got_allocs > ceiling {
                return Err(format!(
                    "{term_s}s-term allocs/event {got_allocs:.3} rose >25% above baseline {base_allocs:.3}"
                ));
            }
        }
    }
    if let (Some(f4), Some(b4)) = (speedup(fresh, 4), speedup(&baseline, 4)) {
        let floor = b4 * 0.75;
        println!("check sweep speedup t4: {f4:.2}x vs baseline {b4:.2}x (floor {floor:.2}x)");
        if f4 < floor {
            return Err(format!(
                "4-thread sweep speedup {f4:.2}x regressed >25% below baseline {b4:.2}x"
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut json_path = "BENCH_sim.json".to_string();
    let mut check_path: Option<String> = None;
    let mut thread_list = "1,2,4".to_string();

    // `--threads` here takes a comma-separated list of worker counts to
    // sweep over, so parse it by hand rather than via take_threads_arg
    // (each entry still accepts `auto`).
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned();
        match (args[i].as_str(), value) {
            ("--help", _) | ("-h", _) => {
                println!("{HELP}");
                return;
            }
            ("--quick", _) => {
                quick = true;
                i += 1;
            }
            ("--threads", Some(v)) => {
                thread_list = v;
                i += 2;
            }
            ("--json", Some(v)) => {
                json_path = v;
                i += 2;
            }
            ("--check", Some(v)) => {
                check_path = Some(v);
                i += 2;
            }
            (other, _) => {
                eprintln!("unknown argument {other} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let thread_counts: Vec<usize> = thread_list
        .split(',')
        .map(|s| {
            lease_bench::sweep::parse_threads(s.trim()).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
        })
        .collect();

    println!(
        "sim_bench: {} mode, sweep threads {:?} ({} cores)",
        if quick { "quick" } else { "full" },
        thread_counts,
        available_cores(),
    );
    let fresh = measure(quick, &thread_counts);
    match check_path {
        Some(path) => {
            if let Err(first) = check(&fresh, &path) {
                // One retry before failing: wall-clock ratios can be
                // unlucky on a loaded host.
                eprintln!("sim_bench --check below floor ({first}); re-measuring once");
                let again = measure(quick, &thread_counts);
                if let Err(e) = check(&again, &path) {
                    eprintln!("sim_bench --check FAILED: {e}");
                    std::process::exit(1);
                }
            }
            println!("sim_bench --check OK");
        }
        None => match serde_json::to_string_pretty(&fresh) {
            Ok(s) => {
                if let Err(e) = std::fs::write(&json_path, s + "\n") {
                    eprintln!("warning: cannot write {json_path}: {e}");
                } else {
                    println!("wrote {json_path}");
                }
            }
            Err(e) => eprintln!("warning: cannot serialize results: {e:?}"),
        },
    }
}
