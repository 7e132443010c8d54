//! The lease service benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload rt-shared|net-fleet|paper-sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans recorded. With `--trace 1` it measures the same workload
//! untraced for half the time and traced for the other half, then times
//! each layer (directly, or by replaying the workload's captured inputs
//! through the layer's public entry point) and prints the per-layer
//! metrics. Every correctness check runs in both modes; a failed one
//! makes the command exit with status 1. The last line of standard
//! output is one JSON object with the result. See `README.md` beside
//! this file for the workloads and the metric map.

mod alloc_count;
mod net_fleet;
mod paper_sweep;
mod replay;
mod rt_shared;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use trace::Tracer;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (`--trace 0`) with their units.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("failed_ops_ratio", "ratio"),
    ("server_msgs_per_op", "msg/op"),
    ("peak_rss_mb", "MiB"),
    ("sim_events_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`) with their units.
const PER_LAYER: [(&str, &str); 36] = [
    ("rt.read_hit_p50_us", "us"),
    ("rt.read_hit_p99_us", "us"),
    ("rt.read_miss_p50_us", "us"),
    ("rt.read_miss_p99_us", "us"),
    ("rt.hit_ratio", "ratio"),
    ("rt.approvals_per_write", "count"),
    ("rt.retries_per_op", "count"),
    ("rt.timeouts", "count"),
    ("rt.sheds", "count"),
    ("svc.wakes_per_op", "count"),
    ("svc.grants_per_op", "count"),
    ("svc.deferred_write_ratio", "ratio"),
    ("svc.sheds_per_op", "count"),
    ("svc.expired_drops", "count"),
    ("svc.try_send_batch_p50_us", "us"),
    ("svc.inproc_ops_per_s", "1/s"),
    ("net.syscalls_per_op", "count"),
    ("net.msgs_per_read_call", "count"),
    ("net.msgs_per_write_call", "count"),
    ("net.bytes_per_op", "B"),
    ("net.client_write_p50_us", "us"),
    ("net.client_read_p50_us", "us"),
    ("net.retransmits_per_op", "count"),
    ("net.bad_frames", "count"),
    ("net.expired_at_door", "count"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.msgs_per_frame", "count"),
    ("core.handle_ns_per_msg", "ns"),
    ("core.wheel_ns_per_timer", "ns"),
    ("core.live_leases", "count"),
    ("sim.events", "count"),
    ("sim.allocs_per_event", "count"),
    ("sim.cell_p50_ms", "ms"),
    ("sim.trace_gen_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What the command was asked to run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Metric values by name; the printed set is chosen by the mode.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced phase's span buffers, one per calling thread.
    pub tracers: Vec<(String, Tracer)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// SplitMix64: one step of the generators' seeded random streams.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} wants a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {val}"))
        };
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = num()?,
            "--seconds" => a.seconds = Duration::from_secs(num()?.clamp(1, 120)),
            "--trace" => a.trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: --workload rt-shared|net-fleet|paper-sweep --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} cores={cores} transport=loopback (no real link)",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    let ticks = stats::cpu_ticks();
    let out = match args.workload.as_str() {
        "rt-shared" => rt_shared::run(&args),
        "net-fleet" => net_fleet::run(&args),
        "paper-sweep" => paper_sweep::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };

    let (steal, total) = stats::cpu_ticks();
    println!(
        "host CPU steal during the run: {:.2}% of CPU time",
        100.0 * stats::ratio((steal - ticks.0) as f64, (total - ticks.1) as f64)
    );

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    for (name, unit) in table {
        let measured = out.metrics.get(name).copied();
        let value = measured.filter(|v| v.is_finite()).unwrap_or(0.0);
        let note = if measured.is_none() {
            "  (layer not exercised by this workload)"
        } else {
            ""
        };
        println!("[{}] {name} = {value} {unit}{note}", args.workload);
        if !json.is_empty() {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }

    if args.trace {
        println!("self time by span (traced phase):");
        for (name, ns, n) in trace::self_time_by_name(&out.tracers) {
            println!("  {name:<24} spans={n:<9} self={:.3} ms", ns as f64 / 1e6);
        }
        let dropped: u64 = out.tracers.iter().map(|(_, t)| t.dropped).sum();
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match trace::write_spans(&path, &out.tracers) {
            Ok(()) => println!("spans written to {} ({dropped} dropped)", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    let mut correct = out.attempted > 0;
    if !correct {
        println!("check ops attempted: FAILED (none)");
    }
    for (name, ok) in &out.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        correct &= ok;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"name\": \"").count() - 3; // minus the workloads
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn flags_parse_and_default_the_seed() {
        let argv: Vec<String> = ["--workload", "net-fleet", "--seconds", "3", "--trace", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = parse(&argv).expect("valid flags");
        assert_eq!((a.workload.as_str(), a.seed), ("net-fleet", DEFAULT_SEED));
        assert_eq!((a.seconds, a.trace), (Duration::from_secs(3), true));
        assert!(parse(&["--seed".to_string()]).is_err());
        assert!(parse(&["--bogus".to_string(), "1".to_string()]).is_err());
    }
}
