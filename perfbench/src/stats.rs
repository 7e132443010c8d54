//! Percentiles, the tail rule, and small summary helpers.

use std::time::Duration;

/// Fewest samples that must lie beyond a percentile before it is
/// reported as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles the tail rule chooses among, lowest first.
const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p·n` samples at or below it. Zero when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps an exact product such as 0.999 × 10 000 from
    // rounding up a rank.
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest rank of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of the ladder (p50 … p99.99) with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// A latency sample set in nanoseconds.
#[derive(Default)]
pub struct Lat(pub Vec<u64>);

impl Lat {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn extend(&mut self, other: Lat) {
        self.0.extend(other.0);
    }

    /// Sorts in place and returns `(p50_us, p99_us)`, printing the
    /// sample count and the tail rule's verdict under `label`.
    pub fn summarize(&mut self, label: &str) -> (f64, f64) {
        self.0.sort_unstable();
        report_tail(label, &self.0);
        (
            percentile(&self.0, 0.5) as f64 / 1e3,
            percentile(&self.0, 0.99) as f64 / 1e3,
        )
    }
}

/// Prints the sample count of an ascending slice and the highest
/// percentile the tail rule supports.
fn report_tail(label: &str, sorted: &[u64]) {
    let n = sorted.len();
    let tail = match tail_percentile(n) {
        Some(p) => format!(
            "p{} = {:.1} us",
            p * 100.0,
            percentile(sorted, p) as f64 / 1e3
        ),
        None => "none (fewer than 10 samples beyond the median)".into(),
    };
    let note = if beyond(n, 0.99) < TAIL_MIN_BEYOND {
        " [p99 has fewer than 10 samples beyond it]"
    } else {
        ""
    };
    println!("  {label}: n={n}, highest supported tail {tail}{note}");
}

/// Length of one slice of a measured window.
const SLICE: Duration = Duration::from_secs(1);

/// Completions bucketed by the one-second slice of the measured window
/// they finished in. Rates and percentiles are taken per slice and the
/// median over slices is reported, so a short stall caused by another
/// process on the host moves one slice, not the result.
pub struct Sliced(Vec<Vec<u64>>);

impl Sliced {
    /// Slices covering a window of `window` (whole seconds; a partial
    /// last slice is dropped).
    pub fn new(window: Duration) -> Sliced {
        let n = (window.as_secs_f64() / SLICE.as_secs_f64())
            .floor()
            .max(1.0) as usize;
        Sliced(vec![Vec::new(); n])
    }

    /// Records a completion `offset` after the window opened, with
    /// latency `ns`. Completions outside the window are ignored.
    pub fn push(&mut self, offset: Duration, ns: u64) {
        let i = (offset.as_nanos() / SLICE.as_nanos()) as usize;
        if let Some(s) = self.0.get_mut(i) {
            s.push(ns);
        }
    }

    pub fn merge(&mut self, other: Sliced) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            a.extend(b);
        }
    }

    /// Completions inside the window.
    pub fn count(&self) -> u64 {
        self.0.iter().map(|s| s.len() as u64).sum()
    }

    /// Median over slices of the completions per second in `parts`
    /// together (all built over the same window).
    pub fn rate(parts: &[&Sliced]) -> f64 {
        let mut r: Vec<f64> = (0..parts[0].0.len())
            .map(|i| parts.iter().map(|p| p.0[i].len()).sum::<usize>() as f64)
            .map(|n| n / SLICE.as_secs_f64())
            .collect();
        median(&mut r)
    }

    /// Median over slices of each slice's p50 and p99, in µs; prints the
    /// pooled sample count and tail rule under `label`.
    pub fn summarize(&mut self, label: &str) -> (f64, f64) {
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for s in &mut self.0 {
            s.sort_unstable();
            p50.push(percentile(s, 0.5) as f64 / 1e3);
            p99.push(percentile(s, 0.99) as f64 / 1e3);
        }
        let mut pooled: Vec<u64> = self.0.concat();
        pooled.sort_unstable();
        report_tail(label, &pooled);
        (median(&mut p50), median(&mut p99))
    }
}

/// The median of `v` (mean of the middle two when even); zero when
/// empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `num / den`, zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Failed over attempted with one phantom success and one phantom
/// failure added (Laplace's rule): never zero, and within `1/attempted`
/// of the plain ratio.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    (failed + 1) as f64 / (attempted + 1) as f64
}

/// Host-wide `(steal, total)` CPU time so far, in ticks, from the first
/// line of `/proc/stat`; zeros where it cannot be read. Steal is time a
/// hypervisor ran something else on this machine's virtual CPUs.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p50 of 19 samples has 9 beyond it; of 20, exactly 10.
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        // p90 needs 100 samples, p99 1000, p99.9 10 000.
        assert_eq!(tail_percentile(99), Some(0.5));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(10_000), Some(0.999));
        assert_eq!(tail_percentile(10_000_000), Some(0.9999));
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn slices_report_the_median_slice() {
        let mut s = Sliced::new(Duration::from_millis(3500));
        // Slice 0 is a stall: few, slow completions.
        s.push(Duration::from_millis(10), 9_000_000);
        for (i, ms) in [(1, 1500), (2, 2500)] {
            for k in 0..100 {
                s.push(Duration::from_millis(ms), 1_000 * (i * 100 + k));
            }
        }
        // Past the last whole slice: ignored.
        s.push(Duration::from_millis(3200), 1);
        assert_eq!(s.count(), 201);
        assert_eq!(Sliced::rate(&[&s]), 100.0);
        assert_eq!(Sliced::rate(&[&s, &s]), 200.0);
        let (p50, p99) = s.summarize("test");
        assert_eq!((p50, p99), (249.0, 298.0));
    }

    #[test]
    fn median_and_failed_ratio() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(failed_ratio(0, 999), 0.001);
        assert_eq!(failed_ratio(9, 9), 1.0);
    }
}
